import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import Assembler, ArchState, Opcode, run_program
from repro.isa.semantics import eval_alu, eval_branch, mem_effective_address
from repro.utils.bits import to_i64


def _run(build_fn, **kwargs):
    a = Assembler()
    build_fn(a)
    return run_program(a.build(), **kwargs)


class TestAluSemantics:
    def test_add_wraps(self):
        assert eval_alu(Opcode.ADD, 2**63 - 1, 1) == -(2**63)

    def test_sub(self):
        assert eval_alu(Opcode.SUB, 3, 10) == -7

    def test_shift_amount_masked_to_6_bits(self):
        assert eval_alu(Opcode.SLL, 1, 64) == 1
        assert eval_alu(Opcode.SLL, 1, 65) == 2

    def test_srl_is_logical(self):
        assert eval_alu(Opcode.SRL, -1, 60) == 15

    def test_sra_is_arithmetic(self):
        assert eval_alu(Opcode.SRA, -16, 2) == -4

    def test_slt_signed_vs_sltu_unsigned(self):
        assert eval_alu(Opcode.SLT, -1, 0) == 1
        assert eval_alu(Opcode.SLTU, -1, 0) == 0

    def test_div_by_zero_is_minus_one(self):
        assert eval_alu(Opcode.DIV, 5, 0) == -1

    def test_rem_by_zero_returns_dividend(self):
        assert eval_alu(Opcode.REM, 5, 0) == 5

    def test_div_truncates_toward_zero(self):
        assert eval_alu(Opcode.DIV, -7, 2) == -3
        assert eval_alu(Opcode.REM, -7, 2) == -1

    def test_min_max(self):
        assert eval_alu(Opcode.MIN, -5, 3) == -5
        assert eval_alu(Opcode.MAX, -5, 3) == 3

    @given(st.integers(-(2**63), 2**63 - 1), st.integers(-(2**63), 2**63 - 1))
    def test_all_rr_ops_stay_in_signed_range(self, a, b):
        for op in (Opcode.ADD, Opcode.SUB, Opcode.AND, Opcode.OR, Opcode.XOR,
                   Opcode.SLL, Opcode.SRL, Opcode.SRA, Opcode.SLT, Opcode.SLTU,
                   Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.MIN, Opcode.MAX):
            r = eval_alu(op, a, b)
            assert -(2**63) <= r < 2**63


class TestBranchSemantics:
    @pytest.mark.parametrize(
        "op,a,b,expect",
        [
            (Opcode.BEQ, 5, 5, True),
            (Opcode.BEQ, 5, 6, False),
            (Opcode.BNE, 5, 6, True),
            (Opcode.BLT, -1, 0, True),
            (Opcode.BGE, 0, 0, True),
            (Opcode.BLTU, -1, 0, False),  # unsigned: 2^64-1 < 0 is false
            (Opcode.BGEU, -1, 0, True),
        ],
    )
    def test_comparisons(self, op, a, b, expect):
        assert eval_branch(op, a, b) is expect

    def test_effective_address_aligns(self):
        assert mem_effective_address(0x1003, 0) == 0x1000
        assert mem_effective_address(0x1000, 8) == 0x1008


class TestExecution:
    def test_straightline_arith(self):
        def prog(a):
            a.li("x1", 6)
            a.li("x2", 7)
            a.mul("x3", "x1", "x2")
            a.halt()

        s = _run(prog)
        assert s.regs[3] == 42

    def test_x0_stays_zero(self):
        def prog(a):
            a.li("x0", 99)
            a.addi("x0", "x0", 5)
            a.halt()

        s = _run(prog)
        assert s.regs[0] == 0

    def test_load_store_roundtrip(self):
        def prog(a):
            buf = a.alloc("buf", 2)
            a.li("x1", buf)
            a.li("x2", 1234)
            a.sd("x2", "x1", 8)
            a.ld("x3", "x1", 8)
            a.halt()

        s = _run(prog)
        assert s.regs[3] == 1234

    def test_untouched_memory_reads_zero(self):
        def prog(a):
            a.li("x1", 0x200000)
            a.ld("x2", "x1", 0)
            a.halt()

        assert _run(prog).regs[2] == 0

    def test_loop_sums_array(self):
        def prog(a):
            arr = a.data("arr", [3, 1, 4, 1, 5])
            a.li("x1", arr)
            a.li("x2", 5)
            a.li("x3", 0)  # i
            a.li("x4", 0)  # sum
            a.label("loop")
            a.slli("x5", "x3", 3)
            a.add("x5", "x5", "x1")
            a.ld("x6", "x5", 0)
            a.add("x4", "x4", "x6")
            a.addi("x3", "x3", 1)
            a.blt("x3", "x2", "loop")
            a.halt()

        assert _run(prog).regs[4] == 14

    def test_call_and_return(self):
        def prog(a):
            a.li("x10", 5)
            a.call("double")
            a.mv("x11", "x10")
            a.halt()
            a.label("double")
            a.add("x10", "x10", "x10")
            a.ret()

        assert _run(prog).regs[11] == 10

    def test_jal_writes_return_address(self):
        def prog(a):
            a.jal("x1", "t")
            a.label("t")
            a.halt()

        s = _run(prog)
        assert s.regs[1] == s.program.entry + 4

    def test_nonhalting_raises(self):
        def prog(a):
            a.label("spin")
            a.j("spin")

        with pytest.raises(RuntimeError, match="did not halt"):
            _run(prog, max_steps=100)

    def test_retired_counts_instructions(self):
        def prog(a):
            a.nop()
            a.nop()
            a.halt()

        assert _run(prog).retired == 3

    def test_step_after_halt_raises(self):
        a = Assembler()
        a.halt()
        s = run_program(a.build())
        with pytest.raises(RuntimeError):
            s.step()

    def test_helper_internal_opcode_rejected(self):
        from repro.isa.instruction import Instruction
        from repro.isa.program import Program

        inst = Instruction(opcode=Opcode.PRED, rs1=1, rs2=2, pc=0x1000)
        p = Program([inst])
        s = ArchState(p)
        with pytest.raises(RuntimeError, match="helper-thread-internal"):
            s.step()


class TestUndoLog:
    def test_rewind_restores_registers(self):
        a = Assembler()
        a.li("x1", 1)
        a.li("x1", 2)
        a.halt()
        s = ArchState(a.build(), undo=True)
        s.step()
        mark = s.undo.mark()
        pc_before = s.pc
        s.step()
        assert s.regs[1] == 2
        s.undo.rewind(s, mark)
        assert s.regs[1] == 1
        assert s.pc == pc_before

    def test_rewind_restores_memory_including_fresh_writes(self):
        a = Assembler()
        buf = a.alloc("buf", 1)
        a.li("x1", buf)
        a.li("x2", 77)
        a.sd("x2", "x1", 0)
        a.halt()
        prog = a.build()
        s = ArchState(prog, undo=True)
        s.step()
        s.step()
        mark = s.undo.mark()
        s.step()  # the store
        assert s.mem[buf] == 77
        s.undo.rewind(s, mark)
        assert s.mem[buf] == 0  # alloc() zero-initialized it

    def test_rewind_restores_halt_flag(self):
        a = Assembler()
        a.halt()
        s = ArchState(a.build(), undo=True)
        mark = s.undo.mark()
        s.step()
        assert s.halted
        s.undo.rewind(s, mark)
        assert not s.halted

    def test_rewind_to_zero_is_initial_state(self):
        a = Assembler()
        arr = a.data("arr", [9])
        a.li("x1", arr)
        a.ld("x2", "x1", 0)
        a.addi("x2", "x2", 1)
        a.sd("x2", "x1", 0)
        a.halt()
        prog = a.build()
        s = ArchState(prog, undo=True)
        while not s.halted:
            s.step()
        s.undo.rewind(s, 0)
        assert s.regs[2] == 0
        assert s.mem[arr] == 9
        assert s.pc == prog.entry

    def test_trim_keeps_marks_absolute(self):
        a = Assembler()
        for i in range(12):
            a.li("x1", i)
        a.halt()
        prog = a.build()
        s = ArchState(prog, undo=True)
        marks = []
        for _ in range(8):
            marks.append(s.undo.mark())
            s.step()
        s.undo.trim(marks[6])
        assert len(s.undo) == 4  # two steps of (reg, pc) entries remain
        assert s.undo.mark() == 16
        s.step()
        s.undo.rewind(s, marks[7])
        assert s.regs[1] == 6
        assert s.pc == prog.entry + 7 * 4
        with pytest.raises(ValueError, match="below the trimmed"):
            s.undo.rewind(s, marks[5])


@st.composite
def random_linear_programs(draw):
    """Branch-free random programs over a small register set."""
    a = Assembler()
    base = a.data("scratch", [draw(st.integers(-100, 100)) for _ in range(8)])
    a.li("x1", base)
    n = draw(st.integers(min_value=1, max_value=25))
    ops = [Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.AND, Opcode.OR, Opcode.MUL]
    for _ in range(n):
        kind = draw(st.integers(0, 3))
        rd = draw(st.integers(2, 9))
        if kind == 0:
            a.li(rd, draw(st.integers(-1000, 1000)))
        elif kind == 1:
            op = draw(st.sampled_from(ops))
            a._emit(op, rd, draw(st.integers(2, 9)), draw(st.integers(2, 9)))
        elif kind == 2:
            a.ld(rd, "x1", draw(st.integers(0, 7)) * 8)
        else:
            a.sd(rd, "x1", draw(st.integers(0, 7)) * 8)
    a.halt()
    return a.build()


class TestUndoProperty:
    @settings(max_examples=50, deadline=None)
    @given(random_linear_programs(), st.data())
    def test_rewind_equals_replay(self, prog, data):
        """Rewinding to step k matches executing k steps from scratch."""
        s = ArchState(prog, undo=True)
        marks = []
        while not s.halted:
            marks.append(s.undo.mark())
            s.step()
        k = data.draw(st.integers(0, len(marks) - 1))
        s.undo.rewind(s, marks[k])

        ref = ArchState(prog)
        for _ in range(k):
            ref.step()
        assert s.regs == ref.regs
        assert s.pc == ref.pc
        assert {a: v for a, v in s.mem.items()} == {a: v for a, v in ref.mem.items()}

    @settings(max_examples=50, deadline=None)
    @given(random_linear_programs(), st.data())
    def test_rewind_after_trim_equals_replay(self, prog, data):
        """Trimming at a retired step never changes a later rewind."""
        s = ArchState(prog, undo=True)
        marks = []
        while not s.halted:
            marks.append(s.undo.mark())
            s.step()
        j = data.draw(st.integers(0, len(marks) - 1))
        s.undo.trim(marks[j])
        k = data.draw(st.integers(j, len(marks) - 1))
        s.undo.rewind(s, marks[k])

        ref = ArchState(prog)
        for _ in range(k):
            ref.step()
        assert s.regs == ref.regs
        assert s.pc == ref.pc
        assert s.mem == ref.mem
