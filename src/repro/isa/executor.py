"""In-order architectural executor.

Three uses:

1. Reference semantics for workloads (unit tests run kernels to completion
   and check algorithmic results).
2. The *oracle* behind perfect branch prediction (perfBP, Fig. 12a): an
   executor advances in lockstep with fetch and, thanks to the undo log,
   rewinds when the core squashes correct-path instructions (load-order
   violations).
3. The golden model for the property test asserting that the out-of-order
   core's architectural state matches in-order execution.
"""

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instruction import Instruction
from repro.isa.opcodes import COND_BRANCH_OPS, Opcode, RI_ALU_OPS, RR_ALU_OPS, COMPLEX_OPS
from repro.isa.program import Program
from repro.isa.semantics import eval_alu, eval_branch, mem_effective_address
from repro.isa.registers import NUM_REGS
from repro.utils.bits import to_i64


@dataclass
class StepResult:
    """Outcome of executing one instruction architecturally."""

    inst: Instruction
    pc: int
    next_pc: int
    taken: Optional[bool] = None  # conditional branches only
    mem_addr: Optional[int] = None
    mem_value: Optional[int] = None  # value loaded or stored
    halted: bool = False


class UndoLog:
    """Journal of register/memory/pc overwrites enabling rewind.

    ``mark()`` returns a position; ``rewind(state, mark)`` restores the
    executor to exactly that position.  Memory entries record the previous
    word value (or ``None`` when the address was untouched).

    Marks are absolute: ``trim(mark)`` forgets the entries below ``mark``
    (no later rewind may go below it) without moving any mark taken
    before or after.
    """

    def __init__(self):
        self._entries: List[Tuple] = []
        self._base = 0  # absolute position of ``_entries[0]``

    def mark(self) -> int:
        return self._base + len(self._entries)

    def trim(self, mark: int) -> None:
        """Forget the entries below ``mark``: no rewind goes there again."""
        del self._entries[:mark - self._base]
        self._base = mark

    def log_reg(self, idx: int, old: int) -> None:
        self._entries.append(("r", idx, old))

    def log_mem(self, addr: int, old: Optional[int]) -> None:
        self._entries.append(("m", addr, old))

    def log_pc(self, old: int) -> None:
        self._entries.append(("p", old))

    def log_halt(self) -> None:
        self._entries.append(("h",))

    def rewind(self, state: "ArchState", mark: int) -> None:
        if mark < self._base:
            raise ValueError(f"rewind to {mark} below the trimmed journal "
                             f"start {self._base}")
        mark -= self._base
        while len(self._entries) > mark:
            entry = self._entries.pop()
            kind = entry[0]
            if kind == "r":
                state.regs[entry[1]] = entry[2]
            elif kind == "m":
                addr, old = entry[1], entry[2]
                if old is None:
                    state.mem.pop(addr, None)
                else:
                    state.mem[addr] = old
            elif kind == "p":
                state.pc = entry[1]
            elif kind == "h":
                state.halted = False

    def __len__(self) -> int:
        return len(self._entries)


class ArchState:
    """Architectural registers + memory + pc, with optional undo journal."""

    def __init__(self, program: Program, undo: bool = False):
        self.program = program
        self.regs: List[int] = [0] * NUM_REGS
        self.mem: Dict[int, int] = dict(program.data)
        self.pc: int = program.entry
        self.halted = False
        self.undo: Optional[UndoLog] = UndoLog() if undo else None
        self.retired = 0

    # ------------------------------------------------------------------
    # Snapshot hooks (sampled simulation: checkpointed fast-forward).
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Serializable architectural state: regs, memory, pc, progress.

        The undo journal is deliberately excluded — a snapshot is a clean
        resume point, not a rewindable one.
        """
        return {
            "regs": list(self.regs),
            "mem": dict(self.mem),
            "pc": self.pc,
            "halted": self.halted,
            "retired": self.retired,
        }

    def restore_snapshot(self, snap: Dict) -> None:
        """Adopt a snapshot taken by :meth:`snapshot` (same program)."""
        self.regs = list(snap["regs"])
        self.mem = {int(a): int(v) for a, v in snap["mem"].items()}
        self.pc = int(snap["pc"])
        self.halted = bool(snap["halted"])
        self.retired = int(snap["retired"])
        if self.undo is not None:
            self.undo = UndoLog()

    # ------------------------------------------------------------------
    def read_mem(self, addr: int) -> int:
        """Read an 8-byte word; untouched memory reads as zero."""
        return self.mem.get(addr & ~7, 0)

    def _write_reg(self, idx: Optional[int], value: int) -> None:
        if idx is None or idx == 0:
            return
        if self.undo is not None:
            self.undo.log_reg(idx, self.regs[idx])
        self.regs[idx] = value

    def _write_mem(self, addr: int, value: int) -> None:
        if self.undo is not None:
            self.undo.log_mem(addr, self.mem.get(addr))
        self.mem[addr] = value

    def _set_pc(self, value: int) -> None:
        if self.undo is not None:
            self.undo.log_pc(self.pc)
        self.pc = value

    # ------------------------------------------------------------------
    def step(self) -> StepResult:
        """Execute the instruction at ``pc`` and advance."""
        if self.halted:
            raise RuntimeError("stepping a halted machine")
        inst = self.program.fetch(self.pc)
        if inst is None:
            raise RuntimeError(f"fetch outside code image at pc={self.pc:#x}")
        op = inst.opcode
        pc = self.pc
        result = StepResult(inst=inst, pc=pc, next_pc=pc + 4)

        if op in RR_ALU_OPS or op in COMPLEX_OPS:
            value = eval_alu(op, self.regs[inst.rs1], self.regs[inst.rs2])
            self._write_reg(inst.rd, value)
        elif op in RI_ALU_OPS:
            a = 0 if op is Opcode.LI else self.regs[inst.rs1]
            value = eval_alu(op, a, inst.imm)
            self._write_reg(inst.rd, value)
        elif op is Opcode.LD:
            addr = mem_effective_address(self.regs[inst.rs1], inst.imm)
            value = to_i64(self.read_mem(addr))
            self._write_reg(inst.rd, value)
            result.mem_addr, result.mem_value = addr, value
        elif op is Opcode.SD:
            addr = mem_effective_address(self.regs[inst.rs1], inst.imm)
            value = self.regs[inst.rs2]
            self._write_mem(addr, value)
            result.mem_addr, result.mem_value = addr, value
        elif op in COND_BRANCH_OPS:
            taken = eval_branch(op, self.regs[inst.rs1], self.regs[inst.rs2])
            result.taken = taken
            if taken:
                result.next_pc = inst.imm
        elif op is Opcode.JAL:
            self._write_reg(inst.rd, pc + 4)
            result.next_pc = inst.imm
        elif op is Opcode.JALR:
            target = (self.regs[inst.rs1] + inst.imm) & ~1
            self._write_reg(inst.rd, pc + 4)
            result.next_pc = target
        elif op is Opcode.NOP:
            pass
        elif op is Opcode.HALT:
            if self.undo is not None:
                self.undo.log_halt()
            self.halted = True
            result.halted = True
            result.next_pc = pc
        else:
            raise RuntimeError(f"opcode {op} is helper-thread-internal, not architectural")

        self._set_pc(result.next_pc)
        self.retired += 1
        return result


def fast_forward(state: ArchState, count: int, observer=None) -> int:
    """Architecturally execute up to ``count`` instructions.

    ``observer`` (if given) is called with each :class:`StepResult` — the
    sampling subsystem uses it to collect BBV counts and warmup footprints
    without the executor knowing about either.  Returns the number of
    instructions actually executed (short when the program halts).
    """
    executed = 0
    while executed < count and not state.halted:
        step = state.step()
        if observer is not None:
            observer(step)
        executed += 1
    return executed


def run_program(program: Program, max_steps: int = 10_000_000) -> ArchState:
    """Run a program to HALT (or ``max_steps``); returns the final state."""
    state = ArchState(program)
    for _ in range(max_steps):
        if state.halted:
            return state
        state.step()
    raise RuntimeError(f"program {program.name!r} did not halt within {max_steps} steps")
