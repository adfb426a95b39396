"""TAGE folded-history registers.

The tagged tables hash ``fold_bits`` images of the global history.  The
predictor keeps those images in circular-shift registers advanced by
``spec_update`` and rebuilt by ``restore`` and unpickling; these tests
hold every register, and every table's (index, tag), to the direct
computation after each step of random operation sequences.
"""

import pickle
import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from repro.frontend import TageConfig, TageSCL
from repro.utils.bits import fold_bits


def _hash_oracle(table, pc, ghr):
    """The (index, tag) hash of ``table`` computed from the full history:
    two fold images (one shifted) of the PC-free history window each."""
    h = ghr & ((1 << min(table.history_len, 64)) - 1)
    ib, tb = table.index_bits, table.tag_bits
    idx = (fold_bits(pc >> 2, ib)
           ^ fold_bits(h, ib)
           ^ (fold_bits(h, max(1, ib - 2)) << 1)) & (table.entries - 1)
    t = (fold_bits(pc >> 2, tb)
         ^ fold_bits(h, tb)
         ^ (fold_bits(h, tb - 1) << 1))
    return idx, t & ((1 << tb) - 1) or 1


def _assert_folds_exact(p, probe_pc):
    for (L, n), f in zip(p._fold_regs, p._folds):
        assert L > n
        assert f == fold_bits(p._ghr & ((1 << L) - 1), n)
    lookups = p._tage_lookup(probe_pc)[1]["lookups"]
    assert lookups == [_hash_oracle(t, probe_pc, p._ghr) for t in p._tables]


GEOMETRIES = [
    TageConfig(),
    TageConfig(num_tables=4, table_entries=64, tag_bits=7,
               min_history=3, max_history=200),
    TageConfig(num_tables=3, table_entries=16, tag_bits=4,
               min_history=2, max_history=12),
]

_pcs = st.integers(0, (1 << 20) - 1).map(lambda v: v & ~3)
_ops = st.lists(st.one_of(
    st.tuples(st.just("spec"), _pcs, st.booleans()),
    st.tuples(st.just("warm"), _pcs, st.booleans()),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore"), st.integers(0, 1 << 16)),
    st.tuples(st.just("pickle")),
), max_size=120)


class TestFoldedHistory:
    def test_default_geometry_has_nine_registers(self):
        p = TageSCL()
        assert p._fold_regs == [(L, n) for L in (16, 32, 64) for n in (8, 9, 10)]

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(range(len(GEOMETRIES))), _ops, _pcs)
    def test_registers_and_hashes_track_history(self, geometry, ops, probe_pc):
        p = TageSCL(GEOMETRIES[geometry])
        saved = [p.checkpoint()]
        _assert_folds_exact(p, probe_pc)
        for op in ops:
            kind = op[0]
            if kind == "spec":
                p.spec_update(op[1], op[2])
            elif kind == "warm":
                p.warm(op[1], op[2])
            elif kind == "checkpoint":
                saved.append(p.checkpoint())
            elif kind == "restore":
                p.restore(saved[op[1] % len(saved)])
            else:
                p = pickle.loads(pickle.dumps(p))
                assert "_folds" not in p.__getstate__()
            _assert_folds_exact(p, probe_pc)

    def test_restore_after_long_run_refolds_wide_windows(self):
        # Histories longer than the 128-bit ghr and than 64-bit windows:
        # bits shifted out of a window must leave its fold exactly.
        rng = random.Random(7)
        p = TageSCL()
        cp = p.checkpoint()
        for i in range(500):
            p.spec_update(0x1000 + 4 * (i % 7), rng.random() < 0.5)
            if i % 97 == 0:
                _assert_folds_exact(p, 0x2000)
        p.restore(cp)
        _assert_folds_exact(p, 0x2000)


def test_lookups_over_fresh_histories_do_not_grow_memory():
    # A hashing cache keyed by history grows without bound, because the
    # global history almost never repeats; the folded registers do not.
    rng = random.Random(3)
    p = TageSCL()
    pcs = [0x4000 + 4 * i for i in range(8)]
    for pc in pcs:  # PC folds are per static branch, kept across lookups
        p.predict(pc)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(20_000):
            p.spec_update(pcs[i % 8], rng.random() < 0.5)
            p.predict(pcs[i % 8])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1 << 20, f"{grown} bytes retained by 20k lookups"
