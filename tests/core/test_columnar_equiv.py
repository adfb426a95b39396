"""Columnar storage structures against their recorded pre-refactor behaviour.

Each test drives one columnar class through a seeded operation sequence
and folds the observable result of every step — return values,
allocation order, LRU order, wakeup lists, stats — into a sha256.  The
expected digests were recorded while the pre-refactor object-graph twins
still existed, with each sequence asserted step-for-step equal on both
implementations, so a match here means the columnar class still behaves
exactly like the object graph it replaced.  The system-level half (whole
cores pinned to recorded cycles and commit streams) is the golden timing
corpus in ``tests/golden/``.
"""

import hashlib
import random

from repro.core.freelist import SharedPhysPool
from repro.core.regfile import PhysRegFile, PredRegFile
from repro.core.rename import RenameMapTable
from repro.frontend.targets import BranchTargetBuffer
from repro.memory.cache import Cache

RECORDED = {
    "regfile":
        "714e6d5461ba6c3df979bd05f5a9115bf2139643a1ff7d78ff54b28d0ec8f3a3",
    "pred_regfile":
        "8af05a8bfa29383186f3b594bd0da0b03b4ba484d6cae227a61e73b9ea2610f5",
    "shared_pool":
        "ff98a1cc3105b9de5e72511dc41824731e9f2567273d8dc13e7fccd40db6e18d",
    "rename_map":
        "93efdc4bcc3de3bbe2744308ac94b293fac3bd0f89f07c9a78ae4ae0fa056078",
    "btb":
        "0b8211d4fe80713c08c4c22175b9be0be0717020b094bae513dbf7ef04ce57fb",
    "cache":
        "d74870b109a568a4b33da24233b332f3b8d7395a85ca4917b0920bcb7d748778",
}


def _fold(h, *observed) -> None:
    h.update(repr(observed).encode() + b"\n")


def regfile_sequence(rf) -> str:
    rng = random.Random(7)
    h = hashlib.sha256()
    for step in range(3000):
        op = rng.randrange(5)
        reg = rng.randrange(64)
        if op == 0:
            out = rf.write(reg, step)
        elif op == 1:
            out = rf.subscribe(reg, f"w{step}")
        elif op == 2:
            out = rf.mark_not_ready(reg)
        elif op == 3:
            out = rf.read(reg)
        else:
            parity = rng.randrange(2)

            def drop(waiter, parity=parity):
                return int(waiter[1:]) % 2 == parity

            out = rf.drop_waiters(drop)
        _fold(h, op, reg, out, rf.ready[reg])
    _fold(h, list(rf.value), list(rf.ready), sorted(rf._waiters.items()))
    return h.hexdigest()


def pred_regfile_sequence(rf) -> str:
    rng = random.Random(19)
    h = hashlib.sha256()
    for _ in range(1500):
        reg = rng.randrange(1, 32)
        op = rng.randrange(3)
        if op == 0:
            enabled, taken = rng.random() < 0.5, rng.random() < 0.5
            out = rf.write_pred(reg, enabled, taken)
        elif op == 1:
            direction = rng.random() < 0.5
            probe = rng.randrange(32)  # includes pred0
            out = rf.consumer_enabled(probe, direction)
        else:
            out = rf.read(reg)
        _fold(h, op, reg, out)
    _fold(h, list(rf.value))
    return h.hexdigest()


def shared_pool_sequence(pool) -> str:
    rng = random.Random(11)
    h = hashlib.sha256()
    quota = {0: 48, 1: 24, 2: 12}
    held = {0: [], 1: [], 2: []}
    for _ in range(5000):
        tid = rng.randrange(3)
        if rng.random() < 0.55 or not held[tid]:
            out = pool.allocate(tid, quota[tid])
            if out is not None:
                held[tid].append(out)
        else:
            reg = held[tid].pop(rng.randrange(len(held[tid])))
            out = pool.release(tid, reg)
        _fold(h, tid, out, pool.free_count(), pool.held_by(tid),
              pool.held_total())
    _fold(h, list(pool.free_list()))
    return h.hexdigest()


def rename_map_sequence(rmt) -> str:
    rng = random.Random(3)
    h = hashlib.sha256()
    snaps = []
    for _ in range(2000):
        op = rng.randrange(4)
        if op == 0:
            logical = rng.randrange(1, rmt.num_logical)
            out = rmt.set(logical, rng.randrange(1, 300))
        elif op == 1:
            out = rmt.lookup(rng.randrange(rmt.num_logical))
        elif op == 2 or not snaps:
            snaps.append(rmt.snapshot())
            out = list(snaps[-1])
        else:
            snap = snaps.pop(rng.randrange(len(snaps)))
            out = rmt.restore(snap)
        _fold(h, op, out, list(rmt.mapped_physical()))
    _fold(h, list(rmt.map))
    return h.hexdigest()


def btb_sequence(btb) -> str:
    rng = random.Random(5)
    h = hashlib.sha256()
    pcs = [rng.randrange(1 << 18) * 4 for _ in range(200)]
    for _ in range(5000):
        pc = rng.choice(pcs)
        if rng.random() < 0.5:
            out = btb.insert(pc, rng.randrange(1 << 18) * 4)
        else:
            # lookup also exercises the MRU promotion
            out = btb.lookup(pc)
        _fold(h, pc, out)
    return h.hexdigest()


def cache_sequence(cache) -> str:
    rng = random.Random(13)
    h = hashlib.sha256()
    addrs = [rng.randrange(1 << 18) for _ in range(400)]
    for _ in range(6000):
        addr = rng.choice(addrs)
        roll = rng.random()
        if roll < 0.6:
            out = cache.access(addr, is_write=rng.random() < 0.3)
        elif roll < 0.8:
            out = cache.fill(addr, prefetched=rng.random() < 0.5)
        else:
            out = cache.lookup(addr)
        _fold(h, addr, out)
    _fold(h, sorted(vars(cache.stats).items()))
    cache.invalidate_all()
    _fold(h, [cache.lookup(a) for a in addrs])
    return h.hexdigest()


def test_regfile_equivalence():
    assert regfile_sequence(PhysRegFile(64)) == RECORDED["regfile"]


def test_pred_regfile_equivalence():
    assert pred_regfile_sequence(PredRegFile(32)) == RECORDED["pred_regfile"]


def test_shared_pool_equivalence():
    assert (shared_pool_sequence(SharedPhysPool(96, reserved=2))
            == RECORDED["shared_pool"])


def test_rename_map_equivalence():
    assert rename_map_sequence(RenameMapTable()) == RECORDED["rename_map"]


def test_btb_equivalence():
    assert (btb_sequence(BranchTargetBuffer(sets=16, ways=4))
            == RECORDED["btb"])


def test_cache_equivalence():
    assert (cache_sequence(Cache(4096, ways=4, name="equiv"))
            == RECORDED["cache"])
