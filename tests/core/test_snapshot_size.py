"""Snapshot blobs stay smaller than the pre-refactor object-graph engine's.

The columnar classes serialize their columns as packed bytes
(``array('q').tobytes()``, packed cache words) instead of element-wise
object graphs.  The bounds below are the sizes the object-graph engine
produced for the same snapshots, measured before it was removed; the
columnar engine must stay strictly under them while still restoring to
the same simulation.
"""

import pickle

from repro.core import Core
from repro.core.regfile import PhysRegFile
from repro.core.snapshot import load_state
from repro.workloads import build_workload

# astar, snapshot at the 8k-instruction boundary of a 10k run.
OBJECT_GRAPH_BLOB_BYTES = 265_893
# 512-register file holding the values written below.
OBJECT_GRAPH_REGFILE_PICKLE_BYTES = 5_731


def test_columnar_snapshot_is_smaller():
    core = Core(build_workload("astar"))
    blobs = []
    stats = core.run(max_instructions=10_000, snapshot_interval=8000,
                     on_snapshot=blobs.append)
    assert blobs, "run never reached a snapshot boundary"
    assert len(blobs[-1]) < OBJECT_GRAPH_BLOB_BYTES, \
        f"snapshot ({len(blobs[-1])}B) not smaller than the object-graph " \
        f"engine's ({OBJECT_GRAPH_BLOB_BYTES}B)"
    # The blob restores to the same simulation.
    resumed = Core(build_workload("astar"))
    resumed.restore(load_state(blobs[-1]))
    again = resumed.run(max_instructions=10_000, snapshot_interval=8000)
    assert (again.cycles, again.retired) == (stats.cycles, stats.retired)


def test_columnar_components_pickle_compact():
    # The per-structure claim behind the blob-level one: a populated
    # register file round-trips through pickle smaller than the object
    # graph holding identical contents did.
    rf = PhysRegFile(512)
    for reg in range(1, 512):
        # Representative 64-bit register contents (pointers, hashes) —
        # where the packed column beats per-element int pickling.
        rf.write(reg, (reg * 0x9E3779B97F4A7C15) % (1 << 63))
    assert len(pickle.dumps(rf)) < OBJECT_GRAPH_REGFILE_PICKLE_BYTES
    restored = pickle.loads(pickle.dumps(rf))
    assert restored.value == rf.value
    assert restored.ready == rf.ready
