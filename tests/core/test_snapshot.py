"""Mid-run core snapshot/resume: cycle-exactness, stores, rewind-and-replay.

The contract under test (see ``repro.core.snapshot``): a run configured
with ``snapshot_interval=N`` drains at every N-instruction commit
boundary whether or not anything consumes the snapshots, so a run that
restores from its last persisted snapshot is *cycle-exact* against an
uninterrupted run of the same config — stats, counters, guard progress
and all.
"""

import dataclasses
import pickle

import pytest

from repro.core import Core, CoreConfig
from repro.core.pipeline import _ORACLE_TRIM_STRIDE
from repro.core.snapshot import SnapshotError, SnapshotStore, take_snapshot
from repro.guard.checker import SimGuard
from repro.guard.errors import DivergenceError
from repro.harness import RunConfig, simulate
from repro.workloads import build_workload


def _stats_key(result):
    s = result.stats
    return (s.cycles, s.retired, s.ipc, s.mpki, s.mispredicts,
            s.helper_retired, s.engine)


def _run_twice(tmp_path, **cfg_kwargs):
    """Same config against the same snapshot dir: full run, then resume."""
    cfg = RunConfig(snapshot_dir=str(tmp_path / "snaps"), **cfg_kwargs)
    full = simulate(cfg)
    resumed = simulate(cfg)
    assert full.resumed_at is None
    assert resumed.resumed_at is not None
    return full, resumed


def test_baseline_resume_cycle_exact(tmp_path):
    full, resumed = _run_twice(tmp_path, workload="astar", engine="baseline",
                               max_instructions=6000, snapshot_interval=2000)
    assert resumed.resumed_at >= 4000  # resumed from the *last* snapshot
    assert _stats_key(full) == _stats_key(resumed)
    # Full stats equality, not just headline numbers: every counter and
    # epoch sample must survive the snapshot/restore round trip.
    assert full.stats == dataclasses.replace(resumed.stats)


def test_phelps_mid_deployment_resume(tmp_path):
    # Long enough that Phelps trains, deploys helper threads, and the
    # snapshot boundary lands while rows are live (the drain terminates
    # the deployment, exactly as an epoch boundary would).
    full, resumed = _run_twice(tmp_path, workload="astar", engine="phelps",
                               max_instructions=30000,
                               snapshot_interval=10000)
    assert _stats_key(full) == _stats_key(resumed)


def test_perfbp_oracle_rewind_resume(tmp_path):
    # perfbp consults the oracle ahead of commit; the snapshot drain must
    # rewind the oracle to the retired frontier or the resumed run would
    # replay the future twice.
    full, resumed = _run_twice(tmp_path, workload="perlbench",
                               engine="perfbp", max_instructions=8000,
                               snapshot_interval=3000)
    assert _stats_key(full) == _stats_key(resumed)


def test_perfbp_oracle_journal_trimmed_at_retire():
    # Retire forgets the oracle's undo entries below the retiring uop's
    # after-mark, so the journal stays bounded by the in-flight window;
    # the resume test above runs with the same trimming.
    core = Core(build_workload("perlbench"),
                config=CoreConfig(perfect_branch_prediction=True))
    core.run(max_instructions=8000)
    undo = core.oracle.undo
    assert undo.mark() - len(undo) > 0  # a retired prefix was freed
    assert len(undo) < 4 * _ORACLE_TRIM_STRIDE
    core.snapshot()  # the drain rewinds to a mark above the trimmed start


def test_guard_survives_snapshot_resume(tmp_path):
    # The golden model is part of the snapshot: a resumed guarded run
    # keeps lockstep from the restored boundary and ends with the same
    # cumulative checked count as the uninterrupted run.
    kwargs = dict(workload="astar", engine="phelps", max_instructions=20000,
                  core=CoreConfig(guard_level="commit"), observe=True,
                  snapshot_interval=8000)
    full, resumed = _run_twice(tmp_path, **kwargs)
    assert _stats_key(full) == _stats_key(resumed)
    assert (full.stats.metrics["guard.checked"]
            == resumed.stats.metrics["guard.checked"] >= 20000)


def test_snapshot_requires_drained_core():
    core = Core(build_workload("astar"), config=CoreConfig())
    core.run(max_instructions=500)
    # Mid-flight core: the ROB/frontend still hold speculative uops.
    core.tick()
    if core.main.rob or core.main.frontend_q:
        with pytest.raises(SnapshotError):
            take_snapshot(core)
    # The public API drains first and therefore always succeeds.
    blob = core.snapshot()
    assert pickle.loads(blob)["cycle"] == core.cycle


def test_corrupt_snapshot_quarantined(tmp_path):
    snaps = tmp_path / "snaps"
    cfg = RunConfig(workload="astar", engine="baseline",
                    max_instructions=6000, snapshot_interval=2000,
                    snapshot_dir=str(snaps))
    clean = simulate(cfg)
    [shard] = list(snaps.glob("*.snap"))
    shard.write_bytes(b"not a pickle")
    rerun = simulate(cfg)
    # The damaged shard was moved aside, the run started from scratch,
    # and its stats still match (determinism, just slower).
    assert rerun.resumed_at is None
    assert list(snaps.glob("*.corrupt"))
    assert _stats_key(clean) == _stats_key(rerun)


def test_snapshot_store_roundtrip(tmp_path):
    store = SnapshotStore(tmp_path)
    assert store.get("k") is None
    store.put("k", b"\x00\x01blob")
    assert store.get("k") == b"\x00\x01blob"
    assert store.path_for("k").suffix == ".snap"


def test_cache_key_backward_compatible():
    base = RunConfig(workload="astar", engine="baseline",
                     max_instructions=6000)
    # snapshot_dir is storage plumbing and snapshot_interval=0 is the
    # legacy default: neither may change existing cache digests.
    assert base.cache_key() == RunConfig(
        workload="astar", engine="baseline", max_instructions=6000,
        snapshot_dir="/anywhere").cache_key()
    # A nonzero interval perturbs timing (drains) and must be visible.
    assert base.cache_key() != RunConfig(
        workload="astar", engine="baseline", max_instructions=6000,
        snapshot_interval=2000).cache_key()


def test_divergence_triggers_rewind_and_replay(tmp_path, monkeypatch):
    """A guarded run that diverges after a snapshot attaches a focused
    replay bundle: re-run from the preceding snapshot with full pipeline
    tracing, reproducing the same divergence."""
    original = SimGuard.on_retire

    def tripwire(self, thread, uop):
        if thread.retired >= 10_000:
            self._diverge(uop, "injected", "test-expected", "test-actual")
        return original(self, thread, uop)

    monkeypatch.setattr(SimGuard, "on_retire", tripwire)
    cfg = RunConfig(workload="astar", engine="baseline",
                    max_instructions=12000,
                    core=CoreConfig(guard_level="commit"), observe=True,
                    snapshot_interval=4000,
                    snapshot_dir=str(tmp_path / "snaps"))
    with pytest.raises(DivergenceError) as exc:
        simulate(cfg)
    replay = exc.value.report.replay
    assert replay is not None
    assert replay["reproduced"] is True
    assert replay["kind"] == "injected"
    # The replay started from the snapshot *before* the failure point ...
    assert 4000 <= replay["snapshot_retired"] < 10_000
    # ... and carries the focused diagnostics a bug hunt needs.
    assert replay["trace"]
    assert "replay" in exc.value.report.to_dict()
