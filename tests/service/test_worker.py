"""Worker-loop contracts: draining, concurrency, cache reuse, crash plan.

Every worker here is connected to an in-process daemon with no pool of
its own (``workers=0``), the only way a worker runs.  The bit-identity
tests run real (tiny) simulations: the worker path and the in-process
``run_campaign`` path must publish byte-equal entries for the same spec,
because that is the acceptance bar for the whole service.
"""

import contextlib
import json
import os
import pathlib
import subprocess
import sys
import threading

import pytest

import repro
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.harness.runcache import RunCache
from repro.service.daemon import CampaignService
from repro.service.queue import configs_from_spec
from repro.service.worker import INJECT_ENV, WorkerOptions, work_service

from tests.service.test_daemon import get, post, quick_config, wait_for

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "perlbench"], "engines": ["baseline"],
        "instructions": 1500}


@contextlib.contextmanager
def serving(tmp_path, spec=SPEC, **overrides):
    """A running daemon with ``spec`` active: ``(url, journal)``."""
    config = quick_config(tmp_path, cache_dir=None, **overrides)
    with CampaignService(config) as svc:
        code, doc, _ = post(f"{svc.url}/campaigns", spec)
        assert code == 201
        cid = doc["id"]
        wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]["status"]
                 == "active", timeout=30, what="activation")
        yield svc.url, CampaignJournal(svc.state.get(cid).dir)


def options(worker_id, **overrides):
    kwargs = dict(worker_id=worker_id, lease_seconds=10.0,
                  heartbeat_interval=0.2, poll_interval=0.05,
                  max_idle_polls=3, log=False)
    kwargs.update(overrides)
    return WorkerOptions(**kwargs)


def fingerprints(journal):
    out = {}
    for key, status in journal.statuses().items():
        assert status == "done", (key, status)
        out[key] = entry_fingerprint(journal.read_point(key)["entry"])
    return out


class TestDrain:
    def test_worker_drains_campaign_bit_identical_to_sweep(self, tmp_path):
        with serving(tmp_path) as (url, journal):
            report = work_service(url, options("w1"))
            assert report.claimed == report.completed == 2
            reference = run_campaign(configs_from_spec(SPEC), jobs=1)
            assert fingerprints(journal) == {
                k: entry_fingerprint(v) for k, v in reference.items()}
            # Completion provenance survives in the shards.
            for key in journal.statuses():
                doc = journal.read_point(key)
                assert doc["completed_by"] == "w1"
                assert doc["source"] == "worker"

    def test_cache_hits_short_circuit_simulation(self, tmp_path):
        cache_dir = tmp_path / "worker-cache"
        warm = run_campaign(configs_from_spec(SPEC),
                            cache=RunCache(cache_dir), jobs=1)
        with serving(tmp_path) as (url, journal):
            report = work_service(url, options(
                "w1", cache_dir=str(cache_dir)))
            assert report.cache_hits == 2
            assert fingerprints(journal) == {
                k: entry_fingerprint(v) for k, v in warm.items()}
            doc = journal.read_point(next(iter(journal.statuses())))
            assert doc["source"] == "cache"

    def test_max_points_bounds_one_worker(self, tmp_path):
        with serving(tmp_path) as (url, journal):
            report = work_service(url, options("w1", max_points=1))
            assert report.claimed == 1
            statuses = sorted(journal.statuses().values())
            assert statuses == ["done", "pending"]


class TestConcurrency:
    def test_concurrent_workers_share_without_duplication(self, tmp_path):
        spec = {"workloads": ["astar", "perlbench", "bfs", "sssp"],
                "engines": ["baseline"], "instructions": 1500}
        reports = {}
        with serving(tmp_path, spec=spec) as (url, journal):
            def drain(worker_id):
                reports[worker_id] = work_service(url, options(worker_id))

            threads = [threading.Thread(target=drain, args=(f"w{i}",))
                       for i in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            # Every point done exactly once; the sum over workers covers
            # the campaign with no double completion.
            assert sum(r.completed for r in reports.values()) == 4
            assert all(s == "done" for s in journal.statuses().values())
            completers = {journal.read_point(k)["completed_by"]
                          for k in journal.statuses()}
            assert completers <= {"w0", "w1", "w2"}
            reference = run_campaign(configs_from_spec(spec), jobs=1)
            assert fingerprints(journal) == {
                k: entry_fingerprint(v) for k, v in reference.items()}


class TestInjection:
    def test_injected_death_leaves_a_leased_point_behind(self, tmp_path):
        """The CI crash plan: ``repro worker --connect`` with a matching
        ``REPRO_SERVICE_INJECT`` hard-exits 37 right after its first
        claim, leaving that point running under a lease the reaper must
        later expire."""
        flag = tmp_path / "died.flag"
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   [pkg_root, os.environ.get("PYTHONPATH", "")]
               ).rstrip(os.pathsep),
               INJECT_ENV: json.dumps({"worker": "victim",
                                       "die_after_claims": 1,
                                       "flag": str(flag)})}
        # A long lease: the reaper must not heal the point mid-test.
        with serving(tmp_path, lease_seconds=120.0) as (url, journal):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "worker", "--connect", url,
                 "--id", "victim", "--quiet"],
                env=env, capture_output=True, text=True, timeout=120)
            assert proc.returncode == 37, proc.stderr
            assert flag.exists()
            statuses = journal.statuses()
            assert sorted(statuses.values()) == ["pending", "running"]
            running = next(k for k, s in statuses.items() if s == "running")
            doc = journal.read_point(running)
            assert doc["worker"] == "victim"
            assert doc["lease_expires_unix"] > 0

    def test_plan_for_other_worker_is_inert(self, tmp_path, monkeypatch):
        monkeypatch.setenv(INJECT_ENV, json.dumps(
            {"worker": "somebody-else", "die_after_claims": 1}))
        with serving(tmp_path) as (url, _journal):
            report = work_service(url, options("w1"))
        assert report.completed == 2
