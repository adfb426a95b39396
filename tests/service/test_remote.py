"""Remote-execution protocol end-to-end: filesystem-free workers over
HTTP, daemon restarts, graceful drain, and the network-chaos sweep.

The acceptance bar throughout is the repo's standing one: a campaign
executed remotely — through faults, worker death, and daemon restarts —
finishes bit-identical (``entry_fingerprint``) to an in-process
``run_campaign`` of the same spec.
"""

import json
import os
import pathlib
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request

import pytest

import repro
from repro.harness.campaign import (CampaignJournal, entry_fingerprint,
                                    run_campaign)
from repro.service.chaosproxy import ChaosProxy, FaultPlan
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.httpclient import ServiceClient
from repro.service.lease import LeaseLost
from repro.service.queue import configs_from_spec
from repro.service.transport import RemoteJournal
from repro.service.worker import INJECT_ENV, WorkerOptions, work_service
from repro.service import transport as transport_mod
from repro.service import worker as worker_mod

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

SPEC = {"workloads": ["astar", "perlbench"],
        "engines": ["baseline", "phelps"], "instructions": 1500}


def get(url, timeout=10.0):
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            body = resp.read().decode()
            status = resp.status
    except urllib.error.HTTPError as exc:
        body = exc.read().decode()
        status = exc.code
    try:
        return status, json.loads(body)
    except json.JSONDecodeError:
        return status, body


def post(url, doc, headers=None, timeout=10.0):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json", **(headers or {})})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


def wait_for(predicate, timeout=180.0, interval=0.2, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {what}")


def quick_config(tmp_path, **overrides):
    kwargs = dict(root=str(tmp_path / "svc"), port=0, workers=0,
                  lease_seconds=2.0, reap_interval=0.3, tick_interval=0.1,
                  stream_interval=0.1, heartbeat_interval=0.2,
                  cache_dir=str(tmp_path / "cache"), log=False)
    kwargs.update(overrides)
    return ServiceConfig(**kwargs)


def submit_and_activate(svc, spec=SPEC):
    code, doc = post(f"{svc.url}/campaigns", spec)
    assert code == 201
    cid = doc["id"]
    wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]["status"]
             == "active", timeout=30, what="activation")
    return cid


def campaign_dir(svc, cid):
    return pathlib.Path(svc.state.get(cid).dir)


def journal_fingerprints(directory):
    journal = CampaignJournal(directory)
    manifest = journal.load_manifest() or {}
    fps = {}
    for point in manifest.get("points", ()):
        shard = journal.read_point(point["key"]) or {}
        assert shard.get("status") == "done", \
            f"{point['key']} is {shard.get('status')}"
        fps[point["key"]] = entry_fingerprint(shard["entry"])
    return fps


@pytest.fixture(scope="module")
def reference():
    """Fingerprints of an in-process run of SPEC (the bit-identity bar)."""
    entries = run_campaign(configs_from_spec(SPEC), jobs=1)
    return {key: entry_fingerprint(entry)
            for key, entry in entries.items()}


def worker_options(**overrides):
    kwargs = dict(worker_id="rw1", lease_seconds=3.0,
                  heartbeat_interval=0.2, poll_interval=0.1,
                  max_idle_polls=40, log=False, http_timeout=5.0,
                  http_retries=2, http_backoff=0.02,
                  breaker_threshold=2, breaker_reset_seconds=0.3,
                  publish_retry_seconds=30.0)
    kwargs.update(overrides)
    return WorkerOptions(**kwargs)


class TestLeaseProtocol:
    def test_claim_renew_complete_roundtrip(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, cid, "rw1")
            got = remote.claim_next()
            assert got is not None
            key, config, shard = got
            # The wire config mints the exact journal key: remote results
            # stay content-addressed.
            assert config.cache_key() == key
            assert shard["worker"] == "rw1"
            remote.renew(key, lease_seconds=5.0, hb={"instructions": 10})
            doc = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert doc["hb"] == {"instructions": 10}
            assert remote.complete(key, {"cycles": 123}) is True
            doc = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert doc["status"] == "done"
            assert doc["completed_by"] == "rw1"
            assert remote.held == set()

    def test_first_done_wins_over_http(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, cid, "rw1")
            key, _config, _shard = remote.claim_next()
            assert remote.complete(key, {"cycles": 1}) is True
            # A different worker re-completing the same point is refused
            # (no idempotency replay involved: different key).
            code, doc = post(f"{svc.url}/complete",
                             {"campaign": cid, "worker": "rw2", "key": key,
                              "entry": {"cycles": 999}})
            assert code == 200
            assert doc["accepted"] is False
            shard = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert shard["entry"] == {"cycles": 1}

    def test_claim_race_has_one_winner(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            _status, sched = get(f"{svc.url}/schedule?worker=probe")
            target = [sched["keys"][0]]
            a = RemoteJournal(ServiceClient(svc.url, worker_id="a"),
                              cid, "a")
            b = RemoteJournal(ServiceClient(svc.url, worker_id="b"),
                              cid, "b")
            wins = [a.claim_next(target), b.claim_next(target)]
            assert sum(1 for w in wins if w is not None) == 1

    def test_renew_409_after_fence_raises_leaselost(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, cid, "rw1")
            key, _config, _shard = remote.claim_next(lease_seconds=0.4)
            journal = CampaignJournal(campaign_dir(svc, cid))
            # Let the lease lapse unrenewed; the reaper requeues it, and
            # the next renew gets an authoritative 409 -> LeaseLost.
            wait_for(lambda: (journal.read_point(key) or {}).get("status")
                     == "pending", timeout=30, what="reaper requeue")
            with pytest.raises(LeaseLost):
                remote.renew(key, lease_seconds=0.4)
            assert key not in remote.held

    def test_idempotent_replay_suppresses_duplicates(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, cid, "rw1")
            key, _config, shard = remote.claim_next()
            idem = f"rw1:{cid}:{key}:g{shard.get('generation', 0)}"
            body = {"campaign": cid, "worker": "rw1", "key": key,
                    "entry": {"cycles": 7}}
            code, first = post(f"{svc.url}/complete", body,
                               headers={"Idempotency-Key": idem})
            assert (code, first["accepted"]) == (200, True)
            # The retransmit (same key, even a mangled body) replays the
            # recorded response instead of re-applying.
            code, replay = post(f"{svc.url}/complete",
                                {**body, "entry": {"cycles": 666}},
                                headers={"Idempotency-Key": idem})
            assert (code, replay) == (200, first)
            shard = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert shard["entry"] == {"cycles": 7}
            _status, metrics = get(f"{svc.url}/metrics")
            assert "repro_service_http_duplicates_total 1" in metrics
            assert "repro_service_http_requests_total" in metrics

    def test_release_returns_only_held_points(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            client = ServiceClient(svc.url, worker_id="rw1")
            remote = RemoteJournal(client, cid, "rw1")
            key, _config, _shard = remote.claim_next()
            assert remote.release_held() == 1
            shard = CampaignJournal(campaign_dir(svc, cid)).read_point(key)
            assert shard["status"] == "pending"
            assert shard["requeued"] == "released"
            # Nothing held -> nothing released, no manifest sweep needed.
            assert remote.release_held() == 0

    def test_unknown_campaign_is_404(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            code, doc = post(f"{svc.url}/claim",
                             {"campaign": "c999", "worker": "x"})
            assert code == 404
            code, _doc = post(f"{svc.url}/renew",
                              {"campaign": "c999", "worker": "x",
                               "key": "k"})
            assert code == 404

    def test_schedule_never_carries_dir_or_cache_dir(self, tmp_path):
        with CampaignService(quick_config(tmp_path)) as svc:
            cid = submit_and_activate(svc)
            _status, sched = get(f"{svc.url}/schedule?worker=probe")
            assert sched["campaign_id"] == cid
            assert "dir" not in sched
            assert "cache_dir" not in sched
            assert sched["keys"]


    def test_stop_is_not_a_shutdown_order(self, tmp_path):
        """Only a drain tells workers to exit.  A worker that polls while
        the daemon stops (a restart, say) must back off, not quit."""
        svc = CampaignService(quick_config(tmp_path))
        svc._stopping.set()
        assert "shutdown" not in svc._schedule_doc("rw1")
        svc._draining.set()
        assert svc._schedule_doc("rw1")["shutdown"] is True


class TestRemoteWorker:
    def test_filesystem_free_worker_is_bit_identical(
            self, tmp_path, reference):
        """The tentpole acceptance test, local half: a connected worker
        that provably never opens the campaign directory (its modules do
        not import CampaignJournal, and the daemon never reveals the
        path) finishes the campaign bit-identical to run_campaign."""
        assert not hasattr(worker_mod, "CampaignJournal")
        assert not hasattr(transport_mod, "CampaignJournal")
        config = quick_config(tmp_path)
        with CampaignService(config) as svc:
            cid = submit_and_activate(svc)
            report = work_service(svc.url, worker_options())
            assert report.claimed == 4
            assert report.completed == 4
            assert report.failed == 0
            assert report.campaigns == [cid]
            wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]["status"]
                     == "done", timeout=30, what="campaign done")
            assert journal_fingerprints(campaign_dir(svc, cid)) == reference

    def test_worker_rides_through_daemon_restart(self, tmp_path,
                                                 reference):
        """Stop the daemon mid-campaign and restart it on a new port (the
        chaos proxy retargets); the connected worker degrades to the
        breaker's reconnect loop, resumes, and completes every point
        exactly once — no duplicate completions, fingerprints identical."""
        config = quick_config(tmp_path)
        svc_a = CampaignService(config).start()
        svc_b = None
        proxy = ChaosProxy("127.0.0.1", svc_a.port).start()
        report_box = {}
        try:
            cid = submit_and_activate(svc_a)
            root = campaign_dir(svc_a, cid)
            options = worker_options(max_idle_polls=80)

            def run_worker():
                report_box["report"] = work_service(proxy.url, options)

            thread = threading.Thread(target=run_worker, daemon=True)
            thread.start()
            journal = CampaignJournal(root)
            done = lambda: sum(
                1 for p in (journal.load_manifest() or {}).get("points", ())
                if (journal.read_point(p["key"]) or {}).get("status")
                == "done")
            wait_for(lambda: done() >= 1, timeout=60, what="first point")
            svc_a.stop()
            time.sleep(0.8)   # the worker polls a dead daemon: breaker
            svc_b = CampaignService(
                quick_config(tmp_path)).start()
            proxy.retarget("127.0.0.1", svc_b.port)
            wait_for(lambda: done() == 4, timeout=120,
                     what="campaign completion after restart")
            thread.join(timeout=60)
            assert not thread.is_alive()
            report = report_box["report"]
            # Every point completed exactly once, by this worker; the
            # breaker actually engaged during the outage.
            assert report.completed == 4
            assert report.failed == 0
            assert report.breaker_opens >= 1
            assert journal_fingerprints(root) == reference
        finally:
            proxy.stop()
            if svc_b is not None:
                svc_b.stop()
            svc_a.stop()

    def test_drain_then_restart_resumes_bit_identically(self, tmp_path,
                                                        reference):
        """SIGTERM semantics: drain stops offers/claims, waits for the
        lease, records the interruption in the manifest, and a restarted
        daemon resumes the campaign to a bit-identical finish."""
        config = quick_config(tmp_path)
        svc_a = CampaignService(config).start()
        svc_b = None
        try:
            cid = submit_and_activate(svc_a)
            root = campaign_dir(svc_a, cid)
            client = ServiceClient(svc_a.url, worker_id="rw1")
            remote = RemoteJournal(client, cid, "rw1")
            key, _config, _shard = remote.claim_next(lease_seconds=2.0)
            svc_a.drain(drain_seconds=0.3)
            _status, sched = get(f"{svc_a.url}/schedule?worker=probe")
            assert sched.get("shutdown") is True
            code, doc = post(f"{svc_a.url}/claim",
                             {"campaign": cid, "worker": "rw2"})
            assert (code, doc["key"], doc["draining"]) == (200, None, True)
            # Renew/complete stay served while draining.
            remote.renew(key, lease_seconds=2.0)
            manifest = CampaignJournal(root).load_manifest()
            assert manifest["interruptions"], \
                "drain must write the interruption record"
            assert manifest["interruptions"][-1]["total"] == 4
            _status, metrics = get(f"{svc_a.url}/metrics")
            assert "repro_service_draining 1" in metrics
            svc_a.stop()
            # Restart: recovery re-adopts the campaign, the reaper heals
            # the abandoned lease, a worker finishes the rest.
            svc_b = CampaignService(quick_config(tmp_path)).start()
            wait_for(lambda: svc_b.state.get(cid) is not None, timeout=30,
                     what="recovery")
            # The drained point's lease must lapse before a new worker
            # can retake it, so give the worker a generous idle budget.
            report = work_service(svc_b.url,
                                  worker_options(max_idle_polls=80))
            assert report.completed == 4
            wait_for(lambda: get(f"{svc_b.url}/campaigns/{cid}")[1]
                     ["status"] == "done", timeout=30, what="done")
            assert journal_fingerprints(root) == reference
        finally:
            if svc_b is not None:
                svc_b.stop()
            svc_a.stop()


class TestChaosSweep:
    def test_chaos_sweep_with_worker_death_is_bit_identical(
            self, tmp_path, reference):
        """The tentpole acceptance test, chaos half: a 2x2 sweep through
        the seeded chaos proxy, executed by two subprocess workers (one
        SIGKILL-style death after its first claim), finishes fingerprint-
        identical to a local run_campaign, and the daemon's HTTP metrics
        saw the client-side retries the faults forced."""
        config = quick_config(tmp_path, lease_seconds=3.0)
        plan = FaultPlan(seed=1234, drop_rate=0.08, error_rate=0.12,
                         truncate_rate=0.08, duplicate_rate=0.08,
                         latency_rate=0.2, latency_seconds=0.01)
        flag = tmp_path / "died.flag"
        pkg_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
        procs = []
        with CampaignService(config) as svc:
            with ChaosProxy("127.0.0.1", svc.port, plan=plan) as proxy:
                cid = submit_and_activate(svc)
                root = campaign_dir(svc, cid)
                for wid in ("cw1", "cw2"):
                    env = dict(os.environ)
                    env["PYTHONPATH"] = os.pathsep.join(
                        [pkg_root] + ([env["PYTHONPATH"]]
                                      if env.get("PYTHONPATH") else []))
                    if wid == "cw1":
                        env[INJECT_ENV] = json.dumps(
                            {"worker": "cw1", "die_after_claims": 1,
                             "flag": str(flag)})
                    procs.append(subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--connect", proxy.url, "--id", wid,
                         "--lease-seconds", "3",
                         "--heartbeat-interval", "0.2",
                         "--poll-interval", "0.1",
                         "--max-idle-polls", "80", "-q"],
                        env=env, cwd=str(tmp_path)))
                    if wid == "cw1":
                        # Head start: the doomed worker must win at least
                        # one claim before the survivor drains the sweep.
                        time.sleep(0.5)
                try:
                    wait_for(lambda: get(f"{svc.url}/campaigns/{cid}")[1]
                             ["status"] == "done", timeout=180,
                             what="chaos campaign completion")
                    # The injected death really happened (exit 37, the
                    # SIGKILL-semantics hard exit) and was healed.
                    assert procs[0].wait(timeout=60) == 37
                    assert flag.exists()
                    counters = proxy.counters()
                    _status, metrics = get(f"{svc.url}/metrics")
                    injected = counters["injected"]
                    retried_faults = (injected["error"] + injected["drop"]
                                      + injected["truncate"])
                    if retried_faults:
                        for line in metrics.splitlines():
                            if line.startswith(
                                    "repro_service_http_retries_total"):
                                assert int(float(line.split()[-1])) >= 1
                                break
                        else:
                            raise AssertionError(
                                "repro_service_http_retries_total missing")
                    assert "repro_service_http_requests_total" in metrics
                finally:
                    for proc in procs:
                        if proc.poll() is None:
                            proc.terminate()
                    for proc in procs:
                        try:
                            proc.wait(timeout=30)
                        except subprocess.TimeoutExpired:
                            proc.kill()
            assert journal_fingerprints(root) == reference
        reread = journal_fingerprints(root)
        assert reread == reference   # survives daemon shutdown untouched
