"""Lease-layer contracts: claiming, fencing, idempotent completion.

The claims here are the ones the whole service stands on.  The daemon is
the single writer of lease state, so the racing tests drive its own
``_lease_rpc`` and ``_reap`` and force each losing interleaving with a
paused ``read_point`` instead of hoping two threads happen to hit it.
"""

import collections
import random
import sys
import threading
import time

import pytest

from repro.harness.campaign import CampaignJournal
from repro.service.daemon import CampaignService, ServiceConfig
from repro.service.lease import (LeaseLost, claim_next, claim_point,
                                 complete_point, fail_point, reap_expired,
                                 release_point, renew_lease)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def make_journal(tmp_path, keys=("a", "b")):
    root = tmp_path / "camp"
    root.mkdir()
    journal = CampaignJournal(root)
    journal.write_manifest({
        "schema": 1, "spec": {},
        "points": [{"key": k, "workload": "w", "engine": "e"}
                   for k in keys],
        "interruptions": [],
    })
    for k in keys:
        journal.mark(k, "pending")
    return journal


ONE_POINT = {"workloads": ["astar"], "engines": ["baseline"],
             "instructions": 1000}


def offline_service(root, spec=ONE_POINT, **overrides):
    """A daemon with one active campaign and no threads: tests call its
    lease RPCs and reaper directly.  Returns ``(service, cid)``."""
    kwargs = dict(root=str(root), workers=0, log=False)
    kwargs.update(overrides)
    svc = CampaignService(ServiceConfig(**kwargs))
    record = svc._submit(dict(spec))
    svc._activate(record)
    return svc, record.id


def journal_of(svc, cid):
    return CampaignJournal(svc.state.get(cid).dir)


def paused_reads(monkeypatch, who):
    """Pause the first ``read_point`` that thread ``who`` makes of a pending
    or running shard, between the read and its caller's write.  Returns
    ``(paused, resume)`` events; the pause gives up after 5 s so a test
    cannot hang."""
    real = CampaignJournal.read_point
    paused, resume = threading.Event(), threading.Event()

    def read_point(self, key):
        doc = real(self, key)
        if (threading.current_thread() is who and not paused.is_set()
                and doc is not None
                and doc.get("status") in ("pending", "running")):
            paused.set()
            resume.wait(timeout=5.0)
        return doc

    monkeypatch.setattr(CampaignJournal, "read_point", read_point)
    return paused, resume


def thread(target):
    return threading.Thread(target=target, daemon=True)


class TestClaim:
    def test_claim_pending_point(self, tmp_path):
        journal = make_journal(tmp_path)
        doc = claim_point(journal, "a", "w1", lease_seconds=30)
        assert doc["status"] == "running"
        assert doc["worker"] == "w1"
        assert doc["attempts"] == 1
        assert doc["lease_expires_unix"] > time.time()

    def test_second_claim_of_same_generation_loses(self, tmp_path):
        journal = make_journal(tmp_path)
        assert claim_point(journal, "a", "w1") is not None
        assert claim_point(journal, "a", "w2") is None

    def test_done_and_running_are_not_claimable(self, tmp_path):
        journal = make_journal(tmp_path)
        journal.mark("a", "done", entry={"cycles": 1})
        assert claim_point(journal, "a", "w1") is None

    def test_claim_next_skips_contended_keys(self, tmp_path):
        journal = make_journal(tmp_path, keys=("a", "b"))
        assert claim_point(journal, "a", "w1") is not None
        key, doc = claim_next(journal, ["a", "b"], "w2")
        assert key == "b"
        assert doc["worker"] == "w2"

    def test_stale_reader_loses_race_to_first_claimer(self, tmp_path,
                                                      monkeypatch):
        """A second ``/claim`` fires while the first claim sits between
        its shard read and its shard write.  The journal lock makes the
        second claim wait and then read the first one's ``running``
        shard, so exactly one worker wins."""
        svc, cid = offline_service(tmp_path)
        answers = {}

        def claim(worker):
            answers[worker] = svc._lease_rpc(
                "claim", {"campaign": cid, "worker": worker})[1]["key"]

        first = thread(lambda: claim("w1"))
        second = thread(lambda: claim("w2"))
        paused, resume = paused_reads(monkeypatch, first)
        first.start()
        assert paused.wait(timeout=5.0)
        second.start()
        second.join(timeout=0.5)
        resume.set()
        for t in (first, second):
            t.join(timeout=10.0)
            assert not t.is_alive()

        winners = [w for w, key in answers.items() if key is not None]
        assert winners == ["w1"], answers
        (key,) = journal_of(svc, cid).statuses()
        shard = journal_of(svc, cid).read_point(key)
        assert shard["status"] == "running"
        assert shard["worker"] == "w1"
        assert shard["attempts"] == 1

    def test_many_rounds_of_racing_never_double_claim(self, tmp_path):
        """Every generation is claimable exactly once even across many
        requeue cycles (the ABA shape a rename-based claim would lose)."""
        journal = make_journal(tmp_path, keys=("p",))
        for round_no in range(10):
            winners = [claim_point(journal, "p", f"w{i}") for i in range(3)]
            assert sum(w is not None for w in winners) == 1, round_no
            assert release_point(
                journal, "p",
                next(w["worker"] for w in winners if w)) is True


class TestLeaseExpiry:
    def test_claim_never_requeues_the_reaper_does(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "dead", lease_seconds=0.01)
        time.sleep(0.05)
        # The lapsed lease is not claimable until the reaper requeues it.
        assert claim_next(journal, ["p"], "w2") is None
        assert journal.read_point("p")["worker"] == "dead"
        assert reap_expired(journal) == [("p", "lease_expired", "dead")]
        key, doc = claim_next(journal, ["p"], "w2")
        assert key == "p"
        assert doc["worker"] == "w2"
        assert doc["attempts"] == 2
        # The requeue bumped the generation past the dead worker's claim.
        assert doc["generation"] == 1

    def test_reaper_requeues_expired_lease(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p", "q"))
        claim_point(journal, "p", "dead", lease_seconds=0.01)
        claim_point(journal, "q", "alive", lease_seconds=60)
        time.sleep(0.05)
        reaped = reap_expired(journal)
        assert reaped == [("p", "lease_expired", "dead")]
        p = journal.read_point("p")
        assert p["status"] == "pending"
        assert p["requeued"] == "lease_expired"
        assert p["generation"] == 1
        # The healthy lease is untouched.
        assert journal.read_point("q")["status"] == "running"
        assert journal.read_point("q")["worker"] == "alive"

    def test_renewal_after_requeue_raises_lease_lost(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1", lease_seconds=0.01)
        time.sleep(0.05)
        reap_expired(journal)
        with pytest.raises(LeaseLost):
            renew_lease(journal, "p", "w1")
        # ...and after a new claim, the old owner is fenced by identity.
        claim_point(journal, "p", "w2")
        with pytest.raises(LeaseLost) as exc:
            renew_lease(journal, "p", "w1")
        assert exc.value.holder == "w2"

    def test_renewal_extends_and_folds_heartbeat(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1", lease_seconds=30)
        doc = renew_lease(journal, "p", "w1", lease_seconds=30,
                          hb={"retired": 500, "instructions": 1000})
        assert doc["hb"]["retired"] == 500
        assert doc["lease_expires_unix"] > time.time() + 20

    def test_failed_points_retry_up_to_cap(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1")
        fail_point(journal, "p", "w1", "boom")
        assert reap_expired(journal, max_attempts=0) == []  # retries off
        assert reap_expired(journal, max_attempts=2) == [("p", "retry",
                                                          "w1")]
        claim_point(journal, "p", "w1")  # attempts -> 2
        fail_point(journal, "p", "w1", "boom again")
        assert reap_expired(journal, max_attempts=2) == []  # cap reached
        assert journal.read_point("p")["status"] == "failed"


class TestCompletion:
    def test_double_completion_is_idempotent(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1")
        assert complete_point(journal, "p", "w1", {"cycles": 10}) is True
        # A fenced-out worker finishing anyway: first done wins.
        assert complete_point(journal, "p", "w2", {"cycles": 10}) is False
        doc = journal.read_point("p")
        assert doc["completed_by"] == "w1"
        assert doc["entry"] == {"cycles": 10}

    def test_completion_strips_lease_fields(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1")
        renew_lease(journal, "p", "w1", hb={"retired": 1})
        complete_point(journal, "p", "w1", {"cycles": 10})
        doc = journal.read_point("p")
        for field in ("worker", "lease_expires_unix",
                      "lease_renewed_unix", "hb"):
            assert field not in doc, field

    def test_release_hands_point_back(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1")
        assert release_point(journal, "p", "w1") is True
        doc = journal.read_point("p")
        assert doc["status"] == "pending"
        assert doc["requeued"] == "released"
        assert release_point(journal, "p", "w1") is False  # not ours now


class TestPrepareFencing:
    def test_resume_strips_lease_and_bumps_generation(self, tmp_path):
        """``sweep --resume`` over a leased campaign fences live workers:
        prepare() requeues running points with a generation bump, so the
        old owner's renewals raise LeaseLost."""
        from repro.harness.simulator import RunConfig

        journal = CampaignJournal(tmp_path / "c")
        journal.root.mkdir()
        configs = [RunConfig(workload="astar", engine="baseline",
                             max_instructions=1000)]
        journal.prepare(configs)
        key = configs[0].cache_key()
        claim_point(journal, key, "w1")
        journal.prepare(configs)  # the resume path
        doc = journal.read_point(key)
        assert doc["status"] == "pending"
        assert doc["generation"] == 1
        assert "worker" not in doc
        with pytest.raises(LeaseLost):
            renew_lease(journal, key, "w1")


class TestSingleWriter:
    """Interleavings the daemon's journal lock rules out by construction."""

    def test_claims_never_requeue_so_lease_deaths_poison(self, tmp_path):
        """Two workers die holding the point; with ``poison_workers=2``
        the point must be poisoned, both deaths counted, and both dead
        workers blamed.  A claim that lands before the reaper's pass
        must not requeue the dead lease itself, skipping all three."""
        svc, cid = offline_service(tmp_path, poison_workers=2)
        (key,) = journal_of(svc, cid).statuses()

        def claim(worker):
            return svc._lease_rpc("claim", {
                "campaign": cid, "worker": worker,
                "lease_seconds": 0.001})[1]["key"]

        for worker in ("dead1", "dead2"):
            if claim(worker) is None:   # the previous lease still stands
                svc._reap()
                assert claim(worker) == key
            time.sleep(0.01)            # the worker dies; its lease lapses
        svc._reap()
        assert claim("w3") is None

        shard = journal_of(svc, cid).read_point(key)
        assert shard["status"] == "poisoned"
        assert sorted(shard["failed_workers"]) == ["dead1", "dead2"]
        assert svc.lease_expirations == 2
        assert svc.points_poisoned == 1
        for worker in ("dead1", "dead2"):
            assert svc.integrity.reputation.score(worker) > 0, worker

    def test_completion_during_a_reap_pass_is_kept(self, tmp_path,
                                                   monkeypatch):
        """The reaper has read an expired ``running`` shard when an
        accepted ``/complete`` lands.  Its write must not turn the done
        point back into ``pending``."""
        svc, cid = offline_service(tmp_path)
        claimed = svc._lease_rpc("claim", {"campaign": cid, "worker": "w1",
                                           "lease_seconds": 0.001})[1]
        key = claimed["key"]
        time.sleep(0.01)                # w1's lease lapses, w1 finishes
        reaper = thread(svc._reap)
        answers = []
        completer = thread(lambda: answers.append(svc._lease_rpc(
            "complete", {"campaign": cid, "worker": "w1", "key": key,
                         "entry": {"cycles": 7}})))
        paused, resume = paused_reads(monkeypatch, reaper)
        reaper.start()
        assert paused.wait(timeout=5.0)
        completer.start()
        completer.join(timeout=0.5)
        resume.set()
        for t in (reaper, completer):
            t.join(timeout=10.0)
            assert not t.is_alive()

        assert answers == [(200, {"accepted": True, "key": key})]
        shard = journal_of(svc, cid).read_point(key)
        assert shard["status"] == "done"
        assert shard["entry"] == {"cycles": 7}

    def test_late_fail_cannot_undo_another_workers_done(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "w1")
        assert complete_point(journal, "p", "w1", {"cycles": 1}) is True
        with pytest.raises(LeaseLost):
            fail_point(journal, "p", "w2", "late")
        assert journal.read_point("p")["status"] == "done"

    def test_late_fail_over_http_is_409_and_keeps_done(self, tmp_path):
        svc, cid = offline_service(tmp_path)
        key = svc._lease_rpc("claim", {"campaign": cid,
                                       "worker": "w1"})[1]["key"]
        svc._lease_rpc("complete", {"campaign": cid, "worker": "w1",
                                    "key": key, "entry": {"cycles": 1}})
        status, body = svc._lease_rpc("fail", {
            "campaign": cid, "worker": "w2", "key": key, "error": "late"})
        assert (status, body) == (409, {"error": "lease_lost", "key": key,
                                        "holder": None})
        shard = journal_of(svc, cid).read_point(key)
        assert shard["status"] == "done"
        assert shard["entry"] == {"cycles": 1}

    def test_threaded_lease_storm_keeps_the_invariants(self, tmp_path):
        """Eight worker threads and a reaper thread hammer four points
        for two seconds with a tiny switch interval.  A lost update
        would show as a generation won twice, ``attempts`` drifting
        from the number of wins, or an accepted completion undone."""
        spec = {"workloads": ["astar", "bfs"],
                "engines": ["baseline", "phelps"], "instructions": 1000}
        svc, cid = offline_service(tmp_path, spec=spec,
                                   max_attempts=10**6, poison_workers=0)
        wins = collections.Counter()
        accepted = set()
        record = threading.Lock()
        deadline = time.monotonic() + 2.0

        def rpc(op, worker, **body):
            return svc._lease_rpc(op, {"campaign": cid, "worker": worker,
                                       **body})

        def work(worker):
            rng = random.Random(worker)
            while time.monotonic() < deadline:
                _status, doc = rpc("claim", worker, lease_seconds=0.02)
                key = doc["key"]
                if key is None:
                    continue
                with record:
                    wins[key, doc["shard"]["generation"]] += 1
                op = rng.choice(["renew", "fail", "release", "die",
                                 "complete"] + ["fail"] * 4)
                if op == "complete":
                    _status, done = rpc("complete", worker, key=key,
                                        entry={"cycles": 1})
                    if done["accepted"]:
                        with record:
                            accepted.add(key)
                elif op == "die":
                    time.sleep(0.03)       # the lease lapses unrenewed
                elif op == "renew":
                    rpc("renew", worker, key=key, lease_seconds=0.02)
                else:
                    rpc(op, worker, key=key, error="boom")

        def reap():
            while time.monotonic() < deadline:
                svc._reap()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [thread(lambda w=f"w{i}": work(w)) for i in range(8)]
            threads.append(thread(reap))
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)

        assert wins and max(wins.values()) == 1, wins.most_common(3)
        journal = journal_of(svc, cid)
        for key in journal.statuses():
            shard = journal.read_point(key)
            claims = sum(n for (k, _gen), n in wins.items() if k == key)
            assert shard.get("attempts", 0) == claims, key
            if key in accepted:
                assert shard["status"] == "done", key
