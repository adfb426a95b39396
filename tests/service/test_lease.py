"""Lease-layer contracts: atomic claiming, fencing, idempotent completion.

The claims here are the ones the whole service stands on, so the racing
test replays the losing interleaving deterministically instead of hoping
two processes happen to hit it.
"""

import os
import time

import pytest

from repro.harness.campaign import CampaignJournal
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

    def test_stale_reader_loses_race_to_first_claimer(self, tmp_path):
        """The double-claim interleaving, replayed deterministically: the
        second claimer read the shard while it was still pending, but
        only creates its claim marker after the first claimer finished
        (and removed its marker).  The claim must be re-validated against
        the shard, so the stale reader loses."""
        journal = make_journal(tmp_path, keys=("p",))
        stale = journal.read_point("p")
        first = claim_point(journal, "p", "w1")

        real_read = journal.read_point
        reads = []

        def stale_first_read(key):
            reads.append(key)
            return dict(stale) if len(reads) == 1 else real_read(key)

        journal.read_point = stale_first_read
        second = claim_point(journal, "p", "w2")
        journal.read_point = real_read

        winners = [doc for doc in (first, second) if doc is not None]
        assert len(winners) == 1, winners
        shard = journal.read_point("p")
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
    def test_claim_next_requeues_expired_lease_in_place(self, tmp_path):
        journal = make_journal(tmp_path, keys=("p",))
        claim_point(journal, "p", "dead", lease_seconds=0.01)
        time.sleep(0.05)
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
        reaped = reap_expired(journal, lease_seconds=0.01)
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
        reap_expired(journal, lease_seconds=0.01)
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

    def test_stale_claim_marker_is_healed(self, tmp_path):
        """A claimer killed between marker and shard write leaves a
        pending shard blocked by an orphaned marker; the reaper bumps the
        generation so the point is claimable again."""
        journal = make_journal(tmp_path, keys=("p",))
        marker = journal.root / "p.g0.claim"
        marker.write_text("ghost 0.0\n")
        old = time.time() - 60
        os.utime(marker, (old, old))
        assert claim_point(journal, "p", "w1") is None  # blocked
        reaped = reap_expired(journal, lease_seconds=1.0)
        assert reaped == [("p", "stale_claim", None)]
        assert not marker.exists()
        assert claim_point(journal, "p", "w1") is not None

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
