"""Stateful property test of the daemon's lease transitions.

Hypothesis drives one in-process daemon (no HTTP, no pool, an injected
clock) through random sequences of claim, renew, complete, fail and
release calls from several workers, clock advances and reaper passes,
and checks after every step that:

* each ``(point, generation)`` is won by at most one claim, and a
  ``running`` shard belongs to that generation's winner;
* a shard's ``attempts`` equals the number of successful claims of it;
* a ``done`` shard never leaves ``done`` through a lease operation;
* every dead lease, requeued or poisoned, is counted in
  ``lease_expirations``.
"""

import shutil
import tempfile

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from tests.service.test_lease import journal_of, offline_service

TWO_POINTS = {"workloads": ["astar", "bfs"], "engines": ["baseline"],
              "instructions": 1000}
LEASE_SECONDS = 5.0

workers = st.sampled_from(["w1", "w2", "w3"])
points = st.sampled_from([0, 1])


class LeaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.tmp = tempfile.mkdtemp(prefix="lease-machine-")
        self.svc, self.cid = offline_service(
            self.tmp, spec=TWO_POINTS, max_attempts=3, poison_workers=2)
        self.now = 1000.0
        self.svc.clock = lambda: self.now
        self.journal = journal_of(self.svc, self.cid)
        self.keys = sorted(self.journal.statuses())
        self.claims = {key: 0 for key in self.keys}
        self.winners = {}          # (key, generation) -> [worker, ...]
        self.done = set()
        self.deaths = 0            # dead leases requeued or poisoned
        self.last = self.shards()

    def teardown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def shards(self):
        return {key: self.journal.read_point(key) for key in self.keys}

    def rpc(self, op, worker, index=None, **body):
        doc = {"campaign": self.cid, "worker": worker, **body}
        if index is not None:
            doc["key"] = self.keys[index]
        return self.svc._lease_rpc(op, doc)

    # ------------------------------------------------------------ rules
    @rule(worker=workers)
    def claim(self, worker):
        status, doc = self.rpc("claim", worker, lease_seconds=LEASE_SECONDS)
        assert status == 200
        if doc["key"] is not None:
            key, shard = doc["key"], doc["shard"]
            self.claims[key] += 1
            self.winners.setdefault((key, shard["generation"]),
                                    []).append(worker)

    @rule(worker=workers, index=points)
    def renew(self, worker, index):
        status, _doc = self.rpc("renew", worker, index,
                                lease_seconds=LEASE_SECONDS)
        assert status in (200, 409)

    @rule(worker=workers, index=points)
    def complete(self, worker, index):
        status, _doc = self.rpc("complete", worker, index,
                                entry={"cycles": 1})
        assert status == 200

    @rule(worker=workers, index=points)
    def fail(self, worker, index):
        status, _doc = self.rpc("fail", worker, index, error="boom")
        assert status in (200, 409)

    @rule(worker=workers, index=points)
    def release(self, worker, index):
        status, _doc = self.rpc("release", worker, index)
        assert status == 200

    @rule(seconds=st.sampled_from([1.0, 4.0, 10.0]))
    def advance_clock(self, seconds):
        self.now += seconds

    @rule()
    def reap(self):
        self.svc._reap()

    # ------------------------------------------------------- invariants
    @invariant()
    def one_owner_per_generation(self):
        for winners in self.winners.values():
            assert len(winners) <= 1, winners
        for key in self.keys:
            shard = self.journal.read_point(key)
            if shard["status"] == "running":
                assert self.winners[(key, shard["generation"])] \
                    == [shard["worker"]]

    @invariant()
    def attempts_count_claims(self):
        for key in self.keys:
            assert self.journal.read_point(key).get("attempts", 0) \
                == self.claims[key]

    @invariant()
    def done_is_terminal(self):
        for key in self.keys:
            status = self.journal.read_point(key)["status"]
            if key in self.done:
                assert status == "done"
            elif status == "done":
                self.done.add(key)

    @invariant()
    def every_dead_lease_is_counted(self):
        # A step kills a lease when a running shard comes back requeued
        # for ``lease_expired`` (maybe already re-claimed) or poisoned.
        now = self.shards()
        for key, before in self.last.items():
            after = now[key]
            if before["status"] != "running":
                continue
            requeued = (after.get("generation", 0) > before["generation"]
                        and after.get("requeued") == "lease_expired")
            if requeued or after["status"] == "poisoned":
                self.deaths += 1
        self.last = now
        assert self.svc.lease_expirations == self.deaths


TestLeaseMachine = LeaseMachine.TestCase
TestLeaseMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])
