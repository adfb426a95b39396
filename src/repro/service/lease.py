"""Lease layer: the state machine behind the daemon's lease endpoints.

The campaign journal's per-point atomic status shards already make
*completion* crash-safe (a ``done`` shard survives anything).  This
module adds *claiming*: the transitions that hand a point to one worker
for a bounded time and take it back when that worker dies.  Workers
never run these functions themselves; they ask the daemon
(:mod:`repro.service.daemon`) over HTTP, and the daemon is the only
process that changes lease state.

**Lock rule.**  Every function here reads a shard, decides, and writes
it back.  Callers must hold the daemon's journal lock across each call
(each ``reap_expired`` pass included), so no two transitions of a point
interleave.  The integrity monitor writes shards without the lock, but
only ``done`` shards, which no lease transition writes.

* **Claiming** is generation-scoped.  Every shard carries a
  ``generation`` counter, bumped on every requeue; a claim rewrites a
  ``pending`` shard to ``running`` with the worker id and lease expiry
  and counts one more ``attempts``.  Only pending shards are claimable.
* **Leases** bound how long a claim is trusted.  The owning worker
  renews from its simulation heartbeat hook (folding the latest
  heartbeat payload into the shard, so watchers see live progress); a
  worker that discovers its lease was reaped gets :class:`LeaseLost` and
  abandons the point instead of fighting the new owner.  Failing and
  releasing a point are fenced the same way.
* **The reaper** (:func:`reap_expired`) is the only requeue path: it
  requeues points whose lease lapsed (SIGKILLed workers lose their
  in-flight work but never strand it) and retries failed points.
* **Completion is idempotent.**  Simulations are deterministic, so a
  worker whose lease was stolen may still finish and publish: the first
  ``done`` wins, every later completion of the same point is a no-op
  (:func:`complete_point` returns False).  Duplicate compute is the
  worst case; divergent or stranded state is impossible.
* **Poison points stop crash loops.**  Every failed attempt (an
  explicit :func:`fail_point` or a lease that lapsed mid-run) records
  its worker in the shard's ``failed_workers`` list; when
  :func:`reap_expired` is given ``poison_distinct`` and a point has now
  failed under that many *distinct* workers, the fault is the point's,
  not the fleet's, and the shard transitions to the terminal
  ``poisoned`` status instead of requeueing forever and burning every
  worker in turn.
"""

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.campaign import CampaignJournal

__all__ = ["DEFAULT_LEASE_SECONDS", "LeaseLost", "claim_point", "claim_next",
           "renew_lease", "complete_point", "fail_point", "release_point",
           "reap_expired", "lease_fields"]

DEFAULT_LEASE_SECONDS = 30.0

# Shard fields owned by the lease layer; stripped when a point leaves
# ``running`` so stale lease data can never shadow a fresh claim.
_LEASE_FIELDS = ("worker", "lease_expires_unix", "lease_renewed_unix", "hb")


class LeaseLost(RuntimeError):
    """This worker's lease on a point was reaped or stolen.

    Raised from :func:`renew_lease` (typically inside the simulation
    heartbeat hook) so the worker can abandon the point promptly instead
    of racing the new owner to completion, and from :func:`fail_point`
    so a late failure report cannot overwrite the new owner's state.
    """

    def __init__(self, key: str, worker: str, holder: Optional[str] = None):
        self.key = key
        self.worker = worker
        self.holder = holder
        super().__init__(f"lease on {key} lost by {worker}"
                         + (f" (now held by {holder})" if holder else ""))


def lease_fields(worker: str, lease_seconds: float,
                 now: Optional[float] = None) -> Dict:
    now = time.time() if now is None else now
    return {
        "worker": worker,
        "lease_renewed_unix": round(now, 3),
        "lease_expires_unix": round(now + lease_seconds, 3),
    }


def _strip_lease(doc: Dict) -> Dict:
    for field in _LEASE_FIELDS:
        doc.pop(field, None)
    return doc


def claim_point(journal: CampaignJournal, key: str, worker: str,
                lease_seconds: float = DEFAULT_LEASE_SECONDS,
                now: Optional[float] = None) -> Optional[Dict]:
    """Claim one ``pending`` point; returns the running shard or None.

    An expired ``running`` shard is not claimable: the reaper must
    requeue it first, which bumps the generation and thereby fences the
    old owner's renewals.
    """
    doc = journal.read_point(key)
    if doc is None or doc.get("status") != "pending":
        return None
    doc = _strip_lease(dict(doc))
    doc["status"] = "running"
    doc["generation"] = int(doc.get("generation", 0))
    doc["attempts"] = int(doc.get("attempts", 0)) + 1
    doc.update(lease_fields(worker, lease_seconds, now))
    return journal.write_point(key, doc)


def _blame(fields: Dict, worker: Optional[str]) -> List[str]:
    """Append ``worker`` to the shard's distinct ``failed_workers`` list."""
    workers = [w for w in fields.get("failed_workers", ()) if w]
    if worker and worker not in workers:
        workers.append(worker)
    fields["failed_workers"] = workers
    return workers


def _requeue(journal: CampaignJournal, key: str, doc: Dict,
             reason: str) -> Dict:
    """Requeue one shard to ``pending`` in place, bumping the generation.

    The bump is what fences the old owner: its renewals check worker
    identity against the rewritten shard and raise :class:`LeaseLost`.
    A ``lease_expired`` requeue blames the dead
    worker in ``failed_workers`` (it cannot report its own failure), so
    the poison-point breaker sees crash loops, not just clean failures.
    """
    fields = _strip_lease(dict(doc))
    if reason == "lease_expired":
        _blame(fields, doc.get("worker"))
    fields["status"] = "pending"
    fields["generation"] = int(doc.get("generation", 0)) + 1
    fields["requeued"] = reason
    fields.pop("error", None)
    return journal.write_point(key, fields)


def _poison(journal: CampaignJournal, key: str, doc: Dict,
            error: Optional[str] = None) -> Dict:
    """Terminal ``poisoned`` transition: this point eats workers."""
    fields = _strip_lease(dict(doc))
    fields["status"] = "poisoned"
    fields["poisoned_unix"] = round(time.time(), 3)
    if error:
        fields["error"] = error
    return journal.write_point(key, fields)


def claim_next(journal: CampaignJournal, keys: Sequence[str], worker: str,
               lease_seconds: float = DEFAULT_LEASE_SECONDS,
               now: Optional[float] = None) -> Optional[Tuple[str, Dict]]:
    """Claim the first ``pending`` point among ``keys``; ``(key, shard)``
    or None."""
    for key in keys:
        claimed = claim_point(journal, key, worker, lease_seconds, now)
        if claimed is not None:
            return key, claimed
    return None


def renew_lease(journal: CampaignJournal, key: str, worker: str,
                lease_seconds: float = DEFAULT_LEASE_SECONDS,
                hb: Optional[Dict] = None,
                now: Optional[float] = None) -> Dict:
    """Extend this worker's lease; raises :class:`LeaseLost` if it lapsed.

    ``hb`` (a :class:`~repro.obs.live.HeartbeatTicker` payload) is folded
    into the shard so journal watchers see live progress — for leased
    points the shard, not ``live.json``, is the heartbeat channel,
    because each point has exactly one owner and therefore no write
    contention.
    """
    doc = journal.read_point(key)
    if (doc is None or doc.get("status") != "running"
            or doc.get("worker") != worker):
        raise LeaseLost(key, worker,
                        holder=doc.get("worker") if doc else None)
    doc = dict(doc)
    doc.update(lease_fields(worker, lease_seconds, now))
    if hb is not None:
        doc["hb"] = hb
    return journal.write_point(key, doc)


def complete_point(journal: CampaignJournal, key: str, worker: str,
                   entry: Dict, source: str = "worker") -> bool:
    """Publish a finished result; returns False if already ``done``.

    First completion wins; later completions (a worker whose lease was
    stolen finishing anyway) are no-ops.  Results are deterministic, so
    which copy lands is immaterial — idempotence just keeps attempt
    provenance honest.
    """
    doc = journal.read_point(key) or {}
    if doc.get("status") == "done" and doc.get("entry") is not None:
        return False
    fields = _strip_lease(dict(doc))
    fields["status"] = "done"
    fields["entry"] = entry
    fields["source"] = source
    fields["completed_by"] = worker
    fields["attempts_taken"] = int(fields.get("attempts", 1) or 1)
    fields.pop("error", None)
    journal.write_point(key, fields)
    return True


def fail_point(journal: CampaignJournal, key: str, worker: str,
               error: str) -> Dict:
    """Record a failed attempt (the reaper retries up to its cap).

    Fenced like :func:`renew_lease`: only the worker that holds the
    ``running`` point may fail it; anyone else gets :class:`LeaseLost`
    and nothing is written.
    """
    doc = journal.read_point(key)
    if (doc is None or doc.get("status") != "running"
            or doc.get("worker") != worker):
        raise LeaseLost(key, worker,
                        holder=doc.get("worker") if doc else None)
    fields = _strip_lease(dict(doc))
    fields["status"] = "failed"
    fields["error"] = error
    fields["failed_by"] = worker
    _blame(fields, worker)
    return journal.write_point(key, fields)


def release_point(journal: CampaignJournal, key: str, worker: str) -> bool:
    """Cooperatively hand a claimed-but-unfinished point back (shutdown)."""
    doc = journal.read_point(key)
    if (doc is None or doc.get("status") != "running"
            or doc.get("worker") != worker):
        return False
    _requeue(journal, key, doc, "released")
    return True


def _distinct_failures(doc: Dict, extra: Optional[str] = None) -> int:
    workers = {w for w in doc.get("failed_workers", ()) if w}
    if extra:
        workers.add(extra)
    return len(workers)


def reap_expired(journal: CampaignJournal,
                 now: Optional[float] = None,
                 max_attempts: int = 0,
                 poison_distinct: int = 0
                 ) -> List[Tuple[str, str, Optional[str]]]:
    """Requeue every point whose lease lapsed, and retry failed points.

    Returns ``(key, reason, worker)`` triples; ``worker`` is the one the
    event implicates (the dead lease owner, the failing worker), so
    callers can attribute blame without re-reading shards.  Each manifest
    point is healed in place (no ``--resume`` needed):

    * ``running`` with ``lease_expires_unix`` in the past: the owning
      worker is dead or wedged; requeue with reason ``lease_expired``;
    * ``failed`` with ``attempts`` below ``max_attempts`` (0 disables):
      requeue with reason ``retry``.

    With ``poison_distinct`` > 0, a point about to requeue that has now
    failed under that many *distinct* workers transitions to the
    terminal ``poisoned`` status instead (reason ``poisoned``): the
    crash-loop breaker that stops one pathological config from burning
    the whole fleet.  A lease death that trips the breaker is still
    reported as ``lease_expired`` first, so every dead lease is counted.
    """
    now = time.time() if now is None else now
    manifest = journal.load_manifest() or {}
    reaped: List[Tuple[str, str, Optional[str]]] = []
    for point in manifest.get("points", ()):
        key = point["key"]
        doc = journal.read_point(key)
        if doc is None:
            continue
        status = doc.get("status")
        if status == "running":
            expires = doc.get("lease_expires_unix")
            if expires is None or expires >= now:
                continue
            worker = doc.get("worker")
            reaped.append((key, "lease_expired", worker))
            failures = _distinct_failures(doc, extra=worker)
            if poison_distinct and failures >= poison_distinct:
                blamed = dict(doc)
                _blame(blamed, worker)
                _poison(journal, key, blamed,
                        error=f"lease expired under {failures} "
                              "distinct workers")
                reaped.append((key, "poisoned", worker))
            else:
                _requeue(journal, key, doc, "lease_expired")
        elif status == "failed":
            worker = doc.get("failed_by")
            if (poison_distinct
                    and _distinct_failures(doc) >= poison_distinct):
                _poison(journal, key, doc)
                reaped.append((key, "poisoned", worker))
            elif max_attempts and int(doc.get("attempts", 0)) < max_attempts:
                _requeue(journal, key, doc, "retry")
                reaped.append((key, "retry", worker))
    return reaped
