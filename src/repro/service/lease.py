"""Lease layer: crash-safe multi-worker work-claiming on the journal.

The campaign journal's per-point atomic status shards already make
*completion* crash-safe (a ``done`` shard survives anything), but the
single-operator sweep left *claiming* to the parent process: a point
stuck ``running`` after a worker crash was only recovered by a manual
``sweep --resume``.  This module turns the shards into a shared work
queue that any number of worker processes — in the daemon's pool or on
other hosts over a shared filesystem — can pull from safely:

* **Claiming** is atomic and generation-scoped.  Every shard carries a
  ``generation`` counter (bumped on every requeue); to claim a pending
  point a worker exclusively creates the marker file
  ``<key>.g<generation>.claim`` (``O_CREAT | O_EXCL`` — the one
  filesystem primitive that cannot double-fire), re-reads the shard to
  confirm it is still pending at that generation, and only then rewrites
  it to ``running`` with its worker id and lease expiry.
  Two processes racing the same point resolve to exactly one winner; the
  loser moves on to the next key.
* **Leases** bound how long a claim is trusted.  The owning worker
  renews from its simulation heartbeat hook (folding the latest
  heartbeat payload into the shard, so watchers see live progress); a
  worker that discovers its lease was reaped gets :class:`LeaseLost` and
  abandons the point instead of fighting the new owner.
* **The reaper** (:func:`reap_expired`) requeues points whose lease
  lapsed — SIGKILLed workers lose their in-flight work but never strand
  it — and heals the two rarer wounds: a claim marker orphaned by a
  worker that died between marker and shard write, and a shard file that
  vanished entirely.
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

import os
import pathlib
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    of racing the new owner to completion.
    """

    def __init__(self, key: str, worker: str, holder: Optional[str] = None):
        self.key = key
        self.worker = worker
        self.holder = holder
        super().__init__(f"lease on {key} lost by {worker}"
                         + (f" (now held by {holder})" if holder else ""))


def _marker_path(journal: CampaignJournal, key: str,
                 generation: int) -> pathlib.Path:
    return journal.root / f"{key}.g{generation}.claim"


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
    """Try to claim one ``pending`` point; returns the running shard or None.

    The claim is atomic: the marker file for the shard's current
    generation is created with ``O_CREAT | O_EXCL``, so of any number of
    racing claimers exactly one proceeds, and the shard is re-read after
    the marker is created so a claimer working from a stale read of an
    already-claimed generation backs off.  Only pending shards are
    claimable — an expired ``running`` shard must be requeued first
    (see :func:`reap_expired` / :func:`claim_next`), which bumps the
    generation and thereby invalidates the old owner's renewals.
    """
    now = time.time() if now is None else now
    doc = journal.read_point(key)
    if doc is None or doc.get("status") != "pending":
        return None
    generation = int(doc.get("generation", 0))
    marker = _marker_path(journal, key, generation)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None  # somebody else holds (or held) this generation
    except OSError:
        return None
    with os.fdopen(fd, "w") as fh:
        fh.write(f"{worker} {now:.3f}\n")
    # The marker is removed once the claim lands, so a claimer whose read
    # predates another's whole claim can still create it: re-validate.
    # Any earlier claim of this generation has already written `running`
    # (its marker was live until then), so a still-pending shard at
    # `generation` means we own it and this write cannot race a claimer.
    doc = journal.read_point(key)
    if (doc is None or doc.get("status") != "pending"
            or int(doc.get("generation", 0)) != generation):
        try:
            os.unlink(marker)
        except OSError:
            pass
        return None
    doc = _strip_lease(dict(doc))
    doc["status"] = "running"
    doc["generation"] = generation
    doc["attempts"] = int(doc.get("attempts", 0)) + 1
    doc.update(lease_fields(worker, lease_seconds, now))
    claimed = journal.write_point(key, doc)
    try:
        os.unlink(marker)
    except OSError:
        pass
    return claimed


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
    Idempotent under races — two reapers writing the same requeue produce
    identical shards.  A ``lease_expired`` requeue blames the dead
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
    """Claim the first claimable point among ``keys``; ``(key, shard)`` or None.

    Pending points are claimed directly; a ``running`` point whose lease
    has lapsed is requeued in place first (lazy reaping — standalone
    workers get dead-worker recovery even with no daemon reaper running)
    and then contested like any pending point.
    """
    now = time.time() if now is None else now
    for key in keys:
        doc = journal.read_point(key)
        if doc is None:
            continue
        status = doc.get("status")
        if status == "running":
            expires = doc.get("lease_expires_unix")
            if expires is not None and expires < now:
                _requeue(journal, key, doc, "lease_expired")
            else:
                continue
        elif status != "pending":
            continue
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
    """Record a failed attempt (the reaper retries up to its cap)."""
    doc = journal.read_point(key) or {}
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


def _stale_markers(journal: CampaignJournal, key: str, generation: int,
                   horizon: float) -> List[pathlib.Path]:
    """Claim markers for ``generation`` older than ``horizon`` seconds —
    the signature of a claimer killed between marker and shard write."""
    marker = _marker_path(journal, key, generation)
    try:
        age = time.time() - marker.stat().st_mtime
    except OSError:
        return []
    return [marker] if age > horizon else []


def _distinct_failures(doc: Dict, extra: Optional[str] = None) -> int:
    workers = {w for w in doc.get("failed_workers", ()) if w}
    if extra:
        workers.add(extra)
    return len(workers)


def reap_expired(journal: CampaignJournal,
                 lease_seconds: float = DEFAULT_LEASE_SECONDS,
                 now: Optional[float] = None,
                 max_attempts: int = 0,
                 keys: Optional[Iterable[str]] = None,
                 poison_distinct: int = 0
                 ) -> List[Tuple[str, str, Optional[str]]]:
    """Requeue every point whose lease (or claim) lapsed.

    Returns ``(key, reason, worker)`` triples — ``worker`` is the one
    the event implicates (the dead lease owner, the failing worker) or
    None when nobody is (stale claim markers are anonymous), so callers
    can attribute blame without re-reading shards.

    Three wounds heal here, all in place (no ``--resume`` needed):

    * ``running`` with ``lease_expires_unix`` in the past — the owning
      worker is dead or wedged; requeue with reason ``lease_expired``;
    * ``pending`` with a stale claim marker for its generation — a
      claimer died inside the claim window; bump the generation (with
      reason ``stale_claim``) so the orphaned marker can never block the
      point again;
    * ``failed`` with ``attempts`` below ``max_attempts`` (0 disables) —
      requeue with reason ``retry``.

    And one wound is declared incurable: with ``poison_distinct`` > 0, a
    point about to requeue that has already failed under that many
    *distinct* workers transitions to the terminal ``poisoned`` status
    (reason ``poisoned``) instead — the crash-loop breaker that stops
    one pathological config from burning the whole fleet.

    ``keys`` restricts the sweep (default: every manifest point).
    """
    now = time.time() if now is None else now
    if keys is None:
        manifest = journal.load_manifest() or {}
        keys = [p["key"] for p in manifest.get("points", ())]
    reaped: List[Tuple[str, str, Optional[str]]] = []
    for key in keys:
        doc = journal.read_point(key)
        if doc is None:
            continue
        status = doc.get("status")
        if status == "running":
            expires = doc.get("lease_expires_unix")
            if expires is not None and expires < now:
                worker = doc.get("worker")
                if (poison_distinct
                        and _distinct_failures(doc, extra=worker)
                        >= poison_distinct):
                    blamed = dict(doc)
                    _blame(blamed, worker)
                    _poison(journal, key, blamed,
                            error="lease expired under "
                                  f"{_distinct_failures(doc, extra=worker)}"
                                  " distinct workers")
                    reaped.append((key, "poisoned", worker))
                else:
                    _requeue(journal, key, doc, "lease_expired")
                    reaped.append((key, "lease_expired", worker))
        elif status == "pending":
            generation = int(doc.get("generation", 0))
            for marker in _stale_markers(journal, key, generation,
                                         lease_seconds):
                _requeue(journal, key, doc, "stale_claim")
                try:
                    os.unlink(marker)
                except OSError:
                    pass
                reaped.append((key, "stale_claim", None))
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
