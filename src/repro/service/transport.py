"""The worker's side of the daemon's lease protocol.

:class:`RemoteJournal` speaks the daemon's ``POST /claim`` / ``/renew``
/ ``/complete`` / ``/fail`` / ``/release`` protocol through a
:class:`~repro.service.httpclient.ServiceClient`.  The daemon is the only
process that changes lease state; a worker never opens the campaign
root (it does not even learn the path), which is what lets worker hosts
live on machines that do not mount it.  The contract the worker loop
(:mod:`repro.service.worker`) relies on:

* ``claim_next(keys, lease_seconds)`` -> ``(key, RunConfig, shard)`` or
  ``None`` when nothing was claimable;
* ``renew(key, lease_seconds, hb)`` extends the lease, raising
  :class:`~repro.service.lease.LeaseLost` when this worker was fenced
  out (and *only* then: a network failure is swallowed and counted,
  because completion is idempotent and first-done-wins makes an
  optimistic worker safe);
* ``complete(key, entry, source)`` / ``fail(key, error)`` publish the
  outcome;
* ``release_held()`` hands back exactly the points this worker still
  holds, the shutdown courtesy path.

Completion bodies carry the full run-cache entry so the daemon publishes
to the journal *and* the shared cache on its side of the wire.
"""

import sys
from typing import Dict, Optional, Sequence, Tuple

from repro.harness.simulator import RunConfig
from repro.service.httpclient import (CircuitOpen, HttpStatusError, NotFound,
                                      ServiceClient, TransportError)
from repro.service.lease import DEFAULT_LEASE_SECONDS, LeaseLost

__all__ = ["RemoteJournal", "config_from_doc", "config_to_doc"]

Claim = Tuple[str, RunConfig, Dict]


def config_to_doc(config: RunConfig) -> Dict:
    """The over-the-wire shape of a sweep point's configuration."""
    return {"workload": config.workload, "engine": config.engine,
            "instructions": config.max_instructions}


def config_from_doc(doc: Dict) -> RunConfig:
    """Rebuild a sweep-point :class:`RunConfig` from its wire shape.

    Mints the same ``cache_key()`` as :func:`~repro.service.queue.
    configs_from_spec` for the same point — the invariant that keeps
    remote results content-addressed.
    """
    return RunConfig(workload=doc["workload"], engine=doc["engine"],
                     max_instructions=int(doc["instructions"]))


class RemoteJournal:
    """One campaign's lease protocol over HTTP: filesystem-free workers.

    Error philosophy, per operation:

    * ``claim_next`` — transport errors propagate (the loop decides whether
      to back off or move on); a 404 propagates as
      :class:`~repro.service.httpclient.NotFound` so the loop can drop a
      campaign the daemon no longer knows.
    * ``renew`` — only an authoritative ``409`` becomes
      :class:`LeaseLost`.  Transport errors are swallowed and counted
      (``renew_misses``): the daemon may requeue the point while we are
      dark, but first-done-wins makes finishing anyway safe, and
      abandoning real compute because of a blip would be strictly worse.
    * ``complete``/``fail`` — retried with the idempotency key
      ``worker:campaign:key:gN`` until ``publish_retry_seconds`` is
      exhausted, riding through breaker-open windows; a dropped response
      therefore cannot double-apply, and a daemon restart mid-publish
      costs only patience.
    """

    def __init__(self, client: ServiceClient, campaign_id: str,
                 worker_id: str,
                 publish_retry_seconds: float = 120.0,
                 log=None):
        self.client = client
        self.campaign_id = campaign_id
        self.worker_id = worker_id
        self.publish_retry_seconds = publish_retry_seconds
        self.held: set = set()
        self.renew_misses = 0
        self.publish_retries = 0
        self._generations: Dict[str, int] = {}
        self._log = log or (lambda msg: print(msg, file=sys.stderr,
                                              flush=True))

    # ------------------------------------------------------------ claims
    def claim_next(self, keys: Optional[Sequence[str]] = None,
              lease_seconds: float = DEFAULT_LEASE_SECONDS
              ) -> Optional[Claim]:
        body = {"campaign": self.campaign_id, "worker": self.worker_id,
                "lease_seconds": lease_seconds}
        if keys is not None:
            body["keys"] = list(keys)
        doc = self.client.post("/claim", body)
        key = doc.get("key")
        if not key:
            return None
        shard = doc.get("shard") or {}
        self.held.add(key)
        self._generations[key] = int(shard.get("generation", 0))
        return key, config_from_doc(doc["config"]), shard

    def renew(self, key: str, lease_seconds: float,
              hb: Optional[Dict] = None) -> None:
        body = {"campaign": self.campaign_id, "worker": self.worker_id,
                "key": key, "lease_seconds": lease_seconds}
        if hb is not None:
            body["hb"] = hb
        try:
            self.client.post("/renew", body)
        except HttpStatusError as exc:
            if exc.status == 409:
                self.held.discard(key)
                info = exc.json() or {}
                raise LeaseLost(key, self.worker_id,
                                holder=info.get("holder")) from exc
            self.renew_misses += 1
        except (TransportError, CircuitOpen):
            self.renew_misses += 1

    # ------------------------------------------------------- publication
    def _idempotency_key(self, key: str) -> str:
        # Deterministic per (holder, point, generation): a retried
        # publish of the same attempt reuses it; a re-claimed point
        # (new generation) mints a fresh one.
        return (f"{self.worker_id}:{self.campaign_id}:{key}"
                f":g{self._generations.get(key, 0)}")

    def _publish(self, path: str, body: Dict, idem: str) -> Dict:
        import time as _time
        deadline = _time.monotonic() + self.publish_retry_seconds
        while True:
            try:
                return self.client.post(path, body, idempotency_key=idem)
            except CircuitOpen as exc:
                if _time.monotonic() >= deadline:
                    raise
                self.publish_retries += 1
                _time.sleep(min(max(exc.retry_in, 0.05), 1.0))
            except TransportError:
                if _time.monotonic() >= deadline:
                    raise
                self.publish_retries += 1
                _time.sleep(0.2)

    def complete(self, key: str, entry: Dict,
                 source: str = "worker") -> bool:
        body = {"campaign": self.campaign_id, "worker": self.worker_id,
                "key": key, "entry": entry, "source": source}
        try:
            doc = self._publish("/complete", body,
                                self._idempotency_key(key))
        except (TransportError, CircuitOpen, HttpStatusError) as exc:
            # The result is lost to us but not to the campaign: the
            # reaper requeues the point and a deterministic rerun
            # publishes the identical entry.
            self._log(f"publish of {key} failed ({exc}); "
                      "leaving it to the reaper")
            self.held.discard(key)
            return False
        self.held.discard(key)
        return bool(doc.get("accepted"))

    def fail(self, key: str, error: str) -> None:
        body = {"campaign": self.campaign_id, "worker": self.worker_id,
                "key": key, "error": error}
        try:
            self._publish("/fail", body, self._idempotency_key(key))
        except (TransportError, CircuitOpen, HttpStatusError) as exc:
            self._log(f"fail-report of {key} lost ({exc}); "
                      "the reaper will requeue it")
        self.held.discard(key)

    def abandon(self, key: str) -> None:
        self.held.discard(key)

    def release_held(self) -> int:
        """Best-effort: hand back exactly what we still hold (O(held))."""
        released = 0
        for key in sorted(self.held):
            try:
                doc = self.client.post(
                    "/release", {"campaign": self.campaign_id,
                                 "worker": self.worker_id, "key": key})
            except (TransportError, CircuitOpen, HttpStatusError,
                    NotFound):
                continue  # the reaper covers what courtesy cannot
            if doc.get("released"):
                released += 1
        self.held.clear()
        return released
