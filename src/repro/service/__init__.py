"""Campaign service: simulation-as-a-service on top of the journal.

The harness packages built every single-host primitive — the sharded
atomic :class:`~repro.harness.runcache.RunCache`, the write-ahead
:class:`~repro.harness.campaign.CampaignJournal` with bit-identical
resume, and the live telemetry endpoint.  This package lifts them into a
standing service:

* :mod:`repro.service.lease` — the lease state machine: the daemon
  hands each journal point to one worker under a lease the worker renews
  while simulating, and the daemon's reaper requeues points whose lease
  lapsed, so a SIGKILLed worker loses its in-flight work but never
  strands it.  The daemon is the only process that runs it.
* :mod:`repro.service.queue` — submission specs, tenants, quotas,
  priorities, weighted fair scheduling, and back-pressure accounting.
* :mod:`repro.service.worker` — the pull-model worker loop: claim a
  point from a daemon over HTTP, simulate it (renewing the lease from
  the heartbeat hook), publish the result, repeat.
* :mod:`repro.service.daemon` — the long-running asyncio daemon: an
  HTTP/JSON API (``POST /campaigns``, status/results/stream routes, the
  five ``POST`` lease endpoints of the remote-execution protocol), an
  in-daemon worker pool, the lease reaper, and Prometheus service gauges.
* :mod:`repro.service.httpclient` — the resilient worker-side HTTP
  client: timeouts, deterministic-jitter retries, status-aware error
  handling, a circuit breaker, idempotency keys.
* :mod:`repro.service.transport` — the worker's side of the lease
  protocol: :class:`~repro.service.transport.RemoteJournal` over the
  daemon's HTTP endpoints (filesystem-free workers).
* :mod:`repro.service.chaosproxy` — a seeded network-fault proxy
  (latency, drops, 500s, truncation, duplicate delivery, response-body
  corruption) the chaos suites and CI put between workers and the
  daemon.
* :mod:`repro.service.integrity` — the result-integrity subsystem:
  seeded sampled audit re-execution on a *different* worker, fingerprint
  voting with a daemon-side tie-break on mismatch, per-worker reputation
  scores that quarantine misbehaving workers, and the poison-point
  breaker that stops a crash-looping config from burning the fleet.
"""

from repro.service.lease import (DEFAULT_LEASE_SECONDS, LeaseLost,
                                 claim_next, claim_point, complete_point,
                                 fail_point, reap_expired, release_point,
                                 renew_lease)
from repro.service.queue import (BackPressure, CampaignRecord, ServiceState,
                                 SweepSpec, TenantPolicy, ValidationError,
                                 configs_from_spec)
from repro.service.httpclient import (CircuitOpen, ClientStats,
                                      HttpStatusError, NotFound,
                                      ServiceClient, TransportError)
from repro.service.transport import (RemoteJournal, config_from_doc,
                                     config_to_doc)
from repro.service.chaosproxy import ChaosProxy, FaultPlan
from repro.service.integrity import (IntegrityConfig, IntegrityMonitor,
                                     IntegrityViolation, WorkerReputation,
                                     should_audit)
from repro.service.worker import WorkerOptions, work_service
from repro.service.daemon import CampaignService, ServiceConfig

__all__ = [
    "DEFAULT_LEASE_SECONDS",
    "LeaseLost",
    "claim_point",
    "claim_next",
    "renew_lease",
    "complete_point",
    "fail_point",
    "release_point",
    "reap_expired",
    "SweepSpec",
    "ValidationError",
    "BackPressure",
    "TenantPolicy",
    "CampaignRecord",
    "ServiceState",
    "configs_from_spec",
    "ServiceClient",
    "ClientStats",
    "HttpStatusError",
    "NotFound",
    "TransportError",
    "CircuitOpen",
    "RemoteJournal",
    "config_to_doc",
    "config_from_doc",
    "ChaosProxy",
    "FaultPlan",
    "IntegrityConfig",
    "IntegrityMonitor",
    "IntegrityViolation",
    "WorkerReputation",
    "should_audit",
    "WorkerOptions",
    "work_service",
    "CampaignService",
    "ServiceConfig",
]
