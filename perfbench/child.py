"""One benchmark child process: one unit of one workload.

``run.py`` starts a fresh interpreter per unit.  A unit is one point of a
simulator workload, or one whole campaign of a sweep workload.  The child
writes one JSON document to ``--out``; its stdout is left to the program.

Set-up and timed phases are measured in CPU seconds (user + system) of
every process that does the work: the child, the sweep workers it forks
and waits for, and the service's pool workers.  Unlike wall time, CPU
time leaves out the time the host gave to other processes, so waits and
a busy neighbour's share of the cores do not count; it still follows how
fast the host's cores run at the time.  Set-up counts from the start
of the interpreter (interpreter start, imports, workload builds and core
construction) to the first simulated cycle, which is the entry to
``Core.run``.

Modes: ``plain`` is the untraced, timed run that end-to-end metrics come
from; ``setup`` stops a plain run at its first simulated cycle (or, on
``sweep-service``, once the pool is polling), to add set-up samples;
``traced`` installs the tracer and the stage profiler; ``unobserved``
reruns a point with ``observe=False`` (the price of the figure suite's
``observe=True``).
"""

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import pathlib
import resource
import shutil
import sys
import tempfile
import time
import urllib.request

ROOT = pathlib.Path(__file__).resolve().parents[1]
WORK_DIR = ROOT / ".perfbench_work"

SWEEP_JOBS = 2
SERVICE_WORKERS = 2
# Sampled audit: a fixed share of completions re-executed on another
# worker, drawn by a fixed seed, so the integrity layer does the same work
# on every run.
AUDIT_RATE = 0.15
AUDIT_SEED = 1
SERVICE_TIMEOUT_S = 120.0
POLL_S = 0.05


def _cpu_s() -> float:
    """CPU seconds this process has used since it started (all threads)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _children_cpu_s() -> float:
    """CPU seconds of the children this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _live_cpu_s(pid: int) -> float:
    """CPU seconds a live process has used, all threads, at ns resolution."""
    total = 0
    for stat in pathlib.Path(f"/proc/{pid}/task").glob("*/schedstat"):
        try:
            total += int(stat.read_text().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended while we looked
    return total / 1e9


class FirstCycle(Exception):
    """Raised at the first simulated cycle of a set-up probe."""


@contextlib.contextmanager
def cpu_marks(mark_dir: pathlib.Path, probe: bool = False):
    """Record ``[CPU at entry, CPU at exit]`` of every ``Core.run``.

    Entry to ``Core.run`` is the first simulated cycle.  Marks of this
    process are yielded as a list; a fork-started sweep worker, whose CPU
    count starts at zero at the fork, writes its mark to ``mark_dir``.
    With ``probe``, the run stops there with :class:`FirstCycle`.
    """
    from repro.core.pipeline import Core

    original = Core.__dict__["run"]
    owner = os.getpid()
    marks = []

    def run(self, *args, **kwargs):
        start = _cpu_s()
        if probe:
            marks.append([start, start])
            raise FirstCycle
        try:
            return original(self, *args, **kwargs)
        finally:
            mark = [start, _cpu_s()]
            if os.getpid() == owner:
                marks.append(mark)
            else:
                (mark_dir / f"cpu-{os.getpid()}.json").write_text(
                    json.dumps(mark))

    Core.run = functools.update_wrapper(run, original)
    try:
        yield marks
    finally:
        Core.run = original


def _peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


class _Untraced:
    """Stand-in for the tracer on untraced runs: spans cost nothing."""

    def span(self, name, layer):
        return contextlib.nullcontext()


# ----------------------------------------------------------------------
# Simulator workloads: one point per child.
# ----------------------------------------------------------------------
def run_point(args, tracer, tmp, marks):
    from repro.core.config import CoreConfig
    from repro.harness import simulator
    from repro.obs import ObserveConfig
    from perfbench import checks, points

    points.install_seed(args.seed)
    plain = points.SIM_WORKLOADS[args.workload](args.seed)[args.index]
    config = plain
    if args.mode == "unobserved":
        config = dataclasses.replace(plain, observe=False)
    elif args.mode == "traced":
        config = dataclasses.replace(
            plain, observe_config=ObserveConfig(profile=True))
    label = points.point_label(config)

    if args.mode == "setup":
        with contextlib.suppress(FirstCycle):
            simulator.simulate(config)
        return {"setup_s": [marks[0][0]], "points": {}}, _no_check

    with tracer.span("point", "bench"):
        result = simulator.simulate(config)
    (first_cycle, end), = marks
    stats = result.stats
    digest = points.stats_digest(stats)
    doc = {"setup_s": [first_cycle],
           "timed_s": end - first_cycle,
           "wall_s": result.wall_seconds,
           "points": {label: {"retired": stats.retired,
                              "cycles": stats.cycles,
                              "helper_retired": stats.helper_retired,
                              "skipped": stats.idle_cycles_skipped,
                              "wall_s": result.wall_seconds,
                              "digest": digest}},
           "counters": {
               "queue_consumed": stats.queue_consumed,
               "queue_consumed_wrong": stats.queue_consumed_wrong,
               "queue_not_timely": stats.queue_not_timely,
               "l1d_hits": stats.memory["l1d"].hits,
               "l1d_misses": stats.memory["l1d"].misses,
               "l2_hits": stats.memory["l2"].hits,
               "l2_misses": stats.memory["l2"].misses}}
    if result.obs is not None and result.obs.profiler is not None:
        doc["stages"] = {name: v["seconds"] for name, v in
                         result.obs.profiler.to_dict().items()}

    def check(tally):
        problems = checks.engine_ran_problems(args.workload, config, stats)
        expected = checks.expected_digest(args.seed, args.workload, label)
        if expected is not None:
            problems += checks.digest_problems(label, digest, expected)
        elif args.reference:
            # Unrecorded seed: the naive cycle-by-cycle loop, a separate
            # code path from the idle-skipping one timed here, must give
            # the same simulated counters.  ``run.py`` asks for this once
            # per point and run, and checks that every other child of the
            # run agrees with this one's digest.
            core = dataclasses.replace(plain.core or CoreConfig(),
                                       enable_cycle_skip=False)
            naive = simulator.simulate(dataclasses.replace(
                plain, core=core, observe=False)).stats
            problems += checks.cycle_exact_problems(stats, naive)
        if (args.workload == "astar-fig12a"
                and args.seed == points.DEFAULT_SEED):
            counters = {f: getattr(stats, f) for f in checks.CELL_FIELDS}
            problems += checks.figure_cell_problems(plain, counters)
        tally.record(label, problems)

    return doc, check


# ----------------------------------------------------------------------
# sweep-local: a cold journaled campaign, then a warm rerun.
# ----------------------------------------------------------------------
def run_sweep_local(args, tracer, tmp, marks):
    from repro.harness import (CampaignJournal, RunCache, campaign,
                               entry_fingerprint, entry_from_result,
                               simulator)
    from perfbench import checks, points

    points.install_seed(args.seed)
    configs = points.sweep_points(args.seed)
    cache = RunCache(tmp / "cache")
    rerun_started = set()

    def on_warm(p):
        if p.kind == "start":
            rerun_started.add(p.config.cache_key())

    with tracer.span("campaign.cold", "harness"):
        start, cpu, children = time.time(), _cpu_s(), _children_cpu_s()
        cold = campaign.run_campaign(configs, CampaignJournal(tmp / "cold"),
                                     cache, jobs=SWEEP_JOBS)
        cold_s = time.time() - start
        # Every point's worker has been waited for when the campaign ends.
        cold_cpu = _cpu_s() - cpu + _children_cpu_s() - children
    with tracer.span("campaign.warm", "harness"):
        start = time.time()
        warm = campaign.run_campaign(configs, CampaignJournal(tmp / "warm"),
                                     cache, jobs=SWEEP_JOBS, progress=on_warm)
        rerun_s = time.time() - start

    # One set-up sample per point: the child up to the campaign, then the
    # point's forked worker up to its first simulated cycle.
    setup = [cpu + json.loads(p.read_text())[0]
             for p in sorted(tmp.glob("cpu-*.json"))]
    doc = {"setup_s": setup, "timed_s": cold_cpu, "wall_s": cold_s,
           "points": {points.point_label(c): _point_doc(cold[c.cache_key()])
                      for c in configs if c.cache_key() in cold},
           "jobs": SWEEP_JOBS,
           "harness": {"rerun_s": rerun_s,
                       "rerun_hit_frac": 1.0 - len(rerun_started) / len(configs)}}

    def check(tally):
        for config in configs:
            key, label = config.cache_key(), points.point_label(config)
            entry, rerun = cold.get(key), warm.get(key)
            if entry is None:
                tally.record(f"cold {label}", ["no result"])
                tally.record(f"warm {label}", ["no result"])
                continue
            expected = checks.expected_digest(args.seed, "sweep", label)
            if expected is None and args.reference:
                # Unrecorded seed: the in-process serial run is the other
                # path the sweep must be bit-identical to.
                expected = points.entry_digest(
                    entry_from_result(simulator.simulate(config)))
            problems = []
            if expected is not None:
                problems = checks.digest_problems(
                    label, points.entry_digest(entry), expected)
            tally.record(f"cold {label}", problems)
            problems = []
            if key in rerun_started:
                problems.append("warm rerun simulated the point again")
            if rerun is None or (entry_fingerprint(rerun)
                                 != entry_fingerprint(entry)):
                problems.append("warm rerun result differs from the cold run")
            tally.record(f"warm {label}", problems)

    return doc, check


def _point_doc(entry) -> dict:
    from perfbench import points

    return {"retired": entry["retired"], "cycles": entry["cycles"],
            "helper_retired": entry["helper_retired"],
            "skipped": entry["idle_cycles_skipped"],
            "wall_s": entry["wall_seconds"],
            "digest": points.entry_digest(entry)}


# ----------------------------------------------------------------------
# sweep-service: the same points through the HTTP campaign service.
# ----------------------------------------------------------------------
def run_sweep_service(args, tracer, tmp, marks):
    from repro.service import CampaignService, ServiceConfig
    from repro.service.queue import configs_from_spec
    from perfbench import checks, points

    spec = points.service_spec(args.seed)
    service = CampaignService(ServiceConfig(
        root=str(tmp / "campaigns"), cache_dir=str(tmp / "cache"),
        workers=SERVICE_WORKERS, log=False,
        audit_rate=AUDIT_RATE, audit_seed=AUDIT_SEED))
    # The ids of the workers that have asked for work, seen from outside
    # the daemon's HTTP handler (which looks the method up on the instance).
    polled = set()
    schedule_doc = service._schedule_doc

    def counting_schedule_doc(worker):
        polled.add(worker)
        return schedule_doc(worker)

    service._schedule_doc = counting_schedule_doc
    activated = first_claim = finished = None
    try:
        # Set-up ends when every pool worker has asked for work once.  The
        # campaign is submitted only then: a worker that polls before the
        # scheduler's next tick activates the campaign backs off for two
        # ticks, so submitting earlier would make the first claim depend on
        # how fast the host starts the workers.
        with tracer.span("service.start", "service"):
            service.start()
            deadline = time.time() + SERVICE_TIMEOUT_S
            while len(polled) < SERVICE_WORKERS and time.time() < deadline:
                time.sleep(POLL_S / 2)
        pids = [proc.pid for _wid, proc in service._workers]
        workers_cpu = {pid: _live_cpu_s(pid) for pid in pids}
        ready_cpu = _cpu_s()
        setup = ready_cpu + sum(workers_cpu.values())
        if args.mode == "setup":
            return {"setup_s": [setup], "points": {}}, _no_check
        submitted = time.time()
        cid = json.loads(_http(f"{service.url}/campaigns", tracer,
                               "http.submit", spec))["id"]
        while time.time() < submitted + SERVICE_TIMEOUT_S:
            doc = json.loads(_http(f"{service.url}/campaigns/{cid}", tracer,
                                   "http.poll"))
            now = time.time()
            if activated is None and doc["status"] != "queued":
                activated = now
            counts = doc.get("counts", {})
            if first_claim is None and (counts.get("running")
                                        or counts.get("done")):
                first_claim = now
            if doc["status"] in ("done", "failed", "cancelled"):
                finished = now
                break
            time.sleep(POLL_S)
        # The daemon's threads and the client run in this process; the
        # pool workers are still alive, so /proc has their counts.
        timed_cpu = _cpu_s() - ready_cpu + sum(
            _live_cpu_s(proc.pid) - workers_cpu.get(proc.pid, 0.0)
            for _wid, proc in service._workers)
        results = json.loads(_http(f"{service.url}/campaigns/{cid}/results",
                                   tracer, "http.results"))["results"]
        metrics = _prom_counters(_http(f"{service.url}/metrics", tracer,
                                       "http.metrics").decode())
    finally:
        with tracer.span("service.stop", "service"):
            service.stop()
    end = finished or time.time()
    first_claim = first_claim or end
    configs = configs_from_spec(spec)
    doc = {"setup_s": [setup], "timed_s": timed_cpu, "wall_s": end - submitted,
           "points": {points.point_label(c): _point_doc(results[c.cache_key()])
                      for c in configs if c.cache_key() in results},
           "jobs": SERVICE_WORKERS,
           "service": {
               "http_requests": metrics.get(
                   "repro_service_http_requests_total", 0.0),
               "http_retries": metrics.get(
                   "repro_service_http_retries_total", 0.0),
               "lease_expirations": metrics.get(
                   "repro_service_lease_expirations_total", 0.0),
               "stale_claims": metrics.get(
                   "repro_service_stale_claims_total", 0.0),
               "audit_points": metrics.get(
                   "repro_service_audit_scheduled_total", 0.0),
               "activate_s": (activated or end) - submitted,
               "first_claim_s": first_claim - submitted}}

    def check(tally):
        for config in configs:
            label = points.point_label(config)
            entry = results.get(config.cache_key())
            if entry is None or finished is None:
                tally.record(label, ["no result from the service"])
                continue
            # Workers know only registry names: compare with the default
            # inputs' serial digests whatever the seed.
            expected = checks.expected_digest(points.DEFAULT_SEED, "sweep",
                                              label)
            tally.record(label, checks.digest_problems(
                label, points.entry_digest(entry), expected))

    return doc, check


def _http(url, tracer, name, body=None) -> bytes:
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(url, data=data, headers={
        "Content-Type": "application/json"})
    with tracer.span(name, "service"):
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.read()


def _prom_counters(text: str) -> dict:
    """Sum each Prometheus sample over its labels."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name_labels, _, value = line.rpartition(" ")
            name = name_labels.split("{", 1)[0]
            out[name] = out.get(name, 0.0) + float(value)
    return out


def _no_check(tally):
    pass


RUNNERS = {"astar-fig12a": run_point, "gap-slowmem": run_point,
           "sweep-local": run_sweep_local, "sweep-service": run_sweep_service}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, default=0)
    parser.add_argument("--mode", default="plain",
                        choices=("plain", "setup", "traced", "unobserved"))
    parser.add_argument("--reference", action="store_true",
                        help="for an unrecorded seed, also simulate the "
                             "reference path the outputs must match")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import tracer as tracing
    from perfbench.checks import Tally

    WORK_DIR.mkdir(exist_ok=True)
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="child-", dir=WORK_DIR))
    traced = args.mode == "traced"
    tracer = tracing.Tracer() if traced else _Untraced()
    try:
        with cpu_marks(tmp, probe=args.mode == "setup") as marks, (
                tracing.installed(tracer, worker_dir=str(tmp)) if traced
                else contextlib.nullcontext()):
            with tracer.span("child", "bench"):
                doc, check = RUNNERS[args.workload](args, tracer, tmp, marks)
        doc["peak_rss_mb"] = _peak_rss_mb()
        if traced:
            doc["trace"] = tracer.to_dict()
            doc["trace"]["workers"] = [json.loads(p.read_text())
                                       for p in sorted(tmp.glob("worker-*.json"))]
        # Checks run untraced, after the measured phase.
        tally = Tally()
        check(tally)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    doc["tally"] = tally.to_dict()
    pathlib.Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
