"""The repository benchmark: one command, four workloads, every metric.

Run from the repository root::

    python3 perfbench/run.py --workload astar-fig12a --seed 0 --seconds 15 --trace 0

Each unit of a workload runs in a fresh child process (``child.py``); the
runner repeats whole iterations of the workload until ``--seconds`` have
passed, checks every simulated output, and prints the metrics, one per
line with its unit, then one JSON object as the last line of stdout.
Host times are CPU seconds of the processes doing the work (see
``child.py``).
``--trace 0`` reports the end-to-end metrics from untraced runs;
``--trace 1`` reports the per-layer metrics from traced runs and writes
the spans to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

import argparse
import compileall
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parents[1]
HERE = pathlib.Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("astar-fig12a", "gap-slowmem", "sweep-local", "sweep-service")

# A run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170.0
# An untraced run measures at least this many whole iterations, so that a
# first iteration slowed by the host is never the run's only sample.
MIN_ITERATIONS = 2
# ... and at least this many set-up samples: children of the workload
# stopped at their first simulated cycle make up the difference.
MIN_SETUP_SAMPLES = 10

# (name, unit) of every metric.  The end-to-end ones come from untraced
# runs (``--trace 0``), the per-layer ones from traced runs (``--trace 1``).
END_TO_END = [
    ("sim_kips", "kinst/cpu-s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ipc", "inst/cycle"),
    ("phelps_speedup", "ratio"),
]
PER_LAYER = [
    ("core.self_s", "s/iter"),
    ("core.fetch_frac", "fraction"),
    ("core.dispatch_frac", "fraction"),
    ("core.issue_frac", "fraction"),
    ("core.writeback_frac", "fraction"),
    ("core.retire_frac", "fraction"),
    ("core.fetched_uops_per_inst", "uop/inst"),
    ("core.skipped_cycle_frac", "fraction"),
    ("frontend.predict_calls", "count/iter"),
    ("frontend.predict_us", "us"),
    ("frontend.update_us", "us"),
    ("frontend.checkpoints_per_uop", "count/uop"),
    ("frontend.self_frac", "fraction"),
    ("memory.accesses", "count/iter"),
    ("memory.access_us", "us"),
    ("memory.self_frac", "fraction"),
    ("memory.l1d_miss_rate", "fraction"),
    ("memory.l2_miss_rate", "fraction"),
    ("isa.steps_per_inst", "step/inst"),
    ("isa.step_us", "us"),
    ("isa.self_frac", "fraction"),
    ("phelps.self_frac", "fraction"),
    ("phelps.hook_calls", "count/iter"),
    ("phelps.helper_inst_per_inst", "inst/inst"),
    ("phelps.queue_useful_frac", "fraction"),
    ("phelps.queue_timely_frac", "fraction"),
    ("runahead.self_frac", "fraction"),
    ("workloads.build_s", "s"),
    ("harness.worker_busy_frac", "fraction"),
    ("harness.overhead_s_per_point", "s"),
    ("harness.cache_put_ms", "ms"),
    ("harness.cache_get_ms", "ms"),
    ("harness.journal_write_ms", "ms"),
    ("harness.rerun_s", "s"),
    ("harness.rerun_hit_frac", "fraction"),
    ("service.worker_busy_frac", "fraction"),
    ("service.overhead_s_per_point", "s"),
    ("service.http_requests_per_point", "count"),
    ("service.http_retries", "count"),
    ("service.lease_expirations", "count"),
    ("service.stale_claims", "count"),
    ("service.activate_s", "s"),
    ("service.first_claim_s", "s"),
    ("service.audit_points", "count"),
    ("obs.observe_cost_frac", "fraction"),
    ("obs.trace_overhead_frac", "fraction"),
    ("trace.self_sum_err_frac", "fraction"),
]
# The layers a simulation runs in.  Their self times inside ``Core.run``
# must sum to the simulator's own clock of the run within this share.
SIM_LAYERS = ("core", "frontend", "memory", "isa", "phelps", "runahead")
SELF_SUM_TOLERANCE = 0.01


class ChildFailed(RuntimeError):
    pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def units(workload: str) -> int:
    """Child units per iteration: one per point of a simulator workload,
    one campaign for a sweep."""
    from perfbench import points

    make = points.SIM_WORKLOADS.get(workload)
    return len(make(points.DEFAULT_SEED)) if make else 1


# ----------------------------------------------------------------------
# Children.
# ----------------------------------------------------------------------
def run_child(workload: str, seed: int, index: int, mode: str,
              deadline: float, reference: bool) -> Dict:
    """Run one child to completion and return its document.

    The child gets its own session so that, on a timeout, everything it
    started (sweep workers, service workers) is killed with it.
    """
    out = WORK_DIR / f"out-{os.getpid()}-{workload}-{index}-{mode}.json"
    out.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--mode", mode,
           "--out", str(out)] + (["--reference"] if reference else [])
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr,
                            start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # On a timeout, or when the runner itself is stopped, nothing the
        # child started may outlive it.
        if proc.returncode is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code is None:
        raise ChildFailed(f"{workload}[{index}] {mode} ran out of time")
    if code != 0 or not out.exists():
        raise ChildFailed(f"{workload}[{index}] {mode} exited with {code}")
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def run_pass(workload: str, seed: int, mode: str, deadline: float,
             reference: bool = False) -> List[Dict]:
    return [run_child(workload, seed, i, mode, deadline, reference)
            for i in range(units(workload))]


# ----------------------------------------------------------------------
# Aggregation.
# ----------------------------------------------------------------------
def _points(docs: List[Dict]) -> Dict[str, Dict]:
    out = {}
    for doc in docs:
        out.update(doc["points"])
    return out


def _kips(docs: List[Dict]) -> float:
    retired = sum(p["retired"] for d in docs for p in d["points"].values())
    return retired / sum(d["timed_s"] for d in docs) / 1000.0


def phelps_speedup(points: Dict[str, Dict]) -> float:
    """Geometric mean over the programs run on both engines of
    ``benchmarks.common.speedup_of``; 1.0 when the workload runs no
    Phelps point."""
    from benchmarks.common import speedup_of

    ratios = []
    for label, point in points.items():
        program, engine = label.split("|")
        base = points.get(f"{program}|baseline")
        if engine == "phelps" and base is not None:
            ratios.append(speedup_of(point, base))
    return _geomean(ratios) if ratios else 1.0


def end_to_end(iterations: List[List[Dict]],
               probes: List[Dict]) -> Dict[str, float]:
    children = [d for it in iterations for d in it]
    first = _points(iterations[0])
    return {
        "sim_kips": statistics.median(_kips(it) for it in iterations),
        "setup_s": statistics.median(s for d in children + probes
                                     for s in d["setup_s"]),
        "peak_rss_mb": max(d["peak_rss_mb"] for d in children),
        "ipc": _ratio(sum(p["retired"] for p in first.values()),
                      sum(p["cycles"] for p in first.values())),
        "phelps_speedup": phelps_speedup(first),
    }


class LayerSums:
    """Hot-boundary aggregates summed over every traced process."""

    def __init__(self):
        self.calls: Dict = {}
        self.self_s: Dict = {}
        self.total_s: Dict = {}
        self.root_s = 0.0
        self.sim_wall_s = 0.0

    def add(self, trace: Dict) -> None:
        for layer, op, calls, self_s, total_s in trace["hot"]:
            key = (layer, op)
            self.calls[key] = self.calls.get(key, 0) + calls
            self.self_s[key] = self.self_s.get(key, 0.0) + self_s
            self.total_s[key] = self.total_s.get(key, 0.0) + total_s
        self.root_s += sum(s["end"] - s["start"] for s in trace["spans"]
                           if s["parent"] is None)

    def count(self, layer: str, *ops: str) -> int:
        return sum(n for (lay, op), n in self.calls.items()
                   if lay == layer and (not ops or op in ops))

    def mean_us(self, layer: str, *ops: str) -> float:
        total = sum(t for (lay, op), t in self.total_s.items()
                    if lay == layer and op in ops)
        return _ratio(total, self.count(layer, *ops)) * 1e6

    def layer_self(self, layer: str) -> float:
        return sum(t for (lay, _op), t in self.self_s.items() if lay == layer)

    def self_frac(self, layer: str) -> float:
        return _ratio(self.layer_self(layer), self.root_s)

    def sim_self_s(self) -> float:
        """Self time of the simulation layers inside ``Core.run``."""
        return sum(t for (lay, op), t in self.self_s.items()
                   if lay in SIM_LAYERS and op != "__init__")

    def self_sum_err(self) -> float:
        """How far the simulation layers' self times miss the simulator's
        own clock of its runs (``SimResult.wall_seconds``, which times
        ``Core.run``).  The clock is independent of the tracer, so a
        boundary that stops being traced, or self-time arithmetic that
        loses or double-counts time, shows here."""
        return _ratio(abs(self.sim_self_s() - self.sim_wall_s),
                      self.sim_wall_s)


def per_layer(workload: str, plain: List[Dict], traced: List[Dict],
              unobserved: List[Dict]) -> Dict[str, float]:
    sums = LayerSums()
    for doc in traced:
        sums.add(doc["trace"])
        for worker in doc["trace"]["workers"]:
            sums.add(worker)
    if workload != "sweep-service":
        # Service workers are untraced interpreters; elsewhere every
        # simulation ran under the tracer.
        sums.sim_wall_s = sum(p["wall_s"] for d in traced
                              for p in d["points"].values())
    # Counts and seconds summed over children are per traced iteration.
    n_iter = len(traced) / units(workload)
    labelled = [(label, p) for d in traced for label, p in d["points"].items()]
    points = [p for _label, p in labelled]
    phelps_points = [p for label, p in labelled if label.endswith("|phelps")]
    retired = sum(p["retired"] for p in points)
    cycles = sum(p["cycles"] for p in points)
    counters: Dict[str, float] = {}
    stages: Dict[str, float] = {}
    for doc in traced:
        for k, v in doc.get("counters", {}).items():
            counters[k] = counters.get(k, 0) + v
        for k, v in doc.get("stages", {}).items():
            stages[k] = stages.get(k, 0.0) + v
    stage_total = sum(stages.values())
    fetched = sum(n for (_lay, op), n in sums.calls.items()
                  if op == "note_fetched")
    consumed = counters.get("queue_consumed", 0)
    l1d = counters.get("l1d_hits", 0) + counters.get("l1d_misses", 0)
    l2 = counters.get("l2_hits", 0) + counters.get("l2_misses", 0)

    # A layer the workload does not exercise reads 0.
    m = dict.fromkeys((name for name, _unit in PER_LAYER), 0.0)
    m.update({
        "core.self_s": sums.layer_self("core") / n_iter,
        "core.fetched_uops_per_inst": _ratio(fetched, retired),
        "core.skipped_cycle_frac": _ratio(sum(p["skipped"] for p in points),
                                          cycles),
        "frontend.predict_calls": sums.count("frontend", "predict") / n_iter,
        "frontend.predict_us": sums.mean_us("frontend", "predict"),
        "frontend.update_us": sums.mean_us("frontend", "update"),
        "frontend.checkpoints_per_uop": _ratio(
            sums.count("frontend", "checkpoint"), fetched),
        "frontend.self_frac": sums.self_frac("frontend"),
        "memory.accesses": sums.count("memory", "load", "store",
                                      "ifetch") / n_iter,
        "memory.access_us": sums.mean_us("memory", "load", "store", "ifetch"),
        "memory.self_frac": sums.self_frac("memory"),
        "memory.l1d_miss_rate": _ratio(counters.get("l1d_misses", 0), l1d),
        "memory.l2_miss_rate": _ratio(counters.get("l2_misses", 0), l2),
        "isa.steps_per_inst": _ratio(sums.count("isa", "step"), retired),
        "isa.step_us": sums.mean_us("isa", "step"),
        "isa.self_frac": sums.self_frac("isa"),
        "phelps.self_frac": sums.self_frac("phelps"),
        "phelps.hook_calls": sums.count("phelps") / n_iter,
        "phelps.helper_inst_per_inst": _ratio(
            sum(p["helper_retired"] for p in phelps_points),
            sum(p["retired"] for p in phelps_points)),
        "phelps.queue_useful_frac": _ratio(
            consumed - counters.get("queue_consumed_wrong", 0), consumed),
        "phelps.queue_timely_frac": _ratio(
            consumed, consumed + counters.get("queue_not_timely", 0)),
        "runahead.self_frac": sums.self_frac("runahead"),
        "workloads.build_s": _ratio(sums.layer_self("workloads"), len(traced)),
        "harness.cache_put_ms": sums.mean_us("harness", "put") / 1000.0,
        "harness.cache_get_ms": sums.mean_us("harness", "get") / 1000.0,
        "harness.journal_write_ms": sums.mean_us("harness", "mark") / 1000.0,
        "trace.self_sum_err_frac": sums.self_sum_err(),
    })
    for stage in ("fetch", "dispatch", "issue", "writeback", "retire"):
        m[f"core.{stage}_frac"] = _ratio(stages.get(stage, 0.0), stage_total)

    # Sweep workloads: worker time against the pool's capacity, in wall
    # time, because idle workers are what these two show.
    busy = sum(p["wall_s"] for d in plain for p in d["points"].values())
    capacity = sum(d.get("jobs", 1) * d["wall_s"] for d in plain)
    n_points = sum(len(d["points"]) for d in plain)
    pool = {"worker_busy_frac": _ratio(busy, capacity),
            "overhead_s_per_point": _ratio(capacity - busy, n_points)}
    if workload == "sweep-local":
        m.update({f"harness.{k}": v for k, v in pool.items()})
        m["harness.rerun_s"] = statistics.median(
            d["harness"]["rerun_s"] for d in plain)
        m["harness.rerun_hit_frac"] = min(
            d["harness"]["rerun_hit_frac"] for d in plain)
    if workload == "sweep-service":
        m.update({f"service.{k}": v for k, v in pool.items()})
        svc = [d["service"] for d in plain]
        for key in ("http_retries", "lease_expirations", "stale_claims",
                    "audit_points"):
            m[f"service.{key}"] = sum(s[key] for s in svc) / len(svc)
        m["service.http_requests_per_point"] = _ratio(
            sum(s["http_requests"] for s in svc), n_points)
        for key in ("activate_s", "first_claim_s"):
            m[f"service.{key}"] = statistics.median(s[key] for s in svc)

    plain_s = sum(d["timed_s"] for d in plain)
    m["obs.trace_overhead_frac"] = _ratio(
        sum(d["timed_s"] for d in traced), plain_s) - 1.0
    m["obs.observe_cost_frac"] = (
        _ratio(plain_s, sum(d["timed_s"] for d in unobserved)) - 1.0
        if unobserved else 0.0)
    return m


def agreement(docs: List[Dict]) -> Dict:
    """One operation per point: every child got the same result."""
    from perfbench.checks import Tally, agreement_problems

    digests: Dict[str, List[str]] = {}
    for doc in docs:
        for label, point in doc["points"].items():
            digests.setdefault(label, []).append(point["digest"])
    tally = Tally()
    for label, found in sorted(digests.items()):
        tally.record(f"{label} in every child", agreement_problems(found))
    return tally.to_dict()


# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, trace: bool):
    """Run passes until ``seconds`` have passed.

    Returns the metrics, every child's tally and the traced children."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    plain, traced, unobserved, iterations = [], [], [], []
    while True:
        docs = run_pass(workload, seed, "plain", deadline,
                        reference=not iterations)
        iterations.append(docs)
        plain += docs
        if trace:
            traced += run_pass(workload, seed, "traced", deadline)
            if workload == "astar-fig12a":
                unobserved += run_pass(workload, seed, "unobserved", deadline)
        if (len(iterations) >= (1 if trace else MIN_ITERATIONS)
                and time.monotonic() - start >= seconds):
            break
    tallies = [d["tally"] for d in plain + traced + unobserved]
    tallies.append(agreement(plain + traced + unobserved))
    if trace:
        return per_layer(workload, plain, traced, unobserved), tallies, traced
    probes = []
    samples = sum(len(d["setup_s"]) for d in plain)
    while samples + len(probes) < MIN_SETUP_SAMPLES:
        probes.append(run_child(workload, seed, len(probes) % units(workload),
                                "setup", deadline, False))
    return end_to_end(iterations, probes), tallies, []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/repro/__init__.py", "benchmarks/common.py")
               if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a checkout of the simulator (missing "
              f"{', '.join(missing)})", file=sys.stderr)
        return 2

    # Byte-compile once per checkout, so that no child's set-up time
    # includes compiling the program (users pay that once, not per run).
    for tree in ("src", "benchmarks", "perfbench"):
        compileall.compile_dir(str(ROOT / tree), quiet=1)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.checks import Tally

    # SIGTERM unwinds like an exception, so the running child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    WORK_DIR.mkdir(exist_ok=True)
    try:
        metrics, tallies, traced = measure(args.workload, args.seed,
                                           args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    tally = Tally()
    for doc in tallies:
        tally.merge(doc)
    if args.trace and args.workload != "sweep-service":
        err = metrics["trace.self_sum_err_frac"]
        tally.record("trace", [] if err <= SELF_SUM_TOLERANCE else [
            f"simulation layers' self times miss the simulated wall time "
            f"by {err:.2%}"])
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"workload": args.workload, "seed": args.seed,
             "children": [d["trace"] for d in traced]}))
        print(f"perfbench: spans written to {trace_file}", file=sys.stderr)
    for problem in tally.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, unit in units.items():
        print(f"{args.workload:14} {name:34} {metrics[name]:14.6g} {unit}")
    print(f"{args.workload:14} {'fail_frac':34} {tally.fail_frac:14.6g} "
          f"fraction of {tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
