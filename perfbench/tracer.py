"""Tracing from outside the simulator: spans and per-call self time.

The benchmark never edits the program to trace it.  It replaces public
methods and module functions of each layer with timing wrappers before
any core is built, so every bound method the core caches is already a
wrapper.  Two kinds of record are kept, both in memory until the run ends:

* **coarse spans** (workload -> point -> ``simulate``, HTTP calls) carry a
  name, layer, start, end and parent id;
* **hot boundaries** (predictor, cache hierarchy, engine hooks, ...) are
  called hundreds of thousands of times per point, so each keeps only an
  aggregate: calls, self seconds and total seconds.

A boundary's *self* time is its duration minus the time spent in the
traced boundaries it called.  Every traced call pushes a child-time
accumulator on one shared stack, so the self times of all layers sum to
the duration of the outermost span.
"""

import contextlib
import functools
import json
import os
import time
from typing import Dict, List, Optional, Tuple

__all__ = ["Tracer", "installed"]

# Pre-execution engine hooks the pipeline calls per uop or per cycle.
ENGINE_HOOKS = ("fetch_override", "note_fetched", "checkpoint", "restore",
                "on_squash", "note_refetched",
                "on_helper_branch_mispredicted", "retire_blocked",
                "on_retire", "on_cycle", "idle_skip")


class Tracer:
    """Spans plus per-boundary aggregates for one process."""

    def __init__(self):
        self.perf = time.perf_counter
        self.pid = os.getpid()
        self.stack: List[float] = [0.0]    # child seconds per open call
        self.open: List[int] = []          # ids of open coarse spans
        self.spans: List[Dict] = []
        self.hot: Dict[Tuple[str, str], List] = {}

    def reset(self) -> None:
        """Forget everything recorded, keeping the wrappers' references
        valid (a forked worker starts from its parent's copy)."""
        self.pid = os.getpid()
        self.stack[:] = [0.0]
        self.open.clear()
        self.spans.clear()
        for slot in self.hot.values():
            slot[:] = [0, 0.0, 0.0]

    def slot(self, layer: str, op: str) -> List:
        """``[calls, self_s, total_s]`` of one boundary."""
        return self.hot.setdefault((layer, op), [0, 0.0, 0.0])

    # ------------------------------------------------------------ spans
    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        slot = self.slot(layer, name)
        sid = len(self.spans)
        doc = {"id": sid, "name": name, "layer": layer,
               "parent": self.open[-1] if self.open else None,
               "start": self.perf(), "end": None}
        self.spans.append(doc)
        self.open.append(sid)
        self.stack.append(0.0)
        try:
            yield doc
        finally:
            doc["end"] = end = self.perf()
            dt = end - doc["start"]
            slot[0] += 1
            slot[1] += dt - self.stack.pop()
            slot[2] += dt
            self.stack[-1] += dt
            self.open.pop()

    # --------------------------------------------------------- wrappers
    def wrap(self, fn, layer: str, op: str):
        return self._wrap(fn, lambda _args, s=self.slot(layer, op): s)

    def wrap_by_type(self, fn, op: str, layer_of: Dict[type, str],
                     fallback: str):
        """Wrap a method whose layer depends on the receiver's class (a
        Branch Runahead engine reuses Phelps' methods)."""
        slots = {cls: self.slot(layer, op) for cls, layer in layer_of.items()}
        default = self.slot(fallback, op)
        return self._wrap(fn, lambda args: slots.get(type(args[0]), default))

    def _wrap(self, fn, pick):
        perf, stack = self.perf, self.stack

        def traced(*args, **kwargs):
            slot = pick(args)
            t0 = perf()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                slot[0] += 1
                slot[1] += dt - stack.pop()
                slot[2] += dt
                stack[-1] += dt

        return functools.update_wrapper(traced, fn)

    # ---------------------------------------------------------- reports
    def to_dict(self) -> Dict:
        return {"hot": [[layer, op, *slot]
                        for (layer, op), slot in sorted(self.hot.items())
                        if slot[0]],
                "spans": list(self.spans)}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh)


def _targets():
    """(owner, attribute, layer) of every wrapped boundary but the
    engine hooks and ``simulate``, which ``installed`` wraps itself."""
    from repro.core.pipeline import Core
    from repro.frontend.tage import TageSCL
    from repro.harness import campaign, runcache, simulator
    from repro.isa.executor import ArchState
    from repro.memory.hierarchy import MemoryHierarchy

    yield Core, "__init__", "core"
    yield Core, "run", "core"
    for op in ("predict", "update", "spec_update", "checkpoint", "restore"):
        yield TageSCL, op, "frontend"
    for op in ("load", "store", "ifetch"):
        yield MemoryHierarchy, op, "memory"
    yield ArchState, "step", "isa"
    yield simulator, "build_workload", "workloads"
    yield runcache.RunCache, "get", "harness"
    yield runcache.RunCache, "put", "harness"
    yield campaign.CampaignJournal, "mark", "harness"


@contextlib.contextmanager
def installed(tracer: Tracer, worker_dir: Optional[str] = None):
    """Install the wrappers for the duration of the block.

    With ``worker_dir``, a fork-started ``simulate_many`` worker resets
    the tracer it inherited, traces its one simulation as a root span and
    writes its records to ``worker_dir`` before returning the result.
    """
    from repro.core.engine_api import NullEngine, PreExecutionEngine
    from repro.harness import parallel, simulator
    from repro.phelps import PhelpsEngine
    from repro.runahead import BranchRunaheadEngine

    saved = []

    def patch(owner, name, value):
        saved.append((owner, name, owner.__dict__.get(name)))
        setattr(owner, name, value)

    for owner, name, layer in _targets():
        patch(owner, name, tracer.wrap(getattr(owner, name), layer, name))
    # simulate() is both the harness boundary and, in a worker, the root.
    traced_simulate = tracer.wrap(simulator.simulate, "harness", "simulate")
    patch(simulator, "simulate", traced_simulate)

    def worker_simulate(*args, **kwargs):
        if worker_dir is None or os.getpid() == tracer.pid:
            return traced_simulate(*args, **kwargs)
        tracer.reset()
        with tracer.span("worker", "bench"):
            result = traced_simulate(*args, **kwargs)
        tracer.dump(os.path.join(worker_dir, f"worker-{os.getpid()}.json"))
        return result

    patch(parallel, "simulate", worker_simulate)

    engines = {PhelpsEngine: "phelps", BranchRunaheadEngine: "runahead"}
    for cls in engines:
        for op in ENGINE_HOOKS:
            if op in cls.__dict__:
                patch(cls, op, tracer.wrap_by_type(cls.__dict__[op], op,
                                                   engines, "phelps"))
    patch(NullEngine, "note_fetched",
          tracer.wrap(PreExecutionEngine.note_fetched, "core", "note_fetched"))
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)
