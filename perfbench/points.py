"""Workload inputs and point sets of the benchmark.

A *point* is one simulated configuration.  Every workload is a fixed list
of points; ``--seed`` chooses the program inputs:

* seed 0 (the default) uses the registry's own builders, so the committed
  figure cells in ``benchmarks/results/cache.json`` apply;
* any other seed rebuilds the astar, GAP and SPEC-like inputs through the
  builders' ``seed`` parameters and registers them in-process under
  ``<name>_s<seed>``.  Fork-started sweep workers inherit the registration.

The service workload cannot use seeded inputs (its workers are fresh
interpreters that only know registry names), so there the seed orders the
points instead.
"""

import dataclasses
import hashlib
import json
import random
import re
from typing import Dict, List

from repro.harness import RunConfig, entry_fingerprint
from repro.memory import MemoryConfig
from repro.workloads.astar import build_astar
from repro.workloads.gap.bfs import build_bfs
from repro.workloads.gap.sssp import build_sssp
from repro.workloads.registry import register
from repro.workloads.spec17 import build_mcf

from benchmarks.common import config_for

DEFAULT_SEED = 0

# The seeded builders: the registry's arguments with the input seed moved.
# The GAP builders draw from seed, seed+1 and seed+2, hence the stride.
_BUILDERS = {
    "astar": lambda s: build_astar(worklist_len=1024, grid_dim=64, seed=42 + s),
    "bfs": lambda s: build_bfs(seed=7 + 10 * s),
    "sssp": lambda s: build_sssp(seed=37 + 10 * s),
    "mcf": lambda s: build_mcf(seed=41 + 10 * s),
}

FIG12A_ENGINES = ("baseline", "phelps", "perfbp")
FIG12A_INSTRUCTIONS = 100_000

GAP_WORKLOADS = ("sssp", "bfs")
GAP_INSTRUCTIONS = 40_000
# The ``sssp-slow-dram`` perf point's memory: DRAM four times slower and no
# prefetchers, so most cycles wait on memory and are idle-skipped.
SLOW_MEMORY = MemoryConfig(dram_latency=400, enable_l1_prefetcher=False,
                           enable_l2_prefetcher=False)

SWEEP_WORKLOADS = ("astar", "bfs", "mcf", "sssp")
SWEEP_ENGINES = ("baseline", "phelps", "br")
SWEEP_INSTRUCTIONS = 6_000


def workload_name(base: str, seed: int) -> str:
    """The registry name of ``base``'s inputs at ``seed``."""
    return base if seed == DEFAULT_SEED else f"{base}_s{seed}"


def install_seed(seed: int) -> None:
    """Register the seeded inputs in this process (no-op at the default)."""
    if seed == DEFAULT_SEED:
        return
    for base, builder in _BUILDERS.items():
        register(workload_name(base, seed))(lambda b=builder: b(seed))


def point_label(config: RunConfig) -> str:
    """``<registry workload>|<engine>``: the seed-independent point name."""
    return f"{re.sub(r'_s[0-9]+$', '', config.workload)}|{config.engine}"


def fig12a_points(seed: int) -> List[RunConfig]:
    """The astar cell of Fig. 12a, with the figure suite's own RunConfig."""
    name = workload_name("astar", seed)
    return [config_for(name, engine, FIG12A_INSTRUCTIONS)
            for engine in FIG12A_ENGINES]


def gap_points(seed: int) -> List[RunConfig]:
    return [RunConfig(workload=workload_name(w, seed), engine="baseline",
                      max_instructions=GAP_INSTRUCTIONS, memory=SLOW_MEMORY)
            for w in GAP_WORKLOADS]


def sweep_points(seed: int) -> List[RunConfig]:
    return [RunConfig(workload=workload_name(w, seed), engine=e,
                      max_instructions=SWEEP_INSTRUCTIONS)
            for w in SWEEP_WORKLOADS for e in SWEEP_ENGINES]


def service_spec(seed: int) -> Dict:
    """The sweep spec POSTed to the service: registry inputs, with the
    workload and engine order shuffled by ``seed``."""
    rng = random.Random(seed)
    workloads, engines = list(SWEEP_WORKLOADS), list(SWEEP_ENGINES)
    rng.shuffle(workloads)
    rng.shuffle(engines)
    return {"workloads": workloads, "engines": engines,
            "instructions": SWEEP_INSTRUCTIONS}


def stats_digest(stats) -> str:
    """Digest of every simulated counter of one run.

    ``metrics`` and ``epochs`` are left out: they exist only on observing
    runs, and observing never changes a simulated counter.
    """
    doc = {k: v for k, v in dataclasses.asdict(stats).items()
           if k not in ("metrics", "epochs")}
    blob = json.dumps(doc, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def entry_digest(entry: Dict) -> str:
    """Digest of a sweep result entry's :func:`entry_fingerprint`."""
    return hashlib.sha256(entry_fingerprint(entry).encode()).hexdigest()[:20]


# The workloads that simulate their points one per child process.
SIM_WORKLOADS = {"astar-fig12a": fig12a_points, "gap-slowmem": gap_points}
