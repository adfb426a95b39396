"""Output checks and failure accounting.

Every simulated point is one *operation*.  An operation fails when any of
its checks finds a problem; a failed operation still counts as attempted,
so ``fail_frac = failed / attempted``.  No check is ever skipped.  A seed
with no recorded digests is checked once per point and run against a
second code path (the naive cycle loop for a simulator point, the
in-process serial run for a sweep point), and every other child of the
run must then agree with that child's digest (see ``run.py``).
"""

import functools
import json
import pathlib
from typing import Dict, List, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPECTED_FILE = pathlib.Path(__file__).resolve().parent / "expected.json"
FIGURE_CACHE = ROOT / "benchmarks" / "results" / "cache.json"

# The simulated counters a committed figure cell must reproduce exactly.
CELL_FIELDS = ("cycles", "retired", "helper_retired")
# The counters idle-cycle skipping must leave exactly as the naive loop
# has them (the set ``tests/core/test_cycle_skip.py`` holds it to).
CYCLE_EXACT_FIELDS = ("cycles", "retired", "mispredicts", "retired_branches",
                      "helper_retired", "full_squashes", "queue_consumed",
                      "queue_consumed_wrong", "queue_not_timely")


class Tally:
    """Attempted and failed operations, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, operation: str, problems: List[str]) -> bool:
        """Count one operation; True when it passed every check."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{operation}: {p}" for p in problems)
        return not problems

    def merge(self, doc: Dict) -> None:
        self.attempted += int(doc["attempted"])
        self.failed += int(doc["failed"])
        self.problems.extend(doc.get("problems", ()))

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def to_dict(self) -> Dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "problems": list(self.problems)}


@functools.lru_cache(maxsize=None)
def _recorded() -> Dict:
    if not EXPECTED_FILE.exists():
        return {}
    return json.loads(EXPECTED_FILE.read_text())


def expected_digest(seed: int, group: str, label: str) -> Optional[str]:
    """The recorded digest of one point, or None for an unrecorded seed."""
    return _recorded().get(str(seed), {}).get(group, {}).get(label)


def digest_problems(label: str, digest: str,
                    expected: Optional[str]) -> List[str]:
    if expected is None:
        return [f"no reference digest for {label}"]
    if digest != expected:
        return [f"digest {digest} != expected {expected}"]
    return []


def cycle_exact_problems(stats, naive) -> List[str]:
    """Compare a run with the same point simulated by the naive loop."""
    return [f"{f} {getattr(stats, f)} != naive loop {getattr(naive, f)}"
            for f in CYCLE_EXACT_FIELDS
            if getattr(stats, f) != getattr(naive, f)]


def agreement_problems(digests: List[str]) -> List[str]:
    """Every child that simulated a point must have got the same result."""
    if len(set(digests)) > 1:
        return [f"children disagree: {sorted(set(digests))}"]
    return []


def figure_cell_problems(config, counters: Dict) -> List[str]:
    """Compare a run with its committed Fig. 12a cell in ``cache.json``."""
    from repro.harness.runcache import legacy_key

    key = legacy_key(config)
    cell = json.loads(FIGURE_CACHE.read_text()).get(key)
    if cell is None:
        return [f"no committed cell {key!r}"]
    return [f"{f} {counters[f]} != committed {cell[f]} ({key})"
            for f in CELL_FIELDS if counters[f] != cell[f]]


def engine_ran_problems(workload: str, config, stats) -> List[str]:
    """Checks that the mechanism a workload exists to time actually ran."""
    problems = []
    if workload == "astar-fig12a" and config.engine == "phelps":
        if stats.helper_retired <= 0:
            problems.append("phelps retired no helper instruction")
        if stats.queue_consumed <= 0:
            problems.append("phelps consumed no prediction-queue entry")
    if workload == "gap-slowmem" and stats.idle_cycles_skipped <= 0:
        problems.append("no idle cycle was skipped")
    return problems
