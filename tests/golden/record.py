"""Golden timing corpus: row definitions, re-simulation, and the recorder.

Each corpus row pins one configuration's simulated timing bit-exactly:
``cycles``, every non-observability :class:`~repro.core.stats.SimStats`
field (canonical JSON, so int dict keys compare as strings), the number
of retired uops, and the sha256 commit-stream digest from
:mod:`repro.harness.commitdigest`.  ``tests/golden/test_timing_corpus.py``
re-simulates every row and fails on any difference.

Re-record (only when a timing change is intended, and justify every
changed row in CHANGES.md)::

    PYTHONPATH=src python tests/golden/record.py [OUT]

``OUT`` defaults to ``timing.json`` beside this script.
"""

import dataclasses
import json
import pathlib
import sys
from typing import Dict, List, Optional

from repro.harness.commitdigest import digest_run
from repro.harness.simulator import RunConfig
from repro.memory import MemoryConfig
from repro.phelps import PhelpsConfig

CORPUS = pathlib.Path(__file__).with_name("timing.json")

# Short epochs so Phelps deploys helpers inside a test-sized run.
SHORT_EPOCH_PHELPS = {"epoch_length": 8000, "min_iterations_per_visit": 8}
# The sssp-slow-dram perf point's memory: long stalls, idle-skip heavy.
SLOW_DRAM = {"dram_latency": 400, "enable_l1_prefetcher": False,
             "enable_l2_prefetcher": False}


def _row(name, workload, engine, max_instructions, mechanism=(),
         phelps_config=None, memory=None) -> Dict:
    # ``mechanism`` names the stats that must be positive, so a row cannot
    # pass while the feature it exists for silently stopped running.
    return {"name": name, "mechanism": list(mechanism),
            "config": {"workload": workload, "engine": engine,
                       "max_instructions": max_instructions,
                       "phelps_config": phelps_config, "memory": memory}}


PHELPS_RAN = ("helper_retired", "queue_consumed")
ROWS: List[Dict] = [
    _row("astar-baseline-20k", "astar", "baseline", 20_000),
    _row("astar-phelps-20k", "astar", "phelps", 20_000, PHELPS_RAN,
         phelps_config=SHORT_EPOCH_PHELPS),
    _row("astar-perfbp-20k", "astar", "perfbp", 20_000),
    # 45k is the first budget at which branch runahead activates on astar.
    _row("astar-br-45k", "astar", "br", 45_000, ["engine.activations"]),
    _row("sssp-phelps-20k", "sssp", "phelps", 20_000, PHELPS_RAN,
         phelps_config=SHORT_EPOCH_PHELPS),
    _row("sssp-slow-dram-baseline-20k", "sssp", "baseline", 20_000,
         ["idle_cycles_skipped"], memory=SLOW_DRAM),
]


def run_config(config: Dict) -> RunConfig:
    phelps, memory = config["phelps_config"], config["memory"]
    return RunConfig(
        workload=config["workload"], engine=config["engine"],
        max_instructions=config["max_instructions"],
        phelps_config=PhelpsConfig(**phelps) if phelps else None,
        memory=MemoryConfig(**memory) if memory else None)


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, default=str)


def simulate_row(row: Dict, perturb_cycle: Optional[int] = None) -> Dict:
    """Re-simulate one row definition; returns the row as it runs today."""
    run = digest_run(run_config(row["config"]), perturb_cycle=perturb_cycle)
    stats = {k: v for k, v in dataclasses.asdict(run.stats).items()
             if k not in ("metrics", "epochs")}
    return {
        "name": row["name"],
        "config": row["config"],
        "mechanism": row["mechanism"],
        "cycles": run.stats.cycles,
        "commits": run.commits,
        "commit_digest": run.digest,
        "stats": json.loads(_canonical(stats)),
    }


def diff_row(recorded: Dict, observed: Dict) -> List[str]:
    """Every field where ``observed`` differs from the recorded row."""
    diffs = [f"{field}: recorded {recorded[field]!r}, now {observed[field]!r}"
             for field in ("cycles", "commits", "commit_digest")
             if recorded[field] != observed[field]]
    for key in sorted(set(recorded["stats"]) | set(observed["stats"])):
        was, now = recorded["stats"].get(key), observed["stats"].get(key)
        if _canonical(was) != _canonical(now):
            diffs.append(f"stats.{key}: recorded {_canonical(was)}, "
                         f"now {_canonical(now)}")
    return diffs


def idle_mechanisms(row: Dict) -> List[str]:
    """The row's mechanism stats that did not run (are not positive)."""
    idle = []
    for path in row["mechanism"]:
        value = row["stats"]
        for part in path.split("."):
            value = value.get(part, 0) if isinstance(value, dict) else 0
        if not value > 0:
            idle.append(path)
    return idle


def main(argv: List[str]) -> int:
    out = pathlib.Path(argv[0]) if argv else CORPUS
    rows = []
    for row in ROWS:
        observed = simulate_row(row)
        idle = idle_mechanisms(observed)
        if idle:
            print(f"{row['name']}: mechanism did not run: {idle}",
                  file=sys.stderr)
            return 1
        print(f"{row['name']}: cycles={observed['cycles']} "
              f"commits={observed['commits']} "
              f"digest={observed['commit_digest'][:12]}")
        rows.append(observed)
    out.write_text(json.dumps({"schema": 1, "rows": rows}, indent=1,
                              sort_keys=True) + "\n")
    print(f"corpus -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
