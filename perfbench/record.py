"""Record the expected per-point digests of every workload, per seed.

Every point is simulated serially in-process with ``simulate`` (the
reference path the sweep paths are compared against) and its digest is
written to ``perfbench/expected.json``.  Run it from the repository root
after a change that is meant to move simulated results::

    python3 perfbench/record.py --seeds 0-99 --jobs 2
"""

import argparse
import json
import multiprocessing as mp
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
EXPECTED = pathlib.Path(__file__).resolve().parent / "expected.json"


def _paths() -> None:
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _record_seed(seed: int):
    _paths()
    from repro.harness import entry_from_result, simulate
    from perfbench import checks, points

    points.install_seed(seed)
    doc = {}
    for name, make in points.SIM_WORKLOADS.items():
        doc[name] = {}
        for config in make(seed):
            stats = simulate(config).stats
            problems = checks.engine_ran_problems(name, config, stats)
            if problems:
                raise RuntimeError(f"seed {seed} {name}: {problems}")
            doc[name][points.point_label(config)] = points.stats_digest(stats)
    doc["sweep"] = {points.point_label(c):
                    points.entry_digest(entry_from_result(simulate(c)))
                    for c in points.sweep_points(seed)}
    return seed, doc


def _parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-99",
                        help="inclusive seed range, e.g. 0-99")
    parser.add_argument("--jobs", type=int, default=2)
    args = parser.parse_args(argv)
    seeds = _parse_seeds(args.seeds)
    ctx = mp.get_context("spawn")
    with ctx.Pool(args.jobs) as pool:
        recorded = dict(pool.imap_unordered(_record_seed, seeds))
    doc = {str(s): recorded[s] for s in sorted(recorded)}
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(doc)} seeds into {EXPECTED.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
