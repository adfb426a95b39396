"""Tests of the benchmark's own arithmetic.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import checks, run  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_self_times_sum_to_root():
    clock = _Clock()
    tracer = Tracer()
    tracer.perf = clock

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        clock.now += 3.0

    traced_leaf = tracer.wrap(leaf, "memory", "load")
    traced_middle = tracer.wrap(middle, "core", "run")
    with tracer.span("child", "bench") as root:
        clock.now += 0.5
        traced_middle()
        traced_leaf()
    sums = run.LayerSums()
    sums.add(tracer.to_dict())
    assert sums.layer_self("memory") == 4.0
    assert sums.layer_self("core") == 4.0
    assert sums.layer_self("bench") == 0.5
    assert sums.root_s == root["end"] - root["start"] == 8.5
    assert sums.count("memory", "load") == 2
    assert sums.mean_us("memory", "load") == 2e6
    assert sums.self_frac("memory") == 4.0 / 8.5


def test_self_sum_err_compares_with_an_independent_clock():
    sums = run.LayerSums()
    sums.add({"hot": [["core", "run", 1, 6.0, 10.0],
                      ["core", "__init__", 1, 1.0, 1.0],
                      ["memory", "load", 50, 3.0, 3.0],
                      ["workloads", "build_workload", 1, 2.0, 2.0],
                      ["harness", "simulate", 1, 0.5, 13.5]],
              "spans": []})
    # Construction and builds are not part of the simulated run.
    assert sums.sim_self_s() == 9.0
    sums.sim_wall_s = 9.0
    assert sums.self_sum_err() == 0.0
    # A boundary that lost its wrapper leaves time the layers miss.
    sums.sim_wall_s = 10.0
    assert sums.self_sum_err() == 0.1


def test_wrap_by_type_attributes_by_receiver():
    class Base:
        def hook(self):
            return "base"

    class Sub(Base):
        pass

    tracer = Tracer()
    Base.hook = tracer.wrap_by_type(Base.hook, "hook",
                                    {Base: "phelps", Sub: "runahead"},
                                    "phelps")
    assert Sub().hook() == "base"
    Base().hook()
    Sub().hook()
    sums = run.LayerSums()
    sums.add(tracer.to_dict())
    assert sums.count("runahead", "hook") == 2
    assert sums.count("phelps", "hook") == 1


# ---------------------------------------------------------- metric names
def test_metric_names_and_units_match_the_pattern():
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == run.PER_LAYER
    assert tuple(w["name"] for w in doc["workloads"]) == run.WORKLOADS
    for workload in doc["workloads"]:
        assert NAME.match(workload["name"])


# ------------------------------------------------------ fail accounting
def test_fail_frac_counts_failed_operations_against_attempted():
    tally = checks.Tally()
    assert tally.record("a", [])
    assert not tally.record("b", ["digest differs", "no helper retired"])
    assert tally.record("c", [])
    assert (tally.attempted, tally.failed) == (3, 1)
    assert tally.fail_frac == 1 / 3
    assert tally.problems == ["b: digest differs", "b: no helper retired"]
    other = checks.Tally()
    other.merge(tally.to_dict())
    other.record("d", ["no result"])
    assert (other.attempted, other.failed) == (4, 2)


def test_nothing_attempted_is_a_total_failure():
    assert checks.Tally().fail_frac == 1.0


def test_digest_problems():
    assert checks.digest_problems("p", "ab", "ab") == []
    assert checks.digest_problems("p", "ab", "cd")
    assert checks.digest_problems("p", "ab", None)


def test_children_must_agree_on_every_point():
    docs = [{"points": {"astar|baseline": {"digest": "ab"},
                        "astar|phelps": {"digest": "cd"}}},
            {"points": {"astar|baseline": {"digest": "ab"},
                        "astar|phelps": {"digest": "ce"}}}]
    tally = run.agreement(docs)
    assert (tally["attempted"], tally["failed"]) == (2, 1)
    assert tally["problems"][0].startswith("astar|phelps in every child")
