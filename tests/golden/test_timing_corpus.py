"""Golden timing corpus: every recorded row re-simulates bit-exactly.

A change to shared pipeline code that moves cycles, any SimStats counter,
or the commit stream of any row fails here.  If the change is intended,
re-record with ``tests/golden/record.py`` and justify every changed row in
CHANGES.md.
"""

import json

import pytest

from tests.golden.record import (CORPUS, ROWS, diff_row, idle_mechanisms,
                                 simulate_row)

RECORDED = {row["name"]: row for row in json.loads(CORPUS.read_text())["rows"]}


def test_corpus_holds_every_defined_row():
    assert list(RECORDED) == [row["name"] for row in ROWS]
    for row in ROWS:
        recorded = RECORDED[row["name"]]
        assert recorded["config"] == row["config"]
        assert recorded["mechanism"] == row["mechanism"]


@pytest.mark.parametrize("name", list(RECORDED))
def test_row_matches_bit_exactly(name):
    observed = simulate_row(RECORDED[name])
    assert diff_row(RECORDED[name], observed) == []
    assert idle_mechanisms(observed) == []


# A one-cycle perturbation is usually absorbed in one observable and
# shows in another: on perfbp nothing is ever squashed, so the commit
# stream cannot move and the bug must surface in cycles; on baseline the
# shifted wrong-path fetches renumber the commit stream while the run
# re-converges to the same cycle count.
@pytest.mark.parametrize("name, perturb_cycle, field", [
    ("astar-perfbp-20k", 700, "cycles"),
    ("astar-baseline-20k", 1500, "commit_digest"),
])
def test_seeded_perturbation_is_detected(name, perturb_cycle, field):
    # One silently skipped cycle number mid-run — the footprint of an
    # off-by-one stall bug — must fail the corpus check.
    observed = simulate_row(RECORDED[name], perturb_cycle=perturb_cycle)
    diffs = diff_row(RECORDED[name], observed)
    assert field in {diff.split(":")[0] for diff in diffs}, diffs


def test_idle_mechanism_fails_the_row():
    row = {"mechanism": ["helper_retired", "engine.activations"],
           "stats": {"helper_retired": 0, "engine": {"activations": 1}}}
    assert idle_mechanisms(row) == ["helper_retired"]
    row["stats"]["engine"] = {}
    assert idle_mechanisms(row) == ["helper_retired", "engine.activations"]
