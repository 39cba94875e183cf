"""Golden results of the task-set analyses on a fixed pool of small sets.

``tests/data/golden_sets.json`` holds, as exact ``Fraction`` strings,
what ``sp_structural_delays``, ``sp_schedulable``, ``edf_schedulable``
and ``edf_structural_delays`` answered on 8 seeded constrained-deadline
sets (each on two services), written by ``tools/gen_golden_sets.py``
before the demand bound moved onto the shared request explorer.  Each
case is replayed on fresh tasks and must match its record exactly.

The file also holds ``edf_schedulable`` verdicts on sets with arbitrary
deadlines.  There the older demand bound could fall below the true
demand, so a verdict may move from schedulable to unschedulable, never
the other way.
"""

import importlib.util
import json
import os

import pytest

_HERE = os.path.dirname(__file__)
_spec = importlib.util.spec_from_file_location(
    "gen_golden_sets",
    os.path.join(_HERE, os.pardir, "tools", "gen_golden_sets.py"),
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

with open(os.path.join(_HERE, "data", "golden_sets.json")) as _fh:
    GOLDEN = json.load(_fh)

CONSTRAINED = gen.constrained_sets()
ARBITRARY = gen.arbitrary_sets()


def test_golden_file_covers_every_case():
    assert sorted(c[0] for c in CONSTRAINED) == sorted(GOLDEN["constrained"])
    assert sorted(c[0] for c in ARBITRARY) == sorted(GOLDEN["arbitrary"])


@pytest.mark.parametrize(
    "label,tasks,beta", CONSTRAINED, ids=[c[0] for c in CONSTRAINED]
)
def test_constrained_sets_match_golden(label, tasks, beta):
    assert gen.set_record(tasks, beta) == GOLDEN["constrained"][label]


@pytest.mark.parametrize("label,tasks,beta", ARBITRARY, ids=[c[0] for c in ARBITRARY])
def test_arbitrary_verdicts_never_loosen(label, tasks, beta):
    old, new = GOLDEN["arbitrary"][label], gen.edf_record(tasks, beta)
    if "error" in old or "error" in new:
        assert new == old
    elif not old["schedulable"]:
        assert not new["schedulable"]
