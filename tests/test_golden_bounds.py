"""Golden bounds: every analysis on the benchmark's reference ops.

``tests/data/golden_bounds.json`` holds, as exact ``Fraction`` strings,
the busy window, delay, backlog, per-job and RTC bounds of the 148
``analyze-cold`` reference ops (144 stratified random DRT tasks and the
four E1 case studies), written by ``tools/gen_golden_bounds.py`` with
the engine that still reduced on ``Fraction`` curves.  Each op is
analysed here on a fresh task and must reproduce its record exactly,
critical tuples and exploration statistics included.
"""

import importlib.util
import json
import os

import pytest

_HERE = os.path.dirname(__file__)
_spec = importlib.util.spec_from_file_location(
    "gen_golden_bounds",
    os.path.join(_HERE, os.pardir, "tools", "gen_golden_bounds.py"),
)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

with open(os.path.join(_HERE, "data", "golden_bounds.json")) as _fh:
    GOLDEN = json.load(_fh)

OPS = gen.reference_ops()


def test_golden_file_covers_every_reference_op():
    assert len(OPS) == 148
    assert sorted(label for label, _, _ in OPS) == sorted(GOLDEN)


@pytest.mark.parametrize("label,task,beta", OPS, ids=[op[0] for op in OPS])
def test_bounds_match_golden(label, task, beta):
    assert gen.bounds_of(task, beta) == GOLDEN[label]
