"""Tests for JSON serialisation and DOT import/export."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.drt.model import DRTTask
from repro.errors import SerializationError, ValidationError
from repro.io.dot import (
    load_task_dot,
    save_task_dot,
    task_from_dot,
    task_to_dot,
)
from repro.io.json_io import (
    _q_in,
    curve_from_dict,
    curve_to_dict,
    load_task,
    save_task,
    task_from_dict,
    task_to_dict,
)
from repro.minplus.builders import rate_latency, staircase

from .conftest import oracle_settings


class TestTaskRoundtrip:
    def test_roundtrip_preserves_everything(self, demo_task):
        data = task_to_dict(demo_task)
        back = task_from_dict(data)
        assert back.name == demo_task.name
        assert back.jobs == demo_task.jobs
        assert {(e.src, e.dst, e.separation) for e in back.edges} == {
            (e.src, e.dst, e.separation) for e in demo_task.edges
        }

    def test_rationals_exact(self):
        t = DRTTask.build("q", jobs={"a": (F(1, 3), F(7, 2))}, edges=[("a", "a", F(22, 7))])
        back = task_from_dict(task_to_dict(t))
        assert back.wcet("a") == F(1, 3)
        assert back.edges[0].separation == F(22, 7)

    def test_file_roundtrip(self, demo_task, tmp_path):
        p = tmp_path / "task.json"
        save_task(demo_task, p)
        back = load_task(p)
        assert back.jobs == demo_task.jobs

    def test_json_is_plain(self, demo_task, tmp_path):
        p = tmp_path / "task.json"
        save_task(demo_task, p)
        data = json.loads(p.read_text())
        assert data["name"] == "demo"

    def test_missing_key_raises(self):
        with pytest.raises(SerializationError):
            task_from_dict({"name": "x", "jobs": {}})

    def test_bad_rational_raises(self):
        with pytest.raises(SerializationError):
            task_from_dict(
                {
                    "name": "x",
                    "jobs": {"a": {"wcet": "zz", "deadline": "1"}},
                    "edges": [],
                }
            )

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_task(tmp_path / "absent.json")

    def test_load_invalid_json_raises(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(SerializationError):
            load_task(p)


class TestCurveRoundtrip:
    @pytest.mark.parametrize(
        "curve", [rate_latency(F(1, 2), 4), staircase(2, 5, 20)]
    )
    def test_roundtrip(self, curve):
        assert curve_from_dict(curve_to_dict(curve)) == curve

    def test_missing_key(self):
        with pytest.raises(SerializationError):
            curve_from_dict({"segments": [{"start": "0", "value": "1"}]})


def _parsed(parse, s):
    """*parse(s)*, or :class:`SerializationError` when it is refused."""
    try:
        return parse(s)
    except SerializationError:
        return SerializationError


def _fraction_of_str(s):
    try:
        return F(str(s))
    except (ValueError, ZeroDivisionError):
        raise SerializationError(f"invalid rational {s!r}") from None


_digits = st.integers(min_value=0, max_value=10**40).map(str)
_OFF_GRAMMAR = [
    "007", "00/5", "3/007", "+3", "-1/2", "1/-2", " 3", "3 ", "1 /2",
    "1.5", "1e3", "1E-2", "1/0", "0/0", "7/000", "\u0661\u0662", "\uff13",
    "\u00b2", "1_000", "", "/", "1/", "/2", "1/2/3", "abc", "nan", "inf",
]


class TestRationalFastPath:
    """``_q_in`` parses ``"n"`` and ``"n/d"`` from ``int`` directly;
    every input must read as ``Fraction(str(s))`` does, or be refused
    as it is."""

    @oracle_settings()
    @given(
        s=st.one_of(
            _digits,
            st.tuples(_digits, _digits).map("/".join),
            st.sampled_from(_OFF_GRAMMAR),
            st.text(alphabet="0123456789/+-. e_\u0661\uff13\u00b2", max_size=8),
            st.integers(),
            st.floats(),
            st.booleans(),
            st.none(),
            st.fractions(),
            st.lists(st.integers(), max_size=2),
        )
    )
    def test_q_in_matches_fraction_of_str(self, s):
        got = _parsed(_q_in, s)
        assert got == _parsed(_fraction_of_str, s)
        assert got is SerializationError or type(got) is F

    def test_refusal_names_the_field(self):
        with pytest.raises(SerializationError, match="for beta.rate"):
            _q_in("1/0", "beta.rate")


class TestLoaderValidation:
    """Loaders fail fast on semantically malformed tasks."""

    def _isolated(self):
        # "lonely" has no edges at all: structurally isolated.
        return {
            "name": "bad",
            "jobs": {
                "a": {"wcet": "1", "deadline": "5"},
                "lonely": {"wcet": "1", "deadline": "5"},
            },
            "edges": [{"src": "a", "dst": "a", "separation": "5"}],
        }

    def test_from_dict_validates_by_default(self):
        with pytest.raises(ValidationError, match="lonely"):
            task_from_dict(self._isolated())

    def test_from_dict_opt_out(self):
        task = task_from_dict(self._isolated(), validate=False)
        assert "lonely" in task.jobs

    def test_load_task_validates(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(self._isolated()))
        with pytest.raises(ValidationError, match="lonely"):
            load_task(p)
        assert load_task(p, validate=False).name == "bad"


class TestDot:
    def test_contains_jobs_and_edges(self, demo_task):
        dot = task_to_dot(demo_task)
        assert dot.startswith('digraph "demo"')
        for name in demo_task.job_names:
            assert f'"{name}"' in dot
        assert '"a" -> "b"' in dot
        assert "label=\"10\"" in dot

    def test_round_trip(self, demo_task):
        back = task_from_dot(task_to_dot(demo_task))
        assert back.name == demo_task.name
        assert back.jobs == demo_task.jobs
        assert {(e.src, e.dst, e.separation) for e in back.edges} == {
            (e.src, e.dst, e.separation) for e in demo_task.edges
        }

    def test_rationals_round_trip_exactly(self):
        t = DRTTask.build(
            "q", jobs={"a": (F(1, 3), F(7, 2))}, edges=[("a", "a", F(22, 7))]
        )
        back = task_from_dot(task_to_dot(t))
        assert back.wcet("a") == F(1, 3)
        assert back.edges[0].separation == F(22, 7)

    def test_file_round_trip(self, demo_task, tmp_path):
        p = tmp_path / "task.dot"
        p.write_text(task_to_dot(demo_task))
        assert load_task_dot(p).jobs == demo_task.jobs

    def test_parse_error_names_the_line(self):
        source = 'digraph "x" {\n  what is this\n}'
        with pytest.raises(SerializationError, match="line 2"):
            task_from_dot(source)

    def test_bad_rational_names_the_job(self):
        source = 'digraph "x" {\n  "a" [label="a\\n<zz, 5>"];\n}'
        with pytest.raises(SerializationError, match="job 'a'|line 2"):
            task_from_dot(source)

    def test_unclosed_block_raises(self):
        with pytest.raises(SerializationError, match="closed"):
            task_from_dot('digraph "x" {')

    def test_import_validates_by_default(self):
        source = (
            'digraph "x" {\n'
            '  "a" [label="a\\n<1, 5>"];\n'
            '  "lonely" [label="lonely\\n<1, 5>"];\n'
            '  "a" -> "a" [label="5"];\n'
            "}"
        )
        with pytest.raises(ValidationError, match="lonely"):
            task_from_dot(source)
        task = task_from_dot(source, validate=False)
        assert "lonely" in task.jobs

    def test_load_missing_dot_raises(self, tmp_path):
        with pytest.raises(SerializationError):
            load_task_dot(tmp_path / "absent.dot")

    def test_save_load_round_trip(self, demo_task, tmp_path):
        p = tmp_path / "exported.dot"
        save_task_dot(demo_task, p)
        back = load_task_dot(p)
        assert back.name == demo_task.name
        assert back.jobs == demo_task.jobs
        assert {(e.src, e.dst, e.separation) for e in back.edges} == {
            (e.src, e.dst, e.separation) for e in demo_task.edges
        }

    def test_save_rationals_survive_file_round_trip(self, tmp_path):
        t = DRTTask.build(
            "q", jobs={"a": (F(1, 3), F(7, 2))}, edges=[("a", "a", F(22, 7))]
        )
        p = tmp_path / "q.dot"
        save_task_dot(t, p)
        back = load_task_dot(p)
        assert back.wcet("a") == F(1, 3)
        assert back.edges[0].separation == F(22, 7)

    def test_save_ends_with_newline(self, demo_task, tmp_path):
        p = tmp_path / "nl.dot"
        save_task_dot(demo_task, p)
        assert p.read_text().endswith("}\n")

    def test_save_unwritable_path_raises(self, demo_task, tmp_path):
        with pytest.raises(SerializationError, match="cannot write"):
            save_task_dot(demo_task, tmp_path / "no" / "such" / "dir.dot")
