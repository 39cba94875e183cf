"""The benchmark harness keeps committed tables out of smoke runs."""

import importlib.util
import os

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
_spec = importlib.util.spec_from_file_location(
    "bench_harness", os.path.join(ROOT, "benchmarks", "_harness.py")
)
harness = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(harness)


def _report():
    return harness.report("smoke_probe", "probe", ["a", "b"], [[1, 2]])


def test_smoke_report_writes_no_table(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")
    text = _report()
    assert "== smoke_probe: probe ==" in text
    assert not (tmp_path / "smoke_probe.txt").exists()


def test_full_report_writes_its_table(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_BENCH_SMOKE", raising=False)
    text = _report()
    assert (tmp_path / "smoke_probe.txt").read_text() == text
