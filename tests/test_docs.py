"""Documentation integrity: the README quickstart must actually run,
every experiment file referenced in the docs must exist, and every
environment variable the package reads is a documented, known knob."""

import ast
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(name):
    with open(os.path.join(ROOT, name)) as fh:
        return fh.read()


class TestReadme:
    def test_quickstart_block_executes(self, tmp_path):
        readme = _read("README.md")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert blocks, "README must contain a python quickstart block"
        script = tmp_path / "quickstart_readme.py"
        script.write_text(blocks[0])
        proc = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr

    def test_experiment_files_exist(self):
        readme = _read("README.md")
        for name in re.findall(r"`(bench_\w+)`", readme):
            path = os.path.join(ROOT, "benchmarks", f"{name}.py")
            assert os.path.exists(path), name

    def test_example_files_exist(self):
        readme = _read("README.md")
        for name in re.findall(r"`(\w+\.py)`", readme):
            if name.startswith(("bench_", "test_")):
                continue
            path = os.path.join(ROOT, "examples", name)
            assert os.path.exists(path), name


class TestDesignDoc:
    def test_mismatch_notice_present(self):
        design = _read("DESIGN.md")
        assert "Source-text mismatch notice" in design

    def test_bench_targets_exist(self):
        design = _read("DESIGN.md")
        for rel in re.findall(r"`benchmarks/(bench_\w+\.py)`", design):
            assert os.path.exists(os.path.join(ROOT, "benchmarks", rel)), rel

    def test_modules_mentioned_exist(self):
        design = _read("DESIGN.md")
        for mod in set(re.findall(r"`(repro(?:\.\w+)+)`", design)):
            parts = mod.split(".")
            # A reference may include a trailing attribute; some prefix of
            # it must resolve to a real module or package.
            ok = False
            for cut in range(len(parts), 0, -1):
                path = os.path.join(ROOT, "src", *parts[:cut])
                if os.path.exists(path + ".py") or os.path.isdir(path):
                    ok = True
                    break
            assert ok, mod


class TestExperimentsDoc:
    def test_every_benchmark_has_a_section(self):
        experiments = _read("EXPERIMENTS.md")
        bench_dir = os.path.join(ROOT, "benchmarks")
        for fname in sorted(os.listdir(bench_dir)):
            if fname.startswith("bench_") and fname.endswith(".py"):
                assert fname in experiments, f"{fname} undocumented"


class TestApiReference:
    def test_api_doc_is_current(self):
        sys.path.insert(0, os.path.join(ROOT, "tools"))
        import gen_api_docs

        assert gen_api_docs.render() == _read(os.path.join("docs", "API.md"))

    def test_api_doc_mentions_core_entry_points(self):
        api = _read(os.path.join("docs", "API.md"))
        for item in ["structural_delay", "rbf_curve", "min_plus_conv",
                     "StructuralAnalysis", "edf_structural_delays"]:
            assert item in api, item


#: Every ``REPRO_*`` environment variable the package reads.  A new knob
#: is a new way to change behaviour: add it here and document it in
#: ``tools/gen_api_docs.py``.
ENV_KNOBS = {
    "REPRO_JOBS",
    "REPRO_CACHE_DIR",
    "REPRO_CACHE_MAX_BYTES",
    "REPRO_CHAOS",
    "REPRO_CHAOS_HANG_S",
}


def _is_environ(node):
    return isinstance(node, ast.Attribute) and node.attr == "environ"


def _env_reads(tree):
    """Names of the ``REPRO_*`` variables read by ``os.environ.get``,
    ``os.environ[...]`` or ``os.getenv`` in one module."""
    for node in ast.walk(tree):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and (
                    (func.attr == "get" and _is_environ(func.value))
                    or func.attr == "getenv"
                )
            ):
                key = node.args[0]
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            key = node.slice
        if isinstance(key, ast.Constant) and str(key.value).startswith(
            "REPRO_"
        ):
            yield key.value


class TestEnvKnobs:
    def test_env_reads_are_exactly_the_known_knobs(self):
        found = {}
        src = os.path.join(ROOT, "src")
        for dirpath, _, files in os.walk(src):
            for fname in files:
                if fname.endswith(".py"):
                    path = os.path.join(dirpath, fname)
                    with open(path) as fh:
                        tree = ast.parse(fh.read(), path)
                    for name in _env_reads(tree):
                        found.setdefault(name, os.path.relpath(path, ROOT))
        # On failure: each unknown knob with the file reading it, and
        # each known knob that nothing reads any more (None).
        assert set(found) == ENV_KNOBS, {
            name: found.get(name) for name in set(found) ^ ENV_KNOBS
        }

    def test_every_knob_is_documented(self):
        api = _read(os.path.join("docs", "API.md"))
        for name in sorted(ENV_KNOBS):
            assert f"`{name}" in api, name
