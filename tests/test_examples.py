"""What the repository shows a reader runs: each demo script exits 0, each
README python block executes, and bench/tracing.py's Tracer resolves every
name it patches and counts a traced simulate and verify as the benchmark does."""

import importlib.util
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import qteleport
from qteleport import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(
    r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.S | re.M
)


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo, tmp_path):
    # a fresh interpreter that imports the package these tests import
    src = os.path.dirname(os.path.dirname(os.path.abspath(qteleport.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr


def test_readme_has_python_blocks():
    assert README_BLOCKS, "README.md has no python block"


@pytest.mark.parametrize("number", range(1, len(README_BLOCKS) + 1))
def test_readme_python_block_runs(number, capsys):
    name = f"README.md python block {number}"
    exec(compile(README_BLOCKS[number - 1], name, "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


def test_bench_tracer_patches_and_counts(tmp_path, capsys, monkeypatch):
    # installing fails on a patched name that does not resolve.  A traced simulate
    # and verify of (1/2, 1/3, 1/6) at d = 2 run one run_protocol each, whose 6
    # branches the tracer reads as post_state and corrected_state, 2 * 18 complex
    # entries each: 12 branches and 12 * 576 = 6912 bytes
    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look it up there
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    problem, report = tmp_path / "problem.json", tmp_path / "report.json"
    problem.write_text(json.dumps({"d": 2, "spectrum": ["1/2", "1/3", "1/6"], "trials": 3}),
                       encoding="utf-8")
    original = cli.run_protocol
    tracer.install()
    try:
        codes = [tracer.call_cli("golden", ["simulate", str(problem), "--out", str(report)]),
                 tracer.call_cli("golden", ["verify", str(report)])]
    finally:
        tracer.uninstall()
    assert cli.run_protocol is original
    assert codes == [0, 0]
    metrics = tracer.layer_metrics()
    counts = {key: metrics[key] for key in ("sim.run_protocol.calls", "sim.branches",
                                            "sim.trace_bytes_computed")}
    assert counts == {"sim.run_protocol.calls": 2, "sim.branches": 12, "sim.trace_bytes_computed": 6912}
