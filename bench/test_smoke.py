"""Smoke test of the benchmark harness at a tiny size.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(run.DEFINITION, encoding="utf-8") as _handle:
    DEFINITION = json.load(_handle)
PRINTED_ONLY = run.PRINTED_ONLY_UNITS
NUMBER = r"-?[0-9.]+(?:e[-+]?[0-9]+)?"


def _tiny(generator):
    """The generator cut to its three cheapest problems plus the known-defect ones."""
    def cost(p: workloads.Problem) -> int:
        return p.copies or p.d * len(p.spectrum) * max(p.trials, 1)

    def generate(rng):
        problems = generator(rng)
        keep = sorted(problems, key=cost)[:3]
        keep += [p for p in problems if p.kind == "infeasible-margin" or p.copies == 9100]
        return [p for p in problems if p in keep]
    return generate


def _run(capsys, monkeypatch, workload: str, trace: int) -> tuple[str, dict]:
    monkeypatch.setitem(workloads.WORKLOADS, workload, _tiny(workloads.WORKLOADS[workload]))
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def _assert_printed(out: str, prefix: str, name: str, unit: str) -> None:
    pattern = rf"^{prefix} {re.escape(name)} = {NUMBER} {re.escape(unit)}(\s|$)"
    assert re.search(pattern, out, re.MULTILINE), f"{prefix} {name} [{unit}] not printed"


def test_every_metric_printed_with_its_unit(capsys, monkeypatch):
    out, result = _run(capsys, monkeypatch, "roundtrip", trace=1)
    end_to_end = {e["name"]: e["unit"] for e in DEFINITION["end_to_end"]}
    for name, unit in {**end_to_end, **PRINTED_ONLY}.items():
        _assert_printed(out, "metric", name, unit)
    for entry in DEFINITION["per_layer"]:
        _assert_printed(out, "layer", entry["name"], entry["unit"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["metrics"] == {
        e["name"]: {"value": result["metrics"][e["name"]]["value"], "unit": e["unit"]}
        for e in DEFINITION["per_layer"]
    }
    assert "count drift" not in out
    env = json.loads(re.search(r"^env (\{.*\})$", out, re.MULTILINE).group(1))
    assert {"python", "numpy", "scipy", "blas", "nproc", "seed"} <= set(env)
    assert env["blas_threads"] <= env["nproc"]


def test_known_defect_is_counted_and_listed(capsys, monkeypatch):
    out, result = _run(capsys, monkeypatch, "solve", trace=0)
    assert result["correct"] is True
    assert result["failed"] > 0
    assert set(result["metrics"]) == {e["name"] for e in DEFINITION["end_to_end"]}
    assert re.search(r"^failure \[known\] solve-\d+ synthesize: known defect", out, re.MULTILINE)
    assert "UNEXPECTED" not in out


def test_oracle_catches_tampered_table(tmp_path):
    problems = workloads.generate("roundtrip", 5, str(tmp_path))
    problem = min((p for p in problems if p.trials), key=lambda p: p.d * len(p.spectrum))
    argv = workloads.cli_calls("roundtrip", problem, str(tmp_path))[0]
    latency, (outcome,) = run.run_problem(problem, [argv])
    assert outcome.exit_code == 0
    assert oracle.check_call(problem, outcome) == []

    doc = json.loads(outcome.report)
    tampered = copy.deepcopy(doc)
    entry = tampered["table"]["V"][0][0][0]
    entry[0], entry[1] = entry[1], entry[0]  # swap re/im of one coefficient
    bad = oracle.Outcome("simulate", 0, "", "", json.dumps(tampered))
    reasons = [f.reason for f in oracle.check_call(problem, bad)]
    assert any(r.startswith("recomputed") for r in reasons), reasons
    assert not any(f.known for f in oracle.check_call(problem, bad))


def test_predictions_name_defined_metrics():
    with open(os.path.join(BENCH, "predictions.json"), encoding="utf-8") as handle:
        predictions = json.load(handle)["predictions"]
    layers = {e["name"] for e in DEFINITION["per_layer"]}
    end_to_end = {e["name"] for e in DEFINITION["end_to_end"]} | set(PRINTED_ONLY) | {"*"}
    names = {w["name"] for w in DEFINITION["workloads"]}
    assert names == set(workloads.WORKLOADS)
    for entry in predictions:
        assert set(entry["layers"]) <= layers, entry["layers"]
        for metric, workload in entry["moves"] + entry["flat"]:
            assert metric in end_to_end and workload in names, (metric, workload)
