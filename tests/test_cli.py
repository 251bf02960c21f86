import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qteleport
from qteleport import cli, protocol, reportio
from qteleport.cli import main
from qteleport.errors import PhaseFactorsNotFound

GOLDEN_PROBLEM = {"d": 2, "spectrum": ["1/2", "1/3", "1/6"], "seed": 11, "trials": 20}

JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)
OUTSIDE_STRINGS_WHITESPACE = re.compile(r'("(?:[^"\\]|\\.)*")|\s+')


def without_whitespace(text):
    """JSON text with all whitespace outside string literals removed."""
    return OUTSIDE_STRINGS_WHITESPACE.sub(lambda m: m.group(1) or "", text)


def write_problem(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


class TestBounds:
    def test_worked_example(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["bounds", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["bounds"]["Et"]["bits"] == 1.0
        assert doc["bounds"]["Et"]["exact"] == [1, 1, 2, 1]
        assert doc["bounds"]["teleportFeasible"] is True
        assert abs(doc["bounds"]["cccLowerBound"]["bits"] - math.log2(6)) < 1e-15

    def test_infeasible_spectrum_reported_not_failed(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 2, "spectrum": [0.6, 0.4]})
        assert run(["bounds", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["bounds"]["teleportFeasible"] is False

    def test_malformed_file_names_field(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 2, "spectrum": [0.5, "oops"]})
        assert run(["bounds", path]) == 2
        assert "spectrum" in capsys.readouterr().err

    def test_missing_field(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"spectrum": [0.5, 0.5]})
        assert run(["bounds", path]) == 2
        assert "'d'" in capsys.readouterr().err

    def test_not_json(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text("plainly not json", encoding="utf-8")
        assert run(["bounds", str(path)]) == 2

    def test_bad_sum_is_invariant_violation(self, tmp_path):
        path = write_problem(tmp_path, {"d": 2, "spectrum": [0.7, 0.4]})
        assert run(["bounds", path]) == 3

    def test_negative_entry(self, tmp_path):
        path = write_problem(tmp_path, {"d": 2, "spectrum": [1.2, -0.2]})
        assert run(["bounds", path]) == 3

    def test_nan_token_is_parse_failure(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 2, "spectrum": [float("nan"), 0.5]})
        assert run(["bounds", path]) == 2
        assert "NaN" in capsys.readouterr().err

    def test_overflowing_entry_is_invariant_violation(self, tmp_path, capsys):
        path = tmp_path / "problem.json"
        path.write_text('{"d": 2, "spectrum": [1e400, 0.5]}', encoding="utf-8")
        assert run(["bounds", str(path)]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "synthesize", "simulate"])
    @pytest.mark.parametrize("field,text", [
        ("note", '1e400'),
        ("meta", '{"notes": [1, -1e400]}'),
    ])
    def test_overflowing_unread_field_is_parse_failure(self, tmp_path, capsys, command, field, text):
        # the problem document is echoed into the report, where an overflowed
        # literal cannot be written; the read fields keep their own exit codes
        path = tmp_path / "problem.json"
        path.write_text(f'{{"d": 2, "spectrum": ["1/2", "1/2"], "{field}": {text}}}', encoding="utf-8")
        assert run([command, str(path)]) == 2
        assert repr(field) in capsys.readouterr().err


class TestSynthesize:
    def test_worked_example(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["synthesize", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["table"]["s"] == 6
        assert doc["table"]["orthonormalityResidual"] < 1e-10
        assert doc["table"]["unitarityResidual"] < 1e-10
        assert doc["phases"]["theta"][1] == [0.0, pytest.approx(math.pi), pytest.approx(math.pi)]
        assert doc["table"]["V"] is not None

    def test_infeasible_exits_4(self, tmp_path):
        path = write_problem(tmp_path, {"d": 3, "spectrum": ["1/2", "1/3", "1/6"]})
        assert run(["synthesize", path]) == 4

    def test_exact_spectrum_just_above_half_exits_4(self, tmp_path):
        excess = 10**14
        spectrum = [f"{excess // 2 + 1}/{excess}", f"{excess // 2 - 1}/{excess}"]
        path = write_problem(tmp_path, {"d": 2, "spectrum": spectrum})
        assert run(["synthesize", path]) == 4

    def test_nan_token_is_parse_failure(self, tmp_path):
        # a NaN entry must not reach the feasibility gate, which reads it as infeasible
        path = write_problem(tmp_path, {"d": 2, "spectrum": [float("nan"), 0.5]})
        assert run(["synthesize", path]) == 2

    def test_phase_failure_exits_5(self, tmp_path, capsys):
        path = write_problem(
            tmp_path, {"d": 3, "spectrum": ["1/3", "3/10", "4/15", "1/10"]}
        )
        assert run(["synthesize", path]) == 5
        assert "best residual" in capsys.readouterr().err

    def test_phase_failure_says_proved_or_exhausted(self, tmp_path, capsys, monkeypatch):
        path = write_problem(tmp_path, {"d": 3, "spectrum": ["1/3", "3/10", "4/15", "1/10"]})
        assert run(["synthesize", path]) == 5
        assert "(proved none exist; best residual inf)" in capsys.readouterr().err

        def exhausted(*args, **kwargs):
            raise PhaseFactorsNotFound("no phase factors found", best_residual=0.01)

        monkeypatch.setattr(protocol, "solve_general", exhausted)
        assert run(["synthesize", path]) == 5
        assert "(search exhausted; best residual 1.000000e-02)" in capsys.readouterr().err

    def test_method_general(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["synthesize", path, "--method", "general"]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["table"]["construction"] == "GeneralFormula"
        assert doc["table"]["orthonormalityResidual"] < 1e-10

    def test_method_d2_needs_qubit(self, tmp_path):
        path = write_problem(tmp_path, {"d": 3, "spectrum": ["1/3", "1/3", "1/3"]})
        assert run(["synthesize", path, "--method", "d2"]) == 2

    def test_out_flag_writes_file(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["synthesize", path, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.exists()
        reportio.loads(out.read_text(encoding="utf-8"))


class TestSimulate:
    def test_worked_example(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["simulate", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        sim = doc["simulation"]
        assert sim["classicalBits"] == pytest.approx(math.log2(6), abs=0)
        assert sim["minFidelity"] >= 1 - 1e-10
        assert sim["outcomeProbabilities"] == [pytest.approx(1 / 6, abs=1e-10)] * 6
        assert sim["residualSchmidtNumbers"] == [1] * 6

    def test_deterministic_bytes(self, tmp_path):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["simulate", path, "--out", str(out1)]) == 0
        assert run(["simulate", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flags_override_problem(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["simulate", path, "--trials", "5", "--seed", "99"]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["simulation"]["trials"] == 5
        assert doc["simulation"]["seed"] == 99

    def test_negative_seed_in_problem_is_invariant_violation(self, tmp_path, capsys):
        # numpy's default_rng raised an uncaught ValueError on a negative seed
        path = write_problem(tmp_path, dict(GOLDEN_PROBLEM, seed=-1))
        assert run(["simulate", path]) == 3
        assert "field 'seed'" in capsys.readouterr().err

    def test_negative_seed_flag_is_invariant_violation(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["simulate", path, "--seed", "-5"]) == 3
        assert "--seed" in capsys.readouterr().err

    def test_input_state_reference(self, tmp_path, capsys):
        problem = dict(GOLDEN_PROBLEM)
        problem["inputState"] = [[0.6, 0.0], [0.0, 0.8]]
        path = write_problem(tmp_path, problem)
        assert run(["simulate", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["simulation"]["minFidelity"] >= 1 - 1e-10

    def test_unnormalized_input_state(self, tmp_path):
        problem = dict(GOLDEN_PROBLEM)
        problem["inputState"] = [[1.0, 0.0], [1.0, 0.0]]
        path = write_problem(tmp_path, problem)
        assert run(["simulate", path]) == 3

    def test_nan_input_state_is_parse_failure(self, tmp_path):
        problem = dict(GOLDEN_PROBLEM)
        problem["inputState"] = [[float("nan"), 0.0], [1.0, 0.0]]
        path = write_problem(tmp_path, problem)
        assert run(["simulate", path]) == 2

    def test_overflowing_input_state_is_invariant_violation(self, tmp_path):
        # an amplitude of 1e400 parses to inf, whose norm is NaN
        path = tmp_path / "problem.json"
        path.write_text(
            '{"d": 2, "spectrum": ["1/2", "1/2"], "inputState": [[1e400, 0], [1, 0]]}',
            encoding="utf-8",
        )
        assert run(["simulate", str(path)]) == 3

    def test_round_trip_parse_serialize(self, tmp_path):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        doc = reportio.loads(text)
        assert reportio.dumps(doc) == text

    def test_uniform_pair_hundred_trials(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 2, "spectrum": ["1/2", "1/2"]})
        assert run(["simulate", path, "--trials", "100", "--seed", "3"]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        sim = doc["simulation"]
        assert sim["minFidelity"] >= 1 - 1e-10
        assert sim["outcomeProbabilities"] == [pytest.approx(0.25, abs=1e-10)] * 4


class TestTableElision:
    def test_large_table_summarized_unless_requested(self, tmp_path, capsys):
        # d = 2, n = 33 gives s = 66 > 64 outcomes
        problem = {"d": 2, "spectrum": [f"1/{33}"] * 33}
        path = write_problem(tmp_path, problem)
        assert run(["synthesize", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["table"]["s"] == 66
        assert doc["table"]["V"] is None
        assert doc["table"]["orthonormalityResidual"] < 1e-10

        assert run(["synthesize", path, "--emit-table"]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["table"]["V"] is not None
        assert len(doc["table"]["V"]) == 66


    ELIDED_CASES = [  # s = 66 > 64 outcomes
        ({"d": 2, "spectrum": ["1/33"] * 33, "trials": 4}, "simulate", "D2Formula"),
        ({"d": 3, "spectrum": ["1/22"] * 22}, "synthesize", "GeneralFormula"),
    ]

    @pytest.mark.parametrize("problem,command,construction", ELIDED_CASES)
    def test_elided_reports_reverify_from_theta(self, tmp_path, problem, command, construction):
        path = write_problem(tmp_path, problem)
        out = tmp_path / "report.json"
        assert run([command, path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        assert doc["table"]["V"] is None
        assert doc["table"]["construction"] == construction
        assert run(["verify", str(out)]) == 0

        full = tmp_path / "full.json"
        assert run([command, path, "--emit-table", "--out", str(full)]) == 0
        emitted = np.array(reportio.loads(full.read_text(encoding="utf-8"))["table"]["V"])
        spectrum = cli.parse_problem_doc(doc["problem"]).spectrum
        rebuilt = cli._table_from_phases(doc, spectrum, doc["table"]["d"])
        np.testing.assert_array_equal(rebuilt.V, emitted[..., 0] + 1j * emitted[..., 1])

    def elided_report(self, tmp_path):
        path = write_problem(tmp_path, self.ELIDED_CASES[0][0])
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        return out, reportio.loads(out.read_text(encoding="utf-8"))

    def test_tampered_theta_fails_verification(self, tmp_path, capsys):
        out, doc = self.elided_report(tmp_path)
        doc["phases"]["theta"][1][0] = (doc["phases"]["theta"][1][0] + 0.5) % (2 * math.pi)
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "violated" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["phases"].update(theta=doc["phases"]["theta"][:1]),
        lambda doc: doc["phases"]["theta"][0].__setitem__(0, "0.1"),
        lambda doc: doc["phases"]["theta"][0].__setitem__(0, True),
        lambda doc: doc["phases"]["theta"][0].__setitem__(0, 7.0),
        lambda doc: doc["table"].update(construction="Explicit"),
        lambda doc: doc.update(phases=None),
    ], ids=["short", "string", "boolean", "out-of-range", "explicit", "no-phases"])
    def test_unusable_phases_are_parse_failures(self, tmp_path, capsys, edit):
        out, doc = self.elided_report(tmp_path)
        edit(doc)
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def emit_report(self, tmp_path):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        return out

    def test_fresh_report_verifies(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        assert run(["verify", str(out)]) == 0

    def test_synthesize_report_verifies(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "synth.json"
        assert run(["synthesize", path, "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0

    def test_negative_simulation_seed_is_parse_failure(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["simulation"]["seed"] = -2
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "unusable 'seed'" in capsys.readouterr().err

    def test_negative_problem_seed_is_invariant_violation(self, tmp_path, capsys):
        # a synthesize report has no simulation section, so verify would
        # re-simulate with the echoed problem's seed
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "synth.json"
        assert run(["synthesize", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["problem"]["seed"] = -2
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 3
        assert "field 'seed'" in capsys.readouterr().err

    def test_perturbed_entry_fails_orthonormality(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"][0][0][0][0] += 1e-3
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "orthonormality" in capsys.readouterr().err

    def test_edited_spectrum_fails_unitarity(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["problem"]["spectrum"] = [0.4, 0.35, 0.25]
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "unitarity" in capsys.readouterr().err

    def test_slightly_scaled_outcome_is_reported_not_raised(self, tmp_path, capsys):
        # |M_1| = 1 + 5e-10 once broke the normalization check of the
        # corrected state inside the simulation instead of failing verification
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"][0] = [
            [[re * (1 + 5e-10), im * (1 + 5e-10)] for re, im in row] for row in doc["table"]["V"][0]
        ]
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "violated: orthonormality" in capsys.readouterr().err

    def test_overflowing_entry_is_parse_failure(self, tmp_path, capsys):
        # a 1e400 entry parses to inf, whose NaN residuals compare as within tolerance
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"][0][0][0][0] = 12345.5
        out.write_text(reportio.dumps(doc).replace("12345.5", "1e400"), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "token", ["true", "1e400", "1" + "0" * 400, "0", "-1e-10"],
        ids=["boolean", "non-finite", "integer-past-double", "zero", "negative"],
    )
    def test_recorded_tolerance_cannot_loosen_the_checks(self, tmp_path, capsys, token):
        # true reads as 1.0 and 1e400 as inf, which would pass this tampered
        # table; a 400-digit integer cannot be converted to a float at all
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"][0][0] = [[re * (1 + 3e-9), im * (1 + 3e-9)] for re, im in doc["table"]["V"][0][0]]
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        doc["tolerances"] = {key: 12345.5 for key in doc["tolerances"]}
        out.write_text(reportio.dumps(doc).replace("12345.5", token), encoding="utf-8")
        capsys.readouterr()
        assert run(["verify", str(out)]) == 2
        assert "positive finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["1.0", None, True, "all-boolean"])
    def test_non_numeric_entry_is_parse_failure(self, tmp_path, capsys, entry):
        # np.asarray(V, dtype=float) would turn the string "1.0" into a number,
        # and np.asarray(V) reads a boolean among floats as 1.0
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        if entry == "all-boolean":
            doc["table"]["V"] = [
                [[[re > 0, im > 0] for re, im in row] for row in block]
                for block in doc["table"]["V"]
            ]
        else:
            doc["table"]["V"][0][0][0][0] = entry
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "pairs of numbers" in capsys.readouterr().err

    def test_simulate_and_verify_build_no_full_unitaries(self, tmp_path, monkeypatch):
        def refuse(*args):
            raise AssertionError("full correction unitaries built")

        monkeypatch.setattr(protocol, "bob_unitaries", refuse)
        monkeypatch.setattr(cli, "bob_unitaries", refuse)
        out = self.emit_report(tmp_path)
        assert run(["verify", str(out)]) == 0

    def test_ragged_table_is_parse_failure(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"][0][0].pop()
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_elided_table_is_parse_failure(self, tmp_path, capsys):
        # with no phases to rebuild it from, a null table cannot be checked
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"] = None
        del doc["phases"]
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "table" in capsys.readouterr().err


class TestConcentrate:
    def test_uniform_budget(self, capsys):
        assert run(["concentrate", "--spectrum", "1/2,1/2", "--copies", "3", "--bells", "3"]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["concentration"]["feasible"] is True
        assert doc["concentration"]["C1LowerBound"]["bits"] == 0.0

    def test_worked_example(self, capsys):
        assert run(
            ["concentrate", "--spectrum", "1/2,1/3,1/6", "--copies", "4", "--bells", "4"]
        ) == 0
        doc = reportio.loads(capsys.readouterr().out)
        conc = doc["concentration"]
        assert conc["feasible"] is True
        assert abs(conc["C1LowerBound"]["bits"] - (4 * math.log2(3) - 4)) < 1e-12
        assert conc["C1LowerBound"]["exact"] == [1, 1, 81, 16]
        assert conc["C2"]["bits"] == 8.0

    def test_over_budget_is_infeasible(self, capsys):
        assert run(
            ["concentrate", "--spectrum", "1/2,1/3,1/6", "--copies", "4", "--bells", "5"]
        ) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["concentration"]["feasible"] is False
        assert doc["concentration"]["mMax"] == 4

    def test_bad_spectrum_entry(self, capsys):
        assert run(["concentrate", "--spectrum", "1/2,zzz", "--copies", "1", "--bells", "0"]) == 2

    def test_bad_copies(self, capsys):
        assert run(["concentrate", "--spectrum", "1/2,1/2", "--copies", "0", "--bells", "0"]) == 3

    def test_non_finite_entry_is_invariant_violation(self, capsys):
        for spectrum in ("nan,0.5", "inf,0.5"):
            assert run(["concentrate", "--spectrum", spectrum, "--copies", "2", "--bells", "1"]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spectrum, copies, bells", [
        ("1/2,1/2", 20000, 10),
        ("1/2,1/3,1/6", 9100, 3000),
    ])
    def test_exact_form_beyond_digit_limit_is_null(self, capsys, spectrum, copies, bells):
        # the exact C1 integers exceed Python's int-to-str digit limit
        assert run(
            ["concentrate", "--spectrum", spectrum, "--copies", str(copies), "--bells", str(bells)]
        ) == 0
        conc = reportio.loads(capsys.readouterr().out)["concentration"]
        assert conc["C1LowerBound"]["exact"] is None
        assert math.isfinite(conc["C1LowerBound"]["bits"])
        assert conc["mMax"] == (2**copies).bit_length() - 1  # p_max = 1/2


class TestReportEncoding:
    @pytest.mark.parametrize("value", [0.1, 1 / 3, 5e-324, 1e16, -0.0])
    def test_floats_round_trip_bit_exactly(self, value):
        back = reportio.loads(reportio.dumps({"x": value}))["x"]
        assert float.hex(back) == float.hex(value)

    def test_sorted_keys_and_trailing_newline(self):
        text = reportio.dumps({"b": 1, "a": [], "c": {}})
        assert text == '{\n  "a": [],\n  "b": 1,\n  "c": {}\n}\n'

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_raises_value_error(self, value):
        with pytest.raises(ValueError):
            reportio.dumps({"x": [value]})

    @pytest.mark.parametrize("value", [1j, np.int64(3)])
    def test_unsupported_type_raises_type_error(self, value):
        with pytest.raises(TypeError):
            reportio.dumps({"x": value})

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_loads_rejects_non_finite_tokens(self, token):
        with pytest.raises(ValueError):
            reportio.loads(f'{{"x": {token}}}')

    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS)
    def test_round_trip_and_tokens_match_stdlib(self, doc):
        text = reportio.dumps(doc)
        assert reportio.loads(text) == doc
        assert without_whitespace(text) == without_whitespace(
            json.dumps(doc, indent=2, sort_keys=True)
        )

    def test_numeric_rows_sit_on_one_line(self, tmp_path):
        d, n = 2, 32
        s = d * n
        path = write_problem(tmp_path, {"d": d, "spectrum": ["1/32"] * n, "trials": 2})
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--emit-table", "--out", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        first = lines.index('    "V": [')
        last = lines.index("    ],", first)
        rows = [line for line in lines[first:last + 1] if line.lstrip().startswith("[[")]
        # one line per (j, m) row of n [re, im] pairs, plus the brackets of V and its s entries
        assert len(rows) == s * d
        assert last - first + 1 == s * (d + 2) + 2
        assert len(lines) < s * (d + 2) + 100
        assert len(reportio.loads(out.read_text(encoding="utf-8"))["table"]["V"]) == s

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_float_inside_a_row_raises_value_error(self, value):
        with pytest.raises(ValueError):
            reportio.dumps({"x": [[1.0, value]]})


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        argv = ["simulate", path, "--trials", "3"]
        first = cli.build_parser().parse_args(argv)
        assert run(["bounds", path]) == 0
        assert vars(cli.build_parser().parse_args(argv)) == vars(first)

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0


COLD_START = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qteleport.cli import main

def problem(name, doc):
    with open(name, "w") as handle:
        json.dump(doc, handle)
    return name

readme = problem("readme.json", {"d": 2, "spectrum": ["1/2", "1/3", "1/6"], "seed": 7, "trials": 20})
codes = [
    main(["bounds", readme, "--out", "bounds.json"]),
    main(["concentrate", "--spectrum", "1/2,1/2", "--copies", "3", "--bells", "3", "--out", "c.json"]),
    main(["synthesize", problem("partition.json", {"d": 3, "spectrum": ["1/3"] + ["1/6"] * 4}),
          "--out", "partition-report.json"]),
    main(["synthesize", problem("proved.json", {"d": 3, "spectrum": [0.333, 0.3, 0.2, 0.167]})]),
    main(["simulate", readme, "--out", "report.json"]),
    main(["verify", "report.json"]),
]
search = main(["synthesize", problem("search.json", {"d": 3, "spectrum": [0.3, 0.25, 0.2, 0.15, 0.1]}),
               "--out", "search-report.json"])
print(json.dumps({"codes": codes, "search": search,
                  "scipy": sorted(name for name in sys.modules if name.split(".")[0] == "scipy")}))
"""


def test_cold_start_never_loads_scipy(tmp_path):
    # a fresh interpreter, so nothing imported by other tests counts; every
    # subcommand, the phase search included, runs on numpy alone
    src = os.path.dirname(os.path.dirname(os.path.abspath(qteleport.__file__)))
    child = subprocess.run([sys.executable, "-c", COLD_START, src], cwd=tmp_path,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 5, 0, 0]
    assert result["search"] == 0
    assert result["scipy"] == [], "scipy modules loaded by a CLI run"
