import json
import math

import numpy as np
import pytest

from qteleport import cli, protocol, reportio
from qteleport.cli import main
from qteleport.errors import PhaseFactorsNotFound

GOLDEN_PROBLEM = {"d": 2, "spectrum": ["1/2", "1/3", "1/6"], "seed": 11, "trials": 20}


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
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"] = None
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


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--version"])
        assert err.value.code == 0
