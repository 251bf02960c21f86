import enum
import functools
import gc
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qteleport
from qteleport import bounds, cli, parsing, phases, protocol, report, reportio
from qteleport.cli import main
from qteleport.errors import PhaseFactorsNotFound
from qteleport.sim import run_protocol
from qteleport.spectrum import SUM_TOL, parse_rational

from conftest import STRETCHED_SPECTRUM, STRETCHED_THETA

GOLDEN_PROBLEM = {"d": 2, "spectrum": ["1/2", "1/3", "1/6"], "seed": 11, "trials": 20}
OVERFLOWING_TOKENS = ["1e400", "1" + "0" * 400]  # a float literal and an integer past the double range

JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda children: (
        st.lists(children, max_size=5) | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=40,
)
REPEATED_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e16, -1e16, 1e308, 0.1, 1 / 3, -0.5]
FLOAT64_ARRAYS = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=1, max_dims=4, min_side=0, max_side=5),
    elements=st.sampled_from(REPEATED_FLOATS) | st.floats(allow_nan=False, allow_infinity=False),
)
ARRAY_VIEWS = {  # non-contiguous views of the same data
    "as-is": lambda a: a,
    "transposed": lambda a: a.T,
    "reversed": lambda a: a[::-1],
    "strided": lambda a: a[..., ::2],
}
FLOAT_LITERALS = st.sampled_from([
    "0.0", "-0.0", "0", "-0", "5e-324", "-5e-324", "2.2250738585072014E-308", "1e308", "-1e308",
    "1E5", "1e+05", "1.0E-5", "2.5e0", "0.1", "0.30000000000000004",
]) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
FLOAT_TEXTS = st.one_of(  # heavy repetition: a few literals, drawn many times
    st.lists(FLOAT_LITERALS, min_size=1, max_size=6).flatmap(
        lambda pool: st.lists(st.sampled_from(pool), max_size=60)
    ).map(lambda items: "[" + ", ".join(items) + "]"),
    st.lists(st.tuples(FLOAT_LITERALS, FLOAT_LITERALS), max_size=30).map(
        lambda pairs: "[" + ", ".join(f"[{re}, {im}]" for re, im in pairs) + "]"
    ),
)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Tag(str):
    pass


# the least integer past the int-to-str digit limit (4300 digits by default)
LIMIT_INT = 10 ** (sys.get_int_max_str_digits() or 4300)
WRITER_SCALARS = (  # what the report writer formats itself, and subclasses it leaves to json
    st.none() | st.booleans() | st.integers() | st.sampled_from(Level)
    | st.sampled_from([k * sign for k in (LIMIT_INT - 1, LIMIT_INT) for sign in (1, -1)])
    | st.text() | st.text(alphabet="\x00\x1f\"\\\u00e9\u2028\U0001f600 a").map(Tag)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-7, 1.0])
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


def exact(value):
    """A decoded JSON value with every float replaced by its float.hex, so
    that equality is bit for bit and 0.0 differs from -0.0 and from 0."""
    if isinstance(value, float):
        return ("float", float.hex(value))
    if isinstance(value, list):
        return [exact(item) for item in value]
    if isinstance(value, dict):
        return {key: exact(item) for key, item in value.items()}
    return (type(value).__name__, value)


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

    @pytest.mark.parametrize("spectrum", [[0.5, 0.5], ["1/2", "1/2"]], ids=["float", "exact"])
    def test_dimension_past_the_double_range_is_infeasible(self, tmp_path, capsys, spectrum):
        # 1.0 / d overflowed for a float spectrum, and bounds ended in a traceback
        path = write_problem(tmp_path, {"d": 10**400, "spectrum": spectrum})
        assert run(["bounds", path]) == 0
        assert reportio.loads(capsys.readouterr().out)["bounds"]["teleportFeasible"] is False
        assert run(["synthesize", path]) == 4

    @pytest.mark.parametrize("spectrum", [[0.5, 0.5], ["1/2", "1/2"]], ids=["float", "exact"])
    def test_a_huge_dimension_is_named_by_its_digit_count(self, tmp_path, capsys, spectrum):
        # the messages wrote a 401-digit d in full, twice: 904 bytes
        path = write_problem(tmp_path, {"d": 10**400, "spectrum": spectrum})
        for command in ("synthesize", "simulate"):
            assert run([command, path]) == 4
            err = capsys.readouterr().err
            assert len(err) < 200 and "<401-digit integer>" in err, err
        # in a report d is data, and is written in full
        assert run(["bounds", path]) == 0
        assert str(10**400) in capsys.readouterr().out

    def test_fewer_terms_than_d_reports_null_bounds(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 3, "spectrum": ["1/2", "1/2"]})
        assert run(["bounds", path]) == 0
        bounds = reportio.loads(capsys.readouterr().out)["bounds"]
        assert bounds["teleportFeasible"] is False
        for key in ("cccLowerBound", "residualCap", "residualCapInteger", "loccBound"):
            assert key in bounds and bounds[key] is None

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

    @pytest.mark.parametrize("command", ["bounds", "synthesize", "simulate"])
    def test_non_utf8_file_is_parse_failure(self, tmp_path, capsys, command):
        # read as verify reads a report: undecodable text is bad JSON, not a traceback
        path = tmp_path / "problem.json"
        path.write_bytes(b"\xff\xfe" + json.dumps(GOLDEN_PROBLEM).encode("utf-8"))
        assert run([command, str(path)]) == 2
        assert "problem file is not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", ["nan", "inf"])
    def test_non_finite_string_entry_is_invariant_violation(self, tmp_path, capsys, entry):
        # a string entry reads as float() reads it, in a file as from --spectrum
        path = write_problem(tmp_path, {"d": 2, "spectrum": [entry, 0.5]})
        assert run(["bounds", path]) == 3
        from_file = capsys.readouterr().err
        assert run(["concentrate", "--spectrum", f"{entry},0.5", "--copies", "2", "--bells", "1"]) == 3
        assert capsys.readouterr().err == from_file
        assert "entries must be finite" in from_file

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
        # a 401-digit integer cannot be converted to a float; it reads as 1e400 does
        path = tmp_path / "problem.json"
        for token in OVERFLOWING_TOKENS:
            path.write_text(f'{{"d": 2, "spectrum": [{token}, 0.5]}}', encoding="utf-8")
            assert run(["bounds", str(path)]) == 3, token
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
        assert (doc["table"]["d"], doc["table"]["n"]) == (2, 3)
        assert doc["table"]["orthonormalityResidual"] < 1e-10
        assert doc["table"]["unitarityResidual"] < 1e-10
        assert doc["phases"]["theta"][1] == [0.0, pytest.approx(math.pi), pytest.approx(math.pi)]
        assert doc["table"]["V"] is None  # theta and the construction determine it

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
        assert "(proved no phase-form protocol exists; best residual inf)" in capsys.readouterr().err

        def exhausted(*args, **kwargs):
            raise PhaseFactorsNotFound("no phase factors found", best_residual=0.01)

        monkeypatch.setattr(protocol, "solve_general", exhausted)
        assert run(["synthesize", path]) == 5
        assert "(search exhausted; best residual 1.000000e-02)" in capsys.readouterr().err

    def test_float_sum_within_the_window_is_renormalized(self, tmp_path):
        doc = {"d": 2, "spectrum": [0.5, 0.3, 0.2 + 5e-10]}
        assert abs(sum(doc["spectrum"]) - 1) > SUM_TOL
        assert abs(sum(parsing.parse_problem_doc(doc).spectrum.probs) - 1) <= SUM_TOL
        out = tmp_path / "report.json"
        assert run(["synthesize", write_problem(tmp_path, doc), "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0

    def test_float_sum_past_the_window_is_invariant_violation(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 2, "spectrum": [0.5, 0.3, 0.2 + 2e-9]})
        assert run(["synthesize", path]) == 3
        assert re.search(r"entries sum to \S+, not 1", capsys.readouterr().err)

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
        assert (sim["trials"], sim["seed"]) == (20, 11)  # the problem's

    def test_deterministic_bytes(self, tmp_path):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["simulate", path, "--out", str(out1)]) == 0
        assert run(["simulate", path, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_restates_nothing(self, tmp_path, capsys):
        # theta's shape, s = d n, the residual Schmidt numbers (1 by construction),
        # C's off-diagonal maximum (at most unitarityResidual) and the probability
        # statistics (a fidelity over s, and diag C) are not written: every stated
        # number is checked
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        assert run(["simulate", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert set(doc["phases"]) == {"theta"}
        assert "s" not in doc["table"]
        assert set(doc["simulation"]) == {
            "classicalBits", "maxFidelityDeviation", "minFidelity", "outcomeProbabilities",
            "seed", "trials",
        }

    @pytest.mark.parametrize("flag", ["--trials", "--seed"])
    def test_sweep_flags_are_usage_errors(self, tmp_path, flag):
        # the problem file is the only place to set a sweep's trials and seed
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        with pytest.raises(SystemExit) as exc:
            run(["simulate", path, flag, "5"])
        assert exc.value.code == 2

    def test_negative_seed_in_problem_is_invariant_violation(self, tmp_path, capsys):
        # numpy's default_rng raised an uncaught ValueError on a negative seed
        path = write_problem(tmp_path, dict(GOLDEN_PROBLEM, seed=-1))
        assert run(["simulate", path]) == 3
        assert "field 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_an_input_state_is_echoed_and_ignored(self, tmp_path, command):
        # every outcome has probability 1/s whatever the input, so a report runs
        # at the first basis state: a problem's inputState is echoed, not read
        state = [[0.6, 0], [0, 0.8]]
        plain, echoed = tmp_path / "plain.json", tmp_path / "echoed.json"
        assert run([command, write_problem(tmp_path, GOLDEN_PROBLEM), "--out", str(plain)]) == 0
        path = write_problem(tmp_path, dict(GOLDEN_PROBLEM, inputState=state), "with-state.json")
        assert run([command, path, "--out", str(echoed)]) == 0
        doc = reportio.loads(echoed.read_text(encoding="utf-8"))
        assert doc["problem"].pop("inputState") == state
        assert reportio.dumps(doc) == plain.read_text(encoding="utf-8")

    def test_round_trip_parse_serialize(self, tmp_path):
        # reports are written from arrays; their parsed lists re-encode through
        # the C encoder to the same bytes
        cases = [
            (GOLDEN_PROBLEM, ["simulate"]),
            ({"d": 2, "spectrum": [k / 528 for k in range(1, 33)], "trials": 3},  # s = 64
             ["simulate", "--emit-table"]),
            ({"d": 3, "spectrum": [0.3, 0.25, 0.2, 0.15, 0.1]}, ["synthesize", "--emit-table"]),
        ]
        for problem, argv in cases:
            path = write_problem(tmp_path, problem)
            out = tmp_path / "report.json"
            assert run([argv[0], path, *argv[1:], "--out", str(out)]) == 0
            text = out.read_text(encoding="utf-8")
            doc = reportio.loads(text)
            assert reportio.dumps(doc) == text, problem

    def test_uniform_pair_hundred_trials(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 2, "spectrum": ["1/2", "1/2"], "trials": 100, "seed": 3})
        assert run(["simulate", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        sim = doc["simulation"]
        assert sim["minFidelity"] >= 1 - 1e-10
        assert sim["outcomeProbabilities"] == [pytest.approx(0.25, abs=1e-10)] * 4


def near_partition(eps, seed=0):
    """A d = 3 float spectrum that splits into (1/3), (0.2 + eps, 0.1333333333333333)
    and (1/6, 1/6 - eps): subgroups off 1/3 by +-eps, so the split's phase Gram
    has eigenvalues 1 and 1 +- 3 eps."""
    spectrum = [1 / 3, 0.2 + eps, 1 / 6, 1 / 6 - eps, 0.1333333333333333]
    return {"d": 3, "spectrum": spectrum, "seed": seed, "trials": 1}


class TestNearPartition:
    # the split is taken while 3 eps <= CONDITION_TOL; past it the search
    # runs, and its best restart reaches a defect of about 1.5 eps: accepted
    # at eps = 5e-11, and from 8e-11 on no phase factors are found
    @pytest.mark.parametrize("eps, code", [(3e-11, 0), (5e-11, 0), (8e-11, 5), (2e-10, 5), (6e-10, 5)])
    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_no_call_writes_a_report_verify_rejects(self, tmp_path, capsys, command, eps, code):
        path = write_problem(tmp_path, near_partition(eps))
        out = tmp_path / "report.json"
        assert run([command, path, "--out", str(out)]) == code
        if code == 0:
            assert run(["verify", str(out)]) == 0
        else:
            assert "search exhausted" in capsys.readouterr().err and not out.exists()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_split_past_the_tolerance_fails_verification_for_every_seed(self, tmp_path, capsys, seed):
        # the split's own theta at eps = 5e-11: every entry of C - I is within
        # 1e-10, but C's eigenvalues are 1 +- 1.5e-10, so some input's fidelity
        # is 1 - 1.5e-10, whichever seed the report's problem carries
        problem = parsing.parse_problem_doc(near_partition(5e-11, seed))
        theta = phases.phases_from_partition(phases.find_partition(problem.spectrum, 3))
        table = protocol.synthesize_general(problem.spectrum, theta)
        sections = report.protocol_sections(problem, table, emit_table=False)
        assert sections["table"]["unitarityResidual"] < phases.CONDITION_TOL
        out = tmp_path / "report.json"
        report.write(str(out), **sections)
        assert run(["verify", str(out)]) == 6
        assert "violated: worst-case fidelity" in capsys.readouterr().err


class TestTableElision:
    def test_large_table_summarized_unless_requested(self, tmp_path, capsys):
        # d = 2, n = 33 gives s = 66 > 64 outcomes
        problem = {"d": 2, "spectrum": [f"1/{33}"] * 33}
        path = write_problem(tmp_path, problem)
        assert run(["synthesize", path]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert (doc["table"]["d"], doc["table"]["n"]) == (2, 33)
        assert doc["table"]["V"] is None
        assert doc["table"]["orthonormalityResidual"] < 1e-10

        assert run(["synthesize", path, "--emit-table"]) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["table"]["V"] is not None
        assert len(doc["table"]["V"]) == 66

    @pytest.mark.parametrize("problem", [
        {"d": 2, "spectrum": ["1/2", "1/3", "1/6"], "seed": 7, "trials": 100},  # the README's, s = 6
        {"d": 2, "spectrum": [k / 528 for k in range(1, 33)], "trials": 3},  # s = 64
        {"d": 2, "spectrum": ["1/33"] * 33, "trials": 3},  # s = 66
    ], ids=["s6", "s64", "s66"])
    @pytest.mark.parametrize("command", ["synthesize", "simulate"])
    def test_default_report_is_the_emitted_one_without_v(self, tmp_path, problem, command):
        # V is written only on request, at any s; a default report verifies from theta
        path = write_problem(tmp_path, problem)
        out, full = tmp_path / "report.json", tmp_path / "full.json"
        assert run([command, path, "--out", str(out)]) == 0
        assert run([command, path, "--emit-table", "--out", str(full)]) == 0
        text = out.read_text(encoding="utf-8")
        assert reportio.loads(text)["table"]["V"] is None
        emitted = reportio.loads(full.read_text(encoding="utf-8"))
        assert len(emitted["table"]["V"]) == emitted["table"]["d"] * emitted["table"]["n"]
        emitted["table"]["V"] = None
        assert reportio.dumps(emitted) == text
        assert run(["verify", str(out)]) == 0


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
        spectrum = parsing.parse_problem_doc(doc["problem"]).spectrum
        rebuilt = report.table_from_phases(doc, spectrum, doc["table"]["d"])
        np.testing.assert_array_equal(rebuilt.V, emitted[..., 0] + 1j * emitted[..., 1])

    def elided_report(self, tmp_path, *flags):
        path = write_problem(tmp_path, self.ELIDED_CASES[0][0])
        out = tmp_path / "report.json"
        assert run(["simulate", path, *flags, "--out", str(out)]) == 0
        return out, reportio.loads(out.read_text(encoding="utf-8"))

    def test_elided_simulate_and_verify_never_build_the_table(self, tmp_path, monkeypatch):
        # a formula table is certified from theta: V is built only to be written
        tables = []

        def keep(func):
            def wrapped(table, *args):
                tables.append(table)
                return func(table, *args)
            return wrapped

        monkeypatch.setattr(cli, "random_input_sweep", keep(cli.random_input_sweep))
        monkeypatch.setattr(protocol, "verify_conditions", keep(protocol.verify_conditions))
        out, doc = self.elided_report(tmp_path)
        assert run(["verify", str(out)]) == 0
        assert len(tables) == 3  # simulate's sweep and table doc, verify's conditions
        assert all("V" not in vars(table) for table in tables)

    def test_tampered_theta_fails_verification(self, tmp_path, capsys):
        out, doc = self.elided_report(tmp_path)
        doc["phases"]["theta"][1][0] = (doc["phases"]["theta"][1][0] + 0.5) % (2 * math.pi)
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "violated" in capsys.readouterr().err

    EXPLICIT = "error: report table construction 'Explicit' cannot be rebuilt from theta"
    NO_PHASES = "error: report holds no phases to build its table from"

    @pytest.mark.parametrize("edit, flags, message", [
        (lambda doc: doc["phases"].update(theta=doc["phases"]["theta"][:1]), [], "error:"),
        (lambda doc: doc["phases"]["theta"][0].__setitem__(0, "0.1"), [], "error:"),
        (lambda doc: doc["phases"]["theta"][0].__setitem__(0, True), [], "error:"),
        (lambda doc: doc["phases"]["theta"][0].__setitem__(0, 7.0), [], "error:"),
        (lambda doc: doc["table"].update(construction="Explicit"), [], EXPLICIT),
        (lambda doc: doc.update(phases=None), [], NO_PHASES),
        # a table is its theta: a report that writes V is refused alike
        (lambda doc: doc["table"].update(construction="Explicit"), ["--emit-table"], EXPLICIT),
        (lambda doc: doc.update(phases=None), ["--emit-table"], NO_PHASES),
    ], ids=["short", "string", "boolean", "out-of-range", "explicit", "no-phases",
            "explicit-with-V", "no-phases-with-V"])
    def test_unusable_phases_are_parse_failures(self, tmp_path, capsys, edit, flags, message):
        out, doc = self.elided_report(tmp_path, *flags)
        assert (doc["table"]["V"] is None) == (not flags)
        edit(doc)
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        assert run(["verify", str(out)]) == 2
        assert message in capsys.readouterr().err


class TestVerify:
    def emit_report(self, tmp_path):
        """The golden simulate report with its table V written, for the tests that tamper it."""
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--emit-table", "--out", str(out)]) == 0
        return out

    def test_fresh_report_verifies(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        assert run(["verify", str(out)]) == 0

    def test_synthesize_report_verifies(self, tmp_path, capsys):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "synth.json"
        assert run(["synthesize", path, "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0

    @pytest.mark.parametrize("problem, psi", [
        (GOLDEN_PROBLEM, [0.6, 0.8j]),
        ({"d": 3, "spectrum": [0.3, 0.25, 0.2, 0.15, 0.1]}, [0.48, 0.6j, -0.64]),
    ], ids=["d2", "d3"])
    def test_a_report_run_at_another_input_verifies(self, tmp_path, capsys, problem, psi):
        # reports once stated outcomeProbabilities at the problem's inputState:
        # every input's agree with the first basis state's within C's eigenvalue
        # defect over s, so such a report, its inputState echoed, verifies
        state = [[z.real, z.imag] for z in map(complex, psi)]
        path = write_problem(tmp_path, dict(problem, inputState=state))
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        spectrum = parsing.parse_problem_doc(doc["problem"]).spectrum
        table = report.table_from_phases(doc, spectrum, problem["d"])
        doc["simulation"]["outcomeProbabilities"] = run_protocol(np.array(psi), table).probabilities
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 0

    @pytest.mark.parametrize("section, code", [
        (None, 0), ("problem", 0), ("phases", 0), ("table", 0), ("simulation", 0), ("tolerances", 2),
    ], ids=["top-level", "problem", "phases", "table", "simulation", "tolerances"])
    def test_a_field_verify_does_not_read_is_ignored_but_in_tolerances(self, tmp_path, capsys,
                                                                        section, code):
        # a field the tool does not read is echoed and ignored; the retired
        # fields are checked where stated, and tolerances must be the tool's
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        (doc if section is None else doc[section])["foo"] = 1.5
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == code

    def test_negative_problem_seed_is_invariant_violation(self, tmp_path, capsys):
        # verify samples no inputs, but it reads the echoed problem as a
        # problem file is read, and a problem with a negative seed is refused
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

    def test_eigenvalue_defect_past_the_tolerance_fails_unitarity(self, tmp_path, capsys):
        # a theta whose phase Gram is within CONDITION_TOL of I entrywise, with an
        # eigenvalue 1.9e-10 from 1: verify judged unitarity entrywise and passed
        # it, though solve_general refuses such a theta
        path = write_problem(tmp_path, {"d": 3, "spectrum": STRETCHED_SPECTRUM, "trials": 5})
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["phases"]["theta"] = STRETCHED_THETA
        probs = np.full(6, 1 / 6)
        residual = np.abs(phases.phase_gram(probs, np.array(STRETCHED_THETA)) - np.eye(3)).max()
        assert residual <= phases.CONDITION_TOL
        doc["table"]["unitarityResidual"] = float(residual)
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"violated: spectrum-unitarity eigenvalue defect 1\.89\d+e-10 exceeds 1\.0e-10\n", err
        ), err

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
        "token", ["true", "1e400", "1" + "0" * 400, "0", "-1e-10", "1e-3"],
        ids=["boolean", "non-finite", "integer-past-double", "zero", "negative", "widened"],
    )
    def test_recorded_tolerance_cannot_loosen_the_checks(self, tmp_path, capsys, token):
        # verify judges with its own tolerances: a report recording others,
        # even finite ones wide enough to pass this tampered theta, is refused
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"] = None
        doc["phases"]["theta"][1][1] += 3e-9
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        doc["tolerances"] = {key: 12345.5 for key in doc["tolerances"]}
        out.write_text(reportio.dumps(doc).replace("12345.5", token), encoding="utf-8")
        capsys.readouterr()
        assert run(["verify", str(out)]) == 2
        assert "report tolerances differ from the tool's own" in capsys.readouterr().err

    def test_tolerances_of_the_tool_or_none_verify(self, tmp_path, capsys):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        assert doc["tolerances"] == report.TOLERANCES
        del doc["tolerances"]
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 0

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

    def test_scaled_entry_of_an_explicit_table_fails(self, tmp_path, capsys):
        # the V written out in a report is compared with theta's: one entry off by
        # 1e-8 relative is seen, and so is what it may do to V's orthonormality
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["V"][0][0][0] = [x * (1 + 1e-8) for x in doc["table"]["V"][0][0][0]]
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        err = capsys.readouterr().err
        assert "violated: table V deviates from the table rebuilt from theta" in err
        assert "violated: orthonormality residual" in err

    @pytest.mark.parametrize("eta, code", [(1.05e-10, 6), (None, 0)], ids=["eta-past-tol", "one-ulp"])
    def test_emitted_table_is_judged_by_its_bound(self, tmp_path, capsys, eta, code):
        # a V within delta of theta's moves its own Gram entries by at most
        # eta = delta (2 sqrt(s) + s delta): one entry moved so that eta is just past
        # CONDITION_TOL fails, while delta itself is 2e-11; 1-ulp noise on every entry passes
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        pairs = np.array(doc["table"]["V"])
        s = pairs.shape[0]
        if eta is None:
            pairs = np.nextafter(pairs, np.inf)
        else:
            delta = (math.sqrt(s + s * eta) - math.sqrt(s)) / s  # the root of eta's quadratic
            assert delta <= phases.CONDITION_TOL / 4
            pairs[2, 1, 0, 0] += 1.0001 * delta
        doc["table"]["V"] = pairs.tolist()
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == code
        err = capsys.readouterr().err
        assert ("violated: orthonormality residual 1.05" in err) is (code == 6)
        assert "rebuilt from theta" not in err

    def test_table_disagreeing_with_theta_is_a_violation(self, tmp_path, capsys):
        # a V that theta does not build verified as long as V alone passed
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["phases"]["theta"][1][0] = (doc["phases"]["theta"][1][0] + 0.5) % (2 * math.pi)
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "rebuilt from theta" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "report must contain a JSON object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "problem"},
         "report is missing section 'problem'"),
        (lambda doc: {k: v for k, v in doc.items() if k != "table"},
         "report is missing section 'table'"),
        (lambda doc: doc | {"table": [doc["table"]]}, "report section 'table' must be an object"),
        # an unhashable construction raised an uncaught TypeError
        (lambda doc: doc | {"table": doc["table"] | {"construction": ["D2Formula"]}},
         "report table construction ['D2Formula'] cannot be rebuilt from theta"),
        (lambda doc: doc | {"table": doc["table"] | {"construction": {"a": 1}}},
         "report table construction {'a': 1} cannot be rebuilt from theta"),
        # a report states the sections of one kind, which verify names by them
        (lambda doc: {"toolVersion": doc["toolVersion"], "note": 1},
         "report is of no known kind: it holds no report section"),
        (lambda doc: doc | {"bounds": {}}, "report with section 'bounds' also holds section 'phases'"),
        (lambda doc: doc | {"concentration": {}},
         "report with section 'table' also holds section 'concentration'"),
    ], ids=["not-an-object", "no-problem", "no-table", "table-not-an-object", "construction-list",
            "construction-object", "no-known-kind", "bounds-and-table", "table-and-concentration"])
    def test_malformed_report_is_parse_failure(self, tmp_path, capsys, edit, message):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        out.write_text(reportio.dumps(edit(doc)), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_d2_formula_with_d_3_is_parse_failure(self, tmp_path, capsys):
        path = write_problem(tmp_path, {"d": 3, "spectrum": ["1/3"] * 3})
        out = tmp_path / "report.json"
        assert run(["synthesize", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["construction"] = "D2Formula"
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert "error: report table construction D2Formula requires d = 2" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("d", 2.9), ("d", "2"), ("d", 2.0), ("d", True), ("n", 3.5), ("n", "3"), ("n", 3.0),
    ])
    def test_non_integer_table_dimension_is_parse_failure(self, tmp_path, capsys, key, value):
        # int() once read 2.9 and "2" as 2, so the report verified
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"][key] = value
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert f"report table field '{key}' must be an integer" in capsys.readouterr().err

    TAMPERED_CLAIMS = [  # one tampered value per claim verify re-derives
        # the table's dimensions are the echoed problem's: another is a violation
        ("table", "d", 3),
        ("table", "n", 4),
        ("simulation", "classicalBits", 1),
        ("phases", "constraintResidual", 0.7),
        ("table", "unitarityResidual", 3.0),
        ("table", "orthonormalityResidual", 0.5),
    ]

    @pytest.mark.parametrize("section, key, value", TAMPERED_CLAIMS)
    @pytest.mark.parametrize("emit", [False, True], ids=["theta", "emitted"])
    def test_tampered_claim_is_a_violation(self, tmp_path, capsys, section, key, value, emit):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, *["--emit-table"] * emit, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc[section][key] = value
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert re.search(rf"violated: stated {section}\.{key} \S+ lies outside", capsys.readouterr().err)

    TAMPERED_SIMULATION = [  # (edit, exit code, message): one per simulation field
        (lambda sim: sim.update(minFidelity=0.5), 6,
         r"violated: stated simulation\.minFidelity 0\.5 lies outside the derived \[\S+, \S+\]"),
        (lambda sim: sim.update(maxFidelityDeviation=0.5), 6,
         r"violated: stated simulation\.maxFidelityDeviation 0\.5 lies outside"),
        (lambda sim: sim.update(maxProbabilityDeviation=0.3), 6,
         r"violated: stated simulation\.maxProbabilityDeviation 0\.3 lies outside"),
        (lambda sim: sim.update(totalProbabilityDeviation=0.9), 6,
         r"violated: stated simulation\.totalProbabilityDeviation 0\.9 lies outside"),
        (lambda sim: sim.update(maxFidelityDeviation=-1e-3), 6,
         r"violated: stated simulation\.maxFidelityDeviation -0\.001 lies outside"),
        (lambda sim: sim["outcomeProbabilities"].__setitem__(1, 0.9), 6,
         r"violated: stated simulation\.outcomeProbabilities\[1\] 0\.9 lies outside the derived \[0\.16"),
        (lambda sim: sim["outcomeProbabilities"].pop(), 2,
         r"error: report field 'simulation\.outcomeProbabilities' has shape \(5,\), expected \(6,\)"),
        # the sweep's settings are the echoed problem's: each of these once verified
        (lambda sim: sim.update(trials=5), 6,
         r"violated: stated simulation\.trials 5 lies outside the derived \[20, 20\]"),
        (lambda sim: sim.update(seed=12345), 6,
         r"violated: stated simulation\.seed 12345 lies outside the derived \[11, 11\]"),
        # out of range too, they are other settings than the problem's
        (lambda sim: sim.update(trials=10**9), 6,
         r"violated: stated simulation\.trials 1000000000 lies outside the derived \[20, 20\]"),
        (lambda sim: sim.update(seed=-4), 6,
         r"violated: stated simulation\.seed -4 lies outside the derived \[11, 11\]"),
        (lambda sim: sim.update(seed=0.5), 2, r"error: report simulation field 'seed' must be an integer"),
    ]

    @pytest.mark.parametrize("edit, code, message", TAMPERED_SIMULATION, ids=[
        "minFidelity", "maxFidelityDeviation", "maxProbabilityDeviation",
        "totalProbabilityDeviation", "negative-deviation", "outcomeProbabilities",
        "short-probabilities", "other-trials", "other-seed", "trials", "seed", "fractional-seed",
    ])
    def test_tampered_simulation_claim_is_refused(self, tmp_path, capsys, edit, code, message):
        # each of these verified before the simulation section was checked
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        edit(doc["simulation"])
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == code
        assert re.search(message, capsys.readouterr().err)

    RETIRED = [  # (section, key, true value, wrong value) of the GOLDEN report
        ("phases", "d", 2, 7),
        ("phases", "n", 3, 99),
        ("table", "s", 6, 99),
        ("simulation", "maxResidualSchmidt", 1, 7),
        ("simulation", "residualSchmidtNumbers", [1] * 6, [5] * 6),
    ]

    @pytest.mark.parametrize("section, key, true, wrong", RETIRED,
                             ids=[f"{section}.{key}" for section, key, _, _ in RETIRED])
    def test_retired_field_is_checked_where_stated(self, tmp_path, capsys, section, key, true, wrong):
        # reports no longer write these fields; one written before states the
        # true value and verifies, and a wrong one, which once verified, exits 6
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        assert key not in doc[section]
        non_integer = [float(x) for x in true] if isinstance(true, list) else float(true)
        for value, code in ((true, 0), (wrong, 6), (non_integer, 2)):
            doc[section][key] = value
            out.write_text(reportio.dumps(doc), encoding="utf-8")
            capsys.readouterr()
            assert run(["verify", str(out)]) == code, value
            if code == 6:
                assert f"stated {section}.{key}" in capsys.readouterr().err
            if code == 2:
                assert "integer" in capsys.readouterr().err

    REPORT_INPUTS = {"theta", "V", "construction"}  # what a report is built from
    DROPPED = {  # fields reports stopped writing: their true value, from the report's table
        # C's off-diagonal maximum, never above table.unitarityResidual
        "phases.constraintResidual": lambda table, sim: table.phases.constraint_residual(table.spectrum),
        # every probability is a fidelity over s
        "simulation.maxProbabilityDeviation": lambda table, sim: sim["maxFidelityDeviation"] / table.s,
        # the probabilities of one input sum to the mean of diag C, sum_k p_k
        "simulation.totalProbabilityDeviation": lambda table, sim: abs(sum(table.spectrum.probs) - 1),
    }

    def test_every_written_number_is_checked(self, tmp_path, capsys):
        # the tamper cases come from the reports simulate, bounds and concentrate
        # write, not from a list kept by hand: a number that is written but never
        # checked fails here.  A dropped field is checked where an older report
        # states it: the report verifies without it and with its true value, and
        # not with a tampered one
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0
        template = reportio.loads(out.read_text(encoding="utf-8"))
        _, table = protocol.synthesize_auto(parsing.parse_problem_doc(GOLDEN_PROBLEM).spectrum, 2)
        for field, true in self.DROPPED.items():
            section, key = field.split(".")
            assert key not in template[section]
            doc = reportio.loads(reportio.dumps(template))
            doc[section][key] = template[section][key] = true(table, template["simulation"])
            out.write_text(reportio.dumps(doc), encoding="utf-8")
            assert run(["verify", str(out)]) == 0, field
        written = reportio.dumps(template)
        out.write_text(written, encoding="utf-8")
        assert run(["verify", str(out)]) == 0
        leaves = [
            (section, key, 0 if isinstance(value, list) else None)
            for section in ("phases", "table", "simulation")
            for key, value in template[section].items()
            if key not in self.REPORT_INPUTS
            and isinstance(value[0] if isinstance(value, list) else value, (int, float))
        ]
        fields = {f"{section}.{key}" for section, key, _ in leaves}
        assert {f"{section}.{key}" for section, key, _ in self.TAMPERED_CLAIMS} <= fields
        unchecked = []
        for section, key, index in leaves:
            doc = reportio.loads(written)
            holder, slot = (doc[section], key) if index is None else (doc[section][key], index)
            holder[slot] += 1  # outside every derived interval, integer or not
            out.write_text(reportio.dumps(doc), encoding="utf-8")
            capsys.readouterr()
            code, err = run(["verify", str(out)]), capsys.readouterr().err
            field = f"{section}.{key}" + ("" if index is None else f"[{index}]")
            if code != 6 or f"violated: stated {field} " not in err:
                unchecked.append((field, code, err))
        path = write_problem(tmp_path, {"d": 2, "spectrum": [0.5, 0.3, 0.2]}, "float.json")
        for argv in (["bounds", str(tmp_path / "problem.json")], ["bounds", path],
                     ["concentrate", "--spectrum", "1/2,1/3,1/6", "--copies", "4", "--bells", "3"]):
            unchecked += self.unchecked_leaves(tmp_path, capsys, argv)
        assert unchecked == []

    @staticmethod
    def unchecked_leaves(tmp_path, capsys, argv):
        """Each number and boolean of a bounds or concentrate report, outside the
        echo, tampered in turn, with verify's exit code and stderr where the
        tamper did not exit 6 naming its field (an exact form is one field)."""
        def leaves(value, path, field):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from leaves(item, (*path, key), f"{field}.{key}")
            elif isinstance(value, list):
                for index, item in enumerate(value):
                    yield from leaves(item, (*path, index), field)
            elif isinstance(value, (int, float)):
                yield path, field

        out = tmp_path / f"{argv[0]}-report.json"
        assert run([*argv, "--out", str(out)]) == 0
        assert run(["verify", str(out)]) == 0
        written = out.read_text(encoding="utf-8")
        template = reportio.loads(written)
        found, unchecked = [], []
        for section in ("bounds", "concentration"):
            for path, field in leaves(template.get(section, {}), (section,), section):
                doc = reportio.loads(written)
                holder = functools.reduce(lambda node, key: node[key], path[:-1], doc)
                value = holder[path[-1]]
                holder[path[-1]] = (not value) if isinstance(value, bool) else value + 1
                out.write_text(reportio.dumps(doc), encoding="utf-8")
                capsys.readouterr()
                code, err = run(["verify", str(out)]), capsys.readouterr().err
                found.append(field)
                if code != 6 or f"violated: stated {field} " not in err:
                    unchecked.append((argv[0], field, code, err))
        assert {"bounds.Et.bits", "bounds.ESch.exact"} <= set(found)  # in both kinds
        assert {"bounds.teleportFeasible", "concentration.feasible"} & set(found)  # a boolean
        return unchecked

    WRONG_VALUES = [[1], {"a": 1}, None, "x", True, 10**30, -1, 0.5]

    def test_no_edit_crashes_or_verifies(self, tmp_path, capsys):
        # every leaf of a default and of an emitted report, lists entered
        # through their first entry, replaced by values of every JSON type:
        # verify exits with a documented code, and exits 0 only on an edit
        # outside the sections it derives
        def leaves(value, path=()):
            if isinstance(value, dict):
                for key, item in value.items():
                    yield from leaves(item, (*path, key))
            elif isinstance(value, list) and value:
                yield from leaves(value[0], (*path, 0))
            else:
                yield path, value

        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        accepted = []
        for flags in ([], ["--emit-table"]):
            assert run(["simulate", path, *flags, "--out", str(out)]) == 0
            written = out.read_text(encoding="utf-8")
            for where, original in leaves(reportio.loads(written)):
                for value in self.WRONG_VALUES:
                    if exact(value) == exact(original):
                        continue
                    doc = reportio.loads(written)
                    holder = functools.reduce(lambda node, key: node[key], where[:-1], doc)
                    holder[where[-1]] = value
                    out.write_text(reportio.dumps(doc), encoding="utf-8")
                    code = run(["verify", str(out)])
                    assert code in (0, 2, 3, 4, 5, 6), (where, value, code)
                    if code == 0 and where[0] in ("phases", "table", "simulation"):
                        accepted.append((flags, where, value))
        capsys.readouterr()
        assert accepted == []

    @pytest.mark.parametrize("token", OVERFLOWING_TOKENS)
    def test_claim_past_the_double_range_is_a_violation(self, tmp_path, capsys, token):
        # read as a double, a 401-digit integer is inf: it cannot overflow the comparison
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["table"]["unitarityResidual"] = 12345.5
        out.write_text(reportio.dumps(doc).replace("12345.5", token), encoding="utf-8")
        assert run(["verify", str(out)]) == 6
        assert "violated: stated table.unitarityResidual inf lies outside" in capsys.readouterr().err

    @pytest.mark.parametrize("section, key", [claim[:2] for claim in TAMPERED_CLAIMS[2:]])
    @pytest.mark.parametrize("value", ["0.0", True, None])
    def test_claim_that_is_not_a_number_is_parse_failure(self, tmp_path, capsys, section, key,
                                                          value):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc[section][key] = value
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == 2
        assert f"error: report field '{section}.{key}' must be a number" in capsys.readouterr().err

    def test_grams_are_built_once_per_table(self, tmp_path, monkeypatch):
        build = protocol.ProtocolTable.grams.func
        built = []

        def counted(table):
            built.append(table.construction)
            return build(table)

        grams = functools.cached_property(counted)
        grams.__set_name__(protocol.ProtocolTable, "grams")
        monkeypatch.setattr(protocol.ProtocolTable, "grams", grams)
        out = self.emit_report(tmp_path)  # the sweep and the reference run
        assert built == [protocol.Construction.D2_FORMULA]
        built.clear()
        # verify reads the phase Gram alone, and compares V with theta's entry by entry
        assert run(["verify", str(out)]) == 0
        assert built == []

    @pytest.mark.parametrize("flags", [[], ["--emit-table"]], ids=["theta", "emitted"])
    def test_verify_builds_neither_outcome_grams_nor_the_basis_gram(self, tmp_path, monkeypatch,
                                                                   flags):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        assert run(["simulate", path, *flags, "--out", str(out)]) == 0

        def refuse(*args):
            raise AssertionError("a Gram beyond the d x d phase Gram was built")

        grams = functools.cached_property(refuse)
        grams.__set_name__(protocol.ProtocolTable, "grams")
        monkeypatch.setattr(protocol.ProtocolTable, "grams", grams)
        monkeypatch.setattr(protocol, "measurement_basis", refuse)  # the s x s Gram's rows
        assert run(["verify", str(out)]) == 0

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

    RAGGED = ("error: report table is malformed: setting an array element with a sequence. The "
              "requested array has an inhomogeneous shape after {} dimensions. The detected shape "
              "was {} + inhomogeneous part.")
    NOT_NUMBERS = "error: report table is malformed: entries must be [re, im] pairs of numbers"

    @pytest.mark.parametrize("edit, code, message", [
        (lambda doc: doc["table"]["V"][0][0].pop(), 2, RAGGED.format(2, (6, 2))),
        (lambda doc: doc["table"]["V"][0][0].__setitem__(0, 0.5), 2, RAGGED.format(3, (6, 2, 3))),
        (lambda doc: doc["table"]["V"][1].append([]), 2, RAGGED.format(1, (6,))),
        (lambda doc: doc["table"]["V"].pop(), 2,
         "error: report table has shape (5, 2, 3, 2), expected (6, 2, 3, 2)"),
        (str(-2**63 - 1), 2, NOT_NUMBERS),
        (str(2**64), 2, NOT_NUMBERS),
        ("1E400", 2, "error: report table holds non-finite entries"),
        (str(2**63), 6, "violated: orthonormality residual"),  # numpy read it as uint64
    ], ids=["ragged-pairs", "number-beside-pairs", "ragged-rows", "short", "below-int64",
            "past-uint64", "1E400", "uint64"])
    def test_every_refusal_keeps_its_exit_code_and_message(self, tmp_path, capsys, edit, code,
                                                           message):
        # strings, nulls, booleans and 1e400 are refused in the tests above; a
        # string edit is the literal written in place of one table entry
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        if callable(edit):
            edit(doc)
        else:
            doc["table"]["V"][0][0][0][0] = 12345.5
        text = reportio.dumps(doc)
        out.write_text(text if callable(edit) else text.replace("12345.5", edit), encoding="utf-8")
        capsys.readouterr()
        assert run(["verify", str(out)]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("code", [0, 2, 6])
    def test_collector_state_is_restored(self, tmp_path, capsys, enabled, code):
        out = self.emit_report(tmp_path)
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        if code == 2:  # raised while the report is read
            doc["table"]["V"][0][0].pop()
        if code == 6:
            doc["table"]["V"][0][0][0][0] = 0.75
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert run(["verify", str(out)]) == code
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_verify_starts_no_collection(self, tmp_path, capsys):
        # the decoded lists of an emitted (4, 20) table, 6400 [re, im] pairs,
        # are freed before the collector resumes (CPython lowers its count as
        # each is freed); unpaused they started 9 young collections per verify.
        # A default (2, 1024) report's 2048 outcome probabilities once started
        # 3, one (lowest, highest) tuple made per entry after the collector resumed
        cases = {
            "emitted (4, 20)": ({"d": 4, "spectrum": ["1/20"] * 20, "trials": 2}, ["--emit-table"]),
            "default (2, 1024)": ({"d": 2, "spectrum": ["1/1024"] * 1024, "trials": 2}, []),
        }
        started = {}
        for name, (problem, flags) in cases.items():
            path = write_problem(tmp_path, problem)
            out = tmp_path / "report.json"
            assert run(["simulate", path, *flags, "--out", str(out)]) == 0
            counts = started[name] = [0, 0, 0]

            def count(phase, info):
                if phase == "start":
                    counts[info["generation"]] += 1

            gc.collect()
            gc.callbacks.append(count)
            try:
                assert run(["verify", str(out)]) == 0
            finally:
                gc.callbacks.remove(count)
        assert started == dict.fromkeys(cases, [0, 0, 0])

    def test_simulate_refuses_trials_past_the_bound(self, tmp_path, capsys):
        problem = {"d": 2, "spectrum": ["1/2", "1/2"], "trials": parsing.MAX_TRIALS + 1}
        assert run(["simulate", write_problem(tmp_path, problem)]) == 3
        assert f"must be at most {parsing.MAX_TRIALS}" in capsys.readouterr().err


WRITERS = ["bounds", "synthesize", "simulate", "concentrate"]


def writer_argv(command, spectrum, path):
    """A report writer's arguments: concentrate takes the spectrum as an option,
    the others read it from the problem file at path."""
    if command == "concentrate":
        return ["concentrate", "--spectrum", ",".join(map(str, spectrum)), "--copies", "4", "--bells", "3"]
    return [command, path]


class TestEveryKind:
    @pytest.mark.parametrize("command", WRITERS)
    @pytest.mark.parametrize("spectrum", [["1/2", "1/3", "1/6"], [0.5, 0.3, 0.2]], ids=["exact", "float"])
    def test_fresh_report_verifies(self, tmp_path, capsys, command, spectrum):
        # bounds and concentrate reports once exited 2: verify read only the other two kinds
        path = write_problem(tmp_path, {"d": 2, "spectrum": spectrum})
        out = tmp_path / "report.json"
        assert run([*writer_argv(command, spectrum, path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert run(["verify", str(out)]) == 0
        assert capsys.readouterr().out.startswith("report verified: ")

    @pytest.mark.parametrize("command", WRITERS)
    @pytest.mark.parametrize("target", ["directory", "missing-directory"])
    def test_unwritable_out_is_parse_failure(self, tmp_path, capsys, command, target):
        # an IsADirectoryError or FileNotFoundError escaped main: exit 1 and a traceback
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path if target == "directory" else tmp_path / "missing" / "report.json"
        assert run([*writer_argv(command, GOLDEN_PROBLEM["spectrum"], path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write report file: [Errno ")

    @pytest.mark.parametrize("edit, code, message", [
        ({"copies": 0}, 3, "error: --copies must lie in [1, 2**53]"),
        ({"bells": 2**53 + 1}, 3, "error: --bells must lie in [0, 2**53]"),
        ({"copies": "4"}, 2, "error: field 'copies' must be an integer"),
        ({"bells": True}, 2, "error: field 'bells' must be an integer"),
        ({"spectrum": []}, 2, "error: field 'spectrum' must be a non-empty list"),
        ({"spectrum": ["1/2", "1/3"]}, 3, "error: field 'spectrum': entries sum to 5/6, not 1"),
        ({"copies": bounds.MAX_POWER_BITS // 5 + 1, "spectrum": ["7/16", "27/64", "9/64"]}, 3,
         "bit powers of p_max, past"),
    ], ids=["no-copies", "bells-past-2**53", "string-copies", "boolean-bells", "no-spectrum",
            "bad-sum", "power-past-budget"])
    def test_concentrate_echo_is_read_as_the_options_are(self, tmp_path, capsys, edit, code, message):
        out = tmp_path / "report.json"
        argv = ["concentrate", "--spectrum", "1/2,1/3,1/6", "--copies", "4", "--bells", "3"]
        assert run([*argv, "--out", str(out)]) == 0
        doc = reportio.loads(out.read_text(encoding="utf-8"))
        doc["concentrate"] |= edit
        out.write_text(reportio.dumps(doc), encoding="utf-8")
        assert run(["verify", str(out)]) == code
        assert message in capsys.readouterr().err

    def test_a_huge_dimension_leaves_every_message_short(self, tmp_path, capsys):
        # verify printed a 401-digit d in full: "report phases has shape (2, 3), expected (1000...000, 3)"
        huge = 10**400
        path = write_problem(tmp_path, {"d": huge, "spectrum": ["1/2", "1/2"]}, "huge.json")
        golden = write_problem(tmp_path, GOLDEN_PROBLEM)
        out = tmp_path / "report.json"
        codes = [run(["synthesize", path]), run(["simulate", path])]
        assert run(["bounds", path, "--out", str(out)]) == 0
        bounds_report = reportio.loads(out.read_text(encoding="utf-8"))
        assert run(["simulate", golden, "--out", str(out)]) == 0
        simulate_report = reportio.loads(out.read_text(encoding="utf-8"))
        edits = [
            (bounds_report, lambda doc: None),
            (bounds_report, lambda doc: doc["bounds"].update(d=2)),
            (bounds_report, lambda doc: doc["bounds"].update(teleportFeasible=True)),
            (simulate_report, lambda doc: doc["problem"].update(d=huge)),
            (simulate_report, lambda doc: doc["table"].update(d=huge)),
        ]
        for template, edit in edits:
            doc = reportio.loads(reportio.dumps(template))
            edit(doc)
            out.write_text(reportio.dumps(doc), encoding="utf-8")
            codes.append(run(["verify", str(out)]))
        assert codes == [4, 4, 0, 6, 6, 2, 6]
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 6 and sum("<401-digit integer>" in line for line in lines) == 5, lines
        assert max(map(len, lines)) < 200, lines


class TestConcentrate:
    @pytest.mark.parametrize("spectrum", ["0.5,0.5", "1/2,1/2"], ids=["float", "exact"])
    @pytest.mark.parametrize("option", ["--copies", "--bells"])
    def test_count_past_the_double_range_is_invariant_violation(self, capsys, spectrum, option):
        # a float spectrum's budget overflowed a double (a traceback), and an
        # exact one would raise p_max to that power first
        counts = {"--copies": "4", "--bells": "2", option: str(10**400)}
        argv = ["concentrate", "--spectrum", spectrum]
        assert run(argv + [arg for pair in counts.items() for arg in pair]) == 3
        assert re.search(rf"error: {option} must lie in \[[01], 2\*\*53\]", capsys.readouterr().err)

    def test_exact_power_past_the_bit_budget_is_invariant_violation(self, capsys):
        # 7/16 to the power copies needs 5 bits a copy: one copy past the budget
        # is refused before any power is built
        copies = bounds.MAX_POWER_BITS // 5 + 1
        argv = ["concentrate", "--spectrum", "7/16,27/64,9/64", "--copies", str(copies), "--bells", "1"]
        assert run(argv) == 3
        assert f"need {5 * copies}-bit powers of p_max, past {bounds.MAX_POWER_BITS}" in capsys.readouterr().err

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
        assert conc["C1LowerBound"]["exact"] == [4, 1, 3, 1]  # 4 * log2(3) - 4
        assert conc["C1LowerBound"]["offset"] == -4
        assert conc["C2"]["bits"] == 8.0

    def test_over_budget_is_infeasible(self, capsys):
        assert run(
            ["concentrate", "--spectrum", "1/2,1/3,1/6", "--copies", "4", "--bells", "5"]
        ) == 0
        doc = reportio.loads(capsys.readouterr().out)
        assert doc["concentration"]["feasible"] is False
        assert doc["concentration"]["mMax"] == 4

    def test_echoes_the_entries_it_read(self, capsys):
        # empty parts are dropped and padding stripped, in the echo as in the arithmetic
        assert run(["concentrate", "--spectrum", " 1/2,,1/2,", "--copies", "3", "--bells", "3"]) == 0
        assert reportio.loads(capsys.readouterr().out)["concentrate"]["spectrum"] == ["1/2", "1/2"]

    @pytest.mark.parametrize("argv", [
        ["--spectrum", "-0.5,1.5"], ["--spectrum=-0.5,1.5"], ["--spectrum", "-1,2"],
    ])
    def test_negative_entry_is_invariant_violation(self, capsys, argv):
        # a value beginning with "-" is the spectrum's, as in a problem file
        assert run(["concentrate", *argv, "--copies", "1", "--bells", "0"]) == 3
        assert "entries must be positive" in capsys.readouterr().err

    def test_bad_spectrum_entry(self, capsys):
        assert run(["concentrate", "--spectrum", "1/2,zzz", "--copies", "1", "--bells", "0"]) == 2

    def test_bad_copies(self, capsys):
        assert run(["concentrate", "--spectrum", "1/2,1/2", "--copies", "0", "--bells", "0"]) == 3

    def test_non_finite_entry_is_invariant_violation(self, capsys):
        for spectrum in ("nan,0.5", "inf,0.5"):
            assert run(["concentrate", "--spectrum", spectrum, "--copies", "2", "--bells", "1"]) == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spectrum, copies, bells, m_max", [
        ("1/2,1/2", 20000, 10, 20000),  # p_max = 1/2
        ("1/2,1/3,1/6", 9100, 3000, 9100),
        # the largest m with 7^n 2^m <= 16^n: 4n minus the bit length of 7^n
        ("7/16,27/64,9/64", 10**6, 300000, 4 * 10**6 - 2807355),
    ])
    def test_exact_form_at_any_copy_count(self, capsys, spectrum, copies, bells, m_max):
        # C1 = copies * log2(rank) - bells, three integers however many the copies;
        # rank**copies would pass Python's int-to-str digit limit in all three
        assert run(
            ["concentrate", "--spectrum", spectrum, "--copies", str(copies), "--bells", str(bells)]
        ) == 0
        conc = reportio.loads(capsys.readouterr().out)["concentration"]
        rank = spectrum.count(",") + 1
        c1 = conc["C1LowerBound"]
        assert (c1["exact"], c1["offset"]) == ([copies, 1, rank, 1], -bells)
        assert abs(c1["bits"] - (copies * math.log2(rank) - bells)) <= 1e-9 * copies
        assert conc["mMax"] == m_max


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
        # in a row, as a value or as a key: the standard encoder's own error
        for doc in ({"x": [value]}, {"x": value}, {value: 1}):
            with pytest.raises(ValueError) as stdlib:
                json.dumps(doc, sort_keys=True, allow_nan=False)
            with pytest.raises(ValueError) as ours:
                reportio.dumps(doc)
            assert str(ours.value) == str(stdlib.value)

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.dictionaries(st.text(), WRITER_SCALARS | st.dictionaries(st.text(), WRITER_SCALARS)
                        | st.lists(WRITER_SCALARS, max_size=4), max_size=8),
        st.dictionaries(st.integers(), WRITER_SCALARS, max_size=4),
        st.dictionaries(st.floats(allow_nan=False, allow_infinity=False), WRITER_SCALARS, max_size=4),
        st.dictionaries(st.booleans() | st.none(), WRITER_SCALARS, max_size=1),
    ))
    def test_scalars_are_written_as_the_encoder_writes_them(self, doc):
        # past the int-to-str digit limit both writers raise
        try:
            expected = json.dumps(doc, sort_keys=True, allow_nan=False)
        except ValueError as err:
            with pytest.raises(ValueError, match=re.escape(str(err))):
                reportio.dumps(doc)
            return
        assert without_whitespace(reportio.dumps(doc)) == without_whitespace(expected)

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

    @settings(max_examples=300, deadline=None)
    @given(JSON_DOCS.map(json.dumps) | FLOAT_TEXTS)
    def test_cached_loads_is_the_stdlib_bit_for_bit(self, text):
        # each distinct float literal is parsed once; every value must still be
        # the one the standard decoder gives, the sign of zero included
        assert exact(reportio.loads(text)) == exact(json.loads(text))

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

    @settings(max_examples=300, deadline=None)
    @given(FLOAT64_ARRAYS, st.sampled_from(sorted(ARRAY_VIEWS)))
    def test_array_encodes_as_its_list(self, array, view):
        array = ARRAY_VIEWS[view](array)
        assert reportio.dumps({"x": array}) == reportio.dumps({"x": array.tolist()})

    def test_repeated_array_rows_encode_as_their_list(self):
        pairs = np.array([[0.5, -0.0], [0.0, 0.5], [0.5, 0.0], [-0.0, 0.5]])
        table = pairs[np.arange(6 * 2 * 3 * 3) % 4].reshape(6, 2, 3, 3, 2)[:, :, ::2]
        assert reportio.dumps({"V": table}) == reportio.dumps({"V": table.tolist()})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("shape", [(2,), (1, 2), (2, 1, 1, 2)])
    def test_non_finite_float_inside_an_array_raises_value_error(self, value, shape):
        array = np.ones(shape)
        array.flat[-1] = value
        with pytest.raises(ValueError):
            reportio.dumps({"x": array})

    @pytest.mark.parametrize("array", [
        np.arange(4), np.array([True, False]), np.array([1j, 2.0]),
        np.ones(3, dtype=np.float32), np.array(1.5),
    ], ids=["int", "bool", "complex", "float32", "zero-dim"])
    def test_unsupported_array_raises_type_error(self, array):
        with pytest.raises(TypeError):
            reportio.dumps({"x": array})


class TestRationalSpectra:
    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="0123456789/+-_. e\u0663\uff11", max_size=8))
    def test_literals_parse_as_fraction_does(self, text):
        # plain "num/den" takes the integer path; every other form must read, or
        # fail, exactly as Fraction(text) does
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError) as err:
            with pytest.raises(type(err)) as got:
                parse_rational(text)
            assert str(got.value) == str(err)
        else:
            assert parse_rational(text) == want

    @pytest.mark.parametrize("items, code, message", [
        (["1/2", "1/2"], 0, ""),
        (["-1/2", "3/2"], 3, "field 'spectrum': entries must be positive"),
        (["0/1", "1/1"], 3, "field 'spectrum': entries must be positive"),
        (["1/2", "1/3"], 3, "field 'spectrum': entries sum to 5/6, not 1"),
        (["1" + "0" * 400 + "/1", "1/2"], 3, "entries sum to 2" + "0" * 399 + "1/2, not 1"),
        (["1/0", "1/2"], 2, "field 'spectrum': bad rational entry (Fraction(1, 0))"),
        (["1/2", "x/y", "1/0"], 2, "bad rational entry (Invalid literal for Fraction: 'x/y')"),
    ])
    def test_exit_codes_and_messages(self, tmp_path, capsys, items, code, message):
        assert run(["bounds", write_problem(tmp_path, {"d": 2, "spectrum": items})]) == code
        assert message in capsys.readouterr().err

    def test_exact_values_and_the_cached_p_max(self):
        spectrum = parsing.parse_spectrum_items(["1/6", "1/2", "1/3"])
        assert spectrum.exact == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
        assert spectrum.probs == (1 / 6, 1 / 2, 1 / 3)
        assert spectrum.p_max_exact is spectrum.p_max_exact == Fraction(1, 2)


class TestParser:
    def test_missing_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2

    def test_parser_is_built_once_and_reused(self, tmp_path, capsys):
        assert cli.build_parser() is cli.build_parser()
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        argv = ["simulate", path, "--emit-table"]
        first = cli.build_parser().parse_args(argv)
        assert run(["bounds", path]) == 0
        assert vars(cli.build_parser().parse_args(argv)) == vars(first)

    @pytest.mark.parametrize("argv", [
        ["--vers"], ["simulate", "{path}", "--emit"], ["synthesize", "{path}", "--emit"],
        ["synthesize", "{path}", "--ou", "report.json"],
        # main binds only the full --spectrum to a value beginning with "-", so
        # an accepted --spec made these three exit 2, 3 and 0
        *(["concentrate", *spec, "--copies", "1", "--bells", "0"]
          for spec in (["--spec", "-0.5,1.5"], ["--spec=-0.5,1.5"], ["--spec", "1/2,1/2"])),
    ])
    def test_abbreviated_options_are_usage_errors(self, tmp_path, capsys, argv):
        path = write_problem(tmp_path, GOLDEN_PROBLEM)
        with pytest.raises(SystemExit) as err:
            main([arg.format(path=path) for arg in argv])
        assert err.value.code == 2
        assert "error:" in capsys.readouterr().err  # a usage error, not --version's exit 0

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
