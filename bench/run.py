"""qteleport benchmark: seeded problems driven through `qteleport.cli.main`.

Usage (from the repository root):

    python3 bench/run.py --workload certify --seed 1 --seconds 10 --trace 0

One process, one BLAS thread, a closed loop with one caller: problems run
back to back, each as the CLI calls a researcher would make.  A run

1. records the environment and times set-up (a fresh interpreter importing
   `qteleport.cli`, plus generating the workload's problem files) several
   times, reporting the median;
2. runs one pass in a child interpreter (`mempass.py`) for peak memory, then
   one untimed warm-up pass here;
3. repeats timed passes for `--seconds` seconds (at least MIN_PASSES);
   bookkeeping between problems is left out of the timings;
4. with `--trace 1`, makes two more passes with every layer wrapped
   (see `tracing.py`), checks that the exact counts repeat, reports the
   per-layer metrics and writes the spans to `.bench_work/`.

Every call is checked by the independent oracle (`oracle.py`) and every
emitted report is hashed; hashes must agree across all passes, traced or not.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
`--trace 0`, per-layer metrics with `--trace 1`), named and united as in
`BENCHMARK.json`.  `correct` is false on any unexpected failure, report-byte
drift or count drift; the two known defects count in `failed` and are listed
by problem id, but leave `correct` alone.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # before numpy loads its BLAS

import argparse
import contextlib
import ctypes
import glob
import hashlib
import io
import json
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
DEFINITION = os.path.join(ROOT, "BENCHMARK.json")

SETUP_REPEATS = 3
IMPORT_SNIPPET = "import sys; sys.path.insert(0, 'src'); import qteleport.cli"
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
MIN_PASSES = 3    # timed passes, even when they outlast --seconds
EXACT_COUNTS = ("phases.least_squares.nfev", "sim.branches", "protocol.bob_unitaries.calls",
                "reportio.dumps.bytes", "sim.trace_bytes_computed")
PRINTED_ONLY_UNITS = {"branches_per_s": "1/s", "failed_frac": "ratio"}  # may be 0: not gated


def _fatal(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "qteleport", "cli.py")):
    _fatal(f"no qteleport sources under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import qteleport  # noqa: E402
import qteleport.cli as q_cli  # noqa: E402

if os.path.dirname(os.path.abspath(qteleport.__file__)) != os.path.join(SRC, "qteleport"):
    _fatal(f"imported qteleport from {qteleport.__file__}, not from {SRC}")

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


# -- environment ------------------------------------------------------------

def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, read from the library itself."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            func = getattr(lib, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qteleport": qteleport.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


# -- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    latencies: list[float] = field(default_factory=list)   # seconds, one per problem
    failures: list[oracle.Failure] = field(default_factory=list)
    branches: int = 0         # outcome branches certified: trials x s per successful sweep

    @property
    def wall_s(self) -> float:
        return sum(self.latencies)


def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def run_problem(problem, calls, tracer: Tracer | None = None):
    """Time one problem's CLI calls back to back; then collect what they wrote."""
    for argv in calls:
        out = _out_path(argv)
        if out and os.path.exists(out):
            os.remove(out)  # a failed call must not leave the previous pass's report
    raw = []
    start = time.perf_counter()
    for argv in calls:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = tracer.call_cli(problem.pid, argv) if tracer else q_cli.main(argv)
                error = ""
            except Exception as err:  # an uncaught exception is a failed call
                code, error = None, repr(err)
        raw.append((argv, code, error or stderr.getvalue(), stdout.getvalue()))
    latency = time.perf_counter() - start

    outcomes = []
    for argv, code, error, stdout in raw:
        path = _out_path(argv)
        report = None
        if path and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                report = handle.read()
        outcomes.append(oracle.Outcome(argv[0], code, error, stdout, report))
    return latency, outcomes


class Checker:
    """Runs passes and judges them: oracle verdicts and report-byte agreement.

    Verdicts are cached per distinct outcome; the first pass's digests are the
    reference every later pass, traced or not, must reproduce.
    """

    def __init__(self, workload: str, problems, workdir: str):
        self.problems = problems
        self.calls = {p.pid: workloads.cli_calls(workload, p, workdir) for p in problems}
        self.reference: dict[tuple[str, int], str] = {}
        self._verdicts: dict[tuple[str, int, str], list[oracle.Failure]] = {}

    @property
    def calls_per_pass(self) -> int:
        return sum(len(c) for c in self.calls.values())

    def run_pass(self, tracer: Tracer | None = None) -> PassResult:
        result = PassResult()
        first = not self.reference
        for problem in self.problems:
            latency, outcomes = run_problem(problem, self.calls[problem.pid], tracer)
            result.latencies.append(latency)
            for i, outcome in enumerate(outcomes):
                text = f"{outcome.exit_code}\n{outcome.error}\n{outcome.stdout}\n{outcome.report}"
                digest = hashlib.sha256(text.encode()).hexdigest()
                key = (problem.pid, i)
                if first:
                    self.reference[key] = digest
                elif self.reference[key] != digest:
                    result.failures.append(oracle.Failure(
                        problem.pid, outcome.command, "report bytes differ between passes"))
                if (*key, digest) not in self._verdicts:
                    self._verdicts[(*key, digest)] = oracle.check_call(problem, outcome)
                result.failures += self._verdicts[(*key, digest)]
                if outcome.command in ("simulate", "verify") and outcome.exit_code == 0:
                    result.branches += problem.trials * problem.d * len(problem.spectrum)
        return result


# -- statistics -------------------------------------------------------------

def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count); with too few samples the
    maximum is returned as the 100th percentile.
    """
    ordered = sorted(samples)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0, count
    index = count - TAIL_BEYOND - 1
    return ordered[index], 100.0 * (index + 1) / count, count


# -- main -------------------------------------------------------------------

def load_definition() -> dict:
    try:
        with open(DEFINITION, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as err:
        _fatal(f"cannot read the benchmark definition: {err}")


def measure_setup(workload: str, seed: int, workdir: str):
    """Median over SETUP_REPEATS of: fresh-interpreter import + input generation."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_SNIPPET], cwd=ROOT, check=True,
                       timeout=120)
        problems = workloads.generate(workload, seed, workdir)
        times.append(time.perf_counter() - start)
    return statistics.median(times), problems


def peak_memory_bytes(workload: str, seed: int, workdir: str) -> int:
    """Peak RSS of a fresh interpreter making one untraced pass."""
    child = subprocess.run(
        [sys.executable, os.path.join(BENCH, "mempass.py"), workload, str(seed), workdir],
        cwd=ROOT, check=True, timeout=170, capture_output=True, text=True)
    return int(child.stdout.split()[-1])


def traced_passes(checker: Checker) -> tuple[list[Tracer], list[PassResult]]:
    """Two passes with every layer wrapped, so exact counts can be compared."""
    tracers, results = [], []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            results.append(checker.run_pass(tracer))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
    return tracers, results


def end_to_end_metrics(timed: list[PassResult], peak_bytes: int, setup_s: float,
                       attempted: int, failed: int) -> tuple[dict, dict]:
    """Every end-to-end metric, with a note on how each was taken."""
    wall_s = statistics.median(r.wall_s for r in timed)
    latencies = [x for r in timed for x in r.latencies]
    # a problem's latency is its median over the passes, so one slow pass
    # cannot shift p50; the tail keeps every sample
    per_problem = [statistics.median(x) for x in zip(*(r.latencies for r in timed))]
    tail_s, tail_pct, samples = tail(latencies)
    branches = timed[0].branches
    values = {
        "wall_s": wall_s,
        "problem_p50_ms": 1e3 * statistics.median(per_problem),
        "problem_tail_ms": 1e3 * tail_s,
        "branches_per_s": branches / wall_s,
        "peak_mem_mb": peak_bytes / 1e6,
        "setup_s": setup_s,
        "failed_frac": failed / attempted,
    }
    notes = {
        "wall_s": (f"median of {len(timed)} untraced passes of {len(timed[0].latencies)} problems: "
                   + ", ".join(f"{r.wall_s:.3f}" for r in timed)),
        "problem_p50_ms": (f"median over {len(per_problem)} problems of each one's median"
                           f" over {len(timed)} passes"),
        "problem_tail_ms": f"p{tail_pct:.1f} of {samples} samples, {TAIL_BEYOND} beyond it",
        "branches_per_s": (f"{branches} branches per pass, trials x s per successful sweep"
                           if branches else "no simulation on this workload"),
        "peak_mem_mb": "peak RSS of a fresh interpreter making one pass",
        "setup_s": f"median of {SETUP_REPEATS} fresh imports + input generation",
        "failed_frac": f"{failed} failed / {attempted} attempted CLI calls",
    }
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = load_definition()
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    try:
        setup_s, problems = measure_setup(args.workload, args.seed, workdir)
        checker = Checker(args.workload, problems, workdir)

        peak_bytes = peak_memory_bytes(args.workload, args.seed, workdir)
        warm = checker.run_pass()
        timed: list[PassResult] = []
        start = time.perf_counter()
        while len(timed) < MIN_PASSES or time.perf_counter() - start < args.seconds:
            timed.append(checker.run_pass())
        tracers, traced = traced_passes(checker) if args.trace else ([], [])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = checker.calls_per_pass * len(timed)
    failed = sum(len(r.failures) for r in timed)
    end_to_end, notes = end_to_end_metrics(timed, peak_bytes, setup_s, attempted, failed)
    units = {e["name"]: e["unit"] for e in definition["end_to_end"]} | PRINTED_ONLY_UNITS
    for name, value in end_to_end.items():
        print(f"metric {name} = {value:.6g} {units[name]}  ({notes[name]})")

    counts_repeat = True
    layer = {}
    if args.trace:
        first, second = (t.layer_metrics() for t in tracers)
        for key in EXACT_COUNTS:
            if first[key] != second[key]:
                counts_repeat = False
                print(f"count drift: {key} = {first[key]} then {second[key]}")
        layer = second | {"trace.overhead_s": traced[1].wall_s - end_to_end["wall_s"]}
        for entry in definition["per_layer"]:
            print(f"layer {entry['name']} = {layer[entry['name']]:.6g} {entry['unit']}")
        print(f"layer phases.search.useful_ratio base: {layer['phases.search.useful']:g} useful"
              f" / {layer['phases.search.started']:g} searches started")
        spans_path = os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl")
        tracers[1].dump(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)}"
              f" ({len(tracers[1].spans)} spans)")

    every_failure = {f for r in [warm, *timed, *traced] for f in r.failures}
    for f in sorted(every_failure, key=lambda f: (f.pid, f.command, f.reason)):
        print(f"failure [{'known' if f.known else 'UNEXPECTED'}] {f.pid} {f.command}: {f.reason}")
    correct = counts_repeat and all(f.known for f in every_failure)

    selected = definition["per_layer"] if args.trace else definition["end_to_end"]
    values = layer if args.trace else end_to_end
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in selected}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
