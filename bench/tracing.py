"""Span tracing of the qteleport layers, installed from outside the package.

`Tracer.install()` monkeypatches the public functions of each module with
wrappers that record one span per call: name, start, end, parent span and
problem id.  Modules that import a function by name (``cli`` imports
``random_input_sweep``, ``run_protocol``, ``bob_unitaries`` and others) get
the same wrapper under that name, so every call path is seen.  Nothing under
``src/`` is edited; `Tracer.uninstall()` restores the originals.

Spans stay in memory; `layer_metrics()` folds them into per-layer counts and
busy/self times, and `dump()` writes them out once the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field

import qteleport.bounds as q_bounds
import qteleport.cli as q_cli
import qteleport.phases as q_phases
import qteleport.protocol as q_protocol
import qteleport.reportio as q_reportio
import qteleport.sim as q_sim
from qteleport.errors import PhaseFactorsNotFound
from qteleport.spectrum import SchmidtSpectrum

SUBCOMMANDS = ("simulate", "synthesize", "verify", "bounds", "concentrate")
EXIT_LABELS = ("0", "2", "3", "4", "5", "6", "exception")

# span name -> (module, attribute) pairs to patch; the first pair is the home
# module, the others are the by-name imports that call sites resolve through
PATCH_SITES = {
    "linalg.schmidt_number": [(q_sim, "schmidt_number")],
    "sim.run_protocol": [(q_sim, "run_protocol"), (q_cli, "run_protocol")],
    "sim.random_input_sweep": [(q_sim, "random_input_sweep"), (q_cli, "random_input_sweep")],
    "protocol.bob_unitaries": [(q_protocol, "bob_unitaries"), (q_cli, "bob_unitaries")],
    "protocol.synthesize_d2": [(q_protocol, "synthesize_d2"), (q_cli, "synthesize_d2")],
    "protocol.synthesize_general": [
        (q_protocol, "synthesize_general"), (q_cli, "synthesize_general"),
    ],
    "protocol.verify_conditions": [
        (q_protocol, "verify_conditions"), (q_cli, "verify_conditions"),
    ],
    "phases.solve_general": [
        (q_phases, "solve_general"), (q_protocol, "solve_general"), (q_cli, "solve_general"),
    ],
    "phases.find_partition": [(q_phases, "find_partition")],
    "phases.least_squares": [(q_phases, "least_squares")],
    "bounds.build_bounds_report": [
        (q_bounds, "build_bounds_report"), (q_cli, "build_bounds_report"),
    ],
    "bounds.concentration_bounds": [
        (q_bounds, "concentration_bounds"), (q_cli, "concentration_bounds"),
    ],
    "reportio.dumps": [(q_reportio, "dumps")],
    "reportio.loads": [(q_reportio, "loads")],
}
CONSTRUCTORS = ("from_rationals", "from_probs")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    problem: str
    child_s: float = 0.0  # time covered by direct children
    info: dict = field(default_factory=dict)

    @property
    def busy_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.busy_s - self.child_s


class Tracer:
    """Records spans around the wrapped layer functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.problem = ""

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.problem))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.busy_s
        return span

    def _wrap(self, name: str, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = func(*args, **kwargs)
            except BaseException as err:
                self.spans[index].info["raised"] = type(err).__name__
                raise
            finally:
                span = self._close(index)
            self._annotate(span, args, result)
            return result
        return traced

    @staticmethod
    def _annotate(span: Span, args, result) -> None:
        if span.name == "sim.run_protocol":
            span.info["branches"] = len(result.outcomes)
            span.info["trace_bytes"] = sum(
                rec.post_state.nbytes + rec.corrected_state.nbytes for rec in result.outcomes
            )
        elif span.name == "phases.least_squares":
            span.info["nfev"] = int(result.nfev)
        elif span.name == "reportio.dumps":
            span.info["bytes"] = len(result.encode("utf-8"))
        elif span.name == "phases.solve_general":
            span.info["d"] = int(args[1])

    def call_cli(self, problem: str, argv: list[str]):
        """Run one CLI call as a `cli.<subcommand>` span; returns its exit code."""
        self.problem = problem
        index = self._open(f"cli.{argv[0]}")
        try:
            code = q_cli.main(argv)
        except Exception:
            self.spans[index].info["exit"] = "exception"
            raise
        finally:
            self._close(index)
        self.spans[index].info["exit"] = str(code)
        return code

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        for name, sites in PATCH_SITES.items():
            wrapped = self._wrap(name, getattr(*sites[0]))
            for module, attr in sites:
                self._saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)
        for attr in CONSTRUCTORS:
            original = SchmidtSpectrum.__dict__[attr]
            self._saved.append((SchmidtSpectrum, attr, original))
            setattr(SchmidtSpectrum, attr,
                    classmethod(self._wrap("spectrum.construct", original.__func__)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- reduction --------------------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and busy/self seconds, keyed by metric name."""
        out: dict[str, float] = {}

        def add(key: str, value: float) -> None:
            out[key] = out.get(key, 0) + value

        for name in [*PATCH_SITES, "spectrum.construct", *(f"cli.{c}" for c in SUBCOMMANDS)]:
            for suffix in ("calls", "busy_s", "self_s"):
                out[f"{name}.{suffix}"] = 0
        for label in EXIT_LABELS:
            out[f"cli.exit.{label}"] = 0
        for key in ("sim.branches", "sim.trace_bytes_computed", "phases.least_squares.nfev",
                    "reportio.dumps.bytes", "phases.strategy.closed_form",
                    "phases.strategy.partition", "phases.strategy.search",
                    "phases.strategy.not_found", "phases.search.started",
                    "phases.search.useful"):
            out[key] = 0

        for index, span in enumerate(self.spans):
            add(f"{span.name}.calls", 1)
            add(f"{span.name}.busy_s", span.busy_s)
            add(f"{span.name}.self_s", span.self_s)
            info = span.info
            if span.name.startswith("cli."):
                add(f"cli.exit.{info['exit']}", 1)
            elif span.name == "sim.run_protocol" and "branches" in info:
                add("sim.branches", info["branches"])
                add("sim.trace_bytes_computed", info["trace_bytes"])
            elif span.name == "phases.least_squares" and "nfev" in info:
                add("phases.least_squares.nfev", info["nfev"])
            elif span.name == "reportio.dumps" and "bytes" in info:
                add("reportio.dumps.bytes", info["bytes"])
            elif span.name == "phases.solve_general":
                strategy = self._strategy(index, span)
                if strategy is not None:
                    add(f"phases.strategy.{strategy}", 1)
                if strategy in ("search", "not_found"):
                    add("phases.search.started", 1)
                    add("phases.search.useful", strategy == "search")

        for part in ("busy_s", "calls"):
            out[f"protocol.synthesize.{part}"] = (
                out[f"protocol.synthesize_d2.{part}"] + out[f"protocol.synthesize_general.{part}"]
            )
        started = out["phases.search.started"]
        out["phases.search.useful_ratio"] = (out["phases.search.useful"] / started
                                             if started else 0.0)
        return out

    def _strategy(self, index: int, span: Span) -> str | None:
        """Which solver strategy a solve_general call ended with, if any."""
        raised = span.info.get("raised")
        if raised == PhaseFactorsNotFound.__name__:
            return "not_found"
        if raised is not None:
            return None  # infeasible spectrum or bad input: no strategy ran
        if span.info["d"] == 2:
            return "closed_form"
        searched = any(
            child.parent == index and child.name == "phases.least_squares"
            for child in self.spans[index + 1:]
        )
        return "search" if searched else "partition"

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "name": span.name, "start": span.start, "end": span.end,
                    "parent": span.parent, "problem": span.problem, **span.info,
                }) + "\n")
