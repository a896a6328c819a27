"""In-process spans around certlab's layer boundaries, and the per-layer metrics.

`Tracer.install` replaces the names that certlab's own callers resolve
(module attributes of `certlab.cli` and `certlab.certify`) with timing
wrappers; `uninstall` puts the originals back. Nothing under `src/` is
edited. Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import itertools
import os
import statistics
import threading
import time
from dataclasses import dataclass, field

EMPIRICAL_KINDS = ("mlp", "gcn", "sgc", "ppnp", "appnp", "skip_pc", "skip_alpha")

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [("graph.make_s", "s", "lower"), ("graph.calls", "count", "lower"),
     ("ntk.analytic_s", "s", "lower"), ("ntk.analytic_calls", "count", "lower")]
    + [(f"ntk.empirical_s.{k}", "s", "lower") for k in EMPIRICAL_KINDS]
    + [("ntk.empirical_calls", "count", "lower"),
       ("svm.qp_solves.certify", "count", "lower"), ("svm.qp_solves.cli", "count", "lower"),
       ("svm.solve_s", "s", "lower"), ("svm.us_per_solve", "us", "lower"),
       ("svm.sweeps", "count", "lower"), ("svm.sweeps_per_solve", "sweeps/solve", "lower"),
       ("svm.sweeps_max", "count", "lower"), ("svm.warm_solves", "count", "lower"),
       ("svm.problem_s", "s", "lower"), ("svm.us_per_problem", "us", "lower"),
       ("svm.margins_s", "s", "lower"), ("svm.margins_calls", "count", "lower"),
       ("certify.s", "s", "lower"), ("certify.self_s", "s", "lower"),
       ("certify.calls", "count", "lower"), ("certify.qp_per_verdict", "solves/verdict", "lower"),
       ("milp.build_s", "s", "lower"), ("milp.write_s", "s", "lower"),
       ("milp.models", "count", "higher"), ("milp.bytes_written", "bytes", "lower"),
       ("milp.us_per_model", "us", "lower"),
       ("cli.run_s", "s", "lower"), ("cli.self_s", "s", "lower"), ("cli.cells", "count", "higher"),
       ("cli.cell_ms.p50", "ms", "lower"), ("cli.cells_failed", "count", "lower"),
       ("cli.workers", "count", "higher"), ("trace.overhead_s", "s", "lower")]
)

# Metrics that count work; they must repeat exactly for one seed.
COUNTS = ("graph.calls", "ntk.analytic_calls", "ntk.empirical_calls", "svm.qp_solves.certify",
          "svm.qp_solves.cli", "svm.sweeps", "svm.sweeps_per_solve", "svm.sweeps_max",
          "svm.warm_solves", "svm.margins_calls", "certify.calls", "certify.qp_per_verdict",
          "milp.models", "milp.bytes_written", "cli.cells", "cli.cells_failed", "cli.workers")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: int
    attrs: dict = field(default_factory=dict)


def self_times(spans) -> dict:
    """Span id -> duration minus the union of its direct children's intervals.

    Children may overlap (cells of one run execute on several threads), so
    covered time is the measure of the union, clipped to the parent.
    """
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


class Tracer:
    """Records spans with per-thread parent stacks.

    A span opened on a thread with an empty stack (a pool thread running a
    grid cell) takes as parent the innermost open span of the thread that
    called `begin`, i.e. the command being traced.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home: list = []
        self._saved: list = []

    def begin(self, run: int) -> None:
        self.run = run
        self._home = self._stack()

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, attrs=None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._home[-1] if self._home else None)
        span = Span(next(self._ids), name, 0.0, 0.0, parent, threading.get_ident(),
                    self.run, attrs if attrs is not None else {})
        stack.append(span.id)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)
        return result

    def _wrap(self, module, attr, name, before=None, after=None):
        original = getattr(module, attr)

        def wrapper(*args, **kwargs):
            attrs = before(args, kwargs) if before is not None else {}
            result = self.call(name, original, args, kwargs, attrs)
            if after is not None:
                after(attrs, args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self, cli, certify) -> None:
        """Wrap the layer entry points that `cli` and `certify` call by name."""
        for module, layer in ((certify, "certify"), (cli, "cli")):
            self._wrap(module, "solve_dual", f"svm.solve_dual.{layer}", before=_count_sweeps)
            self._wrap(module, "SvmProblem", "svm.problem")
            self._wrap(module, "margins", "svm.margins")
        for attr in sorted(vars(cli)):
            if attr.startswith("certify_"):
                self._wrap(cli, attr, f"certify.{attr}", after=_count_verdicts)
            elif attr.startswith("build_"):
                self._wrap(cli, attr, f"milp.{attr}")
            elif attr.startswith("write_"):
                self._wrap(cli, attr, f"milp.{attr}", after=_count_bytes)
            elif attr == "ntk_empirical":
                self._wrap(cli, attr, "ntk.empirical", before=_empirical_kind)
            elif attr.startswith("ntk_"):
                self._wrap(cli, attr, f"ntk.{attr[4:]}")
        self._wrap(cli, "make_graph", "graph.make_graph")
        self._wrap(cli, "run", "cli.run")
        self._wrap(cli, "validate_ntk", "cli.validate_ntk")
        self._wrap(cli, "_run_cell", "cli.cell")

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _count_sweeps(args, kwargs) -> dict:
    """Count coordinate-descent sweeps through solve_dual's sweep_callback."""
    attrs = {"sweeps": 0, "warm": kwargs.get("alpha0", args[3] if len(args) > 3 else None)
             is not None}
    if kwargs.get("sweep_callback") is None and len(args) < 6:
        def tick(_objective):
            attrs["sweeps"] += 1
        kwargs["sweep_callback"] = tick
    return attrs


def _count_verdicts(attrs, args, kwargs, result) -> None:
    attrs["verdicts"] = len(result.misclassified) if hasattr(result, "misclassified") else (
        len(result) if isinstance(result, list) else 1)


def _count_bytes(attrs, args, kwargs, result) -> None:
    path = str(args[1] if len(args) > 1 else kwargs["path"])
    attrs["bytes"] = sum(os.path.getsize(p) for p in (path, path + ".meta.json")
                         if os.path.exists(p))


def _empirical_kind(args, kwargs) -> dict:
    return {"kind": (args[0] if args else kwargs["spec"]).kind}


def layer_metrics(spans, workers: int) -> dict:
    """Per-layer numbers of one traced pass (everything except trace.overhead_s)."""
    selfs = self_times(spans)

    def group(prefix):
        return [s for s in spans if s.name.startswith(prefix)]

    def dur(ss):
        return sum(s.end - s.start for s in ss)

    solves = group("svm.solve_dual.")
    problems, margins_ = group("svm.problem"), group("svm.margins")
    certs = group("certify.")
    builds, writes = group("milp.build_"), group("milp.write_")
    empirical = group("ntk.empirical")
    cli_spans = [s for s in spans if s.name in ("cli.run", "cli.validate_ntk", "cli.cell")]
    cells = group("cli.cell")
    sweeps = [s.attrs["sweeps"] for s in solves]
    verdicts = sum(s.attrs.get("verdicts", 0) for s in certs)
    qp_certify = sum(1 for s in solves if s.name.endswith(".certify"))
    m = {
        "graph.make_s": dur(group("graph.")), "graph.calls": len(group("graph.")),
        "ntk.analytic_s": dur(group("ntk.analytic")),
        "ntk.analytic_calls": len(group("ntk.analytic")),
    }
    for kind in EMPIRICAL_KINDS:
        m[f"ntk.empirical_s.{kind}"] = dur([s for s in empirical if s.attrs["kind"] == kind])
    m.update({
        "ntk.empirical_calls": len(empirical),
        "svm.qp_solves.certify": qp_certify,
        "svm.qp_solves.cli": len(solves) - qp_certify,
        "svm.solve_s": dur(solves),
        "svm.us_per_solve": 1e6 * dur(solves) / len(solves) if solves else 0.0,
        "svm.sweeps": sum(sweeps),
        "svm.sweeps_per_solve": sum(sweeps) / len(sweeps) if sweeps else 0.0,
        "svm.sweeps_max": max(sweeps, default=0),
        "svm.warm_solves": sum(1 for s in solves if s.attrs["warm"]),
        "svm.problem_s": dur(problems),
        "svm.us_per_problem": 1e6 * dur(problems) / len(problems) if problems else 0.0,
        "svm.margins_s": dur(margins_), "svm.margins_calls": len(margins_),
        "certify.s": dur(certs), "certify.self_s": sum(selfs[s.id] for s in certs),
        "certify.calls": len(certs),
        "certify.qp_per_verdict": qp_certify / verdicts if verdicts else 0.0,
        "milp.build_s": dur(builds), "milp.write_s": dur(writes), "milp.models": len(builds),
        "milp.bytes_written": sum(s.attrs.get("bytes", 0) for s in writes),
        "milp.us_per_model": 1e6 * (dur(builds) + dur(writes)) / len(builds) if builds else 0.0,
        "cli.run_s": dur([s for s in cli_spans if s.name != "cli.cell"]),
        "cli.self_s": sum(selfs[s.id] for s in cli_spans),
        "cli.cells": len(cells),
        "cli.cell_ms.p50": 1e3 * statistics.median(s.end - s.start for s in cells) if cells else 0.0,
        "cli.cells_failed": sum(1 for s in cells if "error" in s.attrs),
        "cli.workers": workers,
    })
    return m
