"""The names of `certlab.cli` and `certlab.certify` that the benchmark resolves.

`perfbench/tracing.py` wraps module attributes by name and
`perfbench/setup_probe.py` calls a few CLI helpers, so deleting or renaming
one of them breaks the benchmark, not the library. Both run here on a
small config; nothing under `perfbench/` is changed.
"""

import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys

import certlab.certify
import certlab.cli
from conftest import count_solves

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", os.path.join(PERFBENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def collective_config(tmp_path):
    cfg = {
        "dataset": {"kind": "csbm", "n": 24, "p": 0.35, "q": 0.1, "labeled_per_class": 3},
        # C = 1 keeps the scans off the saturated shortcut, so leaves are solved
        "architectures": [{"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 1.0}],
        "epsilons": [0.2, 0.5],
        "certificate": "collective",
        "test_nodes": {"sample": 5, "seed": 3},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_tracer_wraps_a_certify_run(tmp_path, monkeypatch):
    tracing = load_tracing(monkeypatch)
    path = collective_config(tmp_path)
    chunks = []
    solves = count_solves(monkeypatch, chunks=chunks)
    tracer = tracing.Tracer()
    tracer.install(certlab.cli, certlab.certify)
    try:
        tracer.begin(0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert certlab.cli.main(["certify", "--config", path]) == 0
    finally:
        tracer.uninstall()
    assert certlab.cli.run.__module__ == "certlab.cli"  # the originals are back
    metrics = tracing.layer_metrics(tracer.spans, certlab.cli.worker_count())
    assert set(metrics) == {name for name, _, _ in tracing.PER_LAYER} - {"trace.overhead_s"}
    assert metrics["cli.cells"] == 1 and metrics["cli.cells_failed"] == 0
    assert metrics["cli.run_s"] > 0.0 and metrics["graph.calls"] == 1
    assert metrics["ntk.analytic_calls"] == 1 and metrics["cli.workers"] == 1
    # one margins product per chunk of leaves, the clean leaf's included;
    # the clean leaf is the one traced CD solve
    assert metrics["svm.margins_calls"] == len(chunks) > 1
    assert sum(chunks) == len(solves) > len(chunks)
    assert metrics["svm.qp_solves.certify"] >= 1


def test_setup_probe_runs(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["setup_probe.py", collective_config(tmp_path)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(os.path.join(PERFBENCH, "setup_probe.py"), run_name="__main__")
    assert json.loads(out.getvalue()) == {"workers": certlab.cli.worker_count()}
