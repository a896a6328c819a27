"""Seeded inputs for the certlab benchmark workloads.

A workload is a fixed sequence of `certlab` CLI commands. `build` writes
every input the program receives (the JSON configs and, for
`multiclass-k3` and the NTK check of `kernels-export`, generated graphs)
into a work directory, with paths relative to it, so one seed always
gives the same bytes.

A run of the benchmark cycles through VARIANTS input variants of its
seed, so that one run measures many inputs: cost in the unsaturated
regime varies by about 35% from one graph to the next.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Why each workload is in the benchmark; BENCHMARK.json carries the same text.
WHY = {
    "paper-sample": "paper regime (C=0.001, every coordinate saturates): enumeration "
                    "overhead, per-leaf SvmProblem validation and eps-prefix reuse dominate",
    "mixed-collective": "unsaturated regime (C=1) on preferential-attachment graphs with "
                        "the collective reducer: coordinate descent dominates, fast path bypassed",
    "multiclass-k3": "three classes: each test node triggers its own enumeration and K "
                     "clean solves, so a single leaf stream has a |T|-fold effect here",
    "kernels-export": "empirical NTK of seven architectures plus MPS export: reaches ntk "
                      "and milp, runs no enumeration and no leaf QPs",
}
NAMES = tuple(WHY)
VARIANTS = 12


@dataclass(frozen=True)
class Command:
    """One CLI invocation: `certlab <argv...>`, run with the work directory as cwd."""

    argv: tuple
    config: str   # config file, relative to the work directory
    output: str   # output directory the config names
    cells: int    # operations it counts toward fail_ratio


@dataclass(frozen=True)
class Workload:
    name: str
    workdir: str
    commands: tuple


def _write_json(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _command(workdir, sub, tag, config) -> Command:
    config = dict(config, output_dir=f"out_{tag}")
    _write_json(os.path.join(workdir, f"{tag}.json"), config)
    if sub == "certify":
        cells = len(config["seeds"]) * len(config["architectures"]) * len(config["epsilons"])
    else:
        cells = 1  # validate-ntk and export count as one operation each
    return Command((sub, "--config", f"{tag}.json"), f"{tag}.json", f"out_{tag}", cells)


def sbm_graph(seed: int, num_classes: int, n: int, per_class: int, p: float,
              q: float, d: int) -> dict:
    """A balanced SBM with Gaussian class means, as a graph JSON document.

    certlab's own samplers draw two classes only, and draw class sizes at
    random, so a small graph may hold too few nodes of a class to label.
    The benchmark makes such inputs itself and hands them over as `file`
    datasets: every class has exactly n // num_classes nodes.
    """
    rng = np.random.Generator(np.random.Philox(key=[seed, num_classes]))
    classes = np.arange(1, num_classes + 1)
    labels = rng.permutation(np.repeat(classes, n // num_classes))
    means = rng.standard_normal((num_classes, d))
    features = means[labels - 1] + rng.standard_normal((labels.size, d))
    iu, ju = np.triu_indices(labels.size, k=1)
    keep = rng.random(iu.size) < np.where(labels[iu] == labels[ju], p, q)
    order = rng.permutation(labels.size)
    labeled = [int(i) for c in classes for i in order[labels[order] == c][:per_class]]
    return {
        "n": int(labels.size), "d": d, "num_classes": num_classes,
        "features": [[float(x) for x in row] for row in features],
        "edges": [[int(u), int(v)] for u, v in zip(iu[keep], ju[keep])],
        "labels": [int(c) for c in labels],
        "labeled": labeled,
        "seed": int(seed),
    }


def build(name: str, seed: int, workdir: str) -> Workload:
    """Write the inputs of workload `name` for `seed` into `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    if name == "paper-sample":
        commands = [_command(workdir, "certify", "paper", {
            "dataset": {"kind": "csbm", "n": 200, "labeled_per_class": 8},
            "architectures": [
                {"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 0.001},
                {"name": "sgc", "kind": "sgc", "depth": 1, "conv": "row", "C": 0.001},
            ],
            "epsilons": [0.0625, 0.125, 0.1875, 0.25],
            "certificate": "sample",
            "test_nodes": "all-unlabeled",
            "seeds": [seed],
        })]
    elif name == "mixed-collective":
        commands = [_command(workdir, "certify", "mixed", {
            "dataset": {"kind": "cba", "n": 200, "labeled_per_class": 6},
            "architectures": [
                {"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 1.0},
                {"name": "appnp", "kind": "appnp", "depth": 1, "conv": "sym",
                 "alpha": 0.1, "power_k": 10, "C": 1.0},
            ],
            "epsilons": [0.09, 0.17],
            "certificate": "collective",
            "test_nodes": "all-unlabeled",
            "seeds": [12 * seed + k for k in range(12)],
        })]
    elif name == "multiclass-k3":
        _write_json(os.path.join(workdir, "graph3.json"),
                    sbm_graph(seed, 3, n=90, per_class=4, p=0.1, q=0.005, d=8))
        config = {
            "dataset": {"kind": "file", "path": "graph3.json"},
            "architectures": [{"name": "gcn", "kind": "gcn", "depth": 1,
                               "conv": "row", "C": 0.01}],
            "epsilons": [0.09, 0.17],
            "test_nodes": {"sample": 10, "seed": seed},
            "seeds": [seed],
        }
        commands = [
            _command(workdir, "certify", "exact",
                     dict(config, certificate="multiclass-exact")),
            _command(workdir, "certify", "inexact",
                     dict(config, certificate="multiclass-inexact")),
        ]
    elif name == "kernels-export":
        mc = {"depth": 2, "conv": "row"}
        _write_json(os.path.join(workdir, "graph2.json"),
                    sbm_graph(seed, 2, n=12, per_class=2, p=0.3, q=0.1, d=1))
        commands = [
            _command(workdir, "validate-ntk", "ntk", {
                "dataset": {"kind": "file", "path": "graph2.json"},
                "architectures": [
                    {"name": "mlp", "kind": "mlp", "depth": 2, "C": 1.0},
                    {"name": "gcn", "kind": "gcn", **mc, "C": 1.0},
                    {"name": "sgc", "kind": "sgc", **mc, "C": 1.0},
                    {"name": "ppnp", "kind": "ppnp", "depth": 1, "conv": "row",
                     "alpha": 0.2, "C": 1.0},
                    {"name": "appnp", "kind": "appnp", "depth": 1, "conv": "row",
                     "alpha": 0.2, "power_k": 5, "C": 1.0},
                    {"name": "skip_pc", "kind": "skip_pc", "depth": 1, "conv": "row",
                     "C": 1.0},
                    {"name": "skip_alpha", "kind": "skip_alpha", "depth": 1,
                     "conv": "row", "alpha": 0.2, "C": 1.0},
                ],
                "epsilons": [0.1],
                "seeds": [seed],
                "widths": [128, 512],
                "nt_samples": 32,
                "threshold": 0.1,
                "width_seed": seed,
            }),
            _command(workdir, "export", "export", {
                "dataset": {"kind": "csbm", "n": 200, "labeled_per_class": 10},
                "architectures": [{"name": "gcn", "kind": "gcn", "depth": 1,
                                   "conv": "row", "C": 0.001}],
                "epsilons": [0.1, 0.25],
                "test_nodes": {"sample": 10, "seed": seed},
                "seeds": [seed],
            }),
        ]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, workdir, tuple(commands))


def variants(name: str, seed: int, workdir: str) -> list:
    """The VARIANTS workloads of one run: variant j uses input seed seed * VARIANTS + j."""
    return [build(name, seed * VARIANTS + j, os.path.join(workdir, f"v{j}"))
            for j in range(VARIANTS)]
