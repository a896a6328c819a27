"""Configuration-driven experiment runner and report generator.

One JSON config describes dataset, architectures (with per-architecture
C), the epsilon grid and the certificate kind; `run` executes the
(seed x architecture x epsilon) grid, `report` turns a finished bundle
into plot-ready CSVs, and `validate_ntk` sweeps empirical kernel widths
against the analytic ones.

Exit codes: 0 success, 1 a grid cell failed with another certlab error
(after the report bundle is written), 2 config error, 3 capacity error
in at least one grid cell and no other failure, 4 NTK validation
failure. Units run one after another, in ascending seed order and then
in config architecture order.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from types import SimpleNamespace

import numpy as np

from . import __version__
from .errors import DEFAULT_CAPACITY, CapacityError, CertlabError, ConfigError, GraphFormatError
from .graph import (
    CbaParams,
    CsbmParams,
    Graph,
    karate_club,
    load_graph,
    normalize_adjacency,
    normalize_features,
    sample_cba,
    sample_csbm,
    save_graph,
)
from .ntk import (READS, ArchitectureSpec, _check_values, check_width, kernel_to_csv,
                  ntk_analytic, ntk_empirical, save_kernel)
from .svm import DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SvmProblem, margins, one_vs_all_split, solve_dual

CERTIFICATE_KINDS = ("sample", "collective", "multiclass-exact",
                     "multiclass-inexact", "export-only")
SCIENCE_FIELDS = ("certified_ratio", "certified_accuracy", "clean_accuracy")
METRICS_FIELDS = ("seed", "arch", "epsilon", "kind", *SCIENCE_FIELDS, "runtime_ms")
# an architecture name becomes a CSV field and part of output file names
NAME_FORBIDDEN = ',"\n\r/\\'
# numpy keys Philox with [test_nodes.seed, seed] as int64 only below 2**63
SEED_LIMIT = 1 << 63
# per_node.json, one template per record kind: each renders the bytes
# json.dump(records, indent=1) writes, a record's head holding its cell
_NODE_HEAD = ' {\n  "seed": %d,\n  "arch": %s,\n  "epsilon": %s,\n'
_COLLECTIVE_NODE = '  "node": %d,\n  "misclassified_under_witness": %s\n }'
_SAMPLE_NODE = '  "node": %d,\n  "robust": %s,\n  "worst_objective": %s,\n  "witness": %s\n }'
_WITNESS_PAIR = '[\n    %d,\n    %d\n   ]'  # a multi-class (node, new_class) change
_JSON_BOOL = ("false", "true")


def worker_count() -> int:
    """Units run serially; the benchmark in `perfbench/` reads this count."""
    return 1


def _integer(value) -> int:
    """The converter of every integer field: 10.0, 1.7, true or "3" is a TypeError."""
    if type(value) is not int:  # bool is a subclass of int
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _number(value) -> float:
    """The converter of every float field: a JSON integer or float; true or "0.5" is a TypeError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer past the float range
        raise ValueError(f"{value} is out of range") from exc


def _nonempty_str(value) -> bool:
    return isinstance(value, str) and value != ""


# each annotation a config dataclass field carries, and how a JSON value converts to it
CONVERTERS = {
    "int": _integer, "int | None": _integer, "list[int]": lambda v: [_integer(x) for x in v],
    "tuple[int, ...]": lambda v: tuple(map(_integer, v)),
    "float": _number, "float | None": _number, "list[float]": lambda v: [_number(x) for x in v],
    "tuple[tuple[float, float], tuple[float, float]]":  # CbaParams.affinity
        lambda w: tuple(tuple(map(_number, row)) for row in w),
    "dict": dict, "list[dict]": lambda v: [dict(a) for a in v],
    "str": lambda v: v, "dict | str": lambda v: v,  # `validate` checks these
}
GENERATORS = {"csbm": (sample_csbm, CsbmParams), "cba": (sample_cba, CbaParams)}
ARCH_KEYS = ("name", "C", "conv", "beta")  # the architecture keys `cli` reads itself


def _section(what: str, cls, doc: dict, own=()) -> dict:
    """Each key of config section `doc` converted by the annotation of the `cls` field it
    fills; `cli` reads the keys in `own` itself. Any other key, or a value its converter
    refuses, is a config error `invalid {what}: ...`. A field left out keeps its default."""
    types = {f.name: f.type for f in fields(cls) if f.name not in own} if cls else {}
    try:
        if unknown := [key for key in doc if key not in types and key not in own]:
            raise ValueError(f"unknown key {', '.join(map(repr, unknown))}")
        return {key: CONVERTERS[types[key]](value) for key, value in doc.items() if key in types}
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc


def _arch_params(arch: dict) -> dict:
    """The `ArchitectureSpec` parameters of a config architecture. A key its kind never
    reads (see `ntk.READS`; `conv` and `beta` go with the convolution kinds) is a config
    error whatever its value, and so are a value the spec would reject, a `conv` other
    than row or sym and a `beta` that is not a finite number > 0."""
    what = f"architecture {arch}"
    params = _section(what, ArchitectureSpec, arch, ARCH_KEYS)
    try:
        reads = READS.get(params.get("kind"))
        if reads is None:
            raise ValueError(f"unknown architecture kind {params.get('kind')!r}")
        graph_keys = ("conv", "beta") if "conv" in reads else ()
        if unread := [key for key in arch if key not in (*reads, *graph_keys, "kind", "name", "C")]:
            raise ValueError(f"{params['kind']} reads no {', '.join(map(repr, unread))}")
        _check_values(params)
        if arch.get("conv", "row") not in ("row", "sym"):
            raise ValueError(f"conv must be 'row' or 'sym', not {arch['conv']!r}")
        if not 0.0 < _number(arch.get("beta", 1.0)) < math.inf:  # NaN fails too
            raise ValueError(f"beta must be a finite number > 0, not {arch['beta']!r}")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {what}: {exc}") from exc
    return params


def _graph_params(ds: dict) -> dict:
    """The generator parameters of a dataset; `seed` is ignored: grid seeds seed graphs."""
    own = ("kind", "normalize_features", "seed", *(("path",) if ds["kind"] == "file" else ()))
    return _section(f"dataset {ds}", GENERATORS.get(ds["kind"], (None, None))[1], ds, own)


@dataclass
class ExperimentConfig:
    dataset: dict
    architectures: list[dict]
    epsilons: list[float]
    certificate: str = "sample"
    test_nodes: dict | str = "all-unlabeled"
    seeds: list[int] = field(default_factory=lambda: [0])
    output_dir: str = "certlab_out"
    capacity: int = DEFAULT_CAPACITY
    tol: float = DEFAULT_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    export_model: str = "sample"
    widths: tuple[int, ...] = (256, 1024, 4096)
    nt_samples: int = 20
    threshold: float = 0.05
    width_seed: int = 0
    replay_timings = None  # a manifest's cell timings: not a field, so not a config key

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ConfigError("invalid experiment config: expected a JSON object, "
                              f"not {type(doc).__name__}")
        timings = None
        if "config" in doc:  # a manifest: replay its config and reuse timings
            timings = doc.get("timings")
            if timings is not None and not isinstance(timings, dict):
                raise ConfigError("invalid manifest: timings must be a JSON object")
            if any(isinstance(ms, bool) or not isinstance(ms, (int, float))
                   or not 0.0 <= ms < math.inf for ms in (timings or {}).values()):  # NaN too
                raise ConfigError("invalid manifest: timings must be finite numbers >= 0")
            doc = doc["config"]
        try:
            cfg = cls(**_section("experiment config", cls, doc))
            cfg.replay_timings = timings
            cfg.validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid experiment config: {exc}") from exc
        return cfg

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
        return cls.from_dict(doc)

    def validate(self) -> None:
        if self.dataset.get("kind") not in (*GENERATORS, "file", "karate"):
            raise ConfigError("dataset.kind must be csbm, cba, file or karate")
        if self.dataset["kind"] == "file" and not _nonempty_str(self.dataset.get("path")):
            raise ConfigError(f"invalid dataset {self.dataset}: path must be a non-empty string")
        if not _nonempty_str(self.output_dir):
            raise ConfigError("output_dir must be a non-empty string")
        if type(self.dataset.get("normalize_features", False)) is not bool:
            raise ConfigError("dataset.normalize_features must be true or false")
        _graph_params(self.dataset)
        if not self.architectures:
            raise ConfigError("need at least one architecture")
        for arch in self.architectures:
            _arch_params(arch)
            if not _nonempty_str(arch.get("name", arch.get("kind"))):
                raise ConfigError(f"invalid architecture {arch}: name must be a non-empty string")
            if not 0.0 < _number(arch.get("C", 0.0)) < math.inf:  # NaN fails too
                raise ConfigError(f"architecture {arch} needs a finite C > 0")
        names = [self.arch_name(i) for i in range(len(self.architectures))]
        if len(set(names)) != len(names):
            raise ConfigError("architecture names collide; add distinct 'name' fields")
        if any(set(name) & set(NAME_FORBIDDEN) for name in names):
            raise ConfigError("architecture names must not contain a comma, a double "
                              "quote, a line break or a path separator")
        if not self.epsilons:
            raise ConfigError("need a non-empty epsilon grid")
        if any(not 0.0 < e <= 1.0 for e in self.epsilons):
            raise ConfigError("epsilon values must lie in (0, 1]")
        if sorted(set(self.epsilons)) != self.epsilons:
            raise ConfigError("epsilon grid must be sorted ascending, without repeats")
        if self.certificate not in CERTIFICATE_KINDS:
            raise ConfigError(f"certificate must be one of {CERTIFICATE_KINDS}")
        if self.export_model not in ("sample", "collective"):
            raise ConfigError("export_model must be 'sample' or 'collective'")
        seed_fields = [*self.seeds, self.width_seed]
        if isinstance(self.test_nodes, str):
            if self.test_nodes != "all-unlabeled":
                raise ConfigError("test_nodes must be 'all-unlabeled' or a sample spec")
        elif not (isinstance(self.test_nodes, dict) and self.test_nodes.keys() <= {"sample", "seed"}
                  and _integer(self.test_nodes.get("sample")) >= 1):
            raise ConfigError("test_nodes must be 'all-unlabeled' or {'sample': k, 'seed': s} "
                              f"with integers k >= 1 and s, not {self.test_nodes!r}")
        else:
            seed_fields.append(_integer(self.test_nodes.get("seed", 0)))
        if not self.seeds:
            raise ConfigError("need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds repeat a value")
        if not all(0 <= seed < SEED_LIMIT for seed in seed_fields):
            raise ConfigError("seeds, test_nodes.seed and width_seed must lie in [0, 2**63)")
        if not self.widths or min(self.widths) < 8:
            raise ConfigError("widths must be a non-empty list of integers >= 8")
        if self.nt_samples < 1:
            raise ConfigError("nt_samples must be at least 1")
        if self.max_sweeps < 1 or not 0.0 < self.tol < math.inf:  # NaN fails too
            raise ConfigError("solver settings need max_sweeps >= 1 and a finite tol > 0")
        if self.capacity < 1:
            raise ConfigError("capacity must be at least 1 leaf")
        if not 0.0 <= self.threshold < math.inf:  # NaN fails too
            raise ConfigError("threshold must be finite and >= 0")

    def arch_name(self, index: int) -> str:
        return self.architectures[index].get("name", self.architectures[index]["kind"])

    def select(self, seed_filter=None, arch_filter=None, eps_filter=None):
        """The seeds, (name, arch) pairs and epsilons the filters keep, in
        config order; a filter that keeps none of its kind is a config error."""
        seeds = [s for s in self.seeds if seed_filter is None or s in seed_filter]
        archs = [(self.arch_name(i), arch) for i, arch in enumerate(self.architectures)
                 if arch_filter is None or self.arch_name(i) in arch_filter]
        epsilons = [e for e in self.epsilons if eps_filter is None or e in eps_filter]
        if not (seeds and archs and epsilons):
            raise ConfigError("filters removed every grid cell")
        return seeds, archs, epsilons


@dataclass
class ReportBundle:
    output_dir: str
    metrics_path: str
    per_node_path: str
    witness_path: str
    manifest_path: str
    rows: list[dict]
    manifest: dict
    failures: dict  # cell key -> the CertlabError that left it without a result


def make_graph(config: ExperimentConfig, seed: int) -> Graph:
    ds = config.dataset
    try:
        if ds["kind"] == "file":
            graph = load_graph(ds["path"])
        elif ds["kind"] == "karate":
            graph = karate_club()
        else:
            sample, params = GENERATORS[ds["kind"]]
            graph = sample(params(seed=seed, **_graph_params(ds)))
    except (KeyError, TypeError, ValueError, OSError, GraphFormatError) as exc:
        raise ConfigError(f"invalid dataset {ds}: {exc}") from exc
    if ds.get("normalize_features", False):
        graph = normalize_features(graph)
    return graph


def make_arch_spec(arch: dict, graph: Graph) -> ArchitectureSpec:
    params = _arch_params(arch)
    try:
        conv = None
        if "conv" in READS[params["kind"]]:
            conv = normalize_adjacency(graph, arch.get("conv", "row"), float(arch.get("beta", 1.0)))
        return ArchitectureSpec(conv=conv, **params)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid architecture {arch}: {exc}") from exc


def select_test_nodes(config: ExperimentConfig, graph: Graph, seed: int) -> np.ndarray:
    unl = graph.unlabeled
    if unl.size == 0:
        raise ConfigError("the graph has no unlabeled node to certify")
    if isinstance(config.test_nodes, str):
        return unl
    k = config.test_nodes["sample"]
    if k > unl.size:
        raise ConfigError(f"cannot sample {k} test nodes from {unl.size} unlabeled")
    rng = np.random.Generator(np.random.Philox(key=[config.test_nodes.get("seed", 0), seed]))
    return np.sort(rng.choice(unl, size=k, replace=False))


def binary_targets(graph: Graph) -> np.ndarray:
    """Class 2 maps to +1, class 1 to -1."""
    return one_vs_all_split(graph.labels, 2)


def _cell_key(seed: int, arch: str, eps: float) -> str:
    return f"s{seed}|{arch}|e{eps!r}"


def _witness_json(w) -> list:
    return [list(x) if isinstance(x, tuple) else int(x) for x in w]


def _json_float(x: float) -> str:
    """A float as `json` writes it: its repr, or NaN, Infinity, -Infinity."""
    return float.__repr__(x) if math.isfinite(x) else json.dumps(x)


def _witness_text(w) -> str:
    """A witness, flip set or multi-class changes, as a per_node.json record holds it."""
    if not w:
        return "[]"
    items = (_WITNESS_PAIR % x if isinstance(x, tuple) else "%d" % x for x in w)
    return "[\n   " + ",\n   ".join(items) + "\n  ]"


def _node_records(test, result):
    """Yield the per_node.json records of one cell, each rendered from the
    template of its kind: collective flags, or a sample-wise or multi-class
    certificate with its witness. Rendering waits for the file: a cell
    holds its certificates until then, not its text."""
    from .certify import CollectiveCertificate
    if isinstance(result, CollectiveCertificate):
        for t, flag in zip(np.asarray(test).tolist(), result.misclassified.tolist()):
            yield _COLLECTIVE_NODE % (t, _JSON_BOOL[flag])
    else:
        for c in result:
            yield _SAMPLE_NODE % (c.node, _JSON_BOOL[c.robust], _json_float(c.worst_objective),
                                  _witness_text(c.witness))


def _dump_per_node(cells, output_dir: str) -> str:
    """Write per_node.json record by record from (seed, arch, epsilon,
    records) cells, each record rendered from its template: the bytes
    json.dump(records, indent=1) writes, with a final line end."""
    path = os.path.join(output_dir, "per_node.json")
    with open(path, "w") as fh:
        sep = "[\n"
        for seed, name, eps, records in cells:
            head = _NODE_HEAD % (seed, json.dumps(name), _json_float(eps))
            for record in records:
                fh.write(sep + head + record)
                sep = ",\n"
        fh.write("[]\n" if sep == "[\n" else "\n]\n")
    return path


def _dump_json(doc, output_dir: str, name: str) -> str:
    path = os.path.join(output_dir, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _dump_csv(rows: list[dict], fields, output_dir: str, name: str) -> str:
    path = os.path.join(output_dir, name)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return path


def _run_cell(config, graph, kernel, arch, name, test, seed, kind, epsilons, stats):
    """One (seed, arch) grid unit: a single reducer pass answers every epsilon.

    Returns one (row, per_node, witness, error, ms) per epsilon, per_node
    the cell's per_node.json records (see `_node_records`) and ms counted
    from the start of the unit, and counts the reducer's leaves and closed-form
    rows into `stats` (an export counts none). A CertlabError out of the
    reducer (a capacity limit or a failed solve) is the error of every
    epsilon without a result yet. `graph` holds only the graph's `labels`,
    `labeled` and `num_classes`.
    """
    from .certify import Budget
    start = time.perf_counter()
    Qtrain, Qcross = kernel.Q[graph.labeled], kernel.Q[test]  # its columns are graph.labeled
    budgets = [Budget(eps, graph.labeled.size) for eps in epsilons]
    outputs = _export_outputs if kind == "export-only" else _scan_outputs
    results = []
    try:
        for out in outputs(config, graph, Qtrain, Qcross, arch, name, test, seed, kind, budgets,
                           stats):
            results.append((*out, None, (time.perf_counter() - start) * 1000.0))
    except CertlabError as exc:
        ms = (time.perf_counter() - start) * 1000.0
        results += [(None, [], None, exc, ms)] * (len(budgets) - len(results))
    return results


def _scan_outputs(config, graph, Qtrain, Qcross, arch, name, test, seed, kind, budgets,
                  stats):
    """(row, per_node, witness) of each budget, in step with the unit's reducer."""
    from .certify import (metrics, reduce_collective, reduce_multiclass_exact,
                          reduce_multiclass_inexact, reduce_samples)
    labels, C = graph.labels[graph.labeled], float(arch["C"])
    opts = dict(cap=config.capacity, tol=config.tol, max_sweeps=config.max_sweeps,
                stats=stats)
    if kind in ("sample", "collective"):
        reduce = reduce_samples if kind == "sample" else reduce_collective
        stream = reduce(Qtrain, Qcross, binary_targets(graph)[graph.labeled], C, budgets, test,
                        **opts)
        p = next(stream)
        predicted = np.where(p > 0, 2, np.where(p < 0, 1, 0))
    else:
        reduce = (reduce_multiclass_exact if kind == "multiclass-exact"
                  else reduce_multiclass_inexact)
        stream = reduce(Qtrain, Qcross, labels, graph.num_classes, C, budgets, test, **opts)
        predicted = np.argmax(next(stream), axis=0) + 1
    truth = graph.labels[test]
    for budget, result in zip(budgets, stream):
        if kind == "collective":
            n_test = len(test)
            correct = int(np.sum((predicted == truth) & (predicted != 0)))
            ratio = (n_test - result.max_misclassified) / n_test
            cert_acc = max(0, correct - result.max_misclassified) / n_test
            witness = {"kind": "collective", "witness": _witness_json(result.witness),
                       "max_misclassified": result.max_misclassified}
            yield (ratio, cert_acc, correct / n_test), _node_records(test, result), witness
        else:
            witness = {"kind": kind,
                       "witnesses": {str(c.node): _witness_json(c.witness) for c in result}}
            row = metrics(result, predicted, truth, budget.epsilon)
            yield ((row.certified_ratio, row.certified_accuracy, row.clean_accuracy),
                   _node_records(test, result), witness)


def _export_outputs(config, graph, Qtrain, Qcross, arch, name, test, seed, kind, budgets,
                    stats):
    from .milp import (SamplewiseBlock, build_collective, build_samplewise_node, write_lp,
                       write_mps)
    C = float(arch["C"])
    y = binary_targets(graph)[graph.labeled]
    clean = solve_dual(SvmProblem(Qtrain, y, C), config.tol, config.max_sweeps)
    phat = margins(clean.alpha, y, Qcross)
    export_dir = os.path.join(config.output_dir, "exports")
    os.makedirs(export_dir, exist_ok=True)
    for eps in (b.epsilon for b in budgets):
        written = []
        if config.export_model == "collective":
            keep = phat != 0.0  # a zero-margin node is misclassified outright
            if keep.any():  # with none left there is no model to write
                model = build_collective(Qtrain, Qcross[keep], y, C, eps, phat[keep],
                                         test_ids=np.asarray(test)[keep])
                base = os.path.join(export_dir, f"collective_s{seed}_{name}_e{eps}")
                write_mps(model, base + ".mps")
                write_lp(model, base + ".lp")
                written.append(base + ".mps")
        else:
            block = SamplewiseBlock(Qtrain, y, C, eps)  # every node's model shares it
            for row_idx, t in enumerate(test):
                if phat[row_idx] == 0.0:
                    continue  # non-robust by convention; nothing to solve
                model = build_samplewise_node(block, Qcross[row_idx],
                                              int(np.sign(phat[row_idx])), node=int(t))
                base = os.path.join(export_dir, f"sample_s{seed}_{name}_e{eps}_n{t}")
                write_mps(model, base + ".mps")
                written.append(base + ".mps")
        yield None, [], {"kind": "export-only", "files": sorted(written)}


def run(config: ExperimentConfig, eps_filter=None, arch_filter=None,
        seed_filter=None) -> ReportBundle:
    """Execute the experiment grid and write the report bundle."""
    from .certify import ScanStats  # only certify and export load certify, here
    seeds, archs, epsilons = config.select(seed_filter, arch_filter, eps_filter)

    # kernels all come first: build-then-scan per unit measured 36% more CPU time;
    # a config error here leaves no output directory behind. Certificates and
    # exports read only K[labeled, labeled] and K[test, labeled], so each unit
    # holds the n x m columns K[:, labeled], not the n x n kernel.
    units = []
    for seed in sorted(seeds):
        graph = make_graph(config, seed)
        test = select_test_nodes(config, graph, seed)
        # K = 2 one-vs-all is the binary pipeline, which needs two classes
        kind = config.certificate
        if graph.num_classes == 2 and kind.startswith("multiclass"):
            kind = "sample"
        elif graph.num_classes != 2 and not kind.startswith("multiclass"):
            raise ConfigError("binary certification needs a two-class graph")
        elif graph.num_classes < 2:
            raise ConfigError("multi-class certification needs at least two classes")
        # a cell reads only these fields of the graph, not its n x n adjacency
        held = SimpleNamespace(labels=graph.labels, labeled=graph.labeled,
                               num_classes=graph.num_classes)
        units += [(seed, held, test, kind, name, arch,
                   ntk_analytic(make_arch_spec(arch, graph), graph, columns=graph.labeled))
                  for name, arch in archs]
    os.makedirs(config.output_dir, exist_ok=True)

    timings, errors, rows, per_node_cells, witness_all, stats = {}, {}, [], [], {}, {}
    replay = config.replay_timings or {}
    for seed, graph, test, kind, name, arch, kernel in units:
        unit_stats = stats[f"s{seed}|{name}"] = ScanStats()
        cells = _run_cell(config, graph, kernel, arch, name, test, seed, kind, epsilons, unit_stats)
        for eps, (row, per_node, witness, err, ms) in zip(epsilons, cells):
            key = _cell_key(seed, name, eps)
            timings[key] = replay.get(key, ms)
            if err is not None:
                errors[key] = err
            if witness is not None:
                witness_all[key] = witness
            if kind == "export-only":
                continue
            vals = (float("nan"),) * 3 if err is not None else row
            rows.append(dict(zip(METRICS_FIELDS, (seed, name, eps, config.certificate, *vals,
                                                  timings[key]))))
            per_node_cells.append((seed, name, eps, per_node))

    metrics_path = _dump_csv(rows, METRICS_FIELDS, config.output_dir, "metrics.csv")
    per_node_path = _dump_per_node(per_node_cells, config.output_dir)
    witness_path = _dump_json(witness_all, config.output_dir, "witnesses.json")
    manifest = {
        "config": asdict(config),
        "versions": {
            "certlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "timings": timings,
        "stats": {key: asdict(unit_stats) for key, unit_stats in stats.items()},
        "errors": {key: str(err) for key, err in errors.items()},
        "error_kinds": {key: type(err).__name__ for key, err in errors.items()},
    }
    manifest_path = _dump_json(manifest, config.output_dir, "manifest.json")
    return ReportBundle(config.output_dir, metrics_path, per_node_path,
                        witness_path, manifest_path, rows, manifest,
                        failures=errors)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def report(output_dir: str) -> dict:
    """Aggregate metrics.csv into plot-ready CSVs (mean/std over seeds and
    consecutive-epsilon certified-ratio deltas)."""
    # (arch, kind) -> epsilon -> one [ratio, accuracy, clean accuracy] per seed
    groups: dict[tuple, dict[float, list]] = {}
    path = os.path.join(output_dir, "metrics.csv")
    try:
        with open(path) as fh:
            for rec in csv.DictReader(fh):
                groups.setdefault((rec["arch"], rec["kind"]), {}).setdefault(
                    float(rec["epsilon"]), []).append([float(rec[f]) for f in SCIENCE_FIELDS])
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc!r}") from exc

    curve_fields = ["arch", "kind", "epsilon", *(f"{stat}_{field}" for field in SCIENCE_FIELDS
                                                 for stat in ("mean", "std"))]
    delta_fields = ["arch", "kind", "eps_from", "eps_to", "delta_certified_ratio"]
    curves, deltas = [], []
    for (arch, kind), by_eps in sorted(groups.items()):
        mean_ratio = {}
        for eps, recs in sorted(by_eps.items()):
            columns = [np.array(column) for column in zip(*recs)]
            if np.any(np.isnan(columns[0])):
                print(f"warning: missing cells for {arch}/{kind} at eps={eps}", file=sys.stderr)
            summary = [float(stat(column)) for column in columns for stat in (np.mean, np.std)]
            curves.append(dict(zip(curve_fields, (arch, kind, eps, *summary))))
            mean_ratio[eps] = summary[0]
        grid = list(mean_ratio)
        deltas += [dict(zip(delta_fields, (arch, kind, lo, hi, mean_ratio[lo] - mean_ratio[hi])))
                   for lo, hi in zip(grid, grid[1:])]
    return {"certified_vs_eps": _dump_csv(curves, curve_fields, output_dir, "certified_vs_eps.csv"),
            "plateau_deltas": _dump_csv(deltas, delta_fields, output_dir, "plateau_deltas.csv")}


def validate_ntk(config: ExperimentConfig, arch_filter=None, seed_filter=None):
    """Width sweep of empirical vs analytic kernels on the first selected seed's
    graph; pass iff every architecture's error at the largest width is within threshold."""
    seeds, archs, _ = config.select(seed_filter, arch_filter)
    graph = make_graph(config, seeds[0])
    # every (architecture, width) is planned before the first draw
    plan = []
    for name, arch in archs:
        if arch["kind"] == "linear":
            raise ConfigError("the linear kernel has no width sweep")
        spec = make_arch_spec(arch, graph)
        plan.append((name, spec, ntk_analytic(spec, graph).Q))
    for width in config.widths:
        check_width(graph.n, width)
    rows, all_pass = [], True
    for name, spec, reference in plan:
        scale = np.linalg.norm(reference)
        errors = []
        for width in config.widths:
            emp = ntk_empirical(spec, graph, width, config.nt_samples,
                                seed=config.width_seed).Q
            errors.append(float(np.linalg.norm(emp - reference) / scale))
        passed = errors[-1] <= config.threshold
        all_pass &= passed
        for width, err in zip(config.widths, errors):
            rows.append({"arch": name, "width": width,
                         "rel_frobenius_error": err, "passed": passed})
    os.makedirs(config.output_dir, exist_ok=True)
    out = _dump_csv([dict(r, passed=int(r["passed"])) for r in rows], list(rows[0]),
                    config.output_dir, "ntk_validation.csv")
    return rows, all_pass, out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# the grid filters each subcommand reads; argparse rejects any other (exit 2)
FILTERS = {"gen": ("seed",), "ntk": ("arch", "seed"), "certify": ("eps", "arch", "seed"),
           "export": ("eps", "arch", "seed"), "validate-ntk": ("arch", "seed"), "report": ()}
FILTER_VALUES = {"eps": (float, "epsilon values"), "arch": (str, "architecture names"),
                 "seed": (int, "seeds")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="certlab",
        description="Exact label-flipping robustness certification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, filters in FILTERS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON (or manifest)")
        for flag in filters:
            kind, what = FILTER_VALUES[flag]
            p.add_argument(f"--{flag}", type=kind, nargs="+", help=f"restrict to these {what}")
    args = parser.parse_args(argv)
    if args.command == "export":
        # only the MILP export compiles milp; loading it before any array work
        # measured a smaller peak RSS than loading it at the first export
        from . import milp  # noqa: F401

    try:
        config = ExperimentConfig.from_file(args.config)
        seed_filter, arch_filter, eps_filter = (
            None if (values := getattr(args, flag, None)) is None else set(values)
            for flag in ("seed", "arch", "eps"))

        if args.command == "gen":
            if config.dataset["kind"] not in GENERATORS:
                raise ConfigError("gen requires a generator dataset (csbm or cba)")
            seeds, _, _ = config.select(seed_filter)
            graphs = [(seed, make_graph(config, seed)) for seed in seeds]
            os.makedirs(config.output_dir, exist_ok=True)
            for seed, graph in graphs:
                path = os.path.join(config.output_dir, f"graph_seed{seed}.json")
                save_graph(graph, path)
                print(path)
            return 0

        if args.command == "ntk":
            seeds, archs, _ = config.select(seed_filter, arch_filter)
            graphs = [(seed, make_graph(config, seed)) for seed in seeds]
            # every spec is built first: a config error leaves no output directory behind
            specs = [(seed, graph, name, make_arch_spec(arch, graph))
                     for seed, graph in graphs for name, arch in archs]
            os.makedirs(config.output_dir, exist_ok=True)
            for seed, graph, name, spec in specs:
                kernel = ntk_analytic(spec, graph)
                path = os.path.join(config.output_dir, f"kernel_seed{seed}_{name}.knl")
                save_kernel(kernel, path)
                kernel_to_csv(kernel, path.replace(".knl", ".csv"))
                print(path)
            return 0

        if args.command in ("certify", "export"):
            if args.command == "export":
                config.certificate = "export-only"
            bundle = run(config, eps_filter=eps_filter, arch_filter=arch_filter,
                         seed_filter=seed_filter)
            print(bundle.metrics_path)
            failed = {k: e for k, e in bundle.failures.items()
                      if not isinstance(e, CapacityError)}
            for key, exc in failed.items():
                print(f"error: {key}: {exc}", file=sys.stderr)
            return 1 if failed else 3 if bundle.failures else 0

        if args.command == "validate-ntk":
            rows, ok, out = validate_ntk(config, arch_filter, seed_filter)
            for r in rows:
                print(f"{r['arch']:>16s} width={r['width']:<6d} "
                      f"err={r['rel_frobenius_error']:.4f} "
                      f"{'PASS' if r['passed'] else 'FAIL'}")
            print(out)
            return 0 if ok else 4

        report_paths = report(config.output_dir)
        for path in report_paths.values():
            print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CertlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
