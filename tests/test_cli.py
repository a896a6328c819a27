import csv
import json
import os

import numpy as np
import pytest

import certlab.certify
from certlab import Graph, load_graph, load_kernel, save_graph
from certlab.certify import multiclass_leaf_count
from certlab.cli import ExperimentConfig, main, report, run, validate_ntk
from certlab.errors import ConfigError
from conftest import count_solves


def base_config(out_dir, **overrides):
    cfg = {
        "dataset": {"kind": "csbm", "n": 24, "p": 0.35, "q": 0.1,
                    "labeled_per_class": 3},
        "architectures": [
            {"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 0.05},
            {"name": "lin", "kind": "linear", "C": 0.05},
        ],
        "epsilons": [0.2, 0.5],
        "certificate": "sample",
        "test_nodes": {"sample": 5, "seed": 3},
        "seeds": [0, 1],
        "output_dir": str(out_dir),
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_missing_fields(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(path)

    def test_unsorted_epsilons(self, tmp_path):
        cfg = base_config(tmp_path / "out", epsilons=[0.5, 0.2])
        with pytest.raises(ConfigError, match="sorted"):
            ExperimentConfig.from_dict(cfg)

    def test_epsilon_range(self, tmp_path):
        cfg = base_config(tmp_path / "out", epsilons=[0.0, 0.2])
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(cfg)

    def test_missing_C(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        del cfg["architectures"][0]["C"]
        with pytest.raises(ConfigError, match="C > 0"):
            ExperimentConfig.from_dict(cfg)

    def test_duplicate_names(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        cfg["architectures"][1]["name"] = "gcn"
        with pytest.raises(ConfigError, match="collide"):
            ExperimentConfig.from_dict(cfg)

    def test_cli_exit_code_on_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--config", str(path)]) == 2

    @pytest.mark.parametrize("override", [
        {"test_nodes": {"sample": 0}},
        {"test_nodes": {"sample": 0}, "certificate": "collective"},
        {"test_nodes": {"sample": "x"}},
        {"test_nodes": {"sample": -1}},
        {"test_nodes": {"sample": 2, "seed": "x"}},
        {"seeds": []},
        {"widths": []},
        {"widths": [4]},
        {"nt_samples": 0},
        {"max_sweeps": 0},
        {"max_sweeps": -3},
        {"tol": 0},
        {"architectures": [{"C": 0.05}]},  # neither kind nor name
        {"architectures": [{"kind": "gcn", "C": "x"}]},
    ])
    def test_malformed_grid_inputs(self, tmp_path, override):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(tmp_path / "out", **override))

    @pytest.mark.parametrize("command", ["certify", "ntk", "validate-ntk"])
    @pytest.mark.parametrize("arch", [
        {"kind": "foo"},
        {"kind": "gcn", "depth": 0},
        {"kind": "appnp", "depth": 1},  # no alpha
    ])
    def test_malformed_architecture_is_config_error(self, tmp_path, capsys, command, arch):
        cfg = base_config(tmp_path / "out", seeds=[0], architectures=[dict(arch, C=0.05)])
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: invalid architecture" in capsys.readouterr().err

    def test_graph_without_unlabeled_nodes(self, tmp_path, capsys):
        three_class_graph(tmp_path / "g.json", per_class=2, labeled_per_class=2)
        cfg = base_config(tmp_path / "out", certificate="multiclass-exact",
                          dataset={"kind": "file", "path": str(tmp_path / "g.json")},
                          test_nodes="all-unlabeled", seeds=[0])
        assert main(["certify", "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: the graph has no unlabeled node" in capsys.readouterr().err


class TestRun:
    def test_grid_shape_and_header(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out"))
        bundle = run(cfg)
        lines = open(bundle.metrics_path).read().splitlines()
        assert lines[0] == ("seed,arch,epsilon,kind,certified_ratio,"
                            "certified_accuracy,clean_accuracy,runtime_ms")
        assert len(lines) == 1 + 2 * 2 * 2  # seeds x archs x epsilons
        assert os.path.exists(bundle.per_node_path)
        assert os.path.exists(bundle.witness_path)
        assert os.path.exists(bundle.manifest_path)

    @pytest.mark.parametrize("seeds", [[0, 1], [1, 0]], ids=["ascending", "descending"])
    def test_rows_sorted_and_complete(self, tmp_path, seeds):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out", seeds=seeds))
        bundle = run(cfg)
        with open(bundle.metrics_path) as fh:
            rows = list(csv.DictReader(fh))
        keys = [(int(r["seed"]), r["arch"], float(r["epsilon"])) for r in rows]
        assert keys == sorted(keys, key=lambda k: (k[0], ["gcn", "lin"].index(k[1]), k[2]))

    def test_manifest_replay_is_byte_identical(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out"))
        bundle = run(cfg)
        first = open(bundle.metrics_path, "rb").read()
        replay_cfg = ExperimentConfig.from_dict(
            json.load(open(bundle.manifest_path)))
        bundle2 = run(replay_cfg)
        assert open(bundle2.metrics_path, "rb").read() == first

    def test_plain_rerun_differs_only_in_runtime(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out"))
        rows1 = run(cfg).rows
        rows2 = run(ExperimentConfig.from_dict(base_config(tmp_path / "out"))).rows
        for a, b in zip(rows1, rows2):
            for key in ("seed", "arch", "epsilon", "certified_ratio",
                        "certified_accuracy", "clean_accuracy"):
                assert a[key] == b[key]

    def test_capacity_error_surfaces_without_aborting(self, tmp_path):
        # m=6 labeled: eps=0.2 needs 7 leaves, eps=1.0 needs 64
        cfg = base_config(tmp_path / "out", capacity=8,
                          epsilons=[0.2, 1.0])
        path = write_config(tmp_path, cfg)
        rc = main(["certify", "--config", path])
        assert rc == 3
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        small = [r for r in rows if r["epsilon"] == "0.2"]
        big = [r for r in rows if r["epsilon"] == "1.0"]
        assert all(r["certified_ratio"] != "nan" for r in small)
        assert all(r["certified_ratio"] == "nan" for r in big)
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["errors"]
        assert manifest["error_kinds"] == {key: "CapacityError" for key in manifest["errors"]}
        assert sorted(manifest["errors"]) == [f"s{s}|{a}|e1.0" for s in (0, 1)
                                              for a in ("gcn", "lin")]

    def test_collective_kind(self, tmp_path):
        cfg = base_config(tmp_path / "out", certificate="collective",
                          seeds=[0], epsilons=[0.2, 1.0])
        bundle = run(ExperimentConfig.from_dict(cfg))
        by_eps = {r["epsilon"]: r for r in bundle.rows}
        assert by_eps[1.0]["certified_ratio"] == 0.0  # full flip breaks all
        assert 0.0 <= by_eps[0.2]["certified_ratio"] <= 1.0

    def test_full_epsilon_grid_emits_one_row_per_cell(self, tmp_path):
        grid = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 1.0]
        cfg = base_config(
            tmp_path / "out", seeds=[0], epsilons=grid,
            dataset={"kind": "csbm", "n": 60, "labeled_per_class": 5},
            test_nodes={"sample": 10, "seed": 0},
            architectures=[
                {"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 0.001},
                {"name": "sgc", "kind": "sgc", "depth": 1, "conv": "row", "C": 0.001},
            ])
        bundle = run(ExperimentConfig.from_dict(cfg))
        per_arch = {}
        for r in bundle.rows:
            per_arch.setdefault(r["arch"], []).append(r["epsilon"])
        assert per_arch == {"gcn": grid, "sgc": grid}

    def test_karate_dataset(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0], epsilons=[0.1],
                          dataset={"kind": "karate"},
                          test_nodes="all-unlabeled",
                          architectures=[{"name": "gcn", "kind": "gcn",
                                          "depth": 1, "conv": "row", "C": 0.01}])
        bundle = run(ExperimentConfig.from_dict(cfg))
        assert len(bundle.rows) == 1


def three_class_graph(path, per_class=5, labeled_per_class=2):
    rng = np.random.Generator(np.random.Philox(7))
    labels = np.repeat([1, 2, 3], per_class)
    n = labels.size
    same = labels[:, None] == labels
    upper = np.triu(rng.random((n, n)) < np.where(same, 0.6, 0.1), 1)
    labeled = [int(i) for c in (1, 2, 3)
               for i in np.flatnonzero(labels == c)[:labeled_per_class]]
    save_graph(Graph(features=rng.standard_normal((n, 3)) + labels[:, None],
                     adjacency=(upper | upper.T).astype(float), labels=labels,
                     labeled=labeled, num_classes=3), path)


def record_saturation(monkeypatch):
    """Records the `saturates` verdict of every scan certify starts."""
    verdicts = []
    original = certlab.certify.saturates

    def recorded(*args):
        verdicts.append(original(*args))
        return verdicts[-1]

    monkeypatch.setattr(certlab.certify, "saturates", recorded)
    return verdicts


class TestOneScanPerUnit:
    def test_multiclass_grid_solves_once_per_relabeling(self, tmp_path, monkeypatch):
        three_class_graph(tmp_path / "g3.json")
        cfg = base_config(tmp_path / "out",
                          dataset={"kind": "file", "path": str(tmp_path / "g3.json")},
                          architectures=[{"name": "gcn", "kind": "gcn", "depth": 1,
                                          "conv": "row", "C": 0.05}],
                          certificate="multiclass-exact", epsilons=[0.17, 0.34],
                          test_nodes={"sample": 4, "seed": 0}, seeds=[0])
        calls, saturated = count_solves(monkeypatch), record_saturation(monkeypatch)
        bundle = run(ExperimentConfig.from_dict(cfg))
        assert saturated and not any(saturated)  # every scan solves leaf QPs
        assert len(bundle.rows) == 2 and not bundle.manifest["errors"]
        assert len(json.load(open(bundle.per_node_path))) == 2 * 4
        # K clean solves, then K per relabeling of the largest budget (m=6, r=2),
        # shared by every test node and every epsilon
        assert len(calls) == 3 + 3 * multiclass_leaf_count(6, 2, 3)

    def test_convergence_error_keeps_other_cells(self, tmp_path, monkeypatch):
        # C = 1 keeps every unit off the saturated shortcut, so each leaf is a solve
        archs = [dict(a, C=1.0) for a in base_config(tmp_path)["architectures"]]
        saturated = record_saturation(monkeypatch)
        clean_path = write_config(tmp_path, base_config(tmp_path / "clean", architectures=archs),
                                  "clean.json")
        assert main(["certify", "--config", clean_path]) == 0
        # the first unit (seed 0, gcn) walks 7 leaves for eps=0.2 (m=6, r=1)
        # and 42 for eps=0.5 (r=3); its 10th solve fails
        count_solves(monkeypatch, fail_at=10)
        path = write_config(tmp_path, base_config(tmp_path / "out", architectures=archs))
        assert main(["certify", "--config", path]) == 1
        assert saturated and not any(saturated)

        def science(out):
            with open(tmp_path / out / "metrics.csv") as fh:
                return {(r["seed"], r["arch"], r["epsilon"]):
                        (r["certified_ratio"], r["certified_accuracy"], r["clean_accuracy"])
                        for r in csv.DictReader(fh)}

        clean, failed = science("clean"), science("out")
        assert failed.pop(("0", "gcn", "0.5")) == ("nan",) * 3
        assert "nan" not in clean.pop(("0", "gcn", "0.5"))
        assert failed == clean  # every other cell, s0|gcn|e0.2 included
        manifest = json.load(open(tmp_path / "out" / "manifest.json"))
        assert manifest["errors"] == {"s0|gcn|e0.5": "injected non-convergence"}
        assert manifest["error_kinds"] == {"s0|gcn|e0.5": "ConvergenceError"}
        witnesses = json.load(open(tmp_path / "out" / "witnesses.json"))
        assert "s0|gcn|e0.2" in witnesses and "s0|gcn|e0.5" not in witnesses


class TestSubcommands:
    def test_gen_writes_loadable_graphs(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["gen", "--config", path]) == 0
        for seed in (0, 1):
            g = load_graph(tmp_path / "out" / f"graph_seed{seed}.json")
            assert g.n == 24 and g.seed == seed

    def test_gen_rejects_file_dataset(self, tmp_path):
        cfg = base_config(tmp_path / "out", dataset={"kind": "karate"})
        path = write_config(tmp_path, cfg)
        assert main(["gen", "--config", path]) == 2

    def test_ntk_writes_loadable_kernels(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0])
        path = write_config(tmp_path, cfg)
        assert main(["ntk", "--config", path, "--arch", "gcn"]) == 0
        kern = load_kernel(tmp_path / "out" / "kernel_seed0_gcn.knl")
        assert kern.n == 24
        assert (tmp_path / "out" / "kernel_seed0_gcn.csv").exists()

    def test_export_only_writes_mps_and_no_metrics(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0], epsilons=[0.2],
                          architectures=[{"name": "gcn", "kind": "gcn",
                                          "depth": 1, "conv": "row", "C": 0.05}])
        path = write_config(tmp_path, cfg)
        assert main(["export", "--config", path]) == 0
        exports = sorted(os.listdir(tmp_path / "out" / "exports"))
        mps = [f for f in exports if f.endswith(".mps")]
        assert len(mps) == 5  # one per (node, epsilon)
        assert all(os.path.exists(tmp_path / "out" / "exports" / (f + ".meta.json"))
                   for f in mps)
        lines = open(tmp_path / "out" / "metrics.csv").read().splitlines()
        assert len(lines) == 1  # header only, no metric rows

    def test_export_collective_one_model_per_eps(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0], epsilons=[0.2, 0.5],
                          export_model="collective",
                          architectures=[{"name": "gcn", "kind": "gcn",
                                          "depth": 1, "conv": "row", "C": 0.05}])
        path = write_config(tmp_path, cfg)
        assert main(["export", "--config", path]) == 0
        mps = [f for f in os.listdir(tmp_path / "out" / "exports")
               if f.endswith(".mps")]
        assert len(mps) == 2

    def test_validate_ntk_pass_and_fail(self, tmp_path, capsys):
        # depth-0 linear readout has a deterministic empirical kernel:
        # the error is exactly zero and any threshold passes
        cfg = base_config(
            tmp_path / "out", seeds=[0],
            architectures=[{"name": "lin0", "kind": "mlp", "depth": 0,
                            "activation": "linear", "C": 1.0}],
            widths=[8, 16], nt_samples=2, threshold=1e-12)
        path = write_config(tmp_path, cfg)
        assert main(["validate-ntk", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        cfg["architectures"] = [{"name": "gcn", "kind": "gcn", "depth": 1,
                                 "conv": "row", "C": 1.0}]
        cfg["threshold"] = 1e-9
        path = write_config(tmp_path, cfg, name="cfg2.json")
        assert main(["validate-ntk", "--config", path]) == 4

    def test_validate_ntk_monotone_column(self, tmp_path):
        cfg = base_config(
            tmp_path / "out", seeds=[0],
            dataset={"kind": "csbm", "n": 12, "p": 0.4, "q": 0.15,
                     "labeled_per_class": 3},
            architectures=[{"name": "gcn", "kind": "gcn", "depth": 1,
                            "conv": "row", "C": 1.0}],
            widths=[64, 512, 4096], nt_samples=25, threshold=0.05)
        rows, ok, _ = validate_ntk(ExperimentConfig.from_dict(cfg))
        errs = [r["rel_frobenius_error"] for r in rows]
        assert ok
        assert errs[0] >= errs[1] >= errs[2]


class TestReport:
    def test_deltas_reconstruct_ratios(self, tmp_path):
        cfg = base_config(tmp_path / "out", epsilons=[0.2, 0.38, 0.5], seeds=[0, 1])
        bundle = run(ExperimentConfig.from_dict(cfg))
        paths = report(str(tmp_path / "out"))
        with open(paths["certified_vs_eps"]) as fh:
            curves = list(csv.DictReader(fh))
        with open(paths["plateau_deltas"]) as fh:
            deltas = list(csv.DictReader(fh))
        assert len(deltas) == 2 * 2  # |grid|-1 rows per architecture
        for arch in ("gcn", "lin"):
            arc = [r for r in curves if r["arch"] == arch]
            arc_d = [r for r in deltas if r["arch"] == arch]
            ratios = [float(r["mean_certified_ratio"]) for r in arc]
            rebuilt = [ratios[0]]
            for d in arc_d:
                rebuilt.append(rebuilt[-1] - float(d["delta_certified_ratio"]))
            np.testing.assert_allclose(rebuilt, ratios, atol=1e-12)

    def test_two_eps_single_delta_row(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0],
                          architectures=[{"name": "lin", "kind": "linear", "C": 0.05}])
        run(ExperimentConfig.from_dict(cfg))
        paths = report(str(tmp_path / "out"))
        deltas = open(paths["plateau_deltas"]).read().splitlines()
        assert len(deltas) == 2  # header + one row

    def test_cli_report(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0])
        path = write_config(tmp_path, cfg)
        assert main(["certify", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        assert (tmp_path / "out" / "plateau_deltas.csv").exists()
