import csv
import importlib.util
import json
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import certlab.certify
import certlab.cli
from certlab import (ArchitectureSpec, CbaParams, CsbmParams, Graph, KernelColumns, load_graph,
                     load_kernel, normalize_features, sample_cba, sample_csbm, save_graph)
from certlab.certify import CollectiveCertificate, SampleCertificate, leaf_count
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


README = (Path(__file__).parent.parent / "README.md").read_text()


def load_workloads():
    """perfbench/workloads.py, which writes the benchmark's configs, loaded from its file."""
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look it up while they are made
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


WORKLOADS = load_workloads()


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

    @pytest.mark.parametrize("doc", [5, None, True])
    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                          doc):
        monkeypatch.chdir(tmp_path)  # the default output directory is relative
        (tmp_path / "cfg.json").write_text(json.dumps(doc))
        assert main(["certify", "--config", "cfg.json"]) == 2
        assert "config error: invalid experiment config" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("timings", [[1.0, 2.0], "fast", 3])
    def test_manifest_timings_not_an_object_is_config_error(self, tmp_path, capsys, timings):
        manifest = {"config": base_config(tmp_path / "out", seeds=[0]), "timings": timings}
        assert main(["certify", "--config", write_config(tmp_path, manifest)]) == 2
        assert "config error: invalid manifest: timings" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("timing", ["abc", -1.0, float("nan"), float("inf"), True, None])
    def test_manifest_timing_not_a_duration_is_config_error(self, tmp_path, capsys, timing):
        # a replayed timing is copied into metrics.csv as runtime_ms
        cfg = base_config(tmp_path / "out", seeds=[0], dataset={"kind": "karate"},
                          architectures=[{"name": "lin", "kind": "linear", "C": 1.0}],
                          test_nodes="all-unlabeled", epsilons=[0.1])
        manifest = {"config": cfg, "timings": {"s0|lin|e0.1": timing}}
        assert main(["certify", "--config", write_config(tmp_path, manifest)]) == 2
        assert "config error: invalid manifest: timings" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"epsilons": ["0.5"]},
        {"epsilons": [True]},
        {"architectures": [{"name": "gcn", "kind": "gcn", "conv": "row", "C": "0.001"}]},
        {"architectures": [{"name": "gcn", "kind": "gcn", "conv": "row", "C": True}]},
        {"tol": "1e-10"},
        {"threshold": "0.05"},
        {"architectures": [{"name": "ppnp", "kind": "ppnp", "alpha": True, "C": 0.05}]},
        {"architectures": [{"name": "ppnp", "kind": "ppnp", "alpha": "0.1", "C": 0.05}]},
        {"architectures": [{"name": "gcn", "kind": "gcn", "conv": "row", "beta": True,
                            "C": 0.05}]},
        {"dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3, "sigma": "2"}},
        {"dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3, "p": True}},
        {"dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3, "signal_scale": "1"}},
        {"dataset": {"kind": "cba", "n": 24, "labeled_per_class": 3,
                     "affinity": [[2.0, "1"], [1.0, 2.0]]}},
        {"dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3,
                     "normalize_features": "no"}},
        {"dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3,
                     "normalize_features": 1}},
        {"architectures": [{"name": "gcn", "kind": "gcn", "conv": "row", "C": 10 ** 400}]},
    ], ids=["eps-string", "eps-bool", "C-string", "C-bool", "tol-string", "threshold-string",
            "alpha-bool", "alpha-string", "beta-bool", "sigma-string", "p-bool",
            "signal-scale-string", "affinity-string", "normalize-string", "normalize-int",
            "C-past-float-range"])
    def test_float_field_takes_a_json_number_only(self, tmp_path, capsys, override):
        # before, float() took "0.5" and true; any truthy normalize_features normalized
        cfg = base_config(tmp_path / "out", seeds=[0], **override)
        assert main(["certify", "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"seeds": [2 ** 63]},
        {"seeds": [0, 2 ** 70]},
        {"seeds": [-1]},
        {"test_nodes": {"sample": 3, "seed": 2 ** 63}},
        {"test_nodes": {"sample": 3, "seed": 2 ** 70}},
        {"test_nodes": {"sample": 3, "seed": -1}},
        {"width_seed": 2 ** 63},
        {"width_seed": 2 ** 130},
        {"width_seed": -1},
    ], ids=["seed-2^63", "seed-2^70", "seed-negative", "test-seed-2^63", "test-seed-2^70",
            "test-seed-negative", "width-seed-2^63", "width-seed-2^130", "width-seed-negative"])
    @pytest.mark.parametrize("command", ["certify", "validate-ntk"])
    def test_seed_out_of_range_is_config_error(self, tmp_path, capsys, command, override):
        # numpy keys Philox with [test_nodes.seed, seed] as float64 past 2**63, so
        # distinct seeds there drew the same test set; 2**70 overflowed it
        cfg = base_config(tmp_path / "out", widths=[8, 16], nt_samples=2,
                          architectures=[{"name": "gcn", "kind": "gcn", "C": 1.0}], **override)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "must lie in [0, 2**63)" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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
        {"architectures": [{"kind": "gcn", "C": float("nan")}]},
        {"seeds": [0, 0]},
        {"epsilons": [0.2, 0.2]},
        {"seeds": [-1]},
        {"seeds": [0, -2]},
        {"width_seed": -1},
        {"architectures": [{"kind": "gcn", "C": float("inf")}]},
        # a name goes into metrics.csv rows and into export and kernel file names
        {"architectures": [{"name": "g,cn", "kind": "gcn", "C": 0.05}]},
        {"architectures": [{"name": 'g"cn', "kind": "gcn", "C": 0.05}]},
        {"architectures": [{"name": "g\ncn", "kind": "gcn", "C": 0.05}]},
        {"architectures": [{"name": "g/cn", "kind": "gcn", "C": 0.05}]},
        {"architectures": [{"name": "../gcn", "kind": "gcn", "C": 0.05}]},
        {"architectures": [{"name": "g\\cn", "kind": "gcn", "C": 0.05}]},
        {"tol": float("inf")},  # one sweep and any in-box guess would pass
        # an integer field takes a JSON integer only: never truncated, never a boolean
        {"seeds": [0.5]},
        {"seeds": [True]},
        {"seeds": ["0"]},
        {"capacity": 10.0},
        {"capacity": True},
        {"max_sweeps": 2.5},
        {"nt_samples": 20.0},
        {"width_seed": 0.0},
        {"width_seed": False},
        {"widths": [256.0]},
        {"widths": [256, 1024.5]},
        {"test_nodes": {"sample": True}},
        {"test_nodes": {"sample": 2.0}},
        {"test_nodes": {"sample": 2, "seed": 1.5}},
        {"test_nodes": {"sample": 2, "seed": True}},
        # a limit below one leaf would blame the limit for every unsaturated cell
        {"capacity": 0},
        {"capacity": -5},
    ])
    def test_malformed_grid_inputs(self, tmp_path, override):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(base_config(tmp_path / "out", **override))

    @pytest.mark.parametrize("command", ["certify", "ntk", "validate-ntk"])
    @pytest.mark.parametrize("arch", [
        {"kind": "foo"},
        {"kind": "gcn", "depth": 0},
        {"kind": "appnp", "depth": 1},  # no alpha
        {"kind": "gcn", "depth": 1.7},
        {"kind": "gcn", "depth": 1.0},
        {"kind": "gcn", "depth": True},
        {"kind": "appnp", "alpha": 0.1, "power_k": 10.0},
        {"kind": "appnp", "alpha": 0.1, "power_k": True},
        # a parameter no step of the kind reads used to be kept or dropped silently
        {"kind": "gcn", "alpha": 0.3},
        {"kind": "sgc", "power_k": 3},
        {"kind": "mlp", "conv": "row"},
        {"kind": "mlp", "beta": 2.0},
    ])
    def test_malformed_architecture_is_config_error(self, tmp_path, capsys, command, arch):
        cfg = base_config(tmp_path / "out", seeds=[0], architectures=[dict(arch, C=0.05)])
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: invalid architecture" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["certify", "ntk", "validate-ntk"])
    @pytest.mark.parametrize("dataset", [
        {"kind": "csbm"},  # no n
        {"kind": "csbm", "n": 1},
        {"kind": "csbm", "n": 24, "labeled_per_class": 20},
        {"kind": "cba", "n": 24, "deg": 24},
        {"kind": "cba", "n": 24, "sigma": 0},
        {"kind": "csbm", "n": "many"},
        {"kind": "file", "path": "no_such_graph.json"},
        {"kind": "file", "path": "truncated_graph.json"},
        {"kind": "file"},  # no path
        {"kind": "csbm", "n": 24.0},
        {"kind": "csbm", "n": 24, "labeled_per_class": 3.5},
        {"kind": "csbm", "n": 24, "labeled_per_class": True},
        {"kind": "cba", "n": 24, "deg": 2.0},
    ], ids=["no-n", "n1", "labeled", "deg", "sigma", "n-type", "no-file", "bad-file",
            "no-path", "n-float", "labeled-float", "labeled-bool", "deg-float"])
    def test_malformed_dataset_is_config_error(self, tmp_path, monkeypatch, capsys, command,
                                               dataset):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "truncated_graph.json").write_text('{"n": 3')
        cfg = base_config(tmp_path / "out", dataset=dataset)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: invalid dataset" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override", [
        {"output_dir": 5},
        {"output_dir": None},
        {"output_dir": ""},
        {"dataset": {"kind": "file", "path": 0}},
        {"dataset": {"kind": "file", "path": None}},
    ], ids=["output-dir-int", "output-dir-null", "output-dir-empty", "path-int", "path-null"])
    @pytest.mark.parametrize("command", ["certify", "ntk", "validate-ntk"])
    def test_output_dir_and_path_are_nonempty_strings(self, tmp_path, monkeypatch, capsys,
                                                       command, override):
        # an output_dir of 5 used to build every kernel and die in a TypeError,
        # and a path of 0 read the graph from standard input
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, dict(base_config("out"), **override))
        assert main([command, "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "must be a non-empty string" in err
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("argv", [
        ["gen", "--seed", "7"],
        ["ntk", "--seed", "7"],
        ["ntk", "--arch", "nosuch"],
        ["validate-ntk", "--arch", "nosuch"],
        ["validate-ntk", "--seed", "7"],
    ], ids=["gen-seed", "ntk-seed", "ntk-arch", "validate-ntk-arch", "validate-ntk-seed"])
    def test_empty_filter_is_config_error(self, tmp_path, capsys, argv):
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main([*argv, "--config", path]) == 2
        assert "config error: filters removed every grid cell" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_graph_without_unlabeled_nodes(self, tmp_path, capsys):
        three_class_graph(tmp_path / "g.json", per_class=2, labeled_per_class=2)
        cfg = base_config(tmp_path / "out", certificate="multiclass-exact",
                          dataset={"kind": "file", "path": str(tmp_path / "g.json")},
                          test_nodes="all-unlabeled", seeds=[0])
        assert main(["certify", "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: the graph has no unlabeled node" in capsys.readouterr().err


COMMANDS = ["gen", "ntk", "certify", "export", "validate-ntk", "report"]


class TestConfigKeys:
    """A config key is a field of the dataclass that holds it, or one `cli` reads itself."""

    @pytest.mark.parametrize("override, key, message", [
        ({"capcity": 5}, "capcity", "invalid experiment config"),
        ({"epsilon": [0.5]}, "epsilon", "invalid experiment config"),
        ({"replay_timings": {"s0|gcn|e0.2": 1.0}}, "replay_timings", "invalid experiment config"),
        ({"timings": {}}, "timings", "invalid experiment config"),
        ({"dataset": {"kind": "csbm", "n": 24, "labeled_per_clas": 3}}, "labeled_per_clas",
         "invalid dataset"),
        ({"dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3, "path": "g.json"}},
         "path", "invalid dataset"),
        ({"dataset": {"kind": "cba", "n": 24, "labeled_per_class": 3, "p": 0.3}}, "p",
         "invalid dataset"),
        ({"dataset": {"kind": "karate", "n": 50}}, "n", "invalid dataset"),
        ({"dataset": {"kind": "file", "path": "../graph.json", "labeled_per_class": 2}},
         "labeled_per_class", "invalid dataset"),
        ({"architectures": [{"name": "gcn", "kind": "gcn", "actvation": "linear", "dept": 3,
                             "C": 0.05}]}, "actvation', 'dept", "invalid architecture"),
        ({"architectures": [{"name": "mlp", "kind": "mlp", "width": 64, "C": 0.05}]}, "width",
         "invalid architecture"),
        ({"test_nodes": {"sample": 5, "sed": 3}}, "sed", "test_nodes must be"),
    ], ids=["top-capcity", "top-epsilon", "top-replay-timings", "top-timings", "csbm-misspelled",
            "csbm-path", "cba-p", "karate-n", "file-labeled", "arch-misspelled", "arch-width",
            "test-nodes"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_key_is_config_error(self, tmp_path, monkeypatch, capsys, command, override,
                                         key, message):
        # each of these used to be accepted and ignored
        save_graph(sample_csbm(CsbmParams(n=24, labeled_per_class=3)), tmp_path / "graph.json")
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path / "run")
        write_config(tmp_path / "run", base_config("out", **override))
        assert main([command, "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {message}") and f"'{key}'" in err
        assert os.listdir(tmp_path / "run") == ["cfg.json"]

    @pytest.mark.parametrize("name", [None, "", 7, [1]], ids=["null", "empty", "int", "list"])
    @pytest.mark.parametrize("command", ["certify", "gen"])
    def test_architecture_name_is_a_nonempty_string(self, tmp_path, capsys, command, name):
        # null named the architecture "None", "" wrote an empty arch column,
        # and 7 or [1] went into file names as "7" or "[1]"
        cfg = base_config(tmp_path / "out", seeds=[0])
        cfg["architectures"][0]["name"] = name
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: invalid architecture" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # validate-ntk rejects any linear architecture first, so these run apart from
    # test_malformed_architecture_is_config_error
    @pytest.mark.parametrize("arch", [
        {"kind": "linear", "conv": "row"},
        {"kind": "linear", "beta": 2.0},
        {"kind": "linear", "alpha": 0.3},
        {"kind": "mlp", "power_k": 3},
    ])
    @pytest.mark.parametrize("command", ["certify", "export", "ntk"])
    def test_parameter_the_kind_does_not_read_is_config_error(self, tmp_path, capsys, command,
                                                              arch):
        cfg = base_config(tmp_path / "out", seeds=[0], architectures=[dict(arch, C=0.05)])
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "config error: invalid architecture" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # each key was accepted and built the same kernel as without it; gen and report
    # accepted every one, since only the commands that build specs checked any
    @pytest.mark.parametrize("arch, key", [
        ({"kind": "linear", "depth": 3}, "depth"),
        ({"kind": "sgc", "conv": "row", "activation": "linear"}, "activation"),
        ({"kind": "gcn", "conv": "row", "skip_activation": "linear"}, "skip_activation"),
        ({"kind": "gcn", "conv": "row", "alpha": 0.3}, "alpha"),
        ({"kind": "ppnp", "conv": "row", "alpha": 0.3, "power_k": 3}, "power_k"),
        ({"kind": "mlp", "conv": "row"}, "conv"),
        ({"kind": "linear", "beta": 2.0}, "beta"),
    ], ids=lambda v: v if isinstance(v, str) else v["kind"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_key_the_kind_does_not_read_is_config_error(self, tmp_path, monkeypatch, capsys,
                                                        command, arch, key):
        monkeypatch.chdir(tmp_path)
        write_config(tmp_path, base_config("out", seeds=[0], architectures=[dict(arch, C=0.05)]))
        assert main([command, "--config", "cfg.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid architecture {arch | {'C': 0.05}}: "
                              f"{arch['kind']} reads no '{key}'")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("key, value", [
        ("conv", "diag"), ("conv", 1), ("beta", 0), ("beta", -1.0), ("beta", "x"), ("beta", True),
    ])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_conv_and_beta_are_checked_at_load(self, tmp_path, monkeypatch, capsys, command,
                                               key, value):
        monkeypatch.chdir(tmp_path)
        arch = {"kind": "gcn", "conv": "row", key: value, "C": 0.05}
        write_config(tmp_path, base_config("out", seeds=[0], architectures=[arch]))
        assert main([command, "--config", "cfg.json"]) == 2
        assert capsys.readouterr().err.startswith(f"config error: invalid architecture {arch}")
        assert os.listdir(tmp_path) == ["cfg.json"]

    @pytest.mark.parametrize("kind", certlab.ntk.READS)
    def test_every_key_the_kind_reads_loads(self, kind):
        values = {"depth": 2, "activation": "linear", "conv": "sym", "alpha": 0.3, "power_k": 3,
                  "skip_activation": "linear"}
        reads = certlab.ntk.READS[kind]
        arch = {"kind": kind, "C": 0.05, **{key: values[key] for key in reads},
                **({"beta": 2.0} if "conv" in reads else {})}
        config = ExperimentConfig.from_dict(base_config("out", architectures=[arch]))
        graph = certlab.cli.make_graph(config, 0)
        spec = certlab.cli.make_arch_spec(arch, graph)
        assert [getattr(spec, key) for key in reads if key != "conv"] == [
            values[key] for key in reads if key != "conv"]
        assert spec.conv is None or (spec.conv.mode, spec.conv.beta) == ("sym", 2.0)

    @pytest.mark.parametrize("workload", WORKLOADS.NAMES)
    def test_benchmark_configs_load(self, tmp_path, workload):
        for command in WORKLOADS.build(workload, 0, str(tmp_path)).commands:
            ExperimentConfig.from_file(tmp_path / command.config)

    def test_readme_example_config_loads(self):
        example = README.split("Example config:", 1)[1].split("```json", 1)[1].split("```")[0]
        ExperimentConfig.from_dict(json.loads(example))

    def test_manifest_and_dataset_seed_load(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0], dataset={"kind": "csbm", "n": 24,
                                                                "labeled_per_class": 3, "seed": 9})
        bundle = run(ExperimentConfig.from_dict(cfg))
        replay = ExperimentConfig.from_file(bundle.manifest_path)
        assert replay == ExperimentConfig.from_dict(cfg)
        assert replay.replay_timings == bundle.manifest["timings"]

    def test_readme_names_every_config_field(self):
        keys = [f.name for cls, own in [(ExperimentConfig, ()), (CsbmParams, ("seed",)),
                                        (CbaParams, ("seed",)), (ArchitectureSpec, ("conv",))]
                for f in fields(cls) if f.name not in own]
        assert [key for key in keys if f"`{key}`" not in README] == []


class TestRun:
    def test_grid_shape_and_header(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out"))
        bundle = run(cfg)
        lines = Path(bundle.metrics_path).read_text().splitlines()
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
        first = Path(bundle.metrics_path).read_bytes()
        replay_cfg = ExperimentConfig.from_dict(
            json.loads(Path(bundle.manifest_path).read_text()))
        bundle2 = run(replay_cfg)
        assert Path(bundle2.metrics_path).read_bytes() == first

    def test_plain_rerun_differs_only_in_runtime(self, tmp_path):
        cfg = ExperimentConfig.from_dict(base_config(tmp_path / "out"))
        rows1 = run(cfg).rows
        rows2 = run(ExperimentConfig.from_dict(base_config(tmp_path / "out"))).rows
        for a, b in zip(rows1, rows2):
            for key in ("seed", "arch", "epsilon", "certified_ratio",
                        "certified_accuracy", "clean_accuracy"):
                assert a[key] == b[key]

    def test_capacity_error_surfaces_without_aborting(self, tmp_path):
        # m=6 labeled: eps=0.2 needs 7 leaves, eps=1.0 needs 64; C = 1 keeps the
        # sample-wise certificates off the closed form, which has no capacity limit
        archs = [dict(a, C=1.0) for a in base_config(tmp_path)["architectures"]]
        cfg = base_config(tmp_path / "out", capacity=8, architectures=archs,
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
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
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

    def test_generator_dataset_runs_like_its_saved_graph(self, tmp_path):
        dataset = {"kind": "cba", "n": 30, "deg": 3, "labeled_per_class": 3,
                   "normalize_features": True}
        gen = base_config(tmp_path / "gen", seeds=[0], dataset=dataset)
        assert main(["gen", "--config", write_config(tmp_path, gen)]) == 0
        saved = {"kind": "file", "path": str(tmp_path / "gen" / "graph_seed0.json")}
        bundles = [run(ExperimentConfig.from_dict(base_config(tmp_path / out, seeds=[0],
                                                              dataset=ds)))
                   for out, ds in (("direct", dataset), ("saved", saved))]
        direct, saved = bundles
        assert not direct.failures
        assert ([dict(r, runtime_ms=None) for r in direct.rows]
                == [dict(r, runtime_ms=None) for r in saved.rows])
        for path in ("per_node_path", "witness_path"):
            assert Path(getattr(direct, path)).read_text() == Path(getattr(saved, path)).read_text()

    @pytest.mark.parametrize("kind", ["multiclass-exact", "multiclass-inexact"])
    def test_two_class_multiclass_is_the_binary_pipeline(self, tmp_path, kind):
        # with K = 2 the one-vs-all certificates are the sample-wise ones
        binary, multi = (run(ExperimentConfig.from_dict(base_config(
            tmp_path / cert, seeds=[0], certificate=cert))) for cert in ("sample", kind))
        assert ([dict(r, kind=None, runtime_ms=None) for r in multi.rows]
                == [dict(r, kind=None, runtime_ms=None) for r in binary.rows])
        assert Path(multi.per_node_path).read_text() == Path(binary.per_node_path).read_text()
        assert Path(multi.witness_path).read_text() == Path(binary.witness_path).read_text()

    @pytest.mark.parametrize("command, certificate", [
        ("certify", "sample"), ("certify", "collective"), ("export", "sample")])
    def test_binary_certificate_needs_two_classes(self, tmp_path, capsys, command,
                                                  certificate):
        three_class_graph(tmp_path / "g3.json")
        cfg = base_config(tmp_path / "out", seeds=[0], certificate=certificate,
                          dataset={"kind": "file", "path": str(tmp_path / "g3.json")})
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert "binary certification needs a two-class graph" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("certificate", ["multiclass-exact", "multiclass-inexact"])
    def test_multiclass_certificate_needs_two_classes(self, tmp_path, capsys, certificate):
        rng = np.random.Generator(np.random.Philox(8))
        save_graph(Graph(features=rng.standard_normal((6, 2)),
                         adjacency=np.ones((6, 6)) - np.eye(6), labels=np.ones(6, dtype=int),
                         labeled=[0, 1, 2], num_classes=1), tmp_path / "g1.json")
        cfg = base_config(tmp_path / "out", seeds=[0], certificate=certificate,
                          test_nodes="all-unlabeled",
                          dataset={"kind": "file", "path": str(tmp_path / "g1.json")})
        assert main(["certify", "--config", write_config(tmp_path, cfg)]) == 2
        assert "multi-class certification needs at least two classes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestPerNodeRecords:
    """per_node.json is rendered from one template per record kind, with the
    bytes json.dump(records, indent=1) writes."""

    @pytest.mark.parametrize("name", ["gcn", "\u00e9"])
    def test_templates_write_json_dump_bytes(self, tmp_path, name):
        test = np.array([4, 7, 9])
        cells = [
            (0, 0.1, CollectiveCertificate(2, (1, 3), [True, False, True])),
            (3, 0.25, [SampleCertificate(4, True, 0.25, ()),
                       SampleCertificate(7, False, -1.5e-17, (0, 5)),
                       SampleCertificate(9, False, 0.0, (2,))]),
            (5, 1.0, [SampleCertificate(4, False, -3.0, ((0, 2), (5, 1))),
                      SampleCertificate(7, True, 1e300, ()),
                      SampleCertificate(9, False, -0.0, ((3, 3),))]),
            (7, 0.5, [SampleCertificate(4, False, math.nan, ()),
                      SampleCertificate(7, True, math.inf, (1,)),
                      SampleCertificate(9, False, -math.inf, ())]),
            (8, 0.75, []),  # a cell without records
        ]
        records = []
        for seed, eps, result in cells:
            if isinstance(result, CollectiveCertificate):
                fields = [{"node": int(t), "misclassified_under_witness": bool(flag)}
                          for t, flag in zip(test, result.misclassified)]
            else:
                fields = [{"node": c.node, "robust": c.robust,
                           "worst_objective": c.worst_objective,
                           "witness": [list(x) if isinstance(x, tuple) else x
                                       for x in c.witness]} for c in result]
            records += [{"seed": seed, "arch": name, "epsilon": eps, **f} for f in fields]
        path = certlab.cli._dump_per_node(
            [(seed, name, eps, certlab.cli._node_records(test, result))
             for seed, eps, result in cells], str(tmp_path))
        assert Path(path).read_text() == json.dumps(records, indent=1) + "\n"
        certlab.cli._dump_per_node([(1, name, 0.5, [])], str(tmp_path))
        assert Path(path).read_text() == json.dumps([], indent=1) + "\n"

    @pytest.mark.parametrize("kind", ["sample", "collective"])
    def test_run_writes_json_dump_bytes(self, tmp_path, kind):
        archs = [{"name": "g\u00e9", "kind": "gcn", "depth": 1, "conv": "row", "C": 1.0},
                 {"name": "lin", "kind": "linear", "C": 0.05}]
        bundle = run(ExperimentConfig.from_dict(
            base_config(tmp_path / "out", certificate=kind, architectures=archs)))
        text = Path(bundle.per_node_path).read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        assert "\\u00e9" in text and len(json.loads(text)) == 2 * 2 * 2 * 5

    def test_multiclass_run_writes_json_dump_bytes(self, tmp_path):
        bundle = run(ExperimentConfig.from_dict(multiclass_grid_config(tmp_path)))
        text = Path(bundle.per_node_path).read_text()
        assert text == json.dumps(json.loads(text), indent=1) + "\n"
        assert any(r["witness"] and isinstance(r["witness"][0], list)
                   for r in json.loads(text))


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


def multiclass_grid_config(tmp_path, out="out"):
    """K = 3, m = 6, |T| = 4 and epsilons with r = 1, 2, on a graph that never saturates."""
    three_class_graph(tmp_path / "g3.json")
    return base_config(tmp_path / out,
                       dataset={"kind": "file", "path": str(tmp_path / "g3.json")},
                       architectures=[{"name": "gcn", "kind": "gcn", "depth": 1,
                                       "conv": "row", "C": 0.05}],
                       certificate="multiclass-exact", epsilons=[0.17, 0.34],
                       test_nodes={"sample": 4, "seed": 0}, seeds=[0])


class TestOneScanPerUnit:
    def test_multiclass_grid_solves_once_per_flip_set_per_class(self, tmp_path, monkeypatch):
        calls, saturated = count_solves(monkeypatch), record_saturation(monkeypatch)
        bundle = run(ExperimentConfig.from_dict(multiclass_grid_config(tmp_path)))
        assert saturated and not any(saturated)  # every scan solves leaf QPs
        assert len(bundle.rows) == 2 and not bundle.manifest["errors"]
        assert len(json.loads(Path(bundle.per_node_path).read_text())) == 2 * 4
        # one solve per flip set of the largest budget (m=6, r=2) in each of the
        # K one-vs-all scans, shared by every relabeling, test node and epsilon
        assert len(calls) == 3 * leaf_count(6, 2)

    def test_manifest_counts_leaves_per_unit(self, tmp_path, monkeypatch):
        archs = [dict(a, C=C) for a, C in zip(base_config(tmp_path)["architectures"],
                                              (1.0, 0.05))]
        saturated = record_saturation(monkeypatch)
        bundle = run(ExperimentConfig.from_dict(base_config(tmp_path / "out",
                                                            architectures=archs)))
        stats = bundle.manifest["stats"]
        assert list(stats) == ["s0|gcn", "s0|lin", "s1|gcn", "s1|lin"]
        assert True in saturated and False in saturated
        for unit, pinned in zip(stats.values(), saturated):
            # m = 6, eps = 0.5; a saturated unit answers its 5 rows x 2 eps in closed form
            assert unit["leaves"] == (0 if pinned else leaf_count(6, 3))
            assert unit["closed_form_rows"] == (5 * 2 if pinned else 0)
            children = unit["verified_leaves"] + unit["cd_fallbacks"]
            assert children == (0 if pinned else unit["leaves"] - 1)
        first = Path(bundle.manifest_path).read_bytes()
        replay = run(ExperimentConfig.from_dict(json.loads(Path(bundle.manifest_path).read_text())))
        assert Path(replay.manifest_path).read_bytes() == first

    @pytest.mark.parametrize("kind", ["multiclass-exact", "multiclass-inexact"])
    def test_multiclass_convergence_error_keeps_smaller_budget(self, tmp_path, monkeypatch,
                                                               kind):
        clean = run(ExperimentConfig.from_dict(
            dict(multiclass_grid_config(tmp_path, "clean"), certificate=kind)))
        # the scans read their 3 clean leaves and 3 * 6 leaves of size 1 before
        # the first size-2 leaf, which belongs to the eps=0.34 budget (r=2)
        count_solves(monkeypatch, fail_at=3 + 3 * 6 + 1)
        path = write_config(tmp_path, dict(multiclass_grid_config(tmp_path), certificate=kind))
        assert main(["certify", "--config", path]) == 1
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        science = ("certified_ratio", "certified_accuracy", "clean_accuracy")
        assert [rows[0][k] for k in science] == [repr(clean.rows[0][k]) for k in science]
        assert [rows[1][k] for k in science] == ["nan"] * 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["errors"] == {"s0|gcn|e0.34": "injected non-convergence"}
        assert manifest["error_kinds"] == {"s0|gcn|e0.34": "ConvergenceError"}
        witnesses = json.loads((tmp_path / "out" / "witnesses.json").read_text())
        assert list(witnesses) == ["s0|gcn|e0.17"]
        want = json.loads(Path(clean.witness_path).read_text())
        assert witnesses["s0|gcn|e0.17"] == want["s0|gcn|e0.17"]

    @pytest.mark.parametrize("kind, answered, leaves", [
        # relabelings per eps: 13 (r=1), 73 (r=2), 233 (r=3); K scans walk r=1
        ("multiclass-exact", 1, 3 * leaf_count(6, 1)),
        # flip sets per class: 7, 22, 42; K scans walk r=2
        ("multiclass-inexact", 2, 3 * leaf_count(6, 2)),
    ])
    def test_multiclass_walk_stops_at_capacity(self, tmp_path, kind, answered, leaves):
        epsilons = [0.17, 0.34, 0.5]
        clean = run(ExperimentConfig.from_dict(dict(
            multiclass_grid_config(tmp_path, "clean"), certificate=kind, epsilons=epsilons)))
        cfg = dict(multiclass_grid_config(tmp_path), certificate=kind, epsilons=epsilons,
                   capacity=30)
        assert main(["certify", "--config", write_config(tmp_path, cfg)]) == 3
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["stats"]["s0|gcn"]["leaves"] == leaves
        # every eps past the first over-cap one shares its error
        first_over = leaf_count(6, answered + 1, 3 if kind == "multiclass-exact" else 2)
        assert manifest["errors"] == {
            f"s0|gcn|e{eps}": f"enumeration needs at least {first_over} leaves but the "
            "capacity limit is 30; export the instance with write_mps/write_lp and solve "
            "it externally" for eps in epsilons[answered:]}
        assert set(manifest["error_kinds"].values()) == {"CapacityError"}
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        science = ("certified_ratio", "certified_accuracy", "clean_accuracy")
        assert [[r[k] for k in science] for r in rows] == (
            [[repr(r[k]) for k in science] for r in clean.rows[:answered]]
            + [["nan"] * 3] * (len(epsilons) - answered))
        witnesses = json.loads((tmp_path / "out" / "witnesses.json").read_text())
        want = json.loads(Path(clean.witness_path).read_text())
        assert witnesses == {f"s0|gcn|e{eps}": want[f"s0|gcn|e{eps}"]
                             for eps in epsilons[:answered]}

    @pytest.mark.parametrize("kind", ["sample", "collective", "multiclass-exact",
                                      "multiclass-inexact"])
    def test_saturated_grid_runs_past_capacity(self, tmp_path, monkeypatch, kind):
        # m = 6: eps = 1.0 needs 64 flip sets (729 relabelings); the closed forms
        # need none, the collective walk stops at the limit
        archs = [{"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 0.001}]
        grid = dict(epsilons=[0.17, 1.0], capacity=30, architectures=archs, seeds=[0])
        if kind.startswith("multiclass"):
            cfg = dict(multiclass_grid_config(tmp_path), certificate=kind, **grid)
        else:
            cfg = base_config(tmp_path / "out", certificate=kind, **grid)
        saturated = record_saturation(monkeypatch)
        rc = main(["certify", "--config", write_config(tmp_path, cfg)])
        assert saturated and all(saturated)
        with open(tmp_path / "out" / "metrics.csv") as fh:
            rows = {r["epsilon"]: r for r in csv.DictReader(fh)}
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        finite = [eps for eps, r in rows.items() if r["certified_ratio"] != "nan"]
        if kind == "collective":
            assert rc == 3 and finite == ["0.17"]
            assert manifest["error_kinds"] == {"s0|gcn|e1.0": "CapacityError"}
            assert manifest["stats"]["s0|gcn"]["leaves"] == leaf_count(6, 1)
        else:
            assert rc == 0 and finite == ["0.17", "1.0"] and not manifest["errors"]
            test_rows = 5 if kind == "sample" else 4
            assert manifest["stats"]["s0|gcn"] == {"leaves": 0, "verified_leaves": 0,
                                                   "cd_fallbacks": 0,
                                                   "closed_form_rows": test_rows * 2}

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
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["errors"] == {"s0|gcn|e0.5": "injected non-convergence"}
        assert manifest["error_kinds"] == {"s0|gcn|e0.5": "ConvergenceError"}
        witnesses = json.loads((tmp_path / "out" / "witnesses.json").read_text())
        assert "s0|gcn|e0.2" in witnesses and "s0|gcn|e0.5" not in witnesses


# one saturated unit and one unsaturated unit whose column block is not
# bit-identical to the full kernel's columns (appnp propagates by Horner)
COLUMN_ARCHS = [{"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": 0.05},
                {"name": "appnp", "kind": "appnp", "depth": 1, "conv": "sym", "alpha": 0.1,
                 "power_k": 6, "C": 1.0}]


def column_grid_config(tmp_path, case, out):
    if case == "multiclass-exact":
        return dict(multiclass_grid_config(tmp_path, out), architectures=COLUMN_ARCHS)
    cfg = base_config(tmp_path / out, seeds=[0, 1], architectures=COLUMN_ARCHS)
    if case == "export":
        return dict(cfg, epsilons=[0.2], export_model="sample")
    if case == "export-collective":
        return dict(cfg, export_model="collective")
    return dict(cfg, certificate=case)


def full_kernel_columns(monkeypatch):
    """Makes `cli.ntk_analytic` slice its columns out of the full n x n kernel."""
    original = certlab.cli.ntk_analytic

    def sliced(spec, graph, columns):
        full = original(spec, graph)
        return KernelColumns(full.Q[:, columns], columns, full.source)

    monkeypatch.setattr(certlab.cli, "ntk_analytic", sliced)


def mps_numbers(path):
    """The words and the numbers of an MPS file, apart."""
    words, numbers = [], []
    for token in Path(path).read_text().split():
        try:
            numbers.append(float(token))
        except ValueError:
            words.append(token)
    return words, np.array(numbers)


class TestColumnKernels:
    CASES = ["sample", "collective", "multiclass-exact", "export", "export-collective"]

    @pytest.mark.parametrize("case", CASES)
    def test_outputs_match_full_kernel_slices(self, tmp_path, monkeypatch, case):
        command = "export" if case.startswith("export") else "certify"
        outs = {}
        for out in ("columns", "full"):
            if out == "full":
                full_kernel_columns(monkeypatch)
            path = write_config(tmp_path, column_grid_config(tmp_path, case, out), out + ".json")
            assert main([command, "--config", path]) == 0
            outs[out] = tmp_path / out
        a, b = outs["columns"], outs["full"]
        rows = [[{k: v for k, v in r.items() if k != "runtime_ms"}
                 for r in csv.DictReader((d / "metrics.csv").read_text().splitlines())]
                for d in (a, b)]
        assert rows[0] == rows[1]
        # an export's witnesses list the files it wrote, under its own directory
        witnesses = (a / "witnesses.json").read_text().replace(str(a), str(b))
        assert witnesses == (b / "witnesses.json").read_text()
        stats = [json.loads((d / "manifest.json").read_text())["stats"] for d in (a, b)]
        assert stats[0] == stats[1]
        records = [json.loads((d / "per_node.json").read_text()) for d in (a, b)]
        assert len(records[0]) == len(records[1])
        for ra, rb in zip(*records):
            worst = ra.pop("worst_objective", None), rb.pop("worst_objective", None)
            assert ra == rb  # node, flags and witness
            if worst[0] is not None:
                assert abs(worst[0] - worst[1]) <= 1e-12 * max(abs(worst[1]), 1.0)
        if command == "export":
            files = sorted(os.listdir(a / "exports"))
            assert files and files == sorted(os.listdir(b / "exports"))
            for name in (f for f in files if f.endswith(".mps")):
                (wa, na), (wb, nb) = (mps_numbers(d / "exports" / name) for d in (a, b))
                assert wa == wb
                np.testing.assert_allclose(na, nb, rtol=1e-12, atol=1e-12 * np.abs(nb).max())

    @pytest.mark.parametrize("case", CASES)
    def test_every_unit_holds_a_column_block(self, tmp_path, monkeypatch, case):
        built, held = [], []
        ntk_analytic, run_cell = certlab.cli.ntk_analytic, certlab.cli._run_cell

        def recorded_ntk(*args, **kwargs):
            built.append(ntk_analytic(*args, **kwargs))
            return built[-1]

        def recorded_cell(config, graph, kernel, *args):
            held.append((graph.labels.size, graph.labeled.size, kernel))
            return run_cell(config, graph, kernel, *args)

        monkeypatch.setattr(certlab.cli, "ntk_analytic", recorded_ntk)
        monkeypatch.setattr(certlab.cli, "_run_cell", recorded_cell)
        command = "export" if case.startswith("export") else "certify"
        path = write_config(tmp_path, column_grid_config(tmp_path, case, "out"))
        assert main([command, "--config", path]) == 0
        assert len(held) == len(built) > 0
        for n, m, kernel in held:
            assert isinstance(kernel, KernelColumns) and kernel.Q.shape == (n, m)
        assert not any(k.Q.shape == (n, n) for k in built for n, _, _ in held)

    def test_units_hold_no_graph_matrix(self, tmp_path, monkeypatch):
        # a unit outlives its kernel build, so its graph must not keep the
        # n x n adjacency or the features alive until the end of the run
        held, run_cell = [], certlab.cli._run_cell

        def recorded_cell(config, graph, *args):
            held.append(graph)
            return run_cell(config, graph, *args)

        monkeypatch.setattr(certlab.cli, "_run_cell", recorded_cell)
        path = write_config(tmp_path, column_grid_config(tmp_path, "sample", "out"))
        assert main(["certify", "--config", path]) == 0
        assert held and not any(hasattr(g, "adjacency") or hasattr(g, "features") for g in held)


class TestSubcommands:
    def test_gen_writes_loadable_graphs(self, tmp_path):
        cfg = base_config(tmp_path / "out")
        path = write_config(tmp_path, cfg)
        assert main(["gen", "--config", path]) == 0
        for seed in (0, 1):
            g = load_graph(tmp_path / "out" / f"graph_seed{seed}.json")
            assert g.n == 24 and g.seed == seed

    @pytest.mark.parametrize("normalize", [False, True], ids=["raw", "normalized"])
    @pytest.mark.parametrize("kind, sample, params", [("csbm", sample_csbm, CsbmParams),
                                                      ("cba", sample_cba, CbaParams)],
                             ids=["csbm", "cba"])
    def test_dataset_defaults_are_the_generators(self, tmp_path, kind, sample, params,
                                                 normalize):
        # only n is given; a dataset seed is ignored, each grid seed seeds its graph
        cfg = base_config(tmp_path / "out", dataset={"kind": kind, "n": 40, "seed": 5,
                                                     "normalize_features": normalize})
        assert main(["gen", "--config", write_config(tmp_path, cfg)]) == 0
        for seed in (0, 1):
            want = sample(params(n=40, seed=seed))
            want = normalize_features(want) if normalize else want
            got = load_graph(tmp_path / "out" / f"graph_seed{seed}.json")
            for field in ("features", "adjacency", "labels", "labeled"):
                np.testing.assert_array_equal(getattr(got, field), getattr(want, field))

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
        lines = (tmp_path / "out" / "metrics.csv").read_text().splitlines()
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

    def test_export_collective_without_nonzero_margin_writes_no_model(self, tmp_path):
        # karate's features are one-hot, so every linear K[test, labeled] is 0:
        # each test node is misclassified outright and no model is left to write
        cfg = base_config(tmp_path / "out", dataset={"kind": "karate"}, seeds=[0],
                          epsilons=[0.1], export_model="collective",
                          architectures=[{"kind": "linear", "C": 1.0}])
        assert main(["export", "--config", write_config(tmp_path, cfg)]) == 0
        assert (tmp_path / "out" / "manifest.json").exists()
        assert not [f for f in os.listdir(tmp_path / "out" / "exports") if f.endswith(".mps")]
        witnesses = json.loads((tmp_path / "out" / "witnesses.json").read_text())
        assert witnesses == {"s0|linear|e0.1": {"kind": "export-only", "files": []}}

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

    @pytest.mark.parametrize("command, override", [
        ("certify", {"capacity": 0}),
        ("certify", {"capacity": -5}),
        # an infinite threshold passes every kernel; NaN and -1 fail every one
        ("validate-ntk", {"threshold": float("inf")}),
        ("validate-ntk", {"threshold": float("nan")}),
        ("validate-ntk", {"threshold": -1.0}),
    ], ids=["capacity-0", "capacity-negative", "threshold-inf", "threshold-nan",
            "threshold-negative"])
    def test_out_of_range_limit_is_config_error(self, tmp_path, capsys, command, override):
        cfg = base_config(tmp_path / "out", seeds=[0], widths=[8, 16], nt_samples=2,
                          architectures=[{"name": "gcn", "kind": "gcn", "depth": 1,
                                          "conv": "row", "C": 1.0}], **override)
        assert main([command, "--config", write_config(tmp_path, cfg)]) == 2
        assert f"config error: {next(iter(override))} must" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, code, message", [
        ({}, 2, "config error: the linear kernel has no width sweep"),
        ({"architectures": [{"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row",
                             "C": 1.0}], "widths": [128, 100000]},
         1, "error: n*width = 2400000 exceeds the cap"),
    ], ids=["linear", "over-cap"])
    def test_validate_ntk_rejects_before_estimating(self, tmp_path, capsys, monkeypatch,
                                                    override, code, message):
        # base_config lists gcn before linear, so gcn would be estimated first
        calls = []
        monkeypatch.setattr(certlab.cli, "ntk_empirical", lambda *a, **k: calls.append(a))
        cfg = base_config(tmp_path / "out", seeds=[0], widths=[128, 512], nt_samples=2)
        cfg.update(override)
        assert main(["validate-ntk", "--config", write_config(tmp_path, cfg)]) == code
        assert message in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "out").exists()

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
        deltas = Path(paths["plateau_deltas"]).read_text().splitlines()
        assert len(deltas) == 2  # header + one row

    def test_cli_report(self, tmp_path):
        cfg = base_config(tmp_path / "out", seeds=[0])
        path = write_config(tmp_path, cfg)
        assert main(["certify", "--config", path]) == 0
        assert main(["report", "--config", path]) == 0
        assert (tmp_path / "out" / "plateau_deltas.csv").exists()

    def test_bundle_without_metrics_is_config_error(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        path = write_config(tmp_path, base_config(tmp_path / "out"))
        assert main(["report", "--config", path]) == 2
        metrics_path = os.path.join(str(tmp_path / "out"), "metrics.csv")
        assert f"config error: {metrics_path}: FileNotFoundError" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_non_numeric_cell_is_config_error(self, tmp_path, capsys):
        cfg = base_config(tmp_path / "out", seeds=[0])
        path = write_config(tmp_path, cfg)
        assert main(["certify", "--config", path]) == 0
        metrics_path = tmp_path / "out" / "metrics.csv"
        lines = metrics_path.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:4] + ["abc"] + lines[1].split(",")[5:])
        metrics_path.write_text("\n".join(lines) + "\n")
        assert main(["report", "--config", path]) == 2
        err = capsys.readouterr().err
        assert f"config error: {metrics_path}: ValueError" in err and "'abc'" in err
        assert not (tmp_path / "out" / "plateau_deltas.csv").exists()
