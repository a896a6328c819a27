"""Which certlab modules a fresh interpreter loads.

`import certlab` serves its public names lazily, and each subcommand
compiles only the modules it runs: `certlab.certify` is for `certify` and
`export`, `certlab.milp` for `export` alone, and no subcommand loads
`numpy.ma`. Each check starts a new interpreter, since this one has
loaded them all.
"""

import json
import os
import subprocess
import sys

import pytest

import certlab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# prints the certlab modules, and numpy.ma if loaded, after the given code ran
LOADED = ("\nimport json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules\n"
          "                        if m.startswith('certlab') or m == 'numpy.ma')))")
COMMANDS = ("gen", "ntk", "certify", "validate-ntk", "report", "export")


def fresh(code, cwd=None) -> list:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code + LOADED], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_certlab_loads_no_submodule():
    assert set(fresh("import certlab")) <= {"certlab", "certlab.errors"}


@pytest.fixture(scope="module")
def loaded(tmp_path_factory) -> dict:
    """Subcommand -> the modules LOADED lists after it ran on a small config."""
    tmp_path = tmp_path_factory.mktemp("commands")
    config = {
        "dataset": {"kind": "csbm", "n": 24, "labeled_per_class": 3},
        "architectures": [{"name": "gcn", "kind": "gcn", "conv": "row", "C": 0.05}],
        "epsilons": [0.2],
        "test_nodes": {"sample": 3, "seed": 0},
        "widths": [8],
        "nt_samples": 1,
        "threshold": 100.0,
        "output_dir": "out",
    }
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    # report reads the metrics.csv that certify writes
    modules = {command: fresh("from certlab.cli import main\n"
                              f"assert main([{command!r}, '--config', 'cfg.json']) == 0",
                              cwd=tmp_path)
               for command in COMMANDS}
    assert os.listdir(tmp_path / "out" / "exports")
    return modules


def test_only_export_loads_milp(loaded):
    assert [c for c, modules in loaded.items() if "certlab.milp" in modules] == ["export"]


def test_only_certify_and_export_load_certify(loaded):
    assert [c for c, modules in loaded.items() if "certlab.certify" in modules] == [
        "certify", "export"]


def test_no_subcommand_loads_numpy_ma(loaded):
    # np.unique loads all of numpy.ma; certlab's commands never need it
    assert list(loaded) == list(COMMANDS)
    assert [c for c, modules in loaded.items() if "numpy.ma" in modules] == []


@pytest.mark.parametrize("how", ["from", "getattr", "star"])
def test_every_exported_name_resolves(how):
    # every name in __all__ resolves to the object its submodule defines
    code = {
        "from": "for name in certlab.__all__:\n"
                "    exec(f'from certlab import {name} as value', scope := {})\n"
                "    got[name] = scope['value']",
        "getattr": "got.update((name, getattr(certlab, name)) for name in certlab.__all__)",
        "star": "exec('from certlab import *', got)\ngot.pop('__builtins__')",
    }[how]
    fresh("import importlib\nimport certlab\ngot = {}\n" + code + "\n"
          "assert sorted(got) == sorted(certlab.__all__), sorted(got)\n"
          "for module, names in certlab._EXPORTS.items():\n"
          "    sub = importlib.import_module('certlab.' + module)\n"
          "    assert all(got[name] is getattr(sub, name) for name in names), module\n"
          "assert set(certlab.__all__) <= set(dir(certlab))")


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(certlab, "no_such_name")
    with pytest.raises(ImportError):
        exec("from certlab import no_such_name", {})
    assert {"__version__", *certlab.__all__} <= set(dir(certlab))
