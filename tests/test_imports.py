"""Which certlab modules a fresh interpreter loads.

`import certlab` serves its public names lazily, and each subcommand
compiles only the modules it runs: `certlab.milp` is for `export` alone.
Each check starts a new interpreter, since this one has loaded them all.
"""

import json
import os
import subprocess
import sys

import pytest

import certlab

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# prints the certlab modules loaded after the given code ran
LOADED = ("\nimport json, sys\n"
          "print(json.dumps(sorted(m for m in sys.modules if m.startswith('certlab'))))")


def fresh(code, cwd=None) -> list:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    done = subprocess.run([sys.executable, "-c", code + LOADED], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_import_certlab_loads_no_submodule():
    assert set(fresh("import certlab")) <= {"certlab", "certlab.errors"}


def test_only_export_loads_milp(tmp_path):
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
    loaded = {}
    # report reads the metrics.csv that certify writes
    for command in ("gen", "ntk", "certify", "validate-ntk", "report", "export"):
        loaded[command] = fresh("from certlab.cli import main\n"
                                f"assert main([{command!r}, '--config', 'cfg.json']) == 0",
                                cwd=tmp_path)
    assert [c for c, modules in loaded.items() if "certlab.milp" in modules] == ["export"]
    assert os.listdir(tmp_path / "out" / "exports")


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
