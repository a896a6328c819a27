"""Set-up work of `certlab certify` before its first grid cell, in a fresh process.

    PYTHONPATH=src python3 perfbench/setup_probe.py CONFIG...

Imports certlab, parses each config and builds every graph and analytic
kernel the way `cli.run` does. Prints `cli.worker_count()` as JSON.
"""

import json
import sys

from certlab import cli

if __name__ == "__main__":
    for path in sys.argv[1:]:
        config = cli.ExperimentConfig.from_file(path)
        for seed in config.seeds:
            graph = cli.make_graph(config, seed)
            for arch in config.architectures:
                cli.ntk_analytic(cli.make_arch_spec(arch, graph), graph)
    print(json.dumps({"workers": cli.worker_count()}))
