"""certlab benchmark: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; certlab is imported from `src/`.
The load is a closed loop with one client: a pass runs the workload's
`certlab` CLI commands one after another, and passes repeat for S
seconds. Pass i uses input variant i mod VARIANTS of the seed.

--trace 0  runs every command in a fresh process and prints the
           end-to-end metrics: medians over passes, and set-up time as
           the median over fresh set-up processes.
--trace 1  runs the commands in this process, alternating untraced and
           traced passes, and prints the per-layer metrics from spans
           recorded around certlab's layer entry points.

Every pass is checked (see check.py). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
`--workload all` runs every workload in turn; `--record-digests`
re-records the default seed's output digests into digests.json.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import check as checks  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTS, PER_LAYER, Tracer, layer_metrics  # noqa: E402

DEFAULT_SEED = 0
DIGESTS = os.path.join(HERE, "digests.json")
SETUP_REPS = 5
MIN_PASSES = 3
HARD_LIMIT_S = 150.0   # past this a run starts no pass and kills a hung command
END_TO_END = (("wall_s", "s"), ("items_per_s", "1/s"), ("cpu_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MiB"))


class Result:
    def __init__(self, name):
        self.name = name
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.metrics: dict = {}
        self.notes: list = []
        self.info: dict = {}

    def add_check(self, check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.problems += check.problems

    def add_metric(self, name, unit, value, note) -> None:
        self.metrics[name] = {"value": value, "unit": unit}
        self.notes.append(f"  {name:<26} {unit:<14} {note}")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


class Run:
    """The inputs and time limits of one benchmark run."""

    def __init__(self, name, seed, seconds, workdir):
        self.start = time.perf_counter()
        self.seconds = seconds
        self.variants = workloads.variants(name, seed, workdir)
        self.expected = expected_digests(name) if seed == DEFAULT_SEED else None
        self.log = os.path.join(workdir, "commands.log")

    def variant(self, i):
        """Workload and recorded digests (or None) of pass i."""
        j = i % len(self.variants)
        return self.variants[j], None if self.expected is None else self.expected[j]

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)

    def keep_going(self, passes, window_start) -> bool:
        """Until MIN_PASSES, then while a pass of median length ends inside the window."""
        if self.time_left() <= 0:
            return False
        if len(passes) < MIN_PASSES:
            return True
        return time.perf_counter() - window_start + statistics.median(passes) <= self.seconds

    def spawn(self, args, cwd):
        """Runs `python3 args...`; returns (exit code, wall s, cpu s, peak RSS MiB).

        Resource usage comes from wait4 on this one child, so the peak RSS is
        the child's own, not the maximum over every child so far.
        """
        env = dict(os.environ, PYTHONPATH=SRC)
        with open(self.log, "ab") as log:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                    stdout=log, stderr=subprocess.STDOUT)
            killer = threading.Timer(max(0.0, self.time_left()), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def expected_digests(name) -> list:
    """Recorded digests of the default seed, one dict per input variant."""
    if not os.path.exists(DIGESTS):
        return [{}] * workloads.VARIANTS
    with open(DIGESTS) as fh:
        return json.load(fh).get(name, [{}] * workloads.VARIANTS)


def clear_outputs(workload) -> None:
    for command in workload.commands:
        shutil.rmtree(os.path.join(workload.workdir, command.output), ignore_errors=True)


def distribution(values) -> str:
    """Median and the highest percentile with at least ten samples above it."""
    n = len(values)
    text = f"median {statistics.median(values):.6g}"
    q = 100 * (n - 10) // n
    if q >= 1:
        text += f", p{q} {statistics.quantiles(values, n=100, method='inclusive')[q - 1]:.6g}"
    return text + f" (n={n})"


def run_untraced(run: Run, result: Result) -> None:
    setup = []
    for rep in range(SETUP_REPS + 1):  # the first one fills caches and is not timed
        workload, _ = run.variant(rep)
        probe = [os.path.join(HERE, "setup_probe.py"), *(c.config for c in workload.commands)]
        rc, wall, _, _ = run.spawn(probe, workload.workdir)
        if rc != 0:
            result.problems.append(f"set-up process exited {rc}")
            continue
        if rep:
            setup.append(wall)
    with open(run.log) as fh:
        workers = next((json.loads(line)["workers"] for line in fh
                        if line.startswith('{"workers"')), None)
    walls, cpus, rss, rates = [], [], [], []
    window_start = time.perf_counter()
    while run.keep_going(walls, window_start):
        workload, expected = run.variant(len(walls))
        clear_outputs(workload)
        runs = [run.spawn(["-m", "certlab.cli", *c.argv], workload.workdir)
                for c in workload.commands]
        check = checks.check_pass(workload, [r[0] for r in runs], expected)
        result.add_check(check)
        walls.append(sum(r[1] for r in runs))
        cpus.append(sum(r[2] for r in runs))
        rss.append(max(r[3] for r in runs))
        rates.append(check.items / walls[-1])
    values = {"wall_s": walls, "items_per_s": rates, "cpu_s": cpus, "setup_s": setup,
              "peak_rss_mb": rss}
    for name, unit in END_TO_END:
        if values[name]:
            result.add_metric(name, unit, statistics.median(values[name]),
                              distribution(values[name]))
    result.info = environment(workers)


def run_inprocess(cli, command, workdir) -> int:
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(command.argv))
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        os.chdir(cwd)


def run_traced(run: Run, result: Result, spans_path) -> None:
    """Pairs of passes on one input variant: untraced, then traced.

    Counts are those of the first traced pass (variant 0), so they repeat
    exactly for a seed; times are medians over the traced passes.
    """
    import certlab.certify as certify
    import certlab.cli as cli
    tracer = Tracer()
    plain, traced, layers, first_spans = [], [], [], []
    window_start = time.perf_counter()
    while run.keep_going([a + b for a, b in zip(plain, traced)], window_start):
        workload, expected = run.variant(len(traced))
        for traced_pass in (False, True):
            clear_outputs(workload)
            if traced_pass:
                tracer.spans = []
                tracer.install(cli, certify)
                tracer.begin(len(traced))
            start = time.perf_counter()
            try:
                rcs = [run_inprocess(cli, c, workload.workdir) for c in workload.commands]
            finally:
                tracer.uninstall()
            wall = time.perf_counter() - start
            result.add_check(checks.check_pass(workload, rcs, expected))
            if traced_pass:
                traced.append(wall)
                layers.append(layer_metrics(tracer.spans, cli.worker_count()))
                first_spans = first_spans or tracer.spans
            else:
                plain.append(wall)
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name in COUNTS:
            value = layers[0][name]
        else:
            value = statistics.median(m[name] for m in layers)
        result.add_metric(name, unit, value, str(value) if isinstance(value, int) else f"{value:.6g}")
    result.notes.append(f"  {len(plain)} untraced and {len(traced)} traced in-process passes")
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    with open(spans_path, "w") as fh:
        json.dump([vars(s) for s in first_spans], fh)
    result.notes.append(f"  spans of the first traced pass: {os.path.relpath(spans_path, ROOT)}")
    result.info = environment(cli.worker_count())


def environment(workers) -> dict:
    """Facts about the machine and checkout; recorded, never gated."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "cli.worker_count": workers,
        "git_commit": _git_commit(),
        "src_certlab_lines": sum(
            sum(1 for _ in open(path, encoding="utf-8"))
            for path in glob.glob(os.path.join(SRC, "certlab", "**", "*.py"), recursive=True)),
    }


def _blas_threads():
    import ctypes
    import numpy as np
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return "unknown (not a git checkout)"
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path) as fh:
            return fh.read().strip()
    with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
        for line in fh:
            if line.rstrip().endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def run_workload(name, seed, seconds, trace) -> Result:
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=base)
    result = Result(name)
    try:
        run = Run(name, seed, seconds, workdir)
        if trace:
            spans = os.path.join(ROOT, ".perfbench_out", f"spans-{name}-seed{seed}.json")
            run_traced(run, result, spans)
        else:
            run_untraced(run, result)
        if result.problems and os.path.exists(run.log):
            with open(run.log, errors="replace") as fh:
                sys.stderr.write(fh.read()[-4000:])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result.notes.append(f"  fail_ratio {result.failed}/{result.attempted} cells")
    return result


def record_digests() -> int:
    """Runs every input variant of the default seed once and stores its digests."""
    recorded = {}
    base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(base, exist_ok=True)
    for name in workloads.NAMES:
        with tempfile.TemporaryDirectory(prefix="record-", dir=base) as workdir:
            run = Run(name, DEFAULT_SEED, 0, workdir)
            recorded[name] = []
            for workload in run.variants:
                rcs = [run.spawn(["-m", "certlab.cli", *c.argv], workload.workdir)[0]
                       for c in workload.commands]
                check = checks.check_pass(workload, rcs)
                if check.failed or check.problems:
                    print(f"{name}: not recorded: {check.problems}", file=sys.stderr)
                    return 1
                digests = {c.config: checks.digest(workload.workdir, c) for c in workload.commands}
                recorded[name].append({k: v for k, v in digests.items() if v is not None})
    with open(DIGESTS, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(DIGESTS, ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "certlab", "cli.py")):
        print(f"error: no certlab sources under {SRC}; run from a certlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.record_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        results.append(result)
        mode = "traced, in-process" if args.trace else "untraced, fresh process per command"
        print(f"workload {name}  seed {args.seed}  ({mode}; closed loop, one client)")
        print("\n".join(result.notes))
        for problem in result.problems[:20]:
            print(f"  CHECK FAILED: {problem}")
        print(f"  info {json.dumps(result.info, sort_keys=True)}")
    summary = {
        "correct": all(r.correct for r in results),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": (results[0].metrics if len(results) == 1
                    else {r.name: r.metrics for r in results}),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
