"""Self-tests of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a certlab checkout; they take a few seconds.
"""

import json
import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, self_times  # noqa: E402


class ScratchDir(unittest.TestCase):
    def setUp(self):
        base = os.path.join(ROOT, ".perfbench_work")
        os.makedirs(base, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="selftest-", dir=base)
        self.addCleanup(shutil.rmtree, self.tmp, True)

    def files(self, root):
        out = {}
        for dirpath, _, names in os.walk(root):
            for name in names:
                path = os.path.join(dirpath, name)
                with open(path, "rb") as fh:
                    out[os.path.relpath(path, root)] = fh.read()
        return out


class GeneratorTest(ScratchDir):
    def test_same_seed_same_bytes(self):
        for name in workloads.NAMES:
            a, b, c = (os.path.join(self.tmp, name, x) for x in "abc")
            workloads.build(name, 7, a)
            workloads.build(name, 7, b)
            workloads.build(name, 8, c)
            self.assertEqual(self.files(a), self.files(b), name)
            self.assertNotEqual(self.files(a), self.files(c), name)


class SelfTimeTest(unittest.TestCase):
    def test_overlapping_children_on_two_threads(self):
        # run [0, 10] on thread 1; cells [1, 4] and [3, 6] overlap on threads
        # 2 and 3, so together they cover [1, 6]; a grandchild inside the
        # first cell is not the run's child; a cell running past the end of
        # its parent only counts up to that end.
        spans = [
            Span(1, "cli.run", 0.0, 10.0, None, 1, 0),
            Span(2, "cli.cell", 1.0, 4.0, 1, 2, 0),
            Span(3, "cli.cell", 3.0, 6.0, 1, 3, 0),
            Span(4, "certify.certify_samples", 1.5, 3.5, 2, 2, 0),
            Span(5, "cli.cell", 8.0, 12.0, 1, 2, 0),
        ]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10.0 - 5.0 - 2.0)
        self.assertAlmostEqual(selfs[2], 3.0 - 2.0)
        self.assertAlmostEqual(selfs[3], 3.0)
        self.assertAlmostEqual(selfs[4], 2.0)


class OutputCheckTest(ScratchDir):
    def test_one_flip_in_witnesses_is_rejected(self):
        from certlab import cli
        workload = workloads.build("paper-sample", run.DEFAULT_SEED, self.tmp)
        (command,) = workload.commands
        rcs = [run.run_inprocess(cli, command, self.tmp)]
        expected = run.expected_digests("paper-sample")[0]  # variant 0 of the default seed
        self.assertEqual(check.check_pass(workload, rcs, expected).failed, 0)

        path = os.path.join(self.tmp, command.output, "witnesses.json")
        with open(path) as fh:
            doc = json.load(fh)
        witnesses = next(iter(doc.values()))["witnesses"]
        node, flips = next((k, w) for k, w in witnesses.items() if w)
        flips[0] = next(i for i in range(20) if i not in flips)
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        result = check.check_pass(workload, rcs, expected)
        self.assertEqual(result.failed, command.cells)
        self.assertIn("digest", result.problems[0])


if __name__ == "__main__":
    unittest.main()
