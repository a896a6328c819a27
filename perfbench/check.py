"""Output checks for one pass of a workload.

Any seed: every command exits 0 with no manifest errors, certified_ratio
never rises along the epsilon grid, every node multiclass-inexact calls
robust is robust under multiclass-exact, and every exported model listed
in witnesses.json exists. The default seed additionally compares digests
of metrics.csv (without runtime_ms), witnesses.json and the exported MPS
files against the values recorded in digests.json; the NTK errors of
validate-ntk are not digested, because the empirical kernel's random
stream may change.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import math
import os
from dataclasses import dataclass, field


@dataclass
class PassCheck:
    attempted: int = 0
    items: int = 0
    failed_cells: dict = field(default_factory=dict)  # config -> (cells, failed keys)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return sum(min(cells, len(keys)) for cells, keys in self.failed_cells.values())

    def fail(self, command, cell, why) -> None:
        self.failed_cells.setdefault(command.config, (command.cells, set()))[1].add(cell)
        self.problems.append(f"{command.config} {cell}: {why}")

    def fail_all(self, command, why) -> None:
        """Counts every cell of `command` as failed."""
        keys = self.failed_cells.setdefault(command.config, (command.cells, set()))[1]
        keys.update(f"#{i}" for i in range(command.cells))
        self.problems.append(f"{command.config}: {why}")


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def digest(workdir, command) -> str | None:
    """sha256 over the outputs of `command` that must stay byte-identical."""
    out = os.path.join(workdir, command.output)
    h = hashlib.sha256()
    if command.argv[0] == "certify":
        with open(os.path.join(out, "metrics.csv")) as fh:
            for line in fh:
                h.update(line.rstrip("\n").rsplit(",", 1)[0].encode() + b"\n")
        with open(os.path.join(out, "witnesses.json"), "rb") as fh:
            h.update(fh.read())
    elif command.argv[0] == "export":
        for path in sorted(glob.glob(os.path.join(out, "exports", "*"))):
            h.update(os.path.basename(path).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    else:
        return None
    return h.hexdigest()


def _check_certify(workdir, command, check: PassCheck) -> dict:
    """Checks one certify command; returns {(seed, arch, eps, node): robust}."""
    out = os.path.join(workdir, command.output)
    for key, err in _read_json(os.path.join(out, "manifest.json"))["errors"].items():
        check.fail(command, key, f"cell error: {err}")
    curves: dict = {}
    with open(os.path.join(out, "metrics.csv")) as fh:
        for row in csv.DictReader(fh):
            ratio = float(row["certified_ratio"])
            key = f"s{row['seed']}|{row['arch']}|e{row['epsilon']}"
            if math.isnan(ratio):
                check.fail(command, key, "no result")
                continue
            prev = curves.get((row["seed"], row["arch"]))
            if prev is not None and ratio > prev:
                check.fail(command, key, f"certified_ratio rises along eps ({prev} -> {ratio})")
            curves[(row["seed"], row["arch"])] = ratio
    records = _read_json(os.path.join(out, "per_node.json"))
    check.items += len(records)
    return {(r["seed"], r["arch"], r["epsilon"], r["node"]): r.get("robust")
            for r in records}


def check_pass(workload, returncodes, expected=None) -> PassCheck:
    """Checks the outputs one pass of `workload` left in its work directory.

    `returncodes` holds one exit code per command; `expected` maps a
    command's config name to its recorded digest (default seed only).
    """
    workdir = workload.workdir
    check = PassCheck()
    verdicts = {}
    for command, rc in zip(workload.commands, returncodes):
        check.attempted += command.cells
        if rc != 0:
            check.fail_all(command, f"exit code {rc}")
            continue
        try:
            if command.argv[0] == "certify":
                verdicts[command.config] = _check_certify(workdir, command, check)
            elif command.argv[0] == "validate-ntk":
                with open(os.path.join(workdir, command.output, "ntk_validation.csv")) as fh:
                    check.items += len({r["arch"] for r in csv.DictReader(fh)
                                        if r["passed"] == "1"})
            else:
                out = os.path.join(workdir, command.output)
                listed = [f for w in _read_json(os.path.join(out, "witnesses.json")).values()
                          for f in w["files"]]
                missing = [f for f in listed if not os.path.exists(os.path.join(workdir, f))]
                if missing or not listed:
                    check.fail_all(command, f"{len(missing)} of {len(listed)} models missing")
                check.items += len(listed) - len(missing)
            if expected is not None:
                want, got = expected.get(command.config), digest(workdir, command)
                if got is not None and got != want:
                    check.fail_all(command, f"digest {got[:12]} != recorded {str(want)[:12]}")
        except (OSError, ValueError, KeyError) as exc:
            check.fail_all(command, f"unreadable output: {exc!r}")
    exact, inexact = verdicts.get("exact.json"), verdicts.get("inexact.json")
    if exact is not None and inexact is not None:
        command = workload.commands[1]
        for (seed, arch, eps, node), robust in sorted(inexact.items()):
            if robust and not exact.get((seed, arch, eps, node)):
                check.fail(command, f"s{seed}|{arch}|e{eps!r}",
                           f"node {node} robust under inexact but not under exact")
    return check
