"""Solver-agnostic MILP construction for the three certification programs,
plus MPS/LP emission for external solvers.

Variable naming is fixed and deterministic: a_i (dual), yt_i (relaxed
labels), yp_i (label binaries), z_i (= a_i yt_i), u_i / v_i (multipliers),
s_i / tt_i (complementarity binaries), R_i_j (= yt_i z_j), and for the
collective model p_t / c_t per test node. The multi-class model prefixes
every per-class block with the 1-based class index (a_c_i, ...) and adds
ytp_c_i (one-hot label binaries), p_c, pstar and the selector binaries
b_c. Constraint rows are named by family and index.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .certify import Budget
from .svm import (DEFAULT_MAX_SWEEPS, DEFAULT_TOL, SvmProblem, kkt_check, margins,
                  one_vs_all_split, solve_dual)

INF = math.inf


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str                # "continuous" | "binary"
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in ("continuous", "binary"):
            raise ValueError(f"unknown variable kind {self.kind!r}")
        if self.kind == "binary" and (self.lower, self.upper) != (0.0, 1.0):
            raise ValueError(f"binary variable {self.name} must have bounds [0, 1]")
        if self.lower > self.upper:
            raise ValueError(f"variable {self.name} has empty bound interval")


@dataclass(frozen=True)
class Constraint:
    name: str
    terms: tuple             # ((coef, varname), ...)
    sense: str               # "<=", "=", ">="
    rhs: float

    def __post_init__(self):
        if self.sense not in ("<=", "=", ">="):
            raise ValueError(f"unknown constraint sense {self.sense!r}")
        object.__setattr__(self, "terms",
                           tuple([(float(c), str(v)) for c, v in self.terms]))


@dataclass(frozen=True)
class Objective:
    sense: str               # "min" | "max"
    terms: tuple

    def __post_init__(self):
        if self.sense not in ("min", "max"):
            raise ValueError(f"unknown objective sense {self.sense!r}")
        object.__setattr__(self, "terms",
                           tuple((float(c), str(v)) for c, v in self.terms))


class _Body:
    """A model's variables and constraints, checked once: names are unique
    and every constraint term names a declared variable.

    `mps` renders their MPS text, less the objective, on first use: ROWS,
    RHS and BOUNDS as one string each, and COLUMNS as one (name, marker,
    entries) triple per variable, with the MARKER line that opens or
    closes an integer run before it and its constraint coefficients, then
    the closing INTEND marker. Models built on one `SamplewiseBlock` share
    one body, so the check and the text happen once for all of them.
    """

    def __init__(self, variables: tuple, constraints: tuple):
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise ValueError("variable names must be unique")
        self.declared = set(names)
        for con in constraints:
            for _, v in con.terms:
                if v not in self.declared:
                    raise ValueError(f"constraint {con.name} references undeclared {v}")
        self.variables, self.constraints = variables, constraints

    @cached_property
    def mps(self):
        sense_tag = {"<=": "L", ">=": "G", "=": "E"}
        by_var: dict[str, list[str]] = {v.name: [] for v in self.variables}
        for con in self.constraints:
            for c, v in con.terms:
                by_var[v].append(f"    {v}  {con.name}  {_num(c)}\n")
        rows = "".join(f" {sense_tag[con.sense]}  {con.name}\n" for con in self.constraints)
        columns, marker, in_int = [], 0, False
        for v in self.variables:
            opens = ""
            if (v.kind == "binary") != in_int:
                marker += 1
                in_int = not in_int
                opens = f"    M{marker}  'MARKER'  '{'INTORG' if in_int else 'INTEND'}'\n"
            columns.append((v.name, opens, "".join(by_var[v.name])))
        close = f"    M{marker + 1}  'MARKER'  'INTEND'\n" if in_int else ""
        rhs = "".join(f"    RHS  {con.name}  {_num(con.rhs)}\n"
                      for con in self.constraints if con.rhs != 0.0)
        bounds = []
        for v in self.variables:
            if v.kind == "binary":
                bounds.append(f" UP BND  {v.name}  1\n")
                continue
            if v.lower != 0.0:
                bounds.append(f" LO BND  {v.name}  {_num(v.lower)}\n")
            if v.upper != INF:
                bounds.append(f" UP BND  {v.name}  {_num(v.upper)}\n")
        return rows, columns, close, rhs, "".join(bounds)


@dataclass(frozen=True)
class MilpModel:
    """A MILP. `body` holds its checked variables and constraints and their
    MPS text; models that differ only in objective and metadata share it."""

    variables: tuple
    constraints: tuple
    objective: Objective
    metadata: dict = field(compare=False)
    body: _Body | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.body is None:
            object.__setattr__(self, "body", _Body(self.variables, self.constraints))
        for _, v in self.objective.terms:
            if v not in self.body.declared:
                raise ValueError(f"objective references undeclared {v}")

    @property
    def binary_count(self) -> int:
        return sum(1 for v in self.variables if v.kind == "binary")


@dataclass(frozen=True)
class BigM:
    """Tight complementarity constants: Mu_i = max(0, sum_j C|Q_ij| - 1),
    Mv_i = sum_j C|Q_ij| + 1. The raw Mu formula can go negative when the
    kernel row is small; the corresponding multiplier is then forced to
    zero, so clamping at zero is exact."""

    Mu: np.ndarray
    Mv: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.Mu, dtype=np.float64)
        mv = np.asarray(self.Mv, dtype=np.float64)
        if np.any(mu < 0) or np.any(mv < 0):
            raise ValueError("big-M constants must be nonnegative")
        object.__setattr__(self, "Mu", mu)
        object.__setattr__(self, "Mv", mv)


@dataclass(frozen=True)
class MarginBounds:
    """Symmetric a-priori bounds on test margins: |p_t| <= C sum_i |Q_ti|."""

    l: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        l = np.asarray(self.l, dtype=np.float64)
        h = np.asarray(self.h, dtype=np.float64)
        if not np.allclose(l, -h):
            raise ValueError("margin bounds must satisfy l = -h")
        object.__setattr__(self, "l", l)
        object.__setattr__(self, "h", h)


def big_m(Qtrain: np.ndarray, C: float) -> BigM:
    if C <= 0:
        raise ValueError("C must be positive")
    row = C * np.abs(np.asarray(Qtrain, dtype=np.float64)).sum(axis=1)
    return BigM(np.maximum(row - 1.0, 0.0), row + 1.0)


def margin_bounds(Qcross: np.ndarray, C: float) -> MarginBounds:
    if C <= 0:
        raise ValueError("C must be positive")
    h = C * np.abs(np.atleast_2d(np.asarray(Qcross, dtype=np.float64))).sum(axis=1)
    return MarginBounds(-h, h)


class _Builder:
    def __init__(self):
        self.variables: list[Variable] = []
        self.constraints: list[Constraint] = []

    def var(self, name, kind="continuous", lower=0.0, upper=INF):
        if kind == "binary":
            lower, upper = 0.0, 1.0
        self.variables.append(Variable(name, kind, float(lower), float(upper)))
        return name

    def con(self, name, terms, sense, rhs):
        # Constraint converts each term once; zeros are dropped on the way in
        self.constraints.append(
            Constraint(name, ((c, v) for c, v in terms if c != 0.0), sense, float(rhs)))


def _families(C, prefix):
    """(name, kind, lower, upper) of each per-node variable family of a
    sample-wise block, in declaration order; the m x m family R follows."""
    return (("a", "continuous", 0.0, C), ("yt", "continuous", -1.0, 1.0),
            ("ytp" if prefix else "yp", "binary", 0.0, 1.0), ("z", "continuous", -C, C),
            ("u", "continuous", 0.0, INF), ("v", "continuous", 0.0, INF),
            ("s", "binary", 0.0, 1.0), ("tt", "binary", 0.0, 1.0))


def _samplewise_block(b: _Builder, Q, y, C, r, prefix=""):
    """Variables and constraints shared by every certification MILP.

    With `prefix` empty this is the binary sample-wise block; the
    multi-class builder instantiates one block per class.
    """
    m = y.size
    bm = big_m(Q, C)
    p = prefix
    families = _families(C, p)
    label_bin = families[2][0]  # yp, or ytp in a multi-class block
    for name, kind, lower, upper in families:
        for i in range(m):
            b.var(f"{name}{p}_{i}", kind, lower, upper)
    for i in range(m):
        for j in range(m):
            b.var(f"R{p}_{i}_{j}", lower=-C, upper=C)

    if not p:
        # ||ytil - y||_0 <= r, written via sum_i (1 - y_i ytil_i) <= 2r
        b.con("adv", [(float(y[i]), f"yt_{i}") for i in range(m)], ">=", m - 2 * r)
    for i in range(m):
        b.con(f"ydef{p}_{i}", [(1.0, f"yt{p}_{i}"), (-2.0, f"{label_bin}{p}_{i}")],
              "=", -1.0)
    for i in range(m):
        terms = [(float(Q[i, j]), f"R{p}_{i}_{j}") for j in range(m)]
        terms += [(-1.0, f"u{p}_{i}"), (1.0, f"v{p}_{i}")]
        b.con(f"stat{p}_{i}", terms, "=", 1.0)
    for i in range(m):
        b.con(f"zlo1{p}_{i}", [(1.0, f"z{p}_{i}"), (1.0, f"a{p}_{i}")], ">=", 0.0)
        b.con(f"zhi1{p}_{i}", [(1.0, f"z{p}_{i}"), (-1.0, f"a{p}_{i}")], "<=", 0.0)
        b.con(f"zlo2{p}_{i}",
              [(1.0, f"a{p}_{i}"), (C, f"yt{p}_{i}"), (-1.0, f"z{p}_{i}")], "<=", C)
        b.con(f"zhi2{p}_{i}",
              [(1.0, f"z{p}_{i}"), (1.0, f"a{p}_{i}"), (-C, f"yt{p}_{i}")], "<=", C)
    for i in range(m):
        for j in range(m):
            rr = f"R{p}_{i}_{j}"
            b.con(f"Rlo1{p}_{i}_{j}",
                  [(1.0, rr), (1.0, f"z{p}_{j}"), (C, f"yt{p}_{i}")], ">=", -C)
            b.con(f"Rhi1{p}_{i}_{j}",
                  [(1.0, rr), (1.0, f"z{p}_{j}"), (-C, f"yt{p}_{i}")], "<=", C)
            b.con(f"Rlo2{p}_{i}_{j}",
                  [(1.0, rr), (-1.0, f"z{p}_{j}"), (-C, f"yt{p}_{i}")], ">=", -C)
            b.con(f"Rhi2{p}_{i}_{j}",
                  [(1.0, rr), (-1.0, f"z{p}_{j}"), (C, f"yt{p}_{i}")], "<=", C)
    for i in range(m):
        b.con(f"bmu{p}_{i}", [(1.0, f"u{p}_{i}"), (-float(bm.Mu[i]), f"s{p}_{i}")],
              "<=", 0.0)
        b.con(f"bma{p}_{i}", [(1.0, f"a{p}_{i}"), (C, f"s{p}_{i}")], "<=", C)
        b.con(f"bmv{p}_{i}", [(1.0, f"v{p}_{i}"), (-float(bm.Mv[i]), f"tt{p}_{i}")],
              "<=", 0.0)
        b.con(f"bmt{p}_{i}", [(1.0, f"a{p}_{i}"), (-C, f"tt{p}_{i}")], ">=", 0.0)


class SamplewiseBlock:
    """The sample-wise MILP of one (Qtrain, y, C, epsilon), without its
    objective.

    Its variables and constraints (the m^2 linearization included) do not
    depend on the test node, so every node's model is this block plus its
    own objective and metadata. They are built and checked on the first
    `build_samplewise_node`, and their MPS text is rendered on the first
    `write_mps`, once for all of the block's models.
    """

    def __init__(self, Qtrain, y, C, epsilon):
        self.Qtrain = np.asarray(Qtrain, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.C, self.epsilon = C, float(epsilon)
        self.r = Budget(epsilon, self.y.size).r

    @cached_property
    def body(self) -> _Body:
        b = _Builder()
        _samplewise_block(b, self.Qtrain, self.y, self.C, self.r)
        return _Body(tuple(b.variables), tuple(b.constraints))


def build_samplewise_node(block: SamplewiseBlock, Qcross_t, sign_phat,
                          node: int | None = None) -> MilpModel:
    """The sample-wise MILP of one test node on a shared block:
    min sign(p_hat) sum_i z_i Q_ti."""
    qrow = np.asarray(Qcross_t, dtype=np.float64).reshape(-1)
    if sign_phat not in (1, -1, 1.0, -1.0):
        raise ValueError("sign_phat must be +1 or -1")
    m, r = block.y.size, block.r
    objective = Objective("min", [(float(sign_phat) * float(qrow[i]), f"z_{i}")
                                  for i in range(m) if qrow[i] != 0.0])
    meta = {"kind": "samplewise", "node": node, "epsilon": block.epsilon,
            "C": float(block.C), "m": m, "budget": r, "budget_zero": r == 0,
            "sign_phat": int(sign_phat)}
    body = block.body
    return MilpModel(body.variables, body.constraints, objective, meta, body)


def build_samplewise(Qtrain, Qcross_t, y, C, epsilon, sign_phat,
                     node: int | None = None) -> MilpModel:
    """Sample-wise certification MILP: min sign(p_hat) sum_i z_i Q_ti.

    The prediction for the node is robust iff the optimum is > 0. The
    model has exactly 3m binaries (label, lower- and upper-face ones).
    """
    return build_samplewise_node(SamplewiseBlock(Qtrain, y, C, epsilon), Qcross_t,
                                 sign_phat, node)


def build_collective(Qtrain, Qcross, y, C, epsilon, phat,
                     test_ids=None) -> MilpModel:
    """Collective MILP: max sum_t c_t with indicator rows tying c_t to a
    sign change of p_t. Zero-margin test nodes must be removed (and
    counted as misclassified) before building. Binaries: 3m + |T|.
    """
    y = np.asarray(y, dtype=np.float64)
    Qtrain = np.asarray(Qtrain, dtype=np.float64)
    Qcross = np.atleast_2d(np.asarray(Qcross, dtype=np.float64))
    phat = np.asarray(phat, dtype=np.float64).reshape(-1)
    if Qcross.shape[0] == 0:
        raise ValueError("collective model needs a non-empty test set")
    if Qcross.shape[0] != phat.size:
        raise ValueError("one clean margin per test row required")
    if np.any(phat == 0.0):
        raise ValueError(
            "zero-margin test nodes must be pre-counted as misclassified "
            "and removed before building the collective model"
        )
    if test_ids is None:
        test_ids = list(range(Qcross.shape[0]))
    test_ids = [int(t) for t in test_ids]
    m = y.size
    r = Budget(epsilon, m).r
    mb = margin_bounds(Qcross, C)
    b = _Builder()
    _samplewise_block(b, Qtrain, y, C, r)
    for row, t in enumerate(test_ids):
        b.var(f"p_{t}", lower=float(mb.l[row]), upper=float(mb.h[row]))
    for t in test_ids:
        b.var(f"c_{t}", kind="binary")
    for row, t in enumerate(test_ids):
        terms = [(1.0, f"p_{t}")]
        terms += [(-float(Qcross[row, i]), f"z_{i}") for i in range(m)]
        b.con(f"pdef_{t}", terms, "=", 0.0)
        h, l = float(mb.h[row]), float(mb.l[row])
        if phat[row] > 0:
            b.con(f"ind1_{t}", [(1.0, f"p_{t}"), (h, f"c_{t}")], "<=", h)
            b.con(f"ind2_{t}", [(1.0, f"p_{t}"), (-l, f"c_{t}")], ">=", 0.0)
        else:
            b.con(f"ind1_{t}", [(1.0, f"p_{t}"), (l, f"c_{t}")], ">=", l)
            b.con(f"ind2_{t}", [(1.0, f"p_{t}"), (-h, f"c_{t}")], "<=", 0.0)
    objective = Objective("max", [(1.0, f"c_{t}") for t in test_ids])
    meta = {"kind": "collective", "test_ids": test_ids, "epsilon": float(epsilon),
            "C": float(C), "m": m, "budget": r, "budget_zero": r == 0}
    return MilpModel(b.variables, b.constraints, objective, meta)


def build_multiclass(Qtrain, Qcross_t, labels, num_classes, C, epsilon, c_hat,
                     node: int | None = None) -> MilpModel:
    """Exact one-vs-all multi-class MILP: min p_chat - pstar with pstar the
    largest competing score. Binaries: 3Km + K - 1."""
    labels = np.asarray(labels, dtype=np.int64)
    Qtrain = np.asarray(Qtrain, dtype=np.float64)
    qrow = np.asarray(Qcross_t, dtype=np.float64).reshape(-1)
    if num_classes < 2:
        raise ValueError("multi-class model needs K >= 2")
    if not 1 <= c_hat <= num_classes:
        raise ValueError("c_hat must be a class in [1, K]")
    m = labels.size
    r = Budget(epsilon, m).r
    pu = float(C * np.abs(qrow).sum())
    pl = -pu
    b = _Builder()
    for c in range(1, num_classes + 1):
        yc = one_vs_all_split(labels, c)
        _samplewise_block(b, Qtrain, yc, C, r, prefix=f"_{c}")
    for c in range(1, num_classes + 1):
        b.var(f"p_{c}", lower=pl, upper=pu)
    b.var("pstar", lower=pl, upper=pu)
    for c in range(1, num_classes + 1):
        if c != c_hat:
            b.var(f"b_{c}", kind="binary")

    for i in range(m):
        b.con(f"onehot_{i}", [(1.0, f"ytp_{c}_{i}") for c in range(1, num_classes + 1)],
              "=", 1.0)
    # sum_i (1 - sum_c y'_ic ytp_cic) <= r, with y' the one-hot clean labels
    adv_terms = [(1.0, f"ytp_{labels[i]}_{i}") for i in range(m)]
    b.con("adv", adv_terms, ">=", m - r)
    for c in range(1, num_classes + 1):
        terms = [(1.0, f"p_{c}")]
        terms += [(-float(qrow[i]), f"z_{c}_{i}") for i in range(m)]
        b.con(f"pdef_{c}", terms, "=", 0.0)
    b.con("maxsel", [(1.0, f"b_{c}") for c in range(1, num_classes + 1) if c != c_hat],
          "=", 1.0)
    for c in range(1, num_classes + 1):
        if c == c_hat:
            continue
        b.con(f"pge_{c}", [(1.0, "pstar"), (-1.0, f"p_{c}")], ">=", 0.0)
        b.con(f"ple_{c}", [(1.0, "pstar"), (-1.0, f"p_{c}"), (pu - pl, f"b_{c}")],
              "<=", pu - pl)
    objective = Objective("min", [(1.0, f"p_{c_hat}"), (-1.0, "pstar")])
    meta = {"kind": "multiclass", "node": node, "epsilon": float(epsilon),
            "C": float(C), "m": m, "budget": r, "budget_zero": r == 0,
            "num_classes": num_classes, "c_hat": int(c_hat)}
    return MilpModel(b.variables, b.constraints, objective, meta)


def build_multiclass_inexact(Qtrain, Qcross_t, labels, num_classes, C, epsilon,
                             c_hat, node: int | None = None) -> list[MilpModel]:
    """Relaxed multi-class certificate as K decoupled binary models.

    The class-c_hat model minimizes its margin, every other model
    maximizes its own; each carries an independent flip budget on its
    one-vs-all labels. Robust iff the first optimum exceeds all others.
    """
    labels = np.asarray(labels, dtype=np.int64)
    qrow = np.asarray(Qcross_t, dtype=np.float64).reshape(-1)
    models = []
    for c in range(1, num_classes + 1):
        yc = one_vs_all_split(labels, c)
        model = build_samplewise(Qtrain, qrow, yc, C, epsilon, 1, node=node)
        sense = "min" if c == c_hat else "max"
        objective = Objective(sense, model.objective.terms)
        meta = dict(model.metadata)
        meta.update({"kind": "multiclass-inexact", "class": c,
                     "c_hat": int(c_hat), "direction": sense})
        models.append(MilpModel(model.variables, model.constraints, objective, meta,
                                model.body))
    return models


# ---------------------------------------------------------------------------
# Witness embedding and model evaluation
# ---------------------------------------------------------------------------

def evaluate_model(model: MilpModel, point: dict) -> tuple[float, float]:
    """(max constraint/bound/integrality violation, objective value) at a point."""
    viol = 0.0
    for v in model.variables:
        x = point[v.name]
        viol = max(viol, v.lower - x, x - v.upper)
        if v.kind == "binary":
            viol = max(viol, abs(x - round(x)))
    for con in model.constraints:
        lhs = sum(c * point[v] for c, v in con.terms)
        if con.sense == "<=":
            viol = max(viol, lhs - con.rhs)
        elif con.sense == ">=":
            viol = max(viol, con.rhs - lhs)
        else:
            viol = max(viol, abs(lhs - con.rhs))
    objective = sum(c * point[v] for c, v in model.objective.terms)
    return float(viol), float(objective)


def _block_point(Q, ytil, C, alpha, prefix="", boundary_tol=1e-7):
    """Variable assignment for one sample-wise block at an optimal dual."""
    m = ytil.size
    cert = kkt_check(SvmProblem(Q, ytil, C), alpha, tol=boundary_tol)
    z = alpha * ytil
    values = (alpha, ytil, (ytil + 1.0) / 2.0, z, cert.u, cert.v,
              alpha <= boundary_tol, alpha >= C - boundary_tol)
    point = {f"{name}{prefix}_{i}": float(value[i])
             for (name, *_), value in zip(_families(C, prefix), values) for i in range(m)}
    point.update({f"R{prefix}_{i}_{j}": float(ytil[i] * z[j])
                  for i in range(m) for j in range(m)})
    return point


def _flip(y, flips):
    ytil = np.asarray(y, dtype=np.float64).copy()
    if len(flips):
        ytil[list(flips)] *= -1.0
    return ytil


def samplewise_witness_point(Qtrain, y, C, flips, alpha) -> dict:
    """Extend an enumeration witness to a full feasible MILP assignment."""
    return _block_point(np.asarray(Qtrain, dtype=np.float64), _flip(y, flips),
                        C, np.asarray(alpha, dtype=np.float64))


def collective_witness_point(Qtrain, Qcross, y, C, flips, alpha, phat,
                             test_ids=None) -> dict:
    Qcross = np.atleast_2d(np.asarray(Qcross, dtype=np.float64))
    phat = np.asarray(phat, dtype=np.float64).reshape(-1)
    if test_ids is None:
        test_ids = list(range(Qcross.shape[0]))
    ytil = _flip(y, flips)
    alpha = np.asarray(alpha, dtype=np.float64)
    point = _block_point(np.asarray(Qtrain, dtype=np.float64), ytil, C, alpha)
    p = margins(alpha, ytil, Qcross)
    for row, t in enumerate(test_ids):
        point[f"p_{t}"] = float(p[row])
        point[f"c_{t}"] = 1.0 if np.sign(phat[row]) * p[row] <= 0.0 else 0.0
    return point


def multiclass_witness_point(Qtrain, Qcross_t, labels, num_classes, C, c_hat,
                             witness, tol=DEFAULT_TOL,
                             max_sweeps=DEFAULT_MAX_SWEEPS) -> dict:
    """Feasible assignment of the multi-class MILP at a relabeling witness.

    Per-class duals are re-solved here; margins are unique across optimal
    duals, so the embedded objective matches the certifier's optimum.
    """
    labels = np.asarray(labels, dtype=np.int64).copy()
    qrow = np.asarray(Qcross_t, dtype=np.float64).reshape(1, -1)
    for i, c in witness:
        labels[i] = c
    point = {}
    p = np.empty(num_classes)
    for c in range(1, num_classes + 1):
        yc = one_vs_all_split(labels, c)
        sol = solve_dual(SvmProblem(Qtrain, yc, C), tol, max_sweeps)
        point.update(_block_point(np.asarray(Qtrain, dtype=np.float64), yc, C,
                                  sol.alpha, prefix=f"_{c}"))
        p[c - 1] = margins(sol.alpha, yc, qrow)[0]
        point[f"p_{c}"] = float(p[c - 1])
    others = [c for c in range(1, num_classes + 1) if c != c_hat]
    best = max(others, key=lambda c: (p[c - 1], -c))
    point["pstar"] = float(p[best - 1])
    for c in others:
        point[f"b_{c}"] = 1.0 if c == best else 0.0
    return point


# ---------------------------------------------------------------------------
# MPS / LP emission and LP re-parsing
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    return repr(float(x))


def _write_sidecar(model: MilpModel, path) -> None:
    with open(str(path) + ".meta.json", "w") as fh:
        json.dump(model.metadata, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_mps(model: MilpModel, path) -> None:
    """Free-format MPS; binaries are wrapped in MARKER INTORG/INTEND runs.
    Only the objective's lines are rendered here; the rest is the text of
    the model's `body`."""
    rows, columns, close, rhs, bounds = model.body.mps
    objective: dict[str, str] = {}
    for c, v in model.objective.terms:
        objective[v] = objective.get(v, "") + f"    {v}  OBJ  {_num(c)}\n"
    parts = [f"NAME {model.metadata.get('kind', 'certlab')}\n"]
    if model.objective.sense == "max":
        parts.append("OBJSENSE\n    MAX\n")
    parts += ["ROWS\n N  OBJ\n", rows, "COLUMNS\n"]
    for name, opens, entries in columns:
        entries = objective.get(name, "") + entries
        parts += [opens, entries or f"    {name}  OBJ  0.0\n"]
    parts += [close, "RHS\n", rhs, "BOUNDS\n", bounds, "ENDATA\n"]
    with open(path, "w") as fh:
        fh.write("".join(parts))
    _write_sidecar(model, path)


def _lp_terms(terms) -> str:
    parts = []
    for c, v in terms:
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign} {_num(abs(c))} {v}")
    if not parts:
        return "0"
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else out


def write_lp(model: MilpModel, path) -> None:
    """CPLEX-style LP file; every variable gets an explicit Bounds line so
    the declaration order survives a round trip."""
    lines = ["Minimize" if model.objective.sense == "min" else "Maximize"]
    lines.append(f" obj: {_lp_terms(model.objective.terms)}")
    lines.append("Subject To")
    for con in model.constraints:
        lines.append(f" {con.name}: {_lp_terms(con.terms)} {con.sense} {_num(con.rhs)}")
    lines.append("Bounds")
    for v in model.variables:
        if v.upper == INF:
            lines.append(f" {v.name} >= {_num(v.lower)}")
        else:
            lines.append(f" {_num(v.lower)} <= {v.name} <= {_num(v.upper)}")
    binaries = [v.name for v in model.variables if v.kind == "binary"]
    if binaries:
        lines.append("Binaries")
        for name in binaries:
            lines.append(f" {name}")
    lines.append("End")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_sidecar(model, path)


_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_TERM_RE = re.compile(rf"([+-])\s*({_NUM})\s+([A-Za-z_]\w*)")
_ROW_RE = rf"Bounds|(\w+):(.*?)(<=|>=|=)\s*({_NUM})"
_BOUND_RE = rf"Binaries|End|({_NUM})\s*<=\s*(\w+)\s*<=\s*({_NUM})|(\w+)\s*>=\s*({_NUM})"


def _parse_terms(text: str):
    text = text.strip()
    if text == "0":
        return ()
    if not text.startswith(("+", "-")):
        text = "+ " + text
    if _TERM_RE.sub("", text).strip():
        raise ValueError(f"malformed linear expression {text!r}")
    return tuple((float(f"{s}{c}"), v) for s, c, v in _TERM_RE.findall(text))


def read_lp(path, metadata: dict | None = None) -> MilpModel:
    """Re-parse the LP subset emitted by :func:`write_lp`; any other input
    raises ValueError naming the file and the line."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh]
    n = 0

    def take(pattern, what):
        nonlocal n
        n += 1
        text = lines[n - 1] if n <= len(lines) else "the end of the file"
        found = re.fullmatch(pattern, text)
        if found is None:
            raise ValueError(f"expected {what}, got {text!r}")
        return found

    try:
        sense = take(r"Minimize|Maximize", "Minimize or Maximize")[0]
        objective = Objective("min" if sense == "Minimize" else "max",
                              _parse_terms(take(r"obj:(.*)", "the objective")[1]))
        take(r"Subject To", "Subject To")
        constraints = []
        while (row := take(_ROW_RE, "a constraint or Bounds"))[0] != "Bounds":
            constraints.append(Constraint(row[1], _parse_terms(row[2]), row[3],
                                          float(row[4])))
        bounds = []
        while (bound := take(_BOUND_RE, "a bound, Binaries or End"))[0] not in (
                "Binaries", "End"):
            lo, name, up = bound.group(1, 2, 3) if bound[2] else (bound[5], bound[4], "inf")
            bounds.append((name, float(lo), float(up)))
        binaries = set()
        while bound[0] == "Binaries" and (name := take(r"\w+", "a binary or End")[0]) != "End":
            binaries.add(name)
    except ValueError as exc:
        raise ValueError(f"{path}:{n}: {exc}") from None
    variables = [
        Variable(name, "binary" if name in binaries else "continuous", lo, up)
        for name, lo, up in bounds
    ]
    return MilpModel(variables, constraints, objective,
                     metadata if metadata is not None else {})
