"""Exact certification: closed forms when saturated, otherwise structured
enumeration with a QP leaf oracle.

Every certificate minimizes (or maximizes) over admissible relabelings.
The `reduce_*` generators answer every test row and an ascending list of
budgets in one pass: they yield the clean margins, then one snapshot per
budget. The `certify_*` functions are single-budget calls into them.
Prediction values are unique across optimal duals, so each optimum equals
the corresponding MILP optimum, and each witness is the first minimizer in
size-ascending lexicographic order.

In the saturated regime, C * max_i sum_j |Q_ij| < 1 (`svm.saturates`,
which holds in the paper's small-C setting), every leaf's dual is C * 1
whatever the labels, so a margin is linear in the labels and each node's
relabeling moves it by a fixed amount. A closed form then answers every
budget with no walk and no capacity limit: one stable sort and cumulative
sum per row (`_top_gains`) picks the at most r largest gains.

`_extremes` streams, per budget, each row's least p and least -p of one
binary problem, in closed form or from one walk. `reduce_samples` reads
one stream through the clean sign, `reduce_multiclass_inexact` the K
one-vs-all streams (the K problems of `milp.build_multiclass_inexact`).
`reduce_multiclass_exact` has its own closed form and walks the K scans
itself: a relabeling's class-c margins are a leaf of the class-c scan.
`reduce_collective` always walks.

The walk, `_scan_flips`, yields the margins of every test row for each
binary flip set in size-ascending lexicographic order, each leaf
warm-started from its parent. No leaf depends on the test node or the
budget, and a smaller budget's leaves are a prefix of the walk, so a walk
yields each budget's snapshot within the capacity limit as soon as it
completes it, then raises the CapacityError of the first budget past it.

Each reducer validates its `SvmProblem` up front. A saturated collective
walk solves no leaf QP: each leaf costs one `margins` product. Otherwise
each leaf's dual is one `_solve_leaf`: an active-set guess from its
parent's dual that passes coordinate descent's own stopping test, or else
coordinate descent. A `ScanStats` passed to a reducer counts the leaves,
the verified ones, the fallbacks and the certificates answered in closed
form.

`brute_force_oracle` is an intentionally naive re-implementation (fresh
projected-gradient solve per leaf, no shared machinery) kept as the
reference the fast paths are tested against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError
from .svm import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    SvmProblem,
    margins,
    one_vs_all_split,
    saturates,
    solve_active_set,
    solve_dual,
    solve_dual_pg,
)

DEFAULT_CAPACITY = 1_000_000


@dataclass(frozen=True)
class Budget:
    """Adversary strength: up to r = floor(epsilon * m) label changes."""

    epsilon: float
    m: int
    r: int = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.m < 1:
            raise ValueError("need at least one labeled node")
        # guard against 0.3 * 10 = 2.999... style float artifacts
        object.__setattr__(self, "r", int(math.floor(self.epsilon * self.m + 1e-9)))


@dataclass(frozen=True)
class SampleCertificate:
    node: int
    robust: bool
    worst_objective: float
    witness: tuple

    def __post_init__(self):
        if self.robust != (self.worst_objective > 0.0):
            raise ValueError("robust flag must equal worst_objective > 0")


@dataclass(frozen=True)
class CollectiveCertificate:
    max_misclassified: int
    witness: tuple
    misclassified: np.ndarray  # bool per test node under the witness

    def __post_init__(self):
        object.__setattr__(self, "misclassified",
                           np.asarray(self.misclassified, dtype=bool))


@dataclass(frozen=True)
class MetricsRow:
    epsilon: float
    certified_ratio: float
    certified_accuracy: float
    clean_accuracy: float

    def __post_init__(self):
        if self.certified_accuracy > min(self.certified_ratio, self.clean_accuracy) + 1e-12:
            raise ValueError("certified accuracy cannot exceed ratio or clean accuracy")


@dataclass
class ScanStats:
    """Deterministic counters of the certificates a unit answered.

    Only unsaturated child leaves are verified or fall back; a clean leaf
    and a saturated leaf count in `leaves` alone. A saturated sample-wise or
    multi-class certificate walks no leaf: it counts once per test row and
    budget in `closed_form_rows`.
    """

    leaves: int = 0
    verified_leaves: int = 0   # child duals accepted from solve_active_set
    cd_fallbacks: int = 0      # child duals solved by coordinate descent instead
    closed_form_rows: int = 0  # (test row, budget) certificates answered without a walk


def leaf_count(m: int, r: int, num_classes: int = 2) -> int:
    """Relabelings of at most r of m nodes; num_classes=2 counts binary flip sets."""
    return sum(math.comb(m, k) * (num_classes - 1) ** k for k in range(r + 1))


def _check_capacity(leaves: int, cap: int) -> None:
    if leaves > cap:
        raise CapacityError(leaves, cap)


def _budget_rs(budgets):
    rs = [b.r for b in budgets]
    if not rs or rs != sorted(rs):
        raise ValueError("budgets must be a non-empty list in ascending order")
    return rs


def _budget_ends(rs, m, num_classes, cap):
    """(leaf number -> snapshots due after it, r of the last budget within cap,
    CapacityError of the first budget past it or None, raised if none fits)."""
    counts = [leaf_count(m, r, num_classes) for r in rs]
    fit = sum(n <= cap for n in counts)  # counts ascend with r
    over = CapacityError(counts[fit], cap) if fit < len(counts) else None
    if not fit:
        raise over
    return Counter(counts[:fit]), rs[fit - 1], over


def _test_rows(Qcross, test_ids, num_classes=2):
    if num_classes < 2:
        raise ValueError("multi-class certification needs K >= 2")
    Qcross = np.atleast_2d(np.asarray(Qcross, dtype=np.float64))
    test_ids = [int(t) for t in test_ids]
    if Qcross.shape[0] != len(test_ids):
        raise ValueError("one Qcross row per test node required")
    return Qcross, test_ids


def _improve(best, value, witness, changes):
    """Row-wise running minimum; `changes` becomes the witness where value < best."""
    better = value < best
    if not better.any():
        return best
    for i in np.flatnonzero(better):
        witness[i] = changes
    return np.where(better, value, best)


def _runner_up(P, c_hat):
    """Per column of P, the largest entry outside row c_hat."""
    others = P.copy()
    others[c_hat, np.arange(P.shape[1])] = -math.inf
    return others.max(axis=0)


def _certificates(test_ids, worst, witness):
    return [SampleCertificate(t, bool(worst[i] > 0.0), float(worst[i]), witness[i])
            for i, t in enumerate(test_ids)]


def _top_gains(gains, rs):
    """Yield, per r in rs, each row's sum of its at most r largest positive
    gains and their columns as a sorted tuple.

    A stable sort ranks tied gains by column, so the tuple is the first set,
    in size-ascending lexicographic order, whose gains reach that sum.
    """
    order = np.argsort(-gains, axis=1, kind="stable")
    ranked = np.take_along_axis(gains, order, axis=1)
    positive = ranked > 0.0
    sums = np.cumsum(np.where(positive, ranked, 0.0), axis=1)
    sums = np.hstack([np.zeros((len(gains), 1)), sums])
    count, rows = positive.sum(axis=1), np.arange(len(gains))
    for r in rs:
        taken = np.minimum(r, count)
        yield (sums[rows, taken],
               [tuple(sorted(o[:k].tolist())) for o, k in zip(order, taken)])


def _solve_leaf(Qtrain, ytil, C, alpha0, tol, max_sweeps, stats):
    """The dual of one unsaturated leaf; Qtrain is already validated.

    A child leaf takes the `solve_active_set` dual guessed from its parent's
    dual alpha0 if that verifies, and otherwise a coordinate descent
    warm-started from alpha0 (counted in `stats`). The clean leaf (alpha0
    None) is a cold coordinate descent, the same floats as every other
    clean solve of the problem.
    """
    if alpha0 is not None:
        alpha = solve_active_set(Qtrain, ytil, C, alpha0, tol)
        if alpha is not None:
            stats.verified_leaves += 1
            return alpha
        stats.cd_fallbacks += 1
    return solve_dual(SvmProblem(Qtrain, ytil, C), tol, max_sweeps, alpha0=alpha0).alpha


def _scan_flips(problem, Qcross, r, tol, max_sweeps, stats=None, saturated=False):
    """Yield (flips, margins of the Qcross rows) for every flip set of size 0..r.

    `problem` is a validated SvmProblem; leaves only flip signs of its
    labels. If `saturated` (its `saturates` verdict; only the collective
    reducer walks a saturated problem), every leaf's dual is C * 1 and no QP
    is solved. Otherwise each leaf is one `_solve_leaf`, a child guessed or
    warm-started from its parent (the set minus its largest element). Every
    dual passes the same stopping test, so warm starts affect speed only.
    `stats` (a ScanStats) counts the leaves.
    """
    stats = ScanStats() if stats is None else stats
    y, C = problem.y, problem.C
    if saturated:
        pinned = np.full(problem.m, C, dtype=np.float64)
        pinned.setflags(write=False)
        solve = lambda ytil, alpha0: pinned
    else:
        solve = lambda ytil, alpha0: _solve_leaf(problem.Qtrain, ytil, C, alpha0, tol,
                                                 max_sweeps, stats)
    prev = {}  # the clean leaf (k = 0) has no parent and is solved cold
    for k in range(r + 1):
        cur = {}
        for combo in itertools.combinations(range(y.size), k):
            ytil = y.copy()
            ytil[list(combo)] *= -1.0
            alpha = solve(ytil, prev.get(combo[:-1]))
            stats.leaves += 1
            yield combo, margins(alpha, ytil, Qcross)
            cur[combo] = alpha
        prev = cur


def _extremes(problem, Qcross, rs, cap, tol, max_sweeps, stats):
    """Yield the clean margins p of the T Qcross rows and whether `problem` (a
    validated SvmProblem) saturates, then per r in rs the least of each entry
    of [p, -p] over the flip sets of size <= r and its first minimizer in
    size-ascending lexicographic order (entry t: row t's least p, T + t: its
    least -p). Saturated, flipping y_i lowers p_t by g_ti = 2C y_i Q_ti
    whatever else flips: both sides are closed forms over g and -g, and `cap`
    does not apply. Otherwise one walk keeps the running minima and raises
    the CapacityError of the first budget past `cap`."""
    if saturates(problem.Qtrain, problem.C):
        p = margins(np.full(problem.m, problem.C), problem.y, Qcross)
        yield p, True
        gains = 2.0 * problem.C * problem.y * Qcross
        for rise, witness in _top_gains(np.vstack([gains, -gains]), rs):
            yield np.concatenate([p, -p]) - rise, witness
        return
    ends, r, over = _budget_ends(rs, problem.m, 2, cap)
    least, witness = np.full(2 * len(Qcross), math.inf), [()] * (2 * len(Qcross))
    for n, (flips, p) in enumerate(_scan_flips(problem, Qcross, r, tol, max_sweeps, stats), 1):
        if n == 1:
            yield p, False
        least = _improve(least, np.concatenate([p, -p]), witness, flips)
        for _ in range(ends[n]):
            yield least, witness
    if over:
        raise over


def reduce_samples(Qtrain, Qcross, y, C, budgets, test_ids, *, cap, tol, max_sweeps,
                   stats=None):
    """Per budget, the SampleCertificate list of the Qcross rows (see
    certify_sample): the worst sign(p_hat_t) * p_t is the least p_t of
    `_extremes` for a positive clean sign and the least -p_t for a negative
    one. Every reducer counts into `stats`, if given."""
    Qcross, test_ids = _test_rows(Qcross, test_ids)
    rs, problem = _budget_rs(budgets), SvmProblem(Qtrain, y, C)
    stats = ScanStats() if stats is None else stats
    stream = _extremes(problem, Qcross, rs, cap, tol, max_sweeps, stats)
    p, saturated = next(stream)
    yield p
    sign = np.sign(p)
    side = np.arange(p.size) + p.size * (sign < 0.0)
    for least, witness in stream:
        stats.closed_form_rows += len(test_ids) if saturated else 0
        # an undefined clean sign has no worst case above 0
        yield _certificates(test_ids, np.where(sign == 0.0, 0.0, least[side]),
                            [witness[i] if s else () for i, s in zip(side, sign)])


def reduce_collective(Qtrain, Qcross, y, C, budgets, test_ids, *, cap, tol, max_sweeps,
                      stats=None):
    """Per budget, the CollectiveCertificate of the Qcross rows (see
    certify_collective). It walks the flip sets in every regime."""
    Qcross, test_ids = _test_rows(Qcross, test_ids)
    problem = SvmProblem(Qtrain, y, C)
    ends, r, over = _budget_ends(_budget_rs(budgets), problem.m, 2, cap)
    leaves = _scan_flips(problem, Qcross, r, tol, max_sweeps, stats,
                         saturated=saturates(problem.Qtrain, C))
    most = -1
    for n, (flips, p) in enumerate(leaves, 1):
        if n == 1:
            sign = np.sign(p)
            zero = sign == 0.0
            yield p
        broken = sign * p <= 0.0
        count = int(np.count_nonzero(broken & ~zero))
        if count > most:
            most, witness = count, (flips, broken | zero)
        for _ in range(ends[n]):
            # an undefined clean sign counts as misclassified outright
            yield CollectiveCertificate(most + int(np.sum(zero)), *witness)
    if over:
        raise over


def certify_sample(Qtrain, Qcross_t, y, C, budget: Budget, t: int,
                   cap: int = DEFAULT_CAPACITY, tol: float = DEFAULT_TOL,
                   max_sweeps: int = DEFAULT_MAX_SWEEPS) -> SampleCertificate:
    """Worst case of sign(p_hat_t) * p_t over all admissible relabelings."""
    certs = certify_samples(Qtrain, np.atleast_2d(Qcross_t), y, C, budget, [t],
                            cap=cap, tol=tol, max_sweeps=max_sweeps)
    return certs[0]


def certify_samples(Qtrain, Qcross, y, C, budget: Budget, test_ids,
                    cap: int = DEFAULT_CAPACITY, tol: float = DEFAULT_TOL,
                    max_sweeps: int = DEFAULT_MAX_SWEEPS) -> list[SampleCertificate]:
    """Sample-wise certificates for all rows of Qcross in one pass."""
    _, certs = reduce_samples(Qtrain, Qcross, y, C, [budget], test_ids,
                              cap=cap, tol=tol, max_sweeps=max_sweeps)
    return certs


def certify_collective(Qtrain, Qcross, y, C, budget: Budget, test_ids,
                       cap: int = DEFAULT_CAPACITY, tol: float = DEFAULT_TOL,
                       max_sweeps: int = DEFAULT_MAX_SWEEPS) -> CollectiveCertificate:
    """Maximum number of test predictions a single relabeling can break."""
    test_ids = [int(t) for t in test_ids]
    if not test_ids:
        raise ValueError("collective certification needs a non-empty test set")
    _, cert = reduce_collective(Qtrain, Qcross, y, C, [budget], test_ids,
                                cap=cap, tol=tol, max_sweeps=max_sweeps)
    return cert


# ---------------------------------------------------------------------------
# Multi-class certificates (one-vs-all ensembles sharing one kernel)
# ---------------------------------------------------------------------------

def _class_problems(Qtrain, labels, num_classes, C):
    """The K validated one-vs-all problems, class c at index c - 1."""
    return [SvmProblem(Qtrain, one_vs_all_split(labels, c), C)
            for c in range(1, num_classes + 1)]


def _relabeling_margins(labels, scans, r):
    """Yield (changes, P) per relabeling with at most r changed nodes, by
    size, combination, assignment: changes holds (node, new_class) pairs and
    P[c - 1] the class-c margins, those of the leaf of scans[c - 1] flipping
    the changed nodes moved into or out of c. Each class reads its size-k
    leaves into its table (flip set -> margins) before the size-k relabelings."""
    m, classes = len(labels), range(1, len(scans) + 1)
    tables = [{} for _ in scans]
    for k in range(r + 1):
        for table, scan in zip(tables, scans):
            table.update(itertools.islice(scan, math.comb(m, k)))
        for combo in itertools.combinations(range(m), k):
            spaces = [[c for c in classes if c != labels[i]] for i in combo]
            for assignment in itertools.product(*spaces):
                changes = tuple(zip(combo, assignment))
                yield changes, np.array([
                    table[tuple(i for i, new in changes if c in (labels[i], new))]
                    for c, table in zip(classes, tables)])


def _closed_exact(P, labels, C, Qcross, rs):
    """Yield, per r in rs, the saturated exact worst gap and witness of each row.

    Moving node i from class l to n shifts every p_x by a (1[x = n] - 1[x = l]),
    a = 2C Q_ti, whatever else moves. Against one competitor c, the best
    move of node i lowers the gap p_chat - p_c by 2a if l = chat (moving to
    c), by -2a if l = c (moving to chat) and by |a| otherwise (moving to c
    if a > 0, to chat if a < 0); a fall that is not positive is never taken.
    The worst gap against c takes the at most r largest falls, and the
    worst case is the smallest gap over c != chat. The witness is the first,
    in enumeration order, of the competitors' minimizers reaching it.
    """
    K, T = P.shape
    rows = np.arange(T)
    c_hat = np.argmax(P, axis=0)
    a = 2.0 * C * Qcross
    own = labels - 1
    falls = np.where((own == c_hat[:, None])[:, None], 2.0 * a[:, None],
                     np.where(own == np.arange(K)[:, None], -2.0 * a[:, None],
                              np.abs(a)[:, None]))
    gap = (P[c_hat, rows] - P).T
    for total, moved in _top_gains(falls.reshape(T * K, -1), rs):
        value = gap - total.reshape(T, K)
        value[rows, c_hat] = math.inf
        worst = value.min(axis=1)
        witness = []
        for t in rows:
            keys = []
            for c in np.flatnonzero(value[t] == worst[t]):
                nodes = moved[t * K + c]
                to = tuple(int(c if a[t, i] > 0.0 else c_hat[t]) + 1 for i in nodes)
                keys.append((len(nodes), nodes, to))
            _, nodes, to = min(keys)
            witness.append(tuple(zip(nodes, to)))
        yield worst, witness


def reduce_multiclass_exact(Qtrain, Qcross, labels, num_classes, C, budgets, test_ids,
                            *, cap, tol, max_sweeps, stats=None):
    """Exact multi-class certificates of every Qcross row (see
    certify_multiclass_exact). Saturated, every budget is answered in closed
    form (`_closed_exact`) and `cap` does not apply. Otherwise the walk keeps
    the margins of every leaf of the K scans: K * leaf_count(m, r) * |T| floats."""
    Qcross, test_ids = _test_rows(Qcross, test_ids, num_classes)
    labels = np.asarray(labels, dtype=np.int64)
    rs, problems = _budget_rs(budgets), _class_problems(Qtrain, labels, num_classes, C)
    stats = ScanStats() if stats is None else stats
    if saturates(problems[0].Qtrain, C):
        P = np.array([margins(np.full(p.m, p.C), p.y, Qcross) for p in problems])
        yield P
        for worst, witness in _closed_exact(P, labels, C, Qcross, rs):
            stats.closed_form_rows += len(test_ids)
            yield _certificates(test_ids, worst, witness)
        return
    ends, r, over = _budget_ends(rs, labels.size, num_classes, cap)
    scans = [_scan_flips(p, Qcross, r, tol, max_sweeps, stats) for p in problems]
    rows = np.arange(len(test_ids))
    best, witness = np.full(rows.size, math.inf), [()] * rows.size
    for n, (changes, P) in enumerate(_relabeling_margins(labels.tolist(), scans, r), 1):
        if n == 1:
            c_hat = np.argmax(P, axis=0)
            yield P
        best = _improve(best, P[c_hat, rows] - _runner_up(P, c_hat), witness, changes)
        for _ in range(ends[n]):
            yield _certificates(test_ids, best, witness)
    if over:
        raise over


def reduce_multiclass_inexact(Qtrain, Qcross, labels, num_classes, C, budgets, test_ids,
                              *, cap, tol, max_sweeps, stats=None):
    """Relaxed multi-class certificates of every Qcross row (see
    certify_multiclass_inexact): per budget, the least p_chat of the chat
    problem's `_extremes` minus the largest other p_c, the negated least -p_c
    of its own problem; saturated, `cap` does not apply."""
    Qcross, test_ids = _test_rows(Qcross, test_ids, num_classes)
    labels = np.asarray(labels, dtype=np.int64)
    rs, problems = _budget_rs(budgets), _class_problems(Qtrain, labels, num_classes, C)
    stats = ScanStats() if stats is None else stats
    streams = [_extremes(p, Qcross, rs, cap, tol, max_sweeps, stats) for p in problems]
    clean = [next(stream) for stream in streams]
    P, saturated = np.array([p for p, _ in clean]), clean[0][1]
    yield P
    T, c_hat = len(test_ids), np.argmax(P, axis=0)
    for extremes in zip(*streams):
        stats.closed_form_rows += T if saturated else 0
        least = np.array([e for e, _ in extremes])
        worst = least[c_hat, np.arange(T)] - _runner_up(-least[:, T:], c_hat)
        yield _certificates(test_ids, worst, [extremes[c][1][t] for t, c in enumerate(c_hat)])


def certify_multiclass_exact(Qtrain, Qcross_t, labels, num_classes, C,
                             budget: Budget, t: int, cap: int = DEFAULT_CAPACITY,
                             tol: float = DEFAULT_TOL,
                             max_sweeps: int = DEFAULT_MAX_SWEEPS) -> SampleCertificate:
    """Minimum of p_chat - max_{c != chat} p_c over admissible relabelings.

    The witness is a tuple of (node, new_class) pairs.
    """
    _, (cert,) = reduce_multiclass_exact(
        Qtrain, np.reshape(Qcross_t, (1, -1)), labels, num_classes, C, [budget], [t],
        cap=cap, tol=tol, max_sweeps=max_sweeps)
    return cert


def certify_multiclass_inexact(Qtrain, Qcross_t, labels, num_classes, C,
                               budget: Budget, t: int, cap: int = DEFAULT_CAPACITY,
                               tol: float = DEFAULT_TOL,
                               max_sweeps: int = DEFAULT_MAX_SWEEPS) -> SampleCertificate:
    """Relaxed multi-class verdict from K decoupled binary problems.

    p_chat is minimized and every other p_c maximized independently, each
    over its own flip budget; the resulting bound never exceeds the exact
    objective, so this certificate never accepts a node the exact one
    rejects. The witness is the flip set minimizing the chat problem.
    """
    _, (cert,) = reduce_multiclass_inexact(
        Qtrain, np.reshape(Qcross_t, (1, -1)), labels, num_classes, C, [budget], [t],
        cap=cap, tol=tol, max_sweeps=max_sweeps)
    return cert


# ---------------------------------------------------------------------------
# Brute-force reference oracle
# ---------------------------------------------------------------------------

def brute_force_oracle(Qtrain, Qcross, y_or_labels, C, budget: Budget, mode: str,
                       num_classes: int = 2, cap: int = DEFAULT_CAPACITY,
                       tol: float = DEFAULT_TOL):
    """Exhaustive reference certifier; simple on purpose.

    Retrains from scratch with the projected-gradient solver at every leaf.
    mode="sample" or "multiclass" returns (robust_flags, worst_objectives)
    per Qcross row; mode="collective" returns a CollectiveCertificate.
    """
    Qcross = np.atleast_2d(np.asarray(Qcross, dtype=np.float64))
    m = np.asarray(y_or_labels).size

    if mode in ("sample", "collective"):
        y = np.asarray(y_or_labels, dtype=np.float64)
        _check_capacity(leaf_count(m, budget.r), cap)
        sol = solve_dual_pg(SvmProblem(Qtrain, y, C), tol)
        sign = np.sign(margins(sol.alpha, y, Qcross))
        leaves = []
        for k in range(budget.r + 1):
            for combo in itertools.combinations(range(m), k):
                ytil = y.copy()
                ytil[list(combo)] *= -1.0
                sol = solve_dual_pg(SvmProblem(Qtrain, ytil, C), tol)
                leaves.append((combo, margins(sol.alpha, ytil, Qcross)))
        if mode == "sample":
            worst = np.min([sign * p for _, p in leaves], axis=0)
            worst = np.where(sign == 0.0, 0.0, worst)
            return worst > 0.0, worst
        zero = sign == 0.0
        best, best_combo, best_flags = -1, (), None
        for combo, p in leaves:
            flags = (sign * p <= 0.0) & ~zero
            if int(flags.sum()) > best:
                best, best_combo, best_flags = int(flags.sum()), combo, flags | zero
        return CollectiveCertificate(best + int(zero.sum()), tuple(best_combo), best_flags)

    if mode != "multiclass":
        raise ValueError(f"unknown oracle mode {mode!r}")
    labels = np.asarray(y_or_labels, dtype=np.int64)
    _check_capacity(leaf_count(m, budget.r, num_classes), cap)

    def ensemble(relabeled):
        p = np.empty((num_classes, Qcross.shape[0]))
        for c in range(1, num_classes + 1):
            yc = one_vs_all_split(relabeled, c)
            sol = solve_dual_pg(SvmProblem(Qtrain, yc, C), tol)
            p[c - 1] = margins(sol.alpha, yc, Qcross)
        return p

    p_clean = ensemble(labels)
    c_hat = np.argmax(p_clean, axis=0)
    worst = np.full(Qcross.shape[0], math.inf)
    for k in range(budget.r + 1):
        for combo in itertools.combinations(range(m), k):
            spaces = [[c for c in range(1, num_classes + 1) if c != labels[i]]
                      for i in combo]
            for assignment in itertools.product(*spaces):
                relabeled = labels.copy()
                relabeled[list(combo)] = assignment
                p = ensemble(relabeled)
                for row in range(Qcross.shape[0]):
                    others = np.delete(p[:, row], c_hat[row])
                    worst[row] = min(worst[row], p[c_hat[row], row] - others.max())
    return worst > 0.0, worst


def metrics(certificates, predicted, truth, epsilon: float) -> MetricsRow:
    """Aggregate certified ratio / certified accuracy / clean accuracy.

    `predicted` and `truth` are aligned with the certificates; a prediction
    of 0 (undefined sign) never counts as correct.
    """
    if len(certificates) == 0:
        raise ValueError("metrics need a non-empty test set")
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.size != len(certificates) or truth.size != len(certificates):
        raise ValueError("metrics inputs are misaligned")
    robust = np.array([c.robust for c in certificates])
    correct = (predicted == truth) & (predicted != 0)
    return MetricsRow(
        epsilon=epsilon,
        certified_ratio=float(robust.mean()),
        certified_accuracy=float((robust & correct).mean()),
        clean_accuracy=float(correct.mean()),
    )
