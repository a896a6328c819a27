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

The walk, `_scan_flips`, goes one level (flip-set size k) at a time and
yields blocks: a chunk of the level's flip sets, in lexicographic order,
as an index array, and the margins of every test row under them as one
block, one row per leaf. Each leaf is warm-started from its parent, the
set minus its largest element, in the level before. No leaf depends on
the test node or the budget, and a smaller budget's leaves are a prefix
of the walk. So one `_walk` serves every budget: it ends each budget's
snapshot with the block that closes its last level, then raises the
CapacityError of the first budget past the capacity limit. `_fold_least`
takes the first minimizer of each block and replaces a witness only on a
strict gain across blocks, so every witness stays the first extremizer
in size-ascending lexicographic order.

Each reducer validates its `SvmProblem` up front. A saturated collective
walk solves no leaf QP: each chunk costs one `margins` product. Otherwise
a chunk's duals are one `_solve_chunk`: `solve_active_sets` guesses every
leaf of the chunk from its parent's dual, one stacked linear solve per
round, and a leaf whose guess does not pass coordinate descent's own
stopping test falls back to coordinate descent. `CHUNK_FLOATS` bounds a
chunk's stacked systems and margin block. A `ScanStats` passed to a
reducer counts the leaves, the verified ones, the fallbacks and the
certificates answered in closed form.

`brute_force_oracle` is an intentionally naive re-implementation (fresh
projected-gradient solve per leaf, no shared machinery) kept as the
reference the fast paths are tested against.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DEFAULT_CAPACITY, CapacityError
from .svm import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    SvmProblem,
    margins,
    one_vs_all_split,
    saturates,
    solve_active_sets,
    solve_dual,
    solve_dual_pg,
)

# floats in one chunk's stacked m x m systems, or in its margin block
CHUNK_FLOATS = 1 << 20


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


def _walk(blocks, rs, m, num_classes, cap):
    """Yield (keys, P, due) for each block of `blocks(r)`, r the largest
    budget in rs within `cap` leaves: due is the number of budgets whose
    last leaf closes the block. Then raise the CapacityError of the first
    budget past `cap`, before the first block if none fits."""
    counts = [leaf_count(m, r, num_classes) for r in rs]
    fit = sum(n <= cap for n in counts)  # counts ascend with r
    if fit:
        n = 0
        for keys, P in blocks(rs[fit - 1]):
            n += len(P)
            yield keys, P, counts.count(n)  # the walk never reaches a count past cap
    if fit < len(counts):
        raise CapacityError(counts[fit], cap)


def _test_rows(Qcross, test_ids, num_classes=2):
    if num_classes < 2:
        raise ValueError("multi-class certification needs K >= 2")
    Qcross = np.atleast_2d(np.asarray(Qcross, dtype=np.float64))
    test_ids = [int(t) for t in test_ids]
    if Qcross.shape[0] != len(test_ids):
        raise ValueError("one Qcross row per test node required")
    return Qcross, test_ids


def _fold_least(best, values, witness, key):
    """Column-wise running minimum over a block of leaves, one per row of
    values: where a column's least value beats best strictly, witness takes
    key(row) of its first minimizer in the block."""
    first = np.argmin(values, axis=0)
    least = values[first, np.arange(values.shape[1])]
    better = least < best
    for j in np.flatnonzero(better):
        witness[j] = key(first[j])
    return np.where(better, least, best)


def _runner_up(P, c_hat):
    """Per column of P (K x T, or a block of them), the largest entry outside row c_hat."""
    others = P.copy()
    others[..., c_hat, np.arange(P.shape[-1])] = -math.inf
    return others.max(axis=-2)


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


def _solve_chunk(problem, Y, alpha0, tol, max_sweeps, stats):
    """The duals of a chunk of unsaturated leaves, one per row of the labels Y.

    The clean leaf (alpha0 None) is a cold coordinate descent, the same
    floats as every other clean solve of the problem. A chunk of child
    leaves takes the `solve_active_sets` duals guessed from the rows of
    alpha0, the parents' duals, where they verify; every other row falls
    back to a coordinate descent warm-started from its parent's dual
    (counted in `stats`).
    """
    if alpha0 is None:
        return solve_dual(problem, tol, max_sweeps).alpha[None]
    C = problem.C
    alpha, verified = solve_active_sets(problem.Qtrain, Y, C, alpha0, tol)
    stats.verified_leaves += int(np.count_nonzero(verified))
    for i in np.flatnonzero(~verified):
        stats.cd_fallbacks += 1
        alpha[i] = solve_dual(SvmProblem(problem.Qtrain, Y[i], C), tol, max_sweeps,
                              alpha0=alpha0[i]).alpha
    return alpha


def _levels(m, r):
    """Yield, per flip-set size k = 1..r, the C(m, k) x k flip sets in
    lexicographic order and each one's parent row in level k - 1 (the set
    minus its largest element): parent row j has m - 1 - last_j children,
    extending it by each larger element in turn."""
    flips, last = np.zeros((1, 0), dtype=np.intp), np.full(1, -1)
    for _ in range(r):
        counts = m - 1 - last
        parent = np.repeat(np.arange(last.size), counts)
        if not parent.size:
            return
        first_child = np.cumsum(counts) - counts
        last = last[parent] + 1 + np.arange(parent.size) - first_child[parent]
        flips = np.hstack([flips[parent], last[:, None]])
        yield flips, parent


def _scan_flips(problem, Qcross, r, tol, max_sweeps, stats, saturated=False):
    """Yield (flips, margins) blocks for the flip sets of size 0..r, by size
    and then in lexicographic order: flips holds a chunk's sets as rows of
    an index array, margins one row of Qcross margins per set.

    `problem` is a validated SvmProblem; leaves only flip signs of its
    labels. If `saturated` (its `saturates` verdict; only the collective
    reducer walks a saturated problem), every leaf's dual is C * 1 and no QP
    is solved. Otherwise each chunk of a level is one `_solve_chunk`, every
    child guessed or warm-started from its parent. Every dual passes the
    same stopping test, so warm starts affect speed only. A chunk holds at
    most CHUNK_FLOATS / max(m^2, T) leaves. `stats` (a ScanStats) counts the
    leaves.
    """
    y, C, m = problem.y, problem.C, problem.m
    if saturated:
        alpha = np.full((1, m), C)
    else:
        alpha = _solve_chunk(problem, y[None], None, tol, max_sweeps, stats)
    stats.leaves += 1
    yield np.zeros((1, 0), dtype=np.intp), margins(alpha[0], y, Qcross)[None]
    step = max(1, CHUNK_FLOATS // max(m * m, len(Qcross)))
    for flips, parent in _levels(m, r):
        duals = None if saturated else np.empty((len(flips), m))
        for lo in range(0, len(flips), step):
            sets = flips[lo:lo + step]
            Y = np.tile(y, (len(sets), 1))
            Y[np.arange(len(sets))[:, None], sets] *= -1.0
            if saturated:
                block = np.broadcast_to(alpha[0], Y.shape)
            else:
                block = duals[lo:lo + step] = _solve_chunk(
                    problem, Y, alpha[parent[lo:lo + step]], tol, max_sweeps, stats)
            stats.leaves += len(sets)
            yield sets, margins(block, Y, Qcross)
        if not saturated:
            alpha = duals


def _extremes(problem, Qcross, rs, cap, tol, max_sweeps, stats):
    """Yield the clean margins p of the T Qcross rows and whether `problem` (a
    validated SvmProblem) saturates, then per r in rs the least of each entry
    of [p, -p] over the flip sets of size <= r and its first minimizer in
    size-ascending lexicographic order (entry t: row t's least p, T + t: its
    least -p). Saturated, flipping y_i lowers p_t by g_ti = 2C y_i Q_ti
    whatever else flips: both sides are closed forms over g and -g, and `cap`
    does not apply. Otherwise one `_walk` keeps the running minima."""
    if saturates(problem.Qtrain, problem.C):
        p = margins(np.full(problem.m, problem.C), problem.y, Qcross)
        yield p, True
        gains = 2.0 * problem.C * problem.y * Qcross
        for rise, witness in _top_gains(np.vstack([gains, -gains]), rs):
            yield np.concatenate([p, -p]) - rise, witness
        return
    least, witness = np.full(2 * len(Qcross), math.inf), [()] * (2 * len(Qcross))
    walk = _walk(lambda r: _scan_flips(problem, Qcross, r, tol, max_sweeps, stats),
                 rs, problem.m, 2, cap)
    for i, (flips, P, due) in enumerate(walk):
        if not i:
            yield P[0], False
        least = _fold_least(least, np.hstack([P, -P]), witness,
                            lambda j: tuple(flips[j].tolist()))
        for _ in range(due):
            yield least, witness


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
    certify_collective), walking in every regime: the first maximizer of a
    count is the first minimizer of its negation."""
    Qcross, test_ids = _test_rows(Qcross, test_ids)
    problem = SvmProblem(Qtrain, y, C)
    stats = ScanStats() if stats is None else stats
    walk = _walk(lambda r: _scan_flips(problem, Qcross, r, tol, max_sweeps, stats,
                                       saturated=saturates(problem.Qtrain, C)),
                 _budget_rs(budgets), problem.m, 2, cap)
    fewest, witness = np.full(1, math.inf), [None]  # the least -count, one column
    for i, (flips, P, due) in enumerate(walk):
        if not i:
            sign = np.sign(P[0])
            zero = sign == 0.0
            yield P[0]
        broken = sign * P <= 0.0
        counts = np.count_nonzero(broken & ~zero, axis=1)
        fewest = _fold_least(fewest, -counts[:, None], witness,
                             lambda j: (tuple(flips[j].tolist()), broken[j] | zero))
        for _ in range(due):
            # an undefined clean sign counts as misclassified outright
            yield CollectiveCertificate(int(-fewest[0]) + int(np.sum(zero)), *witness[0])


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
    """Yield (changes, P) blocks of the relabelings with at most r changed
    nodes, by size, combination, assignment: changes[j] holds the (node,
    new_class) pairs of relabeling j, and P[j, c - 1] its class-c margins,
    those of the leaf of scans[c - 1] flipping the changed nodes moved into
    or out of c. Each class reads its size-k blocks into its table (flip
    set -> margins) before the size-k relabelings; a block holds at most
    CHUNK_FLOATS / (K T) relabelings."""
    m, classes = len(labels), range(1, len(scans) + 1)
    tables = [{} for _ in scans]
    for k in range(r + 1):
        for table, scan in zip(tables, scans):
            while len(table) < leaf_count(m, k):
                flips, P = next(scan)
                table.update(zip(map(tuple, flips.tolist()), P))
        step = max(1, CHUNK_FLOATS // (len(scans) * len(tables[0][()])))
        level = (tuple(zip(combo, assignment))
                 for combo in itertools.combinations(range(m), k)
                 for assignment in itertools.product(
                     *[[c for c in classes if c != labels[i]] for i in combo]))
        while changes := list(itertools.islice(level, step)):
            yield changes, np.array([
                [table[tuple(i for i, new in ch if c in (labels[i], new))]
                 for c, table in zip(classes, tables)] for ch in changes])


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

    def blocks(r):
        scans = [_scan_flips(p, Qcross, r, tol, max_sweeps, stats) for p in problems]
        return _relabeling_margins(labels.tolist(), scans, r)

    rows = np.arange(len(test_ids))
    best, witness = np.full(rows.size, math.inf), [()] * rows.size
    for i, (changes, P, due) in enumerate(_walk(blocks, rs, labels.size, num_classes, cap)):
        if not i:
            c_hat = np.argmax(P[0], axis=0)
            yield P[0]
        best = _fold_least(best, P[:, c_hat, rows] - _runner_up(P, c_hat), witness,
                           changes.__getitem__)
        for _ in range(due):
            yield _certificates(test_ids, best, witness)


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
