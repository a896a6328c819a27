import itertools
from fractions import Fraction

import numpy as np
import pytest

from certlab import (
    Budget,
    CapacityError,
    CollectiveCertificate,
    MetricsRow,
    SvmProblem,
    brute_force_oracle,
    certify_collective,
    certify_multiclass_exact,
    certify_multiclass_inexact,
    certify_sample,
    certify_samples,
    margins,
    metrics,
    one_vs_all_split,
    saturates,
    solve_dual,
    solve_dual_pg,
)
import certlab.certify
from certlab.certify import (
    DEFAULT_CAPACITY,
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    ScanStats,
    leaf_count,
    reduce_collective,
    reduce_multiclass_exact,
    reduce_multiclass_inexact,
    reduce_samples,
)
from conftest import count_solves, random_kernel, random_psd


def random_instance(seed, m=8, n_test=6, C=0.7):
    rng = np.random.Generator(np.random.Philox(seed))
    q = random_psd(rng, m)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    qcross = rng.standard_normal((n_test, m))
    return q, y, qcross, C


OPTS = dict(cap=DEFAULT_CAPACITY, tol=DEFAULT_TOL, max_sweeps=DEFAULT_MAX_SWEEPS)


def multiclass_instance(seed, m=9, K=3, rows=4):
    rng = np.random.Generator(np.random.Philox(seed))
    q = random_psd(rng, m, jitter=0.5)
    labels = np.repeat(np.arange(1, K + 1), m // K)
    return q, labels, rng.standard_normal((rows, m))


class TestBudget:
    def test_floor(self):
        assert Budget(0.05, 10).r == 0
        assert Budget(0.1, 10).r == 1
        assert Budget(1.0, 10).r == 10

    def test_float_artifact_guard(self):
        assert Budget(0.3, 10).r == 3
        assert Budget(0.15, 20).r == 3
        assert Budget(0.2, 15).r == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(0.0, 10)
        with pytest.raises(ValueError):
            Budget(1.2, 10)

    def test_leaf_counts(self):
        assert leaf_count(10, 2) == 56
        assert leaf_count(10, 0) == 1
        assert leaf_count(9, 1, 3) == 19


class TestCertifySample:
    def test_budget_zero_robust_iff_nonzero_margin(self):
        q, y, qcross, C = random_instance(1)
        clean = solve_dual(SvmProblem(q, y, C))
        phat = margins(clean.alpha, y, qcross)
        certs = certify_samples(q, qcross, y, C, Budget(0.05, y.size), range(6))
        for cert, p in zip(certs, phat):
            assert cert.robust == (p != 0)
            assert cert.worst_objective == pytest.approx(abs(p), abs=1e-12)
            assert cert.witness == ()

    def test_single_support_flip_breaks_prediction(self):
        # m=1: flipping the only label negates the margin exactly
        cert = certify_sample(np.array([[1.0]]), np.array([1.0]), np.array([1.0]),
                              C=1.0, budget=Budget(1.0, 1), t=0)
        assert not cert.robust
        assert cert.worst_objective == pytest.approx(-1.0, abs=1e-9)
        assert cert.witness == (0,)

    def test_zero_margin_node_is_non_robust(self):
        q, y, _, C = random_instance(2)
        cert = certify_sample(q, np.zeros(y.size), y, C, Budget(0.25, y.size), t=0)
        assert not cert.robust
        assert cert.worst_objective == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_brute_force(self, seed):
        q, y, qcross, C = random_instance(seed + 10)
        budget = Budget(0.25, y.size)  # r = 2
        certs = certify_samples(q, qcross, y, C, budget, range(6))
        flags, worsts = brute_force_oracle(q, qcross, y, C, budget, "sample")
        assert [c.robust for c in certs] == list(flags)
        np.testing.assert_allclose([c.worst_objective for c in certs], worsts,
                                   atol=1e-8)

    def test_witness_reproduces_worst_objective(self):
        q, y, qcross, C = random_instance(3)
        budget = Budget(0.25, y.size)
        clean = solve_dual(SvmProblem(q, y, C))
        sgn = np.sign(margins(clean.alpha, y, qcross))
        certs = certify_samples(q, qcross, y, C, budget, range(6))
        for row, cert in enumerate(certs):
            ytil = y.copy()
            ytil[list(cert.witness)] *= -1.0
            alpha = solve_dual(SvmProblem(q, ytil, C)).alpha
            p = margins(alpha, ytil, qcross[row])[0]
            assert sgn[row] * p == pytest.approx(cert.worst_objective, abs=1e-8)

    def test_monotone_in_epsilon(self):
        q, y, qcross, C = random_instance(4)
        robust_counts = []
        for eps in (0.13, 0.25, 0.38, 0.5):
            certs = certify_samples(q, qcross, y, C, Budget(eps, y.size), range(6))
            robust_counts.append(sum(c.robust for c in certs))
        assert all(b <= a for a, b in zip(robust_counts, robust_counts[1:]))

    def test_deterministic_witnesses(self):
        q, y, qcross, C = random_instance(5)
        budget = Budget(0.25, y.size)
        a = certify_samples(q, qcross, y, C, budget, range(6))
        b = certify_samples(q, qcross, y, C, budget, range(6))
        assert [c.witness for c in a] == [c.witness for c in b]

    def test_capacity_error(self):
        q, y, qcross, C = random_instance(6)
        with pytest.raises(CapacityError) as err:
            certify_samples(q, qcross, y, C, Budget(0.25, y.size), range(6), cap=10)
        assert "write_mps" in str(err.value)
        assert err.value.leaves == 37


class TestCertifyCollective:
    def test_budget_zero_counts_only_zero_margins(self):
        q, y, qcross, C = random_instance(20)
        qcross[2] = 0.0  # force one undefined-sign node
        cert = certify_collective(q, qcross, y, C, Budget(0.05, y.size), range(6))
        assert cert.max_misclassified == 1
        assert cert.misclassified[2]

    def test_full_budget_flips_everything(self):
        q, y, qcross, C = random_instance(21)
        cert = certify_collective(q, qcross, y, C, Budget(1.0, y.size), range(6))
        assert cert.max_misclassified == 6

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force(self, seed):
        q, y, qcross, C = random_instance(seed + 30)
        budget = Budget(0.13, y.size)  # r = 1
        cert = certify_collective(q, qcross, y, C, budget, range(6))
        oracle = brute_force_oracle(q, qcross, y, C, budget, "collective")
        assert cert.max_misclassified == oracle.max_misclassified
        assert cert.witness == oracle.witness

    def test_monotone_in_budget(self):
        q, y, qcross, C = random_instance(22)
        values = [
            certify_collective(q, qcross, y, C, Budget(eps, y.size),
                               range(6)).max_misclassified
            for eps in (0.05, 0.13, 0.25, 0.5, 1.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_collective_dominates_samplewise(self):
        q, y, qcross, C = random_instance(23)
        for eps in (0.13, 0.25, 0.5):
            budget = Budget(eps, y.size)
            certs = certify_samples(q, qcross, y, C, budget, range(6))
            coll = certify_collective(q, qcross, y, C, budget, range(6))
            assert 6 - coll.max_misclassified >= sum(c.robust for c in certs)

    def test_empty_test_set_rejected(self):
        q, y, _, C = random_instance(24)
        with pytest.raises(ValueError):
            certify_collective(q, np.empty((0, y.size)), y, C,
                               Budget(0.5, y.size), [])


class TestMulticlass:
    def fixture(self, seed, m=9, K=3):
        rng = np.random.Generator(np.random.Philox(seed))
        q = random_psd(rng, m, jitter=0.5)
        labels = np.repeat(np.arange(1, K + 1), m // K)
        qrow = rng.standard_normal(m)
        return q, labels, qrow

    def test_exact_matches_brute_force(self):
        q, labels, qrow = self.fixture(40)
        budget = Budget(0.12, 9)
        cert = certify_multiclass_exact(q, qrow, labels, 3, 1.0, budget, t=0)
        flags, worsts = brute_force_oracle(q, qrow.reshape(1, -1), labels, 1.0,
                                           budget, "multiclass", num_classes=3)
        assert cert.robust == bool(flags[0])
        assert cert.worst_objective == pytest.approx(float(worsts[0]), abs=1e-8)

    def test_identity_kernel_aligned_support(self):
        # Q = I decouples training; flipping the support the test row leans
        # on decides the argmax. 18-flip enumeration is definitional here.
        labels = np.repeat([1, 2, 3], 3)
        qrow = np.zeros(9)
        qrow[0] = 1.0  # aligned with a class-1 support
        budget = Budget(0.12, 9)
        cert = certify_multiclass_exact(np.eye(9), qrow, labels, 3, 1.0, budget, t=0)
        flags, worsts = brute_force_oracle(np.eye(9), qrow.reshape(1, -1), labels,
                                           1.0, budget, "multiclass", num_classes=3)
        assert cert.robust == bool(flags[0])
        assert cert.worst_objective == pytest.approx(float(worsts[0]), abs=1e-8)
        assert not cert.robust  # relabeling node 0 flips the argmax

    @pytest.mark.parametrize("seed", range(5))
    def test_inexact_contained_in_exact(self, seed):
        q, labels, qrow = self.fixture(50 + seed)
        budget = Budget(0.12, 9)
        exact = certify_multiclass_exact(q, qrow, labels, 3, 1.0, budget, t=0)
        inexact = certify_multiclass_inexact(q, qrow, labels, 3, 1.0, budget, t=0)
        assert inexact.worst_objective <= exact.worst_objective + 1e-9
        if inexact.robust:
            assert exact.robust

    def test_budget_zero_identical_verdicts(self):
        q, labels, qrow = self.fixture(60)
        budget = Budget(0.05, 9)  # r = 0
        exact = certify_multiclass_exact(q, qrow, labels, 3, 1.0, budget, t=0)
        inexact = certify_multiclass_inexact(q, qrow, labels, 3, 1.0, budget, t=0)
        assert exact.robust == inexact.robust
        assert exact.worst_objective == pytest.approx(inexact.worst_objective,
                                                      abs=1e-9)

    def test_two_class_matches_binary_pipeline(self):
        rng = np.random.Generator(np.random.Philox(61))
        m = 8
        q = random_psd(rng, m, jitter=0.5)
        labels = np.array([1, 2] * 4)
        qrow = rng.standard_normal(m)
        budget = Budget(0.25, m)
        mc = certify_multiclass_exact(q, qrow, labels, 2, 1.0, budget, t=0)
        y = np.where(labels == 2, 1.0, -1.0)
        binary = certify_sample(q, qrow, y, 1.0, budget, t=0)
        assert mc.robust == binary.robust
        # one-vs-all margins are antisymmetric for K=2: the gap is twice
        # the signed binary margin
        assert mc.worst_objective == pytest.approx(2 * binary.worst_objective,
                                                   abs=1e-8)

    def test_capacity_error(self):
        q, labels, qrow = self.fixture(62)
        with pytest.raises(CapacityError):
            certify_multiclass_exact(q, qrow, labels, 3, 1.0, Budget(0.5, 9),
                                     t=0, cap=100)


def comparable(result):
    """A sample-wise certificate list as is, a collective certificate as a tuple."""
    if isinstance(result, CollectiveCertificate):
        return result.max_misclassified, result.witness, result.misclassified.tolist()
    return result


# each binary reducer and its single-budget call
BINARY = {reduce_samples: certify_samples, reduce_collective: certify_collective}


class TestReducers:
    """One scan, many budgets and rows: each snapshot equals its own call."""

    EPSILONS = (0.05, 0.13, 0.15, 0.25, 0.38)  # m=8: r = 0, 1, 1, 2, 3

    @pytest.mark.parametrize("C", [0.01, 0.7])
    def test_binary_multi_budget_equals_single_budget_calls(self, C):
        q, y, qcross, _ = random_instance(70)
        budgets = [Budget(eps, y.size) for eps in self.EPSILONS]
        clean = margins(solve_dual(SvmProblem(q, y, C)).alpha, y, qcross)
        for reduce, certify in BINARY.items():
            stream = reduce(q, qcross, y, C, budgets, range(6), **OPTS)
            np.testing.assert_array_equal(next(stream), clean)
            for budget, result in zip(budgets, stream):
                single = certify(q, qcross, y, C, budget, range(6))
                assert comparable(result) == comparable(single)
            assert next(stream, None) is None

    def test_budgets_must_ascend(self):
        q, y, qcross, _ = random_instance(72)
        budgets = [Budget(0.25, y.size), Budget(0.13, y.size)]
        for reduce, C in itertools.product(BINARY, (0.01, 0.7)):  # closed form and walk
            with pytest.raises(ValueError, match="ascending"):
                next(reduce(q, qcross, y, C, budgets, range(6), **OPTS))

    def test_binary_walk_stops_at_capacity(self):
        q, y, qcross, C = random_instance(70)
        assert not saturates(q, C)
        budgets = [Budget(eps, y.size) for eps in (0.13, 0.25, 0.38)]  # 9, 37, 93 leaves
        for reduce, certify in BINARY.items():
            stats = ScanStats()
            stream = reduce(q, qcross, y, C, budgets, range(6), **dict(OPTS, cap=40),
                            stats=stats)
            next(stream)
            for budget in budgets[:2]:
                single = certify(q, qcross, y, C, budget, range(6))
                assert comparable(next(stream)) == comparable(single)
            with pytest.raises(CapacityError) as err:
                next(stream)
            assert (err.value.leaves, err.value.cap) == (93, 40)
            assert stats.leaves == 37  # level 3 never starts
            # no budget fits: the stream refuses before the clean leaf
            stats = ScanStats()
            with pytest.raises(CapacityError) as err:
                next(reduce(q, qcross, y, C, budgets, range(6), **dict(OPTS, cap=8),
                            stats=stats))
            assert (err.value.leaves, stats.leaves) == (9, 0)

    @pytest.mark.parametrize("reduce, certify, answered, leaves", [
        # 19 relabelings at r = 1, 163 at r = 2
        (reduce_multiclass_exact, certify_multiclass_exact, 1, 3 * 10),
        # 10 flip sets per class at r = 1, 46 at r = 2
        (reduce_multiclass_inexact, certify_multiclass_inexact, 2, 3 * 46),
    ])
    def test_multiclass_walk_stops_at_capacity(self, reduce, certify, answered, leaves):
        q, labels, qcross = multiclass_instance(75)
        budgets = [Budget(0.12, 9), Budget(0.23, 9)]  # r = 1, 2
        stats = ScanStats()
        stream = reduce(q, qcross, labels, 3, 1.0, budgets, range(4), **dict(OPTS, cap=100),
                        stats=stats)
        next(stream)
        for budget in budgets[:answered]:
            for row, cert in enumerate(next(stream)):
                single = certify(q, qcross[row], labels, 3, 1.0, budget, t=row)
                assert (cert.node, cert.robust, cert.witness) == (
                    single.node, single.robust, single.witness)
                assert cert.worst_objective == pytest.approx(single.worst_objective,
                                                              abs=1e-12)
        if answered < len(budgets):
            with pytest.raises(CapacityError) as err:
                next(stream)
            assert err.value.leaves == 163
        else:
            assert next(stream, None) is None
        assert stats.leaves == leaves

    def test_multiclass_exact_rows_match_brute_force(self):
        q, labels, qcross = multiclass_instance(73)
        # r = 0, 1, 2: class flip sets of size 2 first appear at r = 2
        budgets = [Budget(0.05, 9), Budget(0.12, 9), Budget(0.23, 9)]
        stream = reduce_multiclass_exact(q, qcross, labels, 3, 1.0, budgets, range(4),
                                         **OPTS)
        next(stream)
        for budget, certs in zip(budgets, stream):
            flags, worsts = brute_force_oracle(q, qcross, labels, 1.0, budget,
                                               "multiclass", num_classes=3)
            assert [c.robust for c in certs] == list(flags)
            np.testing.assert_allclose([c.worst_objective for c in certs], worsts,
                                       atol=1e-8)

    @pytest.mark.parametrize("reduce, certify", [
        (reduce_multiclass_exact, certify_multiclass_exact),
        (reduce_multiclass_inexact, certify_multiclass_inexact),
    ])
    def test_multiclass_rows_match_per_row_calls(self, reduce, certify):
        q, labels, qcross = multiclass_instance(74)
        budgets = [Budget(eps, 9) for eps in (0.05, 0.12, 0.13, 0.23)]  # r = 0, 1, 1, 2
        stream = reduce(q, qcross, labels, 3, 1.0, budgets, range(4), **OPTS)
        next(stream)
        for budget, certs in zip(budgets, stream):
            for row, cert in enumerate(certs):
                single = certify(q, qcross[row], labels, 3, 1.0, budget, t=row)
                assert (cert.node, cert.robust, cert.witness) == (
                    single.node, single.robust, single.witness)
                # a batched Q @ v may round differently from a one-row product
                assert cert.worst_objective == pytest.approx(single.worst_objective,
                                                              abs=1e-12)


def slack_C(q, slack):
    """The C at which C * max_i sum_j |Q_ij| equals slack."""
    return slack / np.abs(q).sum(axis=1).max()


def inexact_reference(q, qcross, labels, K, C, r):
    """Per row, min over flip sets of p_chat minus the largest max over flip
    sets of another p_c, each leaf a fresh projected-gradient solve."""
    P = []  # P[c][leaf] = margins of class c + 1 under one flip set
    for c in range(1, K + 1):
        yc = one_vs_all_split(labels, c)
        P.append([])
        for k in range(r + 1):
            for combo in itertools.combinations(range(labels.size), k):
                ytil = yc.copy()
                ytil[list(combo)] *= -1.0
                alpha = solve_dual_pg(SvmProblem(q, ytil, C)).alpha
                P[-1].append(margins(alpha, ytil, qcross))
    P = np.array(P)  # (K, leaves, rows)
    rows = np.arange(qcross.shape[0])
    c_hat = np.argmax(P[:, 0], axis=0)
    high = P.max(axis=1)
    high[c_hat, rows] = -np.inf
    return P[c_hat, :, rows].min(axis=1) - high.max(axis=0)


class TestSaturatedShortcut:
    """C * max rowsum < 1 pins every leaf's dual at C: no QP, same answers."""

    @pytest.mark.parametrize("slack", [0.5, 1.01], ids=["saturated", "just-above"])
    def test_binary_matches_brute_force(self, slack, monkeypatch):
        q, y, qcross, _ = random_instance(80)
        C = slack_C(q, slack)
        assert saturates(q, C) == (slack < 1)
        calls = count_solves(monkeypatch)
        budgets = [Budget(0.13, y.size), Budget(0.25, y.size)]  # r = 1, 2
        samples = reduce_samples(q, qcross, y, C, budgets, range(6), **OPTS)
        collective = reduce_collective(q, qcross, y, C, budgets, range(6), **OPTS)
        next(samples), next(collective)
        for budget, certs, coll in zip(budgets, samples, collective):
            flags, worsts = brute_force_oracle(q, qcross, y, C, budget, "sample")
            assert [c.robust for c in certs] == list(flags)
            np.testing.assert_allclose([c.worst_objective for c in certs], worsts,
                                       atol=1e-9)
            oracle = brute_force_oracle(q, qcross, y, C, budget, "collective")
            assert (coll.max_misclassified, coll.witness) == (oracle.max_misclassified,
                                                              oracle.witness)
        assert (len(calls) == 0) == (slack < 1)

    @pytest.mark.parametrize("slack", [0.5, 1.01], ids=["saturated", "just-above"])
    def test_multiclass_matches_brute_force(self, slack, monkeypatch):
        q, labels, qcross = multiclass_instance(81)
        C = slack_C(q, slack)
        assert saturates(q, C) == (slack < 1)
        calls = count_solves(monkeypatch)
        budgets = [Budget(0.05, 9), Budget(0.12, 9)]  # r = 0, 1
        exact = reduce_multiclass_exact(q, qcross, labels, 3, C, budgets, range(4),
                                        **OPTS)
        inexact = reduce_multiclass_inexact(q, qcross, labels, 3, C, budgets, range(4),
                                            **OPTS)
        next(exact), next(inexact)
        for budget, certs, relaxed in zip(budgets, exact, inexact):
            flags, worsts = brute_force_oracle(q, qcross, labels, C, budget,
                                               "multiclass", num_classes=3)
            assert [c.robust for c in certs] == list(flags)
            np.testing.assert_allclose([c.worst_objective for c in certs], worsts,
                                       atol=1e-9)
            bound = inexact_reference(q, qcross, labels, 3, C, budget.r)
            assert [c.robust for c in relaxed] == list(bound > 0.0)
            np.testing.assert_allclose([c.worst_objective for c in relaxed], bound,
                                       atol=1e-9)
        assert (len(calls) == 0) == (slack < 1)


def dyadic_instance(seed, m=8, rows=6):
    """A saturated instance whose margins are exact: an integer kernel and test
    rows and a power-of-two C. Test column 1 repeats column 0 under the same
    label (tied gains), column 3 is zero (zero gains), row 0 is zero and row 1
    sums to a zero clean margin."""
    rng = np.random.Generator(np.random.Philox(seed))
    b = rng.integers(-2, 3, size=(m, m)).astype(float)
    q = b @ b.T
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    y[1] = y[0]
    qcross = rng.integers(-4, 5, size=(rows, m)).astype(float)
    qcross[:, 1], qcross[:, 3], qcross[0] = qcross[:, 0], 0.0, 0.0
    qcross[1, -1] = 0.0
    qcross[1, -1] = -y[-1] * (y @ qcross[1])
    C = 2.0 ** -np.ceil(np.log2(np.abs(q).sum(axis=1).max() + 1.0))
    return q, y, qcross, C


def saturated_instance(kind, seed):
    if kind == "dyadic":
        return dyadic_instance(seed)
    q, y, qcross, _ = random_instance(seed)
    return q, y, qcross, slack_C(q, 0.5)


def first_minimizers(relabelings, objective):
    """Per row, the first relabeling in the given order that minimizes
    objective(relabeling), a list of exact values, one per row."""
    best = first = None
    for changes in relabelings:
        values = objective(changes)
        if best is None:
            best, first = values, [changes] * len(values)
        for t, value in enumerate(values):
            if value < best[t]:
                best[t], first[t] = value, changes
    return first


def exact_margin(q_row, labels, C):
    """C * sum_i labels_i * q_row_i in rational arithmetic: the margin of the
    saturated dual C * 1."""
    return Fraction(C) * sum(Fraction(v) * int(l) for v, l in zip(q_row, labels))


def flip_sets(m, r):
    return [combo for k in range(r + 1) for combo in itertools.combinations(range(m), k)]


def relabelings(labels, K, r):
    for combo in flip_sets(labels.size, r):
        spaces = [[c for c in range(1, K + 1) if c != labels[i]] for i in combo]
        for assignment in itertools.product(*spaces):
            yield tuple(zip(combo, assignment))


def flipped(y, combo):
    ytil = y.copy()
    ytil[list(combo)] *= -1.0
    return ytil


def relabeled(labels, changes):
    new = labels.copy()
    for i, c in changes:
        new[i] = c
    return new


class TestClosedForms:
    """Saturated sample-wise and multi-class certificates walk no leaf, and
    match the oracle, the enumerating walk and an exact first minimizer."""

    BUDGETS = (0.05, 0.13, 0.25, 0.38)  # m=8: r = 0, 1, 2, 3

    @pytest.mark.parametrize("kind, seed", [("dyadic", 100), ("dyadic", 101), ("random", 102)])
    def test_samples(self, kind, seed, monkeypatch):
        q, y, qcross, C = saturated_instance(kind, seed)
        rows, budgets = len(qcross), [Budget(eps, y.size) for eps in self.BUDGETS]
        assert saturates(q, C)
        stats = ScanStats()
        closed = list(reduce_samples(q, qcross, y, C, budgets, range(rows), stats=stats,
                                     **OPTS))
        assert (stats.leaves, stats.closed_form_rows) == (0, rows * len(budgets))
        monkeypatch.setattr(certlab.certify, "saturates", lambda *args: False)
        walked = list(reduce_samples(q, qcross, y, C, budgets, range(rows), **OPTS))
        np.testing.assert_array_equal(closed[0], walked[0])
        sign = [np.sign(float(exact_margin(row, y, C))) for row in qcross]

        def objectives(combo):
            return [s * exact_margin(row, flipped(y, combo), C) for s, row in zip(sign, qcross)]

        for budget, certs, walk in zip(budgets, closed[1:], walked[1:]):
            flags, worsts = brute_force_oracle(q, qcross, y, C, budget, "sample")
            assert [c.robust for c in certs] == [c.robust for c in walk] == list(flags)
            first = first_minimizers(flip_sets(y.size, budget.r), objectives)
            assert [c.witness for c in certs] == [c.witness for c in walk] == first
            for other in (worsts, [c.worst_objective for c in walk]):
                np.testing.assert_allclose([c.worst_objective for c in certs], other,
                                           rtol=0.0, atol=1e-12)
        if kind == "dyadic":
            assert closed[1][0].worst_objective == 0.0 and not closed[1][1].robust
            assert any(c.witness and c.witness[0] == 0 and 1 not in c.witness
                       for certs in closed[1:] for c in certs)  # a tie went to node 0

    @pytest.mark.parametrize("kind, seed", [("dyadic", 110), ("random", 111)])
    def test_multiclass(self, kind, seed, monkeypatch):
        if kind == "dyadic":
            q, _, qcross, C = dyadic_instance(seed, m=9, rows=4)
        else:
            q, _, qcross = multiclass_instance(seed)
            C = slack_C(q, 0.5)
        labels, rows = np.repeat([1, 2, 3], 3), len(qcross)
        budgets = [Budget(eps, 9) for eps in (0.05, 0.12, 0.23)]  # r = 0, 1, 2
        stats = ScanStats()
        exact = list(reduce_multiclass_exact(q, qcross, labels, 3, C, budgets, range(rows),
                                             stats=stats, **OPTS))
        inexact = list(reduce_multiclass_inexact(q, qcross, labels, 3, C, budgets,
                                                 range(rows), stats=stats, **OPTS))
        assert (stats.leaves, stats.closed_form_rows) == (0, 2 * rows * len(budgets))
        monkeypatch.setattr(certlab.certify, "saturates", lambda *args: False)
        walks = [list(reduce(q, qcross, labels, 3, C, budgets, range(rows), **OPTS))
                 for reduce in (reduce_multiclass_exact, reduce_multiclass_inexact)]
        np.testing.assert_array_equal(exact[0], walks[0][0])
        np.testing.assert_array_equal(inexact[0], walks[1][0])

        def P(relabeling):
            return [[exact_margin(row, one_vs_all_split(relabeling, c), C) for row in qcross]
                    for c in (1, 2, 3)]

        clean = P(labels)
        c_hat = [max(range(3), key=lambda c: (clean[c][t], -c)) for t in range(rows)]

        def gaps(changes):  # p_chat - max_{c != chat} p_c
            p = P(relabeled(labels, changes))
            return [p[c_hat[t]][t] - max(p[c][t] for c in range(3) if c != c_hat[t])
                    for t in range(rows)]

        def lows(combo):  # p_chat under one flip set of its one-vs-all labels
            return [exact_margin(qcross[t], flipped(one_vs_all_split(labels, c_hat[t] + 1),
                                                     combo), C) for t in range(rows)]

        for i, budget in enumerate(budgets, 1):
            _, worsts = brute_force_oracle(q, qcross, labels, C, budget, "multiclass",
                                           num_classes=3)
            bound = inexact_reference(q, qcross, labels, 3, C, budget.r)
            for certs, walk, reference, first in (
                    (exact[i], walks[0][i], worsts,
                     first_minimizers(relabelings(labels, 3, budget.r), gaps)),
                    (inexact[i], walks[1][i], bound,
                     first_minimizers(flip_sets(9, budget.r), lows))):
                assert [c.robust for c in certs] == [c.robust for c in walk]
                assert [c.robust for c in certs] == list(np.asarray(reference) > 0.0)
                assert [c.witness for c in certs] == [c.witness for c in walk] == first
                for other in (reference, [c.worst_objective for c in walk]):
                    np.testing.assert_allclose([c.worst_objective for c in certs], other,
                                               rtol=0.0, atol=1e-12)


def oracle_instance(kind, seed=90, m=7, rows=5):
    """A `random_kernel` of that kind, labels and test rows."""
    rng = np.random.Generator(np.random.Philox(seed))
    q = random_kernel(rng, m, kind)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    return q, y, rng.standard_normal((rows, m))


def count_cd_solves(monkeypatch):
    """Counts the coordinate-descent solves of a scan."""
    calls = []
    original = certlab.certify.solve_dual

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(certlab.certify, "solve_dual", counted)
    return calls


class TestActiveSetLeaves:
    """Unsaturated leaves take the KKT-verified active-set dual, or fall back to CD."""

    @pytest.mark.parametrize("kind", ["full", "rank-deficient", "zero-diagonal"])
    @pytest.mark.parametrize("C", [0.05, 1.0, 10.0])
    def test_matches_brute_force(self, kind, C, monkeypatch):
        q, y, qcross = oracle_instance(kind)
        budget = Budget(0.29, y.size)  # r = 2
        calls, cd = count_solves(monkeypatch), count_cd_solves(monkeypatch)
        stats = ScanStats()
        _, certs = reduce_samples(q, qcross, y, C, [budget], range(5), **OPTS)
        flags, worsts = brute_force_oracle(q, qcross, y, C, budget, "sample")
        assert [c.robust for c in certs] == list(flags)
        np.testing.assert_allclose([c.worst_objective for c in certs], worsts,
                                   atol=1e-9 * max(1.0, C))
        del calls[:], cd[:]  # count the collective walk alone, which runs in every regime
        _, coll = reduce_collective(q, qcross, y, C, [budget], range(5), stats=stats, **OPTS)
        oracle = brute_force_oracle(q, qcross, y, C, budget, "collective")
        assert (coll.max_misclassified, coll.witness) == (oracle.max_misclassified,
                                                          oracle.witness)
        unsaturated = not saturates(q, C)
        assert stats.leaves == leaf_count(y.size, 2)
        assert len(calls) == (stats.leaves if unsaturated else 0)
        # the clean leaf is a cold coordinate descent; every child verifies or falls back
        assert stats.verified_leaves + stats.cd_fallbacks == len(calls) - unsaturated
        assert len(cd) == stats.cd_fallbacks + unsaturated
        if (kind, C) == ("rank-deficient", 10.0):
            assert stats.cd_fallbacks > 0  # most leaves free more than 2 coordinates


class TestKarateCollective:
    def test_single_flip_matches_oracle(self):
        from certlab import (
            ArchitectureSpec,
            karate_club,
            kernel_submatrix,
            normalize_adjacency,
            ntk_analytic,
        )
        graph = karate_club()
        conv = normalize_adjacency(graph, "row")
        kern = ntk_analytic(ArchitectureSpec("gcn", 1, conv=conv), graph)
        lab, test = graph.labeled, graph.unlabeled
        q = kernel_submatrix(kern, lab, lab)
        qcross = kernel_submatrix(kern, test, lab)
        y = np.where(graph.labels == 2, 1.0, -1.0)[lab]
        budget = Budget(0.1, graph.m)  # exactly one flip
        cert = certify_collective(q, qcross, y, 0.01, budget, test)
        oracle = brute_force_oracle(q, qcross, y, 0.01, budget, "collective")
        assert cert.max_misclassified == oracle.max_misclassified
        assert cert.witness == oracle.witness
        # one flip provably breaks a sizable share of the test predictions
        assert cert.max_misclassified >= len(test) // 5


class TestMetrics:
    class FakeCert:
        def __init__(self, robust):
            self.robust = robust

    def test_all_robust_all_correct(self):
        certs = [self.FakeCert(True)] * 3
        row = metrics(certs, [1, 1, 2], [1, 1, 2], 0.1)
        assert row.certified_ratio == row.certified_accuracy == 1.0

    def test_none_robust(self):
        certs = [self.FakeCert(False)] * 3
        row = metrics(certs, [1, 1, 2], [1, 1, 2], 0.1)
        assert row.certified_ratio == row.certified_accuracy == 0.0

    def test_mixed_three_node_case(self):
        certs = [self.FakeCert(True), self.FakeCert(True), self.FakeCert(False)]
        row = metrics(certs, [1, 2, 1], [1, 1, 1], 0.1)
        assert row.certified_ratio == pytest.approx(2 / 3)
        assert row.certified_accuracy == pytest.approx(1 / 3)
        assert row.clean_accuracy == pytest.approx(2 / 3)

    def test_zero_prediction_never_correct(self):
        certs = [self.FakeCert(True)]
        row = metrics(certs, [0], [1], 0.1)
        assert row.clean_accuracy == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            metrics([], [], [], 0.1)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            MetricsRow(0.1, certified_ratio=0.2, certified_accuracy=0.5,
                       clean_accuracy=1.0)
