import numpy as np
import pytest

from certlab import (
    ConvergenceError,
    SvmProblem,
    kkt_check,
    margins,
    one_vs_all_split,
    saturates,
    solve_active_set,
    solve_active_sets,
    solve_dual,
    solve_dual_pg,
)
from certlab.svm import DEFAULT_TOL, _violation
from conftest import random_kernel, random_psd


def identity_problem(C=1.0):
    return SvmProblem(np.eye(2), np.array([1.0, -1.0]), C)


class TestSolveDual:
    def test_identity_unconstrained_optimum(self):
        sol = solve_dual(identity_problem())
        np.testing.assert_allclose(sol.alpha, [1.0, 1.0])
        assert sol.objective == pytest.approx(-1.0, abs=1e-12)

    def test_identity_box_clipped(self):
        sol = solve_dual(identity_problem(C=0.5))
        np.testing.assert_allclose(sol.alpha, [0.5, 0.5])

    def test_matches_projected_gradient_reference(self):
        rng = np.random.Generator(np.random.Philox(21))
        for k in range(10):
            q = random_psd(rng, 8)
            y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
            problem = SvmProblem(q, y, C=1.0)
            cd = solve_dual(problem)
            pg = solve_dual_pg(problem)
            assert cd.objective == pytest.approx(pg.objective, abs=1e-8)
            assert cd.kkt_residual <= 1e-9

    def test_objective_monotone_over_sweeps(self):
        rng = np.random.Generator(np.random.Philox(22))
        q = random_psd(rng, 12)
        y = np.where(rng.random(12) < 0.5, 1.0, -1.0)
        trace = []
        solve_dual(SvmProblem(q, y, C=2.0), sweep_callback=trace.append)
        assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_sweep_order_changes_keep_margins(self):
        # duals need not be unique; the prediction value is
        rng = np.random.Generator(np.random.Philox(23))
        for _ in range(5):
            base = rng.standard_normal((6, 9))
            y = np.where(rng.random(9) < 0.5, 1.0, -1.0)
            qcross = rng.standard_normal((4, 9))
            # rank-deficient kernel, so the optimal duals are non-unique
            problem = SvmProblem(base.T @ base, y, 1.0)
            a = solve_dual(problem).alpha
            b = solve_dual(problem, order=np.arange(9)[::-1]).alpha
            np.testing.assert_allclose(
                margins(a, y, qcross), margins(b, y, qcross), atol=1e-7)

    def test_scaling_invariance_of_predictions(self):
        rng = np.random.Generator(np.random.Philox(24))
        for _ in range(5):
            q = random_psd(rng, 7)
            y = np.where(rng.random(7) < 0.5, 1.0, -1.0)
            qcross = rng.standard_normal((5, 7))
            gamma = 10.0 ** rng.integers(-2, 3)
            a = solve_dual(SvmProblem(q, y, C=0.8)).alpha
            b = solve_dual(SvmProblem(gamma * q, y, C=0.8 / gamma)).alpha
            pa, pb = margins(a, y, qcross), margins(b, y, gamma * qcross)
            assert np.array_equal(np.sign(pa), np.sign(pb))

    def test_zero_diagonal_coordinate(self):
        # PSD with Q_00 = 0 forces row 0 to zero; the linear coordinate
        # runs to whichever face the slope picks (here C).
        q = np.array([[0.0, 0.0], [0.0, 1.0]])
        sol = solve_dual(SvmProblem(q, np.array([1.0, 1.0]), C=2.0))
        np.testing.assert_allclose(sol.alpha, [2.0, 1.0])

    def test_warm_start_agrees(self):
        rng = np.random.Generator(np.random.Philox(25))
        q = random_psd(rng, 6)
        y = np.where(rng.random(6) < 0.5, 1.0, -1.0)
        problem = SvmProblem(q, y, C=1.0)
        cold = solve_dual(problem)
        warm = solve_dual(problem, alpha0=np.full(6, 0.9))
        assert cold.objective == pytest.approx(warm.objective, abs=1e-9)

    def test_nan_kernel_rejected(self):
        q = np.eye(2)
        q = q.copy()
        q[0, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            SvmProblem(q, np.array([1.0, -1.0]), 1.0)

    def test_non_convergence_raises(self):
        rng = np.random.Generator(np.random.Philox(26))
        q = random_psd(rng, 10)
        y = np.ones(10)
        with pytest.raises(ConvergenceError) as err:
            solve_dual(SvmProblem(q, y, 5.0), tol=1e-14, max_sweeps=1)
        assert err.value.residual > 0

    def test_sweep_budget_must_be_positive(self):
        with pytest.raises(ValueError, match="max_sweeps"):
            solve_dual(identity_problem(), max_sweeps=0)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("slack", [0.1, 0.99])
    def test_saturated_dual_is_exactly_C(self, seed, slack):
        # the saturated leaf shortcut returns C * 1; coordinate descent must
        # land on the very same floats, cold or warm-started anywhere in the box
        rng = np.random.Generator(np.random.Philox(seed))
        q = random_psd(rng, 12, jitter=0.5)
        C = slack / np.abs(q).sum(axis=1).max()
        assert saturates(q, C)
        for _ in range(5):
            problem = SvmProblem(q, np.where(rng.random(12) < 0.5, 1.0, -1.0), C)
            for alpha0 in (None, C * rng.random(12)):
                alpha = solve_dual(problem, alpha0=alpha0).alpha
                assert np.all(alpha == np.full(12, C))

    def test_saturates_condition(self):
        q = np.array([[2.0, -1.0], [-1.0, 3.0]])  # largest absolute row sum 4
        assert saturates(q, 0.2) and not saturates(q, 0.25) and not saturates(q, 0.3)
        assert saturates(np.zeros((3, 3)), 1e6)


class TestActiveSet:
    @pytest.mark.parametrize("kind", ["full", "rank-deficient", "zero-diagonal"])
    @pytest.mark.parametrize("C", [0.05, 1.0, 10.0])
    def test_accepted_dual_passes_kkt(self, kind, C):
        rng = np.random.Generator(np.random.Philox(31))
        accepted = 0
        for _ in range(10):
            q = random_kernel(rng, 8, kind)
            problem = SvmProblem(q, np.where(rng.random(8) < 0.5, 1.0, -1.0), C)
            reference, h = solve_dual(problem), problem.signed_kernel()
            guesses = (np.full(8, C), np.zeros(8), C * rng.random(8), reference.alpha)
            for guess in guesses:
                alpha = solve_active_set(problem.Qtrain, problem.y, C, guess)
                if alpha is None:
                    continue
                accepted += 1
                assert alpha.min() >= 0.0 and alpha.max() <= C
                assert _violation(alpha, h @ alpha - 1.0, C) < DEFAULT_TOL
                kkt = kkt_check(problem, alpha)
                assert kkt.stationarity_residual < DEFAULT_TOL
                assert kkt.complementarity_residual < 1e-9
                objective = -alpha.sum() + 0.5 * alpha @ h @ alpha
                assert objective == pytest.approx(reference.objective,
                                                  abs=1e-9 * max(1.0, C))
        assert accepted >= 10

    def test_singular_free_block_returns_none(self):
        # row 0 of the kernel is zero, so a guess that frees coordinate 0
        # makes the free block singular
        q = random_kernel(np.random.Generator(np.random.Philox(32)), 5, "zero-diagonal")
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        assert solve_active_set(q, y, 1.0, np.full(5, 0.5)) is None
        # from the upper face it stays there: its gradient is -1 at any labels
        alpha = solve_active_set(q, y, 1.0, np.full(5, 1.0))
        assert alpha[0] == 1.0
        np.testing.assert_allclose(alpha, solve_dual(SvmProblem(q, y, 1.0)).alpha, atol=1e-9)

    def test_singular_row_is_solved_apart_from_the_stack(self, monkeypatch):
        # the first guess frees coordinate 0, whose kernel row is zero, so the
        # stacked solve fails and each row is solved on its own
        q = random_kernel(np.random.Generator(np.random.Philox(32)), 5, "zero-diagonal")
        y = np.array([1.0, -1.0, 1.0, -1.0, 1.0])
        optimum = solve_dual(SvmProblem(q, y, 1.0)).alpha
        calls, original = [], np.linalg.solve

        def spy(a, b):
            calls.append(np.ndim(a))
            return original(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        alpha, verified = solve_active_sets(q, np.vstack([y, y]), 1.0,
                                            np.vstack([np.full(5, 0.5), optimum]))
        assert calls == [3, 2, 2] and verified.tolist() == [False, True]
        assert np.all(alpha[0] == 0.0)
        np.testing.assert_allclose(alpha[1], optimum, atol=1e-9)

    def test_one_round_verifies_only_the_right_guess(self):
        rng = np.random.Generator(np.random.Philox(33))
        q = random_psd(rng, 8)
        problem = SvmProblem(q, np.where(rng.random(8) < 0.5, 1.0, -1.0), 10.0)
        optimum = solve_dual(problem).alpha
        wrong = np.where(optimum >= 10.0, 0.0, 10.0)  # every face the wrong one
        assert solve_active_set(q, problem.y, 10.0, wrong, rounds=1) is None
        exact = solve_active_set(q, problem.y, 10.0, optimum, rounds=1)
        np.testing.assert_allclose(exact, optimum, atol=1e-8)


class TestMargins:
    def test_simple(self):
        p = margins(np.array([1.0, 1.0]), np.array([1.0, -1.0]),
                    np.array([[1.0, 0.0]]))
        assert p[0] == pytest.approx(1.0)

    def test_untrained_all_zero(self):
        p = margins(np.zeros(3), np.ones(3), np.ones((4, 3)))
        np.testing.assert_array_equal(p, 0.0)

    def test_single_support_flip_negates(self):
        rng = np.random.Generator(np.random.Philox(27))
        q = np.array([[1.0]])
        qcross = rng.standard_normal((6, 1))
        a = solve_dual(SvmProblem(q, np.array([1.0]), 1.0)).alpha
        b = solve_dual(SvmProblem(q, np.array([-1.0]), 1.0)).alpha
        np.testing.assert_allclose(
            margins(a, np.array([1.0]), qcross),
            -margins(b, np.array([-1.0]), qcross), atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            margins(np.ones(2), np.ones(2), np.ones((3, 4)))


class TestKktCheck:
    def test_residuals_at_optimum(self):
        problem = identity_problem()
        sol = solve_dual(problem)
        cert = kkt_check(problem, sol.alpha)
        assert cert.stationarity_residual <= 1e-10
        assert cert.complementarity_residual <= 1e-10

    def test_interior_perturbation_shows_in_stationarity(self):
        # optimum of Q = 2*I has interior alpha = 0.5; nudging one
        # coordinate by +0.1 violates stationarity by about 0.1 * Q_ii
        q = 2.0 * np.eye(2)
        problem = SvmProblem(q, np.array([1.0, -1.0]), C=1.0)
        alpha = solve_dual(problem).alpha.copy()
        alpha[0] += 0.1
        cert = kkt_check(problem, alpha)
        assert cert.stationarity_residual == pytest.approx(0.1 * q[0, 0], rel=1e-9)
        assert cert.complementarity_residual <= 1e-12

    def test_box_corner_violates_stationarity_only(self):
        problem = identity_problem()
        cert = kkt_check(problem, np.zeros(2))
        assert cert.stationarity_residual == pytest.approx(1.0)
        assert cert.complementarity_residual == 0.0

    def test_multipliers_nonnegative_and_solver_consistent(self):
        rng = np.random.Generator(np.random.Philox(28))
        for _ in range(10):
            q = random_psd(rng, 8)
            y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
            problem = SvmProblem(q, y, C=0.3)
            sol = solve_dual(problem, tol=1e-10)
            cert = kkt_check(problem, sol.alpha, tol=1e-9)
            assert np.all(cert.u >= 0) and np.all(cert.v >= 0)
            assert cert.stationarity_residual <= 10 * 1e-10 + 1e-12
            assert cert.complementarity_residual <= 10 * 1e-10


class TestOneVsAll:
    def test_basic(self):
        np.testing.assert_array_equal(
            one_vs_all_split(np.array([1, 2, 3]), 2), [-1.0, 1.0, -1.0])

    def test_absent_class_all_negative(self):
        np.testing.assert_array_equal(
            one_vs_all_split(np.array([1, 1]), 3), [-1.0, -1.0])

    def test_two_class_reduces_to_sign_relabeling(self):
        labels = np.array([1, 2, 2, 1])
        np.testing.assert_array_equal(one_vs_all_split(labels, 1),
                                      -one_vs_all_split(labels, 2))
