"""Box-constrained SVM dual QP (no bias term), margins and KKT diagnostics.

The dual minimizes  -sum_i a_i + 1/2 sum_ij y_i y_j a_i a_j Q_ij  subject to
0 <= a_i <= C. Three solvers are provided: a primal-dual active-set step
that solves the free block of a guessed active set directly and returns a
dual only if it passes the stopping test of coordinate descent (the
certifier's leaf oracle), cyclic coordinate descent (warm-startable, the
fallback when no guess verifies) and a deliberately plain projected-gradient
reference used as a cross-checking oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 100_000
ACTIVE_SET_ROUNDS = 8
ZERO_DIAG = 1e-12


@dataclass(frozen=True)
class SvmProblem:
    Qtrain: np.ndarray   # m x m kernel block over the labeled nodes
    y: np.ndarray        # labels in {-1, +1}
    C: float

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.Qtrain, dtype=np.float64))
        y = np.asarray(self.y, dtype=np.float64)
        object.__setattr__(self, "Qtrain", q)
        object.__setattr__(self, "y", y)
        m = y.size
        if q.shape != (m, m):
            raise ValueError(f"kernel block shape {q.shape} does not match m={m}")
        if not np.all(np.isfinite(q)):
            raise ValueError("kernel block contains non-finite entries")
        if not np.allclose(q, q.T, rtol=1e-9, atol=1e-9):
            raise ValueError("kernel block must be symmetric")
        if not np.all(np.abs(y) == 1.0):
            raise ValueError("labels must be +1 or -1")
        if not self.C > 0:
            raise ValueError(f"C must be positive, got {self.C}")

    @property
    def m(self) -> int:
        return self.y.size

    def signed_kernel(self) -> np.ndarray:
        """(y y^T) .* Q, the Hessian of the dual objective."""
        return self.Qtrain * np.outer(self.y, self.y)


@dataclass(frozen=True)
class DualSolution:
    alpha: np.ndarray
    objective: float
    kkt_residual: float

    def __post_init__(self):
        a = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", a)
        a.setflags(write=False)


@dataclass(frozen=True)
class KktCertificate:
    u: np.ndarray
    v: np.ndarray
    stationarity_residual: float
    complementarity_residual: float


def saturates(Qtrain: np.ndarray, C: float) -> bool:
    """True iff C * max_i sum_j |Q_ij| < 1, so alpha = C * 1 at every labeling.

    Proof: on the box 0 <= alpha <= C, for any labels y in {-1, +1}^m,
    d/d alpha_i of the dual objective is sum_j y_i y_j Q_ij alpha_j - 1
    <= C sum_j |Q_ij| - 1 < 0. A coordinate with negative slope on the whole
    box sits at its upper face at any minimizer, so alpha = C * 1 is the
    unique optimum. Coordinate descent lands on it exactly: each step's
    unclipped value old + (1 - g_i) / Q_ii >= (1 - C sum_{j != i} |Q_ij|) / Q_ii
    exceeds C and is clipped to C (a coordinate with Q_ii = 0 takes the
    face its positive slope picks, C), unless the slack
    1 - C max_i sum_j |Q_ij| is within rounding of 0. This is the condition
    under which `milp.big_m` clamps Mu_i to 0.
    """
    rows = np.abs(np.asarray(Qtrain, dtype=np.float64)).sum(axis=1)
    return bool(C * rows.max(initial=0.0) < 1.0)


def _objective(alpha: np.ndarray, h: np.ndarray) -> float:
    return float(-alpha.sum() + 0.5 * alpha @ h @ alpha)


def _violation(alpha: np.ndarray, grad: np.ndarray, C: float) -> float:
    """Largest first-order optimality violation over the box."""
    v = np.abs(grad)
    v = np.where(alpha <= 0.0, np.maximum(-grad, 0.0), v)
    v = np.where(alpha >= C, np.maximum(grad, 0.0), v)
    return float(v.max(initial=0.0))


def solve_dual(problem: SvmProblem, tol: float = DEFAULT_TOL,
               max_sweeps: int = DEFAULT_MAX_SWEEPS,
               alpha0: np.ndarray | None = None,
               order: np.ndarray | None = None,
               sweep_callback=None) -> DualSolution:
    """Cyclic coordinate descent in a fixed index order.

    Each step minimizes the objective exactly in one coordinate, so the
    objective never increases and the sweep order is deterministic.
    `alpha0` warm-starts the solve (used by the certifier when walking
    neighboring flip sets); `order` overrides the index order and
    `sweep_callback(objective)` fires after every sweep, both for tests.
    """
    if max_sweeps < 1:
        raise ValueError(f"max_sweeps must be at least 1, got {max_sweeps}")
    m, C = problem.m, problem.C
    h = problem.signed_kernel()
    diag = np.diag(h).copy()
    sweep_order = range(m) if order is None else [int(i) for i in order]
    if alpha0 is None:
        alpha = np.zeros(m)
    else:
        alpha = np.clip(np.asarray(alpha0, dtype=np.float64).copy(), 0.0, C)
    g = h @ alpha
    for _ in range(max_sweeps):
        for i in sweep_order:
            old = alpha[i]
            if diag[i] > ZERO_DIAG:
                new = min(max(old + (1.0 - g[i]) / diag[i], 0.0), C)
            else:
                # Linear coordinate: descend to whichever box face the slope picks.
                new = C if 1.0 - (g[i] - diag[i] * old) > 0.0 else 0.0
            if new != old:
                alpha[i] = new
                g += h[:, i] * (new - old)
            # Thanks to exact clipping, boundary coordinates sit exactly at 0 or C.
        if sweep_callback is not None:
            sweep_callback(_objective(alpha, h))
        resid = _violation(alpha, g - 1.0, C)
        if resid < tol:
            return DualSolution(alpha, _objective(alpha, h), resid)
    raise ConvergenceError(
        f"coordinate descent did not reach tol={tol} within {max_sweeps} sweeps "
        f"(residual {resid:.3e})", resid,
    )


def solve_active_set(Q: np.ndarray, y: np.ndarray, C: float, guess: np.ndarray,
                     tol: float = DEFAULT_TOL, rounds: int = ACTIVE_SET_ROUNDS):
    """Primal-dual active-set solve of the dual; the verified alpha, or None.

    Coordinates where `guess` is <= 0 start at the lower face, those >= C at
    the upper face and the rest free (Hintermueller, Ito & Kunisch, SIAM J.
    Optim. 2002). Each round solves the free block h_FF a_F = 1 - C h_FU 1,
    h = (y y^T) .* Q, as Q_FF b_F = y_F - C Q_FU y_U in b = y * a, and
    returns a only if it lies in the box and passes the stopping test of
    `solve_dual`, _violation(a, h a - 1, C) < tol, on a freshly computed
    gradient; so an accepted dual is as exact as a coordinate-descent one.
    Otherwise the violators move: a coordinate on a face whose gradient
    points into the box becomes free, a free one that left the box goes to
    the face it crossed, and the next round tries that guess. A singular or
    non-finite free solve, or `rounds` rejected guesses, return None: the
    caller falls back to `solve_dual`. Q and y are not validated here (build
    an SvmProblem once for that); y must be +-1.
    """
    upper, lower = guess >= C, guess <= 0.0
    for _ in range(rounds):
        inside = ~(upper | lower)
        free = np.flatnonzero(inside)
        alpha = np.where(upper, C, 0.0)
        if free.size:
            try:
                beta = np.linalg.solve(Q[np.ix_(free, free)], y[free] - Q[free] @ (y * alpha))
            except np.linalg.LinAlgError:
                return None
            if not np.isfinite(beta).all():
                return None
            alpha[free] = y[free] * beta
        grad = y * (Q @ (y * alpha)) - 1.0
        if alpha.min() >= 0.0 and alpha.max() <= C and _violation(alpha, grad, C) < tol:
            return alpha
        upper, lower = ((upper & (grad <= 0.0)) | (inside & (alpha >= C)),
                        (lower & (grad >= 0.0)) | (inside & (alpha <= 0.0)))
    return None


def solve_dual_pg(problem: SvmProblem, tol: float = DEFAULT_TOL,
                  max_iters: int = 2_000_000) -> DualSolution:
    """Projected-gradient reference solver, independent of the coordinate path.

    Fixed step 1 / lambda_max; kept intentionally simple because its only
    job is to cross-check `solve_dual` and to power the brute-force oracle.
    """
    m, C = problem.m, problem.C
    h = problem.signed_kernel()
    lam = float(np.linalg.eigvalsh(h).max())
    step = 1.0 / lam if lam > 0 else 1.0
    alpha = np.full(m, min(C, 1.0) / 2.0)
    for _ in range(max_iters):
        grad = h @ alpha - 1.0
        new = np.clip(alpha - step * grad, 0.0, C)
        alpha = new
        resid = _violation(alpha, h @ alpha - 1.0, C)
        if resid < tol:
            return DualSolution(alpha, _objective(alpha, h), resid)
    raise ConvergenceError(
        f"projected gradient did not reach tol={tol} within {max_iters} iterations "
        f"(residual {resid:.3e})", resid,
    )


def margins(alpha: np.ndarray, y: np.ndarray, Qcross: np.ndarray) -> np.ndarray:
    """Prediction scores p_t = sum_i y_i a_i Q_ti for the rows of Qcross.

    The predicted class is sign(p_t); p_t == 0 has no sign and is treated
    as a misclassification by every downstream consumer.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    q = np.atleast_2d(np.asarray(Qcross, dtype=np.float64))
    if q.shape[1] != alpha.size or y.size != alpha.size:
        raise ValueError("margin dimensions disagree")
    return q @ (y * alpha)


def kkt_check(problem: SvmProblem, alpha: np.ndarray, tol: float = 1e-9) -> KktCertificate:
    """Reconstruct multipliers u, v from alpha and report both KKT residuals.

    u_i may be positive only at the lower box face and v_i only at the
    upper one (within `tol`), so complementarity holds by construction and
    any suboptimality shows up in the stationarity residual.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    C = problem.C
    if np.any(alpha < -tol) or np.any(alpha > C + tol):
        raise ValueError("alpha violates the box constraint")
    g = problem.signed_kernel() @ alpha - 1.0
    at_lower = alpha <= tol
    at_upper = alpha >= C - tol
    u = np.where(at_lower, np.maximum(g, 0.0), 0.0)
    v = np.where(at_upper, np.maximum(-g, 0.0), 0.0)
    stationarity = float(np.abs(g - u + v).max(initial=0.0))
    complementarity = float(
        np.maximum(np.abs(u * alpha), np.abs(v * (C - alpha))).max(initial=0.0)
    )
    return KktCertificate(u, v, stationarity, complementarity)


def one_vs_all_split(labels: np.ndarray, c: int) -> np.ndarray:
    """+1 where the class equals c, -1 elsewhere."""
    labels = np.asarray(labels)
    return np.where(labels == c, 1.0, -1.0)
