import numpy as np
import pytest

import certlab.certify
from certlab import CsbmParams, normalize_adjacency, sample_csbm
from certlab.errors import ConvergenceError


def random_psd(rng, m, jitter=0.0):
    a = rng.standard_normal((m, m))
    return a @ a.T + jitter * np.eye(m)


def random_kernel(rng, m, kind="full"):
    """A PSD kernel block: full rank, rank 2, or with row and column 0 zero."""
    if kind == "rank-deficient":
        b = rng.standard_normal((m, 2))
        return b @ b.T
    q = random_psd(rng, m)
    if kind == "zero-diagonal":
        q[0, :] = q[:, 0] = 0.0
    return q


def count_solves(monkeypatch, fail_at=None):
    """Counts the leaf solves certify makes, one `_solve_leaf` call per
    unsaturated leaf; the call numbered fail_at raises."""
    calls = []
    original = certlab.certify._solve_leaf

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise ConvergenceError("injected non-convergence", 1.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(certlab.certify, "_solve_leaf", counted)
    return calls


@pytest.fixture(scope="session")
def small_csbm():
    """Dense-ish 12-node two-class graph used across modules."""
    return sample_csbm(CsbmParams(n=12, p=0.5, q=0.15, labeled_per_class=3, seed=3))


@pytest.fixture(scope="session")
def small_conv(small_csbm):
    return normalize_adjacency(small_csbm, "row")
