import numpy as np
import pytest

import certlab.certify
from certlab import CsbmParams, normalize_adjacency, sample_csbm
from certlab.errors import ConvergenceError


def random_psd(rng, m, jitter=0.0):
    a = rng.standard_normal((m, m))
    return a @ a.T + jitter * np.eye(m)


def count_solves(monkeypatch, fail_at=None):
    """Counts the dual solves certify makes; the call numbered fail_at raises."""
    calls = []
    original = certlab.certify.solve_dual

    def counted(*args, **kwargs):
        calls.append(1)
        if len(calls) == fail_at:
            raise ConvergenceError("injected non-convergence", 1.0)
        return original(*args, **kwargs)

    monkeypatch.setattr(certlab.certify, "solve_dual", counted)
    return calls


@pytest.fixture(scope="session")
def small_csbm():
    """Dense-ish 12-node two-class graph used across modules."""
    return sample_csbm(CsbmParams(n=12, p=0.5, q=0.15, labeled_per_class=3, seed=3))


@pytest.fixture(scope="session")
def small_conv(small_csbm):
    return normalize_adjacency(small_csbm, "row")
