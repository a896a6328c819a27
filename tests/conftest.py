import numpy as np
import pytest

import certlab.certify
from certlab import CsbmParams, normalize_adjacency, sample_csbm
from certlab.errors import ConvergenceError


def pytest_collection_modifyitems(items):
    """A ResourceWarning fails every test outside tests/test_acceptance.py,
    the acceptance gate, which leaves result files open and stays as it is."""
    for item in items:
        if item.path.name != "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings("error::ResourceWarning"))


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


def count_solves(monkeypatch, fail_at=None, chunks=None):
    """Counts the leaf solves certify makes, one entry per unsaturated leaf
    that `_solve_chunk` solves; the chunk holding leaf number fail_at raises.
    `chunks`, if given, gets one entry per `_solve_chunk` call."""
    calls = []
    original = certlab.certify._solve_chunk

    def counted(problem, Y, *args, **kwargs):
        first = len(calls) + 1
        calls.extend([1] * len(Y))
        if chunks is not None:
            chunks.append(len(Y))
        if fail_at is not None and first <= fail_at <= len(calls):
            raise ConvergenceError("injected non-convergence", 1.0)
        return original(problem, Y, *args, **kwargs)

    monkeypatch.setattr(certlab.certify, "_solve_chunk", counted)
    return calls


@pytest.fixture(scope="session")
def small_csbm():
    """Dense-ish 12-node two-class graph used across modules."""
    return sample_csbm(CsbmParams(n=12, p=0.5, q=0.15, labeled_per_class=3, seed=3))


@pytest.fixture(scope="session")
def small_conv(small_csbm):
    return normalize_adjacency(small_csbm, "row")
