"""Infinite-width tangent kernels for the supported architectures.

`ntk_analytic` evaluates closed-form recursions; `ntk_empirical` estimates
the same kernel by Monte Carlo over finite-width initializations, and is
the ground truth the analytic recursions are validated against. One
sampler (`_sample`) owns the layer loop, the draw order and the draw
policy for every kind; a kind supplies only its first layer's input and a
per-layer step that returns the local derivative and the next layer's
input. One hand-written reverse-mode pass (`_backprop`) turns those
records into the draw's kernel.

The forward pass reads a hidden layer's width x width weights W only
through A W, A its n x width input. With the thin SVD A = U S V^T that is
(U S) Z for Z = V^T W, a min(n, width) x width standard normal by the
rotation invariance of W, so drawing Z is exact in distribution whatever
the rank of A. Nothing is pulled back through the first hidden layer, so
it is drawn as Z when its fan is the width (the skip variants). At
depth >= 2 the top hidden layer, just below the one-unit readout, is
drawn as Z too. The backward pass reads it only through b W^T for n rows
b, and W = V Z + (I - V V^T) W with the second part standard normal given
Z: with b^T = Q_b R_b, b W^T = (b Z^T) V^T + R_b^T Y^T (I - V V^T) for a
fresh width x n standard normal Y, again exact in distribution. That is
2 n width normals where W took width^2. `_backprop` keeps the gradient
factored as c[i, r] b[r] until an S mix meets n rows b[r], so W^T meets
n rows, not n^2.

Certification reads only the kernel's columns over the labeled nodes:
K[labeled, labeled] for the dual and K[test, labeled] for the margins. So
`ntk_analytic(spec, graph, columns=...)` returns just the n x m block
K[:, columns] as `KernelColumns`. Each kind restricts only its last step
to those columns; PPNP and APPNP never form their n x n propagation
matrix. Symmetry and PSD are checked
on the m x m block, the only one a dual over those nodes reads. Without
`columns` the result is the whole `KernelMatrix`.

Conventions shared by both paths: weights are drawn N(0, 1) and every
matrix product carries an explicit 1/sqrt(fan-in) factor; "relu" means the
variance-preserving rectifier sqrt(2)*max(z, 0), so second moments
propagate without decay; no bias terms anywhere; the network output is a
single linear unit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from math import pi, sqrt

import numpy as np

from .errors import ResourceError, SingularPropagationError
from .graph import ConvolutionMatrix, Graph, make_rng

# the ArchitectureSpec parameters each kind reads, in `describe` order; a
# parameter its kind never reads keeps its default, and a config never names it
READS = {
    "mlp": ("depth", "activation"),
    "gcn": ("depth", "activation", "conv"),
    "sgc": ("depth", "conv"),
    "ppnp": ("depth", "activation", "conv", "alpha"),
    "appnp": ("depth", "activation", "conv", "alpha", "power_k"),
    "skip_pc": ("depth", "conv", "skip_activation"),
    "skip_alpha": ("depth", "conv", "alpha", "skip_activation"),
    "linear": (),
}
_LABELS = {"depth": "L", "activation": "act", "alpha": "alpha", "power_k": "K",
           "skip_activation": "skip"}

#: Refuse empirical estimation when n * width exceeds this (the per-node
#: gradient contraction holds n^2 * width floats).
DEFAULT_WIDTH_CAP = 1 << 19

_KERNEL_MAGIC = b"CLABKRN1"


@dataclass(frozen=True)
class ArchitectureSpec:
    """Which network to take the tangent kernel of.

    `depth` counts hidden layers; the linear output map (which for the
    convolutional kinds includes one further propagation by S) comes on
    top. `depth=0` is permitted for the MLP only and means the bare
    linear readout, whose empirical kernel is deterministic.
    """

    kind: str
    depth: int = 1
    conv: ConvolutionMatrix | None = None
    alpha: float | None = None
    power_k: int | None = None
    skip_activation: str = "relu"
    activation: str = "relu"

    def __post_init__(self):
        reads = READS.get(self.kind)
        if reads is None:
            raise ValueError(f"unknown architecture kind {self.kind!r}")
        if "conv" in reads and self.conv is None:
            raise ValueError(f"{self.kind} requires a convolution matrix")
        if "conv" not in reads and self.conv is not None:
            raise ValueError(f"{self.kind} takes no convolution matrix")
        # a parameter no step of the kind reads would only mislabel the kernel
        for f in fields(self):
            if f.name not in (*reads, "kind", "conv") and getattr(self, f.name) != f.default:
                raise ValueError(f"{self.kind} reads no {f.name}")
        _check_values(vars(self))

    def describe(self) -> str:
        """The kind and every parameter it reads: specs whose kernels differ never share it."""
        bits = [self.kind]
        for param in READS[self.kind]:
            if param != "conv":
                bits.append(f"{_LABELS[param]}={getattr(self, param)}")
            elif self.conv.beta == 1.0:
                bits.append(f"conv={self.conv.mode}")
            else:
                bits.append(f"conv={self.conv.mode}/beta={self.conv.beta}")
        return "/".join(bits)


def _check_values(params: dict) -> None:
    """The ArchitectureSpec checks that need no convolution matrix, on a map
    of parameter names to values that holds `kind`; a parameter left out
    keeps its default. Config load runs them too, before any graph exists."""
    spec = {f.name: f.default for f in fields(ArchitectureSpec)} | params
    kind, reads = spec["kind"], READS[spec["kind"]]
    for name in ("depth", "power_k"):
        value = spec[name]
        if name == "power_k" and value is None:
            continue  # its default: unread, or rejected as `power_k >= 1` below
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    min_depth = 0 if kind == "mlp" else 1
    if spec["depth"] < min_depth:
        raise ValueError(f"{kind} needs depth >= {min_depth}")
    if "alpha" in reads and (spec["alpha"] is None or not 0.0 <= spec["alpha"] <= 1.0):
        raise ValueError(f"{kind} requires alpha in [0, 1]")
    if "power_k" in reads and (spec["power_k"] is None or spec["power_k"] < 1):
        raise ValueError(f"{kind} requires power_k >= 1")
    for name in ("skip_activation", "activation"):
        if spec[name] not in ("linear", "relu"):
            raise ValueError(f"{name} must be 'linear' or 'relu'")


def _symmetric_psd(q: np.ndarray) -> np.ndarray:
    """q, symmetrized, after checking that it is finite, symmetric within 1e-9
    of its largest entry and PSD within -1e-8 of its largest eigenvalue."""
    scale = float(np.abs(q).max(initial=0.0))
    if not np.all(np.isfinite(q)):
        raise ValueError("kernel contains non-finite entries")
    asym = float(np.abs(q - q.T).max(initial=0.0))
    if scale > 0 and asym > 1e-9 * scale:
        raise ValueError(f"kernel asymmetry {asym:.3e} exceeds 1e-9 relative")
    q = (q + q.T) / 2.0
    eigs = np.linalg.eigvalsh(q)
    norm = float(np.abs(eigs).max(initial=0.0))
    if eigs.min(initial=0.0) < -1e-8 * max(norm, 1e-300):
        raise ValueError(
            f"kernel is not PSD: smallest eigenvalue {eigs.min():.3e} "
            f"against norm {norm:.3e}"
        )
    return q


def _node_index(nodes, n: int) -> np.ndarray:
    idx = np.asarray(nodes, dtype=np.int64)
    if idx.size and (idx.min() < 0 or idx.max() >= n):
        raise IndexError(f"kernel index out of range for n={n}")
    return idx


@dataclass(frozen=True)
class KernelMatrix:
    """A symmetric PSD kernel over the graph nodes."""

    Q: np.ndarray
    source: str

    def __post_init__(self):
        q = np.ascontiguousarray(np.asarray(self.Q, dtype=np.float64))
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError("kernel must be square")
        q = _symmetric_psd(q)
        object.__setattr__(self, "Q", q)
        q.setflags(write=False)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


@dataclass(frozen=True)
class KernelColumns:
    """The columns K[:, columns] of a kernel over the graph nodes.

    Q is n x m, one column per entry of `columns`, so Q[rows] is the block
    K[rows, columns]. It is finite, and its rows `columns`, the block
    K[columns, columns], are symmetric and PSD under the same tolerances as
    a KernelMatrix. That block is all a dual over the `columns` nodes needs.
    """

    Q: np.ndarray
    columns: np.ndarray
    source: str

    def __post_init__(self):
        q = np.array(self.Q, dtype=np.float64)
        if q.ndim != 2:
            raise ValueError("kernel columns must be a matrix")
        cols = _node_index(self.columns, q.shape[0]).copy()  # frozen below, not the caller's
        if cols.shape != (q.shape[1],):
            raise ValueError(f"{q.shape[1]} kernel columns need as many node ids, "
                             f"got shape {cols.shape}")
        if not np.all(np.isfinite(q)):
            raise ValueError("kernel contains non-finite entries")
        q[cols] = _symmetric_psd(q[cols])
        for name, arr in (("Q", q), ("columns", cols)):
            object.__setattr__(self, name, arr)
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.Q.shape[0]


def kernel_submatrix(kernel: KernelMatrix | np.ndarray, rows, cols) -> np.ndarray:
    """Dense copy of the Q[rows, cols] block."""
    q = kernel.Q if isinstance(kernel, KernelMatrix) else np.asarray(kernel)
    n = q.shape[0]
    return q[np.ix_(_node_index(rows, n), _node_index(cols, n))].copy()


# ---------------------------------------------------------------------------
# Gaussian moment maps for the variance-preserving rectifier
# ---------------------------------------------------------------------------

def kappa0(rho: np.ndarray) -> np.ndarray:
    return (pi - np.arccos(rho)) / pi


def kappa1(rho: np.ndarray) -> np.ndarray:
    return (np.sqrt(np.maximum(1.0 - rho * rho, 0.0)) + rho * (pi - np.arccos(rho))) / pi


def _corr(sigma: np.ndarray):
    var = np.maximum(np.diag(sigma), 0.0)
    denom = np.sqrt(np.outer(var, var))
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0.0, sigma / np.where(denom > 0.0, denom, 1.0), 0.0)
    return np.clip(rho, -1.0, 1.0), denom


def _pair_moment(act_r: str, act_s: str, sigma: np.ndarray) -> np.ndarray:
    """E[f(u_r) g(u_s)] for centered Gaussians with second moments `sigma`."""
    if act_r == "linear" and act_s == "linear":
        return sigma.copy()
    if act_r == "linear" or act_s == "linear":
        return sigma / sqrt(2.0)
    rho, denom = _corr(sigma)
    return denom * kappa1(rho)


def _deriv_moment(act: str, sigma: np.ndarray) -> np.ndarray:
    """E[f'(u_r) f'(u_s)]; for the rectifier this is the arc-cosine step kernel.
    The reference `_moments` is tested against."""
    if act == "linear":
        return np.ones_like(sigma)
    rho, denom = _corr(sigma)
    out = kappa0(rho)
    return np.where(denom > 0.0, out, 0.0)


def _moments(act: str, sigma: np.ndarray):
    """(`_pair_moment(act, act, sigma)`, `_deriv_moment(act, sigma)`), the same
    floats from one correlation and one arccos, computed in place."""
    if act == "linear":
        return sigma.copy(), np.ones_like(sigma)
    var = np.maximum(np.diag(sigma), 0.0)
    denom = np.outer(var, var)
    np.sqrt(denom, out=denom)
    pos = denom > 0.0
    rho = np.divide(sigma, denom, out=np.zeros_like(sigma), where=pos)
    np.clip(rho, -1.0, 1.0, out=rho)
    step = np.arccos(rho)
    np.subtract(pi, step, out=step)  # pi - arccos(rho)
    pair = np.multiply(rho, rho)
    np.subtract(1.0, pair, out=pair)
    np.maximum(pair, 0.0, out=pair)
    np.sqrt(pair, out=pair)
    rho *= step
    pair += rho
    pair /= pi
    pair *= denom  # denom * kappa1(rho)
    step /= pi  # kappa0(rho)
    np.copyto(step, 0.0, where=~pos)
    return pair, step


def _mean_vec(act: str, sigma: np.ndarray) -> np.ndarray:
    if act == "linear":
        return np.zeros(sigma.shape[0])
    return np.sqrt(np.maximum(np.diag(sigma), 0.0) / pi)


def _activate(act: str, z: np.ndarray) -> np.ndarray:
    if act == "linear":
        return z
    return sqrt(2.0) * np.maximum(z, 0.0)


def _activate_deriv(act: str, z: np.ndarray) -> np.ndarray:
    if act == "linear":
        return np.ones_like(z)
    return sqrt(2.0) * (z > 0.0)


# ---------------------------------------------------------------------------
# Analytic kernels
# ---------------------------------------------------------------------------

def _sandwich(s: np.ndarray | None, inner: np.ndarray, cols) -> np.ndarray:
    """S inner S^T (`s=None`: inner itself). With `cols`, only its columns
    `cols`, symmetrized against its rows `cols` as the whole kernel is."""
    left = inner if s is None else s @ inner
    if cols is None:
        return left if s is None else left @ s.T
    if s is None:
        block, rows = left[:, cols], left[cols]
    else:
        block, rows = left @ s[cols].T, left[cols] @ s.T
    return (block + rows.T) / 2.0


def _gram(a: np.ndarray, cols) -> np.ndarray:
    """A A^T, or its columns `cols`."""
    return a @ (a if cols is None else a[cols]).T


def _stack_theta(x: np.ndarray, s: np.ndarray | None, depth: int, act: str,
                 cols=None) -> np.ndarray:
    """GCN recursion: each layer's moments are propagated by S (.) S^T;
    `s=None` drops the propagation (MLP). With `cols`, the last
    propagation builds only the kernel's columns `cols`."""
    sig = _sandwich(s, x @ x.T / x.shape[1], None)
    if depth == 0:  # the bare linear readout (MLP only)
        return _sandwich(None, sig, cols)
    theta = sig
    for layer in range(depth):
        e, inner = _moments(act, sig)
        inner *= theta
        inner += e  # theta * deriv + e
        if layer == depth - 1:  # no later layer reads this layer's moments
            return _sandwich(s, inner, cols)
        theta, sig = _sandwich(s, inner, None), _sandwich(s, e, None)


def _sgc_theta(x: np.ndarray, s: np.ndarray, depth: int, cols) -> np.ndarray:
    # Fully linear network: the kernel collapses to (L+1) * M M^T / d
    # with M = S^(L+1) X.
    m = x
    for _ in range(depth + 1):
        m = s @ m
    return (depth + 1) * _gram(m, cols) / x.shape[1]


def _ppnp_system(spec: ArchitectureSpec, n: int) -> np.ndarray:
    """I - (1 - alpha) S, whose inverse times alpha is PPNP's propagation."""
    a = np.eye(n) - (1.0 - spec.alpha) * spec.conv.S
    if np.linalg.cond(a) > 1e12:
        raise SingularPropagationError(
            "propagation matrix I - (1-alpha) S is singular; "
            "alpha=0 with a stochastic S has no inverse"
        )
    return a


def _propagation(spec: ArchitectureSpec, n: int):
    """(v -> P v, v -> P^T v) for the propagation P of ppnp or appnp.

    PPNP's P = alpha (I - (1-alpha) S)^-1 is applied by a solve, never
    inverted. APPNP's P = alpha sum_(k<K) ((1-alpha) S)^k + ((1-alpha) S)^K
    is applied by Horner, u <- alpha v + (1-alpha) S u, K times from u = v
    (S^T for P^T): 2K n^2 m for m columns v, K n^3 for P itself (v = I).
    """
    if spec.kind == "ppnp":
        a = _ppnp_system(spec, n)
        return (lambda v: spec.alpha * np.linalg.solve(a, v),
                lambda v: spec.alpha * np.linalg.solve(a.T, v))

    def horner(s):
        def apply(v):
            av, u = spec.alpha * v, v
            for _ in range(spec.power_k):
                u = av + (1.0 - spec.alpha) * (s @ u)
            return u
        return apply
    return horner(spec.conv.S), horner(spec.conv.S.T)


def _skip_pc_theta(x: np.ndarray, s: np.ndarray, depth: int, sact: str,
                   cols) -> np.ndarray:
    sig0 = x @ x.T  # random-projection features: second moment X X^T, no 1/d
    mean_skip = _mean_vec(sact, sig0)
    e_skip = _pair_moment(sact, sact, sig0)
    # First hidden layer sees sigma(H0) + sigma_s(H0) on the *same* variable.
    a = (_pair_moment("relu", "relu", sig0)
         + _pair_moment("relu", sact, sig0)
         + _pair_moment(sact, "relu", sig0)
         + e_skip)
    sig = s @ a @ s.T
    theta = sig.copy()
    for _ in range(depth - 1):
        mean_hidden = _mean_vec("relu", sig)
        cross = np.outer(mean_hidden, mean_skip)
        e, deriv = _moments("relu", sig)
        a = e + cross + cross.T + e_skip
        theta = s @ (theta * deriv + a) @ s.T
        sig = s @ a @ s.T
    e, deriv = _moments("relu", sig)
    return _sandwich(s, theta * deriv + e, cols)


def _skip_alpha_theta(x: np.ndarray, s: np.ndarray, depth: int, sact: str,
                      alpha: float, cols) -> np.ndarray:
    sig0 = x @ x.T
    e_skip = _pair_moment(sact, sact, sig0)
    cross = _pair_moment("linear", sact, sig0)  # E[u_r sigma_s(u_s)]
    a = ((1.0 - alpha) ** 2 * (s @ sig0 @ s.T)
         + alpha ** 2 * e_skip
         + alpha * (1.0 - alpha) * (s @ cross + cross @ s.T))
    sig = a
    theta = a.copy()
    for _ in range(depth - 1):
        a = (1.0 - alpha) ** 2 * (s @ sig @ s.T) + alpha ** 2 * e_skip
        theta = (1.0 - alpha) ** 2 * (s @ theta @ s.T) + a
        sig = a
    return _sandwich(s, theta + sig, cols)


def ntk_analytic(spec: ArchitectureSpec, graph: Graph,
                 columns=None) -> KernelMatrix | KernelColumns:
    """Infinite-width tangent kernel of the architecture on this graph.

    With `columns` (node ids), only the columns K[:, columns] are built and
    returned as KernelColumns: each kind restricts its last step to those
    columns, so neither an n x n kernel nor its eigendecomposition is
    formed.
    """
    x = graph.features
    s = spec.conv.S if spec.conv is not None else None
    if s is not None and s.shape != (graph.n, graph.n):
        raise ValueError("convolution matrix does not match the graph size")
    cols = None if columns is None else _node_index(columns, graph.n)
    if spec.kind == "linear":
        theta = _gram(x, cols)
    elif spec.kind in ("mlp", "gcn"):
        theta = _stack_theta(x, s, spec.depth, spec.activation, cols)
    elif spec.kind == "sgc":
        theta = _sgc_theta(x, s, spec.depth, cols)
    elif spec.kind in ("ppnp", "appnp"):
        # P base P^T, or its columns P base P[cols]^T = P (base (P^T I[:, cols]))
        base = _stack_theta(x, None, spec.depth, spec.activation)
        apply, apply_t = _propagation(spec, graph.n)
        if cols is None:
            p = apply(np.eye(graph.n))
            theta = p @ base @ p.T
        else:
            onehot = np.zeros((graph.n, cols.size), order="F")  # I[:, cols]'s layout
            onehot[cols, np.arange(cols.size)] = 1.0
            theta = apply(base @ apply_t(onehot))
    elif spec.kind == "skip_pc":
        theta = _skip_pc_theta(x, s, spec.depth, spec.skip_activation, cols)
    else:
        theta = _skip_alpha_theta(x, s, spec.depth, spec.skip_activation, spec.alpha, cols)
    if cols is not None:
        return KernelColumns(theta, cols, spec.describe())
    # the recursions are symmetric in exact arithmetic; remove float residue
    return KernelMatrix((theta + theta.T) / 2.0, spec.describe())


# ---------------------------------------------------------------------------
# Empirical kernels (Monte Carlo over finite-width initializations)
# ---------------------------------------------------------------------------

def _backprop(inputs, weights, derivs, s, out_seed=None) -> np.ndarray:
    """sum_l <grad_i W_l, grad_j W_l> of one draw, by reverse mode.

    Layer l computes P_l = A_l W_l / sqrt(fan), with A_l = `inputs[l]` and
    fan its column count. Pulling the output gradient d back through layer
    l > 0 gives S^T (d W_l^T) / sqrt(fan) (`s=None`: no propagation), times
    `derivs[l - 1]`, the local derivative of A_l in P_(l-1): an array, or a
    scalar. Each layer's term contracts through G = A A^T / fan without
    materializing the per-parameter Jacobian. Nothing is pulled back
    through layer 0, so `weights[0]` is never read. `out_seed` seeds the
    output gradient in place of the identity.

    The gradient starts factored, d[i, r, :] = c[i, r] b[r], with c the
    output seed and b one row of ones. It stays factored through every
    layer while there is no S or b has one row (a scalar derivative keeps
    one row, and then the mix is c <- c S); W_l^T then meets the rows of b,
    not the n^2 rows of d, and the term is c (G o b b^T) c^T. The first S
    mix that meets n rows expands d to n x n x fan. `weights[l]` is W_l,
    or a function b -> b W_l^T for a layer never drawn whole, which is
    pulled back while d is still factored (see `_sample`).
    """
    n = inputs[0].shape[0]
    c = np.eye(n) if out_seed is None else out_seed
    b, d = np.ones((1, 1)), None
    q = np.zeros((n, n))
    for l in range(len(inputs) - 1, -1, -1):
        a = inputs[l]
        fan = a.shape[1]
        if d is None:
            q += c @ (a @ a.T / fan * (b @ b.T)) @ c.T
        else:
            q += d.reshape(n, -1) @ np.matmul(a @ a.T / fan, d).reshape(n, -1).T
        if l == 0:
            break
        w = weights[l]
        if d is None:
            b = (w(b) if callable(w) else b @ w.T) / sqrt(fan)
            if s is not None and b.shape[0] > 1:  # the mix ends the factoring
                d = c[:, :, None] * b[None]
        else:
            d = d @ w.T / sqrt(fan)
        if d is None:
            c = c if s is None else c @ s
            b = b * derivs[l - 1]
        else:
            d = np.matmul(s.T, d) * derivs[l - 1]
    return q


def _row_space_layer(a: np.ndarray, z: np.ndarray):
    """(U S) Z / sqrt(width) and V^T for the thin SVD a = U S V^T: a draw of
    a W / sqrt(width), W width x width standard normal, from Z = V^T W,
    min(n, width) x width standard normal (see `_sample`)."""
    u, sv, vt = np.linalg.svd(a, full_matrices=False)
    return (u * sv) @ z / sqrt(z.shape[1]), vt


def _pull_top(rng, z: np.ndarray, vt: np.ndarray):
    """b -> b W^T for the W whose only forward draw was Z = V^T W.

    W = V Z + (I - V V^T) W, and given Z the second part is standard
    normal on the complement of V. b W^T reads W only through W Q_b, for
    the thin QR b^T = Q_b R_b, so b W^T = (b Z^T) V^T + R_b^T Y^T (I - V V^T)
    with Y a fresh standard normal, width rows by Q_b's columns: exactly
    the law of b W^T given everything drawn before."""
    def pull(b):
        qb, rb = np.linalg.qr(b.T)
        t = rb.T @ rng.standard_normal((vt.shape[1], qb.shape[1])).T
        return t + (b @ z.T - t @ vt.T) @ vt
    return pull


def _sample(rng, start, depth, width, s, out_seed=None):
    """One draw of a network; returns its NTK contribution.

    `start(rng)` draws what comes before the first hidden layer and returns
    that layer's input A_0 and the kind's step: (l, P_l) -> (the derivative
    `_backprop` records for layer l, A_(l+1)), with P_l = A_l W_l / sqrt(fan)
    and A_depth the readout's input. `s` and `out_seed` go to `_backprop`.
    The draw policy is every kind's (see the module docstring). The draw
    order is what `start` draws, the hidden layers bottom-up, the readout,
    then the Y of `_pull_top`.
    """
    a, step = start(rng)
    n = a.shape[0]
    fans = [a.shape[1]] + [width] * depth  # the hidden layers', then the readout's
    # the layers drawn as Z: layer 0 if its fan is the width, the top one at depth >= 2
    as_z = [(l == 0 and fans[0] == width) or (l == depth - 1 > 0) for l in range(depth)]
    draws = [rng.standard_normal((min(n, width) if z else fan, width))
             for fan, z in zip(fans, as_z)]
    readout = rng.standard_normal((fans[-1], 1))
    inputs, weights, derivs = [], [], []
    for l, (fan, z, w) in enumerate(zip(fans, as_z, draws)):
        inputs.append(a)
        if z:
            p, vt = _row_space_layer(a, w)
            w = _pull_top(rng, w, vt)  # `_backprop` never calls it for layer 0
        else:
            p = a @ w / sqrt(fan)
        weights.append(w)
        deriv, a = step(l, p)
        derivs.append(deriv)
    inputs.append(a)
    return _backprop(inputs, weights + [readout], derivs, s, out_seed)


def _stack(x, s, act):
    """A (graph-)convolutional stack: A_0 = S X, A_(l+1) = S act(P_l).
    `s=None` drops the propagation."""
    mix = (lambda a: a) if s is None else (lambda a: s @ a)
    a0 = mix(x)

    def step(l, p):
        return _activate_deriv(act, p), mix(_activate(act, p))
    return lambda rng: (a0, step)


def _skip(x, s, depth, width, sact, alpha=None):
    """A skip network on H = X W_x, a fixed projection drawn first, with the
    skip term sact(H). skip_pc (`alpha=None`): A_(l+1) = S (relu(P_l) +
    sact(H)). skip_alpha: A_(l+1) = (1 - alpha) S P_l + alpha sact(H), with
    linear layers, so the recorded derivative is the weight on S P_l. A_0
    is the same map of H, and the readout's input leaves the skip term out."""
    def start(rng):
        h = x @ rng.standard_normal((x.shape[1], width))
        skip = _activate(sact, h)

        def mix(p, last):
            if alpha is None:
                carried = _activate("relu", p)
                return s @ (carried if last else carried + skip)
            return s @ p if last else (1.0 - alpha) * (s @ p) + alpha * skip

        def step(l, p):
            last = l == depth - 1
            if alpha is None:
                return _activate_deriv("relu", p), mix(p, last)
            return (1.0 if last else 1.0 - alpha), mix(p, last)
        return mix(h, False), step
    return start


def check_width(n: int, width: int, width_cap: int = DEFAULT_WIDTH_CAP) -> None:
    """Raise ResourceError if an n-node empirical estimate at `width` is over the cap."""
    if n * width > width_cap:
        raise ResourceError(
            f"n*width = {n * width} exceeds the cap {width_cap}; "
            "raise width_cap explicitly if you have the memory"
        )


def ntk_empirical(spec: ArchitectureSpec, graph: Graph, width: int, samples: int,
                  seed: int = 0, width_cap: int = DEFAULT_WIDTH_CAP) -> KernelMatrix:
    """Monte-Carlo tangent kernel of a width-`width` instantiation.

    Averages <grad_theta f_i, grad_theta f_j> over `samples` fresh
    initializations. Gradients come from one hand-written reverse-mode
    pass (`_backprop`); the Jacobian is contracted layer by layer, never
    stored whole.
    """
    if spec.kind == "linear":
        raise ValueError("the linear kernel has no width; use ntk_analytic")
    if width < 8:
        raise ValueError("width must be at least 8")
    if samples < 1:
        raise ValueError("samples must be at least 1")
    check_width(graph.n, width, width_cap)
    rng = make_rng(seed)
    x, depth = graph.features, spec.depth
    # PPNP and APPNP propagate through the output seed, not between layers
    s = None if spec.conv is None or spec.kind in ("ppnp", "appnp") else spec.conv.S
    out_seed = None
    if spec.kind in ("ppnp", "appnp"):
        out_seed = _propagation(spec, graph.n)[0](np.eye(graph.n))
    if spec.kind in ("skip_pc", "skip_alpha"):
        start = _skip(x, s, depth, width, spec.skip_activation,
                      spec.alpha if spec.kind == "skip_alpha" else None)
    else:
        start = _stack(x, s, "linear" if spec.kind == "sgc" else spec.activation)
    total = np.zeros((graph.n, graph.n))
    for _ in range(samples):
        total += _sample(rng, start, depth, width, s, out_seed)
    return KernelMatrix(total / samples, f"empirical/{spec.describe()}/w={width}/s={samples}")


# ---------------------------------------------------------------------------
# Kernel file IO
# ---------------------------------------------------------------------------

def save_kernel(kernel: KernelMatrix, path) -> None:
    """Binary container: 8-byte magic, little-endian uint64 n, f64 row-major data."""
    with open(path, "wb") as fh:
        fh.write(_KERNEL_MAGIC)
        fh.write(struct.pack("<Q", kernel.n))
        fh.write(np.ascontiguousarray(kernel.Q, dtype="<f8").tobytes())


def load_kernel(path) -> KernelMatrix:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != _KERNEL_MAGIC:
            raise ValueError(f"{path}: not a kernel file (bad magic {magic!r})")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated header ({len(header)} of 8 size bytes)")
        (n,) = struct.unpack("<Q", header)
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != n * n:
        raise ValueError(f"{path}: expected {n * n} values, found {data.size}")
    return KernelMatrix(data.reshape(n, n).astype(np.float64), "imported")


def kernel_to_csv(kernel: KernelMatrix, path) -> None:
    np.savetxt(path, kernel.Q, delimiter=",")


def kernel_from_csv(path) -> KernelMatrix:
    return KernelMatrix(np.loadtxt(path, delimiter=",", ndmin=2), "imported")
