"""Graph data model, convolution matrices, synthetic generators and file IO.

Graphs are dense, undirected and unweighted: an n x n symmetric 0/1
adjacency with zero diagonal, an n x d feature matrix, 1-based class
labels in {1, ..., K} and an ordered set of labeled node indices. All
arrays are frozen after construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from typing import Sequence

import numpy as np

from .errors import GraphFormatError

#: Intra/inter-class edge probabilities from a maximum-likelihood fit to a
#: citation graph; the customary defaults for the contextual SBM below.
CSBM_DEFAULT_P = 0.0317
CSBM_DEFAULT_Q = 0.0074


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; identical streams on every platform."""
    return np.random.Generator(np.random.Philox(key=seed))


def feature_dim(n: int) -> int:
    """Feature dimension rule for the synthetic samplers: floor(n / ln^2 n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    return max(1, int(n / math.log(n) ** 2))


@dataclass(frozen=True)
class Graph:
    """An attributed graph plus the labeling that defines a certification instance."""

    features: np.ndarray      # n x d, float64
    adjacency: np.ndarray     # n x n symmetric {0,1}, zero diagonal
    labels: np.ndarray        # length n, values in {1, ..., num_classes}
    labeled: np.ndarray       # ordered distinct indices of the m labeled nodes
    num_classes: int
    seed: int | None = None

    def __post_init__(self):
        features = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        adjacency = np.ascontiguousarray(np.asarray(self.adjacency, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        labeled = np.asarray(self.labeled, dtype=np.int64)
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "adjacency", adjacency)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "labeled", labeled)
        n = features.shape[0]
        if features.ndim != 2:
            raise GraphFormatError("features must be a 2-d matrix")
        if not np.all(np.isfinite(features)):
            raise GraphFormatError("features must be finite")
        if adjacency.shape != (n, n):
            raise GraphFormatError(
                f"adjacency shape {adjacency.shape} does not match {n} nodes"
            )
        if labels.shape != (n,):
            raise GraphFormatError(f"labels length {labels.shape} does not match n={n}")
        if not np.array_equal(adjacency, adjacency.T):
            raise GraphFormatError("adjacency must be symmetric")
        if np.any(np.diag(adjacency) != 0):
            raise GraphFormatError("adjacency must have a zero diagonal")
        if not np.all((adjacency == 0) | (adjacency == 1)):
            raise GraphFormatError("adjacency entries must be 0 or 1")
        if self.num_classes < 1:
            raise GraphFormatError("num_classes must be >= 1")
        if np.any(labels < 1) or np.any(labels > self.num_classes):
            raise GraphFormatError(
                f"labels must lie in [1, {self.num_classes}]"
            )
        if not 1 <= labeled.size <= n:
            raise GraphFormatError("need 1 <= m <= n labeled nodes")
        # sort and diff, not np.unique: that one call would load all of numpy.ma
        if np.any(np.diff(np.sort(labeled)) == 0):
            raise GraphFormatError("labeled indices must be distinct")
        if np.any(labeled < 0) or np.any(labeled >= n):
            raise GraphFormatError("labeled index out of range")
        for a in (features, adjacency, labels, labeled):
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]

    @property
    def m(self) -> int:
        return self.labeled.size

    @property
    def unlabeled(self) -> np.ndarray:
        mask = np.ones(self.n, dtype=bool)
        mask[self.labeled] = False
        return np.flatnonzero(mask)

    def edge_list(self) -> list[tuple[int, int]]:
        """Edges as (u, v) with u < v, sorted."""
        rows, cols = np.nonzero(np.triu(self.adjacency, k=1))
        return [(int(u), int(v)) for u, v in zip(rows, cols)]


@dataclass(frozen=True)
class ConvolutionMatrix:
    """A nonnegative propagation matrix derived from the adjacency."""

    S: np.ndarray
    mode: str           # "row", "sym" or "identity"
    beta: float = 1.0

    def __post_init__(self):
        S = np.ascontiguousarray(np.asarray(self.S, dtype=np.float64))
        object.__setattr__(self, "S", S)
        if self.mode not in ("row", "sym", "identity"):
            raise ValueError(f"unknown convolution mode {self.mode!r}")
        if not np.all(np.isfinite(S)):
            raise ValueError("convolution matrix must be finite")
        if np.any(S < 0):
            raise ValueError("convolution matrix must be nonnegative")
        # a sym S is exactly symmetric when beta is a power of two (1 included),
        # and this exact test costs far less than allclose
        if (self.mode == "sym" and not np.array_equal(S, S.T)
                and not np.allclose(S, S.T, atol=1e-12)):
            raise ValueError("sym-normalized matrix must be symmetric")
        S.setflags(write=False)

    @classmethod
    def identity(cls, n: int) -> "ConvolutionMatrix":
        return cls(np.eye(n), "identity")


def normalize_features(graph: Graph) -> Graph:
    """Copy of the graph with unit-norm feature rows (zero rows untouched).

    Off by default everywhere; kernels consume features as-is unless this
    is requested explicitly.
    """
    norms = np.linalg.norm(graph.features, axis=1, keepdims=True)
    scaled = graph.features / np.where(norms > 0.0, norms, 1.0)
    return Graph(scaled, graph.adjacency, graph.labels, graph.labeled,
                 graph.num_classes, graph.seed)


def normalize_adjacency(graph: Graph, mode: str, beta: float = 1.0) -> ConvolutionMatrix:
    """Self-loop augmented degree normalization of the (beta-weighted) adjacency.

    A_hat = beta * A + I, D_hat = diag(A_hat row sums), and
    S = D_hat^-1 A_hat (row) or D_hat^-1/2 A_hat D_hat^-1/2 (sym).
    The self loop keeps every degree positive, so no isolated-node case exists.
    """
    if not 0.0 < beta < math.inf:  # NaN fails too
        raise ValueError(f"beta must be a finite number > 0, got {beta}")
    if mode not in ("row", "sym"):
        raise ValueError(f"unknown normalization mode {mode!r}")
    s = beta * graph.adjacency  # A_hat, then S, in place
    s.flat[::graph.n + 1] += 1.0
    deg = s.sum(axis=1)
    if mode == "row":
        s /= deg[:, None]
    else:
        inv_sqrt = 1.0 / np.sqrt(deg)
        s *= inv_sqrt[:, None]
        s *= inv_sqrt[None, :]
    return ConvolutionMatrix(s, mode, beta)


@dataclass(frozen=True)
class CsbmParams:
    """Contextual stochastic block model parameters.

    Class means sit at +/- mu with mu = signal_scale * sigma / (2 sqrt(d))
    elementwise and d = floor(n / ln^2 n), so features alone are only a
    weak signal and the graph matters.
    """

    n: int
    p: float = CSBM_DEFAULT_P
    q: float = CSBM_DEFAULT_Q
    sigma: float = 1.0
    signal_scale: float = 1.5
    labeled_per_class: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not (0.0 <= self.p <= 1.0 and 0.0 <= self.q <= 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.labeled_per_class < 1:
            raise ValueError("labeled_per_class must be >= 1")


@dataclass(frozen=True)
class CbaParams:
    """Contextual preferential-attachment model parameters.

    Each new node draws `deg` neighbors from a multinomial weighted by
    (1 + degree) times the class-affinity entry; repeated draws of the
    same neighbor collapse to one edge.
    """

    n: int
    deg: int = 2
    affinity: tuple[tuple[float, float], tuple[float, float]] = ((2.0, 1.0), (1.0, 2.0))
    sigma: float = 1.0
    signal_scale: float = 1.5
    labeled_per_class: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got n={self.n}")
        if not 1 <= self.deg < self.n:
            raise ValueError("need 1 <= deg < n")
        w = np.asarray(self.affinity, dtype=np.float64)
        if w.shape != (2, 2) or np.any(w <= 0):
            raise ValueError("affinity must be a 2x2 matrix of positive weights")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.labeled_per_class < 1:
            raise ValueError("labeled_per_class must be >= 1")


def _binary_features(rng: np.random.Generator, labels: np.ndarray, d: int,
                     sigma: float, signal_scale: float) -> np.ndarray:
    # Mean +mu for class 2, -mu for class 1; mu = signal_scale*sigma/(2 sqrt(d)).
    mu = signal_scale * sigma / (2.0 * math.sqrt(d))
    signs = np.where(labels == 2, 1.0, -1.0)
    return signs[:, None] * mu + rng.standard_normal((labels.size, d)) * sigma


def _stratified_labeled(rng: np.random.Generator, labels: np.ndarray,
                        per_class: int, num_classes: int) -> np.ndarray:
    """First `per_class` nodes of each class, in seeded-shuffle order."""
    order = rng.permutation(labels.size)
    picks = []
    for c in range(1, num_classes + 1):
        of_class = [int(i) for i in order if labels[i] == c]
        if len(of_class) < per_class:
            raise ValueError(
                f"class {c} has only {len(of_class)} nodes, "
                f"cannot label {per_class} per class"
            )
        picks.extend(of_class[:per_class])
    return np.asarray(picks, dtype=np.int64)


def sample_csbm(params: CsbmParams) -> Graph:
    """Draw an attributed two-class graph from the contextual SBM."""
    rng = make_rng(params.seed)
    n = params.n
    d = feature_dim(n)
    labels = np.where(rng.random(n) < 0.5, 1, 2).astype(np.int64)
    features = _binary_features(rng, labels, d, params.sigma, params.signal_scale)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    probs = np.where(same, params.p, params.q)
    draws = rng.random(iu.size) < probs
    adjacency = np.zeros((n, n))
    adjacency[iu[draws], ju[draws]] = 1.0
    adjacency += adjacency.T
    labeled = _stratified_labeled(rng, labels, params.labeled_per_class, 2)
    return Graph(features, adjacency, labels, labeled, num_classes=2, seed=params.seed)


def sample_cba(params: CbaParams) -> Graph:
    """Grow an attributed two-class graph by affinity-weighted preferential attachment.

    Node 0 starts isolated, node 1 attaches to node 0, and from node 2 on
    each new node samples `deg` neighbors j < i with probability
    proportional to (1 + deg_j) * w[class_i, class_j].
    """
    rng = make_rng(params.seed)
    n = params.n
    d = feature_dim(n)
    w = np.asarray(params.affinity, dtype=np.float64)
    labels = np.where(rng.random(n) < 0.5, 1, 2).astype(np.int64)
    features = _binary_features(rng, labels, d, params.sigma, params.signal_scale)
    adjacency = np.zeros((n, n))
    pull = np.ones(n)  # 1 + degree

    def add_edge(i: int, j: int) -> None:
        if adjacency[i, j] == 0.0:
            adjacency[i, j] = adjacency[j, i] = 1.0
            pull[i] += 1.0
            pull[j] += 1.0

    add_edge(1, 0)
    affinity = w[:, labels - 1]  # row c - 1: the affinity of class c to each node
    # node i's deg uniforms are row i - 2: one call draws what a call per node drew
    uniforms = rng.random((n - 2, params.deg))
    for i in range(2, n):
        weights = pull[:i] * affinity[labels[i] - 1, :i]
        # what rng.choice(i, size=deg, replace=True, p=weights / weights.sum())
        # computes, the same floats and the same draws from rng
        cdf = np.cumsum(weights / weights.sum())
        cdf /= cdf[-1]
        for j in cdf.searchsorted(uniforms[i - 2], side="right"):
            add_edge(i, int(j))
    labeled = _stratified_labeled(rng, labels, params.labeled_per_class, 2)
    return Graph(features, adjacency, labels, labeled, num_classes=2, seed=params.seed)


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def save_graph(graph: Graph, path) -> None:
    """Write the one-document JSON container (edges listed once with u < v)."""
    doc = {
        "n": graph.n,
        "d": graph.d,
        "num_classes": graph.num_classes,
        "features": [[float(x) for x in row] for row in graph.features],
        "edges": [[u, v] for u, v in graph.edge_list()],
        "labels": [int(x) for x in graph.labels],
        "labeled": [int(x) for x in graph.labeled],
    }
    if graph.seed is not None:
        doc["seed"] = int(graph.seed)
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_graph(path) -> Graph:
    """Read the JSON container written by :func:`save_graph`."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    return graph_from_document(doc, origin=str(path))


def graph_from_document(doc: dict, origin: str = "<document>") -> Graph:
    for key in ("n", "d", "num_classes", "features", "edges", "labels", "labeled"):
        if key not in doc:
            raise GraphFormatError(f"{origin}: missing field {key!r}")
    n, d = int(doc["n"]), int(doc["d"])
    features = np.asarray(doc["features"], dtype=np.float64)
    if features.shape != (n, d):
        raise GraphFormatError(
            f"{origin}: features shape {features.shape} does not match n={n}, d={d}"
        )
    adjacency = np.zeros((n, n))
    for entry in doc["edges"]:
        if len(entry) != 2:
            raise GraphFormatError(f"{origin}: malformed edge entry {entry!r}")
        u, v = int(entry[0]), int(entry[1])
        if not (0 <= u < n and 0 <= v < n):
            raise GraphFormatError(f"{origin}: edge ({u},{v}) out of range")
        if u >= v:
            raise GraphFormatError(
                f"{origin}: edge ({u},{v}) violates the u < v convention"
            )
        if adjacency[u, v] == 1.0:
            raise GraphFormatError(f"{origin}: duplicate edge ({u},{v})")
        adjacency[u, v] = adjacency[v, u] = 1.0
    try:
        return Graph(
            features=features,
            adjacency=adjacency,
            labels=np.asarray(doc["labels"], dtype=np.int64),
            labeled=np.asarray(doc["labeled"], dtype=np.int64),
            num_classes=int(doc["num_classes"]),
            seed=int(doc["seed"]) if "seed" in doc else None,
        )
    except GraphFormatError as exc:
        raise GraphFormatError(f"{origin}: {exc}") from exc


def load_graph_csv(edges_path, features_path, labels_path,
                   labeled: Sequence[int] | None = None,
                   num_classes: int | None = None) -> Graph:
    """Import an external dataset from edges.csv / features.csv / labels.csv.

    edges.csv holds one "u,v" pair per line, features.csv one node per row,
    labels.csv one integer class per line. Without an explicit `labeled`
    set every node counts as labeled.
    """
    features = np.atleast_2d(np.loadtxt(features_path, delimiter=",", dtype=np.float64, ndmin=2))
    labels = np.loadtxt(labels_path, delimiter=",", dtype=np.int64).reshape(-1)
    n = features.shape[0]
    adjacency = np.zeros((n, n))
    with open(edges_path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise GraphFormatError(f"{edges_path}:{lineno}: expected 'u,v', got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(f"{edges_path}:{lineno}: non-integer edge {line!r}") from exc
            if not (0 <= u < n and 0 <= v < n) or u == v:
                raise GraphFormatError(f"{edges_path}:{lineno}: invalid edge ({u},{v})")
            adjacency[u, v] = adjacency[v, u] = 1.0
    if labeled is None:
        labeled = np.arange(n)
    if num_classes is None:
        num_classes = int(labels.max())
    return Graph(features, adjacency, labels, np.asarray(labeled), num_classes=num_classes)


def karate_club() -> Graph:
    """The bundled 34-node, 78-edge karate-club fixture.

    Features are one-hot node indicators; labels are the two factions;
    ten nodes (five per faction) are marked labeled.
    """
    with resources.files("certlab.data").joinpath("karate.json").open() as fh:
        return graph_from_document(json.load(fh), origin="karate.json")
