import json
import math

import numpy as np
import pytest
from scipy.stats import binom

from certlab import (
    CbaParams,
    ConvolutionMatrix,
    CsbmParams,
    Graph,
    GraphFormatError,
    karate_club,
    load_graph,
    load_graph_csv,
    normalize_adjacency,
    sample_cba,
    sample_csbm,
    save_graph,
)
import certlab.graph as graph_module
from certlab.graph import feature_dim


def graph_of(adjacency, labels=None):
    n = len(adjacency)
    return Graph(
        features=np.eye(n),
        adjacency=np.asarray(adjacency, dtype=float),
        labels=labels if labels is not None else np.ones(n, dtype=int),
        labeled=np.arange(n),
        num_classes=2 if labels is not None else 1,
    )


class TestNormalizeAdjacency:
    def test_empty_graph_row_is_identity(self):
        g = graph_of(np.zeros((2, 2)))
        conv = normalize_adjacency(g, "row")
        np.testing.assert_allclose(conv.S, np.eye(2))

    def test_single_edge_row(self):
        g = graph_of([[0, 1], [1, 0]])
        conv = normalize_adjacency(g, "row")
        np.testing.assert_allclose(conv.S, np.full((2, 2), 0.5))

    def test_single_edge_sym(self):
        # A_hat = [[1,1],[1,1]], D_hat = 2I, so D^-1/2 A_hat D^-1/2 = A_hat / 2
        g = graph_of([[0, 1], [1, 0]])
        conv = normalize_adjacency(g, "sym")
        np.testing.assert_allclose(conv.S, np.full((2, 2), 0.5))
        np.testing.assert_allclose(conv.S, conv.S.T)

    def test_row_sums_are_one(self):
        for seed in range(5):
            g = sample_csbm(CsbmParams(n=25, p=0.3, q=0.1,
                                       labeled_per_class=2, seed=seed))
            for beta in (0.25, 1.0, 3.0):
                conv = normalize_adjacency(g, "row", beta=beta)
                np.testing.assert_allclose(conv.S.sum(axis=1), 1.0, atol=1e-12)
                assert np.all(conv.S >= 0)

    def test_beta_weighting(self):
        g = graph_of([[0, 1], [1, 0]])
        conv = normalize_adjacency(g, "row", beta=3.0)
        np.testing.assert_allclose(conv.S, [[0.25, 0.75], [0.75, 0.25]])

    def test_invalid_args(self):
        g = graph_of(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            normalize_adjacency(g, "row", beta=0.0)
        with pytest.raises(ValueError):
            normalize_adjacency(g, "spectral")

    @pytest.mark.parametrize("beta", [math.nan, math.inf])
    def test_non_finite_beta_rejected(self, beta):
        # both used to return an S with non-finite entries, inf with a RuntimeWarning
        g = graph_of([[0, 1], [1, 0]])
        with pytest.raises(ValueError, match="finite number > 0"):
            normalize_adjacency(g, "row", beta=beta)

    def test_sym_symmetric_within_rounding_accepted(self):
        # beta = 3 rounds (inv_i * 3) * inv_j and (inv_j * 3) * inv_i apart,
        # so S passes the allclose check, not the exact one
        g = sample_csbm(CsbmParams(n=40, p=0.3, q=0.1, labeled_per_class=2, seed=0))
        conv = normalize_adjacency(g, "sym", beta=3.0)
        assert not np.array_equal(conv.S, conv.S.T)
        np.testing.assert_allclose(conv.S, conv.S.T, rtol=0, atol=1e-15)
        exact = normalize_adjacency(g, "sym").S  # beta = 1: the array_equal path
        assert np.array_equal(exact, exact.T)

    def test_asymmetric_sym_rejected(self):
        s = np.full((3, 3), 0.25)
        s[0, 1] += 1e-3
        with pytest.raises(ValueError, match="symmetric"):
            ConvolutionMatrix(s, "sym")
        ConvolutionMatrix(s, "row")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_convolution_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ConvolutionMatrix(np.array([[0.5, bad], [0.5, 0.5]]), "row")


class TestGraphValidation:
    def test_asymmetric_adjacency_rejected(self):
        with pytest.raises(GraphFormatError, match="symmetric"):
            Graph(np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]),
                  np.array([1, 1]), np.array([0]), num_classes=1)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphFormatError, match="diagonal"):
            Graph(np.eye(2), np.eye(2), np.array([1, 1]), np.array([0]),
                  num_classes=1)

    def test_duplicate_labeled_rejected(self):
        with pytest.raises(GraphFormatError, match="distinct"):
            Graph(np.eye(2), np.zeros((2, 2)), np.array([1, 1]),
                  np.array([0, 0]), num_classes=1)

    @pytest.mark.parametrize("labeled", [[2, 0, 3, 0], [3, 1, 2, 1], [3, 3]])
    def test_duplicate_labeled_apart_rejected(self, labeled):
        with pytest.raises(GraphFormatError, match="distinct"):
            Graph(np.eye(4), np.zeros((4, 4)), np.ones(4, dtype=int),
                  np.array(labeled), num_classes=1)
        Graph(np.eye(4), np.zeros((4, 4)), np.ones(4, dtype=int),
              np.array(sorted(set(labeled))), num_classes=1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, bad):
        features = np.eye(2)
        features[1, 0] = bad
        with pytest.raises(GraphFormatError, match="finite"):
            Graph(features, np.zeros((2, 2)), np.array([1, 1]), np.array([0]), num_classes=1)

    def test_arrays_frozen(self):
        g = graph_of(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 1.0


class TestCsbm:
    def test_feature_dim_rule(self):
        assert feature_dim(60) == math.floor(60 / math.log(60) ** 2)
        assert feature_dim(200) == 7
        assert feature_dim(12) == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CsbmParams(n=1)
        with pytest.raises(ValueError):
            CsbmParams(n=10, p=1.5)
        with pytest.raises(ValueError):
            CsbmParams(n=10, sigma=0.0)

    def test_edgeless_when_p_q_zero(self):
        g = sample_csbm(CsbmParams(n=20, p=0.0, q=0.0, labeled_per_class=2, seed=0))
        assert g.adjacency.sum() == 0

    def test_same_seed_identical(self):
        params = CsbmParams(n=40, labeled_per_class=4, seed=11)
        a, b = sample_csbm(params), sample_csbm(params)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labeled, b.labeled)
        c = sample_csbm(CsbmParams(n=40, labeled_per_class=4, seed=12))
        assert not np.array_equal(a.features, c.features)

    def test_structure_invariants(self):
        g = sample_csbm(CsbmParams(n=50, p=0.2, q=0.05, labeled_per_class=5, seed=2))
        assert np.array_equal(g.adjacency, g.adjacency.T)
        assert np.all(np.diag(g.adjacency) == 0)
        assert set(np.unique(g.adjacency)) <= {0.0, 1.0}
        assert set(np.unique(g.labels)) == {1, 2}
        assert g.m == 10
        # stratified labeling: five per class
        assert np.sum(g.labels[g.labeled] == 1) == 5
        assert np.sum(g.labels[g.labeled] == 2) == 5

    def test_feature_means_split_by_class(self):
        params = CsbmParams(n=400, labeled_per_class=10, seed=5)
        g = sample_csbm(params)
        mu = params.signal_scale * params.sigma / (2 * math.sqrt(g.d))
        m2 = g.features[g.labels == 2].mean()
        m1 = g.features[g.labels == 1].mean()
        assert abs(m2 - mu) < 0.05
        assert abs(m1 + mu) < 0.05

    def test_mean_edge_count_matches_expectation(self):
        # E[#edges] = C(n,2) * (p + q) / 2 for balanced Bernoulli labels.
        params = [CsbmParams(n=200, labeled_per_class=10, seed=s) for s in range(20)]
        counts = [sample_csbm(p).adjacency.sum() / 2 for p in params]
        pairs = 200 * 199 / 2
        expected = pairs * (CsbmParams.p + CsbmParams.q) / 2
        per_graph_var = pairs * 0.5 * (
            CsbmParams.p * (1 - CsbmParams.p) + CsbmParams.q * (1 - CsbmParams.q))
        sd_mean = math.sqrt(per_graph_var / len(counts))
        assert abs(np.mean(counts) - expected) < 3 * sd_mean + 3.0

    def test_edge_frequencies_in_binomial_interval(self):
        intra_n = intra_k = inter_n = inter_k = 0
        for seed in range(20):
            g = sample_csbm(CsbmParams(n=80, labeled_per_class=5, seed=seed))
            same = np.equal.outer(g.labels, g.labels)
            iu = np.triu_indices(g.n, k=1)
            intra = same[iu]
            edges = g.adjacency[iu] == 1
            intra_n += int(intra.sum())
            intra_k += int((edges & intra).sum())
            inter_n += int((~intra).sum())
            inter_k += int((edges & ~intra).sum())
        for n, k, p in ((intra_n, intra_k, CsbmParams.p), (inter_n, inter_k, CsbmParams.q)):
            lo, hi = binom.ppf(0.005, n, p), binom.ppf(0.995, n, p)
            assert lo <= k <= hi


class TestCba:
    def test_two_nodes_single_edge(self):
        # seed chosen so both classes appear and stratified labeling works
        g = sample_cba(CbaParams(n=2, deg=1, labeled_per_class=1, seed=1))
        assert g.edge_list() == [(0, 1)]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            CbaParams(n=5, deg=0)
        with pytest.raises(ValueError):
            CbaParams(n=5, deg=5)
        with pytest.raises(ValueError):
            CbaParams(n=5, affinity=((1.0, 0.0), (0.0, 1.0)))

    def test_same_seed_identical(self):
        params = CbaParams(n=50, deg=2, labeled_per_class=4, seed=7)
        a, b = sample_cba(params), sample_cba(params)
        assert np.array_equal(a.adjacency, b.adjacency)
        assert np.array_equal(a.features, b.features)

    def test_mean_edge_count(self):
        # deg draws per node collapse duplicates, so the count sits just
        # below 1 + deg * (n - 2) = 397.
        counts = [
            sample_cba(CbaParams(n=200, deg=2, labeled_per_class=10, seed=s)
                       ).adjacency.sum() / 2
            for s in range(10)
        ]
        assert 380 <= np.mean(counts) <= 397

    def test_uniform_affinity_is_heavier_tailed_than_csbm(self):
        # Preferential attachment concentrates degree; compare max degrees
        # at matched expected edge counts.
        cba_max, csbm_max = [], []
        for seed in range(20):
            g1 = sample_cba(CbaParams(n=120, deg=2,
                                      affinity=((1.0, 1.0), (1.0, 1.0)),
                                      labeled_per_class=5, seed=seed))
            p_match = g1.adjacency.sum() / (120 * 119)
            g2 = sample_csbm(CsbmParams(n=120, p=p_match, q=p_match,
                                        labeled_per_class=5, seed=seed))
            cba_max.append(g1.adjacency.sum(axis=1).max())
            csbm_max.append(g2.adjacency.sum(axis=1).max())
        assert np.mean(cba_max) > np.mean(csbm_max) + 2.0


def choice_cba(params):
    """(adjacency, features, labels, labeled) of `sample_cba`, drawing each
    node's neighbors with Generator.choice as the sampler used to."""
    rng = graph_module.make_rng(params.seed)
    n, w = params.n, np.asarray(params.affinity, dtype=np.float64)
    labels = np.where(rng.random(n) < 0.5, 1, 2).astype(np.int64)
    features = graph_module._binary_features(rng, labels, feature_dim(n), params.sigma,
                                             params.signal_scale)
    adjacency, degree = np.zeros((n, n)), np.zeros(n)

    def add_edge(i, j):
        if adjacency[i, j] == 0.0:
            adjacency[i, j] = adjacency[j, i] = 1.0
            degree[i] += 1
            degree[j] += 1

    add_edge(1, 0)
    for i in range(2, n):
        weights = (1.0 + degree[:i]) * w[labels[i] - 1, labels[:i] - 1]
        for j in rng.choice(i, size=params.deg, replace=True, p=weights / weights.sum()):
            add_edge(i, int(j))
    labeled = graph_module._stratified_labeled(rng, labels, params.labeled_per_class, 2)
    return adjacency, features, labels, labeled


class TestCbaDraws:
    @pytest.mark.parametrize("extra", [
        {},
        {"deg": 4, "affinity": ((1.0, 3.0), (0.5, 2.0))},
    ], ids=["defaults", "deg4-skewed"])
    def test_same_graph_as_generator_choice(self, extra):
        for seed in range(60):
            params = CbaParams(n=80, labeled_per_class=4, seed=seed, **extra)
            g = sample_cba(params)
            adjacency, features, labels, labeled = choice_cba(params)
            assert np.array_equal(g.adjacency, adjacency)
            assert np.array_equal(g.features, features)
            assert np.array_equal(g.labels, labels)
            assert np.array_equal(g.labeled, labeled)


class TestGraphIO:
    def test_round_trip(self, tmp_path):
        g = sample_csbm(CsbmParams(n=30, labeled_per_class=3, seed=9))
        path = tmp_path / "g.json"
        save_graph(g, path)
        back = load_graph(path)
        assert back.n == g.n and back.d == g.d
        np.testing.assert_array_equal(back.features, g.features)
        np.testing.assert_array_equal(back.adjacency, g.adjacency)
        np.testing.assert_array_equal(back.labels, g.labels)
        np.testing.assert_array_equal(back.labeled, g.labeled)
        assert back.seed == g.seed

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 2,\n  "d": ???\n}')
        with pytest.raises(GraphFormatError, match="line 2"):
            load_graph(path)

    def test_edge_direction_convention_enforced(self, tmp_path):
        doc = {"n": 2, "d": 1, "num_classes": 1, "features": [[0.0], [1.0]],
               "edges": [[1, 0]], "labels": [1, 1], "labeled": [0]}
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(GraphFormatError, match="u < v"):
            load_graph(path)

    def test_missing_field(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"n": 1}))
        with pytest.raises(GraphFormatError, match="missing field"):
            load_graph(path)

    def test_karate_fixture(self):
        g = karate_club()
        assert g.n == 34
        assert len(g.edge_list()) == 78
        assert g.num_classes == 2
        assert g.m == 10

    def test_csv_import(self, tmp_path):
        (tmp_path / "edges.csv").write_text("0,1\n1,2\n")
        (tmp_path / "features.csv").write_text("1.0,0.0\n0.0,1.0\n1.0,1.0\n")
        (tmp_path / "labels.csv").write_text("1\n2\n1\n")
        g = load_graph_csv(tmp_path / "edges.csv", tmp_path / "features.csv",
                           tmp_path / "labels.csv", labeled=[0, 1])
        assert g.n == 3 and g.d == 2 and g.m == 2
        assert g.edge_list() == [(0, 1), (1, 2)]

    def test_csv_bad_edge(self, tmp_path):
        (tmp_path / "edges.csv").write_text("0,0\n")
        (tmp_path / "features.csv").write_text("1.0\n1.0\n")
        (tmp_path / "labels.csv").write_text("1\n1\n")
        with pytest.raises(GraphFormatError, match="edges.csv:1"):
            load_graph_csv(tmp_path / "edges.csv", tmp_path / "features.csv",
                           tmp_path / "labels.csv")


def test_identity_convolution():
    conv = ConvolutionMatrix.identity(3)
    np.testing.assert_array_equal(conv.S, np.eye(3))
    assert conv.mode == "identity"


def test_normalize_features_unit_rows():
    from certlab import normalize_features
    g = sample_csbm(CsbmParams(n=20, labeled_per_class=2, seed=3))
    scaled = normalize_features(g)
    norms = np.linalg.norm(scaled.features, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    np.testing.assert_array_equal(scaled.adjacency, g.adjacency)
    # original untouched
    assert not np.allclose(np.linalg.norm(g.features, axis=1), 1.0)
