import numpy as np
import pytest

from certlab import (
    ArchitectureSpec,
    CsbmParams,
    Graph,
    KernelColumns,
    KernelMatrix,
    ResourceError,
    SingularPropagationError,
    kernel_from_csv,
    kernel_submatrix,
    kernel_to_csv,
    load_kernel,
    normalize_adjacency,
    ntk_analytic,
    ntk_empirical,
    sample_csbm,
    save_kernel,
)
import certlab.ntk
from certlab.ntk import _backprop, _row_space_layer, kappa0, kappa1


def all_specs(conv):
    return [
        ArchitectureSpec("mlp", 1),
        ArchitectureSpec("mlp", 2, activation="linear"),
        ArchitectureSpec("gcn", 1, conv=conv),
        ArchitectureSpec("gcn", 2, conv=conv),
        ArchitectureSpec("sgc", 2, conv=conv),
        ArchitectureSpec("ppnp", 1, conv=conv, alpha=0.2),
        ArchitectureSpec("appnp", 1, conv=conv, alpha=0.1, power_k=6),
        ArchitectureSpec("skip_pc", 1, conv=conv, skip_activation="relu"),
        ArchitectureSpec("skip_pc", 2, conv=conv, skip_activation="linear"),
        ArchitectureSpec("skip_alpha", 2, conv=conv, alpha=0.3),
        ArchitectureSpec("linear"),
    ]


def path_graph():
    return Graph(np.array([[1.0, 0.0], [0.5, 1.0]]),
                 np.array([[0.0, 1.0], [1.0, 0.0]]),
                 np.array([1, 2]), np.array([0, 1]), num_classes=2)


class Replay:
    """A generator stand-in that hands out the given arrays in order."""

    def __init__(self, arrays):
        self.arrays = list(arrays)

    def standard_normal(self, shape):
        out = self.arrays.pop(0)
        assert out.shape == tuple(shape)
        return out


def einsum_backprop(inputs, weights, derivs, s, out_seed=None):
    """Reference for `_backprop`: the gradient d[i, r, :] of output i with
    respect to row r of each layer's output, n x n x fan from the top down,
    pulled back and contracted by plain einsums."""
    n = inputs[0].shape[0]
    d = (np.eye(n) if out_seed is None else out_seed)[:, :, None]
    q = np.zeros((n, n))
    for l in range(len(inputs) - 1, -1, -1):
        fan = inputs[l].shape[1]
        q += np.einsum("irk,rs,jsk->ij", d, inputs[l] @ inputs[l].T / fan, d)
        if l:
            d = np.einsum("pr,ipk->irk", s, d @ weights[l].T / np.sqrt(fan)) * derivs[l - 1]
    return q


def explicit_ntk(inputs, pre, weights, seed, back):
    """sum_l <grad_i W_l, grad_j W_l> with every output's weight gradients
    formed explicitly: layer l computes pre[l] = inputs[l] weights[l] / sqrt(fan),
    and back(l, g, pre[l - 1]) maps d f_i / d inputs[l] to d f_i / d pre[l - 1]."""
    grads = []
    for i in range(seed.shape[0]):
        g, flat = seed[i][:, None], []  # d f_i / d P, layer by layer downwards
        for l in range(len(weights) - 1, -1, -1):
            fan = np.sqrt(weights[l].shape[0])
            flat.append((inputs[l].T @ g / fan).ravel())
            if l:
                g = back(l, g @ weights[l].T / fan, pre[l - 1])
        grads.append(np.concatenate(flat))
    jac = np.array(grads)
    return jac @ jac.T


def act_fn(p, act="relu"):
    """The library's activation: sqrt(2) max(p, 0) for relu."""
    return p if act == "linear" else np.sqrt(2.0) * np.maximum(p, 0.0)


def act_deriv(p, act="relu"):
    return np.ones_like(p) if act == "linear" else np.sqrt(2.0) * (p > 0.0)


def dense_stack_kernel(x, s, weights, act, seed):
    """Reference NTK of one draw of a stack with every weight matrix given.

    Also returns the hidden layers' inputs and the rows
    b_r = w_out / sqrt(width) * act'(P_top)[r] pulled back through the top
    one. Both repeat the library's arithmetic bit for bit: with d = 1 they
    are rank deficient, and then their SVD and QR factors are set by
    rounding."""
    inputs, pre = [], []
    a = x if s is None else s @ x
    for w in weights:
        inputs.append(a)
        pre.append(a @ w / np.sqrt(w.shape[0]))
        a = act_fn(pre[-1], act) if s is None else s @ act_fn(pre[-1], act)

    def back(l, g, p):
        return (g if s is None else s.T @ g) * act_deriv(p, act)
    top = pre[-2] if len(weights) > 1 else None
    rows = None if top is None else weights[-1].T / np.sqrt(top.shape[1]) * act_deriv(top, act)
    return explicit_ntk(inputs, pre, weights, seed, back), inputs[:-1], rows


def dense_skip_kernel(x, s, weights, sact, alpha):
    """Reference NTK of one draw of skip_pc (`alpha=None`) or skip_alpha.

    weights[0] is the fixed projection W_x, which is not trained; the rest
    are the hidden layers' and the readout's, every one given whole. The
    first hidden layer's output A_0 W_1 / sqrt(width) is taken as
    (U S)(V^T W_1) / sqrt(width) from the thin SVD A_0 = U S V^T. That is
    the same in exact arithmetic (see
    `test_first_layer_draw_is_a_times_standard_normal`) and repeats the
    library's bits, so the top layer's input, rank deficient for skip_alpha,
    has the library's SVD. Returns what `dense_stack_kernel` returns."""
    def mix(p, last):  # the next layer's input from this layer's output
        if alpha is None:
            return s @ act_fn(p) if last else s @ (act_fn(p) + act_fn(h, sact))
        return s @ p if last else (1.0 - alpha) * (s @ p) + alpha * act_fn(h, sact)

    h = x @ weights[0]
    hidden = weights[1:]
    inputs, pre = [], []
    a = mix(h, False)
    for l, w in enumerate(hidden):
        inputs.append(a)
        if l == 0:
            u, sv, vt = np.linalg.svd(a, full_matrices=False)
            pre.append((u * sv) @ (vt @ w) / np.sqrt(w.shape[0]))
        else:
            pre.append(a @ w / np.sqrt(w.shape[0]))
        a = mix(pre[-1], l == len(hidden) - 2)

    def back(l, g, p):
        g = s.T @ g
        if alpha is None:
            return g * act_deriv(p)
        return g if l == len(hidden) - 1 else (1.0 - alpha) * g
    top = pre[-2]
    rows = hidden[-1].T / np.sqrt(top.shape[1]) * (act_deriv(top) if alpha is None else 1.0)
    return explicit_ntk(inputs, pre, hidden, np.eye(x.shape[0]), back), inputs[:-1], rows


class TestKappa:
    def test_boundary_values(self):
        assert kappa0(np.array([1.0]))[0] == pytest.approx(1.0)
        assert kappa0(np.array([-1.0]))[0] == pytest.approx(0.0)
        assert kappa1(np.array([1.0]))[0] == pytest.approx(1.0)
        assert kappa1(np.array([-1.0]))[0] == pytest.approx(0.0)

    def test_orthogonal_inputs(self):
        assert kappa0(np.array([0.0]))[0] == pytest.approx(0.5)
        assert kappa1(np.array([0.0]))[0] == pytest.approx(1.0 / np.pi)


class TestAnalytic:
    def test_linear_kernel_is_gram_matrix(self, small_csbm):
        q = ntk_analytic(ArchitectureSpec("linear"), small_csbm).Q
        np.testing.assert_allclose(q, small_csbm.features @ small_csbm.features.T,
                                   atol=1e-12)

    def test_sgc_with_identity_conv_is_deep_linear_mlp(self, small_csbm):
        from certlab import ConvolutionMatrix
        conv = ConvolutionMatrix.identity(small_csbm.n)
        q = ntk_analytic(ArchitectureSpec("sgc", 1, conv=conv), small_csbm).Q
        x = small_csbm.features
        np.testing.assert_allclose(q, 2.0 * x @ x.T / small_csbm.d, atol=1e-12)

    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_sgc_equals_linear_gcn(self, small_csbm, small_conv, depth):
        a = ntk_analytic(ArchitectureSpec("sgc", depth, conv=small_conv), small_csbm).Q
        b = ntk_analytic(ArchitectureSpec("gcn", depth, conv=small_conv,
                                          activation="linear"), small_csbm).Q
        assert np.abs(a - b).max() < 1e-10

    def test_ppnp_alpha_one_equals_mlp(self, small_csbm, small_conv):
        a = ntk_analytic(ArchitectureSpec("ppnp", 2, conv=small_conv, alpha=1.0),
                         small_csbm).Q
        b = ntk_analytic(ArchitectureSpec("mlp", 2), small_csbm).Q
        assert np.abs(a - b).max() < 1e-10

    def test_ppnp_alpha_zero_singular(self, small_csbm, small_conv):
        with pytest.raises(SingularPropagationError):
            ntk_analytic(ArchitectureSpec("ppnp", 1, conv=small_conv, alpha=0.0),
                         small_csbm)

    def test_permutation_equivariance_every_kind(self):
        rng = np.random.Generator(np.random.Philox(31))
        graph = sample_csbm(CsbmParams(n=8, p=0.6, q=0.3, labeled_per_class=2, seed=0))
        perm = rng.permutation(8)
        permuted = Graph(graph.features[perm],
                         graph.adjacency[np.ix_(perm, perm)],
                         graph.labels[perm],
                         np.argsort(perm)[graph.labeled],
                         num_classes=2)
        conv = normalize_adjacency(graph, "row")
        conv_p = normalize_adjacency(permuted, "row")
        for spec in all_specs(conv):
            q = ntk_analytic(spec, graph).Q
            if spec.conv is None:
                spec_p = spec
            else:
                spec_p = ArchitectureSpec(spec.kind, spec.depth, conv_p, spec.alpha,
                                          spec.power_k, spec.skip_activation,
                                          spec.activation)
            q_p = ntk_analytic(spec_p, permuted).Q
            np.testing.assert_allclose(q_p, q[np.ix_(perm, perm)], atol=1e-9,
                                       err_msg=spec.describe())

    def test_all_kinds_produce_valid_kernels(self, small_csbm, small_conv):
        for spec in all_specs(small_conv):
            kern = ntk_analytic(spec, small_csbm)
            # KernelMatrix construction already enforced symmetry and PSD
            assert kern.Q.shape == (small_csbm.n, small_csbm.n)
            eigs = np.linalg.eigvalsh(kern.Q)
            assert eigs.min() >= -1e-8 * max(np.abs(eigs).max(), 1e-300)


def column_spec(kind, depth, conv):
    if kind == "linear":
        return ArchitectureSpec("linear")
    if kind == "mlp":
        return ArchitectureSpec("mlp", depth)
    extra = {"ppnp": {"alpha": 0.2}, "appnp": {"alpha": 0.1, "power_k": 6},
             "skip_alpha": {"alpha": 0.3}}.get(kind, {})
    return ArchitectureSpec(kind, depth, conv=conv, **extra)


# every kind at depth 1 and 2 (linear has no depth) under both convolutions
COLUMN_CASES = [(kind, depth, mode) for kind in ("mlp", "gcn", "sgc", "ppnp", "appnp",
                                                 "skip_pc", "skip_alpha")
                for depth in (1, 2) for mode in ("row", "sym")] + [("linear", None, None)]


class TestColumns:
    @pytest.mark.parametrize("order", ["labeled", "unsorted"])
    @pytest.mark.parametrize("kind,depth,mode", COLUMN_CASES)
    def test_block_equals_full_kernel_columns(self, small_csbm, kind, depth, mode, order):
        # the dense fixture has 20 edges, so every propagation mixes nodes
        conv = None if mode is None else normalize_adjacency(small_csbm, mode)
        spec = column_spec(kind, depth, conv)
        cols = small_csbm.labeled if order == "labeled" else np.array([7, 2, 11, 0, 5])
        full = ntk_analytic(spec, small_csbm).Q[:, cols]
        block = ntk_analytic(spec, small_csbm, columns=cols)
        assert isinstance(block, KernelColumns) and block.Q.shape == (small_csbm.n, cols.size)
        np.testing.assert_array_equal(block.columns, cols)
        assert np.abs(block.Q - full).max() <= 1e-12 * np.abs(full).max()
        # the train block is symmetric bit for bit, as in a KernelMatrix
        train = block.Q[cols]
        assert train.tobytes() == train.T.copy().tobytes()

    def test_ppnp_alpha_zero_singular(self, small_csbm, small_conv):
        with pytest.raises(SingularPropagationError):
            ntk_analytic(ArchitectureSpec("ppnp", 1, conv=small_conv, alpha=0.0),
                         small_csbm, columns=small_csbm.labeled)

    def test_rejects_indefinite_or_asymmetric_train_block(self):
        with pytest.raises(ValueError, match="PSD"):
            KernelColumns(np.array([[1.0, 2.0], [2.0, 1.0], [0.5, 0.5]]), [0, 1], "test")
        with pytest.raises(ValueError, match="asymmetry"):
            KernelColumns(np.array([[1.0, 0.5], [0.0, 1.0], [0.5, 0.5]]), [0, 1], "test")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        # outside the train block too: the test rows feed the margins
        q = np.array([[1.0, 0.0], [0.0, 1.0], [bad, 0.5]])
        with pytest.raises(ValueError, match="non-finite"):
            KernelColumns(q, [0, 1], "test")

    def test_rejects_bad_columns(self):
        q = np.eye(3)[:, :2]
        with pytest.raises(ValueError, match="node ids"):
            KernelColumns(q, [0, 1, 2], "test")
        with pytest.raises(IndexError):
            KernelColumns(q, [0, 3], "test")

    def test_rows_are_blocks_of_the_full_kernel(self, small_csbm, small_conv):
        spec = ArchitectureSpec("gcn", 1, conv=small_conv)
        full = ntk_analytic(spec, small_csbm)
        lab, unl = small_csbm.labeled, small_csbm.unlabeled
        block = ntk_analytic(spec, small_csbm, columns=lab)
        for rows in (lab, unl):
            np.testing.assert_array_equal(block.Q[rows], kernel_submatrix(full, rows, lab))
        with pytest.raises(IndexError):
            ntk_analytic(spec, small_csbm, columns=[0, small_csbm.n])


class TestPropagation:
    """`_propagation` against P written out as its defining sum or inverse."""

    @pytest.mark.parametrize("mode", ["row", "sym"])
    @pytest.mark.parametrize("kind, alpha, power_k", [
        ("ppnp", 0.2, None), ("ppnp", 0.9, None),
        ("appnp", 0.1, 1), ("appnp", 0.1, 6), ("appnp", 0.5, 10),
    ])
    def test_pair_applies_p_and_its_transpose(self, small_csbm, mode, kind, alpha, power_k):
        conv = normalize_adjacency(small_csbm, mode)
        n, t = small_csbm.n, (1.0 - alpha) * conv.S
        if kind == "ppnp":
            want = alpha * np.linalg.inv(np.eye(n) - t)
        else:
            want = (alpha * sum(np.linalg.matrix_power(t, k) for k in range(power_k))
                    + np.linalg.matrix_power(t, power_k))
        spec = ArchitectureSpec(kind, 1, conv=conv, alpha=alpha, power_k=power_k)
        apply, apply_t = certlab.ntk._propagation(spec, n)
        v = np.random.default_rng(0).standard_normal((n, 3))
        for got, exact in ((apply(np.eye(n)), want), (apply_t(np.eye(n)), want.T),
                           (apply(v), want @ v), (apply_t(v), want.T @ v)):
            assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ArchitectureSpec("transformer")

    def test_alpha_required(self, small_conv):
        with pytest.raises(ValueError, match="alpha"):
            ArchitectureSpec("appnp", 1, conv=small_conv, power_k=3)

    def test_power_k_required(self, small_conv):
        with pytest.raises(ValueError, match="power_k"):
            ArchitectureSpec("appnp", 1, conv=small_conv, alpha=0.5)

    @pytest.mark.parametrize("kind, given", [
        ("gcn", {"alpha": 0.3}), ("sgc", {"alpha": 0.3}), ("skip_pc", {"alpha": 0.3}),
        ("ppnp", {"alpha": 0.2, "power_k": 3}), ("skip_alpha", {"alpha": 0.2, "power_k": 3}),
        ("gcn", {"power_k": 3}), ("mlp", {"alpha": 0.3}), ("linear", {"alpha": 0.3}),
        ("linear", {"power_k": 3}),
    ])
    def test_parameter_the_kind_does_not_read(self, small_conv, kind, given):
        # before, a gcn with alpha=0.3 built a plain gcn kernel whose source read alpha=0.3
        conv = None if kind in ("mlp", "linear") else small_conv
        with pytest.raises(ValueError, match=f"{kind} reads no {list(given)[-1]}"):
            ArchitectureSpec(kind, 1, conv=conv, **given)

    @pytest.mark.parametrize("kind, given", [
        ("linear", {"depth": 3}), ("sgc", {"activation": "linear"}),
        ("skip_pc", {"activation": "linear"}),
        ("skip_alpha", {"alpha": 0.2, "activation": "linear"}),
        ("gcn", {"skip_activation": "linear"}),
        ("appnp", {"alpha": 0.2, "power_k": 3, "skip_activation": "linear"}),
    ])
    def test_parameter_with_a_default_the_kind_does_not_read(self, small_conv, kind, given):
        # each built the kernel of the default value, under a source naming neither
        conv = None if kind == "linear" else small_conv
        with pytest.raises(ValueError, match=f"{kind} reads no {list(given)[-1]}"):
            ArchitectureSpec(kind, conv=conv, **given)

    def test_linear_takes_no_conv(self, small_conv):
        with pytest.raises(ValueError, match="no convolution"):
            ArchitectureSpec("linear", conv=small_conv)

    @pytest.mark.parametrize("kind", [k for k in certlab.ntk.READS if k != "linear"])
    def test_every_parameter_the_kind_reads_changes_kernel_and_source(self, small_csbm,
                                                                       kind):
        # ppnp and appnp used to leave activation out of the source
        row = normalize_adjacency(small_csbm, "row")
        base = {"depth": 2, "activation": "relu", "conv": row, "alpha": 0.2, "power_k": 3,
                "skip_activation": "relu"}
        changed = {"depth": [3], "activation": ["linear"], "alpha": [0.5], "power_k": [5],
                   "skip_activation": ["linear"],
                   "conv": [normalize_adjacency(small_csbm, "sym"),
                            normalize_adjacency(small_csbm, "row", 2.0)]}
        given = {key: base[key] for key in certlab.ntk.READS[kind]}
        spec = ArchitectureSpec(kind, **given)
        kernel = ntk_analytic(spec, small_csbm)
        assert kernel.source == spec.describe()
        for key in given:
            for value in changed[key]:
                other = ArchitectureSpec(kind, **{**given, key: value})
                assert other.describe() != spec.describe(), key
                assert np.abs(ntk_analytic(other, small_csbm).Q - kernel.Q).max() > 1e-6, key

    @pytest.mark.parametrize("kind, given", [("ppnp", {}), ("appnp", {"power_k": 3})])
    def test_propagated_kinds_name_their_activation(self, small_csbm, small_conv, kind,
                                                    given):
        # both printed ppnp/L=1/conv=row/alpha=0.2 (appnp with K=3) for different kernels
        specs = [ArchitectureSpec(kind, conv=small_conv, alpha=0.2, activation=act, **given)
                 for act in ("linear", "relu")]
        assert [spec.describe().split("/")[2] for spec in specs] == ["act=linear", "act=relu"]
        a, b = (ntk_analytic(spec, small_csbm).Q for spec in specs)
        assert np.abs(a - b).max() > 1e-6

    def test_conv_required(self):
        with pytest.raises(ValueError, match="convolution"):
            ArchitectureSpec("gcn", 1)

    def test_mlp_takes_no_conv(self, small_conv):
        with pytest.raises(ValueError, match="no convolution"):
            ArchitectureSpec("mlp", 1, conv=small_conv)

    def test_depth_zero_only_for_mlp(self, small_conv):
        ArchitectureSpec("mlp", 0)
        with pytest.raises(ValueError, match="depth"):
            ArchitectureSpec("gcn", 0, conv=small_conv)


class TestEmpirical:
    def test_linear_readout_is_deterministic(self, small_csbm):
        # No hidden layer: the gradient is the input itself, every sample
        # returns exactly X X^T / d.
        spec = ArchitectureSpec("mlp", 0, activation="linear")
        x = small_csbm.features
        expected = x @ x.T / small_csbm.d
        for seed in (0, 1):
            q = ntk_empirical(spec, small_csbm, width=8, samples=1, seed=seed).Q
            np.testing.assert_allclose(q, expected, atol=1e-12)

    def test_seed_reproducible_bitwise(self, small_csbm, small_conv):
        spec = ArchitectureSpec("gcn", 1, conv=small_conv)
        a = ntk_empirical(spec, small_csbm, width=64, samples=3, seed=9).Q
        b = ntk_empirical(spec, small_csbm, width=64, samples=3, seed=9).Q
        assert a.tobytes() == b.tobytes()
        c = ntk_empirical(spec, small_csbm, width=64, samples=3, seed=10).Q
        assert a.tobytes() != c.tobytes()

    def test_width_convergence_on_path_graph(self):
        # a 2x2 kernel has three degrees of freedom, so average the
        # realized error over seeds before asserting the width trend
        graph = path_graph()
        conv = normalize_adjacency(graph, "row")
        spec = ArchitectureSpec("gcn", 1, conv=conv)
        reference = ntk_analytic(spec, graph).Q
        scale = np.linalg.norm(reference)
        errs = []
        for width in (64, 256, 1024):
            errs.append(np.mean([
                np.linalg.norm(ntk_empirical(spec, graph, width, samples=50,
                                             seed=s).Q - reference) / scale
                for s in range(8)
            ]))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < 0.05

    def test_gcn_close_to_analytic_at_large_width(self):
        graph = sample_csbm(CsbmParams(n=20, p=0.3, q=0.1,
                                       labeled_per_class=4, seed=1))
        conv = normalize_adjacency(graph, "row")
        spec = ArchitectureSpec("gcn", 1, conv=conv)
        reference = ntk_analytic(spec, graph).Q
        emp = ntk_empirical(spec, graph, width=4096, samples=20, seed=0).Q
        err = np.linalg.norm(emp - reference) / np.linalg.norm(reference)
        assert err <= 0.05

    @pytest.mark.parametrize("depth", [1, 2])
    @pytest.mark.parametrize("kind", ["mlp", "gcn", "sgc", "ppnp", "appnp", "skip_pc",
                                      "skip_alpha"])
    def test_every_kind_matches_analytic(self, small_csbm, small_conv, kind, depth):
        # The dense fixture (20 edges) and depth 2 reach every factor of the
        # backward pass, the skip variants' relu derivative and (1 - alpha)
        # weight included. 40 samples make the verdict the estimator's, not
        # one draw's: at 10, about one legitimate random stream in three
        # failed some case on seeds 0-59. At this width and seed every kind
        # lies within 0.032 (the depth-2 stacks read 0.008-0.032, the rest
        # at most 0.010), and no seed of 0-59 fails a depth-2 stack or a skip
        # variant at depth 2 or 3 (those peak at 0.043). Dropping skip_pc's
        # relu derivative reads 0.052-0.083 at depth 2 on seeds 0-5
        # (0.045-0.053 at depth 1, where it converges to the bound); dropping
        # skip_alpha's (1 - alpha) reads 0.28-0.30 at depth 2.
        spec = {
            "mlp": ArchitectureSpec("mlp", depth),
            "gcn": ArchitectureSpec("gcn", depth, conv=small_conv),
            "sgc": ArchitectureSpec("sgc", depth, conv=small_conv),
            "ppnp": ArchitectureSpec("ppnp", depth, conv=small_conv, alpha=0.2),
            "appnp": ArchitectureSpec("appnp", depth, conv=small_conv, alpha=0.1,
                                      power_k=6),
            "skip_pc": ArchitectureSpec("skip_pc", depth, conv=small_conv),
            "skip_alpha": ArchitectureSpec("skip_alpha", depth, conv=small_conv, alpha=0.3),
        }[kind]
        reference = ntk_analytic(spec, small_csbm).Q
        emp = ntk_empirical(spec, small_csbm, width=1024, samples=40, seed=0).Q
        assert np.linalg.norm(emp - reference) / np.linalg.norm(reference) <= 0.05

    @pytest.mark.parametrize("rank", [3, 10])
    def test_first_layer_draw_is_a_times_standard_normal(self, rank):
        # With a = U S V^T, W = V Z + (I - V V^T) Y is standard normal for
        # standard normal Z and Y, whatever Y is, and a W = U S Z. So the
        # drawn P = a W / sqrt(width) for a W with the law of the weights.
        rng = np.random.default_rng(rank)
        n, width = 10, 64
        a = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, width))
        z = rng.standard_normal((n, width))
        v = np.linalg.svd(a, full_matrices=False)[2].T
        for _ in range(3):
            y = rng.standard_normal((width, width))
            w = v @ z + (np.eye(width) - v @ v.T) @ y
            np.testing.assert_allclose(_row_space_layer(a, z)[0], a @ w / np.sqrt(width),
                                       rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("width", [8, 32])
    @pytest.mark.parametrize("act", ["relu", "linear"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["mlp", "gcn", "appnp", "skip_pc", "skip_alpha"])
    def test_projected_top_layer_equals_dense_draw(self, small_csbm, small_conv, monkeypatch,
                                                   kind, depth, act, width):
        # The sampler draws the top hidden layer W only as Z = V^T W (A = U S V^T
        # its input) and Y = W Q_b (b^T = Q_b R_b the rows pulled back through
        # it), and the skip variants' first hidden layer only as Z_0 = V_0^T W_1.
        # Handing it those of dense weights must give the dense weights' kernel.
        # `act` is the skip activation of the skip variants.
        x, n = small_csbm.features, small_csbm.n
        spec = ArchitectureSpec(kind, depth, **{
            "mlp": {"activation": act}, "gcn": {"conv": small_conv, "activation": act},
            "appnp": {"conv": small_conv, "alpha": 0.1, "power_k": 6, "activation": act},
            "skip_pc": {"conv": small_conv, "skip_activation": act},
            "skip_alpha": {"conv": small_conv, "alpha": 0.3, "skip_activation": act}}[kind])
        rng = np.random.default_rng(depth)
        dims = [x.shape[1]] + [width] * depth + [1]
        if kind.startswith("skip"):
            dims.insert(1, width)  # the fixed projection W_x comes first
        weights = [rng.standard_normal((dims[l], dims[l + 1])) for l in range(len(dims) - 1)]
        if kind.startswith("skip"):
            reference, inputs, rows = dense_skip_kernel(
                x, small_conv.S, weights, act, 0.3 if kind == "skip_alpha" else None)
            z_layers = {1: inputs[0]}  # index into weights: the input it is projected on
        else:
            s = small_conv.S if kind == "gcn" else None
            seed = np.eye(n)
            if kind == "appnp":
                power = np.eye(n)
                seed = 0.1 * power
                for _ in range(5):
                    power = 0.9 * power @ small_conv.S
                    seed = seed + 0.1 * power
                seed = seed + 0.9 * power @ small_conv.S
            reference, inputs, rows = dense_stack_kernel(x, s, weights, act, seed)
            z_layers = {}
        if depth >= 2:
            z_layers[len(weights) - 2] = inputs[-1]
        draws = [np.linalg.svd(z_layers[i], full_matrices=False)[2] @ w if i in z_layers else w
                 for i, w in enumerate(weights)]
        if depth >= 2:
            draws.append(weights[-2] @ np.linalg.qr(rows.T)[0])
        monkeypatch.setattr(certlab.ntk, "make_rng", lambda _: Replay(draws))
        got = ntk_empirical(spec, small_csbm, width=width, samples=1).Q
        assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()

    @pytest.mark.parametrize("with_seed", [False, True])
    @pytest.mark.parametrize("record", ["stack", "skip_pc", "skip_alpha"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_backprop_matches_einsum_reference(self, record, depth, with_seed):
        # Random records of each sampler's shape: array derivatives make the
        # gradient expand at the first S mix below the top hidden layer, a
        # scalar one keeps it factored throughout.
        rng = np.random.default_rng(depth)
        n, d, width = 9, 3, 16
        s = np.abs(rng.standard_normal((n, n)))
        s /= s.sum(axis=1, keepdims=True)
        dims = [d if record == "stack" else width] + [width] * depth + [1]
        inputs = [rng.standard_normal((n, fan)) for fan in dims[:-1]]
        weights = [None] + [rng.standard_normal((dims[l], dims[l + 1]))
                            for l in range(1, depth + 1)]
        if record == "skip_alpha":
            derivs = [0.7] * (depth - 1) + [1.0]
        else:
            derivs = [np.sqrt(2.0) * (rng.standard_normal((n, width)) > 0)
                      for _ in range(depth)]
        seed = rng.standard_normal((n, n)) if with_seed else None
        got = _backprop(inputs, weights, derivs, s, seed)
        reference = einsum_backprop(inputs, weights, derivs, s, seed)
        assert np.abs(got - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_validation(self, small_csbm, small_conv):
        spec = ArchitectureSpec("gcn", 1, conv=small_conv)
        with pytest.raises(ValueError, match="width"):
            ntk_empirical(spec, small_csbm, width=4, samples=1)
        with pytest.raises(ValueError, match="samples"):
            ntk_empirical(spec, small_csbm, width=8, samples=0)
        with pytest.raises(ValueError, match="linear"):
            ntk_empirical(ArchitectureSpec("linear"), small_csbm, 8, 1)
        with pytest.raises(ResourceError):
            ntk_empirical(spec, small_csbm, width=1024, samples=1, width_cap=100)


class TestKernelMatrix:
    def test_rejects_asymmetry(self):
        with pytest.raises(ValueError, match="asymmetry"):
            KernelMatrix(np.array([[1.0, 0.5], [0.0, 1.0]]), "test")

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            KernelMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]), "test")

    def test_submatrix(self, small_csbm, small_conv):
        kern = ntk_analytic(ArchitectureSpec("gcn", 1, conv=small_conv), small_csbm)
        np.testing.assert_array_equal(
            kernel_submatrix(kern, range(kern.n), range(kern.n)), kern.Q)
        lab = small_csbm.labeled
        block = kernel_submatrix(kern, lab, lab)
        assert block.shape == (len(lab), len(lab))
        np.testing.assert_allclose(block, block.T, atol=1e-12)
        unl = small_csbm.unlabeled
        assert kernel_submatrix(kern, unl, lab).shape == (len(unl), len(lab))
        with pytest.raises(IndexError):
            kernel_submatrix(kern, [0, kern.n], [0])
        with pytest.raises(IndexError):
            kernel_submatrix(kern, [-1], [0])


class TestKernelIO:
    def test_binary_round_trip(self, tmp_path, small_csbm, small_conv):
        kern = ntk_analytic(ArchitectureSpec("sgc", 1, conv=small_conv), small_csbm)
        path = tmp_path / "k.knl"
        save_kernel(kern, path)
        back = load_kernel(path)
        assert back.Q.tobytes() == kern.Q.tobytes()

    def test_csv_round_trip(self, tmp_path, small_csbm):
        kern = ntk_analytic(ArchitectureSpec("linear"), small_csbm)
        path = tmp_path / "k.csv"
        kernel_to_csv(kern, path)
        back = kernel_from_csv(path)
        np.testing.assert_allclose(back.Q, kern.Q, rtol=1e-15)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.knl"
        path.write_bytes(b"NOTAKERN" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_kernel(path)

    @pytest.mark.parametrize("tail", [b"", b"\x01\x00"])
    def test_truncated_header(self, tmp_path, tail):
        path = tmp_path / "short.knl"
        path.write_bytes(b"CLABKRN1" + tail)
        with pytest.raises(ValueError, match="short.knl: truncated header"):
            load_kernel(path)
