import itertools
import json
import os
from pathlib import Path
import re

import numpy as np
import pytest

import certlab.milp
from certlab import (
    Budget,
    Constraint,
    MilpModel,
    Objective,
    SamplewiseBlock,
    SvmProblem,
    Variable,
    big_m,
    build_collective,
    build_multiclass,
    build_multiclass_inexact,
    build_samplewise,
    build_samplewise_node,
    certify_collective,
    certify_multiclass_exact,
    certify_samples,
    collective_witness_point,
    evaluate_model,
    kkt_check,
    margin_bounds,
    margins,
    multiclass_witness_point,
    read_lp,
    samplewise_witness_point,
    solve_dual,
    write_lp,
    write_mps,
)
from conftest import random_psd

HERE = os.path.dirname(__file__)


def small_instance(seed=5, m=8, n_test=5, C=0.7):
    rng = np.random.Generator(np.random.Philox(seed))
    q = random_psd(rng, m)
    y = np.where(rng.random(m) < 0.5, 1.0, -1.0)
    qcross = rng.standard_normal((n_test, m))
    return q, y, qcross, C


class TestBigM:
    def test_identity_kernel(self):
        bm = big_m(np.eye(2), C=1.0)
        np.testing.assert_array_equal(bm.Mu, [0.0, 0.0])
        np.testing.assert_array_equal(bm.Mv, [2.0, 2.0])

    def test_row_sum_three(self):
        q = np.array([[1.0, 2.0], [2.0, 1.0]])
        bm = big_m(q, C=0.5)
        np.testing.assert_allclose(bm.Mu, [0.5, 0.5])
        np.testing.assert_allclose(bm.Mv, [2.5, 2.5])

    def test_clamped_at_zero(self):
        bm = big_m(0.1 * np.eye(3), C=1.0)
        np.testing.assert_array_equal(bm.Mu, 0.0)

    def test_duals_never_exceed_big_m(self):
        # exhaustive relabelings within budget r=2 on an m=8 instance;
        # the KKT multipliers at each optimum must respect (Mu, Mv)
        q, y, _, C = small_instance(seed=6)
        bm = big_m(q, C)
        m = y.size
        violations = 0
        for k in range(3):
            for combo in itertools.combinations(range(m), k):
                ytil = y.copy()
                ytil[list(combo)] *= -1.0
                problem = SvmProblem(q, ytil, C)
                sol = solve_dual(problem)
                cert = kkt_check(problem, sol.alpha)
                if np.any(cert.u > bm.Mu + 1e-9) or np.any(cert.v > bm.Mv + 1e-9):
                    violations += 1
        assert violations == 0


class TestMarginBounds:
    def test_example_row(self):
        mb = margin_bounds(np.array([[1.0, -2.0]]), C=0.5)
        np.testing.assert_allclose(mb.l, [-1.5])
        np.testing.assert_allclose(mb.h, [1.5])

    def test_zero_row(self):
        mb = margin_bounds(np.zeros((1, 4)), C=2.0)
        assert mb.l[0] == mb.h[0] == 0.0

    def test_all_enumerated_margins_within_bounds(self):
        q, y, qcross, C = small_instance(seed=7)
        mb = margin_bounds(qcross, C)
        for k in range(3):
            for combo in itertools.combinations(range(y.size), k):
                ytil = y.copy()
                ytil[list(combo)] *= -1.0
                alpha = solve_dual(SvmProblem(q, ytil, C)).alpha
                p = margins(alpha, ytil, qcross)
                assert np.all(p <= mb.h + 1e-9) and np.all(p >= mb.l - 1e-9)


class TestBuilders:
    def test_samplewise_binary_count_and_shapes(self):
        q, y, qcross, C = small_instance()
        m = y.size
        model = build_samplewise(q, qcross[0], y, C, 0.25, 1, node=0)
        assert model.binary_count == 3 * m
        kinds = {v.name.split("_")[0] for v in model.variables}
        assert kinds == {"a", "yt", "yp", "z", "u", "v", "s", "tt", "R"}
        assert model.metadata["budget"] == 2
        assert not model.metadata["budget_zero"]

    def test_budget_zero_flagged(self):
        q, y, qcross, C = small_instance()
        model = build_samplewise(q, qcross[0], y, C, 0.05, 1)
        assert model.metadata["budget_zero"]

    def test_collective_binary_count(self):
        q, y, qcross, C = small_instance()
        phat = np.array([1.0, -1.0, 2.0, -0.5, 0.25])
        model = build_collective(q, qcross, y, C, 0.25, phat)
        assert model.binary_count == 3 * y.size + qcross.shape[0]

    def test_collective_rejects_zero_margins(self):
        q, y, qcross, C = small_instance()
        with pytest.raises(ValueError, match="zero-margin"):
            build_collective(q, qcross, y, C, 0.25, np.zeros(qcross.shape[0]))
        with pytest.raises(ValueError, match="non-empty"):
            build_collective(q, np.empty((0, y.size)), y, C, 0.25, np.empty(0))

    def test_multiclass_binary_count(self):
        rng = np.random.Generator(np.random.Philox(8))
        m, K = 6, 3
        q = random_psd(rng, m)
        labels = np.array([1, 1, 2, 2, 3, 3])
        model = build_multiclass(q, rng.standard_normal(m), labels, K, 1.0, 0.34, 1)
        assert model.binary_count == 3 * K * m + K - 1

    def test_multiclass_one_hot_label_algebra(self):
        # any feasible one-hot assignment gives sum_c yt_c_i = 2 - K
        rng = np.random.Generator(np.random.Philox(9))
        m, K = 5, 4
        labels = np.array([1, 2, 3, 4, 1])
        pt = multiclass_witness_point(random_psd(rng, m), rng.standard_normal(m),
                                      labels, K, 1.0, c_hat=1, witness=())
        for i in range(m):
            assert sum(pt[f"yt_{c}_{i}"] for c in range(1, K + 1)) == pytest.approx(2 - K)
            assert sum(pt[f"ytp_{c}_{i}"] for c in range(1, K + 1)) == pytest.approx(1.0)

    def test_shared_block_models_match_one_row_builds(self, tmp_path):
        # every node's model on one block equals the model built for that row
        # alone, and the block's once-rendered MPS text gives the same bytes
        q, y, qcross, C = small_instance()
        qcross[1, 2] = 0.0  # a zero coefficient leaves z_2 out of that objective
        block = SamplewiseBlock(q, y, C, 0.25)
        for row, sign in enumerate((1, -1, 1, -1, 1)):
            shared = build_samplewise_node(block, qcross[row], sign, node=10 + row)
            alone = build_samplewise(q, qcross[row], y, C, 0.25, sign, node=10 + row)
            assert shared == alone
            assert shared.metadata == alone.metadata
            assert shared.body is block.body
            write_mps(shared, tmp_path / "shared.mps")
            write_mps(alone, tmp_path / "alone.mps")
            for suffix in (".mps", ".mps.meta.json"):
                assert ((tmp_path / f"shared{suffix}").read_bytes()
                        == (tmp_path / f"alone{suffix}").read_bytes())

    def test_constraint_terms_are_converted_once_on_the_way_in(self):
        # the builder drops zero coefficients; Constraint converts the rest
        # to (float, str) and rejects a coefficient that is not a number
        b = certlab.milp._Builder()
        b.con("c", [(0.0, "x"), (2, "y"), (np.float64(-0.5), "z")], "<=", 1)
        assert b.constraints[0] == Constraint("c", ((2.0, "y"), (-0.5, "z")), "<=", 1.0)
        assert [type(c) for c, _ in b.constraints[0].terms] == [float, float]
        assert Constraint("d", [(1, 7)], ">=", 0.0).terms == ((1.0, "7"),)
        with pytest.raises(ValueError):
            b.con("e", [("a", "x")], "<=", 0.0)
        with pytest.raises(ValueError):
            Constraint("e", [("a", "x")], "<=", 0.0)

    def test_multiclass_inexact_is_k_models(self):
        rng = np.random.Generator(np.random.Philox(10))
        m, K = 6, 3
        labels = np.array([1, 1, 2, 2, 3, 3])
        models = build_multiclass_inexact(random_psd(rng, m), rng.standard_normal(m),
                                          labels, K, 1.0, 0.34, c_hat=2)
        assert len(models) == K
        assert [mo.objective.sense for mo in models] == ["max", "min", "max"]
        assert all(mo.binary_count == 3 * m for mo in models)


class TestLinearizationExactness:
    def test_canonical_point_is_the_only_solution(self):
        rng = np.random.Generator(np.random.Philox(11))
        q, y, qcross, C = small_instance()
        m = y.size
        model = build_samplewise(q, qcross[0], y, C, 1.0, 1)
        for _ in range(20):
            ytil = np.where(rng.random(m) < 0.5, 1.0, -1.0)
            alpha = rng.random(m) * C
            z = alpha * ytil
            # z rows: the four inequalities collapse to z_i = alpha_i ytil_i
            for i in range(m):
                lo = max(-alpha[i], alpha[i] - C * (1 - ytil[i]))
                hi = min(alpha[i], C * (1 + ytil[i]) - alpha[i])
                assert lo == pytest.approx(hi, abs=1e-12)
                assert z[i] == pytest.approx(lo, abs=1e-12)
            # R rows likewise collapse to R_ij = ytil_i z_j
            for i in range(m):
                for j in range(m):
                    lo = max(-C * (1 + ytil[i]) - z[j], -C * (1 - ytil[i]) + z[j])
                    hi = min(C * (1 + ytil[i]) - z[j], C * (1 - ytil[i]) + z[j])
                    assert lo == pytest.approx(hi, abs=1e-12)
                    assert ytil[i] * z[j] == pytest.approx(lo, abs=1e-12)

    def test_budget_zero_forces_clean_labels(self):
        q, y, qcross, C = small_instance()
        model = build_samplewise(q, qcross[0], y, C, 0.05, 1)  # r = 0
        alpha = solve_dual(SvmProblem(q, y, C)).alpha
        ok = samplewise_witness_point(q, y, C, (), alpha)
        viol, _ = evaluate_model(model, ok)
        assert viol <= 1e-8
        ytil = y.copy()
        ytil[0] *= -1
        flipped = samplewise_witness_point(q, y, C, (0,),
                                           solve_dual(SvmProblem(q, ytil, C)).alpha)
        viol, _ = evaluate_model(model, flipped)
        assert viol > 0.5  # the adversary row cuts every flipped assignment


class TestWitnessFeasibility:
    def test_samplewise_witness_matches_enumeration(self):
        q, y, qcross, C = small_instance(seed=12)
        budget = Budget(0.25, y.size)
        certs = certify_samples(q, qcross, y, C, budget, range(qcross.shape[0]))
        clean = solve_dual(SvmProblem(q, y, C))
        phat = margins(clean.alpha, y, qcross)
        for row, cert in enumerate(certs):
            model = build_samplewise(q, qcross[row], y, C, 0.25,
                                     int(np.sign(phat[row])), node=cert.node)
            ytil = y.copy()
            ytil[list(cert.witness)] *= -1.0
            alpha = solve_dual(SvmProblem(q, ytil, C)).alpha
            point = samplewise_witness_point(q, y, C, cert.witness, alpha)
            viol, obj = evaluate_model(model, point)
            assert viol <= 1e-6
            assert obj == pytest.approx(cert.worst_objective, abs=1e-6)

    def test_collective_witness_matches_enumeration(self):
        q, y, qcross, C = small_instance(seed=13)
        budget = Budget(0.25, y.size)
        clean = solve_dual(SvmProblem(q, y, C))
        phat = margins(clean.alpha, y, qcross)
        cert = certify_collective(q, qcross, y, C, budget, range(qcross.shape[0]))
        model = build_collective(q, qcross, y, C, 0.25, phat)
        ytil = y.copy()
        ytil[list(cert.witness)] *= -1.0
        alpha = solve_dual(SvmProblem(q, ytil, C)).alpha
        point = collective_witness_point(q, qcross, y, C, cert.witness, alpha, phat)
        viol, obj = evaluate_model(model, point)
        assert viol <= 1e-6
        assert obj == pytest.approx(cert.max_misclassified, abs=1e-6)

    def test_multiclass_witness_matches_enumeration(self):
        rng = np.random.Generator(np.random.Philox(14))
        m, K = 6, 3
        q = random_psd(rng, m, jitter=1.0)
        labels = np.array([1, 1, 2, 2, 3, 3])
        qrow = rng.standard_normal(m)
        budget = Budget(0.2, m)
        cert = certify_multiclass_exact(q, qrow, labels, K, 1.0, budget, t=0)
        p_clean = []
        from certlab import one_vs_all_split
        for c in range(1, K + 1):
            yc = one_vs_all_split(labels, c)
            sol = solve_dual(SvmProblem(q, yc, 1.0))
            p_clean.append(margins(sol.alpha, yc, qrow.reshape(1, -1))[0])
        c_hat = int(np.argmax(p_clean)) + 1
        model = build_multiclass(q, qrow, labels, K, 1.0, 0.2, c_hat, node=0)
        point = multiclass_witness_point(q, qrow, labels, K, 1.0, c_hat, cert.witness)
        viol, obj = evaluate_model(model, point)
        assert viol <= 1e-6
        assert obj == pytest.approx(cert.worst_objective, abs=1e-6)


class TestWriters:
    def test_golden_m1_mps(self, tmp_path):
        model = build_samplewise(np.array([[1.0]]), np.array([1.0]), np.array([1.0]),
                                 C=1.0, epsilon=1.0, sign_phat=1, node=0)
        path = tmp_path / "m1.mps"
        write_mps(model, path)
        golden = Path(HERE, "data", "golden_m1.mps").read_bytes()
        assert path.read_bytes() == golden

    def test_mps_layout(self, tmp_path):
        # a maximization, a repeated objective term, a column with no entry
        # (written as a zero objective coefficient) and a closing INTEND
        model = MilpModel(
            [Variable("x", "continuous", -1.0, 2.5), Variable("f", "continuous", 0.0, np.inf),
             Variable("b", "binary", 0.0, 1.0)],
            [Constraint("c1", [(1.0, "x"), (-0.5, "b")], "<=", 0.0),
             Constraint("c2", [(2.0, "b")], ">=", 1.0)],
            Objective("max", [(1.0, "x"), (0.25, "b"), (3.0, "x")]), {"kind": "toy"})
        write_mps(model, tmp_path / "toy.mps")
        assert (tmp_path / "toy.mps").read_text() == "\n".join([
            "NAME toy", "OBJSENSE", "    MAX", "ROWS", " N  OBJ", " L  c1", " G  c2",
            "COLUMNS", "    x  OBJ  1.0", "    x  OBJ  3.0", "    x  c1  1.0",
            "    f  OBJ  0.0", "    M1  'MARKER'  'INTORG'", "    b  OBJ  0.25",
            "    b  c1  -0.5", "    b  c2  2.0", "    M2  'MARKER'  'INTEND'",
            "RHS", "    RHS  c2  1.0", "BOUNDS", " LO BND  x  -1.0", " UP BND  x  2.5",
            " UP BND  b  1", "ENDATA", ""])

    def test_lp_round_trip(self, tmp_path):
        q, y, qcross, C = small_instance()
        model = build_samplewise(q, qcross[0], y, C, 0.25, -1, node=3)
        path = tmp_path / "model.lp"
        write_lp(model, path)
        back = read_lp(path, metadata=model.metadata)
        assert back.variables == model.variables
        assert back.constraints == model.constraints
        assert back.objective == model.objective

    def test_lp_round_trip_collective(self, tmp_path):
        q, y, qcross, C = small_instance()
        phat = np.array([1.0, -1.0, 2.0, -0.5, 0.25])
        model = build_collective(q, qcross, y, C, 0.5, phat, test_ids=[10, 11, 12, 13, 14])
        path = tmp_path / "coll.lp"
        write_lp(model, path)
        back = read_lp(path)
        assert back.variables == model.variables
        assert back.constraints == model.constraints
        assert back.objective == model.objective

    def test_mps_integer_marker_column_count(self, tmp_path):
        q, y, qcross, C = small_instance()
        model = build_samplewise(q, qcross[0], y, C, 0.25, 1)
        path = tmp_path / "model.mps"
        write_mps(model, path)
        lines = path.read_text().splitlines()
        inside, integral_columns = False, set()
        for line in lines:
            if "'INTORG'" in line:
                inside = True
            elif "'INTEND'" in line:
                inside = False
            elif inside:
                integral_columns.add(line.split()[0])
        assert len(integral_columns) == 3 * y.size

    def test_metadata_sidecar(self, tmp_path):
        q, y, qcross, C = small_instance()
        model = build_samplewise(q, qcross[0], y, C, 0.25, 1, node=7)
        path = tmp_path / "model.mps"
        write_mps(model, path)
        meta = json.loads((tmp_path / "model.mps.meta.json").read_text())
        assert meta["kind"] == "samplewise"
        assert meta["node"] == 7
        assert meta["epsilon"] == 0.25
        assert meta["C"] == C

    def test_shortest_roundtrip_numbers(self, tmp_path):
        model = build_samplewise(np.array([[0.1]]), np.array([0.3]), np.array([1.0]),
                                 C=0.2, epsilon=1.0, sign_phat=1)
        path = tmp_path / "m.lp"
        write_lp(model, path)
        text = path.read_text()
        assert "0.1 " in text and "0.2" in text  # no 0.1000000000000000055 blowups
        back = read_lp(path)
        assert back.constraints == model.constraints

    @pytest.mark.parametrize("edit, line, message", [
        (lambda lines: [], 1, "expected Minimize or Maximize"),
        (lambda lines: lines[:2] + lines[3:], 3, "expected Subject To"),
        (lambda lines: [ln.replace("obj: 1.0 z_0", "obj: 1.0 z_0 junk") for ln in lines],
         2, "malformed linear expression"),
        (lambda lines: [ln.replace(">= -1.0", ">> -1.0") for ln in lines],
         4, "expected a constraint or Bounds"),
        (lambda lines: [ln.replace("u_0 >= 0.0", "u_0 >= oops") for ln in lines],
         24, "expected a bound, Binaries or End"),
        (lambda lines: lines[:-1], 33, "got 'the end of the file'"),
    ], ids=["empty", "no-subject-to", "junk-term", "bad-sense", "bad-bound", "no-end"])
    def test_read_lp_rejects_malformed_files(self, tmp_path, edit, line, message):
        model = build_samplewise(np.array([[1.0]]), np.array([1.0]), np.array([1.0]),
                                 C=1.0, epsilon=1.0, sign_phat=1, node=0)
        path = tmp_path / "m.lp"
        write_lp(model, path)
        path.write_text("".join(ln + "\n" for ln in edit(path.read_text().splitlines())))
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: ") + ".*" + message):
            read_lp(path)
