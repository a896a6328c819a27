"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines. Criteria 1-5 and 10 share one 60-node synthetic instance with ten
labeled nodes (five per class); tolerances are asserted exactly as stated.
"""

import itertools
import json
import time

import numpy as np
import pytest

from certlab import (
    ArchitectureSpec,
    Budget,
    CsbmParams,
    SvmProblem,
    big_m,
    brute_force_oracle,
    build_collective,
    build_samplewise,
    certify_collective,
    certify_multiclass_exact,
    certify_multiclass_inexact,
    certify_samples,
    collective_witness_point,
    evaluate_model,
    kernel_submatrix,
    kkt_check,
    margins,
    normalize_adjacency,
    ntk_analytic,
    ntk_empirical,
    sample_csbm,
    samplewise_witness_point,
    solve_dual,
    solve_dual_pg,
)
from certlab.cli import ExperimentConfig, run
from conftest import random_psd

C_REG = 0.001
EPS_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5, 1.0)


@pytest.fixture(scope="module")
def instance():
    """CSBM n=60 (d from the floor(n/ln^2 n) rule), m=10, GCN and SGC NTKs."""
    graph = sample_csbm(CsbmParams(n=60, labeled_per_class=5, seed=0))
    conv = normalize_adjacency(graph, "row")
    kernels = {
        "gcn": ntk_analytic(ArchitectureSpec("gcn", 1, conv=conv), graph),
        "sgc": ntk_analytic(ArchitectureSpec("sgc", 1, conv=conv), graph),
    }
    lab, unl = graph.labeled, graph.unlabeled
    y = np.where(graph.labels == 2, 1.0, -1.0)[lab]
    rng = np.random.Generator(np.random.Philox(key=[0, 0]))
    t20 = np.sort(rng.choice(unl, size=20, replace=False))
    blocks = {}
    for name, kern in kernels.items():
        blocks[name] = {
            "Qtrain": kernel_submatrix(kern, lab, lab),
            "Qcross_all": kernel_submatrix(kern, unl, lab),
            "Qcross_20": kernel_submatrix(kern, t20, lab),
        }
    return {"graph": graph, "y": y, "unl": unl, "t20": t20, "blocks": blocks}


def test_criterion_1_samplewise_oracle_equivalence(instance):
    start = time.monotonic()
    y, unl = instance["y"], instance["unl"]
    for name, bl in instance["blocks"].items():
        for eps in (0.1, 0.2):  # r = 1, 2
            budget = Budget(eps, y.size)
            certs = certify_samples(bl["Qtrain"], bl["Qcross_all"], y, C_REG,
                                    budget, unl)
            flags, worsts = brute_force_oracle(bl["Qtrain"], bl["Qcross_all"],
                                               y, C_REG, budget, "sample")
            assert [c.robust for c in certs] == list(flags), (name, eps)
            np.testing.assert_allclose([c.worst_objective for c in certs],
                                       worsts, atol=1e-8)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 1 (sample-wise oracle equivalence, 50 nodes, "
          f"r in {{1,2}}, GCN+SGC): PASS in {elapsed:.1f}s")


def test_criterion_2_collective_oracle_equivalence(instance):
    start = time.monotonic()
    y, t20 = instance["y"], instance["t20"]
    for name, bl in instance["blocks"].items():
        for eps in (0.1, 0.2):
            budget = Budget(eps, y.size)
            cert = certify_collective(bl["Qtrain"], bl["Qcross_20"], y, C_REG,
                                      budget, t20)
            oracle = brute_force_oracle(bl["Qtrain"], bl["Qcross_20"], y,
                                        C_REG, budget, "collective")
            assert cert.max_misclassified == oracle.max_misclassified, (name, eps)
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(f"ACCEPTANCE 2 (collective oracle equivalence, |T|=20, r in {{1,2}}): "
          f"PASS in {elapsed:.1f}s")


def test_criterion_3_milp_witness_feasibility(instance):
    y, unl, t20 = instance["y"], instance["unl"], instance["t20"]
    m = y.size
    checked = 0
    for name, bl in instance["blocks"].items():
        clean = solve_dual(SvmProblem(bl["Qtrain"], y, C_REG))
        phat_all = margins(clean.alpha, y, bl["Qcross_all"])
        phat_20 = margins(clean.alpha, y, bl["Qcross_20"])
        for eps in (0.1, 0.2):
            budget = Budget(eps, m)
            certs = certify_samples(bl["Qtrain"], bl["Qcross_all"], y, C_REG,
                                    budget, unl)
            for row, cert in enumerate(certs):
                model = build_samplewise(bl["Qtrain"], bl["Qcross_all"][row], y,
                                         C_REG, eps, int(np.sign(phat_all[row])),
                                         node=cert.node)
                assert model.binary_count == 3 * m
                ytil = y.copy()
                ytil[list(cert.witness)] *= -1.0
                alpha = solve_dual(SvmProblem(bl["Qtrain"], ytil, C_REG)).alpha
                point = samplewise_witness_point(bl["Qtrain"], y, C_REG,
                                                 cert.witness, alpha)
                viol, obj = evaluate_model(model, point)
                assert viol <= 1e-6
                assert abs(obj - cert.worst_objective) <= 1e-6
                checked += 1
            coll = certify_collective(bl["Qtrain"], bl["Qcross_20"], y, C_REG,
                                      budget, t20)
            model = build_collective(bl["Qtrain"], bl["Qcross_20"], y, C_REG,
                                     eps, phat_20, test_ids=t20)
            assert model.binary_count == 3 * m + len(t20)
            ytil = y.copy()
            ytil[list(coll.witness)] *= -1.0
            alpha = solve_dual(SvmProblem(bl["Qtrain"], ytil, C_REG)).alpha
            point = collective_witness_point(bl["Qtrain"], bl["Qcross_20"], y,
                                             C_REG, coll.witness, alpha, phat_20,
                                             test_ids=t20)
            viol, obj = evaluate_model(model, point)
            assert viol <= 1e-6
            assert abs(obj - coll.max_misclassified) <= 1e-6
            checked += 1
    print(f"ACCEPTANCE 3 (witness feasibility, gap<=1e-6, binary counts 3m and "
          f"3m+|T|): PASS over {checked} embedded witnesses")


def test_criterion_4_full_budget_identity(instance):
    y, t20 = instance["y"], instance["t20"]
    for name, bl in instance["blocks"].items():
        clean = solve_dual(SvmProblem(bl["Qtrain"], y, C_REG))
        assert np.all(margins(clean.alpha, y, bl["Qcross_20"]) != 0.0)
        cert = certify_collective(bl["Qtrain"], bl["Qcross_20"], y, C_REG,
                                  Budget(1.0, y.size), t20)
        assert cert.max_misclassified == len(t20), name
    print("ACCEPTANCE 4 (eps=1 collective optimum equals |T|): PASS")


def test_criterion_5_monotonicity_and_dominance(instance):
    y, t20 = instance["y"], instance["t20"]
    for name, bl in instance["blocks"].items():
        sample_ratio, collective_ratio = [], []
        for eps in EPS_GRID:
            budget = Budget(eps, y.size)
            certs = certify_samples(bl["Qtrain"], bl["Qcross_20"], y, C_REG,
                                    budget, t20)
            robust = sum(c.robust for c in certs)
            coll = certify_collective(bl["Qtrain"], bl["Qcross_20"], y, C_REG,
                                      budget, t20)
            surviving = len(t20) - coll.max_misclassified
            assert surviving >= robust, (name, eps)
            sample_ratio.append(robust / len(t20))
            collective_ratio.append(surviving / len(t20))
        for series in (sample_ratio, collective_ratio):
            assert all(b <= a for a, b in zip(series, series[1:])), name
    print(f"ACCEPTANCE 5 (certified ratio non-increasing over eps grid "
          f"{EPS_GRID}; collective >= sample-wise): PASS")


def test_criterion_6_big_m_validity_sweep():
    graph = sample_csbm(CsbmParams(n=20, p=0.3, q=0.1, labeled_per_class=4, seed=1))
    conv = normalize_adjacency(graph, "row")
    kern = ntk_analytic(ArchitectureSpec("gcn", 1, conv=conv), graph)
    lab = graph.labeled
    q = kernel_submatrix(kern, lab, lab)
    y = np.where(graph.labels == 2, 1.0, -1.0)[lab]
    C = 0.5
    bm = big_m(q, C)
    m = y.size
    assert m == 8
    violations = relabelings = 0
    for k in range(3):  # exhaustive |flips| <= 2
        for combo in itertools.combinations(range(m), k):
            ytil = y.copy()
            ytil[list(combo)] *= -1.0
            problem = SvmProblem(q, ytil, C)
            sol = solve_dual(problem)
            cert = kkt_check(problem, sol.alpha)
            relabelings += 1
            if np.any(cert.u > bm.Mu + 1e-9) or np.any(cert.v > bm.Mv + 1e-9):
                violations += 1
    assert violations == 0
    print(f"ACCEPTANCE 6 (big-M validity, exhaustive r<=2 on m=8, "
          f"{relabelings} relabelings): PASS with zero violations")


@pytest.mark.slow
def test_criterion_7_ntk_validation():
    start = time.monotonic()
    graph = sample_csbm(CsbmParams(n=12, labeled_per_class=3, seed=0))
    conv = normalize_adjacency(graph, "row")
    specs = {
        "mlp": ArchitectureSpec("mlp", 1),
        "gcn": ArchitectureSpec("gcn", 1, conv=conv),
        "sgc": ArchitectureSpec("sgc", 1, conv=conv),
        "appnp": ArchitectureSpec("appnp", 1, conv=conv, alpha=0.1, power_k=10),
        "skip_pc": ArchitectureSpec("skip_pc", 1, conv=conv, skip_activation="relu"),
        "skip_alpha": ArchitectureSpec("skip_alpha", 1, conv=conv, alpha=0.2,
                                       skip_activation="relu"),
    }
    widths = (256, 1024, 4096)
    for name, spec in specs.items():
        reference = ntk_analytic(spec, graph).Q
        scale = np.linalg.norm(reference)
        final = np.linalg.norm(
            ntk_empirical(spec, graph, 4096, 20, seed=0).Q - reference) / scale
        assert final <= 0.05, name
        # realized error at 20 samples is sampling-noise dominated past
        # width ~1000; the width trend is asserted on seed-averaged errors
        means = []
        for width in widths:
            errs = [
                np.linalg.norm(ntk_empirical(spec, graph, width, 20, seed=s).Q
                               - reference) / scale
                for s in range(5)
            ]
            means.append(float(np.mean(errs)))
        assert means[0] >= means[1] >= means[2], (name, means)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0
    print(f"ACCEPTANCE 7 (NTK empirical vs analytic, 6 architectures, <=5% at "
          f"width 4096, non-increasing over {widths}): PASS in {elapsed:.1f}s")


def test_criterion_8_multiclass_containment():
    for seed in range(5):
        rng = np.random.Generator(np.random.Philox(100 + seed))
        full = random_psd(rng, 12, jitter=0.5)
        q = full[:9, :9]
        qcross = full[9:, :9]
        labels = np.repeat([1, 2, 3], 3)
        budget = Budget(0.12, 9)  # r = 1: 18 relabeling leaves + the clean one
        for row in range(3):
            exact = certify_multiclass_exact(q, qcross[row], labels, 3, 1.0,
                                             budget, t=row)
            flags, worsts = brute_force_oracle(q, qcross[row].reshape(1, -1),
                                               labels, 1.0, budget,
                                               "multiclass", num_classes=3)
            assert exact.robust == bool(flags[0])
            assert abs(exact.worst_objective - float(worsts[0])) <= 1e-8
            inexact = certify_multiclass_inexact(q, qcross[row], labels, 3, 1.0,
                                                 budget, t=row)
            if inexact.robust:
                assert exact.robust  # containment: zero counterexamples
            assert inexact.worst_objective <= exact.worst_objective + 1e-9
    print("ACCEPTANCE 8 (multi-class: inexact contained in exact over 5 seeds; "
          "exact agrees with the 18-leaf enumeration): PASS")


def test_criterion_9_svm_solver_correctness():
    rng = np.random.Generator(np.random.Philox(200))
    for k in range(100):
        q = random_psd(rng, 8)
        y = np.where(rng.random(8) < 0.5, 1.0, -1.0)
        C = float(rng.choice([0.1, 0.5, 1.0, 2.0]))
        problem = SvmProblem(q, y, C)
        cd = solve_dual(problem)
        pg = solve_dual_pg(problem)
        assert abs(cd.objective - pg.objective) <= 1e-8, k
        assert cd.kkt_residual <= 1e-9
        cert = kkt_check(problem, cd.alpha)
        assert cert.stationarity_residual <= 1e-9
        assert cert.complementarity_residual <= 1e-9
    print("ACCEPTANCE 9 (100 random 8x8 duals match the projected-gradient "
          "oracle within 1e-8; KKT residuals <= 1e-9): PASS")


def test_criterion_10_manifest_replay_determinism(tmp_path):
    config_doc = {
        "dataset": {"kind": "csbm", "n": 60, "labeled_per_class": 5},
        "architectures": [
            {"name": "gcn", "kind": "gcn", "depth": 1, "conv": "row", "C": C_REG},
            {"name": "sgc", "kind": "sgc", "depth": 1, "conv": "row", "C": C_REG},
        ],
        "epsilons": [0.1, 0.2],
        "certificate": "sample",
        "test_nodes": {"sample": 20, "seed": 0},
        "seeds": [0],
        "output_dir": str(tmp_path / "out"),
    }
    bundle = run(ExperimentConfig.from_dict(config_doc))
    first = open(bundle.metrics_path, "rb").read()
    manifest = json.load(open(bundle.manifest_path))
    bundle2 = run(ExperimentConfig.from_dict(manifest))
    second = open(bundle2.metrics_path, "rb").read()
    assert first == second
    print("ACCEPTANCE 10 (manifest replay reproduces byte-identical metrics "
          "CSV): PASS")
