"""Acceptance runs: the package-level checks, one test per criterion.

Each test prints a single summary line with the measured numbers (visible
with ``pytest -s`` or on failure) and enforces its runtime budget. Ensemble
experiments are cached at module scope so related criteria share one run.
"""

import time

import numpy as np
import pytest

from qbmlab.datasets import random_ti_teacher
from qbmlab.experiments import make_config, run_experiment
from qbmlab.linalg import expectation_value, gibbs_state
from qbmlab.operators import (
    assemble_hamiltonian,
    build_classical_bm,
    build_complete_pauli_set,
    build_fermionic_model,
    build_mean_field,
    build_transverse_ising_complete,
    complete_graph_edges,
)
from qbmlab.training import (
    PovmTrainingSet,
    child_seed,
    objective_povm_exact,
    objective_povm_gt,
)

_CACHE = {}


def _run(name, **overrides):
    """Run an experiment once per distinct override set; return (result, seconds)."""
    key = (name, tuple(sorted(overrides.items())))
    if key not in _CACHE:
        start = time.perf_counter()
        result = run_experiment(make_config(name, dict(overrides)))
        _CACHE[key] = (result, time.perf_counter() - start)
    return _CACHE[key]


def _report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_gradient_correctness():
    # every analytic gradient kind vs central finite differences, 100
    # instances per family at n <= 3; 1e-5 for the bound/series kinds,
    # 1e-6 for exact and relative-entropy kinds
    report, seconds = _run("gradcheck", ensemble=100)
    worst = {row["kind"]: 0.0 for row in report["table"]}
    for row in report["table"]:
        worst[row["kind"]] = max(worst[row["kind"]], row["max_rel_error"])
        assert row["max_rel_error"] <= row["tolerance"], row
    assert report["ok"]
    assert seconds < 120
    _report(
        "criterion 1 PASS: worst rel err per kind "
        + ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
        + f" ({seconds:.1f}s)"
    )


def test_criterion_02_golden_thompson_bound():
    start = time.perf_counter()
    rng = np.random.default_rng(20)
    models = [
        build_fermionic_model(2),
        build_transverse_ising_complete(3),
        build_complete_pauli_set(2),
        build_mean_field(3),
        build_classical_bm(3, edges=complete_graph_edges(3)),
    ]
    min_gap = np.inf
    for i in range(500):
        m = models[i % len(models)]
        dim = 2 ** (m.n_visible + m.n_hidden)
        theta = rng.normal(size=len(m.terms))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        g = a @ a.conj().T
        lam0 = 0.1 * np.eye(dim) + 0.8 * g / np.linalg.eigvalsh(g)[-1]
        p0 = rng.uniform(0.2, 0.8)
        data = PovmTrainingSet(
            elements=(lam0, np.eye(dim) - lam0), probabilities=np.array([p0, 1 - p0])
        )
        gap = objective_povm_exact(m, theta, data) - objective_povm_gt(m, theta, data)
        min_gap = min(min_gap, gap)
        assert gap >= -1e-9
    # commuting full-rank instances: the bound is tight
    worst_equality = 0.0
    m = build_classical_bm(2, edges=((0, 1),))
    for _ in range(100):
        theta = rng.normal(size=3)
        u = rng.uniform(0.2, 0.8, size=4)
        p0 = rng.uniform(0.2, 0.8)
        data = PovmTrainingSet(
            elements=(np.diag(u).astype(complex), np.diag(1 - u).astype(complex)),
            probabilities=np.array([p0, 1 - p0]),
        )
        dev = abs(objective_povm_exact(m, theta, data) - objective_povm_gt(m, theta, data))
        worst_equality = max(worst_equality, dev)
        assert dev <= 1e-8
    seconds = time.perf_counter() - start
    assert seconds < 60
    _report(
        f"criterion 2 PASS: exact - GT slack >= {min_gap:.2e} on 500 instances (tol -1e-9), "
        f"worst commuting gap {worst_equality:.2e} (tol 1e-8) ({seconds:.1f}s)"
    )


def test_criterion_03_tomography_mixed():
    summary, seconds = _run("tomography", ensemble=100, epochs=50)
    median_at_50 = summary.curves["p50"][50]
    assert median_at_50 <= 1e-8
    assert seconds < 120
    _report(f"criterion 3 PASS: mixed median S at epoch 50 = {median_at_50:.2e} <= 1e-8 ({seconds:.1f}s)")


def test_criterion_04_tomography_pure_vs_mixed():
    mixed, s1 = _run("tomography", ensemble=100, epochs=50)
    pure, s2 = _run("tomography", ensemble=100, epochs=50, target_kind="pure")
    m35 = mixed.curves["p50"][35]
    p35 = pure.curves["p50"][35]
    assert p35 > m35
    assert s1 + s2 < 240
    _report(f"criterion 4 PASS: median S at epoch 35, pure {p35:.2e} > mixed {m35:.2e} ({s1 + s2:.1f}s)")


def test_criterion_05_meanfield_plateau():
    summary, seconds = _run("meanfield")
    med = summary.curves["p50"]
    deviation = abs(med[2] - med[100]) / med[100]
    assert deviation <= 0.10
    assert seconds < 600
    _report(
        f"criterion 5a PASS: median S epoch 2 = {med[2]:.4f} within "
        f"{100 * deviation:.1f}% of epoch 100 = {med[100]:.4f} ({seconds:.1f}s)"
    )


def _product_of_marginals(rho, n):
    """Closed-form mean-field optimum: the product of rho's single-qubit marginals."""
    t = rho.reshape((2,) * (2 * n))
    sigma = np.ones((1, 1), dtype=complex)
    for j in range(n):
        moved = np.moveaxis(t, (j, n + j), (0, 1)).reshape(2, 2, 2 ** (n - 1), 2 ** (n - 1))
        sigma = np.kron(sigma, np.trace(moved, axis1=2, axis2=3))
    return sigma


def test_criterion_05_meanfield_overlap():
    # The band applies to the Uhlmann fidelity, which scores a perfect fit
    # as 1; raw Tr(rho sigma) scores it at the teacher's purity instead.
    summary, seconds = _run("meanfield")
    fid = summary.extras["median_final_fidelity"]
    overlap = summary.extras["median_final_overlap"]
    # Relative entropy over all product states is minimized by matching every
    # single-qubit marginal, so the trained overlap must match the closed form.
    config = make_config("meanfield")
    optimum = []
    for i in range(config.ensemble):
        rng = np.random.default_rng(child_seed(config.seed, i))
        _, _, target = random_ti_teacher(config.n_visible, False, rng)
        sigma = _product_of_marginals(target.rho, config.n_visible)
        optimum.append(expectation_value(target.rho, sigma))
    closed_form = float(np.median(optimum))
    _report(
        f"criterion 5b: median final fidelity F = {fid:.3f}, required band [0.5, 0.9]; "
        f"median final Tr(rho sigma) = {overlap:.6f} vs closed-form optimum "
        f"{closed_form:.6f} (tol 1e-6) ({seconds:.1f}s)"
    )
    assert abs(overlap - closed_form) <= 1e-6
    assert 0.5 <= fid <= 0.9


def test_criterion_06_hamiltonian_learning():
    total = 0.0
    finals = {}
    for n in (2, 3):
        norm, s1 = _run("hamlearn", n_visible=n)
        finals[n] = (
            norm.extras["normalized"]["median_final_s"],
            norm.extras["unnormalized"]["median_final_s"],
        )
        total += s1
        assert finals[n][0] < finals[n][1], (n, finals[n])
        # median learning curve never moves away from the teacher
        med = norm.extras["normalized"]["s"]["p50"]
        assert np.all(np.diff(med) <= 1e-12)
    assert total < 600
    _report(
        "criterion 6 PASS: median S at epoch 100 (normalized < unnormalized) "
        + ", ".join(f"n={n}: {a:.2e} < {b:.2e}" for n, (a, b) in finals.items())
        + f" ({total:.1f}s)"
    )


def test_criterion_07_commutator_training():
    summary, seconds = _run("commutator-compare")
    final_a = summary.extras["final_a"]
    final_b = summary.extras["final_b"]
    assert final_b >= final_a, (final_a, final_b)
    # truncation-order sweep at ||H||_2 <= 1 against the exact gradient.
    # The error is strictly decreasing from order 2 on. Order 1 sits BELOW
    # order 2: for small quantum weights the real part of the first
    # commutator correction cancels half of the order-1 residual, so the
    # order-2 truncation error is asymptotically exactly twice the order-1
    # error; from order 3 on the series beats both.
    report, s2 = _run("gradcheck", ensemble=100)
    sweep = report["ksweep"]
    errors = np.asarray(sweep["mean_errors"])
    assert sweep["monotone_from_2"]
    assert np.all(np.diff(errors[1:]) < 0)
    assert np.all(errors[2:] < errors[0])
    assert 1.7 <= sweep["first_step_ratio"] <= 2.4
    assert seconds < 180
    _report(
        f"criterion 7 PASS: spliced schedule final {final_b:.4f} >= plain {final_a:.4f}; "
        f"sweep errors {', '.join(f'{e:.1e}' for e in errors)} strictly decreasing from order 2, "
        f"order-2/order-1 ratio {sweep['first_step_ratio']:.2f} ({seconds + s2:.1f}s)"
    )


def test_criterion_08_quantum_vs_classical():
    summary, seconds = _run("povm-train")
    grid = summary.extras["grid"]
    assert summary.extras["quantum_beats_classical"]
    gaps = []
    for point in grid:
        gap = point["final_quantum"] - point["final_classical"]
        gaps.append(gap)
        assert gap >= 0, point
    assert len(grid) == 9  # n_visible 3,4,5 x n_hidden 0,1,2
    assert seconds < 900
    _report(
        f"criterion 8 PASS: quantum - classical final objective gaps "
        f"min {min(gaps):+.3f}, max {max(gaps):+.3f} over 9 grid points ({seconds:.1f}s)"
    )


def test_criterion_09_variance_theorem():
    report, seconds = _run("variance-sweep")
    slope = report["slope"]
    ratio = report["ratio_mean"]
    assert -1.15 <= slope <= -0.85
    assert 1.4 <= ratio <= 2.6
    assert seconds < 300
    _report(
        f"criterion 9 PASS: log-log MSE slope {slope:.3f} in -1 +/- 0.15, "
        f"M-doubling MSE ratio {ratio:.2f} in [1.4, 2.6] ({seconds:.1f}s)"
    )


def test_criterion_10_determinism(tmp_path):
    out = tmp_path / "rerun"
    overrides = {"ensemble": "5", "epochs": "10", "out": str(out)}
    run_experiment(make_config("hamlearn", overrides))
    snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
    assert snapshot
    run_experiment(make_config("hamlearn", overrides))
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert snapshot == after
    _report(f"criterion 10 PASS: {len(snapshot)} output files byte-identical across reruns")
