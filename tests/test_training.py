"""Objectives, gradients and the optimizer loop."""

import math

import numpy as np
import pytest

from qbmlab.linalg import frechet_exp_neg, gibbs_state
from qbmlab.operators import (
    assemble_hamiltonian,
    build_classical_bm,
    build_complete_pauli_set,
    build_fermionic_model,
    build_mean_field,
    complete_graph_edges,
)
from qbmlab.training import (
    GRADIENT_KINDS,
    MAX_COMMUTATOR_ORDER,
    OptimizerConfig,
    PovmTrainingSet,
    StateTrainingSet,
    grad_povm_commutator,
    grad_povm_exact,
    grad_povm_gt,
    grad_relent,
    grad_relent_sampled,
    objective_povm_exact,
    objective_povm_gt,
    objective_relent,
    sampled_expectation,
    trace_to_csv,
    train,
)
from qbmlab.datasets import random_mixed, step_function_state

from conftest import random_full_rank_povm


def central_difference(fun, theta, step=1e-6):
    g = np.zeros_like(theta)
    for j in range(theta.size):
        up, dn = theta.copy(), theta.copy()
        up[j] += step
        dn[j] -= step
        g[j] = (fun(up) - fun(dn)) / (2 * step)
    return g


def diagonal_povm(dim, rng):
    """Full-rank POVM that commutes with every diagonal Hamiltonian."""
    u = rng.uniform(0.2, 0.8, size=dim)
    p0 = rng.uniform(0.2, 0.8)
    return PovmTrainingSet(
        elements=(np.diag(u).astype(complex), np.diag(1.0 - u).astype(complex)),
        probabilities=np.array([p0, 1.0 - p0]),
    )


class TestTrainingSets:
    def test_povm_accepts_valid(self, rng):
        random_full_rank_povm(4, rng)

    def test_povm_rejects_incomplete(self):
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            PovmTrainingSet(elements=(half, half / 2), probabilities=np.array([0.5, 0.5]))

    def test_povm_rejects_negative_element(self):
        bad = np.diag([1.5, -0.5]).astype(complex)
        with pytest.raises(ValueError):
            PovmTrainingSet(elements=(bad, np.eye(2) - bad), probabilities=np.array([0.5, 0.5]))

    def test_povm_rejects_bad_probabilities(self):
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(ValueError):
            PovmTrainingSet(elements=(half, half), probabilities=np.array([0.7, 0.7]))

    def test_povm_validate_flag_skips_checks(self):
        half = np.eye(2, dtype=complex) / 2
        PovmTrainingSet(elements=(half, half), probabilities=np.array([0.7, 0.7]), validate=False)

    def test_state_set_rejects_non_density(self):
        with pytest.raises(ValueError):
            StateTrainingSet(rho=np.diag([2.0, -1.0]).astype(complex))


class TestOptimizerConfig:
    def test_defaults_valid(self):
        cfg = OptimizerConfig()
        assert cfg.gradient_kind in GRADIENT_KINDS

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gradient_kind="newton"),
            dict(learning_rate=-0.1),
            dict(momentum=1.0),
            dict(momentum=-0.2),
            dict(epochs=0),
            dict(lam=-1.0),
            dict(commutator_order=0),
            dict(n_samples=0),
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    def test_zero_learning_rate_allowed(self):
        OptimizerConfig(learning_rate=0.0)


class TestObjectives:
    def test_gt_lower_bounds_exact(self, rng):
        # Golden-Thompson: Tr[e^{A+B}] <= Tr[e^A e^B]
        m = build_fermionic_model(2)
        for _ in range(50):
            theta = rng.normal(size=len(m.terms))
            data = random_full_rank_povm(4, rng)
            assert objective_povm_gt(m, theta, data) <= objective_povm_exact(m, theta, data) + 1e-9

    def test_gt_equals_exact_when_commuting(self, rng):
        m = build_classical_bm(2, edges=((0, 1),))
        for _ in range(20):
            theta = rng.normal(size=3)
            data = diagonal_povm(4, rng)
            a = objective_povm_gt(m, theta, data)
            b = objective_povm_exact(m, theta, data)
            assert abs(a - b) < 1e-8

    def test_regularizer_penalizes_quantum_weights_only(self, rng):
        m = build_mean_field(2)
        theta = rng.normal(size=6)
        data = random_full_rank_povm(4, rng)
        base = objective_povm_exact(m, theta, data)
        quantum = np.array([t.is_quantum for t in m.terms])
        penalty = 0.5 * 0.3 * float(theta[quantum] @ theta[quantum])
        assert abs(objective_povm_exact(m, theta, data, lam=0.3) - (base - penalty)) < 1e-12

    def test_relent_zero_at_match(self, rng):
        m = build_complete_pauli_set(1)
        theta = rng.normal(size=3)
        rho, _ = gibbs_state(assemble_hamiltonian(m, theta))
        data = StateTrainingSet(rho=rho)
        # objective is -S(rho||sigma), maximal at 0 when sigma == rho
        assert abs(objective_relent(m, theta, data)) < 1e-10
        assert objective_relent(m, theta + 0.5, data) < 0


class TestGradients:
    def test_exact_matches_finite_difference(self, rng):
        m = build_fermionic_model(2)
        theta = rng.normal(size=len(m.terms)) * 0.4
        data = random_full_rank_povm(4, rng)
        fd = central_difference(lambda t: objective_povm_exact(m, t, data, lam=0.2), theta)
        g = grad_povm_exact(m, theta, data, lam=0.2)
        assert np.linalg.norm(g - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_gt_matches_finite_difference(self, rng):
        m = build_fermionic_model(2)
        theta = rng.normal(size=len(m.terms)) * 0.4
        data = random_full_rank_povm(4, rng)
        fd = central_difference(lambda t: objective_povm_gt(m, t, data, lam=0.2), theta)
        g = grad_povm_gt(m, theta, data, lam=0.2)
        assert np.linalg.norm(g - fd) < 1e-5 * max(1.0, np.linalg.norm(fd))

    def test_relent_matches_finite_difference(self, rng):
        m = build_complete_pauli_set(2)
        theta = rng.normal(size=15) * 0.3
        data = random_mixed(2, rng)
        fd = central_difference(lambda t: objective_relent(m, t, data, lam=0.1), theta)
        g = grad_relent(m, theta, data, lam=0.1)
        assert np.linalg.norm(g - fd) < 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_relent_zero_gradient_at_optimum(self, rng):
        m = build_complete_pauli_set(1)
        theta = rng.normal(size=3)
        rho, _ = gibbs_state(assemble_hamiltonian(m, theta))
        g = grad_relent(m, theta, StateTrainingSet(rho=rho))
        assert np.linalg.norm(g) < 1e-10

    def test_commutator_converges_to_exact(self, rng):
        m = build_fermionic_model(2)
        theta = rng.normal(size=len(m.terms))
        theta /= np.linalg.norm(assemble_hamiltonian(m, theta), 2)  # keep ||H|| = 1
        data = random_full_rank_povm(4, rng)
        g_exact = grad_povm_exact(m, theta, data)
        g_series = grad_povm_commutator(m, theta, data, order=MAX_COMMUTATOR_ORDER)
        assert np.linalg.norm(g_series - g_exact) < 1e-6 * max(1.0, np.linalg.norm(g_exact))

    def test_commutator_exact_for_commuting_model(self, rng):
        # every nested commutator vanishes for a diagonal Hamiltonian, so
        # truncation order is irrelevant
        m = build_classical_bm(2, edges=((0, 1),))
        theta = rng.normal(size=3)
        data = random_full_rank_povm(4, rng)
        g_exact = grad_povm_exact(m, theta, data)
        for order in (1, 2, 5):
            g = grad_povm_commutator(m, theta, data, order=order)
            assert np.linalg.norm(g - g_exact) < 1e-10

    def test_commutator_order_validated(self, rng):
        m = build_fermionic_model(2)
        data = random_full_rank_povm(4, rng)
        with pytest.raises(ValueError):
            grad_povm_commutator(m, np.zeros(len(m.terms)), data, order=0)
        with pytest.raises(ValueError):
            grad_povm_commutator(m, np.zeros(len(m.terms)), data, order=MAX_COMMUTATOR_ORDER + 1)


class TestPerTermOracles:
    """Adjoint-form gradients against term-by-term reference formulas.

    Fermionic 3+1 does not commute and has a hidden unit, so the POVM
    elements are padded and every nested commutator is nonzero.
    """

    @pytest.fixture
    def problem(self, rng):
        m = build_fermionic_model(3, 1)
        theta = rng.normal(size=len(m.terms))
        theta *= 2.0 / np.linalg.norm(assemble_hamiltonian(m, theta), 2)  # ||H|| = 2
        data = random_full_rank_povm(8, rng)
        H = assemble_hamiltonian(m, theta)
        padded = [np.kron(el, np.eye(2)) for el in data.elements]
        return m, theta, data, H, padded

    def test_exact_matches_per_term_frechet_derivative(self, problem):
        m, theta, data, H, padded = problem
        evals, V = np.linalg.eigh(H)
        exp_neg_h = (V * np.exp(-evals)) @ V.conj().T
        rho = exp_neg_h / np.trace(exp_neg_h).real
        want = np.array([
            np.trace(rho @ t.matrix).real
            + sum(
                p * np.trace(el @ frechet_exp_neg(H, t.matrix)).real
                / np.trace(el @ exp_neg_h).real
                for el, p in zip(padded, data.probabilities)
            )
            for t in m.terms
        ])
        got = grad_povm_exact(m, theta, data)
        assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("order", range(1, MAX_COMMUTATOR_ORDER + 1))
    def test_commutator_matches_per_term_series(self, problem, order):
        m, theta, data, H, padded = problem
        rho, _ = gibbs_state(H)
        want = []
        for t in m.terms:
            # sum_m (-1)^m ad_H^m(H_j) / (m+1)!
            series = t.matrix.astype(complex)
            nested = t.matrix
            for k in range(1, order):
                nested = H @ nested - nested @ H
                series = series + (-1) ** k / math.factorial(k + 1) * nested
            want.append(np.trace(rho @ t.matrix).real - sum(
                p * np.trace(el @ series @ rho).real / np.trace(rho @ el).real
                for el, p in zip(padded, data.probabilities)
            ))
        want = np.array(want)
        got = grad_povm_commutator(m, theta, data, order=order)
        assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)


class TestSampledGradient:
    def test_sampled_expectation_deterministic_eigenstate(self):
        # measuring Z on |0> always returns +1, whatever the sample count
        z = np.diag([1.0, -1.0]).astype(complex)
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert sampled_expectation(rho, z, 64, 0) == 1.0

    def test_sampled_expectation_reproducible(self, rng):
        rho = random_mixed(1, rng).rho
        z = np.diag([1.0, -1.0]).astype(complex)
        a = sampled_expectation(rho, z, 512, 42)
        b = sampled_expectation(rho, z, 512, 42)
        assert a == b

    def test_sampled_gradient_concentrates(self, rng):
        m = build_mean_field(1)
        theta = rng.normal(size=3) * 0.5
        data = random_mixed(1, rng)
        g_true = grad_relent(m, theta, data)
        err = np.zeros(2)
        for i, n in enumerate((128, 4096)):
            sq = 0.0
            for rep in range(40):
                g = grad_relent_sampled(m, theta, data, n_samples=n, rng_seed=1000 * i + rep)
                sq += np.sum((g - g_true) ** 2)
            err[i] = sq / 40
        # 32x more samples should cut the MSE by well over 4x
        assert err[1] < err[0] / 4


class TestTrainLoop:
    def test_records_epochs_plus_one(self, rng):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        cfg = OptimizerConfig(gradient_kind="relent", epochs=7, learning_rate=0.5)
        tr = train(m, np.zeros(3), data, cfg)
        assert list(tr.epochs) == list(range(8))
        assert not tr.diverged

    def test_zero_learning_rate_freezes_theta(self, rng):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        theta0 = rng.normal(size=3)
        cfg = OptimizerConfig(gradient_kind="relent", learning_rate=0.0, epochs=5)
        tr = train(m, theta0, data, cfg)
        for theta in tr.thetas:
            assert np.array_equal(theta, theta0)
        assert np.ptp(tr.objectives) == 0.0

    def test_heavy_ball_update_rule(self, rng):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        theta0 = rng.normal(size=3) * 0.2
        cfg = OptimizerConfig(gradient_kind="relent", learning_rate=0.3, momentum=0.6, epochs=2)
        tr = train(m, theta0, data, cfg)
        v = cfg.learning_rate * grad_relent(m, theta0, data)
        theta1 = theta0 + v
        v = cfg.momentum * v + cfg.learning_rate * grad_relent(m, theta1, data)
        theta2 = theta1 + v
        assert np.allclose(tr.thetas[1], theta1, atol=1e-14)
        assert np.allclose(tr.thetas[2], theta2, atol=1e-14)

    def test_relent_training_improves(self, rng):
        m = build_complete_pauli_set(2)
        data = random_mixed(2, rng)
        cfg = OptimizerConfig(gradient_kind="relent", learning_rate=1.0, epochs=30)
        tr = train(m, np.zeros(15), data, cfg)
        assert tr.objectives[-1] > tr.objectives[0]
        assert -tr.objectives[-1] < 1e-6  # S(rho||sigma) near zero

    def test_divergence_sets_flag_keeps_records(self):
        _, povm, _ = step_function_state(2, 0.1)
        m = build_fermionic_model(2)
        cfg = OptimizerConfig(gradient_kind="commutator", learning_rate=100.0, epochs=30, commutator_order=5)
        tr = train(m, 5.0 * np.ones(len(m.terms)), povm, cfg)
        assert tr.diverged
        assert 0 < len(tr.records) < 31
        assert "non-finite" in tr.note
        for r in tr.records:
            assert np.isfinite(r.objective)

    def test_sampled_training_reproducible(self, rng):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        cfg = OptimizerConfig(gradient_kind="relent_sampled", learning_rate=0.5, epochs=4, n_samples=64)
        a = train(m, np.zeros(3), data, cfg, rng_seed=7)
        b = train(m, np.zeros(3), data, cfg, rng_seed=7)
        assert np.array_equal(a.final_theta, b.final_theta)
        c = train(m, np.zeros(3), data, cfg, rng_seed=8)
        assert not np.array_equal(a.final_theta, c.final_theta)

    def test_theta_length_mismatch(self, rng):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        with pytest.raises(ValueError):
            train(m, np.zeros(4), data, OptimizerConfig(gradient_kind="relent"))

    def test_povm_data_required_for_povm_kinds(self, rng):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        with pytest.raises(ValueError):
            train(m, np.zeros(3), data, OptimizerConfig(gradient_kind="gt"))


class TestTraceCsv:
    def test_round_trip_columns(self, rng, tmp_path):
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        cfg = OptimizerConfig(gradient_kind="relent", learning_rate=0.5, epochs=3)
        tr = train(m, np.zeros(3), data, cfg)
        path = tmp_path / "trace.csv"
        trace_to_csv(tr, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,objective,grad_norm,elapsed_s,theta_0,theta_1,theta_2"
        assert len(lines) == 5
        row = lines[2].split(",")
        assert float(row[1]) == tr.objectives[1]  # repr round-trips exactly
        assert float(row[4]) == tr.thetas[1][0]

    def test_empty_trace_rejected(self, tmp_path):
        from qbmlab.training import TrainingTrace

        with pytest.raises(ValueError):
            trace_to_csv(TrainingTrace(), tmp_path / "x.csv")
