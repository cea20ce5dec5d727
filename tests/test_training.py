"""Objectives, gradients and the optimizer loop."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qbmlab
import qbmlab.linalg as linalg
import qbmlab.training as training
from qbmlab.linalg import frechet_exp_neg, gibbs_state, relative_entropy
from qbmlab.operators import (
    assemble_hamiltonian,
    build_classical_bm,
    build_complete_pauli_set,
    build_fermionic_model,
    build_mean_field,
    build_model,
    complete_graph_edges,
)
from qbmlab.training import (
    GRADIENT_KINDS,
    MAX_COMMUTATOR_ORDER,
    OptimizerConfig,
    PovmTrainingSet,
    StateTrainingSet,
    TraceRecord,
    child_seed,
    embed_target_state,
    grad_povm_commutator,
    grad_povm_exact,
    grad_povm_gt,
    grad_relent,
    grad_relent_sampled,
    objective_povm_exact,
    objective_povm_gt,
    objective_relent,
    sampled_expectation,
    term_expectations,
    train,
)
from qbmlab.datasets import random_mixed, random_ti_teacher, step_function_state

from conftest import ENTRY_LIST_MODELS, entry_list_model, random_full_rank_povm


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

    def test_state_set_rejects_non_density(self):
        with pytest.raises(ValueError):
            StateTrainingSet(rho=np.diag([2.0, -1.0]).astype(complex))

    def test_povm_rejects_non_finite(self):
        half = np.eye(2) / 2
        with pytest.raises(ValueError, match="finite"):
            PovmTrainingSet(elements=(half, half), probabilities=[np.nan, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            PovmTrainingSet(elements=(np.full((2, 2), np.nan), half), probabilities=[0.5, 0.5])

    def test_records_compare_and_hash_by_identity(self, rng):
        rho = random_mixed(1, rng).rho
        povm = random_full_rank_povm(2, rng)
        records = [
            (StateTrainingSet(rho=rho), StateTrainingSet(rho=rho)),
            (povm, PovmTrainingSet(elements=povm.elements, probabilities=povm.probabilities)),
            (TraceRecord(0, np.zeros(2), 0.0, 0.0), TraceRecord(0, np.zeros(2), 0.0, 0.0)),
        ]
        for record, twin in records:
            assert record == record and record != twin
            assert {record: 1, twin: 2}[record] == 1

    def test_state_set_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            StateTrainingSet(rho=np.full((2, 2), np.nan))


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

    @pytest.mark.parametrize("n_hidden", [0, 1])
    def test_relent_equals_negative_relative_entropy(self, rng, n_hidden):
        # spectrum-only logZ and the cached target entropy against the
        # two-eigendecomposition relative_entropy
        m = build_fermionic_model(2, n_hidden)
        data = random_mixed(2, rng)
        for _ in range(5):
            theta = rng.normal(size=m.n_terms)
            sigma, _ = gibbs_state(assemble_hamiltonian(m, theta))
            expected = -relative_entropy(embed_target_state(data.rho, n_hidden), sigma)
            value = objective_relent(m, theta, data)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_target_entropy_computed_once_per_set(self, rng, monkeypatch):
        calls = []
        original = training.von_neumann_entropy

        def counting(rho):
            calls.append(rho.shape)
            return original(rho)

        monkeypatch.setattr(training, "von_neumann_entropy", counting)
        m = build_complete_pauli_set(2)
        first, second = random_mixed(2, rng), random_mixed(2, rng)
        for _ in range(5):
            theta = rng.normal(size=m.n_terms)
            objective_relent(m, theta, first)
            objective_relent(m, theta, second)
        assert len(calls) == 2


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

    @staticmethod
    def exact_oracle(m, H, padded, probabilities):
        evals, V = np.linalg.eigh(H)
        exp_neg_h = (V * np.exp(-evals)) @ V.conj().T
        rho = exp_neg_h / np.trace(exp_neg_h).real
        return np.array([
            np.trace(rho @ t.matrix).real
            + sum(
                p * np.trace(el @ frechet_exp_neg(H, t.matrix)).real
                / np.trace(el @ exp_neg_h).real
                for el, p in zip(padded, probabilities)
            )
            for t in m.terms
        ])

    def test_exact_matches_per_term_frechet_derivative(self, problem):
        m, theta, data, H, padded = problem
        want = self.exact_oracle(m, H, padded, data.probabilities)
        got = grad_povm_exact(m, theta, data)
        assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want)

    def test_exact_with_real_eigenvectors_and_real_data(self, problem):
        # fermionic H and the step-function projectors are real: every solve is real
        m, theta, _, H, _ = problem
        _, data, _ = step_function_state(3)
        padded = [np.kron(el, np.eye(2)) for el in data.elements]
        got = grad_povm_exact(m, theta, data)
        assert training._evaluate(m, theta).eigen.eigenvectors.dtype == np.float64
        want = self.exact_oracle(m, H, padded, data.probabilities)
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


class TestChildSeed:
    def test_equals_the_spawned_child_and_leaves_the_root_alone(self):
        stream = lambda s: (s.entropy, s.spawn_key, s.pool_size, list(s.generate_state(4)))
        for spawn_key, pool_size in (((), 4), ((3,), 8)):
            root = np.random.SeedSequence(7, spawn_key=spawn_key, pool_size=pool_size)
            twin = np.random.SeedSequence(7, spawn_key=spawn_key, pool_size=pool_size)
            for i, child in enumerate(twin.spawn(3)):
                assert stream(child_seed(root, i)) == stream(child)
                assert stream(child_seed(root, i, 5)) == stream(child.spawn(6)[5])
            assert root.n_children_spawned == 0
        # an int root stands for SeedSequence(root)
        assert stream(child_seed(7, 2)) == stream(np.random.SeedSequence(7).spawn(3)[2])

    def test_a_reused_seed_sequence_gives_the_same_draws(self, rng):
        # spawn() advances its SeedSequence, so a second call drew new streams
        m = build_mean_field(1)
        data = random_mixed(1, rng)
        theta = rng.normal(size=3)
        seed = np.random.SeedSequence(5)
        first = grad_relent_sampled(m, theta, data, n_samples=16, rng_seed=seed)
        assert np.array_equal(grad_relent_sampled(m, theta, data, n_samples=16, rng_seed=seed), first)
        cfg = OptimizerConfig(gradient_kind="relent_sampled", learning_rate=0.5, epochs=3, n_samples=16)
        a = train(m, np.zeros(3), data, cfg, rng_seed=seed)
        b = train(m, np.zeros(3), data, cfg, rng_seed=seed)
        assert np.array_equal(a.thetas, b.thetas)
        # an int root names the same streams
        assert np.array_equal(train(m, np.zeros(3), data, cfg, rng_seed=5).thetas, a.thetas)

    def test_only_child_seed_makes_seed_sequences(self):
        # every stream is a key path below a root; spawn() would consume its root
        pattern = re.compile(r"SeedSequence\(|\.spawn\(")
        package = Path(qbmlab.__file__).parent
        helper = next(node for node in ast.parse((package / "training.py").read_text()).body
                      if isinstance(node, ast.FunctionDef) and node.name == "child_seed")
        offenders = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)
            and not (path.name == "training.py" and helper.lineno <= number <= helper.end_lineno)
        ]
        assert offenders == []


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

    @pytest.mark.parametrize("kind", ["relent", "relent_sampled"])
    def test_state_training_records_the_overlap_of_each_epoch(self, kind, rng):
        # with a hidden unit the target is embedded as rho (x) I/2
        m = build_classical_bm(2, 1, complete_graph_edges(3))
        data = random_mixed(2, rng)
        cfg = OptimizerConfig(gradient_kind=kind, learning_rate=0.5, epochs=3, n_samples=64)
        tr = train(m, rng.normal(size=m.n_terms), data, cfg)
        target = embed_target_state(data.rho, 1)
        for record in tr.records:
            sigma = gibbs_state(assemble_hamiltonian(m, record.theta))[0]
            assert record.overlap == linalg.expectation_value(target, sigma)

    def test_povm_training_records_no_overlap(self):
        _, povm, _ = step_function_state(2, 0.1)
        m = build_fermionic_model(2)
        tr = train(m, np.zeros(m.n_terms), povm, OptimizerConfig("gt", epochs=2))
        assert [r.overlap for r in tr.records] == [None] * 3

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


class TestTermExpectations:
    @pytest.mark.parametrize("name", ENTRY_LIST_MODELS)
    def test_matches_dense_stack(self, name, rng):
        model = entry_list_model(name, rng)
        X = rng.normal(size=(model.dim, model.dim)) + 1j * rng.normal(size=(model.dim, model.dim))
        got = term_expectations(model, X)
        want = np.tensordot(model.matrix_stack, X, axes=([1, 2], [1, 0])).real
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    def test_state_shape_checked(self):
        with pytest.raises(ValueError):
            term_expectations(build_mean_field(2), np.eye(2))

    def test_training_never_builds_the_dense_stack(self, rng):
        m = build_fermionic_model(2, 1)
        data = random_full_rank_povm(4, rng)
        cfg = OptimizerConfig(gradient_kind="exact", learning_rate=0.1, epochs=2)
        train(m, np.zeros(len(m.terms)), data, cfg)
        assert "entries" in vars(m)
        assert "matrix_stack" not in vars(m)


# Every public objective and gradient at (model, theta, POVM data, state data).
EVALUATIONS = {
    "objective_povm_exact": lambda m, t, povm, state: objective_povm_exact(m, t, povm, 0.3),
    "objective_povm_gt": lambda m, t, povm, state: objective_povm_gt(m, t, povm, 0.3),
    "objective_relent": lambda m, t, povm, state: objective_relent(m, t, state, 0.3),
    "grad_povm_gt": lambda m, t, povm, state: grad_povm_gt(m, t, povm, 0.3),
    "grad_povm_exact": lambda m, t, povm, state: grad_povm_exact(m, t, povm, 0.3),
    "grad_povm_commutator": lambda m, t, povm, state: grad_povm_commutator(m, t, povm, 0.3, 4),
    "grad_relent": lambda m, t, povm, state: grad_relent(m, t, state, 0.3),
    "grad_relent_sampled": lambda m, t, povm, state: grad_relent_sampled(
        m, t, state, 0.3, n_samples=64, rng_seed=5
    ),
}


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)


class TestEvaluationRecord:
    """Each model keeps H, its eigensystem, rho and log Z at the last theta."""

    @pytest.fixture
    def problem(self, rng):
        # one hidden unit, so the padded POVM elements and logarithms differ
        # from the visible ones
        theta = 0.4 * rng.normal(size=build_fermionic_model(2, 1).n_terms)
        other = 0.4 * rng.normal(size=theta.size)
        return theta, other, random_full_rank_povm(4, rng), random_mixed(2, rng)

    @pytest.mark.parametrize("name", EVALUATIONS)
    def test_value_does_not_depend_on_history(self, name, problem):
        theta, other, povm, state = problem
        fresh = EVALUATIONS[name](build_fermionic_model(2, 1), theta, povm, state)

        warm = build_fermionic_model(2, 1)
        for evaluate in EVALUATIONS.values():
            evaluate(warm, theta.copy(), povm, state)
        after_same = EVALUATIONS[name](warm, theta, povm, state)

        moved = build_fermionic_model(2, 1)
        for evaluate in EVALUATIONS.values():
            evaluate(moved, other, povm, state)
        after_other = EVALUATIONS[name](moved, theta, povm, state)

        for value in (after_same, after_other):
            assert np.array_equal(value, fresh)

    def test_models_share_nothing(self, rng):
        first = build_mean_field(2)
        # same term count and dimension, other Hamiltonian
        second = type(first)("mean_field", 2, 0, first.terms[::-1])
        theta = rng.normal(size=first.n_terms)
        data = random_mixed(2, rng)
        want = grad_relent(type(first)("mean_field", 2, 0, first.terms[::-1]), theta, data)
        grad_relent(first, theta, data)
        assert np.array_equal(grad_relent(second, theta, data), want)
        a, b = training._evaluate(first, theta), training._evaluate(second, theta)
        for x, y in zip((a.H, *a.eigen, a.rho), (b.H, *b.eigen, b.rho)):
            assert not np.shares_memory(x, y)
        assert not np.array_equal(a.H, b.H)

    def test_cached_arrays_read_only(self, problem):
        theta, _, povm, _ = problem
        m = build_fermionic_model(2, 1)
        grad_povm_gt(m, theta, povm)
        record = training._evaluate(m, theta)
        for array in (record.H, *record.eigen, record.weights, record.rho):
            assert not array.flags.writeable
        with pytest.raises(ValueError):
            record.rho[0, 0] = 0.0
        for log in (False, True):
            for _, padded in training._padded_pairs(povm, m.n_hidden, log):
                assert not padded.flags.writeable

    def test_one_eigh_for_every_gradient_at_one_theta(self, problem, monkeypatch):
        theta, _, povm, state = problem
        calls = []
        _counting(monkeypatch, training, "hermitian_eigendecompose", calls)
        m = build_fermionic_model(2, 1)
        grad_povm_gt(m, theta, povm)
        grad_povm_exact(m, theta, povm)
        grad_povm_commutator(m, theta, povm)
        grad_relent(m, theta, state)
        objective_relent(m, theta, state)
        assert len(calls) == 1

    @pytest.mark.parametrize("kind", ["relent", "exact", "commutator", "gt"])
    def test_train_decomposes_h_once_per_epoch(self, kind, problem, monkeypatch):
        _, _, povm, state = problem
        calls = []
        # every eigh of the training loop, in training and in linalg's own helpers
        _counting(monkeypatch, training, "hermitian_eigendecompose", calls)
        _counting(monkeypatch, linalg, "hermitian_eigendecompose", calls)
        logs = []
        _counting(monkeypatch, training, "matrix_log_psd", logs)
        m = build_fermionic_model(2, 1)
        data = state if kind == "relent" else povm
        epochs = 4
        cfg = OptimizerConfig(gradient_kind=kind, learning_rate=0.1, epochs=epochs)
        trace = train(m, np.zeros(m.n_terms), data, cfg)
        assert len(trace.records) == epochs + 1
        if kind == "gt":
            # one eigh of H and one per H_v each epoch, plus one per element's
            # logarithm, taken once per training set
            n_elements = len(povm.elements)
            assert len(logs) == n_elements
            assert len(calls) == (epochs + 1) * (1 + n_elements) + n_elements
        else:
            assert logs == []
            assert len(calls) == epochs + 1

    @pytest.mark.parametrize("family, n_visible, n_hidden, kind, real", [
        ("fermionic", 3, 1, "gt", True),
        ("classical_bm", 3, 1, "exact", True),
        ("ti_complete", 4, 0, "relent", True),
        ("mean_field", 3, 0, "relent", False),
        ("pauli_complete", 2, 0, "relent", False),
    ])
    def test_train_solves_in_the_arithmetic_of_the_model(
        self, family, n_visible, n_hidden, kind, real, rng, monkeypatch
    ):
        # real models on real data take the real solver; complex ones keep the complex one
        if kind != "relent":
            data = step_function_state(n_visible)[1]
        elif real:
            data = random_ti_teacher(n_visible, True, rng)[2]
        else:
            data = random_mixed(n_visible, rng)
        m = build_model(family, n_visible, n_hidden)
        dtypes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(linalg.np.linalg, "eigh", lambda a: dtypes.append(a.dtype) or eigh(a))
        cfg = OptimizerConfig(gradient_kind=kind, learning_rate=0.1, epochs=3)
        train(m, 0.1 * rng.normal(size=m.n_terms), data, cfg)
        assert len(dtypes) >= 4
        assert set(dtypes) == {np.dtype(np.float64 if real else np.complex128)}

    def test_logarithms_once_per_set_and_hidden_count(self, rng, monkeypatch):
        logs = []
        _counting(monkeypatch, training, "matrix_log_psd", logs)
        first, second = random_full_rank_povm(4, rng), random_full_rank_povm(4, rng)
        cfg = OptimizerConfig(gradient_kind="gt", learning_rate=0.1, epochs=3)
        for n_hidden in (0, 1, 0, 1):
            m = build_fermionic_model(2, n_hidden)
            for data in (first, second):
                train(m, np.zeros(m.n_terms), data, cfg)
                objective_povm_gt(m, np.zeros(m.n_terms), data)
        # two elements per set, two sets, two hidden counts
        assert len(logs) == 2 * 2 * 2

    def test_target_embedded_once_per_set_and_hidden_count(self, rng, monkeypatch):
        calls = []
        _counting(monkeypatch, training, "embed_target_state", calls)
        data = random_mixed(2, rng)
        cfg = OptimizerConfig(gradient_kind="relent", learning_rate=0.1, epochs=3)
        for n_hidden in (0, 1, 2, 1, 2, 0):
            m = build_fermionic_model(2, n_hidden)
            train(m, 0.1 * rng.normal(size=m.n_terms), data, cfg)
            target = training._embedded_target(data, n_hidden)
            assert not target.flags.writeable
            # the module's own name, not the counting wrapper
            assert np.array_equal(target, embed_target_state(data.rho, n_hidden))
        # n_hidden 1 and 2; at n_hidden 0 the target is the set's rho itself
        assert len(calls) == 2
        assert training._embedded_target(data, 0) is data.rho
