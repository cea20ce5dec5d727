"""Objectives, gradients and the optimizer loop."""

import ast
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qbmlab
import qbmlab.linalg as linalg
import qbmlab.training as training
from qbmlab.linalg import gibbs_state
from qbmlab.operators import (
    assemble_hamiltonian,
    build_classical_bm,
    build_complete_pauli_set,
    build_fermionic_model,
    build_mean_field,
    build_model,
)
from qbmlab.training import (
    GRADIENT_KINDS,
    MAX_COMMUTATOR_ORDER,
    POVM_GRADIENT_KINDS,
    OptimizerConfig,
    PovmTrainingSet,
    StateTrainingSet,
    TraceRecord,
    child_seed,
    grad_povm_commutator,
    grad_povm_exact,
    grad_povm_gt,
    grad_relent,
    grad_relent_sampled,
    objective_povm_exact,
    objective_povm_gt,
    objective_relent,
    term_expectations,
    train,
)
from qbmlab.datasets import random_mixed, random_ti_teacher, step_distribution, step_function_state
from qbmlab.experiments import GRADCHECK_SIZES, finite_difference_gradient
from qbmlab.operators import HamiltonianModel, Term

from conftest import (
    ENTRY_LIST_MODELS,
    assert_lockstep_matches_train,
    entry_list_model,
    random_full_rank_povm,
    spy_on_solves,
)


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

    def test_state_set_rejects_non_hermitian_whose_norm_overflows(self):
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            StateTrainingSet(rho=np.array([[0.5, 1e160], [-1e160, 0.5]]))


class TestFromEigensystem:
    @staticmethod
    def teacher_spectrum(n, draw):
        model = build_model("ti_complete", n)
        return linalg._eigh(assemble_hamiltonian(model, draw(model.n_terms)))

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_gibbs_state_bit_for_bit(self, rng, n, normalize):
        evals, V = self.teacher_spectrum(n, rng.standard_normal)
        s = np.abs(evals).max() if normalize else 1.0
        weights = linalg._gibbs(evals / s)[0]
        data = StateTrainingSet.from_eigensystem(weights / weights.sum(), V)
        assert np.array_equal(data.rho, linalg._gibbs(evals / s, V)[1])
        assert abs(data.entropy - linalg.von_neumann_entropy(data.rho)) <= 1e-13

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_tied_spectrum_entropy(self, n):
        # theta = 0: H = 0, every eigenvalue tied, the maximally mixed state
        evals, V = self.teacher_spectrum(n, np.zeros)
        weights = linalg._gibbs(evals)[0]
        data = StateTrainingSet.from_eigensystem(weights / weights.sum(), V)
        assert abs(data.entropy - n * math.log(2)) <= 1e-13
        assert abs(linalg.von_neumann_entropy(data.rho) - n * math.log(2)) <= 1e-13

    @pytest.mark.parametrize("p, match", [
        ([np.nan, 1.0], "non-finite"),
        ([1.0 + 2e-10, -2e-10], "below -1e-10"),
        ([0.5, 0.5 + 1e-9], "trace"),
    ])
    def test_rejects_bad_spectrum(self, p, match):
        with pytest.raises(ValueError, match=match):
            StateTrainingSet.from_eigensystem(np.array(p), np.eye(2))

    def test_read_only_and_lifted(self, rng):
        w = rng.uniform(size=4)
        data = StateTrainingSet.from_eigensystem(w / w.sum(), np.linalg.qr(rng.standard_normal((4, 4)))[0])
        assert not data.rho.flags.writeable
        with pytest.raises(ValueError):
            data.rho[0, 0] = 0
        assert data.lifted(0) is data.rho
        assert np.array_equal(data.lifted(1), np.kron(data.rho, np.eye(2, dtype=complex) / 2))


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

    @pytest.mark.parametrize("family", ["fermionic", "classical_bm"])
    @pytest.mark.parametrize("seed", range(5))
    def test_gt_bound_on_projector_data(self, family, seed):
        # Lambda_v = P (x) I with P a rank-1 projector: the clipped bound adds
        # -ln(GT_CLIP) (I - P (x) I) to H, so it lies below the exact objective
        # and above its clamped limit, the partition function on the range of P (x) I
        psi, povm, _ = step_function_state(4)
        m = build_model(family, 4, 2)
        theta = 0.3 * np.random.default_rng(seed).standard_normal(m.n_terms)
        exact = objective_povm_exact(m, theta, povm)
        clipped = objective_povm_gt(m, theta, povm)
        H = assemble_hamiltonian(m, theta)
        support = np.kron(psi[:, None], np.eye(4))  # orthonormal columns spanning the range
        levels = np.linalg.eigvalsh(support.conj().T @ H @ support)
        clamped = -levels[0] + np.log(np.exp(-(levels - levels[0])).sum()) - gibbs_state(H)[1]
        assert exact >= clipped >= clamped

    def test_gt_equals_exact_when_commuting(self, rng):
        m = build_classical_bm(2)
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
    def test_relent_pure_target_against_maximally_mixed(self, n_hidden):
        # theta = 0 gives sigma = I/2^n; S(|0><0| (x) I/2^h || I/2^(1+h)) = log 2,
        # with 0 log 0 = 0 on the pure target's null space
        m = build_classical_bm(1, n_hidden)
        data = StateTrainingSet(rho=np.diag([1.0, 0.0]).astype(complex))
        assert abs(objective_relent(m, np.zeros(m.n_terms), data) + np.log(2)) < 1e-12

    @pytest.mark.parametrize("n_hidden", [0, 1])
    def test_relent_equals_negative_relative_entropy(self, rng, n_hidden):
        # spectrum-only logZ and the cached target entropy against
        # Tr rho (log rho - log sigma) from scipy's logm, with sigma from expm
        from scipy.linalg import expm, logm

        m = build_fermionic_model(2, n_hidden)
        data = random_mixed(2, rng)
        for _ in range(5):
            theta = rng.normal(size=m.n_terms)
            exp_neg_h = expm(-assemble_hamiltonian(m, theta))
            sigma = exp_neg_h / np.trace(exp_neg_h).real
            target = np.kron(data.rho, np.eye(2**n_hidden)) / 2**n_hidden
            expected = -np.trace(target @ (logm(target) - logm(sigma))).real
            value = objective_relent(m, theta, data)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))
            # Pinsker: S(rho || sigma) >= ||rho - sigma||_1^2 / 2 >= ||rho - sigma||_F^2 / 2
            assert value <= -np.linalg.norm(target - sigma) ** 2 / 2

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
        m = build_classical_bm(2)
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


class TestDecoupledHiddenUnits:
    """Hidden units that no nonzero weight couples change no objective and no visible gradient.

    With every term that touches a hidden unit at weight zero, H = H_v (x) I and the
    Gibbs state is sigma_v (x) I / 2^n_hidden, so the lifted POVM elements E (x) I see
    what E sees in the model without hidden units, term for term.
    """

    @pytest.mark.parametrize("family,nv,nh", [("fermionic", 2, 1), ("fermionic", 3, 1), ("classical_bm", 3, 2)])
    def test_matches_the_model_without_hidden_units(self, family, nv, nh, rng):
        visible, hidden = build_model(family, nv), build_model(family, nv, nh)
        theta_v = 0.5 * rng.normal(size=visible.n_terms)
        weights = dict(zip(visible.labels, theta_v))
        theta_h = np.array([weights.get(label, 0.0) for label in hidden.labels])
        matched = [hidden.labels.index(label) for label in visible.labels]
        assert np.count_nonzero(theta_h) == visible.n_terms < hidden.n_terms
        data, lam = random_full_rank_povm(2**nv, rng), 0.3
        for objective in (objective_povm_exact, objective_povm_gt):
            assert abs(objective(hidden, theta_h, data, lam) - objective(visible, theta_v, data, lam)) <= 1e-12
        for gradient in (grad_povm_exact, grad_povm_gt, grad_povm_commutator):
            np.testing.assert_allclose(gradient(hidden, theta_h, data, lam)[matched],
                                       gradient(visible, theta_v, data, lam), rtol=0, atol=1e-12)


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
        # each term's derivative of e^{-H} is scipy's Frechet derivative of
        # expm (Al-Mohy & Higham 2009) at -H along -H_j, which shares no code
        # with the divided-difference kernel under test
        from scipy.linalg import expm, expm_frechet

        exp_neg_h = expm(-H)
        rho = exp_neg_h / np.trace(exp_neg_h).real
        return np.array([
            np.trace(rho @ t.matrix).real
            + sum(
                p * np.trace(el @ expm_frechet(-H, -t.matrix, compute_expm=False)).real
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

    def test_exact_at_zero_theta(self, problem):
        # H = 0 is degenerate: every eigenvalue pair is confluent, and ad_H = 0 makes every series order exact
        m, _, data, H, padded = problem
        want = self.exact_oracle(m, np.zeros_like(H), padded, data.probabilities)
        gradients = {"exact": grad_povm_exact}
        for order in (1, 5, MAX_COMMUTATOR_ORDER):
            gradients[f"commutator-{order}"] = lambda m, t, d, order=order: grad_povm_commutator(m, t, d, order=order)
        for name, gradient in gradients.items():
            got = gradient(m, np.zeros(m.n_terms), data)
            assert np.linalg.norm(got - want) < 1e-12 * np.linalg.norm(want), name

    def test_exact_with_real_eigenvectors_and_real_data(self, problem):
        # fermionic H and the step-function projectors are real: every solve is real
        m, theta, _, H, _ = problem
        _, data, _ = step_function_state(3)
        padded = [np.kron(el, np.eye(2)) for el in data.elements]
        got = grad_povm_exact(m, theta, data)
        [(_, (_, V))] = training._evaluate(m, theta[None]).solves
        assert V.dtype == np.float64
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


class TestOneQubitClosedForm:
    """The exact POVM objective, its gradient and the commutator series at one qubit, in closed form.

    mean_field 1 and pauli_complete 1 both have the terms X, Y, Z, so H = h.sigma with
    h = theta. With r = |h|, e^{-H} = cosh r I - sinh r (h.sigma)/r and Z = 2 cosh r, so
    rho = (I - u h.sigma)/2 with u = tanh(r)/r, and an element Lambda = a0 I + a.sigma has
    the likelihood a0 - u h.a. On Pauli vectors ad_H is 2i h x, so the commutator series is
    a 3x3 matrix power. No eigensolver, scatter or gradient kernel of the package runs here.
    """

    LAM = 0.3
    QUANTUM = np.array([1.0, 1.0, 0.0])  # X and Y are off-diagonal terms, Z is not

    @staticmethod
    def pauli_vector(A):
        """(c0, c) with A = c0 I + c.sigma."""
        c = [(A[0, 1] + A[1, 0]) / 2, (A[1, 0] - A[0, 1]) / 2j, (A[0, 0] - A[1, 1]) / 2]
        return (A[0, 0] + A[1, 1]) / 2, np.array(c)

    @staticmethod
    def ratios(r):
        """u = tanh(r)/r and v = (r - tanh r)/r^3, by their Taylor series near r = 0."""
        if r < 1e-4:
            return 1.0 - r**2 / 3, 1.0 / 3 - 2 * r**2 / 15
        t = math.tanh(r)
        return t / r, (r - t) / r**3

    @pytest.fixture(params=["mean_field", "pauli_complete"])
    def model(self, request):
        model = build_model(request.param, 1)
        assert [label[0] for label in model.labels] == ["X", "Y", "Z"]
        return model

    def problem(self, r, rng):
        """(h, data, Pauli vectors (a0, a) of its elements, u, v, likelihoods) at a random h of norm r."""
        n = rng.normal(size=3)
        h = r * n / np.linalg.norm(n)
        data = random_full_rank_povm(2, rng)
        a = [(c0.real, c.real) for c0, c in map(self.pauli_vector, data.elements)]
        u, v = self.ratios(r)
        return h, data, a, u, v, np.array([a0 - u * (h @ av) for a0, av in a])

    @pytest.mark.parametrize("r", [0.0, 1e-8, 1.0, 20.0])
    def test_exact(self, model, r, rng, request):
        h, data, a, u, v, likelihoods = self.problem(r, rng)
        value = data.probabilities @ np.log(likelihoods) - self.LAM / 2 * (self.QUANTUM * h) @ h
        assert abs(objective_povm_exact(model, h, data, self.LAM) - value) <= 1e-12 * max(1.0, abs(value))
        # d/dh log Tr[Lambda e^{-H}] = (a0 u h - u a - v (h.a) h) / (a0 - u h.a), and d/dh log Z = u h
        want = sum(p * (a0 * u * h - u * av - v * (h @ av) * h) / L
                   for p, (a0, av), L in zip(data.probabilities, a, likelihoods)) - u * h - self.LAM * self.QUANTUM * h
        if r == 1e-8:
            request.applymarker(pytest.mark.xfail(strict=True, reason=(
                "_exp_neg_divided_differences divides e^{-a} - e^{-b} by a - b at gaps just above its 1e-8 "
                "confluence cut, which loses about 1e-9 relative at the gap 2e-8")))
        got = grad_povm_exact(model, h, data, self.LAM)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("r", [0.0, 1e-8, 1.0])
    def test_commutator_at_every_order(self, model, r, rng):
        h, data, a, u, _, likelihoods = self.problem(r, rng)
        # B = rho W with W = sum_v (P_v / L_v) Lambda_v, and (x0 + x.sigma)(y0 + y.sigma)
        # has the Pauli vector x0 y + y0 x + i x cross y
        w0 = sum(p * a0 / L for p, (a0, _), L in zip(data.probabilities, a, likelihoods))
        w = sum(p * av / L for p, (_, av), L in zip(data.probabilities, a, likelihoods))
        rho = -u * h / 2
        b = 0.5 * w + w0 * rho + 1j * np.cross(rho, w)
        ad = 2j * np.array([[0.0, -h[2], h[1]], [h[2], 0.0, -h[0]], [-h[1], h[0], 0.0]])  # ad_H as 2i h x
        for order in range(1, MAX_COMMUTATOR_ORDER + 1):
            series = sum(np.linalg.matrix_power(ad, m) @ b / math.factorial(m + 1) for m in range(order))
            want = 2 * rho - 2 * series.real - self.LAM * self.QUANTUM * h
            got = grad_povm_commutator(model, h, data, self.LAM, order)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), order


def sampled_oracle(model, theta, data, lam, n_samples, rng_seed):
    """grad_relent_sampled term by term and stream by stream, each stream a Generator.choice."""
    [theta], ev, [data] = training._setup(model, theta, data)
    grad = []
    for j, term in enumerate(model.terms):
        evals, V = training._measurement_basis(term.matrix)
        means = []
        for k, state in ((2 * j, data.lifted(model.n_hidden)), (2 * j + 1, ev.rho[0])):
            probs = np.clip(np.einsum("ia,ab,bi->i", V.conj().T, state, V).real, 0.0, 1.0)
            rng = np.random.default_rng(child_seed(rng_seed, k))
            means.append(float(evals[rng.choice(evals.size, size=n_samples, p=probs / probs.sum())].mean()))
        grad.append(means[1] - means[0])
    return np.array(grad) - training._reg_grad(model, theta, lam)


# (family, n_visible, n_hidden): real and complex eigenvectors, and a lifted target
SAMPLED_ORACLE_MODELS = [
    ("mean_field", 1, 0),
    ("mean_field", 2, 0),
    ("mean_field", 4, 0),
    ("pauli_complete", 2, 0),
    ("ti_complete", 3, 0),
    ("fermionic", 2, 1),
]


class TestSampledGradient:
    @pytest.mark.parametrize("family,nv,nh", SAMPLED_ORACLE_MODELS, ids=lambda v: str(v))
    def test_matches_the_per_stream_choice_oracle(self, family, nv, nh, rng):
        model = build_model(family, nv, nh)
        data = random_mixed(nv, rng)
        theta = 0.5 * rng.normal(size=model.n_terms)
        for n_samples in (1, 7, 512, 1024):
            for lam in (0.0, 0.3):
                seed = int(rng.integers(2**31))
                got = grad_relent_sampled(model, theta, data, lam, n_samples, seed)
                assert np.array_equal(got, sampled_oracle(model, theta, data, lam, n_samples, seed))

    def test_training_matches_the_oracle_gradient(self, rng, monkeypatch):
        model, data = build_fermionic_model(2, 1), random_mixed(2, rng)
        theta0 = 0.3 * rng.normal(size=model.n_terms)
        cfg = OptimizerConfig(gradient_kind="relent_sampled", learning_rate=0.5, momentum=0.5, lam=0.3,
                              epochs=3, n_samples=64)
        got = train(model, theta0, data, cfg, rng_seed=11)
        monkeypatch.setattr(training, "grad_relent_sampled", sampled_oracle)
        want = train(model, theta0, data, cfg, rng_seed=11)
        assert np.array_equal(got.thetas, want.thetas)
        assert [r.grad_norm for r in got.records] == [r.grad_norm for r in want.records]

    def test_deterministic_eigenstates(self):
        # measuring Z on |0> always returns +1 and on the Gibbs state |1><1| of H = 400 Z always -1
        z = np.diag([1.0, -1.0]).astype(complex)
        model = HamiltonianModel("hand_built", 1, 0, (Term("Z", z),))
        data = StateTrainingSet(rho=np.diag([1.0, 0.0]).astype(complex))
        for n_samples in (1, 64):
            assert grad_relent_sampled(model, np.array([400.0]), data, n_samples=n_samples).tolist() == [-2.0]

    def test_reproducible(self, rng):
        m = build_mean_field(1)
        theta, data = rng.normal(size=3), random_mixed(1, rng)
        a = grad_relent_sampled(m, theta, data, n_samples=512, rng_seed=42)
        assert np.array_equal(grad_relent_sampled(m, theta, data, n_samples=512, rng_seed=42), a)
        assert not np.array_equal(grad_relent_sampled(m, theta, data, n_samples=512, rng_seed=43), a)

    def test_sample_count_checked(self, rng):
        for n_samples in (0, -1):
            with pytest.raises(ValueError, match="n_samples"):
                grad_relent_sampled(build_mean_field(1), np.zeros(3), random_mixed(1, rng), n_samples=n_samples)

    def test_sample_count_checked_before_any_solve(self, rng, monkeypatch):
        model, data = build_mean_field(1), random_mixed(1, rng)
        calls = []
        spy_on_solves(monkeypatch, calls, training, linalg, values_too=True)
        with pytest.raises(ValueError, match="n_samples"):
            grad_relent_sampled(model, np.zeros(3), data, n_samples=0)
        assert calls == [] and "_evaluation" not in vars(model) and "_measurement_bases" not in vars(model)

    @pytest.mark.parametrize("fill,message", [(0.0, "no weight"), (np.nan, "NaN")])
    def test_gibbs_state_without_a_distribution(self, fill, message, rng, monkeypatch):
        evaluate = training._evaluate
        monkeypatch.setattr(training, "_evaluate", lambda m, t: evaluate(m, t)._replace(
            rho=np.full((len(t), m.dim, m.dim), fill, dtype=complex)))
        with pytest.raises(ValueError, match=message):
            grad_relent_sampled(build_mean_field(1), np.zeros(3), random_mixed(1, rng))

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

    @pytest.mark.parametrize("kind", ["exact", "commutator", "gt", "relent"])
    def test_failed_solve_ends_the_run_diverged(self, kind, monkeypatch):
        # a learning rate of 1e308 takes theta to about 1e307 in one step
        if kind == "relent":
            m, data = build_complete_pauli_set(2), random_mixed(2, np.random.default_rng(0))
        else:
            m, data = build_fermionic_model(2), step_function_state(2, 0.1)[1]
        if kind == "gt":
            # numpy solves the bound's finite H - log Lambda_v at theta ~ 1e307, so a
            # stand-in for the solver behind gibbs_state fails there as LAPACK reports it
            solve = linalg._eigh

            def fail_when_huge(H, vectors=True):
                if np.abs(H).max() > 1e300:
                    raise np.linalg.LinAlgError("Eigenvalues did not converge")
                return solve(H, vectors)

            monkeypatch.setattr(linalg, "_eigh", fail_when_huge)
        cfg = OptimizerConfig(gradient_kind=kind, learning_rate=1e308, epochs=4)
        tr = train(m, np.zeros(m.n_terms), data, cfg)
        assert tr.diverged
        assert 0 < len(tr.records) <= cfg.epochs
        assert tr.note.endswith(f"at epoch {len(tr.records)}")
        assert all(np.isfinite(r.objective) and np.isfinite(r.grad_norm) for r in tr.records)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_hamiltonian_ends_the_run_diverged(self, monkeypatch):
        # momentum carries an infinite step into theta; H(theta) is then non-finite
        _, povm, _ = step_function_state(2, 0.1)
        m = build_fermionic_model(2)
        grad = training._GRADIENTS["exact"]
        monkeypatch.setitem(training._GRADIENTS, "exact", (grad[0], lambda m, t, *args: np.full(t.shape, 1e308)))
        tr = train(m, np.zeros(m.n_terms), povm, OptimizerConfig("exact", learning_rate=10.0, epochs=4))
        assert tr.diverged
        assert tr.note == "H(theta) has non-finite entries at epoch 1"
        assert len(tr.records) == 1

    def test_grad_norm_of_a_huge_finite_gradient_is_finite(self, monkeypatch):
        # 1e200 squared overflows; the norm itself is 1e200 * sqrt(n_terms)
        m = build_mean_field(2)
        monkeypatch.setattr(training, "grad_relent", lambda m, t, *args: np.full(t.shape, 1e200))
        data = random_mixed(2, np.random.default_rng(0))
        tr = train(m, np.zeros(m.n_terms), data, OptimizerConfig("relent", learning_rate=0.0, epochs=2))
        assert not tr.diverged
        for record in tr.records:
            assert math.isclose(record.grad_norm, 1e200 * math.sqrt(m.n_terms), rel_tol=1e-15)

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
        m = build_classical_bm(2, 1)
        data = random_mixed(2, rng)
        cfg = OptimizerConfig(gradient_kind=kind, learning_rate=0.5, epochs=3, n_samples=64)
        tr = train(m, rng.normal(size=m.n_terms), data, cfg)
        target = np.kron(data.rho, np.eye(2)) / 2
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


class TestLockstep:
    """training._train_lockstep against train, row by row."""

    @pytest.fixture
    def problem(self, rng):
        model = build_complete_pauli_set(2)
        targets = [random_mixed(2, rng) for _ in range(5)]
        theta0 = 0.3 * rng.normal(size=(5, model.n_terms))
        theta0[0] = 0.0  # a real H beside complex ones at epoch 0
        config = OptimizerConfig("relent", learning_rate=0.5, momentum=0.5, lam=0.3, epochs=6)
        return model, theta0, targets, [config] * 5

    def test_matches_train_with_momentum_and_penalty(self, problem):
        traces, states = training._train_lockstep(*problem)
        assert_lockstep_matches_train(*problem, traces, states)
        assert not any(trace.diverged for trace in traces)

    def test_each_row_takes_its_own_learning_rate_and_momentum(self, problem):
        model, theta0, targets, configs = problem
        configs = [replace(config, learning_rate=eta, momentum=mu)
                   for config, eta, mu in zip(configs, (0.1, 0.5, 1.0, 0.5, 0.0), (0.0, 0.5, 0.9, 0.0, 0.3))]
        traces, states = training._train_lockstep(model, theta0, targets, configs)
        assert_lockstep_matches_train(model, theta0, targets, configs, traces, states)
        assert len({trace.thetas[-1].tobytes() for trace in traces}) == 5

    def test_a_nonzero_real_hamiltonian_beside_complex_ones(self, problem):
        # a real target and no weight on the imaginary (Y-odd) terms keep instance 0's H real
        # and nonzero at every epoch, so each stacked evaluation solves it apart from the rest
        model, theta0, targets, configs = problem
        imaginary = np.array([term.matrix.imag.any() for term in model.terms])
        theta0 = theta0.copy()
        theta0[0] = np.where(imaginary, 0.0, theta0[1])
        targets = [StateTrainingSet(rho=targets[0].rho.real), *targets[1:]]
        traces, states = training._train_lockstep(model, theta0, targets, configs)
        assert_lockstep_matches_train(model, theta0, targets, configs, traces, states)
        real_row = traces[0].thetas
        assert len(real_row) == configs[0].epochs + 1
        assert not real_row[:, imaginary].any() and real_row[:, ~imaginary].any(axis=1).all()
        assert all(trace.thetas[:, imaginary].any(axis=1).all() for trace in traces[1:])

    def test_diverged_instances_freeze_alone(self, problem, monkeypatch):
        # instance 1 meets a non-finite H at epoch 2, and instance 3 an H whose solve fails at epoch 4
        model, theta0, targets, configs = problem
        clean = [train(model, start, data, config) for start, data, config in zip(theta0, targets, configs)]
        poisoned = assemble_hamiltonian(model, clean[1].records[2].theta)
        unsolvable = assemble_hamiltonian(model, clean[3].records[4].theta)
        assemble, eigh, solved = training.assemble_hamiltonian, np.linalg.eigh, []

        def assemble_poisoned(m, theta):
            H = assemble(m, theta)
            for matrix in H.reshape(-1, m.dim, m.dim):
                if np.array_equal(matrix, poisoned):
                    matrix[0, 0] = np.inf
            return H

        def eigh_failing(a):
            solved.append(len(a) if a.ndim == 3 else None)
            if any(np.array_equal(matrix, unsolvable) for matrix in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(training, "assemble_hamiltonian", assemble_poisoned)
        monkeypatch.setattr(np.linalg, "eigh", eigh_failing)
        traces, states = training._train_lockstep(model, theta0, targets, configs)
        # one stacked solve per realness group per epoch (two at epoch 0); epoch 4's failed
        # and went row by row over its 4 live rows
        assert solved == [1, 4, 5, 4, 4, 4, 1, 1, 1, 1, 3, 3]
        assert [trace.note for trace in traces] == [
            "", "H(theta) has non-finite entries at epoch 2", "", "Eigenvalues did not converge at epoch 4", ""]
        assert [len(trace.records) for trace in traces] == [7, 2, 7, 4, 7]
        # train under the same faults, bit for bit; the frozen keep the clean run's records up to the fault
        assert_lockstep_matches_train(model, theta0, targets, configs, traces, states)
        for trace, reference in zip(traces, clean):
            assert np.array_equal(trace.thetas, reference.thetas[: len(trace.records)])

    def test_a_gt_grid_with_a_diverging_row_is_train_row_by_row(self, rng):
        # commutator-compare's schedule C: one model, one data set and one theta0 under several (eta, mu)
        model, povm = build_fermionic_model(2, 1), step_function_state(2, 0.1)[1]
        base = OptimizerConfig("gt", lam=0.2, epochs=8)
        settings = [(0.1, 0.0), (0.5, 0.9), (1e308, 0.0), (1.0, 0.5), (0.1, 0.0)]
        configs = [replace(base, learning_rate=eta, momentum=mu) for eta, mu in settings]
        theta0 = np.tile(0.01 * rng.normal(size=model.n_terms), (len(configs), 1))
        traces, states = training._train_lockstep(model, theta0, povm, configs)
        assert [trace.diverged for trace in traces] == [False, False, True, False, False]
        assert len(traces[2].records) == 1 and traces[2].note.endswith("at epoch 1")
        assert_lockstep_matches_train(model, theta0, povm, configs, traces, states)
        assert np.array_equal(traces[0].thetas, traces[4].thetas)

    @pytest.mark.parametrize("kind", ["exact", "commutator"])
    def test_povm_rows_on_their_own_data(self, kind, rng):
        model = build_classical_bm(2, 1)
        sets = [random_full_rank_povm(4, rng) for _ in range(3)]
        theta0 = 0.3 * rng.normal(size=(3, model.n_terms))
        configs = [OptimizerConfig(kind, learning_rate=0.3, momentum=0.5, epochs=4)] * 3
        traces, states = training._train_lockstep(model, theta0, sets, configs)
        assert_lockstep_matches_train(model, theta0, sets, configs, traces, states)

    def test_rejects_other_gradients_and_shapes(self, problem, rng):
        model, theta0, targets, configs = problem
        with pytest.raises(ValueError, match="relent_sampled trains one row"):
            training._train_lockstep(model, theta0, targets, [OptimizerConfig("relent_sampled")] * 5)
        with pytest.raises(ValueError, match="learning_rate and momentum only"):
            training._train_lockstep(model, theta0, targets, [*configs[:4], replace(configs[0], lam=0.0)])
        with pytest.raises(ValueError, match="shape"):
            training._train_lockstep(model, theta0[:4], targets, configs)
        with pytest.raises(ValueError, match="StateTrainingSet"):
            training._train_lockstep(model, theta0, [*targets[:4], random_full_rank_povm(4, rng)], configs)
        with pytest.raises(ValueError, match="4 training sets for 5 theta rows"):
            training._train_lockstep(model, theta0, targets[:4], configs)
        with pytest.raises(ValueError, match="dimension"):
            training._train_lockstep(build_mean_field(3), np.zeros((5, 9)), targets, configs)
        with pytest.raises(ValueError, match="one theta0"):
            train(model, theta0, targets[0], configs[0])


class TestTermExpectations:
    @pytest.mark.parametrize("name", ENTRY_LIST_MODELS)
    def test_matches_dense_stack(self, name, rng):
        model = entry_list_model(name, rng)
        X = rng.normal(size=(model.dim, model.dim)) + 1j * rng.normal(size=(model.dim, model.dim))
        got = term_expectations(model, X)
        want = np.tensordot(model.matrix_stack, X, axes=([1, 2], [1, 0])).real
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("name", ENTRY_LIST_MODELS)
    def test_stack_rows_are_each_state_alone(self, name, rng):
        model = entry_list_model(name, rng)
        X = rng.normal(size=(3, model.dim, model.dim)) + 1j * rng.normal(size=(3, model.dim, model.dim))
        got = term_expectations(model, X)
        assert got.shape == (3, model.n_terms)
        for row, state in zip(got, X):
            assert np.array_equal(row, term_expectations(model, state))

    @pytest.mark.parametrize("name", ENTRY_LIST_MODELS)
    def test_single_state_is_the_one_row_stack(self, name, rng):
        model = entry_list_model(name, rng)
        X = rng.normal(size=(model.dim, model.dim)) + 1j * rng.normal(size=(model.dim, model.dim))
        for state in (X, X.T):  # X.T is not contiguous
            got = term_expectations(model, state)
            assert got.shape == (model.n_terms,)
            assert np.array_equal(got, term_expectations(model, np.array([state]))[0])

    def test_state_shape_checked(self):
        with pytest.raises(ValueError):
            term_expectations(build_mean_field(2), np.eye(2))
        with pytest.raises(ValueError):
            term_expectations(build_mean_field(1), np.zeros((1, 1, 2, 2)))

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


def record_arrays(record):
    """Every array of an evaluation record: H, each solve's eigensystem, weights, rho and log Z."""
    return (record.H, *(a for _, eigen in record.solves for a in eigen), record.weights, record.rho, record.log_z)


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

        # the record of a stack holding theta is no record of theta: shapes differ
        stacked = build_fermionic_model(2, 1)
        for key, evaluate in EVALUATIONS.items():
            if key != "grad_relent_sampled":  # one theta only
                evaluate(stacked, np.stack([other, theta]), povm, state)
        after_stack = EVALUATIONS[name](stacked, theta, povm, state)

        for value in (after_same, after_other, after_stack):
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
        a, b = training._evaluate(first, theta[None]), training._evaluate(second, theta[None])
        for x, y in zip(record_arrays(a), record_arrays(b)):
            assert not np.shares_memory(x, y)
        assert not np.array_equal(a.H, b.H)

    def test_cached_arrays_read_only(self, problem):
        theta, _, povm, _ = problem
        m = build_fermionic_model(2, 1)
        for thetas in (theta[None], np.stack([theta, -theta, 0 * theta])):  # one solve, then two
            grad_povm_gt(m, thetas, povm)
            record = training._evaluate(m, thetas)
            for array in record_arrays(record):
                assert not array.flags.writeable
            with pytest.raises(ValueError):
                record.rho[0, 0, 0] = 0.0
        for _, *ops in povm.lifted(m.n_hidden):
            for op in ops:
                assert not op.flags.writeable

    def test_one_eigh_for_every_gradient_at_one_theta(self, problem, monkeypatch):
        theta, _, povm, state = problem
        calls = []
        spy_on_solves(monkeypatch, calls, training)
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
        spy_on_solves(monkeypatch, calls, training, linalg)
        logs = []
        _counting(monkeypatch, training, "matrix_log_psd", logs)
        m = build_fermionic_model(2, 1)
        data = state if kind == "relent" else povm
        epochs = 4
        cfg = OptimizerConfig(gradient_kind=kind, learning_rate=0.1, epochs=epochs)
        trace = train(m, np.zeros(m.n_terms), data, cfg)
        assert len(trace.records) == epochs + 1
        # lifting the POVM takes one logarithm per element, once per training set
        n_elements = len(povm.elements)
        if kind == "gt":
            # one eigh of H and one per H_v each epoch, plus the logarithms
            assert len(logs) == n_elements
            assert len(calls) == (epochs + 1) * (1 + n_elements) + n_elements
        elif kind == "relent":
            assert logs == []
            assert len(calls) == epochs + 1
        else:
            assert len(logs) == n_elements
            assert len(calls) == epochs + 1 + n_elements

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
            data = random_ti_teacher(build_model("ti_complete", n_visible), (True,), rng)[0][1]
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

    @pytest.mark.parametrize("family, n_visible, n_hidden", [
        ("classical_bm", 2, 1),
        ("fermionic", 2, 1),
        ("ti_complete", 3, 0),
        ("mean_field", 3, 0),
        ("pauli_complete", 2, 0),
    ])
    @pytest.mark.parametrize("data_kind", ["projector", "basis", "full_rank", "state"])
    def test_train_solves_only_bitwise_hermitian_matrices(
        self, family, n_visible, n_hidden, data_kind, rng, monkeypatch
    ):
        # numpy reads one triangle, and train hands H(theta) to the solver
        # unchecked: assemble_hamiltonian must make it Hermitian bit for bit
        dim = 2**n_visible
        data = {
            "projector": lambda: step_function_state(n_visible)[1],
            "basis": lambda: PovmTrainingSet(
                tuple(np.diag(row).astype(complex) for row in np.eye(dim)),
                step_distribution(n_visible)),
            "full_rank": lambda: random_full_rank_povm(dim, rng),
            "state": lambda: random_mixed(n_visible, rng),
        }[data_kind]()
        kinds = ("relent", "relent_sampled") if data_kind == "state" else POVM_GRADIENT_KINDS
        unchecked, checked = [], []
        spy_on_solves(monkeypatch, unchecked, training, values_too=True)
        spy_on_solves(monkeypatch, checked, linalg, values_too=True)
        epochs = 3
        for kind in kinds:
            m = build_model(family, n_visible, n_hidden)
            theta = rng.normal(size=m.n_terms)
            train(m, theta, data, OptimizerConfig(gradient_kind=kind, learning_rate=0.1, epochs=epochs))
        # one H(theta) per epoch, plus every solve of the public entry points
        assert len(unchecked) == len(kinds) * (epochs + 1)
        if data_kind != "state":
            # the GT objective on a stack solves H(theta_b), then every H_b - log Lambda_v, unchecked,
            # one stack per realness group; a zero row gives a real H beside complex ones
            thetas = rng.normal(size=(4, m.n_terms))
            thetas[0] = 0.0
            objective_povm_gt(m, thetas, data)
            stacks = unchecked[len(kinds) * (epochs + 1):]
            assert all(H.ndim == 3 for H in stacks)
            assert sum(map(len, stacks)) == len(thetas) * (1 + len(data.lifted(n_hidden)))
        for H in unchecked + checked:
            assert np.array_equal(H, H.conj().swapaxes(-1, -2))

    def test_logarithms_once_per_set(self, rng, monkeypatch):
        logs = []
        _counting(monkeypatch, training, "matrix_log_psd", logs)
        first, second = random_full_rank_povm(4, rng), random_full_rank_povm(4, rng)
        cfg = OptimizerConfig(gradient_kind="gt", learning_rate=0.1, epochs=3)
        for n_hidden in (0, 1, 0, 1):
            m = build_fermionic_model(2, n_hidden)
            for data in (first, second):
                train(m, np.zeros(m.n_terms), data, cfg)
                objective_povm_gt(m, np.zeros(m.n_terms), data)
        # two elements per set, two sets, whatever the hidden count
        assert len(logs) == 2 * 2

    def test_target_embedded_once_per_set_and_hidden_count(self, rng, monkeypatch):
        data = random_mixed(2, rng)
        cfg = OptimizerConfig(gradient_kind="relent", learning_rate=0.1, epochs=3)
        hidden_counts = (0, 1, 2, 1, 2, 0)
        # built before krons are counted: building the terms takes krons too
        models = [build_fermionic_model(2, n_hidden) for n_hidden in hidden_counts]
        kron = np.kron
        calls = []
        _counting(monkeypatch, np, "kron", calls)
        for n_hidden, m in zip(hidden_counts, models):
            train(m, 0.1 * rng.normal(size=m.n_terms), data, cfg)
            target = data.lifted(n_hidden)
            assert not target.flags.writeable
            assert np.array_equal(target, kron(data.rho, np.eye(2**n_hidden)) / 2**n_hidden)
        # n_hidden 1 and 2; at n_hidden 0 the target is the set's rho itself
        assert len(calls) == 2
        assert data.lifted(0) is data.rho


# The three objectives at (model, theta or theta stack, POVM data, state data, lam).
OBJECTIVES = {
    "povm_exact": lambda m, t, povm, state, lam: objective_povm_exact(m, t, povm, lam),
    "povm_gt": lambda m, t, povm, state, lam: objective_povm_gt(m, t, povm, lam),
    "relent": lambda m, t, povm, state, lam: objective_relent(m, t, state, lam),
}


class TestStackedObjectives:
    """Each objective on a (B, n_terms) theta stack against its calls at each row alone."""

    @staticmethod
    def problem(family, povm_kind, rng):
        n_visible, n_hidden = GRADCHECK_SIZES[family]
        model = build_model(family, n_visible, n_hidden)
        thetas = 0.5 * rng.normal(size=(5, model.n_terms))
        thetas[1] *= [not term.matrix.imag.any() for term in model.terms]  # a real H beside complex ones
        # with real POVM elements the H_b - log Lambda_v of a real H_b are real too
        povm = (diagonal_povm if povm_kind == "real" else random_full_rank_povm)(2**n_visible, rng)
        return model, thetas, povm, random_mixed(n_visible, rng)

    @pytest.mark.parametrize("family", GRADCHECK_SIZES)
    @pytest.mark.parametrize("povm_kind", ["real", "complex"])
    @pytest.mark.parametrize("lam", [0.0, 0.3])
    def test_each_row_is_the_single_call(self, family, povm_kind, lam, rng):
        model, thetas, povm, state = self.problem(family, povm_kind, rng)
        real = ~assemble_hamiltonian(model, thetas).imag.any(axis=(1, 2))
        assert thetas[1].any() and real[1] and (real.all() or not real[[0, 2, 3, 4]].any())
        for name, objective in OBJECTIVES.items():
            got = objective(model, thetas, povm, state, lam)
            assert got.shape == (len(thetas),)
            want = [objective(build_model(family, *GRADCHECK_SIZES[family]), theta, povm, state, lam)
                    for theta in thetas]
            assert np.array_equal(got, want), name

    @pytest.mark.parametrize("name", OBJECTIVES)
    def test_a_non_finite_or_unsolvable_row_reads_nan_alone(self, name, rng, monkeypatch):
        model, thetas, povm, state = self.problem("pauli_complete", "complex", rng)
        objective = OBJECTIVES[name]
        want = [objective(model, theta, povm, state, 0.3) for theta in thetas]
        thetas[2, 0] = np.nan
        unsolvable = assemble_hamiltonian(model, thetas[4])
        eigh = np.linalg.eigh

        def eigh_failing(a):
            if any(np.array_equal(matrix, unsolvable) for matrix in a.reshape(-1, *a.shape[-2:])):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", eigh_failing)
        got = objective(model, thetas, povm, state, 0.3)
        # the stacked solve failed and went row by row: only the rows that fail alone read NaN
        assert np.isnan(got[[2, 4]]).all()
        assert np.array_equal(got[[0, 1, 3]], [want[b] for b in (0, 1, 3)])
        # one theta raises instead (on a new model: this one keeps the record of thetas[4])
        for b, reason in ((2, "non-finite"), (4, "converge")):
            with pytest.raises(np.linalg.LinAlgError, match=reason):
                objective(build_model("pauli_complete", 2), thetas[b], povm, state, 0.3)

    def test_theta_shape_checked(self, rng):
        model, thetas, povm, state = self.problem("mean_field", "complex", rng)
        for objective in OBJECTIVES.values():
            with pytest.raises(ValueError, match="theta shape"):
                objective(model, thetas[:, :-1], povm, state, 0.0)
            with pytest.raises(ValueError, match="theta shape"):
                objective(model, thetas[None], povm, state, 0.0)
        for name in ("grad_povm_gt", "grad_povm_exact", "grad_povm_commutator", "grad_relent"):
            with pytest.raises(ValueError, match="theta shape"):
                EVALUATIONS[name](model, thetas[None], povm, state)
        with pytest.raises(ValueError, match="one theta"):
            grad_relent_sampled(model, thetas, state)

    @pytest.mark.parametrize("family", GRADCHECK_SIZES)
    def test_finite_difference_gradient_is_the_loop_of_single_calls(self, family, rng):
        def loop(objective, theta, step=1e-6):
            grad = np.empty_like(theta)
            for j in range(theta.size):
                bump = np.zeros_like(theta)
                bump[j] = step
                grad[j] = (objective(theta + bump) - objective(theta - bump)) / (2 * step)
            return grad

        model, thetas, povm, state = self.problem(family, "complex", rng)
        theta = thetas[0]
        theta[0] = -0.0  # theta_j + 0.0 is +0.0, as the loop forms it
        for name, objective in OBJECTIVES.items():
            stacks = []

            def fun(t):
                stacks.append(t.shape)
                return objective(model, t, povm, state, 0.3)

            got = finite_difference_gradient(fun, theta)
            assert stacks == [(2 * model.n_terms, model.n_terms)]
            assert np.array_equal(got, loop(fun, theta)), name


# Every analytic gradient that takes a theta stack, at (model, theta or theta stack, POVM data, state data).
STACKED_GRADIENTS = {
    "gt": lambda m, t, povm, state: grad_povm_gt(m, t, povm, 0.3),
    "exact": lambda m, t, povm, state: grad_povm_exact(m, t, povm, 0.3),
    "commutator": lambda m, t, povm, state: grad_povm_commutator(m, t, povm, 0.3, 4),
    "commutator-12": lambda m, t, povm, state: grad_povm_commutator(m, t, povm, 0.3, MAX_COMMUTATOR_ORDER),
    "relent": lambda m, t, povm, state: grad_relent(m, t, state, 0.3),
}


class TestStackedGradients:
    """Each analytic gradient on a (B, n_terms) theta stack against its call at each row alone."""

    @pytest.mark.parametrize("family,nv,nh", [("fermionic", 2, 1), ("classical_bm", 2, 1), ("pauli_complete", 2, 0)])
    @pytest.mark.parametrize("kind", STACKED_GRADIENTS)
    def test_each_row_is_the_single_call(self, family, nv, nh, kind, rng):
        model = build_model(family, nv, nh)
        thetas = 0.5 * rng.normal(size=(5, model.n_terms))
        thetas[1] *= [not term.matrix.imag.any() for term in model.terms]  # a real H beside complex ones
        thetas[3, 0] = np.nan
        povm, state = random_full_rank_povm(2**nv, rng), random_mixed(nv, rng)
        real = ~assemble_hamiltonian(model, thetas).imag.any(axis=(1, 2))
        assert real[1] and (family != "pauli_complete" or not real[[0, 2, 4]].any())
        gradient = STACKED_GRADIENTS[kind]
        got = gradient(model, thetas, povm, state)
        assert got.shape == thetas.shape
        assert np.isnan(got[3]).all()
        for b in (0, 1, 2, 4):
            assert np.array_equal(got[b], gradient(build_model(family, nv, nh), thetas[b], povm, state))
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            gradient(build_model(family, nv, nh), thetas[3], povm, state)

    @pytest.mark.parametrize("kind", STACKED_GRADIENTS)
    def test_one_training_set_per_row(self, kind, rng):
        model = build_fermionic_model(2, 1)
        thetas = 0.5 * rng.normal(size=(3, model.n_terms))
        povms = [random_full_rank_povm(4, rng) for _ in thetas]
        states = [random_mixed(2, rng) for _ in thetas]
        gradient = STACKED_GRADIENTS[kind]
        got = gradient(model, thetas, povms, states)
        for theta, povm, state, row in zip(thetas, povms, states, got):
            assert np.array_equal(row, gradient(model, theta, povm, state))
        for name, objective in OBJECTIVES.items():
            got = objective(model, thetas, povms, states, 0.3)
            assert np.array_equal(got, [objective(model, *args, 0.3) for args in zip(thetas, povms, states)]), name
        with pytest.raises(ValueError, match="2 training sets for 3 theta rows"):
            gradient(model, thetas, povms[:2], states[:2])

    def test_a_row_whose_bound_solve_fails_reads_nan(self, rng, monkeypatch):
        # the solver behind gibbs_state fails on a huge H - log Lambda_v, as LAPACK may at theta ~ 1e307
        model, povm = build_fermionic_model(2), random_full_rank_povm(4, rng)
        thetas = 0.5 * rng.normal(size=(3, model.n_terms))
        want = grad_povm_gt(model, thetas, povm)
        thetas[1] *= 1e150
        solve = linalg._eigh

        def fail_when_huge(H, vectors=True):
            if np.abs(H).max() > 1e140:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return solve(H, vectors)

        monkeypatch.setattr(linalg, "_eigh", fail_when_huge)
        got = grad_povm_gt(model, thetas, povm)
        assert np.isnan(got[1]).all() and np.array_equal(got[[0, 2]], want[[0, 2]])
        with pytest.raises(np.linalg.LinAlgError, match="converge"):
            grad_povm_gt(model, thetas[1], povm)


class TestMeasurementBases:
    """grad_relent_sampled takes each term's eigenbasis once per model."""

    def test_each_term_solved_once_per_model(self, rng, monkeypatch):
        model, data = build_mean_field(2), random_mixed(2, rng)
        thetas = 0.3 * rng.normal(size=(3, model.n_terms))
        calls = []
        spy_on_solves(monkeypatch, calls, linalg)
        grads = [grad_relent_sampled(model, theta, data, 0.3, 64, seed) for seed, theta in enumerate(thetas)]
        grads.append(grad_relent_sampled(model, thetas[0], data, 0.3, 64, 7))
        assert len(calls) == model.n_terms
        for H, term in zip(calls, model.terms):
            assert np.array_equal(H, term.matrix)
        # as from bases taken afresh on a new model
        for seed, theta, grad in zip((0, 1, 2, 7), (*thetas, thetas[0]), grads):
            assert np.array_equal(grad, grad_relent_sampled(build_mean_field(2), theta, data, 0.3, 64, seed))
        # stacked, one row per term as each term's own solve gives it, read-only
        evals, V = vars(model)["_measurement_bases"]
        assert evals.shape == (model.n_terms, model.dim) and V.shape == (model.n_terms, model.dim, model.dim)
        for j, term in enumerate(model.terms):
            basis = training._measurement_basis(term.matrix)
            assert np.array_equal(evals[j], basis.eigenvalues) and np.array_equal(V[j], basis.eigenvectors)
        assert not evals.flags.writeable and not V.flags.writeable
        with pytest.raises(ValueError):
            V[0, 0, 0] = 0.0

    @pytest.mark.parametrize("family,nv,nh", [("fermionic", 3, 1), ("mean_field", 4, 0),
                                              ("pauli_complete", 2, 0), ("ti_complete", 3, 0)])
    def test_no_term_kept_dense(self, family, nv, nh, rng):
        model, data = build_model(family, nv, nh), random_mixed(nv, rng)
        theta = 0.5 * rng.normal(size=model.n_terms)
        got = grad_relent_sampled(model, theta, data, 0.3, 64, 5)
        assert not any("matrix" in vars(term) for term in model.terms)
        # bit for bit the gradient from bases taken on the kept dense terms
        kept = build_model(family, nv, nh)
        solved = [training._measurement_basis(term.matrix) for term in kept.terms]
        vars(kept)["_measurement_bases"] = training.EigenSystem(*(np.stack(a) for a in zip(*solved)))
        assert np.array_equal(got, grad_relent_sampled(kept, theta, data, 0.3, 64, 5))

    @pytest.mark.parametrize("family,nv,nh", [("fermionic", 3, 1), ("mean_field", 4, 0),
                                              ("pauli_complete", 2, 0), ("ti_complete", 3, 0)])
    def test_blocks_of_terms_change_no_bit(self, family, nv, nh, rng, monkeypatch):
        model, data = build_model(family, nv, nh), random_mixed(nv, rng)
        theta = 0.5 * rng.normal(size=model.n_terms)
        want = grad_relent_sampled(model, theta, data, 0.3, 64, 5)
        assert model.n_terms * model.dim**2 <= training.CHUNK_ENTRIES  # the default is one block
        for block in (1, 3, 7):
            monkeypatch.setattr(training, "CHUNK_ENTRIES", block * model.dim**2)
            assert np.array_equal(grad_relent_sampled(model, theta, data, 0.3, 64, 5), want)
        monkeypatch.setattr(training, "CHUNK_ENTRIES", 1)  # below one term: blocks of one
        assert np.array_equal(grad_relent_sampled(model, theta, data, 0.3, 64, 5), want)

    def test_temporaries_bounded_by_the_chunk_budget(self, rng):
        model, data = build_model("ti_complete", 6), random_mixed(6, rng)  # 27 terms, dim 64
        theta = 0.3 * rng.normal(size=model.n_terms)
        grad_relent_sampled(model, theta, data, n_samples=8)  # takes the bases and the evaluation
        held = sum(array.nbytes for array in vars(model)["_measurement_bases"])
        tracemalloc.start()
        try:
            grad_relent_sampled(model, theta, data, n_samples=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # three (block, dim, dim) complex temporaries at most, where one product over
        # every term at once holds two or three copies of the bases at a time
        bound = 3 * training.CHUNK_ENTRIES * 16 + 64 * 1024
        assert peak <= bound < 2 * held

    def test_a_term_above_unit_norm_fails_every_call(self, rng):
        z = np.diag([1.0, -1.0]).astype(complex)
        model = HamiltonianModel("hand_built", 1, 0, (Term("Z", z), Term("2Z", 2 * z)))
        data = random_mixed(1, rng)
        for _ in range(2):
            with pytest.raises(ValueError, match="exceeds 1"):
                grad_relent_sampled(model, np.zeros(2), data)
            assert "_measurement_bases" not in vars(model)
