"""Target generators: step distributions, Haar states, random teachers."""

import numpy as np
import pytest

import qbmlab.datasets as datasets
import qbmlab.linalg as linalg
import qbmlab.training as training
from qbmlab.datasets import (
    haar_random_pure,
    haar_unitary,
    random_mixed,
    random_ti_teacher,
    step_distribution,
    step_function_state,
)
from qbmlab.linalg import gibbs_state
from qbmlab.operators import assemble_hamiltonian, build_model
from qbmlab.training import PovmTrainingSet, StateTrainingSet, child_seed


class TestStepDistribution:
    def test_noiseless_uniform_over_steps(self):
        # n=2 steps: 00, 10, 11 (most significant bit first)
        q = step_distribution(2, noise_p=0.0)
        assert np.allclose(q, [1 / 3, 0.0, 1 / 3, 1 / 3])

    def test_frozen_noisy_value(self):
        # q(00) = (0.9^2 + 0.1*0.9 + 0.1*0.1) / 3
        q = step_distribution(2, noise_p=0.1)
        assert abs(q[0] - 0.91 / 3) < 1e-12

    @pytest.mark.parametrize("n,p", [(1, 0.0), (2, 0.1), (3, 0.25), (4, 0.49)])
    def test_normalized(self, n, p):
        q = step_distribution(n, noise_p=p)
        assert q.shape == (2**n,)
        assert abs(q.sum() - 1.0) < 1e-12
        assert np.all(q >= 0)

    def test_noise_range_checked(self):
        with pytest.raises(ValueError):
            step_distribution(2, noise_p=0.5)


class TestStepFunctionState:
    def test_amplitudes_real_nonnegative(self):
        psi, _, _ = step_function_state(3)
        assert np.all(psi.real >= 0)
        assert np.allclose(psi.imag, 0.0)
        assert abs(np.vdot(psi, psi).real - 1.0) < 1e-12

    def test_povm_and_state_sets(self):
        psi, povm, states = step_function_state(2)
        assert isinstance(povm, PovmTrainingSet)
        assert np.allclose(povm.probabilities, [1.0, 0.0])
        proj = np.outer(psi, psi.conj())
        assert np.allclose(povm.elements[0], proj)
        assert np.allclose(povm.elements[0] + povm.elements[1], np.eye(4))
        assert isinstance(states, StateTrainingSet)
        assert np.allclose(states.rho, proj)


class TestHaar:
    def test_unitary(self, rng):
        u = haar_unitary(8, rng)
        assert np.linalg.norm(u.conj().T @ u - np.eye(8)) < 1e-12

    def test_seed_reproducible(self):
        a = haar_unitary(4, np.random.default_rng(5))
        b = haar_unitary(4, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_pure_state_basics(self, rng):
        s = haar_random_pure(2, rng)
        evals = np.linalg.eigvalsh(s.rho)
        assert abs(np.trace(s.rho).real - 1.0) < 1e-12
        assert evals[-2] < 1e-12  # rank one
        assert abs(np.trace(s.rho @ s.rho).real - 1.0) < 1e-12

    def test_first_moment(self, rng):
        # Haar average of |psi><psi| is the maximally mixed state
        acc = np.zeros((4, 4), dtype=complex)
        for _ in range(5000):
            acc += haar_random_pure(2, rng).rho
        assert np.linalg.norm(acc / 5000 - np.eye(4) / 4) < 0.02


class TestRandomMixed:
    def test_full_rank(self, rng):
        s = random_mixed(2, rng)
        assert np.linalg.eigvalsh(s.rho)[0] > 0

    def test_spectrum_is_normalized_uniform_weights(self):
        # replicate the construction: one Haar unitary, then dim uniforms
        seed = 77
        s = random_mixed(2, np.random.default_rng(seed))
        shadow = np.random.default_rng(seed)
        haar_unitary(4, shadow)
        w = shadow.uniform(size=4)
        w /= w.sum()
        assert np.allclose(np.linalg.eigvalsh(s.rho), np.sort(w), atol=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_hermitian_bit_for_bit(self, rng, n):
        rho = random_mixed(n, rng).rho
        assert np.array_equal(rho, rho.conj().T)

    def test_state_validated_once(self, rng, monkeypatch):
        # StateTrainingSet checks the state; random_mixed adds no second check
        checks = []
        check = linalg.validate_density_matrix
        for module in (datasets, training, linalg):
            monkeypatch.setattr(module, "validate_density_matrix",
                                lambda *args: checks.append(args) or check(*args), raising=False)
        for n in (1, 2, 3):
            random_mixed(n, rng)
            assert len(checks) == n

    def test_mean_purity_single_qubit(self, rng):
        # E[Tr rho^2] = E[(u^2+v^2)/(u+v)^2] = 2 - 2 ln 2 for two iid uniforms
        acc = 0.0
        for _ in range(2000):
            rho = random_mixed(1, rng).rho
            acc += np.trace(rho @ rho).real
        assert abs(acc / 2000 - (2 - 2 * np.log(2))) < 0.02


class TestTiTeacher:
    def test_normalized_unit_spectral_norm(self, rng):
        model = build_model("ti_complete", 3)
        [(theta, _)] = random_ti_teacher(model, (True,), rng)
        assert abs(np.linalg.norm(assemble_hamiltonian(model, theta), 2) - 1.0) < 1e-10

    def test_parameter_count(self, rng):
        [(theta, _)] = random_ti_teacher(build_model("ti_complete", 2), (False,), rng)
        assert theta.size == 5

    def test_target_is_teacher_gibbs(self, rng):
        model = build_model("ti_complete", 2)
        [(theta, target)] = random_ti_teacher(model, (False,), rng)
        rho, _ = gibbs_state(assemble_hamiltonian(model, theta))
        assert np.allclose(target.rho, rho, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4])
    def test_normalized_target_is_teacher_gibbs(self, rng, n):
        # built from the raw spectrum rescaled, not a second eigendecomposition
        model = build_model("ti_complete", n)
        [(theta, target)] = random_ti_teacher(model, (True,), rng)
        rho, _ = gibbs_state(assemble_hamiltonian(model, theta))
        assert np.abs(target.rho - rho).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 5])
    def test_variants_share_one_draw_and_one_solve(self, n, monkeypatch):
        model = build_model("ti_complete", n)
        single = [random_ti_teacher(model, (flag,), np.random.default_rng(7))[0] for flag in (True, False)]
        solves = []
        eigh = linalg._eigh
        for module in (datasets, training, linalg):
            monkeypatch.setattr(module, "_eigh", lambda H, vectors=True: solves.append(vectors) or eigh(H, vectors))
        rng = np.random.default_rng(7)
        both = random_ti_teacher(model, (True, False), rng)
        for _, target in both:
            assert 0 <= target.entropy <= n * np.log(2) + 1e-12
        # the teacher's one eigendecomposition, and no eigvalsh to check a target or take its entropy
        assert solves == [True]
        # bit for bit what a draw per variant from the same stream gives, and the stream
        # is left where one such draw leaves it
        for (theta, target), (want_theta, want_target) in zip(both, single):
            assert np.array_equal(theta, want_theta) and np.array_equal(target.rho, want_target.rho)
        after_one = np.random.default_rng(7)
        after_one.standard_normal(model.n_terms)
        assert rng.random() == after_one.random()

    def test_other_families_rejected(self, rng):
        with pytest.raises(ValueError, match="ti_complete"):
            random_ti_teacher(build_model("mean_field", 2), (False,), rng)


class TestChildSeed:
    def test_deterministic_and_distinct(self):
        a = [child_seed(3, i) for i in range(4)]
        b = [child_seed(3, i) for i in range(4)]
        states = [np.random.default_rng(s).normal(size=3) for s in a]
        again = [np.random.default_rng(s).normal(size=3) for s in b]
        for x, y in zip(states, again):
            assert np.array_equal(x, y)
        assert len({tuple(x) for x in states}) == 4  # streams differ

