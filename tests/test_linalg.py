"""Frozen-value and property tests for the dense linear-algebra layer."""

import re
from pathlib import Path

import numpy as np
import pytest

import qbmlab
from qbmlab.linalg import (
    distance,
    expectation_value,
    fidelity,
    frechet_exp_neg,
    gibbs_state,
    hermitian_eigendecompose,
    hermitize,
    kron,
    log_partition,
    matrix_log_psd,
    relative_entropy,
    validate_density_matrix,
    von_neumann_entropy,
)
from qbmlab.operators import pauli_matrix

from conftest import random_density, random_hermitian

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
HALF = np.eye(2, dtype=complex) / 2


class TestEigendecompose:
    def test_identity(self):
        es = hermitian_eigendecompose(np.eye(2, dtype=complex))
        assert np.allclose(es.eigenvalues, [1.0, 1.0])

    def test_pauli_z(self):
        es = hermitian_eigendecompose(pauli_matrix("Z"))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])
        # ascending order puts the -1 eigenvector |1> first
        assert abs(abs(es.eigenvectors[1, 0]) - 1.0) < 1e-12
        assert abs(abs(es.eigenvectors[0, 1]) - 1.0) < 1e-12

    def test_pauli_x(self):
        es = hermitian_eigendecompose(pauli_matrix("X"))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])
        v = es.eigenvectors
        for col, sign in ((0, -1.0), (1, 1.0)):
            u = v[:, col] / v[0, col]  # fix global phase
            assert np.allclose(u / np.linalg.norm(u), [1 / np.sqrt(2), sign / np.sqrt(2)])

    def test_reconstruction_500_random(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 5))
            h = random_hermitian(2**n, rng, scale=float(rng.uniform(0.1, 5.0)))
            es = hermitian_eigendecompose(h)
            v, lam = es.eigenvectors, es.eigenvalues
            rebuilt = (v * lam) @ v.conj().T
            assert np.linalg.norm(rebuilt - h) <= 1e-9 * np.linalg.norm(h, 2)
            assert np.linalg.norm(v.conj().T @ v - np.eye(2**n)) < 1e-10
            assert np.all(np.diff(lam) >= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            hermitian_eigendecompose(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    @pytest.mark.parametrize(
        "solve", [hermitian_eigendecompose, gibbs_state, log_partition, matrix_log_psd,
                  von_neumann_entropy])
    def test_public_entry_points_reject_non_finite(self, solve, entry):
        m = np.eye(2, dtype=complex)
        m[1, 1] = entry
        with pytest.raises(ValueError, match="non-finite"):
            solve(m)

    def test_accepts_finite_entries_whose_norm_overflows(self):
        # ||A||_F overflows to inf, but every entry is finite
        with np.errstate(over="ignore"):
            evals, _ = hermitian_eigendecompose(np.diag([1e160, -1e160]))
        assert np.array_equal(evals, [-1e160, 1e160])

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eigendecompose(m)

    def test_hermitize_absorbs_roundoff(self):
        h = pauli_matrix("X") + 1e-12 * np.array([[0, 1j], [0, 0]])
        assert np.allclose(hermitize(h), hermitize(h).conj().T)


def random_real_symmetric(dim, rng):
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2


class TestRealSymmetricPath:
    """A Hermitian matrix without imaginary part goes to the real solver."""

    @pytest.mark.parametrize("dtype", [np.complex128, np.float64])
    @pytest.mark.parametrize("dim", [2, 8, 64])
    def test_matches_the_complex_solver(self, rng, dtype, dim):
        h = random_real_symmetric(dim, rng).astype(dtype)
        want_evals, U = np.linalg.eigh(h.astype(np.complex128))
        evals, V = hermitian_eigendecompose(h)
        assert V.dtype == np.float64
        assert np.abs(evals - want_evals).max() <= 1e-12 * np.abs(want_evals).max()
        assert np.linalg.norm(V.T @ V - np.eye(dim)) < 1e-12
        assert np.linalg.norm((V * evals) @ V.T - h) <= 1e-12 * np.linalg.norm(h)
        # the Gibbs state as the complex solver's eigensystem gives it
        weights = np.exp(-(want_evals - want_evals[0]))
        want_rho = (U * (weights / weights.sum())) @ U.conj().T
        want_log_z = np.log(weights.sum()) - want_evals[0]
        rho, log_z = gibbs_state(h)
        assert rho.dtype == np.complex128
        assert np.abs(rho - want_rho).max() <= 1e-13
        assert abs(log_z - want_log_z) <= 1e-13 * max(1.0, abs(want_log_z))
        assert abs(log_partition(h) - want_log_z) <= 1e-13 * max(1.0, abs(want_log_z))

    def test_anti_hermitian_noise_cancels_before_the_test(self, rng):
        h = random_real_symmetric(8, rng)
        noisy = h + 1e-12j * random_real_symmetric(8, rng)
        evals, V = hermitian_eigendecompose(noisy)
        assert V.dtype == np.float64
        assert np.array_equal(evals, hermitian_eigendecompose(h).eigenvalues)

    @pytest.mark.parametrize("size", [1.0, 1e-300])
    def test_any_imaginary_part_stays_complex(self, rng, size):
        a = rng.normal(size=(8, 8))
        h = random_real_symmetric(8, rng) + 1j * size * (a - a.T)
        evals, V = hermitian_eigendecompose(h)
        assert V.dtype == np.complex128
        assert np.array_equal(evals, np.linalg.eigh(hermitize(h))[0])
        assert hermitian_eigendecompose(pauli_matrix("Y")).eigenvectors.dtype == np.complex128

    def test_public_results_stay_complex(self, rng):
        h = random_real_symmetric(8, rng)
        rho, _ = gibbs_state(h)
        assert matrix_log_psd(rho).dtype == np.complex128
        assert validate_density_matrix(rho.real).dtype == np.complex128
        assert abs(fidelity(rho.real, rho) - 1.0) < 1e-12
        evals, V = hermitian_eigendecompose(h)
        derivative = frechet_exp_neg(h, np.eye(8))
        assert derivative.dtype == np.complex128
        # along the identity, which commutes with h, the derivative is -e^{-h}
        assert np.allclose(derivative, -(V * np.exp(-evals)) @ V.T, atol=1e-12)


def test_only_linalg_calls_numpy_eigensolvers():
    # every solve goes through linalg, which checks Hermiticity and picks the arithmetic
    solver = re.compile(r"\b(np|numpy)\.linalg\.(eigh|eigvalsh|eigvals|eig)\b|from numpy\.linalg import")
    package = Path(qbmlab.__file__).parent
    offenders = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(package.glob("*.py")) if path.name != "linalg.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if solver.search(line)
    ]
    assert offenders == []


class TestGibbsState:
    def test_zero_hamiltonian(self):
        for n in (1, 2, 3):
            rho, logz = gibbs_state(np.zeros((2**n, 2**n), dtype=complex))
            assert np.allclose(rho, np.eye(2**n) / 2**n, atol=1e-14)
            assert abs(logz - n * np.log(2)) < 1e-12

    def test_single_qubit_z(self):
        # p(|0>) = e^{-1}/(e^{-1}+e^{+1}) = 1/(1+e^2)
        rho, logz = gibbs_state(pauli_matrix("Z"))
        assert abs(rho[0, 0].real - 0.11920292202211755) < 1e-12
        assert abs(logz - np.log(2 * np.cosh(1.0))) < 1e-12

    def test_classical_boltzmann_reduction(self, rng):
        e = rng.normal(size=8)
        rho, _ = gibbs_state(np.diag(e).astype(complex))
        p = np.exp(-e) / np.exp(-e).sum()
        assert np.allclose(np.diag(rho).real, p, atol=1e-12)

    def test_large_norm_no_overflow(self, rng):
        h = random_hermitian(8, rng, scale=50.0)
        rho, logz = gibbs_state(h)
        validate_density_matrix(rho)
        assert np.isfinite(logz)


class TestLogPartition:
    @pytest.mark.parametrize("scale", [0.1, 1.0, 50.0])
    def test_matches_gibbs_state(self, rng, scale):
        for dim in (2, 8, 32):
            h = random_hermitian(dim, rng, scale=scale)
            _, logz = gibbs_state(h)
            assert abs(log_partition(h) - logz) <= 1e-12 * abs(logz)

    def test_diagonal_closed_form(self):
        e = np.array([-3.0, 0.5, 2.0, 40.0])
        expected = np.log(np.exp(-e).sum())
        assert abs(log_partition(np.diag(e).astype(complex)) - expected) < 1e-12 * abs(expected)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            log_partition(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestMatrixLogPsd:
    def test_identity(self):
        assert np.allclose(matrix_log_psd(np.eye(4, dtype=complex)), np.zeros((4, 4)))

    def test_diagonal(self):
        a = np.diag([np.e, np.e**2]).astype(complex)
        assert np.allclose(matrix_log_psd(a), np.diag([1.0, 2.0]), atol=1e-12)

    def test_clip_applied_to_zero_eigenvalue(self):
        out = matrix_log_psd(P0, clip=1e-10)
        assert np.allclose(np.diag(out).real, [0.0, np.log(1e-10)], atol=1e-9)
        assert np.allclose(out, out.conj().T)

    def test_rejects_negative_eigenvalues(self):
        with pytest.raises(ValueError):
            matrix_log_psd(np.diag([1.0, -0.5]).astype(complex))


class TestFrechetExpNeg:
    def test_zero_hamiltonian(self, rng):
        e = random_hermitian(4, rng)
        assert np.allclose(frechet_exp_neg(np.zeros((4, 4), dtype=complex), e), -e, atol=1e-12)

    def test_commuting_diagonal(self):
        h = np.diag([0.3, -0.7, 1.1, 0.0]).astype(complex)
        e = np.diag([1.0, 2.0, -1.0, 0.5]).astype(complex)
        expected = -e @ np.diag(np.exp(-np.diag(h)))
        assert np.allclose(frechet_exp_neg(h, e), expected, atol=1e-12)

    def test_finite_difference_100_pairs(self, rng):
        from scipy.linalg import expm

        h_step = 1e-5
        for _ in range(100):
            h = random_hermitian(8, rng, scale=float(rng.uniform(0.2, 2.0)))
            e = random_hermitian(8, rng, scale=float(rng.uniform(0.2, 2.0)))
            fd = (expm(-(h + h_step * e)) - expm(-(h - h_step * e))) / (2 * h_step)
            got = frechet_exp_neg(h, e)
            assert np.linalg.norm(got - fd) <= 1e-6 * max(1.0, np.linalg.norm(fd))

    def test_hermitian_output(self, rng):
        h = random_hermitian(8, rng)
        e = random_hermitian(8, rng)
        d = frechet_exp_neg(h, e)
        assert np.allclose(d, d.conj().T, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            frechet_exp_neg(np.eye(2, dtype=complex), np.eye(4, dtype=complex))


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert abs(von_neumann_entropy(P0)) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(HALF) - np.log(2)) < 1e-12

    def test_self_relative_entropy_zero(self, rng):
        rho = random_density(8, rng)
        assert abs(relative_entropy(rho, rho)) < 1e-9

    def test_pure_vs_maximally_mixed(self):
        # S(|0><0| || I/2) = log 2, using 0 log 0 = 0 on rho's null space
        assert abs(relative_entropy(P0, HALF) - np.log(2)) < 1e-12

    def test_nonnegative_and_faithful(self, rng):
        for _ in range(200):
            rho = random_density(4, rng)
            sigma = random_density(4, rng)
            s = relative_entropy(rho, sigma)
            assert s >= -1e-9
            if distance(rho, sigma, kind="frobenius") < 1e-7:
                assert s < 1e-9

    def test_pinsker_style_bound(self, rng):
        # S(rho||sigma) >= ||rho - sigma||_F^2 / (2 ln 2)
        for _ in range(500):
            rho = random_density(4, rng)
            sigma = random_density(4, rng)
            gap = relative_entropy(rho, sigma) - distance(rho, sigma, kind="frobenius") ** 2 / (2 * np.log(2))
            assert gap >= -1e-10

    def test_rank_deficient_sigma_rejected(self):
        with pytest.raises(ValueError):
            relative_entropy(HALF, P0)


class TestDistance:
    def test_zero_on_identical(self, rng):
        rho = random_density(4, rng)
        assert distance(rho, rho) == 0.0
        assert distance(rho, rho, kind="frobenius") == 0.0

    def test_orthogonal_pure_trace(self):
        assert abs(distance(P0, P1) - 1.0) < 1e-12

    def test_frobenius_closed_form(self):
        assert abs(distance(P0, HALF, kind="frobenius") - 1 / np.sqrt(2)) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            distance(P0, P1, kind="operator")


class TestFidelity:
    def test_self_fidelity_one(self, rng):
        for dim in (2, 4, 8):
            rho = random_density(dim, rng)
            assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_symmetric(self, rng):
        for _ in range(100):
            rho = random_density(4, rng)
            sigma = random_density(4, rng)
            assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10

    def test_pure_state_reduces_to_overlap(self, rng):
        for _ in range(100):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi /= np.linalg.norm(psi)
            pure = np.outer(psi, psi.conj())
            sigma = random_density(4, rng)
            # rounding-level eigenvalues of the rank-one product enter
            # through a square root, hence ~1e-8 agreement, not 1e-15
            overlap = expectation_value(pure, sigma)
            assert abs(fidelity(pure, sigma) - overlap) < 1e-6
            assert abs(fidelity(sigma, pure) - overlap) < 1e-6

    def test_commuting_diagonal_closed_form(self):
        p = np.array([0.5, 0.3, 0.15, 0.05])
        q = np.array([0.1, 0.2, 0.3, 0.4])
        expected = np.sum(np.sqrt(p * q)) ** 2
        assert abs(fidelity(np.diag(p).astype(complex), np.diag(q).astype(complex)) - expected) < 1e-12

    def test_orthogonal_pure_states_zero(self):
        assert fidelity(P0, P1) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(HALF, np.eye(4, dtype=complex) / 4)

    def test_matches_sqrtm_oracle_100_pairs(self, rng):
        from scipy.linalg import sqrtm

        for _ in range(100):
            rho = random_density(8, rng)
            sigma = random_density(8, rng)
            root = sqrtm(rho)
            oracle = np.trace(sqrtm(root @ sigma @ root)).real ** 2
            assert abs(fidelity(rho, sigma) - oracle) < 1e-10


class TestKron:
    def test_identity(self):
        assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_commuting_factors(self):
        z = pauli_matrix("Z")
        i2 = np.eye(2, dtype=complex)
        assert np.allclose(kron(z, i2) @ kron(i2, z), pauli_matrix("ZZ"))

    def test_entry_check(self):
        m = kron(pauli_matrix("X"), pauli_matrix("Z"))
        assert m[0, 2] == 1.0
        assert m[1, 3] == -1.0


class TestDensityValidation:
    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density(4, rng))

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(2 * HALF @ np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_expectation_value(self):
        assert abs(expectation_value(P0, pauli_matrix("Z")) - 1.0) < 1e-12

    @pytest.mark.parametrize("state, observable", [
        (np.eye(2), [[3.0]]),  # broadcasting made this 6.0
        (np.eye(2), np.eye(4)),
        (np.eye(2), np.ones(2)),
        (np.ones(2), np.ones(2)),
    ])
    def test_expectation_value_rejects_a_shape_mismatch(self, state, observable):
        with pytest.raises(ValueError, match="shape"):
            expectation_value(state, observable)
