"""Frozen-value and property tests for the dense linear-algebra layer."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import qbmlab
from qbmlab.linalg import (
    _eigh,
    _entropy,
    _exp_neg_divided_differences,
    _gibbs,
    _traces,
    fidelity,
    gibbs_state,
    hermitian_eigendecompose,
    hermitize,
    matrix_log_psd,
    validate_density_matrix,
    von_neumann_entropy,
)
from qbmlab.datasets import random_mixed, step_distribution, step_function_state
from qbmlab.operators import assemble_hamiltonian, build_model
from qbmlab.training import OptimizerConfig, PovmTrainingSet, train
from conftest import pauli_word, random_density, random_hermitian

P0 = np.diag([1.0, 0.0]).astype(complex)
P1 = np.diag([0.0, 1.0]).astype(complex)
HALF = np.eye(2, dtype=complex) / 2


class TestEigendecompose:
    def test_identity(self):
        es = hermitian_eigendecompose(np.eye(2, dtype=complex))
        assert np.allclose(es.eigenvalues, [1.0, 1.0])

    def test_pauli_z(self):
        es = hermitian_eigendecompose(pauli_word("Z"))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])
        # ascending order puts the -1 eigenvector |1> first
        assert abs(abs(es.eigenvectors[1, 0]) - 1.0) < 1e-12
        assert abs(abs(es.eigenvectors[0, 1]) - 1.0) < 1e-12

    def test_pauli_x(self):
        es = hermitian_eigendecompose(pauli_word("X"))
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
        "solve", [hermitian_eigendecompose, gibbs_state, matrix_log_psd,
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

    def test_symmetrizes_entries_near_the_float_maximum(self):
        # A + A^* would overflow to inf here; the Hermitian part is formed as A/2 + A^*/2
        with np.errstate(over="ignore"):
            evals, _ = hermitian_eigendecompose(np.diag([1.7e308, -1.7e308]))
        assert np.array_equal(evals, [-1.7e308, 1.7e308])

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            hermitian_eigendecompose(m)

    @pytest.mark.parametrize("size", [1e160, 1e-170])
    def test_rejects_non_hermitian_whose_norm_overflows_or_underflows(self, size):
        # ||A||_F overflows to inf or its square underflows to 0 unless the entries are scaled
        m = size * np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            hermitian_eigendecompose(m)

    def test_hermitize_absorbs_roundoff(self):
        h = pauli_word("X") + 1e-12 * np.array([[0, 1j], [0, 0]])
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
        assert hermitian_eigendecompose(pauli_word("Y")).eigenvectors.dtype == np.complex128

    def test_public_results_stay_complex(self, rng):
        h = random_real_symmetric(8, rng)
        rho, _ = gibbs_state(h)
        assert matrix_log_psd(rho).dtype == np.complex128
        assert validate_density_matrix(rho.real).dtype == np.complex128
        assert abs(fidelity(rho.real, rho) - 1.0) < 1e-12


def test_only_linalg_calls_numpy_eigensolvers():
    # every solve goes through linalg._eigh; the public entry points check
    # Hermiticity first, and _eigh picks the arithmetic
    solver = re.compile(r"\b(np|numpy)\.linalg\.(eigh|eigvalsh|eigvals|eig)\b|from numpy\.linalg import")
    package = Path(qbmlab.__file__).parent
    tree = ast.parse((package / "linalg.py").read_text())
    eigh = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_eigh")
    inside, offenders = set(), []
    for path in sorted(package.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            if path.name == "linalg.py" and eigh.lineno <= number <= eigh.end_lineno:
                inside.update(match.group(2) for match in solver.finditer(line))
            elif solver.search(line):
                offenders.append(f"{path.name}:{number}: {line.strip()}")
    assert offenders == []
    assert inside == {"eigh", "eigvalsh"}


NUMPY_EIGH, NUMPY_EIGVALSH = np.linalg.eigh, np.linalg.eigvalsh


def same(got, want):
    """Equal bit for bit: dtype, shape and bytes."""
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.fixture
def numpy_solves(monkeypatch):
    """The input of every call of numpy's eigh and eigvalsh, in order."""
    calls = []
    for name, solve in (("eigh", NUMPY_EIGH), ("eigvalsh", NUMPY_EIGVALSH)):
        monkeypatch.setattr(np.linalg, name, lambda a, solve=solve: calls.append(a) or solve(a))
    return calls


class TestDiagonalPath:
    """_eigh takes a diagonal matrix, or a stack of them, to no solver, and returns what numpy's return."""

    @staticmethod
    def assert_as_numpy(H):
        real = H if np.iscomplexobj(H) and H.imag.any() else H.real
        # LAPACK may drop the sign of a zero eigenvalue, which no Gibbs weight, state or log Z sees
        evals, V = _eigh(H)
        want_evals, want_V = NUMPY_EIGH(real)
        assert evals.dtype == want_evals.dtype and np.array_equal(evals, want_evals) and same(V, want_V)
        values, want_values = _eigh(H, vectors=False), NUMPY_EIGVALSH(real)
        assert values.dtype == want_values.dtype and np.array_equal(values, want_values)
        for got, want in zip(_gibbs(evals, V), _gibbs(want_evals, want_V)):
            assert same(got, want)

    @pytest.mark.parametrize("dim", [1, 4, 128])
    @pytest.mark.parametrize("value", [0.0, -0.0, 2.5])
    def test_a_multiple_of_the_identity(self, dim, value, numpy_solves):
        for H in (value * np.eye(dim), np.diag(np.full(dim, value)).astype(complex), np.zeros((3, dim, dim))):
            self.assert_as_numpy(H)
        assert numpy_solves == []

    @pytest.mark.parametrize("n_visible, n_hidden", [(2, 1), (3, 0), (3, 2), (4, 1), (5, 2)])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 3.0])
    def test_classical_bm_stacks(self, n_visible, n_hidden, scale, rng, numpy_solves):
        model = build_model("classical_bm", n_visible, n_hidden)
        H = assemble_hamiltonian(model, scale * rng.normal(size=(4, model.n_terms)))
        self.assert_as_numpy(H)
        for matrix in H:
            self.assert_as_numpy(matrix)
        assert numpy_solves == []

    @pytest.mark.parametrize("dim", [3, 4, 16, 128])
    def test_ties_keep_numpy_eigenvectors(self, dim, rng, numpy_solves):
        # LAPACK orders tied eigenvectors by selection sort, not stably: [1, 1, 0] gives e2, e1, e0
        assert same(NUMPY_EIGH(np.diag([1.0, 1.0, 0.0]))[1], np.eye(3)[::-1])
        H = np.diag(rng.choice([-1.0, 1.0], size=dim)).astype(complex)
        H[0, 0] = H[1, 1] = H[2, 2] = -1.0  # a tie
        H[-1, -1] = 1.0  # that is not all of the diagonal
        self.assert_as_numpy(H)
        # the eigenvalues alone take no solver; the eigensystem takes numpy's
        assert len(numpy_solves) == 1
        # so does a stack of a constant diagonal and one without ties
        stack = np.stack([np.zeros((dim, dim)), np.diag(rng.permutation(dim) + 0.5)])
        self.assert_as_numpy(stack)
        assert [a.shape for a in numpy_solves[1:]] == [(2, dim, dim)]

    def test_a_stack_with_one_non_diagonal_matrix_goes_to_numpy(self, rng, numpy_solves):
        model = build_model("classical_bm", 2, 1)
        H = assemble_hamiltonian(model, rng.normal(size=(3, model.n_terms)))
        H[1] += random_real_symmetric(8, rng)
        self.assert_as_numpy(H)
        assert [a.shape for a in numpy_solves] == [(3, 8, 8)] * 2  # eigh, then eigvalsh

    @pytest.mark.parametrize("family, numpy_stacks", [("classical_bm", 0), ("fermionic", 1)])
    def test_training_solves_h_with_numpy_only_when_it_is_not_diagonal(self, family, numpy_stacks, rng,
                                                                       numpy_solves):
        # the exact gradient solves H(theta) once per epoch; each POVM element's check and logarithm solve once
        model, povm = build_model(family, 2, 1), step_function_state(2)[1]
        epochs = 4
        train(model, 0.1 * rng.normal(size=model.n_terms), povm, OptimizerConfig("exact", epochs=epochs))
        stacks = [a for a in numpy_solves if a.ndim == 3]
        assert len(stacks) == numpy_stacks * (epochs + 1)
        assert len(numpy_solves) == len(stacks) + 2 * len(povm.elements)

    def test_basis_data_keeps_every_gt_solve_of_classical_bm_out_of_numpy(self, rng, numpy_solves):
        # H(theta), every H - log Lambda_v and each element's check are diagonal; only the
        # logarithms of the basis elements, whose zero eigenvalues tie, take numpy's solver, once each
        model, dim = build_model("classical_bm", 2, 1), 4
        data = PovmTrainingSet(tuple(np.diag(row).astype(complex) for row in np.eye(dim)), step_distribution(2))
        train(model, 0.1 * rng.normal(size=model.n_terms), data, OptimizerConfig("gt", epochs=4))
        assert [a.shape for a in numpy_solves] == [(dim, dim)] * dim


class TestGibbsState:
    def test_zero_hamiltonian(self):
        for n in (1, 2, 3):
            rho, logz = gibbs_state(np.zeros((2**n, 2**n), dtype=complex))
            assert np.allclose(rho, np.eye(2**n) / 2**n, atol=1e-14)
            assert abs(logz - n * np.log(2)) < 1e-12

    def test_single_qubit_z(self):
        # p(|0>) = e^{-1}/(e^{-1}+e^{+1}) = 1/(1+e^2)
        rho, logz = gibbs_state(pauli_word("Z"))
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


class TestGibbsLogZ:
    """log Z = log Tr[e^{-H}] as gibbs_state returns it."""

    @pytest.mark.parametrize("scale", [0.1, 1.0, 50.0])
    def test_matches_log_sum_exp_of_the_spectrum(self, rng, scale):
        from scipy.special import logsumexp

        for dim in (2, 8, 32):
            h = random_hermitian(dim, rng, scale=scale)
            _, logz = gibbs_state(h)
            assert abs(logz - logsumexp(-np.linalg.eigvalsh(h))) <= 1e-12 * max(1.0, abs(logz))

    def test_diagonal_closed_form(self):
        e = np.array([-3.0, 0.5, 2.0, 40.0])
        expected = np.log(np.exp(-e).sum())
        assert abs(gibbs_state(np.diag(e).astype(complex))[1] - expected) < 1e-12 * abs(expected)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            gibbs_state(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


class TestGibbsKernel:
    """_gibbs, the one kernel behind every Gibbs state and log Z, on a (B, d) stack."""

    @pytest.mark.parametrize("real", [True, False])
    def test_stack_rows_are_each_eigensystem_alone(self, rng, real):
        dim = 8
        scales = (0.1, 1.0, 50.0)
        hs = [random_real_symmetric(dim, rng) if real else random_hermitian(dim, rng) for _ in scales]
        stack = np.stack([h * (scale / np.linalg.norm(h, 2)) for h, scale in zip(hs, scales)])
        evals, V = np.linalg.eigh(stack)
        assert V.dtype == (np.float64 if real else np.complex128)
        weights, rho, log_z = _gibbs(evals, V)
        assert (weights.shape, rho.shape, log_z.shape) == ((3, dim), (3, dim, dim), (3,))
        for b in range(len(stack)):
            alone = _gibbs(evals[b], V[b])
            for got, want in zip((weights[b], rho[b], log_z[b]), alone):
                assert np.array_equal(got, want)
        # the eigenvalues alone give the same weights and log Z, and no rho
        values_only = _gibbs(evals)
        assert values_only[1] is None
        assert np.array_equal(values_only[0], weights) and np.array_equal(values_only[2], log_z)
        # the scale-50 row stays finite
        assert np.isfinite(weights).all() and np.isfinite(rho).all() and np.isfinite(log_z).all()
        validate_density_matrix(rho[2])


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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_clip_sets_the_null_space_of_a_projector(self, n):
        # rounding-level eigenvalues of the projector count as zero, so a clip
        # below them still decides the log: ln(1e-20) = -46.05, not about -37
        projector = step_function_state(n)[1].elements[0]
        out = matrix_log_psd(projector, clip=1e-20)
        expected = np.log(1e-20) * (np.eye(2**n) - projector)
        assert np.allclose(out, expected, rtol=0.0, atol=1e-12)


def kernel_derivative(h, e):
    """Derivative of e^{-H} at h along e: V((V^+ e V) o K)V^+, K the divided-difference kernel."""
    evals, V = np.linalg.eigh(h)
    return V @ ((V.conj().T @ e @ V) * _exp_neg_divided_differences(evals)) @ V.conj().T


class TestExpNegKernel:
    def test_zero_hamiltonian(self, rng):
        e = random_hermitian(4, rng)
        assert np.allclose(kernel_derivative(np.zeros((4, 4), dtype=complex), e), -e, atol=1e-12)

    def test_commuting_diagonal(self):
        h = np.diag([0.3, -0.7, 1.1, 0.0]).astype(complex)
        e = np.diag([1.0, 2.0, -1.0, 0.5]).astype(complex)
        expected = -e @ np.diag(np.exp(-np.diag(h)))
        assert np.allclose(kernel_derivative(h, e), expected, atol=1e-12)

    def test_expm_frechet_100_pairs(self, rng):
        # scipy's scaling-and-squaring Frechet derivative (Al-Mohy & Higham
        # 2009) of expm at -h along -e shares no code with the kernel
        from scipy.linalg import expm_frechet

        for _ in range(100):
            h = random_hermitian(8, rng, scale=float(rng.uniform(0.2, 2.0)))
            e = random_hermitian(8, rng, scale=float(rng.uniform(0.2, 2.0)))
            want = expm_frechet(-h, -e, compute_expm=False)
            got = kernel_derivative(h, e)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_hermitian_output(self, rng):
        h = random_hermitian(8, rng)
        e = random_hermitian(8, rng)
        d = kernel_derivative(h, e)
        assert np.allclose(d, d.conj().T, atol=1e-12)


class TestEntropies:
    def test_pure_state_entropy_zero(self):
        assert abs(von_neumann_entropy(P0)) < 1e-12

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(HALF) - np.log(2)) < 1e-12

    @pytest.mark.parametrize("n", [1, 3])
    def test_one_formula_for_a_state_and_a_spectrum(self, rng, n):
        rho = random_mixed(n, rng).rho  # Hermitian bit for bit, as the solve sees it
        assert von_neumann_entropy(rho) == _entropy(np.linalg.eigvalsh(rho))


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
            overlap = _traces(pure, sigma)
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
    def test_commuting_factors(self):
        z = pauli_word("Z")
        i2 = np.eye(2, dtype=complex)
        assert np.allclose(np.kron(z, i2) @ np.kron(i2, z), pauli_word("ZZ"))


class TestDensityValidation:
    def test_accepts_valid(self, rng):
        validate_density_matrix(random_density(4, rng))

    def test_rejects_trace(self):
        with pytest.raises(ValueError):
            validate_density_matrix(2 * HALF @ np.eye(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_rejects_non_hermitian_whose_norm_overflows(self):
        # both Frobenius norms overflow to inf unless the entries are scaled
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="not Hermitian"):
            validate_density_matrix(np.array([[0.5, 1e160], [-1e160, 0.5]]))

    def test_rejects_hermitian_entries_near_the_float_maximum(self):
        # Hermitian with unit trace, but its eigenvalues are 0.5 +- 1.7e308
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="eigenvalue"):
            validate_density_matrix(np.array([[0.5, 1.7e308], [1.7e308, 0.5]]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.full((2, 2), np.nan))
        with pytest.raises(ValueError, match="non-finite"):
            validate_density_matrix(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestTraces:
    """_traces, the one Re Tr[A B] kernel, pinned to the flat sum of one pair's products."""

    @pytest.mark.parametrize("kind", [float, complex])
    def test_each_pair_of_a_stack_is_the_flat_sum_of_its_products(self, kind, rng):
        for d in range(2, 65):
            A, B = rng.normal(size=(2, 3, d, d)) + (1j * rng.normal(size=(2, 3, d, d)) if kind is complex else 0)
            got = _traces(A, B)
            assert got.shape == (3,)
            for k in range(3):
                want = np.sum(A[k] * B[k].T).real
                assert np.array_equal(got[k], want) and np.array_equal(_traces(A[k], B[k]), want), d
