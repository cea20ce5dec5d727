"""Dense Hermitian linear algebra for thermal-state models.

Everything here takes and returns plain complex ndarrays at full-matrix
scale (a handful of qubits, dimension at most a few thousand). The one
exception is inside the eigensolver: a Hermitian matrix with no imaginary
part is real symmetric and goes to numpy's real solver, so its
eigenvectors are float64. Gibbs weights are always computed in the
eigenbasis with a max-shift so that matrix norms up to ~50 stay far away
from overflow. This module is the only caller of numpy's eigensolvers.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Relative Frobenius tolerance below which an operator is silently
# symmetrized; beyond it the input is rejected as non-Hermitian.
HERMITICITY_RTOL = 1e-8

__all__ = [
    "EigenSystem",
    "hermitize",
    "hermitian_eigendecompose",
    "gibbs_state",
    "log_partition",
    "matrix_log_psd",
    "frechet_exp_neg",
    "von_neumann_entropy",
    "relative_entropy",
    "distance",
    "fidelity",
    "kron",
    "expectation_value",
    "validate_density_matrix",
]


class EigenSystem(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the matching
    orthonormal eigenvectors as columns, float64 for a real-symmetric
    matrix and complex128 otherwise.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_square_matrix(A, name: str = "matrix") -> np.ndarray:
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    return A


def hermitize(A: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (A + A^*) / 2."""
    return (A + A.conj().T) / 2.0


def _require_hermitian(A, name: str = "matrix", rtol: float = HERMITICITY_RTOL) -> np.ndarray:
    """Check A is finite and Hermitian up to rtol * ||A||_F, then symmetrize it."""
    A = _as_square_matrix(A, name)
    scale = np.linalg.norm(A)
    # a finite norm proves finite entries; finite entries whose norm overflows pass
    if not math.isfinite(scale) and not np.isfinite(A).all():
        raise ValueError(f"{name} has non-finite entries")
    defect = np.linalg.norm(A - A.conj().T)
    if defect > rtol * scale:
        raise ValueError(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds "
            f"{rtol:.1e} * norm {scale:.3e}"
        )
    return hermitize(A)


def _real_if_symmetric(H: np.ndarray) -> np.ndarray:
    """H.real for a Hermitian H without imaginary part, else H itself.

    The real-symmetric solver does about a quarter of the complex one's
    arithmetic on the same matrix.
    """
    return H if np.count_nonzero(H.imag) else H.real


def hermitian_eigendecompose(A: np.ndarray) -> EigenSystem:
    """Eigendecompose a Hermitian matrix.

    The input may be non-Hermitian at the rounding level (it is
    symmetrized first); a defect beyond 1e-8 * ||A||_F is an error. If the
    symmetrized matrix has no imaginary part, the real-symmetric solver
    runs and the eigenvectors are float64; otherwise they are complex128.
    """
    H = _require_hermitian(A, "operator")
    evals, evecs = np.linalg.eigh(_real_if_symmetric(H))
    return EigenSystem(evals, evecs)


def _shifted_weights(evals: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Gibbs weights e^{-(lambda_i - lambda_min)}, their sum and log Z.

    evals must be ascending. Only ratios of order one are ever
    exponentiated; log Z is shift-corrected.
    """
    shift = evals[0]
    weights = np.exp(-(evals - shift))
    total = weights.sum()
    return weights, total, float(np.log(total) - shift)


def _hermitian_eigenvalues(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    The input is checked, symmetrized and solved in real arithmetic when
    it can be, as in hermitian_eigendecompose.
    """
    return np.linalg.eigvalsh(_real_if_symmetric(_require_hermitian(A, "operator")))


def _gibbs_from_eigensystem(
    evals: np.ndarray, V: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Gibbs state, shifted weights and log Z of the matrix with eigensystem (evals, V).

    rho is formed in V's arithmetic (real for real eigenvectors) and
    returned as complex128.
    """
    weights, total, log_z = _shifted_weights(evals)
    rho = (V * (weights / total)) @ V.conj().T
    return hermitize(rho).astype(np.complex128, copy=False), weights, log_z


def gibbs_state(H: np.ndarray) -> tuple[np.ndarray, float]:
    """Thermal state of H at unit inverse temperature.

    Returns (rho, logZ) with rho = e^{-H} / Tr[e^{-H}], formed from
    max-shifted weights so that large ||H|| cannot overflow.
    """
    rho, _, log_z = _gibbs_from_eigensystem(*hermitian_eigendecompose(H))
    return rho, log_z


def log_partition(H: np.ndarray) -> float:
    """log Tr[e^{-H}] from the spectrum alone (eigvalsh, no eigenvectors).

    The same shifted log-sum-exp as gibbs_state's logZ, for callers that
    need only the normalization.
    """
    return _shifted_weights(_hermitian_eigenvalues(H))[2]


def matrix_log_psd(A: np.ndarray, clip: float = 1e-10) -> np.ndarray:
    """Matrix logarithm of a positive semidefinite operator.

    Eigenvalues below `clip` are raised to `clip` before taking logs,
    which keeps logs of rank-deficient operators finite. Eigenvalues
    below -1e-8 mean the input was not PSD and are rejected.
    """
    if clip <= 0:
        raise ValueError(f"clip must be positive, got {clip}")
    evals, V = hermitian_eigendecompose(A)
    if evals[0] < -1e-8:
        raise ValueError(f"matrix has negative eigenvalue {evals[0]:.3e}, not PSD")
    logs = np.log(np.maximum(evals, clip))
    return hermitize((V * logs) @ V.conj().T).astype(np.complex128, copy=False)


def _exp_neg_divided_differences(evals: np.ndarray) -> np.ndarray:
    """Symmetric matrix of divided differences of x -> e^{-x} at evals.

    Entry (i, j) is (e^{-a} - e^{-b}) / (a - b) for a = evals[i],
    b = evals[j], with the confluent limit -e^{-(a+b)/2} used when
    |a - b| < 1e-8.
    """
    a = evals[:, None]
    b = evals[None, :]
    diff = a - b
    near = np.abs(diff) < 1e-8
    return np.where(
        near,
        -np.exp(-(a + b) / 2.0),
        (np.exp(-a) - np.exp(-b)) / np.where(near, 1.0, diff),
    )


def frechet_exp_neg(H: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Directional derivative of H -> e^{-H} along E.

    Computed in the eigenbasis of H (Daleckii-Krein): entry (i, j) of the
    rotated E is scaled by the divided difference of x -> e^{-x} at the
    eigenvalue pair (i, j).
    """
    evals, V = hermitian_eigendecompose(H)
    E = _require_hermitian(E, "direction")
    if E.shape != V.shape:
        raise ValueError(f"direction shape {E.shape} does not match {V.shape}")
    rotated = V.conj().T @ E @ V
    return V @ (rotated * _exp_neg_divided_differences(evals)) @ V.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr[rho log rho] in nats, with 0 log 0 = 0 (spectrum only)."""
    evals = _hermitian_eigenvalues(rho)
    p = evals[evals > 1e-18]
    return float(-np.sum(p * np.log(p)))


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Quantum relative entropy S(rho || sigma) = Tr[rho (log rho - log sigma)].

    Uses the convention 0 log 0 = 0 on rho's null space. sigma must be
    full rank: any eigenvalue below 1e-14 is a hard error, since the
    divergence is infinite (or numerically meaningless) there.
    """
    p, U = hermitian_eigendecompose(rho)
    q, W = hermitian_eigendecompose(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    if q[0] < 1e-14:
        raise ValueError(f"sigma eigenvalue {q[0]:.3e} below 1e-14; S(rho||sigma) diverges")
    p = np.maximum(p, 0.0)
    support = p > 1e-18
    plogp = float(np.sum(p[support] * np.log(p[support])))
    # Tr[rho log sigma] = sum_j <w_j|rho|w_j> log q_j expanded over rho's eigenbasis
    overlap = np.abs(U.conj().T @ W) ** 2
    cross = float((p @ overlap) @ np.log(q))
    return plogp - cross


def distance(rho: np.ndarray, sigma: np.ndarray, kind: str = "trace") -> float:
    """Trace distance (half the trace norm of the difference) or Frobenius distance."""
    rho = _as_square_matrix(rho, "rho")
    sigma = _as_square_matrix(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    delta = rho - sigma
    if kind == "trace":
        evals, _ = hermitian_eigendecompose(delta)
        return float(np.abs(evals).sum() / 2.0)
    if kind == "frobenius":
        return float(np.linalg.norm(delta))
    raise ValueError(f"unknown distance kind {kind!r}; use 'trace' or 'frobenius'")


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity F(rho, sigma) = (Tr|sqrt(rho) sqrt(sigma)|)^2.

    Symmetric, 1 exactly when rho = sigma, and equal to Tr[rho sigma] when
    either state is pure. Computed as (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2
    from two eigendecompositions, with eigenvalues below zero taken as zero.
    For rank-deficient inputs, rounding-level eigenvalues enter through a
    square root, so F is then accurate to about 1e-8 rather than 1e-15.
    """
    rho = _as_square_matrix(rho, "rho")
    sigma = _as_square_matrix(sigma, "sigma")
    if rho.shape != sigma.shape:
        raise ValueError(f"shape mismatch {rho.shape} vs {sigma.shape}")
    p, U = hermitian_eigendecompose(rho)
    root = (U * np.sqrt(np.maximum(p, 0.0))) @ U.conj().T
    q, _ = hermitian_eigendecompose(root @ sigma @ root)
    return float(np.sum(np.sqrt(np.maximum(q, 0.0))) ** 2)


def kron(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the leftmost (slowest) index."""
    A = np.asarray(A, dtype=np.complex128)
    B = np.asarray(B, dtype=np.complex128)
    if A.ndim != 2 or B.ndim != 2:
        raise ValueError("kron expects two matrices")
    return np.kron(A, B)


def expectation_value(state: np.ndarray, observable: np.ndarray) -> float:
    """Re Tr[state @ observable] for a Hermitian observable of matching shape."""
    state, observable = np.asarray(state), np.asarray(observable)
    if state.ndim != 2 or state.shape != observable.shape[::-1]:
        raise ValueError(f"state shape {state.shape} does not match observable shape {observable.shape}")
    return float(np.sum(state * observable.T).real)


def validate_density_matrix(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Check finite entries, Hermiticity, positivity and unit trace.

    Hermiticity and trace hold within 1e-10; eigenvalues must be >= -1e-10.
    """
    rho = _as_square_matrix(rho, name)
    if not np.all(np.isfinite(rho)):
        raise ValueError(f"{name} has non-finite entries")
    scale = max(1.0, float(np.linalg.norm(rho)))
    if np.linalg.norm(rho - rho.conj().T) > 1e-10 * scale:
        raise ValueError(f"{name} is not Hermitian within 1e-10")
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"{name} trace {trace} differs from 1 beyond 1e-10")
    evals = _hermitian_eigenvalues(rho)
    if evals[0] < -1e-10:
        raise ValueError(f"{name} has eigenvalue {evals[0]:.3e} below -1e-10")
    return rho
