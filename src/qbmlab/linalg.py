"""Dense Hermitian linear algebra for thermal-state models.

Everything here takes and returns plain complex ndarrays at full-matrix
scale (a handful of qubits, dimension at most a few thousand). The one
exception is inside the eigensolver: a Hermitian matrix with no imaginary
part is real symmetric and goes to numpy's real solver, so its
eigenvectors are float64. Gibbs weights are always computed in the
eigenbasis with a max-shift, by the one kernel _gibbs for a single
eigensystem or a stack, so that matrix norms up to ~50 stay far away from
overflow. The public entry points check and symmetrize their input;
_eigh, the one caller of numpy's eigensolvers, trusts it.
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
    "matrix_log_psd",
    "von_neumann_entropy",
    "fidelity",
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
    """Return the Hermitian part (A + A^*) / 2 of a matrix, or of each matrix of a stack."""
    return (A + A.conj().swapaxes(-1, -2)) / 2.0


def _require_hermitian(
    A, name: str = "matrix", rtol: float = HERMITICITY_RTOL, floor: float = 0.0
) -> np.ndarray:
    """Check A is finite and ||A - A^*||_F <= rtol * max(floor, ||A||_F), then symmetrize it.

    A norm far from 1 is retaken after an exact power-of-two rescaling, so
    huge or tiny entries cannot hide a defect.
    """
    A = _as_square_matrix(A, name)
    B, scale, unit = A, np.linalg.norm(A), 1.0
    if not 1e-100 < scale < 1e100:  # non-finite, zero, or squares that may over- or underflow
        if not np.isfinite(A).all():
            raise ValueError(f"{name} has non-finite entries")
        # multiplied exactly by a power of two that brings the largest part near 1
        largest = np.abs(np.ascontiguousarray(A).view(np.float64)).max(initial=0.0)
        unit = math.ldexp(1.0, min(1 - math.frexp(largest)[1], 1023))
        B = A * unit
        scale = np.linalg.norm(B)
    scale = max(floor * unit, scale)
    defect = np.linalg.norm(B - B.conj().T)
    if defect > rtol * scale:
        raise ValueError(f"{name} is not Hermitian: defect/norm {defect / scale:.3e} > {rtol}")
    # entries above about 9e307, which only a scaled-down A has, would overflow A + A^*
    return A / 2 + A.conj().T / 2 if unit < 1 else hermitize(A)


def _eigh(H: np.ndarray, vectors: bool = True):
    """EigenSystem of H, or its ascending eigenvalues alone without vectors; H is not checked.

    H must be Hermitian bit for bit. With no imaginary part it goes to the
    real-symmetric solver, about a quarter of the complex one's arithmetic.
    """
    H = H if np.count_nonzero(H.imag) else H.real
    return EigenSystem(*np.linalg.eigh(H)) if vectors else np.linalg.eigvalsh(H)


def hermitian_eigendecompose(A: np.ndarray) -> EigenSystem:
    """Eigendecompose a Hermitian matrix, symmetrized first.

    A Hermiticity defect beyond 1e-8 * ||A||_F is an error. The eigenvectors
    are float64 if the symmetrized matrix is real, complex128 otherwise.
    """
    return _eigh(_require_hermitian(A, "operator"))


def _gibbs(evals: np.ndarray, V: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(weights, rho, log Z) of the matrix with eigensystem (evals, V), or of each of a stack.

    evals are ascending along the last axis. The weights are
    e^{-(lambda_i - lambda_min)}, so only ratios of order one are ever
    exponentiated, and log Z is shift-corrected. rho = e^{-H} / Tr[e^{-H}] is
    formed in V's arithmetic (see _spectral_sum), or is None without V. Each
    matrix of a stack gets bit for bit what it gets alone.
    """
    shift = evals[..., :1]
    weights = np.exp(-(evals - shift))
    total = weights.sum(axis=-1, keepdims=True)
    rho = None if V is None else _spectral_sum(V, (weights / total)[..., None, :])
    return weights, rho, (np.log(total) - shift)[..., 0]


def _spectral_sum(V: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i values_i v_i v_i^+ over the columns v_i of V, Hermitian and complex128.

    Formed in V's arithmetic. A (B, d, d) stack of V with (B, 1, d) values
    gives the stack of sums, each bit for bit what its matrix alone gives.
    """
    return hermitize((V * values) @ V.conj().swapaxes(-1, -2)).astype(np.complex128, copy=False)


def gibbs_state(H: np.ndarray) -> tuple[np.ndarray, float]:
    """Thermal state of H at unit inverse temperature.

    Returns (rho, logZ) with rho = e^{-H} / Tr[e^{-H}], formed from
    max-shifted weights so that large ||H|| cannot overflow.
    """
    _, rho, log_z = _gibbs(*hermitian_eigendecompose(H))
    return rho, float(log_z)


def matrix_log_psd(A: np.ndarray, clip: float = 1e-10) -> np.ndarray:
    """Matrix logarithm of a positive semidefinite operator.

    Eigenvalues below `clip` are raised to `clip` before taking logs,
    which keeps logs of rank-deficient operators finite. Eigenvalues at or
    below rounding level (eps * dim * lambda_max) count as zero, so any clip
    decides the logs of a null space. Eigenvalues below -1e-8 mean
    the input was not PSD and are rejected.
    """
    if clip <= 0:
        raise ValueError(f"clip must be positive, got {clip}")
    evals, V = hermitian_eigendecompose(A)
    if evals[0] < -1e-8:
        raise ValueError(f"matrix has negative eigenvalue {evals[0]:.3e}, not PSD")
    rounding = np.finfo(np.float64).eps * evals.size * evals[-1]
    logs = np.log(np.maximum(np.where(evals > rounding, evals, 0.0), clip))
    return _spectral_sum(V, logs)


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


def _entropy(evals: np.ndarray) -> float:
    """-sum p log p over the eigenvalues p > 1e-18 of a state, in nats (0 log 0 = 0)."""
    p = evals[evals > 1e-18]
    return float(-np.sum(p * np.log(p)))


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -Tr[rho log rho] in nats, with 0 log 0 = 0 (spectrum only)."""
    return _entropy(_eigh(_require_hermitian(rho, "operator"), vectors=False))


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
    hermitian = _require_hermitian(rho, name, rtol=1e-10, floor=1.0)
    trace = complex(np.trace(rho))
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"{name} trace {trace} differs from 1 beyond 1e-10")
    evals = _eigh(hermitian, vectors=False)
    if evals[0] < -1e-10:
        raise ValueError(f"{name} has eigenvalue {evals[0]:.3e} below -1e-10")
    return rho
