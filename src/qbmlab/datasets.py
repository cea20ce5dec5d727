"""Training-target generators.

Every experiment draws its data from one of four generators: an analytic
noisy step-function distribution encoded as a pure state, Haar-random pure
states, random full-rank mixed states, and random transverse-field Ising
teacher Hamiltonians whose Gibbs states serve as reconstruction targets.

The random generators are pure functions of a ``numpy.random.Generator``.
Callers seed each from :func:`qbmlab.training.child_seed` (ensemble instance
``i`` at key ``(i,)`` below the root seed), so instances can run in any order
(or in parallel) without changing results.
"""

from __future__ import annotations

import numpy as np

from .linalg import _eigh, _gibbs, _spectral_sum
from .operators import HamiltonianModel, assemble_hamiltonian
from .training import PovmTrainingSet, StateTrainingSet

__all__ = [
    "haar_random_pure",
    "haar_unitary",
    "random_mixed",
    "random_ti_teacher",
    "step_distribution",
    "step_function_state",
]


def step_distribution(n_visible: int, noise_p: float = 0.1) -> np.ndarray:
    """Noisy step-function distribution over n-bit strings.

    Uniform mixture of the ``n+1`` step vectors ``1^k 0^(n-k)``, each sent
    through an independent per-bit flip channel with flip probability
    ``noise_p``.  The channel is applied analytically, so the result is a
    deterministic function of ``(n_visible, noise_p)``.
    """
    if not 0 <= noise_p < 0.5:
        raise ValueError("noise_p must lie in [0, 0.5)")
    n = int(n_visible)
    dim = 2**n
    # Bit j of basis index x, qubit 0 leftmost.
    bits = (np.arange(dim)[:, None] >> (n - 1 - np.arange(n))[None, :]) & 1
    q = np.zeros(dim)
    for k in range(n + 1):
        step = np.concatenate([np.ones(k), np.zeros(n - k)])
        flips = bits != step[None, :]
        q += np.prod(np.where(flips, noise_p, 1.0 - noise_p), axis=1)
    q /= n + 1
    return q


def step_function_state(n_visible: int, noise_p: float = 0.1):
    """Step-function target as a pure state, a POVM set, and a state set.

    Encodes the classical distribution ``q`` from :func:`step_distribution`
    as the real nonnegative amplitude vector ``|psi> = sum_x sqrt(q_x)|x>``.
    The POVM is the two-outcome projector pair ``{|psi><psi|, 1 - |psi><psi|}``
    with target statistics ``(1, 0)``: maximizing the likelihood pulls the
    Gibbs state onto the target state. The construction is fully analytic.

    Returns
    -------
    (amplitudes, PovmTrainingSet, StateTrainingSet)
    """
    q = step_distribution(n_visible, noise_p)
    psi = np.sqrt(q).astype(complex)
    projector = np.outer(psi, psi.conj())
    dim = psi.size
    povm = PovmTrainingSet(
        elements=(projector, np.eye(dim) - projector),
        probabilities=np.array([1.0, 0.0]),
    )
    states = StateTrainingSet(rho=projector.copy())
    return psi, povm, states


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via QR with phase-fixed diagonal."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    # Without this correction QR output is not Haar: numpy fixes the sign
    # convention of R's diagonal, biasing Q.
    return q * (d / np.abs(d))


def haar_random_pure(n: int, rng: np.random.Generator) -> StateTrainingSet:
    """Haar-random pure state on ``n`` qubits as a rank-1 density matrix."""
    dim = 2 ** int(n)
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    return StateTrainingSet(rho=np.outer(amps, amps.conj()))


def random_mixed(n: int, rng: np.random.Generator) -> StateTrainingSet:
    """Random full-rank mixed state on ``n`` qubits.

    Eigenvectors are the columns of a Haar-random unitary (drawn first);
    eigenvalues are ``2^n`` i.i.d. Uniform(0,1) weights normalized to sum
    one (drawn second).  Full rank with probability 1. The density matrix is
    formed by ``linalg._spectral_sum``, so it is Hermitian bit for bit.
    """
    dim = 2 ** int(n)
    u = haar_unitary(dim, rng)
    w = rng.uniform(size=dim)
    w /= w.sum()
    return StateTrainingSet(rho=_spectral_sum(u, w[None, :]))


def random_ti_teacher(model: HamiltonianModel, normalize, rng: np.random.Generator) -> list:
    """Random teacher of a built transverse-field Ising family, in variants, with Gibbs-state targets.

    model must come from ``build_model("ti_complete", n)``; callers build it
    once for any number of teachers.
    Teacher parameters are i.i.d. standard Gaussians over its terms, drawn
    once. ``normalize`` holds one flag per variant: a True variant is
    rescaled so the assembled Hamiltonian has unit spectral norm, a False one
    is the raw draw. One eigendecomposition of the raw Hamiltonian serves
    every variant: its spectral norm is the largest ``|lambda|``, and the
    rescaled Hamiltonian has eigenvalues ``lambda / norm`` with the same
    eigenvectors. Each target is built by StateTrainingSet.from_eigensystem
    from those eigenvectors and the variant's Gibbs weights: it is checked and
    its entropy taken from the weights, with no further solve.

    Returns
    -------
    [(theta_true, StateTrainingSet)], one per flag of normalize, in order
    """
    if model.family != "ti_complete":
        raise ValueError(f"teachers come from the ti_complete family, not {model.family!r}")
    theta = rng.standard_normal(model.n_terms)
    evals, V = _eigh(assemble_hamiltonian(model, theta))  # Hermitian bit for bit: unchecked
    norm = np.abs(evals).max()
    scales = [norm if flag else 1.0 for flag in normalize]  # x / 1.0 is x, bit for bit
    variants = []
    for s in scales:
        weights = _gibbs(evals / s)[0]
        variants.append((theta / s, StateTrainingSet.from_eigensystem(weights / weights.sum(), V)))
    return variants
