"""Shared helpers: small random problem instances used across test modules."""

import numpy as np
import pytest

from qbmlab.operators import HamiltonianModel, build_model, make_term
from qbmlab.training import PovmTrainingSet


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    norm = np.linalg.norm(h, 2)
    return h * (scale / norm) if norm > 0 else h


def random_density(dim, rng):
    # full rank with probability 1
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + 1e-3 * np.eye(dim)
    return rho / np.trace(rho).real


def random_full_rank_povm(dim, rng):
    """Two-element full-rank POVM with a strictly positive probability pair."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = a @ a.conj().T
    lam0 = 0.1 * np.eye(dim) + 0.8 * m / np.linalg.eigvalsh(m)[-1]
    p0 = rng.uniform(0.2, 0.8)
    return PovmTrainingSet(
        elements=(lam0, np.eye(dim) - lam0),
        probabilities=np.array([p0, 1.0 - p0]),
    )


# Models for the entry-list oracles against the dense term stack: one per
# family (built by name), and dense random Hermitian terms around an
# all-zero term, as a library user might hand them to HamiltonianModel.
ENTRY_LIST_MODELS = {
    "classical_bm": ("classical_bm", 3, 1),
    "ti_complete": ("ti_complete", 4, 0),
    "mean_field": ("mean_field", 3, 0),
    "pauli_complete": ("pauli_complete", 2, 0),
    "fermionic": ("fermionic", 3, 1),
    "hand_built": None,
}


def entry_list_model(name, rng):
    if ENTRY_LIST_MODELS[name] is not None:
        return build_model(*ENTRY_LIST_MODELS[name])
    terms = [make_term(f"h{k}", random_hermitian(8, rng)) for k in range(3)]
    terms.insert(1, make_term("zero", np.zeros((8, 8))))
    return HamiltonianModel("hand_built", 3, 0, tuple(terms))
