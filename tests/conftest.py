"""Shared helpers: small random problem instances used across test modules."""

import numpy as np
import pytest

import qbmlab.linalg as linalg
from qbmlab.operators import HamiltonianModel, Term, build_model
from qbmlab.training import PovmTrainingSet


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# The 2x2 Pauli matrices, the oracles every Pauli word is built from.
PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def pauli_word(word):
    """Dense matrix of a Pauli word such as "IXZ" (qubit 0 leftmost): the kron chain of its letters."""
    out = np.ones((1, 1), dtype=np.complex128)
    for ch in word:
        out = np.kron(out, PAULI[ch])
    return out


def random_hermitian(dim, rng, scale=1.0):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (a + a.conj().T) / 2
    norm = np.linalg.norm(h, 2)
    return h * (scale / norm) if norm > 0 else h


def entry_built(label, matrix):
    """Term of a dense matrix through the entry form: every position, zeros included, in a scrambled order."""
    m = np.asarray(matrix)
    order = np.random.default_rng(0).permutation(m.size)
    rows, cols = np.divmod(order, m.shape[1])
    return Term(label, m.shape[0], rows, cols, m.ravel()[order])


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
# family (built by name), and random Hermitian terms around an all-zero
# term, every entry handed over as a library user might build them.
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
    terms = [entry_built(f"h{k}", random_hermitian(8, rng)) for k in range(3)]
    terms.insert(1, entry_built("zero", np.zeros((8, 8))))
    return HamiltonianModel("hand_built", 3, 0, tuple(terms))


def spy_on_solves(monkeypatch, calls, *modules, values_too=False):
    """Wrap linalg._eigh as the given modules see it, appending each input to calls.

    Only eigendecompositions (with eigenvectors) are recorded unless
    values_too is set.
    """
    solve = linalg._eigh

    def spy(H, vectors=True):
        if vectors or values_too:
            calls.append(H)
        return solve(H, vectors)

    for module in modules:
        monkeypatch.setattr(module, "_eigh", spy)


def assert_lockstep_matches_train(model, theta0, data, configs, traces, states):
    """Each lockstep row is train on its theta0, training set and config, bit for bit, final state included."""
    import qbmlab.training as training

    sets = [data] * len(theta0) if hasattr(data, "lifted") else data
    assert len(traces) == len(states) == len(sets) == len(configs)
    for start, data, config, got, state in zip(theta0, sets, configs, traces, states):
        want = training.train(model, start, data, config)
        assert (got.diverged, got.note) == (want.diverged, want.note)
        assert [r.epoch for r in got.records] == [r.epoch for r in want.records]
        assert np.array_equal(got.thetas, want.thetas)
        for a, b in zip(got.records, want.records):
            assert (a.objective, a.grad_norm, a.overlap) == (b.objective, b.grad_norm, b.overlap)
        assert np.array_equal(state, training._evaluate(model, want.final_theta[None]).rho[0])
