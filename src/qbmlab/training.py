"""Objectives, gradients and the training loop for QBM models.

Two data modalities are supported: POVM outcome statistics (maximum
log-likelihood) and a full target density matrix (maximum negative
relative entropy). All objectives are ascended; the optional L2 penalty
(lam/2)*||theta_Q||^2 acts only on weights of quantum (off-diagonal)
terms. Inverse temperature is fixed at 1 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    EigenSystem,
    _eigh,
    _entropy,
    _exp_neg_divided_differences,
    _gibbs,
    _require_hermitian,
    _spectral_sum,
    expectation_value,
    gibbs_state,
    hermitian_eigendecompose,
    matrix_log_psd,
    validate_density_matrix,
    von_neumann_entropy,
)
from .operators import HamiltonianModel, assemble_hamiltonian

__all__ = [
    "PovmTrainingSet",
    "StateTrainingSet",
    "OptimizerConfig",
    "TraceRecord",
    "TrainingTrace",
    "GRADIENT_KINDS",
    "POVM_GRADIENT_KINDS",
    "objective_povm_exact",
    "objective_povm_gt",
    "objective_relent",
    "grad_povm_gt",
    "grad_povm_exact",
    "grad_povm_commutator",
    "grad_relent",
    "grad_relent_sampled",
    "child_seed",
    "train",
]

# Likelihoods below this underflow threshold contribute the clamped
# log value instead of -inf.
LIKELIHOOD_FLOOR = 1e-300
LOG_CLAMP = -700.0

# Highest commutator-series order. Its kernel misses (e^x - 1)/x by about |x|^order/(order+1)!
# at an eigenvalue gap x (6.6e-7 at order 12 and gap 2, a unit-norm H's widest); more buys
# nothing, as grad_povm_exact costs the same one rotation per element with no truncation.
MAX_COMMUTATOR_ORDER = 12

# Eigenvalue floor of the POVM-element logarithms in the Golden-Thompson
# bound, which makes rank-deficient elements full rank.
GT_CLIP = 1e-10

# Complex entries a stacked (block, dim, dim) temporary holds at most: lockstep rows or sampled terms.
CHUNK_ENTRIES = 2**14


@dataclass(frozen=True, eq=False)
class PovmTrainingSet:
    """Measurement operators on the visible units with outcome frequencies.

    Validation checks every entry is finite, each element is PSD
    (eigenvalues >= -1e-10), the elements sum to the identity within 1e-9,
    and the probabilities are nonnegative and sum to 1 within 1e-12. The
    view on a model's hidden units is built on first use (see lifted).
    """

    elements: tuple[np.ndarray, ...]
    probabilities: np.ndarray

    def __post_init__(self):
        elements = tuple(np.asarray(e, dtype=np.complex128) for e in self.elements)
        probs = np.asarray(self.probabilities, dtype=np.float64)
        for e in elements:
            e.flags.writeable = False
        probs.flags.writeable = False
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "probabilities", probs)
        object.__setattr__(self, "_lifts", {})
        if not elements:
            raise ValueError("POVM needs at least one element")
        dim = elements[0].shape[0]
        if probs.shape != (len(elements),):
            raise ValueError("one probability per POVM element required")
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in elements:
            if e.shape != (dim, dim):
                raise ValueError("POVM elements must share one square shape")
            symmetrized = _require_hermitian(e, "POVM element")  # rejects non-finite entries
            if np.abs(e - e.conj().T).max() > 1e-10:
                raise ValueError("POVM element is not Hermitian within 1e-10")
            if _eigh(symmetrized, vectors=False)[0] < -1e-10:
                raise ValueError("POVM element has eigenvalue below -1e-10")
            total += e
        if np.abs(total - np.eye(dim)).max() > 1e-9:
            raise ValueError("POVM elements do not sum to the identity within 1e-9")
        if not np.all(np.isfinite(probs)):
            raise ValueError("outcome probabilities must be finite")
        if probs.min() < 0:
            raise ValueError("outcome probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to 1 within 1e-12")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def lifted(self, n_hidden: int) -> tuple:
        """(P_v, Lambda_v (x) I, log Lambda_v (x) I) for each P_v > 0, with I on n_hidden units.

        Built on first use and kept on the set, read-only. Each logarithm clips
        the eigenvalues of Lambda_v at GT_CLIP and is taken once, at n_hidden 0.
        """
        if n_hidden not in self._lifts:
            if n_hidden == 0:
                lifted = tuple(
                    (p, element, matrix_log_psd(element, GT_CLIP))
                    for p, element in zip(self.probabilities, self.elements)
                    if p > 0.0
                )
            else:
                eye = np.eye(2**n_hidden, dtype=np.complex128)
                lifted = tuple((p, np.kron(el, eye), np.kron(log_el, eye)) for p, el, log_el in self.lifted(0))
            for _, *ops in lifted:
                for op in ops:
                    op.flags.writeable = False
            self._lifts[n_hidden] = lifted
        return self._lifts[n_hidden]


@dataclass(frozen=True, eq=False)
class StateTrainingSet:
    """Full target density matrix on the visible units.

    ``StateTrainingSet(rho=...)`` checks rho by validate_density_matrix and takes its entropy
    by a second solve; from_eigensystem does both from a spectrum already known.
    """

    rho: np.ndarray

    def __post_init__(self):
        self._freeze(validate_density_matrix(self.rho, "target state").copy())

    def _freeze(self, rho: np.ndarray) -> None:
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_lifts", {0: rho})

    @classmethod
    def from_eigensystem(cls, p, V: np.ndarray) -> "StateTrainingSet":
        """The state sum_i p_i v_i v_i^+ from eigenvalues p and orthonormal columns V of a solve already done.

        rho is formed as _gibbs forms a Gibbs state, bit for bit. Only p is checked, in O(d), with
        validate_density_matrix's bounds: finite, p_i >= -1e-10, |sum p - 1| <= 1e-10. rho is
        Hermitian by construction; V's orthonormality is trusted. The entropy is taken from p.
        """
        p = np.asarray(p, dtype=np.float64)
        if not np.isfinite(p).all():
            raise ValueError("target state spectrum has non-finite entries")
        if p.min() < -1e-10:
            raise ValueError(f"target state has eigenvalue {p.min():.3e} below -1e-10")
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError(f"target state trace {p.sum()} differs from 1 beyond 1e-10")
        data = object.__new__(cls)
        data._freeze(_spectral_sum(V, p[None, :]))
        object.__setattr__(data, "entropy", _entropy(p))  # fills the cached property
        return data

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

    def lifted(self, n_hidden: int) -> np.ndarray:
        """rho (x) I / 2^{n_hidden}, built on first use and kept on the set, read-only (rho itself at 0)."""
        if n_hidden not in self._lifts:
            lifted = np.kron(self.rho, np.eye(2**n_hidden, dtype=np.complex128)) / 2**n_hidden
            lifted.flags.writeable = False
            self._lifts[n_hidden] = lifted
        return self._lifts[n_hidden]

    @cached_property
    def entropy(self) -> float:
        """Von Neumann entropy of the target, computed once (set at construction by from_eigensystem)."""
        return von_neumann_entropy(self.rho)


@dataclass(frozen=True)
class OptimizerConfig:
    """Heavy-ball ascent settings plus the gradient rule to use."""

    gradient_kind: str = "exact"
    learning_rate: float = 0.1
    momentum: float = 0.0
    epochs: int = 100
    lam: float = 0.0
    commutator_order: int = 5
    n_samples: int = 512

    def __post_init__(self):
        if self.gradient_kind not in GRADIENT_KINDS:
            raise ValueError(
                f"unknown gradient kind {self.gradient_kind!r}; choose from {GRADIENT_KINDS}"
            )
        # 0 is allowed as a no-op control (flat-curve baseline).
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be nonnegative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        _check_commutator_order(self.commutator_order)
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass(frozen=True, eq=False)
class TraceRecord:
    epoch: int
    theta: np.ndarray
    objective: float
    grad_norm: float
    overlap: float | None = None  # Tr(rho sigma), (embedded) target and Gibbs state; state data only


@dataclass
class TrainingTrace:
    """Per-epoch history of a training run.

    Record 0 holds the initial parameters; record e holds the state after
    e updates. diverged marks an abort on a non-finite objective or
    gradient or a failed solve, with the last valid record retained.
    """

    records: list[TraceRecord] = field(default_factory=list)
    diverged: bool = False
    note: str = ""

    @property
    def epochs(self) -> np.ndarray:
        return np.array([r.epoch for r in self.records], dtype=int)

    @property
    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    @property
    def thetas(self) -> np.ndarray:
        return np.stack([r.theta for r in self.records])

    @property
    def final_theta(self) -> np.ndarray:
        return self.records[-1].theta


def _check_commutator_order(order: int) -> None:
    if not 1 <= order <= MAX_COMMUTATOR_ORDER:
        raise ValueError(
            f"commutator order must lie in 1..{MAX_COMMUTATOR_ORDER}, got {order}"
        )


def _solve_stack(H: np.ndarray, vectors: bool = True):
    """(solves, failed): _eigh of each matrix of a (B, d, d) stack of bitwise Hermitian matrices.

    The finite matrices with no imaginary part take one real solve together
    and the others one complex solve, the choice _eigh makes for each
    matrix, so each matrix's result is bit for bit what it gives alone.
    solves lists (rows, result) per solve; a group that holds every matrix
    is solved without a copy. A stacked solve that fails is retried row by
    row, so only the matrices that fail alone fail. failed maps each of
    those, and each non-finite matrix, to the reason.
    """
    finite = np.isfinite(H).all(axis=(1, 2))
    failed = {int(b): "H(theta) has non-finite entries" for b in (~finite).nonzero()[0]}
    real = ~H.imag.any(axis=(1, 2))
    solves = []
    for group in (finite & real, finite & ~real):
        rows = group.nonzero()[0]
        try:
            if rows.size:
                solves.append((rows, _eigh(H if rows.size == len(H) else H[rows], vectors)))
        except np.linalg.LinAlgError:
            for b in rows:
                try:
                    solves.append(([b], _eigh(H[[b]], vectors)))
                except np.linalg.LinAlgError as error:
                    failed[int(b)] = str(error)
    return solves, failed


class _Evaluation(NamedTuple):
    """A model's Hamiltonians and Gibbs states at each row of a theta stack (see _evaluate)."""

    key: bytes  # the bytes of the stack, whose shape they fix: n_terms weights per row
    H: np.ndarray  # (B, dim, dim)
    solves: list  # (rows, EigenSystem) of each realness group's solve (see _solve_stack)
    weights: np.ndarray  # (B, dim) Gibbs weights e^{-(lambda_i - lambda_min)}
    rho: np.ndarray  # (B, dim, dim) e^{-H} / Tr[e^{-H}]
    log_z: np.ndarray  # (B,)
    failed: dict  # row -> why its H is non-finite or its solve failed; its weights, rho and log Z are NaN


def _evaluate(model: HamiltonianModel, thetas: np.ndarray) -> _Evaluation:
    """H(theta_b), its eigensystem, Gibbs state and log Z at each row of a (B, n_terms) stack.

    One stacked assembly and one stacked eigh per realness group
    (_solve_stack), so each row is bit for bit what its one-row stack gives.
    The model keeps the record of the last stack it was evaluated at, so the
    monitor and gradient of an epoch share one assembly and one solve per
    realness group. Only the exact bytes of the stack match, and a hit
    returns what a miss computes. The record's arrays are read-only.
    """
    key = thetas.tobytes()
    record = model.__dict__.get("_evaluation")
    if record is not None and record.key == key:
        return record
    # unchecked: the scatter makes H[r, c] and H[c, r] exact conjugates
    H = assemble_hamiltonian(model, thetas)
    solves, failed = _solve_stack(H)
    parts = [(rows, *_gibbs(*eigen)) for rows, eigen in solves]  # (rows, weights, rho, log Z) of each solve
    if len(parts) == 1 and len(parts[0][0]) == len(H):
        _, weights, rho, log_z = parts[0]  # one solve of every row, as at dim 512: no copy
    else:
        weights, rho, log_z = np.full(H.shape[:2], np.nan), np.full(H.shape, np.nan, complex), np.full(len(H), np.nan)
        for rows, *arrays in parts:
            for whole, part in zip((weights, rho, log_z), arrays):
                whole[rows] = part
    for array in (H, *(a for _, eigen in solves for a in eigen), weights, rho, log_z):
        array.flags.writeable = False
    record = _Evaluation(key, H, solves, weights, rho, log_z, failed)
    # stored like a cached_property: the frozen model's __dict__, dropped with it
    model.__dict__["_evaluation"] = record
    return record


def _setup(model: HamiltonianModel, theta, data):
    """(thetas, evaluation, sets): theta as a (B, n_terms) stack, the model's evaluation there and one set per row.

    theta is one weight per term or a (B, n_terms) stack of them. A single
    theta is the one-row stack theta[None] and raises LinAlgError if its
    evaluation failed. data is one training set for every row, or a sequence
    with one set per row; each set lifts itself onto the model's hidden units
    (lifted).
    """
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[-1:] != (model.n_terms,) or theta.ndim > 2:
        raise ValueError(f"theta shape {theta.shape} does not match {model.n_terms} terms")
    thetas = np.atleast_2d(theta)
    sets = [data] * len(thetas) if isinstance(data, (PovmTrainingSet, StateTrainingSet)) else list(data)
    if len(sets) != len(thetas):
        raise ValueError(f"{len(sets)} training sets for {len(thetas)} theta rows")
    for data in sets:
        if data.dim != 2**model.n_visible:
            raise ValueError(f"training data dimension {data.dim} does not match 2^{model.n_visible} visible units")
    ev = _evaluate(model, thetas)
    if theta.ndim == 1 and ev.failed:
        raise np.linalg.LinAlgError(ev.failed[0])
    return thetas, ev, sets


def _rowwise(value, thetas: np.ndarray, failed: dict) -> np.ndarray:
    """value(b) at each row b of a theta stack, NaN at the rows in failed."""
    return np.array([math.nan if b in failed else value(b) for b in range(len(thetas))])


def _result(theta, values: np.ndarray, failed: dict | None = None):
    """values at a theta stack, or at a single theta its one row: a float for an objective.

    A single theta whose row failed raises LinAlgError with the reason instead.
    """
    if np.ndim(theta) == 2:
        return values
    if failed:
        raise np.linalg.LinAlgError(failed[0])
    return float(values[0]) if values.ndim == 1 else values[0]


def _reg_value(model: HamiltonianModel, theta: np.ndarray, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    quantum = theta[model.quantum_mask]
    return 0.5 * lam * float(quantum @ quantum)


def _reg_grad(model: HamiltonianModel, theta: np.ndarray, lam: float) -> np.ndarray:
    grad = np.zeros_like(theta)
    if lam != 0.0:
        grad[..., model.quantum_mask] = lam * theta[..., model.quantum_mask]
    return grad


def term_expectations(model: HamiltonianModel, state: np.ndarray) -> np.ndarray:
    """Vector of Re Tr[state H_j] over the model terms; a (B, dim, dim) stack gives (B, n_terms).

    Tr[state H_j] = sum over the entries H_j[r, c] of H_j[r, c] state[c, r]:
    a gather at the transposed positions and a per-term sum. Each row of a
    stack is bit for bit what its state alone gives.
    """
    state = np.asarray(state)
    if state.ndim not in (2, 3) or state.shape[-2:] != (model.dim, model.dim):
        raise ValueError(f"state shape {state.shape} does not match dimension {model.dim}")
    entries = model.entries
    # a single state is the one-row stack; row b's sums go to bins offset by b * n_terms, in the same order
    states = state.reshape(-1, model.dim**2)
    products = (entries.values * states.take(entries.flat_t, axis=1)).real
    size = len(states) * model.n_terms
    index = (np.arange(0, size, model.n_terms)[:, None] + entries.index).ravel()
    values = np.bincount(index, products.ravel(), size)
    return values.reshape(state.shape[:-2] + (model.n_terms,))


def _clamped_log(value: float) -> float:
    if value < LIKELIHOOD_FLOOR:
        return LOG_CLAMP
    return float(np.log(value))


def objective_povm_exact(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> float:
    """Average log-likelihood of the POVM data under the Gibbs state.

    sum_v P_v log( Tr[Lambda_v e^{-H}] / Tr[e^{-H}] ) - (lam/2)||theta_Q||^2,
    in nats. Vanishing likelihoods clamp their log at -700.

    Every objective and analytic gradient also takes a (B, n_terms) theta
    stack, with data one training set or a sequence of one per row, and
    returns one value per row from the model's one stacked evaluation
    (_evaluate), each bit for bit the call at its row alone. A row whose
    H(theta) is non-finite or whose solve fails reads NaN, where a single
    theta raises LinAlgError.
    """
    thetas, ev, sets = _setup(model, theta, data)
    lifted = [data.lifted(model.n_hidden) for data in sets]
    return _result(theta, _rowwise(
        lambda b: _povm_exact_value(model, thetas[b], lifted[b], ev.rho[b], lam), thetas, ev.failed))


def _povm_exact_value(model: HamiltonianModel, theta: np.ndarray, lifted: tuple,
                      rho: np.ndarray, lam: float) -> float:
    """objective_povm_exact at theta from its Gibbs state rho."""
    value = sum(p * _clamped_log(expectation_value(rho, el)) for p, el, _ in lifted)
    return value - _reg_value(model, theta, lam)


def objective_povm_gt(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> float:
    """Golden-Thompson lower bound on the POVM log-likelihood objective.

    Each likelihood is replaced by Tr[e^{-(H - log Lambda_v)}] / Tr[e^{-H}]
    with rank-deficient elements made full rank by eigenvalue clipping.
    The bound is tight whenever Lambda_v commutes with H. Every
    H_b - log Lambda_v of a stack is solved in one stacked eigvalsh per
    realness group (_solve_stack); a row whose solve fails reads NaN.
    """
    thetas, ev, sets = _setup(model, theta, data)
    lifted = [data.lifted(model.n_hidden) for data in sets]
    # H_b - log Lambda_v is bitwise Hermitian, as both terms are: no check or symmetrization
    shifted = np.concatenate([H - np.stack([log_el for *_, log_el in ops]) for H, ops in zip(ev.H, lifted)])
    counts = [len(ops) for ops in lifted]
    row_of = np.repeat(np.arange(len(thetas)), counts)  # the row of each matrix of shifted
    log_partitions = np.full(len(shifted), np.nan)
    solves, failed = _solve_stack(shifted, vectors=False)
    for rows, evals in solves:
        log_partitions[rows] = _gibbs(evals)[2]
    failed = {**{int(row_of[k]): reason for k, reason in failed.items()}, **ev.failed}
    per_row = np.split(log_partitions, np.cumsum(counts)[:-1])
    return _result(theta, _rowwise(lambda b: _povm_gt_value(
        model, thetas[b], lifted[b], per_row[b], ev.log_z[b], lam), thetas, failed), failed)


def _povm_gt_value(model: HamiltonianModel, theta: np.ndarray, lifted: tuple,
                   log_partitions, log_z: float, lam: float) -> float:
    """objective_povm_gt at theta from log Z and the log partition function of each H - log Lambda_v."""
    value = sum(p * (log_zv - log_z) for (p, *_), log_zv in zip(lifted, log_partitions))
    return value - _reg_value(model, theta, lam)


def grad_povm_gt(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Exact gradient of objective_povm_gt.

    Component j:  sum_v P_v ( -<H_j>_{H_v} + <H_j>_H ) - lam theta_j [quantum],
    where H_v = H - log Lambda_v uses the clipped logarithm. As the outcome
    probabilities sum to 1, this is Tr[H_j (rho - sum_v P_v rho_v)]. Each
    rho_v is one gibbs_state call per row and element; a row of a stack
    whose solve fails reads NaN.
    """
    thetas, ev, sets = _setup(model, theta, data)
    X = ev.rho.copy()
    failed = dict(ev.failed)
    for b, data in enumerate(sets):
        if b in failed:
            continue
        try:
            for p, _, log_el in data.lifted(model.n_hidden):
                X[b] -= p * gibbs_state(ev.H[b] - log_el)[0]
        except np.linalg.LinAlgError as error:
            X[b], failed[b] = np.nan, str(error)
    return _result(theta, term_expectations(model, X) - _reg_grad(model, thetas, lam), failed)


def _grad_povm_rotated(model: HamiltonianModel, theta, data, lam: float, kernel) -> np.ndarray:
    """Re Tr[H_j (rho + V (W * kernel(mu, w)) V^+)] - lam theta_j [quantum]: the exact and series gradients.

    At each row, V holds the eigenvectors of H, mu = evals - evals[0] and
    w = e^{-mu} the Gibbs weights. W = sum_v (P_v / L_v) V^+ Lambda_v V, with
    L_v = Tr[Lambda_v e^{-(H - evals[0])}] = diag(V^+ Lambda_v V) . w floored at
    LIKELIHOOD_FLOOR, and the (dim, dim) kernel multiplies W entry by entry.
    """
    thetas, ev, sets = _setup(model, theta, data)
    X = ev.rho.copy()
    for rows, (evals_rows, V_rows) in ev.solves:
        for b, evals, V in zip(rows, evals_rows, V_rows):
            weighted = np.zeros(V.shape, dtype=np.complex128)  # V is real for real-symmetric H
            for p, el, _ in sets[b].lifted(model.n_hidden):
                el_rot = V.conj().T @ el @ V
                likelihood = max(float(el_rot.diagonal().real @ ev.weights[b]), LIKELIHOOD_FLOOR)
                weighted += (p / likelihood) * el_rot
            X[b] += V @ (weighted * kernel(evals - evals[0], ev.weights[b])) @ V.conj().T
    return _result(theta, term_expectations(model, X) - _reg_grad(model, thetas, lam))


def grad_povm_exact(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Gradient of objective_povm_exact via the derivative of e^{-H}.

    The Frechet derivative D(H, E) of e^{-H} along E is self-adjoint under
    the trace, Tr[Lambda D(H, H_j)] = Tr[H_j D(H, Lambda)], so component j
    is Re Tr[H_j (rho + sum_v P_v D(H, Lambda_v) / Tr[Lambda_v e^{-H}])].
    In H's eigenbasis D(H, E) = V ((V^+ E V) * K) V^+ (Daleckii-Krein), with
    K the divided differences of e^{-x} (_exp_neg_divided_differences) at
    the eigenvalues shifted by the minimum, so large ||H|| stays finite; the
    shift cancels in the likelihood ratios (_grad_povm_rotated).
    """
    return _grad_povm_rotated(model, theta, data, lam, lambda mu, _: _exp_neg_divided_differences(mu))


def grad_povm_commutator(
    model: HamiltonianModel,
    theta,
    data: PovmTrainingSet,
    lam: float = 0.0,
    order: int = 5,
) -> np.ndarray:
    """Commutator-series approximation to grad_povm_exact.

    The Duhamel integral of each term, sum_m (-1)^m ad_H^m(H_j) / (m+1)!
    by Hadamard's lemma, is truncated after `order` nested commutators. Since
    Tr[ad_H(A) B] = -Tr[A ad_H(B)], the series moves off the terms onto
    B = rho sum_v (P_v / L_v) Lambda_v with L_v = Tr[rho Lambda_v]:
    component j is Re Tr[H_j (rho - sum_{m<order} ad_H^m(B) / (m+1)!)].
    In H's eigenbasis ad_H scales entry (a, b) by mu_a - mu_b: this is the
    exact gradient's form (_grad_povm_rotated) with the kernel
    -w_a S(mu_a - mu_b), where S(x) = sum_{m<order} x^m / (m+1)! truncates
    (e^x - 1)/x. Only the real part of each trace is kept. Exact for
    commuting models at any order and increasingly accurate in `order` while
    ||H|| is moderate (see MAX_COMMUTATOR_ORDER).
    """
    _check_commutator_order(order)

    def kernel(mu, w):
        x, series = mu[:, None] - mu[None, :], 0.0
        for m in range(order, 0, -1):  # Horner's rule: S's coefficient of x^(m-1) is 1/m!
            series = series * x + 1.0 / math.factorial(m)
        return -w[:, None] * series

    return _grad_povm_rotated(model, theta, data, lam, kernel)


def objective_relent(
    model: HamiltonianModel, theta, data: StateTrainingSet, lam: float = 0.0
) -> float:
    """Negative relative entropy -S(rho || Gibbs(H)) - (lam/2)||theta_Q||^2.

    Hidden units see the embedded target rho (x) I/2^{n_hidden}, whose
    entropy is S(rho) + n_hidden ln 2 with S(rho) cached on the data.
    Written with log Gibbs(H) = -H - logZ so arbitrarily large ||H|| stays
    finite; ascending this objective drives the Gibbs state toward rho.
    A theta stack gives one value per row (see objective_povm_exact).
    """
    thetas, ev, sets = _setup(model, theta, data)
    return _result(theta, _rowwise(
        lambda b: _relent_value(model, thetas[b], sets[b], ev.H[b], ev.log_z[b], lam), thetas, ev.failed))


def _relent_value(model: HamiltonianModel, theta: np.ndarray, data: StateTrainingSet,
                  H: np.ndarray, log_z: float, lam: float) -> float:
    """objective_relent at theta from H(theta) and its log Z."""
    entropy = data.entropy + model.n_hidden * math.log(2.0)
    relent = -entropy + expectation_value(data.lifted(model.n_hidden), H) + log_z
    return -relent - _reg_value(model, theta, lam)


def grad_relent(
    model: HamiltonianModel, theta, data: StateTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Gradient of objective_relent: Tr[H_j (sigma - rho)] - lam theta_j [quantum].

    sigma is the Gibbs state of H, rho the (embedded) target.
    """
    thetas, ev, sets = _setup(model, theta, data)
    targets = np.array([data.lifted(model.n_hidden) for data in sets])
    np.subtract(ev.rho, targets, out=targets)  # sigma - rho, in the stacked targets' buffer
    return _result(theta, term_expectations(model, targets) - _reg_grad(model, thetas, lam))


def child_seed(root, *key: int) -> np.random.SeedSequence:
    """The stream at key path `key` below root, an int or a SeedSequence, which is never changed.

    It equals the matching child of root.spawn(): child_seed(root, i) is child i of a fresh root.
    """
    if isinstance(root, np.random.SeedSequence):
        return np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + key, pool_size=root.pool_size)
    return np.random.SeedSequence(root, spawn_key=key)


def _measurement_basis(term: np.ndarray) -> EigenSystem:
    """Eigensystem of a term whose spectral norm must not exceed 1."""
    basis = hermitian_eigendecompose(term)
    norm = np.abs(basis.eigenvalues).max()
    if norm > 1.0 + 1e-8:
        raise ValueError(f"term spectral norm {norm:.6f} exceeds 1; rescale the term")
    return basis


def _measurement_bases(model: HamiltonianModel) -> EigenSystem:
    """_measurement_basis of every term, stacked: eigenvalues (n_terms, dim), eigenvectors (n_terms, dim, dim).

    Taken on first use, one solve per term, and kept on the model, read-only.
    Like the terms themselves they depend on neither theta nor the data.
    Nothing is kept when a term fails the norm check, so it fails every call.
    """
    bases = model.__dict__.get("_measurement_bases")
    if bases is None:
        solved = [_measurement_basis(term.dense()) for term in model.terms]  # one dense term at a time
        bases = EigenSystem(*(np.stack(arrays) for arrays in zip(*solved)))
        for array in bases:
            array.flags.writeable = False
        # stored like _evaluate's record: the frozen model's __dict__, dropped with it
        model.__dict__["_measurement_bases"] = bases
    return bases


def grad_relent_sampled(
    model: HamiltonianModel,
    theta,
    data: StateTrainingSet,
    lam: float = 0.0,
    n_samples: int = 512,
    rng_seed=0,
) -> np.ndarray:
    """Unbiased sampled version of grad_relent, at one theta.

    Each of the two expectations per component averages n_samples fresh
    eigenvalue measurements of the term on its own sub-stream of rng_seed
    (child_seed(rng_seed, 2j) for the target, 2j + 1 for the Gibbs state),
    so the mean squared error scales like (number of terms) / n_samples.
    Outcome i is drawn with probability <v_i|state|v_i> clamped to [0, 1]
    and renormalized: the stream's random(n_samples) located in that
    distribution's CDF, the draw Generator.choice(p=...) makes. Deterministic
    given rng_seed, which is never changed. The term eigenbases are taken
    once per model and kept on it (_measurement_bases); the products run over
    blocks of terms with at most CHUNK_ENTRIES entries each.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if np.ndim(theta) != 1:
        raise ValueError(f"the sampled gradient takes one theta, not a stack of shape {np.shape(theta)}")
    [theta], ev, [data] = _setup(model, theta, data)
    rho, sigma = data.lifted(model.n_hidden), ev.rho[0]
    evals, V = _measurement_bases(model)
    # row 2j + s: the diagonal of V_j^dag S V_j, S the target (s = 0) or the Gibbs state (s = 1)
    block = max(1, CHUNK_ENTRIES // rho.size)  # terms per product
    probs = np.concatenate([np.stack([(Vb.conj() * (S @ Vb)).sum(axis=1).real for S in (rho, sigma)], axis=1)
                            for Vb in (V[j : j + block] for j in range(0, model.n_terms, block))])
    probs = np.clip(probs.reshape(2 * model.n_terms, -1), 0.0, 1.0)
    totals = probs.sum(axis=1)
    if np.isnan(totals).any():
        raise ValueError("state probabilities on the term eigenbasis contain NaN")
    if (totals <= 0.0).any():
        raise ValueError("state has no weight on the term eigenbasis")
    cdf = np.cumsum(probs / totals[:, None], axis=1)
    cdf /= cdf[:, -1:]
    picks = np.empty((len(cdf), n_samples), dtype=np.intp)
    for k, row in enumerate(cdf):
        uniforms = np.random.default_rng(child_seed(rng_seed, k)).random(n_samples)
        picks[k] = row.searchsorted(uniforms, side="right")
    means = np.take_along_axis(np.repeat(evals, 2, axis=0), picks, axis=1).mean(axis=1)
    return means[1::2] - means[::2] - _reg_grad(model, theta, lam)


# Gradient kind -> (training-set type, gradient at (model, theta stack, one set per row,
# config)); the sampled gradient trains one row and takes the epoch's seed too. The
# gradients are looked up by their module names at call time, so a wrapper installed on
# a public name sees every call.
_GRADIENTS = {
    "gt": (PovmTrainingSet, lambda m, t, d, c: grad_povm_gt(m, t, d, c.lam)),
    "exact": (PovmTrainingSet, lambda m, t, d, c: grad_povm_exact(m, t, d, c.lam)),
    "commutator": (
        PovmTrainingSet,
        lambda m, t, d, c: grad_povm_commutator(m, t, d, c.lam, c.commutator_order),
    ),
    "relent": (StateTrainingSet, lambda m, t, d, c: grad_relent(m, t, d, c.lam)),
    "relent_sampled": (
        StateTrainingSet,
        lambda m, t, d, c, seed: grad_relent_sampled(m, t[0], d[0], c.lam, c.n_samples, seed)[None],
    ),
}
GRADIENT_KINDS = tuple(_GRADIENTS)
POVM_GRADIENT_KINDS = tuple(
    kind for kind, (data_type, _) in _GRADIENTS.items() if data_type is PovmTrainingSet
)


def train(
    model: HamiltonianModel,
    theta0,
    data,
    config: OptimizerConfig,
    rng_seed=0,
) -> TrainingTrace:
    """Heavy-ball gradient ascent of one theta: v <- mu v + eta G; theta <- theta + v.

    The one-row call of the lockstep loop (_train_lockstep). The trace stores
    one record per visited parameter vector (epochs 0..config.epochs); GT and
    commutator runs monitor the exact POVM objective, relative-entropy runs
    monitor objective_relent. A non-finite objective or gradient, or a failed
    solve, aborts the run, keeps every valid record and sets trace.diverged
    (expected for unstable commutator settings). Epoch e's sampled gradient
    draws from child_seed(rng_seed, e).
    """
    if np.ndim(theta0) != 1:
        raise ValueError(f"train takes one theta0, not a stack of shape {np.shape(theta0)}")
    [trace], _ = _train_lockstep(model, np.asarray(theta0)[None], data, [config], rng_seed)
    return trace


def _train_lockstep(model: HamiltonianModel, theta0, data, configs, rng_seed=0):
    """Heavy-ball ascent of every row of a (B, n_terms) theta0 at once, row b with configs[b].

    data is one training set for every row or a sequence of one per row. The
    rows share the model and every setting but learning_rate and momentum.
    Each epoch calls the monitor (objective_povm_exact on POVM data,
    objective_relent on a target state) and the gradient once on the live
    stack, and both read its one evaluation (_evaluate). Returns (traces,
    states): per row its TrainingTrace, which is train's on that row alone
    bit for bit, and the Gibbs state at its last recorded theta. A row whose
    objective or gradient is non-finite, or whose solve fails, freezes with
    the reason and epoch in its note and keeps its valid records; the others
    train on. relent_sampled trains one row, as each epoch draws its own
    streams.
    """
    config = configs[0]
    if any(replace(c, learning_rate=config.learning_rate, momentum=config.momentum) != config
           for c in configs):
        raise ValueError("lockstep rows may differ in learning_rate and momentum only")
    theta = np.array(theta0, dtype=np.float64)
    if theta.shape != (len(configs), model.n_terms):
        raise ValueError(f"theta0 shape {theta.shape} does not match {len(configs)} rows "
                         f"and {model.n_terms} terms")
    data_type, gradient = _GRADIENTS[config.gradient_kind]
    sets = [data] * len(theta) if isinstance(data, (PovmTrainingSet, StateTrainingSet)) else list(data)
    if not all(isinstance(data, data_type) for data in sets):
        raise ValueError(f"gradient kind {config.gradient_kind!r} trains on a {data_type.__name__}")
    sampled = config.gradient_kind == "relent_sampled"
    if sampled and len(theta) > 1:
        raise ValueError("relent_sampled trains one row: each epoch draws its own streams")
    monitor = objective_povm_exact if data_type is PovmTrainingSet else objective_relent

    traces = [TrainingTrace() for _ in theta]
    states = [None] * len(theta)
    live = np.arange(len(theta))  # the trace of each row of theta
    rate = np.array([[c.learning_rate] for c in configs])
    momentum = np.array([[c.momentum] for c in configs])
    velocity = np.zeros_like(theta)
    # overflow in an unstable run shows up as a non-finite value or a failed
    # solve below, which is handled; the numpy warnings (from the evaluation
    # or the update) would just be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            objective = monitor(model, theta, sets, config.lam)
            try:
                grad = gradient(model, theta, sets, config, *((child_seed(rng_seed, epoch),) if sampled else ()))
            except np.linalg.LinAlgError:  # the sampled gradient's one theta, whose solve failed
                grad = np.full(theta.shape, np.nan)
            ev = _evaluate(model, theta)  # the record both calls read
            finite = np.isfinite(objective) & np.isfinite(grad).all(axis=1)
            kept = []
            for i, b in enumerate(live):
                if not finite[i]:
                    traces[b].diverged = True
                    traces[b].note = f"{ev.failed.get(i, 'non-finite objective or gradient')} at epoch {epoch}"
                    continue
                overlap = None if data_type is PovmTrainingSet else expectation_value(
                    sets[i].lifted(model.n_hidden), ev.rho[i])
                # hypot is scaled, so finite whenever the norm itself is
                traces[b].records.append(TraceRecord(
                    epoch, theta[i].copy(), float(objective[i]), math.hypot(*grad[i]), overlap))
                states[b] = ev.rho[i]
                kept.append(i)
            if epoch == config.epochs or not kept:
                break
            if len(kept) < len(live):
                live, theta, velocity, grad, rate, momentum = (
                    a[kept] for a in (live, theta, velocity, grad, rate, momentum))
                sets = [sets[i] for i in kept]
            velocity = momentum * velocity + rate * grad
            theta = theta + velocity
    if not all(trace.records for trace in traces):
        raise ValueError("training diverged before the first epoch completed")
    return traces, states
