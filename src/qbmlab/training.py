"""Objectives, gradients and the training loop for QBM models.

Two data modalities are supported: POVM outcome statistics (maximum
log-likelihood) and a full target density matrix (maximum negative
relative entropy). All objectives are ascended; the optional L2 penalty
(lam/2)*||theta_Q||^2 acts only on weights of quantum (off-diagonal)
terms. Inverse temperature is fixed at 1 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import (
    EigenSystem,
    _eigh,
    _exp_neg_divided_differences,
    _gibbs_from_eigensystem,
    _require_hermitian,
    _shifted_weights,
    _spectral_sum,
    expectation_value,
    gibbs_state,
    hermitian_eigendecompose,
    log_partition,
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

MAX_COMMUTATOR_ORDER = 12

# Eigenvalue floor of the POVM-element logarithms in the Golden-Thompson
# bound, which makes rank-deficient elements full rank.
GT_CLIP = 1e-10


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
    """Full target density matrix on the visible units."""

    rho: np.ndarray

    def __post_init__(self):
        rho = validate_density_matrix(self.rho, "target state")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "_lifts", {0: rho})

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
        """Von Neumann entropy of the target, computed once."""
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


def _check_theta(model: HamiltonianModel, theta, stacked: bool = False) -> np.ndarray:
    """theta as float64, one weight per term; with stacked, a (B, n_terms) stack is accepted too."""
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape[-1:] != (model.n_terms,) or theta.ndim > 1 + stacked:
        raise ValueError(f"theta shape {theta.shape} does not match {model.n_terms} terms")
    return theta


class _Evaluation(NamedTuple):
    """A model's Hamiltonian and Gibbs state at one theta (see _evaluate)."""

    key: bytes  # the bytes of theta
    H: np.ndarray
    eigen: EigenSystem
    weights: np.ndarray  # Gibbs weights e^{-(lambda_i - lambda_min)}
    rho: np.ndarray  # e^{-H} / Tr[e^{-H}]
    log_z: float


def _evaluate(model: HamiltonianModel, theta: np.ndarray) -> _Evaluation:
    """H(theta), its eigensystem, Gibbs state and log Z, from one eigh.

    The model keeps the record of the last theta it was evaluated at, so the
    monitor and gradient of an epoch share one assembly and one eigh. Only
    the exact bytes of theta match, and a hit returns what a miss computes.
    The record's arrays are read-only.
    """
    key = theta.tobytes()
    record = model.__dict__.get("_evaluation")
    if record is not None and record.key == key:
        return record
    H = assemble_hamiltonian(model, theta)
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("H(theta) has non-finite entries")
    # unchecked: the scatter makes H[r, c] and H[c, r] exact conjugates
    eigen = _eigh(H)
    rho, weights, log_z = _gibbs_from_eigensystem(*eigen)
    for array in (H, *eigen, weights, rho):
        array.flags.writeable = False
    record = _Evaluation(key, H, eigen, weights, rho, log_z)
    # stored like a cached_property: the frozen model's __dict__, dropped with it
    model.__dict__["_evaluation"] = record
    return record


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
    failed = {int(b): "H(theta) has non-finite entries" for b in np.flatnonzero(~finite)}
    real = ~H.imag.any(axis=(1, 2))
    solves = []
    for group in (finite & real, finite & ~real):
        rows = np.flatnonzero(group)
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


def _evaluate_stack(model: HamiltonianModel, thetas: np.ndarray):
    """(H, rho, log_z, failed): _evaluate at each row of a (B, n_terms) theta stack, from stacked solves.

    Row b of H, rho and log_z is bit for bit what _evaluate(model, thetas[b])
    gives (see _solve_stack). failed maps each row whose H is non-finite or
    whose solve fails to the reason; their states and log Z are NaN.
    """
    H = assemble_hamiltonian(model, thetas)
    log_z = np.full(len(H), np.nan)
    states = []  # (rows, their Gibbs states) of each solve
    solves, failed = _solve_stack(H)
    for solved, (evals, V) in solves:
        # log Z and the weights row by row, as _evaluate forms them
        shifted = [_shifted_weights(row) for row in evals]
        probs = np.stack([weights / total for weights, total, _ in shifted])
        states.append((solved, _spectral_sum(V, probs[:, None, :])))
        log_z[solved] = [row_log_z for *_, row_log_z in shifted]
    if len(states) == 1 and len(states[0][0]) == len(H):
        return H, states[0][1], log_z, failed  # one solve of every row, as at dim 512: no copy
    rho = np.full(H.shape, np.nan, dtype=np.complex128)
    for solved, group_states in states:
        rho[solved] = group_states
    return H, rho, log_z, failed


def _setup(model: HamiltonianModel, theta, data, stacked: bool = False):
    """Checked theta, the model's evaluation at theta and the data lifted onto its hidden units.

    With stacked, a (B, n_terms) theta stack is accepted and evaluated by _evaluate_stack.
    """
    theta = _check_theta(model, theta, stacked)
    if data.dim != 2**model.n_visible:
        raise ValueError(
            f"training data dimension {data.dim} does not match "
            f"2^{model.n_visible} visible units"
        )
    evaluate = _evaluate if theta.ndim == 1 else _evaluate_stack
    return theta, evaluate(model, theta), data.lifted(model.n_hidden)


def _rowwise(value, theta: np.ndarray, failed: dict) -> np.ndarray:
    """value(b) at each row b of a theta stack, NaN at the rows in failed."""
    return np.array([math.nan if b in failed else value(b) for b in range(len(theta))])


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
    if state.ndim == 2:
        picked = state.ravel()[entries.flat_t]
        return np.bincount(entries.index, (entries.values * picked).real, model.n_terms)
    # row b's sums go to bins offset by b * n_terms, in the same order
    products = (entries.values * state.reshape(len(state), -1)[:, entries.flat_t]).real
    index = (model.n_terms * np.arange(len(state))[:, None] + entries.index).ravel()
    return np.bincount(index, products.ravel(), len(state) * model.n_terms).reshape(len(state), -1)


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

    A (B, n_terms) theta stack gives the (B,) values from one stacked
    evaluation (_evaluate_stack), each bit for bit the value at its row
    alone. A row whose H(theta) is non-finite or whose solve fails reads
    NaN, where a single theta raises LinAlgError. The same holds for
    objective_povm_gt and objective_relent.
    """
    theta, ev, lifted = _setup(model, theta, data, stacked=True)
    if theta.ndim == 1:
        return _povm_exact_value(model, theta, lifted, ev.rho, lam)
    _, rho, _, failed = ev
    return _rowwise(lambda b: _povm_exact_value(model, theta[b], lifted, rho[b], lam), theta, failed)


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
    The bound is tight whenever Lambda_v commutes with H. A theta stack
    (see objective_povm_exact) solves every H_b - log Lambda_v in one
    stacked eigvalsh per realness group (_solve_stack).
    """
    theta, ev, lifted = _setup(model, theta, data, stacked=True)
    if theta.ndim == 1:
        log_partitions = [log_partition(ev.H - log_el) for *_, log_el in lifted]
        return _povm_gt_value(model, theta, lifted, log_partitions, ev.log_z, lam)
    H, _, log_z, failed = ev
    # H_b - log Lambda_v is bitwise Hermitian, as both terms are: no check or symmetrization
    shifted = H[:, None] - np.stack([log_el for *_, log_el in lifted])
    log_partitions = np.full(shifted.shape[:2], np.nan)
    solves, _ = _solve_stack(shifted.reshape(-1, model.dim, model.dim), vectors=False)
    for rows, evals in solves:
        log_partitions.flat[rows] = [_shifted_weights(row)[2] for row in evals]
    return _rowwise(
        lambda b: _povm_gt_value(model, theta[b], lifted, log_partitions[b], log_z[b], lam), theta, failed)


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
    probabilities sum to 1, this is Tr[H_j (rho - sum_v P_v rho_v)].
    """
    theta, ev, lifted = _setup(model, theta, data)
    X = ev.rho.copy()
    for p, _, log_el in lifted:
        X -= p * gibbs_state(ev.H - log_el)[0]
    return term_expectations(model, X) - _reg_grad(model, theta, lam)


def grad_povm_exact(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Gradient of objective_povm_exact via the derivative of e^{-H}.

    The Frechet derivative D(H, E) of e^{-H} along E is self-adjoint under
    the trace, Tr[Lambda D(H, H_j)] = Tr[H_j D(H, Lambda)], so component j
    is Re Tr[H_j (rho + sum_v P_v D(H, Lambda_v) / Tr[Lambda_v e^{-H}])].
    The D(H, Lambda_v) are summed in the eigenbasis of H and scaled once by
    the divided differences of e^{-x} (_exp_neg_divided_differences) at
    eigenvalues shifted by the minimum, so large ||H|| stays finite; the
    shift cancels in the likelihood ratios.
    """
    theta, ev, lifted = _setup(model, theta, data)
    evals, V = ev.eigen
    # sum_v (P_v / L_v) V^+ Lambda_v V, with L_v = Tr[Lambda_v e^{-(H - evals[0])}]
    weighted = np.zeros(V.shape, dtype=np.complex128)  # V is real for real-symmetric H
    for p, el, _ in lifted:
        el_rot = V.conj().T @ el @ V
        likelihood = max(float(el_rot.diagonal().real @ ev.weights), LIKELIHOOD_FLOOR)
        weighted += (p / likelihood) * el_rot
    X = ev.rho + V @ (weighted * _exp_neg_divided_differences(evals - evals[0])) @ V.conj().T
    return term_expectations(model, X) - _reg_grad(model, theta, lam)


def _hadamard_series(H: np.ndarray, direction: np.ndarray, order: int) -> np.ndarray:
    """Truncation of int_0^1 e^{sH} D e^{-sH} ds to `order` terms.

    Equals sum_{m=0}^{order-1} ad_H^m(D) / (m+1)! with ad_H(D) = HD - DH,
    by Hadamard's lemma. Order 1 keeps only D itself.
    """
    series = direction.copy()
    nested = direction
    for m in range(1, order):
        nested = H @ nested - nested @ H
        series += nested / math.factorial(m + 1)
    return series


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
    Only the real part of each trace is kept (the truncation's
    anti-Hermitian residue is discarded). Exact for commuting models at
    any order and increasingly accurate in `order` while ||H|| is
    moderate; orders above 12 are rejected as numerically useless.
    """
    _check_commutator_order(order)
    theta, ev, lifted = _setup(model, theta, data)
    rho = ev.rho
    weighted = np.zeros_like(rho)
    for p, el, _ in lifted:
        weighted += (p / max(expectation_value(rho, el), LIKELIHOOD_FLOOR)) * el
    X = rho - _hadamard_series(ev.H, rho @ weighted, order)
    return term_expectations(model, X) - _reg_grad(model, theta, lam)


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
    theta, ev, _ = _setup(model, theta, data, stacked=True)
    if theta.ndim == 1:
        return _relent_value(model, theta, data, ev.H, ev.log_z, lam)
    H, _, log_z, failed = ev
    return _rowwise(lambda b: _relent_value(model, theta[b], data, H[b], log_z[b], lam), theta, failed)


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
    theta, ev, rho = _setup(model, theta, data)
    return term_expectations(model, ev.rho - rho) - _reg_grad(model, theta, lam)


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
        solved = [_measurement_basis(term.matrix) for term in model.terms]
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
    """Unbiased sampled version of grad_relent.

    Each of the two expectations per component averages n_samples fresh
    eigenvalue measurements of the term on its own sub-stream of rng_seed
    (child_seed(rng_seed, 2j) for the target, 2j + 1 for the Gibbs state),
    so the mean squared error scales like (number of terms) / n_samples.
    Outcome i is drawn with probability <v_i|state|v_i> clamped to [0, 1]
    and renormalized: the stream's random(n_samples) located in that
    distribution's CDF, the draw Generator.choice(p=...) makes. Deterministic
    given rng_seed, which is never changed. The term eigenbases are taken
    once per model and kept on it (_measurement_bases).
    """
    theta, ev, rho = _setup(model, theta, data)
    evals, V = _measurement_bases(model)
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    # row 2j + s: the diagonal of V_j^dag S V_j, S the target (s = 0) or the Gibbs state (s = 1)
    probs = np.stack([(V.conj() * (state @ V)).sum(axis=1).real for state in (rho, ev.rho)], axis=1)
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


# Gradient kind -> (training-set type, gradient at (model, theta, data, config,
# epoch seed)). The gradients are looked up by their module names at call
# time, so a wrapper installed on a public name sees every call.
_GRADIENTS = {
    "gt": (PovmTrainingSet, lambda m, t, d, c, s: grad_povm_gt(m, t, d, c.lam)),
    "exact": (PovmTrainingSet, lambda m, t, d, c, s: grad_povm_exact(m, t, d, c.lam)),
    "commutator": (
        PovmTrainingSet,
        lambda m, t, d, c, s: grad_povm_commutator(m, t, d, c.lam, c.commutator_order),
    ),
    "relent": (StateTrainingSet, lambda m, t, d, c, s: grad_relent(m, t, d, c.lam)),
    "relent_sampled": (
        StateTrainingSet,
        lambda m, t, d, c, s: grad_relent_sampled(m, t, d, c.lam, c.n_samples, s),
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
    """Heavy-ball gradient ascent: v <- mu v + eta G; theta <- theta + v.

    The trace stores one record per visited parameter vector (epochs
    0..config.epochs); GT and commutator runs monitor the exact POVM
    objective, relative-entropy runs monitor objective_relent. A
    non-finite objective or gradient, or a failed solve (LinAlgError), aborts
    the run, keeps every valid record and sets trace.diverged (expected for
    unstable commutator settings). Epoch e's gradient draws from child_seed(rng_seed, e).
    """
    theta = _check_theta(model, theta0).copy()
    data_type, gradient = _GRADIENTS[config.gradient_kind]
    if not isinstance(data, data_type):
        raise ValueError(
            f"gradient kind {config.gradient_kind!r} trains on a {data_type.__name__}"
        )
    monitor = objective_povm_exact if data_type is PovmTrainingSet else objective_relent
    target = data.lifted(model.n_hidden) if data_type is StateTrainingSet else None

    trace = TrainingTrace()
    velocity = np.zeros_like(theta)
    # overflow in an unstable run shows up as a non-finite value or a failed
    # solve below, which is handled; the numpy warnings (from the evaluation
    # or the update) would just be noise
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            try:
                objective = monitor(model, theta, data, config.lam)
                grad = gradient(model, theta, data, config, child_seed(rng_seed, epoch))
            except np.linalg.LinAlgError as error:  # a solve of a huge or non-finite H
                objective, grad, reason = math.nan, math.nan, str(error)
            else:
                reason = "non-finite objective or gradient"
            if not (np.isfinite(objective) and np.all(np.isfinite(grad))):
                trace.diverged = True
                trace.note = f"{reason} at epoch {epoch}"
                break
            # from the Gibbs state this epoch's evaluation record holds
            overlap = None if target is None else expectation_value(target, _evaluate(model, theta).rho)
            trace.records.append(
                TraceRecord(
                    epoch=epoch,
                    theta=theta.copy(),
                    objective=float(objective),
                    grad_norm=math.hypot(*grad),  # scaled, so finite whenever the norm itself is
                    overlap=overlap,
                )
            )
            if epoch == config.epochs:
                break
            velocity = config.momentum * velocity + config.learning_rate * grad
            theta = theta + velocity
    if not trace.records:
        raise ValueError("training diverged before the first epoch completed")
    return trace


def _train_lockstep(model: HamiltonianModel, theta0, targets, config: OptimizerConfig):
    """train on (theta0[b], targets[b]) for every b at once: relative-entropy ascent in lockstep.

    Returns (traces, states): per instance the TrainingTrace that
    train(model, theta0[b], targets[b], config) returns, bit for bit, and the
    Gibbs state at its final theta. All instances step together on one
    (B, n_terms) theta array with one stacked evaluation per epoch (see
    _evaluate_stack). An instance that diverges freezes with train's note and
    keeps its valid records, and the others train on.
    """
    if config.gradient_kind != "relent":
        raise ValueError(f"lockstep training ascends the relent gradient, not {config.gradient_kind!r}")
    theta = np.array(theta0, dtype=np.float64)
    if theta.shape != (len(targets), model.n_terms):
        raise ValueError(f"theta0 shape {theta.shape} does not match {len(targets)} targets "
                         f"and {model.n_terms} terms")
    for data in targets:
        if not isinstance(data, StateTrainingSet) or data.dim != 2**model.n_visible:
            raise ValueError(f"lockstep targets must be StateTrainingSets on {model.n_visible} visible units")
    lifted = np.stack([data.lifted(model.n_hidden) for data in targets])
    traces = [TrainingTrace() for _ in targets]
    states = [None] * len(targets)
    live = np.arange(len(targets))  # instance of each row of theta
    velocity = np.zeros_like(theta)
    # as in train: overflow shows up as a non-finite value or a failed solve
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs + 1):
            H, rho, log_z, failed = _evaluate_stack(model, theta)
            grad = term_expectations(model, rho - lifted) - _reg_grad(model, theta, config.lam)
            finite_grad = np.isfinite(grad).all(axis=1)
            kept = []
            for i, b in enumerate(live):
                objective = math.nan if i in failed else _relent_value(
                    model, theta[i], targets[b], H[i], log_z[i], config.lam)
                if not (math.isfinite(objective) and finite_grad[i]):
                    traces[b].diverged = True
                    traces[b].note = f"{failed.get(i, 'non-finite objective or gradient')} at epoch {epoch}"
                    continue
                traces[b].records.append(
                    TraceRecord(
                        epoch=epoch,
                        theta=theta[i].copy(),
                        objective=float(objective),
                        grad_norm=math.hypot(*grad[i]),
                        overlap=expectation_value(lifted[i], rho[i]),
                    )
                )
                states[b] = rho[i]
                kept.append(i)
            if epoch == config.epochs or not kept:
                break
            if len(kept) < len(live):
                live, theta, velocity, grad, lifted = (a[kept] for a in (live, theta, velocity, grad, lifted))
            velocity = config.momentum * velocity + config.learning_rate * grad
            theta = theta + velocity
    if not all(trace.records for trace in traces):
        raise ValueError("training diverged before the first epoch completed")
    return traces, states
