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
    _exp_neg_divided_differences,
    _gibbs_from_eigensystem,
    _hermitian_eigenvalues,
    expectation_value,
    gibbs_state,
    hermitian_eigendecompose,
    kron,
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
    "sampled_expectation",
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
    elements padded to a model's hidden units, and their logarithms, are
    built on first use and kept on the set (see _padded_pairs).
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
        if not elements:
            raise ValueError("POVM needs at least one element")
        dim = elements[0].shape[0]
        if probs.shape != (len(elements),):
            raise ValueError("one probability per POVM element required")
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in elements:
            if e.shape != (dim, dim):
                raise ValueError("POVM elements must share one square shape")
            if not np.all(np.isfinite(e)):
                raise ValueError("POVM element has non-finite entries")
            if np.abs(e - e.conj().T).max() > 1e-10:
                raise ValueError("POVM element is not Hermitian within 1e-10")
            if _hermitian_eigenvalues(e)[0] < -1e-10:
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


@dataclass(frozen=True, eq=False)
class StateTrainingSet:
    """Full target density matrix on the visible units."""

    rho: np.ndarray

    def __post_init__(self):
        rho = validate_density_matrix(self.rho, "target state")
        rho = rho.copy()
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)

    @property
    def dim(self) -> int:
        return self.rho.shape[0]

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
    gradient, with the last valid record retained.
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


def _check_theta(model: HamiltonianModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=np.float64)
    if theta.shape != (model.n_terms,):
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
    eigen = hermitian_eigendecompose(H)
    rho, weights, log_z = _gibbs_from_eigensystem(*eigen)
    for array in (H, *eigen, weights, rho):
        array.flags.writeable = False
    record = _Evaluation(key, H, eigen, weights, rho, log_z)
    # stored like a cached_property: the frozen model's __dict__, dropped with it
    model.__dict__["_evaluation"] = record
    return record


def _setup(model: HamiltonianModel, theta, data):
    """Checked theta and the model's evaluation at theta, for data on the visible units."""
    theta = _check_theta(model, theta)
    if data.dim != 2**model.n_visible:
        raise ValueError(
            f"training data dimension {data.dim} does not match "
            f"2^{model.n_visible} visible units"
        )
    return theta, _evaluate(model, theta)


def _relent_setup(model: HamiltonianModel, theta, data: StateTrainingSet):
    """Checked theta, the evaluation at theta and the target embedded on the hidden units."""
    theta, ev = _setup(model, theta, data)
    return theta, ev, _embedded_target(data, model.n_hidden)


def pad_to_hidden(operator: np.ndarray, n_hidden: int) -> np.ndarray:
    """Extend a visible-space operator by identity on the hidden units."""
    if n_hidden == 0:
        return np.asarray(operator, dtype=np.complex128)
    return kron(operator, np.eye(2**n_hidden, dtype=np.complex128))


def embed_target_state(rho: np.ndarray, n_hidden: int) -> np.ndarray:
    """Target for hidden-unit models: rho (x) I / 2^{n_hidden}."""
    return pad_to_hidden(rho, n_hidden) / 2**n_hidden


def _embedded_target(data: StateTrainingSet, n_hidden: int) -> np.ndarray:
    """rho (x) I / 2^{n_hidden}, read-only, kept on the set once per n_hidden (rho itself at 0)."""
    cache = data.__dict__.setdefault("_embedded", {0: data.rho})
    if n_hidden not in cache:
        cache[n_hidden] = embed_target_state(data.rho, n_hidden)
        cache[n_hidden].flags.writeable = False
    return cache[n_hidden]


def _padded_pairs(data: PovmTrainingSet, n_hidden: int, log: bool = False) -> tuple:
    """(P_v, Lambda_v (x) I), or (P_v, log Lambda_v (x) I) with log, for each P_v > 0.

    Built on first use and kept on the training set, once per (log, n_hidden).
    The logarithm clips the eigenvalues of Lambda_v at GT_CLIP. The padded
    operators are read-only.
    """
    cache = data.__dict__.setdefault("_padded", {})
    if (log, n_hidden) not in cache:
        pairs = []
        for p, element in zip(data.probabilities, data.elements):
            if p > 0.0:
                op = pad_to_hidden(matrix_log_psd(element, GT_CLIP) if log else element, n_hidden)
                op.flags.writeable = False
                pairs.append((p, op))
        cache[log, n_hidden] = tuple(pairs)
    return cache[log, n_hidden]


def _padded_likelihoods(model: HamiltonianModel, rho: np.ndarray, data: PovmTrainingSet):
    """Yield (P_v, Lambda_v (x) I, Tr[rho (Lambda_v (x) I)]) for each P_v > 0."""
    for p, padded in _padded_pairs(data, model.n_hidden):
        yield p, padded, expectation_value(rho, padded)


def _gt_hamiltonians(model: HamiltonianModel, H: np.ndarray, data: PovmTrainingSet):
    """Yield (P_v, H - log Lambda_v) for each P_v > 0, the Golden-Thompson Hamiltonians."""
    for p, padded_log in _padded_pairs(data, model.n_hidden, log=True):
        yield p, H - padded_log


def _reg_value(model: HamiltonianModel, theta: np.ndarray, lam: float) -> float:
    if lam == 0.0:
        return 0.0
    quantum = theta[model.quantum_mask]
    return 0.5 * lam * float(quantum @ quantum)


def _reg_grad(model: HamiltonianModel, theta: np.ndarray, lam: float) -> np.ndarray:
    grad = np.zeros_like(theta)
    if lam != 0.0:
        grad[model.quantum_mask] = lam * theta[model.quantum_mask]
    return grad


def term_expectations(model: HamiltonianModel, state: np.ndarray) -> np.ndarray:
    """Vector of Re Tr[state H_j] over the model terms.

    Tr[state H_j] = sum over the entries H_j[r, c] of H_j[r, c] state[c, r]:
    a gather at the transposed positions and a per-term sum.
    """
    state = np.asarray(state)
    if state.shape != (model.dim, model.dim):
        raise ValueError(f"state shape {state.shape} does not match dimension {model.dim}")
    entries = model.entries
    picked = state.ravel()[entries.flat_t]
    return np.bincount(entries.index, (entries.values * picked).real, model.n_terms)


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
    """
    theta, ev = _setup(model, theta, data)
    value = sum(p * _clamped_log(L) for p, _, L in _padded_likelihoods(model, ev.rho, data))
    return value - _reg_value(model, theta, lam)


def objective_povm_gt(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> float:
    """Golden-Thompson lower bound on the POVM log-likelihood objective.

    Each likelihood is replaced by Tr[e^{-(H - log Lambda_v)}] / Tr[e^{-H}]
    with rank-deficient elements made full rank by eigenvalue clipping.
    The bound is tight whenever Lambda_v commutes with H.
    """
    theta, ev = _setup(model, theta, data)
    value = sum(
        p * (log_partition(H_v) - ev.log_z) for p, H_v in _gt_hamiltonians(model, ev.H, data)
    )
    return value - _reg_value(model, theta, lam)


def grad_povm_gt(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Exact gradient of objective_povm_gt.

    Component j:  sum_v P_v ( -<H_j>_{H_v} + <H_j>_H ) - lam theta_j [quantum],
    where H_v = H - log Lambda_v uses the clipped logarithm. As the outcome
    probabilities sum to 1, this is Tr[H_j (rho - sum_v P_v rho_v)].
    """
    theta, ev = _setup(model, theta, data)
    X = ev.rho.copy()
    for p, H_v in _gt_hamiltonians(model, ev.H, data):
        X -= p * gibbs_state(H_v)[0]
    return term_expectations(model, X) - _reg_grad(model, theta, lam)


def grad_povm_exact(
    model: HamiltonianModel, theta, data: PovmTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Gradient of objective_povm_exact via the derivative of e^{-H}.

    The Frechet derivative D(H, E) of e^{-H} along E is self-adjoint under
    the trace, Tr[Lambda D(H, H_j)] = Tr[H_j D(H, Lambda)], so component j
    is Re Tr[H_j (rho + sum_v P_v D(H, Lambda_v) / Tr[Lambda_v e^{-H}])].
    The D(H, Lambda_v) are summed in the eigenbasis of H and scaled once by
    the divided differences of e^{-x} (the kernel of frechet_exp_neg) at
    eigenvalues shifted by the minimum, so large ||H|| stays finite; the
    shift cancels in the likelihood ratios.
    """
    theta, ev = _setup(model, theta, data)
    evals, V = ev.eigen
    # sum_v (P_v / L_v) V^+ Lambda_v V, with L_v = Tr[Lambda_v e^{-(H - evals[0])}]
    weighted = np.zeros(V.shape, dtype=np.complex128)  # V is real for real-symmetric H
    for p, padded in _padded_pairs(data, model.n_hidden):
        el_rot = V.conj().T @ padded @ V
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
    theta, ev = _setup(model, theta, data)
    rho = ev.rho
    weighted = np.zeros_like(rho)
    for p, el, likelihood in _padded_likelihoods(model, rho, data):
        weighted += (p / max(likelihood, LIKELIHOOD_FLOOR)) * el
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
    """
    theta, ev, rho = _relent_setup(model, theta, data)
    entropy = data.entropy + model.n_hidden * math.log(2.0)
    relent = -entropy + expectation_value(rho, ev.H) + ev.log_z
    return -relent - _reg_value(model, theta, lam)


def grad_relent(
    model: HamiltonianModel, theta, data: StateTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Gradient of objective_relent: Tr[H_j (sigma - rho)] - lam theta_j [quantum].

    sigma is the Gibbs state of H, rho the (embedded) target.
    """
    theta, ev, rho = _relent_setup(model, theta, data)
    return term_expectations(model, ev.rho - rho) - _reg_grad(model, theta, lam)


def child_seed(root, *key: int) -> np.random.SeedSequence:
    """The stream at key path `key` below root, an int or a SeedSequence, which is never changed.

    It equals the matching child of root.spawn(): child_seed(root, i) is child i of a fresh root.
    """
    if isinstance(root, np.random.SeedSequence):
        return np.random.SeedSequence(root.entropy, spawn_key=root.spawn_key + key, pool_size=root.pool_size)
    return np.random.SeedSequence(root, spawn_key=key)


def sampled_expectation(state: np.ndarray, term: np.ndarray, n_samples: int, rng_seed) -> float:
    """Sample mean estimate of Tr[state term] from eigenvalue measurements.

    The term is eigendecomposed (its spectral norm must not exceed 1, the
    normalization under which the variance bound Var <= 1/n_samples
    holds), outcome i is drawn with probability <v_i|state|v_i> clamped
    to [0, 1] and renormalized, and the sampled
    eigenvalues are averaged. Deterministic given rng_seed.
    """
    return _sample_mean(state, _measurement_basis(term), n_samples, rng_seed)


def _measurement_basis(term: np.ndarray) -> EigenSystem:
    """Eigensystem of a term whose spectral norm must not exceed 1."""
    basis = hermitian_eigendecompose(term)
    norm = np.abs(basis.eigenvalues).max()
    if norm > 1.0 + 1e-8:
        raise ValueError(f"term spectral norm {norm:.6f} exceeds 1; rescale the term")
    return basis


def _sample_mean(state: np.ndarray, basis: EigenSystem, n_samples: int, rng_seed) -> float:
    """sampled_expectation for a term given by its _measurement_basis."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    evals, V = basis
    probs = np.einsum("ia,ab,bi->i", V.conj().T, state, V).real
    probs = np.clip(probs, 0.0, 1.0)
    total = probs.sum()
    if total <= 0.0:
        raise ValueError("state has no weight on the term eigenbasis")
    probs = probs / total
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(evals.size, size=n_samples, p=probs)
    return float(evals[picks].mean())


def grad_relent_sampled(
    model: HamiltonianModel,
    theta,
    data: StateTrainingSet,
    lam: float = 0.0,
    n_samples: int = 512,
    rng_seed=0,
) -> np.ndarray:
    """Unbiased sampled version of grad_relent.

    Each of the two expectations per component uses n_samples fresh
    eigenvalue measurements on independent sub-streams of rng_seed
    (child_seed(rng_seed, 2j) for the target, 2j + 1 for the Gibbs state),
    so the mean squared error scales like (number of terms) / n_samples.
    Deterministic given rng_seed, which is never changed.
    """
    theta, ev, rho = _relent_setup(model, theta, data)
    grad = np.empty(model.n_terms)
    for j, term in enumerate(model.terms):
        # one eigendecomposition per term serves both expectations
        basis = _measurement_basis(term.matrix)
        target_part = _sample_mean(rho, basis, n_samples, child_seed(rng_seed, 2 * j))
        gibbs_part = _sample_mean(ev.rho, basis, n_samples, child_seed(rng_seed, 2 * j + 1))
        grad[j] = gibbs_part - target_part
    return grad - _reg_grad(model, theta, lam)


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
    non-finite objective or gradient aborts the run, keeps every valid
    record and sets trace.diverged (expected for unstable commutator
    settings). Epoch e's gradient draws from child_seed(rng_seed, e).
    """
    theta = _check_theta(model, theta0).copy()
    data_type, gradient = _GRADIENTS[config.gradient_kind]
    if not isinstance(data, data_type):
        raise ValueError(
            f"gradient kind {config.gradient_kind!r} trains on a {data_type.__name__}"
        )
    monitor = objective_povm_exact if data_type is PovmTrainingSet else objective_relent
    target = _embedded_target(data, model.n_hidden) if data_type is StateTrainingSet else None

    trace = TrainingTrace()
    velocity = np.zeros_like(theta)
    for epoch in range(config.epochs + 1):
        # overflow in an unstable run shows up as a non-finite value below,
        # which is handled; the numpy warning would just be noise
        with np.errstate(over="ignore", invalid="ignore"):
            objective = monitor(model, theta, data, config.lam)
            grad = gradient(model, theta, data, config, child_seed(rng_seed, epoch))
        if not (np.isfinite(objective) and np.all(np.isfinite(grad))):
            trace.diverged = True
            trace.note = f"non-finite objective or gradient at epoch {epoch}"
            break
        trace.records.append(
            TraceRecord(
                epoch=epoch,
                theta=theta.copy(),
                objective=float(objective),
                grad_norm=float(np.linalg.norm(grad)),
                # from the Gibbs state this epoch's evaluation record holds
                overlap=None if target is None else expectation_value(target, _evaluate(model, theta).rho),
            )
        )
        if epoch == config.epochs:
            break
        velocity = config.momentum * velocity + config.learning_rate * grad
        theta = theta + velocity
    if not trace.records:
        raise ValueError("training diverged before the first epoch completed")
    return trace
