"""Objectives, gradients and the training loop for QBM models.

Two data modalities are supported: POVM outcome statistics (maximum
log-likelihood) and a full target density matrix (maximum negative
relative entropy). All objectives are ascended; the optional L2 penalty
(lam/2)*||theta_Q||^2 acts only on weights of quantum (off-diagonal)
terms. Inverse temperature is fixed at 1 throughout.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, InitVar

import numpy as np

from .linalg import (
    _exp_neg_divided_differences,
    expectation_value,
    gibbs_state,
    hermitian_eigendecompose,
    hermitize,
    kron,
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
    "objective_povm_exact",
    "objective_povm_gt",
    "objective_relent",
    "grad_povm_gt",
    "grad_povm_exact",
    "grad_povm_commutator",
    "grad_relent",
    "grad_relent_sampled",
    "sampled_expectation",
    "train",
    "trace_to_csv",
]

GRADIENT_KINDS = ("gt", "exact", "commutator", "relent", "relent_sampled")

# Likelihoods below this underflow threshold contribute the clamped
# log value instead of -inf.
LIKELIHOOD_FLOOR = 1e-300
LOG_CLAMP = -700.0

MAX_COMMUTATOR_ORDER = 12


@dataclass(frozen=True)
class PovmTrainingSet:
    """Measurement operators on the visible units with outcome frequencies.

    Validation checks each element is PSD (eigenvalues >= -1e-10), the
    elements sum to the identity within 1e-9, and the probabilities are
    nonnegative and sum to 1 within 1e-12. Pass validate=False only for
    deliberately perturbed sets (e.g. clipped-element comparisons).
    """

    elements: tuple[np.ndarray, ...]
    probabilities: np.ndarray
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
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
        if not validate:
            return
        total = np.zeros((dim, dim), dtype=np.complex128)
        for e in elements:
            if e.shape != (dim, dim):
                raise ValueError("POVM elements must share one square shape")
            if np.abs(e - e.conj().T).max() > 1e-10:
                raise ValueError("POVM element is not Hermitian within 1e-10")
            if np.linalg.eigvalsh(hermitize(e))[0] < -1e-10:
                raise ValueError("POVM element has eigenvalue below -1e-10")
            total += e
        if np.abs(total - np.eye(dim)).max() > 1e-9:
            raise ValueError("POVM elements do not sum to the identity within 1e-9")
        if probs.min() < 0:
            raise ValueError("outcome probabilities must be nonnegative")
        if abs(probs.sum() - 1.0) > 1e-12:
            raise ValueError("outcome probabilities must sum to 1 within 1e-12")

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


@dataclass(frozen=True)
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
    clip: float = 1e-10

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
        if self.clip <= 0:
            raise ValueError("clip must be positive")


@dataclass(frozen=True)
class TraceRecord:
    epoch: int
    theta: np.ndarray
    objective: float
    grad_norm: float
    elapsed_s: float


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
    def grad_norms(self) -> np.ndarray:
        return np.array([r.grad_norm for r in self.records])

    @property
    def thetas(self) -> np.ndarray:
        return np.stack([r.theta for r in self.records])

    @property
    def final_theta(self) -> np.ndarray:
        return self.records[-1].theta


def trace_to_csv(trace: TrainingTrace, path) -> None:
    """Write the trace as CSV: epoch, objective, grad_norm, elapsed_s, theta_*.

    The numeric columns are deterministic given seed and config; the
    elapsed_s column is wall time and is exempt from byte-for-byte
    reproducibility.
    """
    if not trace.records:
        raise ValueError("cannot serialize an empty trace")
    n_theta = trace.records[0].theta.size
    header = ["epoch", "objective", "grad_norm", "elapsed_s"]
    header += [f"theta_{j}" for j in range(n_theta)]
    lines = [",".join(header)]
    for r in trace.records:
        cells = [str(r.epoch), repr(float(r.objective)), repr(float(r.grad_norm))]
        cells.append(repr(float(r.elapsed_s)))
        cells += [repr(float(x)) for x in r.theta]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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


def _check_visible_dim(model: HamiltonianModel, dim: int) -> None:
    if dim != 2**model.n_visible:
        raise ValueError(
            f"training data dimension {dim} does not match "
            f"2^{model.n_visible} visible units"
        )


def pad_to_hidden(operator: np.ndarray, n_hidden: int) -> np.ndarray:
    """Extend a visible-space operator by identity on the hidden units."""
    if n_hidden == 0:
        return np.asarray(operator, dtype=np.complex128)
    return kron(operator, np.eye(2**n_hidden, dtype=np.complex128))


def embed_target_state(rho: np.ndarray, n_hidden: int) -> np.ndarray:
    """Target for hidden-unit models: rho (x) I / 2^{n_hidden}."""
    return pad_to_hidden(rho, n_hidden) / 2**n_hidden


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
    """Vector of Re Tr[state H_j] over the model terms."""
    return np.tensordot(model.matrix_stack, state, axes=([1, 2], [1, 0])).real


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
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    rho, _ = gibbs_state(assemble_hamiltonian(model, theta))
    value = 0.0
    for element, p in zip(data.elements, data.probabilities):
        if p == 0.0:
            continue
        likelihood = expectation_value(rho, pad_to_hidden(element, model.n_hidden))
        value += p * _clamped_log(likelihood)
    return value - _reg_value(model, theta, lam)


def objective_povm_gt(
    model: HamiltonianModel,
    theta,
    data: PovmTrainingSet,
    lam: float = 0.0,
    clip: float = 1e-10,
) -> float:
    """Golden-Thompson lower bound on the POVM log-likelihood objective.

    Each likelihood is replaced by Tr[e^{-(H - log Lambda_v)}] / Tr[e^{-H}]
    with rank-deficient elements made full rank by eigenvalue clipping.
    The bound is tight whenever Lambda_v commutes with H.
    """
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    H = assemble_hamiltonian(model, theta)
    _, log_z = gibbs_state(H)
    value = 0.0
    for element, p in zip(data.elements, data.probabilities):
        if p == 0.0:
            continue
        log_el = pad_to_hidden(matrix_log_psd(element, clip), model.n_hidden)
        _, log_z_v = gibbs_state(H - log_el)
        value += p * (log_z_v - log_z)
    return value - _reg_value(model, theta, lam)


def grad_povm_gt(
    model: HamiltonianModel,
    theta,
    data: PovmTrainingSet,
    lam: float = 0.0,
    clip: float = 1e-10,
) -> np.ndarray:
    """Exact gradient of objective_povm_gt.

    Component j:  sum_v P_v ( -<H_j>_{H_v} + <H_j>_H ) - lam theta_j [quantum],
    where H_v = H - log Lambda_v uses the clipped logarithm. As the outcome
    probabilities sum to 1, this is Tr[H_j (rho - sum_v P_v rho_v)].
    """
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    H = assemble_hamiltonian(model, theta)
    X, _ = gibbs_state(H)
    for element, p in zip(data.elements, data.probabilities):
        if p == 0.0:
            continue
        log_el = pad_to_hidden(matrix_log_psd(element, clip), model.n_hidden)
        rho_v, _ = gibbs_state(H - log_el)
        X -= p * rho_v
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
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    H = assemble_hamiltonian(model, theta)
    evals, V = hermitian_eigendecompose(H)
    shifted = evals - evals[0]
    weights = np.exp(-shifted)
    rho = hermitize((V * (weights / weights.sum())) @ V.conj().T)
    # sum_v (P_v / L_v) V^+ Lambda_v V, with L_v = Tr[Lambda_v e^{-(H - evals[0])}]
    weighted = np.zeros_like(V)
    for element, p in zip(data.elements, data.probabilities):
        if p == 0.0:
            continue
        el_rot = V.conj().T @ pad_to_hidden(element, model.n_hidden) @ V
        likelihood = max(float(el_rot.diagonal().real @ weights), LIKELIHOOD_FLOOR)
        weighted += (p / likelihood) * el_rot
    X = rho + V @ (weighted * _exp_neg_divided_differences(shifted)) @ V.conj().T
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
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    H = assemble_hamiltonian(model, theta)
    rho, _ = gibbs_state(H)
    weighted = np.zeros_like(rho)
    for element, p in zip(data.elements, data.probabilities):
        if p > 0.0:
            el = pad_to_hidden(element, model.n_hidden)
            weighted += (p / max(expectation_value(rho, el), LIKELIHOOD_FLOOR)) * el
    X = rho - _hadamard_series(H, rho @ weighted, order)
    return term_expectations(model, X) - _reg_grad(model, theta, lam)


def objective_relent(
    model: HamiltonianModel, theta, data: StateTrainingSet, lam: float = 0.0
) -> float:
    """Negative relative entropy -S(rho || Gibbs(H)) - (lam/2)||theta_Q||^2.

    Hidden units see the embedded target rho (x) I/2^{n_hidden}. Written
    with log Gibbs(H) = -H - logZ so arbitrarily large ||H|| stays
    finite; ascending this objective drives the Gibbs state toward rho.
    """
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    rho = embed_target_state(data.rho, model.n_hidden)
    H = assemble_hamiltonian(model, theta)
    _, log_z = gibbs_state(H)
    entropy = von_neumann_entropy(rho)
    relent = -entropy + expectation_value(rho, H) + log_z
    return -relent - _reg_value(model, theta, lam)


def grad_relent(
    model: HamiltonianModel, theta, data: StateTrainingSet, lam: float = 0.0
) -> np.ndarray:
    """Gradient of objective_relent: Tr[H_j (sigma - rho)] - lam theta_j [quantum].

    sigma is the Gibbs state of H, rho the (embedded) target.
    """
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    rho = embed_target_state(data.rho, model.n_hidden)
    sigma, _ = gibbs_state(assemble_hamiltonian(model, theta))
    return term_expectations(model, sigma - rho) - _reg_grad(model, theta, lam)


def _seed_sequence(rng_seed) -> np.random.SeedSequence:
    """rng_seed itself if it is a SeedSequence, else a SeedSequence seeded by it."""
    if isinstance(rng_seed, np.random.SeedSequence):
        return rng_seed
    return np.random.SeedSequence(rng_seed)


def sampled_expectation(state: np.ndarray, term: np.ndarray, n_samples: int, rng_seed) -> float:
    """Sample mean estimate of Tr[state term] from eigenvalue measurements.

    The term is eigendecomposed (its spectral norm must not exceed 1, the
    normalization under which the variance bound Var <= 1/n_samples
    holds), outcome i is drawn with probability <v_i|state|v_i> clamped
    to [0, 1] and renormalized, and the sampled
    eigenvalues are averaged. Deterministic given rng_seed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    evals, V = hermitian_eigendecompose(term)
    if np.abs(evals).max() > 1.0 + 1e-8:
        raise ValueError(
            f"term spectral norm {np.abs(evals).max():.6f} exceeds 1; rescale the term"
        )
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
    eigenvalue measurements on independent sub-streams split from
    rng_seed, so the mean squared error scales like
    (number of terms) / n_samples.
    """
    theta = _check_theta(model, theta)
    _check_visible_dim(model, data.dim)
    rho = embed_target_state(data.rho, model.n_hidden)
    sigma, _ = gibbs_state(assemble_hamiltonian(model, theta))
    children = _seed_sequence(rng_seed).spawn(2 * model.n_terms)
    grad = np.empty(model.n_terms)
    for j, term in enumerate(model.terms):
        target_part = sampled_expectation(rho, term.matrix, n_samples, children[2 * j])
        gibbs_part = sampled_expectation(sigma, term.matrix, n_samples, children[2 * j + 1])
        grad[j] = gibbs_part - target_part
    return grad - _reg_grad(model, theta, lam)


def _monitor_and_gradient(model, data, config: OptimizerConfig, epoch_seeds):
    kind = config.gradient_kind
    if kind in ("gt", "exact", "commutator"):
        if not isinstance(data, PovmTrainingSet):
            raise ValueError(f"gradient kind {kind!r} trains on a PovmTrainingSet")

        def monitor(theta):
            return objective_povm_exact(model, theta, data, config.lam)

        if kind == "gt":
            def gradient(theta, epoch):
                return grad_povm_gt(model, theta, data, config.lam, config.clip)
        elif kind == "exact":
            def gradient(theta, epoch):
                return grad_povm_exact(model, theta, data, config.lam)
        else:
            def gradient(theta, epoch):
                return grad_povm_commutator(
                    model, theta, data, config.lam, config.commutator_order
                )
        return monitor, gradient

    if not isinstance(data, StateTrainingSet):
        raise ValueError(f"gradient kind {kind!r} trains on a StateTrainingSet")

    def monitor(theta):
        return objective_relent(model, theta, data, config.lam)

    if kind == "relent":
        def gradient(theta, epoch):
            return grad_relent(model, theta, data, config.lam)
    else:
        def gradient(theta, epoch):
            return grad_relent_sampled(
                model, theta, data, config.lam, config.n_samples, epoch_seeds[epoch]
            )
    return monitor, gradient


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
    settings).
    """
    theta = _check_theta(model, theta0).copy()
    epoch_seeds = _seed_sequence(rng_seed).spawn(config.epochs + 1)
    monitor, gradient = _monitor_and_gradient(model, data, config, epoch_seeds)

    trace = TrainingTrace()
    velocity = np.zeros_like(theta)
    start = time.perf_counter()
    for epoch in range(config.epochs + 1):
        # overflow in an unstable run shows up as a non-finite value below,
        # which is handled; the numpy warning would just be noise
        with np.errstate(over="ignore", invalid="ignore"):
            objective = monitor(theta)
            grad = gradient(theta, epoch)
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
                elapsed_s=time.perf_counter() - start,
            )
        )
        if epoch == config.epochs:
            break
        velocity = config.momentum * velocity + config.learning_rate * grad
        theta = theta + velocity
    if not trace.records:
        raise ValueError("training diverged before the first epoch completed")
    return trace
