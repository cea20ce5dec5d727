"""Seeded, config-driven experiment runners.

Each experiment reproduces one figure or check as plain data: percentile
curves as CSV, a JSON summary, and a manifest echoing the resolved
configuration. Runs are deterministic within one commit, numpy/BLAS build
and BLAS thread count: the same config and seed produce byte-identical
output files. Instances draw from per-instance seed splits, so neither
dispatch order, the split of an ensemble into lockstep chunks nor the
process pool of the relative-entropy ensembles (``jobs > 1``) changes more
than wall time. povm-train trains its grid in one process.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import os
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from . import __version__
from .datasets import (
    haar_random_pure,
    random_mixed,
    random_ti_teacher,
    step_distribution,
    step_function_state,
)
from .linalg import _eigh, _require_hermitian, fidelity
from .operators import (
    HamiltonianModel,
    assemble_hamiltonian,
    build_model,
    check_model_size,
)
from .serialize import matrix_to_pairs, write_csv, write_json
from .training import (
    CHUNK_ENTRIES,
    MAX_COMMUTATOR_ORDER,
    POVM_GRADIENT_KINDS,
    OptimizerConfig,
    PovmTrainingSet,
    StateTrainingSet,
    TrainingDiverged,
    _train_lockstep,
    child_seed,
    grad_povm_commutator,
    grad_povm_exact,
    grad_povm_gt,
    grad_relent,
    grad_relent_sampled,
    objective_povm_exact,
    objective_povm_gt,
    objective_relent,
    train,
)

__all__ = [
    "EXPERIMENTS",
    "EnsembleSummary",
    "ExperimentConfig",
    "gradcheck",
    "make_config",
    "parse_config_file",
    "percentile_curves",
    "run_commutator_compare",
    "run_experiment",
    "run_hamlearn",
    "run_meanfield",
    "run_povm_experiment",
    "run_tomography_ensemble",
    "run_variance_sweep",
]

PERCENTILE_LABELS = ("p2_5", "p5", "p50", "p95", "p97_5")
PERCENTILE_VALUES = (2.5, 5.0, 50.0, 95.0, 97.5)


@dataclass
class ExperimentConfig:
    """Settings every experiment reads, subclassed once per experiment.

    A subclass's fields are exactly the keys its runner reads, with the tuned
    defaults the acceptance checks run at. Grid-valued keys are comma-separated
    strings, so a config round-trips through a flat key = value file. Building
    a config checks every value (step keys through optimizer(), model sizes
    through models()), so a config that builds also runs.
    """

    experiment: ClassVar[str]  # set from EXPERIMENTS
    seed: int = 0
    out: Optional[str] = None

    def __post_init__(self):
        keys = _fields(self)
        for key, value in ((key, getattr(self, key)) for key in keys):
            if isinstance(value, float) and not np.isfinite(value):
                raise ValueError(f"{key} must be finite, got {value}")
            if key in ("ensemble", "jobs", "n_repeats") and value < 1:
                raise ValueError(f"{key} must be >= 1, got {value}")
            if key == "seed" and value < 0:
                raise ValueError(f"seed must be >= 0, got {value}")
        if "noise_p" in keys and not 0.0 <= self.noise_p < 0.5:
            raise ValueError(f"noise_p must lie in [0, 0.5), got {self.noise_p}")
        for key, allowed in (("povm_kind", ("projector", "basis")), ("target_kind", ("mixed", "pure"))):
            if key in keys and getattr(self, key) not in allowed:
                raise ValueError(f"{key} must be one of {allowed}, got {getattr(self, key)!r}")
        self.optimizer()
        for model in self.models():
            check_model_size(*model)

    def grid(self, key: str, kind: type = int) -> list:
        """The values of a comma-separated grid key; empty or unparsable is an error."""
        text = str(getattr(self, key))
        try:
            values = [kind(v) for v in text.split(",") if v.strip()]
        except ValueError:
            values = []
        if not values or not np.all(np.isfinite(values)):
            raise ValueError(f"{key} must list finite {kind.__name__}s by commas, got {text!r}")
        return values

    def models(self) -> list:
        """(family, n_visible, n_hidden) of every model the keys make the runner build."""
        return []

    def optimizer(self, **fixed) -> OptimizerConfig:
        """OptimizerConfig from the step keys this config has, with `fixed` on top."""
        steps = {key: getattr(self, key) for key in _fields(self) & _fields(OptimizerConfig)}
        return OptimizerConfig(**{**steps, **fixed})


def _fields(config) -> set:
    return {f.name for f in dataclasses.fields(config)}


def _coerce(key: str, raw: str, where: str = ""):
    text, kind = raw.strip(), _KEY_TYPES[key]
    if kind == "Optional[str]":
        return text or None
    try:
        return {"int": int, "float": float}.get(kind, str)(text)
    except ValueError:
        raise ValueError(f"{where}{key} must be {'an' if kind == 'int' else 'a'} {kind}, got {text!r}") from None


def parse_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are ignored. Values are coerced to the
    declared type of the key in the experiment configs; a key that no
    experiment reads is a KeyError. Every error begins with ``path:line:``.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = (part.strip() for part in stripped.partition("="))
            if key not in _KEY_TYPES:
                raise KeyError(f"{path}:{lineno}: unknown config key {key!r}")
            out[key] = _coerce(key, value, f"{path}:{lineno}: ")
    return out


def make_config(experiment: str, *overrides: dict) -> ExperimentConfig:
    """Resolve a config: the experiment's defaults, then each override mapping.

    Each value is coerced to the declared field type through its string
    form, so a value of the wrong type (2.5 for an int key) is a ValueError.
    A key that no experiment reads is a KeyError, a key only other
    experiments read a ValueError.
    """
    if experiment not in EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}; choose from {tuple(EXPERIMENTS)}")
    config_class = EXPERIMENTS[experiment][0]
    merged = {key: value for mapping in overrides for key, value in mapping.items()}
    unknown = sorted(merged.keys() - _KEY_TYPES.keys())
    if unknown:
        raise KeyError(f"unknown config key {unknown[0]!r}")
    ignored = sorted(merged.keys() - _fields(config_class))
    if ignored:
        raise ValueError(f"{experiment} does not read config key(s) {', '.join(ignored)}")
    return config_class(**{key: None if value is None else _coerce(key, str(value))
                            for key, value in merged.items()})


@dataclass
class EnsembleSummary:
    """Percentile curves of one tracked metric plus per-instance finals."""

    experiment: str
    metric: str
    curves: dict
    finals: np.ndarray
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        stacked = [np.asarray(self.curves[label]) for label in PERCENTILE_LABELS]
        for lo, hi in zip(stacked, stacked[1:]):
            if not np.all(lo <= hi + 1e-9 * (1.0 + np.abs(hi))):
                raise ValueError("percentile curves are not pointwise ordered")


def _summary(config: ExperimentConfig, metric: str, stacked: np.ndarray, **extras) -> EnsembleSummary:
    """The summary of per-instance curves of one metric, stacked as rows."""
    return EnsembleSummary(config.experiment, metric, percentile_curves(stacked), stacked[:, -1], extras)


def percentile_curves(values: np.ndarray) -> dict:
    """Pointwise percentile curves over instances (rows)."""
    values = np.asarray(values, dtype=float)
    levels = np.percentile(values, PERCENTILE_VALUES, axis=0)
    return {label: levels[i] for i, label in enumerate(PERCENTILE_LABELS)}


def _percentile_csv(key_names: tuple, curves_by_key: dict, epochs: int) -> tuple:
    """(header, rows) of a curves.csv: key + (epoch, p2_5, ..., p97_5) per key and epoch."""
    rows = [
        key + (e,) + tuple(curves[label][e] for label in PERCENTILE_LABELS)
        for key, curves in curves_by_key.items()
        for e in range(epochs + 1)
    ]
    return key_names + ("epoch",) + PERCENTILE_LABELS, rows


def _map_instances(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # here: a run without a pool loads no multiprocessing
    # a fork pool starts all its workers at the first submit
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        return list(pool.map(fn, items))


def _pad_curve(values: np.ndarray, length: int) -> np.ndarray:
    """Extend a (possibly aborted) trace curve to full length.

    A diverged run keeps its last valid value for the remaining epochs so
    ensemble percentile stacks stay rectangular.
    """
    values = np.asarray(values, dtype=float)
    if values.size >= length:
        return values[:length]
    return np.concatenate([values, np.full(length - values.size, values[-1])])


def finite_difference_gradient(objective, theta: np.ndarray, step: float = 1e-6):
    """Central-difference gradient of an objective that takes a (B, n) theta stack.

    objective is called once, on the 2n points theta + step e_j and then
    theta - step e_j, and must return their (2n,) values, as the training
    objectives do for a stack. Each point is formed as theta plus or minus
    the bump vector step e_j, so the gradient is bit for bit the loop of 2n
    single calls.
    """
    theta = np.asarray(theta, dtype=float)
    bumps = step * np.eye(theta.size)
    values = objective(np.concatenate([theta + bumps, theta - bumps]))
    return (values[: theta.size] - values[theta.size :]) / (2 * step)


# ---------------------------------------------------------------------------
# POVM generative-fit grid (quantum vs classical)


POVM_FAMILIES = ("fermionic", "classical_bm")  # quantum, then classical


@dataclass
class PovmTrainConfig(ExperimentConfig):
    n_visible_grid: str = "3,4,5"
    n_hidden_grid: str = "0,1,2"
    povm_kind: str = "projector"
    noise_p: float = 0.1
    theta0_scale: float = 0.01
    gradient_kind: str = "gt"
    learning_rate: float = 0.2
    momentum: float = 0.0
    epochs: int = 200
    lam: float = 0.0
    commutator_order: int = 5

    def __post_init__(self):
        super().__post_init__()
        if self.gradient_kind not in POVM_GRADIENT_KINDS:
            raise ValueError(f"povm-train trains on POVM statistics; gradient_kind must be "
                             f"one of {POVM_GRADIENT_KINDS}, got {self.gradient_kind!r}")
        if self.gradient_kind != "commutator" and self.commutator_order != PovmTrainConfig.commutator_order:
            raise ValueError(f"povm-train reads commutator_order only with gradient_kind=commutator, "
                             f"not {self.gradient_kind!r}")

    def models(self) -> list:
        return [(family, nv, nh) for nv in self.grid("n_visible_grid")
                for nh in self.grid("n_hidden_grid") for family in POVM_FAMILIES]


def _step_povm(n_visible: int, noise_p: float, povm_kind: str) -> PovmTrainingSet:
    if povm_kind == "projector":
        _, povm, _ = step_function_state(n_visible, noise_p)
        return povm
    # Basis-projector statistics: classical data, a diagonal Gibbs state
    # can fit it exactly.
    q = step_distribution(n_visible, noise_p)
    dim = q.size
    elements = tuple(np.diag(np.eye(dim)[x]).astype(complex) for x in range(dim))
    return PovmTrainingSet(elements=elements, probabilities=q)


def _max_objective(povm: PovmTrainingSet) -> float:
    probs = povm.probabilities
    mask = probs > 0
    return float(np.sum(probs[mask] * np.log(probs[mask])))


def run_povm_experiment(config: PovmTrainConfig):
    """Fermionic vs classical generative fit on the step-function target.

    Trains both models at every (n_visible, n_hidden) grid point and tracks
    the exact objective; the reported curve is the shortfall from the
    entropy-limited maximum, ``delta = max_objective - objective``.
    """
    grid = [(nv, nh) for nv in config.grid("n_visible_grid") for nh in config.grid("n_hidden_grid")]
    opt = config.optimizer()
    # The data depend on n_visible only: one set per n_visible serves both
    # branches of every grid point, so its padded elements and GT logarithms
    # are built once per (n_visible, n_hidden).
    povms = {nv: _step_povm(nv, config.noise_p, config.povm_kind)
             for nv in set(config.grid("n_visible_grid"))}

    rows = []
    points = []
    quantum_curves = []
    for idx, (nv, nh) in enumerate(grid):
        # The entropy-limited maximum depends on the target statistics,
        # hence on n_visible in basis mode (it is 0 in projector mode).
        o_max = _max_objective(povms[nv])
        branches = []
        for branch, family in enumerate(POVM_FAMILIES):
            model = build_model(family, nv, nh)
            rng = np.random.default_rng(child_seed(config.seed, idx, branch))
            trace = train(model, config.theta0_scale * rng.standard_normal(model.n_terms), povms[nv], opt)
            branches.append((_pad_curve(trace.objectives, opt.epochs + 1), bool(trace.diverged)))
        (q_curve, q_div), (c_curve, c_div) = branches
        quantum_curves.append(o_max - q_curve)
        points.append(
            dict(
                n_visible=nv,
                n_hidden=nh,
                final_quantum=float(q_curve[-1]),
                final_classical=float(c_curve[-1]),
                final_delta_quantum=float(o_max - q_curve[-1]),
                final_delta_classical=float(o_max - c_curve[-1]),
                diverged_quantum=q_div,
                diverged_classical=c_div,
            )
        )
        for label, curve in zip(POVM_FAMILIES, (q_curve, c_curve)):
            for e in range(opt.epochs + 1):
                rows.append((nv, nh, label, e, curve[e], o_max - curve[e]))

    quantum_curves = np.asarray(quantum_curves)
    summary = _summary(
        config,
        "delta_objective",
        quantum_curves,
        grid=points,
        quantum_beats_classical=all(p["final_quantum"] >= p["final_classical"] for p in points),
    )
    files = {
        "curves.csv": (
            ("n_visible", "n_hidden", "model", "epoch", "objective", "delta_objective"),
            rows,
        ),
        "summary.json": dict(experiment=config.experiment, metric=summary.metric, **summary.extras),
    }
    return summary, files


# ---------------------------------------------------------------------------
# Relative-entropy ensembles (tomography, hamlearn, meanfield)


@dataclass
class RelentEnsembleConfig(ExperimentConfig):
    """Keys every relative-entropy ensemble reads: its size, workers and ascent steps."""

    ensemble: int = 50
    jobs: int = 1
    learning_rate: float = 1.0
    momentum: float = 0.0
    epochs: int = 100


def _frobenius_norm(A: np.ndarray) -> float:
    """||A||_F; if the squares of A's entries overflow, retaken after an exact power-of-two rescaling."""
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(A))
    if norm == np.inf and np.isfinite(A).all():
        unit = np.ldexp(1.0, -np.frexp(np.abs(A).max())[1])
        norm = float(np.linalg.norm(A * unit)) / unit
    return norm


def _relent_task(setup, fixed: tuple, root: int, opt: OptimizerConfig, indices: list) -> list:
    """Train instances ``indices`` of an ensemble on models built once, in lockstep chunks.

    ``setup(*fixed)`` returns ``(model, draw)``; ``draw(rng)`` draws the
    ``(theta0, target, theta_true)`` rows of instance i from its stream
    child_seed(root, i). All rows form one lazy stream, trained in consecutive
    chunks of max(1, CHUNK_ENTRIES // dim^2) rows. Returns per row, in order,
    the padded curves by name (``s`` = S(rho || sigma), ``overlap`` =
    Tr(rho sigma), and ``dh`` = ||H - H_true||_F if there is a teacher
    theta_true), the (target, final state) pair (None with a teacher, whose
    row is scored by dh alone) and the diverged flag.
    """
    model, draw = setup(*fixed)
    rows = itertools.chain.from_iterable(draw(np.random.default_rng(child_seed(root, i))) for i in indices)
    per_chunk, results = max(1, CHUNK_ENTRIES // model.dim**2), []
    while chunk := list(itertools.islice(rows, per_chunk)):
        theta0, targets, theta_trues = zip(*chunk)
        traces, states = _train_lockstep(model, theta0, targets, [opt] * len(chunk))
        for trace, target, state, theta_true in zip(traces, targets, states, theta_trues):
            curves = dict(s=-trace.objectives, overlap=[r.overlap for r in trace.records])
            if theta_true is not None:
                # H is linear in theta: H(th) - H(theta_true) = H(th - theta_true)
                curves["dh"] = [_frobenius_norm(assemble_hamiltonian(model, th - theta_true)) for th in trace.thetas]
            curves = {name: _pad_curve(values, opt.epochs + 1) for name, values in curves.items()}
            results.append((curves, None if theta_true is not None else (target.rho, state), bool(trace.diverged)))
    return results


def _relent_ensemble(config: RelentEnsembleConfig, setup, *fixed):
    """Run config.ensemble seeded instances of ``setup(*fixed)`` (see _relent_task).

    The instances split into min(jobs, ensemble) contiguous tasks, which the
    pool runs; a worker receives seeds and settings, never models. Returns the
    curves stacked by name and the lists of (target, final state) pairs (None
    for a teacher's row) and diverged flags, one entry each per drawn row.
    """
    task = functools.partial(_relent_task, setup, fixed, config.seed, config.optimizer(gradient_kind="relent"))
    splits = np.array_split(np.arange(config.ensemble), min(config.jobs, config.ensemble))
    results = [r for rows in _map_instances(task, [split.tolist() for split in splits], config.jobs) for r in rows]
    curves = {name: np.asarray([r[0][name] for r in results]) for name in results[0][0]}
    return curves, [r[1] for r in results], [r[2] for r in results]


@dataclass
class TomographyConfig(RelentEnsembleConfig):
    ensemble: int = 100
    n_visible: int = 2
    target_kind: str = "mixed"

    def models(self) -> list:
        return [("pauli_complete", self.n_visible, 0)]


def _tomography_setup(n_visible: int, target_kind: str):
    model = build_model("pauli_complete", n_visible)
    draw_target = random_mixed if target_kind == "mixed" else haar_random_pure
    return model, lambda rng: [(np.zeros(model.n_terms), draw_target(n_visible, rng), None)]


def run_tomography_ensemble(config: TomographyConfig):
    """Reconstruct random states from full density-matrix data.

    Each instance trains a complete-Pauli-set model by relative-entropy
    ascent from theta = 0 (the uniform state) and tracks S(rho || sigma)
    per epoch; the divergence equals minus the monitored objective at
    lam = 0.
    """
    curves, states, diverged = _relent_ensemble(
        config, _tomography_setup, config.n_visible, config.target_kind)
    finals = curves["s"][:, -1]
    summary = _summary(
        config,
        "relative_entropy",
        curves["s"],
        target_kind=config.target_kind,
        median_final=float(np.median(finals)),
        finals=[float(v) for v in finals],
        n_diverged=sum(diverged),
    )
    reconstructions = [
        dict(instance=i, target=matrix_to_pairs(rho), reconstruction=matrix_to_pairs(sigma))
        for i, (rho, sigma) in enumerate(states)
    ]
    files = {
        "curves.csv": _percentile_csv((), {(): summary.curves}, config.epochs),
        "summary.json": dict(experiment=config.experiment, metric=summary.metric, **summary.extras),
        "reconstructions.json": reconstructions,
    }
    return summary, files


# ---------------------------------------------------------------------------
# Hamiltonian learning (normalized vs unnormalized teachers)


@dataclass
class HamlearnConfig(RelentEnsembleConfig):
    n_visible: int = 2
    theta0_scale: float = 0.01

    def models(self) -> list:
        return [("ti_complete", self.n_visible, 0)]


def _hamlearn_setup(n_visible: int, theta0_scale: float):
    model = build_model("ti_complete", n_visible)  # the teachers' family is the student's

    def draw(rng):
        # one teacher draw and solve gives both rows, normalized then raw, and one theta0
        teachers = random_ti_teacher(model, (True, False), rng)
        theta0 = theta0_scale * rng.standard_normal(model.n_terms)
        return [(theta0, target, theta_true) for theta_true, target in teachers]

    return model, draw


def run_hamlearn(config: HamlearnConfig):
    """Learn random transverse-field Ising teachers from their Gibbs states.

    Each instance draws one raw unit-variance Gaussian teacher and learns
    it twice, as two rows of one lockstep run from one start: rescaled to
    unit spectral norm, and raw. Tracks the divergence S(rho || sigma) and
    the Frobenius distance between the true and estimated Hamiltonians.
    """
    curves, _, diverged = _relent_ensemble(config, _hamlearn_setup, config.n_visible, config.theta0_scale)
    variants = {}
    for v, name in enumerate(("normalized", "unnormalized")):  # the rows of an instance
        s, dh = curves["s"][v::2], curves["dh"][v::2]
        variants[name] = dict(
            s=percentile_curves(s),
            dh=percentile_curves(dh),
            s_finals=s[:, -1],
            median_final_s=float(np.median(s[:, -1])),
            median_final_dh=float(np.median(dh[:, -1])),
            n_diverged=sum(diverged[v::2]),
        )

    summary = _summary(config, "relative_entropy", curves["s"][0::2], **variants)  # the normalized rows
    curves_by_key = {
        (name, metric): data[metric] for name, data in variants.items() for metric in ("s", "dh")
    }
    medians = {
        f"median_final_{metric}_{name}": data[f"median_final_{metric}"]
        for name, data in variants.items()
        for metric in ("s", "dh")
    }
    files = {
        "curves.csv": _percentile_csv(("variant", "metric"), curves_by_key, config.epochs),
        "summary.json": dict(experiment=config.experiment, n_visible=config.n_visible, **medians),
    }
    return summary, files


# ---------------------------------------------------------------------------
# Mean-field approximation quality


@dataclass
class MeanfieldConfig(RelentEnsembleConfig):
    n_visible: int = 5
    momentum: float = 0.3

    def models(self) -> list:
        return [("ti_complete", self.n_visible, 0), ("mean_field", self.n_visible, 0)]


def _meanfield_setup(n_visible: int):
    teachers = build_model("ti_complete", n_visible)
    model = build_model("mean_field", n_visible)  # the student
    return model, lambda rng: [(np.zeros(model.n_terms), random_ti_teacher(teachers, (False,), rng)[0][1], None)]


def run_meanfield(config: MeanfieldConfig):
    """Train product (mean-field) models against full Ising Gibbs states.

    Teachers are unit-variance Gaussian transverse-field Ising instances;
    the student has only single-qubit X, Y, Z terms. Tracks the divergence
    and the overlap Tr(rho sigma) per epoch; the first instance's target
    and final model state are emitted for bar-style plots.

    ``extras["median_final_fidelity"]`` is the median Uhlmann fidelity
    F(rho, sigma) of the final states. Unlike Tr(rho sigma), which a
    perfect fit sigma = rho scores at the target's purity Tr(rho^2), F is
    1 exactly for a perfect fit, so it measures the quality of the fit
    rather than how mixed the teacher is. It stays out of the output
    files.
    """
    curves, states, diverged = _relent_ensemble(config, _meanfield_setup, config.n_visible)
    overlap_pct = percentile_curves(curves["overlap"])
    summary = _summary(
        config,
        "relative_entropy",
        curves["s"],
        overlap=overlap_pct,
        median_final_overlap=float(np.median(curves["overlap"][:, -1])),
        median_final_fidelity=float(np.median([fidelity(rho, sigma) for rho, sigma in states])),
        median_final_s=float(np.median(curves["s"][:, -1])),
        n_diverged=sum(diverged),
    )
    files = {
        "curves.csv": _percentile_csv(
            ("metric",), {("s",): summary.curves, ("overlap",): overlap_pct}, config.epochs),
        "summary.json": dict(
            experiment=config.experiment,
            n_visible=config.n_visible,
            median_final_s=summary.extras["median_final_s"],
            median_final_overlap=summary.extras["median_final_overlap"],
        ),
        "instance_matrices.json": dict(
            target=matrix_to_pairs(states[0][0]),
            model_state=matrix_to_pairs(states[0][1]),
        ),
    }
    return summary, files


# ---------------------------------------------------------------------------
# Golden-Thompson vs commutator training schedules


@dataclass
class CommutatorCompareConfig(ExperimentConfig):
    family: str = "fermionic"
    n_visible: int = 4
    n_hidden: int = 0
    povm_kind: str = "projector"
    noise_p: float = 0.1
    theta0_scale: float = 0.01
    learning_rate: float = 0.1
    momentum: float = 0.0
    epochs: int = 200
    # Regularization keeps the trained Hamiltonian inside the commutator
    # series' convergence region; without it the order-5 phase ascends a
    # badly truncated gradient and schedule B loses to plain bound training.
    lam: float = 0.2
    commutator_order: int = 5
    switch_fraction: float = 0.5
    eta_grid: str = "0.01,0.05,0.1,0.5,1"
    momentum_grid: str = "0,0.5,0.9"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.switch_fraction < 1.0:
            raise ValueError("switch_fraction must lie in (0, 1)")
        if self.switch_epoch >= self.epochs:
            raise ValueError(f"switch_fraction {self.switch_fraction} switches at epoch "
                             f"{self.switch_epoch} of {self.epochs}, not before the last")
        if min(self.grid("eta_grid", float)) <= 0:
            raise ValueError("eta_grid values must be positive")
        for mu in self.grid("momentum_grid", float):
            self.optimizer(momentum=mu)

    @property
    def switch_epoch(self) -> int:  # where schedule B switches to the commutator gradient
        return max(1, round(self.switch_fraction * self.epochs))

    def models(self) -> list:
        return [(self.family, self.n_visible, self.n_hidden)]


def run_commutator_compare(config: CommutatorCompareConfig):
    """Compare three training schedules on the step-function POVM task.

    A: bound-based gradients throughout. B: the same, switching to the
    commutator gradient at ``switch_fraction`` of the epochs (momentum
    resets at the switch). C: bound-based gradients with grid-searched
    learning rate and momentum, selected by final exact objective. All
    three start from the same parameters and are monitored with the exact
    objective.
    """
    data = _step_povm(config.n_visible, config.noise_p, config.povm_kind)
    model = build_model(config.family, config.n_visible, config.n_hidden)
    rng = np.random.default_rng(child_seed(config.seed, 0))
    theta0 = config.theta0_scale * rng.standard_normal(model.n_terms)

    total, first = config.epochs, config.switch_epoch

    # A and every distinct (eta, mu) of C's grid are rows of one GT run; A is the row with A's settings
    opt_a = config.optimizer(gradient_kind="gt", epochs=total)
    grid = [(eta, mu, config.optimizer(gradient_kind="gt", learning_rate=eta, momentum=mu, epochs=total))
            for eta in config.grid("eta_grid", float) for mu in config.grid("momentum_grid", float)]
    opts = list(dict.fromkeys([opt_a] + [opt for *_, opt in grid]))
    traces, _ = _train_lockstep(model, np.tile(theta0, (len(opts), 1)), data, opts)
    curves = {opt: _pad_curve(trace.objectives, total + 1) for opt, trace in zip(opts, traces)}
    trace_a, curve_a = traces[0], curves[opt_a]

    # B's first phase is A's run up to epoch `first`, record for record; if A stopped before
    # the switch, B is A. B's curve holds its last value from where it diverged.
    curve_b, diverged_b = curve_a, trace_a.diverged
    if len(trace_a.records) > first:
        opt_b2 = config.optimizer(gradient_kind="commutator", epochs=total - first)
        try:
            trace_b2 = train(model, trace_a.records[first].theta, data, opt_b2)
        except TrainingDiverged:  # the commutator gradient is not finite at A's switch theta
            tail, diverged_b = [], True
        else:
            tail, diverged_b = trace_b2.objectives[1:], trace_b2.diverged
        curve_b = _pad_curve(np.concatenate([trace_a.objectives[: first + 1], tail]), total + 1)

    runs = [(eta, mu, curves[opt]) for eta, mu, opt in grid]
    # the first run with the best final objective
    best_eta, best_mu, curve_c = max(runs, key=lambda run: run[2][-1])
    grid_rows = [(eta, mu, float(curve[-1])) for eta, mu, curve in runs]

    summary = _summary(
        config,
        "objective_exact",
        np.asarray([curve_a, curve_b, curve_c]),
        final_a=float(curve_a[-1]),
        final_b=float(curve_b[-1]),
        final_c=float(curve_c[-1]),
        switch_epoch=first,
        best_eta=best_eta,
        best_momentum=best_mu,
        diverged_b=bool(diverged_b),
    )
    rows = [(e, curve_a[e], curve_b[e], curve_c[e]) for e in range(total + 1)]
    files = {
        "curves.csv": (("epoch", "objective_a", "objective_b", "objective_c"), rows),
        "grid.csv": (("eta", "momentum", "final_objective"), grid_rows),
        "summary.json": dict(experiment=config.experiment, **summary.extras),
    }
    return summary, files


# ---------------------------------------------------------------------------
# Gradient verification


GRADCHECK_TOLERANCES = {"gt": 1e-5, "exact": 1e-6, "commutator": 1e-5, "relent": 1e-6}

# Small fixed sizes, at most 3 qubits, hidden units exercised where the
# family supports them.
GRADCHECK_SIZES = {
    "classical_bm": (2, 1),
    "ti_complete": (3, 0),
    "pauli_complete": (2, 0),
    "mean_field": (3, 0),
    "fermionic": (3, 0),
}

# Random instances per family and kept orders of the commutator order sweep.
KSWEEP_INSTANCES = 5
KSWEEP_ORDERS = tuple(range(1, 9))


def _random_full_rank_povm(dim: int, rng: np.random.Generator) -> PovmTrainingSet:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    bulk = raw @ raw.conj().T
    bulk /= _eigh(_require_hermitian(bulk), vectors=False)[-1]
    first = 0.1 * np.eye(dim) + 0.8 * bulk
    p = rng.uniform(0.2, 0.8)
    return PovmTrainingSet(
        elements=(first, np.eye(dim) - first),
        probabilities=np.array([p, 1.0 - p]),
    )


def _scaled_theta(model: HamiltonianModel, rng: np.random.Generator) -> np.ndarray:
    theta = rng.standard_normal(model.n_terms)
    return theta / np.linalg.norm(assemble_hamiltonian(model, theta), 2)


def _family_key(family: str) -> int:
    # Stable across runs and processes (the builtin hash is salted).
    return sum((i + 1) * ord(c) for i, c in enumerate(family)) % (2**31)


@dataclass
class GradcheckConfig(ExperimentConfig):
    ensemble: int = 100
    lam: float = 0.3


def gradcheck(config: GradcheckConfig):
    """Verify every analytic gradient kind against finite differences.

    For each family the check draws random unit-spectral-norm parameter
    vectors and random full-rank data, compares each gradient kind to a
    central-difference gradient of its monitored objective (the commutator
    kind is evaluated at the maximum order, where the series is converged),
    and sweeps the commutator truncation order against the exact gradient.
    The report does not depend on any optimizer setting.
    """
    lam = config.lam
    table = []
    all_ok = True
    for family, (nv, nh) in GRADCHECK_SIZES.items():
        model = build_model(family, nv, nh)
        rng = np.random.default_rng(child_seed(config.seed, _family_key(family)))
        worst = {kind: 0.0 for kind in GRADCHECK_TOLERANCES}
        for _ in range(config.ensemble):
            theta = _scaled_theta(model, rng)
            povm = _random_full_rank_povm(2**nv, rng)
            state = random_mixed(nv, rng)

            analytic = dict(
                gt=grad_povm_gt(model, theta, povm, lam),
                exact=grad_povm_exact(model, theta, povm, lam),
                commutator=grad_povm_commutator(model, theta, povm, lam, order=MAX_COMMUTATOR_ORDER),
                relent=grad_relent(model, theta, state, lam),
            )
            fd = dict(
                gt=finite_difference_gradient(lambda t: objective_povm_gt(model, t, povm, lam), theta),
                exact=finite_difference_gradient(lambda t: objective_povm_exact(model, t, povm, lam), theta),
                relent=finite_difference_gradient(lambda t: objective_relent(model, t, state, lam), theta),
            )
            fd["commutator"] = fd["exact"]  # the same objective, differenced once
            for kind in GRADCHECK_TOLERANCES:
                rel = np.linalg.norm(analytic[kind] - fd[kind]) / max(np.linalg.norm(fd[kind]), 1e-300)
                worst[kind] = max(worst[kind], float(rel))
        for kind, tolerance in GRADCHECK_TOLERANCES.items():
            ok = worst[kind] <= tolerance
            all_ok = all_ok and ok
            table.append(
                dict(
                    family=family,
                    kind=kind,
                    max_rel_error=worst[kind],
                    tolerance=tolerance,
                    ok=ok,
                )
            )

    ksweep = commutator_order_sweep(config.seed)
    report = dict(table=table, ksweep=ksweep, ok=bool(all_ok))
    rows = [
        (r["family"], r["kind"], r["max_rel_error"], r["tolerance"], r["ok"])
        for r in table
    ]
    files = {
        "report.json": report,
        "table.csv": (("family", "kind", "max_rel_error", "tolerance", "ok"), rows),
    }
    return report, files


def commutator_order_sweep(seed: int) -> dict:
    """Truncation error of the commutator series against the exact gradient.

    Sweeps the kept order over KSWEEP_ORDERS on KSWEEP_INSTANCES random
    unit-spectral-norm instances of each of three non-commuting families.
    The first step (order 1 to 2) systematically worsens the real-projected
    estimate by a factor approaching 2: the dropped first-order term cancels
    half of the second-order term in the small-field limit, so only orders
    >= 2 decrease monotonically.
    """
    per_instance = []
    for fi, (family, nv) in enumerate((("ti_complete", 3), ("pauli_complete", 2), ("fermionic", 3))):
        model = build_model(family, nv, 0)
        rng = np.random.default_rng(child_seed(seed, 1000 + fi))
        for _ in range(KSWEEP_INSTANCES):
            theta = _scaled_theta(model, rng)
            povm = _random_full_rank_povm(2**nv, rng)
            exact = grad_povm_exact(model, theta, povm)
            norm = np.linalg.norm(exact)
            errs = [
                float(np.linalg.norm(
                    grad_povm_commutator(model, theta, povm, order=k) - exact
                ) / norm)
                for k in KSWEEP_ORDERS
            ]
            per_instance.append(errs)
    per_instance = np.asarray(per_instance)
    mean_errors = per_instance.mean(axis=0)
    monotone = bool(np.all(per_instance[:, 2:] < per_instance[:, 1:-1]))
    return dict(
        orders=list(KSWEEP_ORDERS),
        mean_errors=[float(v) for v in mean_errors],
        monotone_from_2=monotone,
        first_step_ratio=float(np.mean(per_instance[:, 1] / per_instance[:, 0])),
    )


# ---------------------------------------------------------------------------
# Sampled-gradient variance sweep


@dataclass
class VarianceSweepConfig(ExperimentConfig):
    n_visible: int = 2
    n_samples_grid: str = "64,128,256,512,1024"
    n_repeats: int = 40

    def __post_init__(self):
        super().__post_init__()
        counts = self.grid("n_samples_grid")
        if min(counts) < 1 or len(set(counts)) < 2:
            raise ValueError("n_samples_grid needs two or more distinct sample counts, all >= 1")

    def models(self) -> list:
        return [("mean_field", self.n_visible, 0), ("mean_field", 2 * self.n_visible, 0)]


def run_variance_sweep(config: VarianceSweepConfig):
    """Mean squared error of the sampled gradient vs sample count.

    Fixes one small product model and one with twice the term count,
    estimates E||G - G_true||^2 at each sample count over repeated draws,
    and fits the log-log slope. The theory predicts slope -1 and an MSE
    proportional to the number of terms at fixed sample count.
    """
    n = config.n_visible
    rng = np.random.default_rng(child_seed(config.seed, 0))
    small = build_model("mean_field", n)
    big = build_model("mean_field", 2 * n)
    theta_small = 0.3 * rng.standard_normal(small.n_terms)
    theta_big = 0.3 * rng.standard_normal(big.n_terms)
    rho_a = random_mixed(n, rng)
    rho_b = random_mixed(n, rng)
    state_small = rho_a
    state_big = StateTrainingSet(rho=np.kron(rho_a.rho, rho_b.rho))

    true_small = grad_relent(small, theta_small, state_small)
    true_big = grad_relent(big, theta_big, state_big)

    grid = config.grid("n_samples_grid")
    mse = {"small": [], "big": []}
    for gi, n_samples in enumerate(grid):
        for mi, (label, model, theta, state, true) in enumerate((
            ("small", small, theta_small, state_small, true_small),
            ("big", big, theta_big, state_big, true_big),
        )):
            errors = []
            for r in range(config.n_repeats):
                seed_seq = child_seed(config.seed, 2, mi, gi, r)
                sampled = grad_relent_sampled(model, theta, state, n_samples=n_samples, rng_seed=seed_seq)
                errors.append(float(np.sum((sampled - true) ** 2)))
            mse[label].append(float(np.mean(errors)))

    log_n = np.log(np.asarray(grid, dtype=float))
    slope, intercept = np.polyfit(log_n, np.log(np.asarray(mse["small"])), 1)
    ratios = np.asarray(mse["big"]) / np.asarray(mse["small"])
    report = dict(
        n_samples=grid,
        mse_small=mse["small"],
        mse_big=mse["big"],
        slope=float(slope),
        intercept=float(intercept),
        ratio_mean=float(np.mean(ratios)),
        n_terms_small=small.n_terms,
        n_terms_big=big.n_terms,
    )
    rows = [
        (grid[i], mse["small"][i], mse["big"][i], float(ratios[i]))
        for i in range(len(grid))
    ]
    files = {
        "variance.csv": (("n_samples", "mse_small", "mse_big", "ratio"), rows),
        "summary.json": report,
    }
    return report, files


# ---------------------------------------------------------------------------
# Dispatch and output


# Experiment name -> (config class, runner), in CLI order.
EXPERIMENTS = {
    "povm-train": (PovmTrainConfig, run_povm_experiment),
    "tomography": (TomographyConfig, run_tomography_ensemble),
    "hamlearn": (HamlearnConfig, run_hamlearn),
    "meanfield": (MeanfieldConfig, run_meanfield),
    "commutator-compare": (CommutatorCompareConfig, run_commutator_compare),
    "gradcheck": (GradcheckConfig, gradcheck),
    "variance-sweep": (VarianceSweepConfig, run_variance_sweep),
}
for _name, (_config_class, _) in EXPERIMENTS.items():
    _config_class.experiment = _name
# Key -> declared type, over every key some experiment reads.
_KEY_TYPES = {f.name: f.type for config_class, _ in EXPERIMENTS.values()
              for f in dataclasses.fields(config_class)}


def run_experiment(config: ExperimentConfig):
    """Run one experiment; write its files and manifest if config.out is set.

    The manifest holds the experiment, tool version, seed and config: every
    key the experiment reads, so only settings that took effect. A runner
    returns (result, files); in files a ``.csv`` name maps to (header, rows)
    and any other name to a JSON payload. config.out is made before the run.
    Returns the in-memory result (an EnsembleSummary or a report dict).
    """
    if config.out:
        os.makedirs(config.out, exist_ok=True)
    result, files = EXPERIMENTS[config.experiment][1](config)
    if config.out:
        manifest = dict(experiment=config.experiment, version=__version__, seed=config.seed,
                        config=dataclasses.asdict(config))
        for name, payload in {"manifest.json": manifest, **files}.items():
            path = os.path.join(config.out, name)
            if name.endswith(".csv"):
                write_csv(path, *payload)
            else:
                write_json(path, payload)
    return result
