"""Seeded, config-driven experiment runners.

Each experiment reproduces one figure or check as plain data: percentile
curves as CSV, a JSON summary, and a manifest echoing the resolved
configuration. Runs are deterministic: the same config and seed produce
byte-identical output files. Ensemble instances derive their generators
from per-instance seed splits, so results do not depend on dispatch order
and instance-level parallelism (``jobs > 1``) changes nothing but wall time.
"""

from __future__ import annotations

import dataclasses
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .datasets import (
    haar_random_pure,
    random_mixed,
    random_ti_teacher,
    split_seeds,
    step_distribution,
    step_function_state,
)
from .linalg import expectation_value, fidelity, gibbs_state
from .operators import (
    HamiltonianModel,
    assemble_hamiltonian,
    build_model,
)
from .serialize import matrix_to_pairs, write_csv, write_json
from .training import (
    GRADIENT_KINDS,
    MAX_COMMUTATOR_ORDER,
    POVM_GRADIENT_KINDS,
    OptimizerConfig,
    PovmTrainingSet,
    StateTrainingSet,
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
    "DEFAULTS",
    "EXPERIMENTS",
    "EnsembleSummary",
    "ExperimentConfig",
    "READS",
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

EXPERIMENTS = (
    "povm-train",
    "tomography",
    "hamlearn",
    "meanfield",
    "commutator-compare",
    "gradcheck",
    "variance-sweep",
)

PERCENTILE_LABELS = ("p2_5", "p5", "p50", "p95", "p97_5")
PERCENTILE_VALUES = (2.5, 5.0, 50.0, 95.0, 97.5)

MODEL_FAMILIES = (
    "classical_bm",
    "fermionic",
    "ti_complete",
    "pauli_complete",
    "mean_field",
)


@dataclass
class ExperimentConfig:
    """Flat configuration for every experiment.

    Each experiment reads only some keys (see READS); make_config rejects
    any other key set explicitly. Grid-valued keys are comma-separated
    strings so the whole config round-trips through a flat key=value file.
    """

    experiment: str
    seed: int = 0
    out: Optional[str] = None
    ensemble: int = 100
    jobs: int = 1
    family: str = "fermionic"
    n_visible: int = 2
    n_hidden: int = 0
    learning_rate: float = 0.1
    momentum: float = 0.0
    epochs: int = 100
    lam: float = 0.0
    gradient_kind: str = "exact"
    commutator_order: int = 5
    noise_p: float = 0.1
    target_kind: str = "mixed"
    povm_kind: str = "projector"
    theta0_scale: float = 0.01
    n_visible_grid: str = "3,4,5"
    n_hidden_grid: str = "0,1,2"
    switch_fraction: float = 0.5
    eta_grid: str = "0.01,0.05,0.1,0.5,1"
    momentum_grid: str = "0,0.5,0.9"
    n_samples_grid: str = "64,128,256,512,1024"
    n_repeats: int = 40

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.ensemble < 1:
            raise ValueError("ensemble must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.family not in MODEL_FAMILIES:
            raise ValueError(f"unknown model family {self.family!r}")
        if self.gradient_kind not in GRADIENT_KINDS:
            raise ValueError(f"unknown gradient kind {self.gradient_kind!r}")
        if self.experiment == "povm-train" and self.gradient_kind not in POVM_GRADIENT_KINDS:
            raise ValueError(
                f"povm-train trains on POVM statistics; gradient_kind must be one of "
                f"{POVM_GRADIENT_KINDS}, got {self.gradient_kind!r}"
            )
        if self.target_kind not in ("mixed", "pure"):
            raise ValueError("target_kind must be 'mixed' or 'pure'")
        if self.povm_kind not in ("projector", "basis"):
            raise ValueError("povm_kind must be 'projector' or 'basis'")
        if not 0.0 < self.switch_fraction < 1.0:
            raise ValueError("switch_fraction must lie in (0, 1)")

    def optimizer(self, **overrides) -> OptimizerConfig:
        kwargs = dict(
            gradient_kind=self.gradient_kind,
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            epochs=self.epochs,
            lam=self.lam,
            commutator_order=self.commutator_order,
        )
        kwargs.update(overrides)
        return OptimizerConfig(**kwargs)


# Per-experiment default overrides, applied before config files and CLI
# flags. These are the tuned settings the acceptance checks run at.
DEFAULTS = {
    "povm-train": dict(
        family="fermionic",
        gradient_kind="gt",
        learning_rate=0.2,
        momentum=0.0,
        epochs=200,
        lam=0.0,
    ),
    "tomography": dict(
        family="pauli_complete",
        gradient_kind="relent",
        learning_rate=1.0,
        epochs=100,
        n_visible=2,
        ensemble=100,
    ),
    "hamlearn": dict(
        family="ti_complete",
        gradient_kind="relent",
        learning_rate=1.0,
        epochs=100,
        n_visible=2,
        ensemble=50,
    ),
    "meanfield": dict(
        family="mean_field",
        gradient_kind="relent",
        learning_rate=1.0,
        momentum=0.3,
        epochs=100,
        n_visible=5,
        ensemble=50,
    ),
    # Regularization keeps the trained Hamiltonian inside the commutator
    # series' convergence region; without it the order-5 phase ascends a
    # badly truncated gradient and schedule B loses to plain bound training.
    "commutator-compare": dict(
        family="fermionic",
        gradient_kind="gt",
        n_visible=4,
        learning_rate=0.1,
        momentum=0.0,
        epochs=200,
        lam=0.2,
        commutator_order=5,
        ensemble=1,
    ),
    "gradcheck": dict(ensemble=100, lam=0.3),
    "variance-sweep": dict(
        family="mean_field",
        n_visible=2,
        ensemble=1,
    ),
}


# Keys each experiment reads besides seed and out. The fixed parts of its
# design (model family, gradient rule, lam = 0 for state learning) are not
# among them.
_STEP_KEYS = {"learning_rate", "momentum", "epochs"}
READS = {
    "povm-train": _STEP_KEYS | {
        "jobs", "n_visible_grid", "n_hidden_grid", "povm_kind", "noise_p",
        "theta0_scale", "gradient_kind", "lam", "commutator_order",
    },
    "tomography": _STEP_KEYS | {"ensemble", "jobs", "n_visible", "target_kind"},
    "hamlearn": _STEP_KEYS | {"ensemble", "jobs", "n_visible", "theta0_scale"},
    "meanfield": _STEP_KEYS | {"ensemble", "jobs", "n_visible"},
    "commutator-compare": _STEP_KEYS | {
        "family", "n_visible", "n_hidden", "povm_kind", "noise_p", "theta0_scale",
        "lam", "commutator_order", "switch_fraction", "eta_grid", "momentum_grid",
    },
    "gradcheck": {"ensemble", "lam"},
    "variance-sweep": {"n_visible", "n_samples_grid", "n_repeats"},
}


def _coerce(name: str, raw: str):
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    if name not in fields:
        raise KeyError(f"unknown config key {name!r}")
    typ = fields[name].type
    text = raw.strip()
    if typ in ("int",):
        return int(text)
    if typ in ("float",):
        return float(text)
    if typ in ("Optional[str]",):
        return text or None
    return text


def parse_config_file(path) -> dict:
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are ignored. Values are coerced to the
    declared type of the matching :class:`ExperimentConfig` field.
    """
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            out[key.strip()] = _coerce(key.strip(), value)
    return out


def make_config(experiment: str, *overrides: dict) -> ExperimentConfig:
    """Resolve a config: built-in defaults, then each override mapping.

    String values (from config files or CLI flags) are coerced to the
    declared field type; already-typed values pass through unchanged. A key
    set by an override that the experiment does not read is an error; keys
    from DEFAULTS do not count.
    """
    merged = dict(DEFAULTS.get(experiment, {}))
    explicit = set()
    for mapping in overrides:
        for key, value in mapping.items():
            if key == "experiment":
                continue
            merged[key] = _coerce(key, value) if isinstance(value, str) else value
            explicit.add(key)
    config = ExperimentConfig(experiment=experiment, **merged)
    ignored = sorted(explicit - READS[experiment] - {"seed", "out"})
    if ignored:
        raise ValueError(f"{experiment} does not read config key(s) {', '.join(ignored)}")
    return config


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


def percentile_curves(values: np.ndarray) -> dict:
    """Pointwise percentile curves over instances (rows)."""
    values = np.asarray(values, dtype=float)
    levels = np.percentile(values, PERCENTILE_VALUES, axis=0)
    return {label: levels[i] for i, label in enumerate(PERCENTILE_LABELS)}


def _percentile_rows(curves_by_key: dict, epochs) -> list:
    """CSV rows key + (epoch, p2_5, ..., p97_5) for each key, epoch by epoch."""
    return [
        key + (e,) + tuple(curves[label][e] for label in PERCENTILE_LABELS)
        for key, curves in curves_by_key.items()
        for e in epochs
    ]


def _parse_int_list(text: str) -> list:
    return [int(v) for v in str(text).split(",") if str(v).strip() != ""]


def _parse_float_list(text: str) -> list:
    return [float(v) for v in str(text).split(",") if str(v).strip() != ""]


def _map_instances(fn, items, jobs: int) -> list:
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
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
    """Central-difference gradient of a scalar objective."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for j in range(theta.size):
        bump = np.zeros_like(theta)
        bump[j] = step
        grad[j] = (objective(theta + bump) - objective(theta - bump)) / (2 * step)
    return grad


# ---------------------------------------------------------------------------
# POVM generative-fit grid (quantum vs classical)


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


def _povm_branch(args):
    (n_visible, n_hidden, family, povm_kind, noise_p, seed, point_index,
     branch, theta0_scale, opt) = args
    data = _step_povm(n_visible, noise_p, povm_kind)
    model = build_model(family, n_visible, n_hidden)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(point_index, branch))
    )
    theta0 = theta0_scale * rng.standard_normal(model.n_terms)
    trace = train(model, theta0, data, opt)
    curve = _pad_curve(trace.objectives, opt.epochs + 1)
    return curve, bool(trace.diverged)


def run_povm_experiment(config: ExperimentConfig):
    """Fermionic vs classical generative fit on the step-function target.

    Trains both models at every (n_visible, n_hidden) grid point and tracks
    the exact objective; the reported curve is the shortfall from the
    entropy-limited maximum, ``delta = max_objective - objective``.
    """
    grid = [
        (nv, nh)
        for nv in _parse_int_list(config.n_visible_grid)
        for nh in _parse_int_list(config.n_hidden_grid)
    ]
    opt = config.optimizer()
    jobs_args = []
    for point_index, (nv, nh) in enumerate(grid):
        for branch, family in enumerate(("fermionic", "classical_bm")):
            jobs_args.append(
                (nv, nh, family, config.povm_kind, config.noise_p,
                 config.seed, point_index, branch, config.theta0_scale, opt)
            )
    results = _map_instances(_povm_branch, jobs_args, config.jobs)

    rows = []
    points = []
    quantum_curves = []
    for idx, (nv, nh) in enumerate(grid):
        # The entropy-limited maximum depends on the target statistics,
        # hence on n_visible in basis mode (it is 0 in projector mode).
        o_max = _max_objective(_step_povm(nv, config.noise_p, config.povm_kind))
        q_curve, q_div = results[2 * idx]
        c_curve, c_div = results[2 * idx + 1]
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
        for label, curve in (("fermionic", q_curve), ("classical_bm", c_curve)):
            for e in range(opt.epochs + 1):
                rows.append((nv, nh, label, e, curve[e], o_max - curve[e]))

    quantum_curves = np.asarray(quantum_curves)
    summary = EnsembleSummary(
        experiment=config.experiment,
        metric="delta_objective",
        curves=percentile_curves(quantum_curves),
        finals=quantum_curves[:, -1],
        extras=dict(
            grid=points,
            quantum_beats_classical=all(
                p["final_quantum"] >= p["final_classical"] for p in points
            ),
        ),
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
# Tomography ensemble (relative-entropy training of random states)


def _tomography_instance(args):
    n, target_kind, seed_seq, opt = args
    rng = np.random.default_rng(seed_seq)
    target = random_mixed(n, rng) if target_kind == "mixed" else haar_random_pure(n, rng)
    model = build_model("pauli_complete", n)
    trace = train(model, np.zeros(model.n_terms), target, opt)
    s_curve = _pad_curve(-trace.objectives, opt.epochs + 1)
    sigma, _ = gibbs_state(assemble_hamiltonian(model, trace.final_theta))
    return s_curve, target.rho, sigma, bool(trace.diverged)


def run_tomography_ensemble(config: ExperimentConfig):
    """Reconstruct random states from full density-matrix data.

    Each instance trains a complete-Pauli-set model by relative-entropy
    ascent from theta = 0 (the uniform state) and tracks S(rho || sigma)
    per epoch; the divergence equals minus the monitored objective at
    lam = 0.
    """
    opt = config.optimizer(gradient_kind="relent", lam=0.0)
    args = [
        (config.n_visible, config.target_kind, child, opt)
        for child in split_seeds(config.seed, config.ensemble)
    ]
    results = _map_instances(_tomography_instance, args, config.jobs)
    s_curves = np.asarray([r[0] for r in results])
    finals = s_curves[:, -1]
    summary = EnsembleSummary(
        experiment=config.experiment,
        metric="relative_entropy",
        curves=percentile_curves(s_curves),
        finals=finals,
        extras=dict(
            target_kind=config.target_kind,
            median_final=float(np.median(finals)),
            finals=[float(v) for v in finals],
            n_diverged=sum(r[3] for r in results),
        ),
    )
    reconstructions = [
        dict(
            instance=i,
            target=matrix_to_pairs(results[i][1]),
            reconstruction=matrix_to_pairs(results[i][2]),
        )
        for i in range(len(results))
    ]
    files = {
        "curves.csv": (
            ("epoch",) + PERCENTILE_LABELS,
            _percentile_rows({(): summary.curves}, range(opt.epochs + 1)),
        ),
        "summary.json": dict(experiment=config.experiment, metric=summary.metric, **summary.extras),
        "reconstructions.json": reconstructions,
    }
    return summary, files


# ---------------------------------------------------------------------------
# Hamiltonian learning (normalized vs unnormalized teachers)


def _hamlearn_instance(args):
    n, normalize, seed_seq, theta0_scale, opt = args
    rng = np.random.default_rng(seed_seq)
    model, theta_true, target = random_ti_teacher(n, normalize, rng)
    theta0 = theta0_scale * rng.standard_normal(model.n_terms)
    trace = train(model, theta0, target, opt)
    s_curve = _pad_curve(-trace.objectives, opt.epochs + 1)
    # H is linear in theta: H(th) - H(theta_true) = H(th - theta_true)
    dh = [
        float(np.linalg.norm(assemble_hamiltonian(model, th - theta_true)))
        for th in trace.thetas
    ]
    return s_curve, _pad_curve(np.asarray(dh), opt.epochs + 1)


def run_hamlearn(config: ExperimentConfig):
    """Learn random transverse-field Ising teachers from their Gibbs states.

    Runs the same ensemble twice: teachers rescaled to unit spectral norm,
    and raw unit-variance Gaussian teachers. Tracks the divergence
    S(rho || sigma) and the Frobenius distance between the true and
    estimated Hamiltonians.
    """
    opt = config.optimizer(gradient_kind="relent", lam=0.0)
    variants = {}
    for normalize, name in ((True, "normalized"), (False, "unnormalized")):
        args = [
            (config.n_visible, normalize, child, config.theta0_scale, opt)
            for child in split_seeds(config.seed, config.ensemble)
        ]
        results = _map_instances(_hamlearn_instance, args, config.jobs)
        s_curves = np.asarray([r[0] for r in results])
        dh_curves = np.asarray([r[1] for r in results])
        variants[name] = dict(
            s=percentile_curves(s_curves),
            dh=percentile_curves(dh_curves),
            s_finals=s_curves[:, -1],
            median_final_s=float(np.median(s_curves[:, -1])),
            median_final_dh=float(np.median(dh_curves[:, -1])),
        )

    summary = EnsembleSummary(
        experiment=config.experiment,
        metric="relative_entropy",
        curves=variants["normalized"]["s"],
        finals=variants["normalized"]["s_finals"],
        extras=variants,
    )
    curves_by_key = {
        (name, metric): data[metric] for name, data in variants.items() for metric in ("s", "dh")
    }
    medians = {
        f"median_final_{metric}_{name}": data[f"median_final_{metric}"]
        for name, data in variants.items()
        for metric in ("s", "dh")
    }
    files = {
        "curves.csv": (
            ("variant", "metric", "epoch") + PERCENTILE_LABELS,
            _percentile_rows(curves_by_key, range(opt.epochs + 1)),
        ),
        "summary.json": dict(experiment=config.experiment, n_visible=config.n_visible, **medians),
    }
    return summary, files


# ---------------------------------------------------------------------------
# Mean-field approximation quality


def _meanfield_instance(args):
    n, seed_seq, opt = args
    rng = np.random.default_rng(seed_seq)
    _, _, target = random_ti_teacher(n, False, rng)
    student = build_model("mean_field", n)
    trace = train(student, np.zeros(student.n_terms), target, opt)
    s_curve = _pad_curve(-trace.objectives, opt.epochs + 1)
    overlaps = []
    sigma = None
    for th in trace.thetas:
        sigma, _ = gibbs_state(assemble_hamiltonian(student, th))
        overlaps.append(expectation_value(target.rho, sigma))
    return s_curve, _pad_curve(np.asarray(overlaps), opt.epochs + 1), target.rho, sigma


def run_meanfield(config: ExperimentConfig):
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
    opt = config.optimizer(gradient_kind="relent", lam=0.0)
    args = [
        (config.n_visible, child, opt) for child in split_seeds(config.seed, config.ensemble)
    ]
    results = _map_instances(_meanfield_instance, args, config.jobs)
    s_curves = np.asarray([r[0] for r in results])
    overlap_curves = np.asarray([r[1] for r in results])
    overlap_pct = percentile_curves(overlap_curves)
    summary = EnsembleSummary(
        experiment=config.experiment,
        metric="relative_entropy",
        curves=percentile_curves(s_curves),
        finals=s_curves[:, -1],
        extras=dict(
            overlap=overlap_pct,
            median_final_overlap=float(np.median(overlap_curves[:, -1])),
            median_final_fidelity=float(np.median([fidelity(r[2], r[3]) for r in results])),
            median_final_s=float(np.median(s_curves[:, -1])),
        ),
    )
    files = {
        "curves.csv": (
            ("metric", "epoch") + PERCENTILE_LABELS,
            _percentile_rows(
                {("s",): summary.curves, ("overlap",): overlap_pct}, range(opt.epochs + 1)
            ),
        ),
        "summary.json": dict(
            experiment=config.experiment,
            n_visible=config.n_visible,
            median_final_s=summary.extras["median_final_s"],
            median_final_overlap=summary.extras["median_final_overlap"],
        ),
        "instance_matrices.json": dict(
            target=matrix_to_pairs(results[0][2]),
            model_state=matrix_to_pairs(results[0][3]),
        ),
    }
    return summary, files


# ---------------------------------------------------------------------------
# Golden-Thompson vs commutator training schedules


def run_commutator_compare(config: ExperimentConfig):
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
    rng = np.random.default_rng(split_seeds(config.seed, 1)[0])
    theta0 = config.theta0_scale * rng.standard_normal(model.n_terms)

    total = config.epochs
    first = max(1, int(round(config.switch_fraction * total)))
    second = max(1, total - first)

    opt_a = config.optimizer(gradient_kind="gt", epochs=total)
    trace_a = train(model, theta0, data, opt_a)
    curve_a = _pad_curve(trace_a.objectives, total + 1)

    opt_b1 = config.optimizer(gradient_kind="gt", epochs=first)
    trace_b1 = train(model, theta0, data, opt_b1)
    opt_b2 = config.optimizer(
        gradient_kind="commutator",
        epochs=second,
        commutator_order=config.commutator_order,
    )
    trace_b2 = train(model, trace_b1.final_theta, data, opt_b2)
    curve_b = _pad_curve(
        np.concatenate([trace_b1.objectives, trace_b2.objectives[1:]]), total + 1
    )

    best = None
    grid_rows = []
    for eta in _parse_float_list(config.eta_grid):
        for mu in _parse_float_list(config.momentum_grid):
            if eta == 0:
                continue
            opt_c = config.optimizer(
                gradient_kind="gt", learning_rate=eta, momentum=mu, epochs=total
            )
            trace_c = train(model, theta0, data, opt_c)
            curve = _pad_curve(trace_c.objectives, total + 1)
            grid_rows.append((eta, mu, float(curve[-1])))
            if best is None or curve[-1] > best[2][-1]:
                best = (eta, mu, curve)
    best_eta, best_mu, curve_c = best

    stacked = np.asarray([curve_a, curve_b, curve_c])
    summary = EnsembleSummary(
        experiment=config.experiment,
        metric="objective_exact",
        curves=percentile_curves(stacked),
        finals=stacked[:, -1],
        extras=dict(
            final_a=float(curve_a[-1]),
            final_b=float(curve_b[-1]),
            final_c=float(curve_c[-1]),
            switch_epoch=first,
            best_eta=best_eta,
            best_momentum=best_mu,
            diverged_b=bool(trace_b2.diverged),
        ),
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


def _random_full_rank_povm(dim: int, rng: np.random.Generator) -> PovmTrainingSet:
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    bulk = raw @ raw.conj().T
    bulk /= np.linalg.eigvalsh(bulk)[-1]
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


def gradcheck(config: ExperimentConfig):
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
        rng = np.random.default_rng(np.random.SeedSequence(config.seed, spawn_key=(_family_key(family),)))
        worst = {kind: 0.0 for kind in GRADCHECK_TOLERANCES}
        for _ in range(config.ensemble):
            theta = _scaled_theta(model, rng)
            povm = _random_full_rank_povm(2**nv, rng)
            state = random_mixed(nv, rng)

            pairs = [
                ("gt", grad_povm_gt(model, theta, povm, lam),
                 lambda t: objective_povm_gt(model, t, povm, lam)),
                ("exact", grad_povm_exact(model, theta, povm, lam),
                 lambda t: objective_povm_exact(model, t, povm, lam)),
                ("commutator",
                 grad_povm_commutator(model, theta, povm, lam, order=MAX_COMMUTATOR_ORDER),
                 lambda t: objective_povm_exact(model, t, povm, lam)),
                ("relent", grad_relent(model, theta, state, lam),
                 lambda t: objective_relent(model, t, state, lam)),
            ]
            for kind, analytic, objective in pairs:
                fd = finite_difference_gradient(objective, theta)
                rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(fd), 1e-300)
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

    ksweep = commutator_order_sweep(config.seed, n_instances=5)
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


def commutator_order_sweep(seed: int, n_instances: int = 5, orders=range(1, 9)) -> dict:
    """Truncation error of the commutator series against the exact gradient.

    Sweeps the kept order on random unit-spectral-norm instances of three
    non-commuting families. The first step (order 1 to 2) systematically
    worsens the real-projected estimate by a factor approaching 2: the
    dropped first-order term cancels half of the second-order term in the
    small-field limit, so only orders >= 2 decrease monotonically.
    """
    orders = list(orders)
    per_instance = []
    for fi, (family, nv) in enumerate((("ti_complete", 3), ("pauli_complete", 2), ("fermionic", 3))):
        model = build_model(family, nv, 0)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1000 + fi,)))
        for _ in range(n_instances):
            theta = _scaled_theta(model, rng)
            povm = _random_full_rank_povm(2**nv, rng)
            exact = grad_povm_exact(model, theta, povm)
            norm = np.linalg.norm(exact)
            errs = [
                float(np.linalg.norm(
                    grad_povm_commutator(model, theta, povm, order=k) - exact
                ) / norm)
                for k in orders
            ]
            per_instance.append(errs)
    per_instance = np.asarray(per_instance)
    mean_errors = per_instance.mean(axis=0)
    monotone = bool(np.all(per_instance[:, 2:] < per_instance[:, 1:-1]))
    return dict(
        orders=[int(k) for k in orders],
        mean_errors=[float(v) for v in mean_errors],
        monotone_from_2=monotone,
        first_step_ratio=float(np.mean(per_instance[:, 1] / per_instance[:, 0])),
    )


# ---------------------------------------------------------------------------
# Sampled-gradient variance sweep


def run_variance_sweep(config: ExperimentConfig):
    """Mean squared error of the sampled gradient vs sample count.

    Fixes one small product model and one with twice the term count,
    estimates E||G - G_true||^2 at each sample count over repeated draws,
    and fits the log-log slope. The theory predicts slope -1 and an MSE
    proportional to the number of terms at fixed sample count.
    """
    n = config.n_visible
    rng = np.random.default_rng(split_seeds(config.seed, 1)[0])
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

    grid = _parse_int_list(config.n_samples_grid)
    mse = {"small": [], "big": []}
    for gi, n_samples in enumerate(grid):
        for mi, (label, model, theta, state, true) in enumerate((
            ("small", small, theta_small, state_small, true_small),
            ("big", big, theta_big, state_big, true_big),
        )):
            errors = []
            for r in range(config.n_repeats):
                seed_seq = np.random.SeedSequence(
                    config.seed, spawn_key=(2, mi, gi, r)
                )
                sampled = grad_relent_sampled(
                    model, theta, state, n_samples=n_samples, rng_seed=seed_seq
                )
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


_RUNNERS = {
    "povm-train": run_povm_experiment,
    "tomography": run_tomography_ensemble,
    "hamlearn": run_hamlearn,
    "meanfield": run_meanfield,
    "commutator-compare": run_commutator_compare,
    "gradcheck": gradcheck,
    "variance-sweep": run_variance_sweep,
}


def _tool_version() -> str:
    try:
        from importlib.metadata import version

        return version("qbmlab")
    except Exception:
        return "unknown"


def run_experiment(config: ExperimentConfig):
    """Run one experiment; write its files and manifest if config.out is set.

    A runner returns (result, files); in files a ``.csv`` name maps to
    (header, rows) and any other name to a JSON payload. Returns the
    in-memory result (an EnsembleSummary or a report dict).
    """
    result, files = _RUNNERS[config.experiment](config)
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        manifest = dict(
            experiment=config.experiment,
            version=_tool_version(),
            seed=config.seed,
            config={
                f.name: getattr(config, f.name)
                for f in dataclasses.fields(ExperimentConfig)
            },
        )
        write_json(os.path.join(config.out, "manifest.json"), manifest)
        for name, payload in files.items():
            path = os.path.join(config.out, name)
            if name.endswith(".csv"):
                write_csv(path, *payload)
            else:
                write_json(path, payload)
    return result
