"""Span tracing of qbmlab's layers, installed from outside the package.

Each public function of a layer is replaced, in every ``qbmlab`` module
that holds a reference to it, by a wrapper that records a span (name,
start, end, parent). Nested calls under the same span name (for example
``build_model`` calling ``build_fermionic_model``) collapse into the outer
span. Spans are kept in memory and written out once, at the end of a pass.
Only the process that installed the tracer records; forked pool workers
call straight through.
"""

from __future__ import annotations

import functools
import json
import os
import resource
import sys
import time

# (module, function) -> span name. A name missing from the package is
# skipped, and its metrics read 0.
SPAN_NAMES = {
    ("linalg", "hermitian_eigendecompose"): "linalg.eigh",
    ("linalg", "gibbs_state"): "linalg.gibbs_state",
    ("linalg", "matrix_log_psd"): "linalg.matrix_log_psd",
    ("linalg", "von_neumann_entropy"): "linalg.von_neumann_entropy",
    ("operators", "assemble_hamiltonian"): "operators.assemble_hamiltonian",
    ("operators", "build_model"): "operators.build_model",
    ("operators", "build_classical_bm"): "operators.build_model",
    ("operators", "build_fermionic_model"): "operators.build_model",
    ("operators", "build_transverse_ising_complete"): "operators.build_model",
    ("operators", "build_complete_pauli_set"): "operators.build_model",
    ("operators", "build_mean_field"): "operators.build_model",
    ("training", "term_expectations"): "training.term_expectations",
    ("training", "grad_povm_gt"): "training.grad.gt",
    ("training", "grad_povm_exact"): "training.grad.exact",
    ("training", "grad_povm_commutator"): "training.grad.commutator",
    ("training", "grad_relent"): "training.grad.relent",
    ("training", "grad_relent_sampled"): "training.grad.relent_sampled",
    ("training", "objective_povm_exact"): "training.objective.povm_exact",
    ("training", "objective_povm_gt"): "training.objective.povm_gt",
    ("training", "objective_relent"): "training.objective.relent",
    ("training", "train"): "training.train",
    ("datasets", "step_distribution"): "datasets.targets",
    ("datasets", "step_function_state"): "datasets.targets",
    ("datasets", "haar_unitary"): "datasets.targets",
    ("datasets", "haar_random_pure"): "datasets.targets",
    ("datasets", "random_mixed"): "datasets.targets",
    ("datasets", "random_ti_teacher"): "datasets.targets",
    ("experiments", "run_experiment"): "experiments.run",
    ("experiments", "_map_instances"): "experiments.dispatch",
    ("serialize", "write_csv"): "serialize.write",
    ("serialize", "write_json"): "serialize.write",
}

GRAD_KINDS = ("gt", "exact", "commutator", "relent", "relent_sampled")
OBJECTIVE_KINDS = ("povm_exact", "povm_gt", "relent")

TIMED_SPANS = (
    ["linalg.eigh", "linalg.gibbs_state", "linalg.matrix_log_psd",
     "operators.assemble_hamiltonian", "operators.build_model",
     "datasets.targets", "training.term_expectations", "training.train",
     "serialize.write"]
    + [f"training.grad.{k}" for k in GRAD_KINDS]
    + [f"training.objective.{k}" for k in OBJECTIVE_KINDS]
)

# Metrics whose value is a count of work: they must repeat exactly.
COUNTER_METRICS = (
    [f"{name}.calls" for name in TIMED_SPANS]
    + ["linalg.von_neumann_entropy.calls", "linalg.eigh.per_epoch",
       "linalg.eigh.work_d3", "training.evals_per_epoch",
       "training.term_expectations.bytes", "operators.term_bytes",
       "training.epochs", "training.diverged", "training.diverged_ratio",
       "serialize.write.bytes"]
)

_EVAL_PREFIXES = ("training.grad.", "training.objective.")


def cpu_seconds(usage) -> float:
    """User plus system time of a ``resource.getrusage`` result."""
    return usage.ru_utime + usage.ru_stime


class Tracer:
    """Records spans and layer counters for one pass of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.pid = os.getpid()
        self.names: list = []
        self._name_index: dict = {}
        self.spans: list = []  # [name index, start, end, parent span or -1]
        self._stack: list = []  # [span index, name, child seconds]
        self.calls: dict = {}
        self.self_s: dict = {}
        self.counts = dict(
            work_d3=0, term_expectation_bytes=0, epochs=0, diverged=0,
            evals_in_train=0, write_bytes=0, pool_wait_s=0.0,
            pool_capacity_s=0.0, worker_cpu_s=0.0,
        )
        # experiment -> [eigh calls, epochs], for per-experiment eigh-per-epoch
        self.by_experiment: dict = {}
        self._experiment = None
        self._train_depth = 0
        self._eval_depth = 0

    # -- installation -----------------------------------------------------

    def install(self) -> int:
        """Wrap every traced function in every loaded qbmlab module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qbmlab" or name.startswith("qbmlab."))]
        wrapped = 0
        for (module_name, attr), span_name in SPAN_NAMES.items():
            home = sys.modules.get(f"qbmlab.{module_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        wrapped += 1
        return wrapped

    def _wrap(self, name: str, fn):
        tracer = self
        before, after = _HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if os.getpid() != tracer.pid or (stack and stack[-1][1] == name):
                return fn(*args, **kwargs)
            token = before(tracer, args, kwargs) if before else None
            tracer._enter(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                child_s = tracer._exit(name, start, end)
            if after:
                after(tracer, args, kwargs, result, token, end - start, child_s)
            return result

        return wrapper

    def _enter(self, name: str) -> None:
        if name == "training.train":
            self._train_depth += 1
        elif name.startswith(_EVAL_PREFIXES):
            if self._train_depth and not self._eval_depth:
                self.counts["evals_in_train"] += 1
            self._eval_depth += 1
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([index, 0.0, 0.0, parent])
        self._stack.append([len(self.spans) - 1, name, 0.0])

    def _exit(self, name: str, start: float, end: float) -> float:
        span_index, _, child_s = self._stack.pop()
        span = self.spans[span_index]
        span[1], span[2] = start, end
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - child_s
        if name == "training.train":
            self._train_depth -= 1
        elif name.startswith(_EVAL_PREFIXES):
            self._eval_depth -= 1
        return child_s

    # -- results ----------------------------------------------------------

    def metrics(self, term_bytes: int) -> dict:
        """Per-layer metrics of this pass (see BENCHMARK.json per_layer)."""
        calls, self_s, c = self.calls, self.self_s, self.counts
        out = {}
        for name in TIMED_SPANS:
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        epochs = c["epochs"]
        trains = calls.get("training.train", 0)
        out.update({
            "linalg.eigh.per_epoch": calls.get("linalg.eigh", 0) / epochs if epochs else 0.0,
            "linalg.eigh.work_d3": c["work_d3"],
            "linalg.von_neumann_entropy.calls": calls.get("linalg.von_neumann_entropy", 0),
            "training.evals_per_epoch": c["evals_in_train"] / epochs if epochs else 0.0,
            "training.term_expectations.bytes": c["term_expectation_bytes"],
            "operators.term_bytes": term_bytes,
            "training.epochs": epochs,
            "training.diverged": c["diverged"],
            "training.diverged_ratio": c["diverged"] / trains if trains else 0.0,
            "experiments.run.self_s": self_s.get("experiments.run", 0.0),
            "experiments.dispatch.wait_s": c["pool_wait_s"],
            "experiments.workers.cpu_s": c["worker_cpu_s"],
            "experiments.workers.utilization": (
                c["worker_cpu_s"] / c["pool_capacity_s"] if c["pool_capacity_s"] else 0.0),
            "serialize.write.bytes": c["write_bytes"],
        })
        return out

    def eigh_per_epoch_by_experiment(self) -> dict:
        return {name: eigh / epochs for name, (eigh, epochs) in self.by_experiment.items()
                if epochs}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(run_id=self.run_id, fields=["name", "start", "end", "parent"],
                           names=self.names, spans=self.spans), fh)


# -- counter hooks: before(tracer, args, kwargs) -> token;
#    after(tracer, args, kwargs, result, token, duration, child_s) ---------


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _experiment_counts(tracer) -> list:
    return tracer.by_experiment.setdefault(tracer._experiment, [0, 0])


def _before_run(tracer, args, kwargs):
    tracer._experiment = getattr(_arg(args, kwargs, 0, "config"), "experiment", None)


def _after_eigh(tracer, args, kwargs, result, token, duration, child_s):
    shape = getattr(_arg(args, kwargs, 0, "A"), "shape", None) or (0,)
    tracer.counts["work_d3"] += int(shape[0]) ** 3
    _experiment_counts(tracer)[0] += 1


def _after_term_expectations(tracer, args, kwargs, result, token, duration, child_s):
    model = _arg(args, kwargs, 0, "model")
    tracer.counts["term_expectation_bytes"] += model.n_terms * model.dim ** 2 * 16


def _after_train(tracer, args, kwargs, result, token, duration, child_s):
    tracer.counts["epochs"] += len(result.records)
    _experiment_counts(tracer)[1] += len(result.records)
    tracer.counts["diverged"] += int(bool(result.diverged))


def _after_write(tracer, args, kwargs, result, token, duration, child_s):
    tracer.counts["write_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _before_dispatch(tracer, args, kwargs):
    jobs = _arg(args, kwargs, 2, "jobs")
    items = _arg(args, kwargs, 1, "items")
    pooled = jobs > 1 and len(items) > 1
    return (jobs, cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))) if pooled else None


def _after_dispatch(tracer, args, kwargs, result, token, duration, child_s):
    if token is None:
        return
    jobs, cpu_before = token
    worker_cpu = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN)) - cpu_before
    tracer.counts["pool_wait_s"] += duration - child_s
    tracer.counts["pool_capacity_s"] += duration * jobs
    tracer.counts["worker_cpu_s"] += worker_cpu


_HOOKS = {
    "linalg.eigh": (None, _after_eigh),
    "training.term_expectations": (None, _after_term_expectations),
    "training.train": (None, _after_train),
    "serialize.write": (None, _after_write),
    "experiments.dispatch": (_before_dispatch, _after_dispatch),
    "experiments.run": (_before_run, None),
}


def held_bytes(model) -> int:
    """Bytes of the ndarrays a model holds, directly or in its terms (computed)."""
    import numpy as np

    seen = set()
    total = 0

    def add(value):
        nonlocal total
        if isinstance(value, np.ndarray) and id(value) not in seen:
            seen.add(id(value))
            total += value.nbytes

    for value in vars(model).values():
        add(value)
        if isinstance(value, (tuple, list)):
            for item in value:
                add(item)
                if hasattr(item, "__dict__"):
                    for inner in vars(item).values():
                        add(inner)
    return total
