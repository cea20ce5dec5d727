"""Experiment runner plumbing: configs, ensembles, CLI, output files."""

import concurrent.futures
import dataclasses
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import qbmlab.cli
import qbmlab.datasets as datasets
import qbmlab.experiments as experiments
import qbmlab.linalg as linalg
import qbmlab.training as training
from qbmlab.cli import build_parser, main
from qbmlab.datasets import random_mixed, random_ti_teacher
from qbmlab.experiments import (
    EXPERIMENTS,
    EnsembleSummary,
    ExperimentConfig,
    make_config,
    parse_config_file,
    percentile_curves,
    run_experiment,
)
from qbmlab.operators import QUBIT_CAPS, assemble_hamiltonian, build_model
from qbmlab.serialize import format_cell, write_csv, write_json
from qbmlab.training import PovmTrainingSet, child_seed, train

from conftest import assert_lockstep_matches_train, spy_on_solves


def _keys(experiment) -> set:
    return {f.name for f in dataclasses.fields(EXPERIMENTS[experiment][0])}


class TestConfig:
    def test_every_experiment_has_defaults(self):
        for name, (config_class, _) in EXPERIMENTS.items():
            cfg = make_config(name)
            assert type(cfg) is config_class and isinstance(cfg, ExperimentConfig)
            assert cfg.experiment == name
            assert cfg == config_class()

    def test_settable_keys_per_experiment(self):
        # the keys each runner reads, plus seed and out; none added
        counts = {name: len(_keys(name)) for name in EXPERIMENTS}
        assert counts == {"povm-train": 13, "tomography": 9, "hamlearn": 9, "meanfield": 8,
                          "commutator-compare": 16, "gradcheck": 4, "variance-sweep": 5}
        for name in EXPERIMENTS:
            assert {"seed", "out"} <= _keys(name)

    def test_string_values_coerced(self):
        cfg = make_config("tomography", {"epochs": "25", "learning_rate": "0.5", "out": "somewhere"})
        assert cfg.epochs == 25
        assert cfg.learning_rate == 0.5
        assert cfg.out == "somewhere"

    def test_later_layers_win(self):
        cfg = make_config("tomography", {"epochs": "25"}, {"epochs": 60})
        assert cfg.epochs == 60

    def test_unknown_key_rejected(self):
        with pytest.raises(KeyError):
            make_config("tomography", {"color": "blue"})

    def test_bad_int_rejected(self):
        with pytest.raises(ValueError):
            make_config("tomography", {"epochs": "sixty"})
        with pytest.raises(ValueError):
            make_config("tomography", {"epochs": 2.5})

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ValueError):
            make_config("teleportation")

    def test_validation(self):
        with pytest.raises(ValueError):
            make_config("tomography", {"ensemble": "0"})
        with pytest.raises(ValueError, match="unknown model family"):
            make_config("commutator-compare", {"family": "heisenberg"})
        with pytest.raises(ValueError, match="unknown gradient kind"):
            make_config("povm-train", {"gradient_kind": "newton"})
        with pytest.raises(ValueError):
            make_config("tomography", {"target_kind": "thermal"})

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_every_read_key_accepted(self, experiment):
        # each key set explicitly to its default
        resolved = make_config(experiment)
        cfg = make_config(experiment, dataclasses.asdict(resolved))
        assert cfg == resolved

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_keys_an_experiment_ignores_are_rejected(self, experiment):
        others = {}
        for name in EXPERIMENTS:
            others.update(dataclasses.asdict(make_config(name)))
        ignored = others.keys() - _keys(experiment)
        assert ignored
        for key in ignored:
            # a value another experiment accepts
            with pytest.raises(ValueError, match=f"does not read config key.*{key}"):
                make_config(experiment, {key: others[key]})

    def test_povm_train_has_no_jobs_key(self):
        # it trains its grid in one process; the relent ensembles keep their pool
        with pytest.raises(ValueError, match="povm-train does not read config key.*jobs"):
            make_config("povm-train", {"jobs": 2})
        assert make_config("tomography", {"jobs": 2}).jobs == 2

    def test_optimizer_view(self):
        cfg = make_config("povm-train")
        opt = cfg.optimizer()
        assert (opt.gradient_kind, opt.learning_rate, opt.epochs, opt.lam) == ("gt", 0.2, 200, 0.0)
        assert cfg.optimizer(epochs=3).epochs == 3
        # keys the experiment lacks keep OptimizerConfig's defaults
        opt = make_config("tomography", {"momentum": "0.5"}).optimizer(gradient_kind="relent")
        assert (opt.gradient_kind, opt.momentum, opt.lam, opt.commutator_order) == ("relent", 0.5, 0.0, 5)

    def test_sizes_checked_against_the_family_caps(self):
        make_config("tomography", {"n_visible": QUBIT_CAPS["pauli_complete"]})
        with pytest.raises(ValueError, match="cap"):
            make_config("tomography", {"n_visible": QUBIT_CAPS["pauli_complete"] + 1})
        # variance-sweep's big model has twice the qubits
        make_config("variance-sweep", {"n_visible": QUBIT_CAPS["mean_field"] // 2})
        with pytest.raises(ValueError, match="cap"):
            make_config("variance-sweep", {"n_visible": QUBIT_CAPS["mean_field"] // 2 + 1})
        with pytest.raises(ValueError, match="cap"):
            make_config("povm-train", {"n_visible_grid": "3", "n_hidden_grid": "0,6"})

    def test_parse_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "epochs = 12\n"
            "\n"
            "family=pauli_complete   # trailing comment\n"
            "learning_rate =  0.25\n"
        )
        mapping = parse_config_file(path)
        assert mapping == {"epochs": 12, "family": "pauli_complete", "learning_rate": 0.25}

    def test_parse_config_rejects_garbage(self, tmp_path):
        # every error names the file and line
        path = tmp_path / "bad.cfg"
        for line, error in (("epochs 12", ValueError), ("nope = 1", KeyError), ("epochs = 1.5", ValueError)):
            path.write_text(f"# header\n{line}\n")
            with pytest.raises(error, match=re.escape(f"{path}:2: ")):
                parse_config_file(path)


class TestEnsembleSummary:
    def test_each_label_is_the_percentile_it_names(self, rng):
        values = rng.normal(size=(37, 6))
        curves = percentile_curves(values)
        assert list(curves) == list(experiments.PERCENTILE_LABELS)
        for label, curve in curves.items():  # p2_5 is the 2.5th percentile
            assert np.array_equal(curve, np.percentile(values, float(label[1:].replace("_", ".")), axis=0))

    def test_a_short_curve_is_padded_with_its_last_value(self):
        assert experiments._pad_curve([3.0, 2.0, 1.5], 6).tolist() == [3.0, 2.0, 1.5, 1.5, 1.5, 1.5]
        assert experiments._pad_curve(np.arange(5.0), 3).tolist() == [0.0, 1.0, 2.0]

    def test_percentile_ordering_property(self, rng):
        curves = percentile_curves(rng.normal(size=(40, 17)))
        for t in range(17):
            vals = [curves[k][t] for k in ("p2_5", "p5", "p50", "p95", "p97_5")]
            assert vals == sorted(vals)

    def test_disordered_curves_rejected(self):
        good = {k: np.zeros(3) for k in ("p2_5", "p5", "p50", "p95", "p97_5")}
        bad = dict(good)
        bad["p95"] = np.array([0.0, -1.0, 0.0])  # drops below the median
        with pytest.raises(ValueError):
            EnsembleSummary(
                experiment="tomography",
                metric="relative_entropy",
                curves=bad,
                finals=np.zeros(4),
                extras={},
            )


class TestParallelism:
    def test_job_count_does_not_change_results(self):
        base = {"ensemble": "6", "epochs": "8"}
        s1 = run_experiment(make_config("tomography", base, {"jobs": 1}))
        s2 = run_experiment(make_config("tomography", base, {"jobs": 2}))
        for k in s1.curves:
            assert np.array_equal(s1.curves[k], s2.curves[k])
        assert np.array_equal(s1.finals, s2.finals)

    # every experiment that dispatches to a process pool, at small settings; at dim 128
    # (hamlearn-n7) each lockstep chunk holds one row and a task trains several
    POOLED = {
        "tomography": ("tomography", {"ensemble": "4", "epochs": "3"}),
        "hamlearn": ("hamlearn", {"ensemble": "3", "epochs": "3"}),
        "hamlearn-n7": ("hamlearn", {"ensemble": "3", "epochs": "3", "n_visible": "7"}),
        "meanfield": ("meanfield", {"ensemble": "3", "epochs": "3", "n_visible": "3"}),
    }

    @pytest.mark.parametrize("case", list(POOLED))
    def test_job_count_does_not_change_output_files(self, tmp_path, case):
        experiment, settings = self.POOLED[case]
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_experiment(make_config(experiment, settings, {"jobs": jobs, "out": str(out)}))
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]

    def test_pool_forks_no_more_workers_than_instances(self, monkeypatch):
        # a fork pool starts max_workers processes at its first submit; this one maps serially
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # _map_instances imports the pool where it builds one
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        want = run_experiment(make_config("tomography", {"ensemble": "3", "epochs": "2"}))
        got = run_experiment(make_config("tomography", {"ensemble": "3", "epochs": "2", "jobs": "64"}))
        assert sizes == [3]
        assert np.array_equal(got.finals, want.finals)
        assert experiments._map_instances(abs, [-1, -2, -3], jobs=2) == [1, 2, 3]
        assert sizes == [3, 2]

    def test_the_cli_loads_no_process_pool(self):
        # only a run that builds a pool pays for importing it
        source = os.path.dirname(os.path.dirname(qbmlab.cli.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([source, os.environ.get("PYTHONPATH", "")])}
        run = subprocess.run([sys.executable, "-c", "import sys, qbmlab.cli; print(*sys.modules)"],
                             env=env, capture_output=True, text=True, check=True)
        modules = run.stdout.split()
        assert "qbmlab.cli" in modules and "concurrent.futures.process" not in modules
        assert [m for m in modules if m.split(".")[0] == "multiprocessing"] == []


class TestDivergence:
    KEPT = 2  # records the diverged instance keeps

    @pytest.mark.parametrize("experiment, variants", [
        ("tomography", [None]),
        ("meanfield", [None]),
        ("hamlearn", ["normalized", "unnormalized"]),
    ])
    def test_diverged_instance_is_counted_and_padded(self, tmp_path, monkeypatch, experiment, variants):
        ensemble = 3
        calls, stacks = [], []
        lockstep = experiments._train_lockstep

        def diverge_second(*args, **kw):
            # every row of instance 1 diverges: each hamlearn variant once
            traces, states = lockstep(*args, **kw)
            for trace in traces:
                if len(calls) // len(variants) == 1:
                    trace.records, trace.diverged = trace.records[: self.KEPT], True
                calls.append(trace)
            return traces, states

        ensemble_run = experiments._relent_ensemble
        monkeypatch.setattr(experiments, "_train_lockstep", diverge_second)
        monkeypatch.setattr(experiments, "_relent_ensemble",
                            lambda *args, **kw: stacks.append(ensemble_run(*args, **kw)) or stacks[-1])
        settings = dict(OUTPUT_LAYOUTS[experiment][0], ensemble=str(ensemble), epochs="4")
        out = tmp_path / experiment
        summary = run_experiment(make_config(experiment, settings, {"out": str(out)}))
        assert len(calls) == ensemble * len(variants)
        # one ensemble run; hamlearn's variants are its alternate rows
        [(curves, _, diverged)] = stacks
        for v, variant in enumerate(variants):
            extras = summary.extras if variant is None else summary.extras[variant]
            assert sum(diverged[v :: len(variants)]) == extras["n_diverged"] == 1
            for name, stack in curves.items():
                stack = stack[v :: len(variants)]
                # the diverged instance holds its last recorded value to the end
                assert np.all(stack[1, self.KEPT:] == stack[1, self.KEPT - 1]), name
            # the others trained on
            s = curves["s"][v :: len(variants)]
            assert np.all(s[[0, 2], -1] != s[[0, 2], self.KEPT - 1])
        assert set(json.loads((out / "summary.json").read_text())) == OUTPUT_LAYOUTS[experiment][2]


class TestLockstep:
    # each relent ensemble at small sizes; hamlearn runs normalized and unnormalized teachers
    CASES = {
        "tomography-mixed": ("tomography", {"target_kind": "mixed"}),
        "tomography-pure": ("tomography", {"target_kind": "pure"}),
        "meanfield": ("meanfield", {"n_visible": "3"}),
        "hamlearn": ("hamlearn", {}),
    }

    @pytest.mark.parametrize("budget", ["default", "one row"])
    @pytest.mark.parametrize("case", CASES)
    def test_every_instance_is_train_bit_for_bit(self, monkeypatch, case, budget):
        experiment, settings = self.CASES[case]
        runs = []
        lockstep = experiments._train_lockstep
        monkeypatch.setattr(experiments, "_train_lockstep",
                            lambda *args: runs.append((args, lockstep(*args))) or runs[-1][1])
        if budget == "one row":
            monkeypatch.setattr(experiments, "CHUNK_ENTRIES", 1)
        config = make_config(experiment, settings, {"ensemble": "3", "epochs": "6"})
        run_experiment(config)
        # one lockstep run per chunk; hamlearn draws two rows per instance
        rows = config.ensemble * (2 if experiment == "hamlearn" else 1)
        assert [len(args[2]) for args, _ in runs] == ([1] * rows if budget == "one row" else [rows])
        for (model, theta0, targets, opt), (traces, states) in runs:
            assert_lockstep_matches_train(model, theta0, targets, opt, traces, states)

    # n=2: every instance in one chunk; n=7 (dim 128): one row per chunk
    @pytest.mark.parametrize("n_visible, ensemble", [(2, 4), (7, 2)])
    def test_hamlearn_rows_are_a_run_per_variant_bit_for_bit(self, n_visible, ensemble):
        config = make_config("hamlearn", {"n_visible": n_visible, "ensemble": ensemble, "epochs": "3"})
        opt = config.optimizer(gradient_kind="relent")
        curves, pairs, diverged = experiments._relent_ensemble(
            config, experiments._hamlearn_setup, config.n_visible, config.theta0_scale)
        summary = run_experiment(config)
        model = build_model("ti_complete", n_visible)
        for v, (name, normalize) in enumerate((("normalized", True), ("unnormalized", False))):
            finals = []
            for i in range(ensemble):
                # a draw of this variant alone, then train: what a run per variant gives
                rng = np.random.default_rng(child_seed(config.seed, i))
                [(theta_true, target)] = random_ti_teacher(model, (normalize,), rng)
                trace = train(model, config.theta0_scale * rng.standard_normal(model.n_terms), target, opt)
                row = 2 * i + v
                assert np.array_equal(curves["s"][row], -trace.objectives)
                assert np.array_equal(curves["dh"][row], [np.linalg.norm(assemble_hamiltonian(
                    model, th - theta_true)) for th in trace.thetas])
                # scored by ||H - H_true||, a teacher's row keeps no states
                assert pairs[row] is None and diverged[row] is False
                finals.append(-trace.objectives[-1])
            assert np.array_equal(summary.extras[name]["s_finals"], finals)

    def test_each_task_builds_its_models_once(self, monkeypatch):
        built, solves = [], []
        build = experiments.build_model
        monkeypatch.setattr(experiments, "build_model", lambda *args: built.append(args) or build(*args))
        eigh = datasets._eigh
        monkeypatch.setattr(datasets, "_eigh", lambda H: solves.append(H) or eigh(H))
        sizes = []
        lockstep = experiments._train_lockstep
        monkeypatch.setattr(experiments, "_train_lockstep",
                            lambda model, theta0, *args: sizes.append(len(theta0)) or lockstep(model, theta0, *args))
        run_experiment(make_config("hamlearn", {"ensemble": "3", "n_visible": "7", "epochs": "1"}))
        # a row of dim 128 fills the budget: six chunks of one row, one model, one teacher solve per instance
        assert built == [("ti_complete", 7)] and len(solves) == 3 and sizes == [1] * 6
        built.clear()
        sizes.clear()
        run_experiment(make_config("meanfield", {"ensemble": "50", "n_visible": "5", "epochs": "1"}))
        assert built == [("ti_complete", 5), ("mean_field", 5)]
        # consecutive chunks of at most 16 rows of dim 32
        assert sizes == [16, 16, 16, 2]


class TestPovmData:
    def test_one_training_set_per_n_visible(self, monkeypatch):
        built, logs = [], []
        post_init = PovmTrainingSet.__post_init__
        monkeypatch.setattr(PovmTrainingSet, "__post_init__",
                            lambda self: built.append(self.dim) or post_init(self))
        log = training.matrix_log_psd
        monkeypatch.setattr(training, "matrix_log_psd", lambda *args: logs.append(args) or log(*args))
        settings = {"n_visible_grid": "2,3", "n_hidden_grid": "0,1", "epochs": "2"}
        run_experiment(make_config("povm-train", settings))
        # both branches of every grid point and the maximum share one set per n_visible
        assert sorted(built) == [4, 8]
        # the GT logarithm of the one projector with P_v > 0, once per n_visible
        assert len(logs) == 2

    def test_rerun_writes_the_same_files(self, tmp_path):
        settings = {"n_visible_grid": "2,3", "n_hidden_grid": "0,1", "epochs": "3", "seed": "3"}
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"run{run}"
            run_experiment(make_config("povm-train", settings, {"out": str(out)}))
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert sorted(outputs[0]) == ["curves.csv", "summary.json"]
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("povm_kind", ["projector", "basis"])
    def test_summary_finals_are_the_last_curve_rows(self, povm_kind):
        settings = {"n_visible_grid": "2,3", "n_hidden_grid": "0,1", "epochs": "3", "povm_kind": povm_kind}
        _, files = experiments.run_povm_experiment(make_config("povm-train", settings))
        header, rows = files["curves.csv"]
        assert header[3:] == ("epoch", "objective", "delta_objective")
        last = {(nv, nh, model): (objective, delta) for nv, nh, model, epoch, objective, delta in rows if epoch == 3}
        points = files["summary.json"]["grid"]
        assert len(points) == 4 and len(last) == 8
        for point in points:
            for model, branch in (("fermionic", "quantum"), ("classical_bm", "classical")):
                objective, delta = last[point["n_visible"], point["n_hidden"], model]
                assert (point[f"final_{branch}"], point[f"final_delta_{branch}"]) == (objective, delta)


class TestSerializeHelpers:
    def test_format_cell(self):
        assert format_cell(True) == "True"
        assert format_cell(7) == "7"
        assert format_cell(0.1) == "0.1"
        assert format_cell(np.float64(0.1)) == "0.1"  # no numpy repr wrapper
        assert format_cell("step") == "step"

    def test_float_cells_round_trip(self, tmp_path):
        values = [1 / 3, 1e-17, 2.0**52 + 0.5, -0.0]
        path = tmp_path / "vals.csv"
        write_csv(path, ["x"], [[v] for v in values])
        lines = path.read_text().splitlines()
        assert lines[0] == "x"
        for raw, v in zip(lines[1:], values):
            assert float(raw) == v

    def test_csv_lf_endings(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["a", "b"], [[1, 2]])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_json_sorted_and_stable(self, tmp_path):
        p1, p2 = tmp_path / "1.json", tmp_path / "2.json"
        write_json(p1, {"b": 1, "a": np.float64(0.25), "c": np.arange(3)})
        write_json(p2, {"c": np.arange(3), "a": 0.25, "b": 1})
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text()) == {"a": 0.25, "b": 1, "c": [0, 1, 2]}

    def test_json_numpy_values(self, tmp_path):
        path = tmp_path / "np.json"
        write_json(path, {"flag": np.bool_(True), "n": np.int64(3), "m": np.eye(2), "x": (np.float64(0.1),)})
        assert json.loads(path.read_text()) == {"flag": True, "n": 3, "m": [[1.0, 0.0], [0.0, 1.0]], "x": [0.1]}
        for value in (np.float32(0.5), np.complex128(1j), object()):
            with pytest.raises(TypeError, match="not JSON serializable"):
                write_json(path, {"v": value})


# experiment -> (tiny settings, output file names, top-level keys of its
# summary.json or report.json). perfbench/check.py rejects a run whose
# summary gains or loses a key against its reference outputs.
OUTPUT_LAYOUTS = {
    "povm-train": (
        {"n_visible_grid": "2", "n_hidden_grid": "0", "epochs": "2"},
        {"curves.csv", "summary.json"},
        {"experiment", "metric", "grid", "quantum_beats_classical"},
    ),
    "tomography": (
        {"ensemble": "2", "epochs": "2"},
        {"curves.csv", "summary.json", "reconstructions.json"},
        {"experiment", "metric", "target_kind", "median_final", "finals", "n_diverged"},
    ),
    "hamlearn": (
        {"ensemble": "2", "epochs": "2"},
        {"curves.csv", "summary.json"},
        {"experiment", "n_visible", "median_final_s_normalized", "median_final_s_unnormalized",
         "median_final_dh_normalized", "median_final_dh_unnormalized"},
    ),
    "meanfield": (
        {"ensemble": "2", "epochs": "2", "n_visible": "2"},
        {"curves.csv", "summary.json", "instance_matrices.json"},
        {"experiment", "n_visible", "median_final_s", "median_final_overlap"},
    ),
    "commutator-compare": (
        {"n_visible": "2", "epochs": "2", "eta_grid": "0.1", "momentum_grid": "0"},
        {"curves.csv", "grid.csv", "summary.json"},
        {"experiment", "final_a", "final_b", "final_c", "switch_epoch", "best_eta",
         "best_momentum", "diverged_b"},
    ),
    "gradcheck": (
        {"ensemble": "1"},
        {"table.csv", "report.json"},
        {"table", "ksweep", "ok"},
    ),
    "variance-sweep": (
        {"n_repeats": "2", "n_samples_grid": "64,128"},
        {"variance.csv", "summary.json"},
        {"n_samples", "mse_small", "mse_big", "slope", "intercept", "ratio_mean",
         "n_terms_small", "n_terms_big"},
    ),
}


def _recording(config):
    """A copy of config that records, from now on, every attribute read on it."""

    class Recording(type(config)):
        def __getattribute__(self, name):
            reads = object.__getattribute__(self, "__dict__").get("reads")
            if reads is not None:
                reads.add(name)
            return object.__getattribute__(self, name)

    copy = Recording(**dataclasses.asdict(config))
    copy.reads = set()
    return copy


class TestOutputs:
    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_output_files_and_summary_keys(self, tmp_path, experiment):
        settings, names, keys = OUTPUT_LAYOUTS[experiment]
        out = tmp_path / experiment
        run_experiment(make_config(experiment, settings, {"out": str(out)}))
        assert {p.name for p in out.iterdir()} == names | {"manifest.json"}
        summary_name = "report.json" if experiment == "gradcheck" else "summary.json"
        assert set(json.loads((out / summary_name).read_text())) == keys
        # the manifest records exactly the settings the experiment reads
        assert set(json.loads((out / "manifest.json").read_text())["config"]) == _keys(experiment)

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_runner_reads_every_key(self, experiment):
        # a key the runner never reads would be a setting that silently does nothing
        config = _recording(make_config(experiment, OUTPUT_LAYOUTS[experiment][0]))
        EXPERIMENTS[experiment][1](config)
        assert _keys(experiment) - {"out"} <= config.reads

    def test_manifest_echoes_config(self, tmp_path):
        out = tmp_path / "run"
        cfg = make_config("tomography", {"ensemble": "3", "epochs": "4", "out": str(out)})
        run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "tomography"
        assert manifest["seed"] == cfg.seed
        assert manifest["config"]["epochs"] == 4
        # tomography always fits the complete Pauli family and never reads the key
        assert "family" not in manifest["config"]
        assert manifest["version"] == qbmlab.__version__

    def test_tomography_files(self, tmp_path):
        out = tmp_path / "tomo"
        run_experiment(make_config("tomography", {"ensemble": "3", "epochs": "4", "out": str(out)}))
        assert (out / "curves.csv").exists()
        assert (out / "summary.json").exists()
        recon = json.loads((out / "reconstructions.json").read_text())
        assert len(recon) == 3
        first = np.array(recon[0]["reconstruction"])
        assert first.shape == (4, 4, 2)  # real/imag pairs
        assert np.array(recon[0]["target"]).shape == (4, 4, 2)

    def test_tomography_reconstruction_reuses_the_final_evaluation(self, monkeypatch):
        fresh_gibbs = linalg.gibbs_state
        calls = []
        # experiments imports no gibbs_state now; the spy would catch one imported again
        for module in (experiments, linalg):
            monkeypatch.setattr(module, "gibbs_state", lambda H: calls.append(H) or fresh_gibbs(H),
                                raising=False)
        cfg = make_config("tomography", {"epochs": "3"})
        opt = cfg.optimizer(gradient_kind="relent")
        results = experiments._relent_task(experiments._tomography_setup, (cfg.n_visible, "mixed"), cfg.seed, opt, [0, 1])
        assert calls == []
        model = build_model("pauli_complete", cfg.n_visible)
        for i, (_, (_, sigma), _) in enumerate(results):
            # bit for bit what diagonalizing the final theta afresh gives
            target = random_mixed(cfg.n_visible, np.random.default_rng(child_seed(cfg.seed, i)))
            trace = train(model, np.zeros(model.n_terms), target, opt)
            assert np.array_equal(sigma, fresh_gibbs(assemble_hamiltonian(model, trace.final_theta))[0])

    def test_meanfield_overlaps_come_from_the_training_epochs(self, monkeypatch):
        calls, dtypes = [], []
        spy_on_solves(monkeypatch, calls, training, linalg)
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: dtypes.append(a.dtype) or eigh(a))
        cfg = make_config("meanfield", {"epochs": "4", "n_visible": "3"})
        opt = cfg.optimizer(gradient_kind="relent")
        indices = [0, 1, 2]
        results = experiments._relent_task(experiments._meanfield_setup, (cfg.n_visible,), cfg.seed, opt, indices)
        # one stacked solve of the chunk per epoch, none after training
        assert len(calls) == opt.epochs + 1
        assert all(H.shape[0] == len(indices) for H in calls)
        # the mean-field family has imaginary Y terms, but against real teachers from theta0 = 0
        # every Y gradient, hence every Y weight, is exactly 0: each teacher's solve and each
        # H(theta) take the real solver, except H(theta0) = 0, which is diagonal and takes none
        assert not any(H.imag.any() for H in calls) and not calls[0].any()
        assert dtypes == [np.dtype(np.float64)] * (len(indices) + opt.epochs)
        teachers = build_model("ti_complete", cfg.n_visible)
        student = build_model("mean_field", cfg.n_visible)
        for i, (curves, (rho, sigma), _) in zip(indices, results):
            # bit for bit what diagonalizing every recorded theta afresh gives
            [(_, target)] = random_ti_teacher(teachers, (False,), np.random.default_rng(child_seed(cfg.seed, i)))
            trace = train(student, np.zeros(student.n_terms), target, opt)
            fresh = [linalg.gibbs_state(assemble_hamiltonian(student, th))[0] for th in trace.thetas]
            assert np.array_equal(curves["overlap"], [linalg._traces(rho, s) for s in fresh])
            assert np.array_equal(sigma, fresh[-1])

    def test_commutator_compare_reuses_schedule_a(self, monkeypatch):
        runs, stacks = [], []
        monkeypatch.setattr(experiments, "train",
                            lambda *args, **kw: runs.append(args[3]) or train(*args, **kw))
        lockstep = experiments._train_lockstep
        monkeypatch.setattr(experiments, "_train_lockstep", lambda *args: stacks.append(args[3]) or lockstep(*args))
        config = make_config("commutator-compare", {"n_visible": "3", "epochs": "8"})
        _, files = experiments.run_commutator_compare(config)
        # one GT stack: A's row, then the 14 grid points other than A's own; B's commutator phase is one train
        assert [opt.gradient_kind for opt in runs] == ["commutator"]
        [opts] = stacks
        assert len(opts) == len(set(opts)) == 15 and opts[0] == config.optimizer(gradient_kind="gt")
        # every curve and grid value is what training each schedule and grid point alone gives
        data = experiments._step_povm(config.n_visible, config.noise_p, config.povm_kind)
        model = build_model(config.family, config.n_visible)
        rng = np.random.default_rng(child_seed(config.seed, 0))
        theta0 = config.theta0_scale * rng.standard_normal(model.n_terms)
        first = 4
        b1 = train(model, theta0, data, config.optimizer(gradient_kind="gt", epochs=first))
        b2 = train(model, b1.final_theta, data,
                   config.optimizer(gradient_kind="commutator", epochs=8 - first))
        grid = {(eta, mu): experiments._pad_curve(train(model, theta0, data, config.optimizer(
                    gradient_kind="gt", learning_rate=eta, momentum=mu)).objectives, 9)
                for eta in config.grid("eta_grid", float) for mu in config.grid("momentum_grid", float)}
        best = max(grid.values(), key=lambda curve: curve[-1])
        rows = files["curves.csv"][1]
        assert [row[1] for row in rows] == list(grid[config.learning_rate, config.momentum])
        assert [row[2] for row in rows] == list(b1.objectives) + list(b2.objectives[1:])
        assert [row[3] for row in rows] == list(best)
        assert files["grid.csv"][1] == [(eta, mu, float(curve[-1])) for (eta, mu), curve in grid.items()]

    def test_curves_csv_shape(self, tmp_path):
        out = tmp_path / "tomo2"
        run_experiment(make_config("tomography", {"ensemble": "3", "epochs": "4", "out": str(out)}))
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0].split(",")[0] == "epoch"
        assert len(lines) == 1 + 5  # epochs 0..4

    def test_rerun_byte_identical(self, tmp_path):
        out = tmp_path / "det"
        cfg = {"ensemble": "3", "epochs": "4", "out": str(out)}
        run_experiment(make_config("tomography", cfg))
        snapshot = {p.name: p.read_bytes() for p in out.iterdir()}
        run_experiment(make_config("tomography", cfg))
        after = {p.name: p.read_bytes() for p in out.iterdir()}
        assert snapshot == after


class TestCli:
    def test_parser_has_all_subcommands(self):
        parser = build_parser()
        # argparse keeps subparser choices on the action
        sub = next(a for a in parser._actions if hasattr(a, "choices") and a.choices)
        assert set(EXPERIMENTS) == set(sub.choices)

    def test_main_runs_and_writes(self, tmp_path, capsys):
        out = tmp_path / "cli"
        code = main(
            ["tomography", "--ensemble", "3", "--seed", "2", "--out", str(out), "--set", "epochs=4"]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        assert "median final" in capsys.readouterr().out

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 4\nensemble = 3\nseed = 9\n")
        out = tmp_path / "o"
        code = main(["tomography", "--config", str(cfg), "--seed", "2", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2  # flag beats file
        assert manifest["config"]["epochs"] == 4  # file beats default

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs = 4\n")
        out = tmp_path / "o2"
        code = main(
            ["tomography", "--config", str(cfg), "--set", "epochs=6", "--ensemble", "3", "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["epochs"] == 6

    def test_bad_key_exit_code(self, capsys):
        for pair in ("nope=1", "n_samples=64"):
            assert main(["tomography", "--set", pair]) == 2
            assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["relent", "relent_sampled"])
    def test_povm_train_rejects_state_gradient_kind(self, capsys, kind):
        assert main(["povm-train", "--set", f"gradient_kind={kind}", "--set", "epochs=1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "povm-train" in err and kind in err

    @pytest.mark.parametrize("argv", [
        ["hamlearn", "--ensemble", "1", "--set", "epochs=1", "--set", "family=fermionic",
         "--set", "gradient_kind=gt", "--set", "n_hidden=2"],
        ["tomography", "--set", "lam=5"],
        ["povm-train", "--ensemble", "3"],
        ["povm-train", "--jobs", "2"],
        ["povm-train", "--set", "jobs=2"],
    ])
    def test_ignored_key_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        assert main(argv + ["--out", str(out)]) == 2
        assert "does not read config key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["tomography", "--set", "momentum=1.5", "--ensemble", "1"],
        ["povm-train", "--set", "commutator_order=20", "--set", "epochs=1"],
        # the order is read by the commutator gradient alone, so with gt it would not take effect
        ["povm-train", "--set", "commutator_order=9"],
        ["povm-train", "--set", "commutator_order=9", "--set", "gradient_kind=exact"],
        ["povm-train", "--set", "noise_p=0.7", "--set", "epochs=1"],
        ["povm-train", "--set", "n_visible_grid=", "--set", "epochs=1"],
        ["povm-train", "--set", "n_visible_grid=1", "--set", "epochs=1"],
        ["commutator-compare", "--set", "eta_grid=abc"],
        ["commutator-compare", "--set", "eta_grid=0", "--set", "epochs=2"],
        ["commutator-compare", "--set", "momentum_grid=0,1"],
        ["commutator-compare", "--set", "family=ti_complete", "--set", "n_hidden=1"],
        # the switch would fall on the last epoch (round(2.7) = 3), or after it
        ["commutator-compare", "--set", "epochs=3", "--set", "switch_fraction=0.9"],
        ["commutator-compare", "--set", "epochs=1"],
        ["variance-sweep", "--set", "n_samples_grid=0"],
        ["variance-sweep", "--set", "n_samples_grid=64"],
        ["variance-sweep", "--set", "n_repeats=0"],
        ["variance-sweep", "--set", "n_visible=7"],
        ["hamlearn", "--set", "n_visible=20", "--ensemble", "1", "--set", "epochs=1"],
        ["tomography", "--set", "n_visible=7", "--ensemble", "1"],
        ["tomography", "--seed", "-1", "--ensemble", "1"],
        ["meanfield", "--jobs", "0"],
        ["gradcheck", "--set", "lam=-1"],
        ["meanfield", "--set", "learning_rate=-1"],
        ["hamlearn", "--set", "epochs=0"],
        ["gradcheck", "--set", "lam=nan"],
        ["tomography", "--set", "learning_rate=nan", "--ensemble", "1"],
        ["hamlearn", "--set", "theta0_scale=inf", "--ensemble", "1"],
        ["commutator-compare", "--set", "eta_grid=0.1,nan"],
        ["tomography", "--set", "epochs"],
    ])
    def test_invalid_value_exits_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("qbmlab: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_povm_train_reads_commutator_order_with_the_commutator_gradient(self):
        config = make_config("povm-train", {"gradient_kind": "commutator", "commutator_order": "9"})
        assert config.optimizer().commutator_order == 9
        assert make_config("povm-train", {"commutator_order": "5"}).commutator_order == 5

    # at 1e150 the commutator gradient is not finite at A's switch theta; at 1e300 A diverges
    # at epoch 1, before the switch, so B is A
    @pytest.mark.parametrize("rate", ["1e150", "1e300"])
    def test_commutator_compare_b_diverged_holds_a_at_the_switch(self, tmp_path, capsys, rate):
        out = tmp_path / "cc"
        argv = ["commutator-compare", "--set", "n_visible=3", "--set", "epochs=20",
                "--set", f"learning_rate={rate}", "--seed", "0", "--out", str(out)]
        assert main(argv) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged_b"] is True and summary["switch_epoch"] == 10
        rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()[1:]]
        a, b = [float(row[1]) for row in rows], [float(row[2]) for row in rows]
        assert b[:11] == a[:11] and b[11:] == [a[10]] * 10
        assert summary["final_b"] == a[10]

    def test_training_diverged_at_epoch_0_exits_2_with_one_line(self, tmp_path, capsys):
        # H(theta0) is finite at this scale, but no row's objective or gradient is
        out = tmp_path / "cc"
        argv = ["commutator-compare", "--set", "theta0_scale=1e300", "--set", "epochs=4", "--seed", "0"]
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == "qbmlab: training diverged before the first epoch completed\n"
        assert list(out.iterdir()) == []

    def test_hamlearn_dh_finite_at_a_huge_theta0_scale(self, tmp_path, capsys):
        # ||H(theta - theta_true)||_F is near 3e300 here: its squares overflow, the norm does not
        out = tmp_path / "hl"
        argv = ["hamlearn", "--set", "theta0_scale=1e300", "--set", "epochs=2", "--ensemble", "2", "--seed", "0"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 0
        capsys.readouterr()
        summary = json.loads((out / "summary.json").read_text())
        assert 1e299 < summary["median_final_dh_normalized"] < np.inf
        header, *rows = [line.split(",") for line in (out / "curves.csv").read_text().splitlines()]
        assert header[1] == "metric" and header[3:] == list(experiments.PERCENTILE_LABELS)
        dh = [float(value) for row in rows if row[1] == "dh" for value in row[3:]]
        assert len(dh) == 2 * 3 * 5 and np.isfinite(dh).all()

    def test_frobenius_norm_rescales_exactly(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert experiments._frobenius_norm(a) == np.linalg.norm(a)
        # squares of entries near 1e301 overflow; a power-of-two scale is exact in the norm
        assert experiments._frobenius_norm(a * 2.0**1000) == np.linalg.norm(a) * 2.0**1000
        assert np.isnan(experiments._frobenius_norm(np.array([np.nan, 1e300])))

    def test_bad_value_exit_code(self, tmp_path, capsys):
        assert main(["tomography", "--set", "epochs=ten"]) == 2
        assert capsys.readouterr().err == "qbmlab: epochs must be an int, got 'ten'\n"
        assert main(["tomography", "--set", "learning_rate=fast"]) == 2
        assert capsys.readouterr().err == "qbmlab: learning_rate must be a float, got 'fast'\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# header\nepochs = ten\n")
        assert main(["tomography", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"qbmlab: {cfg}:2: epochs must be an int, got 'ten'\n"

    def test_out_naming_a_file_exits_2_before_the_run(self, tmp_path, monkeypatch, capsys):
        runs = []
        config_class, run = EXPERIMENTS["tomography"]
        monkeypatch.setitem(EXPERIMENTS, "tomography", (config_class, lambda config: runs.append(config) or run(config)))
        out = tmp_path / "a_file"
        out.write_text("kept\n")
        assert main(["tomography", "--ensemble", "3", "--set", "epochs=3", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qbmlab: ") and err.count("\n") == 1 and str(out) in err
        assert runs == [] and out.read_text() == "kept\n"

    def test_missing_config_file_exit_code(self, capsys):
        assert main(["tomography", "--config", "/no/such/file.cfg"]) == 2
        capsys.readouterr()

    def test_gradcheck_passes(self, capsys):
        code = main(["gradcheck", "--ensemble", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        assert "monotone from order 2: True" in out


def _readme():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_section(start, end):
    """README.md from the heading `start` up to the heading `end`."""
    text = _readme()
    return text[text.index(start):text.index(end)]


def _readme_cli_examples():
    """(argv lists, (experiment, config-file text)) from README's CLI section."""
    section = _readme_section("## CLI", "## Library use")
    commands = [
        shlex.split(line.split("&&")[0])[1:]
        for block in re.findall(r"```sh\n(.*?)```", section, re.S)
        for line in block.splitlines()
        if line.startswith("qbmlab ")
    ]
    config_text = re.search(r"```ini\n(.*?)```", section, re.S).group(1)
    # the example's leading comment names its experiment
    experiment = config_text.lstrip("# ").split()[0]
    return commands, (experiment, config_text)


class TestReadme:
    @pytest.fixture
    def stub_runs(self, monkeypatch):
        configs = []
        report = dict(table=[], ksweep=dict(mean_errors=[], monotone_from_2=True), ok=True,
                      slope=-1.0, ratio_mean=2.0, n_terms_big=2, n_terms_small=1)

        def record(config):
            configs.append(config)
            return report

        monkeypatch.setattr(qbmlab.cli, "run_experiment", record)
        return configs

    def test_cli_examples_resolve(self, stub_runs, capsys):
        commands, _ = _readme_cli_examples()
        assert len(commands) >= 5
        for argv in commands:
            assert main(argv) == 0, (argv, capsys.readouterr().err)
        assert [c.experiment for c in stub_runs] == [argv[0] for argv in commands]

    def test_config_file_example_resolves(self, stub_runs, tmp_path, capsys):
        _, (experiment, config_text) = _readme_cli_examples()
        path = tmp_path / "example.cfg"
        path.write_text(config_text)
        assert main([experiment, "--config", str(path)]) == 0, capsys.readouterr().err
        assert stub_runs[0].experiment == experiment

    def test_dotted_names_resolve(self):
        text = re.sub(r"```.*?```", "", _readme(), flags=re.S)  # inline code spans only
        names = {name for span in re.findall(r"`([^`]+)`", text)
                 for name in re.findall(r"\bqbmlab(?:\.\w+)+", span)}
        assert len(names) >= 5
        for name in sorted(names):
            parts = name.split(".")
            # the longest importable module prefix, then attributes below it
            for split in range(len(parts), 0, -1):
                try:
                    target = importlib.import_module(".".join(parts[:split]))
                    break
                except ModuleNotFoundError:
                    continue
            for attribute in parts[split:]:
                assert hasattr(target, attribute), name
                target = getattr(target, attribute)

    def test_library_use_example_runs(self, capsys):
        section = _readme_section("## Library use", "## Reproducibility")
        code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
        namespace = {}
        exec(compile(code, "README.md", "exec"), namespace)
        objective, diverged = capsys.readouterr().out.split()
        assert diverged == "False" and float(objective) == namespace["trace"].objectives[-1]
        assert np.isclose(np.trace(namespace["rho"]), 1.0)
        assert namespace["bounds"].shape == (3,)
