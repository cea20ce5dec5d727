"""Experiment runner plumbing: configs, ensembles, CLI, output files."""

import dataclasses
import json
import os
import re
import shlex

import numpy as np
import pytest

import qbmlab.cli
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
        assert counts == {"povm-train": 14, "tomography": 9, "hamlearn": 9, "meanfield": 8,
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
        path = tmp_path / "bad.cfg"
        path.write_text("epochs 12\n")
        with pytest.raises(ValueError):
            parse_config_file(path)


class TestEnsembleSummary:
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

    # every experiment that dispatches to a process pool, at small settings
    POOLED = {
        "povm-train": {"n_visible_grid": "2,3", "n_hidden_grid": "0,1", "epochs": "3"},
        "tomography": {"ensemble": "4", "epochs": "3"},
        "hamlearn": {"ensemble": "3", "epochs": "3"},
        "meanfield": {"ensemble": "3", "epochs": "3", "n_visible": "3"},
    }

    @pytest.mark.parametrize("experiment", list(POOLED))
    def test_job_count_does_not_change_output_files(self, tmp_path, experiment):
        outputs = []
        for jobs in (1, 2):
            out = tmp_path / f"jobs{jobs}"
            run_experiment(make_config(experiment, self.POOLED[experiment], {"jobs": jobs, "out": str(out)}))
            outputs.append({p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"})
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]


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

        def diverge_second(*args, **kw):
            trace = train(*args, **kw)
            if len(calls) % ensemble == 1:
                trace.records, trace.diverged = trace.records[: self.KEPT], True
            calls.append(trace)
            return trace

        ensemble_run = experiments._relent_ensemble
        monkeypatch.setattr(experiments, "train", diverge_second)
        monkeypatch.setattr(experiments, "_relent_ensemble",
                            lambda *args, **kw: stacks.append(ensemble_run(*args, **kw)) or stacks[-1])
        settings = dict(OUTPUT_LAYOUTS[experiment][0], ensemble=str(ensemble), epochs="4")
        out = tmp_path / experiment
        summary = run_experiment(make_config(experiment, settings, {"out": str(out)}))
        assert len(calls) == ensemble * len(variants)
        for variant, (curves, _, n_diverged) in zip(variants, stacks):
            extras = summary.extras if variant is None else summary.extras[variant]
            assert n_diverged == extras["n_diverged"] == 1
            for name, stack in curves.items():
                # the diverged instance holds its last recorded value to the end
                assert np.all(stack[1, self.KEPT:] == stack[1, self.KEPT - 1]), name
            # the others trained on
            assert np.all(curves["s"][[0, 2], -1] != curves["s"][[0, 2], self.KEPT - 1])
        assert set(json.loads((out / "summary.json").read_text())) == OUTPUT_LAYOUTS[experiment][2]


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
        # the GT logarithm of the one projector with P_v > 0, once per (n_visible, n_hidden)
        assert len(logs) == 4


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
        assert "version" in manifest

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
        seed_seq = child_seed(cfg.seed, 0)
        opt = cfg.optimizer(gradient_kind="relent")
        _, (_, sigma), _ = experiments._relent_instance(
            (experiments._tomography_setup, (cfg.n_visible, "mixed"), seed_seq, opt, True))
        assert calls == []
        # bit for bit what diagonalizing the final theta afresh gives
        target = random_mixed(cfg.n_visible, np.random.default_rng(seed_seq))
        model = build_model("pauli_complete", cfg.n_visible)
        trace = train(model, np.zeros(model.n_terms), target, opt)
        assert np.array_equal(sigma, fresh_gibbs(assemble_hamiltonian(model, trace.final_theta))[0])

    def test_meanfield_overlaps_come_from_the_training_epochs(self, monkeypatch):
        decompose = linalg.hermitian_eigendecompose
        calls = []
        for module in (training, linalg):
            monkeypatch.setattr(module, "hermitian_eigendecompose",
                                lambda H: calls.append(H) or decompose(H))
        cfg = make_config("meanfield", {"epochs": "4", "n_visible": "3"})
        seed_seq = child_seed(cfg.seed, 0)
        opt = cfg.optimizer(gradient_kind="relent")
        curves, (rho, sigma), _ = experiments._relent_instance(
            (experiments._meanfield_setup, (cfg.n_visible,), seed_seq, opt, True))
        overlaps = curves["overlap"]
        # one eigh per epoch, none after training
        assert len(calls) == opt.epochs + 1
        # bit for bit what diagonalizing every recorded theta afresh gives
        _, _, target = random_ti_teacher(cfg.n_visible, False, np.random.default_rng(seed_seq))
        student = build_model("mean_field", cfg.n_visible)
        trace = train(student, np.zeros(student.n_terms), target, opt)
        fresh = [linalg.gibbs_state(assemble_hamiltonian(student, th))[0] for th in trace.thetas]
        assert np.array_equal(overlaps, [linalg.expectation_value(rho, s) for s in fresh])
        assert np.array_equal(sigma, fresh[-1])

    def test_commutator_compare_reuses_schedule_a(self, monkeypatch):
        settings = {"n_visible": "2", "epochs": "6", "eta_grid": "0.05,0.1", "momentum_grid": "0,0.5"}
        runs = []
        monkeypatch.setattr(experiments, "train",
                            lambda *args, **kw: runs.append(args[3]) or train(*args, **kw))
        config = make_config("commutator-compare", settings)
        _, files = experiments.run_commutator_compare(config)
        # A, B's commutator phase and the three grid points other than A's own
        assert [opt.gradient_kind for opt in runs] == ["gt", "commutator", "gt", "gt", "gt"]
        assert len(set(runs)) == 5
        # every curve and grid value is what training each schedule afresh gives
        data = experiments._step_povm(config.n_visible, config.noise_p, config.povm_kind)
        model = build_model(config.family, config.n_visible)
        rng = np.random.default_rng(child_seed(config.seed, 0))
        theta0 = config.theta0_scale * rng.standard_normal(model.n_terms)
        first = 3
        b1 = train(model, theta0, data, config.optimizer(gradient_kind="gt", epochs=first))
        b2 = train(model, b1.final_theta, data,
                   config.optimizer(gradient_kind="commutator", epochs=6 - first))
        grid = {(eta, mu): train(model, theta0, data, config.optimizer(
                    gradient_kind="gt", learning_rate=eta, momentum=mu)).objectives
                for eta in (0.05, 0.1) for mu in (0.0, 0.5)}
        rows = files["curves.csv"][1]
        assert [row[1] for row in rows] == list(grid[0.1, 0.0])
        assert [row[2] for row in rows] == list(b1.objectives) + list(b2.objectives[1:])
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
    ])
    def test_ignored_key_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        assert main(argv + ["--out", str(out)]) == 2
        assert "does not read config key" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["tomography", "--set", "momentum=1.5", "--ensemble", "1"],
        ["povm-train", "--set", "commutator_order=20", "--set", "epochs=1"],
        ["povm-train", "--set", "noise_p=0.7", "--set", "epochs=1"],
        ["povm-train", "--set", "n_visible_grid=", "--set", "epochs=1"],
        ["povm-train", "--set", "n_visible_grid=1", "--set", "epochs=1"],
        ["commutator-compare", "--set", "eta_grid=abc"],
        ["commutator-compare", "--set", "eta_grid=0", "--set", "epochs=2"],
        ["commutator-compare", "--set", "momentum_grid=0,1"],
        ["commutator-compare", "--set", "family=ti_complete", "--set", "n_hidden=1"],
        ["variance-sweep", "--set", "n_samples_grid=0"],
        ["variance-sweep", "--set", "n_samples_grid=64"],
        ["variance-sweep", "--set", "n_repeats=0"],
        ["variance-sweep", "--set", "n_visible=7"],
        ["hamlearn", "--set", "n_visible=20", "--ensemble", "1", "--set", "epochs=1"],
        ["tomography", "--set", "n_visible=7", "--ensemble", "1"],
        ["meanfield", "--jobs", "0"],
        ["gradcheck", "--set", "lam=-1"],
        ["meanfield", "--set", "learning_rate=-1"],
        ["hamlearn", "--set", "epochs=0"],
        ["gradcheck", "--set", "lam=nan"],
        ["tomography", "--set", "learning_rate=nan", "--ensemble", "1"],
        ["hamlearn", "--set", "theta0_scale=inf", "--ensemble", "1"],
        ["commutator-compare", "--set", "eta_grid=0.1,nan"],
    ])
    def test_invalid_value_exits_2_with_one_line(self, tmp_path, capsys, argv):
        out = tmp_path / "never"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("qbmlab: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_bad_value_exit_code(self, capsys):
        assert main(["tomography", "--set", "epochs=ten"]) == 2
        capsys.readouterr()

    def test_missing_config_file_exit_code(self, capsys):
        assert main(["tomography", "--config", "/no/such/file.cfg"]) == 2
        capsys.readouterr()

    def test_gradcheck_passes(self, capsys):
        code = main(["gradcheck", "--ensemble", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "gradcheck passed" in out
        assert "monotone from order 2: True" in out


def _readme_cli_examples():
    """(argv lists, (experiment, config-file text)) from README's CLI section."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    section = text[text.index("## CLI"):text.index("## Library use")]
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
