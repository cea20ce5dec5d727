"""Experiment runner plumbing: configs, ensembles, CLI, output files."""

import dataclasses
import json

import numpy as np
import pytest

from qbmlab.cli import build_parser, main
from qbmlab.experiments import (
    DEFAULTS,
    EXPERIMENTS,
    EnsembleSummary,
    ExperimentConfig,
    READS,
    make_config,
    parse_config_file,
    percentile_curves,
    run_experiment,
)
from qbmlab.serialize import format_cell, write_csv, write_json


class TestConfig:
    def test_every_experiment_has_defaults(self):
        for name in EXPERIMENTS:
            cfg = make_config(name)
            assert cfg.experiment == name
            assert cfg.ensemble >= 1

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

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_every_read_key_accepted(self, experiment):
        # each key set to its resolved value: explicit, valid, and read
        resolved = make_config(experiment)
        keys = READS[experiment] | {"seed", "out"}
        cfg = make_config(experiment, {key: getattr(resolved, key) for key in keys})
        assert cfg == resolved

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_keys_an_experiment_ignores_are_rejected(self, experiment):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)} - {"experiment"}
        ignored = fields - READS[experiment] - {"seed", "out"}
        assert ignored
        resolved = make_config(experiment)
        for key in ignored:
            # even the value the experiment would have used
            with pytest.raises(ValueError, match=f"does not read config key.*{key}"):
                make_config(experiment, {key: getattr(resolved, key)})

    def test_optimizer_view(self):
        cfg = make_config("povm-train")
        opt = cfg.optimizer()
        assert opt.gradient_kind == DEFAULTS["povm-train"]["gradient_kind"]
        assert opt.epochs == cfg.epochs
        opt2 = cfg.optimizer(epochs=3)
        assert opt2.epochs == 3

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


class TestOutputs:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_output_files_and_summary_keys(self, tmp_path, experiment):
        settings, names, keys = OUTPUT_LAYOUTS[experiment]
        out = tmp_path / experiment
        run_experiment(make_config(experiment, settings, {"out": str(out)}))
        assert {p.name for p in out.iterdir()} == names | {"manifest.json"}
        summary_name = "report.json" if experiment == "gradcheck" else "summary.json"
        assert set(json.loads((out / summary_name).read_text())) == keys

    def test_manifest_echoes_config(self, tmp_path):
        out = tmp_path / "run"
        cfg = make_config("tomography", {"ensemble": "3", "epochs": "4", "out": str(out)})
        run_experiment(cfg)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "tomography"
        assert manifest["seed"] == cfg.seed
        assert manifest["config"]["epochs"] == 4
        assert manifest["config"]["family"] == "pauli_complete"
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
        assert set(EXPERIMENTS) <= set(sub.choices)

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
