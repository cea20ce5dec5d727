"""Tests of the benchmark itself: exact counters and the correctness check.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import check_call, compare, digest  # noqa: E402
from tracer import COUNTER_METRICS  # noqa: E402

# Small calls that between them reach every traced layer, the process-pool
# dispatcher included.
SMALL_CALLS = [
    ["meanfield", "--ensemble", "3", "--set", "n_visible=3", "--set", "epochs=3"],
    ["tomography", "--ensemble", "4", "--jobs", "2", "--set", "epochs=2"],
    ["povm-train", "--set", "n_visible_grid=3", "--set", "n_hidden_grid=0,1",
     "--set", "epochs=3"],
    ["commutator-compare", "--set", "n_visible=3", "--set", "epochs=4",
     "--set", "eta_grid=0.1", "--set", "momentum_grid=0"],
    ["gradcheck", "--ensemble", "1"],
    ["variance-sweep", "--set", "n_repeats=2", "--set", "n_samples_grid=64,128"],
]


def _traced_pass(tmp_path, label):
    pass_dir = tmp_path / label
    pass_dir.mkdir()
    spec = dict(
        models=[["fermionic", 3, 1], ["mean_field", 3, 0]],
        calls=[argv + ["--seed", "3", "--out", str(pass_dir / f"call-{i}")]
               for i, argv in enumerate(SMALL_CALLS)],
        trace=True,
        run_id=label,
        result_path=str(pass_dir / "result.json"),
        spans_path=str(pass_dir / "spans.json"),
    )
    (pass_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run([sys.executable, os.path.join(BENCH, "child.py"), str(pass_dir / "spec.json")],
                   cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=300)
    result = json.loads((pass_dir / "result.json").read_text())
    spans = json.loads((pass_dir / "spans.json").read_text())
    return result, spans


def test_two_traced_runs_give_identical_counters(tmp_path):
    # Labels of equal length: the manifest records the --out path.
    first, spans = _traced_pass(tmp_path, "pass-1")
    second, _ = _traced_pass(tmp_path, "pass-2")
    assert first["returncodes"] == [0] * len(SMALL_CALLS)
    counters = {k: first["layers"][k] for k in COUNTER_METRICS}
    assert counters == {k: second["layers"][k] for k in COUNTER_METRICS}
    assert first["eigh_per_epoch_by_experiment"] == second["eigh_per_epoch_by_experiment"]

    layers = first["layers"]
    for name in ("linalg.eigh.calls", "linalg.gibbs_state.calls", "linalg.matrix_log_psd.calls",
                 "operators.assemble_hamiltonian.calls", "operators.build_model.calls",
                 "datasets.targets.calls", "training.term_expectations.calls",
                 "training.train.calls", "serialize.write.calls",
                 "training.grad.gt.calls", "training.grad.exact.calls",
                 "training.grad.commutator.calls", "training.grad.relent.calls",
                 "training.grad.relent_sampled.calls", "training.objective.povm_exact.calls",
                 "training.objective.povm_gt.calls", "training.objective.relent.calls",
                 "linalg.von_neumann_entropy.calls", "linalg.eigh.work_d3",
                 "training.term_expectations.bytes", "operators.term_bytes",
                 "serialize.write.bytes"):
        assert layers[name] > 0, name
    # Monitor plus gradient, once per epoch, in every training run.
    assert layers["training.evals_per_epoch"] == 2.0
    # fermionic 3+1: 35 terms at dim 16, each held as a term matrix and in the stack.
    assert layers["operators.term_bytes"] == 2 * 35 * 16 * 16 * 16
    # The tomography pool ran in workers, so its time shows as waiting.
    assert layers["experiments.dispatch.wait_s"] > 0
    assert layers["experiments.workers.cpu_s"] > 0

    names = spans["names"]
    roots = [s for s in spans["spans"] if s[3] == -1]
    assert {names[s[0]] for s in roots} == {"experiments.run"}
    assert all(s[1] <= s[2] for s in spans["spans"])


def _run(argv, out):
    import qbmlab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        assert qbmlab.cli.main(argv + ["--out", str(out)]) == 0


@pytest.fixture(scope="module")
def references():
    with open(os.path.join(BENCH, "references.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_check_accepts_reference_and_rejects_fewer_epochs_or_other_optimum(tmp_path, references):
    argv = ["tomography", "--jobs", "1", "--set", "target_kind=mixed", "--set", "epochs=5"]
    _run(argv + ["--seed", "0"], tmp_path / "same")
    assert check_call(argv, str(tmp_path / "same"), 0, references, 0) == []

    shorter = ["tomography", "--set", "target_kind=mixed", "--set", "epochs=4"]
    _run(shorter + ["--seed", "0"], tmp_path / "shorter")
    problems = check_call(argv, str(tmp_path / "shorter"), 0, references, 0)
    assert any("rows:curves.csv" in p for p in problems)

    # Seed 1's outputs judged as seed 0's: another optimum.
    _run(argv + ["--seed", "1"], tmp_path / "other")
    assert check_call(argv, str(tmp_path / "other"), 0, references, 0)
    # For a seed without references only invariants apply, and they hold.
    assert check_call(argv, str(tmp_path / "other"), 10_000, references, 0) == []


def test_compare_tolerates_rounding_only(tmp_path):
    _run(["variance-sweep", "--set", "n_repeats=2", "--seed", "0"], tmp_path / "v")
    values = digest("variance-sweep", str(tmp_path / "v"))
    slope = values["summary.json:slope"]
    assert compare(dict(values, **{"summary.json:slope": slope * (1 + 1e-12)}), values) == []
    assert compare(dict(values, **{"summary.json:slope": slope * (1 + 1e-4)}), values)
