"""qbmlab benchmark: run one workload (or all) and report its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

One run is a closed loop with one client: this process starts one fresh
Python process per pass (``child.py``), waits for it, checks its outputs,
and starts the next, until ``--seconds`` have elapsed. Each pass makes the
workload's CLI calls once. End-to-end metrics are medians over the passes
made with tracing off. With ``--trace 1`` passes alternate between tracing
off and on, and the per-layer metrics are medians over the traced passes.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from check import check_call  # noqa: E402
from tracer import COUNTER_METRICS  # noqa: E402
from workloads import available_cores, workloads  # noqa: E402

# A run must end within 180 s; no pass may start a wait beyond this.
RUN_DEADLINE_S = 170.0
# At least two passes, so that set-up is timed more than once and, when
# tracing, one pass runs traced and one untraced.
MIN_PASSES = 2
MAX_PROBLEMS_SHOWN = 5
# Counts derived from array shapes, not measured by hardware counters.
COMPUTED_METRICS = ("linalg.eigh.work_d3", "training.term_expectations.bytes",
                    "operators.term_bytes")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def environment() -> dict:
    """What the numbers depend on. BLAS thread variables are recorded, never set."""
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass

    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True,
                                 timeout=10, check=True).stdout.strip()
            return int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            return None

    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git failed)"
    return dict(
        python=platform.python_version(),
        numpy=np.__version__,
        blas_name=blas.get("name"),
        blas_version=blas.get("version"),
        blas_config=blas.get("openblas configuration"),
        blas_thread_vars={k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        cpu_count=os.cpu_count(),
        cpu_affinity=sorted(os.sched_getaffinity(0)),
        l2_cache_bytes=getconf("LEVEL2_CACHE_SIZE"),
        l3_cache_bytes=getconf("LEVEL3_CACHE_SIZE"),
        git_commit=commit,
    )


def _median(values):
    return statistics.median(values) if values else None


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


class Runner:
    """Runs passes of one workload in fresh processes and collects their results."""

    def __init__(self, name: str, spec: dict, seed: int, work_dir: str, references: dict):
        self.name = name
        self.seed = seed
        self.calls = [argv + ["--seed", str(seed)] for argv in spec["calls"]]
        self.models = spec["models"]
        self.work_dir = work_dir
        self.references = references
        self.started = time.monotonic()
        src = os.path.join(ROOT, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def _child(self, spec: dict, pass_dir: str) -> int:
        spec_path = os.path.join(pass_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        with open(os.path.join(pass_dir, "stderr.txt"), "wb") as err:
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=err,
                start_new_session=True,
            )
            try:
                return proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                return -signal.SIGKILL

    def warm_up(self) -> None:
        """Import once, untimed, so the first pass does not pay for byte-compiling."""
        pass_dir = os.path.join(self.work_dir, "warm-up")
        os.makedirs(pass_dir)
        self._child(dict(models=[], calls=[], trace=False, run_id="warm-up",
                         result_path=os.path.join(pass_dir, "result.json"),
                         spans_path=""), pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)

    def run_pass(self, index: int, traced: bool, spans_path: str) -> dict:
        pass_dir = os.path.join(self.work_dir, f"pass-{index:03d}")
        os.makedirs(pass_dir)
        # Relative, fixed-width paths: the manifest records --out, so this
        # keeps serialize.write.bytes the same in every pass and checkout.
        out_dirs = [os.path.relpath(os.path.join(pass_dir, f"call-{i}"), ROOT)
                    for i in range(len(self.calls))]
        spec = dict(
            models=self.models,
            calls=[argv + ["--out", out] for argv, out in zip(self.calls, out_dirs)],
            trace=traced,
            run_id=f"{self.name}-seed{self.seed}-pass{index}-{os.getpid()}",
            result_path=os.path.join(pass_dir, "result.json"),
            spans_path=spans_path,
        )
        code = self._child(spec, pass_dir)
        record = dict(traced=traced, problems=[])
        if code != 0:
            with open(os.path.join(pass_dir, "stderr.txt"), encoding="utf-8",
                      errors="replace") as fh:
                tail = fh.read()[-2000:]
            record["problems"].append(f"pass process exited with {code}: {tail}")
        else:
            with open(spec["result_path"], encoding="utf-8") as fh:
                record.update(json.load(fh))
            for argv, out, rc in zip(self.calls, out_dirs, record["returncodes"]):
                record["problems"] += check_call(argv, os.path.join(ROOT, out), self.seed,
                                                 self.references, rc)
        shutil.rmtree(pass_dir, ignore_errors=True)
        return record


def run_workload(name: str, seed: int, seconds: float, trace: bool, metric_defs: dict) -> dict:
    spec = workloads()[name]
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    traces_dir = os.path.join(HERE, ".work")
    work_dir = os.path.join(traces_dir, f"{name}-{os.getpid():07d}")
    os.makedirs(work_dir)
    spans_path = os.path.join(traces_dir, f"trace-{name}-seed{seed}.json")
    runner = Runner(name, spec, seed, work_dir, references)
    passes = []
    try:
        runner.warm_up()
        start = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_start = time.monotonic()
            passes.append(runner.run_pass(len(passes), traced, spans_path))
            now = time.monotonic()
            # Stop before a pass that would end well past the measuring
            # time, once there are MIN_PASSES and, when tracing, both kinds.
            enough = len(passes) >= MIN_PASSES
            if (enough and now + (now - pass_start) > start + seconds * 1.1) or (
                    now - runner.started > RUN_DEADLINE_S - 2 * (now - pass_start)):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return summarise(name, passes, trace, metric_defs, spans_path)


def summarise(name, passes, trace, metric_defs, spans_path) -> dict:
    measured = [p for p in passes if "wall_s" in p]
    plain = [p for p in measured if not p["traced"]]
    traced = [p for p in measured if p["traced"]]
    failed = sum(1 for p in passes if p["problems"])
    samples = {
        "wall_s": [p["wall_s"] for p in plain],
        "setup_s": [p["setup_s"] for p in measured],
        "cpu_s": [p["cpu_s"] for p in plain],
        "peak_rss_mib": [max(p["peak_rss_mib"], p["worker_peak_rss_mib"]) for p in plain],
    }
    values = {key: _median(v) for key, v in samples.items()}
    values["ok_rate"] = (len(passes) - failed) / len(passes)
    if trace and traced:
        for key in traced[0]["layers"]:
            # Counts repeat exactly, so a count reads as an observed integer.
            median = statistics.median_low if key in COUNTER_METRICS else _median
            values[key] = median([p["layers"][key] for p in traced])
        values["experiments.workers.peak_rss_mib"] = _median(
            [p["worker_peak_rss_mib"] for p in traced])
        if plain:
            values["trace.overhead_s"] = (_median([p["wall_s"] for p in traced])
                                          - values["wall_s"])
    wanted = metric_defs["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if values.get(m["name"]) is None]
    return dict(
        workload=name, passes=passes, samples=samples, missing=missing,
        attempted=len(passes), failed=failed,
        metrics={m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted},
        spans_path=spans_path if traced else None,
    )


def report(result: dict, metric_defs: dict) -> None:
    name = result["workload"]
    plain = sum(1 for p in result["passes"] if not p["traced"])
    print(f"[{name}] passes: {result['attempted']} ({plain} untraced), "
          f"failed: {result['failed']}")
    print(f"[{name}] wall_s per pass: " + ", ".join(
        f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}" for p in result["passes"] if "wall_s" in p))
    for index, p in enumerate(result["passes"]):
        for problem in p["problems"][:MAX_PROBLEMS_SHOWN]:
            print(f"[{name}] FAIL pass {index}: {problem}")
        if len(p["problems"]) > MAX_PROBLEMS_SHOWN:
            print(f"[{name}] FAIL pass {index}: ... and "
                  f"{len(p['problems']) - MAX_PROBLEMS_SHOWN} more")
    for m in metric_defs["end_to_end"]:
        key = m["name"]
        if key == "ok_rate":
            error_rate = result["failed"] / result["attempted"]
            print(f"[{name}] error_rate = {error_rate:.4f} fraction "
                  f"({result['failed']} of {result['attempted']} passes failed the check)")
            continue
        values = result["samples"][key]
        if not values:
            continue
        q1, q3 = _quartiles(values)
        print(f"[{name}] {key} = {_median(values):.4f} {m['unit']} "
              f"(median of {len(values)}; q1 {q1:.4f}, q3 {q3:.4f})")
    if result["spans_path"]:
        for key, metric in result["metrics"].items():
            label = " (computed)" if key in COMPUTED_METRICS else ""
            print(f"[{name}] {key} = {metric['value']:.6g} {metric['unit']}{label}")
        by_experiment = next(p["eigh_per_epoch_by_experiment"] for p in result["passes"]
                             if "layers" in p)
        print(f"[{name}] linalg.eigh.per_epoch by experiment: " + (", ".join(
            f"{exp} {value:.3f}" for exp, value in by_experiment.items()) or "no training"))
        print(f"[{name}] spans of the last traced pass: "
              f"{os.path.relpath(result['spans_path'], ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' to run every workload in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qbmlab", "__init__.py")):
        print(f"perfbench: no qbmlab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metric_defs = json.load(fh)
    names = list(workloads()) if args.workload == "all" else [args.workload]
    if any(n not in workloads() for n in names):
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads())} or all", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else metric_defs["run_seconds"]

    env = environment()
    env.update(workload=args.workload, seed=args.seed, seconds=seconds, trace=args.trace,
               jobs_for_parallel_workloads=available_cores())
    print("env: " + json.dumps(env, sort_keys=True))

    results = []
    for name in names:
        result = run_workload(name, args.seed, seconds, bool(args.trace), metric_defs)
        if result["missing"]:
            problems = [q for p in result["passes"] for q in p["problems"]]
            print(f"perfbench: {name}: no value for {', '.join(result['missing'])}",
                  *problems, sep="\n", file=sys.stderr)
            return 1
        report(result, metric_defs)
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{key}": metric
                   for r in results for key, metric in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps(dict(correct=failed == 0, attempted=attempted, failed=failed,
                          metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
