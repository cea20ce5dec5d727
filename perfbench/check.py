"""Correctness check of one CLI call's output directory.

For a seed with shipped reference values (``references.json``, produced by
``make_references.py``) the call's digest must match the reference: CSV row
counts and booleans exactly, numbers within ``RTOL`` relative (plus
``ATOL``). The tolerance absorbs reordered floating-point sums; a run with
fewer epochs changes the CSV row counts and the final values, and a different
optimum changes the final values. For any other seed only seed-independent
invariants are checked.
"""

from __future__ import annotations

import csv
import json
import math
import os

from workloads import reference_key

RTOL = 1e-6
ATOL = 1e-9

# experiment -> (result file, keys compared; None compares every number)
DIGEST_SOURCES = {
    "povm-train": ("summary.json", None),
    "commutator-compare": ("summary.json", None),
    "meanfield": ("summary.json", None),
    "tomography": ("summary.json", None),
    "hamlearn": ("summary.json", None),
    "gradcheck": ("report.json", ["ok", "table"]),
    "variance-sweep": ("summary.json", ["slope"]),
}


# Digest entries the reference comparison skips: finite-difference errors
# move with any reordering of sums. The invariants bound them instead.
NOT_COMPARED = ("/max_rel_error",)
# A finite-difference error this many times its tolerance means a wrong
# gradient, not a loose check.
GRADCHECK_SLACK = 100.0


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _flatten(obj[key], f"{prefix}{key}/")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _flatten(value, f"{prefix}{i}/")
    else:
        yield prefix.rstrip("/"), obj


def digest(experiment: str, out_dir: str) -> dict:
    """Numbers a call's outputs are judged by: selected JSON leaves and CSV row counts."""
    name, keys = DIGEST_SOURCES[experiment]
    with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
        payload = json.load(fh)
    if keys is not None:
        payload = {key: payload[key] for key in keys}
    values = {f"{name}:{path}": value for path, value in _flatten(payload)}
    for entry in sorted(os.listdir(out_dir)):
        if entry.endswith(".csv"):
            with open(os.path.join(out_dir, entry), encoding="utf-8", newline="") as fh:
                values[f"rows:{entry}"] = sum(1 for _ in csv.reader(fh)) - 1
    return values


def _same(got, want) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return got is want
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        return abs(got - want) <= ATOL + RTOL * max(abs(got), abs(want))
    return got == want


def compare(got: dict, want: dict) -> list:
    """Differences between a digest and its reference, as messages."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key.endswith(NOT_COMPARED):
            continue
        if key not in got or key not in want:
            problems.append(f"{key}: present in only one of output and reference")
        elif not _same(got[key], want[key]):
            problems.append(f"{key}: got {got[key]!r}, reference {want[key]!r}")
    return problems


def _leaves(d: dict, suffix: str) -> list:
    return [v for k, v in d.items() if k.endswith(suffix)]


def invariants(experiment: str, values: dict, row_counts: dict) -> list:
    """Seed-independent checks; ``row_counts`` come from any shipped seed."""
    problems = []
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{key}: not finite")
    for key, rows in row_counts.items():
        if values.get(key) != rows:
            problems.append(f"{key}: {values.get(key)} rows, every shipped seed has {rows}")

    def require(condition: bool, message: str):
        if not condition:
            problems.append(message)

    if experiment == "povm-train":
        require(not any(_leaves(values, "/diverged_quantum") + _leaves(values, "/diverged_classical")),
                "a povm-train branch diverged")
        require(all(v >= -ATOL for v in _leaves(values, "/final_delta_quantum")
                    + _leaves(values, "/final_delta_classical")),
                "objective above its entropy-limited maximum")
    elif experiment == "commutator-compare":
        require(all(values[f"summary.json:final_{s}"] <= ATOL for s in "abc"),
                "log-likelihood above 0")
    elif experiment == "meanfield":
        require(values["summary.json:median_final_s"] >= -ATOL, "negative relative entropy")
        require(0.0 <= values["summary.json:median_final_overlap"] <= 1.0,
                "overlap outside [0, 1]")
    elif experiment == "tomography":
        require(values["summary.json:n_diverged"] == 0, "a tomography instance diverged")
        require(all(v >= -ATOL for v in _leaves(values, "") if isinstance(v, float)),
                "negative relative entropy")
    elif experiment == "hamlearn":
        require(all(v >= -ATOL for k, v in values.items() if k.startswith("summary.json:median")),
                "negative hamlearn median")
    elif experiment == "gradcheck":
        rows = [(values[f"report.json:table/{i}/max_rel_error"],
                 values[f"report.json:table/{i}/tolerance"],
                 values[f"report.json:table/{i}/ok"])
                for i in range(sum(1 for k in values if k.endswith("/max_rel_error")))]
        require(bool(rows), "gradcheck table is empty")
        require(all(ok is (err <= tol) for err, tol, ok in rows),
                "gradcheck row verdict disagrees with its error")
        require(values["report.json:ok"] is all(ok for _, _, ok in rows),
                "gradcheck verdict disagrees with its rows")
        require(all(err <= GRADCHECK_SLACK * tol for err, tol, _ in rows),
                f"a gradient is off by more than {GRADCHECK_SLACK:g}x its tolerance")
    elif experiment == "variance-sweep":
        require(-1.3 <= values["summary.json:slope"] <= -0.7,
                f"variance slope {values['summary.json:slope']} far from -1")
    return problems


def expected_returncode(experiment: str, values: dict) -> int:
    """The CLI exits 1 when gradcheck reports a failed check, else 0."""
    if experiment == "gradcheck" and values.get("report.json:ok") is False:
        return 1
    return 0


def check_call(argv: list, out_dir: str, seed: int, references: dict, returncode: int) -> list:
    """All problems with one call's outputs; empty when the call is correct."""
    experiment = argv[0]
    by_seed = references.get(reference_key(argv), {})
    if not by_seed:
        return [f"{experiment}: no reference values for {reference_key(argv)!r}"]
    any_reference = next(iter(by_seed.values()))
    row_counts = {k: v for k, v in any_reference.items() if k.startswith("rows:")}
    try:
        values = digest(experiment, out_dir)
        problems = invariants(experiment, values, row_counts)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{experiment}: exit code {returncode}, unreadable output ({exc!r})"]
    if returncode != expected_returncode(experiment, values):
        problems.append(f"exit code {returncode}")
    if str(seed) in by_seed:
        problems += compare(values, by_seed[str(seed)])
    return [f"{experiment}: {p}" for p in problems]
