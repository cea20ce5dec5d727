"""Workload definitions: the CLI calls each workload makes and the models it sets up.

A workload is a fixed list of ``qbmlab`` CLI calls. The benchmark adds
``--seed <seed>`` and ``--out <dir>`` to every call; nothing else about the
inputs reaches the program. Lengths (epochs, ensemble sizes) are cut from
the acceptance settings so that several fresh-process passes fit in one
measured run; families, sizes and gradient kinds are the acceptance ones.
"""

from __future__ import annotations

import os

POVM_GRID = [(family, nv, nh)
             for family in ("fermionic", "classical_bm")
             for nv in (3, 4, 5)
             for nh in (0, 1, 2)]

# Every (family, n_visible, n_hidden) that gradcheck, its commutator order
# sweep and variance-sweep evaluate.
GRADCHECK_MODELS = [
    ("classical_bm", 2, 1),
    ("ti_complete", 3, 0),
    ("pauli_complete", 2, 0),
    ("mean_field", 3, 0),
    ("fermionic", 3, 0),
    ("mean_field", 2, 0),
    ("mean_field", 4, 0),
]


def _relent_calls(jobs: int) -> list:
    return [
        ["meanfield", "--jobs", str(jobs), "--set", "epochs=5"],
        ["tomography", "--jobs", str(jobs), "--set", "target_kind=mixed",
         "--set", "epochs=5"],
    ]


def available_cores() -> int:
    """Cores this process may run on (``nproc``)."""
    return len(os.sched_getaffinity(0))


def workloads() -> dict:
    """Name -> dict(why, calls, models). ``calls`` omit --seed and --out."""
    return {
        "povm-grid": dict(
            why="Dense term stacks up to 266 terms at dim 128: time goes to eigh "
                "and term-stack tensordot; one hidden unit makes the "
                "commutator-series gradient a visible share.",
            calls=[
                ["povm-train", "--set", "epochs=20"],
                ["commutator-compare", "--set", "n_hidden=1", "--set", "epochs=20"],
            ],
            models=POVM_GRID,
        ),
        "relent-ensemble": dict(
            why="Many small relative-entropy runs (dim 4-32, at most 15 terms): "
                "per-call overhead and repeated eigh dominate, term storage is "
                "negligible; the bypass for storage optimisations.",
            calls=_relent_calls(1),
            models=[("mean_field", 5, 0), ("pauli_complete", 2, 0)],
        ),
        # Runnable, but not listed in BENCHMARK.json: with each pool worker
        # starting its own BLAS pool, pass times flip between two modes about
        # 4x apart, so no run-to-run bound of at most 25% holds for it.
        "relent-ensemble-jobs": dict(
            why="Same inputs as relent-ensemble with --jobs equal to nproc: the "
                "only workload that goes through the experiments process-pool "
                "dispatcher.",
            calls=_relent_calls(available_cores()),
            models=[("mean_field", 5, 0), ("pauli_complete", 2, 0)],
        ),
        "gradcheck": dict(
            why="Every public objective and gradient called directly on fresh "
                "data at 3 qubits or fewer, nothing reused: isolates per-call "
                "cost; the bypass for per-run caching.",
            calls=[
                ["gradcheck", "--ensemble", "20"],
                ["variance-sweep"],
            ],
            models=GRADCHECK_MODELS,
        ),
        "ti-large": dict(
            why="Transverse-Ising n=9: about 450 MB of dense terms, beyond the "
                "300 MiB L3, and eigh at dim 512 where BLAS threads pay off.",
            calls=[
                ["hamlearn", "--ensemble", "1", "--set", "n_visible=9",
                 "--set", "epochs=2"],
            ],
            models=[("ti_complete", 9, 0)],
        ),
    }


def reference_key(argv) -> str:
    """Identify a call by its inputs, ignoring --jobs (outputs do not depend on it)."""
    kept = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg in ("--jobs", "--seed", "--out"):
            skip = True
            continue
        kept.append(arg)
    return " ".join(kept)
