"""Command-line entry point.

One subcommand per experiment. Settings resolve in order: the
experiment's config defaults, then ``--config`` file keys, then repeatable
``--set key=value`` overrides, then the explicit convenience flags.

``qbmlab gradcheck`` exits nonzero if any gradient check fails its
tolerance; every other subcommand exits nonzero only on invalid input.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    EXPERIMENTS,
    make_config,
    parse_config_file,
    run_experiment,
)
from .training import TrainingDiverged

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbmlab",
        description="Training laboratory for small quantum Boltzmann machines.",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, help="root seed")
        p.add_argument("--out", help="output directory (created if missing)")
        p.add_argument("--ensemble", type=int, help="number of instances")
        p.add_argument("--jobs", type=int, help="worker processes for ensemble tasks (tomography, hamlearn, meanfield)")
        p.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="set one of the experiment's config keys (repeatable)",
        )
    return parser


def _override_mapping(pairs) -> dict:
    mapping = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        mapping[key.strip()] = value.strip()
    return mapping


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        layers = []
        if args.config:
            layers.append(parse_config_file(args.config))
        layers.append(_override_mapping(args.overrides))
        flags = {
            key: getattr(args, key)
            for key in ("seed", "out", "ensemble", "jobs")
            if getattr(args, key) is not None
        }
        layers.append(flags)
        config = make_config(args.experiment, *layers)
    except OSError as exc:
        print(f"qbmlab: {exc}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        msg = exc.args[0] if exc.args else exc
        print(f"qbmlab: {msg}", file=sys.stderr)
        return 2

    try:
        result = run_experiment(config)
    except (OSError, TrainingDiverged) as exc:  # such as an --out that names a file, or a huge theta0_scale
        print(f"qbmlab: {exc}", file=sys.stderr)
        return 2
    if config.experiment == "gradcheck":
        for row in result["table"]:
            status = "ok" if row["ok"] else "FAIL"
            print(
                f"{row['family']:>14} {row['kind']:>10} "
                f"max rel err {row['max_rel_error']:.3e} "
                f"(tol {row['tolerance']:.0e}) {status}"
            )
        sweep = result["ksweep"]
        print(
            "commutator order sweep: errors "
            + ", ".join(f"{v:.2e}" for v in sweep["mean_errors"])
            + f" (monotone from order 2: {sweep['monotone_from_2']})"
        )
        if not result["ok"]:
            print("gradcheck FAILED")
            return 1
        print("gradcheck passed")
        return 0
    if config.experiment == "variance-sweep":
        print(
            f"slope {result['slope']:.3f} (theory -1), "
            f"MSE ratio {result['ratio_mean']:.2f} "
            f"({result['n_terms_big']} vs {result['n_terms_small']} terms)"
        )
        return 0
    if hasattr(result, "finals"):
        import numpy as np

        print(
            f"{config.experiment}: {result.metric} median final "
            f"{float(np.median(result.finals)):.6g}"
            + (f" -> {config.out}" if config.out else "")
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
