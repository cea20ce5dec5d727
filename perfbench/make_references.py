"""Regenerate ``references.json``: the digest of every workload call at each shipped seed.

Usage (from the repository root): python3 perfbench/make_references.py [--seeds 0-31]

Run it only at the commit whose outputs are the reference; the correctness
check compares every later run against these values.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from check import digest, expected_returncode  # noqa: E402
from workloads import reference_key, workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    args = parser.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)

    import qbmlab.cli

    calls = {}
    for spec in workloads().values():
        for call in spec["calls"]:
            calls.setdefault(reference_key(call), call)
    references = {}
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    for key, call in calls.items():
        references[key] = {}
        for seed in seeds:
            out = tempfile.mkdtemp(dir=os.path.join(HERE, ".work"))
            try:
                argv = list(call)
                if "--jobs" in argv:
                    argv[argv.index("--jobs") + 1] = "1"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = qbmlab.cli.main(argv + ["--seed", str(seed), "--out", out])
                values = digest(call[0], out)
                if code != expected_returncode(call[0], values):
                    raise SystemExit(f"{key} seed {seed}: exit code {code}")
                references[key][str(seed)] = values
            finally:
                shutil.rmtree(out, ignore_errors=True)
            print(f"{key} seed {seed}", file=sys.stderr)
    write_references(os.path.join(HERE, "references.json"), references)
    return 0


def write_references(path: str, references: dict) -> None:
    """One line per call and seed, so a regenerated file diffs by seed."""
    lines = []
    for key in sorted(references):
        seeds = sorted(references[key], key=int)
        body = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(references[key][seed], sort_keys=True)}"
                          for seed in seeds)
        lines.append(f" {json.dumps(key)}: {{\n{body}\n }}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
