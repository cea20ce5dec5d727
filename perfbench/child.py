"""One measured pass, run as a fresh Python process by ``run.py``.

Usage: python3 child.py <spec.json>

The spec names the models to set up, the CLI calls to make, whether to
trace, and where to write the result. Set-up is timed from before
``import qbmlab`` to the end of building every model (including its first
``matrix_stack`` access). The timed part is the CLI calls alone.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time

from tracer import Tracer, cpu_seconds, held_bytes


def setup(model_keys) -> tuple:
    """Import qbmlab and build the models; returns (seconds, largest model's held bytes).

    The models are not reused by the calls and go out of scope on return,
    so the peak resident set reflects the calls, not set-up leftovers.
    """
    start = time.perf_counter()
    import qbmlab.cli  # noqa: F401
    from qbmlab import build_model

    models = [build_model(family, nv, nh) for family, nv, nh in model_keys]
    for model in models:
        getattr(model, "matrix_stack", None)
    seconds = time.perf_counter() - start
    return seconds, max((held_bytes(m) for m in models), default=0)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    setup_s, term_bytes = setup(spec["models"])
    gc.collect()
    import qbmlab.cli

    tracer = None
    if spec["trace"]:
        tracer = Tracer(spec["run_id"])
        tracer.install()

    self_before = resource.getrusage(resource.RUSAGE_SELF)
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    returncodes = [qbmlab.cli.main(argv) for argv in spec["calls"]]
    wall_s = time.perf_counter() - start
    self_after = resource.getrusage(resource.RUSAGE_SELF)
    children_after = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = dict(
        setup_s=setup_s,
        wall_s=wall_s,
        cpu_s=(cpu_seconds(self_after) - cpu_seconds(self_before)
               + cpu_seconds(children_after) - cpu_seconds(children_before)),
        # ru_maxrss is in KiB on Linux
        peak_rss_mib=self_after.ru_maxrss / 1024.0,
        worker_peak_rss_mib=children_after.ru_maxrss / 1024.0,
        returncodes=returncodes,
    )
    if tracer is not None:
        result["layers"] = tracer.metrics(term_bytes)
        result["eigh_per_epoch_by_experiment"] = tracer.eigh_per_epoch_by_experiment()
        tracer.write_spans(spec["spans_path"])
    with open(spec["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
