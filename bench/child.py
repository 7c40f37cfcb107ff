"""One measured pass of a workload, in a fresh interpreter.

Usage: ``python3 bench/child.py SPEC.json``.  The spec names the
workload kind, the generated inputs, the output paths and whether to
trace.  The pass times its calls into the package from the first call
to the last output byte written, then writes a result JSON with the
wall time, peak resident memory, the lattice answers and, when traced,
the raw spans and counters and the time the tracing added.  An
untraced pass runs under ``speed.SpeedProbe`` and also reports its work
time at reference host speed (``norm_s``, see ``speed.normalize``).
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

import speed


def _queries(spectrum, solution_op, queries):
    answers = []
    for a, b, cutoff in queries:
        try:
            bound = spectrum.negative_eigenvalue_bound(a, b)
            exact = solution_op.exact_negative_count(a, b, mode_cutoff=cutoff)
        except Exception as exc:  # a failed item, reported by the gate
            answers.append([None, None, f"{type(exc).__name__}: {exc}"])
        else:
            answers.append([bound, exact, None])
    return answers


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from ndsquare import cli, solution_op, spectrum

    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.install(spec["run_id"])

    result = {"error": None, "answers": None}
    probe = speed.SpeedProbe() if tracer is None else None
    start = time.perf_counter()
    with probe or contextlib.nullcontext():
        if spec["kind"] == "queries":
            result["answers"] = _queries(spectrum, solution_op, spec["queries"])
        else:
            try:
                code = cli.main(spec["argv"])
            except SystemExit as exc:
                code = exc.code
            if code != 0:
                result["error"] = f"ndsquare {spec['kind']} exited with {code}"
    result["wall_s"] = time.perf_counter() - start
    if probe is not None:
        result.update(speed.normalize(probe.samples, spec["speed"]))
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    )
    out = spec.get("out")
    result["bytes_out"] = os.path.getsize(out) if out and os.path.exists(out) else 0
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
        result["overhead_s"] = tracer.overhead_s()
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
