"""Span tracing around the package's layers, from outside the package.

``install`` replaces public functions in the module namespaces where
their callers look them up (``experiments.assemble``,
``numpy.linalg.eigvalsh``, ``spectrum.multiplicity`` ...) with wrappers
that record a span or bump a counter.  No source file of the package
changes.  Spans stay in memory and are written when the pass ends.

A span is ``[name, start, end, parent, run_id, meta]``; ``parent`` is
the index of the enclosing span or -1.  A layer's self time is its
duration minus the part covered by its child spans.  High-frequency
scalar helpers get call counters only, because a span each would cost
more than the helper itself.
"""

from __future__ import annotations

import time
from collections import Counter

#: Calls timed per probe when pricing one wrapper; the cheapest of
#: ``PROBE_REPEATS`` probes is taken, so an interruption does not count.
PROBE_CALLS = 2000
PROBE_REPEATS = 5


class Tracer:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def span(self, name, fn, meta=None):
        spans, stack, run_id = self.spans, self._stack, self.run_id

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, run_id, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if meta is not None:
                record[5] = meta(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def overhead_s(self) -> float:
        """Time the recorded spans and counted calls added to the pass.

        Each span and each counted call is priced at the cost of one
        wrapper around a no-op, measured now, in the traced process.
        """
        def noop():
            return None

        def per_call(fn):
            best = float("inf")
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                for _ in range(PROBE_CALLS):
                    fn()
                best = min(best, time.perf_counter() - start)
            return best / PROBE_CALLS

        probe = Tracer("probe")
        bare = per_call(noop)
        span_cost = per_call(probe.span("probe", noop)) - bare
        counter_cost = per_call(probe.counter("probe", noop)) - bare
        return (len(self.spans) * span_cost
                + sum(self.counts.values()) * counter_cost)


def install(run_id: str) -> Tracer:
    """Wrap the package's layer entry points; returns the recording tracer."""
    import numpy.linalg

    from ndsquare import cli, experiments, nd_matrix, solution_op, spectrum

    tracer = Tracer(run_id)

    def wrap(make, targets):
        # one wrapper per original function, shared by every namespace
        # that holds it, so no call is recorded twice
        made = {}
        for module, attr in targets:
            fn = getattr(module, attr)
            if id(fn) not in made:
                made[id(fn)] = make(fn)
            setattr(module, attr, made[id(fn)])

    def span(name, targets, meta=None):
        wrap(lambda fn: tracer.span(name, fn, meta), targets)

    span("cli", [(cli, "main")])
    span("experiments", [(experiments, "sweep"), (experiments, "trajectories")],
         lambda args, res: [len(args[1]), sum(1 for r in res if r.skipped)])
    span("nd_matrix.assemble", [(experiments, "assemble")],
         lambda args, res: res.entries.shape[0])
    span("linalg.symcheck", [(experiments, "symmetric_eigenvalues")])
    span("linalg.eigvalsh", [(numpy.linalg, "eigvalsh")],
         lambda args, res: res.shape[-1])
    span("linalg.count_negative", [(experiments, "count_negative")])
    span("spectrum.bound", [(experiments, "negative_eigenvalue_bound"),
                            (spectrum, "negative_eigenvalue_bound")])
    span("spectrum.is_resonant", [(experiments, "is_resonant"),
                                  (spectrum, "is_resonant"),
                                  (solution_op, "is_resonant")])
    span("solution_op.exact_count", [(solution_op, "exact_negative_count")])
    for name, targets in (
        ("spectrum.multiplicity", [(spectrum, "multiplicity")]),
        ("solution_op.coefficient",
         [(solution_op, "solution_diff_coefficient")]),
        ("nd_matrix.entry", [(nd_matrix, "same_side_entry"),
                             (nd_matrix, "opposite_side_entry")]),
    ):
        wrap(lambda fn, name=name: tracer.counter(name, fn), targets)
    return tracer


def pass_metrics(spans: list[list], counts: dict, wall_s: float,
                 bytes_out: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name.

    ``linalg.eigvalsh.flops`` (4/3 N^3 per call) and
    ``nd_matrix.assemble.bytes`` (8 (4J)^2 per call) are computed from
    array shapes, not measured.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_s: Counter[str] = Counter()
    calls: Counter[str] = Counter()
    for (name, start, end, _, _, _), child in zip(spans, covered):
        self_s[name] += end - start - child
        calls[name] += 1

    def metas(name):
        return [s[5] for s in spans if s[0] == name]

    orders = metas("linalg.eigvalsh")
    sizes = metas("nd_matrix.assemble")
    drivers = metas("experiments")
    return {
        "linalg.eigvalsh.self_s": self_s["linalg.eigvalsh"],
        "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
        "linalg.eigvalsh.order": max(orders, default=0),
        "linalg.eigvalsh.flops": sum(4 * n ** 3 / 3 for n in orders),
        "linalg.symcheck.self_s": self_s["linalg.symcheck"],
        "linalg.count_negative.self_s": self_s["linalg.count_negative"],
        "nd_matrix.assemble.self_s": self_s["nd_matrix.assemble"],
        "nd_matrix.assemble.calls": calls["nd_matrix.assemble"],
        "nd_matrix.assemble.bytes": sum(8 * n * n for n in sizes),
        "nd_matrix.entry.calls": counts.get("nd_matrix.entry", 0),
        "experiments.self_s": self_s["experiments"],
        "experiments.points": sum(d[0] for d in drivers),
        "experiments.skipped": sum(d[1] for d in drivers),
        "cli.self_s": self_s["cli"],
        "cli.bytes_out": bytes_out,
        "spectrum.bound.self_s": self_s["spectrum.bound"],
        "spectrum.multiplicity.calls": counts.get("spectrum.multiplicity", 0),
        "spectrum.is_resonant.calls": calls["spectrum.is_resonant"],
        "spectrum.is_resonant.self_s": self_s["spectrum.is_resonant"],
        "solution_op.exact_count.self_s": self_s["solution_op.exact_count"],
        "solution_op.coefficient.calls":
            counts.get("solution_op.coefficient", 0),
        "trace.overhead_s": overhead_s,
        "trace.wall_s": wall_s,
        "trace.gap_s": wall_s - sum(self_s.values()),
    }
