"""ndsquare benchmark.

One run of one workload (the form the benchmark contract uses)::

    python3 bench/run.py --workload fig1_sweep --seed 1 --seconds 36 --trace 0

prints an environment record and any failed item on lines starting with
``#``, then, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the ``end_to_end`` ones of ``BENCHMARK.json``; with
``--trace 1`` they are its ``per_layer`` ones, from one traced pass.

Every metric of every workload, as median, quartiles and sample count
over ``REPORT_SEEDS`` seeds, plus the error rate and each layer's share
of the traced wall time::

    python3 bench/run.py --report --seed 1

Self-test at tiny sizes (every workload, traced and untraced, the
correctness gate, and a tampered reference that the gate must catch)::

    python3 bench/run.py --self-test

Each pass runs in a fresh interpreter (``child.py``) that imports the
package from ``src/`` of this checkout; the parent generates the inputs
from the seed and checks every output item of every pass (``gate.py``).
An untraced run makes the workload's fixed number of passes
(``spec.Workload.passes``) and reports the mean of their work times at
reference host speed as ``wall_s``; ``setup_s`` is scaled the same way
(``speed.py`` says how and why).  The measured wall times and the speed
kernel's times are printed on ``# pass`` lines.  A traced run makes one
pass and reports unscaled times.  ``--seconds`` does not change the
run: the workloads have fixed sizes, and ``run_seconds`` in
``BENCHMARK.json`` is about as long as the longest run.  Scratch files
go to ``.bench_build/ndsquare/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median, quantiles

import gate
import layers
import spec
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "ndsquare"

#: BLAS threads for every pass, capped at nproc.  One thread: with the
#: OpenBLAS default of two, single eigensolves of order 160 to 1000 ran
#: 3-15x slower than their median in some fresh processes.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh-interpreter imports timed per run; setup_s is their median.
SETUP_SAMPLES = 11

#: A pass that takes longer than this is killed and all its items fail.
PASS_TIMEOUT_S = 170

#: --report: untraced runs per workload (seeds seed .. seed+9) and
#: traced runs per workload (all with ``seed``, so counts must repeat).
REPORT_SEEDS = 10
REPORT_TRACED_RUNS = 2

#: Times the import, then the speed kernel's loop in the same
#: interpreter (once to warm it, then the median of three).
_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import ndsquare.cli\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import statistics, speed\n"
    "speed.kernel()\n"
    "k = statistics.median(speed.kernel()[0] for _ in range(3))\n"
    "print(repr(t), repr(k))\n"
)


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, _nproc()))
    env.update({var: threads for var in THREAD_VARS})
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    """Interpreter, numpy/BLAS build, thread settings, CPU and seed."""
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: f"{deps[k]['name']} {deps[k]['version']}"
                for k in ("blas", "lapack")}
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = {"blas": "unknown", "lapack": "unknown"}
    env = _child_env()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        **blas,
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        "seed": seed,
    }


def _fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def load_contract() -> dict:
    """BENCHMARK.json: the workloads and the metrics to report."""
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {ROOT / 'BENCHMARK.json'}: {exc}")


def _check_source() -> None:
    if not (SRC / "ndsquare" / "cli.py").is_file():
        _fail(f"no package source at {SRC / 'ndsquare'}; run from a checkout")


def setup_samples(count: int) -> list[float]:
    """Import time of ndsquare.cli (with numpy) in fresh interpreters.

    Each sample is scaled to reference host speed by the interpreter
    loop of the speed kernel, timed right after the import in the same
    interpreter.
    """
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC), str(BENCH)],
            env=_child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        if proc.returncode != 0:
            _fail(f"importing ndsquare.cli failed: {proc.stderr.strip()}")
        took, kernel_s = map(float, proc.stdout.split())
        samples.append(took * speed.REFERENCE_S["loop"] / kernel_s)
    return samples


def _one_pass(wl: spec.Workload, inputs, ref, traced: bool):
    """Run one pass; returns the child's result and the failed items."""
    tag = f"{wl.name}-{'traced' if traced else 'plain'}"
    WORK.mkdir(parents=True, exist_ok=True)
    out = None if wl.kind == "queries" else str(WORK / f"{tag}.csv")
    pass_spec = {
        "kind": wl.kind, "src": str(SRC), "trace": traced, "run_id": tag,
        "speed": wl.speed,
        "result": str(WORK / f"{tag}.result.json"), "out": out,
    }
    if wl.kind == "queries":
        pass_spec["queries"] = inputs
    else:
        pass_spec["argv"] = spec.cli_argv(wl, inputs, out)
    spec_path = WORK / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(pass_spec), encoding="utf-8")
    if out is not None and os.path.exists(out):
        os.remove(out)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            env=_child_env(), capture_output=True, text=True,
            timeout=PASS_TIMEOUT_S,
        )
        crashed = proc.returncode != 0 and (
            proc.stderr.strip().splitlines() or ["no output"])[-1]
    except subprocess.TimeoutExpired:
        crashed = f"pass exceeded {PASS_TIMEOUT_S} s"
    if crashed:
        result = {"error": f"pass failed: {crashed}", "answers": None}
    else:
        with open(pass_spec["result"], encoding="utf-8") as fh:
            result = json.load(fh)
    if result.get("error") and wl.kind == "queries":
        result["answers"] = [[None, None, result["error"]]] * len(inputs)
    failures = gate.check(wl, inputs, result, out, ref)
    return result, sorted(failures.items())


def workload_inputs(wl: spec.Workload, seed: int, quick: bool):
    """Seeded inputs and the reference they are checked against."""
    if wl.kind == "queries":
        inputs = spec.query_inputs(wl, seed)
        return inputs, gate.query_reference(inputs)
    return spec.grid_inputs(wl, seed), gate.load_reference(wl, quick)


def run_workload(wl: spec.Workload, seed: int, metrics: list[dict],
                 trace: bool, quick: bool = False, tampered=None):
    """Run one workload.

    Returns the failed items, the result object and the timings of each
    pass (measured wall time, work time, scaled work time, kernel time).

    Untraced, the run times the set-up and ``wl.passes`` passes; traced,
    one pass with the layer wrappers installed.  ``metrics`` are the
    entries of ``BENCHMARK.json`` to report; ``tampered`` replaces the
    reference (self-test only).
    """
    inputs, ref = workload_inputs(wl, seed, quick)
    if tampered is not None:
        ref = tampered
    setup = [] if trace else setup_samples(2 if quick else SETUP_SAMPLES)
    passes = [_one_pass(wl, inputs, ref, trace)
              for _ in range(1 if trace else wl.passes)]
    results = [result for result, _ in passes]
    failures = [failure for _, failed in passes for failure in failed]
    if any("wall_s" not in r for r in results):  # a pass crashed
        values = {}
    elif trace:
        (result,) = results
        values = layers.pass_metrics(
            result["spans"], result["counts"], result["wall_s"],
            result["bytes_out"], result["overhead_s"])
    else:
        values = {"wall_s": fmean(r["norm_s"] for r in results),
                  "setup_s": median(setup),
                  "peak_rss_mb": max(r["peak_rss_mb"] for r in results)}
    timings = [{k: r[k] for k in ("wall_s", "raw_s", "norm_s", "kernel_s")
                if k in r} for r in results]
    return failures, {
        "correct": not failures and bool(values),
        "attempted": max(len(passes) * len(inputs), len(failures)),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics} if values else {},
    }, timings


def cmd_run(args, bench: dict) -> int:
    _check_source()
    wl = spec.FULL[args.workload]
    env = environment(args.seed)
    print("# env " + json.dumps(env, sort_keys=True), flush=True)
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    failures, result, timings = run_workload(wl, args.seed, metrics,
                                             bool(args.trace))
    for timing in timings:
        print("# pass " + json.dumps(timing), flush=True)
    for item, reason in failures:
        print(f"# FAILED {wl.name} {item}: {reason}")
    record = {"workload": wl.name, "trace": args.trace, "env": env,
              "failures": failures, "passes": timings, **result}
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(result), flush=True)
    return 0


def _stats(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q2, q1, q3


def _run_once(name: str, seed: int, trace: int, bench: dict) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
           "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("# FAILED"):
            print(line, file=sys.stderr)
    if proc.returncode != 0 or not lines:
        _fail(f"{name} seed {seed}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def _counts(bench: dict) -> list[str]:
    """Per-layer metrics that must repeat exactly for the same seed."""
    return [m["name"] for m in bench["per_layer"] if m["unit"] != "s"]


def cmd_report(args, bench: dict) -> int:
    """Every metric by name and unit, one row per workload.

    Untraced runs use seeds seed, seed+1, ...; the traced runs all use
    ``seed``, so their counts must repeat exactly.
    """
    _check_source()
    print("# env " + json.dumps(environment(args.seed), sort_keys=True))
    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    samples: dict[str, dict[str, list[float]]] = {}
    unstable = []
    for name in (w["name"] for w in bench["workloads"]):
        runs = [_run_once(name, args.seed + i, 0, bench)
                for i in range(REPORT_SEEDS)]
        traced = [_run_once(name, args.seed, 1, bench)
                  for _ in range(REPORT_TRACED_RUNS)]
        by_metric = samples[name] = {"error_rate": [
            r["failed"] / r["attempted"] for r in runs + traced]}
        for r in runs + traced:
            for metric, value in r["metrics"].items():
                by_metric.setdefault(metric, []).append(value["value"])
        unstable += [
            f"{name} {metric}: {by_metric[metric]}" for metric in _counts(bench)
            if len(set(by_metric.get(metric, []))) > 1
        ]
    print(f"{'workload':18} {'metric':32} {'unit':14} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>3} {'iqr/med':>8} {'share':>6}")
    for name, by_metric in samples.items():
        traced_wall = median(by_metric.get("trace.wall_s", [0.0]))
        for metric, values in by_metric.items():
            med, q1, q3 = _stats(values)
            unit = units.get(metric, "ratio")
            share = (f"{med / traced_wall:6.1%}" if metric.endswith("self_s")
                     and traced_wall else "")
            spread = (q3 - q1) / med if med else 0.0
            print(f"{name:18} {metric:32} {unit:14} {med:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {len(values):3d} {spread:8.4f} {share:>6}")
    (WORK / "report.json").write_text(json.dumps(samples, indent=1),
                                      encoding="utf-8")
    for line in unstable:
        print(f"# FAILED counts not repeated: {line}", file=sys.stderr)
    failed = any(any(by["error_rate"]) for by in samples.values())
    return 1 if unstable or failed else 0


def cmd_self_test(args, bench: dict) -> int:
    _check_source()
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
        if not ok:
            problems.append(what)

    for wl in spec.QUICK.values():
        traced = []
        for trace, metrics in ((False, bench["end_to_end"]),
                               (True, bench["per_layer"]),
                               (True, bench["per_layer"])):
            failures, result, _ = run_workload(wl, args.seed, metrics,
                                               trace, quick=True)
            label = f"{wl.name} trace={int(trace)}"
            expect(result["correct"] and result["failed"] == 0,
                   f"{label}: gate passes ({result['attempted']} items, "
                   f"failures {failures[:3]})")
            expect(list(result["metrics"]) == [m["name"] for m in metrics],
                   f"{label}: reports every metric")
            if trace:
                traced.append(result["metrics"])
        differ = [name for name in _counts(bench)
                  if traced[0][name] != traced[1][name]]
        expect(not differ, f"{wl.name}: counts repeat over two traced runs "
                           f"{differ}")
        inputs, ref = workload_inputs(wl, args.seed, quick=True)
        bad_ref, item = gate.tamper(wl, inputs, ref)
        failures, result, _ = run_workload(
            wl, args.seed, bench["end_to_end"], False, quick=True,
            tampered=bad_ref)
        rate = result["failed"] / result["attempted"]
        expect(not result["correct"] and result["failed"] == wl.passes
               and {f[0] for f in failures} == {item},
               f"{wl.name}: tampered reference caught at {item} in each of "
               f"{wl.passes} passes, error_rate {rate:.4g} = "
               f"{result['failed']}/{result['attempted']}")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fig1_sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
    )
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and "correct" not in proc.stdout,
           f"without the package source: exit {proc.returncode}, no result")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ndsquare benchmark")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--report", action="store_true",
                      help="run every workload over several seeds and "
                           "print median, quartiles and sample count")
    mode.add_argument("--self-test", action="store_true",
                      help="tiny sizes: every workload, the traced run and "
                           "the correctness gate, plus a tampered reference")
    parser.add_argument("--workload", choices=list(spec.FULL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="accepted for the benchmark contract; a run "
                             "is one pass of fixed size")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (args.self_test or args.report or args.workload):
        parser.error("--workload is required")
    bench = load_contract()
    if args.self_test:
        return cmd_self_test(args, bench)
    if args.report:
        return cmd_report(args, bench)
    return cmd_run(args, bench)


if __name__ == "__main__":
    sys.exit(main())
