"""collapsar benchmark: one workload, one run, one JSON line of results.

    python3 bench/run.py --workload boson-deep --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` replays the workload in rounds with the layer boundaries
wrapped (see tracer.py) and reports the per-layer metrics.  The last line
of stdout is ``{"correct", "attempted", "failed", "metrics"}``; a fuller
record (seed, generated inputs, machine, failures, spans) goes to
``.bench_out/`` in the checkout.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
# One BLAS thread: steadier than two on a shared two-CPU box, never more
# than nproc, and the same on every commit measured.
BLAS_THREADS = 1
# glibc raises its mmap threshold as large blocks are freed, after which
# resident memory depends on the order of earlier allocations.  A fixed
# threshold returns every large array to the system when it is freed, so
# peak_rss_mb measures the largest operation, not the run's history.
MMAP_THRESHOLD = 1 << 20
M_MMAP_THRESHOLD = -3
# Set before numpy loads, here and in every child interpreter.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
    "OMP_NUM_THREADS": str(BLAS_THREADS),
    "MKL_NUM_THREADS": str(BLAS_THREADS),
    "MALLOC_MMAP_THRESHOLD_": str(MMAP_THRESHOLD),
}
# No op after the first pass starts after this, even if min_passes is not
# reached, so a run exits well within three minutes.
HARD_STOP_S = 140.0

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per-layer metric -> unit.  Times are ms per operation; counts are per
# traced round; peaks are the maximum over calls of the tracemalloc peak
# inside one call.
LAYER_UNITS = {
    "fock.partial_trace_ms": "ms",
    "fock.entropy_ms": "ms",
    "fock.occupation_ms": "ms",
    "fock.partial_trace_peak_mb": "MB",
    "fock.entropy_peak_mb": "MB",
    "fock.dim_sum": "count",
    "fock.dim_max": "count",
    "states.build_ms": "ms",
    "states.amplitudes": "count",
    "geometry.squeezing_ms": "ms",
    "entanglement.closed_form_ms": "ms",
    "entanglement.fit_ms": "ms",
    "entanglement.report_ms": "ms",
    "entanglement.report_self_ms": "ms",
    "entanglement.sweep_self_ms": "ms",
    "entanglement.render_ms": "ms",
    "entanglement.crossover_ms": "ms",
    "entanglement.crossover_iterations": "count",
    "cli.interpreter_ms": "ms",
    "cli.numpy_import_ms": "ms",
    "cli.import_ms": "ms",
    "cli.main_self_ms": "ms",
    "trace_overhead_pct": "%",
}
# Self time per operation of each traced span.
SELF_MS = {
    "fock.partial_trace_ms": "fock.partial_trace",
    "fock.entropy_ms": "fock.entropy",
    "fock.occupation_ms": "fock.occupation",
    "states.build_ms": "states.build",
    "geometry.squeezing_ms": "geometry.squeezing",
    "entanglement.closed_form_ms": "entanglement.closed_form",
    "entanglement.fit_ms": "entanglement.fit",
    "entanglement.report_self_ms": "entanglement.report",
    "entanglement.sweep_self_ms": "entanglement.sweep",
    "entanglement.render_ms": "entanglement.render",
    "cli.main_self_ms": "cli.main",
}
# Inclusive time per operation.
SPAN_MS = {
    "entanglement.report_ms": "entanglement.report",
    "entanglement.crossover_ms": "entanglement.crossover",
}


def prepare() -> None:
    """Pin threads and allocator, and import collapsar from this checkout's src/, or exit."""
    os.environ.update(PINNED_ENV)
    ctypes.CDLL(None).mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
    src = ROOT / "src"
    if not (src / "collapsar" / "__init__.py").is_file():
        sys.exit(f"error: no collapsar sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import collapsar

    if Path(collapsar.__file__).resolve().parent != src / "collapsar":
        sys.exit(f"error: imported collapsar from {collapsar.__file__}, not {src}")


def machine() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "pinned_env": PINNED_ENV,
    }


def _untraced(wl, seconds: float, size, checker, env, started: float) -> tuple[dict, dict]:
    import numpy as np
    import workloads

    workloads.launch_s(workloads.SETUP, env)  # warm-up: page cache, bytecode cache
    wl.run_op(0, checker)  # warm-up, checked but not timed
    # The run cycles through the workload's ops and keeps each op's best
    # time.  The machine's speed changes over seconds as other load comes
    # and goes; the best of several repeats, spread over the run, is the
    # figure that repeats.  Start-up launches are spread over the run in the
    # same way.  Every op runs at least once, whatever the hard stop.
    setup_every = seconds / size.launches
    setup, best = [], [math.inf] * wl.n_ops
    i = 0
    begin = time.perf_counter()
    while i < wl.n_ops or (
        (i < size.min_passes * wl.n_ops or time.perf_counter() - begin < seconds)
        and time.perf_counter() - started < HARD_STOP_S
    ):
        if len(setup) < size.launches and time.perf_counter() - begin >= len(setup) * setup_every:
            setup.append(workloads.launch_s(workloads.SETUP, env))
        k = i % wl.n_ops
        best[k] = min(best[k], wl.run_op(k, checker))
        i += 1
    while len(setup) < size.launches:
        setup.append(workloads.launch_s(workloads.SETUP, env))
    p50, p90 = (float(v) for v in np.percentile(best, [50, 90]))
    metrics = {
        "ops_per_s": wl.n_ops / sum(best),
        "op_p50_ms": p50 * 1e3,
        "op_p90_ms": p90 * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
        "setup_s": min(setup),
    }
    extra = {"ops": wl.n_ops, "passes": i // wl.n_ops, "samples": i,
             "best_s": best, "setup_s_runs": setup}
    return metrics, extra


def _traced(wl, seconds: float, size, checker, env, started: float) -> tuple[dict, dict]:
    import tracer
    import workloads

    begin = time.perf_counter()
    workloads.launch_s(workloads.SETUP, env)  # warm-up: page cache, bytecode cache
    interpreter = min(workloads.launch_s("pass", env) for _ in range(size.repeats))
    setup = min(workloads.launch_s(workloads.SETUP, env) for _ in range(size.repeats))
    numpy_ms = workloads.numpy_import_ms(env, size.repeats)
    trace = tracer.Tracer()

    def one_round() -> float:
        return sum(wl.replay_op(i, checker) for i in range(wl.round_len))

    one_round()  # warm-up: first calls pay for lazy imports and page faults
    plain, traced = [], []
    while True:
        # Alternate which half of the pair goes first, so drift cancels.
        if len(plain) % 2:
            with trace.traced_round():
                traced.append(one_round())
            plain.append(one_round())
        else:
            plain.append(one_round())
            with trace.traced_round():
                traced.append(one_round())
        now = time.perf_counter()
        # Leave room for the memory round, which tracemalloc slows down.
        if now - begin + 3 * traced[-1] >= seconds or now - started >= HARD_STOP_S:
            break
    with trace.memory_round():
        one_round()

    own, inclusive = tracer.self_times(trace.spans)
    ops = wl.round_len * len(traced)
    metrics = {name: own.get(span, 0.0) * 1e3 / ops for name, span in SELF_MS.items()}
    metrics.update(
        {name: inclusive.get(span, 0.0) * 1e3 / ops for name, span in SPAN_MS.items()}
    )
    metrics.update({name: trace.counts.get(name, 0) for name in tracer.COUNT_NAMES})
    for span in tracer.PEAK_SPANS:
        metrics[f"{span}_peak_mb"] = trace.peaks.get(span, 0) / 2**20
    metrics["cli.interpreter_ms"] = interpreter * 1e3
    metrics["cli.numpy_import_ms"] = numpy_ms
    metrics["cli.import_ms"] = (setup - interpreter) * 1e3
    # Median over pairs: a pair that straddles a change in machine speed
    # does not move it.
    ratios = [t / p for p, t in zip(plain, traced)]
    metrics["trace_overhead_pct"] = (statistics.median(ratios) - 1.0) * 100.0
    first_round = [s for s in trace.spans if s[4] == 1]
    extra = {"ops_traced": ops, "round_s": {"untraced": plain, "traced": traced},
             "spans": first_round}
    return {name: metrics[name] for name in LAYER_UNITS}, extra


def run_workload(name: str, seed: int, seconds: float, trace: bool, size=None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full record)."""
    import checks
    import workloads

    started = time.perf_counter()
    size = size or workloads.FULL
    env = workloads.child_env(ROOT)
    checker = checks.Checker()
    wl = workloads.make(name, seed, size, env)
    measure = _traced if trace else _untraced
    metrics, extra = measure(wl, seconds, size, checker, env, started)
    units = LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "op": wl.op,
        "aliases": wl.aliases,
        "round_len": wl.round_len,
        "inputs": wl.inputs(),
        "machine": machine(),
        "failures": checker.messages,
        "wall_s": time.perf_counter() - started,
        **extra,
        "result": result,
    }
    return result, record


def summary(record: dict) -> list[str]:
    """Human-readable lines, naming each metric the way the README's map does."""
    result, name = record["result"], record["workload"]
    lines = [f"{name} seed {record['seed']}: op = {record['op']}; "
             f"BLAS threads {record['machine']['blas_threads']}"]
    for metric, entry in result["metrics"].items():
        lines.append(f"  {metric:<36} {entry['value']:>14.6g} {entry['unit']}")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if "op_p50_ms" in metrics:
        for alias, (metric, factor) in record["aliases"].items():
            unit = result["metrics"][metric]["unit"]
            lines.append(f"  {alias:<36} {metrics[metric] * factor:>14.6g} {unit}"
                         f"  ({metric} x {factor})")
        lines.append(f"  p50/p90 over the best times of {record['ops']} ops, each run at least "
                     f"{record['passes']} times ({record['samples']} timed samples)")
    if "entanglement.report_ms" in metrics and metrics["entanglement.report_ms"] > 0:
        fock = metrics["fock.partial_trace_ms"] + metrics["fock.entropy_ms"]
        lines.append(f"  partial_trace + entropy = "
                     f"{100 * fock / metrics['entanglement.report_ms']:.1f}% of entropy_report")
    failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    lines.append(f"  failed_frac {failed_frac:.6g} ({result['failed']} of "
                 f"{result['attempted']} checked outputs)")
    lines += [f"  FAILED {m}" for m in record["failures"]]
    return lines


def write_record(record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans", None)
    if spans:
        with open(OUT_DIR / f"{stem}-spans.csv", "w") as fh:
            fh.write("name,start_s,end_s,parent,round\n")
            t0 = spans[0][1]
            for name, start, end, parent, round_id in spans:
                fh.write(f"{name},{start - t0:.9f},{end - t0:.9f},{parent},{round_id}\n")
    with open(OUT_DIR / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["boson-deep", "sweep-wide", "cli-mix"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be nonnegative")
    prepare()
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(summary(record)))
    write_record(record)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
