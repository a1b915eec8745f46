"""Run the benchmark over several seeds and report each metric's run-to-run spread.

    python3 bench/spread.py --seeds 10 --trace 0
    python3 bench/spread.py --seeds 3 --trace 1 --write bench/baseline.json

Seeds run from 1 to ``--seeds`` on every workload.  Spread is the
distance between the first and third quartiles of a metric's values
(``statistics.quantiles(values, n=4)``) as a share of their median.  Runs last ``run_seconds`` from BENCHMARK.json unless
``--seconds`` says otherwise.  ``--write`` stores the figures in the named
JSON file under "end_to_end" (trace 0) or "per_layer" (trace 1), keeping
the other section.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("boson-deep", "sweep-wide", "cli-mix")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=600)
    return json.loads(out.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else float("nan")
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write", type=Path, help="JSON file to store the figures in")
    args = parser.parse_args()

    seeds = list(range(1, args.seeds + 1))
    section = {}
    for workload in WORKLOADS:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        metrics = {}
        for name, entry in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": entry["unit"], **describe(values)}
            m = metrics[name]
            print(f"{workload:<11} {name:<36} median {m['median']:>12.6g} {entry['unit']:<5}"
                  f" spread {m['spread']:.4f}", flush=True)
        print(f"{workload:<11} failed {failed} of {attempted}", flush=True)
        section[workload] = {"failed": failed, "attempted": attempted, "metrics": metrics}

    if args.write:
        doc = json.loads(args.write.read_text()) if args.write.exists() else {}
        record = ROOT / ".bench_out" / f"{WORKLOADS[-1]}-seed{seeds[-1]}-trace{args.trace}.json"
        doc["machine"] = json.loads(record.read_text())["machine"]
        doc["end_to_end" if args.trace == 0 else "per_layer"] = {
            "seconds": args.seconds, "seeds": seeds, "workloads": section,
        }
        args.write.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
