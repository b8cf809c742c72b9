"""Run every workload over several seeds and record the figures as a baseline.

    python3 perfbench/baseline.py --out perfbench/BASELINE.json

For each workload in BENCHMARK.json, runs `run.py --trace 0` once per seed
1..10, then `run.py --trace 1` once with seed 1, one run at a time.  Writes,
per workload and end-to-end metric, every value with its median, quartiles
and spread (quartile distance over median, the steadiness figure the bounds
are judged against), the per-layer metrics of the traced run, and the machine
it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "n": len(values), "values": values}


def machine() -> dict:
    import numpy
    src = os.path.join(ROOT, "src", "twosquares")
    lines = 0
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                lines += sum(1 for _ in fh)
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "mem_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 1),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": lines}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    result = {"machine": machine(), "run_seconds": spec["run_seconds"], "workloads": {}}
    for wl in spec["workloads"]:
        runs = [run(wl["name"], s, spec["run_seconds"], 0) for s in SEEDS]
        traced = run(wl["name"], SEEDS[0], spec["run_seconds"], 1)
        entry = {
            "why": wl["why"], "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in runs + [traced]),
            "attempted": sum(r["attempted"] for r in runs + [traced]),
            "failed": sum(r["failed"] for r in runs + [traced]),
            "end_to_end": {m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs])
                           for m in spec["end_to_end"]},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        result["workloads"][wl["name"]] = entry
        print(wl["name"], {k: round(v["spread"], 3) for k, v in entry["end_to_end"].items()},
              "failed", entry["failed"], flush=True)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
