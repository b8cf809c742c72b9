#!/usr/bin/env python3
"""Record a parent-versus-change benchmark comparison as BENCH_<PR>.json.

The parent is a committed revision (--base, default HEAD); the change is the
working tree this script runs in, tracked files only (a `git stash create`
snapshot, or HEAD when the tree is clean).  Both are unpacked with
`git archive` into sibling temporary directories, so both sides run from the
same filesystem with freshly written bytecode.  For each workload, pair i
runs `perfbench/run.py` once in each tree, for BENCHMARK.json's run_seconds,
with seed FIRST_SEED + i, parent first on even i and change first on odd i,
so a drift of the host's speed over the runs falls on both sides.
Each run reports the medians of its repetitions (perfbench/run.py); the file
keeps every run's end-to-end metrics and, per metric, both sides' median and
quartiles over the runs and the number of pairs the change won (strictly
better in the metric's direction, as BENCHMARK.json declares it).

    python3 scripts/bench_record.py --pr 23 --workload count-pool --pairs 10 \\
        --workload stats-cache --pairs 3 --workload analytic-cold --pairs 3

Run from the repository root; it writes BENCH_<PR>.json there.  Every run of
every pair is listed, failed checks included (`correct` false).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIRST_SEED = 11  # seed of each workload's first pair


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def extract(commit: str, dest: str) -> str:
    """The tree of `commit`, unpacked into the new directory dest; returns dest."""
    os.mkdir(dest)
    archive = dest + ".tar"
    subprocess.run(["git", "archive", "--format=tar", f"--output={archive}", commit],
                   cwd=ROOT, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    os.remove(archive)
    return dest


def run_once(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """The final JSON line of one `perfbench/run.py` run in `tree`."""
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds)],
                         cwd=tree, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited {out.returncode}:\n"
                           f"{out.stderr[-2000:]}")
    rec = json.loads(lines[-1])
    return {"seed": seed, "correct": rec["correct"], "failed": rec["failed"],
            "metrics": {k: v["value"] for k, v in rec["metrics"].items()}}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: both sides' median and quartiles, and the pairs the change won."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        p = [r["metrics"][name] for r in parent]
        c = [r["metrics"][name] for r in change]
        won = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
        out[name] = {"unit": metric["unit"], "better": metric["better"],
                     "parent": summary(p), "change": summary(c),
                     "pairs": len(p), "pairs_won": won}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pr", type=int, required=True, help="names the output BENCH_<PR>.json")
    ap.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--pairs", type=int, action="append", required=True,
                    help="pairs of runs for the --workload before it")
    args = ap.parse_args()
    if len(args.pairs) != len(args.workload) or min(args.pairs) < 2:
        ap.error("give one --pairs N >= 2 after each --workload (quartiles need two runs)")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    end_to_end, seconds = bench["end_to_end"], bench["run_seconds"]

    commits = {"parent": git("rev-parse", "--verify", f"{args.base}^{{commit}}"),
               "change": git("stash", "create") or git("rev-parse", "HEAD")}
    # the change's tree id equals that of the commit it becomes
    record = {"nproc": len(os.sched_getaffinity(0)), "seconds_per_run": seconds,
              "parent": commits["parent"],
              "change_tree": git("rev-parse", commits["change"] + "^{tree}"), "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench-record-") as tmp:
        trees = {side: extract(commit, os.path.join(tmp, side))
                 for side, commit in commits.items()}
        for workload, n in zip(args.workload, args.pairs):
            runs = {"parent": [], "change": []}
            for i in range(n):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for side in order:
                    rec = run_once(trees[side], workload, FIRST_SEED + i, seconds)
                    runs[side].append(rec)
                    print(f"{workload} pair {i + 1}/{n} {side}: {rec['metrics']} "
                          f"correct={rec['correct']}", file=sys.stderr, flush=True)
            record["workloads"][workload] = {
                "runs": runs, "metrics": compare(runs["parent"], runs["change"], end_to_end)}
    path = os.path.join(ROOT, f"BENCH_{args.pr}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
