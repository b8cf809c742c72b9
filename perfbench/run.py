"""twosquares benchmark: one run of one workload.

    python3 perfbench/run.py --workload count-pool --seed 1 --seconds 40 --trace 0

Run from the repository root.  A run measures set-up (interpreter start until
`import twosquares` returns) several times, then repeats the workload,
each repetition in a fresh interpreter (perfbench/workloads.py), until the
next repetition would end past --seconds; at least one always runs (with
--trace 1, one untraced and one traced).  Each workload is a single-client
closed loop: one library call at a time.

With --trace 0 the run reports the end-to-end metrics (medians over the
repetitions).  Times are CPU seconds: those of the process that calls the
library plus its pool workers (cpu_s), and those of an interpreter up to the
end of `import twosquares` (setup_s).  On a shared host, wall time of the same
code swings with the host's load, and CPU time does not count the time the
host takes the CPU away.  Wall-clock medians are printed alongside.

With --trace 1 it alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones (perfbench/tracing.py) plus
trace.overhead_frac: the median, over the pairs of one traced repetition and
the untraced one just before it, of traced over untraced CPU time, minus 1.
Every check of every repetition is one operation; a failed check, a raised
exception or a crashed repetition is one failed operation.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Work files go under .perfbench_work/ (removed at exit); a traced run leaves the
spans of its last traced repetition in .perfbench_spans/<workload>.jsonl.gz.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("count-pool", "stats-cache", "analytic-cold")
SETUP_SAMPLES = 3        # import-only interpreters per run, besides one per repetition
REP_TIMEOUT_S = 150      # one repetition; the whole run must end within 180 s
RUN_LIMIT_S = 165
IMPORT_PROBE = ("import twosquares, time, sys; "
                "sys.stdout.write(f'{time.monotonic()!r} {time.process_time()!r}')")


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # numpy's OpenBLAS otherwise starts a thread per CPU that spins after import,
    # CPU time the library never asked for; twosquares makes only tiny BLAS calls
    # (a small solve, short dot products), which OpenBLAS runs on one thread anyway
    env["OPENBLAS_NUM_THREADS"] = "1"
    # set-up is measured with cached bytecode, as a repeated user sees it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def measure_setup() -> tuple[float, float]:
    """(wall, CPU) seconds from spawning an interpreter until its `import twosquares` returns."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_env(), cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    imported_at, cpu = map(float, out.stdout.split())
    return imported_at - t0, cpu


def run_rep(workload: str, seed: int, traced: bool, work: str, spans: str | None) -> dict:
    """One repetition in a fresh interpreter, with its own fresh cache directory."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=work)
    out = cache_dir + ".json"
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", out,
           "--cache-dir", cache_dir]
    if spans:
        cmd += ["--spans", spans]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=_env(), cwd=ROOT, stdout=subprocess.DEVNULL,
                              timeout=REP_TIMEOUT_S)
        with open(out) as fh:
            rec = json.load(fh)
        if proc.returncode != 0:
            rec["error"] = f"exit code {proc.returncode}"
    except (subprocess.TimeoutExpired, OSError, ValueError) as exc:
        rec = {"checks": [], "error": f"repetition did not complete: {exc!r}"}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    rec["duration_s"] = time.monotonic() - t0
    if "imported_at" in rec:
        rec["setup_wall_s"] = rec["imported_at"] - t0
    return rec


def tally(reps: list[dict]) -> tuple[int, int]:
    """(operations attempted, failed): each check is one; so is a repetition's error."""
    attempted = failed = 0
    for rec in reps:
        for name, ok in rec["checks"]:
            attempted += 1
            if not ok:
                failed += 1
                print(f"check failed: {name}", file=sys.stderr)
        if rec.get("error"):
            attempted += 1
            failed += 1
            print(f"repetition failed: {rec['error']}", file=sys.stderr)
    return attempted, failed


def tail_percentile(values: list[float]):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    n = len(values)
    if n < 11:
        return None
    p = 100.0 * (n - 10) / n
    return p, statistics.quantiles(values, n=100, method="inclusive")[int(p) - 1]


def describe(name: str, values: list[float], unit: str) -> str:
    tail = tail_percentile(values)
    tail_txt = (f"p{tail[0]:.0f} {tail[1]:.6g}" if tail
                else "no percentile with >= 10 samples beyond it")
    return (f"{name}: median {statistics.median(values):.6g} {unit}; {tail_txt}; "
            f"n={len(values)}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "twosquares", "__init__.py")):
        print(f"no twosquares sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    started = time.monotonic()
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=work_root)
    spans_dir = os.path.join(ROOT, ".perfbench_spans")
    try:
        measure_setup()  # compiles the package's bytecode once; not a sample
        setups = [measure_setup() for _ in range(SETUP_SAMPLES)]
        reps = {False: [], True: []}
        duration = {}  # kind -> seconds its last repetition took
        deadline = time.monotonic() + args.seconds
        for traced in itertools.cycle((False, True) if args.trace else (False,)):
            now = time.monotonic()
            if traced in duration and (now + duration[traced] > deadline
                                       or now + duration[traced] - started > RUN_LIMIT_S):
                break
            spans = None
            if traced:
                os.makedirs(spans_dir, exist_ok=True)
                spans = os.path.join(spans_dir, f"{args.workload}.jsonl.gz")
            reps[traced].append(run_rep(args.workload, args.seed, traced, work, spans))
            duration[traced] = time.monotonic() - now
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(work_root)  # only if no other run is using it
        except OSError:
            pass

    all_reps = reps[False] + reps[True]
    attempted, failed = tally(all_reps)
    setup_walls = [wall for wall, _ in setups] + [r["setup_wall_s"] for r in all_reps
                                                   if "setup_wall_s" in r]
    setup_cpus = [cpu for _, cpu in setups] + [r["import_cpu_s"] for r in all_reps
                                               if "import_cpu_s" in r]
    done = [r for r in reps[False] if "cpu_s" in r]

    print(f"workload {args.workload}, seed {args.seed}: {len(reps[False])} untraced and "
          f"{len(reps[True])} traced repetitions, {attempted} operations, {failed} failed")
    print(f"error_rate: {failed / max(attempted, 1):.6g} ({failed}/{attempted})")
    print(describe("setup_s", setup_cpus, "CPU s"))
    print(describe("set-up wall time", setup_walls, "s"))
    for rec in done:
        print(f"repetition: cpu_s {rec['cpu_s']:.4f}, wall {rec['wall_s']:.4f} s, "
              f"peak_rss_mb {rec['peak_rss_mb']:.1f}, {json.dumps(rec['info'])}")
    if done:
        walls = [r["wall_s"] for r in done]
        print(describe("cpu_s", [r["cpu_s"] for r in done], "CPU s"))
        print(describe("wall time", walls, "s"))
        print(describe("peak_rss_mb", [r["peak_rss_mb"] for r in done], "MB"))
        ints = done[0]["info"]["ints"]
        if ints:
            print(f"ints_per_s: {ints / statistics.median(walls):.6g} "
                  f"({ints} integers / median wall_s)")

    if args.trace:
        pairs = [(u, t) for u, t in zip(reps[False], reps[True])
                 if "cpu_s" in u and "layers" in t]
        if not pairs:
            print("no traced repetition completed", file=sys.stderr)
            return 1
        traced = [t for _, t in pairs]
        metrics = {k: statistics.median(r["layers"][k] for r in traced)
                   for k in traced[0]["layers"]}
        # each traced repetition against the untraced one just before it
        metrics["trace.overhead_frac"] = statistics.median(
            t["cpu_s"] / u["cpu_s"] - 1 for u, t in pairs)
        from tracing import UNMEASURED
        unmeasured = dict(UNMEASURED)
        for name in sorted({n for r in traced for n in r["unmeasured"]}):
            unmeasured[name] = "ratio with a base of 0 in this workload; printed as 0"
        for name, why in unmeasured.items():
            print(f"{name}: unmeasured ({why})")
    else:
        if not done:
            print("no repetition completed", file=sys.stderr)
            return 1
        metrics = {"cpu_s": statistics.median(r["cpu_s"] for r in done),
                   "setup_s": statistics.median(setup_cpus),
                   "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done)}
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
