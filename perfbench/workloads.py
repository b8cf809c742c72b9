"""One repetition of one benchmark workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/workloads.py --workload NAME --seed N \
        --trace 0|1 --out REP.json --cache-dir DIR [--spans SPANS.jsonl]

`run.py` starts this once per repetition, so every repetition pays the cold
cost of the in-process memo tables (`build_bundle`, `character_table`, `_K`,
the `c_k` array) exactly as a CLI call or a `reproduce_tables.py` run does.
The timed region runs from the first library call of the workload to the
last; the correctness checks run after it.  It is timed twice: wall-clock
seconds, and CPU seconds of this process plus its pool workers.  Nothing is
printed on stdout: the result is one JSON object written to --out.
"""

import time

import twosquares  # first, so that the times below cover interpreter start + import

IMPORTED_AT = time.monotonic()
IMPORT_CPU_S = time.process_time()  # CPU seconds since this process started

import argparse  # noqa: E402
import functools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

from twosquares import (constants, predictors, progressions, quadrature,  # noqa: E402
                        refdata, sieve, singular, tables)

WINDOW = 2**24
WINDOW_HEIGHTS = (10, 11, 12)
SPOT_POINTS = 120              # membership spot-checks, split over the windows
# refdata.TABLE2 starts at 1e9, whose pool count alone takes ~11 s on 2 vCPUs;
# this count of [0, 2^28] comes from marking every a^2 + b^2 <= 2^28 directly,
# with no code shared with the sieve.
X_COUNT, COUNT_REF = 2**28, 48168462
X_STATS = sieve.DEFAULT_SEGMENT_BITS   # one full segment, plus the overshoot segment
BUNDLE_QS = (5, 13, 29)
WSUM_COLD_H = 10**5            # sizes the c_k array; the checked sums reuse it
MS_SUM = (14, 3)
WSUM_KEYS = (6.356, 16, 100, 10**4)   # refdata.TABLE6 / TABLE7 rows up to WSUM_COLD_H
TOL_4DP = 5e-5


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _clocks() -> tuple[float, float]:
    """(wall, CPU) seconds now; CPU covers this process and its reaped children.

    The pool's workers are children that the pool reaps when it shuts down, so
    a timed region that ends after the pool is gone counts their CPU time too.
    Time spent waiting for a CPU, or stolen from the VM by its host (with the
    kernel's paravirtual steal accounting), is not CPU time of the process.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.perf_counter(), time.process_time() + children.ru_utime + children.ru_stime


def _since(start: tuple[float, float]) -> dict:
    now = _clocks()
    return {"wall_s": now[0] - start[0], "cpu_s": now[1] - start[1]}


def _table_H(key, K: float) -> float:
    """H of a TABLE6/TABLE7 row; the key 6.356 stands for -1/log(1 - K/sqrt(log 1e12))."""
    return -1 / math.log(1 - K / math.sqrt(math.log(1e12))) if key == 6.356 else float(key)


def count_pool(rng: random.Random, cache_dir: str):
    """Pool count to 2^28, then one in-process window at each height 1e10..1e12."""
    nproc = len(os.sched_getaffinity(0))
    windows = [10**h + rng.randrange(10 ** (h - 3)) for h in WINDOW_HEIGHTS]
    spots = [sorted(rng.sample(range(WINDOW), SPOT_POINTS // len(windows)))
             for _ in windows]
    t0 = _clocks()
    total = sieve.count_up_to(X_COUNT, include_zero=True, threads=nproc)
    counts, samples = [], []
    for lo, idx in zip(windows, spots):
        seg = sieve.sieve_segment(lo, lo + WINDOW - 1)
        counts.append(seg.count())
        samples.append((lo, idx, seg.bits[idx].tolist()))
    timed = _since(t0)
    info = {"threads": nproc, "ints": X_COUNT + WINDOW * len(windows),
            "windows": dict(zip(map(str, windows), counts))}
    return timed, info, functools.partial(count_pool_checks, total, samples)


def count_pool_checks(total, samples):
    """The 2^28 count against its reference; each window's sampled bits against the membership test."""
    yield "count_up_to(2^28) == direct a^2 + b^2 count", total == COUNT_REF
    for lo, idx, bits in samples:
        yield (f"window at {lo}: {len(idx)} membership spot-checks",
               bits == [sieve.is_sum_of_two_squares(lo + i) for i in idx])


def stats_cache(rng: random.Random, cache_dir: str):
    """One sieving pass that writes the segment cache, then three passes reading it.

    x is also the segment size, so the segments of [1, x] are exactly those of
    [1, x + overshoot] without the last, and every later pass finds all its
    segments in the cache.
    """
    x = X_STATS - rng.randrange(X_STATS // 100)
    kw = {"cache_dir": cache_dir, "threads": 1, "segment_budget": x}
    t0 = _clocks()
    singles, pairs = progressions.residue_pair_stats(x, 5, **kw)
    triples = progressions.count_consecutive_tuples(x, 5, 3, **kw)
    gaps = progressions.gap_histogram(x, **kw)
    by13 = progressions.count_by_residue(x, 13, **kw)
    timed = _since(t0)
    info = {"x": x, "ints": x, "count": singles.total()}
    return timed, info, functools.partial(stats_cache_checks, singles, pairs, triples, gaps, by13)


def stats_cache_checks(singles, pairs, triples, gaps, by13):
    """Exact invariants between the four statistics of one x."""
    yield ("pair-matrix row sums == singles",
           np.array_equal(pairs.counts.sum(axis=1), singles.counts))
    yield ("triple marginal == pair matrix",
           np.array_equal(triples.counts.sum(axis=2), pairs.counts))
    yield "gap-histogram total == singles total", sum(gaps.values()) == singles.total()
    yield "mod-13 total == mod-5 total", by13.total() == singles.total()


def analytic_cold(rng: random.Random, cache_dir: str):
    """Constants bundles, cold c_k sums, local densities, quadrature, predictors, tables.

    Every output that the checks read is computed inside the timed region.
    """
    x = 10**12 * (1 + rng.uniform(-0.01, 0.01))
    t0 = _clocks()
    bundles = {q: constants.build_bundle(q) for q in BUNDLE_QS}
    K = bundles[5].K
    wsum = {}
    for v in (0, 3):
        singular.weighted_sum_S(5, v, WSUM_COLD_H, K)
        for key in WSUM_KEYS:
            wsum[v, key] = singular.weighted_sum_S(5, v, _table_H(key, K), K)
    singular.ms_sum(*MS_SUM)
    icount = {xg: quadrature.integral_count(xg) for xg in refdata.X_GRID}
    quadrature.epsilon_sensitivity(5, 1e4)
    for k in (2, 3, 4):
        quadrature.integral_ktuple_average(k, 100)
    landau = (predictors.landau_refined(1e9, 0), predictors.landau_refined(1e9, 1))
    for q in (5, 13):
        for v in range(q):
            predictors.pipeline_D012(x, q, 0, v)
            predictors.pair_conjecture(x, q, 0, v)
    reproduced = {table_id: tables.reproduce_table(table_id) for table_id in (3, 4, 5, 6, 7)}
    timed = _since(t0)
    info = {"x": x, "ints": 0}
    return timed, info, functools.partial(analytic_cold_checks, bundles, wsum, icount, landau,
                                         reproduced)


def analytic_cold_checks(bundles, wsum, icount, landau, reproduced):
    """Acceptance criteria 02, 03, 04, 06 and 10, and C_ab real for every bundle.

    Criteria 05, 07, 08 and 09 assert documented reference errata and are not used.
    Criterion 06 is checked for H <= 1e4, the sums this workload computes.
    """
    yield ("criterion 02: landau_refined(1e9) J=0, J=1",
           tuple(map(round, landau)) == (167877068, 172591375))
    yield ("criterion 03: integral_count(1e9)",
           abs(icount[10**9] - refdata.TABLE2[10**9][3]) <= 2)
    yield ("criterion 03: integral_count(1e12)",
           abs(icount[10**12] - refdata.TABLE2[10**12][3]) <= 2000)
    b = bundles[5]
    yield "criterion 04: c0(1)", abs(b.c0_j[1] - refdata.C0_REF[1]) < 1e-8
    yield "criterion 04: c1(1)", abs(b.c1_j[1] - refdata.C1_REF[1]) < 1e-8
    yield "criterion 04: Z'(0)", abs(b.z_prime_0 - (-0.3851314513)) < 1e-8
    yield ("criterion 04: Z'(0) = K omega / sqrt(pi)",
           abs(b.z_prime_0 - b.K / math.sqrt(math.pi) * b.omega) < 1e-15)
    for j in (1, 2, 3):
        c0 = b.c0_j[1] if j == 1 else refdata.C0_REF[j]
        c1 = b.c1_j[1] if j == 1 else refdata.C1_REF[j]
        c = b.c_j[1] if j == 1 else refdata.C_REF[j]
        yield f"criterion 04: c0({j}) + 4 c1({j}) = c({j})", abs(c0 + 4 * c1 - c) < 1e-10
    for v, table in ((0, refdata.TABLE6), (3, refdata.TABLE7)):
        for key in WSUM_KEYS:
            got = wsum[v, key] - _table_H(key, b.K) / 5
            yield f"criterion 06: S(5,{v};{key:g}) - H/5", abs(got - table[key][0]) <= TOL_4DP
    secondary = {row[0]: row[3] for row in reproduced[3][1]}
    hl = {(row[0], row[1]): row[3:5] for row in reproduced[4][1]}
    got = [secondary[0], secondary[1], *hl[0, 1], hl[0, 5][1]]
    want = [30536403581, 29477858608, 3619120683, 3850620130, 3982373088]
    yield ("criterion 10: tables 3 and 4 predictions at 1e12",
           all(abs(g - w) <= 1 for g, w in zip(got, want)))
    for q, bq in bundles.items():
        yield (f"C_ab real for q={q}",
               all(isinstance(c, float) and math.isfinite(c) for c in bq.C_ab.values()))


WORKLOADS = {"count-pool": count_pool, "stats-cache": stats_cache,
             "analytic-cold": analytic_cold}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--cache-dir", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(twosquares.__file__).startswith(src + os.sep):
        print(f"twosquares imported from {twosquares.__file__}, not from {src}", file=sys.stderr)
        return 2

    record = {"imported_at": IMPORTED_AT, "import_cpu_s": IMPORT_CPU_S, "checks": [],
              "error": None}
    tracer = None
    if args.trace:
        from tracing import Tracer  # perfbench/tracing.py, next to this file
        tracer = Tracer()
        tracer.install()
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        timed, info, checks = WORKLOADS[args.workload](rng, args.cache_dir)
        record.update(timed, peak_rss_mb=_rss_mb(), info=info)
        if tracer:
            tracer.uninstall()
            record["layers"], record["unmeasured"] = tracer.layer_metrics()
            if args.spans:
                tracer.write_spans(args.spans)
        for name, ok in checks():
            record["checks"].append([name, bool(ok)])
    except Exception:  # recorded as one failed operation
        record["error"] = traceback.format_exc()
        print(record["error"], file=sys.stderr)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
