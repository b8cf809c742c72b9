"""Self-check of the benchmark's correctness gate.

    python3 perfbench/selfcheck.py

Feeds each workload's check function first with right results, which must
all pass, then with a deliberately wrong count or a broken invariant, which
must fail, and confirms that such a failure, or a repetition that raised,
gives an error_rate above 0 through the same tally `run.py` uses.  Runs in a
few seconds at small sizes; exits 1 if any expectation is not met.
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import workloads as w  # noqa: E402
from twosquares import constants, progressions, refdata, sieve  # noqa: E402

FAILURES = []


def expect(label: str, checks, want_pass: bool) -> list:
    results = [[name, bool(ok)] for name, ok in checks]
    passed = all(ok for _, ok in results)
    good = passed == want_pass
    print(f"{'ok  ' if good else 'FAIL'} {label}: "
          f"{sum(ok for _, ok in results)}/{len(results)} checks pass")
    if not good:
        FAILURES.append(label)
    return results


def error_rate(checks, error=None) -> float:
    attempted, failed = run.tally([{"checks": checks, "error": error}])
    return failed / attempted


def count_pool() -> None:
    rng = random.Random(0)
    lo = 10**10 + rng.randrange(10**7)
    seg = sieve.sieve_segment(lo, lo + 9999)
    idx = sorted(rng.sample(range(10000), 50))
    bits = seg.bits[idx].tolist()
    total = w.COUNT_REF
    expect("count-pool, right results", w.count_pool_checks(total, [(lo, idx, bits)]), True)
    wrong = expect("count-pool, count off by one",
                   w.count_pool_checks(total + 1, [(lo, idx, bits)]), False)
    flipped = [not bits[0]] + bits[1:]
    expect("count-pool, one window bit flipped",
           w.count_pool_checks(total, [(lo, idx, flipped)]), False)
    rate = error_rate(wrong)
    print(f"{'ok  ' if rate > 0 else 'FAIL'} count-pool wrong count: error_rate {rate:.3f}")
    if rate <= 0:
        FAILURES.append("count-pool error_rate")


def stats_cache() -> None:
    x = 10**5
    singles, pairs = progressions.residue_pair_stats(x, 5)
    triples = progressions.count_consecutive_tuples(x, 5, 3)
    gaps = progressions.gap_histogram(x)
    by13 = progressions.count_by_residue(x, 13)
    expect("stats-cache, right results",
           w.stats_cache_checks(singles, pairs, triples, gaps, by13), True)
    moved = progressions.ResidueCountMatrix(5, 2, x, pairs.counts.copy())
    moved.counts[0, 0] -= 1
    moved.counts[1, 0] += 1  # column sums kept, row sums broken
    broken = expect("stats-cache, one pair moved to another row",
                    w.stats_cache_checks(singles, moved, triples, gaps, by13), False)
    gaps_off = dict(gaps)
    gaps_off[2] += 1
    expect("stats-cache, gap histogram off by one",
           w.stats_cache_checks(singles, pairs, triples, gaps_off, by13), False)
    rate = error_rate(broken)
    print(f"{'ok  ' if rate > 0 else 'FAIL'} stats-cache broken invariant: error_rate {rate:.3f}")
    if rate <= 0:
        FAILURES.append("stats-cache error_rate")


def analytic_cold() -> None:
    b = constants.build_bundle(5)
    bundles = {5: b}
    wsum = {(v, key): w._table_H(key, b.K) / 5 + table[key][0]
            for v, table in ((0, refdata.TABLE6), (3, refdata.TABLE7)) for key in w.WSUM_KEYS}
    icount = {10**9: float(refdata.TABLE2[10**9][3]), 10**12: float(refdata.TABLE2[10**12][3])}
    landau = (167877068.2, 172591374.9)
    tables = {3: (None, [[0, None, None, 30536403581], [1, None, None, 29477858608]], None),
              4: (None, [[0, 1, None, 3619120683, 3850620130],
                         [0, 5, None, 3619120682, 3982373088]], None)}
    right = (bundles, wsum, icount, landau, tables)
    expect("analytic-cold, right results", w.analytic_cold_checks(*right), True)
    expect("analytic-cold, integral count off by 10",
           w.analytic_cold_checks(bundles, wsum, {**icount, 10**9: icount[10**9] + 10},
                                  landau, tables), False)
    expect("analytic-cold, S(5,3;16) off by 1e-3",
           w.analytic_cold_checks(bundles, {**wsum, (3, 16): wsum[3, 16] + 1e-3},
                                  icount, landau, tables), False)
    wrong_table = {**tables, 3: (None, [[0, None, None, 30536403583], tables[3][1][1]], None)}
    expect("analytic-cold, table 3 prediction off by 2",
           w.analytic_cold_checks(bundles, wsum, icount, landau, wrong_table), False)


def main() -> int:
    count_pool()
    stats_cache()
    analytic_cold()
    rate = error_rate([], error="Traceback ...: raised")
    print(f"{'ok  ' if rate > 0 else 'FAIL'} repetition that raised: error_rate {rate:.3f}")
    if rate <= 0:
        FAILURES.append("raised error_rate")
    print("selfcheck:", "FAIL " + ", ".join(FAILURES) if FAILURES else "PASS")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
