"""Residue statistics: brute-force equivalence, marginals, bias directions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from twosquares import progressions, sieve
from twosquares.errors import ArgumentError


def _members(x, extra=0):
    return sieve.sieve_segment(1, x + extra).values().tolist()


def brute_tuples(x, q, r):
    """r-tuple residue counts by listing E and its successors directly."""
    vals = _members(x, extra=1000)  # past x <= 10^4, E's gaps are at most 28 (sieve._gap_bound)
    counts = {}
    for i in range(len(vals) - r + 1):
        if vals[i] > x:
            break
        key = tuple(v % q for v in vals[i:i + r])
        counts[key] = counts.get(key, 0) + 1
    return counts


# (17, 5): 17^5 cells, more than any block has windows, so the reducer adds them sparsely.
# Keys are uint8 up to 256 cells, uint16 up to 65,536 (17^2 = 289, 257) and int64
# above (257^2 = 66,049, also sparse)
@pytest.mark.parametrize("q,r", [(5, 2), (5, 3), (13, 2), (17, 2), (5, 4), (17, 5), (257, 1),
                                 (257, 2)])
def test_tuple_counts_match_brute_force(q, r):
    x = 10**4
    mat = progressions.count_consecutive_tuples(x, q, r)
    want = np.zeros((q,) * r, dtype=np.int64)
    for key, n in brute_tuples(x, q, r).items():
        want[key] = n
    assert np.array_equal(mat.counts, want)


def test_single_counts_match_brute_force():
    x = 10**4
    mat = progressions.count_by_residue(x, 13)
    vals = [v for v in _members(x)]
    for a in range(13):
        assert mat.cell(a) == sum(1 for v in vals if v % 13 == a)
    # 131101 > BLOCK: int64 codes folded once, from values past 2q
    x, q = 3 * 10**5, 131101
    want = np.bincount(np.array(_members(x)) % q, minlength=q)
    assert np.array_equal(progressions.count_by_residue(x, q).counts, want)


@given(st.sampled_from([5, 13, 17, 29]),
       st.integers(min_value=100, max_value=3000))
@settings(max_examples=20, deadline=None)
def test_pair_marginals_match_singles(q, x):
    # sum_b pairs(a, b) = singles(a) exactly: every E_n <= x gets its successor,
    # even when that successor exceeds x
    singles, pairs = progressions.residue_pair_stats(x, q)
    for a in range(q):
        assert int(pairs.counts[a].sum()) == singles.cell(a)
    assert pairs.total() == singles.total()


BRUTE_X = 3000  # E has gaps of at most 15 below 3100, so BRUTE_E holds 5 successors of x
BRUTE_E = [n for n in range(1, BRUTE_X + 100) if sieve.is_sum_of_two_squares(n)]
WIDE_X = 10**5  # E has gaps of at most 25 below 10^5 + 200, so WIDE_E holds 5 successors of x
WIDE_E = sorted(n for n in {a * a + b * b for a in range(317) for b in range(a, 317)}
                if 1 <= n <= WIDE_X + 200)


def _check_against_brute_list(E, x, q, r, block, **kw):
    """Every statistic of x, with progressions.BLOCK = block, against the listed elements E."""
    if q == 257:
        r = min(r, 2)  # 257^2 cells take int64 keys; 257^3 would be a 17M-cell table
    elif q != 5:
        r = min(r, 4)  # every 1-entry segment allocates q^r cells: 5^6 is 15,625, 17^6 24M
    starts = [i for i, v in enumerate(E) if v <= x]
    want = np.zeros((q,) * r, dtype=np.int64)
    for i in starts:
        want[tuple(v % q for v in E[i:i + r])] += 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(progressions, "BLOCK", block)
        assert np.array_equal(progressions.count_consecutive_tuples(x, q, r, **kw).counts, want)
        if r == 1:
            assert np.array_equal(progressions.count_by_residue(x, q, **kw).counts, want)
        if r == 2:
            singles, pairs = progressions.residue_pair_stats(x, q, **kw)
            assert np.array_equal(pairs.counts, want)
            assert np.array_equal(singles.counts, want.sum(axis=1))
        if r == 2 and x >= 2:
            gaps = {}
            for i in starts:
                g = E[i + 1] - E[i]
                gaps[g] = gaps.get(g, 0) + 1
            assert progressions.gap_histogram(x, **kw) == gaps


@given(x=st.integers(min_value=1, max_value=BRUTE_X),
       q=st.sampled_from([5, 13, 17, 257]),
       r=st.integers(min_value=1, max_value=6),
       budget=st.sampled_from([1, 2, 3, 7, 64, 2**12]),
       block=st.sampled_from([1, 3, progressions.BLOCK]),
       pooled=st.booleans())
@settings(max_examples=40, deadline=None)
def test_statistics_match_brute_list_across_segment_edges(x, q, r, budget, block, pooled):
    # budgets and blocks of 1-3 entries give runs with fewer than r-1 elements or
    # none, so reducer states merge across short runs; threads=2 reduces in workers.
    # At r = 5 and 6 the window's successors past x merge across 1-entry segments
    _check_against_brute_list(BRUTE_E, x, q, r, block, segment_budget=budget,
                              threads=2 if pooled and budget >= 64 else 1)


@given(x=st.integers(min_value=1, max_value=WIDE_X) | st.integers(min_value=WIDE_X // 2,
                                                                  max_value=WIDE_X),
       q=st.sampled_from([5, 13, 257]),
       r=st.integers(min_value=1, max_value=6),
       budget=st.sampled_from([2**10, 3000, 2**15, 2**17]),
       block=st.sampled_from([100, 2**9, progressions.BLOCK]),
       pooled=st.booleans())
@settings(max_examples=15, deadline=None)
def test_statistics_match_brute_list_across_window_edges(x, q, r, budget, block, pooled):
    # marking windows of 2^10 entries (a multiple of 8, so each starts on a byte):
    # segments are reduced window by window, and the window, block and segment
    # edges and the cut after x all fall inside [1, 10^5]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_window_size", lambda hi: 1 << 10)
        _check_against_brute_list(WIDE_E, x, q, r, block, segment_budget=budget,
                                  threads=2 if pooled else 1)


def test_gap_histogram_small_examples():
    # every in-range element contributes the gap to its successor, including
    # the last one (10 -> 13), so the totals match count(x)
    assert progressions.gap_histogram(10) == {1: 4, 2: 1, 3: 2}
    assert progressions.gap_histogram(2) == {1: 1, 2: 1}


def test_gap_histogram_total_is_count():
    x = 10**6
    hist = progressions.gap_histogram(x)
    assert sum(hist.values()) == sieve.count_up_to(x)


def test_pairs_vs_tuples_consistency():
    x = 10**5
    pairs = progressions.count_consecutive_pairs(x, 5)
    trip = progressions.count_consecutive_tuples(x, 5, 3)
    # marginalizing the third coordinate recovers the pair counts exactly:
    # every E_n <= x gets both successors, even past x
    assert np.array_equal(trip.counts.sum(axis=2), pairs.counts)


def test_bias_directions_at_1e9(stats_1e9):
    singles, pairs = stats_1e9
    diag = [int(pairs.counts[a][a]) for a in range(5)]
    off = [int(pairs.counts[a][b]) for a in range(5) for b in range(5) if a != b]
    assert max(diag) < min(off)
    assert all(singles.cell(0) > singles.cell(a) for a in range(1, 5))


def test_argument_errors():
    with pytest.raises(ArgumentError):
        progressions.count_consecutive_tuples(100, 5, 9)
    with pytest.raises(ArgumentError):
        progressions.count_by_residue(100, 4)  # modulus must be prime
    with pytest.raises(ArgumentError):
        progressions.count_by_residue(100, 7)  # and = 1 mod 4
