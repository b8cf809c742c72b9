"""Reproduce the seven reference tables at configurable scale.

reproduce_table(i, x, H, ...) is the one entry point (the CLI's `table`
command and scripts/reproduce_tables.py both go through it); it returns
(header, rows, meta), with rows as plain lists ready for CSV/JSON/markdown
rendering.  Actual cells beyond DEFAULT_SIEVE_BUDGET are served from refdata
and labeled "reference" unless a long run is explicitly allowed; every
computed cell states its source ("sieve", "sublinear", "predict", "integral",
"sum").
Percentage errors follow the actual/prediction convention of the reference
tables, printed to 4 decimals.
"""

from __future__ import annotations

from math import log, sqrt

from . import constants, predictors, progressions, quadrature, refdata, singular
from .errors import ArgumentError, ResourceError

# actual counts beyond this x without allow_long_run are refused (tables 1 and 2)
DEFAULT_SIEVE_BUDGET = 2 * 10**10
REFERENCE_X = 10**12
Q = 5  # the modulus of every residue table


def _pct(actual, pred):
    return round(actual / pred, 4) if pred else float("nan")


def _require_scale(x, allow_long_run):
    if x > DEFAULT_SIEVE_BUDGET and not allow_long_run:
        raise ResourceError(
            f"actual counts at x = {x:g} need --allow-long-run or a scale override "
            f"(--x <= {DEFAULT_SIEVE_BUDGET:g})")


def table1(x: float | None = None, allow_long_run: bool = False, cache_dir=None,
           threads: int = 1):
    """Consecutive-pair counts N(x; q, (a,b)) for all residue cells."""
    x = REFERENCE_X if x is None else int(x)
    if x == REFERENCE_X and not allow_long_run:
        counts, source = refdata.TABLE1, "reference"
    else:
        _require_scale(x, allow_long_run)
        _, pairs = progressions.residue_pair_stats(x, Q, cache_dir=cache_dir,
                                                   threads=threads)
        counts = {(a, b): int(pairs.counts[a][b]) for a in range(Q)
                  for b in range(Q)}
        source = "sieve"
    meta = {"q": Q, "actual_source": source, "x": x}
    header = ["a", "b", "count"]
    rows = [[a, b, counts[(a, b)]] for a in range(Q) for b in range(Q)]
    return header, rows, meta


def table2(xs=None, allow_long_run: bool = False):
    """Counting function vs leading, refined and integral predictions."""
    xs = [int(v) for v in (xs or refdata.X_GRID)]
    header = ["x", "actual", "main", "refined", "integral",
              "pct_main", "pct_refined", "pct_integral", "actual_source"]
    rows = []
    for x in xs:
        if x in refdata.TABLE2 and (x > DEFAULT_SIEVE_BUDGET and not allow_long_run):
            actual, src = refdata.TABLE2[x][0], "reference"
        else:
            _require_scale(x, allow_long_run)
            from .sieve import count_up_to
            # the published counting function includes n = 0 (0 = 0^2 + 0^2)
            actual, src = count_up_to(x, include_zero=True), "sublinear"
        main = round(predictors.landau_refined(x, 0))
        refined = round(predictors.landau_refined(x, 1))
        integral = round(quadrature.integral_count(
            x, quadrature.QuadratureConfig(epsilon=0.0)))
        rows.append([x, actual, main, refined, integral,
                     _pct(actual, main), _pct(actual, refined),
                     _pct(actual, integral), src])
    return header, rows, {"xs": xs}


def table3(x: float = REFERENCE_X):
    """Single-residue counts vs main and secondary predictions."""
    x = int(x)
    header = ["a", "actual", "main", "secondary", "pct_main", "pct_secondary",
              "actual_source"]
    rows = []
    for a in range(Q):
        if x == REFERENCE_X:
            actual, src = refdata.TABLE3_ACTUAL[a], "reference"
        else:
            actual, src = None, "skipped"
        main = round(predictors.ap_prediction(x, Q, a, with_secondary=False))
        sec = round(predictors.ap_prediction(x, Q, a, with_secondary=True))
        rows.append([a, actual, main, sec,
                     _pct(actual, main) if actual else None,
                     _pct(actual, sec) if actual else None, src])
    return header, rows, {"x": x, "q": Q}


def table4(x: float = REFERENCE_X):
    """Pair counts (n, n+h) with n = a mod q vs the two pair predictions."""
    x = int(x)
    header = ["a", "h", "actual", "plain", "refined", "pct_plain",
              "pct_refined", "actual_source"]
    rows = []
    for a, h in refdata.TABLE4:
        if x == REFERENCE_X:
            actual, src = refdata.TABLE4[(a, h)][0], "reference"
        else:
            actual, src = None, "skipped"
        plain = round(predictors.hl_pair_prediction(x, Q, a, h, refined=False))
        ref = round(predictors.hl_pair_prediction(x, Q, a, h, refined=True))
        rows.append([a, h, actual, plain, ref,
                     _pct(actual, plain) if actual else None,
                     _pct(actual, ref) if actual else None, src])
    return header, rows, {"x": x, "q": Q}


def table5(x: float = REFERENCE_X):
    """Consecutive pairs vs the pipeline (both S0 sources) and the conjecture."""
    x = int(x)
    ctx = predictors.make_context(x, Q)
    header = ["a", "b", "actual", "pipeline_S0", "pipeline_thm",
              "conjecture_J1", "pct_S0", "pct_thm", "pct_conj",
              "actual_source"]
    num = {v: predictors.pipeline_D012(x, Q, 0, v, "numeric")
           for v in range(Q)}
    thm = {v: predictors.pipeline_D012(x, Q, 0, v, "asymptotic_J1")
           for v in range(Q)}
    conj = {v: predictors.pair_conjecture(x, Q, 0, v) for v in range(Q)}
    rows = []
    for a in range(Q):
        for b in range(Q):
            v = (b - a) % Q
            if x == REFERENCE_X:
                actual, src = refdata.TABLE1[(a, b)], "reference"
            else:
                actual, src = None, "skipped"
            rows.append([a, b, actual, round(num[v]), round(thm[v]),
                         round(conj[v]),
                         _pct(actual, num[v]) if actual else None,
                         _pct(actual, thm[v]) if actual else None,
                         _pct(actual, conj[v]) if actual else None, src])
    return header, rows, {"x": x, "q": Q, "H": ctx.H}


def _table_s(v: int, Hs, allow_long_run: bool):
    """S(q,v;H) - H/q rows; Hs defaults to the published H list (1e6 with a long run)."""
    K = constants.landau_ramanujan()
    if Hs is None:
        Hs = [-1 / log(1 - K / sqrt(log(1e12))), 16, 100, 10**4] + (
            [10**6] if allow_long_run else [])
    header = ["H", "exact", "integral", "J1", "J2", "J3",
              "pct_integral", "pct_J1", "pct_J2", "pct_J3"]
    cfg = quadrature.QuadratureConfig()
    rows = []
    for H in Hs:
        if H > 10**4 and not allow_long_run:
            raise ResourceError(f"H={H:g} weighted sum needs --allow-long-run")
        exact = singular.weighted_sum_S(Q, v, H, K) - H / Q
        integ = quadrature.integral_S(Q, v, H, cfg) - H / Q
        js = [predictors.asymptotic_S(Q, v, H, J) - H / Q for J in (1, 2, 3)]
        rows.append([H, round(exact, 5), round(integ, 5)]
                    + [round(j, 5) for j in js]
                    + [_pct(exact, integ)] + [_pct(exact, j) for j in js])
    return header, rows, {"q": Q, "v": v, "epsilon": cfg.epsilon}


def table6(Hs=None, allow_long_run: bool = False):
    """S(q,0;H) - H/q against the integral form and truncated asymptotics."""
    return _table_s(0, Hs, allow_long_run)


def table7(Hs=None, allow_long_run: bool = False):
    """S(q,3;H) - H/q against the integral form and truncated asymptotics."""
    return _table_s(3, Hs, allow_long_run)


# the options each table takes; giving any other is an ArgumentError
TABLE_OPTIONS = {
    1: ("x", "allow_long_run", "threads", "cache_dir"),
    2: ("x", "allow_long_run"),
    3: ("x",),
    4: ("x",),
    5: ("x",),
    6: ("H", "allow_long_run"),
    7: ("H", "allow_long_run"),
}
_UNSET = {"x": None, "H": None, "allow_long_run": False, "threads": 1, "cache_dir": None}


def reproduce_table(table_id: int, x: float | None = None, H: float | None = None,
                    allow_long_run: bool = False, threads: int = 1, cache_dir=None):
    """Build table `table_id` (1..7) at the default scale or at one x or one H.

    x sets the scale of tables 1 and 3-5 and the one row of table 2; H the one
    row of tables 6 and 7.  threads and cache_dir reach the sieve (table 1),
    allow_long_run the scale guards (tables 1, 2, 6 and 7).  An option the
    table does not take (TABLE_OPTIONS) is an ArgumentError.
    """
    if table_id not in TABLE_OPTIONS:
        raise ArgumentError("table id must be 1..7")
    given = {"x": x, "H": H, "allow_long_run": allow_long_run, "threads": threads,
             "cache_dir": cache_dir}
    ignored = [k for k, v in given.items()
               if v != _UNSET[k] and k not in TABLE_OPTIONS[table_id]]
    if ignored:
        raise ArgumentError(f"table {table_id} does not take {', '.join(ignored)}")
    if table_id in (6, 7):
        return (table6, table7)[table_id - 6](Hs=None if H is None else [H],
                                             allow_long_run=allow_long_run)
    if table_id in (3, 4, 5):
        return (table3, table4, table5)[table_id - 3](REFERENCE_X if x is None else x)
    if table_id == 1:
        return table1(x, allow_long_run=allow_long_run, threads=threads, cache_dir=cache_dir)
    return table2(None if x is None else [x], allow_long_run=allow_long_run)
