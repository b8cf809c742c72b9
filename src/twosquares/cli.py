"""Command-line front end.

Every subcommand prints a metadata header (version + echoed parameters),
then the payload in the requested format (csv, json or md).  Exit codes:
0 success, 2 argument error, 3 accuracy/resource error.  The cache directory
for sieve segments comes from --cache-dir or the TWO_SQUARES_CACHE env var.
"""

from __future__ import annotations

import csv as csv_mod
import io
import itertools
import json
import math
import os
import sys

import click

from . import (__version__, constants, predictors, progressions, quadrature,
               singular, tables)
from . import sieve as sieve_mod
from .errors import AccuracyError, ArgumentError, ResourceError, TwoSquaresError

_FORMATS = click.Choice(["csv", "json", "md"])


def _cache_dir(opt):
    return opt or os.environ.get("TWO_SQUARES_CACHE") or None


def _meta(**params):
    return {"version": __version__,
            **{k: v for k, v in params.items() if v is not None}}


def _emit(header, rows, meta, fmt):
    if fmt == "json":
        click.echo(json.dumps(
            {"meta": meta, "header": header,
             "rows": [list(r) for r in rows]}, default=str))
        return
    for k, v in meta.items():
        click.echo(f"# {k}={v}")
    if fmt == "csv":
        buf = io.StringIO()
        w = csv_mod.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        click.echo(buf.getvalue(), nl=False)
    else:  # md
        click.echo("| " + " | ".join(str(h) for h in header) + " |")
        click.echo("|" + "---|" * len(header))
        for r in rows:
            click.echo("| " + " | ".join("" if c is None else str(c) for c in r) + " |")


def _x_int(x: float) -> int:
    if not math.isfinite(x):
        raise ArgumentError(f"x must be finite, got {x}")
    xi = int(x)
    if xi <= 0:
        raise ArgumentError("x must be positive")
    return xi


@click.group()
def main():
    """Sums of two squares: counts, statistics, constants and predictions."""


@main.command("sieve-count")
@click.option("--x", type=float, required=True)
@click.option("--include-zero", is_flag=True)
@click.option("--format", "fmt", type=_FORMATS, default="md")
def sieve_count(x, include_zero, fmt):
    """Exact count of sums of two squares up to x (a sublinear sum, no sieve)."""
    xi = _x_int(x)
    n = sieve_mod.count_up_to(xi, include_zero=include_zero)
    _emit(["x", "count"], [[xi, n]], _meta(x=xi, include_zero=include_zero), fmt)


@main.command("pairs")
@click.option("--x", type=float, required=True)
@click.option("--q", type=int, default=5)
@click.option("--threads", type=int, default=1)
@click.option("--cache-dir", default=None)
@click.option("--format", "fmt", type=_FORMATS, default="csv")
def pairs_cmd(x, q, threads, cache_dir, fmt):
    """Consecutive-pair residue matrix N(x; q, (a,b))."""
    xi = _x_int(x)
    mat = progressions.count_consecutive_pairs(
        xi, q, threads=threads, cache_dir=_cache_dir(cache_dir))
    rows = [[a, b, int(mat.counts[a][b])] for a in range(q) for b in range(q)]
    _emit(["a", "b", "count"], rows, _meta(x=xi, q=q), fmt)


@main.command("tuples")
@click.option("--x", type=float, required=True)
@click.option("--q", type=int, default=5)
@click.option("--r", type=int, default=3)
@click.option("--threads", type=int, default=1)
@click.option("--cache-dir", default=None)
@click.option("--format", "fmt", type=_FORMATS, default="csv")
def tuples_cmd(x, q, r, threads, cache_dir, fmt):
    """Consecutive r-tuple residue counts."""
    xi = _x_int(x)
    mat = progressions.count_consecutive_tuples(
        xi, q, r, threads=threads, cache_dir=_cache_dir(cache_dir))
    # product and reshape(-1) both run the last residue fastest (numpy's C order)
    rows = [[",".join(map(str, key)), int(c)]
            for key, c in zip(itertools.product(range(q), repeat=r), mat.counts.reshape(-1))]
    _emit(["residues", "count"], rows, _meta(x=xi, q=q, r=r), fmt)


@main.command("gaps")
@click.option("--x", type=float, required=True)
@click.option("--threads", type=int, default=1)
@click.option("--cache-dir", default=None)
@click.option("--format", "fmt", type=_FORMATS, default="csv")
def gaps_cmd(x, threads, cache_dir, fmt):
    """Histogram of gaps between consecutive sums of two squares."""
    xi = _x_int(x)
    hist = progressions.gap_histogram(xi, threads=threads,
                                      cache_dir=_cache_dir(cache_dir))
    _emit(["gap", "count"], [[g, c] for g, c in sorted(hist.items())],
          _meta(x=xi), fmt)


@main.command("constants")
@click.option("--q", type=int, default=5)
def constants_cmd(q):
    """Dump the constants bundle (K, omega, expansion coefficients, ...)."""
    bundle = constants.build_bundle(q)
    payload = {"meta": _meta(q=q), "bundle": bundle.as_json_dict()}
    click.echo(json.dumps(payload))


@main.command("singular")
@click.option("--h", type=int, default=None)
@click.option("--tuple", "tuple_", default=None,
              help="comma-separated offsets, e.g. 0,2,6")
def singular_cmd(h, tuple_):
    """Singular series for a pair gap h or a general offset tuple."""
    if (h is None) == (tuple_ is None):
        raise ArgumentError("give exactly one of --h or --tuple")
    K = constants.landau_ramanujan()
    if h is not None:
        val = singular.ck_singular_series(h, K)
        click.echo(json.dumps({"meta": _meta(h=h), "value": val}))
    else:
        try:
            offsets = [int(t) for t in tuple_.split(",")]
        except ValueError as exc:
            raise ArgumentError(f"bad tuple {tuple_!r}") from exc
        sv = singular.singular_series_general(singular.TupleConfig(tuple(offsets)))
        click.echo(json.dumps({
            "meta": _meta(tuple=tuple_, prime_cutoff=sv.prime_cutoff),
            "value": sv.value, "method": sv.method,
            "tail_bound": sv.tail_bound}))


@main.command("weighted-sum")
@click.option("--q", type=int, default=5)
@click.option("--v", type=int, required=True)
@click.option("--h", "--H", "bigh", type=float, required=True)
@click.option("--k", type=int, default=0)
@click.option("--subtract", is_flag=True)
def weighted_sum_cmd(q, v, bigh, k, subtract):
    """S^(k)(q, v; H), optionally with the geometric part subtracted."""
    K = constants.landau_ramanujan()
    val = singular.weighted_sum_S(q, v, bigh, K, k=k, subtract=subtract)
    click.echo(json.dumps({"meta": _meta(q=q, v=v, H=bigh, k=k, subtract=subtract),
                           "value": val, "minus_H_over_q": val - bigh / q}))


@main.group()
def predict():
    """Conjectural predictions."""


@predict.command("pairs")
@click.option("--x", type=float, required=True)
@click.option("--q", type=int, default=5)
@click.option("--sources", default="conjecture,pipeline-numeric,pipeline-thm")
@click.option("--format", "fmt", type=_FORMATS, default="md")
def predict_pairs(x, q, sources, fmt):
    """Table-5-shaped pair predictions by residue difference."""
    xi = _x_int(x)
    known = {"conjecture": lambda v: predictors.pair_conjecture(xi, q, 0, v),
             "pipeline-numeric":
                 lambda v: predictors.pipeline_D012(xi, q, 0, v, "numeric"),
             "pipeline-thm":
                 lambda v: predictors.pipeline_D012(xi, q, 0, v, "asymptotic_J1")}
    wanted = [s.strip() for s in sources.split(",") if s.strip()]
    bad = [s for s in wanted if s not in known]
    if bad:
        raise ArgumentError(f"unknown sources {bad}; choose from {sorted(known)}")
    ctx = predictors.make_context(xi, q)
    rows = [[v] + [round(known[s](v)) for s in wanted] for v in range(q)]
    _emit(["v"] + wanted, rows,
          _meta(x=xi, q=q, H=round(ctx.H, 6), logH=round(ctx.logH, 6)), fmt)


@predict.command("tuple")
@click.option("--x", type=float, required=True)
@click.option("--q", type=int, default=5)
@click.option("--a-vec", required=True, help="comma-separated residues")
def predict_tuple(x, q, a_vec):
    """r-tuple conjecture for one residue vector."""
    xi = _x_int(x)
    try:
        avec = [int(t) for t in a_vec.split(",")]
    except ValueError as exc:
        raise ArgumentError(f"bad residue vector {a_vec!r}") from exc
    val = predictors.tuple_conjecture(xi, q, avec)
    cm1, c0, c1 = predictors.tuple_constants(q, avec)
    click.echo(json.dumps({"meta": _meta(x=xi, q=q, a_vec=a_vec),
                           "value": val,
                           "C_minus1": cm1, "C_0": c0, "C_1": c1}))


@main.command("integral-count")
@click.option("--x", type=float, required=True)
@click.option("--eps", type=float, default=0.0)
def integral_count_cmd(x, eps):
    """Integral main term for the count up to x."""
    xi = _x_int(x)
    val = quadrature.integral_count(xi, quadrature.QuadratureConfig(epsilon=eps))
    click.echo(json.dumps({"meta": _meta(x=xi, eps=eps),
                           "value": val, "rounded": round(val)}))


@main.command("integral-S")
@click.option("--q", type=int, default=5)
@click.option("--v", type=int, required=True)
@click.option("--h", "--H", "bigh", type=float, required=True)
@click.option("--eps", type=float, default=0.02)
def integral_s_cmd(q, v, bigh, eps):
    """Integral form of S(q, v; H)."""
    val = quadrature.integral_S(q, v, bigh, quadrature.QuadratureConfig(epsilon=eps))
    click.echo(json.dumps({"meta": _meta(q=q, v=v, H=bigh, eps=eps),
                           "value": val, "minus_H_over_q": val - bigh / q}))


@main.command("integral-ktuple")
@click.option("--k", type=int, required=True)
@click.option("--h", "--H", "bigh", type=float, required=True)
@click.option("--eps", type=float, default=0.02)
def integral_ktuple_cmd(k, bigh, eps):
    """Integral form of the k-tuple singular-series average."""
    val = quadrature.integral_ktuple_average(k, bigh, quadrature.QuadratureConfig(epsilon=eps))
    click.echo(json.dumps({"meta": _meta(k=k, H=bigh, eps=eps),
                           "value": val, "minus_H_pow_k": val - bigh**k}))


@main.command("table")
@click.option("--id", "table_id", type=int, required=True)
@click.option("--x", type=float, default=None,
              help="scale of tables 1 and 3-5, the one row of table 2")
@click.option("--h", "--H", "bigh", type=float, default=None,
              help="the one H row of tables 6 and 7")
@click.option("--allow-long-run", is_flag=True)
@click.option("--threads", type=int, default=1)
@click.option("--cache-dir", default=None)
@click.option("--format", "fmt", type=_FORMATS, default="md")
def table_cmd(table_id, x, bigh, allow_long_run, threads, cache_dir, fmt):
    """Reproduce one of the seven reference tables."""
    if "cache_dir" in tables.TABLE_OPTIONS.get(table_id, ()):
        cache_dir = _cache_dir(cache_dir)  # $TWO_SQUARES_CACHE only where it is used
    header, rows, meta = tables.reproduce_table(
        table_id, x=None if x is None else _x_int(x), H=bigh,
        allow_long_run=allow_long_run, threads=threads, cache_dir=cache_dir)
    _emit(header, rows, {**_meta(table=table_id), **meta}, fmt)


def run(argv=None) -> int:
    """Entry point with the documented exit-code mapping."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return 130
    except click.ClickException as exc:
        exc.show()
        return 2
    except ArgumentError as exc:
        click.echo(f"argument error: {exc}", err=True)
        return 2
    except (AccuracyError, ResourceError, TwoSquaresError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 3


def console() -> None:
    sys.exit(run())


if __name__ == "__main__":
    console()
