"""Run-time span tracing of the twosquares layers, installed from outside the package.

`Tracer.install()` replaces every public function of the layer modules with a
wrapper that records a span ``[id, parent id, name, tag, start, end, hot]`` in
memory, where ``hot`` is the time spent in counted-only children.  Two private
boundaries are wrapped too because the per-layer metrics need them: the
sieve's segment cache (``sieve._cached_segment``) and value extraction
(``SieveSegment.values``).  Generator functions get one span per resumption,
so a span covers only the time the caller is blocked in ``next()``.

``characters.hurwitz`` is called hundreds of thousands of times, so it gets no
span: its wrapper only counts calls and adds its time to the enclosing span's
``hot`` field (and to ``characters.hurwitz_s``).  It calls no other wrapped
function, so nothing is counted twice.

Self time of a span is its duration minus its child spans and its hot time.
`layer_metrics()` turns the spans and counters into the metrics listed under
``per_layer`` in BENCHMARK.json, and names the ratios it could not form.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import math
import os
import resource
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("sieve", "progressions", "characters", "eulerprod", "constants",
          "singular", "quadrature", "predictors", "tables")
HOT = {"characters.hurwitz"}
QUADRATURE_INTEGRANDS = ("quadrature.G_fn", "quadrature.F_gamma", "quadrature.F_inv")
BUNDLE_QS = (5, 13, 29)
HEIGHT_CLASSES = ("low", "h10", "h11", "h12")
PROGRESSIONS_CALLS = {
    "pair_stats_s": "progressions.residue_pair_stats",
    "tuples_s": "progressions.count_consecutive_tuples",
    "gaps_s": "progressions.gap_histogram",
    "by_residue_s": "progressions.count_by_residue",
}

# what the metrics cannot see from the benchmark's side of the package
UNMEASURED = {
    "sieve.worker_mark_s": "marking inside pool workers runs in other processes;"
                           " only parent_wait_s and worker_peak_rss_mb are visible",
}

_ID, _PARENT, _NAME, _TAG, _T0, _T1, _HOT = range(7)


def _io_bytes() -> tuple[int, int]:
    """(rchar, wchar) of this process; page-cache reads count, like the cache does."""
    try:
        with open("/proc/self/io") as fh:
            fields = dict(line.split(": ") for line in fh.read().splitlines())
        return int(fields["rchar"]), int(fields["wchar"])
    except OSError:
        return 0, 0


def _arg(args, kwargs, i, name, default=None):
    """Argument `name` of a call, given by position `i` or by keyword."""
    return args[i] if len(args) > i else kwargs.get(name, default)


def _height_class(lo: int) -> str:
    return "low" if lo < 10**9 else f"h{round(math.log10(lo))}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.hot_s: defaultdict = defaultdict(float)
        self.distinct: defaultdict = defaultdict(set)
        self._restore: list = []

    # ------------------------------------------------------------------ spans
    def _open(self, name, tag):
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name, tag,
               time.perf_counter(), 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(rec[_ID])
        return rec

    def _close(self, rec):
        rec[_T1] = time.perf_counter()
        self.stack.pop()

    def _span(self, name, fn, tag_of, observe):
        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            rec = self._open(name, tag)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if observe:
                observe(rec, args, kwargs, out)
            return out
        return functools.wraps(fn)(wrapper)

    def _gen_span(self, name, fn, tag_of, observe):
        def wrapper(*args, **kwargs):
            tag = tag_of(args, kwargs) if tag_of else None
            gen = fn(*args, **kwargs)
            try:
                while True:
                    rec = self._open(name, tag)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    if observe:
                        observe(rec, args, kwargs, item)
                    yield item
            finally:
                gen.close()
        return functools.wraps(fn)(wrapper)

    def _hot(self, name, fn, observe):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.hot_s[name] += dt
                if self.stack:
                    self.spans[self.stack[-1]][_HOT] += dt
                observe(args, kwargs)
        return functools.wraps(fn)(wrapper)

    # ------------------------------------------------------------- observers
    def _obs_hurwitz(self, args, kwargs):
        s = _arg(args, kwargs, 0, "s")
        if hasattr(s, "ndim") and s.ndim > 0:
            self.counts["characters.hurwitz_array_calls"] += 1
            return
        self.counts["characters.hurwitz_scalar_calls"] += 1
        key = (s, _arg(args, kwargs, 1, "a", 1.0), bool(_arg(args, kwargs, 2, "derivative", False)))
        self.distinct["characters.hurwitz"].add(key)

    def _obs_iter_segments(self, rec, args, kwargs, seg):
        if rec[_TAG] == "pool":
            self.counts["sieve.pool_segments"] += 1
            self.counts["sieve.pool_ints"] += seg.hi - seg.lo + 1
            self.counts["sieve.transfer_bytes"] += seg.bits.nbytes

    def _tag_cached_segment(self, args, kwargs):
        lo, hi, cache_dir = args[0], args[1], args[3]
        if cache_dir is None:
            return ("nocache", None)
        # the file name is the sieve's own cache naming
        hit = os.path.exists(os.path.join(cache_dir, f"s2sq_{lo}_{hi}.bin"))
        return ("hit" if hit else "miss", _io_bytes())

    def _obs_cached_segment(self, rec, args, kwargs, out):
        kind, before = rec[_TAG]
        if before is not None:
            after = _io_bytes()
            moved = after[0] - before[0] if kind == "hit" else after[1] - before[1]
            self.counts["sieve.cache_bytes"] += moved
        rec[_TAG] = kind

    def _obs_values(self, rec, args, kwargs, out):
        self.counts["sieve.values_returned"] += int(out.size)

    def _obs_ck_values(self, rec, args, kwargs, out):
        self.counts["singular.ck_len"] = max(self.counts["singular.ck_len"], int(out.size))

    def _obs_ssg(self, rec, args, kwargs, out):
        D = _arg(args, kwargs, 0, "D")
        self.distinct["singular.singular_series_general"].add(D.normalized().offsets)

    # ---------------------------------------------------------------- install
    def install(self) -> None:
        """Wrap the layer modules' public functions everywhere twosquares refers to them."""
        mods = {name: importlib.import_module(f"twosquares.{name}") for name in LAYERS}
        tags = {
            "sieve.sieve_segment": lambda a, k: (
                _height_class(_arg(a, k, 0, "lo")),
                _arg(a, k, 1, "hi") - _arg(a, k, 0, "lo") + 1),
            "sieve.iter_segments": lambda a, k: (
                "pool" if _arg(a, k, 4, "threads", 1) > 1 else "serial"),
            "sieve._cached_segment": self._tag_cached_segment,
            "constants.build_bundle": lambda a, k: _arg(a, k, 0, "q", 5),
        }
        observers = {
            "sieve.iter_segments": self._obs_iter_segments,
            "sieve._cached_segment": self._obs_cached_segment,
            "singular.ck_values": self._obs_ck_values,
            "singular.singular_series_general": self._obs_ssg,
        }
        replaced = {}
        for layer, mod in mods.items():
            names = [n for n, obj in vars(mod).items()
                     if not n.startswith("_")
                     and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))
                     and obj.__module__ == mod.__name__]
            if layer == "sieve":
                names.append("_cached_segment")
            for n in names:
                fn = getattr(mod, n)
                qual = f"{layer}.{n}"
                if qual in HOT:
                    w = self._hot(qual, fn, self._obs_hurwitz)
                elif inspect.isgeneratorfunction(fn):
                    w = self._gen_span(qual, fn, tags.get(qual), observers.get(qual))
                else:
                    w = self._span(qual, fn, tags.get(qual), observers.get(qual))
                replaced[id(fn)] = (fn, w)
        # rebind every reference a twosquares module holds (from-imports included)
        for mod in [m for k, m in sys.modules.items()
                    if k == "twosquares" or k.startswith("twosquares.")]:
            for n, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    self._restore.append((mod, n, obj))
                    setattr(mod, n, replaced[id(obj)][1])
        seg_cls = mods["sieve"].SieveSegment
        self._restore.append((seg_cls, "values", seg_cls.values))
        seg_cls.values = self._span("sieve.values", seg_cls.values, None, self._obs_values)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._restore):
            setattr(owner, name, obj)
        self._restore.clear()

    # ---------------------------------------------------------------- results
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[_PARENT] >= 0:
                child[rec[_PARENT]] += rec[_T1] - rec[_T0]
        return [rec[_T1] - rec[_T0] - child[i] - rec[_HOT] for i, rec in enumerate(self.spans)]

    def write_spans(self, path: str) -> None:
        """One JSON object per line: id, parent, name, tag, start, end, hot (s)."""
        t_origin = self.spans[0][_T0] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[_ID], "parent": rec[_PARENT], "name": rec[_NAME],
                    "tag": rec[_TAG] if isinstance(rec[_TAG], (str, int)) else repr(rec[_TAG]),
                    "start": rec[_T0] - t_origin, "end": rec[_T1] - t_origin,
                    "hot": rec[_HOT]}) + "\n")

    def layer_metrics(self) -> tuple[dict[str, float], list[str]]:
        """(per-layer metrics, names of the ratios whose base is 0).

        A layer the workload does not exercise reads 0.  A ratio whose base is 0
        is undefined: it reads 0 only because every declared metric must appear,
        and its name is returned as unmeasured.
        """
        selfs = self.self_times()
        by_name_self = defaultdict(float)
        by_name_incl = defaultdict(float)
        by_name_calls = Counter()
        mark = defaultdict(lambda: [0.0, 0])  # height class -> [self s, ints]
        cache = defaultdict(lambda: [0, 0.0])  # hit/miss -> [calls, s]
        bundle_s = defaultdict(float)
        wait = 0.0
        for rec, s in zip(self.spans, selfs):
            name = rec[_NAME]
            incl = rec[_T1] - rec[_T0]
            by_name_self[name] += s
            by_name_incl[name] += incl
            by_name_calls[name] += 1
            if name == "sieve.sieve_segment":
                cls, ints = rec[_TAG]
                mark[cls][0] += s
                mark[cls][1] += ints
            elif name == "sieve._cached_segment" and rec[_TAG] in ("hit", "miss"):
                cache[rec[_TAG]][0] += 1
                cache[rec[_TAG]][1] += incl if rec[_TAG] == "hit" else s
            elif name == "sieve.iter_segments" and rec[_TAG] == "pool":
                wait += s
            elif name == "constants.build_bundle":
                bundle_s[rec[_TAG]] += incl
        layer_self = defaultdict(float)
        for name, s in by_name_self.items():
            layer_self[name.split(".")[0]] += s
        for name, s in self.hot_s.items():
            layer_self[name.split(".")[0]] += s

        undefined = []

        def ratio(name, num, den, scale=1.0):
            if not den:
                undefined.append(name)
                return 0.0
            return num / den * scale

        c = self.counts
        parent_ints = sum(v[1] for v in mark.values())
        values = c["sieve.values_returned"]
        scalar = c["characters.hurwitz_scalar_calls"]
        ssg_calls = by_name_calls["singular.singular_series_general"]
        m = {
            "sieve.mark_s": by_name_self["sieve.sieve_segment"],
            **{f"sieve.mark_ns_per_int.{h}":
               ratio(f"sieve.mark_ns_per_int.{h}", mark[h][0], mark[h][1], 1e9)
               for h in HEIGHT_CLASSES},
            "sieve.segments": by_name_calls["sieve.sieve_segment"] + c["sieve.pool_segments"],
            "sieve.ints": parent_ints + c["sieve.pool_ints"],
            "sieve.parent_wait_s": wait,
            "sieve.transfer_bytes": c["sieve.transfer_bytes"],
            "sieve.worker_peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "sieve.cache_hits": cache["hit"][0],
            "sieve.cache_misses": cache["miss"][0],
            "sieve.cache_read_s": cache["hit"][1],
            "sieve.cache_write_s": cache["miss"][1],
            "sieve.cache_bytes": c["sieve.cache_bytes"],
            "sieve.values_s": by_name_self["sieve.values"],
            "sieve.self_s": layer_self["sieve"],
            "progressions.reduce_s": layer_self["progressions"],
            "progressions.values": values,
            "progressions.ns_per_value":
                ratio("progressions.ns_per_value", layer_self["progressions"], values, 1e9),
            **{f"progressions.{k}": by_name_incl[v] for k, v in PROGRESSIONS_CALLS.items()},
            "characters.self_s": layer_self["characters"],
            "characters.hurwitz_scalar_calls": scalar,
            "characters.hurwitz_array_calls": c["characters.hurwitz_array_calls"],
            "characters.hurwitz_s": self.hot_s["characters.hurwitz"],
            "characters.hurwitz_distinct_ratio":
                ratio("characters.hurwitz_distinct_ratio",
                      len(self.distinct["characters.hurwitz"]), scalar),
            "characters.dirichlet_L_calls": by_name_calls["characters.dirichlet_L"],
            "eulerprod.self_s": layer_self["eulerprod"],
            "eulerprod.prime_zeta_char_calls": by_name_calls["eulerprod.prime_zeta_char"],
            "eulerprod.ep3_calls": by_name_calls["eulerprod.ep3"],
            **{f"constants.bundle_s.q{q}": bundle_s[q] for q in BUNDLE_QS},
            "constants.self_s": layer_self["constants"],
            "singular.self_s": layer_self["singular"],
            "singular.ck_values_s": by_name_incl["singular.ck_values"],
            "singular.ck_len": c["singular.ck_len"],
            "singular.weighted_sum_S_s": by_name_incl["singular.weighted_sum_S"],
            "singular.ms_sum_s": by_name_incl["singular.ms_sum"],
            "singular.ssg_calls": ssg_calls,
            "singular.ssg_distinct_ratio":
                ratio("singular.ssg_distinct_ratio",
                      len(self.distinct["singular.singular_series_general"]), ssg_calls),
            "singular.stabilized_density_calls": by_name_calls["singular.stabilized_density"],
            "quadrature.self_s": layer_self["quadrature"],
            "quadrature.integrand_evals": sum(by_name_calls[n] for n in QUADRATURE_INTEGRANDS),
            "predictors.self_s": layer_self["predictors"],
            "tables.self_s": layer_self["tables"],
        }
        return {k: float(v) for k, v in m.items()}, undefined
