"""Span recorder for the traced benchmark mode, and the per-layer metrics
derived from its spans.

Tracer.install() wraps the public functions of the package's modules (and
the methods of VecField and CountCache) from outside: nothing in the package
changes.  A module that imported a function by name holds its own binding
(`cli` imports `fit_polynomial`, `incidence` imports `count_X`), so every
module that binds the original object gets the wrapper.

A span is (name, start, end, parent, units, evals, extra): `parent` is the
index of the enclosing span or -1; `units` is the problem size the call was
asked for, computed from its arguments; `evals` is the change in the
package's own `counting.stats.evaluations` counter during the call, so it
is program-reported; `extra` is a per-function note on the result.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

MODULES = ("ffield", "vecops", "polys", "counting", "incidence", "matroids", "motive", "cache", "cli")
CLASS_METHODS = {
    "vecops": ("VecField", ("add", "mul", "neg", "sub", "dot", "det", "rank")),
    "cache": ("CountCache", ("open", "get", "put")),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _pairs(g, s, q):
    """(Q, f) pairs of an incidence scan: q^(s(s+1)/2 + s n)."""
    return q ** (s * (s + 1) // 2 + s * g.n)


def _pattern_cells(g, supported):
    n, m = g.n, len(set(map(frozenset, g.edges)))
    return n + (m if supported else n * (n - 1) // 2 - m)


def _gl(s, q):
    out = 1
    for i in range(s):
        out *= q**s - q**i
    return out


def _count_x_leaves(args, kwargs, result):
    """Solutions the DFS reached: with s equal to the rank the count is the
    pinned count times |GL_s(F_q)|."""
    matroid = args[0]
    s = args[1] if len(args) > 1 else kwargs.get("s")
    q = args[2] if len(args) > 2 else kwargs.get("q", 2)
    if s is None or s == matroid.rank:
        return result // _gl(matroid.rank, q) if matroid.m else result
    return result


# name -> problem units computed from (args, kwargs); methods see self first
UNITS = {
    "vecops.VecField.det": lambda a, k: _arg(a, k, 1, "mats").shape[0],
    "vecops.VecField.rank": lambda a, k: _arg(a, k, 1, "mats").shape[0],
    "vecops.decode_assignments": lambda a, k: (_arg(a, k, 1, "stop") - _arg(a, k, 0, "start")) * _arg(a, k, 2, "positions"),
    "counting.count_zeros": lambda a, k: _arg(a, k, 1, "q") ** _arg(a, k, 0, "poly").nvars,
    "counting.count_blocked_rank": lambda a, k: _arg(a, k, 2, "q") ** _pattern_cells(a[0], False),
    "counting.count_blocked_nondegenerate": lambda a, k: _arg(a, k, 1, "q") ** _pattern_cells(a[0], False),
    "counting.count_supported_nondegenerate": lambda a, k: _arg(a, k, 1, "q") ** _pattern_cells(a[0], True),
    "incidence.count_A": lambda a, k: _pairs(a[0], _arg(a, k, 1, "s"), _arg(a, k, 4, "q")),
    "incidence.count_J": lambda a, k: _pairs(a[0], _arg(a, k, 1, "s"), _arg(a, k, 2, "q")),
    "incidence.count_K": lambda a, k: _pairs(a[0], _arg(a, k, 1, "s"), _arg(a, k, 2, "q")),
    "incidence.count_J_partial": lambda a, k: _pairs(a[0], _arg(a, k, 1, "s"), _arg(a, k, 3, "q")),
    # H lives in ambient dimension n
    "incidence.count_H": lambda a, k: _pairs(a[0], a[0].n, _arg(a, k, 2, "q")),
}
EVALS = {
    "counting.count_zeros",
    "counting.count_blocked_rank",
    "counting.count_blocked_nondegenerate",
    "counting.count_supported_nondegenerate",
    "incidence.count_A",
    "incidence.count_J",
    "incidence.count_K",
    "incidence.count_J_partial",
    "incidence.count_H",
    "matroids.count_X",
}
EXTRA = {
    "matroids.count_X": _count_x_leaves,
    "cache.CountCache.open": lambda a, k, r: len(r.entries),
    "cache.CountCache.get": lambda a, k, r: int(r is not None),
}


class Tracer:
    """Records spans in memory; write() dumps them as JSON."""

    def __init__(self, clock=time.perf_counter, counter=None):
        self.clock = clock
        self.counter = counter  # object with an `evaluations` attribute
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        units = UNITS.get(name)
        extra = EXTRA.get(name)
        evals = name in EVALS
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            ev0 = self.counter.evaluations if evals else 0
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (
                    name,
                    t0,
                    t1,
                    parent,
                    units(args, kwargs) if units else 0,
                    self.counter.evaluations - ev0 if evals else 0,
                    extra(args, kwargs, result) if extra and result is not None else 0,
                )

        return traced

    def install(self) -> None:
        """Wrap the package's public functions in every module binding them."""
        pkg = "graphmotive"
        # vecops is imported lazily by the package; import it now so that
        # its functions are wrapped before the first call
        mods = {name: importlib.import_module(f"{pkg}.{name}") for name in MODULES}
        self.counter = self.counter or sys.modules[f"{pkg}.counting"].stats
        replace = {}
        for short, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    replace[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod_name in [m for m in sys.modules if m == pkg or m.startswith(pkg + ".")]:
            mod = sys.modules[mod_name]
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for short, (cls_name, methods) in CLASS_METHODS.items():
            cls = getattr(mods[short], cls_name)
            for meth in methods:
                raw = cls.__dict__[meth]
                if isinstance(raw, staticmethod):
                    setattr(cls, meth, staticmethod(self.wrap(f"{short}.{cls_name}.{meth}", raw.__func__)))
                else:
                    setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", raw))

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict = {}
    for i, sp in enumerate(spans):
        children.setdefault(sp[3], []).append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


GROUPS = {
    "make_field": {"ffield.make_field"},
    "rank_rows": {"ffield.rank_from_index_rows"},
    "gather": {f"vecops.VecField.{m}" for m in ("add", "mul", "neg", "sub", "dot")},
    "det": {"vecops.VecField.det"},
    "rank": {"vecops.VecField.rank"},
    "decode": {"vecops.decode_assignments"},
    "count_zeros": {"counting.count_zeros"},
    "pattern": {
        "counting.count_blocked_rank",
        "counting.count_blocked_nondegenerate",
        "counting.count_supported_nondegenerate",
    },
    "incidence": {f"incidence.count_{k}" for k in ("A", "J", "J_partial", "H", "K")},
    "verify": {"incidence.verify_identity"},
    "count_X": {"matroids.count_X"},
    "tree_poly": {"polys.tree_complement_poly", "polys.spanning_tree_poly"},
    "fit": {"motive.fit_polynomial"},
    "cache_open": {"cache.CountCache.open"},
    "cache_get": {"cache.CountCache.get"},
    "cache_put": {"cache.CountCache.put"},
    "cli_main": {"cli.main"},
}
_GROUP_OF = {name: key for key, names in GROUPS.items() for name in names}


class _Group:
    """Totals over the spans of one group.  `s`, `units`, `evals` and `extra`
    sum the outer spans only, those with no ancestor in the same group, so
    nested calls (count_H -> count_A, sub -> add) are not counted twice."""

    def __init__(self):
        self.calls = self.self_s = self.s = self.units = self.evals = self.extra = 0


def _groups(spans) -> dict:
    selfs = self_times(spans)
    groups = {key: _Group() for key in list(GROUPS) + ["cli"]}
    # innermost enclosing span of each group, per span (spans are stored
    # parent first, so one forward pass suffices)
    inside: list = []
    for i, sp in enumerate(spans):
        key = _GROUP_OF.get(sp[0])
        enclosing = inside[sp[3]] if sp[3] >= 0 else frozenset()
        if sp[0].startswith("cli."):
            groups["cli"].self_s += selfs[i]
        if key is not None:
            g = groups[key]
            g.calls += 1
            g.self_s += selfs[i]
            if key not in enclosing:
                g.s += sp[2] - sp[1]
                g.units += sp[4]
                g.evals += sp[5]
                g.extra += sp[6]
                enclosing = enclosing | {key}
        inside.append(enclosing)
    return groups


def _rate(n, s):
    return n / s if s > 0 else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass (values only; units in run.py)."""
    g = _groups(spans)
    gets = g["cache_get"].calls
    return {
        "ffield.make_field.s": g["make_field"].s,
        "ffield.rank_rows.s": g["rank_rows"].s,
        "ffield.rank_rows.calls": g["rank_rows"].calls,
        "vecops.gather.s": g["gather"].s,
        "vecops.gather.calls": g["gather"].calls,
        "vecops.det.self_s": g["det"].self_s,
        "vecops.det.mats_per_s": _rate(g["det"].units, g["det"].s),
        "vecops.rank.self_s": g["rank"].self_s,
        "vecops.rank.mats_per_s": _rate(g["rank"].units, g["rank"].s),
        "vecops.decode.s": g["decode"].s,
        "vecops.decode.digits_per_s": _rate(g["decode"].units, g["decode"].s),
        "counting.count_zeros.s": g["count_zeros"].s,
        "counting.count_zeros.calls": g["count_zeros"].calls,
        "counting.count_zeros.points_per_s": _rate(g["count_zeros"].units, g["count_zeros"].s),
        "counting.count_zeros.evals": g["count_zeros"].evals,
        "counting.pattern.self_s": g["pattern"].self_s,
        "counting.pattern.matrices_per_s": _rate(g["pattern"].units, g["pattern"].s),
        "counting.pattern.evals": g["pattern"].evals,
        "incidence.count.self_s": g["incidence"].self_s,
        "incidence.pairs_per_s": _rate(g["incidence"].units, g["incidence"].s),
        "incidence.evals": g["incidence"].evals,
        "incidence.verify.self_s": g["verify"].self_s,
        "matroids.count_X.s": g["count_X"].s,
        "matroids.nodes": g["count_X"].evals,
        "matroids.nodes_per_s": _rate(g["count_X"].evals, g["count_X"].s),
        "matroids.yield": _rate(g["count_X"].extra, g["count_X"].evals),
        "polys.tree_poly.s": g["tree_poly"].s,
        "motive.fit.s": g["fit"].s,
        "motive.fit.calls": g["fit"].calls,
        "cache.open.s": g["cache_open"].s,
        "cache.records": g["cache_open"].extra,
        "cache.get.calls": gets,
        "cache.hit_ratio": _rate(g["cache_get"].extra, gets),
        "cache.put.s": g["cache_put"].s,
        "cache.put.calls": g["cache_put"].calls,
        # the cli layer: main and the subcommand functions it dispatches to
        "cli.main.self_s": g["cli"].self_s,
        "cli.requests": g["cli_main"].calls,
    }
