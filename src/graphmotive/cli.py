"""Command-line frontend.

Subcommands: poly (symbolic polynomials + determinant cross-check), count
(point-count tables with on-disk caching), verify (identity checks), fit
(exact polynomial interpolation of a count table), counterexample (the
non-polynomial representation-count demonstration).

Exit codes: 0 success / all PASS, 1 FAIL or failed fit, 2 usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import counting, graphs, incidence, matroids, polys
from .cache import CountCache
from .counting import CountTable, stats
from .errors import (
    BadParams,
    BudgetExceeded,
    GraphMotiveError,
    InsufficientPoints,
    NotPrimePower,
    NotSimple,
    ParseError,
    TooLarge,
)
from .ffield import TABLE_LIMIT, _prime_power, make_field
from .matroids import PartialRank
from .motive import IntPoly, NoFit, fit_polynomial

COUNT_KINDS = ("YG", "XG", "Z", "Zo", "Zrank", "A", "J", "K", "H", "XM", "L")

GRAPH_IDENTITIES = (
    "firstred",
    "secondred",
    "cor-secondred",
    "Dreduction",
    "yuck",
    "Jyuck",
    "pi-strat",
)
BOOL_IDENTITIES = ("stanley-iso", "free-vertex", "signed-sums")
ALL_IDENTITIES = GRAPH_IDENTITIES + BOOL_IDENTITIES + ("grassmann-factor",)

COUNTEREXAMPLE_QS = (2, 3, 4, 5, 7, 8, 9)


# ---------------------------------------------------------------------------
# input plumbing


def _parse_q_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            q = int(part)
        except ValueError as exc:
            raise ParseError(f"bad field order {part!r}") from exc
        # only orders that can have a field are factored: one above 256,
        # prime power or not, fails alone when its row builds the field
        if q <= TABLE_LIMIT:
            _prime_power(q)
        out.append(q)
    if not out:
        raise ParseError("empty field-order list")
    return out


def _read_input(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path!r}: {exc}") from exc


def _load_graph(args) -> graphs.Graph:
    given = [x for x in (args.graph, args.g6, args.name) if x]
    if len(given) != 1:
        raise ParseError("give exactly one of --graph/--g6/--name")
    if args.graph:
        return graphs.parse_edge_list(_read_input(args.graph))
    if args.g6:
        return graphs.parse_graph6(args.g6)
    return graphs.from_name(args.name)


def _load_matroid(args) -> matroids.Matroid:
    text = args.matroid
    if text is None:
        raise ParseError("this kind needs --matroid")
    s = text.strip()
    if s.lower() == "fano":
        return matroids.fano()
    if s.upper().startswith("U") and "," in s:
        body = s[1:]
        r_txt, m_txt = body.split(",", 1)
        try:
            return matroids.uniform(int(r_txt), int(m_txt))
        except ValueError as exc:
            raise ParseError(f"bad uniform-matroid argument {text!r}") from exc
    return matroids.matroid_from_text(_read_input(s))


def _parse_partial(text: str) -> PartialRank:
    """Inline span-constraint format: 'ground:mask=need[,mask=need...]';
    masks are vertex-subset bitmasks (decimal, 0b... or 0x... accepted);
    'ground:' alone is the empty constraint list."""
    if ":" not in text:
        raise ParseError(f"span constraints need 'ground:...', got {text!r}")
    head, _, body = text.partition(":")
    try:
        ground = int(head)
    except ValueError as exc:
        raise ParseError(f"bad ground-set size {head!r}") from exc
    pairs = []
    for item in body.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ParseError(f"constraint must be mask=need, got {item!r}")
        mask_txt, _, need_txt = item.partition("=")
        try:
            mask = int(mask_txt.strip(), 0)
            need = int(need_txt.strip())
        except ValueError as exc:
            raise ParseError(f"bad constraint {item!r}") from exc
        pairs.append((mask, need))
    return PartialRank(ground, tuple(pairs))


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ParseError(f"--{name} is required here")


# ---------------------------------------------------------------------------
# count dispatch


def _count_input(kind: str, args):
    """The request's input, loaded once, and its exact serialization for the
    cache key (labeled, not canonical: isomorphic inputs cache separately by
    design)."""
    if kind == "XM":
        matroid = _load_matroid(args)
        return matroid, matroids.matroid_to_text(matroid)
    if kind == "L":
        _require(args, "pi")
        pi = _parse_partial(args.pi)
        return pi, f"partial {pi.ground} " + ";".join(f"{m}={d}" for m, d in pi.pairs)
    g = _load_graph(args)
    return g, graphs.format_edge_list(g)


def _count_params(kind: str, args) -> dict:
    if kind in ("YG", "XG", "Z", "Zo"):
        return {}
    if kind == "Zrank":
        _require(args, "r")
        return {"r": args.r}
    if kind == "A":
        _require(args, "s", "r", "k")
        return {"s": args.s, "r": args.r, "k": args.k}
    if kind in ("J", "K", "H", "L"):
        _require(args, "s")
        return {"s": args.s}
    if kind == "XM":
        return {} if args.s is None else {"s": args.s}
    raise ParseError(f"unknown count kind {kind!r}")


def _compute_count(kind: str, obj, args, q: int, budget) -> int:
    """One field order of the table; obj is the input _count_input loaded."""
    if kind == "XM":
        return matroids.count_X(obj, s=args.s, q=q, budget=budget)
    if kind == "L":
        return incidence.count_L(args.s, obj, q, budget=budget)
    if kind == "YG":
        return counting.count_tree_complement(obj, q, budget=budget)
    if kind == "XG":
        return counting.count_tree_support(obj, q, budget=budget)
    if kind == "Z":
        return counting.count_blocked_nondegenerate(obj, q, budget=budget)
    if kind == "Zo":
        return counting.count_supported_nondegenerate(obj, q, budget=budget)
    if kind == "Zrank":
        return counting.count_blocked_rank(obj, args.r, q, budget=budget)
    if kind == "A":
        return incidence.count_A(obj, args.s, args.r, args.k, q, budget=budget)
    if kind == "J":
        return incidence.count_J(obj, args.s, q, budget=budget)
    if kind == "K":
        return incidence.count_K(obj, args.s, q, budget=budget)
    if kind == "H":
        return incidence.count_H(obj, args.s, q, budget=budget)
    raise ParseError(f"unknown count kind {kind!r}")


def _build_table(args, out_errors: list[str]) -> CountTable:
    """Computes the requested table, consulting the on-disk cache per field
    order; per-q budget overruns and orders too large to enumerate are
    reported and the remaining orders still run."""
    kind = args.kind
    qs = _parse_q_list(args.q)
    obj, input_text = _count_input(kind, args)
    params = _count_params(kind, args)
    cache = CountCache.open()
    counts = {}
    for q in qs:
        try:
            make_field(q)  # an order above 256 has no field: this row fails
            val = cache.get(kind, input_text, params, q)
            if val is None:
                val = _compute_count(kind, obj, args, q, args.budget)
                cache.put(kind, input_text, params, q, val)
        except (BudgetExceeded, TooLarge) as exc:
            out_errors.append(f"q={q}: {exc}")
            continue
        counts[q] = val
    label = f"{kind}:" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return CountTable(label=label, counts=counts)


# ---------------------------------------------------------------------------
# output helpers


def _emit_table(table: CountTable, fmt: str, extra: dict | None = None):
    if fmt == "json":
        doc = {"table": json.loads(table.to_json())}
        if extra:
            doc.update(extra)
        print(json.dumps(doc, sort_keys=True))
    elif fmt == "csv":
        cols = ["q", "count"] + (list(extra) if extra else [])
        print(",".join(cols))
        for q in table.qs():
            row = [str(q), str(table.counts[q])]
            if extra:
                for key in extra:
                    row.append(str(extra[key].get(q, "")))
            print(",".join(row))
    else:
        print(f"# {table.label}")
        for q in table.qs():
            print(f"q={q} count={table.counts[q]}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_poly(args) -> int:
    g = _load_graph(args)
    p = polys.tree_complement_poly(g)
    qpoly = polys.spanning_tree_poly(g)
    ok = polys.matrix_tree_check(g)
    if args.format == "json":
        doc = {
            "P": p.format(),
            "Q": qpoly.format(),
            "matrix_tree": "PASS" if ok else "FAIL",
        }
        print(json.dumps(doc, sort_keys=True))
        return 0 if ok else 1
    print(f"P = {p.format()}")
    print(f"Q = {qpoly.format()}")
    print(f"matrix-tree: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_count(args) -> int:
    errors: list[str] = []
    table = _build_table(args, errors)
    _emit_table(table, args.format)
    for msg in errors:
        print(msg, file=sys.stderr)
    return 0 if table.counts else 1


def cmd_verify(args) -> int:
    name = args.identity
    if name is None:
        raise ParseError("--identity is required")
    if name not in ALL_IDENTITIES:
        raise ParseError(
            f"unknown identity {name!r}; choose from {', '.join(ALL_IDENTITIES)}"
        )
    qs = _parse_q_list(args.q)
    params: dict = {}
    if name in BOOL_IDENTITIES:
        g = _load_graph(args)
        check = {
            "stanley-iso": counting.verify_apex_support_iso,
            "free-vertex": counting.verify_free_vertex_extension,
            "signed-sums": counting.verify_contract_delete_sums,
        }[name]
    elif name == "grassmann-factor":
        params["matroid"] = _load_matroid(args)
        _require(args, "s")
        params["s"] = args.s
    else:
        params["graph"] = _load_graph(args)
        for key in ("s", "r", "k"):
            val = getattr(args, key)
            if val is not None:
                params[key] = val
        if name == "pi-strat":
            params["t"] = args.t if args.t is not None else 1
            if args.subset is None:
                raise ParseError("pi-strat needs --subset (vertex bitmask)")
            params["subset"] = args.subset
            if args.pi is not None:
                params["base"] = _parse_partial(args.pi)
    # an order over the budget or too large to tabulate is reported on
    # stderr and the remaining orders still run, as in count and fit
    all_ok = True
    rows = []
    for q in qs:
        try:
            make_field(q)  # an order above 256 has no field: this row fails
            if name in BOOL_IDENTITIES:
                ok = check(g, q, budget=args.budget)
                row = {"q": q, "ok": ok}
                line = f"identity={name} q={q} {'PASS' if ok else 'FAIL'}"
            else:
                report = incidence.verify_identity(name, params, q, budget=args.budget)
                ok = report.equal
                row = {"q": q, "lhs": report.lhs, "rhs": report.rhs, "ok": ok}
                line = (
                    f"identity={name} q={q} lhs={report.lhs} rhs={report.rhs} "
                    f"{'PASS' if ok else 'FAIL'}"
                )
        except (BudgetExceeded, TooLarge) as exc:
            print(f"q={q}: {exc}", file=sys.stderr)
            all_ok = False
            continue
        rows.append(row)
        print(line)
        all_ok = all_ok and ok
    if args.format == "json":
        print(json.dumps({"identity": name, "rows": rows}, sort_keys=True))
    return 0 if all_ok else 1


def cmd_fit(args) -> int:
    if args.max_deg is None:
        raise ParseError("--max-deg is required")
    errors: list[str] = []
    table = _build_table(args, errors)
    for msg in errors:
        print(msg, file=sys.stderr)
    result = fit_polynomial(table, args.max_deg)
    fitted = {}
    if isinstance(result, IntPoly):
        fitted = {q: result.evaluate(q) for q in table.qs()}
    if args.format == "json":
        doc = {"table": json.loads(table.to_json())}
        if isinstance(result, IntPoly):
            doc["fit"] = {"coeffs": list(result.coeffs)}
        else:
            doc["fit"] = {
                "nofit": {
                    "reason": result.reason,
                    "witness_q": result.witness_q,
                    "detail": result.detail,
                }
            }
        print(json.dumps(doc, sort_keys=True))
    elif args.format == "csv":
        print("q,count,fitted")
        for q in table.qs():
            print(f"{q},{table.counts[q]},{fitted.get(q, '')}")
    else:
        print(f"# {table.label}")
        for q in table.qs():
            tail = f" fitted={fitted[q]}" if q in fitted else ""
            print(f"q={q} count={table.counts[q]}{tail}")
        if isinstance(result, IntPoly):
            print(f"fit: {result.format()}")
        else:
            print(f"fit: NoFit ({result.detail})")
    return 0 if isinstance(result, IntPoly) else 1


def cmd_counterexample(args) -> int:
    budget = args.budget
    table = matroids.fano_demo(list(COUNTEREXAMPLE_QS), budget=budget)
    odd_zero = all(table.counts[q] == 0 for q in (3, 5, 7, 9))
    even_pos = all(table.counts[q] > 0 for q in (2, 4, 8))
    result = fit_polynomial(table, max_deg=5)
    not_poly = isinstance(result, NoFit)

    print("Full-rank representation counts of the seven-point rank-3")
    print("configuration (three-dimensional column spans, per field order):")
    for q in table.qs():
        print(f"  q={q}  count={table.counts[q]}")
    print()
    print(f"counts vanish at every odd order checked: {'yes' if odd_zero else 'NO'}")
    print(f"counts are positive at every even order checked: {'yes' if even_pos else 'NO'}")
    if not_poly:
        print(
            "degree-5 interpolation through the first six orders fails on the "
            f"held-out order (witness q={result.witness_q}): NoFit"
        )
        print()
        print("Conclusion: no single polynomial in q produces this count table,")
        print("so point counts of these representation spaces -- and therefore")
        print("of the matroid strata they stratify -- are not polynomial in q.")
    else:
        print("unexpectedly found a polynomial fit:", result.format())
    ok = odd_zero and even_pos and not_poly
    print()
    print(f"demonstration: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The gm parser, built once per process: parse_args leaves it as it
    was, and main dispatches by command name, not through the parser."""
    top = argparse.ArgumentParser(
        prog="gm",
        description="Point counts of spanning-tree hypersurfaces, symmetric-"
        "matrix strata, incidence configurations, and matroid representation "
        "spaces over finite fields.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, q_required=False):
        p.add_argument("--graph", help="edge-list file ('n m' header)")
        p.add_argument("--g6", help="graph6 string")
        p.add_argument("--name", help="built-in graph name (C3, K4, P3, S2, D2)")
        p.add_argument(
            "--matroid", help="matroid: rank-table file, 'fano', or 'U<r>,<m>'"
        )
        p.add_argument("--pi", help="span constraints 'ground:mask=need,...'")
        p.add_argument("--q", required=q_required, help="comma-separated field orders")
        p.add_argument("--s", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--t", type=int, help="levels for the pi-strat identity")
        p.add_argument(
            "--subset",
            type=lambda x: int(x, 0),
            help="vertex-subset bitmask for the pi-strat identity",
        )
        p.add_argument("--identity", help="identity name for verify")
        p.add_argument("--max-deg", type=int, dest="max_deg")
        p.add_argument(
            "--format", choices=("json", "csv", "text"), default="text"
        )
        p.add_argument("--budget", type=int, default=None)
        p.add_argument(
            "--stats",
            action="store_true",
            help="print the enumeration counter to stderr",
        )

    p_poly = sub.add_parser("poly", help="symbolic polynomials + determinant check")
    common(p_poly)

    p_count = sub.add_parser("count", help="point-count table")
    p_count.add_argument("--kind", required=True, choices=COUNT_KINDS)
    common(p_count, q_required=True)

    p_verify = sub.add_parser("verify", help="check a counting identity")
    common(p_verify, q_required=True)

    p_fit = sub.add_parser("fit", help="fit an integer polynomial to counts")
    p_fit.add_argument("--kind", required=True, choices=COUNT_KINDS)
    common(p_fit, q_required=True)

    p_ce = sub.add_parser(
        "counterexample", help="demonstrate the non-polynomial count table"
    )
    common(p_ce)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stats.reset()
    try:
        if args.budget is not None and args.budget < 0:
            raise ParseError(f"--budget must be nonnegative, got {args.budget}")
        # looked up per call, so a cmd_* function replaced after import runs
        code = globals()[f"cmd_{args.command}"](args)
    except (ParseError, BadParams, NotPrimePower, NotSimple) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BudgetExceeded, InsufficientPoints, GraphMotiveError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    if args.stats:
        print(f"evaluations={stats.evaluations}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
