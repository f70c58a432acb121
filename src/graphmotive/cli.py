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
from collections import namedtuple

from . import counting, graphs, incidence, matroids, polys
from .cache import CountCache
from .counting import CountTable, stats
from .errors import (
    BadParams,
    BudgetExceeded,
    GraphMotiveError,
    NotPrimePower,
    NotSimple,
    ParseError,
    TooLarge,
)
from .ffield import TABLE_LIMIT, _prime_power, make_field
from .matroids import PartialRank
from .motive import IntPoly, NoFit, fit_polynomial


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
            r, m = int(r_txt), int(m_txt)
        except ValueError as exc:
            raise ParseError(f"bad uniform-matroid argument {text!r}") from exc
        # the cap of a rank-table file, checked before the 2^m table is built
        if m > matroids._AXIOM_CAP:
            raise ParseError(
                f"uniform matroid capped at {matroids._AXIOM_CAP} elements, got {m}"
            )
        return matroids.uniform(r, m)
    try:
        return matroids.matroid_from_text(_read_input(s))
    except TooLarge as exc:  # a file over a structural cap is a usage error
        raise ParseError(str(exc)) from exc


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


def _lift_digit_cap():
    """Lets exact answers print and cache at any length once the inputs are
    read under the interpreter's 4300-digit int <-> str cap; main restores it."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise ParseError(f"--{name} is required here")


# ---------------------------------------------------------------------------
# count dispatch


# One --kind: the input it loads ("graph", "matroid" or "pi"), the options
# it requires, its count at one q, and the options its cache key holds only
# when given.  Each count looks its function up per call, so a function
# replaced after import (a test spy, a tracer) runs.
Count = namedtuple("Count", "input needs compute optional", defaults=((),))
COUNTS = {
    "YG": Count("graph", (), lambda g, a, q: counting.count_tree_complement(g, q)),
    "XG": Count("graph", (), lambda g, a, q: counting.count_tree_support(g, q)),
    "Z": Count("graph", (), lambda g, a, q: counting.count_blocked_nondegenerate(g, q)),
    "Zo": Count("graph", (), lambda g, a, q: counting.count_supported_nondegenerate(g, q)),
    "Zrank": Count("graph", ("r",), lambda g, a, q: counting.count_blocked_rank(g, a.r, q)),
    "A": Count("graph", ("s", "r", "k"), lambda g, a, q: incidence.count_A(g, a.s, a.r, a.k, q)),
    "J": Count("graph", ("s",), lambda g, a, q: incidence.count_J(g, a.s, q)),
    "K": Count("graph", ("s",), lambda g, a, q: incidence.count_K(g, a.s, q)),
    "H": Count("graph", ("s",), lambda g, a, q: incidence.count_H(g, a.s, q)),
    "XM": Count("matroid", (), lambda m, a, q: matroids.count_X(m, s=a.s, q=q), ("s",)),
    "L": Count("pi", ("s",), lambda pi, a, q: incidence.count_L(a.s, pi, q)),
}


def _count_input(source: str, args):
    """The request's input, loaded once, and its exact serialization for the
    cache key (labeled, not canonical: isomorphic inputs cache separately by
    design)."""
    if source == "matroid":
        matroid = _load_matroid(args)
        return matroid, matroids.matroid_to_text(matroid)
    if source == "pi":
        _require(args, "pi")
        pi = _parse_partial(args.pi)
        return pi, f"partial {pi.ground} " + ";".join(f"{m}={d}" for m, d in pi.pairs)
    g = _load_graph(args)
    return g, graphs.format_edge_list(g)


def _build_table(args, out_errors: list[str]) -> CountTable:
    """Computes the requested table, consulting the on-disk cache per field
    order; per-q budget overruns and orders too large to enumerate are
    reported and the remaining orders still run.  The counts computed here
    are appended to the cache with one write when the table ends, also
    when it ends in an error."""
    kind, spec = args.kind, COUNTS[args.kind]
    qs = _parse_q_list(args.q)
    obj, input_text = _count_input(spec.input, args)
    _require(args, *spec.needs)
    _lift_digit_cap()
    params = {
        name: getattr(args, name)
        for name in spec.needs + spec.optional
        if getattr(args, name) is not None
    }
    cache = CountCache.open()
    counts, new = {}, []
    try:
        for q in qs:
            try:
                make_field(q)  # an order above 256 has no field: this row fails
                # a repeated order reuses its count, whose record waits for the write
                val = counts[q] if q in counts else cache.get(kind, input_text, params, q)
                if val is None:
                    val = spec.compute(obj, args, q)
                    new.append((kind, input_text, params, q, val))
            except (BudgetExceeded, TooLarge) as exc:
                out_errors.append(f"q={q}: {exc}")
                continue
            counts[q] = val
    finally:
        cache.put(new)
    label = f"{kind}:" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return CountTable(label=label, counts=counts)


# ---------------------------------------------------------------------------
# output helpers


def _emit_table(table: CountTable, fmt: str):
    if fmt == "json":
        print(json.dumps({"table": table.to_dict()}, sort_keys=True))
    elif fmt == "csv":
        print("q,count")
        for q in table.qs():
            print(f"{q},{table.counts[q]}")
    else:
        print(f"# {table.label}")
        for q in table.qs():
            print(f"q={q} count={table.counts[q]}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_poly(args) -> int:
    g = _load_graph(args)
    # first, so the determinant cap and the budget refuse before any tree is listed
    ok = polys.matrix_tree_check(g)
    p = polys.tree_complement_poly(g)
    qpoly = polys.spanning_tree_poly(g)
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
    source = incidence.IDENTITIES.get(name)
    if source is None:
        choices = ", ".join(incidence.IDENTITIES)
        raise ParseError(f"unknown identity {name!r}; choose from {choices}")
    qs = _parse_q_list(args.q)
    # the one input the identity reads, and every option given
    params = {source: _load_matroid(args) if source == "matroid" else _load_graph(args)}
    for key in ("s", "r", "k", "t", "subset"):
        if getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if args.pi is not None:
        params["base"] = _parse_partial(args.pi)
    _lift_digit_cap()
    # an order over the budget or too large to tabulate is reported on
    # stderr and the remaining orders still run, as in count and fit
    all_ok = True
    rows = []
    for q in qs:
        try:
            make_field(q)  # an order above 256 has no field: this row fails
            report = incidence.verify_identity(name, params, q)
        except (BudgetExceeded, TooLarge) as exc:
            print(f"q={q}: {exc}", file=sys.stderr)
            all_ok = False
            continue
        row, sides = {"q": q, "ok": report.equal}, ""
        if report.lhs is not None:
            row.update(lhs=report.lhs, rhs=report.rhs)
            sides = f" lhs={report.lhs} rhs={report.rhs}"
        rows.append(row)
        print(f"identity={name} q={q}{sides} {'PASS' if report.equal else 'FAIL'}")
        all_ok = all_ok and report.equal
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
        doc = {"table": table.to_dict()}
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
    table = matroids.fano_demo(matroids.FANO_DEMO_QS)
    odd_zero = all(table.counts[q] == 0 for q in table.qs() if q % 2)
    even_pos = all(table.counts[q] > 0 for q in table.qs() if q % 2 == 0)
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

    def command(name, help_text, *formats):
        """A subcommand with --budget and --stats, which main reads, and
        --format when it prints results; each caller adds only the other
        options its cmd_* reads."""
        p = sub.add_parser(name, help=help_text)
        if formats:
            p.add_argument("--format", choices=(*formats, "text"), default="text")
        p.add_argument("--budget", type=int, default=None)
        p.add_argument(
            "--stats",
            action="store_true",
            help="print the enumeration counter to stderr",
        )
        return p

    def graph_options(p):
        p.add_argument("--graph", help="edge-list file ('n m' header)")
        p.add_argument("--g6", help="graph6 string")
        p.add_argument("--name", help="built-in graph name (C3, K4, P3, S2, D2)")

    def input_options(p):
        graph_options(p)
        p.add_argument(
            "--matroid", help="matroid: rank-table file, 'fano', or 'U<r>,<m>'"
        )
        p.add_argument("--pi", help="span constraints 'ground:mask=need,...'")
        p.add_argument("--q", required=True, help="comma-separated field orders")
        p.add_argument("--s", type=int)
        p.add_argument("--r", type=int)
        p.add_argument("--k", type=int)

    graph_options(
        command("poly", "symbolic polynomials + determinant check", "json")
    )

    p_count = command("count", "point-count table", "json", "csv")
    p_count.add_argument("--kind", required=True, choices=COUNTS)
    input_options(p_count)

    p_verify = command("verify", "check a counting identity", "json")
    p_verify.add_argument("--identity", help="identity name for verify")
    input_options(p_verify)
    p_verify.add_argument("--t", type=int, help="levels for the pi-strat identity")
    p_verify.add_argument(
        "--subset",
        type=lambda x: int(x, 0),
        help="vertex-subset bitmask for the pi-strat identity",
    )

    p_fit = command("fit", "fit an integer polynomial to counts", "json", "csv")
    p_fit.add_argument("--kind", required=True, choices=COUNTS)
    input_options(p_fit)
    p_fit.add_argument("--max-deg", type=int, dest="max_deg")

    command("counterexample", "demonstrate the non-polynomial count table")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    stats.reset(args.budget)
    digit_cap = getattr(sys, "get_int_max_str_digits", int)()  # 0: no cap
    try:
        if args.budget is not None and args.budget < 0:
            raise ParseError(f"--budget must be nonnegative, got {args.budget}")
        # looked up per call, so a cmd_* function replaced after import runs
        code = globals()[f"cmd_{args.command}"](args)
    except (ParseError, BadParams, NotPrimePower, NotSimple) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GraphMotiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    finally:
        # the run's budget ends with it; library calls after main get the default
        stats.budget = counting.DEFAULT_BUDGET
        if digit_cap:
            sys.set_int_max_str_digits(digit_cap)
    if args.stats:
        print(f"evaluations={stats.evaluations}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
