"""Seeded `gm` request lists for the benchmark workloads, and the answer checker.

A seed only chooses relabelings: vertex permutations, sent as `--g6` strings,
and ground-set permutations, sent as `--matroid` rank-table files.  Every
answer is invariant under relabeling, so the expected answer of a request
depends on its id alone and is looked up in `expected.json`.  Vertex-indexed
parameters (the `pi-strat` `--subset` mask and `--pi` masks) are permuted
together with their graph, or the answers would change with the seed.

This module imports nothing from the package under test: inputs are built
from the base tables below.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("tables", "identities", "representations")

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# base graphs: vertex count and edge list
GRAPHS = {
    "K2": (2, [(0, 1)]),
    "P3": (3, [(0, 1), (1, 2)]),
    "C3": (3, [(0, 1), (1, 2), (0, 2)]),
    "P4": (4, [(0, 1), (1, 2), (2, 3)]),
    "C4": (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "DIAMOND": (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)]),
    "K4": (4, list(itertools.combinations(range(4), 2))),
    "C5": (5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)]),
    "W4": (5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (1, 4)]),
}


def _fano_rank(mask: int) -> int:
    # element e is the nonzero vector of F_2^3 with binary digits e + 1;
    # three points are collinear iff their labels XOR to zero
    pts = [e + 1 for e in range(7) if mask >> e & 1]
    if len(pts) == 3 and pts[0] ^ pts[1] ^ pts[2] == 0:
        return 2
    return min(len(pts), 3)


# base matroids: ground-set size and rank function
MATROIDS = {
    "fano": (7, _fano_rank),
    "U2,3": (3, lambda mask: min(bin(mask).count("1"), 2)),
    "U2,4": (4, lambda mask: min(bin(mask).count("1"), 2)),
    "U2,5": (5, lambda mask: min(bin(mask).count("1"), 2)),
    "U3,6": (6, lambda mask: min(bin(mask).count("1"), 3)),
}


def graph6(n: int, edges) -> str:
    """graph6 encoding of a simple graph on n <= 62 vertices."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [int((u, v) in present) for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    groups = [int("".join(map(str, bits[i : i + 6])), 2) for i in range(0, len(bits), 6)]
    return "".join(chr(63 + d) for d in [n] + groups)


def permute_mask(mask: int, perm) -> int:
    """Image of a vertex-subset bitmask under perm (perm[v] is v's new label)."""
    return sum(1 << perm[v] for v in range(len(perm)) if mask >> v & 1)


def matroid_text(m: int, rank, perm) -> str:
    """Rank-table text of the matroid whose element perm[e] plays the role of e."""
    ranks = [0] * (1 << m)
    for mask in range(1 << m):
        ranks[permute_mask(mask, perm)] = rank(mask)
    return f"{m}\n" + "\n".join(map(str, ranks)) + "\n"


@dataclass(frozen=True)
class Request:
    """One `gm` invocation.  `id` names the base input and the question, so it
    is the same for every seed; `files` are written next to the run first."""

    id: str
    argv: tuple
    files: dict = field(default_factory=dict)


class _Relabeler:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.pending: dict = {}  # files made since the last request was emitted
        self.made = 0

    def perm(self, n: int) -> list:
        p = list(range(n))
        self.rng.shuffle(p)
        return p

    def graph(self, name: str, masks=()):
        """(g6 string, relabeled masks) for a fresh relabeling of a base graph."""
        n, edges = GRAPHS[name]
        p = self.perm(n)
        g6 = graph6(n, [(p[u], p[v]) for u, v in edges])
        return g6, [permute_mask(mask, p) for mask in masks]

    def matroid(self, name: str) -> str:
        """File name of a fresh relabeling of a base matroid."""
        m, rank = MATROIDS[name]
        fname = f"m{self.made}.txt"
        self.made += 1
        self.pending[fname] = matroid_text(m, rank, self.perm(m))
        return fname


def _qs(*qs) -> str:
    return ",".join(map(str, qs))


def _probes(rl: _Relabeler):
    """Tiny requests run first in every workload so that every traced layer
    records spans on every workload (cache, fit, census, corner scan,
    incidence scan, representation DFS)."""
    c3, _ = rl.graph("C3")
    yield "probe:YG:C3", ["count", "--kind", "YG", "--g6", c3, "--q", _qs(2, 3, 4, 5, 7)]
    yield "probe:fit:YG:C3", ["fit", "--kind", "YG", "--g6", c3, "--q", _qs(2, 3, 4, 5, 7), "--max-deg", "3"]
    yield "probe:Zrank1:P3", ["count", "--kind", "Zrank", "--r", "1", "--g6", rl.graph("P3")[0], "--q", _qs(2, 3)]
    yield "probe:Z:P3", ["count", "--kind", "Z", "--g6", rl.graph("P3")[0], "--q", _qs(2, 3)]
    yield "probe:Jyuck:P3:s2", ["verify", "--identity", "Jyuck", "--g6", rl.graph("P3")[0], "--s", "2", "--q", "2"]
    yield "probe:XM:U2,3", ["count", "--kind", "XM", "--matroid", rl.matroid("U2,3"), "--q", _qs(2, 3)]


def _tables(rl: _Relabeler):
    for name, qs in (("K4", (2, 3, 4, 5, 7)), ("W4", (2, 3, 4)), ("C5", (2, 3, 4, 5, 7, 8, 9))):
        for kind in ("YG", "XG"):
            g6, _ = rl.graph(name)
            yield f"tables:{kind}:{name}", ["count", "--kind", kind, "--g6", g6, "--q", _qs(*qs)]
            if (kind, name) == ("YG", "C5"):
                # same labeled input as the count above: answered from the disk cache
                yield "tables:fit:YG:C5", ["fit", "--kind", kind, "--g6", g6, "--q", _qs(*qs), "--max-deg", "5"]
    p4, _ = rl.graph("P4")
    z_qs = _qs(2, 3, 4, 5, 7, 8, 9, 11, 13)
    yield "tables:Z:P4", ["count", "--kind", "Z", "--g6", p4, "--q", z_qs]
    yield "tables:fit:Z:P4", ["fit", "--kind", "Z", "--g6", p4, "--q", z_qs, "--max-deg", "7"]
    for r in (2, 3):
        yield f"tables:Zrank{r}:P4", ["count", "--kind", "Zrank", "--r", str(r), "--g6", rl.graph("P4")[0], "--q", _qs(2, 3, 4, 5)]
    yield "tables:Zo:C4", ["count", "--kind", "Zo", "--g6", rl.graph("C4")[0], "--q", _qs(2, 3, 4, 5, 7, 8)]
    yield "tables:Z:C5", ["count", "--kind", "Z", "--g6", rl.graph("C5")[0], "--q", _qs(2, 3)]


def _identities(rl: _Relabeler):
    both = _qs(2, 3)
    for ident in ("firstred", "secondred", "Dreduction"):
        for name in ("P3", "C3"):
            for s in (1, 2):
                for r, k in itertools.product(range(s + 1), range(s + 1)):
                    yield f"identities:{ident}:{name}:s{s}r{r}k{k}", [
                        "verify", "--identity", ident, "--g6", rl.graph(name)[0],
                        "--s", str(s), "--r", str(r), "--k", str(k), "--q", both,
                    ]
    for name in ("P3", "C3"):
        for s in (1, 2):
            for r in range(s + 1):
                yield f"identities:cor-secondred:{name}:s{s}r{r}", [
                    "verify", "--identity", "cor-secondred", "--g6", rl.graph(name)[0],
                    "--s", str(s), "--r", str(r), "--q", both,
                ]
        # s = 3 at q = 3 is a 3^18-state scan, over the default budget
        for s, qs in ((1, both), (2, both), (3, "2")):
            yield f"identities:Jyuck:{name}:s{s}", [
                "verify", "--identity", "Jyuck", "--g6", rl.graph(name)[0], "--s", str(s), "--q", qs,
            ]
        strat = [(s, 1, subset, None) for s in (1, 2) for subset in range(1, 8)]
        strat += [(2, 2, 0b011, None), (2, 2, 0b111, None), (2, 1, 0b110, 0b001)]
        for s, t, subset, base in strat:
            g6, masks = rl.graph(name, [subset] + ([base] if base else []))
            argv = ["verify", "--identity", "pi-strat", "--g6", g6, "--s", str(s),
                    "--t", str(t), "--subset", str(masks[0]), "--q", both]
            tag = f"identities:pi-strat:{name}:s{s}t{t}m{subset}"
            if base:
                argv += ["--pi", f"3:{masks[1]}=1"]
                tag += f"b{base}=1"
            yield tag, argv
    for r, qs in ((0, (2,)), (1, (2,)), (2, (2, 3)), (3, (2,))):
        yield f"identities:yuck:K2:r{r}", [
            "verify", "--identity", "yuck", "--g6", rl.graph("K2")[0], "--r", str(r), "--q", _qs(*qs),
        ]
    for ident in ("signed-sums", "free-vertex", "stanley-iso"):
        for name in ("C4", "DIAMOND", "K4"):
            # stanley-iso on K4 scans the apex K5 (10 edges): q = 2 keeps it small
            qs = "2" if (ident, name) == ("stanley-iso", "K4") else both
            yield f"identities:{ident}:{name}", ["verify", "--identity", ident, "--g6", rl.graph(name)[0], "--q", qs]


def _representations(rl: _Relabeler):
    fano = rl.matroid("fano")
    fano_qs = _qs(2, 3, 4, 5, 7)
    yield "representations:XM:fano", ["count", "--kind", "XM", "--matroid", fano, "--q", fano_qs]
    yield "representations:XM:U3,6", ["count", "--kind", "XM", "--matroid", rl.matroid("U3,6"), "--q", _qs(2, 3, 4)]
    yield "representations:XM:U2,5", ["count", "--kind", "XM", "--matroid", rl.matroid("U2,5"), "--q", _qs(2, 3, 4, 5, 7)]
    # odd orders kill every branch, so no polynomial fits: NoFit, exit code 1
    yield "representations:fit:XM:fano", ["fit", "--kind", "XM", "--matroid", fano, "--q", fano_qs, "--max-deg", "3"]
    yield "representations:grassmann-factor:U2,4:s3", [
        "verify", "--identity", "grassmann-factor", "--matroid", rl.matroid("U2,4"), "--s", "3", "--q", _qs(2, 3),
    ]


_BUILDERS = {"tables": _tables, "identities": _identities, "representations": _representations}


def build_requests(workload: str, seed: int, pass_index: int = 0) -> list:
    """The requests of one pass: the probes, then the workload's own requests,
    each with a fresh relabeling drawn from (workload, seed, pass_index)."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rl = _Relabeler(random.Random(f"{workload}:{seed}:{pass_index}"))
    out = []
    for rid, argv in itertools.chain(_probes(rl), _BUILDERS[workload](rl)):
        files, rl.pending = rl.pending, {}
        # --stats makes gm report its own work counter (DFS nodes for XM) on stderr
        out.append(Request(rid, tuple(argv) + ("--format", "json", "--stats"), files))
    return out


def field_orders(requests) -> list:
    """Every field order the requests name, built during set-up."""
    qs = set()
    for req in requests:
        qs.update(int(q) for q in req.argv[req.argv.index("--q") + 1].split(","))
    return sorted(qs)


# ---------------------------------------------------------------------------
# answers


def parse_answer(argv, code: int, stdout: str) -> dict:
    """Label-free answer of one request: its exit code and the rows printed
    by `--format json` (the last stdout line)."""
    answer: dict = {"code": code}
    lines = stdout.strip().splitlines()
    if not lines:
        return answer
    try:
        doc = json.loads(lines[-1])
    except ValueError:  # an error cut the output short of its JSON line
        answer["unparsed"] = lines[-1][:200]
        return answer
    if argv[0] == "verify":
        answer["rows"] = {
            str(row["q"]): [row["lhs"], row["rhs"], row["ok"]] if "lhs" in row else row["ok"]
            for row in doc["rows"]
        }
        return answer
    answer["counts"] = doc["table"]["counts"]
    if argv[0] == "fit":
        fit = doc["fit"]
        answer["fit"] = fit["coeffs"] if "coeffs" in fit else "nofit"
    return answer


def load_expected(path: str = EXPECTED_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(expected: dict, rid: str, answer: dict) -> bool:
    """A request passes when its whole answer, exit code and every q row
    included, equals the recorded one; a dropped row or a wrong count fails."""
    return rid in expected and expected[rid] == answer


def checksum(answers) -> str:
    """Digest of (request id, answer) pairs in request order."""
    blob = json.dumps(list(answers), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
