"""Uniform hypergraphs and the Lagrangian toolkit built on them.

Vertices are the integers 1..n.  Hypergraphs are immutable, edges are kept
as a lexicographically sorted tuple of sorted r-tuples, and equality means
equality of that canonical edge list (isomorphism is out of scope).  All
operations are pure functions, so everything here can be shared freely
across threads.

The Lagrangian of a hypergraph G at a weighting x is the sum, over edges,
of the product of the member weights.  Evaluation and gradient share one
generic code path: pass a ``WeightVector`` for floats, or any sequence of
``Fraction`` values for exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb
from fractions import Fraction
from typing import Iterable, Sequence, TextIO, Union

__all__ = [
    "UniformHypergraph",
    "WeightVector",
    "HypergraphFormatError",
    "lagrangian_value",
    "lagrangian_gradient",
    "density",
    "link_difference",
    "read_hypergraph",
    "write_hypergraph",
    "parse_hypergraph",
    "format_hypergraph",
]

_NEG_TOL = 1e-12


@dataclass(frozen=True)
class UniformHypergraph:
    """An r-uniform hypergraph on vertex set {1..n} with a canonical edge list."""

    r: int
    n: int
    edges: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"edge arity must be >= 2, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        canon = set()
        for e in self.edges:
            members = tuple(sorted(int(v) for v in e))
            if len(members) != self.r or len(set(members)) != self.r:
                raise ValueError(f"edge {e} does not have {self.r} distinct vertices")
            if members[0] < 1 or members[-1] > self.n:
                raise ValueError(f"edge {e} leaves the vertex range 1..{self.n}")
            canon.add(members)
        object.__setattr__(self, "edges", tuple(sorted(canon)))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.edges)

    @cached_property
    def links(self) -> tuple[frozenset[tuple[int, ...]], ...]:
        """``links[v]`` holds the sorted (r-1)-tuples S with S + {v} an edge,
        for v in 1..n; entry 0 is empty so vertices index directly."""
        acc: list[set] = [set() for _ in range(self.n + 1)]
        for e in self.edges:
            for k, v in enumerate(e):
                acc[v].add(e[:k] + e[k + 1:])
        return tuple(frozenset(s) for s in acc)

    def has_edge(self, e: Iterable[int]) -> bool:
        return tuple(sorted(e)) in self.edge_set

    def with_edges(self, extra: Iterable[Iterable[int]]) -> "UniformHypergraph":
        return UniformHypergraph(self.r, self.n, self.edges + tuple(tuple(e) for e in extra))


@dataclass(frozen=True)
class WeightVector:
    """A point on the standard simplex: n nonnegative floats summing to 1.

    Entries in (-1e-12, 0) are clamped to 0 and anything more negative is
    rejected; the vector is re-normalized on construction.
    """

    weights: tuple[float, ...]

    def __post_init__(self):
        ws = []
        for w in self.weights:
            w = float(w)
            if w < -_NEG_TOL:
                raise ValueError(f"negative weight {w}")
            ws.append(max(w, 0.0))
        total = sum(ws)
        if total <= 0.0:
            raise ValueError("weights must have positive total mass")
        object.__setattr__(self, "weights", tuple(w / total for w in ws))

    @classmethod
    def uniform(cls, n: int) -> "WeightVector":
        if n < 1:
            raise ValueError("uniform weight vector needs n >= 1")
        return cls((1.0 / n,) * n)

    def __len__(self):
        return len(self.weights)

    def __getitem__(self, i):
        return self.weights[i]

    def __iter__(self):
        return iter(self.weights)


Weights = Union[WeightVector, Sequence]


def _weight_seq(G: UniformHypergraph, x: Weights):
    w = x.weights if isinstance(x, WeightVector) else tuple(x)
    if len(w) != G.n:
        raise ValueError(f"weight vector has {len(w)} entries, graph has {G.n} vertices")
    return w


def lagrangian_value(G: UniformHypergraph, x: Weights):
    """Sum over edges of the product of member weights; exact if x is exact."""
    w = _weight_seq(G, x)
    total = 0
    for e in G.edges:
        prod = w[e[0] - 1]
        for v in e[1:]:
            prod = prod * w[v - 1]
        total = total + prod
    return total


def lagrangian_gradient(G: UniformHypergraph, x: Weights) -> list:
    """Entry i is the sum over edges containing i of the product of the other weights."""
    w = _weight_seq(G, x)
    grad = [0] * G.n
    for e in G.edges:
        for skip in range(len(e)):
            prod = 1
            for j, v in enumerate(e):
                if j != skip:
                    prod = prod * w[v - 1]
            grad[e[skip] - 1] = grad[e[skip] - 1] + prod
    return grad


def density(G: UniformHypergraph) -> Fraction:
    """Edge density |E| / C(n, r), exact."""
    if G.n < G.r:
        raise ValueError(f"density undefined: n = {G.n} < r = {G.r}")
    return Fraction(G.m, comb(G.n, G.r))


def link_difference(G: UniformHypergraph, j: int, i: int) -> frozenset[tuple[int, ...]]:
    """The (r-1)-sets e with i not in e, e + {j} an edge, and e + {i} not an edge."""
    if i == j:
        raise ValueError(f"link difference needs distinct vertices, got i = j = {i}")
    for v in (j, i):
        if not 1 <= v <= G.n:
            raise ValueError(f"vertex {v} leaves the range 1..{G.n}")
    other = G.links[i]
    return frozenset(S for S in G.links[j] if i not in S and S not in other)


# ---------------------------------------------------------------------------
# Text format: header "r n m", then m lines of r vertex indices; '#' comments
# ---------------------------------------------------------------------------

class HypergraphFormatError(ValueError):
    """Raised on malformed hypergraph files; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _significant_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def parse_hypergraph(text: str) -> UniformHypergraph:
    lines = _significant_lines(text)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise HypergraphFormatError(1, "empty file, expected header 'r n m'") from None
    fields = header.split()
    if len(fields) != 3:
        raise HypergraphFormatError(lineno, f"expected header 'r n m', got {header!r}")
    try:
        r, n, m = (int(f) for f in fields)
    except ValueError:
        raise HypergraphFormatError(lineno, f"non-integer header field in {header!r}") from None
    edges = []
    seen = set()
    for lineno, body in lines:
        parts = body.split()
        if len(parts) != r:
            raise HypergraphFormatError(lineno, f"expected {r} vertex indices, got {len(parts)}")
        try:
            e = tuple(sorted(int(p) for p in parts))
        except ValueError:
            raise HypergraphFormatError(lineno, f"non-integer vertex index in {body!r}") from None
        if len(set(e)) != r:
            raise HypergraphFormatError(lineno, f"repeated vertex in edge {body!r}")
        if e[0] < 1 or e[-1] > n:
            raise HypergraphFormatError(lineno, f"edge {body!r} leaves the range 1..{n}")
        if e in seen:
            raise HypergraphFormatError(lineno, f"duplicate edge {body!r}")
        seen.add(e)
        edges.append(e)
        if len(edges) > m:
            raise HypergraphFormatError(lineno, f"more than the declared {m} edges")
    if len(edges) != m:
        raise HypergraphFormatError(lineno, f"declared {m} edges, found {len(edges)}")
    return UniformHypergraph(r, n, edges)


def format_hypergraph(G: UniformHypergraph) -> str:
    out = [f"{G.r} {G.n} {G.m}"]
    out.extend(" ".join(str(v) for v in e) for e in G.edges)
    return "\n".join(out) + "\n"


def read_hypergraph(source: Union[str, TextIO]) -> UniformHypergraph:
    """Read from a path or an open text stream."""
    if hasattr(source, "read"):
        return parse_hypergraph(source.read())
    with open(source, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def write_hypergraph(G: UniformHypergraph, target: Union[str, TextIO]) -> None:
    """Write in canonical sorted order to a path or an open text stream."""
    text = format_hypergraph(G)
    if hasattr(target, "write"):
        target.write(text)
        return
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(text)
