"""Uniform hypergraphs and the Lagrangian toolkit built on them.

Vertices are the integers 1..n.  Hypergraphs are immutable, edges are kept
as a read-only (m, r) int64 array of sorted rows, distinct and in
lexicographic order, and equality means equal r, n and edge array
(isomorphism is out of scope).  All operations are pure functions, so
everything here can be shared freely across threads.

The Lagrangian of a hypergraph G at a weighting x is the sum, over edges,
of the product of the member weights.  One product kernel gathers weights
through the columns of the edge array for every number type: float64 for a
``WeightVector`` or floats, Python objects for ``Fraction``, ``Surd``, int or
mixed weights, which stay exact.
"""

from __future__ import annotations

import operator
import re
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, TextIO, Union

import numpy as np

__all__ = [
    "UniformHypergraph",
    "WeightVector",
    "HypergraphFormatError",
    "lagrangian_value",
    "link_difference",
    "read_hypergraph",
    "write_hypergraph",
    "parse_hypergraph",
    "format_hypergraph",
]

_NEG_TOL = 1e-12
_INDEX = re.compile(r"[+-]?[0-9]+")  # a vertex index as np.loadtxt reads an int64


@dataclass(frozen=True, eq=False)
class UniformHypergraph:
    """An r-uniform hypergraph on vertex set {1..n}.  ``edge_array`` takes any
    iterable of edges or an (m, r) integer array, and keeps the canonical one.

    The graph canonicalizes one int64 copy it owns, so the caller's array is
    neither changed nor shared.  Rows are sorted in place only if some row is
    not strictly increasing, the vertex range is read off the first and last
    columns, and ``_lex_unique`` orders the rows and drops repeats.  A vertex
    index is whatever ``operator.index`` accepts; a float, a string or any
    other index, like a repeated vertex or one out of range, raises a
    ValueError that names the first such edge in input order."""

    r: int
    n: int
    edge_array: np.ndarray = ()

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"edge arity must be >= 2, got {self.r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        edges = self.edge_array if isinstance(self.edge_array, np.ndarray) else list(self.edge_array)
        try:
            E = np.asarray(edges)
            if E.dtype == object:  # Python objects: integers of any type, nothing else
                E = np.vectorize(operator.index, otypes=[np.int64])(E)
            elif E.dtype.kind not in "iu" and E.size:
                raise TypeError("non-integer vertex indices")
            # one copy the graph owns, C order, whatever the caller's layout
            E = E.astype(np.int64, order="C", copy=E is edges).reshape(len(edges), self.r)
            # neighbours in the flat array, less the pairs that straddle two rows:
            # contiguous reads, ~3x faster than comparing strided columns
            flat = E.ravel()
            descents = flat[1:] <= flat[:-1]
            descents[self.r - 1::self.r] = False
            unsorted = np.count_nonzero(descents)
            if unsorted:
                E.sort(axis=1)
            faulty = ((unsorted and np.count_nonzero(E[:, 1:] == E[:, :-1]))
                      or E[:, 0].min(initial=1) < 1 or E[:, -1].max(initial=0) > self.n)
        except (ValueError, TypeError, OverflowError):
            faulty = True
        if faulty:  # name the first edge, in input order, at fault
            for e in map(tuple, edges.tolist()) if isinstance(edges, np.ndarray) else edges:
                try:
                    members = sorted(map(operator.index, e))
                except TypeError:
                    raise ValueError(f"edge {e} has a non-integer vertex index") from None
                if len(members) != self.r or len(set(members)) != self.r:
                    raise ValueError(f"edge {e} does not have {self.r} distinct vertices")
                if members[0] < 1 or members[-1] > self.n:
                    raise ValueError(f"edge {e} leaves the vertex range 1..{self.n}")
            raise ValueError("vertex indices beyond the int64 range")
        E = _lex_unique(E, self.n)
        E.setflags(write=False)
        object.__setattr__(self, "edge_array", E)

    def __eq__(self, other):
        return (isinstance(other, UniformHypergraph) and (self.r, self.n) == (other.r, other.n)
                and np.array_equal(self.edge_array, other.edge_array))

    def __hash__(self):
        return hash((self.r, self.n, self.edge_array.tobytes()))

    @property
    def m(self) -> int:
        return len(self.edge_array)

    @cached_property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """The link index ``(starts, rows)``: ``rows[starts[v]:starts[v + 1]]``
        are the sorted (r-1)-rows S with S + {v} an edge, in lexicographic
        order, for v in 0..n (vertex 0 has none), so deg v is np.diff(starts)[v]."""
        r = self.r
        # each edge once per member: the member first, then the rest in order
        pairs = self.edge_array[:, [[k, *range(k), *range(k + 1, r)] for k in range(r)]]
        pairs = _lex_unique(pairs.reshape(-1, r), self.n)
        return np.searchsorted(pairs[:, 0], np.arange(self.n + 2)), pairs[:, 1:]


def _shifts(top: int, width: int) -> np.ndarray:
    """Bit offsets that pack a row of ``width`` entries in 0..top into one number,
    first entry highest, each in its own field of ``top.bit_length()`` bits; the
    number sorts as the row does.  Python ints where it could overflow int64."""
    bits = int(top).bit_length()
    return np.array([bits * k for k in range(width - 1, -1, -1)],
                    dtype=np.int64 if bits * width <= 63 else object)


def _lex_unique(rows: np.ndarray, top: int) -> np.ndarray:
    """The distinct rows of an int64 array with entries in 0..top, in lexicographic
    order; rows already in order, as a written file's are, come back as they are.
    Otherwise each row is packed into one key, the keys are sorted and deduplicated,
    and the rows are read back out of their bit fields."""
    shifts = _shifts(top, rows.shape[1])
    key = rows @ (1 << shifts)
    if np.count_nonzero(key[1:] <= key[:-1]):
        key.sort()  # with a mask, not np.unique: numpy 2.4's is ~50x slower on int64
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        rows = key[:, None] >> shifts
        rows &= (1 << int(top).bit_length()) - 1
        rows = rows.astype(np.int64, copy=False)
    return rows


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


def _row_products(E: np.ndarray, x: np.ndarray, cols: list | None = None) -> np.ndarray:
    """The product of x over each row of E (0-based ids), left to right, at a
    point or at each row of a matrix; ``np.take`` keeps C order, so a matrix
    row multiplies in the same order as a point.  ``cols``, if given, holds
    x already gathered at each column of E, read and left unchanged.  On an
    object array every product is Python's own ``*``."""
    prod = np.take(x, E[:, 0], axis=-1) if cols is None else cols[0].copy()
    for c in range(1, E.shape[1]):
        prod *= np.take(x, E[:, c], axis=-1) if cols is None else cols[c]
    return prod


def lagrangian_value(G: UniformHypergraph, x: Weights):
    """Sum over edges of the product of member weights; exact if x is exact.
    Products run left to right and the sum edge by edge, on float64 when every
    weight is a float and on Python objects otherwise; no edges give int 0."""
    w = _weight_seq(G, x)
    if not G.m:
        return 0
    a = np.empty(G.n, dtype=float if all(isinstance(v, float) for v in w) else object)
    a[:] = w  # slot by slot: numpy never unpacks a weight
    with np.errstate(all="ignore"):  # float arithmetic overflows silently, as in Python
        prod = _row_products(G.edge_array - 1, a)
        # in place, so exact products are freed as the partial sums replace them;
        # the final + 0 is the loop's 0 + ...: it turns -0.0 into 0.0
        return np.add.accumulate(prod, out=prod)[-1:].tolist()[0] + 0


def link_difference(G: UniformHypergraph, j: int, i: int) -> frozenset[tuple[int, ...]]:
    """The (r-1)-sets e with i not in e, e + {j} an edge, and e + {i} not an edge."""
    if i == j:
        raise ValueError(f"link difference needs distinct vertices, got i = j = {i}")
    for v in (j, i):
        if not 1 <= v <= G.n:
            raise ValueError(f"vertex {v} leaves the range 1..{G.n}")
    starts, rows = G.links
    mine = rows[starts[j]:starts[j + 1]]
    # both groups are in lexicographic order, so their keys are sorted
    places = 1 << _shifts(G.n, G.r - 1)
    theirs, keys = rows[starts[i]:starts[i + 1]] @ places, mine @ places
    # column by column: faster than (mine != i).all(axis=1) on a short link
    kept = np.flatnonzero(np.logical_and.reduce([col != i for col in mine.T]))
    keys = keys[kept]
    absent = np.searchsorted(theirs, keys) == np.searchsorted(theirs, keys, side="right")
    return frozenset(map(tuple, mine[kept[absent]].tolist()))


# ---------------------------------------------------------------------------
# Text format: header "r n m", then m lines of r vertex indices; '#' comments
# ---------------------------------------------------------------------------

class HypergraphFormatError(ValueError):
    """Raised on malformed hypergraph files; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _significant_lines(lines: list[str]):
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            yield lineno, body


def parse_hypergraph(text: str) -> UniformHypergraph:
    """Every check runs on the array np.loadtxt reads; only a faulty body is
    scanned line by line, to name the first faulty line."""
    lines = text.splitlines()
    significant = _significant_lines(lines)
    try:
        lineno, header = next(significant)
    except StopIteration:
        raise HypergraphFormatError(1, "empty file, expected header 'r n m'") from None
    fields = header.split()
    if len(fields) != 3:
        raise HypergraphFormatError(lineno, f"expected header 'r n m', got {header!r}")
    if not all(_INDEX.fullmatch(f) for f in fields):
        raise HypergraphFormatError(lineno, f"non-integer header field in {header!r}")
    r, n, m = (int(f) for f in fields)
    try:
        with warnings.catch_warnings():
            # an empty body is no fault; older numpy reads "1.5" through a float
            warnings.simplefilter("ignore", UserWarning)
            warnings.simplefilter("error", DeprecationWarning)
            body = np.loadtxt(lines, dtype=np.int64, comments="#", skiprows=lineno, ndmin=2)
        G = UniformHypergraph(r, n, body)
        if G.m == len(body) == m:
            return G
    except (ValueError, DeprecationWarning):
        pass
    seen = set()
    for lineno, body in significant:
        parts = body.split()
        if len(parts) != r:
            raise HypergraphFormatError(lineno, f"expected {r} vertex indices, got {len(parts)}")
        if not all(_INDEX.fullmatch(p) for p in parts):
            raise HypergraphFormatError(lineno, f"non-integer vertex index in {body!r}")
        e = tuple(sorted(int(p) for p in parts))
        if len(set(e)) != r:
            raise HypergraphFormatError(lineno, f"repeated vertex in edge {body!r}")
        if e[0] < 1 or e[-1] > n:
            raise HypergraphFormatError(lineno, f"edge {body!r} leaves the range 1..{n}")
        if e in seen:
            raise HypergraphFormatError(lineno, f"duplicate edge {body!r}")
        seen.add(e)
        if len(seen) > m:
            raise HypergraphFormatError(lineno, f"more than the declared {m} edges")
    if len(seen) != m:
        raise HypergraphFormatError(lineno, f"declared {m} edges, found {len(seen)}")
    UniformHypergraph(r, n)  # a sound body leaves the header at fault: r < 2 or n < 0
    raise HypergraphFormatError(lineno, "vertex indices beyond the int64 range")


# at r = 3 a block's int64 temporaries (96 KiB) stay under glibc's 128 KiB mmap threshold
_BLOCK_ROWS = 1 << 12


def _text_blocks(G: UniformHypergraph):
    """The text of G: the header, then the edge lines in blocks of _BLOCK_ROWS edges.

    A block is a byte matrix with one row per vertex index: its decimal
    digits right-aligned, zero bytes as padding, then a space or a newline.
    Its nonzero bytes are the text, so the cost is O(m r digits), whatever n is."""
    yield f"{G.r} {G.n} {G.m}\n"
    width = len(str(G.edge_array.max(initial=0)))
    E = G.edge_array.view(np.uint64)  # indices are positive; unsigned division is faster
    for lo in range(0, G.m, _BLOCK_ROWS):
        rest = E[lo:lo + _BLOCK_ROWS].ravel()
        text = np.empty((len(rest), width + 1), dtype=np.uint8)
        text[:, width] = ord(" ")
        text[G.r - 1::G.r, width] = ord("\n")
        for col in range(width - 1, -1, -1):
            nxt = rest // 10
            digit = rest - nxt * 10 + ord("0")
            digit[rest == 0] = 0  # left of the leading digit
            text[:, col] = digit
            rest = nxt
        yield text[text != 0].tobytes().decode("ascii")


def format_hypergraph(G: UniformHypergraph) -> str:
    return "".join(_text_blocks(G))


def read_hypergraph(source: Union[str, TextIO]) -> UniformHypergraph:
    """Read from a path or an open text stream."""
    if hasattr(source, "read"):
        return parse_hypergraph(source.read())
    with open(source, "r", encoding="utf-8") as fh:
        return parse_hypergraph(fh.read())


def write_hypergraph(G: UniformHypergraph, target: Union[str, TextIO]) -> None:
    """Write in canonical sorted order to a path or an open text stream, block
    by block: the text of ``format_hypergraph``, through ``write`` calls only."""
    if hasattr(target, "write"):
        for block in _text_blocks(G):
            target.write(block)
        return
    with open(target, "w", encoding="utf-8") as fh:
        fh.writelines(_text_blocks(G))
