"""Test-side reference implementations: plain loops over edge tuples and
vertex subsets that the library's code must agree with; the library's
Lagrangian runs one product kernel over the edge array for every number
type.  Not a test module; the test files import from it."""

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, perm

import numpy as np

from hyperlag.constructions import AdderGenerationError, SparseAdderParams, SparsityCheck
from hyperlag.hypercore import UniformHypergraph
from hyperlag.optimize import _compositions


def edges(G) -> tuple:
    """The edges of G as sorted tuples of ints, in lexicographic order."""
    return tuple(map(tuple, G.edge_array.tolist()))


def density(G: UniformHypergraph) -> Fraction:
    """Edge density |E| / C(n, r), exact."""
    if G.n < G.r:
        raise ValueError(f"density undefined: n = {G.n} < r = {G.r}")
    return Fraction(G.m, comb(G.n, G.r))


def _weights(G, x):
    w = x.weights if hasattr(x, "weights") else tuple(x)
    if len(w) != G.n:
        raise ValueError(f"weight vector has {len(w)} entries, graph has {G.n} vertices")
    return w


def lagrangian_value_loop(G, x):
    """Sum over edges, in lexicographic order, of the member weights'
    product taken left to right; the sum starts from the integer 0."""
    w = _weights(G, x)
    total = 0
    for e in edges(G):
        prod = w[e[0] - 1]
        for v in e[1:]:
            prod = prod * w[v - 1]
        total = total + prod
    return total


def lagrangian_gradient(G, x) -> list:
    """Entry i is the sum over edges containing i of the product of the other weights."""
    w = _weights(G, x)
    grad = [0] * G.n
    for e in edges(G):
        for skip in range(len(e)):
            prod = 1
            for j, v in enumerate(e):
                if j != skip:
                    prod = prod * w[v - 1]
            grad[e[skip] - 1] = grad[e[skip] - 1] + prod
    return grad


def grid_oracle_reference(G, N: int) -> Fraction:
    """The largest Lagrangian over the lattice points a/N, evaluated in
    Fractions at every composition a of N (stars and bars)."""
    best = Fraction(0)
    for bars in itertools.combinations(range(N + G.n - 1), G.n - 1):
        a = [b - prev - 1 for prev, b in zip((-1,) + bars, bars + (N + G.n - 1,))]
        best = max(best, lagrangian_value_loop(G, [Fraction(v, N) for v in a]))
    return best


def twin_classes_reference(G) -> list:
    """The vertex classes of G under the transpositions (i j) that map its
    edge set onto itself, every pair tested by swapping it in every edge and
    joined into classes by union-find, each class sorted, classes by their
    least vertex."""
    present = set(edges(G))
    parent = list(range(G.n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(1, G.n + 1), 2):
        swap = {i: j, j: i}
        if {tuple(sorted(swap.get(v, v) for v in e)) for e in present} == present:
            parent[find(j)] = find(i)
    groups = {}
    for v in range(1, G.n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values())


def bernstein_bound_reference(G, d: int) -> Fraction:
    """The largest degree-d Bernstein coefficient of the class polynomial, in
    Fractions: at every composition alpha of d over the twin classes (stars
    and bars), the sum over the edges of G of prod over each edge's members
    v, the j-th of its class c met so far, of (alpha_c - j) / n_c, over
    (d)_r.  Edge by edge this is the mean vertex coefficient when each class
    total alpha_c is split over its n_c members by a uniform multinomial."""
    classes = twin_classes_reference(G)
    owner = {v: c for c, members in enumerate(classes) for v in members}
    k, best = len(classes), Fraction(0)
    for bars in itertools.combinations(range(d + k - 1), k - 1):
        alpha = [b - prev - 1 for prev, b in zip((-1,) + bars, bars + (d + k - 1,))]
        total = Fraction(0)
        for e in edges(G):
            term, met = Fraction(1), [0] * k
            for v in e:
                c = owner[v]
                term *= Fraction(alpha[c] - met[c], len(classes[c]))
                met[c] += 1
            total += term
        best = max(best, total / perm(d, G.r))
    return best


def grid_top_reference(fn, dims: int, N: int, top: int):
    """The ``top`` best lattice points a/N of the simplex under ``fn``, scored
    in one dense pass, one column per coordinate: (values, points), ranked by
    value descending, ties by the lexicographically smaller point."""
    pts = _compositions(dims, N) / N
    vals = np.broadcast_to(fn(*pts.T), len(pts))
    order = sorted(range(len(pts)), key=lambda i: (-vals[i], pts[i].tolist()))[:top]
    return vals[order], pts[order]


def links_reference(G) -> dict:
    """The tuple links the array link index replaced, as a dict over the
    vertices of positive degree: ``links[v]`` holds the sorted (r-1)-tuples S
    with S + {v} an edge."""
    acc = {}
    for e in edges(G):
        for k, v in enumerate(e):
            acc.setdefault(v, set()).add(e[:k] + e[k + 1:])
    return {v: frozenset(s) for v, s in acc.items()}


def brute_link_difference(G, j, i):
    """Scan every edge for the link difference L(j \\ i)."""
    out, present = set(), set(edges(G))
    for edge in present:
        rest = tuple(v for v in edge if v != j)
        if len(rest) < len(edge) and i not in rest and tuple(sorted(rest + (i,))) not in present:
            out.add(rest)
    return frozenset(out)


def blow_up_pattern_reference(pattern, sizes) -> UniformHypergraph:
    """The tuple blow-up the array one replaced: each template's edges are
    ``itertools.product`` over the combinations of its parts' members, in
    consecutive blocks of the given sizes, joined with ``sum(combo, ())``."""
    starts = list(itertools.accumulate(sizes, initial=1))
    rows = []
    for template in pattern.templates:
        pools = [itertools.combinations(range(starts[part - 1], starts[part]), template.count(part))
                 for part in sorted(set(template))]
        rows.extend(sum(combo, ()) for combo in itertools.product(*pools))
    return UniformHypergraph(pattern.r, sum(sizes), rows)


def build_b2k_reference(k: int, n: int) -> UniformHypergraph:
    """The filter B(2k, n) replaced: every triple on 1..n whose least vertex
    is at most 2k."""
    return UniformHypergraph(3, n, [e for e in itertools.combinations(range(1, n + 1), 3)
                                    if e[0] <= 2 * k])


def format_hypergraph_reference(G) -> str:
    """The ``%d`` writer the byte-matrix one replaced: the header, then one
    line per edge of the canonical edge array."""
    row = "%d " * (G.r - 1) + "%d\n"
    return f"{G.r} {G.n} {G.m}\n" + row * G.m % tuple(G.edge_array.ravel().tolist())


def reduce_star_reference(M, part):
    """Drop every edge inside ``part``, then add the star edges (a, b, v)
    through its two lowest vertices a < b, for each other member v."""
    members = sorted(set(part))
    kept = [e for e in edges(M) if not set(members).issuperset(e)]
    star = [(members[0], members[1], v) for v in members[2:]]
    return UniformHypergraph(M.r, M.n, kept + star)


def check_local_sparsity_naive(A, s: int) -> SparsityCheck:
    """Enumerate every vertex subset of size r..s: none may span more than
    |V0| - r + 1 edges."""
    if s < A.r:
        raise ValueError(f"s must be >= r = {A.r}, got {s}")
    for size in range(A.r, min(s, A.n) + 1):
        allowed = size - A.r + 1
        for v0 in itertools.combinations(range(1, A.n + 1), size):
            inside = set(v0)
            count = sum(1 for e in edges(A) if inside.issuperset(e))
            if count > allowed:
                return SparsityCheck(False, v0)
    return SparsityCheck(True, None)


def unconstrained_adder_reference(t: int, r: int, target: int, seed: int) -> UniformHypergraph:
    """The adder at s = r, where no edge set is too dense: the first
    ``target`` distinct sorted draws of r vertices out of 1..t."""
    rng, drawn = random.Random(seed), set()
    while len(drawn) < target:
        drawn.add(tuple(sorted(rng.sample(range(1, t + 1), r))))
    return UniformHypergraph(r, t, sorted(drawn))


def insertion_violation_reference(
    edge_set: set, new_edge: tuple, t: int, s: int, r: int
) -> tuple | None:
    """Scan every vertex set new_edge | A, A of 1..s - r other vertices in
    lexicographic order by size, counting its edges by C(|V|, r) lookups in
    edge_set (new_edge included); the first with more than |V| - r + 1 is
    returned, else None."""
    if s <= r:
        return None
    base = set(new_edge)
    others = [v for v in range(1, t + 1) if v not in base]
    for extra in range(1, s - r + 1):
        for added in itertools.combinations(others, extra):
            v0 = sorted(base.union(added))
            count = sum(1 for e in itertools.combinations(v0, r) if e in edge_set)
            if count > extra + 1:
                return tuple(v0)
    return None


def sparse_adder_reference(params: SparseAdderParams) -> UniformHypergraph:
    """The seeded add-and-repair adder with every insertion tested by
    ``insertion_violation_reference``: the same draws, the same attempt
    budget of 200 * target + 10,000, and AdderGenerationError past it."""
    rng = random.Random(params.seed)
    target = params.target_edges()
    budget = 200 * target + 10_000
    edge_set, attempts = set(), 0
    while len(edge_set) < target:
        if attempts >= budget:
            raise AdderGenerationError(f"budget of {budget} attempts exhausted")
        attempts += 1
        e = tuple(sorted(rng.sample(range(1, params.t + 1), params.r)))
        if e in edge_set:
            continue
        edge_set.add(e)
        if insertion_violation_reference(edge_set, e, params.t, params.s, params.r) is not None:
            edge_set.discard(e)
    return UniformHypergraph(params.r, params.t, sorted(edge_set))


@dataclass(frozen=True)
class PolynomialReference:
    """The Fraction-coefficient polynomial the integer one replaced:
    coefficients low to high as Fractions with no trailing zero, every
    operation done coefficient by coefficient in Fractions, and evaluation
    Horner's rule on those coefficients, or on their floats at a float or a
    numpy array.  Evaluating at another polynomial substitutes it."""

    coeffs: tuple = ()

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def _coerce(other):
        return other if isinstance(other, PolynomialReference) else PolynomialReference((other,))

    def __add__(self, other):
        o = self._coerce(other)
        pairs = itertools.zip_longest(self.coeffs, o.coeffs, fillvalue=Fraction(0))
        return PolynomialReference(tuple(x + y for x, y in pairs))

    __radd__ = __add__

    def __neg__(self):
        return PolynomialReference(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs))
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return PolynomialReference(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return PolynomialReference(tuple(c / other for c in self.coeffs))

    def __pow__(self, n: int):
        out = PolynomialReference((1,))
        for _ in range(n):
            out = out * self
        return out

    def derivative(self):
        return PolynomialReference(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __call__(self, x):
        coeffs = self.coeffs
        if isinstance(x, (float, np.ndarray)):
            coeffs = [float(c) for c in coeffs]
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc
