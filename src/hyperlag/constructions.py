"""Hypergraph families feeding the certification pipelines.

Every family is a weighted multipartite edge pattern blown up to part
sizes: three parts with rational weights for the 2/25 bound, 2k+1 parts
with exact surd weights for the alpha_k/6 bound, and the apex family
B(2k, n), whose limit Lagrangian is alpha_k/6, as the same 2k+1 templates
at its own limit weights.  Beside them sit an integer instantiation policy,
locally sparse "adder" hypergraphs that raise the Lagrangian of a base
construction without creating dense small subgraphs, and the assembly that
injects an adder into one part of a base.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .closedform import Surd, astar_weight
from .hypercore import UniformHypergraph

__all__ = [
    "PartitionPattern",
    "SparseAdderParams",
    "SparsityCheck",
    "AdderGenerationError",
    "b2k_pattern",
    "build_b2k",
    "build_theorem1_base",
    "theorem1_pattern",
    "build_theorem3_pattern",
    "blow_up_pattern",
    "star_split",
    "instantiate_pattern",
    "pattern_edge_count",
    "pattern_part_sizes",
    "pattern_parts",
    "check_local_sparsity",
    "generate_sparse_adder",
    "assemble_gstar",
    "construction_metadata",
]

ExactWeight = Union[Fraction, Surd]


class AdderGenerationError(RuntimeError):
    """Raised when randomized add-and-repair exhausts its attempt budget."""


@dataclass(frozen=True)
class PartitionPattern:
    """Weighted multipartite edge pattern.

    Parts are 1..p with exact nonnegative weights (Fraction or Surd) summing
    to 1.  Each template is a sorted r-tuple of part identifiers, repeats
    allowed; a template like (1, 1, 2) expands to all pairs inside part 1
    joined with every vertex of part 2.
    """

    r: int
    part_weights: tuple[ExactWeight, ...]
    templates: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"arity must be >= 2, got {self.r}")
        weights = tuple(self.part_weights)
        if not weights:
            raise ValueError("pattern needs at least one part")
        for w in weights:
            if w < 0:
                raise ValueError(f"negative part weight {w}")
        total = reduce(lambda acc, w: acc + w, weights)
        if total != 1:
            raise ValueError(f"part weights sum to {total}, not 1")
        p = len(weights)
        canon = []
        for t in self.templates:
            tt = tuple(sorted(int(x) for x in t))
            if len(tt) != self.r:
                raise ValueError(f"template {t} has multiplicity {len(tt)}, expected {self.r}")
            if tt[0] < 1 or tt[-1] > p:
                raise ValueError(f"template {t} names a part outside 1..{p}")
            canon.append(tt)
        if len(set(canon)) != len(canon):
            raise ValueError("duplicate templates")
        object.__setattr__(self, "part_weights", weights)
        object.__setattr__(self, "templates", tuple(sorted(canon)))

    @property
    def num_parts(self) -> int:
        return len(self.part_weights)


@dataclass(frozen=True)
class SparseAdderParams:
    """Parameters for randomized generation of a locally sparse adder:
    t vertices, at least c * t^(r-1) edges, and every vertex subset of size
    at most s spanning at most |subset| - r + 1 edges."""

    s: int
    c: Union[float, Fraction]
    t: int
    r: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"arity must be >= 2, got {self.r}")
        if self.s < self.r:
            raise ValueError(f"s must be >= r = {self.r}, got {self.s}")
        if self.t < self.r:
            raise ValueError(f"t must be >= r = {self.r}, got {self.t}")
        if not (isinstance(self.c, Fraction) or math.isfinite(self.c)) or self.c <= 0:
            raise ValueError(f"density constant must be finite and positive, got {self.c}")
        target, sets = self.target_edges(), math.comb(self.t, self.r)
        if target > sets:
            raise ValueError(f"c = {self.c} asks for {target:,} edges, more than the {sets:,} "
                             f"{self.r}-sets of t = {self.t} vertices")

    def target_edges(self) -> int:
        c = self.c if isinstance(self.c, Fraction) else Fraction(self.c).limit_denominator(10**6)
        return math.ceil(c * self.t ** (self.r - 1))


@dataclass(frozen=True)
class SparsityCheck:
    """The verdict of ``check_local_sparsity``.  When ``ok`` is False,
    ``witness`` is a sorted vertex set of at most s vertices that holds the
    first edge row whose prefix of rows is not s-sparse, and that this
    prefix violates; it is None when ``ok``."""

    ok: bool
    witness: tuple[int, ...] | None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def _apex_templates(k: int) -> tuple[tuple[int, ...], ...]:
    """Every triple of the 2k + 1 parts that meets the first 2k, with apex
    part 2k + 1: the transversal triples of the first block, every pair of
    them joined with the apex, and each of them with a pair inside the apex."""
    first, apex = range(1, 2 * k + 1), 2 * k + 1
    return (*itertools.combinations(first, 3),
            *((i, j, apex) for i, j in itertools.combinations(first, 2)),
            *((i, apex, apex) for i in first))


@lru_cache(maxsize=None)
def b2k_pattern(k: int) -> PartitionPattern:
    """The apex templates at the limit weights of B(2k, n): a*/2k on each
    first-block part and 1 - a* on the apex, a* = ``astar_weight(k)``, k >= 1."""
    a = astar_weight(k)
    return PartitionPattern(r=3, part_weights=(a / (2 * k),) * (2 * k) + (1 - a,),
                            templates=_apex_templates(k))


def build_b2k(k: int, n: int) -> UniformHypergraph:
    """All triples on 1..n meeting {1..2k}; edge count C(n,3) - C(n-2k,3).

    The blow-up of ``b2k_pattern(k)`` with one vertex in each first-block
    part and the other n - 2k in the apex; when n < 2k the parts past n are
    empty, their templates drop, and every triple on 1..n is an edge."""
    pattern = b2k_pattern(k)
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    return blow_up_pattern(pattern, [int(i < n) for i in range(2 * k)] + [max(n - 2 * k, 0)])


def theorem1_pattern() -> PartitionPattern:
    """Three parts weighted 2/5, 2/5, 1/5 with templates (1,1,2), (1,2,3), (2,2,3)."""
    return PartitionPattern(
        r=3,
        part_weights=(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
        templates=((1, 1, 2), (1, 2, 3), (2, 2, 3)),
    )


def _require_mult_of_5(t: int) -> None:
    if t % 5 != 0 or t < 10:
        raise ValueError(f"t must be a multiple of 5 with t >= 10, got {t}")


def build_theorem1_base(t: int) -> UniformHypergraph:
    """Three-part base on t vertices, |V1| = |V2| = 2t/5 and |V3| = t/5.

    Edges: one vertex from each part, or two from V1 and one from V2, or two
    from V2 and one from V3.  The count is exactly 2t^3/25 - 3t^2/25.
    """
    _require_mult_of_5(t)
    return instantiate_pattern(theorem1_pattern(), t)


def build_theorem3_pattern(k: int) -> PartitionPattern:
    """The (2k+1)-part pattern of the alpha_k/6 bound, k >= 2: ``b2k_pattern(k)``,
    2k parts of exact weight (2k+1 - sqrt(4k-1))/(4k^2+2) and the apex part
    of weight (k sqrt(4k-1) + 1 - k)/(2k^2+1)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return b2k_pattern(k)


def pattern_part_sizes(pattern: PartitionPattern, t: int) -> list[int]:
    """Integer part sizes for t vertices: floors of w_i * t, with the deficit
    handed out by largest fractional remainder (ties to the lowest index).
    Computed once per (pattern, t); each call returns a fresh list."""
    return list(_part_sizes(pattern, t))


# the construct paths ask for the same sizes twice, and the Surd floors dominate
@lru_cache(maxsize=32)
def _part_sizes(pattern: PartitionPattern, t: int) -> tuple[int, ...]:
    if t < pattern.num_parts:
        raise ValueError(f"t = {t} is below the number of parts {pattern.num_parts}")
    scaled = [w * t for w in pattern.part_weights]
    floors = [math.floor(x) for x in scaled]
    remainders = [x - f for x, f in zip(scaled, floors)]
    deficit = t - sum(floors)
    by_remainder = sorted(range(pattern.num_parts), key=lambda i: (-remainders[i], i))
    sizes = list(floors)
    for i in by_remainder[:deficit]:
        sizes[i] += 1
    return tuple(sizes)


def pattern_parts(pattern: PartitionPattern, t: int) -> list[tuple[int, int]]:
    """Block boundaries of the instantiated parts."""
    return _blocks(pattern_part_sizes(pattern, t))


def _blocks(sizes: Sequence[int]) -> list[tuple[int, int]]:
    blocks, lo = [], 1
    for s in sizes:
        blocks.append((lo, lo + s - 1))
        lo += s
    return blocks


def _demand(template: tuple[int, ...]) -> list[tuple[int, int]]:
    """(part, members needed) for each part the template names, in part order."""
    return [(part, template.count(part)) for part in sorted(set(template))]


def _require_fit(pattern: PartitionPattern, sizes: Sequence[int]) -> None:
    for template in pattern.templates:
        for part, need in _demand(template):
            if sizes[part - 1] < need:
                raise ValueError(
                    f"part {part} has size {sizes[part - 1]}, template {template} needs {need}"
                )


def _template_shapes(pattern: PartitionPattern, sizes: Sequence[int]):
    """The demand of every template the part sizes can fill, and the shape
    of its edge block: C(part size, multiplicity) along each named part.  A
    template some part is too small to fill adds no edges; skipping it keeps
    every shape free of zeros."""
    demands = [d for d in map(_demand, pattern.templates) if all(sizes[p - 1] >= k for p, k in d)]
    return demands, [tuple(math.comb(sizes[part - 1], need) for part, need in d) for d in demands]


def blow_up_pattern(pattern: PartitionPattern, sizes: Sequence[int]) -> UniformHypergraph:
    """Expand every template over consecutive parts of the given sizes; the
    graph has sum(sizes) vertices, and a template naming a part more often
    than the part has members contributes no edges.

    Each (part, multiplicity) pair gets one int64 table of the part's member
    combinations, and a template's edges are the Cartesian product of its
    tables, broadcast into its rows of one preallocated (m, r) array."""
    if len(sizes) != pattern.num_parts:
        raise ValueError(f"{len(sizes)} part sizes for {pattern.num_parts} parts")
    members = [range(lo, hi + 1) for lo, hi in _blocks(sizes)]
    demands, counts = _template_shapes(pattern, sizes)
    E = np.empty((sum(map(math.prod, counts)), pattern.r), dtype=np.int64)
    tables: dict[tuple[int, int], np.ndarray] = {}
    row = 0
    for demand, shape in zip(demands, counts):
        block = E[row:row + math.prod(shape)].reshape(shape + (pattern.r,))
        row, col = row + math.prod(shape), 0
        for axis, (part, need) in enumerate(demand):
            if (part, need) not in tables:
                combos = itertools.combinations(members[part - 1], need)
                tables[part, need] = np.fromiter(
                    itertools.chain.from_iterable(combos), dtype=np.int64).reshape(-1, need)
            # the table runs along its own axis: the first varies slowest, as in itertools.product
            block[..., col:col + need] = tables[part, need].reshape(
                (1,) * axis + (-1,) + (1,) * (len(shape) - axis - 1) + (need,))
            col += need
    return UniformHypergraph(pattern.r, sum(sizes), E)


def star_split(pattern: PartitionPattern, part: int) -> PartitionPattern:
    """``pattern`` (r = 3) with ``part`` split into two centres and a rest, as
    parts part, part + 1 and part + 2, later parts moved up by two: a template
    naming ``part`` m times becomes every size-m multiset of the three that
    uses each centre at most once, and the star template joins both centres
    with the rest.  Blown up with one vertex per centre, the star through the
    part's two lowest vertices is all that lies inside the part.  The centres
    weigh 0, one vertex's share in the limit."""
    c1, c2, rest = part, part + 1, part + 2
    templates = [(c1, c2, rest)]
    for template in pattern.templates:
        others = tuple(p if p < part else p + 2 for p in template if p != part)
        for split in itertools.combinations_with_replacement(
                (c1, c2, rest), len(template) - len(others)):
            if split.count(c1) <= 1 and split.count(c2) <= 1:
                templates.append(others + split)
    w = pattern.part_weights
    return PartitionPattern(pattern.r, w[:part - 1] + (Fraction(0), Fraction(0), w[part - 1])
                            + w[part:], templates)


def instantiate_pattern(pattern: PartitionPattern, t: int) -> UniformHypergraph:
    """Expand every template over the rounded integer parts on t vertices;
    raises when a part is too small for a template that names it."""
    sizes = pattern_part_sizes(pattern, t)
    _require_fit(pattern, sizes)
    return blow_up_pattern(pattern, sizes)


def pattern_edge_count(pattern: PartitionPattern, t: int) -> int:
    """|E(instantiate_pattern(pattern, t))| without building it: the sum over
    templates of the product of C(part size, multiplicity).  Raises the same
    ValueError as instantiate_pattern when a part is too small."""
    sizes = pattern_part_sizes(pattern, t)
    _require_fit(pattern, sizes)
    return sum(map(math.prod, _template_shapes(pattern, sizes)[1]))


# ---------------------------------------------------------------------------
# Local sparsity: every V0 with r <= |V0| <= s spans at most |V0| - r + 1 edges
# ---------------------------------------------------------------------------

def check_local_sparsity(A: UniformHypergraph, s: int) -> SparsityCheck:
    """Replay A's rows in order into an empty edge set and subset index
    through ``_keep_if_sparse``, the adder's insertion step; stop at the
    first row it rejects.  Exact for the reason ``_insertion_violation``
    gives: each indexed prefix is s-sparse, or the replay would have
    stopped, so row i is rejected exactly when rows[:i+1] is the first
    prefix that is not s-sparse.  The witness is the violation found there
    (see ``SparsityCheck``).  A pass costs one grown search per row; a
    failure costs as many as the rows up to its own, so a late violation in
    a sparse graph can cost nearly a pass where an early one is cheap.
    """
    if s < A.r:
        raise ValueError(f"s must be >= r = {A.r}, got {s}")
    # at s = r the condition is vacuous: r vertices hold at most one edge
    if s == A.r or A.m < 2:
        return SparsityCheck(True, None)
    edge_set, index = set(), {}
    for e in map(tuple, A.edge_array.tolist()):
        witness = _keep_if_sparse(edge_set, index, e, s, A.r)
        if witness is not None:
            return SparsityCheck(False, witness)
    return SparsityCheck(True, None)


def _insertion_violation(
    edge_set: set[tuple[int, ...]],
    index: dict[tuple[int, ...], list[tuple[int, ...]]],
    new_edge: tuple[int, ...],
    s: int,
    r: int,
) -> tuple[int, ...] | None:
    """A vertex set of size at most s that holds new_edge and more than
    |V| - r + 1 of the edges in edge_set (new_edge included), or None.

    Precondition: the kept edges, edge_set without new_edge, are s-sparse,
    and ``index`` maps every nonempty proper subset of each kept edge, as a
    sorted tuple, to the kept edges that contain it.  Then a fresh violation
    V0 contains new_edge, and so does the component C of V0's inside edges
    that holds new_edge.  Every other component D spans a set that misses
    new_edge, so D holds at most |span D| - r + 1 edges, and each such
    component and each isolated vertex of V0 adds more vertices than edges.
    Hence span C alone is a violation.  It is reached from new_edge by adding
    the edges of C in connected order, and every set on the way lies inside
    span C, so no step leaves size s.  The search therefore grows vertex sets
    V from new_edge, each step adding a kept edge that shares at least
    max(1, r - (s - |V|)) vertices with V, found through ``index``; it finds
    a violation exactly when some superset of new_edge on at most s vertices
    is one.
    """
    start = frozenset(new_edge)
    seen, stack = {start}, [start]
    while stack:
        verts = stack.pop()
        need = max(1, r - s + len(verts))
        for key in itertools.combinations(sorted(verts), need):
            for f in index.get(key, ()):
                grown = verts.union(f)
                if grown in seen:
                    continue
                seen.add(grown)
                members = sorted(grown)
                count = sum(1 for e in itertools.combinations(members, r) if e in edge_set)
                if count > len(members) - r + 1:
                    return tuple(members)
                if len(members) < s:
                    stack.append(grown)
    return None


def _keep_if_sparse(
    edge_set: set, index: dict, e: tuple[int, ...], s: int, r: int
) -> tuple[int, ...] | None:
    """Keep the sorted edge e, new to edge_set, unless it makes the edges
    not s-sparse: then return the violation ``_insertion_violation`` finds,
    leaving edge_set and ``index`` as they were.  A kept e goes into
    edge_set and each of its nonempty proper subsets into ``index``, which
    keeps ``_insertion_violation``'s precondition for the next insertion."""
    edge_set.add(e)
    witness = _insertion_violation(edge_set, index, e, s, r)
    if witness is not None:
        edge_set.discard(e)
        return witness
    for size in range(1, r):
        for key in itertools.combinations(e, size):
            index.setdefault(key, []).append(e)
    return None


def generate_sparse_adder(params: SparseAdderParams) -> UniformHypergraph:
    """Seeded add-and-repair: draw a random edge, keep it if no subset of size
    at most s becomes too dense, otherwise drop it; stop at the target count.

    The kept edges are s-sparse before every insertion (the adder starts
    empty and only sparse insertions stay), so ``_keep_if_sparse``, the
    insertion step ``check_local_sparsity`` replays, tests each drawn edge
    by growing connected edge sets out from it through a subset index of
    the kept edges, and indexes it when kept.

    Deterministic given the seed.  Raises AdderGenerationError after
    200 * target + 10,000 attempts; dense targets at small t may simply not exist,
    in which case a larger t (or smaller c) is the fix.
    """
    rng = random.Random(params.seed)
    target = params.target_edges()
    budget = 200 * target + 10_000
    vertices = range(1, params.t + 1)
    edge_set: set[tuple[int, ...]] = set()
    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    attempts = 0
    while len(edge_set) < target:
        if attempts >= budget:
            raise AdderGenerationError(
                f"no {target}-edge locally sparse hypergraph found on t = {params.t} "
                f"vertices within {budget} attempts (s = {params.s}, c = {params.c}); "
                "retry with a larger t or a smaller c"
            )
        attempts += 1
        e = tuple(sorted(rng.sample(vertices, params.r)))
        if e in edge_set:
            continue
        if params.s == params.r:  # r vertices hold at most one edge: nothing to test
            edge_set.add(e)
        else:
            _keep_if_sparse(edge_set, index, e, params.s, params.r)
    return UniformHypergraph(params.r, params.t, sorted(edge_set))


def assemble_gstar(
    base: UniformHypergraph, adder: UniformHypergraph, target_part: Sequence[int]
) -> UniformHypergraph:
    """Inject the adder into ``target_part`` of the base via the
    order-preserving vertex bijection and take the edge union.

    The mapped adder edges must be disjoint from the base edges, so the
    resulting count is exactly |E(base)| + |E(adder)|.
    """
    part = sorted(set(int(v) for v in target_part))
    if part and (part[0] < 1 or part[-1] > base.n):
        raise ValueError(f"target part leaves the vertex range 1..{base.n}")
    if adder.n != len(part):
        raise ValueError(f"adder has {adder.n} vertices, target part has {len(part)}")
    if adder.r != base.r:
        raise ValueError(f"arity mismatch: base r = {base.r}, adder r = {adder.r}")
    # part is increasing, so each mapped row stays sorted
    mapped = np.asarray(part, dtype=np.int64)[adder.edge_array - 1]
    G = UniformHypergraph(base.r, base.n, np.concatenate([base.edge_array, mapped]))
    if G.m < base.m + adder.m:
        clash = set(map(tuple, base.edge_array.tolist())).intersection(map(tuple, mapped.tolist()))
        raise ValueError(f"mapped adder edge {min(clash)} already in the base")
    return G


def construction_metadata(
    kind: str,
    *,
    k: int | None = None,
    t: int | None = None,
    s: int | None = None,
    c: float | None = None,
    seed: int | None = None,
    parts: Iterable[tuple[int, int]] = (),
) -> dict:
    """Sidecar metadata with fixed field names."""
    return {
        "kind": kind,
        "k": k,
        "t": t,
        "s": s,
        "c": c,
        "seed": seed,
        "parts": [[lo, hi] for lo, hi in parts],
    }
