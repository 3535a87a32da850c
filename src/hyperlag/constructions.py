"""Hypergraph families feeding the certification pipelines.

Four kinds of object are built here: the apex family B(2k, n) whose limit
Lagrangian is alpha_k/6; weighted multipartite edge patterns (three parts
with rational weights for the 2/25 bound, 2k+1 parts with exact surd
weights for the alpha_k/6 bound) together with an integer instantiation
policy; locally sparse "adder" hypergraphs that raise the Lagrangian of a
base construction without creating dense small subgraphs; and the assembly
that injects an adder into one part of a base.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Sequence, Union

import numpy as np

from .closedform import Surd
from .hypercore import UniformHypergraph

__all__ = [
    "PartitionPattern",
    "SparseAdderParams",
    "SparsityCheck",
    "AdderGenerationError",
    "build_b2k",
    "build_theorem1_base",
    "theorem1_pattern",
    "theorem1_parts",
    "build_theorem3_pattern",
    "blow_up_pattern",
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
        if self.c <= 0:
            raise ValueError(f"density constant must be positive, got {self.c}")

    def target_edges(self) -> int:
        c = self.c if isinstance(self.c, Fraction) else Fraction(self.c).limit_denominator(10**6)
        return math.ceil(c * self.t ** (self.r - 1))


@dataclass(frozen=True)
class SparsityCheck:
    ok: bool
    witness: tuple[int, ...] | None


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

def build_b2k(k: int, n: int) -> UniformHypergraph:
    """All triples on 1..n meeting {1..2k}; edge count C(n,3) - C(n-2k,3)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 3:
        raise ValueError(f"n must be >= 3, got {n}")
    edges = [e for e in itertools.combinations(range(1, n + 1), 3) if e[0] <= 2 * k]
    return UniformHypergraph(3, n, edges)


def theorem1_pattern() -> PartitionPattern:
    """Three parts weighted 2/5, 2/5, 1/5 with templates (1,1,2), (1,2,3), (2,2,3)."""
    return PartitionPattern(
        r=3,
        part_weights=(Fraction(2, 5), Fraction(2, 5), Fraction(1, 5)),
        templates=((1, 1, 2), (1, 2, 3), (2, 2, 3)),
    )


def theorem1_parts(t: int) -> list[tuple[int, int]]:
    """Block boundaries of the three parts in build_theorem1_base(t)."""
    _require_mult_of_5(t)
    return pattern_parts(theorem1_pattern(), t)


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
    """2k parts of exact weight (2k+1 - sqrt(4k-1))/(4k^2+2) and one apex part
    of weight (k sqrt(4k-1) + 1 - k)/(2k^2+1).

    Templates: all transversal triples among the first 2k parts, every pair
    of them joined with the apex, and every first-block part joined with a
    pair inside the apex.  The weights sum to 1 exactly in surd arithmetic.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    root = Surd.sqrt(4 * k - 1)
    den = 4 * k * k + 2
    small = Fraction(2 * k + 1, den) - Fraction(1, den) * root
    apex = Fraction(1 - k, 2 * k * k + 1) + Fraction(k, 2 * k * k + 1) * root
    templates = [tuple(t) for t in itertools.combinations(range(1, 2 * k + 1), 3)]
    templates += [(i, j, 2 * k + 1) for i, j in itertools.combinations(range(1, 2 * k + 1), 2)]
    templates += [(i, 2 * k + 1, 2 * k + 1) for i in range(1, 2 * k + 1)]
    return PartitionPattern(r=3, part_weights=(small,) * (2 * k) + (apex,), templates=tuple(templates))


def pattern_part_sizes(pattern: PartitionPattern, t: int) -> list[int]:
    """Integer part sizes for t vertices: floors of w_i * t, with the deficit
    handed out by largest fractional remainder (ties to the lowest index)."""
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
    return sizes


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


def blow_up_pattern(pattern: PartitionPattern, sizes: Sequence[int]) -> UniformHypergraph:
    """Expand every template over consecutive parts of the given sizes; the
    graph has sum(sizes) vertices, and a template naming a part more often
    than the part has members contributes no edges."""
    if len(sizes) != pattern.num_parts:
        raise ValueError(f"{len(sizes)} part sizes for {pattern.num_parts} parts")
    members = [range(lo, hi + 1) for lo, hi in _blocks(sizes)]
    flat: list[int] = []
    for template in pattern.templates:
        pools = [itertools.combinations(members[part - 1], need) for part, need in _demand(template)]
        # sum(combo, ()) joins the members drawn from each part into one edge
        flat.extend(itertools.chain.from_iterable(
            map(sum, itertools.product(*pools), itertools.repeat(()))))
    E = np.array(flat, dtype=np.int64).reshape(-1, pattern.r)
    return UniformHypergraph(pattern.r, sum(sizes), E)


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
    return sum(
        math.prod(math.comb(sizes[part - 1], need) for part, need in _demand(template))
        for template in pattern.templates
    )


# ---------------------------------------------------------------------------
# Local sparsity: every V0 with r <= |V0| <= s spans at most |V0| - r + 1 edges
# ---------------------------------------------------------------------------

def check_local_sparsity(A: UniformHypergraph, s: int) -> SparsityCheck:
    """Fast checker via the equivalent edge-subset criterion.

    A violating V0 with v vertices holds at least v - r + 2 >= 2 edges that
    span at most v = (v - r + 2) + r - 2 vertices, and if every connected
    component of an edge set is span-safe the disjoint union is too (it only
    gains vertices).  So it suffices that every *connected* set of m edges,
    2 <= m <= s - r + 2, spans at least m + r - 1 vertices.  Such sets are
    enumerated by exclusive extension from their lowest edge index, each
    carrying its vertex set.  A violating set spans at most m + r - 2 <= s
    vertices and an edge never shrinks the span, so a set is never extended
    by an edge that takes its span past s, nor are its descendants, which
    are supersets.  Every ancestor of a set is a subset, so each set spanning
    at most s is still visited once and in the same order, and the first
    violation (its span is the witness) is the one the unpruned enumeration
    finds.
    """
    if s < A.r:
        raise ValueError(f"s must be >= r = {A.r}, got {s}")
    # at s = r the condition is vacuous: r vertices hold at most one edge
    if s == A.r or A.m < 2:
        return SparsityCheck(True, None)
    max_edges = s - A.r + 2

    edges = [frozenset(e) for e in A.edge_array.tolist()]
    touching: dict[int, set[int]] = {}
    for idx, e in enumerate(edges):
        for v in e:
            touching.setdefault(v, set()).add(idx)
    neighbors = [
        sorted(set().union(*(touching[v] for v in e)) - {idx})
        for idx, e in enumerate(edges)
    ]

    # ``seen``: everything ever placed in an extension list along the path
    for root in range(len(edges)):
        ext0 = [j for j in neighbors[root] if j > root]
        stack = [(edges[root], 1, ext0, {root, *ext0})]
        while stack:
            verts, size, ext, seen = stack.pop()
            if len(verts) <= size + A.r - 2:  # never at size 1: r > r - 1
                return SparsityCheck(False, tuple(sorted(verts)))
            if size == max_edges:
                continue
            ext = [j for j in ext if len(verts | edges[j]) <= s]
            for pos, cand in enumerate(ext):
                fresh = [j for j in neighbors[cand] if j > root and j not in seen]
                stack.append((verts | edges[cand], size + 1, ext[pos + 1:] + fresh,
                              seen | set(fresh)))
    return SparsityCheck(True, None)


def _insertion_violation(
    edge_set: set[tuple[int, ...]], new_edge: tuple[int, ...], t: int, s: int, r: int
) -> tuple[int, ...] | None:
    """A fresh violation after inserting new_edge must contain it, so only
    supersets of the new edge up to size s need scanning."""
    if s <= r:
        return None
    base = set(new_edge)
    others = [v for v in range(1, t + 1) if v not in base]
    for extra in range(1, s - r + 1):
        for added in itertools.combinations(others, extra):
            v0 = sorted(base.union(added))
            count = sum(1 for e in itertools.combinations(v0, r) if e in edge_set)
            if count > extra + 1:  # |v0| - r + 1 edges allowed
                return tuple(v0)
    return None


def generate_sparse_adder(params: SparseAdderParams) -> UniformHypergraph:
    """Seeded add-and-repair: draw a random edge, keep it if no subset of size
    at most s becomes too dense, otherwise drop it; stop at the target count.

    Deterministic given the seed.  Raises AdderGenerationError after
    200 * target + 10,000 attempts; dense targets at small t may simply not exist,
    in which case a larger t (or smaller c) is the fix.
    """
    rng = random.Random(params.seed)
    target = params.target_edges()
    budget = 200 * target + 10_000
    vertices = range(1, params.t + 1)
    edge_set: set[tuple[int, ...]] = set()
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
        edge_set.add(e)
        if _insertion_violation(edge_set, e, params.t, params.s, params.r) is not None:
            edge_set.discard(e)
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
