"""Construction families, pattern instantiation, sparsity checking, adders."""

import itertools
import math
import random
from fractions import Fraction as F

import pytest

from hyperlag.closedform import Surd, theorem3_c0
from hyperlag.constructions import (
    AdderGenerationError,
    PartitionPattern,
    SparseAdderParams,
    SparsityCheck,
    assemble_gstar,
    build_b2k,
    build_theorem1_base,
    build_theorem3_pattern,
    check_local_sparsity,
    construction_metadata,
    generate_sparse_adder,
    instantiate_pattern,
    pattern_edge_count,
    pattern_part_sizes,
    pattern_parts,
    theorem1_parts,
    theorem1_pattern,
)
from hyperlag.hypercore import UniformHypergraph, lagrangian_value
from reference import check_local_sparsity_naive, edges, unconstrained_adder_reference


# ---------------------------------------------------------------------------
# B(2k, n)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,n,count", [(1, 6, 16), (2, 4, 4), (1, 3, 1)])
def test_b2k_known_counts(k, n, count):
    assert build_b2k(k, n).m == count


def test_b2k_count_identity():
    for k in (1, 2, 3):
        for n in range(3, 12):
            expected = math.comb(n, 3) - math.comb(max(n - 2 * k, 0), 3)
            assert build_b2k(k, n).m == expected
    with pytest.raises(ValueError):
        build_b2k(1, 2)


# ---------------------------------------------------------------------------
# three-part base
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("t", [10, 15, 20, 25, 50])
def test_theorem1_count_polynomial(t):
    assert build_theorem1_base(t).m == (2 * t**3 - 3 * t**2) // 25


def test_theorem1_divisibility_enforced():
    for bad in (12, 5, 26):
        with pytest.raises(ValueError):
            build_theorem1_base(bad)


def test_theorem1_uniform_weight_value():
    G = build_theorem1_base(25)
    val = lagrangian_value(G, [F(1, 25)] * 25)
    assert val == F(1175, 25**3) == F(2, 25) - F(3, 625)


def test_theorem1_pattern_matches_direct_build():
    for t in (10, 25):
        assert instantiate_pattern(theorem1_pattern(), t) == build_theorem1_base(t)
    assert theorem1_parts(25) == [(1, 10), (11, 20), (21, 25)]


# ---------------------------------------------------------------------------
# (2k+1)-part pattern
# ---------------------------------------------------------------------------

def test_pattern_k2_weights_and_templates():
    p = build_theorem3_pattern(2)
    assert p.num_parts == 5
    assert p.part_weights[0] == Surd(F(5, 18), F(-1, 18), 7)
    assert p.part_weights[4] == Surd(F(-1, 9), F(2, 9), 7)
    assert len(p.templates) == 14  # C(4,3) + C(4,2) + 4


@pytest.mark.parametrize("k", range(2, 11))
def test_pattern_weights_sum_to_one_exactly(k):
    p = build_theorem3_pattern(k)
    total = sum(p.part_weights, start=Surd(F(0)))
    assert total == 1
    transversal = [t for t in p.templates if t[-1] <= 2 * k]
    assert len(transversal) == math.comb(2 * k, 3)


def test_pattern_validation():
    with pytest.raises(ValueError):
        PartitionPattern(3, (F(1, 2), F(1, 4)), ((1, 1, 2),))  # sums to 3/4
    with pytest.raises(ValueError):
        PartitionPattern(3, (F(1, 2), F(1, 2)), ((1, 2),))     # wrong multiplicity
    with pytest.raises(ValueError):
        PartitionPattern(3, (F(1),), ((1, 1, 2),))             # unknown part


def test_part_sizes_largest_remainder():
    assert pattern_part_sizes(theorem1_pattern(), 25) == [10, 10, 5]
    p = build_theorem3_pattern(2)
    sizes = pattern_part_sizes(p, 100)
    assert sum(sizes) == 100
    sizes1000 = pattern_part_sizes(p, 1000)
    ideal = 1000 * (5 - math.sqrt(7)) / 18
    assert all(abs(s - ideal) < 1 + 1e-9 for s in sizes1000[:4])
    rng = random.Random(8)
    for _ in range(20):
        t = rng.randint(5, 400)
        assert sum(pattern_part_sizes(p, t)) == t


def test_instantiate_rejects_undersized_parts():
    p = build_theorem3_pattern(2)
    with pytest.raises(ValueError):
        instantiate_pattern(p, 5)   # one first-block part rounds to size 0
    with pytest.raises(ValueError):
        instantiate_pattern(p, 4)   # fewer vertices than parts


def test_instantiated_pattern_edge_count():
    p = build_theorem3_pattern(2)
    G = instantiate_pattern(p, 60)
    n1, n2, n3, n4, n5 = pattern_part_sizes(p, 60)
    sizes = [n1, n2, n3, n4]
    expected = 0
    for a, b, c in itertools.combinations(sizes, 3):
        expected += a * b * c
    for a, b in itertools.combinations(sizes, 2):
        expected += a * b * n5
    expected += sum(sizes) * math.comb(n5, 2)
    assert G.m == expected
    blocks = pattern_parts(p, 60)
    assert blocks[-1][1] == 60


@pytest.mark.parametrize("t", range(10, 51))
def test_pattern_edge_count_theorem1(t):
    p = theorem1_pattern()
    assert pattern_edge_count(p, t) == instantiate_pattern(p, t).m


@pytest.mark.parametrize("k,ts", [(2, (13, 29, 41, 60, 77, 83)),
                                  (3, (23, 37, 50, 70, 91))])
def test_pattern_edge_count_theorem3(k, ts):
    p = build_theorem3_pattern(k)
    floors = set()
    for t in ts:
        assert pattern_edge_count(p, t) == instantiate_pattern(p, t).m
        sizes = pattern_part_sizes(p, t)
        floors.add(tuple(s - math.floor(w * t) for s, w in zip(sizes, p.part_weights)))
    # the rounding hands the deficit to different parts across these t
    assert len(floors) > 1


def test_pattern_edge_count_rejects_undersized_parts():
    p = build_theorem3_pattern(2)
    for t in (5, 4):
        with pytest.raises(ValueError) as counted:
            pattern_edge_count(p, t)
        with pytest.raises(ValueError) as built:
            instantiate_pattern(p, t)
        assert str(counted.value) == str(built.value)


# ---------------------------------------------------------------------------
# local sparsity
# ---------------------------------------------------------------------------

def check_local_sparsity_unpruned(A, s):
    """The exclusive-extension enumeration without the span cap: every
    connected set of at most s - r + 2 edges, rebuilding each set's span.
    The reference for the order of the pruned checker, hence its witness."""
    if s < A.r:
        raise ValueError(f"s must be >= r = {A.r}, got {s}")
    if s == A.r or A.m < 2:
        return SparsityCheck(True, None)
    max_edges = s - A.r + 2
    rows = edges(A)
    touching = {}
    for idx, e in enumerate(rows):
        for v in e:
            touching.setdefault(v, set()).add(idx)
    neighbors = [
        sorted(set().union(*(touching[v] for v in e)) - {idx})
        for idx, e in enumerate(rows)
    ]
    for root in range(len(rows)):
        ext0 = [j for j in neighbors[root] if j > root]
        stack = [([root], ext0, {root, *ext0})]
        while stack:
            subset, ext, seen = stack.pop()
            verts = set().union(*(rows[idx] for idx in subset))
            if len(subset) >= 2 and len(verts) <= len(subset) + A.r - 2:
                return SparsityCheck(False, tuple(sorted(verts)))
            if len(subset) == max_edges:
                continue
            for pos, cand in enumerate(ext):
                fresh = [j for j in neighbors[cand] if j > root and j not in seen]
                stack.append((subset + [cand], ext[pos + 1:] + fresh, seen | set(fresh)))
    return SparsityCheck(True, None)


def edges_inside(A, vertices):
    inside = set(vertices)
    return sum(1 for e in edges(A) if inside.issuperset(e))


def test_sparsity_counterexample_with_witness():
    bad = UniformHypergraph(3, 4, [(1, 2, 3), (1, 2, 4), (1, 3, 4)])
    chk = check_local_sparsity(bad, 4)
    assert not chk.ok and chk.witness == (1, 2, 3, 4)
    naive = check_local_sparsity_naive(bad, 4)
    assert not naive.ok and naive.witness == (1, 2, 3, 4)


def test_sparsity_partial_steiner_passes():
    # pairwise intersections <= 1 force m edges to span >= m + 2 vertices,
    # an argument valid for the m <= 5 subsets that s <= 6 inspects
    fano = UniformHypergraph(
        3, 7,
        [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)])
    for s in (4, 5, 6):
        assert check_local_sparsity(fano, s).ok
    # at s = 7 the full plane itself is the violation: 7 edges in 7 vertices > 5
    chk = check_local_sparsity(fano, 7)
    assert not chk.ok and chk.witness == tuple(range(1, 8))
    assert not check_local_sparsity_naive(fano, 7).ok


def test_sparsity_trivial_cases():
    single = UniformHypergraph(3, 6, [(1, 2, 3)])
    assert check_local_sparsity(single, 6).ok
    # s = r only rules out duplicate edges, which the type already forbids
    dense = UniformHypergraph(3, 5, itertools.combinations(range(1, 6), 3))
    assert check_local_sparsity(dense, 3).ok
    for r in (2, 3, 4):
        complete = UniformHypergraph(r, 7, itertools.combinations(range(1, 8), r))
        assert (check_local_sparsity(complete, r) == check_local_sparsity_naive(complete, r)
                == SparsityCheck(True, None))
    with pytest.raises(ValueError):
        check_local_sparsity(single, 2)


def test_fast_checker_agrees_with_naive():
    rng = random.Random(99)
    for _ in range(30):
        t = rng.randint(4, 12)
        s = rng.randint(3, 6)
        pool = list(itertools.combinations(range(1, t + 1), 3))
        m = rng.randint(0, min(len(pool), 3 * t))
        A = UniformHypergraph(3, t, rng.sample(pool, m))
        fast, naive = check_local_sparsity(A, s), check_local_sparsity_naive(A, s)
        assert fast.ok == naive.ok
        if not fast.ok:
            inside = set(fast.witness)
            hits = sum(1 for e in edges(A) if inside.issuperset(e))
            assert hits > len(inside) - 2


def random_sparsity_cases(seed, count):
    """Seeded small graphs, r in {2, 3, 4} and s from r to r + 3."""
    rng = random.Random(seed)
    for _ in range(count):
        r = rng.choice((2, 3, 4))
        s = rng.randint(r, r + 3)
        t = rng.randint(r + 1, 9)
        pool = list(itertools.combinations(range(1, t + 1), r))
        m = rng.randint(0, min(len(pool), 2 * t))
        yield UniformHypergraph(r, t, rng.sample(pool, m)), s


def test_checker_matches_naive_and_unpruned_for_r2_to_r4():
    failures = 0
    for A, s in random_sparsity_cases(2024, 240):
        fast = check_local_sparsity(A, s)
        assert fast.ok == check_local_sparsity_naive(A, s).ok
        assert fast == check_local_sparsity_unpruned(A, s)
        if not fast.ok:
            failures += 1
            assert len(fast.witness) <= s
            assert edges_inside(A, fast.witness) > len(fast.witness) - A.r + 1
    assert 40 < failures < 200  # both verdicts are exercised


def test_checker_scales_to_a_1440_edge_adder_with_a_planted_violation():
    # the unpruned enumeration needs minutes here; the span cap, well under 1 s
    A = generate_sparse_adder(SparseAdderParams(s=4, c=0.1, t=120, seed=0))
    assert A.m == 1440
    assert check_local_sparsity(A, 4) == SparsityCheck(True, None)
    # {x, y, z} plus {x, y, w} and {x, z, w}: 3 edges on 4 = s vertices, 2 allowed
    x, y, z = edges(A)[0]
    w = next(v for v in range(1, A.n + 1) if v not in (x, y, z))
    planted = {(x, y, z), tuple(sorted((x, y, w))), tuple(sorted((x, z, w)))}
    B = UniformHypergraph(3, A.n, set(edges(A)) | planted)
    assert B.m > A.m
    chk = check_local_sparsity(B, 4)
    assert not chk.ok and len(chk.witness) <= 4
    assert edges_inside(B, chk.witness) > len(chk.witness) - 2


# ---------------------------------------------------------------------------
# adder generation and assembly
# ---------------------------------------------------------------------------

def test_generate_sparse_adder_desk_scale():
    params = SparseAdderParams(s=4, c=0.1, t=30, seed=7)
    A = generate_sparse_adder(params)
    assert A.m >= 90
    assert check_local_sparsity(A, 4).ok
    assert generate_sparse_adder(params) == A  # deterministic


def test_generate_s3_is_unconstrained():
    A = generate_sparse_adder(SparseAdderParams(s=3, c=1.0, t=10, seed=2))
    assert A.m == 100


@pytest.mark.parametrize("r, t, c, seed", [
    (3, 10, 1.0, 2), (3, 57, 1.0, 0), (2, 12, 0.5, 1), (4, 9, 0.1, 3)])
def test_adder_at_s_equal_r_keeps_the_first_distinct_draws(r, t, c, seed):
    params = SparseAdderParams(s=r, c=c, t=t, r=r, seed=seed)
    A = generate_sparse_adder(params)
    assert A == unconstrained_adder_reference(t, r, params.target_edges(), seed)


def test_generate_failure_advises_larger_t():
    with pytest.raises(AdderGenerationError, match="larger t"):
        generate_sparse_adder(SparseAdderParams(s=4, c=10, t=4, seed=1))


def test_assemble_gstar_counts():
    base = build_theorem1_base(25)
    lo, hi = theorem1_parts(25)[0]
    v1 = list(range(lo, hi + 1))
    adder = UniformHypergraph(3, 10, list(itertools.combinations(range(1, 11), 3))[:100])
    G = assemble_gstar(base, adder, v1)
    assert G.m == base.m + 100
    assert set(edges(base)).issubset(edges(G))
    assert lagrangian_value(G, [F(1, 25)] * 25) == F(2, 25) + F(1, 625)
    # empty adder leaves the base untouched
    assert assemble_gstar(base, UniformHypergraph(3, 10, []), v1) == base


def test_assemble_gstar_errors():
    base = build_theorem1_base(10)
    with pytest.raises(ValueError, match="vertices"):
        assemble_gstar(base, UniformHypergraph(3, 3, [(1, 2, 3)]), [1, 2, 3, 4])
    clash = UniformHypergraph(3, 10, [(1, 2, 5)])   # maps onto the base edge (1, 2, 13)
    with pytest.raises(ValueError, match=r"edge \(1, 2, 13\) already"):
        assemble_gstar(build_theorem1_base(25), clash,
                       [1, 2, 11, 12, 13, 14, 15, 16, 17, 21])


def test_assemble_gstar_names_the_smallest_clash():
    # the adder rows (1, 2, 4) and (2, 3, 4) map onto base edges, (1, 3, 4) does not
    base = UniformHypergraph(3, 6, [(1, 2, 3), (2, 4, 6), (3, 5, 6), (4, 5, 6)])
    adder = UniformHypergraph(3, 4, [(2, 3, 4), (1, 3, 4), (1, 2, 4)])
    with pytest.raises(ValueError, match=r"^mapped adder edge \(2, 4, 6\) already in the base$"):
        assemble_gstar(base, adder, [2, 4, 5, 6])


def test_metadata_fixed_fields():
    meta = construction_metadata("theorem1", t=25, parts=theorem1_parts(25))
    assert list(meta) == ["kind", "k", "t", "s", "c", "seed", "parts"]
    assert meta["parts"] == [[1, 10], [11, 20], [21, 25]]


def test_c0_positive_for_small_k():
    for k in range(2, 8):
        assert theorem3_c0(k).sign() > 0
