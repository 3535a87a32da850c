"""Simplex maximization, lattice oracle, stationarity, symmetry classes, quotient."""

import itertools
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hyperlag.closedform import alpha_k, to_json
from hyperlag.constructions import (
    PartitionPattern,
    blow_up_pattern,
    build_b2k,
    build_theorem1_base,
    build_theorem3_pattern,
    instantiate_pattern,
)
from hyperlag.hypercore import (
    UniformHypergraph,
    WeightVector,
    density,
    lagrangian_value,
    link_difference,
)
from hyperlag.optimize import (
    OptimizerConfig,
    _edge_array,
    grid_oracle,
    maximize_lagrangian,
    project_to_simplex,
    quotient,
    symmetry_reduce,
    verify_stationarity,
)


def complete3(n):
    return UniformHypergraph(3, n, itertools.combinations(range(1, n + 1), 3))


def random_graph(rng, n_lo=3, n_hi=6):
    n = rng.randint(n_lo, n_hi)
    pool = list(itertools.combinations(range(1, n + 1), 3))
    return UniformHypergraph(3, n, rng.sample(pool, rng.randint(1, len(pool))))


def blow_up(G, sizes):
    """Vertex i of G becomes a class of sizes[i-1] twins, in consecutive blocks."""
    return blow_up_pattern(PartitionPattern(G.r, (F(1, G.n),) * G.n, G.edges), sizes)


CFG = OptimizerConfig(restarts=8, max_iters=400, seed=5)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0)


def test_projection_properties():
    rng = np.random.default_rng(0)
    for _ in range(200):
        v = rng.normal(size=rng.integers(1, 9))
        p = project_to_simplex(v)
        assert p.min() >= 0
        assert abs(p.sum() - 1) < 1e-12


def test_single_edge_optimum():
    res = maximize_lagrangian(UniformHypergraph(3, 3, [(1, 2, 3)]), CFG)
    assert res.value == pytest.approx(1 / 27, abs=1e-9)
    assert res.argmax.weights == pytest.approx((1 / 3,) * 3, abs=1e-6)


def test_complete5_optimum():
    res = maximize_lagrangian(complete3(5), CFG)
    assert res.value == pytest.approx(2 / 25, abs=1e-9)
    assert res.support == (1, 2, 3, 4, 5)
    assert res.stationarity_residual <= 1e-6


def test_empty_graph_returns_zero_uniform():
    res = maximize_lagrangian(UniformHypergraph(3, 4, []), CFG)
    assert res.value == 0.0
    assert res.argmax.weights == pytest.approx((0.25,) * 4)


def test_b2_family_increases_toward_limit():
    limit = float(alpha_k(1)) / 6
    values = [maximize_lagrangian(build_b2k(1, n), CFG).value for n in (10, 15, 20)]
    assert values[0] < values[1] < values[2] < limit + 1e-9
    # independent lattice cross-check at a size the oracle can afford
    G6 = build_b2k(1, 6)
    assert maximize_lagrangian(G6, CFG).value >= float(grid_oracle(G6, 30)) - 1e-9


def test_determinism():
    G = random_graph(random.Random(1))
    a = maximize_lagrangian(G, CFG)
    b = maximize_lagrangian(G, CFG)
    assert a.value == b.value
    assert a.argmax.weights == b.argmax.weights


def test_value_consistent_with_argmax():
    rng = random.Random(13)
    for _ in range(8):
        G = random_graph(rng)
        res = maximize_lagrangian(G, CFG)
        assert res.value == pytest.approx(lagrangian_value(G, res.argmax), abs=1e-12)


def test_uniform_lower_bound_chain():
    G = build_theorem1_base(25)
    res = maximize_lagrangian(G, CFG)
    uniform = lagrangian_value(G, WeightVector.uniform(G.n))
    d = float(density(G))
    assert res.value >= uniform - 1e-12
    assert uniform >= d / 6 - d / (2 * G.n) - 1e-15


# ---------------------------------------------------------------------------
# grid oracle
# ---------------------------------------------------------------------------

def test_oracle_known_values():
    assert grid_oracle(UniformHypergraph(3, 3, [(1, 2, 3)]), 3) == F(1, 27)
    assert grid_oracle(complete3(4), 4) == F(1, 16)
    assert grid_oracle(UniformHypergraph(3, 5, []), 10) == 0


def test_oracle_guard():
    big = UniformHypergraph(3, 9, [(1, 2, 3)])
    with pytest.raises(ValueError):
        grid_oracle(big, 5)
    assert grid_oracle(big, 5, allow_large=True) > 0


def test_oracle_vs_optimizer_on_random_graphs():
    rng = random.Random(77)
    for _ in range(15):
        G = random_graph(rng)
        value = maximize_lagrangian(G, CFG).value
        oracle = float(grid_oracle(G, 30))
        # proven gap: lambda <= N^3 / (N)_3 * oracle at N = 30
        assert oracle - 1e-9 <= value <= oracle * 30**3 / (30 * 29 * 28) + 1e-9


# ---------------------------------------------------------------------------
# stationarity
# ---------------------------------------------------------------------------

def test_stationarity_uniform_single_edge():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    rep = verify_stationarity(G, WeightVector.uniform(3), 1e-12)
    assert rep.residual == pytest.approx(0.0, abs=1e-15)
    assert rep.passed


def test_stationarity_complete5_uniform():
    rep = verify_stationarity(complete3(5), WeightVector.uniform(5), 1e-12)
    # each vertex sees 6 edges of weight 1/25 apiece; 6/25 = 3 * (2/25)
    assert rep.value == pytest.approx(2 / 25)
    assert rep.residual <= 1e-15


def test_stationarity_flags_non_optimum():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    rep = verify_stationarity(G, WeightVector((0.5, 0.25, 0.25)), 1e-9)
    assert rep.residual > 1e-3
    assert not rep.passed


def test_converged_flag_reports_the_tolerance_check():
    # the backtracking line search stalls above 1e-9 on the t1 base at t = 30
    res = maximize_lagrangian(build_theorem1_base(30))
    assert res.stationarity_residual > 1e-9
    assert res.converged is False
    assert to_json(res)["converged"] is False
    res = maximize_lagrangian(complete3(5))
    assert res.stationarity_residual <= 1e-9
    assert res.converged is True
    assert to_json(res)["converged"] is True


def test_stationarity_at_every_reported_argmax():
    rng = random.Random(101)
    for _ in range(10):
        G = random_graph(rng)
        res = maximize_lagrangian(G, CFG)
        assert verify_stationarity(G, res.argmax, 1e-6).passed


# ---------------------------------------------------------------------------
# symmetry classes and structural facts
# ---------------------------------------------------------------------------

def test_symmetry_classes():
    assert symmetry_reduce(complete3(5)) == [[1, 2, 3, 4, 5]]
    assert symmetry_reduce(UniformHypergraph(3, 4, [(1, 2, 3)])) == [[1, 2, 3], [4]]
    classes = symmetry_reduce(build_theorem1_base(25))
    assert [len(c) for c in classes] == [10, 10, 5]
    assert classes[0] == list(range(1, 11))


def brute_link_difference(G, j, i):
    """Reference: scan every edge for the link difference L(j \\ i)."""
    out = set()
    for edge in G.edges:
        rest = tuple(v for v in edge if v != j)
        if len(rest) < len(edge) and i not in rest and not G.has_edge(rest + (i,)):
            out.add(rest)
    return frozenset(out)


def union_find_classes(G):
    """Reference: the transitive closure of "both link differences empty" over
    all vertex pairs."""
    parent = list(range(G.n + 1))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i, j in itertools.combinations(range(1, G.n + 1), 2):
        if not brute_link_difference(G, i, j) and not brute_link_difference(G, j, i):
            parent[find(j)] = find(i)
    groups = {}
    for v in range(1, G.n + 1):
        groups.setdefault(find(v), []).append(v)
    return sorted(groups.values(), key=lambda cls: cls[0])


def twin_test_graphs():
    rng = random.Random(404)
    for r in (2, 3, 4):
        for _ in range(12):
            n = rng.randint(r, 7)
            pool = list(itertools.combinations(range(1, n + 1), r))
            G = UniformHypergraph(r, n, rng.sample(pool, rng.randint(0, len(pool))))
            yield G
            yield blow_up(G, [rng.randint(1, 3) for _ in range(n)])


def test_symmetry_reduce_matches_all_pairs_closure():
    with_twins = 0
    for G in twin_test_graphs():
        classes = symmetry_reduce(G)
        assert classes == union_find_classes(G)
        with_twins += len(classes) < G.n
        for cls in classes:
            for u, v in itertools.combinations(cls, 2):
                swap = {u: v, v: u}
                image = {tuple(sorted(swap.get(w, w) for w in e)) for e in G.edges}
                assert image == G.edge_set
    assert with_twins >= 36  # keeps the twin case covered if the seed changes


def test_link_difference_matches_edge_scan():
    for G in twin_test_graphs():
        for j, i in itertools.permutations(range(1, G.n + 1), 2):
            assert link_difference(G, j, i) == brute_link_difference(G, j, i)


def test_blowup_invariance_of_maximum():
    rng = random.Random(55)
    for _ in range(6):
        G = random_graph(rng)
        m = rng.choice([2, 3])
        B = blow_up(G, [m] * G.n)
        cfg = OptimizerConfig(restarts=10, max_iters=400, seed=7)
        assert maximize_lagrangian(B, cfg).value == pytest.approx(
            maximize_lagrangian(G, cfg).value, abs=2e-6)


# ---------------------------------------------------------------------------
# twin-class quotient
# ---------------------------------------------------------------------------

def lift(y, sizes, owner):
    """Spread each class weight y_c evenly over the n_c members of class c."""
    return (np.asarray(y) / sizes)[owner]


def test_quotient_blows_up_to_the_class_block_relabeling():
    for G in twin_test_graphs():
        T, coef, sizes, owner = quotient(G)
        assert owner.shape == (G.n,) and np.bincount(owner).tolist() == sizes.tolist()
        assert (np.sort(T, axis=1) == T).all()
        # relabel so that class c is the c-th consecutive block of vertices
        order = np.lexsort((np.arange(G.n), owner))
        new = np.empty(G.n, dtype=np.int64)
        new[order] = np.arange(1, G.n + 1)
        relabeled = UniformHypergraph(G.r, G.n, [[int(new[v - 1]) for v in e] for e in G.edges])
        k = sizes.size
        pattern = PartitionPattern(G.r, (F(1, k),) * k, [tuple(int(c) + 1 for c in t) for t in T])
        assert blow_up_pattern(pattern, sizes.tolist()).edges == relabeled.edges


def test_quotient_polynomial_is_the_lagrangian_at_the_lift():
    rng = np.random.default_rng(9)
    for G in twin_test_graphs():
        T, coef, sizes, owner = quotient(G)
        for _ in range(3):
            y = rng.dirichlet(np.ones(sizes.size))
            P = float((coef * y[T].prod(axis=1)).sum())
            assert P == pytest.approx(lagrangian_value(G, lift(y, sizes, owner).tolist()), abs=1e-14)


def test_quotient_of_a_twin_free_graph_is_the_graph():
    twin_free = 0
    for G in twin_test_graphs():
        T, coef, sizes, owner = quotient(G)
        if sizes.size < G.n:
            continue
        twin_free += 1
        assert np.array_equal(T, _edge_array(G))
        assert (coef == 1.0).all()
        assert owner.tolist() == list(range(G.n))
    assert twin_free >= 5


def test_argmax_is_constant_on_twin_classes():
    for G in (build_theorem1_base(30), instantiate_pattern(build_theorem3_pattern(2), 35)):
        res = maximize_lagrangian(G)
        uniform = lagrangian_value(G, WeightVector.uniform(G.n))
        assert res.value >= uniform
        for cls in symmetry_reduce(G):
            assert len({res.argmax[v - 1] for v in cls}) == 1


def test_edge_addition_monotone():
    rng = random.Random(61)
    for _ in range(10):
        n = rng.randint(4, 6)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        edges = rng.sample(pool, rng.randint(1, len(pool) - 1))
        G1 = UniformHypergraph(3, n, edges)
        extra = rng.choice([e for e in pool if e not in G1.edge_set])
        G2 = G1.with_edges([extra])
        assert maximize_lagrangian(G2, CFG).value >= maximize_lagrangian(G1, CFG).value - 1e-9


def test_lattice_chunking_matches_dense():
    from hyperlag.optimize import _compositions, iter_lattice

    dense = _compositions(4, 8)
    chunked = np.vstack(list(iter_lattice(4, 8, cap=20)))
    assert dense.shape == chunked.shape
    assert set(map(tuple, dense.tolist())) == set(map(tuple, chunked.tolist()))
    assert set(chunked.sum(axis=1).tolist()) == {8}
