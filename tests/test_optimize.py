"""Simplex maximization, the Bernstein upper bound, stationarity, symmetry classes, quotient."""

import itertools
import math
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from hyperlag import certify
from hyperlag.certify import _complex_step
from hyperlag.closedform import alpha_k, theorem1_bound_poly, to_json
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
    lagrangian_value,
    link_difference,
)
from hyperlag.optimize import (
    _ARMIJO,
    _LATTICE_CAP,
    STOP_REASONS,
    OptimizerConfig,
    _ascend,
    _compositions,
    _gradient,
    _kkt_residuals,
    _starting_points,
    _value,
    bernstein_bound,
    iter_lattice,
    maximize_lagrangian,
    project_to_simplex,
    quotient,
    symmetry_reduce,
    verify_stationarity,
)
from reference import (
    bernstein_bound_reference,
    brute_link_difference,
    density,
    edges,
    grid_oracle_reference,
)


def complete3(n):
    return UniformHypergraph(3, n, itertools.combinations(range(1, n + 1), 3))


def random_graph(rng, n_lo=3, n_hi=6):
    n = rng.randint(n_lo, n_hi)
    pool = list(itertools.combinations(range(1, n + 1), 3))
    return UniformHypergraph(3, n, rng.sample(pool, rng.randint(1, len(pool))))


def blow_up(G, sizes):
    """Vertex i of G becomes a class of sizes[i-1] twins, in consecutive blocks."""
    return blow_up_pattern(PartitionPattern(G.r, (F(1, G.n),) * G.n, edges(G)), sizes)


CFG = OptimizerConfig(restarts=8, max_iters=400, seed=5)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(restarts=0)
    with pytest.raises(ValueError):
        OptimizerConfig(tolerance=0)
    with pytest.raises(ValueError, match="max_iters"):
        OptimizerConfig(max_iters=-1)
    assert OptimizerConfig(max_iters=0).max_iters == 0


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
    # independent cross-checks at a size the Fraction lattice can afford:
    # above the best lattice point, below the exact Bernstein bound
    G6 = build_b2k(1, 6)
    value = maximize_lagrangian(G6, CFG).value
    assert float(grid_oracle_reference(G6, 10)) - 1e-9 <= value <= float(bernstein_bound(G6, 30)) + 1e-9


def test_determinism():
    G = random_graph(random.Random(1))
    a = maximize_lagrangian(G, CFG)
    b = maximize_lagrangian(G, CFG)
    assert a.value == b.value
    assert a.argmax.weights == b.argmax.weights


def test_starting_points_on_a_graph_with_twins():
    _, _, sizes, owner = quotient(build_theorem1_base(10))
    k, n = sizes.size, owner.size
    starts = _starting_points(sizes, owner, OptimizerConfig(seed=0))
    assert starts.shape == (12, n) and k + 1 < 12  # some rows are Dirichlet draws
    assert (starts >= 0).all()
    assert np.abs(starts.sum(axis=1) - 1).max() <= 1e-12
    assert np.array_equal(starts, _starting_points(sizes, owner, OptimizerConfig(seed=0)))
    # the uniform vector, then uniform on each twin class in class order
    assert np.array_equal(starts[0], np.full(n, 1.0 / n))
    for c in range(k):
        assert np.array_equal(starts[c + 1], np.where(owner == c, 1.0 / sizes[c], 0.0))
    other = _starting_points(sizes, owner, OptimizerConfig(seed=5))
    assert np.array_equal(other[: k + 1], starts[: k + 1])
    assert all((other[i] != starts[i]).any() for i in range(k + 1, 12))


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
# the Bernstein upper bound
# ---------------------------------------------------------------------------

def complete(r, n):
    return UniformHypergraph(r, n, itertools.combinations(range(1, n + 1), r))


def test_bernstein_bound_known_values():
    # K_n^r is one twin class, so every degree gives its Lagrangian C(n, r)/n^r
    for r in (2, 3, 4):
        for n in range(r, 9):
            for d in [*range(r, r + 6), 30]:
                assert bernstein_bound(complete(r, n), d) == F(math.comb(n, r), n**r)
    assert bernstein_bound(UniformHypergraph(3, 3, [(1, 2, 3)]), 3) == F(1, 27)
    assert bernstein_bound(complete3(4), 4) == F(1, 16)
    assert bernstein_bound(complete3(8), 3) == bernstein_bound(complete3(8), 16) == F(7, 64)
    # d^3 is past int64 here: every score is a Python int
    assert bernstein_bound(complete3(8), 10**7) == F(7, 64)
    for r in (2, 3, 4):
        assert bernstein_bound(UniformHypergraph(r, 5, []), 10) == 0


def test_bernstein_bound_guard():
    # nine vertices, two classes: the class lattice alone decides
    big = UniformHypergraph(3, 9, [(1, 2, 3)])
    assert bernstein_bound(big, 5) == F(1, 27)
    with pytest.raises(ValueError, match="degree d must be >= r = 3, got 2"):
        bernstein_bound(big, 2)
    with pytest.raises(ValueError, match="degree d must be >= r = 3, got 2"):
        bernstein_bound(UniformHypergraph(3, 4, []), 2)
    # a twin-free path on 12 vertices: C(111, 11), about 4.7e14 class points,
    # refused before any scoring
    path = UniformHypergraph(3, 12, [(v, v + 1, v + 2) for v in range(1, 11)])
    assert quotient(path)[2].size == 12
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lattice points"):
        bernstein_bound(path, 100)
    assert time.perf_counter() - start < 1.0


def bound_test_graphs(seed):
    """Random r-graphs on r + 1 to 6 vertices, r = 2, 3, 4, with a third to
    two thirds of the r-sets, so that many are twin-free; each is also blown
    up with two of its parts doubled, which gives it twins."""
    rng = random.Random(seed)
    for r in (2, 3, 4):
        for _ in range(6):
            n = rng.randint(r + 1, 6)
            pool = list(itertools.combinations(range(1, n + 1), r))
            G = UniformHypergraph(r, n, rng.sample(pool, rng.randint(len(pool) // 3, 2 * len(pool) // 3)))
            yield G
            doubled = rng.sample(range(n), 2)
            yield blow_up(G, [1 + (v in doubled) for v in range(n)])


def test_bernstein_bound_is_at_most_the_vertex_lattice_bound():
    twin_free = strict = 0
    for G in bound_test_graphs(23):
        free = quotient(G)[2].size == G.n
        twin_free += free
        for d in (G.r, G.r + 1):
            vertex = F(d**G.r, math.perm(d, G.r)) * grid_oracle_reference(G, d)
            bound = bernstein_bound(G, d)
            assert bound == vertex if free else bound <= vertex
            strict += bound < vertex
    assert twin_free >= 4 and strict >= 10


def test_bernstein_bound_is_at_least_the_ascent_value():
    cfg = OptimizerConfig(restarts=6, max_iters=400, seed=2)
    for G in bound_test_graphs(31):
        value = maximize_lagrangian(G, cfg).value
        for d in (G.r, G.r + 1, 12):
            assert float(bernstein_bound(G, d)) >= value - 1e-12
    # the profile graphs the certificates bound, at the first degree tried
    for kind, k, s in (("t1", None, 6), ("t3", 2, 5)):
        pattern, part, _ = certify.family(kind, k)
        for profile in certify._profiles(pattern, part, s):
            G = certify._profile_graph(pattern, part, profile)
            if G.m:
                value = maximize_lagrangian(G, cfg).value
                assert float(bernstein_bound(G, 6)) >= value - 1e-12


def test_oracle_vs_optimizer_on_random_graphs():
    rng = random.Random(77)
    for _ in range(15):
        G = random_graph(rng)
        value = maximize_lagrangian(G, CFG).value
        # the best lattice point at N = 6 is a value of lambda; the Bernstein
        # coefficients at d = 30 bound it from above
        assert float(grid_oracle_reference(G, 6)) - 1e-9 <= value <= float(bernstein_bound(G, 30)) + 1e-9


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


# 1 and 2 meet every other vertex in one edge each, so their codegrees agree,
# but no edge through 1 swaps onto an edge through 2: near-twins, not twins
NEAR_TWINS = UniformHypergraph(3, 6, [(1, 3, 4), (1, 5, 6), (2, 3, 5), (2, 4, 6)])


def twin_test_graphs():
    yield NEAR_TWINS
    yield blow_up(NEAR_TWINS, [2, 2, 1, 3, 1, 2])
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
                image = {tuple(sorted(swap.get(w, w) for w in e)) for e in edges(G)}
                assert image == set(edges(G))
    assert with_twins >= 36  # keeps the twin case covered if the seed changes


def test_near_twins_pass_the_codegree_test_and_fail_the_confirmation(monkeypatch):
    calls = count_calls(monkeypatch, "link_difference")
    assert symmetry_reduce(NEAR_TWINS) == [[v] for v in range(1, 7)]
    assert [a[1:] for a in calls] == [(1, 2), (4, 5), (3, 6)]


@pytest.mark.parametrize("build,confirmations", [
    (lambda: UniformHypergraph(3, 60, random.Random("0:60:10000").sample(
        list(itertools.combinations(range(1, 61), 3)), 10_000)), 0),
    (lambda: build_theorem1_base(30), 27),
    (lambda: instantiate_pattern(build_theorem3_pattern(2), 35), 30),
], ids=["random_0_60_10000", "t1_base_30", "t3_k2_35"])
def test_twin_search_confirms_only_twins(monkeypatch, build, confirmations):
    # every pair that passes the codegree test is a pair of twins here, so
    # each vertex that joins a class costs one confirmation and no other
    # vertex costs any; comparing with every class of equal degree made 29,
    # 39 and 39 calls
    G = build()
    calls = count_calls(monkeypatch, "link_difference")
    classes = symmetry_reduce(G)
    assert len(calls) == G.n - len(classes) == confirmations


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
        assert np.array_equal(T, np.unique(np.sort(owner[G.edge_array - 1], axis=1), axis=0))
        # relabel so that class c is the c-th consecutive block of vertices
        order = np.lexsort((np.arange(G.n), owner))
        new = np.empty(G.n, dtype=np.int64)
        new[order] = np.arange(1, G.n + 1)
        relabeled = UniformHypergraph(G.r, G.n, [[int(new[v - 1]) for v in e] for e in edges(G)])
        k = sizes.size
        pattern = PartitionPattern(G.r, (F(1, k),) * k, [tuple(int(c) + 1 for c in t) for t in T])
        assert edges(blow_up_pattern(pattern, sizes.tolist())) == edges(relabeled)


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
        assert np.array_equal(T, G.edge_array - 1)
        assert (coef == 1.0).all()
        assert owner.tolist() == list(range(G.n))
    assert twin_free >= 5


def test_kernels_skip_a_unit_coef_bit_for_bit():
    rng = np.random.default_rng(4)
    for G in twin_test_graphs():
        E, ones = G.edge_array - 1, np.ones(G.m)
        X = rng.dirichlet(np.ones(G.n), size=3)
        for x in (X, X[0]):
            assert np.array_equal(_value(E, x), _value(E, x, ones))
            assert np.array_equal(_gradient(E, x), _gradient(E, x, ones))


def test_kernels_read_gathered_columns_bit_for_bit():
    rng = np.random.default_rng(6)
    for G in twin_test_graphs():
        T, coef, sizes, _ = quotient(G)
        y = rng.dirichlet(np.ones(sizes.size), size=1)
        cols = [np.take(y, col, axis=-1) for col in T.T]
        kept = [col.copy() for col in cols]
        for c in (None, coef):
            assert _value(T, y, c, cols).tobytes() == _value(T, y, c).tobytes()
            assert _gradient(T, y, c, cols).tobytes() == _gradient(T, y, c).tobytes()
        assert all(np.array_equal(a, b) for a, b in zip(cols, kept))


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
        extra = rng.choice([e for e in pool if e not in edges])
        G2 = UniformHypergraph(3, n, edges + [extra])
        assert maximize_lagrangian(G2, CFG).value >= maximize_lagrangian(G1, CFG).value - 1e-9


def compositions_reference(n, total):
    """The stars-and-bars builder the numpy one replaced: bar positions are
    the (n-1)-subsets of 0..total+n-2 in lexicographic order, and the row
    entries are the gaps between consecutive bars."""
    if n == 1:
        return np.array([[total]], dtype=np.int64)
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(total + n - 1), n - 1)),
        dtype=np.int64,
    ).reshape(-1, n - 1)
    rows = bars.shape[0]
    padded = np.hstack([
        np.full((rows, 1), -1, dtype=np.int64),
        bars,
        np.full((rows, 1), total + n - 1, dtype=np.int64),
    ])
    return np.diff(padded, axis=1) - 1


def project_reference(v):
    """The one-vector projection the row-wise one replaced."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    return np.maximum(v - css[rho - 1] / rho, 0.0)


def ascend_reference(value, gradient, x0, max_iters, done):
    """One start at a time, by the batched kernel's rules: the end point, its
    value and the index of the stop reason in STOP_REASONS."""
    floor = 4 * np.finfo(float).eps
    x, fx, g, gain, iters = x0, value(x0), gradient(x0), np.inf, 0
    while True:
        if done(x, fx, g, gain):
            return x, fx, STOP_REASONS.index("converged")
        if gain <= floor * abs(fx):
            return x, fx, STOP_REASONS.index("float_floor")
        if iters == max_iters:
            return x, fx, STOP_REASONS.index("max_iters")
        step = 1.0
        while True:
            cand = project_reference(x + step * g)
            pred = float(g @ (cand - x))
            if pred <= floor * abs(fx) or step <= 1e-13:
                return x, fx, STOP_REASONS.index("float_floor")
            fc = value(cand)
            if fc >= fx + _ARMIJO * pred:
                break
            step /= 2.0
        x, fx, gain, iters = cand, fc, fc - fx, iters + 1
        g = gradient(x)


@pytest.mark.parametrize("n", range(1, 7))
def test_compositions_match_the_stars_and_bars_builder(n):
    for total in range(13):
        got = _compositions(n, total)
        assert got.dtype == np.int64
        assert np.array_equal(got, compositions_reference(n, total))
    assert np.array_equal(_compositions(3, 200), compositions_reference(3, 200))


@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 9)),
              elements=st.floats(-1e6, 1e6, allow_nan=False)))
def test_projection_of_a_matrix_is_the_projection_of_each_row(M):
    P = project_to_simplex(M)
    for v, p in zip(M, P):
        assert p.tobytes() == project_reference(v).tobytes()
        assert p.tobytes() == project_to_simplex(v).tobytes()


def test_batched_ascent_rows_are_independent():
    # rows 0 and 1 are done at the start (the maximizer and a value-0
    # vertex), seeded row 23 reaches the float floor within 200 steps, most
    # others run to max_iters; scaled by 40, steps of 1.0 overshoot, so rows
    # halve their steps different numbers of times
    starts = np.vstack([[0.0, 0.4, 0.4, 0.2], [0.0, 0.0, 0.0, 1.0],
                        np.random.default_rng(0).dirichlet(np.ones(4), size=24)])

    def done(X, F, G, gain):
        return _kkt_residuals(X, G, np.asarray(F)[..., None], 3).max(axis=-1) <= 1e-15

    def batch(scale, max_iters, X0):
        def evaluate(X):
            return scale * theorem1_bound_poly(*X.T), lambda rows: scale * _complex_step(
                theorem1_bound_poly, X[rows])[1]

        return _ascend(evaluate, X0, max_iters, done)

    def alone(scale, max_iters, x0):
        return ascend_reference(lambda x: scale * theorem1_bound_poly(*x.tolist()),
                                lambda x: scale * _complex_step(theorem1_bound_poly, x[None])[1][0],
                                x0, max_iters, lambda *a: bool(done(*a)))

    for scale in (40.0, 1.0):
        for max_iters in (0, 1, 200):
            X, F, R = batch(scale, max_iters, starts)
            assert X.shape == starts.shape and F.shape == R.shape == (len(starts),)
            for i, x0 in enumerate(starts):
                x, fx, why = alone(scale, max_iters, x0)
                assert X[i].tobytes() == x.tobytes() and F[i] == fx and R[i] == why
                one = batch(scale, max_iters, starts[i:i + 1])
                assert one[0].tobytes() == X[i:i + 1].tobytes()
                assert one[1][0] == F[i] and one[2][0] == R[i]
    reasons = [STOP_REASONS[why] for why in R]
    assert reasons[:2] == ["converged"] * 2 and reasons[23] == "float_floor"
    assert "max_iters" in reasons
    # the floor ends the row before max_iters: doubling the budget changes nothing
    x, fx, why = alone(1.0, 400, starts[23])
    assert STOP_REASONS[why] == "float_floor" and x.tobytes() == X[23].tobytes() and fx == F[23]


def test_a_constant_objective_stops_after_one_trial():
    # a zero gradient predicts no gain, so the row ends at the float floor
    # without evaluating its trial, and no caller rule is needed
    calls, X0 = [], np.array([[0.5, 0.25, 0.25], [0.0, 0.0, 1.0]])

    def evaluate(X):
        calls.append(len(X))
        return np.full(len(X), 0.5), lambda rows: np.zeros((int(rows.sum()), 3))

    X, F, R = _ascend(evaluate, X0, 500)
    assert calls == [2]
    assert np.array_equal(X, X0) and (F == 0.5).all()
    assert (R == STOP_REASONS.index("float_floor")).all()


def count_calls(monkeypatch, name):
    import hyperlag.optimize as optimize

    calls, inner = [], getattr(optimize, name)
    monkeypatch.setattr(optimize, name, lambda *a, **k: calls.append(a) or inner(*a, **k))
    return calls


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_rows_at_the_float_floor_stop(monkeypatch, seed):
    # a kernel that accepts steps on rounding noise runs these rows on to
    # max_iters: 13,902 batch value calls at seeds 0 and 3
    calls = count_calls(monkeypatch, "_value")
    res = maximize_lagrangian(build_theorem1_base(20), OptimizerConfig(seed=seed))
    assert len(calls) < 1000
    assert res.stop_reasons["max_iters"] == 0
    assert sum(res.stop_reasons.values()) == 12
    assert res.stop_reasons["converged"] == res.starts_converged


def test_a_stalled_line_search_costs_no_halvings(monkeypatch):
    # a line search that halves down to step 1e-13 at the floor makes 16,135
    # projections on this twin-free graph, about 31 per accepted step
    calls = count_calls(monkeypatch, "project_to_simplex")
    triples = list(itertools.combinations(range(1, 61), 3))
    G = UniformHypergraph(3, 60, random.Random("6:60:10000").sample(triples, 10_000))
    res = maximize_lagrangian(G, OptimizerConfig(seed=6))
    assert len(calls) < 200
    assert res.support == (18, 25, 36, 38, 43, 46)


def test_lattice_chunking_matches_dense():
    def check(chunks, n, total, cap):
        assert np.array_equal(np.vstack(chunks), _compositions(n, total))
        for chunk in chunks:
            assert 1 <= len(chunk) <= cap and chunk.shape[1] == n
            assert chunk.T.flags.c_contiguous

    # (4, 8) at caps 1, 7 and 20 and (4, 30) at 100: the sub-lattice of the
    # leading value 0 (45 and 496 rows) exceeds the cap, so it is split
    for n, total, cap in [(1, 0, 1), (1, 9, 1), (2, 0, 1), (2, 9, 1), (2, 9, 7), (3, 0, 7),
                          (3, 6, 7), (4, 8, 1), (4, 8, 7), (4, 8, 20), (5, 10, 7), (4, 30, 100)]:
        check(list(iter_lattice(n, total, cap)), n, total, cap)
    assert [len(chunk) for chunk in iter_lattice(3, 4, 0)] == [1] * 15
    # the default cap at (4, 200): leading values grouped into runs, and one split
    chunks = list(iter_lattice(4, 200))
    check(chunks, 4, 200, _LATTICE_CAP)
    leading = [np.unique(chunk[:, 0]) for chunk in chunks]
    assert any(values.size > 1 for values in leading)
    assert any(np.intersect1d(a, b).size for a, b in zip(leading, leading[1:]))


@pytest.mark.parametrize("cap", [None, 1, 7])
def test_bernstein_bound_matches_the_fraction_reference(monkeypatch, cap):
    import hyperlag.optimize as optimize

    if cap is not None:
        monkeypatch.setattr(optimize, "_LATTICE_CAP", cap)
    graphs = [UniformHypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (1, 3)]),
              UniformHypergraph(3, 3, [(1, 2, 3)]),
              UniformHypergraph(4, 5, [(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5)]),
              *bound_test_graphs(11)]
    for G in graphs:
        for d in (G.r, G.r + 1, 6):
            assert bernstein_bound(G, d) == bernstein_bound_reference(G, d)
