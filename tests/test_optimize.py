"""Simplex maximization, lattice oracle, stationarity, symmetry classes, quotient."""

import itertools
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from hyperlag.closedform import alpha_k, theorem1_bound_gradient, theorem1_bound_poly, to_json
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
    _ARMIJO,
    _LATTICE_CAP,
    OptimizerConfig,
    _ascend,
    _compositions,
    _gradient,
    _kkt_residuals,
    _value,
    grid_oracle,
    iter_lattice,
    maximize_lagrangian,
    project_to_simplex,
    quotient,
    symmetry_reduce,
    verify_stationarity,
)
from reference import brute_link_difference, edges, grid_oracle_reference


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
    # nine vertices are fine; the lattice size alone decides
    big = UniformHypergraph(3, 9, [(1, 2, 3)])
    assert grid_oracle(big, 5) == F(4, 125)
    # C(107, 7), about 2.6e10 points: refused before any scoring
    start = time.perf_counter()
    with pytest.raises(ValueError, match="lattice points"):
        grid_oracle(complete3(8), 100)
    assert time.perf_counter() - start < 1.0


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
                image = {tuple(sorted(swap.get(w, w) for w in e)) for e in edges(G)}
                assert image == set(edges(G))
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
    """The one-start Armijo ascent the batched kernel replaced."""
    x, fx, g, gain = x0, value(x0), gradient(x0), np.inf
    for _ in range(max_iters):
        if done(x, fx, g, gain):
            return x, fx, True
        step = 1.0
        while step > 1e-13:
            cand = project_reference(x + step * g)
            fc = value(cand)
            if fc >= fx + _ARMIJO * float(g @ (cand - x)):
                break
            step /= 2.0
        else:
            break
        x, fx, gain = cand, fc, fc - fx
        g = gradient(x)
    return x, fx, done(x, fx, g, gain)


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
    # vertex), seeded row 23 stalls below step 1e-13 after 132 steps, the
    # rest run to max_iters; scaled by 40, steps of 1.0 overshoot, so rows
    # halve their steps different numbers of times
    starts = np.vstack([[0.0, 0.4, 0.4, 0.2], [0.0, 0.0, 0.0, 1.0],
                        np.random.default_rng(0).dirichlet(np.ones(4), size=24)])

    def done(X, F, G, gain):
        return _kkt_residuals(X, G, np.asarray(F)[..., None], 3).max(axis=-1) <= 1e-15

    def batch(scale, max_iters, X0):
        return _ascend(lambda X: scale * theorem1_bound_poly(*X.T),
                       lambda X: scale * np.column_stack(theorem1_bound_gradient(*X.T)),
                       X0, max_iters, done)

    def alone(scale, max_iters, x0):
        return ascend_reference(lambda x: scale * theorem1_bound_poly(*x.tolist()),
                                lambda x: scale * np.array(theorem1_bound_gradient(*x.tolist())),
                                x0, max_iters, lambda *a: bool(done(*a)))

    for scale in (40.0, 1.0):
        for max_iters in (0, 1, 200):
            X, F, D = batch(scale, max_iters, starts)
            assert X.shape == starts.shape and F.shape == D.shape == (len(starts),)
            for i, x0 in enumerate(starts):
                x, fx, d = alone(scale, max_iters, x0)
                assert X[i].tobytes() == x.tobytes() and F[i] == fx and D[i] == d
                one = batch(scale, max_iters, starts[i:i + 1])
                assert one[0].tobytes() == X[i:i + 1].tobytes()
                assert one[1][0] == F[i] and one[2][0] == D[i]
    assert D[:2].all()
    # the stall ends before max_iters: doubling the budget changes nothing
    x, fx, d = alone(1.0, 400, starts[23])
    assert not D[23] and not d and x.tobytes() == X[23].tobytes() and fx == F[23]


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
def test_grid_oracle_matches_the_fraction_reference(monkeypatch, cap):
    import hyperlag.optimize as optimize

    if cap is not None:
        monkeypatch.setattr(optimize, "_LATTICE_CAP", cap)
    rng = random.Random(11)
    graphs = [UniformHypergraph(2, 4, [(1, 2), (2, 3), (3, 4), (1, 3)]),
              UniformHypergraph(3, 3, [(1, 2, 3)]),
              UniformHypergraph(4, 5, [(1, 2, 3, 4), (1, 2, 3, 5), (2, 3, 4, 5)])]
    for r in (2, 3, 4):
        pool = list(itertools.combinations(range(1, 6), r))
        graphs.append(UniformHypergraph(r, 5, rng.sample(pool, rng.randint(1, len(pool)))))
    for G in graphs:
        for N in (1, 2, 5, 8):
            assert grid_oracle(G, N) == grid_oracle_reference(G, N)
