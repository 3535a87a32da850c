"""Core hypergraph type, Lagrangian evaluation, blow-ups, links, text format."""

import io
import itertools
import operator
import random
import tempfile
import warnings
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hyperlag.hypercore import (
    HypergraphFormatError,
    UniformHypergraph,
    WeightVector,
    _shifts,
    format_hypergraph,
    lagrangian_value,
    link_difference,
    parse_hypergraph,
    read_hypergraph,
    write_hypergraph,
)
from hyperlag.closedform import Surd
from hyperlag.constructions import PartitionPattern, blow_up_pattern, build_theorem1_base
from hyperlag.optimize import maximize_lagrangian, quotient, symmetry_reduce, verify_stationarity
from reference import (
    brute_link_difference, density, edges, format_hypergraph_reference, lagrangian_gradient,
    lagrangian_value_loop, links_reference)


def complete3(n):
    return UniformHypergraph(3, n, itertools.combinations(range(1, n + 1), 3))


def random_graph(rng, n_lo=3, n_hi=6, min_edges=1):
    n = rng.randint(n_lo, n_hi)
    pool = list(itertools.combinations(range(1, n + 1), 3))
    m = rng.randint(min_edges, len(pool))
    return UniformHypergraph(3, n, rng.sample(pool, m))


def random_graph_r(rng, r, n):
    pool = list(itertools.combinations(range(1, n + 1), r))
    return UniformHypergraph(r, n, rng.sample(pool, rng.randint(8, min(len(pool), 200))))


def blow_up(G, sizes):
    """Vertex i of G becomes a class of sizes[i-1] twins, in consecutive blocks."""
    return blow_up_pattern(PartitionPattern(G.r, (F(1, G.n),) * G.n, edges(G)), sizes)


def symmetrize_pair(G, x, i, j):
    """Average the weights of i and j; requires both link differences empty,
    which guarantees the Lagrangian does not decrease (Frankl-Rodl).  This is
    the pairwise step behind the twin-class quotient of ``optimize``."""
    for a, b in ((i, j), (j, i)):
        diff = link_difference(G, a, b)
        if diff:
            sample = sorted(diff)[0]
            raise ValueError(
                f"cannot average vertices {i}, {j}: link difference L({a}\\{b}) "
                f"contains {sample}"
            )
    w = list(x)
    w[i - 1] = w[j - 1] = (w[i - 1] + w[j - 1]) / 2
    return WeightVector(tuple(w))


def canonical_reference(r, n, edges):
    """The tuple canonicalization the edge array replaced: every edge sorted
    and checked in input order, then the distinct edges sorted.  A vertex
    index is whatever ``operator.index`` accepts."""
    canon = set()
    for e in edges:
        try:
            members = tuple(sorted(map(operator.index, e)))
        except TypeError:
            raise ValueError(f"edge {e} has a non-integer vertex index") from None
        if len(members) != r or len(set(members)) != r:
            raise ValueError(f"edge {e} does not have {r} distinct vertices")
        if members[0] < 1 or members[-1] > n:
            raise ValueError(f"edge {e} leaves the vertex range 1..{n}")
        canon.add(members)
    return tuple(sorted(canon))


@st.composite
def edge_lists(draw, faulty=True, increasing=False):
    """(r, n, edges): unsorted rows, repeated edges in another vertex order,
    possibly none, and, if ``faulty``, up to two bad edges anywhere.  n is
    sometimes so large that a row read as one key overflows int64.

    With ``increasing`` every row, bad ones too, is sorted and repeats come
    in the same order, so the rows are out of lexicographic order but only
    one row, if any, inserted anywhere, is not increasing: one adjacent pair
    of it is swapped."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.one_of(st.integers(r, 9), st.integers(2**16, 2**22)))
    edge = st.lists(st.integers(1, n), min_size=r, max_size=r, unique=True).map(tuple)
    if increasing:
        edge = edge.map(sorted).map(tuple)
    edges = draw(st.lists(edge, max_size=25))
    if edges:
        for e in draw(st.lists(st.sampled_from(edges), max_size=5)):
            edges.insert(draw(st.integers(0, len(edges))), e if increasing else e[::-1])
    faults = st.lists(st.sampled_from(["repeat", "zero", "over", "short", "fraction"]), max_size=2)
    for fault in draw(faults) if faulty else ():
        good = draw(edge)
        bad = {"repeat": good[:-1] + good[:1], "zero": good[:-1] + (0,),
               "over": good[:-1] + (n + 1,), "short": good[:-1],
               "fraction": good[:-1] + (good[-1] - 0.5,)}[fault]
        edges.insert(draw(st.integers(0, len(edges))), tuple(sorted(bad)) if increasing else bad)
    if increasing and draw(st.booleans()):
        e, c = list(draw(edge)), draw(st.integers(0, r - 2))
        e[c:c + 2] = e[c + 1], e[c]  # one adjacent pair swapped
        edges.insert(draw(st.integers(0, len(edges))), tuple(e))
    return r, n, edges


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

def assert_canonical(r, n, rows):
    """UniformHypergraph(r, n, rows) keeps canonical_reference's rows, or
    raises its error."""
    try:
        want = canonical_reference(r, n, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as err:
            UniformHypergraph(r, n, rows)
        assert str(err.value) == str(exc)
        return
    G = UniformHypergraph(r, n, rows)
    assert edges(G) == want and G.m == len(want)
    assert G.edge_array.dtype == np.int64 and G.edge_array.shape == (len(want), r)
    assert not G.edge_array.flags.writeable
    for same in (UniformHypergraph(r, n, want), UniformHypergraph(r, n, np.array(rows).reshape(-1, r))):
        assert same == G and hash(same) == hash(G)
    assert G != UniformHypergraph(r, n + 1, rows)
    if want:
        assert G != UniformHypergraph(r, n, want[1:])


@given(edge_lists())
def test_edge_array_matches_the_tuple_canonicalization(case):
    assert_canonical(*case)


# increasing rows skip the row sort: the range is read off the first and last
# columns, and repeats and row order are left to the key sort
@given(edge_lists(increasing=True))
def test_increasing_rows_match_the_tuple_canonicalization(case):
    assert_canonical(*case)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_one_swapped_pair_marks_its_row_unsorted(r):
    # disjoint increasing blocks: no pair of neighbours across two rows descends
    rows = [tuple(range(k * r + 1, k * r + r + 1)) for k in range(4)]
    for k, c in itertools.product(range(4), range(r - 1)):
        bad = list(rows[k])
        bad[c:c + 2] = bad[c + 1], bad[c]
        assert edges(UniformHypergraph(r, 4 * r, rows[:k] + [tuple(bad)] + rows[k + 1:])) == tuple(rows)


@given(edge_lists(faulty=False))
def test_parse_of_format_is_the_graph(case):
    G = UniformHypergraph(*case)
    assert parse_hypergraph(format_hypergraph(G)) == G


def test_edges_canonicalized_and_validated():
    G = UniformHypergraph(3, 5, [(3, 2, 1), (1, 2, 3), (5, 4, 1)])
    assert edges(G) == ((1, 2, 3), (1, 4, 5))
    assert G.m == 2
    with pytest.raises(ValueError):
        UniformHypergraph(3, 3, [(1, 2, 4)])
    with pytest.raises(ValueError):
        UniformHypergraph(3, 4, [(1, 2, 2)])
    with pytest.raises(ValueError):
        UniformHypergraph(1, 3, [])


@pytest.mark.parametrize("rows", [
    [(1.5, 2, 3)], np.array([[1.5, 2, 3]]), [("1", 2, 3)], [(2.0, 1, 3)], [(F(3), 1, 2)],
    np.array([[3.0, 1, 2]], dtype=object)])
def test_non_integer_vertex_indices_are_refused(rows):
    with pytest.raises(ValueError, match="non-integer vertex index"):
        UniformHypergraph(3, 5, rows)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8, np.uint64, object])
def test_integer_arrays_of_any_width_are_accepted(dtype):
    G = UniformHypergraph(3, 5, np.array([[3, 2, 1], [1, 4, 5], [1, 2, 3]], dtype=dtype))
    assert edges(G) == ((1, 2, 3), (1, 4, 5)) and G.edge_array.dtype == np.int64


def test_the_graph_owns_its_edge_array():
    rows = np.array(list(itertools.combinations(range(1, 8), 3)), dtype=np.int64)
    for given_rows in (rows.copy(), np.asfortranarray(rows), np.repeat(rows, 2, axis=0)[::2]):
        assert given_rows.flags.writeable and np.array_equal(given_rows, rows)
        G = UniformHypergraph(3, 7, given_rows)
        assert given_rows.flags.writeable and not G.edge_array.flags.writeable
        given_rows[:] = given_rows[::-1]
        given_rows[0] = (7, 6, 5)
        assert edges(G) == tuple(itertools.combinations(range(1, 8), 3))


@pytest.mark.parametrize("n", [2**21 - 1, 2**21])
def test_three_fields_at_the_int64_key_boundary(n):
    # 3 x 21 bits fit an int64 key, 3 x 22 do not: the rows key as Python ints
    assert _shifts(n, 3).dtype == (np.int64 if n < 2**21 else object)
    rng = random.Random(n)
    hub, top = rng.sample(range(n - 40, n), 2)
    rows = [rng.sample(range(n - 40, n + 1), 3) for _ in range(60)]
    rows += [rng.sample(range(1, 30), 2) + [v] for v in (hub, top) for _ in range(10)]
    rows += [r[::-1] for r in rows[:20]]
    G = UniformHypergraph(3, n, rows)
    assert edges(G) == canonical_reference(3, n, rows)
    starts, links = G.links
    for v, want in links_reference(G).items():
        assert list(map(tuple, links[starts[v]:starts[v + 1]].tolist())) == sorted(want)
    for j, i in itertools.permutations((hub, top, n, 1), 2):
        assert link_difference(G, j, i) == brute_link_difference(G, j, i)


def test_weight_vector_normalizes_and_clamps():
    w = WeightVector((0.2, 0.2, 0.1))
    assert abs(sum(w) - 1.0) < 1e-12
    w2 = WeightVector((0.5, -1e-13, 0.5))
    assert w2[1] == 0.0
    with pytest.raises(ValueError):
        WeightVector((0.5, -1e-6, 0.5))
    with pytest.raises(ValueError):
        WeightVector((0.0, 0.0))


# ---------------------------------------------------------------------------
# Lagrangian evaluation
# ---------------------------------------------------------------------------

def test_lagrangian_single_edge_values():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    assert lagrangian_value(G, [F(1, 3)] * 3) == F(1, 27)
    assert lagrangian_value(G, WeightVector((0.5, 0.5, 0.0))) == 0.0
    assert lagrangian_value(UniformHypergraph(3, 4, []), WeightVector.uniform(4)) == 0


@st.composite
def weighted_graphs(draw):
    """(G, weights): r in {2, 3, 4}, possibly no edges, and any floats as
    weights, signed zeros, subnormals and overflowing products included."""
    r = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(r, 8))
    pool = list(itertools.combinations(range(1, n + 1), r))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=40))
    weight = st.one_of(st.floats(-4, 4), st.sampled_from([0.0, -0.0, 5e-324, 1e300]),
                       st.integers(1, 2**53 - 1).map(lambda k: k * 2.0**-53))  # all 53 bits
    return UniformHypergraph(r, n, edges), draw(st.lists(weight, min_size=n, max_size=n))


@given(weighted_graphs())
def test_float_lagrangian_is_the_edge_loop_bit_for_bit(case):
    G, ws = case
    inputs = [ws]
    if any(ws):
        inputs.append(WeightVector(tuple(abs(w) for w in ws)))
    for x in inputs:
        got, want = lagrangian_value(G, x), lagrangian_value_loop(G, x)
        assert type(got) is type(want) and repr(got) == repr(want)


def test_float_lagrangian_sums_edge_by_edge():
    # a pairwise or blocked sum differs from the loop in the last bits here
    rng = random.Random(30)
    for r in (2, 3, 4):
        for _ in range(10):
            G = random_graph_r(rng, r, 12)
            x = [rng.random() for _ in range(G.n)]
            for w in (x, WeightVector(tuple(x))):
                assert repr(lagrangian_value(G, w)) == repr(lagrangian_value_loop(G, w))


def test_exact_lagrangian_stays_exact():
    rng = random.Random(31)
    for _ in range(6):
        G = random_graph(rng)
        x = [F(rng.randint(1, 9), 7) for _ in range(G.n)]
        got = lagrangian_value(G, x)
        assert type(got) is F and got == lagrangian_value_loop(G, x)


def _exact_weights(rng, kind, n):
    """n weights of one kind; "mixed" puts Fraction, float and signed zeros
    together, "extreme" overflowing and subnormal floats beside a Fraction."""
    frac = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    if kind == "fraction":
        return [frac() for _ in range(n)]
    if kind == "int":
        return [rng.choice([rng.randint(-5, 5), rng.randint(-2**80, 2**80)]) for _ in range(n)]
    if kind == "surd":
        d = rng.choice([2, 3, 5])
        return [rng.choice([Surd(frac(), frac(), d), frac(), rng.randint(-3, 3)]) for _ in range(n)]
    pool = [-0.0, 0.0, F(0)] + ([1e300, -1e300, 5e-324, F(10**300)] if kind == "extreme" else [])
    return [rng.choice([frac, lambda: rng.uniform(-4, 4), lambda: rng.choice(pool)])()
            for _ in range(n)]


def _outcome(f, G, x):
    """(type, repr) of f(G, x), or the type of what it raises."""
    try:
        got = f(G, x)
    except OverflowError as exc:  # a Fraction beyond the float range times a float
        return type(exc)
    return type(got), repr(got)


def test_exact_lagrangian_is_the_edge_loop():
    # the object path: same type and repr as the loop, for every number type
    rng = random.Random(32)
    for kind in ("fraction", "int", "surd", "mixed", "extreme"):
        for _ in range(120):
            r = rng.choice([2, 3, 4])
            G = random_graph_r(rng, r, rng.randint(r + 3, 8))
            x = _exact_weights(rng, kind, G.n)
            assert _outcome(lagrangian_value, G, x) == _outcome(lagrangian_value_loop, G, x), x
    # every product -0.0: the loop's 0 + -0.0 is 0.0
    G = UniformHypergraph(3, 4, [(1, 2, 3), (2, 3, 4)])
    assert repr(lagrangian_value(G, [F(1), -0.0, 1.0, F(2)])) == "0.0"
    for x in ([0.5] * 4, WeightVector.uniform(4), [F(1, 4)] * 4, [Surd.sqrt(2)] * 4, [3] * 4,
              [F(1, 4), 0.25, -0.0, 0.25]):
        got = lagrangian_value(UniformHypergraph(3, 4, []), x)
        assert type(got) is int and got == 0


def test_lagrangian_dimension_mismatch():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    with pytest.raises(ValueError):
        lagrangian_value(G, [0.5, 0.5])
    with pytest.raises(ValueError):
        lagrangian_gradient(G, [0.25] * 4)


def test_gradient_values():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    assert lagrangian_gradient(G, [F(1, 3)] * 3) == [F(1, 9)] * 3
    assert lagrangian_gradient(UniformHypergraph(3, 3, []), [F(1, 3)] * 3) == [0, 0, 0]
    G4 = UniformHypergraph(3, 4, [(1, 2, 3)])
    assert lagrangian_gradient(G4, [F(1, 4)] * 4)[3] == 0


def test_gradient_matches_finite_differences():
    rng = random.Random(17)
    h = 1e-6
    for _ in range(12):
        G = random_graph(rng)
        x = [rng.random() + 0.05 for _ in range(G.n)]
        s = sum(x)
        x = [v / s for v in x]
        grad = lagrangian_gradient(G, x)
        for i in range(G.n):
            up = x.copy(); up[i] += h
            dn = x.copy(); dn[i] -= h
            fd = (lagrangian_value(G, up) - lagrangian_value(G, dn)) / (2 * h)
            assert fd == pytest.approx(grad[i], rel=1e-5, abs=1e-9)


def test_euler_identity_exact():
    rng = random.Random(23)
    for _ in range(12):
        G = random_graph(rng)
        raw = [F(rng.randint(0, 9), 1) for _ in range(G.n)]
        if sum(raw) == 0:
            raw[0] = F(1)
        x = [v / sum(raw) for v in raw]
        lam = lagrangian_value(G, x)
        grad = lagrangian_gradient(G, x)
        assert sum(xi * gi for xi, gi in zip(x, grad)) == 3 * lam


def test_euler_identity_float_mode():
    rng = random.Random(24)
    for _ in range(12):
        G = random_graph(rng)
        x = WeightVector(tuple(rng.random() + 0.01 for _ in range(G.n)))
        lam = lagrangian_value(G, x)
        grad = lagrangian_gradient(G, x)
        assert abs(sum(xi * gi for xi, gi in zip(x, grad)) - 3 * lam) <= 1e-12


def test_pointwise_monotonicity_under_subgraph():
    rng = random.Random(29)
    for _ in range(10):
        G2 = random_graph(rng, n_lo=4, min_edges=2)
        sub_edges = rng.sample(edges(G2), rng.randint(1, G2.m - 1))
        G1 = UniformHypergraph(3, G2.n, sub_edges)
        x = WeightVector(tuple(rng.random() + 0.01 for _ in range(G2.n)))
        assert lagrangian_value(G1, x) <= lagrangian_value(G2, x) + 1e-15


# ---------------------------------------------------------------------------
# density / blowup / induced
# ---------------------------------------------------------------------------

def test_density_values():
    assert density(complete3(5)) == 1
    assert density(UniformHypergraph(3, 5, [(1, 2, 3)])) == F(1, 10)
    assert density(build_theorem1_base(25)) == F(1175, 2300)
    with pytest.raises(ValueError):
        density(UniformHypergraph(3, 2, []))


def test_blowup_edge_counts_and_identity():
    E1 = UniformHypergraph(3, 3, [(1, 2, 3)])
    assert blow_up(E1, [2, 1, 1]).m == 2
    assert blow_up(E1, [2, 2, 2]).m == 8
    rng = random.Random(3)
    for _ in range(6):
        G = random_graph(rng)
        assert blow_up(G, [1] * G.n) == G


def test_blowup_multilinearity():
    rng = random.Random(7)
    for _ in range(8):
        G = random_graph(rng)
        sizes = [rng.randint(1, 3) for _ in range(G.n)]
        B = blow_up(G, sizes)
        mass = [rng.random() + 0.05 for _ in range(G.n)]
        s = sum(mass)
        mass = [v / s for v in mass]
        spread = []
        for cls_mass, mult in zip(mass, sizes):
            spread.extend([cls_mass / mult] * mult)
        assert lagrangian_value(B, spread) == pytest.approx(
            lagrangian_value(G, mass), abs=1e-12)


# ---------------------------------------------------------------------------
# links and symmetrization
# ---------------------------------------------------------------------------

def test_link_difference_cases():
    E1 = UniformHypergraph(3, 3, [(1, 2, 3)])
    assert link_difference(E1, 1, 2) == frozenset()
    sym = UniformHypergraph(3, 4, [(1, 3, 4), (2, 3, 4)])
    assert link_difference(sym, 1, 2) == frozenset()
    assert link_difference(sym, 2, 1) == frozenset()
    lone = UniformHypergraph(3, 4, [(1, 3, 4)])
    assert link_difference(lone, 1, 2) == frozenset({(3, 4)})
    with pytest.raises(ValueError):
        link_difference(E1, 2, 2)


def test_link_difference_rejects_vertices_out_of_range():
    G = UniformHypergraph(3, 4, [(1, 3, 4)])
    for j, i in ((1, -1), (-1, 1), (1, 0), (0, 1), (1, 5), (5, 1)):
        with pytest.raises(ValueError, match="range"):
            link_difference(G, j, i)


# no deadline: on a shared host one example once ran past hypothesis' 200 ms
@settings(deadline=None)
@given(edge_lists(faulty=False))
def test_link_index_matches_the_tuple_links(case):
    G = UniformHypergraph(*case)
    want = links_reference(G)
    starts, rows = G.links
    assert starts.shape == (G.n + 2,) and starts[0] == starts[1] == 0 and starts[-1] == G.r * G.m
    assert rows.dtype == np.int64 and rows.shape == (G.r * G.m, G.r - 1)
    degree = np.diff(starts)
    assert {int(v): int(degree[v]) for v in np.flatnonzero(degree)} == {
        v: len(links) for v, links in want.items()}
    for v, links in want.items():
        assert list(map(tuple, rows[starts[v]:starts[v + 1]].tolist())) == sorted(links)


@given(edge_lists(faulty=False), st.data())
def test_link_difference_matches_the_edge_scan_at_any_n(case, data):
    G = UniformHypergraph(*case)
    touched = sorted({v for e in edges(G) for v in e} | {1, G.n})
    pick = data.draw(st.lists(st.sampled_from(touched), min_size=2, max_size=4, unique=True))
    for j, i in itertools.permutations(pick, 2):
        assert link_difference(G, j, i) == brute_link_difference(G, j, i)


def test_link_keys_beyond_int64():
    n = 600  # 7 fields of 10 bits: an 8-graph's link rows key as Python ints
    assert _shifts(n, 7).dtype == object
    rng = random.Random(8)
    shared = [rng.sample(range(1, n - 1), 7) for _ in range(12)]
    edges = ([S + [n] for S in shared] + [S + [n - 1] for S in shared[:6]]
             + [rng.sample(range(1, n - 1), 6) + [n - 1, n] for _ in range(3)]
             + [rng.sample(range(1, n - 1), 8) for _ in range(20)])
    G = UniformHypergraph(8, n, edges)
    diff = link_difference(G, n, n - 1)
    assert len(diff) == 6 and diff == brute_link_difference(G, n, n - 1)
    assert link_difference(G, n - 1, n) == brute_link_difference(G, n - 1, n) == frozenset()
    starts, rows = G.links
    for v, links in links_reference(G).items():
        assert list(map(tuple, rows[starts[v]:starts[v + 1]].tolist())) == sorted(links)


def test_lagrangian_builds_no_edge_tuples():
    rng = random.Random(12)
    base = UniformHypergraph(3, 12, rng.sample(list(itertools.combinations(range(1, 13), 3)), 90))
    twins = blow_up(base, [2, 1, 3] + [1] * 9)
    assert len(symmetry_reduce(base)) == 12 and len(symmetry_reduce(twins)) == 12
    runs = (symmetry_reduce, quotient, maximize_lagrangian,
            lambda G: verify_stationarity(G, WeightVector.uniform(G.n), 1e-9),
            lambda G: lagrangian_value(G, [1.0 / G.n] * G.n))
    for G in (base, twins):
        for run in runs:
            fresh = UniformHypergraph(G.r, G.n, G.edge_array)
            run(fresh)
            assert "edges" not in vars(fresh)


def test_symmetrize_pair_example():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    x = WeightVector((0.5, 0.1, 0.4))
    assert lagrangian_value(G, x) == pytest.approx(0.02)
    y = symmetrize_pair(G, x, 1, 2)
    assert y.weights == pytest.approx((0.3, 0.3, 0.4))
    assert lagrangian_value(G, y) == pytest.approx(0.036)


def test_symmetrize_pair_no_ops():
    G = UniformHypergraph(3, 3, [(1, 2, 3)])
    x = WeightVector((0.25, 0.25, 0.5))
    assert symmetrize_pair(G, x, 1, 2).weights == pytest.approx(x.weights)
    iso = UniformHypergraph(3, 5, [(1, 2, 3)])
    x5 = WeightVector((0.2, 0.2, 0.2, 0.3, 0.1))
    y5 = symmetrize_pair(iso, x5, 4, 5)
    assert lagrangian_value(iso, y5) == pytest.approx(lagrangian_value(iso, x5))


def test_symmetrize_pair_precondition_error_names_link():
    G = UniformHypergraph(3, 4, [(1, 3, 4)])
    with pytest.raises(ValueError, match=r"L\(1\\2\)"):
        symmetrize_pair(G, WeightVector.uniform(4), 1, 2)


def test_symmetrize_never_decreases():
    rng = random.Random(41)
    for _ in range(10):
        G = random_graph(rng)
        B = blow_up(G, [2] * G.n)   # clone pairs have empty link diffs
        x = WeightVector(tuple(rng.random() + 0.01 for _ in range(B.n)))
        before = lagrangian_value(B, x)
        y = symmetrize_pair(B, x, 1, 2)
        assert lagrangian_value(B, y) >= before - 1e-15


def test_quotient_lift_is_pairwise_symmetrization():
    # averaging twins pair by pair along each class reaches the quotient's
    # lift of the class sums, and no step lowers the Lagrangian
    rng = random.Random(43)
    for _ in range(10):
        G = random_graph(rng)
        B = blow_up(G, [rng.randint(1, 3) for _ in range(G.n)])
        _, _, sizes, owner = quotient(B)
        x = WeightVector(tuple(rng.random() + 0.01 for _ in range(B.n)))
        lifted = (np.bincount(owner, x.weights) / sizes)[owner]
        y, value = x, lagrangian_value(B, x)
        for c in range(sizes.size):
            members = [int(v) + 1 for v in np.flatnonzero(owner == c)]
            for _ in range(60):  # repeated pair averages converge to the class mean
                for u, v in itertools.combinations(members, 2):
                    y = symmetrize_pair(B, y, u, v)
                    assert lagrangian_value(B, y) >= value - 1e-15
                    value = lagrangian_value(B, y)
        assert y.weights == pytest.approx(lifted.tolist(), abs=1e-12)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------

def test_format_round_trip(tmp_path):
    G = build_theorem1_base(10)
    path = tmp_path / "g.txt"
    write_hypergraph(G, str(path))
    assert read_hypergraph(str(path)) == G
    # stream form too
    buf = io.StringIO()
    write_hypergraph(G, buf)
    assert parse_hypergraph(buf.getvalue()) == G


class WriteOnly:
    """A stream target with nothing but ``write``."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)


def written(G):
    """What write_hypergraph puts in a file and in a write-only stream."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.txt"
        write_hypergraph(G, str(path))
        on_disk = path.read_bytes().decode("ascii")
    stream = WriteOnly()
    write_hypergraph(G, stream)
    return on_disk, "".join(stream.pieces)


@st.composite
def digit_crossing_graphs(draw):
    """Vertex numbers on both sides of 9/10, 99/100 and 999/1000, r = 2..5,
    sometimes no edges."""
    r = draw(st.integers(2, 5))
    vertex = st.one_of(st.integers(1, 12), st.integers(97, 102), st.integers(997, 1002))
    edge = st.lists(vertex, min_size=r, max_size=r, unique=True)
    return UniformHypergraph(r, draw(st.integers(1002, 1010)), draw(st.lists(edge, max_size=12)))


@given(digit_crossing_graphs())
def test_format_matches_the_percent_d_reference(G):
    text = format_hypergraph(G)
    assert text == format_hypergraph_reference(G)
    assert written(G) == (text, text)


@pytest.mark.parametrize("G", [
    UniformHypergraph(3, 10**15, [(1, 10**15 - 1, 10**15), (2, 3, 10**15)]),
    build_theorem1_base(40),  # 4,928 edges: more than one block of the writer
], ids=["n=10^15", "t1-base-t40"])
def test_format_write_and_read_agree(G):
    text = format_hypergraph(G)
    # as lists of lines, whose mismatch pytest reports without diffing the whole text
    assert text.splitlines(True) == format_hypergraph_reference(G).splitlines(True)
    assert written(G) == (text, text)
    assert parse_hypergraph(text) == G


def test_format_comments_and_layout():
    text = "# a comment\n3 4 2  # trailing\n1 2 3\n\n2 3 4\n"
    G = parse_hypergraph(text)
    assert edges(G) == ((1, 2, 3), (2, 3, 4))
    assert format_hypergraph(G).splitlines()[0] == "3 4 2"


@pytest.mark.parametrize("text,line", [
    ("", 1),
    ("3 4\n1 2 3\n", 1),
    ("3 4 1\n1 2\n", 2),
    ("3 4 1\n1 2 x\n", 2),
    ("3 4 1\n1 2 5\n", 2),
    ("3 4 2\n1 2 3\n1 2 3\n", 3),
    ("3 4 2\n1 2 3\n", 2),
    ("3 4 1\n1 2 3\n2 3 4\n", 3),
    # below, a valid line follows each faulty one, so its number is not the last line's
    ("# made by hand\n\n# r n m\n3 4 3\n1 2 3\n1 2 x\n2 3 4\n", 6),
    ("3 50 42\n1 2 3\n" + "".join(f"1 2 {v}\n" for v in range(4, 43)) + "3 2 1\n4 5 6\n", 42),
    ("3 6 2\n1 2\n3 4\n5 6\n", 2),
    ("3 2000 2\n1 2 1_000\n4 5 6\n", 2),
    ("3 4 2\n1 2 3.0\n2 3 4\n", 2),
])
def test_format_errors_carry_line_numbers(text, line):
    with pytest.raises(HypergraphFormatError) as err:
        parse_hypergraph(text)
    assert err.value.line == line


def test_empty_body_parses_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        G = parse_hypergraph("3 4 0\n")
        assert parse_hypergraph("# nothing yet\n3 4 0  # empty\n\n# still nothing\n") == G
    assert (G.r, G.n, G.m, G.edge_array.shape) == (3, 4, 0, (0, 3))
