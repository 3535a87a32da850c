"""Certification pipelines: star reduction, case analyses, density gain, profiles."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from hyperlag.certify import (
    CaseVerdict,
    certify_theorem1,
    certify_theorem3,
    check_blowup_density_gain,
    enumerate_profiles_and_bound,
    reduce_star,
)
from hyperlag import certify, closedform
from hyperlag.closedform import (
    Surd,
    alpha_k,
    exact_to_json,
    theorem1_bound_poly,
    theorem3_bound,
    to_json,
)
from hyperlag.constructions import (
    PartitionPattern,
    SparseAdderParams,
    assemble_gstar,
    build_theorem1_base,
    build_theorem3_pattern,
    generate_sparse_adder,
    instantiate_pattern,
    pattern_parts,
    theorem1_pattern,
)
from hyperlag.hypercore import UniformHypergraph
from hyperlag.optimize import OptimizerConfig, maximize_lagrangian
from reference import edges, grid_top_reference, reduce_star_reference


# ---------------------------------------------------------------------------
# star reduction
# ---------------------------------------------------------------------------

def test_reduce_star_replaces_internal_edges():
    M = UniformHypergraph(3, 6, [(1, 2, 3), (2, 3, 4), (3, 4, 5), (1, 2, 6)])
    N = reduce_star(M, [1, 2, 3, 4, 5])
    assert edges(N) == ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6))


def test_reduce_star_adds_star_even_when_part_was_empty():
    M = UniformHypergraph(3, 5, [(1, 4, 5)])
    N = reduce_star(M, [1, 2, 3])
    assert edges(N) == ((1, 2, 3), (1, 4, 5))


def test_reduce_star_small_part_is_identity():
    M = UniformHypergraph(3, 5, [(1, 2, 3)])
    assert reduce_star(M, [4, 5]) == M
    for part in ([4, 9], [0, 4], [-1, 4, 5]):
        with pytest.raises(ValueError, match="vertex range 1..5"):
            reduce_star(M, part)


def test_reduce_star_is_the_tuple_filter():
    rng = random.Random(20)
    for _ in range(200):
        n = rng.randint(3, 9)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        M = UniformHypergraph(3, n, rng.sample(pool, rng.randint(0, len(pool))))
        part = rng.sample(range(1, n + 1), rng.choice([0, 1, 2, rng.randint(3, n)]))
        assert reduce_star(M, part) == reduce_star_reference(M, part), (edges(M), part)
    # a part that holds no edge only gains its star
    M = UniformHypergraph(3, 7, [(1, 2, 5), (3, 6, 7)])
    assert edges(reduce_star(M, [2, 3, 4, 6])) == ((1, 2, 5), (2, 3, 4), (2, 3, 6), (3, 6, 7))


def test_reduce_star_never_decreases_optimum_under_sparsity_cap():
    """Operational form of the reduction claim: when the part's internal
    edges respect the |part| - 2 cap, star replacement cannot lower the
    optimized Lagrangian."""
    rng = random.Random(19)
    cfg = OptimizerConfig(restarts=8, max_iters=300, seed=9)
    for _ in range(8):
        s1 = rng.randint(3, 5)
        part = list(range(1, s1 + 1))
        outside = list(range(s1 + 1, s1 + 4))
        pool_in = list(itertools.combinations(part, 3))
        internal = rng.sample(pool_in, min(rng.randint(0, s1 - 2), len(pool_in)))
        cross = [(part[0], outside[0], outside[1]), (part[1], outside[1], outside[2])]
        M = UniformHypergraph(3, s1 + 3, internal + cross)
        N = reduce_star(M, part)
        vm = maximize_lagrangian(M, cfg).value
        vn = maximize_lagrangian(N, cfg).value
        assert vn >= vm - 1e-9


# ---------------------------------------------------------------------------
# the 2/25 certificate
# ---------------------------------------------------------------------------

def test_certify_theorem1_quick():
    rep = certify_theorem1(grid_resolution=60, refine_iters=200, tol=1e-9)
    assert rep.overall
    names = [c.case_name for c in rep.cases]
    assert names == ["c=0", "a=0", "b=0", "d=0", "interior", "global"]
    by_name = {c.case_name: c for c in rep.cases}
    assert by_name["global"].bound_found == pytest.approx(0.08, abs=1e-9)
    assert by_name["c=0"].bound_found == pytest.approx(1 / 27)
    assert by_name["d=0"].bound_found < 0.076
    assert by_name["b=0"].method == "exact"
    blob = to_json(rep)
    assert blob["overall"] and blob["theorem"] == "t1"


def test_report_json_renames_and_encodes_fields():
    verdict = CaseVerdict("a=0", F(2, 25), 0.08, "exact", True, witness=(0.0, 0.4, 0.4, 0.2))
    blob = to_json(verdict)
    assert list(blob) == ["case", "bound_claimed", "bound_found", "method", "pass",
                          "witness", "tol", "detail"]
    assert blob["bound_claimed"] == exact_to_json(F(2, 25))
    assert blob["witness"] == [0.0, 0.4, 0.4, 0.2]
    result = maximize_lagrangian(UniformHypergraph(3, 3, [(1, 2, 3)]))
    assert to_json(result)["argmax"] == list(result.argmax.weights)
    assert to_json(result)["support"] == [1, 2, 3]


def test_certify_theorem1_coarse_grid_fails():
    rep = certify_theorem1(grid_resolution=2, refine_iters=0, tol=1e-9)
    by_name = {c.case_name: c for c in rep.cases}
    assert not by_name["global"].passed
    assert not rep.overall


def test_certify_theorem1_fails_on_a_perturbed_bound_polynomial(monkeypatch):
    # the a^2 b / 4 term changed to a^2 b / 5: the exact faces must notice
    def perturbed(a, b, c, d):
        return theorem1_bound_poly(a, b, c, d) - a * a * b / 20

    monkeypatch.setattr(certify, "theorem1_bound_poly", perturbed)
    rep = certify_theorem1(grid_resolution=20, refine_iters=20)
    by_name = {c.case_name: c for c in rep.cases}
    assert not by_name["c=0"].passed and not by_name["d=0"].passed
    assert not rep.overall


def test_certify_theorem1_interior_reads_the_bound_polynomial(monkeypatch):
    # (a + b) c d changed to (a/2 + b) c d: the maximum stays 2/25 and the
    # other faces still pass, but the quartic's roots stop being stationary
    # and moving a's weight onto b no longer adds exactly a^2 c/4
    def perturbed(a, b, c, d):
        return theorem1_bound_poly(a, b, c, d) - a * c * d / 2

    monkeypatch.setattr(certify, "theorem1_bound_poly", perturbed)
    rep = certify_theorem1(grid_resolution=20, refine_iters=20)
    assert [c.case_name for c in rep.cases if not c.passed] == ["b=0", "interior"]
    assert not rep.overall


def test_certify_theorem1_b0_reads_the_bound_polynomial(monkeypatch):
    # the b^2 c / 2 term changed to 2 b^2 c / 5: the b=0 majorization identity breaks
    def perturbed(a, b, c, d):
        return theorem1_bound_poly(a, b, c, d) - b * b * c / 10

    monkeypatch.setattr(certify, "theorem1_bound_poly", perturbed)
    rep = certify_theorem1(grid_resolution=20, refine_iters=20)
    by_name = {c.case_name: c for c in rep.cases}
    assert not by_name["b=0"].passed
    assert not rep.overall


# ---------------------------------------------------------------------------
# the alpha_k/6 certificate
# ---------------------------------------------------------------------------

def test_certify_theorem3_k2_quick():
    rep = certify_theorem3(2, grid_resolution=80, tol=1e-8, refine_iters=200)
    assert rep.overall
    by_name = {c.case_name: c for c in rep.cases}
    target = float(alpha_k(2)) / 6
    assert by_name["global"].bound_found <= target + 1e-8
    assert by_name["global"].bound_found == pytest.approx(target, abs=1e-6)
    assert by_name["monotone-chain"].passed and by_name["early-collapse"].passed


def test_certify_theorem3_fails_on_a_perturbed_bound(monkeypatch):
    # the a^2 b / 4 term changed to a^2 b / 5, in the certificate and the chain
    def perturbed(w, a, k):
        return theorem3_bound(w, a, k) - a * a * (1 - w - a) / 20

    monkeypatch.setattr(certify, "theorem3_bound", perturbed)
    monkeypatch.setattr(closedform, "theorem3_bound", perturbed)
    rep = certify_theorem3(2, grid_resolution=20, refine_iters=20)
    by_name = {c.case_name: c for c in rep.cases}
    assert not by_name["early-collapse"].passed and not by_name["monotone-chain"].passed
    assert not rep.overall


def test_certify_theorem3_rejects_small_k():
    with pytest.raises(ValueError):
        certify_theorem3(1)


# ---------------------------------------------------------------------------
# density gain
# ---------------------------------------------------------------------------

def test_small_profile_budget_rejected_before_any_case(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("grid+refine ran before the options were checked")

    monkeypatch.setattr(certify, "_grid_refine_max", no_search)
    with pytest.raises(ValueError, match="profile budget"):
        certify_theorem1(profile_s=2)
    with pytest.raises(ValueError, match="profile budget"):
        certify_theorem3(2, profile_s=2)


def test_density_gain_t1_exact_values():
    rep = check_blowup_density_gain("t1", 25, s=3, c=1.0, seed=0)
    assert rep.adder_edges == 100 == rep.recipe_adder_edges
    assert rep.bound == F(1275, 15625) == F(2, 25) + F(1, 625)
    assert rep.margin == F(1, 625)
    assert rep.deficit_achieved == rep.deficit_ideal == F(3 * 625, 25)
    assert rep.passed
    blob = to_json(rep)
    assert blob["pass"] and blob["bound"]["p"] == "51/625"


def test_density_gain_t3_small():
    rep = check_blowup_density_gain("t3", 60, s=3, c=2.0, seed=3, k=2)
    assert isinstance(rep.margin, Surd)
    assert rep.passed == (rep.margin.sign() > 0)
    assert rep.adder_edges >= rep.recipe_adder_edges
    assert rep.passed
    # achieved shortfall is what the adder must clear
    assert (F(rep.base_edges + rep.adder_edges, 60**3) - rep.target).sign() > 0


def test_density_gain_t3_recipe_scale():
    # at t = 200 the apex part has 96 vertices, so the recipe asks for
    # k * 96^2 = 18432 adder edges; meeting it pushes the bound past alpha_2/6
    rep = check_blowup_density_gain("t3", 200, s=3, c=2.0, seed=3, k=2)
    assert rep.recipe_adder_edges == 2 * 96**2
    assert rep.adder_edges >= rep.recipe_adder_edges
    assert rep.passed and rep.margin.sign() > 0
    assert (rep.deficit_achieved - F(0)).sign() > 0


def _materialized_density_gain(kind, t, s, c, seed, k=None):
    """Reference accounting that builds the base and G* and reads |E|."""
    if kind == "t1":
        base, target = build_theorem1_base(t), F(2, 25)
        lo, hi = pattern_parts(theorem1_pattern(), t)[0]
    else:
        pattern = build_theorem3_pattern(k)
        base, target = instantiate_pattern(pattern, t), alpha_k(k) / 6
        lo, hi = pattern_parts(pattern, t)[-1]
    adder = generate_sparse_adder(SparseAdderParams(s=s, c=c, t=hi - lo + 1, seed=seed))
    gstar = assemble_gstar(base, adder, range(lo, hi + 1))
    bound = F(gstar.m, t**3)
    return {"base_edges": base.m, "adder_edges": gstar.m - base.m,
            "bound": bound, "margin": bound - target}


@pytest.mark.parametrize("kind,t,k,s,c,seed", [
    ("t1", 25, None, 3, 1.0, 0),
    ("t1", 50, None, 4, 0.15, 1),
    ("t3", 60, 2, 3, 2.0, 3),
    ("t3", 70, 3, 3, 1.0, 0),
])
def test_density_gain_counts_match_materialized_gstar(kind, t, k, s, c, seed):
    rep = check_blowup_density_gain(kind, t, s=s, c=c, seed=seed, k=k)
    ref = _materialized_density_gain(kind, t, s, c, seed, k)
    got = {name: getattr(rep, name) for name in ref}
    assert got == ref


def test_density_gain_refuses_a_template_inside_the_target_part(monkeypatch):
    real = build_theorem3_pattern(2)
    apex = real.num_parts
    inside = PartitionPattern(real.r, real.part_weights, real.templates + ((apex,) * 3,))
    monkeypatch.setattr(certify, "build_theorem3_pattern", lambda k: inside)
    with pytest.raises(ValueError, match="inside the target part"):
        check_blowup_density_gain("t3", 60, s=3, c=2.0, seed=3, k=2)
    # the guard refuses exactly what assembling G* would refuse
    lo, hi = pattern_parts(inside, 60)[-1]
    adder = generate_sparse_adder(SparseAdderParams(s=3, c=2.0, t=hi - lo + 1, seed=3))
    with pytest.raises(ValueError, match="already in the base"):
        assemble_gstar(instantiate_pattern(inside, 60), adder, range(lo, hi + 1))


def test_density_gain_rejects_bad_kind():
    with pytest.raises(ValueError):
        check_blowup_density_gain("t2", 25)
    with pytest.raises(ValueError):
        check_blowup_density_gain("t3", 60)   # missing k
    with pytest.raises(ValueError, match="k >= 2"):
        check_blowup_density_gain("t3", 60, k=1)
    with pytest.raises(ValueError, match="multiple of 5"):
        check_blowup_density_gain("t1", 23)


# ---------------------------------------------------------------------------
# the certified families
# ---------------------------------------------------------------------------

def _pattern_lagrangian(pattern):
    """Exact limit Lagrangian of the pattern at its own part weights: the sum
    over templates of prod w_i^m_i / m_i!."""
    total = F(0)
    for template in pattern.templates:
        term = F(1)
        for part in set(template):
            m = template.count(part)
            term = math.prod([pattern.part_weights[part - 1]] * m, start=term) / math.factorial(m)
        total = total + term
    return total


@pytest.mark.parametrize("kind,k", [("t1", None)] + [("t3", k) for k in range(2, 7)])
def test_family_constant_is_attained_by_its_pattern(kind, k):
    pattern, part, constant = certify.family(kind, k)
    assert constant == (F(2, 25) if kind == "t1" else alpha_k(k) / 6)
    assert _pattern_lagrangian(pattern) == constant


def test_part_classes():
    assert certify._part_classes(theorem1_pattern(), 1) == [[2], [3]]
    for k in (2, 3, 4):
        pattern = build_theorem3_pattern(k)
        assert certify._part_classes(pattern, pattern.num_parts) == [list(range(1, 2 * k + 1))]
    # every swap of the complete 3-partite pattern is an automorphism, yet
    # the special part is never merged
    complete = PartitionPattern(3, (F(1, 3),) * 3, ((1, 2, 3),))
    assert certify._part_classes(complete, 2) == [[1, 3]]


def _t1_profiles(s):
    """Hand-written reference: every (s1, s2, s3) of total size 1..s."""
    for s1 in range(s + 1):
        for s2 in range(s - s1 + 1):
            for s3 in range(s - s1 - s2 + 1):
                if s1 + s2 + s3 >= 1:
                    yield (s1, s2, s3)


def _t3_profiles(k, s):
    """Hand-written reference: profiles up to total size s, the first 2k
    parts canonicalized descending."""
    def partitions(total, parts, cap):
        if parts == 0:
            if total == 0:
                yield ()
            return
        for first in range(min(total, cap), -1, -1):
            for rest in partitions(total - first, parts - 1, first):
                yield (first,) + rest

    for first_total in range(s + 1):
        for shape in partitions(first_total, 2 * k, first_total):
            for apex in range(s - first_total + 1):
                if first_total + apex >= 1:
                    yield shape + (apex,)


@pytest.mark.parametrize("s,count", [(3, 19), (4, 34), (5, 55), (6, 83), (7, 119)])
def test_t1_profiles_match_the_reference(s, count):
    pattern, part, _ = certify.family("t1")
    profiles = certify._profiles(pattern, part, s)
    assert profiles == list(_t1_profiles(s))
    assert len(profiles) == count


@pytest.mark.parametrize("k,counts", [(2, (13, 25, 43, 70)), (3, (13, 25, 44, 74))])
def test_t3_profiles_match_the_reference(k, counts):
    pattern, part, _ = certify.family("t3", k)
    for s, count in zip(range(3, 7), counts):
        profiles = certify._profiles(pattern, part, s)
        assert set(profiles) == set(_t3_profiles(k, s))
        assert len(profiles) == count == len(set(profiles))


# ---------------------------------------------------------------------------
# profile enumeration
# ---------------------------------------------------------------------------

def test_profiles_t1():
    rep = enumerate_profiles_and_bound("t1", 5)
    assert rep.passed and rep.profiles_checked == 55
    assert rep.worst_value <= 2 / 25 + 1e-7


def test_profiles_t1_star_value():
    # profile (s, 0, 0) reduces to the star, whose optimum is 1/27
    from hyperlag.certify import _profile_graph
    star = _profile_graph(theorem1_pattern(), 1, (5, 0, 0))
    value = maximize_lagrangian(star, OptimizerConfig(restarts=6, max_iters=400, seed=3)).value
    assert value == pytest.approx(1 / 27, abs=1e-8)


def test_profiles_t3_k2():
    rep = enumerate_profiles_and_bound("t3", 5, k=2)
    assert rep.passed
    assert rep.worst_value <= float(alpha_k(2)) / 6 + 1e-7


def test_profiles_t3_all_singletons():
    # five singleton parts give a complete pattern slice on 5 vertices
    from hyperlag.certify import _profile_graph
    G = _profile_graph(build_theorem3_pattern(2), 5, (1, 1, 1, 1, 1))
    value = maximize_lagrangian(G, OptimizerConfig(restarts=6, max_iters=400, seed=3)).value
    assert value <= float(alpha_k(2)) / 6 + 1e-7


def test_grid_search_unaffected_by_chunking():
    from hyperlag.certify import _grid_refine_max
    from hyperlag.closedform import theorem1_bound_gradient, theorem1_bound_poly

    fn, grad = theorem1_bound_poly, theorem1_bound_gradient
    whole = _grid_refine_max(fn, grad, 4, 24, 50, 20)
    for cap in (500, 7):
        value, witness = _grid_refine_max(fn, grad, 4, 24, 50, 20, cap=cap)
        assert value == whole[0] and witness.tobytes() == whole[1].tobytes()


def _integer_cubic(dims, seed):
    """A cubic with small random integer coefficients, as a broadcasting
    elementwise expression, and its gradient: (p.x)(q.x)(u.x) + sum c_i x_i^3.
    It is symmetric in its first two coordinates, so grid values tie."""
    coef = np.random.default_rng(seed).integers(-3, 4, size=(4, dims))
    coef[:, 1] = coef[:, 0]
    p, q, u, c = coef.tolist()

    def dot(w, x):
        return sum(wi * xi for wi, xi in zip(w, x))

    def fn(*x):
        return dot(p, x) * dot(q, x) * dot(u, x) + dot(c, [xi * xi * xi for xi in x])

    def grad(*x):
        P, Q, U = dot(p, x), dot(q, x), dot(u, x)
        return tuple(p[i] * Q * U + q[i] * P * U + u[i] * P * Q + 3 * c[i] * x[i] * x[i]
                     for i in range(dims))
    return fn, grad


@pytest.mark.parametrize("dims", [3, 4, 5])
def test_grid_search_matches_dense_reference(dims):
    from hyperlag.certify import _grid_refine_max
    from hyperlag.closedform import theorem1_bound_gradient
    from hyperlag.optimize import _LATTICE_CAP

    fns = [_integer_cubic(dims, 33)]  # tied at the top for every dims and N here
    if dims == 4:
        fns.append((theorem1_bound_poly, theorem1_bound_gradient))
    ties = 0
    for (fn, grad), N in itertools.product(fns, (1, 2, 7, 24, 37)):
        vals, pts = grid_top_reference(fn, dims, N, 5)
        ties += vals[0] == vals[1]
        for cap in (1, 7, 500, _LATTICE_CAP):
            value, witness = _grid_refine_max(fn, grad, dims, N, 0, 5, cap=cap)
            assert value == vals[0] and witness.tobytes() == pts[0].tobytes()
    assert ties  # the order among tied points is exercised


def test_grid_search_needs_a_candidate():
    from hyperlag.certify import _grid_refine_max
    from hyperlag.closedform import theorem1_bound_gradient

    with pytest.raises(ValueError, match="top"):
        _grid_refine_max(theorem1_bound_poly, theorem1_bound_gradient, 4, 4, 0, 0)
