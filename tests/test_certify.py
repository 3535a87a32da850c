"""Certification pipelines: star reduction, case analyses, density gain, profiles."""

import itertools
import math
import random
import warnings
from fractions import Fraction as F

import numpy as np
import pytest

from hyperlag.certify import (
    CaseVerdict,
    certify_theorem1,
    certify_theorem3,
    check_blowup_density_gain,
    enumerate_profiles_and_bound,
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
    blow_up_pattern,
    build_theorem1_base,
    build_theorem3_pattern,
    generate_sparse_adder,
    instantiate_pattern,
    pattern_parts,
    star_split,
    theorem1_pattern,
)
from hyperlag.hypercore import UniformHypergraph
from hyperlag.optimize import OptimizerConfig, maximize_lagrangian
from reference import bernstein_bound_reference, grid_top_reference, reduce_star_reference


# ---------------------------------------------------------------------------
# star reduction
# ---------------------------------------------------------------------------

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
        N = reduce_star_reference(M, part)
        vm = maximize_lagrangian(M, cfg).value
        vn = maximize_lagrangian(N, cfg).value
        assert vn >= vm - 1e-9


# ---------------------------------------------------------------------------
# the 2/25 certificate
# ---------------------------------------------------------------------------

def test_certify_theorem1_quick():
    rep = certify_theorem1(grid_resolution=60, refine_iters=200)
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
    rep = certify_theorem1(grid_resolution=2, refine_iters=0)
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


def test_certify_theorem1_a0_reads_the_bound_polynomial(monkeypatch):
    # a term that vanishes at b = 2d and on the b=0 and d=0 edges keeps 2/25
    # at (0, 2/5, 2/5, 1/5), but that point stops being stationary on a=0
    def perturbed(a, b, c, d):
        return theorem1_bound_poly(a, b, c, d) + (b - 2 * d) * b * c * d / 10

    monkeypatch.setattr(certify, "theorem1_bound_poly", perturbed)
    by_name = {c.case_name: c for c in certify_theorem1(grid_resolution=20, refine_iters=20).cases}
    assert by_name["a=0"].bound_found == pytest.approx(0.08)
    assert not by_name["a=0"].passed


def test_certify_theorem1_b0_reads_the_bound_polynomial(monkeypatch):
    # the b^2 c / 2 term changed to 2 b^2 c / 5: the b=0 majorization identity breaks
    def perturbed(a, b, c, d):
        return theorem1_bound_poly(a, b, c, d) - b * b * c / 10

    monkeypatch.setattr(certify, "theorem1_bound_poly", perturbed)
    rep = certify_theorem1(grid_resolution=20, refine_iters=20)
    by_name = {c.case_name: c for c in rep.cases}
    assert not by_name["b=0"].passed
    assert not rep.overall


def test_certify_theorem1_ascent_climbs_the_polynomial_it_scores(monkeypatch):
    # tilted by (b - c) d / 1000, the polynomial peaks at 0.08000029654768
    # (grid 200, refine 2,000); an ascent along the untilted gradient stalls
    # at 0.0800002772
    def tilted(a, b, c, d):
        return theorem1_bound_poly(a, b, c, d) + (b - c) * d / 1000

    monkeypatch.setattr(certify, "theorem1_bound_poly", tilted)
    by_name = {c.case_name: c for c in certify_theorem1(20, 200).cases}
    assert by_name["global"].bound_found > 0.0800002965


def test_certificates_cast_no_complex_value_to_float():
    # the complex-step partials go through the simplex check and the ascent;
    # a cast that drops an imaginary part warns, and here fails
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert certify_theorem1(40, 20).overall
    # the check reads the real point a complex-step point moves
    step = 2.0 ** -600 * 1j
    cols = np.array([[0.25, -0.25], [0.25, 0.5], [0.25, 0.5], [0.25, 0.25]]) + step
    with pytest.raises(ValueError, match="negative"):
        theorem1_bound_poly(*cols)
    assert theorem1_bound_poly(*cols[:, :1]).imag.all()


# ---------------------------------------------------------------------------
# the alpha_k/6 certificate
# ---------------------------------------------------------------------------

def test_certify_theorem3_k2_quick():
    rep = certify_theorem3(2)
    assert rep.overall
    assert [c.case_name for c in rep.cases] == ["early-collapse", "monotone-chain"]
    assert rep.parameters == {"k": 2, "profile_s": None}
    target = float(alpha_k(2)) / 6
    assert all(c.bound_found == pytest.approx(target) for c in rep.cases)


def test_certify_theorem3_runs_no_numeric_search(monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("certify_theorem3 ran the grid+refine search")

    monkeypatch.setattr(certify, "_grid_refine_max", no_search)
    for k in range(2, 7):
        rep = certify_theorem3(k)
        assert rep.overall, k
        assert {c.method for c in rep.cases} == {"exact"}, k


def test_certify_theorem3_fails_on_a_perturbed_bound(monkeypatch):
    # the a^2 b / 4 term changed to a^2 b / 5, in the certificate and the chain
    def perturbed(w, a, k):
        return theorem3_bound(w, a, k) - a * a * (1 - w - a) / 20

    monkeypatch.setattr(certify, "theorem3_bound", perturbed)
    monkeypatch.setattr(closedform, "theorem3_bound", perturbed)
    rep = certify_theorem3(2)
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
    # s = 10 vertices at the top degree 30: C(39, 9) = 211,915,132 lattice points
    for s in (2, 10):
        with pytest.raises(ValueError, match="profile budget"):
            certify_theorem1(profile_s=s)
        with pytest.raises(ValueError, match="profile budget"):
            certify_theorem3(2, profile_s=s)
    certify._require_profile_budget(9)


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
    assert rep.passed and rep.profiles_checked == 55 and rep.open_profiles == ()
    assert rep.worst_value <= F(2, 25)


@pytest.mark.parametrize("kind,k,s", [("t1", None, 7), ("t3", 2, 6), ("t3", 3, 6)])
def test_profile_graph_is_the_star_reduced_blow_up(kind, k, s):
    # against the edge filter (drop every edge inside the part, add the star
    # through its two lowest vertices), and against one blow-up of the
    # star-split pattern, both centres of size 1
    pattern, part, _ = certify.family(kind, k)
    split = star_split(pattern, part)
    for profile in certify._profiles(pattern, part, s):
        lo, m = sum(profile[:part - 1]) + 1, profile[part - 1]
        got = certify._profile_graph(pattern, part, profile)
        assert got == reduce_star_reference(blow_up_pattern(pattern, profile),
                                            range(lo, lo + m)), profile
        sizes = profile[:part - 1] + (min(m, 1), int(m >= 2), max(m - 2, 0)) + profile[part:]
        assert got == blow_up_pattern(split, sizes), profile


def test_a_profile_no_degree_closes_is_open_and_fails(monkeypatch):
    monkeypatch.setattr(certify, "_PROFILE_DEGREES", (6,))
    rep = certify_theorem1(20, 20, profile_s=5)
    by_name = {c.case_name: c for c in rep.cases}
    assert not by_name["profiles"].passed and not rep.overall
    assert [c.case_name for c in rep.cases if not c.passed] == ["profiles"]
    # open: exactly the profiles whose degree-6 Bernstein bound, scored in
    # Fractions, exceeds 2/25
    pattern, part, _ = certify.family("t1")
    want = [p for p in certify._profiles(pattern, part, 5)
            if bernstein_bound_reference(certify._profile_graph(pattern, part, p), 6) > F(2, 25)]
    assert (4, 1, 0) in want and len(want) < 55
    assert by_name["profiles"].detail.endswith(str(want))
    assert by_name["profiles"].bound_found > 2 / 25


def test_profiles_t1_star_value():
    # profile (s, 0, 0) reduces to the star, whose optimum is 1/27
    from hyperlag.certify import _profile_graph
    star = _profile_graph(theorem1_pattern(), 1, (5, 0, 0))
    value = maximize_lagrangian(star, OptimizerConfig(restarts=6, max_iters=400, seed=3)).value
    assert value == pytest.approx(1 / 27, abs=1e-8)


def test_profiles_t3_k2():
    rep = enumerate_profiles_and_bound("t3", 5, k=2)
    assert rep.passed and rep.open_profiles == ()
    assert rep.worst_value <= alpha_k(2) / 6


def test_profiles_case_names_the_closing_degree():
    # (0, 5, 1) is closed at d = 6 by a bound of exactly 2/25; its Lagrangian is 0.0593
    rep = enumerate_profiles_and_bound("t1", 6)
    assert (rep.worst_profile, rep.worst_degree, rep.worst_value) == ((0, 5, 1), 6, F(2, 25))
    case = certify_theorem1(20, 0, profile_s=6).cases[-1]
    assert case.case_name == "profiles" and case.bound_found == 0.08
    assert "worst profile (0, 5, 1)" in case.detail and "degree d = 6" in case.detail
    assert "not its Lagrangian" in case.detail


@pytest.mark.parametrize("kind,k,s,report", [
    ("t1", None, 7, (119, F(2, 25), (0, 5, 1), 6)),
    ("t3", 2, 6, (70, F(13, 120), (1, 1, 0, 0, 4), 6)),
])
def test_profile_sweep_finds_each_quotient_once(monkeypatch, kind, k, s, report):
    import hyperlag.optimize as optimize

    graphs, quotients = [], []
    profile_graph, quotient = certify._profile_graph, optimize.quotient
    monkeypatch.setattr(certify, "_profile_graph", lambda *a: graphs.append(profile_graph(*a)) or graphs[-1])
    monkeypatch.setattr(optimize, "quotient", lambda G: quotients.append(G) or quotient(G))
    rep = enumerate_profiles_and_bound(kind, s, k=k)
    assert (rep.profiles_checked, rep.worst_value, rep.worst_profile, rep.worst_degree) == report
    assert rep.open_profiles == () and rep.passed
    # one quotient per profile graph with edges, though many take several degrees
    assert quotients == [G for G in graphs if G.m]


def test_profiles_t3_all_singletons():
    # five singleton parts give a complete pattern slice on 5 vertices
    from hyperlag.certify import _profile_graph
    G = _profile_graph(build_theorem3_pattern(2), 5, (1, 1, 1, 1, 1))
    value = maximize_lagrangian(G, OptimizerConfig(restarts=6, max_iters=400, seed=3)).value
    assert value <= float(alpha_k(2)) / 6 + 1e-7


def _integer_cubic(dims, seed):
    """A cubic with small random integer coefficients, as a broadcasting
    elementwise expression: (p.x)(q.x)(u.x) + sum c_i x_i^3.  It is
    symmetric in its first two coordinates, so grid values tie."""
    coef = np.random.default_rng(seed).integers(-3, 4, size=(4, dims))
    coef[:, 1] = coef[:, 0]
    p, q, u, c = coef.tolist()

    def dot(w, x):
        return sum(wi * xi for wi, xi in zip(w, x))

    def fn(*x):
        return dot(p, x) * dot(q, x) * dot(u, x) + dot(c, [xi * xi * xi for xi in x])
    return fn


@pytest.mark.parametrize("dims", [4])
def test_grid_search_matches_dense_reference(dims):
    from hyperlag.certify import _grid_refine_max

    # the integer cubic is tied at the top for every N here
    fns = [_integer_cubic(dims, 33), theorem1_bound_poly]
    ties = 0
    for fn, N in itertools.product(fns, (1, 2, 7, 24, 37)):
        vals, pts = grid_top_reference(fn, dims, N, 5)
        ties += vals[0] == vals[1]
        value, witness = _grid_refine_max(fn, N, 0)
        assert value == vals[0] and witness.tobytes() == pts[0].tobytes()
    assert ties  # the order among tied points is exercised


def test_grid_search_evaluates_real_columns_only_in_the_scan():
    # the ascent reads each trial's value and gradient off one complex call
    from hyperlag.certify import _grid_refine_max

    def counted(fn):
        def wrapped(*cols):
            calls[0] += not any(np.iscomplexobj(c) for c in cols)
            return fn(*cols)
        return wrapped

    calls = [0]
    _grid_refine_max(counted(theorem1_bound_poly), 24, 20)
    assert calls == [25]  # one per scan block, one block per sum a + b
