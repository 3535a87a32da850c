"""Machine-checked certificates for the two bound constants.

The 2/25 certificate walks the full stationary case analysis of the bound
polynomial on the 4-simplex: the four faces close exactly (rational or surd
arithmetic end to end; b=0 by an exact majorization onto a=0), the interior
closes through the expanded stationarity quartic, and a grid-plus-refinement
search over the whole simplex confirms where the maximum sits; the search
scores and ascends the one bound polynomial the exact cases prove, taking
each value and its partial derivatives from one complex-step call.  The
alpha_k/6 certificate is exact end to end: the early-case collapse and the
monotone chain together cover every point.  The optional profile case
bounds each small profile exactly (``bernstein_bound``).

Policy throughout: a numeric search is never the bound of record on its
own; every "<=" that matters is paired with an exact case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .closedform import (
    RationalPolynomial,
    Surd,
    alpha_k,
    astar_weight,
    f_b2k_poly,
    theorem1_bound_poly,
    theorem3_bound,
    theorem3_bound_chain,
    theorem3_c0,
    verify_theorem1_quartic_identity,
)
from .constructions import (
    PartitionPattern,
    SparseAdderParams,
    _require_mult_of_5,
    assemble_gstar,
    blow_up_pattern,
    build_theorem3_pattern,
    generate_sparse_adder,
    pattern_edge_count,
    pattern_parts,
    theorem1_pattern,
)
from .hypercore import UniformHypergraph
from .optimize import _ascend, _bernstein_bounds, _compositions, _require_grid
# unused here: bench/test_bench.py checks that the tracer wraps project_to_simplex
from .optimize import project_to_simplex  # noqa: F401

__all__ = [
    "CaseVerdict",
    "CertificateReport",
    "DensityGainReport",
    "ProfilesReport",
    "family",
    "gstar_target",
    "certify_theorem1",
    "certify_theorem3",
    "check_blowup_density_gain",
    "enumerate_profiles_and_bound",
]

T1_CONSTANT = Fraction(2, 25)
# how far above its constant a grid+refine maximum may land and still pass
_T1_TOL = 1e-9
# the best lattice points a grid+refine search refines
_REFINE_STARTS = 100
# the lattice degrees d at which a profile's exact upper bound is tried, in order
_PROFILE_DEGREES = (6, 10, 15, 20, 25, 30)
# the variable of the one-variable substitutions into the bound polynomials
_X = RationalPolynomial((0, 1))
_ZERO = Fraction(0)


def family(kind: str, k: int | None = None) -> tuple[PartitionPattern, int, object]:
    """The certified family behind ``kind``: its weighted pattern, the part
    (1-based) that receives the sparse adder in G* and the star in a profile,
    and the exact constant its certificate proves.

    ``"t1"`` is the three-part pattern with part 1 and 2/25, and takes no k;
    ``"t3"`` is the (2k+1)-part pattern with its apex part and alpha_k/6, for
    k >= 2.
    """
    if kind == "t1":
        if k is not None:
            raise ValueError(f"kind 't1' takes no k, got k = {k}")
        return theorem1_pattern(), 1, T1_CONSTANT
    if kind == "t3":
        if k is None or k < 2:
            raise ValueError("kind 't3' needs k >= 2")
        pattern = build_theorem3_pattern(k)
        return pattern, pattern.num_parts, alpha_k(k) / 6
    raise ValueError(f"unknown kind {kind!r}, expected 't1' or 't3'")


def gstar_target(kind: str, t: int, k: int | None = None) -> tuple[PartitionPattern, int, object]:
    """``family(kind, k)`` for a G* on t vertices; the 2/25 pattern needs t
    to be a multiple of 5 with t >= 10."""
    if kind == "t1":
        _require_mult_of_5(t)
    return family(kind, k)


@dataclass(frozen=True)
class CaseVerdict:
    """One verified case: pass means bound_found <= bound_claimed + tol."""

    case_name: str
    bound_claimed: object
    bound_found: float
    method: str  # "exact" | "grid+refine"
    passed: bool
    witness: tuple[float, ...] | None = None
    tol: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class CertificateReport:
    theorem: str
    k: int | None
    cases: tuple[CaseVerdict, ...]
    profiles_checked: int
    overall: bool
    parameters: dict


# ---------------------------------------------------------------------------
# Grid + refinement machinery
# ---------------------------------------------------------------------------

def _lattice_blocks(resolution: int):
    """The lattice points a/N of the 4-simplex, N = ``resolution``, as blocks
    of one broadcasting array per coordinate, each block in lexicographic
    order along its flat index.

    Each block is one sum s = a + b: (a, b) are two (s + 1, 1) column views
    of one row v = (0, 1, ..., N) / N and (c, d) two row views, so a block is
    (s + 1, N - s + 1) points and no point is built."""
    v = np.arange(resolution + 1) / resolution
    for s in range(resolution + 1):
        rest = resolution - s
        yield v[:s + 1, None], v[s::-1, None], v[:rest + 1], v[rest::-1]


def _complex_step(fn: Callable, P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value and every partial derivative of ``fn`` at each row of P,
    from one call by the complex step: with n the width of P, coordinate i
    is an (n, B) column whose row j is P moved by the imaginary step h*1j
    along e_j, and the imaginary part over h is the derivative along e_j.
    Every term in h^2 underflows to 0 and h is a power of two, so for a
    formula built from +, -, * and division by powers of two, as both bound
    polynomials are, each partial is exact to rounding and the real part
    equals the real evaluation bit for bit."""
    h = 2.0 ** -600
    Z = fn(*(P.T[:, None] + h * 1j * np.eye(P.shape[1])[:, :, None]))
    return Z.real[0], Z.imag.T / h


def _grid_refine_max(fn: Callable, resolution: int,
                     refine_iters: int) -> tuple[float, np.ndarray]:
    """Maximize fn over the 4-simplex: score every barycentric lattice point,
    keep the ``_REFINE_STARTS`` best by value, ties to the lexicographically
    smaller point, then run projected ascent from them, as one batch, until
    each row reaches the float floor or ``refine_iters`` steps.

    ``fn`` must be an elementwise numpy expression that broadcasts and takes
    complex columns: it scores each block of ``_lattice_blocks`` on real
    columns, and the ascent reads each trial's value and gradient off one
    ``_complex_step`` call."""
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters}")
    best_vals, best_pts = np.empty(0), np.empty((0, 4))
    for cols in _lattice_blocks(resolution):
        shape = np.broadcast(*cols).shape
        vals = np.broadcast_to(fn(*cols), shape).ravel()
        # below the block's own top-th value nothing can be kept; a point
        # tied with the last one kept may still win on order
        k = min(_REFINE_STARTS, vals.size)
        floor = best_vals[-1] if best_vals.size == _REFINE_STARTS else np.partition(vals, -k)[-k]
        idx = np.flatnonzero(vals >= floor)
        if not idx.size:
            continue
        at = np.unravel_index(idx, shape)
        best_vals = np.concatenate([best_vals, vals[idx]])
        best_pts = np.vstack([best_pts, np.column_stack([np.broadcast_to(c, shape)[at]
                                                         for c in cols])])
        order = np.lexsort((*best_pts.T[::-1], -best_vals))[:_REFINE_STARTS]
        best_vals, best_pts = best_vals[order], best_pts[order]

    def evaluate(P):
        F, G = _complex_step(fn, P)
        return F, lambda rows: G[rows]

    X, F, _ = _ascend(evaluate, best_pts, refine_iters)
    # a refined point wins only when strictly better; of equal ones, the first
    best = int(np.argmax(F))
    if F[best] > best_vals[0]:
        return float(F[best]), X[best]
    return float(best_vals[0]), best_pts[0]


# ---------------------------------------------------------------------------
# The 2/25 certificate
# ---------------------------------------------------------------------------

def _case_c0() -> CaseVerdict:
    # the objective collapses to a^2 b / 4; exact 1-d maximization on the edge
    crit, peak = theorem1_bound_poly(_X, 1 - _X, _ZERO, _ZERO).peak(0, 1)
    ok = (crit, peak) == (Fraction(2, 3), Fraction(1, 27)) and peak < T1_CONSTANT
    return CaseVerdict(
        "c=0", Fraction(1, 27), float(peak), "exact", ok,
        witness=(2 / 3, 1 / 3, 0.0, 0.0),
        detail="a^2 b/4 peaks at a=2/3, b=1/3 with value exactly 1/27 < 2/25",
    )


def _moving(point, coords) -> list[int]:
    """The coordinates i in ``coords`` along whose direction e_i - e_d the
    bound polynomial has a nonzero derivative at ``point``; none means the
    point is stationary on the face those coordinates span with d."""
    return [i for i in coords
            if theorem1_bound_poly(*(x + ((j == i) - (j == 3)) * _X
                                     for j, x in enumerate(point))).derivative()(_ZERO)]


def _case_a0() -> CaseVerdict:
    # stationarity at b = c = 2d = 2/5, exactly, within the a=0 face
    point = (_ZERO, Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    val = theorem1_bound_poly(*point)
    # the boundary edges b = 0 and d = 0 of this face peak at 2/27
    edges = (
        theorem1_bound_poly(_ZERO, _ZERO, _X, 1 - _X),
        theorem1_bound_poly(_ZERO, _X, 1 - _X, _ZERO),
    )
    ok = (
        not _moving(point, (1, 2))
        and val == T1_CONSTANT
        and all(edge.peak(0, 1) == (Fraction(2, 3), Fraction(2, 27)) for edge in edges)
        and Fraction(2, 27) < T1_CONSTANT
    )
    return CaseVerdict(
        "a=0", T1_CONSTANT, float(val), "exact", ok,
        witness=(0.0, 0.4, 0.4, 0.2),
        detail="stationary point b=c=2d=0.4 attains exactly 2/25; "
               "b=0 and d=0 edges peak at 2/27",
    )


def _case_b0() -> CaseVerdict:
    # moving a's weight onto b adds exactly a^2 c/4, so the a=0 case's bound
    # holds here; the difference has degree at most 3 in c, so the identity
    # in X = a at four values of c proves it
    ok = all(theorem1_bound_poly(_ZERO, _X, c, 1 - _X - c)
             - theorem1_bound_poly(_X, _ZERO, c, 1 - _X - c) == c / 4 * _X * _X
             for c in (Fraction(i, 4) for i in range(4)))
    return CaseVerdict(
        "b=0", T1_CONSTANT, float(T1_CONSTANT), "exact", ok,
        detail="f(0, a, c, d) - f(a, 0, c, d) = a^2 c/4 >= 0: majorized by the a=0 case",
    )


def _case_d0() -> CaseVerdict:
    # eliminate a = 2 - 4b, c = 3b - 1 and maximize the cubic on [1/3, 1/2]
    substituted = theorem1_bound_poly(2 - 4 * _X, _X, 3 * _X - 1, _ZERO)
    bstar, peak = substituted.peak(Fraction(1, 3), Fraction(1, 2))
    ok = (
        bstar == (7 - Surd.sqrt(5)) / 11
        and peak < Fraction(19, 250)  # peak < 0.076
        and Fraction(19, 250) < T1_CONSTANT
    )
    return CaseVerdict(
        "d=0", Fraction(19, 250), float(peak), "exact", ok,
        witness=(float(2 - 4 * float(bstar)), float(bstar), float(3 * float(bstar) - 1), 0.0),
        detail="cubic 11b^3/2 - 21b^2/2 + 6b - 1 peaks at (7 - sqrt 5)/11, "
               "strictly below 0.076 < 2/25",
    )


def _case_interior() -> CaseVerdict:
    # the resultant is stated by hand; each root point it walks must also be
    # stationary for the bound polynomial: zero derivative along e_i - e_d
    try:
        moving = [p[1] for p in verify_theorem1_quartic_identity() if _moving(p, range(3))]
        ok, detail = not moving, (
            f"the root b={moving[0]} is not stationary for the bound polynomial" if moving
            else "stationarity quartic (stated by hand) factors as 9b(5b-2)(9b-4)(3b-2); "
            "every nonzero root is stationary and forces a zero or negative coordinate")
    except ArithmeticError as exc:  # pragma: no cover - implementation bug guard
        ok, detail = False, str(exc)
    return CaseVerdict("interior", T1_CONSTANT, float(T1_CONSTANT), "exact", ok, detail=detail)


def _case_t1_global(resolution: int, refine_iters: int) -> CaseVerdict:
    found, pt = _grid_refine_max(theorem1_bound_poly, resolution, refine_iters)
    target = np.array([0.0, 0.4, 0.4, 0.2])
    close = float(np.abs(pt - target).max())
    ok = found <= float(T1_CONSTANT) + _T1_TOL and close <= 1e-4
    return CaseVerdict(
        "global", T1_CONSTANT, found, "grid+refine", ok,
        witness=tuple(float(v) for v in pt), tol=_T1_TOL,
        detail=f"argmax distance to (0, 0.4, 0.4, 0.2) in sup norm: {close:.2e}",
    )


def certify_theorem1(
    grid_resolution: int = 200,
    refine_iters: int = 500,
    profile_s: int | None = None,
) -> CertificateReport:
    """Certify that the bound polynomial never exceeds 2/25 on the simplex.

    Exact cases: c=0, a=0, d=0, the interior quartic, and b=0, which is
    exactly majorized by the a=0 case.
    The global grid+refine search must land on 2/25 at (0, 0.4, 0.4, 0.2).
    Optionally also bounds every part-size profile up to ``profile_s``
    exactly (``enumerate_profiles_and_bound``).
    """
    _require_grid(grid_resolution, 4)
    _require_profile_budget(profile_s)
    cases = [
        _case_c0(),
        _case_a0(),
        _case_b0(),
        _case_d0(),
        _case_interior(),
        _case_t1_global(grid_resolution, refine_iters),
    ]
    return _report("t1", None, cases, T1_CONSTANT, profile_s, {
        "grid_resolution": grid_resolution,
        "refine_iters": refine_iters,
        "tol": _T1_TOL,
        "top": _REFINE_STARTS,
        "profile_s": profile_s,
    })


def _report(
    theorem: str, k: int | None, cases: list, constant, profile_s: int | None, parameters: dict
) -> CertificateReport:
    """Append the part-size profile case when ``profile_s`` is given, then
    collect the verdicts into the report."""
    profiles_checked = 0
    if profile_s is not None:
        prof = enumerate_profiles_and_bound(theorem, profile_s, k=k)
        profiles_checked = prof.profiles_checked
        detail = (f"open profiles, no degree in {_PROFILE_DEGREES} closes them: "
                  f"{list(prof.open_profiles)}" if prof.open_profiles
                  else f"worst profile {prof.worst_profile}: found is its upper bound at "
                       f"the closing degree d = {prof.worst_degree}, not its Lagrangian")
        cases.append(CaseVerdict(
            "profiles", constant, float(prof.worst_value), "exact", prof.passed, detail=detail,
        ))
    return CertificateReport(
        theorem=theorem,
        k=k,
        cases=tuple(cases),
        profiles_checked=profiles_checked,
        overall=all(c.passed for c in cases),
        parameters=parameters,
    )


# ---------------------------------------------------------------------------
# The alpha_k/6 certificate
# ---------------------------------------------------------------------------

def _case_t3_early(k: int) -> CaseVerdict:
    """Exact collapse of the easy cases onto the B(2k, n) limit objective.

    Identity, with b = 1 - w - a: bound(w, a, b) + (a^2/4)(w - b) == f_b2k(w),
    which is T(w) + w (a + b)^2 / 2 since a + b = 1 - w.  Both sides have
    degree at most 3 in a, so the identity in w at four values of a proves
    it; when b <= w the correction term is nonnegative, so the bound is at
    most f_b2k(w).  The exact peak of f_b2k on [0, 1] is alpha_k/6 at a*.
    """
    f = f_b2k_poly(k)
    target = alpha_k(k)
    ok = (
        all(theorem3_bound(_X, a, k) + (a * a / 4) * (_X - (1 - _X - a)) == f
            for a in (Fraction(i, 3) for i in range(4)))
        and f.peak(0, 1) == (astar_weight(k), target / 6)
    )
    return CaseVerdict(
        "early-collapse", target / 6, float(target) / 6, "exact", ok,
        detail="b<=w, a=0 and w>=1/2 all collapse onto f_b2k, whose exact peak is alpha_k/6",
    )


def _case_t3_chain(k: int) -> CaseVerdict:
    failing = [step for step, holds in theorem3_bound_chain(k).items() if not holds]
    detail = (f"failing steps: {failing}" if failing else
              "all chain steps hold: they bound every point with w < 1/2, "
              "which takes in every point with b > w")
    return CaseVerdict(
        "monotone-chain", alpha_k(k) / 6, float(alpha_k(k)) / 6, "exact", not failing,
        detail=detail,
    )


def certify_theorem3(k: int, profile_s: int | None = None) -> CertificateReport:
    """Certify that the (2k+1)-part bound function stays at or below alpha_k/6,
    exactly, at every point (w, a) with b = 1 - w - a >= 0.

    The two cases cover the triangle: early-collapse bounds every point with
    b <= w, and the monotone chain every point with w < 1/2, since its
    inner-maximizer sign identity holds for every a in [0, 1 - w]; a point
    with w >= 1/2 has b = 1 - w - a <= w.  Optionally also bounds every
    part-size profile up to ``profile_s`` exactly
    (``enumerate_profiles_and_bound``).
    """
    _, _, target = family("t3", k)
    _require_profile_budget(profile_s)
    cases = [_case_t3_early(k), _case_t3_chain(k)]
    return _report("t3", k, cases, target, profile_s, {"k": k, "profile_s": profile_s})


# ---------------------------------------------------------------------------
# Blow-up density gain
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityGainReport:
    kind: str
    k: int | None
    t: int
    s: int
    c: float
    seed: int
    target: object              # exact constant: Fraction 2/25 or Surd alpha_k/6
    base_edges: int
    adder_edges: int
    recipe_adder_edges: int     # what the construction recipe asks of the adder
    bound: Fraction             # uniform-weight lower bound |E(G*)| / t^3
    margin: object              # bound - target, exact (Fraction or Surd)
    deficit_achieved: object    # target * t^3 - base_edges, exact
    deficit_ideal: object       # the t^2 shortfall coefficient times t^2
    passed: bool


def check_blowup_density_gain(
    kind: str,
    t: int,
    s: int = 3,
    c: float = 1.0,
    seed: int = 0,
    k: int | None = None,
) -> DensityGainReport:
    """Account for the density gain of the augmented construction G*.

    Only the adder is built: |E(base)| is counted from the pattern, and the
    adder edges are disjoint from the base exactly when no template lies
    inside the target part, so |E(G*)| = |E(base)| + |E(adder)|.  The
    uniform-weight Lagrangian lower bound |E(G*)| / t^3 exceeds the target
    constant exactly when the adder clears the achieved base shortfall
    target * t^3 - |E(base)| (an exact identity, asserted here); the report
    also carries the ideal t^2 shortfall for comparison.  All margins are
    exact: rational for the 2/25 family, surd-signed for alpha_k/6.
    """
    pattern, part, target = gstar_target(kind, t, k)
    lo, hi = pattern_parts(pattern, t)[part - 1]
    if kind == "t1":
        deficit_ideal = Fraction(3 * t * t, 25)
        recipe_edges = (2 * t // 5) ** 2
    else:
        deficit_ideal = theorem3_c0(k) * (t * t)
        recipe_edges = k * (hi - lo + 1) ** 2
    # a template inside the part puts every r-subset of it in the base, so
    # every adder edge would clash; no other template reaches inside
    inside = (part,) * pattern.r
    if inside in pattern.templates:
        raise ValueError(f"template {inside} lies inside the target part: "
                         "every adder edge is already in the base")

    base_edges = pattern_edge_count(pattern, t)
    adder = generate_sparse_adder(SparseAdderParams(s=s, c=c, t=hi - lo + 1, seed=seed))

    bound = Fraction(base_edges + adder.m, t**3)
    margin = bound - target
    deficit_achieved = target * (t**3) - base_edges
    # identity: margin == (adder_edges - deficit_achieved) / t^3
    if (margin * (t**3) - (adder.m - deficit_achieved)) != 0:
        raise ArithmeticError("density-gain accounting identity failed")
    passed = margin > 0
    return DensityGainReport(
        kind=kind,
        k=k,
        t=t,
        s=s,
        c=float(c),
        seed=seed,
        target=target,
        base_edges=base_edges,
        adder_edges=adder.m,
        recipe_adder_edges=recipe_edges,
        bound=bound,
        margin=margin,
        deficit_achieved=deficit_achieved,
        deficit_ideal=deficit_ideal,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Profile enumeration: an exact upper bound on every small profile
# ---------------------------------------------------------------------------

def _require_profile_budget(s: int | None) -> None:
    """Refuse a budget below 3, or one whose s-vertex lattice at the top degree
    ``_require_grid`` refuses: conservative, a profile has at most s classes."""
    if s is None:
        return
    if s < 3:
        raise ValueError(f"profile budget must be >= 3, got {s}")
    _require_grid(_PROFILE_DEGREES[-1], s, f"profile budget {s}: degree")


@dataclass(frozen=True)
class ProfilesReport:
    profiles_checked: int
    worst_value: Fraction  # the largest bound, each at the degree that closed it or the last
    worst_profile: tuple[int, ...]
    worst_degree: int  # the degree worst_value was taken at
    open_profiles: tuple[tuple[int, ...], ...]  # no degree closes them
    passed: bool


def _profile_graph(
    pattern: PartitionPattern, part: int, profile: tuple[int, ...]
) -> UniformHypergraph:
    """G* at the profile's part sizes with the star as its adder: the pattern
    blown up, and the star through the two lowest vertices of ``part`` (the
    part that receives the adder in G*) assembled into that part."""
    lo, m = sum(profile[:part - 1]) + 1, profile[part - 1]
    star = UniformHypergraph(3, m, [(1, 2, v) for v in range(3, m + 1)])
    return assemble_gstar(blow_up_pattern(pattern, profile), star, range(lo, lo + m))


def _part_classes(pattern: PartitionPattern, part: int) -> list[list[int]]:
    """Classes of interchangeable parts: two parts, neither of them ``part``,
    are interchangeable when swapping them maps the template set onto itself.
    Such swaps compose, so each part is compared only with the first member
    of each class.  ``part`` is in no class."""
    templates = set(pattern.templates)
    classes: list[list[int]] = []
    for i in range(1, pattern.num_parts + 1):
        if i == part:
            continue
        for cls in classes:
            swap = {i: cls[0], cls[0]: i}
            if {tuple(sorted(swap.get(x, x) for x in t)) for t in templates} == templates:
                cls.append(i)
                break
        else:
            classes.append([i])
    return classes


def _profiles(pattern: PartitionPattern, part: int, s: int) -> list[tuple[int, ...]]:
    """Part-size profiles of total size 1..s in sorted order, one per orbit
    of the part swaps: sizes never increase within a class of interchangeable
    parts."""
    chains = [(a - 1, b - 1) for cls in _part_classes(pattern, part) for a, b in zip(cls, cls[1:])]
    return sorted(
        profile
        for total in range(1, s + 1)
        for profile in map(tuple, _compositions(pattern.num_parts, total).tolist())
        if all(profile[a] >= profile[b] for a, b in chains)
    )


def enumerate_profiles_and_bound(
    kind: str,
    s: int,
    k: int | None = None,
) -> ProfilesReport:
    """Bound the Lagrangian of every part-size profile of total size at most
    s from above, exactly, with the star inside the special part (the worst
    case the local sparsity cap allows), by ``bernstein_bound(G, d)`` at the
    first degree d of ``_PROFILE_DEGREES`` where it is at most the constant,
    compared exactly; a profile that no degree closes is open and fails.
    Never above the vertex lattice bound d^3/(d)_3 * max_a lambda(a/d), the
    largest vertex coefficient sum_e prod_{v in e} a_v / (d)_3: split each
    class total alpha_c by a uniform multinomial; m distinct counts have mean
    product (alpha_c)_m / n_c^m, so a class coefficient is a vertex mean.
    """
    _require_profile_budget(s)
    pattern, part, constant = family(kind, k)
    profiles = _profiles(pattern, part, s)

    worst_value, worst_profile, worst_degree, open_profiles = Fraction(-1), None, None, []
    for profile in profiles:
        bound_at = _bernstein_bounds(_profile_graph(pattern, part, profile))
        for d in _PROFILE_DEGREES:
            bound = bound_at(d)
            if bound <= constant:
                break
        else:
            open_profiles.append(profile)
        if bound > worst_value:
            worst_value, worst_profile, worst_degree = bound, profile, d
    return ProfilesReport(
        profiles_checked=len(profiles),
        worst_value=worst_value,
        worst_profile=worst_profile,
        worst_degree=worst_degree,
        open_profiles=tuple(open_profiles),
        passed=not open_profiles,
    )
