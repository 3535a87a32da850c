"""Machine-checked certificates for the two bound constants.

The 2/25 certificate walks the full stationary case analysis of the bound
polynomial on the 4-simplex: the four faces close exactly (rational or surd
arithmetic end to end; b=0 by an exact majorization onto a=0), the interior
closes through the expanded stationarity quartic, and a grid-plus-refinement
search over the whole simplex confirms where the maximum sits.  The
alpha_k/6 certificate combines exact early-case collapses, the exact
monotone chain, and the analogous numeric search.

Policy throughout: a numeric search is never the bound of record on its
own; every "<=" that matters is paired with an exact case analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .closedform import (
    RationalPolynomial,
    Surd,
    alpha_k,
    astar_weight,
    f_b2k,
    f_b2k_poly,
    f_b2k_prime,
    theorem1_bound_gradient,
    theorem1_bound_poly,
    theorem1_d0_critical_point,
    theorem1_d0_cubic_poly,
    theorem1_d0_peak_value,
    theorem3_bound,
    theorem3_bound_chain,
    theorem3_bound_gradient,
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
from .optimize import (
    _LATTICE_CAP, OptimizerConfig, _ascend, _compositions, _require_grid, iter_lattice,
    maximize_lagrangian,
)
# unused here: bench/test_bench.py checks that the tracer wraps project_to_simplex,
# and the lattice size cap stays importable as certify.GRID_POINTS_MAX
from .optimize import GRID_POINTS_MAX, project_to_simplex  # noqa: F401

__all__ = [
    "CaseVerdict",
    "CertificateReport",
    "DensityGainReport",
    "ProfilesReport",
    "reduce_star",
    "family",
    "gstar_target",
    "certify_theorem1",
    "certify_theorem3",
    "check_blowup_density_gain",
    "enumerate_profiles_and_bound",
]

T1_CONSTANT = Fraction(2, 25)
# the best lattice points a grid+refine search refines
_REFINE_STARTS = 100
# the optimizer and tolerance of every part-size profile
_PROFILE_CONFIG = OptimizerConfig(restarts=6, max_iters=300, seed=1)
_PROFILE_TOL = 1e-7
# the variable of the one-variable substitutions into the bound polynomials
_X = RationalPolynomial((0, 1))
_ZERO = Fraction(0)


def family(kind: str, k: int | None = None) -> tuple[PartitionPattern, int, object]:
    """The certified family behind ``kind``: its weighted pattern, the part
    (1-based) that receives the sparse adder in G* and the star in a profile,
    and the exact constant its certificate proves.

    ``"t1"`` is the three-part pattern with part 1 and 2/25; ``"t3"`` is the
    (2k+1)-part pattern with its apex part and alpha_k/6, for k >= 2.
    """
    if kind == "t1":
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
    method: str  # "exact" | "grid+refine" | "sampled"
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


def reduce_star(M: UniformHypergraph, part: Sequence[int]) -> UniformHypergraph:
    """Replace every edge inside ``part`` by the star through the two
    lowest-index part vertices.

    The output carries exactly the |part| - 2 star edges inside the part
    (none if |part| <= 2), regardless of what was there before; edges not
    contained in the part are untouched.  Under the local-sparsity cap on
    the replaced edges this never lowers the maximum Lagrangian.
    """
    if M.r != 3:
        raise ValueError(f"star reduction is specific to arity 3, got r = {M.r}")
    members = sorted(set(int(v) for v in part))
    if members and (members[0] < 1 or members[-1] > M.n):
        raise ValueError(f"part leaves the vertex range 1..{M.n}")
    # a lookup table, not np.isin: with numpy 2.4 the certify workload peaks 0.8 MiB lower
    inside = np.zeros(M.n + 1, dtype=bool)
    inside[members] = True
    kept = UniformHypergraph(M.r, M.n, M.edge_array[~inside[M.edge_array].all(axis=1)])
    size = len(members)
    star = UniformHypergraph(3, size, [(1, 2, v) for v in range(3, size + 1)])
    return assemble_gstar(kept, star, members)


# ---------------------------------------------------------------------------
# Grid + refinement machinery
# ---------------------------------------------------------------------------

def _require_profile_budget(s: int | None) -> None:
    if s is not None and s < 3:
        raise ValueError(f"profile budget must be >= 3, got {s}")


def _grid_refine_max(
    fn: Callable,
    grad: Callable,
    dims: int,
    resolution: int,
    refine_iters: int,
    top: int,
    cap: int = _LATTICE_CAP,
) -> tuple[float, np.ndarray]:
    """Maximize fn over the simplex: score every barycentric lattice point,
    keep the ``top`` best by value, ties to the lexicographically smaller
    point, then run projected ascent from them, as one batch, until a step
    gains at most 1e-17.  The result does not depend on ``cap``.

    For dims >= 4 a point splits into a head, its first dims - 2
    coordinates with sum s, and a tail (j, rest - j) / resolution for
    j = 0..rest with rest = resolution - s.  Heads come from ``iter_lattice``
    as (H, 1) columns, tails as two views of one row, so ``fn`` scores an
    (H, rest + 1) block of at most max(cap, rest + 1) points by broadcasting,
    in lexicographic order along the flat index.  ``fn`` and ``grad`` must
    be elementwise numpy expressions that broadcast; the ascent passes them
    one column per coordinate, one point per row."""
    if top < 1:
        raise ValueError(f"top must be >= 1, got {top}")
    if refine_iters < 0:
        raise ValueError(f"refine_iters must be >= 0, got {refine_iters}")
    # three coordinates stay whole: a one-coordinate head would score one
    # row per block, far slower than the 3-column lattice chunks
    split = 2 if dims >= 4 else 0
    v = np.arange(resolution + 1) / resolution
    best_vals, best_pts = np.empty(0), np.empty((0, dims))
    for s in range(resolution + 1) if split else (resolution,):
        rest = resolution - s
        width = rest + 1 if split else 1
        tail = (v[:width], v[rest::-1]) if split else ()
        for head in iter_lattice(dims - split, s, max(1, cap // width)):
            cols = head.T / resolution  # one contiguous row per head coordinate
            vals = np.broadcast_to(fn(*cols[:, :, None], *tail), (len(head), width)).ravel()
            # below the block's own top-th value nothing can be kept; a point
            # tied with the last one kept may still win on order
            k = min(top, vals.size)
            floor = best_vals[-1] if best_vals.size == top else np.partition(vals, -k)[-k]
            idx = np.flatnonzero(vals >= floor)
            if not idx.size:
                continue
            row, j = divmod(idx, width)
            best_vals = np.concatenate([best_vals, vals[idx]])
            best_pts = np.vstack([best_pts, np.column_stack([*cols[:, row], *(t[j] for t in tail)])])
            order = np.lexsort((*best_pts.T[::-1], -best_vals))[:top]
            best_vals, best_pts = best_vals[order], best_pts[order]
    X, F, _ = _ascend(lambda P: fn(*P.T),
                      lambda P: np.column_stack(np.broadcast_arrays(*grad(*P.T))),
                      best_pts, refine_iters, lambda P, vals, G, gain: gain <= 1e-17)
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
    cubic = theorem1_bound_poly(_X, 1 - _X, _ZERO, _ZERO)
    crit = Fraction(2, 3)
    peak = cubic(crit)
    ok = (
        cubic.derivative()(crit) == 0
        and peak == Fraction(1, 27)
        and cubic(_ZERO) == 0
        and cubic(Fraction(1)) == 0
        and peak < T1_CONSTANT
        # the cube-mean majorant is tight at the maximizer
        and Fraction(1, 8) * ((2 * crit + 2 * (1 - crit)) / 3) ** 3 == Fraction(1, 27)
    )
    return CaseVerdict(
        "c=0", Fraction(1, 27), float(peak), "exact", ok,
        witness=(2 / 3, 1 / 3, 0.0, 0.0),
        detail="a^2 b/4 peaks at a=2/3, b=1/3 with value exactly 1/27 < 2/25",
    )


def _case_a0() -> CaseVerdict:
    # stationarity at b = c = 2d = 2/5, exactly: the b, c, d partials agree
    point = (_ZERO, Fraction(2, 5), Fraction(2, 5), Fraction(1, 5))
    val = theorem1_bound_poly(*point)
    _, pb, pc, pd = theorem1_bound_gradient(*point)
    # the boundary edges b = 0 and d = 0 of this face peak at 2/27
    crit = Fraction(2, 3)
    edges = (
        theorem1_bound_poly(_ZERO, _ZERO, _X, 1 - _X),
        theorem1_bound_poly(_ZERO, _X, 1 - _X, _ZERO),
    )
    ok = (
        pb == pc == pd
        and val == T1_CONSTANT
        and all(edge.derivative()(crit) == 0 and edge(crit) == Fraction(2, 27) for edge in edges)
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
    # eliminate a = 2 - 4b, c = 3b - 1 and certify the cubic on [1/3, 1/2]
    substituted = theorem1_bound_poly(2 - 4 * _X, _X, 3 * _X - 1, _ZERO)
    cubic = theorem1_d0_cubic_poly()
    bstar = theorem1_d0_critical_point()
    peak = theorem1_d0_peak_value()
    deriv = cubic.derivative()
    ok = (
        substituted == cubic
        and deriv(bstar) == Surd(Fraction(0))
        and (bstar - Fraction(1, 3)).sign() > 0
        and (Fraction(1, 2) - bstar).sign() > 0
        and deriv(Fraction(1, 3)) > 0
        and deriv(Fraction(1, 2)) < 0
        and cubic(Fraction(1, 3)) == Fraction(1, 27)
        and cubic(Fraction(1, 2)) == Fraction(1, 16)
        and (Fraction(19, 250) - peak).sign() > 0  # peak < 0.076
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
        moving = [p[1] for p in verify_theorem1_quartic_identity() for i in range(3)
                  if theorem1_bound_poly(*(x + ((j == i) - (j == 3)) * _X
                                           for j, x in enumerate(p))).derivative()(_ZERO)]
        ok, detail = not moving, (
            f"the root b={moving[0]} is not stationary for the bound polynomial" if moving
            else "stationarity quartic (stated by hand) factors as 9b(5b-2)(9b-4)(3b-2); "
            "every nonzero root is stationary and forces a zero or negative coordinate")
    except ArithmeticError as exc:  # pragma: no cover - implementation bug guard
        ok, detail = False, str(exc)
    return CaseVerdict("interior", T1_CONSTANT, float(T1_CONSTANT), "exact", ok, detail=detail)


def _case_t1_global(resolution: int, refine_iters: int, tol: float) -> CaseVerdict:
    found, pt = _grid_refine_max(
        theorem1_bound_poly, theorem1_bound_gradient, 4, resolution, refine_iters, _REFINE_STARTS
    )
    target = np.array([0.0, 0.4, 0.4, 0.2])
    close = float(np.abs(pt - target).max())
    ok = found <= float(T1_CONSTANT) + tol and close <= 1e-4
    return CaseVerdict(
        "global", T1_CONSTANT, found, "grid+refine", ok,
        witness=tuple(float(v) for v in pt), tol=tol,
        detail=f"argmax distance to (0, 0.4, 0.4, 0.2) in sup norm: {close:.2e}",
    )


def certify_theorem1(
    grid_resolution: int = 200,
    refine_iters: int = 500,
    tol: float = 1e-9,
    profile_s: int | None = None,
) -> CertificateReport:
    """Certify that the bound polynomial never exceeds 2/25 on the simplex.

    Exact cases: c=0, a=0, d=0, the interior quartic, and b=0, which is
    exactly majorized by the a=0 case.
    The global grid+refine search must land on 2/25 at (0, 0.4, 0.4, 0.2).
    Optionally also optimizes every part-size profile up to ``profile_s``.
    """
    _require_grid(grid_resolution, 4)
    _require_profile_budget(profile_s)
    cases = [
        _case_c0(),
        _case_a0(),
        _case_b0(),
        _case_d0(),
        _case_interior(),
        _case_t1_global(grid_resolution, refine_iters, tol),
    ]
    return _report("t1", None, cases, T1_CONSTANT, profile_s, {
        "grid_resolution": grid_resolution,
        "refine_iters": refine_iters,
        "tol": tol,
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
        cases.append(CaseVerdict(
            "profiles", constant, prof.worst_value, "sampled", prof.passed,
            tol=prof.tol, detail=f"worst profile {prof.worst_profile}",
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
    most f_b2k(w).  The exact peak of f_b2k is alpha_k/6 at a*, pinned by
    surd arithmetic and the sign of the derivative at the interval ends.
    """
    f = f_b2k_poly(k)
    astar = astar_weight(k)
    target = alpha_k(k)
    ok = (
        all(theorem3_bound(_X, a, k) + (a * a / 4) * (_X - (1 - _X - a)) == f
            for a in (Fraction(i, 3) for i in range(4)))
        and f_b2k_prime(_ZERO, k) == Fraction(1, 2)
        and f_b2k_prime(Fraction(1), k) < 0
        and f_b2k_prime(astar, k) == Surd(_ZERO)
        and 6 * f_b2k(astar, k) == target
        and astar.sign() > 0
        and (1 - astar).sign() > 0
    )
    return CaseVerdict(
        "early-collapse", target / 6, float(target) / 6, "exact", ok,
        detail="b<=w, a=0 and w>=1/2 all collapse onto f_b2k, whose exact peak is alpha_k/6",
    )


def _case_t3_chain(k: int) -> CaseVerdict:
    failing = [step for step, holds in theorem3_bound_chain(k).items() if not holds]
    detail = f"failing steps: {failing}" if failing else "all chain steps hold"
    return CaseVerdict(
        "monotone-chain", alpha_k(k) / 6, float(alpha_k(k)) / 6, "exact", not failing,
        detail=detail,
    )


def certify_theorem3(
    k: int,
    grid_resolution: int = 200,
    tol: float = 1e-8,
    refine_iters: int = 500,
    profile_s: int | None = None,
) -> CertificateReport:
    """Certify that the (2k+1)-part bound function stays at or below alpha_k/6."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    _require_grid(grid_resolution, 3)
    _require_profile_budget(profile_s)
    target = alpha_k(k) / 6
    found, pt = _grid_refine_max(
        lambda w, a, b: theorem3_bound(w, a, k),
        lambda w, a, b: (*theorem3_bound_gradient(w, a, k), 0.0),
        3, grid_resolution, refine_iters, _REFINE_STARTS,
    )
    global_ok = found <= float(target) + tol
    global_case = CaseVerdict(
        "global", target, found, "grid+refine", global_ok,
        witness=tuple(float(v) for v in pt), tol=tol,
        detail=f"peak over (w, a) at w={pt[0]:.6f}, a={pt[1]:.6f}; target {float(target):.9f}",
    )

    cases = [_case_t3_early(k), _case_t3_chain(k), global_case]
    return _report("t3", k, cases, target, profile_s, {
        "k": k,
        "grid_resolution": grid_resolution,
        "refine_iters": refine_iters,
        "tol": tol,
        "top": _REFINE_STARTS,
        "profile_s": profile_s,
    })


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
# Profile enumeration: brute-force counterpart of the analytic bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfilesReport:
    kind: str
    k: int | None
    s: int
    constant: float
    tol: float
    profiles_checked: int
    worst_value: float
    worst_profile: tuple[int, ...] | None
    violations: tuple[tuple[tuple[int, ...], float], ...]
    passed: bool


def _profile_graph(
    pattern: PartitionPattern, part: int, profile: tuple[int, ...]
) -> UniformHypergraph:
    """The pattern blown up at the profile's part sizes, with the star as
    the edges inside ``part`` (the part that receives the adder in G*)."""
    lo = sum(profile[: part - 1]) + 1
    return reduce_star(blow_up_pattern(pattern, profile), range(lo, lo + profile[part - 1]))


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
    """Optimize the reduced pattern subgraph of every part-size profile with
    total size at most s and compare against the certified constant.

    Part-internal edges are already star-replaced (the worst case the local
    sparsity cap allows), so this is the brute-force counterpart of the
    analytic case analysis; feasible at desk scale for s up to about 9.
    """
    _require_profile_budget(s)
    pattern, part, constant = family(kind, k)
    constant = float(constant)
    profiles = _profiles(pattern, part, s)

    worst_value, worst_profile = -1.0, None
    violations = []
    for profile in profiles:
        value = maximize_lagrangian(_profile_graph(pattern, part, profile), _PROFILE_CONFIG).value
        if value > worst_value:
            worst_value, worst_profile = value, profile
        if value > constant + _PROFILE_TOL:
            violations.append((profile, value))
    return ProfilesReport(
        kind=kind,
        k=k,
        s=s,
        constant=constant,
        tol=_PROFILE_TOL,
        profiles_checked=len(profiles),
        worst_value=worst_value,
        worst_profile=worst_profile,
        violations=tuple(violations),
        passed=not violations,
    )
