"""Maximizing the Lagrangian over the simplex.

Multi-start projected gradient ascent with backtracking line search is the
workhorse; a brute-force lattice oracle over barycentric grid points gives
an independent exact-rational cross-check on small instances; first-order
stationarity can be verified at any point.  The ascent reports a certified
lower bound on the true maximum together with convergence diagnostics;
upper-bound claims belong to the certification pipelines, never to the
heuristic search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

from .hypercore import UniformHypergraph, WeightVector, lagrangian_value, link_difference

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "StationarityReport",
    "maximize_lagrangian",
    "grid_oracle",
    "verify_stationarity",
    "symmetry_reduce",
    "quotient",
    "project_to_simplex",
]

SUPPORT_EPSILON = 1e-8
_ARMIJO = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start ascent.

    ``restarts`` starting points are each ascended for at most ``max_iters``
    Armijo steps, until the KKT residual is within ``tolerance``.  ``seed``
    fixes the Dirichlet starting points.
    """

    restarts: int = 12
    max_iters: int = 500
    tolerance: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError(f"restarts must be >= 1, got {self.restarts}")
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be positive, got {self.tolerance}")


@dataclass(frozen=True)
class StationarityReport:
    """First-order check at a feasible point: on the support the gradient must
    equal r times the value; off the support it must not exceed it."""

    residual: float
    per_coordinate: tuple[float, ...]
    value: float
    tol: float
    passed: bool


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    argmax: WeightVector
    support: tuple[int, ...]
    stationarity_residual: float
    starts_converged: int
    converged: bool  # the stationarity residual at argmax is within tolerance


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}; sort-based, O(n log n)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = idx[u - css / idx > 0][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def _edge_array(G: UniformHypergraph) -> np.ndarray:
    if G.m == 0:
        return np.zeros((0, G.r), dtype=np.int64)
    return np.asarray(G.edges, dtype=np.int64) - 1


def _gradient(E: np.ndarray, x: np.ndarray, n: int, coef: np.ndarray | None = None) -> np.ndarray:
    """Gradient of sum over rows of coef * prod x[row]; a repeated entry in a
    row is differentiated once per occurrence."""
    X = x[E]
    grad = np.zeros(n)
    r = E.shape[1]
    for c in range(r):
        others = np.ones(E.shape[0]) if coef is None else coef.copy()
        for c2 in range(r):
            if c2 != c:
                others *= X[:, c2]
        np.add.at(grad, E[:, c], others)
    return grad


def _kkt_residuals(x: np.ndarray, grad: np.ndarray, lam: float, r: int) -> np.ndarray:
    """Per-coordinate first-order residuals: |grad_i - r*lam| on the support,
    the positive part of grad_i - r*lam off it."""
    excess = grad - r * lam
    return np.where(x > SUPPORT_EPSILON, np.abs(excess), np.maximum(excess, 0.0))


def _ascend(value, gradient, x0: np.ndarray, max_iters: int, done):
    """Projected gradient ascent on the simplex from x0.

    Each step halves a trial step from 1.0 down to 1e-13 until the Armijo
    test accepts the projected point.  ``done(x, fx, g, gain)`` is the
    caller's stop rule, asked before every step; ``gain`` is what the last
    accepted step added (inf before the first).  Returns (x, value, done)
    at the stop, when the line search stalls or after ``max_iters`` steps.
    """
    x, fx, g, gain = x0, value(x0), gradient(x0), np.inf
    for _ in range(max_iters):
        if done(x, fx, g, gain):
            return x, fx, True
        step = 1.0
        while step > 1e-13:
            cand = project_to_simplex(x + step * g)
            fc = value(cand)
            if fc >= fx + _ARMIJO * float(g @ (cand - x)):
                break
            step /= 2.0
        else:
            break
        x, fx, gain = cand, fc, fc - fx
        g = gradient(x)
    return x, fx, done(x, fx, g, gain)


def _starting_points(sizes: np.ndarray, owner: np.ndarray, cfg: OptimizerConfig) -> list[np.ndarray]:
    n = owner.size
    starts = [np.full(n, 1.0 / n)]
    for c in range(min(sizes.size, cfg.restarts - 1)):
        x = np.zeros(n)
        x[owner == c] = 1.0 / sizes[c]
        starts.append(x)
    idx = len(starts)
    while len(starts) < cfg.restarts:
        rng = np.random.default_rng((cfg.seed, idx))
        starts.append(rng.dirichlet(np.ones(n)))
        idx += 1
    return starts


def maximize_lagrangian(
    G: UniformHypergraph, cfg: OptimizerConfig | None = None
) -> OptimizationResult:
    """Best value over all restarts of projected gradient ascent.

    The search runs through the twin-class quotient (see ``quotient``): each
    restart ascends in vertex coordinates on P(class sums of x), whose
    gradient is P's class gradient copied to every member, and its end point
    is lifted by spreading each class sum evenly over the class.  So
    ``argmax`` is constant on every twin class, and by Frankl-Rodl
    symmetrization no maximum is lost.  Deterministic given the seed.
    Restart starting points are one uniform vector, one uniform-on-class
    vector per twin class, and Dirichlet draws for the remainder.  Ties in
    value (within 1e-12) resolve to the lexicographically smallest support.
    The reported value and stationarity residual are computed on G itself.
    """
    cfg = cfg or OptimizerConfig()
    if G.n < 1:
        raise ValueError("maximization needs at least one vertex")
    if G.m == 0:
        wv = WeightVector.uniform(G.n)
        return OptimizationResult(0.0, wv, tuple(range(1, G.n + 1)), 0.0, cfg.restarts, True)

    T, coef, sizes, owner = quotient(G)
    k = sizes.size

    def ascend(x0):
        x, lam, conv = _ascend(
            lambda x: float((coef * np.bincount(owner, x, k)[T].prod(axis=1)).sum()),
            lambda x: _gradient(T, np.bincount(owner, x, k), k, coef)[owner],
            x0,
            cfg.max_iters,
            lambda x, fx, g, gain: _kkt_residuals(x, g, fx, G.r).max() <= cfg.tolerance,
        )
        return (np.bincount(owner, x, k) / sizes)[owner], lam, conv

    runs = [ascend(s) for s in _starting_points(sizes, owner, cfg)]

    best_lam = max(lam for _, lam, _ in runs)
    candidates = [(x, lam) for x, lam, _ in runs if lam >= best_lam - 1e-12]
    supports = [tuple(int(i) + 1 for i in np.flatnonzero(x > SUPPORT_EPSILON)) for x, _ in candidates]
    pick = min(range(len(candidates)), key=lambda i: supports[i])

    argmax = WeightVector(tuple(float(v) for v in candidates[pick][0]))
    report = verify_stationarity(G, argmax, cfg.tolerance)
    return OptimizationResult(
        value=report.value,
        argmax=argmax,
        support=supports[pick],
        stationarity_residual=report.residual,
        starts_converged=sum(1 for _, _, conv in runs if conv),
        converged=report.passed,
    )


def verify_stationarity(G: UniformHypergraph, x, tol: float) -> StationarityReport:
    """The value and the per-coordinate first-order residuals at a feasible
    point.

    On the support: |grad_i - r*value|.  Off the support: the positive part
    of grad_i - r*value, the side a maximizer must respect.
    """
    w = x.weights if isinstance(x, WeightVector) else tuple(float(v) for v in x)
    lam = float(lagrangian_value(G, w))
    xf = np.asarray(w, dtype=float)
    per = _kkt_residuals(xf, _gradient(_edge_array(G), xf, G.n), lam, G.r)
    residual = float(per.max(initial=0.0))
    return StationarityReport(residual, tuple(per.tolist()), lam, tol, residual <= tol)


def symmetry_reduce(G: UniformHypergraph) -> list[list[int]]:
    """Partition the vertices into twin classes: i and j are twins when both
    link differences are empty, that is, when the transposition (i j) is an
    automorphism.  Such transpositions compose, so each vertex is compared
    only with the first member of each class of equal degree.  Weights may be
    tied inside a class without lowering the achievable maximum."""
    classes: list[list[int]] = []
    by_degree: dict[int, list[list[int]]] = {}
    for v in range(1, G.n + 1):
        same = by_degree.setdefault(len(G.links[v]), [])
        for cls in same:
            # One direction suffices: an empty L(u\v) means swapping u for v
            # maps the edges holding u but not v one-to-one into those holding
            # v but not u, and equal degree makes that map onto, so L(v\u) is
            # empty too.
            if not link_difference(G, cls[0], v):
                cls.append(v)
                break
        else:
            cls = [v]
            same.append(cls)
            classes.append(cls)
    return classes


def quotient(G: UniformHypergraph) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The twin-class quotient of G as arrays (templates, coef, sizes, owner).

    ``owner[v - 1]`` is the 0-based class of vertex v, classes numbered in
    the order of ``symmetry_reduce``, and ``sizes[c]`` is n_c.  Each template
    row holds the sorted classes of some edge's members, once per distinct
    row, in lexicographic order.  Every permutation inside a twin class is an
    automorphism, so a template with class multiplicities m_c stands for
    prod C(n_c, m_c) edges, and with coef = prod C(n_c, m_c) / n_c^m_c the
    polynomial P(y) = sum coef * prod y[template] equals the Lagrangian of G
    at the point that spreads y_c evenly over the members of class c.
    """
    owner = np.empty(G.n, dtype=np.int64)
    classes = symmetry_reduce(G)
    for c, cls in enumerate(classes):
        owner[np.asarray(cls) - 1] = c
    sizes = np.array([len(cls) for cls in classes], dtype=np.int64)
    E = _edge_array(G)
    if sizes.size == G.n:  # twin-free: owner is the identity, E is sorted and distinct
        return E, np.ones(G.m), sizes, owner
    T = np.unique(np.sort(owner[E], axis=1), axis=0)
    # rank: how often the entry already occurs to its left in the sorted row;
    # C(n, m) / n^m is the product over ranks j < m of (n - j) / (n (j + 1))
    rank = np.zeros(T.shape, dtype=np.int64)
    for j in range(1, G.r):
        rank[:, j] = np.where(T[:, j] == T[:, j - 1], rank[:, j - 1] + 1, 0)
    n_c = sizes[T]
    coef = ((n_c - rank) / (n_c * (rank + 1))).prod(axis=1)
    return T, coef, sizes, owner


# ---------------------------------------------------------------------------
# Brute-force lattice oracle
# ---------------------------------------------------------------------------

_LATTICE_CAP = 2_000_000


@lru_cache(maxsize=8)
def _compositions(n: int, total: int) -> np.ndarray:
    """All nonnegative integer n-vectors summing to total, one per row.

    Stars and bars: bar positions are (n-1)-subsets of 0..total+n-2 and the
    row entries are the gaps between consecutive bars.
    """
    if n == 1:
        out = np.array([[total]], dtype=np.int64)
    else:
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
        out = np.diff(padded, axis=1) - 1
    out.flags.writeable = False
    return out


def iter_lattice(n: int, total: int, cap: int = _LATTICE_CAP):
    """Yield the barycentric lattice in chunks of at most ``cap`` rows."""
    if comb(total + n - 1, n - 1) <= cap or n == 1:
        yield _compositions(n, total)
        return
    for first in range(total + 1):
        for chunk in iter_lattice(n - 1, total - first, cap):
            col = np.full((chunk.shape[0], 1), first, dtype=np.int64)
            yield np.hstack([col, chunk])


def grid_oracle(G: UniformHypergraph, resolution: int, allow_large: bool = False) -> Fraction:
    """Exact maximum of the Lagrangian over lattice points (a_1/N, ..., a_n/N).

    Scores are integer sums of products of lattice counts, so the result is
    an exact rational.  For N >= r, lambda <= N^r / (N)_r * oracle with
    (N)_r = N(N-1)...(N-r+1): for K ~ Multinomial(N, x) and distinct i_1..i_r,
    E[K_i1 ... K_ir] = (N)_r x_i1 ... x_ir, so some lattice point K/N scores
    at least (N)_r / N^r * lambda (the grid argument of Bomze and de Klerk).
    Guarded to n <= 8 because the lattice grows combinatorially; pass
    ``allow_large=True`` to override.
    """
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    if G.n > 8 and not allow_large:
        raise ValueError(
            f"grid oracle on {G.n} > 8 vertices is combinatorially large; "
            "pass allow_large=True to force it"
        )
    if G.m == 0 or G.n == 0:
        return Fraction(0)
    if G.m * resolution**G.r >= 2**62:
        raise ValueError("resolution too large for exact int64 scoring")
    E = _edge_array(G)
    best = 0
    for chunk in iter_lattice(G.n, resolution):
        scores = np.zeros(chunk.shape[0], dtype=np.int64)
        for e in E:
            prod = chunk[:, e[0]].copy()
            for v in e[1:]:
                prod *= chunk[:, v]
            scores += prod
        best = max(best, int(scores.max()))
    return Fraction(best, resolution**G.r)
