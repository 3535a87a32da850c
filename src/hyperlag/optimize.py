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
from concurrent.futures import ThreadPoolExecutor
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
    "project_to_simplex",
]

SUPPORT_EPSILON = 1e-8
_ARMIJO = 1e-4


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start ascent.

    ``restarts`` starting points are each ascended for at most ``max_iters``
    Armijo steps, until the KKT residual is within ``tolerance``.  ``seed``
    fixes the Dirichlet starting points; ``threads`` > 1 runs the restarts on
    a thread pool without changing the result.
    """

    restarts: int = 12
    max_iters: int = 500
    tolerance: float = 1e-9
    seed: int = 0
    threads: int = 1

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
    r_lambda: float
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


def _gradient(E: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    X = x[E]
    grad = np.zeros(n)
    r = E.shape[1]
    for c in range(r):
        others = np.ones(E.shape[0])
        for c2 in range(r):
            if c2 != c:
                others *= X[:, c2]
        np.add.at(grad, E[:, c], others)
    return grad


def _kkt_residual(x: np.ndarray, grad: np.ndarray, lam: float, r: int) -> float:
    target = r * lam
    on = x > SUPPORT_EPSILON
    res = 0.0
    if on.any():
        res = float(np.abs(grad[on] - target).max())
    if (~on).any():
        res = max(res, float(np.maximum(grad[~on] - target, 0.0).max()))
    return res


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


def _starting_points(G: UniformHypergraph, cfg: OptimizerConfig) -> list[np.ndarray]:
    n = G.n
    starts = [np.full(n, 1.0 / n)]
    for cls in symmetry_reduce(G):
        x = np.zeros(n)
        x[np.asarray(cls) - 1] = 1.0 / len(cls)
        starts.append(x)
    idx = len(starts)
    while len(starts) < cfg.restarts:
        rng = np.random.default_rng((cfg.seed, idx))
        starts.append(rng.dirichlet(np.ones(n)))
        idx += 1
    return starts[: cfg.restarts]


def maximize_lagrangian(
    G: UniformHypergraph, cfg: OptimizerConfig | None = None
) -> OptimizationResult:
    """Best value over all restarts of projected gradient ascent.

    Deterministic given the seed.  Restart starting points are one uniform
    vector, one uniform-on-class vector per link-symmetry class, and Dirichlet
    draws for the remainder; restarts are independent and run on a thread
    pool when ``cfg.threads > 1``.  Ties in value (within 1e-12) resolve to
    the lexicographically smallest support.
    """
    cfg = cfg or OptimizerConfig()
    if G.n < 1:
        raise ValueError("maximization needs at least one vertex")
    if G.m == 0:
        wv = WeightVector.uniform(G.n)
        return OptimizationResult(0.0, wv, tuple(range(1, G.n + 1)), 0.0, cfg.restarts, True)

    E = _edge_array(G)

    def ascend(x0):
        return _ascend(
            lambda x: float(x[E].prod(axis=1).sum()),
            lambda x: _gradient(E, x, G.n),
            x0,
            cfg.max_iters,
            lambda x, fx, g, gain: _kkt_residual(x, g, fx, G.r) <= cfg.tolerance,
        )

    starts = _starting_points(G, cfg)
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            runs = list(pool.map(ascend, starts))
    else:
        runs = [ascend(s) for s in starts]

    best_lam = max(lam for _, lam, _ in runs)
    candidates = [(x, lam) for x, lam, _ in runs if lam >= best_lam - 1e-12]
    supports = [tuple(int(i) + 1 for i in np.flatnonzero(x > SUPPORT_EPSILON)) for x, _ in candidates]
    pick = min(range(len(candidates)), key=lambda i: supports[i])

    argmax = WeightVector(tuple(float(v) for v in candidates[pick][0]))
    value = float(lagrangian_value(G, argmax))
    report = verify_stationarity(G, argmax, cfg.tolerance)
    return OptimizationResult(
        value=value,
        argmax=argmax,
        support=supports[pick],
        stationarity_residual=report.residual,
        starts_converged=sum(1 for _, _, conv in runs if conv),
        converged=report.passed,
    )


def verify_stationarity(G: UniformHypergraph, x, tol: float) -> StationarityReport:
    """Per-coordinate first-order residuals at a feasible point.

    On the support: |grad_i - r*value|.  Off the support: the positive part
    of grad_i - r*value, the side a maximizer must respect.
    """
    w = x.weights if isinstance(x, WeightVector) else tuple(float(v) for v in x)
    lam = float(lagrangian_value(G, w))
    grad = _gradient(_edge_array(G), np.asarray(w, dtype=float), G.n).tolist()
    target = G.r * lam
    per = []
    for wi, gi in zip(w, grad):
        if wi > SUPPORT_EPSILON:
            per.append(abs(gi - target))
        else:
            per.append(max(gi - target, 0.0))
    residual = max(per, default=0.0)
    return StationarityReport(residual, tuple(per), target, tol, residual <= tol)


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
