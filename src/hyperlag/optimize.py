"""Maximizing the Lagrangian over the simplex.

Multi-start projected gradient ascent with backtracking line search is the
workhorse, all restarts ascending together as the rows of one matrix; a
brute-force lattice oracle over barycentric grid points gives an
exact-rational cross-check on small instances; first-order stationarity
can be verified at any point.  The ascent reports a certified lower bound
on the true maximum together with convergence diagnostics; upper-bound
claims belong to the certification pipelines, never to the heuristic search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from .hypercore import (
    UniformHypergraph, WeightVector, _lex_unique, _row_products, lagrangian_value, link_difference)

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
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
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
    """Euclidean projection onto {x >= 0, sum x = 1} of a vector, or of each
    row of a matrix by the same operations; sort-based, O(n log n) a row."""
    V = np.atleast_2d(v)
    n = V.shape[1]
    u = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1) - 1.0
    # rho: the last index where u - css/idx > 0, the first from the right
    rho = n - np.argmax((u - css / np.arange(1, n + 1) > 0)[:, ::-1], axis=1)
    theta = css.ravel()[np.arange(0, css.size, n) + rho - 1] / rho
    return np.maximum(V - theta[:, None], 0.0).reshape(v.shape)


def _value(E: np.ndarray, x: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """Sum over rows of coef * prod x[row] (coef None: all ones), at a point or
    at each row of a matrix; numpy's pairwise sum."""
    prod = _row_products(E, x)
    return (prod if coef is None else np.multiply(prod, coef, out=prod)).sum(axis=-1)


def _gradient(E: np.ndarray, x: np.ndarray, coef: np.ndarray | None = None) -> np.ndarray:
    """Gradient of sum over rows of coef * prod x[row] (coef None: all ones),
    at a point or at each row of a matrix; a repeated entry in a row counts
    once per occurrence.  The terms go into one flat array, row b at offset b*n."""
    n, r = x.shape[-1], E.shape[1]
    grad, offsets = np.zeros(x.size), n * np.arange(x.size // n)[:, None]
    for c in range(r):
        # x_a * coef * x_b * ..., in place: one (rows, edges) array at a time;
        # products commute exactly, so this is coef * x_a * x_b * ...
        a, *rest = (E[:, c2] for c2 in range(r) if c2 != c)
        others = np.take(x, a, axis=-1)
        others = others if coef is None else others * coef
        for col in rest:
            others *= np.take(x, col, axis=-1)
        np.add.at(grad, (E[:, c] + offsets).ravel(), others.ravel())
    return grad.reshape(x.shape)


def _kkt_residuals(x: np.ndarray, grad: np.ndarray, lam: float, r: int) -> np.ndarray:
    """Per-coordinate first-order residuals: |grad_i - r*lam| on the support,
    the positive part of grad_i - r*lam off it."""
    excess = grad - r * lam
    return np.where(x > SUPPORT_EPSILON, np.abs(excess), np.maximum(excess, 0.0))


def _ascend(value, gradient, X0: np.ndarray, max_iters: int, done):
    """Projected gradient ascent on the simplex from every row of X0 at once.

    ``value`` and ``gradient`` map a (B, d) matrix of points to B values and
    B gradient rows.  Each row halves its own trial step from 1.0 down to
    1e-13 until the Armijo test accepts its projected point, and counts its
    own steps, so it ends exactly where an ascent from it alone ends.
    ``done(X, F, G, gain)`` is the caller's stop rule per row, asked before
    every step; ``gain`` is what the row's last accepted step added (inf
    before the first).  Returns the arrays (X, values, done) at each row's
    stop, when its line search stalls or after ``max_iters`` steps.
    """
    x, B = np.array(X0, dtype=float), len(X0)
    fx, g, gain, step = value(x), gradient(x), np.full(B, np.inf), np.ones(B)
    live, iters, ok = np.arange(B), np.zeros(B, dtype=np.int64), np.ones(B, dtype=bool)
    X, F, D = np.empty_like(x), np.empty_like(fx), np.empty(B, dtype=bool)
    while True:
        # the stop rule counts where a step was accepted or a line search stalled
        stalled = step <= 1e-13
        d = done(x, fx, g, gain) if (ok | stalled).any() else ok
        stop = stalled | ok & (d | (iters == max_iters))
        if stop.any():
            X[live[stop]], F[live[stop]], D[live[stop]] = x[stop], fx[stop], d[stop]
            x, fx, g, gain, step, iters, live = (
                a[~stop] for a in (x, fx, g, gain, step, iters, live))
            if not live.size:
                return X, F, D
        cand = project_to_simplex(x + step[:, None] * g)
        fc = value(cand)
        ok = fc >= fx + _ARMIJO * (g[:, None, :] @ (cand - x)[:, :, None])[:, 0, 0]
        if ok.all():
            x, fx, gain, g = cand, fc, fc - fx, gradient(cand)
        elif ok.any():
            x[ok], gain[ok], fx[ok] = cand[ok], fc[ok] - fx[ok], fc[ok]
            g[ok] = gradient(x[ok])
        iters += ok
        step = np.where(ok, 1.0, step / 2.0)


def _starting_points(sizes: np.ndarray, owner: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    n, classes = owner.size, min(sizes.size, cfg.restarts - 1)
    starts = np.full((cfg.restarts, n), 1.0 / n)
    starts[1:classes + 1] = (owner == np.arange(classes)[:, None]) / sizes[:classes, None]
    for idx in range(classes + 1, cfg.restarts):
        starts[idx] = np.random.default_rng((cfg.seed, idx)).dirichlet(np.ones(n))
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
    T = np.asfortranarray(T)  # each column contiguous, for the gathers
    k = sizes.size
    if k == G.n:  # twin-free: every class is one vertex and owner the identity
        classes = spread = lambda X: X
        coef = None
    else:
        # the class sums of every row in one bincount, over row-offset labels
        labels = (owner + k * np.arange(cfg.restarts)[:, None]).ravel()
        classes = lambda X: np.bincount(labels[: X.size], X.ravel(), len(X) * k).reshape(-1, k)
        spread = lambda Y: Y[:, owner]

    X, lam, conv = _ascend(
        lambda X: _value(T, classes(X), coef),
        lambda X: spread(_gradient(T, classes(X), coef)),
        _starting_points(sizes, owner, cfg),
        cfg.max_iters,
        lambda X, F, g, gain: _kkt_residuals(X, g, F[:, None], G.r).max(axis=1) <= cfg.tolerance,
    )
    X = spread(classes(X) / sizes)

    candidates = np.flatnonzero(lam >= lam.max() - 1e-12)
    supports = [tuple((np.flatnonzero(x > SUPPORT_EPSILON) + 1).tolist()) for x in X]
    pick = min(candidates, key=lambda i: supports[i])

    argmax = WeightVector(tuple(float(v) for v in X[pick]))
    report = verify_stationarity(G, argmax, cfg.tolerance)
    return OptimizationResult(
        value=report.value,
        argmax=argmax,
        support=supports[pick],
        stationarity_residual=report.residual,
        starts_converged=int(conv.sum()),
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
    per = _kkt_residuals(xf, _gradient(G.edge_array - 1, xf), lam, G.r)
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
    degree = np.diff(G.links[0]).tolist()
    for v in range(1, G.n + 1):
        same = by_degree.setdefault(degree[v], [])
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
    E = G.edge_array - 1
    if sizes.size == G.n:  # twin-free: owner is the identity, E is sorted and distinct
        return E, np.ones(G.m), sizes, owner
    T = _lex_unique(np.sort(owner[E], axis=1), sizes.size)
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

_LATTICE_CAP = 2**14
# the largest lattice a search scores, a few seconds of work
GRID_POINTS_MAX = 50_000_000


def _require_grid(resolution: int, dims: int) -> None:
    """Refuse a resolution below 1 or a lattice of more than GRID_POINTS_MAX
    points, before any of it is built."""
    if resolution < 1:
        raise ValueError(f"grid_resolution must be >= 1, got {resolution}")
    points = comb(resolution + dims - 1, resolution)
    if points > GRID_POINTS_MAX:
        raise ValueError(f"grid_resolution {resolution} gives {points:,} lattice points in "
                         f"{dims} coordinates, more than the {GRID_POINTS_MAX:,} searched")


def _complete(cols: list, rest: np.ndarray, k: int) -> np.ndarray:
    """Each row of the prefix columns ``cols`` followed by every k-vector of
    nonnegative integers summing to its ``rest``, in lexicographic order and
    column by column.  A row leaving ``rest`` is repeated rest + 1 times, its
    next entry counting 0..rest along that run; the last entry is what is left."""
    for _ in range(k - 1):
        runs = rest + 1
        offsets = np.repeat(np.cumsum(runs) - runs, runs)
        entry = np.arange(offsets.size) - offsets
        cols = [np.repeat(col, runs) for col in cols] + [entry]
        rest = np.repeat(rest, runs) - entry
    return np.stack(cols + [rest]).T


def _compositions(n: int, total: int) -> np.ndarray:
    """All nonnegative integer n-vectors summing to total, one per row, in
    lexicographic order, stored column by column."""
    return _complete([], np.array([total], dtype=np.int64), n)


def _lattice_runs(prefix: list, n: int, rest: int, cap: int):
    """Rows starting with ``prefix`` that spread ``rest`` over n >= 2 more
    coordinates, in order: runs of next-coordinate values whose sub-lattices
    fit in ``cap`` rows together, a value too large alone split on the next."""
    sizes = [comb(rest - v + n - 2, n - 2) for v in range(rest + 1)]
    v = 0
    while v <= rest:
        end, rows = v + 1, sizes[v]
        if rows > cap and n > 2:
            yield from _lattice_runs(prefix + [v], n - 1, rest - v, cap)
        else:
            while end <= rest and rows + sizes[end] <= cap:
                rows, end = rows + sizes[end], end + 1
            first = np.arange(v, end, dtype=np.int64)
            cols = [np.full_like(first, p) for p in prefix]
            yield _complete(cols + [first], rest - first, n - 1)
        v = end


def iter_lattice(n: int, total: int, cap: int = _LATTICE_CAP):
    """Yield the rows of ``_compositions(n, total)`` in order, stored like it,
    in chunks of at most ``cap`` rows (one row each when cap < 1)."""
    if n == 1:
        yield _compositions(n, total)
    else:
        yield from _lattice_runs([], n, total, cap)


def grid_oracle(G: UniformHypergraph, resolution: int) -> Fraction:
    """Exact maximum of the Lagrangian over lattice points (a_1/N, ..., a_n/N).

    Scores are integer sums of products of lattice counts, so the result is
    an exact rational.  For N >= r, lambda <= N^r / (N)_r * oracle with
    (N)_r = N(N-1)...(N-r+1): for K ~ Multinomial(N, x) and distinct i_1..i_r,
    E[K_i1 ... K_ir] = (N)_r x_i1 ... x_ir, so some lattice point K/N scores
    at least (N)_r / N^r * lambda (the grid argument of Bomze and de Klerk).
    A lattice of more than GRID_POINTS_MAX points is refused before scoring.
    """
    _require_grid(resolution, G.n)
    if G.m == 0:
        return Fraction(0)
    if G.m * resolution**G.r >= 2**62:
        raise ValueError("resolution too large for exact int64 scoring")
    E = G.edge_array - 1
    # score per edge column in one (m, chunk) int64 block of at most 16 MiB
    cap = max(1, min(_LATTICE_CAP, 2**21 // G.m))
    best = 0
    for chunk in iter_lattice(G.n, resolution, cap):
        counts = chunk.T
        prod = counts[E[:, 0]]
        for col in E.T[1:]:
            prod *= counts[col]
        best = max(best, int(prod.sum(axis=0).max()))
    return Fraction(best, resolution**G.r)
