"""Maximizing the Lagrangian over the simplex.

Multi-start projected gradient ascent with backtracking line search is the
workhorse, all restarts ascending together as the rows of one matrix, and
first-order stationarity can be verified at any point: a certified lower
bound with convergence diagnostics.  Upper bounds belong to
``bernstein_bound``, exact on the twin-class quotient's lattice, and to the
certification pipelines, never to the heuristic search.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, perm

import numpy as np

from .hypercore import (
    UniformHypergraph, WeightVector, _lex_unique, _row_products, lagrangian_value, link_difference)

__all__ = [
    "OptimizerConfig",
    "OptimizationResult",
    "StationarityReport",
    "maximize_lagrangian",
    "bernstein_bound",
    "verify_stationarity",
    "symmetry_reduce",
    "quotient",
    "project_to_simplex",
]

SUPPORT_EPSILON = 1e-8
_ARMIJO = 1e-4
# a gain of at most this times |f| is rounding: the Armijo test cannot tell it from noise
_FLOAT_FLOOR = 4 * np.finfo(float).eps
# why an ascent row stopped, as _ascend reports it: the index into this tuple
STOP_REASONS = ("converged", "float_floor", "max_iters")


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-start ascent.

    ``restarts`` starting points are each ascended for at most ``max_iters``
    Armijo steps, until the KKT residual is within ``tolerance``.  The starts
    are the uniform vector, one vector uniform on each twin class while they
    fit, then Dirichlet(1, ..., 1) draws: start ``i`` from
    ``random.Random(f"{seed}:{i}")``, the same in every process.  With at
    least ``restarts - 1`` twin classes no start is drawn, so ``seed`` has
    no effect.
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
    stop_reasons: dict[str, int]  # restarts per STOP_REASONS entry
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


def _value(E: np.ndarray, x: np.ndarray, coef: np.ndarray | None = None,
           cols: list | None = None) -> np.ndarray:
    """Sum over rows of coef * prod x[row] (coef None: all ones), at a point or
    at each row of a matrix; numpy's pairwise sum.  ``cols``, if given, holds
    x already gathered at each column of E."""
    prod = _row_products(E, x, cols)
    return (prod if coef is None else np.multiply(prod, coef, out=prod)).sum(axis=-1)


def _gradient(E: np.ndarray, x: np.ndarray, coef: np.ndarray | None = None,
              cols: list | None = None) -> np.ndarray:
    """Gradient of sum over rows of coef * prod x[row] (coef None: all ones),
    at a point or at each row of a matrix; a repeated entry in a row counts
    once per occurrence.  ``cols``, if given, holds x already gathered at
    each column of E, read and left unchanged.  The terms go into one flat
    array, row b at offset b*n."""
    n, r = x.shape[-1], E.shape[1]
    grad, offsets = np.zeros(x.size), n * np.arange(x.size // n)[:, None]
    for c in range(r):
        # x_a * coef * x_b * ..., in place: one (rows, edges) array at a time;
        # products commute exactly, so this is coef * x_a * x_b * ...
        a, *rest = (c2 for c2 in range(r) if c2 != c)
        others = np.take(x, E[:, a], axis=-1) if cols is None else cols[a].copy()
        if coef is not None:
            others *= coef
        for b in rest:
            others *= np.take(x, E[:, b], axis=-1) if cols is None else cols[b]
        np.add.at(grad, (E[:, c] + offsets).ravel(), others.ravel())
    return grad.reshape(x.shape)


def _kkt_residuals(x: np.ndarray, grad: np.ndarray, lam: float, r: int) -> np.ndarray:
    """Per-coordinate first-order residuals: |grad_i - r*lam| on the support,
    the positive part of grad_i - r*lam off it."""
    excess = grad - r * lam
    return np.where(x > SUPPORT_EPSILON, np.abs(excess), np.maximum(excess, 0.0))


def _ascend(evaluate, X0: np.ndarray, max_iters: int, done=None):
    """Projected gradient ascent on the simplex from every row of X0 at once.

    ``evaluate`` maps a (B, d) matrix of points to their B values and a
    function of a boolean row mask that gives the gradient rows at the points
    it selects.  Each row halves its own trial step from 1.0 until the Armijo
    test accepts its projected point, and counts its own steps, so it ends
    exactly where an ascent from it alone ends.  A row stops, at the last
    point it accepted, for the first of these reasons (``STOP_REASONS``):

    - converged: ``done(X, F, G, gain)``, the caller's optional stop rule per
      row, holds at the start or after an accepted step; ``gain`` is what the
      row's last accepted step added (inf before the first);
    - float_floor: an accepted step gained at most 4*eps*|f|, or a trial's
      predicted gain g.(cand - x) is at most 4*eps*|f(x)|, or its step
      halved below 1e-13.  Below these, rounding decides the Armijo test, so
      the trial is neither evaluated nor halved further;
    - max_iters: after ``max_iters`` accepted steps.

    Returns the arrays (X, values, reasons) at each row's stop, a reason
    being its index in ``STOP_REASONS``.
    """
    x, B = np.array(X0, dtype=float), len(X0)
    fx, grad = evaluate(x)
    ok = np.ones(B, dtype=bool)
    g, gain, step, iters = grad(ok), np.full(B, np.inf), np.ones(B), np.zeros(B, dtype=np.int64)
    live, X, F, R = np.arange(B), np.empty_like(x), np.empty_like(fx), np.empty(B, dtype=np.int64)
    while True:
        cand = project_to_simplex(x + step[:, None] * g)
        pred = (g[:, None, :] @ (cand - x)[:, :, None])[:, 0, 0]
        floor = _FLOAT_FLOOR * np.abs(fx)
        # the caller's rule counts only where a step was just accepted
        d = ok & done(x, fx, g, gain) if done is not None and ok.any() else np.zeros_like(ok)
        ended, capped = ok & (gain <= floor), ok & (iters == max_iters)
        stop = d | ended | capped | (pred <= floor) | (step <= 1e-13)
        if stop.any():
            # the first reason that holds, as its index in STOP_REASONS
            reason = np.where(d, 0, np.where(capped & ~ended, 2, 1))
            X[live[stop]], F[live[stop]], R[live[stop]] = x[stop], fx[stop], reason[stop]
            x, fx, g, gain, step, iters, live, cand, pred = (
                a[~stop] for a in (x, fx, g, gain, step, iters, live, cand, pred))
            if not live.size:
                return X, F, R
        fc, grad = evaluate(cand)
        ok = fc >= fx + _ARMIJO * pred
        if ok.all():
            x, fx, gain, g = cand, fc, fc - fx, grad(ok)
        elif ok.any():
            x[ok], gain[ok], fx[ok] = cand[ok], fc[ok] - fx[ok], fc[ok]
            g[ok] = grad(ok)
        iters += ok
        step = np.where(ok, 1.0, step / 2.0)


def _starting_points(sizes: np.ndarray, owner: np.ndarray, cfg: OptimizerConfig) -> np.ndarray:
    n, classes = owner.size, min(sizes.size, cfg.restarts - 1)
    starts = np.full((cfg.restarts, n), 1.0 / n)
    starts[1:classes + 1] = (owner == np.arange(classes)[:, None]) / sizes[:classes, None]
    for idx in range(classes + 1, cfg.restarts):
        # Dirichlet(1, ..., 1): n Exp(1) draws over their sum
        rng = random.Random(f"{cfg.seed}:{idx}")
        draws = np.array([rng.expovariate(1.0) for _ in range(n)])
        starts[idx] = draws / draws.sum()
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
    Restart starting points are as ``OptimizerConfig`` says.  Ties in
    value (within 1e-12) resolve to the lexicographically smallest support.
    The reported value and stationarity residual are computed on G itself.
    """
    cfg = cfg or OptimizerConfig()
    if G.n < 1:
        raise ValueError("maximization needs at least one vertex")
    if G.m == 0:
        wv = WeightVector.uniform(G.n)
        reasons = dict.fromkeys(STOP_REASONS, 0) | {"converged": cfg.restarts}
        return OptimizationResult(
            0.0, wv, tuple(range(1, G.n + 1)), 0.0, cfg.restarts, reasons, True)

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

    def evaluate(X):
        Y = classes(X)
        # a lone row keeps its gathered columns for its gradient; a batch
        # gathers again, so that only one (rows, edges) array lives at a time
        cols = [np.take(Y, col, axis=-1) for col in T.T] if len(Y) == 1 else None
        return _value(T, Y, coef, cols), lambda rows: spread(
            _gradient(T, Y, coef, cols) if rows.all() else _gradient(T, Y[rows], coef))

    X, lam, why = _ascend(
        evaluate,
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
        starts_converged=int((why == 0).sum()),
        stop_reasons={name: int((why == i).sum()) for i, name in enumerate(STOP_REASONS)},
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
    T = _lex_unique(np.sort(owner[E], axis=1), sizes.size - 1)
    n_c, rank = sizes[T], _ranks(T)
    # C(n, m) / n^m is the product over ranks j < m of (n - j) / (n (j + 1))
    coef = ((n_c - rank) / (n_c * (rank + 1))).prod(axis=1)
    return T, coef, sizes, owner


def _ranks(T: np.ndarray) -> np.ndarray:
    """How often each entry of a row already occurs to its left."""
    return np.tril(T[:, :, None] == T[:, None, :], -1).sum(axis=2)


# ---------------------------------------------------------------------------
# The barycentric lattice, and the exact upper bound scored on it
# ---------------------------------------------------------------------------

_LATTICE_CAP = 2**14
# the largest lattice a search scores, a few seconds of work
GRID_POINTS_MAX = 50_000_000


def _require_grid(resolution: int, dims: int, name: str = "grid_resolution") -> None:
    """Refuse a resolution below 1 or a lattice of more than GRID_POINTS_MAX
    points, before any of it is built; ``name`` names the resolution."""
    if resolution < 1:
        raise ValueError(f"{name} must be >= 1, got {resolution}")
    points = comb(resolution + dims - 1, resolution)
    if points > GRID_POINTS_MAX:
        raise ValueError(f"{name} {resolution} gives {points:,} lattice points in "
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


def bernstein_bound(G: UniformHypergraph, d: int) -> Fraction:
    """Exact upper bound on lambda(G): the largest degree-d Bernstein
    coefficient of the quotient polynomial P, max over class points
    |alpha| = d of sum_T w_T prod_c (alpha_c)_{m_c} / (d)_r, in Python ints.
    Times (sum y)^(d - r), P expands with these coefficients in the basis
    d!/alpha! y^alpha, nonnegative with sum 1 on the simplex (Polya; Bomze
    and de Klerk 2002).  Refuses d < r, where (d)_r = 0, and a class lattice
    of more than GRID_POINTS_MAX points, before building it."""
    if d < G.r:
        raise ValueError(f"degree d must be >= r = {G.r}, got {d}")
    if G.m == 0:  # a single class; skips the twin search
        return Fraction(0)
    T, _, sizes, _ = quotient(G)
    _require_grid(d, sizes.size, "degree")
    n_c, rank, den = sizes.astype(object)[T], _ranks(T), lcm(*sizes.tolist())
    # w_T * den^r = prod_c C(n_c, m_c) (den / n_c)^m_c, an integer
    W = ((den // n_c * (n_c - rank)).prod(axis=1) // (rank + 1).prod(axis=1))[:, None]
    best = 0
    # one (templates, chunk) block of at most 2^21 entries at a time
    for chunk in iter_lattice(sizes.size, d, max(1, min(_LATTICE_CAP, 2**21 // len(T)))):
        score = W
        for col, ranks in zip(T.T, rank.T):
            score = score * (chunk.T[col] - ranks[:, None])
        best = max(best, score.sum(axis=0).max())
    return Fraction(best, den**G.r * perm(d, G.r))
