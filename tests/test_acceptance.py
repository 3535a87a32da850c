"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Tolerances and runtime caps are pinned here and are
not calibration knobs.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

from hyperlag.certify import certify_theorem1, certify_theorem3, check_blowup_density_gain
from hyperlag.closedform import (
    RationalPolynomial,
    alpha_k,
    astar_weight,
    f_b2k_numeric_max,
    theorem3_bound,
)
from hyperlag.constructions import (
    PartitionPattern,
    SparseAdderParams,
    blow_up_pattern,
    build_theorem1_base,
    check_local_sparsity,
    generate_sparse_adder,
)
from hyperlag.hypercore import (
    UniformHypergraph,
    lagrangian_value,
)
from hyperlag.optimize import (
    OptimizerConfig,
    bernstein_bound,
    maximize_lagrangian,
    verify_stationarity,
)
from reference import (
    check_local_sparsity_naive,
    edges,
    grid_oracle_reference,
    grid_top_reference,
    lagrangian_gradient,
)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def random_graph(rng, n_lo=3, n_hi=6):
    n = rng.randint(n_lo, n_hi)
    pool = list(itertools.combinations(range(1, n + 1), 3))
    return UniformHypergraph(3, n, rng.sample(pool, rng.randint(1, len(pool))))


def test_01_construction_counts():
    t0 = time.perf_counter()
    ok = all(build_theorem1_base(t).m == (2 * t**3 - 3 * t**2) // 25
             for t in (10, 15, 20, 25, 50))
    elapsed = time.perf_counter() - t0
    report("1 construction counts", ok and elapsed < 1.0,
           f"|E| matches 2t^3/25 - 3t^2/25 for t in 10..50 in {elapsed:.2f}s")


def test_02_bound_polynomial_global_optimum():
    t0 = time.perf_counter()
    rep = certify_theorem1(grid_resolution=200, refine_iters=500)
    elapsed = time.perf_counter() - t0
    case = {c.case_name: c for c in rep.cases}["global"]
    value_ok = abs(case.bound_found - 0.08) <= 1e-9
    argmax_ok = max(abs(w - t) for w, t in zip(case.witness, (0.0, 0.4, 0.4, 0.2))) <= 1e-4
    report("2 bound-polynomial optimum",
           value_ok and argmax_ok and case.passed and elapsed < 30.0,
           f"max {case.bound_found:.12f} at {tuple(round(w, 6) for w in case.witness)} "
           f"in {elapsed:.1f}s")


def test_03_quartic_identity():
    b = RationalPolynomial((0, 1))
    lhs = (8 * b - 4) ** 2 * (19 * b**2 - 10 * b + 1) - (b**2 - 10 * b + 4) ** 2
    rhs = 9 * b * (5 * b - 2) * (9 * b - 4) * (3 * b - 2)
    report("3 quartic identity", lhs == rhs,
           f"coefficients {[str(c) for c in lhs.coeffs]}")


def test_04_alpha_k_cross_check():
    t0 = time.perf_counter()
    worst_val, worst_arg = 0.0, 0.0
    for k in range(2, 7):
        a_hat, peak = f_b2k_numeric_max(k)
        worst_val = max(worst_val, abs(6 * peak - float(alpha_k(k))))
        worst_arg = max(worst_arg, abs(a_hat - float(astar_weight(k))))
    elapsed = time.perf_counter() - t0
    report("4 alpha_k cross-check",
           worst_val <= 1e-10 and worst_arg <= 1e-8 and elapsed < 5.0,
           f"value gap {worst_val:.2e}, argmax gap {worst_arg:.2e}, {elapsed:.2f}s")


def test_05_endpoint_identity():
    w = F(1, 2)
    value = F(11, 54) * w**3 - F(5, 9) * w**2 + F(5, 18) * w + F(1, 27)
    report("5 endpoint identity", value == F(1, 16), f"value {value} at w = 1/2")


def test_06_theorem3_certification():
    worst, gap = 0.0, math.inf
    for k in (2, 3, 4, 5, 6):
        t0 = time.perf_counter()
        rep = certify_theorem3(k)
        elapsed = time.perf_counter() - t0
        # a float cross-check outside the certificate: the best point of a
        # dense lattice stays at or below the exact constant
        target = float(alpha_k(k)) / 6
        top, _ = grid_top_reference(lambda w, a, b: theorem3_bound(w, a, k), 3, 200, 1)
        ok = (rep.overall and elapsed < 60.0
              and all(c.method == "exact" for c in rep.cases) and top[0] <= target)
        worst, gap = max(worst, elapsed), min(gap, target - top[0])
        assert ok, f"k={k}: overall={rep.overall}, lattice top {top[0]} in {elapsed:.1f}s"
    report("6 theorem3 certification", True,
           f"k in 2..6 pass on exact cases only, slowest {worst:.3f}s; "
           f"lattice top at least {gap:.1e} below alpha_k/6")


def test_07_sparse_adder_and_checker_equivalence():
    A = generate_sparse_adder(SparseAdderParams(s=4, c=0.1, t=30, seed=7))
    gen_ok = A.m >= 90 and check_local_sparsity(A, 4).ok

    rng = random.Random(99)
    agree = True
    for _ in range(100):
        t = rng.randint(4, 12)
        s = rng.randint(3, 6)
        pool = list(itertools.combinations(range(1, t + 1), 3))
        m = rng.randint(0, min(len(pool), 3 * t))
        G = UniformHypergraph(3, t, rng.sample(pool, m))
        if check_local_sparsity(G, s).ok != check_local_sparsity_naive(G, s).ok:
            agree = False
            break
    report("7 sparse adder", gen_ok and agree,
           f"generator: {A.m} edges on 30 vertices; checkers agree on 100 random cases")


def test_08_fact_suite():
    rng = random.Random(42)
    h = 1e-6

    # gradient vs central finite differences
    fd_ok = True
    for _ in range(10):
        G = random_graph(rng)
        x = [rng.random() + 0.05 for _ in range(G.n)]
        total = sum(x)
        x = [v / total for v in x]
        grad = lagrangian_gradient(G, x)
        for i in range(G.n):
            up = x.copy(); up[i] += h
            dn = x.copy(); dn[i] -= h
            fd = (lagrangian_value(G, up) - lagrangian_value(G, dn)) / (2 * h)
            if abs(fd - grad[i]) > 1e-5 * max(abs(grad[i]), 1e-9) + 1e-9:
                fd_ok = False

    # Euler identity, exact mode
    euler_ok = True
    for _ in range(10):
        G = random_graph(rng)
        raw = [F(rng.randint(1, 9)) for _ in range(G.n)]
        x = [v / sum(raw) for v in raw]
        if sum(xi * gi for xi, gi in zip(x, lagrangian_gradient(G, x))) != 3 * lagrangian_value(G, x):
            euler_ok = False

    # blow-up invariance of the maximum
    cfg = OptimizerConfig(restarts=10, max_iters=400, seed=7)
    blow_ok, worst = True, 0.0
    for _ in range(30):
        G = random_graph(rng)
        m = rng.choice([2, 3])
        B = blow_up_pattern(PartitionPattern(G.r, (F(1, G.n),) * G.n, edges(G)), [m] * G.n)
        gap = abs(maximize_lagrangian(B, cfg).value
                  - maximize_lagrangian(G, cfg).value)
        worst = max(worst, gap)
        if gap > 2e-6:
            blow_ok = False

    # monotonicity under edge addition
    mono_ok = True
    for _ in range(10):
        n = rng.randint(4, 6)
        pool = list(itertools.combinations(range(1, n + 1), 3))
        chosen = rng.sample(pool, rng.randint(1, len(pool) - 1))
        G1 = UniformHypergraph(3, n, chosen)
        extra = rng.choice([e for e in pool if e not in chosen])
        if maximize_lagrangian(UniformHypergraph(3, n, chosen + [extra]), cfg).value \
                < maximize_lagrangian(G1, cfg).value - 1e-9:
            mono_ok = False

    report("8 fact suite", fd_ok and euler_ok and blow_ok and mono_ok,
           f"finite differences, exact Euler identity, blow-up invariance "
           f"(worst gap {worst:.1e}), monotonicity")


def test_09_density_gain_exact():
    rep = check_blowup_density_gain("t1", 25, s=3, c=1.0, seed=0)
    ok = (rep.adder_edges == 100
          and rep.bound == F(1275, 15625) == F(2, 25) + F(1, 625)
          and rep.passed)
    report("9 density gain", ok,
           f"uniform bound exactly {rep.bound} = 2/25 + 1/(25*25)")


def test_10_oracle_equivalence():
    rng = random.Random(2024)
    cfg = OptimizerConfig(restarts=8, max_iters=400, seed=5)
    # proven: the best lattice point <= lambda <= the largest Bernstein
    # coefficient, here the lattice at N = 6 and the coefficients at d = 30
    worst_gap, bounds_ok, stat_ok = 0.0, True, True
    for _ in range(50):
        G = random_graph(rng)
        res = maximize_lagrangian(G, cfg)
        lower, upper = float(grid_oracle_reference(G, 6)), float(bernstein_bound(G, 30))
        worst_gap = max(worst_gap, upper - res.value)
        if not lower - 1e-9 <= res.value <= upper + 1e-9:
            bounds_ok = False
        if not verify_stationarity(G, res.argmax, 1e-6).passed:
            stat_ok = False
    report("10 oracle equivalence", bounds_ok and stat_ok,
           f"lattice(6) <= optimizer <= bernstein(30) on 50 graphs, worst "
           f"bernstein - optimizer = {worst_gap:.4f}, stationarity tol 1e-6 at every argmax")
