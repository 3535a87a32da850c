"""Exact arithmetic layer: surds, polynomials, and the closed-form formulas."""

import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hyperlag import closedform
from hyperlag.closedform import (
    RationalPolynomial,
    Surd,
    alpha_k,
    astar_weight,
    exact_to_json,
    f_b2k,
    f_b2k_numeric_max,
    f_b2k_poly,
    f_b2k_prime,
    is_non_square_4k_minus_1,
    square_free_split,
    theorem1_bound_gradient,
    theorem1_bound_poly,
    theorem1_d0_critical_point,
    theorem1_d0_peak_value,
    theorem3_bound,
    theorem3_bound_chain,
    theorem3_bound_gradient,
    theorem3_cubic_part_poly,
    theorem3_g_poly,
    verify_theorem1_quartic_identity,
)

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=60)
radicands = st.sampled_from([3, 7, 11, 15, 19])


def surd(p, q, d):
    return Surd(F(p), F(q), d)


X = RationalPolynomial((0, 1))


def f_b2k_prime_reference(k):
    """The derivative of the B(2k, n) limit objective, stated independently:
    (1/4k^2 + 1/2) a^2 - (1/2k + 1) a + 1/2."""
    return RationalPolynomial((F(1, 2), -(F(1, 2 * k) + 1), F(1, 4 * k * k) + F(1, 2)))


def gprime_reference(k):
    """The derivative of the chain envelope g, stated independently:
    (1/4k^2 - 7/18) w^2 - (1/2k + 1/9) w + 5/18."""
    return RationalPolynomial((F(5, 18), -(F(1, 2 * k) + F(1, 9)), F(1, 4 * k * k) - F(7, 18)))


# ---------------------------------------------------------------------------
# Surd arithmetic
# ---------------------------------------------------------------------------

@given(fractions_st, fractions_st, fractions_st, fractions_st, radicands)
def test_surd_add_sub_roundtrip(p1, q1, p2, q2, d):
    x, y = Surd(p1, q1, d), Surd(p2, q2, d)
    assert (x + y) - y == x


@given(fractions_st, fractions_st, fractions_st, fractions_st, radicands)
def test_surd_mul_div_roundtrip(p1, q1, p2, q2, d):
    x, y = Surd(p1, q1, d), Surd(p2, q2, d)
    if y == 0:
        with pytest.raises(ZeroDivisionError):
            x / y
    else:
        assert (x * y) / y == x


def test_surd_comparison_matches_floats():
    rng = random.Random(5)
    for _ in range(10_000):
        d = rng.choice([3, 7, 11, 15, 19])
        x = surd(F(rng.randint(-50, 50), rng.randint(1, 20)),
                 F(rng.randint(-50, 50), rng.randint(1, 20)), d)
        y = surd(F(rng.randint(-50, 50), rng.randint(1, 20)),
                 F(rng.randint(-50, 50), rng.randint(1, 20)), d)
        fx, fy = float(x), float(y)
        if abs(fx - fy) > 1e-9:
            assert (x < y) == (fx < fy)


def test_surd_square_free_normalization():
    assert Surd.sqrt(28) == surd(0, 2, 7)
    assert Surd.sqrt(F(1, 4)) == Surd(F(1, 2))
    assert surd(1, 1, 12) == surd(1, 2, 3)
    assert square_free_split(360) == (6, 10)


def test_surd_mixed_radicands_rejected():
    with pytest.raises(ValueError):
        Surd.sqrt(3) + Surd.sqrt(7)
    # rationals coerce into any radicand
    assert Surd.sqrt(3) + F(1, 2) - Surd.sqrt(3) == F(1, 2)


def test_surd_floor_exact():
    assert math.floor(Surd.sqrt(7)) == 2
    assert math.floor(-1 * Surd.sqrt(7)) == -3
    assert math.floor(surd(3, 0, 1)) == 3
    assert math.floor(surd(F(7, 2), F(-1, 2), 5)) == 2  # 3.5 - 1.118 = 2.38


def test_surd_sign_squaring_cases():
    assert surd(3, -1, 7).sign() == 1    # 3 > sqrt(7)
    assert surd(2, -1, 7).sign() == -1   # 2 < sqrt(7)
    assert surd(-3, 2, 3).sign() == 1    # 2 sqrt(3) > 3
    assert surd(0, 0, 7).sign() == 0


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@given(st.lists(fractions_st, max_size=5), st.lists(fractions_st, max_size=5), fractions_st)
def test_polynomial_product_evaluates_pointwise(cs1, cs2, x):
    p, q = RationalPolynomial(tuple(cs1)), RationalPolynomial(tuple(cs2))
    assert (p * q)(x) == p(x) * q(x)


def test_polynomial_substitution_and_derivative():
    p = RationalPolynomial((1, 0, 3))          # 1 + 3x^2
    inner = RationalPolynomial((2, -4))        # 2 - 4x
    assert p(inner)(F(1, 2)) == p(inner(F(1, 2)))
    assert p(inner) == RationalPolynomial((13, -48, 48))
    assert p.derivative() == RationalPolynomial((0, 6))
    assert RationalPolynomial(()).degree == -1


@given(st.lists(fractions_st, max_size=5), fractions_st, fractions_st)
def test_polynomial_divides_by_a_scalar(cs, c, x):
    p = RationalPolynomial(tuple(cs))
    if c == 0:
        with pytest.raises(ZeroDivisionError):
            p / c
    else:
        assert (p / c)(x) == p(x) / c
        assert (p / c) * c == p


# ---------------------------------------------------------------------------
# alpha_k and the B(2k, n) objective
# ---------------------------------------------------------------------------

def test_alpha_2_closed_form():
    a2 = alpha_k(2)
    assert a2 == surd(F(20, 81), F(14, 81), 7)
    assert abs(float(a2) - 0.704204) < 1e-6


def test_alpha_1_smoke():
    assert alpha_k(1) == surd(0, F(1, 3), 3)  # sqrt(3)/3


@pytest.mark.parametrize("k", range(2, 7))
def test_alpha_matches_numeric_max(k):
    a_hat, peak = f_b2k_numeric_max(k)
    assert abs(6 * peak - float(alpha_k(k))) < 1e-10
    assert abs(a_hat - float(astar_weight(k))) < 1e-8


def test_astar_2_closed_form():
    a = astar_weight(2)
    assert a == surd(F(10, 9), F(-2, 9), 7)
    assert abs(float(a) - 0.523168) < 1e-5


@pytest.mark.parametrize("k", range(2, 9))
def test_astar_is_exact_critical_point(k):
    a = astar_weight(k)
    assert f_b2k_prime(a, k) == Surd(F(0))
    assert 6 * f_b2k(a, k) == alpha_k(k)


def test_f_b2k_values():
    assert f_b2k(F(0), 2) == 0
    assert f_b2k(F(1), 2) == F(1, 16)
    assert abs(f_b2k(float(astar_weight(2)), 2) - 0.117367) < 1e-6


@pytest.mark.parametrize("k", range(1, 9))
def test_f_b2k_prime_is_formal_derivative(k):
    assert f_b2k_poly(k).derivative() == f_b2k_prime_reference(k)
    for a in (F(0), F(1, 3), F(1)):
        assert f_b2k_prime(a, k) == f_b2k_prime_reference(k)(a)


def test_alpha_k_is_irrational_sampled():
    rng = random.Random(31)
    for k in [1, 2, 3, 17, 1000, 10**6] + [rng.randint(1, 10**6) for _ in range(50)]:
        assert is_non_square_4k_minus_1(k)
        assert alpha_k(k).q != 0


# ---------------------------------------------------------------------------
# The 2/25 case formulas
# ---------------------------------------------------------------------------

def test_bound_poly_known_points():
    assert theorem1_bound_poly(F(0), F(2, 5), F(2, 5), F(1, 5)) == F(2, 25)
    assert theorem1_bound_poly(F(2, 3), F(1, 3), F(0), F(0)) == F(1, 27)
    assert theorem1_bound_poly(F(0), F(0), F(2, 3), F(1, 3)) == F(2, 27)


def test_bound_poly_rejects_off_simplex():
    with pytest.raises(ValueError):
        theorem1_bound_poly(0.5, 0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        theorem1_bound_poly(-0.2, 0.4, 0.4, 0.4)
    with pytest.raises(ValueError, match="identically"):
        theorem1_bound_poly(X, X, 0, 0)


def test_bound_polynomials_substitute_polynomial_coordinates():
    # the c = 0 edge, and the d = 0 cubic after a = 2 - 4b, c = 3b - 1
    assert theorem1_bound_poly(X, 1 - X, F(0), F(0)) == RationalPolynomial((0, 0, F(1, 4), F(-1, 4)))
    assert theorem1_bound_poly(2 - 4 * X, X, 3 * X - 1, F(0)) == closedform.theorem1_d0_cubic_poly()
    for k in (2, 3):
        sub = theorem3_bound(X, F(1, 5), k)
        for w in (F(0), F(1, 4), F(3, 5)):
            assert sub(w) == theorem3_bound(w, F(1, 5), k)


def simplex_lattice(dims, N=12):
    """Every point (i_1/N, ..., i_dims/N) of the simplex, as Fractions."""
    return [tuple(F(i, N) for i in combo)
            for combo in itertools.product(range(N + 1), repeat=dims) if sum(combo) == N]


def exact_derivative(f, h=F(1, 7)):
    """f'(0) of a polynomial of degree <= 4 from central differences: the
    Richardson step cancels the h^2 term, the only error term up to degree 4."""
    def central(h):
        return (f(h) - f(-h)) / (2 * h)
    return (4 * central(h / 2) - central(h)) / 3


def test_bound_polynomials_on_numpy_columns_match_exact_values():
    pts = simplex_lattice(4)
    got = theorem1_bound_poly(*np.array(pts, dtype=float).T)
    assert got.dtype == np.float64
    want = np.array([float(theorem1_bound_poly(*p)) for p in pts])
    assert np.abs(got - want).max() <= 1e-15
    pts = simplex_lattice(3)
    w, a, _ = np.array(pts, dtype=float).T
    for k in (2, 3, 5):
        got = theorem3_bound(w, a, k)
        assert got.dtype == np.float64
        want = np.array([float(theorem3_bound(pw, pa, k)) for pw, pa, _ in pts])
        assert np.abs(got - want).max() <= 1e-15


def test_bound_gradients_match_exact_central_differences(monkeypatch):
    # the 2/25 polynomial is defined on all of R^4; lift the simplex check to
    # step along single coordinates
    monkeypatch.setattr(closedform, "_check_simplex", lambda values, label: None)
    for p in simplex_lattice(4):
        grad = theorem1_bound_gradient(*p)
        for i in range(4):
            def along(h, i=i):
                return theorem1_bound_poly(*(x + h if j == i else x for j, x in enumerate(p)))
            assert exact_derivative(along) == grad[i]
    for k in (2, 3):
        for w, a, _ in simplex_lattice(3):
            gw, ga = theorem3_bound_gradient(w, a, k)
            assert exact_derivative(lambda h: theorem3_bound(w + h, a, k)) == gw
            assert exact_derivative(lambda h: theorem3_bound(w, a + h, k)) == ga


def test_check_simplex_checks_every_row_of_a_batch():
    cols = np.array(simplex_lattice(4), dtype=float).T
    closedform._check_simplex(tuple(cols), "batch")
    off_sum = cols.copy()
    off_sum[2, 17] += 1e-9
    with pytest.raises(ValueError, match="sum"):
        closedform._check_simplex(tuple(off_sum), "batch")
    negative = cols.copy()
    negative[:, 40] = (-0.25, 0.5, 0.5, 0.25)
    with pytest.raises(ValueError, match="negative"):
        theorem1_bound_poly(*negative)


@pytest.mark.parametrize("coord, row", [(0, 0), (2, 17)])
def test_check_simplex_rejects_nan(coord, row):
    # Python's min drops a NaN after the first position; the sum carries it
    point = [0.5, 0.5, 0.0, 0.0]
    point[coord] = math.nan
    with pytest.raises(ValueError):
        theorem1_bound_poly(*point)
    cols = np.array(simplex_lattice(4), dtype=float).T
    cols[coord, row] = math.nan
    with pytest.raises(ValueError):
        theorem1_bound_poly(*cols)


def test_d0_cubic_values():
    cubic = closedform.theorem1_d0_cubic_poly()
    assert cubic(F(1, 3)) == F(1, 27)
    assert cubic(F(1, 2)) == F(1, 16)
    bstar = theorem1_d0_critical_point()
    assert bstar == surd(F(7, 11), F(-1, 11), 5)
    peak = theorem1_d0_peak_value()
    assert (F(19, 250) - peak).sign() > 0          # strictly below 0.076
    assert abs(float(peak) - 0.0758706) < 1e-6


def test_quartic_identity_and_interior_contradictions():
    # the root points (a, b, c, d) the walk returns for the interior case
    assert verify_theorem1_quartic_identity() == [
        (0, F(2, 5), F(2, 5), F(1, 5)),
        (F(4, 9), F(4, 9), F(2, 9), F(-1, 9)),
        (F(-4, 3), F(2, 3), F(4, 3), F(1, 3)),
    ]
    # the stationarity eliminations at the roots, recomputed here from scratch
    for b, expect_c in ((F(2, 5), F(2, 5)), (F(4, 9), F(2, 9)), (F(2, 3), F(4, 3))):
        assert (13 * b * b - 6 * b) / (8 * b - 4) == expect_c
    b, c = F(4, 9), F(2, 9)
    a = 2 * b - 2 * c
    assert a == F(4, 9) and 1 - a - b - c == F(-1, 9)


# ---------------------------------------------------------------------------
# The alpha_k/6 chain
# ---------------------------------------------------------------------------

def test_cubic_part_endpoint_identity():
    val = F(11, 54) * F(1, 8) - F(5, 9) * F(1, 4) + F(5, 18) * F(1, 2) + F(1, 27)
    assert val == F(1, 16)
    assert theorem3_cubic_part_poly()(F(1, 2)) == F(1, 16)


def test_g_half_sits_below_alpha_over_6():
    g = theorem3_g_poly(2)
    assert g(F(1, 2)) == F(15, 128)
    assert g(F(1, 2)) == f_b2k(F(1, 2), 2)
    assert (alpha_k(2) / 6 - g(F(1, 2))).sign() > 0


@pytest.mark.parametrize("k", range(2, 9))
def test_gprime_is_formal_derivative(k):
    assert theorem3_g_poly(k).derivative() == gprime_reference(k)


def test_k2_surd_inequality_both_forms():
    rhs_sq = F(11, 16) ** 2
    assert F(165, 324) > rhs_sq                      # the stated comparison
    assert F(36, 81) + F(1, 18) - F(1, 144) == F(71, 144)
    assert F(71, 144) > rhs_sq                       # the recomputed radicand


@pytest.mark.parametrize("k", (2, 3, 4, 5))
def test_bound_chain_passes(k):
    report = theorem3_bound_chain(k)
    assert list(report) == [
        "inner-maximizer", "endpoint-1/16", "gprime-positive", "half-point-bound",
    ]
    assert all(report.values()), report


def test_bound_chain_fails_on_a_perturbed_bound(monkeypatch):
    # the a^2 b / 4 term of the bound function, changed to a^2 b / 5
    def perturbed(w, a, k):
        return theorem3_bound(w, a, k) - a * a * (1 - w - a) / 20

    monkeypatch.setattr(closedform, "theorem3_bound", perturbed)
    for k in (2, 3):
        report = theorem3_bound_chain(k)
        assert [step for step, holds in report.items() if not holds] == ["inner-maximizer"]


def test_exact_json_shape():
    blob = exact_to_json(alpha_k(2))
    assert blob == {"p": "20/81", "q": "14/81", "d": 7, "float": float(alpha_k(2))}
    assert exact_to_json(F(3)) == {"p": "3/1", "q": "0/1", "d": 1, "float": 3.0}
