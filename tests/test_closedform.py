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
    square_free_split,
    theorem1_bound_poly,
    theorem3_bound,
    theorem3_bound_chain,
    theorem3_g_poly,
    theorem3_t_poly,
    verify_theorem1_quartic_identity,
)
from reference import PolynomialReference

fractions_st = st.fractions(min_value=-10, max_value=10, max_denominator=60)
radicands = st.sampled_from([3, 7, 11, 15, 19])


def surd(p, q, d):
    return Surd(F(p), F(q), d)


X = RationalPolynomial((0, 1))


def f_b2k_prime_reference(k):
    """The derivative of the B(2k, n) limit objective, stated independently:
    (1/4k^2 + 1/2) a^2 - (1/2k + 1) a + 1/2."""
    return RationalPolynomial((F(1, 2), -(F(1, 2 * k) + 1), F(1, 4 * k * k) + F(1, 2)))


def d0_cubic_reference():
    """The d = 0 case objective after eliminating a = 2 - 4b and c = 3b - 1,
    stated independently: 11 b^3 / 2 - 21 b^2 / 2 + 6 b - 1."""
    return RationalPolynomial((F(-1), F(6), F(-21, 2), F(11, 2)))


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


def test_peak_by_degree():
    assert RationalPolynomial((5,)).peak(1, 2) == (1, 5)            # a constant ties: leftmost
    assert RationalPolynomial((2, -3)).peak(0, 1) == (0, 2)
    assert X.peak(-1, 1) == (1, 1)
    assert (X * (1 - X)).peak(0, 1) == (F(1, 2), F(1, 4))
    # the derivative's root at the endpoint 1 is not a third candidate
    assert (-(X - 1) ** 2).peak(0, 1) == (1, 0)
    # x^3 + x: the derivative 3x^2 + 1 has a negative discriminant
    assert (X**3 + X).peak(-1, 2) == (2, 10)
    # x^3: a double root of the derivative inside
    assert (X**3).peak(-1, 1) == (1, 1)
    # 2x - x^3/3: surd roots +-sqrt 2 of the derivative
    assert (2 * X - X**3 / 3).peak(0, 2) == (Surd.sqrt(2), F(4, 3) * Surd.sqrt(2))
    # 3x - x^3: a rational square discriminant keeps the root a Fraction
    argmax, value = (3 * X - X**3).peak(0, 2)
    assert (argmax, value) == (1, 2) and type(argmax) is F
    # a tie between the left end and the interior maximum: the left end wins
    assert (3 * X - X**3).peak(-2, 2) == (-2, 2)


def test_peak_refuses_degree_4_and_an_empty_interval():
    with pytest.raises(ValueError, match="degree"):
        (X**4).peak(0, 1)
    with pytest.raises(ValueError, match="empty"):
        X.peak(1, 0)


small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=8)


@given(st.lists(small_fractions, max_size=4), small_fractions, small_fractions,
       st.lists(st.fractions(min_value=0, max_value=1, max_denominator=50), max_size=8))
def test_peak_bounds_the_polynomial_on_the_interval(cs, x, y, ts):
    p = RationalPolynomial(tuple(cs))
    lo, hi = min(x, y), max(x, y)
    argmax, value = p.peak(lo, hi)
    assert lo <= argmax <= hi and p(argmax) == value
    for t in [0, 1, *ts]:
        assert value >= p(lo + t * (hi - lo))


# coefficients with large, unrelated denominators, so sums and products
# exercise the common denominator and its gcd
wide_fractions = st.one_of(st.integers(-50, 50),
                           st.fractions(min_value=-10, max_value=10, max_denominator=1000))
coeff_lists = st.lists(wide_fractions, max_size=6)
# trailing zeros, so the constructor's trimming is exercised too
padded_coeff_lists = st.tuples(coeff_lists, st.integers(0, 2)).map(lambda t: t[0] + [0] * t[1])


def both(cs):
    return RationalPolynomial(tuple(cs)), PolynomialReference(tuple(cs))


def agree(got, want):
    """A polynomial result matches the reference's coefficient for
    coefficient; any other result by value and type."""
    if isinstance(want, PolynomialReference):
        assert isinstance(got, RationalPolynomial) and got.coeffs == want.coeffs
    else:
        assert type(got) is type(want) and got == want


def assert_normal_form(p):
    num, den = p._num, p._den
    assert all(type(n) is int for n in num) and type(den) is int and den > 0
    assert math.gcd(den, *num) == 1
    assert not num or num[-1] != 0
    assert p.degree == len(num) - 1 and p.coeffs == tuple(F(n, den) for n in num)
    if not num:
        assert den == 1 and p.degree == -1


@given(padded_coeff_lists, padded_coeff_lists, wide_fractions, st.integers(0, 4))
def test_polynomial_arithmetic_matches_the_fraction_reference(cs1, cs2, c, n):
    (p, rp), (q, rq) = both(cs1), both(cs2)
    agree(p, rp)
    results = [
        (p + q, rp + rq), (p - q, rp - rq), (p * q, rp * rq), (-p, -rp),
        (p + c, rp + c), (c + p, c + rp), (c - p, c - rp), (c * p, c * rp),
        (p**n, rp**n), (p.derivative(), rp.derivative()), (p(q), rp(rq)),
    ]
    if c != 0:
        results.append((p / c, rp / c))
    for got, want in results:
        agree(got, want)
        if isinstance(got, RationalPolynomial):
            assert_normal_form(got)


@given(padded_coeff_lists, wide_fractions, st.integers(-20, 20), fractions_st, radicands)
def test_polynomial_evaluates_like_the_fraction_reference(cs, x, i, qs, d):
    p, rp = both(cs)
    for point in (x, i, Surd(x, qs, d)):
        agree(p(point), rp(point))


finite_floats = st.floats(min_value=-4, max_value=4, allow_nan=False)


@given(padded_coeff_lists, finite_floats, st.lists(finite_floats, min_size=1, max_size=8),
       st.lists(finite_floats, min_size=1, max_size=8))
def test_polynomial_float_evaluation_is_horner_on_float_coefficients(cs, x, re, im):
    p = RationalPolynomial(tuple(cs))

    def horner(x):
        acc = 0
        for c in reversed([float(c) for c in p.coeffs]):
            acc = acc * x + c
        return acc

    n = min(len(re), len(im))
    real = np.array(re)
    cplx = real[:n] + 1j * np.array(im[:n])
    for point in (x, np.float64(x), real, cplx, real[:, None] * real):
        got, want = p(point), horner(point)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@given(coeff_lists, st.integers(-3, 3).filter(bool), st.integers(0, 2))
def test_polynomial_equality_and_hash_follow_the_coefficients(cs, scale, pad):
    p = RationalPolynomial(tuple(cs))
    # the same value, reached by another path, and a neighbouring one
    same = RationalPolynomial(tuple(cs) + (0,) * pad) * scale / scale
    other = p + X**len(cs)
    for q in (p, same, other, RationalPolynomial(())):
        assert (p == q) == (p.coeffs == q.coeffs)
        if p == q:
            assert hash(p) == hash(q)
    assert p == same and p != other


def test_polynomial_zero_is_the_empty_normal_form():
    zero = RationalPolynomial(())
    assert zero == RationalPolynomial((0, F(0), 0)) == X - X == 3 * X * 0
    assert (zero._num, zero._den, zero.degree, zero.coeffs, bool(zero)) == ((), 1, -1, (), False)
    assert RationalPolynomial((F(2, 4), F(-3, 6))) == RationalPolynomial((F(1, 2), F(-1, 2)))
    half = RationalPolynomial((F(1, -2), F(3, 2)))
    assert (half._num, half._den) == ((-1, 3), 2)


@given(fractions_st, fractions_st, fractions_st, fractions_st, radicands)
def test_surd_arithmetic_results_are_in_normal_form(p1, q1, p2, q2, d):
    x, y = Surd(p1, q1, d), Surd(p2, q2, d)
    results = [x + y, x - y, -x, x * y, x + p2, p1 * y]
    if y != 0:
        results.append(x / y)
    for r in results:
        n = Surd(r.p, r.q, r.d)
        assert (type(r.p), type(r.q), r.p, r.q, r.d) == (F, F, n.p, n.q, n.d)


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
    assert f_b2k_poly(k).derivative()(a) == Surd(F(0))
    assert 6 * f_b2k(a, k) == alpha_k(k)


def test_f_b2k_values():
    assert f_b2k(F(0), 2) == 0
    assert f_b2k(F(1), 2) == F(1, 16)
    assert abs(f_b2k(float(astar_weight(2)), 2) - 0.117367) < 1e-6


@pytest.mark.parametrize("k", range(1, 9))
def test_f_b2k_prime_is_formal_derivative(k):
    assert f_b2k_poly(k).derivative() == f_b2k_prime_reference(k)


def test_alpha_k_is_irrational_sampled():
    rng = random.Random(31)
    for k in [1, 2, 3, 17, 1000, 10**6] + [rng.randint(1, 10**6) for _ in range(50)]:
        assert math.isqrt(4 * k - 1) ** 2 != 4 * k - 1
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
    assert theorem1_bound_poly(2 - 4 * X, X, 3 * X - 1, F(0)) == d0_cubic_reference()
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


def test_complex_step_partials_match_exact_central_differences(monkeypatch):
    from hyperlag.certify import _complex_step

    eps = np.finfo(float).eps
    pts = simplex_lattice(4)
    got = _complex_step(theorem1_bound_poly, np.array(pts, dtype=float))[1]
    assert got.dtype == np.float64 and got.shape == (len(pts), 4)
    # the 2/25 polynomial is defined on all of R^4; lift the simplex check to
    # step along single coordinates exactly
    monkeypatch.setattr(closedform, "_check_simplex", lambda values, label: None)
    for p, row in zip(pts, got):
        for i in range(4):
            def along(h, i=i):
                return theorem1_bound_poly(*(x + h if j == i else x for j, x in enumerate(p)))
            assert abs(row[i] - exact_derivative(along)) <= 4 * eps
    pts = simplex_lattice(3)
    for k in (2, 3):
        got = _complex_step(lambda w, a, b: theorem3_bound(w, a, k),
                            np.array(pts, dtype=float))[1]
        # the bound reads b as 1 - w - a, so it has no b-partial of its own
        assert not got[:, 2].any()
        for (w, a, _), (gw, ga, _) in zip(pts, got):
            assert abs(gw - exact_derivative(lambda h: theorem3_bound(w + h, a, k))) <= 4 * eps
            assert abs(ga - exact_derivative(lambda h: theorem3_bound(w, a + h, k))) <= 4 * eps


def test_complex_step_values_are_the_real_evaluation_bit_for_bit():
    # both polynomials use only +, -, * and division by powers of two, so
    # every h^2 term underflows and the real part is the real evaluation
    from hyperlag.certify import _complex_step

    P = np.array(simplex_lattice(4), dtype=float)
    assert _complex_step(theorem1_bound_poly, P)[0].tobytes() == \
        theorem1_bound_poly(*P.T).tobytes()
    P = np.array(simplex_lattice(3), dtype=float)
    for k in range(2, 7):
        def fn(w, a, b):
            return theorem3_bound(w, a, k)
        assert _complex_step(fn, P)[0].tobytes() == fn(*P.T).tobytes()


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
    cubic = d0_cubic_reference()
    assert cubic(F(1, 3)) == F(1, 27)
    assert cubic(F(1, 2)) == F(1, 16)
    bstar, peak = cubic.peak(F(1, 3), F(1, 2))
    assert bstar == surd(F(7, 11), F(-1, 11), 5)
    assert cubic.derivative()(bstar) == 0
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
    # the apex cubic as stated: 11w^3/54 - 5w^2/9 + 5w/18 + 1/27
    cubic = RationalPolynomial((F(1, 27), F(5, 18), F(-5, 9), F(11, 54)))
    val = F(11, 54) * F(1, 8) - F(5, 9) * F(1, 4) + F(5, 18) * F(1, 2) + F(1, 27)
    assert val == F(1, 16) == cubic(F(1, 2))
    for k in range(2, 7):
        assert theorem3_g_poly(k) == theorem3_t_poly(k) + cubic


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


def test_bound_chain_reads_the_inner_maximizer_off_the_bound(monkeypatch):
    # a term that vanishes at a = (2 - 4w)/3 keeps the envelope but moves the
    # inner maximizer: only the a-derivative of the bound itself can see it
    def perturbed(w, a, k):
        return theorem3_bound(w, a, k) + (a - (2 - 4 * w) / 3) * w * w / 10

    monkeypatch.setattr(closedform, "theorem3_bound", perturbed)
    for k in (2, 3):
        report = theorem3_bound_chain(k)
        assert [step for step, holds in report.items() if not holds] == ["inner-maximizer"]


def test_bound_chain_proves_the_inner_maximum_not_just_a_critical_point(monkeypatch):
    # a square in a - (2 - 4w)/3 keeps that point critical and keeps the
    # envelope, but makes it the minimum over a: a zero derivative there
    # passes, the identity for the whole a-partial does not
    def perturbed(w, a, k):
        return theorem3_bound(w, a, k) + (a - (2 - 4 * w) / 3) ** 2 / 2

    monkeypatch.setattr(closedform, "theorem3_bound", perturbed)
    for k in (2, 3):
        report = theorem3_bound_chain(k)
        assert [step for step, holds in report.items() if not holds] == ["inner-maximizer"]


@pytest.mark.parametrize("k", (2, 3, 7))
def test_bound_a_partial_identity(k):
    a = X
    for w in (F(0), F(1, 3), F(2, 5), F(7, 9)):
        assert theorem3_bound(w, a, k).derivative() == -a * (3 * a + 4 * w - 2) / 4


def test_exact_json_shape():
    blob = exact_to_json(alpha_k(2))
    assert blob == {"p": "20/81", "q": "14/81", "d": 7, "float": float(alpha_k(2))}
    assert exact_to_json(F(3)) == {"p": "3/1", "q": "0/1", "d": 1, "float": 3.0}
