"""Exact arithmetic and the closed-form layer behind the certified bounds.

Three value types live here: stdlib ``Fraction`` rationals (re-exported as
``Rational``), quadratic surds ``p + q*sqrt(d)`` with a fixed square-free
radicand, and dense univariate polynomials with rational coefficients.
On top of them sit the formulas the certification pipelines need: the
irrational bound family ``alpha_k``, its maximizer ``a*``, the limit
objective ``f_b2k`` of the B(2k, n) family, the bound polynomial and cubic
case analysis for the 2/25 certificate, and the monotone-chain checks for
the alpha_k/6 certificate.

Everything is pure and exact.  Floats appear only when a caller asks for
them explicitly; every comparison and identity on the exact path is decided
in integer arithmetic.  The bound polynomials take Fractions, floats or
numpy columns alike, so the numeric searches evaluate the same formulas the
exact cases prove.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, isqrt
from typing import Union

import numpy as np

from .hypercore import WeightVector

Rational = Fraction

__all__ = [
    "Rational",
    "Surd",
    "RationalPolynomial",
    "square_free_split",
    "alpha_k",
    "astar_weight",
    "f_b2k",
    "f_b2k_prime",
    "f_b2k_poly",
    "f_b2k_numeric_max",
    "is_non_square_4k_minus_1",
    "theorem1_bound_poly",
    "theorem1_bound_gradient",
    "theorem3_bound_gradient",
    "theorem1_d0_cubic_poly",
    "theorem1_d0_critical_point",
    "theorem1_d0_peak_value",
    "verify_theorem1_quartic_identity",
    "theorem3_bound",
    "theorem3_t_poly",
    "theorem3_cubic_part_poly",
    "theorem3_g_poly",
    "theorem3_c0",
    "theorem3_bound_chain",
    "exact_to_json",
    "to_json",
]


def square_free_split(n: int) -> tuple[int, int]:
    """Factor n >= 1 as m*m*d with d square-free; return (m, d)."""
    if n < 1:
        raise ValueError(f"square_free_split needs n >= 1, got {n}")
    m, d = 1, 1
    rest = n
    f = 2
    while f * f <= rest:
        if rest % f == 0:
            e = 0
            while rest % f == 0:
                rest //= f
                e += 1
            m *= f ** (e // 2)
            if e % 2:
                d *= f
        f += 1 if f == 2 else 2
    return m, d * rest


def _sign_fraction(x: Fraction) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True, eq=False)
class Surd:
    """Exact quadratic surd ``p + q*sqrt(d)`` with rational p, q.

    The radicand d is kept square-free (square parts are absorbed into q on
    construction) and arithmetic is closed for a fixed d.  Combining two
    surds whose radicands differ, both with nonzero irrational part, raises
    ValueError; rationals and radicand-free surds coerce freely.  Order
    comparisons are exact, via sign analysis and squaring.
    """

    p: Fraction
    q: Fraction = Fraction(0)
    d: int = 1

    def __post_init__(self):
        p = Fraction(self.p)
        q = Fraction(self.q)
        d = int(self.d)
        if d < 1:
            raise ValueError(f"radicand must be a positive integer, got {d}")
        m, sf = square_free_split(d)
        if m != 1:
            q *= m
            d = sf
        if d == 1:
            p, q = p + q, Fraction(0)
        if q == 0:
            d = 1
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)

    @classmethod
    def sqrt(cls, n: Union[int, Fraction]) -> "Surd":
        """Exact square root of a nonnegative rational."""
        x = Fraction(n)
        if x < 0:
            raise ValueError(f"negative radicand {x}")
        if x == 0:
            return cls(Fraction(0))
        m, d = square_free_split(x.numerator * x.denominator)
        return cls(Fraction(0), Fraction(m, x.denominator), d)

    def _coerce(self, other):
        if isinstance(other, Surd):
            return other
        if isinstance(other, (int, Fraction)):
            return Surd(Fraction(other))
        return None

    def _joint_d(self, other: "Surd") -> int:
        if self.q == 0:
            return other.d
        if other.q == 0:
            return self.d
        if self.d != other.d:
            raise ValueError(f"mixed radicands sqrt({self.d}) and sqrt({other.d})")
        return self.d

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Surd(self.p + o.p, self.q + o.q, self._joint_d(o))

    __radd__ = __add__

    def __neg__(self):
        return Surd(-self.p, -self.q, self.d)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._joint_d(o)
        return Surd(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # p^2 == q^2 d with d square-free > 1 forces p == q == 0
        denom = self.p * self.p - self.q * self.q * self.d
        if denom == 0:
            raise ZeroDivisionError("inverse of zero surd")
        return Surd(self.p / denom, -self.q / denom, self.d)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def sign(self) -> int:
        """Exact sign of p + q*sqrt(d), computed without floats."""
        if self.q == 0:
            return _sign_fraction(self.p)
        if self.p == 0:
            return _sign_fraction(self.q)
        sp, sq = _sign_fraction(self.p), _sign_fraction(self.q)
        if sp == sq:
            return sp
        # opposite signs: the larger of p^2 and q^2 d decides
        pp, qq = self.p * self.p, self.q * self.q * self.d
        if pp == qq:
            return 0
        return sp if pp > qq else sq

    def _cmp(self, other) -> int:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Surd with {type(other).__name__}")
        return (self - o).sign()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.q == 0 and o.q == 0:
            return self.p == o.p
        return self.p == o.p and self.q == o.q and self.d == o.d

    def __hash__(self):
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.d)

    def __floor__(self) -> int:
        n = math.floor(float(self))
        while (self - n).sign() < 0:
            n -= 1
        while (self - (n + 1)).sign() >= 0:
            n += 1
        return n

    def __repr__(self):
        if self.q == 0:
            return f"Surd({self.p})"
        return f"Surd({self.p} + {self.q}*sqrt({self.d}))"


def exact_to_json(x) -> dict:
    """Serialize a Fraction or Surd as {"p","q","d","float"} with p, q as num/den strings."""
    s = x if isinstance(x, Surd) else Surd(Fraction(x))
    return {
        "p": f"{s.p.numerator}/{s.p.denominator}",
        "q": f"{s.q.numerator}/{s.q.denominator}",
        "d": s.d,
        "float": float(s),
    }


_JSON_KEYS = {"case_name": "case", "passed": "pass"}


def to_json(obj):
    """JSON-ready form of a report: a dataclass becomes a dict in field order
    (``case_name`` and ``passed`` are written as ``case`` and ``pass``), a
    WeightVector its weights, a Fraction or Surd goes through exact_to_json,
    and tuples become lists."""
    if isinstance(obj, WeightVector):
        return list(obj.weights)
    if isinstance(obj, (Fraction, Surd)):
        return exact_to_json(obj)
    if dataclasses.is_dataclass(obj):
        return {_JSON_KEYS.get(f.name, f.name): to_json(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {key: to_json(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return [to_json(value) for value in obj]
    return obj


@dataclass(frozen=True)
class RationalPolynomial:
    """Dense univariate polynomial over the rationals, coefficients low-to-high.

    The zero polynomial is the empty coefficient tuple; otherwise the leading
    coefficient is nonzero.  Evaluation is Horner's rule, exact on Fractions
    and Surds; on a float or a numpy array it runs on float coefficients.
    Evaluating at another polynomial substitutes it for the variable.
    """

    coeffs: tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def _coerce(self, other):
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial((Fraction(other),))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = max(len(self.coeffs), len(o.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        b = list(o.coeffs) + [Fraction(0)] * (n - len(o.coeffs))
        return RationalPolynomial(tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.coeffs or not o.coeffs:
            return RationalPolynomial(())
        out = [Fraction(0)] * (len(self.coeffs) + len(o.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(o.coeffs):
                out[i + j] += a * b
        return RationalPolynomial(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        out = RationalPolynomial((Fraction(1),))
        for _ in range(n):
            out = out * self
        return out

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        return tuple(float(c) for c in self.coeffs)

    def __call__(self, x):
        coeffs = self._float_coeffs if isinstance(x, (float, np.ndarray)) else self.coeffs
        acc = 0
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if other == 0:
            raise ZeroDivisionError("polynomial divided by zero")
        return RationalPolynomial(tuple(c / other for c in self.coeffs))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))


_X = RationalPolynomial((Fraction(0), Fraction(1)))


# ---------------------------------------------------------------------------
# The alpha_k family and the B(2k, n) limit objective
# ---------------------------------------------------------------------------

def alpha_k(k: int) -> Surd:
    """The surd constant (2k - 6k^3 + 4k^4 + (4k^2 - k) sqrt(4k-1)) / (2k^2+1)^2.

    Six times the peak of ``f_b2k(., k)``; irrational for every k >= 1
    because 4k - 1 is never a perfect square.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    den = (2 * k * k + 1) ** 2
    rat = Fraction(2 * k - 6 * k**3 + 4 * k**4, den)
    return rat + Fraction(4 * k * k - k, den) * Surd.sqrt(4 * k - 1)


def astar_weight(k: int) -> Surd:
    """Maximizer a* = (2k^2 + k - k sqrt(4k-1)) / (2k^2 + 1) of f_b2k(., k)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    den = 2 * k * k + 1
    return Fraction(2 * k * k + k, den) - Fraction(k, den) * Surd.sqrt(4 * k - 1)


@lru_cache(maxsize=None)
def f_b2k_poly(k: int) -> RationalPolynomial:
    """Limit objective of B(2k, n) as a cubic in the total apex weight a:
    the first-block terms ``theorem3_t_poly(k)`` plus a (1-a)^2 / 2, that is

        (a/2k)^3 C(2k,3) + (a/2k)^2 C(2k,2) (1-a) + a (1-a)^2 / 2
    """
    return theorem3_t_poly(k) + _X * (1 - _X) ** 2 / 2


def f_b2k(a, k: int):
    """Evaluate the B(2k, n) limit objective at a; generic over number type."""
    return f_b2k_poly(k)(a)


def f_b2k_prime(a, k: int):
    """Evaluate the derivative of the limit objective at a."""
    return f_b2k_poly(k).derivative()(a)


def f_b2k_numeric_max(k: int, iters: int = 200) -> tuple[float, float]:
    """Locate the maximum of f_b2k(., k) on [0, 1] numerically.

    Bisects the derivative, which is positive at 0 and negative at 1, so the
    result is independent of the closed forms above.  Returns (argmax, value).
    """
    fp = f_b2k_poly(k).derivative()
    lo, hi = 0.0, 1.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fp(mid) > 0:
            lo = mid
        else:
            hi = mid
    a_hat = 0.5 * (lo + hi)
    return a_hat, f_b2k(a_hat, k)


def is_non_square_4k_minus_1(k: int) -> bool:
    """True for every k >= 1: 4k - 1 is 3 mod 4 and squares are 0 or 1 mod 4.

    Decided both by the mod-4 argument and by an integer-sqrt check; the two
    must agree or an ArithmeticError is raised.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n = 4 * k - 1
    by_mod = n % 4 not in (0, 1)
    by_isqrt = isqrt(n) ** 2 != n
    if by_mod != by_isqrt:
        raise ArithmeticError(f"square tests disagree for {n}")
    return by_isqrt


# ---------------------------------------------------------------------------
# The 2/25 certificate: bound polynomial and case formulas
# ---------------------------------------------------------------------------

def _check_simplex(values, label: str) -> None:
    """Reject a point off the standard simplex (tolerance 1e-12).  The
    coordinates are numbers, or numpy columns holding one point per row, or
    polynomials in one variable (a substitution), which must sum to 1
    identically; their signs are the caller's range restriction."""
    # one scan, so the scalar path of the ascent pays for one generator only
    first = next((v for v in values if isinstance(v, (np.ndarray, RationalPolynomial))), None)
    if isinstance(first, RationalPolynomial):
        if sum(values) - 1:
            raise ValueError(f"{label}: coordinates do not sum to 1 identically")
        return
    if first is not None:
        low = float(min(np.min(v) for v in values))
        # left to right: on broadcast blocks only the sums from the first
        # full-size column on run at full size
        sums = sum(values)
        total = float(max(sums.min(), sums.max(), key=lambda s: abs(s - 1.0)))
    else:
        floats = [float(v) for v in values]
        low, total = min(floats), sum(floats)
    # negated, so a NaN fails: the sum carries it even where min drops it
    if not low >= -1e-12:
        raise ValueError(f"{label}: negative coordinate {low}")
    if not abs(total - 1.0) <= 1e-12:
        raise ValueError(f"{label}: coordinates sum to {total}, not 1")


def theorem1_bound_poly(a, b, c, d):
    """Bound polynomial (a^2/4 + ab + b^2/2) c + (a+b) c d + c^2 d / 2 + a^2 b / 4.

    Requires (a, b, c, d) on the standard simplex (tolerance 1e-12); generic
    over number type, so exact on Fractions, on numpy columns it checks and
    evaluates one point per row, and on polynomial coordinates summing to 1
    it returns the substituted polynomial (a face or an edge).
    """
    _check_simplex((a, b, c, d), "theorem1_bound_poly")
    return (a * a / 4 + a * b + b * b / 2) * c + (a + b) * c * d + c * c * d / 2 + a * a / 4 * b


def theorem1_bound_gradient(a, b, c, d):
    """Partial derivatives of the bound polynomial in (a, b, c, d)."""
    ga = (a / 2 + b) * c + c * d + a * b / 2
    gb = (a + b) * c + c * d + a * a / 4
    gc = a * a / 4 + a * b + b * b / 2 + (a + b) * d + c * d
    gd = (a + b) * c + c * c / 2
    return ga, gb, gc, gd


def theorem1_d0_cubic_poly() -> RationalPolynomial:
    """The d = 0 case objective after eliminating a = 2 - 4b and c = 3b - 1:
    11 b^3 / 2 - 21 b^2 / 2 + 6 b - 1."""
    return RationalPolynomial((Fraction(-1), Fraction(6), Fraction(-21, 2), Fraction(11, 2)))


def theorem1_d0_critical_point() -> Surd:
    """The cubic's critical point (7 - sqrt 5) / 11 inside [1/3, 1/2]."""
    return Fraction(7, 11) - Fraction(1, 11) * Surd.sqrt(5)


def theorem1_d0_peak_value() -> Surd:
    """Exact value of the d = 0 cubic at its critical point; below 0.076."""
    return theorem1_d0_cubic_poly()(theorem1_d0_critical_point())


def _t1_kkt_c_from_b(b: Fraction) -> Fraction:
    # stationarity across the second and third coordinates
    return (13 * b * b - 6 * b) / (8 * b - 4)


def verify_theorem1_quartic_identity() -> list[tuple[Fraction, ...]]:
    """Expand the stationarity resultant and kill every interior candidate.

    Checks, coefficient for coefficient in exact rationals, that

        (8b - 4)^2 (19b^2 - 10b + 1) - (b^2 - 10b + 4)^2
            == 9 b (5b - 2) (9b - 4) (3b - 2),

    then walks the nonzero roots b in {2/5, 4/9, 2/3}: for each, the value
    c = (13b^2 - 6b)/(8b - 4) also solves the quadratic stationarity relation
    (3/2) c^2 + (1 - 5b) c + b^2 = 0, and the resulting point with a = 2b - 2c,
    d = 1 - a - b - c violates strict positivity.  Returns those three points
    (a, b, c, d).  Any failure raises ArithmeticError, since it would mean
    the implementation itself is broken.
    """
    b = _X
    lhs = (8 * b - 4) ** 2 * (19 * b**2 - 10 * b + 1) - (b**2 - 10 * b + 4) ** 2
    rhs = 9 * b * (5 * b - 2) * (9 * b - 4) * (3 * b - 2)
    if lhs != rhs:
        raise ArithmeticError(f"quartic expansion mismatch: {lhs.coeffs} vs {rhs.coeffs}")

    # each root forces one coordinate to zero or below
    expected = {
        Fraction(2, 5): ("a", Fraction(0)),
        Fraction(4, 9): ("d", Fraction(-1, 9)),
        Fraction(2, 3): ("a", Fraction(-4, 3)),
    }
    points = []
    for b0, (which, value) in expected.items():
        c0 = _t1_kkt_c_from_b(b0)
        if Fraction(3, 2) * c0 * c0 + (1 - 5 * b0) * c0 + b0 * b0 != 0:
            raise ArithmeticError(f"c({b0}) fails the quadratic stationarity relation")
        a0 = 2 * b0 - 2 * c0
        point = dict(zip("abcd", (a0, b0, c0, 1 - a0 - b0 - c0)))
        if point[which] != value:
            raise ArithmeticError(f"root b={b0}: expected {which}={value}, got {point[which]}")
        points.append(tuple(point.values()))
    # the other quadratic branch at b = 2/3 fails through the last coordinate
    b0 = Fraction(2, 3)
    c_minus = 2 * b0 * b0 / (3 * _t1_kkt_c_from_b(b0))
    if c_minus != Fraction(2, 9) or 1 - 3 * b0 + c_minus != Fraction(-7, 9):
        raise ArithmeticError("minus-branch check at b=2/3 failed")
    return points


# ---------------------------------------------------------------------------
# The alpha_k/6 certificate: bound function and monotone chain
# ---------------------------------------------------------------------------

def theorem3_bound(w, a, k: int):
    """Bound function for the (2k+1)-part analysis, with b = 1 - w - a:

        (w/2k)^3 C(2k,3) + (w/2k)^2 C(2k,2) (1-w)
            + w (a^2/4 + ab + b^2/2) + a^2 b / 4

    Generic over number type: exact on Fractions, elementwise on numpy
    columns, and on polynomials in one variable it substitutes them.
    """
    b = 1 - w - a
    t = theorem3_t_poly(k)(w)
    return t + w * (a * a / 4 + a * b + b * b / 2) + a * a / 4 * b


def theorem3_bound_gradient(w, a, k: int):
    """Partial derivatives of ``theorem3_bound`` in w and a, with b = 1 - w - a
    eliminated: each is the three-variable partial minus the b-partial."""
    b = 1 - w - a
    gw = _theorem3_t_prime_poly(k)(w) + a * b + b * b / 2 - w * (a + b)
    ga = a * (b - w) / 2 - a * a / 4
    return gw, ga


@lru_cache(maxsize=None)
def _theorem3_t_prime_poly(k: int) -> RationalPolynomial:
    return theorem3_t_poly(k).derivative()


@lru_cache(maxsize=None)
def theorem3_t_poly(k: int) -> RationalPolynomial:
    """Collapsed first-block contribution (w/2k)^3 C(2k,3) + (w/2k)^2 C(2k,2)(1-w)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    w = _X
    return (
        Fraction(comb(2 * k, 3), (2 * k) ** 3) * w**3
        + Fraction(comb(2 * k, 2), (2 * k) ** 2) * w**2 * (1 - w)
    )


def theorem3_cubic_part_poly() -> RationalPolynomial:
    """Apex contribution along the inner maximizer: 11w^3/54 - 5w^2/9 + 5w/18 + 1/27."""
    return RationalPolynomial((Fraction(1, 27), Fraction(5, 18), Fraction(-5, 9), Fraction(11, 54)))


def theorem3_g_poly(k: int) -> RationalPolynomial:
    """Upper envelope g(w) of the bound over a, valid for w < 1/2."""
    return theorem3_t_poly(k) + theorem3_cubic_part_poly()


def theorem3_c0(k: int) -> Surd:
    """Uniform-weight shortfall coefficient of the ideal (2k+1)-part count."""
    den = 6 * (2 * k * k + 1) ** 2
    rat = Fraction(3 * k + 6 * k * k - 18 * k**3, den)
    irr = Fraction(-3 * k + 6 * k * k + 6 * k**3, den)
    return rat + irr * Surd.sqrt(4 * k - 1)


def theorem3_bound_chain(k: int) -> dict[str, bool]:
    """Verify the monotone chain that pins the alpha_k/6 bound, exactly;
    returns whether each step holds, by step name in this order.

    Steps:
      inner-maximizer: the a-partial of ``theorem3_bound`` (from
            ``theorem3_bound_gradient``) vanishes identically at
            a = (2 - 4w)/3, and ``theorem3_bound`` there is the envelope
            g = T + the stated apex cubic;
      endpoint-1/16: the cubic envelope equals exactly 1/16 at w = 1/2,
            matching w (1 - w)^2 / 2 there;
      gprime-positive: g' stays positive on [0, 1/2]: it is a concave
            quadratic with positive values at both endpoints;
      half-point-bound: g(1/2) equals f_b2k(1/2, k) exactly and sits
            strictly below alpha_k / 6 (surd comparison).
    """
    if k < 2:
        raise ValueError(f"chain requires k >= 2, got {k}")
    w = _X
    a_inner = (2 - 4 * w) / 3
    g = theorem3_g_poly(k)
    half = Fraction(1, 2)
    gp = g.derivative()
    g_half = g(half)
    return {
        "inner-maximizer": (not theorem3_bound_gradient(w, a_inner, k)[1]
                            and theorem3_bound(w, a_inner, k) == g),
        "endpoint-1/16": (theorem3_cubic_part_poly()(half) == Fraction(1, 16)
                          == half * (1 - half) ** 2 / 2),
        # a concave quadratic lies above its chord
        "gprime-positive": (gp.degree == 2 and gp.coeffs[2] < 0
                            and gp(Fraction(0)) > 0 and gp(half) > 0),
        "half-point-bound": g_half == f_b2k(half, k) and alpha_k(k) / 6 > g_half,
    }
