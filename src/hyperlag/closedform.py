"""Exact arithmetic and the closed-form layer behind the certified bounds.

Three value types live here: stdlib ``Fraction`` rationals, quadratic surds
``p + q*sqrt(d)`` with a fixed square-free radicand, and dense univariate
polynomials with rational coefficients, stored as integer numerators over
one common denominator so that their arithmetic, and their evaluation at an
int or a Fraction, run on Python ints.  A surd's arithmetic results skip the
square-free split: their radicand is square-free already.
On top of them sit the formulas the certification pipelines need: the
irrational bound family ``alpha_k``, its maximizer ``a*``, the limit
objective ``f_b2k`` of the B(2k, n) family, the bound polynomial and the
interior quartic for the 2/25 certificate, and the monotone-chain checks for
the alpha_k/6 certificate.

Everything is pure and exact.  Floats appear only when a caller asks for
them explicitly; every comparison and identity on the exact path is decided
in integer arithmetic.  The bound polynomials take Fractions, floats or
numpy columns, real or complex, alike, so the 2/25 certificate's numeric
search evaluates and differentiates (by the complex step) the same formula
its exact cases prove, and no gradient is written by hand.  The alpha_k/6
certificate runs no numeric search: its early-case collapse and monotone
chain cover every point exactly.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, total_ordering
from math import comb
from typing import Union

import numpy as np

from .hypercore import WeightVector

__all__ = [
    "Surd",
    "RationalPolynomial",
    "square_free_split",
    "alpha_k",
    "astar_weight",
    "f_b2k",
    "f_b2k_poly",
    "f_b2k_numeric_max",
    "theorem1_bound_poly",
    "verify_theorem1_quartic_identity",
    "theorem3_bound",
    "theorem3_t_poly",
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


_ZERO = Fraction(0)


def _sign_fraction(x: Fraction) -> int:
    return (x > 0) - (x < 0)


class _Subtraction:
    """Subtraction for the exact types, from their ``_coerce``, ``+`` and unary ``-``."""

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


@total_ordering
@dataclass(frozen=True, eq=False)
class Surd(_Subtraction):
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
    def _make(cls, p: Fraction, q: Fraction, d: int) -> "Surd":
        """The arithmetic results' constructor: p and q are Fractions and d
        is square-free already, so only a zero q resets d to 1."""
        out = object.__new__(cls)
        object.__setattr__(out, "p", p)
        object.__setattr__(out, "q", q)
        object.__setattr__(out, "d", d if q else 1)
        return out

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
            return Surd._make(Fraction(other), _ZERO, 1)
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
        return Surd._make(self.p + o.p, self.q + o.q, self._joint_d(o))

    __radd__ = __add__

    def __neg__(self):
        return Surd._make(-self.p, -self.q, self.d)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d = self._joint_d(o)
        return Surd._make(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, d)

    __rmul__ = __mul__

    def inverse(self) -> "Surd":
        # p^2 == q^2 d with d square-free > 1 forces p == q == 0
        denom = self.p * self.p - self.q * self.q * self.d
        if denom == 0:
            raise ZeroDivisionError("inverse of zero surd")
        return Surd._make(self.p / denom, -self.q / denom, self.d)

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
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare Surd with {type(other).__name__}")
        return (self - o).sign() < 0

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


def _convolve(a, b) -> list[int]:
    """The integer coefficients, low to high, of the product of two integer
    polynomials given low to high; empty when either is."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class RationalPolynomial(_Subtraction):
    """Dense univariate polynomial over the rationals.

    Stored as integer numerators, low to high, over one positive common
    denominator, in lowest terms (the denominator and the numerators have
    gcd 1) and with no trailing zero; the zero polynomial has no numerators,
    denominator 1 and degree -1.  The form is unique, so equality and hash
    are by value.  ``coeffs`` is the Fraction view, low to high.

    +, -, *, / by a rational, **, ``derivative`` and substitution run on
    Python ints, with one gcd normalisation per result.  Evaluation is
    Horner's rule: at an int or a Fraction on the integer numerators, giving
    one Fraction at the end; at a float or a numpy array, real or complex, on
    float coefficients; at a Surd on the Fraction coefficients.  Evaluating
    at another polynomial substitutes it for the variable.
    """

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._num, self._den = self._normal([c.numerator * (den // c.denominator) for c in cs], den)

    @staticmethod
    def _normal(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
        """sum(num[i] x^i) / den, den a nonzero int, in the normal form."""
        while num and not num[-1]:
            num.pop()
        if not num:
            return (), 1
        g = math.gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            num, den = [n // g for n in num], den // g
        return tuple(num), den

    @classmethod
    def _from_ints(cls, num: list[int], den: int) -> "RationalPolynomial":
        out = cls.__new__(cls)
        out._num, out._den = cls._normal(num, den)
        return out

    @cached_property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self._den) for n in self._num)

    @cached_property
    def _float_coeffs(self) -> tuple[float, ...]:
        # int / int rounds correctly, so each is float(c) of its Fraction
        return tuple(n / self._den for n in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    def __bool__(self):
        return bool(self._num)

    def __eq__(self, other):
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def __repr__(self):
        return f"RationalPolynomial(coeffs={self.coeffs!r})"

    def _coerce(self, other):
        if isinstance(other, RationalPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return RationalPolynomial._from_ints([other.numerator], other.denominator)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, den = self._num, o._num, self._den
        if den != o._den:
            g = math.gcd(den, o._den)
            ma, mb = o._den // g, den // g
            a, b, den = [x * ma for x in a], [y * mb for y in b], den * ma
        return RationalPolynomial._from_ints(
            [x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return RationalPolynomial._from_ints([-n for n in self._num], self._den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RationalPolynomial._from_ints(_convolve(self._num, o._num), self._den * o._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        num, den = [1], 1
        for _ in range(n):
            num, den = _convolve(num, self._num), den * self._den
        return RationalPolynomial._from_ints(num, den)

    def __call__(self, x):
        num = self._num
        if not num:
            return 0
        if isinstance(x, (int, Fraction)):
            # sum num[i] p^i q^(deg-i), over den q^deg
            p, q = x.numerator, x.denominator
            acc, scale = num[-1], 1
            for n in reversed(num[:-1]):
                scale *= q
                acc = acc * p + n * scale
            return Fraction(acc, self._den * scale)
        if isinstance(x, RationalPolynomial):
            # the same sum, with x's integer numerators p(t) and denominator q
            p, q = x._num, x._den
            acc, scale = [num[-1]], 1
            for n in reversed(num[:-1]):
                scale *= q
                acc = _convolve(acc, p) or [0]
                acc[0] += n * scale
            return RationalPolynomial._from_ints(acc, self._den * scale)
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
        return RationalPolynomial._from_ints([n * other.denominator for n in self._num],
                                             self._den * other.numerator)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial._from_ints([i * n for i, n in enumerate(self._num)][1:],
                                             self._den)

    def peak(self, lo, hi) -> tuple:
        """The maximum on [lo, hi] as (argmax, value), exactly, for degree at
        most 3.  The candidates are lo, hi and every real root of the
        derivative strictly between them, each evaluated once; of tied
        candidates the leftmost wins.  A root is a Fraction when the
        discriminant is a rational square and a Surd otherwise."""
        if self.degree > 3:
            raise ValueError(f"peak needs degree <= 3, got {self.degree}")
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError(f"empty interval [{lo}, {hi}]")
        deriv = self.derivative().coeffs
        c0, c1, c2 = deriv + (Fraction(0),) * (3 - len(deriv))
        roots: set = set()
        if c2:
            disc = c1 * c1 - 4 * c0 * c2
            if disc >= 0:
                root = Surd.sqrt(disc)
                root = root if root.q else root.p
                roots = {(-c1 - root) / (2 * c2), (-c1 + root) / (2 * c2)}
        elif c1:
            roots = {-c0 / c1}
        candidates = [lo, *sorted(x for x in roots if lo < x < hi), hi]
        return max(((x, self(x)) for x in candidates), key=lambda pair: pair[1])


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


# halvings of [0, 1] in f_b2k_numeric_max
_BISECTION_STEPS = 200


def f_b2k_numeric_max(k: int) -> tuple[float, float]:
    """Locate the maximum of f_b2k(., k) on [0, 1] numerically.

    Bisects the derivative, which is positive at 0 and negative at 1, so the
    result is independent of the closed forms above.  Returns (argmax, value).
    """
    fp = f_b2k_poly(k).derivative()
    lo, hi = 0.0, 1.0
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if fp(mid) > 0:
            lo = mid
        else:
            hi = mid
    a_hat = 0.5 * (lo + hi)
    return a_hat, f_b2k(a_hat, k)


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
        # a complex-step point is checked as the real point it moves
        values = [np.real(v) for v in values]
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


def theorem3_g_poly(k: int) -> RationalPolynomial:
    """Upper envelope g(w) of the bound over a, valid for w < 1/2: the bound
    at its inner maximizer a = (2 - 4w)/3."""
    return theorem3_bound(_X, (2 - 4 * _X) / 3, k)


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
      inner-maximizer: the a-partial of ``theorem3_bound`` is
            -a (3a + 4w - 2)/4, as polynomials in a at four values of w,
            hence identically, since both sides have degree at most 3 in w.
            For w < 1/2 it is positive for 0 < a < (2 - 4w)/3 and negative
            above, so a = (2 - 4w)/3, which lies in [0, 1 - w], maximizes
            the bound over a in [0, 1 - w]; g is the bound there;
      endpoint-1/16: the apex part g - T of the envelope equals exactly
            1/16 at w = 1/2, matching w (1 - w)^2 / 2 there;
      gprime-positive: g' stays positive on [0, 1/2]: it is a concave
            quadratic with positive values at both endpoints;
      half-point-bound: g(1/2) equals f_b2k(1/2, k) exactly and sits
            strictly below alpha_k / 6 (surd comparison).
    """
    if k < 2:
        raise ValueError(f"chain requires k >= 2, got {k}")
    a = _X
    g = theorem3_g_poly(k)
    half = Fraction(1, 2)
    gp = g.derivative()
    g_half = g(half)
    return {
        "inner-maximizer": all(theorem3_bound(w, a, k).derivative() == -a * (3 * a + 4 * w - 2) / 4
                               for w in (Fraction(i, 4) for i in range(4))),
        "endpoint-1/16": (g_half - theorem3_t_poly(k)(half) == Fraction(1, 16)
                          == half * (1 - half) ** 2 / 2),
        # a concave quadratic lies above its chord
        "gprime-positive": (gp.degree == 2 and gp.coeffs[2] < 0
                            and gp(Fraction(0)) > 0 and gp(half) > 0),
        "half-point-bound": g_half == f_b2k(half, k) and alpha_k(k) / 6 > g_half,
    }
