"""Exact elements of cyclotomic fields Q(zeta_e).

A value is a tuple of Python-int numerators on the power basis 1, zeta, ...,
zeta^(phi(e)-1) modulo the e-th cyclotomic polynomial, over one positive
denominator, with gcd(den, *num) = 1.  That pair is canonical for a fixed
conductor; mixed-conductor arithmetic promotes both operands to the lcm first.

Every change of basis goes through one scatter-and-reduce step, `_scatter`:
coefficient i goes to x^(i k mod m), and the result is reduced once by the
integer rows of `power_reduction_matrix(m)`.  Promotion uses k = m/e,
conjugation k = -1, the Galois automorphisms behind `inverse` the units k of
Z/e, and a product is an integer convolution folded mod x^e - 1 with k = 1.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import cos, gcd, lcm, pi, sin

import numpy as np

from .errors import DivisionByZero, check_invariant


@lru_cache(maxsize=None)
def totient(e: int) -> int:
    out = e
    m = e
    p = 2
    while p * p <= m:
        if m % p == 0:
            out -= out // p
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_e, low degree first."""
    # Phi_e = (x^e - 1) / prod of Phi_d over proper divisors d of e
    if e == 1:
        return (-1, 1)
    num = [0] * (e + 1)
    num[0] = -1
    num[e] = 1
    for d in range(1, e):
        if e % d == 0:
            num = _poly_div_exact(num, cyclotomic_polynomial(d))
    return tuple(num)


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        check_invariant(c % den[dd] == 0, "polynomial division must be exact")
        q = c // den[dd]
        out[i - dd] = q
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    check_invariant(all(x == 0 for x in num), "polynomial division leaves no remainder")
    return out


@lru_cache(maxsize=None)
def power_reduction_matrix(e: int) -> np.ndarray:
    """Read-only int64 array whose row u is x^u mod Phi_e on the power basis,
    0 <= u < e.  Phi_e is monic, so every row is integral."""
    phi_poly = cyclotomic_polynomial(e)
    phi = len(phi_poly) - 1
    row = [1] + [0] * (phi - 1)
    rows = []
    for _ in range(e):
        rows.append(row)
        top = row[-1]  # x * row overflows into top x^phi = top (x^phi - Phi_e)
        row = [0] + row[:-1]
        row = [c - top * pc for c, pc in zip(row, phi_poly)]
    out = np.array(rows, dtype=np.int64)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _reduction_tail(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero (j, c) of rows phi(m) .. m-1 of power_reduction_matrix(m),
    as Python ints; the rows below phi(m) are the unit vectors."""
    R = power_reduction_matrix(m)
    return tuple(tuple((j, c) for j, c in enumerate(row) if c)
                 for row in R[R.shape[1]:].tolist())


def _scatter(coeffs, k: int, m: int) -> list[int]:
    """Numerators of sum_i coeffs[i] zeta_m^(i k) on the power basis of
    Q(zeta_m): each coefficient goes to x^(i k mod m), then one reduction."""
    tail = _reduction_tail(m)
    phi = m - len(tail)
    acc = [0] * m
    for i, c in enumerate(coeffs):
        if c:
            acc[i * k % m] += c
    out = acc[:phi]
    for c, row in zip(acc[phi:], tail):
        if c:
            for j, r in row:
                out[j] += c * r
    return out


class Cyclotomic:
    """Exact element sum_i num[i] zeta^i / den of Q(zeta_conductor).

    `Cyclotomic(e, coeffs)` takes the phi(e) power-basis coefficients as ints
    or Fractions.  Values are immutable: tables share them."""

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs):
        cs = tuple(coeffs)
        if len(cs) != totient(conductor):
            raise ValueError(f"need {totient(conductor)} coefficients for conductor {conductor}")
        if all(type(c) is int for c in cs):
            self._set(conductor, cs, 1)
            return
        cs = [Fraction(c) for c in cs]
        den = lcm(*(c.denominator for c in cs))
        self._set(conductor, [int(c.numerator) * (den // c.denominator) for c in cs], den)

    def _set(self, conductor: int, num, den: int) -> None:
        """Store num / den, den > 0, divided by gcd(den, *num)."""
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num = [c // g for c in num]
                den //= g
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "num", tuple(num))
        object.__setattr__(self, "den", den)

    @staticmethod
    def _make(conductor: int, num, den: int = 1) -> "Cyclotomic":
        out = object.__new__(Cyclotomic)
        out._set(conductor, num, den)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic values are immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "Cyclotomic":
        q = Fraction(q)
        return Cyclotomic._make(conductor, [int(q.numerator)] + [0] * (totient(conductor) - 1),
                                int(q.denominator))

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic._make(conductor, [0] * totient(conductor))

    @staticmethod
    def one(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.from_rational(1, conductor)

    @staticmethod
    def root_of_unity(e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k."""
        return Cyclotomic._make(e, _scatter((0, 1), k, e))

    # -- conductor management --------------------------------------------

    def promote(self, m: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_m); requires conductor | m."""
        e = self.conductor
        if m == e:
            return self
        if m % e != 0:
            raise ValueError("can only promote to a multiple of the conductor")
        return Cyclotomic._make(m, _scatter(self.num, m // e, m), self.den)

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic", int]:
        m = lcm(a.conductor, b.conductor)
        return a.promote(m), b.promote(m), m

    def _galois(self, k: int) -> "Cyclotomic":
        """The automorphism zeta -> zeta^k, k a unit mod the conductor."""
        return Cyclotomic._make(self.conductor, _scatter(self.num, k, self.conductor), self.den)

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.num[0], self.den)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        a, b, m = Cyclotomic._common(self, _coerce(other))
        return Cyclotomic._make(m, [x * b.den + y * a.den for x, y in zip(a.num, b.num)],
                                a.den * b.den)

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic._make(self.conductor, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        a, b, m = Cyclotomic._common(self, _coerce(other))
        prod = [0] * (2 * len(a.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        prod[i + j] += x * y
        return Cyclotomic._make(m, _scatter(prod, 1, m), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        """a^-1 = prod_{k != 1} sigma_k(a) / N(a) over the units k of Z/e,
        the norm N(a) = prod_k sigma_k(a) being a nonzero rational."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        e = self.conductor
        a = Cyclotomic._make(e, self.num)        # the numerator: self = a / den
        rest = Cyclotomic.one(e)
        for k in range(2, e):
            if gcd(k, e) == 1:
                rest = rest * a._galois(k)
        norm = a * rest
        check_invariant(norm.is_rational() and not norm.is_zero(),
                        "the norm of a nonzero cyclotomic must be a nonzero rational")
        n = norm.num[0]                          # self^-1 = den rest / n
        sign = 1 if n > 0 else -1
        return Cyclotomic._make(e, [sign * self.den * c for c in rest.num], abs(n))

    def __truediv__(self, other):
        return self * _coerce(other).inverse()

    def __rtruediv__(self, other):
        return _coerce(other) * self.inverse()

    def __pow__(self, k: int) -> "Cyclotomic":
        if k < 0:
            return self.inverse() ** (-k)
        out = Cyclotomic.one(self.conductor)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "Cyclotomic":
        """Complex conjugation: zeta -> zeta^(-1)."""
        return self._galois(-1)

    # -- comparison / output ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b, _ = Cyclotomic._common(self, other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # cross-conductor equality is not hash-compatible

    def to_complex(self) -> complex:
        """The embedding zeta_e -> exp(2 pi i / e), for display and tests."""
        e = self.conductor
        z = complex(cos(2 * pi / e), sin(2 * pi / e))
        return sum(complex(c) * z ** i for i, c in enumerate(self.coeffs))

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.rational_value())
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                unit = f"z{self.conductor}" + (f"^{i}" if i > 1 else "")
                terms.append(unit if c == 1 else f"{c}*{unit}")
        return " + ".join(terms) if terms else "0"

    __repr__ = __str__


def _coerce(x) -> Cyclotomic:
    if isinstance(x, Cyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return Cyclotomic.from_rational(x)
    raise TypeError(f"cannot coerce {type(x)} into a cyclotomic value")


def cyclo_arith(op: str, a: Cyclotomic, b: Cyclotomic | None = None) -> Cyclotomic:
    """Dispatch for the four field operations by name."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inverse()
    if op == "conj":
        return a.conjugate()
    raise ValueError(f"unknown operation {op!r}")
