"""Exact elements of cyclotomic fields Q(zeta_e).

Values are stored on the power basis 1, zeta, ..., zeta^(phi(e)-1) modulo the
e-th cyclotomic polynomial, with rational coefficients.  That representation
is canonical for a fixed conductor; mixed-conductor arithmetic promotes both
operands to the lcm first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import cos, lcm, pi, sin

import numpy as np

from .errors import DivisionByZero, check_invariant


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
def _power_reduction(e: int, k: int) -> tuple[int, ...]:
    """x^k reduced mod Phi_e as an integer vector of length phi(e); 0 <= k < e."""
    return tuple(power_reduction_matrix(e)[k].tolist())


def _reduce_mod_phi(poly: list[Fraction], e: int) -> list[Fraction]:
    phi_poly = cyclotomic_polynomial(e)
    dd = len(phi_poly) - 1
    poly = list(poly)
    for i in range(len(poly) - 1, dd - 1, -1):
        c = poly[i]
        if c == 0:
            continue
        for j, pc in enumerate(phi_poly):
            poly[i - dd + j] -= c * pc
    out = poly[:dd]
    out += [Fraction(0)] * (dd - len(out))
    return out


@dataclass(frozen=True)
class Cyclotomic:
    """Exact element of Q(zeta_conductor)."""

    conductor: int
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        phi = totient(self.conductor)
        cs = tuple(Fraction(c) for c in self.coeffs)
        if len(cs) != phi:
            raise ValueError(f"need {phi} coefficients for conductor {self.conductor}")
        object.__setattr__(self, "coeffs", cs)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(q, conductor: int = 1) -> "Cyclotomic":
        vec = [Fraction(0)] * totient(conductor)
        vec[0] = Fraction(q)
        return Cyclotomic(conductor, tuple(vec))

    @staticmethod
    def zero(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.from_rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "Cyclotomic":
        return Cyclotomic.from_rational(1, conductor)

    @staticmethod
    def root_of_unity(e: int, k: int = 1) -> "Cyclotomic":
        """zeta_e^k."""
        k %= e
        return Cyclotomic(e, _power_reduction(e, k))

    # -- conductor management --------------------------------------------

    def promote(self, m: int) -> "Cyclotomic":
        """Rewrite in Q(zeta_m); requires conductor | m."""
        e = self.conductor
        if m == e:
            return self
        if m % e != 0:
            raise ValueError("can only promote to a multiple of the conductor")
        step = m // e
        phi_m = totient(m)
        acc = [Fraction(0)] * phi_m
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            vec = _power_reduction(m, (i * step) % m)
            for j in range(phi_m):
                acc[j] += c * vec[j]
        return Cyclotomic(m, tuple(acc))

    @staticmethod
    def _common(a: "Cyclotomic", b: "Cyclotomic") -> tuple["Cyclotomic", "Cyclotomic", int]:
        m = lcm(a.conductor, b.conductor)
        return a.promote(m), b.promote(m), m

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self.coeffs[0]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        a, b, m = Cyclotomic._common(self, other)
        return Cyclotomic(m, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "Cyclotomic":
        return Cyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Cyclotomic":
        other = _coerce(other)
        a, b, m = Cyclotomic._common(self, other)
        phi = totient(m)
        prod = [Fraction(0)] * (2 * phi - 1 if phi else 1)
        for i, x in enumerate(a.coeffs):
            if x == 0:
                continue
            for j, y in enumerate(b.coeffs):
                if y:
                    prod[i + j] += x * y
        return Cyclotomic(m, tuple(_reduce_mod_phi(prod, m)))

    __rmul__ = __mul__

    def inverse(self) -> "Cyclotomic":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        e = self.conductor
        phi_poly = [Fraction(c) for c in cyclotomic_polynomial(e)]
        f = list(self.coeffs)
        # extended Euclid in Q[x]: s*f + t*Phi = gcd = nonzero constant
        r0, r1 = phi_poly, f
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _poly_degree(r1) > 0:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        c = r1[_poly_degree(r1)] if any(r1) else Fraction(0)
        check_invariant(c != 0, "cyclotomic polynomial must be coprime to nonzero elements")
        inv_poly = [x / c for x in s1]
        return Cyclotomic(e, tuple(_reduce_mod_phi(inv_poly, e)))

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
        e = self.conductor
        phi = totient(e)
        acc = [Fraction(0)] * phi
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            vec = _power_reduction(e, (-i) % e)
            for j in range(phi):
                acc[j] += c * vec[j]
        return Cyclotomic(e, tuple(acc))

    # -- comparison / output ------------------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Cyclotomic.from_rational(other)
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        a, b, _ = Cyclotomic._common(self, other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-conductor equality is not hash-compatible

    def sort_key(self, conductor: int) -> tuple:
        p = self.promote(conductor)
        return tuple((c.numerator, c.denominator) for c in p.coeffs)

    def to_complex(self) -> complex:
        """The embedding zeta_e -> exp(2 pi i / e), for display and tests."""
        e = self.conductor
        z = complex(cos(2 * pi / e), sin(2 * pi / e))
        return sum(complex(c) * z ** i for i, c in enumerate(self.coeffs))

    def __str__(self) -> str:
        if self.is_rational():
            return str(self.coeffs[0])
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
    """Dispatch for the four field operations used by the CLI layer."""
    if op == "add":
        return a + b
    if op == "mul":
        return a * b
    if op == "inv":
        return a.inverse()
    if op == "conj":
        return a.conjugate()
    raise ValueError(f"unknown operation {op!r}")


# -- small polynomial helpers over Fraction ----------------------------------


def _poly_degree(p: list[Fraction]) -> int:
    for i in range(len(p) - 1, -1, -1):
        if p[i] != 0:
            return i
    return -1


def _poly_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    a = list(a)
    db = _poly_degree(b)
    lead = b[db]
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(_poly_degree(a), db - 1, -1):
        c = a[i]
        if c == 0:
            continue
        f = c / lead
        q[i - db] = f
        for j in range(db + 1):
            a[i - db + j] -= f * b[j]
    return q, a


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    n = max(len(a), len(b))
    a = a + [Fraction(0)] * (n - len(a))
    b = b + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]
