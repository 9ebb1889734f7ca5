import cmath
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from motivelab.cyclotomic import (
    Cyclotomic,
    cyclo_arith,
    cyclotomic_polynomial,
    power_reduction_matrix,
    totient,
)
from motivelab.errors import DivisionByZero


def zeta(e, k=1):
    return Cyclotomic.root_of_unity(e, k)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def _divides(den, num):
    """Whether the monic integer polynomial den divides num (low degree first)."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        q = num[i]
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    return not any(num)


def test_power_reduction_matrix_rows_are_the_powers():
    """Row u of the integer matrix has degree < phi(e) and differs from x^u by
    a multiple of Phi_e; e = 105 is the first conductor whose Phi_e has a
    coefficient other than 0 and +-1."""
    for e in list(range(1, 37)) + [60, 105]:
        R = power_reduction_matrix(e)
        phi = totient(e)
        assert R.shape == (e, phi) and not R.flags.writeable
        for u in range(e):
            diff = [-c for c in R[u].tolist()] + [0] * max(0, u + 1 - phi)
            diff[u] += 1
            assert _divides(cyclotomic_polynomial(e), diff), (e, u)
            assert cmath.isclose(sum(c * cmath.exp(2j * cmath.pi * j / e)
                                     for j, c in enumerate(R[u].tolist())),
                                 cmath.exp(2j * cmath.pi * u / e), abs_tol=1e-9)


def test_vanishing_sum():
    assert zeta(3) + zeta(3, 2) + 1 == Cyclotomic.zero()


def test_i_squared():
    assert zeta(4) * zeta(4) == Cyclotomic.from_rational(-1)


def test_inverse_of_one_plus_zeta5():
    a = Cyclotomic.one(5) + zeta(5)
    v = a.inverse()
    assert v * a == Cyclotomic.one()


def test_inverse_of_zero_raises():
    with pytest.raises(DivisionByZero):
        Cyclotomic.zero(3).inverse()


def test_cross_conductor_equality():
    # zeta_3 expressed at conductor 6 equals the conductor-3 value
    assert zeta(3) == zeta(6, 2)
    assert zeta(2) == Cyclotomic.from_rational(-1)
    assert zeta(6, 3) == Cyclotomic.from_rational(-1)


def test_conjugate_is_inverse_root():
    for e in (3, 4, 5, 8, 12):
        z = zeta(e)
        assert z.conjugate() == zeta(e, e - 1)
        assert z * z.conjugate() == Cyclotomic.one()


def test_cyclo_arith_dispatch():
    a, b = zeta(3), zeta(3, 2)
    assert cyclo_arith("add", a, b) == Cyclotomic.from_rational(-1)
    assert cyclo_arith("mul", a, b) == Cyclotomic.one()
    assert cyclo_arith("inv", a) == b
    assert cyclo_arith("conj", a) == b


def test_powers_and_division():
    z = zeta(5)
    assert z ** 5 == Cyclotomic.one()
    assert z ** -1 == zeta(5, 4)
    assert (z / z) == Cyclotomic.one()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 12), st.lists(st.integers(-3, 3), min_size=1, max_size=4),
       st.lists(st.integers(-3, 3), min_size=1, max_size=4))
def test_float_agreement(e, coeffs_a, coeffs_b):
    """Exact arithmetic must agree with numeric evaluation at exp(2 pi i / e)."""
    phi = totient(e)
    a = Cyclotomic(e, tuple(Fraction(c) for c in (coeffs_a * phi)[:phi]))
    b = Cyclotomic(e, tuple(Fraction(c) for c in (coeffs_b * phi)[:phi]))
    z = cmath.exp(2j * cmath.pi / e)
    fa = sum(complex(c) * z ** i for i, c in enumerate(a.coeffs))
    fb = sum(complex(c) * z ** i for i, c in enumerate(b.coeffs))
    assert abs((a + b).to_complex() - (fa + fb)) < 1e-10
    assert abs((a * b).to_complex() - fa * fb) < 1e-10
    if not a.is_zero():
        assert abs(a.inverse().to_complex() - 1 / fa) < 1e-8
    assert abs(a.conjugate().to_complex() - fa.conjugate()) < 1e-10


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 10), st.lists(st.integers(-2, 2), min_size=1, max_size=3))
def test_field_axioms(e, raw):
    phi = totient(e)
    a = Cyclotomic(e, tuple(Fraction(c) for c in (raw * phi)[:phi]))
    one = Cyclotomic.one(e)
    assert a * one == a
    assert a + Cyclotomic.zero(e) == a
    assert a - a == Cyclotomic.zero()
    if not a.is_zero():
        assert a * a.inverse() == Cyclotomic.one()


def test_rational_detection():
    v = zeta(3) + zeta(3, 2)
    assert v.is_rational()
    assert v.rational_value() == Fraction(-1)
    assert not zeta(5).is_rational()
