"""Scalar layer: representation, precision tracking, ring ops vs a rational
model, and serialization."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclodiff.errors import (
    DivisionByZeroPadic,
    DomainError,
    InsufficientPrecision,
    ValuationOfZero,
)
from cyclodiff.padic import PadicScalar, vp


def to_fraction(x):
    """The canonical rational representative of a scalar (0 for bottom)."""
    if x.is_bottom:
        return Fraction(0)
    return Fraction(x.unit) * Fraction(x.p) ** x.val


def test_vp_basics():
    assert vp(45, 3) == 2
    assert vp(-45, 3) == 2
    assert vp(1, 3) == 0
    assert vp(1024, 2) == 10
    with pytest.raises(ValuationOfZero):
        vp(0, 3)


def test_from_int_normalizes():
    x = PadicScalar.from_int(3, 45, 10)
    assert (x.val, x.unit, x.prec) == (2, 5, 10)
    y = PadicScalar.from_int(3, -1, 4)
    assert (y.val, y.unit) == (0, 80)


def test_raw_collapses_to_bottom():
    assert PadicScalar.raw(3, 0, 81, 4).is_bottom          # 3^4 at cap 4
    assert PadicScalar.raw(3, 5, 7, 5).is_bottom           # val at the cap
    assert PadicScalar.raw(3, 0, 0, 9).is_bottom
    assert not PadicScalar.raw(3, 0, 81, 5).is_bottom


def test_negative_valuation_fraction():
    x = PadicScalar.from_fraction(3, Fraction(1, 3), 5)
    assert (x.val, x.unit) == (-1, 1)
    y = PadicScalar.from_fraction(3, Fraction(2, 9), 5)
    assert (y.val, y.unit, y.prec - y.val) == (-2, 2, 7)
    assert to_fraction(y) == Fraction(2, 9)


def test_fraction_with_unit_denominator():
    # 1/2 in Z_3 is (3^k+1)/2 mod 3^k
    x = PadicScalar.from_fraction(3, Fraction(1, 2), 4)
    assert x.val == 0
    assert (2 * x.unit) % 81 == 1


def test_exact_cancellation_is_bottom():
    one = PadicScalar.from_int(3, 1, 12)
    z = one + (-one)
    assert z.is_bottom
    assert z.prec == 12


def test_add_alignment_and_cap():
    a = PadicScalar.raw(3, 0, 2, 5)
    b = PadicScalar.raw(3, 2, 1, 8)
    s = a + b
    assert (s.val, s.prec) == (0, 5)
    assert s.unit == 2 + 9


def test_partial_cancellation_raises_valuation():
    a = PadicScalar.from_int(3, 5, 10)
    b = PadicScalar.from_int(3, -5 + 27, 10)
    assert (a + b).val == 3
    assert (a + b).unit == 1


def test_mul_precision_rule():
    a = PadicScalar.raw(3, 0, 2, 5)
    b = PadicScalar.raw(3, 2, 1, 8)
    prod = a * b
    # min(5 + 2, 8 + 0) = 7
    assert (prod.val, prod.prec) == (2, 7)


def test_bottom_propagation():
    bot = PadicScalar.bottom(3, 5)
    x = PadicScalar.raw(3, 2, 7, 8)
    assert (bot + x).val == 2
    assert (bot + x).prec == 5
    prod = bot * x
    assert prod.is_bottom and prod.prec == 7
    assert (bot * bot).prec == 10
    assert (bot + bot).is_bottom


def test_int_operands():
    x = PadicScalar.from_int(3, 2, 6)
    assert (x + 1).unit == 3 // 3  # 3 -> val 1, unit 1
    assert (x + 1).val == 1
    y = x * 9
    assert (y.val, y.prec) == (2, 8)
    assert (x * 0).is_bottom
    assert (5 * x).unit == 10


def test_invert():
    x = PadicScalar.from_int(3, 2, 6)
    xi = x.invert()
    assert (xi.val, xi.prec) == (0, 6)
    assert (2 * xi.unit) % 3 ** 6 == 1
    y = PadicScalar.raw(3, 1, 5, 6)
    yi = y.invert()
    assert (yi.val, yi.prec) == (-1, 4)
    assert (5 * yi.unit) % 3 ** 5 == 1
    assert (y * yi) == 1
    with pytest.raises(DivisionByZeroPadic):
        PadicScalar.bottom(3, 5).invert()


def test_shift():
    x = PadicScalar.from_int(3, 2, 6)
    up = x.shift(3)
    assert (up.val, up.prec) == (3, 9)
    assert to_fraction(up) == 2 * 27
    down = x.shift(-2)
    assert to_fraction(down) == Fraction(2, 9)
    assert PadicScalar.bottom(3, 5).shift(2).prec == 7


def test_truncate():
    x = PadicScalar.from_int(3, 1 + 81, 6)
    t = x.truncate(4)
    assert (t.val, t.unit, t.prec) == (0, 1, 4)
    with pytest.raises(InsufficientPrecision):
        x.truncate(7)


def test_rep_mod():
    x = PadicScalar.from_int(3, 45, 10)
    assert x.rep_mod(5) == 45
    assert x.rep_mod(5, shift=1) == 15
    assert x.rep_mod(8, shift=2) == 5
    assert PadicScalar.bottom(3, 10).rep_mod(5) == 0
    with pytest.raises(DomainError):
        x.rep_mod(4, shift=3)
    with pytest.raises(InsufficientPrecision):
        x.rep_mod(11)
    with pytest.raises(InsufficientPrecision):
        PadicScalar.bottom(3, 4).rep_mod(5)


def test_equality_is_at_shared_precision():
    assert PadicScalar.from_int(3, 1, 5) == PadicScalar.from_int(3, 1 + 243, 5)
    assert PadicScalar.from_int(3, 1, 5) != PadicScalar.from_int(3, 1 + 81, 6)
    assert PadicScalar.from_int(3, 7, 8) == 7
    assert PadicScalar.from_int(3, 7, 8) != PadicScalar.from_int(5, 7, 8)


def test_mixed_primes_rejected():
    with pytest.raises(DomainError):
        PadicScalar.from_int(3, 1, 5) + PadicScalar.from_int(5, 1, 5)


def test_valuation_of_bottom_raises():
    with pytest.raises(ValuationOfZero):
        PadicScalar.bottom(3, 6).valuation()


def test_str_forms():
    assert str(PadicScalar.bottom(3, 6)) == "O(3^6)"
    assert str(PadicScalar.from_int(3, 7, 4)) == "7 + O(3^4)"
    assert str(PadicScalar.from_int(3, 45, 6)) == "3^2*5 + O(3^6)"


def test_json_round_trip():
    for x in [
        PadicScalar.from_int(3, 45, 10),
        PadicScalar.bottom(2, 7),
        PadicScalar.from_fraction(3, Fraction(2, 9), 5),
    ]:
        y = PadicScalar.from_json(x.to_json())
        assert (y.p, y.val, y.unit, y.prec) == (x.p, x.val, x.unit, x.prec)
    with pytest.raises(DomainError):
        PadicScalar.from_json({"p": 3, "val": 0, "unit": 1})


def test_json_scalars_stop_at_the_size_cap():
    # prec and val share the tower's 4096 cap, not any tower's prec
    assert PadicScalar.from_json({"p": 3, "val": -4096, "unit": 1, "prec": 4096}).val == -4096
    for key, value in [("prec", 4097), ("prec", -4097), ("val", 4097), ("val", -10**7)]:
        obj = {"p": 3, "val": 0, "unit": 1, "prec": 6, key: value}
        with pytest.raises(DomainError, match=f"key '{key}' exceeds the 4096 cap"):
            PadicScalar.from_json(obj)


# -- model-based checks -------------------------------------------------

primes = st.sampled_from([2, 3, 5])
precs = st.integers(min_value=6, max_value=24)


@st.composite
def rationals(draw):
    num = draw(st.integers(min_value=-300, max_value=300))
    den = draw(st.integers(min_value=1, max_value=60))
    return Fraction(num, den)


@settings(max_examples=120, deadline=None)
@given(primes, rationals(), rationals(), precs)
def test_ring_ops_match_rational_model(p, a, b, prec):
    xa = PadicScalar.from_fraction(p, a, prec)
    xb = PadicScalar.from_fraction(p, b, prec)
    assert (xa + xb) == PadicScalar.from_fraction(p, a + b, prec)
    assert (xa - xb) == PadicScalar.from_fraction(p, a - b, prec)
    # __eq__ compares at the shared cap, which mul may have moved; that is
    # exactly the contract.
    assert (xa * xb) == PadicScalar.from_fraction(p, a * b, prec + abs(prec))


@settings(max_examples=120, deadline=None)
@given(primes, rationals(), precs)
def test_invert_is_inverse(p, a, prec):
    x = PadicScalar.from_fraction(p, a, prec)
    if x.is_bottom:
        return
    assert x * x.invert() == 1
    assert x.invert().invert() == x


@settings(max_examples=120, deadline=None)
@given(primes, rationals(), rationals(), precs)
def test_valuation_additive_under_mul(p, a, b, prec):
    xa = PadicScalar.from_fraction(p, a, prec)
    xb = PadicScalar.from_fraction(p, b, prec)
    if xa.is_bottom or xb.is_bottom:
        return
    assert (xa * xb).val == xa.val + xb.val


@settings(max_examples=120, deadline=None)
@given(primes, rationals(), precs, st.integers(min_value=-6, max_value=6))
def test_shift_matches_model(p, a, prec, k):
    x = PadicScalar.from_fraction(p, a, prec).shift(k)
    assert x == PadicScalar.from_fraction(p, a * Fraction(p) ** k, prec + k)


@settings(max_examples=100, deadline=None)
@given(primes, rationals(), precs)
def test_normal_form_invariants(p, a, prec):
    x = PadicScalar.from_fraction(p, a, prec)
    if x.is_bottom:
        assert x.unit == 0
        return
    assert x.val < x.prec
    assert 0 < x.unit < p ** (x.prec - x.val)
    assert x.unit % p != 0
