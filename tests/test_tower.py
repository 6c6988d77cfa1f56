"""Tower layer: basis reduction, Galois action, traces and norms, the
normalized-trace mask identity, exact valuations, rho expansions, minimal
polynomials (the one over K_0 as a test-side oracle), inversion."""

import math
import operator
import random
from fractions import Fraction
from functools import lru_cache, partial, reduce

import pytest
from hypothesis import assume, given, settings, strategies as st

from cyclodiff.errors import (
    DivisionByZeroPadic,
    DomainError,
    InsufficientPrecision,
    PadicError,
    ValuationOfZero,
)
from cyclodiff import tower as tower_module
from cyclodiff.padic import PadicScalar, vp
from cyclodiff.tower import (
    CyclotomicTower,
    GaloisElement,
    KS2_BYTES,
    TowerElement,
    TowerParams,
    _decode,
    _encode,
    _draws,
    _galois_index,
    _ks2,
)


@pytest.fixture(scope="module")
def tw():
    return CyclotomicTower(TowerParams(p=3, s=1, max_level=4, prec=60))


@pytest.fixture(scope="module")
def tw2():
    return CyclotomicTower(TowerParams(p=2, s=2, max_level=3, prec=48))


def towers(tw, tw2):
    return [tw, tw2]


def test_params_validation():
    with pytest.raises(DomainError):
        TowerParams(p=4, s=1, max_level=2)
    with pytest.raises(DomainError):
        TowerParams(p=3, s=2, max_level=2)
    with pytest.raises(DomainError):
        TowerParams(p=2, s=1, max_level=2)
    with pytest.raises(DomainError):
        TowerParams(p=3, s=1, max_level=0)
    with pytest.raises(DomainError):
        TowerParams(p=3, s=1, max_level=9)  # degree cap
    assert TowerParams(p=3, s=1, max_level=1, prec=4096).prec == 4096
    with pytest.raises(DomainError, match="prec exceeds the 4096 cap"):
        TowerParams(p=3, s=1, max_level=1, prec=4097)
    for bad in ({"p": "3"}, {"p": True}, {"max_level": 2.5}, {"prec": None}):
        fields = {"p": 3, "s": 1, "max_level": 2, "prec": 12, **bad}
        with pytest.raises(DomainError):
            TowerParams(**fields)


def test_shape_numbers(tw, tw2):
    assert [tw.phi(n) for n in range(5)] == [2, 6, 18, 54, 162]
    assert tw.q(1) == 9 and tw.h(1) == 3
    assert [tw2.phi(n) for n in range(4)] == [2, 4, 8, 16]
    assert tw.degree(3, 1) == 9


def test_cyclotomic_relation(tw):
    # zeta_9^6 = -(1 + zeta_9^3)
    lhs = tw.zeta(1, 6)
    rhs = -(tw.one(1) + tw.zeta(1, 3))
    assert lhs == rhs
    # and the p=2 flavor: zeta_8^4 = -1
    tw2 = CyclotomicTower(TowerParams(p=2, s=2, max_level=1, prec=20))
    assert tw2.zeta(1, 4) == -tw2.one(1)


def test_ring_axioms_spot(tw):
    rng = random.Random(5)
    for level in (1, 2):
        a = tw.random_integral(level, rng)
        b = tw.random_integral(level, rng)
        c = tw.random_integral(level, rng)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_constant_and_levels(tw):
    x = tw.constant(2, Fraction(5, 7))
    assert tw.valuation(x) == 0
    # cross-level addition embeds automatically
    y = tw.uniformizer(0) + tw.uniformizer(2)
    assert y.level == 2


def test_a_float_is_not_a_constant():
    # Fraction(0.1) is 3602879701896397/2^55, not 1/10: a float is refused
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=1, prec=6))
    one = tower.one(0)
    assert (one + Fraction(1, 10))._packed == (0, 6, [74, 0])  # 11/10 mod 3^6
    refused = (
        lambda: one + 0.1, lambda: one * 1.5, lambda: one == 1.0, lambda: tower.constant(0, 0.5),
        lambda: one - 0.1, lambda: 0.1 - one, lambda: one - "1", lambda: "1" - one,
        lambda: one * "a", lambda: one * [1], lambda: "a" * one, lambda: [1] * one,
    )
    for bad in refused:
        with pytest.raises(DomainError, match=r"not 0.1|not 1.5|not 1.0|not 0.5|not '1'|not 'a'|not \[1\]"):
            bad()
    assert not one == "a"  # == answers for a foreign type rather than raise
    assert one + True == 2 and one * False == 0  # a bool is the int 0 or 1


def test_rationals_compare_and_multiply_as_constants(tw):
    # == and * take a rational through `constant`, as + does
    one = tw.one(1)
    assert one == Fraction(1) and one == 1
    assert not one == Fraction(1, 3)
    x = tw.random_integral(1, random.Random(5))
    third = x * Fraction(1, 3)
    assert third == tw.scale_p(x, -1)
    assert third * 3 == x
    assert Fraction(1, 3) * x == third
    assert x * Fraction(2) == x * 2 == x + x


def restrict(tower, x, level):
    """The inverse of `embed`: the coordinates at multiples of p^(m-level),
    after checking that every other coordinate vanishes at working precision."""
    tower._check_level(level)
    if x.level == level:
        return x
    if x.level < level:
        raise DomainError("use embed to go up the tower")
    step = tower.p ** (x.level - level)
    for j, c in enumerate(x.coeffs):
        if j % step and not c.is_bottom:
            raise DomainError(f"coordinate {j} is nonzero; element not in level {level}")
    return TowerElement(tower, level, x.coeffs[::step])


def test_embed_restrict_roundtrip(tw):
    rng = random.Random(23)
    x = tw.random_integral(1, rng)
    up = tw.embed(x, 3)
    assert up.level == 3
    assert restrict(tw, up, 1) == x
    with pytest.raises(DomainError):
        restrict(tw, tw.zeta(3), 1)
    with pytest.raises(DomainError):
        tw.embed(up, 1)


def test_embed_uniformizer_identity(tw):
    r1 = tw.uniformizer(1)
    assert tw.embed(tw.uniformizer(0), 1) == r1 ** 3 + 3 * r1 ** 2 + 3 * r1


def test_galois_is_homomorphism(tw):
    rng = random.Random(7)
    x = tw.random_integral(2, rng)
    y = tw.random_integral(2, rng)
    g = tw.galois(2, 1)
    assert tw.galois_apply(g, x * y) == tw.galois_apply(g, x) * tw.galois_apply(g, y)
    assert tw.galois_apply(g, x + y) == tw.galois_apply(g, x) + tw.galois_apply(g, y)
    assert tw.galois_apply(g, tw.zeta(2)) == tw.zeta(2, g.unit)


def compose(g, h):
    """g after h, as one automorphism of their level."""
    assert g.level == h.level
    return GaloisElement(g.level, (g.unit * h.unit) % g.modulus, g.modulus)


def inverse(g):
    return GaloisElement(g.level, pow(g.unit, -1, g.modulus), g.modulus)


def character(tower, g):
    """The t < p^level with g = sigma_(1+p^s)^t, the generator's power."""
    return next(t for t in range(tower.degree(g.level)) if tower.galois(g.level, t) == g)


def test_galois_group_structure(tw):
    g = tw.galois(3, 1)
    gi = inverse(g)
    x = tw.random_integral(3, random.Random(9))
    assert tw.galois_apply(gi, tw.galois_apply(g, x)) == x
    assert character(tw, compose(g, g)) == 2
    # order of the generator on K_n is p^n
    assert tw.galois(2, 9).unit == 1
    assert tw.galois(2, 3).unit != 1
    with pytest.raises(DomainError):
        tw.galois_by_unit(2, 3)


def test_trace_known_value(tw):
    assert tw.trace_down(tw.zeta(1), 0).is_all_bottom
    # Tr_{K_1/K_0}(rho_1) = -3 (sum of conjugates of zeta, minus 3)
    tr = tw.trace_down(tw.uniformizer(1), 0)
    assert tr == tw.constant(0, -3)


def test_trace_transitivity(tw):
    rng = random.Random(31)
    x = tw.random_integral(3, rng)
    assert tw.trace_down(x, 1) == tw.trace_down(tw.trace_down(x, 2), 1)


def test_norm_compatibility_chain(tw, tw2):
    for t in (tw, tw2):
        for n in range(1, t.max_level + 1):
            assert t.norm_down(t.uniformizer(n), n - 1) == t.uniformizer(n - 1)


def test_norm_multiplicative(tw):
    rng = random.Random(13)
    x = tw.random_integral(2, rng)
    y = tw.random_integral(2, rng)
    lhs = tw.norm_down(x * y, 0)
    assert lhs == tw.norm_down(x, 0) * tw.norm_down(y, 0)


def test_norm_of_constant_is_power(tw):
    c = tw.constant(2, 5)
    assert tw.norm_down(c, 0) == tw.constant(0, 5 ** 9)


def test_normalized_trace_is_scaled_trace(tw, tw2):
    # The mask shortcut must agree with honest conjugate sums divided by the
    # layer count.
    for t in (tw, tw2):
        rng = random.Random(17)
        m = min(3, t.max_level)
        x = t.random_integral(m, rng)
        for n in range(m + 1):
            honest = t.trace_down(x, n)
            masked = t.normalized_trace(x, n) * (t.p ** (m - n))
            assert honest == masked


def test_normalized_trace_examples(tw):
    assert tw.normalized_trace(tw.uniformizer(1), 0) == tw.constant(0, -1)
    assert tw.perp_project(tw.zeta(1), 1) == tw.zeta(1)
    assert tw.perp_project(tw.zeta(1), 0).is_all_bottom


def test_normalized_trace_is_projection(tw):
    rng = random.Random(19)
    x = tw.random_integral(3, rng)
    r1 = tw.normalized_trace(x, 1)
    assert tw.normalized_trace(tw.embed(r1, 3), 1) == r1
    # idempotent through a middle level too
    assert tw.normalized_trace(tw.embed(tw.normalized_trace(x, 2), 3), 1) == r1


def test_perp_decomposition_exact(tw, tw2):
    for t in (tw, tw2):
        rng = random.Random(29)
        m = min(3, t.max_level)
        x = t.random_integral(m, rng)
        total = None
        for n in range(m + 1):
            part = t.embed(t.perp_project(x, n), m)
            total = part if total is None else total + part
        assert total == x


def test_perp_projection_kills_lower_levels(tw):
    x = tw.embed(tw.random_integral(1, random.Random(37)), 3)
    assert tw.perp_project(x, 2).is_all_bottom
    assert tw.perp_project(x, 3).is_all_bottom


def test_valuation_examples(tw):
    assert tw.valuation(tw.uniformizer(0)) == Fraction(1, 2)
    assert tw.valuation(tw.uniformizer(1)) == Fraction(1, 6)
    assert tw.valuation(tw.constant(2, 9)) == 2
    assert tw.valuation(tw.zeta(2, 7)) == 0
    r1 = tw.uniformizer(1)
    assert tw.valuation(r1 ** 3 - tw.embed(tw.uniformizer(0), 1)) == Fraction(7, 6)


def test_valuation_additive(tw):
    rng = random.Random(41)
    for level in (1, 2, 3):
        x = tw.random_integral(level, rng)
        y = tw.random_integral(level, rng)
        assert tw.valuation(x * y) == tw.valuation(x) + tw.valuation(y)


def test_valuation_ultrametric(tw):
    rng = random.Random(43)
    x = tw.random_integral(2, rng)
    y = tw.random_integral(2, rng)
    try:
        v = tw.valuation(x + y)
    except ValuationOfZero:
        return
    assert v >= min(tw.valuation(x), tw.valuation(y))


def test_valuation_matches_rho_expansion_route(tw):
    # Independent route: valuation through the K_0-coefficient expansion,
    # val(x) = min_i (val(c_i) + i * val(rho_n)).
    rng = random.Random(47)
    for level in (1, 2):
        x = tw.random_integral(level, rng)
        exp = tw.to_rho_basis(x)
        vals = []
        for i, c in enumerate(exp):
            if c.is_all_bottom:
                continue
            vals.append(tw.valuation(c) + Fraction(i, tw.phi(level)))
        assert tw.valuation(x) == min(vals)


SMALL = {
    p: CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=levels, prec=8))
    for p, levels in ((2, 2), (3, 2), (5, 1))
}
FOLD_TOWERS = {**SMALL, 7: CyclotomicTower(TowerParams(p=7, s=1, max_level=1, prec=6))}


@st.composite
def small_elements(draw, count=1, towers=SMALL):
    """(tower, x1, ..., x_count): elements of one level of a small tower
    (p = 2, 3 or 5; p = 7 too with ``towers=FOLD_TOWERS``) whose coordinates
    carry their own precision and valuation, so that some are bottom and
    some elements are zero at their precision."""
    tower = towers[draw(st.sampled_from(sorted(towers)))]
    p = tower.p
    level = draw(st.integers(0, tower.max_level))
    elements = []
    for _ in range(count):
        coeffs = []
        for _ in range(tower.phi(level)):
            prec = draw(st.integers(4, tower.prec))
            val = draw(st.integers(0, prec))
            unit = draw(st.integers(1, p ** prec))
            coeffs.append(PadicScalar.from_int(p, p ** val * unit, prec))
        elements.append(TowerElement(tower, level, coeffs))
    return (tower, *elements)


def valuation_or_none(tower, x):
    try:
        return tower.valuation(x)
    except ValuationOfZero:
        return None


@settings(max_examples=150, deadline=None)
@given(small_elements())
def test_valuation_is_the_minimum_over_rho_power_coords(case):
    # valuation() reads x mod p, rho_power_coords() runs the Pascal transform;
    # the valuation must be min_k (val(c_k) + k/e), and both must see zero alike
    tower, x = case
    e = tower.ramification(x.level)
    coords = tower.rho_power_coords(x)
    scores = [c.val + Fraction(k, e) for k, c in enumerate(coords) if not c.is_bottom]
    if not scores:
        with pytest.raises(ValuationOfZero):
            tower.valuation(x)
        return
    assert tower.valuation(x) == min(scores)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(sorted(SMALL)),
    st.integers(0, 2),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 2**32),
    st.booleans(),
)
def test_valuation_just_below_the_next_integer_is_the_minimum_over_rho_power_coords(
    p, level, r, a, seed, cut
):
    # x = p^a rho^(phi-r) u, optionally truncated: val(x) - a is (phi-r)/phi,
    # close to 1, where the multiplicity of X = 1 takes the most divisions
    # and a Taylor shift would make a full pass; rho_power_coords is the oracle
    tower = SMALL[p]
    level = min(level, tower.max_level)
    phi = tower.phi(level)
    rng = random.Random(seed)
    x = tower.mul(tower.rho_power(level, max(phi - r, 0)), tower.random_unit(level, rng))
    x = tower.scale_p(x, a)
    if cut:
        x = tower.truncate(x, rng.randint(a + 1, x.cap))
    want = a + Fraction(max(phi - r, 0), phi)
    e = tower.ramification(level)
    coords = tower.rho_power_coords(x)
    assert min(c.val + Fraction(k, e) for k, c in enumerate(coords) if not c.is_bottom) == want
    assert tower.valuation(x) == want


def test_rho_power_coords_match_rho_powers(tw):
    # reconstructing from the Q_p rho-coordinates recovers the element
    rng = random.Random(53)
    x = tw.random_integral(2, rng)
    coords = tw.rho_power_coords(x)
    acc = tw.zero(2)
    for k, c in enumerate(coords):
        acc = acc + tw.rho_power(2, k) * c
    assert acc == x


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rho_power_coords_at_any_digit_count(p):
    # both directions of the Pascal transform against the direct binomial
    # sums, at digit counts on and off the powers of two
    tower = CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=2, prec=60))
    level, rng = 2, random.Random(61)
    phi = tower.phi(level)
    for digits in (8, 9, 13, 16, 17, 33, 60):
        mod = p ** digits
        ints = [rng.randrange(mod) for _ in range(phi)]
        x = tower.from_int_coeffs(level, ints, digits)
        sign = -1 if p == 2 else 1
        direct = [
            sign ** k * sum(math.comb(j, k) * a for j, a in enumerate(ints)) % mod
            for k in range(phi)
        ]
        coords = tower.rho_power_coords(x)
        assert [c.rep_mod(digits) for c in coords] == direct, digits
        scores = [vp(c, p) + Fraction(k, phi) for k, c in enumerate(direct) if c]
        assert tower.valuation(x) == min(scores), digits
        # the way back: a_j = (-1)^j sum_(k>=j) C(k,j) (-sign)^k c_k
        cs = [rng.randrange(mod) for _ in range(phi)]
        back = tower.from_rho_power_coords(level, cs, digits)
        direct_back = [
            (-1) ** j * sum(math.comb(k, j) * (-sign) ** k * c for k, c in enumerate(cs)) % mod
            for j in range(phi)
        ]
        assert [c.rep_mod(digits) for c in back.coeffs] == direct_back, digits


# Sums over rho powers as the loops that the inverse Pascal transform
# replaced: x * rho by a shift of the zeta-coordinates, Horner's rule on it,
# and the quotient recursion of the trace-dual basis.  Reports cannot see a
# cap above the working precision, so the properties below compare element
# bytes.


def mul_rho_oracle(tower, x):
    """x * rho in O(phi) scalar operations: x * zeta shifts the coordinates
    and folds the top one by zeta^phi = -(1 + zeta^h + ... + zeta^((p-2)h))."""
    h = tower.h(x.level)
    wrap = x.coeffs[-1]
    out = [-wrap, *x.coeffs[:-1]]
    for i in range(1, tower.p - 1):
        out[i * h] = out[i * h] - wrap
    xz = TowerElement(tower, x.level, out)
    return tower.add(x, -xz) if tower.p == 2 else tower.add(xz, -x)


def horner_rho(tower, level, coeffs):
    """sum_i coeffs[i] rho_level^i by Horner's rule, each coefficient
    embedded from its own level."""
    acc = tower.embed(coeffs[-1], level)
    for c in reversed(coeffs[:-1]):
        acc = tower.add(mul_rho_oracle(tower, acc), tower.embed(c, level))
    return acc


def minimal_polynomial(tower, level):
    """Monic minimal polynomial of rho_level over K_0, as a tuple of level-0
    coefficient elements (constant first, leading 1 last).

    Closed form: (1+X)^(p^n) - 1 - rho_0 for odd p and (1-X)^(2^n) - 1 + rho_0
    for p = 2 (n >= 1); both are Eisenstein over O_{K_0} with constant term of
    valuation 1/e_0 exactly.
    """
    rho0 = tower.uniformizer(0)
    if level == 0:
        return (-rho0, tower.one(0))
    d = tower.degree(level)
    row = [math.comb(d, k) for k in range(d + 1)]
    coeffs = []
    for k in range(d + 1):
        c = row[k]
        if tower.p == 2 and k % 2 == 1:
            c = -c
        if k == 0:
            c -= 1  # the constant 1 cancels
            base = tower.constant(0, c)
            coeffs.append(tower.add(base, rho0 if tower.p == 2 else -rho0))
        else:
            coeffs.append(tower.constant(0, c))
    return tuple(coeffs)


def minimal_polynomial_qp(tower, level):
    """Integer coefficients of the monic minimal polynomial of rho_level over
    Q_p: Phi_q(1+X) for odd p, Phi_q(1-X) for p = 2."""
    p, h, phi = tower.p, tower.h(level), tower.phi(level)
    coeffs = [0] * (phi + 1)
    for i in range(p):
        for k in range(i * h + 1):
            c = math.comb(i * h, k)
            coeffs[k] += -c if p == 2 and k & 1 else c
    return coeffs


def dual_basis_oracle(tower, level):
    """The trace-dual basis from the quotients q_(i-1) = q_i rho + g_i of the
    minimal polynomial g by X - rho."""
    d, g = tower.degree(level), minimal_polynomial(tower, level)
    quots = [None] * d
    quots[d - 1] = tower.one(level)
    for i in range(d - 1, 0, -1):
        quots[i - 1] = tower.add(mul_rho_oracle(tower, quots[i]), tower.embed(g[i], level))
    gp_inv = tower.invert(tower.minpoly_derivative_at_rho(level, tower.prec + level))
    return [tower.mul(q, gp_inv) for q in quots]


def projector_oracle(tower, x, level, perp=False):
    """R_level(x), or R_level(x) - R_(level-1)(x) with perp=True and level >= 1,
    by masking the zeta-coordinates and `restrict` above: the loops that the
    projectors' gathers replaced."""
    if level > x.level:
        x = tower.embed(x, level)
    p, step = tower.p, tower.p ** (x.level - level)
    keep = []
    for j, c in enumerate(x.coeffs):
        ok = j % step == 0 and not (perp and level and (j // step) % p == 0)
        keep.append(c if ok else PadicScalar.bottom(p, c.prec))
    return restrict(tower, TowerElement(tower, x.level, keep), level)


def rho_ints(coords):
    """Integral scalars as ints at their least cap, the arguments that
    `from_rho_power_coords` takes after the level."""
    cap = min(c.prec for c in coords)
    return [c.rep_mod(cap) for c in coords], cap


def ragged_scalar(draw, p, top):
    cap = draw(st.integers(1, top))
    val = draw(st.integers(0, cap))
    return PadicScalar.from_int(p, p ** val * draw(st.integers(1, p ** cap)), cap)


KINDS = ("unit", "p-scaled", "truncated", "ragged", "zero", "cap-above-prec")


@st.composite
def rho_sum_elements(draw):
    """(tower, x) over a small p = 2, 3 or 5 tower: a unit, a unit times a
    power of p, a unit truncated below the working precision, an element
    whose coordinates carry their own caps (some above the working
    precision), zero, or an element known above the working precision."""
    tower = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    p, prec = tower.p, tower.prec
    level = draw(st.integers(0, tower.max_level))
    phi = tower.phi(level)
    kind = draw(st.sampled_from(KINDS))
    if kind == "ragged":
        coeffs = [ragged_scalar(draw, p, prec + 2) for _ in range(phi)]
        return tower, TowerElement(tower, level, coeffs)
    cap = prec
    if kind == "truncated":
        cap = draw(st.integers(1, prec - 1))
    elif kind == "zero":
        cap = draw(st.integers(1, prec + 2))
    elif kind == "cap-above-prec":
        cap = prec + draw(st.integers(1, 4))
    ints = draw(st.lists(st.integers(0, p ** cap - 1), min_size=phi, max_size=phi))
    if kind == "zero":
        ints = [0] * phi
    elif kind != "cap-above-prec" and sum(ints) % p == 0:
        ints[0] += 1  # the residue of x is the sum of its coordinates mod p
    x = tower.from_int_coeffs(level, ints, cap)
    if kind == "p-scaled":
        x = tower.scale_p(x, draw(st.integers(1, 3)))
    return tower, x


@settings(max_examples=120, deadline=None)
@given(rho_sum_elements(), st.data())
def test_from_rho_power_coords_matches_horner(case, data):
    tower, x = case
    level = x.level
    coords = tower.rho_power_coords(x)
    back = tower.from_rho_power_coords(level, *rho_ints(coords))
    assert back == x
    assert all(b.prec <= c.prec for b, c in zip(back.coeffs, x.coeffs))
    if len({c.prec for c in x.coeffs}) == 1:
        assert back.to_json() == x.to_json()
    # ragged coordinates, some above the working precision, are read at their
    # least cap, which is also where Horner's rule on constants lands
    ragged = [ragged_scalar(data.draw, tower.p, tower.prec + 3) for _ in coords]
    for cs in (coords, ragged):
        want = horner_rho(tower, level, [tower.constant(level, c) for c in cs])
        assert tower.from_rho_power_coords(level, *rho_ints(cs)).to_json() == want.to_json()
    # the projectors gather the same coordinates that the mask keeps
    for target in range(tower.max_level + 1):
        for perp, project in ((False, tower.normalized_trace), (True, tower.perp_project)):
            want = projector_oracle(tower, x, target, perp)
            assert project(x, target).to_json() == want.to_json(), (target, perp)


@settings(max_examples=80, deadline=None)
@given(rho_sum_elements(), st.data())
def test_from_rho_basis_matches_horner(case, data):
    tower, x = case
    assume(x.level > 0)
    exp = tower.to_rho_basis(x)
    got = tower.from_rho_basis(x.level, exp)
    assert got == x
    # coefficients of one cap each: byte for byte
    assert got.to_json() == horner_rho(tower, x.level, exp).to_json()
    # ragged coefficients are read at their least cap, where Horner's rule
    # may keep more on some coordinates: equal at shared precision, no claim
    # above the oracle's
    p, phi0 = tower.p, tower.phi(0)
    ragged = [
        TowerElement(tower, 0, [ragged_scalar(data.draw, p, tower.prec + 3) for _ in range(phi0)])
        for _ in exp
    ]
    got = tower.from_rho_basis(x.level, ragged)
    want = horner_rho(tower, x.level, ragged)
    assert got == want
    assert all(g.prec <= w.prec for g, w in zip(got.coeffs, want.coeffs))


def test_from_rho_basis_rejects_bad_coefficients(tw):
    with pytest.raises(DomainError):
        tw.from_rho_basis(1, (tw.one(0),) * 2)
    with pytest.raises(DomainError):
        tw.from_rho_basis(1, (tw.one(0), tw.one(0), tw.one(1)))
    with pytest.raises(DomainError):
        tw.from_rho_power_coords(1, [1] + [0] * (tw.phi(1) - 2))


def test_dual_basis_matches_the_quotient_recursion(tw2):
    # to_rho_basis against c_i = p^n R_0(x b_i) for the trace-dual basis b_i
    # of the quotient recursion, byte for byte and so at the same caps
    for tower in (*SMALL.values(), tw2):
        fresh = CyclotomicTower(tower.params)
        rng = random.Random(tower.p)
        for n in range(1, tower.max_level + 1):
            duals = dual_basis_oracle(tower, n)
            unit = tower.random_unit(n, rng)
            xs = [
                tower.random_integral(n, rng),
                tower.truncate(unit, tower.prec // 2),
                tower.scale_p(tower.mul(unit, tower.rho_power(n, 3)), 2),
                tower.embed(tower.random_unit(n - 1, rng), n),
                tower.truncate(tower.scale_p(unit, 3), 2),  # all bottom at cap 2
            ]
            for x in xs:
                got = [c.to_json() for c in fresh.to_rho_basis(x)]
                want = [
                    tower.scale_p(tower.normalized_trace(tower.mul(x, b), 0), n).to_json()
                    for b in duals
                ]
                assert got == want, (tower.p, n, x)


def test_truncate(tw):
    x = tw.random_unit(1, random.Random(67))
    assert tw.truncate(x, x.cap) is x
    low = tw.truncate(x, 9)
    assert {c.prec for c in low.coeffs} == {9}
    assert low == x
    with pytest.raises(InsufficientPrecision):
        tw.truncate(x, x.cap + 1)


def test_rho_power_matches_power(tw):
    for k in (0, 1, 5, 17):
        assert tw.rho_power(2, k) == tw.uniformizer(2) ** k


def test_rho_expansion_known_value(tw):
    exp = tw.to_rho_basis(tw.zeta(1))
    assert exp[0] == 1
    assert exp[1] == 1
    assert exp[2].is_all_bottom


def test_rho_expansion_roundtrip(tw, tw2):
    for t in (tw, tw2):
        rng = random.Random(59)
        for level in (1, 2, min(3, t.max_level)):
            x = t.random_integral(level, rng)
            exp = t.to_rho_basis(x)
            assert all(c.level == 0 for c in exp)
            assert t.from_rho_basis(level, exp) == x


def test_rho_expansion_integral_coefficients(tw):
    # integral elements have integral K_0 coefficients (the basis is a free
    # O_{K_0}-basis of O_{K_n})
    rng = random.Random(61)
    x = tw.random_integral(2, rng)
    for c in tw.to_rho_basis(x):
        if not c.is_all_bottom:
            assert tw.valuation(c) >= 0


def test_minimal_polynomial_certificates(tw, tw2):
    for t in (tw, tw2):
        for level in range(1, t.max_level + 1):
            g = minimal_polynomial(t, level)
            assert len(g) == t.degree(level) + 1
            assert g[-1] == 1
            # Eisenstein over O_{K_0}: constant has valuation exactly 1/e_0,
            # middle coefficients are divisible by p
            assert t.valuation(g[0]) == Fraction(1, t.phi(0))
            for c in g[1:-1]:
                if not c.is_all_bottom:
                    assert t.valuation(c) >= 1
            assert horner_rho(t, level, g).is_all_bottom


def test_minimal_polynomial_matches_conjugate_product(tw):
    # Literal product over the Galois orbit, levels 1 and 2.
    for level in (1, 2):
        d = tw.degree(level)
        # polynomial coefficients of prod (X - sigma(rho)), low degree first
        poly = [tw.one(level)]
        for t in range(d):
            g = tw.galois(level, t)
            root = tw.galois_apply(g, tw.uniformizer(level))
            nxt = [tw.zero(level) for _ in range(len(poly) + 1)]
            for i, c in enumerate(poly):
                nxt[i + 1] = nxt[i + 1] + c
                nxt[i] = nxt[i] - c * root
            poly = nxt
        ref = minimal_polynomial(tw, level)
        for i in range(d + 1):
            assert restrict(tw, poly[i], 0) == ref[i]


def test_minimal_polynomial_qp(tw, tw2):
    for t in (tw, tw2):
        for level in (1, min(2, t.max_level)):
            coeffs = minimal_polynomial_qp(t, level)
            assert len(coeffs) == t.phi(level) + 1
            assert coeffs[-1] == 1
            assert coeffs[0] == t.p
            assert all(c % t.p == 0 for c in coeffs[:-1])
            # evaluate at rho by Horner
            acc = t.constant(level, coeffs[-1])
            for c in reversed(coeffs[:-1]):
                acc = t.mul(acc, t.uniformizer(level)) + t.constant(level, c)
            assert acc.is_all_bottom


def test_minpoly_derivative_closed_form(tw):
    # derivative of the K_0 minimal polynomial, honest coefficient route
    for level in (1, 2):
        g = minimal_polynomial(tw, level)
        acc = tw.zero(level)
        for i in range(1, len(g)):
            acc = acc + tw.rho_power(level, i - 1) * tw.embed(g[i] * i, level)
        assert acc == tw.minpoly_derivative_at_rho(level)


def test_invert_roundtrips(tw, tw2):
    for t in (tw, tw2):
        rng = random.Random(67)
        for level in (1, min(2, t.max_level), t.max_level):
            u = t.random_unit(level, rng)
            assert t.mul(u, t.invert(u)) == 1
            # non-unit: strip rho and p parts too
            x = t.mul(u, t.rho_power(level, min(5, t.phi(level) - 1))) * 9
            xi = t.invert(x)
            assert t.mul(x, xi) == 1
            assert t.valuation(xi) == -t.valuation(x)


def test_invert_zero_raises(tw):
    with pytest.raises(DivisionByZeroPadic):
        tw.invert(tw.zero(2))


def full_precision_newton(tower, z):
    """The unit inverse by Newton steps y <- y(2 - zy), every one at z's cap,
    from the residue inverse, until the residual is zero: the plain loop,
    kept as the oracle for `_invert_unit`."""
    p, level, cap = tower.p, z.level, z.cap
    res = sum(c.rep_mod(1) for c in z.coeffs if not c.is_bottom) % p
    y = tower.constant(level, pow(res, -1, p), cap)
    one = tower.one(level, cap)
    for _ in range(max(2, (cap * tower.ramification(level)).bit_length() + 2)):
        err = tower.add(one, -tower.mul(z, y))
        if err.is_all_bottom:
            return y
        y = tower.add(y, tower.mul(y, err))
    raise AssertionError("the oracle did not converge")


def oracle_tower(tower):
    """A copy of tower whose invert runs `full_precision_newton`."""
    oracle = CyclotomicTower(tower.params)
    oracle._invert_unit = lambda z: full_precision_newton(oracle, z)
    return oracle


ORACLE = {p: oracle_tower(tower) for p, tower in FOLD_TOWERS.items()}


def truncated(x, digits):
    return TowerElement(x.tower, x.level, [c.truncate(digits) for c in x.coeffs])


@settings(max_examples=160, deadline=None)
@given(small_elements(towers=FOLD_TOWERS))
def test_invert_matches_the_full_precision_oracle(case):
    # p = 7 is the first prime where v = z^(p-1) multiplies inside `power`
    tower, x = case
    vx = valuation_or_none(tower, x)
    assume(vx is not None)
    if vx > x.cap - 1 and vx.denominator > 1:
        # x = p^a rho^r u with a = cap - 1: the rho shift leaves no digit of u
        with pytest.raises(InsufficientPrecision):
            tower.invert(x)
        return
    xi = tower.invert(x)
    oracle = ORACLE[tower.p]
    want = oracle.invert(TowerElement(oracle, x.level, x.coeffs))
    assert xi.to_json() == want.to_json()
    assert tower.mul(x, xi) == 1
    assert tower.valuation(xi) == -vx


@settings(max_examples=80, deadline=None)
@given(small_elements(towers=FOLD_TOWERS))
def test_invert_of_a_truncated_unit_is_the_truncated_inverse(case):
    # a low-precision inverse is the high-precision one, truncated
    tower, x = case
    u = x if valuation_or_none(tower, x) == 0 else x + 1
    ui = tower.invert(u)
    assert len({c.prec for c in ui.coeffs}) == 1
    for d in range(1, u.cap + 1):
        assert tower.invert(truncated(u, d)).to_json() == truncated(ui, d).to_json()


def test_invert_raises_on_a_wrong_newton_product():
    # one wrong digit in a mid-precision product must not reach the result
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=20))
    u = tower.random_unit(2, random.Random(79))
    honest = tower.mul
    fired = []

    def corrupt(x, y):
        out = honest(x, y)
        if not fired and 5 < out.cap < u.cap:
            fired.append(out.cap)
            bump = PadicScalar.from_int(tower.p, tower.p ** 5, out.cap)
            out = TowerElement(tower, out.level, [out.coeffs[0] + bump, *out.coeffs[1:]])
        return out

    tower.mul = corrupt
    with pytest.raises(InsufficientPrecision):
        tower.invert(u)
    assert fired


def newton_mod_p(tower, z):
    """z^-1 mod p by Newton's step y <- y + y(1 - zy) from the residue
    inverse, until the residual is zero: the mod-p phase of `_invert_unit`
    before Frobenius, kept as its oracle.  The residual starts in rho O_K and
    squares each step, and p = rho^e times a unit, so e.bit_length() + 1
    steps reach zero."""
    p, level, z1 = tower.p, z.level, tower.truncate(z, 1)
    res = sum(c.rep_mod(1) for c in z1.coeffs if not c.is_bottom) % p  # zeta = 1 mod rho
    y = tower.constant(level, pow(res, -1, p), 1)
    for _ in range(tower.ramification(level).bit_length() + 1):
        err = tower.one(level, 1) - tower.mul(z1, y)
        if err.is_all_bottom:
            return y
        y = tower.add(y, tower.mul(y, err))
    raise AssertionError("Newton's loop did not converge mod p")


DEEP_P2 = CyclotomicTower(TowerParams(p=2, s=2, max_level=9, prec=20))


@pytest.mark.parametrize(
    "tower", [*FOLD_TOWERS.values(), DEEP_P2], ids=lambda t: f"p{t.p}-levels{t.max_level}"
)
def test_the_frobenius_inverse_mod_p_matches_newtons_loop(tower):
    # every level of every small tower, p = 7 and a deep p = 2 tower included;
    # a constant unit is where Newton's loop stopped at once
    rng = random.Random(tower.p * 100 + tower.max_level)
    for level in range(tower.max_level + 1):
        for u in (tower.constant(level, -1), *(tower.random_unit(level, rng) for _ in range(3))):
            want = newton_mod_p(tower, u)._packed
            assert tower.invert(tower.truncate(u, 1))._packed == want
            assert tower.truncate(tower.invert(u), 1)._packed == want


@pytest.mark.parametrize("cap", [1, 2, 20])
def test_invert_raises_on_a_wrong_frobenius(cap, monkeypatch):
    # a re-index by p^(k+1) for p^k builds a wrong inverse mod p: the check
    # product at cap 1 or the first Newton step above it must refuse it
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=20))
    u = tower.truncate(tower.random_unit(2, random.Random(83)), cap)
    honest = CyclotomicTower._frobenius
    monkeypatch.setattr(
        CyclotomicTower,
        "_frobenius",
        lambda self, level, ints, pk: honest(self, level, ints, pk * self.p),
    )
    with pytest.raises(InsufficientPrecision):
        tower.invert(u)


def test_a_unit_inversion_makes_few_one_digit_products(monkeypatch):
    # mod p: v = z^(p-1) by square-and-multiply, at most two products per bit
    # of J = level + s for the Itoh-Tsujii chain, and at cap 1 one check;
    # Newton's loop mod p made 17 here
    tower = CyclotomicTower(TowerParams(p=5, s=1, max_level=3, prec=60))
    digits, product = [], CyclotomicTower._product
    monkeypatch.setattr(
        CyclotomicTower,
        "_product",
        lambda self, level, a, b: digits.append((a[1], b[1])) or product(self, level, a, b),
    )
    bound = math.ceil(math.log2(tower.p)) + 2 * (3 + tower.s).bit_length() + 1
    u = tower.random_unit(3, random.Random(5))
    for cap in (60, 1):
        digits.clear()
        ui = tower.invert(tower.truncate(u, cap))
        assert sum(a == b == 1 for a, b in digits) <= bound
        assert tower.mul(u, ui) == 1


@lru_cache(maxsize=None)
def plan(tower, level):
    """plan[t] for 0 <= t < 2q: the (slot, sign) pairs rewriting zeta^t in the
    power basis, row by row from the cyclotomic relation: the oracle for the
    tower's slice fold."""
    q, h, phi = tower.q(level), tower.h(level), tower.phi(level)
    rows = []
    for t in range(2 * q):
        tm = t % q
        if tm < phi:
            rows.append(((tm, 1),))
        else:
            rows.append(tuple((tm - phi + i * h, -1) for i in range(tower.p - 1)))
    return rows


def convolution(xa, xb):
    """The schoolbook product slots sum_(i+j=t) xa[i] xb[j], one row per int
    of xa."""
    slots = [0] * (len(xa) + len(xb) - 1)
    for i, u in enumerate(xa):
        slots[i : i + len(xb)] = map(operator.add, slots[i : i + len(xb)], [u * v for v in xb])
    return slots


def plan_fold(tower, level, ints):
    """sum_t ints[t] zeta^t in the power basis, one plan row per slot."""
    rows, acc = plan(tower, level), [0] * tower.phi(level)
    for t, a in enumerate(ints):
        for slot, sign in rows[t]:
            acc[slot] += sign * a
    return acc


def schoolbook(tower, x, y):
    """x * y by all phi^2 coordinate products, each folded by its plan row."""
    plan_rows = plan(tower, x.level)
    acc = [None] * tower.phi(x.level)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            term = a * b
            for slot, sign in plan_rows[i + j]:
                signed = term if sign > 0 else -term
                acc[slot] = signed if acc[slot] is None else acc[slot] + signed
    return TowerElement(tower, x.level, acc)


@settings(max_examples=80, deadline=None)
@given(small_elements(count=2))
def test_mul_matches_the_schoolbook_product(case):
    tower, x, y = case
    got, want = tower.mul(x, y), schoolbook(tower, x, y)
    assert got == want
    # the packed product never claims a digit the exact one does not know
    assert all(g.prec <= w.prec for g, w in zip(got.coeffs, want.coeffs))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(FOLD_TOWERS)), st.data())
def test_the_fold_matches_the_plan_rows(p, data):
    # the product kernel, the Galois loop and zeta give the plan-folded
    # integers, all-maximal squares included
    tower = FOLD_TOWERS[p]
    level = data.draw(st.integers(0, tower.max_level))
    phi, q = tower.phi(level), tower.q(level)
    digits = data.draw(st.integers(1, tower.prec))
    kind = data.draw(st.sampled_from(["pair", "square", "maximal"]))
    ints = st.lists(st.integers(0, p ** digits - 1), min_size=phi, max_size=phi)
    if kind == "maximal":
        xa = xb = [p ** digits - 1] * phi
    else:
        xa = data.draw(ints)
        xb = xa if kind == "square" else data.draw(ints)
    a = (data.draw(st.integers(0, 3)), digits, xa)
    b = a if kind != "pair" else (data.draw(st.integers(0, 3)), digits, xb)
    slots = convolution(xa, xb)
    assert tower.fold(level, slots) == plan_fold(tower, level, slots)
    want = tower._normalise(a[0] + b[0], digits, plan_fold(tower, level, slots))
    assert tower._product(level, a, b) == want
    unit = data.draw(st.sampled_from([u for u in range(2, q) if u % p]))
    acc = [0] * phi
    for j, u in enumerate(xa):
        for slot, sign in plan(tower, level)[unit * j % q]:
            acc[slot] += sign * u
    assert tower._act(level, unit, a) == tower._normalise(a[0], digits, acc)
    k = data.draw(st.integers(-q, 2 * q - 1))
    one_hot = [0] * (2 * q)
    one_hot[k % q] = 1
    want = tower.from_int_coeffs(level, plan_fold(tower, level, one_hot))
    assert tower.zeta(level, k).to_json() == want.to_json()


def test_fold_rejects_more_than_2q_slots(tw):
    with pytest.raises(DomainError):
        tw.fold(1, [0] * (2 * tw.q(1) + 1))


def join_encode(ints, w):
    """The byte-join encoder: each int as w little-endian bytes."""
    return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in ints), "little")


def join_decode(z, n, w):
    """The byte-slice decoder: n slots of w bytes each."""
    zb = z.to_bytes(n * w, "little")
    return [int.from_bytes(zb[t : t + w], "little") for t in range(0, n * w, w)]


def test_the_slot_codec_matches_the_byte_join():
    # word slots for w <= 8, struct-cut slots from w = 9, on both sides of
    # the edge and at the wide slots of big products
    rng = random.Random(8)
    for w in (*range(1, 10), 16, 17, 36):
        top = 2 ** (8 * w) - 1
        for n in (1, 2, 17):
            for slots in ([0] * n, [top] * n, [rng.randrange(top + 1) for _ in range(n)]):
                z = join_encode(slots, w)
                assert _encode(slots, w) == z
                assert list(_decode(z, n, w)) == join_decode(z, n, w) == slots


WORD_TOWERS = {
    p: CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=levels, prec=40))
    for p, levels in ((2, 3), (3, 4), (5, 2), (7, 1))
}


def word_digits(p, phi):
    """The largest digit count d whose slot bound phi (p^d - 1)^2 is below
    2^64, so that a square at d digits has slots of at most 8 bytes."""
    d = 1
    while phi * (p ** (d + 1) - 1) ** 2 < 2**64:
        d += 1
    return d


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(WORD_TOWERS)), st.data())
def test_the_product_at_the_word_edge_matches_the_schoolbook_slots(p, data):
    # digit counts d8 and d8 + 1 put the slot width on each side of 8 bytes;
    # mixed digit counts give the narrow slots of an unequal pair
    tower = WORD_TOWERS[p]
    level = data.draw(st.integers(0, tower.max_level))
    phi = tower.phi(level)
    d8 = word_digits(p, phi)
    edge = [(phi * (p**d - 1) ** 2).bit_length() for d in (d8, d8 + 1)]
    assert edge[0] <= 64 < edge[1]
    da, db = data.draw(
        st.sampled_from([(d8, d8), (d8 + 1, d8 + 1), (d8, d8 + 1), (d8, 1), (1, d8 + 1)])
    )
    kind = data.draw(st.sampled_from(["pair", "square", "maximal"]))
    if kind == "maximal":
        xa, xb = [p**da - 1] * phi, [p**db - 1] * phi
    else:
        xa = data.draw(st.lists(st.integers(0, p**da - 1), min_size=phi, max_size=phi))
        xb = data.draw(st.lists(st.integers(0, p**db - 1), min_size=phi, max_size=phi))
    a = (data.draw(st.integers(0, 3)), da, xa)
    b = (data.draw(st.integers(0, 3)), db, xb)
    if kind == "square" or (kind == "maximal" and da == db):
        b, xb = a, xa
    slots = convolution(xa, xb)
    want = tower._normalise(a[0] + b[0], min(a[1], b[1]), plan_fold(tower, level, slots))
    assert tower._product(level, a, b) == want


def oracle_product(tower, level, a, b):
    """The product of two triples by `convolution`, `fold` and `_normalise`."""
    (sa, da, xa), (sb, db, xb) = a, b
    return tower._normalise(sa + sb, min(da, db), tower.fold(level, convolution(xa, xb)))


def oracle_power(tower, level, a, n):
    """a^n, n >= 1, by square-and-multiply on `oracle_product`."""
    out = None
    while n:
        if n & 1:
            out = a if out is None else oracle_product(tower, level, out, a)
        n >>= 1
        if n:
            a = oracle_product(tower, level, a, a)
    return out


@settings(max_examples=80, deadline=None)
@given(small_elements(count=2), st.integers(1, 12))
def test_mul_and_power_match_the_convolution_oracle(case, n):
    tower, x, y = case
    a, b = x._packed, y._packed
    assert tower.mul(x, y)._packed == oracle_product(tower, x.level, a, b)
    assert tower.mul(x, x)._packed == oracle_product(tower, x.level, a, a)
    assert tower.power(x, n)._packed == oracle_power(tower, x.level, a, n)


T5 = CyclotomicTower(TowerParams(p=5, s=1, max_level=3, prec=60))


@pytest.mark.parametrize("digits", [1, 8, 16, 36, 60])
@pytest.mark.parametrize("kind", ["pair", "square", "newton", "maximal"])
def test_big_products_match_the_convolution_oracle(digits, kind):
    # phi 500: a Newton step from d to 2d digits multiplies y, whose ints are
    # below p^d, read at cap 2d; maximal ints fill every slot to its bound
    rng, p, level = random.Random(digits), 5, 3
    phi = T5.phi(level)
    high = p ** max(1, digits // 2) if kind == "newton" else p**digits
    if kind == "maximal":
        xa, xb = [high - 1] * phi, [high - 1] * phi
    else:
        xa, xb = _draws(rng, p**digits, phi), _draws(rng, high, phi)
        if sum(xa) % p == 0:  # a unit, so that power meets Frobenius at one digit
            xa[0] = (xa[0] + 1) % p**digits
    a, b = (0, digits, xa), (1, digits, xb)
    if kind == "square":
        b = a
    x, y = T5._unpack(level, a), T5._unpack(level, b)
    assert T5.mul(x, y)._packed == oracle_product(T5, level, a, b)
    if kind == "pair":
        n = 10 if digits == 1 else 3
        assert T5.power(x, n)._packed == oracle_power(T5, level, a, n)


@pytest.mark.parametrize("level", [2, 3])
@pytest.mark.parametrize("side", ["below", "above"])
@pytest.mark.parametrize("square", [False, True])
def test_products_on_both_sides_of_the_ks2_cutoff_match_the_oracle(level, side, square, monkeypatch):
    # slots of w bytes with phi w just below or at KS2_BYTES; a spy on _ks2
    # shows which product ran, and maximal ints fill the widest slot
    calls = []
    monkeypatch.setattr(tower_module, "_ks2", lambda *args: calls.append(args) or _ks2(*args))
    rng, p, phi = random.Random(level), 5, T5.phi(level)
    w = (KS2_BYTES - 1) // phi if side == "below" else -(-KS2_BYTES // phi)
    top = math.isqrt((2 ** (8 * w) - 1) // phi)
    assert (phi * top * top).bit_length() > 8 * (w - 1)
    digits = next(d for d in range(1, 200) if p**d > top)
    xa, xb = _draws(rng, top + 1, phi), _draws(rng, top + 1, phi)
    xa[-1] = xb[0] = top
    a, b = (0, digits, xa), (2, digits, xb)
    if square:
        b = a
    assert T5._product(level, a, b) == oracle_product(T5, level, a, b)
    assert len(calls) == (side == "above")


@settings(max_examples=80, deadline=None)
@given(small_elements(count=2))
def test_valuation_of_a_product_is_the_sum(case):
    tower, x, y = case
    vx, vy = valuation_or_none(tower, x), valuation_or_none(tower, y)
    assume(vx is not None and vy is not None)
    xy = tower.mul(x, y)
    vxy = valuation_or_none(tower, xy)
    if vxy is None:
        # zero at its precision only where the true product is
        assert vx + vy >= xy.cap
    else:
        assert vxy == vx + vy


@settings(max_examples=40, deadline=None)
@given(small_elements(count=2), st.data())
def test_norm_is_multiplicative(case, data):
    tower, x, y = case
    target = data.draw(st.integers(0, x.level))
    lhs = tower.norm_down(tower.mul(x, y), target)
    assert lhs == tower.mul(tower.norm_down(x, target), tower.norm_down(y, target))


# galois_apply, the trace and norm folds and power as loops over PadicScalar
# coordinates: the oracles for the packed versions in the tower.  Reports
# cannot see a wrong cap, so the properties below compare element bytes.


def galois_oracle(tower, g, x):
    q, plan_rows = tower.q(x.level), plan(tower, x.level)
    out = [None] * tower.phi(x.level)
    for j, c in enumerate(x.coeffs):
        if c.is_bottom:
            continue
        for slot, sign in plan_rows[(g.unit * j) % q]:
            term = c if sign > 0 else -c
            out[slot] = term if out[slot] is None else out[slot] + term
    bot = PadicScalar.bottom(tower.p, x.cap)
    return TowerElement(tower, x.level, [bot if c is None else c for c in out])


def fold_oracle(tower, x, level, combine):
    while x.level > level:
        conjugates = [galois_oracle(tower, g, x) for g in tower.relative_galois(x.level)]
        x = restrict(tower, reduce(combine, conjugates), x.level - 1)
    return x


def power_oracle(tower, x, n):
    out, acc = None, x
    while n:
        if n & 1:
            out = acc if out is None else tower.mul(out, acc)
        n >>= 1
        if n:
            acc = tower.mul(acc, acc)
    return out


def chain_pairs(tower, x, n):
    """(name, packed result, oracle result) for power(x, n), the norm and
    trace to every level at or below x's, and galois_apply under every unit."""
    yield "power", tower.power(x, n), power_oracle(tower, x, n)
    for level in range(x.level + 1):
        yield "norm", tower.norm_down(x, level), fold_oracle(tower, x, level, tower.mul)
        yield "trace", tower.trace_down(x, level), fold_oracle(tower, x, level, tower.add)
    q = tower.q(x.level)
    for unit in range(1, q):
        if unit % tower.p:
            g = tower.galois_by_unit(x.level, unit)
            yield "galois", tower.galois_apply(g, x), galois_oracle(tower, g, x)


@st.composite
def uniform_elements(draw):
    """(tower, x) with one cap on every coordinate: zero, p^k multiples, rho
    power multiples and elements within a digit of their cap among them."""
    tower = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    p = tower.p
    level = draw(st.integers(0, tower.max_level))
    phi = tower.phi(level)
    cap = draw(st.integers(1, tower.prec))
    k = draw(st.integers(0, cap))  # k = cap gives zero
    ints = draw(st.lists(st.integers(0, p ** (cap - k)), min_size=phi, max_size=phi))
    x = tower.from_int_coeffs(level, [p ** k * a for a in ints], cap)
    r = draw(st.integers(0, phi - 1))
    if r:
        x = tower.mul(x, tower.rho_power(level, r, cap))
    return tower, x


@settings(max_examples=120, deadline=None)
@given(uniform_elements(), st.integers(1, 40))
def test_chains_match_the_scalar_oracles_byte_for_byte(case, n):
    tower, x = case
    assert len({c.prec for c in x.coeffs}) == 1
    for name, got, want in chain_pairs(tower, x, n):
        assert got.to_json() == want.to_json(), name


@settings(max_examples=60, deadline=None)
@given(small_elements(), st.integers(1, 40))
def test_chains_on_ragged_caps_claim_no_more_than_the_oracles(case, n):
    # ragged input is read at its least cap, which may be below the caps the
    # oracle keeps per coordinate; the values agree at shared precision
    tower, x = case
    for name, got, want in chain_pairs(tower, x, n):
        assert got == want, name
        assert all(g.prec <= w.prec for g, w in zip(got.coeffs, want.coeffs)), name


@st.composite
def one_digit_powers(draw, unit=True):
    """(tower, x, n): x at one digit, a unit or not, and n = p^k r with p^k
    up to p q (from p^k = q on, every zeta^(j p^k) is 1)."""
    tower = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    p, level = tower.p, draw(st.integers(0, tower.max_level))
    phi = tower.phi(level)
    ints = draw(st.lists(st.integers(0, p - 1), min_size=phi, max_size=phi))
    if (sum(ints) % p != 0) != unit:
        ints[0] = (ints[0] + 1) % p if unit else (ints[0] - sum(ints)) % p
    k = draw(st.integers(0, level + tower.s + 1))
    return tower, tower.from_int_coeffs(level, ints, 1), p ** k * draw(st.integers(1, 2 * p))


@settings(max_examples=120, deadline=None)
@given(st.one_of(one_digit_powers(), one_digit_powers(unit=False)))
def test_power_at_one_digit_is_the_square_and_multiply_triple(case):
    # units take Frobenius for the p-part of n; either way the triple is
    # byte-equal to square-and-multiply
    tower, x, n = case
    assert tower.power(x, n)._packed == power_oracle(tower, x, n)._packed


def test_a_nonunit_at_one_digit_keeps_square_and_multiply():
    # zeta^3 + zeta^4 + zeta^5 is nilpotent mod 3: square-and-multiply reaches
    # cap 7 where Frobenius would claim cap 9, so only units re-index
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=1, prec=8))
    x = tower.from_int_coeffs(1, [0, 0, 0, 1, 1, 1], 1)
    got = tower.power(x, 27)
    assert got._packed == power_oracle(tower, x, 27)._packed
    assert got.cap == 7


def act_reference(tower, level, unit, packed):
    """The Galois loop before the gather: int j moves to slot unit j mod q."""
    shift, digits, ints = packed
    q = tower.q(level)
    moved = [0] * q
    for j, a in enumerate(ints):
        moved[unit * j % q] = a
    return tower._normalise(shift, digits, tower.fold(level, moved))


@pytest.mark.parametrize("p, levels", [(2, 2), (3, 2), (5, 1), (7, 1)])
def test_galois_apply_matches_the_reference_loop_under_every_unit(p, levels):
    tower = CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=levels, prec=10))
    rng = random.Random(p)
    for level in range(levels + 1):
        xs = [tower.random_integral(level, rng), tower.rho_power(level, 1), tower.zero(level)]
        for unit in range(1, tower.q(level)):
            if unit % p:
                g = tower.galois_by_unit(level, unit)
                for x in xs:
                    want = act_reference(tower, level, unit, x._packed)
                    assert tower.galois_apply(g, x)._packed == want
    info = _galois_index.cache_info()
    assert info.maxsize == 64 and info.currsize <= info.maxsize


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (5, 1), (7, 1)]), st.data())
def test_the_norm_is_the_p_power_mod_p(key, data):
    # N_{K_m/K_n}(x) = x^(p^k) mod p for integral x (Coleman, Division values
    # in local fields, 1979): the defect at one digit is all bottom, and a
    # unit's defect at full cap has val >= 1
    p, levels = key
    tower = CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=levels, prec=8))
    m = data.draw(st.integers(1, levels))
    n = data.draw(st.integers(0, m - 1))
    k = data.draw(st.integers(0, 2))
    phi = tower.phi(m)
    ints = data.draw(st.lists(st.integers(0, p ** 8), min_size=phi, max_size=phi))
    x = tower.from_int_coeffs(m, [p ** k * a for a in ints])
    assert tower.norm_defect(tower.truncate(x, 1), n).is_all_bottom
    u = tower.random_unit(m, random.Random(data.draw(st.integers(0, 2 ** 32))))
    v = tower.valuation_or_none(tower.norm_defect(u, n))
    assert v is None or v >= 1


def norm_by_conjugates(tower, x, level):
    """`norm_down` with no Frobenius shortcut: conjugate products only."""
    return tower._fold_conjugates(
        x, level, lambda top, cs: reduce(partial(tower._product, top), cs), "norm"
    )


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FOLD_TOWERS)), st.data())
def test_the_norm_at_one_digit_is_the_conjugate_product_triple(key, data):
    # a unit at one digit takes Frobenius to every lower level, a non-unit the
    # conjugates; either way the triple is byte-equal to the conjugate product's
    tower = FOLD_TOWERS[key]
    p = tower.p
    for m in range(1, tower.max_level + 1):
        phi = tower.phi(m)
        ints = data.draw(st.lists(st.integers(0, p - 1), min_size=phi, max_size=phi))
        unit = data.draw(st.booleans())
        if (sum(ints) % p != 0) != unit:
            ints[0] = (ints[0] + 1) % p if unit else (ints[0] - sum(ints)) % p
        x = tower.from_int_coeffs(m, ints, 1)
        for n in range(m):
            got = tower.norm_down(x, n)
            assert got.level == n
            assert got._packed == norm_by_conjugates(tower, x, n)._packed, (m, n)


def test_a_nonunit_at_one_digit_keeps_the_conjugate_norm():
    # zeta^2 + zeta^3 + zeta^6 + zeta^7 vanishes mod 2 with its norm to level
    # 0: the conjugates reach cap 2 where Frobenius would claim only cap 1
    tower = CyclotomicTower(TowerParams(p=2, s=2, max_level=2, prec=8))
    x = tower.from_int_coeffs(2, [0, 0, 1, 1, 0, 0, 1, 1], 1)
    got = tower.norm_down(x, 0)
    assert got._packed == norm_by_conjugates(tower, x, 0)._packed
    assert got.is_all_bottom and got.cap == 2
    assert tower._frobenius(2, x._packed[2], 4)[:2] == (1, 0)
    unit = tower.from_int_coeffs(1, [1, 1, 0, 1], 1)
    for level in (2, -1):
        with pytest.raises(DomainError):
            tower.norm_down(unit, level)


def test_trace_rejects_conjugates_that_differ_in_shift(tw):
    packed = tw.random_unit(1, random.Random(83))._packed
    other = (packed[0] + 1, packed[1], packed[2])
    with pytest.raises(PadicError):
        tw._sum(1, [packed, other])


def test_scale_p(tw):
    x = tw.zeta(1) * 5
    assert tw.scale_p(x, 2) == x * 9
    assert tw.valuation(tw.scale_p(x, -1)) == -1


def test_element_json_roundtrip(tw):
    x = tw.random_integral(2, random.Random(71))
    y = tw.element_from_json(x.to_json())
    assert y.level == x.level
    assert y == x
    assert (y - x).is_all_bottom


def test_random_unit_is_unit(tw):
    rng = random.Random(73)
    for _ in range(5):
        assert tw.valuation(tw.random_unit(2, rng)) == 0


def test_element_str_mentions_level(tw):
    assert "K[1]" in str(tw.zeta(1))


# Results of the packed kernels hold only their triple and build coordinates
# on first read.  The triple must be what `pack` makes of those coordinates,
# normalised, and cap, zero test and JSON must not depend on the view.


def assert_packed_view(tower, y, what):
    assert y._coeffs is None, what
    seen = (y._packed, y.cap, y.is_all_bottom)
    rebuilt = TowerElement(tower, y.level, y.coeffs)
    assert seen == (rebuilt._packed, rebuilt.cap, rebuilt.is_all_bottom), what
    assert y.to_json() == rebuilt.to_json(), what


@settings(max_examples=80, deadline=None)
@given(rho_sum_elements(), st.data())
def test_packed_results_hold_the_triple_of_their_coordinates(case, data):
    tower, x = case
    level, p = x.level, tower.p
    ints = data.draw(st.lists(st.integers(-(p**9), p**9), max_size=tower.phi(level)))
    rho_coords, rho_cap = rho_ints(tower.rho_power_coords(x))
    results = [
        ("mul", tower.mul(x, x)),
        ("mul rho", tower.mul(x, tower.rho_power(level, 1))),
        ("power", tower.power(x, data.draw(st.integers(2, 9)))),
        ("galois_apply", tower.galois_apply(tower.galois(level, 1), x)),
        ("from_int_coeffs", tower.from_int_coeffs(level, ints, data.draw(st.integers(-2, 10)))),
        ("from_rho_power_coords", tower.from_rho_power_coords(level, rho_coords, rho_cap)),
        ("negation", -x),
        ("scale_p", tower.scale_p(x, data.draw(st.integers(-3, 3)))),
    ]
    results += [(f"truncate {d}", tower.truncate(x, d)) for d in range(x.cap - 3, x.cap)]
    for target in range(tower.max_level + 1):
        results += [
            (f"normalized_trace {target}", tower.normalized_trace(x, target)),
            (f"perp_project {target}", tower.perp_project(x, target)),
        ]
    results += [(f"embed {t}", tower.embed(x, t)) for t in range(level + 1, tower.max_level + 1)]
    for target in range(level):
        results += [
            (f"norm_down {target}", tower.norm_down(x, target)),
            (f"trace_down {target}", tower.trace_down(x, target)),
            (f"norm_defect {target}", tower.norm_defect(x, target)),
        ]
    if level:
        results.append(("from_rho_basis", tower.from_rho_basis(level, tower.to_rho_basis(x))))
    for what, y in results:
        assert_packed_view(tower, y, what)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.data())
def test_ragged_scalars_are_cut_to_their_least_cap(key, data):
    # an element has one cap: built from scalars whose caps differ, it is the
    # element built from each scalar truncated to the least cap
    tower = SMALL[key]
    level = data.draw(st.integers(0, tower.max_level))
    coeffs = [ragged_scalar(data.draw, tower.p, tower.prec + 3) for _ in range(tower.phi(level))]
    coeffs = [c.shift(data.draw(st.integers(-2, 2))) for c in coeffs]
    cap = min(c.prec for c in coeffs)
    x = TowerElement(tower, level, coeffs)
    cut = TowerElement(tower, level, [c.truncate(cap) for c in coeffs])
    assert x.to_json() == cut.to_json()
    assert (x.cap, x.is_all_bottom) == (cap, all(c.is_bottom for c in cut.coeffs))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.booleans(), st.data())
def test_an_element_built_from_scalars_holds_its_triple(key, ragged, data):
    # packed when built, from an iterable read once, and no coordinate kept;
    # at one cap the scalar view gives back the scalars it was built from
    tower = SMALL[key]
    p, level = tower.p, data.draw(st.integers(0, tower.max_level))
    top = data.draw(st.integers(1, tower.prec + 3))
    coeffs = []
    for _ in range(tower.phi(level)):
        cap = data.draw(st.integers(1, top)) if ragged else top
        val = data.draw(st.integers(0, cap))
        coeffs.append(PadicScalar.from_int(p, p**val * data.draw(st.integers(1, p**cap)), cap))
    x = TowerElement(tower, level, iter(coeffs))
    shift, digits, ints = x._packed
    assert x._coeffs is None and len(ints) == tower.phi(level)
    assert x.cap == min(c.prec for c in coeffs)
    assert all(0 <= a < p**digits for a in ints)
    assert any(a % p for a in ints) if digits else not any(ints)
    if not ragged:
        assert [c.to_json() for c in x.coeffs] == [c.to_json() for c in coeffs]


def norm_defect_inputs(tower, m):
    rng = random.Random(m)
    units = [tower.random_unit(m, rng) for _ in range(3)]
    yield from (tower.rho_power(m, i) for i in range(0, tower.phi(m), max(1, tower.phi(m) // 5)))
    yield from units
    yield from (tower.truncate(u, d) for u in units for d in (8, 16))
    yield tower.zero(m)
    yield tower.truncate(tower.scale_p(units[0], 3), 2)  # all bottom at cap 2
    coeffs = list(units[1].coeffs)
    coeffs[1] = coeffs[1].truncate(9)  # ragged: one coordinate at its own cap
    yield TowerElement(tower, m, coeffs)


@pytest.mark.parametrize("p, levels, prec", [(2, 2, 20), (3, 2, 20), (5, 1, 18)])
def test_norm_defect_is_the_embedded_norm_minus_the_power(p, levels, prec):
    tower = CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=levels, prec=prec))
    for m in range(1, levels + 1):
        for x in norm_defect_inputs(tower, m):
            for n in range(m):
                got = tower.norm_defect(x, n)
                want = tower.embed(tower.norm_down(x, n), m) - tower.power(x, p ** (m - n))
                assert got.to_json() == want.to_json(), (m, n, x)


@pytest.fixture
def built(monkeypatch):
    """The `PadicScalar.raw` and `__init__` calls made from here on."""
    calls = []
    raw, init = PadicScalar.__dict__["raw"].__func__, PadicScalar.__init__
    monkeypatch.setattr(
        PadicScalar, "raw", classmethod(lambda cls, *a: calls.append("raw") or raw(cls, *a))
    )
    monkeypatch.setattr(
        PadicScalar, "__init__", lambda self, *a: calls.append("init") or init(self, *a)
    )
    return calls


def test_a_ladder_rung_on_a_packed_element_builds_no_scalar(built):
    # the rung of `constants.norm_congruence_cell`: truncate, the defect, its
    # zero test and its valuation all stay on the packed triple
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=20))
    xs = [tower.random_unit(2, random.Random(7)), tower.rho_power(2, 5)]
    assert all(x._coeffs is None for x in xs)
    for x in xs:
        diff = tower.norm_defect(tower.truncate(x, 8), 1)
        assert not diff.is_all_bottom
        tower.valuation(diff)
    assert built == []
    xs[0].coeffs  # the counters see the scalars that the coordinates need
    assert built.count("raw") == tower.phi(2)


def test_invert_of_a_packed_element_builds_no_scalar(built):
    # Newton runs on triples: a random unit and rho^5, which takes the rho
    # shift, invert with no scalar built on the way
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=20))
    xs = [tower.random_unit(2, random.Random(11)), tower.rho_power(2, 5)]
    assert all(x._coeffs is None for x in xs)
    inverses = [tower.invert(x) for x in xs]
    assert built == []
    assert all(tower.mul(x, xi) == 1 for x, xi in zip(xs, inverses))
    assert built  # the counters see the scalars that the comparison needs


def test_a_rho_expansion_of_a_packed_element_makes_one_product(built, monkeypatch):
    # once g'(rho)^-1 is cached, the expansion is one `mul` and sums on ints,
    # and the way back reads the coefficients' triples: no scalar is built
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=20))
    products, mul = [], CyclotomicTower.mul
    monkeypatch.setattr(CyclotomicTower, "mul", lambda *a: products.append(a) or mul(*a))
    for n in (1, 2):
        tower.to_rho_basis(tower.one(n))  # warm the cache
        rng = random.Random(n)
        xs = [tower.random_unit(n, rng), tower.rho_power(n, 5), tower.zero(n, 7)]
        assert all(x._coeffs is None for x in xs)
        for x in xs:
            products.clear()
            built.clear()
            back = tower.from_rho_basis(n, tower.to_rho_basis(x))
            assert len(products) == 1
            assert built == []
            assert back.to_json() == x.to_json()


# Subtraction and equality run on `_combine`, the packed sum at the lesser
# cap.  The oracle is the route they took before: the per-coordinate `add` of
# the negated operand, one scalar sum per coordinate.


def sub_oracle(tower, x, y):
    """x - y by `tower.add` on scalars; x or y may be a constant."""
    return tower.add(x, -y) if isinstance(x, TowerElement) else tower.add(-y, x)


@st.composite
def sub_operand(draw, tower, level):
    """An element of K_level with ragged JSON caps, maybe shifted by p^k,
    maybe all bottom, maybe given at a lower level (so `-` embeds it)."""
    p = tower.p
    low = draw(st.integers(0, level))
    if draw(st.booleans()):
        x = tower.zero(low, draw(st.integers(-2, tower.prec)))
    else:
        x = TowerElement(tower, low, [ragged_scalar(draw, p, 8) for _ in range(tower.phi(low))])
    x = tower.scale_p(x, draw(st.integers(-2, 2)))
    return x if low == level or draw(st.booleans()) else tower.embed(x, level)


@st.composite
def sub_cases(draw):
    tower = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    p, level = tower.p, draw(st.integers(0, tower.max_level))
    x, y = draw(sub_operand(tower, level)), draw(sub_operand(tower, level))
    num = draw(st.integers(-(p**9), p**9))
    den = draw(st.sampled_from([1, 2, 3, 5, 7, p, p * p]))
    scalar = PadicScalar.from_int(p, num, draw(st.integers(1, 10))).shift(draw(st.integers(-1, 2)))
    c = draw(st.sampled_from([num, Fraction(num, den), scalar]))
    return tower, x, y, c


def same_triple(tower, got, want):
    return (got.level, got._packed, got.cap) == (want.level, want._packed, want.cap)


@settings(max_examples=150, deadline=None)
@given(sub_cases())
def test_packed_subtraction_matches_the_per_coordinate_route(case):
    tower, x, y, c = case
    pairs = [(x, y), (y, x), (x, c), (c, x), (x, x), (y, y)]
    for a, b in pairs:
        got = a - b
        want = sub_oracle(tower, a, b)
        assert same_triple(tower, got, want), (a, b)
        assert got.to_json() == want.to_json()
    assert (x == y) is sub_oracle(tower, x, y).is_all_bottom
    assert (x == c) is sub_oracle(tower, x, c).is_all_bottom
    assert (x - x).is_all_bottom and x == x


def test_packed_subtraction_builds_no_scalar(built):
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=20))
    rng = random.Random(3)
    x, y = tower.random_unit(2, rng), tower.random_integral(1, rng)
    assert x._coeffs is None and y._coeffs is None
    diffs = [x - y, y - x, x - x, tower.scale_p(y, 2) - x]
    assert not x == y and x == x
    assert built == []
    assert [d.is_all_bottom for d in diffs] == [False, False, True, False]


def test_an_element_over_another_prime_is_refused():
    # the operand check is the only one: `*` and `-` never meet a scalar's
    # own prime check, so without it they returned a silent 3-adic answer
    t3 = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=6))
    t5 = CyclotomicTower(TowerParams(p=5, s=1, max_level=2, prec=6))
    x, y = t3.zeta(0), t5.zeta(0)
    for op in (operator.mul, operator.add, operator.sub, operator.eq):
        for a, b in ((x, y), (y, x)):
            with pytest.raises(DomainError, match="mixed primes"):
                op(a, b)
    # the same p at another prec or max_level still combines
    t3b = CyclotomicTower(TowerParams(p=3, s=1, max_level=3, prec=10))
    z = t3b.zeta(2)
    assert (x * z).level == 2 and (x - z).level == 2 and (z - x).cap == 6
    assert x + t3b.zeta(0) == 2 * x


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_draws_are_randranges_values_and_state(p):
    # `_draws` is randrange's rejection loop on getrandbits: the same values,
    # and the generator ends in the same state
    bounds = [1, 2, *(2**k + d for k in (1, 7, 64) for d in (-1, 0, 1))]
    bounds += [p**prec for prec in (1, 20, 60)]
    for seed, bound in enumerate(bounds):
        a, b = random.Random(seed), random.Random(seed)
        got = _draws(a, bound, 40)
        assert got == [b.randrange(bound) for _ in range(40)], bound
        assert a.getstate() == b.getstate(), bound
