import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclodiff.constants import galois_defect_cell
from cyclodiff.errors import DomainError, InsufficientPrecision
from cyclodiff.padic import PadicScalar, vp
from cyclodiff.tower import CyclotomicTower, TowerParams
from cyclodiff.differentials import (
    BASES,
    LatticeBasis,
    OmegaClass,
    base_change_compare,
    commensurability_check,
    different,
    differential,
    divisibility_exponent,
    echelon,
    elementary_divisor_valuations,
    flat_decompose,
    kernel_lattice,
    kernel_mixed_columns,
    layer_sum_columns,
    level_transition_factor,
    mixed_coords,
    modulus_valuation,
    random_kernel_element,
    sublevel_columns,
)
from test_tower import (
    FOLD_TOWERS,
    SMALL,
    minimal_polynomial_qp,
    mul_rho_oracle,
    rho_ints,
    rho_sum_elements,
)


def kernel_contains(tower, ker, x) -> bool:
    """Whether x meets the kernel lattice's bounds: on its K_0-coefficients
    for base K0, on its rho-power coordinates over Q_p otherwise."""
    if x.level != ker.level:
        raise DomainError("element level does not match the kernel lattice")
    if ker.base == "K0":
        vals = (tower.valuation_or_none(c) for c in tower.to_rho_basis(x))
        return all(v is None or v >= Fraction(r, tower.phi(0)) for v, r in zip(vals, ker.exps))
    return all(
        c.is_bottom or c.val >= r for c, r in zip(tower.rho_power_coords(x), ker.exps)
    )


@pytest.fixture(scope="module")
def t3():
    return CyclotomicTower(TowerParams(p=3, s=1, max_level=3, prec=24))


@pytest.fixture(scope="module")
def t2():
    return CyclotomicTower(TowerParams(p=2, s=2, max_level=3, prec=24))


def scal(p, n, prec=24):
    return PadicScalar.from_int(p, n, prec)


# ---------------------------------------------------------------------------
# the different
# ---------------------------------------------------------------------------


def test_different_over_k0_values(t3, t2):
    for tower in (t3, t2):
        for n in range(tower.max_level + 1):
            assert different(tower, n, "K0") == Fraction(n)
    # p = 3, level 1: derivative of the relative minimal polynomial at rho
    # is 3 * zeta_9^2, exactly
    gen = t3.minpoly_derivative_at_rho(1)
    expected = t3.from_int_coeffs(1, [0, 0, 3, 0, 0, 0])
    assert (gen - expected).is_all_bottom


def test_different_over_qp_values(t3, t2):
    assert different(t3, 0, "Qp") == Fraction(1, 2)
    assert different(t3, 1, "Qp") == Fraction(3, 2)
    assert different(t3, 2, "Qp") == Fraction(5, 2)
    assert different(t2, 1, "Qp") == Fraction(2)
    assert different(t2, 2, "Qp") == Fraction(3)


def test_different_qp_generator_matches_sparse_form(t3, t2):
    # derivative of the degree-q cyclotomic polynomial at zeta has the
    # sparse form sum_{i=1}^{p-1} (i*h) zeta^(i*h-1), h = q/p; push through
    # the rho coordinate change factor (chain rule is a unit times that)
    for tower in (t3, t2):
        n = 1
        q = tower.q(n)
        h = q // tower.p
        coeffs = [0] * tower.phi(n)
        acc = tower.zero(n)
        for i in range(1, tower.p):
            term = [0] * tower.phi(n)
            term[(i * h - 1) % tower.phi(n)] = i * h
            acc = acc + tower.from_int_coeffs(n, term)
        # d/dX of Phi_q(1 +- X) at rho = +-Phi_q'(zeta); valuation is what we
        # pin down here, the sign is absorbed by the unit
        assert tower.valuation(acc) == different(tower, n, "Qp")


# ---------------------------------------------------------------------------
# the d map
# ---------------------------------------------------------------------------


def test_differential_of_uniformizer_is_one(t3, t2):
    for tower in (t3, t2):
        om = differential(tower, tower.uniformizer(1), "K0")
        assert (om.rep - tower.one(1)).is_all_bottom
        assert om.modulus_val == Fraction(1)


def test_differential_kills_base_constants(t3):
    c = t3.embed(t3.rho_power(0, 1) * 7, 2)
    om = differential(t3, c, "K0")
    assert om.is_zero()
    # but d over Q_p does not kill rho_0 in general
    om_qp = differential(t3, t3.embed(t3.uniformizer(0), 1), "Qp")
    assert not om_qp.is_zero()


def test_differential_qp_of_embedded_rho0_is_transition_factor(t3, t2):
    # rho_0 is a degree-p polynomial in rho_1 with integer coefficients, so
    # its Q_p-differential at level 1 is exactly the transition factor
    for tower in (t3, t2):
        om = differential(tower, tower.embed(tower.uniformizer(0), 1), "Qp")
        fac = level_transition_factor(tower, 0, 1)
        assert (om.rep - fac).is_all_bottom


def test_transition_factor_values(t3, t2):
    fac = level_transition_factor(t3, 0, 1)
    assert (fac - t3.from_int_coeffs(1, [0, 0, 3, 0, 0, 0])).is_all_bottom
    fac2 = level_transition_factor(t2, 0, 1)
    assert (fac2 - t2.from_int_coeffs(1, [0, 2, 0, 0])).is_all_bottom
    # p^(m-n) times a unit power of zeta: valuation is exactly m - n
    assert t3.valuation(level_transition_factor(t3, 1, 2)) == Fraction(1)
    assert t2.valuation(level_transition_factor(t2, 1, 3)) == Fraction(2)


@pytest.mark.parametrize("p", sorted(SMALL))
def test_leibniz_rule(p):
    # d(xy) = x dy + y dx on every level over both bases, with no rho
    # transform in the loop: the chain rule alone on zeta-coordinates
    tower = SMALL[p]
    for level in range(tower.max_level + 1):
        for base in BASES:
            for seed in range(10):
                rng = random.Random(1000 * level + seed)
                x, y = tower.random_integral(level, rng), tower.random_integral(level, rng)
                dx = differential(tower, x, base).rep
                dy = differential(tower, y, base).rep
                dxy = differential(tower, tower.mul(x, y), base)
                rhs = tower.mul(x, dy) + tower.mul(y, dx)
                assert dxy.same_class(OmegaClass(level, base, rhs, dxy.modulus_val))


def test_omega_class_modularity(t3):
    rep = t3.one(1)
    noisy = rep + t3.scale_p(t3.random_integral(1, random.Random(3)), 1)
    a = OmegaClass(1, "K0", rep, Fraction(1))
    b = OmegaClass(1, "K0", noisy, Fraction(1))
    assert a.same_class(b)
    c = OmegaClass(1, "K0", rep + t3.uniformizer(1), Fraction(1))
    assert not a.same_class(c)


def test_a_rep_that_vanishes_below_the_modulus_is_refused():
    """1 + O(3) at level 2 has a dx/d(rho) that vanishes at cap 1, below the
    K_0 modulus 2, so its class is not known: the lift 1 + 3 zeta, which cuts
    to it, has a rep of valuation 1 and is not zero."""
    t = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=6))
    cut = differential(t, t.from_int_coeffs(2, [1, 3], 1))
    assert cut.rep.is_all_bottom and cut.rep.cap == 1 < cut.modulus_val == 2
    with pytest.raises(InsufficientPrecision):
        cut.is_zero()
    with pytest.raises(InsufficientPrecision):
        cut.same_class(cut)
    assert not differential(t, t.from_int_coeffs(2, [1, 3], 6)).is_zero()
    # at a cap of at least the modulus a vanishing rep is zero in the class
    assert differential(t, t.from_int_coeffs(2, [1, 3], 2)).rep.cap == 2
    assert differential(t, t.from_int_coeffs(2, [1], 2)).is_zero()


# ---------------------------------------------------------------------------
# base change
# ---------------------------------------------------------------------------


def test_base_change_compare(t3, t2):
    for tower in (t3, t2):
        # the p-exponent killing the kernel of Omega/Q_p -> Omega/K_0
        assert math.ceil(different(tower, 0, "Qp")) == 1
        for x in (
            tower.uniformizer(1),
            tower.zeta(1),
            tower.random_integral(1, random.Random(5)),
            tower.random_integral(2, random.Random(6)),
        ):
            assert base_change_compare(tower, x) is True


# ---------------------------------------------------------------------------
# kernel lattices
# ---------------------------------------------------------------------------


def test_kernel_exponents_frozen(t3, t2):
    assert kernel_lattice(t3, 1, "K0").exps == (0, 2, 2)
    assert kernel_lattice(t3, 2, "K0").exps == (0, 4, 4, 2, 4, 4, 2, 4, 4)
    assert kernel_lattice(t3, 1, "Qp").exps == (0, 2, 2, 1, 1, 1)
    assert kernel_lattice(t2, 1, "K0").exps == (0, 2)
    assert kernel_lattice(t2, 1, "Qp").exps == (0, 2, 1, 2)


def test_kernel_membership_examples(t3):
    ker = kernel_lattice(t3, 1, "K0")
    assert not kernel_contains(t3, ker, t3.uniformizer(1))
    assert kernel_contains(t3, ker, t3.embed(t3.random_integral(0, random.Random(2)), 1))
    # rho_1^2 needs a factor 3; 3 rho_1^2 is in, rho_1^2 is not
    r2 = t3.rho_power(1, 2)
    assert not kernel_contains(t3, ker, r2)
    assert kernel_contains(t3, ker, r2 * 3)


def test_kernel_elements_have_zero_differential(t3, t2):
    for tower, base in ((t3, "K0"), (t3, "Qp"), (t2, "K0"), (t2, "Qp")):
        for seed in (1, 2):
            if base == "K0":
                x = random_kernel_element(tower, 2, random.Random(seed))
            else:
                x = random_kernel_element_oracle(tower, 2, random.Random(seed), base)
            ker = kernel_lattice(tower, 2, base)
            assert kernel_contains(tower, ker, x)
            assert differential(tower, x, base).is_zero()


def test_kernel_is_sharp(t3):
    # dropping any single exponent by one lets an element with nonzero
    # differential through: the bound is attained slotwise
    ker = kernel_lattice(t3, 1, "K0")
    for i in (1, 2):
        a = ker.exps[i] - 1
        coeff = t3.rho_power(0, a % 2) * (3 ** (a // 2))
        x = t3.mul(t3.embed(coeff, 1), t3.rho_power(1, i))
        assert not differential(t3, x, "K0").is_zero()
        assert not kernel_contains(t3, ker, x)


@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("p", sorted(SMALL))
def test_the_kernel_table_is_exactly_ker_d(p, base):
    """Two-sided, at every level and slot: the table admits x exactly when
    dx = 0.  x is a kernel element plus one monomial p^t rho_0^j rho_n^i
    (p^t rho_n^k over Q_p) with t one below, at and one above the table's
    exponent for it, so both verdicts are met at the boundary."""
    tower = SMALL[p]
    d0 = tower.phi(0)
    for level in range(tower.max_level + 1):
        ker = kernel_lattice(tower, level, base)
        rng = random.Random(level)
        if base == "K0":
            x = random_kernel_element(tower, level, rng)
            slots = [(i, j) for i in range(tower.degree(level)) for j in range(d0)]
        else:
            x = random_kernel_element_oracle(tower, level, rng, "Qp")
            slots = [(k, 0) for k in range(tower.phi(level))]
        for i, j in slots:
            r = ker.exps[i]
            if base == "K0":
                # the least t with p^t rho_0^j in rho_0^r O_{K_0}
                exp = max(0, -((j - r) // d0))
                mono = tower.mul(tower.embed(tower.rho_power(0, j), level), tower.rho_power(level, i))
            else:
                exp, mono = r, tower.rho_power(level, i)
            for t in (exp - 1, exp, exp + 1):
                if t < 0:
                    continue
                y = x + tower.scale_p(mono, t)
                admitted = kernel_contains(tower, ker, y)
                assert admitted == differential(tower, y, base).is_zero(), (level, i, j, t)
                assert admitted == (t >= exp), (level, i, j, t)


# ---------------------------------------------------------------------------
# mixed coordinates and lattices
# ---------------------------------------------------------------------------


def coords_to_element(tower, level, vec):
    """The element whose mixed coordinates are vec:
    sum_i (sum_j vec[i * phi(0) + j] rho_0^j) rho_level^i."""
    d0, d = tower.phi(0), tower.degree(level)
    assert len(vec) == d0 * d
    coeffs = [
        tower.from_rho_power_coords(0, *rho_ints(vec[i * d0 : (i + 1) * d0])) for i in range(d)
    ]
    return tower.from_rho_basis(level, coeffs)


def test_mixed_coords_roundtrip(t3, t2):
    for tower in (t3, t2):
        x = tower.random_integral(2, random.Random(9))
        vec = mixed_coords(tower, x)
        assert len(vec) == tower.phi(2)
        back = coords_to_element(tower, 2, vec)
        assert (back - x).is_all_bottom


def mixed_basis_elements(tower, level):
    """The Z_p-basis rho_0^j rho_level^i of O_{K_level} (i outer, j inner) as
    tower products: the oracle for `sublevel_columns`."""
    d0 = tower.phi(0)
    out = []
    for i in range(tower.degree(level)):
        ri = tower.rho_power(level, i)
        for j in range(d0):
            out.append(tower.mul(tower.embed(tower.rho_power(0, j), level), ri))
    return out


def test_sublevel_columns_match_the_product_route(t3, t2):
    # the columns of O_{K_m}, scaled by p^m or not, are byte for byte the
    # expansions of the tower products through the trace-dual basis
    for tower in (*FOLD_TOWERS.values(), t3, t2):
        for n in range(min(3, tower.max_level) + 1):
            for m in range(n + 1):
                cols = sublevel_columns(tower, m, n)
                basis = mixed_basis_elements(tower, m)
                assert len(cols) == len(basis) == tower.phi(m)
                for k in {0, m}:
                    got = [[e.shift(k).to_json() for e in col] for col in cols]
                    want = [
                        [e.to_json() for e in mixed_coords(tower, tower.scale_p(tower.embed(b, n), k))]
                        for b in basis
                    ]
                    assert got == want, (tower.params, m, n, k)


def test_mixed_basis_gives_unit_vectors(t3):
    elts = mixed_basis_elements(t3, 1)
    for idx, b in enumerate(elts):
        vec = mixed_coords(t3, b)
        for k, entry in enumerate(vec):
            if k == idx:
                assert entry == 1
            else:
                assert entry.is_bottom or entry == 0


def test_lattice_basis_solve_and_contains():
    p = 3
    cols = [[scal(p, 1), scal(p, 0)], [scal(p, 0), scal(p, 3)]]
    lat = LatticeBasis.from_generators(p, 2, cols)
    assert lat.rank == 2
    assert lat.contains([scal(p, 1), scal(p, 3)])
    assert lat.contains([scal(p, 5), scal(p, -6)])
    assert not lat.contains([scal(p, 0), scal(p, 1)])
    sol = lat.solve([scal(p, 0), scal(p, 1)], integral=False)
    assert sol is not None and sol[1].valuation() == Fraction(-1)


def test_lattice_reduction_handles_dependent_generators():
    p = 3
    cols = [
        [scal(p, 1), scal(p, 2)],
        [scal(p, 2), scal(p, 4)],
        [scal(p, 0), scal(p, 9)],
    ]
    lat = LatticeBasis.from_generators(p, 2, cols)
    assert lat.rank == 2
    assert lat.contains([scal(p, 0), scal(p, 9)])
    assert not lat.contains([scal(p, 0), scal(p, 3)])


def test_elementary_divisors_frozen():
    p = 3
    cols = [[scal(p, 3), scal(p, 1)], [scal(p, 0), scal(p, 3)]]
    assert elementary_divisor_valuations(p, 2, cols) == [0, 2]
    cols2 = [[scal(p, 9), scal(p, 0)], [scal(p, 0), scal(p, 3)]]
    assert elementary_divisor_valuations(p, 2, cols2) == [1, 2]


def test_commensurability_scaled_lattice():
    p = 3
    eye = [[scal(p, 1), scal(p, 0)], [scal(p, 0), scal(p, 1)]]
    three = [[scal(p, 3), scal(p, 0)], [scal(p, 0), scal(p, 3)]]
    assert commensurability_check(p, 2, eye, three) == (1, 0)
    assert commensurability_check(p, 2, three, eye) == (0, 1)
    assert commensurability_check(p, 2, eye, eye) == (0, 0)


def test_layer_sum_matches_kernel_low_levels(t3, t2):
    for tower in (t3, t2):
        for n in (1, 2):
            dim = tower.phi(n)
            ker = kernel_mixed_columns(tower, kernel_lattice(tower, n, "K0"))
            lay = layer_sum_columns(tower, n)
            assert commensurability_check(tower.p, dim, ker, lay) == (0, 0)


def test_layer_sum_contains_scaled_layer(t3):
    lay = LatticeBasis.from_generators(3, t3.phi(1), layer_sum_columns(t3, 1))
    x = t3.scale_p(t3.random_integral(1, random.Random(21)), 1)
    assert lay.contains(mixed_coords(t3, x))
    assert not lay.contains(mixed_coords(t3, t3.uniformizer(1)))


# ---------------------------------------------------------------------------
# divisibility exponents
# ---------------------------------------------------------------------------


def test_divisibility_of_uniformizer_differential(t3):
    x = t3.uniformizer(1)
    for m in (1, 2, 3):
        assert divisibility_exponent(t3, x, m) == 0


def test_divisibility_downward_membership(t3):
    # rho_2 is not congruent to a level-1 element modulo the kernel
    assert divisibility_exponent(t3, t3.uniformizer(2), 1) == -1
    # an embedded level-1 element is, at exponent 0 but not 1
    x = t3.embed(t3.uniformizer(1), 2)
    assert divisibility_exponent(t3, x, 1) == 0
    assert divisibility_exponent(t3, x, 2) == 0


def test_divisibility_of_scaled_element(t3):
    # 9 rho_1 has differential 9 d(rho_1), valuation 3 >= the modulus at
    # m = 2, so its class is zero and every exponent works; it also sits in
    # the kernel lattice, so the downward test is unbounded as well
    x9 = t3.embed(t3.uniformizer(1), 2) * 9
    assert divisibility_exponent(t3, x9, 2) is None
    assert divisibility_exponent(t3, x9, 1) is None
    # 3 rho_2 has d = 3 d(rho_2): divisible by p exactly once below the cap
    x = t3.uniformizer(2) * 3
    assert divisibility_exponent(t3, x, 2) == 1
    assert divisibility_exponent(t3, x, 3) == 1


def test_divisibility_of_kernel_element_is_unbounded(t3):
    x = random_kernel_element(t3, 2, random.Random(4))
    assert divisibility_exponent(t3, x, 2) is None
    assert divisibility_exponent(t3, x, 1) is None


def divisibility_exponent_oracle(tower, x, m):
    """The downward search with its old, guessed bound: membership of x in
    p^i O_{K_m} + ker(d) tried for i up to m + 8, and None when it holds
    through them all."""
    ker_cols = kernel_mixed_columns(tower, kernel_lattice(tower, x.level, "K0"))
    base_cols = sublevel_columns(tower, m, x.level)
    xvec = mixed_coords(tower, x)
    last_ok = -1
    for i in range(m + 9):
        cols = [[e.shift(i) for e in col] for col in base_cols] + ker_cols
        if not LatticeBasis.from_generators(tower.p, len(xvec), cols).contains(xvec):
            return last_ok
        last_ok = i
    return None


def test_the_downward_search_ends_at_m(t3, t2):
    """p^m O_{K_m} lies in ker(d), so the search over i <= m answers as the
    search up to m + 8 did, and every finite answer is below m.  x is a
    kernel element plus p^i y, y in O_{K_m} with i up to m + 1, or y in
    O_{K_level} with i = 0."""
    answers = set()
    for tower in (t3, t2, *SMALL.values()):
        for lev in range(1, tower.max_level + 1):
            for m in range(lev):
                for where, i in [(m, i) for i in range(m + 2)] + [(lev, 0)]:
                    rng = random.Random(f"{tower.params} {lev} {m} {where} {i}")
                    y = tower.embed(tower.random_integral(where, rng), lev)
                    x = random_kernel_element(tower, lev, rng) + tower.scale_p(y, i)
                    got = divisibility_exponent(tower, x, m)
                    assert got == divisibility_exponent_oracle(tower, x, m), (tower.params, lev, m)
                    assert got is None or got < m
                    answers.add(got)
    assert answers == {None, -1, 0, 1}


def test_a_divisibility_that_unknown_digits_could_move_is_refused():
    """1 + O(3) at level 2 of (3,1,2,6): its rho coefficients above slot 0
    vanish at cap 1, and so does dx, yet the lifts 1 + 3 zeta at caps 2 and 6
    give -1 at m = 0 and 1 (lattice branch) and 1 at m = 2 (coefficients)."""
    t = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=6))
    x = t.from_int_coeffs(2, [1, 3], 1)
    for cap in (2, 6):
        lift = t.from_int_coeffs(2, [1, 3], cap)
        assert t.truncate(lift, 1).to_json() == x.to_json()
        assert [divisibility_exponent(t, lift, m) for m in (0, 1, 2)] == [-1, -1, 1]
    for m in (0, 1, 2):
        with pytest.raises(InsufficientPrecision):
            divisibility_exponent(t, x, m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2**32), st.data())
def test_a_reported_divisibility_exponent_holds_for_every_lift(p, seed, data):
    """x is a kernel element plus p^i y, y from some level, cut to a cap of at
    most 3 (the tower levels reach 2, so higher caps leave dx known); the
    lifts agree with x at that cap."""
    tower = SMALL[p]
    lev = data.draw(st.integers(1, tower.max_level))
    m = data.draw(st.integers(0, tower.max_level))
    rng = random.Random(seed)
    y = tower.embed(tower.random_integral(data.draw(st.integers(0, lev)), rng), lev)
    full = random_kernel_element(tower, lev, rng) + tower.scale_p(y, data.draw(st.integers(0, 2)))
    cap = data.draw(st.integers(1, min(full.cap, 3)))
    x = tower.truncate(full, cap)
    try:
        got = divisibility_exponent(tower, x, m)
    except InsufficientPrecision:
        return
    for lift in (full, x + tower.scale_p(tower.random_integral(lev, rng), cap)):
        assert tower.truncate(lift, cap).to_json() == x.to_json()
        assert divisibility_exponent(tower, lift, m) == got, (tower.params, lev, m, cap)


# ---------------------------------------------------------------------------
# flat decomposition
# ---------------------------------------------------------------------------


def test_flat_decompose_shape_and_margins(t3):
    x = random_kernel_element(t3, 3, random.Random(17))
    dec = flat_decompose(t3, x, 2)
    assert len(dec.parts) == 1
    assert dec.parts[0].level == 3
    assert dec.tail.level == 2
    assert all(m >= 0 for m in dec.margins)
    total = t3.embed(dec.tail, 3)
    for y in dec.parts:
        total = total + t3.embed(y, 3)
    assert (total - x).is_all_bottom


def test_flat_decompose_two_steps(t3):
    x = random_kernel_element(t3, 3, random.Random(23))
    dec = flat_decompose(t3, x, 1)
    assert [y.level for y in dec.parts] == [3, 2]
    assert all(m >= 0 for m in dec.margins)


def test_a_vanishing_part_claims_no_margin_beyond_its_cap():
    """A part that vanishes at its cap c is only known to have val >= c, so
    its margin is c - need.  3^5 x cut to 5 digits is all bottom, and the
    lift 3^5 x, which cuts to it, has margins (163/27, 109/18)."""
    t = CyclotomicTower(TowerParams(p=3, s=1, max_level=3, prec=20))
    lift = t.scale_p(random_kernel_element(t, 3, random.Random(0)), 5)
    z = t.truncate(lift, 5)
    assert z.is_all_bottom
    margins = flat_decompose(t, z, 1).margins
    assert margins == (3, 4)  # cap - need for the parts at levels 3 and 2
    assert all(m <= m_lift for m, m_lift in zip(margins, flat_decompose(t, lift, 1).margins))


def test_flat_decompose_preconditions(t3):
    with pytest.raises(DomainError):
        flat_decompose(t3, t3.uniformizer(3), 2)  # not in the kernel
    with pytest.raises(DomainError):
        flat_decompose(t3, random_kernel_element(t3, 2, random.Random(1)), 2)


def test_modulus_valuation_table(t3, t2):
    assert modulus_valuation(t3, 2, "K0") == 2
    assert modulus_valuation(t3, 2, "Qp") == Fraction(5, 2)
    assert modulus_valuation(t2, 3, "Qp") == Fraction(4)


# ---------------------------------------------------------------------------
# sums over rho powers against the loops they replaced
# ---------------------------------------------------------------------------


def differential_oracle(tower, x, base, level):
    """The rep of dx by Horner's rule on the derivative coefficients, from a
    zero at the working precision."""
    x = tower.embed(x, level)
    acc = tower.zero(level)
    if base == "K0":
        c = tower.to_rho_basis(x)
        for i in range(len(c) - 1, 0, -1):
            acc = mul_rho_oracle(tower, acc) + tower.embed(c[i] * i, level)
    else:
        a = tower.rho_power_coords(x)
        for k in range(len(a) - 1, 0, -1):
            acc = mul_rho_oracle(tower, acc) + tower.constant(level, a[k] * k)
    return acc


def different_qp_oracle(tower, level):
    """g'(rho) over Q_p by Horner's rule on k g_k."""
    g = minimal_polynomial_qp(tower, level)
    acc = tower.zero(level)
    for k in range(len(g) - 1, 0, -1):
        acc = mul_rho_oracle(tower, acc) + tower.constant(level, k * g[k])
    return acc


def random_kernel_element_oracle(tower, level, rng, base):
    """The random kernel element as a sum of tower products of the lattice
    generators, drawing in the same order."""
    ker = kernel_lattice(tower, level, base)
    p, prec, d0 = tower.p, tower.prec, tower.phi(0)
    acc = tower.zero(level)
    if base == "K0":
        for i in range(tower.degree(level)):
            r = ker.exps[i]
            for j in range(d0):
                a = max(0, -((j - r) // d0))
                c = rng.randrange(p ** (prec - a))
                term = tower.embed(tower.rho_power(0, j), level) * (c * p ** a)
                acc = acc + tower.mul(term, tower.rho_power(level, i))
        return acc
    for k in range(tower.phi(level)):
        c = rng.randrange(p ** (prec - ker.exps[k]))
        acc = acc + tower.rho_power(level, k) * (c * p ** ker.exps[k])
    return acc


@settings(max_examples=150, deadline=None)
@given(rho_sum_elements(), st.sampled_from(BASES), st.integers(0, 1))
def test_differential_matches_horner_byte_for_byte(case, base, up):
    # caps above the working precision are cut to it, as the zero that
    # Horner's rule starts from cuts them
    tower, x = case
    level = min(tower.max_level, x.level + up)
    got = differential(tower, tower.embed(x, level), base).rep
    assert got.to_json() == differential_oracle(tower, x, base, level).to_json()
    assert got.cap <= tower.prec


@pytest.mark.parametrize(
    "call",
    [
        lambda t: t.minpoly_derivative_at_rho(-1),
        lambda t: t.minpoly_derivative_at_rho(-1, over_qp=True),
        lambda t: different(t, -1, "K0"),
        lambda t: different(t, -1, "Qp"),
        lambda t: sublevel_columns(t, -1, 1),
        lambda t: galois_defect_cell(t, -1, 1),
    ],
    ids=["minpoly-K0", "minpoly-Qp", "different-K0", "different-Qp", "sublevel", "c3-cell"],
)
def test_a_negative_level_raises_domain_error(t3, call):
    # each of these once formed p^level, a float, before any level check
    with pytest.raises(DomainError):
        call(t3)


@pytest.mark.parametrize(
    "call",
    [
        lambda t: different(t, 1, "Zp"),
        lambda t: differential(t, t.uniformizer(1), "Zp"),
        lambda t: kernel_lattice(t, 1, "Zp"),
        lambda t: modulus_valuation(t, 1, "Zp"),
    ],
    ids=["different", "differential", "kernel_lattice", "modulus_valuation"],
)
def test_an_unknown_base_raises_domain_error(t3, call):
    # "Zp" is no base here: it must not be read as K_0
    with pytest.raises(DomainError, match="base must be one of"):
        call(t3)


def test_different_matches_horner_byte_for_byte(t3, t2):
    for tower in (*SMALL.values(), t3, t2):
        for level in range(tower.max_level + 1):
            got = tower.minpoly_derivative_at_rho(level, over_qp=True)
            assert got.to_json() == different_qp_oracle(tower, level).to_json()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2 ** 32), st.data())
def test_random_kernel_element_matches_the_product_loops(p, seed, data):
    tower = SMALL[p]
    level = data.draw(st.integers(0, tower.max_level))
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(2):
        got = random_kernel_element(tower, level, rng)
        want = random_kernel_element_oracle(tower, level, oracle_rng, "K0")
        assert got.to_json() == want.to_json()
        assert rng.getstate() == oracle_rng.getstate()


def test_random_kernel_element_matches_the_product_loops_at_depth(t3, t2):
    for tower in (t3, t2):
        rng, oracle_rng = random.Random("K0"), random.Random("K0")
        got = random_kernel_element(tower, 3, rng)
        want = random_kernel_element_oracle(tower, 3, oracle_rng, "K0")
        assert got.to_json() == want.to_json()
        assert rng.getstate() == oracle_rng.getstate()


def flat_decompose_oracle(tower, x, n1):
    """(parts, tail) as sums of tower products c * rho^j, skipping the
    coefficients that are zero at their cap."""
    n, p = x.level, tower.p
    xc = tower.to_rho_basis(x)

    def term(c, lev, j):
        return tower.mul(tower.embed(c, lev), tower.rho_power(lev, j))

    parts = []
    for k in range(1, n - n1 + 1):
        lev = n - k + 1
        y = tower.zero(lev)
        for j in range(1, p ** lev):
            c = xc[p ** (k - 1) * j]
            if j % p and not c.is_all_bottom:
                y = y + term(c, lev, j)
        for ell in range(p ** (lev - 1)):
            c = xc[p ** k * ell]
            if not c.is_all_bottom:
                bridge = tower.rho_power(lev, p * ell) - tower.embed(
                    tower.rho_power(lev - 1, ell), lev
                )
                y = y + tower.mul(tower.embed(c, lev), bridge)
        parts.append(y)
    tail = tower.zero(n1)
    for ell in range(p ** n1):
        c = xc[p ** (n - n1) * ell]
        if not c.is_all_bottom:
            tail = tail + term(c, n1, ell)
    return parts, tail


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(sorted(SMALL)),
    st.integers(0, 2 ** 32),
    st.sampled_from(("full", "truncated", "p-scaled")),
    st.data(),
)
def test_flat_decompose_matches_the_product_loops(p, seed, kind, data):
    tower = SMALL[p]
    level = data.draw(st.integers(1, tower.max_level))
    n1 = data.draw(st.integers(0, level - 1))
    x = random_kernel_element(tower, level, random.Random(seed))
    if kind == "truncated":
        x = tower.truncate(x, data.draw(st.integers(1, tower.prec - 1)))
    elif kind == "p-scaled":
        x = tower.scale_p(x, data.draw(st.integers(1, 3)))
    if x.cap < level:
        # dx vanishes at a cap below the K_0 modulus: x is not known to lie in ker d
        with pytest.raises(InsufficientPrecision):
            flat_decompose(tower, x, n1)
        return
    dec = flat_decompose(tower, x, n1)
    parts, tail = flat_decompose_oracle(tower, x, n1)
    # the loops skip a coefficient that is zero at its cap, the transform
    # reads it: only then may the transform claim less than the loops
    skipped = any(c.is_all_bottom for c in tower.to_rho_basis(x))
    for got, want in zip((*dec.parts, dec.tail), (*parts, tail)):
        assert got == want
        assert all(g.prec <= w.prec for g, w in zip(got.coeffs, want.coeffs))
        if not skipped:
            assert got.to_json() == want.to_json()


def echelon_oracle(p, int_columns, digits):
    """`echelon` as a full scan: every round reads the valuation of every
    entry in the unused rows, and eliminates entry by entry."""
    mod = p ** digits
    work = [[e % mod for e in col] for col in int_columns]
    used = set()
    reduced, pivots = [], []
    while work:
        best = None  # (val, row, column index)
        for ci, col in enumerate(work):
            for r, entry in enumerate(col):
                if entry == 0 or r in used:
                    continue
                v = vp(entry, p)
                if best is None or (v, r) < best[:2]:
                    best = (v, r, ci)
        if best is None:
            break
        v, r, ci = best
        pivot = work.pop(ci)
        pv = p ** v
        unit_inv = pow(pivot[r] // pv, -1, mod)
        pivot = [e * unit_inv % mod for e in pivot]
        for other in work:
            if other[r] == 0:
                continue
            f = other[r] // pv
            for i, e in enumerate(pivot):
                if e:
                    other[i] = (other[i] - f * e) % mod
        reduced.append(pivot)
        pivots.append((r, v))
        used.add(r)
    return reduced, pivots


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(1, 6), st.integers(0, 6), st.data())
def test_echelon_matches_the_full_scan_oracle(p, rows, cols, data):
    # random shapes, entries of every valuation, zero columns, and matrices
    # with no unit entry at all (scaled by p^lift)
    digits = data.draw(st.integers(1, 8))
    lift = data.draw(st.sampled_from([0, 0, 1, 3]))
    powers = st.builds(lambda v: p ** v, st.integers(0, 9))
    entry = st.one_of(st.just(0), st.integers(0, p ** 10), powers)
    matrix = []
    for _ in range(cols):
        col = data.draw(st.lists(entry, min_size=rows, max_size=rows))
        zero = data.draw(st.integers(0, 3)) == 0
        matrix.append([0 if zero else p ** lift * e for e in col])
    assert echelon(p, matrix, digits) == echelon_oracle(p, matrix, digits)
