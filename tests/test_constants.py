import math
from fractions import Fraction

import pytest

from cyclodiff.differentials import differential, echelon
from cyclodiff.errors import InsufficientPrecision
from cyclodiff.padic import vp
from cyclodiff.tower import CyclotomicTower, TowerParams
from cyclodiff.constants import (
    cell_rng,
    different_drift,
    estimate_constants,
    galois_defect_cell,
    kernel_shift,
    norm_cells,
    norm_congruence_cell,
    norm_witness_value,
    one_minus_galois_matrix,
    perp_basis_indices,
    trace_bound_cell,
)
from test_sweep import TOWERS as SWEEP_TOWERS


@pytest.fixture(scope="module")
def t3():
    return CyclotomicTower(TowerParams(p=3, s=1, max_level=3, prec=24))


@pytest.fixture(scope="module")
def t2():
    return CyclotomicTower(TowerParams(p=2, s=2, max_level=3, prec=24))


@pytest.fixture(scope="module")
def rep3(t3):
    return estimate_constants(t3, seed=0, samples=40)


@pytest.fixture(scope="module")
def rep2(t2):
    return estimate_constants(t2, seed=0, samples=40)


def test_different_drift_is_zero(t3, t2):
    for tower in (t3, t2):
        a, b, drifts = different_drift(tower)
        assert a == 0 and b == 0
        assert all(d == 0 for d in drifts)


def test_norm_congruence_witness(t3, t2):
    assert norm_witness_value(t3) == Fraction(2, 3)
    assert norm_witness_value(t2) == Fraction(3, 4)


def test_norm_congruence_cells_frozen(rep3):
    values = dict(rep3.c_norm_cells)
    assert values[(0, 1)] == Fraction(2, 3)
    assert values[(1, 1)] == Fraction(8, 9)
    assert values[(2, 1)] == Fraction(26, 27)
    # deeper norms never drop below the one-step floor
    assert values[(0, 2)] == Fraction(2, 3)
    assert values[(0, 3)] == Fraction(2, 3)


def test_report_values_p3(rep3):
    assert rep3.a == 0 and rep3.b == 0
    assert rep3.c_norm == Fraction(2, 3)
    assert rep3.c_norm_witness == Fraction(2, 3)
    assert rep3.m_c == 0
    assert rep3.c2_star == 0
    assert rep3.c3_star == 1
    assert rep3.n_0 == 0
    assert rep3.n_1 == 2
    assert rep3.nopdiv_bound() == 2


def test_report_values_p2(rep2):
    assert rep2.c_norm == Fraction(3, 4)
    assert rep2.m_c == 1
    assert rep2.c2_star == 0
    assert rep2.c3_star == 1
    assert rep2.n_0 == 0
    assert rep2.n_1 == 3


def test_reports_are_deterministic(t3, rep3):
    again = estimate_constants(t3, seed=0, samples=40)
    assert again == rep3
    # a different seed still measures the same exact constants here, but the
    # cells are re-sampled; the invariant worth pinning is reproducibility
    assert cell_rng(0, "fonemb", 1, 1).random() == cell_rng(0, "fonemb", 1, 1).random()
    assert cell_rng(0, "fonemb", 1, 1).random() != cell_rng(1, "fonemb", 1, 1).random()


def test_norm_cells_enumeration(t3):
    cells = norm_cells(t3)
    assert (0, 3) in cells and (2, 1) in cells
    assert all(n + k <= 3 and k >= 1 for n, k in cells)


def test_trace_bound_cells_are_zero(t3):
    assert trace_bound_cell(t3, 0, 1) == 0
    assert trace_bound_cell(t3, 1, 2) == 0


def test_perp_basis_indices(t3, t2):
    assert perp_basis_indices(t3, 1) == [1, 2, 4, 5]
    assert perp_basis_indices(t2, 1) == [1, 3]


def test_one_minus_galois_matrix_frozen(t3):
    indices, cols = one_minus_galois_matrix(t3, 0, 1)
    assert indices == [1, 2, 4, 5]
    _, pivots = echelon(3, cols, 20)
    assert sorted(v for _, v in pivots) == [0, 0, 1, 1]  # determinant valuation 2
    assert galois_defect_cell(t3, 0, 1) == 1


def one_minus_galois_oracle(tower, n, m):
    """The columns of 1 - g_n on the perp basis of level m, each image
    g_n(zeta^j) rewritten by its row of the cyclotomic relation."""
    q, h, phi = tower.q(m), tower.h(m), tower.phi(m)
    indices = perp_basis_indices(tower, m)
    g = tower.layer_generator(n, m)
    cols = []
    for j in indices:
        dense = [0] * phi
        dense[j] = 1
        t = g.unit * j % q
        if t < phi:
            dense[t] -= 1
        else:
            for i in range(tower.p - 1):
                dense[t - phi + i * h] += 1
        assert all(dense[slot] == 0 for slot in range(phi) if slot not in indices)
        cols.append([dense[slot] for slot in indices])
    return indices, cols


@pytest.mark.parametrize("p, s, levels", [(2, 2, 3), (3, 1, 3), (5, 1, 2)])
def test_one_minus_galois_matrix_matches_the_plan_rows(p, s, levels):
    tower = CyclotomicTower(TowerParams(p=p, s=s, max_level=levels, prec=12))
    for n, k in norm_cells(tower):
        assert one_minus_galois_matrix(tower, n, n + k) == one_minus_galois_oracle(tower, n, n + k)


def test_echelon_smith_examples():
    def divisors(cols, digits):
        return [v for _, v in echelon(3, cols, digits)[1]]

    # pivots come out scaled to exactly p^val, their rows cleared elsewhere
    assert echelon(3, [[3, 1], [0, 3]], 10) == ([[3, 1], [9, 0]], [(1, 0), (0, 2)])
    assert divisors([[9, 0], [0, 3]], 10) == [1, 2]
    assert echelon(3, [[3 ** 12]], 4) == ([], [])  # vanishes mod p^4: rank shortfall


def test_galois_defect_cell_rejects_a_rank_shortfall(t3, monkeypatch):
    monkeypatch.setattr(
        "cyclodiff.constants.one_minus_galois_matrix", lambda *args: ([1], [[3 ** 30]])
    )
    with pytest.raises(InsufficientPrecision):
        galois_defect_cell(t3, 0, 1)


def kernel_shift_oracle(tower):
    """n_0 by the monomial loop: the least c >= 0 with c + v_p(i) + j/e_0 +
    (i-1)/e_n >= 0 over the monomials rho_0^j rho_n^i, i >= 1, of every
    level, as the chain rule reduces it."""
    e0 = tower.phi(0)
    worst = Fraction(0)
    for n in range(tower.max_level + 1):
        for i in range(1, tower.degree(n)):
            for j in range(e0):
                worst = min(worst, vp(i, tower.p) + Fraction(j, e0) + Fraction(i - 1, tower.phi(n)))
    return max(0, math.ceil(-worst))


def test_kernel_shift_zero(t3, t2):
    sweep = [
        CyclotomicTower(TowerParams(p=p, s=2 if p == 2 else 1, max_level=levels, prec=prec))
        for p, levels, prec in SWEEP_TOWERS
    ]
    for tower in (t3, t2, *sweep):
        assert kernel_shift(tower) == kernel_shift_oracle(tower) == 0
        # n_0 = 0 says p^n kills d on O_{K_n}: every monomial, through d itself
        for n in range(tower.max_level + 1):
            for i in range(tower.degree(n)):
                for j in range(tower.phi(0)):
                    mono = tower.mul(tower.embed(tower.rho_power(0, j), n), tower.rho_power(n, i))
                    assert differential(tower, tower.scale_p(mono, n), "K0").is_zero(), (n, i, j)


def test_norm_congruence_cell_direct(t3):
    assert norm_congruence_cell(t3, 0, 1, seed=5, samples=10) == Fraction(2, 3)


# ---------------------------------------------------------------------------
# the precision ladder of norm_congruence_cell
# ---------------------------------------------------------------------------


def full_precision_cell(tower, n, k, seed, samples):
    """The norm cell with every element evaluated at full precision: the
    oracle the ladder must match."""
    m = n + k
    deg = tower.p ** k
    rng = cell_rng(seed, "fonemb", n, k)
    best = None

    def consider(x, val_x):
        nonlocal best
        diff = tower.embed(tower.norm_down(x, n), m) - tower.power(x, deg)
        if diff.is_all_bottom:
            return
        v = tower.valuation(diff) - deg * val_x
        if best is None or v < best:
            best = v

    for i in range(tower.phi(m)):
        consider(tower.rho_power(m, i), Fraction(i, tower.phi(m)))
    for _ in range(samples):
        consider(tower.random_unit(m, rng), Fraction(0))
    return best


LADDER_TOWERS = [(2, 2, 3, 12), (3, 1, 2, 12), (3, 1, 3, 24), (5, 1, 2, 10), (7, 1, 1, 10)]


@pytest.mark.parametrize("p, s, levels, prec", LADDER_TOWERS)
def test_norm_ladder_matches_the_full_precision_oracle(p, s, levels, prec):
    tower = CyclotomicTower(TowerParams(p=p, s=s, max_level=levels, prec=prec))
    for seed in range(3):
        for n, k in norm_cells(tower):
            want = full_precision_cell(tower, n, k, seed, 8)
            assert norm_congruence_cell(tower, n, k, seed, 8) == want, (seed, n, k)


@pytest.mark.parametrize("prec", [24, 6])
def test_norm_ladder_starts_at_8_digits_and_climbs_on_bottom(monkeypatch, prec):
    # value checks cannot see a ladder that takes an all-bottom rung for "no
    # constraint"; the caps handed to norm_down can, split per element by
    # markers from the draws. Basis elements start at min(8, prec); a sample
    # unit starts at the floor set so far, rounded up
    tower = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=prec))
    samples = 5
    # the floor before sample i: the oracle over the basis and i samples
    floors = [full_precision_cell(tower, 0, 1, 0, i) for i in range(samples)]
    events = []
    rho_power, random_unit, norm_down = tower.rho_power, tower.random_unit, tower.norm_down

    def marking(draw, kind):
        def wrapped(*args):
            events.append(kind)
            return draw(*args)

        return wrapped

    def recording(x, level):
        events.append(x.cap)
        return norm_down(x, level)

    monkeypatch.setattr(tower, "rho_power", marking(rho_power, "basis"))
    monkeypatch.setattr(tower, "random_unit", marking(random_unit, "unit"))
    monkeypatch.setattr(tower, "norm_down", recording)
    norm_congruence_cell(tower, 0, 1, seed=0, samples=samples)
    climbs = []
    for event in events:
        if isinstance(event, str):
            climbs.append((event, []))
        else:
            climbs[-1][1].append(event)
    assert [kind for kind, _ in climbs] == ["basis"] * tower.phi(1) + ["unit"] * samples
    units = iter(floors)
    for kind, caps in climbs:
        start = min(8, prec) if kind == "basis" else min(max(1, math.ceil(next(units))), prec)
        assert caps[0] == start, (kind, caps)
        for before, cap in zip(caps, caps[1:]):
            assert cap == min(2 * before, prec)
    # x = rho^0 = 1: N(1) - 1^p is exactly zero, bottom on every rung
    assert climbs[0][1] == ([8, 16, 24] if prec == 24 else [6])


@pytest.mark.parametrize("p, levels, prec", [*SWEEP_TOWERS, (2, 6, 8), (11, 1, 6)])
def test_the_constants_take_their_closed_forms(p, levels, prec):
    """Every cell of the sweep towers, of p = 2 at 6 levels and of p = 11.

    c_norm(n, k) = 1 - p^-(n+s), so c_norm = 1 - p^-s.  For m = n + k and deg
    = p^k put u = N(rho_m) / rho_m^deg, a unit.  Basis rung i measures
    val(u^i - 1), and u^i - 1 = (u - 1)(1 + u + ... + u^(i-1)) with an
    integral second factor, so rung 1 is the basis minimum.  A unit's rung is
    at least 1, as N(x) = x^deg mod p (Coleman).  Rung 1 is 1 - p^-(n+s) (a
    sketch: N(zeta_m - 1) = +-(zeta_n - 1), and (1 + rho_(n+1))^p = 1 + rho_n
    gives val(rho_m^deg -+ rho_n) = 1 + val(rho_(n+1)), which less deg
    val(rho_m) = 1/phi(n) is 1 - p^-(n+s)); it is below 1, so it is the cell.

    c_2(n, k) = 0: R_n and its perp complement are coordinate masks on the
    zeta basis, so every image of a basis element is integral.

    c_3(n, k) = 1, a = b = 0 (so every drift is 0), n_0 = 0, m_c = 1 at
    p = 2 and 0 otherwise, and n_1 = 2 + m_c are observed values, not
    closed forms proved here."""
    s = 2 if p == 2 else 1
    tower = CyclotomicTower(TowerParams(p=p, s=s, max_level=levels, prec=prec))
    rep = estimate_constants(tower, seed=0, samples=4)
    cells = norm_cells(tower)
    assert rep.c_norm_cells == tuple(((n, k), 1 - Fraction(1, p ** (n + s))) for n, k in cells)
    assert rep.c_norm == rep.c_norm_witness == 1 - Fraction(1, p**s)
    assert rep.c2_cells == tuple((cell, 0) for cell in cells) and rep.c2_star == 0
    # observed, not proved
    assert rep.c3_cells == tuple((cell, 1) for cell in cells) and rep.c3_star == 1
    assert (rep.a, rep.b, rep.drifts) == (0, 0, (0,) * (levels + 1))
    assert (rep.n_0, rep.m_c, rep.n_1) == (0, int(p == 2), 2 + int(p == 2))
