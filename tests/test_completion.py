import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cyclodiff.errors import InsufficientPrecision, ValuationOfZero
from cyclodiff.tower import CyclotomicTower, TowerParams
from cyclodiff.completion import (
    PerpSeries,
    flatness_test,
    layered_sum_membership,
    perp_margins,
    perp_series_decompose,
    perp_series_from_json,
    series_invert,
    series_reconstruct,
    w2_valuation,
)
from test_tower import SMALL


@pytest.fixture(scope="module")
def t3():
    return CyclotomicTower(TowerParams(p=3, s=1, max_level=3, prec=24))


@pytest.fixture(scope="module")
def t2():
    return CyclotomicTower(TowerParams(p=2, s=2, max_level=3, prec=24))


def test_perp_series_of_zeta9(t3):
    ps = perp_series_decompose(t3, t3.zeta(1))
    assert ps.level == 1 and len(ps.components) == 2
    assert ps.components[0].is_all_bottom  # the trace of zeta_9 vanishes
    assert (ps.components[1] - t3.zeta(1)).is_all_bottom


def test_series_reconstruct_exact(t3, t2):
    for tower in (t3, t2):
        for lev in (1, 2, 3):
            x = tower.random_integral(lev, random.Random(40 + lev))
            ps = perp_series_decompose(tower, x)
            assert (series_reconstruct(tower, ps) - x).is_all_bottom


def test_series_invert_roundtrip(t3):
    x = t3.one(1) + t3.uniformizer(1)
    inv = series_invert(t3, perp_series_decompose(t3, x))
    prod = t3.mul(series_reconstruct(t3, inv), x)
    assert (prod - t3.one(1)).is_all_bottom


def test_w2_of_zeta9_is_minus_one(t3):
    assert w2_valuation(t3, t3.zeta(1)) == -1


def test_w2_shifts_under_p_scaling(t3):
    x = t3.random_integral(2, random.Random(51))
    w = w2_valuation(t3, x)
    assert w2_valuation(t3, t3.scale_p(x, 2)) == w + 2


def test_w2_of_zero_raises(t3):
    with pytest.raises(ValuationOfZero):
        w2_valuation(t3, t3.zero(2))


def test_a_component_that_vanishes_below_the_minimum_is_refused():
    """3^5 + O(3^6) at level 2 has a level-0 margin of 5, and its level-2
    component vanishes at cap 6, so that margin is only known to be >= 4.
    The lift 3^5 + 3^6 zeta at cap 12 cuts to it and has w2 4."""
    t = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=6))
    x = t.from_int_coeffs(2, [3**5], 6)
    lift = t.from_int_coeffs(2, [3**5, 3**6], 12)
    assert t.truncate(lift, 6).to_json() == x.to_json()
    assert w2_valuation(t, lift) == 4
    with pytest.raises(InsufficientPrecision):
        w2_valuation(t, x)
    with pytest.raises(InsufficientPrecision):
        perp_series_decompose(t, x).to_json()


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2**32), st.data())
def test_a_reported_decay_margin_holds_for_every_lift(p, seed, data):
    # x is a sum of perp components, some absent and some scaled by p^k, cut
    # to a cap below the working precision, so that some components vanish
    # at the cap; y and y + p^cap z are lifts of x to the working precision
    tower = SMALL[p]
    level = data.draw(st.integers(1, tower.max_level))
    rng = random.Random(seed)
    y = tower.zero(level)
    for n in range(level + 1):
        k = data.draw(st.sampled_from((None, 0, 1, 2, 3)))
        if k is not None:
            comp = tower.perp_project(tower.random_integral(n, rng), n)
            y = y + tower.embed(tower.scale_p(comp, k), level)
    cap = data.draw(st.integers(1, tower.prec - 1))
    x = tower.truncate(y, cap)
    try:
        margin = perp_series_decompose(tower, x).decay_margin()
    except InsufficientPrecision:
        return
    if margin is None:
        return
    for lift in (y, y + tower.scale_p(tower.random_integral(level, rng), cap)):
        assert tower.truncate(lift, cap).to_json() == x.to_json()
        assert perp_series_decompose(tower, lift).decay_margin() == margin


def test_component_valuations_shape(t3):
    # rho_2 = zeta_27 - 1 splits as -1 (level 0) + zeta_27 (level 2),
    # nothing new at level 1
    series = perp_series_decompose(t3, t3.uniformizer(2))
    assert perp_margins(t3, series.components) == [0, None, -2]


def test_layered_sum_member_positive(t3, t2):
    # an honest layered sum must pass at slack 0 with margins >= 0
    for tower in (t3, t2):
        rng = random.Random(61)
        x = tower.zero(3)
        for n in range(4):
            x = x + tower.scale_p(tower.embed(tower.random_integral(n, rng), 3), n)
        verdict = layered_sum_membership(tower, x)
        assert verdict.slack_needed == 0
        assert all(m is None or m >= 0 for m in verdict.margins)


def test_layered_sum_rejects_zeta9(t3):
    x = t3.embed(t3.zeta(1), 2)
    verdict = layered_sum_membership(t3, x)
    assert verdict.slack_needed != 0
    # level 1 fails, by exactly the slack it needs
    assert verdict.margins == (None, -1, None)
    assert verdict.slack_needed == 1
    # scaling by p repairs membership outright
    assert layered_sum_membership(t3, x * 3).slack_needed == 0


def test_layered_sum_slack_rounds_a_fractional_margin_up(t3):
    # rho_0 zeta_1 falls short of level 1 by half a unit: margin -1/2 needs
    # slack 1, and rounding it down would call x a member at slack 0
    x = t3.uniformizer(0) * t3.zeta(1)
    verdict = layered_sum_membership(t3, x)
    assert verdict.margins == (None, Fraction(-1, 2))
    assert verdict.slack_needed == 1


def test_series_decay_margin_and_certification(t3):
    ps = perp_series_decompose(t3, t3.zeta(1))
    assert ps.decay_margin() == Fraction(-1)
    assert ps.certify_perpendicular()
    blob = ps.to_json()
    assert blob["decay_margin"] == "-1"
    assert blob["perp_certified"] is True
    back = perp_series_from_json(t3, blob)
    assert (series_reconstruct(t3, back) - t3.zeta(1)).is_all_bottom


def test_decompose_uniqueness_under_perturbation(t3):
    # perturb one term by another perpendicular vector; re-decomposition
    # recovers exactly the perturbed terms
    rng = random.Random(83)
    x = t3.random_integral(2, rng)
    ps = perp_series_decompose(t3, x)
    delta = t3.perp_project(t3.random_integral(2, rng), 2)
    perturbed = list(ps.components)
    perturbed[2] = perturbed[2] + delta
    y = series_reconstruct(t3, PerpSeries(2, tuple(perturbed)))
    again = perp_series_decompose(t3, y)
    for a, b in zip(again.components, perturbed):
        assert (a - b).is_all_bottom


def test_series_invert_matches_geometric_series(t3):
    # 1/(1 + 3 zeta_9) agrees with the truncated geometric series
    x = t3.one(1) + t3.zeta(1) * 3
    inv = series_reconstruct(t3, series_invert(t3, perp_series_decompose(t3, x)))
    geom = t3.zero(1)
    term = t3.one(1)
    for _ in range(30):
        geom = geom + term
        term = t3.mul(term, t3.zeta(1) * -3)
    # the truncation tail has valuation 30 > prec, so agreement is exact
    # at working precision
    assert (inv - geom).is_all_bottom


def test_flatness_of_zeta9(t3):
    assert flatness_test(t3, t3.zeta(1)) == ((0, Fraction(1, 2)),)


def test_flatness_margins_of_layered_element(t3):
    # an element assembled from scaled layers has nonnegative margins
    rng = random.Random(71)
    x = t3.zero(2)
    for n in range(3):
        x = x + t3.scale_p(t3.embed(t3.random_integral(n, rng), 2), n)
    margins = flatness_test(t3, x)
    assert len(margins) == 2
    assert all(m is None or m >= 0 for _, m in margins)


def test_flatness_fixed_element_has_no_margin(t3):
    # an embedded level-0 element is fixed by every layer generator
    margins = flatness_test(t3, t3.embed(t3.uniformizer(0), 2))
    assert all(m is None for _, m in margins)


def test_perp_series_json(t3):
    ps = perp_series_decompose(t3, t3.uniformizer(1))
    blob = ps.to_json()
    assert blob["level"] == 1 and len(blob["terms"]) == 2
    assert blob["terms"][1]["n"] == 1
