import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclodiff.errors import InsufficientPrecision, ValuationOfZero
from cyclodiff.padic import PadicScalar
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
from test_tower import SMALL, small_elements


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


def flat_reconstruct(tower, series):
    """The oracle for `series_reconstruct`: every component embedded into the
    top field and added there, from the top field's zero at working precision."""
    acc = tower.zero(series.level)
    for comp in series.components:
        acc = acc + tower.embed(comp, series.level)
    return acc


def assert_reconstructs_like_the_flat_sum(tower, series):
    got, want = series_reconstruct(tower, series), flat_reconstruct(tower, series)
    assert (got.level, got.cap, got._packed) == (want.level, want.cap, want._packed)
    assert got.to_json() == want.to_json()


@settings(max_examples=60, deadline=None)
@given(small_elements())
def test_reconstruct_matches_the_flat_sum(case):
    tower, x = case
    assert_reconstructs_like_the_flat_sum(tower, perp_series_decompose(tower, x))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2**32), st.data())
def test_reconstruct_matches_the_flat_sum_at_ragged_term_caps(p, seed, data):
    # each term of a series read from JSON has its own cap, some below the
    # working precision and some above it; a term may be zero at its cap
    tower = SMALL[p]
    level = data.draw(st.integers(0, tower.max_level))
    rng = random.Random(seed)
    terms = []
    for n in range(level + 1):
        comp = tower.perp_project(tower.random_integral(n, rng), n)
        cap = data.draw(st.integers(1, tower.prec + 3))
        if data.draw(st.booleans()):
            comp = tower.zero(n)
        coeffs = [
            dict(c, prec=cap) if cap > tower.prec else PadicScalar.from_json(c).truncate(cap).to_json()
            for c in comp.to_json()["coeffs"]
        ]
        terms.append({"n": n, "coeffs": coeffs})
    series = perp_series_from_json(tower, {"level": level, "terms": terms})
    assert_reconstructs_like_the_flat_sum(tower, series)


def test_reconstruct_matches_the_flat_sum_on_the_golden_series_above_prec():
    # the nonunit golden's terms have cap 21 on a tower of prec 20; cutting
    # term 1 to cap 5 makes the caps ragged
    tower = CyclotomicTower(TowerParams(p=5, s=1, max_level=2, prec=20))
    obj = json.loads((Path(__file__).parent / "golden" / "series_nonunit_p5_l2_prec20.json").read_text())
    series = perp_series_from_json(tower, obj)
    assert [comp.cap for comp in series.components] == [21, 21, 21]
    assert_reconstructs_like_the_flat_sum(tower, series)
    cut = (series.components[0], tower.truncate(series.components[1], 5), series.components[2])
    assert_reconstructs_like_the_flat_sum(tower, PerpSeries(2, cut))
    assert series_reconstruct(tower, PerpSeries(2, cut)).cap == 5


def test_reconstruct_matches_the_flat_sum_on_the_zero_series(t3):
    for level in range(t3.max_level + 1):
        series = perp_series_decompose(t3, t3.zero(level))
        assert all(comp.is_all_bottom for comp in series.components)
        assert_reconstructs_like_the_flat_sum(t3, series)
        assert series_reconstruct(t3, series).is_all_bottom


def test_reconstruct_adds_each_level_at_its_own_degree(monkeypatch):
    # summed from the bottom level up, step n adds phi(n) coordinates:
    # 4 + 20 + 100 scalar sums at p = 5, level 2, where the flat sum makes
    # three sums in the top field, 300
    tower = CyclotomicTower(TowerParams(p=5, s=1, max_level=2, prec=20))
    series = perp_series_decompose(tower, tower.random_unit(2, random.Random(5)))
    calls, add = [], PadicScalar.__add__
    monkeypatch.setattr(PadicScalar, "__add__", lambda a, b: calls.append(1) or add(a, b))
    series_reconstruct(tower, series)
    assert len(calls) == 4 + 20 + 100


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


def cut_sum_and_lifts(p, seed, data):
    """(x, lifts): x is a sum of perp components, some absent and some scaled
    by p^k, cut to a cap below the working precision, so that some components
    vanish at the cap; the lifts y and y + p^cap z agree with x at that cap."""
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
    lifts = (y, y + tower.scale_p(tower.random_integral(level, rng), cap))
    for lift in lifts:
        assert tower.truncate(lift, cap).to_json() == x.to_json()
    return x, lifts


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2**32), st.data())
def test_a_reported_decay_margin_holds_for_every_lift(p, seed, data):
    tower = SMALL[p]
    x, lifts = cut_sum_and_lifts(p, seed, data)
    try:
        margin = perp_series_decompose(tower, x).decay_margin()
    except InsufficientPrecision:
        return
    if margin is None:
        return
    for lift in lifts:
        assert perp_series_decompose(tower, lift).decay_margin() == margin


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(SMALL)), st.integers(0, 2**32), st.data())
def test_a_reported_membership_slack_holds_for_every_lift(p, seed, data):
    tower = SMALL[p]
    x, lifts = cut_sum_and_lifts(p, seed, data)
    try:
        slack = layered_sum_membership(tower, x).slack_needed
    except InsufficientPrecision:
        return
    for lift in lifts:
        assert layered_sum_membership(tower, lift).slack_needed == slack


def test_a_membership_that_a_vanishing_component_could_raise_is_refused():
    """1 + O(3) at level 2 has a level-0 margin of 0, and its level-2
    component vanishes at cap 1, so that margin is only known to be >= -1.
    The lifts 1 + 3 zeta at caps 2, 3 and 6 cut to it and need slack 1."""
    t = CyclotomicTower(TowerParams(p=3, s=1, max_level=2, prec=6))
    x = t.from_int_coeffs(2, [1], 1)
    for cap in (2, 3, 6):
        lift = t.from_int_coeffs(2, [1, 3], cap)
        assert t.truncate(lift, 1).to_json() == x.to_json()
        assert layered_sum_membership(t, lift).slack_needed == 1
    with pytest.raises(InsufficientPrecision):
        layered_sum_membership(t, x)


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
