"""Acceptance gate: the twelve headline checks at desk scale (p = 3, s = 1,
four levels, precision 60).  Each test computes its full verdict, records a
scoreboard line, and then asserts.  Everything here is exact arithmetic; the
only tolerances are the stated constant bounds themselves."""

from fractions import Fraction

import pytest

from conftest import record
from cyclodiff.completion import (
    flatness_test,
    layered_sum_membership,
    perp_series_decompose,
    series_reconstruct,
    w2_valuation,
)
from cyclodiff.constants import (
    cell_rng,
    estimate_constants,
    norm_cells,
    norm_witness_value,
    perp_basis_indices,
)
from cyclodiff.differentials import (
    base_change_compare,
    commensurability_check,
    different,
    differential,
    divisibility_exponent,
    flat_decompose,
    kernel_lattice,
    kernel_mixed_columns,
    layer_sum_columns,
    random_kernel_element,
)
from cyclodiff.errors import ValuationOfZero
from cyclodiff.padic import vp
from cyclodiff.tower import CyclotomicTower, TowerParams

SEED = 0


@pytest.fixture(scope="module")
def t3():
    return CyclotomicTower(TowerParams(3, 1, 4, prec=60))


@pytest.fixture(scope="module")
def cons(t3):
    return estimate_constants(t3, seed=SEED, samples=200)


def _val(tower, x):
    try:
        return tower.valuation(x)
    except ValuationOfZero:
        return None


def check(num, description, passed):
    record(num, description, passed)
    assert passed, f"criterion {num}: {description}"


def test_criterion_01_different_valuations(t3):
    ok = all(different(t3, n, "K0") == n for n in range(1, 5))
    ok = ok and all(
        different(t3, n, "Qp") == Fraction(n + 1) - Fraction(1, 2)
        for n in range(0, 5)
    )
    check(1, "different valuations match the level over both bases", ok)


def test_criterion_02_norm_congruence(t3, cons):
    cells = dict(cons.c_norm_cells)
    ok = all(v > 0 for v in cells.values())
    ok = ok and cells[(0, 1)] == Fraction(2, 3)
    ok = ok and cons.c_norm == Fraction(2, 3)
    ok = ok and norm_witness_value(t3) == Fraction(2, 3)
    check(2, "norm congruence constant positive on every cell, witness 2/3", ok)


def test_criterion_03_projector_defect(t3, cons):
    ok = cons.c2_star == 0 and all(v == 0 for _, v in cons.c2_cells)
    cells = norm_cells(t3)
    per_cell = 100
    checked = 0
    violations = 0
    for n, k in cells:
        m = n + k
        rng = cell_rng(SEED, "acceptance-3", n, m)
        for _ in range(per_cell):
            x = t3.random_integral(m, rng)
            v = _val(t3, t3.perp_project(x, n))
            if v is None:
                continue
            checked += 1
            if v < -cons.c2_star:
                violations += 1
    ok = ok and checked >= 900 and violations == 0
    check(3, "projector defect zero on basis minima and 1000 samples", ok)


def test_criterion_04_layer_inversion_bound(t3, cons):
    violations = 0
    checked = 0
    for n, k in norm_cells(t3):
        m = n + k
        g = t3.layer_generator(n, m)
        for j in perp_basis_indices(t3, m):
            x = t3.zeta(m, j)
            vm = _val(t3, x - t3.galois_apply(g, x))
            if vm is None:
                violations += 1  # a layer kernel vector must move
                continue
            checked += 1
            if vm > cons.c3_star:
                violations += 1
    ok = checked > 0 and violations == 0
    check(4, "layer inversion bound holds on every perp basis vector", ok)


def test_criterion_05_uniformizer_compatibility(t3, cons):
    ok = True
    base_case = None
    for n in range(0, 4):
        up_cubed = t3.power(t3.uniformizer(n + 1), 3)
        dn = t3.uniformizer(n)
        lhs = t3.one(n + 1)
        rhs = t3.one(n)
        for k in range(1, 28):
            lhs = lhs * up_cubed
            rhs = rhs * dn
            v = _val(t3, lhs - t3.embed(rhs, n + 1))
            if n == 0 and k == 1:
                base_case = v
            if v is None:
                continue  # agreement below working precision
            if v < vp(k, 3) - cons.m_c:
                ok = False
    ok = ok and base_case == Fraction(7, 6)
    check(5, "uniformizer tower compatibility floor, base case 7/6", ok)


def test_criterion_06_lattice_commensurability(t3, cons):
    ok = True
    for n in range(1, 4):
        cols_sum = layer_sum_columns(t3, n)
        cols_ker = kernel_mixed_columns(t3, kernel_lattice(t3, n, "K0"))
        c_plus, c_minus = commensurability_check(3, t3.phi(n), cols_sum, cols_ker)
        ok = ok and c_plus <= cons.n_0 and c_minus <= cons.n_1
        if n == 1:
            ok = ok and (c_plus, c_minus) == (0, 0)
    check(6, "kernel and layer-sum lattices commensurable within (n_0, n_1)", ok)


def test_criterion_07_flat_decompositions(t3):
    rng = cell_rng(SEED, "acceptance-7", 3, 0)
    done = 0
    ok = True
    while done < 50:
        x = random_kernel_element(t3, 3, rng)
        if x.is_all_bottom:
            continue
        done += 1
        dec = flat_decompose(t3, x, 2)
        ok = ok and all(m >= 0 for m in dec.margins)
        tail_val = _val(t3, dec.tail)
        ok = ok and (tail_val is None or tail_val >= 0)
        total = t3.embed(dec.tail, 3)
        for part in dec.parts:
            total = total + t3.embed(part, 3)
        ok = ok and (total - x).is_all_bottom
    check(7, "50 kernel elements admit verified flat decompositions", ok and done == 50)


def test_criterion_08_divisibility_ceiling(t3, cons):
    bound = cons.nopdiv_bound()
    rng = cell_rng(SEED, "acceptance-8", 2, 0)
    done = 0
    ok = bound == 2
    while done < 20:
        x = t3.random_integral(2, rng)
        if differential(t3, x, "K0").is_zero():
            continue
        done += 1
        exps = {m: divisibility_exponent(t3, x, m) for m in range(1, 5)}
        finite = [v for v in exps.values() if v is not None]
        if finite and max(finite) > bound:
            ok = False
        if exps[4] != exps[3]:
            ok = False
    check(8, "divisibility exponents stabilize within the ceiling", ok and done == 20)


def test_criterion_09_series_roundtrip(t3):
    rng = cell_rng(SEED, "acceptance-9", 3, 0)
    ok = True
    for _ in range(100):
        x = t3.random_integral(3, rng)
        series = perp_series_decompose(t3, x)
        ok = ok and (series_reconstruct(t3, series) - x).is_all_bottom
    zero_series = perp_series_decompose(t3, t3.zero(3))
    ok = ok and all(c.is_all_bottom for c in zero_series.components)
    ok = ok and series_reconstruct(t3, zero_series).is_all_bottom
    check(9, "perp decomposition round-trips 100 random elements", ok)


def test_criterion_10_membership_vs_flatness(t3):
    rng = cell_rng(SEED, "acceptance-10", 2, 0)
    ok = True
    for offset in (0, 1, 2):
        y = t3.zero(2)
        for n in range(3):
            part = t3.perp_project(t3.random_unit(n, rng), n)
            while part.is_all_bottom:
                part = t3.perp_project(t3.random_unit(n, rng), n)
            y = y + t3.embed(t3.scale_p(part, n + offset), 2)
        verdict = layered_sum_membership(t3, y)
        ok = ok and verdict.slack_needed == 0
        ok = ok and all(m is None or m >= offset for m in verdict.margins)
        flat = flatness_test(t3, y)
        ok = ok and all(v is None or v >= offset for _, v in flat)
    for m in range(1, 5):
        z = t3.zeta(m)
        verdict = layered_sum_membership(t3, z)
        ok = ok and verdict.slack_needed != 0
        ok = ok and verdict.slack_needed == m
        finite = [v for _, v in flatness_test(t3, z) if v is not None]
        ok = ok and all(v <= Fraction(1, 2) for v in finite)
        pinned = [
            (k, v)
            for k, v in flatness_test(t3, t3.embed(t3.zeta(1), m))
            if v is not None
        ]
        ok = ok and pinned == [(0, Fraction(1, 2))]
    check(10, "layered membership matches flatness; unit witnesses rejected", ok)


def test_criterion_11_valuation_gap(t3):
    gaps = []
    ok = True
    for m in range(1, 5):
        x = t3.scale_p(t3.zeta(m), m)
        v = t3.valuation(x)
        w2 = w2_valuation(t3, x)
        ok = ok and v == m and w2 == 0
        gaps.append(v - w2)
    ok = ok and all(b - a >= 1 for a, b in zip(gaps, gaps[1:]))
    check(11, "valuation gap grows by one per level on the witness family", ok)


def test_criterion_12_base_change(t3):
    v0 = different(t3, 0, "Qp")
    r = -((-v0.numerator) // v0.denominator)
    ok = r == 1
    for n in (1, 2):
        cols_k0 = kernel_mixed_columns(t3, kernel_lattice(t3, n, "K0"))
        cols_qp = kernel_mixed_columns(t3, kernel_lattice(t3, n, "Qp"))
        scaled = [[c.shift(r) for c in col] for col in cols_k0]
        c_plus, c_minus = commensurability_check(3, t3.phi(n), scaled, cols_qp)
        ok = ok and c_plus == 0 and c_minus <= r
    rng = cell_rng(SEED, "acceptance-12", 2, 0)
    for _ in range(4):
        ok = ok and base_change_compare(t3, t3.random_integral(2, rng))
    check(12, "kernel lattices over both bases agree after one p-shift", ok)
