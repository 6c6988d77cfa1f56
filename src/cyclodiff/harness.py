"""Verification suites.

Each suite is a deterministic batch of assertions over one tower: the same
tower description, seed, and sample count always produce the same report.
A suite's runner is a generator that yields its records, each with a name,
a pass flag and a witness payload holding the measured values; `run_suite`
collects them and stamps each with the suite token it belongs to, the
suite's key in SUITES.  A suite passes when every assertion either passed or
was skipped; skips carry an explicit reason and only occur when the tower is
too shallow for the statement being tested.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from fractions import Fraction
from typing import List, Optional

from .completion import (
    flatness_test,
    layered_sum_membership,
    perp_series_decompose,
    perp_series_from_json,
    series_reconstruct,
    w2_valuation,
)
from .constants import (
    ConstantsReport,
    cell_rng,
    estimate_constants,
    iterate_threshold,
    norm_cells,
    perp_basis_indices,
)
from .differentials import (
    commensurability_check,
    base_change_compare,
    different,
    differential,
    divisibility_exponent,
    flat_decompose,
    kernel_lattice,
    kernel_mixed_columns,
    layer_sum_columns,
    random_kernel_element,
)
from .errors import DomainError, brief
from .padic import vp
from .reportio import envelope
from .tower import CyclotomicTower

# sample count used when a suite needs the constants report and the caller
# did not hand one in; fixed so reports stay reproducible
CONSTANTS_SAMPLES = 200


def _assertion(name: str, passed: bool, witness: dict) -> dict:
    return {"name": name, "passed": bool(passed), "witness": witness}


def _skip(name: str, reason: str) -> dict:
    return {"name": name, "passed": True, "skipped": True, "witness": {"reason": reason}}


def _frozen(fr) -> Optional[str]:
    return None if fr is None else str(Fraction(fr))


class _Margins:
    """Running tally of a bound's margins: how many were checked, how many
    fell below zero, and the least one."""

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.worst: Optional[Fraction] = None

    def add(self, margin: Fraction) -> None:
        self.checked += 1
        if self.worst is None or margin < self.worst:
            self.worst = margin
        if margin < 0:
            self.violations += 1

    @property
    def ok(self) -> bool:
        return self.checked > 0 and self.violations == 0

    def witness(self, **extra) -> dict:
        return {
            "checked": self.checked,
            "violations": self.violations,
            "worst_margin": _frozen(self.worst),
            **extra,
        }


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def _run_tatediff(tower, seed, constants, samples):
    for n in range(tower.max_level + 1):
        v = different(tower, n, "K0")
        yield _assertion(
            f"different-over-first-layer-level-{n}",
            v == n,
            {"level": n, "valuation": _frozen(v), "expected": n},
        )
    for n in range(tower.max_level + 1):
        v = different(tower, n, "Qp")
        want = Fraction(n + tower.s) - Fraction(1, tower.p - 1)
        yield _assertion(
            f"different-over-base-level-{n}",
            v == want,
            {"level": n, "valuation": _frozen(v), "expected": _frozen(want)},
        )
    yield _assertion(
        "different-drift-vanishes",
        constants.a == 0 and constants.b == 0,
        {
            "a": _frozen(constants.a),
            "b": _frozen(constants.b),
            "drifts": [_frozen(d) for d in constants.drifts],
        },
    )


def _run_fonemb(tower, seed, constants, samples):
    cells = {f"{n},{k}": _frozen(v) for (n, k), v in constants.c_norm_cells}
    yield _assertion(
        "norm-congruence-positive-all-cells",
        all(v > 0 for _, v in constants.c_norm_cells),
        {"cells": cells, "floor": _frozen(constants.c_norm)},
    )
    witness = constants.c_norm_witness
    q0 = tower.p ** tower.s
    want = Fraction(q0 - 1, q0)
    yield _assertion(
        "first-layer-uniformizer-witness",
        witness == want and witness == constants.c_norm,
        {"value": _frozen(witness), "expected": _frozen(want)},
    )
    m_c = iterate_threshold(tower.p, constants.c_norm)
    yield _assertion(
        "iterate-threshold",
        m_c == constants.m_c,
        {"m_c": m_c, "threshold": _frozen(Fraction(1, tower.p - 1))},
    )


def _run_rnbdd(tower, seed, constants, samples):
    c2 = constants.c2_star
    yield _assertion(
        "projector-bound-on-basis",
        all(v <= c2 for _, v in constants.c2_cells),
        {
            "cells": {f"{n},{k}": _frozen(v) for (n, k), v in constants.c2_cells},
            "c2": _frozen(c2),
        },
    )
    cells = norm_cells(tower)
    per_cell = max(1, samples // max(1, len(cells)))
    tally = _Margins()
    mask_mismatches = 0
    for n, k in cells:
        m = n + k
        rng = cell_rng(seed, "rnbdd", n, m)
        for _ in range(per_cell):
            x = tower.random_integral(m, rng)
            vx = tower.valuation_or_none(x)
            if vx is None:
                continue
            floor = Fraction(math.floor(vx))
            masked = tower.normalized_trace(x, n)
            honest = tower.scale_p(
                tower.embed(tower.trace_down(x, n), m), -(m - n)
            )
            if not (masked - honest).is_all_bottom:
                mask_mismatches += 1
            for image in (masked, tower.perp_project(x, n)):
                vi = tower.valuation_or_none(image)
                if vi is None:
                    continue  # projected to zero: no constraint
                tally.add(vi - (floor - c2))
    yield _assertion(
        "projector-bound-on-samples",
        tally.ok and mask_mismatches == 0,
        tally.witness(mask_mismatches=mask_mismatches),
    )


def _run_gaminv(tower, seed, constants, samples):
    c3 = constants.c3_star
    yield _assertion(
        "layer-defect-divisors",
        all(v <= c3 for _, v in constants.c3_cells),
        {
            "cells": {f"{n},{k}": v for (n, k), v in constants.c3_cells},
            "c3": c3,
        },
    )
    tally = _Margins()
    for n, k in norm_cells(tower):
        m = n + k
        idx = perp_basis_indices(tower, m)
        g = tower.layer_generator(n, m)
        rng = cell_rng(seed, "gaminv", n, m)
        coeff_mod = tower.p ** min(tower.prec, 24)
        combos = [
            {j: 1} for j in idx
        ] + [
            {j: rng.randrange(coeff_mod) for j in idx} for _ in range(samples)
        ]
        for combo in combos:
            ints = [0] * tower.phi(m)
            for j, c in combo.items():
                ints[j] = c
            x = tower.from_int_coeffs(m, ints)
            vx = tower.valuation_or_none(x)
            if vx is None:
                continue
            moved = x - tower.galois_apply(g, x)
            vm = tower.valuation_or_none(moved)
            if vm is None:
                continue
            tally.add(vx - (vm - c3))
    yield _assertion("inversion-bound-on-layer-kernels", tally.ok, tally.witness())


def _run_rhoval(tower, seed, constants, samples):
    k_cap = samples
    m_c = constants.m_c
    tally = _Margins()
    base_value: Optional[Fraction] = None
    for n in range(tower.max_level):
        rho_up = tower.uniformizer(n + 1)
        rho_dn = tower.uniformizer(n)
        for k in range(1, k_cap + 1):
            lhs = tower.power(rho_up, tower.p * k)
            rhs = tower.embed(tower.power(rho_dn, k), n + 1)
            v = tower.valuation_or_none(lhs - rhs)
            if v is None:
                continue  # agreement below working precision
            floor = Fraction(vp(k, tower.p)) - m_c
            tally.add(v - floor)
            if n == 0 and k == 1:
                base_value = v
    yield _assertion(
        "uniformizer-power-compatibility", tally.ok, tally.witness(k_cap=k_cap)
    )
    if tower.p == 3 and tower.s == 1:
        yield _assertion(
            "base-step-witness",
            base_value == Fraction(7, 6),
            {"value": _frozen(base_value), "expected": "7/6"},
        )
    else:
        yield _assertion(
            "base-step-witness",
            base_value is not None and base_value >= -m_c,
            {"value": _frozen(base_value)},
        )


def _run_theorem_b(tower, seed, constants, samples):
    for n in range(1, min(3, tower.max_level) + 1):
        ker = kernel_lattice(tower, n, "K0")
        cols_ker = kernel_mixed_columns(tower, ker)
        cols_sum = layer_sum_columns(tower, n)
        c_plus, c_minus = commensurability_check(
            tower.p, tower.phi(n), cols_sum, cols_ker
        )
        bound_ok = c_plus <= constants.n_0 and c_minus <= constants.n_1
        if n == 1:
            bound_ok = bound_ok and (c_plus, c_minus) == (0, 0)
        yield _assertion(
            f"lattice-commensurability-level-{n}",
            bound_ok,
            {
                "level": n,
                "c_plus": c_plus,
                "c_minus": c_minus,
                "n_0": constants.n_0,
                "n_1": constants.n_1,
            },
        )


def _run_fouvar(tower, seed, constants, samples):
    n1 = constants.n_1
    level = n1 + 1
    if level > tower.max_level:
        yield _skip(
            "flat-decomposition",
            f"needs level {level} but tower stops at {tower.max_level}",
        )
        return
    rng = cell_rng(seed, "fouvar", level, 0)
    count = 0
    margin_floor: Optional[Fraction] = None
    reconstructed = 0
    tails_ok = 0
    while count < samples:
        x = random_kernel_element(tower, level, rng)
        if x.is_all_bottom:
            continue
        count += 1
        dec = flat_decompose(tower, x, n1)
        low = min(dec.margins, default=Fraction(0))
        if margin_floor is None or low < margin_floor:
            margin_floor = low
        tail_val = tower.valuation_or_none(dec.tail)
        if tail_val is None or tail_val >= 0:
            tails_ok += 1
        total = tower.embed(dec.tail, level)
        for part in dec.parts:
            total = total + tower.embed(part, level)
        if (total - x).is_all_bottom:
            reconstructed += 1
    passed = (
        count == samples
        and reconstructed == count
        and tails_ok == count
        and (margin_floor is None or margin_floor >= 0)
    )
    yield _assertion(
        "flat-decomposition",
        passed,
        {
            "level": level,
            "elements": count,
            "reconstructed": reconstructed,
            "integral_tails": tails_ok,
            "margin_floor": _frozen(margin_floor),
        },
    )


def _run_nopdiv(tower, seed, constants, samples):
    if tower.max_level < 2:
        yield _skip("divisibility-ceiling", "needs max_level >= 2")
        return
    level = 2
    bound = constants.nopdiv_bound()
    rng = cell_rng(seed, "nopdiv", level, 0)
    collected = 0
    ceiling_ok = 0
    stable_ok = 0
    worst_sup: Optional[int] = None
    check_stability = tower.max_level >= level + 1
    while collected < samples:
        x = tower.random_integral(level, rng)
        if differential(tower, x, "K0").is_zero():
            continue
        collected += 1
        exps = {m: divisibility_exponent(tower, x, m) for m in range(1, tower.max_level + 1)}
        finite = [v for v in exps.values() if v is not None]
        sup = max(finite) if finite else None
        if sup is None or sup <= bound:
            ceiling_ok += 1
        if sup is not None and (worst_sup is None or sup > worst_sup):
            worst_sup = sup
        if not check_stability or exps[tower.max_level] == exps[tower.max_level - 1]:
            stable_ok += 1
    passed = collected == samples and ceiling_ok == collected and stable_ok == collected
    yield _assertion(
        "divisibility-ceiling",
        passed,
        {
            "level": level,
            "elements": collected,
            "bound": bound,
            "max_exponent_seen": worst_sup,
            "within_bound": ceiling_ok,
            "stable": stable_ok,
        },
    )


def _run_base_change(tower, seed, constants, samples):
    v0 = different(tower, 0, "Qp")
    r = math.ceil(v0)
    for n in range(1, min(2, tower.max_level) + 1):
        cols_k0 = kernel_mixed_columns(tower, kernel_lattice(tower, n, "K0"))
        cols_qp = kernel_mixed_columns(tower, kernel_lattice(tower, n, "Qp"))
        scaled = [[c.shift(r) for c in col] for col in cols_k0]
        c_plus, c_minus = commensurability_check(
            tower.p, tower.phi(n), scaled, cols_qp
        )
        yield _assertion(
            f"kernel-rescaling-level-{n}",
            c_plus == 0 and c_minus <= r,
            {"level": n, "shift": r, "c_plus": c_plus, "c_minus": c_minus},
        )
    level = min(2, tower.max_level)
    rng = cell_rng(seed, "base-change", level, 0)
    agreed = 0
    for _ in range(samples):
        if base_change_compare(tower, tower.random_integral(level, rng)):
            agreed += 1
    yield _assertion(
        "classes-agree-after-rescaling",
        agreed == samples,
        {"level": level, "samples": samples, "agreed": agreed, "shift": r},
    )


def _run_rnk2(tower, seed, constants, samples):
    level = min(3, tower.max_level)
    rng = cell_rng(seed, "rnk2", level, 0)
    roundtrips = 0
    certified = 0
    json_ok = 0
    for _ in range(samples):
        x = tower.random_integral(level, rng)
        series = perp_series_decompose(tower, x)
        if (series_reconstruct(tower, series) - x).is_all_bottom:
            roundtrips += 1
        if series.certify_perpendicular():
            certified += 1
        back = perp_series_from_json(tower, series.to_json())
        if all(
            (a - b).is_all_bottom for a, b in zip(series.components, back.components)
        ):
            json_ok += 1
    yield _assertion(
        "decompose-reconstruct-roundtrip",
        roundtrips == samples and certified == samples and json_ok == samples,
        {
            "level": level,
            "samples": samples,
            "roundtrips": roundtrips,
            "certified": certified,
            "json_roundtrips": json_ok,
        },
    )
    z = tower.zero(level)
    zs = perp_series_decompose(tower, z)
    zero_forward = all(c.is_all_bottom for c in zs.components)
    zero_back = series_reconstruct(tower, zs).is_all_bottom
    yield _assertion(
        "zero-series-iff-zero-element", zero_forward and zero_back, {"level": level}
    )
    uniq = 0
    trials = max(1, samples // 20)
    for _ in range(trials):
        x = tower.random_integral(level, rng)
        series = perp_series_decompose(tower, x)
        ell = rng.randrange(1, level + 1)
        delta = tower.perp_project(tower.random_integral(ell, rng), ell)
        while delta.is_all_bottom:  # a zero perturbation tests nothing
            delta = tower.perp_project(tower.random_integral(ell, rng), ell)
        y = series_reconstruct(tower, series) + tower.embed(delta, level)
        again = perp_series_decompose(tower, y)
        hit = (again.components[ell] - (series.components[ell] + delta)).is_all_bottom
        others = all(
            (again.components[n] - series.components[n]).is_all_bottom
            for n in range(level + 1)
            if n != ell
        )
        if hit and others:
            uniq += 1
    yield _assertion(
        "componentwise-uniqueness",
        uniq == trials,
        {"trials": trials, "recovered": uniq},
    )


def _run_diffvec(tower, seed, constants, samples):
    level = min(2, tower.max_level)
    rng = cell_rng(seed, "diffvec", level, 0)
    forward_ok = 0
    offsets = list(range(samples))
    for offset in offsets:
        y = tower.zero(level)
        for n in range(level + 1):
            part = tower.perp_project(tower.random_unit(n, rng), n)
            while part.is_all_bottom:
                part = tower.perp_project(tower.random_unit(n, rng), n)
            y = y + tower.embed(tower.scale_p(part, n + offset), level)
        verdict = layered_sum_membership(tower, y)
        margins_ok = all(m is None or m >= offset for m in verdict.margins)
        flat_ok = all(v is None or v >= offset for _, v in flatness_test(tower, y))
        if verdict.slack_needed == 0 and margins_ok and flat_ok:
            forward_ok += 1
    yield _assertion(
        "layered-membership-implies-flatness",
        forward_ok == len(offsets),
        {"level": level, "offsets": offsets, "agreed": forward_ok},
    )
    cap = Fraction(1, tower.p - 1)
    reverse_ok = 0
    reverse_detail = {}
    for m in range(1, tower.max_level + 1):
        z = tower.zeta(m)
        verdict = layered_sum_membership(tower, z)
        flat = flatness_test(tower, z)
        finite = [v for _, v in flat if v is not None]
        bounded = all(v <= cap for v in finite)
        if verdict.slack_needed == m and bounded:
            reverse_ok += 1
        reverse_detail[str(m)] = {
            "slack_needed": verdict.slack_needed,
            "margins": [[k, _frozen(v)] for k, v in flat],
        }
    yield _assertion(
        "root-of-unity-witnesses-rejected",
        reverse_ok == tower.max_level,
        {"cap": _frozen(cap), "witnesses": reverse_detail},
    )
    if tower.p == 3 and tower.s == 1:
        pinned = True
        for m in range(1, tower.max_level + 1):
            flat = flatness_test(tower, tower.embed(tower.zeta(1), m))
            finite = [(k, v) for k, v in flat if v is not None]
            pinned = pinned and finite == [(0, Fraction(1, 2))]
        yield _assertion(
            "first-layer-witness-margin",
            pinned,
            {"expected": "1/2", "levels": tower.max_level},
        )


def _run_theorem_a_shadow(tower, seed, constants, samples):
    gaps = []
    for m in range(1, tower.max_level + 1):
        x = tower.scale_p(tower.zeta(m), m)
        v = tower.valuation(x)
        w2 = w2_valuation(tower, x)
        gaps.append(v - w2)
        yield _assertion(
            f"valuation-gap-level-{m}",
            v == m and w2 == 0,
            {"level": m, "valuation": _frozen(v), "w2": w2, "gap": _frozen(v - w2)},
        )
    growing = all(b - a >= 1 for a, b in zip(gaps, gaps[1:]))
    yield _assertion(
        "gap-grows-with-level",
        growing and bool(gaps),
        {"gaps": [_frozen(g) for g in gaps]},
    )


# suite name -> (runner, main sample knob), in report order; a runner yields
# its records unstamped, and a knob of None means the suite is exhaustive
SUITES = {
    "tatediff": (_run_tatediff, None),
    "fonemb": (_run_fonemb, 60),
    "rnbdd": (_run_rnbdd, 240),
    "gaminv": (_run_gaminv, 6),
    "rhoval": (_run_rhoval, 27),
    "theorem-b": (_run_theorem_b, None),
    "fouvar": (_run_fouvar, 50),
    "nopdiv": (_run_nopdiv, 20),
    "base-change": (_run_base_change, 4),
    "rnk2": (_run_rnk2, 100),
    "diffvec": (_run_diffvec, 3),
    "theorem-a-shadow": (_run_theorem_a_shadow, None),
}
SUITE_NAMES = tuple(SUITES)


def check_sample_count(samples: Optional[int]) -> None:
    """A suite sample count is None (each suite's default) or positive."""
    if samples is not None and samples < 1:
        raise DomainError(f"a suite needs a positive sample count, got {brief(samples)}")


def suite_passed(assertions: List[dict]) -> bool:
    return all(a["passed"] or a.get("skipped") for a in assertions)


def run_suite(
    tower: CyclotomicTower,
    name: str,
    seed: int = 0,
    constants: Optional[ConstantsReport] = None,
    samples: Optional[int] = None,
) -> dict:
    if name not in SUITES:
        raise DomainError(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")
    check_sample_count(samples)
    if constants is None:
        constants = estimate_constants(tower, seed=seed, samples=CONSTANTS_SAMPLES)
    measured_on = (constants.p, constants.s, constants.max_level, constants.prec)
    if measured_on != astuple(tower.params):
        raise DomainError(
            f"constants measured at (p, s, max_level, prec) = {measured_on}, "
            f"but the tower is {astuple(tower.params)}"
        )
    runner, default_samples = SUITES[name]
    if samples is None:
        samples = default_samples
    assertions = [
        {**record, "anchor": name} for record in runner(tower, seed, constants, samples)
    ]
    return envelope(
        tower,
        "suite",
        seed,
        {
            "suite": name,
            "samples": samples,
            "constants_samples": constants.samples,
            "assertions": assertions,
            "passed": suite_passed(assertions),
        },
    )


def run_all(
    tower: CyclotomicTower,
    seed: int = 0,
    samples: Optional[int] = None,
    constants: Optional[ConstantsReport] = None,
) -> dict:
    check_sample_count(samples)
    if constants is None:
        constants = estimate_constants(tower, seed=seed, samples=CONSTANTS_SAMPLES)
    suites = {}
    for name in SUITE_NAMES:
        suites[name] = run_suite(tower, name, seed=seed, constants=constants, samples=samples)
    return envelope(
        tower,
        "suite-collection",
        seed,
        {
            "suites": suites,
            "passed": all(rep["passed"] for rep in suites.values()),
        },
    )
