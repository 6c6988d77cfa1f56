"""Series decompositions along the perp projectors and the w2 gauge.

Every x in K_N splits exactly as a sum of its perp components: the n-th
component R_n_perp(x) keeps the zeta-coordinate slots whose index has p-adic
valuation exactly N - n (the trace-zero part new at level n), and the n = 0
component is the normalized trace to the bottom field.  The splitting is a
finite, exact analogue of the series expansions used for the completed tower.

One gauge, `perp_margins`, reads val(R_n_perp x) - n off the components,
and everything else is a minimum or a threshold on it:

* `PerpSeries.decay_margin` is min_n (val(R_n_perp x) - n), refused when a
  component that vanishes at its cap could lie below it
  (`_refuse_vanishing_below`, the one home of that bound);
* `w2_valuation` is its floor;
* `layered_sum_membership` reports the least c >= 0 with x in
  sum_n p^(n-c) O_{K_n}, read componentwise, which is exact because R_n_perp
  maps each O_{K_m} into integers and kills the levels below n, and refused
  by the same bound when a vanishing component could need a larger slack;
* `flatness_test` measures val((g_k - 1) x) - k for the layer generators g_k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .errors import DomainError, InsufficientPrecision, ValuationOfZero, brief
from .padic import check_json
from .tower import CyclotomicTower, TowerElement


@dataclass(frozen=True)
class PerpSeries:
    """Exact perp decomposition: components[n] lives at level n and
    sum_n embed(components[n], level) reconstructs the element.
    `series_reconstruct` forms that sum from the bottom level up, in Horner
    order: embedding is additive and only spreads coordinates, so each top
    coordinate is the same exact sum as in the flat order, at the same cap."""

    level: int
    components: tuple

    def _tower(self) -> CyclotomicTower:
        return self.components[0].tower

    def decay_margin(self) -> Optional[Fraction]:
        """min_n (val(components[n]) - n); None for the zero series.  A
        component that vanishes at its cap c has a margin of only >= c - n, so
        where that bound lies below the least finite margin the minimum is not
        known and InsufficientPrecision is raised (`_refuse_vanishing_below`)."""
        margins = perp_margins(self._tower(), self.components)
        least = min((m for m in margins if m is not None), default=None)
        if least is not None:
            _refuse_vanishing_below(self.components, margins, least)
        return least

    def certify_perpendicular(self) -> bool:
        """Each nonzero term n >= 1 must vanish under the trace to the level
        below; term 0 must sit at level 0."""
        tower = self._tower()
        for n, comp in enumerate(self.components):
            if comp.level != n:
                return False
            if n >= 1 and not comp.is_all_bottom:
                if not tower.normalized_trace(comp, n - 1).is_all_bottom:
                    return False
        return True

    def to_json(self) -> dict:
        margin = self.decay_margin()
        return {
            "level": self.level,
            "terms": [
                {"n": n, "coeffs": comp.to_json()["coeffs"]}
                for n, comp in enumerate(self.components)
            ],
            "decay_margin": None if margin is None else str(margin),
            "perp_certified": self.certify_perpendicular(),
        }


def perp_series_from_json(tower: CyclotomicTower, obj: dict) -> PerpSeries:
    """Series from the `PerpSeries.to_json` layout; malformed input, and a
    term n >= 1 whose normalized trace to level n - 1 is not zero, raise
    DomainError."""
    check_json(obj, "series json", level=int, terms=list)
    comps = []
    for term in obj["terms"]:
        check_json(term, "series term", n=int, coeffs=list)
        comps.append(tower.element_from_json({"level": term["n"], "coeffs": term["coeffs"]}))
    for n, comp in enumerate(comps):
        if comp.level != n:
            raise DomainError("series terms must be indexed consecutively from 0")
    if len(comps) != obj["level"] + 1:
        level = brief(obj["level"])
        raise DomainError(f"a level {level} series needs one term per level, got {len(comps)}")
    series = PerpSeries(obj["level"], tuple(comps))
    if not series.certify_perpendicular():
        raise DomainError("series term n >= 1 has a nonzero trace to level n - 1")
    return series


def perp_series_decompose(tower: CyclotomicTower, x: TowerElement) -> PerpSeries:
    comps = tuple(tower.perp_project(x, n) for n in range(x.level + 1))
    return PerpSeries(x.level, comps)


def series_reconstruct(tower: CyclotomicTower, series: PerpSeries) -> TowerElement:
    """sum_n embed(components[n], level), summed from the bottom level up:
    acc = embed(acc, n) + components[n] for n = 0..level, from the zero of
    K_0 at working precision.  Step n adds phi(n) coordinates, so the sum
    costs phi(0) + ... + phi(level) of them, not (level + 1) phi(level).
    Embedding only spreads coordinates, so each top coordinate is the same
    exact sum as in the flat order, read at the same cap: the least of prec
    and the terms' caps."""
    acc = tower.zero(0)
    for n, comp in enumerate(series.components):
        acc = tower.embed(acc, n) + comp
    return acc


def series_invert(tower: CyclotomicTower, series: PerpSeries) -> PerpSeries:
    """Components of the multiplicative inverse of the represented element."""
    inv = tower.invert(series_reconstruct(tower, series))
    return perp_series_decompose(tower, inv)


def perp_margins(tower: CyclotomicTower, components) -> List[Optional[Fraction]]:
    """val(components[n]) - n for each n; None where the component vanishes
    to working precision."""
    margins: List[Optional[Fraction]] = []
    for n, comp in enumerate(components):
        v = tower.valuation_or_none(comp)
        margins.append(None if v is None else v - n)
    return margins


def _refuse_vanishing_below(components, margins, floor) -> None:
    """A component n that vanishes at its cap c has a margin of only >= c - n;
    raise InsufficientPrecision where that bound lies below ``floor``, the
    least margin that leaves the caller's answer unchanged."""
    for n, (comp, m) in enumerate(zip(components, margins)):
        if m is None and comp.cap - n < floor:
            raise InsufficientPrecision(f"perp component {n} vanishes at its cap {comp.cap}")


def w2_valuation(tower: CyclotomicTower, x: TowerElement) -> int:
    """floor(min_n (val(R_n_perp x) - n)); raises ValuationOfZero when every
    component vanishes to precision."""
    margin = perp_series_decompose(tower, x).decay_margin()
    if margin is None:
        raise ValuationOfZero("all perp components vanish to working precision")
    return math.floor(margin)


@dataclass(frozen=True)
class MembershipVerdict:
    slack_needed: int  # smallest c >= 0 at which the test passes; 0 = member
    margins: tuple  # val(R_n_perp x) - n per level, None = no constraint


def layered_sum_membership(tower: CyclotomicTower, x: TowerElement) -> MembershipVerdict:
    """The least slack c >= 0 with x in sum_{n<=level} p^(n-c) O_{K_n}.

    Membership at slack c is equivalent to val(R_n_perp x) >= n - c for
    every n: the projectors map the candidate sum into exactly those bounds,
    and y_n = p^(-n) R_n_perp(x) exhibit the decomposition x = sum_n p^n y_n
    whenever they are integral.  A component that vanishes at its cap is
    bounded as in `PerpSeries.decay_margin`; where that bound would need a
    larger slack, InsufficientPrecision is raised.
    """
    components = perp_series_decompose(tower, x).components
    margins = perp_margins(tower, components)
    finite = [m for m in margins if m is not None]
    needed = max(0, math.ceil(-min(finite))) if finite else 0
    _refuse_vanishing_below(components, margins, -needed)
    return MembershipVerdict(needed, tuple(margins))


def flatness_test(tower: CyclotomicTower, x: TowerElement) -> tuple:
    """(k, val((g_k - 1) x) - k or None) for the layer generators g_k, k <
    level: None where g_k fixes x to working precision.

    g_k generates the automorphisms fixing K_k, so a nonnegative margin at
    every k certifies that x sits p^k-close to each sublevel in the Galois
    sense; the minimum margin is the flatness defect.
    """
    lev = x.level
    out = []
    for k in range(lev):
        g = tower.layer_generator(k, lev)
        v = tower.valuation_or_none(tower.galois_apply(g, x) - x)
        out.append((k, None if v is None else v - k))
    return tuple(out)
