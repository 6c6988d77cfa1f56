"""Measurement of the tower's defect constants.

Every constant is computed from tower data, never assumed:

* a, b bound the drift of the relative different, |val(d_n) - n - b| <= a/p^n;
  a wrong different shows as a != 0 or b != 0 and fails tatediff (exit 1);
* c_norm is the norm-congruence floor min val(N(x)/x^deg - 1) over basis
  elements and seeded random units, cell by cell (n, k).  Each element is
  drawn at full precision and evaluated at 8 digits first, a unit at
  max(1, ceil(floor so far)) once there is one; the digits double only
  while N(x) - x^deg is all bottom.  A unit rung at one digit costs two
  re-indexes (N(x) and x^deg are both Frobenius mod p).  The ladder is
  exact: a difference that is not all bottom has the valuation of every
  lift of the truncated x, since every tower op keeps a sound cap.  The cells
  (n, m - n) share each basis element's first rung: N_{K_m/K_n} composes the
  layer norms and x^(p^k) = (x^(p^(k-1)))^p, so one norm chain and one p-power
  chain serve every n, at the one-call rung's cap or a higher one;
* m_c is the smallest m with p^m c_norm >= 1/(p-1);
* c_2 bounds the normalized-trace denominators from basis minima (the
  projectors are coordinate masks, so the honest minimum is 0);
* c_3 is the largest elementary divisor of 1 - g_n on the top perp lattices,
  read off the package's one integer elimination kernel
  (`differentials.echelon`) run mod p^G;
* n_0 is the least shift making p^(n+n_0) O_{K_n} land in the kernel of d,
  read off the kernel tables of `differentials.kernel_lattice`; it is 0, as
  p^n (the different over K_0) kills the differentials of O_{K_n}, and a
  chain-rule spot check against the heavyweight route stays;
* n_1 = ceil(a - b + m_c + 2).

Randomness: each cell draws from its own generator seeded by
sha256(seed | tag | n | k), so reports are reproducible bit for bit and
adding cells never disturbs existing ones.
"""

from __future__ import annotations

import hashlib
import math
import random
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError, InsufficientPrecision, brief
from .tower import CyclotomicTower
from .differentials import different, differential, echelon, kernel_lattice, level_transition_factor


def cell_rng(seed: int, tag: str, n: int, k: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}|{tag}|{n}|{k}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def norm_cells(tower: CyclotomicTower) -> List[Tuple[int, int]]:
    out = []
    for n in range(tower.max_level):
        for k in range(1, tower.max_level - n + 1):
            out.append((n, k))
    return out


# ---------------------------------------------------------------------------
# per-constant measurements
# ---------------------------------------------------------------------------


def different_drift(tower: CyclotomicTower) -> Tuple[Fraction, Fraction, tuple]:
    """(a, b, drifts): b is the asymptote of val(d_n) - n, a the exact bound
    on p^n |val(d_n) - n - b| over the tested levels."""
    drifts = tuple(different(tower, n, "K0") - n for n in range(tower.max_level + 1))
    b = drifts[-1]
    a = max(abs(d - b) * tower.p ** n for n, d in enumerate(drifts))
    return a, b, drifts


def norm_congruence_cell(
    tower: CyclotomicTower, n: int, k: int, seed: int, samples: int
) -> Fraction:
    """min val(N_{K_(n+k)/K_n}(x) / x^(p^k) - 1) over the rho-power basis of
    the top field and `samples` seeded random units.

    Each x is drawn at full precision and evaluated on a precision ladder:
    x truncated to d digits, then 2d, 4d, ... and the cap, climbing only
    while N(x) - x^(p^k) is all bottom.  d is 8 (a basis element's products
    lose relative precision), except for a unit once a floor c is known: its
    difference has cap d = max(1, ceil(c)), so an all-bottom first rung
    shows that it cannot lower the floor.  The schedule does not change the
    cell.  A difference that is not all bottom has an exact valuation, shared
    by every lift of the truncated x, because every tower op keeps a sound
    cap; an all-bottom one bounds the full difference's valuation below by
    its cap, so a climb ends early only for an x that cannot beat the floor
    so far; and the full-cap rung is the same on any schedule.  The draws,
    the truncations and the difference (`CyclotomicTower.norm_defect`) stay
    packed triples, so a rung builds no `PadicScalar`.

    The cells of top level m share a basis element's first rung
    (`_first_rungs`): N_{K_m/K_n} composes the layer norms and x^(p^k) =
    (x^(p^(k-1)))^p, so one `norm_down` per layer and one `power(., p)` per
    step serve every n.  The chain's caps are sound, at least the one call's,
    and a higher cap only ends a climb sooner.  n < 0 and k < 1 are refused.
    """
    if n < 0 or k < 1:
        raise DomainError(f"a norm cell needs n >= 0 and k >= 1, got ({brief(n)}, {brief(k)})")
    m = n + k
    deg = tower.p ** k
    rng = cell_rng(seed, "fonemb", n, k)
    best: Optional[Fraction] = None

    def consider(x, val_x: Fraction, rung=None):
        nonlocal best
        digits = min(8 if val_x or best is None else max(1, math.ceil(best)), x.cap)
        while True:
            if rung is None:
                diff = tower.norm_defect(tower.truncate(x, digits), n)
                rung = tower.valuation_or_none(diff), diff.cap
            (v, cap), rung = rung, None
            if v is not None:
                v -= deg * val_x
                if best is None or v < best:
                    best = v
                return
            if digits == x.cap:
                return  # congruence exact to precision: no constraint
            if best is not None and cap - deg * val_x >= best:
                return  # val of the full difference is >= its cap
            digits = min(2 * digits, x.cap)

    for i in range(tower.phi(m)):
        x = tower.rho_power(m, i)
        consider(x, Fraction(i, tower.phi(m)), _first_rungs(tower, m, i, x)[n])
    for _ in range(samples):
        consider(tower.random_unit(m, rng), Fraction(0))
    if best is None:
        raise InsufficientPrecision(f"norm congruence invisible at cell ({n},{k})")
    return best


_FIRST_RUNGS = weakref.WeakKeyDictionary()  # tower -> {(m, i): rungs}, dropped with it


def _first_rungs(tower: CyclotomicTower, m: int, i: int, x) -> list:
    """(val or None, cap) of N(y) - y^(p^(m-n)) for each n < m, y = x =
    rho_m^i cut to min(8, cap) digits; memoised per (m, i) while the tower lives."""
    memo = _FIRST_RUNGS.setdefault(tower, {})
    if (m, i) not in memo:
        norm = power = tower.truncate(x, min(8, x.cap))
        rungs = []
        for n in range(m - 1, -1, -1):
            norm, power = tower.norm_down(norm, n), tower.power(power, tower.p)
            diff = tower.embed(norm, m) - power
            rungs.append((tower.valuation_or_none(diff), diff.cap))
        memo[m, i] = rungs[::-1]
    return memo[m, i]


def trace_bound_cell(tower: CyclotomicTower, n: int, k: int) -> Fraction:
    """c_2(n, k) = max(0, -min val) of R_n and R_n_perp over the zeta basis
    of the top field; the projectors are masks, so this is exact."""
    m = n + k
    worst = Fraction(0)
    for j in range(tower.phi(m)):
        coeffs = [0] * tower.phi(m)
        coeffs[j] = 1
        x = tower.from_int_coeffs(m, coeffs)
        for image in (tower.normalized_trace(x, n), tower.perp_project(x, n)):
            v = tower.valuation_or_none(image)
            if v is not None and -v > worst:
                worst = -v
    return worst


def perp_basis_indices(tower: CyclotomicTower, m: int) -> List[int]:
    """zeta exponents spanning O_{K_m}^perp (the part new at level m)."""
    return [j for j in range(1, tower.phi(m)) if j % tower.p != 0]


def one_minus_galois_matrix(
    tower: CyclotomicTower, n: int, m: int
) -> Tuple[List[int], List[List[int]]]:
    """Integer columns of 1 - g_n on the perp basis of level m, where g_n
    generates the automorphisms fixing K_n.  The action permutes residue
    classes of exponents mod p, so the perp span is stable; folded entries
    landing outside it must cancel and are checked to."""
    indices = perp_basis_indices(tower, m)
    pos = {j: r for r, j in enumerate(indices)}
    g = tower.layer_generator(n, m)
    q = tower.q(m)
    cols = []
    for j in indices:
        moved = [0] * q  # e_j - zeta^(unit j), folded to e_j - g(e_j)
        moved[j] += 1
        moved[g.unit * j % q] -= 1
        dense = tower.fold(m, moved)
        col = [0] * len(indices)
        for slot, entry in enumerate(dense):
            if entry == 0:
                continue
            if slot not in pos:
                raise InsufficientPrecision(
                    f"perp span not stable at cell ({n},{m - n}): slot {slot}"
                )
            col[pos[slot]] = entry
        cols.append(col)
    return indices, cols


def galois_defect_cell(tower: CyclotomicTower, n: int, k: int) -> int:
    """c_3(n, k): largest elementary divisor valuation of 1 - g_n on the
    perp lattice of level m = n + k."""
    _, cols = one_minus_galois_matrix(tower, n, n + k)
    modexp = min(tower.prec, 24)
    _, pivots = echelon(tower.p, cols, modexp)
    if len(pivots) < len(cols):
        # a divisor hidden beyond p^modexp cannot be certified
        raise InsufficientPrecision(
            f"rank shortfall mod p^{modexp} in Smith reduction at cell ({n},{k})"
        )
    return max(v for _, v in pivots)


def kernel_shift(tower: CyclotomicTower) -> int:
    """n_0: least c >= 0 with p^(n+c) O_{K_n} inside the kernel of d over
    K_0 at every level n, read off the kernel tables: p^(n+c) rho_0^j rho_n^i
    is in ker(d) exactly when (n + c) e_0 >= exps_n[i], so n_0 is the
    largest ceil(exps_n[i] / e_0) - n.  It is 0: the table's bound n - v_p(i)
    - (i-1)/e_n is at most n, as p^n, the different's valuation over K_0,
    kills every differential of O_{K_n}."""
    e0 = tower.phi(0)
    n_0 = max(
        -(-r // e0) - n
        for n in range(tower.max_level + 1)
        for r in kernel_lattice(tower, n, "K0").exps
    )
    # spot-check the chain-rule shortcut against the full route
    if tower.max_level >= 2:
        b = tower.mul(tower.embed(tower.rho_power(0, 1), 1), tower.uniformizer(1))
        om = differential(tower, tower.embed(b, 2), "K0")
        direct = tower.valuation(om.rep)
        fac = tower.valuation(level_transition_factor(tower, 1, 2))
        expected = Fraction(1, e0) + fac
        if direct != expected:
            raise InsufficientPrecision("chain-rule shortcut failed its spot check")
    return max(0, n_0)


# ---------------------------------------------------------------------------
# the report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstantsReport:
    p: int
    s: int
    max_level: int
    prec: int
    seed: int
    samples: int
    a: Fraction
    b: Fraction
    drifts: tuple
    c_norm: Fraction
    c_norm_cells: tuple  # ((n, k), Fraction)
    c_norm_witness: Fraction  # cell (0,1), basis element rho
    m_c: int
    c2_star: Fraction
    c2_cells: tuple
    c3_star: int
    c3_cells: tuple
    n_0: int
    n_1: int

    def nopdiv_bound(self) -> int:
        return self.n_0 + self.n_1 + math.ceil(self.c2_star)


def norm_witness_value(tower: CyclotomicTower) -> Fraction:
    """val(N(rho_1)/rho_1^p - 1) for the cell (0,1) basis witness."""
    diff = tower.norm_defect(tower.uniformizer(1), 0)
    return tower.valuation(diff) - Fraction(tower.p, tower.phi(1))


def iterate_threshold(p: int, c_norm: Fraction) -> int:
    """m_c: the least m >= 0 with p^m c_norm >= 1/(p-1), for c_norm > 0."""
    m_c = 0
    while p ** m_c * c_norm < Fraction(1, p - 1):
        m_c += 1
    return m_c


def estimate_constants(
    tower: CyclotomicTower, seed: int = 0, samples: int = 1000
) -> ConstantsReport:
    if samples < 0:
        raise DomainError(f"the sample count must not be negative, got {brief(samples)}")
    a, b, drifts = different_drift(tower)

    cells = norm_cells(tower)
    cn_cells = tuple(
        ((n, k), norm_congruence_cell(tower, n, k, seed, samples)) for n, k in cells
    )
    c_norm = min(v for _, v in cn_cells)
    witness = norm_witness_value(tower)

    m_c = iterate_threshold(tower.p, c_norm)

    c2_cells = tuple(((n, k), trace_bound_cell(tower, n, k)) for n, k in cells)
    c2_star = max(v for _, v in c2_cells)

    c3_cells = tuple(((n, k), galois_defect_cell(tower, n, k)) for n, k in cells)
    c3_star = max(v for _, v in c3_cells)

    n_0 = kernel_shift(tower)
    n_1 = math.ceil(a - b + m_c + 2)

    return ConstantsReport(
        p=tower.p,
        s=tower.s,
        max_level=tower.max_level,
        prec=tower.prec,
        seed=seed,
        samples=samples,
        a=a,
        b=b,
        drifts=drifts,
        c_norm=c_norm,
        c_norm_cells=cn_cells,
        c_norm_witness=witness,
        m_c=m_c,
        c2_star=c2_star,
        c2_cells=c2_cells,
        c3_star=c3_star,
        c3_cells=c3_cells,
        n_0=n_0,
        n_1=n_1,
    )
