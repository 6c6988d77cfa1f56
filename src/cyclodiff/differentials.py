"""Kaehler differentials of the tower rings and the lattice toolkit.

For x in O_{K_n} the module of differentials relative to a base (O_{K_0} or
Z_p) is cyclic: Omega = O_{K_n}/d_n * d(rho_n), where d_n is the different
ideal.  Everything here is phrased through that presentation:

* `differential(x)` produces the class (dx/d rho) d(rho) at x's level n by
  the chain rule on x's zeta-coordinates, with zeta^(p^n) = zeta_0 constant
  over K_0;
* `different` measures the generator g'(rho_n) of the different, in closed
  form, and its valuation; the `tatediff` suite judges that valuation
  (n over K_0, n + s - 1/(p-1) over Q_p: `modulus_valuation`);
* lattices live in one fixed coordinate system, the Z_p-basis
  rho_0^j * rho_n^i of O_{K_n} (j < phi(0), i < p^n), where the kernel of d
  and the layered sums sum_m p^m O_{K_m} can be compared head to head; the
  columns of each O_{K_m} there (`sublevel_columns`) are the tower's Pascal
  transform of rho_m^i, with no products;
* `random_kernel_element` draws ker(d) over O_{K_0}, lane ints straight into
  the inverse Pascal transform, and `divisibility_exponent` reads each
  exponent, by coefficients at or above x's level and by lattice membership
  below it.  Membership in the layered sums, with its least slack, is read
  componentwise in `completion`.

Every elimination over Z_p runs through one integer kernel, `echelon`:
valuation-greedy column reduction of plain ints mod p^N.  Because Z_p is a
DVR, picking the globally minimal-valuation pivot keeps every elimination
factor integral, and the pivot valuations are the elementary divisors (Smith
form over a DVR).  `LatticeBasis` wraps it for scalar coordinate vectors,
`elementary_divisor_valuations` reads the divisors off it, and the c_3 cells
in `constants` call it on their integer matrices directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError, InsufficientPrecision
from .padic import PadicScalar, pack, vp
from .tower import CyclotomicTower, TowerElement

BASES = ("K0", "Qp")


def _check_base(base: str):
    if base not in BASES:
        raise DomainError(f"base must be one of {BASES}, got {base!r}")


# ---------------------------------------------------------------------------
# differential classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OmegaClass:
    """A class in Omega = O_{K_level}/(p-part of the different) * d(rho).

    `rep` is the coefficient of d(rho_level); two classes agree when the
    difference of reps has valuation >= modulus_val.  A rep that vanishes at
    a cap below modulus_val decides nothing: its lifts may lie in either
    class, so `is_zero` raises InsufficientPrecision there.
    """

    level: int
    base: str
    rep: TowerElement
    modulus_val: Fraction

    def same_class(self, other: "OmegaClass") -> bool:
        if (self.level, self.base) != (other.level, other.base):
            raise DomainError("classes live in different modules")
        return replace(self, rep=self.rep - other.rep).is_zero()

    def is_zero(self) -> bool:
        v = self.rep.tower.valuation_or_none(self.rep)
        if v is None and self.rep.cap < self.modulus_val:
            raise InsufficientPrecision(f"the rep vanishes at cap {self.rep.cap} < the modulus")
        return v is None or v >= self.modulus_val


def different(tower: CyclotomicTower, level: int, base: str = "K0") -> Fraction:
    """The valuation of the different over the base, read off its generator
    g'(rho_level) (`CyclotomicTower.minpoly_derivative_at_rho`), measured
    only: `tatediff` compares it with n and n + s - 1/(p-1), and
    `different-drift-vanishes` judges the a and b read from it."""
    _check_base(base)
    return tower.valuation(tower.minpoly_derivative_at_rho(level, over_qp=base == "Qp"))


def modulus_valuation(tower: CyclotomicTower, level: int, base: str) -> Fraction:
    _check_base(base)
    if base == "K0":
        return Fraction(level)
    return Fraction(level + tower.s) - Fraction(1, tower.p - 1)


def differential(tower: CyclotomicTower, x: TowerElement, base: str = "K0") -> OmegaClass:
    """The class of dx in Omega^1 of O_{K_n}, n = level(x), over the base
    ring: the rep is dx/d(rho) by the chain rule on zeta-coordinates, reading
    j mod p^n over K_0 (zeta^(p^n) = zeta_0 has d = 0) and j over Q_p
    (`CyclotomicTower.rho_derivative`), known to min(x.cap, prec)."""
    _check_base(base)
    level = x.level
    v = tower.valuation_or_none(x)
    if v is not None and v < 0:
        raise DomainError("differential is defined on integral elements")
    rep = tower.rho_derivative(x, tower.degree(level) if base == "K0" else tower.phi(level))
    return OmegaClass(level, base, rep, modulus_valuation(tower, level, base))


def level_transition_factor(tower: CyclotomicTower, n: int, m: int) -> TowerElement:
    """d(rho_n) = factor * d(rho_m) inside level m: p^(m-n) zeta_m^(p^(m-n)-1)."""
    if not 0 <= n <= m <= tower.max_level:
        raise DomainError("need 0 <= n <= m <= max_level")
    step = tower.p ** (m - n)
    coeffs = [0] * tower.phi(m)
    coeffs[step - 1] = step
    return tower.from_int_coeffs(m, coeffs)


def base_change_compare(tower: CyclotomicTower, x: TowerElement) -> bool:
    """dx over Q_p maps onto dx over K_0 under the canonical surjection:
    whether the two coefficient routes agree modulo the K_0 modulus."""
    a = differential(tower, x, base="Qp")
    b = differential(tower, x, base="K0")
    return OmegaClass(b.level, "K0", a.rep, b.modulus_val).same_class(b)


# ---------------------------------------------------------------------------
# the shared coordinate system
# ---------------------------------------------------------------------------


def mixed_coords(tower: CyclotomicTower, x: TowerElement) -> List[PadicScalar]:
    """Z_p coordinates of x in the basis rho_0^j rho_n^i of K_n,
    index order i * phi(0) + j."""
    out: List[PadicScalar] = []
    for c in tower.to_rho_basis(x):
        out.extend(tower.rho_power_coords(c))
    return out


def sublevel_columns(tower: CyclotomicTower, m: int, n: int) -> List[List[PadicScalar]]:
    """The Z_p-basis rho_0^j rho_m^i of O_{K_m} (i outer, j inner) in level-n
    mixed coordinates, m <= n.  rho_m = s((1 + s rho_n)^(p^(n-m)) - 1), so
    rho_m^i is an integer polynomial in rho_n of degree below p^n, and its Q_p
    rho-coordinate k fills row k * phi(0) + j; every other entry is bottom at
    that coordinate's cap."""
    tower._check_level(m)  # n is checked by `embed`
    d0, d = tower.phi(0), tower.degree(n)
    cols = []
    for i in range(tower.degree(m)):
        coords = tower.rho_power_coords(tower.embed(tower.rho_power(m, i), n))[:d]
        bottoms = [PadicScalar.bottom(tower.p, c.prec) for c in coords]
        for j in range(d0):
            cols.append([c if r == j else b for c, b in zip(coords, bottoms) for r in range(d0)])
    return cols


# ---------------------------------------------------------------------------
# lattices over Z_p
# ---------------------------------------------------------------------------


def echelon(p: int, int_columns, digits: int):
    """Column echelon form over Z_p of integer columns known mod p^digits.

    The one elimination kernel of the package.  Each round picks the pivot
    with the smallest (valuation, row) among the nonzero entries in unused
    rows, the first column winning ties; Z_p is a DVR, so this global
    minimum keeps every elimination factor integral.  The unused rows are
    first scanned in order for an entry prime to p, which is that minimum;
    the valuations are read only when no unit is left.  The pivot column is
    scaled until its pivot is exactly p^val and cleared from the remaining
    columns.  Returns (pivot_columns, pivots) with pivots[k] = (row, val);
    the vals ascend and are the elementary divisor valuations (Smith form
    over a DVR).  Columns that vanish mod p^digits are dropped, so the rank
    is len(pivots).
    """
    mod = p ** digits
    work = [[e % mod for e in col] for col in int_columns]
    unused = list(range(len(work[0]) if work else 0))
    reduced, pivots = [], []
    while work:
        # the least (val, row, column index); a unit is it when there is one
        best = next(((0, r, ci) for r in unused for ci, c in enumerate(work) if c[r] % p), None)
        if best is None:
            best = min(((vp(c[r], p), r, ci) for ci, c in enumerate(work)
                        for r in unused if c[r]), default=None)
        if best is None:
            break
        v, r, ci = best
        pivot = work.pop(ci)
        pv = p ** v
        unit_inv = pow(pivot[r] // pv, -1, mod)
        pivot = [e * unit_inv % mod for e in pivot]
        for ci, other in enumerate(work):
            f = other[r] // pv
            if f:
                work[ci] = [(o - f * e) % mod for o, e in zip(other, pivot)]
        reduced.append(pivot)
        pivots.append((r, v))
        unused.remove(r)
    return reduced, pivots


class LatticeBasis:
    """Column span over Z_p of a set of coordinate vectors, held in
    valuation-greedy echelon form (pivot rows distinct, each pivot p^val
    exactly and its row eliminated from all later columns).

    A thin wrapper of `echelon`: the generators are lifted to integers with
    one shift and one cap for the whole matrix (`pack`), and the
    pivot columns come back as scalars known to that cap.
    """

    def __init__(self, p: int, dim: int, columns, pivots):
        self.p = p
        self.dim = dim
        self.columns = columns
        self.pivots = pivots  # list of (row, val) aligned with columns

    @classmethod
    def from_generators(cls, p: int, dim: int, generators) -> "LatticeBasis":
        generators = [list(col) for col in generators]
        for col in generators:
            if len(col) != dim:
                raise DomainError("generator has wrong dimension")
        entries = [e for col in generators for e in col]
        if not entries:
            return cls(p, dim, [], [])
        shift, digits, ints = pack(entries)
        cap = shift + digits
        reduced, pivots = echelon(p, [ints[i : i + dim] for i in range(0, len(ints), dim)], digits)
        columns = [[PadicScalar.raw(p, shift, e, cap) for e in col] for col in reduced]
        return cls(p, dim, columns, [(r, v + shift) for r, v in pivots])

    @property
    def rank(self) -> int:
        return len(self.columns)

    def solve(self, vector, integral: bool = True):
        """Coefficients c with sum c_k * column_k = vector, or None.  With
        integral=True the coefficients must lie in Z_p."""
        if len(vector) != self.dim:
            raise DomainError("vector has wrong dimension")
        res = list(vector)
        coeffs = []
        for col, (r, v) in zip(self.columns, self.pivots):
            entry = res[r]
            if entry.is_bottom:
                coeffs.append(entry)  # zero coefficient at its precision
                continue
            if integral and entry.val < v:
                return None
            f = entry * col[r].invert()
            coeffs.append(f)
            res = [res[i] - f * col[i] for i in range(self.dim)]
        if all(c.is_bottom for c in res):
            return coeffs
        return None

    def contains(self, vector) -> bool:
        return self.solve(vector, integral=True) is not None


def elementary_divisor_valuations(p: int, dim: int, columns) -> List[int]:
    """Valuations of the Smith normal form diagonal over Z_p, ascending: the
    pivot valuations of the echelon form."""
    return [v for _, v in LatticeBasis.from_generators(p, dim, columns).pivots]


def commensurability_check(
    p: int, dim: int, cols_a, cols_b
) -> Tuple[int, int]:
    """(c_plus, c_minus) with p^c_plus * L_A <= L_B and p^c_minus * L_B <= L_A,
    read off the Smith form of the two transition matrices."""
    la = LatticeBasis.from_generators(p, dim, cols_a)
    lb = LatticeBasis.from_generators(p, dim, cols_b)

    def one_way(src: LatticeBasis, dst: LatticeBasis) -> int:
        trans = []
        for col in src.columns:
            sol = dst.solve(col, integral=False)
            if sol is None:
                raise DomainError("lattices do not span the same Q_p space")
            trans.append(sol)
        divs = elementary_divisor_valuations(p, dst.rank, trans)
        if not divs:
            return 0
        return max(0, -min(divs))

    return one_way(la, lb), one_way(lb, la)


# ---------------------------------------------------------------------------
# kernel and layered-sum lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelLattice:
    """ker(d) on O_{K_level} relative to the base (`kernel_lattice`)."""

    level: int
    base: str
    exps: tuple


def kernel_lattice(tower: CyclotomicTower, level: int, base: str = "K0") -> KernelLattice:
    """ker(d) on O_{K_level} over the base, a monomial lattice:
    base K0:  +_i  rho_0^(exps[i]) O_{K_0} rho_n^i   (1/e_0 grid: exps in rho_0 steps)
    base Qp:  +_k  p^(exps[k]) Z_p rho_n^k            (integer grid: exps in p steps)
    For x = sum_k c_k rho_n^k the terms of dx = sum_k k c_k rho_n^(k-1) d(rho_n)
    have distinct valuations, so dx = 0 exactly when every slot k >= 1 meets
    val(c_k) >= mod - v_p(k) - (k-1)/e, mod = `modulus_valuation`, e = phi(level)."""
    mod = modulus_valuation(tower, level, base)
    tower._check_level(level)
    e = tower.phi(level)
    slots, grid = (tower.degree(level), tower.phi(0)) if base == "K0" else (e, 1)
    exps = [0] + [
        max(0, math.ceil((mod - vp(k, tower.p) - Fraction(k - 1, e)) * grid))
        for k in range(1, slots)
    ]
    return KernelLattice(level, base, tuple(exps))


def _lane_exponents(r: int, e0: int) -> List[int]:
    """a(r, j) = max(0, -floor((j - r)/e_0)) for j < e_0: the least p^a with
    p^a rho_0^j in rho_0^r O_{K_0}, lane by lane."""
    return [max(0, -((j - r) // e0)) for j in range(e0)]


def kernel_mixed_columns(tower: CyclotomicTower, ker: KernelLattice):
    """Generators of the kernel lattice in the shared mixed coordinates."""
    d0 = tower.phi(0)
    d = tower.degree(ker.level)
    dim = d0 * d
    cols = []
    if ker.base == "K0":
        for i in range(d):
            for j, a in enumerate(_lane_exponents(ker.exps[i], d0)):
                col = [PadicScalar.bottom(tower.p, tower.prec) for _ in range(dim)]
                col[i * d0 + j] = PadicScalar.raw(tower.p, a, 1, tower.prec + a)
                cols.append(col)
        return cols
    for k in range(tower.phi(ker.level)):
        vec = mixed_coords(tower, tower.rho_power(ker.level, k))
        cols.append([c.shift(ker.exps[k]) for c in vec])
    return cols


def layer_sum_columns(tower: CyclotomicTower, n: int):
    """Generators of sum_{m<=n} p^m O_{K_m} in level-n mixed coordinates."""
    tower._check_level(n)
    return [
        [e.shift(m) for e in col] for m in range(n + 1) for col in sublevel_columns(tower, m, n)
    ]


def random_kernel_element(tower: CyclotomicTower, level: int, rng) -> TowerElement:
    """Random Z_p-combination of the generators of ker(d) over O_{K_0}: each
    rho_0^j p^a rho_n^i, p^a the least power with rho_0^j p^a in rho_0^r
    O_{K_0}, r = exps[i], takes c p^a with c drawn below p^(prec - a)."""
    p, prec, d0 = tower.p, tower.prec, tower.phi(0)
    coeffs = []
    for r in kernel_lattice(tower, level).exps:
        lane = [rng.randrange(p ** (prec - a)) * p ** a for a in _lane_exponents(r, d0)]
        coeffs.append(tower.from_rho_power_coords(0, lane))
    return tower.from_rho_basis(level, coeffs)


# ---------------------------------------------------------------------------
# divisibility of differentials
# ---------------------------------------------------------------------------


def divisibility_exponent(tower: CyclotomicTower, x: TowerElement, m: int) -> Optional[int]:
    """Largest i >= 0 with dx in p^i d(O_{K_m}) inside Omega of level
    max(m, level(x)) over K_0; -1 when even i = 0 fails, None when dx is the
    zero class (every i works).

    For m >= level(x) the test is coefficientwise: the slot constraint from
    p^i d(O_{K_m}) + p^m O is val(c_k) >= i exactly on the slots that the
    level-m kernel table does not admit (there k < p^m, so the bound is
    m - v_p(k) on the 1/e_0 grid).  For m < level(x) it is lattice membership
    x in p^i O_{K_m} + ker(d), tried for i <= m and no further: p^m O_{K_m}
    lies in ker(d) at level(x).  The level-m table has no exponent above m
    (n_0 = 0 in `kernel_shift`), and ker(d) at level(x) meets O_{K_m} in ker(d)
    at level m, since d(rho_m) = p^(level(x) - m) * unit * d(rho_level(x)).  So
    the test at i = m is exactly dx = 0, and passing it means None.
    """
    tower._check_level(m)
    lev = x.level
    if m >= lev:
        coeffs = tower.to_rho_basis(tower.embed(x, m))
        exps, e0 = kernel_lattice(tower, m).exps, tower.phi(0)
        vals = [(k, tower.valuation_or_none(coeffs[k])) for k in range(1, len(coeffs))]
        low = [math.floor(v) for k, v in vals if v is not None and v * e0 < exps[k]]  # not admitted
        return min(low, default=None)
    ker_cols = kernel_mixed_columns(tower, kernel_lattice(tower, lev, "K0"))
    base_cols = sublevel_columns(tower, m, lev)
    xvec = mixed_coords(tower, x)
    dim = len(xvec)
    for i in range(m + 1):
        cols = [[e.shift(i) for e in col] for col in base_cols] + ker_cols
        if not LatticeBasis.from_generators(tower.p, dim, cols).contains(xvec):
            return i - 1
    return None


# ---------------------------------------------------------------------------
# flat decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FlatDecomposition:
    """x = sum of parts + tail with parts[k-1] at level n-k+1 divisible by
    p^(n-k+1-n1) and the tail integral at level n1."""

    parts: tuple  # TowerElements, parts[k-1] at level n-k+1
    tail: TowerElement
    margins: tuple  # val(part) - required valuation, one per part, Fraction


def flat_decompose(tower: CyclotomicTower, x: TowerElement, n1: int) -> FlatDecomposition:
    n = x.level
    if n <= n1:
        raise DomainError(f"need level(x) > n1, got level {n} and n1 {n1}")
    if not differential(tower, x, "K0").is_zero():
        raise DomainError("decomposition needs dx = 0 (x in the kernel lattice)")
    # x = sum_i c_i rho_n^i.  layers[k] = sum_j c_(p^k j) rho_(n-k)^j, cut to
    # the working precision: layers[0] is x, the parts are the steps
    # layers[k-1] - layers[k], and the last layer is the tail.
    xc, p = tower.to_rho_basis(x), tower.p
    layers = []
    for k in range(n - n1 + 1):
        layer = tower.from_rho_basis(n - k, xc[:: p ** k])
        layers.append(tower.truncate(layer, min(layer.cap, tower.prec)))
    parts = []
    margins = []
    for k in range(1, n - n1 + 1):
        lev = n - k + 1
        y = layers[k - 1] - tower.embed(layers[k], lev)
        parts.append(y)
        need = Fraction(lev - n1)
        v = tower.valuation_or_none(y)
        margins.append((Fraction(y.cap) if v is None else v) - need)  # zero at its cap: val >= cap
    tail = layers[-1]
    if not (layers[0] - x).is_all_bottom:
        raise DomainError("internal error: decomposition failed to telescope")
    return FlatDecomposition(tuple(parts), tail, tuple(margins))
