"""Arithmetic in a fixed cyclotomic tower over Q_p.

The tower is K_0 c K_1 c ... c K_L with K_n = Q_p(zeta_n) for zeta_n a
primitive p^(n+s)-th root of unity, s = 1 for odd p and s = 2 for p = 2
(so K_0 = Q_p(zeta_p), resp. Q_2(i), and each step has degree p).

Elements of K_n are given by their coordinates in the power basis
1, zeta, ..., zeta^(phi-1) of the ring of integers, phi = phi(p^(n+s)) =
(p-1) p^(n+s-1), as `PadicScalar`s or packed (below).  Reduction has one home,
`fold`: on integers indexed by zeta-exponent t < 2q, q = p^(n+s), it applies
zeta^q = 1 (slot t adds into slot t - q) and then the cyclotomic relation
zeta^phi = -(1 + zeta^h + ... + zeta^((p-2)h)), h = p^(n+s-1) (the h slots
from phi up are subtracted from each of the p - 1 blocks of h below), with
slice operations.  The product kernel, the Galois loop, `zeta` and the c_3
matrices of `constants` all reduce through it.

The distinguished uniformizer chain is rho_n = zeta_n - 1 for odd p and
rho_n = 1 - zeta_n for p = 2; both satisfy N_{K_(n+1)/K_n}(rho_(n+1)) = rho_n
exactly (the sign flip at p = 2 is what keeps the chain norm compatible).
val is normalized so val(p) = 1, hence val(rho_n) = 1/phi.

Valuations are exact, not estimated, and read from x mod p alone: O/p is
F_p[X]/((X - 1)^phi) with zeta -> X, so val(x) is the shift plus k/phi, k
the multiplicity of X = 1 in the ints mod p, which `valuation` finds by
dividing by X^(p^j) - 1 = (X - 1)^(p^j).  The transform from zeta-coordinates
to the rho-power basis over Q_p is unipotent-triangular (a Pascal matrix).  One
generator, `_rho_digits`, runs it on plain ints in both directions (the
inverse only adds signs) as a Taylor shift with no binomial table: pass k
turns the entries from k up into their suffix sums, and coordinate k is
final after it.  `rho_power_coords` takes every coordinate, and every
sum_k c_k rho^k, over Q_p (`from_rho_power_coords`) or over K_0
(`from_rho_basis`), runs it backwards.  It also gives the lattice columns of
O_{K_m} at level n (`differentials.sublevel_columns`), from rho_m^i.  The way
to K_0-coefficients, `to_rho_basis`, is Euler's formula instead: one product
by g'(rho)^-1, then rho-shifts and integer sums against the quotients of the
minimal polynomial.  d/d(rho) needs no transform: `rho_derivative` is the
chain rule on zeta-coordinates, one pass over the ints.

Every element has one cap.  Products, powers, conjugates, traces and norms
run on one packed form, the triple (shift, digits, ints): every coordinate is
p^shift (ints[j] + O(p^digits)), with the least valuation and the cap over the
coordinates (`padic.pack`); digits = 0 is zero at cap shift.  One kernel,
`_product`, multiplies two triples as one big integer product (Kronecker
substitution) in slots of w bytes, w the size of phi max(xa) max(xb): the
ints the operands hold bound every slot, where their caps would overstate it
(a Newton step reads y, whose ints are below p^d, at cap 2d).  When w <= 8
the slots are cut from and read back into little-endian 8-byte words by
`struct` and w strided slice copies; wider slots are joined as bytes and cut
back by one cached `struct` of w-byte fields (`_encode`, `_decode`).  From
`KS2_BYTES` of operand (phi w) up, `_ks2` evaluates at +-2^(4w bits) instead
of at 2^(8w bits) (Harvey's KS2): two products of half the size in place of
one.  Either way the slots are exact.  It folds the slots and normalises: it
reduces mod p^digits and moves the common power of p into the shift, so its
output is exactly the packed form of the product.  `mul` is one kernel call
between two triples and `_unpack` (a rational or a scalar enters as its
`constant`, and an int only scales the ints); `power` and `norm_down` chain
kernel calls on triples; `galois_apply`, `trace_down` and `norm_down` share
one Galois loop on the ints, `_act`, a gather through a cached index map.
On a unit at one digit, Frobenius serves `power` (the p-part p^k of n) and
`norm_down` (N_{K_m/K_n}(x) = x^(p^(m-n)) mod p): mod p, x^(p^k) =
sum_j a_j zeta^(j p^k), one re-index and one `fold`.  Units are closed under
products, so the triple is square-and-multiply's and the conjugate product's;
a non-unit can be nilpotent mod p, where the caps differ.

A `TowerElement` is its triple: scalars given to it (JSON input, `add`) are
packed when it is built, by `padic.pack`, at their least cap.  `add` alone
sums coordinates, and packs its sum; `-`, and so `==`, is `_combine`, the
packed sum at the lesser cap.  Every other op reads and returns the triple,
normalised by `_normalise` (digits = 0 or some int is prime to p): `embed`
spreads the ints with stride p^k, `scale_p` moves the shift, the projectors
gather every p^k-th int, and `coeffs` builds the `PadicScalar`s on first
read, so a chain of packed ops builds none.  The
random elements draw their ints by `_draws`, randrange's own loop.

Inversion strips x = p^a rho^r u down to the unit u, each power of p a move of
the shift.  Mod p, u^-1 = res^-1 u^(q - 1) (Frobenius sends u^q to its residue
res), built by an Itoh-Tsujii chain of Frobenius re-indexes and products; then
Newton's method lifts it with precision doubling: one step at each of 2, 4,
8, ... digits and one at the cap.  A step makes its two products with `mul`
and its two sums with `_combine`, the packed sum at the lesser cap that
`norm_defect` also uses.  Each step first checks that the residual vanishes to
the digits already reached, and raises InsufficientPrecision if it does not,
so an unconverged inverse is never returned.  At p = 5, level 3 (phi = 500),
prec 60, one unit inversion runs 16 products (about 30 with Newton mod p), of
which 4 are at one digit and one is at 60 digits.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, chain, repeat
from math import gcd
from operator import add, itemgetter, mul, sub
from typing import Optional

from .errors import (
    DivisionByZeroPadic,
    DomainError,
    InsufficientPrecision,
    PadicError,
    ValuationOfZero,
    brief,
)
from .padic import CAP, PadicScalar, check_json, pack, vp

KS2_BYTES = 1024  # operand bytes phi w from which `_product` runs `_ks2`


def _encode(ints, w: int) -> int:
    """sum_j ints[j] 2^(8wj) for ints in [0, 2^(8w)): w-byte slots cut from
    packed little-endian 8-byte words when w <= 8, joined bytes otherwise."""
    if w > 8:
        joined = b"".join(map(int.to_bytes, ints, repeat(w), repeat("little")))
        return int.from_bytes(joined, "little")
    words = struct.pack(f"<{len(ints)}Q", *ints)
    buf = bytearray(len(ints) * w)
    for i in range(w):
        buf[i::w] = words[i::8]
    return int.from_bytes(buf, "little")


@lru_cache(maxsize=16)  # 35 KB each at n = 999; an inversion at phi 500 uses 10
def _slots(n: int, w: int) -> struct.Struct:
    """The struct that cuts n w-byte slots from a byte string."""
    return struct.Struct("<" + f"{w}s" * n)


def _decode(z: int, n: int, w: int):
    """The n w-byte slots of z, the inverse of `_encode`: read back through
    8-byte words when w <= 8, cut by one cached `_slots` struct otherwise."""
    zb = z.to_bytes(n * w, "little")
    if w > 8:
        return list(map(int.from_bytes, _slots(n, w).unpack(zb), repeat("little")))
    buf = bytearray(n * 8)
    for i in range(w):
        buf[i::8] = zb[i::w]
    return struct.unpack(f"<{n}Q", buf)


def _ks2(xa, xb, w: int) -> list:
    """The 2n - 1 slots of the product of two n-int rows in w-byte slots, by
    Harvey's KS2: each row split into even and odd ints E + X O, evaluated at
    X = +-2^(4w bits), gives two half-size products P+ and P-; (P+ + P-) / 2
    holds the even slots and (P+ - P-) / 2^(4w bits + 1) the odd ones, both in
    slots of w bytes.  ``xb is xa`` squares."""
    bits = 4 * w
    ea, oa = _encode(xa[::2], w), _encode(xa[1::2], w) << bits
    if xb is xa:
        plus, minus = (ea + oa) ** 2, (ea - oa) ** 2
    else:
        eb, ob = _encode(xb[::2], w), _encode(xb[1::2], w) << bits
        plus, minus = (ea + oa) * (eb + ob), (ea - oa) * (eb - ob)
    n = len(xa)
    zs = [0] * (2 * n - 1)
    zs[::2] = _decode((plus + minus) >> 1, n, w)
    zs[1::2] = _decode((plus - minus) >> (bits + 1), n - 1, w)
    return zs


def _draws(rng, bound: int, count: int) -> list:
    """[rng.randrange(bound) for _ in range(count)], values and generator state
    alike: randrange's own rejection loop on getrandbits, without its frames."""
    getrandbits, k, out = rng.getrandbits, bound.bit_length(), []
    for _ in range(count):
        r = getrandbits(k)
        while r >= bound:
            r = getrandbits(k)
        out.append(r)
    return out


@lru_cache(maxsize=64)
def _galois_index(q: int, phi: int, unit: int):
    """The gather of ints[j] into slot unit j mod q of q slots: slot t reads
    ints[t / unit], or the 0 appended at index phi when t / unit >= phi."""
    inverse = pow(unit, -1, q)
    return itemgetter(*[min(inverse * t % q, phi) for t in range(q)])


def _comb_row(n: int) -> list:
    """C(n, 0), ..., C(n, n), each from the one before (O(n) int steps)."""
    return list(accumulate(range(n), lambda c, j: c * (n - j) // (j + 1), initial=1))


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


@dataclass(frozen=True)
class TowerParams:
    p: int
    s: int
    max_level: int
    prec: int = 60

    def __post_init__(self):
        for name in ("p", "s", "max_level", "prec"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"{name} must be an int, got {brief(value)}")
        if self.p < 2:
            raise DomainError("p must be a prime")
        if self.max_level < 1:
            raise DomainError("max_level must be >= 1")
        if self.prec < 4:
            raise DomainError("prec must be >= 4")
        if self.prec > CAP:
            raise DomainError(f"prec exceeds the {CAP} cap")
        # The degree cap comes first and never forms p^(max_level + s - 1):
        # the loop stops once the degree passes the cap, and a p past the cap
        # never reaches the trial division below.
        top_degree = self.p - 1
        for _ in range(self.max_level + self.s - 1):
            if top_degree > CAP:
                break
            top_degree *= self.p
        if top_degree > CAP:
            raise DomainError(f"top field degree exceeds the {CAP} cap")
        if not _is_prime(self.p):
            raise DomainError(f"p = {self.p} is not prime")
        want_s = 2 if self.p == 2 else 1
        if self.s != want_s:
            raise DomainError(f"p = {self.p} requires s = {want_s}")


@dataclass(frozen=True)
class GaloisElement:
    """The automorphism zeta -> zeta^unit of K_level, unit coprime to p."""

    level: int
    unit: int
    modulus: int


class TowerElement:
    """An element of K_level with one cap, held as its packed triple (shift,
    digits, ints): every coordinate is p^shift (ints[j] + O(p^digits)), and
    digits = 0 is zero at cap shift.  Scalars given to the constructor are
    packed by `pack`, at their least cap; `coeffs` is the scalar view, built
    on first read.  Callers must not mutate the ints."""

    __slots__ = ("tower", "level", "_coeffs", "_packed")

    def __init__(self, tower: "CyclotomicTower", level: int, coeffs=None, packed=None):
        self.tower = tower
        self.level = level
        self._coeffs = None
        self._packed = pack(tuple(coeffs)) if packed is None else packed
        n = len(self._packed[2])
        if n != tower.phi(level):
            raise DomainError(f"level {level} needs {tower.phi(level)} coordinates, got {n}")

    @property
    def coeffs(self) -> tuple:
        if self._coeffs is None:
            shift, digits, ints = self._packed
            p, prec = self.tower.p, shift + digits
            bot = PadicScalar.bottom(p, prec)
            self._coeffs = tuple([PadicScalar.raw(p, shift, a, prec) if a else bot for a in ints])
        return self._coeffs

    @property
    def is_all_bottom(self) -> bool:
        return not self._packed[1]

    @property
    def cap(self) -> int:
        """The absolute precision of every coordinate."""
        shift, digits, _ = self._packed
        return shift + digits

    # ring ops go through the tower so caches are shared ------------------

    def __add__(self, other):
        return self.tower.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        tower, (shift, digits, ints) = self.tower, self._packed
        mod = tower.p ** digits
        return tower._unpack(self.level, (shift, digits, [-a % mod for a in ints]))

    def __sub__(self, other):
        return self.tower._combine(*self.tower._operands(self, other), -1)

    def __rsub__(self, other):
        x, y = self.tower._operands(self, other)
        return self.tower._combine(y, x, -1)

    def __mul__(self, other):
        return self.tower.mul(self, other)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        return self.tower.power(self, n)

    def __eq__(self, other):
        if not isinstance(other, (TowerElement, int, Fraction, PadicScalar, float)):
            return NotImplemented
        return (self - other).is_all_bottom

    __hash__ = None

    def __str__(self):
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_bottom:
                continue
            parts.append(f"({c})*z^{j}" if j else f"({c})")
        body = " + ".join(parts) if parts else f"O(level {self.level} zero)"
        return f"K[{self.level}]: {body}"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"level": self.level, "coeffs": [c.to_json() for c in self.coeffs]}


class CyclotomicTower:
    def __init__(self, params: TowerParams):
        self.params = params
        self.p = params.p
        self.s = params.s
        self.max_level = params.max_level
        self.prec = params.prec
        # zeta = 1 + rho_sign rho: rho = zeta - 1 for odd p, 1 - zeta for p = 2
        self.rho_sign = -1 if self.p == 2 else 1
        self._dual_basis = {}

    # -- static shape -----------------------------------------------------

    def _check_level(self, level: int):
        if not 0 <= level <= self.max_level:
            raise DomainError(f"level {brief(level)} outside tower (max {self.max_level})")

    def q(self, level: int) -> int:
        return self.p ** (level + self.s)

    def h(self, level: int) -> int:
        return self.p ** (level + self.s - 1)

    def phi(self, level: int) -> int:
        return (self.p - 1) * self.h(level)

    def ramification(self, level: int) -> int:
        """e(K_level / Q_p); equal to the degree since the tower is totally
        ramified."""
        return self.phi(level)

    def degree(self, level: int, base: int = 0) -> int:
        return self.p ** (level - base)

    def description(self) -> dict:
        return {
            "p": self.p,
            "s": self.s,
            "max_level": self.max_level,
            "prec": self.prec,
            "top_degree": self.phi(self.max_level),
        }

    # -- the cyclotomic relation ---------------------------------------------

    def fold(self, level: int, ints) -> list:
        """The power-basis coordinates of sum_t ints[t] zeta^t, t < 2q: the
        one home of the cyclotomic relation.  zeta^q = 1 adds slot t into slot
        t - q; then zeta^phi = -(1 + zeta^h + ... + zeta^((p-2)h)) subtracts
        the h slots from phi up from each of the p - 1 blocks of h below."""
        h = self.h(level)
        phi = (self.p - 1) * h
        q = phi + h
        if len(ints) > 2 * q:
            raise DomainError(f"fold takes at most {2 * q} slots, got {len(ints)}")
        out = list(ints[:q])
        if len(ints) > q:
            out[: len(ints) - q] = map(add, out, ints[q:])
        else:
            out += [0] * (q - len(ints))  # at p = 2 a product stops below q
        top = out[phi:]
        for lo in range(0, phi, h):
            out[lo : lo + h] = map(sub, out[lo : lo + h], top)
        del out[phi:]
        return out

    # -- constructors --------------------------------------------------------

    def zero(self, level: int, prec: Optional[int] = None) -> TowerElement:
        self._check_level(level)
        prec = self.prec if prec is None else prec
        return self._unpack(level, (prec, 0, [0] * self.phi(level)))

    def one(self, level: int, prec: Optional[int] = None) -> TowerElement:
        return self.constant(level, 1, prec)

    def constant(self, level: int, value, prec: Optional[int] = None) -> TowerElement:
        """A rational (an int, a bool as 0 or 1, a Fraction; a float is not
        the rational it was written as, so it is refused) at cap prec, or a
        scalar at its own cap, as a triple."""
        self._check_level(level)
        if not isinstance(value, (int, Fraction, PadicScalar)):
            raise DomainError(f"a tower constant is an int, Fraction or scalar, not {value!r}")
        if not isinstance(value, PadicScalar):
            value = PadicScalar.from_fraction(self.p, value, self.prec if prec is None else prec)
        elif value.p != self.p:
            raise DomainError("scalar prime differs from tower prime")
        shift, digits, ints = pack([value])
        return self._unpack(level, (shift, digits, ints + [0] * (self.phi(level) - 1)))

    def zeta(self, level: int, exponent: int = 1) -> TowerElement:
        self._check_level(level)
        q = self.q(level)
        one_hot = [0] * q
        one_hot[exponent % q] = 1
        return self.from_int_coeffs(level, self.fold(level, one_hot))

    def from_int_coeffs(self, level: int, ints, prec: Optional[int] = None) -> TowerElement:
        self._check_level(level)
        prec = self.prec if prec is None else prec
        phi = self.phi(level)
        ints = list(ints)
        if len(ints) > phi:
            raise DomainError("too many coordinates")
        ints += [0] * (phi - len(ints))
        return self._unpack(level, self._normalise(0, prec, ints))

    def uniformizer(self, level: int) -> TowerElement:
        """rho_level: zeta - 1 for odd p, 1 - zeta for p = 2 (the sign that
        makes the norm chain exact)."""
        return self.rho_power(level, 1)

    def rho_power(self, level: int, k: int, prec: Optional[int] = None) -> TowerElement:
        """rho_level^k for 0 <= k < phi: (zeta - 1)^k for odd p, (1 - zeta)^k
        for p = 2, expanded by the binomial theorem (no reduction happens
        below exponent phi)."""
        self._check_level(level)
        phi = self.phi(level)
        if not 0 <= k < phi:
            raise DomainError(f"rho_power wants 0 <= k < {phi}, got {k}")
        sign = (-self.rho_sign) ** k  # (s (zeta - 1))^k = (-s)^k (1 - zeta)^k
        coeffs = [-sign * c if j & 1 else sign * c for j, c in enumerate(_comb_row(k))]
        return self.from_int_coeffs(level, coeffs, prec)

    def element_from_json(self, obj: dict) -> TowerElement:
        """Element from ``{"level", "coeffs"}``; malformed input, a level
        outside the tower, the wrong coordinate count or scalars over another
        prime raise DomainError."""
        check_json(obj, "element json", level=int, coeffs=list)
        level = obj["level"]
        self._check_level(level)
        for c in obj["coeffs"]:
            p = c.get("p") if isinstance(c, dict) else None
            if type(p) is int and p != self.p:
                p = brief(p)
                raise DomainError(f"element json has a {p}-adic scalar in a {self.p}-adic tower")
        return TowerElement(self, level, [PadicScalar.from_json(c) for c in obj["coeffs"]])

    # -- addition ------------------------------------------------------------

    def _operands(self, x: TowerElement, y):
        """x and y at one level, the higher of the two: a constant y enters as
        its `constant` at x's level, and an element over another prime is
        refused (a different prec or max_level is allowed)."""
        if not isinstance(y, TowerElement):
            return x, self.constant(x.level, y)
        if y.tower.p != x.tower.p:
            raise DomainError(f"mixed primes {x.tower.p} and {y.tower.p}")
        if x.level < y.level:
            return self.embed(x, y.level), y
        return x, self.embed(y, x.level)

    def add(self, x: TowerElement, y) -> TowerElement:
        x, y = self._operands(x, y)
        # per coordinate until ROADMAP item 1: packed, it zeroes series-p5's padic rows
        return TowerElement(self, x.level, map(add, x.coeffs, y.coeffs))

    # -- the packed form and multiplication (Kronecker substitution) ----------

    def _unpack(self, level: int, packed) -> TowerElement:
        """The element holding only ``packed``, which must be normalised."""
        return TowerElement(self, level, packed=packed)

    def _normalise(self, shift: int, digits: int, acc):
        """(shift, digits, acc) with acc reduced mod p^digits and the common
        power of p moved into the shift: `pack` of the unpacked coordinates."""
        if digits <= 0:
            return shift + digits, 0, [0] * len(acc)  # nothing survives the cap
        mod = self.p ** digits
        ints = [a % mod for a in acc]
        g = gcd(mod, *ints)
        if g == 1:
            return shift, digits, ints
        k = vp(g, self.p)
        return shift + k, digits - k, [a // g for a in ints]

    def _product(self, level: int, a, b):
        """The one product kernel, on packed elements of one level: no slot of
        the product exceeds phi max(xa) max(xb), so w bytes hold each one.
        Operands of at least `KS2_BYTES` = 1 KB (phi w) multiply by `_ks2`,
        smaller ones as one Kronecker product.  Timed both ways at phi 16 to
        500 (CPython 3.11 without GMP, 2-core x86-64 VM), KS2 took 1.1-1.7x
        as long at 300-650 bytes, broke even at 800-1000 and took 0.55-0.93x
        from 1100 bytes up."""
        sa, da, xa = a
        sb, db, xb = b
        if not da or not db:
            # Nothing usable survives a product; only the cap is known.
            return min(sa + da + sb, sb + db + sa), 0, [0] * len(xa)
        phi, top = len(xa), max(xa)
        w = ((phi * top * (top if b is a else max(xb))).bit_length() + 7) // 8
        if phi * w >= KS2_BYTES:
            zs = _ks2(xa, xb, w)
        else:
            za = _encode(xa, w)
            z = za * za if b is a else za * _encode(xb, w)
            zs = _decode(z, 2 * phi - 1, w)
        return self._normalise(sa + sb, min(da, db), self.fold(level, zs))

    def mul(self, x: TowerElement, y) -> TowerElement:
        """x y on the triples.  By an int k the cap rises by vp(k).  Any other
        operand goes through `_operands`: a rational or a scalar c enters as
        its `constant` (anything else is refused there), and `_product`'s cap
        min(cap_x + val_c, shift_x + prec_c) is the scalar rule."""
        if isinstance(y, int):
            shift, digits, ints = x._packed
            t = vp(y, self.p) if y else 0
            return self._unpack(x.level, self._normalise(shift, digits + t, [a * y for a in ints]))
        x, y = self._operands(x, y)
        return self._unpack(x.level, self._product(x.level, x._packed, y._packed))

    def power(self, x: TowerElement, n: int) -> TowerElement:
        """x^n by square-and-multiply on the packed form of x, after
        `_frobenius` for the p-part of n on a unit at one digit."""
        if n < 0:
            return self.power(self.invert(x), -n)
        if n == 0:
            return self.one(x.level, x.cap)
        if n == 1:
            return x
        out = None
        acc = x._packed
        if n % self.p == 0 and self._unit_at_one_digit(acc):
            pk = self.p ** vp(n, self.p)
            acc, n = self._frobenius(x.level, acc[2], pk), n // pk
        while n:
            if n & 1:
                out = acc if out is None else self._product(x.level, out, acc)
            n >>= 1
            if n:
                acc = self._product(x.level, acc, acc)
        return self._unpack(x.level, out)

    def _unit_at_one_digit(self, packed) -> bool:
        """Whether a triple is a unit at one digit, where Frobenius is exact."""
        return packed[:2] == (0, 1) and sum(packed[2]) % self.p != 0

    def _frobenius(self, level: int, ints, pk: int):
        """x^pk for a unit x = sum_j ints[j] zeta^j at one digit: mod p it is
        sum_j ints[j] zeta^(j pk), one re-index.  j pk mod q depends on j mod
        q / gcd(pk, q), so the ints are summed over that period first."""
        q = self.q(level)
        step = gcd(pk, q)
        lanes = [ints[i : i + q // step] for i in range(0, len(ints), q // step)]
        moved = [0] * q
        moved[::step] = map(sum, zip(*lanes))
        return self._normalise(0, 1, self.fold(level, moved))

    # -- moving between levels ----------------------------------------------------

    def embed(self, x: TowerElement, level: int) -> TowerElement:
        """x in K_level, level >= x.level: the ints spread with stride p^k; x
        itself at its own level."""
        self._check_level(level)
        if x.level == level:
            return x
        if x.level > level:
            raise DomainError(f"cannot embed level {x.level} into lower level {level}")
        shift, digits, ints = x._packed
        spread = [0] * self.phi(level)
        spread[:: self.p ** (level - x.level)] = ints
        return self._unpack(level, (shift, digits, spread))

    # -- Galois ---------------------------------------------------------------------

    def galois_by_unit(self, level: int, unit: int) -> GaloisElement:
        self._check_level(level)
        q = self.q(level)
        unit %= q
        if unit % self.p == 0:
            raise DomainError("unit must be coprime to p")
        return GaloisElement(level, unit, q)

    def galois(self, level: int, t: int) -> GaloisElement:
        """t-th power of the distinguished generator sigma_(1+p^s) of
        Gal(K_level / K_0)."""
        g0 = 1 + self.p ** self.s
        return self.galois_by_unit(level, pow(g0, t, self.q(level)))

    def layer_generator(self, k: int, level: int) -> GaloisElement:
        """g_k = g_0^(p^k), the canonical generator of Gal(K_level / K_k)."""
        self._check_level(k)
        return self.galois(level, self.p ** k)

    def _act(self, level: int, unit: int, packed):
        """zeta -> zeta^unit on a packed element: the one Galois loop, a
        gather through `_galois_index`."""
        if unit == 1:
            return packed
        shift, digits, ints = packed
        moved = _galois_index(self.q(level), len(ints), unit)([*ints, 0])
        return self._normalise(shift, digits, self.fold(level, moved))

    def galois_apply(self, g: GaloisElement, x: TowerElement) -> TowerElement:
        """g(x) on the triple of x."""
        if g.level != x.level:
            raise DomainError("automorphism level does not match element level")
        return self._unpack(x.level, self._act(x.level, g.unit, x._packed))

    def relative_galois(self, level: int):
        """The p automorphisms of K_level fixing K_(level-1)."""
        if level < 1:
            raise DomainError("level 0 has no relative layer")
        h = self.h(level)
        return [self.galois_by_unit(level, 1 + c * h) for c in range(self.p)]

    def _fold_conjugates(self, x: TowerElement, level: int, combine, what: str):
        """Combine the conjugates of x one layer at a time down to ``level``
        (``combine(layer, conjugates)`` on packed elements), restricting after
        each layer.  x is packed once and the result unpacked once."""
        self._check_level(level)
        if level > x.level:
            raise DomainError(f"{what} target above element level")
        if x.level == level:
            return x
        packed = x._packed
        for top in range(x.level, level, -1):
            conjugates = [self._act(top, g.unit, packed) for g in self.relative_galois(top)]
            shift, digits, ints = combine(top, conjugates)
            for j, a in enumerate(ints):
                if a and j % self.p:
                    raise DomainError(
                        f"coordinate {j} is nonzero; element not in level {top - 1}"
                    )
            packed = shift, digits, ints[:: self.p]
        return self._unpack(level, packed)

    def _sum(self, level: int, conjugates):
        """The elementwise sum of packed conjugates, which share one shift
        and one digit count because the Galois action keeps both."""
        shift, digits, _ = conjugates[0]
        if any(c[:2] != (shift, digits) for c in conjugates):
            raise PadicError("conjugates of one element differ in shift or digits")
        sums = [sum(col) for col in zip(*(c[2] for c in conjugates))]
        return self._normalise(shift, digits, sums)

    def trace_down(self, x: TowerElement, level: int) -> TowerElement:
        """Tr_{K_m/K_level}(x) by honest conjugate sums, one layer at a time."""
        return self._fold_conjugates(x, level, self._sum, "trace")

    def norm_down(self, x: TowerElement, level: int) -> TowerElement:
        """N_{K_m/K_level}(x) by honest conjugate products, one layer at a time,
        but for a unit at one digit: N(x) = x^(p^k) mod p, k = m - level
        (Coleman), and its conjugate products stay at (0, 1, .), so its triple is
        `_frobenius`'s cut with stride p^k (the re-index lands on exponents that
        p^k divides, and so does h).  A non-unit can vanish mod p at another cap."""
        self._check_level(level)
        if level < x.level and self._unit_at_one_digit(x._packed):
            pk = self.p ** (x.level - level)
            shift, digits, ints = self._frobenius(x.level, x._packed[2], pk)
            return self._unpack(level, (shift, digits, ints[::pk]))
        return self._fold_conjugates(
            x, level, lambda top, cs: reduce(partial(self._product, top), cs), "norm"
        )

    def norm_defect(self, x: TowerElement, level: int) -> TowerElement:
        """N_{K_m/K_level}(x) - x^(p^(m-level)) in K_m, m = x.level: the
        embedded norm and the power in one `_combine`."""
        norm = self.embed(self.norm_down(x, level), x.level)
        return self._combine(norm, self.power(x, self.degree(x.level, level)), -1)

    def _combine(self, x: TowerElement, y: TowerElement, sign: int) -> TowerElement:
        """x + sign y on the triples of two elements of one level: the ints
        are aligned to the lesser shift and summed at the lesser cap, the cap
        `add` reaches per coordinate.  `-`, `==` and Newton's steps run on it."""
        sx, dx, xs = x._packed
        sy, dy, ys = y._packed
        shift = min(sx, sy)
        kx, ky = self.p ** (sx - shift), sign * self.p ** (sy - shift)
        out = [a * kx + b * ky for a, b in zip(xs, ys)]
        return self._unpack(x.level, self._normalise(shift, min(sx + dx, sy + dy) - shift, out))

    # -- normalized trace and perp projections ------------------------------------

    def normalized_trace(self, x: TowerElement, level: int) -> TowerElement:
        """R_level(x) = p^-(m-level) Tr_{K_m/K_level}(x).

        In zeta-coordinates this is exactly the gather of the exponents
        divisible by p^(m-level); the denominator p^(m-level) never appears,
        which is what makes the perp decomposition below exact.
        """
        return self._gather(x, level, False)

    def perp_project(self, x: TowerElement, level: int) -> TowerElement:
        """R_level - R_(level-1) for level >= 1; R_0 itself for level 0.
        Result lives at `level`: the R_level gather with the slots divisible
        by p cleared."""
        return self._gather(x, level, level > 0)

    def _gather(self, x: TowerElement, level: int, perp: bool) -> TowerElement:
        """Every p^(m-level)-th int of x's triple, m = x.level (x embedded
        when level >= m), with the slots divisible by p cleared if ``perp``."""
        self._check_level(level)
        if level >= x.level:
            x = self.embed(x, level)
        shift, digits, ints = x._packed
        ints = ints[:: self.p ** (x.level - level)]
        if perp:
            ints = [a if j % self.p else 0 for j, a in enumerate(ints)]
        return self._unpack(level, self._normalise(shift, digits, ints))

    # -- exact valuation ------------------------------------------------------------

    def _rho_digits(self, ints, digits: int, inverse: bool = False):
        """Yield c_k mod p^digits for k < len(ints): the Pascal transform from
        zeta- to rho-coordinates of ints, or back with inverse=True.

        zeta = 1 + s rho with s = `rho_sign`, so the way there is
        c_k = s^k sum_(j>=k) C(j,k) a_j, and rho = s (zeta - 1) gives the way
        back, a_j = (-1)^j sum_(k>=j) C(k,j) (-s)^k c_k: the same sums with
        signs, and at p = 2 the same sum.  No cyclotomic reduction enters
        below exponent phi.  The sums are a Taylor shift: pass k turns the
        entries from k up into their suffix sums, after which entry j holds
        sum_(i>=j) C(i-j+k, k) a_i, so entry k is final.  The ints are kept
        reversed and exact: each pass is one `accumulate`, and pops entry k.
        """
        mod = self.p ** digits
        if inverse and self.rho_sign > 0:
            ints = [-a if j & 1 else a for j, a in enumerate(ints)]
        flip = inverse or self.rho_sign < 0
        rev = ints[::-1]
        for k in range(len(rev)):
            *rev, c = accumulate(rev)
            yield (-c if flip and k & 1 else c) % mod

    def rho_power_coords(self, x: TowerElement):
        """Q_p coordinates of x in the basis 1, rho, ..., rho^(phi-1)."""
        sx, dx, ints = x._packed
        if not dx:
            return [PadicScalar.bottom(self.p, sx)] * self.phi(x.level)
        return [PadicScalar.raw(self.p, sx, c, sx + dx) for c in self._rho_digits(ints, dx)]

    def from_rho_power_coords(self, level: int, ints, prec: Optional[int] = None) -> TowerElement:
        """sum_k ints[k] rho_level^k over Q_p at cap prec, the inverse of
        `rho_power_coords` on the ints, as `from_int_coeffs` reads them."""
        self._check_level(level)
        ints, phi = list(ints), self.phi(level)
        if len(ints) != phi:
            raise DomainError(f"level {level} needs {phi} coordinates, got {len(ints)}")
        shift, digits, ints = self._normalise(0, self.prec if prec is None else prec, ints)
        out = list(self._rho_digits(ints, digits, inverse=True))
        return self._unpack(level, (shift, digits, out))

    def valuation(self, x: TowerElement) -> Fraction:
        """Exact valuation with val(p) = 1; raises ValuationOfZero when the
        element is indistinguishable from zero at its precision.

        O/p = F_p[X]/((X - 1)^phi) with zeta -> X, and after `_normalise` the
        ints mod p are a nonzero f of degree < phi, so val(x) = shift + k/phi
        at any cap, k < phi the multiplicity of X = 1 in f.  Over F_p,
        X^m - 1 = (X - 1)^m for m = p^j.  From m = h = p^(level+s-1) down, one
        `accumulate` over f's (at most p) blocks of m gives f mod X^m - 1, the
        residue-class sums, and the quotient, the strided suffix sums.  If the
        classes are 0 mod p, f becomes the quotient and k grows by m; if not,
        k < m, so f becomes the classes, of the same multiplicity, and m drops
        to m/p.  A unit costs one sum.
        """
        sx, dx, ints = x._packed
        if not dx:
            raise ValuationOfZero("element is zero at working precision")
        p, phi = self.p, len(ints)
        f, k, m = ints, 0, self.h(x.level)  # f is read mod p: no reduction needed
        while m and sum(f) % p == 0:  # len(f) stays a multiple of m
            blocks = reversed([f[i : i + m] for i in range(0, len(f), m)])
            *quotient, classes = accumulate(blocks, lambda a, b: [*map(add, a, b)])
            if any(c % p for c in classes):
                f, m = classes, m // p
            else:
                f, k = [*chain.from_iterable(quotient[::-1])], k + m
        return Fraction(sx * phi + k, phi)

    def valuation_or_none(self, x: TowerElement) -> Optional[Fraction]:
        """`valuation`, or None when x vanishes at its cap: the one reading
        of a bottom valuation.  Vanishing at its cap = no constraint, so on
        None a caller skips its test or takes the bound the cap implies (x =
        O(p^cap) has val(x) >= cap).  `valuation` still raises for a caller
        that wants the error."""
        return None if x.is_all_bottom else self.valuation(x)

    # -- d/d rho, the minimal polynomials' derivatives and the rho expansion ----------

    def rho_derivative(self, x: TowerElement, period: int) -> TowerElement:
        """dx/d(rho) = s sum_j (j mod period) a_j zeta^(j-1) for x = sum_j a_j
        zeta^j, s = `rho_sign`: the chain rule on zeta = 1 + s rho, with
        zeta^period constant (d = p^n over K_0, where zeta^d = zeta_0; phi
        over Q_p), in one pass over the triple; no index reaches phi.  The cap
        is min(x.cap, prec); at period 1 every term is zero, at cap prec."""
        shift, digits, ints = x._packed
        acc = [self.rho_sign * (j % period) * ints[j] for j in range(1, len(ints))] + [0]
        cap = self.prec if period == 1 else min(shift + digits, self.prec)
        return self._unpack(x.level, self._normalise(shift, cap - shift, acc))

    def minpoly_derivative_at_rho(self, level: int, prec=None, over_qp=False) -> TowerElement:
        """g'(rho_level) = s f'(zeta) in closed form, g(X) = f(1 + sX) the
        minimal polynomial of rho_level over K_0, f = Y^(p^n) - zeta_0, or over
        Q_p with ``over_qp``, f = Phi_q(Y) = sum_(i<p) Y^(ih)."""
        self._check_level(level)
        m, top = (self.h(level), self.p) if over_qp else (self.degree(level), 2)
        coeffs = [0] * self.phi(level)
        for i in range(1, top):
            coeffs[i * m - 1] = self.rho_sign * i * m
        return self.from_int_coeffs(level, coeffs, prec)

    def _dual_data(self, level: int):
        """(g'(rho)^-1, rows), cached.  By Euler's formula the trace-dual basis of
        1, rho, ..., rho^(d-1) over K_0 is q_i / g'(rho), q_i = sum_(k>i) g_k
        rho^(k-i-1) the quotients of g = (1 + sX)^d - 1 - s rho_0 (d = p^n) by
        X - rho; g_k = C(d, k) s^k (rho-coordinate k of zeta^d = zeta_0), and row
        i is the normalised triple of (g_(i+1), ..., g_d) at the working prec."""
        got = self._dual_basis.get(level)
        if got is None:
            d, s = self.degree(level), self.rho_sign
            g = [c * s ** k for k, c in enumerate(_comb_row(d))]
            rows = [self._normalise(0, self.prec, g[i + 1 :]) for i in range(d)]
            # extra headroom so dividing by p^level costs no working digits
            gp = self.minpoly_derivative_at_rho(level, self.prec + level)
            got = self._dual_basis[level] = self.invert(gp), rows
        return got

    def to_rho_basis(self, x: TowerElement) -> tuple:
        """The c_i in K_0 of x = sum_i c_i rho^i, by Euler's formula
        (`_dual_data`): c_i = Tr_{K_n/K_0}(y q_i) = p^n R_0(y q_i) for the one
        product y = x g'(rho)^-1.  y q_i = sum_k row_i[k] y rho^k, so lane t of
        R_0(y q_i) sums row i against int d t of y, y rho, ..., y rho^(d-1);
        y rho is y shifted one slot through `fold`, minus y (the reverse at
        p = 2).  The cap is that of the product y q_i, min(d_y, d_q) digits
        above the shift s_y + s_q, and p^n moves the shift."""
        level = x.level
        if level == 0:
            return (x,)
        d = self.degree(level)
        gp_inv, rows = self._dual_data(level)
        sy, dy, ints = self.mul(x, gp_inv)._packed
        gathers = [ints[::d]]
        for _ in range(d - 1):
            zy = self.fold(level, [0, *ints])
            ints = list(map(sub, zy, ints) if self.rho_sign > 0 else map(sub, ints, zy))
            gathers.append(ints[::d])
        lanes = list(zip(*gathers))
        coeffs = []
        for sq, dq, row in rows:
            lane = [sum(map(mul, row, t)) for t in lanes]
            coeffs.append(self._unpack(0, self._normalise(sy + level + sq, min(dy, dq), lane)))
        return tuple(coeffs)

    def from_rho_basis(self, level: int, coeffs) -> TowerElement:
        """sum_i c_i rho_level^i for level-0 coefficients c_i, read through
        their triples at the least shift and cap.  zeta_n^d = zeta_0 for d =
        p^n, so the zeta_n-coordinate i + d t of the sum is coordinate i of the
        inverse Pascal transform of lane t, (c_0[t], ..., c_(d-1)[t])."""
        self._check_level(level)
        d = self.degree(level)
        if len(coeffs) != d:
            raise DomainError(f"need {d} coefficients, got {len(coeffs)}")
        if any(c.level for c in coeffs):
            raise DomainError("rho expansion coefficients must lie in K_0")
        if level == 0:
            return coeffs[0]
        packs = [c._packed for c in coeffs]
        shift = min(sc for sc, _, _ in packs)
        digits = min(sc + dc for sc, dc, _ in packs) - shift
        if not digits:
            return self.zero(level, shift)
        cols = [[a * self.p ** (sc - shift) for a in ints] for sc, _, ints in packs]
        out = []
        for lane in zip(*cols):
            out += self._rho_digits(lane, digits, inverse=True)
        return self._unpack(level, (shift, digits, out))

    # -- inversion -----------------------------------------------------------------------

    def truncate(self, x: TowerElement, digits: int) -> TowerElement:
        """x with every coordinate cut to absolute precision p^digits; x
        itself when digits is its cap.  Raising the cap is not possible.  The
        packed ints are cut mod p^(digits - shift)."""
        if digits == x.cap:
            return x
        if digits > x.cap:
            raise InsufficientPrecision(f"cannot raise cap {x.cap} to {digits}")
        shift, _, ints = x._packed
        return self._unpack(x.level, self._normalise(shift, digits - shift, ints))

    def scale_p(self, x: TowerElement, k: int) -> TowerElement:
        """x p^k, exactly: the triple's shift moves by k."""
        shift, digits, ints = x._packed
        return self._unpack(x.level, (shift + k, digits, ints))

    def invert(self, x: TowerElement) -> TowerElement:
        """x^-1 via the exact factorization x = p^a rho^r u: strip the p and
        rho parts (rho^(e-r) brings the valuation to an integer), then invert
        the unit u, mod p by Frobenius and then by Newton's method with
        precision doubling (`_invert_unit`), which raises InsufficientPrecision
        rather than return an unchecked inverse."""
        t = self.valuation_or_none(x)
        if t is None:
            raise DivisionByZeroPadic("cannot invert zero at working precision")
        e = self.ramification(x.level)
        a, r = divmod(int(t * e), e)
        if r == 0:
            return self.scale_p(self._invert_unit(self.scale_p(x, -a)), -a)
        rho = self.rho_power(x.level, e - r, x._packed[1] + 2)
        z = self.scale_p(self.mul(x, rho), -(a + 1))
        if z.cap < 1:
            # val(x) lies within one digit of the cap: x rho^(e-r) is zero mod
            # the cap, so no digit of the unit part survives the shift
            raise InsufficientPrecision(
                f"val {t} is too close to cap {x.cap} to strip rho^{r}"
            )
        return self.scale_p(self.mul(self._invert_unit(z), rho), -(a + 1))

    def _invert_unit(self, z: TowerElement) -> TowerElement:
        """The inverse of a unit z mod p^cap (cap = z.cap), at uniform prec cap.

        Mod p it is a formula.  Frobenius re-indexes, z^(p^J) = sum_j a_j
        zeta^(j p^J) mod p, and once q = p^(level+s) divides p^J every zeta^j
        goes to 1, so z^(p^J) = res, the residue sum_j a_j.  With J = level +
        s, z^-1 = res^-1 z^(p^J - 1) mod p, and p^J - 1 = (p - 1)(1 + p + ...
        + p^(J-1)).  So v = z^(p-1) (`power` on z mod p), and the Itoh-Tsujii
        chain (Inform. and Comput. 78, 1988) builds a_J = v^(1 + p + ... +
        p^(J-1)) over the bits of J: a_(2k) = a_k Frob^k(a_k) and a_(k+1) =
        Frob(a_k) v.  Each Frob^k is one `_frobenius` re-index, exact on a
        unit at one digit, and each step one `_product`: 4 products at p = 5,
        level 3, where Newton's mod-p loop made about 18.

        Newton's step y <- y + y(1 - zy) squares the residual 1 - zy, so it
        lifts at the precision the step can reach: one step at each of 2, 4,
        8, ... digits, and one at cap, on z truncated to that many digits.
        Before a step from d digits the residual must vanish mod p^d, or this
        raises InsufficientPrecision.  That check proves the last step (z y' =
        1 - (1 - zy)^2 is 1 mod p^(2d), so no product at cap follows it), and
        the first one the formula mod p; at cap 1 one product checks it.
        """
        p, level = self.p, z.level
        shift, digits, ints = z._packed
        if shift < 0 and digits:
            raise DomainError("unit inversion got a non-integral element")
        res = sum(ints) % p if shift == 0 else 0  # zeta = 1 mod rho
        if res == 0:
            raise DomainError("unit inversion got an element of positive valuation")
        cap = z.cap
        e1 = [1] + [0] * (len(ints) - 1)
        v = a = self.power(self.truncate(z, 1), p - 1)._packed
        k = 1
        for bit in bin(level + self.s)[3:]:
            a, k = self._product(level, a, self._frobenius(level, a[2], p ** k)), 2 * k
            if bit == "1":
                a, k = self._product(level, self._frobenius(level, a[2], p), v), k + 1
        inv = pow(res, -1, p)
        y = self._unpack(level, self._normalise(0, 1, [c * inv for c in a[2]]))
        if cap == 1:
            err = self._combine(self._unpack(level, (0, 1, e1)), self.mul(z, y), -1)
            if not err.is_all_bottom:
                raise InsufficientPrecision("the Frobenius inverse is not the inverse mod p")
        d = 1
        while d < cap:
            new = min(2 * d, cap)
            sy, _, ys = y._packed  # y mod p^d, read at cap new
            y, z_d = self._unpack(level, (sy, new - sy, ys)), self.truncate(z, new)
            err = self._combine(self._unpack(level, (0, new, e1)), self.mul(z_d, y), -1)
            if err._packed[0] < d:
                raise InsufficientPrecision(
                    f"Newton residual is not zero mod p^{d} on the way to p^{new}"
                )
            y = self._combine(y, self.mul(y, err), 1)
            d = new
        return y

    # -- randomness ---------------------------------------------------------------------

    def random_integral(self, level: int, rng) -> TowerElement:
        """phi(level) coordinates drawn mod p^prec by `_draws`, as randrange
        draws them."""
        self._check_level(level)
        return self.from_int_coeffs(level, _draws(rng, self.p ** self.prec, self.phi(level)))

    def random_unit(self, level: int, rng) -> TowerElement:
        """The draw of `random_integral`, plus 1 when it is 0 mod rho: zeta =
        1 mod rho, so x mod rho is the sum of the coordinates mod p."""
        self._check_level(level)
        ints = _draws(rng, self.p ** self.prec, self.phi(level))
        if sum(ints) % self.p == 0:
            ints[0] += 1
        return self.from_int_coeffs(level, ints)
