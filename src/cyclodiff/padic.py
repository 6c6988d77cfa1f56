"""Capped-precision p-adic scalars.

A scalar is stored as ``unit * p**val`` known modulo ``p**prec``:

* ``prec`` is an *absolute* cap: nothing about the number is claimed at or
  beyond p^prec.
* ``val`` is the exact valuation, ``unit`` an integer prime to p reduced
  modulo ``p**(prec - val)`` (the relative precision).
* An element indistinguishable from zero at the cap, written O(p^prec), has
  ``val is None`` and ``unit == 0``.  It is a first-class value, not an error:
  arithmetic propagates it with the correct (possibly larger) cap and the
  predicates on it stay conservative.

Precision bookkeeping follows the usual ultrametric rules: addition keeps the
smaller cap, multiplication keeps min(prec_a + val_b, prec_b + val_a), and
inversion of x with valuation v yields prec - 2v.  All of these are sharp, so
equalities asserted by the callers hold exactly, not just heuristically.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    DivisionByZeroPadic,
    DomainError,
    InsufficientPrecision,
    ValuationOfZero,
)

CAP = 4096  # on a tower's prec and degree, and on each JSON scalar's prec and val


def vp(n: int, p: int) -> int:
    """Exact p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValuationOfZero("vp(0) is undefined")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def check_json(obj, what: str, **fields) -> None:
    """Raise DomainError unless ``obj`` is a JSON object holding every named
    field with one of its given types (a JSON boolean is never an int)."""
    if not isinstance(obj, dict):
        raise DomainError(f"{what} must be a JSON object")
    for key, types in fields.items():
        if key not in obj:
            raise DomainError(f"{what} missing key {key!r}")
        if isinstance(obj[key], bool) or not isinstance(obj[key], types):
            raise DomainError(f"{what} key {key!r} has the wrong type")


def pack(scalars):
    """(shift, digits, ints), scalar j being p^shift * (ints[j] + O(p^digits)):
    the one place a sequence of scalars becomes a packed triple.  One shift
    (the least valuation, a bottom counting at its cap) and one cap (the least
    prec, so ragged caps are read at the least one) for the whole batch, and
    ints[j] = ``rep_mod(digits, shift)``: digits = 0 (zero at cap shift) or
    some int is prime to p.  No scalars pack to (0, 0, [])."""
    shift = min((c.prec if c.val is None else c.val for c in scalars), default=0)
    digits = min((c.prec for c in scalars), default=shift) - shift
    return shift, digits, [c.rep_mod(digits, shift) for c in scalars]


class PadicScalar:
    __slots__ = ("p", "prec", "val", "unit")

    def __init__(self, p: int, prec: int, val, unit: int):
        # Internal constructor: inputs must already be normalized.  Use the
        # classmethods below to build values.
        self.p = p
        self.prec = prec
        self.val = val
        self.unit = unit

    # -- constructors --------------------------------------------------

    @classmethod
    def bottom(cls, p: int, prec: int) -> "PadicScalar":
        """The class O(p^prec): zero as far as this precision can tell."""
        if p < 2:
            raise DomainError(f"p must be >= 2, got {p}")
        return cls(p, prec, None, 0)

    @classmethod
    def raw(cls, p: int, val: int, unit: int, prec: int) -> "PadicScalar":
        """Normalize ``unit * p**val + O(p**prec)``.

        ``unit`` may be any integer (reduced here), and p-factors of it are
        folded into ``val``.  Collapses to bottom when nothing survives the
        cap.
        """
        if p < 2:
            raise DomainError(f"p must be >= 2, got {p}")
        m = prec - val
        if m <= 0:
            return cls(p, prec, None, 0)
        u = unit % (p ** m)
        if u == 0:
            return cls(p, prec, None, 0)
        t = vp(u, p)
        if t:
            val += t
            m -= t
            if m <= 0:
                return cls(p, prec, None, 0)
            u //= p ** t
        return cls(p, prec, val, u)

    @classmethod
    def from_int(cls, p: int, n: int, prec: int) -> "PadicScalar":
        return cls.raw(p, 0, n, prec)

    @classmethod
    def from_fraction(cls, p: int, x, prec: int) -> "PadicScalar":
        """Exact rational -> scalar known mod p^prec.  Denominators divisible
        by p are allowed and produce negative valuations."""
        x = Fraction(x)
        if x == 0:
            return cls.bottom(p, prec)
        num, den = x.numerator, x.denominator
        vnum = vp(num, p)
        vden = vp(den, p)
        val = vnum - vden
        m = prec - val
        if m <= 0:
            return cls(p, prec, None, 0)
        a = num // p ** vnum
        b = den // p ** vden
        u = (a * pow(b, -1, p ** m)) % (p ** m)
        return cls(p, prec, val, u)

    # -- predicates and accessors ---------------------------------------

    @property
    def is_bottom(self) -> bool:
        return self.val is None

    def valuation(self) -> int:
        if self.val is None:
            raise ValuationOfZero(f"element is O({self.p}^{self.prec})")
        return self.val

    def rep_mod(self, digits: int, shift: int = 0) -> int:
        """Integer representative of ``self / p**shift`` modulo p^digits.

        The caller must pick ``shift <= val`` and ``digits <= prec - shift``;
        violations raise rather than silently returning garbage.
        """
        if digits > self.prec - shift:
            raise InsufficientPrecision(
                f"need {digits} digits above shift {shift}, have cap {self.prec}"
            )
        if self.val is None:
            return 0
        if self.val < shift:
            raise DomainError(f"valuation {self.val} below shift {shift}")
        return (self.unit * self.p ** (self.val - shift)) % (self.p ** digits)

    # -- arithmetic ------------------------------------------------------

    def _check_same_p(self, other: "PadicScalar"):
        if self.p != other.p:
            raise DomainError(f"mixed primes {self.p} and {other.p}")

    def __add__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(self.p, other, self.prec)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        self._check_same_p(other)
        prec = min(self.prec, other.prec)
        if self.val is None:
            if other.val is None:
                return PadicScalar(self.p, prec, None, 0)
            return PadicScalar.raw(self.p, other.val, other.unit, prec)
        if other.val is None:
            return PadicScalar.raw(self.p, self.val, self.unit, prec)
        if self.val <= other.val:
            lo, hi = self, other
        else:
            lo, hi = other, self
        u = lo.unit + hi.unit * self.p ** (hi.val - lo.val)
        return PadicScalar.raw(self.p, lo.val, u, prec)

    __radd__ = __add__

    def __neg__(self):
        if self.val is None:
            return self
        return PadicScalar(self.p, self.prec, self.val, self.p ** (self.prec - self.val) - self.unit)

    def __sub__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(self.p, other, self.prec)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            # Exact integer: no precision is lost, the cap even rises with
            # the integer's own p-valuation.
            if other == 0:
                return PadicScalar(self.p, self.prec, None, 0)
            t = vp(other, self.p)
            if self.val is None:
                return PadicScalar(self.p, self.prec + t, None, 0)
            return PadicScalar.raw(
                self.p, self.val + t, self.unit * (other // self.p ** t), self.prec + t
            )
        if not isinstance(other, PadicScalar):
            return NotImplemented
        self._check_same_p(other)
        if self.val is None and other.val is None:
            return PadicScalar(self.p, self.prec + other.prec, None, 0)
        if self.val is None:
            return PadicScalar(self.p, self.prec + other.val, None, 0)
        if other.val is None:
            return PadicScalar(self.p, other.prec + self.val, None, 0)
        prec = min(self.prec + other.val, other.prec + self.val)
        val = self.val + other.val
        u = (self.unit * other.unit) % (self.p ** (prec - val))
        return PadicScalar.raw(self.p, val, u, prec)

    __rmul__ = __mul__

    def invert(self) -> "PadicScalar":
        if self.val is None:
            raise DivisionByZeroPadic(f"cannot invert O({self.p}^{self.prec})")
        m = self.prec - self.val
        u = pow(self.unit, -1, self.p ** m)
        return PadicScalar(self.p, self.prec - 2 * self.val, -self.val, u)

    def shift(self, k: int) -> "PadicScalar":
        """Multiply by the exact power p**k (k may be negative)."""
        if self.val is None:
            return PadicScalar(self.p, self.prec + k, None, 0)
        return PadicScalar(self.p, self.prec + k, self.val + k, self.unit)

    def truncate(self, prec: int) -> "PadicScalar":
        """Forget digits beyond p^prec.  Raising the cap is not possible."""
        if prec > self.prec:
            raise InsufficientPrecision(f"cannot raise cap {self.prec} to {prec}")
        if self.val is None:
            return PadicScalar(self.p, prec, None, 0)
        return PadicScalar.raw(self.p, self.val, self.unit, prec)

    # -- comparison and io ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = PadicScalar.from_int(self.p, other, self.prec)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        if self.p != other.p:
            return False
        return (self - other).is_bottom

    __hash__ = None  # equality is only "equal at shared precision"

    def __str__(self):
        if self.val is None:
            return f"O({self.p}^{self.prec})"
        if self.val == 0:
            return f"{self.unit} + O({self.p}^{self.prec})"
        return f"{self.p}^{self.val}*{self.unit} + O({self.p}^{self.prec})"

    def __repr__(self):
        if self.val is None:
            return f"PadicScalar.bottom({self.p}, {self.prec})"
        return f"PadicScalar.raw({self.p}, {self.val}, {self.unit}, {self.prec})"

    def to_json(self) -> dict:
        return {"p": self.p, "val": self.val, "unit": self.unit, "prec": self.prec}

    @classmethod
    def from_json(cls, obj: dict) -> "PadicScalar":
        check_json(obj, "scalar json", p=int, val=(int, type(None)), unit=int, prec=int)
        for key in ("val", "prec"):
            if obj[key] is not None and abs(obj[key]) > CAP:
                raise DomainError(f"scalar json key {key!r} exceeds the {CAP} cap")
        if obj["val"] is None:
            return cls.bottom(obj["p"], obj["prec"])
        if obj["val"] >= obj["prec"]:
            raise DomainError(f"scalar json val {obj['val']} is not below its prec {obj['prec']}")
        return cls.raw(obj["p"], obj["val"], obj["unit"], obj["prec"])
