"""Exact scalars for a p-adic base field and its unramified quadratic extension.

The base field is modeled by the rationals carrying the p-adic valuation
(``p`` an odd prime, uniformizer fixed to ``p`` itself).  The quadratic
extension adjoins ``sqrt(u)`` for ``u`` the smallest positive non-residue
unit mod p; the "split" tag means no extension at all.  A second, finite
mode truncates everything to ``Z/p^N`` (resp. its quadratic extension),
which is what all exhaustive enumerations run over.  ``N = 1`` gives the
finite fields F_p and F_{p^2}.

Every scalar a + b*sqrt(u) is stored as three plain integers (x, y, d)
with a = x/d and b = y/d.  Exact scalars share one denominator d > 0 and
are kept in lowest terms, gcd(x, y, d) = 1, so that equal values have
equal storage and equality and hashing read the integers directly.
Truncated scalars store their residues 0 <= x, y < p^N with d = 1.  The
read-only views ``a`` and ``b`` give the components as
``Fraction`` (exact) or ``int`` (truncated).  Matrices do not hold
these objects: a ``Mat`` stores integer components, decodes an entry
into a scalar only where it is read, and runs its arithmetic, Galois
conjugation and reduction mod p^N on those integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

INF = math.inf

SPLIT = "split"
INERT = "inert"


class NotIntegralError(ValueError):
    """Raised when an operation requires valuation >= 0 and the input fails."""


class NotUnitError(ZeroDivisionError):
    """Division by a non-unit in a truncated ring."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@lru_cache(maxsize=None)
def smallest_nonresidue(p: int) -> int:
    """Smallest positive quadratic non-residue unit mod p."""
    for u in range(2, p):
        if pow(u, (p - 1) // 2, p) == p - 1:
            return u
    raise ValueError(f"no quadratic non-residue mod {p}")


def val_int(n: int, p: int):
    if n == 0:
        return INF
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_fraction(x: Fraction, p: int):
    """p-adic valuation of a rational; INF for zero."""
    if x == 0:
        return INF
    return val_int(x.numerator, p) - val_int(x.denominator, p)


def canonical_residue(x: Fraction, p: int, N: int) -> int:
    """The integer in [0, p^N) congruent to x, for x with val >= 0."""
    x = Fraction(x)
    if val_fraction(x, p) < 0:
        raise NotIntegralError(f"{x} has negative {p}-adic valuation")
    m = p**N
    return x.numerator * pow(x.denominator, -1, m) % m


@dataclass(frozen=True)
class Ring:
    """Scalar ring context: (p, extension tag, optional truncation precision).

    ``prec=None`` means exact rational arithmetic; ``prec=N`` means Z/p^N
    (with sqrt(u) adjoined in the inert case).  The modulus, ``u`` and the
    constants 0 and 1 are computed once per ring.  Rings that differ only in
    precision are shared through ``truncated``, so the arithmetic can
    recognise operands of the same ring by identity.
    """

    p: int
    ext: str = SPLIT
    prec: int | None = None
    _mod: int | None = field(init=False, repr=False, compare=False)
    _u: int = field(init=False, repr=False, compare=False)
    _variants: dict = field(init=False, repr=False, compare=False)
    exact: bool = field(init=False, repr=False, compare=False)
    zero: "Scalar" = field(init=False, repr=False, compare=False)
    one: "Scalar" = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.ext not in (SPLIT, INERT):
            raise ValueError(f"unknown extension tag {self.ext!r}")
        if self.prec is not None and self.prec < 1:
            raise ValueError("precision must be >= 1")
        put = object.__setattr__
        put(self, "_mod", None if self.prec is None else self.p**self.prec)
        put(self, "_u", smallest_nonresidue(self.p) if self.ext == INERT else 0)
        put(self, "_variants", {self.prec: self})
        put(self, "exact", self.prec is None)
        put(self, "zero", Scalar(self, 0, 0, 1))
        put(self, "one", Scalar(self, 1, 0, 1))

    @property
    def u(self) -> int:
        if self.ext != INERT:
            raise ValueError("split ring has no extension generator")
        return self._u

    @property
    def modulus(self) -> int:
        if self._mod is None:
            raise ValueError("exact ring has no modulus")
        return self._mod

    # -- constructors -------------------------------------------------

    def scalar(self, a, b=0) -> "Scalar":
        """a + b*sqrt(u) for ints or rationals a and b.  Two exact ints
        are stored at once, reduced mod p^N when truncated; only other
        values pay the ``Fraction`` conversion."""
        if b != 0 and self.ext != INERT:
            raise ValueError("nonzero sqrt(u)-part in a split ring")
        m = self._mod
        if type(a) is int and type(b) is int:
            if m is None:
                return Scalar(self, a, b, 1)
            return Scalar(self, a % m, b % m, 1)
        if m is None:
            a, b = Fraction(a), Fraction(b)
            da, db = a.denominator, b.denominator
            d = math.lcm(da, db)
            # d is the lcm of the reduced denominators, so gcd(x, y, d) = 1
            return Scalar(self, a.numerator * (d // da),
                          b.numerator * (d // db), d)
        if isinstance(a, Fraction):
            a = canonical_residue(a, self.p, self.prec)
        if isinstance(b, Fraction):
            b = canonical_residue(b, self.p, self.prec)
        return Scalar(self, a % m, b % m, 1)

    def ratio(self, x, y, d: int) -> "Scalar":
        """(x + y*sqrt(u)) / d for integers or ``Fraction`` x and y and an
        integer d != 0."""
        if type(x) is int and type(y) is int:
            if d == 1:
                return self.scalar(x, y)
            if self.exact and (not y or self.ext == INERT):
                if d < 0:
                    x, y, d = -x, -y, -d
                return _exact(self, x, y, d)
        return self.scalar(Fraction(x, d), Fraction(y, d))

    @property
    def gen(self) -> "Scalar":
        """sqrt(u), the extension generator."""
        return self.scalar(0, 1)

    def truncated(self, N: int) -> "Ring":
        """The ring of the same (p, ext) at precision N, one object per
        precision."""
        ring = self._variants.get(N)
        if ring is None:
            ring = Ring(self.p, self.ext, N)
            object.__setattr__(ring, "_variants", self._variants)
            self._variants[N] = ring
        return ring


def _exact(ring: Ring, x: int, y: int, d: int) -> "Scalar":
    """(x + y*sqrt(u))/d in lowest terms; requires d > 0."""
    g = math.gcd(x, y, d)
    if g != 1:
        x //= g
        y //= g
        d //= g
    return Scalar(ring, x, y, d)


class Scalar:
    """An element a + b*sqrt(u) of F or E, exact or truncated.

    Stored as plain integers (x, y, d) with a = x/d and b = y/d.  Exact
    scalars keep gcd(x, y, d) = 1 and d > 0, so equal values have equal
    storage; truncated scalars keep residues 0 <= x, y < p^N and d = 1.
    ``a`` and ``b`` read the components back (``Fraction`` when exact,
    ``int`` when truncated).  The constructor trusts its arguments; build
    scalars from arbitrary values with ``Ring.scalar``.
    """

    __slots__ = ("ring", "x", "y", "d")

    def __init__(self, ring: Ring, x: int, y: int, d: int):
        self.ring = ring
        self.x = x
        self.y = y
        self.d = d

    @property
    def a(self):
        if self.ring.exact:
            return Fraction(self.x, self.d)
        return self.x

    @property
    def b(self):
        if self.ring.exact:
            return Fraction(self.y, self.d)
        return self.y

    # -- basics -------------------------------------------------------

    def __repr__(self):
        return f"Scalar({self.ring.p},{self.ring.ext},{self.ring.prec}: {self})"

    def __str__(self):
        if self.y == 0:
            return str(self.a)
        return f"{self.a}+{self.b}*s"

    def __eq__(self, other):
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.x == other.x and self.y == other.y and self.d == other.d

    def __hash__(self):
        return hash((self.a, self.b))

    def __bool__(self):
        return self.x != 0 or self.y != 0

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("mixed scalar rings")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.scalar(other)
        return NotImplemented

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        m = ring._mod
        if m is not None:
            return Scalar(ring, (self.x + other.x) % m, (self.y + other.y) % m, 1)
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return Scalar(ring, self.x + other.x, self.y + other.y, 1)
            return _exact(ring, self.x + other.x, self.y + other.y, d1)
        return _exact(ring, self.x * d2 + other.x * d1,
                      self.y * d2 + other.y * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self):
        m = self.ring._mod
        if m is None:
            return Scalar(self.ring, -self.x, -self.y, self.d)
        return Scalar(self.ring, -self.x % m, -self.y % m, 1)

    def __sub__(self, other):
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        m = ring._mod
        if m is not None:
            return Scalar(ring, (self.x - other.x) % m, (self.y - other.y) % m, 1)
        d1, d2 = self.d, other.d
        if d1 == d2:
            if d1 == 1:
                return Scalar(ring, self.x - other.x, self.y - other.y, 1)
            return _exact(ring, self.x - other.x, self.y - other.y, d1)
        return _exact(ring, self.x * d2 - other.x * d1,
                      self.y * d2 - other.y * d1, d1 * d2)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if type(other) is not Scalar or other.ring is not self.ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        ring = self.ring
        x1, y1, x2, y2 = self.x, self.y, other.x, other.y
        if y1 or y2:
            x = x1 * x2 + ring._u * y1 * y2
            y = x1 * y2 + y1 * x2
        else:
            x, y = x1 * x2, 0
        m = ring._mod
        if m is not None:
            return Scalar(ring, x % m, y % m, 1)
        d = self.d * other.d
        if d == 1:
            return Scalar(ring, x, y, 1)
        return _exact(ring, x, y, d)

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        ring = self.ring
        x, y = self.x, self.y
        m = ring._mod
        if y == 0:
            if m is None:
                if x == 0:
                    raise ZeroDivisionError("inverse of zero")
                # gcd(x, d) = 1 already
                return Scalar(ring, self.d if x > 0 else -self.d, 0, abs(x))
            try:
                return Scalar(ring, pow(x, -1, m), 0, 1)
            except ValueError:
                raise NotUnitError(f"{self} is not a unit mod {ring.p}^{ring.prec}")
        # (a + b s)^-1 = (a - b s) / (a^2 - u b^2)
        n = x * x - ring._u * y * y
        if m is None:
            if n == 0:
                raise ZeroDivisionError("inverse of zero")
            d = self.d
            if n < 0:
                d, n = -d, -n
            return _exact(ring, d * x, -d * y, n)
        try:
            ninv = pow(n % m, -1, m)
        except ValueError:
            raise NotUnitError(f"{self} is not a unit mod {ring.p}^{ring.prec}")
        return Scalar(ring, x * ninv % m, -y * ninv % m, 1)

    # -- valuation and integrality ------------------------------------

    def val(self):
        """p-adic valuation (min over components for the unramified extension)."""
        p = self.ring.p
        if self.x == 0 and self.y == 0:
            return INF
        if self.ring.exact:
            vs = min(val_int(c, p) for c in (self.x, self.y) if c != 0)
            return vs - val_int(self.d, p)
        vs = [val_int(c, p) for c in (self.x, self.y) if c != 0]
        return min(min(vs), self.ring.prec)

    def is_unit(self) -> bool:
        if self.ring.exact:
            return bool(self) and self.val() == 0
        p = self.ring.p
        if self.y % p == 0:
            return self.x % p != 0
        if self.ring.ext == SPLIT:
            return self.x % p != 0
        return (self.x * self.x - self.ring._u * self.y * self.y) % p != 0


# -- square roots -----------------------------------------------------


def sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a mod p, or None.  p is small here; a direct scan."""
    a %= p
    for r in range((p + 1) // 2):
        if r * r % p == a:
            return r
    return None


def sqrt_mod_prime_power(a: int, p: int, N: int) -> int | None:
    """A square root of the unit a mod p^N via Newton lifting, or None."""
    a %= p**N
    if a % p == 0:
        raise ValueError("sqrt_mod_prime_power requires a unit argument")
    r = sqrt_mod_prime(a, p)
    if r is None:
        return None
    k = 1
    while k < N:
        k = min(2 * k, N)
        m = p**k
        r = (r + a * pow(r, -1, m)) * pow(2, -1, m) % m
    return r


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of a rational, or None if x is not a square."""
    x = Fraction(x)
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n = math.isqrt(x.numerator)
    d = math.isqrt(x.denominator)
    if n * n != x.numerator or d * d != x.denominator:
        return None
    return Fraction(n, d)
