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
equal storage and equality, hashing and reduction mod p^N read the
integers directly.  Truncated scalars store their residues 0 <= x, y < p^N
with d = 1.  The read-only views ``a`` and ``b`` give the components as
``Fraction`` (exact) or ``int`` (truncated).  ``dot`` sums products with a
single normalization, which is what matrix products use.
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
    precision are shared through ``truncated`` (and ``Scalar.lift``), so the
    arithmetic can recognise operands of the same ring by identity.
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
        if b != 0 and self.ext != INERT:
            raise ValueError("nonzero sqrt(u)-part in a split ring")
        m = self._mod
        if m is None:
            if type(a) is int and type(b) is int:
                return Scalar(self, a, b, 1)
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

    def ratio(self, x: int, y: int, d: int) -> "Scalar":
        """(x + y*sqrt(u)) / d for integers x, y and d != 0."""
        if not self.exact or (y and self.ext != INERT):
            return self.scalar(Fraction(x, d), Fraction(y, d))
        if d < 0:
            x, y, d = -x, -y, -d
        return _exact(self, x, y, d)

    @property
    def gen(self) -> "Scalar":
        """sqrt(u), the extension generator."""
        return self.scalar(0, 1)

    def truncated(self, N: int) -> "Ring":
        return self._variant(N)

    @property
    def exact_ring(self) -> "Ring":
        """The exact ring with the same p and extension."""
        return self._variant(None)

    def _variant(self, prec) -> "Ring":
        """The ring of the same (p, ext) at precision ``prec``, one object
        per precision."""
        ring = self._variants.get(prec)
        if ring is None:
            ring = Ring(self.p, self.ext, prec)
            object.__setattr__(ring, "_variants", self._variants)
            self._variants[prec] = ring
        return ring

    def residues(self):
        """All scalars of a truncated ring, in canonical (lexicographic) order."""
        if self.exact:
            raise ValueError("cannot enumerate an exact ring")
        m = self._mod
        if self.ext == SPLIT:
            for a in range(m):
                yield Scalar(self, a, 0, 1)
        else:
            for a in range(m):
                for b in range(m):
                    yield Scalar(self, a, b, 1)


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

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inv()

    # -- Galois structure ---------------------------------------------

    def tau(self) -> "Scalar":
        """Conjugation a + b*s -> a - b*s; identity on the base field."""
        if self.y == 0:
            return self
        m = self.ring._mod
        if m is None:
            return Scalar(self.ring, self.x, -self.y, self.d)
        return Scalar(self.ring, self.x, -self.y % m, 1)

    def norm(self) -> "Scalar":
        """x * tau(x); always has zero sqrt(u)-part."""
        return self * self.tau()

    def is_in_base(self) -> bool:
        return self.y == 0

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

    def is_integral(self) -> bool:
        # gcd(x, y, d) = 1: p | d exactly when some component has p in its
        # denominator
        return not self.ring.exact or self.d % self.ring.p != 0

    def is_unit(self) -> bool:
        if self.ring.exact:
            return bool(self) and self.val() == 0
        p = self.ring.p
        if self.y % p == 0:
            return self.x % p != 0
        if self.ring.ext == SPLIT:
            return self.x % p != 0
        return (self.x * self.x - self.ring._u * self.y * self.y) % p != 0

    # -- mode changes -------------------------------------------------

    def reduce(self, N: int) -> "Scalar":
        """Reduce an integral exact scalar mod p^N (a ring homomorphism)."""
        ring = self.ring
        p = ring.p
        m = p**N
        if not ring.exact:
            if N > ring.prec:
                raise ValueError("cannot increase precision of a truncated scalar")
            return Scalar(ring.truncated(N), self.x % m, self.y % m, 1)
        if self.d % p == 0:
            for c in (self.a, self.b):
                if val_fraction(c, p) < 0:
                    raise NotIntegralError(
                        f"{c} has negative {p}-adic valuation")
        dinv = pow(self.d, -1, m)
        return Scalar(ring.truncated(N), self.x * dinv % m, self.y * dinv % m, 1)

    def lift(self) -> "Scalar":
        """Tautological lift of a truncated scalar to an exact integer scalar."""
        if self.ring.exact:
            return self
        return Scalar(self.ring.exact_ring, self.x, self.y, 1)


def dot(ring: Ring, xs, ys) -> Scalar:
    """sum(x * y for x, y in zip(xs, ys)) for nonempty sequences of scalars
    of ``ring``, normalized once instead of after every term."""
    u, m = ring._u, ring._mod
    acc_x = acc_y = 0
    acc_d = 1
    for s, t in zip(xs, ys):
        x1, y1, x2, y2 = s.x, s.y, t.x, t.y
        if y1 or y2:
            x = x1 * x2 + u * y1 * y2
            y = x1 * y2 + y1 * x2
        else:
            x, y = x1 * x2, 0
        if m is not None:
            acc_x += x
            acc_y += y
            continue
        d = s.d * t.d
        if d == acc_d:
            acc_x += x
            acc_y += y
        else:
            g = math.gcd(acc_d, d)
            acc_x = acc_x * (d // g) + x * (acc_d // g)
            acc_y = acc_y * (d // g) + y * (acc_d // g)
            acc_d = acc_d // g * d
    if m is not None:
        return Scalar(ring, acc_x % m, acc_y % m, 1)
    if acc_d == 1:
        return Scalar(ring, acc_x, acc_y, 1)
    return _exact(ring, acc_x, acc_y, acc_d)


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


def hensel_sqrt_one_plus(mu, k: int, N: int, p: int | None = None) -> "Scalar":
    """The unique lambda = 1 mod p^k with lambda^2 = mu mod p^N.

    ``mu`` may be a Scalar (base-field part only), Fraction or int.  Requires
    mu = 1 mod p^k, k >= 1 and N >= k; p odd makes the root unique.
    """
    if isinstance(mu, Scalar):
        if mu.b != 0:
            raise ValueError("mu must lie in the base field")
        p = mu.ring.p
        mu_val = mu.a
    else:
        if p is None:
            raise ValueError("p required for a bare rational mu")
        mu_val = Fraction(mu)
    if k < 1 or N < k:
        raise ValueError("need 1 <= k <= N")
    m = canonical_residue(Fraction(mu_val), p, N)
    if (m - 1) % p**k != 0:
        raise ValueError(f"mu = {mu_val} is not 1 mod {p}^{k}")
    r = 1
    j = 1
    while j < N:
        j = min(2 * j, N)
        mod = p**j
        r = (r + m * pow(r, -1, mod)) * pow(2, -1, mod) % mod
    # Of the two roots +-r, exactly one is 1 mod p^k.
    if (r - 1) % p**k != 0:
        r = (-r) % p**N
    assert (r - 1) % p**k == 0 and (r * r - m) % p**N == 0
    return Ring(p, SPLIT, N).scalar(r)


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
