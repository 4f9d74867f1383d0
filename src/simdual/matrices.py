"""Small dense square matrices over a scalar ring (exact or truncated),
held as their integer components, and the one generated product and the
one generated adjugate that multiply and invert them, sized for n <= 4.

A matrix is its components, row-major, one integer per entry over the
split ring and two (a, b of a + b s) over the inert one, over one
positive denominator: residues mod p^N over 1, or over the exact field
numerators over their least common denominator, in lowest terms.  Equal
matrices have equal fields, and ``Scalar`` entries are built only where
an entry is read.  On that layout ``product_kernel`` generates, once per
(ring, n), the product of two matrices as one straight-line expression:
``Mat.__mul__`` runs it on the stored numerators, over the product of
the denominators, and every kernel of ``cayley`` and its callers
multiplies with it.  ``_adjugate_code`` generates, once per (n,
components per scalar, u), A = adj(g) tau(det g) and q = det(g)
tau(det g) with g A = q 1 on integers.  g is invertible exactly when q
is regular (nonzero over the exact field, a unit mod p^N), and
g^-1 = A / q: ``Mat.inv`` and ``Mat.is_invertible`` run on it over
every ring, and so do the inverse, Cayley and general-linear membership
kernels of ``cayley``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .scalars import INERT, NotIntegralError, Ring, Scalar, val_fraction


class NotInvertibleError(ValueError):
    pass


def over_one_denominator(comps, den: int = 1) -> tuple[tuple, int]:
    """(nums, den): the rationals ``comps`` / ``den``, for int or
    ``Fraction`` comps and a nonzero integer den, as integers over one
    positive denominator, in lowest terms."""
    if Fraction in map(type, comps):
        lcm = math.lcm(*(c.denominator for c in comps))
        comps = [c.numerator * (lcm // c.denominator) for c in comps]
        den *= lcm
    if den < 0:
        comps, den = [-c for c in comps], -den
    g = math.gcd(den, *comps)
    return tuple(c // g for c in comps) if g != 1 else tuple(comps), den // g


def _scalar(ring: Ring, x) -> Scalar:
    """x as a scalar of ``ring``; a scalar of another ring is rejected."""
    if not isinstance(x, Scalar):
        return ring.scalar(x)
    if x.ring is not ring and x.ring != ring:
        raise ValueError("mixed scalar rings")
    return x


class Mat:
    """Immutable matrix over a Ring: the integer components ``nums`` (the
    layout of ``components``) over the positive denominator ``den``,
    residues over 1 mod p^N, in lowest terms over the exact field."""

    __slots__ = ("ring", "nrows", "ncols", "nums", "den")

    def __init__(self, ring: Ring, rows):
        rows = [[_scalar(ring, x) for x in row] for row in rows]
        ncols = len(rows[0]) if rows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("ragged rows")
        entries = [x for row in rows for x in row]
        den = math.lcm(*(x.d for x in entries))
        d = components_per_scalar(ring)
        self._put(ring, len(rows), ncols, [
            v * (den // x.d) for x in entries for v in (x.x, x.y)[:d]], den)

    def _put(self, ring: Ring, nrows: int, ncols: int, comps, den: int):
        """Store ``comps`` / ``den`` in the canonical form: reduced mod p^N
        (NotIntegralError for a component of negative valuation, the first
        in the layout), or in lowest terms over the exact field."""
        self.ring, self.nrows, self.ncols = ring, nrows, ncols
        if ring.exact:
            self.nums, self.den = over_one_denominator(comps, den)
            return
        M = ring.modulus
        if den != 1 or Fraction in map(type, comps):
            comps, den = over_one_denominator(comps, den)
            if den % ring.p:
                f = pow(den, -1, M)
                comps = [c * f for c in comps]
            else:
                c = next(Fraction(c, den) for c in comps
                         if val_fraction(Fraction(c, den), ring.p) < 0)
                raise NotIntegralError(
                    f"{c} has negative {ring.p}-adic valuation")
        self.nums, self.den = tuple([c % M for c in comps]), 1

    @staticmethod
    def _new(ring: Ring, nrows: int, ncols: int, comps, den: int = 1) -> "Mat":
        """The nrows x ncols matrix with components ``comps`` / ``den``."""
        m = object.__new__(Mat)
        m._put(ring, nrows, ncols, comps, den)
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        return Mat.scalar_mat(ring, n, 1)

    @staticmethod
    def zeros(ring: Ring, n: int) -> "Mat":
        return Mat.scalar_mat(ring, n, 0)

    @staticmethod
    def diag(ring: Ring, entries) -> "Mat":
        n = len(entries)
        return Mat(ring, [[entries[i] if i == j else 0 for j in range(n)]
                          for i in range(n)])

    @staticmethod
    def scalar_mat(ring: Ring, n: int, s) -> "Mat":
        """s * 1, for a scalar, int or Fraction s."""
        s = _scalar(ring, s)
        d = components_per_scalar(ring)
        comps = [0] * (d * n * n)
        comps[::d * (n + 1)] = [s.x] * n
        if d == 2:
            comps[1::2 * (n + 1)] = [s.y] * n
        return Mat.from_components(ring, n, comps, s.d)

    # -- basics -------------------------------------------------------

    def __repr__(self):
        return f"Mat[{self.to_text()}]"

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return self.nums == other.nums and self.den == other.den \
            and self.ncols == other.ncols \
            and (self.ring is other.ring or self.ring == other.ring)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __bool__(self):
        return any(self.nums)

    def __getitem__(self, ij):
        """Entry (i, j), decoded into a ``Scalar``."""
        i, j = ij
        ring, nums = self.ring, self.nums
        if ring.ext != INERT:
            return ring.ratio(nums[i * self.ncols + j], 0, self.den)
        k = 2 * (i * self.ncols + j)
        return ring.ratio(nums[k], nums[k + 1], self.den)

    @property
    def rows(self) -> tuple:
        """The entries, row by row, decoded into ``Scalar`` objects."""
        return tuple(tuple(self[i, j] for j in range(self.ncols))
                     for i in range(self.nrows))

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign: int) -> "Mat":
        """self + sign * other, over the lcm of the denominators."""
        if (self.ring is not other.ring and self.ring != other.ring) \
                or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("incompatible matrices")
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, sign * (den // other.den)
        return Mat._new(self.ring, self.nrows, self.ncols, [
            a * x + b * y for x, y in zip(self.nums, other.nums)], den)

    def __neg__(self):
        return Mat._new(self.ring, self.nrows, self.ncols,
                        [-x for x in self.nums], self.den)

    def __mul__(self, other):
        """The product, on the one product kernel; a scalar multiplies as
        ``scalar_mat``."""
        ring, n = self.ring, self.nrows
        if isinstance(other, (Scalar, int, Fraction)):
            other = Mat.scalar_mat(ring, n, other)
        elif not isinstance(other, Mat):
            return NotImplemented
        if not n == self.ncols == other.nrows == other.ncols or \
                (ring is not other.ring and ring != other.ring):
            raise ValueError("incompatible matrix product")
        return Mat.from_components(
            ring, n, product_kernel(ring, n)(self.nums, other.nums),
            self.den * other.den)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "Mat":
        d, r, c = components_per_scalar(self.ring), self.nrows, self.ncols
        return Mat._new(self.ring, c, r, [
            self.nums[d * (i * c + j) + k]
            for j in range(c) for i in range(r) for k in range(d)], self.den)

    def tau(self) -> "Mat":
        """Entrywise Galois conjugation: the b components negated."""
        if self.ring.ext != INERT:
            return self
        nums = list(self.nums)
        nums[1::2] = [-y for y in nums[1::2]]
        return Mat._new(self.ring, self.nrows, self.ncols, nums, self.den)

    def inv(self) -> "Mat":
        """g^-1 from the generated adjugate: A q^-1 mod p^N
        (``matrix_inverse_kernel``), and over the exact field den A / q
        for the (A, q) of ``adjugate_kernel`` on the numerators x of
        g = x / den.  NotInvertibleError where ``is_invertible`` is
        False."""
        ring, n = self.ring, self.nrows
        if n != self.ncols:
            raise NotInvertibleError("non-square matrix")
        if not ring.exact:
            y = matrix_inverse_kernel(ring, n)(self.nums)
            if y is None:
                raise NotInvertibleError("matrix is not invertible")
            return Mat.from_components(ring, n, y)
        A, q = adjugate_kernel(ring, n)(self.nums)
        if not q:
            raise NotInvertibleError("matrix is not invertible")
        return Mat.from_components(ring, n, [self.den * a for a in A], q)

    def is_invertible(self) -> bool:
        """Whether q = det(g) tau(det g) is nonzero (exact) or a unit (mod
        p^N), from the determinant lines of the adjugate code alone."""
        ring, n = self.ring, self.nrows
        if n != self.ncols:
            return False
        q = det_norm_kernel(ring, n)(self.nums)
        return bool(q if ring.exact else q % ring.p)

    def scalar_part(self) -> Scalar | None:
        """If the matrix equals s*I, return s, else None."""
        if not self.is_square():
            return None
        s = self[0, 0]
        return s if self == Mat.scalar_mat(self.ring, self.nrows, s) else None

    def reduce(self, N: int) -> "Mat":
        """The matrix mod p^N, a ring homomorphism on integral matrices;
        NotIntegralError names the first component of negative
        valuation."""
        ring = self.ring
        if not ring.exact and N > ring.prec:
            raise ValueError("cannot increase precision of a truncated matrix")
        return Mat._new(ring.truncated(N), self.nrows, self.ncols, self.nums,
                        self.den)

    def key(self):
        """Canonical sort key: the row-major (a, b) components, flat."""
        comps = self.components()
        if self.ring.ext == INERT:
            return tuple(comps)
        key = [0] * (2 * len(comps))
        key[::2] = comps
        return tuple(key)

    # -- integer components -------------------------------------------

    def components(self) -> list:
        """The components, row-major, a (and b when inert) per entry:
        residues mod p^N, the ``Fraction`` components over the exact
        field."""
        if self.ring.exact:
            return [Fraction(x, self.den) for x in self.nums]
        return list(self.nums)

    def numerators(self) -> tuple[tuple, int]:
        """The stored pair: the components as integer numerators over one
        common denominator, (nums, den)."""
        return self.nums, self.den

    @staticmethod
    def from_components(ring: Ring, n: int, comps, den: int = 1) -> "Mat":
        """The n x n matrix with components ``comps`` (the layout of
        ``components``, ints or Fractions), each divided by the nonzero
        integer ``den``."""
        return Mat._new(ring, n, n, comps, den)

    # -- canonical text form ------------------------------------------

    def to_text(self) -> str:
        return "; ".join(", ".join(str(x) for x in row) for row in self.rows)


def components_per_scalar(ring: Ring) -> int:
    return 2 if ring.ext == INERT else 1


# -- the generated adjugate -------------------------------------------


@functools.cache
def _adjugate_code(n: int, d: int, u: int) -> tuple:
    """(lines, A, q, k): straight-line source, on the components x0, x1,
    ... of an n x n matrix g with d components per scalar (a + b s with
    s^2 = u when d = 2), of A = adj(g) tau(det g) and q = det(g)
    tau(det g), the determinant (split) or its norm (inert), so that
    g A = q 1 on integers and g^-1 = A / q where q is nonzero (a unit mod
    p^N).  Each minor is expanded along its first row into one local
    shared by the cofactors; the first k lines are those the determinant
    needs."""
    lines, minors = [], {}

    def times(a, b, sign):
        """The component terms of sign a b, for a and b by component."""
        if d == 1:
            return [f" {sign} {a[0]}*{b[0]}"]
        return [f" {sign} {a[0]}*{b[0]} {sign} {u}*{a[1]}*{b[1]}",
                f" {sign} {a[0]}*{b[1]} {sign} {a[1]}*{b[0]}"]

    def minor(rows, cols):
        """The component names of the minor of g on ``rows`` x ``cols``."""
        if not rows:
            return ("1", "0")[:d]
        if len(rows) == 1:
            k = d * (rows[0] * n + cols[0])
            return tuple(f"x{k + c}" for c in range(d))
        if (rows, cols) not in minors:
            terms = [times(minor(rows[:1], cols[i:i + 1]),
                           minor(rows[1:], cols[:i] + cols[i + 1:]),
                           "-" if i % 2 else "+") for i in range(len(cols))]
            name = f"m{len(minors)}"
            lines.extend(f"{name}_{k} =" + "".join(t[k] for t in terms)
                         for k in range(d))
            minors[rows, cols] = tuple(f"{name}_{k}" for k in range(d))
        return minors[rows, cols]

    rest = [tuple(k for k in range(n) if k != i) for i in range(n)]
    det = minor(tuple(range(n)), tuple(range(n)))
    k = len(lines)
    conj = ("1",) if d == 1 else (det[0], f"(-{det[1]})")
    adj = [t for r, c in itertools.product(range(n), repeat=2)
           for t in times(minor(rest[c], rest[r]), conj,
                          "-" if (r + c) % 2 else "+")]
    return lines, adj, times(det, conj, "+")[0], k


@functools.cache
def adjugate_kernel(ring: Ring, n: int):
    """``adj(x)``: (A, q) of ``_adjugate_code`` for the n x n matrix over
    ``ring`` with integer components x, generated as one function."""
    lines, adj, q, _ = _adjugate_code(n, components_per_scalar(ring),
                                      ring._u)
    return _generated("x", [_unpack("x", len(adj))] + lines,
                      f"({', '.join(adj)},), {q}")


@functools.cache
def matrix_inverse_kernel(ring: Ring, n: int):
    """``inv(x)``: the components of the inverse mod p^N of the n x n
    matrix over the truncated ``ring`` with components x, A q^-1 for the
    (A, q) of ``_adjugate_code``, or None where q is 0 mod p; generated
    as one function."""
    lines, adj, q, _ = _adjugate_code(n, components_per_scalar(ring),
                                      ring._u)
    p, M = ring.p, ring.modulus
    return _generated("x", [_unpack("x", len(adj))] + lines + [
        f"q = {q}", f"if q % {p} == 0:", "    return None",
        f"f = pow(q, -1, {M})"],
        "(" + "".join(f"({a})*f % {M}, " for a in adj) + ")")


def _product_terms(n: int, d: int, u: int, x: str = "x",
                   y: str = "y") -> list:
    """The component expressions of g h, for the n x n matrices g and h
    with d components per scalar (a + b s with s^2 = u when d = 2) named
    x0, x1, ... and y0, y1, ... (prefixes ``x`` and ``y``), in the layout
    of ``Mat.components``."""
    terms = []
    for i, j in itertools.product(range(n), repeat=2):
        pairs = [(d * (i * n + k), d * (k * n + j)) for k in range(n)]
        first = " + ".join(f"{x}{a}*{y}{b}" for a, b in pairs)
        if d == 1:
            terms.append(first)
            continue
        b_terms = " + ".join(f"{x}{a + 1}*{y}{b + 1}" for a, b in pairs)
        terms += [f"{first} + {u}*({b_terms})", " + ".join(
            f"{x}{a}*{y}{b + 1} + {x}{a + 1}*{y}{b}" for a, b in pairs)]
    return terms


@functools.cache
def product_kernel(ring: Ring, n: int):
    """``mul(x, y)``: the components of g h for the n x n matrices g and h
    over ``ring`` with components x and y, residues mod p^N; over the
    exact field the integer components of the product of the integer
    matrices x and y, with no modulus.  Generated once per (ring, n) as
    one straight-line expression over the unpacked components
    (``_product_terms``), which runs several times faster than a loop
    over index lists; ``Mat`` products run it on numerators."""
    d = components_per_scalar(ring)
    mod = "" if ring.exact else f" % {ring.modulus}"
    terms = _product_terms(n, d, ring._u)
    D = d * n * n
    return _generated("x, y", [_unpack("x", D), _unpack("y", D)],
                      f"({', '.join(f'({t}){mod}' for t in terms)},)")


@functools.cache
def det_norm_kernel(ring: Ring, n: int):
    """``q(x)``: the q of ``_adjugate_code`` alone, from its first k
    (determinant) lines."""
    d = components_per_scalar(ring)
    lines, _, q, k = _adjugate_code(n, d, ring._u)
    return _generated("x", [_unpack("x", d * n * n)] + lines[:k], q)


def _unpack(v: str, D: int) -> str:
    """The line unpacking the length-D tuple ``v`` into v0, v1, ..."""
    return f"{', '.join(f'{v}{i}' for i in range(D))}, = {v}"


def _generated(args: str, lines: list, result: str):
    """The function of ``args`` that runs ``lines`` and returns
    ``result``, compiled from generated source."""
    body = "".join(f"    {line}\n" for line in lines + [f"return {result}"])
    namespace = {"Fraction": Fraction}
    exec(f"def f({args}):\n{body}", namespace)
    return namespace["f"]


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text.strip()!r}") from None


def parse_matrix(ring: Ring, text: str) -> Mat:
    """Parse the canonical row-major form: rows split by ';', entries by ','.

    Entries are "a" or "a+b*s" with a, b rationals.  Malformed text,
    including a zero denominator, raises ValueError.
    """
    rows = []
    for rtext in text.split(";"):
        row = []
        for etext in rtext.split(","):
            etext = etext.strip()
            if "*s" in etext:
                head, _, _ = etext.rpartition("*s")
                a_text, sign, b_text = head.rpartition("+")
                if not sign:
                    a_text, sign, b_text = head.rpartition("-")
                    b_text = "-" + b_text
                a = _rational(a_text) if a_text else Fraction(0)
                row.append(ring.scalar(a, _rational(b_text)))
            else:
                row.append(ring.scalar(_rational(etext)))
        rows.append(row)
    return Mat(ring, rows)
