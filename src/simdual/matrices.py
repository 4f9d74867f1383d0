"""Small dense square matrices over a scalar ring (exact or truncated),
their integer component codec, and the one generated product and the
one generated adjugate that multiply and invert them, sized for n <= 4.

The codec lays a matrix out row-major, one integer component per entry
over the split ring and two (a, b of a + b s) over the inert one:
residues mod p^N, or numerators over one common denominator.  On that
layout ``product_kernel`` generates, once per (ring, n), the product of
two matrices as one straight-line expression: ``Mat.__mul__`` runs it on
numerators and decodes over the product of the denominators, and every
kernel of ``cayley`` and its callers multiplies with it.
``_adjugate_code`` generates, once per (n, components per scalar, u),
A = adj(g) tau(det g) and q = det(g) tau(det g) with g A = q 1 on
integers.  g is invertible exactly when q is regular (nonzero over the
exact field, a unit mod p^N), and g^-1 = A / q: ``Mat.inv`` and
``Mat.is_invertible`` run on it over every ring, and so do the inverse,
Cayley and general-linear membership kernels of ``cayley``.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .scalars import INERT, Ring, Scalar


class NotInvertibleError(ValueError):
    pass


class Mat:
    """Immutable matrix over a Ring; rows is a tuple of tuples of Scalar."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring: Ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(x if isinstance(x, Scalar) else ring.scalar(x)
                                for x in row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows")

    @staticmethod
    def _make(ring: Ring, rows: tuple) -> "Mat":
        """Trusted constructor for internal results: ``rows`` is already a
        rectangular tuple of tuples of scalars of ``ring``."""
        m = object.__new__(Mat)
        m.ring = ring
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(ring: Ring, n: int) -> "Mat":
        return Mat.diag(ring, [ring.one] * n)

    @staticmethod
    def zeros(ring: Ring, n: int) -> "Mat":
        return Mat._make(ring, ((ring.zero,) * n,) * n)

    @staticmethod
    def diag(ring: Ring, entries) -> "Mat":
        n = len(entries)
        return Mat(ring, [[entries[i] if i == j else ring.zero for j in range(n)]
                          for i in range(n)])

    @staticmethod
    def scalar_mat(ring: Ring, n: int, s) -> "Mat":
        return Mat.diag(ring, [s] * n)

    # -- basics -------------------------------------------------------

    def __repr__(self):
        body = "; ".join(", ".join(str(x) for x in row) for row in self.rows)
        return f"Mat[{body}]"

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.ring is other.ring or self.ring == other.ring) \
            and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __bool__(self):
        return any(bool(x) for row in self.rows for x in row)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Mat._make(self.ring, tuple(
            tuple(a + b for a, b in zip(r, s))
            for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._check(other)
        return Mat._make(self.ring, tuple(
            tuple(a - b for a, b in zip(r, s))
            for r, s in zip(self.rows, other.rows)))

    def __neg__(self):
        return Mat._make(self.ring, tuple(tuple(-a for a in r)
                                          for r in self.rows))

    def _check(self, other):
        if (self.ring is not other.ring and self.ring != other.ring) \
                or self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("incompatible matrices")

    def __mul__(self, other):
        ring = self.ring
        if isinstance(other, (Scalar, int, Fraction)):
            if not isinstance(other, Scalar):
                other = ring.scalar(other)
            return Mat._make(ring, tuple(tuple(a * other for a in r)
                                         for r in self.rows))
        if not isinstance(other, Mat):
            return NotImplemented
        n = self.nrows
        if not n == self.ncols == other.nrows == other.ncols or \
                (ring is not other.ring and ring != other.ring):
            raise ValueError("incompatible matrix product")
        x, dx = self.numerators()
        y, dy = other.numerators()
        return Mat.from_components(ring, n, product_kernel(ring, n)(x, y),
                                   dx * dy)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "Mat":
        return Mat._make(self.ring, tuple(zip(*self.rows)))

    def tau(self) -> "Mat":
        """Entrywise Galois conjugation."""
        return Mat._make(self.ring, tuple(tuple(a.tau() for a in r)
                                          for r in self.rows))

    def inv(self) -> "Mat":
        """g^-1 from the generated adjugate: A q^-1 mod p^N
        (``matrix_inverse_kernel``), and over the exact field den A / q
        for the (A, q) of ``adjugate_kernel`` on the numerators x of
        g = x / den.  NotInvertibleError where ``is_invertible`` is
        False."""
        ring, n = self.ring, self.nrows
        if n != self.ncols:
            raise NotInvertibleError("non-square matrix")
        x, den = self.numerators()
        if not ring.exact:
            y = matrix_inverse_kernel(ring, n)(x)
            if y is None:
                raise NotInvertibleError("matrix is not invertible")
            return Mat.from_components(ring, n, y)
        A, q = adjugate_kernel(ring, n)(x)
        if not q:
            raise NotInvertibleError("matrix is not invertible")
        return Mat.from_components(ring, n, [den * a for a in A], q)

    def is_invertible(self) -> bool:
        """Whether q = det(g) tau(det g) is nonzero (exact) or a unit (mod
        p^N), from the determinant lines of the adjugate code alone."""
        ring, n = self.ring, self.nrows
        if n != self.ncols:
            return False
        q = det_norm_kernel(ring, n)(self.numerators()[0])
        return bool(q if ring.exact else q % ring.p)

    def scalar_part(self) -> Scalar | None:
        """If the matrix equals s*I, return s, else None."""
        if not self.is_square():
            return None
        s = self.rows[0][0]
        for i, row in enumerate(self.rows):
            for j, x in enumerate(row):
                if (x != s) if i == j else bool(x):
                    return None
        return s

    def reduce(self, N: int) -> "Mat":
        return Mat._make(self.ring.truncated(N), tuple(
            tuple(a.reduce(N) for a in r) for r in self.rows))

    def key(self):
        """Canonical sort key: the row-major (a, b) components, flat."""
        if self.ring.exact:
            return tuple([v for row in self.rows for x in row
                          for v in (x.a, x.b)])
        out = []
        for row in self.rows:
            for x in row:
                out.append(x.x)
                out.append(x.y)
        return tuple(out)

    # -- integer component codec -------------------------------------

    def components(self) -> list:
        """The components, row-major, a (and b when inert) per entry:
        residues mod p^N, the ``Fraction`` components over the exact
        field."""
        inert = self.ring.ext == INERT
        out = []
        for row in self.rows:
            for x in row:
                out.append(x.a)
                if inert:
                    out.append(x.b)
        return out

    def numerators(self) -> tuple[list[int], int]:
        """The components, in the layout of ``components``, as integer
        numerators over one common denominator: (numerators, denominator)."""
        entries = [x for row in self.rows for x in row]
        den = math.lcm(*[x.d for x in entries])
        if self.ring.ext == INERT:
            return [v * (den // x.d) for x in entries for v in (x.x, x.y)], \
                den
        return [x.x * (den // x.d) for x in entries], den

    @staticmethod
    def from_components(ring: Ring, n: int, comps, den: int = 1) -> "Mat":
        """The n x n matrix with components ``comps`` (the layout of
        ``components``), each divided by the integer ``den``."""
        inert = ring.ext == INERT
        rows = []
        it = iter(comps)
        for _ in range(n):
            row = []
            for _ in range(n):
                a = next(it)
                b = next(it) if inert else 0
                row.append(ring.scalar(a, b) if den == 1
                           else ring.ratio(a, b, den))
            rows.append(tuple(row))
        return Mat._make(ring, tuple(rows))

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


@functools.cache
def product_kernel(ring: Ring, n: int):
    """``mul(x, y)``: the components of g h for the n x n matrices g and h
    over ``ring`` with components x and y, residues mod p^N; over the
    exact field the integer components of the product of the integer
    matrices x and y, with no modulus.  Generated once per (ring, n) as
    one straight-line expression over the unpacked components, which
    runs several times faster than a loop over index lists; ``Mat``
    products run it on numerators."""
    d = components_per_scalar(ring)
    mod = "" if ring.exact else f" % {ring.modulus}"
    terms = []
    for i, j in itertools.product(range(n), repeat=2):
        pairs = [(d * (i * n + k), d * (k * n + j)) for k in range(n)]
        first = " + ".join(f"x{a}*y{b}" for a, b in pairs)
        if d == 1:
            terms.append(first)
            continue
        u = " + ".join(f"x{a + 1}*y{b + 1}" for a, b in pairs)
        terms += [f"{first} + {ring.u}*({u})", " + ".join(
            f"x{a}*y{b + 1} + x{a + 1}*y{b}" for a, b in pairs)]
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
