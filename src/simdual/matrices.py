"""Small dense matrices over a scalar ring (exact or truncated).

Everything here is sized for n <= 4; determinants use cofactor expansion
and inverses Gauss-Jordan with unit pivoting, which is the correct notion
of invertibility over the truncated local rings as well.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import Ring, Scalar, dot


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
    def zeros(ring: Ring, n: int, m: int | None = None) -> "Mat":
        m = n if m is None else m
        return Mat._make(ring, ((ring.zero,) * m,) * n)

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
        if self.ncols != other.nrows or \
                (ring is not other.ring and ring != other.ring):
            raise ValueError("incompatible matrix product")
        cols = tuple(zip(*other.rows))
        return Mat._make(ring, tuple(tuple(dot(ring, r, c) for c in cols)
                                     for r in self.rows))

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

    def trace(self) -> Scalar:
        t = self.ring.zero
        for i in range(self.nrows):
            t = t + self.rows[i][i]
        return t

    def det(self) -> Scalar:
        if not self.is_square():
            raise ValueError("determinant of non-square matrix")
        return _det(self.ring, [list(r) for r in self.rows])

    def inv(self) -> "Mat":
        """Inverse via Gauss-Jordan, pivoting on units (required mod p^N);
        2 x 2 inverses use the adjugate, invertible iff the determinant is
        nonzero (exact) or a unit (truncated)."""
        if not self.is_square():
            raise NotInvertibleError("non-square matrix")
        n = self.nrows
        ring = self.ring
        exact = ring.exact
        if n == 2:
            (a, b), (c, d) = self.rows
            det = a * d - b * c
            if not (bool(det) if exact else det.is_unit()):
                raise NotInvertibleError("matrix is not invertible")
            di = det.inv()
            return Mat._make(ring, ((d * di, -(b * di)), (-(c * di), a * di)))
        aug = [list(self.rows[i]) + [ring.one if j == i else ring.zero
                                     for j in range(n)] for i in range(n)]
        for col in range(n):
            piv = None
            for r in range(col, n):
                entry = aug[r][col]
                if bool(entry) if exact else entry.is_unit():
                    piv = r
                    break
            if piv is None:
                raise NotInvertibleError("matrix is not invertible")
            aug[col], aug[piv] = aug[piv], aug[col]
            pinv = aug[col][col].inv()
            aug[col] = [x * pinv for x in aug[col]]
            for r in range(n):
                if r != col and bool(aug[r][col]):
                    f = aug[r][col]
                    aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
        return Mat._make(ring, tuple(tuple(row[n:]) for row in aug))

    def is_invertible(self) -> bool:
        try:
            self.inv()
            return True
        except NotInvertibleError:
            return False

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

    def is_integral(self) -> bool:
        return all(a.is_integral() for r in self.rows for a in r)

    def reduce(self, N: int) -> "Mat":
        return Mat._make(self.ring.truncated(N), tuple(
            tuple(a.reduce(N) for a in r) for r in self.rows))

    def lift(self) -> "Mat":
        return Mat._make(self.ring.exact_ring, tuple(
            tuple(a.lift() for a in r) for r in self.rows))

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

    # -- canonical text form ------------------------------------------

    def to_text(self) -> str:
        return "; ".join(", ".join(str(x) for x in row) for row in self.rows)


def _det(ring, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    acc = ring.zero
    for j in range(n):
        if not bool(rows[0][j]):
            continue
        minor = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = rows[0][j] * _det(ring, minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def parse_matrix(ring: Ring, text: str) -> Mat:
    """Parse the canonical row-major form: rows split by ';', entries by ','.

    Entries are "a" or "a+b*s" with a, b rationals.
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
                a = Fraction(a_text) if a_text else Fraction(0)
                row.append(ring.scalar(a, Fraction(b_text)))
            else:
                row.append(ring.scalar(Fraction(etext)))
        rows.append(row)
    return Mat(ring, rows)
