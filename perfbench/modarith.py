"""Independent integer arithmetic for small matrices mod p^N, used only to
re-check simdual's outputs.

A scalar of Z/p^N (split) or Z/p^N[sqrt u] (inert, u the least
quadratic non-residue mod p) is the pair (a, b) meaning a + b sqrt(u).
A matrix is the flat row-major tuple (a11, b11, a12, b12, ...), which is
also the layout of simdual's ``Mat.key()``, so keys compare directly.

The standard models are written down here from their definitions (the
form matrix J and the fixed anti-unitary matrix H of each family), not
taken from simdual.  For a similitude g one has theta(g) = P g^T P^-1
with P = H J^-1, because mu(g) g^-1 = g* = tau(J^-1 g^T J).  Every check
below uses that linear form, so no matrix inverse mod p^N is needed.
"""

from __future__ import annotations

import itertools


def least_nonresidue(p: int) -> int:
    return next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)


class MatArith:
    """n x n matrices over Z/p^N or its unramified quadratic extension."""

    def __init__(self, p: int, N: int, n: int, inert: bool):
        self.p, self.N, self.n, self.inert = p, N, n, inert
        self.M = p**N
        self.u = least_nonresidue(p) if inert else 0

    # -- scalars --------------------------------------------------------

    def smul(self, x, y):
        a1, b1 = x
        a2, b2 = y
        M = self.M
        return ((a1 * a2 + self.u * b1 * b2) % M, (a1 * b2 + b1 * a2) % M)

    def sinv(self, x):
        a, b = x
        norm = (a * a - self.u * b * b) % self.M
        ninv = pow(norm, -1, self.M)
        return (a * ninv % self.M, -b * ninv % self.M)

    def is_unit(self, x) -> bool:
        a, b = x
        return (a * a - self.u * b * b) % self.p != 0

    # -- matrices as flat keys --------------------------------------------

    def entry(self, m, i, j):
        k = 2 * (i * self.n + j)
        return m[k], m[k + 1]

    def from_entries(self, rows) -> tuple:
        out = []
        for row in rows:
            for a, b in row:
                out.append(a % self.M)
                out.append(b % self.M)
        return tuple(out)

    def identity(self) -> tuple:
        n = self.n
        return self.from_entries([[(1 if i == j else 0, 0) for j in range(n)]
                                  for i in range(n)])

    def scalar(self, s) -> tuple:
        n = self.n
        return self.from_entries([[s if i == j else (0, 0) for j in range(n)]
                                  for i in range(n)])

    def mul(self, x, y) -> tuple:
        n, M, u = self.n, self.M, self.u
        out = []
        for i in range(n):
            for j in range(n):
                ta = tb = 0
                for k in range(n):
                    xi = 2 * (i * n + k)
                    yi = 2 * (k * n + j)
                    a1, b1, a2, b2 = x[xi], x[xi + 1], y[yi], y[yi + 1]
                    ta += a1 * a2 + u * b1 * b2
                    tb += a1 * b2 + b1 * a2
                out.append(ta % M)
                out.append(tb % M)
        return tuple(out)

    def add(self, x, y) -> tuple:
        return tuple((a + b) % self.M for a, b in zip(x, y))

    def sub(self, x, y) -> tuple:
        return tuple((a - b) % self.M for a, b in zip(x, y))

    def scale(self, s, x) -> tuple:
        n = self.n
        return self.from_entries([[self.smul(s, self.entry(x, i, j))
                                   for j in range(n)] for i in range(n)])

    def transpose(self, x) -> tuple:
        n = self.n
        return self.from_entries([[self.entry(x, j, i) for j in range(n)]
                                  for i in range(n)])

    def tau(self, x) -> tuple:
        return tuple(v if k % 2 == 0 else -v % self.M
                     for k, v in enumerate(x))

    def scalar_part(self, x):
        """s if x = s * 1, else None."""
        s = self.entry(x, 0, 0)
        return s if x == self.scalar(s) else None

    def det(self, x):
        n = self.n
        total = (0, 0)
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = (sign, 0)
            for i in range(n):
                term = self.smul(term, self.entry(x, i, perm[i]))
            total = ((total[0] + term[0]) % self.M,
                     (total[1] + term[1]) % self.M)
        return total

    def inv2(self, x) -> tuple:
        """Inverse of a 2 x 2 matrix with unit determinant."""
        a, b = self.entry(x, 0, 0), self.entry(x, 0, 1)
        c, d = self.entry(x, 1, 0), self.entry(x, 1, 1)
        di = self.sinv(self.det(x))
        neg = (self.M - 1, 0)
        return self.from_entries([
            [self.smul(d, di), self.smul(self.smul(neg, b), di)],
            [self.smul(self.smul(neg, c), di), self.smul(a, di)]])


class Model:
    """A family's standard model over Z/p^N: J, H and P = H J^-1.

    ``family`` is a p-adic family name or a finite tag (sp, gsp, u, gu,
    o+, o-, gl); ``isometry`` says whether mu must be 1.
    """

    INERT_FORMS = {"hermitian", "skew-hermitian", "u", "gu"}

    def __init__(self, family: str, n: int, p: int, N: int):
        self.family = family
        self.has_form = family not in ("general-linear", "gl")
        inert = family in self.INERT_FORMS
        self.ar = ar = MatArith(p, N, n, inert)
        self.isometry = family in ("sp", "u", "o+", "o-")
        one, zero, neg = (1, 0), (0, 0), (ar.M - 1, 0)

        def diag(*d):
            return ar.from_entries([[d[i] if i == j else zero
                                     for j in range(n)] for i in range(n)])
        ident = ar.identity()
        if family in ("symplectic", "sp", "gsp"):
            m = n // 2
            J = [[zero] * n for _ in range(n)]
            for i in range(m):
                J[i][m + i], J[m + i][i] = one, neg
            J = ar.from_entries(J)
            Jinv = ar.scale(neg, J)
            H = diag(*([one] * m + [neg] * m))
            Hinv = H
        elif family == "skew-hermitian":
            gen = (0, 1)
            J = ar.scalar(gen)
            Jinv = ar.scalar(ar.sinv(gen))
            H = Hinv = ident
        elif family == "o+":
            J = Jinv = ar.from_entries([[zero, one], [one, zero]])
            H = Hinv = ident
        elif family == "o-":
            # x^2 - d y^2 anisotropic: J = 1 when -1 is a non-square mod p,
            # else diag(1, least non-residue)
            if pow(p - 1, (p - 1) // 2, p) != 1:
                J = Jinv = ident
            else:
                d = least_nonresidue(p)
                J = diag(one, (d, 0))
                Jinv = diag(one, (pow(d, -1, ar.M), 0))
            H = Hinv = ident
        else:           # orthogonal, hermitian, u, gu: J = H = 1; gl: no form
            J = Jinv = H = Hinv = ident
        self.J, self.Jinv = J, Jinv
        self.P = ar.mul(H, Jinv)
        self.Pinv = ar.mul(J, Hinv)

    def star(self, g):
        ar = self.ar
        return ar.tau(ar.mul(ar.mul(self.Jinv, ar.transpose(g)), self.J))

    def multiplier(self, g):
        """mu with g g* = mu 1 and mu a unit of the base ring, else None;
        for general-linear, 1 when g is invertible."""
        ar = self.ar
        if not self.has_form:
            return (1, 0) if ar.is_unit(ar.det(g)) else None
        mu = ar.scalar_part(ar.mul(g, self.star(g)))
        if mu is None or mu[1] != 0 or not ar.is_unit(mu):
            return None
        if self.isometry and mu != (1, 0):
            return None
        return mu

    def theta(self, g):
        """theta(g) = P g^T P^-1, valid for every similitude g."""
        ar = self.ar
        return ar.mul(ar.mul(self.P, ar.transpose(g)), self.Pinv)

    def congruence_subgroup(self, level: int) -> list:
        """All members 1 + p^level Y mod p^N, by brute force over Y."""
        ar = self.ar
        step = ar.p**level
        width = ar.p ** (ar.N - level)
        comps = range(width)
        ident = ar.identity()
        out = []
        per_entry = 2 if ar.inert else 1
        for ys in itertools.product(comps, repeat=per_entry * ar.n * ar.n):
            flat = []
            it = iter(ys)
            for _ in range(ar.n * ar.n):
                flat.append(next(it) * step)
                flat.append(next(it) * step if ar.inert else 0)
            g = ar.add(ident, tuple(flat))
            if self.multiplier(g) is not None:
                out.append(g)
        return out

    def cayley(self, X):
        """c(X) = (1 - X / (1 + alpha)) (1 + X)^-1 for 2 x 2 X, or 1 + X
        without a form."""
        ar = self.ar
        ident = ar.identity()
        if not self.has_form:
            return ar.add(ident, X)
        alpha = ar.scalar_part(ar.add(X, self.star(X)))
        lam = ar.sinv(((1 + alpha[0]) % ar.M, alpha[1]))
        return ar.mul(ar.sub(ident, ar.scale(lam, X)), ar.inv2(ar.add(ident, X)))
