"""sympy as an independent oracle for three kernels: the integer kernel
basis of the Lie systems in ``lattices``, the split inverse mod p^N of
``matrices`` and the exact split inverse of ``Mat``.  Skipped where sympy
is not installed."""

import math
import random
from fractions import Fraction

import pytest

from simdual.cayley import lie_alpha_kernel, lie_system
from simdual.lattices import LieCoords
from simdual.matrices import Mat, NotInvertibleError, matrix_inverse_kernel
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (FAMILIES, HERMITIAN, SKEW_HERMITIAN, SYMPLECTIC,
                            standard_space, validate_space)

sympy = pytest.importorskip("sympy")


def _lie_spaces():
    """The five families at n <= 4 (symplectic at 2 and 4), p = 3, 5, and
    three orthogonal forms off the standard models at p = 3."""
    out = []
    for family in FAMILIES:
        ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
        for n in ((2, 4) if family == SYMPLECTIC else (1, 2, 3, 4)):
            out += [pytest.param(standard_space(family, n, Ring(p, ext)),
                                 id=f"{family}-{n}-{p}") for p in (3, 5)]
    ring = Ring(3, SPLIT)
    return out + [pytest.param(validate_space(
        Mat(ring, J), +1, ring, H=Mat.identity(ring, 2)), id=name)
        for J, name in (([[1, 0], [0, 3]], "diag-1-3"),
                        ([[1, 0], [0, 2]], "diag-1-2"),
                        ([[2, 1], [1, 1]], "dense-J"))]


@pytest.mark.parametrize("space", _lie_spaces())
def test_lie_kernel_basis_matches_sympy(space):
    # each basis vector (X, alpha) is an integer kernel vector of the Lie
    # system, there are as many as sympy's nullity, and the entries they
    # read form an identity minor: an integer kernel vector w is then
    # the sum of w[read] times its vector, so the basis spans the whole
    # integer kernel; the general-linear system has no rows and no alpha
    for isometry in (False, True):
        coords = LieCoords(space, isometry)
        if space.has_form:
            E = sympy.Matrix([[sympy.Rational(Fraction(a))
                               for a in (row[:-1] if isometry else row)]
                              for row in lie_system(space)])
        else:
            E = sympy.zeros(0, coords.m0)
        vectors = []
        for B in coords._basis_comps:
            v = list(B)
            if E.cols > len(v):
                alpha = Fraction(lie_alpha_kernel(space)(B))
                assert alpha.denominator == 1
                v.append(int(alpha))
            assert E * sympy.Matrix(v) == sympy.zeros(E.rows, 1)
            vectors.append(v)
        assert len(vectors) == E.cols - E.rank()
        assert [[v[i] for v in vectors] for i in coords._reads] == \
            [[int(i == j) for j in range(coords.m)] for i in range(coords.m)]


@pytest.mark.parametrize("p, N, n", [(3, 1, 2), (3, 2, 3), (5, 2, 2),
                                     (3, 3, 4)])
def test_split_inverse_mod_pN_matches_sympy(p, N, n):
    inv = matrix_inverse_kernel(Ring(p, SPLIT, N), n)
    M = p**N
    rng = random.Random(p * 100 + N * 10 + n)
    for _ in range(30):
        x = tuple(rng.randrange(M) for _ in range(n * n))
        got = inv(x)
        A = sympy.Matrix(n, n, list(x))
        if math.gcd(int(A.det()), p) != 1:
            assert got is None
            continue
        assert list(got) == [int(v) for v in A.inv_mod(M)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_split_inverse_matches_sympy(n):
    # a third of the draws repeats a row, so sympy's determinant is 0
    rng = random.Random(n)
    ring = Ring(3)
    singular = 0
    for k in range(30):
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9, 5]))
                 for _ in range(n)] for _ in range(n)]
        if k % 3 == 2 and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[j] = rows[i]
        A = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                           for x in row] for row in rows])
        if A.det() == 0:
            singular += 1
            with pytest.raises(NotInvertibleError):
                Mat(ring, rows).inv()
            continue
        want = [[Fraction(int(x.p), int(x.q)) for x in A.inv().row(i)]
                for i in range(n)]
        assert Mat(ring, rows).inv() == Mat(ring, want)
    assert singular >= (9 if n > 1 else 0)
