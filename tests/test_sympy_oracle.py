"""sympy as an independent oracle for three kernels: the Smith form of
``modsolve``, the split inverse mod p^N of ``matrices`` and the exact split
inverse of ``Mat``.  Skipped where sympy is not installed."""

import math
import random
from fractions import Fraction

import pytest

from simdual.matrices import Mat, NotInvertibleError, matrix_inverse_kernel
from simdual.modsolve import smith
from simdual.scalars import SPLIT, Ring

sympy = pytest.importorskip("sympy")
normalforms = pytest.importorskip("sympy.matrices.normalforms")


def _chain(diag):
    """The invariant factors of a diagonal matrix: gcd and lcm pushed
    along until each entry divides the next, zeros last."""
    d = [abs(x) for x in diag]
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            d[i], d[j] = math.gcd(d[i], d[j]), math.lcm(d[i], d[j])
    return d


@pytest.mark.parametrize("seed", range(40))
def test_smith_invariant_factors_match_sympy(seed):
    rng = random.Random(seed)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    A = [[rng.choice([0, 0, 1, -2, 3, 6, 9, -27, 14]) for _ in range(n)]
         for _ in range(m)]
    U, D, V = smith(A)
    assert sympy.Matrix(U) * sympy.Matrix(A) * sympy.Matrix(V) \
        == sympy.Matrix(D)
    assert abs(sympy.Matrix(U).det()) == abs(sympy.Matrix(V).det()) == 1
    want = normalforms.invariant_factors(sympy.Matrix(A), domain=sympy.ZZ)
    assert _chain([D[i][i] for i in range(min(m, n))]) == \
        [abs(int(x)) for x in want]


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
