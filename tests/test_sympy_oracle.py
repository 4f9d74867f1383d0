"""sympy as an independent oracle for three integer kernels: the Smith
form of ``modsolve``, the split inverse mod p^N of ``cayley`` and the exact
determinant of ``Mat``.  Skipped where sympy is not installed."""

import math
import random
from fractions import Fraction

import pytest

from simdual.cayley import matrix_inverse_kernel
from simdual.matrices import Mat
from simdual.modsolve import smith
from simdual.scalars import SPLIT, Ring
from simdual.spaces import GENERAL_LINEAR, standard_space

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
    inv = matrix_inverse_kernel(
        standard_space(GENERAL_LINEAR, n, Ring(p, SPLIT, N)))
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
def test_exact_det_matches_sympy(n):
    rng = random.Random(n)
    ring = Ring(3)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9, 5]))
                 for _ in range(n)] for _ in range(n)]
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                              for x in row] for row in rows]).det()
        assert Mat(ring, rows).det().a == Fraction(int(want.p), int(want.q))
