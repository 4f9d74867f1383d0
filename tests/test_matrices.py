import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.matrices import Mat, NotInvertibleError, parse_matrix
from simdual.scalars import INERT, SPLIT, Ring

EXACT = Ring(3, SPLIT)
TRUNC = Ring(3, SPLIT, 2)


def test_constructors():
    assert Mat.identity(EXACT, 2) * Mat.diag(EXACT, [2, 5]) == \
        Mat(EXACT, [[2, 0], [0, 5]])
    assert Mat.scalar_mat(EXACT, 2, 7) == Mat.diag(EXACT, [7, 7])
    with pytest.raises(ValueError):
        Mat(EXACT, [[1, 2], [3]])


def test_arithmetic_and_transpose():
    a = Mat(EXACT, [[1, 2], [3, 4]])
    b = Mat(EXACT, [[0, 1], [1, 0]])
    assert a * b == Mat(EXACT, [[2, 1], [4, 3]])
    assert (a + b).transpose() == a.transpose() + b.transpose()
    assert (a * 2)[1, 1] == EXACT.scalar(8)
    assert (-a) + a == Mat.zeros(EXACT, 2)


def test_det_trace_inverse():
    # det a = -2, so a^-1 = adj(a) / -2
    a = Mat(EXACT, [[1, 2], [3, 4]])
    assert a.inv() == Mat(EXACT, [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]])
    assert a[0, 0] + a[1, 1] == EXACT.scalar(5)
    assert a * a.inv() == Mat.identity(EXACT, 2)
    with pytest.raises(NotInvertibleError):
        Mat(EXACT, [[1, 2], [2, 4]]).inv()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_exact_inert_inverse(n):
    # m m^-1 = m^-1 m = 1 on rational a + b s entries; a zero row or a
    # repeated row makes m singular, and inv raises
    ring = Ring(3, INERT)
    rng = random.Random(n)
    one = Mat.identity(ring, n)
    for k in range(30):
        rows = [[ring.scalar(Fraction(rng.randint(-9, 9), rng.choice([1, 3])),
                             Fraction(rng.randint(-9, 9), rng.choice([1, 5])))
                 for _ in range(n)] for _ in range(n)]
        if k % 3 == 1:
            rows[rng.randrange(n)] = [ring.zero] * n
        elif k % 3 == 2 and n > 1:
            i, j = rng.sample(range(n), 2)
            rows[j] = rows[i]
        m = Mat(ring, rows)
        if k % 3 == 0 or n == 1 and k % 3 == 2:
            assert m.is_invertible()
            assert m * m.inv() == m.inv() * m == one
        else:
            assert not m.is_invertible()
            with pytest.raises(NotInvertibleError):
                m.inv()


def test_truncated_inverse_needs_unit_pivots():
    a = Mat(TRUNC, [[3, 1], [1, 0]])    # det = -1, invertible despite 3
    assert a * a.inv() == Mat.identity(TRUNC, 2)
    with pytest.raises(NotInvertibleError):
        Mat(TRUNC, [[3, 0], [0, 1]]).inv()


def test_tau_entrywise():
    ring = Ring(3, INERT)
    a = Mat(ring, [[ring.scalar(1, 2), ring.scalar(0, 1)], [3, 4]])
    t = a.tau()
    assert t[0, 0] == ring.scalar(1, -2)
    assert t[1, 0] == ring.scalar(3)


def test_reduce_lift_roundtrip():
    a = Mat(EXACT, [[Fraction(1, 2), 1], [0, 1]])
    r = a.reduce(2)
    assert r[0, 0].a == 5


def test_key_and_text_roundtrip():
    ring = Ring(3, INERT)
    a = Mat(ring, [[ring.scalar(1, 2), ring.scalar(Fraction(-1, 2))],
                   [0, ring.scalar(0, Fraction(1, 3))]])
    assert parse_matrix(ring, a.to_text()) == a
    assert len(a.key()) == 8


def test_parse_matrix_forms():
    ring = Ring(3, INERT)
    m = parse_matrix(ring, "1+2*s, -1/2; 0, -2*s")
    assert m[0, 0] == ring.scalar(1, 2)
    assert m[1, 1] == ring.scalar(0, -2)


def test_scalar_part():
    assert Mat.scalar_mat(EXACT, 3, 5).scalar_part() == EXACT.scalar(5)
    assert Mat(EXACT, [[5, 1], [0, 5]]).scalar_part() is None


def _mats(ring, size=2, lo=-6, hi=6):
    entry = st.integers(lo, hi)
    return st.lists(st.lists(entry, min_size=size, max_size=size),
                    min_size=size, max_size=size).map(lambda r: Mat(ring, r))


@settings(max_examples=60)
@given(_mats(EXACT), _mats(EXACT))
def test_product_inverse_property(a, b):
    if a.is_invertible() and b.is_invertible():
        assert (a * b).inv() == b.inv() * a.inv()


@settings(max_examples=60)
@given(_mats(EXACT))
def test_reduce_is_ring_hom(a):
    b = Mat(EXACT, [[1, 2], [1, 1]])
    assert (a * b).reduce(2) == a.reduce(2) * b.reduce(2)
    assert (a + b).reduce(2) == a.reduce(2) + b.reduce(2)
