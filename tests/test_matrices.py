import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.matrices import (Mat, NotInvertibleError, components_per_scalar,
                              parse_matrix)
from simdual.scalars import INERT, SPLIT, NotIntegralError, Ring
from simdual.spaces import SpaceError, validate_space

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


# -- the stored form against a termwise oracle on Scalar entries -------


CANONICAL_RINGS = [Ring(3, SPLIT), Ring(3, INERT), Ring(3, SPLIT, 2),
                   Ring(3, INERT, 2)]


def _oracle(ring, comps, den=1) -> list:
    """The 2 x 2 matrix with components ``comps`` over ``den``, as rows of
    Scalars built entry by entry."""
    d = components_per_scalar(ring)

    def entry(k):
        b = Fraction(comps[d * k + 1], den) if d == 2 else 0
        return ring.scalar(Fraction(comps[d * k], den), b)
    return [[entry(2 * i + j) for j in range(2)] for i in range(2)]


def _agrees(m: Mat, entries):
    """m is the 2 x 2 matrix of the Scalars ``entries`` in ==, hash, key,
    text and entries, and stores its canonical pair."""
    ring = m.ring
    other = Mat(ring, entries)
    assert m == other and hash(m) == hash(other)
    assert m.key() == tuple(v for row in entries for x in row
                            for v in (x.a, x.b))
    assert m.to_text() == "; ".join(", ".join(str(x) for x in row)
                                    for row in entries)
    for i, j in itertools.product(range(2), repeat=2):
        assert m[i, j] == entries[i][j]
    if ring.exact:
        assert m.den == math.lcm(*(x.d for row in entries for x in row))
        assert math.gcd(m.den, *m.nums) == 1
    else:
        assert m.den == 1 and all(0 <= v < ring.modulus for v in m.nums)


def _termwise_product(a, b):
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in range(2)]
            for i in range(2)]


@pytest.mark.parametrize("ring", CANONICAL_RINGS,
                         ids=["exact-split", "exact-inert", "mod9-split",
                              "mod9-inert"])
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_stored_form_is_canonical(ring, data):
    # denominators prime to p mod p^N, where they are units
    dens = [1, 2, 3, 4, 9] if ring.exact else [1, 2, 4, 5, 7]
    rational = st.builds(Fraction, st.integers(-30, 30),
                         st.sampled_from(dens))
    D = 4 * components_per_scalar(ring)
    xs = data.draw(st.lists(rational, min_size=D, max_size=D))
    ys = data.draw(st.lists(rational, min_size=D, max_size=D))
    ints = data.draw(st.lists(st.integers(-40, 40), min_size=D, max_size=D))
    sign = data.draw(st.sampled_from([1, -1]))
    den = sign * data.draw(st.sampled_from(dens))
    a, b = _oracle(ring, xs), _oracle(ring, ys)
    A = Mat(ring, [[x if ring.ext == INERT else x.a for x in row]
                   for row in a])
    B = Mat.from_components(ring, 2, ys)
    _agrees(A, a)
    _agrees(B, b)
    _agrees(Mat.from_components(ring, 2, xs, den), _oracle(ring, xs, den))
    _agrees(Mat.from_components(ring, 2, ints, den),
            _oracle(ring, ints, den))
    _agrees(A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)])
    _agrees(A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(a, b)])
    _agrees(A * B, _termwise_product(a, b))
    det = a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if bool(det) if ring.exact else det.is_unit():
        f = det.inv()
        _agrees(A.inv(), [[a[1][1] * f, -a[0][1] * f],
                          [-a[1][0] * f, a[0][0] * f]])
    else:
        assert not A.is_invertible()
    if ring.exact and all(x.val() >= 0 for row in a for x in row):
        reduced = ring.truncated(2)
        _agrees(A.reduce(2), [[reduced.scalar(x.a, x.b) for x in row]
                              for row in a])


def test_reduce_names_the_first_non_integral_component():
    ring = Ring(3, SPLIT)
    with pytest.raises(NotIntegralError,
                       match=r"^5/3 has negative 3-adic valuation$"):
        Mat(ring, [[Fraction(6, 3), 2],
                   [Fraction(5, 3), Fraction(1, 9)]]).reduce(2)
    inert = Ring(3, INERT)
    with pytest.raises(NotIntegralError,
                       match=r"^-1/3 has negative 3-adic valuation$"):
        Mat(inert, [[inert.scalar(2, Fraction(-1, 3)), 0],
                    [0, inert.scalar(Fraction(1, 9))]]).reduce(2)
    # mod p^N, from_components over a denominator divisible by p too
    with pytest.raises(NotIntegralError,
                       match=r"^1/3 has negative 3-adic valuation$"):
        Mat.from_components(Ring(3, SPLIT, 2), 2, [3, 1, 0, 6], 3)


def test_scalars_of_another_ring_are_rejected():
    split, mod9 = Ring(3, SPLIT), Ring(3, SPLIT, 2)
    for ring, x in ((split, Ring(5, SPLIT).scalar(1)),
                    (mod9, split.scalar(Fraction(1, 2))),
                    (split, mod9.scalar(2))):
        with pytest.raises(ValueError, match="^mixed scalar rings$"):
            Mat(ring, [[x, 0], [0, 1]])
        with pytest.raises(ValueError, match="^mixed scalar rings$"):
            Mat.identity(ring, 2) * x
    # an equal ring that is another object is the same ring
    assert Mat(split, [[Ring(3, SPLIT).scalar(2)]]) == Mat(split, [[2]])


def test_rectangular_input_is_parsed_and_rejected_by_shape_checks():
    m = parse_matrix(EXACT, "1, 2, 3; 4, 5, 6")
    assert (m.nrows, m.ncols) == (2, 3)
    assert m.to_text() == "1, 2, 3; 4, 5, 6"
    assert m.transpose().to_text() == "1, 4; 2, 5; 3, 6"
    assert m != parse_matrix(EXACT, "1, 2; 3, 4; 5, 6")
    with pytest.raises(SpaceError, match="^J must be square$"):
        validate_space(m, +1, EXACT)
