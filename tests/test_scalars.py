import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.matrices import Mat
from simdual.scalars import (INERT, INF, SPLIT, NotIntegralError, NotUnitError,
                             Ring, canonical_residue, is_odd_prime,
                             rational_sqrt, smallest_nonresidue,
                             sqrt_mod_prime_power, val_fraction)


def test_is_odd_prime():
    assert [p for p in range(20) if is_odd_prime(p)] == [3, 5, 7, 11, 13, 17, 19]


def test_smallest_nonresidue():
    assert smallest_nonresidue(3) == 2
    assert smallest_nonresidue(5) == 2
    assert smallest_nonresidue(7) == 3


def test_val_fraction():
    assert val_fraction(Fraction(18), 3) == 2
    assert val_fraction(Fraction(1, 9), 3) == -2
    assert val_fraction(Fraction(0), 3) == INF


def test_canonical_residue():
    assert canonical_residue(Fraction(1, 2), 3, 2) == 5
    assert canonical_residue(Fraction(-1), 3, 2) == 8
    with pytest.raises(NotIntegralError):
        canonical_residue(Fraction(1, 3), 3, 2)


def test_ring_validation():
    with pytest.raises(ValueError):
        Ring(4)
    with pytest.raises(ValueError):
        Ring(3, "weird")
    with pytest.raises(ValueError):
        Ring(3, SPLIT, 0)


def _tau(x):
    """tau of the scalar x, by ``Mat.tau`` on the 1 x 1 matrix [x]."""
    return Mat(x.ring, [[x]]).tau()[0, 0]


def _reduce(x, N: int):
    """x mod p^N, by ``Mat.reduce`` on the 1 x 1 matrix [x]."""
    return Mat(x.ring, [[x]]).reduce(N)[0, 0]


def test_scalar_field_arithmetic():
    ring = Ring(3, INERT)
    s = ring.gen
    x = ring.scalar(2, 1)
    assert (s * s) == ring.scalar(ring.u)
    assert x * x.inv() == ring.one
    assert _tau(x) == ring.scalar(2, -1)
    assert x * _tau(x) == ring.scalar(4 - ring.u)
    assert (x * _tau(x)).y == 0      # the norm is in the base field


def test_scalar_truncated_units():
    ring = Ring(3, SPLIT, 2)
    assert ring.scalar(2).inv() * ring.scalar(2) == ring.one
    with pytest.raises(NotUnitError):
        ring.scalar(3).inv()
    assert not ring.scalar(6).is_unit()
    assert ring.scalar(Fraction(1, 2)) == ring.scalar(5)


def test_scalar_reduce_lift():
    ring = Ring(3, SPLIT)
    x = ring.scalar(Fraction(1, 2))
    assert _reduce(x, 2).a == 5


def test_sqrt_mod_prime_power():
    r = sqrt_mod_prime_power(4, 3, 3)
    assert r is not None and r * r % 27 == 4
    assert sqrt_mod_prime_power(2, 3, 3) is None
    with pytest.raises(ValueError):
        sqrt_mod_prime_power(3, 3, 2)


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


@settings(max_examples=60)
@given(st.integers(-50, 50), st.integers(-50, 50),
       st.integers(-50, 50), st.integers(-50, 50))
def test_inert_field_axioms(a, b, c, d):
    ring = Ring(5, INERT)
    x = ring.scalar(a, b)
    y = ring.scalar(c, d)
    assert _tau(x * y) == _tau(x) * _tau(y)
    assert _tau(x + y) == _tau(x) + _tau(y)
    if bool(x):
        assert x * x.inv() == ring.one


@settings(max_examples=60)
@given(st.integers(0, 26), st.integers(0, 26))
def test_truncated_ring_homomorphism(a, b):
    exact = Ring(3, SPLIT)
    x, y = exact.scalar(a), exact.scalar(b)
    assert _reduce(x * y, 2) == _reduce(x, 2) * _reduce(y, 2)
    assert _reduce(x + y, 2) == _reduce(x, 2) + _reduce(y, 2)


# -- the (x, y, d) storage against a reference on Fraction pairs -------


def _ref_str(a, b):
    return str(a) if b == 0 else f"{a}+{b}*s"


def _ref_mul(x, y, u):
    (a, b), (c, d) = x, y
    return (a * c + u * b * d, a * d + b * c)


def _ref_inv(x, u):
    a, b = x
    n = a * a - u * b * b
    return (a / n, -b / n)


def _ref_val(x, p):
    return min(val_fraction(x[0], p), val_fraction(x[1], p))


def _assert_matches(s, ref):
    """s stores ref = (a, b) in lowest terms, and reads back as the old
    (Fraction, Fraction) form did."""
    a, b = ref
    assert s.d > 0 and math.gcd(s.x, s.y, s.d) == 1
    assert (s.a, s.b) == (a, b)
    assert type(s.a) is Fraction and type(s.b) is Fraction
    assert str(s) == _ref_str(a, b)
    assert hash(s) == hash((a, b))


_FRACTIONS = st.fractions(min_value=-40, max_value=40, max_denominator=60)


@pytest.mark.parametrize("p, ext", [(3, SPLIT), (3, INERT), (5, INERT)])
@settings(max_examples=80, deadline=None)
@given(_FRACTIONS, _FRACTIONS, _FRACTIONS, _FRACTIONS)
def test_exact_storage_matches_fraction_pairs(p, ext, a, b, c, d):
    ring = Ring(p, ext)
    u = ring.u if ext == INERT else 0
    if ext == SPLIT:
        b = d = Fraction(0)
    x, y = ring.scalar(a, b), ring.scalar(c, d)
    _assert_matches(x, (a, b))
    _assert_matches(x + y, (a + c, b + d))
    _assert_matches(x - y, (a - c, b - d))
    _assert_matches(-x, (-a, -b))
    _assert_matches(x * y, _ref_mul((a, b), (c, d), u))
    _assert_matches(_tau(x), (a, -b))
    _assert_matches(x * _tau(x), _ref_mul((a, b), (a, -b), u))
    assert x.val() == _ref_val((a, b), p)
    assert (x == y) == ((a, b) == (c, d))
    if (a, b) != (0, 0):
        _assert_matches(x.inv(), _ref_inv((a, b), u))
    else:
        with pytest.raises(ZeroDivisionError):
            x.inv()
    N = 2
    if _ref_val((a, b), p) >= 0:
        r = _reduce(x, N)
        assert (r.a, r.b) == (canonical_residue(a, p, N),
                              canonical_residue(b, p, N))
        assert r.ring == Ring(p, ext, N)
    else:
        with pytest.raises(NotIntegralError):
            _reduce(x, N)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_FRACTIONS, _FRACTIONS), min_size=4, max_size=4),
       st.lists(st.tuples(_FRACTIONS, _FRACTIONS), min_size=4, max_size=4))
def test_mat_product_matches_termwise_sum(xs, ys):
    # a Mat product runs the generated product kernel on numerators; each
    # entry must be the termwise sum of the Fraction-pair products, and
    # mod 9 the termwise sum of the reduced scalars
    ring = Ring(3, INERT)
    a = Mat(ring, [[ring.scalar(*xs[2 * i + k]) for k in range(2)]
                   for i in range(2)])
    b = Mat(ring, [[ring.scalar(*ys[2 * k + j]) for j in range(2)]
                   for k in range(2)])
    prod = a * b
    for i in range(2):
        for j in range(2):
            acc = (Fraction(0), Fraction(0))
            for k in range(2):
                t = _ref_mul(xs[2 * i + k], ys[2 * k + j], ring.u)
                acc = (acc[0] + t[0], acc[1] + t[1])
            _assert_matches(prod[i, j], acc)
    if all(x.val() >= 0 for m in (a, b) for row in m.rows for x in row):
        ta, tb = a.reduce(2), b.reduce(2)
        tprod = ta * tb
        for i in range(2):
            for j in range(2):
                assert tprod[i, j] == ta[i, 0] * tb[0, j] + ta[i, 1] * tb[1, j]


@pytest.mark.parametrize("ext", [SPLIT, INERT])
@pytest.mark.parametrize("prec", [None, 1, 2, 3])
def test_int_scalars_equal_their_fraction_path(ext, prec):
    # two exact ints skip the Fraction conversion; the scalar they give
    # has the same storage as the one built from Fractions, negative and
    # beyond-modulus ints included
    ring = Ring(3, ext, prec)
    for a in range(-60, 61, 7):
        for b in (range(-60, 61, 11) if ext == INERT else [0]):
            got = ring.scalar(a, b)
            want = ring.scalar(Fraction(a), Fraction(b))
            assert (got.x, got.y, got.d) == (want.x, want.y, want.d)
            assert ring.scalar(a) == ring.scalar(Fraction(a))
