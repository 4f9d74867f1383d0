"""The generated adjugate code and what is built on it: the inverse mod
p^N and ``Mat.inv``/``Mat.is_invertible`` against an integer Gauss-Jordan
oracle that embeds the inert ring as 2 x 2 blocks over the base ring,
the determinant lines against a Leibniz sum, and the fused Cayley kernel
against the composition of the adjugate, the product and list
comprehensions that it replaces."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.cayley import cayley_kernel, multiplier_predicate
from simdual.matrices import (Mat, NotInvertibleError, adjugate_kernel,
                              components_per_scalar, matrix_inverse_kernel,
                              product_kernel)
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                            SKEW_HERMITIAN, SYMPLECTIC, standard_space)


def gauss_jordan(x, n, p, M):
    """Gauss-Jordan inverse mod M = p^N of the n x n integer matrix with
    row-major entries x, pivoting on units; None when it is singular."""
    aug = [list(x[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = pow(aug[col][col], -1, M)
        top = aug[col] = [v * f % M for v in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                aug[r] = [(v - c * w) % M for v, w in zip(aug[r], top)]
    return tuple(v for row in aug for v in row[n:])


def oracle_inverse(space, x):
    """The inverse mod p^N of the matrix with components x: Gauss-Jordan,
    over the inert ring on the 2n x 2n matrix of blocks
    [[a, u b], [b, a]] for the entries a + b s (a ring homomorphism whose
    image is invertible exactly when x is)."""
    ring = space.ring
    n, p, M = space.n, ring.p, ring.modulus
    if ring.ext != INERT:
        return gauss_jordan(x, n, p, M)
    m = 2 * n
    big = [0] * (m * m)
    for i in range(n):
        for j in range(n):
            a, b = x[2 * (i * n + j)], x[2 * (i * n + j) + 1]
            r, c = 2 * i, 2 * j
            big[r * m + c] = big[(r + 1) * m + c + 1] = a
            big[(r + 1) * m + c] = b
            big[r * m + c + 1] = ring.u * b
    y = gauss_jordan(big, m, p, M)
    if y is None:
        return None
    return tuple(y[(2 * i + k) * m + 2 * j]
                 for i in range(n) for j in range(n) for k in (0, 1))


def _space(ext, n, p, N=None):
    family = HERMITIAN if ext == INERT else ORTHOGONAL
    ring = Ring(p, ext) if N is None else Ring(p, ext, N)
    return standard_space(family, n, ring)


def _matrices(space, rng, count):
    """Random component tuples mod p^N, a third of them made singular
    mod p: a row that is zero mod p, or a row repeated."""
    ring = space.ring
    n, d, M = space.n, components_per_scalar(space.ring), ring.modulus
    width = d * n
    out = []
    for k in range(count):
        x = [rng.randrange(M) for _ in range(d * n * n)]
        if k % 3 == 1:
            i = rng.randrange(n)
            x[i * width:(i + 1) * width] = [ring.p * rng.randrange(M)
                                            for _ in range(width)]
        elif k % 3 == 2 and n > 1:
            i, j = rng.sample(range(n), 2)
            x[j * width:(j + 1) * width] = x[i * width:(i + 1) * width]
        out.append(tuple(x))
    return out


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ext", [SPLIT, INERT])
def test_inverse_kernel_is_the_gauss_jordan_inverse(ext, n, p, N):
    # the kernel, Mat.inv and Mat.is_invertible on the same draws
    space = _space(ext, n, p, N)
    ring = space.ring
    inv = matrix_inverse_kernel(ring, n)
    rng = random.Random(n * 100 + p * 10 + N)
    verdicts = set()
    for x in _matrices(space, rng, 60):
        want = oracle_inverse(space, x)
        assert inv(x) == want
        g = Mat.from_components(ring, n, x)
        assert g.is_invertible() == (want is not None)
        if want is None:
            with pytest.raises(NotInvertibleError):
                g.inv()
        else:
            assert g.inv() == Mat.from_components(ring, n, want)
        verdicts.add(want is None)
    assert verdicts == {True, False}


def leibniz_det(m):
    """det m as the Leibniz sum over the permutations of range(n), in
    ``Scalar`` arithmetic."""
    ring, n = m.ring, m.nrows
    total = ring.zero
    for perm in itertools.permutations(range(n)):
        term = ring.one
        for i, j in enumerate(perm):
            term = term * m[i, j]
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


@functools.cache
def _general_linear(n, p):
    return standard_space(GENERAL_LINEAR, n, Ring(p, SPLIT, 1))


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(-50, 50), min_size=n * n,
                         max_size=n * n))),
       st.sampled_from([3, 5]))
def test_general_linear_predicate_is_a_unit_determinant(nx, p):
    # the determinant lines of the adjugate code, run on the integers x,
    # against the Leibniz sum: mu = 1 exactly where det x is a unit mod p
    n, x = nx
    det = leibniz_det(Mat(Ring(p, SPLIT), [x[i * n:(i + 1) * n]
                                           for i in range(n)]))
    assert multiplier_predicate(_general_linear(n, p))(x) == \
        (1 if det.x % p else None)


def composed_cayley(space):
    """The Cayley kernel as the composition it replaces: Y = den 1 + x,
    (A, q) = adj(Y), s = den + alpha, and the product (s 1 - x) A."""
    ident = space.identity().nums
    adj = adjugate_kernel(space.ring, space.n)
    mul = product_kernel(space.ring, space.n)
    p, M = space.ring.p, None if space.ring.exact else space.ring.modulus

    def c(x, alpha, den=1):
        s = den + alpha
        y = [den * e + v for e, v in zip(ident, x)]
        a, q = adj(y)
        if not (s and q) if M is None else (s % p == 0 or q % p == 0):
            return None
        if not space.has_form:
            return (y, den, s) if M is None else (tuple(v % M for v in y), 1)
        P = mul([s * e - v for e, v in zip(ident, x)], a)
        if M is None:
            return [v * den for v in P], s * q, s
        f = pow(s * q, -1, M)
        return tuple(v * f % M for v in P), pow(s, -2, M)
    return c


def _cayley_cases():
    """(family, ext, n) of every space the families allow at n = 1..4,
    the general-linear family over both rings."""
    exts = {ORTHOGONAL: [SPLIT], SYMPLECTIC: [SPLIT], HERMITIAN: [INERT],
            SKEW_HERMITIAN: [INERT], GENERAL_LINEAR: [SPLIT, INERT]}
    for family in FAMILIES:
        for ext in exts[family]:
            for n in range(1, 5):
                if family != SYMPLECTIC or n % 2 == 0:
                    yield family, ext, n


@pytest.mark.parametrize("N", [1, 2, 3, None])
@pytest.mark.parametrize("family, ext, n", list(_cayley_cases()))
def test_fused_cayley_kernel_is_the_composition(family, ext, n, N):
    # the same integers on every draw, None included: a third of the
    # draws has 1 + alpha singular, a third a row of Y = den 1 + x that is
    # 0 mod p (a zero row over the exact field)
    base = standard_space(family, n, Ring(3, ext))
    space = base if N is None else base.truncated(N)
    d, p = components_per_scalar(space.ring), space.ring.p
    fused, composed = cayley_kernel(space), composed_cayley(space)
    rng = random.Random(f"{family}-{ext}-{n}-{N}")
    bound = 30 if N is None else p**N
    nones = set()
    for k in range(90):
        den = rng.randint(1, 12) if N is None else 1
        x = [rng.randrange(-bound, bound) for _ in range(d * n * n)]
        alpha = rng.randrange(-bound, bound) if space.has_form else 0
        if k % 3 == 1 and space.has_form:
            alpha = -den + p * rng.randrange(bound) * (N is not None)
        elif k % 3 == 2:
            i = rng.randrange(n)
            x[d * n * i:d * n * (i + 1)] = [
                -den * (j == d * i) + p * rng.randrange(bound) * (N is not None)
                for j in range(d * n)]
        args = (x, alpha, den) if N is None else (x, alpha)
        want, got = composed(*args), fused(*args)
        if want is not None:
            want = (tuple(want[0]),) + tuple(want[1:])
        assert got == want
        nones.add(got is None)
    assert nones == {True, False}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("ext", [SPLIT, INERT])
def test_adjugate_kernel_is_the_exact_inverse(ext, n):
    # g A = A g = q 1 on integer components with no modulus, q is the
    # determinant (split) or its norm (inert), and A / q is Mat.inv
    space = _space(ext, n, 3)
    ring = space.ring
    d = components_per_scalar(ring)
    adj, mul = adjugate_kernel(ring, n), product_kernel(ring, n)
    rng = random.Random(n)
    for _ in range(20):
        x = tuple(rng.randint(-30, 30) for _ in range(d * n * n))
        a, q = adj(x)
        g = Mat.from_components(ring, n, x)
        det = leibniz_det(g)
        assert q == (det.x if d == 1 else det.x ** 2 - ring.u * det.y ** 2)
        assert list(mul(x, a)) == list(mul(a, x)) == \
            [q * e for e in space.identity().nums]
        if q:
            assert Mat.from_components(ring, n, a, q) == g.inv()
    assert adj(space.identity().nums) == (space.identity().nums, 1)
