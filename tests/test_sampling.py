import hashlib

import pytest

from simdual.cayley import in_domain
from simdual.involution import theta_group
from simdual.lattices import ad_operator, standard_lattices
from simdual.sampling import (make_rng, sample_group, sample_integral_lie,
                              sample_lie, sample_stabilizing,
                              sample_theta_fixed)
from simdual.scalars import INERT, SPLIT, Ring
from simdual.matrices import Mat
from simdual.spaces import (FAMILIES, HERMITIAN, SKEW_HERMITIAN, SYMPLECTIC,
                            certify_group, standard_space, validate_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
STD = standard_lattices(SYMPL)
HERM = standard_space(HERMITIAN, 2, Ring(3, INERT))
STD_H = standard_lattices(HERM)


def test_same_seed_same_samples():
    a = [sample_lie(STD, make_rng(7)).mat.key() for _ in range(1)]
    b = [sample_lie(STD, make_rng(7)).mat.key() for _ in range(1)]
    assert a == b
    r1, r2 = make_rng(7), make_rng(7)
    seq1 = [sample_group(STD, r1).mat.key() for _ in range(5)]
    seq2 = [sample_group(STD, r2).mat.key() for _ in range(5)]
    assert seq1 == seq2
    assert seq1 != [sample_group(STD, make_rng(8)).mat.key()
                    for _ in range(5)]


def test_sampled_lie_is_certified_and_in_domain():
    rng = make_rng(1)
    for std in (STD, STD_H):
        for _ in range(10):
            X = sample_lie(std, rng)
            assert in_domain(X)
        Xi = sample_lie(std, rng, isometry=True)
        assert Xi.alpha == std.space.ring.zero


def test_integral_lie_is_in_scaled_lattice():
    rng = make_rng(2)
    for _ in range(10):
        X = sample_integral_lie(STD, rng, level=1)
        c = STD.gu_coords.to_coords(X.mat)
        assert all(x.denominator == 1 and int(x) % 3 == 0 for x in c)
        assert in_domain(X)


def test_sampled_group_membership():
    rng = make_rng(3)
    for std in (STD, STD_H):
        for _ in range(5):
            g = sample_group(std, rng)
            assert g.mu.is_in_base()
        h = sample_group(std, rng, isometry=True)
        assert h.mu == std.space.ring.one


def test_theta_fixed_samples():
    rng = make_rng(4)
    for _ in range(10):
        x = sample_theta_fixed(STD, rng)
        assert theta_group(x).mat == x.mat


def test_stabilizing_samples_preserve_lattice():
    rng = make_rng(5)
    for _ in range(5):
        k = sample_stabilizing(STD, rng)
        assert STD.Ldot.transform(ad_operator(STD.gu_coords, k.mat)) \
            == STD.Ldot


def _sample_group_oracle(std, rng, isometry, factors):
    """``sample_group`` in Mat arithmetic: the product of the Mat-formula
    Cayley images (1 - lam X)(1 + X)^-1 of ``sample_lie`` draws (1 + X
    in the general-linear family), times a random unit scalar."""
    space = std.space
    one = space.identity()
    g = None
    for _ in range(factors):
        X = sample_lie(std, rng, isometry=isometry)
        f = one + X.mat
        if space.has_form:
            lam = (space.ring.one + X.alpha).inv()
            f = (one - X.mat * lam) * f.inv()
        g = f if g is None else g * f
    if not isometry:
        p = space.ring.p
        s = rng.randint(1, 5 * p)
        while s % p == 0:
            s = rng.randint(1, 5 * p)
        g = g * s
    return certify_group(space, g)


def _oracle_spaces():
    """The five standard models at p = 3, and an orthogonal form with
    J = diag(1, 3), whose star has the rational coefficient 1/3."""
    out = [pytest.param(standard_space(
        family, 2, Ring(3, INERT if family in (HERMITIAN, SKEW_HERMITIAN)
                        else SPLIT)), id=family) for family in FAMILIES]
    ring = Ring(3, SPLIT)
    return out + [pytest.param(validate_space(
        Mat(ring, [[1, 0], [0, 3]]), +1, ring, H=Mat.identity(ring, 2)),
        id="orthogonal-rational-star")]


@pytest.mark.parametrize("space", _oracle_spaces())
def test_sample_group_is_the_mat_oracle(space):
    # the same Mat, the same mu and the same random state after each draw
    std = standard_lattices(space)
    for factors in (1, 2, 3, 4):
        for isometry in (False, True):
            seed = 100 * factors + isometry
            rng, oracle_rng = make_rng(seed), make_rng(seed)
            for _ in range(3):
                g = sample_group(std, rng, isometry=isometry,
                                 factors=factors)
                want = _sample_group_oracle(std, oracle_rng, isometry,
                                            factors)
                assert (g.mat, g.mu) == (want.mat, want.mu)
                assert rng.getstate() == oracle_rng.getstate()


def _sampled_values_digest() -> str:
    """sha256 of the values the five samplers draw, in one stream per
    family (n = 2, p = 3, seed 2500): every matrix as text, with its alpha
    or mu, and the random state after the last draw."""
    h = hashlib.sha256()
    for family in FAMILIES:
        std = standard_lattices(standard_space(
            family, 2, Ring(3, INERT if family in (HERMITIAN, SKEW_HERMITIAN)
                            else SPLIT)))
        rng = make_rng(2500)
        draws = [sample_lie(std, rng) for _ in range(4)]
        draws += [sample_lie(std, rng, isometry=True) for _ in range(2)]
        draws += [sample_group(std, rng) for _ in range(3)]
        draws += [sample_group(std, rng, isometry=True)]
        draws += [sample_integral_lie(std, rng) for _ in range(3)]
        draws += [sample_theta_fixed(std, rng) for _ in range(2)]
        draws += [sample_stabilizing(std, rng) for _ in range(2)]
        for obj in draws:
            scalar = obj.alpha if hasattr(obj, "alpha") else obj.mu
            h.update(f"{family}|{obj.mat.to_text()}|{scalar}\n".encode())
        h.update(repr(rng.getstate()).encode())
    return h.hexdigest()


# recorded with the integer-numerator draws of ``sampling._draws``, on the
# Lie basis from the column reduction of [E; I], E the Lie system
SAMPLED_VALUES_DIGEST = \
    "407b181e9451b06ddd18f49cef13c0fcbd317ab973a830b298cb4ed3739ca77e"


def test_sampled_values_pinned():
    # the report digests carry only counts, so a sampler fault that keeps
    # every identity true shows only here
    assert _sampled_values_digest() == SAMPLED_VALUES_DIGEST
