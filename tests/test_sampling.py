from simdual.cayley import in_domain
from simdual.involution import theta_group
from simdual.lattices import ad_operator, standard_lattices
from simdual.sampling import (make_rng, sample_group, sample_integral_lie,
                              sample_lie, sample_stabilizing,
                              sample_theta_fixed)
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import HERMITIAN, SYMPLECTIC, standard_space

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
