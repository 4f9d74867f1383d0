import pytest

from simdual.decomposition import find_conjugator_mod
from simdual.involution import (AntiUnitaryError, ConjugatorNotFound,
                                enumerate_matrices, iota_group,
                                is_theta_fixed, theta_group, theta_lie,
                                validate_anti_unitary)
from simdual.matrices import Mat
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (GENERAL_LINEAR, HERMITIAN, SYMPLECTIC,
                            certify_group, certify_lie, standard_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
HERM = standard_space(HERMITIAN, 2, Ring(3, INERT))
SYMPL_F3 = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT, 1))
GL_F3 = standard_space(GENERAL_LINEAR, 2, Ring(3, SPLIT, 1))


def test_validate_anti_unitary_accepts_standard_h():
    for space in (SYMPL, HERM):
        assert validate_anti_unitary(space, space.H) is None
        assert space.H * space.H.tau() == space.identity()


def test_validate_anti_unitary_rejects_corruption():
    bad = Mat(SYMPL.ring, [[1, 1], [0, 1]])
    with pytest.raises(AntiUnitaryError):
        validate_anti_unitary(SYMPL, bad)


def test_similitude_mode_scales():
    # 2 H is an anti-unitary similitude, not an involution
    scaled = SYMPL.H * 2
    with pytest.raises(AntiUnitaryError):
        validate_anti_unitary(SYMPL, scaled)


def test_theta_is_involutive_anti_automorphism():
    a = certify_group(SYMPL, Mat(SYMPL.ring, [[2, 1], [1, 1]]))
    b = certify_group(SYMPL, Mat(SYMPL.ring, [[1, 2], [0, 1]]))
    assert theta_group(theta_group(a)).mat == a.mat
    assert theta_group(a * b).mat == (theta_group(b) * theta_group(a)).mat
    assert theta_group(a).mu == a.mu


def test_iota_is_automorphism():
    a = certify_group(SYMPL, Mat(SYMPL.ring, [[2, 1], [1, 1]]))
    b = certify_group(SYMPL, Mat(SYMPL.ring, [[1, 2], [0, 1]]))
    assert iota_group(a * b).mat == (iota_group(a) * iota_group(b)).mat


def test_theta_lie_preserves_alpha():
    X = certify_lie(SYMPL, Mat(SYMPL.ring, [[1, 2], [3, 4]]))
    tX = theta_lie(X)
    assert tX.alpha == X.alpha
    assert theta_lie(tX).mat == X.mat


def test_theta_general_linear_is_transpose():
    g = certify_group(GL_F3, Mat(GL_F3.ring, [[1, 1], [0, 1]]))
    assert theta_group(g).mat == g.mat.transpose()


def test_enumerate_matrices_count():
    assert sum(1 for _ in enumerate_matrices(Ring(3, SPLIT, 1), 1)) == 3
    assert sum(1 for _ in enumerate_matrices(Ring(3, INERT, 1), 1)) == 9


def test_pinned_conjugator_symplectic_f3():
    a = certify_group(SYMPL_F3, Mat(SYMPL_F3.ring, [[2, 0], [0, 1]]))
    assert not is_theta_fixed(a)
    x = find_conjugator_mod(a)
    assert x.mat == Mat(SYMPL_F3.ring, [[0, 1], [2, 0]])
    assert x.mu == SYMPL_F3.ring.one
    assert theta_group(x).mat == x.mat
    assert x.mat * a.mat * x.mat.inv() == theta_group(a).mat


def test_pinned_conjugator_general_linear():
    a = certify_group(GL_F3, Mat(GL_F3.ring, [[1, 1], [0, 1]]))
    x = find_conjugator_mod(a)
    assert x.mat == Mat(GL_F3.ring, [[0, 1], [1, 0]])


def test_theta_fixed_gets_identity_conjugator():
    a = certify_group(SYMPL_F3, Mat(SYMPL_F3.ring, [[2, 0], [0, 2]]))
    assert is_theta_fixed(a)
    x = find_conjugator_mod(a, max_candidates=0)
    assert x.mat == SYMPL_F3.identity()


def test_conjugator_exhaustion_raises():
    a = certify_group(SYMPL_F3, Mat(SYMPL_F3.ring, [[2, 0], [0, 1]]))
    with pytest.raises(ConjugatorNotFound) as info:
        find_conjugator_mod(a, max_candidates=0)
    assert info.value.tried == 0
