import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.matrices import Mat
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN,
                            SKEW_HERMITIAN, SYMPLECTIC, MembershipError,
                            SpaceError, certify_group, certify_lie,
                            lie_alpha, similitude_multiplier, standard_space,
                            star, validate_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
HERM = standard_space(HERMITIAN, 2, Ring(3, INERT))


def test_standard_space_constraints():
    with pytest.raises(SpaceError):
        standard_space(SYMPLECTIC, 3, Ring(3, SPLIT))
    with pytest.raises(SpaceError):
        standard_space(HERMITIAN, 2, Ring(3, SPLIT))
    with pytest.raises(SpaceError):
        standard_space(SYMPLECTIC, 2, Ring(3, INERT))


def test_validate_space_rejects_bad_j():
    ring = Ring(3, SPLIT)
    with pytest.raises(SpaceError):
        validate_space(Mat(ring, [[1, 1], [0, 1]]), -1, ring)
    with pytest.raises(SpaceError):
        validate_space(Mat(ring, [[0, 0], [0, 0]]), 1, ring)


def test_star_pinned_symplectic():
    a = Mat(SYMPL.ring, [[1, 2], [3, 4]])
    assert star(SYMPL, a) == Mat(SYMPL.ring, [[4, -2], [-3, 1]])


def test_star_is_anti_involution():
    a = Mat(SYMPL.ring, [[1, 2], [3, 4]])
    b = Mat(SYMPL.ring, [[0, 1], [2, 5]])
    assert star(SYMPL, a * b) == star(SYMPL, b) * star(SYMPL, a)
    assert star(SYMPL, star(SYMPL, a)) == a


def test_star_hermitian_conjugates():
    ring = HERM.ring
    a = Mat(ring, [[ring.scalar(1, 1), 0], [0, 1]])
    s = star(HERM, a)
    assert s[0, 0] == ring.scalar(1, -1)


def test_inner_form_symmetry():
    ring = HERM.ring
    u = Mat(ring, [[ring.scalar(1, 1)], [ring.scalar(2)]])
    v = Mat(ring, [[ring.scalar(0, 1)], [ring.scalar(1, -1)]])

    def inner(x, y):                     # <x, y> = x^T J tau(y)
        return (x.transpose() * HERM.J * y.tau())[0, 0]
    # <u, v> = eps * tau(<v, u>)
    assert inner(u, v) == inner(v, u).tau() * HERM.eps
    # star is the adjoint: <a u, v> = <u, star(a) v>
    a = Mat(ring, [[ring.scalar(2, 1), 1], [0, ring.scalar(1, 2)]])
    assert inner(a * u, v) == inner(u, star(HERM, a) * v)


def test_alpha_pinned():
    X = Mat(SYMPL.ring, [[1, 2], [3, 4]])
    assert certify_lie(SYMPL, X).alpha == SYMPL.ring.scalar(5)


def test_multiplier_and_membership():
    g = Mat(SYMPL.ring, [[2, 0], [0, 1]])
    assert similitude_multiplier(SYMPL, g) == SYMPL.ring.scalar(2)
    assert certify_group(SYMPL, g).mu == SYMPL.ring.scalar(2)
    # hermitian: a random diagonal unitary-ish matrix fails unless norms match
    ring = HERM.ring
    bad = Mat(ring, [[ring.scalar(1, 1), 0], [0, 1]])
    assert similitude_multiplier(HERM, bad) is None
    with pytest.raises(MembershipError):
        certify_group(HERM, bad)


def test_multiplier_must_be_unit_when_truncated():
    st_sympl = SYMPL.truncated(2)
    g = Mat(st_sympl.ring, [[3, 0], [0, 1]])
    assert similitude_multiplier(st_sympl, g) is None


def test_general_linear_conventions():
    gl = standard_space(GENERAL_LINEAR, 2, Ring(3, SPLIT))
    g = Mat(gl.ring, [[1, 1], [0, 1]])
    assert certify_group(gl, g).mu == gl.ring.one
    assert certify_lie(gl, Mat(gl.ring, [[7, 0], [1, 2]])).alpha == gl.ring.zero
    with pytest.raises(SpaceError):
        star(gl, g)
    assert not gl.has_form


def test_all_standard_families_have_valid_h():
    for family in FAMILIES:
        if family == GENERAL_LINEAR:
            continue
        ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
        space = standard_space(family, 2, Ring(3, ext))
        from simdual.involution import validate_anti_unitary
        validate_anti_unitary(space, space.H)


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_symplectic_lie_membership_criterion(rows):
    X = Mat(SYMPL.ring, rows)
    alpha = lie_alpha(SYMPL, X)
    # every 2x2 matrix is in the symplectic similitude Lie algebra,
    # with alpha equal to the trace
    assert alpha == X[0, 0] + X[1, 1]
