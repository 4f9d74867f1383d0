import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from simdual.cayley import (cayley, components_per_scalar, in_domain,
                            mat_from_components)
from simdual.involution import theta_group
from simdual.lattices import (LatticeBasis, LatticeError, _check_h_stable,
                              check_cayley_level, congruence_members,
                              hnf_columns, lattice_of_x, standard_lattices,
                              transform_lattice)
from simdual.matrices import Mat
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                            SKEW_HERMITIAN, SYMPLECTIC, certify_group,
                            certify_lie, similitude_multiplier,
                            standard_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
STD = standard_lattices(SYMPL)
HERM1 = standard_space(HERMITIAN, 1, Ring(3, INERT))
STD_H1 = standard_lattices(HERM1)


def test_hnf_canonical_form():
    cols = [(Fraction(3), Fraction(1)), (Fraction(0), Fraction(2)),
            (Fraction(6), Fraction(4))]
    got = hnf_columns(3, 2, cols)
    # pivots are powers of p, lower triangular, entries reduced
    assert got == ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(1)))


def test_hnf_negative_valuation_entries():
    cols = [(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(3))]
    got = hnf_columns(3, 2, cols)
    assert got == ((Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(3)))


def test_hnf_requires_full_span():
    with pytest.raises(LatticeError):
        hnf_columns(3, 2, [(Fraction(1), Fraction(0))])


def test_lattice_equality_is_basis_independent():
    a = LatticeBasis.from_columns(3, 2, [[1, 0], [0, 1]])
    b = LatticeBasis.from_columns(3, 2, [[1, 1], [2, 1], [0, 3]])
    assert a == b
    assert a.scale(1) != a
    assert a.intersect(a.scale(1)) == a.scale(1)
    assert a.scale(1).intersect(a) != a


def test_lie_lattice_dimensions():
    dims = {}
    for family, ext in ((ORTHOGONAL, SPLIT), (SYMPLECTIC, SPLIT),
                        (HERMITIAN, INERT), (SKEW_HERMITIAN, INERT),
                        (GENERAL_LINEAR, SPLIT)):
        space = standard_space(family, 2, Ring(3, ext))
        std = standard_lattices(space)
        dims[family] = (std.gu_coords.m, std.u_coords.m)
    assert dims[ORTHOGONAL] == (2, 1)
    assert dims[SYMPLECTIC] == (4, 3)
    assert dims[HERMITIAN] == (5, 4)
    assert dims[SKEW_HERMITIAN] == (5, 4)
    assert dims[GENERAL_LINEAR] == (4, 4)


@pytest.mark.parametrize("space", [
    SYMPL, standard_space(HERMITIAN, 2, Ring(3, INERT))],
    ids=["symplectic", "hermitian"])
def test_h_stability_check(space):
    ring = space.ring
    _check_h_stable(replace(space, H=Mat(ring, [[1, 1], [0, -1]])))
    with pytest.raises(LatticeError, match="not stable under h"):
        _check_h_stable(replace(space, H=Mat(ring, [[1, 0], [0, 3]])))
    with pytest.raises(LatticeError, match="not stable under h"):
        _check_h_stable(replace(space,
                                H=Mat(ring, [[1, 0], [0, Fraction(1, 3)]])))


def test_theta_stabilizes_standard_lattice():
    assert transform_lattice(STD.gu_coords, ("theta",), STD.Ldot) == STD.Ldot


def test_lattice_of_x_pinned_diag_1_3():
    x = Mat(SYMPL.ring, [[1, 0], [0, 3]])
    lx = lattice_of_x(STD.gu_coords, x)
    assert lx != STD.Ldot
    assert STD.Ldot.intersect(lx) == lx
    assert lx.intersect(STD.Ldot.scale(1)) == STD.Ldot.scale(1)
    # a vector is in lx exactly when adding it as a column leaves lx
    # unchanged
    def contains(v):
        return LatticeBasis.from_columns(lx.p, lx.dim, [*lx.cols, v]) == lx

    # the upper-right matrix coordinate is forced into 3 o_F
    e12 = STD.gu_coords.to_coords(Mat(SYMPL.ring, [[0, 1], [0, 0]]))
    assert not contains(e12)
    assert contains([3 * c for c in e12])
    # the lower-left coordinate stays unconstrained
    e21 = STD.gu_coords.to_coords(Mat(SYMPL.ring, [[0, 0], [1, 0]]))
    assert contains(e21)


def test_theta_fixed_lattice_lemma():
    # theta L(x) = Ad(x) L(x) for theta-fixed x, including non-unit entries
    for rows in ([[2, 0], [0, 2]], [[5, Fraction(1, 3)], [3, 5]]):
        x = certify_group(SYMPL, Mat(SYMPL.ring, rows))
        assert theta_group(x).mat == x.mat
        lx = lattice_of_x(STD.gu_coords, x.mat)
        lhs = transform_lattice(STD.gu_coords, ("theta",), lx)
        rhs = transform_lattice(STD.gu_coords, ("ad", x.mat), lx)
        assert lhs == rhs


def test_stabilizer_coset_invariance():
    # L(k d) = L(d) when Ad(k) preserves the standard lattice
    X = certify_lie(SYMPL, Mat(SYMPL.ring, [[3, 3], [0, 3]]))
    assert in_domain(X)
    k = cayley(X)
    assert transform_lattice(STD.gu_coords, ("ad", k.mat), STD.Ldot) == STD.Ldot
    d = certify_group(SYMPL, Mat(SYMPL.ring, [[1, 0], [0, 3]]))
    assert lattice_of_x(STD.gu_coords, (k * d).mat) == \
        lattice_of_x(STD.gu_coords, d.mat)


def test_congruence_members_pinned_u1():
    members = congruence_members(HERM1, 1, 2, variant="u")
    assert len(members) == 3
    ring = HERM1.ring.truncated(2)
    for m in members:
        g = m.mat[0, 0]
        assert g.a == 1 and g.b % 3 == 0


def test_level_bijection_pinned_counts():
    rep = check_cayley_level(SYMPL, STD, 1, 2, "gu")
    assert rep.passed
    assert rep.image_size == rep.congruence_size == 81
    rep1 = check_cayley_level(HERM1, STD_H1, 1, 2, "u")
    assert rep1.passed
    assert rep1.image_size == rep1.congruence_size == 3


def test_level_check_validates_inputs():
    with pytest.raises(LatticeError):
        check_cayley_level(SYMPL, STD, 2, 2, "gu")
    with pytest.raises(LatticeError):
        congruence_members(SYMPL, 0, 2)


def test_scaled_lattice_inside_domain():
    # every element of p * Ldot lies in the working domain
    coords = STD.gu_coords
    for idx in range(coords.m):
        c = [Fraction(0)] * coords.m
        c[idx] = Fraction(3)
        X = certify_lie(SYMPL, coords.from_coords(c))
        assert in_domain(X)
        assert X.alpha.val() >= 1


def _mat_level_scan(space, k, N):
    """Reference: similitude_multiplier on every 1 + p^k Y mod p^N."""
    st = space.truncated(N)
    ring = st.ring
    m0 = st.n * st.n * components_per_scalar(st)
    pk = ring.p**k
    out = []
    for coeffs in itertools.product(range(ring.p**(N - k)), repeat=m0):
        g = Mat.identity(ring, st.n) + mat_from_components(
            st, [c * pk for c in coeffs])
        mu = similitude_multiplier(st, g)
        if mu is not None:
            out.append((g.key(), mu.a, mu.b))
    return sorted(out)


@pytest.mark.parametrize("family, k, N", [
    (ORTHOGONAL, 1, 2), (SYMPLECTIC, 1, 2), (HERMITIAN, 1, 2),
    (SKEW_HERMITIAN, 1, 2), (GENERAL_LINEAR, 1, 2),
    (SYMPLECTIC, 1, 3), (ORTHOGONAL, 1, 3)])
def test_integer_congruence_scan_matches_mat_level(family, k, N):
    ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
    space = standard_space(family, 2, Ring(3, ext))
    gu = congruence_members(space, k, N, "gu")
    got = [(m.mat.key(), m.mu.a, m.mu.b) for m in gu]
    assert got == _mat_level_scan(space, k, N)
    u = congruence_members(space, k, N, "u")
    assert [m.mat.key() for m in u] == \
        [m.mat.key() for m in gu if m.mu == m.space.ring.one]
