import hashlib

import pytest

from simdual import decomposition
from simdual.cayley import Members, linear_kernel
from simdual.decomposition import (DecompositionError, _carried_check,
                                   cayley_image_members, coset_set, decompose,
                                   find_conjugator_mod, verify_piece)
from simdual.involution import ConjugatorNotFound, theta_group
from simdual.lattices import LieCoords, standard_lattices
from simdual.matrices import Mat, parse_matrix
from simdual.modsolve import SolveBudgetError
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (GENERAL_LINEAR, HERMITIAN, SKEW_HERMITIAN,
                            SYMPLECTIC, GroupElem, MembershipError,
                            certify_group, standard_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
STD = standard_lattices(SYMPL)


def test_cayley_image_is_group_mod9():
    members = cayley_image_members(STD, 1, 2)
    assert len(members) == 81
    keys = {m.mat.key() for m in members}
    # closed under product and inverse, contains 1
    assert SYMPL.truncated(2).identity().key() in keys
    sample = members[::17]
    for a in sample:
        for b in sample:
            assert (a * b).mat.key() in keys
        assert a.inv().mat.key() in keys


def test_subgroup_coset_is_one_piece_with_trivial_witness():
    b = Mat.identity(SYMPL.ring, 2)
    C = coset_set(SYMPL, STD, b, 1, 2)
    pieces = decompose(C, STD)
    assert len(pieces) == 1
    assert pieces[0].witness.mat == SYMPL.truncated(2).identity()
    assert set(pieces[0].members.comps) == set(C.members.comps)


def test_theta_fixed_base_gives_inverse_witness():
    b = Mat(SYMPL.ring, [[1, 1], [0, 1]])
    st = SYMPL.truncated(2)
    bt = certify_group(st, b.reduce(2))
    assert theta_group(bt).mat == bt.mat
    C = coset_set(SYMPL, STD, b, 1, 2)
    pieces = decompose(C, STD)
    assert len(pieces) == 1
    assert pieces[0].witness.mat == bt.mat.inv()
    assert verify_piece(pieces[0].members, pieces[0].witness)


def test_general_coset_partition_mod27():
    b = Mat(SYMPL.ring, [[2, 0], [0, 1]])
    C = coset_set(SYMPL, STD, b, 1, 3)
    assert len(C.members) == 3**8
    pieces = decompose(C, STD)
    # partition properties are re-verified inside decompose; check the
    # public contract once more
    union = set()
    for p in pieces:
        assert not (union & set(p.members.comps))
        union |= set(p.members.comps)
        assert verify_piece(p.members, p.witness)
    assert union == set(C.members.comps)


def test_conjugator_solver_matches_defining_equations():
    st = SYMPL.truncated(2)
    a = certify_group(st, Mat(st.ring, [[2, 0], [0, 1]]))
    x = find_conjugator_mod(a)
    assert x.mu == st.ring.one
    assert theta_group(x).mat == x.mat
    assert x.mat * a.mat == theta_group(a).mat * x.mat


@pytest.mark.parametrize("k", [0, 1, 16])
def test_conjugator_cap_counts_the_candidates_tested(monkeypatch, k):
    # the first conjugator of 2, 0; 0, 1 mod 9 is candidate 18 of 81
    st = SYMPL.truncated(2)
    a = certify_group(st, Mat(st.ring, [[2, 0], [0, 1]]))
    monkeypatch.setattr(decomposition, "CONJUGATOR_BUDGET", k)
    with pytest.raises(ConjugatorNotFound) as err:
        find_conjugator_mod(a)
    assert err.value.tried == k
    assert f"({k} candidates tried)" in str(err.value)
    monkeypatch.setattr(decomposition, "CONJUGATOR_BUDGET", 18)
    x = find_conjugator_mod(a).mat
    monkeypatch.undo()
    assert x == find_conjugator_mod(a).mat


def test_conjugator_theta_fixed_fast_path():
    st = SYMPL.truncated(2)
    a = certify_group(st, Mat(st.ring, [[2, 0], [0, 2]]))
    assert find_conjugator_mod(a).mat == st.identity()


def _counting_solver(monkeypatch):
    calls = []

    def counted(a):
        calls.append(a.mat.key())
        return find_conjugator_mod(a)
    monkeypatch.setattr(decomposition, "find_conjugator_mod", counted)
    return calls


@pytest.mark.parametrize("family, ext, base, N, witness, x, solves", [
    (SYMPLECTIC, SPLIT, "2, 0; 0, 1", 3, "0, 1; 13, 0", "0, 1; 26, 0", 81),
    (HERMITIAN, INERT, "16+16*s, 17+8*s; 10+19*s, 7+25*s", 2,
     "8+5*s, 5+5*s; 5+5*s, 4+1*s", "0+2*s, 0; 0, 6+7*s", 27),
], ids=["symplectic-mod27", "hermitian-mod9"])
def test_general_path_pinned_witness_and_solves(monkeypatch, family, ext,
                                                base, N, witness, x, solves):
    # one solve per orbit under the isometries of c(p Ldot), where one
    # solve per member took 6561 and 243
    space = standard_space(family, 2, Ring(3, ext))
    std = standard_lattices(space)
    C = coset_set(space, std, parse_matrix(space.ring, base), 1, N)
    calls = _counting_solver(monkeypatch)
    (piece,) = decompose(C, std)
    assert piece.members == C.members
    assert piece.witness.mat.to_text() == witness
    assert piece.provenance == {"a": C.members[0].mat.to_text(), "x": x,
                                "level": 1}
    assert len(calls) == solves
    assert calls[0] == C.members[0].mat.key()


def test_carried_conjugators_are_rechecked(monkeypatch):
    # a solver that returns the identity for a non-theta-fixed member is
    # caught when its conjugator is carried to the next member of the orbit
    def identity_solver(a):
        return GroupElem(a.space, a.space.identity(), a.space.ring.one)
    monkeypatch.setattr(decomposition, "find_conjugator_mod", identity_solver)
    C = coset_set(SYMPL, STD, Mat(SYMPL.ring, [[2, 0], [0, 1]]), 1, 2)
    assert all(theta_group(m).mat != m.mat for m in C.members)
    with pytest.raises(DecompositionError, match="carried conjugator fails"):
        decompose(C, STD)


def test_failing_solve_names_the_first_member(monkeypatch):
    C = coset_set(SYMPL, STD, Mat(SYMPL.ring, [[2, 0], [0, 1]]), 1, 2)
    monkeypatch.setattr(decomposition, "CONJUGATOR_BUDGET", 0)
    with pytest.raises(ConjugatorNotFound) as err:
        decompose(C, STD)
    assert C.members[0].mat.to_text() in str(err.value)


def test_verify_piece_rejects_wrong_witness():
    b = Mat(SYMPL.ring, [[1, 1], [0, 1]])
    C = coset_set(SYMPL, STD, b, 1, 2)
    st = C.space
    bad = certify_group(st, Mat(st.ring, [[2, 0], [0, 1]]))
    piece = decompose(C, STD)[0]
    assert verify_piece(piece.members, piece.witness)
    assert not verify_piece(piece.members, bad)


def test_verify_piece_needs_every_theta_image_hit():
    # the zero matrix as witness sends S = {0, 1} into {0}, a proper
    # subset of theta(S) = {0, 1}: the two sets differ
    st = SYMPL.truncated(2)
    S = Members(st, [(0, 0, 0, 0), (1, 0, 0, 1)], [1, 1])
    zero = GroupElem(st, Mat.zeros(st.ring, 2), st.ring.one)
    assert not verify_piece(S, zero)
    assert verify_piece(S, GroupElem(st, st.identity(), st.ring.one))


def test_verify_piece_rejects_a_singular_witness():
    # zero sends S = {0} onto theta(S) = {0}, but it has no inverse
    st = SYMPL.truncated(2)
    S = Members(st, [(0, 0, 0, 0)], [1])
    assert not verify_piece(S, GroupElem(st, Mat.zeros(st.ring, 2),
                                         st.ring.one))
    assert verify_piece(S, GroupElem(st, st.identity(), st.ring.one))


def test_coset_set_validates_level():
    b = Mat.identity(SYMPL.ring, 2)
    with pytest.raises(DecompositionError):
        coset_set(SYMPL, STD, b, 0, 2)
    with pytest.raises(DecompositionError):
        coset_set(SYMPL, STD, b, 2, 2)


@pytest.mark.parametrize("family, ext, base, N, digest", [
    (SYMPLECTIC, SPLIT, "1, 1; 0, 1", 3,
     "342f2f408be60c7ffb33e9e4f75d5c42f0a764c62f43162cf56c83fdbcc109d0"),
    (GENERAL_LINEAR, SPLIT, "2, 1; 1, 1", 3,
     "5e2089784042060d73ed857ecb72e1fb06b4ec1fb92a1b910eeac72716b88562"),
    (GENERAL_LINEAR, SPLIT, "1, 2; 0, 1", 3,
     "24fe6d614e36f0f6f560b88399752f82f84ec6c5cf3f7d84ba67ea14610ed654"),
    (HERMITIAN, INERT, "16+16*s, 17+8*s; 10+19*s, 7+25*s", 2,
     "e36ed022d5d6850812f6a192828bdfc5419c9a077ddb1b837678508bf81020b8"),
    (SKEW_HERMITIAN, INERT, "1+8*s, 5+7*s; 4+2*s, 7+5*s", 2,
     "dcc6d7bad83e6d770508ac3b2fa128f854cd406090b2534818bc244e66887f4d"),
    (SKEW_HERMITIAN, INERT, "6+4*s, 6+3*s; 6+3*s, 7+6*s", 2,
     "b91277627c5bd6950d9843bd363ad73f6a82c94fe86c0cb3ec63b52efddfcd25"),
], ids=["symplectic-fast-mod27", "general-linear-fast-mod27",
        "general-linear-general-mod27", "hermitian-general-mod9",
        "skew-hermitian-general-mod9", "skew-hermitian-fast-mod9"])
def test_coset_and_piece_pinned_digest(family, ext, base, N, digest):
    # sha256 of the (key, mu) member list, the witness and the provenance,
    # recorded before the coset and piece moved onto component tuples; the
    # skew-hermitian general-path witness (and its x) follows the order of
    # the triangular kernel basis in iter_affine_mod, its members do not
    space = standard_space(family, 2, Ring(3, ext))
    std = standard_lattices(space)
    C = coset_set(space, std, parse_matrix(space.ring, base), 1, N)
    (piece,) = decompose(C, std)
    assert verify_piece(piece.members, piece.witness)
    data = ([(m.mat.key(), m.mu.a) for m in C.members],
            [(m.mat.key(), m.mu.a) for m in piece.members],
            piece.witness.mat.key(), piece.witness.mu.a,
            sorted(piece.provenance.items()))
    assert hashlib.sha256(repr(data).encode()).hexdigest() == digest


def test_cayley_images_certify_every_x():
    # a corrupted coordinate map puts X outside the Lie algebra; each
    # space keeps its K, so the corrupted build runs on a fresh space
    def fresh():
        return standard_lattices(standard_space(HERMITIAN, 2, Ring(3, INERT)))
    assert len(cayley_image_members(fresh(), 1, 2)) == 243
    std = fresh()
    coords = std.gu_coords
    rows = [row[:] for row in coords._M]
    rows[2][0] += 1
    coords.numerators = linear_kernel(
        [[(j, a) for j, a in enumerate(row) if a] for row in rows], None,
        width=coords.m)
    with pytest.raises(MembershipError, match="not in the similitude Lie"):
        cayley_image_members(std, 1, 2)


def test_kept_subgroup_is_built_once_and_keeps_the_budget():
    std = standard_lattices(standard_space(SYMPLECTIC, 2, Ring(3, SPLIT)))
    K = cayley_image_members(std, 1, 2)
    assert cayley_image_members(std, 1, 2) is K
    b = Mat.identity(std.space.ring, 2)
    assert len(coset_set(std.space, std, b, 1, 2).members) == 81
    with pytest.raises(SolveBudgetError, match="budget 10$"):
        coset_set(std.space, std, b, 1, 2, limit=10)


def test_cayley_image_rejects_a_repeated_residue(monkeypatch):
    # c is a bijection at level >= 1: an image hit twice is an error, not
    # a smaller K
    real = LieCoords.cayley_images

    def repeating(self, space_t, vectors):
        images = list(real(self, space_t, vectors))
        return images[:1] + images[:-1]
    monkeypatch.setattr(LieCoords, "cayley_images", repeating)
    std = standard_lattices(standard_space(SYMPLECTIC, 2, Ring(3, SPLIT)))
    with pytest.raises(DecompositionError, match="repeats a residue"):
        cayley_image_members(std, 1, 2)


def test_coset_set_rejects_repeated_members(monkeypatch):
    real = decomposition.cayley_image_members

    def repeated(*args, **kwargs):
        K = real(*args, **kwargs)
        return Members(K.space, K.comps + K.comps[:1], K.mus + K.mus[:1])
    monkeypatch.setattr(decomposition, "cayley_image_members", repeated)
    with pytest.raises(DecompositionError, match="not pairwise distinct"):
        coset_set(SYMPL, STD, Mat.identity(SYMPL.ring, 2), 1, 2)


def test_decompose_rechecks_the_witness(monkeypatch):
    # the identity as the first member's conjugator gives the witness
    # a^-1, which fails on a coset without a theta-fixed member
    C = coset_set(SYMPL, STD, Mat(SYMPL.ring, [[2, 0], [0, 1]]), 1, 2)
    monkeypatch.setattr(
        decomposition, "_orbit_conjugators",
        lambda C, std: GroupElem(C.space, C.space.identity(),
                                 C.space.ring.one))
    with pytest.raises(DecompositionError, match="witness fails"):
        decompose(C, STD)


@pytest.mark.parametrize("corrupt, expected", [
    ("member", "a' is not in C"),
    ("multiplier", "mu(x') != 1"),
    ("theta", "theta(x') != x'"),
    ("conjugate", "x' a' != theta(a') x'"),
])
def test_carried_pair_is_rechecked(corrupt, expected):
    # a member a of C = diag(2, 1) c(3 Ldot) mod 9 and its conjugator x,
    # with one of the four conditions broken at a time
    C = coset_set(SYMPL, STD, Mat(SYMPL.ring, [[2, 0], [0, 1]]), 1, 2)
    st = C.space
    failure = _carried_check(st, set(C.members.comps))
    a = C.members.comps[0]
    x = tuple(find_conjugator_mod(C.members[0]).mat.components())
    assert failure(a, x) is None
    one = (1, 0, 0, 1)
    if corrupt == "member":          # mu(1) = 1 is not mu(b) = 2 mod 3
        a = one
    elif corrupt == "multiplier":    # mu(2 x) = 4
        x = tuple(2 * v % 9 for v in x)
    elif corrupt == "theta":         # theta(diag(2, 5)) = diag(5, 2)
        x = (2, 0, 0, 5)
    else:                            # a is not theta-fixed
        x = one
    assert failure(a, x) == expected


def test_coset_of_a_space_truncated_at_another_precision():
    # a space truncated at 3 gives the coset mod 9 on the space mod 9,
    # the same members as from the exact space
    for b in (Mat.identity(SYMPL.ring, 2),
              parse_matrix(SYMPL.ring, "1, 1; 0, 1")):
        want = coset_set(SYMPL, STD, b, 1, 2)
        got = coset_set(SYMPL.truncated(3), STD, b, 1, 2)
        assert got.space is SYMPL.truncated(2)
        assert got.space.ring.prec == got.N == 2
        assert got.base.mat == want.base.mat
        assert got.members.comps == want.members.comps
        assert got.members.mus == want.members.mus
