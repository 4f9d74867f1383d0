import pytest

from simdual import decomposition
from simdual.decomposition import (DecompositionError, cayley_image_members,
                                   coset_set, decompose, find_conjugator_mod,
                                   verify_piece)
from simdual.involution import ConjugatorNotFound, theta_group
from simdual.lattices import standard_lattices
from simdual.matrices import Mat, parse_matrix
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (HERMITIAN, SYMPLECTIC, GroupElem, certify_group,
                            standard_space)

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
    assert pieces[0].member_keys() == C.member_keys()


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
        assert not (union & p.member_keys())
        union |= p.member_keys()
        assert verify_piece(p.members, p.witness)
    assert union == C.member_keys()


def test_conjugator_solver_matches_defining_equations():
    st = SYMPL.truncated(2)
    a = certify_group(st, Mat(st.ring, [[2, 0], [0, 1]]))
    x = find_conjugator_mod(a)
    assert x.mu == st.ring.one
    assert theta_group(x).mat == x.mat
    assert x.mat * a.mat == theta_group(a).mat * x.mat


@pytest.mark.parametrize("k", [0, 1, 16])
def test_conjugator_cap_counts_the_candidates_tested(k):
    # the first conjugator of 2, 0; 0, 1 mod 9 is candidate 18 of 81
    st = SYMPL.truncated(2)
    a = certify_group(st, Mat(st.ring, [[2, 0], [0, 1]]))
    with pytest.raises(ConjugatorNotFound) as err:
        find_conjugator_mod(a, max_candidates=k)
    assert err.value.tried == k
    assert f"({k} candidates tried)" in str(err.value)
    assert find_conjugator_mod(a, max_candidates=18).mat == \
        find_conjugator_mod(a).mat


def test_conjugator_theta_fixed_fast_path():
    st = SYMPL.truncated(2)
    a = certify_group(st, Mat(st.ring, [[2, 0], [0, 2]]))
    assert find_conjugator_mod(a).mat == st.identity()


def _counting_solver(monkeypatch):
    calls = []

    def counted(a, **kwargs):
        calls.append(a.mat.key())
        return find_conjugator_mod(a, **kwargs)
    monkeypatch.setattr(decomposition, "find_conjugator_mod", counted)
    return calls


@pytest.mark.parametrize("family, ext, base, N, witness, x, solves", [
    (SYMPLECTIC, SPLIT, "2, 0; 0, 1", 3, "0, 1; 13, 0", "0, 1; 26, 0", 81),
    (HERMITIAN, INERT, "16+16*s, 17+8*s; 10+19*s, 7+25*s", 2,
     "2+8*s, 2+2*s; 2+2*s, 1+7*s", "0+2*s, 0+6*s; 0+6*s, 6+7*s", 27),
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
    def identity_solver(a, **kwargs):
        return GroupElem(a.space, a.space.identity(), a.space.ring.one)
    monkeypatch.setattr(decomposition, "find_conjugator_mod", identity_solver)
    C = coset_set(SYMPL, STD, Mat(SYMPL.ring, [[2, 0], [0, 1]]), 1, 2)
    assert all(theta_group(m).mat != m.mat for m in C.members)
    with pytest.raises(DecompositionError, match="carried conjugator fails"):
        decompose(C, STD)


def test_failing_solve_names_the_first_member():
    C = coset_set(SYMPL, STD, Mat(SYMPL.ring, [[2, 0], [0, 1]]), 1, 2)
    with pytest.raises(ConjugatorNotFound) as err:
        decompose(C, STD, max_candidates=0)
    assert C.members[0].mat.to_text() in str(err.value)


def test_verify_piece_rejects_wrong_witness():
    b = Mat(SYMPL.ring, [[1, 1], [0, 1]])
    C = coset_set(SYMPL, STD, b, 1, 2)
    st = C.space
    bad = certify_group(st, Mat(st.ring, [[2, 0], [0, 1]]))
    piece = decompose(C, STD)[0]
    assert verify_piece(piece.members, piece.witness)
    assert not verify_piece(piece.members, bad)


def test_coset_set_validates_level():
    b = Mat.identity(SYMPL.ring, 2)
    with pytest.raises(DecompositionError):
        coset_set(SYMPL, STD, b, 0, 2)
    with pytest.raises(DecompositionError):
        coset_set(SYMPL, STD, b, 2, 2)
