"""Partitioning a finite-precision coset of a congruence subgroup into
conjugate-theta-stable pieces with explicit witnesses.

A set S is conjugate-theta-stable when theta(S) = g S g^-1 for some group
element g.  The paper gives each member a of a coset C = b * c(p^l0 Ldot)
a theta-symmetric conjugator x_a (x_a a x_a^-1 = theta(a)) and covers C by
the neighborhoods a * c(p^l L(x_a)), each stable with witness x_a a^-1.
At a fixed precision N every such x_a is a unit, x_a star(x_a) = 1 mod p^N,
so L(x_a) = Ldot and the neighborhood of any member at level l0 is
a * c(p^l0 Ldot) = C.  The partition is therefore C itself, one piece.
Its witness comes from one member a: a^-1 for the first theta-fixed
member, else x_a a^-1 for the first member.

The per-member existence of x_a is checked on the general path (no
theta-fixed member) without one solve per member.  Conjugation by an
isometry k of c(p^l0 Ldot) keeps C, and if x conjugates a to theta(a)
then x' = theta(k)^-1 x k^-1 conjugates k a k^-1 to its theta-image, is
theta-symmetric and keeps mu = 1, because theta is an involutive
anti-automorphism and mu(k) = 1.  So one solve per orbit of C under these
conjugations suffices; every carried conjugator is re-checked.

The conjugator search exploits that for an isometry x the two conditions
theta(x) = x and x a x^-1 = theta(a) are linear in the entries of x, so
candidates come from an exact affine solve mod p^N instead of a scan of
the whole group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import modsolve
from .cayley import (cayley, mat_from_components, matrix_system,
                     multiplier_predicate)
from .involution import ConjugatorNotFound, theta_group
from .lattices import StandardLattices
from .matrices import Mat
from .spaces import (GroupElem, Space, certify_group, certify_lie,
                     similitude_multiplier)


class DecompositionError(ValueError):
    pass


# -- enumeration of c(p^l * Ldot) mod p^N -----------------------------


def cayley_image_members(std: StandardLattices, level: int, N: int,
                         limit: int = 10**6) -> list[GroupElem]:
    """Residues mod p^N of c(p^level * Ldot), sorted.

    For level >= 1 every point is in the working domain, and the image is
    a subgroup of the similitude group mod p^N.
    """
    coords = std.gu_coords
    space = coords.space
    p = space.ring.p
    if level < 1:
        raise DecompositionError("need level >= 1")
    gens = [[int(x * p**level) for x in col] for col in std.Ldot.cols]
    coeff_vectors = modsolve.span_coset_mod([0] * coords.m, gens, p, N, limit)
    st = space.truncated(N)
    seen = {}
    for v in coeff_vectors:
        X = coords.from_coords([Fraction(c) for c in v])
        lie = certify_lie(st, X.reduce(N))
        g = cayley(lie)
        seen[g.mat.key()] = g
    return [seen[k] for k in sorted(seen)]


# -- domain types -----------------------------------------------------


@dataclass(frozen=True)
class CosetSet:
    """The finite-precision coset b * c(p^level Ldot) mod p^N."""

    space: Space                # truncated at N
    base: GroupElem             # b mod p^N
    level: int                  # l0
    N: int
    members: tuple              # sorted GroupElems, pairwise distinct

    def member_keys(self) -> set:
        return {m.mat.key() for m in self.members}


@dataclass(frozen=True)
class Piece:
    """A member list S with a witness g satisfying theta(S) = g S g^-1."""

    members: tuple              # sorted GroupElems
    witness: GroupElem
    provenance: dict            # base point a, conjugator x, level

    def member_keys(self) -> set:
        return {m.mat.key() for m in self.members}


def coset_set(space: Space, std: StandardLattices, b: Mat, l0: int,
              N: int, limit: int = 10**6) -> CosetSet:
    """Build C = b * c(p^l0 Ldot) mod p^N with its full member list."""
    if not (1 <= l0 < N):
        raise DecompositionError("need 1 <= l0 < N")
    st = space.truncated(N) if space.ring.exact else space
    bt = certify_group(st, b.reduce(N) if b.ring.exact else b)
    subgroup = cayley_image_members(std, l0, N, limit=limit)
    seen = {}
    for k in subgroup:
        m = bt * k
        key = m.mat.key()
        if key in seen:
            raise DecompositionError("coset members are not pairwise distinct")
        seen[key] = m
    members = tuple(seen[k] for k in sorted(seen))
    return CosetSet(st, bt, l0, N, members)


# -- the linear-system conjugator search ------------------------------


def _conjugator_system(a: GroupElem):
    """Affine system over matrix components for {x a = theta(a) x, x
    theta-symmetric}, where theta-symmetry of an isometry x is the linear
    condition H J^-1 x^T J H^-1 = x (transpose-symmetry for the
    general-linear family).  Quadratic conditions (x a unit isometry) are
    checked per candidate afterwards.
    """
    space = a.space
    ta = theta_group(a).mat

    if space.has_form:
        left, right = space.H * space.Jinv, space.J * space.Hinv

        def f(x):
            return x * a.mat - ta * x, x - left * x.transpose() * right
    else:
        def f(x):
            return x * a.mat - ta * x, x - x.transpose()

    return matrix_system(space, f)


def find_conjugator_mod(a: GroupElem, max_candidates: int = 10**5) -> GroupElem:
    """First theta-symmetric isometry x with x a x^-1 = theta(a) mod p^N.

    Candidates are solutions of the linearized system, traversed in a
    deterministic order; each is filtered by the unit and isometry
    conditions and the two defining equations.  Exhaustion raises
    ConjugatorNotFound, never a silent miss.
    """
    space = a.space
    ring = space.ring
    if ring.exact:
        raise DecompositionError("conjugator solve works at finite precision")
    ta = theta_group(a).mat
    if ta == a.mat:
        return GroupElem(space, space.identity(), ring.one)
    A, b = _conjugator_system(a)
    mu_of = multiplier_predicate(space)
    tried = 0
    for comps in modsolve.iter_affine_mod(A, b, ring.p, ring.prec):
        if tried == max_candidates:
            break
        tried += 1
        # the linear system already encodes x a = theta(a) x exactly and
        # theta-symmetry of x conditional on x being an isometry; the only
        # remaining condition is x star(x) = 1.
        if mu_of(comps) != 1:
            continue
        x = mat_from_components(space, comps)
        mu = similitude_multiplier(space, x)
        cand = GroupElem(space, x, mu)
        if (mu != ring.one or theta_group(cand).mat != x
                or x * a.mat != ta * x):
            raise DecompositionError("conjugator linearization is inconsistent")
        return cand
    raise ConjugatorNotFound(
        f"no theta-symmetric conjugator for {a.mat.to_text()} "
        f"({tried} candidates tried)", tried)


# -- conjugators carried along orbits ---------------------------------


def _orbit_conjugators(C: CosetSet, std: StandardLattices,
                       max_candidates: int) -> GroupElem:
    """Check that every member of C has a theta-symmetric isometry
    conjugator; return the one of C.members[0].

    Members are visited in sorted order.  Each member not yet reached is
    solved, and its conjugator is carried over its orbit under the
    isometry generators, with every carried x' re-checked: a' in C,
    mu(x') = 1, theta(x') = x' and x' a' = theta(a') x'.
    """
    space, one = C.space, C.space.ring.one
    keys = C.member_keys()
    # isometries k = c(p^l0 B) of c(p^l0 Ldot), B in the isometry Lie
    # basis, so mu(k) = 1; kept with k^-1 and theta(k)^-1
    gens = []
    for B in std.u_coords.basis:
        k = cayley(certify_lie(space, (B * space.ring.p**C.level).reduce(C.N)))
        gens.append((k, k.inv(), theta_group(k).inv()))
    reached = set()
    first = None
    for root in C.members:
        if root.mat.key() in reached:
            continue
        x = find_conjugator_mod(root, max_candidates=max_candidates)
        if first is None:
            first = x
        reached.add(root.mat.key())
        queue = deque([(root, x)])
        while queue:
            a, x = queue.popleft()
            for k, kinv, tkinv in gens:
                a2 = k * a * kinv
                key = a2.mat.key()
                if key in reached:
                    continue
                x2 = tkinv * x * kinv
                if (key not in keys
                        or similitude_multiplier(space, x2.mat) != one
                        or theta_group(x2).mat != x2.mat
                        or x2.mat * a2.mat != theta_group(a2).mat * x2.mat):
                    raise DecompositionError(
                        f"carried conjugator fails at {a2.mat.to_text()}")
                reached.add(key)
                queue.append((a2, x2))
    return first


# -- the decomposition ------------------------------------------------


def verify_piece(members, g: GroupElem) -> bool:
    """Exact residue-set check of theta(S) = g S g^-1."""
    ginv = g.mat.inv()
    theta_keys = {theta_group(s).mat.key() for s in members}
    conj_keys = {(g.mat * s.mat * ginv).key() for s in members}
    return theta_keys == conj_keys


def decompose(C: CosetSet, std: StandardLattices,
              max_candidates: int = 10**5) -> list[Piece]:
    """Partition C into verified conjugate-theta-stable pieces: the one
    piece C, since a * c(p^l0 Ldot) = C for every member a.

    Fast path: the first theta-fixed member a gives the witness a^-1
    (C = a * subgroup and the subgroup is theta-stable).  Otherwise the
    first member a and its conjugator x give x a^-1, after every member's
    conjugator has been checked orbit by orbit.  The witness is
    re-verified on each run.
    """
    space = C.space
    a = next((m for m in C.members if theta_group(m).mat == m.mat), None)
    if a is not None:
        x = GroupElem(space, space.identity(), space.ring.one)
    else:
        a = C.members[0]
        x = _orbit_conjugators(C, std, max_candidates)
    piece = Piece(C.members, x * a.inv(),
                  {"a": a.mat.to_text(), "x": x.mat.to_text(),
                   "level": C.level})
    if not verify_piece(piece.members, piece.witness):
        raise DecompositionError(
            f"witness fails for piece at {piece.provenance['a']}")
    return [piece]
