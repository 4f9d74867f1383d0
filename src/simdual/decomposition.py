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

Members are held as integer component tuples mod p^N (the layout of
``Mat.components``): the subgroup c(p^l0 Ldot) comes from
``lattices.level_images``, as Ldot is the identity basis of the Lie
coordinates, theta and the multiplier from the kernels of ``cayley``,
and products and inverses from the product and adjugate kernels of
``matrices``.  A product by a fixed matrix runs one compiled
``cayley.product_map``: k -> b k for the coset, a -> k a k^-1 and
x -> theta(k)^-1 x k^-1 for the orbit steps, s -> g s g^-1 for the
witness check.  ``CosetSet.members`` decodes a
``GroupElem`` on access.

The conjugator search exploits that for an isometry x the two conditions
theta(x) = x and x a x^-1 = theta(a) are linear in the entries of x, so
candidates come from an exact affine solve mod p^N instead of a scan of
the whole group.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import modsolve
from .cayley import (Members, linear_system, multiplier_predicate,
                     product_map, theta_kernel)
from .involution import ConjugatorNotFound, theta_group
from .lattices import StandardLattices, level_images
from .matrices import Mat, matrix_inverse_kernel, product_kernel
from .spaces import GroupElem, Space, certify_group, similitude_multiplier


class DecompositionError(ValueError):
    pass


# the most candidates one conjugator solve tries
CONJUGATOR_BUDGET = 10**5


# -- enumeration of c(p^l * Ldot) mod p^N -----------------------------


def cayley_image_members(std: StandardLattices, level: int, N: int,
                         limit: int = 10**6) -> Members:
    """Residues mod p^N of c(p^level * Ldot), sorted, as component tuples
    that decode to ``GroupElem`` on access.

    For level >= 1 every point is in the working domain, and the image is
    a subgroup of the similitude group mod p^N.  It is built once per
    (level, N, limit) and kept in ``std.space.memo``.  The Cayley map is
    a bijection at level >= 1, so a residue hit twice raises
    DecompositionError.
    """
    space = std.space
    memo_key = ("cayley-image-members", level, N, limit)
    if memo_key in space.memo:
        return space.memo[memo_key]
    seen = {}
    for comps, mu, _ in level_images(std.gu_coords, level, N, limit):
        if comps in seen:
            raise DecompositionError("the Cayley image repeats a residue")
        seen[comps] = mu
    comps = sorted(seen)
    space.memo[memo_key] = Members(space.truncated(N), comps,
                                   [seen[x] for x in comps])
    return space.memo[memo_key]


# -- domain types -----------------------------------------------------


@dataclass(frozen=True)
class CosetSet:
    """The finite-precision coset b * c(p^level Ldot) mod p^N."""

    space: Space                # truncated at N
    base: GroupElem             # b mod p^N
    level: int                  # l0
    N: int
    members: Members            # sorted, pairwise distinct


@dataclass(frozen=True)
class Piece:
    """A member list S with a witness g satisfying theta(S) = g S g^-1."""

    members: Members            # sorted
    witness: GroupElem
    provenance: dict            # base point a, conjugator x, level


def coset_set(space: Space, std: StandardLattices, b: Mat, l0: int,
              N: int, limit: int = 10**6) -> CosetSet:
    """Build C = b * c(p^l0 Ldot) mod p^N with its full member list."""
    if not (1 <= l0 < N):
        raise DecompositionError("need 1 <= l0 < N")
    st = space.truncated(N)
    bt = certify_group(st, b.reduce(N))
    subgroup = cayley_image_members(std, l0, N, limit=limit)
    times = product_map(st, left=bt.mat.nums)
    mu_b, M = bt.mu.a, st.ring.modulus
    seen = {}
    for k, mu in zip(subgroup.comps, subgroup.mus):
        m = times(k)
        if m in seen:
            raise DecompositionError("coset members are not pairwise distinct")
        seen[m] = mu_b * mu % M
    comps = sorted(seen)
    return CosetSet(st, bt, l0, N, Members(st, comps, [seen[x] for x in comps]))


# -- the linear-system conjugator search ------------------------------


def _conjugator_system(space: Space, a: tuple):
    """Affine system over matrix components for {x a = theta(a) x, x
    theta-symmetric}, for the member with components ``a``, where
    theta-symmetry of an isometry x is the linear condition theta(x) = x.
    Quadratic conditions (x a unit isometry) are checked per candidate
    afterwards.
    """
    mul, theta = product_kernel(space.ring, space.n), theta_kernel(space)
    M = space.ring.modulus
    ta = theta(a)

    def f(x):
        return ([(u - v) % M for u, v in zip(mul(x, a), mul(ta, x))]
                + [(u - v) % M for u, v in zip(x, theta(x))])

    return linear_system(len(a), f)


def find_conjugator_mod(a: GroupElem) -> GroupElem:
    """First theta-symmetric isometry x with x a x^-1 = theta(a) mod p^N.

    Candidates are solutions of the linearized system, traversed in a
    deterministic order; each is filtered by the unit and isometry
    conditions and the two defining equations.  Exhaustion, or
    ``CONJUGATOR_BUDGET`` candidates, raises ConjugatorNotFound, never a
    silent miss.
    """
    space = a.space
    ring = space.ring
    if ring.exact:
        raise DecompositionError("conjugator solve works at finite precision")
    ta = theta_group(a).mat
    if ta == a.mat:
        return GroupElem(space, space.identity(), ring.one)
    A, b = _conjugator_system(space, a.mat.nums)
    mu_of = multiplier_predicate(space)
    tried = 0
    for comps in modsolve.iter_affine_mod(A, b, ring.p, ring.prec):
        if tried == CONJUGATOR_BUDGET:
            break
        tried += 1
        # the linear system already encodes x a = theta(a) x exactly and
        # theta-symmetry of x conditional on x being an isometry; the only
        # remaining condition is x star(x) = 1.
        if mu_of(comps) != 1:
            continue
        x = Mat.from_components(space.ring, space.n, comps)
        mu = similitude_multiplier(space, x)
        # theta(x) = H tau(x^-1) H^-1 (mu = 1): a formula not theta_group's
        theta_x = (space.H * x.inv().tau() * space.Hinv if space.has_form
                   else x.transpose())
        if mu != ring.one or theta_x != x or x * a.mat != ta * x:
            raise DecompositionError("conjugator linearization is inconsistent")
        return GroupElem(space, x, mu)
    raise ConjugatorNotFound(
        f"no theta-symmetric conjugator for {a.mat.to_text()} "
        f"({tried} candidates tried)", tried)


# -- conjugators carried along orbits ---------------------------------


def _carried_check(space: Space, keys):
    """``failure(a, x)``: the first of the four conditions on a carried
    pair (a', x') = (a, x) that fails, or None: a' in C (``keys``),
    mu(x') = 1, theta(x') = x' and x' a' = theta(a') x'."""
    mul, theta = product_kernel(space.ring, space.n), theta_kernel(space)
    mu_of = multiplier_predicate(space)

    def failure(a, x):
        if a not in keys:
            return "a' is not in C"
        if mu_of(x) != 1:
            return "mu(x') != 1"
        if theta(x) != x:
            return "theta(x') != x'"
        if mul(x, a) != mul(theta(a), x):
            return "x' a' != theta(a') x'"
        return None
    return failure


def _orbit_conjugators(C: CosetSet, std: StandardLattices) -> GroupElem:
    """Check that every member of C has a theta-symmetric isometry
    conjugator; return the one of C.members[0].

    Members are visited in sorted order.  Each member not yet reached is
    solved, and its conjugator is carried over its orbit under the
    isometry generators, with every carried x' re-checked by
    ``_carried_check``.
    """
    space = C.space
    theta = theta_kernel(space)
    inv = matrix_inverse_kernel(space.ring, space.n)
    members = C.members
    failure = _carried_check(space, set(members.comps))
    # isometries k = c(p^l0 B) of c(p^l0 Ldot), B in the isometry Lie
    # basis, so mu(k) = 1; each kept as its two steps a -> k a k^-1 and
    # x -> theta(k)^-1 x k^-1
    coords = std.u_coords
    pl = space.ring.p**C.level
    unit_vectors = [[pl * (i == j) for i in range(coords.m)]
                    for j in range(coords.m)]
    gens = []
    for k, _, _ in coords.cayley_images(space, unit_vectors):
        kinv = inv(k)
        gens.append((product_map(space, k, kinv),
                     product_map(space, inv(theta(k)), kinv)))
    reached = set()
    first = None
    for i, root in enumerate(members.comps):
        if root in reached:
            continue
        x = find_conjugator_mod(members[i])
        if first is None:
            first = x
        reached.add(root)
        queue = deque([(root, x.mat.nums)])
        while queue:
            a, x = queue.popleft()
            for ad_k, carry_k in gens:
                a2 = ad_k(a)
                if a2 in reached:
                    continue
                x2 = carry_k(x)
                failed = failure(a2, x2)
                if failed:
                    raise DecompositionError(
                        f"carried conjugator fails ({failed}) at "
                        + Mat.from_components(space.ring, space.n,
                                              a2).to_text())
                reached.add(a2)
                queue.append((a2, x2))
    return first


# -- the decomposition ------------------------------------------------


def verify_piece(members: Members, g: GroupElem) -> bool:
    """Exact residue-set check of theta(S) = g S g^-1: every g s g^-1
    lies in theta(S), and every member of theta(S) is hit.  Only theta(S)
    is stored, as a dict of hit flags; g S g^-1 is never held whole."""
    space = g.space
    comps = members.comps
    gx = g.mat.nums
    ginv = matrix_inverse_kernel(space.ring, space.n)(gx)
    if ginv is None:                     # a singular g is no witness
        return False
    hit = dict.fromkeys(map(theta_kernel(space), comps), False)
    conjugate = product_map(space, gx, ginv)
    for s in comps:
        c = conjugate(s)
        if c not in hit:
            return False
        hit[c] = True
    return all(hit.values())


def decompose(C: CosetSet, std: StandardLattices) -> list[Piece]:
    """Partition C into verified conjugate-theta-stable pieces: the one
    piece C, since a * c(p^l0 Ldot) = C for every member a.

    Fast path: the first theta-fixed member a gives the witness a^-1
    (C = a * subgroup and the subgroup is theta-stable).  Otherwise the
    first member a and its conjugator x give x a^-1, after every member's
    conjugator has been checked orbit by orbit.  The witness is
    re-verified on each run.
    """
    space = C.space
    members = C.members
    theta = theta_kernel(space)
    i = next((i for i, m in enumerate(members.comps) if theta(m) == m), None)
    if i is not None:
        x = GroupElem(space, space.identity(), space.ring.one)
    else:
        i = 0
        x = _orbit_conjugators(C, std)
    a = members[i]
    M = space.ring.modulus
    w = product_kernel(space.ring, space.n)(
        x.mat.nums,
        matrix_inverse_kernel(space.ring, space.n)(members.comps[i]))
    mu_w = x.mu.a * pow(members.mus[i], -1, M) % M
    witness = GroupElem(space, Mat.from_components(space.ring, space.n, w),
                        space.ring.scalar(mu_w))
    piece = Piece(members, witness,
                  {"a": a.mat.to_text(), "x": x.mat.to_text(),
                   "level": C.level})
    if not verify_piece(piece.members, piece.witness):
        raise DecompositionError(
            f"witness fails for piece at {piece.provenance['a']}")
    return [piece]
