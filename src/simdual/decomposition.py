"""Partitioning a finite-precision coset of a congruence subgroup into
conjugate-theta-stable pieces with explicit witnesses.

A set S is conjugate-theta-stable when theta(S) = g S g^-1 for some group
element g.  The algorithm: a coset C = b * c(p^l0 Ldot) that contains a
theta-fixed element a is itself such a set (witness a^-1); otherwise every
member a receives a theta-symmetric conjugator x_a, members are bucketed
by the intersection lattice of x_a, nested levels are chosen per bucket,
and C is covered by neighborhoods a * c(p^l L(x_a)) whose maximal elements
form the partition.  All set arithmetic happens at one fixed precision N.

The per-member conjugator search exploits that for an isometry x the two
conditions theta(x) = x and x a x^-1 = theta(a) are linear in the entries
of x, so candidates come from an exact affine solve mod p^N instead of a
scan of the whole group.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import modsolve
from .cayley import (cayley, mat_components, mat_from_components,
                     multiplier_predicate)
from .involution import ConjugatorNotFound, theta_group
from .lattices import LatticeBasis, StandardLattices, lattice_of_x
from .matrices import Mat
from .spaces import (GroupElem, Space, certify_group, certify_lie,
                     similitude_multiplier)


class DecompositionError(ValueError):
    pass


class PrecisionExhausted(DecompositionError):
    """A nested level would need l >= N, which the precision cannot resolve."""


# -- enumeration of c(p^l * Lambda) mod p^N ---------------------------


def cayley_image_members(std: StandardLattices, level: int, N: int,
                         lat: LatticeBasis | None = None,
                         limit: int = 10**6) -> list[GroupElem]:
    """Residues mod p^N of c(p^level * lat), sorted; lat defaults to Ldot.

    For level >= 1 and lat inside Ldot every point is in the working
    domain, and the image is a subgroup of the similitude group mod p^N.
    """
    coords = std.gu_coords
    space = coords.space
    p = space.ring.p
    if level < 1:
        raise DecompositionError("need level >= 1")
    if lat is None:
        lat = std.Ldot
    gens = []
    for col in lat.cols:
        vec = [Fraction(x) * p**level for x in col]
        if any(x.denominator != 1 for x in vec):
            raise DecompositionError("lattice is not integral at this level")
        gens.append([int(x) for x in vec])
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
    provenance: dict            # base point a, conjugator x, level, lattice

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
        H, J, Jinv, Hinv = space.H, space.J, space.Jinv, space.Hinv

        def f(x):
            r1 = x * a.mat - ta * x
            r2 = x - H * Jinv * x.transpose() * J * Hinv
            return r1, r2
    else:
        def f(x):
            r1 = x * a.mat - ta * x
            r2 = x - x.transpose()
            return r1, r2

    D = space.n * space.n * (2 if space.ring.ext == "inert" else 1)
    zero = Mat.zeros(space.ring, space.n)

    def comps(pair):
        r1, r2 = pair
        return mat_components(space, r1) + mat_components(space, r2)

    const = comps(f(zero))
    cols = []
    for idx in range(D):
        cvec = [0] * D
        cvec[idx] = 1
        probe = mat_from_components(space, cvec)
        img = comps(f(probe))
        cols.append([x - c for x, c in zip(img, const)])
    A = [[cols[j][i] for j in range(D)] for i in range(len(const))]
    b = [-c for c in const]
    return A, b


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
        tried += 1
        if tried > max_candidates:
            break
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


# -- neighborhoods and verification -----------------------------------


def _lift_mat(m: Mat) -> Mat:
    return m.lift()


def _member_lattice(std: StandardLattices, x: Mat) -> LatticeBasis:
    """Intersection lattice of the canonical integer lift of a residue x.

    Fast path: when the lift and its inverse are both p-integral,
    conjugation is a bijection of the integral Lie lattice, so the
    intersection is the standard lattice itself; verified by conjugating
    the lattice basis.  Falls back to the full normal-form computation.
    """
    lift = _lift_mat(x)
    try:
        inv = lift.inv()
    except Exception:
        return lattice_of_x(std.gu_coords, lift)
    if lift.is_integral() and inv.is_integral():
        basis_ok = all((inv * B * lift).is_integral() and
                       (lift * B * inv).is_integral()
                       for B in std.gu_coords.basis)
        if basis_ok:
            return std.Ldot
    return lattice_of_x(std.gu_coords, lift)


def neighborhood(std: StandardLattices, a: GroupElem, x: GroupElem,
                 k: int, limit: int = 10**6) -> Piece:
    """The conjugate-theta-stable neighborhood a * c(p^k L(x)) of a.

    Preconditions: theta(x) = x, x a x^-1 = theta(a), k >= 1.  The witness
    is g = x a^-1.
    """
    space = a.space
    if k < 1:
        raise DecompositionError("need level k >= 1")
    if theta_group(x).mat != x.mat:
        raise DecompositionError("x is not theta-fixed")
    if x.mat * a.mat * x.mat.inv() != theta_group(a).mat:
        raise DecompositionError("x does not conjugate a to theta(a)")
    N = space.ring.prec
    lat = _member_lattice(std, x.mat)
    subgroup = cayley_image_members(std, k, N, lat, limit=limit)
    seen = {}
    for h in subgroup:
        m = a * h
        seen[m.mat.key()] = m
    members = tuple(seen[key] for key in sorted(seen))
    witness = x * a.inv()
    provenance = {
        "a": a.mat.to_text(),
        "x": x.mat.to_text(),
        "level": k,
        "lattice": lat.to_text(),
    }
    return Piece(members, witness, provenance)


def verify_piece(members, g: GroupElem) -> bool:
    """Exact residue-set check of theta(S) = g S g^-1."""
    ginv = g.mat.inv()
    theta_keys = {theta_group(s).mat.key() for s in members}
    conj_keys = {(g.mat * s.mat * ginv).key() for s in members}
    return theta_keys == conj_keys


# -- the decomposition algorithm --------------------------------------


def decompose(C: CosetSet, std: StandardLattices,
              limit: int = 10**6,
              max_candidates: int = 10**5) -> list[Piece]:
    """Partition C into verified conjugate-theta-stable pieces.

    Fast path: if C contains a theta-fixed member a, then C itself is one
    piece with witness a^-1 (C = a * subgroup and the subgroup is
    theta-stable).  Otherwise each member is bucketed by the intersection
    lattice of its conjugator, nested levels are chosen per bucket, and
    the cover by neighborhoods is pruned to its maximal elements.  The
    partition property and every witness are re-verified on each run.
    """
    space = C.space
    members = C.members
    # fast path: theta-fixed member
    for a in members:
        if theta_group(a).mat == a.mat:
            x = GroupElem(space, space.identity(), space.ring.one)
            piece = neighborhood(std, a, x, C.level, limit=limit)
            _check_partition(C, [piece])
            return [piece]
    # general path: conjugator per member, bucket by lattice
    conjugators = {}
    lattices = {}
    buckets = {}          # lattice cols -> list of member indices
    bucket_order = []
    for idx, a in enumerate(members):
        x = find_conjugator_mod(a, max_candidates=max_candidates)
        lat = _member_lattice(std, x.mat)
        conjugators[idx] = x
        lattices[idx] = lat
        key = lat.cols
        if key not in buckets:
            buckets[key] = []
            bucket_order.append(key)
        buckets[key].append(idx)
    # the lattice depends only on the bucket: re-check against the
    # bucket representative (the first member assigned to it)
    for key in bucket_order:
        rep_lat = lattices[buckets[key][0]]
        for idx in buckets[key][1:]:
            if lattices[idx] != rep_lat:
                raise DecompositionError(
                    "bucketed members disagree on the intersection lattice")
    # nested level choice per bucket
    levels = _choose_levels(C, std, [lattices[buckets[k][0]] for k in bucket_order])
    level_of = {}
    for key, lvl in zip(bucket_order, levels):
        for idx in buckets[key]:
            level_of[idx] = lvl
    # cover by neighborhoods of uncovered members, in sorted member order
    covered = set()
    pieces = []
    for idx, a in enumerate(members):
        if a.mat.key() in covered:
            continue
        piece = neighborhood(std, a, conjugators[idx], level_of[idx],
                             limit=limit)
        keys = piece.member_keys()
        if not keys <= C.member_keys():
            raise DecompositionError("neighborhood escapes the coset")
        pieces.append(piece)
        covered |= keys
    pieces = _maximal_pieces(pieces)
    _check_nesting(C, std, bucket_order, levels,
                   [lattices[buckets[k][0]] for k in bucket_order], limit)
    _check_partition(C, pieces)
    return pieces


def _choose_levels(C: CosetSet, std: StandardLattices, bucket_lats):
    """Levels l_1 <= l_2 <= ... with p^{l_i} L_i inside p^{l_{i-1}} L_{i-1}."""
    p = C.space.ring.p
    levels = []
    prev_lat = std.Ldot
    prev_level = C.level
    for lat in bucket_lats:
        l = max(prev_level, C.level)
        while not prev_lat.scale(prev_level).contains_lattice(lat.scale(l)):
            l += 1
            if l >= C.N:
                raise PrecisionExhausted(
                    f"nested level {l} reaches precision {C.N}")
        if l >= C.N:
            raise PrecisionExhausted(
                f"nested level {l} reaches precision {C.N}")
        levels.append(l)
        prev_lat, prev_level = lat, l
    return levels


def _maximal_pieces(pieces):
    """Drop pieces strictly contained in another piece."""
    keysets = [p.member_keys() for p in pieces]
    out = []
    for i, p in enumerate(pieces):
        if any(i != j and keysets[i] < keysets[j] for j in range(len(pieces))):
            continue
        out.append(p)
    return out


def _check_nesting(C, std, bucket_order, levels, bucket_lats, limit):
    """The subgroup chain c(p^{l_i} L_i) is nested as residue sets."""
    prev = None
    prev_level = None
    for lat, lvl in zip(bucket_lats, levels):
        cur = {g.mat.key()
               for g in cayley_image_members(std, lvl, C.N, lat, limit=limit)}
        if prev is not None and not cur <= prev:
            raise DecompositionError(
                f"level chain broken: c(p^{lvl} L) not inside c(p^{prev_level} L')")
        prev, prev_level = cur, lvl


def _check_partition(C: CosetSet, pieces):
    union = set()
    keysets = [p.member_keys() for p in pieces]
    for i, keys in enumerate(keysets):
        if union & keys:
            raise DecompositionError("pieces are not pairwise disjoint")
        union |= keys
        for j in range(i):
            inter = keys & keysets[j]
            if inter and not (keys <= keysets[j] or keysets[j] <= keys):
                raise DecompositionError("pieces neither disjoint nor nested")
    if union != C.member_keys():
        raise DecompositionError("pieces do not cover the coset")
    for p in pieces:
        if not verify_piece(p.members, p.witness):
            raise DecompositionError(
                f"witness fails for piece at {p.provenance['a']}")
