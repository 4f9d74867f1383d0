"""Lattices: the stable lattice in V, the Lie-algebra lattice, intersection
lattices attached to group elements, congruence subgroups, and the Cayley
level-bijection checker.

All lattices are full-rank o_F-modules presented by a basis matrix in a
canonical Hermite form over the localization of the integers at p (pivots
are powers of p, entries below a pivot reduced mod that pivot), so lattice
equality is literal equality of normal forms.  A basis is held on
integers: its columns as integer tuples over one power of p, the least
that clears every denominator.  An operator on Lie coordinates is an
integer matrix over one positive denominator in lowest terms.  The Lie
coordinates are read off the integer kernel basis of ``cayley.lie_system``
with no solver: each is a component of X.  Every kernel here is read off
the one column reduction of ``modsolve`` (``_affine_solution``): the Lie
kernel over Z, L(x) as the kernel of Ad(x) mod a power of p (no duals),
and the kernel of ``lie_system`` mod p that the congruence lift walks.
The Hermite form, the image of a basis under an operator and the
conjugation operators all run on Python integers, and no scalar of the
split field is built for a basis or an operator.  Nothing scans residues:
the congruence subgroup is lifted from the identity one p-adic digit at a
time in closed form, on one reduction of ``lie_system`` mod p, and
``level_images`` is the one enumeration of c(p^k L) mod p^N, for the level
check (one sorted list) and the subgroup K of ``decomposition``.  The
o_E-structure of the vector-space lattice is tracked through the choice of
F-coordinates but all computation happens over F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice
from operator import ne

from . import modsolve
from .cayley import (DomainError, cayley_kernel, lie_alpha_kernel, lie_system,
                     linear_kernel, multiplier_predicate, star_kernel,
                     theta_kernel)
from .matrices import (Mat, comps_key, components_per_scalar, det_norm_kernel,
                       over_one_denominator, product_kernel)
from .scalars import val_int
from .spaces import Space


class LatticeError(ValueError):
    pass


def _hnf(p: int, dim: int, cols, den: int) -> tuple[tuple, int]:
    """Canonical Hermite form over Z_(p) of the column span of the integer
    columns ``cols`` over the positive denominator ``den``: (columns, e)
    with integer columns over e, a power of p, the least one.  The columns
    are lower triangular, with a power of p on the diagonal and entries
    below a pivot in [0, pivot).  Requires the columns to span the full
    space.

    The unit part w of den = p^s w is dropped, which leaves the span
    alone.  The integer columns triangularize over Z.  The p-part p^K of
    their pivot product is the index of their Z_(p)-span, which therefore
    contains p^K Z^dim: so each pivot becomes its p-part by a unit scaling
    mod p^K, and then the entries below the pivots reduce.
    """
    basis = modsolve.subgroup_basis([list(c) for c in cols], dim, 0)
    if len(basis) < dim:
        raise LatticeError("columns do not span the full space")
    pivots = [p**val_int(col[i], p) for i, col in enumerate(basis)]
    M = math.prod(pivots)
    for i, col in enumerate(basis):
        unit = pow(col[i] // pivots[i], -1, M)
        col[i] = pivots[i]
        for r in range(i + 1, dim):
            col[r] = col[r] * unit % M
    for j, col in enumerate(basis):
        for i in range(j + 1, dim):
            q = col[i] // pivots[i]
            if q:
                for r in range(i, dim):
                    col[r] -= q * basis[i][r]
    den = p**val_int(den, p)
    g = math.gcd(den, *(x for col in basis for x in col))
    return tuple(tuple(x // g for x in col) for col in basis), den // g


@dataclass(frozen=True)
class Operator:
    """An F-linear operator on Lie coordinates: the integer matrix ``nums``
    (a tuple of rows) over the denominator ``den`` > 0, in lowest terms,
    so that equal operators have equal fields."""

    nums: tuple
    den: int

    @staticmethod
    def from_columns(cols, den: int) -> "Operator":
        """The operator with the integer columns ``cols`` over ``den``."""
        g = math.gcd(den, *(x for col in cols for x in col))
        return Operator(tuple(tuple(x // g for x in row)
                              for row in zip(*cols)), den // g)


@dataclass(frozen=True)
class LatticeBasis:
    """A full o_F-lattice in an F-space, in canonical Hermite form: the
    integer columns ``nums`` over ``den``, the least power of p that makes
    them integral (``_hnf``)."""

    p: int
    dim: int
    nums: tuple
    den: int

    @staticmethod
    def standard(p: int, dim: int) -> "LatticeBasis":
        return LatticeBasis(p, dim, tuple(
            tuple(int(i == j) for i in range(dim)) for j in range(dim)), 1)

    def transform(self, T: Operator) -> "LatticeBasis":
        """Image under an invertible F-linear operator T."""
        cols = [[sum(a * x for a, x in zip(row, col)) for row in T.nums]
                for col in self.nums]
        return LatticeBasis(self.p, self.dim, *_hnf(
            self.p, self.dim, cols, T.den * self.den))


# -- Lie-algebra coordinates ------------------------------------------


class LieCoords:
    """F-coordinates on the (similitude or isometry) Lie algebra of a space.

    The basis, held as integer columns, spans the standard Lie lattice
    (integral matrices inside the algebra) over o_F, so the standard
    lattice is the identity basis in these coordinates.  Each basis
    vector is 1 on the component of X it reads, where every other vector
    is 0: each coordinate of X is one of its components.  ``numerators``
    is the one map from coordinates to components, a generated linear
    kernel.
    """

    def __init__(self, space: Space, isometry: bool = False):
        if not space.ring.exact:
            raise LatticeError("coordinates are built over the exact field")
        self.space = space
        self.m0 = space.n * space.n * components_per_scalar(space.ring)
        vectors = self._kernel_vectors(isometry)
        self.m = len(vectors)
        # each vector reads its first +-1 entry of X, made 1 and cleared
        # from every other vector
        self._reads = []
        for vec in vectors:
            i = next((i for i, a in enumerate(vec[:self.m0]) if abs(a) == 1),
                     None)
            if i is None:
                raise LatticeError("a basis vector reads no entry of its own")
            if vec[i] < 0:
                vec[:] = [-a for a in vec]
            for other in vectors:
                if other is not vec and other[i]:
                    q = other[i]
                    other[:] = [a - q * b for a, b in zip(other, vec)]
            self._reads.append(i)
        self._basis_comps = [tuple(vec[:self.m0]) for vec in vectors]
        self._M = [[col[i] for col in self._basis_comps]
                   for i in range(self.m0)]
        # the integer components of the matrix with integer coordinates
        # (over a denominator, its numerators over the same)
        self.numerators = linear_kernel(
            [[(j, a) for j, a in enumerate(row) if a] for row in self._M],
            None, width=self.m)

    def _kernel_vectors(self, isometry: bool) -> list:
        """The integer kernel basis of the Lie system E
        (``cayley.lie_system``, without its alpha column for the isometry
        algebra), from the one column reduction over Z; the identity
        without a form."""
        space = self.space
        if not space.has_form:
            return modsolve._identity(self.m0)
        E = [over_one_denominator(row[:-1] if isometry else row)[0]
             for row in lie_system(space)]
        return modsolve._affine_solution(E, [0] * len(E), 0)[1]

    def _coords(self, flat) -> list:
        """The coordinates of X with the integer components ``flat``
        (numerators over a denominator give coordinates over the same):
        the entries the basis reads, checked to give X (LatticeError)."""
        c = [flat[i] for i in self._reads]
        if self.numerators(c) != tuple(flat):
            raise LatticeError("matrix is not in the Lie algebra")
        return c

    def _columns(self, images) -> tuple[list, int]:
        """The coordinates of each (integer components, denominator) pair
        of ``images``, as integer columns over one denominator."""
        cols = [(self._coords(flat), den) for flat, den in images]
        den = math.lcm(*(d for _, d in cols))
        return [[x * (den // d) for x in c] for c, d in cols], den

    def to_coords(self, X: Mat):
        flat, den = X.numerators()
        return [Fraction(x, den) for x in self._coords(flat)]

    def from_coords(self, c) -> Mat:
        nums, den = over_one_denominator(c)
        return Mat.from_components(self.space.ring, self.space.n,
                                   self.numerators(nums), den)

    @cached_property
    def theta(self) -> Operator:
        """theta on the Lie algebra in these coordinates, the exact
        ``theta_kernel`` on the basis columns; built on first use."""
        theta_of = theta_kernel(self.space)
        return Operator.from_columns(*self._columns(
            over_one_denominator(theta_of(B)) for B in self._basis_comps))

    def standard_lattice(self) -> LatticeBasis:
        return LatticeBasis.standard(self.space.ring.p, self.m)

    def cayley_images(self, space_t: Space, vectors):
        """(components, mu, alpha) of c(X) mod p^N, on integers, for the X
        with integer coordinates v, for each v of ``vectors``; ``space_t``
        is the space truncated at N.  Every X is certified in the Lie
        algebra mod p^N (MembershipError), and one outside the Cayley
        domain raises DomainError."""
        alpha_of, c = lie_alpha_kernel(space_t), cayley_kernel(space_t)
        for v in vectors:
            x = self.numerators(v)     # the mod p^N kernels reduce it
            alpha = alpha_of(x)
            image = c(x, alpha)
            if image is None:
                raise DomainError("X is outside the Cayley domain")
            yield image + (alpha,)


# -- standard lattices ------------------------------------------------


@dataclass(frozen=True)
class StandardLattices:
    """The standard Lie lattice Ldot and the coordinates on the similitude
    and isometry Lie algebras."""

    space: Space
    Ldot: LatticeBasis
    gu_coords: LieCoords
    u_coords: LieCoords


def standard_lattices(space: Space) -> StandardLattices:
    """The standard-basis lattice chain of a standard model.

    The o_E-span L of the standard basis of V is checked stable under the
    fixed anti-unitary involution; Ldot is the lattice of integral
    matrices in the similitude Lie algebra.
    """
    if space.has_form:
        _check_h_stable(space)
    gu_coords = LieCoords(space, isometry=False)
    u_coords = LieCoords(space, isometry=True)
    Ldot = gu_coords.standard_lattice()
    return StandardLattices(space, Ldot, gu_coords, u_coords)


def _check_h_stable(space: Space):
    # h acts on each column of a matrix M by v -> H tau(v), and tau keeps
    # the integral matrices, so the standard lattice of V is h-stable
    # exactly when H M_n(o_E) = M_n(o_E): when H is in GL_n(o_E), integral
    # with det(H) tau(det H) a unit
    p = space.ring.p
    nums, den = space.H.numerators()
    if not den % p or not det_norm_kernel(space.ring, space.n)(nums) % p:
        raise LatticeError("standard lattice is not stable under h")


# -- lattice operations in Lie coordinates ----------------------------


def _conjugation(coords: LieCoords, x: Mat, xinv: Mat) -> tuple[list, int]:
    """The columns of the operator B -> x B xinv, for xinv the inverse of
    x, as integers over one denominator: every product runs on the
    integer components of the integral basis with the exact
    ``product_kernel``, and the read-off coordinates are checked against
    each image (LatticeError off the Lie algebra)."""
    space = coords.space
    prod = product_kernel(space.ring, space.n)
    left, dl = x.numerators()
    right, dr = xinv.numerators()
    den = dl * dr
    return coords._columns((prod(prod(left, B), right), den)
                           for B in coords._basis_comps)


def ad_operator(coords: LieCoords, x: Mat) -> Operator:
    """Ad(x): B -> x B x^-1 in the coordinates ``coords``."""
    return Operator.from_columns(*_conjugation(coords, x, x.inv()))


def lattice_meet(coords: LieCoords, T: Operator) -> LatticeBasis:
    """T^-1 L meet L = {Y in L : T Y in L}, L the standard lattice of
    ``coords``: with T = C / d in lowest terms and e = v_p(d), the
    integer Y with C Y = 0 mod p^e: the span of the square kernel basis
    mod p^e, whose pivot product is the index of that lattice, in one
    Hermite form."""
    p, m = coords.space.ring.p, coords.m
    e = val_int(T.den, p)
    if not e:
        return coords.standard_lattice()
    basis = modsolve._affine_solution(T.nums, [0] * m, p**e)[1]
    return LatticeBasis(p, m, *_hnf(p, m, basis, 1))


def lattice_of_x(coords: LieCoords, x: Mat) -> LatticeBasis:
    """L(x) = Ad(x^-1) L meet L = {Y in L : Ad(x) Y in L}, L the standard
    lattice: ``lattice_meet`` of ``ad_operator``."""
    return lattice_meet(coords, ad_operator(coords, x))


# -- congruence levels ------------------------------------------------


def level_images(coords: LieCoords, k: int, N: int, budget: int):
    """(components, mu, alpha) of c(X) mod p^N for the X with integer
    coordinates p^k v, for every v of ``modsolve.residues(m, p^(N-k))`` in
    its lexicographic order, enumerated directly as the multiples of p^k
    mod p^N: c(p^k L) mod p^N, L the integral lattice of ``coords``
    (``LieCoords.cayley_images``).  LatticeError unless 1 <= k < N;
    SolveBudgetError, on the call, for more than ``budget`` vectors."""
    if not (1 <= k < N):
        raise LatticeError("need 1 <= k < N")
    space = coords.space
    p = space.ring.p
    return coords.cayley_images(
        space.truncated(N), modsolve.residues(coords.m, p**N, budget, p**k))


def congruence_members(coords: LieCoords, k: int, N: int, budget: int):
    """[(comps, mu)], sorted, for the similitudes g = 1 mod p^k mod p^N of
    the space of the similitude coordinates ``coords``, Hensel-lifted from
    the identity one p-adic digit at a time in closed form: a member g mod
    p^j has g g* = mu0 1 + p^j R, mu0 the base component of entry (0, 0),
    R = R*, so (p odd) Z0 = -R/2 solves Z + Z* - nu 1 = -R mod p, and the
    coset odometer walks its lifts g + p^j (Z0 + Y) mod p^(j+1), Y over
    the kernel of ``lie_system`` mod p, eliminated once per call (every Y
    in the general-linear family).  A member that ``multiplier_predicate``
    rejects raises LatticeError.  SolveBudgetError, on every call, when
    the p^(m (N - k)) members exceed ``budget``; kept in ``space.memo``."""
    space = coords.space
    p = space.ring.p
    total = p**(coords.m * (N - k))
    if total > budget:
        raise modsolve.SolveBudgetError(
            f"congruence subgroup of {total} members exceeds budget {budget}")
    memo_key = ("congruence-members", k, N)
    if memo_key in space.memo:
        return space.memo[memo_key]
    space_t = space.truncated(N)
    ident = space_t.identity().nums
    D = len(ident)
    if space.has_form:
        # the Z part of each kernel column (Z, nu): Z = 0 forces nu = 0
        basis = [col[:D] for col in modsolve._affine_solution(
            lie_system(space.truncated(1)), [0] * D, p)[1]]
        mul = product_kernel(space_t.ring, space.n)
        star_of = star_kernel(space_t)
        half = (p + 1) // 2

        def lift(g):               # g - p^j R / 2 mod p^(j+1)
            z = mul(g, star_of(g))
            return [a + (z[0] * e - v) * half for a, v, e in zip(g, z, ident)]
    else:                          # every Y lifts
        basis, lift = modsolve._identity(D), lambda g: g
    members = [ident]
    for j in range(k, N):
        step = [[p**j * a for a in col] for col in basis]
        members = [m for g in members
                   for m in modsolve._iter_coset(lift(g), step, D, p**(j + 1))]
    members.sort()
    mu_of = multiplier_predicate(space_t)
    entries = []
    for comps in members:
        mu = mu_of(comps)
        if mu is None:
            raise LatticeError(f"lifted member {comps} is not a similitude")
        entries.append((comps, mu))
    space.memo[memo_key] = entries
    return entries


@dataclass
class LevelCheckReport:
    family: str
    k: int
    N: int
    variant: str
    image_size: int
    congruence_size: int
    injective: bool
    sets_equal: bool
    alpha_integral: bool
    mu_congruent: bool
    mismatches: list

    @property
    def passed(self) -> bool:
        return (self.injective and self.sets_equal and self.alpha_integral
                and self.mu_congruent and not self.mismatches)


def check_cayley_level(space: Space, std: StandardLattices, k: int, N: int,
                       variant: str = "gu", budget: int = 10**6) -> LevelCheckReport:
    """Verify that the Cayley map carries p^k * (Lie lattice) bijectively
    onto the congruence subgroup at level k, with the valuation bounds
    (alpha in p^k o_F, multiplier = 1 mod p^k) on every enumerated element.
    """
    if variant not in ("gu", "u"):
        raise LatticeError(f"unknown variant {variant!r}: need gu or u")
    if not space.ring.exact:
        raise LatticeError("level check starts from the exact space")
    coords = std.u_coords if variant == "u" else std.gu_coords
    pk = space.ring.p**k
    image, alpha_ok, mu_ok = [], True, True
    # alpha is the residue mod p^N of the exact alpha of the integral X,
    # and N > k, so it is 0 mod p^k exactly when that alpha is in p^k o_F
    for comps, mu, alpha in level_images(coords, k, N, budget):
        alpha_ok = alpha_ok and alpha % pk == 0
        mu_ok = mu_ok and (mu - 1) % pk == 0
        image.append(comps)
    image.sort()
    members = [comps for comps, mu in congruence_members(
        std.gu_coords, k, N, budget) if variant != "u" or mu == 1]
    # a repeat in the sorted image is an adjacent pair; the members are
    # distinct, so sets are built only when the two lists differ
    injective = all(map(ne, image, islice(image, 1, None)))
    image_size, sets_equal, mismatches = len(image), True, []
    if image != members:
        image_set, member_set = set(image), set(members)
        image_size, sets_equal = len(image_set), image_set == member_set
        for comps in sorted(image_set ^ member_set)[:5]:
            side = "image-only" if comps in image_set else "congruence-only"
            mismatches.append((side, comps_key(space.ring, comps)))
    return LevelCheckReport(space.family, k, N, variant, image_size,
                            len(members), injective, sets_equal, alpha_ok,
                            mu_ok, mismatches)
