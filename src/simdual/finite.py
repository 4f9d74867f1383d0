"""Exhaustive dualizing-involution checks for small classical and
similitude groups over finite fields.

For a finite group the map iota(g) = theta(g)^-1 = mu(g)^-1 H tau(g) H^-1
(transpose-inverse in the matrix family without a form) is a dualizing
involution -- every irreducible representation composed with iota is
isomorphic to its dual -- if and only if iota(g) is conjugate to g^-1
for every g.  That class-inversion criterion is what this module
verifies, exhaustively, with an explicit theta-symmetric conjugator for
every class.

A group is held as integer tables over the component tuples of its
matrices (the layout of ``Mat.components``).  ``build_group``
scans every matrix over F_q (F_{q^2} for the unitary families) and keeps
those with g star(g) = mu * 1, decided by ``cayley.multiplier_predicate``
(in ``gl``, a unit determinant from the adjugate code of ``matrices``);
the scan order is the canonical one, so positions follow ``Mat.key()``.
A greedy generating set S carries one right-multiplication table R_s per
generator (R_s[g] = position of g s), so subgroup closure and the
conjugation orbits g^-1 e g = inverse[R_g[inverse[R_g[e]]]] are lookups.
Inverses come from the generator tree: the closure first reaches each
element as k = a s, and k^-1 = s^-1 a^-1 is one product, so only the
generators are inverted (the adjugate inverse
``matrices.matrix_inverse_kernel``).  A product with a generator as one
operand (x s for R_s, s^-1 x for the inverses, x iota(s) in the
multiplicativity check) runs the compiled linear kernel
``cayley.product_map`` of that generator; a product of two varying
matrices runs ``matrices.product_kernel``.
There is no iota kernel: iota(g) = theta(g^-1) is ``cayley.theta_kernel``
on the inverse table, for every family (the transpose of the inverse in
``gl``).

The table is re-checked before use: every inverse by one product, iota
as a bijective involution, iota on the generators against
``involution.iota_group``, and iota(g s) = iota(g) iota(s) for all g in G
and s in S, which by induction on word length makes iota multiplicative on
all of G.  Together with the generator check it pins iota down as the
automorphism ``iota_group`` defines.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .cayley import (Members, multiplier_predicate, product_map,
                     theta_kernel)
from .involution import enumerate_matrices, iota_group
from .matrices import Mat, matrix_inverse_kernel, product_kernel
from .modsolve import SolveBudgetError
from .scalars import INERT, SPLIT, Ring, smallest_nonresidue
from .spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                     SKEW_HERMITIAN, SYMPLECTIC, Space, standard_space,
                     validate_space)

SP = "sp"
GSP = "gsp"
UNITARY = "u"
GUNITARY = "gu"
OPLUS = "o+"
OMINUS = "o-"
GL = "gl"

FINITE_FAMILIES = (SP, GSP, UNITARY, GUNITARY, OPLUS, OMINUS, GL)

# the most matrices ``build_group`` scans, and the largest group it keeps
SCAN_BUDGET = 10**7
ORDER_BUDGET = 10**6


class FiniteGroupError(ValueError):
    pass


def family_ext(family: str) -> str:
    """The ring of a p-adic family or finite tag: inert for the unitary
    ones, whose scalars live in the quadratic extension."""
    unitary = (HERMITIAN, SKEW_HERMITIAN, UNITARY, GUNITARY)
    return INERT if family in unitary else SPLIT


def finite_space(family: str, n: int, q: int) -> tuple[Space, bool]:
    """The ambient space over the residue field and the similitude flag;
    a p-adic family gives its standard space mod p, as similitudes."""
    if family in FAMILIES:
        ring = Ring(q, family_ext(family), 1)
        return standard_space(family, n, ring), True
    if family in (SP, GSP):
        ring = Ring(q, SPLIT, 1)
        return standard_space(SYMPLECTIC, n, ring), family == GSP
    if family in (UNITARY, GUNITARY):
        ring = Ring(q, INERT, 1)
        return standard_space(HERMITIAN, n, ring), family == GUNITARY
    if family == OPLUS:
        if n != 2:
            raise FiniteGroupError("split orthogonal family is built for n = 2")
        ring = Ring(q, SPLIT, 1)
        J = Mat(ring, [[0, 1], [1, 0]])
        return validate_space(J, +1, ring, family=ORTHOGONAL,
                              H=Mat.identity(ring, 2)), False
    if family == OMINUS:
        if n != 2:
            raise FiniteGroupError("anisotropic orthogonal family is built "
                                   "for n = 2")
        ring = Ring(q, SPLIT, 1)
        # choose the diagonal form x^2 - d y^2 with -d a non-square, so the
        # form represents zero only trivially
        if pow(q - 1, (q - 1) // 2, q) != 1:       # -1 is a non-square
            J = Mat.identity(ring, 2)
        else:
            J = Mat.diag(ring, [1, smallest_nonresidue(q)])
        return validate_space(J, +1, ring, family=ORTHOGONAL,
                              H=Mat.identity(ring, 2)), False
    if family == GL:
        ring = Ring(q, SPLIT, 1)
        return standard_space(GENERAL_LINEAR, n, ring), True
    raise FiniteGroupError(f"unknown finite family {family!r}")


@dataclass
class FiniteGroupTable:
    """A fully enumerated matrix group over a finite field, with iota, as
    integer tables indexed by position (the canonical order of the
    element matrices).

    ``comps`` holds each element's component tuple and ``mus`` its
    multiplier residue; ``index`` maps a component tuple to its position;
    ``inverse`` and ``iota`` are permutations of positions; ``gens`` is the
    greedy generating set and ``right[k][g]`` the position of
    g * gens[k].  ``elements`` decodes a ``GroupElem`` on access, so none
    is kept per element.
    """

    family: str
    n: int
    q: int
    space: Space
    comps: list = field(repr=False)
    mus: list = field(repr=False)
    index: dict = field(repr=False)
    inverse: list = field(repr=False)
    iota: list = field(repr=False)
    gens: list = field(repr=False)
    right: list = field(repr=False)

    @property
    def order(self) -> int:
        return len(self.comps)

    @property
    def elements(self) -> Members:
        return Members(self.space, self.comps, self.mus)

    def position(self, m: Mat) -> int:
        """The position of the matrix m; KeyError if it is not a member."""
        return self.index[m.nums]


def build_group(family: str, n: int, q: int) -> FiniteGroupTable:
    """Enumerate the group, attach inverse, iota and the generators'
    right-multiplication tables, and verify the table invariants.  A scan
    of more than ``SCAN_BUDGET`` matrices, or a group of more than
    ``ORDER_BUDGET`` elements, raises ``modsolve.SolveBudgetError``."""
    space, similitude = finite_space(family, n, q)
    mu_of = multiplier_predicate(space)
    comps, mus = [], []
    for x in enumerate_matrices(space.ring, n, SCAN_BUDGET):
        mu = mu_of(x)
        if mu is None or (mu != 1 and not similitude):
            continue
        comps.append(x)
        mus.append(mu)
        if len(comps) > ORDER_BUDGET:
            raise SolveBudgetError(f"group order exceeds {ORDER_BUDGET}")
    index = {x: i for i, x in enumerate(comps)}
    gens, right, inverse = _generators(space, comps, index)
    theta = theta_kernel(space)
    # iota(g) = theta(g^-1)
    iota = [index.get(theta(comps[j]), -1) for j in inverse]
    if -1 in iota:
        raise FiniteGroupError("iota leaves the table")
    table = FiniteGroupTable(family, n, q, space, comps, mus, index,
                             inverse, iota, gens, right)
    _verify_table(table)
    return table


def _generators(space: Space, comps, index):
    """A small generating set, grown greedily in element order, the
    right-multiplication table of each generator, and the inverse table.
    The closure first reaches each element k as k = a s, with a reached
    before and s a generator, and sets k^-1 = s^-1 a^-1; only the
    generators are inverted.  Both products have a fixed operand, each
    run as its compiled ``cayley.product_map``: x -> x s for the table
    and x -> s^-1 x for the inverses."""
    inv_of = matrix_inverse_kernel(space.ring, space.n)
    n = len(comps)
    gens, right, left_invs = [], [], []
    identity = index[space.identity().nums]
    inverse = [-1] * n                   # -1: not reached yet
    inverse[identity] = identity
    members = [identity]
    for i in range(n):
        if inverse[i] >= 0:
            continue
        t = inv_of(comps[i])
        if t not in index:
            raise FiniteGroupError("table is not closed under inversion")
        gens.append(i)
        left_invs.append(product_map(space, left=t))
        times_s = product_map(space, right=comps[i])
        right.append([index[times_s(x)] for x in comps])
        # close the subgroup under right multiplication by every generator
        frontier = members[:]
        while frontier:
            nxt = []
            for a in frontier:
                a_inv = comps[inverse[a]]
                for R, s_inv_times in zip(right, left_invs):
                    k = R[a]
                    if inverse[k] < 0:
                        inverse[k] = index[s_inv_times(a_inv)]
                        nxt.append(k)
            members += nxt
            frontier = nxt
        if len(members) == n:
            return gens, right, inverse
    raise FiniteGroupError("generating-set construction failed")


def _verify_table(table: FiniteGroupTable):
    """Inverses are inverses; iota is an involutive automorphism that
    agrees with ``iota_group`` on the generators; mu is a homomorphism with
    |G| = |image of mu| * |isometry kernel| in the similitude families."""
    n = table.order
    comps, iota = table.comps, table.iota
    space = table.space
    mul = product_kernel(space.ring, space.n)
    one = space.identity().nums
    for x, j in zip(comps, table.inverse):
        if mul(x, comps[j]) != one:
            raise FiniteGroupError("inverse table is wrong")
    if sorted(iota) != list(range(n)):
        raise FiniteGroupError("iota is not a bijection")
    for i in range(n):
        if iota[iota[i]] != i:
            raise FiniteGroupError("iota is not an involution")
    # iota(g s) = iota(g) iota(s) for all g in G and s in S
    for s, R in zip(table.gens, table.right):
        times_t = product_map(space, right=comps[iota[s]])
        for g in range(n):
            if comps[iota[R[g]]] != times_t(comps[iota[g]]):
                raise FiniteGroupError("iota is not multiplicative")
    for s in table.gens:
        image = iota_group(table.elements[s]).mat
        if image.nums != comps[iota[s]]:
            raise FiniteGroupError("iota differs from iota_group on a "
                                   "generator")
    if space.has_form:
        kernel = table.mus.count(1)
        if len(set(table.mus)) * kernel != n:
            raise FiniteGroupError(
                "order mismatch: |G| != |mu image| * |isometry subgroup|")


# -- conjugacy classes ------------------------------------------------


@dataclass
class ClassMap:
    """Conjugacy classes with deterministic least-member representatives."""

    table: FiniteGroupTable
    reps: list            # element positions, one per class, sorted
    class_of: list        # element position -> class number

    @property
    def num_classes(self) -> int:
        return len(self.reps)


def conjugacy_classes(table: FiniteGroupTable) -> ClassMap:
    """Orbits of conjugation by the generators, e -> g^-1 e g, computed
    as lookups in the inverse and right-multiplication tables."""
    inverse = table.inverse
    n = table.order
    class_of = [-1] * n
    reps = []
    for start in range(n):
        if class_of[start] != -1:
            continue
        cls = len(reps)
        reps.append(start)
        class_of[start] = cls
        frontier = [start]
        while frontier:
            nxt = []
            for e in frontier:
                for R in table.right:
                    k = inverse[R[inverse[R[e]]]]
                    if class_of[k] == -1:
                        class_of[k] = cls
                        nxt.append(k)
            frontier = nxt
    return ClassMap(table, reps, class_of)


# -- the dualizing-involution criterion -------------------------------


@dataclass
class ClassRow:
    rep: str
    size: int
    iota_class: int
    inverse_class: int
    status: str              # "pass" or "finding"
    conjugator: str | None


@dataclass
class ClassInversionReport:
    family: str
    n: int
    q: int
    order: int
    num_classes: int
    rows: list
    permutations_equal: bool

    @property
    def passed(self) -> bool:
        return self.permutations_equal and all(
            r.status == "pass" for r in self.rows)


def _theta_symmetric_conjugator(table: FiniteGroupTable, pos: int) -> int | None:
    """First h in table order with theta(h) = h, mu(h) = 1 and
    h a h^-1 = theta(a), where a is the element at ``pos``; the last
    condition is tested as h a = theta(a) h with two kernel products."""
    comps, iota, inverse = table.comps, table.iota, table.inverse
    a = comps[pos]
    theta_a = comps[inverse[iota[pos]]]              # theta = iota^-1
    mul = product_kernel(table.space.ring, table.n)
    has_form = table.space.has_form
    for i, h in enumerate(comps):
        if has_form and table.mus[i] != 1:
            continue
        if iota[i] != inverse[i]:                    # theta(h) != h
            continue
        if mul(h, a) == mul(theta_a, h):
            return i
    return None


def verify_class_inversion(table: FiniteGroupTable,
                           classes: ClassMap | None = None) -> ClassInversionReport:
    """Check iota(g) ~ g^-1 on every class, with a conjugator witness.

    A failing class is reported as a finding (with full data), never
    raised: the criterion is the statement under test.
    """
    classes = classes or conjugacy_classes(table)
    rows = []
    sizes = [0] * classes.num_classes
    for c in classes.class_of:
        sizes[c] += 1
    iota_perm = []
    inv_perm = []
    for cls, pos in enumerate(classes.reps):
        ic = classes.class_of[table.iota[pos]]
        vc = classes.class_of[table.inverse[pos]]
        iota_perm.append(ic)
        inv_perm.append(vc)
        conj = _theta_symmetric_conjugator(table, pos)
        status = "pass" if (ic == vc and conj is not None) else "finding"
        rows.append(ClassRow(
            rep=table.elements[pos].mat.to_text(),
            size=sizes[cls],
            iota_class=ic,
            inverse_class=vc,
            status=status,
            conjugator=None if conj is None
            else table.elements[conj].mat.to_text(),
        ))
    return ClassInversionReport(table.family, table.n, table.q, table.order,
                                classes.num_classes, rows,
                                iota_perm == inv_perm)
