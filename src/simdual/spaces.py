"""Epsilon-hermitian spaces, the star anti-involution, and certified
group / Lie-algebra membership with the similitude multiplier and the
scalar attached to the similitude Lie algebra.

The form convention is <u, v> = u^T J tau(v) (linear in the first slot),
which pins down all matrix formulas: star(a) = tau(J^-1 a^T J), group
membership g star(g) = mu * 1, Lie membership X + star(X) = alpha * 1.

``star`` runs ``cayley.star_kernel``, the sparse rows of star on
integer components, probed once per space from the definition in
``Mat`` products and kept in ``Space.memo``; it holds for any J,
monomial or not.  theta of ``involution`` runs the same way.  A space
has one truncated copy per precision (``Space.truncated``), so these
kernels are derived once per precision.

Both memberships are decided on integers by certificates of ``cayley``,
run on the numerators a ``Mat`` stores over its denominator, residues
over 1 mod p^N, with no branch on the ring: mu by
``multiplier_predicate``, alpha by ``lie_alpha_kernel`` on the rows of
``lie_system``, the one linearization of X -> X + X*.

The "general-linear" family carries no form; its anti-involution is the
transpose, membership is just invertibility (mu = 1) resp. anything
(alpha = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .matrices import Mat
from .scalars import INERT, SPLIT, Ring, Scalar

ORTHOGONAL = "orthogonal"
SYMPLECTIC = "symplectic"
HERMITIAN = "hermitian"
SKEW_HERMITIAN = "skew-hermitian"
GENERAL_LINEAR = "general-linear"

FAMILIES = (ORTHOGONAL, SYMPLECTIC, HERMITIAN, SKEW_HERMITIAN, GENERAL_LINEAR)


class SpaceError(ValueError):
    pass


class MembershipError(ValueError):
    pass


@dataclass(frozen=True)
class Space:
    """An epsilon-hermitian space with its fixed anti-unitary involution H.

    For the general-linear family eps, J and H are None.  ``Jinv`` and
    ``Hinv`` are computed on first use and kept; ``memo`` holds other data
    derived from the fixed structure, keyed by the module that derives it.
    """

    family: str
    n: int
    ring: Ring
    eps: int | None
    J: Mat | None
    H: Mat | None
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    @property
    def has_form(self) -> bool:
        return self.family != GENERAL_LINEAR

    @cached_property
    def Jinv(self) -> Mat:
        return self.J.inv()

    @cached_property
    def Hinv(self) -> Mat:
        return self.H.inv()

    def truncated(self, N: int) -> "Space":
        """The space mod p^N, one object per precision (as
        ``Ring.truncated``), so its kernels are derived once."""
        variants = self.memo.setdefault("truncated", {self.ring.prec: self})
        if N not in variants:
            J, H = (None if m is None else m.reduce(N) for m in (self.J, self.H))
            space = Space(self.family, self.n, self.ring.truncated(N),
                          self.eps, J, H)
            space.memo["truncated"] = variants
            variants[N] = space
        return variants[N]

    def identity(self) -> Mat:
        """The identity matrix, built once per space."""
        return self._identity

    @cached_property
    def _identity(self) -> Mat:
        return Mat.identity(self.ring, self.n)


def standard_space(family: str, n: int, ring: Ring) -> Space:
    """The shipped standard model of each family (one canonical (J, H) pair)."""
    if family == ORTHOGONAL:
        if ring.ext != SPLIT:
            raise SpaceError("orthogonal spaces live over the base field")
        J = Mat.identity(ring, n)
        return Space(family, n, ring, +1, J, Mat.identity(ring, n))
    if family == SYMPLECTIC:
        if ring.ext != SPLIT:
            raise SpaceError("symplectic spaces live over the base field")
        if n % 2 != 0:
            raise SpaceError("symplectic dimension must be even")
        m = n // 2
        rows = [[0] * n for _ in range(n)]
        for i in range(m):
            rows[i][m + i] = 1
            rows[m + i][i] = -1
        J = Mat(ring, rows)
        hrows = [[0] * n for _ in range(n)]
        for i in range(m):
            hrows[i][i] = 1
            hrows[m + i][m + i] = -1
        return Space(family, n, ring, -1, J, Mat(ring, hrows))
    if family == HERMITIAN:
        if ring.ext != INERT:
            raise SpaceError("hermitian spaces need the quadratic extension")
        J = Mat.identity(ring, n)
        return Space(family, n, ring, +1, J, Mat.identity(ring, n))
    if family == SKEW_HERMITIAN:
        if ring.ext != INERT:
            raise SpaceError("skew-hermitian spaces need the quadratic extension")
        J = Mat.scalar_mat(ring, n, ring.gen)
        return Space(family, n, ring, -1, J, Mat.identity(ring, n))
    if family == GENERAL_LINEAR:
        return Space(family, n, ring, None, None, None)
    raise SpaceError(f"unknown family {family!r}")


def validate_space(J: Mat, eps: int, ring: Ring, family: str | None = None,
                   H: Mat | None = None) -> Space:
    """Accept (J, eps) iff J is invertible and J = eps * tau(J)^T."""
    if not J.is_square():
        raise SpaceError("J must be square")
    if eps not in (+1, -1):
        raise SpaceError("eps must be +1 or -1")
    if not J.is_invertible():
        raise SpaceError("J is singular")
    if J != J.transpose().tau() * eps:
        raise SpaceError("J does not satisfy J = eps * tau(J)^T")
    if family is None:
        if ring.ext == SPLIT:
            family = ORTHOGONAL if eps == +1 else SYMPLECTIC
        else:
            family = HERMITIAN if eps == +1 else SKEW_HERMITIAN
    space = Space(family, J.nrows, ring, eps, J, H)
    if H is not None:
        from .involution import validate_anti_unitary
        validate_anti_unitary(space, H)
    return space


def star(space: Space, a: Mat) -> Mat:
    """The adjoint anti-involution a* = tau(J^-1 a^T J):
    ``cayley.star_kernel`` on the numerators of a, over its denominator."""
    if not space.has_form:
        raise SpaceError("general-linear family has no star; theta is transpose")
    from .cayley import star_kernel
    return Mat.from_components(space.ring, space.n,
                               star_kernel(space)(a.nums), a.den)


def similitude_multiplier(space: Space, g: Mat) -> Scalar | None:
    """The scalar mu with g star(g) = mu * 1, or None if g is not a member.

    mu must be a unit lying in the base field; in the general-linear family
    every invertible g is a member with mu = 1.  The certificate is
    ``cayley.multiplier_predicate`` on the stored numerators of g over
    its denominator den (1 mod p^N): mu den^2 divided by den^2.  Only
    the general-linear family over the exact field or the inert ring,
    which has no integer predicate, asks ``Mat.is_invertible`` instead,
    the determinant lines of the same adjugate code that ``Mat.inv``
    runs.
    """
    from .cayley import multiplier_predicate
    ring = space.ring
    if not space.has_form and (ring.exact or ring.ext == INERT):
        return ring.one if g.is_invertible() else None
    mu = multiplier_predicate(space)(g.nums)
    return None if mu is None else ring.ratio(
        mu.numerator, 0, mu.denominator * g.den * g.den)


def lie_alpha(space: Space, X: Mat) -> Scalar | None:
    """The scalar alpha with X + star(X) = alpha * 1, or None.

    alpha = 0 certifies membership in the isometry Lie algebra.  In the
    general-linear family every X is a member with alpha = 0.  The
    certificate is ``cayley.lie_alpha_kernel`` on the stored numerators
    of X over its denominator den (1 mod p^N), as for the multiplier:
    alpha den divided by den.
    """
    from .cayley import lie_alpha_kernel
    ring = space.ring
    if not space.has_form:
        return ring.zero
    try:
        alpha = lie_alpha_kernel(space)(X.nums)
    except MembershipError:
        return None
    return ring.ratio(alpha.numerator, 0, alpha.denominator * X.den)


@dataclass(frozen=True)
class GroupElem:
    """A matrix with certified similitude-group membership and cached mu."""

    space: Space
    mat: Mat
    mu: Scalar

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(self.space, self.mat * other.mat, self.mu * other.mu)

    def inv(self) -> "GroupElem":
        return GroupElem(self.space, self.mat.inv(), self.mu.inv())


@dataclass(frozen=True)
class LieElem:
    """A matrix with certified Lie-algebra membership and cached alpha."""

    space: Space
    mat: Mat
    alpha: Scalar


def certify_group(space: Space, g: Mat) -> GroupElem:
    mu = similitude_multiplier(space, g)
    if mu is None:
        raise MembershipError(f"not a similitude: {g.to_text()}")
    return GroupElem(space, g, mu)


def certify_lie(space: Space, X: Mat) -> LieElem:
    alpha = lie_alpha(space, X)
    if alpha is None:
        raise MembershipError(f"not in the similitude Lie algebra: {X.to_text()}")
    return LieElem(space, X, alpha)
