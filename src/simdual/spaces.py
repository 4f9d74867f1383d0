"""Epsilon-hermitian spaces, the star anti-involution, and certified
group / Lie-algebra membership with the similitude multiplier and the
scalar attached to the similitude Lie algebra.

The form convention is <u, v> = u^T J tau(v) (linear in the first slot),
which pins down all matrix formulas: star(a) = tau(J^-1 a^T J), group
membership g star(g) = mu * 1, Lie membership X + star(X) = alpha * 1.

The "general-linear" family carries no form; its anti-involution is the
transpose, membership is just invertibility (mu = 1) resp. anything
(alpha = 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .matrices import Mat, NotInvertibleError
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
        ring = self.ring.truncated(N)
        J = self.J.reduce(N) if self.J is not None else None
        H = self.H.reduce(N) if self.H is not None else None
        return Space(self.family, self.n, ring, self.eps, J, H)

    def identity(self) -> Mat:
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
        validate_anti_unitary(space, H, mode="involution")
    return space


def inner(space: Space, u: Mat, v: Mat) -> Scalar:
    """<u, v> = u^T J tau(v) for column vectors u, v."""
    if not space.has_form:
        raise SpaceError("general-linear family carries no form")
    if u.nrows != space.n or v.nrows != space.n or u.ncols != 1 or v.ncols != 1:
        raise SpaceError("vectors must be n x 1 columns")
    return (u.transpose() * space.J * v.tau())[0, 0]


def star(space: Space, a: Mat) -> Mat:
    """The adjoint anti-involution a* = tau(J^-1 a^T J)."""
    if not space.has_form:
        raise SpaceError("general-linear family has no star; theta is transpose")
    return (space.Jinv * a.transpose() * space.J).tau()


def similitude_multiplier(space: Space, g: Mat) -> Scalar | None:
    """The scalar mu with g star(g) = mu * 1, or None if g is not a member.

    mu must be a unit lying in the base field; in the general-linear family
    every invertible g is a member with mu = 1.
    """
    if not space.has_form:
        return space.ring.one if g.is_invertible() else None
    mu = (g * star(space, g)).scalar_part()
    if mu is None or not mu.is_in_base():
        return None
    invertible = bool(mu) if space.ring.exact else mu.is_unit()
    if not invertible:
        return None
    return mu


def lie_alpha(space: Space, X: Mat) -> Scalar | None:
    """The scalar alpha with X + star(X) = alpha * 1, or None.

    alpha = 0 certifies membership in the isometry Lie algebra.  In the
    general-linear family every X is a member with alpha = 0.
    """
    if not space.has_form:
        return space.ring.zero
    alpha = (X + star(space, X)).scalar_part()
    if alpha is None or not alpha.is_in_base():
        return None
    return alpha


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

    @property
    def is_isometry(self) -> bool:
        return self.mu == self.space.ring.one


@dataclass(frozen=True)
class LieElem:
    """A matrix with certified Lie-algebra membership and cached alpha."""

    space: Space
    mat: Mat
    alpha: Scalar

    @property
    def is_isometry_lie(self) -> bool:
        return self.alpha == self.space.ring.zero


def certify_group(space: Space, g: Mat) -> GroupElem:
    mu = similitude_multiplier(space, g)
    if mu is None:
        raise MembershipError(f"not a similitude: {g.to_text()}")
    try:
        g.inv()
    except NotInvertibleError:
        raise MembershipError(f"not invertible: {g.to_text()}")
    return GroupElem(space, g, mu)


def certify_lie(space: Space, X: Mat) -> LieElem:
    alpha = lie_alpha(space, X)
    if alpha is None:
        raise MembershipError(f"not in the similitude Lie algebra: {X.to_text()}")
    return LieElem(space, X, alpha)
