"""The fixed anti-unitary involution h, the maps theta and iota on group
and Lie algebra, and the enumeration of matrices over a truncated ring.
The theta-symmetric conjugator search is
``decomposition.find_conjugator_mod``.

The semilinear map h is stored by its matrix H with action v -> H tau(v),
so h o h has the matrix H tau(H).  One linear map on matrices,
``theta_mat``(g) = H J^-1 g^T J H^-1, with no inverse, is theta on
members and theta on the Lie algebra (its differential, ``theta_lie``);
it runs ``cayley.theta_kernel``, probed once per space from that
definition.  iota(g) = theta(g)^-1 = mu(g)^-1 H tau(g) H^-1 is its own
formula in ``iota_group``, so that it can check the theta kernel.
"""

from __future__ import annotations

from typing import Iterator

from .cayley import theta_kernel
from .matrices import Mat, components_per_scalar
from .modsolve import residues
from .scalars import Ring
from .spaces import GroupElem, LieElem, Space, SpaceError


class AntiUnitaryError(ValueError):
    pass


class ConjugatorNotFound(RuntimeError):
    """Search space exhausted without a witness; carries the search report."""

    def __init__(self, message, tried=0):
        super().__init__(message)
        self.tried = tried


def validate_anti_unitary(space: Space, H: Mat) -> None:
    """Check that v -> H tau(v) is an anti-unitary involution:
    H tau(H) = 1 and H^T J tau(H) = eps tau(J)."""
    if not space.has_form:
        raise SpaceError("general-linear family has no anti-unitary structure")
    n = space.n
    if H.nrows != n or H.ncols != n:
        raise AntiUnitaryError("H has the wrong size")
    if H * H.tau() != Mat.identity(space.ring, n):
        raise AntiUnitaryError("not an involution: H tau(H) != 1")
    target = space.J.tau() * space.eps
    lhs = H.transpose() * space.J * H.tau()
    if lhs != target:
        i, j = _failing_pair(lhs, target)
        raise AntiUnitaryError(
            f"anti-unitary identity fails on basis pair (e{i}, e{j})")


def _failing_pair(lhs: Mat, target: Mat):
    for i in range(lhs.nrows):
        for j in range(lhs.ncols):
            if lhs[i, j] != target[i, j]:
                return i, j
    return 0, 0


# -- theta and iota ---------------------------------------------------


def theta_mat(space: Space, g: Mat) -> Mat:
    """theta on members as a map on matrices, g -> H J^-1 g^T J H^-1, which
    is mu(g) H tau(g^-1) H^-1 for a member g (g star(g) = mu 1), with no
    inverse; it is linear in g, and the transpose for general-linear.
    ``cayley.theta_kernel`` on the numerators of g, over its denominator."""
    if not space.has_form:
        return g.transpose()
    return Mat.from_components(space.ring, space.n,
                               theta_kernel(space)(g.nums), g.den)


def theta_group(g: GroupElem) -> GroupElem:
    """theta(g) = mu(g) H tau(g^-1) H^-1 (``theta_mat``)."""
    return GroupElem(g.space, theta_mat(g.space, g.mat), g.mu)


def iota_group(g: GroupElem) -> GroupElem:
    """iota(g) = theta(g)^-1 = mu(g)^-1 H tau(g) H^-1, the transpose of
    g^-1 for general-linear: a formula of its own, not ``theta_mat``, so
    that ``finite`` can check the theta kernel against it."""
    space, mu = g.space, g.mu.inv()
    if not space.has_form:
        return GroupElem(space, g.mat.inv().transpose(), mu)
    return GroupElem(space, space.H * g.mat.tau() * space.Hinv * mu, mu)


def theta_lie(X: LieElem) -> LieElem:
    """theta(X) = ``theta_mat``(X), the differential of theta on G: it is
    alpha(X) * 1 - H tau(X) H^-1, since X + X* = alpha 1 gives
    J^-1 X^T J = alpha - tau(X); the transpose for general-linear."""
    return LieElem(X.space, theta_mat(X.space, X.mat), X.alpha)


def is_theta_fixed(g: GroupElem) -> bool:
    return theta_group(g).mat == g.mat


# -- enumeration helpers ----------------------------------------------


def enumerate_matrices(ring: Ring, n: int, limit: int) -> Iterator[tuple]:
    """All n x n matrices over a truncated ring, as component tuples in
    the layout of ``Mat.components``, in canonical order (that of
    ``Mat.key()``); SolveBudgetError before the first one when there are
    more than ``limit``."""
    d = components_per_scalar(ring)
    yield from residues(n * n * d, ring.modulus, limit)
