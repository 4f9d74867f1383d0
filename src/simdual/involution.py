"""The fixed anti-unitary involution, the maps theta and iota on group and
Lie algebra, the theta-symmetric conjugator search, and factorization of a
similitude into a pair of anti-unitary maps.

Semilinear maps are stored by their matrix H with action v -> H tau(v);
composition is (H1, tau)(H2, tau) = (H1 tau(H2), id).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .matrices import Mat
from .scalars import Ring, Scalar
from .spaces import (GENERAL_LINEAR, GroupElem, LieElem, MembershipError,
                     Space, SpaceError, certify_group,
                     similitude_multiplier)


class AntiUnitaryError(ValueError):
    pass


class ConjugatorNotFound(RuntimeError):
    """Search space exhausted without a witness; carries the search report."""

    def __init__(self, message, tried=0):
        super().__init__(message)
        self.tried = tried


@dataclass(frozen=True)
class AntiUnitaryMap:
    """A semilinear map v -> H tau(v), validated anti-unitary.

    ``square`` is the matrix of the composite h o h, i.e. H tau(H);
    ``beta`` is the similitude factor (1 in involution mode).
    """

    space: Space
    H: Mat
    mode: str
    beta: Scalar

    def apply(self, v: Mat) -> Mat:
        return self.H * v.tau()

    def compose(self, other: "AntiUnitaryMap") -> Mat:
        """Matrix of the (linear) composite self o other."""
        return self.H * other.H.tau()

    @property
    def square(self) -> Mat:
        return self.H * self.H.tau()


def validate_anti_unitary(space: Space, H: Mat, mode: str = "involution") -> AntiUnitaryMap:
    """Check the anti-unitary identities for H; return beta in similitude mode.

    involution mode: H tau(H) = 1 and H^T J tau(H) = eps tau(J).
    similitude mode: H^T J tau(H) = beta * eps * tau(J) for a unit beta in F.
    """
    if not space.has_form:
        raise SpaceError("general-linear family has no anti-unitary structure")
    if mode not in ("involution", "similitude"):
        raise ValueError(f"unknown mode {mode!r}")
    n = space.n
    if H.nrows != n or H.ncols != n:
        raise AntiUnitaryError("H has the wrong size")
    ring = space.ring
    target = space.J.tau() * space.eps
    lhs = H.transpose() * space.J * H.tau()
    if mode == "involution":
        if H * H.tau() != Mat.identity(ring, n):
            raise AntiUnitaryError("not an involution: H tau(H) != 1")
        if lhs != target:
            i, j = _failing_pair(lhs, target)
            raise AntiUnitaryError(
                f"anti-unitary identity fails on basis pair (e{i}, e{j})")
        return AntiUnitaryMap(space, H, mode, ring.one)
    # similitude mode: lhs must be beta * target entrywise for a unit beta in F
    beta = _scalar_ratio(lhs, target)
    if beta is None or not beta.is_unit() or not beta.is_in_base():
        i, j = _failing_pair(lhs, target)
        raise AntiUnitaryError(
            f"anti-unitary similitude identity fails on basis pair (e{i}, e{j})")
    return AntiUnitaryMap(space, H, mode, beta)


def _failing_pair(lhs: Mat, target: Mat):
    for i in range(lhs.nrows):
        for j in range(lhs.ncols):
            if lhs[i, j] != target[i, j]:
                return i, j
    return 0, 0


def _scalar_ratio(lhs: Mat, rhs: Mat) -> Scalar | None:
    """beta with lhs = beta * rhs, if one exists."""
    beta = None
    for i in range(lhs.nrows):
        for j in range(lhs.ncols):
            a, b = lhs[i, j], rhs[i, j]
            if not bool(b):
                if bool(a):
                    return None
                continue
            if not b.is_unit():
                return None
            r = a / b
            if beta is None:
                beta = r
            elif beta != r:
                return None
    return beta


# -- theta and iota ---------------------------------------------------


def theta_group(g: GroupElem) -> GroupElem:
    """theta(g) = mu(g) H tau(g^-1) H^-1; transpose for general-linear."""
    space = g.space
    if not space.has_form:
        return GroupElem(space, g.mat.transpose(), g.mu)
    H = space.H
    mat = (H * g.mat.inv().tau() * space.Hinv) * g.mu
    return GroupElem(space, mat, g.mu)


def iota_group(g: GroupElem) -> GroupElem:
    """iota(g) = theta(g)^-1 = mu(g)^-1 H tau(g) H^-1."""
    return theta_group(g).inv()


def theta_lie(X: LieElem) -> LieElem:
    """theta(X) = alpha(X) * 1 - H tau(X) H^-1; transpose for general-linear."""
    space = X.space
    if not space.has_form:
        return LieElem(space, X.mat.transpose(), X.alpha)
    H = space.H
    mat = Mat.scalar_mat(space.ring, space.n, X.alpha) \
        - H * X.mat.tau() * space.Hinv
    return LieElem(space, mat, X.alpha)


def is_theta_fixed(g: GroupElem) -> bool:
    return theta_group(g).mat == g.mat


# -- enumeration helpers ----------------------------------------------


def enumerate_matrices(ring: Ring, n: int) -> Iterator[Mat]:
    """All n x n matrices over a truncated ring, canonical lexicographic order."""
    scalars = list(ring.residues())

    def rec(entries):
        if len(entries) == n * n:
            rows = [entries[i * n:(i + 1) * n] for i in range(n)]
            yield Mat(ring, rows)
            return
        for s in scalars:
            yield from rec(entries + [s])

    yield from rec([])


def enumerate_group(space: Space, isometry_only: bool = False) -> Iterator[GroupElem]:
    """All certified group members mod p^N, canonical order."""
    for m in enumerate_matrices(space.ring, space.n):
        mu = similitude_multiplier(space, m)
        if mu is None:
            continue
        if isometry_only and mu != space.ring.one:
            continue
        if not space.has_form and not m.is_invertible():
            continue
        yield GroupElem(space, m, mu)


# -- the conjugator search --------------------------------------------


def find_symmetric_conjugator(a: GroupElem,
                              search_space: Iterable) -> GroupElem:
    """First x in canonical order with theta(x) = x and x a x^-1 = theta(a).

    For theta-fixed a the witness is always the identity.  The search space
    is any finite iterable of candidate matrices or group elements; the two
    defining equations are the whole contract (x need not be an isometry).
    Exhaustion raises ConjugatorNotFound (never silent).
    """
    space = a.space
    ta = theta_group(a).mat
    if ta == a.mat:
        return GroupElem(space, space.identity(), space.ring.one)
    tried = 0
    for cand in search_space:
        tried += 1
        if isinstance(cand, GroupElem):
            x = cand
        else:
            try:
                x = certify_group(space, cand)
            except MembershipError:
                continue
        if theta_group(x).mat != x.mat:
            continue
        try:
            xinv = x.mat.inv()
        except Exception:
            continue
        if x.mat * a.mat * xinv == ta:
            return x
    raise ConjugatorNotFound(
        f"no theta-symmetric conjugator for {a.mat.to_text()} "
        f"({tried} candidates tried)", tried)


def factor_anti_unitary(a: GroupElem,
                        search_space: Iterable[Mat]) -> tuple[AntiUnitaryMap, AntiUnitaryMap]:
    """Factor a = h1 h2 with h1 an anti-unitary involution and h2 an
    anti-unitary similitude satisfying h2^2 = mu(a).

    The search runs over candidate matrices for h1 in the given order; h2 is
    then forced (h2 = h1 o a).  The conjugator x = h h1 is checked to satisfy
    theta(x) = x and x a x^-1 = theta(a) before returning.
    """
    space = a.space
    if not space.has_form:
        raise SpaceError("factorization needs a form; use transpose results "
                         "directly in the general-linear family")
    ring = space.ring
    beta = a.mu
    tried = 0
    for H1 in search_space:
        tried += 1
        try:
            h1 = validate_anti_unitary(space, H1, mode="involution")
        except AntiUnitaryError:
            continue
        H2 = H1 * a.mat.tau()
        try:
            h2 = validate_anti_unitary(space, H2, mode="similitude")
        except AntiUnitaryError:
            continue
        if h2.beta != beta:
            continue
        if h2.square != Mat.scalar_mat(ring, space.n, beta):
            continue
        # the factorization a = h1 h2 holds by construction; check the
        # induced corollary witness x = h h1
        x_mat = space.H * H1.tau()
        try:
            x = certify_group(space, x_mat)
        except MembershipError:
            continue
        if x.mu != ring.one:
            continue
        if theta_group(x).mat != x.mat:
            continue
        if x.mat * a.mat * x.mat.inv() != theta_group(a).mat:
            continue
        return h1, h2
    raise ConjugatorNotFound(
        f"no anti-unitary factorization for {a.mat.to_text()} "
        f"({tried} candidates tried)", tried)
