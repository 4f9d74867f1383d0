"""The classical and similitude Cayley maps, their domain, the multiplier
identity, and the complete image/fiber analysis.

The map is c(X) = (1 - X/(1+alpha)) (1+X)^-1 with alpha = alpha(X); its
multiplier is (1+alpha)^-2.  The working domain everywhere is the smaller
set cut out by the three conditions (1+alpha, det(1+X), det(1+alpha-X) all
regular), which is stable under theta and Ad; the fiber analysis runs over
the larger two-condition set and flags preimages that fall outside the
smaller one.  Over truncated rings "nonzero" uniformly means "unit", and
fibers are computed as exact affine solves so that they agree with
exhaustive bucketing residue-for-residue.

In the general-linear family c(X) = 1 + X, every multiplier is 1, and the
fiber of g is the single point g - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import modsolve
from .matrices import Mat
from .scalars import INERT, Scalar, rational_sqrt, sqrt_mod_prime_power
from .spaces import (GroupElem, LieElem, Space, SpaceError, certify_lie, star)

UNIQUE_LAMBDA = "unique-lambda"
TWO_PREIMAGES = "two-preimages"
UNIQUE_MU1 = "unique-mu1"
INFINITE_IDENTITY = "infinite-identity"
EMPTY = "empty"


class DomainError(ValueError):
    pass


def _is_regular(s: Scalar) -> bool:
    """Nonzero in exact mode, unit in truncated mode."""
    if s.ring.exact:
        return bool(s)
    return s.is_unit()


def _mat_regular(m: Mat) -> bool:
    if m.ring.exact:
        return bool(m.det())
    return m.is_invertible()


def in_cayley_domain(X: LieElem) -> bool:
    """The two-condition domain of the similitude Cayley map."""
    space = X.space
    one = space.identity()
    if not space.has_form:
        return _mat_regular(one + X.mat)
    return (_is_regular(space.ring.one + X.alpha)
            and _mat_regular(one + X.mat))


def in_domain(X: LieElem) -> bool:
    """The three-condition working domain (theta- and Ad-stable)."""
    space = X.space
    one = space.identity()
    if not space.has_form:
        return _mat_regular(one + X.mat)
    a1 = space.ring.one + X.alpha
    return (_is_regular(a1)
            and _mat_regular(one + X.mat)
            and _mat_regular(Mat.scalar_mat(space.ring, space.n, a1) - X.mat))


def cayley(X: LieElem) -> GroupElem:
    """c(X), certified with multiplier (1 + alpha)^-2."""
    space = X.space
    one = space.identity()
    if not space.has_form:
        g = one + X.mat
        if not _mat_regular(g):
            raise DomainError("1 + X is singular")
        return GroupElem(space, g, space.ring.one)
    if not in_cayley_domain(X):
        raise DomainError("X is outside the Cayley domain")
    lam = (space.ring.one + X.alpha).inv()
    g = (one - X.mat * lam) * (one + X.mat).inv()
    return GroupElem(space, g, lam * lam)


def x_lambda(g: GroupElem, lam: Scalar) -> LieElem:
    """X_lambda = (1 - g)(lambda + g)^-1, the branch-lambda preimage of g."""
    space = g.space
    if not space.has_form:
        raise SpaceError("x_lambda is specific to the form families; in the "
                         "general-linear family the preimage is g - 1")
    if lam * lam != g.mu:
        raise DomainError("lambda^2 != mu(g)")
    one = space.identity()
    shifted = Mat.scalar_mat(space.ring, space.n, lam) + g.mat
    if not _mat_regular(shifted):
        raise DomainError("lambda + g is singular")
    X = (one - g.mat) * shifted.inv()
    lie = certify_lie(space, X)
    # alpha(X_lambda) = lambda^-1 - 1
    assert lie.alpha == lam.inv() - space.ring.one
    return lie


@dataclass(frozen=True)
class FiberPreimage:
    X: LieElem
    lam: Scalar
    in_g1: bool


@dataclass
class FiberResult:
    """Case analysis of the fiber of the similitude Cayley map over g."""

    tag: str
    preimages: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)

    def domain_preimages(self):
        """Preimages lying in the three-condition working domain."""
        return [p for p in self.preimages if p.in_g1]

    def identity_fiber_contains(self, X: LieElem) -> bool:
        """Membership test for the (infinite, over the exact field) fiber of 1."""
        if self.tag != INFINITE_IDENTITY:
            raise ValueError("only meaningful for the fiber of the identity")
        ring = X.space.ring
        if not bool(X.mat):
            return True
        return X.alpha == ring.scalar(-2) and in_cayley_domain(X)


def _preimage(g: GroupElem, lam: Scalar) -> FiberPreimage:
    X = x_lambda(g, lam)
    return FiberPreimage(X, lam, in_domain(X))


def fiber(g: GroupElem) -> FiberResult:
    """Image membership and full preimage list for g under the Cayley map.

    Over the exact field this follows the proved case analysis; over a
    truncated ring the preimages are computed by exact affine solves (the
    case pattern can blur at finite precision, e.g. near the identity)."""
    space = g.space
    ring = space.ring
    if not space.has_form:
        X = certify_lie(space, g.mat - space.identity())
        return FiberResult(UNIQUE_MU1, [FiberPreimage(X, ring.one, True)],
                           [ring.one])
    if ring.exact:
        return _fiber_exact(g)
    return _fiber_trunc(g)


def _fiber_exact(g: GroupElem) -> FiberResult:
    space = g.space
    ring = space.ring
    one = space.identity()
    mu = g.mu
    lam_a = rational_sqrt(mu.a)
    if lam_a is None:
        return FiberResult(EMPTY)
    lam = ring.scalar(lam_a)
    if mu == ring.one:
        if g.mat == one:
            zero = certify_lie(space, Mat.zeros(ring, space.n))
            return FiberResult(INFINITE_IDENTITY,
                               [FiberPreimage(zero, ring.one, True)],
                               [ring.one])
        if _mat_regular(one + g.mat):
            return FiberResult(UNIQUE_MU1, [_preimage(g, ring.one)], [ring.one])
        return FiberResult(EMPTY)
    plus_ok = _mat_regular(Mat.scalar_mat(ring, space.n, lam) + g.mat)
    minus_ok = _mat_regular(Mat.scalar_mat(ring, space.n, -lam) + g.mat)
    if plus_ok and minus_ok:
        return FiberResult(TWO_PREIMAGES,
                           [_preimage(g, lam), _preimage(g, -lam)],
                           [lam, -lam])
    if plus_ok:
        return FiberResult(UNIQUE_LAMBDA, [_preimage(g, lam)], [lam])
    if minus_ok:
        return FiberResult(UNIQUE_LAMBDA, [_preimage(g, -lam)], [-lam])
    return FiberResult(EMPTY)


# -- truncated-mode machinery -----------------------------------------


def components_per_scalar(space: Space) -> int:
    return 2 if space.ring.ext == INERT else 1


def mat_components(space: Space, m: Mat) -> list[int]:
    d = components_per_scalar(space)
    out = []
    for row in m.rows:
        for x in row:
            out.append(x.a)
            if d == 2:
                out.append(x.b)
    return out


def mat_numerators(space: Space, m: Mat) -> tuple[list[int], int]:
    """The components of m, in the layout of ``mat_components``, as integer
    numerators over one common denominator: (numerators, denominator)."""
    d = components_per_scalar(space)
    entries = [x for row in m.rows for x in row]
    den = math.lcm(*(x.d for x in entries))
    out = []
    for x in entries:
        f = den // x.d
        out.append(x.x * f)
        if d == 2:
            out.append(x.y * f)
    return out, den


def mat_from_components(space: Space, comps, den: int = 1) -> Mat:
    """The matrix with components ``comps`` (the layout of
    ``mat_components``), each divided by the integer ``den``."""
    d = components_per_scalar(space)
    n = space.n
    ring = space.ring
    rows = []
    it = iter(comps)
    for _ in range(n):
        row = []
        for _ in range(n):
            a = next(it)
            b = next(it) if d == 2 else 0
            row.append(ring.scalar(a, b) if den == 1 else ring.ratio(a, b, den))
        rows.append(tuple(row))
    return Mat._make(ring, tuple(rows))


def multiplier_predicate(space: Space):
    """``mu_of(comps)`` for a truncated space: the residue mu when the
    matrix g with components ``comps`` (the layout of ``mat_components``)
    satisfies g star(g) = mu * 1 with mu a unit of the base ring, else
    None.  It agrees with ``similitude_multiplier`` but runs in integer
    arithmetic mod p^N: star is F-linear on components, so its matrix is
    found once per space by probing unit vectors.  In the general-linear
    family mu = 1 exactly for the invertible g.
    """
    if space.ring.exact:
        raise ValueError("the multiplier predicate works mod p^N")
    if "multiplier_predicate" in space.memo:
        return space.memo["multiplier_predicate"]
    ring = space.ring
    n, p, M = space.n, ring.p, ring.modulus

    if not space.has_form:
        def mu_of(x):
            invertible = mat_from_components(space, x).is_invertible()
            return 1 if invertible else None
        space.memo["multiplier_predicate"] = mu_of
        return mu_of

    D = n * n * components_per_scalar(space)
    star_rows = [[] for _ in range(D)]      # sparse rows of star's matrix
    for j in range(D):
        probe = [0] * D
        probe[j] = 1
        img = mat_components(space, star(space,
                                         mat_from_components(space, probe)))
        for i, c in enumerate(img):
            if c:
                star_rows[i].append((j, c))
    cells = [(i, j) for i in range(n) for j in range(n)]

    if ring.ext == INERT:
        u = ring.u

        def mu_of(x):
            y = [sum(c * x[j] for j, c in row) % M for row in star_rows]
            mu = None
            for i, j in cells:
                ta = tb = 0
                for k in range(n):
                    ia, ja = 2 * (i * n + k), 2 * (k * n + j)
                    ta += x[ia] * y[ja] + u * x[ia + 1] * y[ja + 1]
                    tb += x[ia] * y[ja + 1] + x[ia + 1] * y[ja]
                ta, tb = ta % M, tb % M
                if i != j:
                    if ta or tb:
                        return None
                elif tb or (mu is not None and ta != mu):
                    return None
                else:
                    mu = ta
            return mu if mu % p else None
    else:
        def mu_of(x):
            y = [sum(c * x[j] for j, c in row) % M for row in star_rows]
            mu = None
            for i, j in cells:
                t = sum(x[i * n + k] * y[k * n + j] for k in range(n)) % M
                if i != j:
                    if t:
                        return None
                elif mu is not None and t != mu:
                    return None
                else:
                    mu = t
            return mu if mu % p else None
    space.memo["multiplier_predicate"] = mu_of
    return mu_of


def _solve_branch(g: GroupElem, lam: Scalar, limit):
    """All X mod p^N with (lam + g) X = 1 - g and X + X* = (lam^-1 - 1) 1."""
    space = g.space
    ring = space.ring
    one = space.identity()
    lam_mat = Mat.scalar_mat(ring, space.n, lam)
    alpha_target = Mat.scalar_mat(ring, space.n, lam.inv() - ring.one)

    def f(X):
        r1 = (lam_mat + g.mat) * X - (one - g.mat)
        r2 = X + star(space, X) - alpha_target
        return r1, r2

    A, b = _affine_system_stacked(space, f)
    return modsolve.solve_affine_mod(A, b, ring.p, ring.prec, limit)


def _affine_system_stacked(space: Space, f):
    D = space.n * space.n * components_per_scalar(space)
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


def _fiber_trunc(g: GroupElem, limit=10**5) -> FiberResult:
    space = g.space
    ring = space.ring
    mu = g.mu
    root = sqrt_mod_prime_power(mu.a, ring.p, ring.prec)
    if root is None:
        return FiberResult(EMPTY)
    lam0 = ring.scalar(root)
    branches = [lam0, -lam0]
    preimages = []
    lambdas = []
    seen = set()
    for lam in branches:
        for comps in _solve_branch(g, lam, limit):
            X = mat_from_components(space, comps)
            if not _mat_regular(space.identity() + X):
                continue
            key = X.key()
            if key in seen:
                continue
            seen.add(key)
            lie = certify_lie(space, X)
            preimages.append(FiberPreimage(lie, lam, in_domain(lie)))
            if lam not in lambdas:
                lambdas.append(lam)
    preimages.sort(key=lambda pre: pre.X.mat.key())
    if not preimages:
        return FiberResult(EMPTY)
    if g.mat == space.identity():
        tag = INFINITE_IDENTITY
    elif mu == ring.one:
        tag = UNIQUE_MU1
    elif len(preimages) == 2:
        tag = TWO_PREIMAGES
    else:
        tag = UNIQUE_LAMBDA
    return FiberResult(tag, preimages, lambdas)


def enumerate_lie(space: Space, limit=10**6):
    """All Lie-algebra members of a truncated space, canonical order."""
    ring = space.ring
    if ring.exact:
        raise ValueError("cannot enumerate an exact Lie algebra")
    if not space.has_form:
        D = space.n * space.n * components_per_scalar(space)
        M = ring.modulus
        if M**D > limit:
            raise modsolve.SolveBudgetError(
                f"Lie enumeration of {M**D} elements exceeds limit {limit}")
        out = []

        def rec(comps):
            if len(comps) == D:
                out.append(certify_lie(space, mat_from_components(space, comps)))
                return
            for v in range(M):
                rec(comps + [v])
        rec([])
        return out
    # unknowns: matrix components plus the scalar alpha
    D = space.n * space.n * components_per_scalar(space)

    def f(X_and_alpha):
        X, alpha = X_and_alpha
        return X + star(space, X) - Mat.scalar_mat(ring, space.n, alpha)

    zero = Mat.zeros(ring, space.n)
    const = mat_components(space, f((zero, ring.zero)))
    cols = []
    for idx in range(D + 1):
        if idx < D:
            cvec = [0] * D
            cvec[idx] = 1
            probe = (mat_from_components(space, cvec), ring.zero)
        else:
            probe = (zero, ring.one)
        img = mat_components(space, f(probe))
        cols.append([x - c for x, c in zip(img, const)])
    A = [[cols[j][i] for j in range(D + 1)] for i in range(len(const))]
    sols = modsolve.kernel_mod(A, ring.p, ring.prec, limit)
    out = []
    for comps in sols:
        X = mat_from_components(space, comps[:D])
        out.append(certify_lie(space, X))
    out.sort(key=lambda lie: lie.mat.key())
    return out


def bucket_domain_images(space: Space, limit=10**6):
    """Exhaustive oracle: bucket c over all working-domain X of a truncated
    space, keyed by the image residue.  Ground truth for fiber()."""
    buckets = {}
    for lie in enumerate_lie(space, limit):
        if not in_domain(lie):
            continue
        img = cayley(lie)
        buckets.setdefault(img.mat.key(), []).append(lie.mat.key())
    for key in buckets:
        buckets[key].sort()
    return buckets
