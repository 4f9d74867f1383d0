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

import itertools
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


def linear_system(D: int, f) -> tuple[list, list]:
    """(A, b) with f(v) = A v - b for the affine map ``f`` on length-D
    component lists, found by probing the zero vector and the D unit
    vectors."""
    const = f([0] * D)
    cols = []
    for j in range(D):
        e = [0] * D
        e[j] = 1
        cols.append([x - c for x, c in zip(f(e), const)])
    return [list(row) for row in zip(*cols)], [-c for c in const]


def matrix_system(space: Space, f) -> tuple[list, list]:
    """``linear_system`` of a map ``f`` from n x n matrices to a tuple of
    n x n matrices, on components (the layout of ``mat_components``,
    one block per matrix of the tuple, stacked)."""
    def on_components(v):
        out = []
        for m in f(mat_from_components(space, v)):
            out += mat_components(space, m)
        return out
    return linear_system(space.n * space.n * components_per_scalar(space),
                         on_components)


def _sparse_rows(space: Space, f) -> list:
    """The F-linear map ``f`` on matrices as sparse rows on components:
    row i lists the pairs (j, c) with component i of f(e_j) equal to c."""
    A, _ = matrix_system(space, lambda m: (f(m),))
    return [[(j, c) for j, c in enumerate(row) if c] for row in A]


def _star_rows(space: Space) -> list:
    """Sparse rows of star, probed once per space."""
    if "star_rows" not in space.memo:
        space.memo["star_rows"] = _sparse_rows(space,
                                               lambda m: star(space, m))
    return space.memo["star_rows"]


def lie_system(space: Space, alpha: bool = True) -> list:
    """The matrix of (X, alpha) -> X + X* - alpha 1 on the components of
    X followed by alpha: the similitude Lie algebra is its kernel.  With
    ``alpha`` False the unknowns are the components of X alone and the
    kernel is the isometry Lie algebra."""
    ring = space.ring
    D = space.n * space.n * components_per_scalar(space)

    def residual(v):
        X = mat_from_components(space, v[:D])
        a = ring.scalar(v[D]) if alpha else ring.zero
        return mat_components(
            space, X + star(space, X) - Mat.scalar_mat(ring, space.n, a))
    A, _ = linear_system(D + 1 if alpha else D, residual)
    return A


def _gl_inverse(x, n: int, p: int, M: int):
    """Gauss-Jordan inverse mod M = p^N of the split n x n matrix with
    row-major components x, pivoting on units; None when it is singular."""
    aug = [list(x[i * n:(i + 1) * n]) + [int(i == j) for j in range(n)]
           for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            return None
        aug[col], aug[piv] = aug[piv], aug[col]
        f = pow(aug[col][col], -1, M)
        top = aug[col] = [v * f % M for v in aug[col]]
        for r in range(n):
            c = aug[r][col]
            if r != col and c:
                aug[r] = [(v - c * w) % M for v, w in zip(aug[r], top)]
    return tuple(v for row in aug for v in row[n:])


def _det(x, n: int) -> int:
    """Integer determinant of the n x n matrix with row-major entries x,
    by cofactor expansion along the first row."""
    if n == 1:
        return x[0]
    if n == 2:
        return x[0] * x[3] - x[1] * x[2]
    total = 0
    for j in range(n):
        if x[j]:
            minor = [x[r * n + c] for r in range(1, n) for c in range(n)
                     if c != j]
            total += (-1) ** j * x[j] * _det(minor, n - 1)
    return total


def _check_split_gl(space: Space):
    if space.ring.ext == INERT:
        raise SpaceError("the general-linear kernels work over the split ring")


def multiplier_predicate(space: Space):
    """``mu_of(comps)`` for a truncated space: the residue mu when the
    matrix g with components ``comps`` (the layout of ``mat_components``)
    satisfies g star(g) = mu * 1 with mu a unit of the base ring, else
    None.  It agrees with ``similitude_multiplier`` but runs in integer
    arithmetic mod p^N: star is F-linear on components, so its matrix is
    found once per space by probing unit vectors.  In the general-linear
    family mu = 1 exactly for the g whose integer determinant is a unit.
    """
    if space.ring.exact:
        raise ValueError("the multiplier predicate works mod p^N")
    if "multiplier_predicate" in space.memo:
        return space.memo["multiplier_predicate"]
    ring = space.ring
    n, p, M = space.n, ring.p, ring.modulus

    if not space.has_form:
        _check_split_gl(space)

        def mu_of(x):
            return 1 if _det(x, n) % p else None
        space.memo["multiplier_predicate"] = mu_of
        return mu_of

    star_rows = _star_rows(space)
    mul = product_kernel(space)
    # g star(g) = mu * 1: its n diagonal a-components, every
    # (n + 1) entries apart, equal mu and its other components are zero
    step = components_per_scalar(space) * (n + 1)
    zeros = len(star_rows) - n

    def mu_of(x):
        z = mul(x, [sum(c * x[j] for j, c in row) % M for row in star_rows])
        mu = z[0]
        if mu % p and z.count(0) == zeros and z[::step].count(mu) == n:
            return mu
        return None
    space.memo["multiplier_predicate"] = mu_of
    return mu_of


def product_kernel(space: Space):
    """``mul(x, y)``: the components of g h mod p^N, where g and h have
    components x and y (the layout of ``mat_components``), for split and
    inert rings.  The product is generated once per space as one
    straight-line expression over the unpacked components, which runs
    several times faster than a loop over index lists.
    """
    if space.ring.exact:
        raise ValueError("the product kernel works mod p^N")
    if "product_kernel" in space.memo:
        return space.memo["product_kernel"]
    ring = space.ring
    n, M = space.n, ring.modulus
    if ring.ext == INERT:
        def entry(v, i, j):              # (a, b) names of entry (i, j)
            k = 2 * (i * n + j)
            return f"{v}{k}", f"{v}{k + 1}"
        terms = []
        for i in range(n):
            for j in range(n):
                pairs = [(entry("x", i, k), entry("y", k, j))
                         for k in range(n)]
                a = " + ".join(f"{xa}*{ya}" for (xa, _), (ya, _) in pairs)
                u = " + ".join(f"{xb}*{yb}" for (_, xb), (_, yb) in pairs)
                b = " + ".join(f"{xa}*{yb} + {xb}*{ya}"
                               for (xa, xb), (ya, yb) in pairs)
                terms += [f"({a} + {ring.u}*({u})) % {M}", f"({b}) % {M}"]
        D = 2 * n * n
    else:
        terms = [" + ".join(f"x{i * n + k}*y{k * n + j}" for k in range(n))
                 for i in range(n) for j in range(n)]
        terms = [f"({t}) % {M}" for t in terms]
        D = n * n
    xs = ", ".join(f"x{i}" for i in range(D))
    ys = ", ".join(f"y{i}" for i in range(D))
    source = (f"def mul(x, y):\n    {xs}, = x\n    {ys}, = y\n"
              f"    return ({', '.join(terms)},)\n")
    namespace = {}
    exec(source, namespace)
    mul = namespace["mul"]
    space.memo["product_kernel"] = mul
    return mul


def _scaled_map(rows: list, M: int):
    """``(x, mu) -> mu^-1 L(x) mod M`` for the linear map L with the sparse
    rows ``rows`` (those of ``_sparse_rows``)."""
    def apply(x, mu):
        s = pow(mu, -1, M)
        return tuple(sum(c * x[j] for j, c in row) * s % M for row in rows)
    return apply


def inverse_kernel(space: Space):
    """``inv(x, mu)``: the components of g^-1 mod p^N for the member g
    with components x and multiplier residue mu.  With a form g^-1 =
    mu^-1 star(g), star probed once; in the general-linear family integer
    Gauss-Jordan (mu is 1 there)."""
    if space.ring.exact:
        raise ValueError("the inverse kernel works mod p^N")
    ring = space.ring
    n, p, M = space.n, ring.p, ring.modulus
    if space.has_form:
        return _scaled_map(_star_rows(space), M)
    _check_split_gl(space)
    return lambda x, mu: _gl_inverse(x, n, p, M)


def iota_kernel(space: Space):
    """``iota(x, mu)``: the components of iota(g) = mu^-1 H tau(g) H^-1
    mod p^N (``involution.iota_group``) for the member g with components
    x and multiplier residue mu; g -> H tau(g) H^-1 is F-linear on
    components and probed once per space."""
    if space.ring.exact:
        raise ValueError("the iota kernel works mod p^N")
    if not space.has_form:
        raise SpaceError("general-linear iota is the inverse transpose")
    return _scaled_map(
        _sparse_rows(space, lambda m: space.H * m.tau() * space.Hinv),
        space.ring.modulus)


def _solve_branch(g: GroupElem, lam: Scalar, limit):
    """All X mod p^N with (lam + g) X = 1 - g and X + X* = (lam^-1 - 1) 1."""
    space = g.space
    ring = space.ring
    shifted = Mat.scalar_mat(ring, space.n, lam) + g.mat
    rhs = space.identity() - g.mat
    alpha_target = Mat.scalar_mat(ring, space.n, lam.inv() - ring.one)

    def f(X):
        return shifted * X - rhs, X + star(space, X) - alpha_target

    A, b = matrix_system(space, f)
    return modsolve.solve_affine_mod(A, b, ring.p, ring.prec, limit)


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
    D = space.n * space.n * components_per_scalar(space)
    if not space.has_form:
        M = ring.modulus
        if M**D > limit:
            raise modsolve.SolveBudgetError(
                f"Lie enumeration of {M**D} elements exceeds limit {limit}")
        return [certify_lie(space, mat_from_components(space, comps))
                for comps in itertools.product(range(M), repeat=D)]
    sols = modsolve.kernel_mod(lie_system(space), ring.p, ring.prec, limit)
    out = [certify_lie(space, mat_from_components(space, comps[:D]))
           for comps in sols]
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
