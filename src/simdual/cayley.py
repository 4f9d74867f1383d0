"""The classical and similitude Cayley maps, their domain, the multiplier
identity, and the complete image/fiber analysis.

The map is c(X) = (1 - X/(1+alpha)) (1+X)^-1 with alpha = alpha(X); its
multiplier is (1+alpha)^-2.  Its domain, the working domain everywhere, is
cut out by two conditions, 1+alpha and det(1+X) regular (``in_domain``),
and is stable under theta and Ad; ``cayley`` decides the second through
the determinant of 1+X it computes anyway.  Every preimage the fiber
analysis returns lies in it.  Over truncated rings "nonzero" uniformly means
"unit", and fibers are solved exactly, branch by branch, so that they
agree with exhaustive bucketing residue-for-residue.

In the general-linear family c(X) = 1 + X, every multiplier is 1, and the
fiber of g is the single point g - 1.

The work runs on integer component tuples (the layout of
``Mat.components``) through generated straight-line code: the one
inverse mod p^N, of ``matrices`` (A q^-1 with g A = q 1), and kernels
derived once per space and kept in ``space.memo``, the product and the
F-linear maps star and theta, probed on unit vectors and compiled from
their sparse rows, and no iota or scaled-inverse kernel: iota is the
theta kernel on the inverse.  ``linear_system`` is the one writer of integer
systems: every probe, and the Lie system (X, alpha) -> X + X* - alpha 1
(``lie_system``), probed once per space on the star kernel.  The alpha
certificate compiles its rows, and ``spaces.lie_alpha`` runs it on
every ring, as ``spaces.similitude_multiplier`` runs the multiplier
certificate (in the general-linear family the determinant lines of the
adjugate code); the Lie coordinates, the congruence lift and the fiber
branch solves read the same rows.  The Cayley map is one generated
function per space that scales the adjugate of 1 + X, with one formula
on residues mod p^N and on exact numerators over one denominator,
reduced to lowest terms once, when a ``Mat`` is decoded.  A fiber branch
where lambda + g is a unit is the closed form X_lambda =
(1 - g)(lambda + g)^-1 of one inverse and one product (over the exact
field the inverse also decides the branch); a branch that can hold no
domain preimage is skipped, and only lambda + g = 0 mod p is written as
an integer system for an affine solve, X -> (lambda + g) X probed on the
product kernel over the Lie system.  Preimages are certified on
integers; ``Mat``, ``GroupElem`` and ``LieElem`` are decoded only where
a public function returns one.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .matrices import (Mat, NotInvertibleError, _adjugate_code, _generated,
                       _unpack, components_per_scalar, det_norm_kernel,
                       matrix_inverse_kernel)
from .scalars import INERT, Scalar, rational_sqrt, sqrt_mod_prime_power
from .spaces import (GroupElem, LieElem, MembershipError, Space, SpaceError,
                     certify_lie, star)

UNIQUE_LAMBDA = "unique-lambda"
TWO_PREIMAGES = "two-preimages"
UNIQUE_MU1 = "unique-mu1"
INFINITE_IDENTITY = "infinite-identity"
EMPTY = "empty"

# the most solutions of one truncated fiber branch, and the most Lie
# elements the bucketing oracle enumerates
BRANCH_BUDGET = 10**5
BUCKET_BUDGET = 10**6


class DomainError(ValueError):
    pass


def in_domain(X: LieElem) -> bool:
    """The working domain of the Cayley map, stable under theta and Ad:
    1 + alpha and 1 + X regular (only 1 + X without a form), where
    ``cayley_kernel`` is not None.  A third condition, (1 + alpha) 1 - X
    regular, changes nothing: X + X* = alpha 1 gives (1 + alpha) 1 - X =
    (1 + X)*, and det((1 + X)*) = tau(det(1 + X)) is regular with it."""
    return _kernel_image(X)[0] is not None


def _kernel_image(X: LieElem) -> tuple:
    """(``cayley_kernel`` image, den) for X: over the exact field on
    numerators over one denominator den that also clears alpha."""
    space, alpha = X.space, X.alpha
    if not space.ring.exact:
        return cayley_kernel(space)(X.mat.components(), alpha.x), 1
    x, den = X.mat.numerators()
    k = alpha.d // math.gcd(den, alpha.d)
    den *= k
    return cayley_kernel(space)([v * k for v in x], alpha.x * (den // alpha.d),
                                den), den


def cayley(X: LieElem) -> GroupElem:
    """c(X), certified with multiplier (1 + alpha)^-2: ``cayley_kernel``
    on the integer components of X, decoded once.  Outside the domain it
    raises DomainError."""
    space, ring = X.space, X.space.ring
    image, den = _kernel_image(X)
    if image is None:
        raise DomainError("X is outside the Cayley domain" if space.has_form
                          else "1 + X is singular")
    if not ring.exact:
        return GroupElem(space, Mat.from_components(ring, space.n, image[0]),
                         ring.scalar(image[1]))
    nums, q, s = image
    return GroupElem(space, Mat.from_components(ring, space.n, nums, q),
                     ring.ratio(den * den, 0, s * s))


def x_lambda(g: GroupElem, lam: Scalar) -> LieElem:
    """X_lambda = (1 - g)(lambda + g)^-1, the branch-lambda preimage of g;
    DomainError where lambda + g is singular."""
    space = g.space
    if not space.has_form:
        raise SpaceError("x_lambda is specific to the form families; in the "
                         "general-linear family the preimage is g - 1")
    if lam * lam != g.mu:
        raise DomainError("lambda^2 != mu(g)")
    one = space.identity()
    try:
        inverse = (Mat.scalar_mat(space.ring, space.n, lam) + g.mat).inv()
    except NotInvertibleError:
        raise DomainError("lambda + g is singular") from None
    X = (one - g.mat) * inverse
    lie = certify_lie(space, X)
    # alpha(X_lambda) = lambda^-1 - 1
    assert lie.alpha == lam.inv() - space.ring.one
    return lie


@dataclass(frozen=True)
class FiberPreimage:
    X: LieElem
    lam: Scalar


@dataclass
class FiberResult:
    """Case analysis of the fiber of the similitude Cayley map over g."""

    tag: str
    preimages: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)

    def domain_preimages(self):
        """The preimages, every one in the working domain: 1 + alpha =
        lambda^-1 is a unit, an exact X_lambda has 1 + X_lambda =
        (1 + lambda)(lambda + g)^-1 with lambda != -1, and the truncated
        fiber keeps only solutions with 1 + X invertible."""
        return list(self.preimages)

    def identity_fiber_contains(self, X: LieElem) -> bool:
        """Membership test for the (infinite, over the exact field) fiber of 1."""
        if self.tag != INFINITE_IDENTITY:
            raise ValueError("only meaningful for the fiber of the identity")
        ring = X.space.ring
        if not bool(X.mat):
            return True
        return X.alpha == ring.scalar(-2) and in_domain(X)


def fiber(g: GroupElem) -> FiberResult:
    """Image membership and full preimage list for g under the Cayley map.

    Over the exact field this follows the proved case analysis; over a
    truncated ring each branch lambda is solved exactly (the case pattern
    can blur at finite precision, e.g. near the identity): in closed form
    X_lambda where 1 + lambda and lambda + g are units, by an affine solve
    where both are 0 mod p, and not at all otherwise, since such a branch
    holds no preimage with 1 + X a unit."""
    space = g.space
    ring = space.ring
    if not space.has_form:
        X = certify_lie(space, g.mat - space.identity())
        return FiberResult(UNIQUE_MU1, [FiberPreimage(X, ring.one)],
                           [ring.one])
    if ring.exact:
        return _fiber_exact(g)
    return _fiber_trunc(g)


def _fiber_exact(g: GroupElem) -> FiberResult:
    """The branches lambda = +-sqrt(mu(g)) (only lambda = 1 when mu = 1),
    each decided by the one inverse of lambda + g that ``x_lambda``
    takes."""
    space = g.space
    ring = space.ring
    mu = g.mu
    lam_a = rational_sqrt(mu.a)
    if lam_a is None:
        return FiberResult(EMPTY)
    if mu == ring.one and g.mat == space.identity():
        zero = certify_lie(space, Mat.zeros(ring, space.n))
        return FiberResult(INFINITE_IDENTITY, [FiberPreimage(zero, ring.one)],
                           [ring.one])
    lam = ring.scalar(lam_a)
    found = []
    for branch in (lam,) if mu == ring.one else (lam, -lam):
        try:
            found.append(FiberPreimage(x_lambda(g, branch), branch))
        except DomainError:                  # lambda + g is singular
            pass
    if not found:
        return FiberResult(EMPTY)
    tag = (UNIQUE_MU1 if mu == ring.one else
           TWO_PREIMAGES if len(found) == 2 else UNIQUE_LAMBDA)
    return FiberResult(tag, found, [pre.lam for pre in found])


# -- truncated-mode machinery -----------------------------------------


def comps_key(space: Space, comps) -> tuple:
    """``Mat.key()`` of the truncated matrix with components ``comps``:
    the components themselves when inert, each paired with 0 when split.
    Both orders agree, so sorted components are sorted keys."""
    if components_per_scalar(space.ring) == 2:
        return tuple(comps)
    return tuple(v for c in comps for v in (c, 0))


class Members(Sequence):
    """Group elements held as component tuples ``comps`` (the layout of
    ``Mat.components``) with multiplier residues ``mus``.  A
    ``GroupElem`` is decoded on access, so none is kept per element."""

    def __init__(self, space: Space, comps, mus):
        self.space = space
        self.comps = comps
        self.mus = mus

    def __len__(self) -> int:
        return len(self.comps)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        ring, n = self.space.ring, self.space.n
        return GroupElem(self.space,
                         Mat.from_components(ring, n, self.comps[i]),
                         ring.scalar(self.mus[i]))


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


def _sparse_rows(space: Space, f) -> list:
    """The F-linear map ``f`` on matrices as sparse rows on components:
    row i lists the pairs (j, c) with component i of f(e_j) equal to c,
    from ``linear_system`` on components (the layout of
    ``Mat.components``)."""
    A, _ = linear_system(
        space.n * space.n * components_per_scalar(space.ring),
        lambda v: f(Mat.from_components(space.ring, space.n, v)).components())
    return [[(j, c) for j, c in enumerate(row) if c] for row in A]


def _per_space(build):
    """Keep ``build(space)`` in ``space.memo`` under the function's name,
    so a kernel is derived once per space."""
    name = build.__name__

    @functools.wraps(build)
    def get(space: Space):
        if name not in space.memo:
            space.memo[name] = build(space)
        return space.memo[name]
    return get


@_per_space
def identity_comps(space: Space) -> tuple:
    """The integer components of the identity matrix."""
    return tuple(space.identity().numerators()[0])


@_per_space
def _star_rows(space: Space) -> list:
    """Sparse rows of star, probed once per space."""
    return _sparse_rows(space, lambda m: star(space, m))


@_per_space
def lie_system(space: Space) -> tuple:
    """The matrix of (X, alpha) -> X + X* - alpha 1 on the components of
    X followed by alpha, as tuples of rows (mod p^N, residues): the
    similitude Lie algebra is its kernel.  Without the last column it is
    the matrix of X -> X + X*, whose kernel is the isometry Lie algebra.
    The one derivation of X + X*, probed once per space on
    ``star_kernel`` and ``identity_comps``."""
    star_of, ident = star_kernel(space), identity_comps(space)
    D = len(ident)
    M = None if space.ring.exact else space.ring.modulus

    def residual(v):
        x, a = v[:D], v[D]
        r = [u + w - a * e for u, w, e in zip(x, star_of(x), ident)]
        return r if M is None else [c % M for c in r]
    A, _ = linear_system(D + 1, residual)
    return tuple(map(tuple, A))


@_per_space
def multiplier_predicate(space: Space):
    """``mu_of(comps)``, the membership certificate of
    ``spaces.similitude_multiplier``: for the matrix g with components
    ``comps`` (the layout of ``Mat.components``), the mu with
    g star(g) = mu * 1 and mu in the base ring, regular (a unit mod p^N,
    nonzero over the exact field), else None.  It runs in integer
    arithmetic on the product and star kernels, mod p^N on residues;
    over an exact space on the numerators x of g = x / den, where it
    returns mu den^2 (a Fraction only where star has a rational
    coefficient).  In the general-linear family, mod p^N over the split
    ring only, mu = 1 exactly for the g whose integer determinant, from
    the determinant lines of the adjugate code (``det_norm_kernel``), is
    a unit.
    """
    ring = space.ring
    n, p, exact = space.n, ring.p, ring.exact

    if not space.has_form:
        if exact or ring.ext == INERT:
            raise SpaceError("the general-linear multiplier works mod p^N "
                             "over the split ring")
        det = det_norm_kernel(ring, n)
        return lambda x: 1 if det(x) % p else None

    star_of, mul = star_kernel(space), product_kernel(space)
    # g star(g) = mu * 1: its n diagonal a-components, every
    # (n + 1) entries apart, equal mu and its other components are zero
    d = components_per_scalar(ring)
    step, zeros = d * (n + 1), d * n * n - n

    def mu_of(x):
        z = mul(x, star_of(x))
        mu = z[0]
        if (mu if exact else mu % p) and z.count(0) == zeros \
                and z[::step].count(mu) == n:
            return mu
        return None
    return mu_of


@_per_space
def product_kernel(space: Space):
    """``mul(x, y)``: the components of g h mod p^N, where g and h have
    components x and y (the layout of ``Mat.components``), for split and
    inert rings; over an exact space the integer components of the
    product of the integer matrices x and y, with no modulus.  The
    product is generated once per space as one straight-line expression
    over the unpacked components, which runs several times faster than a
    loop over index lists.
    """
    ring = space.ring
    n = space.n
    mod = "" if ring.exact else f" % {ring.modulus}"
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
                terms += [f"({a} + {ring.u}*({u})){mod}", f"({b}){mod}"]
        D = 2 * n * n
    else:
        terms = [" + ".join(f"x{i * n + k}*y{k * n + j}" for k in range(n))
                 for i in range(n) for j in range(n)]
        terms = [f"({t}){mod}" for t in terms]
        D = n * n
    return _generated("x, y", [_unpack("x", D), _unpack("y", D)],
                      f"({', '.join(terms)},)")


def linear_kernel(rows: list, M: int | None, width: int | None = None):
    """The linear map L with the sparse rows ``rows`` (those of
    ``_sparse_rows``) as generated straight-line code on tuples of
    ``width`` entries (default: square, one per row): ``L(x)`` mod M,
    with no modulus when M is None (a rational coefficient as a
    Fraction)."""
    sums = [" + ".join(f"{c if c.denominator == 1 else repr(c)}*x{j}"
                       for j, c in row) or "0" for row in rows]
    width = len(rows) if width is None else width
    lines = [_unpack("x", width)] if width else []
    mod = "" if M is None else f" % {M}"
    return _generated("x", lines,
                      f"({', '.join(f'({t}){mod}' for t in sums)},)")


@_per_space
def star_kernel(space: Space):
    """``star(x)``: the components of star(g) mod p^N for the matrix g
    with components x, over an exact space with no modulus; star probed
    once per space."""
    ring = space.ring
    return linear_kernel(_star_rows(space), None if ring.exact
                         else ring.modulus)


@_per_space
def theta_kernel(space: Space):
    """``theta(x)``: the components of theta(g) mod p^N for the matrix g
    with components x, over an exact space with no modulus, as
    ``star_kernel``; ``involution.theta_mat`` probed once per space.  On
    the inverse of g it gives iota(g) = theta(g^-1)."""
    from .involution import theta_mat   # it loads modsolve
    return linear_kernel(_sparse_rows(space, lambda m: theta_mat(space, m)),
                         None if space.ring.exact else space.ring.modulus)


@_per_space
def lie_alpha_kernel(space: Space):
    """``alpha(x)``: the residue alpha with X + X* = alpha 1, alpha in the
    base ring, for the X with components x (0 in the general-linear
    family); over an exact space, for X = x / den with integer x,
    alpha den (a Fraction only where star has a rational coefficient).
    X + X* is compiled from the rows of ``lie_system`` without alpha, and
    ``spaces.lie_alpha`` (so ``certify_lie``) runs this certificate.
    Raises MembershipError when X is not in the similitude Lie algebra."""
    if not space.has_form:
        return lambda x: 0
    plus_star = linear_kernel(
        [[(j, c) for j, c in enumerate(row[:-1]) if c]
         for row in lie_system(space)],
        None if space.ring.exact else space.ring.modulus)
    n, d = space.n, components_per_scalar(space.ring)
    # X + X* = alpha 1: its n diagonal a-components equal alpha and its
    # other components are zero
    step, size = d * (n + 1), d * n * n

    def alpha(x):
        z = plus_star(x)
        a = z[0]
        if z[::step].count(a) == n and z.count(0) == (size - n if a else size):
            return a
        raise MembershipError("not in the similitude Lie algebra: "
                              + Mat.from_components(space.ring, space.n,
                                                    x).to_text())
    return alpha


@_per_space
def cayley_kernel(space: Space):
    """``c(x, alpha)`` mod p^N, ``c(x, alpha, den)`` over an exact space:
    ``cayley`` on integer components, one generated straight-line function
    per space.  For X = x / den with alpha(X) = alpha / den
    (``lie_alpha_kernel``; den = 1 mod p^N) put Y = den 1 + x and
    s = den + alpha, so that 1 + X = Y / den and 1 + alpha(X) = s / den,
    and take Y A = q 1 from ``matrices._adjugate_code``.  Then
    c(X) = (s 1 - x) A den / (s q) and lambda = den / s, and since
    x A = (Y - den 1) A = q 1 - den A, the product (s 1 - x) A is
    (s + den) A - q 1, the adjugate scaled with q taken off the diagonal.
    Mod p^N it gives (components, mu) of c(X) with mu = lambda^2 =
    (q (s q)^-1)^2, one inverse for both; over an exact space
    (numerators, denominator s q, s).  None outside the domain
    (``in_domain``): s or det Y not regular.  In the general-linear
    family (alpha = 0) c(X) = Y / den, lambda = 1, and only the
    determinant of Y is computed."""
    ring, n = space.ring, space.n
    d = components_per_scalar(ring)
    lines, adj, q, k = _adjugate_code(n, d, ring._u)
    p, M = ring.p, None if ring.exact else ring.modulus
    D = len(adj)
    step = d * (n + 1)
    diag = range(0, D, step)               # the a-components of Y_ii
    den = "den" if M is None else "1"
    regular = "if not {}:" if M is None else f"if {{}} % {p} == 0:"
    code = [_unpack("x", D), f"s = {den} + alpha", regular.format("s"),
            "    return None"]
    code += [f"x{i} += {den}" for i in diag]
    code += (lines if space.has_form else lines[:k]) + [
        f"q = {q}", regular.format("q"), "    return None"]
    args = "x, alpha, den" if M is None else "x, alpha"
    if not space.has_form:
        if M is None:
            result = f"({''.join(f'x{i}, ' for i in range(D))}), den, s"
        else:
            result = f"({''.join(f'x{i} % {M}, ' for i in range(D))}), 1"
    elif M is None:
        code.append("t = s + den")
        result = "(" + "".join(
            f"(t*({a}) - q)*den, " if i in diag else f"t*({a})*den, "
            for i, a in enumerate(adj)) + "), s * q, s"
    else:
        code += [f"f = pow(s * q, -1, {M})", f"t = (s + 1) * f % {M}",
                 f"h = q * f % {M}"]           # h = s^-1
        result = "(" + "".join(
            f"(t*({a}) - h) % {M}, " if i in diag else f"t*({a}) % {M}, "
            for i, a in enumerate(adj)) + f"), h * h % {M}"
    return _generated(args, code, result)


def _solve_branch(space: Space, x: tuple, lam: int, t):
    """All X mod p^N, as components, with (lam + g) X = 1 - g and
    X + X* = (lam^-1 - 1) 1, where g has components x and t is the
    inverse of lam + g from ``matrix_inverse_kernel``, None when it is
    singular.  With t the first equation has the one solution
    X_lam = (1 - g) t, the factors commuting, and the branch is [X_lam]
    or [] by the second.  Otherwise the two are written as one integer
    system, X -> (lam + g) X probed on ``product_kernel`` stacked on
    ``lie_system`` without alpha, for ``modsolve.solve_affine_mod``."""
    ring = space.ring
    M = ring.modulus
    ident = identity_comps(space)
    rhs = [(e - v) % M for e, v in zip(ident, x)]
    target = [(pow(lam, -1, M) - 1) * e % M for e in ident]
    mul = product_kernel(space)
    if t is not None:
        X = mul(rhs, t)
        return [X] if all((v + w - e) % M == 0 for v, w, e in zip(
            X, star_kernel(space)(X), target)) else []
    from . import modsolve          # only the solving paths load it
    shifted = tuple((lam * e + v) % M for e, v in zip(ident, x))
    A, _ = linear_system(len(ident), lambda v: mul(shifted, v))
    A += [list(row[:-1]) for row in lie_system(space)]
    return modsolve.solve_affine_mod(A, rhs + target, ring.p, ring.prec,
                                     BRANCH_BUDGET)


def _fiber_trunc(g: GroupElem) -> FiberResult:
    """Each branch lambda = +-sqrt(mu(g)) is decided before it is solved:
    a domain preimage X on it has (lambda + g)(1 + X) = (1 + lambda) 1
    with 1 + X a unit.  If 1 + lambda is a unit, so is lambda + g, and the
    branch is the closed form or empty; if not, only a lambda + g that is
    0 mod p is solved affinely, keeping the solutions with 1 + X a unit."""
    space = g.space
    ring = space.ring
    p, M = ring.p, ring.modulus
    root = sqrt_mod_prime_power(g.mu.a, p, ring.prec)
    if root is None:
        return FiberResult(EMPTY)
    x = tuple(g.mat.components())
    ident = identity_comps(space)
    inv, mul = matrix_inverse_kernel(ring, space.n), product_kernel(space)
    alpha_of = lie_alpha_kernel(space)
    found = {}                      # components of X -> (alpha, lambda)
    lambdas = []
    for lam in (root, -root % M):
        shifted = tuple((lam * e + v) % M for e, v in zip(ident, x))
        unit = (1 + lam) % p != 0
        t = inv(shifted) if unit else None
        if unit and t is None or not unit and any(v % p for v in shifted):
            continue
        scaled = tuple((1 + lam) * e % M for e in ident)
        # the identity shows 1 + X a unit on a unit branch; the inverse of
        # 1 + X decides elsewhere or for an entry that is no solution
        for comps in _solve_branch(space, x, lam, t):
            one_plus = tuple((e + v) % M for e, v in zip(ident, comps))
            if comps in found or not (
                    unit and mul(shifted, one_plus) == scaled
                    or inv(one_plus) is not None):
                continue
            found[comps] = alpha_of(comps), lam
            if lam not in lambdas:
                lambdas.append(lam)
    if not found:
        return FiberResult(EMPTY)
    preimages = [FiberPreimage(
        LieElem(space, Mat.from_components(ring, space.n, comps),
                ring.scalar(alpha)),
        ring.scalar(lam))
        for comps, (alpha, lam) in sorted(found.items())]
    if x == ident:
        tag = INFINITE_IDENTITY
    elif g.mu == ring.one:
        tag = UNIQUE_MU1
    elif len(preimages) == 2:
        tag = TWO_PREIMAGES
    else:
        tag = UNIQUE_LAMBDA
    return FiberResult(tag, preimages, [ring.scalar(lam) for lam in lambdas])


def _lie_components(space: Space, limit) -> list:
    """The components of every Lie-algebra member of a truncated space,
    sorted."""
    from . import modsolve          # only the solving paths load it
    ring = space.ring
    if ring.exact:
        raise ValueError("cannot enumerate an exact Lie algebra")
    D = space.n * space.n * components_per_scalar(ring)
    if not space.has_form:
        return list(modsolve.residues(D, ring.modulus, limit))
    # nu is a function of Z, so cutting it off keeps the sorted order
    return [comps[:D] for comps in modsolve.solve_affine_mod(
        lie_system(space), [0] * D, ring.p, ring.prec, limit)]


def bucket_domain_images(space: Space):
    """Exhaustive oracle: bucket c over all working-domain X of a truncated
    space, keyed by the image residue, each bucket listing its X in
    canonical order.  Ground truth for fiber(); runs on components, and
    ``cayley_kernel`` is None exactly outside the domain."""
    alpha_of = lie_alpha_kernel(space)
    c = cayley_kernel(space)
    buckets = {}
    for x in _lie_components(space, BUCKET_BUDGET):
        image = c(x, alpha_of(x))
        if image is not None:
            buckets.setdefault(comps_key(space, image[0]), []).append(
                comps_key(space, x))
    return buckets
