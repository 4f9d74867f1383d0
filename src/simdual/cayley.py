"""The classical and similitude Cayley maps, their domain, the multiplier
identity, and the complete image/fiber analysis.

The map is c(X) = (1 - X/(1+alpha)) (1+X)^-1 with alpha = alpha(X); its
multiplier is (1+alpha)^-2.  Its domain, the working domain everywhere, is
cut out by two conditions, 1+alpha and det(1+X) regular (``in_domain``),
and is stable under theta and Ad; ``cayley`` decides the second through
the inverse of 1+X it computes anyway.  Every preimage the fiber analysis
returns lies in it.  Over truncated rings "nonzero" uniformly means
"unit", and fibers are computed as exact affine solves so that they agree
with exhaustive bucketing residue-for-residue.

In the general-linear family c(X) = 1 + X, every multiplier is 1, and the
fiber of g is the single point g - 1.

Mod p^N the work runs on integer component tuples (the layout of
``mat_components``) through kernels derived once per space and kept in
``space.memo``: one integer Gauss-Jordan inverse for split and inert
rings, and generated straight-line code for the product (which also
runs without a modulus on integer components, for ``lattices``), the
determinant (once per n) and the F-linear maps star, theta and iota,
which are probed on unit vectors and compiled from their sparse rows;
from these come the multiplier and alpha certificates and the Cayley
map, which is None outside the domain.  A fiber branch where lambda + g
is a unit is the closed form X_lambda = (1 - g)(lambda + g)^-1 of one
inverse and one product; only a singular branch is written as an integer
system for an affine solve.  Preimages are certified on integers; ``Mat``,
``GroupElem`` and ``LieElem`` are decoded only where a public function
returns one.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .matrices import Mat, NotInvertibleError
from .scalars import INERT, Scalar, rational_sqrt, sqrt_mod_prime_power
from .spaces import (GroupElem, LieElem, MembershipError, Space, SpaceError,
                     certify_lie, star)

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


def in_domain(X: LieElem) -> bool:
    """The working domain of the Cayley map, stable under theta and Ad:
    1 + alpha and 1 + X regular (only 1 + X in the general-linear family).
    A third condition, (1 + alpha) 1 - X regular, would change nothing:
    X + X* = alpha 1 gives (1 + alpha) 1 - X = (1 + X)*, and
    det((1 + X)*) = tau(det(1 + X)), so it holds exactly when the second
    does."""
    space = X.space
    one = space.identity()
    if not space.has_form:
        return _mat_regular(one + X.mat)
    return (_is_regular(space.ring.one + X.alpha)
            and _mat_regular(one + X.mat))


def cayley(X: LieElem) -> GroupElem:
    """c(X), certified with multiplier (1 + alpha)^-2.  Outside the
    domain it raises DomainError: 1 + alpha is tested first, and
    1 + X through the inverse that c(X) needs anyway."""
    space = X.space
    one = space.identity()
    if not space.has_form:
        g = one + X.mat
        if not _mat_regular(g):
            raise DomainError("1 + X is singular")
        return GroupElem(space, g, space.ring.one)
    one_plus_alpha = space.ring.one + X.alpha
    if not _is_regular(one_plus_alpha):
        raise DomainError("X is outside the Cayley domain")
    try:
        inv = (one + X.mat).inv()
    except NotInvertibleError:
        raise DomainError("X is outside the Cayley domain") from None
    lam = one_plus_alpha.inv()
    return GroupElem(space, (one - X.mat * lam) * inv, lam * lam)


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


def _preimage(g: GroupElem, lam: Scalar) -> FiberPreimage:
    return FiberPreimage(x_lambda(g, lam), lam)


def fiber(g: GroupElem) -> FiberResult:
    """Image membership and full preimage list for g under the Cayley map.

    Over the exact field this follows the proved case analysis; over a
    truncated ring each branch lambda is solved exactly (the case pattern
    can blur at finite precision, e.g. near the identity): in closed form
    X_lambda where lambda + g is a unit, by an affine solve elsewhere."""
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
                               [FiberPreimage(zero, ring.one)],
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


def comps_key(space: Space, comps) -> tuple:
    """``Mat.key()`` of the truncated matrix with components ``comps``:
    the components themselves when inert, each paired with 0 when split.
    Both orders agree, so sorted components are sorted keys."""
    if components_per_scalar(space) == 2:
        return tuple(comps)
    return tuple(v for c in comps for v in (c, 0))


class Members(Sequence):
    """Group elements held as component tuples ``comps`` (the layout of
    ``mat_components``) with multiplier residues ``mus``.  A
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
        space = self.space
        return GroupElem(space, mat_from_components(space, self.comps[i]),
                         space.ring.scalar(self.mus[i]))


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
    """The components of the identity matrix."""
    return tuple(mat_components(space, space.identity()))


@_per_space
def _star_rows(space: Space) -> list:
    """Sparse rows of star, probed once per space."""
    return _sparse_rows(space, lambda m: star(space, m))


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


def _gauss_jordan(x, n: int, p: int, M: int):
    """Gauss-Jordan inverse mod M = p^N of the n x n integer matrix with
    row-major entries x, pivoting on units; None when it is singular.
    2 x 2 inverses use the adjugate, as ``Mat.inv`` does."""
    if n == 2:
        a, b, c, d = x
        det = (a * d - b * c) % M
        if det % p == 0:
            return None
        f = pow(det, -1, M)
        return d * f % M, -b * f % M, -c * f % M, a * f % M
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


@_per_space
def matrix_inverse_kernel(space: Space):
    """``inv(x)``: the components of the inverse mod p^N of the matrix
    with components x, or None when it is singular (its determinant is
    not a unit).  Over the inert ring each entry a + b s becomes the
    block [[a, u b], [b, a]] of a 2n x 2n matrix over the base ring; that
    map is a ring homomorphism and its image is invertible exactly when x
    is, so one integer Gauss-Jordan serves both rings."""
    ring = space.ring
    n, p, M = space.n, ring.p, ring.modulus
    if ring.ext != INERT:
        return lambda x: _gauss_jordan(x, n, p, M)
    u, m = ring.u, 2 * n
    # position in the 2n x 2n matrix of each block entry, by component
    places = []
    for i in range(n):
        for j in range(n):
            r, c = 2 * i * m + 2 * j, (2 * i + 1) * m + 2 * j
            places.append(((r, c + 1), (c, r + 1)))

    def inv(x):
        big = [0] * (m * m)
        for ((a1, a2), (b1, b2)), a, b in zip(places, x[::2], x[1::2]):
            big[a1] = big[a2] = a
            big[b1] = b
            big[b2] = u * b
        y = _gauss_jordan(big, m, p, M)
        if y is None:
            return None
        return tuple(y[k] for (a1, _), (b1, _) in places for k in (a1, b1))
    return inv


@functools.cache
def det_kernel(n: int):
    """``det(x)``: the integer determinant of the n x n matrix with
    row-major entries x, generated once per n as the straight-line
    Leibniz sum over the permutations of range(n)."""
    terms = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        factors = "*".join(f"x{i * n + j}" for i, j in enumerate(perm))
        terms.append(("- " if inversions % 2 else "+ ") + factors)
    return _generated("x", [_unpack("x", n * n)], " ".join(terms))


@_per_space
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
    ring = space.ring
    n, p = space.n, ring.p

    if not space.has_form:
        if ring.ext == INERT:
            raise SpaceError("the general-linear multiplier works over the "
                             "split ring")
        det = det_kernel(n)
        return lambda x: 1 if det(x) % p else None

    star_of, mul = star_kernel(space), product_kernel(space)
    # g star(g) = mu * 1: its n diagonal a-components, every
    # (n + 1) entries apart, equal mu and its other components are zero
    d = components_per_scalar(space)
    step, zeros = d * (n + 1), d * n * n - n

    def mu_of(x):
        z = mul(x, star_of(x))
        mu = z[0]
        if mu % p and z.count(0) == zeros and z[::step].count(mu) == n:
            return mu
        return None
    return mu_of


@_per_space
def product_kernel(space: Space):
    """``mul(x, y)``: the components of g h mod p^N, where g and h have
    components x and y (the layout of ``mat_components``), for split and
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


def _unpack(v: str, D: int) -> str:
    """The line unpacking the length-D tuple ``v`` into v0, v1, ..."""
    return f"{', '.join(f'{v}{i}' for i in range(D))}, = {v}"


def _generated(args: str, lines: list, result: str):
    """The function of ``args`` that runs ``lines`` and returns
    ``result``, compiled from generated source."""
    body = "".join(f"    {line}\n" for line in lines + [f"return {result}"])
    namespace = {}
    exec(f"def f({args}):\n{body}", namespace)
    return namespace["f"]


def linear_kernel(rows: list, M: int, scaled: bool = False,
                  width: int | None = None):
    """The linear map L with the sparse rows ``rows`` (those of
    ``_sparse_rows``) as generated straight-line code on tuples of
    ``width`` entries (default: square, one per row): ``L(x)`` mod M, or
    with ``scaled`` ``(x, mu) -> mu^-1 L(x)`` mod M."""
    sums = [" + ".join(f"{c}*x{j}" for j, c in row) or "0" for row in rows]
    width = len(rows) if width is None else width
    lines = [_unpack("x", width)] if width else []
    if scaled:
        lines.append(f"s = pow(mu, -1, {M})")
        sums = [f"({t})*s" for t in sums]
    return _generated("x, mu" if scaled else "x", lines,
                      f"({', '.join(f'({t}) % {M}' for t in sums)},)")


@_per_space
def star_kernel(space: Space):
    """``star(x)``: the components of star(g) mod p^N for the matrix g
    with components x; star probed once per space."""
    return linear_kernel(_star_rows(space), space.ring.modulus)


@_per_space
def inverse_kernel(space: Space):
    """``inv(x, mu)``: the components of g^-1 mod p^N for the member g
    with components x and multiplier residue mu.  With a form g^-1 =
    mu^-1 star(g), star probed once; in the general-linear family integer
    Gauss-Jordan (mu is 1 there)."""
    if space.ring.exact:
        raise ValueError("the inverse kernel works mod p^N")
    if space.has_form:
        return linear_kernel(_star_rows(space), space.ring.modulus, True)
    inv = matrix_inverse_kernel(space)
    return lambda x, mu: inv(x)


@_per_space
def iota_kernel(space: Space):
    """``iota(x, mu)``: the components of iota(g) = mu^-1 H tau(g) H^-1
    mod p^N (``involution.iota_group``) for the member g with components
    x and multiplier residue mu; g -> H tau(g) H^-1 is F-linear on
    components and probed once per space."""
    if space.ring.exact:
        raise ValueError("the iota kernel works mod p^N")
    if not space.has_form:
        raise SpaceError("general-linear iota is the inverse transpose")
    return linear_kernel(
        _sparse_rows(space, lambda m: space.H * m.tau() * space.Hinv),
        space.ring.modulus, True)


def theta_map(space: Space):
    """theta on group members as a map on matrices: g -> H J^-1 g^T J H^-1,
    which is mu(g) H tau(g^-1) H^-1 (``involution.theta_group``) because
    g^-1 = mu^-1 tau(J^-1 g^T J) for a similitude g.  It is linear in g;
    in the general-linear family it is the transpose."""
    if not space.has_form:
        return Mat.transpose
    left, right = space.H * space.Jinv, space.J * space.Hinv
    return lambda m: left * m.transpose() * right


@_per_space
def theta_kernel(space: Space):
    """``theta(x)``: the components of theta(g) mod p^N for the member g
    with components x; ``theta_map`` probed once per space."""
    if space.ring.exact:
        raise ValueError("the theta kernel works mod p^N")
    return linear_kernel(_sparse_rows(space, theta_map(space)),
                         space.ring.modulus)


@_per_space
def lie_alpha_kernel(space: Space):
    """``alpha(x)``: the residue alpha with X + X* = alpha 1, alpha in the
    base ring, for the X with components x (0 in the general-linear
    family); raises MembershipError, as ``certify_lie`` does, when X is
    not in the similitude Lie algebra mod p^N."""
    if space.ring.exact:
        raise ValueError("the alpha kernel works mod p^N")
    if not space.has_form:
        return lambda x: 0
    plus_star = linear_kernel(
        _sparse_rows(space, lambda m: m + star(space, m)), space.ring.modulus)
    n, d = space.n, components_per_scalar(space)
    # X + X* = alpha 1: its n diagonal a-components equal alpha and its
    # other components are zero
    step, size = d * (n + 1), d * n * n

    def alpha(x):
        z = plus_star(x)
        a = z[0]
        if z[::step].count(a) == n and z.count(0) == (size - n if a else size):
            return a
        raise MembershipError("not in the similitude Lie algebra: "
                              + mat_from_components(space, x).to_text())
    return alpha


@_per_space
def cayley_kernel(space: Space):
    """``c(x, alpha)``: ``cayley`` on components.  (components, mu) of
    c(X) = (1 - lam X)(1 + X)^-1 mod p^N with lam = (1 + alpha)^-1 and
    mu = lam^2, for the X with components x and alpha from
    ``lie_alpha_kernel``; None outside the domain (``in_domain``).
    In the general-linear family c(X) = 1 + X with mu = 1."""
    ident = identity_comps(space)
    inv = matrix_inverse_kernel(space)
    mul = product_kernel(space)
    p, M = space.ring.p, space.ring.modulus

    def c(x, alpha):
        if (1 + alpha) % p == 0:         # alpha is 0 without a form
            return None
        one_plus = tuple((e + v) % M for e, v in zip(ident, x))
        t = inv(one_plus)
        if t is None:
            return None
        if not space.has_form:
            return one_plus, 1
        lam = pow(1 + alpha, -1, M)
        return (mul(tuple((e - lam * v) % M for e, v in zip(ident, x)), t),
                lam * lam % M)
    return c


@_per_space
def _plus_star_system(space: Space) -> list:
    """``lie_system`` without alpha, the matrix of X -> X + X*."""
    return lie_system(space, alpha=False)


def _left_multiplication(space: Space, s: tuple) -> list:
    """The matrix of X -> s X on components, s given by its components:
    row (i, j) holds s_ik at column (k, j), over the inert ring as the
    block [[a, u b], [b, a]] of s_ik = a + b s (``matrix_inverse_kernel``
    embeds with the same block)."""
    n, d = space.n, components_per_scalar(space)
    A = [[0] * (d * n * n) for _ in range(d * n * n)]
    for i, k, j in itertools.product(range(n), repeat=3):
        a, r, c = s[d * (i * n + k)], d * (i * n + j), d * (k * n + j)
        A[r][c] = a
        if d == 2:
            b = s[d * (i * n + k) + 1]
            A[r][c + 1], A[r + 1][c], A[r + 1][c + 1] = space.ring.u * b, b, a
    return A


def _solve_branch(space: Space, x: tuple, lam: int, limit):
    """All X mod p^N, as components, with (lam + g) X = 1 - g and
    X + X* = (lam^-1 - 1) 1, where g has components x.  When lam + g is a
    unit (``matrix_inverse_kernel`` decides) the first equation has the
    one solution X_lam = (1 - g)(lam + g)^-1, the factors commuting, and
    the branch is [X_lam] or [] by the second.  Otherwise the two are
    written as one integer system, X -> (lam + g) X on components stacked
    on ``lie_system`` without alpha, for ``modsolve.solve_affine_mod``."""
    ring = space.ring
    M = ring.modulus
    ident = identity_comps(space)
    shifted = tuple((lam * e + v) % M for e, v in zip(ident, x))
    rhs = [(e - v) % M for e, v in zip(ident, x)]
    target = [(pow(lam, -1, M) - 1) * e % M for e in ident]
    t = matrix_inverse_kernel(space)(shifted)
    if t is not None:
        X = product_kernel(space)(rhs, t)
        return [X] if all((v + w - e) % M == 0 for v, w, e in zip(
            X, star_kernel(space)(X), target)) else []
    from . import modsolve          # only the solving paths load it
    A = _left_multiplication(space, shifted) + _plus_star_system(space)
    return modsolve.solve_affine_mod(A, rhs + target, ring.p, ring.prec,
                                     limit)


def _fiber_trunc(g: GroupElem, limit=10**5) -> FiberResult:
    space = g.space
    ring = space.ring
    M = ring.modulus
    root = sqrt_mod_prime_power(g.mu.a, ring.p, ring.prec)
    if root is None:
        return FiberResult(EMPTY)
    x = tuple(mat_components(space, g.mat))
    ident = identity_comps(space)
    inv = matrix_inverse_kernel(space)
    alpha_of = lie_alpha_kernel(space)
    found = {}                      # components of X -> (alpha, lambda)
    lambdas = []
    for lam in (root, -root % M):
        for comps in _solve_branch(space, x, lam, limit):
            if comps in found or inv(
                    tuple((e + v) % M for e, v in zip(ident, comps))) is None:
                continue
            found[comps] = alpha_of(comps), lam
            if lam not in lambdas:
                lambdas.append(lam)
    if not found:
        return FiberResult(EMPTY)
    preimages = [FiberPreimage(
        LieElem(space, mat_from_components(space, comps), ring.scalar(alpha)),
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
    D = space.n * space.n * components_per_scalar(space)
    if not space.has_form:
        return list(modsolve.residues(D, ring.modulus, limit))
    sols = modsolve.kernel_mod(lie_system(space), ring.p, ring.prec, limit)
    return sorted(comps[:D] for comps in sols)


def bucket_domain_images(space: Space, limit=10**6):
    """Exhaustive oracle: bucket c over all working-domain X of a truncated
    space, keyed by the image residue, each bucket listing its X in
    canonical order.  Ground truth for fiber(); runs on components, and
    ``cayley_kernel`` is None exactly outside the domain."""
    alpha_of = lie_alpha_kernel(space)
    c = cayley_kernel(space)
    buckets = {}
    for x in _lie_components(space, limit):
        image = c(x, alpha_of(x))
        if image is not None:
            buckets.setdefault(comps_key(space, image[0]), []).append(
                comps_key(space, x))
    return buckets
