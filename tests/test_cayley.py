import hashlib
import importlib.util
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual import cayley as cayley_module
from simdual.cayley import (DomainError, EMPTY, INFINITE_IDENTITY,
                            TWO_PREIMAGES, UNIQUE_MU1, _lie_components,
                            _sparse_rows, _star_rows, bucket_domain_images,
                            cayley, cayley_kernel, fiber, in_domain,
                            lie_alpha_kernel, star_kernel, theta_kernel,
                            x_lambda)
from simdual.involution import theta_group, theta_lie
from simdual.lattices import standard_lattices
from simdual.matrices import (Mat, NotInvertibleError, components_per_scalar,
                              matrix_inverse_kernel, product_kernel)
from simdual.sampling import (make_rng, sample_group, sample_lie,
                              sample_stabilizing)
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                            SKEW_HERMITIAN, SYMPLECTIC, LieElem,
                            MembershipError, certify_group, certify_lie,
                            standard_space, validate_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
SYMPL9 = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT, 2))
GL = standard_space(GENERAL_LINEAR, 2, Ring(3, SPLIT))


def lie(space, rows):
    return certify_lie(space, Mat(space.ring, rows))


def test_cayley_pinned_alpha2():
    X = lie(SYMPL, [[1, 1], [0, 1]])
    assert X.alpha == SYMPL.ring.scalar(2)
    g = cayley(X)
    third = Fraction(1, 3)
    assert g.mat == Mat(SYMPL.ring, [[third, -third], [0, third]])
    assert g.mu == SYMPL.ring.scalar(Fraction(1, 9))


def test_cayley_pinned_alpha0():
    X = lie(SYMPL, [[0, 1], [0, 0]])
    g = cayley(X)
    assert g.mat == Mat(SYMPL.ring, [[1, -2], [0, 1]])
    assert g.mu == SYMPL.ring.one


def test_cayley_domain_errors():
    bad = lie(SYMPL, [[-1, 0], [0, -1]])       # det(1 + X) = 0
    assert not in_domain(bad)
    with pytest.raises(DomainError):
        cayley(bad)


@pytest.mark.parametrize("space", [SYMPL, SYMPL9], ids=["exact", "mod9"])
@pytest.mark.parametrize("rows", [
    [[-1, 1], [1, 0]],     # 1 + alpha = 0, 1 + X regular (det -1)
    [[0, 1], [1, 0]],      # 1 + alpha = 1, 1 + X singular
    [[-1, 0], [0, -1]],    # 1 + alpha = -1, 1 + X = 0
], ids=["alpha", "one-plus-x", "both-fail-one-plus-x"])
def test_cayley_outside_the_domain_raises_domain_error(space, rows):
    # cayley tests 1 + alpha itself and 1 + X through its inverse: either
    # failure is a DomainError, never NotInvertibleError or
    # ZeroDivisionError
    X = lie(space, rows)
    assert not in_domain(X)
    with pytest.raises(DomainError):
        cayley(X)


@pytest.mark.parametrize("rows", [
    [[2, 1], [1, 0]],      # 1 + alpha = 3, not a unit; det(1 + X) = 2
    [[0, 1], [4, 0]],      # 1 + alpha = 1; det(1 + X) = -3, not a unit
], ids=["alpha", "one-plus-x"])
def test_cayley_mod9_needs_units_not_nonzero(rows):
    X = lie(SYMPL9, rows)
    assert not in_domain(X)
    with pytest.raises(DomainError):
        cayley(X)


def test_domain_containment():
    # in_domain tests two conditions; written out with the third, the
    # pinned verdicts agree (for 2x2 with alpha = trace both singularity
    # tests evaluate to the same determinant 1 + alpha + det(X))
    for rows, want in (([[1, 1], [0, 1]], True), ([[-1, 1], [0, -1]], False),
                       ([[0, 2], [1, 0]], True), ([[2, 0], [0, -3]], False)):
        X = lie(SYMPL, rows)
        assert in_domain(X) == _three_conditions(X) == want


def test_x_lambda_roundtrip_pinned():
    X = lie(SYMPL, [[1, 1], [0, 1]])
    g = cayley(X)
    back = x_lambda(g, SYMPL.ring.scalar(Fraction(1, 3)))
    assert back.mat == X.mat
    with pytest.raises(DomainError):
        x_lambda(g, SYMPL.ring.scalar(Fraction(1, 2)))


def test_fiber_pinned_two_preimages():
    g = certify_group(SYMPL, Mat(SYMPL.ring, [[4, 0], [0, 1]]))
    res = fiber(g)
    assert res.tag == TWO_PREIMAGES
    mats = sorted(p.X.mat.key() for p in res.preimages)
    want = sorted([Mat(SYMPL.ring, [[Fraction(-1, 2), 0], [0, 0]]).key(),
                   Mat(SYMPL.ring, [[Fraction(-3, 2), 0], [0, 0]]).key()])
    assert mats == want


def test_fiber_identity_and_empty():
    one = certify_group(SYMPL, Mat.identity(SYMPL.ring, 2))
    assert fiber(one).tag == INFINITE_IDENTITY
    # mu = 2 is not a rational square
    g = certify_group(SYMPL, Mat(SYMPL.ring, [[2, 0], [0, 1]]))
    assert fiber(g).tag == EMPTY


def test_fiber_mu1():
    g = cayley(lie(SYMPL, [[0, 1], [0, 0]]))
    res = fiber(g)
    assert res.tag == UNIQUE_MU1
    assert res.preimages[0].X.mat == Mat(SYMPL.ring, [[0, 1], [0, 0]])


def test_identity_fiber_membership():
    res = fiber(certify_group(SYMPL, Mat.identity(SYMPL.ring, 2)))
    zero = lie(SYMPL, [[0, 0], [0, 0]])
    assert res.identity_fiber_contains(zero)
    # c(X) = 1 also for alpha = -2 elements in the Cayley domain
    X = lie(SYMPL, [[-1, 1], [1, -1]])
    assert X.alpha == SYMPL.ring.scalar(-2)
    if in_domain(X):
        assert cayley(X).mat == SYMPL.identity()
        assert res.identity_fiber_contains(X)


def test_general_linear_cayley_is_shift():
    X = certify_lie(GL, Mat(GL.ring, [[0, 1], [0, 0]]))
    g = cayley(X)
    assert g.mat == Mat(GL.ring, [[1, 1], [0, 1]])
    res = fiber(g)
    assert res.tag == UNIQUE_MU1 and res.preimages[0].X.mat == X.mat


@pytest.fixture(scope="module")
def census9():
    """The symplectic census mod 9 through ``Mat``: every working-domain
    X bucketed by c(X), and the fiber of every image."""
    buckets = {}
    images = {}
    for comps in _lie_components(SYMPL9, 10**6):
        lieel = certify_lie(SYMPL9,
                            Mat.from_components(SYMPL9.ring, 2, comps))
        if not in_domain(lieel):
            continue
        g = cayley(lieel)
        buckets.setdefault(g.mat.key(), []).append(lieel.mat.key())
        images[g.mat.key()] = g
    for key in buckets:
        buckets[key].sort()
    fibers = {key: fiber(images[key]) for key in sorted(buckets)}
    return buckets, fibers


def test_truncated_fiber_matches_exhaustive_buckets(census9):
    buckets, fibers = census9
    assert len(buckets) == 1215
    assert bucket_domain_images(SYMPL9) == buckets
    for key, res in fibers.items():
        got = sorted(p.X.mat.key() for p in res.preimages)
        assert got == buckets[key]


def test_census_mod9_pinned_digest(census9):
    # sha256 of the buckets, recorded before the census moved onto
    # component tuples, and of every fiber (tag, lambdas, preimage keys),
    # recorded while preimages still carried a computed domain flag
    _, fibers = census9
    assert hashlib.sha256(repr(sorted(
        bucket_domain_images(SYMPL9).items())).encode()).hexdigest() == \
        "91bbfa0e60edba31e183e228033af98fd191013f71bb8e52239c0166c8060d8b"
    data = [(key, res.tag, [lam.a for lam in res.lambdas],
             [pre.X.mat.key() for pre in res.preimages])
            for key, res in fibers.items()]
    assert hashlib.sha256(repr(data).encode()).hexdigest() == \
        "640df4e4d422f0bd4bea91914ae1cb7ca9ff36a64b5bfbfd0c489524fad980a2"
    assert all(in_domain(pre.X)
               for res in fibers.values() for pre in res.preimages)


def _census_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "fiber_census.py"
    spec = importlib.util.spec_from_file_location("fiber_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    return census


def test_fiber_census_script_finds_no_mismatch(capsys):
    assert _census_script().main(["--precision", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "domain images mod 3^1: 15",
        "fiber tags: {'infinite-identity': 1, 'unique-mu1': 14}",
        "fiber sizes: {1: 14, 19: 1}",
        "mismatches: 0",
        "preimages outside the domain: 0"]


def test_fiber_census_script_orthogonal_mod9(capsys):
    assert _census_script().main(["--family", "orthogonal"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "domain images mod 3^2: 27",
        "fiber tags: {'infinite-identity': 1, 'unique-lambda': 18, "
        "'unique-mu1': 8}",
        "fiber sizes: {1: 22, 4: 4, 7: 1}",
        "mismatches: 0",
        "preimages outside the domain: 0"]


CENSUS_MOD5 = {
    SYMPLECTIC: [
        "domain images mod 5^1: 215",
        "fiber tags: {'infinite-identity': 1, 'two-preimages': 70, "
        "'unique-lambda': 50, 'unique-mu1': 94}",
        "fiber sizes: {1: 144, 2: 70, 101: 1}"],
    HERMITIAN: [
        "domain images mod 5^1: 1295",
        "fiber tags: {'infinite-identity': 1, 'two-preimages': 490, "
        "'unique-lambda': 210, 'unique-mu1': 594}",
        "fiber sizes: {1: 804, 2: 490, 521: 1}"],
}


@pytest.mark.parametrize("family", list(CENSUS_MOD5))
def test_fiber_census_script_mod5_has_two_preimage_images(family, capsys):
    # p = 3 has no two-preimage images mod 3 or 9
    assert _census_script().main(
        ["--family", family, "--prime", "5", "--precision", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == CENSUS_MOD5[family] + [
        "mismatches: 0", "preimages outside the domain: 0"]


@pytest.mark.parametrize("argv, message", [
    (["--prime", "4"], "--prime must be an odd prime, got 4"),
    (["--precision", "0"], "--precision must be >= 1, got 0"),
    (["--family", "symplectic", "--dim", "3"],
     "symplectic dimension must be even"),
    (["--dim", "0"], "--dim must be >= 1, got 0"),
    (["--precision", "4"],
     "solution set has 43046721+ elements (limit 1000000)"),
])
def test_fiber_census_script_rejects_bad_input(argv, message, capsys):
    assert _census_script().main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-8, 8), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_theta_commutes_with_cayley(rows):
    X = lie(SYMPL, rows)
    if not in_domain(X):
        return
    assert theta_group(cayley(X)).mat == cayley(theta_lie(X)).mat
    assert in_domain(theta_lie(X))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.lists(st.integers(-8, 8), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_multiplier_identity_property(rows):
    X = lie(SYMPL, rows)
    if not in_domain(X):
        return
    t = (SYMPL.ring.one + X.alpha).inv()
    assert cayley(X).mu == t * t


STDS = {family: standard_lattices(standard_space(family, 2, Ring(3, ext)))
        for family, ext in ((ORTHOGONAL, SPLIT), (SYMPLECTIC, SPLIT),
                            (HERMITIAN, INERT), (SKEW_HERMITIAN, INERT),
                            (GENERAL_LINEAR, SPLIT))}


def _comps(space, m):
    return tuple(m.components())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(STDS)), st.sampled_from([2, 3]),
       st.lists(st.lists(st.integers(-40, 40), min_size=5, max_size=5),
                min_size=2, max_size=2),
       st.integers(1, 26))
def test_integer_kernels_match_the_mat_level_maps(family, N, coords, s):
    # alpha, the working domain, the inverse, the Cayley map and theta on
    # components against certify_lie, in_domain, Mat.inv, cayley and
    # theta_group; members are c(X1) c(X2) s for a unit scalar s
    std = STDS[family]
    space = std.space.truncated(N)
    ring = space.ring
    one = space.identity()
    members = []
    for v in coords:
        X = std.gu_coords.from_coords(v[:std.gu_coords.m]).reduce(N)
        lie_t = certify_lie(space, X)
        x = _comps(space, X)
        alpha = lie_alpha_kernel(space)(x)
        assert alpha == lie_t.alpha.a
        try:
            inverse = _comps(space, (one + X).inv())
        except NotInvertibleError:
            inverse = None
        assert matrix_inverse_kernel(space.ring, space.n)(
            _comps(space, one + X)) == inverse
        image = cayley_kernel(space)(x, alpha)
        assert (image is not None) == in_domain(lie_t)
        if image is None:
            with pytest.raises(DomainError):
                cayley(lie_t)
            continue
        g = cayley(lie_t)
        assert image == (_comps(space, g.mat), g.mu.a)
        members.append(g)
    if len(members) < 2 or s % 3 == 0:
        return
    scalar = Mat.scalar_mat(ring, 2, ring.scalar(s))
    g = certify_group(space, members[0].mat * members[1].mat * scalar)
    mul = product_kernel(ring, 2)
    gx = mul(mul(_comps(space, members[0].mat), _comps(space, members[1].mat)),
             _comps(space, scalar))
    assert gx == _comps(space, g.mat)
    for h in (members[0], members[1], g):
        assert theta_kernel(space)(_comps(space, h.mat)) == \
            _comps(space, theta_group(h).mat)


def _three_conditions(X: LieElem) -> bool:
    """1 + alpha, 1 + X and (1 + alpha) 1 - X all regular: nonzero over
    the exact field, units mod p^N."""
    space = X.space
    regular = bool if space.ring.exact else (lambda s: s.is_unit())
    one = space.identity()
    if not space.has_form:
        return (one + X.mat).is_invertible()
    a1 = space.ring.one + X.alpha
    return (regular(a1) and (one + X.mat).is_invertible()
            and (one * a1 - X.mat).is_invertible())


def _det_is_unit(x, d) -> bool:
    """Whether the 2 x 2 matrix with components x (d per entry, a + b s
    with s^2 = 2 when d = 2) has a determinant that is a unit mod 3."""
    def mul(y, z):
        if d == 1:
            return y[0] * z[0], 0
        return y[0] * z[0] + 2 * y[1] * z[1], y[0] * z[1] + y[1] * z[0]
    a, b, c, e = (x[k:k + d] for k in range(0, 4 * d, d))
    (p0, p1), (q0, q1) = mul(a, e), mul(b, c)
    return ((p0 - q0) ** 2 - 2 * (p1 - q1) ** 2) % 3 != 0


@pytest.mark.parametrize("family", sorted(STDS))
def test_domain_needs_only_two_of_its_three_conditions(family):
    # (1 + alpha) 1 - X = (1 + X)* on the Lie algebra, whose determinant
    # is tau(det(1 + X)), so cayley_kernel and in_domain skip the third
    # condition; written out here, it changes no verdict on any Lie element
    # mod 9 (one in 49 also through in_domain) or on exact sampled ones
    std = STDS[family]
    space = std.space.truncated(2)
    ring = space.ring
    M = ring.modulus
    ident = space.identity().nums
    d = components_per_scalar(space.ring)
    alpha_of, c = lie_alpha_kernel(space), cayley_kernel(space)
    verdicts = set()
    for i, x in enumerate(_lie_components(space, 10**6)):
        alpha = alpha_of(x)
        a1 = (1 + alpha) % M
        three = (a1 % 3 != 0
                 and _det_is_unit([e + v for e, v in zip(ident, x)], d)
                 and (not space.has_form or _det_is_unit(
                     [a1 * e - v for e, v in zip(ident, x)], d)))
        assert (c(x, alpha) is not None) == three
        verdicts.add(three)
        if i % 49 == 0:
            X = LieElem(space, Mat.from_components(space.ring, space.n, x),
                        ring.scalar(alpha))
            assert in_domain(X) == _three_conditions(X) == three
    assert verdicts == {True, False}
    rng = make_rng(148)
    for _ in range(30):
        X = sample_lie(std, rng)
        for Y in (X, LieElem(std.space, -std.space.identity() - X.mat,
                             -2 - X.alpha)):
            assert in_domain(Y) == _three_conditions(Y)


def test_fiber_drops_preimages_with_singular_one_plus_x(monkeypatch):
    # X = -1 solves nothing here, but it is a Lie element (alpha = -2)
    # with 1 + X = 0: fed in as an extra branch solution it must be dropped
    g = cayley(lie(SYMPL9, [[3, 1], [0, 3]]))
    want = [(p.X.mat.key(), p.lam) for p in fiber(g).preimages]
    real = cayley_module._solve_branch

    def with_singular(space, x, lam, t):
        return sorted(real(space, x, lam, t) + [(8, 0, 0, 8)])
    monkeypatch.setattr(cayley_module, "_solve_branch", with_singular)
    got = [(p.X.mat.key(), p.lam) for p in fiber(g).preimages]
    assert got == want and (8, 0, 0, 0, 0, 0, 8, 0) not in \
        [key for key, _ in got]


def _apply_rows(rows, x, M):
    """The sparse-row application the generated linear kernels replace,
    with no modulus when M is None."""
    sums = (sum(c * x[j] for j, c in row) for row in rows)
    return tuple(sums if M is None else (t % M for t in sums))


def _theta_formula(space):
    """theta on members as the matrix product g -> H J^-1 g^T J H^-1
    (the transpose without a form), apart from the entry map of
    ``involution.theta_mat`` that the theta kernel probes."""
    if not space.has_form:
        return Mat.transpose
    left, right = space.H * space.Jinv, space.J * space.Hinv
    return lambda m: left * m.transpose() * right


@pytest.mark.parametrize("N", [None, 1, 2])
@pytest.mark.parametrize("family", sorted(STDS))
def test_compiled_linear_kernels_match_their_sparse_rows(family, N):
    # star and theta, generated from sparse rows, on random tuples; the
    # exact space (N = None) on integers with no modulus
    space = STDS[family].space
    if N is not None:
        space = space.truncated(N)
    M = None if N is None else space.ring.modulus
    D = len(space.identity().nums)
    rng = make_rng(N or 0)
    theta_rows = _sparse_rows(space, _theta_formula(space))
    if space.has_form:
        star_rows = _star_rows(space)
    for _ in range(100):
        x = tuple(rng.randrange(-50, 50) if M is None else rng.randrange(M)
                  for _ in range(D))
        assert theta_kernel(space)(x) == _apply_rows(theta_rows, x, M)
        if not space.has_form:
            continue
        assert star_kernel(space)(x) == _apply_rows(star_rows, x, M)


# -- the exact Cayley kernel against the Mat formula ------------------


def _cayley_formula(X: LieElem):
    """c(X) = (1 - lam X)(1 + X)^-1 with lam = (1 + alpha)^-1 and
    mu = lam^2, in Mat arithmetic (1 + X and mu = 1 without a form);
    None outside the domain."""
    space = X.space
    ring, one = space.ring, space.identity()
    one_plus = one + X.mat
    if not one_plus.is_invertible():
        return None
    if not space.has_form:
        return one_plus, ring.one
    if not ring.one + X.alpha:
        return None
    lam = (ring.one + X.alpha).inv()
    return (one - X.mat * lam) * one_plus.inv(), lam * lam


def _exact_spaces():
    """The five families at n = 1, 2, 3 (symplectic at 2 and 4), and an
    orthogonal form with J = diag(1, 3), whose alpha can have the
    denominator 3 where X has none."""
    out = []
    for family in sorted(STDS):
        ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
        for n in ((2, 4) if family == SYMPLECTIC else (1, 2, 3)):
            out.append(pytest.param(standard_space(family, n, Ring(3, ext)),
                                    id=f"{family}-{n}"))
    ring = Ring(3, SPLIT)
    return out + [pytest.param(validate_space(
        Mat(ring, [[1, 0], [0, 3]]), +1, ring, H=Mat.identity(ring, 2)),
        id="orthogonal-rational-star")]


@pytest.mark.parametrize("space", _exact_spaces())
def test_exact_cayley_is_the_mat_formula(space):
    # sampled X of both Lie algebras, and constructed X outside the
    # domain: 1 + alpha = 0 with 1 + X regular (X = -1/2), and
    # det(1 + X) = 0 (X = -1, and X = -1 on the first basis vector only
    # where that is a Lie element)
    std = standard_lattices(space)
    ring, n = space.ring, space.n
    rng = make_rng(211 + n)
    samples = [sample_lie(std, rng, isometry=k % 2 == 1) for k in range(12)]
    outside = [Mat.scalar_mat(ring, n, Fraction(-1, 2)), -space.identity(),
               Mat.diag(ring, [-1] + [0] * (n - 1))]
    for m in outside:
        try:
            samples.append(certify_lie(space, m))
        except MembershipError:
            pass
    domain_errors = 0
    for X in samples:
        want = _cayley_formula(X)
        assert (want is not None) == in_domain(X)
        if want is None:
            domain_errors += 1
            with pytest.raises(DomainError):
                cayley(X)
            continue
        g = cayley(X)
        assert (g.mat, g.mu) == want
    assert domain_errors >= (2 if space.has_form else 1)


# -- the fixed-operand product kernel and the generated certificate ----


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("ext", [SPLIT, INERT])
@pytest.mark.parametrize("n", [2, 3])
def test_product_map_is_the_product_with_a_fixed_operand(n, ext, N):
    # x -> left x, x -> x right and x -> left x right on random residues,
    # against product_kernel on the same operands
    ring = Ring(3, ext, N)
    space = standard_space(GENERAL_LINEAR, n, ring)
    mul = product_kernel(ring, n)
    D = n * n * components_per_scalar(ring)
    draws = random.Random(100 * n + 10 * N + (ext == INERT))

    def draw():
        return tuple(draws.randrange(3**N) for _ in range(D))
    for _ in range(5):
        left, right = draw(), draw()
        maps = [(cayley_module.product_map(space, left=left),
                 lambda x: mul(left, x)),
                (cayley_module.product_map(space, right=right),
                 lambda x: mul(x, right)),
                (cayley_module.product_map(space, left, right),
                 lambda x: mul(mul(left, x), right))]
        for _ in range(20):
            x = draw()
            for fast, oracle in maps:
                assert fast(x) == oracle(x)


def _certificate_oracle(space):
    """The certificate the generated one replaced: g star(g) on the
    product and star kernels, then mu = its component 0 if it is regular,
    every other component is 0 and the diagonal a-components equal mu."""
    ring, n = space.ring, space.n
    star_of, mul = star_kernel(space), product_kernel(ring, n)
    d = components_per_scalar(ring)
    step, zeros = d * (n + 1), d * n * n - n

    def mu_of(x):
        z = mul(x, star_of(x))
        mu = z[0]
        if (mu if ring.exact else mu % ring.p) and z.count(0) == zeros \
                and z[::step].count(mu) == n:
            return mu
        return None
    return mu_of


def _agree(space, inputs) -> int:
    """Assert the generated certificate equals the oracle, value and type,
    on every tuple of ``inputs``; return the number of members."""
    got_of = cayley_module.multiplier_predicate(space)
    want_of = _certificate_oracle(space)
    members = 0
    for x in inputs:
        got, want = got_of(x), want_of(x)
        assert got == want and type(got) is type(want), (x, got, want)
        members += got is not None
    return members


def _form_spaces():
    """The four form families at n = 2, p = 3, exact, with J = diag(1, 2)
    (star has the coefficients 2 and 1/2) and the dense J = [[2, 1],
    [1, 1]]."""
    out = [standard_space(family, 2, Ring(3, ext)) for family, ext in (
        (SYMPLECTIC, SPLIT), (ORTHOGONAL, SPLIT), (HERMITIAN, INERT),
        (SKEW_HERMITIAN, INERT))]
    ring = Ring(3, SPLIT)
    for J in ([[1, 0], [0, 2]], [[2, 1], [1, 1]]):
        out.append(validate_space(Mat(ring, J), +1, ring,
                                  H=Mat.identity(ring, 2)))
    return out


FORM_IDS = ["symplectic", "orthogonal", "hermitian", "skew-hermitian",
            "rational-star", "dense-J"]


@pytest.mark.parametrize("space", _form_spaces(), ids=FORM_IDS)
def test_generated_certificate_on_every_matrix_mod_3(space):
    target = space.truncated(1)
    d = components_per_scalar(target.ring)
    members = _agree(target, itertools.product(range(3), repeat=4 * d))
    assert 0 < members < 3**(4 * d)


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize("space", _form_spaces(), ids=FORM_IDS)
def test_generated_certificate_on_residues(space, N):
    # members: integral similitudes of the stable lattice times a unit,
    # reduced mod 3^N; non-members: the same with one component moved by
    # 3^(N-1), and random residues
    target = space.truncated(N)
    M = target.ring.modulus
    std = standard_lattices(space)
    rng, draws = make_rng(34 + N), random.Random(34 + N)
    inputs = []
    for _ in range(30):
        unit = draws.choice([1, 2, 4, 5, 7, 8])
        x = [v * unit % M for v in
             sample_stabilizing(std, rng).mat.reduce(N).nums]
        inputs.append(tuple(x))
        x[draws.randrange(len(x))] += 3**(N - 1)
        inputs.append(tuple(v % M for v in x))
        inputs.append(tuple(draws.randrange(M) for _ in x))
    assert _agree(target, inputs) >= 30


@pytest.mark.parametrize("space", _form_spaces(), ids=FORM_IDS)
def test_generated_certificate_on_exact_numerators(space):
    # the numerators of sampled similitudes, scaled ones, one component
    # moved, and random integer tuples
    std = standard_lattices(space)
    rng, draws = make_rng(340), random.Random(340)
    inputs = []
    for _ in range(30):
        x = list(sample_group(std, rng).mat.nums)
        inputs += [tuple(x), tuple(3 * v for v in x)]
        x[draws.randrange(len(x))] += 1
        inputs.append(tuple(x))
        inputs.append(tuple(draws.randint(-9, 9) for _ in x))
    assert _agree(space, inputs) >= 60
