"""The linearizer ``cayley.linear_system`` and every integer system built
with it, pinned by sha256 digests: the Lie enumerations, the Lie-algebra
coordinate bases, the sparse rows of star, and the affine systems of
the conjugator and fiber solves."""

import functools
import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual import cayley as cayley_module
from simdual import modsolve
from simdual.cayley import (_lie_components, _solve_branch, _star_rows,
                            bucket_domain_images, cayley_kernel,
                            comps_key, fiber, lie_alpha_kernel, lie_system,
                            linear_system, multiplier_predicate, star_kernel)
from simdual.decomposition import _conjugator_system
from simdual.lattices import standard_lattices
from simdual.matrices import (Mat, components_per_scalar,
                              matrix_inverse_kernel, parse_matrix,
                              product_kernel)
from simdual.scalars import INERT, SPLIT, Ring, sqrt_mod_prime_power
from simdual.spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                            SKEW_HERMITIAN, SYMPLECTIC, certify_group,
                            certify_lie, standard_space)


@st.composite
def affine_maps(draw):
    D = draw(st.integers(1, 6))
    rows = draw(st.integers(1, 6))
    entries = st.integers(-10**6, 10**6)
    A = draw(st.lists(st.lists(entries, min_size=D, max_size=D),
                      min_size=rows, max_size=rows))
    b = draw(st.lists(entries, min_size=rows, max_size=rows))
    return A, b


@settings(max_examples=200, deadline=None)
@given(affine_maps())
def test_linear_system_recovers_an_integer_affine_map(Ab):
    A, b = Ab

    def f(v):
        return [sum(a * x for a, x in zip(row, v)) - c
                for row, c in zip(A, b)]
    assert linear_system(len(A[0]), f) == (A, b)


def _ext(family):
    return INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT


@pytest.mark.parametrize("N", [None, 2])
@pytest.mark.parametrize("family", [SYMPLECTIC, HERMITIAN])
def test_plus_star_is_probed_once_per_space(monkeypatch, family, N):
    # on a fresh space, lie_system, lie_alpha_kernel and a certify_lie
    # linearize two maps, star on the D components and the Lie residual
    # on D + 1, and the star definition in Mat products runs only for the
    # probe of star
    ring = Ring(3, _ext(family)) if N is None else Ring(3, _ext(family), N)
    space = standard_space(family, 2, ring)
    D = space.n * space.n * components_per_scalar(ring)
    widths, stars = [], []
    probe = cayley_module.linear_system
    definition = cayley_module._star_definition

    def recording(width, f):
        widths.append(width)
        return probe(width, f)

    def counting(on, a):
        stars.append(a)
        return definition(on, a)
    monkeypatch.setattr(cayley_module, "linear_system", recording)
    monkeypatch.setattr(cayley_module, "_star_definition", counting)
    assert lie_system(space) is lie_system(space)
    lie_alpha_kernel(space)
    assert certify_lie(space, Mat(ring, [[1, 2], [-2, 1]])).alpha == \
        ring.scalar(2)
    assert widths == [D, D + 1]
    assert len(stars) == D + 1


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def _scalar(s):
    return [str(s.a), str(s.b)]


PINNED_LIE_KEYS = {
    ("orthogonal", 1):
        "9a99979b962041ad81f802a87e20bf159aab079a2958b68360225d04cbd5b949",
    ("symplectic", 1):
        "67b0da0ab315cc6435bd32fc2e42c5ded621ec0881c7938f336a2f8b92ef9e8c",
    ("hermitian", 1):
        "f163a9768a6e686c30a2f232916924e0fa8444c541b97c9915da795b64cba022",
    ("skew-hermitian", 1):
        "f163a9768a6e686c30a2f232916924e0fa8444c541b97c9915da795b64cba022",
    ("general-linear", 1):
        "fe69d8fb95ab4c7cb73a668502df6aca3797ccb777cc9dd72aa60f3b761d8233",
    ("symplectic", 2):
        "d8350e98992261b943716e41312e33fc9aa13771fe149486c361e1a629cb33a8",
}


@pytest.mark.parametrize("family, N", list(PINNED_LIE_KEYS))
def test_enumerate_lie_matches_the_pinned_digest(family, N):
    space = standard_space(family, 2, Ring(3, _ext(family), N))
    lies = [certify_lie(space, Mat.from_components(space.ring, space.n, comps))
            for comps in _lie_components(space, 10**6)]
    keys = [list(lie.mat.key()) + _scalar(lie.alpha) for lie in lies]
    assert _digest(keys) == PINNED_LIE_KEYS[family, N]


# recorded on the integer kernel basis from the column reduction of
# [E; I], E the Lie system
PINNED_COORDS = {
    "orthogonal":
        "c522d6fe29ffc3606990b78536078d5f2564e59a1c19d50ecc35d20678cb2a52",
    "symplectic":
        "8cb236c28d47849ef000bac2b5d382a05990d5cbeab74ecf2280e8fc365a5903",
    "hermitian":
        "c414f655ff8d2cf75f4c75214fa6a5b8e70b0c75018b52ec4921911b3ac87819",
    "skew-hermitian":
        "c414f655ff8d2cf75f4c75214fa6a5b8e70b0c75018b52ec4921911b3ac87819",
    "general-linear":
        "2af5d3b4d7c297f794c96ad4417ea5100c46d503999e4082aedd6d14f0150f56",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_lie_coordinates_match_the_pinned_digest(family):
    # the basis columns decoded, each with its alpha from certify_lie
    space = standard_space(family, 2, Ring(3, _ext(family)))
    std = standard_lattices(space)
    data = []
    for coords in (std.gu_coords, std.u_coords):
        basis = [Mat.from_components(space.ring, 2, B)
                 for B in coords._basis_comps]
        data.append([[B.to_text() for B in basis],
                     [_scalar(certify_lie(space, B).alpha) for B in basis]])
    assert _digest(data) == PINNED_COORDS[family]


PINNED_STAR_ROWS = {
    SYMPLECTIC:
        "672f2beb713896cf597f44d4ee9aa2347379184fb06d253854b4bb3487f2c3ee",
    HERMITIAN:
        "e4073e2045c3f4117d544984e9fcd776f5cf2205ca6e50523eb59bb941541da9",
}


@pytest.mark.parametrize("family", list(PINNED_STAR_ROWS))
def test_star_rows_match_the_pinned_digest(family):
    space = standard_space(family, 2, Ring(3, _ext(family), 1))
    assert _digest([_star_rows(space)]) == PINNED_STAR_ROWS[family]


PINNED_CONJUGATOR_SYSTEMS = {
    (SYMPLECTIC, 1, "2, 0; 0, 1"):
        "80ca4b3565c44f1ed20d06f3780dd819eb7e99f1e1d789006d7e9968d2df3ae1",
    (GENERAL_LINEAR, 1, "1, 1; 0, 1"):
        "98f963d14f6db30d8b1b0e225503aa2e5b5f6c3ec1e0587eb8c7f7e0bbc7c84b",
    (HERMITIAN, 2, "16+16*s, 17+8*s; 10+19*s, 7+25*s"):
        "122b28dd7c087e4cf3445243489254d1c3ff335a0492dab30045131176a3fffa",
}


@pytest.mark.parametrize("family, N, text", list(PINNED_CONJUGATOR_SYSTEMS))
def test_conjugator_system_matches_the_pinned_digest(family, N, text):
    space = standard_space(family, 2, Ring(3, _ext(family), N))
    a = certify_group(space, parse_matrix(space.ring, text))
    a = tuple(a.mat.components())
    assert (_digest(_conjugator_system(space, a))
            == PINNED_CONJUGATOR_SYSTEMS[family, N, text])


PINNED_BRANCH_SYSTEMS = {
    (SYMPLECTIC, "1, 7; 0, 1"):
        "634a5d3c64673acce597dc4470244ff46b490d10e8df79ce5da03ad239b5ac17",
    (HERMITIAN, "1+2*s, 8+5*s; 1+4*s, 2+1*s"):
        "a21ba122be38c214f97b56dc8045ff73a9c36d9162b003ff7349bf98718139b2",
}


def _lambdas(space, x):
    """The two branches lam, -lam of the fiber over the image with
    components x, in the order ``fiber`` takes them."""
    ring = space.ring
    root = sqrt_mod_prime_power(multiplier_predicate(space)(x), ring.p,
                                ring.prec)
    return root, -root % ring.modulus


def _probed_branch_system(space, x, lam):
    """The (A, b) of a fiber branch built by probing: ``linear_system`` on
    the residual of (lam + g) X = 1 - g and X + X* = (lam^-1 - 1) 1."""
    M = space.ring.modulus
    ident = space.identity().nums
    mul, star_of = product_kernel(space.ring, space.n), star_kernel(space)
    shifted = tuple((lam * e + v) % M for e, v in zip(ident, x))
    rhs = [(e - v) % M for e, v in zip(ident, x)]
    target = [(pow(lam, -1, M) - 1) * e for e in ident]

    def f(v):
        return ([(y - r) % M for y, r in zip(mul(shifted, v), rhs)]
                + [(vi + w - t) % M
                   for vi, w, t in zip(v, star_of(v), target)])
    return linear_system(len(ident), f)


@pytest.fixture
def written(monkeypatch):
    """The (A, b) of every affine solve, recorded as it is handed over."""
    systems = []
    solve = modsolve.solve_affine_mod

    def recording(A, b, p, N, limit):
        systems.append((A, b))
        return solve(A, b, p, N, limit)
    monkeypatch.setattr(modsolve, "solve_affine_mod", recording)
    return systems


def _check_branch(space, x, lam, written):
    """The branch lam of the fiber over the image with components x gives
    the probed solve's solutions, and when lam + g is singular it writes
    exactly the probed system reduced mod p^N (the probe reduces each
    residual, so its differences lie in (-p^N, p^N)).  Returns whether
    lam + g is singular, and the solutions."""
    ring = space.ring
    M = ring.modulus
    A, b = _probed_branch_system(space, x, lam)
    want = modsolve.solve_affine_mod(A, b, ring.p, ring.prec, 10**5)
    shifted = tuple((lam * e + v) % M
                    for e, v in zip(space.identity().nums, x))
    t = matrix_inverse_kernel(space.ring, space.n)(shifted)
    del written[:]
    assert _solve_branch(space, x, lam, t) == want
    if t is not None:
        assert written == []
        return False, want
    (WA, Wb), = written
    assert WA == [[a % M for a in row] for row in A]
    assert Wb == [v % M for v in b]
    return True, want


def _singular_branches(space, x, written):
    """``_check_branch`` on both branches; the number of singular ones."""
    return sum(_check_branch(space, x, lam, written)[0]
               for lam in _lambdas(space, x))


@pytest.mark.parametrize("family, text", [
    pytest.param(*key, id=key[0]) for key in PINNED_BRANCH_SYSTEMS])
def test_fiber_branch_systems_match_the_pinned_digest(written, family, text):
    # the probed (A, b) of both lambda branches, pinned when every branch
    # went to the affine solve; now one branch takes the closed form
    space = standard_space(family, 2, Ring(3, _ext(family), 2))
    g = certify_group(space, parse_matrix(space.ring, text))
    x = tuple(g.mat.components())
    probed = [_probed_branch_system(g.space, x, lam)
              for lam in _lambdas(g.space, x)]
    assert _digest([[A, b] for A, b in probed]) == \
        PINNED_BRANCH_SYSTEMS[family, text]
    assert fiber(g).preimages
    # one symplectic branch is singular; both hermitian ones are units
    assert _singular_branches(g.space, x, written) == (family == SYMPLECTIC)


@functools.cache
def _census(family, n=2):
    """The space and every image of the census mod 9, as components."""
    space = standard_space(family, n, Ring(3, _ext(family), 2))
    keys = sorted(bucket_domain_images(space))
    # a split key lists the pair (a, 0) of every entry
    return space, [k if space.ring.ext == INERT else k[::2] for k in keys]


def _census_images(family, step):
    """Every step-th image of the census mod 9, as components."""
    space, xs = _census(family)
    return space, xs[::step]


@pytest.mark.parametrize("family, step, images",
                         [(SYMPLECTIC, 1, 1215), (HERMITIAN, 33, 509),
                          (SKEW_HERMITIAN, 33, 509)])
def test_fiber_branches_match_the_probed_solve(written, family, step,
                                               images):
    space, xs = _census_images(family, step)
    assert len(xs) == images
    singular = sum(_singular_branches(space, x, written) for x in xs)
    # both kinds of branch occur
    assert 0 < singular < 2 * images


def test_closed_form_branch_is_empty_off_the_multiplier(written):
    # with lam^2 != mu(g), X_lam = (1 - g)(lam + g)^-1 fails
    # X + X* = (lam^-1 - 1) 1 and the probed solve has no solution
    space, xs = _census_images(SYMPLECTIC, 5)
    empty = 0
    for x in xs:
        mu = multiplier_predicate(space)(x)
        for lam in range(1, 9):
            if lam % 3 and lam * lam % 9 != mu:
                singular, sols = _check_branch(space, x, lam, written)
                empty += not singular and not sols
    assert empty


def _sampled_images(space, draws, seed):
    """The images of ``draws`` Lie elements of a truncated symplectic
    space of dimension 2, drawn with a fixed seed (every matrix is one,
    with alpha its trace); every second draw is multiplied by p, so that
    its image is 1 mod p and both branches have 1 + lam or lam + g 0 mod p
    often.  Draws outside the domain have no image."""
    ring = space.ring
    D = space.n * space.n * components_per_scalar(space.ring)
    c, alpha_of = cayley_kernel(space), lie_alpha_kernel(space)
    rng = random.Random(seed)
    images = set()
    for i in range(draws):
        x = tuple(rng.randrange(ring.modulus) * ring.p ** (i % 2)
                  % ring.modulus for _ in range(D))
        image = c(x, alpha_of(x))
        if image is not None:
            images.add(image[0])
    return sorted(images)


def _decided_branches(space, x, written):
    """The fiber over the image with components x against the oracle of
    solving every branch through the probed system and keeping the
    solutions with 1 + X a unit.  Asserts that ``fiber`` gives the
    oracle's preimages and lambdas, that a branch the rule skips holds no
    oracle preimage, and that ``fiber`` hands exactly the unskipped
    branches with lam + g singular to the affine solve.  Returns the kind
    of each branch."""
    ring = space.ring
    p, M = ring.p, ring.modulus
    ident = space.identity().nums
    inv = matrix_inverse_kernel(space.ring, space.n)
    found, kinds = {}, []
    for lam in _lambdas(space, x):
        A, b = _probed_branch_system(space, x, lam)
        sols = [v for v in modsolve.solve_affine_mod(A, b, p, ring.prec,
                                                      10**5)
                if inv(tuple((e + w) % M for e, w in zip(ident, v)))
                is not None]
        for v in sols:
            found.setdefault(v, lam)
        shifted = tuple((lam * e + v) % M for e, v in zip(ident, x))
        if (1 + lam) % p:
            kind = "closed" if inv(shifted) is not None else "singular"
        else:
            kind = "off" if any(v % p for v in shifted) else "solved"
        assert kind in ("closed", "solved") or not sols
        kinds.append(kind)
    del written[:]
    res = fiber(certify_group(
        space, Mat.from_components(space.ring, space.n, x)))
    assert len(written) == kinds.count("solved")
    assert [(pre.X.mat.key(), pre.lam.a) for pre in res.preimages] == \
        [(comps_key(space, v), lam) for v, lam in sorted(found.items())]
    assert [lam.a for lam in res.lambdas] == \
        [lam for lam in _lambdas(space, x) if lam in found.values()]
    return kinds


def _census_or_sample(family, n, p, step):
    if p == 3:
        space, xs = _census(family, n)
        return space, xs[::step]
    space = standard_space(family, n, Ring(p, _ext(family), 2))
    return space, _sampled_images(space, step, seed=22)


@pytest.mark.parametrize("family, n, p, step, kinds", [
    (SYMPLECTIC, 2, 3, 1, {"closed": 1215, "off": 1134, "solved": 81}),
    (ORTHOGONAL, 3, 3, 1, {"closed": 1215, "off": 1134, "solved": 81}),
    (HERMITIAN, 2, 3, 99, {"closed": 170, "off": 168, "solved": 2}),
    (SYMPLECTIC, 2, 5, 100,
     {"closed": 91, "off": 11, "singular": 5, "solved": 57}),
])
def test_decided_branches_match_solving_every_branch(written, family, n, p,
                                                     step, kinds):
    # every image of the symplectic and orthogonal censuses mod 9, every
    # step-th hermitian one, and the images of step draws mod 25: fiber
    # equals the oracle, skipping the branches of no domain preimage
    space, xs = _census_or_sample(family, n, p, step)
    counts = {}
    for x in xs:
        for kind in _decided_branches(space, x, written):
            counts[kind] = counts.get(kind, 0) + 1
    assert dict(sorted(counts.items())) == kinds


@pytest.mark.parametrize("family, solves", [(SYMPLECTIC, 81),
                                            (HERMITIAN, 243)])
def test_census_mod9_makes_one_affine_solve_per_solved_branch(written,
                                                              family,
                                                              solves):
    # of the 2 x 1215 symplectic and 2 x 16767 hermitian branches, only
    # those with 1 + lam and lam + g both 0 mod p reach the affine solve
    space, xs = _census(family)
    del written[:]                  # the Lie enumeration solves once
    for x in xs:
        fiber(certify_group(
            space, Mat.from_components(space.ring, space.n, x)))
    assert len(written) == solves
