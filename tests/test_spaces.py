import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual import cayley as cayley_module
from simdual.cayley import multiplier_predicate
from simdual.lattices import standard_lattices
from simdual.matrices import Mat
from simdual.sampling import (make_rng, sample_group, sample_lie,
                              sample_stabilizing)
from simdual.scalars import INERT, SPLIT, Ring
from simdual.suites import SuiteConfig, run_suite
from simdual.spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                            SKEW_HERMITIAN, SYMPLECTIC, MembershipError,
                            SpaceError, certify_group, certify_lie,
                            lie_alpha, similitude_multiplier, standard_space,
                            star, validate_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
HERM = standard_space(HERMITIAN, 2, Ring(3, INERT))


def test_standard_space_constraints():
    with pytest.raises(SpaceError):
        standard_space(SYMPLECTIC, 3, Ring(3, SPLIT))
    with pytest.raises(SpaceError):
        standard_space(HERMITIAN, 2, Ring(3, SPLIT))
    with pytest.raises(SpaceError):
        standard_space(SYMPLECTIC, 2, Ring(3, INERT))


def test_validate_space_rejects_bad_j():
    ring = Ring(3, SPLIT)
    with pytest.raises(SpaceError):
        validate_space(Mat(ring, [[1, 1], [0, 1]]), -1, ring)
    with pytest.raises(SpaceError):
        validate_space(Mat(ring, [[0, 0], [0, 0]]), 1, ring)


def test_star_pinned_symplectic():
    a = Mat(SYMPL.ring, [[1, 2], [3, 4]])
    assert star(SYMPL, a) == Mat(SYMPL.ring, [[4, -2], [-3, 1]])


def test_star_is_anti_involution():
    a = Mat(SYMPL.ring, [[1, 2], [3, 4]])
    b = Mat(SYMPL.ring, [[0, 1], [2, 5]])
    assert star(SYMPL, a * b) == star(SYMPL, b) * star(SYMPL, a)
    assert star(SYMPL, star(SYMPL, a)) == a


def test_star_hermitian_conjugates():
    ring = HERM.ring
    a = Mat(ring, [[ring.scalar(1, 1), 0], [0, 1]])
    s = star(HERM, a)
    assert s[0, 0] == ring.scalar(1, -1)


def test_inner_form_symmetry():
    # the vectors u and v are the first columns of square matrices, the
    # other column zero, as products stay square
    ring = HERM.ring
    u = Mat(ring, [[ring.scalar(1, 1), 0], [ring.scalar(2), 0]])
    v = Mat(ring, [[ring.scalar(0, 1), 0], [ring.scalar(1, -1), 0]])

    def inner(x, y):         # <x, y> = x^T J tau(y), as a 1 x 1 matrix
        return Mat(ring, [[(x.transpose() * HERM.J * y.tau())[0, 0]]])
    # <u, v> = eps * tau(<v, u>)
    assert inner(u, v) == inner(v, u).tau() * HERM.eps
    # star is the adjoint: <a u, v> = <u, star(a) v>
    a = Mat(ring, [[ring.scalar(2, 1), 1], [0, ring.scalar(1, 2)]])
    assert inner(a * u, v) == inner(u, star(HERM, a) * v)


def test_alpha_pinned():
    X = Mat(SYMPL.ring, [[1, 2], [3, 4]])
    assert certify_lie(SYMPL, X).alpha == SYMPL.ring.scalar(5)


def test_multiplier_and_membership():
    g = Mat(SYMPL.ring, [[2, 0], [0, 1]])
    assert similitude_multiplier(SYMPL, g) == SYMPL.ring.scalar(2)
    assert certify_group(SYMPL, g).mu == SYMPL.ring.scalar(2)
    # hermitian: a random diagonal unitary-ish matrix fails unless norms match
    ring = HERM.ring
    bad = Mat(ring, [[ring.scalar(1, 1), 0], [0, 1]])
    assert similitude_multiplier(HERM, bad) is None
    with pytest.raises(MembershipError):
        certify_group(HERM, bad)


def test_multiplier_must_be_unit_when_truncated():
    st_sympl = SYMPL.truncated(2)
    g = Mat(st_sympl.ring, [[3, 0], [0, 1]])
    assert similitude_multiplier(st_sympl, g) is None


def test_general_linear_conventions():
    gl = standard_space(GENERAL_LINEAR, 2, Ring(3, SPLIT))
    g = Mat(gl.ring, [[1, 1], [0, 1]])
    assert certify_group(gl, g).mu == gl.ring.one
    assert certify_lie(gl, Mat(gl.ring, [[7, 0], [1, 2]])).alpha == gl.ring.zero
    with pytest.raises(SpaceError):
        star(gl, g)
    assert not gl.has_form


def test_all_standard_families_have_valid_h():
    for family in FAMILIES:
        if family == GENERAL_LINEAR:
            continue
        ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
        space = standard_space(family, 2, Ring(3, ext))
        from simdual.involution import validate_anti_unitary
        validate_anti_unitary(space, space.H)


@settings(max_examples=60)
@given(st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=2),
                min_size=2, max_size=2))
def test_symplectic_lie_membership_criterion(rows):
    X = Mat(SYMPL.ring, rows)
    alpha = lie_alpha(SYMPL, X)
    # every 2x2 matrix is in the symplectic similitude Lie algebra,
    # with alpha equal to the trace
    assert alpha == X[0, 0] + X[1, 1]


def scalar_multiplier(space, g):
    """The certificate in ``Scalar`` arithmetic that the integer one
    replaced: g star(g) = mu 1 with mu a regular element of the base
    field, mu = 1 for an invertible g without a form."""
    ring = space.ring
    if not space.has_form:
        return ring.one if g.is_invertible() else None
    mu = (g * star(space, g)).scalar_part()
    if mu is None or mu.y != 0:
        return None
    return mu if (bool(mu) if ring.exact else mu.is_unit()) else None


def _certificates_agree(space, g) -> bool:
    """Assert that similitude_multiplier is the Scalar certificate, with
    the same storage; return whether g is a member."""
    want, got = scalar_multiplier(space, g), similitude_multiplier(space, g)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.x, got.y, got.d) == (want.x, want.y, want.d)
    return got is not None


def _spaces(N):
    """The five families at n = 2, p = 3 (mod p^N, or exact for None),
    the general-linear family over both rings."""
    out = []
    for family in FAMILIES:
        for ext in (SPLIT, INERT):
            if (ext == INERT) == (family in (HERMITIAN, SKEW_HERMITIAN)) \
                    or family == GENERAL_LINEAR:
                space = standard_space(family, 2, Ring(3, ext))
                out.append(space if N is None else space.truncated(N))
    return out


@pytest.mark.parametrize("space", _spaces(1),
                         ids=lambda s: f"{s.family}-{s.ring.ext}")
def test_certificate_on_every_matrix_mod_3(space):
    d = 2 if space.ring.ext == INERT else 1
    members = sum(_certificates_agree(
        space, Mat.from_components(space.ring, space.n, x))
                  for x in itertools.product(range(3), repeat=4 * d))
    assert 0 < members < 3**(4 * d)


@pytest.mark.parametrize("space", _spaces(3),
                         ids=lambda s: f"{s.family}-{s.ring.ext}")
def test_certificate_on_random_matrices_mod_27(space):
    # members: integral Cayley images c(3 X) times a unit scalar, reduced
    # mod 27; non-members: the same with one component moved by 9, and
    # random matrices
    ring = space.ring
    std = standard_lattices(standard_space(space.family, 2,
                                           Ring(3, ring.ext)))
    rng, draws = make_rng(27), random.Random(27)
    verdicts = []
    for _ in range(40):
        g = sample_stabilizing(std, rng).mat.reduce(3)
        unit = draws.choice([1, 2, 4, 5, 7, 8])
        x = [v * unit for v in g.components()]
        verdicts.append(_certificates_agree(
            space, Mat.from_components(space.ring, space.n, x)))
        x[draws.randrange(len(x))] += 9
        verdicts.append(_certificates_agree(
            space, Mat.from_components(space.ring, space.n, x)))
        verdicts.append(_certificates_agree(space, Mat.from_components(
            space.ring, space.n, [draws.randrange(27) for _ in x])))
    assert verdicts[::3] == [True] * 40
    assert False in verdicts


@pytest.mark.parametrize("space", _spaces(None),
                         ids=lambda s: f"{s.family}-{s.ring.ext}")
def test_certificate_on_exact_draws(space):
    # sampled members, the same with one entry moved by 1/3, random
    # rational matrices, and singular ones (two equal rows), which no
    # family admits
    ring = space.ring
    rng, draws = make_rng(7), random.Random(7)
    std = standard_lattices(space)
    verdicts = []
    for _ in range(25):
        g = sample_group(std, rng).mat
        verdicts.append(_certificates_agree(space, g))
        rows = [list(row) for row in g.rows]
        rows[draws.randrange(2)][draws.randrange(2)] += Fraction(1, 3)
        verdicts.append(_certificates_agree(space, Mat(ring, rows)))
        row = [ring.scalar(Fraction(draws.randint(-9, 9), draws.randint(1, 9)))
               for _ in range(2)]
        verdicts.append(_certificates_agree(space, Mat(ring, [row, row])))
        verdicts.append(_certificates_agree(space, Mat(ring, [row, [
            ring.scalar(Fraction(draws.randint(-9, 9), draws.randint(1, 9)))
            for _ in range(2)]])))
    assert verdicts[::4] == [True] * 25
    assert verdicts[2::4] == [False] * 25


def test_certificate_with_a_rational_star_coefficient():
    # J = diag(1, 2): star(a) = J^-1 a^T J has the coefficients 2 and 1/2
    ring = Ring(3, SPLIT)
    space = validate_space(Mat(ring, [[1, 0], [0, 2]]), +1, ring)
    assert space.family == ORTHOGONAL
    half = Fraction(1, 2)
    members = [Mat(ring, [[Fraction(2, 3), 0], [0, Fraction(2, 3)]]),
               Mat(ring, [[1, 0], [0, -1]]),
               Mat(ring, [[half, -1], [half, half]])]
    others = [Mat(ring, [[1, 2], [0, 1]]), Mat(ring, [[half, 1], [0, 3]]),
              Mat.zeros(ring, 2)]
    assert [_certificates_agree(space, g) for g in members + others] == \
        [True] * 3 + [False] * 3


def test_general_linear_certificate_off_the_split_ring_inverts():
    # the integer predicate covers the general-linear family only mod p^N
    # over the split ring; elsewhere similitude_multiplier inverts g
    for ring in (Ring(3, INERT, 2), Ring(3, INERT), Ring(3, SPLIT)):
        gl = standard_space(GENERAL_LINEAR, 2, ring)
        with pytest.raises(SpaceError):
            multiplier_predicate(gl)
        assert similitude_multiplier(gl, gl.identity()) == ring.one
        assert similitude_multiplier(gl, Mat.zeros(ring, 2)) is None


# -- the integer alpha certificate against the Mat-level test ----------


def lie_alpha_oracle(space, X):
    """The Mat-level test that the integer certificate replaced:
    X + star(X) = alpha 1 with alpha in the base field, else None; every
    X is a member with alpha = 0 without a form."""
    ring = space.ring
    if not space.has_form:
        return ring.zero
    alpha = (X + star(space, X)).scalar_part()
    if alpha is None or alpha.y != 0:
        return None
    return alpha


def _lie_certificates_agree(space, X) -> bool:
    """Assert that certify_lie agrees with ``lie_alpha_oracle``, with the
    same storage, and rejects exactly its non-members; return whether X
    is a member."""
    want = lie_alpha_oracle(space, X)
    if want is None:
        with pytest.raises(MembershipError, match="not in the similitude Lie"):
            certify_lie(space, X)
        return False
    got = certify_lie(space, X).alpha
    assert (got.x, got.y, got.d) == (want.x, want.y, want.d)
    return True


@pytest.mark.parametrize("N", [None, 2])
@pytest.mark.parametrize("space", _spaces(None),
                         ids=lambda s: f"{s.family}-{s.ring.ext}")
def test_lie_certificate_matches_the_mat_level_test(space, N):
    # 200 sample_lie draws of both Lie algebras (mod 9: their numerators);
    # random matrices; over the inert ring the draws plus sqrt(u) times a
    # random diagonal, which X + X* cancels for a form, and the same with
    # one off-diagonal sqrt(u) part, which it does not
    std = standard_lattices(space)
    target = space if N is None else space.truncated(N)
    ring = target.ring
    inert = ring.ext == INERT
    rng, draws = make_rng(26), random.Random(26)

    def entry():
        return (ring.scalar(Fraction(draws.randint(-9, 9), draws.randint(1, 9)))
                if N is None else ring.scalar(draws.randrange(9)))

    def on_target(X):
        if N is None:
            return X
        x, _ = X.numerators()
        return Mat.from_components(ring, 2, [v % 9 for v in x])

    verdicts = []
    for k in range(200):
        X = on_target(sample_lie(std, rng, isometry=k % 2 == 1).mat)
        verdicts.append(_lie_certificates_agree(target, X))
        verdicts.append(_lie_certificates_agree(target, Mat(
            ring, [[entry(), entry()], [entry(), entry()]])))
        if inert:
            s = ring.gen
            diagonal = Mat(ring, [[entry() * s, 0], [0, entry() * s]])
            verdicts.append(_lie_certificates_agree(target, X + diagonal))
            verdicts.append(_lie_certificates_agree(
                target, X + Mat(ring, [[0, s], [0, 0]])))
    step = 4 if inert else 2
    assert verdicts[::step] == [True] * 200
    # every 2 x 2 matrix is a symplectic similitude Lie element
    if space.family not in (SYMPLECTIC, GENERAL_LINEAR):
        assert False in verdicts[1::step]
    if inert:
        assert verdicts[2::step] == [True] * 200
        assert verdicts[3::step] == [not space.has_form] * 200


def test_lie_certificate_with_a_rational_star_coefficient():
    # J = diag(1, 2): X + X* = [[2a, b + 2c], [c + b/2, 2d]] for
    # X = [[a, b], [c, d]], a member exactly when a = d and b = -2c
    ring = Ring(3, SPLIT)
    space = validate_space(Mat(ring, [[1, 0], [0, 2]]), +1, ring)
    third = Fraction(1, 3)
    members = [Mat(ring, [[third, 2], [-1, third]]),
               Mat(ring, [[1, -1], [Fraction(1, 2), 1]]), Mat.zeros(ring, 2)]
    others = [Mat(ring, [[1, 0], [0, 2]]), Mat(ring, [[0, 1], [1, 0]]),
              Mat(ring, [[third, 1], [Fraction(1, 2), third]])]
    assert [_lie_certificates_agree(space, X) for X in members + others] \
        == [True] * 3 + [False] * 3
    assert certify_lie(space, members[0]).alpha == ring.scalar(2 * third)


def test_truncated_copies_share_their_kernels(monkeypatch):
    # one truncated space per precision, shared by every copy of the
    # space, so star and theta are probed once per precision: twice at
    # 3^3 in the hermitian decompose suite (19 times with a fresh copy per
    # call), and once per form family at 3^2 in a round of the default
    # suites of the five families (12 times)
    space = standard_space(HERMITIAN, 2, Ring(3, INERT))
    assert space.truncated(3) is space.truncated(3)
    assert space.truncated(3).truncated(1) is space.truncated(1)
    assert space.truncated(1).truncated(1) is space.truncated(1)
    assert space.truncated(2) == standard_space(HERMITIAN, 2,
                                                Ring(3, INERT, 2))
    probes = []
    sparse_rows = cayley_module._sparse_rows

    def counting(on, f):
        probes.append(on.ring.prec)
        return sparse_rows(on, f)
    monkeypatch.setattr(cayley_module, "_sparse_rows", counting)
    run_suite(SuiteConfig(family=HERMITIAN, suites=("decompose",)))
    assert probes.count(3) == 2
    probes.clear()
    for family in FAMILIES:
        run_suite(SuiteConfig(family=family, samples=25, seed=7))
    assert probes.count(2) == 4
