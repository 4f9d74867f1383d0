import random
from fractions import Fraction

import pytest

from simdual.cayley import DomainError, cayley
from simdual import decomposition
from simdual.decomposition import find_conjugator_mod
from simdual.finite import OMINUS, OPLUS, finite_space
from simdual.involution import (AntiUnitaryError, ConjugatorNotFound,
                                enumerate_matrices, iota_group,
                                is_theta_fixed, theta_group, theta_lie,
                                validate_anti_unitary)
from simdual.matrices import Mat
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN,
                            SKEW_HERMITIAN, SYMPLECTIC, GroupElem,
                            SpaceError, certify_group, certify_lie,
                            standard_space, star, validate_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
HERM = standard_space(HERMITIAN, 2, Ring(3, INERT))
SYMPL_F3 = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT, 1))
GL_F3 = standard_space(GENERAL_LINEAR, 2, Ring(3, SPLIT, 1))


def test_validate_anti_unitary_accepts_standard_h():
    for space in (SYMPL, HERM):
        assert validate_anti_unitary(space, space.H) is None
        assert space.H * space.H.tau() == space.identity()


def test_validate_anti_unitary_rejects_corruption():
    bad = Mat(SYMPL.ring, [[1, 1], [0, 1]])
    with pytest.raises(AntiUnitaryError):
        validate_anti_unitary(SYMPL, bad)


def test_similitude_mode_scales():
    # 2 H is an anti-unitary similitude, not an involution
    scaled = SYMPL.H * 2
    with pytest.raises(AntiUnitaryError):
        validate_anti_unitary(SYMPL, scaled)


def test_theta_is_involutive_anti_automorphism():
    a = certify_group(SYMPL, Mat(SYMPL.ring, [[2, 1], [1, 1]]))
    b = certify_group(SYMPL, Mat(SYMPL.ring, [[1, 2], [0, 1]]))
    assert theta_group(theta_group(a)).mat == a.mat
    assert theta_group(a * b).mat == (theta_group(b) * theta_group(a)).mat
    assert theta_group(a).mu == a.mu


def test_iota_is_automorphism():
    a = certify_group(SYMPL, Mat(SYMPL.ring, [[2, 1], [1, 1]]))
    b = certify_group(SYMPL, Mat(SYMPL.ring, [[1, 2], [0, 1]]))
    assert iota_group(a * b).mat == (iota_group(a) * iota_group(b)).mat


def test_theta_lie_preserves_alpha():
    X = certify_lie(SYMPL, Mat(SYMPL.ring, [[1, 2], [3, 4]]))
    tX = theta_lie(X)
    assert tX.alpha == X.alpha
    assert theta_lie(tX).mat == X.mat


def test_theta_general_linear_is_transpose():
    g = certify_group(GL_F3, Mat(GL_F3.ring, [[1, 1], [0, 1]]))
    assert theta_group(g).mat == g.mat.transpose()


def test_enumerate_matrices_count():
    assert sum(1 for _ in enumerate_matrices(Ring(3, SPLIT, 1), 1, 3)) == 3
    assert sum(1 for _ in enumerate_matrices(Ring(3, INERT, 1), 1, 9)) == 9


def test_pinned_conjugator_symplectic_f3():
    a = certify_group(SYMPL_F3, Mat(SYMPL_F3.ring, [[2, 0], [0, 1]]))
    assert not is_theta_fixed(a)
    x = find_conjugator_mod(a)
    assert x.mat == Mat(SYMPL_F3.ring, [[0, 1], [2, 0]])
    assert x.mu == SYMPL_F3.ring.one
    assert theta_group(x).mat == x.mat
    assert x.mat * a.mat * x.mat.inv() == theta_group(a).mat


def test_pinned_conjugator_general_linear():
    a = certify_group(GL_F3, Mat(GL_F3.ring, [[1, 1], [0, 1]]))
    x = find_conjugator_mod(a)
    assert x.mat == Mat(GL_F3.ring, [[0, 1], [1, 0]])


def test_theta_fixed_gets_identity_conjugator(monkeypatch):
    a = certify_group(SYMPL_F3, Mat(SYMPL_F3.ring, [[2, 0], [0, 2]]))
    assert is_theta_fixed(a)
    monkeypatch.setattr(decomposition, "CONJUGATOR_BUDGET", 0)
    x = find_conjugator_mod(a)
    assert x.mat == SYMPL_F3.identity()


def test_conjugator_exhaustion_raises(monkeypatch):
    a = certify_group(SYMPL_F3, Mat(SYMPL_F3.ring, [[2, 0], [0, 1]]))
    monkeypatch.setattr(decomposition, "CONJUGATOR_BUDGET", 0)
    with pytest.raises(ConjugatorNotFound) as info:
        find_conjugator_mod(a)
    assert info.value.tried == 0


# -- product, star and theta against oracles that do not run them ------
#
# Mat products, star and theta each run one generated kernel, and the
# star and theta kernels are probed from definitions in Mat products.
# The product is checked against the termwise sum of scalar products,
# and star and theta (the maps on entries the kernels compute) against
# matrix formulas other than the probed definitions.


def _oracle_spaces():
    """All five families at p = 3, exact and mod 9, the finite o+ and o-
    spaces at q = 5, and an orthogonal form with a J that is not monomial
    (every entry of star and theta a sum of several terms), exact and
    mod 9."""
    spaces = []
    for family in FAMILIES:
        ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
        space = standard_space(family, 2, Ring(3, ext))
        spaces += [pytest.param(space, id=f"{family}-exact"),
                   pytest.param(space.truncated(2), id=f"{family}-mod9")]
    spaces += [pytest.param(finite_space(family, 2, 5)[0], id=f"{family}-F5")
               for family in (OPLUS, OMINUS)]
    ring = Ring(3, SPLIT)
    dense = validate_space(Mat(ring, [[2, 1], [1, 1]]), +1, ring,
                           H=Mat.identity(ring, 2))
    return spaces + [pytest.param(dense, id="dense-J-exact"),
                     pytest.param(dense.truncated(2), id="dense-J-mod9")]


ENTRY_MAP_SPACES = _oracle_spaces()


def _random_scalar(ring, rng):
    if ring.exact:
        def part():
            return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 9)))
    else:
        def part():
            return rng.randrange(ring.modulus)
    b = part() if ring.ext == INERT else 0
    return ring.scalar(part(), b)


def _random_matrices(space, rng, count=25, invertible=False):
    out = []
    while len(out) < count:
        m = Mat(space.ring, [[_random_scalar(space.ring, rng)
                              for _ in range(space.n)]
                             for _ in range(space.n)])
        if not invertible or m.is_invertible():
            out.append(m)
    return out


def _star_formula(space, a):
    return _termwise_product(_termwise_product(space.Jinv, a.transpose()),
                             space.J).tau()


def _theta_group_formula(g):
    space = g.space
    return (space.H * g.mat.inv().tau() * space.Hinv) * g.mu


def _theta_lie_formula(X):
    space = X.space
    return Mat.scalar_mat(space.ring, space.n, X.alpha) \
        - space.H * X.mat.tau() * space.Hinv


def _termwise_product(a, b):
    """a b, entry (i, j) the sum of the scalar products a_ik b_kj taken
    term by term: the oracle for the generated product kernel."""
    n, zero = a.nrows, a.ring.zero
    return Mat(a.ring, [[sum((a[i, k] * b[k, j] for k in range(n)), zero)
                         for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("space", ENTRY_MAP_SPACES)
def test_product_is_the_termwise_sum(space):
    rng = random.Random(17)
    mats = _random_matrices(space, rng, count=26)
    for a, b in zip(mats, mats[1:]):
        assert a * b == _termwise_product(a, b)
    for a in mats[:5]:
        for P in (space.J, space.H) if space.has_form else ():
            assert P * a == _termwise_product(P, a)
            assert a * P == _termwise_product(a, P)


@pytest.mark.parametrize("space", ENTRY_MAP_SPACES)
def test_star_entry_map_is_the_matrix_formula(space):
    rng = random.Random(19)
    if not space.has_form:
        with pytest.raises(SpaceError):
            star(space, space.identity())
        return
    for a in _random_matrices(space, rng):
        assert star(space, a) == _star_formula(space, a)


def _random_members(space, rng, count=25):
    """Certified members s c(Y - Y* + b 1) for random matrices Y, base
    scalars b and unit scalars s."""
    ring = space.ring
    out = []
    while len(out) < count:
        Y, = _random_matrices(space, rng, count=1)
        b = ring.scalar(_random_scalar(ring, rng).a)
        s = _random_scalar(ring, rng)
        try:
            g = cayley(certify_lie(space, Y - star(space, Y)
                                   + Mat.scalar_mat(ring, space.n, b)))
        except DomainError:
            continue
        if s if ring.exact else s.is_unit():
            out.append(certify_group(space, g.mat * s))
    return out


@pytest.mark.parametrize("space", ENTRY_MAP_SPACES)
def test_theta_group_entry_map_is_the_matrix_formula(space):
    # on certified members the entry map, which takes no inverse, is the
    # formula mu H tau(g^-1) H^-1; in the general-linear family theta is
    # the transpose of any invertible g, whatever its mu
    rng = random.Random(23)
    if not space.has_form:
        for g in _random_matrices(space, rng, invertible=True):
            mu = _random_scalar(space.ring, rng)
            x = GroupElem(space, g, mu)
            assert theta_group(x).mat == g.transpose()
            assert theta_group(x).mu == mu
        return
    for x in _random_members(space, rng):
        assert theta_group(x).mat == _theta_group_formula(x)
        assert theta_group(x).mu == x.mu


def _random_lie(space, rng, count=25):
    """Certified Lie elements Y - Y* + b 1 for random matrices Y and base
    scalars b; any Y without a form."""
    ring = space.ring
    out = []
    for Y in _random_matrices(space, rng, count=count):
        if space.has_form:
            b = ring.scalar(_random_scalar(ring, rng).a)
            Y = Y - star(space, Y) + Mat.scalar_mat(ring, space.n, b)
        out.append(certify_lie(space, Y))
    return out


@pytest.mark.parametrize("space", ENTRY_MAP_SPACES)
def test_theta_lie_entry_map_is_the_matrix_formula(space):
    # on certified Lie elements theta_mat, the entry map theta_lie runs,
    # is the formula alpha 1 - H tau(X) H^-1
    rng = random.Random(29)
    for X in _random_lie(space, rng):
        want = (_theta_lie_formula(X) if space.has_form
                else X.mat.transpose())
        assert theta_lie(X).mat == want
        assert theta_lie(X).alpha == X.alpha
