import functools
import hashlib
import itertools
import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from simdual.cayley import cayley, in_domain, linear_kernel
from simdual.involution import theta_group
from simdual import lattices, modsolve
from simdual.cayley import (comps_key, identity_comps, multiplier_predicate,
                            product_kernel, star_kernel)
from simdual.lattices import (LatticeBasis, LatticeError, LieCoords,
                              Operator, _check_h_stable, _hnf, ad_operator,
                              check_cayley_level, congruence_members,
                              lattice_of_x, standard_lattices)
from simdual.matrices import Mat, components_per_scalar
from simdual.modsolve import SolveBudgetError
from simdual.sampling import make_rng, sample_group, sample_lie
from simdual.scalars import INERT, SPLIT, Ring, val_fraction, val_int
from simdual.spaces import (GENERAL_LINEAR, HERMITIAN, ORTHOGONAL,
                            SKEW_HERMITIAN, SYMPLECTIC,
                            certify_group, certify_lie,
                            similitude_multiplier, standard_space)

SYMPL = standard_space(SYMPLECTIC, 2, Ring(3, SPLIT))
STD = standard_lattices(SYMPL)
HERM1 = standard_space(HERMITIAN, 1, Ring(3, INERT))
STD_H1 = standard_lattices(HERM1)


# -- views: bases and operators as split-field scalars and Fractions ----


@functools.cache
def _field(p: int) -> Ring:
    """The exact split ring F, one object per p, for every view."""
    return Ring(p)


def _cols(lat: LatticeBasis) -> tuple:
    """The basis columns of ``lat`` as scalars of the split field."""
    ring = _field(lat.p)
    return tuple(tuple(ring.ratio(x, 0, lat.den) for x in col)
                 for col in lat.nums)


def _rows(op) -> tuple:
    """The entries of the operator ``op`` as Fractions, row by row."""
    return tuple(tuple(Fraction(x, op.den) for x in row) for row in op.nums)


# -- oracles: the meet by duals and the congruence residue scan ---------


def _dual_rows(cols, den: int) -> tuple[list, int]:
    """The rows of B^-1 for the basis matrix B with the lower-triangular
    integer columns ``cols`` over ``den``, as integer rows over one
    denominator.  With T the integer matrix of B and P the product of its
    pivots, P T^-1 is integral, and forward substitution finds it column
    by column with exact divisions; then B^-1 = (den / P) (P T^-1)."""
    dim = len(cols)
    P = math.prod(col[i] for i, col in enumerate(cols))
    inv_cols = []
    for k in range(dim):
        z = [0] * dim
        for i in range(k, dim):
            rest = (P if i == k else 0) - sum(cols[j][i] * z[j]
                                              for j in range(k, i))
            z[i], r = divmod(rest, cols[i][i])
            assert not r, "the basis is not lower triangular"
        inv_cols.append(z)
    return [[col[i] * den for col in inv_cols] for i in range(dim)], P


def intersect(a: LatticeBasis, b: LatticeBasis) -> LatticeBasis:
    """a meet b as the dual of the sum of the duals: the rows of B^-1 span
    the dual of the lattice with basis matrix B."""
    assert (a.p, a.dim) == (b.p, b.dim)
    (rows_a, da), (rows_b, db) = (_dual_rows(a.nums, a.den),
                                  _dual_rows(b.nums, b.den))
    den = math.lcm(da, db)
    rows = ([[x * (den // da) for x in row] for row in rows_a]
            + [[x * (den // db) for x in row] for row in rows_b])
    sum_dual = _hnf(a.p, a.dim, rows, den)
    return LatticeBasis(a.p, a.dim, *_hnf(a.p, a.dim, *_dual_rows(*sum_dual)))


def _lattice_by_meet(coords, x):
    """Ad(x^-1) L meet L as the meet of the image of L with L."""
    image = coords.standard_lattice().transform(ad_operator(coords, x.inv()))
    return intersect(image, coords.standard_lattice())


def _congruence_scan(space, k, N):
    """[(comps, mu)] for every residue 1 + p^k Y mod p^N that
    ``multiplier_predicate`` accepts, sorted: the scan of all
    p^(D (N - k)) residues."""
    space_t = space.truncated(N)
    pk, M = space_t.ring.p**k, space_t.ring.modulus
    mu_of = multiplier_predicate(space_t)
    entries = []
    for coeffs in itertools.product(range(space_t.ring.p**(N - k)),
                                    repeat=len(identity_comps(space_t))):
        comps = tuple((e + c * pk) % M
                      for e, c in zip(identity_comps(space_t), coeffs))
        mu = mu_of(comps)
        if mu is not None:
            entries.append((comps, mu))
    return sorted(entries)


def hnf_columns(p, dim, cols):
    """The Hermite form of the span of ``cols``, as split-field scalars."""
    return _cols(LatticeBasis.from_columns(p, dim, cols))


def _times_p(lat):
    """p * lat, from the scaled basis columns."""
    return LatticeBasis.from_columns(
        lat.p, lat.dim, [[lat.p * x for x in c] for c in _cols(lat)])


def test_hnf_canonical_form():
    cols = [(Fraction(3), Fraction(1)), (Fraction(0), Fraction(2)),
            (Fraction(6), Fraction(4))]
    got = hnf_columns(3, 2, cols)
    # pivots are powers of p, lower triangular, entries reduced
    assert got == ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(1)))


def test_hnf_negative_valuation_entries():
    cols = [(Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(3))]
    got = hnf_columns(3, 2, cols)
    assert got == ((Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(3)))


def test_hnf_requires_full_span():
    with pytest.raises(LatticeError):
        hnf_columns(3, 2, [(Fraction(1), Fraction(0))])


# entries with denominators prime to p, and with p or p^2 in them (negative
# valuation) for p = 3 and for p = 5
_ENTRIES = st.builds(Fraction, st.integers(-40, 40),
                     st.sampled_from([1, 1, 1, 2, 3, 4, 5, 7, 9, 25]))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([3, 5]), st.integers(1, 3), st.data())
def test_hnf_properties(p, dim, data):
    column = st.lists(_ENTRIES, min_size=dim, max_size=dim)
    cols = data.draw(st.lists(column, min_size=dim, max_size=dim + 2))
    assume(Mat(Ring(p), list(zip(*cols[:dim]))).is_invertible())
    form = hnf_columns(p, dim, cols)
    rows = [[x.a for x in col] for col in form]
    # lower triangular, pivots p^e, entries left of a pivot in [0, pivot)
    # with a power of p for denominator
    for i, col in enumerate(rows):
        pivot = col[i]
        assert col[:i] == [0] * i
        assert pivot == Fraction(p) ** form[i][i].val()
        for left in rows[:i]:
            assert 0 <= left[i] < pivot
            den = left[i].denominator
            assert den == p ** val_int(den, p)
    # every input column lies in the form's lattice: the triangular solve
    # has integral coefficients
    for v in cols:
        coeffs = []
        for i in range(dim):
            rest = v[i] - sum(c * rows[j][i] for j, c in enumerate(coeffs))
            coeffs.append(rest / rows[i][i])
        assert all(val_fraction(c, p) >= 0 for c in coeffs)
    # the span does not change under a prime-to-p scaling of a column or
    # an appended integer combination of the columns
    k = data.draw(st.integers(0, len(cols) - 1))
    for unit in (2, Fraction(1, 2), Fraction(7, 4)):
        scaled = [[unit * x for x in c] if j == k else c
                  for j, c in enumerate(cols)]
        assert hnf_columns(p, dim, scaled) == form
    ints = data.draw(st.lists(st.integers(-5, 5), min_size=len(cols),
                              max_size=len(cols)))
    combo = [sum(a * c[i] for a, c in zip(ints, cols)) for i in range(dim)]
    assert hnf_columns(p, dim, cols + [combo]) == form


def test_lattice_equality_is_basis_independent():
    a = LatticeBasis.from_columns(3, 2, [[1, 0], [0, 1]])
    b = LatticeBasis.from_columns(3, 2, [[1, 1], [2, 1], [0, 3]])
    pa = LatticeBasis.from_columns(3, 2, [[3, 0], [0, 3]])
    assert a == b
    assert pa == _times_p(a)
    assert pa != a
    assert intersect(a, pa) == pa
    assert intersect(pa, a) != a


def test_lie_lattice_dimensions():
    dims = {}
    for family, ext in ((ORTHOGONAL, SPLIT), (SYMPLECTIC, SPLIT),
                        (HERMITIAN, INERT), (SKEW_HERMITIAN, INERT),
                        (GENERAL_LINEAR, SPLIT)):
        space = standard_space(family, 2, Ring(3, ext))
        std = standard_lattices(space)
        dims[family] = (std.gu_coords.m, std.u_coords.m)
    assert dims[ORTHOGONAL] == (2, 1)
    assert dims[SYMPLECTIC] == (4, 3)
    assert dims[HERMITIAN] == (5, 4)
    assert dims[SKEW_HERMITIAN] == (5, 4)
    assert dims[GENERAL_LINEAR] == (4, 4)


@pytest.mark.parametrize("space", [
    SYMPL, standard_space(HERMITIAN, 2, Ring(3, INERT))],
    ids=["symplectic", "hermitian"])
def test_h_stability_check(space):
    ring = space.ring
    _check_h_stable(replace(space, H=Mat(ring, [[1, 1], [0, -1]])))
    with pytest.raises(LatticeError, match="not stable under h"):
        _check_h_stable(replace(space, H=Mat(ring, [[1, 0], [0, 3]])))
    with pytest.raises(LatticeError, match="not stable under h"):
        _check_h_stable(replace(space,
                                H=Mat(ring, [[1, 0], [0, Fraction(1, 3)]])))


def test_theta_stabilizes_standard_lattice():
    assert STD.Ldot.transform(STD.gu_coords.theta) == STD.Ldot


def test_lattice_of_x_pinned_diag_1_3():
    x = Mat(SYMPL.ring, [[1, 0], [0, 3]])
    lx = lattice_of_x(STD.gu_coords, x)
    assert lx != STD.Ldot
    assert intersect(STD.Ldot, lx) == lx
    pL = _times_p(STD.Ldot)
    assert intersect(lx, pL) == pL
    # a vector is in lx exactly when adding it as a column leaves lx
    # unchanged
    def contains(v):
        return LatticeBasis.from_columns(lx.p, lx.dim, [*_cols(lx), v]) == lx

    # the upper-right matrix coordinate is forced into 3 o_F
    e12 = STD.gu_coords.to_coords(Mat(SYMPL.ring, [[0, 1], [0, 0]]))
    assert not contains(e12)
    assert contains([3 * c for c in e12])
    # the lower-left coordinate stays unconstrained
    e21 = STD.gu_coords.to_coords(Mat(SYMPL.ring, [[0, 0], [1, 0]]))
    assert contains(e21)


def test_theta_fixed_lattice_lemma():
    # theta L(x) = Ad(x) L(x) for theta-fixed x, including non-unit entries
    for rows in ([[2, 0], [0, 2]], [[5, Fraction(1, 3)], [3, 5]]):
        x = certify_group(SYMPL, Mat(SYMPL.ring, rows))
        assert theta_group(x).mat == x.mat
        lx = lattice_of_x(STD.gu_coords, x.mat)
        lhs = lx.transform(STD.gu_coords.theta)
        rhs = lx.transform(ad_operator(STD.gu_coords, x.mat))
        assert lhs == rhs


def test_stabilizer_coset_invariance():
    # L(k d) = L(d) when Ad(k) preserves the standard lattice
    X = certify_lie(SYMPL, Mat(SYMPL.ring, [[3, 3], [0, 3]]))
    assert in_domain(X)
    k = cayley(X)
    assert STD.Ldot.transform(ad_operator(STD.gu_coords, k.mat)) == STD.Ldot
    d = certify_group(SYMPL, Mat(SYMPL.ring, [[1, 0], [0, 3]]))
    assert lattice_of_x(STD.gu_coords, (k * d).mat) == \
        lattice_of_x(STD.gu_coords, d.mat)


def test_congruence_members_pinned_u1():
    members = [comps for comps, mu in congruence_members(
        STD_H1.gu_coords, 1, 2, 10**6) if mu == 1]
    assert len(members) == 3
    for a, b in members:
        assert a == 1 and b % 3 == 0


def test_level_bijection_pinned_counts():
    rep = check_cayley_level(SYMPL, STD, 1, 2, "gu")
    assert rep.passed
    assert rep.image_size == rep.congruence_size == 81
    rep1 = check_cayley_level(HERM1, STD_H1, 1, 2, "u")
    assert rep1.passed
    assert rep1.image_size == rep1.congruence_size == 3


def test_level_check_budget_does_not_depend_on_call_history():
    # orthogonal n = 2: 9 congruence members mod 9 at level 1, over budget
    # 8 also when a larger budget has kept them
    space = standard_space(ORTHOGONAL, 2, Ring(3, SPLIT))
    std = standard_lattices(space)
    for passing_call in (True, False):
        with pytest.raises(SolveBudgetError,
                           match="9 members exceeds budget 8"):
            congruence_members(std.gu_coords, 1, 2, 8)
        with pytest.raises(SolveBudgetError, match="exceeds budget 8"):
            check_cayley_level(space, std, 1, 2, "gu", budget=8)
        if passing_call:
            rep = check_cayley_level(space, std, 1, 2, "gu", budget=10**6)
            assert rep.passed and rep.image_size == rep.congruence_size == 9


def test_level_check_validates_inputs():
    with pytest.raises(LatticeError):
        check_cayley_level(SYMPL, STD, 2, 2, "gu")
    with pytest.raises(LatticeError):
        check_cayley_level(SYMPL, STD, 0, 2, "gu")
    for variant in ("GU", "sp", None):   # not read as "gu"
        with pytest.raises(LatticeError, match="unknown variant"):
            check_cayley_level(SYMPL, STD, 1, 2, variant)


def test_level_check_failure_path_is_pinned(monkeypatch):
    # a repeated image, with and without a dropped one, and a dropped
    # member: the sizes count distinct residues, and the mismatches name
    # the residues found on one side only
    real_images, real_members = LieCoords.cayley_images, \
        lattices.congruence_members

    def report(images=None, members=None):
        if images:
            monkeypatch.setattr(LieCoords, "cayley_images",
                                lambda self, *args: images(
                                    list(real_images(self, *args))))
        if members:
            monkeypatch.setattr(lattices, "congruence_members",
                                lambda *args: members(real_members(*args)))
        rep = check_cayley_level(SYMPL, STD, 1, 2, "gu")
        monkeypatch.undo()
        assert rep.alpha_integral and rep.mu_congruent and not rep.passed
        return (rep.injective, rep.sets_equal, rep.image_size,
                rep.congruence_size, rep.mismatches)

    assert report(images=lambda im: im[:1] + im[:-1]) == (
        False, False, 80, 81,
        [("congruence-only", (7, 0, 6, 0, 6, 0, 7, 0))])
    assert report(images=lambda im: im + im[-1:]) == (
        False, True, 81, 81, [])
    assert report(members=lambda ms: ms[1:]) == (
        True, False, 81, 80, [("image-only", (1, 0, 0, 0, 0, 0, 1, 0))])


def test_scaled_lattice_inside_domain():
    # every element of p * Ldot lies in the working domain
    coords = STD.gu_coords
    for idx in range(coords.m):
        c = [Fraction(0)] * coords.m
        c[idx] = Fraction(3)
        X = certify_lie(SYMPL, coords.from_coords(c))
        assert in_domain(X)
        assert X.alpha.val() >= 1


def _mat_level_scan(space, k, N):
    """Reference: similitude_multiplier on every 1 + p^k Y mod p^N."""
    st = space.truncated(N)
    ring = st.ring
    m0 = st.n * st.n * components_per_scalar(st.ring)
    pk = ring.p**k
    out = []
    for coeffs in itertools.product(range(ring.p**(N - k)), repeat=m0):
        g = Mat.identity(ring, st.n) + Mat.from_components(
            st.ring, st.n, [c * pk for c in coeffs])
        mu = similitude_multiplier(st, g)
        if mu is not None:
            out.append((g.key(), mu.a, mu.b))
    return sorted(out)


def _digit_lift_scan(space, k, N):
    """[(comps, mu)] for every g + p^(N-1) Z mod p^N that the similitude
    test accepts, g over the residue scan mod p^(N-1) and Z over all p^D
    digit vectors, sorted: complete, since a similitude mod p^N reduces to
    one mod p^(N-1).  The product and star kernels run on numpy columns,
    one array per component across the Z of each g."""
    import numpy as np
    space_t = space.truncated(N)
    p, n = space_t.ring.p, space_t.n
    D = len(identity_comps(space_t))
    diag = {D // (n * n) * (n + 1) * i for i in range(n)}
    mul, star_of = product_kernel(space_t), star_kernel(space_t)
    digits = np.array(list(itertools.product(range(p), repeat=D))).T
    out = []
    for g, _ in _congruence_scan(space, k, N - 1):
        x = tuple(a + p**(N - 1) * row for a, row in zip(g, digits))
        z = mul(x, star_of(x))
        ok = z[0] % p != 0
        for i, c in enumerate(z):
            ok &= c == (z[0] if i in diag else 0)
        out += [(tuple(int(v[j]) for v in x), int(z[0][j]))
                for j in np.flatnonzero(ok)]
    return sorted(out)


@pytest.mark.parametrize("family, p, k, N", [
    pytest.param(family, 3, k, N, id=f"{family}-{k}-{N}")
    for family, k, N in [
        (ORTHOGONAL, 1, 2), (SYMPLECTIC, 1, 2), (HERMITIAN, 1, 2),
        (SKEW_HERMITIAN, 1, 2), (GENERAL_LINEAR, 1, 2),
        (SYMPLECTIC, 1, 3), (ORTHOGONAL, 1, 3), (ORTHOGONAL, 2, 4),
        (HERMITIAN, 1, 3), (SKEW_HERMITIAN, 1, 3)]] + [
    (SYMPLECTIC, 5, 1, 2), (ORTHOGONAL, 5, 1, 2), (SYMPLECTIC, 7, 1, 2),
    (ORTHOGONAL, 7, 1, 2), (SYMPLECTIC, 5, 1, 3), (ORTHOGONAL, 5, 1, 3),
    (ORTHOGONAL, 7, 1, 3)])
def test_integer_congruence_scan_matches_mat_level(family, p, k, N):
    # the lifted members against the residue scan and the Mat-level scan;
    # past 3^8 residues (the inert families mod 27, the split ones at
    # p = 5, 7 and N = 3) the oracle scans the digit lifts of the residue
    # scan mod p^(N-1).  The translate -R/2 of a lift past the first
    # level depends on p; R is 0 from the identity and, for symplectic
    # n = 2 (g g* = det(g) 1), at every level, so orthogonal (1, 3)
    # carries that dependence at p = 5 and 7
    ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
    space = standard_space(family, 2, Ring(p, ext))
    coords = standard_lattices(space).gu_coords
    members = congruence_members(coords, k, N, 10**6)
    if p**(coords.m0 * (N - k)) > 3**8:
        assert members == _digit_lift_scan(space, k, N)
        assert len(members) == p**(coords.m * (N - k))
        return
    assert members == _congruence_scan(space, k, N)
    got = [(comps_key(space, comps), mu, 0) for comps, mu in members]
    assert got == _mat_level_scan(space, k, N)


def test_lifter_raises_on_a_non_similitude(monkeypatch):
    # a stray lift, the first with its top digit of entry (0, 0) off by
    # one, is re-certified and raises, it is not dropped
    coords = standard_lattices(
        standard_space(ORTHOGONAL, 2, Ring(3, SPLIT))).gu_coords
    walk = modsolve._iter_coset

    def with_a_stray(x0, basis, k, M):
        lifts = list(walk(x0, basis, k, M))
        yield from lifts
        yield ((lifts[0][0] + M // 3) % M,) + lifts[0][1:]
    monkeypatch.setattr(modsolve, "_iter_coset", with_a_stray)
    with pytest.raises(LatticeError, match="not a similitude"):
        congruence_members(coords, 1, 2, 10**6)
    with pytest.raises(LatticeError, match="not a similitude"):
        congruence_members(coords, 1, 3, 10**6)


@pytest.mark.parametrize("family, k, N", [(HERMITIAN, 1, 3),
                                          (SYMPLECTIC, 2, 4)])
def test_congruence_lift_eliminates_once(monkeypatch, family, k, N):
    # one elimination of the Lie system mod p per call, whatever the
    # number of members lifted
    ext = INERT if family == HERMITIAN else SPLIT
    coords = standard_lattices(
        standard_space(family, 2, Ring(3, ext))).gu_coords
    calls = []
    solve = modsolve._chain_solution

    def counted(*args):
        calls.append(args)
        return solve(*args)
    monkeypatch.setattr(modsolve, "_chain_solution", counted)
    members = congruence_members(coords, k, N, 10**6)
    assert len(members) == 3**(coords.m * (N - k))
    assert len(calls) == 1


def _text(rows) -> list:
    """Entries as text, row by row: a Fraction and an exact split scalar of
    the same value print alike."""
    return [[str(x) for x in row] for row in rows]


def _lattice_digests(family, ext):
    std = standard_lattices(standard_space(family, 2, Ring(3, ext)))
    coords, pL = std.gu_coords, _times_p(std.Ldot)
    theta = coords.theta
    rng = make_rng(1607)
    lattices = []
    for _ in range(30):
        x = sample_group(std, rng, factors=4).mat
        lx = lattice_of_x(coords, x)
        lattices += [lx, lx.transform(theta),
                     lx.transform(ad_operator(coords, x)), intersect(lx, pL)]
    operators = [_rows(op) for op in (std.gu_coords.theta, std.u_coords.theta)]
    coordinates = [coords.to_coords(sample_lie(std, rng).mat)
                   for _ in range(30)]
    return tuple(hashlib.sha256(repr(data).encode()).hexdigest()[:32]
                 for data in ([_text(_cols(lat)) for lat in lattices],
                              [_text(op) for op in operators],
                              _text(coordinates)))


# sha256 (first 32 hex digits) of the intersection lattices L(x) of 30
# seeded group draws with their theta and Ad(x) images and their meets
# with p * Ldot, of the theta operators on both Lie algebras, and of the
# coordinates of 30 seeded Lie draws, recorded while every lattice
# operation still ran on lists of Fraction, and re-recorded for the form
# families when the Lie basis became the column reduction's (symplectic
# n = 2 then reads the four components of gsp_2 = gl_2, as general-linear
# does)
LATTICE_PINS = {
    ORTHOGONAL: ('09843983adbbe22f350b487afbde0abc',
        '7a801b71837850770228c6634b44562e',
        'f1c66ddfb2c4d72f5ee813a61e2194e4'),
    SYMPLECTIC: ('b4d3deafd939788ef2062c10653b3992',
        '9f678b70ec8f334cf83e07e0fb2aab9c',
        '1a51f1c52de8921934435aa88f89722b'),
    HERMITIAN: ('736e0bee1accb6394e13dc0201c61ec2',
        '78e0535dddad0c832f324d56cd061070',
        '3ad395277e66d05e0e8f434bf032828a'),
    SKEW_HERMITIAN: ('736e0bee1accb6394e13dc0201c61ec2',
        '78e0535dddad0c832f324d56cd061070',
        '3ad395277e66d05e0e8f434bf032828a'),
    GENERAL_LINEAR: ('850d71808127f5dde27413dfa01dcce1',
        'b7cf2cae4b03b5df734e8861f647c942',
        '1a51f1c52de8921934435aa88f89722b'),
}


@pytest.mark.parametrize("family, ext", [
    (ORTHOGONAL, SPLIT), (SYMPLECTIC, SPLIT), (HERMITIAN, INERT),
    (SKEW_HERMITIAN, INERT), (GENERAL_LINEAR, SPLIT)])
def test_lattice_operations_pinned(family, ext):
    assert _lattice_digests(family, ext) == LATTICE_PINS[family]


def test_coordinate_kernel_is_the_coordinate_matrix():
    # cayley_images maps m coordinates to n^2 d components with a linear
    # kernel of input width m; at width 0 every component is 0
    coords = standard_lattices(
        standard_space(HERMITIAN, 2, Ring(3, INERT))).gu_coords
    to_comps = linear_kernel(
        [[(j, a) for j, a in enumerate(row) if a] for row in coords._M],
        27, width=coords.m)
    rng = make_rng(5)
    for _ in range(50):
        v = [rng.randrange(-27, 27) for _ in range(coords.m)]
        assert to_comps(v) == tuple(sum(a * x for a, x in zip(row, v)) % 27
                                    for row in coords._M)
    assert linear_kernel([[]], 27, width=0)(()) == (0,)


# -- the integer lattice maps against their matrix formulas ------------


def _inverse_rows(lat):
    """The rows of B^-1 for the basis matrix B of ``lat``, by Mat.inv."""
    return Mat(Ring(lat.p), list(zip(*_cols(lat)))).inv().rows


def _meet_by_inverses(a, b):
    """a meet b as the dual of the sum of the duals, each dual the rows
    of a Mat.inv."""
    sum_dual = LatticeBasis.from_columns(
        a.p, a.dim, _inverse_rows(a) + _inverse_rows(b))
    return LatticeBasis.from_columns(a.p, a.dim, _inverse_rows(sum_dual))


@pytest.mark.parametrize("p", [3, 5])
def test_integer_dual_is_the_inverse_rows(p):
    rng = make_rng(p)
    checked = 0
    while checked < 60:
        dim = rng.randint(1, 5)
        cols = [[Fraction(rng.randint(-30, 30), rng.choice([1, 2, p, p * p]))
                 for _ in range(dim)] for _ in range(dim + rng.randint(0, 2))]
        if not Mat(Ring(p), list(zip(*cols[:dim]))).is_invertible():
            continue
        lat = LatticeBasis.from_columns(p, dim, cols)
        rows, den = _dual_rows(lat.nums, lat.den)
        assert [[Fraction(x, den) for x in row] for row in rows] \
            == [[x.a for x in row] for row in _inverse_rows(lat)]
        checked += 1


FIVE_FAMILIES = [(ORTHOGONAL, SPLIT), (SYMPLECTIC, SPLIT), (HERMITIAN, INERT),
                 (SKEW_HERMITIAN, INERT), (GENERAL_LINEAR, SPLIT)]


def _operator_matrix(coords, f) -> Operator:
    """The operator X -> f(X) in the coordinates ``coords``: f in Mat
    arithmetic on each decoded basis matrix, and its image in
    coordinates by ``to_coords``."""
    ring, n = coords.space.ring, coords.space.n
    cols = [coords.to_coords(f(Mat.from_components(ring, n, B)))
            for B in coords._basis_comps]
    den = math.lcm(*(x.denominator for col in cols for x in col))
    return Operator.from_columns(
        [[int(x * den) for x in col] for col in cols], den)


@pytest.mark.parametrize("family, ext", FIVE_FAMILIES)
def test_ad_operator_is_the_operator_matrix(family, ext):
    std = standard_lattices(standard_space(family, 2, Ring(3, ext)))
    rng = make_rng(19)
    for coords in (std.gu_coords, std.u_coords):
        for _ in range(15):
            x = sample_group(std, rng).mat
            xinv = x.inv()
            assert ad_operator(coords, x) \
                == _operator_matrix(coords, lambda B: x * B * xinv)


@pytest.mark.parametrize("family, ext", FIVE_FAMILIES)
def test_lattice_of_x_is_the_meet_by_inverses(family, ext):
    std = standard_lattices(standard_space(family, 2, Ring(3, ext)))
    coords, base = std.gu_coords, std.Ldot
    rng = make_rng(23)
    for _ in range(15):
        x = sample_group(std, rng, factors=3).mat
        xinv = x.inv()
        image = base.transform(_operator_matrix(coords,
                                                lambda B: xinv * B * x))
        assert lattice_of_x(coords, x) == _meet_by_inverses(image, base)


@pytest.mark.parametrize("family, ext, n", [
    *((family, ext, 2) for family, ext in FIVE_FAMILIES), (HERMITIAN, INERT, 3)])
def test_lattice_of_x_is_the_meet_of_the_image(family, ext, n):
    # the kernel solve against the meet by duals of Ad(x^-1) L and L
    std = standard_lattices(standard_space(family, n, Ring(3, ext)))
    rng = make_rng(2525)
    for _ in range(200):
        x = sample_group(std, rng, factors=4).mat
        assert lattice_of_x(std.gu_coords, x) \
            == _lattice_by_meet(std.gu_coords, x)


def test_coordinate_solver_rejects_matrices_outside_the_lie_algebra():
    # the read-off coordinates are checked against M c = t, so an
    # off-algebra matrix, or a conjugation by a non-similitude, raises
    # instead of being projected
    std = standard_lattices(standard_space(ORTHOGONAL, 2, Ring(3, SPLIT)))
    ring = std.space.ring
    with pytest.raises(LatticeError, match="not in the Lie algebra"):
        std.gu_coords.to_coords(Mat(ring, [[0, 1], [0, 0]]))
    with pytest.raises(LatticeError, match="not in the Lie algebra"):
        ad_operator(std.gu_coords, Mat(ring, [[1, 1], [0, 1]]))


# -- coordinates read off the integer kernel basis ------------------------


@pytest.mark.parametrize("family, ext", FIVE_FAMILIES)
def test_read_off_coordinates_round_trip(family, ext):
    # every family, n <= 6, p = 3, 5, 7 and both algebras; every
    # coordinate reads a component of X, none reads alpha
    rng = make_rng(29)
    for n, p in itertools.product(range(1, 7), (3, 5, 7)):
        if family == SYMPLECTIC and n % 2:
            continue
        space = standard_space(family, n, Ring(p, ext))
        for coords in (LieCoords(space), LieCoords(space, isometry=True)):
            assert all(i < coords.m0 for i in coords._reads)
            for _ in range(3):
                c = [rng.randint(-50, 50) for _ in range(coords.m)]
                assert coords._coords(coords.numerators(c)) == c


def test_a_non_member_fails_the_coordinate_map_check():
    # on both algebras of gsp_4, a matrix with X + X* not a scalar fails
    # the check M c = t, and so does the identity (alpha = 2) on sp_4
    space = standard_space(SYMPLECTIC, 4, Ring(3, SPLIT))
    std = standard_lattices(space)
    e12 = Mat.from_components(space.ring, 4, [int(i == 1) for i in range(16)])
    for coords in (std.gu_coords, std.u_coords):
        with pytest.raises(LatticeError, match="not in the Lie algebra"):
            coords.to_coords(e12)
    one = Mat.identity(space.ring, 4)
    assert std.gu_coords.from_coords(std.gu_coords.to_coords(one)) == one
    with pytest.raises(LatticeError, match="not in the Lie algebra"):
        std.u_coords.to_coords(one)


def test_a_basis_without_read_entries_raises_at_construction(monkeypatch):
    # a unimodular basis of gl_2 whose first vector has no entry +-1
    space = standard_space(GENERAL_LINEAR, 2, Ring(3, SPLIT))
    assert LieCoords(space)._reads == [0, 1, 2, 3]
    monkeypatch.setattr(LieCoords, "_kernel_vectors", lambda self, iso: [
        [2, 3, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(LatticeError, match="reads no entry of its own"):
        LieCoords(space)
