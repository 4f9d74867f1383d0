"""End-to-end acceptance checks with explicit sample counts and time
budgets.  Each test states its budget and asserts both correctness and
the elapsed wall time."""

import time

from simdual.cayley import (INFINITE_IDENTITY, _lie_components, cayley, fiber,
                            in_domain)
from simdual.decomposition import coset_set, decompose, verify_piece
from simdual.finite import build_group, conjugacy_classes, \
    verify_class_inversion
from simdual.involution import theta_group, theta_lie
from simdual.lattices import (ad_operator, check_cayley_level, lattice_of_x,
                              standard_lattices)
from simdual.matrices import Mat
from simdual.sampling import (make_rng, sample_group, sample_integral_lie,
                              sample_lie, sample_stabilizing,
                              sample_theta_fixed)
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (FAMILIES, HERMITIAN, SKEW_HERMITIAN, SYMPLECTIC,
                            certify_lie, standard_space)
from simdual.suites import SuiteConfig, run_suite, sample_coset_base

_EXT = {HERMITIAN: INERT, SKEW_HERMITIAN: INERT}


def _space(family, n=2, p=3):
    return standard_space(family, n, Ring(p, _EXT.get(family, SPLIT)))


def test_criterion_1_multiplier_identity_per_family():
    # >= 1000 samples per family, < 5 s per family
    for family in FAMILIES:
        space = _space(family)
        std = standard_lattices(space)
        rng = make_rng(101)
        t0 = time.monotonic()
        for _ in range(1000):
            X = sample_lie(std, rng)
            g = cayley(X)
            t = (space.ring.one + X.alpha).inv()
            assert g.mu == t * t
        assert time.monotonic() - t0 < 5.0, family


def test_criterion_2_fiber_analysis():
    # >= 500 sampled image points round-trip, plus exhaustive residue-set
    # agreement of fiber() with bucketed images mod 9; < 30 s
    t0 = time.monotonic()
    space = _space(SYMPLECTIC)
    std = standard_lattices(space)
    rng = make_rng(102)
    for _ in range(500):
        X = sample_lie(std, rng)
        g = cayley(X)
        res = fiber(g)
        if res.tag == INFINITE_IDENTITY:
            assert res.identity_fiber_contains(X)
        else:
            assert any(p.X.mat == X.mat for p in res.preimages)
        for p in res.preimages:
            assert cayley(p.X).mat == g.mat
    # exhaustive oracle over the truncated space
    trunc = space.truncated(2)
    buckets = {}
    images = {}
    for comps in _lie_components(trunc, 10**6):
        lie = certify_lie(trunc,
                          Mat.from_components(trunc.ring, trunc.n, comps))
        if not in_domain(lie):
            continue
        g = cayley(lie)
        buckets.setdefault(g.mat.key(), []).append(lie.mat.key())
        images[g.mat.key()] = g
    assert len(buckets) == 1215
    for key in sorted(buckets):
        res = fiber(images[key])
        got = sorted(p.X.mat.key() for p in res.preimages)
        assert got == sorted(buckets[key])
    assert time.monotonic() - t0 < 30.0


def test_criterion_3_level_bijection():
    # exact set equality and injectivity; < 10 s
    t0 = time.monotonic()
    sympl = _space(SYMPLECTIC)
    std = standard_lattices(sympl)
    rep = check_cayley_level(sympl, std, 1, 2, "gu")
    assert rep.passed and rep.image_size == 81 and rep.congruence_size == 81
    rep_u = check_cayley_level(sympl, std, 1, 2, "u")
    assert rep_u.passed
    herm1 = standard_space(HERMITIAN, 1, Ring(3, INERT))
    std1 = standard_lattices(herm1)
    rep1 = check_cayley_level(herm1, std1, 1, 2, "u")
    assert rep1.passed and rep1.image_size == 3 and rep1.congruence_size == 3
    rep1g = check_cayley_level(herm1, std1, 1, 2, "gu")
    assert rep1g.passed
    assert time.monotonic() - t0 < 10.0


def test_criterion_4_equivariance_suite():
    # theta/Ad equivariance and domain invariance, >= 1000 samples per
    # family; lattice stability under theta; p * Ldot inside the domain;
    # < 30 s total
    t0 = time.monotonic()
    for family in FAMILIES:
        space = _space(family)
        std = standard_lattices(space)
        rng = make_rng(104)
        xs = [sample_group(std, rng) for _ in range(25)]
        for i in range(1000):
            X = sample_lie(std, rng)
            x = xs[i % len(xs)]
            assert theta_group(cayley(X)).mat == cayley(theta_lie(X)).mat
            adX = certify_lie(space, x.mat * X.mat * x.mat.inv())
            assert x.mat * cayley(X).mat * x.mat.inv() == cayley(adX).mat
            assert in_domain(theta_lie(X)) and in_domain(adX)
        if space.has_form:
            assert std.Ldot.transform(std.gu_coords.theta) \
                == std.Ldot
        for _ in range(100):
            assert in_domain(sample_integral_lie(std, rng, level=1))
    assert time.monotonic() - t0 < 30.0


def test_criterion_5_lattice_lemmas():
    # theta L(x) = Ad(x) L(x) on >= 100 theta-fixed x per family and
    # L(k d) = L(d) on >= 100 stabilizing k; < 30 s
    t0 = time.monotonic()
    for family in FAMILIES:
        space = _space(family)
        std = standard_lattices(space)
        rng = make_rng(105)
        for _ in range(100):
            x = sample_theta_fixed(std, rng)
            lx = lattice_of_x(std.gu_coords, x.mat)
            lhs = lx.transform(std.gu_coords.theta)
            rhs = lx.transform(ad_operator(std.gu_coords, x.mat))
            assert lhs == rhs
        for _ in range(100):
            k = sample_stabilizing(std, rng)
            d = sample_group(std, rng)
            assert lattice_of_x(std.gu_coords, (k * d).mat) \
                == lattice_of_x(std.gu_coords, d.mat)
    assert time.monotonic() - t0 < 30.0


def test_criterion_6_decomposition_20_cosets():
    # >= 20 random cosets mod 27, verified partition, < 60 s per coset
    space = _space(SYMPLECTIC)
    std = standard_lattices(space)
    rng = make_rng(106)
    for i in range(20):
        b = sample_coset_base(std, rng, 3)
        t0 = time.monotonic()
        C = coset_set(space, std, b, 1, 3)
        pieces = decompose(C, std)
        elapsed = time.monotonic() - t0
        union = set()
        for p in pieces:
            assert not (union & set(p.members.comps))
            union |= set(p.members.comps)
            assert verify_piece(p.members, p.witness)
        assert union == set(C.members.comps)
        assert elapsed < 60.0, f"coset {i}: {elapsed:.1f}s"


def test_criterion_7_finite_duality():
    # 100% of classes pass with a conjugator in every target group; < 2 min
    t0 = time.monotonic()
    targets = [("sp", 2, 3, 7), ("gsp", 2, 3, 8), ("sp", 2, 5, 9),
               ("u", 2, 3, 16), ("gu", 2, 3, 32), ("gl", 2, 3, 8),
               ("gl", 3, 3, 24)]
    for family, n, q, n_classes in targets:
        table = build_group(family, n, q)
        cm = conjugacy_classes(table)
        assert cm.num_classes == n_classes, (family, n, q)
        rep = verify_class_inversion(table, cm)
        assert rep.passed, (family, n, q)
        assert all(r.conjugator is not None for r in rep.rows)
    assert time.monotonic() - t0 < 120.0


def test_criterion_8_byte_identical_reports():
    cfg = SuiteConfig(family="symplectic", samples=25, seed=77,
                      suites=("identity", "cayley", "lattice"))
    a = run_suite(cfg).to_json()
    b = run_suite(cfg).to_json()
    assert a == b
    assert a.encode() == b.encode()
