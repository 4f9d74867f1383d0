import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.cayley import (DomainError, EMPTY, INFINITE_IDENTITY,
                            TWO_PREIMAGES, UNIQUE_LAMBDA, UNIQUE_MU1,
                            bucket_domain_images, cayley, enumerate_lie,
                            fiber, in_cayley_domain, in_domain, x_lambda)
from simdual.involution import theta_group, theta_lie
from simdual.matrices import Mat
from simdual.scalars import SPLIT, Ring
from simdual.spaces import (GENERAL_LINEAR, SYMPLECTIC, certify_group,
                            certify_lie, standard_space)

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
    assert not in_cayley_domain(bad)
    with pytest.raises(DomainError):
        cayley(bad)


def test_domain_containment():
    # the three-condition domain sits inside the two-condition one; for
    # 2x2 with alpha = trace both singularity tests evaluate to the same
    # determinant 1 + alpha + det(X), so here they agree exactly
    for rows in ([[1, 1], [0, 1]], [[-1, 1], [0, -1]], [[0, 2], [1, 0]],
                 [[2, 0], [0, -3]]):
        X = lie(SYMPL, rows)
        assert in_domain(X) == in_cayley_domain(X)
        if in_domain(X):
            assert in_cayley_domain(X)


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
    if in_cayley_domain(X):
        assert cayley(X).mat == SYMPL.identity()
        assert res.identity_fiber_contains(X)


def test_general_linear_cayley_is_shift():
    X = certify_lie(GL, Mat(GL.ring, [[0, 1], [0, 0]]))
    g = cayley(X)
    assert g.mat == Mat(GL.ring, [[1, 1], [0, 1]])
    res = fiber(g)
    assert res.tag == UNIQUE_MU1 and res.preimages[0].X.mat == X.mat


def test_truncated_fiber_matches_exhaustive_buckets():
    buckets = {}
    images = {}
    for lieel in enumerate_lie(SYMPL9):
        if not in_domain(lieel):
            continue
        g = cayley(lieel)
        buckets.setdefault(g.mat.key(), []).append(lieel.mat.key())
        images[g.mat.key()] = g
    assert len(buckets) == 1215
    # spot-check a deterministic slice of images against fiber()
    for key in sorted(buckets)[::40]:
        res = fiber(images[key])
        got = sorted(p.X.mat.key() for p in res.domain_preimages())
        assert got == sorted(buckets[key])


def test_fiber_census_script_finds_no_mismatch(capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "fiber_census.py"
    spec = importlib.util.spec_from_file_location("fiber_census", path)
    census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(census)
    assert census.main(["--precision", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "domain images mod 3^1: 15",
        "fiber tags: {'infinite-identity': 1, 'unique-mu1': 14}",
        "fiber sizes: {1: 14, 19: 1}",
        "mismatches: 0"]


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
