import hashlib
import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdual.decomposition import _conjugator_system
from simdual.matrices import parse_matrix
from simdual.modsolve import (SolveBudgetError, _coset_steps, _iter_coset,
                              iter_affine_mod, residues, smith,
                              solve_affine_mod, subgroup_basis)
from simdual.scalars import INERT, Ring
from simdual.spaces import HERMITIAN, certify_group, standard_space


def brute_force(A, b, p, N):
    M = p**N
    k = len(A[0])
    out = []
    for x in itertools.product(range(M), repeat=k):
        if all(sum(A[i][j] * x[j] for j in range(k)) % M == b[i] % M
               for i in range(len(A))):
            out.append(tuple(x))
    return out


def test_smith_factorization():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    U, D, V = smith(A)
    # U A V == D
    import numpy as np
    assert (np.array(U) @ np.array(A) @ np.array(V) == np.array(D)).all()
    assert all(D[i][j] == 0 for i in range(3) for j in range(3) if i != j)
    assert round(abs(np.linalg.det(np.array(U)))) == 1
    assert round(abs(np.linalg.det(np.array(V)))) == 1


def test_solve_matches_brute_force():
    A = [[1, 2], [3, 3]]
    b = [1, 0]
    assert solve_affine_mod(A, b, 3, 2) == sorted(brute_force(A, b, 3, 2))


def test_singular_system_full_solution_set():
    A = [[3, 0], [0, 0]]
    b = [0, 0]
    sols = solve_affine_mod(A, b, 3, 2)
    assert sols == sorted(brute_force(A, b, 3, 2))
    assert len(sols) == 27


def test_inconsistent_system_empty():
    assert solve_affine_mod([[3]], [1], 3, 2) == []
    assert list(iter_affine_mod([[3]], [1], 3, 2)) == []


def test_iter_matches_solve_as_sets():
    A = [[1, 2, 0], [0, 3, 3]]
    b = [2, 3]
    assert sorted(iter_affine_mod(A, b, 3, 2)) == solve_affine_mod(A, b, 3, 2)


def product_coset(x0, basis, k, M):
    """The coset x0 + <basis> as one ``itertools.product`` over each
    column's multiples, first column slowest, every candidate summed
    afresh: the order ``_iter_coset`` keeps."""
    parts = [[tuple(c * e for e in col) for c in range(step)]
             for col, step in zip(basis, _coset_steps(basis, k, M))]
    return [tuple(sum(t) % M for t in zip(x0, *combo))
            for combo in itertools.product(*parts)]


@pytest.mark.parametrize("seed", range(8))
def test_odometer_walks_the_coset_in_product_order(seed):
    # random triangular bases mod 3^N and 5^N with at most 3000 coset
    # members, some columns of step 1 (leading entry M), some bases empty
    rng = random.Random(seed)
    tried = 0
    while tried < 40:
        p, N = rng.choice([3, 5]), rng.randint(1, 3)
        M, k = p**N, rng.randint(0, 6)
        gens = [[rng.randrange(M) * p**rng.randint(0, N) for _ in range(k)]
                for _ in range(rng.randint(0, 3))]
        basis = subgroup_basis(gens, k, M) if gens else []
        if math.prod(_coset_steps(basis, k, M)) > 3000:
            continue
        tried += 1
        x0 = tuple(rng.randrange(M) for _ in range(k))
        assert list(_iter_coset(x0, basis, k, M)) == \
            product_coset(x0, basis, k, M)


def test_kernel_mod():
    ker = solve_affine_mod([[1, 1]], [0], 3, 1)
    assert ker == sorted(brute_force([[1, 1]], [0], 3, 1))


def test_residues_lexicographic_up_to_the_budget():
    got = list(residues(2, 3, 9))
    assert got == [(a, b) for a in range(3) for b in range(3)]
    assert list(residues(0, 5, 1)) == [()]


def test_residues_over_budget_raise_on_the_call():
    # the error comes before iteration: no tuple is ever produced
    with pytest.raises(SolveBudgetError) as info:
        residues(3, 3, 26)
    assert str(info.value) == "enumeration of 27 residues exceeds budget 26"


def test_budget_error():
    with pytest.raises(SolveBudgetError):
        solve_affine_mod([[0, 0, 0]], [0], 3, 4, limit=10)


# (A, b, p, N, limit) -> the budget message, recorded with the Smith-form
# solve over Z: the count it names is the first running product of the
# cycle lengths, in the row order of the triangular kernel basis, that
# exceeds the limit
PINNED_BUDGET_MESSAGES = [
    (([[0, 0, 0]], [0], 3, 4, 10),
     "solution set has 81+ elements (limit 10)"),
    (([[3, 0, 0], [0, 9, 0]], [0, 0], 3, 3, 100),
     "solution set has 729+ elements (limit 100)"),
    (([[1, 1, 0]], [2], 5, 2, 24),
     "solution set has 25+ elements (limit 24)"),
    (([[3, 0], [0, 1]], [3, 1], 3, 2, 2),
     "solution set has 3+ elements (limit 2)"),
    (([[1, 0], [0, 1]], [1, 1], 3, 2, 0),
     "solution set has 1+ elements (limit 0)"),
]


@pytest.mark.parametrize("args, message", PINNED_BUDGET_MESSAGES)
def test_budget_error_message_is_pinned(args, message):
    A, b, p, N, limit = args
    with pytest.raises(SolveBudgetError) as info:
        solve_affine_mod(A, b, p, N, limit)
    assert str(info.value) == message


@st.composite
def systems(draw):
    """(A, b, p, N) with p in {3, 5} and N in {1, 2, 3}: entries negative
    and unreduced; rows that repeat a combination of earlier ones (rank
    deficient); right sides either consistent by construction or drawn
    freely (often inconsistent)."""
    p = draw(st.sampled_from([3, 5]))
    N = draw(st.integers(1, 3))
    M = p**N
    k = draw(st.integers(1, 3 if M <= 9 else 2))
    m = draw(st.integers(1, 4))
    entry = st.one_of(st.integers(-2 * M, 2 * M),
                      st.builds(lambda e, u: p**e * u,
                                st.integers(0, N), st.integers(-4, 4)))
    A = [draw(st.lists(entry, min_size=k, max_size=k))]
    for _ in range(m - 1):
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(A),
                                   max_size=len(A)))
            A.append([sum(c * row[j] for c, row in zip(coeffs, A))
                      for j in range(k)])
        else:
            A.append(draw(st.lists(entry, min_size=k, max_size=k)))
    if draw(st.booleans()):
        x = draw(st.lists(st.integers(-M, 2 * M), min_size=k, max_size=k))
        b = [sum(a * v for a, v in zip(row, x)) + M * draw(st.integers(-2, 2))
             for row in A]
    else:
        b = draw(st.lists(entry, min_size=m, max_size=m))
    return A, b, p, N


@settings(max_examples=100, deadline=None)
@given(systems())
def test_solve_property_p3_p5(system):
    A, b, p, N = system
    want = sorted(brute_force(A, b, p, N))
    assert solve_affine_mod(A, b, p, N) == want
    assert sorted(iter_affine_mod(A, b, p, N)) == want
    assert solve_affine_mod(A, [0] * len(A), p, N) == \
        sorted(brute_force(A, [0] * len(A), p, N))


@settings(max_examples=60, deadline=None)
@given(systems())
def test_budget_error_exactly_past_the_count(system):
    A, b, p, N = system
    count = len(brute_force(A, b, p, N))
    assert len(solve_affine_mod(A, b, p, N, limit=count)) == count
    if count:
        with pytest.raises(SolveBudgetError):
            solve_affine_mod(A, b, p, N, limit=count - 1)


def test_iter_order_of_a_conjugator_system_is_pinned():
    # the first 20 candidates of the conjugator search on the hermitian
    # general-path member below, in the order of the chain-ring kernel
    # basis: the first hit of this order is a reported witness
    space = standard_space(HERMITIAN, 2, Ring(3, INERT, 2))
    a = certify_group(space, parse_matrix(
        space.ring, "16+16*s, 17+8*s; 10+19*s, 7+25*s"))
    A, b = _conjugator_system(space, tuple(a.mat.components()))
    first = list(itertools.islice(iter_affine_mod(A, b, 3, 2), 20))
    assert hashlib.sha256(json.dumps(first).encode()).hexdigest() == \
        "cc72e4790752864aaaedeea776e1200ffb00f0f3663a4b2d92d58a4417e0dcab"
    assert len(solve_affine_mod(A, b, 3, 2)) == 6561


@settings(max_examples=40)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                min_size=2, max_size=2),
       st.lists(st.integers(-4, 4), min_size=2, max_size=2))
def test_solve_property_mod9(A, b):
    assert solve_affine_mod(A, b, 3, 2) == sorted(brute_force(A, b, 3, 2))
