"""Integer linear algebra mod p^N and over Z: one column reduction for
every kernel, affine solve and Hermite form, and the one budgeted
enumeration of residue tuples.

The column reduction ``subgroup_basis`` is the one triangularization of
integer columns.  Over Z it gcd-reduces each row, and gives the Hermite
forms of ``lattices``.  Mod p^N every entry is p^v times a unit, so each
row pivots on an entry of least valuation and clears the others with
exact quotients, with no Euclid loop, every integer below p^N
(Storjohann, *Algorithms for Matrix Canonical Forms*, ETH 2000).  Every
kernel and affine solve is read off one reduction of [A, -b; 0, 1; I, 0]
(``_affine_solution``): the columns that vanish on the rows of A are the
(t, x) with A x = t b, so t = 1 gives a solution and t = 0 the triangular
kernel basis (Cohen, GTM 138, 2.4).  It serves the affine solves, the
intersection lattices and the congruence lift mod p^e, and, over Z, the
integer kernel of the Lie system.

Every coset is walked by the one odometer ``_iter_coset``: x0 plus every
combination of the triangular kernel basis, first column slowest, adding
one fixed vector per step.  ``iter_affine_mod`` yields it lazily,
``solve_affine_mod`` sorts it under a budget, and the congruence lift of
``lattices`` walks it around a closed-form translate per member.
``residues`` is the one enumeration of all tuples of residues mod a
modulus: the matrix scans of ``involution`` and ``cayley`` and the
coordinate vectors of ``lattices`` run on it.  Every enumeration over
its budget raises ``SolveBudgetError``.

Matrices are plain lists of lists of Python ints.  Sizes here are tiny
(at most a few dozen rows), so the classical algorithms are plenty.
"""

from __future__ import annotations

import itertools
import math


class SolveBudgetError(RuntimeError):
    """An enumeration would exceed the stated budget."""


def residues(count, modulus, limit, step=1):
    """Every tuple of ``count`` residues in range(0, modulus, step), the
    multiples of ``step``, a divisor of ``modulus``, in lexicographic
    order, as a lazy ``itertools.product``.  The budget is checked here,
    on the call, before any tuple exists: SolveBudgetError when there are
    more than ``limit`` tuples."""
    total = (modulus // step)**count
    if total > limit:
        raise SolveBudgetError(
            f"enumeration of {total} residues exceeds budget {limit}")
    return itertools.product(range(0, modulus, step), repeat=count)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _affine_solution(A, b, M):
    """(x0, basis) for A x = b mod M (M = 0: over Z): x0 a solution, None
    when there is none, and ``basis`` the triangular basis of the kernel,
    read off one column reduction (``subgroup_basis``) of
    [A, -b; 0, 1; I, 0].  Its columns that vanish on the rows of A are
    the (t, x) with A x = t b: the one whose leading entry t is 1 gives
    x0, and the ones with t = 0 give the kernel basis."""
    r, k = len(A), len(A[0])
    cols = [[row[j] for row in A] + [0] + [int(i == j) for i in range(k)]
            for j in range(k)]
    cols.append([-v for v in b] + [1] + [0] * k)
    found = [col for col in subgroup_basis(cols, r + 1 + k, M)
             if not any(col[:r])]
    x0 = next((tuple(col[r + 1:]) for col in found if col[r] == 1), None)
    return x0, [col[r + 1:] for col in found if not col[r]]


def solve_affine_mod(A, b, p, N, limit=10**6):
    """All solutions x mod p^N of A x = b mod p^N, in canonical order.

    Returns a (possibly empty) sorted list of tuples; raises
    SolveBudgetError if the solution set exceeds ``limit``.
    """
    M = p**N
    x0, basis = _affine_solution(A, b, M)
    return [] if x0 is None else _enumerate_coset(x0, basis, len(x0), M,
                                                  limit)


def iter_affine_mod(A, b, p, N):
    """Yield the solutions of A x = b mod p^N lazily.

    The order is deterministic (fixed traversal of the triangular kernel
    basis of ``_affine_solution``) but not globally sorted; intended for
    first-hit searches.
    """
    M = p**N
    x0, basis = _affine_solution(A, b, M)
    if x0 is not None:
        yield from _iter_coset(x0, basis, len(x0), M)


def subgroup_basis(gens, k, M):
    """Lower-triangular basis (list of columns) of the subgroup of (Z/M)^k
    generated by ``gens`` together with M Z^k; M = 0 means over Z.  The
    columns have their first nonzero entries at increasing rows, and those
    entries are positive.

    Over Z each row is gcd-reduced across the columns.  Mod M = p^N every
    entry is p^v times a unit, so each row pivots on an entry a of least
    gcd(a, M), its column scaled by a unit to make the pivot that gcd g,
    which clears the row from every other column with exact quotients;
    (M / g) times the pivot column is 0 on the row and joins the
    generators of the later rows.  A row with no pivot gets the column
    M e_row, so the basis is square, with a power of p dividing M on its
    diagonal and every entry below it in [0, M).
    """
    if not M:
        return _hermite_columns(gens, k)
    cols = [[a % M for a in g] for g in gens]
    basis = []
    for row in range(k):
        least, g = None, M
        for c in cols:
            if c[row]:
                d = math.gcd(c[row], M)
                if d < g:
                    least, g = c, d
                    if d == 1:
                        break
        if least is None:
            basis.append([0] * k)
            basis[-1][row] = M
            continue
        unit = pow(least[row] // g, -1, M)
        pivot = [a * unit % M for a in least]
        rest = []
        for c in cols:
            if c is least:
                continue
            q = c[row] // g
            if q:
                c = [(a - q * e) % M for a, e in zip(c, pivot)]
            rest.append(c)
        if g > 1:
            rest.append([a * (M // g) % M for a in pivot])
        cols = rest
        basis.append(pivot)
    return basis


def _hermite_columns(gens, k):
    """``subgroup_basis`` over Z."""
    cols = [g[:] for g in gens]
    basis = []
    row = 0
    while row < k and cols:
        # gcd-reduce entries in this row across columns
        while True:
            nz = [c for c in cols if c[row] != 0]
            if len(nz) <= 1:
                break
            nz.sort(key=lambda c: abs(c[row]))
            c0 = nz[0]
            for c in nz[1:]:
                q = c[row] // c0[row]
                for i in range(k):
                    c[i] -= q * c0[i]
        nz = [c for c in cols if c[row] != 0]
        if nz:
            c0 = nz[0]
            if c0[row] < 0:
                for i in range(k):
                    c0[i] = -c0[i]
            basis.append(c0[:])
            cols = [c for c in cols if c is not c0]
        row += 1
    return basis


def _coset_steps(basis, k, M):
    """Cycle length of each basis column inside (Z/M)^k.

    The basis is lower triangular with distinct leading rows, so every
    combination with coefficients below these bounds is a distinct vector.
    """
    steps = []
    for col in basis:
        lead = next((col[i] for i in range(k) if col[i] != 0), M)
        steps.append(M // math.gcd(lead, M))
    return steps


def _iter_coset(x0, basis, k, M):
    """The coset x0 + <basis> in lexicographic order of the coefficients,
    the first basis column slowest, as an odometer on one running vector:
    stepping coefficient j by one, with every later coefficient wrapping
    from its bound to 0, adds the fixed vector col_j minus
    (step_i - 1) col_i over the later columns i."""
    steps = _coset_steps(basis, k, M)
    carries = []
    tail = [0] * k
    for col, step in zip(reversed(basis), reversed(steps)):
        carries.append([(e - t) % M for e, t in zip(col, tail)])
        tail = [t + (step - 1) * e for e, t in zip(col, tail)]
    carries.reverse()
    coeffs = [0] * len(basis)
    v = [a % M for a in x0]
    while True:
        yield tuple(v)
        j = len(basis) - 1
        while j >= 0 and coeffs[j] + 1 == steps[j]:
            coeffs[j] = 0
            j -= 1
        if j < 0:
            return
        coeffs[j] += 1
        v = [(a + e) % M for a, e in zip(v, carries[j])]


def _enumerate_coset(x0, basis, k, M, limit):
    """The coset x0 + <basis>, sorted; SolveBudgetError when it has more
    than ``limit`` elements (a coset of the trivial subgroup has 1)."""
    count = 1
    for step in _coset_steps(basis, k, M) or [1]:
        count *= step
        if count > limit:
            raise SolveBudgetError(
                f"solution set has {count}+ elements (limit {limit})")
    return sorted(_iter_coset(x0, basis, k, M))
