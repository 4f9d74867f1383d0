"""Integer linear algebra mod p^N: one elimination for affine solves, one
column Hermite reduction, and the one budgeted enumeration of residue
tuples.

Every affine solve mod p^N eliminates over the chain ring Z/p^N
(``_chain_solution``): every entry is p^v times a unit, so pivoting on
the least p-valuation clears each column with exact quotients, with no
Euclid loop and no augmented columns, and every integer stays below p^N
(Storjohann, *Algorithms for Matrix Canonical Forms*, ETH 2000; Cohen,
GTM 138, 2.4).

Every coset is walked by the one odometer ``_iter_coset``: x0 plus every
combination of the triangular kernel basis, first column slowest, adding
one fixed vector per step.  ``iter_affine_mod`` yields it lazily,
``solve_affine_mod`` sorts it under a budget, and the congruence lift of
``lattices`` walks it around a closed-form translate per member.
``residues`` is the one enumeration of all tuples of residues mod a
modulus: the matrix scans of ``involution`` and ``cayley`` and the
coordinate vectors of ``lattices`` run on it.  Every enumeration over
its budget raises ``SolveBudgetError``.

The column reduction ``subgroup_basis`` is the one triangularization of
integer columns: it gives the kernel bases of the affine solves and, over
Z, the Hermite forms of ``lattices`` and the integer kernel of the Lie
system, read off the reduction of [E; I] (Cohen, GTM 138, 2.4).

Matrices are plain lists of lists of Python ints.  Sizes here are tiny
(at most a few dozen rows), so the classical algorithms are plenty.
"""

from __future__ import annotations

import itertools
import math


class SolveBudgetError(RuntimeError):
    """An enumeration would exceed the stated budget."""


def residues(count, modulus, limit):
    """Every tuple of ``count`` residues in range(modulus), in lexicographic
    order, as a lazy ``itertools.product``.  The budget is checked here, on
    the call, before any tuple exists: SolveBudgetError when there are more
    than ``limit`` tuples."""
    total = modulus**count
    if total > limit:
        raise SolveBudgetError(
            f"enumeration of {total} residues exceeds budget {limit}")
    return itertools.product(range(modulus), repeat=count)


def _identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _chain_solution(A, b, p, N):
    """Particular solution and kernel basis of A x = b mod M = p^N, or
    None, by one elimination over the chain ring Z/M.

    Each step takes a pivot of least p-valuation v in the trailing block
    and scales its row to make the pivot p^v.  Every entry of its column
    and row then has valuation >= v, so row operations (applied to b too)
    clear the column and column operations (recorded in V) clear the row,
    each with the exact quotient entry // p^v.  This gives D = U A V
    diagonal with U and V invertible mod M, and A x = b becomes
    p^v y_t = c_t on the pivots and 0 = c_i past the rank.  Returns
    (x0, basis, k, M) with x0 = V y0 and ``basis`` the lower-triangular
    column basis (``subgroup_basis``) of the kernel, which the generators
    V p^(N-v) e_t (v > 0) and V e_t (t a free column) span with M Z^k.
    """
    M = p**N
    m = len(A)
    k = len(A[0]) if m else 0
    D = [[a % M for a in row] for row in A]
    c = [v % M for v in b]
    V = [[int(i == j) for i in range(k)] for j in range(k)]  # columns
    pivots = []                     # p^v of each pivot, in order
    for t in range(min(m, k)):
        best, piv = N, None
        for i in range(t, m):
            row = D[i]
            for j in range(t, k):
                a = row[j]
                if a:
                    v = 0
                    while a % p == 0:
                        a //= p
                        v += 1
                    if v < best:
                        best, piv = v, (i, j)
                        if not v:
                            break
            if not best:
                break
        if piv is None:
            break
        i0, j0 = piv
        D[t], D[i0] = D[i0], D[t]
        c[t], c[i0] = c[i0], c[t]
        if j0 != t:
            for row in D[t:]:
                row[t], row[j0] = row[j0], row[t]
            V[t], V[j0] = V[j0], V[t]
        pv = p**best
        row = D[t]
        f = pow(row[t] // pv, -1, M)
        row = D[t] = [a * f % M for a in row]
        ct = c[t] = c[t] * f % M
        for i in range(t + 1, m):
            q = D[i][t] // pv
            if q:
                D[i] = [(a - q * e) % M for a, e in zip(D[i], row)]
                c[i] = (c[i] - q * ct) % M
        # the pivot row is not read again, so only V records the column
        # operations that clear it
        vt = V[t]
        for j in range(t + 1, k):
            q = row[j] // pv
            if q:
                V[j] = [(a - q * e) % M for a, e in zip(V[j], vt)]
        pivots.append(pv)
    r = len(pivots)
    if any(c[r:]) or any(ct % pv for ct, pv in zip(c, pivots)):
        return None
    x0 = [0] * k
    for ct, pv, col in zip(c, pivots, V):
        y = ct // pv
        if y:
            x0 = [(a + y * e) % M for a, e in zip(x0, col)]
    gens = [[a * (M // pv) for a in col]
            for pv, col in zip(pivots, V) if pv > 1] + V[r:]
    return tuple(x0), subgroup_basis(gens, k, M) if gens else [], k, M


def solve_affine_mod(A, b, p, N, limit=10**6):
    """All solutions x mod p^N of A x = b mod p^N, in canonical order.

    Returns a (possibly empty) sorted list of tuples; raises
    SolveBudgetError if the solution set exceeds ``limit``.
    """
    data = _chain_solution(A, b, p, N)
    return [] if data is None else _enumerate_coset(*data, limit)


def iter_affine_mod(A, b, p, N):
    """Yield the solutions of A x = b mod p^N lazily.

    The order is deterministic (fixed traversal of the triangular kernel
    basis of ``_chain_solution``) but not globally sorted; intended for
    first-hit searches.
    """
    data = _chain_solution(A, b, p, N)
    if data is not None:
        yield from _iter_coset(*data)


def subgroup_basis(gens, k, M):
    """Lower-triangular basis (list of columns) of the subgroup of (Z/M)^k
    generated by ``gens`` together with M Z^k; M = 0 means over Z.  The
    columns have their first nonzero entries at increasing rows, and those
    entries are positive."""
    cols = [g[:] for g in gens] + [[M if i == j else 0 for i in range(k)]
                                   for j in range(k) if M]
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
