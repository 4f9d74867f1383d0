"""Lattices and orders: the stable lattice in V, its stabilizer order, the
Lie-algebra lattices, intersection lattices attached to group elements,
congruence-level enumerations, and the Cayley level-bijection checker.

All lattices are full-rank o_F-modules presented by a basis matrix in a
canonical Hermite form over the localization of the integers at p (pivots
are powers of p, entries below a pivot reduced mod that pivot), so lattice
equality is literal equality of normal forms.  The o_E-structure of the
vector-space lattice is tracked through the choice of F-coordinates but
all computation happens over F.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import modsolve
from .cayley import (cayley, components_per_scalar, mat_components,
                     mat_from_components, mat_numerators, multiplier_predicate)
from .involution import theta_lie
from .matrices import Mat
from .scalars import val_fraction
from .spaces import GroupElem, Space, certify_lie, star


class LatticeBudgetError(RuntimeError):
    pass


class LatticeError(ValueError):
    pass


# -- Fraction matrix helpers (rows = lists of Fraction) ---------------


def fr_matvec(A, v):
    return [sum(a * x for a, x in zip(row, v)) for row in A]


def fr_transpose(A):
    return [list(r) for r in zip(*A)]


def fr_inv(A):
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(1) if j == i else Fraction(0)
                                         for j in range(n)]
           for i, row in enumerate(A)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise LatticeError("singular basis matrix")
        aug[col], aug[piv] = aug[piv], aug[col]
        d = aug[col][col]
        aug[col] = [x / d for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _canonical_residue_fr(x: Fraction, p: int, e: int) -> Fraction:
    """Canonical representative of x mod p^e in Z_(p), allowing x to have
    negative valuation (the representative then keeps the same denominator
    power of p)."""
    v = val_fraction(x, p)
    if v >= e:
        return Fraction(0)
    shift = min(int(v), 0)
    m = p ** (e - shift)
    y = x / Fraction(p) ** shift
    r = y.numerator * pow(y.denominator, -1, m) % m
    return Fraction(r) * Fraction(p) ** shift


def hnf_columns(p: int, dim: int, cols) -> tuple:
    """Canonical Hermite form over Z_(p) of the column span of ``cols``.

    Returns a tuple of dim column tuples: lower triangular, diagonal a power
    of p, entries below a pivot integer representatives mod that pivot.
    Requires the columns to span the full space.
    """
    work = [list(map(Fraction, c)) for c in cols]
    pivots = []
    for row in range(dim):
        best = None
        bestval = None
        for idx, c in enumerate(work):
            v = val_fraction(c[row], p)
            if c[row] != 0 and (bestval is None or v < bestval):
                best, bestval = idx, v
        if best is None:
            raise LatticeError("columns do not span the full space")
        pivot = work.pop(best)
        for c in work:
            if c[row] != 0:
                f = c[row] / pivot[row]
                for i in range(dim):
                    c[i] -= f * pivot[i]
        # normalize the pivot entry to p^e by a unit scaling
        unit = pivot[row] / Fraction(p) ** bestval
        pivot = [x / unit for x in pivot]
        pivots.append((row, bestval, pivot))
    # back-reduce entries below earlier pivots
    pivots.sort(key=lambda t: t[0])
    for j in range(len(pivots)):
        rj, _, colj = pivots[j]
        for i in range(j + 1, len(pivots)):
            ri, ei, coli = pivots[i]
            entry = colj[ri]
            if entry == 0:
                continue
            target = _canonical_residue_fr(entry, p, ei)
            q = (entry - target) / Fraction(p) ** ei
            for r in range(dim):
                colj[r] -= q * coli[r]
    return tuple(tuple(c) for _, _, c in pivots)


@dataclass(frozen=True)
class LatticeBasis:
    """A full o_F-lattice in an F-space, in canonical Hermite form."""

    p: int
    dim: int
    cols: tuple
    ambient: str = field(default="generic", compare=False)

    @staticmethod
    def from_columns(p: int, dim: int, cols, ambient="generic") -> "LatticeBasis":
        return LatticeBasis(p, dim, hnf_columns(p, dim, cols), ambient)

    @staticmethod
    def standard(p: int, dim: int, ambient="generic") -> "LatticeBasis":
        cols = [tuple(Fraction(1) if i == j else Fraction(0) for i in range(dim))
                for j in range(dim)]
        return LatticeBasis(p, dim, tuple(cols), ambient)

    def matrix(self):
        return fr_transpose([list(c) for c in self.cols])

    def scale(self, k: int) -> "LatticeBasis":
        f = Fraction(self.p) ** k
        return LatticeBasis.from_columns(
            self.p, self.dim, [[f * x for x in c] for c in self.cols], self.ambient)

    def transform(self, T) -> "LatticeBasis":
        """Image under an invertible F-linear operator given by rows T."""
        cols = [fr_matvec(T, list(c)) for c in self.cols]
        return LatticeBasis.from_columns(self.p, self.dim, cols, self.ambient)

    def dual_matrix(self):
        return fr_transpose(fr_inv(self.matrix()))

    def intersect(self, other: "LatticeBasis") -> "LatticeBasis":
        if (self.p, self.dim) != (other.p, other.dim):
            raise LatticeError("incompatible lattices")
        duals = fr_transpose(self.dual_matrix()) + fr_transpose(other.dual_matrix())
        sum_dual = hnf_columns(self.p, self.dim, duals)
        back = fr_transpose(fr_inv(fr_transpose([list(c) for c in sum_dual])))
        return LatticeBasis.from_columns(self.p, self.dim, fr_transpose(back),
                                         self.ambient)

    def contains_vector(self, v) -> bool:
        c = fr_matvec(fr_inv(self.matrix()), list(v))
        return all(val_fraction(x, self.p) >= 0 for x in c)

    def contains_lattice(self, other: "LatticeBasis") -> bool:
        Minv = fr_inv(self.matrix())
        for c in other.cols:
            coeffs = fr_matvec(Minv, list(c))
            if not all(val_fraction(x, self.p) >= 0 for x in coeffs):
                return False
        return True

    def to_text(self) -> str:
        return "; ".join(", ".join(str(x) for x in c) for c in self.cols)


# -- Lie-algebra coordinates ------------------------------------------


class LieCoords:
    """F-coordinates on the (similitude or isometry) Lie algebra of a space.

    The basis is integral and spans the standard Lie lattice (integral
    matrices inside the algebra) over o_F, so the standard lattice is the
    identity basis in these coordinates.
    """

    def __init__(self, space: Space, isometry: bool = False):
        if not space.ring.exact:
            raise LatticeError("coordinates are built over the exact field")
        self.space = space
        self.isometry = isometry
        self.d = components_per_scalar(space)
        self.m0 = space.n * space.n * self.d
        self.basis, self.alphas = self._build_basis()
        self.m = len(self.basis)
        # the integer matrix whose columns are the basis components
        cols = []
        for B in self.basis:
            comps, den = mat_numerators(space, B)
            if den != 1:
                raise LatticeError("coordinate basis is not integral")
            cols.append(comps)
        self._M = [list(row) for row in zip(*cols)]
        self._solver = self._build_solver()

    def _build_basis(self):
        space = self.space
        if not space.has_form:
            basis = []
            for idx in range(self.m0):
                comps = [0] * self.m0
                comps[idx] = 1
                basis.append(mat_from_components(space, comps))
            return basis, [space.ring.zero] * self.m0
        # unknowns: matrix components, plus alpha unless isometry
        extra = 0 if self.isometry else 1

        def residual(X, alpha):
            return X + star(space, X) - Mat.scalar_mat(space.ring, space.n, alpha)

        zero = Mat.zeros(space.ring, space.n)
        const = mat_components(space, residual(zero, space.ring.zero))
        cols = []
        for idx in range(self.m0 + extra):
            if idx < self.m0:
                comps = [0] * self.m0
                comps[idx] = 1
                probe = (mat_from_components(space, comps), space.ring.zero)
            else:
                probe = (zero, space.ring.one)
            img = mat_components(space, residual(*probe))
            cols.append([Fraction(x) - Fraction(c) for x, c in zip(img, const)])
        E = [[cols[j][i] for j in range(self.m0 + extra)]
             for i in range(self.m0)]
        E = _clear_denominators(E)
        _, D, V = modsolve.smith(E)
        rank = 0
        while rank < min(len(D), len(V)) and D[rank][rank] != 0:
            rank += 1
        basis, alphas = [], []
        for j in range(rank, len(V)):
            vec = [V[i][j] for i in range(len(V))]
            X = mat_from_components(space, [Fraction(v) for v in vec[:self.m0]])
            alpha = space.ring.scalar(vec[self.m0]) if extra else space.ring.zero
            basis.append(X)
            alphas.append(alpha)
        return basis, alphas

    def _build_solver(self):
        """Rows ``chosen`` of the coordinate matrix that are independent,
        and their inverse as an integer matrix over one denominator."""
        work, chosen = [], []
        for i, row in enumerate(self._M):
            cand = work + [list(map(Fraction, row))]
            if _fr_rank(cand) > len(work):
                work = cand
                chosen.append(i)
            if len(work) == self.m:
                break
        if len(work) != self.m:
            raise LatticeError("coordinate basis is degenerate")
        inv = fr_inv(work)
        den = math.lcm(*(x.denominator for row in inv for x in row))
        return chosen, [[int(x * den) for x in row] for row in inv], den

    def to_coords(self, X: Mat):
        flat, den = mat_numerators(self.space, X)
        chosen, inv, inv_den = self._solver
        picked = [flat[i] for i in chosen]
        c = [sum(a * x for a, x in zip(row, picked)) for row in inv]
        # c / (inv_den * den) are the coordinates; check that they give X
        for row, x in zip(self._M, flat):
            if sum(a * y for a, y in zip(row, c)) != x * inv_den:
                raise LatticeError("matrix is not in the Lie algebra")
        den *= inv_den
        return [Fraction(x, den) for x in c]

    def from_coords(self, c) -> Mat:
        c = list(map(Fraction, c))
        den = math.lcm(*(x.denominator for x in c))
        nums = [x.numerator * (den // x.denominator) for x in c]
        flat = [sum(a * x for a, x in zip(row, nums)) for row in self._M]
        return mat_from_components(self.space, flat, den)

    def operator_matrix(self, f):
        """Rows of the F-linear operator X -> f(X) in these coordinates."""
        cols = [self.to_coords(f(B)) for B in self.basis]
        return [[cols[j][i] for j in range(self.m)] for i in range(self.m)]

    def standard_lattice(self, ambient="lie") -> LatticeBasis:
        return LatticeBasis.standard(self.space.ring.p, self.m, ambient)


def _clear_denominators(E):
    out = []
    for row in E:
        den = 1
        for x in row:
            den = den * x.denominator // math.gcd(den, x.denominator)
        out.append([int(x * den) for x in row])
    return out


def _fr_rank(rows):
    work = [list(r) for r in rows]
    rank = 0
    ncols = len(work[0]) if work else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(work)) if work[r][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        d = work[rank][col]
        work[rank] = [x / d for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


# -- standard lattices ------------------------------------------------


@dataclass(frozen=True)
class StandardLattices:
    """L in V, its stabilizer order, and the two Lie-algebra lattices."""

    space: Space
    L: LatticeBasis
    Lhat: LatticeBasis
    Ldot: LatticeBasis
    Lddot: LatticeBasis
    gu_coords: LieCoords
    u_coords: LieCoords
    form_value_valuation: int


def standard_lattices(space: Space) -> StandardLattices:
    """The standard-basis lattice chain of a standard model.

    L is the o_E-span of the standard basis (checked stable under the fixed
    anti-unitary involution), Lhat its stabilizer order (the full integral
    matrix order for the standard models), Ldot and Lddot its intersections
    with the two Lie algebras.
    """
    p = space.ring.p
    d = components_per_scalar(space)
    nV = space.n * d
    L = LatticeBasis.standard(p, nV, ambient="V")
    if space.has_form:
        _check_h_stable(space, L)
    m0 = space.n * space.n * d
    Lhat = LatticeBasis.standard(p, m0, ambient="End")
    gu_coords = LieCoords(space, isometry=False)
    u_coords = LieCoords(space, isometry=True)
    Ldot = gu_coords.standard_lattice(ambient="gu")
    Lddot = u_coords.standard_lattice(ambient="u")
    fval = 0
    if space.has_form:
        fval = min(int(x.val()) for row in space.J.rows for x in row if bool(x))
    return StandardLattices(space, L, Lhat, Ldot, Lddot, gu_coords, u_coords,
                            fval)


def _check_h_stable(space: Space, L: LatticeBasis):
    # operator v -> H tau(v) on the F-coordinates of V
    d = components_per_scalar(space)
    nV = space.n * d
    cols = []
    for idx in range(nV):
        comps = [0] * nV
        comps[idx] = 1
        v = _vec_from_components(space, comps)
        img = space.H * v.tau()
        cols.append([Fraction(x) for x in _vec_components(space, img)])
    img_lat = LatticeBasis.from_columns(space.ring.p, nV, cols, "V")
    if img_lat != L:
        raise LatticeError("standard lattice is not stable under h")


def _vec_components(space: Space, v: Mat):
    out = []
    for row in v.rows:
        out.append(row[0].a)
        if components_per_scalar(space) == 2:
            out.append(row[0].b)
    return out


def _vec_from_components(space: Space, comps) -> Mat:
    d = components_per_scalar(space)
    ring = space.ring
    rows = []
    it = iter(comps)
    for _ in range(space.n):
        a = next(it)
        b = next(it) if d == 2 else 0
        rows.append([ring.scalar(a, b)])
    return Mat(ring, rows)


# -- lattice operations in Lie coordinates ----------------------------


def ad_operator(coords: LieCoords, x: Mat):
    return coords.operator_matrix(lambda B: x * B * x.inv())


def theta_operator(coords: LieCoords):
    space = coords.space

    def f(B):
        return theta_lie(certify_lie(space, B)).mat
    return coords.operator_matrix(f)


def lattice_of_x(coords: LieCoords, x: Mat,
                 base: LatticeBasis | None = None) -> LatticeBasis:
    """The intersection lattice Ad(x^-1) L meet L."""
    base = base if base is not None else coords.standard_lattice()
    T = ad_operator(coords, x.inv())
    return base.transform(T).intersect(base)


def transform_lattice(coords: LieCoords, op, lat: LatticeBasis) -> LatticeBasis:
    """op is ("theta",), ("ad", x) or ("scale", k)."""
    kind = op[0]
    if kind == "theta":
        return lat.transform(theta_operator(coords))
    if kind == "ad":
        return lat.transform(ad_operator(coords, op[1]))
    if kind == "scale":
        return lat.scale(op[1])
    raise ValueError(f"unknown lattice operation {kind!r}")


# -- congruence levels ------------------------------------------------


def _coefficient_tuples(count, modulus, budget):
    total = modulus**count
    if total > budget:
        raise LatticeBudgetError(
            f"enumeration of {total} residues exceeds budget {budget}")
    return itertools.product(range(modulus), repeat=count)


def _congruence_scan(space: Space, k: int, N: int, budget: int):
    """(truncated space, [(key, comps, mu)]) for every residue 1 + p^k Y
    mod p^N in the similitude group, sorted by key.  One integer scan per
    (space, k, N), kept in ``space.memo``; the isometry variant filters it.
    """
    memo_key = ("congruence-scan", k, N)
    if memo_key in space.memo:
        return space.memo[memo_key]
    space_t = space.truncated(N) if space.ring.exact else space
    ring = space_t.ring
    d = components_per_scalar(space_t)
    m0 = space_t.n * space_t.n * d
    pk, M = ring.p**k, ring.modulus
    ident = mat_components(space_t, Mat.identity(ring, space_t.n))
    mu_of = multiplier_predicate(space_t)
    entries = []
    for coeffs in _coefficient_tuples(m0, ring.p**(N - k), budget):
        comps = [(e + c * pk) % M for e, c in zip(ident, coeffs)]
        mu = mu_of(comps)
        if mu is None:
            continue
        key = tuple(comps) if d == 2 else \
            tuple(v for c in comps for v in (c, 0))
        entries.append((key, comps, mu))
    entries.sort(key=lambda e: e[0])
    space.memo[memo_key] = space_t, entries
    return space_t, entries


def congruence_members(space: Space, k: int, N: int, variant: str = "gu",
                       budget: int = 10**6):
    """All residues of (1 + p^k * integral) satisfying the truncated group
    condition mod p^N, in canonical order.  variant "u" forces multiplier 1.
    """
    if not (1 <= k < N):
        raise LatticeError("need 1 <= k < N")
    space_t, entries = _congruence_scan(space, k, N, budget)
    ring = space_t.ring
    return [GroupElem(space_t, mat_from_components(space_t, comps),
                      ring.scalar(mu))
            for _, comps, mu in entries if variant != "u" or mu == 1]


@dataclass
class LevelCheckReport:
    family: str
    k: int
    N: int
    variant: str
    image_size: int
    congruence_size: int
    injective: bool
    sets_equal: bool
    alpha_integral: bool
    mu_congruent: bool
    mismatches: list

    @property
    def passed(self) -> bool:
        return (self.injective and self.sets_equal and self.alpha_integral
                and self.mu_congruent and not self.mismatches)


def check_cayley_level(space: Space, std: StandardLattices, k: int, N: int,
                       variant: str = "gu", budget: int = 10**6) -> LevelCheckReport:
    """Verify that the Cayley map carries p^k * (Lie lattice) bijectively
    onto the congruence subgroup at level k, with the valuation bounds
    (alpha in p^k o_F, multiplier = 1 mod p^k) on every enumerated element.
    """
    if not (1 <= k < N):
        raise LatticeError("need 1 <= k < N")
    if not space.ring.exact:
        raise LatticeError("level check starts from the exact space")
    coords = std.u_coords if variant == "u" else std.gu_coords
    space_t = space.truncated(N)
    pk = space.ring.p**k
    image = {}
    alpha_ok = True
    mu_ok = True
    injective = True
    for coeffs in _coefficient_tuples(coords.m, space.ring.p**(N - k), budget):
        X = coords.from_coords([Fraction(c * pk) for c in coeffs])
        lie = certify_lie(space, X)
        if lie.alpha.val() < k:
            alpha_ok = False
        Xt = certify_lie(space_t, X.reduce(N))
        g = cayley(Xt)
        if (g.mu.a - 1) % pk != 0 or g.mu.b != 0:
            mu_ok = False
        key = g.mat.key()
        if key in image:
            injective = False
        image[key] = g
    _, entries = _congruence_scan(space, k, N, budget)
    member_keys = {key for key, _, mu in entries
                   if variant != "u" or mu == 1}
    sets_equal = set(image) == member_keys
    mismatches = []
    if not sets_equal:
        for key in sorted(set(image) ^ member_keys)[:5]:
            side = "image-only" if key in image else "congruence-only"
            mismatches.append((side, key))
    return LevelCheckReport(space.family, k, N, variant, len(image),
                            len(member_keys), injective, sets_equal, alpha_ok,
                            mu_ok, mismatches)
