"""Seeded deterministic sampling of Lie-algebra and group elements.

Lie elements are drawn in the coordinates of the similitude (or isometry)
Lie algebra with rational coefficients of bounded numerator size and
bounded denominator p-valuation, then rejection-sampled into the working
domain of the Cayley map.  Group elements are scalar multiples of
products of Cayley images of the same draws, computed by the ``cayley``
kernels on integer numerators over one denominator, then decoded and
certified once.
"""

from __future__ import annotations

import random

from .cayley import cayley, cayley_kernel, in_domain, lie_alpha_kernel
from .involution import theta_group
from .lattices import StandardLattices
from .matrices import Mat, product_kernel
from .spaces import GroupElem, LieElem, certify_group, certify_lie


class SamplingError(RuntimeError):
    pass


def make_rng(seed: int) -> random.Random:
    return random.Random(seed)


# every coordinate draw is a numerator in [-NUMERATOR_BOUND,
# NUMERATOR_BOUND] over p^e, e in [0, DENOMINATOR_VALUATION]; a rejection
# sampler gives up after MAX_REJECTS draws
NUMERATOR_BOUND = 20
DENOMINATOR_VALUATION = 1
MAX_REJECTS = 200


def _draws(coords, rng: random.Random):
    """The coordinates a rejection sampler tries, ``MAX_REJECTS`` of them:
    each coordinate a numerator and then a power of p as its denominator,
    all given as (integer numerators, den) over the largest power den."""
    p = coords.space.ring.p
    for _ in range(MAX_REJECTS):
        draws = [(rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND),
                  rng.randint(0, DENOMINATOR_VALUATION))
                 for _ in range(coords.m)]
        top = max((e for _, e in draws), default=0)
        yield [num * p ** (top - e) for num, e in draws], p ** top
    raise SamplingError("rejection sampling exhausted its attempt budget")


def sample_lie(std: StandardLattices, rng: random.Random,
               isometry: bool = False) -> LieElem:
    """A random certified Lie element inside the working domain."""
    coords = std.u_coords if isometry else std.gu_coords
    space = coords.space
    for nums, den in _draws(coords, rng):
        X = certify_lie(space, Mat.from_components(
            space.ring, space.n, coords.numerators(nums), den))
        if in_domain(X):
            return X


def sample_integral_lie(std: StandardLattices, rng: random.Random,
                        level: int = 1) -> LieElem:
    """A random element of p^level * Ldot (always in the working domain
    for level >= 1)."""
    coords = std.gu_coords
    space = coords.space
    pk = space.ring.p ** level
    c = [rng.randint(-NUMERATOR_BOUND, NUMERATOR_BOUND) * pk
         for _ in range(coords.m)]
    return certify_lie(space, coords.from_coords(c))


def sample_group(std: StandardLattices, rng: random.Random,
                 isometry: bool = False, factors: int = 2) -> GroupElem:
    """A random certified group element: scalar * product of Cayley images
    of ``sample_lie`` draws, from the same random stream.

    Isometry mode drops the scalar and uses isometry Lie elements, so the
    multiplier is 1.
    """
    space = std.space
    coords = std.u_coords if isometry else std.gu_coords
    alpha_of, c = lie_alpha_kernel(space), cayley_kernel(space)
    mul = product_kernel(space.ring, space.n)
    nums, den = space.identity().numerators()
    for _ in range(factors):
        for v, d in _draws(coords, rng):     # rejected as by in_domain
            x = coords.numerators(v)
            a = alpha_of(x)                 # alpha d; k clears a fraction
            k = a.denominator
            image = c([e * k for e in x], a.numerator, d * k)
            if image is not None:
                break
        nums, den = mul(nums, image[0]), den * image[1]
    if not isometry:
        p = space.ring.p
        s = rng.randint(1, 5 * p)
        while s % p == 0:
            s = rng.randint(1, 5 * p)
        nums = [v * s for v in nums]
    return certify_group(space,
                         Mat.from_components(space.ring, space.n, nums, den))


def sample_theta_fixed(std: StandardLattices, rng: random.Random) -> GroupElem:
    """A random theta-fixed group element: theta(g) * g is always fixed
    because theta is an involutive anti-automorphism."""
    g = sample_group(std, rng, isometry=True)
    x = theta_group(g) * g
    return certify_group(std.space, x.mat)


def sample_stabilizing(std: StandardLattices, rng: random.Random) -> GroupElem:
    """A random group element whose conjugation preserves the standard Lie
    lattice: the Cayley image of an integral element of p * Ldot is
    congruent to 1 mod p, hence integral with integral inverse."""
    X = sample_integral_lie(std, rng, level=1)
    return cayley(X)
