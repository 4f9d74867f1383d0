#!/usr/bin/env python3
"""Exhaustive census of Cayley-map fibers over a truncated ring.

Enumerates every Lie element in the working domain mod p^N, buckets the
images, and cross-checks each bucket against the per-element fiber
computation, which decides each branch lambda from
(lambda + g)(1 + X) = (1 + lambda) 1: in closed form where 1 + lambda
and lambda + g are units, by an affine solve where both are 0 mod p,
and not at all otherwise.  Prints the tag distribution, any mismatch
between the two independent computations, and the number of preimages
outside the working domain, which must be 0.  Exits 1 when either count
is not 0, and 2 with one line on stderr on bad arguments or when the
enumeration exceeds its budget.

Usage: PYTHONPATH=src python3 scripts/fiber_census.py [--family F]
       [--prime P] [--precision N] [--dim n]

F is one of orthogonal, symplectic (the default), hermitian and
skew-hermitian; the last two work over the unramified quadratic
extension.
"""

import argparse
import sys
from collections import Counter

from simdual.cayley import bucket_domain_images, fiber, in_domain
from simdual.matrices import Mat
from simdual.modsolve import SolveBudgetError
from simdual.scalars import INERT, is_odd_prime
from simdual.spaces import (HERMITIAN, ORTHOGONAL, SKEW_HERMITIAN, SYMPLECTIC,
                            SpaceError, certify_group)
from simdual.suites import build_space

FAMILIES = (ORTHOGONAL, SYMPLECTIC, HERMITIAN, SKEW_HERMITIAN)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", choices=FAMILIES, default=SYMPLECTIC)
    ap.add_argument("--prime", type=int, default=3)
    ap.add_argument("--precision", type=int, default=2)
    ap.add_argument("--dim", type=int, default=2)
    args = ap.parse_args(argv)
    if not is_odd_prime(args.prime):
        return _error(f"--prime must be an odd prime, got {args.prime}")
    for name in ("precision", "dim"):
        if getattr(args, name) < 1:
            return _error(f"--{name} must be >= 1, got {getattr(args, name)}")
    try:
        return _census(build_space(args.family, args.dim,
                                   args.prime).truncated(args.precision))
    except (SpaceError, SolveBudgetError) as exc:
        return _error(str(exc))


def _error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _census(space) -> int:
    buckets = bucket_domain_images(space)
    print(f"domain images mod {space.ring.p}^{space.ring.prec}: "
          f"{len(buckets)}")

    tags = Counter()
    sizes = Counter()
    mismatches = outside = 0
    for key in sorted(buckets):
        # an inert key is the components; a split key lists the pair
        # (a, 0) of every entry
        comps = key if space.ring.ext == INERT else key[::2]
        g = certify_group(space,
                          Mat.from_components(space.ring, space.n, comps))
        res = fiber(g)
        tags[res.tag] += 1
        sizes[len(buckets[key])] += 1
        outside += sum(not in_domain(p.X) for p in res.preimages)
        got = sorted(p.X.mat.key() for p in res.preimages)
        if got != buckets[key]:
            mismatches += 1
            print("MISMATCH at image", g.mat.to_text())

    print("fiber tags:", dict(sorted(tags.items())))
    print("fiber sizes:", dict(sorted(sizes.items())))
    print("mismatches:", mismatches)
    print("preimages outside the domain:", outside)
    return 1 if mismatches or outside else 0


if __name__ == "__main__":
    sys.exit(main())
