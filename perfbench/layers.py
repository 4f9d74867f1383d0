"""Per-call costs of the layers too fine to trace call by call, timed in
batches of about 20 ms, each batch converted to reference speed with a
reference-kernel run just before and after it; the median batch is kept.

Operands are drawn the way the workloads draw them: exact elements from
``sample_lie``/``sample_group`` on the symplectic (split) and hermitian
(inert) models, and residues mod 3^3 of integral congruence elements.
"""

from __future__ import annotations

import itertools
import time

from refkernel import REF_SECONDS, time_kernel

BATCH_SECONDS = 0.02
BATCHES = 7
OPERANDS = 8


def _per_call_us(fn, operands) -> float:
    cycle = itertools.cycle(operands)
    t0 = time.perf_counter()
    fn(next(cycle))
    once = max(time.perf_counter() - t0, 1e-6)
    count = max(1, int(BATCH_SECONDS / once))
    per_call = []
    for _ in range(BATCHES):
        before = time_kernel()
        t0 = time.perf_counter()
        for _ in range(count):
            fn(next(cycle))
        took = time.perf_counter() - t0
        speed = (REF_SECONDS / before + REF_SECONDS / time_kernel()) / 2
        per_call.append(took * speed / count)
    per_call.sort()
    return per_call[len(per_call) // 2] * 1e6


def _operands(family: str, seed: int) -> dict:
    from simdual import lattices, sampling, spaces, suites
    space = suites.build_space(family, 2, 3)
    std = lattices.standard_lattices(space)
    rng = sampling.make_rng(seed)
    lie = [sampling.sample_lie(std, rng) for _ in range(OPERANDS)]
    group = [sampling.sample_group(std, rng) for _ in range(OPERANDS)]
    trunc = space.truncated(3)
    mod_group = [sampling.sample_stabilizing(std, rng).mat.reduce(3)
                 for _ in range(OPERANDS)]
    mod_lie = [spaces.certify_lie(trunc, sampling.sample_integral_lie(
        std, rng, level=1).mat.reduce(3)) for _ in range(OPERANDS)]
    return {"space": space, "std": std, "lie": lie, "group": group,
            "mod_group": mod_group, "mod_lie": mod_lie}


def measure(seed: int) -> dict:
    from simdual import cayley, lattices, spaces
    out = {}
    split = _operands("symplectic", seed)
    inert = _operands("hermitian", seed)
    kinds = {"exact-split": [g.mat for g in split["group"]],
             "exact-inert": [g.mat for g in inert["group"]],
             "mod-split": split["mod_group"],
             "mod-inert": inert["mod_group"]}
    for kind, mats in kinds.items():
        entries = [x for m in mats for row in m.rows for x in row]
        pairs = list(zip(entries, entries[1:] + entries[:1]))
        units = [x for x in entries if (x.is_unit() if not x.ring.exact
                                        else bool(x))]
        mat_pairs = list(zip(mats, mats[1:] + mats[:1]))
        out[f"scalars.mul_us.{kind}"] = _per_call_us(
            lambda ab: ab[0] * ab[1], pairs)
        out[f"scalars.inv_us.{kind}"] = _per_call_us(lambda a: a.inv(), units)
        out[f"matrices.mul_us.{kind}"] = _per_call_us(
            lambda ab: ab[0] * ab[1], mat_pairs)
        out[f"matrices.inv_us.{kind}"] = _per_call_us(lambda m: m.inv(), mats)
    out["matrices.key_us.mod"] = _per_call_us(lambda m: m.key(),
                                              split["mod_group"])
    for kind, ops in (("split", split), ("inert", inert)):
        space = ops["space"]
        out[f"spaces.star_us.{kind}"] = _per_call_us(
            lambda X: spaces.star(space, X.mat), ops["lie"])
    out["cayley.cayley_us.exact-split"] = _per_call_us(cayley.cayley,
                                                       split["lie"])
    out["cayley.cayley_us.exact-inert"] = _per_call_us(cayley.cayley,
                                                       inert["lie"])
    out["cayley.cayley_us.mod"] = _per_call_us(cayley.cayley,
                                               split["mod_lie"])
    coords = split["std"].gu_coords
    out["lattices.lattice_of_x_us"] = _per_call_us(
        lambda g: lattices.lattice_of_x(coords, g.mat), split["group"])
    return out
