"""Correctness checks on simdual's outputs that rest on mathematics and on
the benchmark's own arithmetic (``modarith``), never on a stored copy of
an earlier run.  Each check returns a list of problems; empty means pass.
"""

from __future__ import annotations

from math import prod

from modarith import Model


def lie_dim(family: str, n: int, similitude: bool = True) -> int:
    """F-dimension of the (similitude) Lie algebra of a standard model."""
    if family == "general-linear":
        return n * n
    base = {"symplectic": n * (n + 1) // 2, "orthogonal": n * (n - 1) // 2,
            "hermitian": n * n, "skew-hermitian": n * n}[family]
    return base + (1 if similitude else 0)


def check_suite_report(report: dict, family: str, samples: int,
                       precision: int, level: int, p: int) -> list:
    """Rows of one ``verify`` report: every row passes, sampled rows ran
    their full sample count, and each level bijection's image and
    congruence subgroup both have p^((N-k) dim) elements."""
    problems = []
    for row in report["rows"]:
        name, detail = row["name"], row.get("detail") or {}
        if row["status"] != "pass":
            problems.append(f"{family}: row {name} is {row['status']}")
        if "samples" in detail and detail["samples"] not in (
                samples, min(samples, 100)):
            problems.append(f"{family}: row {name} ran {detail['samples']} "
                            f"samples, asked {samples}")
        if name.startswith("cayley-level-bijection-"):
            similitude = name.endswith("-gu")
            want = p ** ((precision - level) * lie_dim(family, 2, similitude))
            if detail.get("image") != want or detail.get("congruence") != want:
                problems.append(f"{family}: {name} image {detail.get('image')}"
                                f" congruence {detail.get('congruence')}, "
                                f"expected {want}")
    summary = report["summary"]
    if summary.get("pass", 0) != len(report["rows"]):
        problems.append(f"{family}: summary {summary} disagrees with rows")
    return problems


def check_coset(model: Model, level: int, base: tuple, members: list,
                subgroup: list) -> list:
    """|C| = p^((N-l) dim) and C = b * K, K the congruence subgroup at
    ``level`` enumerated by brute force."""
    ar = model.ar
    want = ar.p ** ((ar.N - level) * lie_dim(model.family, ar.n))
    problems = []
    if len(members) != want:
        problems.append(f"coset has {len(members)} members, expected {want}")
    if len(subgroup) != want:
        problems.append(f"brute-force congruence subgroup has "
                        f"{len(subgroup)} members, expected {want}")
    if set(members) != {ar.mul(base, k) for k in subgroup}:
        problems.append("coset members differ from b * (congruence subgroup)")
    return problems


def check_pieces(model: Model, members: list, pieces: list) -> list:
    """``pieces`` is a list of (member keys, witness key).  The pieces are
    pairwise disjoint, cover the coset, and theta(S) = g S g^-1 for each,
    checked as theta(S) g = g S so that no inverse is needed."""
    ar = model.ar
    problems = []
    union = set()
    for i, (keys, g) in enumerate(pieces):
        keys = set(keys)
        if union & keys:
            problems.append(f"piece {i} overlaps an earlier piece")
        union |= keys
        if model.multiplier(g) is None:
            problems.append(f"piece {i}: witness is not a similitude")
            continue
        theta_side = {ar.mul(model.theta(s), g) for s in keys}
        conj_side = {ar.mul(g, s) for s in keys}
        if theta_side != conj_side:
            problems.append(f"piece {i}: theta(S) != g S g^-1")
    if union != set(members):
        problems.append("pieces do not cover the coset")
    return problems


def check_fiber_census(model: Model, buckets: dict, mismatches: int) -> list:
    """The bucketing oracle and ``fiber`` agree, and every bucketed X
    maps to its bucket's image under the benchmark's own Cayley map."""
    problems = []
    if mismatches:
        problems.append(f"fiber census: {mismatches} images where fiber() "
                        f"and the bucketing oracle disagree")
    bad = sum(1 for image, xs in buckets.items() for x in xs
              if model.cayley(x) != image)
    if bad:
        problems.append(f"fiber census: {bad} preimages with c(X) != image")
    return problems


def group_order(family: str, n: int, q: int) -> int:
    sp2 = q * (q * q - 1)
    u2 = q * (q * q - 1) * (q + 1)
    return {"sp": sp2, "gsp": (q - 1) * sp2, "u": u2, "gu": (q - 1) * u2,
            "gl": prod(q**n - q**i for i in range(n)),
            "o+": 2 * (q - 1), "o-": 2 * (q + 1)}[family]


def class_count(family: str, n: int, q: int) -> int | None:
    """Number of conjugacy classes where a closed formula is known."""
    if family == "sp" and n == 2:
        return q + 4
    if family in ("gl", "gsp") and n == 2:       # GSp_2 = GL_2
        return q * q - 1
    if family == "gl" and n == 3:
        return q**3 - q
    if family == "u" and n == 2:
        # q+1 central, q+1 scalar-times-unipotent, q(q+1)/2 with two
        # eigenvalues of norm 1, (q+1)(q-2)/2 with a conjugate pair
        return (q + 1) ** 2
    if family in ("o+", "o-"):                   # dihedral of order 2m
        m = q - 1 if family == "o+" else q + 1
        return (m + 6) // 2 if m % 2 == 0 else (m + 3) // 2
    return None


def check_finite(family: str, n: int, q: int, elements: list,
                 num_classes: int, rows: list) -> list:
    """``elements`` are the table's matrix keys; ``rows`` are
    (status, iota class, inverse class, rep key, conjugator key or None).
    Checks the order and class count against closed formulas, membership
    of every element, and every class's conjugator h: theta(h) = h,
    mu(h) = 1 and h a h^-1 = theta(a)."""
    model = Model(family, n, q, 1)
    ar = model.ar
    problems = []
    want = group_order(family, n, q)
    if len(elements) != want or len(set(elements)) != want:
        problems.append(f"{family}({n},{q}): order {len(elements)}, "
                        f"expected {want}")
    outside = sum(1 for e in elements if model.multiplier(e) is None)
    if outside:
        problems.append(f"{family}({n},{q}): {outside} elements outside "
                        f"the group")
    classes = class_count(family, n, q)
    if classes is not None and num_classes != classes:
        problems.append(f"{family}({n},{q}): {num_classes} classes, "
                        f"expected {classes}")
    if len(rows) != num_classes:
        problems.append(f"{family}({n},{q}): {len(rows)} class rows for "
                        f"{num_classes} classes")
    for status, iota_class, inverse_class, a, h in rows:
        where = f"{family}({n},{q}) class of {a}"
        if status != "pass" or iota_class != inverse_class:
            problems.append(f"{where}: iota(a) not conjugate to a^-1")
        if h is None:
            problems.append(f"{where}: no conjugator")
            continue
        if model.has_form and model.multiplier(h) != (1, 0):
            problems.append(f"{where}: mu(h) != 1")
        if not model.has_form and model.multiplier(h) is None:
            problems.append(f"{where}: conjugator not invertible")
        if model.theta(h) != h:
            problems.append(f"{where}: theta(h) != h")
        if ar.mul(h, a) != ar.mul(model.theta(a), h):
            problems.append(f"{where}: h a h^-1 != theta(a)")
    return problems
