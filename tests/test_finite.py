import hashlib
import importlib.util
import json
import random
from pathlib import Path

import pytest

from simdual import cayley, finite
from simdual.finite import (FiniteGroupError, _verify_table, build_group,
                            conjugacy_classes, verify_class_inversion)
from simdual.involution import iota_group
from simdual.matrices import (Mat, matrix_inverse_kernel, parse_matrix,
                              product_kernel)
from simdual.modsolve import SolveBudgetError
from simdual.scalars import INERT, SPLIT, Ring
from simdual.spaces import (GENERAL_LINEAR, HERMITIAN, SYMPLECTIC,
                            standard_space)


def test_pinned_orders_and_class_counts():
    table = build_group("sp", 2, 3)
    assert table.order == 24
    assert conjugacy_classes(table).num_classes == 7

    table = build_group("gsp", 2, 3)
    assert table.order == 48
    assert conjugacy_classes(table).num_classes == 8

    table = build_group("u", 2, 3)
    assert table.order == 96

    table = build_group("gl", 2, 3)
    assert table.order == 48
    assert conjugacy_classes(table).num_classes == 8


def test_gu_order_counts_multiplier_image():
    # |GU| = |image of mu| * |U|; mu lands in F_3^x, of order 2
    table = build_group("gu", 2, 3)
    assert table.order == 192
    mus = {(e.mu.a, e.mu.b) for e in table.elements}
    assert len(mus) == 2


def test_orthogonal_families():
    assert build_group("o+", 2, 3).order == 4
    assert build_group("o-", 2, 3).order == 8
    with pytest.raises(FiniteGroupError):
        build_group("o+", 3, 3)


def test_iota_is_involutive_automorphism():
    table = build_group("sp", 2, 3)
    n = table.order
    assert sorted(table.iota) == list(range(n))
    for i in range(n):
        assert table.iota[table.iota[i]] == i
    els = table.elements
    for i in range(0, n, 5):
        for j in range(0, n, 7):
            prod = els[i] * els[j]
            lhs = table.iota[table.position(prod.mat)]
            rhs = els[table.iota[i]] * els[table.iota[j]]
            assert els[lhs].mat == rhs.mat


@pytest.mark.parametrize("target", [("sp", 2, 3), ("u", 2, 3), ("gu", 2, 3),
                                    ("o-", 2, 5), ("gl", 2, 3)],
                         ids=lambda t: "%s(%d,%d)" % t)
def test_inverse_and_iota_tables_match_group_elements(target):
    table = build_group(*target)
    els = table.elements
    for i, e in enumerate(els):
        assert els[table.inverse[i]].mat == e.inv().mat
        assert els[table.iota[i]].mat == iota_group(e).mat


@pytest.mark.parametrize("family, n, ext, N", [
    (SYMPLECTIC, 2, SPLIT, 1), (SYMPLECTIC, 2, SPLIT, 2),
    (GENERAL_LINEAR, 3, SPLIT, 1), (GENERAL_LINEAR, 3, SPLIT, 2),
    (HERMITIAN, 2, INERT, 1), (HERMITIAN, 2, INERT, 2),
    (HERMITIAN, 3, INERT, 2)])
def test_product_kernel_matches_matrix_product(family, n, ext, N):
    # the oracle is the termwise sum of scalar products, not Mat.__mul__,
    # which runs this kernel
    space = standard_space(family, n, Ring(3, ext, N))
    mul = product_kernel(space.ring, n)
    D = n * n * (2 if ext == INERT else 1)
    rng = random.Random(7)
    for _ in range(200):
        x, y = (tuple(rng.randrange(3**N) for _ in range(D))
                for _ in range(2))
        a, b = (Mat.from_components(space.ring, n, v) for v in (x, y))
        prod = Mat(space.ring, [[sum((a[i, k] * b[k, j] for k in range(n)),
                                     space.ring.zero) for j in range(n)]
                                for i in range(n)])
        assert mul(x, y) == tuple(prod.components())


def test_corrupted_iota_is_not_multiplicative():
    # sigma o iota o sigma, sigma swapping two non-identity elements, is
    # still a bijective involution; only the G x S check can catch it
    table = build_group("gl", 2, 3)
    one = table.position(table.space.identity())
    a, b = [i for i in range(table.order) if i != one][:2]
    sigma = list(range(table.order))
    sigma[a], sigma[b] = b, a
    corrupted = [sigma[table.iota[sigma[i]]] for i in range(table.order)]
    assert corrupted != table.iota
    table.iota = corrupted
    with pytest.raises(FiniteGroupError, match="iota is not multiplicative"):
        _verify_table(table)


def test_wrong_theta_kernel_is_caught_by_iota_group(monkeypatch):
    # with theta probed as the plain transpose, iota is transpose-inverse:
    # on GSp_2(F_3) = GL_2(F_3) still a bijective, involutive
    # automorphism, so only the independent iota_group formula on the
    # generators can catch it
    monkeypatch.setattr(cayley, "_theta_definition",
                        lambda space, g: g.transpose())
    with pytest.raises(FiniteGroupError,
                       match="iota differs from iota_group on a generator"):
        build_group("gsp", 2, 3)


@pytest.mark.parametrize("target", [("gl", 2, 3), ("gu", 2, 3)],
                         ids=lambda t: "%s(%d,%d)" % t)
def test_corrupted_inverse_table_is_caught(target):
    # the generator tree derives every inverse; the one-product check of
    # each entry is what certifies the table
    table = build_group(*target)
    _verify_table(table)
    inverse = table.inverse
    one = table.position(table.space.identity())
    a, b = [i for i in range(table.order) if i != one][:2]
    inverse[a], inverse[b] = inverse[b], inverse[a]
    with pytest.raises(FiniteGroupError, match="inverse table is wrong"):
        _verify_table(table)


def test_class_inversion_reports():
    for family, n, q, classes in (("sp", 2, 3, 7), ("gsp", 2, 3, 8),
                                  ("u", 2, 3, 16), ("gl", 2, 3, 8),
                                  ("o-", 2, 3, 5)):
        table = build_group(family, n, q)
        cm = conjugacy_classes(table)
        assert cm.num_classes == classes
        rep = verify_class_inversion(table, cm)
        assert rep.passed
        assert rep.permutations_equal
        ring = table.space.ring
        for row in rep.rows:
            assert row.status == "pass"
            assert row.iota_class == row.inverse_class
            # the conjugator witness satisfies its defining equations
            a = parse_matrix(ring, row.rep)
            h = parse_matrix(ring, row.conjugator)
            pos = table.position(a)
            hpos = table.position(h)
            assert table.iota[hpos] == table.inverse[hpos]   # theta(h) = h
            theta_a = table.elements[table.inverse[table.iota[pos]]]
            assert h * a * table.elements[table.inverse[hpos]].mat \
                == theta_a.mat
        assert sum(r.size for r in rep.rows) == table.order


def test_class_sizes_divide_order():
    table = build_group("sp", 2, 5)
    assert table.order == 120
    cm = conjugacy_classes(table)
    assert cm.num_classes == 9
    rep = verify_class_inversion(table, cm)
    assert rep.passed
    for row in rep.rows:
        assert table.order % row.size == 0


def test_budget_guard(monkeypatch):
    monkeypatch.setattr(finite, "SCAN_BUDGET", 10**6)
    with pytest.raises(SolveBudgetError):
        build_group("gl", 3, 5)
    monkeypatch.setattr(finite, "ORDER_BUDGET", 10)
    with pytest.raises(SolveBudgetError, match="group order exceeds 10$"):
        build_group("sp", 2, 3)


def test_survey_script_counts_groups_over_the_scan_budget_as_bad(
        monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" \
        / "finite_duality_survey.py"
    spec = importlib.util.spec_from_file_location("finite_duality_survey",
                                                  path)
    survey = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(survey)
    monkeypatch.setattr(finite, "SCAN_BUDGET", 1000)
    assert survey.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split()[0] for line in lines
              if "(build failed: " in line and "exceeds budget 1000" in line]
    assert failed == ["u(2,3)", "gu(2,3)", "gl(3,3)"]
    assert sum(line.split()[3] == "holds" for line in lines[1:]) == 10


def test_unknown_family():
    with pytest.raises(FiniteGroupError):
        build_group("nope", 2, 3)


# order, class count and the sha256 of the JSON of (element keys in table
# order, inverse, iota, class representatives, class_of, every ClassRow)
PINNED = {
    ("gl", 3, 3): (11232, 24, "2a2779db3e6e02b7151fbbe40865dc55"
                              "f27044362d550acf735af128f8442193"),
    ("gu", 2, 3): (192, 32, "4f5a602169ac880203facd14f3ffc0b6"
                            "79cc30de7b851f7e576fa9ea1cbdf031"),
    ("u", 2, 3): (96, 16, "155b37ed99537ee831403f0373125121"
                          "740779269309c5a7cc2500ac2dca3fcf"),
    ("sp", 2, 3): (24, 7, "f68bf09921ea620be136106618fc0e6f"
                          "f2657f57bd81bef52f62a8b6432afe97"),
    ("gsp", 2, 3): (48, 8, "7ad39e699018ad3c06244ef157658648"
                           "70da177ba421696cc28058e87fe41b0d"),
    ("sp", 2, 5): (120, 9, "0cbc88547b1246643e3366afd43142ce"
                           "358a9dda7021610158b5aed7a2647967"),
    ("gsp", 2, 5): (480, 24, "6a9f4c1892fdcfde5488fdefdaaa9113"
                             "5150b6bc9f3b34bb5a14ab4750f1fdfe"),
    ("o+", 2, 5): (8, 5, "27a730a8be22c9a77193220eb13d73fc"
                         "bf9a7dfc7430be4ce7e9b52a8eef7b83"),
    ("o-", 2, 5): (12, 6, "70881fc687b82d069653b56cdc8a692c"
                          "c520ab4eb7c26a70702d7e20b2cd6720"),
    ("gl", 2, 3): (48, 8, "1d4862b194a49bd9ed6d6c17382b733e"
                          "2643c024287feafb9cdb5468c03ec2e6"),
    ("gl", 2, 5): (480, 24, "7b57cf858944f862647d3113785c7b2d"
                            "82d3cce88d0324501fc0e62b0050ff69"),
    ("o+", 2, 3): (4, 4, "391c249b4561bb587db5a364be645f30"
                         "9b127d7274abf1994d2b3c8e6e69cecc"),
    ("o-", 2, 3): (8, 5, "3e02a1880df1c983d612196f97cf5070"
                         "48131c42e33c156f47149713d90430bb"),
}


@pytest.mark.parametrize("target", list(PINNED),
                         ids=lambda t: "%s(%d,%d)" % t)
def test_tables_and_classes_match_the_pinned_digest(target):
    table = build_group(*target)
    classes = conjugacy_classes(table)
    rep = verify_class_inversion(table, classes)
    data = [[list(e.mat.key()) for e in table.elements], table.inverse,
            table.iota, classes.reps, classes.class_of,
            [[r.rep, r.size, r.iota_class, r.inverse_class, r.status,
              r.conjugator] for r in rep.rows]]
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert (table.order, classes.num_classes, digest) == PINNED[target]


def _plain_generators(space, comps, index):
    """The greedy generators, right tables and inverse table of
    ``finite._generators``, built with a general ``product_kernel`` call
    for every product."""
    mul = product_kernel(space.ring, space.n)
    inv_of = matrix_inverse_kernel(space.ring, space.n)
    gens, right, gen_invs = [], [], []
    identity = index[space.identity().nums]
    inverse = [-1] * len(comps)
    inverse[identity] = identity
    members = [identity]
    for i in range(len(comps)):
        if inverse[i] >= 0:
            continue
        gens.append(i)
        gen_invs.append(inv_of(comps[i]))
        right.append([index[mul(x, comps[i])] for x in comps])
        frontier = members[:]
        while frontier:
            nxt = []
            for a in frontier:
                for R, s_inv in zip(right, gen_invs):
                    k = R[a]
                    if inverse[k] < 0:
                        inverse[k] = index[mul(s_inv, comps[inverse[a]])]
                        nxt.append(k)
            members += nxt
            frontier = nxt
        if len(members) == len(comps):
            return gens, right, inverse


@pytest.mark.parametrize("target", list(PINNED),
                         ids=lambda t: "%s(%d,%d)" % t)
def test_compiled_products_build_the_plain_tables(target):
    # the fixed-operand kernels give the same generators, right tables
    # and inverses as general products; the pinned digests cover neither
    # gens nor right
    table = build_group(*target)
    assert (table.gens, table.right, table.inverse) == _plain_generators(
        table.space, table.comps, table.index)
