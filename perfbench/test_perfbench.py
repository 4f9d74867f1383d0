"""Tests of the benchmark itself, at a tiny size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks                                         # noqa: E402
import run                                            # noqa: E402
import units                                          # noqa: E402
from layer_metrics import PER_LAYER                   # noqa: E402
from modarith import Model                            # noqa: E402


def _worker(spec):
    return run.run_worker(spec, 1, time.monotonic() + 120)


# -- every unit kind runs to its end on a tiny input -------------------


def test_tiny_units_run_clean():
    (fam, N, base), = units.Prepare.run(
        {"slots": [["hermitian", 2, "fast", 5]]})
    specs = [{"kind": "suite", "family": "general-linear", "samples": 3,
              "seed": 4},
             {"kind": "coset", "family": fam, "N": N, "base": base},
             {"kind": "census", "N": 1},
             {"kind": "finite", "family": "sp", "n": 2, "q": 3}]
    for spec in specs:
        res = _worker(spec)
        assert res["problems"] == [] and res["errors"] == [], spec
        assert res["attempted"] >= 1 and res["failed"] == 0, spec
        assert res["work_s"] > 0 and res["setup_s"] > 0, spec


def test_traced_unit_counts_repeat():
    spec = {"kind": "finite", "family": "gl", "n": 2, "q": 3, "trace": True}
    a, b = _worker(spec)["trace"], _worker(spec)["trace"]
    assert a["counts"] == b["counts"]
    assert a["counts"]["involution.enumerate_matrices.yields"] == 3**4
    assert a["counts"]["finite.build_group.result"] == 48
    calls = {k: v[0] for k, v in a["functions"].items()}
    assert calls == {k: v[0] for k, v in b["functions"].items()}


def test_missing_sources_fail_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "finite-duality",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_benchmark_json_lists_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(units.WORKLOADS)


# -- each check rejects a wrong answer ---------------------------------


@pytest.fixture(scope="module")
def finite_sp23():
    from simdual import finite
    table = finite.build_group("sp", 2, 3)
    classes = finite.conjugacy_classes(table)
    rep = finite.verify_class_inversion(table, classes)
    rows = [(r.status, r.iota_class, r.inverse_class, units.parse_key(r.rep),
             units.parse_key(r.conjugator)) for r in rep.rows]
    return [e.mat.key() for e in table.elements], classes.num_classes, rows


def test_finite_check_rejects_wrong_answers(finite_sp23):
    elements, num_classes, rows = finite_sp23
    assert checks.check_finite("sp", 2, 3, elements, num_classes, rows) == []
    assert checks.check_finite("sp", 2, 3, elements[1:], num_classes, rows)
    assert checks.check_finite("sp", 2, 3, elements, num_classes + 1,
                               rows + rows[:1])
    model = Model("sp", 2, 3, 1)
    not_symmetric = next(e for e in elements if model.theta(e) != e)
    status, ic, vc, a, h = rows[-1]
    bad = rows[:-1] + [(status, ic, vc, a, not_symmetric)]
    assert checks.check_finite("sp", 2, 3, elements, num_classes, bad)
    wrong_class = rows[:-1] + [(status, ic, vc + 1, a, h)]
    assert checks.check_finite("sp", 2, 3, elements, num_classes,
                               wrong_class)


@pytest.fixture(scope="module")
def hermitian_coset():
    from simdual import decomposition, lattices, matrices, suites
    (fam, N, base), = units.Prepare.run(
        {"slots": [["hermitian", 2, "fast", 5]]})
    space = suites.build_space(fam, 2, 3)
    std = lattices.standard_lattices(space)
    C = decomposition.coset_set(space, std,
                                matrices.parse_matrix(space.ring, base), 1, N)
    pieces = decomposition.decompose(C, std)
    model = Model(fam, 2, 3, N)
    members = [m.mat.key() for m in C.members]
    return (model, C.base.mat.key(), members,
            [([m.mat.key() for m in p.members], p.witness.mat.key())
             for p in pieces])


def test_coset_and_piece_checks_reject_wrong_answers(hermitian_coset):
    model, base, members, pieces = hermitian_coset
    subgroup = model.congruence_subgroup(1)
    assert checks.check_coset(model, 1, base, members, subgroup) == []
    assert checks.check_pieces(model, members, pieces) == []
    assert checks.check_coset(model, 1, base, members[1:], subgroup)
    assert checks.check_coset(model, 1, base, members[:-1] + [members[0]],
                              subgroup)
    (keys, witness), = pieces
    assert checks.check_pieces(model, members, [(keys[1:], witness)])
    assert checks.check_pieces(model, members,
                               [(keys, witness), (keys[:1], witness)])
    ar = model.ar
    not_a_similitude = ar.scalar((ar.p, 0))
    assert checks.check_pieces(model, members, [(keys, not_a_similitude)])
    moved = next(m for m in members if model.theta(m) != m)
    assert checks.check_pieces(model, [moved], [([moved], ar.identity())])


def test_census_and_suite_checks_reject_wrong_answers():
    from simdual import cayley, scalars, spaces
    ring = scalars.Ring(3, scalars.SPLIT, 1)
    space = spaces.standard_space("symplectic", 2, ring)
    buckets = cayley.bucket_domain_images(space)
    model = Model("symplectic", 2, 3, 1)
    assert checks.check_fiber_census(model, buckets, 0) == []
    assert checks.check_fiber_census(model, buckets, 1)
    keys = sorted(buckets)
    swapped = dict(buckets)
    swapped[keys[0]], swapped[keys[1]] = buckets[keys[1]], buckets[keys[0]]
    assert checks.check_fiber_census(model, swapped, 0)

    row = {"name": "cayley-level-bijection-gu", "status": "pass",
           "detail": {"image": 81, "congruence": 81}}
    good = {"rows": [row], "summary": {"pass": 1}}
    assert checks.check_suite_report(good, "symplectic", 5, 2, 1, 3) == []
    short = {"rows": [dict(row, detail={"image": 80, "congruence": 81})],
             "summary": {"pass": 1}}
    assert checks.check_suite_report(short, "symplectic", 5, 2, 1, 3)
    failing = {"rows": [dict(row, status="fail")], "summary": {"fail": 1}}
    assert checks.check_suite_report(failing, "symplectic", 5, 2, 1, 3)
