"""Every reported row replays through the same code path that produced it."""

import json
from dataclasses import replace

import pytest

from simdual import finite, suites
from simdual.report import FAIL, FINDING, PASS
from simdual.spaces import FAMILIES
from simdual.suites import (ALL_SUITES, ConfigError, SuiteConfig,
                            replay_check, run_suite)


def _replay(row):
    # replay entries reach ``simdual replay`` as JSON
    return replay_check(json.loads(json.dumps(row.replay)))


def test_every_sampled_fail_row_replays(monkeypatch):
    with monkeypatch.context() as m:
        for name, check in list(suites.CHECKS.items()):
            m.setitem(suites.CHECKS, name,
                      replace(check, predicate=lambda std, *args: False))
        reports = [run_suite(SuiteConfig(
            family=family, samples=2, seed=5,
            suites=("identity", "cayley", "lattice"))) for family in FAMILIES]
    replayed = set()
    for rep in reports:
        for row in rep.rows:
            if row.status != FAIL:
                continue
            assert row.replay["check"] == row.name
            # the real predicate holds on the drawn input
            assert _replay(row).status == PASS, row.replay
            replayed.add(row.name)
    assert replayed == set(suites.CHECKS)


def test_decompose_coset_replay_reproduces_the_row():
    for budget, status in ((10**6, PASS), (10, FAIL)):
        rep = run_suite(SuiteConfig(family="symplectic", seed=3, cosets=2,
                                    decompose_precision=2, budget=budget,
                                    suites=("decompose",)))
        for row in rep.rows:
            assert row.status == status
            out = _replay(row)
            assert (out.status, out.detail) == (row.status, row.detail)


def test_lattice_rows_without_samples_replay():
    rep = run_suite(SuiteConfig(family="hermitian", samples=2, budget=10,
                                suites=("lattice",)))
    rows = {row.name: row for row in rep.rows}
    stable = replay_check({"check": "theta-stable-lattice",
                           "payload": {"family": "hermitian", "n": 2,
                                       "p": 3}})
    assert stable.status == rows["theta-stable-lattice"].status == PASS
    for variant in ("gu", "u"):
        row = rows[f"cayley-level-bijection-{variant}"]
        assert row.status == FAIL                   # the budget is too small
        assert _replay(row).as_dict() == row.as_dict()


def test_class_inversion_replay_matches_the_suite_row(monkeypatch):
    monkeypatch.setattr(finite, "_theta_symmetric_conjugator",
                        lambda table, pos: None)
    rep = run_suite(SuiteConfig(family="sp", n=2, p=3,
                                suites=("finite-dual",)))
    rows = [row for row in rep.rows if row.replay]
    assert rows and all(row.status == FINDING for row in rows)
    for row in rows:
        assert _replay(row).as_dict() == row.as_dict()
    monkeypatch.undo()
    assert _replay(rows[0]).status == PASS


def test_a_bug_is_not_a_fail_row(monkeypatch):
    def bug(*args, **kwargs):
        raise ZeroDivisionError("a bug, not a verdict")
    monkeypatch.setattr(suites, "build_group", bug)
    monkeypatch.setattr(suites, "coset_set", bug)
    with pytest.raises(ZeroDivisionError):
        run_suite(SuiteConfig(family="sp", suites=("finite-dual",)))
    with pytest.raises(ZeroDivisionError):
        run_suite(SuiteConfig(family="symplectic", cosets=1,
                              decompose_precision=2, suites=("decompose",)))


def test_a_bad_decompose_precision_is_rejected_before_any_suite(monkeypatch):
    def unreachable(space):
        raise AssertionError("a suite ran before the config was checked")
    monkeypatch.setattr(suites, "standard_lattices", unreachable)
    with pytest.raises(ConfigError, match="decompose precision"):
        run_suite(SuiteConfig(family="hermitian", suites=ALL_SUITES,
                              decompose_precision=1))


# order and class count of the similitude group over F_3 that the
# finite-dual suite of each p-adic family builds at n = 2
P_ADIC_FINITE_GROUPS = {"orthogonal": (16, 7), "symplectic": (48, 8),
                        "hermitian": (192, 32), "skew-hermitian": (192, 32),
                        "general-linear": (48, 8)}


@pytest.mark.parametrize("family", list(P_ADIC_FINITE_GROUPS))
def test_the_finite_dual_suite_of_a_p_adic_family_builds_its_group(family):
    rep = run_suite(SuiteConfig(family=family, suites=("finite-dual",)))
    order, classes = P_ADIC_FINITE_GROUPS[family]
    assert rep.rows[0].detail == {"order": order, "classes": classes}
    assert all(row.status == PASS for row in rep.rows)
    assert rep.rows[-1].detail == {"passing": classes, "classes": classes}


def test_a_finite_group_over_the_scan_budget_is_one_fail_row():
    # sp(4, 3) scans 3^16 matrices, over the default budget of 10^7;
    # the scan stops before its first matrix
    rep = run_suite(SuiteConfig(family="sp", n=4, p=3,
                                suites=("finite-dual",)))
    assert [(row.name, row.status, row.detail) for row in rep.rows] == [
        ("finite-build", FAIL, {"error": "enumeration of 43046721 residues "
                                         "exceeds budget 10000000"})]
    # the unitary similitude group of a hermitian run at n = 3 scans 9^9
    rep = run_suite(SuiteConfig(family="hermitian", n=3,
                                suites=("finite-dual",)))
    assert [(row.name, row.status, row.detail) for row in rep.rows] == [
        ("finite-build", FAIL, {"error": "enumeration of 387420489 residues "
                                         "exceeds budget 10000000"})]
