import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simdual import cli
from simdual.cli import main
from simdual.decomposition import DecompositionError
from simdual.involution import ConjugatorNotFound
from simdual.report import PASS
from simdual.suites import (ConfigError, SuiteConfig, replay_check, run_suite,
                            validate_config)


def run(args):
    return main(args)


def test_verify_passes_and_writes(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--family", "symplectic", "--samples", "5",
                "--seed", "3", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["summary"]["fail"] == 0
    assert data["params"]["seed"] == 3


def test_verify_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--family", "orthogonal", "--samples", "5",
            "--seed", "11"]
    assert run(args + ["--output", str(a)]) == 0
    assert run(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bad_config_exits_2(capsys):
    assert run(["verify", "--level", "5", "--precision", "2"]) == 2
    assert run(["verify", "--family", "unheard-of"]) == 2
    assert run(["verify", "--prime", "4"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("family = hermitian\nsamples = 5\nsuites = identity\n"
                   "# a comment\nseed = 9\n")
    out = tmp_path / "r.json"
    assert run(["verify", "--config", str(cfg), "--seed", "10",
                "--output", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["params"]["family"] == "hermitian"
    assert data["params"]["seed"] == 10          # flag wins over file


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense without equals\n")
    assert run(["verify", "--config", str(bad)]) == 2
    bad.write_text("unknown_key = 3\n")
    assert run(["verify", "--config", str(bad)]) == 2


def test_decompose_subcommand(tmp_path):
    out = tmp_path / "d.json"
    code = run(["decompose", "--family", "symplectic", "--prime", "3",
                "--precision", "2", "--level", "1", "1, 1; 0, 1",
                "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rows"][0]["detail"]["members"] == 81
    assert data["rows"][0]["detail"]["pieces"] == 1


# sha256 of the full decompose report mod 9 of a fast-path coset (a
# theta-fixed member gives the witness) and of a general-path one (a
# conjugator solve gives it), recorded while alpha was still decided on
# Mat and the fiber branch systems were written by hand
DECOMPOSE_PINS = {
    ("symplectic", "8, 6; 7, 2"):
        "e5c2c5b91ad3a4817ac7b9e53836b08a18222fbbf0b3bf87b9fea4a9edce5707",
    ("hermitian", "1+8*s, 5+7*s; 4+2*s, 7+5*s"):
        "d9645851e9b38e77ea248aefb8091713c81d5f07719ddeb06d2542c74a6cf915",
}


@pytest.mark.parametrize("family, base", list(DECOMPOSE_PINS))
def test_decompose_report_with_its_witness_is_pinned(tmp_path, family, base):
    out = tmp_path / "d.json"
    assert run(["decompose", "--family", family, "--precision", "2", base,
                "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        DECOMPOSE_PINS[family, base]


@pytest.mark.parametrize("error", [
    ConjugatorNotFound("no theta-symmetric conjugator", 7),
    DecompositionError("witness fails")])
def test_decompose_failure_is_a_fail_row(error, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise error
    monkeypatch.setattr(cli, "decompose", fail)
    assert run(["decompose", "--family", "symplectic", "--precision", "2",
                "1, 1; 0, 1"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert rows == [{"name": "coset-partition", "status": "fail",
                     "detail": {"error": str(error)}}]


def test_finite_dual_subcommand(tmp_path):
    out = tmp_path / "f.json"
    code = run(["finite-dual", "--family", "sp", "--dim", "2",
                "--prime", "3", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    names = [r["name"] for r in data["rows"]]
    assert "class-inversion-summary" in names
    # a p-adic family gives the report of verify's finite-dual suite
    sym = tmp_path / "sym.json"
    assert run(["finite-dual", "--family", "symplectic",
                "--output", str(sym)]) == 0
    assert run(["verify", "--family", "symplectic", "--suite", "finite-dual",
                "--output", str(out)]) == 0
    assert sym.read_text() == out.read_text()


def test_replay_subcommand(tmp_path, capsys):
    entry = {"check": "multiplier-identity",
             "payload": {"family": "symplectic", "n": 2, "p": 3,
                         "X": "1, 1; 0, 1"}}
    assert run(["replay", json.dumps(entry)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["status"] == "pass"
    f = tmp_path / "entry.json"
    f.write_text(json.dumps(entry))
    assert run(["replay", "@" + str(f)]) == 0
    assert run(["replay", "{not json"]) == 2
    assert run(["replay", json.dumps({"check": "no-such", "payload": {}})]) == 2


def test_replay_registry_roundtrip():
    cfg = SuiteConfig(family="symplectic", samples=5, seed=2,
                      suites=("identity", "cayley"))
    rep = run_suite(cfg)
    assert rep.passed
    row = replay_check({"check": "theta-cayley-commute",
                        "payload": {"family": "symplectic", "n": 2, "p": 3,
                                    "X": "0, 1; 0, 0"}})
    assert row.status == PASS


def test_config_keys_cover_every_suite_config_field():
    # a --config file sets every SuiteConfig field; suites is parsed apart,
    # as a comma list
    fields = {f.name for f in dataclasses.fields(SuiteConfig)}
    assert set(cli._CONFIG_KEYS) == fields - {"suites"}


def test_validate_config():
    with pytest.raises(ConfigError):
        validate_config(SuiteConfig(samples=0))
    with pytest.raises(ConfigError):
        validate_config(SuiteConfig(suites=("bogus",)))
    with pytest.raises(ConfigError):
        validate_config(SuiteConfig(family="sp"))   # finite tag, p-adic suite
    validate_config(SuiteConfig(family="sp", suites=("finite-dual",)))


def test_markdown_format(capsys):
    assert run(["verify", "--family", "general-linear", "--samples", "5",
                "--format", "markdown"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# suite:")


@pytest.mark.parametrize("args", [
    ["verify", "--family", "symplectic", "--dim", "3"],          # SpaceError
    ["decompose", "--precision", "3", "3, 0; 0, 1"],             # not a member
    ["replay", json.dumps({"check": "multiplier-identity",       # no "X"
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3}})],
    ["replay", json.dumps({"check": "multiplier-identity",       # no matrix
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "X": "abc"}})],
    ["replay", json.dumps({"check": "lattice-theta-ad",          # not fixed
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "x": "1, 1; 1, 2"}})],
    ["replay", json.dumps({"check": "lattice-coset-invariance",  # moves Ldot
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "k": "3, 0; 0, 1/3",
                                       "x": "1, 0; 0, 1"}})],
    ["replay", json.dumps({"check": "scaled-lattice-in-domain",  # not in pL
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "X": "1, 0; 0, 1"}})],
    ["decompose", "--family", "symplectic", "--prime", "4",      # not prime
     "--precision", "2", "1, 1; 0, 1"],
    ["decompose", "--family", "symplectic", "--ext", "inert",    # wrong ring
     "--precision", "2", "1, 1; 0, 1"],
    ["decompose", "--config", "BUDGET_10", "--family",           # budget
     "symplectic", "--precision", "2", "1, 1; 0, 1"],
    ["decompose", "--family", "symplectic",                      # 1/0
     "--precision", "2", "1/0, 0; 0, 1"],
    ["replay", json.dumps({"check": "theta-anti-automorphism",   # 1/0
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "x1": "1/0, 0; 0, 1",
                                       "x2": "1, 0; 0, 1"}})],
    ["replay", json.dumps({"check": "class-inversion",           # 1/0
                           "payload": {"family": "sp", "n": 2, "q": 3,
                                       "rep": "1/0, 0; 0, 1"}})],
    ["replay", json.dumps({"check": "decompose-coset",           # 1/0
                           "payload": {"family": "hermitian", "n": 2,
                                       "p": 3, "level": 1, "precision": 2,
                                       "b": "1+1/0*s, 0; 0, 1"}})],
    ["decompose", "--family", "sp", "--precision", "3",          # finite tag
     "2, 0; 0, 1"],
    ["decompose", "--family", "symplectic", "--precision", "2",  # 3x3 base
     "1, 0, 0; 0, 1, 0; 0, 0, 1"],
    ["verify", "--family", "hermitian", "--suite", "all",        # level = N
     "--decompose-precision", "1"],
    ["finite-dual", "--family", "o+", "--dim", "3"],             # n = 2 only
    ["verify", "--suite", "decompose", "--cosets", "0"],         # no cosets
    ["verify", "--cosets", "-1"],
    ["replay", json.dumps({"check": "multiplier-identity",       # n = 0
                           "payload": {"family": "symplectic", "n": 0,
                                       "p": 3, "X": "1"}})],
    ["replay", json.dumps({"check": "theta-stable-lattice",      # n = 0
                           "payload": {"family": "hermitian", "n": 0,
                                       "p": 3}})],
    ["replay", json.dumps({"check": "decompose-coset",           # n = -2
                           "payload": {"family": "hermitian", "n": -2,
                                       "p": 3, "level": 1, "precision": 2,
                                       "b": "1"}})],
    ["replay", json.dumps({"check": "class-inversion",           # n = 0
                           "payload": {"family": "gl", "n": 0, "q": 3,
                                       "rep": "1"}})],
    ["replay", json.dumps({"check": "decompose-coset",           # level 0
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "level": 0, "precision": 2,
                                       "b": "1, 0; 0, 1"}})],
    ["replay", json.dumps({"check": "decompose-coset",           # level = N
                           "payload": {"family": "symplectic", "n": 2,
                                       "p": 3, "level": 2, "precision": 2,
                                       "b": "1, 0; 0, 1"}})],
])
def test_bad_input_exits_2_with_one_line(args, capsys, tmp_path):
    budget = tmp_path / "budget.cfg"
    budget.write_text("budget = 10\n")
    args = [str(budget) if a == "BUDGET_10" else a for a in args]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_orthogonal_dim_1_lattice_suite_passes(capsys):
    # the isometry Lie algebra is 0 there: no coordinates, one component
    assert run(["verify", "--family", "orthogonal", "--dim", "1",
                "--suite", "lattice"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["fail"] == 0


def test_ext_must_match_the_family_ring(capsys):
    assert run(["verify", "--family", "symplectic", "--ext", "inert"]) == 2
    assert run(["verify", "--family", "hermitian", "--ext", "split"]) == 2
    assert capsys.readouterr().err.count("\n") == 2
    with pytest.raises(ConfigError):
        validate_config(SuiteConfig(family="gu", ext="split",
                                    suites=("finite-dual",)))
    assert run(["verify", "--family", "hermitian", "--ext", "inert",
                "--suite", "identity", "--samples", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["ext"] == "inert"


@pytest.mark.parametrize("family, ext", [("u", "inert"), ("gu", "inert"),
                                         ("sp", "split")])
def test_finite_dual_reports_the_family_ring(family, ext, capsys):
    assert run(["finite-dual", "--family", family, "--dim", "2",
                "--prime", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["params"]["ext"] == ext


def test_verify_is_identical_across_hash_seeds():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    args = [sys.executable, "-m", "simdual.cli", "verify", "--family",
            "hermitian", "--suite", "all", "--samples", "3", "--cosets", "1",
            "--decompose-precision", "2"]
    digests = set()
    for seed in ("0", "1", "12345"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        out = subprocess.run(args, env=env, capture_output=True, check=True,
                             timeout=300).stdout
        assert json.loads(out)["summary"]["fail"] == 0
        digests.add(hashlib.sha256(out).hexdigest())
    assert len(digests) == 1


# sha256 of the JSON report of `verify --seed 13 --samples 10` with the
# default suites (identity, cayley, lattice), one per family
DEFAULT_REPORT_DIGESTS = {
    "orthogonal":
        "7c7598465f4f86874445f9f8784fd11620acbe7eaf50d404e62aa2dcd6208331",
    "symplectic":
        "10c948a8b88d984199c0b89cae961fd83aa1714626fd0a5722e24a05863c1de7",
    "hermitian":
        "a384b4772a8627a9103190ba16ca73e9184fb776c1f65a33f459f0be5115306f",
    "skew-hermitian":
        "60276c2eb46f55815284e9120917abf6929ce5480b3c9dd22cefbafefa69743d",
    "general-linear":
        "b9817fd8f1db98c3023665622546d7c36a6feeec183c69519b5a3b9625dae851",
}


@pytest.mark.parametrize("family", sorted(DEFAULT_REPORT_DIGESTS))
def test_default_report_matches_the_pinned_digest(family, tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "--family", family, "--seed", "13",
                "--samples", "10", "--output", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() \
        == DEFAULT_REPORT_DIGESTS[family]
