import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from simdual.cli import main
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


def test_finite_dual_subcommand(tmp_path):
    out = tmp_path / "f.json"
    code = run(["finite-dual", "--family", "sp", "--dim", "2",
                "--prime", "3", "--output", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    names = [r["name"] for r in data["rows"]]
    assert "class-inversion-summary" in names
    assert run(["finite-dual", "--family", "symplectic"]) == 2


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
])
def test_bad_input_exits_2_with_one_line(args, capsys):
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


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
