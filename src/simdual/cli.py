"""Command-line entry point.

Subcommands:

- ``verify``: run the randomized/exhaustive verification suites.
- ``decompose``: partition one congruence coset into conjugate-stable
  pieces, from an explicit base-point matrix.
- ``finite-dual``: run the exhaustive dualizing-involution check on a
  small group over a finite field: a finite tag, or the group of a p-adic
  family mod p (``verify --suite finite-dual``).
- ``replay``: re-run a single check from a report's replay entry.

Exit codes: 0 all checks passed, 1 a check failed (or, with
``--strict-findings``, a finding was reported), 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace

from .decomposition import DecompositionError, coset_set, decompose
from .involution import ConjugatorNotFound
from .lattices import standard_lattices
from .modsolve import SolveBudgetError
from .report import FAIL, PASS, CheckRow, Report, emit_report
from .scalars import NotIntegralError
from .spaces import MembershipError, certify_group
from .suites import (ALL_SUITES, ConfigError, SuiteConfig, build_space,
                     replay_check, run_suite, square_matrix,
                     validate_config)

_CONFIG_KEYS = {
    "family": str, "n": int, "p": int, "ext": str, "precision": int,
    "level": int, "samples": int, "seed": int, "cosets": int,
    "decompose_precision": int, "budget": int, "fmt": str, "output": str,
    "include_timing": bool, "findings_fail": bool,
}


def _read_config_file(path: str) -> dict:
    """key = value lines; '#' comments; values typed per _CONFIG_KEYS."""
    out = {}
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key == "suites":
            out["suites"] = tuple(s.strip() for s in value.split(",") if s.strip())
            continue
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        typ = _CONFIG_KEYS[key]
        if typ is bool:
            if value.lower() not in ("true", "false", "0", "1"):
                raise ConfigError(f"{path}:{lineno}: boolean expected")
            out[key] = value.lower() in ("true", "1")
        else:
            try:
                out[key] = typ(value)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}")
    return out


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key = value config file; "
                        "command-line flags override it")
    parser.add_argument("--family", help="space family (or finite group tag)")
    parser.add_argument("--dim", type=int, dest="n", help="matrix size n")
    parser.add_argument("--prime", type=int, dest="p",
                        help="odd residue characteristic (finite-dual: q)")
    parser.add_argument("--ext", choices=("split", "inert", "auto"),
                        help="quadratic extension behaviour")
    parser.add_argument("--precision", type=int,
                        help="working precision N (residues mod p^N)")
    parser.add_argument("--level", type=int, help="congruence level k")
    parser.add_argument("--samples", type=int,
                        help="random samples per identity check")
    parser.add_argument("--seed", type=int, help="random seed")
    parser.add_argument("--format", dest="fmt", choices=("json", "markdown"),
                        help="report format")
    parser.add_argument("--output", help="write the report to this file")
    parser.add_argument("--timing", action="store_true", default=None,
                        dest="include_timing",
                        help="include timing data (breaks byte-for-byte "
                        "reproducibility)")
    parser.add_argument("--strict-findings", action="store_true", default=None,
                        dest="findings_fail",
                        help="treat findings as failures for the exit code")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simdual",
        description="Exact verification of similitude-group constructions "
        "over p-adic and finite fields.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_common(p_verify)
    p_verify.add_argument("--suite", action="append", dest="suites",
                          help="suite to run (repeatable); default "
                          "identity,cayley,lattice; 'all' for everything")
    p_verify.add_argument("--cosets", type=int,
                          help="cosets for the decompose suite")
    p_verify.add_argument("--decompose-precision", type=int,
                          dest="decompose_precision",
                          help="precision for the decompose suite")

    p_dec = sub.add_parser("decompose",
                           help="partition one congruence coset")
    _add_common(p_dec)
    p_dec.add_argument("base", help="base-point matrix, e.g. '2, 0; 0, 1'")

    p_fin = sub.add_parser("finite-dual",
                           help="exhaustive dualizing-involution check")
    _add_common(p_fin)

    p_rep = sub.add_parser("replay", help="re-run one reported check")
    p_rep.add_argument("entry", help="replay entry as JSON, or @file.json")
    p_rep.add_argument("--format", dest="fmt", choices=("json", "markdown"),
                       default="json")
    p_rep.add_argument("--output", help="write the report to this file")
    return parser


def _config_from_args(args, defaults: SuiteConfig) -> SuiteConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for f in fields(SuiteConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    if "suites" in values:
        suites = tuple(values["suites"])
        if "all" in suites:
            suites = ALL_SUITES
        values["suites"] = suites
    return replace(defaults, **values)


def _emit(report: Report, cfg_fmt: str, output: str | None,
          include_timing: bool) -> None:
    text = emit_report(report, cfg_fmt, include_timing)
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    cfg = _config_from_args(args, SuiteConfig())
    validate_config(cfg)
    report = run_suite(cfg)
    _emit(report, cfg.fmt, cfg.output, cfg.include_timing)
    return report.exit_code(cfg.findings_fail)


def _cmd_decompose(args) -> int:
    cfg = _config_from_args(args, SuiteConfig(precision=3))
    cfg = replace(cfg, suites=("decompose",))
    validate_config(cfg)
    space = build_space(cfg.family, cfg.n, cfg.p)
    try:
        b = square_matrix(space, args.base)
    except ValueError as exc:
        raise ConfigError(f"cannot parse base matrix: {exc}")
    try:
        certify_group(space.truncated(cfg.precision), b.reduce(cfg.precision))
    except (MembershipError, NotIntegralError) as exc:
        raise ConfigError(f"base matrix is not in the group mod "
                          f"{cfg.p}^{cfg.precision}: {exc}")
    rows = _partition_rows(space, standard_lattices(space), b, cfg)
    params = {**cfg.as_params(), "base": b.to_text()}
    report = Report(suite="decompose", params=params, rows=rows)
    _emit(report, cfg.fmt, cfg.output, cfg.include_timing)
    return report.exit_code(cfg.findings_fail)


def _partition_rows(space, std, b, cfg: SuiteConfig) -> list:
    """The coset-partition row and one row per piece.  A partition that
    fails is a FAIL row; a budget too small for the coset is bad input."""
    try:
        C = coset_set(space, std, b, cfg.level, cfg.precision,
                      limit=cfg.budget)
        pieces = decompose(C, std)
    except SolveBudgetError as exc:
        raise ConfigError(f"budget {cfg.budget} is too small: {exc}") \
            from None
    except (ConjugatorNotFound, DecompositionError) as exc:
        return [CheckRow("coset-partition", FAIL, detail={"error": str(exc)})]
    rows = [CheckRow("coset-partition", PASS,
                     detail={"members": len(C.members),
                             "pieces": len(pieces)})]
    for i, piece in enumerate(pieces):
        rows.append(CheckRow(
            f"piece-{i}", PASS,
            detail={"members": len(piece.members),
                    "witness": piece.witness.mat.to_text(),
                    **{k: v for k, v in piece.provenance.items()
                       if k in ("level",)}}))
    return rows


def _cmd_finite(args) -> int:
    cfg = _config_from_args(args, SuiteConfig(family="sp", suites=("finite-dual",)))
    cfg = replace(cfg, suites=("finite-dual",))
    report = run_suite(cfg)
    _emit(report, cfg.fmt, cfg.output, cfg.include_timing)
    return report.exit_code(cfg.findings_fail)


def _cmd_replay(args) -> int:
    raw = args.entry
    if raw.startswith("@"):
        try:
            with open(raw[1:]) as fh:
                raw = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read replay file: {exc}")
    try:
        entry = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"bad replay JSON: {exc}")
    if not isinstance(entry, dict) or "check" not in entry \
            or "payload" not in entry:
        raise ConfigError("replay entry needs 'check' and 'payload' keys")
    row = replay_check(entry)
    report = Report(suite="replay", params={"check": entry["check"]},
                    rows=[row])
    _emit(report, args.fmt, args.output, False)
    return report.exit_code()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"verify": _cmd_verify, "decompose": _cmd_decompose,
                "finite-dual": _cmd_finite, "replay": _cmd_replay}
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
