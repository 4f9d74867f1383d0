"""Suite runner: configuration, the five verification suites, and the
replay of reported rows.

Suites are deterministic functions of (configuration, seed).  Each check
is one function, called by its suite and by ``replay_check``.  These rows
replay: the FAIL rows of the sampled checks in ``CHECKS`` (the payload
holds each drawn argument under its kind's key), ``theta-stable-lattice``,
FAIL rows of ``cayley-level-bijection-{gu,u}``, ``decompose-coset-<i>``
and ``class-<c>`` findings.  The rows about the configured space or group
itself (``anti-unitary-involution``, ``finite-build``,
``iota-inverse-permutations``, ``class-inversion-summary``) do not.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from typing import Callable

from .cayley import cayley, fiber, in_domain
from .decomposition import DecompositionError, coset_set, decompose
from .finite import FINITE_FAMILIES, FiniteGroupError, build_group, \
    conjugacy_classes, family_ext, finite_space, verify_class_inversion
from .involution import AntiUnitaryError, ConjugatorNotFound, \
    is_theta_fixed, theta_group, theta_lie, validate_anti_unitary
from .lattices import ad_operator, check_cayley_level, lattice_meet, \
    lattice_of_x, standard_lattices
from .matrices import Mat, parse_matrix
from .modsolve import SolveBudgetError
from .report import FAIL, FINDING, PASS, CheckRow, Report
from .sampling import make_rng, sample_group, sample_integral_lie, \
    sample_lie, sample_stabilizing, sample_theta_fixed
from .scalars import Ring, is_odd_prime, val_fraction
from .spaces import (FAMILIES, SpaceError, certify_group, certify_lie,
                     standard_space, star)

ALL_SUITES = ("identity", "cayley", "lattice", "decompose", "finite-dual")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    family: str = "symplectic"
    n: int = 2
    p: int = 3
    ext: str = "auto"             # auto, or the family's ring: split / inert
    precision: int = 2
    level: int = 1
    samples: int = 200
    seed: int = 1
    suites: tuple = ("identity", "cayley", "lattice")
    cosets: int = 3               # decompose suite
    decompose_precision: int = 3
    budget: int = 10**6
    fmt: str = "json"
    output: str | None = None
    include_timing: bool = False
    findings_fail: bool = False

    def as_params(self) -> dict:
        return {
            "family": self.family, "n": self.n, "p": self.p,
            "ext": family_ext(self.family), "precision": self.precision,
            "level": self.level, "samples": self.samples, "seed": self.seed,
            "cosets": self.cosets,
            "decompose_precision": self.decompose_precision,
        }


def validate_config(cfg: SuiteConfig) -> None:
    if not is_odd_prime(cfg.p):
        raise ConfigError(f"p must be an odd prime, got {cfg.p}")
    finite_only = set(cfg.suites) <= {"finite-dual"}
    if cfg.family not in FAMILIES and cfg.family not in FINITE_FAMILIES:
        raise ConfigError(f"unknown family {cfg.family!r}")
    if cfg.family in FINITE_FAMILIES and cfg.family not in FAMILIES \
            and not finite_only:
        raise ConfigError(
            f"family {cfg.family!r} only supports the finite-dual suite")
    if cfg.n < 1:
        raise ConfigError("n must be >= 1")
    ring_ext = family_ext(cfg.family)
    if cfg.ext not in ("auto", ring_ext):
        raise ConfigError(f"family {cfg.family!r} works over the {ring_ext} "
                          f"ring, not ext {cfg.ext!r}")
    if cfg.family in FAMILIES and not finite_only:
        try:
            build_space(cfg.family, cfg.n, cfg.p)
        except SpaceError as exc:
            raise ConfigError(str(exc))
    if "finite-dual" in cfg.suites:
        try:
            finite_space(cfg.family, cfg.n, cfg.p)
        except (SpaceError, FiniteGroupError) as exc:
            raise ConfigError(f"finite-dual group {cfg.family}: {exc}")
    if "lattice" in cfg.suites and not (1 <= cfg.level < cfg.precision):
        raise ConfigError(
            f"need 1 <= level < precision, got level={cfg.level} "
            f"precision={cfg.precision}")
    if "decompose" in cfg.suites \
            and not (1 <= cfg.level < cfg.decompose_precision):
        raise ConfigError("need 1 <= level < decompose precision")
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    if cfg.cosets < 1:
        raise ConfigError("cosets must be >= 1")
    if not cfg.suites:
        raise ConfigError("no suite to run")
    for s in cfg.suites:
        if s not in ALL_SUITES:
            raise ConfigError(f"unknown suite {s!r}")
    if cfg.fmt not in ("json", "markdown"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")


def build_space(family: str, n: int, p: int):
    return standard_space(family, n, Ring(p, family_ext(family)))


def _row(name, ok, payload=None, check=None, detail=None):
    row = CheckRow(name=name, status=PASS if ok else FAIL, detail=detail)
    if not ok and payload is not None:
        row.counterexample = payload
        row.replay = {"check": check or name, "payload": payload}
    return row


# -- the sampled checks -----------------------------------------------


@dataclass(frozen=True)
class Kind:
    """How one argument of a sampled check is drawn, certified and stored.
    ``holds`` is what the sampler guarantees beyond membership; only
    replay input is checked against it."""

    key: str                      # payload key
    sample: Callable              # (std, rng) -> element
    certify: Callable             # (space, Mat) -> element
    requirement: str = ""
    holds: Callable | None = None  # (std, element) -> bool


LIE = Kind("X", sample_lie, certify_lie, "in the working domain",
           lambda std, X: in_domain(X))
GROUP = Kind("x", sample_group, certify_group)
THETA_FIXED = Kind("x", sample_theta_fixed, certify_group, "theta-fixed",
                   lambda std, x: is_theta_fixed(x))
STABILIZING = Kind("k", sample_stabilizing, certify_group,
                   "a stabilizer of Ldot", lambda std, k: std.Ldot.transform(
                       ad_operator(std.gu_coords, k.mat)) == std.Ldot)
INTEGRAL_LIE = Kind("X", sample_integral_lie, certify_lie, "in p*Ldot",
                    lambda std, X: all(val_fraction(c, std.space.ring.p) >= 1
                                       for c in std.gu_coords.to_coords(X.mat)))


@dataclass(frozen=True)
class Check:
    """A sampled identity: its suite, its argument kinds, and one
    predicate over the drawn (or replayed) arguments."""

    suite: str
    kinds: tuple
    predicate: Callable           # (std, *elements) -> bool
    needs_form: bool = False

    def keys(self) -> list:
        """Payload keys, numbered where two arguments share a kind key."""
        keys = [k.key for k in self.kinds]
        return [key + str(keys[:i + 1].count(key)) if keys.count(key) > 1
                else key for i, key in enumerate(keys)]


def _ad(std, X, x):
    return certify_lie(std.space, x.mat * X.mat * x.mat.inv())


def _fiber_roundtrip(std, X) -> bool:
    res = fiber(cayley(X))
    if res.tag == "infinite-identity":
        return res.identity_fiber_contains(X)
    return any(p.X.mat == X.mat for p in res.preimages)


def _lattice_theta_ad(std, x) -> bool:
    """theta(L(x)) = Ad(x) L(x), with Ad(x) built once for both sides."""
    ad = ad_operator(std.gu_coords, x.mat)
    lx = lattice_meet(std.gu_coords, ad)
    return lx.transform(std.gu_coords.theta) == lx.transform(ad)


# in report order within each suite
CHECKS = {
    "star-anti-involution": Check(
        "identity", (GROUP, GROUP), lambda std, a, b:
        star(std.space, a.mat * b.mat)
        == star(std.space, b.mat) * star(std.space, a.mat)
        and star(std.space, star(std.space, a.mat)) == a.mat,
        needs_form=True),
    "theta-anti-automorphism": Check(
        "identity", (GROUP, GROUP), lambda std, a, b:
        theta_group(a * b).mat == (theta_group(b) * theta_group(a)).mat
        and theta_group(theta_group(a)).mat == a.mat),
    "multiplier-homomorphism": Check(
        "identity", (GROUP, GROUP), lambda std, a, b:
        certify_group(std.space, a.mat * b.mat).mu == a.mu * b.mu),
    "alpha-theta-invariance": Check(
        "identity", (LIE,), lambda std, X: theta_lie(X).alpha == X.alpha
        and certify_lie(std.space, theta_lie(X).mat).alpha == X.alpha),
    "theta-ad-twist": Check(
        "identity", (LIE, GROUP), lambda std, X, x:
        theta_lie(_ad(std, X, x)).mat
        == theta_group(x).mat.inv() * theta_lie(X).mat * theta_group(x).mat),
    "multiplier-identity": Check(
        "cayley", (LIE,), lambda std, X: cayley(X).mu
        == (std.space.ring.one + X.alpha).inv()
        * (std.space.ring.one + X.alpha).inv()),
    "cayley-star-product": Check(
        "cayley", (LIE,), lambda std, X:
        (cayley(X).mat * star(std.space, cayley(X).mat)).scalar_part()
        == cayley(X).mu, needs_form=True),
    "theta-cayley-commute": Check(
        "cayley", (LIE,), lambda std, X:
        theta_group(cayley(X)).mat == cayley(theta_lie(X)).mat),
    "ad-equivariance": Check(
        "cayley", (LIE, GROUP), lambda std, X, x:
        x.mat * cayley(X).mat * x.mat.inv() == cayley(_ad(std, X, x)).mat),
    "domain-invariance": Check(
        "cayley", (LIE, GROUP), lambda std, X, x:
        in_domain(theta_lie(X)) == in_domain(X) == in_domain(_ad(std, X, x))),
    "fiber-roundtrip": Check("cayley", (LIE,), _fiber_roundtrip),
    "lattice-theta-ad": Check("lattice", (THETA_FIXED,), _lattice_theta_ad),
    "lattice-coset-invariance": Check(
        "lattice", (STABILIZING, GROUP), lambda std, k, d:
        lattice_of_x(std.gu_coords, (k * d).mat)
        == lattice_of_x(std.gu_coords, d.mat)),
    "scaled-lattice-in-domain": Check(
        "lattice", (INTEGRAL_LIE,), lambda std, X: in_domain(X)),
}


def _sampled_rows(suite, std, rng, base, count) -> list:
    """One row per check of ``suite``, each run on ``count`` samples."""
    rows = []
    for name, check in CHECKS.items():
        if check.suite != suite or check.needs_form and not std.space.has_form:
            continue
        row = CheckRow(name, PASS, detail={"samples": count})
        t0 = time.monotonic()
        for _ in range(count):
            args = [kind.sample(std, rng) for kind in check.kinds]
            if not check.predicate(std, *args):
                payload = {**base, **{key: obj.mat.to_text() for key, obj
                                      in zip(check.keys(), args)}}
                row = _row(name, False, payload, detail={"samples": count})
                break
        else:
            row.timing = time.monotonic() - t0
        rows.append(row)
    return rows


# -- the rows that are not sampled ------------------------------------


def _theta_stable_lattice(std, base) -> CheckRow:
    theta_L = std.Ldot.transform(std.gu_coords.theta)
    return _row("theta-stable-lattice", theta_L == std.Ldot, base)


def _level_bijection(std, base, variant, level, precision,
                     budget) -> CheckRow:
    name = f"cayley-level-bijection-{variant}"
    payload = {**base, "variant": variant, "level": level,
               "precision": precision, "budget": budget}
    try:
        rep = check_cayley_level(std.space, std, level, precision, variant,
                                 budget=budget)
    except SolveBudgetError as exc:
        return _row(name, False, payload, "cayley-level-bijection",
                    {"error": str(exc)})
    row = _row(name, rep.passed, payload, "cayley-level-bijection",
               {"image": rep.image_size, "congruence": rep.congruence_size})
    if not rep.passed:
        row.counterexample = {**payload, "mismatches": rep.mismatches[:5]}
    return row


def _decompose_coset(name, std, b, level, N, budget, payload) -> CheckRow:
    """Build and partition b * c(p^level Ldot) mod p^N.  Every row
    replays; a failing one also records its budget."""
    replay = {"check": "decompose-coset", "payload": payload}
    try:
        C = coset_set(std.space, std, b, level, N, limit=budget)
        pieces = decompose(C, std)
    except (DecompositionError, ConjugatorNotFound, SolveBudgetError) as exc:
        replay["payload"] = {**payload, "budget": budget}
        return CheckRow(name, FAIL, {"error": str(exc)}, replay["payload"],
                        replay)
    return CheckRow(name, PASS, {"members": len(C.members),
                                 "pieces": len(pieces)}, replay=replay)


def _class_inversion(cls, row, family, n, q) -> CheckRow:
    """A finding unless class ``cls``'s ``verify_class_inversion`` row passed."""
    if row.status == "pass":
        return CheckRow(f"class-{cls}", PASS)
    payload = {"family": family, "n": n, "q": q, "rep": row.rep}
    return CheckRow(
        f"class-{cls}", FINDING,
        counterexample={**payload, "iota_class": row.iota_class,
                        "inverse_class": row.inverse_class,
                        "conjugator": row.conjugator},
        replay={"check": "class-inversion", "payload": payload})


# -- replay -----------------------------------------------------------


def replay_check(entry: dict) -> CheckRow:
    """Re-run one reported check; a payload that does not parse, or that
    breaks a precondition the suite guarantees, raises ConfigError."""
    name, payload = entry["check"], entry["payload"]
    if not isinstance(name, str) or name not in REPLAY_REGISTRY:
        raise ConfigError(f"no replayable check named {name!r}")
    if not isinstance(payload, dict):
        raise ConfigError("replay payload must be a JSON object")
    return REPLAY_REGISTRY[name](payload)


def _integer(value) -> int:
    """A JSON integer: no float, no bool, no string."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def _field(payload, key, parse=_integer):
    """``parse(payload[key])``; a missing or malformed value raises
    ConfigError."""
    if key not in payload:
        raise ConfigError(f"replay payload lacks the key {key!r}")
    try:
        return parse(payload[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {key!r} in replay payload: {exc}") from None


def square_matrix(space, text) -> Mat:
    m = parse_matrix(space.ring, str(text))
    if (m.nrows, m.ncols) != (space.n, space.n):
        raise ValueError(f"not a {space.n}x{space.n} matrix")
    return m


def _payload_std(payload):
    """Standard lattices of the payload's (family, n, p), and its base."""
    base = {"family": _field(payload, "family", str),
            "n": _field(payload, "n"), "p": _field(payload, "p")}
    if base["n"] < 1:
        raise ConfigError("n must be >= 1")
    try:
        space = build_space(base["family"], base["n"], base["p"])
    except ValueError as exc:                 # SpaceError, or a bad p
        raise ConfigError(f"bad replay payload: {exc}") from None
    return standard_lattices(space), base


def _replay_sampled(name, payload) -> CheckRow:
    check = CHECKS[name]
    std, _ = _payload_std(payload)
    if check.needs_form and not std.space.has_form:
        raise ConfigError(f"{name} needs a family with a form")
    args = []
    for kind, key in zip(check.kinds, check.keys()):
        obj = _field(payload, key,
                     lambda t: kind.certify(std.space,
                                            square_matrix(std.space, t)))
        if kind.holds is not None and not kind.holds(std, obj):
            raise ConfigError(f"{key!r} is not {kind.requirement}")
        args.append(obj)
    return _row(name, check.predicate(std, *args), payload)


def _replay_level_bijection(payload) -> CheckRow:
    std, base = _payload_std(payload)
    variant, level, precision = (_field(payload, "variant", str),
                                 _field(payload, "level"),
                                 _field(payload, "precision"))
    if variant not in ("gu", "u") or not 1 <= level < precision:
        raise ConfigError("replay payload needs variant gu or u and "
                          "1 <= level < precision")
    return _level_bijection(std, base, variant, level, precision,
                            _field(payload, "budget"))


def _replay_decompose_coset(payload) -> CheckRow:
    std, _ = _payload_std(payload)
    level, N = _field(payload, "level"), _field(payload, "precision")
    if not 1 <= level < N:
        raise ConfigError("replay payload needs 1 <= level < precision")

    def coset_base(text):
        b = square_matrix(std.space, text)
        certify_group(std.space.truncated(N), b.reduce(N))
        return b
    b = _field(payload, "b", coset_base)
    budget = _field({"budget": SuiteConfig.budget, **payload}, "budget")
    return _decompose_coset("decompose-coset", std, b, level, N, budget,
                            payload)


def _replay_class_inversion(payload) -> CheckRow:
    family, n, q = (_field(payload, "family", str), _field(payload, "n"),
                    _field(payload, "q"))
    if n < 1:
        raise ConfigError("n must be >= 1")
    try:
        table = build_group(family, n, q)
    except (SolveBudgetError, ValueError) as exc:   # FiniteGroupError, bad q
        raise ConfigError(f"cannot build the group: {exc}") from None
    rep = _field(payload, "rep", lambda t: square_matrix(table.space, t))
    try:
        pos = table.position(rep)
    except KeyError:
        raise ConfigError("'rep' is not an element of the group") from None
    classes = conjugacy_classes(table)
    cls = classes.class_of[pos]
    row = verify_class_inversion(table, classes).rows[cls]
    return _class_inversion(cls, row, family, n, q)


REPLAY_REGISTRY = {
    **{name: partial(_replay_sampled, name) for name in CHECKS},
    "theta-stable-lattice": lambda payload: _theta_stable_lattice(
        *_payload_std(payload)),
    "cayley-level-bijection": _replay_level_bijection,
    "decompose-coset": _replay_decompose_coset,
    "class-inversion": _replay_class_inversion,
}


# -- suites -----------------------------------------------------------


def _setup(cfg: SuiteConfig):
    """A fresh rng on the seed, so that a suite draws the same values
    whatever runs before it, and the payload base."""
    return make_rng(cfg.seed), {"family": cfg.family, "n": cfg.n, "p": cfg.p}


def suite_identity(cfg: SuiteConfig, std) -> list:
    rng, base = _setup(cfg)
    rows = []
    space = std.space
    if space.has_form:
        try:
            validate_anti_unitary(space, space.H)
        except AntiUnitaryError as exc:                   # pragma: no cover
            rows.append(CheckRow("anti-unitary-involution", FAIL,
                                 detail={"error": str(exc)}))
        else:
            rows.append(CheckRow("anti-unitary-involution", PASS))
    return rows + _sampled_rows("identity", std, rng, base, cfg.samples)


def suite_cayley(cfg: SuiteConfig, std) -> list:
    rng, base = _setup(cfg)
    return _sampled_rows("cayley", std, rng, base, cfg.samples)


def suite_lattice(cfg: SuiteConfig, std) -> list:
    rng, base = _setup(cfg)
    rows = [_theta_stable_lattice(std, base)]
    rows += _sampled_rows("lattice", std, rng, base, min(cfg.samples, 100))
    for variant in ("gu", "u") if std.space.has_form else ("gu",):
        rows.append(_level_bijection(std, base, variant, cfg.level,
                                     cfg.precision, cfg.budget))
    return rows


def sample_coset_base(std, rng, N: int) -> Mat:
    """A random integral coset base point: unit scalar times a Cayley
    image of an integral domain element, reduced mod p^N."""
    space = std.space
    p = space.ring.p
    for _ in range(500):
        c = [Fraction(rng.randint(-p**N, p**N))
             for _ in range(std.gu_coords.m)]
        X = certify_lie(space, std.gu_coords.from_coords(c))
        Xt = certify_lie(space.truncated(N), X.mat.reduce(N))
        if not in_domain(Xt):
            continue
        s = rng.randint(1, p**N - 1)
        if s % p == 0:
            continue
        return (cayley(Xt).mat * s)
    raise ConfigError("could not sample a coset base point")


def suite_decompose(cfg: SuiteConfig, std) -> list:
    rng, base = _setup(cfg)
    N = cfg.decompose_precision
    rows = []
    for i in range(cfg.cosets):
        b = sample_coset_base(std, rng, N)
        payload = {**base, "precision": N, "level": cfg.level,
                   "b": b.to_text()}
        t0 = time.monotonic()
        row = _decompose_coset(f"decompose-coset-{i}", std, b, cfg.level, N,
                               cfg.budget, payload)
        row.timing = time.monotonic() - t0
        rows.append(row)
    return rows


def suite_finite(cfg: SuiteConfig, std) -> list:
    t0 = time.monotonic()
    try:
        table = build_group(cfg.family, cfg.n, cfg.p)
    except (SolveBudgetError, FiniteGroupError) as exc:
        return [CheckRow("finite-build", FAIL, detail={"error": str(exc)})]
    classes = conjugacy_classes(table)
    rep = verify_class_inversion(table, classes)
    rows = [CheckRow("finite-build", PASS, detail={
        "order": table.order, "classes": classes.num_classes}),
        CheckRow("iota-inverse-permutations",
                 PASS if rep.permutations_equal else FINDING)]
    rows += [_class_inversion(cls, r, cfg.family, cfg.n, cfg.p)
             for cls, r in enumerate(rep.rows) if r.status != "pass"]
    passing = sum(1 for r in rep.rows if r.status == "pass")
    rows.append(CheckRow(
        "class-inversion-summary",
        PASS if passing == len(rep.rows) else FINDING,
        detail={"passing": passing, "classes": len(rep.rows)}))
    rows[0].timing = time.monotonic() - t0
    return rows


SUITE_FUNCTIONS = {
    "identity": suite_identity,
    "cayley": suite_cayley,
    "lattice": suite_lattice,
    "decompose": suite_decompose,
    "finite-dual": suite_finite,
}


def run_suite(cfg: SuiteConfig) -> Report:
    """Execute the selected suites on one build of the standard lattices;
    identical config + seed gives an identical report (timing excluded
    unless requested)."""
    validate_config(cfg)
    std = None if set(cfg.suites) <= {"finite-dual"} else standard_lattices(
        build_space(cfg.family, cfg.n, cfg.p))
    rows = []
    for name in cfg.suites:
        rows.extend(SUITE_FUNCTIONS[name](cfg, std))
    return Report(suite="+".join(cfg.suites), params=cfg.as_params(),
                  rows=rows)
