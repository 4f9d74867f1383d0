"""Suite runner: configuration, the five verification suites, and the
replay registry that re-executes any reported counterexample.

Suites are deterministic functions of (configuration, seed).  Every row
that can fail carries a ``replay`` entry whose payload contains the full
inputs in canonical text form, so a reported counterexample can be re-run
in isolation with ``replay_check``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .cayley import cayley, fiber, in_domain
from .decomposition import coset_set, decompose
from .finite import FINITE_FAMILIES, GUNITARY, UNITARY, build_group, \
    conjugacy_classes, verify_class_inversion
from .involution import theta_group, theta_lie, validate_anti_unitary
from .lattices import check_cayley_level, lattice_of_x, standard_lattices, \
    transform_lattice
from .matrices import Mat, parse_matrix
from .report import FAIL, FINDING, PASS, CheckRow, Report
from .sampling import make_rng, sample_group, sample_integral_lie, \
    sample_lie, sample_stabilizing, sample_theta_fixed
from .scalars import INERT, SPLIT, Ring, is_odd_prime
from .spaces import (FAMILIES, GENERAL_LINEAR, HERMITIAN, SKEW_HERMITIAN,
                     SpaceError, certify_group, certify_lie, standard_space,
                     star)

ALL_SUITES = ("identity", "cayley", "lattice", "decompose", "finite-dual")

# families whose scalars live in the quadratic extension
_INERT_FAMILIES = (HERMITIAN, SKEW_HERMITIAN, UNITARY, GUNITARY)


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class SuiteConfig:
    family: str = "symplectic"
    n: int = 2
    p: int = 3
    ext: str = "auto"             # split / inert / auto (from family)
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
            "ext": self.resolved_ext(), "precision": self.precision,
            "level": self.level, "samples": self.samples, "seed": self.seed,
            "cosets": self.cosets,
            "decompose_precision": self.decompose_precision,
        }

    def resolved_ext(self) -> str:
        if self.ext != "auto":
            return self.ext
        return INERT if self.family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT


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
    ring_ext = INERT if cfg.family in _INERT_FAMILIES else SPLIT
    if cfg.ext not in ("auto", ring_ext):
        raise ConfigError(f"family {cfg.family!r} works over the {ring_ext} "
                          f"ring, not ext {cfg.ext!r}")
    if cfg.family in FAMILIES and not finite_only:
        try:
            build_space(cfg.family, cfg.n, cfg.p)
        except SpaceError as exc:
            raise ConfigError(str(exc))
    if not (1 <= cfg.level < cfg.precision):
        raise ConfigError(
            f"need 1 <= level < precision, got level={cfg.level} "
            f"precision={cfg.precision}")
    if cfg.samples < 1:
        raise ConfigError("samples must be >= 1")
    for s in cfg.suites:
        if s not in ALL_SUITES:
            raise ConfigError(f"unknown suite {s!r}")
    if cfg.fmt not in ("json", "markdown"):
        raise ConfigError(f"unknown format {cfg.fmt!r}")


def build_space(family: str, n: int, p: int):
    ext = INERT if family in (HERMITIAN, SKEW_HERMITIAN) else SPLIT
    return standard_space(family, n, Ring(p, ext))


# -- replay registry --------------------------------------------------


REPLAY_REGISTRY = {}


def _registered(name):
    def deco(fn):
        REPLAY_REGISTRY[name] = fn
        return fn
    return deco


def replay_check(entry: dict) -> CheckRow:
    """Re-run a single reported check from its replay payload."""
    name = entry["check"]
    if name not in REPLAY_REGISTRY:
        raise ConfigError(f"no replayable check named {name!r}")
    return REPLAY_REGISTRY[name](entry["payload"])


def _space_from_payload(payload):
    return build_space(payload["family"], int(payload["n"]), int(payload["p"]))


def _row(name, ok, payload=None, check=None, detail=None):
    row = CheckRow(name=name, status=PASS if ok else FAIL, detail=detail)
    if not ok and payload is not None:
        row.counterexample = payload
        row.replay = {"check": check or name, "payload": payload}
    return row


# -- atomic replayable checks -----------------------------------------


@_registered("multiplier-identity")
def check_multiplier_identity(payload) -> CheckRow:
    space = _space_from_payload(payload)
    X = certify_lie(space, parse_matrix(space.ring, payload["X"]))
    g = cayley(X)
    t = (space.ring.one + X.alpha).inv()
    ok = g.mu == t * t
    if space.has_form:
        ok = ok and (g.mat * star(space, g.mat)).scalar_part() == g.mu
    return _row("multiplier-identity", ok, payload)


@_registered("theta-cayley-commute")
def check_theta_cayley(payload) -> CheckRow:
    space = _space_from_payload(payload)
    X = certify_lie(space, parse_matrix(space.ring, payload["X"]))
    ok = theta_group(cayley(X)).mat == cayley(theta_lie(X)).mat
    return _row("theta-cayley-commute", ok, payload)


@_registered("ad-equivariance")
def check_ad_equivariance(payload) -> CheckRow:
    space = _space_from_payload(payload)
    X = certify_lie(space, parse_matrix(space.ring, payload["X"]))
    x = certify_group(space, parse_matrix(space.ring, payload["x"]))
    adX = certify_lie(space, x.mat * X.mat * x.mat.inv())
    lhs = x.mat * cayley(X).mat * x.mat.inv()
    ok = lhs == cayley(adX).mat
    return _row("ad-equivariance", ok, payload)


@_registered("domain-invariance")
def check_domain_invariance(payload) -> CheckRow:
    space = _space_from_payload(payload)
    X = certify_lie(space, parse_matrix(space.ring, payload["X"]))
    x = certify_group(space, parse_matrix(space.ring, payload["x"]))
    adX = certify_lie(space, x.mat * X.mat * x.mat.inv())
    d = in_domain(X)
    ok = in_domain(theta_lie(X)) == d and in_domain(adX) == d
    return _row("domain-invariance", ok, payload)


@_registered("fiber-roundtrip")
def check_fiber_roundtrip(payload) -> CheckRow:
    space = _space_from_payload(payload)
    X = certify_lie(space, parse_matrix(space.ring, payload["X"]))
    g = cayley(X)
    res = fiber(g)
    if res.tag == "infinite-identity":
        ok = res.identity_fiber_contains(X)
    else:
        ok = any(p.X.mat == X.mat for p in res.preimages)
    return _row("fiber-roundtrip", ok, payload)


@_registered("lattice-theta-ad")
def check_lattice_theta_ad(payload) -> CheckRow:
    space = _space_from_payload(payload)
    std = standard_lattices(space)
    x = certify_group(space, parse_matrix(space.ring, payload["x"]))
    ok = theta_group(x).mat == x.mat
    if ok:
        lx = lattice_of_x(std.gu_coords, x.mat)
        lhs = transform_lattice(std.gu_coords, ("theta",), lx)
        rhs = transform_lattice(std.gu_coords, ("ad", x.mat), lx)
        ok = lhs == rhs
    return _row("lattice-theta-ad", ok, payload)


@_registered("lattice-coset-invariance")
def check_lattice_coset(payload) -> CheckRow:
    space = _space_from_payload(payload)
    std = standard_lattices(space)
    k = certify_group(space, parse_matrix(space.ring, payload["k"]))
    d = certify_group(space, parse_matrix(space.ring, payload["d"]))
    stab = transform_lattice(std.gu_coords, ("ad", k.mat), std.Ldot) == std.Ldot
    ok = stab and lattice_of_x(std.gu_coords, (k * d).mat) == \
        lattice_of_x(std.gu_coords, d.mat)
    return _row("lattice-coset-invariance", ok, payload)


@_registered("decompose-coset")
def check_decompose_coset(payload) -> CheckRow:
    space = _space_from_payload(payload)
    std = standard_lattices(space)
    N = int(payload["precision"])
    b = parse_matrix(space.ring, payload["b"])
    C = coset_set(space, std, b, int(payload["level"]), N)
    pieces = decompose(C, std)
    return _row("decompose-coset", True, payload,
                detail={"members": len(C.members), "pieces": len(pieces)})


@_registered("class-inversion")
def check_class_inversion(payload) -> CheckRow:
    table = build_group(payload["family"], int(payload["n"]),
                        int(payload["q"]))
    classes = conjugacy_classes(table)
    rep_mat = parse_matrix(table.space.ring, payload["rep"])
    pos = table.position(rep_mat)
    ic = classes.class_of[table.iota[pos]]
    vc = classes.class_of[table.inverse[pos]]
    return _row("class-inversion", ic == vc, payload)


# -- sampled-identity helper ------------------------------------------


def _sampled(name, cfg, payload_base, sampler, predicate, count=None):
    """Run ``predicate`` on ``count`` sampled inputs; one row out."""
    count = count or cfg.samples
    t0 = time.monotonic()
    for _ in range(count):
        data = sampler()
        if not predicate(*data if isinstance(data, tuple) else (data,)):
            payload = dict(payload_base)
            payload.update(_payload_of(data))
            row = _row(name, False, payload, check=name)
            row.detail = {"samples": count}
            return row
    row = CheckRow(name=name, status=PASS, detail={"samples": count})
    row.timing = time.monotonic() - t0
    return row


def _payload_of(data):
    if not isinstance(data, tuple):
        data = (data,)
    out = {}
    names = ["X", "x", "Y", "y"]
    for obj, key in zip(data, names):
        out[key] = obj.mat.to_text()
    return out


# -- suites -----------------------------------------------------------


def suite_identity(cfg: SuiteConfig) -> list:
    space = build_space(cfg.family, cfg.n, cfg.p)
    std = standard_lattices(space)
    rng = make_rng(cfg.seed)
    base = {"family": cfg.family, "n": cfg.n, "p": cfg.p}
    rows = []

    if space.has_form:
        try:
            validate_anti_unitary(space, space.H, mode="involution")
            rows.append(CheckRow("anti-unitary-involution", PASS))
        except Exception as exc:                          # pragma: no cover
            rows.append(CheckRow("anti-unitary-involution", FAIL,
                                 detail={"error": str(exc)}))
        rows.append(_sampled(
            "star-anti-involution", cfg, base,
            lambda: (sample_group(std, rng), sample_group(std, rng)),
            lambda a, b: star(space, a.mat * b.mat)
            == star(space, b.mat) * star(space, a.mat)
            and star(space, star(space, a.mat)) == a.mat))

    rows.append(_sampled(
        "theta-anti-automorphism", cfg, base,
        lambda: (sample_group(std, rng), sample_group(std, rng)),
        lambda a, b: theta_group(a * b).mat
        == (theta_group(b) * theta_group(a)).mat
        and theta_group(theta_group(a)).mat == a.mat))

    rows.append(_sampled(
        "multiplier-homomorphism", cfg, base,
        lambda: (sample_group(std, rng), sample_group(std, rng)),
        lambda a, b: certify_group(space, a.mat * b.mat).mu == a.mu * b.mu))

    rows.append(_sampled(
        "alpha-theta-invariance", cfg, base,
        lambda: sample_lie(std, rng),
        lambda X: theta_lie(X).alpha == X.alpha
        and certify_lie(space, theta_lie(X).mat).alpha == X.alpha))

    rows.append(_sampled(
        "theta-ad-twist", cfg, base,
        lambda: (sample_lie(std, rng), sample_group(std, rng)),
        lambda X, x: theta_lie(
            certify_lie(space, x.mat * X.mat * x.mat.inv())).mat
        == theta_group(x).mat.inv() * theta_lie(X).mat * theta_group(x).mat))
    return rows


def suite_cayley(cfg: SuiteConfig) -> list:
    space = build_space(cfg.family, cfg.n, cfg.p)
    std = standard_lattices(space)
    rng = make_rng(cfg.seed)
    base = {"family": cfg.family, "n": cfg.n, "p": cfg.p}
    one = space.ring.one
    rows = []

    rows.append(_sampled(
        "multiplier-identity", cfg, base,
        lambda: sample_lie(std, rng),
        lambda X: cayley(X).mu == (one + X.alpha).inv() * (one + X.alpha).inv()))

    if space.has_form:
        rows.append(_sampled(
            "cayley-star-product", cfg, base,
            lambda: sample_lie(std, rng),
            lambda X: (cayley(X).mat * star(space, cayley(X).mat))
            .scalar_part() == cayley(X).mu))

    rows.append(_sampled(
        "theta-cayley-commute", cfg, base,
        lambda: sample_lie(std, rng),
        lambda X: theta_group(cayley(X)).mat == cayley(theta_lie(X)).mat))

    rows.append(_sampled(
        "ad-equivariance", cfg, base,
        lambda: (sample_lie(std, rng), sample_group(std, rng)),
        lambda X, x: x.mat * cayley(X).mat * x.mat.inv()
        == cayley(certify_lie(space, x.mat * X.mat * x.mat.inv())).mat))

    rows.append(_sampled(
        "domain-invariance", cfg, base,
        lambda: (sample_lie(std, rng), sample_group(std, rng)),
        lambda X, x: in_domain(theta_lie(X)) == in_domain(X)
        == in_domain(certify_lie(space, x.mat * X.mat * x.mat.inv()))))

    rows.append(_sampled(
        "fiber-roundtrip", cfg, base,
        lambda: sample_lie(std, rng),
        lambda X: _roundtrips(X)))
    return rows


def _roundtrips(X) -> bool:
    res = fiber(cayley(X))
    if res.tag == "infinite-identity":
        return res.identity_fiber_contains(X)
    return any(p.X.mat == X.mat for p in res.preimages)


def suite_lattice(cfg: SuiteConfig) -> list:
    space = build_space(cfg.family, cfg.n, cfg.p)
    std = standard_lattices(space)
    rng = make_rng(cfg.seed)
    base = {"family": cfg.family, "n": cfg.n, "p": cfg.p}
    rows = []

    theta_L = transform_lattice(std.gu_coords, ("theta",), std.Ldot)
    rows.append(_row("theta-stable-lattice", theta_L == std.Ldot, base,
                     check="lattice-theta-ad"))

    count = min(cfg.samples, 100)
    rows.append(_sampled(
        "lattice-theta-ad", cfg, base,
        lambda: sample_theta_fixed(std, rng),
        lambda x: _lattice_lemma(std, x), count=count))

    rows.append(_sampled(
        "lattice-coset-invariance", cfg, base,
        lambda: (sample_stabilizing(std, rng), sample_group(std, rng)),
        lambda k, d: lattice_of_x(std.gu_coords, (k * d).mat)
        == lattice_of_x(std.gu_coords, d.mat), count=count))

    rows.append(_sampled(
        "scaled-lattice-in-domain", cfg, base,
        lambda: sample_integral_lie(std, rng, level=1),
        lambda X: in_domain(X), count=count))

    for variant in ("gu", "u"):
        if variant == "u" and not space.has_form:
            continue
        name = f"cayley-level-bijection-{variant}"
        try:
            rep = check_cayley_level(space, std, cfg.level, cfg.precision,
                                     variant, budget=cfg.budget)
            detail = {"image": rep.image_size,
                      "congruence": rep.congruence_size}
            ok = rep.passed
            row = CheckRow(name, PASS if ok else FAIL, detail=detail)
            if not ok:
                row.counterexample = {"mismatches": rep.mismatches[:5],
                                      **base, "variant": variant,
                                      "level": cfg.level,
                                      "precision": cfg.precision}
        except Exception as exc:
            row = CheckRow(name, FAIL, detail={"error": str(exc)})
        rows.append(row)
    return rows


def _lattice_lemma(std, x) -> bool:
    lx = lattice_of_x(std.gu_coords, x.mat)
    lhs = transform_lattice(std.gu_coords, ("theta",), lx)
    rhs = transform_lattice(std.gu_coords, ("ad", x.mat), lx)
    return lhs == rhs


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


def suite_decompose(cfg: SuiteConfig) -> list:
    space = build_space(cfg.family, cfg.n, cfg.p)
    std = standard_lattices(space)
    rng = make_rng(cfg.seed)
    N = cfg.decompose_precision
    if not (1 <= cfg.level < N):
        raise ConfigError("need 1 <= level < decompose precision")
    rows = []
    for i in range(cfg.cosets):
        b = sample_coset_base(std, rng, N)
        payload = {"family": cfg.family, "n": cfg.n, "p": cfg.p,
                   "precision": N, "level": cfg.level, "b": b.to_text()}
        t0 = time.monotonic()
        try:
            C = coset_set(space, std, b, cfg.level, N, limit=cfg.budget)
            pieces = decompose(C, std, limit=cfg.budget)
            row = CheckRow(f"decompose-coset-{i}", PASS,
                           detail={"members": len(C.members),
                                   "pieces": len(pieces)})
            row.replay = {"check": "decompose-coset", "payload": payload}
        except Exception as exc:
            row = CheckRow(f"decompose-coset-{i}", FAIL,
                           counterexample=payload,
                           detail={"error": str(exc)})
            row.replay = {"check": "decompose-coset", "payload": payload}
        row.timing = time.monotonic() - t0
        rows.append(row)
    return rows


def suite_finite(cfg: SuiteConfig) -> list:
    family = cfg.family if cfg.family in FINITE_FAMILIES else "sp"
    rows = []
    t0 = time.monotonic()
    try:
        table = build_group(family, cfg.n, cfg.p)
    except Exception as exc:
        return [CheckRow("finite-build", FAIL, detail={"error": str(exc)})]
    classes = conjugacy_classes(table)
    rep = verify_class_inversion(table, classes)
    detail = {"order": table.order, "classes": classes.num_classes}
    rows.append(CheckRow("finite-build", PASS, detail=detail))
    perm_row = CheckRow("iota-inverse-permutations",
                        PASS if rep.permutations_equal else FINDING)
    rows.append(perm_row)
    for cls, r in enumerate(rep.rows):
        if r.status == "pass":
            continue
        payload = {"family": family, "n": cfg.n, "q": cfg.p, "rep": r.rep}
        rows.append(CheckRow(
            f"class-{cls}", FINDING,
            counterexample={**payload, "iota_class": r.iota_class,
                            "inverse_class": r.inverse_class,
                            "conjugator": r.conjugator},
            replay={"check": "class-inversion", "payload": payload}))
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
    """Execute the selected suites; identical config + seed gives an
    identical report (timing excluded unless requested)."""
    validate_config(cfg)
    rows = []
    for name in cfg.suites:
        rows.extend(SUITE_FUNCTIONS[name](cfg))
    return Report(suite="+".join(cfg.suites), params=cfg.as_params(),
                  rows=rows)
