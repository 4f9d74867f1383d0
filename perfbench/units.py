"""The three workloads and the units of work they are made of.

A unit runs in a fresh interpreter (``worker.py``): set-up (imports and
the inputs the ``simdual`` command builds before its work), then the
timed calls into simdual's public entry points, then the benchmark's own
checks of what those calls returned.  A round is one pass over a
workload's units; every round of a workload attempts the same operations.
"""

from __future__ import annotations

import json

import checks
from modarith import Model

P = 3
N_DIM = 2
LEVEL = 1

SUITE_FAMILIES = ("orthogonal", "symplectic", "hermitian", "skew-hermitian",
                  "general-linear")
SUITE_SAMPLES = 25
SUITE_PRECISION = 2          # the level-bijection check runs mod 3^2

# (family, N, path): "fast" cosets contain a theta-fixed member, so
# decompose returns C with witness a^-1; "general" cosets take one
# conjugator solve per member.  Base points are drawn from the seed until
# the coset takes its slot's path, so every seed does the same kind of work.
COSET_SLOTS = (("symplectic", 3, "fast"), ("symplectic", 3, "fast"),
               ("general-linear", 3, "fast"), ("hermitian", 2, "general"))
CENSUS_PRECISION = 2         # fibers of the symplectic Cayley map mod 9

FINITE_TARGETS = (("gl", 3, 3), ("gu", 2, 3), ("u", 2, 3), ("sp", 2, 3),
                  ("gsp", 2, 3), ("sp", 2, 5), ("gsp", 2, 5), ("o+", 2, 5),
                  ("o-", 2, 5), ("gl", 2, 3), ("gl", 2, 5))

WORKLOADS = ("sampled-identities", "exhaustive-mod-pN", "finite-duality")


def unit_seed(seed: int, rnd: int, slot: int) -> int:
    return seed * 1000 + rnd * 10 + slot


def needs_prepare(workload: str) -> bool:
    return workload == "exhaustive-mod-pN"


def prepare_spec(seed: int, rnd: int) -> dict:
    return {"kind": "prepare",
            "slots": [[fam, N, path, unit_seed(seed, rnd, i)]
                      for i, (fam, N, path) in enumerate(COSET_SLOTS)]}


def plan(workload: str, seed: int, rnd: int, prepared=None) -> list:
    """The unit specs of one round."""
    if workload == "sampled-identities":
        return [{"kind": "suite", "family": fam, "samples": SUITE_SAMPLES,
                 "seed": unit_seed(seed, rnd, i)}
                for i, fam in enumerate(SUITE_FAMILIES)]
    if workload == "exhaustive-mod-pN":
        units = [{"kind": "coset", "family": fam, "N": N, "base": base}
                 for fam, N, base in prepared]
        return units + [{"kind": "census", "N": CENSUS_PRECISION}]
    if workload == "finite-duality":
        return [{"kind": "finite", "family": fam, "n": n, "q": q}
                for fam, n, q in FINITE_TARGETS]
    raise ValueError(f"unknown workload {workload!r}")


# -- helpers ------------------------------------------------------------


def parse_key(text: str) -> tuple:
    """simdual's canonical text of a truncated matrix -> its Mat.key()."""
    out = []
    for row in text.split(";"):
        for entry in row.split(","):
            a, _, b = entry.strip().partition("+")
            out.append(int(a))
            out.append(int(b[:-2]) if b else 0)
    return tuple(out)


def _emit(suite: str, params: dict, rows: list) -> str:
    from simdual import report
    return report.emit_report(report.Report(suite=suite, params=params,
                                            rows=rows), "json")


def _report_problems(text: str) -> list:
    doc = json.loads(text)
    statuses = [row["status"] for row in doc["rows"]]
    if doc["summary"].get("pass", 0) != statuses.count("pass"):
        return [f"report summary {doc['summary']} disagrees with its rows"]
    return []


# -- unit kinds: setup(spec) -> state, work(state) -> result, check ------
#
# work returns {"attempted", "failed", "errors", ...outputs}; an operation
# that raises or gets a failing verdict from simdual counts as failed.


class Suite:
    """``simdual verify`` with the default suites for one family."""

    @staticmethod
    def setup(spec):
        from simdual import suites
        cfg = suites.SuiteConfig(family=spec["family"], n=N_DIM, p=P,
                                 precision=SUITE_PRECISION, level=LEVEL,
                                 samples=spec["samples"], seed=spec["seed"])
        suites.validate_config(cfg)
        return {"cfg": cfg}

    @staticmethod
    def work(state):
        from simdual import report, suites
        try:
            rep = suites.run_suite(state["cfg"])
        except Exception as exc:      # one failed operation, not a crash
            return {"attempted": 1, "failed": 1,
                    "errors": [f"run_suite: {exc!r}"], "text": None}
        text = report.emit_report(rep, "json")
        failed = sum(1 for r in rep.rows if r.status != report.PASS)
        return {"attempted": len(rep.rows), "failed": failed, "errors": [],
                "text": text}

    @staticmethod
    def check(spec, state, out):
        if out["text"] is None:
            return []
        return checks.check_suite_report(
            json.loads(out["text"]), spec["family"], spec["samples"],
            SUITE_PRECISION, LEVEL, P) + _report_problems(out["text"])


class Coset:
    """``simdual decompose``: coset_set, decompose and verify_piece."""

    @staticmethod
    def setup(spec):
        from simdual import lattices, matrices, suites
        space = suites.build_space(spec["family"], N_DIM, P)
        std = lattices.standard_lattices(space)
        base = matrices.parse_matrix(space.ring, spec["base"])
        return {"space": space, "std": std, "base": base, "N": spec["N"]}

    @staticmethod
    def work(state):
        from simdual import decomposition as dec
        from simdual.report import PASS, CheckRow
        try:
            C = dec.coset_set(state["space"], state["std"], state["base"],
                              LEVEL, state["N"])
            pieces = dec.decompose(C, state["std"])
            verified = all(dec.verify_piece(p.members, p.witness)
                           for p in pieces)
        except Exception as exc:
            return {"attempted": 1, "failed": 1,
                    "errors": [f"decompose: {exc!r}"]}
        rows = [CheckRow("coset-partition", PASS,
                         detail={"members": len(C.members),
                                 "pieces": len(pieces)})]
        rows += [CheckRow(f"piece-{i}", PASS,
                          detail={"members": len(p.members),
                                  "witness": p.witness.mat.to_text()})
                 for i, p in enumerate(pieces)]
        text = _emit("decompose", {"base": state["base"].to_text()}, rows)
        return {"attempted": 1, "failed": 0 if verified else 1,
                "errors": [] if verified else ["verify_piece rejected a piece"],
                "coset": C, "pieces": pieces, "text": text}

    @staticmethod
    def check(spec, state, out):
        if "coset" not in out:
            return []
        C = out["coset"]
        members = [m.mat.key() for m in C.members]
        pieces = [([m.mat.key() for m in p.members], p.witness.mat.key())
                  for p in out["pieces"]]
        model = Model(spec["family"], N_DIM, P, spec["N"])
        subgroup = model.congruence_subgroup(LEVEL)
        return (checks.check_coset(model, LEVEL, C.base.mat.key(), members,
                                   subgroup)
                + checks.check_pieces(model, members, pieces)
                + _report_problems(out["text"]))


class Census:
    """Exhaustive fiber census of the symplectic Cayley map mod 3^N: the
    bucketing oracle ``bucket_domain_images`` against ``fiber`` on every
    image."""

    @staticmethod
    def setup(spec):
        from simdual import scalars, spaces
        ring = scalars.Ring(P, scalars.SPLIT, spec["N"])
        return {"space": spaces.standard_space("symplectic", N_DIM, ring)}

    @staticmethod
    def work(state):
        from simdual import cayley, matrices, spaces
        from simdual.report import FAIL, PASS, CheckRow
        space = state["space"]
        ring = space.ring
        try:
            buckets = cayley.bucket_domain_images(space)
        except Exception as exc:
            return {"attempted": 1, "failed": 1,
                    "errors": [f"bucket_domain_images: {exc!r}"]}
        mismatches = failed = 0
        errors = []
        for key in sorted(buckets):
            rows = [[ring.scalar(key[2 * (i * N_DIM + j)],
                                 key[2 * (i * N_DIM + j) + 1])
                     for j in range(N_DIM)] for i in range(N_DIM)]
            try:
                g = spaces.certify_group(space, matrices.Mat(ring, rows))
                res = cayley.fiber(g)
            except Exception as exc:
                failed += 1
                errors.append(f"fiber at {key}: {exc!r}")
                continue
            got = sorted(p.X.mat.key() for p in res.domain_preimages())
            if got != buckets[key]:
                mismatches += 1
        row = CheckRow("fiber-census", PASS if not mismatches else FAIL,
                       detail={"images": len(buckets),
                               "mismatches": mismatches})
        return {"attempted": len(buckets), "failed": failed,
                "errors": errors[:5], "buckets": buckets,
                "mismatches": mismatches,
                "text": _emit("fiber-census", {"p": P, "precision": ring.prec},
                              [row])}

    @staticmethod
    def check(spec, state, out):
        if "buckets" not in out:
            return []
        model = Model("symplectic", N_DIM, P, spec["N"])
        return checks.check_fiber_census(model, out["buckets"],
                                         out["mismatches"])


class Finite:
    """``simdual finite-dual``: build_group, conjugacy_classes and
    verify_class_inversion on one finite group."""

    @staticmethod
    def setup(spec):
        from simdual import finite, report       # noqa: F401 (imports only)
        return {"target": (spec["family"], spec["n"], spec["q"])}

    @staticmethod
    def work(state):
        from simdual import finite
        from simdual.report import FINDING, PASS, CheckRow
        fam, n, q = state["target"]
        try:
            table = finite.build_group(fam, n, q)
            classes = finite.conjugacy_classes(table)
            rep = finite.verify_class_inversion(table, classes)
        except Exception as exc:
            return {"attempted": 1, "failed": 1,
                    "errors": [f"{fam}({n},{q}): {exc!r}"]}
        rows = [CheckRow("finite-build", PASS,
                         detail={"order": table.order,
                                 "classes": classes.num_classes}),
                CheckRow("class-inversion-summary",
                         PASS if rep.passed else FINDING,
                         detail={"classes": len(rep.rows)})]
        return {"attempted": 1, "failed": 0 if rep.passed else 1,
                "errors": [] if rep.passed
                else [f"{fam}({n},{q}): class inversion has findings"],
                "table": table, "classes": classes, "report": rep,
                "text": _emit("finite-dual", {"family": fam, "n": n, "q": q},
                              rows)}

    @staticmethod
    def check(spec, state, out):
        if "table" not in out:
            return []
        rows = [(r.status, r.iota_class, r.inverse_class, parse_key(r.rep),
                 None if r.conjugator is None else parse_key(r.conjugator))
                for r in out["report"].rows]
        return checks.check_finite(
            spec["family"], spec["n"], spec["q"],
            [e.mat.key() for e in out["table"].elements],
            out["classes"].num_classes, rows) + _report_problems(out["text"])


class Prepare:
    """Untimed input generation for exhaustive-mod-pN: coset base points
    from ``suites.sample_coset_base``, redrawn until the coset takes its
    slot's path (decided with the benchmark's own arithmetic)."""

    @staticmethod
    def run(spec):
        from simdual import lattices, sampling, suites
        subgroups = {}
        bases = []
        for fam, N, path, seed in spec["slots"]:
            space = suites.build_space(fam, N_DIM, P)
            std = lattices.standard_lattices(space)
            model = Model(fam, N_DIM, P, N)
            if (fam, N) not in subgroups:
                subgroups[fam, N] = model.congruence_subgroup(LEVEL)
            rng = sampling.make_rng(seed)
            for _ in range(200):
                b = suites.sample_coset_base(std, rng, N)
                key = b.key()
                fixed = any(model.theta(m) == m for m in
                            (model.ar.mul(key, k) for k in subgroups[fam, N]))
                if fixed == (path == "fast"):
                    break
            else:
                raise RuntimeError(f"no {path} coset for {fam} in 200 draws")
            bases.append([fam, N, b.to_text()])
        return bases


KINDS = {"suite": Suite, "coset": Coset, "census": Census, "finite": Finite}
