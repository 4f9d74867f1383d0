"""The per-layer metrics of a traced run, in the order BENCHMARK.json
lists them.  Times are seconds (or microseconds per call) at reference
speed; a layer a workload does not reach reads 0, and so does a ratio
whose base is 0."""

from __future__ import annotations

KINDS4 = ("exact-split", "exact-inert", "mod-split", "mod-inert")

PER_LAYER = (
    [(f"scalars.{op}_us.{k}", "us") for op in ("mul", "inv") for k in KINDS4]
    + [(f"matrices.{op}_us.{k}", "us") for op in ("mul", "inv")
       for k in KINDS4]
    + [("matrices.key_us.mod", "us"),
       ("spaces.star_us.split", "us"), ("spaces.star_us.inert", "us"),
       ("spaces.certify_group.calls", "count"),
       ("spaces.certify_lie.calls", "count"), ("spaces.self_s", "s"),
       ("involution.theta_group.calls", "count"), ("involution.self_s", "s"),
       ("cayley.cayley_us.exact-split", "us"),
       ("cayley.cayley_us.exact-inert", "us"), ("cayley.cayley_us.mod", "us"),
       ("cayley.fiber.calls", "count"), ("cayley.self_s", "s"),
       ("sampling.sample_lie.attempts", "count"),
       ("sampling.sample_lie.accepted", "count"),
       ("sampling.accept_ratio", "ratio"),
       ("modsolve.solve_affine_mod.calls", "count"),
       ("modsolve.span_coset_mod.calls", "count"),
       ("modsolve.iter_affine_mod.candidates", "count"),
       ("modsolve.self_s", "s"),
       ("lattices.lattice_of_x.calls", "count"),
       ("lattices.lattice_of_x_us", "us"),
       ("lattices.check_cayley_level_s", "s"), ("lattices.self_s", "s"),
       ("decomposition.cayley_image_members.calls", "count"),
       ("decomposition.subgroup_members", "count"),
       ("decomposition.find_conjugator_mod.calls", "count"),
       ("decomposition.candidates_per_solve", "ratio"),
       ("decomposition.pieces", "count"),
       ("decomposition.pieces_per_solve", "ratio"),
       ("decomposition.coset_set_s", "s"), ("decomposition.decompose_s", "s"),
       ("decomposition.verify_piece_s", "s"),
       ("finite.build_group_s", "s"), ("finite.matrices_scanned", "count"),
       ("finite.scan_yield", "ratio"), ("finite.conjugacy_classes_s", "s"),
       ("finite.verify_class_inversion_s", "s"),
       ("suites.run_suite_s", "s"), ("report.emit_report_s", "s"),
       ("tracing.overhead_s", "s")])


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(plain: list, traced: list, layers: dict) -> dict:
    """``plain`` and ``traced`` are the worker results of the same round
    run without and with tracing; ``layers`` the batch timings."""
    funcs, counts = {}, {}
    for unit in traced:
        for name, (calls, total, self_s) in unit["trace"]["functions"].items():
            rec = funcs.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += self_s
        for name, value in unit["trace"]["counts"].items():
            counts[name] = counts.get(name, 0) + value

    def calls(name):
        return funcs.get(name, [0, 0.0, 0.0])[0]

    def total(name):
        return funcs.get(name, [0, 0.0, 0.0])[1]

    def self_time(module):
        return sum(rec[2] for name, rec in funcs.items()
                   if name.startswith(module + "."))

    solves = calls("decomposition.find_conjugator_mod")
    candidates = counts.get("modsolve.iter_affine_mod.yields", 0)
    pieces = counts.get("decomposition.decompose.result", 0)
    scanned = counts.get("involution.enumerate_matrices.yields", 0)
    attempts = counts.get("sampling.sample_lie.attempts", 0)
    accepted = calls("sampling.sample_lie")
    values = dict(layers)
    values.update({
        "spaces.certify_group.calls": calls("spaces.certify_group"),
        "spaces.certify_lie.calls": calls("spaces.certify_lie"),
        "spaces.self_s": self_time("spaces"),
        "involution.theta_group.calls": calls("involution.theta_group"),
        "involution.self_s": self_time("involution"),
        "cayley.fiber.calls": calls("cayley.fiber"),
        "cayley.self_s": self_time("cayley"),
        "sampling.sample_lie.attempts": attempts,
        "sampling.sample_lie.accepted": accepted,
        "sampling.accept_ratio": _ratio(accepted, attempts),
        "modsolve.solve_affine_mod.calls": calls("modsolve.solve_affine_mod"),
        "modsolve.span_coset_mod.calls": calls("modsolve.span_coset_mod"),
        "modsolve.iter_affine_mod.candidates": candidates,
        "modsolve.self_s": self_time("modsolve"),
        "lattices.lattice_of_x.calls": calls("lattices.lattice_of_x"),
        "lattices.check_cayley_level_s": total("lattices.check_cayley_level"),
        "lattices.self_s": self_time("lattices"),
        "decomposition.cayley_image_members.calls":
            calls("decomposition.cayley_image_members"),
        "decomposition.subgroup_members":
            counts.get("decomposition.cayley_image_members.result", 0),
        "decomposition.find_conjugator_mod.calls": solves,
        "decomposition.candidates_per_solve": _ratio(candidates, solves),
        "decomposition.pieces": pieces,
        "decomposition.pieces_per_solve": _ratio(pieces, solves),
        "decomposition.coset_set_s": total("decomposition.coset_set"),
        "decomposition.decompose_s": total("decomposition.decompose"),
        "decomposition.verify_piece_s": total("decomposition.verify_piece"),
        "finite.build_group_s": total("finite.build_group"),
        "finite.matrices_scanned": scanned,
        "finite.scan_yield": _ratio(
            counts.get("finite.build_group.result", 0), scanned),
        "finite.conjugacy_classes_s": total("finite.conjugacy_classes"),
        "finite.verify_class_inversion_s":
            total("finite.verify_class_inversion"),
        "suites.run_suite_s": total("suites.run_suite"),
        "report.emit_report_s": total("report.emit_report"),
        "tracing.overhead_s": (sum(u["work_s"] for u in traced)
                               - sum(u["work_s"] for u in plain)),
    })
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
