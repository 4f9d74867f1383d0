"""One unit of benchmark work in a fresh interpreter.

Usage (from ``run.py``): python3 perfbench/worker.py '<unit spec as JSON>'
with PERFBENCH_SPAWN set to the parent's ``time.monotonic()`` at spawn.
Prints one JSON line: set-up and work times (raw and at reference
speed), peak RSS of this process after the work, operation counts, the
problems the checks found and, when traced, the span summary.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spawned = float(os.environ["PERFBENCH_SPAWN"])
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, str(ROOT / "src"))
    import units
    from refkernel import SpeedProbe

    if spec["kind"] == "prepare":
        print(json.dumps({"prepared": units.Prepare.run(spec)}))
        return 0
    if spec["kind"] == "layers":
        import layers
        print(json.dumps({"layers": layers.measure(spec["seed"])}))
        return 0

    tracer = None
    if spec.get("trace"):
        import simdual.suites  # noqa: F401  (loads every traced module)
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    kind = units.KINDS[spec["kind"]]
    state = kind.setup(spec)
    setup_raw = time.monotonic() - spawned
    if tracer:
        tracer.reset()
    with SpeedProbe() as probe:
        out = kind.work(state)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    problems = kind.check(spec, state, out)
    work_raw = probe.raw_seconds()
    work_norm = probe.normalised_seconds()
    # set-up is too short to probe while it runs; it is converted at the
    # median speed the probes saw during the work that follows it
    result = {"setup_raw": setup_raw,
              "setup_s": setup_raw * probe.median_speed(),
              "work_raw": work_raw, "work_s": work_norm,
              "probes": len(probe.samples), "rss_kib": rss_kib,
              "attempted": out["attempted"], "failed": out["failed"],
              "errors": out["errors"], "problems": problems}
    if tracer:
        result["trace"] = tracer.summary(work_norm / work_raw)
        if spec.get("trace_file"):
            tracer.write(ROOT / spec["trace_file"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
