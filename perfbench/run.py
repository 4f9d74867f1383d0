#!/usr/bin/env python3
"""simdual benchmark: run one workload and print its metrics as JSON.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; simdual is imported from its
``src`` directory.  Work runs in one process at a time: every unit is a
fresh interpreter (``worker.py``), so no repeat reuses program state.

--trace 0 runs whole rounds of the workload until the next round would
end after S seconds (at least one round) and prints the end-to-end
metrics.  --trace 1 runs round 0 once untraced and once traced, then the
batch timings of ``layers.py``, and prints the per-layer metrics.
The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = "perfbench/out"
DEADLINE = 170.0             # seconds; the whole run must end within 180


class BenchError(RuntimeError):
    pass


def run_worker(spec: dict, seed: int, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    env["PERFBENCH_SPAWN"] = repr(time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {spec['kind']} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_round(workload, seed, rnd, deadline, trace=False):
    """All units of one round, one fresh worker each."""
    prepared = None
    if units.needs_prepare(workload):
        prepared = run_worker(units.prepare_spec(seed, rnd), seed,
                              deadline)["prepared"]
    results = []
    for i, spec in enumerate(units.plan(workload, seed, rnd, prepared)):
        if trace:
            spec = dict(spec, trace=True, trace_file=f"{OUT_DIR}/trace-"
                        f"{workload}-s{seed}-u{i}.spans.gz")
        results.append(run_worker(spec, seed, deadline))
    return results


def tally(rounds, checked=None) -> dict:
    """Operation counts of ``rounds``; correct when no unit of
    ``checked`` (default: the same rounds) found a problem."""
    done = [u for r in rounds for u in r]
    seen = [u for r in (checked or rounds) for u in r]
    problems = [p for u in seen for p in u["problems"]]
    errors = [e for u in seen for e in u["errors"]]
    for line in (problems + errors)[:20]:
        print(line, file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(u["attempted"] for u in done),
            "failed": sum(u["failed"] for u in done)}


def timed_run(workload, seed, seconds, start, deadline) -> dict:
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(run_round(workload, seed, len(rounds), deadline))
        took = time.monotonic() - t0
        if time.monotonic() - start + took > seconds:
            break
    verify = [sum(u["work_s"] for u in r) for r in rounds]
    every = [u for r in rounds for u in r]
    metrics = {
        "setup_s": statistics.median(u["setup_s"] for u in every),
        "verify_s": statistics.median(verify),
        "peak_rss_mib": max(u["rss_kib"] for u in every) / 1024,
    }
    units_of = {"setup_s": "s", "verify_s": "s", "peak_rss_mib": "MiB"}
    print(f"{workload} seed {seed}: {len(rounds)} rounds, verify_s per round "
          f"{[round(v, 3) for v in verify]}", file=sys.stderr)
    return {**tally(rounds),
            "metrics": {k: {"value": v, "unit": units_of[k]}
                        for k, v in metrics.items()}}


def traced_run(workload, seed, deadline) -> dict:
    from layer_metrics import per_layer
    plain = run_round(workload, seed, 0, deadline)
    (ROOT / OUT_DIR).mkdir(parents=True, exist_ok=True)
    traced = run_round(workload, seed, 0, deadline, trace=True)
    layers = run_worker({"kind": "layers", "seed": seed}, seed,
                        deadline)["layers"]
    metrics = per_layer(plain, traced, layers)
    with open(ROOT / OUT_DIR / f"layers-{workload}-s{seed}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "metrics": metrics,
                   "traced_units": [u["trace"] for u in traced]}, fh,
                  indent=1, sort_keys=True)
    return {**tally([traced], checked=[plain, traced]), "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=units.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.monotonic()
    if not (ROOT / "src" / "simdual" / "__init__.py").is_file():
        print(f"error: no simdual sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced_run(args.workload, args.seed, start + DEADLINE)
        else:
            result = timed_run(args.workload, args.seed, args.seconds,
                               start, start + DEADLINE)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
