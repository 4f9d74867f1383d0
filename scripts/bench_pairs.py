#!/usr/bin/env python3
"""Run the benchmark in pairs on two source checkouts and collect the runs.

Each pair runs ``perfbench/run.py`` once in the PARENT checkout and once
in the CHANGE checkout, back to back, on the same workload and seed;
which side runs first alternates from pair to pair.  Every workload gets
one untraced pair per seed, and every ``--traced`` workload one more
traced pair on the seed after the largest one.  Both sides run for the
``run_seconds`` that the parent's BENCHMARK.json sets.  The final JSON
line each run prints is kept unedited under "result", in the order the
runs were made, and the file is rewritten after every run, so a stopped
loop keeps what it finished.  Python reads an existing ``__pycache__``
even with PYTHONDONTWRITEBYTECODE=1, so a checkout that holds one under
``src`` would start faster than a clean one: the script exits 2 with one
line on stderr before any run.

Usage:
  python3 scripts/bench_pairs.py PARENT CHANGE --workload W [W ...]
      --seeds S [S ...] [--traced W [W ...]] [--output BENCH.json]
      [--about TEXT]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(cmd[1:])} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def plan(workloads, seeds, traced):
    """(workload, seed, trace) of every pair, in run order."""
    pairs = [(w, s, 0) for w in workloads for s in seeds]
    return pairs + [(w, max(seeds) + 1, 1) for w in traced]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--traced", nargs="*", default=[],
                    help="workloads that get one traced pair each")
    ap.add_argument("--output", type=Path, default=Path("BENCH.json"))
    ap.add_argument("--about", default="")
    args = ap.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            print(f"error: no perfbench/run.py under {checkout}",
                  file=sys.stderr)
            return 2
        cache = next((checkout / "src").rglob("__pycache__"), None)
        if cache is not None:
            print(f"error: {cache} holds bytecode from an earlier run; "
                  f"remove it before timing", file=sys.stderr)
            return 2
    seconds = json.loads(
        (args.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"about": args.about,
           "host": f"{os.cpu_count()} vCPU {platform.system()}, Python "
                   f"{platform.python_version()}, PYTHONDONTWRITEBYTECODE=1",
           "runs": []}
    checkouts = {"parent": args.parent, "change": args.change}
    for pair, (workload, seed, trace) in enumerate(
            plan(args.workload, args.seeds, args.traced)):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for side in order:
            result = run_once(checkouts[side], workload, seed, seconds,
                              trace)
            out["runs"].append({"workload": workload, "seed": seed,
                                "trace": trace, "side": side, "pair": pair,
                                "first": order[0], "result": result})
            args.output.write_text(json.dumps(out, indent=1) + "\n")
            verify = result["metrics"].get("verify_s", {}).get("value")
            print(f"pair {pair} {workload} seed {seed} trace {trace} "
                  f"{side}: verify_s {verify}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
