#!/usr/bin/env python3
"""Run the steps of the CI workflow locally, in order.

Reads ``.github/workflows/tests.yml`` without a YAML library: a step is a
``- name:`` line followed by either a one-line ``run:`` or a ``run: |``
block.  The dependency install step (``pip install``) is skipped; every
other step runs under ``bash -e`` from the repository root, with
``RUNNER_TEMP`` set to a fresh temporary directory.  Prints one
``PASS <name>`` or ``FAIL <name>`` line per step, a failing step's output
first on standard error, and exits 1 if any step failed.

Usage: python3 scripts/ci_steps.py
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def parse_steps(text: str) -> list:
    """[(name, script)] for every named step of the workflow ``text``; a
    step without ``run:`` gets the script None."""
    steps = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        i += 1
        if line.strip().startswith("- name:"):
            steps.append([line.split(":", 1)[1].strip(), None])
        elif steps and line.strip().startswith("run:"):
            value = line.split(":", 1)[1].strip()
            if value != "|":
                steps[-1][1] = value
                continue
            indent = len(line) - len(line.lstrip())
            block = []
            while i < len(lines) and (not lines[i].strip() or len(
                    lines[i]) - len(lines[i].lstrip()) > indent):
                block.append(lines[i])
                i += 1
            margin = min(len(b) - len(b.lstrip()) for b in block if b.strip())
            steps[-1][1] = "\n".join(b[margin:] for b in block) + "\n"
    return [tuple(step) for step in steps]


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    failed = 0
    with tempfile.TemporaryDirectory() as runner_temp:
        env = dict(os.environ, RUNNER_TEMP=runner_temp)
        for name, script in parse_steps(WORKFLOW.read_text()):
            if script is None or "pip install" in script:
                continue
            done = subprocess.run(["bash", "-e", "-c", script], cwd=ROOT,
                                  env=env, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode:
                failed += 1
                sys.stderr.write(done.stdout)
            print(f"{'FAIL' if done.returncode else 'PASS'} {name}",
                  flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
