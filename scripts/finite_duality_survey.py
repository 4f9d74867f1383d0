#!/usr/bin/env python3
"""Survey the dualizing-involution criterion over small finite groups.

For every (family, n, q) within the scan budget, run the finite-dual suite
(build the group table, compute conjugacy classes, and check that iota(g)
is conjugate to g^-1 on every class, with a theta-symmetric conjugator
witness per class) and print one line per group.

Usage: PYTHONPATH=src python3 scripts/finite_duality_survey.py [--budget B]
"""

import argparse
import sys
import time

from simdual.finite import SCAN_BUDGET, scan_size
from simdual.report import PASS
from simdual.suites import SuiteConfig, run_suite

TARGETS = [
    ("sp", 2, 3), ("gsp", 2, 3), ("sp", 2, 5), ("gsp", 2, 5),
    ("u", 2, 3), ("gu", 2, 3),
    ("o+", 2, 3), ("o-", 2, 3), ("o+", 2, 5), ("o-", 2, 5),
    ("gl", 2, 3), ("gl", 2, 5), ("gl", 3, 3),
]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--budget", type=int, default=SCAN_BUDGET,
                    help="maximum matrix-scan size")
    args = ap.parse_args(argv)
    print(f"{'group':12s} {'order':>7s} {'classes':>7s} "
          f"{'criterion':>9s} {'seconds':>8s}")
    bad = 0
    for family, n, q in TARGETS:
        name = f"{family}({n},{q})".ljust(12)
        if scan_size(family, n, q) > args.budget:
            print(name, "  (skipped: over budget)")
            continue
        t0 = time.time()
        report = run_suite(SuiteConfig(family=family, n=n, p=q,
                                       suites=("finite-dual",)))
        build = report.rows[0]
        if build.status != PASS:
            bad += 1
            print(name, f"  (build failed: {build.detail['error']})")
            continue
        verdict = "holds" if report.passed else "FAILS"
        if not report.passed:
            bad += 1
            for row in report.rows:
                if row.counterexample:
                    c = row.counterexample
                    print(f"    class of {c['rep']}: iota-class "
                          f"{c['iota_class']}, inverse-class "
                          f"{c['inverse_class']}, conjugator "
                          f"{c['conjugator']}")
        print(name, f"{build.detail['order']:7d} "
              f"{build.detail['classes']:7d} {verdict:>9s} "
              f"{time.time()-t0:8.2f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
