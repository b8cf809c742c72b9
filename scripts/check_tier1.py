#!/usr/bin/env python3
"""Run the Tier-1 test suite and pass only when it fails exactly the known set.

Tier-1 has one documented failure, acceptance criterion 08 (the v = 0
integral column, see tests/test_acceptance.py).  A plain pytest run is red
either way, so a new failure could hide behind it; this script turns the
suite into a check that is green only when the failing set is exactly
KNOWN_FAILURES.  A test that starts passing also fails the check, so the
list gets updated when criterion 08 is settled.

    python3 scripts/check_tier1.py      # from the repository root

Exit status: 0 when the failing set matches, 1 otherwise (also when pytest
produced no report).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
KNOWN_FAILURES = {"tests.test_acceptance::test_criterion_08_integral_S"}


def failing_tests(report: str) -> tuple[set[str], int]:
    """(ids of the failed or errored test cases, number of test cases) in a JUnit XML report."""
    cases = ET.parse(report).getroot().iter("testcase")
    failed, total = set(), 0
    for case in cases:
        total += 1
        if case.find("failure") is not None or case.find("error") is not None:
            failed.add(f"{case.get('classname')}::{case.get('name')}")
    return failed, total


def main() -> int:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "tier1.xml")
        subprocess.run([sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
                        f"--junitxml={report}"], cwd=ROOT, env=env, check=False)
        if not os.path.exists(report):
            print("check_tier1: pytest wrote no report", file=sys.stderr)
            return 1
        failed, total = failing_tests(report)
    unexpected = sorted(failed - KNOWN_FAILURES)
    now_passing = sorted(KNOWN_FAILURES - failed)
    for name in unexpected:
        print(f"check_tier1: unexpected failure: {name}", file=sys.stderr)
    for name in now_passing:
        print(f"check_tier1: known failure no longer fails: {name}", file=sys.stderr)
    ok = not unexpected and not now_passing
    print(f"check_tier1: {total} tests, {len(failed)} failed, "
          f"{'matches' if ok else 'does not match'} the known-failure set")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
