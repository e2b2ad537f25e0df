"""Show that the correctness gate catches a wrong verdict.

    python3 perfbench/gate_check.py

runs four cross-validation grid cases, checks them against the recorded
reference (no failures expected), then against a copy of the reference in
which one case has a flipped theorem outcome and another a changed witness
index.  Exits 0 only when exactly those two cases are flagged.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import run

run.import_koethe()

import workloads  # noqa: E402


def main() -> int:
    grid = workloads.load_reference("xval_grid")
    cases = workloads.grid_cases()
    flipped = next(key for key, _, _ in cases
                   if grid[key]["theorem.outcome"] == "holds")
    witnessed = next(key for key, _, _ in cases
                     if "theorem.witness.k" in grid[key])
    plain = [key for key, _, _ in cases if key not in (flipped, witnessed)][:2]
    chosen = {flipped, witnessed, *plain}
    bench = workloads.CrossValidationGrid(0, Path("."))
    bench.orders = [[case for case in cases if case[0] in chosen]]
    result = bench.run_pass(0)

    _, failed, failures = workloads.judge(result, grid)
    print(f"recorded reference: {failed} of {len(chosen)} flagged {failures}")
    ok = failed == 0

    altered = copy.deepcopy(grid)
    altered[flipped]["theorem.outcome"] = "fails_on_window"
    altered[witnessed]["theorem.witness.k"] += 1
    _, failed, failures = workloads.judge(result, altered)
    print(f"altered reference: {failed} of {len(chosen)} flagged")
    for key, reasons in failures:
        print(f"  {key}: {reasons}")
    ok = ok and failed == 2 and {key for key, _ in failures} == {flipped, witnessed}
    print("gate check:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
