"""Record the verdict fingerprints that the benchmark checks against.

    python3 perfbench/record_reference.py [workload ...]

rewrites perfbench/reference/<workload>.json.gz for the named workloads (all
three by default) from the koethe sources in this checkout.  Run it only
when a change is meant to alter verdicts, and say so in CHANGES.md.  The
tameness family pool takes a few minutes.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

import run

run.import_koethe()

import workloads  # noqa: E402


def record_tameness() -> dict:
    bench = workloads.TamenessFamily(0, Path("."))
    out = {}
    for family_seed in workloads.FAMILY_POOL:
        bench.family = workloads.family_spec(family_seed)
        out.update(_fingerprints(bench.run_pass(0)))
        print(f"tameness family {family_seed} recorded", file=sys.stderr)
    return out


def record_grid() -> dict:
    bench = workloads.CrossValidationGrid(0, Path("."))
    return _fingerprints(bench.run_pass(0))


def record_cli() -> dict:
    workdir = run.WORK / "record"
    try:
        bench = workloads.CliBatch(0, workdir)
        result = bench.run_pass(0)
        if result.problems:
            raise SystemExit(f"cli batch problems: {result.problems}")
        return _fingerprints(result)
    finally:
        run.remove_workdir(workdir)


def _fingerprints(result: workloads.Pass) -> dict:
    errors = [(key, error) for key, _, error in result.results if error]
    if errors:
        raise SystemExit(f"decisions failed while recording: {errors[:3]}")
    return {key: fp for key, fp, _ in result.results}


RECORDERS = {"tameness_family": record_tameness, "xval_grid": record_grid,
             "cli_batch": record_cli}


def main(names) -> None:
    for name in names or RECORDERS:
        doc = {"environment": run.environment(seed=None),
               "log_tolerance": workloads.LOG_TOL,
               "decisions": RECORDERS[name]()}
        text = json.dumps(doc, sort_keys=True, indent=0) + "\n"
        with (open(workloads.reference_path(name), "wb") as raw,
              gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh):
            fh.write(text.encode())
        print(f"{name}: {len(doc['decisions'])} decisions", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1:])
