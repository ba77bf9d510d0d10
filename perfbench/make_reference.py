#!/usr/bin/env python3
"""Rewrite ``reference.json``: the outputs of every row realization of every
workload at the default seed, which ``check.py`` compares later runs against.

Run from the repository root, only when a change to semicross is meant to
change its outputs:

    python3 perfbench/make_reference.py
"""

import json
import sys

import check
import run


def main() -> int:
    pkg = run.load_package()
    seed = run.MANIFEST["seeds"]["default"]
    records = {}
    for workload in run.WORKLOADS:
        done = run.run_pass(pkg, run.workload_grids(pkg, workload, seed, None))
        for rec in done.rows:
            if rec.row["error"] is not None:
                print(f"row failed: {rec.row['error']}", file=sys.stderr)
                return 1
            for report in rec.reports:
                key = check.realization_key(report, rec.payload["problem_id"])
                records[key] = check.realization_record(report)
    check.REFERENCE.write_text(
        "{\n" + ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                           for k, v in sorted(records.items())) + "\n}\n")
    print(f"{len(records)} realizations -> {check.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
