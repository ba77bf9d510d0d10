"""Output check of every benchmark row.

For any seed, each noise realization of a row must satisfy the information
identity ``info_count == 2^{2n}(n+1)`` at its final level n and have a finite
``rel_error``, and the CSV row that ``run_grid`` returns must agree with its
first realization. For the default seed, the levels, budgets, stop index and
``info_count`` of every realization must also equal ``reference.json``, and
``rel_error`` must agree with it to ``REL_TOL`` relative.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9


def realization_key(report, problem_id: str) -> str:
    exponent = round(-math.log2(report.delta))
    return f"a{report.algorithm}/{problem_id}/e{exponent}/s{report.seed}"


def realization_record(report) -> dict:
    return {
        "levels": list(report.levels),
        "budgets": list(report.budgets),
        "stop_index": report.stop_index,
        "info_count": report.info_count,
        "rel_error": report.rel_error,
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * abs(b)


def check_row(rec, reference: dict | None) -> list:
    """Problems found in one recorded row (empty when it passes)."""
    row = rec.row
    if row["error"] is not None:
        return [f"row raised: {row['error']}"]
    if len(rec.reports) != rec.payload["repeats"]:
        return [f"{len(rec.reports)} realizations, expected "
                f"{rec.payload['repeats']}"]
    bad = []
    for report in rec.reports:
        n = report.final_level
        if report.info_count != (1 << (2 * n)) * (n + 1):
            bad.append(f"info_count {report.info_count} != 2^(2n)(n+1), n={n}")
        if not math.isfinite(report.rel_error):
            bad.append(f"rel_error {report.rel_error} not finite")
        if reference is None:
            continue
        key = realization_key(report, rec.payload["problem_id"])
        want = reference.get(key)
        if want is None:
            bad.append(f"{key}: not in the reference")
            continue
        got = realization_record(report)
        for field in ("levels", "budgets", "stop_index", "info_count"):
            if got[field] != want[field]:
                bad.append(f"{key}: {field} {got[field]} != {want[field]}")
        if not _close(got["rel_error"], want["rel_error"], REL_TOL):
            bad.append(f"{key}: rel_error {got['rel_error']!r} != "
                       f"{want['rel_error']!r}")
    first = rec.reports[0]
    mean_error = sum(r.rel_error for r in rec.reports) / len(rec.reports)
    if (row["n"], row["K_n"], row["K"], row["info_count"]) != (
            first.final_level, first.budgets[-1], first.stop_index,
            first.info_count):
        bad.append("CSV row disagrees with its first realization")
    if not _close(row["rel_error"], mean_error, 1e-12):
        bad.append(f"CSV rel_error {row['rel_error']!r} is not the mean "
                   f"{mean_error!r} of its realizations")
    return bad
