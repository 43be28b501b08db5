#!/usr/bin/env python3
"""Compare two ledger result files: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two runs of the same
code); B is what is being judged.  One row per workload x end-to-end
metric gives both medians with their quartiles and the ratio B/A.

* **worse** -- B's median is worse than A's by more than the metric's
  bound, and the runs do not leave that in doubt;
* **unresolved** -- A's own inter-quartile spread is wider than the
  bound and the two sets of runs overlap, so the pair cannot show
  "unchanged" either way;
* **ok** -- otherwise.

Deterministic values are compared exactly: the ``xval_*`` accuracy
metrics (*worse* if the error grew, *changed* if it shrank), the
per-cell physics digests, and the failed share ``ops_failed /
ops_attempted``.  Exit status is non-zero on any *worse*, any digest
mismatch, or a larger failed share.  ``--json PATH`` also writes the
rows (this is how ``baselines/noise_13.json`` was made, from two
back-to-back runs of one commit).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def load(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B's value is than A's, as a share of A's."""
    if a == 0:
        return 0.0 if b == a else float("inf")
    return (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)


def metric_row(workload: str, name: str, a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    better, bound = a["better"], a["bound"]
    worse_by = worsening(a["median"], b["median"], better)
    row = {
        "workload": workload,
        "metric": name,
        "unit": a["unit"],
        "better": better,
        "bound": bound,
        "a": {k: a[k] for k in ("median", "q1", "q3", "n")},
        "b": {k: b[k] for k in ("median", "q1", "q3", "n")},
        "ratio_b_over_a": b["median"] / a["median"] if a["median"] else float("nan"),
        "worse_by": worse_by,
    }
    if bound == 0:  # deterministic: compared exactly
        row["status"] = "ok" if a["values"] == b["values"] else ("worse" if worse_by > 0 else "changed")
        return row
    spread = (a["q3"] - a["q1"]) / abs(a["median"]) if a["median"] else 0.0
    row["a_spread"] = spread
    if better == "lower":
        b_all_worse = min(b["values"]) > max(a["values"])
        b_all_better = max(b["values"]) < min(a["values"])
    else:
        b_all_worse = max(b["values"]) < min(a["values"])
        b_all_better = min(b["values"]) > max(a["values"])
    if spread > bound and not (b_all_worse or b_all_better):
        row["status"] = "unresolved"
    elif worse_by > bound:
        row["status"] = "worse"
    else:
        row["status"] = "ok"
    return row


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    rows: List[Dict[str, Any]] = []
    checks: List[Dict[str, Any]] = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            checks.append({"workload": workload, "check": "present", "status": "worse",
                           "detail": "workload missing from B"})
            continue
        for name, stats_a in entry_a.get("end_to_end", {}).items():
            stats_b = entry_b.get("end_to_end", {}).get(name)
            if stats_b is None:
                checks.append({"workload": workload, "check": name, "status": "worse",
                               "detail": "metric missing from B"})
                continue
            rows.append(metric_row(workload, name, stats_a, stats_b))

        share_a = entry_a["ops_failed"] / entry_a["ops_attempted"]
        share_b = entry_b["ops_failed"] / entry_b["ops_attempted"]
        checks.append({
            "workload": workload,
            "check": "ops_failed/ops_attempted",
            "status": "worse" if share_b > share_a else "ok",
            "detail": f"{entry_a['ops_failed']}/{entry_a['ops_attempted']} -> "
                      f"{entry_b['ops_failed']}/{entry_b['ops_attempted']}",
        })
        digests_a, digests_b = entry_a.get("digests", {}), entry_b.get("digests", {})
        moved = sorted(k for k in digests_a if digests_b.get(k) != digests_a[k])
        same_inputs = a.get("seed") == b.get("seed")
        checks.append({
            "workload": workload,
            "check": "physics digests",
            "status": "worse" if moved and same_inputs else "ok",
            "detail": (f"{len(moved)} of {len(digests_a)} cells differ"
                       + (f" (first: {moved[0]})" if moved else "")
                       + ("" if same_inputs else "; seeds differ, not compared")),
        })
    failed = any(r["status"] == "worse" for r in rows + checks)
    return {"a_seed": a.get("seed"), "b_seed": b.get("seed"), "rows": rows,
            "checks": checks, "exit": 1 if failed else 0}


def render(report: Dict[str, Any]) -> str:
    lines = [
        f"{'workload':<16}{'metric':<22}{'A median [q1, q3]':<46}{'B median [q1, q3]':<46}"
        f"{'B/A':>8}  {'bound':>6}  status"
    ]

    def cell(stats: Dict[str, Any], unit: str) -> str:
        return f"{stats['median']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}] {unit} n={stats['n']}"

    for row in report["rows"]:
        bound = "exact" if row["bound"] == 0 else f"{100 * row['bound']:.0f}%"
        lines.append(
            f"{row['workload']:<16}{row['metric']:<22}{cell(row['a'], row['unit']):<46}"
            f"{cell(row['b'], row['unit']):<46}{row['ratio_b_over_a']:>8.4f}  {bound:>6}  {row['status']}"
        )
    for check in report["checks"]:
        lines.append(f"{check['workload']:<16}{check['check']:<22}{check['detail']:<68}  {check['status']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base results (ledger JSON)")
    parser.add_argument("b", help="results being judged (ledger JSON)")
    parser.add_argument("--json", help="also write the comparison rows here")
    args = parser.parse_args(argv)
    report = compare(load(args.a), load(args.b))
    print(render(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return report["exit"]


if __name__ == "__main__":
    sys.exit(main())
