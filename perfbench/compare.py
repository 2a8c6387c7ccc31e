#!/usr/bin/env python3
"""Compare two sets of benchmark run records (``perfbench/out/*.json``).

Usage::

    python3 perfbench/compare.py BASELINE_DIR CANDIDATE_DIR

For every workload and end-to-end metric it prints both medians and
quartiles and the change, judged against the metric's bound in
``BENCHMARK.json``: ``worse`` past the bound, ``unresolved`` when the
baseline's own spread is wider than the bound, ``ok`` otherwise.  A
workload whose host fingerprint or resolved configuration (algebra
backend included) differs between the two sets is flagged NOT COMPARABLE,
and the exit code is 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs.setdefault(record["workload"], []).append(record)
    return runs


def identity(records: list[dict]) -> set[str]:
    return {
        json.dumps([r["fingerprint"], r["config"]], sort_keys=True) for r in records
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base, cand = (load(Path(arg)) for arg in argv)
    status = 0
    for workload in sorted(set(base) & set(cand)):
        comparable = identity(base[workload]) == identity(cand[workload]) and len(
            identity(base[workload])
        ) == 1
        print(f"== {workload}: {len(base[workload])} vs {len(cand[workload])} runs"
              + ("" if comparable else "  NOT COMPARABLE (fingerprint or configuration differs)"))
        if not comparable:
            status = 1
            for label, records in (("baseline", base[workload]), ("candidate", cand[workload])):
                for ident in sorted(identity(records)):
                    print(f"   {label}: {ident}")
        for name, meta in metrics.items():
            b = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            c = [r["metrics"][name] for r in cand[workload] if name in r["metrics"]]
            if not b or not c:
                continue
            bq1, bmed, bq3 = summary(b)
            _, cmed, _ = summary(c)
            sign = 1 if meta["better"] == "lower" else -1
            worse_by = sign * (cmed - bmed) / bmed if bmed else 0.0
            spread = (bq3 - bq1) / bmed if bmed else 0.0
            if spread > meta["bound"]:
                verdict = "unresolved"
            elif worse_by > meta["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            print(f"   {name:22s} {bmed:12.5g} -> {cmed:12.5g} {meta['unit']:6s}"
                  f" worse_by={worse_by:+.3f} bound={meta['bound']} {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
