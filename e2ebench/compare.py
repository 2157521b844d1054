"""Compare result files of a parent commit and a change.

    python -m e2ebench compare PARENT.json CHANGE.json [PARENT2.json CHANGE2.json ...]

Files alternate parent, change.  For each end-to-end metric and workload
the verdict is one of:

* ``better`` / ``worse`` — the change's median moved by more than the
  metric's bound;
* ``within bound`` — it moved by no more than the bound;
* ``unresolved`` — the run-to-run spread (interquartile range over the
  median, on either side) is wider than the bound, unless every change
  sample reads better than every parent sample, which is ``better``.

With one pair the samples are each file's repeats; with several pairs
they are each file's medians.  Given at least ten pairs the claim rule
is applied too: the change wins at least nine tenths of the pairs (ties
count for neither) and the medians differ by more than the parent's
interquartile range.  Exit code 1 when any pair of metric and workload
is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from e2ebench import stats
from e2ebench.spec import END_TO_END, Metric

CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def _better(metric: Metric, a: float, b: float) -> bool:
    """True when ``a`` reads better than ``b``."""
    return a < b if metric.better == "lower" else a > b


def verdict(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Dict[str, object]:
    p, c = statistics.median(parent), statistics.median(change)
    worsening = (c - p) / p if p else 0.0
    if metric.better == "higher":
        worsening = -worsening
    spread = max(stats.quartile_spread(parent), stats.quartile_spread(change))
    dominates = all(_better(metric, x, y) for x in change for y in parent)
    if spread > metric.bound and not dominates:
        word = "unresolved"
    elif worsening > metric.bound:
        word = "worse"
    elif worsening < -metric.bound:
        word = "better"
    else:
        word = "within bound"
    return {"verdict": word, "parent": p, "change": c, "worsening": worsening,
            "spread": spread}


def claim(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Dict[str, object]:
    """The claim rule over alternating pairs (one value per run)."""
    wins = sum(1 for p, c in zip(parent, change) if _better(metric, c, p))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gap = abs(statistics.median(change) - statistics.median(parent))
    met = wins >= CLAIM_WIN_SHARE * len(parent) and gap > q3 - q1
    return {"wins": wins, "pairs": len(parent), "gap": gap, "parent_iqr": q3 - q1,
            "met": met}


def _samples(docs: Sequence[dict], workload: str, metric: str) -> Optional[List[float]]:
    rows = [doc["workloads"].get(workload, {}).get("end_to_end", {}).get(metric)
            for doc in docs]
    if any(row is None for row in rows):
        return None
    if len(rows) == 1:
        return list(rows[0]["samples"])
    return [row["median"] for row in rows]


def compare(parents: Sequence[dict], changes: Sequence[dict]) -> List[Dict[str, object]]:
    rows = []
    workloads = [w for w in parents[0]["workloads"] if w in changes[0]["workloads"]]
    for workload in workloads:
        for metric in END_TO_END:
            parent = _samples(parents, workload, metric.name)
            change = _samples(changes, workload, metric.name)
            if not parent or not change:
                continue
            row = {"workload": workload, "metric": metric.name, "unit": metric.unit,
                   "bound": metric.bound}
            row.update(verdict(metric, parent, change))
            if len(parents) >= CLAIM_PAIRS:
                row["claim"] = claim(metric, parent, change)
            rows.append(row)
    return rows


def main(argv: Sequence[str]) -> int:
    if len(argv) < 2 or len(argv) % 2:
        print("usage: python -m e2ebench compare PARENT.json CHANGE.json "
              "[PARENT.json CHANGE.json ...]", file=sys.stderr)
        return 2
    try:
        docs = [json.loads(Path(path).read_text()) for path in argv]
    except (OSError, ValueError) as error:
        print(f"unreadable result file: {error}", file=sys.stderr)
        return 2
    rows = compare(docs[0::2], docs[1::2])
    print(f"{'workload':14s} {'metric':15s} {'parent':>11s} {'change':>11s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for row in rows:
        line = (f"{row['workload']:14s} {row['metric']:15s} {row['parent']:11.4g} "
                f"{row['change']:11.4g} {row['worsening']:+9.1%} {row['spread']:7.1%} "
                f"{row['bound']:6.0%}  {row['verdict']}")
        if "claim" in row:
            c = row["claim"]
            line += (f"  [claim {'met' if c['met'] else 'not met'}: "
                     f"{c['wins']}/{c['pairs']} wins]")
        print(line)
    worse = [row for row in rows if row["verdict"] == "worse"]
    print(f"\n{len(rows)} pair(s) of metric and workload; {len(worse)} worse")
    return 1 if worse else 0
