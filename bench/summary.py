"""Medians and quartiles of benchmark result files, per workload and metric.

    python3 bench/summary.py SET [SET ...]

A SET is a directory of result files written by run.py (its --out), or a
single such file.  For each workload, trace mode and metric the table
gives, per set: the number of runs, the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
(q3 - q1) / median.  It also gives each set's share of failed operations and the median and
quartiles of its rounds' speed factors (bench/speed.py): how fast the
machine ran while the set was measured.

With two or more sets, every later set's median is compared with the
first set's.  End-to-end metrics are held to their bound in
BENCHMARK.json: a spread above the bound (setup_s excepted) or a median
worse than the first set's by more than the bound is flagged, and the
command exits with status 1 if anything was flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_set(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    sets = [load_set(Path(a)) for a in argv]
    # (workload, trace) -> set index -> metric -> values; and failed shares
    values: dict = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    shares: dict = defaultdict(dict)
    factors: dict = defaultdict(lambda: defaultdict(list))
    for i, records in enumerate(sets):
        for rec in records:
            key = (rec["workload"], rec["trace"])
            summary = rec["summary"]
            for name, metric in summary["metrics"].items():
                values[key][i][name].append(metric["value"])
            factors[key][i] += [r["factor"] for r in rec["rounds"]]
            att, fail = shares[key].get(i, (0, 0))
            shares[key][i] = (att + summary["attempted"], fail + summary["failed"])
    flagged = False
    for (workload, trace), per_set in sorted(values.items()):
        print(f"\n{workload}  trace={trace}")
        for i, (att, fail) in sorted(shares[(workload, trace)].items()):
            q1, med, q3 = quartiles(factors[(workload, trace)][i])
            print(f"  set {i}: {fail}/{att} operations failed ({fail / att:.4%});"
                  f" speed factor {med:.3f} ({q1:.3f}-{q3:.3f})")
        print(f"  {'metric':28s} set  n {'median':>12s} {'q1':>12s} {'q3':>12s}  spread  change")
        names = list(dict.fromkeys(n for s in per_set.values() for n in s))
        for name in names:
            base = None
            for i in sorted(per_set):
                vals = per_set[i][name]
                q1, med, q3 = quartiles(vals)
                spread = (q3 - q1) / med if med else 0.0
                line = f"  {name:28s} {i:3d} {len(vals):2d} {med:12.6g} {q1:12.6g} {q3:12.6g}  {spread:6.1%}"
                flags = []
                bound = bounds.get(name) if not trace else None
                if base is None:
                    base = med
                else:
                    change = (med - base) / base if base else 0.0
                    line += f"  {change:+6.1%}"
                    worse = change if bound and bound["better"] == "lower" else -change
                    if bound and worse > bound["bound"]:
                        flags.append(f"worse than bound {bound['bound']:.0%}")
                if bound and name != "setup_s" and spread > bound["bound"]:
                    flags.append(f"spread above bound {bound['bound']:.0%}")
                if flags:
                    flagged = True
                    line += "  <- " + "; ".join(flags)
                print(line)
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
