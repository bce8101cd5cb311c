"""Compare two sets of run reports: `python3 bench/compare.py A B`.

A and B are each a directory of the JSON reports `run.py` writes (searched
recursively) or a `.jsonl` file with one report per line.  Only end-to-end
(`--trace 0`) reports are compared.  For every (workload, metric) it prints
each side's median and quartiles and B's change against A, then flags

* REGRESSION — B's median is worse than A's by more than the metric's bound
  in BENCHMARK.json;
* UNRESOLVED — either side's spread (quartile distance over median) is wider
  than the bound, so the pair cannot be called unchanged.

Exit code 1 if anything is flagged.  Run it on two sets from the same commit
for the A/A check; `--bounds` then prints, per metric, the widest A/A spread or
median shift seen on any workload and the bound that leaves it a threefold
margin, capped at the 0.25 a bound may be.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_reports(path: pathlib.Path) -> list[dict]:
    if path.is_dir():
        reports = [json.loads(file.read_text()) for file in sorted(path.rglob("*.json"))]
    else:
        reports = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    return [report for report in reports if report.get("trace") == 0]


def samples(reports: list[dict]) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> one value per run."""
    table: dict[tuple[str, str], list[float]] = {}
    for report in reports:
        for name, metric in report["metrics"].items():
            table.setdefault((report["workload"], name), []).append(metric["value"])
    return table


def summary(values: list[float]) -> tuple[float, float, float, float]:
    """(q1, median, q3, spread) with spread = (q3 - q1) / median."""
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / abs(median)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=pathlib.Path)
    parser.add_argument("b", type=pathlib.Path)
    parser.add_argument("--bounds", action="store_true", help="derive bounds from an A/A pair")
    args = parser.parse_args(argv)
    declared = {
        metric["name"]: metric
        for metric in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    side_a, side_b = samples(load_reports(args.a)), samples(load_reports(args.b))
    flagged = 0
    widest: dict[str, float] = {}
    print(f"{'workload':17}{'metric':16}{'A q1 / median / q3':>36}{'B q1 / median / q3':>36}"
          f"{'change':>9}{'bound':>7}  verdict")
    for key in sorted(side_a.keys() & side_b.keys()):
        workload, name = key
        spec = declared[name]
        a1, a2, a3, spread_a = summary(side_a[key])
        b1, b2, b3, spread_b = summary(side_b[key])
        change = (b2 - a2) / abs(a2)
        worse = -change if spec["better"] == "higher" else change
        verdict = "ok"
        if max(spread_a, spread_b) > spec["bound"]:
            verdict = "UNRESOLVED (spread %.1f%%)" % (100 * max(spread_a, spread_b))
        if worse > spec["bound"]:
            verdict = "REGRESSION"
        flagged += verdict != "ok"
        widest[name] = max(widest.get(name, 0.0), spread_a, spread_b, abs(change))
        print(f"{workload:17}{name:16}{a1:12.4g}{a2:12.4g}{a3:12.4g}{b1:12.4g}{b2:12.4g}{b3:12.4g}"
              f"{100 * change:+8.1f}%{100 * spec['bound']:6.0f}%  {verdict}")
    missing = sorted(side_a.keys() ^ side_b.keys())
    if missing:
        print(f"only on one side: {missing}")
        flagged += len(missing)
    if args.bounds:
        derived = {
            name: {
                "widest_spread_or_shift": spread,
                "bound": min(0.25, math.ceil(300 * spread) / 100),
            }
            for name, spread in sorted(widest.items())
        }
        print(json.dumps(derived, indent=1))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
