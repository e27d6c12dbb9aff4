"""Compare two sets of suite runs, metric by metric.

    python3 benchmarks/suite/compare.py A.json B.json

``A.json`` and ``B.json`` are ``run.py --out`` files (use ``--repeat``
for several runs per workload).  One row per (workload, end-to-end
metric): both medians, the change of B against A, the metric's bound,
and a verdict —

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regressed``   it is;
* ``unresolved``  the run-to-run spread (interquartile range over the
  median) of either side is wider than the bound, so the comparison
  cannot tell: fix the bound or the run length, do not waive it.

``failed_share`` is bounded absolutely (+0.01), every other metric
relative to A's median.  Exits non-zero on any ``regressed`` row or a
higher ``failed_share``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]


def bounds() -> dict[str, tuple[str, float]]:
    """name -> (better, bound): BENCHMARK.json first, then the suite's own."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    sys.path.insert(0, str(SUITE_DIR))
    from metrics import END_TO_END

    table = {
        name: (better, bound)
        for name, (_unit, better, bound) in END_TO_END.items()
    }
    contract = REPO_ROOT / "BENCHMARK.json"
    if contract.is_file():
        for entry in json.loads(contract.read_text())["end_to_end"]:
            table[entry["name"]] = (entry["better"], entry["bound"])
    return table


def samples(path: str) -> dict[tuple[str, str], list[float]]:
    """(workload, metric) -> the values of every run in the file."""
    with open(path, encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    table: dict[tuple[str, str], list[float]] = {}
    for run in runs:
        for name, value in run["end_to_end"].items():
            if value is not None:
                table.setdefault((run["workload"], name), []).append(value)
    return table


def spread(values: list[float]) -> float:
    """Interquartile range over the median (0 with fewer than 4 runs)."""
    if len(values) < 4:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (third - first) / abs(middle) if middle else 0.0


def verdict(
    name: str, better: str, bound: float, a: list[float], b: list[float]
) -> tuple[float, str]:
    """(change of B against A, verdict) for one row.

    The change is signed so that positive means *worse*.
    """
    median_a, median_b = statistics.median(a), statistics.median(b)
    if name == "failed_share":
        worse = median_b - median_a
    elif median_a == 0:
        worse = 0.0 if median_b == 0 else float("inf")
    else:
        worse = (median_b - median_a) / abs(median_a)
        if better == "higher":
            worse = -worse
    if name != "failed_share" and max(spread(a), spread(b)) > bound:
        return worse, "unresolved"
    return worse, "regressed" if worse > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    table = bounds()
    side_a, side_b = samples(argv[0]), samples(argv[1])
    status = 0
    print(
        f"{'workload':<16} {'metric':<20} {'A median':>12} {'B median':>12} "
        f"{'worse by':>9} {'bound':>6}  verdict"
    )
    for key in sorted(side_a):
        if key not in side_b:
            continue
        workload, name = key
        better, bound = table[name]
        worse, word = verdict(name, better, bound, side_a[key], side_b[key])
        if word == "regressed":
            status = 1
        print(
            f"{workload:<16} {name:<20} "
            f"{statistics.median(side_a[key]):>12.5g} "
            f"{statistics.median(side_b[key]):>12.5g} "
            f"{worse:>+9.3f} {bound:>6.2f}  {word}"
        )
    missing = sorted(set(side_a) ^ set(side_b))
    for workload, name in missing:
        print(f"{workload:<16} {name:<20} present on one side only")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
