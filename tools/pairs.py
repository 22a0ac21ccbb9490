"""Alternating benchmark pairs of two trees, with the 9-of-10 rule.

    python3 tools/pairs.py PARENT CHANGE --workload ritt --seed 1 [--pairs 10]

PARENT and CHANGE are the roots of two checkouts.  Each pair runs
bench/run.py once in each tree, the parent first in odd pairs and the
change first in even ones, so that a drift of the host falls on both
sides alike.  Each run lasts the run_seconds of this repository's
BENCHMARK.json.  Only the JSON object on the last line of each run's
stdout is read; nothing under bench/ and no BENCHMARK.json is written.

For each end-to-end metric the report prints every run of both trees, the
median and the quartiles (statistics.quantiles, exclusive method), the
pairs the change won, and whether the rule holds: the change is better in
at least nine tenths of the pairs, and its median is better than the
parent's by more than the distance between the parent's quartiles.
"Better" is the direction that the end_to_end list of this repository's
BENCHMARK.json gives for the metric.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> tuple:
    """The run length and each end-to-end metric's better direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (spec["run_seconds"],
            {m["name"]: m["better"] for m in spec["end_to_end"]})


def _run(tree: Path, args, seconds) -> dict:
    """The metric values of one bench/run.py run in tree."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("pairs: run in %s failed (exit %d): %s"
                 % (tree, proc.returncode, proc.stderr.strip()[-2000:]))
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _report(name: str, better: str, parent: list, change: list) -> str:
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    med_p, med_c = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    holds = (wins >= math.ceil(0.9 * len(parent))
             and sign * (med_c - med_p) > q3 - q1)
    fmt = "%.4g"

    def runs(values):
        return " ".join(fmt % v for v in values)

    def spread(med, lo, hi):
        return "          median %s, quartiles %s-%s" % (
            fmt % med, fmt % lo, fmt % hi)
    rel = (med_c - med_p) / med_p if med_p else float("nan")
    return "\n".join([
        "%s (%s is better)" % (name, better),
        "  parent: %s" % runs(parent),
        spread(med_p, q1, q3),
        "  change: %s" % runs(change),
        spread(med_c, *_quartiles(change)),
        "  change wins %d of %d pairs, median %+.1f%%; 9/10 rule %s"
        % (wins, len(parent), 100 * rel, "holds" if holds else "fails"),
    ])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    seconds, directions = _spec()

    runs = {"parent": [], "change": []}
    for i in range(1, args.pairs + 1):
        order = ("parent", "change") if i % 2 else ("change", "parent")
        for side in order:
            tree = args.parent if side == "parent" else args.change
            runs[side].append(_run(tree, args, seconds))
            print("pair %d %s done" % (i, side), file=sys.stderr, flush=True)
    print("%s seed %d, %d pairs of %g s runs"
          % (args.workload, args.seed, args.pairs, seconds))
    for name, better in directions.items():
        parent = [r[name] for r in runs["parent"] if name in r]
        change = [r[name] for r in runs["change"] if name in r]
        if parent and len(parent) == len(change):
            print(_report(name, better, parent, change))
    return 0


if __name__ == "__main__":
    sys.exit(main())
