#!/usr/bin/env python3
"""Run-to-run agreement of the benchmark against the bounds of BENCHMARK.json.

  check.py repeat        run the untraced set twice with one seed and print, per
                         metric x workload, the relative difference beside its
                         bound; exit 1 if any difference exceeds its bound.
  check.py spread [n]    run every workload with n different seeds (default 10)
                         and print, per metric x workload, the distance between
                         the first and third quartile as a share of the median;
                         exit 1 if any but setup_s exceeds its bound.
"""
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
BOUNDS = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}


def run(workload, seed):
    """One untraced run; returns {metric: value}."""
    out = subprocess.run(
        ["bash", str(HERE / "run.sh"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", "0"],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


def table(rows, header):
    print(f"{'workload':<14} {'metric':<20} {header:>12} {'bound':>8}")
    bad = 0
    for workload, metric, value, limit, exempt in rows:
        over = value > limit and not exempt
        bad += over
        note = "  OVER" if over else ("  (above a third)" if value > limit / 3 and not exempt else "")
        print(f"{workload:<14} {metric:<20} {value:>12.4%} {limit:>8.0%}{note}")
    return bad


def repeat(seed=1):
    rows = []
    for w in WORKLOADS:
        a, b = run(w, seed), run(w, seed)
        rows += [(w, m, abs(b[m] - a[m]) / abs(a[m]), BOUNDS[m], False) for m in BOUNDS]
    return table(rows, "difference")


def spread(runs):
    rows = []
    for w in WORKLOADS:
        samples = [run(w, seed) for seed in range(1, runs + 1)]
        for m in BOUNDS:
            values = [s[m] for s in samples]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            rows.append((w, m, (q3 - q1) / median, BOUNDS[m], m == "setup_s"))
            print(f"# {w} {m} median {median:.6g} values {' '.join(f'{v:.6g}' for v in values)}")
    return table(rows, "iqr/median")


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "repeat":
        failures = repeat()
    elif mode == "spread":
        failures = spread(int(sys.argv[2]) if len(sys.argv) > 2 else 10)
    else:
        sys.exit(__doc__)
    sys.exit(1 if failures else 0)
