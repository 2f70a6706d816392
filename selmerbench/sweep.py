"""Run the benchmark over several seeds and report each metric's spread.

Usage (from the root of a checkout)::

    python3 selmerbench/sweep.py --seeds 0-9 [--workloads cli_exact,...] [--out FILE]

Runs happen one after another, never in parallel, so they do not
compete for the cores.  For each workload and end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``), the
spread (quartile distance over median) and the bound from
``BENCHMARK.json``.  ``--out`` writes the same summary as JSON, with
the machine metadata of the first run; ``baseline.json`` is such a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    worst = 0.0
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        failed = 0
        for seed in summary["seeds"]:
            run = subprocess.run(
                [sys.executable, "selmerbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if run.returncode != 0:
                print(run.stderr, file=sys.stderr)
                return 1
            lines = run.stdout.strip().splitlines()
            record, result = json.loads(lines[-2]), json.loads(lines[-1])
            summary.setdefault("machine", record["machine"])
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"{workload}: failed ops {failed}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            worst = max(worst, spread / bounds[name])
            rows[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": series}
            print(f"  {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bounds[name]}")
        summary["workloads"][workload] = {"failed": failed, "metrics": rows}
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
