"""selmerlab benchmark: one workload, one seed, one run.

Usage (from the root of a checkout)::

    python3 selmerbench/run.py --workload cli_exact --seed 0 --seconds 20 --trace 0

The workload is a closed loop with one client, single process and
single thread.  Set-up (import, inputs from the seed, warm-up ops that
fill selmerlab's caches) is timed several times and reported as its
median.  The timed loop then runs whole cycles of the workload's op mix
until ``--seconds`` have passed, checking every op's output.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the run measures every op twice with the same op id,
once untraced and once traced, requires identical outputs from both,
and reports the per-layer metrics read from the tracer's spans (see
README.md).  Details (tail percentile, op counts, machine and
version metadata) go to the line before it and to ``selmerbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from hashlib import sha256
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 21

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import selmerlab; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Import time of selmerlab (numpy included) in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(probe.stdout.strip())


def clear_caches() -> None:
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "selmerlab" or name.startswith("selmerlab.")):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


def set_up(workload) -> list[float]:
    """Run the whole set-up SETUP_REPEATS times; return each one's seconds."""
    samples = []
    for _ in range(SETUP_REPEATS):
        seconds = import_seconds()
        clear_caches()
        start = perf_counter()
        workload.make_inputs()
        workload.warm_up()
        gc.collect()
        samples.append(seconds + perf_counter() - start)
    return samples


def run_op(workload, op_id, op):
    """Run and check one op; return (output, latency, failure reason or None)."""
    began = perf_counter()
    try:
        output = workload.run(op_id, op)
    except Exception as exc:  # an op that raises is a failed op
        return None, perf_counter() - began, f"raised {exc!r}"
    latency = perf_counter() - began
    try:
        reason = workload.check(op, output)
    except Exception as exc:  # malformed output fails its check
        reason = f"check raised {exc!r}"
    return output, latency, reason


def run_pass(workload, seconds):
    """Whole cycles until ``seconds`` have passed; ops are numbered from 0."""
    latencies, failures = [], []
    op_id = cycle = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in workload.cycle(cycle):
            _, latency, reason = run_op(workload, op_id, op)
            latencies.append(latency)
            if reason is not None:
                failures.append({"op_id": op_id, "op": repr(op), "reason": reason})
            op_id += 1
        cycle += 1
    return {"latencies": latencies, "failures": failures,
            "wall_s": perf_counter() - start, "cycles": cycle}


def paired_pass(workload, seconds, tracer):
    """Whole cycles until ``seconds`` have passed; every op runs twice with
    the same op id, once untraced and once with the tracer installed.

    Which run goes first alternates from op to op, so both sides see the
    same host drift and, on average, the same cache state.  An op whose
    two outputs differ is a failed op.
    """
    latencies = {False: [], True: []}
    failures = []
    op_id = cycle = 0
    start = perf_counter()
    while perf_counter() - start < seconds:
        for op in workload.cycle(cycle):
            tracer.op = op_id
            passed = []
            for traced in (False, True) if op_id % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                try:
                    output, latency, reason = run_op(workload, op_id, op)
                finally:
                    tracer.restore()
                latencies[traced].append(latency)
                if reason is None and passed and passed[0] != output:
                    reason = "output differs between the untraced and traced runs"
                if reason is None:
                    passed.append(output)
                else:
                    failures.append({"op_id": op_id, "op": repr(op), "traced": traced,
                                     "reason": reason})
            op_id += 1
        cycle += 1
    tracer.op = None
    return {"latencies": latencies[False] + latencies[True],
            "untraced": latencies[False], "traced": latencies[True],
            "failures": failures, "ops": op_id, "wall_s": perf_counter() - start,
            "cycles": cycle}


def tail(latencies, percentile):
    """Nearest-rank latency at ``percentile`` and the number of ops above it."""
    ordered = sorted(latencies)
    rank = max(1, math.ceil(percentile / 100.0 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(result, setup_samples, percentile):
    tail_s, beyond = tail(result["latencies"], percentile)
    n = len(result["latencies"])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "op_p50_s": (statistics.median(result["latencies"]), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (n / result["wall_s"], "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {"ops": n, "tail_percentile": percentile, "ops_beyond_tail": beyond,
               "cycles": result["cycles"],
               "wall_s": result["wall_s"], "setup_samples_s": setup_samples}
    return metrics, details


def _ratio(totals, num, den):
    return totals[num] / totals[den] if totals.get(den) else 0.0


def per_layer(tracer, result):
    """The per-layer metrics BENCHMARK.json lists, read from the spans.

    A metric named after a tracer total is that total per traced op, or
    per set-up when its unit is ``1/setup`` or ``s/setup``.
    """
    n = result["ops"]
    totals = tracer.totals(range(n))
    setup_totals = tracer.totals([tracer.SETUP])
    traced_s, untraced_s = sum(result["traced"]), sum(result["untraced"])
    derived = {
        "fans.sample_levels.acceptance": _ratio(
            totals, "fans.sample_levels.levels", "fans.level_membership.calls"),
        "twists.simulate_walks.walk_steps_per_s": _ratio(
            totals, "twists.simulate_walks.walk_steps", "twists.simulate_walks.total_s"),
        "tracer.slowdown": traced_s / untraced_s,
    }
    metrics = {}
    for spec in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]:
        name, unit = spec["name"], spec["unit"]
        if name in derived:
            value = derived[name]
        elif unit.endswith("/setup"):
            value = setup_totals.get(name, 0) / SETUP_REPEATS
        else:
            value = totals.get(name, 0) / n
        metrics[name] = (value, unit)
    shares = {
        key[: -len(".self_s")]: value / traced_s
        for key, value in sorted(totals.items(), key=lambda kv: -kv[1])
        if key.endswith(".self_s")
    }
    details = {"ops": n, "cycles": result["cycles"], "traced_op_s": traced_s,
               "untraced_op_s": untraced_s, "self_time_share": shares}
    return metrics, details


def git_commit():
    """HEAD of the checkout, or None outside a git working tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def machine():
    import numpy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = sha256()
    for path in sorted((SRC / "selmerlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "selmerlab" / "__init__.py").is_file():
        print(f"error: no selmerlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import selmerlab

    if Path(selmerlab.__file__).resolve().parent != SRC / "selmerlab":
        print(f"error: imported selmerlab from {selmerlab.__file__}", file=sys.stderr)
        return 2
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            setup_samples = set_up(workload)
            if tracer is None:
                result = run_pass(workload, args.seconds)
                metrics, details = end_to_end(result, setup_samples,
                                              workload.tail_percentile)
            else:
                tracer.restore()
                result = paired_pass(workload, args.seconds, tracer)
                metrics, details = per_layer(tracer, result)
                tracer.dump(OUT / f"{stem}-spans.json")
        finally:
            if tracer is not None:
                tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(result["latencies"])
    failures = result["failures"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), **details,
        "error_rate": len(failures) / attempted, "failures": failures[:20],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({key: record[key] for key in record if key != "metrics"}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
