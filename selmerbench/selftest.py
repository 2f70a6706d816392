"""Self-test of the benchmark's tracer and output checks.

Usage (from the root of a checkout)::

    python3 selmerbench/selftest.py

For every workload it runs a short paired pass (each op once untraced
and once traced) and requires identical outputs (CLI artifact bytes,
sampled residuals, appended-step triples); then it corrupts one op
result and requires the run to count exactly that op as failed.  It
also requires a paired pass to fail ops whose two outputs differ.
Exits 1 on the first violated expectation.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402  (sets up nothing at import)

sys.path.insert(0, str(run.SRC))
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def corrupt(name, output):
    """A wrong result of the kind each workload's check must catch."""
    if name == "cli_exact":
        code, text = output
        payload = json.loads(text)
        payload["footer"] = {k: v + 1.0 for k, v in payload["footer"].items()}
        return code, json.dumps(payload)
    if name == "sampled_fan":
        return output + 1.0
    measured, bound, mc = output
    return measured + 1.0, bound, mc


def expect(condition, message):
    if not condition:
        print(f"FAIL {message}")
        sys.exit(1)
    print(f"ok   {message}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        for name, cls in WORKLOADS.items():
            workload = cls(0, Path(tmp))
            workload.make_inputs()
            workload.warm_up()
            tracer = Tracer()
            paired = run.paired_pass(workload, 0.5, tracer)
            expect(not paired["failures"],
                   f"{name}: no failed ops, and {paired['ops']} op outputs identical "
                   "with the tracer on and off")
            expect(len(paired["traced"]) == len(paired["untraced"]) == paired["ops"],
                   f"{name}: every op ran once traced and once untraced")
            expect(tracer.spans and not tracer._saved,
                   f"{name}: {len(tracer.spans)} spans recorded, bindings restored")

            honest = workload.run
            workload.run = lambda op_id, op: (
                corrupt(name, honest(op_id, op)) if op_id == 0 else honest(op_id, op))
            bad = run.run_pass(workload, 0.5)
            workload.run = honest
            expect([f["op_id"] for f in bad["failures"]] == [0],
                   f"{name}: a corrupted op result counts as exactly one failure")

        step = WORKLOADS["appended_step"](0, Path(tmp))
        step.make_inputs()
        honest, calls = step.run, []

        def drifting(op_id, op):
            measured, bound, mc = honest(op_id, op)
            calls.append(op_id)
            return measured - calls.count(op_id), bound, mc  # still passes its check

        step.run = drifting
        drift = run.paired_pass(step, 0.1, Tracer())
        expect({f["op_id"] for f in drift["failures"]} == set(range(drift["ops"])),
               "appended_step: an op whose traced and untraced outputs differ fails")

        cli = WORKLOADS["cli_exact"](0, Path(tmp))
        cli.make_inputs()
        argv = cli.mix[0]
        code, text = cli.run(0, argv)
        expect(cli.check(argv, (code, text)) is None, "cli_exact: first artifact passes")
        expect(cli.check(argv, (code, text.replace("1", "2", 1))) is not None,
               "cli_exact: an artifact differing from its first occurrence fails")
        expect(cli.check(argv, (1, text)) is not None, "cli_exact: a non-zero exit fails")
    return 0


if __name__ == "__main__":
    sys.exit(main())
