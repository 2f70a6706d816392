"""The benchmark workloads: inputs from a seed, ops, output checks.

Every workload is a closed loop with one client: the runner calls
``run`` for the next op only after the previous one returned.  Ops come
in cycles (``cycle``); a cycle is the whole op mix in a seeded order, so
a run that measures whole cycles always measures the same mix.  Every
input an op sees is a function of the workload seed and the op id, so
two passes over the same op ids produce the same outputs.

``check`` returns None for a correct output and a reason otherwise.
The tolerances are the acceptance references of the test suite.

``tail_percentile`` is fixed per workload, so runs that complete
different numbers of ops still compare the same statistic.  For the
two mixes of a few slow ops it is the highest percentile that keeps at
least ten ops above it in a run at the benchmark's run length on the
commit that added it, and it sits inside one op class of the mix, not
on the boundary between two.  ``appended_step`` runs about ten thousand
ops, where the eleventh slowest is set by host pauses rather than by
the ops, so it uses p99, with about a hundred ops above it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

import selmerlab as sl
from selmerlab import cli
from selmerlab.fans import FanSpec

RATE = sl.ConvergenceRate("power", 1.0, 2.0)

# Reference line of the p = 2 mean rank (criterion 02) and its tolerance.
AVG_RANK_INTERCEPT, AVG_RANK_SLOPE, AVG_RANK_TOL = 1.2646, 0.1211, 5e-4


def delta02_places():
    """Criterion 10's disparity table: delta = (1/2)(1/2)(4/5) = 0.2."""
    trivial = {"h_parity": 0, "delta_value": 1}
    flipped = {"h_parity": 0, "delta_value": -1}
    return [
        {"id": "a", "characters": [trivial] * 3 + [flipped]},
        {"id": "b", "characters": [trivial] * 9 + [flipped]},
    ]


class CliExact:
    """In-process ``selmer-lab`` invocations of all six subcommands, exact paths.

    The op is the argv list; the output is (exit code, artifact text).
    """

    name = "cli_exact"
    tail_percentile = 90.0  # the avg-rank -p 3 class

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first: dict[tuple, str] = {}

    def _write(self, name: str, data) -> str:
        path = self.workdir / name
        path.write_text(json.dumps(data))
        return str(path)

    def make_inputs(self) -> None:
        rng = np.random.default_rng([self.seed, 0])
        places = delta02_places()
        for place in places:
            rng.shuffle(place["characters"])
        rng.shuffle(places)
        table = self._write("table.json", {"rank_of_trivial": 0, "places": places})
        initial = ",".join(repr(float(w)) for w in rng.dirichlet(np.ones(4)))
        fan_seeds = [int(s) for s in rng.integers(0, 2**31, size=3)]
        exact = {"X": 10.0, "mode": "exact"}
        criterion10 = self._write(
            "fan_table.json",
            {**exact, "m": 20, "k": 40, "levels": 5, "table": table, "seed": fan_seeds[0]},
        )
        plain = [
            self._write(
                f"fan_{m}_{k}.json",
                {**exact, "m": m, "k": k, "levels": 200, "stream": {"X": 2e4},
                 "seed": fan_seed},
            )
            for (m, k), fan_seed in zip(((2, 3), (6, 9)), fan_seeds[1:])
        ]
        self.warm_spec = self._write(
            "fan_warm.json", {**exact, "m": 2, "k": 3, "levels": 1, "seed": fan_seeds[1]}
        )
        mix = [["constants", "-p", str(p)] for p in (2, 3, 7, 101)]
        mix += [["equilibrium", "-p", str(p)] for p in (2, 3, 7, 101)]
        mix += [["iterate", "--initial", initial]]
        mix += [["disparity", table]]
        mix += [["avg-rank", "-p", str(p)] for p in (2, 3, 7)]
        mix += [["fans", criterion10], ["fans", plain[0]], ["fans", plain[1]]]
        self.mix = [tuple(argv) + ("--format", "json") for argv in mix]

    def warm_up(self) -> None:
        # The fans op fills the exact step-kernel cache; constants warms the CLI.
        self.run(0, ("constants", "-p", "2", "--format", "json"))
        self.run(0, ("fans", self.warm_spec, "--format", "json"))

    def cycle(self, index: int):
        order = np.random.default_rng([self.seed, 1, index]).permutation(len(self.mix))
        return [self.mix[j] for j in order]

    def run(self, op_id: int, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        return code, out.getvalue()

    def check(self, argv, output):
        code, text = output
        if code != 0:
            return f"exit code {code}"
        first = self.first.setdefault(argv, text)
        if text != first:
            return "artifact differs from its first occurrence in the run"
        return self._check_footer(argv, json.loads(text)["footer"])

    @staticmethod
    def _check_footer(argv, footer):
        def near(value, target, tol):
            return abs(value - target) < tol

        command = argv[0]
        if command == "constants":
            ok = near(footer["sum_even"], 1, 1e-10) and near(footer["sum_odd"], 1, 1e-10)
        elif command == "equilibrium":
            ok = (near(footer["sum_e_plus"], 1, 1e-10)
                  and near(footer["sum_e_minus"], 1, 1e-10)
                  and footer["fixed_point_gap"] < 1e-10)
        elif command == "iterate":
            ok = footer["final_distance"] < 1e-6
        elif command == "disparity":
            expected = AVG_RANK_INTERCEPT + AVG_RANK_SLOPE * 0.2
            ok = (near(footer["delta"], 0.2, 1e-12)
                  and near(footer["average_rank"], expected, 1.2 * AVG_RANK_TOL))
        elif command == "avg-rank":
            # Mean rank is affine in delta, so the fit must pass through
            # the value at 1/2; p = 2 also has the paper's reference line.
            ok = near(footer["value_at_half"],
                      footer["intercept"] + 0.5 * footer["slope"], 1e-10)
            if argv[2] == "2":
                ok = (ok and near(footer["intercept"], AVG_RANK_INTERCEPT, AVG_RANK_TOL)
                      and near(footer["slope"], AVG_RANK_SLOPE, AVG_RANK_TOL))
        elif "residual" in footer:
            ok = footer["residual"] < 1e-10
        else:
            ok = (near(footer["delta"], 0.2, 1e-12)
                  and footer["residual_finite"] < 1e-10
                  and footer["residual_limit"] < 1e-6)
        return None if ok else f"{command} footer out of tolerance: {footer}"


class SampledFan:
    """``fan_collapse_residual`` in sampled mode, 30 levels x 1M walks, N = 32.

    The op is (m, k, Y); the output is the residual.
    """

    name = "sampled_fan"
    tail_percentile = 80.0  # the m = 6 class
    shapes = ((2, 3), (4, 6), (6, 9))
    cutoffs = (10.0, 100.0, 1000.0)
    levels, walks, N = 30, 1_000_000, 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_inputs(self) -> None:
        self.stream = sl.synth_prime_stream(sl.StreamConfig(seed=self.seed), 2000.0)
        self.initial = sl.make_density([0.5, 0.5], self.N)
        self.mix = [(m, k, y) for m, k in self.shapes for y in self.cutoffs]
        operator = sl.build_lagrangian(sl.LagrangianParams(2, self.N))
        effective = self.levels * (self.walks // self.levels)
        # Residual bound: each sampled step moves a t-row by at most 1/Y in
        # l1 and Markov steps do not grow l1 distance, so the bias is at
        # most m/Y; the MC term is four summed per-cell standard errors.
        self.noise = {}
        for m, k in self.shapes:
            t = sl.apply(sl.power(operator, k), self.initial).as_float()
            self.noise[k] = 4.0 * float(np.sqrt(t * (1.0 - t) / effective).sum())

    def warm_up(self) -> None:
        # One small fan per shape caches the operator power M^k.
        for m, k in self.shapes:
            sl.fan_collapse_residual(
                FanSpec.from_rate(RATE, m, k, 10.0), self.stream, self.initial,
                "sampled_at_Y", 2, np.random.default_rng([self.seed, 3, k]),
                levels=1, walks=1000, y=1000.0,
            )

    def cycle(self, index: int):
        order = np.random.default_rng([self.seed, 1, index]).permutation(len(self.mix))
        return [self.mix[j] for j in order]

    def run(self, op_id: int, op):
        m, k, y = op
        return sl.fan_collapse_residual(
            FanSpec.from_rate(RATE, m, k, 10.0), self.stream, self.initial,
            "sampled_at_Y", 2, np.random.default_rng([self.seed, 2, op_id]),
            levels=self.levels, walks=self.walks, y=y,
        )

    def check(self, op, residual):
        m, k, y = op
        bound = m / y + self.noise[k]
        if not (math.isfinite(residual) and 0.0 <= residual <= bound):
            return f"residual {residual!r} above m/Y + 4 mc = {bound:.5f} at {op}"
        return None


class AppendedStep:
    """Criterion 07 trials: one sampled step appended to an exact level.

    Each op draws m <= 3, k, i and Y in [20, 500] from its seeded rng; the
    output is ``step_average_gap``'s (measured, bias bound, mc halfwidth).
    """

    name = "appended_step"
    tail_percentile = 99.0
    walks, N = 4000, 32

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_inputs(self) -> None:
        self.stream = sl.synth_prime_stream(sl.StreamConfig(seed=self.seed), 2000.0)
        self.initial = sl.make_density([0.5, 0.5], self.N)

    def warm_up(self) -> None:
        # A (2, 3) level holds both widths, so the exact kernels for
        # i = 1 and 2 and the powers M^1, M^2 all get cached.
        rng = np.random.default_rng([self.seed, 3])
        level = sl.sample_levels(self.stream, FanSpec.from_rate(RATE, 2, 3, 10.0), 1, rng)[0]
        for i in (1, 2):
            sl.step_average_gap(level, i, self.initial, 2, 100.0, rng, walks=100)

    def cycle(self, index: int):
        return [("trial",)]

    def run(self, op_id: int, op):
        rng = np.random.default_rng([self.seed, 2, op_id])
        m = int(rng.integers(1, 4))
        k = int(rng.integers(m, 2 * m + 1))
        level = sl.sample_levels(self.stream, FanSpec.from_rate(RATE, m, k, 10.0), 1, rng)[0]
        i = int(rng.integers(1, 3))
        y = float(np.exp(rng.uniform(np.log(20.0), np.log(500.0))))
        return sl.step_average_gap(level, i, self.initial, 2, y, rng, walks=self.walks)

    def check(self, op, output):
        measured, bound, mc = output
        if not (math.isfinite(measured) and measured <= bound + 4.0 * mc):
            return f"measured {measured!r} > (b+1)/Y + 4 mc = {bound:.5f} + {4 * mc:.5f}"
        return None


WORKLOADS = {w.name: w for w in (CliExact, SampledFan, AppendedStep)}
