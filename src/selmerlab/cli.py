"""Command line front end: deterministic experiment runs to CSV/JSON.

Subcommands
-----------
constants    c_n table with cumulative parity masses
equilibrium  E+ / E- values and the fixed-point gap
iterate      distance to the predicted limit along M_L**2 iterates
fans         fan-averaging experiment from a JSON spec
disparity    per-place and global disparity, limit density, mean rank
avg-rank     mean rank over a disparity grid with an affine fit

Global flags (after the subcommand): ``--seed``, ``--out``,
``--format {csv,json}``.  Every run is serial.

Determinism contract: the numeric artifact (the ``--out`` file, or
stdout when ``--out`` is absent) depends only on the spec and the seed;
floats are formatted with 15 significant digits in JSON, 6 in CSV, and
wall time goes only to the stderr run report.

Exit codes: 0 success, 1 validation error, 2 numeric threshold
exceeded, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .distributions import Density, apply, l1_distance, make_density, rho_parity
from .errors import NumericError, SelmerLabError, ValidationError
from .lagrangian import (
    LagrangianParams,
    build_lagrangian,
    c_constants,
    equilibrium,
    predicted_limit,
)
from .twists import StreamConfig, synth_prime_stream
from .fans import ConvergenceRate, FanSpec, fan_collapse
from .disparity import (
    DisparityTable,
    average_rank,
    delta_global,
    delta_local,
    end_to_end_fan_experiment,
    limit_distribution,
)

_MODES = {"exact": "exact_kernel", "sampled": "sampled_at_Y"}


class _Parser(argparse.ArgumentParser):
    # Argument errors are validation errors (exit 1), not argparse's
    # default exit 2, which this tool reserves for numeric failures.
    def error(self, message):
        raise ValidationError(message)


def _round15(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {key: _round15(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(value) for value in obj]
    return obj


def _csv_cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_csv(payload: dict) -> str:
    lines = []
    for key, value in sorted(payload.get("params", {}).items()):
        lines.append(f"# {key} = {_csv_cell(value)}")
    lines.append(",".join(payload["columns"]))
    for row in payload["rows"]:
        lines.append(",".join(_csv_cell(v) for v in row))
    for key, value in sorted(payload.get("footer", {}).items()):
        lines.append(f"# {key} = {_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    return json.dumps(_round15(payload), sort_keys=True) + "\n"


def _emit(payload: dict, args) -> None:
    text = _render_json(payload) if args.format == "json" else _render_csv(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _parse_initial(spec: str, N: int) -> Density:
    if spec.startswith("@"):
        with open(spec[1:]) as handle:
            data = json.loads(handle.read())
        if not isinstance(data, dict) or "values" not in data:
            raise ValidationError(f"--initial {spec} needs a JSON object with 'values'")
        return make_density(data["values"], N)
    if spec.startswith("delta"):
        digits = spec[len("delta"):]
        if not digits.isdecimal():
            raise ValidationError(f"--initial delta<n> needs a rank n >= 0, got {spec!r}")
        rank = int(digits)
        values = [0.0] * (rank + 1)
        values[rank] = 1.0
        return make_density(values, N)
    return make_density(_parse_floats(spec, "--initial"), N)


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise ValidationError(f"{flag} needs comma-separated numbers, got {text!r}") from None


def cmd_constants(args):
    params = LagrangianParams(args.p, args.N)
    c = c_constants(params)
    even = np.cumsum(np.where(np.arange(args.N) % 2 == 0, c, 0.0))
    odd = np.cumsum(np.where(np.arange(args.N) % 2 == 1, c, 0.0))
    payload = {
        "params": {"p": args.p, "N": args.N},
        "columns": ["n", "c_n", "cum_even", "cum_odd"],
        "rows": [[n, float(c[n]), float(even[n]), float(odd[n])] for n in range(args.N)],
        "footer": {"sum_even": float(even[-1]), "sum_odd": float(odd[-1])},
    }
    return payload, payload["footer"], 0


def cmd_equilibrium(args):
    params = LagrangianParams(args.p, args.N)
    pair = equilibrium(params)
    gap = l1_distance(apply(build_lagrangian(params), pair.e_plus), pair.e_minus)
    payload = {
        "params": {"p": args.p, "N": args.N},
        "columns": ["n", "c_n", "e_plus", "e_minus"],
        "rows": [
            [n, float(pair.c[n]), float(pair.e_plus.values[n]), float(pair.e_minus.values[n])]
            for n in range(args.N)
        ],
        "footer": {
            "sum_e_plus": float(pair.e_plus.values.sum()),
            "sum_e_minus": float(pair.e_minus.values.sum()),
            "fixed_point_gap": gap,
        },
    }
    return payload, payload["footer"], 0


def cmd_iterate(args):
    if args.steps < 0:
        raise ValidationError(f"--steps must be >= 0, got {args.steps}")
    params = LagrangianParams(args.p, args.N)
    f = _parse_initial(args.initial, args.N)
    target = predicted_limit(f, "even", params)
    operator = build_lagrangian(params)
    rows = []
    current = f
    for step in range(args.steps + 1):
        rows.append([step, l1_distance(current, target)])
        current = apply(operator, apply(operator, current))
    payload = {
        "params": {"p": args.p, "N": args.N, "initial": args.initial, "steps": args.steps},
        "columns": ["step", "distance_to_limit"],
        "rows": rows,
        "footer": {"rho": rho_parity(f), "final_distance": rows[-1][1]},
    }
    return payload, payload["footer"], 0


def _spec_number(data: dict, key: str, kind, default=None):
    value = data.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"field {key!r} needs a number, got {value!r}") from None


def _load_fan_spec(path: str) -> dict:
    with open(path) as handle:
        data = json.load(handle)
    if not isinstance(data, dict):
        raise ValidationError("experiment spec must be a JSON object")
    known = {
        "m", "k", "X", "rate", "mode", "Y", "walks", "seed", "levels",
        "threshold", "stream", "table", "orientation", "p", "N",
    }
    unknown = set(data) - known
    if unknown:
        raise ValidationError(f"unknown experiment fields: {sorted(unknown)}")
    return data


def _parse_rate(data) -> ConvergenceRate:
    if data is None:
        return ConvergenceRate("power", 1.0, 2.0)
    if not isinstance(data, dict):
        raise ValidationError("experiment field 'rate' must be a JSON object")
    unknown = set(data) - {"family", "C", "a"}
    if unknown:
        raise ValidationError(f"unknown rate fields: {sorted(unknown)}")
    return ConvergenceRate(
        data.get("family", "power"),
        _spec_number(data, "C", float, 1.0),
        _spec_number(data, "a", float, 2.0),
    )


def cmd_fans(args):
    data = _load_fan_spec(args.spec)
    for field in ("m", "k", "X"):
        if field not in data:
            raise ValidationError(f"experiment spec is missing {field!r}")
    m, k = _spec_number(data, "m", int), _spec_number(data, "k", int)
    X = _spec_number(data, "X", float)
    rate = _parse_rate(data.get("rate"))
    mode_name = data.get("mode", "exact")
    if mode_name not in _MODES:
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode_name!r}")
    mode = _MODES[mode_name]
    p, N = _spec_number(data, "p", int, 2), _spec_number(data, "N", int, 64)
    y = _spec_number(data, "Y", float, 1000.0)
    walks = _spec_number(data, "walks", int, 100_000)
    levels = _spec_number(data, "levels", int, 30)
    seed = _spec_number(data, "seed", int, args.seed)
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    threshold = data.get("threshold")
    if threshold is not None:
        threshold = _spec_number(data, "threshold", float)
        if np.isnan(threshold):
            raise ValidationError("field 'threshold' needs a number, got NaN")
    rng = np.random.default_rng(seed)

    stream_data = data.get("stream") or {}
    if not isinstance(stream_data, dict):
        raise ValidationError("experiment field 'stream' must be a JSON object")
    stream_data = dict(stream_data)
    stream_X = _spec_number(stream_data, "X", float, 2000.0)
    stream_data.pop("X", None)
    stream_data.setdefault("seed", seed)
    config = StreamConfig.from_json_dict(stream_data)

    params = {
        "m": m, "k": k, "X": X, "mode": mode_name, "p": p, "N": N,
        "seed": seed, "walks": walks, "levels": levels,
    }
    if mode == "sampled_at_Y":
        params["Y"] = y

    if "table" in data:
        table_data = data["table"]
        if isinstance(table_data, str):
            with open(table_data) as handle:
                table = DisparityTable.from_json(handle.read())
        else:
            table = DisparityTable.from_json(json.dumps(table_data))
        orientation = data.get("orientation", "odd_heavy")
        report = end_to_end_fan_experiment(
            table, rate, m, k, X, mode, p, N, rng, orientation,
            stream=config, stream_X=stream_X, levels=levels, walks=walks,
            y=y if mode == "sampled_at_Y" else None,
        )
        payload = {
            "params": {**params, "orientation": orientation},
            "columns": ["n", "fan", "finite", "limit"],
            "rows": [
                [n, float(report.fan.values[n]), float(report.finite.values[n]),
                 float(report.limit.values[n])]
                for n in range(N)
            ],
            "footer": {
                "delta": report.delta,
                "residual_finite": report.residual_finite,
                "residual_limit": report.residual_limit,
            },
        }
        residual = report.residual_finite
    else:
        fan, target = fan_collapse(
            FanSpec.from_rate(rate, m, k, X), synth_prime_stream(config, stream_X),
            make_density([1.0], N), mode, p, rng, levels=levels, walks=walks, y=y,
        )
        residual = l1_distance(fan, target)
        payload = {
            "params": params,
            "columns": ["n", "fan", "target"],
            "rows": [
                [n, float(fan.values[n]), float(target.values[n])] for n in range(N)
            ],
            "footer": {"residual": residual},
        }

    code = 0
    if threshold is not None and residual > threshold:
        code = 2
    return payload, payload["footer"], code


def cmd_disparity(args):
    with open(args.table) as handle:
        table = DisparityTable.from_json(handle.read())
    delta = delta_global(table)
    limit = limit_distribution(delta, args.p, args.N, args.orientation)
    footer = {f"delta_v[{place.id}]": delta_local(place) for place in table.places}
    footer["delta"] = delta
    footer["average_rank"] = average_rank(delta, args.p, args.N, args.orientation)
    payload = {
        "params": {"p": args.p, "N": args.N, "orientation": args.orientation},
        "columns": ["n", "limit_mass"],
        "rows": [[n, float(limit.values[n])] for n in range(args.N)],
        "footer": footer,
    }
    return payload, {"delta": delta, "average_rank": footer["average_rank"]}, 0


def cmd_avg_rank(args):
    if args.deltas:
        grid = _parse_floats(args.deltas, "--deltas")
    else:
        grid = list(np.linspace(-0.5, 0.5, max(args.grid, 0)))
    if len(set(grid)) < 2:
        raise ValidationError("the affine fit needs at least two distinct deltas")
    means = [average_rank(d, args.p, args.N, args.orientation) for d in grid]
    slope, intercept = np.polyfit(grid, means, 1)
    payload = {
        "params": {"p": args.p, "N": args.N, "orientation": args.orientation},
        "columns": ["delta", "mean_rank"],
        "rows": [[float(d), float(v)] for d, v in zip(grid, means)],
        "footer": {
            "intercept": float(intercept),
            "slope": float(slope),
            "value_at_half": average_rank(0.5, args.p, args.N, args.orientation),
        },
    }
    return payload, payload["footer"], 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")

    parser = _Parser(prog="selmer-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", parents=[common])
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-N", type=int, default=64)
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("equilibrium", parents=[common])
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-N", type=int, default=64)
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("iterate", parents=[common])
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-N", type=int, default=64)
    sp.add_argument("--initial", default="delta0")
    sp.add_argument("--steps", type=int, default=60)
    sp.set_defaults(func=cmd_iterate)

    sp = sub.add_parser("fans", parents=[common])
    sp.add_argument("spec", help="experiment spec JSON path")
    sp.set_defaults(func=cmd_fans)

    sp = sub.add_parser("disparity", parents=[common])
    sp.add_argument("table", help="disparity table JSON path")
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-N", type=int, default=64)
    sp.add_argument(
        "--orientation", choices=("odd_heavy", "even_heavy"), default="odd_heavy"
    )
    sp.set_defaults(func=cmd_disparity)

    sp = sub.add_parser("avg-rank", parents=[common])
    sp.add_argument("-p", type=int, default=2)
    sp.add_argument("-N", type=int, default=64)
    sp.add_argument("--grid", type=int, default=21)
    sp.add_argument("--deltas", default=None, help="comma-separated override")
    sp.add_argument(
        "--orientation", choices=("odd_heavy", "even_heavy"), default="odd_heavy"
    )
    sp.set_defaults(func=cmd_avg_rank)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        payload, summary, code = args.func(args)
        _emit(payload, args)
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON: {exc}", file=sys.stderr)
        return 1
    except SelmerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    report = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "format": args.format,
        "out": args.out,
        "wall_time_s": time.perf_counter() - started,
        "summary": _round15(summary),
        "exit_code": code,
    }
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
