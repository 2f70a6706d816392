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
stdout when ``--out`` is absent) depends only on the spec and the seed,
and wall time goes only to the stderr run report.  A JSON float is the
JSON text of ``float(f"{v:.15g}")``, v rounded to 15 significant digits.
Each decimal of at most 15 significant digits survives a round trip
through binary64, so that text is v's own ``%.15g`` digits, which is how
the JSON table writer prints a whole table in one formatting pass.  CSV
keeps 6 significant digits (``%.6g``).

All JSON input (the ``fans`` spec, disparity tables, ``--initial @file``)
is read here, by one object reader and one number reader; the library
modules take typed values only.

Exit codes: 0 success, 1 validation error or out of memory, 2 numeric
threshold exceeded, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from decimal import Context, Decimal

import numpy as np

from . import __version__
from .distributions import (
    TOL_NORM,
    Density,
    _parity_weighted,
    _validate_probability_vector,
    apply,
    l1_distance,
    make_density,
    rho_parity,
)
from .errors import SelmerLabError, TruncationMismatch, ValidationError
from .lagrangian import (
    LagrangianParams,
    build_lagrangian,
    c_constants,
    equilibrium,
    predicted_limit,
)
from .twists import S3_WIDTH_DENSITIES, StreamConfig, synth_prime_stream
from .fans import ConvergenceRate, FanSpec, fan_collapse
from .disparity import (
    DisparityTable,
    LocalCharacter,
    LocalPlaceData,
    _ORIENTATIONS,
    _limit_rows,
    _mean_rank,
    delta_global,
    delta_local,
    end_to_end_fan_experiment,
    limit_distribution,
)

# iterate and avg-rank make their densities in blocks of at most this many
# rows, so their memory does not grow with --steps or --grid.
_BLOCK = 256
_MODES = {"exact": "exact_kernel", "sampled": "sampled_at_Y"}
_SPEC_OPTIONAL = (
    "rate", "mode", "Y", "walks", "seed", "levels", "threshold", "stream",
    "table", "orientation", "p", "N",
)


class _Parser(argparse.ArgumentParser):
    # Argument errors are validation errors (exit 1), not argparse's
    # default exit 2, which this tool reserves for a fans residual above
    # its threshold.
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


# A payload's "table" is its artifact's rows held as columns: an optional
# int index column first, then float64 columns.  Each writer renders the
# whole table with one %-format call.

def _cells(table) -> list:
    # The table's cells, row-major, as Python ints and floats.
    cells = [None] * (len(table) * len(table[0]))
    for j, column in enumerate(table):
        cells[j::len(table)] = column.tolist()
    return cells


# Classes of |v| for the JSON writer, by searchsorted(_BOUNDS, |v|, "right"):
# 0 zero, 1 subnormal, 2 [tiny, 0.5), 3 [0.5, 1), 4 + e [1e(e), 1e(e+1))
# for e = 0 ... 13, 18 at or above 1e14 and NaN.  _RADIUS is half a unit
# in the 15th significant digit of a class's values, the distance from
# an integer within which "%.15g" prints that integer; -1 where no
# nonzero value prints a whole number.  _FORMULA marks the classes that
# take the formula itself.
_BOUNDS = np.array([5e-324, np.finfo(np.float64).tiny, 0.5] + [float(10**e) for e in range(15)])
_RADIUS = np.array([0.0, -1.0, -1.0] + [float(f"5e{e - 15}") for e in range(-1, 14)] + [-1.0])
_FORMULA = np.isin(np.arange(len(_RADIUS)), (1, 18))
_BITS = 1 << np.arange(62)


def _json_rows(table) -> str:
    """``json.dumps(_round15(rows))`` of the table's rows.

    Every decimal of at most 15 significant digits survives a round trip
    through binary64, so for a normal double v with |v| < 1e14 the JSON
    text of ``float(f"{v:.15g}")`` is ``"%.15g" % v`` itself, plus ".0"
    when that text is a whole number (repr and %g switch to exponent
    form at the same point below 1e-4).  That text is whole exactly when
    v is 0 or lies within _RADIUS of a nonzero integer.  The distance to
    the nearest integer is exact and, for |v| < 1e14, never equals the
    radius: it is a multiple of v's ulp, and the radius, 5 * 10**(e - 15),
    is not.  Zero is whole too ("0.0", "-0.0").  Subnormal, non-finite
    and larger cells take the formula itself, written through "%s".
    """
    cells = _cells(table)
    ints = table[0].dtype.kind == "i"
    values = np.array(table[ints:]).T
    # fmin sends inf and NaN to 1e14, their class, so no inf - inf below
    # and no rint of a signaling NaN, which warns of an invalid value
    size = np.fmin(np.abs(values), 1e14)
    kind = np.searchsorted(_BOUNDS, size, "right")
    whole = np.abs(size - np.rint(size)) <= _RADIUS[kind]
    lead = "[%d, " if ints else "["
    width = values.shape[1]

    def row(tokens):
        return lead + ", ".join(tokens) + "], "

    # A row's format is keyed by its whole cells, read as bits.
    codes = (whole @ _BITS[:width]).tolist()
    formats = {
        code: row("%.15g.0" if code >> j & 1 else "%.15g" for j in range(width))
        for code in set(codes)
    }
    rows = [formats[code] for code in codes]
    formula = _FORMULA[kind]
    if formula.any():
        for i in np.flatnonzero(formula.any(axis=1)):
            tokens = []
            for j in range(width):
                if formula[i, j]:
                    text = json.dumps(float(f"{float(values[i, j]):.15g}"))
                    cells[i * len(table) + ints + j] = text
                tokens.append("%s" if formula[i, j] else "%.15g.0" if whole[i, j] else "%.15g")
            rows[i] = row(tokens)
    return "[" + "".join(rows)[:-2] % tuple(cells) + "]"


def _csv_rows(table) -> str:
    """The table's CSV lines: ints as ``%d``, floats as ``%.6g``."""
    row = ",".join("%d" if column.dtype.kind == "i" else "%.6g" for column in table)
    return "\n".join([row] * len(table[0])) % tuple(_cells(table))


def _render_csv(payload: dict) -> str:
    lines = []
    for key, value in sorted(payload.get("params", {}).items()):
        lines.append(f"# {key} = {_csv_cell(value)}")
    lines.append(",".join(payload["columns"]))
    if len(payload["table"][0]):
        lines.append(_csv_rows(payload["table"]))
    for key, value in sorted(payload.get("footer", {}).items()):
        lines.append(f"# {key} = {_csv_cell(value)}")
    return "\n".join(lines) + "\n"


def _render_json(payload: dict) -> str:
    # json.dumps(payload, sort_keys=True) with the table, under the
    # artifact's key "rows", written by _json_rows: one json.dumps call
    # writes every other key around a 0 held under "rows", and the table
    # text replaces that 0.  In JSON text '"rows": ' can only be a key
    # named "rows" (a quote inside a string is escaped), and no payload
    # value is a dict with such a key, so its one match is the placeholder.
    rest = {key: value for key, value in payload.items() if key != "table"}
    head, tail = json.dumps(_round15({**rest, "rows": 0}), sort_keys=True).split('"rows": 0', 1)
    return head + '"rows": ' + _json_rows(payload["table"]) + tail + "\n"


def _emit(payload: dict, args) -> None:
    text = _render_json(payload) if args.format == "json" else _render_csv(payload)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str):
    # The one JSON reader.  Besides a syntax error, bytes that are not UTF-8,
    # nesting past the parser's recursion limit and an integer of more digits
    # than int() reads (ValueError) are malformed JSON: exit 1, one line.
    with open(path, encoding="utf-8") as handle:
        try:
            return json.load(handle)
        except (ValueError, RecursionError) as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"malformed JSON: {exc}") from None


def _object(data, what: str, required=(), optional=()) -> dict:
    """``data`` as a JSON object with all ``required`` keys and no others but ``optional``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {data!r}")
    unknown = set(data) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown {what} fields: {sorted(unknown)}")
    missing = [key for key in required if key not in data]
    if missing:
        raise ValidationError(f"{what} is missing fields: {missing}")
    return data


def _number(value, kind: type, what: str):
    # A JSON number or numeric string (not a bool) as ``kind``, int or float.
    number = None
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    if number is None or kind is int and not number.is_integer():
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{what} needs {noun}, got {value!r}")
    if kind is float:
        return number
    return value if isinstance(value, int) else int(number)


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{what} must be a JSON list, got {value!r}")
    return value


def _read_table(data) -> DisparityTable:
    """A disparity table from its parsed JSON object."""
    data = _object(data, "table", ("rank_of_trivial", "places"))
    places = []
    for place in _list(data["places"], "places"):
        place = _object(place, "place", ("id", "characters"))
        characters = []
        for ch in _list(place["characters"], "characters"):
            ch = _object(ch, "character", ("h_parity", "delta_value"))
            characters.append(LocalCharacter(
                _number(ch["h_parity"], int, "h_parity"),
                _number(ch["delta_value"], int, "delta_value"),
            ))
        places.append(LocalPlaceData(str(place["id"]), tuple(characters)))
    return DisparityTable(
        tuple(places), _number(data["rank_of_trivial"], int, "rank_of_trivial")
    )


def _read_stream(data, seed: int) -> tuple[StreamConfig, float]:
    """A spec's ``stream`` object: the config (seeded with ``seed``
    unless it sets its own) and the stream cutoff X."""
    data = _object(data, "stream", (), ("densities", "growth_rate", "seed", "X"))
    densities = _list(data.get("densities", list(S3_WIDTH_DENSITIES)), "stream densities")
    config = StreamConfig(
        tuple(_number(d, float, "stream densities") for d in densities),
        _number(data.get("growth_rate", 1.0), float, "stream growth_rate"),
        _number(data.get("seed", seed), int, "stream seed"),
    )
    return config, _number(data.get("X", 2000.0), float, "stream X")


def _parse_initial(spec: str, N: int) -> Density:
    if spec.startswith("@"):
        data = _object(_load_json(spec[1:]), f"--initial {spec}", ("values",))
        return make_density(data["values"], N)
    if spec.startswith("delta"):
        digits = spec[len("delta"):]
        if not digits.isdecimal():
            raise ValidationError(f"--initial delta<n> needs a rank n >= 0, got {spec!r}")
        # n is read against N as a Decimal, which holds any number of
        # digits, so a rank past the window builds nothing.
        rank = Decimal(digits)
        if rank >= N:
            length = Context(prec=len(digits) + 1).add(rank, 1)  # exact n + 1
            raise TruncationMismatch(f"raw has length {length} > N = {N}")
        rank = int(rank)
        values = [0.0] * (rank + 1)
        values[rank] = 1.0
        return make_density(values, N)
    return make_density([_number(x, float, "--initial") for x in spec.split(",")], N)


def cmd_constants(args):
    params = LagrangianParams(args.p, args.N)
    c = c_constants(params)
    even = np.cumsum(_parity_weighted(c, 0.0))
    odd = np.cumsum(_parity_weighted(c, 1.0))
    payload = {
        "params": {"p": args.p, "N": args.N},
        "columns": ["n", "c_n", "cum_even", "cum_odd"],
        "table": [np.arange(args.N), c, even, odd],
        "footer": {"sum_even": float(even[-1]), "sum_odd": float(odd[-1])},
    }
    return payload, 0


def cmd_equilibrium(args):
    params = LagrangianParams(args.p, args.N)
    pair = equilibrium(params)
    gap = l1_distance(apply(build_lagrangian(params), pair.e_plus), pair.e_minus)
    payload = {
        "params": {"p": args.p, "N": args.N},
        "columns": ["n", "c_n", "e_plus", "e_minus"],
        "table": [np.arange(args.N), pair.c, pair.e_plus.values, pair.e_minus.values],
        "footer": {
            "sum_e_plus": float(pair.e_plus.values.sum()),
            "sum_e_minus": float(pair.e_minus.values.sum()),
            "fixed_point_gap": gap,
        },
    }
    return payload, 0


def _check_table_length(value: int, flag: str) -> None:
    # numpy describes no array of more than intp-max bytes, so np.empty and
    # np.linspace would raise ValueError for a float64 table this long.
    longest = np.iinfo(np.intp).max // 8
    if value >= longest:
        raise ValidationError(f"{flag} must be < {longest} for a float64 table, got {value}")


def cmd_iterate(args):
    if args.steps < 0:
        raise ValidationError(f"--steps must be >= 0, got {args.steps}")
    _check_table_length(args.steps, "--steps")  # the table holds steps + 1 float64s
    params = LagrangianParams(args.p, args.N)
    f = _parse_initial(args.initial, args.N)
    target = predicted_limit(f, "even", params).values
    matrix = build_lagrangian(params).matrix
    # steps + 1 double steps, each a half step and a full step, and each is
    # checked by the rule apply checks it with, the last double step too,
    # though the table never reads it.  A block holds up to _BLOCK of those
    # densities: rows[0] is the start of its first double step, and
    # rows[2j + 1], rows[2j + 2] are the j-th double step's half and full.
    count = args.steps + 1
    distances = np.empty(count)
    rows = np.empty((_BLOCK + 1, args.N))
    rows[0] = f.values
    for first in range(0, count, _BLOCK // 2):
        n = min(_BLOCK // 2, count - first)
        for j in range(1, 2 * n + 1):
            np.dot(rows[j - 1], matrix, out=rows[j])
        _validate_probability_vector(rows[1 : 2 * n + 1], TOL_NORM, "density")
        # l1_distance of each double step's start, row by row
        distances[first : first + n] = np.abs(rows[: 2 * n : 2] - target).sum(axis=1)
        rows[0] = rows[2 * n]
    payload = {
        "params": {"p": args.p, "N": args.N, "initial": args.initial, "steps": args.steps},
        "columns": ["step", "distance_to_limit"],
        "table": [np.arange(count), distances],
        "footer": {"rho": rho_parity(f), "final_distance": float(distances[-1])},
    }
    return payload, 0


def cmd_fans(args):
    spec = _object(_load_json(args.spec), "experiment spec", ("m", "k", "X"), _SPEC_OPTIONAL)
    m, k = _number(spec["m"], int, "m"), _number(spec["k"], int, "k")
    X = _number(spec["X"], float, "X")
    rate_spec = _object(spec.get("rate", {}), "rate", (), ("family", "C", "a"))
    rate = ConvergenceRate(
        rate_spec.get("family", "power"),
        _number(rate_spec.get("C", 1.0), float, "rate C"),
        _number(rate_spec.get("a", 2.0), float, "rate a"),
    )
    mode_name = spec.get("mode", "exact")
    if not isinstance(mode_name, str) or mode_name not in _MODES:
        raise ValidationError(f"mode must be 'exact' or 'sampled', got {mode_name!r}")
    mode = _MODES[mode_name]
    orientation = spec.get("orientation", "odd_heavy")
    if orientation not in _ORIENTATIONS:
        raise ValidationError(f"orientation must be one of {_ORIENTATIONS}, got {orientation!r}")
    p, N = _number(spec.get("p", 2), int, "p"), _number(spec.get("N", 64), int, "N")
    y = _number(spec.get("Y", 1000.0), float, "Y")
    walks = _number(spec.get("walks", 100_000), int, "walks")
    levels = _number(spec.get("levels", 30), int, "levels")
    seed = _number(spec.get("seed", args.seed), int, "seed")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    threshold = spec.get("threshold")
    if threshold is not None:
        threshold = _number(threshold, float, "threshold")
        if np.isnan(threshold):
            raise ValidationError("threshold needs a number, got NaN")
    rng = np.random.default_rng(seed)
    config, stream_X = _read_stream(spec.get("stream", {}), seed)

    params = {
        "m": m, "k": k, "X": X, "mode": mode_name, "p": p, "N": N,
        "seed": seed, "walks": walks, "levels": levels,
    }
    if mode == "sampled_at_Y":
        params["Y"] = y

    if "table" in spec:
        table = spec["table"]
        table = _read_table(_load_json(table) if isinstance(table, str) else table)
        report = end_to_end_fan_experiment(
            table, rate, m, k, X, mode, p, N, rng=rng, orientation=orientation,
            stream=config, stream_X=stream_X, levels=levels, walks=walks, y=y,
        )
        payload = {
            "params": {**params, "orientation": orientation},
            "columns": ["n", "fan", "finite", "limit"],
            "table": [np.arange(N), report.fan.values, report.finite.values, report.limit.values],
            "footer": {
                "delta": report.delta,
                "residual_finite": report.residual_finite,
                "residual_limit": report.residual_limit,
            },
        }
        residual = report.residual_finite
    else:
        LagrangianParams(p, N)  # p and N are checked before N sizes the start density
        fan, target = fan_collapse(
            FanSpec.from_rate(rate, m, k, X), synth_prime_stream(config, stream_X),
            make_density([1.0], N), mode, p, rng, levels=levels, walks=walks, y=y,
        )
        residual = l1_distance(fan, target)
        payload = {
            "params": params,
            "columns": ["n", "fan", "target"],
            "table": [np.arange(N), fan.values, target.values],
            "footer": {"residual": residual},
        }

    return payload, 2 if threshold is not None and residual > threshold else 0


def cmd_disparity(args):
    table = _read_table(_load_json(args.table))
    delta = delta_global(table)
    limit = limit_distribution(delta, args.p, args.N, args.orientation)
    footer = {f"delta_v[{place.id}]": delta_local(place) for place in table.places}
    footer["delta"] = delta
    footer["average_rank"] = _mean_rank(limit.values)
    payload = {
        "params": {"p": args.p, "N": args.N, "orientation": args.orientation},
        "columns": ["n", "limit_mass"],
        "table": [np.arange(args.N), limit.values],
        "footer": footer,
    }
    return payload, 0


def cmd_avg_rank(args):
    if args.deltas:
        grid = [_number(x, float, "--deltas") for x in args.deltas.split(",")]
    else:
        _check_table_length(args.grid, "--grid")
        grid = list(np.linspace(-0.5, 0.5, max(args.grid, 0)))
    if len(set(grid)) < 2:
        raise ValidationError("the affine fit needs at least two distinct deltas")
    # np.polyfit divides the delta column by its norm, which is 0 when every
    # delta's square underflows (all |delta| below about 1.5e-162).
    if not any(delta * delta for delta in grid):
        raise ValidationError("the affine fit needs a delta whose square is nonzero in float64")
    # c is computed once, so a bad p or N is reported before a bad delta.
    c = c_constants(LagrangianParams(args.p, args.N))
    # The grid's limits and then the one at 1/2, _BLOCK deltas at a time.
    deltas = grid + [0.5]
    means = []
    for first in range(0, len(deltas), _BLOCK):
        means += map(_mean_rank, _limit_rows(c, deltas[first : first + _BLOCK], args.orientation))
    slope, intercept = np.polyfit(grid, means[:-1], 1)
    payload = {
        "params": {"p": args.p, "N": args.N, "orientation": args.orientation},
        "columns": ["delta", "mean_rank"],
        "table": [np.array(grid, dtype=np.float64), np.array(means[:-1])],
        "footer": {
            "intercept": float(intercept),
            "slope": float(slope),
            "value_at_half": means[-1],
        },
    }
    return payload, 0


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", default=None)
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    window = _Parser(add_help=False)
    window.add_argument("-p", type=int, default=2)
    window.add_argument("-N", type=int, default=64)
    tilt = _Parser(add_help=False)
    tilt.add_argument("--orientation", choices=_ORIENTATIONS, default="odd_heavy")

    parser = _Parser(prog="selmer-lab", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", parents=[common, window])
    sp.set_defaults(func=cmd_constants)

    sp = sub.add_parser("equilibrium", parents=[common, window])
    sp.set_defaults(func=cmd_equilibrium)

    sp = sub.add_parser("iterate", parents=[common, window])
    sp.add_argument("--initial", default="delta0")
    sp.add_argument("--steps", type=int, default=60)
    sp.set_defaults(func=cmd_iterate)

    sp = sub.add_parser("fans", parents=[common])
    sp.add_argument("spec", help="experiment spec JSON path")
    sp.set_defaults(func=cmd_fans)

    sp = sub.add_parser("disparity", parents=[common, window, tilt])
    sp.add_argument("table", help="disparity table JSON path")
    sp.set_defaults(func=cmd_disparity)

    sp = sub.add_parser("avg-rank", parents=[common, window, tilt])
    sp.add_argument("--grid", type=int, default=21)
    sp.add_argument("--deltas", help="comma-separated override, e.g. --deltas=-0.5,0,0.5")
    sp.set_defaults(func=cmd_avg_rank)
    return parser


# Built once per process; parse_args leaves it as it found it.
_PARSER = build_parser()


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        args = _PARSER.parse_args(argv)
        payload, code = args.func(args)
        _emit(payload, args)
    except SelmerLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
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
        "summary": _round15(payload["footer"]),
        "exit_code": code,
    }
    print(json.dumps(report, sort_keys=True), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
