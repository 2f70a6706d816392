"""A fuzz test of main() over all six subcommands, in process.

Every example builds one argv, writes the spec and table files it
names under a fresh temporary directory, and runs ``cli.main``.  Nothing
may raise out of main(); the exit code is 0, 1, 2 or 3, and a failing
run says why in exactly one stderr line: ``error:`` for exit 1 and
``i/o error:`` for exit 3.

Most values are valid, and a few are faults.  An argv value may be
tiny, huge, NaN, infinite, negative, non-numeric or thousands of digits
long.  A spec or table file may lose keys, gain one, hold values of the
wrong type, deep nesting or huge integers, be cut short or not be
UTF-8.  The values that scale a run's work (N, --steps, --grid, walks,
levels, and the stream's cutoff and rate) come from small ranges plus
values just past each documented limit, so every example runs in
milliseconds.
"""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from selmerlab import cli


class Raw(str):
    """JSON text written into a file as it is, not as a JSON string."""


class File:
    """An argv slot naming a file of ``data``, text or bytes."""

    def __init__(self, data):
        self.data = data


DEEP = Raw("[" * 100_000 + "]" * 100_000)  # past the parser's recursion limit

# A spec or table value of the wrong type, or one no float or int() holds.
ODD = st.sampled_from([
    None, True, "", "x", "nan", [], [1], {}, 0.5, -2.5,
    float("nan"), float("inf"), float("-inf"),
    DEEP, Raw("[" * 40 + "]" * 40), Raw("1" + "0" * 5000), Raw("1" + "0" * 400), Raw("1e400"),
])

# Per key, the values just past its documented limits.
PAST = {
    "m": [-1, 1001], "k": [-1, 17], "X": [0.5], "levels": [0, 2**60],
    "walks": [0, 2**63 * 6], "N": [1, 2**30, 2**62], "p": [4, 1, 2**31, 2**61 - 1], "Y": [1.5],
    "seed": [-1], "growth_rate": [0.0], "densities": [[0.5, 0.5, 0.0], [0.5, 0.25]],
    "C": [0.5], "a": [0.5], "family": ["cubic"], "mode": ["walks"],
    "orientation": ["sideways"], "h_parity": [2], "delta_value": [0], "rank_of_trivial": [-1],
}


def fault(odds: int):
    # True for one draw in ``odds``
    return st.sampled_from([False] * (odds - 1) + [True])


def _objects(value):
    # every JSON object in value, value itself included
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _objects(item)


@st.composite
def faulty(draw, data):
    """``data``, or (one time in four) a copy with one fault in one of its
    objects: a key dropped, an unknown key added, or a value replaced by
    an odd one or one just past a limit."""
    data = copy.deepcopy(data)
    if draw(fault(4)):
        obj = draw(st.sampled_from(list(_objects(data))))
        key = draw(st.sampled_from(sorted(obj))) if obj else None
        kind = draw(st.sampled_from(["drop", "odd", "past", "extra"]))
        if kind == "drop" and key:
            del obj[key]
        elif kind == "odd" and key:
            obj[key] = draw(ODD)
        elif kind == "past" and key in PAST:
            obj[key] = draw(st.sampled_from(PAST[key]))
        else:
            obj["bogus"] = 1
    return data


def dump(value) -> str:
    if isinstance(value, Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {dump(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(map(dump, value)) + "]"
    return json.dumps(value)


@st.composite
def files(draw, data) -> File:
    """A file of ``faulty(data)`` as JSON text, or one time in three cut
    short, not UTF-8, or a bare deep nest."""
    text = dump(draw(faulty(data)))
    kind = draw(st.sampled_from(["json"] * 8 + ["cut", "latin-1", "utf-16", "deep"]))
    if kind == "cut":
        return File(text[: len(text) // 2])
    if kind == "latin-1":  # a byte no UTF-8 text holds, inside the first string
        return File(text.encode().replace(b'"', b'"\xe9', 1) + b"\xff")
    if kind == "utf-16":
        return File(text.encode("utf-16"))
    return File(DEEP if kind == "deep" else text)


@st.composite
def tables(draw) -> dict:
    places = []
    for place_id in "abc"[: draw(st.integers(1, 3))]:
        signs = draw(st.lists(st.sampled_from([(0, 1), (0, -1), (1, 1), (1, -1)]), max_size=3))
        characters = [{"h_parity": h, "delta_value": d} for h, d in [(0, 1)] + signs]
        places.append({"id": place_id, "characters": characters})
    return {"rank_of_trivial": draw(st.integers(0, 2)), "places": places}


OPTIONAL = {
    "rate": st.fixed_dictionaries({
        "family": st.sampled_from(["power", "exponential"]),
        "C": st.sampled_from([1.0, 2.0]),
        "a": st.sampled_from([1.0, 2.0, 50.0]),
    }),
    "mode": st.sampled_from(["exact", "sampled"]),
    "Y": st.sampled_from([2.0, 100.0, 1e6, float("inf")]),
    "walks": st.integers(5, 3000),
    "seed": st.integers(0, 2**70),
    "levels": st.integers(1, 5),
    "threshold": st.sampled_from([1e-9, 1.0]),
    "stream": st.fixed_dictionaries({
        "densities": st.sampled_from([[1 / 3, 1 / 2, 1 / 6], [0.0, 0.0, 1.0]]),
        "growth_rate": st.sampled_from([0.5, 1.0, 2.0]),
        "seed": st.integers(0, 2**70),
        "X": st.sampled_from([0.5, 10.0, 500.0, 2000.0]),
    }),
    "table": tables(),
    "orientation": st.sampled_from(["odd_heavy", "even_heavy"]),
    "p": st.sampled_from([2, 3, 5, 2**31 - 1]),
    "N": st.integers(2, 40),
}


@st.composite
def specs(draw) -> dict:
    m = draw(st.integers(0, 5))
    spec = {
        "m": m,
        "k": draw(st.integers(m, 2 * m)),
        "X": draw(st.sampled_from([1.0, 2.0, 10.0, 100.0, 1e6, 1e308])),
    }
    for key, values in OPTIONAL.items():
        if draw(st.booleans()):
            spec[key] = draw(values)
    if draw(fault(8)):  # a table given by its path, which does not exist
        spec["table"] = "no-such-table.json"
    return spec


def number(valid):
    """An argv number: mostly ``valid``; else tiny, huge, NaN, inf,
    negative, non-numeric or thousands of digits long."""
    odd = st.sampled_from([
        "0", "-1", "1e-300", "1e400", "nan", "NaN", "inf", "-inf", "x", "", "0x10", "2.5",
        "2147483647", "2305843009213693951", "9" * 4000, "9" * 5000,
    ])
    return fault(4).flatmap(lambda bad: odd if bad else valid)


# --steps and --grid: a few, or past their limits: below the least, a table
# numpy cannot describe (2**60 - 1 float64s), or not an int
PAST_LENGTHS = ["-1", str(2**60 - 1), "9" * 4000, "nan", "x"]
COMMON = {
    "--format": st.sampled_from(["csv", "json"] * 3 + ["yaml"]),
    "--seed": number(st.integers(0, 2**70).map(str)),
    "--out": st.sampled_from(["out.txt"] * 5 + ["missing/out.txt"]),
}
# N is a small window or past its limits (2 and 2**30), as is every odd number.
WINDOW = {
    "-p": number(st.sampled_from([2, 3, 7, 101, 2**31 - 1]).map(str)),
    "-N": number(st.one_of(st.integers(2, 80), st.sampled_from([1, 2**30, 2**62])).map(str)),
}
ORIENTATION = {"--orientation": st.sampled_from(["odd_heavy", "even_heavy"] * 3 + ["sideways"])}
INITIALS = st.one_of(
    st.sampled_from(["delta0", "delta3", "delta-1", "deltax", "delta" + "9" * 5000]),
    st.lists(st.sampled_from(["0.5", "0.25", "1", "0", "-0.5", "nan", "inf", "x"]),
             min_size=1, max_size=4).map(",".join),
    st.sampled_from([[1.0], [0.5, 0.5], [0.5], [-1.0, 2.0]])
    .flatmap(lambda values: files({"values": values})),
)
DELTAS = st.lists(
    st.sampled_from(["0", "0.5", "-0.5", "0.25", "0.7", "nan", "inf", "x", "1e-200", ""]),
    max_size=6,
).map(lambda deltas: "--deltas=" + ",".join(deltas))
SUBCOMMANDS = {
    "constants": ({**COMMON, **WINDOW}, None),
    "equilibrium": ({**COMMON, **WINDOW}, None),
    "iterate": ({
        **COMMON, **WINDOW, "--initial": INITIALS,
        "--steps": st.one_of(st.integers(0, 40).map(str), st.sampled_from(PAST_LENGTHS)),
    }, None),
    "fans": (COMMON, specs().flatmap(files)),
    "disparity": ({**COMMON, **WINDOW, **ORIENTATION}, tables().flatmap(files)),
    "avg-rank": ({
        **COMMON, **WINDOW, **ORIENTATION, "--deltas": DELTAS,
        "--grid": st.one_of(st.integers(2, 30).map(str), st.sampled_from(["1"] + PAST_LENGTHS)),
    }, None),
}


@st.composite
def argvs(draw) -> list:
    # fans, the subcommand with the most inputs, a third of the time
    command = draw(st.sampled_from(sorted(SUBCOMMANDS) + ["fans"] * 3))
    flags, positional = SUBCOMMANDS[command]
    argv = [command] if positional is None else [command, draw(positional)]
    for flag, values in flags.items():
        if draw(st.booleans()):
            value = draw(values)
            argv += [value] if flag == "--deltas" else [flag, value]
    return argv


def _write(directory: Path, name: str, data) -> str:
    path = directory / name
    if isinstance(data, bytes):
        path.write_bytes(data)
    else:
        path.write_text(data, encoding="utf-8")
    return str(path)


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(argv=argvs())
def test_main_never_raises_and_explains_every_failure(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch)
        for j, arg in enumerate(argv):
            if isinstance(arg, File):
                prefix = "@" if argv[j - 1] == "--initial" else ""
                argv[j] = prefix + _write(directory, f"arg{j}.json", arg.data)
            elif argv[j - 1] == "--out":
                argv[j] = str(directory / arg)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2, 3), (argv, code)
    first = {0: "{", 1: "error: ", 2: "{", 3: "i/o error: "}[code]
    assert len(lines) == 1 and lines[0].startswith(first), (argv, lines)
