"""End-to-end tests of the command line interface via main()."""

import contextlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import selmerlab as sl
from selmerlab import cli
from selmerlab.lagrangian import _mixture


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def table_json():
    a = {
        "id": "a",
        "characters": [
            {"h_parity": 0, "delta_value": 1},
            {"h_parity": 0, "delta_value": 1},
            {"h_parity": 0, "delta_value": 1},
            {"h_parity": 0, "delta_value": -1},
        ],
    }
    b = {
        "id": "b",
        "characters": [{"h_parity": 0, "delta_value": 1}] * 9
        + [{"h_parity": 0, "delta_value": -1}],
    }
    return json.dumps({"rank_of_trivial": 0, "places": [a, b]})


def test_constants_csv(capsys):
    code, out, err = run(["constants"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert "# p = 2" in lines and "# N = 64" in lines
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,c_n,cum_even,cum_odd"
    first = [l for l in lines if not l.startswith("#")][1]
    assert first.startswith("0,0.419422,")
    footer = {l.split(" = ")[0][2:]: float(l.split(" = ")[1]) for l in lines if " = " in l}
    assert footer["sum_even"] == pytest.approx(1.0, abs=1e-5)
    assert footer["sum_odd"] == pytest.approx(1.0, abs=1e-5)


def test_constants_rejects_nonprime(capsys):
    code, out, err = run(["constants", "-p", "4"], capsys)
    assert code == 1
    assert out == ""
    assert "error" in err


def test_bad_flag_exits_one(capsys):
    code, out, err = run(["constants", "--format", "yaml"], capsys)
    assert code == 1


def test_equilibrium_json(capsys):
    code, out, err = run(["equilibrium", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["n", "c_n", "e_plus", "e_minus"]
    assert payload["footer"]["fixed_point_gap"] < 1e-10
    assert payload["footer"]["sum_e_plus"] == pytest.approx(1.0, abs=1e-10)
    assert len(payload["rows"]) == 64
    # stderr carries the run report, including timing
    report = json.loads(err.splitlines()[-1])
    assert report["command"] == "equilibrium"
    assert report["wall_time_s"] >= 0.0


def test_iterate_reaches_limit(capsys):
    code, out, err = run(["iterate", "--format", "json", "--steps", "40"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["rho"] == 0.0
    assert payload["footer"]["final_distance"] < 1e-6
    distances = [row[1] for row in payload["rows"]]
    assert distances[0] > distances[-1]


def test_iterate_with_explicit_initial(capsys):
    code, out, err = run(
        ["iterate", "--format", "json", "--initial", "0.25,0.75", "--steps", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["rho"] == 0.25 + 0.5  # rho of (0.25, 0.75)


def test_iterate_initial_from_file(tmp_path, capsys):
    pair = sl.equilibrium(sl.LagrangianParams(2, 64))
    start = tmp_path / "start.json"
    start.write_text(json.dumps({"values": list(pair.e_plus.values)}))
    code, out, err = run(
        ["iterate", "--format", "json", "--initial", f"@{start}", "--steps", "2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    # E+ is already the predicted limit, so every iterate stays on it
    assert all(row[1] < 1e-9 for row in payload["rows"])


def fans_spec(tmp_path, **overrides):
    data = {"m": 2, "k": 3, "X": 10.0, "mode": "exact", "levels": 5, "N": 32}
    data.update(overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_fans_exact_run(tmp_path, capsys):
    code, out, err = run(["fans", fans_spec(tmp_path), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["residual"] < 1e-12
    assert payload["columns"] == ["n", "fan", "target"]


def test_fans_infeasible_exits_one(tmp_path, capsys):
    code, out, err = run(["fans", fans_spec(tmp_path, m=1, k=3)], capsys)
    assert code == 1
    assert "error" in err


def test_fans_unknown_field_exits_one(tmp_path, capsys):
    code, out, err = run(["fans", fans_spec(tmp_path, typo=1)], capsys)
    assert code == 1


def test_fans_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, out, err = run(["fans", str(path)], capsys)
    assert code == 1
    assert "malformed" in err


def json_argv(command, path):
    # the argv that reads the JSON file at path: a fans spec, a disparity
    # table or an iterate start density
    if command == "iterate":
        return ["iterate", "--initial", f"@{path}"]
    return [command, str(path)]


@pytest.mark.parametrize("command", ["fans", "disparity", "iterate"])
def test_deeply_nested_json_exits_one(command, tmp_path, capsys):
    # nesting past the parser's recursion limit used to raise RecursionError
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(json_argv(command, path), capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: malformed JSON: maximum recursion depth exceeded"
        " while decoding a JSON array from a unicode string\n"
    )


@pytest.mark.parametrize("command", ["fans", "disparity", "iterate"])
def test_json_integer_of_thousands_of_digits_exits_one(command, tmp_path, capsys):
    # more digits than int() reads used to raise ValueError out of main
    path = tmp_path / "long.json"
    path.write_text('{"X": 1' + "0" * 5000 + "}")
    code, out, err = run(json_argv(command, path), capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: malformed JSON: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["fans", "disparity", "iterate"])
def test_json_file_that_is_not_utf8_exits_one(command, tmp_path, capsys):
    # a Latin-1 byte used to raise UnicodeDecodeError out of main
    path = tmp_path / "latin1.json"
    path.write_bytes('{"m": 2, "k": 3, "X": 10.0, "mode": "\u00e9xact"}'.encode("latin-1"))
    code, out, err = run(json_argv(command, path), capsys)
    assert (code, out) == (1, "")
    assert err == (
        "error: malformed JSON: 'utf-8' codec can't decode byte 0xe9 in position 37:"
        " invalid continuation byte\n"
    )


def test_prime_past_the_bound_exits_one_at_once(capsys):
    # 2**61 - 1 is prime, and trial division would take minutes
    code, out, err = run(["constants", "-p", str(2**61 - 1)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: p = {2**61 - 1} is not below the prime bound 2**31\n"


@pytest.mark.parametrize("command", ["constants", "equilibrium", "iterate", "avg-rank"])
def test_window_numpy_cannot_describe_exits_one(command, capsys):
    # np.zeros used to raise ValueError: Maximum allowed dimension exceeded
    code, out, err = run([command, "-N", str(10**20)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: N must be below the window bound 2**30, got {10**20}\n"


def test_fans_window_is_checked_before_it_sizes_the_start(tmp_path, capsys):
    # the start density was padded to N before N was checked
    code, out, err = run(["fans", fans_spec(tmp_path, N=10**20)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: N must be below the window bound 2**30, got {10**20}\n"


def test_fans_levels_past_the_count_bound_exit_one(tmp_path, capsys):
    # the draw's list of 10**20 entries used to raise OverflowError
    code, out, err = run(["fans", fans_spec(tmp_path, levels=10**20)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: levels must be below the count bound 2**60, got {10**20}\n"


def test_avg_rank_grid_past_a_float64_table_exits_one(capsys):
    # np.linspace used to raise ValueError: Maximum allowed size exceeded
    code, out, err = run(["avg-rank", "--grid", str(10**20)], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: --grid must be < {2**60 - 1} for a float64 table, got {10**20}\n"


def test_fans_missing_file_exits_three(tmp_path, capsys):
    code, out, err = run(["fans", str(tmp_path / "nope.json")], capsys)
    assert code == 3
    assert "i/o error" in err


def test_fans_threshold_exceeded_exits_two(tmp_path, capsys):
    spec = fans_spec(
        tmp_path, mode="sampled", walks=4000, Y=100.0, threshold=1e-9, seed=5
    )
    code, out, err = run(["fans", spec], capsys)
    assert code == 2
    report = json.loads(err.splitlines()[-1])
    assert report["exit_code"] == 2


def test_fans_with_disparity_table(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(table_json())
    spec = fans_spec(tmp_path, m=3, k=4, table=str(table_path), N=64)
    code, out, err = run(["fans", spec, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["delta"] == pytest.approx(0.2)
    assert payload["footer"]["residual_finite"] < 1e-12
    assert payload["columns"] == ["n", "fan", "finite", "limit"]


def test_fans_residual_is_the_library_pipeline(tmp_path, capsys):
    # the CLI no-table path and fan_collapse_residual share one pipeline
    seed, N, k = 5, 32, 3
    spec = fans_spec(tmp_path, mode="sampled", walks=4000, Y=100.0, seed=seed)
    code, out, err = run(["fans", spec, "--format", "json"], capsys)
    assert code == 0
    footer = json.loads(out)["footer"]["residual"]
    args = (
        sl.FanSpec.from_rate(sl.ConvergenceRate("power", 1.0, 2.0), 2, k, 10.0),
        sl.synth_prime_stream(sl.StreamConfig(seed=seed), 2000.0),
        sl.make_density([1.0], N),
        "sampled_at_Y",
        2,
    )
    kwargs = {"levels": 5, "walks": 4000, "y": 100.0}
    residual = sl.fan_collapse_residual(*args, np.random.default_rng(seed), **kwargs)
    pair = sl.fan_collapse(*args, np.random.default_rng(seed), **kwargs)
    for value in (residual, sl.l1_distance(*pair)):
        assert float(f"{value:.15g}") == footer


def test_fans_integral_floats_and_numeric_strings_read_as_ints(tmp_path, capsys):
    plain = {"m": 2, "k": 3, "X": 10.0, "levels": 6}
    spelled = {"m": 2.0, "k": "3", "X": "10", "levels": "6.0"}
    outputs = []
    for name, spec in (("plain", plain), ("spelled", spelled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        code, out, err = run(["fans", str(path), "--format", "json"], capsys)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["params"]["m"] == 2


class JsonFile:
    """An argv slot that becomes the path of a JSON file holding ``data``."""

    def __init__(self, data, prefix=""):
        self.data = data
        self.prefix = prefix


@pytest.mark.parametrize(
    "argv",
    [
        ["constants", "-N", "1"],
        ["iterate", "--steps", "-1"],
        ["iterate", "--initial", "delta-1"],
        ["iterate", "--initial", "deltax"],
        ["iterate", "--initial", "0.5,x"],
        ["avg-rank", "--grid", "1"],
        ["avg-rank", "--grid", "-3"],
        ["avg-rank", "--deltas", "0.1,0.1"],
        ["avg-rank", "--deltas", "0.1,x"],
        ["iterate", "--initial", JsonFile({}, prefix="@")],
        ["fans", JsonFile({"m": "x", "k": 3, "X": 10.0})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"X": "big"}})],
        ["disparity", JsonFile({"rank_of_trivial": 0})],
        [
            "disparity",
            JsonFile({
                "rank_of_trivial": 0,
                "places": [{"id": "a", "characters": [{"h_parity": 0}]}],
            }),
        ],
        ["iterate", "--initial", JsonFile([1.0], prefix="@")],
        ["fans", JsonFile(5)],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "rate": {"C": "x"}})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "rate": []})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": [1]})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"densities": 5}})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"densities": ["a"] * 3}})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"growth_rate": "x"}})],
        ["disparity", JsonFile({"rank_of_trivial": "x", "places": []})],
        ["disparity", JsonFile({"rank_of_trivial": 0, "places": 5})],
        ["constants", "--threads", "4"],
        # NaN fails every `x < bound` test, so each guard must reject it
        ["iterate", "--initial", "nan,1"],
        ["avg-rank", "--deltas", "nan,0.1"],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"densities": ["nan", 0.5, 0.5]}})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "mode": "sampled", "Y": "nan"})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "threshold": "nan"})],
        # 1e400 parses as inf; int(inf) overflows, and an infinite stream
        # rate or cutoff would never end the stream
        ["fans", JsonFile({"m": 1e400, "k": 3, "X": 10.0})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"seed": 1e400}})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"growth_rate": 1e400}})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"X": 1e400}})],
        ["disparity", JsonFile({"rank_of_trivial": 1e400, "places": []})],
        # log L_3 = 5 exp(50 + 5 exp(50)) overflows while the bounds are built
        ["fans", JsonFile({"m": 3, "k": 4, "X": 10, "rate": {"family": "exponential", "a": 5}})],
        # a sampled run needs at least one walk per level
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "mode": "sampled", "walks": 0})],
        [
            "fans",
            JsonFile({"m": 2, "k": 3, "X": 10.0, "mode": "sampled", "walks": 29, "levels": 30}),
        ],
        # numpy rejects negative seeds only once it is handed one
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0}), "--seed", "-1"],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "seed": -1})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10.0, "stream": {"seed": -3}})],
        # a list is unhashable, so a mode lookup must not hash it
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "mode": [1]})],
        # density entries that are not one flat list of numbers
        ["iterate", "--initial", JsonFile({"values": "ab"}, prefix="@")],
        ["iterate", "--initial", JsonFile({"values": 5}, prefix="@")],
        ["iterate", "--initial", JsonFile({"values": [[0.5], [0.5]]}, prefix="@")],
        ["iterate", "--initial", JsonFile({"values": [1.0], "extra": 1}, prefix="@")],
        # an int field refuses a fraction instead of truncating it
        ["fans", JsonFile({"m": 2.7, "k": 3, "X": 10})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "levels": 4.5})],
        [
            "disparity",
            JsonFile({
                "rank_of_trivial": 0,
                "places": [{"id": "a", "characters": [
                    {"h_parity": 0, "delta_value": 1}, {"h_parity": 0.6, "delta_value": 1},
                ]}],
            }),
        ],
        # a present stream, rate or inline table must be an object
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "stream": []})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "stream": 0})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "stream": False})],
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "rate": None})],
        # orientation is checked when the spec is read, with or without a
        # table, so it fails before the table file is opened or a fan is run
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "orientation": "sideways"})],
        [
            "fans",
            JsonFile({"m": 2, "k": 3, "X": 10, "orientation": "sideways", "table": "no-table.json"}),
        ],
        # a repeated place id would overwrite delta_v[id] while delta
        # multiplies both places; ids are strings, so 5 and "5" collide
        [
            "disparity",
            JsonFile({"rank_of_trivial": 0, "places": [
                {"id": "a", "characters": [{"h_parity": 0, "delta_value": 1}]},
                {"id": "a", "characters": [{"h_parity": 0, "delta_value": 1}]},
            ]}),
        ],
        [
            "disparity",
            JsonFile({"rank_of_trivial": 0, "places": [
                {"id": 5, "characters": [{"h_parity": 0, "delta_value": 1}]},
                {"id": "5", "characters": [{"h_parity": 0, "delta_value": 1}]},
            ]}),
        ],
        # a fan average needs at least one level
        ["fans", JsonFile({"m": 2, "k": 3, "X": 10, "levels": 0})],
    ],
)
def test_bad_input_exits_one(argv, tmp_path, capsys):
    argv = list(argv)
    for i, arg in enumerate(argv):
        if isinstance(arg, JsonFile):
            path = tmp_path / f"arg{i}.json"
            path.write_text(json.dumps(arg.data))
            argv[i] = arg.prefix + str(path)
    code, out, err = run(argv, capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_fans_runs_when_only_an_unused_bound_would_overflow(tmp_path, capsys):
    # L_1..L_3 = e^2, e^7.39 and e^11957 are finite; L_4, which no slot
    # reads, is not
    path = tmp_path / "spec.json"
    spec = {"m": 3, "k": 4, "X": 2.0, "rate": {"family": "exponential", "a": 1}}
    path.write_text(json.dumps(spec))
    code, out, err = run(["fans", str(path), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["footer"]["residual"] < 1e-10


def test_fans_zero_levels_is_rejected_when_read(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"m": 2, "k": 3, "X": 10, "levels": 0}))
    code, out, err = run(["fans", str(path)], capsys)
    assert code == 1
    assert "levels must be an int >= 1, got 0" in err


def test_disparity_command(tmp_path, capsys):
    table_path = tmp_path / "table.json"
    table_path.write_text(table_json())
    code, out, err = run(["disparity", str(table_path), "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["delta"] == pytest.approx(0.2)
    assert payload["footer"]["delta_v[a]"] == pytest.approx(0.5)
    assert payload["footer"]["delta_v[b]"] == pytest.approx(0.8)
    expect = sl.average_rank(0.2)
    assert payload["footer"]["average_rank"] == pytest.approx(expect, abs=1e-9)


def test_avg_rank_reference_constants(capsys):
    code, out, err = run(["avg-rank", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["footer"]["intercept"] == pytest.approx(1.2645, abs=5e-4)
    assert payload["footer"]["slope"] == pytest.approx(0.1211, abs=5e-4)
    assert payload["footer"]["value_at_half"] == pytest.approx(1.3252, abs=5e-4)
    assert len(payload["rows"]) == 21


def test_avg_rank_explicit_grid(capsys):
    code, out, err = run(
        ["avg-rank", "--format", "json", "--deltas", "0.0,0.5"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [row[0] for row in payload["rows"]] == [0.0, 0.5]


def test_avg_rank_negative_first_delta_with_equals(capsys):
    # "--deltas -0.5,..." reads the list as an option; the "=" form does not
    code, out, err = run(["avg-rank", "--format", "json", "--deltas=-0.5,0,0.5"], capsys)
    assert code == 0
    assert [row[0] for row in json.loads(out)["rows"]] == [-0.5, 0.0, 0.5]


@pytest.mark.parametrize("deltas", ["0,1e-162", "0,1e-200", "1e-300,2e-300"])
def test_avg_rank_rejects_a_grid_whose_squares_underflow(deltas, capsys):
    # np.polyfit scales the delta column by its norm, 0 here, and used to
    # die in its least-squares solve with a LinAlgError traceback
    code, out, err = run(["avg-rank", f"--deltas={deltas}"], capsys)
    assert code == 1
    assert out == ""
    assert err == "error: the affine fit needs a delta whose square is nonzero in float64\n"


def test_avg_rank_fits_the_smallest_grids_it_can_scale(capsys):
    # 1e-160 squared is subnormal but not 0, so the fit runs
    code, out, err = run(["avg-rank", "--format", "json", "--deltas=0,1e-160"], capsys)
    assert code == 0
    assert json.loads(out)["footer"]["slope"] == pytest.approx(-4.04848346492236e144)


def test_fans_walks_past_int64_per_level_exit_one(tmp_path, capsys):
    # 10**30 walks over 3 levels used to overflow inside rng.multinomial
    spec = fans_spec(tmp_path, mode="sampled", levels=3, walks=10**30, Y=100.0)
    code, out, err = run(["fans", spec], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: need at most 2**63 - 1 walks per level, got {10**30 // 3}\n"


def test_iterate_rejects_steps_past_a_float64_table(capsys):
    # np.empty used to raise "Maximum allowed dimension exceeded"
    code, out, err = run(["iterate", "--steps", str(10**20)], capsys)
    assert code == 1
    assert out == ""
    assert err == f"error: --steps must be < {2**60 - 1} for a float64 table, got {10**20}\n"


def test_out_of_memory_exits_one(monkeypatch, capsys):
    # a subcommand that cannot allocate what it needs; nothing is allocated
    def cmd_constants(args):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(cli, "cmd_constants", cmd_constants)
    monkeypatch.setattr(cli, "_PARSER", cli.build_parser())  # binds the stand-in
    code, out, err = run(["constants"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: out of memory: Unable to allocate 7.28 TiB\n"


def test_out_file_and_determinism(tmp_path, capsys):
    spec = fans_spec(tmp_path, mode="sampled", walks=4000, Y=200.0, seed=9)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out_path in (a, b):
        code, out, err = run(
            ["fans", spec, "--format", "json", "--out", str(out_path)], capsys
        )
        assert code == 0
        assert out == ""  # artifact went to the file
    assert a.read_bytes() == b.read_bytes()


def test_out_into_missing_directory_exits_three(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x.csv"
    code, out, err = run(["constants", "--out", str(out_path)], capsys)
    assert code == 3


def test_version_flag_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["--version"])
    assert info.value.code == 0
    assert sl.__version__ in capsys.readouterr().out


def test_avg_rank_checks_the_window_before_the_deltas(capsys):
    # c_n is computed once, before the grid is tilted, so a bad prime is
    # reported ahead of a bad delta
    code, out, err = run(["avg-rank", "-p", "4", "--deltas", "0.9,0.1"], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("error: p = 4 is not prime")
    code, out, err = run(["avg-rank", "--deltas", "0.9,0.1"], capsys)
    assert code == 1
    assert err.startswith("error: |delta| must be <= 1/2, got 0.9")


@pytest.mark.parametrize("command", ["avg-rank", "disparity"])
def test_c_constants_once_per_command(command, tmp_path, capsys, monkeypatch):
    calls = []
    original = sl.lagrangian.c_constants

    def counting(params):
        calls.append(params)
        return original(params)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "selmerlab" and getattr(module, "c_constants", None) is original:
            monkeypatch.setattr(module, "c_constants", counting)
    table = tmp_path / "table.json"
    table.write_text(table_json())
    argv = [command, str(table)] if command == "disparity" else [command]
    code, out, err = run(argv, capsys)
    assert code == 0
    assert len(calls) == 1


def test_parser_reuse_leaks_nothing_between_calls(tmp_path, capsys):
    table = tmp_path / "table.json"
    table.write_text(table_json())
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"m": 2, "k": 3, "X": 10.0, "levels": 3}))
    artifact = tmp_path / "a.json"
    code, out, err = run(
        ["avg-rank", "--deltas", "0.1,0.3", "--orientation", "even_heavy", "-p", "3",
         "-N", "12", "--seed", "5", "--out", str(artifact), "--format", "json"],
        capsys,
    )
    assert (code, out) == (0, "")
    assert json.loads(artifact.read_text())["params"]["orientation"] == "even_heavy"
    code, out, err = run(["avg-rank", "--grid", "1"], capsys)
    assert code == 1

    src = str(Path(sl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv in (
        ["avg-rank", "--format", "json"], ["constants"], ["equilibrium"], ["iterate"],
        ["disparity", str(table)], ["fans", str(spec)],
    ):
        code, out, err = run(argv, capsys)
        report = json.loads(err)
        assert (report["seed"], report["out"]) == (0, None)
        alone = subprocess.run(
            [sys.executable, "-m", "selmerlab.cli", *argv],
            env=env, capture_output=True, timeout=120,
        )
        assert (code, out.encode()) == (alone.returncode, alone.stdout), argv


# The per-cell writers the one-pass table writers replaced, kept as their
# oracle: every float through float(f"{v:.15g}") and json.dumps in JSON,
# through f"{v:.6g}" in CSV.

def reference_round15(obj):
    if isinstance(obj, float):
        return float(f"{obj:.15g}")
    if isinstance(obj, dict):
        return {key: reference_round15(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_round15(value) for value in obj]
    return obj


def reference_csv_cell(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def reference_render(payload, fmt):
    # ``payload`` holds "rows", lists of Python ints and floats.
    if fmt == "json":
        return json.dumps(reference_round15(payload), sort_keys=True) + "\n"
    lines = [f"# {k} = {reference_csv_cell(v)}" for k, v in sorted(payload["params"].items())]
    lines.append(",".join(payload["columns"]))
    lines += [",".join(reference_csv_cell(v) for v in row) for row in payload["rows"]]
    lines += [f"# {k} = {reference_csv_cell(v)}" for k, v in sorted(payload["footer"].items())]
    return "\n".join(lines) + "\n"


def rows_of(table):
    return [list(row) for row in zip(*(column.tolist() for column in table))]


def check_table_writers(table):
    rows = rows_of(table)
    assert cli._json_rows(table) == json.dumps(reference_round15(rows))
    assert cli._csv_rows(table) == "\n".join(
        ",".join(reference_csv_cell(v) for v in row) for row in rows
    )


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


EDGE_VALUES = [
    0.0, -0.0, 1.0, -1.0, 2.0, 10.0, 0.5, 0.25, 0.1, 1 / 3, 2 / 3,
    0.9999999999999999, 1.0000000000000002, 99999999999999.99, 1e14, 1e-4, 1e-5,
    2.2250738585072014e-308, 5e-324, math.nan, math.inf, -math.inf, 1e300,
    123456789012345.0, 99999999999999.0, 9999999999999.99, 1e15, 1e16, 1e17,
    0.00010000000000000002, 9.999999999999999e-05, 0.30000000000000004,
    # signaling NaNs, on which np.rint raises "invalid value"
    from_bits(0x7FF0000000000001), from_bits(0x7FF4000000000000),
]


def near_boundaries():
    # Values a few ulps either side of every place where "%.15g" starts
    # or stops printing a whole number: n + (half a 15th-digit unit) for
    # integers n at each decade, and the powers of ten themselves.
    values = []
    for e in range(-1, 14):
        radius = 5 * 10.0 ** (e - 15)
        for n in {1, 3, 10**e, 2 * 10**e, 10 ** (e + 1) - 1}:
            for center in (n - radius, n + radius, float(n), float(10 ** (e + 1))):
                value = center
                for _ in range(12):
                    value = math.nextafter(value, -math.inf)
                for _ in range(25):
                    values.append(value)
                    value = math.nextafter(value, math.inf)
    return values


@pytest.mark.parametrize("ints", [True, False])
def test_table_writers_match_the_per_cell_formulas_at_edges(ints):
    edges = EDGE_VALUES + [-v for v in EDGE_VALUES] + near_boundaries()
    edges += [float(n) for n in (7, 42, 1000, 65536, 10**13, 2**46, 10**14 - 1)]
    values = np.array(edges)
    if len(values) % 2:
        values = np.append(values, 3.5)
    for floats in ([values[0::2], values[1::2]], [values]):
        index = [np.arange(len(floats[0]))] if ints else []
        check_table_writers(index + floats)


def any_float():
    return st.one_of(
        st.integers(0, 2**64 - 1).map(from_bits),
        st.sampled_from(EDGE_VALUES),
        st.integers(-(10**15), 10**15).map(float),
        st.floats(allow_nan=True, allow_infinity=True),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(
    data=st.data(),
    rows=st.integers(0, 8),
    width=st.integers(1, 3),
    ints=st.booleans(),
)
def test_table_writers_match_the_per_cell_formulas(data, rows, width, ints):
    floats = [
        np.array(data.draw(st.lists(any_float(), min_size=rows, max_size=rows)))
        .astype(np.float64)
        for _ in range(width)
    ]
    index = []
    if ints:
        cells = st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows)
        index = [np.array(data.draw(cells), dtype=np.int64)]
    check_table_writers(index + floats)


SUBCOMMAND_ARGVS = [
    ["constants", "-p", "3"],
    ["constants", "-p", "101", "-N", "200"],
    ["equilibrium", "-p", "7"],
    ["iterate", "--steps", "5", "--initial", "0.25,0.75"],
    ["disparity", "TABLE"],
    ["avg-rank", "-p", "3"],
    ["avg-rank", "--deltas=-0.5,0,1e-5,0.5"],
    ["fans", "SPEC"],
    ["fans", "TABLE_SPEC"],
    ["fans", "SAMPLED_SPEC"],
]


def subcommand_argv(argv, tmp_path):
    # ``argv`` with its TABLE and *_SPEC placeholders written as files.
    table = tmp_path / "table.json"
    table.write_text(table_json())
    specs = {
        "SPEC": {"m": 3, "k": 4},
        "TABLE_SPEC": {"m": 3, "k": 4, "table": str(table), "N": 48},
        "SAMPLED_SPEC": {"mode": "sampled", "walks": 2000, "Y": 100.0, "seed": 3},
    }
    return [
        fans_spec(tmp_path, **specs[arg]) if arg in specs else str(table) if arg == "TABLE" else arg
        for arg in argv
    ]


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_each_subcommand_writes_the_per_cell_bytes(argv, fmt, tmp_path, capsys):
    argv = subcommand_argv(argv, tmp_path) + ["--format", fmt]
    args = cli._PARSER.parse_args(argv)
    payload, code = args.func(args)
    assert code == 0
    old = {key: value for key, value in payload.items() if key != "table"}
    old["rows"] = rows_of(payload["table"])
    assert run(argv, capsys)[1] == reference_render(old, fmt)


def per_key_render(payload):
    # The JSON writer before one json.dumps call wrote every non-table key:
    # each key's value dumped on its own, the table as "rows", joined in
    # sorted key order.
    texts = {"rows": cli._json_rows(payload["table"])}
    for key, value in payload.items():
        if key != "table":
            texts[key] = json.dumps(cli._round15(value), sort_keys=True)
    return "{" + ", ".join(f'"{key}": {texts[key]}' for key in sorted(texts)) + "}\n"


@pytest.mark.parametrize("argv", SUBCOMMAND_ARGVS)
def test_one_call_json_matches_the_per_key_rendering(argv, tmp_path):
    args = cli._PARSER.parse_args(subcommand_argv(argv, tmp_path) + ["--format", "json"])
    payload, _ = args.func(args)
    assert cli._render_json(payload) == per_key_render(payload)


def test_one_call_json_splices_rows_among_quoted_keys():
    # Strings that hold quotes, backslashes and the text '"rows": 0', and
    # keys on both sides of "rows" in sort order.
    table = [np.arange(3), np.array([0.5, 1 / 3, 2.0])]
    tricky = 'a "quoted" \\ back\\slash \\"rows\\": 0 "rows": 0'
    payload = {
        "params": {"initial": tricky, 'say "rows": 0': 1.0 / 3.0, "back\\": [tricky, 2]},
        "columns": ["n", 'c"ol\\'],
        "table": table,
        "footer": {'delta_v["a\\"]': 0.1, "rows_seen": 3},
        "summary": {"note": tricky, "x": 1e-5},
        "zeta": [1.0, "\\"],
    }
    assert cli._render_json(payload) == per_key_render(payload)
    rendered = json.loads(cli._render_json(payload))
    assert rendered["rows"] == reference_round15(rows_of(table)) and rendered["params"]["initial"] == tricky
    assert list(rendered) == ["columns", "footer", "params", "rows", "summary", "zeta"]


def main_text(argv):
    # cli.main under hypothesis, which cannot share capsys between examples
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def reference_text(build, fmt):
    # (exit code, artifact, error line) of a payload builder that raises as
    # the CLI does
    try:
        payload = build()
    except sl.SelmerLabError as exc:
        return 1, "", f"error: {exc}"
    return 0, cli._render_json(payload) if fmt == "json" else cli._render_csv(payload), ""


def iterate_payload(p, N, initial, steps):
    # cmd_iterate as one apply per half step and one l1_distance per row
    params = sl.LagrangianParams(p, N)
    f = cli._parse_initial(initial, N)
    target = sl.predicted_limit(f, "even", params)
    operator = sl.build_lagrangian(params)
    distances, current = [], f
    for _ in range(steps + 1):
        distances.append(sl.l1_distance(current, target))
        current = sl.apply(operator, sl.apply(operator, current))
    return {
        "params": {"p": p, "N": N, "initial": initial, "steps": steps},
        "columns": ["step", "distance_to_limit"],
        "table": [np.arange(steps + 1), np.array(distances)],
        "footer": {"rho": sl.rho_parity(f), "final_distance": distances[-1]},
    }


# 1.0000000000009999 and 0.9999999999990001 sum to within 1e-12 of 1, but
# the operator's rounding takes a later iterate past it.  From the first, at
# p = 3, N = 64, the half step of double step 2 (the last one --steps 2
# takes, whose row the table never reads) and at p = 2, N = 12 the full step
# of double step 5; from the second, at p = 2, N = 12, the half step of
# double step 14 alone, as the full step after it is back within 1e-12.
@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.integers(2, 140),
    steps=st.integers(0, 600),
    initial=st.sampled_from(
        ["delta0", "delta1", "delta3", "0.5,0.5", "0.1,0.2,0.3,0.4", "1.0000000000009999",
         "0.9999999999990001"]
    ),
)
@example(p=2, N=140, steps=600, initial="0.1,0.2,0.3,0.4")
@example(p=3, N=129, steps=128, initial="delta1")
@example(p=3, N=64, steps=2, initial="1.0000000000009999")
@example(p=3, N=64, steps=1, initial="1.0000000000009999")
@example(p=2, N=12, steps=5, initial="1.0000000000009999")
@example(p=2, N=12, steps=4, initial="1.0000000000009999")
@example(p=2, N=12, steps=14, initial="0.9999999999990001")
@example(p=2, N=12, steps=13, initial="0.9999999999990001")
def test_iterate_blocks_match_a_per_step_loop(p, N, steps, initial):
    # the blocked M_L**2 loop writes the bytes of a loop that wraps and
    # checks every half and full step, and fails where it fails
    argv = ["iterate", "-p", str(p), "-N", str(N), "--steps", str(steps), "--initial", initial]
    for fmt in ("json", "csv"):
        code, out, err = main_text(argv + ["--format", fmt])
        want = reference_text(lambda: iterate_payload(p, N, initial, steps), fmt)
        assert (code, out, err.splitlines()[0] if code else "") == want


def avg_rank_payload(p, N, grid, orientation):
    # cmd_avg_rank as one checked density and one mean per delta
    if len(set(grid)) < 2:
        raise sl.ValidationError("the affine fit needs at least two distinct deltas")
    c = sl.c_constants(sl.LagrangianParams(p, N))

    def mean(delta):
        if not abs(delta) <= 0.5:
            raise sl.DisparityOutOfRange(f"|delta| must be <= 1/2, got {delta}")
        limit = _mixture(c, 0.5 + delta if orientation == "odd_heavy" else 0.5 - delta)
        return float(np.arange(N) @ limit.values)

    means = [mean(delta) for delta in grid]
    slope, intercept = np.polyfit(grid, means, 1)
    return {
        "params": {"p": p, "N": N, "orientation": orientation},
        "columns": ["delta", "mean_rank"],
        "table": [np.array(grid, dtype=np.float64), np.array(means)],
        "footer": {
            "intercept": float(intercept), "slope": float(slope), "value_at_half": mean(0.5),
        },
    }


def delta_grids():
    # Explicit deltas are multiples of 1/2000: np.polyfit cannot fit deltas
    # below about 1e-154 (the sum of their squares underflows), which is no
    # matter of how the limits are tilted.
    explicit = st.lists(st.integers(-1000, 1000).map(lambda k: k / 2000), min_size=2, max_size=600)
    return st.one_of(st.integers(2, 600), explicit)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.sampled_from([2, 4, 12, 64, 140]),
    grid=delta_grids(),
    orientation=st.sampled_from(["odd_heavy", "even_heavy"]),
    bad=st.none() | st.tuples(st.sampled_from([0.7, -0.6, math.nan, math.inf]), st.floats(0, 1)),
)
@example(p=2, N=64, grid=600, orientation="odd_heavy", bad=None)
@example(p=3, N=140, grid=[k / 2000 for k in range(-300, 300)], orientation="even_heavy", bad=None)
@example(p=2, N=64, grid=[0.0, 0.1] * 200, orientation="odd_heavy", bad=(0.7, 0.5))
@example(p=2, N=64, grid=[0.0, 0.1] * 200, orientation="even_heavy", bad=(math.nan, 0.9))
@example(p=2, N=4, grid=[0.0, 0.1] * 200, orientation="odd_heavy", bad=(0.7, 0.9))
@example(p=2, N=4, grid=[0.0, 0.1], orientation="odd_heavy", bad=(0.7, 0.9))
def test_avg_rank_blocks_match_a_per_delta_loop(p, N, grid, orientation, bad):
    # the grid tilted a block at a time writes the bytes of one checked
    # density per delta, and a bad delta (or density) fails as the first
    # one would
    if isinstance(grid, int):
        argv, deltas = ["--grid", str(grid)], list(np.linspace(-0.5, 0.5, grid))
    else:
        deltas = list(grid)
        if bad is not None:
            deltas.insert(int(bad[1] * len(deltas)), bad[0])
        argv = ["--deltas=" + ",".join(repr(float(d)) for d in deltas)]
    argv = ["avg-rank", "-p", str(p), "-N", str(N), "--orientation", orientation] + argv
    for fmt in ("json", "csv"):
        code, out, err = main_text(argv + ["--format", fmt])
        want = reference_text(lambda: avg_rank_payload(p, N, deltas, orientation), fmt)
        assert (code, out, err.splitlines()[0] if code else "") == want


def test_avg_rank_names_the_first_bad_delta(capsys):
    for deltas, shown in (("0,0.7", "0.7"), ("0,0.2,nan,0.7", "nan"), ("0.1,-0.6,0.9", "-0.6")):
        code, out, err = run(["avg-rank", f"--deltas={deltas}"], capsys)
        assert (code, out) == (1, "")
        assert err == f"error: |delta| must be <= 1/2, got {shown}\n"


def test_iterate_delta_past_the_window_builds_nothing(capsys, monkeypatch):
    # a rank n >= N is reported from its digits, before any list is built
    def build(*args):
        raise AssertionError("make_density was called")

    monkeypatch.setattr(cli, "make_density", build)
    code, out, err = run(["iterate", "--initial", "delta3000000"], capsys)
    assert (code, out, err) == (1, "", "error: raw has length 3000001 > N = 64\n")
    code, out, err = run(["iterate", "-N", "12", "--initial", "delta0012"], capsys)
    assert (code, out, err) == (1, "", "error: raw has length 13 > N = 12\n")


def test_iterate_delta_with_thousands_of_digits_exits_one(capsys):
    # more digits than int() reads by default (4300), still exit 1 with
    # the window message
    code, out, err = run(["iterate", "--initial", "delta" + "9" * 5000], capsys)
    assert (code, out) == (1, "")
    assert err == "error: raw has length 1" + "0" * 5000 + " > N = 64\n"
    leading_zeros = "delta" + "0" * 5000 + "1"
    code, out, err = run(["iterate", "--initial", leading_zeros, "--steps", "1"], capsys)
    assert code == 0 and err.startswith("{")
