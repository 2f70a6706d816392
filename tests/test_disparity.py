"""Tests for local disparity data, limit laws, and the rank functional."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selmerlab as sl
from selmerlab import cli
from selmerlab.disparity import (
    DisparityTable,
    InitialPair,
    LocalCharacter,
    LocalPlaceData,
    _limit_rows,
    _mean_rank,
)


TRIVIAL = LocalCharacter(0, 1)


def place(id, *signs):
    # builds a place whose characters realize the given sign list; the
    # first entry must be +1 so the trivial character is present
    assert signs[0] == 1
    chars = [TRIVIAL]
    for s in signs[1:]:
        chars.append(LocalCharacter(0, 1) if s == 1 else LocalCharacter(0, -1))
    return LocalPlaceData(id, tuple(chars))


def delta02_table():
    # local means 0.5 and 0.8, trivial twist of even rank:
    # delta = (1/2) * 0.5 * 0.8 = 0.2
    a = place("a", 1, 1, 1, -1)
    b = place("b", *([1] * 9 + [-1]))
    return DisparityTable((a, b), rank_of_trivial=0)


def test_local_character_sign():
    assert LocalCharacter(0, 1).sign == 1
    assert LocalCharacter(1, 1).sign == -1
    assert LocalCharacter(0, -1).sign == -1
    assert LocalCharacter(1, -1).sign == 1
    with pytest.raises(sl.ValidationError):
        LocalCharacter(2, 1)
    with pytest.raises(sl.ValidationError):
        LocalCharacter(0, 0)


def test_place_validation():
    with pytest.raises(sl.EmptyCharacterList):
        LocalPlaceData("v", ())
    with pytest.raises(sl.ValidationError):
        LocalPlaceData("v", (LocalCharacter(1, 1),))  # missing trivial


def test_delta_local_examples():
    assert sl.delta_local(place("v", 1)) == 1.0
    assert sl.delta_local(place("v", 1, -1)) == 0.0
    assert sl.delta_local(place("v", 1, 1, 1, -1)) == 0.5
    # h_parity folds into the sign
    mixed = LocalPlaceData("v", (TRIVIAL, LocalCharacter(1, -1)))
    assert sl.delta_local(mixed) == 1.0


def test_delta_global_examples():
    assert sl.delta_global(delta02_table()) == pytest.approx(0.2)
    flipped = DisparityTable(delta02_table().places, rank_of_trivial=1)
    assert sl.delta_global(flipped) == pytest.approx(-0.2)
    # a place with local mean -0.5 flips the product sign
    a = place("a", 1, -1, -1, -1)
    b = place("b", 1, 1, 1, -1)
    table = DisparityTable((a, b), rank_of_trivial=1)
    assert sl.delta_global(table) == pytest.approx(0.125)
    with pytest.raises(sl.ValidationError):
        DisparityTable((), rank_of_trivial=-1)


def test_table_rejects_repeated_place_ids():
    a = place("a", 1, -1, 1)
    with pytest.raises(sl.ValidationError, match="more than once"):
        DisparityTable((a, place("b", 1), place("a", 1)), rank_of_trivial=0)


def test_delta_global_stays_in_range():
    rng = np.random.default_rng(0)
    for _ in range(50):
        places = []
        for v in range(int(rng.integers(1, 4))):
            n = int(rng.integers(1, 7))
            signs = [1] + [int(s) for s in rng.choice([-1, 1], size=n)]
            places.append(place(f"v{v}", *signs))
        table = DisparityTable(tuple(places), int(rng.integers(0, 4)))
        assert abs(sl.delta_global(table)) <= 0.5 + 1e-12


def test_table_json_round_trip():
    chars = [{"h_parity": 0, "delta_value": 1}] * 3 + [{"h_parity": 0, "delta_value": -1}]
    text = json.dumps({"rank_of_trivial": 0, "places": [{"id": "a", "characters": chars}]})
    back = cli._read_table(json.loads(text))
    assert back == DisparityTable((place("a", 1, 1, 1, -1),), rank_of_trivial=0)
    with pytest.raises(sl.ValidationError):
        cli._read_table(json.loads('{"rank_of_trivial": 0, "places": [], "x": 1}'))
    with pytest.raises(sl.ValidationError):
        cli._read_table(json.loads(
            '{"rank_of_trivial": 0, "places": [{"id": "v", "characters": '
            '[{"h_parity": 0, "delta_value": 1}], "extra": 2}]}'
        ))


def test_initial_from_disparity():
    pair = sl.initial_from_disparity(0.2, 16)
    assert pair.e1_plus.values[0] == pytest.approx(0.7)
    assert pair.e1_plus.values[1] == pytest.approx(0.3)
    assert sl.rho_parity(pair.e1_plus) + sl.rho_parity(pair.e1_minus) == 1.0
    with pytest.raises(sl.DisparityOutOfRange):
        sl.initial_from_disparity(0.6, 16)
    with pytest.raises(sl.ValidationError):
        InitialPair(
            sl.make_density([1.0], 8), sl.make_density([0.5, 0.5], 8)
        )


def test_finite_fan_distribution_small_k():
    pair = sl.initial_from_disparity(0.2, 64)
    d0 = sl.finite_fan_distribution(pair, 0, 2, 64)
    assert sl.l1_distance(d0, pair.e1_plus) == 0.0
    d1 = sl.finite_fan_distribution(pair, 1, 2, 64)
    M = sl.build_lagrangian(sl.LagrangianParams(2, 64))
    assert sl.l1_distance(d1, sl.apply(M, pair.e1_minus)) == 0.0
    with pytest.raises(sl.ValidationError):
        sl.finite_fan_distribution(pair, -1, 2, 64)


def test_finite_fan_converges_to_even_heavy_limit():
    # the pair built from delta has rho(e1_plus) = 1/2 - delta, so its
    # even-width limit weights odd ranks by 1/2 - delta: the even_heavy
    # orientation at the same delta
    for delta in (-0.3, 0.0, 0.2, 0.5):
        pair = sl.initial_from_disparity(delta, 64)
        d40 = sl.finite_fan_distribution(pair, 40, 2, 64)
        lim = sl.limit_distribution(delta, 2, 64, orientation="even_heavy")
        assert sl.l1_distance(d40, lim) < 1e-6


def test_limit_distribution_extremes():
    pair = sl.equilibrium(sl.LagrangianParams(2, 64))
    lim = sl.limit_distribution(0.5, 2, 64, orientation="odd_heavy")
    assert sl.l1_distance(lim, pair.e_minus) < 1e-12
    lim = sl.limit_distribution(-0.5, 2, 64, orientation="odd_heavy")
    assert sl.l1_distance(lim, pair.e_plus) < 1e-12
    # at delta = 0 the two orientations agree: the balanced mixture
    a = sl.limit_distribution(0.0, 2, 64, orientation="odd_heavy")
    b = sl.limit_distribution(0.0, 2, 64, orientation="even_heavy")
    assert sl.l1_distance(a, b) == 0.0
    half = 0.5 * (pair.e_plus.values + pair.e_minus.values)
    assert np.abs(a.values - half).max() < 1e-12


def test_limit_distribution_is_normalized_on_a_grid():
    for j in range(21):
        delta = -0.5 + j * 0.05
        lim = sl.limit_distribution(delta, 2, 64)
        assert lim.values.min() >= 0.0
        assert lim.values.sum() == pytest.approx(1.0, abs=1e-10)
        assert sl.rho_parity(lim) == pytest.approx(0.5 + delta, abs=1e-10)


# Each moment term is c_r rounded once, weighted by a rounded 1/2 +- delta,
# times a rounded integrand, and fsum adds the terms exactly before one last
# rounding: a few units of 2**-53 each, and the terms are all >= 0.
LIMIT_MOMENT_RTOL = 4 * 2**-52


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
@pytest.mark.parametrize("orientation", ["odd_heavy", "even_heavy"])
def test_limit_distribution_has_the_paper_moments(p, orientation):
    # both parity classes have moments p**(m(m+1)/2), so every mixture of
    # them, the limit law at any delta, has them too
    for delta in np.linspace(-0.5, 0.5, 11).tolist():
        values = sl.limit_distribution(delta, p, 64, orientation).values.tolist()
        for m in range(5):
            target = p ** (m * (m + 1) // 2)
            moment = math.fsum(
                x * float(math.prod(p**r - p**i for i in range(m)))
                for r, x in enumerate(values) if x  # a zero c_r's integrand can overflow
            )
            assert abs(moment / target - 1) <= LIMIT_MOMENT_RTOL, (delta, m)


def test_limit_distribution_orientation_mirror():
    for delta in (-0.4, -0.1, 0.25):
        a = sl.limit_distribution(delta, 2, 64, orientation="odd_heavy")
        b = sl.limit_distribution(-delta, 2, 64, orientation="even_heavy")
        assert sl.l1_distance(a, b) == 0.0
    with pytest.raises(sl.ValidationError):
        sl.limit_distribution(0.0, 2, 64, orientation="upside_down")
    with pytest.raises(sl.DisparityOutOfRange):
        sl.limit_distribution(0.7, 2, 64)


def test_limit_distribution_is_equilibrium_mixture():
    pair = sl.equilibrium(sl.LagrangianParams(2, 64))
    for delta in (-0.5, -0.15, 0.0, 0.3):
        lim = sl.limit_distribution(delta, 2, 64, orientation="odd_heavy")
        mix = (0.5 - delta) * pair.e_plus.values + (0.5 + delta) * pair.e_minus.values
        assert np.abs(lim.values - mix).max() < 1e-12


@settings(max_examples=80, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.sampled_from([12, 32, 64]),
    delta=st.floats(-0.5, 0.5),
    orientation=st.sampled_from(["odd_heavy", "even_heavy"]),
)
def test_limit_distribution_is_predicted_limit_bit_for_bit(p, N, delta, orientation):
    # the delta-tilted limit is the even-power limit of a start with odd
    # mass w = 1/2 +- delta; both apply one parity rule to the same c_n
    w = 0.5 + delta if orientation == "odd_heavy" else 0.5 - delta
    params = sl.LagrangianParams(p, N)
    start = sl.make_density([1 - w, w], N)
    predicted = sl.predicted_limit(start, "even", params)
    limit = sl.limit_distribution(delta, p, N, orientation)
    assert limit.values.tobytes() == predicted.values.tobytes()
    # an odd power weights the odd ranks by 1.0 - rho, which is the odd
    # mass of the swapped start, not w itself (1 - (1 - w) != w in floats)
    swapped = sl.make_density([w, 1 - w], N)
    odd = sl.predicted_limit(start, "odd", params)
    assert odd.values.tobytes() == sl.predicted_limit(swapped, "even", params).values.tobytes()


def test_average_rank_reference_values():
    assert sl.average_rank(0.0) == pytest.approx(1.2645, abs=5e-4)
    assert sl.average_rank(0.5) == pytest.approx(1.3252, abs=5e-4)
    slope = sl.average_rank(0.5) - sl.average_rank(-0.5)
    assert slope == pytest.approx(0.1211, abs=5e-4)


def test_average_rank_is_affine():
    base = sl.average_rank(0.0)
    slope = 2.0 * (sl.average_rank(0.5) - base)
    for delta in (-0.5, -0.2, 0.1, 0.35):
        assert sl.average_rank(delta) == pytest.approx(base + delta * slope, abs=1e-12)
    # even_heavy mirrors the slope
    assert sl.average_rank(0.3, orientation="even_heavy") == pytest.approx(
        sl.average_rank(-0.3), abs=1e-15
    )


@settings(max_examples=40, deadline=None, database=None)
@given(p=st.sampled_from([2, 3, 5, 7]), delta=st.floats(-0.5, 0.5))
def test_average_rank_from_parity_sums(p, delta):
    # the module docstring's law, from the constants: odd_heavy is
    # (A + B)/2 + delta (B - A), even_heavy flips the sign of delta
    c = sl.c_constants(sl.LagrangianParams(p, 64))
    n = np.arange(64)
    a = float(np.sum(n[0::2] * c[0::2]))
    b = float(np.sum(n[1::2] * c[1::2]))
    odd = sl.average_rank(delta, p, orientation="odd_heavy")
    even = sl.average_rank(delta, p, orientation="even_heavy")
    assert odd == pytest.approx((a + b) / 2 + delta * (b - a), abs=1e-12)
    assert even == pytest.approx((a + b) / 2 - delta * (b - a), abs=1e-12)


@settings(max_examples=60, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.sampled_from([12, 32, 64]),
    orientation=st.sampled_from(["odd_heavy", "even_heavy"]),
    deltas=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4),
)
def test_one_c_for_many_deltas_matches_the_public_functions(p, N, orientation, deltas):
    # the CLI computes c once and tilts it for a block of deltas at once;
    # each tilt must be bit-identical to a fresh public call and leave c
    # untouched
    c = sl.c_constants(sl.LagrangianParams(p, N))
    before = c.copy()
    rows = _limit_rows(c, deltas, orientation)
    for delta, row in zip(deltas, rows, strict=True):
        dist = sl.limit_distribution(delta, p, N, orientation)
        assert np.array_equal(row, dist.values)
        assert _mean_rank(row) == sl.average_rank(delta, p, N, orientation)
    assert np.array_equal(c, before)


def test_pairs_with_equal_parity_masses_share_limits():
    # the canonical pair and a spread-out pair with the same rho values
    # land on the same width-40 distribution
    canonical = sl.initial_from_disparity(0.2, 64)
    spread_plus = sl.make_density([0.35, 0.15, 0.35, 0.15], 64)
    spread_minus = sl.make_density([0.15, 0.35, 0.15, 0.35], 64)
    other = InitialPair(spread_plus, spread_minus)
    d_canon = sl.finite_fan_distribution(canonical, 40, 2, 64)
    d_other = sl.finite_fan_distribution(other, 40, 2, 64)
    assert sl.l1_distance(d_canon, d_other) < 1e-6


def rate():
    return sl.ConvergenceRate("power", coeff=1.0, exponent=2.0)


def test_end_to_end_exact_small_width():
    report = sl.end_to_end_fan_experiment(
        delta02_table(), rate(), 3, 4, 10.0, "exact_kernel", 2,
        rng=np.random.default_rng(0), levels=6,
    )
    assert report.delta == pytest.approx(0.2)
    assert report.residual_finite < 1e-12
    # k = 4 is even, the walk starts from e1_plus built at -delta, so
    # even ranks carry 1/2 - delta of the mass
    even_mass = report.fan.values[0::2].sum()
    assert even_mass == pytest.approx(0.3, abs=1e-12)
    assert report.residual_limit > 0.01  # width 4 is far from the limit


def test_end_to_end_exact_large_width_hits_limit():
    report = sl.end_to_end_fan_experiment(
        delta02_table(), rate(), 20, 40, 10.0, "exact_kernel", 2,
        rng=np.random.default_rng(1), levels=4,
    )
    assert report.residual_finite < 1e-12
    assert report.residual_limit < 1e-6


def test_end_to_end_orientation_swap():
    report = sl.end_to_end_fan_experiment(
        delta02_table(), rate(), 3, 4, 10.0, "exact_kernel", 2,
        rng=np.random.default_rng(2), levels=4, orientation="even_heavy",
    )
    even_mass = report.fan.values[0::2].sum()
    assert even_mass == pytest.approx(0.7, abs=1e-12)


def test_end_to_end_infeasible_shape():
    with pytest.raises(sl.InfeasibleFan):
        sl.end_to_end_fan_experiment(
            delta02_table(), rate(), 1, 3, 10.0, "exact_kernel", 2,
            rng=np.random.default_rng(3),
        )


def test_end_to_end_bad_orientation_fails_before_sampling():
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    with pytest.raises(sl.ValidationError):
        sl.end_to_end_fan_experiment(
            delta02_table(), rate(), 6, 9, 10.0, "sampled_at_Y", 2,
            rng=rng, levels=30, walks=100_000, y=1000.0, orientation="junk",
        )
    assert rng.bit_generator.state == before


def test_end_to_end_sampled_tracks_exact():
    exact = sl.end_to_end_fan_experiment(
        delta02_table(), rate(), 2, 3, 10.0, "exact_kernel", 2,
        rng=np.random.default_rng(4), levels=6,
    )
    sampled = sl.end_to_end_fan_experiment(
        delta02_table(), rate(), 2, 3, 10.0, "sampled_at_Y", 2,
        rng=np.random.default_rng(4), levels=6, walks=30_000, y=500.0,
    )
    assert sl.l1_distance(sampled.fan, exact.fan) < 0.05
    assert sampled.residual_finite < exact.residual_finite + 0.05
