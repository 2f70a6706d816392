"""Tests for stratification bounds, level sampling, and fan averaging."""

import math
import re
from bisect import bisect_right
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chi2_contingency

import selmerlab as sl
from selmerlab import fans
from selmerlab.fans import (
    Fan,
    FanSpec,
    Level,
    _fan_average,
    _fan_of,
    _floyd,
    _subsets,
    _uniforms,
    make_level,
    width_pattern,
)
from selmerlab.twists import TStepSampler, _compose


SQUARE = sl.ConvergenceRate("power", coeff=1.0, exponent=2.0)


def site(id, norm, width):
    return sl.PrimeSite(id, norm, width)


def w1_level(*norms):
    return make_level([site(100 + j, n, 1) for j, n in enumerate(norms)])


def test_rate_validation():
    with pytest.raises(sl.ValidationError):
        sl.ConvergenceRate("cubic")
    with pytest.raises(sl.ValidationError):
        sl.ConvergenceRate("power", coeff=0.5)
    with pytest.raises(sl.ValidationError):
        sl.ConvergenceRate("power", exponent=0.9)
    with pytest.raises(sl.ValidationError):
        SQUARE.log_value(-0.1)


def test_rate_values():
    assert SQUARE.log_value(math.log(10.0)) == pytest.approx(math.log(100.0))
    expo = sl.ConvergenceRate("exponential", coeff=1.0, exponent=1.0)
    assert expo.log_value(math.log(3.0)) == pytest.approx(3.0)
    with pytest.raises(OverflowError):
        expo.log_value(1000.0)


def test_strat_bounds_recursion():
    # R(Y) = Y**2, X = 10: L1 = 100, L2 = max(100**2, 10*100) = 1e4,
    # L3 = max((100 * 1e4)**2, 10 * 1e4) = 1e12; one bound per slot
    logs = sl.strat_bounds(SQUARE, 3, 10.0)
    assert len(logs) == 3
    assert logs[0] == pytest.approx(math.log(100.0))
    assert logs[1] == pytest.approx(math.log(1.0e4))
    assert logs[2] == pytest.approx(math.log(1.0e12))
    assert len(sl.strat_bounds(SQUARE, 0, 10.0)) == 0
    with pytest.raises(sl.ValidationError):
        sl.strat_bounds(SQUARE, 2, 0.5)
    with pytest.raises(sl.ValidationError):
        sl.strat_bounds(SQUARE, -1, 10.0)
    # R(Y) = exp(5 Y) at X = 10: log L_1 = 50 and log L_2 = 5 exp(50), so
    # log L_3 = 5 exp(50 + 5 exp(50)) overflows
    with pytest.raises(sl.ValidationError):
        sl.strat_bounds(sl.ConvergenceRate("exponential", 1.0, 5.0), 3, 10.0)


def test_strat_bounds_reject_an_infinite_rate():
    # exp(log 1e10) = 1e10 is finite, but a = 1e300 times it is not
    rate = sl.ConvergenceRate("exponential", 1.0, 1e300)
    with pytest.raises(OverflowError, match="overflows the log domain"):
        rate.log_value(math.log(1e10))
    with pytest.raises(sl.ValidationError, match="stratification bounds overflow"):
        sl.strat_bounds(rate, 1, 1e10)


@pytest.mark.parametrize("bad", [2.5, True, "2", math.nan, math.inf])
def test_fan_shapes_and_powers_must_be_non_bool_ints(bad):
    # 2.5 and "2" raised a raw TypeError, nan a ValueError and inf an
    # OverflowError; True ran as 1
    M = sl.build_lagrangian(sl.LagrangianParams(2, 8))
    pair = sl.initial_from_disparity(0.2, 8)
    calls = [
        lambda: FanSpec.from_rate(SQUARE, bad, 3, 10.0),
        lambda: FanSpec.from_rate(SQUARE, 2, bad, 10.0),
        lambda: FanSpec(bad, 0, 10.0, ()),
        lambda: sl.strat_bounds(SQUARE, bad, 10.0),
        lambda: sl.power(M, bad),
        lambda: sl.finite_fan_distribution(pair, bad, 2, 8),
        lambda: sl.fan_union_distribution(
            default_stream(), 4, bad, 10.0, SQUARE, make_initial(32), "exact_kernel", 2,
            np.random.default_rng(0)),
        lambda: sl.fan_union_distribution(
            default_stream(), bad, 3, 10.0, SQUARE, make_initial(32), "exact_kernel", 2,
            np.random.default_rng(0)),
    ]
    for call in calls:
        with pytest.raises(sl.ValidationError):
            call()
    # an integral float used to pass as a power
    with pytest.raises(sl.ValidationError, match="power requires an integer k >= 0"):
        sl.power(M, 2.0)


def test_strat_bounds_linear_rate():
    # with R(Y) = Y the X * L_n branch drives the first steps, then the
    # product branch takes over: R(10 * 100 * 1000) = 1e6 > 10 * 1000
    ident = sl.ConvergenceRate("power", 1.0, 1.0)
    logs = sl.strat_bounds(ident, 4, 10.0)
    assert [math.exp(v) for v in logs] == pytest.approx([10.0, 100.0, 1000.0, 1.0e6])


def test_fan_spec_validation():
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    assert spec.m == 2 and spec.k == 3
    assert len(spec.log_bounds) == 2
    with pytest.raises(sl.ValidationError):
        FanSpec(3, 3, 10.0, (1.0, 2.0))  # needs m bounds
    with pytest.raises(sl.ValidationError):
        FanSpec(2, 2, 10.0, (2.0, 1.0))  # bounds must be nondecreasing
    with pytest.raises(sl.ValidationError):
        FanSpec(-1, 0, 10.0, (1.0,))


def test_make_level_canonicalizes():
    lv = make_level([site(2, 50.0, 2), site(1, 7.0, 1)])
    assert [s.norm for s in lv.sites] == [7.0, 50.0]
    assert lv.width == 3
    with pytest.raises(sl.ValidationError):
        make_level([site(1, 7.0, 0)])
    with pytest.raises(sl.ValidationError):
        make_level([site(1, 7.0, 1), site(1, 7.0, 1)])


def test_level_membership_examples():
    spec = FanSpec.from_rate(SQUARE, 2, 2, 10.0)  # bounds 100, 1e4
    assert sl.level_membership(w1_level(50.0, 5000.0), spec)
    assert not sl.level_membership(w1_level(150.0, 5000.0), spec)
    assert not sl.level_membership(w1_level(50.0, 20000.0), spec)
    assert not sl.level_membership(w1_level(50.0), spec)  # wrong m
    mixed = make_level([site(1, 5.0, 1), site(2, 50.0, 2)])
    assert not sl.level_membership(mixed, spec)  # width 3, not 2
    assert sl.level_membership(mixed, FanSpec.from_rate(SQUARE, 2, 3, 10.0))


def test_membership_is_order_insensitive():
    # the slot test applies to sorted norms no matter the input order
    spec = FanSpec.from_rate(SQUARE, 2, 2, 10.0)
    a = make_level([site(1, 50.0, 1), site(2, 5000.0, 1)])
    b = make_level([site(2, 5000.0, 1), site(1, 50.0, 1)])
    assert sl.level_membership(a, spec) and sl.level_membership(b, spec)


def test_width_pattern():
    assert width_pattern(0, 0) == (0, 0)
    assert width_pattern(2, 3) == (1, 1)
    assert width_pattern(3, 3) == (3, 0)
    assert width_pattern(2, 4) == (0, 2)
    with pytest.raises(sl.InfeasibleFan):
        width_pattern(1, 3)
    with pytest.raises(sl.InfeasibleFan):
        width_pattern(3, 2)


def default_stream(x=2000.0, seed=0):
    return sl.synth_prime_stream(sl.StreamConfig(seed=seed), x)


def test_sample_levels_empty_shape():
    rng = np.random.default_rng(0)
    spec = FanSpec.from_rate(SQUARE, 0, 0, 10.0)
    levels = sl.sample_levels(default_stream(), spec, 5, rng)
    assert len(levels) == 5
    assert all(lv.sites == () for lv in levels)


def test_sample_levels_members_only():
    rng = np.random.default_rng(1)
    stream = default_stream()
    for m, k in ((1, 1), (1, 2), (2, 3), (3, 4)):
        spec = FanSpec.from_rate(SQUARE, m, k, 10.0)
        levels = sl.sample_levels(stream, spec, 40, rng)
        assert len(levels) == 40
        for lv in levels:
            assert sl.level_membership(lv, spec)
            n1, n2 = width_pattern(m, k)
            assert sum(1 for s in lv.sites if s.width == 1) == n1
            assert sum(1 for s in lv.sites if s.width == 2) == n2


def test_sample_levels_infeasible_shape():
    rng = np.random.default_rng(2)
    spec = FanSpec.from_rate(SQUARE, 1, 3, 10.0)
    with pytest.raises(sl.InfeasibleFan):
        sl.sample_levels(default_stream(), spec, 5, rng)


def test_sample_levels_missing_widths():
    rng = np.random.default_rng(3)
    only_twos = [site(j, 2.0 + j, 2) for j in range(10)]
    spec = FanSpec.from_rate(SQUARE, 2, 2, 10.0)
    with pytest.raises(sl.InfeasibleFan):
        sl.sample_levels(only_twos, spec, 5, rng)


def test_sample_levels_empty_fan_from_big_norms():
    rng = np.random.default_rng(4)
    # width-1 sites exist but none below L_1 = 100
    stream = [site(1, 5000.0, 1), site(2, 6000.0, 1), site(3, 2.0, 2)]
    spec = FanSpec.from_rate(SQUARE, 2, 2, 10.0)
    with pytest.raises(sl.EmptyFan):
        sl.sample_levels(stream, spec, 5, rng)


def test_enumerate_levels_caps_the_candidates():
    # 100 width-1 and 100 width-2 sites at (m, k) = (4, 6), which takes two
    # of each: comb(100, 2)**2 candidates, over the 2 000 000 cap
    stream = [site(j, 2.0 + j, 1 + j % 2) for j in range(200)]
    with pytest.raises(sl.ValidationError, match="24502500 candidates"):
        sl.enumerate_levels(stream, FanSpec.from_rate(SQUARE, 4, 6, 10.0))


def test_enumerate_levels_small_stream():
    stream = [
        site(1, 5.0, 1),
        site(2, 50.0, 1),
        site(3, 7000.0, 1),
        site(4, 3.0, 2),
        site(5, 20000.0, 2),
    ]
    spec2 = FanSpec.from_rate(SQUARE, 2, 2, 10.0)  # bounds 100, 1e4
    found = sl.enumerate_levels(stream, spec2)
    # pairs of width-1 sites with slots below (100, 1e4):
    # (5, 50), (5, 7000), (50, 7000) -- all first slots < 100
    assert len(found) == 3
    spec_mixed = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    found = sl.enumerate_levels(stream, spec_mixed)
    # width pattern (1, 1): the width-2 site at 3.0 pairs with any
    # width-1 site below 1e4 as the second slot
    assert len(found) == 3
    with pytest.raises(sl.ValidationError):
        sl.enumerate_levels(default_stream(), spec2)


def test_enumerate_levels_of_the_empty_fan():
    # the (0, 0) fan holds exactly the empty level, with no branch of its own
    stream = [site(1, 5.0, 1), site(2, 3.0, 2)]
    spec = FanSpec.from_rate(SQUARE, 0, 0, 10.0)
    found = sl.enumerate_levels(stream, spec)
    assert found == [Level(())]
    assert Fan(stream, spec).size == 1
    assert Fan(default_stream(), spec).size == 1


def test_enumeration_agrees_with_sampling_support():
    stream = [site(j, 2.0 + 3.0 * j, 1 + (j % 2)) for j in range(20)]
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    members = sl.enumerate_levels(stream, spec)
    assert members
    rng = np.random.default_rng(5)
    sampled = sl.sample_levels(stream, spec, 60, rng)
    member_set = {lv.sites for lv in members}
    assert all(lv.sites in member_set for lv in sampled)


@settings(max_examples=80, deadline=None, database=None)
@given(
    cells=st.lists(
        st.tuples(
            # a few fixed values so that norm ties occur
            st.one_of(st.floats(0.1, 30.0), st.sampled_from([2.0, 4.6, 9.2])),
            st.integers(0, 2),
        ),
        max_size=14,
    ),
    m=st.integers(0, 4),
    extra=st.integers(0, 4),
    X=st.floats(1.0, 100.0),
    exponent=st.sampled_from([1.0, 1.5, 2.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_fan_size_and_draws_property(cells, m, extra, X, exponent, seed):
    stream = [site(j, math.exp(log_norm), w) for j, (log_norm, w) in enumerate(cells)]
    k = m + min(extra, m)
    spec = FanSpec.from_rate(sl.ConvergenceRate("power", 1.0, exponent), m, k, X)
    members = {lv.sites for lv in sl.enumerate_levels(stream, spec)}
    assert Fan(stream, spec).size == len(members)
    if members:
        n1, n2 = width_pattern(m, k)
        for lv in sl.sample_levels(stream, spec, 10, np.random.default_rng(seed)):
            assert sl.level_membership(lv, spec) and lv.sites in members
            assert sum(1 for s in lv.sites if s.width == 1) == n1
            assert sum(1 for s in lv.sites if s.width == 2) == n2


def test_sample_levels_is_uniform_chi_squared():
    # norms 1.7**j straddle the bounds 100, 1e4, 1e12: three blocks
    stream = [site(j, 1.7 ** (j + 1), 1 + (j % 2)) for j in range(20)]
    spec = FanSpec.from_rate(SQUARE, 3, 4, 10.0)
    members = [lv.sites for lv in sl.enumerate_levels(stream, spec)]
    assert Fan(stream, spec).size == len(members) == 352
    draws = 20_000
    counts = dict.fromkeys(members, 0)
    for lv in sl.sample_levels(stream, spec, draws, np.random.default_rng(15)):
        counts[lv.sites] += 1
    observed = np.array(list(counts.values()), dtype=float)
    assert observed.min() > 0 and len(counts) == len(members)
    expected = draws / len(members)
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert chi2.sf(stat, df=len(members) - 1) > 1e-4


def chi_squared_p(counts, categories):
    observed = np.array([counts[c] for c in categories], dtype=float)
    expected = observed.sum() / len(categories)
    return chi2.sf(float(((observed - expected) ** 2 / expected).sum()), df=len(categories) - 1)


@pytest.mark.parametrize("n, x", [(6, 6), (6, 5), (1, 1), (7, 3)])
def test_subset_draw_is_uniform_at_its_edges(n, x):
    # x = n and n = 1 have one subset; x = n - 1 leaves one site out
    draws = 20_000
    us = _uniforms([math.perm(n, x)] * draws, np.random.default_rng(17 + n + x))
    counts = Counter(frozenset(_floyd(n, x, u)) for u in us)
    subsets = [frozenset(c) for c in combinations(range(n), x)]
    assert set(counts) == set(subsets)
    if len(subsets) > 1:
        assert chi_squared_p(counts, subsets) > 1e-4


@pytest.mark.parametrize("ones, twos", [(4, 3), (2, 1), (3, 2)])
def test_sample_levels_uniform_in_a_block_with_both_widths(ones, twos):
    # every site lies below L_1 = 100, so the fan is one block holding
    # both widths; (3, 4) takes two width-1 sites and one width-2 site,
    # which with (2, 1) is the whole block
    stream = [site(j, 2.0 + j, 1) for j in range(ones)]
    stream += [site(ones + j, 50.0 + j, 2) for j in range(twos)]
    spec = FanSpec.from_rate(SQUARE, 3, 4, 10.0)
    members = [lv.sites for lv in sl.enumerate_levels(stream, spec)]
    assert len(Fan(stream, spec).blocks) == 1
    assert len(members) == math.comb(ones, 2) * twos
    draws = 12_000
    counts = Counter(
        lv.sites for lv in sl.sample_levels(stream, spec, draws, np.random.default_rng(18))
    )
    assert set(counts) == set(members)
    if len(members) > 1:
        assert chi_squared_p(counts, members) > 1e-4


def test_sample_levels_returns_levels_in_draw_order():
    # the block-0 state of a level (its width-1 and width-2 sites below
    # L_1 = 100) has the same law in both halves of one long draw, as it
    # would not if levels came back grouped by state
    stream = [site(j, 1.7 ** (j + 1), 1 + (j % 2)) for j in range(20)]
    spec = FanSpec.from_rate(SQUARE, 3, 4, 10.0)
    levels = sl.sample_levels(stream, spec, 20_000, np.random.default_rng(19))
    states = [
        tuple(sum(1 for s in lv.sites if s.norm < 100.0 and s.width == w) for w in (1, 2))
        for lv in levels
    ]
    halves = [Counter(states[:10_000]), Counter(states[10_000:])]
    kinds = sorted(set(states))
    assert len(kinds) > 1
    table = [[half[kind] for kind in kinds] for half in halves]
    assert chi2_contingency(table)[1] > 1e-4


def test_sample_levels_sparse_fan_in_a_large_pool():
    # only sites 5 and 500 fit slots 1 and 2, so all 5000 members share
    # them; 5002 sites lie below L_3 = 1e12, so a uniform proposal from
    # that pool lands in the fan with probability about 2.4e-7
    stream = [site(0, 5.0, 1), site(1, 500.0, 1)]
    stream += [site(2 + j, 2.0e4 + j, 1) for j in range(5000)]
    spec = FanSpec.from_rate(SQUARE, 3, 3, 10.0)
    assert Fan(stream, spec).size == 5000
    levels = sl.sample_levels(stream, spec, 30, np.random.default_rng(16))
    assert all(sl.level_membership(lv, spec) for lv in levels)
    assert all(lv.sites[:2] == (stream[0], stream[1]) for lv in levels)
    assert len({lv.sites for lv in levels}) > 25


def test_stream_and_site_list_give_the_same_table_and_draws():
    stream = default_stream(2e4, seed=3)
    sites = list(stream)
    for m, k in ((2, 3), (6, 9), (20, 40)):
        spec = FanSpec.from_rate(SQUARE, m, k, 10.0)
        assert Fan(stream, spec).size == Fan(sites, spec).size > 0
        a = sl.sample_levels(stream, spec, 20, np.random.default_rng(m))
        b = sl.sample_levels(sites, spec, 20, np.random.default_rng(m))
        assert a == b


def test_held_fan_draws_what_sample_levels_draws():
    # sites out of norm order, with ids that are not their indices
    stream = [site(100 + j, 1.7 ** (20 - j), 1 + (j % 2)) for j in range(20)]
    spec = FanSpec.from_rate(SQUARE, 3, 4, 10.0)
    fan, rng = Fan(stream, spec), np.random.default_rng(20)
    held = [fan.ids[fan.draw(count, rng)].tolist() for count in (7, 5)]
    rng = np.random.default_rng(20)
    fresh = [
        [[s.id for s in lv.sites] for lv in sl.sample_levels(stream, spec, count, rng)]
        for count in (7, 5)
    ]
    assert held == fresh


def test_a_stream_keeps_one_fan_per_spec():
    stream = default_stream()
    spec = FanSpec.from_rate(SQUARE, 4, 6, 10.0)
    twin = FanSpec.from_rate(SQUARE, 4, 6, 10.0)
    assert twin == spec and twin is not spec
    fan = _fan_of(stream, spec)
    assert _fan_of(stream, twin) is fan
    assert _fan_of(stream, FanSpec.from_rate(SQUARE, 2, 3, 10.0)) is not fan
    sl.sample_levels(stream, twin, 3, np.random.default_rng(0))
    assert _fan_of(stream, spec) is fan
    # another stream, or a plain list of the same sites, builds its own
    assert _fan_of(default_stream(), spec) is not fan
    sites = list(stream)
    assert _fan_of(sites, spec) is not _fan_of(sites, spec)


def test_kept_fan_draws_what_a_fresh_fan_draws():
    # the kept Fan holds block rows from earlier draws; each of five draws
    # takes the same sites and leaves the generator in the same state as
    # a Fan built for that draw alone
    stream = default_stream(2e4, seed=3)
    for m, k in ((2, 3), (6, 9)):
        spec = FanSpec.from_rate(SQUARE, m, k, 10.0)
        kept = _fan_of(stream, spec)
        kept.draw(40, np.random.default_rng(99))
        for seed, count in enumerate((1, 7, 30, 64, 3)):
            a, b = np.random.default_rng(seed), np.random.default_rng(seed)
            assert kept.draw(count, a).tolist() == Fan(stream, spec).draw(count, b).tolist()
            assert a.bit_generator.state == b.bit_generator.state
        # a plain list of the same sites draws the same levels
        a = sl.sample_levels(stream, spec, 20, np.random.default_rng(m))
        b = sl.sample_levels(list(stream), spec, 20, np.random.default_rng(m))
        assert a == b


@pytest.mark.parametrize("mode", ["exact_kernel", "sampled_at_Y"])
def test_fan_collapse_bytes_do_not_depend_on_kept_fans(mode):
    init = sl.make_density([0.5, 0.5], 16)
    spec = FanSpec.from_rate(SQUARE, 4, 6, 10.0)

    def collapse(stream):
        rng = np.random.default_rng(5)
        fan, target = sl.fan_collapse(spec, stream, init, mode, 2, rng,
                                      levels=9, walks=9000, y=50.0)
        return fan.values.tobytes(), target.values.tobytes(), rng.bit_generator.state

    fresh = collapse(default_stream())
    used = default_stream()
    for m, k in ((2, 3), (6, 9), (4, 6)):
        sl.fan_collapse(FanSpec.from_rate(SQUARE, m, k, 10.0), used, init, mode, 2,
                        np.random.default_rng(m), levels=4, walks=400, y=20.0)
    assert collapse(used) == fresh == collapse(default_stream())
    assert collapse(list(used)) == fresh


def test_sample_levels_rejects_a_bad_count():
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    rng = np.random.default_rng(21)
    for count in (2.5, True, -1, "3"):
        with pytest.raises(sl.ValidationError, match="count must be an int >= 0"):
            sl.sample_levels(default_stream(), spec, count, rng)
    assert len(sl.sample_levels(default_stream(), spec, np.int64(3), rng)) == 3


def make_initial(N=24):
    return sl.make_density([0.5, 0.5], N)


def test_level_rank_distribution_exact_examples():
    p = 2
    init = make_initial()
    # empty level: nothing happens
    out = sl.level_rank_distribution(make_level(()), init, "exact_kernel", p)
    assert sl.l1_distance(out, init) == 0.0
    # single width-1 site acts by the one-step kernel
    lv = w1_level(10.0)
    out = sl.level_rank_distribution(lv, init, "exact_kernel", p)
    expect = sl.apply(sl.exact_step_kernel(1, p, init.N), init)
    assert sl.l1_distance(out, expect) == 0.0


def test_level_rank_distribution_order_independent():
    p = 2
    init = make_initial()
    a = make_level([site(1, 3.0, 1), site(2, 9.0, 2), site(3, 27.0, 1)])
    b = make_level([site(1, 27.0, 1), site(2, 3.0, 2), site(3, 9.0, 1)])
    da = sl.level_rank_distribution(a, init, "exact_kernel", p)
    db = sl.level_rank_distribution(b, init, "exact_kernel", p)
    assert sl.l1_distance(da, db) < 1e-15


def test_level_rank_distribution_sampled_close_to_exact():
    p = 2
    init = make_initial()
    lv = make_level([site(1, 3.0, 1), site(2, 9.0, 2)])
    exact = sl.level_rank_distribution(lv, init, "exact_kernel", p)
    rng = np.random.default_rng(6)
    walks = 40_000
    sampled = sl.level_rank_distribution(
        lv, init, "sampled_at_Y", p, rng, walks=walks
    )
    assert sl.l1_distance(sampled, exact) < 10.0 / math.sqrt(walks)


def test_level_rank_distribution_validation():
    # the one-level fan_distribution, so these are its _check_run's raises
    init = make_initial()
    with pytest.raises(sl.ValidationError, match="sampled mode needs an rng"):
        sl.level_rank_distribution(make_level(()), init, "sampled_at_Y", 2)
    with pytest.raises(sl.ValidationError, match="unknown mode 'monte_carlo'"):
        sl.level_rank_distribution(make_level(()), init, "monte_carlo", 2)


def test_exact_fan_checks_p_and_N_without_building_a_kernel():
    # an empty level builds no kernel, and used to return the start law
    with pytest.raises(sl.InvalidPrime, match="p = 4 is not prime"):
        sl.level_rank_distribution(make_level(()), make_initial(), "exact_kernel", 4)
    with pytest.raises(sl.ValidationError, match="N must be >= 2, got 1"):
        sl.level_rank_distribution(make_level(()), sl.make_density([1.0], 1), "exact_kernel", 2)


def test_fan_distribution_exact_is_slotwise_mean():
    p = 2
    init = make_initial()
    levels = [w1_level(3.0), make_level([site(1, 3.0, 2)])]
    out = sl.fan_distribution(levels, init, "exact_kernel", p)
    d1 = sl.level_rank_distribution(levels[0], init, "exact_kernel", p)
    d2 = sl.level_rank_distribution(levels[1], init, "exact_kernel", p)
    expect = 0.5 * (d1.values + d2.values)
    assert np.abs(out.values - expect).max() < 1e-15
    with pytest.raises(sl.EmptyFan):
        sl.fan_distribution([], init, "exact_kernel", p)


def test_fan_distribution_needs_a_walk_per_level():
    init = make_initial()
    levels = [w1_level(3.0)] * 3
    rng = np.random.default_rng(7)
    for walks in (0, 2):
        with pytest.raises(sl.ValidationError):
            sl.fan_distribution(levels, init, "sampled_at_Y", 2, rng, walks=walks)
    out = sl.fan_distribution(levels, init, "sampled_at_Y", 2, rng, walks=3)
    assert out.values.sum() == pytest.approx(1.0)


def test_fan_distribution_rejects_non_int_walk_counts():
    init = make_initial()
    levels = [w1_level(3.0)] * 3
    for walks in (10.5, True):
        with pytest.raises(sl.ValidationError, match="walks must be an int"):
            sl.fan_distribution(levels, init, "sampled_at_Y", 2, np.random.default_rng(7),
                                walks=walks)


def test_fan_engine_runs_one_target_rows_with_exact_t_rows():
    # delta_0 through width-1-first rows on a two-rank window, a sampler
    # without a cutoff: with p = 3 each row's law is a point mass (rank 0, 0
    # and 1), so every level's 333 walks land on one rank
    init = sl.make_density([1.0], 2)
    rows = [[1, 2, 1], [1, 1], [2, 1, 2]]
    got = _fan_average(rows, init, 3, np.random.default_rng(4), 999, TStepSampler(3))
    expect = np.mean([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], axis=0)
    assert got.values.tobytes() == expect.tobytes()


def walk_laws(rows, initial, p, sampler):
    # Each level's exact walk law under the sampler's t-rows: kernels built
    # on the whole window, then applied one width at a time.
    N = initial.N
    kernels = {i: np.zeros((N, N)) for i in (1, 2)}
    for i, kernel in kernels.items():
        for r in range(N):
            for target, mass in _compose(i, r, sampler.row(i, r), 1.0 / p, N):
                kernel[r, target] += mass
    laws = []
    for widths in rows:
        law = initial.as_float()
        for i in widths:
            law = law @ kernels[i]
        laws.append(law)
    return np.array(laws)


def sampled_fan_against_its_law(fan, seed, levels, walks, y):
    # One sampled fan average as fan_collapse makes it (draw the levels,
    # seed the sampler, then the walks), next to its exact expectation
    # E^Y = the mean level law and the variance of each cell.
    init = make_initial(32)
    rng = np.random.default_rng(seed)
    rows = fan.widths[fan.draw(levels, rng)].tolist()
    sampler = TStepSampler(2, y, seed=int(rng.integers(2**62)))
    got = _fan_average(rows, init, 2, rng, walks, sampler).values
    laws = walk_laws(rows, init, 2, sampler)
    var = (laws * (1.0 - laws)).sum(axis=0) / (walks // levels) / levels**2
    return got - laws.mean(axis=0), var


def test_sampled_fan_is_unbiased_for_its_drawn_levels():
    # 400 seeded (4, 6) fans at Y = 10: the summed per-cell deviation from
    # E^Y, over its summed standard deviation, is a z-score.  Cells no
    # walk reaches (rank 8 up, from a start on ranks 0 and 1) never move;
    # each of the 8 others is within |z| < 4 (under the law, all 8 fail
    # it with probability about 5e-4), and the summed squared deviation
    # is within 30% of the summed variance
    fan = Fan(default_stream(), FanSpec.from_rate(SQUARE, 4, 6, 10.0))
    runs = [sampled_fan_against_its_law(fan, seed, 30, 60_000, 10.0) for seed in range(400)]
    gap = np.sum([g for g, _ in runs], axis=0)
    var = np.sum([v for _, v in runs], axis=0)
    assert np.all(gap[var == 0.0] == 0.0)
    z = gap[var > 0.0] / np.sqrt(var[var > 0.0])
    assert np.abs(z).max() < 4.0, z
    spread = sum(float((g**2).sum()) for g, _ in runs) / var.sum()
    assert 0.7 < spread < 1.3


def test_sampled_fan_at_1e8_walks_is_within_5_sigma():
    fan = Fan(default_stream(), FanSpec.from_rate(SQUARE, 4, 6, 10.0))
    gap, var = sampled_fan_against_its_law(fan, 5, 30, 10**8, 10.0)
    assert np.all(np.abs(gap) <= 5.0 * np.sqrt(var)), gap / np.sqrt(var)


@settings(max_examples=80, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.integers(2, 12),
    rows=st.lists(st.lists(st.sampled_from([1, 2]), max_size=7), min_size=1, max_size=12),
    weights=st.lists(st.integers(0, 5), min_size=1, max_size=12),
)
def test_exact_fan_shares_prefixes_bit_for_bit(p, N, rows, weights):
    # composing each distinct prefix once gives the floats of per-row apply
    weights = weights[:N]
    if not any(weights):
        weights[0] = 1
    init = sl.make_density(np.array(weights) / sum(weights), N)
    stack = []
    for widths in rows:
        out = init
        for i in widths:
            out = sl.apply(sl.exact_step_kernel(i, p, N), out)
        stack.append(out.values)
    got = _fan_average(rows, init, p, None, 0, None)
    assert got.values.tobytes() == np.mean(stack, axis=0).tobytes()


def old_uniforms(totals, rng):
    # _uniforms as it was, working out each value's span and bound anew.
    out, todo = [0] * len(totals), list(range(len(totals)))
    while todo:
        spans = [(totals[j].bit_length() + 7) // 8 + 1 for j in todo]
        buf, start, redo = rng.bytes(sum(spans)), 0, []
        for j, w in zip(todo, spans):
            v = int.from_bytes(buf[start : start + w], "little")
            start += w
            if v < 256**w // totals[j] * totals[j]:
                out[j] = v % totals[j]
            else:
                redo.append(j)
        todo = redo
    return out


@settings(max_examples=80, deadline=None, database=None)
@given(
    totals=st.lists(st.sampled_from([1, 2, 3, 255, 256, 257, 65535, 10**6 + 3, 2**70 - 1]),
                    max_size=60),
    seed=st.integers(0, 2**32 - 1),
)
def test_uniforms_match_the_per_value_version(totals, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    assert _uniforms(totals, rng) == old_uniforms(totals, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


def old_subsets(groups, rng):
    # Fan.draw's second batch as it was: one per-value _uniforms call over
    # every group's perm(n, x), then Floyd's algorithm on each value.
    us = iter(old_uniforms([math.perm(n, x) for n, x, count in groups for _ in range(count)], rng))
    rows = []
    for n, x, count in groups:
        for _ in range(count):
            u, held = next(us), set()
            for j in range(n - x, n):
                u, t = divmod(u, j + 1)
                held.add(j if t in held else t)
            rows.append(sorted(held))
    return rows


def check_subsets(groups, seed):
    rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
    held = _subsets(groups, rng)
    assert held.shape[0] == sum(count for _, _, count in groups)
    assert [sorted(row[row >= 0].tolist()) for row in held] == old_subsets(groups, reference)
    assert rng.bit_generator.state == reference.bit_generator.state


@settings(max_examples=80, deadline=None, database=None)
@given(
    # perm(n, x) runs from 1 to 83 bits, across the 56-bit (8-byte) switch,
    # and the draws from 0 to 160, across the 32-row one
    groups=st.lists(
        st.tuples(st.integers(1, 100_000), st.integers(1, 5), st.integers(0, 20)).map(
            lambda g: (g[0], min(g[1], g[0]), g[2])
        ),
        max_size=8,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_subsets_match_the_per_value_draw(groups, seed):
    check_subsets(groups, seed)


def test_subsets_match_the_per_value_draw_through_a_redraw():
    # perm(241, 1) = 241 reads 2 bytes and rejects 225 of the 65536 values,
    # so at this seed at least one value is redrawn in a second round
    groups = [(241, 1, 300), (244, 2, 40), (6, 6, 5)]
    one_round, drawn = np.random.default_rng(0), np.random.default_rng(0)
    one_round.bytes(2 * 300 + 3 * 40 + 3 * 5)  # 2, 3 and 3 bytes a value
    _subsets(groups, drawn)
    assert drawn.bit_generator.state != one_round.bit_generator.state
    check_subsets(groups, 0)


@pytest.mark.parametrize("n, per_value", [(2**56 - 1, False), (2**56, True)])
def test_subsets_switch_paths_at_eight_bytes(n, per_value, monkeypatch):
    # perm(2**56 - 1, 1) reads 8 bytes, the most one uint64 holds, so its
    # 40 rows are decoded as arrays; perm(2**56, 1) reads 9 bytes and goes
    # through the per-value _floyd path
    calls = []
    monkeypatch.setattr(fans, "_floyd", lambda *args: calls.append(args) or _floyd(*args))
    check_subsets([(n, 1, 40)], 0)
    assert bool(calls) == per_value


def test_exact_fan_distribution_equals_per_level_stack():
    init = make_initial(32)
    stream = default_stream()
    for m, k in ((2, 3), (6, 9)):
        spec = FanSpec.from_rate(SQUARE, m, k, 10.0)
        levels = sl.sample_levels(stream, spec, 60, np.random.default_rng(k))
        stack = [
            sl.level_rank_distribution(lv, init, "exact_kernel", 2).values for lv in levels
        ]
        fan = sl.fan_distribution(levels, init, "exact_kernel", 2)
        assert fan.values.tobytes() == np.mean(stack, axis=0).tobytes()


def test_fan_collapse_residual_exact_is_zero():
    rng = np.random.default_rng(8)
    stream = default_stream()
    init = make_initial(32)
    for m, k in ((1, 1), (2, 3), (3, 4)):
        spec = FanSpec.from_rate(SQUARE, m, k, 10.0)
        res = sl.fan_collapse_residual(
            spec, stream, init, "exact_kernel", 2, rng, levels=8
        )
        assert res < 1e-12


def test_fan_collapse_needs_a_level():
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    with pytest.raises(sl.ValidationError, match="levels must be an int >= 1, got 0"):
        sl.fan_collapse(
            spec, default_stream(), make_initial(32), "exact_kernel", 2,
            np.random.default_rng(0), levels=0,
        )


def test_level_counts_stop_below_the_count_bound():
    # a draw holds an entry per level; 2**60 of them used to reach a list
    # no int64 index describes, and 10**20 raised OverflowError
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for count in (2**60, 10**20):
        with pytest.raises(sl.ValidationError) as info:
            sl.sample_levels(default_stream(), spec, count, rng)
        assert str(info.value) == f"count must be below the count bound 2**60, got {count}"
        with pytest.raises(sl.ValidationError, match="levels must be below the count bound"):
            sl.fan_collapse(
                spec, default_stream(), make_initial(32), "exact_kernel", 2, rng, levels=count,
            )
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("levels", [2.5, True, "3"])
def test_fan_collapse_rejects_a_non_int_level_count(levels):
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(sl.ValidationError, match="levels must be an int >= 1"):
        sl.fan_collapse_residual(
            spec, default_stream(), make_initial(32), "exact_kernel", 2,
            rng, levels=levels,
        )
    with pytest.raises(sl.ValidationError, match="levels must be an int >= 1"):
        sl.fan_collapse(
            spec, default_stream(), make_initial(32), "sampled_at_Y", 2,
            rng, levels=levels, walks=1000, y=100.0,
        )
    assert rng.bit_generator.state == state


def test_rejected_walk_count_leaves_the_rng_untouched():
    stream, init = default_stream(), make_initial(32)
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    # k = 4 has three nonempty slices, so 30 levels each need 90 walks
    assert all(Fan(stream, FanSpec.from_rate(SQUARE, m, 4, 10.0)).size for m in (2, 3, 4))
    rng = np.random.default_rng(22)
    state = rng.bit_generator.state
    for walks in (29, 100.5, True):
        with pytest.raises(sl.ValidationError):
            sl.fan_collapse_residual(
                spec, stream, init, "sampled_at_Y", 2, rng, levels=30, walks=walks, y=100.0
            )
    for walks in (89, 100.5, True):
        with pytest.raises(sl.ValidationError):
            sl.fan_union_distribution(
                stream, 4, 4, 10.0, SQUARE, init, "sampled_at_Y", 2, rng,
                levels_per_slice=30, walks=walks, y=100.0,
            )
    assert rng.bit_generator.state == state
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    sl.fan_union_distribution(
        stream, 4, 4, 10.0, SQUARE, init, "sampled_at_Y", 2, rng,
        levels_per_slice=30, walks=90, y=100.0,
    )
    assert rng.bit_generator.state != state


SPEC_23 = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
SAMPLED = {"walks": 1000, "y": 100.0}
LEVEL = make_level([site(1, 3.0, 1)])

# Each public run entry as a call of (stream, initial, rng, mode, p, walks,
# y) that drops what it has no parameter for.  The fan entries run 3
# levels; level_rank_distribution, step_average_gap and simulate_walks, 1.
RUN_ENTRIES = {
    "fan_collapse": lambda stream, init, rng, mode, p, walks, y: sl.fan_collapse(
        SPEC_23, stream, init, mode, p, rng, levels=3, walks=walks, y=y),
    "fan_union_distribution": lambda stream, init, rng, mode, p, walks, y: (
        sl.fan_union_distribution(stream, 4, 4, 10.0, SQUARE, init, mode, p, rng,
                                  levels_per_slice=1, walks=walks, y=y)),
    "fan_distribution": lambda stream, init, rng, mode, p, walks, y: sl.fan_distribution(
        [LEVEL] * 3, init, mode, p, rng, walks=walks),
    "level_rank_distribution": lambda stream, init, rng, mode, p, walks, y: (
        sl.level_rank_distribution(LEVEL, init, mode, p, rng, walks=walks)),
    "mixture_bound_check": lambda stream, init, rng, mode, p, walks, y: sl.mixture_bound_check(
        [LEVEL], [LEVEL] * 2, init, p),
    "step_average_gap": lambda stream, init, rng, mode, p, walks, y: sl.step_average_gap(
        LEVEL, 1, init, p, y, rng, walks=walks),
    "simulate_walks": lambda stream, init, rng, mode, p, walks, y: sl.simulate_walks(
        [1, 2], init, p, walks, rng),
}
# One fault each, as a change to a valid sampled call: its error class and
# text, and the entries that take the faulty input.
WINDOW = tuple(RUN_ENTRIES)  # every entry takes p and a window N
WALKS = tuple(name for name in WINDOW if name != "mixture_bound_check")
LEVELS = ("fan_distribution", "level_rank_distribution")  # an optional rng
MODE = ("fan_collapse", "fan_union_distribution", *LEVELS)
RUN_FAULTS = [
    ("mode", {"mode": "bogus"}, sl.ValidationError, "unknown mode 'bogus'", MODE),
    ("p", {"p": 4}, sl.InvalidPrime, "p = 4 is not prime", WINDOW),
    ("N", {"init": sl.make_density([1.0], 1)}, sl.ValidationError, "N must be >= 2, got 1",
     WINDOW),
    ("no-rng", {"rng": None}, sl.ValidationError, "sampled mode needs an rng", LEVELS),
    ("walks-float", {"walks": 10.5}, sl.ValidationError, "walks must be an int, got 10.5",
     WALKS),
    ("walks-few", {"walks": 0}, sl.ValidationError, "need a walk per level, got 0 for", WALKS),
    ("y", {"y": 1.0}, sl.ValidationError, "cutoff y must be >= 2, got 1.0",
     ("fan_collapse", "fan_union_distribution", "step_average_gap")),
    ("walk-bound", {"walks": 10**30}, sl.ValidationError,
     "need at most 2**63 - 1 walks per level", WALKS),
]


def run_entry(entry, stream, **args):
    return RUN_ENTRIES[entry](stream, **{"mode": "sampled_at_Y", "p": 2, **SAMPLED, **args})


def fault_case(entry, name, change, error, message):
    def call(stream, init, rng):
        return run_entry(entry, stream, **{"init": init, "rng": rng, **change})
    return pytest.param(error, message, call, id=f"{entry}-{name}")


@pytest.mark.parametrize("error, message, call", [
    pytest.param(sl.ValidationError, "unknown mode 'bogus'", lambda stream, init, rng: (
        sl.fan_collapse(SPEC_23, stream, init, "bogus", 2, rng, levels=3)), id="mode"),
    pytest.param(sl.InvalidPrime, "p = 4", lambda stream, init, rng: sl.fan_collapse(
        SPEC_23, stream, init, "exact_kernel", 4, rng, levels=3), id="p-exact"),
    pytest.param(sl.InvalidPrime, "p = 4", lambda stream, init, rng: sl.fan_collapse(
        SPEC_23, stream, init, "sampled_at_Y", 4, rng, levels=3, **SAMPLED), id="p-sampled"),
    pytest.param(sl.ValidationError, "cutoff y", lambda stream, init, rng: sl.fan_collapse(
        SPEC_23, stream, init, "sampled_at_Y", 2, rng, levels=3, walks=1000, y=1.0), id="y"),
    pytest.param(sl.ValidationError, "N must be >= 2", lambda stream, init, rng: sl.fan_collapse(
        SPEC_23, stream, sl.make_density([1.0], 1), "exact_kernel", 2, rng, levels=3), id="N"),
    pytest.param(sl.ValidationError, "unknown mode 'bogus'", lambda stream, init, rng: (
        sl.fan_union_distribution(stream, 4, 4, 10.0, SQUARE, init, "bogus", 2, rng)),
        id="union-mode"),
    pytest.param(sl.ValidationError, "cutoff y", lambda stream, init, rng: (
        sl.fan_union_distribution(stream, 4, 4, 10.0, SQUARE, init, "sampled_at_Y", 2, rng,
                                  walks=1000, y=1.0)), id="union-y"),
    pytest.param(sl.ValidationError, "cutoff y", lambda stream, init, rng: sl.step_average_gap(
        LEVEL, 1, init, 2, 1.0, rng), id="step-y"),
    pytest.param(sl.ValidationError, "walk per level", lambda stream, init, rng: (
        sl.step_average_gap(LEVEL, 1, init, 2, 100.0, rng, walks=0)), id="step-walks"),
    pytest.param(sl.ValidationError, "width i must be 1 or 2, got 3", lambda stream, init, rng: (
        sl.step_average_gap(LEVEL, 3, init, 2, 100.0, rng)), id="step-i"),
    *(fault_case(entry, name, change, error, message)
      for name, change, error, message, entries in RUN_FAULTS for entry in entries),
])
def test_rejected_fan_call_leaves_the_rng_untouched(error, message, call):
    # mode, p, the window N, the rng, the walks and y are checked at each run
    # entry before the first read of rng: Fan.draw's bytes, the sampler's
    # seed or the walks
    stream, init = default_stream(), make_initial(32)
    rng = np.random.default_rng(23)
    state = rng.bit_generator.state
    with pytest.raises(error, match=re.escape(message)):
        call(stream, init, rng)
    assert rng.bit_generator.state == state
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    # the same calls, made valid, read it
    sl.fan_collapse(SPEC_23, stream, init, "sampled_at_Y", 2, rng, levels=3, **SAMPLED)
    assert rng.bit_generator.state != state


@pytest.mark.parametrize(
    "entry", ["fan_collapse", "fan_union_distribution", "step_average_gap", "simulate_walks"]
)
def test_a_sampled_run_without_an_rng_is_a_validation_error(entry):
    # these used to fail with an AttributeError at their first read of rng
    with pytest.raises(sl.ValidationError, match="sampled mode needs an rng"):
        run_entry(entry, default_stream(), init=make_initial(32), rng=None)


@pytest.mark.parametrize("entry", [
    lambda stream, init: sl.fan_collapse(SPEC_23, stream, init, "exact_kernel", 2, None, levels=3),
    lambda stream, init: sl.fan_union_distribution(stream, 4, 4, 10.0, SQUARE, init,
                                                   "exact_kernel", 2, None),
    lambda stream, init: sl.sample_levels(stream, SPEC_23, 3, None),
], ids=["fan_collapse", "fan_union_distribution", "sample_levels"])
def test_a_level_draw_without_an_rng_is_a_validation_error(entry):
    # exact mode reads no sampler seed, but its level draw reads the rng;
    # these used to fail with an AttributeError in Fan.draw
    with pytest.raises(sl.ValidationError, match="a level draw needs an rng"):
        entry(default_stream(), make_initial(32))


def test_walks_per_level_are_bounded_by_int64():
    # 2**63 walks over 3 levels is 3.07e18 a level, which rng.multinomial
    # takes; one level of 2**63 walks is one past the bound
    stream, init, rng = default_stream(), make_initial(32), np.random.default_rng(24)
    fan, _ = sl.fan_collapse(SPEC_23, stream, init, "sampled_at_Y", 2, rng, levels=3,
                             walks=2**63, y=100.0)
    assert fan.values.sum() == pytest.approx(1.0)
    assert sl.simulate_walks([1], init, 2, 2**63 - 1, rng).values.sum() == pytest.approx(1.0)
    with pytest.raises(sl.ValidationError, match=re.escape("at most 2**63 - 1 walks per level")):
        sl.simulate_walks([1], init, 2, 2**63, rng)


def test_fan_collapse_residual_sampled_is_small():
    rng = np.random.default_rng(9)
    stream = default_stream()
    init = make_initial(32)
    spec = FanSpec.from_rate(SQUARE, 2, 3, 10.0)
    res = sl.fan_collapse_residual(
        spec, stream, init, "sampled_at_Y", 2, rng, levels=10, walks=40_000, y=200.0
    )
    assert 0.0 < res < 0.1


def test_mixture_bound_examples():
    p = 2
    init = make_initial()
    b1 = [w1_level(3.0), w1_level(5.0)]
    lhs, rhs = sl.mixture_bound_check(b1, list(b1), init, p)
    assert lhs == 0.0 and rhs == 0.0
    extra = b1 + [make_level([site(9, 7.0, 1)])]
    lhs, rhs = sl.mixture_bound_check(b1, extra, init, p)
    assert rhs == pytest.approx(1.0)
    assert lhs <= rhs


def test_mixture_bound_validation():
    p = 2
    init = make_initial()
    b = [w1_level(3.0)]
    with pytest.raises(sl.NotSubset):
        sl.mixture_bound_check([w1_level(99.0)], b, init, p)
    with pytest.raises(sl.ValidationError):
        sl.mixture_bound_check([], b, init, p)
    uneven = b + [w1_level(5.0, 7.0)]
    with pytest.raises(sl.ValidationError):
        sl.mixture_bound_check(b, uneven, init, p)


def test_mixture_bound_random_property():
    p = 2
    init = make_initial()
    rng = np.random.default_rng(10)
    pool = [w1_level(2.0 + j) for j in range(12)]
    for _ in range(25):
        size_bp = int(rng.integers(2, 13))
        bp = [pool[j] for j in rng.choice(12, size=size_bp, replace=False)]
        size_b = int(rng.integers(1, size_bp + 1))
        b = [bp[j] for j in rng.choice(size_bp, size=size_b, replace=False)]
        lhs, rhs = sl.mixture_bound_check(b, bp, init, p)
        assert lhs <= rhs + 1e-12


def test_fan_union_matches_power_exactly():
    rng = np.random.default_rng(11)
    stream = default_stream()
    init = make_initial(32)
    out = sl.fan_union_distribution(
        stream, 4, 4, 10.0, SQUARE, init, "exact_kernel", 2, rng, levels_per_slice=6
    )
    target = sl.apply(sl.power(sl.build_lagrangian(sl.LagrangianParams(2, 32)), 4), init)
    assert sl.l1_distance(out, target) < 1e-12


@pytest.mark.parametrize("mode", ["exact_kernel", "sampled_at_Y"])
def test_one_slice_union_is_the_fan_collapse_average(mode):
    # k = 3 with m <= 2 leaves the one slice (2, 3); both entries run the one
    # drawn-fan run, so they give the same floats and leave rng alike
    stream, init = default_stream(), make_initial(32)
    runs = []
    for seed in range(3):
        rng_union, rng_fan = np.random.default_rng(seed), np.random.default_rng(seed)
        union = sl.fan_union_distribution(
            stream, 2, 3, 10.0, SQUARE, init, mode, 2, rng_union,
            levels_per_slice=30, walks=20_000, y=100.0,
        )
        average, _ = sl.fan_collapse(
            FanSpec.from_rate(SQUARE, 2, 3, 10.0), stream, init, mode, 2, rng_fan,
            levels=30, walks=20_000, y=100.0,
        )
        assert np.array_equal(union.values, average.values)
        assert rng_union.bit_generator.state == rng_fan.bit_generator.state
        runs.append(union.values)
    if mode == "sampled_at_Y":
        assert not np.array_equal(runs[0], runs[1])


def test_sampled_union_is_within_bias_and_noise():
    # three slices (m = 2, 3, 4) of 30 levels and 30 000 walks each: every
    # sampled step moves a t-row by at most 1/Y in l1, so a slice is within
    # m/Y <= m_max/Y of M_L**4 f, and so is their size-weighted mix; the
    # Monte Carlo term is four summed per-cell standard errors at 30 000 walks
    stream, init = default_stream(), make_initial(32)
    m_max, k, per_slice = 4, 4, 30_000
    t = sl.apply(sl.power(sl.build_lagrangian(sl.LagrangianParams(2, 32)), k), init).as_float()
    noise = 4.0 * float(np.sqrt(t * (1.0 - t) / per_slice).sum())
    target = sl.make_density(t)
    for y in (20.0, 100.0, 1000.0):
        for seed in range(20):
            out = sl.fan_union_distribution(
                stream, m_max, k, 10.0, SQUARE, init, "sampled_at_Y", 2,
                np.random.default_rng(seed), levels_per_slice=30, walks=3 * per_slice, y=y,
            )
            assert sl.l1_distance(out, target) <= m_max / y + noise, (y, seed)


def test_fan_union_zero_width():
    rng = np.random.default_rng(12)
    init = make_initial(32)
    out = sl.fan_union_distribution(
        default_stream(), 3, 0, 10.0, SQUARE, init, "exact_kernel", 2, rng
    )
    assert sl.l1_distance(out, init) == 0.0


def test_fan_union_no_feasible_slice():
    rng = np.random.default_rng(13)
    init = make_initial(32)
    with pytest.raises(sl.EmptyFan):
        sl.fan_union_distribution(
            default_stream(), 1, 4, 10.0, SQUARE, init, "exact_kernel", 2, rng
        )


def test_fan_union_needs_a_level_per_slice():
    # zero levels per slice is a bad argument, not an empty fan
    with pytest.raises(sl.ValidationError, match="levels_per_slice must be an int >= 1, got 0"):
        sl.fan_union_distribution(
            default_stream(), 4, 4, 10.0, SQUARE, make_initial(32), "exact_kernel", 2,
            np.random.default_rng(13), levels_per_slice=0,
        )


@pytest.mark.parametrize("levels_per_slice", [2.5, True, "3"])
def test_fan_union_rejects_a_non_int_level_count(levels_per_slice):
    rng = np.random.default_rng(13)
    state = rng.bit_generator.state
    with pytest.raises(sl.ValidationError, match="levels_per_slice must be an int >= 1"):
        sl.fan_union_distribution(
            default_stream(), 4, 4, 10.0, SQUARE, make_initial(32), "exact_kernel", 2,
            rng, levels_per_slice=levels_per_slice,
        )
    # sampled mode seeds its sampler from rng, so the check must come first
    with pytest.raises(sl.ValidationError, match="levels_per_slice must be an int >= 1"):
        sl.fan_union_distribution(
            default_stream(), 4, 4, 10.0, SQUARE, make_initial(32), "sampled_at_Y", 2,
            rng, levels_per_slice=levels_per_slice, walks=1000, y=100.0,
        )
    assert rng.bit_generator.state == state


def test_step_average_gap_within_bound():
    rng = np.random.default_rng(14)
    init = make_initial(32)
    for i in (1, 2):
        lv = make_level([site(1, 3.0, 1), site(2, 9.0, 2)])
        measured, bound, mc = sl.step_average_gap(
            lv, i, init, 2, 50.0, rng, walks=4000
        )
        assert bound == pytest.approx((4 + 1) / 50.0)
        assert measured <= bound + 4.0 * mc


def full_walk_draw(fan, count, rng):
    # Fan.draw with every block's row searched, the last block's included;
    # that row always holds one choice, the rest of the pattern
    takes = {}
    for j, u in enumerate(_uniforms([fan.size] * count, rng)):
        a = b = 0
        for i in range(len(fan.blocks)):
            cums, choices = fan._row(i, a, b)
            if i == len(fan.blocks) - 1:
                n1, n2 = fan._pattern
                assert [(x, y) for x, y, _ in choices] == [(n1 - a, n2 - b)]
            k = bisect_right(cums, u)
            x, y, weight = choices[k]
            u = (u - (cums[k - 1] if k else 0)) % weight
            if x:
                takes.setdefault((i, 0, x), []).append(j)
            if y:
                takes.setdefault((i, 1, y), []).append(j)
            a, b = a + x, b + y
    held = _subsets([(len(fan.blocks[i][w]), n, len(js)) for (i, w, n), js in takes.items()], rng)
    start = np.repeat(np.array([fan._starts[i][w] for i, w, _ in takes], dtype=np.intp),
                      [len(js) for js in takes.values()])
    level = np.array([j for js in takes.values() for j in js], dtype=np.intp)
    rows, cols = np.nonzero(held >= 0)
    sites = fan._sites[start[rows] + held[rows, cols]]
    return sites[np.lexsort((sites, level[rows]))].reshape(count, fan.spec.m)


@pytest.mark.parametrize("m, k, X, stream_X, blocks", [
    (0, 0, 10.0, 2000.0, 0),
    (1, 1, 10.0, 2000.0, 1),
    (1, 2, 3.0, 2000.0, 1),
    (2, 3, 10.0, 2000.0, 2),
    (6, 9, 10.0, 2e4, 3),
    (4, 6, 2.0, 2e4, 4),
    (20, 40, 10.0, 2000.0, 2),  # criterion 10's fan
])
def test_draw_takes_the_last_block_without_a_search(m, k, X, stream_X, blocks):
    # the forced last block gives the sites and the generator state of the
    # full per-block walk
    fan = Fan(default_stream(stream_X), FanSpec.from_rate(SQUARE, m, k, X))
    assert len(fan.blocks) == blocks and fan.size
    for count in (0, 1, 31, 200):
        a, b = np.random.default_rng([m, count]), np.random.default_rng([m, count])
        assert np.array_equal(fan.draw(count, a), full_walk_draw(fan, count, b))
        assert a.bit_generator.state == b.bit_generator.state
