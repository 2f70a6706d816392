"""Tests for prime streams, t-draws, rank walks, and step kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selmerlab as sl
from selmerlab import cli
from selmerlab.twists import (
    PrimeStream,
    TStepSampler,
    _kernel,
    _marginals,
    _sampled_marginals,
    _t_row,
    sample_transitions,
)


def default_config(seed=0):
    return sl.StreamConfig(sl.S3_WIDTH_DENSITIES, growth_rate=1.0, seed=seed)


def test_stream_is_deterministic():
    cfg = default_config(seed=5)
    a = sl.synth_prime_stream(cfg, 500.0)
    b = sl.synth_prime_stream(cfg, 500.0)
    assert len(a) == len(b) > 0
    assert all(x.norm == y.norm and x.width == y.width for x, y in zip(a, b))


def test_stream_empty_below_first_norm():
    assert sl.synth_prime_stream(default_config(), 1.0) == []


def test_stream_norms_sorted_and_bounded():
    sites = sl.synth_prime_stream(default_config(seed=1), 300.0)
    norms = [s.norm for s in sites]
    assert norms == sorted(norms)
    assert all(1.0 < n <= 300.0 for n in norms)
    assert len(set(s.id for s in sites)) == len(sites)


def test_stream_count_tracks_growth_rate():
    # expected count below X is growth_rate * (X - 1)
    cfg = default_config(seed=9)
    x = 50_000.0
    count = len(sl.synth_prime_stream(cfg, x))
    assert 0.95 * x < count < 1.05 * x
    half = sl.StreamConfig(sl.S3_WIDTH_DENSITIES, growth_rate=0.5, seed=9)
    count_half = len(sl.synth_prime_stream(half, x))
    assert 0.45 * x < count_half < 0.55 * x


def test_stream_prefix_property():
    cfg = default_config(seed=2)
    small = sl.synth_prime_stream(cfg, 100.0)
    large = sl.synth_prime_stream(cfg, 400.0)
    assert len(large) >= len(small)
    for x, y in zip(small, large):
        assert x.norm == y.norm and x.width == y.width


def test_stream_width_proportions():
    sites = sl.synth_prime_stream(default_config(seed=3), 200_000.0)
    n = len(sites)
    counts = {i: sum(1 for s in sites if s.width == i) for i in (0, 1, 2)}
    assert counts[0] + counts[1] + counts[2] == n
    sigma = 0.5 / math.sqrt(n)
    assert abs(counts[0] / n - 1 / 3) < 5 * sigma
    assert abs(counts[1] / n - 1 / 2) < 5 * sigma
    assert abs(counts[2] / n - 1 / 6) < 5 * sigma


def test_stream_config_validation():
    with pytest.raises(sl.DegenerateConfig):
        sl.StreamConfig((0.5, 0.5, 0.0), 1.0, 0)  # needs d2 > 0
    with pytest.raises(sl.DegenerateConfig):
        sl.StreamConfig((0.5, 0.2, 0.2), 1.0, 0)  # mass 0.9
    with pytest.raises(sl.DegenerateConfig):
        sl.StreamConfig((0.9, 0.2, -0.1), 1.0, 0)
    bad_rate = sl.StreamConfig(sl.S3_WIDTH_DENSITIES, 0.0, 0)
    with pytest.raises(sl.DegenerateConfig):
        sl.synth_prime_stream(bad_rate, 10.0)


def test_stream_config_json_round_trip():
    data = {"densities": [0.25, 0.25, 0.5], "growth_rate": 2.0, "seed": 11}
    back, _ = cli._read_stream(data, seed=0)
    assert back == sl.StreamConfig((0.25, 0.25, 0.5), 2.0, 11)
    with pytest.raises(sl.ValidationError):
        cli._read_stream({"densities": [1, 0, 0], "extra": 1}, seed=0)


def reference_stream(config, X):
    # The per-site loop the array stream replaced, kept as its oracle.
    rng = np.random.default_rng(config.seed)
    sites = []
    position = 1.0
    while position < X:
        spacings = rng.exponential(1.0 / config.growth_rate, size=4096)
        widths = rng.choice(3, size=4096, p=list(config.width_densities))
        for s, w in zip(spacings, widths):
            position += s
            if position >= X:
                break
            sites.append((len(sites), float(position), int(w)))
    return sites


def triples(stream):
    return [(s.id, s.norm, s.width) for s in stream]


@settings(max_examples=40, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    growth_rate=st.floats(0.1, 3.0),
    weights=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.01, 1.0)),
    X=st.floats(-2.0, 6000.0),
)
def test_stream_matches_per_site_loop(seed, growth_rate, weights, X):
    total = sum(weights)
    densities = (weights[0] / total, weights[1] / total, weights[2] / total)
    cfg = sl.StreamConfig(densities, growth_rate=growth_rate, seed=seed)
    assert triples(sl.synth_prime_stream(cfg, X)) == reference_stream(cfg, X)


def test_stream_matches_per_site_loop_at_block_edge():
    cfg = default_config(seed=12)
    for x in (-1.0, 0.5, 1.0):
        assert len(sl.synth_prime_stream(cfg, x)) == 0 == len(reference_stream(cfg, x))
    last = reference_stream(cfg, 5000.0)[4095][1]  # the first block's last norm
    below = sl.synth_prime_stream(cfg, last)
    assert triples(below) == reference_stream(cfg, last) and len(below) == 4095
    above = sl.synth_prime_stream(cfg, math.nextafter(last, math.inf))
    assert triples(above) == reference_stream(cfg, math.nextafter(last, math.inf))
    assert len(above) == 4096


def test_stream_is_a_read_only_sequence_of_sites():
    stream = sl.synth_prime_stream(default_config(seed=4), 50.0)
    sites = list(stream)
    assert stream == sites and sites == stream[:]
    assert stream[-1] == sites[-1] and stream[2:5] == sites[2:5]
    assert [s.id for s in sites] == list(range(len(sites)))
    with pytest.raises(IndexError):
        stream[len(sites)]
    with pytest.raises(ValueError):
        stream.norms[0] = 2.0


def test_sites_reject_a_bad_norm_or_width():
    # one site, and the same rules over a stream's arrays
    with pytest.raises(sl.ValidationError, match="norm must be > 1, got 1.0"):
        sl.PrimeSite(0, 1.0, 1)
    with pytest.raises(sl.ValidationError, match="width must be 0, 1 or 2, got 3"):
        sl.PrimeSite(0, 2.0, 3)
    with pytest.raises(sl.ValidationError, match="norm must be > 1, got 1.0"):
        PrimeStream(np.array([2.0, 1.0]), np.array([1, 1]))
    with pytest.raises(sl.ValidationError, match="width must be 0, 1 or 2, got 3"):
        PrimeStream(np.array([2.0, 3.0]), np.array([1, 3]))


@pytest.mark.parametrize("norm, width", [(math.nan, 1), (1.0, 1), (2.0, 3), (2.0, -1)])
def test_a_stream_reports_a_bad_site_as_the_site_does(norm, width):
    with pytest.raises(sl.ValidationError) as site:
        sl.PrimeSite(1, norm, width)
    with pytest.raises(sl.ValidationError) as stream:
        PrimeStream(np.array([2.0, norm, 3.0]), np.array([1, width, 2]))
    assert type(stream.value) is type(site.value)
    assert str(stream.value) == str(site.value)


def test_a_stream_reports_its_first_bad_site():
    # a bad width at site 1 comes before a bad norm at site 2
    with pytest.raises(sl.ValidationError, match="width must be 0, 1 or 2, got 3"):
        PrimeStream(np.array([2.0, 3.0, 1.0]), np.array([1, 3, 1]))


@pytest.mark.parametrize("norms, widths", [
    ([2.0, 3.0], [1]),  # was length 2, and iterated one site
    ([2.0], [1, 2, 1]),  # was accepted
    ([2.0, 3.0, 4.0], [1, 2]),  # raised numpy's broadcast ValueError
    ([], [1]),
])
def test_a_stream_needs_one_width_per_norm(norms, widths):
    message = f"one width per norm, got {len(norms)} norms and {len(widths)} widths"
    with pytest.raises(sl.ValidationError, match=message):
        PrimeStream(np.array(norms), np.array(widths, dtype=np.int64))


def test_t_distribution_rows():
    assert list(sl.t_distribution(1, 0, 2)) == [1.0, 0.0]
    assert list(sl.t_distribution(1, 2, 2)) == [0.25, 0.75]
    row = sl.t_distribution(2, 1, 2)
    assert row[0] == 0.25
    assert row[1] == pytest.approx(0.75, abs=1e-15)
    assert row[2] == pytest.approx(0.0, abs=1e-15)
    row = sl.t_distribution(2, 3, 2)
    assert row[0] == 2.0**-6
    assert row[1] == pytest.approx(3 * (0.125 - 2.0**-6), abs=1e-15)
    with pytest.raises(sl.ValidationError):
        sl.t_distribution(3, 1, 2)
    with pytest.raises(sl.ValidationError):
        sl.t_distribution(1, -1, 2)
    with pytest.raises(sl.InvalidPrime):
        sl.t_distribution(1, 1, 6)


def test_t_distribution_exact_rows_sum_to_one():
    for p in (2, 3):
        for i in (1, 2):
            for r in range(0, 9):
                row = sl.t_distribution(i, r, p, exact=True)
                assert sum(row) == 1
                assert all(x >= 0 for x in row)
    exact = sl.t_distribution(2, 1, 3, exact=True)
    assert exact[0] == Fraction(1, 9)
    assert exact[1] == Fraction(8, 9)


def rank_share(r, i, t, p):
    # The share of r x i matrices over F_p that have rank t: the count
    # prod_{j<t} (p^r - p^j)(p^i - p^j) / (p^t - p^j) over all p^(ri).
    count = Fraction(1)
    for j in range(t):
        count *= Fraction((p**r - p**j) * (p**i - p**j), p**t - p**j)
    return count / p ** (r * i)


@settings(max_examples=60, deadline=None, database=None)
@given(p=st.sampled_from([2, 3, 5, 7]), r=st.integers(0, 7), i=st.sampled_from([1, 2]))
def test_t_distribution_is_the_rank_law_of_uniform_matrices(p, r, i):
    # The t-law at width i and rank r is the rank law of a uniform r x i
    # matrix over F_p, a third route to K_i beside the closed form and
    # the rank update.
    row = sl.t_distribution(i, r, p, exact=True)
    assert list(row) == [rank_share(r, i, t, p) for t in range(i + 1)]


# One twist step (draw t, then update the rank) is drawn through
# sample_transitions, the vectorized per-draw route.


def test_sample_t_point_masses():
    rng = np.random.default_rng(0)
    # i = 1, r = 0 forces t = 0, so the rank rises to 1
    assert np.all(sample_transitions(1, 0, 2, 50, rng) == 1)
    # i = 2, r = 0 forces t = 0 as well: the rank never falls
    assert set(sample_transitions(2, 0, 2, 50, rng).tolist()) <= {0, 2}


def test_sample_t_frequencies():
    rng = np.random.default_rng(1)
    draws = 100_000
    out = sample_transitions(1, 2, 2, draws, rng)
    sigma = math.sqrt(0.25 * 0.75 / draws)
    # t = 0 (probability 1/4) raises the rank, t = 1 lowers it
    assert abs(np.mean(out == 3) - 0.25) < 5 * sigma
    assert abs(np.mean(out == 1) - 0.75) < 5 * sigma


def test_twist_step_width_one():
    out = sample_transitions(1, 3, 2, 2000, np.random.default_rng(2))
    assert set(out.tolist()) == {2, 4}


def test_twist_step_width_two():
    # from rank 0 a width-2 step draws t = 0, then rises by 2 with
    # probability 1/p (the p-1 raising characters among p(p-1))
    draws = 20_000
    for p in (2, 3):
        out = sample_transitions(2, 0, p, draws, np.random.default_rng(p))
        assert set(out.tolist()) <= {0, 2}
        sigma = math.sqrt((1 / p) * (1 - 1 / p) / draws)
        assert abs(np.mean(out == 2) - 1 / p) < 5 * sigma
    out = sample_transitions(2, 4, 2, 2000, np.random.default_rng(4))
    assert set(out.tolist()) <= {2, 4, 6}


def test_twist_step_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(sl.ValidationError):
        sample_transitions(3, 1, 2, 10, rng)  # width outside {1, 2}
    with pytest.raises(sl.ValidationError):
        sample_transitions(1, -1, 2, 10, rng)  # negative rank
    with pytest.raises(sl.InvalidPrime):
        sample_transitions(2, 1, 6, 10, rng)


def test_twist_step_parity_rule():
    # width 1 flips rank parity, width 2 preserves it
    rng = np.random.default_rng(3)
    for r in range(0, 6):
        assert np.all(sample_transitions(1, r, 2, 2000, rng) % 2 == (r + 1) % 2)
        assert np.all(sample_transitions(2, r, 2, 2000, rng) % 2 == r % 2)


def test_exact_step_kernel_width_one_is_the_operator():
    for p in (2, 3):
        M = sl.build_lagrangian(sl.LagrangianParams(p, 32))
        K1 = sl.exact_step_kernel(1, p, 32)
        assert np.abs(K1.matrix - M.matrix).max() < 1e-15


def test_exact_step_kernel_width_two_matches_square():
    for p in (2, 3):
        M2 = sl.power(sl.build_lagrangian(sl.LagrangianParams(p, 32)), 2)
        K2 = sl.exact_step_kernel(2, p, 32)
        # identical away from the fold rows
        assert np.abs(K2.matrix[:29] - M2.matrix[:29]).max() < 1e-15
        assert sl.classify_parity(K2) is sl.ParityClass.PRESERVING
        for r in range(32):
            assert K2.matrix[r].sum() == pytest.approx(1.0, abs=1e-12)


def test_exact_step_kernel_row_zero():
    K2 = sl.exact_step_kernel(2, 2, 16)
    assert K2.matrix[0, 0] == 0.5
    assert K2.matrix[0, 2] == 0.5


def test_exact_step_kernel_rejects_a_one_rank_window():
    for i in (1, 2):
        with pytest.raises(sl.ValidationError, match="N must be >= 2"):
            sl.exact_step_kernel(i, 2, 1)
    # the smallest window already flips parity at width 1
    assert sl.exact_step_kernel(1, 2, 2).matrix.tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_exact_step_kernel_exact_backend():
    K2 = sl.exact_step_kernel(2, 3, 12, exact=True)
    assert all(row.sum() == 1 for row in K2.matrix)
    assert K2.matrix[0, 0] == Fraction(2, 3)
    assert K2.matrix[0, 2] == Fraction(1, 3)


def test_sampler_rows_are_close_and_valid():
    y = 50.0
    sampler = TStepSampler(2, y=y, seed=4)
    for i in (1, 2):
        for r in range(0, 10):
            row = sampler.row(i, r)
            ideal = sl.t_distribution(i, r, 2)
            assert row.shape == ideal.shape
            assert row.min() >= 0.0
            assert row.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.abs(row - ideal).sum() <= 1.0 / y + 1e-12
            # support is still t <= min(i, r)
            assert row[min(i, r) + 1 :].sum() == 0.0


def test_sampler_is_deterministic_and_cached():
    a = TStepSampler(2, y=20.0, seed=6)
    b = TStepSampler(2, y=20.0, seed=6)
    assert np.array_equal(a.row(2, 3), b.row(2, 3))
    assert np.array_equal(a.row(2, 3), a.row(2, 3))
    c = TStepSampler(2, y=20.0, seed=7)
    assert not np.array_equal(a.row(2, 3), c.row(2, 3))


def test_sampler_none_y_is_exact():
    sampler = TStepSampler(2, y=None, seed=0)
    assert np.array_equal(sampler.row(1, 2), sl.t_distribution(1, 2, 2))
    with pytest.raises(sl.ValidationError):
        TStepSampler(2, y=1.5, seed=0)


def test_simulate_walks_matches_kernel_frequencies():
    p, n = 2, 200_000
    rng = np.random.default_rng(8)
    start = sl.make_density([0.0, 0.0, 1.0], 8)
    out = sl.simulate_walks([2], start, p, n, rng)
    row = sl.exact_step_kernel(2, p, 8).matrix[2]
    for target in (0, 2, 4):
        freq = out.values[target]
        sigma = math.sqrt(row[target] * (1 - row[target]) / n)
        assert abs(freq - row[target]) < 5 * sigma


def test_simulate_walks_point_examples():
    p = 2
    init = sl.make_density([1.0], 16)
    rng = np.random.default_rng(9)
    # no sites: the initial law comes back
    out = sl.simulate_walks([], init, p, 1000, rng)
    assert sl.l1_distance(out, init) == 0.0
    # a single width-1 site from rank 0 forces rank 1
    out = sl.simulate_walks([1], init, p, 1000, rng)
    assert out.values[1] == 1.0


def test_simulate_walks_against_kernel_product():
    p = 2
    init = sl.make_density([0.5, 0.5], 16)
    rng = np.random.default_rng(10)
    walks = 60_000
    out = sl.simulate_walks([1, 2], init, p, walks, rng)
    K1 = sl.exact_step_kernel(1, p, 16)
    K2 = sl.exact_step_kernel(2, p, 16)
    expect = np.dot(np.dot(init.values, K1.matrix), K2.matrix)
    assert np.abs(out.values - expect).max() < 5.0 / math.sqrt(walks)


def test_simulate_walks_folds_at_window_edge():
    # from the top of a tiny window a width-2 site would escape upward;
    # the walks fold back exactly as the exact kernels do
    p, walks = 2, 10**8
    init = sl.make_density([0.0, 0.0, 1.0], 3)
    out = sl.simulate_walks(
        [2] * 8, init, p, walks, np.random.default_rng(11), TStepSampler(p)
    )
    K2 = sl.exact_step_kernel(2, p, 3).matrix
    expect = init.values @ np.linalg.matrix_power(K2, 8)
    assert np.abs(out.values - expect).max() < 5.0 / math.sqrt(walks)


def test_simulate_walks_rejects_a_one_rank_window():
    # a width-1 step must flip parity, which one rank cannot hold
    init = sl.make_density([1.0], 1)
    with pytest.raises(sl.ValidationError, match="N must be >= 2"):
        sl.simulate_walks([1, 2], init, 2, 10, np.random.default_rng(12))


def test_simulate_walks_rejects_bad_walk_counts():
    init = sl.make_density([1.0], 16)
    for walks in (0, -5):
        with pytest.raises(sl.ValidationError):
            sl.simulate_walks([1], init, 2, walks, np.random.default_rng(12))


def test_simulate_walks_cost_is_independent_of_walk_count():
    # a billion walks are cheap, and land within 5/sqrt(W) of the product
    p, walks = 2, 10**9
    init = sl.make_density([0.5, 0.5], 16)
    out = sl.simulate_walks(
        [1, 2, 1], init, p, walks, np.random.default_rng(13), TStepSampler(p)
    )
    K1 = sl.exact_step_kernel(1, p, 16).matrix
    K2 = sl.exact_step_kernel(2, p, 16).matrix
    expect = init.values @ K1 @ K2 @ K1
    assert np.abs(out.values - expect).max() < 5.0 / math.sqrt(walks)


@settings(max_examples=60, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    r=st.integers(0, 12),
    i=st.sampled_from([1, 2]),
    y=st.floats(2.0, 1000.0),
    seed=st.integers(0, 2**32 - 1),
    walks=st.integers(1, 10**7),
)
def test_one_walk_step_conserves_count_support_and_parity(p, r, i, y, seed, walks):
    N = 16
    start = sl.make_density([0.0] * r + [1.0], N)
    sampler = TStepSampler(p, y=y, seed=seed)
    out = sl.simulate_walks([i], start, p, walks, np.random.default_rng(seed), sampler)
    counts = out.values * walks
    assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-6)
    assert round(counts.sum()) == walks
    support = np.flatnonzero(np.round(counts))
    assert support.min() >= max(0, r - i) and support.max() <= r + i
    # width 1 flips the parity of every walk, width 2 preserves it
    assert all(s % 2 == (r + i) % 2 for s in support)


def test_one_sampler_serves_two_windows():
    # kernels are built per window: rows folded for N = 5 must not be
    # reused at N = 9, so a shared sampler gives a fresh one's bytes
    p, widths = 3, [2, 1, 2, 2, 1, 2]
    sampler = TStepSampler(p, 10.0, 21)
    for N in (5, 9, 5):
        init = sl.make_density([0.0, 0.0, 0.5, 0.5], N)
        out = sl.simulate_walks(widths, init, p, 10**6, np.random.default_rng(N), sampler)
        expect = sl.simulate_walks(
            widths, init, p, 10**6, np.random.default_rng(N), TStepSampler(p, 10.0, 21)
        )
        assert out.values.tobytes() == expect.values.tobytes()


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("N", range(2, 13))
def test_sampled_marginals_match_exact_kernels(p, N):
    # the sampled route (float sampler rows composed per rank, rows above
    # the reach left out) and the exact route (Fraction rows composed into
    # exact_step_kernel) give the same per-level laws; rows this long fold
    # at the top of every window here
    rows = [[], [1], [2], [1, 2, 2, 1, 2], [2] * 7, [1] * 8, [2, 1, 1, 2, 2, 1]]
    kernels = {i: sl.exact_step_kernel(i, p, N).matrix for i in (1, 2)}
    for weights in ([1.0], [0.0, 0.5, 0.5], [1.0] * N):
        init = sl.make_density(np.array(weights[:N]) / sum(weights[:N]), N)
        got = _sampled_marginals(rows, init, TStepSampler(p))
        for row, law in zip(rows, got):
            expect = init.values
            for i in row:
                expect = expect @ kernels[i]
            assert np.abs(law - expect).max() <= 1e-15, (row, weights)


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    N=st.integers(2, 12),
    rows=st.lists(st.lists(st.sampled_from([1, 2]), max_size=7), min_size=1, max_size=6),
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=12).filter(any),
    y=st.sampled_from([None, 2.0, 30.0]),
    seed=st.integers(0, 2**62),
)
def test_sampled_marginals_equal_products_with_full_kernels(p, N, rows, weights, y, seed):
    # each width's sampler kernel is built only up to its reach; the same
    # products with every kernel built to N - 1 are the same floats
    weights = weights[:N] if any(weights[:N]) else [1]
    init = sl.make_density(np.array(weights) / sum(weights), N)
    got = _sampled_marginals(rows, init, TStepSampler(p, y, seed))
    start = init.as_float()
    full = TStepSampler(p, y, seed)
    kernels = {i: _kernel(i, (full.row(i, r) for r in range(N)), 1.0 / p, N) for i in (1, 2)}
    expect = _marginals(rows, start / start.sum(), kernels.__getitem__)
    assert got.tobytes() == expect.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5]),
    N=st.integers(2, 16),
    rows=st.lists(st.lists(st.sampled_from([1, 2]), max_size=7), min_size=1, max_size=6),
    weights=st.lists(st.integers(0, 4), min_size=1, max_size=16).filter(any),
    y=st.sampled_from([None, 30.0]),
)
def test_sampled_kernels_are_built_to_their_reach(p, N, rows, weights, y):
    # width i's kernel builds sampler rows 0 .. min(top + widest - i, N - 1),
    # each once: top is the start's top rank, widest the largest row total
    weights = weights[:N] if any(weights[:N]) else [1]
    init = sl.make_density(np.array(weights) / sum(weights), N)
    sampler, calls = TStepSampler(p, y, 5), []
    row = sampler.row
    sampler.row = lambda i, r: calls.append((i, r)) or row(i, r)
    _sampled_marginals(rows, init, sampler)
    top, widest = max(r for r, w in enumerate(weights) if w), max(map(sum, rows))
    widths = {i for level in rows for i in level}
    expect = [(i, r) for i in sorted(widths) for r in range(min(top + widest - i, N - 1) + 1)]
    assert sorted(calls) == expect


def test_simulate_walks_rejects_a_sampler_for_another_prime():
    init = sl.make_density([1.0], 8)
    with pytest.raises(sl.ValidationError, match="sampler is for p = 3"):
        sl.simulate_walks([1], init, 2, 10, np.random.default_rng(0), TStepSampler(3))


def test_simulate_walks_rejects_non_int_walk_counts():
    # 10.5 used to fail as an unnormalized density, and True ran one walk
    init = sl.make_density([1.0], 8)
    for walks in (10.5, 3.0, True, "5", None):
        with pytest.raises(sl.ValidationError, match="walks must be an int"):
            sl.simulate_walks([1], init, 2, walks, np.random.default_rng(0))
    out = sl.simulate_walks([1], init, 2, np.int64(4), np.random.default_rng(0))
    assert out.values[1] == 1.0


def test_sampler_rejects_a_composite_modulus():
    with pytest.raises(sl.InvalidPrime):
        TStepSampler(4)
    with pytest.raises(sl.InvalidPrime):
        TStepSampler(1, y=10.0)
    # with no widths to step through, the walks used to accept p = 4
    init = sl.make_density([1.0], 8)
    with pytest.raises(sl.InvalidPrime):
        sl.simulate_walks([], init, 4, 10, np.random.default_rng(0))


def numpy_build_row(sampler, i, r):
    # TStepSampler.row as it was, in numpy small-array arithmetic, with the
    # perturbation size drawn by rng.uniform.
    row = _t_row(i, r, sampler.p)
    if sampler.y is None:
        return row
    support = [t for t in range(i + 1) if t <= r]
    if len(support) < 2:
        return row
    rng = np.random.default_rng([sampler.seed, i, r])
    direction = rng.normal(size=len(support))
    direction -= direction.mean()
    norm = np.abs(direction).sum()
    if norm == 0.0:
        return row
    direction /= norm
    eps = rng.uniform(0.5, 1.0) / sampler.y
    for t, d in zip(support, direction):
        if d < 0:
            eps = min(eps, row[t] / (-d))
    out = row.copy()
    for t, d in zip(support, direction):
        out[t] += eps * d
    out = np.clip(out, 0.0, None)
    out /= out.sum()
    return out


@settings(max_examples=300, deadline=None, database=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    y=st.one_of(st.none(), st.sampled_from([2.0, 10.0, 100.0, 1000.0]), st.floats(2.0, 1e6)),
    seed=st.integers(0, 2**63 - 1),
    i=st.sampled_from([1, 2]),
    r=st.integers(0, 12),
)
def test_build_row_matches_the_numpy_version(p, y, seed, i, r):
    sampler = TStepSampler(p, y, seed)
    got = sampler.row(i, r)
    assert got.dtype == np.float64 and got.shape == (i + 1,)
    assert got.tobytes() == numpy_build_row(sampler, i, r).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**62 - 1])
def test_sampler_seeds_rows_as_default_rng_does(seed):
    # a row's generator, built from the seed's uint32 words, has the state
    # default_rng([seed, i, r]) has, and the row is the numpy version's
    sampler = TStepSampler(3, 7.0, seed)
    for i in (1, 2):
        for r in (0, 1, 2, 9):
            state = np.random.default_rng([seed, i, r]).bit_generator.state
            assert sampler._rng(i, r).bit_generator.state == state
            assert sampler.row(i, r).tobytes() == numpy_build_row(sampler, i, r).tobytes()
