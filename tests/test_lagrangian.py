"""Tests for the mod-p operator, equilibrium constants, and iteration."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selmerlab as sl
from selmerlab import lagrangian
from selmerlab.lagrangian import _check_prime, _exact_prefactor, _prefactor_bracket


def fraction_constants(p, N):
    # the reference: each c_n rounded once from its exact rational
    pref = _exact_prefactor(p)
    return np.array([float(pref * q) for q in sl.c_partial_products(p, N)])


def test_params_validation():
    with pytest.raises(sl.InvalidPrime):
        sl.LagrangianParams(4, 64)
    with pytest.raises(sl.InvalidPrime):
        sl.LagrangianParams(1, 64)
    with pytest.raises(ValueError):
        sl.LagrangianParams(2, 1)


def test_check_prime_matches_a_sieve():
    # the one prime rule, behind LagrangianParams, t_distribution and
    # TStepSampler, against Eratosthenes on -3..3000
    top = 3000
    prime = [False, False] + [True] * (top - 1)
    for n in range(2, 55):
        if prime[n]:
            prime[n * n :: n] = [False] * len(prime[n * n :: n])
    for p in range(-3, top + 1):
        if p >= 0 and prime[p]:
            _check_prime(p)
            continue
        with pytest.raises(sl.InvalidPrime) as info:
            _check_prime(p)
        assert type(info.value) is sl.InvalidPrime
        assert str(info.value) == f"p = {p} is not prime"


def test_params_reject_a_one_rank_window():
    # the same rule and message as the step kernels and the walks
    for N in (1, 0):
        with pytest.raises(sl.ValidationError, match="N must be >= 2"):
            sl.LagrangianParams(2, N)


def test_check_prime_takes_milliseconds_below_its_bound():
    # trial division stops by d = 46341 below 2**31; 2**61 - 1 would take
    # minutes, so it is rejected by the bound before any division
    start = time.perf_counter()
    _check_prime(2**31 - 1)
    with pytest.raises(sl.InvalidPrime) as info:
        _check_prime(2**61 - 1)
    assert str(info.value) == f"p = {2**61 - 1} is not below the prime bound 2**31"
    with pytest.raises(sl.InvalidPrime, match="not below the prime bound"):
        _check_prime(2**31)
    assert time.perf_counter() - start < 0.5


def test_params_reject_a_window_numpy_cannot_describe():
    # an N x N float64 operator needs N < 2**30; the check allocates nothing
    sl.LagrangianParams(2, 2**30 - 1)
    for N in (2**30, 10**20):
        with pytest.raises(sl.ValidationError) as info:
            sl.LagrangianParams(2, N)
        assert str(info.value) == f"N must be below the window bound 2**30, got {N}"


def falling(p, r, m):
    # prod_{i<m} (p**r - p**i), the m-th moment's integrand at rank r
    return math.prod(p**r - p**i for i in range(m))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 53, 101])
def test_each_parity_class_has_the_paper_moments(p):
    # E+-[prod_{i<m} (p**r - p**i)] = p**(m(m+1)/2) on each parity class on
    # its own, for m <= 4, in Fractions.  The prefactor's product is cut
    # after 200 factors, which leaves it too large by a relative
    # prod_{j>200} (1 + p**-j) - 1 < 2 p**-200; the ranks from 40 on carry
    # under p**-600 of a moment, so each moment lies in [1, 1 + 2 p**-200]
    # times its target.
    pref, q = _exact_prefactor(p), sl.c_partial_products(p, 40)
    cut = Fraction(2, p**200)
    for m in range(5):
        target = p ** (m * (m + 1) // 2)
        for parity in (0, 1):
            moment = pref * sum(q[r] * falling(p, r, m) for r in range(parity, 40, 2))
            assert target <= moment <= target * (1 + cut), (m, parity)


def test_operator_entries_p2():
    M = sl.build_lagrangian(sl.LagrangianParams(2, 8))
    m = M.matrix
    assert m[0, 1] == 1.0
    assert m[1, 0] == 0.5 and m[1, 2] == 0.5
    assert m[2, 1] == 0.75 and m[2, 3] == 0.25
    assert m[3, 2] == 0.875 and m[3, 4] == 0.125
    # top row folds its up-step back onto rank N-2
    assert m[7, 6] == (1.0 - 2.0**-7) + 2.0**-7
    assert m[7].sum() == 1.0


def test_operator_entries_p3_exact():
    M = sl.build_lagrangian(sl.LagrangianParams(3, 6), exact=True)
    m = M.matrix
    assert m[1, 0] == Fraction(2, 3)
    assert m[1, 2] == Fraction(1, 3)
    assert m[2, 3] == Fraction(1, 9)
    assert m[5, 4] == 1
    assert sl.classify_parity(M) is sl.ParityClass.REVERSING


def test_c_constant_base_value():
    consts = sl.c_constants(sl.LagrangianParams(2, 64))
    assert consts[0] == pytest.approx(0.41942244179510757, abs=1e-15)
    # c_1 = c_0 * p / (p - 1) = 2 c_0 at p = 2
    assert consts[1] == pytest.approx(2.0 * consts[0], rel=1e-15)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 31, 101])
def test_c_constants_bit_identical_to_fractions(p):
    for N in (2, 12, 32, 64, 128):
        got = sl.c_constants(sl.LagrangianParams(p, N))
        assert got.tobytes() == fraction_constants(p, N).tobytes()


PRIMES_TO_101 = [q for q in range(2, 102) if all(q % d for d in range(2, q))]


@settings(max_examples=25, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES_TO_101), N=st.integers(2, 128))
def test_c_constants_matches_fractions_property(p, N):
    got = sl.c_constants(sl.LagrangianParams(p, N))
    assert got.tobytes() == fraction_constants(p, N).tobytes()


@pytest.mark.parametrize("guard_bits", [1, 8])
def test_c_constants_fallback_is_exact(guard_bits, monkeypatch):
    # a bracket this coarse cannot settle some c_n in every call, so the
    # Fraction fallback runs (its prefactor built once per call), and the
    # result must not change; at 1 bit the lower end clamps to 0
    calls = []

    def counting(p):
        calls.append(p)
        return _exact_prefactor(p)

    monkeypatch.setattr(lagrangian, "_GUARD_BITS", guard_bits)
    monkeypatch.setattr(lagrangian, "_exact_prefactor", counting)
    for p in (2, 3, 7, 101):
        for N in (12, 64):
            got = sl.c_constants(sl.LagrangianParams(p, N))
            assert got.tobytes() == fraction_constants(p, N).tobytes()
    assert calls == [2, 2, 3, 3, 7, 7, 101, 101]


PRIMES_TO_1009 = [q for q in range(2, 1010) if all(q % d for d in range(2, q))]


@settings(max_examples=20, deadline=None, database=None)
@given(p=st.sampled_from(PRIMES_TO_1009), guard_bits=st.sampled_from([1, 8, 128]))
def test_prefactor_bracket_holds_the_exact_prefactor(p, guard_bits):
    # the series bracket holds the Fraction product cut at 200 factors
    # within four units of 2**-K
    lo, hi = _prefactor_bracket(p, guard_bits)
    scaled = _exact_prefactor(p) * 2**guard_bits
    assert lo <= scaled <= hi
    assert hi - lo <= 4


@pytest.mark.parametrize("p", [2, 3, 101])
def test_c_constants_past_the_underflow_stop(p):
    # at N = 200 most c_n round to 0.0, and the loop stops at the first one
    got = sl.c_constants(sl.LagrangianParams(p, 200))
    assert got.tobytes() == fraction_constants(p, 200).tobytes()
    zeros = np.flatnonzero(got == 0.0)
    assert 0 < zeros[0] < 100 and got[zeros[0]:].tobytes() == bytes(8 * (200 - zeros[0]))


def test_c_partial_products_ratios():
    # c_n / c_{n-1} = p / (p**n - 1), exactly
    for p in (2, 3, 5):
        fracs = sl.c_partial_products(p, 10)
        for n in range(1, 10):
            assert fracs[n] / fracs[n - 1] == Fraction(p, p**n - 1)


def test_equilibrium_parity_sums():
    for p in (2, 3, 5):
        pair = sl.equilibrium(sl.LagrangianParams(p, 64))
        even = pair.e_plus.values.sum()
        odd = pair.e_minus.values.sum()
        assert even == pytest.approx(1.0, abs=1e-10)
        assert odd == pytest.approx(1.0, abs=1e-10)
        assert sl.rho_parity(pair.e_plus) == 0.0
        assert sl.rho_parity(pair.e_minus) == 1.0


def test_equilibrium_entries_are_the_constants():
    params = sl.LagrangianParams(2, 64)
    pair = sl.equilibrium(params)
    consts = sl.c_constants(params)
    assert pair.e_plus.values[0] == consts[0]
    assert pair.e_plus.values[2] == consts[2]
    assert pair.e_minus.values[1] == consts[1]
    assert pair.e_minus.values[0] == 0.0


def test_equilibrium_rejects_toosmall_window():
    # with N = 4 at p = 2 too much tail mass is cut off to renormalize
    with pytest.raises(sl.NotNormalized):
        sl.equilibrium(sl.LagrangianParams(2, 4))


def test_fixed_point_exact_small_window():
    # (E+ . M_L)(s) = E-(s) holds exactly in rational arithmetic for odd
    # s away from the fold rows.
    p, N = 2, 12
    params = sl.LagrangianParams(p, N)
    M = sl.build_lagrangian(params, exact=True)
    fracs = sl.c_partial_products(p, N)
    e_plus = np.full(N, Fraction(0), dtype=object)
    for n in range(0, N, 2):
        e_plus[n] = fracs[n]
    out = e_plus @ M.matrix
    for s in range(1, N - 2, 2):
        assert out[s] == fracs[s]


def test_fixed_point_involution():
    params = sl.LagrangianParams(2, 64)
    M = sl.build_lagrangian(params)
    pair = sl.equilibrium(params)
    fwd = sl.apply(M, pair.e_plus)
    back = sl.apply(M, fwd)
    assert sl.l1_distance(fwd, pair.e_minus) < 1e-10
    assert sl.l1_distance(back, pair.e_plus) < 1e-10


def test_iterate_limit_from_point_mass():
    params = sl.LagrangianParams(2, 64)
    M = sl.build_lagrangian(params)
    pair = sl.equilibrium(params)
    d0 = sl.make_density([1.0], 64)
    limit, steps = sl.iterate_limit(sl.power(M, 2), d0)
    assert sl.l1_distance(limit, pair.e_plus) < 1e-9
    assert 5 < steps < 100


def test_iterate_limit_zero_steps_at_fixed_point():
    params = sl.LagrangianParams(2, 64)
    M2 = sl.power(sl.build_lagrangian(params), 2)
    pair = sl.equilibrium(params)
    limit, steps = sl.iterate_limit(M2, pair.e_plus)
    assert steps <= 1
    assert sl.l1_distance(limit, pair.e_plus) < 1e-9


def test_iterate_limit_budget_exhaustion():
    params = sl.LagrangianParams(2, 64)
    M2 = sl.power(sl.build_lagrangian(params), 2)
    d0 = sl.make_density([1.0], 64)
    with pytest.raises(sl.NoConvergence):
        sl.iterate_limit(M2, d0, max_steps=1)


def test_predicted_limit_trivial_cases():
    params = sl.LagrangianParams(2, 64)
    pair = sl.equilibrium(params)
    # even mixtures of powers: (1 - rho) E+ + rho E-
    f = sl.make_density([0.25, 0.75], 64)
    pred = sl.predicted_limit(f, "even", params)
    expect = 0.25 * pair.e_plus.values + 0.75 * pair.e_minus.values
    assert np.abs(pred.values - expect).max() < 1e-12
    # odd powers swap the weights
    pred_odd = sl.predicted_limit(f, "odd", params)
    expect_odd = 0.75 * pair.e_plus.values + 0.25 * pair.e_minus.values
    assert np.abs(pred_odd.values - expect_odd).max() < 1e-12


def test_predicted_limit_rejects_an_unknown_power_parity():
    f = sl.make_density([0.25, 0.75], 64)
    with pytest.raises(sl.ValidationError, match="power_parity must be 'even' or 'odd'"):
        sl.predicted_limit(f, "both", sl.LagrangianParams(2, 64))


def test_predicted_limit_checks_only_the_limit_it_returns():
    # at p = 2, N = 8 the odd class holds c_1..c_7 (tail c_9 ~ 2e-11)
    # but the even class misses c_8 ~ 5e-9, so E+ fails TOL_TAIL while a
    # pure odd start's limit, E- alone, is a valid density
    params = sl.LagrangianParams(2, 8)
    with pytest.raises(sl.NotNormalized):
        sl.equilibrium(params)
    pred = sl.predicted_limit(sl.make_density([0.0, 1.0], 8), "even", params)
    c = sl.c_constants(params)
    assert pred.values.tolist() == [0.0, c[1], 0.0, c[3], 0.0, c[5], 0.0, c[7]]
    with pytest.raises(sl.NotNormalized):
        sl.predicted_limit(sl.make_density([1.0], 8), "even", params)


def test_predicted_limit_matches_iteration():
    params = sl.LagrangianParams(2, 64)
    M2 = sl.power(sl.build_lagrangian(params), 2)
    rng = np.random.default_rng(7)
    for _ in range(5):
        raw = rng.random(10)
        f = sl.make_density(raw / raw.sum(), 64)
        limit, _ = sl.iterate_limit(M2, f)
        pred = sl.predicted_limit(f, "even", params)
        assert sl.l1_distance(limit, pred) < 1e-8


def test_iteration_distance_is_monotone():
    params = sl.LagrangianParams(2, 64)
    M2 = sl.power(sl.build_lagrangian(params), 2)
    pair = sl.equilibrium(params)
    f = sl.make_density([1.0], 64)
    last = sl.l1_distance(f, pair.e_plus)
    for _ in range(30):
        f = sl.apply(M2, f)
        d = sl.l1_distance(f, pair.e_plus)
        assert d <= last + 1e-15
        last = d
    assert last < 1e-6
