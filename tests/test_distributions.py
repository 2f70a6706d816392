"""Tests for densities, parity functionals, and banded operators."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import selmerlab as sl
from selmerlab.distributions import _validate_probability_vector


P2 = sl.LagrangianParams(2, 64)


def test_make_density_point_mass():
    f = sl.make_density([1.0], 4)
    assert f.N == 4
    assert f.values[0] == 1.0
    assert f.values[1:].sum() == 0.0
    assert sl.rho_parity(f) == 0.0


def test_make_density_symmetric_split():
    f = sl.make_density([0.5, 0.5])
    assert sl.rho_parity(f) == 0.5


def test_make_density_rejects_bad_mass():
    with pytest.raises(sl.NotNormalized):
        sl.make_density([0.3, 0.3])
    with pytest.raises(sl.NegativeEntry):
        sl.make_density([1.5, -0.5])
    with pytest.raises(sl.TruncationMismatch):
        sl.make_density([0.5, 0.5, 0.0], N=2)
    with pytest.raises(sl.ValidationError):
        sl.make_density("ab")


def test_make_density_rejects_nan_and_empty():
    with pytest.raises(sl.NegativeEntry):
        sl.make_density([float("nan"), 1.0])
    with pytest.raises(sl.NotNormalized):
        sl.make_density([])
    with pytest.raises(sl.NegativeEntry):
        sl.make_operator([[Fraction(3, 2), Fraction(-1, 2)], [0, 1]])
    exact = sl.make_density([Fraction(1, 3), Fraction(2, 3)], 4)
    assert exact.exact and exact.values[3] == 0


def test_make_density_zero_pads():
    f = sl.make_density([0.25, 0.75], 8)
    assert f.N == 8
    assert f.values[2:].sum() == 0.0


def test_l1_distance_basics():
    f = sl.make_density([0.25, 0.75], 4)
    g = sl.make_density([1.0], 4)
    d1 = sl.make_density([0.0, 1.0], 4)
    assert sl.l1_distance(f, f) == 0.0
    assert sl.l1_distance(g, d1) == 2.0
    assert sl.l1_distance(f, g) == sl.l1_distance(g, f)
    with pytest.raises(sl.TruncationMismatch):
        sl.l1_distance(g, sl.make_density([1.0], 5))


def test_l1_distance_equilibrium_supports_are_disjoint():
    pair = sl.equilibrium(P2)
    assert sl.l1_distance(pair.e_plus, pair.e_minus) == pytest.approx(2.0, abs=1e-10)


def test_rho_parity_point_masses():
    assert sl.rho_parity(sl.make_density([1.0], 4)) == 0.0
    assert sl.rho_parity(sl.make_density([0.0, 1.0], 4)) == 1.0
    pair = sl.equilibrium(sl.LagrangianParams(2, 60))
    assert sl.rho_parity(pair.e_minus) == pytest.approx(1.0, abs=1e-10)


def test_project_parity_examples():
    d0 = sl.make_density([1.0], 4)
    assert list(sl.project_parity(d0, "even")) == [1.0, 0.0, 0.0, 0.0]
    assert list(sl.project_parity(d0, "odd")) == [0.0, 0.0, 0.0, 0.0]
    f = sl.make_density([0.5, 0.5])
    assert list(sl.project_parity(f, "even")) == [0.5, 0.0]
    with pytest.raises(ValueError):
        sl.project_parity(f, "sideways")


def test_project_parity_sum_is_exact():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.random(9)
        f = sl.make_density(raw / raw.sum())
        total = sl.project_parity(f, "even") + sl.project_parity(f, "odd")
        assert np.array_equal(total, f.values)


@settings(max_examples=60, deadline=None, database=None)
@given(
    weights=st.lists(st.integers(0, 1000), min_size=1, max_size=12).filter(any),
    side=st.sampled_from(["even", "odd"]),
)
def test_project_parity_keeps_the_backend(weights, side):
    # exact densities project to Fractions, float densities to the same
    # bits as zeroing the other parity class
    keep = np.arange(len(weights)) % 2 == (0 if side == "even" else 1)
    total = sum(weights)
    exact = sl.make_density([Fraction(w, total) for w in weights])
    out = sl.project_parity(exact, side)
    assert all(type(x) is Fraction for x in out)
    assert list(out) == [x if k else 0 for x, k in zip(exact.values, keep)]
    floats = sl.make_density([w / total for w in weights])
    expect = np.where(keep, floats.values, 0.0)
    assert sl.project_parity(floats, side).tobytes() == expect.tobytes()


def test_apply_identity_and_lagrangian():
    M = sl.build_lagrangian(P2)
    ident = sl.identity_operator(64)
    f = sl.make_density([0.25, 0.5, 0.25], 64)
    assert sl.l1_distance(sl.apply(ident, f), f) == 0.0
    # m[0, 1] = 1, so the point mass at 0 moves to 1
    d0 = sl.make_density([1.0], 64)
    out = sl.apply(M, d0)
    assert out.values[1] == 1.0
    # from rank 1: down with 1 - 1/2, up with 1/2
    d1 = sl.make_density([0.0, 1.0], 64)
    out = sl.apply(M, d1)
    assert list(out.values[:4]) == [0.5, 0.0, 0.5, 0.0]
    with pytest.raises(sl.TruncationMismatch):
        sl.apply(M, sl.make_density([1.0], 8))


def test_power_zero_is_identity():
    M = sl.build_lagrangian(P2)
    M0 = sl.power(M, 0)
    assert np.array_equal(M0.matrix, np.eye(64))
    with pytest.raises(ValueError):
        sl.power(M, -1)


def test_power_two_row_one():
    # row r=1 of M_L^2 at p=2: diagonal entry 1 + 1/2 - 1/2 - 1/8
    M = sl.build_lagrangian(P2)
    M2 = sl.power(M, 2)
    assert M2.matrix[1, 1] == pytest.approx(0.875, abs=1e-15)
    # cross-check against an explicit matrix product
    direct = M.matrix @ M.matrix
    assert np.abs(M2.matrix - direct).max() < 1e-15
    assert sl.classify_parity(M2) is sl.ParityClass.PRESERVING
    # band of width 2: nothing off the five central diagonals
    r, s = np.indices(M2.matrix.shape)
    assert np.all(M2.matrix[np.abs(r - s) > 2] == 0.0)
    for r in range(64):
        assert M2.matrix[r].sum() == pytest.approx(1.0, abs=1e-12)


def test_power_exact_backend_matches():
    M = sl.build_lagrangian(sl.LagrangianParams(2, 10), exact=True)
    M2 = sl.power(M, 2)
    assert M2.matrix[1, 1] == Fraction(7, 8)
    assert all(row.sum() == 1 for row in M2.matrix)


@pytest.mark.parametrize("p", [2, 3])
def test_power_exact_equals_repeated_dot(p):
    # k = 0 is identity_operator(12, exact=True): Fractions only, 1 on the diagonal
    M = sl.build_lagrangian(sl.LagrangianParams(p, 12), exact=True)
    expect = np.eye(12, dtype=int)
    for k in range(10):
        got = sl.power(M, k).matrix
        assert all(isinstance(v, Fraction) for v in got.flat)
        assert np.array_equal(got, expect)
        expect = np.dot(expect, M.matrix)


def test_classify_parity():
    M = sl.build_lagrangian(P2)
    assert sl.classify_parity(sl.identity_operator(8)) is sl.ParityClass.PRESERVING
    assert sl.classify_parity(M) is sl.ParityClass.REVERSING
    mix = sl.make_operator(0.5 * (np.eye(64) + M.matrix))
    assert sl.classify_parity(mix) is sl.ParityClass.NEITHER


def test_make_operator_validation():
    with pytest.raises(sl.NotNormalized):
        sl.make_operator([[0.5, 0.4], [0.0, 1.0]])
    with pytest.raises(sl.NegativeEntry):
        sl.make_operator([[1.5, -0.5], [0.0, 1.0]])
    with pytest.raises(sl.TruncationMismatch):
        sl.make_operator(np.ones((2, 3)) / 3.0)


def test_parity_laws_for_classified_operators():
    # reversing: rho flips; preserving: rho is conserved
    M = sl.build_lagrangian(P2)
    M2 = sl.power(M, 2)
    rng = np.random.default_rng(1)
    for _ in range(20):
        raw = rng.random(20)
        f = sl.make_density(raw / raw.sum(), 64)
        rho = sl.rho_parity(f)
        assert sl.rho_parity(sl.apply(M, f)) == pytest.approx(1.0 - rho, abs=1e-12)
        assert sl.rho_parity(sl.apply(M2, f)) == pytest.approx(rho, abs=1e-12)


def test_reversing_commutation_with_projections():
    # for reversing M: M(pi_even f) = pi_odd(M f), entrywise
    M = sl.build_lagrangian(P2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        raw = rng.random(16)
        f = sl.make_density(raw / raw.sum(), 64)
        lhs = np.dot(sl.project_parity(f, "even"), M.matrix)
        rhs = sl.project_parity(sl.apply(M, f), "odd")
        assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_is_affine_on_mixtures():
    M = sl.build_lagrangian(P2)
    rng = np.random.default_rng(3)
    raw_f, raw_g = rng.random(12), rng.random(12)
    f = sl.make_density(raw_f / raw_f.sum(), 64)
    g = sl.make_density(raw_g / raw_g.sum(), 64)
    a = 0.3
    mix = sl.make_density(a * f.values + (1 - a) * g.values, 64)
    lhs = sl.apply(M, mix).values
    rhs = a * sl.apply(M, f).values + (1 - a) * sl.apply(M, g).values
    assert np.abs(lhs - rhs).max() < 1e-12


@pytest.mark.parametrize("bad, error, text", [
    ([0.5, -0.25, 0.75], sl.NegativeEntry, "row 2 has a negative or NaN entry"),
    ([0.5, np.nan, 0.5], sl.NegativeEntry, "row 2 has a negative or NaN entry"),
    ([0.5, 0.25, 0.25 + 2e-12], sl.NotNormalized,
     "row 2 sums to 1.000000000002, not 1 within 1e-12"),
])
def test_block_check_names_the_first_bad_row(bad, error, text):
    # a 2-D block is checked as a loop over its rows would check it: the
    # first bad row raises its own error, whatever the later rows hold
    block = np.full((6, 3), 1.0 / 3.0)
    block[2] = bad
    block[4] = [2.0, -1.0, 0.0]
    block[5] = [0.5, 0.5, 0.5]
    with pytest.raises(error) as info:
        _validate_probability_vector(block, sl.TOL_NORM, "row {}")
    assert str(info.value) == text
    with pytest.raises(error) as info:
        _validate_probability_vector(block[2], sl.TOL_NORM, "row 2")
    assert str(info.value) == text
    _validate_probability_vector(block[:2], sl.TOL_NORM, "row {}")
    _validate_probability_vector(block[:0], sl.TOL_NORM, "row {}")
    with pytest.raises(error) as info:
        sl.make_operator(block[:3, :3])
    assert str(info.value) == "operator " + text
