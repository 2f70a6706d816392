"""The mod-p Lagrangian operator and its equilibrium distributions.

The operator M_L is the banded birth-death kernel with

    m[r, r-1] = 1 - p**-r   (r >= 1),
    m[r, r+1] = p**-r       (r >= 0),

and zeros elsewhere.  It reverses parity, so M_L**2 preserves parity
and has a fixed probability vector on each parity class: E+ supported
on even ranks and E- on odd ranks, with entries

    c_n = prod_{j>=1} (1 + p**-j)**-1 * prod_{j=1}^{n} p / (p**j - 1).

Each parity class of the c_n sums to 1, so E+ and E- are genuine
densities, and iterating M_L**2 from any start converges to the mixture
determined by the start's parity mass.  This module constructs the
operator, evaluates the constants (exactly, then rounded once), and
realizes the convergence claim both predictively and by iteration.

Each float c_n is the correctly rounded value of the exact rational
pref * q_n, pref's product cut at 200 factors, and ``c_constants``
finds it from plain integers.  Euler's identity

    prod_{j>=1} (1 + p**-j) = sum_{n>=0} 1 / prod_{i=1}^{n} (p**i - 1)

brackets pref with a few fixed-point terms (17 at p = 2), the factors
past the cut fit in the bracket's slack, and the loop over n stops at
the first c_n that rounds to 0.0, since the later ones are smaller.
Where the bracket cannot settle a value, the Fraction product
``_exact_prefactor(p) * q_n`` is rounded instead; ``_exact_prefactor``
and ``c_partial_products`` stay as that fallback and as the reference
the tests compare against bit for bit.

Truncation: everything lives on ranks {0, ..., N-1}; the out-of-window
mass of the last row is folded two steps down so rows stay stochastic.
Since c_n decays like p**(-n(n+1)/2), the fold is far below double
rounding for the default N = 64.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .distributions import (
    TOL_TAIL,
    EVEN,
    ODD,
    BandedOperator,
    Density,
    Side,
    _freeze,
    _is_int,
    _parity_weighted,
    _validate_probability_vector,
    _zeros,
    apply,
    l1_distance,
    power,
    rho_parity,
)
from .errors import InvalidPrime, NoConvergence, TruncationMismatch, ValidationError

__all__ = [
    "LagrangianParams",
    "EquilibriumPair",
    "build_lagrangian",
    "c_constants",
    "c_partial_products",
    "equilibrium",
    "iterate_limit",
    "predicted_limit",
]


# Factors of the c_n prefactor product, and the fixed-point bits of its
# integer bracket in c_constants; the bracket needs K + 20 < 200.
_TAIL_TERMS = 200
_GUARD_BITS = 128


# Primes are taken below this bound, so the trial division in _check_prime
# stops by d = 46341 and takes milliseconds.
_PRIME_BOUND = 2**31


def _check_prime(p: int) -> None:
    # The one prime rule: LagrangianParams, t_distribution and TStepSampler.
    if not _is_int(p):
        raise InvalidPrime(f"p must be an int, got {p!r}")
    if p >= _PRIME_BOUND:
        raise InvalidPrime(f"p = {p} is not below the prime bound 2**31")
    d = 2
    while d * d <= p and p % d:
        d += 1
    if p < 2 or d * d <= p:
        raise InvalidPrime(f"p = {p} is not prime")


# Windows stop below this bound: numpy describes no N x N float64 matrix of
# more than intp-max (2**63 - 1) bytes.
_WINDOW_BOUND = 2**30


def _check_window(N: int) -> None:
    # The one rank-window rule: a width-1 step must be able to flip parity,
    # and the window's operators must be arrays numpy can describe.
    if not _is_int(N):
        raise ValidationError(f"N must be an int, got {N!r}")
    if N < 2:
        raise ValidationError(f"N must be >= 2, got {N}")
    if N >= _WINDOW_BOUND:
        raise ValidationError(f"N must be below the window bound 2**30, got {N}")


@dataclass(frozen=True)
class LagrangianParams:
    """Prime modulus and rank-window size."""

    p: int
    N: int = 64

    def __post_init__(self) -> None:
        _check_prime(self.p)
        _check_window(self.N)


@dataclass(frozen=True)
class EquilibriumPair:
    """The even- and odd-supported equilibrium densities and their c_n."""

    e_plus: Density
    e_minus: Density
    c: np.ndarray = field(repr=False)


def build_lagrangian(params: LagrangianParams, *, exact: bool = False) -> BandedOperator:
    """Construct M_L on the rank window, with the boundary fold at r = N-1.

    With ``exact=True`` the entries are Fractions and row sums are 1
    exactly; otherwise float64.
    """
    p, N = params.p, params.N
    matrix = _zeros((N, N), exact)
    one = Fraction(1) if exact else 1.0

    for r in range(N):
        up = Fraction(1, p**r) if exact else float(p) ** (-r)
        down = one - up
        if r >= 1:
            matrix[r, r - 1] = down
        if r + 1 < N:
            matrix[r, r + 1] = up
        else:
            # Fold the out-of-window mass from rank N down to rank N-2
            # so the row stays stochastic and parity-reversing.
            matrix[r, r - 1] += up
    # Entries sit on |r - s| = 1 only; the boundary fold lands on r - 1.
    return BandedOperator(_freeze(matrix))


@lru_cache(maxsize=None)
def _lagrangian_power(p: int, N: int, k: int) -> BandedOperator:
    # The governed target M_L**k on window N, built once per (p, N, k): the
    # fan pipelines and the finite-width disparity law all read it here.
    return power(build_lagrangian(LagrangianParams(p, N)), k)


def _exact_prefactor(p: int) -> Fraction:
    # prod_{j=1}^{J} (1 + p**-j)**-1 == prod p**j / (p**j + 1) at J =
    # _TAIL_TERMS, kept as an exact rational; the dropped tail is below
    # exp(p**-J) - 1.
    pref = Fraction(1)
    power_of_p = 1
    for _ in range(_TAIL_TERMS):
        power_of_p *= p
        pref *= Fraction(power_of_p, power_of_p + 1)
    return pref


def c_partial_products(p: int, N: int) -> list[Fraction]:
    """Exact partial products prod_{j=1}^{n} p/(p**j - 1) for n < N.

    These are the c_n up to the common prefactor, so ratios and the
    fixed-point identity can be checked in exact arithmetic.
    """
    out = [Fraction(1)]
    power_of_p = 1
    for _ in range(1, N):
        power_of_p *= p
        out.append(out[-1] * Fraction(p, power_of_p - 1))
    return out


def _prefactor_bracket(p: int, K: int) -> tuple[int, int]:
    # lo <= _exact_prefactor(p) * 2**K <= hi with hi - lo <= 4.
    # The series sum_n 1 / D_n, D_n = prod_{i<=n} (p**i - 1), is summed in
    # W-bit fixed point: floor(floor(a / b) / c) = floor(a / (b c)), and the
    # same for ceil, so each term is the last one divided by p**n - 1.  At
    # the first term whose floor is 0, D_n > 2**W and the rest of the series
    # is below 2 / D_n, two units.  n + 2 units of spread in the sum then
    # move the bracket by under one unit of 2**-K.
    W = K + 16
    low = high = 0
    term_lo = term_hi = 1 << W
    power_of_p = 1
    while term_lo:
        low, high = low + term_lo, high + term_hi
        power_of_p *= p
        term_lo //= power_of_p - 1
        term_hi = -(-term_hi // (power_of_p - 1))
    high += 2
    # pref = prod_{j>T} (1 + p**-j) / sum at T = _TAIL_TERMS.  Each p**j
    # there has more than T > K + 20 bits, so the product adds under
    # 2**-(K + 19) relative, under one unit, hence hi's + 1.
    lo = (1 << (K + W)) // high
    hi = -(-(1 << (K + W)) // low) + 1
    return lo, hi


def c_constants(params: LagrangianParams) -> np.ndarray:
    """The constants c_0, ..., c_{N-1}, each rounded once from an exact rational.

    Each value is ``float(_exact_prefactor(p) * q_n)`` bit for bit,
    with q_n = a_n / b_n from ``c_partial_products``, but is found with
    plain integers.  The prefactor is bracketed as lo <= pref * 2**K <=
    hi (K = ``_GUARD_BITS``, hi - lo <= 4) through Euler's series for
    prod_{j>=1} (1 + p**-j), summed in fixed point with floor and ceil
    ends.  The factors past the product's 200th, each p**j of more than
    K + 20 bits, shrink pref by a relative 2**-(K + 19) at most, under
    one unit of pref * 2**K < 2**K, which hi absorbs.  Int true division
    is correctly rounded and rounding to nearest is monotone, so when lo
    * a_n / (b_n << K) and hi * a_n / (b_n << K) agree, that double is
    the rounding of the exact c_n.  When they differ (never seen at K =
    128), the Fraction product is rounded instead.  Once the upper end
    rounds to 0.0 the loop stops: q_n / q_{n-1} = p / (p**n - 1) < 1
    for n >= 2, so every later c_n rounds to 0.0 as well.
    """
    p, K = params.p, _GUARD_BITS
    lo, hi = _prefactor_bracket(p, K)
    out = np.zeros(params.N)
    pref = None
    q_num = q_den = 1
    for n in range(params.N):
        if n:
            q_num *= p
            q_den *= q_num - 1
        d = q_den << K
        out[n] = hi * q_num / d
        if not out[n]:
            break
        if out[n] != lo * q_num / d:
            if pref is None:
                pref = _exact_prefactor(p)
            out[n] = float(pref * Fraction(q_num, q_den))
    return out


def equilibrium(params: LagrangianParams) -> EquilibriumPair:
    """The even/odd equilibrium pair (E+, E-) on the rank window.

    Each side keeps its own parity class of the c_n and zeros elsewhere.
    Normalization error is pure truncation tail, so N must be large
    enough that the tail is below ``TOL_TAIL`` (N >= 12 covers p >= 2).
    """
    c = c_constants(params)
    return EquilibriumPair(Density(_mixture(c, 0.0)), Density(_mixture(c, 1.0)), c)


def _mixture(c: np.ndarray, odd_mass) -> np.ndarray:
    # The one parity mixture of the c_n, (1 - odd_mass) E+ + odd_mass E-, as
    # frozen values checked to sum to 1 within TOL_TAIL: one row per entry of
    # a column of odd masses, the first bad row raising.  E+, E-,
    # predicted_limit and the disparity limits are all this law.
    rows = _parity_weighted(c, odd_mass)
    _validate_probability_vector(rows, TOL_TAIL, "density")
    return _freeze(rows)


def iterate_limit(
    M: BandedOperator, f: Density, max_steps: int = 10_000
) -> tuple[Density, int]:
    """Iterate M two applications at a time until successive even
    iterates are within ``TOL_TAIL`` (1e-10) in l1.

    Returns the final density and the number of double steps taken
    (0 when ``f`` is already a fixed point of M**2).  The even-step
    subsampling matters: a parity-reversing M never converges pointwise
    from a parity-impure start, but its square does.
    """
    current = f
    for step in range(max_steps + 1):
        after = apply(M, apply(M, current))
        if l1_distance(after, current) < TOL_TAIL:
            return current, step
        current = after
    raise NoConvergence(
        f"no fixed point of M^2 within {max_steps} double steps at tol {TOL_TAIL}"
    )


def predicted_limit(f: Density, power_parity: Side, params: LagrangianParams) -> Density:
    """The limit (1-rho)E+ + rho E- of even powers, swapped for odd powers."""
    if power_parity not in (EVEN, ODD):
        raise ValidationError(f"power_parity must be 'even' or 'odd', got {power_parity!r}")
    if f.N != params.N:
        raise TruncationMismatch(f"density N = {f.N}, params N = {params.N}")
    rho = rho_parity(f) if power_parity == EVEN else 1.0 - rho_parity(f)
    return Density(_mixture(c_constants(params), rho))
