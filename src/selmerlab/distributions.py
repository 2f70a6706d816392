"""Probability densities on ranks and banded Markov operators.

A :class:`Density` is a probability distribution on the rank window
``{0, ..., N-1}``.  A :class:`BandedOperator` is a row-stochastic matrix
acting on densities from the right,

    (M f)(s) = sum_r m[r, s] f(r),

so applying M is a vector-matrix product.  Both types come in two
arithmetic backends behind one interface: float64 arrays for iteration
and simulation, and ``fractions.Fraction`` object arrays when an
identity has to hold exactly.

Parity is the mass a density puts on odd ranks (:func:`rho_parity`).
``_parity_weighted`` scales the even ranks by 1 - w and the odd by w:
E+, E- and every limit law downstream are the c_n under it at some w,
and :func:`project_parity` is a density under it at w = 0 or 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

import numpy as np

from .errors import NegativeEntry, NotNormalized, TruncationMismatch, ValidationError

__all__ = [
    "TOL_NORM",
    "TOL_TAIL",
    "Density",
    "BandedOperator",
    "ParityClass",
    "make_density",
    "make_operator",
    "identity_operator",
    "l1_distance",
    "rho_parity",
    "project_parity",
    "apply",
    "power",
    "classify_parity",
]

# |sum - 1| tolerance for anything that claims to be a probability
# vector, and the looser tolerance for quantities that carry truncation
# tail error (equilibrium sums, limit comparisons).
TOL_NORM = 1e-12
TOL_TAIL = 1e-10

Side = Literal["even", "odd"]


def _is_exact(array: np.ndarray) -> bool:
    return array.dtype == object


def _freeze(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _zeros(shape, exact: bool) -> np.ndarray:
    # The one zero array of both backends, of Fraction zeros when exact.
    return np.full(shape, Fraction(0), dtype=object) if exact else np.zeros(shape)


def _coerce_vector(raw) -> np.ndarray:
    try:
        values = list(raw)
        if any(isinstance(v, Fraction) for v in values):
            return np.array([Fraction(v) for v in values], dtype=object)
        array = np.asarray(values, dtype=float)
    except (TypeError, ValueError):
        array = None
    if isinstance(raw, str) or array is None or array.ndim != 1:
        raise ValidationError(f"density entries must be a flat list of numbers, got {raw!r}")
    return array


def _validate_probability_vector(values: np.ndarray, tol: float, what: str) -> None:
    # The one probability-vector rule: no negative or NaN entry, and a sum
    # within tol of 1.  A 2-D block is checked row by row, as a loop over
    # its rows would be: the first bad row r raises, named by what.format(r).
    # A row is contiguous, so its sum is the same float as the row's own.
    positive = (values >= 0).all(axis=-1)  # NaN compares False; Fraction arrays compare too
    totals = values.sum(axis=-1)
    good = positive & (abs(totals - 1.0) <= tol)  # a Fraction total meets 1.0 as a float
    if not good.all():
        positive, totals, good = np.atleast_1d(positive, totals, good)
        r = int(np.argmin(good))
        if not positive[r]:
            raise NegativeEntry(f"{what.format(r)} has a negative or NaN entry")
        raise NotNormalized(f"{what.format(r)} sums to {float(totals[r])!r}, not 1 within {tol}")


@dataclass(frozen=True, eq=False)
class Density:
    """Probability distribution on the rank window {0, ..., N-1}.

    Entries are non-negative and sum to 1 within ``TOL_NORM``, or within
    ``TOL_TAIL`` for the laws built from the truncated c_n.  Construct
    through :func:`make_density`; the array is frozen read-only.
    """

    values: np.ndarray

    @property
    def N(self) -> int:
        return int(len(self.values))

    @property
    def exact(self) -> bool:
        return _is_exact(self.values)

    def as_float(self) -> np.ndarray:
        return self.values.astype(float)


def make_density(raw, N: int | None = None) -> Density:
    """Build a validated Density, zero-padding ``raw`` up to length ``N``.

    Raises ``NegativeEntry`` or ``NotNormalized`` when the entries are
    not a probability vector within ``TOL_NORM``, and ``TruncationMismatch``
    when ``raw`` is longer than ``N``.
    """
    values = _coerce_vector(raw)
    if N is None:
        N = len(values)
    if len(values) > N:
        raise TruncationMismatch(f"raw has length {len(values)} > N = {N}")
    if len(values) < N:
        values = np.concatenate([values, _zeros(N - len(values), _is_exact(values))])
    _validate_probability_vector(values, TOL_NORM, "density")
    return Density(_freeze(values))


def _density_unchecked(values: np.ndarray, tol: float = TOL_NORM) -> Density:
    # Internal: entries are non-negative by construction, only the mass
    # drift needs asserting.
    _validate_probability_vector(values, tol, "density")
    return Density(_freeze(values))


class ParityClass(enum.Enum):
    PRESERVING = "preserving"
    REVERSING = "reversing"
    NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class BandedOperator:
    """Row-stochastic matrix acting on densities from the right.

    The operators built here are banded (nonzero only near the
    diagonal), but the band is a property of the zero pattern, not a
    stored field; the matrix is the only field.
    """

    matrix: np.ndarray

    @property
    def N(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def exact(self) -> bool:
        return _is_exact(self.matrix)


def make_operator(matrix) -> BandedOperator:
    """Validate a square row-stochastic matrix and wrap it.

    Object arrays (Fraction entries) stay exact; anything else becomes
    float64.  Raises ``NegativeEntry`` / ``NotNormalized`` on a row that
    is not a probability vector within ``TOL_NORM``.
    """
    matrix = np.array(matrix, dtype=object if _is_exact(np.asarray(matrix)) else float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise TruncationMismatch(f"operator matrix must be square, got {matrix.shape}")
    _validate_probability_vector(matrix, TOL_NORM, "operator row {}")
    return BandedOperator(_freeze(matrix))


def identity_operator(N: int, *, exact: bool = False) -> BandedOperator:
    matrix = _zeros((N, N), exact)
    np.fill_diagonal(matrix, Fraction(1) if exact else 1.0)
    return BandedOperator(_freeze(matrix))


def l1_distance(f: Density, g: Density) -> float:
    """Total variation norm of the difference, sum_n |f(n) - g(n)|."""
    if f.N != g.N:
        raise TruncationMismatch(f"densities have N = {f.N} and {g.N}")
    return float(np.abs(f.values - g.values).sum())


def rho_parity(f: Density) -> float:
    """Parity of f: total mass on odd ranks."""
    return float(f.values[1::2].sum())


def project_parity(f: Density, side: Side) -> np.ndarray:
    """Zero out the complementary-parity entries; no renormalization.

    The result is generally not a probability vector, so it is returned
    as a plain array.  ``project_parity(f, "even") +
    project_parity(f, "odd")`` reproduces ``f.values`` exactly.
    """
    if side not in ("even", "odd"):
        raise ValidationError(f"side must be 'even' or 'odd', got {side!r}")
    return _parity_weighted(f.values, 0 if side == "even" else 1)


def _parity_weighted(values: np.ndarray, odd_mass) -> np.ndarray:
    # A copy with even ranks scaled by 1 - odd_mass and odd ranks by
    # odd_mass; a column of k odd masses gives k such rows.  Integer
    # weights 0 and 1 keep Fraction entries exact.
    out = np.empty(np.shape(odd_mass)[:-1] + values.shape, dtype=values.dtype)
    np.multiply(values[0::2], 1 - odd_mass, out=out[..., 0::2])
    np.multiply(values[1::2], odd_mass, out=out[..., 1::2])
    return out


def apply(M: BandedOperator, f: Density) -> Density:
    """Act on a density from the right: (M f)(s) = sum_r m[r, s] f(r)."""
    if M.N != f.N:
        raise TruncationMismatch(f"operator N = {M.N}, density N = {f.N}")
    values = np.dot(f.values, M.matrix)
    return _density_unchecked(values)


def power(M: BandedOperator, k: int) -> BandedOperator:
    """k-th composition power; k = 0 gives the identity."""
    if k < 0 or k != int(k):
        raise ValidationError(f"power requires an integer k >= 0, got {k!r}")
    if k == 0:
        return identity_operator(M.N, exact=M.exact)
    return BandedOperator(_freeze(np.linalg.matrix_power(M.matrix, int(k))))


def classify_parity(M: BandedOperator) -> ParityClass:
    """Zero-pattern test: preserving, reversing, or neither.

    Entries are compared to zero exactly; this is a structural property
    of the matrix, not a numeric one.
    """
    idx = np.arange(M.N)
    same_parity = (idx[:, None] - idx[None, :]) % 2 == 0
    nonzero = M.matrix != 0
    has_same = bool(np.any(nonzero & same_parity))
    has_diff = bool(np.any(nonzero & ~same_parity))
    if not has_diff:
        return ParityClass.PRESERVING
    if not has_same:
        return ParityClass.REVERSING
    return ParityClass.NEITHER
