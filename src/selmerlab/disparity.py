"""Disparity-weighted limit distributions and the average-rank functional.

The disparity delta is a single number in [-1/2, 1/2] computed from
per-place local character data: each character contributes a sign
(-1)**h_parity * delta_value, each place averages its characters, and

    delta = ((-1)**rank_of_trivial / 2) * prod_v delta_v.

Delta is the only parameter the limiting rank distribution of the twist
family depends on.  Two opposite sign conventions for how delta tilts
the limit appear in the source material, so both are implemented behind
an ``orientation`` flag:

* ``odd_heavy`` puts mass (1/2 + delta) c_r on odd ranks r and
                    (1/2 - delta) c_r on even ranks;
* ``even_heavy`` is the same with the parities swapped.

Either way the limit is ``predicted_limit`` at odd mass 1/2 + delta
(``odd_heavy``) or 1/2 - delta (``even_heavy``).

``odd_heavy`` is the default: it is the convention under which the
average rank is 1.2645 + 0.1211 delta (the odd-rank mass sum B exceeds
the even one A, so the slope (B - A)/... is positive only when delta
weights the odd side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from .distributions import (
    TOL_NORM,
    TOL_TAIL,
    Density,
    _freeze,
    _parity_weighted,
    _validate_probability_vector,
    apply,
    l1_distance,
    make_density,
    rho_parity,
)
from .errors import (
    DisparityOutOfRange,
    EmptyCharacterList,
    ValidationError,
)
from .fans import ConvergenceRate, FanSpec, Mode, fan_collapse
from .lagrangian import LagrangianParams, _lagrangian_power, c_constants
from .twists import StreamConfig, synth_prime_stream

__all__ = [
    "LocalCharacter",
    "LocalPlaceData",
    "DisparityTable",
    "InitialPair",
    "Orientation",
    "delta_local",
    "delta_global",
    "initial_from_disparity",
    "finite_fan_distribution",
    "limit_distribution",
    "average_rank",
    "FanExperimentReport",
    "end_to_end_fan_experiment",
]

Orientation = Literal["odd_heavy", "even_heavy"]
_ORIENTATIONS = get_args(Orientation)  # the names an Orientation takes


@dataclass(frozen=True)
class LocalCharacter:
    """One local character: h-pairing parity and the value at the twist class."""

    h_parity: int
    delta_value: int

    def __post_init__(self) -> None:
        if self.h_parity not in (0, 1):
            raise ValidationError(f"h_parity must be 0 or 1, got {self.h_parity}")
        if self.delta_value not in (-1, 1):
            raise ValidationError(f"delta_value must be +1 or -1, got {self.delta_value}")

    @property
    def sign(self) -> int:
        return (-1) ** self.h_parity * self.delta_value


@dataclass(frozen=True)
class LocalPlaceData:
    """A place's character list; must contain the trivial character (0, +1)."""

    id: str
    characters: tuple[LocalCharacter, ...]

    def __post_init__(self) -> None:
        if not self.characters:
            raise EmptyCharacterList(f"place {self.id!r} has no characters")
        if LocalCharacter(0, 1) not in self.characters:
            raise ValidationError(
                f"place {self.id!r} must include the trivial character (h_parity 0, value +1)"
            )


@dataclass(frozen=True)
class DisparityTable:
    """Per-place local data plus the rank of the trivial twist."""

    places: tuple[LocalPlaceData, ...]
    rank_of_trivial: int

    def __post_init__(self) -> None:
        if self.rank_of_trivial < 0:
            raise ValidationError(
                f"rank_of_trivial must be >= 0, got {self.rank_of_trivial}"
            )
        seen = set()
        for place in self.places:
            if place.id in seen:
                raise ValidationError(f"place id {place.id!r} appears more than once")
            seen.add(place.id)


def delta_local(place: LocalPlaceData) -> float:
    """Mean of (-1)**h_parity * delta_value over the place's characters."""
    return sum(ch.sign for ch in place.characters) / len(place.characters)


def delta_global(table: DisparityTable) -> float:
    """((-1)**rank_of_trivial / 2) times the product of the local averages."""
    product = 1.0
    for place in table.places:
        product *= delta_local(place)
    return (-1) ** table.rank_of_trivial * 0.5 * product


@dataclass(frozen=True)
class InitialPair:
    """Empty-level rank distributions over the two character classes.

    The defining constraint is the parity split: rho(e1_plus) +
    rho(e1_minus) = 1.
    """

    e1_plus: Density
    e1_minus: Density

    def __post_init__(self) -> None:
        gap = abs(rho_parity(self.e1_plus) + rho_parity(self.e1_minus) - 1.0)
        if gap > TOL_NORM:
            raise ValidationError(
                f"rho(e1_plus) + rho(e1_minus) differs from 1 by {gap:.3e}"
            )


def initial_from_disparity(delta: float, support_cap: int) -> InitialPair:
    """Canonical pair with rho(e1_plus) = 1/2 - delta, rho(e1_minus) = 1/2 + delta.

    The canonical choice puts all mass on ranks 0 and 1; any other pair
    with the same parity masses has the same limits, which is what makes
    the choice harmless.
    """
    if not _inside([delta]):
        raise _out_of_range(delta)
    e1_plus = make_density([0.5 + delta, 0.5 - delta], support_cap)
    e1_minus = make_density([0.5 - delta, 0.5 + delta], support_cap)
    return InitialPair(e1_plus, e1_minus)


def finite_fan_distribution(pair: InitialPair, k: int, p: int, N: int) -> Density:
    """Exact distribution at total width k: M_L**k of the parity-matched start.

    Levels of even total width see the plus class, odd width the minus
    class, so the k-th power acts on e1_plus for even k and e1_minus
    for odd k.
    """
    if k < 0:
        raise ValidationError(f"k must be >= 0, got {k}")
    start = pair.e1_plus if k % 2 == 0 else pair.e1_minus
    return apply(_lagrangian_power(p, N, k), start)


def limit_distribution(
    delta: float, p: int, N: int = 64, orientation: Orientation = "odd_heavy"
) -> Density:
    """The limiting rank distribution as total width grows.

    ``odd_heavy`` puts (1/2 + delta) c_r on odd r and (1/2 - delta) c_r
    on even r; ``even_heavy`` swaps the coefficients.
    """
    return _limit_values(c_constants(LagrangianParams(p, N)), delta, orientation)


def _inside(deltas) -> int:
    # The one range rule for a disparity, |delta| <= 1/2, which NaN fails:
    # how many of the deltas keep it before the first that does not.
    return next((j for j, delta in enumerate(deltas) if not abs(delta) <= 0.5), len(deltas))


def _out_of_range(delta) -> DisparityOutOfRange:
    return DisparityOutOfRange(f"|delta| must be <= 1/2, got {delta}")


def _limit_rows(c: np.ndarray, deltas: list, orientation: Orientation) -> np.ndarray:
    # limit_distribution from given c_constants, one row per delta, for
    # callers that tilt one c many times.  Checked as one call per delta
    # would be: a delta's range, the orientation, then the delta's row, so
    # the first bad delta raises.
    good = _inside(deltas)
    if good and orientation not in _ORIENTATIONS:
        raise ValidationError(f"unknown orientation {orientation!r}")
    tilt = np.array(deltas[:good], dtype=np.float64)[:, None]
    rows = _parity_weighted(c, 0.5 + tilt if orientation == "odd_heavy" else 0.5 - tilt)
    _validate_probability_vector(rows, TOL_TAIL, "density")
    if good < len(deltas):
        raise _out_of_range(deltas[good])
    return rows


def _limit_values(c: np.ndarray, delta: float, orientation: Orientation) -> Density:
    # limit_distribution from given c_constants
    return Density(_freeze(_limit_rows(c, [delta], orientation)[0]))


def average_rank(
    delta: float, p: int = 2, N: int = 64, orientation: Orientation = "odd_heavy"
) -> float:
    """Mean rank of the limit distribution; affine in delta.

    Writing A and B for the even- and odd-rank sums of n * c_n, the
    odd_heavy value is (A + B)/2 + delta (B - A).
    """
    return _mean_rank(limit_distribution(delta, p, N, orientation).values)


def _mean_rank(values: np.ndarray) -> float:
    # the mean rank of a float density's values
    return float(np.arange(len(values)) @ values)


@dataclass(frozen=True)
class FanExperimentReport:
    """End-to-end run: the global delta, the fan average, its two
    references (finite width-k law and delta-only limit) and the l1
    residual to each."""

    delta: float
    fan: Density
    finite: Density
    limit: Density
    residual_finite: float
    residual_limit: float


def end_to_end_fan_experiment(
    table: DisparityTable,
    rate: ConvergenceRate,
    m: int,
    k: int,
    X: float,
    mode: Mode,
    p: int,
    N: int = 64,
    *,
    rng: np.random.Generator,
    orientation: Orientation = "odd_heavy",
    stream: StreamConfig | None = None,
    stream_X: float = 2000.0,
    levels: int = 30,
    walks: int = 100_000,
    y: float | None = None,
) -> FanExperimentReport:
    """Disparity table -> initial pair -> fan average -> residual report.

    The fan average is compared against the exact width-k distribution
    (zero in exact mode up to rounding) and against the delta-only limit
    under the chosen orientation.  The pair handed to the walk is built
    so that the walk's limit lands on that orientation: the two sign
    conventions differ exactly by delta -> -delta in the pair.
    """
    delta = delta_global(table)
    # Built first: it reads no rng and rejects a bad orientation before any sampling.
    limit = limit_distribution(delta, p, N, orientation)
    pair_delta = -delta if orientation == "odd_heavy" else delta
    pair = initial_from_disparity(pair_delta, N)
    config = stream if stream is not None else StreamConfig(seed=0)
    # The governed target of the pipeline, M_L**k on the parity-matched
    # start, is finite_fan_distribution(pair, k, p, N).
    fan, finite = fan_collapse(
        FanSpec.from_rate(rate, m, k, X),
        synth_prime_stream(config, stream_X),
        pair.e1_plus if k % 2 == 0 else pair.e1_minus,
        mode, p, rng, levels=levels, walks=walks, y=y,
    )
    return FanExperimentReport(
        delta=delta,
        fan=fan,
        finite=finite,
        limit=limit,
        residual_finite=l1_distance(fan, finite),
        residual_limit=l1_distance(fan, limit),
    )
