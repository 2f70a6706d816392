"""Synthetic twist process: prime stream, t-sampler, and rank updates.

The model replaces number-field arithmetic with three ingredients that
keep exactly the statistics that matter:

* a stream of synthetic primes, each with a norm and a width in
  {0, 1, 2} (the width is how much the rank can move when twisting at
  that prime).  The stream is held as two arrays, norms and widths,
  with a site's id its index; a :class:`PrimeSite` is built only when
  one is indexed, so the fan counter reads the arrays directly;
* the distribution of the localization dimension t at a prime of width
  i given the current rank r, with rows

      i = 1:  (p**-r,  1 - p**-r)                          over t in {0, 1}
      i = 2:  (p**-2r, (p+1)(p**-r - p**-2r),
               1 - (p+1)p**-r + p**(1-2r))                 over t in {0, 1, 2};

* the rank update given (i, t): width 1 moves rank -1 on t = 1 and +1
  on t = 0; width 2 moves -2 on t = 2, stays on t = 1, and on t = 0
  moves +2 for exactly p-1 of the p(p-1) fiber characters (probability
  1/p) staying put otherwise.

Composing the two laws gives the exact one-step kernels: width 1
reproduces the Lagrangian operator M_L and width 2 reproduces M_L**2.
On the rank window a step that would leave it folds down two ranks,
in the exact kernels and in the sampled walks alike.
That identity is the whole point, and it is built here by an
independent route (table times conditional law, never a matrix power)
so the two constructions can be compared.

Sampling at a finite cutoff Y is modeled by perturbing each t-row once
per (i, r) by at most 1/Y in l1, which realizes the convergence-rate
inequality the averaging bounds assume.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Literal, get_args

import numpy as np

from .distributions import (
    BandedOperator,
    Density,
    _density_unchecked,
    _freeze,
    _is_int,
    _zeros,
)
from .errors import DegenerateConfig, ValidationError
from .lagrangian import LagrangianParams, _check_prime, _check_window

__all__ = [
    "S3_WIDTH_DENSITIES",
    "PrimeSite",
    "StreamConfig",
    "synth_prime_stream",
    "t_distribution",
    "exact_step_kernel",
    "TStepSampler",
    "sample_transitions",
    "simulate_walks",
]

# Width frequencies for the generic Galois-image case: proportions of
# group elements acting with 1, 2, or 0 fixed lines among the three
# two-element classes of S3 permutations (order 3, order 2, identity).
S3_WIDTH_DENSITIES = (1.0 / 3.0, 1.0 / 2.0, 1.0 / 6.0)


@dataclass(frozen=True)
class PrimeSite:
    """One synthetic prime: unique id, norm > 1, width in {0, 1, 2}."""

    id: int
    norm: float
    width: int

    def __post_init__(self) -> None:
        if not self.norm > 1.0:
            raise ValidationError(f"site norm must be > 1, got {self.norm}")
        if not _is_int(self.width) or self.width not in (0, 1, 2):
            raise ValidationError(f"site width must be 0, 1 or 2, got {self.width!r}")


def _is_seed(seed) -> bool:
    # A seed numpy accepts: an int >= 0.
    return _is_int(seed) and seed >= 0


@dataclass(frozen=True)
class StreamConfig:
    """Width densities (d0, d1, d2), expected sites per unit norm, seed.

    d2 must be positive: the width-2 primes are the ones that always
    exist in the arithmetic being modeled, and several feasibility
    statements assume them.
    """

    width_densities: tuple[float, float, float] = S3_WIDTH_DENSITIES
    growth_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        d = self.width_densities
        if len(d) != 3 or not all(x >= 0 for x in d):
            raise DegenerateConfig(f"width densities must be 3 non-negative values, got {d}")
        if not abs(sum(d) - 1.0) <= 1e-12:
            raise DegenerateConfig(f"width densities sum to {sum(d)}, not 1")
        if not d[2] > 0:
            raise DegenerateConfig("d_2 must be positive (width-2 primes always exist)")
        if not _is_seed(self.seed):
            raise DegenerateConfig(f"seed must be an int >= 0, got {self.seed!r}")


class PrimeStream(Sequence[PrimeSite]):
    """A read-only sequence of sites held as ``norms`` and ``widths`` arrays.

    Site j is ``PrimeSite(j, norms[j], widths[j])``, built on indexing;
    the sites are sorted by (norm, id).  Compares equal to any sequence
    of the same sites, a list included; a slice is a list of sites.
    ``_fans`` keeps the fans built on the stream, one per distinct
    ``FanSpec`` (see ``fans._fan_of``).
    """

    __slots__ = ("norms", "widths", "_fans")

    def __init__(self, norms: np.ndarray, widths: np.ndarray):
        if len(norms) != len(widths):
            raise ValidationError(
                f"a stream needs one width per norm, got {len(norms)} norms"
                f" and {len(widths)} widths"
            )
        if widths.dtype.kind not in "iu":
            raise ValidationError(f"stream widths must be ints, got dtype {widths.dtype}")
        bad = np.flatnonzero(~(norms > 1.0) | (widths < 0) | (widths > 2))
        if bad.size:  # the first bad site raises PrimeSite's error
            j = int(bad[0])
            PrimeSite(j, float(norms[j]), int(widths[j]))
        self.norms, self.widths = norms, widths
        norms.flags.writeable = widths.flags.writeable = False
        self._fans = {}

    def __len__(self) -> int:
        return len(self.norms)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(*index.indices(len(self)))]
        j = range(len(self))[index]  # normalizes a negative index, raises IndexError
        return PrimeSite(j, float(self.norms[j]), int(self.widths[j]))

    def __iter__(self):
        for j, (norm, width) in enumerate(zip(self.norms.tolist(), self.widths.tolist())):
            yield PrimeSite(j, norm, width)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def synth_prime_stream(config: StreamConfig, X: float) -> Sequence[PrimeSite]:
    """Generate the synthetic primes of norm < X, sorted by norm.

    Norms follow a unit-free point process with the configured expected
    number of sites per unit norm (exponential spacings), so the count
    below X grows linearly in X.  Widths are i.i.d. from the configured
    densities.  Deterministic given the config seed, and consistent
    across cutoffs: two calls with the same config agree on every site
    below the smaller X.

    The result is a :class:`PrimeStream`: float64 norms and int64
    widths, built a block of 4096 sites at a time.  A block's norms are
    a sequential cumulative sum from the previous norm, which adds in
    the same order as stepping site by site, so every norm is the same
    float a per-site loop would produce.
    """
    # An infinite rate or cutoff would never end the loop below.
    if not 0 < config.growth_rate < math.inf:
        raise DegenerateConfig(f"growth_rate must be > 0 and finite, got {config.growth_rate}")
    if not X < math.inf:
        raise ValidationError(f"stream cutoff X must be finite, got {X}")
    rng = np.random.default_rng(config.seed)
    norms = [np.empty(0)]
    widths = [np.empty(0, dtype=np.int64)]
    position = 1.0
    # Fixed block size: the rng consumption per block never depends on
    # X, which is what makes the streams prefix-consistent.
    block = 4096
    # The arithmetic of rng.choice(3, size=block, p=densities), which
    # draws the same widths from the same generator state: a cumulative
    # sum scaled by its last entry, then a right-side search of one
    # random(block) draw in it.
    cdf = np.cumsum(np.array(config.width_densities, dtype=np.float64))
    cdf /= cdf[-1]
    while position < X:
        spacings = rng.exponential(1.0 / config.growth_rate, size=block)
        u = rng.random(block)
        drawn = (u >= cdf[0]).astype(np.int64) + (u >= cdf[1])
        # np.cumsum adds left to right, one term at a time.
        positions = np.cumsum(np.concatenate(([position], spacings)))[1:]
        cut = int(np.searchsorted(positions, X))  # first position >= X
        norms.append(positions[:cut])
        widths.append(drawn[:cut])
        if cut < block:
            break
        position = float(positions[-1])
    return PrimeStream(np.concatenate(norms), np.concatenate(widths))


def _check_width(i) -> None:
    # The one step-width rule: t_distribution, simulate_walks and step_average_gap.
    if not _is_int(i) or i not in (1, 2):
        raise ValidationError(f"width i must be 1 or 2, got {i!r}")


def t_distribution(i: int, r: int, p: int, *, exact: bool = False):
    """Distribution of the localization dimension t over {0, ..., i}.

    Returns a float array, or a tuple of Fractions with ``exact=True``
    (rows then sum to 1 exactly).  The rows put no mass on t > r, so
    the rank floor is automatic.
    """
    _check_width(i)
    if not _is_int(r):
        raise ValidationError(f"rank r must be an int, got {r!r}")
    if r < 0:
        raise ValidationError(f"rank r must be >= 0, got {r}")
    _check_prime(p)
    q = Fraction(1, p**r)
    if i == 1:
        row = (q, 1 - q)
    else:
        row = (q * q, (p + 1) * (q - q * q), 1 - (p + 1) * q + p * q * q)
    if exact:
        return row
    return np.array([float(x) for x in row])


@lru_cache(maxsize=None)
def _t_row(i: int, r: int, p: int) -> np.ndarray:  # shared and read-only
    return _freeze(t_distribution(i, r, p))


def _compose(i: int, r: int, row, p_inv, N: int) -> list[tuple[int, object]]:
    # The one place the (i, t) -> rank law meets a t-row: the nonzero
    # (target rank, probability) pairs of one kernel row on the window
    # {0, ..., N-1}.  Exact rows pass p_inv = Fraction(1, p); float and
    # sampler rows pass 1 / p.  A target at or above N folds down two
    # ranks at a time, which keeps parity; folded pairs are not merged,
    # so a target can repeat.
    if i == 1:
        pairs = ((r - 1, row[1]), (r + 1, row[0]))
    else:
        up = row[0] * p_inv
        pairs = ((r - 2, row[2]), (r, row[1] + (row[0] - up)), (r + 2, up))
    out = []
    for target, mass in pairs:
        if mass:
            while target >= N:
                target -= 2
            out.append((target, mass))
    return out


def exact_step_kernel(i: int, p: int, N: int, *, exact: bool = False) -> BandedOperator:
    """The one-step rank kernel for a width-i prime, on the rank window.

    Built by composing the t-distribution with the conditional rank
    update, so it is independent of the Lagrangian construction; the
    governing identities (width 1 gives M_L, width 2 gives M_L**2)
    are theorems to check, not definitions.  Out-of-window mass at the
    top rows folds down two ranks (width 1: the same fold as the
    Lagrangian; width 2: onto the diagonal), keeping parity behavior.
    """
    _check_window(N)
    rows = (t_distribution(i, r, p, exact=True) for r in range(N))
    return BandedOperator(_freeze(_kernel(i, rows, Fraction(1, p), N, exact)))


def _kernel(i: int, rows, p_inv, N: int, exact: bool = False) -> np.ndarray:
    # The one kernel builder: row r of the width-i matrix on window N is the
    # composed r-th of the given t-rows, and zero past the last one given.
    # Folded targets can repeat; their masses add.
    matrix = _zeros((N, N), exact)
    for r, row in enumerate(rows):
        for target, mass in _compose(i, r, row, p_inv, N):
            matrix[r, target] += mass if exact else float(mass)
    return matrix


@lru_cache(maxsize=None)
def _exact_kernel(i: int, p: int, N: int) -> BandedOperator:
    # The exact-mode kernels of _fan_average, built once per (i, p, N).
    return exact_step_kernel(i, p, N)


def _check_cutoff(y) -> None:
    # A sampler's cutoff: None for the exact rows, else a number >= 2.
    if y is not None and not y >= 2.0:
        raise ValidationError(f"cutoff y must be >= 2, got {y}")


class TStepSampler:
    """Draws t values, exactly or with a fixed per-row bias of size <= 1/y.

    With ``y=None`` the sampler uses the exact rows.  With a finite y it
    models sampling the stream below a cutoff: every (i, r) row gets one
    perturbation, drawn deterministically from (seed, i, r), whose total
    l1 size is at most 1/y and which keeps the row a distribution with
    support inside {0, ..., min(i, r)}.  The perturbation is systematic
    (keyed by (seed, i, r), so every call gives the same row), so it
    behaves like the finite-cutoff bias the convergence-rate contract
    describes rather than extra noise.
    """

    def __init__(self, p: int, y: float | None = None, seed: int = 0):
        _check_prime(p)
        _check_cutoff(y)
        if not _is_seed(seed):
            raise ValidationError(f"seed must be an int >= 0, got {seed!r}")
        self.p = p
        self.y = y
        self.seed = seed
        # The seed's little-endian uint32 words (0 is one word), the entropy
        # default_rng([seed, i, r]) reads from its first entry.
        seed = int(seed)
        self._words = [seed >> s & 0xFFFFFFFF for s in range(0, max(seed.bit_length(), 1), 32)]

    def _rng(self, i: int, r: int) -> np.random.Generator:
        # default_rng([seed, i, r]) built from its uint32 words: the same
        # state, without numpy coercing a list of Python ints
        words = np.array(self._words + [i, r], dtype=np.uint32)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(words)))

    def row(self, i: int, r: int) -> np.ndarray:
        # Python floats on two or three entries.  Every sum adds left to
        # right, the order numpy uses for so few entries, so a row is the
        # same floats numpy array arithmetic gives.
        row = _t_row(i, r, self.p)
        if self.y is None:
            return row
        support = min(i, r) + 1  # t in 0..min(i, r)
        if support < 2:
            return row
        rng = self._rng(i, r)
        direction = rng.normal(size=support).tolist()
        mean = sum(direction) / support
        direction = [d - mean for d in direction]
        norm = sum(abs(d) for d in direction)
        if norm == 0.0:
            return row
        direction = [d / norm for d in direction]
        # rng.uniform(0.5, 1.0) as arithmetic: the same float and the same
        # generator state, without uniform's per-call errstate entry.
        eps = (0.5 + 0.5 * rng.random()) / self.y
        out = row.tolist()
        # Shrink so no entry goes negative; the perturbation stays a
        # valid bias of l1 size eps <= 1/y.
        for t, d in enumerate(direction):
            if d < 0:
                eps = min(eps, out[t] / (-d))
        for t, d in enumerate(direction):
            out[t] = max(out[t] + eps * d, 0.0)
        total = sum(out)
        return np.array([x / total for x in out])


def _update_ranks(
    i: int, r: int, ts: np.ndarray, p: int, rng: np.random.Generator
) -> np.ndarray:
    ranks = np.full(len(ts), r, dtype=np.int64)
    if i == 1:
        ranks[ts == 1] -= 1
        ranks[ts == 0] += 1
        return ranks
    ranks[ts == 2] -= 2
    zero = ts == 0
    n0 = int(zero.sum())
    if n0:
        rises = rng.random(n0) < 1.0 / p
        bump = np.zeros(n0, dtype=np.int64)
        bump[rises] = 2
        ranks[zero] += bump
    return ranks


def sample_transitions(
    i: int, r: int, p: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """``count`` one-step outcomes from fixed rank r (vectorized), t drawn
    from the exact row ``t_distribution(i, r, p)``."""
    ts = rng.choice(i + 1, size=count, p=t_distribution(i, r, p))
    return _update_ranks(i, r, ts, p, rng)


def simulate_walks(
    widths: list[int],
    initial: Density,
    p: int,
    walks: int,
    rng: np.random.Generator,
    sampler: TStepSampler | None = None,
) -> Density:
    """Empirical rank distribution of ``walks`` i.i.d. walks through ``widths``.

    Each walk starts at a rank drawn from ``initial`` and takes one
    twist step per width-i entry, its t drawn from ``sampler.row(i, r)``
    (or the exact row when there is no sampler).  The result is the
    bin-count density on the same rank window.  A walk that would leave
    the window folds down two ranks, exactly as ``exact_step_kernel``
    folds its top rows.

    Only that histogram is returned, and it is drawn directly.  A walk
    is a Markov chain whose step through a width-i site has the kernel
    K_i with rows composed from ``sampler.row(i, r)``, so its final rank
    has the law E = initial K_{w1} ... K_{wm}, and W i.i.d. walks give a
    histogram with exactly the law Multinomial(W, E).  The cost depends
    on the window and the widths, not on W.

    This is the one-level case of a sampled fan; see :func:`_fan_average`.
    A rejected call (:func:`_check_run`, the sampler's p, a width) leaves
    ``rng`` as it was.
    """
    _check_run(SAMPLED, p, initial.N, walks, 1, None, rng)
    if sampler is not None and sampler.p != p:
        raise ValidationError(f"sampler is for p = {sampler.p}, walks are for p = {p}")
    for i in widths:
        _check_width(i)
    return _fan_average([widths], initial, p, rng, walks, sampler or TStepSampler(p))


def _check_walks(walks, levels: int) -> None:
    # A sampled run's walk budget: a non-bool int, with a walk per level and
    # no more per level than an int64 holds, the count multinomial takes.
    if not _is_int(walks):
        raise ValidationError(f"walks must be an int, got {walks!r}")
    if walks < levels:
        raise ValidationError(f"need a walk per level, got {walks} for {levels} levels")
    if walks // levels > 2**63 - 1:
        raise ValidationError(f"need at most 2**63 - 1 walks per level, got {walks // levels}")


Mode = Literal["exact_kernel", "sampled_at_Y"]  # the names _check_run takes
EXACT, SAMPLED = get_args(Mode)


def _check_run(mode, p: int, N: int, walks, levels: int, y: float | None, rng) -> None:
    # Everything a fan or walk run rejects, checked once by each public entry
    # before its first rng read: the mode, a prime p and a window N >= 2 (the
    # LagrangianParams rules), and in sampled mode an rng, a walk per level
    # and the sampler's cutoff.  The core, _fan_average, checks nothing.
    if mode not in (EXACT, SAMPLED):
        raise ValidationError(f"unknown mode {mode!r}")
    LagrangianParams(p, N)
    if mode == SAMPLED:
        if rng is None:
            raise ValidationError("sampled mode needs an rng")
        _check_walks(walks, levels)
        _check_cutoff(y)


def _marginals(rows, start: np.ndarray, kernel) -> np.ndarray:
    # One row per width row: start times kernel(w1) ... kernel(wm), the law
    # of a walk after that row.  Rows that share a prefix share its
    # products, each one np.dot, kept in a trie keyed by width, so a row is
    # the same floats as applying the kernels one at a time; the empty row
    # gives start back.
    trie = {}  # width -> (product, trie of the next width)
    out = []
    for row in rows:
        law, children = start, trie
        for i in row:
            node = children.get(i)
            if node is None:
                node = children[i] = (np.dot(law, kernel(i)), {})
            law, children = node
        out.append(law)
    return np.array(out)


def _sampled_marginals(rows, initial: Density, sampler: TStepSampler) -> np.ndarray:
    # _marginals under the sampler's kernels, from the start law scaled to
    # sum to 1.  A step rises at most its width and a fold lands lower, so
    # no walk meets a width-i step above the start's top rank plus the
    # widest row's total width, less i: width i's reach.  Its kernel is
    # built up to there; rows above it would meet no mass.
    N = initial.N
    start = initial.as_float()
    start = start / start.sum()
    reach = int(np.flatnonzero(start)[-1]) + max(map(sum, rows))
    kernels = {}
    for i in {i for row in rows for i in row}:
        top = min(reach - i, N - 1)
        kernels[i] = _kernel(i, (sampler.row(i, r) for r in range(top + 1)), 1.0 / sampler.p, N)
    return _marginals(rows, start, kernels.__getitem__)


def _fan_average(rows, initial, p, rng, walks, sampler) -> Density:
    # The fan average of levels given as width rows in norm order, unchecked,
    # since each run's entry has called _check_run.  With no sampler it is the
    # mean of the rows' marginals under the cached exact kernels, in float as
    # they are; the mean of one row is that row, bit for bit.
    if sampler is None:
        N = initial.N
        levels = _marginals(rows, initial.as_float(), lambda i: _exact_kernel(i, p, N).matrix)
        return _density_unchecked(np.mean(levels, axis=0))
    # With a sampler it is the mean of the rows' histograms of walks //
    # len(rows) walks each, drawn as in simulate_walks: one multinomial call
    # with a pvals row per level, the one read of rng.
    per_level = walks // len(rows)
    counts = rng.multinomial(per_level, _sampled_marginals(rows, initial, sampler))
    return _density_unchecked(np.mean(counts / per_level, axis=0))
