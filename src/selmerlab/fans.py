"""Fan averaging: stratification bounds, level sampling, and collapse.

A level is a finite set of positive-width primes.  A fan D(m, k, X)
collects the levels with m primes, total width k, and j-th smallest
norm below the stratification bound L_j(X), where the bounds grow by
the recursion

    L_1 = R(X),    L_{n+1} = max(R(L_1 * ... * L_n), X * L_n)

for a convergence-rate function R.  Averaging the rank distribution
over a fan and letting X grow collapses onto the k-th power of the
governing operator applied to the empty-level distribution; in this
synthetic model the one-step kernels are exact, so the collapse is an
algebraic identity in exact mode and a measurable residual in
sampled mode; :func:`fan_collapse` is the one pipeline that runs it.

A :class:`Fan` owns one fan's count and draw: the bounds cut the
norm-sorted sites into a few blocks, and counting how many width-1 and
width-2 sites a level takes from each block gives the exact ``size``
|D(m, k, X)| and a uniform ``draw``.  A
:class:`~selmerlab.twists.PrimeStream` keeps one Fan per distinct
:class:`FanSpec` drawn from it, so :func:`sample_levels`,
:func:`fan_collapse` and :func:`fan_union_distribution` build each fan
of a stream once.  A kept Fan is mostly two int64 index arrays, the
stream's site ids and its positive-width sites, at most 16 bytes per
site; it is freed with the stream.  Any other sequence of sites builds
a Fan per call.  Norm products overflow any fixed-width float for
modest m, so bounds and norms are compared in the log domain
throughout.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import combinations
from typing import Literal

import numpy as np

from .distributions import Density, _density_unchecked, _is_int, apply, l1_distance
from .errors import (
    EmptyFan,
    InfeasibleFan,
    NotSubset,
    ValidationError,
)
from .lagrangian import _lagrangian_power
from .twists import (
    EXACT,
    SAMPLED,
    Mode,
    PrimeSite,
    PrimeStream,
    TStepSampler,
    _check_run,
    _check_width,
    _fan_average,
)

__all__ = [
    "ConvergenceRate",
    "Fan",
    "FanSpec",
    "Level",
    "make_level",
    "strat_bounds",
    "level_membership",
    "width_pattern",
    "sample_levels",
    "enumerate_levels",
    "level_rank_distribution",
    "fan_distribution",
    "fan_collapse",
    "fan_collapse_residual",
    "mixture_bound_check",
    "fan_union_distribution",
    "step_average_gap",
]

_ENUMERATION_CAP = 2_000_000


@dataclass(frozen=True)
class ConvergenceRate:
    """A nondecreasing function R with R(Y) >= Y, evaluated in log domain.

    Families: ``power`` is R(Y) = C * Y**a and ``exponential`` is
    R(Y) = C * exp(a * Y); both require C >= 1 and a >= 1 so the lower
    bound R(Y) >= Y holds on [1, inf).
    """

    family: Literal["power", "exponential"]
    coeff: float = 1.0
    exponent: float = 1.0

    def __post_init__(self) -> None:
        if self.family not in ("power", "exponential"):
            raise ValidationError(f"unknown rate family {self.family!r}")
        if not (self.coeff >= 1.0 and self.exponent >= 1.0):
            raise ValidationError(
                f"rate requires C >= 1 and a >= 1, got C={self.coeff}, a={self.exponent}"
            )

    def log_value(self, log_y: float) -> float:
        """log R(Y) as a function of log Y (log Y >= 0)."""
        if log_y < 0:
            raise ValidationError(f"rate is defined on Y >= 1, got log Y = {log_y}")
        if self.family == "power":
            return math.log(self.coeff) + self.exponent * log_y
        value = math.log(self.coeff) + self.exponent * math.exp(log_y)
        if math.isinf(value):
            raise OverflowError("exponential rate overflows the log domain")
        return value


def strat_bounds(rate: ConvergenceRate, m: int, X: float) -> tuple[float, ...]:
    """Log-domain stratification bounds (log L_1, ..., log L_m), one per slot."""
    if not X >= 1.0:
        raise ValidationError(f"X must be >= 1, got {X}")
    if not _is_int(m) or m < 0 or m > 1000:
        raise ValidationError(f"m must be an int in 0..1000, got {m!r}")
    log_x = math.log(X)
    try:
        logs = [rate.log_value(log_x)] if m else []
        for n in range(1, m):
            logs.append(max(rate.log_value(sum(logs[:n])), log_x + logs[n - 1]))
    except OverflowError as exc:
        raise ValidationError(f"stratification bounds overflow: {exc}") from None
    return tuple(logs)


@dataclass(frozen=True)
class FanSpec:
    """(m, k, X) plus the log-domain bounds L_1..L_m, one per slot."""

    m: int
    k: int
    X: float
    log_bounds: tuple[float, ...]

    def __post_init__(self) -> None:
        if not (_is_int(self.m) and _is_int(self.k) and self.m >= 0 and self.k >= 0):
            raise ValidationError(f"m and k must be ints >= 0, got m={self.m!r}, k={self.k!r}")
        if len(self.log_bounds) != self.m:
            raise ValidationError(f"expected {self.m} bounds, got {len(self.log_bounds)}")
        if any(b > a for a, b in zip(self.log_bounds[1:], self.log_bounds)):
            raise ValidationError("stratification bounds must be nondecreasing")

    @classmethod
    def from_rate(cls, rate: ConvergenceRate, m: int, k: int, X: float) -> "FanSpec":
        return cls(m, k, float(X), strat_bounds(rate, m, X))


@dataclass(frozen=True)
class Level:
    """A set of distinct positive-width sites, stored sorted by norm."""

    sites: tuple[PrimeSite, ...]

    @property
    def width(self) -> int:
        return sum(site.width for site in self.sites)


def make_level(sites) -> Level:
    """Canonicalize and validate a collection of sites as a level."""
    ordered = tuple(sorted(sites, key=lambda s: (s.norm, s.id)))
    if any(site.width == 0 for site in ordered):
        raise ValidationError("levels contain only positive-width sites")
    if len({site.id for site in ordered}) != len(ordered):
        raise ValidationError("level sites must be distinct")
    return Level(ordered)


def level_membership(level: Level, spec: FanSpec) -> bool:
    """Sorted-slot test: j-th smallest norm below L_j, shape (m, k) exact."""
    if len(level.sites) != spec.m or level.width != spec.k:
        return False
    for site, log_bound in zip(level.sites, spec.log_bounds):
        if not math.log(site.norm) < log_bound:
            return False
    return True


def width_pattern(m: int, k: int) -> tuple[int, int]:
    """Counts (n1, n2) of width-1 and width-2 sites realizing (m, k).

    Solving n1 + n2 = m, n1 + 2 n2 = k forces n1 = 2m - k and
    n2 = k - m, so the shape is feasible iff m <= k <= 2m.
    """
    n1, n2 = 2 * m - k, k - m
    if n1 < 0 or n2 < 0:
        raise InfeasibleFan(f"(m, k) = ({m}, {k}) needs m <= k <= 2m")
    return n1, n2


def _reads(total: int) -> tuple[int, int]:
    # The one byte-reading rule of the fan draw: an exact uniform below
    # total reads w whole bytes as a little-endian v, and keeps v % total
    # when v lies under bound, the largest multiple of total below 256**w;
    # otherwise it is redrawn.  One spare byte keeps acceptance above 255/256.
    w = (total.bit_length() + 7) // 8 + 1
    return w, 256**w // total * total


def _uniforms(totals: list[int], rng: np.random.Generator) -> list[int]:
    # One exact uniform below each of ``totals`` by the _reads rule, all read
    # from one buffer of whole bytes per round, in order.  Each distinct
    # total's rule is worked out once.
    limits = {total: _reads(total) for total in set(totals)}
    shapes = [limits[total] for total in totals]
    out, todo = [0] * len(totals), list(range(len(totals)))
    while todo:
        buf, start, redo = rng.bytes(sum(shapes[j][0] for j in todo)), 0, []
        for j in todo:
            w, bound = shapes[j]
            v = int.from_bytes(buf[start : start + w], "little")
            start += w
            if v < bound:
                out[j] = v % totals[j]
            else:
                redo.append(j)
        todo = redo
    return out


def _floyd(n: int, x: int, u: int) -> list[int]:
    # An x-subset of range(n) by Floyd's algorithm: step j (n - x <= j < n)
    # takes t uniform on 0..j, or j itself when the subset already holds
    # t.  The t are the mixed-radix digits of u, so u uniform below
    # n! / (n - x)! gives a uniform subset.
    held = set()
    for j in range(n - x, n):
        u, t = divmod(u, j + 1)
        held.add(j if t in held else t)
    return list(held)


def _subsets(groups: list[tuple[int, int, int]], rng: np.random.Generator) -> np.ndarray:
    # For each (n, x, count) group in turn, ``count`` rows each holding an
    # x-subset of range(n), padded with -1 to the widest x: the subsets
    # _floyd makes from one _uniforms call over perm(n, x) repeated count
    # times (the entries of a row in another order).  When every value
    # reads at most 8 bytes by the _reads rule, each round of reads is
    # decoded as one uint64 array and Floyd's digits are taken a column at
    # a time over all rows.  One wider read, whose value no uint64 holds,
    # sends every row through _uniforms and _floyd instead, and so do
    # fewer than 32 rows, where the per-value loop costs less than the
    # arrays' fixed cost of some 60 us (the two cross near 32).
    counts = [c for _, _, c in groups]
    totals = [math.perm(n, x) for n, x, _ in groups]
    most = max((x for _, x, _ in groups), default=0)
    reads = [_reads(t) for t in totals]
    if sum(counts) < 32 or max(w for w, _ in reads) > 8:
        us = iter(_uniforms([t for t, c in zip(totals, counts) for _ in range(c)], rng))
        rows = [_floyd(n, x, next(us)) + [-1] * (most - x) for n, x, c in groups for _ in range(c)]
        return np.array(rows, dtype=np.int64).reshape(len(rows), most)
    per_group = np.array(groups, dtype=np.int64)
    n, x = np.repeat(per_group[:, :2], counts, axis=0).T
    width = np.repeat(np.array([w for w, _ in reads], dtype=np.int64), counts)
    total = np.repeat(np.array(totals, dtype=np.uint64), counts)
    # the largest value kept, bound - 1, which fits even at bound = 2**64
    last = np.repeat(np.array([bound - 1 for _, bound in reads], dtype=np.uint64), counts)
    u = np.zeros(len(x), dtype=np.uint64)
    todo = np.arange(len(x))
    while len(todo):
        w = width[todo]
        raw = np.zeros((len(todo), 8), dtype=np.uint8)
        # a row-major mask fills each row's first w bytes, in read order
        raw[np.arange(8) < w[:, None]] = np.frombuffer(rng.bytes(int(w.sum())), dtype=np.uint8)
        v = raw.view("<u8")[:, 0]  # little-endian, zero-padded
        keep = v <= last[todo]
        u[todo[keep]] = v[keep] % total[todo[keep]]
        todo = todo[~keep]
    held = np.full((len(x), most), -1, dtype=np.int64)
    for col in range(most):
        active = x > col
        step = np.where(active, n - x + col + 1, 1)
        u, t = np.divmod(u, step.astype(np.uint64))
        t = t.astype(np.int64)
        taken = (held[:, :col] == t[:, None]).any(axis=1)
        held[:, col] = np.where(active, np.where(taken, step - 1, t), -1)
    return held


# Level counts stop below this bound: numpy describes no int64 array of
# more than intp-max (2**63 - 1) bytes, and a draw holds an entry per level.
_COUNT_BOUND = 2**60


def _check_count(value, name: str, least: int) -> None:
    # The one rule for a level count: a non-bool int >= least, below the bound.
    if not _is_int(value) or value < least:
        raise ValidationError(f"{name} must be an int >= {least}, got {value!r}")
    if value >= _COUNT_BOUND:
        raise ValidationError(f"{name} must be below the count bound 2**60, got {value}")


class Fan:
    """The fan D(m, k, X) of a stream: its exact size and a uniform draw.

    ``ids``, ``norms`` and ``widths`` hold the stream's sites sorted by
    (norm, id): a :class:`PrimeStream` is already in that order with ids
    0..n-1, and any other sequence of sites is copied and sorted.  With
    the positive-width sites in that order, slot j's bound becomes a cut
    index cut_j: a sorted level lies in the fan exactly when at least
    j + 1 of its sites sit below cut_j.  The distinct cuts split the
    sites into ``blocks`` of width-1 and width-2 site indices (ones,
    twos).  Walking the blocks backwards, ``after[i]`` holds ``need``
    (the sites a level must have once block i is done) and the array
    C[a', b']: the levels that complete from a' ones and b' twos taken
    by the end of block i.  The count one block earlier splits into two
    passes over the masked M = C * [a' + b' >= need]:

        G(a', b) = sum_y comb(twos, y) M(a', b + y)
        C(a, b)  = sum_x comb(ones, x) G(a + x, b)

    which costs O(S (n1 + n2)) per block for S = (n1+1)(n2+1) states;
    ``size`` = C(0, 0) is |D(m, k, X)|.  Building a Fan reads no rng.
    ``draw`` keeps each block row it builds, so later draws reuse it.
    """

    def __init__(self, stream, spec: FanSpec):
        self.spec = spec
        self._pattern = n1, n2 = width_pattern(spec.m, spec.k)
        if isinstance(stream, PrimeStream):
            self.ids, self.norms, self.widths = np.arange(len(stream)), stream.norms, stream.widths
        else:
            ids = np.array([s.id for s in stream], dtype=np.int64)
            norms = np.array([s.norm for s in stream], dtype=float)
            order = np.lexsort((ids, norms))
            self.ids, self.norms = ids[order], norms[order]
            self.widths = np.array([s.width for s in stream], dtype=np.int64)[order]
        keep = np.flatnonzero(self.widths != 0)
        positive = self.norms[keep]
        cuts = [bisect_left(positive, b, key=math.log) for b in spec.log_bounds]
        edges = sorted(set(cuts))
        # _sites holds the width-1 sites, then the width-2 sites, so a block's
        # ones and twos are two ranges of it; past[i] is the first site index
        # after block i.
        ones, twos = np.flatnonzero(self.widths == 1), np.flatnonzero(self.widths == 2)
        self._sites = np.concatenate((ones, twos))
        past = [keep[e] if e < len(keep) else len(self.widths) for e in edges]
        self._starts = list(zip(np.searchsorted(ones, [0] + past).tolist(),
                                (len(ones) + np.searchsorted(twos, [0] + past)).tolist()))
        self.blocks = [
            (self._sites[a:c], self._sites[b:d])
            for (a, b), (c, d) in zip(self._starts, self._starts[1:])
        ]
        taken = np.add.outer(np.arange(n1 + 1), np.arange(n2 + 1))
        counts = np.zeros((n1 + 1, n2 + 1), dtype=object)
        counts[n1, n2] = 1
        self.after = []
        for (ones, twos), edge in zip(reversed(self.blocks), reversed(edges)):
            need = bisect_right(cuts, edge)  # sites the level must have below edge
            self.after.insert(0, (need, counts))
            masked = np.where(taken >= need, counts, 0)
            partial = np.zeros_like(counts)
            for y in range(min(len(twos), n2) + 1):
                partial[:, : n2 + 1 - y] += math.comb(len(twos), y) * masked[:, y:]
            counts = np.zeros_like(counts)
            for x in range(min(len(ones), n1) + 1):
                counts[: n1 + 1 - x] += math.comb(len(ones), x) * partial[x:]
        self.size = counts[0, 0]
        self._rows: dict[tuple[int, int, int], tuple] = {}  # (block, a, b) -> _row

    def _row(self, i: int, a: int, b: int) -> tuple[list[int], list[tuple[int, int, int]]]:
        # Block i's choices from state (a, b): the cumulative weights, and per
        # choice (x, y, w) for taking x ones and y twos, where w counts the
        # levels that complete from the state (a + x, b + y) after block i; x
        # outer, y inner, zero weights dropped.  The last cumulative weight
        # counts the levels that complete from (a, b) before block i.
        ones, twos = self.blocks[i]
        need, counts = self.after[i]
        n1, n2 = self._pattern
        cums, choices, total = [], [], 0
        for x in range(min(len(ones), n1 - a) + 1):
            for y in range(max(0, need - a - b - x), min(len(twos), n2 - b) + 1):
                weight = counts[a + x, b + y]
                if weight:
                    total += math.comb(len(ones), x) * math.comb(len(twos), y) * weight
                    cums.append(total)
                    choices.append((x, y, weight))
        return cums, choices

    def draw(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` uniform levels: row j of the (count x m) result holds the
        sorted site indices of the j-th independent draw.

        Two batches of exact uniforms draw all the levels.  The first
        gives each level u below ``size``, which walks the blocks: the
        row of the level's state (a, b) splits u's range into one segment
        per choice (x, y, w), of length comb(ones, x) comb(twos, y) w, and
        u's offset in its segment, taken mod w, is again uniform below the
        next row's total.  The last block's choice is forced, x = n1 - a
        ones and y = n2 - b twos, so it is taken without a search.  The
        second batch gives each level the sites of
        every block it takes from (Floyd), grouped by (block, width,
        number taken).  A batch of 32 subsets or more whose uniforms each
        read at most 8 bytes is decoded as arrays (:func:`_subsets`); a
        smaller one, or one with a wider group such as criterion 10's
        (20, 40) fan has, keeps the per-value ``_uniforms`` + ``_floyd``
        path.  Both take the same bytes and the same sites; each level's
        sites are then sorted.
        """
        spec = self.spec
        _check_count(count, "count", 0)
        if rng is None:
            raise ValidationError("a level draw needs an rng")
        if not self.size:
            n1, n2 = self._pattern
            if np.count_nonzero(self.widths == 1) < n1 or np.count_nonzero(self.widths == 2) < n2:
                raise InfeasibleFan(
                    f"(m, k) = ({spec.m}, {spec.k}) needs {n1} width-1 and {n2} width-2 sites"
                )
            raise EmptyFan(
                f"no level in this stream satisfies (m, k, X) = ({spec.m}, {spec.k}, {spec.X})"
            )
        rows = self._rows  # built for visited states only
        takes: dict[tuple[int, int, int], list[int]] = {}  # (block, width, n) -> levels
        n1, n2 = self._pattern
        last = len(self.blocks) - 1
        for j, u in enumerate(_uniforms([self.size] * count, rng)):
            a = b = 0
            for i in range(last + 1):
                if i < last:
                    row = rows.get((i, a, b))
                    if row is None:
                        row = rows[(i, a, b)] = self._row(i, a, b)
                    cums, choices = row
                    k = bisect_right(cums, u)
                    x, y, weight = choices[k]
                    u = (u - (cums[k - 1] if k else 0)) % weight
                else:
                    x, y = n1 - a, n2 - b  # the last block's one choice
                if x:
                    takes.setdefault((i, 0, x), []).append(j)
                if y:
                    takes.setdefault((i, 1, y), []).append(j)
                a, b = a + x, b + y
        held = _subsets(
            [(len(self.blocks[i][w]), n, len(levels)) for (i, w, n), levels in takes.items()], rng
        )
        start = np.repeat(np.array([self._starts[i][w] for i, w, _ in takes], dtype=np.intp),
                          [len(levels) for levels in takes.values()])
        level = np.array([j for levels in takes.values() for j in levels], dtype=np.intp)
        rows, cols = np.nonzero(held >= 0)
        sites = self._sites[start[rows] + held[rows, cols]]
        # sites are sorted by (norm, id), so sorted indices give canonical levels
        return sites[np.lexsort((sites, level[rows]))].reshape(count, spec.m)


def _fan_of(stream, spec: FanSpec) -> Fan:
    # The Fan of (stream, spec): kept on a PrimeStream, whose arrays are
    # read-only, under the frozen spec; built anew for any other sequence.
    # Specs that compare equal share one Fan, so its errors print the
    # first one's fields (X = 10.0 for a later X = 10).
    if not isinstance(stream, PrimeStream):
        return Fan(stream, spec)
    fan = stream._fans.get(spec)
    if fan is None:
        fan = stream._fans[spec] = Fan(stream, spec)
    return fan


def sample_levels(stream, spec: FanSpec, count: int, rng: np.random.Generator) -> list[Level]:
    """Draw ``count`` levels uniformly from the fan (with replacement).

    Each draw walks the blocks of the exact count table, choosing the
    width counts (x, y) in proportion to the levels that complete them,
    then x width-1 and y width-2 sites of the block uniformly.  All
    ``count`` draws are made together from two batches of exact
    uniforms; the j-th level returned is the j-th independent draw.
    A :class:`~selmerlab.twists.PrimeStream` keeps the fan's count table
    for later calls.
    """
    fan = _fan_of(stream, spec)
    rows = fan.draw(count, rng)
    ids, norms, widths = (column[rows].tolist() for column in (fan.ids, fan.norms, fan.widths))
    return [Level(tuple(map(PrimeSite, *site))) for site in zip(ids, norms, widths)]


def enumerate_levels(stream, spec: FanSpec) -> list[Level]:
    """All members of the fan, for small streams (<= 200 sites)."""
    if len(stream) > 200:
        raise ValidationError(
            f"enumeration is limited to streams of <= 200 sites, got {len(stream)}"
        )
    n1, n2 = width_pattern(spec.m, spec.k)
    pool1 = [s for s in stream if s.width == 1]
    pool2 = [s for s in stream if s.width == 2]
    total = math.comb(len(pool1), n1) * math.comb(len(pool2), n2)
    if total > _ENUMERATION_CAP:
        raise ValidationError(f"enumeration would visit {total} candidates")
    out = []
    for ones in combinations(pool1, n1):
        for twos in combinations(pool2, n2):
            candidate = make_level(ones + twos)
            if level_membership(candidate, spec):
                out.append(candidate)
    return out


def level_rank_distribution(
    level: Level,
    initial: Density,
    mode: Mode,
    p: int,
    rng: np.random.Generator | None = None,
    *,
    walks: int = 10_000,
) -> Density:
    """Rank distribution after twisting through every site of the level.

    The one-level :func:`fan_distribution`.  Exact mode composes the
    one-step kernels (order-independent, since they are all powers of
    the same operator).  Sampled mode runs ``walks`` Monte Carlo walks
    and returns the empirical density, drawn from ``rng`` as one
    multinomial (see :func:`~selmerlab.twists.simulate_walks`).
    """
    return fan_distribution([level], initial, mode, p, rng, walks=walks)


def fan_distribution(
    levels: list[Level],
    initial: Density,
    mode: Mode,
    p: int,
    rng: np.random.Generator | None = None,
    *,
    walks: int = 100_000,
) -> Density:
    """Equal-weight average of the level distributions.

    Equal weights are correct because every level of a fixed fan has
    the same number of sites, hence the same twist-fiber cardinality.
    In sampled mode each level runs ``walks // len(levels)`` walks, the
    rest of the budget unused, drawn as in :func:`~selmerlab.twists.simulate_walks`.
    """
    if not levels:
        raise EmptyFan("fan average over an empty list of levels")
    _check_run(mode, p, initial.N, walks, len(levels), None, rng)
    rows = [[site.width for site in level.sites] for level in levels]
    sampler = TStepSampler(p) if mode == SAMPLED else None  # exact t-rows
    return _fan_average(rows, initial, p, rng, walks, sampler)


def _seeded_sampler(p: int, y: float | None, rng: np.random.Generator) -> TStepSampler:
    return TStepSampler(p, y, seed=int(rng.integers(2**62)))


def _run_fans(fans, count, initial, mode, p, rng, walks, y) -> Density:
    # The one drawn-fan run, unchecked, since its callers have called
    # _check_run: count levels drawn from each fan in turn, then (sampled
    # mode) the sampler seeded from rng, then each fan averaged on walks //
    # len(fans) walks (exact mode reads no walks) and weighted by its exact
    # size.  One fan's weight is 1.0, so its average comes back bit for bit.
    rows = [fan.widths[fan.draw(count, rng)].tolist() for fan in fans]
    sampler = _seeded_sampler(p, y, rng) if mode == SAMPLED else None
    share = walks // len(fans) if sampler else walks
    size = sum(fan.size for fan in fans)
    total = np.zeros(initial.N)
    for fan, fan_rows in zip(fans, rows):
        dist = _fan_average(fan_rows, initial, p, rng, share, sampler)
        # int / int is correctly rounded even where the sizes overflow a float
        total = total + (fan.size / size) * dist.as_float()
    return _density_unchecked(total)


def fan_collapse(
    spec: FanSpec,
    stream,
    initial: Density,
    mode: Mode,
    p: int,
    rng: np.random.Generator,
    *,
    levels: int = 30,
    walks: int = 100_000,
    y: float | None = None,
) -> tuple[Density, Density]:
    """The fan pipeline: (fan average, governed target M_L**k initial).

    Samples ``levels`` levels of the fan, then (sampled mode) seeds a
    ``TStepSampler`` at cutoff y from ``rng``, then averages the level
    distributions: the one drawn-fan run, ``_run_fans``.  The fan side
    goes through the twist-process kernels (or sampled walks); the
    target side is the k-th matrix power of the Lagrangian operator, so
    the two sides are independent constructions.
    Every input is checked before the first read of ``rng``, so a
    rejected call leaves it as it was.
    """
    _check_count(levels, "levels", 1)
    _check_run(mode, p, initial.N, walks, levels, y, rng)
    average = _run_fans([_fan_of(stream, spec)], levels, initial, mode, p, rng, walks, y)
    return average, apply(_lagrangian_power(p, initial.N, spec.k), initial)


def fan_collapse_residual(
    spec: FanSpec,
    stream,
    initial: Density,
    mode: Mode,
    p: int,
    rng: np.random.Generator,
    *,
    levels: int = 30,
    walks: int = 100_000,
    y: float | None = None,
) -> float:
    """l1 gap between the fan average and the governed power M_L**k.

    Exact mode should sit at rounding level; sampled mode shrinks as
    the cutoff y grows.  See :func:`fan_collapse` for the pipeline.
    """
    return l1_distance(
        *fan_collapse(spec, stream, initial, mode, p, rng, levels=levels, walks=walks, y=y)
    )


def mixture_bound_check(
    B: list[Level],
    B_prime: list[Level],
    initial: Density,
    p: int,
) -> tuple[float, float]:
    """Compare |E_B - E_B'| with its mixture bound 2 |B' - B| / |B|.

    B must be a sub-multiset of B' and all levels must have the same
    number of sites (equal twist-fiber weights).  Distributions are
    computed in exact mode; returns (lhs, rhs).
    """
    from collections import Counter

    if not B:
        raise ValidationError("B must be nonempty")
    counts_b, counts_bp = Counter(B), Counter(B_prime)
    if counts_b - counts_bp:
        raise NotSubset("B is not a sub-multiset of B'")
    if len({len(level.sites) for level in B_prime}) > 1:
        raise ValidationError("levels must all have the same number of sites")
    e_b = fan_distribution(B, initial, EXACT, p)
    e_bp = fan_distribution(B_prime, initial, EXACT, p)
    rhs = 2.0 * (len(B_prime) - len(B)) / len(B)
    return l1_distance(e_b, e_bp), rhs


def fan_union_distribution(
    stream,
    m_max: int,
    k: int,
    X: float,
    rate: ConvergenceRate,
    initial: Density,
    mode: Mode,
    p: int,
    rng: np.random.Generator,
    *,
    levels_per_slice: int = 30,
    walks: int = 100_000,
    y: float | None = None,
) -> Density:
    """Average over the union of fans with fixed total width k.

    Feasible slice sizes are ceil(k/2) <= m <= min(k, m_max); slices the
    stream cannot realize are skipped.  The run is :func:`fan_collapse`'s
    over the slices: every slice's levels, then the sampler's seed, then
    the slice averages, weighted by their exact fan sizes.  In exact mode
    every slice gives the same distribution, so the weights are
    irrelevant there, which is part of the point being verified.
    """
    _check_count(levels_per_slice, "levels_per_slice", 1)  # before the first rng read
    if not (_is_int(k) and _is_int(m_max)):
        raise ValidationError(f"k and m_max must be ints, got k={k!r}, m_max={m_max!r}")
    fans = (_fan_of(stream, FanSpec.from_rate(rate, m, k, X))
            for m in (range((k + 1) // 2, min(k, m_max) + 1) if k > 0 else [0]))
    slices = [fan for fan in fans if fan.size]
    if not slices:
        raise EmptyFan(f"no feasible fan slice for k = {k} with m <= {m_max}")
    # each slice runs walks // len(slices) walks
    _check_run(mode, p, initial.N, walks, levels_per_slice * len(slices), y, rng)
    return _run_fans(slices, levels_per_slice, initial, mode, p, rng, walks, y)


def step_average_gap(
    level: Level,
    i: int,
    initial: Density,
    p: int,
    y: float,
    rng: np.random.Generator,
    *,
    walks: int = 4000,
) -> tuple[float, float, float]:
    """One appended-prime trial against the one-step averaging bound.

    Starting from the exact distribution E over the given level, append
    one width-i step sampled at cutoff y and measure the l1 gap to the
    governed target M_L**i applied to E.  Returns (measured, bias_bound,
    mc_halfwidth) where bias_bound = (b+1)/y with b the top of E's
    support, and mc_halfwidth is the summed per-cell binomial standard
    error of the Monte Carlo estimate.
    """
    _check_run(SAMPLED, p, initial.N, walks, 1, y, rng)
    _check_width(i)
    base = _fan_average([[s.width for s in level.sites]], initial, p, None, 0, None)
    target = apply(_lagrangian_power(p, initial.N, i), base)
    empirical = _fan_average([[i]], base, p, rng, walks, _seeded_sampler(p, y, rng))
    b = int(np.nonzero(base.as_float())[0].max())
    bias_bound = (b + 1) / y
    t = target.as_float()
    mc_halfwidth = float(np.sqrt(t * (1.0 - t) / walks).sum())
    return l1_distance(empirical, target), bias_bound, mc_halfwidth
