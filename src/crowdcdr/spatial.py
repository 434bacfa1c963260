"""Spatial homophily through daily Voronoi-cell co-location.

For state r on day d, with n_crd persons observed in cell c and
N_rd = sum_c n_crd, the co-location probability

    p_rd = (1/N_rd) * sum_c n_crd * (n_crd - 1) / (N_rd - 1)

is the chance that two randomly chosen distinct persons from the state
share a cell that day. Holding the spread n_crd/N_rd fixed, p_rd barely
moves as the state's headcount scales, which is what makes it comparable
across states of very different representation.

Q_A averages p_rd over the whole window; Q_H and Q_L average over high-
and low-volume days (the three peak-attendance days plus two days on
each side form the high-volume set); Q_D = Q_H/Q_L is the crowding
response. Confidence intervals bootstrap over days, the exchangeable
units in Q's definition.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from math import log10, prod
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import EstimationError
from .arrays import (column_bounds, distinct, index_dtype, pack_keys,
                     run_starts, unpack_keys)
from .ingest import ObservationColumns

#: Fewest bootstrap replicates a percentile interval is computed from.
MIN_BOOTSTRAP_REPLICATES = 200
#: Most replicates: bounds the run time and the per-replicate statistics.
MAX_BOOTSTRAP_REPLICATES = 100_000
#: Replicates drawn and gathered at a time, so memory is block x days.
BOOTSTRAP_BLOCK_ROWS = 1024
#: Entries per tower that ``build_colocation_series``'s dense tower table
#: may span before towers are looked up by ``searchsorted`` instead.
DENSE_CELL_SLACK = 16
#: Observations whose cells ``build_colocation_series`` looks up at a time.
COLOCATION_BLOCK_ROWS = 1 << 16


def _check_replicates(replicates: int) -> None:
    if not MIN_BOOTSTRAP_REPLICATES <= replicates <= MAX_BOOTSTRAP_REPLICATES:
        raise EstimationError(
            f"need between {MIN_BOOTSTRAP_REPLICATES} and "
            f"{MAX_BOOTSTRAP_REPLICATES} bootstrap replicates, got {replicates}")


def _resampled_means(
    rng: np.random.Generator, vals: np.ndarray, replicates: int
) -> np.ndarray:
    """Means of ``replicates`` resamples of ``vals``, drawn in row blocks.

    Drawing the blocks in order takes the generator stream that one draw
    of the whole (replicates, days) index would, so the means are the same.
    """
    means = []
    for start in range(0, replicates, BOOTSTRAP_BLOCK_ROWS):
        rows = min(BOOTSTRAP_BLOCK_ROWS, replicates - start)
        idx = rng.integers(0, vals.size, size=(rows, vals.size))
        means.append(vals[idx].mean(axis=1))
    return np.concatenate(means)


@dataclass
class CoLocationSeries:
    """Per (state, day) person totals and p values, in (state, day) order."""

    totals: dict[tuple[int, int], int] = field(default_factory=dict)
    p: dict[tuple[int, int], float | None] = field(default_factory=dict)
    states: list[int] = field(default_factory=list)
    n_days: int = 0


def _cell_lookup(first_tower: np.ndarray, towers: np.ndarray,
                 cell_rank: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """A function from a block of ``first_tower`` to the ``cell_rank`` of
    each row's tower in ``towers`` (sorted); a tower not in ``towers``
    raises KeyError.

    Where the observed tower ids span fewer than ``DENSE_CELL_SLACK``
    entries per tower (plus 2**16), each is looked up in a dense table
    over that span; else it is found by ``searchsorted``.
    """
    if first_tower.size and not towers.size:
        raise KeyError(first_tower[0].item())
    low, span = column_bounds(first_tower)
    if span <= DENSE_CELL_SLACK * towers.size + (1 << 16):
        table = np.full(span, -1, np.int32)
        inside = (towers >= low) & (towers <= low + span - 1)
        table[towers[inside] - low] = cell_rank[inside]

        def find(block):
            index = block.astype(np.intp)
            index -= low
            return table[index]
    else:
        def find(block):
            row = np.searchsorted(towers, block)
            # A tower past the last one is checked against the last one.
            np.minimum(row, towers.size - 1, out=row)
            return np.where(towers[row] == block, cell_rank[row], -1)

    def lookup(block):
        cell = find(block)
        if cell.min() < 0:
            raise KeyError(block[cell < 0][0].item())
        return cell
    return lookup


def build_colocation_series(
    observations: ObservationColumns,
    *,
    n_days: int,
    cell_of_tower: Mapping[int, int] | None = None,
) -> CoLocationSeries:
    """Daily cell occupancies per state from first-tower observations.

    ``cell_of_tower`` maps towers onto their owning cell (identity when
    every observed tower is active and owns its own cell); an observed
    tower it lacks raises KeyError. The packed (state, day, cell) keys are
    sorted in place, in int32 where their span fits (``index_dtype``),
    and each (state, day)'s total and sum of n(n - 1) over its cells
    come from one ``np.add.reduceat``. The cells are looked up
    ``COLOCATION_BLOCK_ROWS`` rows at a time, once for their bounds and
    once to pack the key, so the key is the only array as long as the
    observations.
    """
    if cell_of_tower is None:
        towers = distinct(observations.first_tower)
        cell_rank = np.arange(towers.size)
    else:
        towers = np.array(sorted(cell_of_tower), np.int64)
        owner = np.array([cell_of_tower[t] for t in towers.tolist()], np.int64)
        cell_rank = np.unique(owner, return_inverse=True)[1]
    obs = observations
    lookup = _cell_lookup(obs.first_tower, towers, cell_rank)
    blocks = [slice(start, start + COLOCATION_BLOCK_ROWS)
              for start in range(0, len(obs), COLOCATION_BLOCK_ROWS)]
    # The cells' bounds first, so that the key is the one all the cells
    # at once would pack.
    lows, highs = [], []
    for rows in blocks:
        cell = lookup(obs.first_tower[rows])
        lows.append(int(cell.min()))
        highs.append(int(cell.max()))
    low = min(lows, default=0)
    bounds = [column_bounds(obs.state_code), column_bounds(obs.day),
              (low, max(highs, default=0) - low + 1)]
    span = prod(s for _, s in bounds)
    key = np.empty(len(obs), index_dtype(span - 1))
    for rows in blocks:
        key[rows] = pack_keys(obs.state_code[rows], obs.day[rows],
                              lookup(obs.first_tower[rows]), bounds=bounds)[0]
    key.sort()
    # One run per occupied (state, day, cell), its length the occupancy;
    # each (state, day) group is a run of consecutive cells. The sorted
    # key goes before the runs' bounds are taken, and they before the
    # occupancies, as narrow as ``index_dtype`` makes them.
    starts = run_starts(key)
    key = key[starts]
    at = np.flatnonzero(starts)
    del starts
    occupancy = np.empty(at.size, index_dtype(len(obs)))
    np.subtract(at[1:], at[:-1], out=occupancy[:-1], casting="unsafe")
    occupancy[-1:] = len(obs) - at[-1:]
    del at
    groups = np.flatnonzero(run_starts(key // bounds[-1][1]))
    totals = np.add.reduceat(occupancy, groups).tolist()
    # n(n - 1) in int64, where it is exact.
    ordered = occupancy.astype(np.int64)
    ordered *= occupancy - 1
    pairs = np.add.reduceat(ordered, groups).tolist()
    state, day, _ = unpack_keys(key[groups], bounds)
    series = CoLocationSeries(n_days=n_days)
    for group, n, same in zip(zip(state.tolist(), day.tolist()), totals, pairs):
        series.totals[group] = n
        series.p[group] = same / (n * (n - 1)) if n >= 2 else None
    series.states = sorted({s for s, _ in series.p})
    return series


def partition_days(
    daily_attendance: Mapping[int, float],
    *,
    n_days: int,
    peak_days: Sequence[int] | None = None,
) -> tuple[set[int], set[int]]:
    """(high, low) day sets around the peak-attendance days.

    The three top days (ties to the earlier day) are each expanded by two
    days on both sides, clipped to the window; the union is the
    high-volume set and everything else is low-volume. Pass ``peak_days``
    to pin the peaks from the calendar instead of the data.
    """
    if peak_days is None:
        ranked = sorted(daily_attendance, key=lambda d: (-daily_attendance[d], d))
        peak_days = ranked[:3]
    high: set[int] = set()
    for peak in peak_days:
        high.update(range(max(1, peak - 2), min(n_days, peak + 2) + 1))
    low = set(range(1, n_days + 1)) - high
    return high, low


def _defined_values(
    series: CoLocationSeries, high: set[int], low: set[int]
) -> dict[int, tuple[list[float], list[float], list[float]]]:
    """Each state's p values on its defined days (those with a p), over
    the window's days, over ``high`` and over ``low``, each in day order.

    One pass over the series groups the defined days by state; each state
    then reads its three lists from its own days.
    """
    by_state: dict[int, dict[int, float]] = defaultdict(dict)
    for (state, day), p in series.p.items():
        if p is not None:
            by_state[state][day] = p
    high_days, low_days = sorted(high), sorted(low)
    out = {}
    for state, p in by_state.items():
        window = [p[d] for d in sorted(p) if 1 <= d <= series.n_days]
        out[state] = (window, [p[d] for d in high_days if d in p],
                      [p[d] for d in low_days if d in p])
    return out


def _mean(values: list[float]) -> float | None:
    return float(np.mean(values)) if values else None


@dataclass
class StateSpatial:
    state: int
    q_a: float | None
    q_h: float | None
    q_l: float | None
    q_d: float | None
    ci_a: tuple[float, float] | None = None
    ci_d: tuple[float, float] | None = None
    n_days_defined: int = 0


def aggregate_q(
    series: CoLocationSeries,
    high: set[int],
    low: set[int],
) -> dict[int, StateSpatial]:
    """Q_A, Q_H, Q_L, Q_D per state.

    Days with undefined p (fewer than two observed persons) are excluded
    and the divisor reduced; imputing zero would conflate absence with
    dispersion. Q_D is missing when Q_L is zero or either side is empty.
    """
    defined = _defined_values(series, high, low)
    out: dict[int, StateSpatial] = {}
    for state in series.states:
        window, high_p, low_p = defined.get(state, ([], [], []))
        q_a, q_h, q_l = _mean(window), _mean(high_p), _mean(low_p)
        q_d = None
        if q_h is not None and q_l is not None and q_l > 0:
            q_d = q_h / q_l
        out[state] = StateSpatial(
            state=state,
            q_a=q_a,
            q_h=q_h,
            q_l=q_l,
            q_d=q_d,
            n_days_defined=len(window),
        )
    return out


#: The 95% interval's quantiles, as ``np.percentile`` divides them.
_INTERVAL_QUANTILES = np.array([2.5, 97.5]) / 100


def _percentile_interval(stats: np.ndarray) -> np.ndarray:
    """``np.percentile(stats, [2.5, 97.5])`` of finite ``stats``, bit for
    bit, without the ``np.unique`` call in it that imports numpy.ma.

    numpy's default (linear) method step by step: the virtual index
    (n - 1) * q, the partition numpy makes about its neighbours (so tied
    zeros of either sign land where numpy puts them), and ``_lerp``,
    which takes b - (b - a) * (1 - t) where t >= 0.5.
    """
    virtual = (stats.size - 1) * _INTERVAL_QUANTILES
    below = np.floor(virtual).astype(np.intp)
    above = below + 1
    top = virtual >= stats.size - 1
    below[top] = above[top] = -1
    ordered = np.partition(stats, sorted({0, -1, *below.tolist(), *above.tolist()}))
    a, b, t = ordered[below], ordered[above], virtual - below
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def bootstrap_mean_ci(
    values: Sequence[float],
    *,
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap 95% interval for a mean, resampling days."""
    vals = np.asarray(values, dtype=float)
    if vals.size < 2:
        raise EstimationError("need at least 2 defined days to bootstrap")
    _check_replicates(replicates)
    stats = _resampled_means(np.random.default_rng(seed), vals, replicates)
    lo, hi = _percentile_interval(stats)
    return float(lo), float(hi)


def bootstrap_ratio_ci(
    high_values: Sequence[float],
    low_values: Sequence[float],
    *,
    replicates: int = 1000,
    seed: int = 0,
) -> tuple[float, float]:
    """Percentile bootstrap 95% interval for mean(high)/mean(low).

    High and low days are resampled separately (stratified), keeping the
    two regimes' day counts fixed. A replicate whose low-day mean is zero,
    or so small that the ratio overflows, is left out.
    """
    hv = np.asarray(high_values, dtype=float)
    lv = np.asarray(low_values, dtype=float)
    if hv.size < 2 or lv.size < 2:
        raise EstimationError("need at least 2 defined days in each stratum")
    _check_replicates(replicates)
    rng = np.random.default_rng(seed)
    num = _resampled_means(rng, hv, replicates)    # every high-day block first
    den = _resampled_means(rng, lv, replicates)
    ok = den > 0
    with np.errstate(over="ignore"):
        stats = num[ok] / den[ok]
    # A denominator so small that the ratio overflows counts as zero: an
    # infinite ratio would make the percentiles NaN.
    stats = stats[np.isfinite(stats)]
    if not stats.size:
        raise EstimationError("all bootstrap denominators are zero")
    lo, hi = _percentile_interval(stats)
    return float(lo), float(hi)


def attach_bootstrap_cis(
    report: dict[int, StateSpatial],
    series: CoLocationSeries,
    high: set[int],
    low: set[int],
    *,
    replicates: int = 1000,
    seed: int = 0,
) -> None:
    """Fill ci_a and ci_d in place, one seeded substream per state."""
    defined = _defined_values(series, high, low)
    for k, state in enumerate(sorted(report)):
        stat = report[state]
        vals, hv, lv = defined.get(state, ([], [], []))
        if len(vals) >= 2:
            stat.ci_a = bootstrap_mean_ci(
                vals, replicates=replicates, seed=seed * 1_000_003 + 2 * k
            )
        if len(hv) >= 2 and len(lv) >= 2 and stat.q_d is not None:
            stat.ci_d = bootstrap_ratio_ci(
                hv, lv, replicates=replicates, seed=seed * 1_000_003 + 2 * k + 1
            )


def daily_representation(
    by_state_daily: Mapping[tuple[int, int], float],
) -> dict[tuple[int, int], float]:
    """Each state's share of the summed daily estimate, per day."""
    day_totals: dict[int, float] = defaultdict(float)
    for (state, day) in sorted(by_state_daily):
        day_totals[day] += by_state_daily[(state, day)]
    return {
        (state, day): v / day_totals[day]
        for (state, day), v in sorted(by_state_daily.items())
        if day_totals[day] > 0
    }


def mean_log_representation(
    representation_daily: Mapping[tuple[int, int], float],
) -> dict[int, float]:
    """Mean over days of log10 daily representation, per state.

    Only days where the state has a positive share contribute.
    """
    sums: dict[int, float] = defaultdict(float)
    counts: dict[int, int] = defaultdict(int)
    for (state, day), share in sorted(representation_daily.items()):
        if share > 0:
            sums[state] += log10(share)
            counts[state] += 1
    return {s: sums[s] / counts[s] for s in sorted(sums)}


def _paired(
    values: Mapping[int, float | None],
    mean_log_rep: Mapping[int, float],
) -> tuple[np.ndarray, np.ndarray] | None:
    """The complete pairs, in state order, that ``correlate`` correlates:
    None for fewer than 3 or for no variance on either side."""
    states = [
        s
        for s in sorted(values)
        if values[s] is not None and s in mean_log_rep
    ]
    if len(states) < 3:
        return None
    a = np.array([values[s] for s in states], dtype=float)
    b = np.array([mean_log_rep[s] for s in states], dtype=float)
    if a.std() == 0 or b.std() == 0:
        return None
    return a, b


def correlate(
    values: Mapping[int, float | None],
    mean_log_rep: Mapping[int, float],
) -> float | None:
    """Pearson correlation of a per-state statistic with log representation.

    States missing either quantity are dropped; needs at least 3 complete
    pairs and positive variance on both sides, otherwise None.
    """
    pairs = _paired(values, mean_log_rep)
    return None if pairs is None else float(np.corrcoef(*pairs)[0, 1])


def correlation_p_value(
    values: Mapping[int, float | None],
    mean_log_rep: Mapping[int, float],
    *,
    n_permutations: int = 199,
    seed: int = 0,
) -> float | None:
    """Two-sided permutation p-value for the correlation in ``correlate``.

    The state pairing is shuffled ``n_permutations`` times; p is the
    add-one-smoothed share of shuffles whose |rho| reaches the observed
    |rho|, so the smallest attainable p is 1/(n_permutations + 1).
    None whenever the observed correlation is undefined. The shuffles
    are drawn in order into one (n_permutations, n) index array, and all
    their correlations come from one matrix-vector product of the
    centred values.
    """
    pairs = _paired(values, mean_log_rep)
    if pairs is None:
        return None
    a, b = pairs
    observed = float(np.corrcoef(a, b)[0, 1])
    rng = np.random.default_rng(seed)
    shuffles = np.array([rng.permutation(b.size) for _ in range(n_permutations)],
                        np.intp).reshape(-1, b.size)
    a, b = a - a.mean(), b - b.mean()
    rho = b[shuffles] @ a / np.sqrt((a @ a) * (b @ b))
    hits = int((np.abs(rho) >= abs(observed) - 1e-12).sum())
    return (1 + hits) / (n_permutations + 1)
