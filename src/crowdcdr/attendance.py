"""Attendance estimation with censoring corrections.

Raw daily handset counts are turned into attendance estimates through
four multiplicative adjustments:

(i)   national phone prevalence,
(ii)  the operator's state-specific market share (applied per state,
      before summation: using an average share instead can put a state
      off by more than a factor of 2),
(iii) the probability that a present person uses their phone on a given
      day (daily estimates only), and
(iv)  the probability that a person never uses their phone during the
      entire stay, calibrated against external daily projections.

Two sensitivity conventions around (iv) are provided and both are
emitted, because they disagree: ``sensitivity_curve`` evaluates the
reciprocal form f(q) = c/q used by the reference sensitivity figure,
while ``nonuse_adjusted_totals`` applies the model-consistent
1/(1 - q) correction to a base cumulative count. Neither is silently
preferred.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, EstimationError
from .arrays import run_starts
from .ingest import ObservationColumns, StateProfile

log = logging.getLogger(__name__)

# Documented defaults: 71.3% wireless prevalence (India, 2013), 40.4%
# daily use, 40.6% non-use. See crowdcdr.reference for provenance notes.
DEFAULT_PREVALENCE = 0.713
DEFAULT_DAILY_USE = 0.404
DEFAULT_NON_USE = 0.406

#: The largest non-use fraction ``calibrate_non_use`` returns.
NON_USE_CLAMP = 0.95


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        raise ConfigurationError(f"{name} must be in (0, 1), got {value}")


@dataclass(frozen=True)
class AdjustmentFactors:
    prevalence: float = DEFAULT_PREVALENCE
    daily_use: float = DEFAULT_DAILY_USE
    non_use: float = DEFAULT_NON_USE

    def __post_init__(self):
        for name in ("prevalence", "daily_use", "non_use"):
            _check_fraction(name, getattr(self, name))


@dataclass
class AttendanceSeries:
    """Assembled attendance tables for one analysis run."""

    daily: dict[int, float]
    cumulative: dict[int, float]
    by_state_daily: dict[tuple[int, int], float]
    by_state_cumulative: dict[tuple[int, int], float]
    representation: dict[int, float]
    daily_use_estimate: float | None = None
    non_use_estimate: float | None = None
    factors: AdjustmentFactors = field(default_factory=AdjustmentFactors)


def _pooled_daily_use(active: np.ndarray, length: np.ndarray) -> float:
    """Summed days active over summed stay lengths, by integer sums."""
    bad = np.flatnonzero((active < 1) | (active > length))
    if bad.size:
        raise EstimationError(
            f"invalid stay pair ({active[bad[0]]}, {length[bad[0]]})"
        )
    stay_total = int(length.sum())
    if stay_total == 0:
        raise EstimationError("no stays to estimate daily use from")
    return int(active.sum()) / stay_total


def _stays(
    observations: ObservationColumns,
) -> tuple[np.ndarray, np.ndarray, ObservationColumns]:
    """Per person, in person order: days active, stay length, first observation.

    Rows already in (person, day) order, as both producers give them,
    are not sorted again; other rows are sorted once.
    """
    obs = observations
    person, day = obs.person_id, obs.day
    if not ((person[1:] > person[:-1])
            | ((person[1:] == person[:-1]) & (day[1:] >= day[:-1]))).all():
        obs = obs.take(np.lexsort((day, person)))
    starts = np.flatnonzero(run_starts(obs.person_id))
    active = np.diff(starts, append=len(obs))
    length = obs.day[starts + active - 1] - obs.day[starts] + 1
    return active, length, obs.take(starts)


def _share(profiles: Mapping[int, StateProfile], state: int) -> float:
    try:
        return profiles[state].market_share
    except KeyError:
        raise ConfigurationError(f"no market share for state {state}") from None


def _scale_by_state(
    counts: Mapping[tuple[int, int], int],
    profiles: Mapping[int, StateProfile],
    divisor: float,
) -> dict[tuple[int, int], float]:
    """count / share / divisor per (state, day), in (state, day) order."""
    return {
        (state, day): counts[(state, day)] / _share(profiles, state) / divisor
        for (state, day) in sorted(counts)
    }


def _sum_by_day(
    by_state_day: Mapping[tuple[int, int], float], days: Iterable[int] = ()
) -> dict[int, float]:
    """Per-day totals over states, starting at 0.0 for each of ``days``.

    The sum runs in (state, day) order from 0.0, so results are bit-stable.
    """
    out = dict.fromkeys(days, 0.0)
    for (state, day) in sorted(by_state_day):
        out[day] = out.get(day, 0.0) + by_state_day[(state, day)]
    return out


def daily_attendance_by_state(
    counts: Mapping[tuple[int, int], int],
    profiles: Mapping[int, StateProfile],
    factors: AdjustmentFactors,
) -> dict[tuple[int, int], float]:
    """Per (state, day) daily estimate: count / share / (i) / (iii) / (1 - (iv))."""
    return _scale_by_state(
        counts, profiles,
        factors.prevalence * factors.daily_use * (1.0 - factors.non_use),
    )


def cumulative_attendance_by_state(
    new_by_state_day: Mapping[tuple[int, int], int],
    profiles: Mapping[int, StateProfile],
    factors: AdjustmentFactors,
    *,
    total_days: int,
) -> dict[tuple[int, int], float]:
    """Cumulative estimate per (state, day), extrapolated by (i), (ii), (iv) only.

    Daily-use does not apply: a person is in the cumulative count from
    their first observed day onward regardless of how often they use the
    phone afterwards.
    """
    divisor = factors.prevalence * (1.0 - factors.non_use)
    states = sorted({s for s, _ in new_by_state_day})
    out: dict[tuple[int, int], float] = {}
    for state in states:
        share = _share(profiles, state)
        running = 0
        for day in range(1, total_days + 1):
            running += new_by_state_day.get((state, day), 0)
            out[(state, day)] = running / share / divisor
    return out


def uncorrected_daily(
    counts: Mapping[tuple[int, int], int],
    profiles: Mapping[int, StateProfile],
    *,
    prevalence: float,
    daily_use: float,
) -> dict[int, float]:
    """Daily estimates with non_use = 0, the input calibrate_non_use expects."""
    return _sum_by_day(_scale_by_state(counts, profiles, prevalence * daily_use))


def calibrate_non_use(
    base_daily: Mapping[int, float],
    projections: Mapping[int, float],
) -> float:
    """Non-use fraction most consistent with external daily projections.

    ``base_daily`` must be computed with non_use = 0. Least squares on
    levels has the closed form s = sum(base*proj) / sum(base^2) for the
    inflation s = 1/(1-q), hence q = 1 - 1/s, clamped to [0, NON_USE_CLAMP].
    Projections at or below the raw estimates give q <= 0; that returns 0
    with a warning rather than a negative non-use fraction; q above the
    clamp warns too.
    """
    days = sorted(set(base_daily) & set(projections))
    if not days:
        raise EstimationError("no projection day overlaps the base estimates")
    num = sum(base_daily[d] * projections[d] for d in days)
    den = sum(base_daily[d] ** 2 for d in days)
    if den == 0:
        raise EstimationError("base estimates are all zero on projection days")
    s = num / den
    if s <= 1.0:
        log.warning(
            "projections do not exceed uncorrected estimates (s=%.4f); "
            "calibrated non-use clamped to 0", s,
        )
        return 0.0
    q = 1.0 - 1.0 / s
    if q > NON_USE_CLAMP:
        log.warning(
            "projections exceed uncorrected estimates %.4g-fold, which "
            "implies non-use %.4f; calibrated non-use clamped to %s",
            s, q, NON_USE_CLAMP,
        )
        return NON_USE_CLAMP
    return q


def sensitivity_curve(
    c: float, q_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Cumulative attendance versus assumed non-use, reciprocal convention.

    Evaluates f(q) = c/q over the grid. Note this is not the 1/(1-q)
    correction used elsewhere in the pipeline; see nonuse_adjusted_totals
    for that reading. q must be positive.
    """
    for q in q_grid:
        if not 0.0 < q < 1.0:
            raise ValueError(f"non-use fraction out of (0, 1): {q}")
    return [(float(q), c / q) for q in q_grid]


def nonuse_adjusted_totals(
    base_total: float, q_grid: Sequence[float]
) -> list[tuple[float, float]]:
    """Cumulative attendance versus assumed non-use, censoring-model convention.

    Applies base/(1-q): the base total counts only phone users, and a
    non-use fraction q means users are (1-q) of everyone present.
    """
    for q in q_grid:
        if not 0.0 <= q < 1.0:
            raise ValueError(f"non-use fraction out of [0, 1): {q}")
    return [(float(q), base_total / (1.0 - q)) for q in q_grid]


def state_representation(
    by_state_cumulative: Mapping[int, float],
) -> dict[int, float]:
    """Each state's share of the total cumulative estimate; sums to 1."""
    total = 0.0
    for state in sorted(by_state_cumulative):
        v = by_state_cumulative[state]
        if v < 0:
            raise EstimationError(f"negative estimate for state {state}")
        total += v
    if total <= 0:
        raise EstimationError("zero total attendance, representation undefined")
    return {s: by_state_cumulative[s] / total for s in sorted(by_state_cumulative)}


def final_cumulative_by_state(
    by_state_cumulative: Mapping[tuple[int, int], float],
    *,
    total_days: int,
) -> dict[int, float]:
    return {
        state: by_state_cumulative[(state, day)]
        for (state, day) in sorted(by_state_cumulative)
        if day == total_days
    }


def build_series(
    observations: ObservationColumns,
    counts: Mapping[tuple[int, int], int],
    profiles: Mapping[int, StateProfile],
    *,
    total_days: int,
    prevalence: float = DEFAULT_PREVALENCE,
    non_use: float = DEFAULT_NON_USE,
    projections: Mapping[int, float] | None = None,
) -> AttendanceSeries:
    """Full attendance assembly used by the CLI.

    Daily use is always estimated from the observations. Non-use is
    calibrated against projections when given, and otherwise taken from
    ``non_use``. The series' ``factors`` are the ones it applied: the
    daily use estimated and the non-use used.
    """
    _check_fraction("prevalence", prevalence)
    _check_fraction("non_use", non_use)
    active, length, first = _stays(observations)
    daily_use = _pooled_daily_use(active, length)

    non_use_est = None
    if projections:
        base_daily = uncorrected_daily(
            counts, profiles, prevalence=prevalence, daily_use=daily_use
        )
        non_use_est = calibrate_non_use(base_daily, projections)
        if non_use_est > 0:
            non_use = non_use_est

    eff = AdjustmentFactors(prevalence, daily_use, non_use)
    by_state_daily = daily_attendance_by_state(counts, profiles, eff)
    by_state_cum = cumulative_attendance_by_state(
        first.unique_handsets(), profiles, eff, total_days=total_days
    )
    representation = state_representation(
        final_cumulative_by_state(by_state_cum, total_days=total_days)
    )
    return AttendanceSeries(
        daily=_sum_by_day(by_state_daily),
        cumulative=_sum_by_day(by_state_cum, range(1, total_days + 1)),
        by_state_daily=by_state_daily,
        by_state_cumulative=by_state_cum,
        representation=representation,
        daily_use_estimate=daily_use,
        non_use_estimate=non_use_est,
        factors=eff,
    )
