"""Synthetic CDR scenarios with planted ground truth.

Every estimator in the package is validated against data from this
generator, so each planted quantity is wired to be recoverable exactly
in expectation:

- Attendance. Customer and never-user counts are deterministic quotas
  (``round(attendees * share * prevalence)`` etc.), not binomial draws,
  so cumulative recovery is limited only by rounding. Visible persons
  are always active on their arrival and departure days and use the
  phone on interior days at rate (u*s - 2)/(s - 2); summed over a stay
  of length s that gives u*s expected active days, which makes the
  active-days/span estimator of daily use unbiased for every person.
- Daily activity. Interior activity is allocated by per-cohort day
  quotas with rotating membership rather than independent coin flips.
  Totals still match the planted rate but day-level counts carry only
  rounding noise, which keeps the non-use calibration (a 4-day
  regression against projections) inside tight per-run tolerances at
  desk scale.
- Closure. Visible customers travel in groups of three sharing arrival
  and stay. Each group that forms ties at all (probability p_in) is
  wired as a triangle with probability expit(beta0 + beta1*log10 W_r)
  and as a 2-path otherwise, so the closure-vs-representation logistic
  model holds exactly and the planted triples are node-disjoint, which
  gives the downstream Wald intervals their nominal coverage.
- Co-location. Each active group member lands in the group's daily
  cell with probability theta and in a uniform cell otherwise; the
  expected co-location probability then has a closed form in the
  realized same-group active pair counts, recorded per (state, day).

Stays are geometric above a minimum, arrivals multinomial over the
window with extra short-stay cohorts on peak days (day trippers), so
attendance peaks on the configured days while off-peak days stay
locally stationary -- the property the calibration days rely on.

The generator is columnar: rosters, stays, activity slots, ties and the
CDR rows are numpy arrays built by array arithmetic. It works in two
parts. The plan (``_plan``) holds all that does not depend on the seed:
the quotas, each state's roster and stays, presence per day, the
activity schedule (the day of every slot and which shuffled cohort
member fills it), theta per day and the tower grid. It is computed once
per config, keyed on every field but the seed, and kept until a call
with another config, so a sweep over seeds pays for it once. The draws
(``generate_tables``) are the seed's: one shuffle per cohort, the cells
and the group placement, the ties, and the planted co-location that
follows from them. Two loops stay scalar because their order is the
output's: the floor-with-carry quota schedule over (cohort, interior
day), in the plan, and the shuffles, in (arrival, stay) order. Output
is byte-deterministic given the config, whichever plan was kept.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from itertools import chain, compress
from math import cos, exp, expm1, log10, log1p, pi, radians
from pathlib import Path
from sys import float_info
from typing import Iterable, Sequence

import numpy as np

from .arrays import INT64_MAX, column_bounds, pack_keys, run_starts
from .errors import ConfigurationError
from .ingest import (
    EARTH_RADIUS_KM,
    CdrColumns,
    ObservationColumns,
    StudyWindow,
    DEFAULT_WINDOW,
    N_STATES,
    TowerSite,
    StateProfile,
    is_int,
    write_cdr,
    write_table,
)
from .social import Triples

#: person ids are state*stride + 1-based index; peers for filler traffic
#: live above PEER_BASE and are never customers.
PERSON_STRIDE = 10_000_000
PEER_BASE = 10 ** 9

KM_PER_DEGREE = pi * EARTH_RADIUS_KM / 180.0


@dataclass(frozen=True)
class StateSpec:
    """One origin state: planted attendance, market share, co-location."""

    code: int
    name: str
    attendees: int
    market_share: float
    is_local: bool = False
    theta: float = 0.6          # same-cell pull for traveling groups


@dataclass
class ScenarioConfig:
    seed: int = 1
    states: list[StateSpec] = field(default_factory=list)
    n_days: int = 90
    window_start: int = DEFAULT_WINDOW.start

    # stay / arrival model
    mean_stay: float = 12.0
    min_stay: int = 5
    peak_days: tuple[int, ...] = (41, 46, 69)
    peak_stay: int = 5              # day-tripper stay length
    peak_fraction: float = 0.25     # attendees arriving as peak cohorts

    # usage model
    prevalence: float = 0.713
    daily_use: float = 0.404
    non_use: float = 0.406

    # social model
    group_size: int = 3
    p_in: float = 1.0               # probability a travel group forms ties
    p_out: float = 0.0              # cross-group same-state tie probability
    beta0: float = 0.0
    beta1: float = -0.208

    # spatial model
    grid_rows: int = 21
    grid_cols: int = 20
    cell_km: float = 1.0
    n_inactive_towers: int = 20
    origin_lat: float = 25.45
    origin_lon: float = 81.85
    theta_peak_boost: float = 1.4   # crowding multiplier on high-volume days
    theta_cap: float = 0.95

    # projections
    projection_days: tuple[int, ...] = (25, 35, 55, 75)
    projection_noise: float = 0.0

    @property
    def window(self) -> StudyWindow:
        return StudyWindow(start=self.window_start, days=self.n_days)

    @property
    def n_active_cells(self) -> int:
        return self.grid_rows * self.grid_cols - self.n_inactive_towers

    @property
    def crowding_days(self) -> set[int]:
        """Peak days plus two on each side: where theta_peak_boost applies."""
        out: set[int] = set()
        for t in self.peak_days:
            out.update(range(max(1, t - 2), min(self.n_days, t + 2) + 1))
        return out

    def validate(self) -> None:
        for spec in (self, *self.states):
            for f in fields(spec):
                v = getattr(spec, f.name)
                # NaN makes a check such as ``mean_stay <= min_stay``
                # false, and an integer past the float range overflows
                # where it meets a float; the checks below catch neither.
                if (f.type in ("int", "float")
                        and not -float_info.max <= v <= float_info.max):
                    raise ConfigurationError(
                        f"{type(spec).__name__}.{f.name} must be a finite "
                        f"number, got {v!r:.40}")
        if not self.states:
            raise ConfigurationError("scenario has no states")
        if self.seed < 0:
            raise ConfigurationError(f"seed must be non-negative: {self.seed}")
        if len({s.code for s in self.states}) != len(self.states):
            raise ConfigurationError("duplicate state codes")
        if sum(s.is_local for s in self.states) != 1:
            raise ConfigurationError("exactly one state must be local")
        for s in self.states:
            if s.attendees <= 0:
                raise ConfigurationError(f"state {s.code}: attendees must be positive")
            if not 0 < s.market_share <= 1:
                raise ConfigurationError(f"state {s.code}: share outside (0, 1]")
            if not 0 <= s.theta <= 1:
                raise ConfigurationError(f"state {s.code}: theta outside [0, 1]")
        for name in ("prevalence", "daily_use", "p_in", "p_out",
                     "peak_fraction", "projection_noise"):
            v = getattr(self, name)
            if not 0 <= v <= 1:
                raise ConfigurationError(f"{name} outside [0, 1]: {v}")
        if not 0 <= self.non_use <= 1:
            raise ConfigurationError(f"non_use outside [0, 1]: {self.non_use}")
        if self.n_days < self.min_stay + 1:
            raise ConfigurationError("window shorter than the minimum stay")
        if self.min_stay < 2 or self.peak_stay < 2:
            raise ConfigurationError("stays must span at least 2 days")
        if self.peak_stay < self.min_stay:
            raise ConfigurationError("peak_stay shorter than min_stay")
        if self.mean_stay <= self.min_stay:
            raise ConfigurationError("mean_stay below or at min_stay")
        # Anchored activity needs u*s >= 2 for every possible stay, else
        # the interior rate (u*s-2)/(s-2) would be negative.
        if self.daily_use * self.min_stay < 2:
            raise ConfigurationError(
                f"daily_use {self.daily_use} too low for min_stay "
                f"{self.min_stay}: arrival/departure anchoring needs "
                f"daily_use >= {2 / self.min_stay:.3f}"
            )
        for t in self.peak_days:
            if not self.peak_stay <= t <= self.n_days - self.peak_stay + 1:
                raise ConfigurationError(
                    f"peak day {t} leaves no room for the stays that "
                    "converge on it and depart from it"
                )
        for d in self.projection_days:
            if not 1 <= d <= self.n_days:
                raise ConfigurationError(f"projection day {d} outside the window")
        if self.group_size < 2:
            raise ConfigurationError("group_size must be at least 2")
        if self.group_size != 3 and (self.p_in > 0 or self.p_out > 0):
            raise ConfigurationError(
                "closure planting wires triangles vs 2-paths and therefore "
                "requires travel groups of exactly 3"
            )
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ConfigurationError("grid_rows and grid_cols must be positive")
        if self.n_active_cells < 2:
            raise ConfigurationError("need at least 2 active towers")
        if self.n_inactive_towers < 0:
            raise ConfigurationError("n_inactive_towers must be >= 0")
        visible = [_quotas(s, self)[2] for s in self.states]
        if any(visible) and all(v < self.group_size for v in visible):
            raise ConfigurationError(
                "group size exceeds every state's visible customer count"
            )
        for s, v in zip(self.states, visible):
            if v >= PERSON_STRIDE:
                raise ConfigurationError(
                    f"state {s.code}: {v} visible customers; person ids "
                    f"hold fewer than {PERSON_STRIDE} a state")
        # build_events sorts on a key packed from the second of the
        # window and the person id, which spans the state codes.
        codes = [s.code for s in self.states]
        if (self.n_days * 86400 * (max(codes) - min(codes) + 1)
                * PERSON_STRIDE > INT64_MAX):
            raise ConfigurationError(
                f"state codes {min(codes)}..{max(codes)} over {self.n_days} "
                "days overflow the int64 event sort key")

    @classmethod
    def from_json(cls, path) -> "ScenarioConfig":
        try:
            blob = json.loads(Path(path).read_text(encoding="utf-8"))
            _check_kinds(cls, blob, path)
            for s in blob["states"]:
                _check_kinds(StateSpec, s, path)
            states = [StateSpec(**s) for s in blob.pop("states")]
            for key in ("peak_days", "projection_days"):
                if key in blob:
                    blob[key] = tuple(blob[key])
            cfg = cls(states=states, **blob)
        except (OSError, ValueError, TypeError, KeyError, AttributeError) as exc:
            raise ConfigurationError(
                f"bad scenario config {path}: {exc!r}") from None
        cfg.validate()
        return cfg


#: Field annotation -> (test, description) of the JSON values it takes.
_KINDS = {
    "int": (is_int, "an integer"),
    "float": (lambda v: is_int(v) or isinstance(v, float), "a number"),
    "bool": (lambda v: isinstance(v, bool), "true or false"),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[int, ...]": (lambda v: isinstance(v, list) and all(map(is_int, v)),
                        "a list of integers"),
    "list[StateSpec]": (lambda v: isinstance(v, list)
                        and all(isinstance(s, dict) for s in v),
                        "a list of objects"),
}


def _check_kinds(cls, blob, path) -> None:
    """Raise ConfigurationError for a value of the wrong kind for its field."""
    if not isinstance(blob, dict):
        raise ConfigurationError(f"bad scenario config {path}: "
                                 f"{cls.__name__} must be an object")
    for f in fields(cls):
        valid, kind = _KINDS[f.type]
        if f.name in blob and not valid(blob[f.name]):
            raise ConfigurationError(
                f"bad scenario config {path}: {cls.__name__}.{f.name} must be "
                f"{kind}, got {blob[f.name]!r:.40}")


def _quotas(spec: StateSpec, config: ScenarioConfig) -> tuple[int, int, int]:
    """(customers, never_users, visible) for one state, deterministic."""
    customers = round(spec.attendees * spec.market_share * config.prevalence)
    never = round(customers * config.non_use)
    return customers, never, customers - never


def _interior_rate(u: float, s: int) -> float:
    """Interior-day activity rate that makes expected active days u*s."""
    if s <= 2:
        return 0.0
    return (u * s - 2.0) / (s - 2.0)


GOLDEN = 0.6180339887498949


def _spread_counts(total: int, n_bins: int, offset: int = 0) -> np.ndarray:
    """Split ``total`` over bins as evenly as integers allow.

    Largest-remainder spacing, rotated by ``offset`` bins. The rotation
    matters when many states are spread over the same span: without it
    their rounding patterns align and the summed arrivals develop
    day-level spikes that are pure artifacts of the allocation.
    """
    out = np.zeros(n_bins, dtype=int)
    if total <= 0 or n_bins == 0:
        return out
    i = np.arange(n_bins)
    out[(i + offset) % n_bins] = (i + 1) * total // n_bins - i * total // n_bins
    return out


def _runs(counts: np.ndarray, first=0) -> np.ndarray:
    """first[i], first[i] + 1, ..., first[i] + counts[i] - 1, concatenated."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(first - (ends - counts), counts)


#: Relative distance from an integer within which ``_stratified_stays``
#: recomputes a ratio from ``math.log1p``. With numpy's ``log1p`` the
#: ratios of ``desk_scenario(72, scale=10)`` differ by 1.07 ulps at most
#: (numpy 2.4, AVX-512), so 1e-9 leaves a margin of millions of ulps; no
#: ratio of that city comes that close to an integer.
_CEIL_SLACK = 1e-9


def _stratified_stays(
    counts: Sequence[int], config: ScenarioConfig,
    max_stays: Sequence[int], phases: Sequence[float],
) -> np.ndarray:
    """Stays of consecutive cohorts from the geometric model.

    The marginal is min_stay - 1 + Geometric(p) with mean ``mean_stay``.
    Cohort i has counts[i] members, truncated to max_stays[i] so a stay
    never outlives the window; naive clipping would instead pile every
    long stay's departure onto the last day. Drawing at quantiles
    (j + phases[i]) / counts[i] keeps each arrival cohort's stay mix
    close to the distribution instead of leaving it to sampling noise;
    varying the phase across cohorts stops their departure days from
    landing on a common lattice.

    Every step is the scalar formula's, in its order, and gives its
    bits. The logarithm is ``np.log1p`` over the whole column, but
    numpy's SIMD ``log1p`` can differ from ``math.log1p`` in the last
    bit, which is enough to flip a ceil at a boundary: so every ratio
    within ``_CEIL_SLACK`` of an integer is recomputed from
    ``math.log1p``. A quantile that rounds to 1 is among them, and
    ``math.log1p`` raises ValueError for it.
    """
    counts = np.asarray(counts, dtype=np.int64)
    max_stays = np.asarray(max_stays, dtype=np.int64)
    if (max_stays < config.min_stay).any():
        raise ConfigurationError(
            f"max_stay {max_stays.min()} below min_stay {config.min_stay}"
        )
    log_p = log1p(-1.0 / (config.mean_stay - config.min_stay + 1.0))
    mass = [-expm1(log_p * (m - config.min_stay + 1)) for m in max_stays.tolist()]
    j = _runs(counts)
    q = (j + np.repeat(phases, counts)) / np.repeat(counts, counts) \
        * np.repeat(mass, counts)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.log1p(-q) / log_p
        near = ~(np.abs(ratio - np.rint(ratio)) > ratio * _CEIL_SLACK)  # NaN too
    ratio[near] = [log1p(x) / log_p for x in (-q[near]).tolist()]
    g = np.maximum(1, np.ceil(ratio)).astype(np.int64)
    return config.min_stay - 1 + g


@dataclass
class GroundTruth:
    """Planted quantities plus the realized tables the estimators see."""

    config: ScenarioConfig
    n_days: int
    true_total: dict[int, int]
    true_w: dict[int, float]
    customers: dict[int, int]
    never_users: dict[int, int]
    visible: dict[int, int]
    true_daily: dict[tuple[int, int], int]
    observed_counts: dict[tuple[int, int], int]
    closed_prob: dict[int, float]
    edges: list[tuple[int, int]]
    triples: Triples
    node_state: dict[int, int]
    towers: list[TowerSite]
    active_tower_ids: list[int]
    # One row per active person-day: the person, state, day and the index
    # of its cell in ``active_tower_ids``.
    slot_person: np.ndarray
    slot_state: np.ndarray
    slot_day: np.ndarray
    slot_cell: np.ndarray
    planted_p: dict[tuple[int, int], float] = field(default_factory=dict)
    planted_qa: dict[int, float] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed

    def profiles(self) -> dict[int, StateProfile]:
        return {
            s.code: StateProfile(s.code, s.name, s.market_share, s.is_local)
            for s in self.config.states
        }

    def true_daily_total(self) -> dict[int, int]:
        out: dict[int, int] = {d: 0 for d in range(1, self.n_days + 1)}
        for (state, day), n in self.true_daily.items():
            out[day] += n
        return out

    def observations(self) -> ObservationColumns:
        """What ingest + dedupe should reconstruct from the emitted files."""
        order = _person_day_order(self.slot_person, self.slot_day, self.n_days)
        towers = np.array(self.active_tower_ids, dtype=np.int64)
        return ObservationColumns(
            self.slot_person[order], self.slot_state[order],
            self.slot_day[order], towers[self.slot_cell[order]],
        )

    def summary(self) -> dict:
        return {
            "seed": self.config.seed,
            "n_days": self.n_days,
            "planted": {
                "prevalence": self.config.prevalence,
                "daily_use": self.config.daily_use,
                "non_use": self.config.non_use,
                "beta0": self.config.beta0,
                "beta1": self.config.beta1,
            },
            "states": {
                str(code): {
                    "attendees": self.true_total[code],
                    "w": self.true_w[code],
                    "customers": self.customers[code],
                    "visible": self.visible[code],
                    "closed_prob": self.closed_prob.get(code),
                    "planted_qa": self.planted_qa.get(code),
                }
                for code in sorted(self.true_total)
            },
            "n_edges": len(self.edges),
            "n_triples": len(self.triples),
        }


def _person_day_order(
    person: np.ndarray, day: np.ndarray, n_days: int
) -> np.ndarray:
    """The slots in (person, day) order, by one packed key.

    A person has at most one slot a day, so the key is unique and any
    sort gives this order; the stable one is the quicker on slots that
    come person by person.
    """
    key, _ = pack_keys(person, day, bounds=[column_bounds(person),
                                            (0, n_days + 1)])
    return np.argsort(key, kind="stable")


def tower_grid(config: ScenarioConfig) -> tuple[list[TowerSite], list[int]]:
    """Grid of towers around the venue; returns (all towers, active ids).

    Inactive towers (sites with no traffic over the window) are spread
    evenly through the scan order so their absorption into neighboring
    cells is exercised all over the map, not in one corner.
    """
    n = config.grid_rows * config.grid_cols
    dlat = config.cell_km / KM_PER_DEGREE
    dlon = config.cell_km / (KM_PER_DEGREE * cos(radians(config.origin_lat)))
    inactive: set[int] = set()
    if config.n_inactive_towers:
        stride = max(1, n // config.n_inactive_towers)
        pos = 0
        while len(inactive) < config.n_inactive_towers and pos < n:
            inactive.add(pos)
            pos += stride
    towers: list[TowerSite] = []
    active_ids: list[int] = []
    for i in range(config.grid_rows):
        for j in range(config.grid_cols):
            pos = i * config.grid_cols + j
            tid = 1001 + pos
            towers.append(TowerSite(
                tower_id=tid,
                latitude=config.origin_lat + (i - config.grid_rows / 2) * dlat,
                longitude=config.origin_lon + (j - config.grid_cols / 2) * dlon,
                active=pos not in inactive,
            ))
            if pos not in inactive:
                active_ids.append(tid)
    return towers, active_ids


def _base_cohorts(
    total: int, spec: StateSpec, config: ScenarioConfig,
    offset: int, shift: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival and stay of ``total`` units spread over the arrival days.

    ``offset`` rotates the day spread and ``shift`` the stay phases, so
    the unit kinds of one state do not share a rounding pattern.
    """
    days = np.arange(1, config.n_days - config.min_stay + 2)
    per_day = _spread_counts(total, len(days), spec.code * 17 + offset)
    phases = (GOLDEN * (spec.code * 131 + days) + shift) % 1.0
    stays = _stratified_stays(per_day, config, config.n_days + 1 - days, phases)
    return np.repeat(days, per_day), stays


def _peak_halves(total: int, config: ScenarioConfig) -> list[tuple[int, int]]:
    """(arrival, size) of the two half-cohorts per peak day.

    One half departs on the peak day and the other arrives on it.
    """
    if not total:
        return []
    out = []
    for t, k in zip(config.peak_days,
                    _spread_counts(total, len(config.peak_days)).tolist()):
        out += [(t - config.peak_stay + 1, k // 2), (t, k - k // 2)]
    return out


def _n_peak(count: int, config: ScenarioConfig) -> int:
    return round(count * config.peak_fraction) if config.peak_days else 0


def _roster(
    visible: int, spec: StateSpec, config: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Arrival, stay, group index per visible person; returns n_groups.

    Order: base travel groups, base singletons, then two half-cohorts
    per peak day (groups first, then singletons within each). One half
    departs on the peak day and the other arrives on it, so the peak day
    alone collects both anchor bumps and stands out as the unique
    activity maximum. Group members share arrival and stay, and are
    consecutive; every person's last present day falls inside the window.
    """
    gs = config.group_size
    n_peak = _n_peak(visible, config)
    n_groups, n_single = divmod(visible - n_peak, gs)
    groups = _base_cohorts(n_groups, spec, config, 0, 0.0)
    single = _base_cohorts(n_single, spec, config, 7, 0.31)
    arrival, stay = [groups[0], single[0]], [groups[1], single[1]]
    size = [np.full(n_groups, gs), np.ones(n_single, int)]
    for a, part in _peak_halves(n_peak, config):
        n_g, n_s = divmod(part, gs)
        arrival.append(np.full(n_g + n_s, a))
        stay.append(np.full(n_g + n_s, config.peak_stay))
        size.append(np.repeat([gs, 1], [n_g, n_s]))
    arrival, stay, size = (np.concatenate(x) for x in (arrival, stay, size))
    stay = np.minimum(stay, config.n_days + 1 - arrival)
    grouped = size == gs
    group = np.where(grouped, np.cumsum(grouped) - 1, -1)
    return (
        np.repeat(arrival, size).astype(np.int32),
        np.repeat(stay, size).astype(np.int32),
        np.repeat(group, size).astype(np.int32),
        int(grouped.sum()),
    )


def _invisible_roster(
    count: int, spec: StateSpec, config: ScenarioConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Arrival and stay of attendees who never appear in the CDRs."""
    n_peak = _n_peak(count, config)
    arrival, stay = _base_cohorts(count - n_peak, spec, config, 13, 0.62)
    halves = _peak_halves(n_peak, config)
    peak = np.repeat(np.array([a for a, _ in halves], dtype=np.int64),
                     [k for _, k in halves])
    return (np.concatenate([arrival, peak]),
            np.concatenate([stay, np.full(peak.size, config.peak_stay)]))


def _interior_quotas(
    stays: Iterable[int], sizes: Iterable[int], u: float
) -> list[list[int]]:
    """Active members on each interior day of each cohort, in order.

    A cohort of k members staying s days gets floor-with-carry of
    k * interior_rate on each of its s - 2 interior days; one carry runs
    through all cohorts in the given order, so rounding losses cancel. A
    cohort without interior activity gets an empty list.

    The carry stays in [-1e-9, 1 - 1e-9), so ``int`` of x + 1e-9 is its
    floor, and as the rate is at most 1 a take never exceeds k.
    """
    carry = 0.5
    out = []
    for s, k in zip(stays, sizes):
        rate = _interior_rate(u, s)
        quota = []
        if rate > 0:
            mu = k * rate
            quota = [0] * (s - 2)
            for i in range(s - 2):
                x = mu + carry
                quota[i] = take = int(x + 1e-9)
                carry = x - take
        out.append(quota)
    return out


def _cohorts(
    arrivals: np.ndarray, stays: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Persons sorted by (arrival, stay, index), and each cohort's start, size."""
    order = np.lexsort((stays, arrivals))
    starts = np.flatnonzero(run_starts(arrivals[order], stays[order]))
    return order, starts, np.diff(starts, append=len(order))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _Schedule:
    """Which slots a roster fills on which day, before anyone is drawn.

    Everyone is active on arrival and departure. Interior activity is
    allocated per (arrival, stay) cohort: each interior day gets its
    ``_interior_quotas`` slots, assigned to members in rotation from a
    shuffled order. Totals match the planted daily-use rate with only
    rounding error, at the day level and per person. Slots: each
    person's two anchors, then the cohorts in (arrival, stay) order,
    day by day.
    """

    days: np.ndarray        # the day of each slot
    n: int                  # persons
    pool: np.ndarray        # members of cohorts with interior days, by cohort
    cuts: np.ndarray        # start and end in the pool of each such cohort
    rotation: np.ndarray    # per interior slot: its position in the pool

    def persons(self, rng: np.random.Generator) -> np.ndarray:
        """The person in each slot: one shuffle per cohort, in order.

        Slot r of a cohort goes to its shuffled member r mod k, so each
        day's rotation starts where the previous day's stopped. Shuffling
        a one-member cohort draws nothing, so it is skipped.
        """
        pool = self.pool.copy()
        for lo, hi in zip(*self.cuts.tolist()):
            rng.shuffle(pool[lo:hi])
        return np.concatenate([np.repeat(np.arange(self.n), 2),
                               pool[self.rotation]])


def _schedule(arrivals: np.ndarray, stays: np.ndarray, u: float) -> _Schedule:
    """The activity schedule of a roster at daily-use rate ``u``."""
    a = arrivals.astype(np.int64)
    s = stays.astype(np.int64)
    order, starts, sizes = _cohorts(a, s)
    quotas = _interior_quotas(s[order[starts]].tolist(), sizes.tolist(), u)
    active = np.array([c for c, quota in enumerate(quotas) if quota], np.int64)
    head = order[starts[active]]    # a member of each active cohort
    take = np.fromiter(chain.from_iterable(quotas), np.int64)
    interior = np.repeat(_runs(s[head] - 2, a[head] + 1), take)
    slots = np.array([sum(quotas[c]) for c in active], dtype=np.int64)
    size = sizes[active]
    lo = np.cumsum(size) - size
    return _Schedule(
        days=_read_only(np.concatenate(
            [np.column_stack([a, a + s - 1]).ravel(), interior])),
        n=len(a),
        pool=_read_only(order[_runs(size, starts[active])]),
        cuts=_read_only(np.stack([lo, lo + size])[:, size > 1]),
        rotation=_read_only(np.repeat(lo, slots)
                            + _runs(slots) % np.repeat(size, slots)),
    )


def _expected_p(
    sg: np.ndarray, n_act: np.ndarray, theta: np.ndarray, n_cells: int
) -> np.ndarray:
    """Expected co-location probability on each day, given its realized
    same-group pairs.

    Same-group active pairs share a cell with probability
    theta^2 + (1 - theta^2)/C; all other pairs collide uniformly at 1/C.
    Every day needs at least two active persons. Each element takes the
    scalar formula's operations in its order, so it is the same float.
    """
    tp = n_act * (n_act - 1) / 2.0
    p_same = theta * theta + (1.0 - theta * theta) / n_cells
    return (sg * p_same + (tp - sg) / n_cells) / tp


def _put_daily(table: dict, keys: tuple, counts: np.ndarray) -> None:
    """Add the non-zero days of a day-indexed count array to ``table``.

    ``keys`` holds the (state, day) key of days 1, 2, ... in order.
    """
    counts = counts[1:].tolist()
    table.update(zip(compress(keys, counts), filter(None, counts)))


@dataclass(frozen=True)
class _StatePlan:
    """The seed-free part of one state with visible customers."""

    code: int
    stream: int                 # index of its random stream
    q_r: float
    groups: np.ndarray          # group per visible person, -1 for singletons
    n_groups: int
    members: np.ndarray         # rows of the grouped persons, group by group
    schedule: _Schedule
    day_counts: np.ndarray      # active persons per day
    p_days: np.ndarray          # days with at least two active persons
    p_keys: tuple[tuple[int, int], ...]  # their (state, day) keys
    theta_by_day: np.ndarray


@dataclass(frozen=True)
class _CityPlan:
    """Everything ``generate_tables`` derives from the config but the seed.

    Its arrays are read-only. The tables a ``GroundTruth`` holds per
    day or per node are built from them on each run: as dicts they
    would take more memory than the arrays.
    """

    key: str
    towers: tuple[TowerSite, ...]
    active_ids: tuple[int, ...]
    customers: dict[int, int]
    never_users: dict[int, int]
    visible: dict[int, int]
    closed_prob: dict[int, float]
    present: dict[int, np.ndarray]  # attendees present per day, by state
    day_keys: dict[int, tuple[tuple[int, int], ...]]  # (state, day) by state
    states: tuple[_StatePlan, ...]  # the states with visible customers


def _city_plan(config: ScenarioConfig, key: str) -> _CityPlan:
    towers, active_ids = tower_grid(config)
    total_attendees = sum(s.attendees for s in config.states)
    crowded = config.crowding_days
    customers, never_users, visible, closed_prob = {}, {}, {}, {}
    present, day_keys = {}, {}
    states = []
    for i, spec in enumerate(sorted(config.states, key=lambda s: s.code)):
        code = spec.code
        customers[code], never_users[code], visible[code] = _quotas(spec, config)
        q_r = 1.0 / (1.0 + exp(-(config.beta0 + config.beta1
                                 * log10(spec.attendees / total_attendees))))
        closed_prob[code] = q_r
        day_keys[code] = tuple((code, d) for d in range(1, config.n_days + 1))

        arrivals, stays, groups, n_groups = _roster(visible[code], spec, config)

        # presence of every attendee, visible or not
        hidden = _invisible_roster(spec.attendees - visible[code], spec, config)
        first = np.concatenate([arrivals, hidden[0]])
        end = first + np.concatenate([stays, hidden[1]])
        n = max(config.n_days + 2, int(end.max(initial=0)) + 1)
        present[code] = _read_only(np.cumsum(
            np.bincount(first, minlength=n) - np.bincount(end, minlength=n)
        )[:config.n_days + 1])

        if visible[code] == 0:
            continue

        schedule = _schedule(arrivals, stays, config.daily_use)
        day_counts = np.bincount(schedule.days, minlength=config.n_days + 1)

        theta_by_day = np.full(config.n_days + 1, min(spec.theta, config.theta_cap))
        for d in crowded:
            theta_by_day[d] = min(config.theta_cap,
                                  spec.theta * config.theta_peak_boost)
        members = np.flatnonzero(groups >= 0)
        busy = day_counts[1:] >= 2
        states.append(_StatePlan(
            code=code,
            stream=i,
            q_r=q_r,
            groups=_read_only(groups),
            n_groups=n_groups,
            members=_read_only(members),
            schedule=schedule,
            day_counts=_read_only(day_counts),
            p_days=_read_only(np.flatnonzero(busy) + 1),
            p_keys=tuple(compress(day_keys[code], busy.tolist())),
            theta_by_day=_read_only(theta_by_day),
        ))
    return _CityPlan(key, tuple(towers), tuple(active_ids), customers,
                     never_users, visible, closed_prob, present, day_keys,
                     tuple(states))


#: The plan of the last config generated. A sweep over seeds reuses it.
_PLAN: _CityPlan | None = None


def _plan(config: ScenarioConfig) -> _CityPlan:
    """The seed-free plan of ``config``, computed once per config.

    The key is the repr of every field but the seed: unlike ``==``, it
    tells 1 from 1.0 and 0.0 from -0.0, and it copies the states list,
    which a caller may change after this call. The plan returned is read
    once from ``_PLAN``, so a thread that swaps in another config's plan
    meanwhile cannot hand this caller the wrong one.
    """
    global _PLAN
    key = repr(replace(config, seed=0))
    plan = _PLAN
    if plan is None or plan.key != key:
        plan = _PLAN = None     # the last plan goes before the next is built
        plan = _PLAN = _city_plan(config, key)
    return plan


def generate_tables(config: ScenarioConfig) -> GroundTruth:
    """Simulate a scenario and return ground truth plus observed tables.

    The seed-free plan comes from ``_plan``; this draws the seed's part.
    The slot arrays hold every active person-day; they are empty when no
    state has visible customers.
    """
    config.validate()
    plan = _plan(config)
    n_cells = len(plan.active_ids)
    total_attendees = sum(s.attendees for s in config.states)
    no_slots = np.zeros(0, np.int64)
    truth = GroundTruth(
        config=config,
        n_days=config.n_days,
        true_total={s.code: s.attendees for s in config.states},
        true_w={s.code: s.attendees / total_attendees for s in config.states},
        customers=dict(plan.customers),
        never_users=dict(plan.never_users),
        visible=dict(plan.visible),
        true_daily={},
        observed_counts={},
        closed_prob=dict(plan.closed_prob),
        edges=[],
        triples=Triples(),
        node_state={},
        towers=list(plan.towers),
        active_tower_ids=list(plan.active_ids),
        slot_person=no_slots,
        slot_state=no_slots,
        slot_day=no_slots,
        slot_cell=no_slots,
    )

    for code, present in plan.present.items():
        _put_daily(truth.true_daily, plan.day_keys[code], present)
    streams = np.random.SeedSequence(config.seed).spawn(len(config.states))
    all_person: list[np.ndarray] = []
    all_state: list[np.ndarray] = []
    all_day: list[np.ndarray] = []
    all_cell: list[np.ndarray] = []
    planted: list[Triples] = []

    for sp in plan.states:
        rng = np.random.default_rng(streams[sp.stream])
        p_arr = sp.schedule.persons(rng)
        d_arr = sp.schedule.days
        g_arr = sp.groups[p_arr]
        cells = rng.integers(0, n_cells, size=p_arr.size)
        grouped = g_arr >= 0
        sg_by_day = np.zeros(config.n_days + 1)
        if grouped.any():
            gd_key = g_arr[grouped].astype(np.int64) * (config.n_days + 1) \
                + d_arr[grouped]
            # The (group, day) keys are dense, so counting them gives what
            # np.unique would sort out: the keys present in ascending
            # order, the slots of each and each slot's rank among them.
            per_key = np.bincount(gd_key)
            uniq = np.flatnonzero(per_key)
            counts = per_key[uniq]
            per_key[uniq] = np.arange(uniq.size)
            inverse = per_key[gd_key]
            group_cell = rng.integers(0, n_cells, size=uniq.size)
            coin = rng.random(gd_key.size) < sp.theta_by_day[d_arr[grouped]]
            member_cells = np.where(coin, group_cell[inverse], cells[grouped])
            cells[grouped] = member_cells
            # realized same-group simultaneously-active pairs per day
            np.add.at(sg_by_day, uniq % (config.n_days + 1),
                      counts * (counts - 1) / 2.0)
        _put_daily(truth.observed_counts, plan.day_keys[sp.code],
                   sp.day_counts)
        days = sp.p_days
        p_vals = _expected_p(sg_by_day[days], sp.day_counts[days],
                             sp.theta_by_day[days], n_cells)
        truth.planted_p.update(zip(sp.p_keys, p_vals.tolist()))
        if p_vals.size:
            truth.planted_qa[sp.code] = float(np.mean(p_vals))
        all_person.append(sp.code * PERSON_STRIDE + 1 + p_arr)
        all_state.append(np.full(p_arr.size, sp.code, dtype=np.int64))
        all_day.append(d_arr)
        all_cell.append(cells)

        n_groups = sp.n_groups
        if n_groups:
            base = sp.code * PERSON_STRIDE + 1
            truth.node_state.update(
                dict.fromkeys(range(base, base + sp.groups.size), sp.code))
            wired = rng.random(n_groups) < config.p_in
            closed = rng.random(n_groups) < sp.q_r
            if wired.any():
                # Group g's members are the g-th run of consecutive roster rows.
                nodes = (sp.members.reshape(n_groups, -1) + base)[wired]
                planted.append(Triples(nodes, np.full(len(nodes), sp.code),
                                       closed[wired]))
                # Per triple a 2-path, then its closure.
                tie = nodes[:, [[0, 1], [1, 2], [0, 2]]]
                tie = tie[np.arange(3) < 2 + closed[wired][:, None]]
                truth.edges += zip(tie[:, 0].tolist(), tie[:, 1].tolist())
            if config.p_out > 0:
                members = sp.members
                n_m = members.size
                n_pairs = n_m * (n_m - 1) // 2
                picks = rng.binomial(n_pairs, config.p_out)
                flat = np.sort(rng.choice(n_pairs, size=min(picks, n_pairs),
                                          replace=False))
                i = ((2 * n_m - 1 - np.sqrt((2 * n_m - 1) ** 2 - 8 * flat))
                     // 2).astype(np.int64)
                j = flat - i * (2 * n_m - i - 1) // 2 + i + 1
                cross = sp.groups[members[i]] != sp.groups[members[j]]
                truth.edges += zip((members[i][cross] + base).tolist(),
                                   (members[j][cross] + base).tolist())

    truth.triples = Triples.concat(planted)
    truth.slot_person, truth.slot_state, truth.slot_day, truth.slot_cell = (
        np.concatenate([no_slots, *parts])
        for parts in (all_person, all_state, all_day, all_cell))
    return truth


def emit_projections(
    truth: GroundTruth,
    noise: float | None = None,
    *,
    seed_offset: int = 104729,
) -> dict[int, float]:
    """Externally projected attendance on the config's projection days:
    truth times (1 + noise draw).

    With noise 0 the projections equal the true daily totals exactly.
    ``ScenarioConfig.validate`` keeps the days inside the window.
    """
    cfg = truth.config
    noise = cfg.projection_noise if noise is None else noise
    totals = truth.true_daily_total()
    rng = np.random.default_rng(
        np.random.SeedSequence((cfg.seed, seed_offset))
    )
    out: dict[int, float] = {}
    for d in cfg.projection_days:
        factor = max(0.05, 1.0 + noise * rng.standard_normal()) if noise else 1.0
        out[int(d)] = totals[int(d)] * factor
    return out


# ---------------------------------------------------------------------------
# Event materialization and file output


def build_events(truth: GroundTruth) -> CdrColumns:
    """Materialize the CDR stream implied by the generated tables.

    One anchor event per active person-day (to a non-customer peer, so it
    creates no social tie) plus one event per social edge on the lower
    endpoint's arrival day. All events of a person-day share that day's
    placement, so the first-tower observation is unambiguous. Rows are
    sorted by (timestamp, caller, callee) (``_event_order``).
    """
    start = truth.config.window.start
    p, state, d = truth.slot_person, truth.slot_state, truth.slot_day
    n = len(p)
    second = (d - 1) * 86400 + (13 * p + 104729 * d) % 86400
    # Each person's first slot (the grouped minimum of its days) gives
    # the day, tower and state of the person's tie events.
    by_person = _person_day_order(p, d, truth.n_days)
    first = by_person[run_starts(p[by_person])]
    m = len(truth.edges)
    edges = np.fromiter(chain.from_iterable(truth.edges), np.int64, 2 * m)
    caller = np.minimum(edges[0::2], edges[1::2])
    callee = np.maximum(edges[0::2], edges[1::2])
    row = first[np.searchsorted(p[first], caller)]
    callee_row = first[np.searchsorted(p[first], callee)]
    day = d[row]
    tie_second = (day - 1) * 86400 + (13 * caller + 104729 * day + 7) % 86400
    order = _event_order(second, p, tie_second, caller, callee, truth.n_days)

    tower = np.array(truth.active_tower_ids, dtype=np.int64)[truth.slot_cell]
    text = (p + d) % 2 == 0
    anchors = [
        start + second,
        p, PEER_BASE + p % 977, text, np.where(text, 0, 30 + (31 * p + d) % 600),
        tower, state, np.zeros(n, np.int64), np.ones(n, bool), np.zeros(n, bool),
    ]
    ties = [
        start + tie_second,
        caller, callee, np.zeros(m, bool), 60 + (caller + callee) % 300,
        tower[row], state[row], state[callee_row], np.ones(m, bool),
        np.ones(m, bool),
    ]
    # One field at a time, each part dropped once placed, so that the
    # events are held about twice at most.
    columns = []
    for i in range(len(anchors)):
        columns.append(np.concatenate([anchors[i], ties[i]])[order])
        anchors[i] = ties[i] = None
    return CdrColumns(*columns)


def _event_order(
    second: np.ndarray, caller: np.ndarray, tie_second: np.ndarray,
    tie_caller: np.ndarray, tie_callee: np.ndarray, n_days: int,
) -> np.ndarray:
    """The order of the anchors, then the ties, by (second, caller, callee).

    An anchor's (second, caller) is unique, as a person has one slot a
    day, so the anchors sort on one key packed from the two. A person's
    ties all fall in one second, 7 s after the anchor of that day, so
    they share no anchor's key: they are sorted on their own, by that key
    and the callee, and each is placed after the anchors of lower key.
    ``ScenarioConfig.validate`` keeps the keys inside int64.
    """
    bounds = [(0, n_days * 86400), column_bounds(caller)]
    key, _ = pack_keys(second, caller, bounds=bounds)
    anchor_order = np.argsort(key)
    key = key[anchor_order]
    tie_key, _ = pack_keys(tie_second, tie_caller, bounds=bounds)
    tie_order = np.lexsort((tie_callee, tie_key))
    n, m = len(key), len(tie_key)
    at = np.searchsorted(key, tie_key[tie_order]) + np.arange(m)
    order = np.empty(n + m, np.intp)
    is_tie = np.zeros(n + m, bool)
    is_tie[at] = True
    order[at] = n + tie_order
    order[~is_tie] = anchor_order
    return order


def generate(config: ScenarioConfig, outdir) -> tuple[dict[str, Path], GroundTruth]:
    """Run the full generator and write the pipeline's input files.

    Writes cdr.csv, towers.csv, states.csv, projections.csv and a
    ground-truth summary; returns the paths and the in-memory truth.
    Deterministic given the config, byte for byte. A state code outside
    1..``ingest.N_STATES``, which ``ingest`` cannot read back, raises
    ConfigurationError before any file is written.
    """
    codes = sorted(s.code for s in config.states
                   if not 1 <= s.code <= N_STATES)
    if codes:
        raise ConfigurationError(
            f"state codes {codes} outside 1..{N_STATES}, which ingest reads")
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    truth = generate_tables(config)
    paths = {
        "cdr": outdir / "cdr.csv",
        "towers": outdir / "towers.csv",
        "states": outdir / "states.csv",
        "projections": outdir / "projections.csv",
        "truth": outdir / "ground_truth.json",
    }
    write_cdr(build_events(truth), paths["cdr"])
    write_table(
        paths["towers"],
        ("tower_id", "latitude", "longitude"),
        [(t.tower_id, t.latitude, t.longitude) for t in truth.towers],
    )
    write_table(
        paths["states"],
        ("state_code", "name", "market_share", "is_local"),
        [
            (s.code, s.name, s.market_share, 1 if s.is_local else 0)
            for s in sorted(config.states, key=lambda s: s.code)
        ],
    )
    proj = emit_projections(truth)
    write_table(
        paths["projections"],
        ("day", "projected_attendance"),
        [(d, proj[d]) for d in sorted(proj)],
    )
    paths["truth"].write_text(
        json.dumps(truth.summary(), indent=2) + "\n", encoding="utf-8"
    )
    return paths, truth


# ---------------------------------------------------------------------------
# Canned scenarios


def predicted_pair_rate(spec: StateSpec, config: ScenarioConfig) -> float:
    """Expected per-day SG/TP ratio for one state, via a dry run.

    Replays the deterministic roster and interior-day quota schedule
    without drawing placements. Anchor days activate whole cohorts; an
    interior day that activates t of a cohort's k members contains a
    given within-group pair with probability t(t-1)/(k(k-1)) once the
    member order is shuffled. The mean over days of expected same-group
    pairs divided by total active pairs is exactly the factor theta^2
    multiplies in the planted co-location level, so solving against it
    calibrates theta with no stationarity approximation.
    """
    _, _, vis = _quotas(spec, config)
    if vis < 2:
        return 0.0
    arrivals, stays, groups, _ = _roster(vis, spec, config)
    nd = config.n_days
    n_act = np.zeros(nd + 2)
    sg = np.zeros(nd + 2)

    order, starts, sizes = _cohorts(arrivals, stays)
    a, s = arrivals[order[starts]].tolist(), stays[order[starts]].tolist()
    k = sizes.tolist()
    # A travel group lies inside one cohort, so a cohort's within-group
    # pairs are its grouped members times (group_size - 1) / 2.
    wp = (np.add.reduceat(groups[order] >= 0, starts)
          * (config.group_size - 1) / 2.0).tolist()
    quotas = _interior_quotas(s, k, config.daily_use)
    for c, quota in enumerate(quotas):
        for anchor in (a[c], a[c] + s[c] - 1):
            n_act[anchor] += k[c]
            sg[anchor] += wp[c]
        for d, take in enumerate(quota, a[c] + 1):
            n_act[d] += take
            if k[c] >= 2:
                sg[d] += wp[c] * take * (take - 1) / (k[c] * (k[c] - 1))
    ratios = [
        sg[d] / (n_act[d] * (n_act[d] - 1) / 2.0)
        for d in range(1, nd + 1)
        if n_act[d] >= 2
    ]
    if not ratios:
        return 0.0
    return float(np.mean(ratios))


def theta_for_target(
    q_target: float, spec: StateSpec, config: ScenarioConfig
) -> float:
    """Theta that lands the expected all-days co-location at ``q_target``."""
    c = config.n_active_cells
    floor_p = 1.0 / c
    ratio = predicted_pair_rate(spec, config)
    if q_target <= floor_p or ratio <= 0:
        return 0.0
    theta2 = (q_target - floor_p) / (ratio * (1.0 - floor_p))
    theta = float(np.sqrt(theta2))
    if theta > config.theta_cap:
        raise ConfigurationError(
            f"target {q_target} needs theta {theta:.3f} beyond the cap "
            f"{config.theta_cap} for state {spec.code}"
        )
    return theta


def desk_scenario(seed: int = 1, *, scale: float = 1.0) -> ScenarioConfig:
    """~1e5 attendees, 1 host + 22 visiting states, every planting active.

    Visiting attendance is geometric across states (2 decades of spread)
    with a constant theta, so co-location decreases in representation
    automatically: smaller states have proportionally more same-group
    active pairs per pair of present members.
    """
    states = [StateSpec(1, "host", round(55000 * scale), 0.25,
                        is_local=True, theta=0.3)]
    top, bottom = 9000.0, 90.0
    ratio = (bottom / top) ** (1.0 / 21.0)
    shares = [0.18 + 0.02 * ((7 * i) % 13) for i in range(22)]
    for i in range(22):
        states.append(StateSpec(
            code=2 + i,
            name=f"state{2 + i:02d}",
            attendees=max(60, round(top * ratio ** i * scale)),
            market_share=round(shares[i], 2),
            theta=0.6,
        ))
    return ScenarioConfig(seed=seed, states=states, projection_noise=0.015)


BAND_TARGETS = (0.0172, 0.0163, 0.0155, 0.0148, 0.0141,
                0.0133, 0.0124, 0.0113, 0.0096, 0.0075)


def band_scenario(seed: int = 1) -> ScenarioConfig:
    """Plants per-state co-location levels across a target band.

    Ten visiting states with visible counts rising as targets fall;
    theta is solved per state against the dry-run pair rate, so the
    planted all-days co-location hits each target up to placement
    noise. Sizing follows the feasibility relation visible ~
    1/(target - floor), which keeps every solved theta near 0.85 and
    safely under the cap. No peak cohorts: the band is about levels,
    not day shape.
    """
    visibles = [13.5 / (t - 0.0025) for t in BAND_TARGETS]
    base = ScenarioConfig(
        seed=seed, peak_fraction=0.0, theta_peak_boost=1.0,
        projection_noise=0.0,
    )
    share = 0.5
    factor = share * base.prevalence * (1 - base.non_use)
    states = [StateSpec(1, "host", 1000, share, is_local=True, theta=0.0)]
    for i, (target, vis) in enumerate(zip(BAND_TARGETS, visibles)):
        plain = StateSpec(
            code=2 + i,
            name=f"state{2 + i:02d}",
            attendees=round(vis / factor),
            market_share=share,
            theta=0.0,
        )
        states.append(replace(plain, theta=theta_for_target(target, plain, base)))
    return replace(base, states=states)


def representation_range_scenario(seed: int = 1) -> ScenarioConfig:
    """~2e6 attendees; visiting shares span 0.018% to 7.45% of the total.

    Sized so the smallest state still has ~46 visible customers, keeping
    quota rounding below a 10% relative error on every recovered share.
    """
    total = 2_000_000
    w_low, w_high = 1.8e-4, 7.45e-2
    n_visit = 22
    ratio = (w_high / w_low) ** (1.0 / (n_visit - 1))
    w = [w_low * ratio ** i for i in range(n_visit)]
    host_w = 1.0 - sum(w)
    states = [StateSpec(1, "host", round(host_w * total), 0.25,
                        is_local=True, theta=0.0)]
    for i, wi in enumerate(w):
        states.append(StateSpec(
            code=2 + i,
            name=f"state{2 + i:02d}",
            attendees=round(wi * total),
            market_share=0.2 + 0.02 * (i % 11),
            theta=0.0,
        ))
    return ScenarioConfig(seed=seed, states=states)


def named_scenario(name: str, seed: int = 1) -> ScenarioConfig:
    factories = {
        "desk": lambda: desk_scenario(seed),
        "desk-small": lambda: desk_scenario(seed, scale=0.12),
        "band": lambda: band_scenario(seed),
        "representation-range": lambda: representation_range_scenario(seed),
    }
    try:
        return factories[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown scenario {name!r}; choose from {sorted(factories)}"
        ) from None
