"""Parse and validate CDR, tower, market-share, and projection files.

The data model is shared by every downstream module:

- ``CdrEvent``: one communication record (call or text).
- ``TowerSite``: tower coordinates plus an activity flag.
- ``StateProfile``: per-state market share and the local-state marker.
- ``DailyObservation``: one (person, day) record carrying the first tower
  used that day; the atom for attendance and co-location statistics.

Each event carries a single serving tower, which locates the operator's
customer side of the communication (the caller when the caller is a
customer, otherwise the callee). Daily observations are attributed to
that located party. Events where neither party is a customer carry no
usable location or state and are rejected at parse time.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigurationError, IngestError, SchemaError

UNKNOWN_STATE = 0
N_STATES = 23

#: Canonical CDR column order; also the default schema (field -> column name).
CDR_COLUMNS = (
    "timestamp",
    "caller_id",
    "callee_id",
    "kind",
    "duration",
    "tower_id",
    "caller_state",
    "callee_state",
    "caller_is_customer",
    "callee_is_customer",
)


@dataclass(frozen=True, slots=True)
class CdrEvent:
    """A single communication event served by a venue tower."""

    timestamp: int          # seconds since epoch, UTC
    caller_id: int
    callee_id: int
    event_kind: str         # "call" or "text"
    duration: int           # seconds, 0 for texts
    tower_id: int
    caller_state: int       # 1..23, 0 = unknown
    callee_state: int
    caller_is_customer: bool
    callee_is_customer: bool


@dataclass(frozen=True, slots=True)
class TowerSite:
    tower_id: int
    latitude: float
    longitude: float
    active: bool = True


@dataclass(frozen=True, slots=True)
class StateProfile:
    state_code: int
    name: str
    market_share: float     # fraction in (0, 1]
    is_local: bool = False


@dataclass(frozen=True, slots=True)
class DailyObservation:
    person_id: int
    state_code: int
    day: int                # 1-based index from study start
    first_tower: int


@dataclass(frozen=True)
class StudyWindow:
    """The analysis window, defaulting to Jan 1 - Mar 31, 2013 (UTC)."""

    start: int = 1356998400     # 2013-01-01T00:00:00Z
    days: int = 90

    @property
    def end(self) -> int:
        return self.start + self.days * 86400

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end

    def day_of(self, timestamp: int) -> int:
        """1-based day index of a timestamp inside the window."""
        return (timestamp - self.start) // 86400 + 1


DEFAULT_WINDOW = StudyWindow()


@dataclass
class IngestReport:
    """Row accounting for one parse pass; rejects are counted by reason."""

    rows: int = 0
    accepted: int = 0
    rejects: Counter = field(default_factory=Counter)

    @property
    def rejected(self) -> int:
        return sum(self.rejects.values())


def located_party(event: CdrEvent) -> tuple[int, int] | None:
    """(person_id, state) of the party the serving tower locates.

    The caller when the caller is a customer, else the callee; None if
    neither party is a customer.
    """
    if event.caller_is_customer:
        return event.caller_id, event.caller_state
    if event.callee_is_customer:
        return event.callee_id, event.callee_state
    return None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "t", "yes"):
        return True
    if t in ("0", "false", "f", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_state(text: str) -> int:
    t = text.strip()
    if t in ("", "?", "na", "NA", "unknown"):
        return UNKNOWN_STATE
    code = int(t)
    if not 0 <= code <= N_STATES:
        raise ValueError(f"state code out of range: {code}")
    return code


def _open_text(source) -> tuple[IO[str], bool]:
    """Return (text stream, needs_close) for a path, byte stream, or text stream."""
    if isinstance(source, (str, Path)):
        return open(source, "r", newline="", encoding="utf-8-sig"), True
    if isinstance(source, (bytes, bytearray)):
        return io.StringIO(source.decode("utf-8")), False
    if hasattr(source, "read"):
        probe = source.read(0)
        if isinstance(probe, bytes):
            return io.TextIOWrapper(source, encoding="utf-8", newline=""), False
        return source, False
    raise IngestError(f"unsupported CDR source: {type(source)!r}")


def parse_cdr(
    source,
    schema: Mapping[str, str] | None = None,
    *,
    delimiter: str = ",",
    window: StudyWindow = DEFAULT_WINDOW,
    known_towers: set[int] | None = None,
    max_bad_fraction: float = 0.01,
    report: IngestReport | None = None,
) -> Iterator[CdrEvent]:
    """Stream events out of a delimiter-separated CDR file.

    Parameters
    ----------
    source: path, byte stream, text stream, or bytes
        Delimiter-separated text with a header row.
    schema: mapping field name -> column name
        Defaults to the canonical column names. Extra file columns are
        ignored.
    window: StudyWindow
        Events outside the window are rejected.
    known_towers: set of tower ids or None
        When given, events referencing other towers are rejected; silent
        acceptance would corrupt the spatial statistics.
    max_bad_fraction: float
        Tolerated fraction of rows with unparseable fields. Exceeding it
        raises IngestError once the stream is exhausted (checked against
        the running total every 10000 rows as well, so a corrupt 400M-row
        file fails early instead of at the end).
    report: IngestReport or None
        Filled in as a side channel: total rows, accepted rows, and a
        per-reason reject counter. Nothing is silently dropped.

    Yields events lazily in file order; the input is never materialized,
    so arbitrarily long streams run in constant memory.
    """
    if report is None:
        report = IngestReport()
    schema = dict(schema) if schema else {f: f for f in CDR_COLUMNS}
    schema.setdefault("kind", schema.pop("event_kind", "kind"))
    missing = [f for f in CDR_COLUMNS if f not in schema]
    if missing:
        raise SchemaError(f"schema missing fields: {missing}")

    stream, needs_close = _open_text(source)
    try:
        reader = csv.reader(stream, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty CDR source: no header row") from None
        index: dict[str, int] = {}
        positions = {name.strip(): i for i, name in enumerate(header)}
        absent = [schema[f] for f in CDR_COLUMNS if schema[f] not in positions]
        if absent:
            raise SchemaError(f"CDR header missing required columns: {absent}")
        for f in CDR_COLUMNS:
            index[f] = positions[schema[f]]

        bad_parse = 0
        for row in reader:
            report.rows += 1
            if report.rows % 10000 == 0 and bad_parse > max_bad_fraction * report.rows:
                raise IngestError(
                    f"{bad_parse}/{report.rows} rows unparseable "
                    f"(tolerance {max_bad_fraction:g})"
                )
            try:
                ts = int(row[index["timestamp"]])
                caller = int(row[index["caller_id"]])
                callee = int(row[index["callee_id"]])
                kind = row[index["kind"]].strip().lower()
                duration = int(row[index["duration"]])
                tower = int(row[index["tower_id"]])
                caller_state = _parse_state(row[index["caller_state"]])
                callee_state = _parse_state(row[index["callee_state"]])
                caller_cust = _parse_bool(row[index["caller_is_customer"]])
                callee_cust = _parse_bool(row[index["callee_is_customer"]])
            except (ValueError, IndexError):
                bad_parse += 1
                report.rejects["unparseable"] += 1
                continue

            if kind not in ("call", "text"):
                bad_parse += 1
                report.rejects["unparseable"] += 1
                continue
            if duration < 0:
                report.rejects["negative_duration"] += 1
                continue
            if kind == "text" and duration != 0:
                report.rejects["text_with_duration"] += 1
                continue
            if not window.contains(ts):
                report.rejects["outside_window"] += 1
                continue
            if known_towers is not None and tower not in known_towers:
                report.rejects["unknown_tower"] += 1
                continue
            if not (caller_cust or callee_cust):
                report.rejects["no_customer_party"] += 1
                continue
            if (caller_cust and caller_state == UNKNOWN_STATE) or (
                callee_cust and callee_state == UNKNOWN_STATE
            ):
                report.rejects["customer_without_state"] += 1
                continue

            report.accepted += 1
            yield CdrEvent(
                timestamp=ts,
                caller_id=caller,
                callee_id=callee,
                event_kind=kind,
                duration=duration,
                tower_id=tower,
                caller_state=caller_state,
                callee_state=callee_state,
                caller_is_customer=caller_cust,
                callee_is_customer=callee_cust,
            )

        if report.rows and bad_parse / report.rows > max_bad_fraction:
            raise IngestError(
                f"{bad_parse}/{report.rows} rows unparseable "
                f"(tolerance {max_bad_fraction:g})"
            )
    finally:
        if needs_close:
            stream.close()


def dedupe_daily(
    events: Iterable[CdrEvent],
    *,
    window: StudyWindow = DEFAULT_WINDOW,
) -> list[DailyObservation]:
    """Collapse events to at most one observation per (person, day).

    The observation keeps the tower of the person's earliest event that
    day; equal timestamps are broken by the smallest tower_id, so the
    result does not depend on input order. Persons are the located
    (customer) party of each event. Output is sorted by (person, day).
    """
    best: dict[tuple[int, int], tuple[int, int, int]] = {}
    for ev in events:
        party = located_party(ev)
        if party is None:
            continue
        pid, state = party
        day = window.day_of(ev.timestamp)
        key = (pid, day)
        cand = (ev.timestamp, ev.tower_id, state)
        prev = best.get(key)
        if prev is None or cand[:2] < prev[:2]:
            best[key] = cand
    return [
        DailyObservation(person_id=pid, state_code=state, day=day, first_tower=tower)
        for (pid, day), (_, tower, state) in sorted(best.items())
    ]


def count_unique_handsets(
    observations: Iterable[DailyObservation],
) -> dict[tuple[int, int], int]:
    """Distinct-person count per (state, day) from deduplicated observations."""
    counts: Counter = Counter()
    for obs in observations:
        counts[(obs.state_code, obs.day)] += 1
    return dict(counts)


# ---------------------------------------------------------------------------
# Auxiliary file loaders


def _read_table(
    path, delimiter: str, what: str, columns: Mapping[str, Callable]
) -> list[tuple]:
    """Rows of an auxiliary file, each cell converted by its column's type.

    A missing column, or a cell its type rejects, raises SchemaError; the
    latter names the file and line. A UTF-8 byte-order mark is skipped.
    """
    rows = []
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh, delimiter=delimiter)
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise SchemaError(f"{what} file must have columns {sorted(columns)}")
        for row in reader:
            try:
                rows.append(tuple(conv(row[c]) for c, conv in columns.items()))
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"{what} file {path}, line {reader.line_num}: {exc}"
                ) from None
    return rows


def load_towers(path, *, delimiter: str = ",") -> list[TowerSite]:
    """Read the tower file (tower_id, latitude, longitude)."""
    towers: list[TowerSite] = []
    seen: set[int] = set()
    for tid, lat, lon in _read_table(
        path, delimiter, "tower",
        {"tower_id": int, "latitude": float, "longitude": float},
    ):
        if tid in seen:
            raise ConfigurationError(f"duplicate tower_id {tid}")
        seen.add(tid)
        towers.append(TowerSite(tid, lat, lon))
    return towers


def load_state_profiles(path, *, delimiter: str = ",") -> dict[int, StateProfile]:
    """Read the market-share file (state_code, name, market_share, is_local)."""
    profiles: dict[int, StateProfile] = {}
    for code, name, share, is_local in _read_table(
        path, delimiter, "market-share",
        {"state_code": int, "name": str, "market_share": float,
         "is_local": _parse_bool},
    ):
        if not 0 < share <= 1:
            raise ConfigurationError(
                f"market share for state {code} outside (0, 1]: {share}"
            )
        if code in profiles:
            raise ConfigurationError(f"duplicate state_code {code}")
        profiles[code] = StateProfile(
            state_code=code, name=name, market_share=share, is_local=is_local,
        )
    locals_ = [p for p in profiles.values() if p.is_local]
    if len(locals_) != 1:
        raise ConfigurationError(
            f"exactly one state must be local, found {len(locals_)}"
        )
    return profiles


def load_projections(path, *, delimiter: str = ",") -> dict[int, float]:
    """Read the external projections file (day, projected_attendance)."""
    return dict(_read_table(
        path, delimiter, "projections",
        {"day": int, "projected_attendance": float},
    ))


def local_state(profiles: Mapping[int, StateProfile]) -> int:
    """State code flagged is_local in the profiles."""
    for p in profiles.values():
        if p.is_local:
            return p.state_code
    raise ConfigurationError("no local state in profiles")


def towers_with_traffic(events: Iterable[CdrEvent]) -> set[int]:
    return {ev.tower_id for ev in events}


def mark_tower_activity(
    towers: Sequence[TowerSite], active_ids: set[int]
) -> list[TowerSite]:
    """Return towers with the active flag set from observed traffic.

    A tower with zero events over the full window is considered inactive;
    its region is absorbed by neighboring active towers downstream.
    """
    return [
        TowerSite(t.tower_id, t.latitude, t.longitude, t.tower_id in active_ids)
        for t in towers
    ]


# ---------------------------------------------------------------------------
# Canonical emission (round-trip stable)


def format_event(event: CdrEvent) -> list[str]:
    return [
        str(event.timestamp),
        str(event.caller_id),
        str(event.callee_id),
        event.event_kind,
        str(event.duration),
        str(event.tower_id),
        str(event.caller_state),
        str(event.callee_state),
        "1" if event.caller_is_customer else "0",
        "1" if event.callee_is_customer else "0",
    ]


def write_cdr(events: Iterable[CdrEvent], path, *, delimiter: str = ",") -> int:
    """Write events in canonical form; re-parsing yields the same sequence."""
    n = 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(CDR_COLUMNS)
        for ev in events:
            writer.writerow(format_event(ev))
            n += 1
    return n


def write_table(path, header: Sequence[str], rows: Iterable[Sequence], *,
                delimiter: str = ",") -> None:
    """Write a delimiter-separated table; floats use repr for byte stability."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                format(v, ".12g") if isinstance(v, float) else v for v in row
            ])
