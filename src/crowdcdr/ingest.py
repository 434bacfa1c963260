"""Parse and validate CDR, tower, market-share, and projection files.

The data model is shared by every downstream module:

- ``CdrEvent``: one communication record (call or text).
- ``CdrColumns``: accepted events as one numpy array per field; what
  ``read_cdr_columns`` returns and the analysis stages consume.
- ``TowerSite``: tower coordinates plus an activity flag.
- ``StateProfile``: per-state market share and the local-state marker.
- ``ObservationColumns``: one row per (person, day) carrying the first
  tower used that day, as one array per field; the atom for attendance
  and co-location statistics.

Each event carries a single serving tower, which locates the operator's
customer side of the communication (the caller when the caller is a
customer, otherwise the callee). Daily observations are attributed to
that located party. Events where neither party is a customer carry no
usable location or state and are rejected at parse time.
"""

from __future__ import annotations

import csv
import io
import warnings
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import IO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, IngestError, SchemaError

UNKNOWN_STATE = 0
N_STATES = 23
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1

#: Lines per chunk of ``read_cdr_columns``.
CHUNK_LINES = 100_000

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


@contextmanager
def _reading(name: str, error: type[Exception]) -> Iterator[None]:
    """Raise ``error`` naming ``name`` for text that is not UTF-8 or not CSV."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise error(f"{name} is not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise error(f"{name} is not readable CSV: {exc}") from None


@contextmanager
def _text_stream(source) -> Iterator[IO[str]]:
    """A text stream over a path, byte stream, text stream, or bytes.

    A path is opened here and closed on exit. A read that fails on the
    encoding or the CSV syntax raises IngestError naming the source.
    """
    name = str(source) if isinstance(source, (str, Path)) else "CDR source"
    with _reading(name, IngestError):
        if isinstance(source, (str, Path)):
            with open(source, "r", newline="", encoding="utf-8-sig") as fh:
                yield fh
        elif isinstance(source, (bytes, bytearray)):
            yield io.StringIO(source.decode("utf-8"))
        elif hasattr(source, "read"):
            if isinstance(source.read(0), bytes):
                source = io.TextIOWrapper(source, encoding="utf-8", newline="")
            yield source
        else:
            raise IngestError(f"unsupported CDR source: {type(source)!r}")


def _header_index(reader, schema: Mapping[str, str] | None) -> dict[str, int]:
    """Field name -> column position, from the header row of a CDR source."""
    schema = dict(schema) if schema else {f: f for f in CDR_COLUMNS}
    schema.setdefault("kind", schema.pop("event_kind", "kind"))
    missing = [f for f in CDR_COLUMNS if f not in schema]
    if missing:
        raise SchemaError(f"schema missing fields: {missing}")
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CDR source: no header row") from None
    positions = {name.strip(): i for i, name in enumerate(header)}
    absent = [schema[f] for f in CDR_COLUMNS if schema[f] not in positions]
    if absent:
        raise SchemaError(f"CDR header missing required columns: {absent}")
    return {f: positions[schema[f]] for f in CDR_COLUMNS}


def _parse_int(text: str) -> int:
    """int(text), limited to the int64 range the column model holds."""
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"integer outside int64: {text!r}")
    return value


def _validate_row(
    row: Sequence[str],
    index: Mapping[str, int],
    window: StudyWindow,
    known_towers: set[int] | None,
) -> CdrEvent | str:
    """The event a CDR row holds, or the reason the row is rejected."""
    try:
        ts = _parse_int(row[index["timestamp"]])
        caller = _parse_int(row[index["caller_id"]])
        callee = _parse_int(row[index["callee_id"]])
        kind = row[index["kind"]].strip().lower()
        duration = _parse_int(row[index["duration"]])
        tower = _parse_int(row[index["tower_id"]])
        caller_state = _parse_state(row[index["caller_state"]])
        callee_state = _parse_state(row[index["callee_state"]])
        caller_cust = _parse_bool(row[index["caller_is_customer"]])
        callee_cust = _parse_bool(row[index["callee_is_customer"]])
    except (ValueError, IndexError):
        return "unparseable"

    if kind not in ("call", "text"):
        return "unparseable"
    if duration < 0:
        return "negative_duration"
    if kind == "text" and duration != 0:
        return "text_with_duration"
    if not window.contains(ts):
        return "outside_window"
    if known_towers is not None and tower not in known_towers:
        return "unknown_tower"
    if not (caller_cust or callee_cust):
        return "no_customer_party"
    if (caller_cust and caller_state == UNKNOWN_STATE) or (
        callee_cust and callee_state == UNKNOWN_STATE
    ):
        return "customer_without_state"
    return CdrEvent(ts, caller, callee, kind, duration, tower,
                    caller_state, callee_state, caller_cust, callee_cust)


#: Reject reasons of a parsed row, in the order ``_validate_row`` tests them.
_ROW_REJECTS = ("negative_duration", "text_with_duration", "outside_window",
                "unknown_tower", "no_customer_party", "customer_without_state")


def _tolerance_error(
    bad_parse: int, rows: int, max_bad_fraction: float
) -> IngestError:
    return IngestError(
        f"{bad_parse}/{rows} rows unparseable (tolerance {max_bad_fraction:g})"
    )


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
        Tolerated fraction of rows with unparseable fields (including
        integers outside int64). Exceeding it raises IngestError once the
        stream is exhausted (checked against the running total every 10000
        rows as well, so a corrupt 400M-row file fails early instead of at
        the end).
    report: IngestReport or None
        Filled in as a side channel: total rows, accepted rows, and a
        per-reason reject counter. Nothing is silently dropped.

    Yields events lazily in file order; the input is never materialized,
    so a caller that consumes the stream as it goes runs in constant
    memory. That promise covers this streaming API only: ``crowdcdr
    report`` reads the file with ``read_cdr_columns`` and holds every
    accepted event in memory as columns.
    """
    if report is None:
        report = IngestReport()
    with _text_stream(source) as stream:
        reader = csv.reader(stream, delimiter=delimiter)
        index = _header_index(reader, schema)
        bad_parse = 0
        for row in reader:
            report.rows += 1
            if report.rows % 10000 == 0 and bad_parse > max_bad_fraction * report.rows:
                raise _tolerance_error(bad_parse, report.rows, max_bad_fraction)
            result = _validate_row(row, index, window, known_towers)
            if isinstance(result, str):
                if result == "unparseable":
                    bad_parse += 1
                report.rejects[result] += 1
                continue
            report.accepted += 1
            yield result
        if report.rows and bad_parse / report.rows > max_bad_fraction:
            raise _tolerance_error(bad_parse, report.rows, max_bad_fraction)


# ---------------------------------------------------------------------------
# Columnar ingest


@dataclass(frozen=True, eq=False)
class CdrColumns:
    """Events as one array per field, in input order.

    Integer fields are int64; ``is_text`` and the customer flags are bool.
    """

    timestamp: np.ndarray
    caller_id: np.ndarray
    callee_id: np.ndarray
    is_text: np.ndarray
    duration: np.ndarray
    tower_id: np.ndarray
    caller_state: np.ndarray
    callee_state: np.ndarray
    caller_is_customer: np.ndarray
    callee_is_customer: np.ndarray

    def __len__(self) -> int:
        return len(self.timestamp)

    @classmethod
    def from_events(cls, events: Iterable[CdrEvent]) -> CdrColumns:
        table = np.array([
            (e.timestamp, e.caller_id, e.callee_id, e.event_kind == "text",
             e.duration, e.tower_id, e.caller_state, e.callee_state,
             e.caller_is_customer, e.callee_is_customer)
            for e in events
        ], dtype=np.int64).reshape(-1, len(CDR_COLUMNS)).T.copy()
        return cls(*(
            col.astype(bool) if f.name in _BOOL_FIELDS else col
            for f, col in zip(fields(cls), table)
        ))

    @classmethod
    def concat(cls, parts: Sequence[CdrColumns]) -> CdrColumns:
        if not parts:
            return cls.from_events(())
        return cls(*(
            np.concatenate([getattr(p, f.name) for p in parts])
            for f in fields(cls)
        ))

    def located(self) -> tuple[np.ndarray, np.ndarray]:
        """Person id and state of each event's located party.

        The caller when a customer, else the callee.
        """
        caller = self.caller_is_customer
        return (np.where(caller, self.caller_id, self.callee_id),
                np.where(caller, self.caller_state, self.callee_state))


_BOOL_FIELDS = ("is_text", "caller_is_customer", "callee_is_customer")

#: One parsed chunk: the numeric fields as int64; ``kind`` and the
#: customer flags as text, so that only their canonical spellings pass
#: (as integers, "01" or "+1" would read as a valid flag).
_CHUNK_DTYPE = np.dtype([
    (f, "U5" if f == "kind" else "U2" if f.endswith("_is_customer") else np.int64)
    for f in CDR_COLUMNS
])

#: Bytes a chunk may hold for the fast path: printable ASCII without the
#: quote character, tab and line ends. Outside that set numpy's and
#: Python's integer parsing can disagree, a NUL ends a numpy string
#: early, and a quote changes what the csv module reads as a row.
_FAST_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\r\n"


def _load_chunk(lines: list[str], usecols: list[int]) -> np.ndarray | None:
    """The lines as one structured array, or None unless all are canonical.

    Canonical: one row per line, every integer within int64, ``kind``
    exactly ``call`` or ``text``, customer flags exactly 0 or 1 and
    states in 0..23. Such a chunk reads the same as the row validator
    reads it.
    """
    text = "".join(lines)
    if not text.isascii() or text.encode("ascii").translate(None, _FAST_BYTES):
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            # Any warning means a cell numpy had to guess at: an all-blank
            # chunk, or (numpy 1.x) an integer read through a float, "1.0".
            warnings.simplefilter("error")
            table = np.loadtxt(lines, dtype=_CHUNK_DTYPE, delimiter=",",
                               comments=None, usecols=usecols, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(table) != len(lines):
        return None
    kind = table["kind"]
    if not ((kind == "call") | (kind == "text")).all():
        return None
    for f in ("caller_is_customer", "callee_is_customer"):
        if not ((table[f] == "0") | (table[f] == "1")).all():
            return None
    for f in ("caller_state", "callee_state"):
        if not ((table[f] >= 0) & (table[f] <= N_STATES)).all():
            return None
    return table


def _screen_chunk(
    table: np.ndarray,
    window: StudyWindow,
    known_towers: np.ndarray | None,
    report: IngestReport,
) -> CdrColumns:
    """The accepted rows of a canonical chunk; the rest counted by reason."""
    ts, duration, tower = table["timestamp"], table["duration"], table["tower_id"]
    caller_state, callee_state = table["caller_state"], table["callee_state"]
    is_text = table["kind"] == "text"
    caller_cust = table["caller_is_customer"] == "1"
    callee_cust = table["callee_is_customer"] == "1"
    unknown = (np.zeros(len(table), bool) if known_towers is None
               else ~np.isin(tower, known_towers))
    codes = np.select([
        duration < 0,
        is_text & (duration != 0),
        (ts < window.start) | (ts >= window.end),
        unknown,
        ~(caller_cust | callee_cust),
        (caller_cust & (caller_state == UNKNOWN_STATE))
        | (callee_cust & (callee_state == UNKNOWN_STATE)),
    ], np.arange(1, len(_ROW_REJECTS) + 1), 0)
    tally = np.bincount(codes, minlength=len(_ROW_REJECTS) + 1).tolist()
    report.rows += len(table)
    report.accepted += tally[0]
    for reason, n in zip(_ROW_REJECTS, tally[1:]):
        if n:
            report.rejects[reason] += n
    keep = codes == 0
    return CdrColumns(
        ts[keep], table["caller_id"][keep], table["callee_id"][keep],
        is_text[keep], duration[keep], tower[keep], caller_state[keep],
        callee_state[keep], caller_cust[keep], callee_cust[keep],
    )


def read_cdr_columns(
    source,
    *,
    window: StudyWindow = DEFAULT_WINDOW,
    known_towers: set[int] | None = None,
    max_bad_fraction: float = 0.01,
    report: IngestReport | None = None,
) -> CdrColumns:
    """Every accepted event of a comma-separated CDR file, as columns.

    ``source`` is a path or bytes; the file has a header row with the
    canonical column names (extra columns are ignored). It is read in
    chunks of ``CHUNK_LINES`` lines, each parsed by one ``numpy.loadtxt``
    call and screened with array masks. At the first chunk that is not in
    canonical form (see ``_load_chunk``) the report is cleared and the
    whole file is read again by ``parse_cdr``. Either way the accepted
    events, the report and the tolerance IngestError are those
    ``parse_cdr`` gives for the same file and arguments; canonical rows
    always parse, so the tolerance can only fail on the second read.
    """
    if hasattr(source, "read"):
        raise IngestError(f"unsupported CDR source: {type(source)!r}")
    if report is None:
        report = IngestReport()
    # An id outside int64 matches no parsed row, so it can be left out.
    known = (None if known_towers is None else np.fromiter(
        (t for t in known_towers if INT64_MIN <= t <= INT64_MAX), np.int64))
    with _text_stream(source) as stream:
        index = _header_index(csv.reader(stream), None)
        usecols = [index[f] for f in CDR_COLUMNS]
        parts = []
        while lines := list(islice(stream, CHUNK_LINES)):
            table = _load_chunk(lines, usecols)
            if table is None:
                break
            parts.append(_screen_chunk(table, window, known, report))
        else:
            return CdrColumns.concat(parts)
    report.rows = report.accepted = 0
    report.rejects.clear()
    return CdrColumns.from_events(parse_cdr(
        source, window=window, known_towers=known_towers,
        max_bad_fraction=max_bad_fraction, report=report))


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal key tuples."""
    starts = np.ones(len(keys[0]), bool)
    starts[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return starts


@dataclass(frozen=True, eq=False)
class ObservationColumns:
    """Daily observations as one int64 array per field, rows in any order."""

    person_id: np.ndarray
    state_code: np.ndarray
    day: np.ndarray
    first_tower: np.ndarray

    def __len__(self) -> int:
        return len(self.person_id)

    def unique_handsets(self) -> dict[tuple[int, int], int]:
        """Distinct-person count per (state, day), in (state, day) order."""
        order = np.lexsort((self.day, self.state_code))
        state, day = self.state_code[order], self.day[order]
        starts = np.flatnonzero(run_starts(state, day))
        sizes = np.diff(starts, append=len(order))
        return dict(zip(zip(state[starts].tolist(), day[starts].tolist()),
                        sizes.tolist()))


def daily_observations(
    columns: CdrColumns, window: StudyWindow = DEFAULT_WINDOW
) -> ObservationColumns:
    """One observation per (person, day) of the located party.

    The observation keeps the tower of the person's earliest event that
    day; equal timestamps are broken by the smallest tower_id, so the
    result does not depend on input order. One stable sort on (person, timestamp, tower) puts each (person,
    day)'s earliest event, ties to the smallest tower and then to input
    order, first in its group; the day grows with the timestamp, so it
    needs no sort key of its own.
    """
    person, state = columns.located()
    day = (columns.timestamp - window.start) // 86400 + 1
    order = np.lexsort((columns.tower_id, columns.timestamp, person))
    order = order[(columns.caller_is_customer | columns.callee_is_customer)[order]]
    rows = order[run_starts(person[order], day[order])]
    return ObservationColumns(person[rows], state[rows], day[rows],
                              columns.tower_id[rows])


# ---------------------------------------------------------------------------
# Auxiliary file loaders


def _read_table(
    path, delimiter: str, what: str, columns: Mapping[str, Callable]
) -> list[tuple]:
    """Rows of an auxiliary file, each cell converted by its column's type.

    A missing column, a cell its type rejects (named by file and line),
    or text that is not UTF-8 or not CSV raises SchemaError. A UTF-8
    byte-order mark is skipped.
    """
    rows = []
    with (_reading(f"{what} file {path}", SchemaError),
          open(path, "r", newline="", encoding="utf-8-sig") as fh):
        # A short row's missing cells read as "", which the types reject.
        reader = csv.DictReader(fh, delimiter=delimiter, restval="")
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


def write_cdr(columns: CdrColumns, path, *, delimiter: str = ",") -> None:
    """Write events in canonical form; re-parsing yields the same events."""
    write_columns(path, CDR_COLUMNS, [
        columns.timestamp, columns.caller_id, columns.callee_id,
        np.where(columns.is_text, "text", "call"), columns.duration,
        columns.tower_id, columns.caller_state, columns.callee_state,
        columns.caller_is_customer.astype(np.int64),
        columns.callee_is_customer.astype(np.int64),
    ], delimiter=delimiter)


def write_columns(path, header: Sequence[str], columns: Sequence[np.ndarray], *,
                  delimiter: str = ",") -> None:
    """``write_table`` for integer and string columns, with the same bytes.

    Each row is one %-format, so a text cell that ``csv`` would quote (one
    holding the delimiter, a quote or a line break) is refused instead.
    """
    texts = [*header, *(v for c in columns if c.dtype.kind not in "biu"
                        for v in np.unique(c).tolist())]
    for text in texts:
        if any(ch in text for ch in (delimiter, '"', "\n", "\r")):
            raise ValueError(f"cell {text!r} would need CSV quoting")
    row = delimiter.join(["%s"] * len(columns)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(delimiter.join(header) + "\n")
        fh.writelines(row % cells for cells in zip(*(c.tolist() for c in columns)))


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
