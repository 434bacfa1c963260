"""Parse and validate CDR, tower, market-share, and projection files.

The data model is shared by every downstream module:

- ``CdrColumns``: events (calls and texts) as one numpy array per
  field: what the generator makes and ``write_cdr`` writes.
  ``read_cdr`` reduces each parsed block of a CDR file at once
  (``_Reduction``) and returns only what the analysis stages read: the
  daily observations, the towers with traffic and
  ``social.ContactTable``. No column as long as the file is ever made.
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

import codecs
import csv
import io
import itertools
import math
import os
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigurationError, IngestError, SchemaError
from .social import ContactTable
from .worker import forked

UNKNOWN_STATE = 0
N_STATES = 23
INT64_MIN, INT64_MAX = -(2 ** 63), 2 ** 63 - 1

#: Bytes per block of ``read_cdr``.
BLOCK_BYTES = 1 << 20
#: A CDR file of at least this many bytes is read by two processes (see
#: ``read_cdr``), and ``report`` writes its ingest artifacts in a
#: worker while the analysis stages run (``cli.run_command``).
FORK_BYTES = 4 << 20
#: Rows per batch of the row reader; its tolerance check runs at every
#: row number divisible by this.
ROW_BATCH = 10_000
#: The largest share of the rows read that may be unparseable.
MAX_BAD_FRACTION = 0.01
#: Rows per block of ``write_columns``.
WRITE_BLOCK_ROWS = 1 << 14

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


def is_int(value) -> bool:
    """True for a JSON integer: an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


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


DEFAULT_WINDOW = StudyWindow()


@dataclass
class IngestReport:
    """Row accounting for one parse pass; rejects are counted by reason.

    ``row_reader_from`` is the 1-based data row at which ``_read_rows``
    took over, or None when every block was canonical. ``split_row`` is
    the 1-based data row from which a worker's read was used, or None;
    it tells how the file was read, not what it holds, so reports that
    differ only in it are equal.
    """

    rows: int = 0
    accepted: int = 0
    rejects: Counter = field(default_factory=Counter)
    row_reader_from: int | None = None
    split_row: int | None = field(default=None, compare=False)


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
def _text_stream(path: str | Path, offset: int) -> Iterator[IO[str]]:
    """A text stream over the file at ``path``, from byte ``offset`` on.

    Read from its start, it skips a byte-order mark. A read that fails on
    the encoding or the CSV syntax raises IngestError naming the file.
    """
    with (_reading(str(path), IngestError), open(path, "rb") as fh):
        fh.seek(offset)
        yield io.TextIOWrapper(fh, "utf-8-sig" if offset == 0 else "utf-8",
                               newline="")


def _header_index(reader) -> list[int]:
    """Column position of each ``CDR_COLUMNS`` field, from the header row."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CDR source: no header row") from None
    positions = {name.strip(): i for i, name in enumerate(header)}
    absent = [f for f in CDR_COLUMNS if f not in positions]
    if absent:
        raise SchemaError(f"CDR header missing required columns: {absent}")
    return [positions[f] for f in CDR_COLUMNS]


def _parse_int(text: str) -> int:
    """int(text), limited to the int64 range the column model holds."""
    value = int(text)
    if not INT64_MIN <= value <= INT64_MAX:
        raise ValueError(f"integer outside int64: {text!r}")
    return value


def _parse_kind(text: str) -> bytes:
    kind = text.strip().lower()
    if kind not in ("call", "text"):
        raise ValueError(f"not an event kind: {text!r}")
    return kind.encode()


def _parse_flag(text: str) -> bytes:
    return b"1" if _parse_bool(text) else b"0"


#: The parser of each ``CDR_COLUMNS`` cell in the row reader; each gives
#: the value ``_BLOCK_DTYPE`` holds for that field.
_CELL_PARSERS = (_parse_int, _parse_int, _parse_int, _parse_kind, _parse_int,
                 _parse_int, _parse_state, _parse_state, _parse_flag, _parse_flag)


#: Reject reasons of a parsed row, in the order ``_reduce_block`` tests them.
_ROW_REJECTS = ("negative_duration", "text_with_duration", "outside_window",
                "unknown_tower", "no_customer_party", "customer_without_state")


def _tolerance_error(bad_parse: int, rows: int) -> IngestError:
    return IngestError(
        f"{bad_parse}/{rows} rows unparseable (tolerance {MAX_BAD_FRACTION:g})"
    )


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
    def concat(cls, parts: Sequence[CdrColumns]) -> CdrColumns:
        """The parts end to end."""
        return cls(*(np.concatenate([getattr(p, f.name) for p in parts])
                     for f in fields(cls)))


#: One parsed block or batch of rows: the numeric fields as int64;
#: ``kind`` and the customer flags as ASCII bytes, so that only their
#: canonical spellings pass a block (as integers, "01" or "+1" would read
#: as a valid flag).
_BLOCK_DTYPE = np.dtype([
    (f, "S5" if f == "kind" else "S2" if f.endswith("_is_customer") else np.int64)
    for f in CDR_COLUMNS
])

#: Bytes a block may hold for the fast path: printable ASCII without the
#: quote character, tab and line ends. Outside that set numpy's and
#: Python's integer parsing can disagree, a NUL ends a numpy string
#: early, and a quote changes what the csv module reads as a row.
_FAST_BYTES = bytes(range(0x20, 0x7F)).replace(b'"', b"") + b"\t\r\n"


def _line_blocks(
    fh: IO[bytes], size: int, start: int = 0, end: int | None = None
) -> Iterator[bytes]:
    """The bytes of ``fh`` from ``start`` (where it stands) to ``end`` (or
    its end), read in pieces that end at multiples of ``size`` and cut
    after line ends.

    Each block ends at the last ``\\n`` read so far, except the final one
    and one holding a line longer than the csv field size limit: such a
    line cannot be read in canonical form, so it ends the blocks early.
    As the pieces end where a read from byte 0 ends them, a range that
    starts at a block end is cut into the blocks a read from 0 gives it.
    """
    carry = b""
    while data := fh.read(size - start % size if end is None
                          else min(size - start % size, end - start)):
        start += len(data)
        cut = data.rfind(b"\n") + 1
        if cut:
            yield carry + data[:cut]
            carry = data[cut:]
        else:
            carry += data
        if len(carry) > csv.field_size_limit():
            break
    if carry:
        yield carry


def _plain_header(line: bytes) -> list[str] | None:
    """The cells of a header line in the fast byte set, else None."""
    line = line.removesuffix(b"\r")
    if line.translate(None, _FAST_BYTES) or b"\r" in line:
        return None
    return next(csv.reader([line.decode("ascii")]))


def _load_block(block: bytes, usecols: list[int]) -> np.ndarray | None:
    """The lines of a block as one structured array, or None unless all
    are canonical.

    Canonical: only ``_FAST_BYTES``, no line longer than the csv field
    size limit, one row per line, every integer within int64, ``kind``
    exactly ``call`` or ``text``, customer flags exactly 0 or 1 and states
    in 0..23. Such a block reads the same as ``_read_rows`` reads it.
    """
    if block.translate(None, _FAST_BYTES):
        return None
    # One past each line end; the last line may have none.
    ends = np.flatnonzero(np.frombuffer(block, np.uint8) == ord("\n")) + 1
    lengths = np.diff(ends, prepend=0, append=len(block))
    if lengths.max() > csv.field_size_limit():
        return None
    try:
        with warnings.catch_warnings():
            # Any warning means a cell numpy had to guess at: an all-blank
            # block, or (numpy 1.x) an integer read through a float, "1.0".
            warnings.simplefilter("error")
            # Decoded as numpy reads it, a few KB at a time: a str of the
            # block and StringIO's copy at 4 bytes a char would be 5 MB.
            lines = io.TextIOWrapper(io.BytesIO(block), "ascii", newline="\n")
            table = np.loadtxt(lines, dtype=_BLOCK_DTYPE, delimiter=",",
                               comments=None, usecols=usecols, ndmin=1)
    except (ValueError, Warning):
        return None
    if len(table) != len(ends) + bool(lengths[-1]):
        return None
    kind = table["kind"]
    if not ((kind == b"call") | (kind == b"text")).all():
        return None
    for f in ("caller_is_customer", "callee_is_customer"):
        if not ((table[f] == b"0") | (table[f] == b"1")).all():
            return None
    for f in ("caller_state", "callee_state"):
        if not ((table[f] >= 0) & (table[f] <= N_STATES)).all():
            return None
    return table


@dataclass(eq=False)
class _Reduction:
    """What is kept of ``rows`` consecutive accepted rows.

    Three tables, each a list of columns; the last column of ``parties``
    and ``pairs`` holds the position of each entry's first row, counted
    from the first of the ``rows``:

    - ``first``: (person, timestamp, tower, state) of the located
      party's first event of each (person, day): the earliest, ties to
      the smallest tower id and then to the first row; sorted by
      (person, day);
    - ``parties``: (id, state, position) of each distinct customer party,
      sorted, at position 2 * row for a caller and 2 * row + 1 for a
      callee, so that a row's caller comes before its callee;
    - ``pairs``: (caller_id, callee_id, caller_state, callee_state,
      position) of each distinct row whose parties are both customers,
      sorted.

    States are int8. ``towers`` holds the distinct tower ids, ascending.
    Screening leaves no customer without a state, so every customer party
    of an accepted row has one.
    """

    rows: int
    first: list[np.ndarray]
    parties: list[np.ndarray]
    pairs: list[np.ndarray]
    towers: np.ndarray

    def __len__(self) -> int:
        return len(self.first[0])


def _grouped(ids: np.ndarray, minor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows in (ids, minor) order, and the mask of the first row of
    each run of equal (ids, minor) in that order; rows of a run keep their
    order.

    ``ids`` may be any int64 values: they enter the sort key as their
    rank, so the key spans at most len(ids) times the span of ``minor``.
    Both sorts are stable, so rows that are already sorted runs, as the
    tables of a merge are, sort in about linear time.
    """
    order = np.argsort(ids, kind="stable")
    key = ids[order]
    np.cumsum(run_starts(key), out=key)     # the rank of each id, in place
    minor = minor[order]
    low = int(minor.min())
    span = int(minor.max()) - low + 1
    if (int(key[-1]) + 1) * span > INT64_MAX:
        raise ValueError(f"{key[-1]} ids times a span of {span} overflows int64")
    key *= span
    key += minor
    key -= low
    del minor
    by_key = np.argsort(key, kind="stable")
    key.sort(kind="stable")                 # key[by_key], in place
    starts = run_starts(key)
    del key
    # order[by_key], written over by_key a block at a time, so that no
    # third array of this length is made.
    for i in range(0, len(by_key), 1 << 16):
        block = by_key[i:i + (1 << 16)]
        block[:] = order[block]
    return by_key, starts


def _least(order: np.ndarray, starts: np.ndarray, *keys: np.ndarray) -> np.ndarray:
    """Of each group of ``order`` (``starts`` marks where each begins), the
    first row of those least in ``keys``, compared in turn."""
    shared = starts.copy()                  # alone: a start followed by one
    shared[:-1] &= starts[1:]
    np.logical_not(shared, out=shared)
    rows = order[shared]
    if len(rows):
        first = np.flatnonzero(starts[shared])
        sizes = np.diff(first, append=len(rows))
        best = np.ones(len(rows), bool)
        for key in keys:
            key = np.where(best, key[rows], INT64_MAX)
            best &= key == np.repeat(np.minimum.reduceat(key, first), sizes)
        best[best] = run_starts(np.repeat(np.arange(len(sizes)), sizes)[best])
        shared[shared] = ~best
    return order[~shared]


def _take(table: list[np.ndarray], rows: np.ndarray) -> list[np.ndarray]:
    """The columns of ``table`` at ``rows``; ``table`` lets go of each
    column once it is taken, so one column at a time is held twice."""
    taken = []
    for i, column in enumerate(table):
        table[i] = None
        taken.append(column[rows])
    return taken


def _distinct(table: list[np.ndarray], order: np.ndarray,
              starts: np.ndarray) -> list[np.ndarray]:
    """The first row of each group, with the least position in it."""
    starts = np.flatnonzero(starts)
    least = np.minimum.reduceat(table.pop()[order], starts)
    return [*_take(table, order[starts]), least]


def _first_events(table: list[np.ndarray], start: int) -> list[np.ndarray]:
    """``_Reduction.first`` of a table of located events in row order, or
    of first-event tables end to end; the days count from ``start``."""
    if not len(table[0]):
        return table
    person, ts, tower, _ = table
    # A table of a merge holds at most one row of a (person, day), so in
    # both cases the rows of a group are in the order of their rows.
    day = ts - start
    day //= 86400
    day = day.astype(np.int32)
    order, starts = _grouped(person, day)
    del person, day
    rows = _least(order, starts, ts, tower)
    del ts, tower, order, starts
    return _take(table, rows)


def _distinct_parties(table: list[np.ndarray]) -> list[np.ndarray]:
    """``_Reduction.parties`` of (id, state, position) rows."""
    if not len(table[0]):
        return table
    return _distinct(table, *_grouped(table[0], table[1]))


def _distinct_pairs(table: list[np.ndarray]) -> list[np.ndarray]:
    """``_Reduction.pairs`` of (caller_id, callee_id, caller_state,
    callee_state, position) rows."""
    if not len(table[0]):
        return table
    caller, callee, caller_state, callee_state, _ = table
    # The callee side as the dense rank of its (id, state, state) value.
    callee = np.unique(pack_keys(np.unique(callee, return_inverse=True)[1],
                                 caller_state, callee_state)[0],
                       return_inverse=True)[1]
    return _distinct(table, *_grouped(caller, callee))


def _reduce_block(
    table: np.ndarray,
    window: StudyWindow,
    known_towers: np.ndarray | None,
    report: IngestReport,
) -> _Reduction:
    """The ``_Reduction`` of the accepted rows of a parsed block or batch
    (a ``_BLOCK_DTYPE`` table); the rest counted in ``report`` by reason."""
    ts, duration, tower = table["timestamp"], table["duration"], table["tower_id"]
    caller_state, callee_state = table["caller_state"], table["callee_state"]
    caller = table["caller_is_customer"] == b"1"
    callee = table["callee_is_customer"] == b"1"
    unknown = (np.zeros(len(table), bool) if known_towers is None
               else ~np.isin(tower, known_towers))
    codes = np.select([
        duration < 0,
        (table["kind"] == b"text") & (duration != 0),
        (ts < window.start) | (ts >= window.end),
        unknown,
        ~(caller | callee),
        (caller & (caller_state == UNKNOWN_STATE))
        | (callee & (callee_state == UNKNOWN_STATE)),
    ], np.arange(1, len(_ROW_REJECTS) + 1), 0)
    tally = np.bincount(codes, minlength=len(_ROW_REJECTS) + 1).tolist()
    report.rows += len(table)
    report.accepted += tally[0]
    for reason, n in zip(_ROW_REJECTS, tally[1:]):
        if n:
            report.rejects[reason] += n
    keep = codes == 0
    caller_id, callee_id = table["caller_id"][keep], table["callee_id"][keep]
    caller, callee, tower = caller[keep], callee[keep], tower[keep]
    caller_state = caller_state[keep].astype(np.int8)
    callee_state = callee_state[keep].astype(np.int8)
    both = caller & callee
    side = np.stack([caller, callee], axis=1).ravel()
    return _Reduction(
        tally[0],
        _first_events([np.where(caller, caller_id, callee_id), ts[keep], tower,
                       np.where(caller, caller_state, callee_state)],
                      window.start),
        _distinct_parties([
            np.stack([caller_id, callee_id], axis=1).ravel()[side],
            np.stack([caller_state, callee_state], axis=1).ravel()[side],
            np.flatnonzero(side)]),
        _distinct_pairs([caller_id[both], callee_id[both],
                         caller_state[both], callee_state[both],
                         np.flatnonzero(both)]),
        np.unique(tower))


def _merge(parts: list[_Reduction], start: int) -> _Reduction:
    """The ``_Reduction`` of the rows of ``parts``, end to end.

    ``parts`` is emptied, and each of its columns let go once it is
    joined, so that the parts and their join are not held at once.
    """
    if len(parts) == 1:
        return parts.pop()
    offsets = list(itertools.accumulate((p.rows for p in parts), initial=0))

    def joined(name: str, per_row: int = 0) -> list[np.ndarray]:
        """The tables ``name`` of ``parts`` end to end, their positions
        (``per_row`` a row, when given) shifted past the rows before."""
        tables = [getattr(p, name) for p in parts]
        shift = [0] * (len(tables[0]) - 1) + [per_row]
        columns = []
        for i, by in enumerate(shift):
            columns.append(np.concatenate([t[i] + by * offset if by else t[i]
                                           for t, offset in zip(tables, offsets)]))
            for t in tables:
                t[i] = None
        return columns

    # The first events last: they are the largest, and the parts' other
    # tables are gone by then.
    parties = _distinct_parties(joined("parties", 2))
    pairs = _distinct_pairs(joined("pairs", 1))
    merged = _Reduction(offsets[-1], _first_events(joined("first"), start),
                        parties, pairs,
                        np.unique(np.concatenate([p.towers for p in parts])))
    parts.clear()
    return merged


class _Reductions:
    """The reduction of the rows added so far, part after part.

    The parts are merged into one whenever those after the first hold at
    least as many first events as it does. So what is held stays within
    about twice the reduction of the rows added, plus a part: it grows
    with the person-days of the rows, not with their number.
    """

    def __init__(self, window: StudyWindow) -> None:
        self._window = window
        self._parts: list[_Reduction] = []

    def add(self, part: _Reduction) -> None:
        self._parts.append(part)
        if sum(map(len, self._parts[1:])) >= len(self._parts[0]):
            self.result()

    def result(self) -> _Reduction:
        """The reduction of every row added, which is then all it holds."""
        if not self._parts:
            self._parts.append(_reduce_block(np.empty(0, _BLOCK_DTYPE),
                                             self._window, None, IngestReport()))
        self._parts = [_merge(self._parts, self._window.start)]
        return self._parts[0]


@dataclass(frozen=True, eq=False)
class ReducedCdr:
    """What ``report`` keeps of a CDR file: the daily observations, the
    contact table the network is built from, and the ids of the towers
    with accepted traffic, ascending."""

    observations: ObservationColumns
    contacts: ContactTable
    towers: np.ndarray


def read_cdr(
    path: str | Path,
    *,
    window: StudyWindow = DEFAULT_WINDOW,
    known_towers: set[int] | None = None,
    report: IngestReport | None = None,
) -> ReducedCdr:
    """The daily observations, contact table and active towers of the
    accepted events of a comma-separated CDR file.

    ``path`` is a ``str`` or a ``Path``; any other source raises
    IngestError. The file has a header row with the canonical column
    names (extra columns are ignored), after a UTF-8 byte-order mark,
    which is skipped, when there is one. It is read in
    binary blocks of ``BLOCK_BYTES``, each cut after its last line end, so
    the whole file is never held in memory. A block is checked against
    the canonical byte set with one ``bytes.translate``, its line ends
    found with one byte scan (which also bounds the line length and
    counts the lines), then parsed by one ``numpy.loadtxt`` call and
    screened and reduced by ``_reduce_block``. From the first header or
    block that is not in canonical form (see ``_plain_header`` and
    ``_load_block``) on, the file is read by ``_read_rows``, which passes
    its rows to the same ``_reduce_block``, and ``report.row_reader_from``
    says where. Canonical blocks hold no quote, so no CSV field spans
    that cut.

    Each block, and each batch of the row reader, is thus reduced as soon
    as it is parsed (``_Reduction``), and the reductions are merged as
    they come (``_Reductions``); input position is the last tie-break of
    every merge. So no column as long as the file is ever made, and
    memory grows with the person-days, parties and contact pairs, not
    with the rows.

    A file of ``FORK_BYTES`` or more is read by two processes: a forked
    worker reads and reduces the blocks after a block end near the middle
    (see ``_split_point``), and this process those before it, then merges
    the worker's reduction after its own. The worker stops at its first
    non-canonical block, and the row reader resumes there; at a
    non-canonical block before the cut the worker is discarded. A worker
    that fails has its part read here (``worker.forked``). As the blocks
    are those of a read by one process, the result, the report and any
    error are too; ``report.split_row`` says where the worker's rows
    begin, when its read was used.

    The observations are one per (person, day) of the located party (the
    caller when a customer, else the callee), in (person, day) order,
    with the tower of its earliest event that day; equal timestamps are
    broken by the smallest tower id, then by input order. The contact
    table is ``social.ContactTable``'s. ``window`` and ``known_towers``
    (when given) reject events outside them; ``report`` is filled with
    the row count, the accepted count and the rejects by reason. More
    unparseable rows than ``MAX_BAD_FRACTION`` of the rows read raises
    IngestError, checked at every row number divisible by ``ROW_BATCH``
    and at the end; canonical rows always parse. Text that is not UTF-8
    or not CSV raises IngestError too, with ``report`` holding the rows
    counted before it.
    """
    if not isinstance(path, (str, Path)):
        raise IngestError(f"unsupported CDR source: {type(path)!r}")
    if report is None:
        report = IngestReport()
    # An id outside int64 matches no parsed row, so it can be left out.
    known = (None if known_towers is None else np.fromiter(
        (t for t in known_towers if INT64_MIN <= t <= INT64_MAX), np.int64))
    out = _Reductions(window)
    with open(path, "rb") as fh:
        resume = _read_blocks(path, fh, window, known, report, out)
    if resume is not None:
        offset, usecols, rows = resume
        report.row_reader_from = rows + 1
        _read_rows(path, offset, usecols, rows, window=window,
                   known_towers=known, report=report, out=out)
    reduced = out.result()
    del out
    person, ts, tower, state = reduced.first
    reduced.first = None
    day = ts - window.start
    del ts
    day //= 86400
    day += 1
    parties = np.argsort(reduced.parties[-1])
    pairs = np.argsort(reduced.pairs[-1])
    return ReducedCdr(
        ObservationColumns(person, state.astype(np.int64), day, tower),
        ContactTable(*(c[parties].astype(np.int64, copy=False)
                       for c in reduced.parties[:-1]),
                     *(c[pairs].astype(np.int64, copy=False)
                       for c in reduced.pairs[:-1])),
        reduced.towers)


def _split_point(fh: BinaryIO, size: int) -> int | None:
    """Where a worker's part of the file begins, or None for one process.

    That is the end of the block that a read from byte 0 ends at the
    multiple of ``BLOCK_BYTES`` nearest the middle: one past the last line
    end before it, looked for in the ``BLOCK_BYTES`` (at most 64 KiB)
    before it. None when the file is below ``FORK_BYTES`` or no line
    ends there. ``fh`` is left at byte 0.
    """
    if size < FORK_BYTES:
        return None
    mark = round(size / 2 / BLOCK_BYTES) * BLOCK_BYTES
    if not 0 < mark < size:
        return None
    window = min(BLOCK_BYTES, 1 << 16)
    fh.seek(mark - window)
    end = fh.read(window).rfind(b"\n") + 1
    fh.seek(0)
    return mark - window + end if end else None


def _read_blocks(
    path: str | Path,
    fh: BinaryIO,
    window: StudyWindow,
    known_towers: np.ndarray | None,
    report: IngestReport,
    out: _Reductions,
) -> tuple[int, list[int] | None, int] | None:
    """Screen the canonical blocks of the file at ``path``, open as ``fh``,
    into ``out``, with a worker for the part after ``_split_point``.

    Returns None when every block was canonical, else where the row
    reader resumes: the byte offset, the header's column positions (None
    when the header is not canonical) and the rows screened before it.
    """
    size = os.fstat(fh.fileno()).st_size
    cut = _split_point(fh, size)
    blocks = _line_blocks(fh, BLOCK_BYTES, end=cut)
    header, newline, rest = next(blocks, b"").partition(b"\n")
    offset = len(header) + len(newline)     # where ``rest`` starts
    header = header.removeprefix(codecs.BOM_UTF8)
    # A file without a line end after its header goes to the row reader,
    # which tells an empty file from a header-only one.
    cells = _plain_header(header) if newline else None
    if cells is None:
        return 0, None, 0
    usecols = _header_index(iter([cells]))
    screen = partial(_screen_blocks, usecols=usecols, window=window,
                     known_towers=known_towers, report=report)
    # Leaving the block discards a worker whose part is not wanted.
    with (nullcontext() if cut is None
          else forked(partial(_read_part, path, cut, screen))) as result:
        offset, rows, done = screen(itertools.chain([rest], blocks), offset, 0,
                                    out=out)
        if cut is None or not done:
            return None if done else (offset, usecols, rows)
        (counts, stop, reduced), worker = result()
    out.add(reduced)
    if worker:
        report.split_row = rows + 1
    report.rows += counts.rows
    report.accepted += counts.accepted
    report.rejects.update(counts.rejects)
    return None if stop is None else (stop, usecols, rows + counts.rows)


def _screen_blocks(
    blocks: Iterable[bytes],
    offset: int,
    rows: int,
    *,
    usecols: list[int],
    window: StudyWindow,
    known_towers: np.ndarray | None,
    report: IngestReport,
    out: _Reductions,
) -> tuple[int, int, bool]:
    """Reduce ``blocks``, the first at byte ``offset`` with ``rows`` rows
    before it, into ``out`` up to the first one that is not canonical.

    Returns that block's offset, the rows before it and False, or the end
    and True when every block was canonical.
    """
    for block in blocks:
        if not block:
            continue
        table = _load_block(block, usecols)
        if table is None:
            return offset, rows, False
        out.add(_reduce_block(table, window, known_towers, report))
        rows += len(table)
        offset += len(block)
    return offset, rows, True


def _read_part(
    path: str | Path, start: int, screen: Callable,
) -> tuple[IngestReport, int | None, _Reduction]:
    """The worker's read: the canonical blocks of the file at ``path`` from
    byte ``start`` on, reduced by ``screen``.

    Returns an ``IngestReport`` of its rows, the byte offset of its first
    non-canonical block (None when it read to the end) and the
    ``_Reduction`` of its accepted rows.
    """
    report, out = IngestReport(), _Reductions(screen.keywords["window"])
    with open(path, "rb") as fh:
        fh.seek(start)
        offset, _, done = screen(_line_blocks(fh, BLOCK_BYTES, start), start,
                                 0, report=report, out=out)
    return report, None if done else offset, out.result()


def _read_rows(
    path: str | Path,
    offset: int,
    usecols: list[int] | None,
    rows: int,
    *,
    window: StudyWindow,
    known_towers: np.ndarray | None,
    report: IngestReport,
    out: _Reductions,
) -> None:
    """The accepted rows of the file at ``path`` from byte ``offset`` on,
    read by rows and added to ``out``.

    The ``csv`` module splits the rows, and each row's cells are parsed by
    ``_CELL_PARSERS`` into one preallocated ``_BLOCK_DTYPE`` batch. A row
    with a cell they refuse, or too few cells, is counted unparseable; the
    batch is reduced by ``_reduce_block`` before each row number
    divisible by ``ROW_BATCH``, where the tolerance is checked, and at the
    end. ``usecols`` is None when the header is read here too, and
    ``rows`` counts the rows before ``offset``.
    """
    batch = np.empty(ROW_BATCH, _BLOCK_DTYPE)
    held = bad = 0
    with _text_stream(path, offset) as stream:
        reader = csv.reader(stream)
        if usecols is None:
            usecols = _header_index(reader)
        cells = list(zip(_CELL_PARSERS, usecols))
        for row in reader:
            rows += 1
            if rows % ROW_BATCH == 0:
                out.add(_reduce_block(batch[:held], window, known_towers, report))
                held = 0
                if bad > MAX_BAD_FRACTION * rows:
                    report.rows += 1    # the row the check stops at is read
                    raise _tolerance_error(bad, rows)
            try:
                batch[held] = tuple([parse(row[i]) for parse, i in cells])
            except (ValueError, IndexError):
                bad += 1
                report.rows += 1
                report.rejects["unparseable"] += 1
            else:
                held += 1
    out.add(_reduce_block(batch[:held], window, known_towers, report))
    if rows and bad / rows > MAX_BAD_FRACTION:
        raise _tolerance_error(bad, rows)


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal key tuples."""
    starts = np.ones(len(keys[0]), bool)
    starts[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return starts


def pack_keys(*columns: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """One int64 key per row that orders rows as the column tuples do.

    The first column is the most significant; each enters as its offset
    from its minimum. Returns the key and each column's (minimum, span),
    which ``unpack_keys`` takes. The spans are multiplied in Python ints,
    and ValueError is raised when their product is beyond int64, so a
    key never wraps around.
    """
    bounds = [(int(c.min()), int(c.max()) - int(c.min()) + 1) if len(c) else (0, 1)
              for c in columns]
    if math.prod(span for _, span in bounds) > INT64_MAX:
        raise ValueError(f"packed key of spans {[s for _, s in bounds]} "
                         "overflows int64")
    key = np.zeros(len(columns[0]), np.int64)
    for col, (low, span) in zip(columns, bounds):
        # In place, with no temporary column; a sum past int64 wraps and
        # subtracting ``low`` wraps it back.
        key *= span
        key += col
        key -= low
    return key, bounds


def unpack_keys(key: np.ndarray, bounds: Sequence[tuple[int, int]]) -> list[np.ndarray]:
    """The columns ``pack_keys`` packed into ``key``, given its bounds."""
    columns = []
    for low, span in reversed(bounds):
        key, offset = np.divmod(key, span)
        columns.append(offset + low)
    return columns[::-1]


@dataclass(frozen=True, eq=False)
class ObservationColumns:
    """Daily observations as one int64 array per field.

    Both producers, ``read_cdr`` and
    ``synth.GroundTruth.observations``, give one row per (person, day) in
    (person, day) order. The consumers accept rows in any order and sort
    only rows that are not in that order.
    """

    person_id: np.ndarray
    state_code: np.ndarray
    day: np.ndarray
    first_tower: np.ndarray

    def __len__(self) -> int:
        return len(self.person_id)

    def take(self, rows: np.ndarray) -> ObservationColumns:
        """The observations at ``rows`` (indices or a mask), in that order."""
        return ObservationColumns(self.person_id[rows], self.state_code[rows],
                                  self.day[rows], self.first_tower[rows])

    def unique_handsets(self) -> dict[tuple[int, int], int]:
        """Distinct-person count per (state, day), in (state, day) order."""
        key, bounds = pack_keys(self.state_code, self.day)
        key, sizes = np.unique(key, return_counts=True)
        state, day = unpack_keys(key, bounds)
        return dict(zip(zip(state.tolist(), day.tolist()), sizes.tolist()))


# ---------------------------------------------------------------------------
# Auxiliary file loaders


def _finite(text: str) -> float:
    """float(text), refusing NaN and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _non_negative(text: str) -> float:
    """A finite float of at least 0."""
    value = _finite(text)
    if value < 0:
        raise ValueError(f"negative: {text!r}")
    return value


def _read_table(
    path, what: str, columns: Mapping[str, Callable]
) -> list[tuple]:
    """Rows of an auxiliary file, each cell converted by its column's type.

    The first of ``columns`` is the key: no two rows may hold the same
    value in it. A missing column, a cell its type rejects, a repeated
    key (each named by file and line), or text that is not UTF-8 or not
    CSV raises SchemaError. A UTF-8 byte-order mark is skipped.
    """
    rows, keys = [], set()
    with (_reading(f"{what} file {path}", SchemaError),
          open(path, "r", newline="", encoding="utf-8-sig") as fh):
        # A short row's missing cells read as "", which the types reject.
        reader = csv.DictReader(fh, restval="")
        if reader.fieldnames is None or not set(columns) <= set(reader.fieldnames):
            raise SchemaError(f"{what} file must have columns {sorted(columns)}")
        for row in reader:
            try:
                values = tuple(conv(row[c]) for c, conv in columns.items())
                if values[0] in keys:
                    raise ValueError(f"duplicate {next(iter(columns))} {values[0]}")
            except (TypeError, ValueError) as exc:
                raise SchemaError(
                    f"{what} file {path}, line {reader.line_num}: {exc}"
                ) from None
            keys.add(values[0])
            rows.append(values)
    return rows


def load_towers(path) -> list[TowerSite]:
    """Read the tower file (tower_id, latitude, longitude)."""
    return [TowerSite(*row) for row in _read_table(
        path, "tower",
        {"tower_id": int, "latitude": _finite, "longitude": _finite},
    )]


def load_state_profiles(path) -> dict[int, StateProfile]:
    """Read the market-share file (state_code, name, market_share, is_local)."""
    profiles: dict[int, StateProfile] = {}
    for code, name, share, is_local in _read_table(
        path, "market-share",
        {"state_code": int, "name": str, "market_share": float,
         "is_local": _parse_bool},
    ):
        if not 0 < share <= 1:
            raise ConfigurationError(
                f"market share for state {code} outside (0, 1]: {share}"
            )
        profiles[code] = StateProfile(
            state_code=code, name=name, market_share=share, is_local=is_local,
        )
    locals_ = [p for p in profiles.values() if p.is_local]
    if len(locals_) != 1:
        raise ConfigurationError(
            f"exactly one state must be local, found {len(locals_)}"
        )
    return profiles


def load_projections(path) -> dict[int, float]:
    """Read the external projections file (day, projected_attendance):
    one row a day, each a finite count of at least 0."""
    return dict(_read_table(
        path, "projections",
        {"day": int, "projected_attendance": _non_negative},
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


def write_cdr(columns: CdrColumns, path) -> None:
    """Write events in canonical form; re-parsing yields the same events."""
    write_columns(path, CDR_COLUMNS, [
        columns.timestamp, columns.caller_id, columns.callee_id,
        np.where(columns.is_text, "text", "call"), columns.duration,
        columns.tower_id, columns.caller_state, columns.callee_state,
        columns.caller_is_customer.astype(np.int64),
        columns.callee_is_customer.astype(np.int64),
    ])


def write_columns(
    path, header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    """``write_table`` for integer and string columns, with the same bytes.

    Rows are written ``WRITE_BLOCK_ROWS`` at a time, each block as one
    %-format of its cells, so a text cell that ``csv`` would quote (one
    holding a comma, a quote or a line break) is refused instead.
    """
    texts = [*header, *(v for c in columns if c.dtype.kind not in "biu"
                        for v in np.unique(c).tolist())]
    for text in texts:
        if any(ch in text for ch in (",", '"', "\n", "\r")):
            raise ValueError(f"cell {text!r} would need CSV quoting")
    row = ",".join(["%s"] * len(columns)) + "\n"
    # Columns of one dtype stack as that dtype; mixed ones as Python
    # objects, so that no cell takes another column's type.
    dtype = None if len({c.dtype for c in columns}) == 1 else object
    n_rows = len(columns[0]) if len(columns) else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, WRITE_BLOCK_ROWS):
            block = np.stack([c[start:start + WRITE_BLOCK_ROWS] for c in columns],
                             axis=1, dtype=dtype)
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a comma-separated table; floats as ``.12g``, for byte stability."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                format(v, ".12g") if isinstance(v, float) else v for v in row
            ])
