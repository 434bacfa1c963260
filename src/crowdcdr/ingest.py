"""Parse and validate CDR, tower, market-share, and projection files.

The data model is shared by every downstream module:

- ``CdrColumns``: events (calls and texts) as one numpy array per
  field: what the generator makes and ``write_cdr`` writes.
  ``read_cdr`` reduces each parsed block of a CDR file at once
  (``_Reduction``), merges the reductions as they come, and returns
  only what the analysis stages read: the daily observations, the
  towers with traffic and ``social.ContactTable``. Each of the
  reduction's three tables is declared once, as its key and tie columns
  (``_FIRST``, ``_PARTIES``, ``_PAIRS``), and ordered and reduced under
  that declaration by one rule (``_reduced``), a block's tables and two
  merged reductions' alike. No column as long as the file is ever made.
- ``TowerSite``: tower coordinates plus an activity flag.
- ``StateProfile``: per-state market share and the local-state marker.
- ``ObservationColumns``: one row per (person, day) carrying the first
  tower used that day, as one array per field, each as narrow as the
  window and the known towers allow (15 bytes a row from ``read_cdr``);
  the atom for attendance and co-location statistics.

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
import time
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields
from functools import partial
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .arrays import (INT64_MAX, INT64_MIN, column_bounds, distinct, pack_keys,
                     run_starts, unpack_keys)
from .errors import ConfigurationError, IngestError, SchemaError
from .social import ContactTable
from .worker import forked

UNKNOWN_STATE = 0
N_STATES = 23
INT32_MIN, INT32_MAX = -(2 ** 31), 2 ** 31 - 1

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
#: Rows per block of ``write_columns``: each block is one byte buffer,
#: of this many rows times the block's widest row, and one write.
WRITE_BLOCK_ROWS = 1 << 14
#: Rows per block of ``ObservationColumns.unique_handsets``, and the most
#: (state, day) bins it counts densely.
COUNT_BLOCK_ROWS = 1 << 16

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


#: The radius of the sphere that tower latitudes and longitudes lie on.
EARTH_RADIUS_KM = 6371.0


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
    the 1-based data row from which a worker's read was used, or None,
    and ``worker_wait_s`` the seconds this process then waited for that
    read after its own, or None; they tell how the file was read, not
    what it holds, so reports that differ only in them are equal.
    """

    rows: int = 0
    accepted: int = 0
    rejects: Counter = field(default_factory=Counter)
    row_reader_from: int | None = None
    split_row: int | None = field(default=None, compare=False)
    worker_wait_s: float | None = field(default=None, compare=False)


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

    - ``first``: (person, seconds, tower, state) of the located party's
      first event of each (person, day): the earliest, ties to the
      smallest tower id and then to the first row; sorted by (person,
      day). The seconds count from the window's start, and they and the
      tower are as narrow as ``_widths`` makes them;
    - ``parties``: (id, state, position) of each distinct customer party,
      sorted, at position 2 * row for a caller and 2 * row + 1 for a
      callee, so that a row's caller comes before its callee;
    - ``pairs``: (caller_id, callee_id, caller_state, callee_state,
      position) of each distinct row whose parties are both customers,
      sorted.

    States are int8. ``towers`` holds the distinct tower ids, ascending.
    Screening leaves no customer without a state, so every customer party
    of an accepted row has one. Each table holds one row per key, in key
    order, the one least in its tie columns: ``_FIRST``, ``_PARTIES``
    and ``_PAIRS`` declare them ((person, day) by (seconds, tower) for
    ``first``, and the columns before the position by the position for
    the others). ``_reduced`` orders and reduces a table under them: a
    block's tables in ``_reduce_block``, and in ``_merge`` the tables of
    two reductions joined (``_merged``). It packs no key, so any int64
    ids work.
    """

    rows: int
    first: list[np.ndarray]
    parties: list[np.ndarray]
    pairs: list[np.ndarray]
    towers: np.ndarray

    def __len__(self) -> int:
        return len(self.first[0])


def _widths(window: StudyWindow) -> tuple[type, type]:
    """The dtypes of the seconds since ``window.start`` and of the 1-based
    day of an accepted row: int32 and int16 where every value in the
    window fits, else int64. Fixed before the read, so every part of it,
    the worker's too, has the same columns."""
    return (np.int32 if window.days * 86400 <= INT32_MAX + 1 else np.int64,
            np.int16 if window.days < 2 ** 15 else np.int64)


#: The key and tie columns of each table of ``_Reduction``, as functions
#: of its list of columns: a table holds one row per key, the one least
#: in its tie columns, and of rows equal in those too, the first. The
#: first key column is the table's first column. ``_reduced`` orders and
#: reduces every table by them, a block's and two merged reductions', and
#: applies them to the table's rows ``RESORT_ROWS`` at a time, so that a
#: key column made from the others (the day) is never made whole.
_FIRST = (lambda t: [t[0], t[1] // 86400], lambda t: t[1:3])
_PARTIES = (lambda t: t[:2], lambda t: t[2:])
_PAIRS = (lambda t: t[:4], lambda t: t[4:])

#: Rows that ``_reduced`` compares, re-sorts or compacts at a time.
RESORT_ROWS = 1 << 14


def _reduced(table: list[np.ndarray], key: Callable, tie: Callable,
             in_place: bool = False) -> list[np.ndarray]:
    """The rows of ``table`` that ``key`` and ``tie`` keep (see
    ``_FIRST``), in key order, in its dtypes.

    One stable sort of the first column, then one pass over adjacent
    rows finds the runs of equal first values that are not yet in key
    and tie order; those runs alone are re-sorted, by ``np.lexsort``, a
    run at a time or together up to ``RESORT_ROWS`` rows. Rows equal in
    every key and tie column stay in table order, and the first row of
    each key is kept. The pass, too, takes ``RESORT_ROWS`` rows at a
    time. The first column is put in sorted order first: sorted in place
    with ``in_place`` (a merge's, two sorted runs, which the stable sort
    merges in linear time), else gathered by the order. It and the order
    are cut to the kept rows in place, so that, with ``in_place``,
    besides the columns only the order, a mask and one output column
    narrower than the first span the table. Each column of ``table`` is
    set to None once its kept rows are copied; the first is copied only
    when rows were dropped, after the order has gone.
    """
    order = np.argsort(table[0], kind="stable")
    # From here on the first column is in sorted order, as ``order`` puts it.
    if in_place:
        table[0].sort(kind="stable")
    else:
        table[0] = table[0][order]
    first = table[0]
    # Whether each row of ``order`` holds a key the row before it does
    # not, and the rows that the row after them goes before.
    keep = np.ones(len(order), bool)
    descents = [np.zeros(0, np.intp)]
    for lo in range(0, len(order) - 1, RESORT_ROWS):
        columns, n_keys = _sort_columns(
            table, order, slice(lo, lo + RESORT_ROWS + 1), key, tie)
        same = np.ones(len(columns[0]) - 1, bool)
        before = np.zeros(same.size, bool)
        for i in reversed(range(len(columns))):
            column = columns[i]
            equal = column[1:] == column[:-1]
            before &= equal
            if i:
                before |= column[1:] < column[:-1]
            if i < n_keys:
                same &= equal
        np.logical_not(same, out=keep[lo + 1:lo + len(columns[0])])
        descents.append(np.flatnonzero(before) + lo)
    descents = np.concatenate(descents)
    if descents.size:
        _resort(order, keep, table, key, tie, descents)
    n_rows = len(first)
    rows, first = _compacted(order, keep), _compacted(first, keep)
    del keep
    out = [first]
    for i in range(1, len(table)):
        out.append(table[i][rows])
        table[i] = None
    table[0] = None
    del rows, order
    if len(first) < n_rows:
        out[0] = first.copy()
    return out


def _sort_columns(table: list[np.ndarray], order: np.ndarray, at,
                  key: Callable, tie: Callable) -> tuple[list[np.ndarray], int]:
    """The key then the tie columns of the rows ``order[at]`` of
    ``table``, whose first column is sorted (``table[0][at]`` holds
    theirs), and how many of them are key columns."""
    rows = order[at]
    held = [table[0][at], *(column[rows] for column in table[1:])]
    keys = key(held)
    return [*keys, *tie(held)], len(keys)


def _compacted(column: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """``column[keep]``, made in place at the front of ``column``,
    ``RESORT_ROWS`` elements at a time: the front is returned, a view."""
    n = 0
    for lo in range(0, len(column), RESORT_ROWS):
        held = column[lo:lo + RESORT_ROWS][keep[lo:lo + RESORT_ROWS]]
        column[n:n + held.size] = held
        n += held.size
    return column[:n]


def _resort(order: np.ndarray, keep: np.ndarray, table: list[np.ndarray],
            key: Callable, tie: Callable, descents: np.ndarray) -> None:
    """Re-sort, in ``order``, the runs of equal first values that hold a
    row of ``descents`` by every key and tie column of ``table``, whose
    first column is sorted, and mark again in ``keep`` the rows of the
    re-sorted runs that start a key (see ``_reduced``)."""
    first = table[0]
    value = first[descents]                 # ascending
    value = value[run_starts(value)]
    starts = np.searchsorted(first, value, "left")
    lengths = np.searchsorted(first, value, "right") - starts
    # Runs go together until their rows reach ``RESORT_ROWS``.
    offsets = np.cumsum(lengths) - lengths
    cuts = np.flatnonzero(np.diff(offsets // RESORT_ROWS)) + 1
    for lo, hi in zip([0, *cuts], [*cuts, len(starts)]):
        span = lengths[lo:hi]
        rows = (np.repeat(starts[lo:hi] - offsets[lo:hi], span)
                + np.arange(offsets[lo], offsets[lo] + span.sum()))
        columns, n_keys = _sort_columns(table, order, rows, key, tie)
        by = np.lexsort(columns[::-1])
        order[rows] = order[rows][by]
        repeat = np.ones(len(rows) - 1, bool)
        for column in columns[:n_keys]:
            column = column[by]
            repeat &= column[1:] == column[:-1]
        keep[rows[1:]] = ~repeat


def _merged(a: list[np.ndarray], b: list[np.ndarray], key: Callable,
            tie: Callable) -> list[np.ndarray]:
    """The table of the rows of ``a`` then those of ``b``, two tables
    reduced under the declaration ``key`` and ``tie``, reduced under it
    by ``_reduced``: their columns are joined one at a time, and ``a``
    and ``b`` let go of each once it is."""
    if not len(a[0]) or not len(b[0]):
        return a if len(a[0]) else b
    table = []
    for i in range(len(a)):
        table.append(np.concatenate([a[i], b[i]]))
        a[i] = b[i] = None
    return _reduced(table, key, tie, in_place=True)


def _reduce_block(
    table: np.ndarray,
    window: StudyWindow,
    known_towers: np.ndarray | None,
    report: IngestReport,
) -> _Reduction:
    """The ``_Reduction`` of the accepted rows of a parsed block or batch
    (a ``_BLOCK_DTYPE`` table); the rest counted in ``report`` by reason.

    The tower column takes the dtype of ``known_towers`` (int64 when it
    is None), which every accepted tower is in."""
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
    caller, callee = caller[keep], callee[keep]
    tower = tower[keep].astype(np.int64 if known_towers is None
                               else known_towers.dtype)
    seconds = (ts[keep] - window.start).astype(_widths(window)[0])
    caller_state = caller_state[keep].astype(np.int8)
    callee_state = callee_state[keep].astype(np.int8)
    both = caller & callee
    side = np.stack([caller, callee], axis=1).ravel()
    return _Reduction(
        tally[0],
        _reduced([np.where(caller, caller_id, callee_id), seconds, tower,
                  np.where(caller, caller_state, callee_state)], *_FIRST),
        _reduced([np.stack([caller_id, callee_id], axis=1).ravel()[side],
                  np.stack([caller_state, callee_state], axis=1).ravel()[side],
                  np.flatnonzero(side)], *_PARTIES),
        _reduced([caller_id[both], callee_id[both], caller_state[both],
                  callee_state[both], np.flatnonzero(both)], *_PAIRS),
        distinct(tower))


def _merge(a: _Reduction, b: _Reduction) -> _Reduction:
    """The ``_Reduction`` of the rows of ``a``, then those of ``b``, each
    table merged by ``_merged``; ``b``'s positions are shifted past
    ``a``'s rows, so a party or pair of ``b`` never replaces ``a``'s."""
    b.parties[-1] += 2 * a.rows
    b.pairs[-1] += a.rows
    parties = _merged(a.parties, b.parties, *_PARTIES)
    pairs = _merged(a.pairs, b.pairs, *_PAIRS)
    towers = distinct(np.concatenate([a.towers, b.towers]))
    # The first events last: they are the largest, and the other tables
    # of ``a`` and ``b`` are gone by then.
    first = _merged(a.first, b.first, *_FIRST)
    return _Reduction(a.rows + b.rows, first, parties, pairs, towers)


class _Reductions:
    """The reduction of the rows added so far, part after part.

    The parts are a stack, the first rows at its bottom. A part added is
    merged with the one below it while it holds at least as many first
    events, as a binary counter carries. So each first event is merged
    about log2(parts) times, and what is held stays within about twice
    the reduction of the rows added, plus a part: it grows with the
    person-days of the rows, not with their number. A merge joins the
    two parts' tables and reduces them again (``_merge``); as each part
    is sorted by its first column, their join is two sorted runs, which
    the stable sort of ``_reduced`` merges, and on a time-ordered log
    few runs of one person, party or caller are left out of order.
    """

    def __init__(self, window: StudyWindow, known: np.ndarray | None) -> None:
        # ``_reduce_block``'s arguments for no rows, in the read's widths.
        self._empty = (np.empty(0, _BLOCK_DTYPE), window, known, IngestReport())
        self._parts: list[_Reduction] = []

    def add(self, part: _Reduction) -> None:
        self._parts.append(part)
        while (len(self._parts) > 1
               and len(self._parts[-1]) >= len(self._parts[-2])):
            self._merge_top()

    def _merge_top(self) -> None:
        b, a = self._parts.pop(), self._parts.pop()
        self._parts.append(_merge(a, b))

    def result(self) -> _Reduction:
        """The reduction of every row added, which is then all it holds;
        with none added, that of none, in the read's column widths."""
        if not self._parts:
            self._parts.append(_reduce_block(*self._empty))
        while len(self._parts) > 1:
            self._merge_top()
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
    they come (``_Reductions``). Each table is declared once, as its key
    and tie columns (``_FIRST``, ``_PARTIES``, ``_PAIRS``), and one rule
    orders and reduces it under that declaration, a block's and two
    merged reductions' alike, whatever the ids (``_reduced``): a stable
    sort of its first column, then a re-sort of only the runs of equal
    first values that are out of key and tie order; input position is
    the last tie-break of every reduction and merge. So no column as
    long as the file is ever made,
    and memory grows with the person-days, parties and contact pairs,
    not with the rows: 17 bytes a person-day held where the observations
    are narrow, and at most 29 while two reductions' first events are
    merged (the joined table, its 8-byte order and the stable sort's
    buffer, or one output column, see ``_reduced``).

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
    broken by the smallest tower id, then by input order. The person is
    int64 and the state int8; the day is int16 and the tower int32 where
    ``window`` and ``known_towers`` let every accepted value fit, else
    int64. The contact
    table is ``social.ContactTable``'s, with int64 ids and int8 states.
    ``window`` and ``known_towers``
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
    # Every accepted tower is a known one, so where the known ones fit
    # int32 the tower columns are int32 (see ``_reduce_block``).
    known = (None if known_towers is None else np.fromiter(
        (t for t in known_towers if INT64_MIN <= t <= INT64_MAX), np.int64))
    if known is not None and (not known.size or INT32_MIN <= known.min()
                              and known.max() <= INT32_MAX):
        known = known.astype(np.int32)
    out = _Reductions(window, known)
    with open(path, "rb") as fh:
        resume = _read_blocks(path, fh, window, known, report, out)
    if resume is not None:
        offset, usecols, rows = resume
        report.row_reader_from = rows + 1
        _read_rows(path, offset, usecols, rows, window=window,
                   known_towers=known, report=report, out=out)
    reduced = out.result()
    del out
    person, day, tower, state = reduced.first
    reduced.first = None
    day //= 86400                   # the seconds become the day, in place
    day += 1
    day = day.astype(_widths(window)[1], copy=False)
    # One table at a time, so the old and new contact columns are never
    # all held at once.
    parties = _in_row_order(reduced.parties)
    reduced.parties = None
    pairs = _in_row_order(reduced.pairs)
    reduced.pairs = None
    return ReducedCdr(ObservationColumns(person, state, day, tower),
                      ContactTable(*parties, *pairs), reduced.towers)


def _in_row_order(table: list[np.ndarray]) -> list[np.ndarray]:
    """The columns of a ``_Reduction`` table but its last, in their dtypes
    and ordered by that last, the position of each entry's first row.
    Each column of ``table`` is set to None once its copy exists."""
    order = np.argsort(table.pop())
    out = []
    for i, column in enumerate(table):
        table[i] = None
        out.append(column[order])
    return out


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
    # The chain lets go of the first block once it is screened.
    blocks = itertools.chain([rest], blocks)
    del rest
    # Leaving the block discards a worker whose part is not wanted.
    with (nullcontext() if cut is None
          else forked(partial(_read_part, path, cut, screen))) as result:
        offset, rows, done = screen(blocks, offset, 0, out=out)
        if cut is None or not done:
            return None if done else (offset, usecols, rows)
        # This process's parts are merged while the worker still reads,
        # so that one merge is left after the wait.
        out.result()
        start = time.monotonic()
        (counts, stop, reduced), worker = result()
        waited = round(time.monotonic() - start, 3)
    out.add(reduced)
    if worker:
        report.split_row = rows + 1
        report.worker_wait_s = waited
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
    and True when every block was canonical. A block's bytes and parsed
    table go before its reduction is added, and so before any merge.
    """
    for block in blocks:
        if not block:
            continue
        table = _load_block(block, usecols)
        if table is None:
            return offset, rows, False
        rows += len(table)
        offset += len(block)
        part = _reduce_block(table, window, known_towers, report)
        del block, table
        out.add(part)
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
    report = IngestReport()
    out = _Reductions(screen.keywords["window"], screen.keywords["known_towers"])
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


@dataclass(frozen=True, eq=False)
class ObservationColumns:
    """Daily observations as one integer array per field.

    Both producers, ``read_cdr`` and
    ``synth.GroundTruth.observations``, give one row per (person, day) in
    (person, day) order. ``read_cdr`` gives the person as int64, the
    state as int8, the day as int16 and the tower as int32 wherever its
    window and known towers let the values fit: 15 bytes a row, against
    32 in int64, from a read that holds at most 29 bytes a row while it
    merges. The consumers accept
    rows in any order and sort only rows that are not in that order, and
    they take any integer widths.
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
        """Distinct-person count per (state, day), in (state, day) order.

        The rows are one per (person, day), so this counts rows: one
        ``np.bincount`` over the dense (state, day) span per
        ``COUNT_BLOCK_ROWS`` rows, with no key and no sort. A span of more
        bins than that (from ``read_cdr``, only with a window of more
        than 2,730 days) is counted by sorting packed keys instead.
        """
        (state_low, states), (day_low, days) = map(column_bounds,
                                                   (self.state_code, self.day))
        if states * days > COUNT_BLOCK_ROWS:
            key, bounds = pack_keys(self.state_code, self.day)
            key, sizes = np.unique(key, return_counts=True)
            state, day = unpack_keys(key, bounds)
            return dict(zip(zip(state.tolist(), day.tolist()), sizes.tolist()))
        counts = np.zeros(states * days, np.int64)
        for start in range(0, len(self), COUNT_BLOCK_ROWS):
            rows = slice(start, start + COUNT_BLOCK_ROWS)
            index = self.state_code[rows].astype(np.intp)
            index -= state_low
            index *= days
            index += self.day[rows]
            index -= day_low
            counts += np.bincount(index, minlength=counts.size)
        held = np.flatnonzero(counts)
        state, day = np.divmod(held, days)
        return dict(zip(zip((state + state_low).tolist(), (day + day_low).tolist()),
                        counts[held].tolist()))


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
        {"tower_id": _parse_int, "latitude": _finite, "longitude": _finite},
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
        (["call", "text"], columns.is_text), columns.duration,
        columns.tower_id, columns.caller_state, columns.callee_state,
        columns.caller_is_customer.astype(np.int64),
        columns.callee_is_customer.astype(np.int64),
    ])


def write_columns(
    path, header: Sequence[str],
    columns: Sequence[np.ndarray | tuple[Sequence[str], np.ndarray]],
) -> None:
    """``write_table`` for integer, bool and string columns, with the same
    bytes.

    A column may also be word-coded: a pair of a list of words and an
    integer or bool array of codes, whose row r holds the word at its
    code. A cell that ``csv`` would quote (one holding a comma, a quote
    or a line break, or an empty cell alone in its row) is refused with
    ValueError, as are columns of unequal lengths and codes outside
    their words, before the file is opened. Rows are written
    ``WRITE_BLOCK_ROWS`` at a time, each block as one byte buffer and one
    write: its cells are laid out a column at a time, one row of the
    buffer per character position, each column padded to its widest
    cell in the block; the buffer is transposed once and compacted by
    one mask of the characters kept. An integer column's digits come
    from repeated division by 10 of its magnitudes, in uint32 or, where
    a block needs it, uint64 (``_magnitudes``, ``_put_digits``); a bool
    or text column is coded by one ``np.unique`` over the whole column
    (``_words``), and each code picks its cell's word from a table of
    the words' UTF-8 bytes.
    """
    coded = {i: _words(c) for i, c in enumerate(columns)
             if isinstance(c, tuple) or c.dtype.kind not in "iu"}
    columns = [coded[i][1] if i in coded else c for i, c in enumerate(columns)]
    n_rows = len(columns[0]) if len(columns) else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns of unequal lengths")
    if any(len(codes) and not 0 <= codes.min() <= codes.max() < len(words)
           for words, codes in coded.values()):
        raise ValueError("a code outside its column's words")
    texts = [*header, *(w for words, _ in coded.values() for w in words)]
    for text in texts:
        if any(ch in text for ch in (",", '"', "\n", "\r")):
            raise ValueError(f"cell {text!r} would need CSV quoting")
    # csv quotes a row's only cell when it is empty, so that the row is
    # not a blank line.
    alone = [*header] if len(header) == 1 else []
    if len(columns) == 1 and 0 in coded:
        alone += coded[0][0]
    if "" in alone:
        raise ValueError("an empty cell alone in a row would need CSV quoting")
    tables = {i: _word_table(words) for i, (words, _) in coded.items()}
    ends = [ord(",")] * (len(columns) - 1) + [ord("\n")]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, n_rows, WRITE_BLOCK_ROWS):
            stop = min(start + WRITE_BLOCK_ROWS, n_rows)
            cells = [coded[i][1][start:stop] if i in coded
                     else _magnitudes(c[start:stop])
                     for i, c in enumerate(columns)]
            widths = [len(tables[i][0]) if i in coded else cell[2]
                      for i, cell in enumerate(cells)]
            buf = np.empty((sum(widths) + len(widths), stop - start), np.uint8)
            kept = np.empty(buf.shape, bool)
            at = 0
            for i, (cell, width, end) in enumerate(zip(cells, widths, ends)):
                field = slice(at, at + width)
                if i in coded:
                    word_bytes, word_kept = tables[i]
                    np.take(word_bytes, cell, axis=1, out=buf[field], mode="clip")
                    np.take(word_kept, cell, axis=1, out=kept[field], mode="clip")
                else:
                    _put_digits(*cell[:2], buf[field], kept[field])
                at += width
                buf[at] = end
                kept[at] = True
                at += 1
            fh.write(buf.T[kept.T])


def _words(column: np.ndarray | tuple) -> tuple[list, np.ndarray]:
    """The words of a word-coded column, or the distinct cells of a bool
    or text column as ``str`` would write them; and each row's index
    among them, as unsigned or intp codes."""
    if isinstance(column, tuple):
        words, codes = column
        return list(words), codes.view(np.uint8) if codes.dtype == bool else codes
    if column.dtype.kind == "b":
        return ["False", "True"], column.view(np.uint8)
    words, codes = np.unique(column, return_inverse=True)
    return words.tolist(), codes


def _word_table(words: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``words``, one column each, left-aligned and
    padded with zeros, and the mask of the bytes that are a word's (a
    mask, so that a NUL in a word is kept)."""
    encoded = [w.encode("utf-8") for w in words]
    lengths = np.array([len(e) for e in encoded], np.intp)
    width = int(lengths.max(initial=0))
    table = np.zeros((width, len(encoded)), np.uint8)
    for j, e in enumerate(encoded):
        table[:len(e), j] = np.frombuffer(e, np.uint8)
    return table, np.arange(width)[:, None] < lengths


def _magnitudes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None, int]:
    """An integer block's magnitudes, in uint32 where they are all below
    2**32 and else in uint64; its mask of negatives, None when it has
    none; and the width of its widest cell.

    A negative is negated after the cast, modulo 2**32 or 2**64, so its
    magnitude is exact for every value, INT64_MIN too.
    """
    low, high = int(x.min()), int(x.max())
    largest = max(high, -low)
    m = x.astype(np.uint32 if largest < 2 ** 32 else np.uint64)
    negative = None
    if low < 0:
        negative = x < 0
        np.negative(m, out=m, where=negative)
    return m, negative, len(str(largest)) + (low < 0)


def _put_digits(m: np.ndarray, negative: np.ndarray | None,
                buf: np.ndarray, kept: np.ndarray) -> None:
    """Write magnitudes ``m`` right-aligned into ``buf``, one row per
    character position, with a "-" just before the first digit of each
    ``negative`` (which then has a row of its own, the first); mark the
    characters that are written in ``kept``. ``m`` is used up.
    """
    last = len(buf) - 1
    digits = len(buf) - (negative is not None)
    if negative is not None:
        kept[0] = False         # the row of the longest negatives' "-"
    q, t = np.empty_like(m), np.empty_like(m)
    kept[last] = True
    for k in range(digits):
        row = last - k
        if k:
            np.not_equal(m, 0, out=kept[row])    # no leading zeros
        np.floor_divide(m, 10, out=q)
        np.multiply(q, 10, out=t)
        np.subtract(m, t, out=t)
        np.add(t, ord("0"), out=buf[row], casting="unsafe")
        m, q = q, m
    if negative is not None:
        rows = np.flatnonzero(negative)
        sign_at = kept[:, rows].argmax(axis=0) - 1    # before the first digit
        buf[sign_at, rows] = ord("-")
        kept[sign_at, rows] = True


def write_table(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a comma-separated table; floats as ``.12g``, for byte stability."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([
                format(v, ".12g") if isinstance(v, float) else v for v in row
            ])
