"""Utilities shared across test modules: event factories and oracles."""

from __future__ import annotations

import csv
import io
import itertools
import json
import tempfile
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from fractions import Fraction
from math import asin, ceil, comb, cos, expm1, floor, log1p, radians, sin, sqrt
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

import numpy as np
import pytest

from crowdcdr import geo, ingest
from crowdcdr.attendance import (AdjustmentFactors, _pooled_daily_use,
                                 _stays, _sum_by_day,
                                 cumulative_attendance_by_state,
                                 daily_attendance_by_state)
from crowdcdr.errors import (ConfigurationError, EstimationError, IngestError,
                             SchemaError)
from crowdcdr.ingest import (CDR_COLUMNS, DEFAULT_WINDOW,
                             MAX_BAD_FRACTION, UNKNOWN_STATE, CdrColumns, IngestReport,
                             ObservationColumns, ReducedCdr, StateProfile,
                             StudyWindow,
                             TowerSite, _parse_bool,
                             _parse_int, _parse_state, _reading,
                             _tolerance_error, pack_keys, run_starts,
                             unpack_keys)
from crowdcdr.sbm import DEMO_P_OUT, GroupBiasDemo, group_structure_bias
from crowdcdr.social import (ContactTable, SocialNetwork, TripleCensus,
                             Triples, transitivity)
from crowdcdr.spatial import (CoLocationSeries, StateSpatial, bootstrap_mean_ci,
                              bootstrap_ratio_ci, correlate)

BASE_TS = DEFAULT_WINDOW.start


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the most bytes tracemalloc saw held at
    once while it ran, of what was allocated after it started: arrays
    made before the call are not counted, nor are they when freed."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# ---------------------------------------------------------------------------
# The row-at-a-time CDR reader, the oracle of ``ingest.read_cdr_columns``:
# one ``CdrEvent`` per accepted row, each row validated on its own.


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
    if not window.start <= ts < window.end:
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


def parse_cdr(
    source,
    schema: Mapping[str, str] | None = None,
    *,
    delimiter: str = ",",
    window: StudyWindow = DEFAULT_WINDOW,
    known_towers: set[int] | None = None,
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
    report: IngestReport or None
        Filled in as a side channel: total rows, accepted rows, and a
        per-reason reject counter. Nothing is silently dropped.

    More rows with unparseable fields (including integers outside int64)
    than ``MAX_BAD_FRACTION`` of the rows raises IngestError once the
    stream is exhausted (checked against the running total every 10000
    rows as well, so a corrupt 400M-row file fails early instead of at
    the end).

    Yields events lazily in file order; the input is never materialized,
    so a caller that consumes the stream as it goes runs in constant
    memory.
    """
    if report is None:
        report = IngestReport()
    with _text_stream(source) as stream:
        reader = csv.reader(stream, delimiter=delimiter)
        index = _header_index(reader, schema)
        bad_parse = 0
        for row in reader:
            report.rows += 1
            if report.rows % 10000 == 0 and bad_parse > MAX_BAD_FRACTION * report.rows:
                raise _tolerance_error(bad_parse, report.rows)
            result = _validate_row(row, index, window, known_towers)
            if isinstance(result, str):
                if result == "unparseable":
                    bad_parse += 1
                report.rejects[result] += 1
                continue
            report.accepted += 1
            yield result
        if report.rows and bad_parse / report.rows > MAX_BAD_FRACTION:
            raise _tolerance_error(bad_parse, report.rows)


@contextmanager
def cdr_file(data: bytes) -> Iterator[Path]:
    """``data`` written to a temporary ``cdr.csv``, removed on exit.

    ``ingest.read_cdr`` reads only paths. The file gets a
    directory of its own, not ``tmp_path``: Hypothesis rejects a
    function-scoped fixture in a ``@given`` test.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cdr.csv"
        path.write_bytes(data)
        yield path


#: The ``CdrColumns`` fields that hold bools.
_BOOL_FIELDS = ("is_text", "caller_is_customer", "callee_is_customer")


def from_events(events: Iterable[CdrEvent]) -> CdrColumns:
    """``CdrColumns`` of event records, in order."""
    table = np.array([
        (e.timestamp, e.caller_id, e.callee_id, e.event_kind == "text",
         e.duration, e.tower_id, e.caller_state, e.callee_state,
         e.caller_is_customer, e.callee_is_customer)
        for e in events
    ], dtype=np.int64).reshape(-1, len(CDR_COLUMNS)).T.copy()
    return CdrColumns(*(
        col.astype(bool) if f.name in _BOOL_FIELDS else col
        for f, col in zip(fields(CdrColumns), table)
    ))


# ---------------------------------------------------------------------------
# The column oracles of ``ingest.read_cdr``: what ``report`` derived from
# all accepted rows at once, before the reader reduced each block.


def daily_observations(
    columns: CdrColumns, window: StudyWindow = DEFAULT_WINDOW
) -> ObservationColumns:
    """One observation per (person, day) of the located party: the caller
    when a customer, else the callee.

    The observation keeps the tower of the person's earliest event that
    day; equal timestamps are broken by the smallest tower_id, so the
    result does not depend on input order. Rows come out in (person, day)
    order. One stable sort on the person and a key packing (timestamp,
    tower rank) puts each (person, day)'s earliest event, ties to the
    smallest tower and then to input order, first in its group; the day
    grows with the timestamp, so it needs no sort key of its own.
    ValueError when the timestamp span times the tower count overflows
    int64, which window-screened events never do.
    """
    caller, tower = columns.caller_is_customer, columns.tower_id
    person = np.where(caller, columns.caller_id, columns.callee_id)
    order = np.lexsort((
        pack_keys(columns.timestamp, np.unique(tower, return_inverse=True)[1])[0],
        person))
    order = order[(caller | columns.callee_is_customer)[order]]
    day = (columns.timestamp[order] - window.start) // 86400 + 1
    starts = run_starts(person[order], day)
    first = order[starts]
    # Each full-length array goes before the next is made.
    del order
    day, person = day[starts], person[first]
    state = np.where(caller, columns.caller_state, columns.callee_state)[first]
    return ObservationColumns(person, state, day, tower[first])


def contact_table(columns: CdrColumns) -> ContactTable:
    """The contact table of CDR columns.

    Each side's parties are made distinct on their own, and the two
    short lists are then merged by position, the callee of a row just
    after its caller, so no array holds both parties of every row.
    """
    caller_ok = (columns.caller_is_customer
                 & (columns.caller_state != UNKNOWN_STATE))
    callee_ok = (columns.callee_is_customer
                 & (columns.callee_state != UNKNOWN_STATE))
    callers = _distinct(caller_ok, [columns.caller_id], [columns.caller_state])
    callees = _distinct(callee_ok, [columns.callee_id], [columns.callee_state])
    # Position 2 * row for a caller, 2 * row + 1 for a callee.
    by_position = np.argsort(np.concatenate([2 * callers[0], 2 * callees[0] + 1]))
    party_id, party_state = (np.concatenate(side)[by_position]
                             for side in zip(callers[1], callees[1]))
    first = _first_rows(party_id, party_state)
    _, pairs = _distinct(caller_ok & callee_ok,
                         [columns.caller_id, columns.callee_id],
                         [columns.caller_state, columns.callee_state])
    return ContactTable(party_id[first], party_state[first], *pairs)


def _distinct(ok: np.ndarray, ids: list[np.ndarray], states: list[np.ndarray]
              ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Of the rows where ``ok`` is set, the first of each distinct tuple of
    id and state values: their positions, and those values.

    States (0..23) are sorted as int8, which keeps the sort's copies small.
    """
    values = [c[ok] for c in ids] + [c[ok].astype(np.int8) for c in states]
    first = _first_rows(*values)
    return (np.flatnonzero(ok)[first],
            [v[first].astype(np.int64) for v in values])


def _first_rows(*keys: np.ndarray) -> np.ndarray:
    """Ascending positions of the first row of each distinct key tuple."""
    order = np.lexsort(keys[::-1])      # stable: ties keep row order
    starts = np.ones(order.size, bool)
    for key in keys:                    # one sorted key at a time
        key = key[order]
        starts[1:] &= key[1:] == key[:-1]
    starts[1:] = ~starts[1:]
    return np.sort(order[starts])


def contact_rows(table: ContactTable) -> tuple[list, list]:
    """The (id, state) parties and the (caller_id, callee_id,
    caller_state, callee_state) pairs of a contact table, in order."""
    return (list(zip(table.party_id.tolist(), table.party_state.tolist())),
            list(zip(table.caller_id.tolist(), table.callee_id.tolist(),
                     table.caller_state.tolist(), table.callee_state.tolist())))


def reduced_rows(cdr: ReducedCdr) -> tuple:
    """(observation rows, contact rows, tower ids) of ``read_cdr``'s
    result, as lists, in order."""
    return (observation_rows(cdr.observations), contact_rows(cdr.contacts),
            cdr.towers.tolist())


def events_reduced(events: Iterable[CdrEvent],
                   window: StudyWindow = DEFAULT_WINDOW) -> tuple:
    """What ``reduced_rows`` gives for a file whose accepted events are
    ``events``: the column oracles over all of them."""
    columns = from_events(events)
    return (observation_rows(daily_observations(columns, window)),
            contact_rows(contact_table(columns)),
            np.unique(columns.tower_id).tolist())


def ts_on_day(day: int, offset: int = 0) -> int:
    """Timestamp ``offset`` seconds into the given 1-based study day."""
    return BASE_TS + (day - 1) * 86400 + offset


def make_event(
    *,
    timestamp: int | None = None,
    day: int = 1,
    offset: int = 0,
    caller: int = 100,
    callee: int = 200,
    kind: str = "call",
    duration: int = 30,
    tower: int = 1,
    caller_state: int = 2,
    callee_state: int = 3,
    caller_customer: bool = True,
    callee_customer: bool = True,
) -> CdrEvent:
    if timestamp is None:
        timestamp = ts_on_day(day, offset)
    if kind == "text":
        duration = 0
    return CdrEvent(
        timestamp=timestamp,
        caller_id=caller,
        callee_id=callee,
        event_kind=kind,
        duration=duration,
        tower_id=tower,
        caller_state=caller_state,
        callee_state=callee_state,
        caller_is_customer=caller_customer,
        callee_is_customer=callee_customer,
    )


def event_row(ev: CdrEvent) -> str:
    """One CSV line in the canonical column order."""
    return ",".join(
        str(v)
        for v in (
            ev.timestamp,
            ev.caller_id,
            ev.callee_id,
            ev.event_kind,
            ev.duration,
            ev.tower_id,
            ev.caller_state,
            ev.callee_state,
            int(ev.caller_is_customer),
            int(ev.callee_is_customer),
        )
    )


def columns_as_events(columns: CdrColumns) -> list[CdrEvent]:
    """The events a CdrColumns holds, as CdrEvent records."""
    return [
        CdrEvent(ts, a, b, "text" if t else "call", dur, tower, sa, sb, ca, cb)
        for ts, a, b, t, dur, tower, sa, sb, ca, cb in zip(
            *(getattr(columns, f).tolist() for f in (
                "timestamp", "caller_id", "callee_id", "is_text", "duration",
                "tower_id", "caller_state", "callee_state",
                "caller_is_customer", "callee_is_customer")))
    ]


def make_observations(rows) -> ObservationColumns:
    """Columns of (person_id, state_code, day, first_tower) rows, in row order."""
    table = np.array(list(rows), dtype=np.int64).reshape(-1, 4).T
    return ObservationColumns(*table)


def observation_rows(obs: ObservationColumns) -> list[tuple[int, int, int, int]]:
    """The (person_id, state_code, day, first_tower) rows of columns, in order."""
    return list(zip(obs.person_id.tolist(), obs.state_code.tolist(),
                    obs.day.tolist(), obs.first_tower.tolist()))


def write_columns_by_format(
    path, header: Sequence[str], columns: Sequence[np.ndarray]
) -> None:
    """The oracle of ``ingest.write_columns``: each block of
    ``ingest.WRITE_BLOCK_ROWS`` rows as one %-format of its cells, as
    Python objects; a text cell that ``csv`` would quote for a comma, a
    quote or a line break is refused with ValueError.
    """
    texts = [*header, *(v for c in columns if c.dtype.kind not in "biu"
                        for v in np.unique(c).tolist())]
    for text in texts:
        if any(ch in text for ch in (",", '"', "\n", "\r")):
            raise ValueError(f"cell {text!r} would need CSV quoting")
    row = ",".join(["%s"] * len(columns)) + "\n"
    # Columns of one dtype stack as that dtype, and integer columns of
    # any widths as int64; other mixes as Python objects, so that no cell
    # takes another column's type.
    dtypes = {c.dtype for c in columns}
    dtype = (None if len(dtypes) == 1
             else np.int64 if all(d.kind in "iu" and np.can_cast(d, np.int64)
                                  for d in dtypes)
             else object)
    n_rows = len(columns[0]) if len(columns) else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, n_rows, ingest.WRITE_BLOCK_ROWS):
            block = np.stack([c[start:start + ingest.WRITE_BLOCK_ROWS]
                              for c in columns], axis=1, dtype=dtype)
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


CDR_HEADER = (
    "timestamp,caller_id,callee_id,kind,duration,tower_id,"
    "caller_state,callee_state,caller_is_customer,callee_is_customer"
)


def cdr_text(events) -> str:
    return "\n".join([CDR_HEADER, *(event_row(e) for e in events)]) + "\n"


# ---------------------------------------------------------------------------
# Independent oracles (deliberately written with different algorithms than
# the library: exhaustive enumeration over small inputs)


def pair_enumeration_probability(counts) -> Fraction | None:
    """Same-cell fraction over all unordered pairs, in exact arithmetic.

    ``counts`` maps cell -> occupancy, or is a plain occupancy sequence.
    """
    items = counts.items() if hasattr(counts, "items") else enumerate(counts)
    people = [cell for cell, n in items for _ in range(n)]
    if len(people) < 2:
        return None
    pairs = list(itertools.combinations(people, 2))
    return Fraction(sum(1 for a, b in pairs if a == b), len(pairs))


def dict_graph(net: SocialNetwork) -> tuple[dict[int, int], dict[int, set[int]]]:
    """(node -> state, node -> neighbour set) of a network, by plain dicts."""
    state_of = dict(zip(net.nodes(), net.state.tolist()))
    adj: dict[int, set[int]] = {v: set() for v in state_of}
    for a, b in net.edges():
        adj[a].add(b)
        adj[b].add(a)
    return state_of, adj


def brute_force_triples(net: SocialNetwork) -> tuple[dict, dict]:
    """(closed, open) same-state node-set counts via O(n^3) enumeration."""
    state_of, adj = dict_graph(net)
    closed: dict[int, int] = {}
    open_: dict[int, int] = {}
    for a, b, c in itertools.combinations(sorted(state_of), 3):
        state = state_of[a]
        if state_of[b] != state or state_of[c] != state:
            continue
        n_edges = (b in adj[a]) + (c in adj[a]) + (c in adj[b])
        if n_edges == 3:
            closed[state] = closed.get(state, 0) + 1
        elif n_edges == 2:
            open_[state] = open_.get(state, 0) + 1
    return closed, open_


def _same_state_adjacency(net: SocialNetwork) -> dict[int, dict[int, list[int]]]:
    """state -> node -> sorted same-state neighbor list."""
    state_of, adj = dict_graph(net)
    per_state: dict[int, dict[int, list[int]]] = {}
    for node, state in state_of.items():
        nbrs = sorted(u for u in adj[node] if state_of[u] == state)
        per_state.setdefault(state, {})[node] = nbrs
    return per_state


def _count_state_triples(adj) -> tuple[int, int]:
    """(closed, open) node-set counts for one state's induced subgraph.

    Triangles by neighbor intersection with a degree ordering, so each is
    seen exactly once; open triples are length-2 paths minus the three
    paths inside each triangle.
    """
    rank = {
        v: i
        for i, v in enumerate(sorted(adj, key=lambda v: (len(adj[v]), v)))
    }
    nbr_sets = {v: set(ns) for v, ns in adj.items()}
    triangles = 0
    paths = 0
    for v, nbrs in adj.items():
        d = len(nbrs)
        paths += d * (d - 1) // 2
        higher = [u for u in nbrs if rank[u] > rank[v]]
        for i, u in enumerate(higher):
            u_set = nbr_sets[u]
            for w in higher[i + 1:]:
                if w in u_set:
                    triangles += 1
    return triangles, paths - 3 * triangles


def census_oracle(net: SocialNetwork) -> TripleCensus:
    """Per-state census by degree-ordered triangle counting over dicts."""
    census = TripleCensus()
    for state, adj in sorted(_same_state_adjacency(net).items()):
        census.closed[state], census.open[state] = _count_state_triples(adj)
    return census


def enumerate_connected_triples(net: SocialNetwork) -> list[tuple]:
    """(state, sorted nodes, closed) rows in the library's order, by loops."""
    triples = []
    for state, adj in sorted(_same_state_adjacency(net).items()):
        nbr_sets = {v: set(ns) for v, ns in adj.items()}
        for v in sorted(adj):
            for u, w in itertools.combinations(adj[v], 2):
                if w in nbr_sets[u]:
                    if v < u:    # count each triangle once, at its least node
                        triples.append((state, (v, u, w), True))
                else:
                    triples.append((state, tuple(sorted((u, v, w))), False))
    return triples


def triple_rows(triples: Triples) -> list[tuple]:
    """(state, nodes, closed) rows of a Triples value, in order."""
    return list(zip(triples.state.tolist(),
                    map(tuple, triples.nodes.tolist()),
                    triples.closed.tolist()))


def truth_rows(truth) -> dict:
    """Every field of a ``synth.GroundTruth`` as plain values, for ``==``.

    Arrays keep their dtype and dicts their order. Nothing is shared with
    ``truth``, so a later write to it leaves the rows as they are.
    """
    out = {}
    for f in fields(truth):
        v = getattr(truth, f.name)
        if isinstance(v, np.ndarray):
            v = (v.dtype.str, v.tolist())
        elif isinstance(v, Triples):
            v = triple_rows(v)
        elif isinstance(v, (dict, list)):
            v = list(v.items() if isinstance(v, dict) else v)
        out[f.name] = v
    return out


def subsample_oracle(rows, seed: int) -> list[tuple]:
    """Greedy node-disjoint pass over a seeded permutation, by a set."""
    rng = np.random.default_rng(seed)
    used: set[int] = set()
    selected = []
    for idx in rng.permutation(len(rows)):
        row = rows[idx]
        a, b, c = row[1]
        if a in used or b in used or c in used:
            continue
        used.update(row[1])
        selected.append(row)
    return selected


def _interleave(ok_a: np.ndarray, ok_b: np.ndarray, *pairs) -> list[np.ndarray]:
    """Kept values of each (column_a, column_b) pair, in row order, a first.

    Only the kept entries are gathered: each one's slot is its rank on
    its own side plus the number of kept entries of the other side that
    come before it.
    """
    a, b = np.flatnonzero(ok_a), np.flatnonzero(ok_b)
    slot_a = np.arange(a.size) + np.searchsorted(b, a)
    slot_b = np.arange(b.size) + np.searchsorted(a, b, side="right")
    merged = []
    for col_a, col_b in pairs:
        out = np.empty(a.size + b.size, np.result_type(col_a, col_b))
        out[slot_a], out[slot_b] = col_a[a], col_b[b]
        merged.append(out)
    return merged


def build_network_oracle(
    events: CdrColumns,
    *,
    exclude_local: bool = True,
    local_state: int | None = None,
) -> SocialNetwork:
    """``social.build_network`` as it was before the contact table: the
    kept parties of every row interleaved, and every row whose two
    parties are kept as an edge."""
    def kept(is_customer: np.ndarray, state: np.ndarray) -> np.ndarray:
        ok = is_customer & (state != UNKNOWN_STATE)
        if exclude_local and local_state is not None:
            ok &= state != local_state
        return ok

    caller_ok = kept(events.caller_is_customer, events.caller_state)
    callee_ok = kept(events.callee_is_customer, events.callee_state)
    ids, states = _interleave(
        caller_ok, callee_ok,
        (events.caller_id, events.callee_id),
        (events.caller_state, events.callee_state),
    )
    both = np.flatnonzero(caller_ok & callee_ok)
    edges = np.stack([events.caller_id[both], events.callee_id[both]], axis=1)
    return SocialNetwork(ids, states, edges)


def network_from_truth(truth, *, exclude: int | None = None) -> SocialNetwork:
    """Planted social graph as a SocialNetwork, optionally dropping a state."""
    keep = {v: s for v, s in truth.node_state.items() if s != exclude}
    return SocialNetwork(
        list(keep), list(keep.values()),
        [(u, v) for u, v in truth.edges if u in keep and v in keep],
    )


def sample_grouped_state(
    rng: np.random.Generator,
    *,
    state: int,
    g: int,
    m: int,
    p_in: float,
    p_out: float,
    first_node: int = 0,
) -> tuple[SocialNetwork, dict[int, int]]:
    """One state's planted-partition graph; returns (network, group map).

    Nodes are consecutive integers starting at ``first_node``, group
    index is node order // m. Within-group pairs are independent
    Bernoulli(p_in); cross-group edges are drawn per group pair by a
    Binomial(m*m, p_out) count followed by a uniform choice of that
    many distinct pairs, which matches independent sampling in
    distribution without touching all m*m slots when p_out is small.
    ``sbm.joint_bias_demo`` draws its within-group edges in this order.
    """
    nodes = np.arange(first_node, first_node + g * m)
    pair_u, pair_v = np.triu_indices(m, k=1)
    edges = []
    for gi in range(g):
        keep = rng.random(pair_u.size) < p_in
        base = first_node + gi * m
        edges.append(np.stack([pair_u[keep], pair_v[keep]], axis=1) + base)
    if p_out > 0:
        for gi in range(g):
            for gj in range(gi + 1, g):
                n_edges = rng.binomial(m * m, p_out)
                if n_edges == 0:
                    continue
                slots = rng.choice(m * m, size=n_edges, replace=False)
                edges.append(np.stack([
                    first_node + gi * m + slots // m,
                    first_node + gj * m + slots % m,
                ], axis=1))
    net = SocialNetwork(nodes, np.full(nodes.size, state),
                        np.concatenate(edges) if edges else ())
    return net, dict(zip(nodes.tolist(), ((nodes - first_node) // m).tolist()))


def stays_oracle(obs: ObservationColumns) -> list[tuple[int, int]]:
    """Per-person (days_active, stay_length) pairs by a dict loop."""
    per_person: dict[int, tuple[int, int, int]] = {}
    for person, _, day, _ in observation_rows(obs):
        prev = per_person.get(person)
        if prev is None:
            per_person[person] = (1, day, day)
        else:
            n, first, last = prev
            per_person[person] = (n + 1, min(first, day), max(last, day))
    return [(n, last - first + 1) for n, first, last in per_person.values()]


def first_day_counts_oracle(obs: ObservationColumns) -> dict[tuple[int, int], int]:
    """Persons per (state, day) of their first observation, by a dict loop."""
    first: dict[int, tuple[int, int]] = {}
    for person, state, day, _ in observation_rows(obs):
        prev = first.get(person)
        if prev is None or day < prev[1]:
            first[person] = (state, day)
    return dict(Counter(first.values()))


def colocation_series_loop(
    observations: ObservationColumns,
    *,
    n_days: int,
    cell_of_tower: Mapping[int, int] | None = None,
) -> CoLocationSeries:
    """``spatial.build_colocation_series`` as it was before it took each
    group's sums with ``np.add.reduceat``: cells by ``np.unique`` over
    every observation, and one ``colocation_probability`` call per
    (state, day) group."""
    towers, cell = np.unique(observations.first_tower, return_inverse=True)
    if cell_of_tower is not None:
        owner = np.array([cell_of_tower[t] for t in towers.tolist()], np.int64)
        cell = np.unique(owner, return_inverse=True)[1][cell]
    key, bounds = pack_keys(observations.state_code, observations.day, cell)
    key, occupancy = np.unique(key, return_counts=True)
    groups = np.flatnonzero(run_starts(key // bounds[-1][1]))
    state, day, _ = unpack_keys(key[groups], bounds)
    series = CoLocationSeries(n_days=n_days)
    for group, counts in zip(zip(state.tolist(), day.tolist()),
                             np.split(occupancy, groups[1:])):
        counts = counts.tolist()
        series.totals[group] = sum(counts)
        series.p[group] = colocation_probability(counts)
    series.states = sorted({s for s, _ in series.p})
    return series


def colocation_oracle(obs: ObservationColumns, cell_of_tower=None):
    """(totals, p) per (state, day) in sorted key order, by Counters."""
    counts: dict[tuple[int, int], Counter] = {}
    for _, state, day, tower in observation_rows(obs):
        cell = cell_of_tower[tower] if cell_of_tower is not None else tower
        counts.setdefault((state, day), Counter())[cell] += 1
    totals = {key: sum(counts[key].values()) for key in sorted(counts)}
    p = {key: colocation_probability(counts[key]) for key in sorted(counts)}
    return totals, p


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


def dedupe_daily(
    events, *, window: StudyWindow = DEFAULT_WINDOW
) -> ObservationColumns:
    """Collapse events to at most one observation per (person, day).

    The dict-based oracle of ``ingest.read_cdr``'s observations: the earliest
    event's tower, equal timestamps broken by the smallest tower_id,
    output sorted by (person, day).
    """
    best: dict[tuple[int, int], tuple[int, int, int]] = {}
    for ev in events:
        party = located_party(ev)
        if party is None:
            continue
        pid, state = party
        day = (ev.timestamp - window.start) // 86400 + 1
        key = (pid, day)
        cand = (ev.timestamp, ev.tower_id, state)
        prev = best.get(key)
        if prev is None or cand[:2] < prev[:2]:
            best[key] = cand
    table = np.array([
        (pid, state, day, tower)
        for (pid, day), (_, tower, state) in sorted(best.items())
    ], dtype=np.int64).reshape(-1, 4).T
    return ObservationColumns(*table)


def count_unique_handsets(
    observations: ObservationColumns,
) -> dict[tuple[int, int], int]:
    """Distinct-person count per (state, day); oracle of ``unique_handsets``."""
    return dict(Counter(zip(observations.state_code.tolist(),
                            observations.day.tolist())))


def unique_handsets_by_sort(
    observations: ObservationColumns,
) -> dict[tuple[int, int], int]:
    """``ObservationColumns.unique_handsets`` as it was before it counted
    by ``np.bincount``: packed (state, day) keys sorted in place, one run
    per (state, day)."""
    key, bounds = pack_keys(observations.state_code, observations.day)
    key.sort()
    starts = np.flatnonzero(run_starts(key))
    sizes = np.diff(starts, append=key.size)
    state, day = unpack_keys(key[starts], bounds)
    return dict(zip(zip(state.tolist(), day.tolist()), sizes.tolist()))


def towers_with_traffic(events) -> set[int]:
    return {ev.tower_id for ev in events}


def stratified_stays(k, config, max_stay=None, phase=0.5) -> list[int]:
    """k stays at quantiles (j + phase) / k, one at a time.

    The scalar oracle of ``synth._stratified_stays`` for one cohort.
    """
    p = 1.0 / (config.mean_stay - config.min_stay + 1.0)
    mass = 1.0
    if max_stay is not None:
        if max_stay < config.min_stay:
            raise ConfigurationError(
                f"max_stay {max_stay} below min_stay {config.min_stay}"
            )
        mass = -expm1(log1p(-p) * (max_stay - config.min_stay + 1))
    stays = []
    for j in range(k):
        q = (j + phase) / k * mass
        g = max(1, ceil(log1p(-q) / log1p(-p)))
        stays.append(config.min_stay - 1 + g)
    return stays


def interior_quotas(stays, sizes, u) -> list[list[int]]:
    """The floor-with-carry quotas of ``synth._interior_quotas``, with an
    explicit floor and cap at the cohort's size."""
    carry = 0.5
    out = []
    for s, k in zip(stays, sizes):
        quota = []
        rate = (u * s - 2.0) / (s - 2.0) if s > 2 else 0.0
        mu = k * rate
        for _ in range(s - 2 if rate > 0 else 0):
            x = mu + carry
            take = min(int(floor(x + 1e-9)), k)
            carry = x - take
            quota.append(take)
        out.append(quota)
    return out


def activity_slots(arrivals, stays, daily_use, rng):
    """(persons, days, n_active) by per-cohort, per-slot loops.

    The loop oracle of ``synth._schedule`` and its ``persons``: the same
    draws from ``rng`` in the same order.
    """
    n = len(arrivals)
    n_active = np.full(n, 2, dtype=np.int64)
    persons: list[int] = []
    days: list[int] = []
    cohorts: dict[tuple[int, int], list[int]] = {}
    for i in range(n):
        cohorts.setdefault((int(arrivals[i]), int(stays[i])), []).append(i)
        persons += [i, i]
        days += [int(arrivals[i]), int(arrivals[i]) + int(stays[i]) - 1]
    carry = 0.5
    for (a, s), members in sorted(cohorts.items()):
        if s <= 2:
            continue
        rate = (daily_use * s - 2.0) / (s - 2.0)
        if rate <= 0:
            continue
        k = len(members)
        order = [members[j] for j in rng.permutation(k)]
        mu = k * rate
        rot = 0
        for d in range(a + 1, a + s - 1):
            x = mu + carry
            take = min(int(floor(x + 1e-9)), k)
            carry = x - take
            for t in range(take):
                idx = order[(rot + t) % k]
                persons.append(idx)
                days.append(d)
                n_active[idx] += 1
            rot = (rot + take) % k
    return persons, days, n_active


def mirrored_voronoi_cells(
    towers, *, pad_km=geo.DEFAULT_PAD_KM, bbox=None, origin=None
) -> dict[int, tuple[np.ndarray, float]]:
    """tower_id -> (vertices in angular order, area) from scipy's Voronoi.

    The oracle of ``geo.build_tessellation``: the diagram is built over the
    towers plus their reflections across each box side, which makes the
    box edges Voronoi boundaries. Skips the calling test without scipy.
    """
    spatial = pytest.importorskip("scipy.spatial")
    active = sorted((t for t in towers if t.active), key=lambda t: t.tower_id)
    if origin is None:
        origin = geo.tower_origin(towers)
    pts = np.array([geo.project_tower(t, origin) for t in active])
    if bbox is None:
        xmin, ymin = pts.min(axis=0) - pad_km
        xmax, ymax = pts.max(axis=0) + pad_km
    else:
        xmin, ymin, xmax, ymax = bbox
    left = pts.copy()
    left[:, 0] = 2 * xmin - pts[:, 0]
    right = pts.copy()
    right[:, 0] = 2 * xmax - pts[:, 0]
    low = pts.copy()
    low[:, 1] = 2 * ymin - pts[:, 1]
    high = pts.copy()
    high[:, 1] = 2 * ymax - pts[:, 1]
    vor = spatial.Voronoi(np.vstack([pts, left, right, low, high]))
    cells = {}
    for i, tower in enumerate(active):
        verts = vor.vertices[vor.regions[vor.point_region[i]]]
        angles = np.arctan2(verts[:, 1] - pts[i, 1], verts[:, 0] - pts[i, 0])
        verts = verts[np.argsort(angles)]
        x, y = verts[:, 0], verts[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(y, np.roll(x, 1)))
        cells[tower.tower_id] = (verts, float(area))
    return cells


def clip_cells_matrix(
    pts: np.ndarray, bbox: tuple[float, float, float, float]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``geo._clip_cells`` from the full towers x towers squared-distance
    matrix and its stable argsort, each row's towers in its order.

    The oracle of the bucket-grid candidates: the same padded vertices,
    counts and clips per cell.
    """
    xmin, ymin, xmax, ymax = bbox
    n = len(pts)
    box = [[xmin, ymin], [xmax, ymin], [xmax, ymax], [xmin, ymax]]
    poly = np.tile(np.array(box, dtype=float), (n, 1, 1))   # count[i] rows used
    count = np.full(n, 4)
    clips = np.zeros(n, np.int64)
    d2 = ((pts[:, None] - pts[None]) ** 2).sum(axis=2)
    order = np.argsort(d2, axis=1, kind="stable")   # column 0 is the tower
    live = np.arange(n)
    for k in range(1, n):   # one Sutherland-Hodgman pass over the live cells
        slots = np.arange(poly.shape[1])
        valid = slots < count[live, None]
        reach2 = np.where(valid, ((poly[live] - pts[live, None]) ** 2).sum(axis=2), 0)
        near = d2[live, order[live, k]] <= 4 * reach2.max(axis=1)
        live, valid = live[near], valid[near]
        if not live.size:
            break
        clips[live] += 1
        cell, own, other = poly[live], pts[live], pts[order[live, k]]
        side = ((cell - (own + other)[:, None] / 2) * (other - own)[:, None]).sum(2)
        succ = (slots + 1) % count[live, None]
        side_next = np.take_along_axis(side, succ, axis=1)
        inside, crossing = valid & (side <= 0), valid & (side * side_next < 0)
        emitted = inside + crossing.astype(int)
        slot = np.cumsum(emitted, axis=1) - emitted
        count[live] = emitted.sum(axis=1)
        if count.max() > poly.shape[1]:
            poly = np.pad(poly, ((0, 0), (0, count.max() - poly.shape[1]), (0, 0)))
        r, c = np.nonzero(inside)
        poly[live[r], slot[r, c]] = cell[r, c]
        r, c = np.nonzero(crossing)
        t = (side[r, c] / (side[r, c] - side_next[r, c]))[:, None]
        a, b = cell[r, c], cell[r, succ[r, c]]
        poly[live[r], slot[r, c] + inside[r, c]] = a + t * (b - a)
    return poly, count, clips


def serving_towers_loop(towers: Sequence[TowerSite]) -> dict[int, int]:
    """``geo.serving_towers`` by one scan of every active tower per silent
    tower: the least squared distance, ties to the smallest id."""
    active = geo.project_active(towers)
    mapping = {t.tower_id: t.tower_id for t in active.towers}
    for t in towers:
        if not t.active:
            d2 = ((active.pts - geo.project_tower(t, active.origin)) ** 2).sum(axis=1)
            mapping[t.tower_id] = active.towers[int(d2.argmin())].tower_id
    return mapping


def tessellate(towers: Sequence[TowerSite], origin=None, *,
               pad_km=geo.DEFAULT_PAD_KM, bbox=None) -> list[geo.VoronoiCell]:
    """``geo.build_tessellation`` of ``towers`` projected about ``origin``,
    by default their centroid, as ``cli.stage_spatial`` projects them."""
    return geo.build_tessellation(geo.project_active(towers, origin),
                                  pad_km=pad_km, bbox=bbox)


def serving_towers(towers: Sequence[TowerSite]) -> dict[int, int]:
    """``geo.serving_towers`` as ``cli.stage_spatial`` calls it."""
    return geo.serving_towers(towers, geo.project_active(towers))


def finish_cells_loop(poly, count, pts) -> list[tuple[np.ndarray, float]]:
    """(vertices, area) of each clipped cell, finished one cell at a time.

    The oracle of ``geo.build_tessellation``'s array-wide finishing of
    the padded cells ``geo._clip_cells`` returns: drop each vertex within
    1e-9 of its predecessor, sort by angle about the tower, shoelace area.
    """
    cells = []
    for i in range(len(pts)):
        verts = poly[i, : count[i]]
        gap = np.abs(verts - np.roll(verts, 1, axis=0)).max(axis=1)
        verts = verts[gap > 1e-9]
        angles = np.arctan2(verts[:, 1] - pts[i, 1], verts[:, 0] - pts[i, 0])
        verts = verts[np.argsort(angles)]
        x, y = verts[:, 0], verts[:, 1]
        area = 0.5 * abs(np.dot(x, np.roll(y, 1)) - np.dot(y, np.roll(x, 1)))
        cells.append((verts, float(area)))
    return cells


def joint_bias_demo_oracle(*, m=100, p_in=0.2, g_b=50, seed=0) -> GroupBiasDemo:
    """``sbm.joint_bias_demo`` with triangles as int64 trace(A @ A @ A) / 6.

    Draws in the same order as the demo, so the results are equal.
    """
    p_out = DEMO_P_OUT
    rng = np.random.default_rng(seed)
    pair_u, pair_v = np.triu_indices(m, k=1)
    census = TripleCensus()
    estimated = {}
    groups = ((1, 1), (2, g_b))
    for state, g in groups:
        trace = paths = edges = 0
        for _ in range(g):
            block = np.zeros((m, m), dtype=np.int64)
            block[pair_u, pair_v] = rng.random(pair_u.size) < p_in
            block += block.T
            deg = block.sum(axis=1)
            trace += int(np.trace(block @ block @ block))
            paths += int((deg * (deg - 1) // 2).sum())
            edges += int(deg.sum()) // 2
        closed = trace // 6
        census.closed[state] = closed
        census.open[state] = paths - 3 * closed
        cross = rng.binomial(comb(g, 2) * m * m, p_out) if g >= 2 else 0
        estimated[state] = (edges + int(cross)) / comb(g * m, 2)
    analytic = {s: group_structure_bias(g, m, p_in, p_out) for s, g in groups}
    return GroupBiasDemo(
        analytic=analytic,
        estimated=estimated,
        ratio_estimated=estimated[1] / estimated[2],
        ratio_analytic=analytic[1] / analytic[2],
        within_transitivity={s: transitivity(census, s) for s, _ in groups},
        triples={s: (census.closed[s], census.open[s]) for s, _ in groups},
    )


def spatial_report_loop(series: CoLocationSeries, high, low, *,
                        replicates=1000, seed=0) -> dict:
    """``spatial.aggregate_q`` then ``attach_bootstrap_cis``, each state's
    defined days looked up day by day in every list they build."""
    def values(state, days):
        return [series.p[(state, d)] for d in days
                if series.p.get((state, d)) is not None]

    all_days = range(1, series.n_days + 1)
    out = {}
    for state in series.states:
        vals = [values(state, days) for days in (all_days, sorted(high), sorted(low))]
        q_a, q_h, q_l = (float(np.mean(v)) if v else None for v in vals)
        q_d = q_h / q_l if q_h is not None and q_l is not None and q_l > 0 else None
        out[state] = StateSpatial(state, q_a, q_h, q_l, q_d,
                                  n_days_defined=len(vals[0]))
    for k, state in enumerate(sorted(out)):
        stat = out[state]
        a, hv, lv = (values(state, days)
                     for days in (all_days, sorted(high), sorted(low)))
        if len(a) >= 2:
            stat.ci_a = bootstrap_mean_ci(a, replicates=replicates,
                                          seed=seed * 1_000_003 + 2 * k)
        if len(hv) >= 2 and len(lv) >= 2 and stat.q_d is not None:
            stat.ci_d = bootstrap_ratio_ci(hv, lv, replicates=replicates,
                                           seed=seed * 1_000_003 + 2 * k + 1)
    return out


def correlation_p_value_oracle(values, mean_log_rep, *, n_permutations=199,
                               seed=0) -> float | None:
    """``spatial.correlation_p_value`` with one ``np.corrcoef`` per shuffle."""
    observed = correlate(values, mean_log_rep)
    if observed is None:
        return None
    states = [s for s in sorted(values)
              if values[s] is not None and s in mean_log_rep]
    a = np.array([values[s] for s in states], dtype=float)
    b = np.array([mean_log_rep[s] for s in states], dtype=float)
    rng = np.random.default_rng(seed)
    hits = 0
    for _ in range(n_permutations):
        rho = float(np.corrcoef(a, b[rng.permutation(b.size)])[0, 1])
        if abs(rho) >= abs(observed) - 1e-12:
            hits += 1
    return (1 + hits) / (n_permutations + 1)


# ---------------------------------------------------------------------------
# Public functions no pipeline stage calls, kept as oracles and as the
# compositions the tests call. The attendance and tower ones wrap the
# private code that ``report`` runs.


def estimate_daily_use(stays: Iterable[tuple[int, int]]) -> float:
    """Pooled daily-use probability from (days_active, stay_length) pairs.

    Total days the phone was used across all customers divided by the
    total length of stay across all customers, where a stay runs from the
    first to the last active day inclusive.
    """
    active, length = np.array(list(stays), dtype=np.int64).reshape(-1, 2).T
    return _pooled_daily_use(active, length)


def stays_from_observations(
    observations: ObservationColumns,
) -> list[tuple[int, int]]:
    """Per-person (days_active, stay_length) pairs, in person order.

    Stay length is last minus first active day plus one; a person seen
    on multiple visits is treated as one stay.
    """
    active, length, _ = _stays(observations)
    return list(zip(active.tolist(), length.tolist()))


def daily_attendance(
    counts: Mapping[tuple[int, int], int],
    profiles: Mapping[int, StateProfile],
    factors: AdjustmentFactors,
) -> dict[int, float]:
    """Daily attendance estimate per day, summed over states.

    State-specific market shares are applied before summation.
    """
    return _sum_by_day(daily_attendance_by_state(counts, profiles, factors))


def first_day_counts(
    observations: ObservationColumns,
) -> dict[tuple[int, int], int]:
    """Number of persons whose first observation falls on each (state, day)."""
    return _stays(observations)[2].unique_handsets()


def cumulative_attendance(
    observations: ObservationColumns,
    profiles: Mapping[int, StateProfile],
    factors: AdjustmentFactors,
    *,
    total_days: int,
) -> dict[int, float]:
    """Cumulative attendance per day (nondecreasing), summed over states."""
    return _sum_by_day(cumulative_attendance_by_state(
        first_day_counts(observations), profiles, factors, total_days=total_days
    ), range(1, total_days + 1))


def haversine_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance; the oracle the planar projection is checked against."""
    p1, p2 = radians(lat1), radians(lat2)
    dp = p2 - p1
    dl = radians(lon2 - lon1)
    a = sin(dp / 2) ** 2 + cos(p1) * cos(p2) * sin(dl / 2) ** 2
    return 2 * geo.EARTH_RADIUS_KM * asin(sqrt(a))


def nearest_active_tower(
    point: tuple[float, float],
    towers: Sequence[TowerSite],
    *,
    origin: tuple[float, float] | None = None,
) -> int:
    """Active tower nearest to a planar point; ties go to the smallest id.

    A plain linear scan, exact by construction; it doubles as the oracle
    for the tessellation's ownership relation.
    """
    projected = geo.project_active(towers, origin)
    active, pts = projected.towers, projected.pts
    d2 = ((pts - np.asarray(point, dtype=float)) ** 2).sum(axis=1)
    best = min(range(len(active)), key=lambda i: (d2[i], active[i].tower_id))
    return active[best].tower_id


def group_structure_bias_se(g: int, m: int, p_in: float, p_out: float) -> float:
    """Sampling SE of the estimated average under independent edges."""
    within = g * comb(m, 2)
    total = comb(g * m, 2)
    var = within * p_in * (1 - p_in) + (total - within) * p_out * (1 - p_out)
    return sqrt(var) / total


def colocation_probability(
    counts: Mapping[int, int] | Sequence[int], n_total: int | None = None
) -> float | None:
    """Same-cell probability for a random pair; None when fewer than 2 persons."""
    values = list(counts.values()) if isinstance(counts, Mapping) else list(counts)
    total = sum(values)
    if n_total is not None and n_total != total:
        raise EstimationError(f"cell counts sum to {total}, expected {n_total}")
    if total < 2:
        return None
    return sum(n * (n - 1) for n in values) / (total * (total - 1))


def scenario_to_json(config, path) -> None:
    blob = asdict(config)
    blob["states"] = [asdict(s) for s in config.states]
    Path(path).write_text(json.dumps(blob, indent=2) + "\n", encoding="utf-8")


def cell_counts(truth) -> dict[tuple[int, int], dict[int, int]]:
    """(state, day) -> {cell index: active persons placed there}."""
    out: dict[tuple[int, int], dict[int, int]] = {}
    for s, d, c in zip(truth.slot_state, truth.slot_day, truth.slot_cell):
        cell = out.setdefault((int(s), int(d)), {})
        cell[int(c)] = cell.get(int(c), 0) + 1
    return out
