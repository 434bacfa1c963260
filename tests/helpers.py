"""Utilities shared across test modules: event factories and oracles."""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np

from crowdcdr.ingest import CdrEvent, DEFAULT_WINDOW, ObservationColumns
from crowdcdr.social import SocialNetwork
from crowdcdr.spatial import colocation_probability

BASE_TS = DEFAULT_WINDOW.start


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


def make_observations(rows) -> ObservationColumns:
    """Columns of (person_id, state_code, day, first_tower) rows, in row order."""
    table = np.array(list(rows), dtype=np.int64).reshape(-1, 4).T
    return ObservationColumns(*table)


def observation_rows(obs: ObservationColumns) -> list[tuple[int, int, int, int]]:
    """The (person_id, state_code, day, first_tower) rows of columns, in order."""
    return list(zip(obs.person_id.tolist(), obs.state_code.tolist(),
                    obs.day.tolist(), obs.first_tower.tolist()))


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


def brute_force_triples(net: SocialNetwork) -> tuple[dict, dict]:
    """(closed, open) same-state node-set counts via O(n^3) enumeration."""
    closed: dict[int, int] = {}
    open_: dict[int, int] = {}
    for a, b, c in itertools.combinations(sorted(net.state_of), 3):
        state = net.state_of[a]
        if net.state_of[b] != state or net.state_of[c] != state:
            continue
        n_edges = (b in net.adj[a]) + (c in net.adj[a]) + (c in net.adj[b])
        if n_edges == 3:
            closed[state] = closed.get(state, 0) + 1
        elif n_edges == 2:
            open_[state] = open_.get(state, 0) + 1
    return closed, open_


def network_from_truth(truth, *, exclude: int | None = None) -> SocialNetwork:
    """Planted social graph as a SocialNetwork, optionally dropping a state."""
    net = SocialNetwork()
    for node, state in truth.node_state.items():
        if state != exclude:
            net.add_node(node, state)
    for u, v in truth.edges:
        if truth.node_state[u] != exclude and truth.node_state[v] != exclude:
            net.add_edge(u, v)
    return net


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


def colocation_oracle(obs: ObservationColumns, cell_of_tower=None):
    """(totals, p) per (state, day) in sorted key order, by Counters."""
    counts: dict[tuple[int, int], Counter] = {}
    for _, state, day, tower in observation_rows(obs):
        cell = cell_of_tower[tower] if cell_of_tower is not None else tower
        counts.setdefault((state, day), Counter())[cell] += 1
    totals = {key: sum(counts[key].values()) for key in sorted(counts)}
    p = {key: colocation_probability(counts[key]) for key in sorted(counts)}
    return totals, p
