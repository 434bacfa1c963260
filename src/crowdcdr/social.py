"""Social homophily through same-state connected triples.

The communication network places an edge between any two customers who
exchanged at least one call or text over the full window (calls and
texts merged; either alone would be too sparse). Same-state triples --
three nodes of one state joined by two edges (open) or three (closed) --
are censused per state, and the closed fraction is modeled as

    logit(pr(closed)) = beta0 + beta1 * log10(W)

with W the state's share of cumulative attendance. Because one person
can sit in many triples, plain standard errors are wrong; inference runs
on a random subset of triples with pairwise-disjoint node sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import erfc, exp, log10, sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import AnalysisError, ConvergenceError, SeparationError
from .ingest import CdrColumns, CdrEvent, UNKNOWN_STATE

Z_95 = 1.96


class SocialNetwork:
    """Simple undirected graph over customers with known state."""

    def __init__(self):
        self.state_of: dict[int, int] = {}
        self.adj: dict[int, set[int]] = {}

    def add_node(self, person: int, state: int) -> None:
        if person not in self.state_of:
            self.state_of[person] = state
            self.adj[person] = set()

    def add_edge(self, a: int, b: int) -> None:
        if a == b:
            return
        self.adj[a].add(b)
        self.adj[b].add(a)

    @property
    def n_nodes(self) -> int:
        return len(self.state_of)

    @property
    def n_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def nodes(self) -> Iterable[int]:
        return self.state_of.keys()

    def edges(self) -> Iterable[tuple[int, int]]:
        for a, nbrs in self.adj.items():
            for b in nbrs:
                if a < b:
                    yield a, b

    def states(self) -> list[int]:
        return sorted(set(self.state_of.values()))


def build_network(
    events: CdrColumns | Iterable[CdrEvent],
    *,
    exclude_local: bool = True,
    local_state: int | None = None,
) -> SocialNetwork:
    """Network over customers appearing in any venue event.

    Nodes are customer parties with a known state; an edge requires both
    parties to be customers (otherwise the counterpart's state is
    unobservable). Multiple contacts collapse to one edge. When
    ``exclude_local`` is set and ``local_state`` is given, residents of
    the venue's host state are dropped: their phone use is not comparable
    to visitors'. Nodes are added in order of first appearance, caller
    before callee, each with the state of that appearance. ``CdrEvent``
    records are converted to columns first.
    """
    if not isinstance(events, CdrColumns):
        events = CdrColumns.from_events(events)
    ids = np.stack([events.caller_id, events.callee_id], axis=1)
    states = np.stack([events.caller_state, events.callee_state], axis=1)
    ok = np.stack([events.caller_is_customer, events.callee_is_customer], axis=1)
    ok &= states != UNKNOWN_STATE
    if exclude_local and local_state is not None:
        ok &= states != local_state
    net = SocialNetwork()
    party_ids, party_states = ids[ok], states[ok]     # caller, callee, caller, ...
    _, first = np.unique(party_ids, return_index=True)
    first.sort()
    for person, state in zip(party_ids[first].tolist(),
                             party_states[first].tolist()):
        net.add_node(person, state)
    pairs = np.sort(ids[ok.all(axis=1) & (ids[:, 0] != ids[:, 1])], axis=1)
    for a, b in np.unique(pairs, axis=0).tolist():
        net.add_edge(a, b)
    return net


@dataclass
class TripleCensus:
    """Per-state counts of same-state connected triples (node-sets)."""

    closed: dict[int, int] = field(default_factory=dict)
    open: dict[int, int] = field(default_factory=dict)

    def connected(self, state: int) -> int:
        return self.closed.get(state, 0) + self.open.get(state, 0)

    @property
    def total_nodesets(self) -> int:
        """Connected triples counted once per node-set."""
        return sum(self.closed.values()) + sum(self.open.values())

    @property
    def total_paths(self) -> int:
        """Length-2 paths: each triangle contributes three, each open one."""
        return 3 * sum(self.closed.values()) + sum(self.open.values())


def _same_state_adjacency(net: SocialNetwork) -> dict[int, dict[int, list[int]]]:
    """state -> node -> sorted same-state neighbor list."""
    per_state: dict[int, dict[int, list[int]]] = {}
    for node, state in net.state_of.items():
        nbrs = sorted(u for u in net.adj[node] if net.state_of[u] == state)
        per_state.setdefault(state, {})[node] = nbrs
    return per_state


def _count_state_triples(adj: Mapping[int, list[int]]) -> tuple[int, int]:
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


def census_triples(net: SocialNetwork) -> TripleCensus:
    """Count open and closed same-state triples for every state."""
    census = TripleCensus()
    for state, adj in sorted(_same_state_adjacency(net).items()):
        closed, open_ = _count_state_triples(adj)
        census.closed[state] = closed
        census.open[state] = open_
    return census


def transitivity(census: TripleCensus, state: int) -> float | None:
    """3*closed / (3*closed + open), None when the state has no triples.

    The factor of three counts each triangle once per length-2 path it
    contains, matching the global clustering coefficient.
    """
    closed = census.closed.get(state, 0)
    open_ = census.open.get(state, 0)
    if closed + open_ == 0:
        return None
    return 3.0 * closed / (3.0 * closed + open_)


def closed_fraction(census: TripleCensus, state: int) -> float | None:
    """closed / (closed + open) over node-sets; emitted for transparency."""
    closed = census.closed.get(state, 0)
    open_ = census.open.get(state, 0)
    if closed + open_ == 0:
        return None
    return closed / (closed + open_)


@dataclass(frozen=True, slots=True)
class Triple:
    state: int
    nodes: tuple[int, int, int]     # sorted
    closed: bool


def enumerate_connected_triples(net: SocialNetwork) -> list[Triple]:
    """All same-state connected triples, in a deterministic order.

    Open triples are generated from their unique center node; triangles
    from their sorted node tuple. Deterministic so seeded subsampling is
    reproducible.
    """
    triples: list[Triple] = []
    for state, adj in sorted(_same_state_adjacency(net).items()):
        nbr_sets = {v: set(ns) for v, ns in adj.items()}
        for v in sorted(adj):
            for u, w in combinations(adj[v], 2):
                if w in nbr_sets[u]:
                    if v < u:    # count each triangle once, at its least node
                        triples.append(Triple(state, (v, u, w), True))
                else:
                    triples.append(Triple(state, tuple(sorted((u, v, w))), False))
    return triples


def subsample_independent(
    triples: Sequence[Triple], seed: int
) -> list[Triple]:
    """Random subset of triples in which no individual appears twice.

    A greedy pass over a seeded random permutation, accepting a triple
    iff none of its nodes has been used. Maximal for the permutation,
    deterministic given the seed.
    """
    rng = np.random.default_rng(seed)
    used: set[int] = set()
    selected: list[Triple] = []
    for idx in rng.permutation(len(triples)):
        t = triples[idx]
        a, b, c = t.nodes
        if a in used or b in used or c in used:
            continue
        used.update(t.nodes)
        selected.append(t)
    return selected


@dataclass(frozen=True)
class LogisticFit:
    """Two-parameter logistic fit of closure on log10 representation."""

    beta0: float
    beta1: float
    se1: float
    ci1: tuple[float, float]        # beta1 +- 1.96*se1
    p_value: float                  # two-sided Wald test of beta1 = 0
    n_triples: int
    odds_ratio_per_decade: float    # exp(beta1)
    n_iterations: int
    max_score: float                # gradient max-norm at the optimum


def _check_separation(x: np.ndarray, y: np.ndarray) -> None:
    ones = x[y == 1]
    zeros = x[y == 0]
    if ones.size == 0 or zeros.size == 0:
        raise SeparationError("all triples share one outcome; no fit possible")
    if ones.min() > zeros.max() or zeros.min() > ones.max():
        raise SeparationError(
            "complete separation on log10(W); the MLE does not exist"
        )


def fit_logistic(
    closed: Sequence[int] | np.ndarray,
    w: Sequence[float] | np.ndarray,
    *,
    weights: Sequence[float] | np.ndarray | None = None,
    max_iter: int = 100,
    tol: float = 1e-10,
    step_tol: float = 1e-12,
) -> LogisticFit:
    """Maximum-likelihood fit of logit(pr(closed)) = b0 + b1*log10(w).

    Newton-Raphson on the two-parameter model; converged when the score
    max-norm drops below ``tol`` or the parameter step below
    ``step_tol``. Standard errors come from the inverse observed
    information; the confidence interval is the 95% Wald interval.
    ``weights`` lets aggregated rows carry multiplicities (including
    non-integer expected counts for deterministic checks).
    """
    y = np.asarray(closed, dtype=float)
    wv = np.asarray(w, dtype=float)
    if y.shape != wv.shape or y.ndim != 1:
        raise AnalysisError("closed and w must be 1-d of equal length")
    if y.size == 0:
        raise AnalysisError("no triples to fit")
    if np.any((wv <= 0) | (wv >= 1)):
        raise AnalysisError("representation values must lie in (0, 1)")
    if np.unique(wv).size < 2:
        raise AnalysisError("need at least 2 distinct representation values")
    wt = np.ones_like(y) if weights is None else np.asarray(weights, dtype=float)
    if np.any(wt < 0) or wt.sum() == 0:
        raise AnalysisError("weights must be nonnegative with positive sum")

    x = np.log10(wv)
    _check_separation(x, y)

    ybar = float(np.clip((wt * y).sum() / wt.sum(), 1e-9, 1 - 1e-9))
    beta = np.array([np.log(ybar / (1 - ybar)), 0.0])
    trace: list[tuple[int, float, float, float]] = []
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eta = beta[0] + beta[1] * x
        p = 1.0 / (1.0 + np.exp(-eta))
        resid = wt * (y - p)
        score = np.array([resid.sum(), (x * resid).sum()])
        s = wt * p * (1.0 - p)
        info = np.array([
            [s.sum(), (x * s).sum()],
            [(x * s).sum(), (x * x * s).sum()],
        ])
        trace.append((iterations, beta[0], beta[1], float(np.abs(score).max())))
        if np.abs(score).max() < tol:
            converged = True
            break
        try:
            step = np.linalg.solve(info, score)
        except np.linalg.LinAlgError:
            raise SeparationError(
                "singular information matrix; data are degenerate or separated"
            ) from None
        beta = beta + step
        if np.abs(beta).max() > 1e3:
            raise SeparationError(
                "diverging estimates; data are quasi-separated"
            )
        if np.abs(step).max() < step_tol:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"no convergence after {max_iter} iterations", trace=trace
        )

    eta = beta[0] + beta[1] * x
    p = 1.0 / (1.0 + np.exp(-eta))
    s = wt * p * (1.0 - p)
    info = np.array([
        [s.sum(), (x * s).sum()],
        [(x * s).sum(), (x * x * s).sum()],
    ])
    cov = np.linalg.inv(info)
    se1 = sqrt(cov[1, 1])
    score = np.array([(wt * (y - p)).sum(), (x * wt * (y - p)).sum()])
    z = beta[1] / se1 if se1 > 0 else float("inf")
    return LogisticFit(
        beta0=float(beta[0]),
        beta1=float(beta[1]),
        se1=se1,
        ci1=(float(beta[1] - Z_95 * se1), float(beta[1] + Z_95 * se1)),
        p_value=erfc(abs(z) / sqrt(2.0)),
        n_triples=int(round(float(wt.sum()))),
        odds_ratio_per_decade=exp(beta[1]),
        n_iterations=iterations,
        max_score=float(np.abs(score).max()),
    )


def fit_closure_model(
    triples: Sequence[Triple],
    representation: Mapping[int, float],
    *,
    seed: int = 0,
) -> LogisticFit:
    """Fit the closure regression on the node-disjoint triple subsample.

    Representation shares come from the cumulative attendance estimates.
    The greedy independent subset is used so Wald inference is valid;
    the fit's ``n_triples`` is its size.
    """
    pool = subsample_independent(triples, seed)
    missing = sorted({t.state for t in pool} - set(representation))
    if missing:
        raise AnalysisError(f"no representation share for states {missing}")
    closed = [1 if t.closed else 0 for t in pool]
    w = [representation[t.state] for t in pool]
    return fit_logistic(closed, w)
