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
from math import erfc, exp, sqrt
from typing import Iterable, Mapping, Sequence

import numpy as np

from .arrays import distinct, index_dtype, pack_keys, run_starts
from .errors import AnalysisError, ConvergenceError, SeparationError

Z_95 = 1.96

#: Newton iterations ``fit_logistic`` takes at most, and the score max-norm
#: and the parameter step below which it has converged.
MAX_ITER = 100
SCORE_TOL = 1e-10
STEP_TOL = 1e-12


class SocialNetwork:
    """Simple undirected graph over customers with known state, as CSR.

    Node positions follow ``node_id`` (sorted); ``state[i]`` is node i's
    state, and its neighbours are the positions ``indices[indptr[i]:
    indptr[i + 1]]``, ascending. The constructor takes node ids with
    their states (repeats allowed, the first state of an id wins) and
    ``(a, b)`` id pairs (self-pairs and repeats dropped). ``add_node``
    and ``add_edge`` append to that input; the graph is rebuilt with
    them on the next read.
    """

    def __init__(self, node_id=(), state=(), edges=()):
        self._csr = _csr(np.asarray(node_id, np.int64),
                         np.asarray(state, np.int64),
                         np.asarray(edges, np.int64).reshape(-1, 2))
        self._added_nodes: list[tuple[int, int]] = []
        self._added_edges: list[tuple[int, int]] = []

    def add_node(self, person: int, state: int) -> None:
        self._added_nodes.append((person, state))

    def add_edge(self, a: int, b: int) -> None:
        self._added_edges.append((a, b))

    def _built(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        if self._added_nodes or self._added_edges:
            ids, state, indptr, indices = self._csr
            a, b = _upper_edges(indptr, indices)
            nodes = np.array(self._added_nodes, np.int64).reshape(-1, 2)
            edges = np.array(self._added_edges, np.int64).reshape(-1, 2)
            self._csr = _csr(
                np.concatenate([ids, nodes[:, 0]]),
                np.concatenate([state, nodes[:, 1]]),
                np.concatenate([np.stack([ids[a], ids[b]], axis=1), edges]),
            )
            self._added_nodes, self._added_edges = [], []
        return self._csr

    @property
    def node_id(self) -> np.ndarray:
        return self._built()[0]

    @property
    def state(self) -> np.ndarray:
        return self._built()[1]

    @property
    def indptr(self) -> np.ndarray:
        return self._built()[2]

    @property
    def indices(self) -> np.ndarray:
        return self._built()[3]

    @property
    def n_nodes(self) -> int:
        return self.node_id.size

    @property
    def n_edges(self) -> int:
        return self.indices.size // 2

    def nodes(self) -> list[int]:
        return self.node_id.tolist()

    def edge_positions(self) -> tuple[np.ndarray, np.ndarray]:
        """(a, b) node positions of every edge, a < b, sorted."""
        return _upper_edges(self.indptr, self.indices)

    def edges(self) -> Iterable[tuple[int, int]]:
        a, b = self.edge_positions()
        return zip(self.node_id[a].tolist(), self.node_id[b].tolist())

    def states(self) -> list[int]:
        return distinct(self.state).tolist()


def _upper_edges(indptr: np.ndarray, indices: np.ndarray):
    row = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
    upper = row < indices
    return row[upper], indices[upper]


def _csr(node_id, state, edges):
    """(node_id, state, indptr, indices) of the graph on those inputs.

    The edges' ends are found one column at a time, as node positions
    as narrow as ``index_dtype`` makes them for the node count, which
    ``indices`` keeps; their packed keys are sorted in place.
    """
    order = np.argsort(node_id, kind="stable")
    ids = node_id[order]
    starts = run_starts(ids)
    ids, first = ids[starts], order[starts]
    del order, starts
    n = ids.size
    width = index_dtype(n)
    loop = edges[:, 0] == edges[:, 1]
    if loop.any():
        edges = edges[~loop]
    del loop
    ends, missing = [], []
    for end in range(2):
        at = np.searchsorted(ids, edges[:, end])
        np.minimum(at, n - 1, out=at)
        missing.append(ids[at] != edges[:, end] if n else np.ones(len(at), bool))
        ends.append(at.astype(width))
    missing = np.stack(missing, axis=1)
    if missing.any():
        raise KeyError(f"edge endpoint {edges[missing][0]} is not a node")
    del missing
    # Both directions of every distinct pair as sorted row * n + col keys.
    bounds = [(0, n), (0, n)]
    keys = pack_keys(np.minimum(*ends), np.maximum(*ends), bounds=bounds)[0]
    del ends
    keys.sort()
    keys = keys[run_starts(keys)]
    both = np.empty(2 * keys.size, np.int64)
    both[:keys.size] = keys
    back = both[keys.size:]
    np.remainder(keys, n, out=back)
    back *= n
    back += keys // n
    del keys
    both.sort()
    indptr = np.zeros(n + 1, np.int64)
    np.cumsum(np.bincount(both // n, minlength=n), out=indptr[1:])
    both %= n
    return ids, state[first], indptr, both.astype(width)


@dataclass(frozen=True, eq=False)
class ContactTable:
    """What the network is built from, as columns, without the CDR rows.

    ``party_id`` and ``party_state`` hold each distinct (id, state) of a
    customer party with a known state, in the order of its first
    appearance (row order, the caller before the callee). The
    ``caller_*`` and ``callee_*`` columns hold the distinct (caller_id,
    callee_id, caller_state, callee_state) rows whose parties are both
    such customers, in the same order.
    """

    party_id: np.ndarray
    party_state: np.ndarray
    caller_id: np.ndarray
    callee_id: np.ndarray
    caller_state: np.ndarray
    callee_state: np.ndarray


def build_network(
    contacts: ContactTable,
    *,
    exclude_local: bool = True,
    local_state: int | None = None,
) -> SocialNetwork:
    """Network over the customers of a contact table.

    Nodes are customer parties with a known state; an edge requires both
    parties to be customers (otherwise the counterpart's state is
    unobservable). Multiple contacts collapse to one edge. When
    ``exclude_local`` is set and ``local_state`` is given, residents of
    the venue's host state are dropped: their phone use is not comparable
    to visitors'. A node takes the state of its first appearance, caller
    before callee.
    """
    node, edge = slice(None), slice(None)
    if exclude_local and local_state is not None:
        node = contacts.party_state != local_state
        edge = ((contacts.caller_state != local_state)
                & (contacts.callee_state != local_state))
    # The edges' two columns are filled one at a time.
    caller = contacts.caller_id[edge]
    edges = np.empty((len(caller), 2), np.int64)
    edges[:, 0] = caller
    del caller
    edges[:, 1] = contacts.callee_id[edge]
    return SocialNetwork(contacts.party_id[node], contacts.party_state[node],
                         edges)


@dataclass
class TripleCensus:
    """Per-state counts of same-state connected triples (node-sets)."""

    closed: dict[int, int] = field(default_factory=dict)
    open: dict[int, int] = field(default_factory=dict)


def census_triples(triples: Triples, states: Sequence[int]) -> TripleCensus:
    """Count open and closed triples for every state of ``states``.

    Per-state counts of ``triples``, as ``enumerate_connected_triples``
    gives them; ``states`` are the network's (``SocialNetwork.states``),
    and one with no triples gets zeros.
    """
    states = np.array(states, np.int64)
    row = np.searchsorted(states, triples.state)
    closed = np.bincount(row[triples.closed], minlength=states.size)
    open_ = np.bincount(row[~triples.closed], minlength=states.size)
    return TripleCensus(
        closed=dict(zip(states.tolist(), closed.tolist())),
        open=dict(zip(states.tolist(), open_.tolist())),
    )


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


@dataclass(eq=False)
class Triples:
    """Same-state connected triples, one row each.

    ``nodes`` holds each triple's node ids in ascending order, ``state``
    their common state and ``closed`` whether all three are linked.
    """

    nodes: np.ndarray = ()
    state: np.ndarray = ()
    closed: np.ndarray = ()

    def __post_init__(self):
        self.nodes = np.asarray(self.nodes, np.int64).reshape(-1, 3)
        self.state = np.asarray(self.state, np.int64)
        self.closed = np.asarray(self.closed, bool)
        if not len(self.nodes) == len(self.state) == len(self.closed):
            raise ValueError("nodes, state and closed differ in length")

    def __len__(self) -> int:
        return len(self.state)

    def take(self, rows) -> Triples:
        return Triples(self.nodes[rows], self.state[rows], self.closed[rows])

    @classmethod
    def concat(cls, parts: Iterable[Triples]) -> Triples:
        parts = [cls(), *parts]
        return cls(np.concatenate([t.nodes for t in parts]),
                   np.concatenate([t.state for t in parts]),
                   np.concatenate([t.closed for t in parts]))


#: Centre pairs handled per block of the wedge pass: each takes about
#: 100 bytes while its block is made.
WEDGE_BLOCK = 1 << 14


def enumerate_connected_triples(net: SocialNetwork) -> Triples:
    """All same-state connected triples, in a deterministic order.

    Every pair of same-state neighbours of a centre is a wedge, taken
    by state, then centre id, then the pair's ``combinations`` order. An
    open wedge is its triple's only one; a closed triple (the wedge's
    ends are linked) is kept at its least node. Deterministic so seeded
    subsampling is reproducible. Node positions are as narrow as
    ``index_dtype`` makes them, and the wedges are made ``WEDGE_BLOCK``
    at a time.
    """
    n = net.n_nodes
    state, indices = net.state, net.indices
    # The same-state sub-CSR as sorted row * n + col keys.
    row = np.repeat(np.arange(n, dtype=index_dtype(n)), np.diff(net.indptr))
    same = state[row] == state[indices]
    row, col = row[same], indices[same]
    del same
    bounds = [(0, n), (0, n)]
    keys = pack_keys(row, col, bounds=bounds)[0]
    deg = np.bincount(row, minlength=n)
    del row
    start = np.cumsum(deg) - deg
    centres = np.argsort(state, kind="stable")
    centres = centres[deg[centres] >= 2]
    cum = np.cumsum(deg[centres] * (deg[centres] - 1) // 2)
    parts = []
    lo = 0
    while lo < centres.size:
        done = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, done + WEDGE_BLOCK, "right")))
        v, i, j = _centre_pairs(centres[lo:hi], deg)
        u, w = col[start[v] + i], col[start[v] + j]
        key = pack_keys(u, w, bounds=bounds)[0]
        closed = keys[np.minimum(np.searchsorted(keys, key), keys.size - 1)] == key
        keep = ~closed | (v < u)
        nodes = np.sort(np.stack([v, u, w], axis=1)[keep], axis=1)
        parts.append(Triples(net.node_id[nodes], state[v[keep]], closed[keep]))
        lo = hi
    return Triples.concat(parts)


def _centre_pairs(centres: np.ndarray, deg: np.ndarray):
    """(centre, i, j) for each i < j < deg[centre], in that order."""
    d = deg[centres]
    # One row per (centre, i), then one per j in (i, d).
    c = np.repeat(centres, d - 1)
    i = np.arange(c.size) - np.repeat(np.cumsum(d - 1) - (d - 1), d - 1)
    n_j = deg[c] - 1 - i
    i = np.repeat(i, n_j)
    j = i + 1 + np.arange(i.size) - np.repeat(np.cumsum(n_j) - n_j, n_j)
    return np.repeat(c, n_j), i, j


def subsample_independent(triples: Triples, seed: int) -> Triples:
    """Random subset of triples in which no individual appears twice.

    The greedy pass over a seeded random permutation that accepts a
    triple iff none of its nodes has been used: maximal for the
    permutation, deterministic given the seed; rows come in acceptance
    order. It runs in rounds over arrays: a triple that is the earliest
    one left at each of its nodes is one the sequential pass accepts, so
    each round accepts all of those, then drops every triple that touches
    a node they use (Blelloch, Fineman & Shun 2012, "Greedy sequential
    maximal independent set and matching are parallel on average").
    """
    order = np.random.default_rng(seed).permutation(len(triples))
    node = _dense_labels(triples.nodes[order].ravel()).reshape(-1, 3)
    n_nodes = int(node.max(initial=-1)) + 1
    width = index_dtype(len(order))
    accepted = np.zeros(len(order), bool)
    # Positions in the permutation, ascending.
    left = np.arange(len(order), dtype=width)
    while left.size:
        earliest = np.full(n_nodes, len(order), width)
        np.minimum.at(earliest, node[left], left[:, None])
        won = left[(earliest[node[left]] == left[:, None]).all(axis=1)]
        accepted[won] = True
        used = np.zeros(n_nodes, bool)
        used[node[won]] = True
        left = left[~used[node[left]].any(axis=1)]
    return triples.take(order[accepted])


def _dense_labels(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct ``values``, as narrow as
    ``index_dtype`` makes it: ``np.unique``'s inverse, with one sorted
    copy of the values."""
    by = np.argsort(values)
    ranks = np.cumsum(run_starts(values[by]), dtype=index_dtype(values.size))
    ranks -= 1
    labels = np.empty_like(ranks)
    labels[by] = ranks
    return labels


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
) -> LogisticFit:
    """Maximum-likelihood fit of logit(pr(closed)) = b0 + b1*log10(w).

    Newton-Raphson on the two-parameter model; converged when the score
    max-norm drops below ``SCORE_TOL`` or the parameter step below
    ``STEP_TOL``, within ``MAX_ITER`` iterations. Standard errors come from the inverse observed
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
    if not ((wv > 0) & (wv < 1)).all():     # NaN fails too
        raise AnalysisError("representation values must lie in (0, 1)")
    # Not np.unique, which imports numpy.ma on its first call.
    if wv.min() == wv.max():
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
    for iterations in range(1, MAX_ITER + 1):
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
        if np.abs(score).max() < SCORE_TOL:
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
        if np.abs(step).max() < STEP_TOL:
            converged = True
            break
    if not converged:
        raise ConvergenceError(
            f"no convergence after {MAX_ITER} iterations", trace=trace
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
    triples: Triples,
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
    states, row = np.unique(pool.state, return_inverse=True)
    missing = sorted(set(states.tolist()) - set(representation))
    if missing:
        raise AnalysisError(f"no representation share for states {missing}")
    w = np.array([representation[s] for s in states.tolist()], float)
    return fit_logistic(pool.closed.astype(int), w[row])
