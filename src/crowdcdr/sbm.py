"""Block-model baseline and its bias under finer group structure.

A one-probability-per-state-pair block model summarises within-state
cohesion as p_kk = e_kk / C(n_k, 2). When a state's members actually
socialise in small groups (dense inside, sparse across), that average
mixes two regimes and shrinks as the number of groups grows, even
though nothing about the groups themselves changed. The helpers here
make that concrete: the analytic average a block model would report,
and a demonstration that two states with identical group-level wiring
but different group counts get block estimates >4x apart while their
within-group transitivity is statistically the same.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import Iterable

import numpy as np

from .errors import AnalysisError
from .social import SocialNetwork, TripleCensus, transitivity


@dataclass
class BlockEstimates:
    """Within-state edge probabilities plus the all-pairs baseline."""

    p_kk: dict[int, float] = field(default_factory=dict)
    n_k: dict[int, int] = field(default_factory=dict)
    e_kk: dict[int, int] = field(default_factory=dict)
    baseline: float = 0.0


def estimate_block_probs(net: SocialNetwork) -> BlockEstimates:
    """p_kk = within-state edges over within-state pairs, per state.

    States with fewer than two nodes have no within pairs and are left
    out. The baseline treats all nodes as one block.
    """
    est = BlockEstimates()
    states, counts = np.unique(net.state, return_counts=True)
    a, b = net.edge_positions()
    within = net.state[a][net.state[a] == net.state[b]]
    edges_within = np.bincount(np.searchsorted(states, within),
                               minlength=states.size)
    n = net.n_nodes
    est.baseline = a.size / comb(n, 2) if n >= 2 else 0.0
    for s, n_k, e_kk in zip(states.tolist(), counts.tolist(),
                            edges_within.tolist()):
        if n_k < 2:
            continue
        est.n_k[s] = n_k
        est.e_kk[s] = e_kk
        est.p_kk[s] = e_kk / comb(n_k, 2)
    return est


def group_structure_bias(g: int, m: int, p_in: float, p_out: float) -> float:
    """Average within-state edge probability under g groups of size m.

    Within-group pairs (g * C(m,2) of them) connect with p_in, the rest
    with p_out; the block model's state-level estimate converges on the
    pair-weighted mixture, which decreases toward p_out as g grows.
    """
    if g < 1 or m < 2:
        raise AnalysisError(f"need g >= 1 and m >= 2, got g={g}, m={m}")
    within = g * comb(m, 2)
    total = comb(g * m, 2)
    # Convex-mixture form: exact (p_in) when every pair is within-group.
    ratio = within / total
    return p_out * (1.0 - ratio) + p_in * ratio


def bias_curve(
    g_values: Iterable[int], m: int, p_in: float, p_out: float
) -> list[tuple[int, float]]:
    return [(g, group_structure_bias(g, m, p_in, p_out)) for g in g_values]


@dataclass
class GroupBiasDemo:
    """Two states wired identically at group level, summarised both ways."""

    analytic: dict[int, float]
    estimated: dict[int, float]
    ratio_estimated: float
    ratio_analytic: float
    within_transitivity: dict[int, float | None]
    triples: dict[int, tuple[int, int]]


#: Cross-group edge probability of ``joint_bias_demo``'s two states.
DEMO_P_OUT = 0.04


def joint_bias_demo(
    *,
    m: int = 100,
    p_in: float = 0.2,
    g_b: int = 50,
    seed: int = 0,
) -> GroupBiasDemo:
    """Sample states 1 (one group) and 2 (``g_b`` groups) and compare.

    Every group in both states is an independent Bernoulli(p_in) graph
    on m nodes, so within-group wiring is identical by construction;
    only the number of groups differs. The block estimate separates by
    about p_in / bias(g_b) while within-group transitivity agrees.

    Each group is counted on its own m x m adjacency block A: triangles
    as trace(A^3) / 6, connected triples as the sum of C(deg, 2). A is
    float64, so trace(A^3) = sum((A @ A) * A) is one BLAS product, and
    exact: every count is far below 2^53.
    Cross-group edges, of probability ``DEMO_P_OUT``, only add to p_kk,
    so a state with two or more groups draws them as one
    Binomial(C(g, 2) * m * m, DEMO_P_OUT) count.
    """
    rng = np.random.default_rng(seed)
    pair_u, pair_v = np.triu_indices(m, k=1)
    census = TripleCensus()
    estimated: dict[int, float] = {}
    groups = ((1, 1), (2, g_b))     # (state, its number of groups)
    for state, g in groups:
        # Within-group draws in the order of the planted-partition
        # sampler in tests/helpers.py, its oracle. One block at a time
        # keeps the demo's memory independent of g.
        trace = paths = edges = 0
        for _ in range(g):
            block = np.zeros((m, m))
            block[pair_u, pair_v] = rng.random(pair_u.size) < p_in
            block += block.T
            deg = block.sum(axis=1).astype(np.int64)
            trace += int(((block @ block) * block).sum())
            paths += int((deg * (deg - 1) // 2).sum())
            edges += int(deg.sum()) // 2
        closed = trace // 6
        census.closed[state] = closed
        census.open[state] = paths - 3 * closed
        cross = rng.binomial(comb(g, 2) * m * m, DEMO_P_OUT) if g >= 2 else 0
        estimated[state] = (edges + int(cross)) / comb(g * m, 2)
    analytic = {s: group_structure_bias(g, m, p_in, DEMO_P_OUT)
                for s, g in groups}
    return GroupBiasDemo(
        analytic=analytic,
        estimated=estimated,
        ratio_estimated=estimated[1] / estimated[2],
        ratio_analytic=analytic[1] / analytic[2],
        within_transitivity={s: transitivity(census, s) for s, _ in groups},
        triples={s: (census.closed[s], census.open[s]) for s, _ in groups},
    )


def block_table(est: BlockEstimates) -> list[tuple[int, int, int, float, float]]:
    """(state, n_k, e_kk, p_kk, baseline) rows for plotting."""
    return [
        (s, est.n_k[s], est.e_kk[s], est.p_kk[s], est.baseline)
        for s in sorted(est.p_kk)
    ]
