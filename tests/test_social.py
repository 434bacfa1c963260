"""Tie network, same-state triple census, and the closure regression."""

import hashlib
import importlib.util
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcdr import social
from crowdcdr.errors import AnalysisError, ConvergenceError, SeparationError
from crowdcdr.ingest import UNKNOWN_STATE, CdrColumns, read_cdr
from crowdcdr.social import (
    ContactTable,
    SocialNetwork,
    Triples,
    build_network,
    census_triples,
    closed_fraction,
    enumerate_connected_triples,
    fit_closure_model,
    fit_logistic,
    subsample_independent,
    transitivity,
)
from helpers import (brute_force_triples, build_network_oracle,
                     census_oracle, contact_table, dict_graph, from_events,
                     make_event, network_from_truth, subsample_oracle,
                     traced_peak, triple_rows)
from helpers import enumerate_connected_triples as triples_oracle

LN_3_OVER_7 = math.log(3.0 / 7.0)


def network(state_of, edges):
    net = SocialNetwork()
    for node, state in state_of.items():
        net.add_node(node, state)
    for a, b in edges:
        net.add_edge(a, b)
    return net


def same_state_network(edges, state=2):
    nodes = {v for e in edges for v in e}
    return network({v: state for v in nodes}, edges)


def census_of(net):
    """The census of the triples ``enumerate_connected_triples`` gives."""
    return census_triples(enumerate_connected_triples(net), net.states())


def random_mixed_network(rng, n, p, n_states=3):
    state_of = {v: rng.randint(2, 1 + n_states) for v in range(n)}
    edges = [
        (a, b)
        for a in range(n)
        for b in range(a + 1, n)
        if rng.random() < p
    ]
    return network(state_of, edges)


class TestBuildNetwork:
    def test_repeated_contacts_collapse_to_one_edge(self):
        events = [
            make_event(day=1, caller=10, callee=20),
            make_event(day=2, caller=20, callee=10),
            make_event(day=2, caller=10, callee=20, kind="text"),
        ]
        net = build_network(contact_table(from_events(events)))
        assert net.n_nodes == 2
        assert net.n_edges == 1

    def test_contact_with_non_customer_adds_no_edge(self):
        ev = make_event(
            caller=10, callee=20, callee_customer=False, callee_state=0
        )
        net = build_network(contact_table(from_events([ev])))
        assert net.n_nodes == 1
        assert net.n_edges == 0

    def test_unknown_state_party_is_dropped(self):
        ev = make_event(caller_state=UNKNOWN_STATE, callee_state=3)
        net = build_network(contact_table(from_events([ev])))
        assert list(net.nodes()) == [ev.callee_id]

    def test_host_state_residents_excluded_on_request(self):
        events = [
            make_event(caller=1, callee=2, caller_state=7, callee_state=7),
            make_event(caller=3, callee=4, caller_state=2, callee_state=2),
        ]
        table = contact_table(from_events(events))
        net = build_network(table, exclude_local=True, local_state=7)
        assert sorted(net.nodes()) == [3, 4]
        assert net.n_edges == 1
        full = build_network(table, exclude_local=False, local_state=7)
        assert full.n_nodes == 4

    def test_reconstructs_generated_tie_graph(self, desk_small_files):
        paths, truth = desk_small_files
        table = read_cdr(paths["cdr"]).contacts
        net = build_network(table, exclude_local=False)
        ref = network_from_truth(truth)
        assert dict_graph(net) == dict_graph(ref)
        net_x = build_network(table, exclude_local=True, local_state=1)
        ref_x = network_from_truth(truth, exclude=1)
        assert dict_graph(net_x) == dict_graph(ref_x)

    @given(
        rows=st.lists(st.tuples(
            st.integers(1, 6), st.integers(1, 6),        # caller, callee
            st.integers(0, 3), st.integers(0, 3),        # their states
            st.booleans(), st.booleans(),                # customer flags
        ), max_size=40),
        exclude_local=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_network_equals_the_row_loop(self, rows, exclude_local):
        # Ids repeat with other states, so the first party must win:
        # row order, the caller before the callee.
        events = [make_event(caller=a, callee=b, caller_state=sa,
                             callee_state=sb, caller_customer=ca,
                             callee_customer=cb)
                  for a, b, sa, sb, ca, cb in rows]
        node_id, state, edges = [], [], []
        for a, b, sa, sb, ca, cb in rows:
            kept = [(v, s) for v, s, c in ((a, sa, ca), (b, sb, cb))
                    if c and s != UNKNOWN_STATE
                    and not (exclude_local and s == 1)]
            node_id += [v for v, _ in kept]
            state += [s for _, s in kept]
            if len(kept) == 2:
                edges.append((a, b))
        want = sets_from_inputs(np.array(node_id, np.int64),
                                np.array(state, np.int64),
                                np.array(edges, np.int64).reshape(-1, 2))
        net = build_network(contact_table(from_events(events)),
                            exclude_local=exclude_local, local_state=1)
        assert dict_graph(net) == want

    def test_only_kept_parties_are_materialised(self):
        # One row in 100 has kept parties; the rest are host-state
        # residents. Stacking both parties of every pair would take 16
        # bytes a row for the ids alone.
        n = 200_000
        row = np.arange(n)
        zero = np.zeros(n, np.int64)
        kept = row % 100 == 0
        table = contact_table(CdrColumns(
            zero, row, row + n, zero.astype(bool), zero, zero,
            np.where(kept, 2, 1), np.where(kept, 3, 1),
            np.ones(n, bool), np.ones(n, bool)))
        # First-call allocations.
        build_network(contact_table(from_events([make_event()])))
        net, peak = traced_peak(build_network, table, exclude_local=True,
                                local_state=1)
        assert (net.n_nodes, net.n_edges) == (2 * kept.sum(), kept.sum())
        assert peak < 8 * n


def network_arrays(net: SocialNetwork) -> list[list[int]]:
    return [net.node_id.tolist(), net.state.tolist(), net.indptr.tolist(),
            net.indices.tolist()]


class TestContactTable:
    @given(
        rows=st.lists(st.tuples(
            st.integers(1, 6), st.integers(1, 6),        # caller, callee
            st.integers(0, 3), st.integers(0, 3),        # their states
            st.booleans(), st.booleans(),                # customer flags
        ), max_size=40),
        exclude_local=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_network_from_the_table_equals_the_oracle(self, rows,
                                                      exclude_local):
        # Ids repeat with other states, and state 1 is the host state, on
        # either side of a row: the first kept appearance must still win.
        columns = from_events([
            make_event(caller=a, callee=b, caller_state=sa, callee_state=sb,
                       caller_customer=ca, callee_customer=cb)
            for a, b, sa, sb, ca, cb in rows])
        want = network_arrays(build_network_oracle(
            columns, exclude_local=exclude_local, local_state=1))
        table = contact_table(columns)
        assert network_arrays(build_network(
            table, exclude_local=exclude_local, local_state=1)) == want

    def test_table_holds_distinct_parties_and_pairs_in_first_order(self):
        columns = from_events([
            make_event(caller=5, callee=7, caller_state=2, callee_state=3),
            make_event(caller=7, callee=5, caller_state=4, callee_state=2),
            make_event(caller=5, callee=7, caller_state=2, callee_state=3),
            make_event(caller=9, callee=5, caller_state=0, callee_state=2),
            make_event(caller=8, callee=6, callee_customer=False),
        ])
        table = contact_table(columns)
        assert isinstance(table, ContactTable)
        assert list(zip(table.party_id.tolist(), table.party_state.tolist())) \
            == [(5, 2), (7, 3), (7, 4), (8, 2)]
        assert list(zip(table.caller_id.tolist(), table.callee_id.tolist(),
                        table.caller_state.tolist(),
                        table.callee_state.tolist())) \
            == [(5, 7, 2, 3), (7, 5, 4, 2)]


class TestNetworkArrays:
    def test_csr_is_sorted_and_symmetric(self):
        net = network({5: 2, 1: 3, 9: 2, 4: 2}, [(9, 5), (1, 4), (5, 4), (4, 9)])
        assert net.nodes() == [1, 4, 5, 9]
        assert net.state.tolist() == [3, 2, 2, 2]
        assert net.indptr.tolist() == [0, 1, 4, 6, 8]
        assert net.indices.tolist() == [1, 0, 2, 3, 1, 3, 1, 2]
        assert sorted(net.edges()) == [(1, 4), (4, 5), (4, 9), (5, 9)]

    def test_first_state_wins_and_repeats_collapse(self):
        net = SocialNetwork([7, 3, 7], [2, 4, 5], [(3, 7), (7, 3), (7, 7)])
        assert dict_graph(net) == ({3: 4, 7: 2}, {3: {7}, 7: {3}})
        assert net.n_edges == 1

    def test_appends_after_a_read_are_built_in(self):
        net = network({1: 2, 2: 2}, [(1, 2)])
        assert net.n_edges == 1
        assert len(enumerate_connected_triples(net)) == 0
        net.add_node(3, 2)
        net.add_node(1, 9)
        net.add_edge(2, 3)
        assert dict_graph(net) == ({1: 2, 2: 2, 3: 2},
                                   {1: {2}, 2: {1, 3}, 3: {2}})
        assert triple_rows(enumerate_connected_triples(net)) == [
            (2, (1, 2, 3), False)]

    def test_edge_to_an_unknown_node_is_refused(self):
        net = network({1: 2}, [(1, 8)])
        with pytest.raises(KeyError, match="8"):
            net.n_edges

    def test_empty_network(self):
        net = SocialNetwork()
        assert (net.n_nodes, net.n_edges, net.states()) == (0, 0, [])
        assert census_of(net) == social.TripleCensus()
        assert len(enumerate_connected_triples(net)) == 0


@st.composite
def hub_graphs(draw, max_nodes=320):
    """Graphs over 2-4 states with a few hubs and overlapping triangles.

    Each hub links to up to ~300 nodes, mostly of its own state; extra
    chords between a hub's neighbours close triangles that share the
    hub, and a sparse background adds the remaining structure. Edges
    come in any order and direction, with repeats and self-pairs.
    """
    n = draw(st.integers(3, max_nodes))
    n_states = draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    node_id = rng.choice(10 * n, size=n, replace=False)
    state = rng.integers(1, n_states + 1, size=n)
    edges = []
    for hub in rng.choice(n, size=draw(st.integers(1, 3)), replace=False):
        own = np.flatnonzero(state == state[hub])
        others = np.flatnonzero(state != state[hub])
        nbrs = np.concatenate([
            rng.choice(own, size=draw(st.integers(0, min(250, own.size))),
                       replace=False),
            rng.choice(others, size=draw(st.integers(0, min(50, others.size))),
                       replace=False),
        ])
        edges += [(hub, v) for v in nbrs.tolist()]
        if nbrs.size >= 2:
            chords = rng.choice(nbrs, size=(draw(st.integers(0, 60)), 2))
            edges += chords.tolist()
    background = rng.integers(0, n, size=(draw(st.integers(0, 3 * n)), 2))
    edges += background.tolist()
    edges = node_id[np.array(edges, np.int64).reshape(-1, 2)]
    return node_id, state, edges[rng.permutation(len(edges))]


def sets_from_inputs(node_id, state, edges):
    """(node -> state, node -> neighbour set) built from the raw inputs."""
    state_of: dict[int, int] = {}
    for v, s in zip(node_id.tolist(), state.tolist()):
        state_of.setdefault(v, s)
    adj: dict[int, set[int]] = {v: set() for v in state_of}
    for a, b in edges.tolist():
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    return state_of, adj


class TestHubGraphs:
    @settings(max_examples=40, deadline=None)
    @given(graph=hub_graphs())
    def test_arrays_equal_the_dict_oracle(self, graph):
        net = SocialNetwork(*graph)
        assert dict_graph(net) == sets_from_inputs(*graph)
        triples = enumerate_connected_triples(net)
        oracle = triples_oracle(net)
        assert triple_rows(triples) == oracle
        assert census_triples(triples, net.states()) == census_oracle(net)
        for seed in range(5):
            assert (triple_rows(subsample_independent(triples, seed))
                    == subsample_oracle(oracle, seed))

    @settings(max_examples=40, deadline=None)
    @given(graph=hub_graphs(max_nodes=40))
    def test_census_equals_brute_force(self, graph):
        net = SocialNetwork(*graph)
        census = census_of(net)
        closed, open_ = brute_force_triples(net)
        for state in net.states():
            assert census.closed[state] == closed.get(state, 0)
            assert census.open[state] == open_.get(state, 0)

    @settings(max_examples=25, deadline=None)
    @given(graph=hub_graphs())
    def test_census_equals_networkx_triangles(self, graph):
        nx = pytest.importorskip("networkx")
        net = SocialNetwork(*graph)
        state_of, _ = dict_graph(net)
        graph = nx.Graph()
        graph.add_nodes_from(state_of)
        graph.add_edges_from((a, b) for a, b in net.edges()
                             if state_of[a] == state_of[b])
        triangles = nx.triangles(graph)
        census = census_of(net)
        for state in net.states():
            members = [v for v, s in state_of.items() if s == state]
            closed = sum(triangles[v] for v in members) // 3
            paths = sum(d * (d - 1) // 2 for _, d in graph.degree(members))
            assert census.closed[state] == closed
            assert census.open[state] == paths - 3 * closed

    @settings(max_examples=20, deadline=None)
    @given(graph=hub_graphs(), block=st.integers(1, 500))
    def test_blocks_of_centres_change_nothing(self, graph, block):
        whole = triple_rows(enumerate_connected_triples(SocialNetwork(*graph)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(social, "WEDGE_BLOCK", block)
            blocked = enumerate_connected_triples(SocialNetwork(*graph))
        assert triple_rows(blocked) == whole


class TestTripleCensus:
    def test_triangle_is_one_closed_triple(self):
        net = same_state_network([(1, 2), (2, 3), (1, 3)])
        census = census_of(net)
        assert census.closed[2] == 1
        assert census.open[2] == 0
        assert transitivity(census, 2) == 1.0

    def test_path_is_one_open_triple(self):
        net = same_state_network([(1, 2), (2, 3)])
        census = census_of(net)
        assert census.closed[2] == 0
        assert census.open[2] == 1
        assert transitivity(census, 2) == 0.0

    def test_diagonal_square_counts(self):
        net = same_state_network([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        census = census_of(net)
        assert census.closed[2] == 2
        assert census.open[2] == 2
        assert transitivity(census, 2) == 0.75
        assert closed_fraction(census, 2) == 0.5

    def test_star_has_no_closure(self):
        net = same_state_network([(0, 1), (0, 2), (0, 3)])
        census = census_of(net)
        assert census.closed[2] == 0
        assert census.open[2] == 3
        assert transitivity(census, 2) == 0.0

    def test_stateless_ratios_are_none(self):
        net = same_state_network([(1, 2)])
        census = census_of(net)
        assert transitivity(census, 2) is None
        assert closed_fraction(census, 9) is None

    def test_cross_state_triangle_counts_nothing(self):
        net = network({1: 2, 2: 2, 3: 3}, [(1, 2), (2, 3), (1, 3)])
        census = census_of(net)
        assert (census.closed, census.open) == ({2: 0, 3: 0}, {2: 0, 3: 0})

    def test_matches_exhaustive_enumeration_on_random_graphs(self):
        rng = random.Random(13)
        for _ in range(25):
            net = random_mixed_network(rng, n=30, p=0.2)
            census = census_of(net)
            closed, open_ = brute_force_triples(net)
            for state in net.states():
                assert census.closed.get(state, 0) == closed.get(state, 0)
                assert census.open.get(state, 0) == open_.get(state, 0)

    def test_counts_survive_node_relabeling(self):
        rng = random.Random(17)
        net = random_mixed_network(rng, n=25, p=0.25)
        perm = list(range(25))
        rng.shuffle(perm)
        state_of, _ = dict_graph(net)
        relabeled = network(
            {perm[v]: s for v, s in state_of.items()},
            [(perm[a], perm[b]) for a, b in net.edges()],
        )
        assert census_of(relabeled) == census_of(net)

    def test_nodeset_and_path_totals(self):
        net = same_state_network([(1, 2), (2, 3), (3, 4), (4, 1), (1, 3)])
        census = census_of(net)
        # Two triangles and two open node-sets: 4 node-sets, 8 paths.
        assert (census.closed, census.open) == ({2: 2}, {2: 2})
        assert closed_fraction(census, 2) == 2 / 4
        assert transitivity(census, 2) == 3 * 2 / 8


class TestTripleEnumeration:
    def test_agrees_with_census_counts(self):
        rng = random.Random(19)
        for _ in range(10):
            net = random_mixed_network(rng, n=25, p=0.25)
            triples = enumerate_connected_triples(net)
            census = census_triples(triples, net.states())
            for state in net.states():
                closed = triples.closed[triples.state == state]
                assert closed.sum() == census.closed[state]
                assert (~closed).sum() == census.open[state]

    def test_order_is_deterministic(self):
        rng = random.Random(23)
        net = random_mixed_network(rng, n=30, p=0.2)
        state_of, _ = dict_graph(net)
        edges = list(net.edges())
        rng.shuffle(edges)
        rebuilt = network(state_of, [(b, a) for a, b in edges])
        assert (triple_rows(enumerate_connected_triples(rebuilt))
                == triple_rows(enumerate_connected_triples(net)))

    def test_nodes_are_sorted_and_distinct(self):
        rng = random.Random(29)
        net = random_mixed_network(rng, n=20, p=0.3)
        for nodes in enumerate_connected_triples(net).nodes.tolist():
            assert nodes == sorted(nodes)
            assert len(set(nodes)) == 3


def _triples_of(rows) -> Triples:
    """Triples over sparse, large node ids, closed on every third row."""
    nodes = np.sort(np.array(rows, np.int64).reshape(-1, 3), axis=1)
    return Triples(nodes * 7919 + 10 ** 9, np.full(len(nodes), 2),
                   np.arange(len(nodes)) % 3 == 0)


# Triples that share nodes: one hub in many triples, chains whose
# neighbours share one or two nodes, and triples over a small node pool.
SHARED_NODE_TRIPLES = st.one_of(
    st.lists(st.tuples(st.integers(1, 40), st.integers(41, 80)), max_size=60)
    .map(lambda pairs: _triples_of([(0, a, b) for a, b in pairs])),
    st.builds(lambda n, step: _triples_of([(i, i + 1, i + 2) for i in range(0, n * step, step)]),
              st.integers(0, 60), st.integers(1, 2)),
    st.lists(st.sets(st.integers(0, 15), min_size=3, max_size=3), max_size=60)
    .map(lambda sets: _triples_of([sorted(s) for s in sets])),
)


class TestSubsample:
    @given(st.lists(SHARED_NODE_TRIPLES, min_size=1, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_rounds_equal_the_sequential_set_loop(self, parts):
        triples = Triples.concat(parts)
        for seed in range(4):
            assert (triple_rows(subsample_independent(triples, seed))
                    == subsample_oracle(triple_rows(triples), seed))

    def test_shared_node_keeps_exactly_one(self):
        triples = Triples([(1, 2, 3), (3, 4, 5)], [2, 2], [True, False])
        for seed in range(5):
            assert len(subsample_independent(triples, seed)) == 1

    def test_disjoint_triples_all_kept(self):
        triples = Triples(np.arange(120).reshape(40, 3), np.full(40, 2),
                          np.arange(40) % 2 == 1)
        out = subsample_independent(triples, seed=0)
        assert sorted(triple_rows(out)) == triple_rows(triples)

    def test_no_node_is_reused(self):
        rng = random.Random(31)
        net = random_mixed_network(rng, n=40, p=0.25)
        triples = enumerate_connected_triples(net)
        for seed in range(5):
            seen: set[int] = set()
            for nodes in subsample_independent(triples, seed).nodes.tolist():
                assert not seen & set(nodes)
                seen.update(nodes)

    def test_deterministic_given_seed(self):
        rng = random.Random(37)
        net = random_mixed_network(rng, n=40, p=0.25)
        triples = enumerate_connected_triples(net)
        def rows(seed):
            return triple_rows(subsample_independent(triples, seed))
        assert rows(7) == rows(7)
        assert rows(7) != rows(8)


def chained_triples(n, state, closed_in_20, offset=0):
    """Overlapping triples with a fixed closure rate of closed_in_20/20."""
    i = np.arange(n)
    return Triples(offset + i[:, None] + np.arange(3), np.full(n, state),
                   i % 20 < closed_in_20)


class TestLogisticFit:
    def test_two_group_solution_is_exact(self):
        """Closure 0.5 at w=0.01 against 0.3 at w=0.1: slope ln(3/7)."""
        closed = [1, 0, 1, 0]
        w = [0.01, 0.01, 0.1, 0.1]
        weights = [0.5, 0.5, 0.3, 0.7]
        fit = fit_logistic(closed, w, weights=weights)
        assert fit.beta1 == pytest.approx(LN_3_OVER_7, abs=1e-9)
        assert fit.odds_ratio_per_decade == pytest.approx(3.0 / 7.0, abs=1e-9)
        assert fit.max_score < 1e-10

    def test_weight_scale_does_not_move_the_estimate(self):
        closed = [1, 0, 1, 0]
        w = [0.01, 0.01, 0.1, 0.1]
        small = fit_logistic(closed, w, weights=[0.5, 0.5, 0.3, 0.7])
        big = fit_logistic(
            closed, w, weights=[5e5, 5e5, 3e5, 7e5]
        )
        assert big.beta1 == pytest.approx(small.beta1, abs=1e-8)
        assert big.se1 < small.se1

    def test_estimate_tightens_with_sample_size(self):
        levels = np.array([0.001, 0.004, 0.02, 0.08, 0.3])
        rng = np.random.default_rng(42)
        errors = []
        for n in (1_000, 10_000, 100_000):
            w = rng.choice(levels, size=n)
            p = 1.0 / (1.0 + np.exp(-(0.3 - 0.5 * np.log10(w))))
            y = (rng.random(n) < p).astype(int)
            fit = fit_logistic(y, w)
            errors.append(abs(fit.beta1 + 0.5))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 0.01

    def test_confidence_interval_and_p_value_shape(self):
        rng = np.random.default_rng(5)
        w = rng.choice([0.01, 0.1], size=4000)
        p = 1.0 / (1.0 + np.exp(-(-0.5 - 0.9 * np.log10(w))))
        y = (rng.random(4000) < p).astype(int)
        fit = fit_logistic(y, w)
        lo, hi = fit.ci1
        assert lo < fit.beta1 < hi
        assert hi - lo == pytest.approx(2 * 1.96 * fit.se1, rel=1e-9)
        assert 0.0 <= fit.p_value <= 1.0

    def test_rejects_malformed_inputs(self):
        with pytest.raises(AnalysisError, match="no triples"):
            fit_logistic([], [])
        with pytest.raises(AnalysisError, match="equal length"):
            fit_logistic([1, 0], [0.1])
        with pytest.raises(AnalysisError, match="in \\(0, 1\\)"):
            fit_logistic([1, 0], [0.5, 1.5])
        for w in ([0.2, np.nan], [np.nan, np.nan], [np.nan, 0.2, 0.3]):
            with pytest.raises(AnalysisError, match="in \\(0, 1\\)"):
                fit_logistic([1, 0, 1][:len(w)], w)
        with pytest.raises(AnalysisError, match="distinct"):
            fit_logistic([1, 0], [0.1, 0.1])
        with pytest.raises(AnalysisError, match="weights"):
            fit_logistic([1, 0], [0.1, 0.2], weights=[-1.0, 1.0])

    def test_detects_single_outcome(self):
        with pytest.raises(SeparationError, match="one outcome"):
            fit_logistic([1, 1, 1], [0.01, 0.1, 0.3])

    def test_detects_complete_separation(self):
        closed = [1, 1, 1, 0, 0, 0]
        w = [0.001, 0.002, 0.004, 0.1, 0.2, 0.3]
        with pytest.raises(SeparationError, match="separation"):
            fit_logistic(closed, w)

    def test_iteration_cap_raises_convergence_error(self, monkeypatch):
        # The two-group data converge in a few Newton steps, not in one.
        closed, w = [1, 0, 1, 0], [0.01, 0.01, 0.1, 0.1]
        weights = [0.5, 0.5, 0.3, 0.7]
        assert fit_logistic(closed, w, weights=weights).n_iterations > 1
        monkeypatch.setattr(social, "MAX_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match="no convergence after 1 iterations") as exc:
            fit_logistic(closed, w, weights=weights)
        assert [row[0] for row in exc.value.trace] == [1]


@pytest.fixture(scope="module")
def planted_triples():
    return Triples.concat([
        chained_triples(900, state=2, closed_in_20=11),
        chained_triples(900, state=3, closed_in_20=6, offset=10_000),
    ])


class TestClosureModel:
    def test_subsampled_fit_recovers_planted_slope(self, planted_triples):
        fit = fit_closure_model(planted_triples, {2: 0.01, 3: 0.1}, seed=0)
        assert fit.beta1 < 0
        assert fit.p_value < 1e-4

    def test_significance_is_stable_across_subsample_seeds(self, planted_triples):
        rep = {2: 0.01, 3: 0.1}
        betas = []
        for seed in range(20):
            fit = fit_closure_model(planted_triples, rep, seed=seed)
            betas.append(fit.beta1)
            assert fit.beta1 < 0
            assert fit.p_value < 1e-4
        assert max(betas) - min(betas) < 0.5

    def test_missing_representation_is_reported(self, planted_triples):
        with pytest.raises(AnalysisError, match="states \\[3\\]"):
            fit_closure_model(planted_triples, {2: 0.01}, seed=0)

    def test_runs_on_generated_scenario(self, desk_small_truth):
        truth = desk_small_truth
        net = network_from_truth(truth, exclude=1)
        triples = enumerate_connected_triples(net)
        fit = fit_closure_model(triples, truth.true_w, seed=0)
        assert fit.n_triples == len(subsample_independent(triples, 0))
        assert fit.n_triples <= len(triples)
        assert math.isfinite(fit.beta1)
        assert math.isfinite(fit.se1)


class TestSweepBuilder:
    def test_benchmark_sweep_output_is_unchanged(self):
        # perfbench/sweep.py builds its network node by node through
        # add_node/add_edge; its output must not move.
        path = Path(__file__).resolve().parents[1] / "perfbench" / "sweep.py"
        spec = importlib.util.spec_from_file_location("perfbench_sweep", path)
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        blob = json.dumps(sweep.run_sweep(range(1, 6))).encode()
        assert hashlib.sha256(blob).hexdigest() == (
            "9b007b8bc4916c63309ff4666730eb38d873665782d0e4c20960a95a9b8576cc")


def four_cliques(n_groups: int):
    """Inputs of a graph of ``n_groups`` groups of four, each member
    linked to the other three and each link listed both ways, over 20
    states: 12 edge rows, 6 edges and 4 closed triples a group."""
    node_id = np.arange(4 * n_groups, dtype=np.int64) * 7919 + 13
    state = np.arange(node_id.size) // 4 % 20
    group = np.arange(node_id.size).reshape(-1, 4)
    pairs = np.concatenate([group[:, [a, b]] for a in range(4)
                            for b in range(4) if a != b])
    return node_id, state, node_id[pairs]


class TestWorkingMemory:
    """The graph passes hold little beside their inputs and outputs: the
    edges' ends are found a column at a time, positions are int32, and
    the wedges are made ``WEDGE_BLOCK`` at a time."""

    def test_building_the_csr_takes_under_50_bytes_an_edge_row(self):
        node_id, state, edges = four_cliques(15_000)
        SocialNetwork(*four_cliques(2))     # first-call allocations
        net, peak = traced_peak(SocialNetwork, node_id, state, edges)
        assert (net.n_nodes, net.n_edges) == (60_000, 90_000)
        # With both ends searched at once in intp and the edges copied
        # for their self-pairs, it took 73.
        assert peak < 50 * len(edges)

    def test_enumeration_takes_under_200_bytes_a_triple(self):
        net = SocialNetwork(*four_cliques(15_000))
        enumerate_connected_triples(SocialNetwork(*four_cliques(2)))
        triples, peak = traced_peak(enumerate_connected_triples, net)
        assert len(triples) == 60_000 and triples.closed.all()
        # With every wedge made at once, in int64, it took 361.
        assert peak < 200 * len(triples)

