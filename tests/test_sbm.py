"""Block-model estimates and their bias under within-state group structure."""

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcdr.errors import AnalysisError
from crowdcdr.sbm import (
    bias_curve,
    block_table,
    estimate_block_probs,
    group_structure_bias,
    joint_bias_demo,
)
from crowdcdr.social import (SocialNetwork, census_triples,
                             enumerate_connected_triples, transitivity)
from helpers import (group_structure_bias_se, joint_bias_demo_oracle,
                     sample_grouped_state)


def network(state_of, edges):
    net = SocialNetwork()
    for node, state in state_of.items():
        net.add_node(node, state)
    for a, b in edges:
        net.add_edge(a, b)
    return net


class TestBlockEstimates:
    def test_complete_state_has_probability_one(self):
        nodes = {v: 2 for v in range(4)}
        net = network(nodes, list(combinations(range(4), 2)))
        est = estimate_block_probs(net)
        assert est.p_kk[2] == 1.0
        assert est.n_k[2] == 4
        assert est.e_kk[2] == 6

    def test_edgeless_state_has_probability_zero(self):
        net = network({1: 2, 2: 2, 3: 2}, [])
        est = estimate_block_probs(net)
        assert est.p_kk[2] == 0.0
        assert est.baseline == 0.0

    def test_single_node_states_are_omitted(self):
        net = network({1: 2, 2: 3, 3: 3}, [(2, 3)])
        est = estimate_block_probs(net)
        assert 2 not in est.p_kk
        assert est.p_kk[3] == 1.0

    def test_baseline_pools_all_nodes(self):
        net = network({1: 2, 2: 2, 3: 3, 4: 3}, [(1, 2), (1, 3)])
        est = estimate_block_probs(net)
        assert est.baseline == pytest.approx(2 / comb(4, 2))
        assert est.p_kk[2] == 1.0
        assert est.p_kk[3] == 0.0

    def test_table_rows_are_sorted_and_complete(self):
        net = network({1: 3, 2: 3, 3: 2, 4: 2}, [(1, 2), (3, 4)])
        rows = block_table(estimate_block_probs(net))
        assert [r[0] for r in rows] == [2, 3]
        for state, n_k, e_kk, p_kk, baseline in rows:
            assert p_kk == e_kk / comb(n_k, 2)
            assert baseline == pytest.approx(2 / comb(4, 2))


class TestBiasFormula:
    def test_single_group_returns_dense_rate_exactly(self):
        for m in (2, 3, 5, 17, 100, 500):
            assert group_structure_bias(1, m, 0.2, 0.04) == 0.2

    def test_hundred_groups_of_five(self):
        value = group_structure_bias(100, 5, 0.2, 0.04)
        assert value == pytest.approx(5150 / 124750, rel=1e-12)
        assert value == pytest.approx(0.0413, abs=5e-5)

    def test_decreasing_in_group_count_with_sparse_floor(self):
        values = [v for _, v in bias_curve([1, 2, 5, 10, 100, 1000], 5, 0.2, 0.04)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > 0.04 for v in values)
        assert group_structure_bias(100_000, 5, 0.2, 0.04) == pytest.approx(
            0.04, abs=1e-4
        )

    def test_mixture_interpolates_between_the_two_rates(self):
        g, m, p_in, p_out = 7, 6, 0.3, 0.05
        within = g * comb(m, 2)
        total = comb(g * m, 2)
        expected = (within * p_in + (total - within) * p_out) / total
        assert group_structure_bias(g, m, p_in, p_out) == pytest.approx(
            expected, rel=1e-12
        )

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(AnalysisError, match="g >= 1"):
            group_structure_bias(0, 5, 0.2, 0.04)
        with pytest.raises(AnalysisError, match="m >= 2"):
            group_structure_bias(5, 1, 0.2, 0.04)

    def test_standard_error_shrinks_with_size(self):
        small = group_structure_bias_se(5, 5, 0.2, 0.04)
        large = group_structure_bias_se(50, 5, 0.2, 0.04)
        assert large < small


class TestPlantedPartition:
    def test_estimate_matches_analytic_within_three_se(self):
        rng = np.random.default_rng(7)
        g, m, p_in, p_out = 40, 8, 0.25, 0.02
        net, _ = sample_grouped_state(
            rng, state=2, g=g, m=m, p_in=p_in, p_out=p_out
        )
        est = estimate_block_probs(net)
        expected = group_structure_bias(g, m, p_in, p_out)
        se = group_structure_bias_se(g, m, p_in, p_out)
        assert abs(est.p_kk[2] - expected) <= 3 * se

    def test_group_map_partitions_consecutive_nodes(self):
        rng = np.random.default_rng(3)
        net, group_of = sample_grouped_state(
            rng, state=2, g=4, m=5, p_in=0.5, p_out=0.1, first_node=100
        )
        assert sorted(group_of) == list(range(100, 120))
        sizes: dict[int, int] = {}
        for node, gi in group_of.items():
            sizes[gi] = sizes.get(gi, 0) + 1
            assert gi == (node - 100) // 5
        assert sizes == {0: 5, 1: 5, 2: 5, 3: 5}

    def test_no_cross_group_edges_without_sparse_rate(self):
        rng = np.random.default_rng(5)
        net, group_of = sample_grouped_state(
            rng, state=2, g=6, m=6, p_in=0.4, p_out=0.0
        )
        for u, v in net.edges():
            assert group_of[u] == group_of[v]


@pytest.fixture(scope="module")
def demo():
    return joint_bias_demo(seed=0)


class TestJointDemo:
    def test_block_estimates_separate_by_over_four_fold(self, demo):
        assert demo.ratio_estimated > 4.0
        assert demo.ratio_analytic == pytest.approx(
            0.2 / group_structure_bias(50, 100, 0.2, 0.04), rel=1e-12
        )

    def test_within_group_closure_is_indistinguishable(self, demo):
        t_a = demo.within_transitivity[1]
        t_b = demo.within_transitivity[2]
        assert t_a == pytest.approx(0.2, abs=0.02)
        assert t_b == pytest.approx(0.2, abs=0.02)
        assert abs(t_a - t_b) < 0.02

    def test_estimates_track_the_analytic_mixture(self, demo):
        se_a = group_structure_bias_se(1, 100, 0.2, 0.04)
        se_b = group_structure_bias_se(50, 100, 0.2, 0.04)
        assert abs(demo.estimated[1] - demo.analytic[1]) <= 3 * se_a
        assert abs(demo.estimated[2] - demo.analytic[2]) <= 3 * se_b

    def test_both_states_have_ample_triples(self, demo):
        for state in (1, 2):
            closed, open_ = demo.triples[state]
            assert closed > 100
            assert open_ > 100

    def test_counts_equal_the_census_of_the_sampled_groups(self, demo):
        # The demo's within-group draws follow sample_grouped_state's
        # order, so without cross edges the same seed rebuilds its groups.
        rng = np.random.default_rng(0)
        net_a, _ = sample_grouped_state(
            rng, state=1, g=1, m=100, p_in=0.2, p_out=0
        )
        net_b, _ = sample_grouped_state(
            rng, state=2, g=50, m=100, p_in=0.2, p_out=0, first_node=100
        )
        for state, net in ((1, net_a), (2, net_b)):
            census = census_triples(enumerate_connected_triples(net),
                                    net.states())
            assert demo.triples[state] == (
                census.closed[state], census.open[state]
            )
            assert demo.within_transitivity[state] == transitivity(census, state)
        assert demo.estimated[1] == estimate_block_probs(net_a).p_kk[1]

    @given(m=st.integers(2, 130), g_b=st.integers(1, 6),
           p_in=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_equals_the_int64_trace_oracle(self, m, g_b, p_in, seed):
        # Complete blocks (p_in = 1) give the largest counts, C(m, 3).
        try:
            want = joint_bias_demo_oracle(m=m, p_in=p_in, g_b=g_b, seed=seed)
        except ZeroDivisionError:   # state 2 drew no edge at all
            with pytest.raises(ZeroDivisionError):
                joint_bias_demo(m=m, p_in=p_in, g_b=g_b, seed=seed)
            return
        assert joint_bias_demo(m=m, p_in=p_in, g_b=g_b, seed=seed) == want

    def test_default_demo_equals_the_oracle(self, demo):
        assert demo == joint_bias_demo_oracle(seed=0)
