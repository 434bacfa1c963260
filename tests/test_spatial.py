"""Per-state co-location probability, day partition, and correlations."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdcdr import spatial, synth
from crowdcdr.errors import EstimationError
from crowdcdr.ingest import ObservationColumns
from crowdcdr.spatial import (
    aggregate_q,
    attach_bootstrap_cis,
    bootstrap_mean_ci,
    bootstrap_ratio_ci,
    build_colocation_series,
    correlate,
    correlation_p_value,
    daily_representation,
    mean_log_representation,
    partition_days,
)
from helpers import (colocation_probability, colocation_series_loop,
                     correlation_p_value_oracle, make_observations,
                     pair_enumeration_probability, spatial_report_loop,
                     traced_peak)


def series_from_p(p_by_state_day, n_days):
    """A co-location series with prescribed p values via two-cell counts.

    p = (n(n-1) + m(m-1)) / (N(N-1)); with counts (k, 1) and N = k+1 this
    gives p = (k-1)/(k+1), dense enough in (0, 1) to hit simple targets.
    Exact target values are installed directly afterwards.
    """
    obs = make_observations(
        (person, state, day, 1)
        for (state, day) in p_by_state_day
        for person in (1, 2)
    )
    series = build_colocation_series(obs, n_days=n_days)
    for key, value in p_by_state_day.items():
        series.p[key] = value
    return series


class TestCoLocationProbability:
    def test_both_in_one_cell(self):
        assert colocation_probability((2, 0), 2) == 1.0

    def test_separated_pair(self):
        assert colocation_probability((1, 1), 2) == 0.0

    def test_two_pairs_in_two_cells(self):
        assert colocation_probability((2, 2), 4) == pytest.approx(1 / 3)

    def test_fewer_than_two_persons_is_undefined(self):
        assert colocation_probability((1,)) is None
        assert colocation_probability(()) is None
        assert colocation_probability((0, 0)) is None

    def test_total_mismatch_raises(self):
        with pytest.raises(EstimationError, match="sum to 4"):
            colocation_probability((2, 2), 5)

    def test_mapping_and_sequence_inputs_agree(self):
        assert colocation_probability({5: 3, 9: 2}) == colocation_probability(
            (3, 2)
        )

    def test_matches_exhaustive_pair_enumeration(self):
        rng = random.Random(41)
        for _ in range(300):
            counts = [rng.randint(0, 12) for _ in range(rng.randint(1, 8))]
            expected = pair_enumeration_probability(counts)
            got = colocation_probability(counts)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(float(expected), abs=1e-15)

    def test_scaling_counts_up_is_monotone_with_plug_in_limit(self):
        shares = (500, 300, 200)
        total = sum(shares)
        limit = sum((n / total) ** 2 for n in shares)
        previous = -1.0
        for a in (1, 2, 5, 10, 100, 1000):
            p = colocation_probability(tuple(a * n for n in shares))
            assert p >= previous
            previous = p
        assert previous == pytest.approx(limit, abs=1e-6)

    def test_uniform_spread_approaches_one_over_cells(self):
        c = 8
        p = colocation_probability((10_000,) * c)
        assert p == pytest.approx(1 / c, abs=1e-4)


class TestSeries:
    def test_counts_totals_and_p(self):
        obs = make_observations([
            (1, 2, 5, 10),
            (2, 2, 5, 10),
            (3, 2, 5, 11),
            (4, 3, 5, 10),
        ])
        series = build_colocation_series(obs, n_days=90)
        assert series.totals[(2, 5)] == 3
        assert series.p[(2, 5)] == pytest.approx(1 / 3)
        assert series.p[(3, 5)] is None
        assert series.states == [2, 3]

    def test_tower_to_cell_mapping_merges_towers(self):
        obs = make_observations([
            (1, 2, 1, 10),
            (2, 2, 1, 11),
        ])
        apart = build_colocation_series(obs, n_days=90)
        merged = build_colocation_series(
            obs, n_days=90, cell_of_tower={10: 7, 11: 7}
        )
        assert apart.p[(2, 1)] == 0.0
        assert merged.p[(2, 1)] == 1.0

    def test_tower_missing_from_the_mapping_is_refused(self):
        obs = make_observations([(1, 2, 1, 10), (2, 2, 1, 99), (3, 2, 1, 4)])
        with pytest.raises(KeyError, match="99"):
            build_colocation_series(obs, n_days=90, cell_of_tower={4: 4, 10: 4})

    @settings(max_examples=200, deadline=None)
    @given(
        rows=st.lists(st.tuples(st.integers(1, 3), st.integers(1, 4),
                                st.integers(1, 6)), max_size=60),
        silent=st.lists(st.integers(1, 6), max_size=4),
        mapped=st.booleans(),
    )
    @example(rows=[(1, 1, 1)], silent=[], mapped=False)     # one person
    @example(rows=[(1, 1, 1), (1, 1, 2)], silent=[2], mapped=True)
    def test_sums_equal_the_per_group_loop(self, rows, silent, mapped):
        # Rows are (state, day, tower); each observation is its own
        # person. A silent tower's cell is the next active tower's, and
        # the map also holds towers no one was observed at.
        obs = make_observations((i, s, d, t) for i, (s, d, t)
                                in enumerate(rows))
        cell_of = None
        if mapped:
            active = [t for t in range(1, 8) if t not in silent] or [7]
            cell_of = {t: t if t in active else min(
                active, key=lambda a: (abs(a - t), a)) for t in range(1, 8)}
        got = build_colocation_series(obs, n_days=4, cell_of_tower=cell_of)
        want = colocation_series_loop(obs, n_days=4, cell_of_tower=cell_of)
        assert list(got.totals.items()) == list(want.totals.items())
        assert list(got.p.items()) == list(want.p.items())
        assert got.states == want.states


class TestSeriesMemory:
    def test_holds_under_22_bytes_an_observation(self):
        # Nearly every (state, day, cell) holds one person, so the runs
        # are about as many as the rows. With an int64 key and int64 run
        # bounds and lengths it took 28 bytes a row.
        rng = np.random.default_rng(5)
        n = 300_000
        obs = ObservationColumns(
            np.arange(n, dtype=np.int64), rng.integers(1, 24, n).astype(np.int8),
            rng.integers(1, 91, n).astype(np.int16),
            rng.integers(0, 400, n).astype(np.int32))
        build_colocation_series(obs.take(slice(0, 1000)), n_days=90)
        series, peak = traced_peak(build_colocation_series, obs, n_days=90)
        assert sum(series.totals.values()) == n
        assert peak < 22 * n

    def test_a_span_beyond_int32_packs_the_key_in_int64(self):
        # State codes over 10**4, days over 10**6 and 3 cells.
        obs = make_observations([(1, 1, 1, 0), (2, 1, 1, 0), (3, 10 ** 4, 10 ** 6, 9),
                                 (4, 10 ** 4, 10 ** 6, 9), (5, 10 ** 4, 10 ** 6, 5)])
        got = build_colocation_series(obs, n_days=90)
        want = colocation_series_loop(obs, n_days=90)
        assert list(got.totals.items()) == list(want.totals.items())
        assert list(got.p.items()) == list(want.p.items())


class TestPartition:
    def test_three_interior_peaks_give_fifteen_high_days(self):
        daily = {d: 0.0 for d in range(1, 91)}
        daily[10] = daily[20] = daily[30] = 100.0
        high, low = partition_days(daily, n_days=90)
        assert high == set(range(8, 13)) | set(range(18, 23)) | set(range(28, 33))
        assert len(high) == 15
        assert len(low) == 75

    def test_boundary_peak_window_is_clipped(self):
        daily = {d: 0.0 for d in range(1, 91)}
        daily[2] = daily[20] = daily[30] = 100.0
        high, _ = partition_days(daily, n_days=90)
        assert set(range(1, 5)) <= high
        assert 0 not in high
        assert len(high) == 14

    def test_attendance_ties_resolve_to_the_earlier_day(self):
        daily = {d: 0.0 for d in range(1, 91)}
        daily[10] = daily[30] = daily[50] = daily[70] = 100.0
        high, _ = partition_days(daily, n_days=90)
        assert high == set(range(8, 13)) | set(range(28, 33)) | set(range(48, 53))

    def test_pinned_calendar_peaks_override_the_data(self):
        daily = {d: float(d) for d in range(1, 91)}
        high, _ = partition_days(daily, n_days=90, peak_days=[50])
        assert high == {48, 49, 50, 51, 52}

    def test_high_and_low_partition_the_window(self):
        rng = random.Random(43)
        daily = {d: rng.random() for d in range(1, 91)}
        high, low = partition_days(daily, n_days=90)
        assert high | low == set(range(1, 91))
        assert high & low == set()

    def test_recovers_planted_peaks_from_estimated_attendance(
        self, desk_small_series, desk_small_truth
    ):
        series = desk_small_series
        truth = desk_small_truth
        high, _ = partition_days(series.daily, n_days=truth.n_days)
        expected_high = {
            d
            for peak in truth.config.peak_days
            for d in range(peak - 2, peak + 3)
        }
        assert high == expected_high


class TestAggregate:
    def test_constant_series_means_flat_ratio(self):
        p = {(2, d): 0.013 for d in range(1, 91)}
        series = series_from_p(p, n_days=90)
        report = aggregate_q(series, set(range(1, 16)), set(range(16, 91)))
        assert report[2].q_a == pytest.approx(0.013)
        assert report[2].q_d == pytest.approx(1.0)
        assert report[2].n_days_defined == 90

    def test_doubled_high_days_mean_ratio_two(self):
        p = {(2, d): (0.02 if d <= 15 else 0.01) for d in range(1, 91)}
        series = series_from_p(p, n_days=90)
        report = aggregate_q(series, set(range(1, 16)), set(range(16, 91)))
        assert report[2].q_h == pytest.approx(0.02)
        assert report[2].q_l == pytest.approx(0.01)
        assert report[2].q_d == pytest.approx(2.0)

    def test_undefined_days_shrink_the_divisor(self):
        p = {(2, d): 0.5 for d in (1, 2, 3)}
        series = series_from_p(p, n_days=90)
        report = aggregate_q(series, {1, 2}, set(range(3, 91)))
        assert report[2].q_a == pytest.approx(0.5)
        assert report[2].n_days_defined == 3

    def test_zero_low_mean_leaves_ratio_undefined(self):
        p = {(2, 1): 0.4, (2, 2): 0.0, (2, 3): 0.0}
        series = series_from_p(p, n_days=3)
        report = aggregate_q(series, {1}, {2, 3})
        assert report[2].q_h == pytest.approx(0.4)
        assert report[2].q_l == 0.0
        assert report[2].q_d is None


class TestBootstrap:
    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_block_size_leaves_intervals_bit_identical(self, monkeypatch,
                                                        block):
        # The reference draws the whole (replicates, days) index at once.
        rng = np.random.default_rng(11)
        vals, high, low = rng.random(41), rng.random(9), rng.random(23) + 0.1
        ref = np.random.default_rng(5)
        mean_stats = vals[ref.integers(0, 41, size=(1000, 41))].mean(axis=1)
        ref = np.random.default_rng(5)
        num = high[ref.integers(0, 9, size=(1000, 9))].mean(axis=1)
        den = low[ref.integers(0, 23, size=(1000, 23))].mean(axis=1)
        want = [tuple(np.percentile(stats, [2.5, 97.5]).tolist())
                for stats in (mean_stats, num / den)]
        monkeypatch.setattr(spatial, "BOOTSTRAP_BLOCK_ROWS", block)
        assert bootstrap_mean_ci(vals, replicates=1000, seed=5) == want[0]
        assert bootstrap_ratio_ci(high, low, replicates=1000, seed=5) == want[1]

    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(-1e-306, 1e-306, allow_nan=False),        # subnormals, zeros
        st.floats(1e299, 1e301), st.floats(-1e301, -1e299),
        st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, 1e300, -1e300,
                         1.7976931348623157e308, -1.7976931348623157e308])),
        min_size=1, max_size=3000))
    @example([0.0, -0.0] * 20)
    @example([1e300, -1e300, 1.5e308, -1.5e308])
    @settings(max_examples=300, deadline=None)
    def test_interval_percentiles_are_numpys_bit_for_bit(self, values):
        stats = np.array(values)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.percentile(stats, [2.5, 97.5])
            got = spatial._percentile_interval(stats)
        assert got.tobytes() == want.tobytes()

    def test_constant_series_gives_zero_width_interval(self):
        lo, hi = bootstrap_mean_ci([0.013] * 30, replicates=1000, seed=1)
        assert lo == hi == pytest.approx(0.013)

    def test_deterministic_given_seed(self):
        vals = list(np.random.default_rng(3).random(40))
        assert bootstrap_mean_ci(vals, seed=9) == bootstrap_mean_ci(vals, seed=9)
        assert bootstrap_mean_ci(vals, seed=9) != bootstrap_mean_ci(vals, seed=10)

    def test_too_few_days_raise(self):
        with pytest.raises(EstimationError, match="2 defined days"):
            bootstrap_mean_ci([0.5], replicates=1000, seed=0)

    def test_too_few_replicates_raise(self):
        with pytest.raises(EstimationError, match="200"):
            bootstrap_mean_ci([0.5, 0.6], replicates=100, seed=0)
        with pytest.raises(EstimationError, match="200"):
            bootstrap_ratio_ci([0.5, 0.6], [0.1, 0.2], replicates=10, seed=0)

    def test_too_many_replicates_raise_before_allocating(self):
        with pytest.raises(EstimationError, match="100000"):
            bootstrap_mean_ci([0.5, 0.6], replicates=10 ** 15, seed=0)
        with pytest.raises(EstimationError, match="100000"):
            bootstrap_ratio_ci([0.5, 0.6], [0.1, 0.2], replicates=100_001,
                               seed=0)

    def test_mean_interval_covers_truth_in_at_least_93_of_100(self):
        true_mean = 2.0 / 152.0
        covered = 0
        for i in range(100):
            vals = np.random.default_rng(i).beta(2, 150, size=90)
            lo, hi = bootstrap_mean_ci(vals, replicates=1000, seed=i)
            covered += lo <= true_mean <= hi
        assert covered >= 93

    def test_ratio_interval_brackets_a_planted_ratio(self):
        rng = np.random.default_rng(8)
        high = 0.02 + 0.002 * rng.standard_normal(15)
        low = 0.01 + 0.001 * rng.standard_normal(75)
        lo, hi = bootstrap_ratio_ci(high, low, replicates=1000, seed=0)
        assert lo < 2.0 < hi
        assert hi - lo < 1.0

    def test_attached_intervals_contain_their_point_estimates(self):
        rng = np.random.default_rng(12)
        p = {
            (s, d): float(np.clip(0.013 + 0.004 * rng.standard_normal(), 0, 1))
            for s in (2, 3)
            for d in range(1, 91)
        }
        series = series_from_p(p, n_days=90)
        high = set(range(39, 54))
        low = set(range(1, 91)) - high
        report = aggregate_q(series, high, low)
        attach_bootstrap_cis(report, series, high, low, replicates=1000, seed=4)
        for stat in report.values():
            assert stat.ci_a is not None and stat.ci_d is not None
            assert stat.ci_a[0] <= stat.q_a <= stat.ci_a[1]
            assert stat.ci_d[0] <= stat.q_d <= stat.ci_d[1]


    @given(st.dictionaries(
               st.tuples(st.integers(1, 4), st.integers(0, 12)),
               st.one_of(st.none(), st.floats(0, 1)), max_size=40),
           st.sets(st.integers(0, 12)), st.sets(st.integers(0, 12)),
           st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_report_equals_the_day_by_day_loop(self, p, high, low, seed):
        # Keys in any order, days outside the 10-day window, states with
        # no defined day, and day sets that overlap or leave the window.
        series = spatial.CoLocationSeries(
            p=dict(random.Random(seed).sample(sorted(p.items()), len(p))),
            states=sorted({s for s, _ in p}), n_days=10)
        report = aggregate_q(series, high, low)
        attach_bootstrap_cis(report, series, high, low, replicates=200, seed=seed)
        assert report == spatial_report_loop(series, high, low,
                                             replicates=200, seed=seed)


class TestRepresentation:
    def test_daily_shares_sum_to_one(self):
        by_state_daily = {(2, 1): 30.0, (3, 1): 70.0, (2, 2): 10.0}
        rep = daily_representation(by_state_daily)
        assert rep[(2, 1)] == pytest.approx(0.3)
        assert rep[(3, 1)] == pytest.approx(0.7)
        assert rep[(2, 2)] == pytest.approx(1.0)

    def test_zero_total_days_are_dropped(self):
        rep = daily_representation({(2, 1): 0.0, (3, 1): 0.0, (2, 2): 5.0})
        assert (2, 1) not in rep and (3, 1) not in rep
        assert rep[(2, 2)] == 1.0

    def test_mean_log_of_constant_share(self):
        rep = {(2, d): 0.01 for d in range(1, 11)}
        mlr = mean_log_representation(rep)
        assert mlr[2] == pytest.approx(-2.0)

    def test_mean_log_skips_zero_share_days(self):
        rep = {(2, 1): 0.1, (2, 2): 0.0}
        assert mean_log_representation(rep)[2] == pytest.approx(-1.0)


class TestCorrelate:
    def test_exact_linear_relation(self):
        mlr = {s: -0.1 * s for s in range(2, 10)}
        decreasing = {s: 5.0 + 2.0 * mlr[s] for s in mlr}
        assert correlate(decreasing, mlr) == pytest.approx(1.0)
        flipped = {s: 5.0 - 2.0 * mlr[s] for s in mlr}
        assert correlate(flipped, mlr) == pytest.approx(-1.0)

    def test_needs_three_complete_pairs(self):
        mlr = {2: -1.0, 3: -2.0, 4: -3.0}
        assert correlate({2: 1.0, 3: 2.0}, mlr) is None
        assert correlate({2: 1.0, 3: 2.0, 4: None}, mlr) is None

    def test_zero_variance_is_undefined(self):
        mlr = {2: -1.0, 3: -2.0, 4: -3.0}
        assert correlate({2: 1.0, 3: 1.0, 4: 1.0}, mlr) is None

    def test_permutation_p_is_tiny_for_a_perfect_relation(self):
        mlr = {s: -0.1 * s for s in range(2, 14)}
        values = {s: 1.0 - mlr[s] for s in mlr}
        p = correlation_p_value(values, mlr, n_permutations=199, seed=0)
        assert p == pytest.approx(1 / 200)

    def test_permutation_p_is_uniform_under_the_null(self):
        rng = np.random.default_rng(0)
        ps = []
        for i in range(200):
            vals = {s: float(v) for s, v in zip(range(2, 22), rng.random(20))}
            mlr = {s: float(v) for s, v in zip(range(2, 22), rng.random(20))}
            ps.append(correlation_p_value(vals, mlr, n_permutations=199, seed=i))
        ps = np.sort(np.array(ps))
        small = float((ps <= 0.05).mean())
        assert 0.01 <= small <= 0.10
        ks = float(np.max(np.abs(ps - np.arange(1, 201) / 200.0)))
        assert ks < 0.12

    # Values on coarse dyadic grids: many ties, and every mean is exact, so
    # shuffles whose |rho| equals the observed one are common.
    @given(
        values=st.lists(st.one_of(st.none(), st.integers(0, 8).map(lambda k: k / 8)),
                        min_size=3, max_size=12),
        mlr=st.lists(st.integers(-12, 0).map(lambda k: k / 4),
                     min_size=3, max_size=12),
        n_permutations=st.sampled_from([0, 1, 19, 199]),
        seed=st.integers(0, 2 ** 32 - 1),
    )
    @example(values=[0.0, 0.5, 1.0], mlr=[-1.0, -0.5, 0.0],
             n_permutations=199, seed=0)
    @example(values=[0.5, 0.5, 1.0], mlr=[-1.0, -1.0, 0.0],
             n_permutations=199, seed=3)
    @settings(max_examples=150, deadline=None)
    def test_permutation_p_equals_the_corrcoef_loop(self, values, mlr,
                                                    n_permutations, seed):
        values = dict(enumerate(values))
        mlr = dict(enumerate(mlr))
        want = correlation_p_value_oracle(values, mlr, seed=seed,
                                          n_permutations=n_permutations)
        assert correlation_p_value(values, mlr, seed=seed,
                                   n_permutations=n_permutations) == want

    def test_permutation_p_is_none_when_correlation_is(self):
        assert correlation_p_value({2: 1.0}, {2: -1.0}) is None


class TestPlantedBand:
    def test_planted_levels_match_their_targets(self, band_truth):
        truth = band_truth
        targets = dict(zip(range(2, 12), synth.BAND_TARGETS))
        for state, target in targets.items():
            assert truth.planted_qa[state] == pytest.approx(target, abs=5e-4)

    def test_recovered_levels_span_the_band(self, band_truth):
        truth = band_truth
        series = build_colocation_series(
            truth.observations(), n_days=truth.n_days
        )
        high, low = partition_days(
            {d: float(v) for d, v in truth.true_daily_total().items()},
            n_days=truth.n_days,
        )
        report = aggregate_q(series, high, low)
        visitors = [s for s in report if s != 1]
        targets = dict(zip(range(2, 12), synth.BAND_TARGETS))
        values = {s: report[s].q_a for s in visitors}
        for s in visitors:
            assert 0.0025 <= values[s] <= 0.018
            assert values[s] == pytest.approx(targets[s], abs=0.003)
        assert np.mean(list(values.values())) == pytest.approx(0.013, abs=0.001)

    def test_colocation_falls_with_representation(self, band_truth):
        truth = band_truth
        series = build_colocation_series(
            truth.observations(), n_days=truth.n_days
        )
        high, low = partition_days(
            {d: float(v) for d, v in truth.true_daily_total().items()},
            n_days=truth.n_days,
        )
        report = aggregate_q(series, high, low)
        visitors = [s for s in report if s != 1]
        rep_daily = daily_representation(
            {(s, d): float(v) for (s, d), v in truth.true_daily.items()}
        )
        mlr = mean_log_representation(rep_daily)
        values = {s: report[s].q_a for s in visitors}
        rho = correlate(values, mlr)
        assert rho is not None and rho < -0.8
        assert correlation_p_value(values, mlr, seed=0) == pytest.approx(1 / 200)
