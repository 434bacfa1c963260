"""Attendance estimation under the four censoring corrections."""

import logging
import random

import numpy as np
import pytest

from crowdcdr import synth
from crowdcdr.attendance import (
    AdjustmentFactors,
    build_series,
    calibrate_non_use,
    daily_attendance_by_state,
    nonuse_adjusted_totals,
    sensitivity_curve,
    state_representation,
    uncorrected_daily,
)
from crowdcdr.errors import ConfigurationError, EstimationError
from crowdcdr.ingest import StateProfile
from helpers import (cumulative_attendance, daily_attendance,
                     estimate_daily_use, make_observations,
                     stays_from_observations)

PROFILES = {
    2: StateProfile(2, "a", 0.25),
    3: StateProfile(3, "b", 0.25),
    4: StateProfile(4, "c", 0.137),
    5: StateProfile(5, "d", 0.426),
}
FACTORS = AdjustmentFactors(prevalence=0.713, daily_use=0.404, non_use=0.406)


def obs(person, state, day):
    return person, state, day, 1


class TestDailyUse:
    def test_two_people_half_active(self):
        assert estimate_daily_use([(2, 5), (3, 5)]) == 0.5

    def test_everyone_active_every_day(self):
        assert estimate_daily_use([(5, 5), (3, 3), (1, 1)]) == 1.0

    def test_rejects_impossible_pairs(self):
        with pytest.raises(EstimationError, match="invalid stay pair"):
            estimate_daily_use([(0, 5)])
        with pytest.raises(EstimationError, match="invalid stay pair"):
            estimate_daily_use([(6, 5)])

    def test_rejects_empty_input(self):
        with pytest.raises(EstimationError, match="no stays"):
            estimate_daily_use([])

    def test_recovers_planted_rate_in_simulation(self):
        """First/last day always active, interior days at the matched rate."""
        rng = np.random.default_rng(11)
        target = 0.404
        pairs = []
        for _ in range(100_000):
            s = 5 + int(rng.geometric(1.0 / 8.0)) - 1
            interior = (target * s - 2) / (s - 2)
            pairs.append((2 + int(rng.binomial(s - 2, interior)), s))
        assert estimate_daily_use(pairs) == pytest.approx(target, abs=0.01)

    def test_stay_pairs_from_observations(self):
        rows = make_observations([
            obs(1, 2, 3), obs(1, 2, 7),          # seen twice over a 5-day span
            obs(2, 2, 4),                        # single day
            obs(3, 3, 1), obs(3, 3, 2), obs(3, 3, 9),
        ])
        pairs = sorted(stays_from_observations(rows))
        assert pairs == [(1, 1), (2, 5), (3, 9)]


class TestDailyAttendance:
    def test_single_count_fully_corrected(self):
        est = daily_attendance({(2, 1): 1000}, PROFILES, FACTORS)
        assert est[1] == pytest.approx(23378, abs=1)

    def test_cumulative_skips_the_daily_use_correction(self):
        rows = make_observations(obs(i, 2, 1) for i in range(1000))
        est = cumulative_attendance(rows, PROFILES, FACTORS, total_days=3)
        assert est[1] == pytest.approx(9445, abs=1)
        assert est[3] == est[1]

    def test_low_share_state_scaled_up_three_fold(self):
        est = daily_attendance_by_state(
            {(4, 1): 500, (5, 1): 500}, PROFILES, FACTORS
        )
        ratio = est[(4, 1)] / est[(5, 1)]
        assert ratio == pytest.approx(0.426 / 0.137, rel=1e-12)
        assert ratio > 2

    def test_estimates_are_linear_in_counts(self):
        counts = {(2, 1): 40, (3, 1): 10, (2, 2): 7}
        one = daily_attendance(counts, PROFILES, FACTORS)
        three = daily_attendance(
            {k: 3 * v for k, v in counts.items()}, PROFILES, FACTORS
        )
        for day in one:
            assert three[day] == pytest.approx(3 * one[day], rel=1e-12)

    def test_splitting_a_count_across_equal_share_states_changes_nothing(self):
        merged = daily_attendance({(2, 1): 60}, PROFILES, FACTORS)
        split = daily_attendance({(2, 1): 25, (3, 1): 35}, PROFILES, FACTORS)
        assert split[1] == pytest.approx(merged[1], rel=1e-12)

    def test_missing_market_share_raises(self):
        with pytest.raises(ConfigurationError, match="state 9"):
            daily_attendance({(9, 1): 5}, PROFILES, FACTORS)

    def test_person_present_from_first_observation_onward(self):
        rows = make_observations(obs(1, 2, d) for d in range(3, 11))
        est = cumulative_attendance(rows, PROFILES, FACTORS, total_days=12)
        assert est[2] == 0.0
        assert est[3] > 0
        assert est[12] == est[3]

    def test_daily_exceeds_the_cumulative_increment(self):
        """Repeat visits inflate the daily series but not the cumulative one."""
        rows = make_observations([obs(1, 2, 1), obs(1, 2, 2), obs(2, 2, 2)])
        counts = {(2, 1): 1, (2, 2): 2}
        daily = daily_attendance(counts, PROFILES, FACTORS)
        cum = cumulative_attendance(rows, PROFILES, FACTORS, total_days=2)
        assert daily[1] > cum[1] - 0.0
        assert daily[2] > cum[2] - cum[1]

    def test_cumulative_is_nondecreasing(self):
        rng = random.Random(9)
        rows = make_observations(
            obs(p, rng.choice([2, 3, 4]), rng.randint(1, 30))
            for p in range(300)
            for _ in range(rng.randint(1, 3))
        )
        est = cumulative_attendance(rows, PROFILES, FACTORS, total_days=30)
        values = [est[d] for d in range(1, 31)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestCalibration:
    def test_projections_equal_to_base_mean_no_correction(self):
        base = {1: 50.0, 2: 80.0}
        assert calibrate_non_use(base, {1: 50.0, 2: 80.0}) == 0.0

    def test_doubled_projections_mean_half_missing(self):
        q = calibrate_non_use({1: 10.0, 2: 20.0}, {1: 20.0, 2: 40.0})
        assert q == pytest.approx(0.5, rel=1e-12)

    def test_day_labels_are_irrelevant(self):
        base = {1: 10.0, 2: 30.0, 3: 17.0}
        proj = {d: v * 1.6 for d, v in base.items()}
        relabeled = {d + 40: base[d] for d in base}
        relabeled_proj = {d + 40: proj[d] for d in proj}
        assert calibrate_non_use(base, proj) == pytest.approx(
            calibrate_non_use(relabeled, relabeled_proj), rel=1e-12
        )

    def test_common_rescaling_is_irrelevant(self):
        base = {1: 10.0, 2: 30.0, 3: 17.0}
        proj = {1: 19.0, 2: 52.0, 3: 30.0}
        scaled = calibrate_non_use(
            {d: 7.3 * v for d, v in base.items()},
            {d: 7.3 * v for d, v in proj.items()},
        )
        assert scaled == pytest.approx(calibrate_non_use(base, proj), rel=1e-12)

    def test_disjoint_days_raise(self):
        with pytest.raises(EstimationError, match="no projection day"):
            calibrate_non_use({1: 10.0}, {2: 20.0})

    def test_zero_base_raises(self):
        with pytest.raises(EstimationError, match="all zero"):
            calibrate_non_use({1: 0.0}, {1: 20.0})

    def test_extreme_projections_are_clamped(self):
        assert calibrate_non_use({1: 1.0}, {1: 1000.0}) == 0.95

    def test_clamping_to_the_cap_warns_once_with_s(self, caplog):
        with caplog.at_level(logging.WARNING, logger="crowdcdr.attendance"):
            assert calibrate_non_use({1: 1.0, 2: 1.0},
                                     {1: 1e300, 2: 1.0}) == 0.95
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "5e+299-fold" in caplog.records[0].getMessage()

    @pytest.mark.parametrize("factor", [2.0, 20.0])
    def test_calibration_below_or_at_the_cap_is_silent(self, caplog, factor):
        with caplog.at_level(logging.WARNING, logger="crowdcdr.attendance"):
            q = calibrate_non_use({1: 10.0}, {1: 10.0 * factor})
        assert q == 1.0 - 1.0 / factor
        assert caplog.records == []

    def test_recovers_planted_fraction_from_exact_projections(
        self, desk_small_truth
    ):
        truth = desk_small_truth
        base = uncorrected_daily(
            truth.observed_counts,
            truth.profiles(),
            prevalence=truth.config.prevalence,
            daily_use=truth.config.daily_use,
        )
        projections = {
            d: truth.true_daily_total()[d] for d in truth.config.projection_days
        }
        q = calibrate_non_use(base, projections)
        assert q == pytest.approx(truth.config.non_use, abs=0.02)


class TestSensitivity:
    def test_reciprocal_convention_divides_by_assumed_fraction(self):
        curve = dict(sensitivity_curve(1000.0, [0.25, 0.5]))
        assert curve[0.25] == pytest.approx(4000.0)
        assert curve[0.5] == pytest.approx(2000.0)

    def test_reciprocal_convention_is_decreasing(self):
        values = [v for _, v in sensitivity_curve(500.0, [0.1, 0.3, 0.5, 0.9])]
        assert values == sorted(values, reverse=True)

    def test_reciprocal_convention_rejects_boundary_fractions(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError, match="out of"):
                sensitivity_curve(1000.0, [bad])

    def test_censoring_convention_inflates_by_complement(self):
        curve = dict(nonuse_adjusted_totals(1000.0, [0.0, 0.5]))
        assert curve[0.0] == pytest.approx(1000.0)
        assert curve[0.5] == pytest.approx(2000.0)

    def test_censoring_convention_rejects_unit_fraction(self):
        with pytest.raises(ValueError, match="out of"):
            nonuse_adjusted_totals(1000.0, [1.0])


class TestRepresentation:
    def test_shares_sum_to_one(self):
        rep = state_representation({2: 30.0, 3: 50.0, 4: 20.0})
        assert sum(rep.values()) == pytest.approx(1.0, rel=1e-12)
        assert rep[3] == pytest.approx(0.5)

    def test_negative_estimate_rejected(self):
        with pytest.raises(EstimationError, match="negative"):
            state_representation({2: -1.0, 3: 5.0})

    def test_zero_total_rejected(self):
        with pytest.raises(EstimationError, match="zero total"):
            state_representation({2: 0.0})


class TestFactors:
    def test_rejects_fractions_outside_open_interval(self):
        for field, value in [
            ("prevalence", 0.0),
            ("daily_use", 1.0),
            ("non_use", -0.2),
            ("prevalence", 1.5),
        ]:
            with pytest.raises(ConfigurationError, match=field):
                AdjustmentFactors(**{field: value})

    def test_defaults_are_the_documented_corrections(self):
        f = AdjustmentFactors()
        assert (f.prevalence, f.daily_use, f.non_use) == (0.713, 0.404, 0.406)


class TestBuildSeries:
    def test_reestimates_daily_use_and_calibrates_non_use(
        self, desk_small_series, desk_small_truth
    ):
        series = desk_small_series
        cfg = desk_small_truth.config
        assert series.daily_use_estimate == pytest.approx(
            cfg.daily_use, abs=0.02
        )
        assert series.non_use_estimate == pytest.approx(cfg.non_use, abs=0.02)
        assert series.factors.non_use == series.non_use_estimate

    def test_series_shapes_and_invariants(self, desk_small_series, desk_small_truth):
        series = desk_small_series
        truth = desk_small_truth
        days = range(1, truth.n_days + 1)
        assert set(series.daily) <= set(days)
        assert set(series.cumulative) == set(days)
        cum = [series.cumulative[d] for d in days]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert sum(series.representation.values()) == pytest.approx(1.0)
        assert set(series.representation) == set(truth.true_w)

    def test_recovers_total_attendance(self, desk_small_series, desk_small_truth):
        series = desk_small_series
        truth = desk_small_truth
        last = truth.n_days
        assert series.cumulative[last] == pytest.approx(
            sum(truth.true_total.values()), rel=0.05
        )
        # Per-state recovery is only meaningful for well-populated states;
        # the host is two orders of magnitude above the sampling noise.
        host = max(truth.true_total, key=truth.true_total.get)
        assert series.by_state_cumulative[(host, last)] == pytest.approx(
            truth.true_total[host], rel=0.10
        )
        assert all(
            series.by_state_cumulative[(s, last)] > 0 for s in truth.true_total
        )

    def test_without_projections_uses_default_non_use(self, desk_small_truth):
        truth = desk_small_truth
        series = build_series(
            truth.observations(),
            truth.observed_counts,
            truth.profiles(),
            total_days=truth.n_days,
        )
        assert series.non_use_estimate is None
        assert series.factors.non_use == AdjustmentFactors().non_use

    def test_row_order_of_the_observations_does_not_matter(self,
                                                           desk_small_truth):
        # The producers give (person, day) order, which is not sorted
        # again; shuffled rows are sorted once and give the same series.
        truth = desk_small_truth
        ordered = truth.observations()
        shuffled = ordered.take(np.random.default_rng(0).permutation(
            len(ordered)))
        series = [
            build_series(obs, truth.observed_counts, truth.profiles(),
                         total_days=truth.n_days)
            for obs in (ordered, shuffled)
        ]
        assert series[0] == series[1]


class TestDailyAgainstPlantedTruth:
    def test_desk_seed_1_daily_estimate_is_pinned_with_its_bias(self):
        """The paper's daily estimator against ``true_daily``, in memory.

        The estimate is biased and this pins the bias: the generator makes
        every visible person active on arrival and departure, so on days
        when cohorts arrive or leave nearly every present visible person
        is seen, yet each count is still divided by the daily-use rate
        pooled over whole stays. Those days come out up to 1/0.404 high
        and mid-stay days low. An estimator that removes the bias must
        change these numbers on purpose.
        """
        truth = synth.generate_tables(synth.desk_scenario(1))
        series = build_series(
            truth.observations(), truth.observed_counts, truth.profiles(),
            total_days=truth.n_days,
            projections=synth.emit_projections(truth, noise=0.0),
        )
        true = truth.true_daily_total()
        ratio = {d: series.daily[d] / true[d] for d in true}
        assert min(ratio.values()) == pytest.approx(0.5363, abs=1e-4)
        assert max(ratio.values()) == pytest.approx(2.5026, abs=1e-4)
        assert (min(ratio, key=ratio.get), max(ratio, key=ratio.get)) == (44, 1)
        assert sum(abs(r - 1) > 0.15 for r in ratio.values()) == 27
        peak = max(series.daily, key=series.daily.get)
        assert (peak, round(series.daily[peak]), true[peak]) == (69, 31824, 18713)
        true_peak = max(true, key=true.get)
        assert (true_peak, true[true_peak], round(series.daily[true_peak])) \
            == (43, 18825, 11190)
        # The cumulative estimate, which needs no daily-use correction,
        # is within 1% of the planted total.
        assert series.cumulative[truth.n_days] == pytest.approx(
            sum(truth.true_total.values()), rel=0.01)
