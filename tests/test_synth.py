"""Scenario generator: planted ground truth and its emitted tables."""

import hashlib
import json
import math
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crowdcdr import attendance as att
from crowdcdr import ingest, synth
from crowdcdr.errors import ConfigurationError
from crowdcdr.ingest import IngestReport, read_cdr
from crowdcdr.synth import ScenarioConfig, StateSpec
from helpers import (activity_slots, cell_counts, colocation_probability,
                     estimate_daily_use, interior_quotas, scenario_to_json,
                     stays_from_observations, stratified_stays, truth_rows)


def widest_code_states():
    """Two states whose codes span the most that ``validate`` accepts
    over the default 90 days."""
    span = (2 ** 63 - 1) // (90 * 86400 * synth.PERSON_STRIDE)
    return [StateSpec(1, "host", 500, 0.5, is_local=True, theta=0.0),
            StateSpec(span, "away", 600, 0.25, theta=0.4)]


def two_state_config(**overrides):
    states = overrides.pop("states", None) or [
        StateSpec(1, "host", 500, 0.5, is_local=True, theta=0.0),
        StateSpec(2, "away", 600, 0.25, theta=0.4),
    ]
    return ScenarioConfig(seed=4, states=states, **overrides)


class Components:
    """Union-find over the planted tie graph: components = travel groups."""

    def __init__(self, edges):
        self.parent: dict[int, int] = {}
        for u, v in edges:
            self.union(u, v)

    def find(self, x):
        self.parent.setdefault(x, x)
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        self.parent[self.find(a)] = self.find(b)


class TestValidation:
    def test_accepts_a_plain_two_state_config(self):
        two_state_config().validate()

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_days": 4}, "window shorter"),
            ({"min_stay": 1}, "at least 2 days"),
            ({"peak_stay": 3}, "peak_stay shorter"),
            ({"mean_stay": 2.0}, "mean_stay below"),
            ({"daily_use": 0.2}, "anchoring"),
            ({"peak_days": (2,)}, "leaves no room"),
            ({"peak_days": (88,)}, "leaves no room"),
            ({"projection_days": (95,)}, "outside the window"),
            ({"projection_days": (0,)}, "outside the window"),
            ({"group_size": 4}, "groups of exactly 3"),
            ({"group_size": 1}, "at least 2"),
            ({"grid_rows": 1, "grid_cols": 1, "n_inactive_towers": 0},
             "at least 2 active towers"),
            ({"non_use": 1.5}, "non_use outside"),
            ({"peak_fraction": -0.1}, "outside \\[0, 1\\]"),
            # p = 1 in the stay geometric: generation would take log1p(-1).
            ({"mean_stay": 5.0}, "mean_stay below or at min_stay"),
        ],
    )
    def test_rejects_impossible_shapes(self, overrides, message):
        with pytest.raises(ConfigurationError, match=message):
            two_state_config(**overrides).validate()

    @pytest.mark.parametrize(
        "states, message",
        [
            ([], "no states"),
            (
                [
                    StateSpec(1, "a", 10, 0.5, is_local=True),
                    StateSpec(1, "b", 10, 0.5),
                ],
                "duplicate state codes",
            ),
            (
                [StateSpec(1, "a", 10, 0.5), StateSpec(2, "b", 10, 0.5)],
                "exactly one state must be local",
            ),
            (
                [StateSpec(1, "a", 0, 0.5, is_local=True)],
                "attendees must be positive",
            ),
            (
                [StateSpec(1, "a", 10, 1.5, is_local=True)],
                "share outside",
            ),
            (
                [StateSpec(1, "a", 10, 0.5, is_local=True, theta=1.2)],
                "theta outside",
            ),
            (
                [StateSpec(1, "a", 10 ** 8, 1.0, is_local=True)],
                "person ids",
            ),
        ],
    )
    def test_rejects_bad_state_lists(self, states, message):
        with pytest.raises(ConfigurationError, match=message):
            ScenarioConfig(seed=1, states=states).validate()

    def test_rejects_state_codes_too_wide_for_the_event_sort_key(self):
        widest = two_state_config(states=widest_code_states())
        widest.validate()
        far = widest.states[1].code + 1
        wider = [widest.states[0], replace(widest.states[1], code=far)]
        with pytest.raises(ConfigurationError, match="sort key"):
            two_state_config(states=wider).validate()

    def test_rejects_groups_larger_than_every_visible_pool(self):
        tiny = [
            StateSpec(1, "host", 2, 0.5, is_local=True),
            StateSpec(2, "away", 2, 0.5),
        ]
        with pytest.raises(ConfigurationError, match="visible customer"):
            two_state_config(states=tiny).validate()

    def test_universal_non_use_is_feasible_and_silent(self, tmp_path):
        """Everyone leaves the phone off: valid scenario, empty event file."""
        cfg = two_state_config(non_use=1.0)
        cfg.validate()
        paths, truth = synth.generate(cfg, tmp_path)
        assert all(v == 0 for v in truth.visible.values())
        report = IngestReport()
        read_cdr(paths["cdr"], report=report)
        assert report.accepted == 0
        assert sum(truth.true_total.values()) > 0

    def test_config_json_roundtrip(self, tmp_path):
        cfg = two_state_config(peak_days=(30, 60), projection_noise=0.02)
        path = tmp_path / "config.json"
        scenario_to_json(cfg, path)
        assert ScenarioConfig.from_json(path) == cfg

    @pytest.mark.parametrize("edit", [
        lambda b: b.update(n_days="x"),
        lambda b: b.update(mean_stay="12"),
        lambda b: b.update(seed=True),
        lambda b: b.update(seed=-1),
        lambda b: b.update(peak_days=[41.5]),
        lambda b: b.update(states=5),
        lambda b: b["states"][0].update(attendees="9"),
        lambda b: b["states"][0].update(is_local="yes"),
        lambda b: b["states"][1].update(name=2),
    ], ids=["n_days", "mean_stay", "bool-seed", "negative-seed", "peak_days",
            "states", "attendees", "is_local", "name"])
    def test_config_json_value_of_the_wrong_kind_is_rejected(self, tmp_path,
                                                             edit):
        path = tmp_path / "config.json"
        scenario_to_json(two_state_config(), path)
        blob = json.loads(path.read_text(encoding="utf-8"))
        edit(blob)
        path.write_text(json.dumps(blob), encoding="utf-8")
        with pytest.raises(ConfigurationError, match="must be"):
            ScenarioConfig.from_json(path)

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            synth.named_scenario("nope")


class TestDeterminism:
    def test_same_seed_is_byte_identical(self, tmp_path):
        paths1, _ = synth.generate(two_state_config(), tmp_path / "a")
        paths2, _ = synth.generate(two_state_config(), tmp_path / "b")
        for name in ("cdr", "towers", "states", "projections", "truth"):
            assert paths1[name].read_bytes() == paths2[name].read_bytes()

    def test_different_seed_changes_the_events(self, tmp_path):
        cfg1 = two_state_config()
        cfg2 = two_state_config()
        cfg2.seed = 5
        paths1, _ = synth.generate(cfg1, tmp_path / "a")
        paths2, _ = synth.generate(cfg2, tmp_path / "b")
        assert paths1["cdr"].read_bytes() != paths2["cdr"].read_bytes()


class TestProjections:
    def test_zero_noise_equals_true_presence(self, desk_small_truth):
        truth = desk_small_truth
        proj = synth.emit_projections(truth, noise=0.0)
        totals = truth.true_daily_total()
        assert proj == {
            d: float(totals[d]) for d in truth.config.projection_days
        }

    def test_noisy_projections_still_calibrate_non_use(self, desk_small_truth):
        """5% projection noise: the calibrated fraction stays near truth."""
        truth = desk_small_truth
        base = att.uncorrected_daily(
            truth.observed_counts,
            truth.profiles(),
            prevalence=truth.config.prevalence,
            daily_use=truth.config.daily_use,
        )
        errors = []
        for k in range(100):
            proj = synth.emit_projections(truth, noise=0.05, seed_offset=k)
            q = att.calibrate_non_use(base, proj)
            errors.append(q - truth.config.non_use)
        errors = np.array(errors)
        assert (np.abs(errors) <= 0.03).sum() >= 90
        assert abs(errors.mean()) <= 0.01


class TestGroundTruthTables:
    def test_population_accounting(self, desk_small_truth):
        truth = desk_small_truth
        for state in truth.true_total:
            assert truth.customers[state] <= truth.true_total[state]
            assert truth.never_users[state] <= truth.customers[state]
            assert (
                truth.visible[state]
                == truth.customers[state] - truth.never_users[state]
            )

    def test_visible_persons_match_the_slot_table(self, desk_small_truth):
        truth = desk_small_truth
        per_state: dict[int, set[int]] = {}
        for p, s in zip(truth.slot_person, truth.slot_state):
            per_state.setdefault(int(s), set()).add(int(p))
        for state, persons in per_state.items():
            assert len(persons) == truth.visible[state]

    def test_stay_pairs_reproduce_planted_daily_use(self, desk_small_truth):
        truth = desk_small_truth
        stays = stays_from_observations(truth.observations())
        for n, s in stays:
            assert 1 <= n <= s
        est = estimate_daily_use(stays)
        assert est == pytest.approx(truth.config.daily_use, abs=0.01)

    def test_presence_is_elevated_around_the_planted_days(self, desk_small_truth):
        """Surge cohorts lift presence near each peak well above baseline.

        The exact presence maximum can sit anywhere inside a run of
        merged peak windows (stays overlap), so the assertion compares
        peak-day presence against days far from every peak instead of
        pinning the argmax.
        """
        truth = desk_small_truth
        totals = truth.true_daily_total()
        off_peak = [
            totals[d]
            for d in range(8, truth.n_days - 7)
            if all(abs(d - p) > 8 for p in truth.config.peak_days)
        ]
        baseline = float(np.median(off_peak))
        for peak in truth.config.peak_days:
            assert totals[peak] > 1.3 * baseline

    def test_crowding_days_surround_each_peak(self):
        cfg = two_state_config(peak_days=(5, 41))
        assert cfg.crowding_days == set(range(3, 8)) | set(range(39, 44))

    def test_summary_lists_every_state(self, desk_small_truth):
        summary = desk_small_truth.summary()
        assert set(summary["states"]) == {
            str(code) for code in desk_small_truth.true_total
        }
        assert summary["planted"]["non_use"] == 0.406


@pytest.fixture(scope="module")
def cohesive():
    cfg = two_state_config(theta_cap=1.0)
    cfg.states[1] = StateSpec(2, "away", 600, 0.25, theta=1.0)
    return synth.generate_tables(cfg), cfg


class TestPlantedCoLocation:
    def test_planted_level_follows_the_mixture_formula(self, cohesive):
        truth, cfg = cohesive
        c = cfg.n_active_cells
        pred = synth.predicted_pair_rate(cfg.states[1], cfg)
        expected = 1.0 * pred * (1 - 1 / c) + 1 / c
        assert truth.planted_qa[2] == pytest.approx(expected, abs=1e-15)

    def test_full_pull_keeps_travel_groups_in_one_cell(self, cohesive):
        truth, _ = cohesive
        groups = Components(
            e for e in truth.edges if truth.node_state[e[0]] == 2
        )
        cells_by_group_day: dict[tuple[int, int], set[int]] = {}
        sizes: dict[tuple[int, int], int] = {}
        for p, s, d, cell in zip(
            truth.slot_person, truth.slot_state, truth.slot_day, truth.slot_cell
        ):
            if int(s) != 2 or int(p) not in groups.parent:
                continue
            key = (groups.find(int(p)), int(d))
            cells_by_group_day.setdefault(key, set()).add(int(cell))
            sizes[key] = sizes.get(key, 0) + 1
        multi = [k for k, n in sizes.items() if n >= 2]
        assert len(multi) >= 20
        for key in multi:
            assert len(cells_by_group_day[key]) == 1

    def test_realized_mean_tracks_the_planted_level(self, cohesive):
        truth, _ = cohesive
        by_state_day = cell_counts(truth)
        values = []
        for d in range(1, truth.n_days + 1):
            counts = by_state_day.get((2, d))
            if counts:
                p = colocation_probability(counts)
                if p is not None:
                    values.append(p)
        assert np.mean(values) == pytest.approx(
            truth.planted_qa[2], abs=0.005
        )

    def test_targets_beyond_the_cap_are_rejected(self):
        cfg = two_state_config()
        with pytest.raises(ConfigurationError, match="beyond the cap"):
            synth.theta_for_target(0.5, cfg.states[1], cfg)

    def test_targets_at_the_uniform_floor_need_no_pull(self):
        cfg = two_state_config()
        floor = 1.0 / cfg.n_active_cells
        assert synth.theta_for_target(floor, cfg.states[1], cfg) == 0.0


class TestRepresentationRange:
    def test_recovered_shares_span_the_range_within_ten_percent(self):
        cfg = synth.representation_range_scenario(seed=1)
        truth = synth.generate_tables(cfg)
        profiles = truth.profiles()
        factor = cfg.prevalence * (1 - cfg.non_use)
        est_totals = {
            s: truth.visible[s] / (profiles[s].market_share * factor)
            for s in truth.visible
        }
        grand = sum(est_totals.values())
        visitors = [s for s in est_totals if s != 1]
        w_est = {s: est_totals[s] / grand for s in visitors}
        for s in visitors:
            assert w_est[s] == pytest.approx(truth.true_w[s], rel=0.10)
        spread = max(w_est.values()) / min(w_est.values())
        assert spread > 100.0


class TestEventMaterialization:
    def test_one_anchor_event_per_slot_plus_one_per_edge(self, desk_small_truth):
        truth = desk_small_truth
        events = synth.build_events(truth)
        assert len(events) == len(truth.slot_person) + len(truth.edges)
        tie = events.callee_is_customer
        assert tie.sum() == len(truth.edges)
        assert events.caller_is_customer[tie].all()
        assert (~tie).sum() == len(truth.slot_person)

    @pytest.mark.parametrize("config", [
        synth.named_scenario("desk-small", 1),
        two_state_config(p_out=0.05),
        two_state_config(non_use=1.0),
        two_state_config(p_out=0.05, states=widest_code_states()),
    ], ids=["desk-small", "p_out", "no-events", "widest-codes"])
    def test_events_come_in_the_lexsort_order(self, config):
        truth = synth.generate_tables(config)
        events = synth.build_events(truth)
        keys = (events.callee_id, events.caller_id, events.timestamp)
        assert np.array_equal(np.lexsort(keys), np.arange(len(events)))
        # No two rows share all three keys, so this is the only order.
        assert len(set(zip(*(k.tolist() for k in keys)))) == len(events)
        if config.p_out:
            tie = events.callee_is_customer
            per_second = Counter(zip(events.timestamp[tie].tolist(),
                                     events.caller_id[tie].tolist()))
            assert max(per_second.values()) >= 3
        if config.non_use == 1.0:
            assert len(events) == 0
        # The order of the edge list does not reach the file.
        edges = truth.edges[::-1]
        np.random.default_rng(0).shuffle(edges)
        again = synth.build_events(replace(truth, edges=edges))
        for f in fields(again):
            assert np.array_equal(getattr(again, f.name), getattr(events, f.name))

    def test_observations_come_in_person_day_order(self):
        truth = synth.generate_tables(two_state_config(p_out=0.05,
                                                       states=widest_code_states()))
        obs = truth.observations()
        order = np.lexsort((truth.slot_day, truth.slot_person))
        assert np.array_equal(obs.person_id, truth.slot_person[order])
        assert np.array_equal(obs.day, truth.slot_day[order])


#: SHA-256 of every file ``generate`` writes for desk-small, per seed.
DESK_SMALL_DIGESTS = {
    1: {
        "cdr": "71bb95549283919970621205c455f5f0d4e4c1145ec0f8cc4d34a456b727a87b",
        "towers": "6cfe2a42683badd615eeef4f37a17fe69fa23b8305bdd07a5d6aad3caa9a871d",
        "states": "6a9defb4a0b693324e29301bf31f065ddac48cce8c022b027287cce983b329da",
        "projections":
            "05b044caa97a7907a10a0573551ef00a72633d868268e34a7d95927436865a0f",
        "truth": "b7bb57b97858deac35253cbf818c2245d234486a70e726f0d7cc6c05b33cbd06",
    },
    2: {
        "cdr": "3fc63930a5ded1e20903b8db75caf0b110835b9ba63b7301ab18b8fd0f9befd5",
        "towers": "6cfe2a42683badd615eeef4f37a17fe69fa23b8305bdd07a5d6aad3caa9a871d",
        "states": "6a9defb4a0b693324e29301bf31f065ddac48cce8c022b027287cce983b329da",
        "projections":
            "9c8a196e3e05d8a0c60d5febd2c40954ae6eee8cebef4cd14b835c200095ca23",
        "truth": "58a5b4e2ff407a56682a7ac3baa6a7ec1a706762df04993aa9fd32ca5600c094",
    },
}


#: SHA-256 of every file ``generate`` writes for ``two_state_config`` with
#: cross-group ties (``p_out = 0.05``): 445 edges, up to 12 ties of one
#: caller in one second.
P_OUT_DIGESTS = {
    "cdr": "9f484d132d91088e06b131ff8986a839fdb66020e442e9f6018ee294b5e7bc8d",
    "towers": "6cfe2a42683badd615eeef4f37a17fe69fa23b8305bdd07a5d6aad3caa9a871d",
    "states": "af07bded7e1fa15a20f87f6f6a93c475cf832e971974affaaae3c9373f275e92",
    "projections":
        "859f48071ca8dd68b19296ff0d013a26ceabd2664e6ee6f87277157c7ab63134",
    "truth": "145f7c823f4c678ba470cd25ac22f8cc31f17590f6f6c5c43be474dc85081929",
}


#: SHA-256 of desk seed 1's ``cdr.csv``: its 51,207 rows span four blocks
#: of ``ingest.WRITE_BLOCK_ROWS``, where desk-small's fit in one.
DESK_CDR_DIGEST = "7c2736aa861e5b6ca89a07c04bda2e14441dc06c53648f5f0c5545b2e493f875"


#: (k, phase, min_stay, excess, span, j): cohorts whose quantile j gives a
#: ratio within an ulp of an integer, where numpy 2.4's SIMD ``log1p`` on
#: an AVX-512 x86 CPU takes the ceil one off ``math.log1p``'s.
BOUNDARY_QUANTILES = [
    (5, 0.3795239230992825, 4, 12.0, 61, 1),
    (3, 0.8114501161369414, 2, 30.32, 12, 2),
    (1, 0.24543427107276058, 10, 39.797, 25, 0),
    (2, 0.8178439159804064, 6, 20.327, 48, 1),
]


def at_boundary_quantiles(test):
    """Hypothesis ``@example``s of the cohorts in ``BOUNDARY_QUANTILES``."""
    for k, phase, min_stay, excess, span, _ in BOUNDARY_QUANTILES:
        test = example(k=k, phase=phase, min_stay=min_stay, excess=excess,
                       span=span)(test)
    return test


class TestColumnarGenerator:
    @pytest.mark.parametrize("seed", sorted(DESK_SMALL_DIGESTS))
    def test_generated_files_are_pinned(self, tmp_path, seed):
        paths, _ = synth.generate(synth.named_scenario("desk-small", seed),
                                  tmp_path)
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == DESK_SMALL_DIGESTS[seed]

    def test_generated_files_with_cross_group_ties_are_pinned(self, tmp_path):
        paths, truth = synth.generate(two_state_config(p_out=0.05), tmp_path)
        assert len(truth.edges) == 445
        digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for name, path in paths.items()}
        assert digests == P_OUT_DIGESTS

    def test_cdr_file_of_several_writer_blocks_is_pinned(self, tmp_path):
        paths, _ = synth.generate(synth.named_scenario("desk", 1), tmp_path)
        data = paths["cdr"].read_bytes()
        assert data.count(b"\n") - 1 > 3 * ingest.WRITE_BLOCK_ROWS
        assert hashlib.sha256(data).hexdigest() == DESK_CDR_DIGEST

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(0, 300),
           phase=st.floats(0.0, 1.0, exclude_max=True),
           min_stay=st.integers(2, 12),
           excess=st.floats(0.01, 40.0),
           span=st.integers(0, 80))
    @example(k=0, phase=0.5, min_stay=5, excess=7.0, span=10)
    @example(k=1, phase=0.0, min_stay=5, excess=7.0, span=10)
    @example(k=40, phase=0.3, min_stay=5, excess=7.0, span=0)
    @example(k=2, phase=0.9999999999999999, min_stay=2, excess=1.0, span=53)
    @at_boundary_quantiles
    def test_stays_equal_the_scalar_oracle(self, k, phase, min_stay, excess,
                                           span):
        cfg = ScenarioConfig(min_stay=min_stay, mean_stay=min_stay + excess)
        max_stay = min_stay + span
        try:
            want = stratified_stays(k, cfg, max_stay, phase)
        except ValueError:
            # A quantile that rounds to 1 takes log1p(-1); both fail alike.
            with pytest.raises(ValueError):
                synth._stratified_stays([k], cfg, [max_stay], [phase])
        else:
            got = synth._stratified_stays([k], cfg, [max_stay], [phase])
            assert got.tolist() == want

    @pytest.mark.parametrize("k, phase, min_stay, excess, span, j",
                             BOUNDARY_QUANTILES)
    def test_boundary_quantiles_are_recomputed(self, k, phase, min_stay,
                                               excess, span, j):
        cfg = ScenarioConfig(min_stay=min_stay, mean_stay=min_stay + excess)
        log_p = math.log1p(-1.0 / (cfg.mean_stay - cfg.min_stay + 1.0))
        mass = -math.expm1(log_p * (span + 1))
        ratio = math.log1p(-((j + phase) / k * mass)) / log_p
        # Within an ulp of an integer, so inside the recomputed window.
        assert abs(ratio - round(ratio)) <= math.ulp(ratio)
        assert abs(ratio - round(ratio)) <= ratio * synth._CEIL_SLACK

    @settings(max_examples=300, deadline=None)
    @given(cohorts=st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3000)),
                            max_size=60),
           u=st.floats(0.0, 1.0))
    def test_interior_quotas_equal_the_floor_with_carry_oracle(self, cohorts,
                                                               u):
        stays, sizes = [c[0] for c in cohorts], [c[1] for c in cohorts]
        assert synth._interior_quotas(stays, sizes, u) \
            == interior_quotas(stays, sizes, u)

    def test_stays_of_several_cohorts_concatenate(self):
        cfg = ScenarioConfig()
        cohorts = [(3, 50, 0.1), (0, 40, 0.7), (1, 5, 0.0), (7, 5, 0.9)]
        counts, max_stays, phases = zip(*cohorts)
        got = synth._stratified_stays(counts, cfg, max_stays, phases)
        assert got.tolist() == [s for k, m, ph in cohorts
                                for s in stratified_stays(k, cfg, m, ph)]

    def test_max_stay_below_min_stay_is_rejected(self):
        with pytest.raises(ConfigurationError, match="below min_stay"):
            synth._stratified_stays([2], ScenarioConfig(), [4], [0.5])

    @pytest.mark.parametrize("daily_use", [0.404, 0.4, 1.0])
    def test_activity_slots_equal_the_loop_oracle(self, daily_use):
        cfg = two_state_config(daily_use=daily_use)
        arrivals, stays, _, _ = synth._roster(300, cfg.states[1], cfg)
        rng, rng_oracle = (np.random.default_rng(11) for _ in range(2))
        schedule = synth._schedule(arrivals, stays, daily_use)
        persons = schedule.persons(rng)
        want_p, want_d, want_n = activity_slots(arrivals, stays, daily_use,
                                                rng_oracle)
        assert persons.tolist() == want_p
        assert schedule.days.tolist() == want_d
        assert (np.bincount(persons, minlength=len(arrivals)).tolist()
                == want_n.tolist())
        assert rng.bit_generator.state == rng_oracle.bit_generator.state


def cold_truth(config):
    """``truth_rows`` of ``generate_tables`` with the plan cleared first."""
    synth._PLAN = None
    return truth_rows(synth.generate_tables(config))


def plan_config():
    """A small city in which every field but the seed can change alone."""
    return two_state_config(peak_stay=7, p_in=0.0)


#: A valid new value for each field of ``plan_config`` but the seed.
CONFIG_CHANGES = {
    "n_days": 80, "window_start": ScenarioConfig().window_start + 86400,
    "mean_stay": 10.0, "min_stay": 6, "peak_days": (41, 60), "peak_stay": 8,
    "peak_fraction": 0.3, "prevalence": 0.7, "daily_use": 0.5,
    "non_use": 0.3, "group_size": 2, "p_in": 0.5, "p_out": 0.01,
    "beta0": 0.5, "beta1": -0.3, "grid_rows": 10, "grid_cols": 12,
    "cell_km": 0.5, "n_inactive_towers": 5, "origin_lat": 20.0,
    "origin_lon": 80.0, "theta_peak_boost": 1.2, "theta_cap": 0.9,
    "projection_days": (25, 35), "projection_noise": 0.05,
}
#: The same for the visiting state's fields; ``is_local`` swaps between
#: the two states, since exactly one must be local.
STATE_CHANGES = {"code": 3, "name": "elsewhere", "attendees": 700,
                 "market_share": 0.3, "theta": 0.5, "is_local": None}


def with_one_field_changed(name):
    base = plan_config()
    if name in CONFIG_CHANGES:
        return replace(base, **{name: CONFIG_CHANGES[name]})
    host, away = base.states
    if name == "is_local":
        return replace(base, states=[replace(host, is_local=False),
                                     replace(away, is_local=True)])
    away = replace(away, **{name: STATE_CHANGES[name]})
    return replace(base, states=[host, away])


class TestPlanCache:
    """``generate_tables`` plans a city once and reuses it across seeds."""

    def test_the_cases_cover_every_field_but_the_seed(self):
        assert set(CONFIG_CHANGES) == {
            f.name for f in fields(ScenarioConfig)} - {"seed", "states"}
        assert set(STATE_CHANGES) == {f.name for f in fields(StateSpec)}

    @pytest.mark.parametrize("name", [*CONFIG_CHANGES, *STATE_CHANGES])
    def test_a_config_that_differs_in_one_field_gets_its_own_plan(self, name):
        config = with_one_field_changed(name)
        config.validate()
        synth.generate_tables(plan_config())
        warm = truth_rows(synth.generate_tables(config))
        assert warm == cold_truth(config)

    def test_interleaved_scenarios_each_get_the_truth_of_a_cold_run(self):
        runs = [("desk", 3), ("desk", 1), ("band", 1), ("desk", 2),
                ("desk-small", 1), ("desk-small", 2), ("desk", 3)]
        want = [cold_truth(synth.named_scenario(name, seed))
                for name, seed in runs]
        synth._PLAN = None
        plans = []
        for (name, seed), expected in zip(runs, want):
            got = truth_rows(synth.generate_tables(
                synth.named_scenario(name, seed)))
            assert got == expected, (name, seed)
            plans.append(synth._PLAN)
        # The plan is reused exactly when the scenario repeats.
        reused = [a is b for a, b in zip(plans, plans[1:])]
        assert reused == [True, False, False, False, True, False]

    def test_writing_to_a_returned_truth_leaves_the_next_run_unchanged(self):
        config = synth.named_scenario("desk-small", seed=1)
        want = cold_truth(config)
        truth = synth.generate_tables(config)
        for a in (truth.slot_person, truth.slot_state, truth.slot_day,
                  truth.slot_cell, truth.triples.nodes, truth.triples.state,
                  truth.triples.closed):
            a[...] = 0
        for table in (truth.true_daily, truth.observed_counts,
                      truth.customers, truth.never_users, truth.visible,
                      truth.closed_prob, truth.node_state, truth.planted_p,
                      truth.planted_qa, truth.towers, truth.active_tower_ids,
                      truth.edges):
            table.clear()
        assert truth_rows(synth.generate_tables(config)) == want

    def test_the_plan_arrays_are_read_only(self):
        synth.generate_tables(plan_config())
        sp = synth._PLAN.states[0]
        with pytest.raises(ValueError, match="read-only"):
            sp.schedule.days[0] = 0

