"""Release gate: eight end-to-end checks, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Each check states its tolerance and time budget inline;
the slowest (the 100-seed synthetic-city sweep) finishes in about half a
minute on commodity hardware against a ten-minute budget.
"""

import math
import time

import numpy as np

from crowdcdr import attendance as att
from crowdcdr import cli, reference, sbm, social, spatial, synth
from helpers import (
    brute_force_triples,
    colocation_probability,
    group_structure_bias_se,
    network_from_truth,
    pair_enumeration_probability,
    sample_grouped_state,
)


def report(n: int, name: str, ok: bool, detail: str) -> None:
    line = f"[check {n}/8] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def test_1_nonuse_sensitivity_matches_reported_totals():
    """24,467,257 visible handsets scale to 54/69/60.6 million attendees."""
    t0 = time.perf_counter()
    grid = [0.45, 0.35, 0.406]
    targets = {0.45: 54e6, 0.35: 69e6, 0.406: 60.6e6}
    curve = dict(att.sensitivity_curve(reference.UNIQUE_VISITOR_HANDSETS, grid))
    errs = {q: abs(curve[q] / targets[q] - 1.0) for q in grid}
    elapsed = time.perf_counter() - t0
    ok = max(errs.values()) <= 0.015 and elapsed < 1.0
    report(
        1, "non-use sensitivity", ok,
        "rel err vs 54M/69M/60.6M = "
        + "/".join(f"{errs[q]:.4f}" for q in grid)
        + f" (<=0.015), {elapsed:.3f}s (<1s)",
    )


def test_2_colocation_probability_matches_pair_enumeration():
    """1000 random occupancy vectors vs exact exhaustive-pair counting."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    nontrivial = 0
    for _ in range(1000):
        n_cells = int(rng.integers(1, 31))
        total = int(rng.integers(0, 201))
        counts = [int(c) for c in
                  rng.multinomial(total, np.ones(n_cells) / n_cells)]
        p = colocation_probability(dict(enumerate(counts)))
        oracle = pair_enumeration_probability(counts)
        if oracle is None:
            assert p is None
            continue
        nontrivial += 1
        worst = max(worst, abs(p - float(oracle)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and nontrivial >= 900 and elapsed < 10.0
    report(
        2, "co-location probability", ok,
        f"max |diff| {worst:.2e} (<=1e-12) over {nontrivial} nontrivial "
        f"instances, {elapsed:.1f}s (<10s)",
    )


def test_3_triple_census_matches_cubic_enumeration():
    """500 random mixed-state graphs vs O(n^3) node-set enumeration."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    mismatches = 0
    graphs = 0
    for _ in range(500):
        n = int(rng.integers(2, 61))
        p = float(rng.uniform(0.0, 0.3))
        states = rng.integers(1, 5, size=n)
        net = social.SocialNetwork()
        for node in range(n):
            net.add_node(node, int(states[node]))
        mask = rng.random((n, n)) < p
        for u in range(n):
            for v in range(u + 1, n):
                if mask[u, v]:
                    net.add_edge(u, v)
        census = social.census_triples(net)
        closed, open_ = brute_force_triples(net)
        graphs += 1
        for s in set(states.tolist()):
            bc, bo = closed.get(s, 0), open_.get(s, 0)
            if (census.closed.get(s, 0), census.open.get(s, 0)) != (bc, bo):
                mismatches += 1
            denom = 3 * bc + bo
            expect_t = 3 * bc / denom if denom else None
            if social.transitivity(census, s) != expect_t:
                mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and graphs == 500 and elapsed < 60.0
    report(
        3, "triple census", ok,
        f"{graphs} graphs, {mismatches} mismatches (exact match required), "
        f"{elapsed:.1f}s (<60s)",
    )


def test_4_logistic_slope_matches_two_level_analytic_value():
    """Closure odds 1:1 at share 0.01 and 3:7 at 0.1 give b1 = ln(3/7)."""
    t0 = time.perf_counter()
    n = 1_000_000
    fit = social.fit_logistic(
        [1, 0, 1, 0],
        [0.01, 0.01, 0.1, 0.1],
        weights=[0.25 * n, 0.25 * n, 0.15 * n, 0.35 * n],
    )
    target = math.log(3 / 7)
    err = abs(fit.beta1 - target)
    elapsed = time.perf_counter() - t0
    ok = err < 1e-6 and fit.max_score < 1e-10
    report(
        4, "closure-slope likelihood", ok,
        f"|b1 - ln(3/7)| {err:.2e} (<1e-6), score max-norm "
        f"{fit.max_score:.2e} (<1e-10), {elapsed:.3f}s",
    )


def test_5_pipeline_recovers_planted_city_parameters():
    """Seeds 1-100 of the full-size city scenario, analyzed in memory.

    Per seed: daily-use within 0.01 and calibrated non-use within 0.03 of
    the planted values; the closure-slope 95% CI covers the planted -0.208
    in at least 90 runs; the co-location/representation correlation is
    negative in at least 95 runs.
    """
    t0 = time.perf_counter()
    du_err = 0.0
    q_err = 0.0
    ci_cover = 0
    rho_neg = 0
    for seed in range(1, 101):
        config = synth.desk_scenario(seed)
        truth = synth.generate_tables(config)
        obs = truth.observations()
        series = att.build_series(
            obs, truth.observed_counts, truth.profiles(),
            total_days=config.n_days,
            projections=synth.emit_projections(truth, noise=0.0),
        )
        du_err = max(du_err, abs(series.daily_use_estimate - 0.404))
        q_err = max(q_err, abs(series.non_use_estimate - 0.406))

        net = network_from_truth(truth, exclude=1)
        triples = social.enumerate_connected_triples(net)
        fit = social.fit_closure_model(
            triples, series.representation, seed=seed,
        )
        if fit.ci1[0] <= -0.208 <= fit.ci1[1]:
            ci_cover += 1

        col = spatial.build_colocation_series(obs, n_days=config.n_days)
        high, low = spatial.partition_days(series.daily, n_days=config.n_days)
        rep = spatial.aggregate_q(col, high, low)
        mlr = spatial.mean_log_representation(
            spatial.daily_representation(series.by_state_daily)
        )
        rho = spatial.correlate({s: r.q_a for s, r in rep.items()}, mlr)
        if rho is not None and rho < 0:
            rho_neg += 1
    elapsed = time.perf_counter() - t0
    ok = (du_err <= 0.01 and q_err <= 0.03
          and ci_cover >= 90 and rho_neg >= 95 and elapsed < 600.0)
    report(
        5, "planted-parameter recovery", ok,
        f"daily-use err {du_err:.4f} (<=0.01), non-use err {q_err:.4f} "
        f"(<=0.03), slope CI cover {ci_cover}/100 (>=90), rho<0 "
        f"{rho_neg}/100 (>=95), {elapsed:.1f}s (<600s)",
    )


def test_6_colocation_invariant_to_crowd_scaling():
    """Scaling every cell count by a raises p toward the density limit.

    100 random layouts; p must increase monotonically in a and land
    within 1e-6 of sum(share^2) once a = 1000.
    """
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_final = 0.0
    monotone = True
    for _ in range(100):
        n_cells = int(rng.integers(2, 41))
        base = rng.integers(1, 101, size=n_cells)
        base = base * math.ceil(1200 / base.sum())
        total = int(base.sum())
        limit = float(sum((c / total) ** 2 for c in base))
        ps = [
            colocation_probability(
                {i: a * int(c) for i, c in enumerate(base)}
            )
            for a in (1, 2, 5, 10, 100, 1000)
        ]
        if any(b <= a for a, b in zip(ps, ps[1:])):
            monotone = False
        worst_final = max(worst_final, abs(ps[-1] - limit))
    elapsed = time.perf_counter() - t0
    ok = monotone and worst_final <= 1e-6 and elapsed < 10.0
    report(
        6, "crowd-scaling limit", ok,
        f"monotone-in-a {monotone}, max |p(1000x) - limit| "
        f"{worst_final:.2e} (<=1e-6), {elapsed:.1f}s",
    )


def test_7_group_structure_inflates_within_state_density():
    """Travel-group structure vs the uniform-block reading of p_kk."""
    t0 = time.perf_counter()
    single_exact = all(
        sbm.group_structure_bias(1, m, 0.20, 0.04) == 0.20
        for m in (2, 3, 5, 17, 100, 500)
    )
    val = sbm.group_structure_bias(100, 5, 0.20, 0.04)
    expected = (1000 * 0.20 + 123_750 * 0.04) / 124_750
    analytic_ok = (math.isclose(val, expected, rel_tol=1e-12)
                   and abs(val - 0.0413) < 5e-5)
    rng = np.random.default_rng(7)
    net, _ = sample_grouped_state(
        rng, state=1, g=100, m=5, p_in=0.20, p_out=0.04,
    )
    est = sbm.estimate_block_probs(net)
    se = group_structure_bias_se(100, 5, 0.20, 0.04)
    sample_dev = abs(est.p_kk[1] - val)
    sample_ok = sample_dev <= 3 * se
    demo = sbm.joint_bias_demo(seed=0)
    trans = list(demo.within_transitivity.values())
    demo_ok = (
        demo.ratio_estimated > 4
        and demo.ratio_analytic > 4
        and all(abs(t - 0.20) < 0.02 for t in trans)
    )
    elapsed = time.perf_counter() - t0
    ok = single_exact and analytic_ok and sample_ok and demo_ok
    report(
        7, "group-structure bias", ok,
        f"single-group exact {single_exact}, 100x5 avg {val:.5f} "
        f"(0.0413+-5e-5), sample dev {sample_dev:.5f} (<=3SE={3 * se:.5f}), "
        f"demo ratio {demo.ratio_estimated:.2f} (>4) with within-group "
        f"transitivity {'/'.join(f'{t:.3f}' for t in trans)} (~0.20), "
        f"{elapsed:.1f}s",
    )


def test_8_headline_constants_consistent():
    """Documented headline values agree with defaults and planted targets."""
    t0 = time.perf_counter()
    factors = att.AdjustmentFactors()
    lo, hi = reference.CO_LOCATION_RANGE
    band_mean = sum(synth.BAND_TARGETS) / len(synth.BAND_TARGETS)
    central = reference.UNIQUE_VISITOR_HANDSETS / factors.non_use
    checks = {
        "cumulative 61M": reference.CUMULATIVE_ATTENDANCE == 61_000_000,
        "peak 25M": reference.PEAK_DAILY_ATTENDANCE == 25_000_000,
        "peak<cumulative":
            reference.PEAK_DAILY_ATTENDANCE < reference.CUMULATIVE_ATTENDANCE,
        "handsets 24467257":
            reference.UNIQUE_VISITOR_HANDSETS == 24_467_257,
        "cli numerator": cli.DEFAULT_CONFIG["sensitivity_numerator"]
            == reference.UNIQUE_VISITOR_HANDSETS,
        "central estimate ~61M":
            abs(central / reference.CUMULATIVE_ATTENDANCE - 1.0) < 0.02,
        "slope -0.208": reference.CLOSURE_SLOPE_PER_DECADE == -0.208,
        "slope planted":
            synth.desk_scenario(1).beta1 == reference.CLOSURE_SLOPE_PER_DECADE,
        "odds ratio 0.812":
            abs(reference.CLOSURE_ODDS_RATIO_PER_DECADE - 0.812) < 5e-4,
        "rho_a -0.54": reference.CO_LOCATION_RHO_ALL_DAYS == -0.54,
        "rho_d -0.27": reference.CO_LOCATION_RHO_DENSITY_RATIO == -0.27,
        "q band": reference.CO_LOCATION_RANGE == (0.0025, 0.018),
        "band targets inside":
            all(lo <= t <= hi for t in synth.BAND_TARGETS),
        "band mean ~0.013":
            abs(band_mean - reference.CO_LOCATION_TYPICAL) < 1e-3,
        "factors": (factors.prevalence, factors.daily_use, factors.non_use)
            == (0.713, 0.404, 0.406),
    }
    failed = [name for name, good in checks.items() if not good]
    elapsed = time.perf_counter() - t0
    ok = not failed
    report(
        8, "headline constants", ok,
        (f"{len(checks)} identities hold" if ok
         else f"failed: {', '.join(failed)}") + f", {elapsed:.3f}s",
    )
