"""The in-memory planted-truth sweep of the ``validate-desk`` workload.

Per seed it runs what acceptance check 5 runs: generate the full-size
desk city in memory, rebuild the observations, estimate attendance, fit
the closure model on the planted network and correlate co-location with
representation.  No CSV, CLI or SBM is involved.
"""

from __future__ import annotations

from crowdcdr import attendance as att
from crowdcdr import social, spatial, synth


def network_from_truth(truth, *, exclude: int) -> social.SocialNetwork:
    """Planted social graph without the ``exclude`` state."""
    net = social.SocialNetwork()
    for node, state in truth.node_state.items():
        if state != exclude:
            net.add_node(node, state)
    for u, v in truth.edges:
        if truth.node_state[u] != exclude and truth.node_state[v] != exclude:
            net.add_edge(u, v)
    return net


def analyse_seed(seed: int) -> dict:
    """Estimates, planted values and layer counts for one seed."""
    config = synth.desk_scenario(seed)
    truth = synth.generate_tables(config)
    obs = truth.observations()
    series = att.build_series(
        obs, truth.observed_counts, truth.profiles(),
        total_days=config.n_days,
        projections=synth.emit_projections(truth, noise=0.0),
    )
    local = next(s.code for s in config.states if s.is_local)
    net = network_from_truth(truth, exclude=local)
    triples = social.enumerate_connected_triples(net)
    fit = social.fit_closure_model(triples, series.representation, seed=seed)
    col = spatial.build_colocation_series(obs, n_days=config.n_days)
    high, low = spatial.partition_days(series.daily, n_days=config.n_days)
    rep = spatial.aggregate_q(col, high, low)
    mean_log = spatial.mean_log_representation(
        spatial.daily_representation(series.by_state_daily)
    )
    rho_a = spatial.correlate({s: r.q_a for s, r in rep.items()}, mean_log)
    return {
        "seed": seed,
        "estimates": {
            "daily_use": series.daily_use_estimate,
            "non_use": series.non_use_estimate,
            "beta1": fit.beta1,
            "se1": fit.se1,
            "rho_a": rho_a,
            "cumulative": series.cumulative[config.n_days],
        },
        "planted": {
            "daily_use": config.daily_use,
            "non_use": config.non_use,
            "beta1": config.beta1,
            "total": sum(truth.true_total.values()),
        },
        "counts": {
            "person_days": len(obs),
            "nodes": net.n_nodes,
            "edges": net.n_edges,
            "triples_all": len(triples),
            "triples_independent": fit.n_triples,
            "newton_iterations": fit.n_iterations,
        },
    }


def run_sweep(seeds) -> list[dict]:
    return [analyse_seed(seed) for seed in seeds]
