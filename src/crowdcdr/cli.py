"""Command-line front end: generate, ingest, analyze, report.

Subcommands wire the pipeline end to end over comma-separated
files in an input directory (cdr.csv, towers.csv, states.csv, and
optionally projections.csv):

- ``gen``        write a synthetic scenario's input files
- ``ingest``     parse + deduplicate, emit observations and counts
- ``attendance`` daily/cumulative estimates, calibration, sensitivity
- ``social``     triple census and the closure-vs-representation fit
- ``spatial``    co-location report, day partition, bootstrap CIs
- ``sbm``        block-model baseline and the group-structure bias demo
- ``report``     all of the above but the demo, plus a single summary

Each analysis command is a row of ``COMMANDS``, run by ``run_command``.

Exit codes: 2 for usage errors (an ``--output-dir`` that cannot be made a
directory among them), 3 for data/validation errors, 4 for
numerical analysis failures (separation, non-convergence). Every run
writes a manifest with a content digest per output file; a failed run
records the stage that failed instead of the outputs it did not reach.

The command process, ``python -m crowdcdr.cli`` or the ``crowdcdr``
console script (``crowdcdr.__main__``), runs BLAS on one thread and
without the cyclic garbage collector, which it freezes before it exits
(``command``). Importing this module pins the BLAS thread alone; a call
to ``main`` from another program leaves its collector as it found it.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from functools import cache, cached_property, partial
from pathlib import Path
from typing import Callable, Iterator, Mapping, Sequence

#: The variables that set the thread count of numpy's OpenBLAS, the first
#: taking precedence over the other two.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")

# One BLAS thread for the command: its BLAS calls are too small to share,
# its parallelism is its forked workers, and on a 2-vCPU host a second
# thread costs every run about 75 ms as numpy loads. Set before numpy
# loads, so it must stay above every import that loads it; not where the
# user set one of the variables, nor where numpy was loaded before (it
# would change no thread).
if ("numpy" not in sys.modules
        and os.environ.keys().isdisjoint(BLAS_THREAD_VARIABLES)):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

#: The variables as they stood then, None where unset: for the command,
#: as numpy found them. The manifest records them.
BLAS_THREADS = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}

# No cyclic collector in the command process: a whole ``report`` leaves
# under a thousand unreachable objects, none holding an array, so its
# collections (38 while numpy and this package load, more in the stages)
# find next to nothing. Off before numpy loads; under ``python -m`` only,
# so an import changes nothing (the console script turns it off in
# ``crowdcdr.__main__``).
if __name__ == "__main__":
    gc.disable()

import numpy as np  # noqa: E402

from . import __version__  # noqa: E402
from . import attendance as att  # noqa: E402
from . import geo, ingest, reference, sbm, social, spatial  # noqa: E402
from .errors import (  # noqa: E402
    AnalysisError,
    ConfigurationError,
    ConvergenceError,
    EstimationError,
    IngestError,
    SchemaError,
    SeparationError,
)
from .ingest import (  # noqa: E402
    DEFAULT_WINDOW,
    IngestReport,
    ObservationColumns,
    StudyWindow,
    is_int,
    load_projections,
    load_state_profiles,
    load_towers,
    local_state,
    mark_tower_activity,
    read_cdr,
    write_columns,
    write_table,
)
from .worker import forked  # noqa: E402

DATA_ERRORS = (SchemaError, IngestError, ConfigurationError)
ANALYSIS_ERRORS = (EstimationError, AnalysisError, SeparationError,
                   ConvergenceError)

#: Analysis defaults. Daily use is not among them: it is always estimated
#: from the observed stays.
DEFAULT_CONFIG: dict = {
    "prevalence": att.DEFAULT_PREVALENCE,
    "non_use": att.DEFAULT_NON_USE,
    "sensitivity_numerator": reference.UNIQUE_VISITOR_HANDSETS,
    "sensitivity_grid": [round(0.05 * k, 2) for k in range(1, 20)],
    "calibrate_non_use": True,
    "exclude_local": True,
    "subsample_seed": 0,
    "bootstrap_replicates": 1000,
    "bootstrap_seed": 0,
    "peak_mode": "data",
    "calendar_peaks": [41, 46, 69],
}


def load_config(path: str | None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        try:
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from None
        if not isinstance(user, dict):
            raise ConfigurationError(f"config {path} is not a JSON object")
        unknown = set(user) - set(cfg)
        if unknown:
            raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(user)
    return cfg


def check_config(cfg: Mapping) -> None:
    """Raise ConfigurationError for a config value no stage can run with."""
    low, high = spatial.MIN_BOOTSTRAP_REPLICATES, spatial.MAX_BOOTSTRAP_REPLICATES
    # NaN fails both comparisons, and an integer past the float range
    # fails one.
    number = (lambda v: (is_int(v) or isinstance(v, float))
              and -sys.float_info.max <= v <= sys.float_info.max,
              "a finite number")
    flag = (lambda v: isinstance(v, bool), "true or false")
    seed = (lambda v: is_int(v) and v >= 0, "a non-negative integer")
    kinds = {
        "prevalence": number, "non_use": number,
        "sensitivity_numerator": number,
        "sensitivity_grid": (lambda v: isinstance(v, list)
                             and all(map(number[0], v)),
                             "a list of finite numbers"),
        "calibrate_non_use": flag, "exclude_local": flag,
        "subsample_seed": seed, "bootstrap_seed": seed,
        "bootstrap_replicates": (lambda v: is_int(v) and low <= v <= high,
                                 f"an integer of at least {low} and at most "
                                 f"{high}"),
        "peak_mode": (lambda v: v in ("data", "calendar"), "'data' or 'calendar'"),
        "calendar_peaks": (lambda v: isinstance(v, list)
                           and all(map(is_int, v)), "a list of integers"),
    }
    for key, (valid, kind) in kinds.items():
        if not valid(cfg[key]):
            raise ConfigurationError(f"{key} must be {kind}, got {cfg[key]!r:.40}")


#: Where this process's peak resident size is read: the high-water mark
#: Linux keeps per process, or ``getrusage``'s ``ru_maxrss``, which
#: survives ``execve`` and so can be the peak of the process that
#: started this one.
_STATUS = Path("/proc/self/status")
_PEAK_RSS_SOURCE = "VmHWM" if _STATUS.exists() else "ru_maxrss"


def sha256_of(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


@dataclass
class RunManifest:
    """Inputs, outputs (with digests), versions, timings and memory of one run.

    ``peak_rss_mb`` holds the peak resident set size of the process that
    ran each stage, after it, as ``peak_rss_source`` says it was read:
    ``VmHWM`` (Linux's high-water mark of the process) or ``ru_maxrss``
    (``getrusage``'s, which can be that of the process that started this
    one). Either is the process's high-water mark so far, so a stage
    whose own peak is lower than an earlier stage's shows that earlier
    value: the largest is the run's peak, and a later stage's own peak
    shows only where it is above all before it. When a worker ran,
    ``workers`` holds the largest ``ru_maxrss`` of the run's children,
    each of which starts its own mark at its fork.
    ``stages`` holds what a stage tells about its input: for ``load``,
    how the CDR file was read and what was kept of it. That is
    ``row_reader_from``, the 1-based CDR data row from which the file was
    read by rows (None when it was read wholly in blocks), and
    ``split_row``, the one from which a worker's read was used (None when
    one process read it), and ``worker_wait_s``, the seconds this process
    waited for that worker after its own part (None with ``split_row``);
    ``rows`` and ``accepted``, the CDR data rows
    read and accepted; ``rejects``, the rows rejected by reason, sorted by
    reason (``rejected`` in ``ingest_report.json``); ``person_days``,
    ``parties`` and ``contact_pairs``, the rows of the observations and of
    the contact table's two parts; and ``active_towers``, the towers with
    accepted traffic. When ``load`` fails, it holds those before
    ``person_days``, as far as the file was read. For ``ingest`` it
    holds ``worker``, whether a worker wrote its artifacts, and when one
    did, ``wait_s``, the seconds this process waited for it after its own
    stages. For
    ``social``: ``nodes``, ``edges``, ``triples_all`` and
    ``triples_independent``, the network and its triples, all and in the
    node-disjoint subsample. For ``spatial``:
    ``active_cells`` and ``silent_towers``, the towers with and without a
    cell; ``colocation_days``, the (state, day) pairs with a defined p; and
    ``clip_steps``, the most bisectors any one cell was clipped by,
    those that left it as it was included (not the clipping's passes,
    which follow the cuts). ``failure`` holds
    ``failed_stage``, ``error`` and ``exit_code`` when the run stopped on
    a data or analysis error, and is empty otherwise. ``versions`` holds
    those of crowdcdr, numpy and Python, under ``blas_threads`` the
    ``BLAS_THREADS`` variables, and under ``gc`` the cyclic collector as
    the manifest is written: ``enabled`` (false in the command process)
    and ``collections``, how many it has run in this process.
    """

    command: str
    seed: int | None = None
    config_digest: str = ""
    inputs: dict[str, str] = field(default_factory=dict)
    outputs: dict[str, dict] = field(default_factory=dict)
    timings_s: dict[str, float] = field(default_factory=dict)
    peak_rss_mb: dict[str, float] = field(default_factory=dict)
    peak_rss_source: str = _PEAK_RSS_SOURCE
    stages: dict[str, dict] = field(default_factory=dict)
    versions: dict[str, object] = field(default_factory=dict)
    failure: dict = field(default_factory=dict)

    def __post_init__(self):
        self.versions = {
            "crowdcdr": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "blas_threads": dict(BLAS_THREADS),
        }

    def add_output(self, name: str, path: Path) -> None:
        self.outputs[name] = {"path": str(path), "sha256": sha256_of(path)}

    def absorb(self, part: RunManifest) -> None:
        """Add the timings, peaks, stages and outputs of ``part`` after these."""
        self.timings_s.update(part.timings_s)
        self.peak_rss_mb.update(part.peak_rss_mb)
        self.stages.update(part.stages)
        self.outputs.update(part.outputs)

    def write(self, path: Path) -> None:
        self.versions["gc"] = {
            "enabled": gc.isenabled(),
            "collections": sum(gen["collections"] for gen in gc.get_stats()),
        }
        blob = asdict(self)
        blob.update(blob.pop("failure"))
        path.write_text(json.dumps(blob, indent=2) + "\n", encoding="utf-8")


def config_digest(cfg: Mapping) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


# ---------------------------------------------------------------------------
# Shared data loading


@dataclass
class PipelineData:
    """Everything the analysis stages consume, loaded once.

    The accepted CDR rows are never held together: ``ingest.read_cdr``
    reduces them block by block to ``observations``, one row per (person,
    day), ``contacts``, the parties and pairs the network is built from,
    and the towers with traffic, which set the activity of ``towers``.
    ``Run.network`` lets go of ``contacts`` (sets it to None) once it has
    built the network from it.
    """

    observations: ObservationColumns
    contacts: social.ContactTable | None
    counts: dict
    towers: list
    profiles: dict
    projections: dict | None
    local: int
    window: StudyWindow
    report: IngestReport


# ---------------------------------------------------------------------------
# The C allocator. By default glibc's malloc gives a block of 128 KiB or
# more its own mapping, but raises that threshold to the size of each such
# block freed, up to 32 MiB, so which arrays come from the heap depends on
# the order of earlier frees. ``main`` fixes the threshold. Under another C
# library nothing changes.

#: ``M_MMAP_THRESHOLD`` of glibc's malloc.h.
_M_MMAP_THRESHOLD = -3

#: Above the transients of one CDR block (a 1 MiB block and its parsed
#: table), which then reuse heap pages, and below the person-day columns
#: of a large file's merge, which then go back to the system when freed
#: instead of fragmenting the heap.
_MMAP_THRESHOLD = 2 << 20


@cache
def _glibc() -> ctypes.CDLL | None:
    """The C library when it has glibc's ``mallopt``."""
    if not sys.platform.startswith("linux"):
        return None
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None
    if not hasattr(libc, "mallopt"):
        return None
    libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    libc.mallopt.restype = ctypes.c_int
    return libc


def _set_mmap_threshold(size: int) -> None:
    """Fix glibc's mmap threshold at ``size`` bytes."""
    libc = _glibc()
    if libc is not None:
        libc.mallopt(_M_MMAP_THRESHOLD, size)


def load_pipeline_data(input_dir: Path, report: IngestReport) -> PipelineData:
    """The inputs of ``input_dir``, the CDR file's counts filled into
    ``report`` as it is read, so that they are there if it fails."""
    window = DEFAULT_WINDOW
    cdr = input_dir / "cdr.csv"
    towers_path = input_dir / "towers.csv"
    states_path = input_dir / "states.csv"
    for p in (cdr, towers_path, states_path):
        if not p.exists():
            raise IngestError(f"missing input file {p}")
    towers = load_towers(towers_path)
    profiles = load_state_profiles(states_path)
    cdr_data = read_cdr(cdr, window=window,
                        known_towers={t.tower_id for t in towers}, report=report)
    if not report.accepted:
        raise IngestError(
            f"no accepted rows in {cdr}: {report.rows} rows, rejected "
            f"{dict(sorted(report.rejects.items()))}"
        )
    towers = mark_tower_activity(towers, set(cdr_data.towers.tolist()))
    daily = cdr_data.observations
    counts = daily.unique_handsets()
    proj_path = input_dir / "projections.csv"
    projections = load_projections(proj_path) if proj_path.exists() else None
    return PipelineData(
        observations=daily,
        contacts=cdr_data.contacts,
        counts=counts,
        towers=towers,
        profiles=profiles,
        projections=projections,
        local=local_state(profiles),
        window=window,
        report=report,
    )


@dataclass
class Run:
    """One analysis run: its config, its data and what its stages share.

    The attendance series and the social network are built on first
    use, so each is built at most once per run, by whichever stage asks
    first; the ``sbm`` stage, the last to read the network, lets go of
    it. ``results`` holds each finished stage's result by name, and
    ``counts`` what a stage tells the manifest's ``stages`` block.
    ``seed`` is the SBM demo's, from ``crowdcdr sbm --seed``.
    """

    cfg: dict
    outdir: Path
    seed: int | None = None
    data: PipelineData | None = None
    results: dict[str, object] = field(default_factory=dict)
    counts: dict[str, dict] = field(default_factory=dict)

    @cached_property
    def series(self) -> att.AttendanceSeries:
        cfg = self.cfg
        return att.build_series(
            self.data.observations, self.data.counts, self.data.profiles,
            total_days=self.data.window.days, prevalence=cfg["prevalence"],
            non_use=cfg["non_use"],
            projections=self.data.projections if cfg["calibrate_non_use"] else None,
        )

    @cached_property
    def network(self) -> social.SocialNetwork:
        network = social.build_network(
            self.data.contacts,
            exclude_local=self.cfg["exclude_local"],
            local_state=self.data.local,
        )
        # Nothing else reads the contact table; the later stages run
        # without it.
        self.data.contacts = None
        return network


# ---------------------------------------------------------------------------
# Stages. Each returns ({artifact name: Path} for the manifest, its result).


def stage_ingest(run: Run) -> tuple[dict[str, Path], None]:
    data, outdir = run.data, run.outdir
    out = {}
    obs = data.observations
    out["observations"] = outdir / "observations.csv"
    write_columns(
        out["observations"],
        ("person_id", "state_code", "day", "first_tower"),
        (obs.person_id, obs.state_code, obs.day, obs.first_tower),
    )
    out["counts"] = outdir / "counts.csv"
    write_table(
        out["counts"],
        ("state_code", "day", "unique_handsets"),
        [(s, d, n) for (s, d), n in sorted(data.counts.items())],
    )
    out["ingest_report"] = outdir / "ingest_report.json"
    out["ingest_report"].write_text(json.dumps({
        "rows": data.report.rows,
        "accepted": data.report.accepted,
        "rejected": dict(sorted(data.report.rejects.items())),
        "towers_active": sum(t.active for t in data.towers),
        "towers_silent": sum(not t.active for t in data.towers),
    }, indent=2) + "\n", encoding="utf-8")
    return out, None


def stage_attendance(run: Run) -> tuple[dict[str, Path], att.AttendanceSeries]:
    series, cfg, outdir = run.series, run.cfg, run.outdir
    out = {}
    out["attendance_daily"] = outdir / "attendance_daily.csv"
    write_table(
        out["attendance_daily"], ("day", "estimate"),
        sorted(series.daily.items()),
    )
    out["attendance_cumulative"] = outdir / "attendance_cumulative.csv"
    write_table(
        out["attendance_cumulative"], ("day", "estimate"),
        sorted(series.cumulative.items()),
    )
    out["attendance_by_state"] = outdir / "attendance_by_state.csv"
    write_table(
        out["attendance_by_state"],
        ("state_code", "day", "daily", "cumulative"),
        [
            (s, d, series.by_state_daily.get((s, d), 0.0),
             series.by_state_cumulative[(s, d)])
            for (s, d) in sorted(series.by_state_cumulative)
        ],
    )
    out["representation"] = outdir / "representation.csv"
    write_table(
        out["representation"], ("state_code", "w"),
        sorted(series.representation.items()),
    )
    grid = [q for q in cfg["sensitivity_grid"] if 0 < q < 1]
    final_day = run.data.window.days
    base_total = series.cumulative[final_day] * (1.0 - series.factors.non_use)
    curve = att.sensitivity_curve(cfg["sensitivity_numerator"], grid)
    adjusted = att.nonuse_adjusted_totals(base_total, grid)
    out["sensitivity"] = outdir / "sensitivity.csv"
    write_table(
        out["sensitivity"],
        ("non_use", "reciprocal_estimate", "censoring_estimate"),
        [(q, a, b) for (q, a), (_, b) in zip(curve, adjusted)],
    )
    peak_day = max(series.daily, key=lambda d: (series.daily[d], -d), default=None)
    out["attendance_summary"] = outdir / "attendance_summary.json"
    out["attendance_summary"].write_text(json.dumps({
        "daily_use_estimate": series.daily_use_estimate,
        "non_use_calibrated": series.non_use_estimate,
        "factors": {
            "prevalence": series.factors.prevalence,
            "daily_use": series.factors.daily_use,
            "non_use": series.factors.non_use,
        },
        "final_cumulative": series.cumulative[final_day],
        "peak_day": peak_day,
        "peak_daily": series.daily.get(peak_day),
    }, indent=2) + "\n", encoding="utf-8")
    return out, series


def stage_social(run: Run) -> tuple[dict[str, Path], social.LogisticFit]:
    # The series first, so that data with no stays fails as it does in
    # the attendance stage.
    series, net, cfg, outdir = run.series, run.network, run.cfg, run.outdir
    triples, states = social.enumerate_connected_triples(net), net.states()
    census = social.census_triples(triples, states)
    out = {}
    out["social_census"] = outdir / "social_census.csv"
    write_table(
        out["social_census"],
        ("state_code", "closed", "open", "transitivity", "closed_fraction", "w"),
        [
            (s, census.closed.get(s, 0), census.open.get(s, 0),
             social.transitivity(census, s), social.closed_fraction(census, s),
             series.representation.get(s, ""))
            for s in states
        ],
    )
    counts = run.counts["social"] = {
        "nodes": net.n_nodes,
        "edges": net.n_edges,
        "triples_all": len(triples),
    }
    fit = social.fit_closure_model(
        triples, series.representation, seed=cfg["subsample_seed"],
    )
    counts["triples_independent"] = fit.n_triples
    out["social_fit"] = outdir / "social_fit.json"
    out["social_fit"].write_text(json.dumps({
        "n_nodes": net.n_nodes,
        "n_edges": net.n_edges,
        "n_triples_all": len(triples),
        "n_triples_independent": fit.n_triples,
        "subsample_seed": cfg["subsample_seed"],
        "beta0": fit.beta0,
        "beta1": fit.beta1,
        "se1": fit.se1,
        "ci1": list(fit.ci1),
        "p_value": fit.p_value,
        "odds_ratio_per_decade": fit.odds_ratio_per_decade,
        "n_iterations": fit.n_iterations,
        "max_score": fit.max_score,
    }, indent=2) + "\n", encoding="utf-8")
    return out, fit


def stage_spatial(run: Run) -> tuple[dict[str, Path], dict]:
    data, series, cfg, outdir = run.data, run.series, run.cfg, run.outdir
    active = geo.project_active(data.towers)
    cell_of = geo.serving_towers(data.towers, active)
    # Unlike the social stage, the host state stays in: its (weak)
    # co-location is part of the per-state spatial report.
    col = spatial.build_colocation_series(
        data.observations, n_days=data.window.days, cell_of_tower=cell_of,
    )
    counts = run.counts["spatial"] = {
        "colocation_days": sum(p is not None for p in col.p.values()),
    }
    high, low = spatial.partition_days(
        series.daily, n_days=data.window.days,
        peak_days=cfg["calendar_peaks"] if cfg["peak_mode"] == "calendar" else None,
    )
    report = spatial.aggregate_q(col, high, low)
    spatial.attach_bootstrap_cis(
        report, col, high, low,
        replicates=cfg["bootstrap_replicates"], seed=cfg["bootstrap_seed"],
    )
    rep_daily = spatial.daily_representation(series.by_state_daily)
    mean_log = spatial.mean_log_representation(rep_daily)
    q_a = {s: r.q_a for s, r in report.items()}
    q_d = {s: r.q_d for s, r in report.items()}

    out = {}
    out["spatial_daily"] = outdir / "spatial_daily.csv"
    write_table(
        out["spatial_daily"], ("state_code", "day", "n", "p"),
        [
            (s, d, col.totals[(s, d)], col.p[(s, d)])
            for (s, d) in sorted(col.p)
            if col.p[(s, d)] is not None
        ],
    )
    out["spatial_report"] = outdir / "spatial_report.csv"
    write_table(
        out["spatial_report"],
        ("state_code", "q_a", "q_a_lo", "q_a_hi", "q_h", "q_l",
         "q_d", "q_d_lo", "q_d_hi", "n_days"),
        [
            (
                s, r.q_a,
                r.ci_a[0] if r.ci_a else "", r.ci_a[1] if r.ci_a else "",
                r.q_h, r.q_l, r.q_d,
                r.ci_d[0] if r.ci_d else "", r.ci_d[1] if r.ci_d else "",
                r.n_days_defined,
            )
            for s, r in sorted(report.items())
        ],
    )
    cells = geo.build_tessellation(active)
    out["cells"] = outdir / "cells.csv"
    write_table(
        out["cells"], ("tower_id", "area_km2", "wkt"),
        geo.cells_table(cells),
    )
    counts |= {
        "active_cells": len(cells),
        "silent_towers": len(data.towers) - len(cells),
        "clip_steps": max(c.clips for c in cells),
    }
    summary = {
        "rho_a": spatial.correlate(q_a, mean_log),
        "rho_d": spatial.correlate(q_d, mean_log),
        "rho_a_p_value": spatial.correlation_p_value(
            q_a, mean_log, seed=cfg["bootstrap_seed"]),
        "rho_d_p_value": spatial.correlation_p_value(
            q_d, mean_log, seed=cfg["bootstrap_seed"]),
        "high_days": sorted(high),
        "peak_mode": cfg["peak_mode"],
        "n_active_cells": len(cells),
        "bootstrap_replicates": cfg["bootstrap_replicates"],
    }
    out["spatial_summary"] = outdir / "spatial_summary.json"
    out["spatial_summary"].write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    return out, summary


def stage_sbm(run: Run) -> tuple[dict[str, Path], None]:
    out = {}
    if run.data is not None:
        out["sbm_blocks"] = run.outdir / "sbm_blocks.csv"
        write_table(
            out["sbm_blocks"],
            ("state_code", "n", "edges_within", "p_kk", "baseline"),
            sbm.block_table(sbm.estimate_block_probs(run.network)),
        )
        # The last stage to read the network: the later ones run without it.
        del run.network
    return out, None


def stage_sbm_demo(run: Run) -> tuple[dict[str, Path], None]:
    """The bias curve and the two-state demo, which read no input."""
    outdir = run.outdir
    out = {}
    curve = sbm.bias_curve(
        [1, 2, 5, 10, 20, 50, 100, 200, 500], m=5, p_in=0.20, p_out=0.04
    )
    out["sbm_bias_curve"] = outdir / "sbm_bias_curve.csv"
    write_table(out["sbm_bias_curve"], ("groups", "avg_edge_probability"), curve)
    demo = sbm.joint_bias_demo(seed=run.seed)
    out["sbm_demo"] = outdir / "sbm_demo.json"
    out["sbm_demo"].write_text(json.dumps({
        "analytic": demo.analytic,
        "estimated": demo.estimated,
        "ratio_estimated": demo.ratio_estimated,
        "ratio_analytic": demo.ratio_analytic,
        "within_group_transitivity": demo.within_transitivity,
        "triples": {str(k): list(v) for k, v in demo.triples.items()},
    }, indent=2) + "\n", encoding="utf-8")
    return out, None


def stage_summary(run: Run) -> tuple[dict[str, Path], dict]:
    data, series = run.data, run.series
    fit, spa = run.results["social"], run.results["spatial"]
    summary = {
        "rows_accepted": data.report.accepted,
        "person_days": len(data.observations),
        "cumulative_attendance": series.cumulative[data.window.days],
        "peak_daily_attendance": max(series.daily.values(), default=None),
        "daily_use_estimate": series.daily_use_estimate,
        "non_use_calibrated": series.non_use_estimate,
        "beta1": fit.beta1,
        "beta1_ci": list(fit.ci1),
        "rho_a": spa["rho_a"],
        "rho_d": spa["rho_d"],
    }
    path = run.outdir / "summary.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return {"summary": path}, summary


# ---------------------------------------------------------------------------
# Commands

#: Analysis command -> (its stages in run order, its stdout line). Stages
#: are named, and ``run_command`` finds ``stage_<name>`` when it calls it,
#: so a wrapper installed on the module after import is the one that runs.
COMMANDS: dict[str, tuple[tuple[str, ...], Callable[[Run], str]]] = {
    "ingest": (("ingest",), lambda run: (
        f"ingest: {run.data.report.accepted}/{run.data.report.rows} rows "
        f"accepted, {len(run.data.observations)} person-days")),
    "attendance": (("attendance",), lambda run: (
        f"attendance: cumulative "
        f"{run.series.cumulative[run.data.window.days]:,.0f}, "
        f"daily_use {run.series.daily_use_estimate:.4f}, "
        f"non_use {run.series.factors.non_use:.4f}")),
    "social": (("social",), lambda run: (
        "social: beta1 {0.beta1:+.4f} (95% CI {0.ci1[0]:+.4f}..{0.ci1[1]:+.4f}, "
        "n={0.n_triples})".format(run.results["social"]))),
    "spatial": (("spatial",), lambda run: (
        "spatial: rho_A undefined" if run.results["spatial"]["rho_a"] is None
        else f"spatial: rho_A {run.results['spatial']['rho_a']:+.3f}")),
    "sbm": (("sbm", "sbm_demo"),
            lambda run: "sbm: bias curve and joint demo written"),
    "report": (("ingest", "attendance", "social", "sbm", "spatial", "summary"),
               lambda run: json.dumps(run.results["summary"], indent=2)),
}

def _timed(manifest: RunManifest, name: str, fn: Callable, *args):
    """``fn(*args)``, its wall time recorded as ``manifest.timings_s[name]``
    and the peak RSS after it as ``manifest.peak_rss_mb[name]``."""
    start = time.monotonic()
    try:
        return fn(*args)
    finally:
        manifest.timings_s[name] = round(time.monotonic() - start, 3)
        manifest.peak_rss_mb[name] = _peak_rss_mb(resource.RUSAGE_SELF)


def _peak_rss_mb(who: int) -> float:
    """The peak resident size in MB of this process (``RUSAGE_SELF``),
    from ``_PEAK_RSS_SOURCE``, or the largest of its children's."""
    if who == resource.RUSAGE_SELF and _PEAK_RSS_SOURCE == "VmHWM":
        for line in _STATUS.read_text().splitlines():
            if line.startswith("VmHWM:"):
                return round(int(line.split()[1]) / 1024, 1)     # kB
    # ru_maxrss is in kilobytes on Linux.
    return round(resource.getrusage(who).ru_maxrss / 1024, 1)


@contextmanager
def _recorded(manifest: RunManifest, path: Path) -> Iterator[None]:
    """Write ``manifest`` to ``path`` when the block ends, also on failure.

    An exception is recorded in ``manifest.failure`` and raised again. The
    stage that failed is the last one ``_timed`` recorded, or ``config``
    when none was.
    """
    t0 = time.monotonic()
    try:
        yield
    except Exception as exc:
        # The exit code main() gives; any other error ends in a traceback.
        manifest.failure = {
            "failed_stage": next(reversed(manifest.timings_s), "config"),
            "error": type(exc).__name__,
            "exit_code": (3 if isinstance(exc, DATA_ERRORS)
                          else 4 if isinstance(exc, ANALYSIS_ERRORS) else 1),
        }
        raise
    finally:
        manifest.timings_s["total"] = round(time.monotonic() - t0, 3)
        manifest.write(path)


def _run_stage(run: Run, manifest: RunManifest, stage: str) -> None:
    """Run ``stage_<stage>``, found by name, and record it in ``manifest``:
    its counts so far also when it fails."""
    try:
        outputs, run.results[stage] = _timed(
            manifest, stage, globals()[f"stage_{stage}"], run)
    finally:
        if stage in run.counts:
            manifest.stages[stage] = run.counts[stage]
    for name, path in outputs.items():
        manifest.add_output(name, path)


def _write_ingest(run: Run, manifest: RunManifest) -> RunManifest:
    """Run the ingest stage and record it in ``manifest``, which is
    returned: by the writer worker, its copy, with its own timing, peak
    and outputs; where this process redoes it, the run's manifest, so
    that a failure here is recorded as the ingest stage's."""
    _run_stage(run, manifest, "ingest")
    return manifest


def _run_stages(run: Run, manifest: RunManifest, stages: Sequence[str],
                overlap: bool) -> None:
    """Run ``stages`` in order and record them in ``manifest``.

    With ``overlap``, a forked worker runs the first, ``ingest``, while
    this process runs the rest; they only read ``run.data``. The worker
    is joined once they have ended, also on an error, and its stage is
    recorded before theirs, as a run in one process records it, with the
    time this process waited for it. A worker
    that failed is replaced by the stage run here (``worker.forked``), so
    that it fails, or not, as it would have in one process.
    """
    if not overlap:
        for stage in stages:
            _run_stage(run, manifest, stage)
            if stage == "ingest":
                manifest.stages["ingest"] = {"worker": False}
        return
    later = RunManifest(manifest.command)
    with forked(partial(_write_ingest, run, manifest)) as result:
        try:
            for stage in stages[1:]:
                _run_stage(run, later, stage)
        finally:
            start = time.monotonic()
            written, worker = result()
            waited = round(time.monotonic() - start, 3)
            if worker:
                manifest.absorb(written)
                run.results["ingest"] = None
            manifest.stages["ingest"] = ({"worker": True, "wait_s": waited}
                                         if worker else {"worker": False})
            manifest.absorb(later)


def run_command(args) -> int:
    """Run one analysis command and write its manifest, also on failure."""
    stages, line = COMMANDS[args.command]
    outdir = Path(args.output_dir)
    manifest = RunManifest(args.command, seed=getattr(args, "seed", None))
    with _recorded(manifest, outdir / f"manifest_{args.command}.json"):
        cfg = load_config(args.config)
        # Flags given on the command line override their config key.
        for key in ("exclude_local", "peak_mode", "bootstrap_replicates"):
            if getattr(args, key, None) is not None:
                cfg[key] = getattr(args, key)
        check_config(cfg)
        manifest.config_digest = config_digest(cfg)
        run = Run(cfg, outdir, seed=manifest.seed)
        overlap = workers = False
        if args.input_dir:
            input_dir = Path(args.input_dir)
            manifest.inputs = {
                name: str(input_dir / f"{name}.csv")
                for name in ("cdr", "towers", "states")
            }
            report = IngestReport()
            try:
                run.data = _timed(manifest, "load", load_pipeline_data,
                                  input_dir, report)
            finally:
                manifest.stages["load"] = {
                    "row_reader_from": report.row_reader_from,
                    "split_row": report.split_row,
                    "worker_wait_s": report.worker_wait_s,
                    "rows": report.rows,
                    "accepted": report.accepted,
                    "rejects": dict(sorted(report.rejects.items())),
                }
            manifest.stages["load"] |= {
                "person_days": len(run.data.observations),
                "parties": len(run.data.contacts.party_id),
                "contact_pairs": len(run.data.contacts.caller_id),
                "active_towers": sum(t.active for t in run.data.towers),
            }
            # The writer pays for its fork where the reader's does.
            overlap = (stages[0] == "ingest" and len(stages) > 1
                       and (input_dir / "cdr.csv").stat().st_size
                       >= ingest.FORK_BYTES)
            workers = overlap or report.split_row is not None
        try:
            _run_stages(run, manifest, stages, overlap)
        finally:
            if workers:
                manifest.peak_rss_mb["workers"] = _peak_rss_mb(
                    resource.RUSAGE_CHILDREN)
        print(line(run))
    return 0


def cmd_gen(args) -> int:
    """Write a scenario's input files and their manifest, also on failure."""
    from . import synth   # only gen needs it; analysis commands start faster

    outdir = Path(args.output_dir)
    manifest = RunManifest("gen", seed=args.seed)
    with _recorded(manifest, outdir / "manifest_gen.json"):
        if args.config:
            config = synth.ScenarioConfig.from_json(args.config)
            if args.seed is not None:
                config.seed = args.seed
        else:
            config = synth.named_scenario(args.scenario,
                                          1 if args.seed is None else args.seed)
        manifest.seed = config.seed
        paths, truth = _timed(manifest, "generate", synth.generate, config, outdir)
        manifest.config_digest = config_digest(truth.summary()["planted"])
        print(f"gen: {len(truth.true_total)} states, "
              f"{sum(truth.visible.values())} visible customers, "
              f"{len(truth.edges)} ties -> {outdir}")
        for name, path in paths.items():
            manifest.add_output(name, path)
    return 0


# ---------------------------------------------------------------------------


def _int_between(low: int, high: int | None = None) -> Callable[[str], int]:
    def integer(text: str) -> int:
        n = int(text)
        if n < low:
            raise argparse.ArgumentTypeError(f"need at least {low}, got {n}")
        if high is not None and n > high:
            raise argparse.ArgumentTypeError(f"need at most {high}, got {n}")
        return n
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crowdcdr",
        description="Crowd attendance and homophily estimation from CDR files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def analysis(name, summary, *, inputs=True):
        p = sub.add_parser(name, help=summary)
        if inputs:
            p.add_argument("--input-dir", required=True,
                           help="directory with cdr.csv, towers.csv, states.csv")
        p.add_argument("--output-dir", required=True)
        p.add_argument("--config", help="JSON analysis config; defaults apply")
        p.set_defaults(func=run_command)
        return p

    def social_flags(p):
        p.add_argument("--exclude-local", dest="exclude_local",
                       action="store_true", default=None)
        p.add_argument("--include-local", dest="exclude_local",
                       action="store_false")

    def spatial_flags(p):
        p.add_argument("--peak-mode", choices=("data", "calendar"))
        p.add_argument("--bootstrap-replicates",
                       type=_int_between(spatial.MIN_BOOTSTRAP_REPLICATES,
                                         spatial.MAX_BOOTSTRAP_REPLICATES))

    p = sub.add_parser("gen", help="generate a synthetic scenario")
    p.add_argument("--scenario", default="desk-small",
                   help="desk | desk-small | band | representation-range")
    p.add_argument("--seed", type=_int_between(0), default=None)
    p.add_argument("--config", help="scenario config JSON (overrides --scenario)")
    p.add_argument("--output-dir", required=True)
    p.set_defaults(func=cmd_gen)

    analysis("ingest", "parse, deduplicate, count")
    analysis("attendance", "attendance estimates + sensitivity")
    social_flags(analysis("social", "triple census + closure fit"))
    spatial_flags(analysis("spatial", "co-location report"))

    p = analysis("sbm", "block-model baseline + bias demo", inputs=False)
    p.add_argument("--input-dir", help="optional; adds per-state block table")
    p.add_argument("--seed", type=_int_between(0), default=0)

    p = analysis("report", "full pipeline + summary")
    social_flags(p)
    spatial_flags(p)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    _set_mmap_threshold(_MMAP_THRESHOLD)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Path(args.output_dir).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"usage error: cannot create --output-dir {args.output_dir}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ANALYSIS_ERRORS as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return 4


def command() -> int:
    """``main`` as the command process runs it: the collector frozen
    when it returns, so the collections at the interpreter's exit walk
    none of the run's objects. Called once, by an entry point."""
    try:
        return main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(command())
