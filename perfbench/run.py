"""crowdcdr benchmark: end-to-end and per-layer metrics on three workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-desk-small --seed 1 \
        --seconds 25 --trace 0

The inputs come from ``--seed``; the program under test sees only the
generated files (or, for ``validate-desk``, the seed list).  Runs are
closed-loop and single-client: one child process at a time, the next
started only after the previous one has exited.  Times are scaled by a
fixed reference workload run before and after each timed child, so that
the shared host's drifting speed cancels (see ``Runner``).  With
``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a separate traced pass and a memory pass.  A table of every
metric with its unit goes to standard error, and the full record
(samples, artifact fingerprints, spans) to ``.bench_work/``.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracing

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
RUN_BUDGET_S = 170.0     # every run must exit within 180 s

# Nominal wall time of perfbench/reference.py.  Timed children are
# reported in seconds of a host on which the reference takes this long;
# see Runner.run.
REFERENCE_S = 0.6

# Seeds analysed by one validate-desk child (0.3-0.5 s each).
SWEEP_SEEDS_PER_CHILD = 5

# "peaks" names the functions whose allocation peak the memory pass
# measures.  tracemalloc slows what it watches about tenfold, so
# joint_bias_demo, which never reads the data, is measured only where it
# is the largest cost.
WORKLOADS = {
    "report-desk-small": {"kind": "report", "scale": 0.12,
                          "peaks": ("ingest.parse_cdr",
                                    "social.enumerate_connected_triples",
                                    "sbm.joint_bias_demo")},
    "report-desk-x10": {"kind": "report", "scale": 10.0,
                        "peaks": ("ingest.parse_cdr",
                                  "social.enumerate_connected_triples")},
    "validate-desk": {"kind": "sweep",
                      "peaks": ("social.enumerate_connected_triples",)},
}

E2E_UNITS = {
    "report_wall_s": "s",
    "rows_per_s": "1/s",
    "seeds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

COUNT_UNITS = {
    "ingest.rows_in": "count",
    "ingest.rows_rejected": "count",
    "ingest.person_days": "count",
    "social.nodes": "count",
    "social.edges": "count",
    "social.triples_all": "count",
    "social.triples_independent": "count",
    "social.newton_iterations": "count",
    "social.subsample_yield": "ratio",
    "geo.active_cells": "count",
    "cli.artifact_bytes": "bytes",
}

# With the interpreter's start-up and exit, cli.import +
# cli.load_pipeline_data + cli.stage_* + cli.manifest should account for
# the traced report's wall time; the rest is cli.unaccounted_s.
ACCOUNTED_SPANS = ("cli.import", "cli.load_pipeline_data", "cli.stage_ingest",
                   "cli.stage_attendance", "cli.stage_social",
                   "cli.stage_spatial", "cli.stage_sbm", "cli.manifest")


class BudgetExceeded(Exception):
    pass


@dataclass
class Child:
    wall_s: float
    start: float
    end: float
    returncode: int
    maxrss_mb: float
    stderr: str
    scaled_s: float = 0.0    # wall_s at the reference speed, if bracketed


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, what: str, problems: list[str], ops: int = 1,
               failed_ops: int | None = None) -> None:
        self.attempted += ops
        if problems:
            self.failed += ops if failed_ops is None else failed_ops
            self.failures.extend(f"{what}: {p}" for p in problems)


class ReferenceFailed(Exception):
    pass


class Runner:
    """Starts one child at a time and measures it from spawn to exit.

    The shared host's speed drifts by up to 2x over tens of seconds, and
    a child's wall time drifts with it.  So a timed child is bracketed by
    runs of the fixed reference work (perfbench/reference.py), and its
    wall time is scaled by ``REFERENCE_S`` over the mean of the two
    reference times: ``scaled_s`` is what the child would have taken on
    a host running the reference in ``REFERENCE_S``.  The reference does
    not import crowdcdr, so a change to the program moves ``scaled_s`` as
    much as it moves the wall time.  Back-to-back timed children share
    the reference between them.
    """

    def __init__(self, root: Path, logs: Path, deadline: float):
        self.root, self.logs, self.deadline = root, logs, deadline
        self.count = 0
        self.last_reference: float | None = None
        path = str(root / "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=path)

    def run(self, argv: list[str], tag: str, scaled: bool = False) -> Child:
        before = self.last_reference
        if scaled and before is None:
            before = self.reference()
        child = self._spawn(argv, tag)
        self.last_reference = None
        if scaled:
            after = self.reference()
            child.scaled_s = child.wall_s * REFERENCE_S / ((before + after) / 2)
        return child

    def reference(self) -> float:
        """Wall time of one run of the reference work."""
        child = self._spawn([str(HERE / "reference.py")], "reference")
        problems = checks.process_problems(child.returncode, child.stderr)
        if problems:
            raise ReferenceFailed("; ".join(problems))
        self.last_reference = child.wall_s
        return child.wall_s

    def _spawn(self, argv: list[str], tag: str) -> Child:
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BudgetExceeded(tag)
        self.count += 1
        out_path = self.logs / f"{self.count:03d}-{tag}.out"
        err_path = self.logs / f"{self.count:03d}-{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out,
                                    stderr=err, env=self.env, cwd=self.root)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(
            wall_s=end - start, start=start, end=end,
            returncode=proc.returncode,
            maxrss_mb=usage.ru_maxrss / 1024.0,   # Linux reports KiB
            stderr=err_path.read_text(encoding="utf-8", errors="replace"),
        )


def child_argv(mode: str, *args: str) -> list[str]:
    return [str(HERE / "child.py"), mode, *args]


# ---------------------------------------------------------------------------
# Workloads


class ReportWorkload:
    """``crowdcdr report`` as a child process on a generated desk city."""

    def __init__(self, scale: float, peaks: tuple[str, ...], seed: int,
                 work: Path, runner: Runner, tally: Tally):
        self.scale, self.peaks, self.seed = scale, peaks, seed
        self.runner, self.tally = runner, tally
        self.input_dir = work / "input"
        self.output_dir = work / "output"
        self.fingerprint: dict[str, str] | None = None
        self.rows = 0

    def setup_argv(self, spans: Path | None = None) -> list[str]:
        args = ["--scale", repr(self.scale), "--seed", str(self.seed),
                "--output-dir", str(self.input_dir)]
        if spans:
            args += ["--spans", str(spans)]
        return child_argv("setup", *args)

    def input_digest(self) -> str:
        return "".join(checks.file_digest(self.input_dir / name)
                       for name in ("cdr.csv", "towers.csv", "states.csv",
                                    "projections.csv", "ground_truth.json"))

    def check(self, child: Child, what: str) -> None:
        problems = checks.report_problems(
            self.input_dir, self.output_dir, child.returncode, child.stderr)
        prints = checks.artifact_fingerprint(self.output_dir)
        if self.fingerprint is None:
            self.fingerprint = prints
            try:
                summary = json.loads(
                    (self.output_dir / "summary.json").read_text("utf-8"))
                self.rows = summary["rows_accepted"]
            except (OSError, ValueError, KeyError):
                pass
        elif prints != self.fingerprint:
            changed = sorted(k for k in set(prints) | set(self.fingerprint)
                             if prints.get(k) != self.fingerprint.get(k))
            problems.append(f"artifacts differ from the first run: {changed}")
        self.tally.record(what, problems)

    def operation(self, what: str, argv: list[str] | None = None,
                  scaled: bool = True) -> Child:
        """One ``crowdcdr report`` (by default the untraced CLI), checked."""
        shutil.rmtree(self.output_dir, ignore_errors=True)
        child = self.runner.run(argv or [
            "-m", "crowdcdr.cli", "report", "--input-dir", str(self.input_dir),
            "--output-dir", str(self.output_dir)], what, scaled)
        self.check(child, what)
        return child

    def traced(self, work: Path):
        """The traced pass, then the memory pass, on this run's inputs."""
        spans_path = work / "spans-report.json"
        traced = self.operation("traced", argv=child_argv(
            "report", "--input-dir", str(self.input_dir),
            "--output-dir", str(self.output_dir), "--spans", str(spans_path)))
        counts = self.counts()
        peaks_path = work / "peaks.json"
        self.operation("memory", scaled=False, argv=child_argv(
            "report", "--input-dir", str(self.input_dir),
            "--output-dir", str(self.output_dir), "--peaks", str(peaks_path),
            "--peak-names", ",".join(self.peaks)))
        return traced, _load(spans_path), _load(peaks_path), counts

    def counts(self) -> dict:
        try:
            read = lambda name: json.loads(  # noqa: E731
                (self.output_dir / name).read_text("utf-8"))
            ingest = read("ingest_report.json")
            summary = read("summary.json")
            fit = read("social_fit.json")
            spatial = read("spatial_summary.json")
            out = {
                "ingest.rows_in": ingest["rows"],
                "ingest.rows_rejected": sum(ingest["rejected"].values()),
                "ingest.person_days": summary["person_days"],
                "social.nodes": fit["n_nodes"],
                "social.edges": fit["n_edges"],
                "social.triples_all": fit["n_triples_all"],
                "social.triples_independent": fit["n_triples_independent"],
                "social.newton_iterations": fit["n_iterations"],
                "geo.active_cells": spatial["n_active_cells"],
                "cli.artifact_bytes": checks.artifact_bytes(self.output_dir),
            }
        except (OSError, ValueError, KeyError) as exc:
            self.tally.record("counts", [f"unreadable traced outputs: {exc}"])
            return {}
        return out

    def rows_per_operation(self) -> int:
        return self.rows

    seeds_per_operation = 1


class SweepWorkload:
    """The planted-truth sweep over ``SWEEP_SEEDS_PER_CHILD`` seeds."""

    def __init__(self, peaks: tuple[str, ...], seed: int, work: Path,
                 runner: Runner, tally: Tally):
        self.peaks = peaks
        k = SWEEP_SEEDS_PER_CHILD
        self.seeds = [k * seed + i + 1 for i in range(k)]
        self.seed_arg = ",".join(map(str, self.seeds))
        self.runner, self.tally = runner, tally
        self.results_path = work / "sweep.json"
        self.fingerprint: str | None = None
        self.results: list[dict] = []
        self.seeds_per_operation = k

    def setup_argv(self, spans: Path | None = None) -> list[str]:
        return child_argv("setup", "--seeds", self.seed_arg)

    def input_digest(self) -> str:
        return self.seed_arg

    def check(self, child: Child, what: str) -> None:
        k = len(self.seeds)
        problems = checks.process_problems(child.returncode, child.stderr)
        if problems:
            self.tally.record(what, problems, ops=k)
            return
        try:
            results = json.loads(self.results_path.read_text("utf-8"))
        except (OSError, ValueError) as exc:
            self.tally.record(what, [f"no sweep results: {exc}"], ops=k)
            return
        failed_seeds = 0
        for r in results:
            found = checks.estimate_problems(r["estimates"], r["planted"])
            if found:
                failed_seeds += 1
                problems += [f"seed {r['seed']}: {x}" for x in found]
        whole = []
        if [r["seed"] for r in results] != self.seeds:
            whole.append("results do not cover the requested seeds")
        digest = checks.json_digest(results)
        if self.fingerprint is None:
            self.fingerprint, self.results = digest, results
        elif digest != self.fingerprint:
            whole.append("results differ from the first run")
        self.tally.record(what, problems + whole, ops=k,
                          failed_ops=k if whole else failed_seeds)

    def operation(self, what: str, argv: list[str] | None = None,
                  scaled: bool = True) -> Child:
        self.results_path.unlink(missing_ok=True)
        child = self.runner.run(argv or child_argv(
            "sweep", "--seeds", self.seed_arg,
            "--out", str(self.results_path)), what, scaled)
        self.check(child, what)
        return child

    def traced(self, work: Path):
        spans_path = work / "spans-sweep.json"
        traced = self.operation("traced", child_argv(
            "sweep", "--seeds", self.seed_arg, "--out",
            str(self.results_path), "--spans", str(spans_path)))
        peaks_path = work / "peaks.json"
        self.operation("memory", scaled=False, argv=child_argv(
            "sweep", "--seeds", self.seed_arg, "--out",
            str(self.results_path), "--peaks", str(peaks_path),
            "--peak-names", ",".join(self.peaks)))
        return traced, _load(spans_path), _load(peaks_path), self.counts()

    def counts(self) -> dict:
        total = lambda key: sum(r["counts"][key] for r in self.results)  # noqa: E731
        if not self.results:
            return {}
        return {
            "ingest.person_days": total("person_days"),
            "social.nodes": total("nodes"),
            "social.edges": total("edges"),
            "social.triples_all": total("triples_all"),
            "social.triples_independent": total("triples_independent"),
            "social.newton_iterations": total("newton_iterations"),
        }

    def rows_per_operation(self) -> int:
        return sum(r["counts"]["person_days"] for r in self.results)


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return {}


# ---------------------------------------------------------------------------
# Measurement


def setup_phase(workload, runner: Runner, tally: Tally, repeats: int,
                spans: Path | None = None) -> list[float]:
    """Set the workload up ``repeats`` times; each must give the same inputs."""
    times, first = [], None
    for i in range(repeats):
        child = runner.run(workload.setup_argv(spans), f"setup{i}",
                           scaled=True)
        problems = checks.process_problems(child.returncode, child.stderr)
        if not problems:
            digest = workload.input_digest()
            if first is None:
                first = digest
            elif digest != first:
                problems = ["set-up inputs differ from the first set-up"]
        tally.record(f"setup {i}", problems)
        times.append(child.scaled_s)
    return times


def measure(workload, seconds: float, runner: Runner, reserve: float
            ) -> list[Child]:
    """Operations back to back until ``seconds`` have passed (at least one).

    No operation starts unless it and ``reserve`` more of the same length,
    each with its reference run, still fit in the run's time budget.
    """
    children: list[Child] = []
    last = 0.0
    start = time.monotonic()
    while not children or time.monotonic() - start < seconds:
        now = time.monotonic()
        if children and now + (1 + reserve) * last > runner.deadline:
            break
        children.append(workload.operation(f"run{len(children)}"))
        last = time.monotonic() - now
    return children


def interquartile_mean(values: list[float]) -> float:
    """Mean of the values left when the lowest and highest quarter are cut.

    As robust to a stalled operation as the median, and steadier from run
    to run when every operation is noisy.  Below four values it is the
    mean.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def percentile_note(values: list[float]) -> dict:
    """Median and the highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    note = {"n": n, "median": statistics.median(ordered)}
    if n >= 11:
        k = n - 11
        note["highest_supported"] = {"percentile": 100.0 * k / (n - 1),
                                     "value": ordered[k]}
    return note


def end_to_end(workload, children: list[Child], setup_times: list[float]
               ) -> tuple[dict, dict]:
    """End-to-end metrics of the untraced operations of one run.

    Times are reference-scaled (see Runner); the unscaled wall times are
    kept in the detail.
    """
    walls = [c.scaled_s for c in children]
    wall = interquartile_mean(walls)
    metrics = {
        "report_wall_s": wall,
        "rows_per_s": workload.rows_per_operation() / wall,
        "seeds_per_s": workload.seeds_per_operation / wall,
        "peak_rss_mb": statistics.median(c.maxrss_mb for c in children),
        "setup_s": statistics.median(setup_times),
    }
    detail = {
        "report_wall_s": dict(percentile_note(walls),
                              interquartile_mean=wall),
        "peak_rss_mb": percentile_note([c.maxrss_mb for c in children]),
        "setup_s": percentile_note(setup_times),
        "unscaled_wall_s": percentile_note([c.wall_s for c in children]),
        "samples": {"wall_s": walls,
                    "unscaled_wall_s": [c.wall_s for c in children],
                    "maxrss_mb": [c.maxrss_mb for c in children],
                    "setup_s": setup_times},
    }
    return metrics, detail


def per_layer(traced: Child, spans: dict, setup_spans: dict, peaks: dict,
              counts: dict, untraced: list[Child]) -> tuple[dict, dict]:
    """Per-layer metrics from the traced pass and the memory pass."""
    totals = tracing.totals_by_name(spans.get("spans", []))
    tracing.totals_by_name(setup_spans.get("spans", []), totals)
    took = lambda name: totals.get(name, {}).get("total_s", 0.0)  # noqa: E731
    metrics: dict[str, tuple[float, str]] = {"cli.import_s": (took("cli.import"), "s")}
    for name in tracing.SPAN_TARGETS:
        metrics[f"{name}_s"] = (took(name), "s")
    for name, unit in COUNT_UNITS.items():
        metrics[name] = (counts.get(name, 0), unit)
    if counts.get("social.triples_all"):
        metrics["social.subsample_yield"] = (
            counts["social.triples_independent"] / counts["social.triples_all"],
            "ratio")
    for name in tracing.PEAK_TARGETS:
        metrics[f"{name}_peak_mb"] = (peaks.get("peak_mb", {}).get(name, 0.0),
                                      "MB")
    # The child's monotonic clock is the parent's, so interpreter start-up
    # (spawn to the child's first statement) and exit (its last timestamp,
    # taken just before it writes its spans, to reaping) are measured.
    startup = spans.get("process_start", traced.start) - traced.start
    exit_ = traced.end - spans.get("process_end", traced.end)
    metrics["process.startup_s"] = (startup, "s")
    metrics["process.exit_s"] = (exit_, "s")
    baseline = interquartile_mean([c.scaled_s for c in untraced])
    reports = "cli.main" in totals
    accounted = startup + exit_ + sum(took(name) for name in ACCOUNTED_SPANS)
    metrics["cli.traced_wall_s"] = (traced.wall_s if reports else 0.0, "s")
    metrics["cli.unaccounted_s"] = (
        traced.wall_s - accounted if reports else 0.0, "s")
    # Both reference-scaled, so host drift between them does not count.
    metrics["trace_overhead_s"] = (traced.scaled_s - baseline, "s")
    detail = {
        "spans_by_name": totals,
        "absent": sorted(set(spans.get("absent", [])
                             + setup_spans.get("absent", [])
                             + peaks.get("absent", []))),
        "accounted_s": accounted,
        "untraced_median_scaled_s": baseline,
        "traced_scaled_s": traced.scaled_s,
        "traced_child_wall_s": traced.wall_s,
    }
    return metrics, detail


# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    started = time.monotonic()
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "crowdcdr" / "cli.py").is_file():
        print(f"no crowdcdr sources under {root / 'src'}; run from the root "
              "of a crowdcdr checkout", file=sys.stderr)
        return 2

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    logs = work / "logs"
    logs.mkdir(parents=True)
    runner = Runner(root, logs, deadline=started + RUN_BUDGET_S)
    tally = Tally()
    spec = WORKLOADS[args.workload]
    if spec["kind"] == "report":
        workload = ReportWorkload(spec["scale"], spec["peaks"], args.seed,
                                  work, runner, tally)
    else:
        workload = SweepWorkload(spec["peaks"], args.seed, work, runner, tally)

    record: dict = {"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "trace": args.trace}
    try:
        if args.trace:
            # Set-up time is not reported here, so set up once, traced.
            setup_spans_path = work / "spans-setup.json"
            setup_times = setup_phase(workload, runner, tally, 1,
                                      spans=setup_spans_path)
            setup_spans = _load(setup_spans_path)
        else:
            setup_times = setup_phase(workload, runner, tally, SETUP_REPEATS)
        # A traced run still has its traced pass and memory pass to make;
        # tracemalloc makes the latter up to about six operations long.
        children = measure(workload, args.seconds, runner,
                           reserve=8.0 if args.trace else 1.0)
        metrics, detail = end_to_end(workload, children, setup_times)
        record["end_to_end"], record["detail"] = metrics, detail
        units = dict(E2E_UNITS)
        if args.trace:
            traced, spans, peaks, counts = workload.traced(work)
            layer, layer_detail = per_layer(traced, spans, setup_spans, peaks,
                                            counts, children)
            record["per_layer"] = layer
            record["trace"] = layer_detail
            with open(work / "spans.json", "w", encoding="utf-8") as fh:
                json.dump({"traced": spans, "setup": setup_spans}, fh)
            metrics = {k: v for k, (v, _) in layer.items()}
            units = {k: u for k, (_, u) in layer.items()}
    except BudgetExceeded as exc:
        print(f"run budget of {RUN_BUDGET_S:.0f} s exhausted at {exc}",
              file=sys.stderr)
        return 1
    except ReferenceFailed as exc:
        print(f"the reference work failed: {exc}", file=sys.stderr)
        return 1

    record["artifact_sha256"] = workload.fingerprint
    if isinstance(workload.fingerprint, dict):
        record["artifact_digest"] = (
            f"{len(workload.fingerprint)} files, SHA-256 of the set "
            + checks.json_digest(workload.fingerprint)[:16])
    elif workload.fingerprint:
        record["artifact_digest"] = (
            f"SHA-256 of the per-seed results {workload.fingerprint[:16]}")
    for scratch in ("input", "output"):
        shutil.rmtree(work / scratch, ignore_errors=True)
    record["attempted"], record["failed"] = tally.attempted, tally.failed
    record["failures"] = tally.failures
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n",
                                      encoding="utf-8")

    print_table(args, record, tally)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def print_table(args, record, tally) -> None:
    """Every metric of this run by name, value and unit, on stderr."""
    err = sys.stderr
    print(f"# {args.workload} seed {args.seed} trace {args.trace}", file=err)
    rows = [(k, v, E2E_UNITS[k]) for k, v in record["end_to_end"].items()]
    rows += [(k, v, u) for k, (v, u) in record.get("per_layer", {}).items()]
    for name, value, unit in rows:
        print(f"{name:45s} {value:16.6g} {unit}", file=err)
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"{'failed_frac':45s} {frac:16.6g} ratio "
          f"({tally.failed}/{tally.attempted})", file=err)
    note = record["detail"]["report_wall_s"]
    extra = note.get("highest_supported")
    raw = record["detail"]["unscaled_wall_s"]
    print(f"# reference-scaled wall time per operation: n={note['n']}, "
          f"interquartile mean {note['interquartile_mean']:.4f} s, median "
          f"{note['median']:.4f} s, "
          + (f"p{extra['percentile']:.0f} {extra['value']:.4f} s"
             if extra else "too few samples for a percentile above it")
          + f"; unscaled median {raw['median']:.4f} s", file=err)
    if record.get("artifact_digest"):
        print(f"# artifacts: {record['artifact_digest']}", file=err)
    for failure in tally.failures[:20]:
        print(f"FAILED {failure}", file=err)


if __name__ == "__main__":
    sys.exit(main())
