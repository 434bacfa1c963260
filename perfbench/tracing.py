"""Spans and allocation peaks recorded around calls into crowdcdr.

The benchmark measures each layer from outside the program: it replaces
public functions of the already imported ``crowdcdr`` modules with
wrappers that record a span per call.  A function is wrapped wherever a
``crowdcdr`` module holds a reference to it, so ``cli``'s
``from .ingest import parse_cdr`` is caught as well as calls through
``ingest.parse_cdr``.  A target that no longer exists is reported as
absent, which is not a failure.

Spans live in memory and are written out once, when the process ends.
Times come from ``time.monotonic``, which on Linux is one system-wide
clock, so spans from a child process line up with the parent's spawn and
exit times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import tracemalloc

# Span name -> wrapped functions, as "module:attribute" or
# "module:Class.method".  Names are the per-layer metric names without
# their "_s" suffix.
SPAN_TARGETS: dict[str, tuple[str, ...]] = {
    "cli.load_pipeline_data": ("crowdcdr.cli:load_pipeline_data",),
    "cli.stage_ingest": ("crowdcdr.cli:stage_ingest",),
    "cli.stage_attendance": ("crowdcdr.cli:stage_attendance",),
    "cli.stage_social": ("crowdcdr.cli:stage_social",),
    "cli.stage_spatial": ("crowdcdr.cli:stage_spatial",),
    "cli.stage_sbm": ("crowdcdr.cli:stage_sbm",),
    "cli.manifest": ("crowdcdr.cli:RunManifest.add_output",
                     "crowdcdr.cli:RunManifest.write"),
    "ingest.parse_cdr": ("crowdcdr.ingest:parse_cdr",),
    "ingest.dedupe_daily": ("crowdcdr.ingest:dedupe_daily",),
    "ingest.count_unique_handsets": ("crowdcdr.ingest:count_unique_handsets",),
    "ingest.tower_activity": ("crowdcdr.ingest:towers_with_traffic",
                              "crowdcdr.ingest:mark_tower_activity"),
    "ingest.write_cdr": ("crowdcdr.ingest:write_cdr",),
    "attendance.build_series": ("crowdcdr.attendance:build_series",),
    "social.build_network": ("crowdcdr.social:build_network",),
    "social.census_triples": ("crowdcdr.social:census_triples",),
    "social.enumerate_connected_triples":
        ("crowdcdr.social:enumerate_connected_triples",),
    "social.subsample_independent": ("crowdcdr.social:subsample_independent",),
    "social.fit_closure_model": ("crowdcdr.social:fit_closure_model",),
    "spatial.build_colocation_series":
        ("crowdcdr.spatial:build_colocation_series",),
    "spatial.aggregate_q": ("crowdcdr.spatial:aggregate_q",),
    "spatial.attach_bootstrap_cis": ("crowdcdr.spatial:attach_bootstrap_cis",),
    "geo.build_tessellation": ("crowdcdr.geo:build_tessellation",),
    "sbm.joint_bias_demo": ("crowdcdr.sbm:joint_bias_demo",),
    "sbm.estimate_block_probs": ("crowdcdr.sbm:estimate_block_probs",),
    "synth.generate_tables": ("crowdcdr.synth:generate_tables",),
    "synth.observations": ("crowdcdr.synth:GroundTruth.observations",),
    "synth.build_events": ("crowdcdr.synth:build_events",),
}

# Functions whose peak allocation is measured in the memory pass.
PEAK_TARGETS: dict[str, tuple[str, ...]] = {
    "ingest.parse_cdr": ("crowdcdr.ingest:parse_cdr",),
    "social.enumerate_connected_triples":
        ("crowdcdr.social:enumerate_connected_triples",),
    "sbm.joint_bias_demo": ("crowdcdr.sbm:joint_bias_demo",),
}


class Tracer:
    """Records nested spans of one process.

    A span is a dict with id, name, parent (span id or None), run, start
    and end.
    """

    def __init__(self, run: str):
        self.run = run
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._open: list[dict] = []

    def begin(self, name: str) -> dict:
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1]["id"] if self._open else None,
                "run": self.run, "start": time.monotonic(), "end": None}
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.monotonic()
        # A generator span can end out of stack order; drop it by identity.
        for i in range(len(self._open) - 1, -1, -1):
            if self._open[i] is span:
                del self._open[i]
                break

    @contextlib.contextmanager
    def span(self, name: str):
        span = self.begin(name)
        try:
            yield span
        finally:
            self.end(span)

    def install(self, targets=SPAN_TARGETS) -> None:
        for name, paths in targets.items():
            for path in paths:
                wrapper = (lambda fn, n=name:
                           _wrap(fn, lambda: self.begin(n), self.end))
                if not install(path, wrapper):
                    self.absent.append(path)

    def dump(self) -> dict:
        return {"spans": self.spans, "absent": self.absent}


class PeakRecorder:
    """Peak traced allocation (MiB) per target, over the calls it spans.

    ``tracemalloc`` runs only while a target executes, so the rest of the
    pipeline runs at full speed.  The peak is measured from the
    allocation level at entry, and includes what the caller builds from
    a generator's output while it is being consumed.
    """

    def __init__(self):
        self.peak_mb: dict[str, float] = {}
        self.absent: list[str] = []
        self._depth = 0

    def _begin(self):
        self._depth += 1
        if self._depth == 1:
            tracemalloc.start()
        return tracemalloc.get_traced_memory()[0]

    def _end(self, name: str, base: int) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        self._depth -= 1
        if self._depth == 0:
            tracemalloc.stop()
        mb = (peak - base) / 2 ** 20
        self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), mb)

    def install(self, targets=PEAK_TARGETS) -> None:
        for name, paths in targets.items():
            for path in paths:
                wrapper = (lambda fn, n=name:
                           _wrap(fn, self._begin, lambda b, n=n: self._end(n, b)))
                if not install(path, wrapper):
                    self.absent.append(path)


_CO_GENERATOR = 0x20     # inspect.CO_GENERATOR, without importing inspect


def _wrap(fn, begin, end):
    """``fn`` bracketed by begin()/end(token); generators until exhausted."""
    if getattr(getattr(fn, "__code__", None), "co_flags", 0) & _CO_GENERATOR:
        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            token = begin()
            try:
                return (yield from fn(*args, **kwargs))
            finally:
                end(token)
        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = begin()
        try:
            return fn(*args, **kwargs)
        finally:
            end(token)
    return wrapper


def install(path: str, make_wrapper) -> bool:
    """Replace the function at ``path`` everywhere crowdcdr refers to it.

    Returns False when the module, class or function does not exist.
    """
    module_name, _, attr_path = path.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    owner, _, attr = attr_path.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    original = getattr(holder, attr, None) if holder is not None else None
    if not callable(original):
        return False
    wrapper = make_wrapper(original)
    if owner:
        setattr(holder, attr, wrapper)
        return True
    for name, mod in list(sys.modules.items()):
        if name == "crowdcdr" or name.startswith("crowdcdr."):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
    return True


# ---------------------------------------------------------------------------
# Reading spans back


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(s["id"], []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def totals_by_name(spans: list[dict], out: dict | None = None
                   ) -> dict[str, dict]:
    """Per span name: call count, summed duration and summed self time.

    Spans must come from one process; pass ``out`` to add another
    process's spans to the same totals.
    """
    selfs = self_times(spans)
    out = {} if out is None else out
    for s in spans:
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        agg["calls"] += 1
        agg["total_s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
    return out
