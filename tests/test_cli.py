"""Command-line pipeline: wiring, artifacts, manifests, and exit codes."""

import codecs
import csv
import dataclasses
import gc
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdcdr import attendance, cli, geo, ingest, social, synth
from crowdcdr.errors import ConfigurationError, SeparationError
from crowdcdr.ingest import CdrColumns, TowerSite
from helpers import (CDR_HEADER, clip_cells_matrix, nearest_active_tower,
                     scenario_to_json, serving_towers)

PLANTED_PEAKS = {41, 46, 69}


def run(*argv) -> int:
    return cli.main([str(a) for a in argv])


def sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


class _Seconds:
    """Equal to any non-negative float: a time in a manifest."""

    def __eq__(self, other):
        return isinstance(other, float) and other >= 0

    def __repr__(self):
        return "<seconds>"


#: A forked writer's ``stages.ingest``, whose wait varies from run to run.
WORKER_WROTE = {"worker": True, "wait_s": _Seconds()}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def manifest_digests(path: Path) -> dict[str, str]:
    blob = read_json(path)
    return {name: rec["sha256"] for name, rec in blob["outputs"].items()}


def how_read(path: Path) -> dict:
    """A manifest's ``stages`` for how the CDR file was read: ``load`` cut
    to that, and ``ingest`` (the counts are checked against the artifacts
    on their own)."""
    stages = read_json(path)["stages"]
    return {"load": {k: stages["load"][k] for k in ("row_reader_from", "split_row")},
            "ingest": stages["ingest"]}


def timed_stages(outdir: Path, command: str) -> set[str]:
    return set(read_json(outdir / f"manifest_{command}.json")["timings_s"])


@pytest.fixture(scope="module")
def gen_dir(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("gen")
    assert run("gen", "--scenario", "desk-small", "--seed", 2,
               "--output-dir", d) == 0
    return d


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory, gen_dir) -> Path:
    d = tmp_path_factory.mktemp("report")
    assert run("report", "--input-dir", gen_dir, "--output-dir", d) == 0
    return d


class TestGen:
    def test_writes_scenario_files_and_manifest(self, gen_dir):
        for name in ("cdr.csv", "towers.csv", "states.csv",
                     "projections.csv", "ground_truth.json", "manifest_gen.json"):
            assert (gen_dir / name).exists(), name

    def test_same_seed_reproduces_bytes(self, gen_dir, tmp_path):
        again = tmp_path / "again"
        assert run("gen", "--scenario", "desk-small", "--seed", 2,
                   "--output-dir", again) == 0
        for name in ("cdr.csv", "towers.csv", "states.csv",
                     "projections.csv", "ground_truth.json"):
            assert sha(again / name) == sha(gen_dir / name), name

    def test_different_seed_changes_bytes(self, gen_dir, tmp_path):
        other = tmp_path / "other"
        assert run("gen", "--scenario", "desk-small", "--seed", 3,
                   "--output-dir", other) == 0
        assert sha(other / "cdr.csv") != sha(gen_dir / "cdr.csv")

    def test_manifest_digests_match_files(self, gen_dir):
        blob = read_json(gen_dir / "manifest_gen.json")
        assert blob["command"] == "gen"
        assert blob["seed"] == 2
        assert blob["outputs"]
        for name, rec in blob["outputs"].items():
            assert sha(Path(rec["path"])) == rec["sha256"], name

    def test_config_file_equivalent_to_named_scenario(self, gen_dir, tmp_path,
                                                      capsys):
        cfg_path = tmp_path / "scenario.json"
        scenario_to_json(synth.named_scenario("desk-small", seed=2), cfg_path)
        out = tmp_path / "fromcfg"
        assert run("gen", "--config", cfg_path, "--output-dir", out) == 0
        assert "visible customers" in capsys.readouterr().out
        assert sha(out / "cdr.csv") == sha(gen_dir / "cdr.csv")

    def test_state_code_that_ingest_cannot_read_exits_3(self, tmp_path,
                                                        capsys):
        cfg_path = tmp_path / "scenario.json"
        scenario_to_json(synth.ScenarioConfig(seed=4, states=[
            synth.StateSpec(1, "host", 500, 0.5, is_local=True, theta=0.0),
            synth.StateSpec(100, "away", 600, 0.25, theta=0.4)]), cfg_path)
        out = tmp_path / "out"
        assert run("gen", "--config", cfg_path, "--output-dir", out) == 3
        assert "state codes [100]" in capsys.readouterr().err
        assert not (out / "cdr.csv").exists()

    def test_unknown_scenario_name_exits_3(self, tmp_path, capsys):
        assert run("gen", "--scenario", "nonesuch",
                   "--output-dir", tmp_path / "x") == 3
        assert "nonesuch" in capsys.readouterr().err

    def test_seed_zero_is_the_seed_used(self, tmp_path):
        out = tmp_path / "zero"
        assert run("gen", "--scenario", "desk-small", "--seed", 0,
                   "--output-dir", out) == 0
        assert read_json(out / "manifest_gen.json")["seed"] == 0

    @pytest.mark.parametrize("data", [
        None, b'{"states": [', b'{"states": []\xff}', b"[1, 2]", b"{}",
    ], ids=["missing", "invalid-json", "not-utf8", "not-object", "no-states"])
    def test_unreadable_scenario_config_exits_3(self, tmp_path, capsys, data):
        cfg_path = tmp_path / "scenario.json"
        if data is not None:
            cfg_path.write_bytes(data)
        assert run("gen", "--config", cfg_path,
                   "--output-dir", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "scenario.json" in err


    @pytest.mark.parametrize("key, value", [
        ("n_days", "x"), ("seed", -1), ("peak_days", [41.5])])
    def test_scenario_config_value_of_the_wrong_kind_exits_3(
            self, tmp_path, capsys, key, value):
        cfg_path = tmp_path / "scenario.json"
        scenario_to_json(synth.named_scenario("desk-small"), cfg_path)
        blob = read_json(cfg_path)
        blob[key] = value
        cfg_path.write_text(json.dumps(blob), encoding="utf-8")
        assert run("gen", "--config", cfg_path,
                   "--output-dir", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert key in err

    def test_failed_gen_leaves_a_manifest(self, tmp_path, monkeypatch):
        cfg_path = tmp_path / "scenario.json"
        scenario_to_json(synth.named_scenario("desk-small"), cfg_path)
        blob = read_json(cfg_path)
        blob["n_days"] = "x"
        cfg_path.write_text(json.dumps(blob), encoding="utf-8")
        out = tmp_path / "x"
        assert run("gen", "--config", cfg_path, "--output-dir", out) == 3
        blob = read_json(out / "manifest_gen.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "config", "ConfigurationError", 3)
        assert blob["outputs"] == {} and set(blob["timings_s"]) == {"total"}

        def broken(config, outdir):
            raise RuntimeError("generator bug")
        monkeypatch.setattr(synth, "generate", broken)
        with pytest.raises(RuntimeError, match="generator bug"):
            run("gen", "--seed", 4, "--output-dir", out)
        blob = read_json(out / "manifest_gen.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "generate", "RuntimeError", 1)
        assert blob["seed"] == 4
        assert set(blob["timings_s"]) == {"generate", "total"}

    def test_scenario_mean_stay_at_min_stay_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.json"
        scenario_to_json(synth.named_scenario("desk-small"), cfg_path)
        blob = read_json(cfg_path)
        blob["mean_stay"] = float(blob["min_stay"])
        cfg_path.write_text(json.dumps(blob), encoding="utf-8")
        assert run("gen", "--config", cfg_path,
                   "--output-dir", tmp_path / "x") == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "mean_stay" in err


def fresh_python(*args) -> subprocess.CompletedProcess:
    """A finished run of a fresh interpreter with ``args``, which finds
    this checkout's ``crowdcdr``."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)


def modules_imported_by_report(gen_dir, tmp_path, module: str) -> dict:
    """Whether a fresh interpreter holds ``module`` after importing
    ``crowdcdr.cli`` and after a ``report`` run on ``gen_dir``."""
    script = ("import sys\n"
              "from crowdcdr import cli\n"
              f"print('cli', {module!r} in sys.modules)\n"
              "rc = cli.main(sys.argv[1:])\n"
              f"print('report', {module!r} in sys.modules)\n"
              "sys.exit(rc)\n")
    proc = fresh_python("-c", script, "report", "--input-dir", gen_dir,
                        "--output-dir", tmp_path / "out")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return {stage: flag == "True" for stage, flag in
            (line.split() for line in (lines[0], lines[-1]))}


#: Runs the command in its arguments from a process that first holds
#: ``{mb}`` MB, written so that they are resident, and exits with its code.
SPAWNER_SCRIPT = ("import subprocess, sys\n"
                  "held = b'x' * ({mb} << 20)\n"
                  "sys.exit(subprocess.call(sys.argv[1:]))\n")


class TestReport:
    @pytest.mark.skipif(not Path("/proc/self/status").exists(),
                        reason="VmHWM is read from /proc/self/status")
    def test_stage_peaks_are_not_the_spawners(self, gen_dir, tmp_path):
        # ru_maxrss survives execve, so it read the spawner's peak at
        # every stage; VmHWM is the process's own.
        peaks = {}
        for mb in (0, 210):
            out = tmp_path / f"out-{mb}"
            proc = fresh_python(
                "-c", SPAWNER_SCRIPT.format(mb=mb), sys.executable, "-m",
                "crowdcdr.cli", "report", "--input-dir", gen_dir,
                "--output-dir", out)
            assert proc.returncode == 0, proc.stderr
            blob = read_json(out / "manifest_report.json")
            assert blob["peak_rss_source"] == "VmHWM"
            peaks[mb] = blob["peak_rss_mb"]
        assert list(peaks[210]) == list(peaks[0])
        for stage, small in peaks[0].items():
            assert abs(peaks[210][stage] - small) <= 5, (stage, peaks)

    def test_artifact_catalog(self, report_dir):
        expected = [
            "observations.csv", "counts.csv", "ingest_report.json",
            "attendance_daily.csv", "attendance_cumulative.csv",
            "attendance_by_state.csv", "representation.csv",
            "sensitivity.csv", "attendance_summary.json",
            "social_census.csv", "social_fit.json",
            "spatial_daily.csv", "spatial_report.csv", "cells.csv",
            "spatial_summary.json", "sbm_blocks.csv", "summary.json",
            "manifest_report.json",
        ]
        for name in expected:
            assert (report_dir / name).exists(), name
        # The SBM demo reads no input: only the sbm command writes it.
        for name in ("sbm_bias_curve.csv", "sbm_demo.json"):
            assert not (report_dir / name).exists(), name

    def test_summary_keys_and_values(self, report_dir):
        summary = read_json(report_dir / "summary.json")
        assert set(summary) == {
            "rows_accepted", "person_days", "cumulative_attendance",
            "peak_daily_attendance", "daily_use_estimate",
            "non_use_calibrated", "beta1", "beta1_ci", "rho_a", "rho_d",
        }
        assert summary["rows_accepted"] > 0
        assert summary["person_days"] > 0
        assert summary["cumulative_attendance"] > 0
        assert 0 < summary["peak_daily_attendance"] <= summary["cumulative_attendance"]
        assert summary["daily_use_estimate"] == pytest.approx(0.404, abs=0.01)
        assert summary["non_use_calibrated"] == pytest.approx(0.406, abs=0.03)
        lo, hi = summary["beta1_ci"]
        assert lo < summary["beta1"] < hi
        assert summary["rho_a"] < 0

    def test_high_days_cover_planted_peaks(self, report_dir):
        spa = read_json(report_dir / "spatial_summary.json")
        assert spa["peak_mode"] == "data"
        high = set(spa["high_days"])
        assert len(high) == 15
        assert PLANTED_PEAKS <= high
        assert spa["rho_a"] == read_json(report_dir / "summary.json")["rho_a"]

    def test_ingest_report_accepts_everything(self, report_dir):
        rep = read_json(report_dir / "ingest_report.json")
        assert rep["accepted"] == rep["rows"] > 0
        assert rep["rejected"] == {}
        assert rep["towers_active"] > 0

    def test_attendance_summary_peak_on_planted_day(self, report_dir):
        att = read_json(report_dir / "attendance_summary.json")
        assert att["peak_day"] in PLANTED_PEAKS
        assert att["peak_daily"] > 0
        assert att["factors"]["non_use"] == att["non_use_calibrated"]

    def test_sensitivity_grid_and_monotonicity(self, report_dir):
        rows = read_rows(report_dir / "sensitivity.csv")
        assert len(rows) == 19
        q = [float(r["non_use"]) for r in rows]
        recip = [float(r["reciprocal_estimate"]) for r in rows]
        cens = [float(r["censoring_estimate"]) for r in rows]
        assert q == pytest.approx([0.05 * k for k in range(1, 20)])
        assert all(a > b for a, b in zip(recip, recip[1:]))
        assert all(a < b for a, b in zip(cens, cens[1:]))
        idx = q.index(min(q, key=lambda v: abs(v - 0.45)))
        assert recip[idx] == pytest.approx(24_467_257 / 0.45, rel=1e-12)

    def test_manifest_covers_all_outputs_with_digests(self, report_dir):
        blob = read_json(report_dir / "manifest_report.json")
        assert blob["command"] == "report"
        assert set(blob["inputs"]) == {"cdr", "towers", "states"}
        assert "summary" in blob["outputs"]
        for name, rec in blob["outputs"].items():
            assert sha(Path(rec["path"])) == rec["sha256"], name
        assert set(blob["timings_s"]) == {
            "load", "ingest", "attendance", "social", "spatial", "sbm",
            "summary", "total",
        }
        assert "failed_stage" not in blob
        assert "crowdcdr" in blob["versions"]
        assert blob["versions"]["blas_threads"] == cli.BLAS_THREADS
        assert list(blob["peak_rss_mb"]) == [
            "load", "ingest", "attendance", "social", "sbm", "spatial",
            "summary"]
        assert all(v > 0 for v in blob["peak_rss_mb"].values())
        assert blob["peak_rss_source"] in ("VmHWM", "ru_maxrss")

    def test_spatial_summary_reports_permutation_p_values(self, report_dir):
        spa = read_json(report_dir / "spatial_summary.json")
        for key in ("rho_a_p_value", "rho_d_p_value"):
            assert 0 < spa[key] <= 1, key

    def test_shared_intermediates_are_built_once(self, gen_dir, report_dir,
                                                 tmp_path, monkeypatch, capsys):
        calls = {}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(social, "build_network")
        counted(social, "subsample_independent")
        counted(attendance, "build_series")
        out = tmp_path / "counted"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 0
        capsys.readouterr()
        assert calls == {"build_network": 1, "subsample_independent": 1,
                         "build_series": 1}
        assert (manifest_digests(out / "manifest_report.json")
                == manifest_digests(report_dir / "manifest_report.json"))

    def test_rerun_is_bit_identical(self, gen_dir, report_dir, tmp_path,
                                    capsys):
        again = tmp_path / "again"
        assert run("report", "--input-dir", gen_dir,
                   "--output-dir", again) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed == read_json(again / "summary.json")
        first = manifest_digests(report_dir / "manifest_report.json")
        second = manifest_digests(again / "manifest_report.json")
        assert first == second

    def test_quoted_first_row_is_read_by_rows_with_the_same_artifacts(
            self, gen_dir, report_dir, tmp_path, capsys):
        # The row reader takes the whole file; only the manifest differs,
        # and it says where the row reader started.
        quoted = tmp_path / "quoted"
        shutil.copytree(gen_dir, quoted)
        header, first, rest = (quoted / "cdr.csv").read_text().split("\n", 2)
        (quoted / "cdr.csv").write_text(
            "\n".join([header, '"{}",{}'.format(*first.split(",", 1)), rest]))
        out = tmp_path / "out"
        capsys.readouterr()
        assert run("report", "--input-dir", quoted, "--output-dir", out) == 0
        assert json.loads(capsys.readouterr().out) == read_json(
            report_dir / "summary.json")
        assert manifest_digests(out / "manifest_report.json") == \
            manifest_digests(report_dir / "manifest_report.json")
        assert how_read(report_dir / "manifest_report.json") == {
            "load": {"row_reader_from": None, "split_row": None},
            "ingest": {"worker": False}}
        assert how_read(out / "manifest_report.json") == {
            "load": {"row_reader_from": 1, "split_row": None},
            "ingest": {"worker": False}}
        # What was kept of the file does not depend on how it was read.
        assert read_json(out / "manifest_report.json")["stages"]["load"] == {
            **read_json(report_dir / "manifest_report.json")["stages"]["load"],
            "row_reader_from": 1}

    def test_load_counts_match_the_artifacts(self, gen_dir, report_dir):
        load = read_json(report_dir / "manifest_report.json")["stages"]["load"]
        ingest_report = read_json(report_dir / "ingest_report.json")
        assert (load["rows"], load["accepted"], load["active_towers"]) == (
            ingest_report["rows"], ingest_report["accepted"],
            ingest_report["towers_active"])
        assert load["person_days"] == len(
            read_rows(report_dir / "observations.csv"))
        assert load["person_days"] == read_json(
            report_dir / "summary.json")["person_days"]
        contacts = cli.load_pipeline_data(gen_dir,
                                          ingest.IngestReport()).contacts
        assert (load["parties"], load["contact_pairs"]) == (
            len(contacts.party_id), len(contacts.caller_id))
        # Every node of the network is a party, and every edge a pair.
        fit = read_json(report_dir / "social_fit.json")
        assert 0 < fit["n_nodes"] <= load["parties"]
        assert 0 < fit["n_edges"] <= load["contact_pairs"]

    def test_load_records_the_rejects_of_the_ingest_report(self, gen_dir,
                                                            tmp_path):
        # Cells of the canonical columns to set, one row per reason.
        edits = {
            "negative_duration": {4: "-5"},
            "text_with_duration": {3: "text", 4: "30"},
            "outside_window": {0: "0"},
            "unknown_tower": {5: "99999"},
            "no_customer_party": {8: "0", 9: "0"},
            "customer_without_state": {6: "0", 8: "1"},
        }

        def edit(rows):
            for row, cells in zip(range(10, 100, 10), edits.values()):
                values = rows[row].split(",")
                for i, value in cells.items():
                    values[i] = value
                rows[row] = ",".join(values)
            return [*rows, "garbage,row"]
        src = with_rows(gen_dir, tmp_path / "in", edit)
        out = tmp_path / "out"
        assert run("report", "--input-dir", src, "--output-dir", out) == 0
        rejected = read_json(out / "ingest_report.json")["rejected"]
        assert rejected == dict.fromkeys([*edits, "unparseable"], 1)
        rejects = read_json(out / "manifest_report.json")["stages"]["load"][
            "rejects"]
        assert list(rejects.items()) == list(rejected.items())
        assert list(rejects) == sorted(rejects)

    def test_social_and_spatial_counts_match_the_artifacts(self, gen_dir,
                                                           report_dir):
        stages = read_json(report_dir / "manifest_report.json")["stages"]
        assert list(stages) == ["load", "ingest", "social", "spatial"]
        fit = read_json(report_dir / "social_fit.json")
        assert stages["social"] == {
            "nodes": fit["n_nodes"], "edges": fit["n_edges"],
            "triples_all": fit["n_triples_all"],
            "triples_independent": fit["n_triples_independent"]}
        spatial_counts = stages["spatial"]
        cells = read_rows(report_dir / "cells.csv")
        assert spatial_counts["active_cells"] == len(cells) == \
            stages["load"]["active_towers"]
        assert spatial_counts["silent_towers"] == read_json(
            report_dir / "ingest_report.json")["towers_silent"]
        assert spatial_counts["colocation_days"] == len(
            read_rows(report_dir / "spatial_daily.csv"))
        towers = cli.load_pipeline_data(gen_dir, ingest.IngestReport()).towers
        pts = geo.project_active(towers).pts
        pad = geo.DEFAULT_PAD_KM
        _, _, clips = clip_cells_matrix(
            pts, (*(pts.min(axis=0) - pad), *(pts.max(axis=0) + pad)))
        assert spatial_counts["clip_steps"] == clips.max() > 0

    def test_load_keeps_no_cdr_columns(self, gen_dir):
        def live_columns() -> int:
            gc.collect()
            return sum(isinstance(o, CdrColumns) for o in gc.get_objects())

        before = live_columns()
        data = cli.load_pipeline_data(gen_dir, ingest.IngestReport())
        assert not any(isinstance(v, CdrColumns) for v in vars(data).values())
        assert isinstance(data.contacts, social.ContactTable)
        # Nothing else holds the columns once load has returned.
        assert live_columns() == before

    def test_report_is_the_same_without_glibc_malloc(
            self, gen_dir, report_dir, tmp_path, monkeypatch):
        # Under another C library the allocator is left as it is.
        monkeypatch.setattr(cli, "_glibc", lambda: None)
        out = tmp_path / "other-libc"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 0
        assert manifest_digests(out / "manifest_report.json") == \
            manifest_digests(report_dir / "manifest_report.json")

    def test_calendar_peak_mode_pins_high_days(self, gen_dir, tmp_path):
        out = tmp_path / "cal"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out,
                   "--peak-mode", "calendar") == 0
        spa = read_json(out / "spatial_summary.json")
        assert spa["peak_mode"] == "calendar"
        expected = sorted(set(range(39, 49)) | set(range(67, 72)))
        assert spa["high_days"] == expected

    def test_report_never_imports_scipy(self, gen_dir, tmp_path):
        imported = modules_imported_by_report(gen_dir, tmp_path, "scipy")
        assert imported == {"cli": False, "report": False}

    def test_analysis_commands_never_import_synth(self, gen_dir, tmp_path):
        # Only gen needs the generator; every other command skips its
        # import (and, without bytecode caches, its compilation).
        imported = modules_imported_by_report(gen_dir, tmp_path,
                                              "crowdcdr.synth")
        assert imported == {"cli": False, "report": False}

    def test_social_and_sbm_artifacts_keep_their_bytes(self, desk_small_files,
                                                       tmp_path, capsys):
        # desk-small seed 1; digests of the dict-of-sets implementation.
        paths, _ = desk_small_files
        out = tmp_path / "out"
        assert run("report", "--input-dir", paths["cdr"].parent,
                   "--output-dir", out) == 0
        capsys.readouterr()
        pinned = {
            "social_census.csv": "bedd96a83d6a75b6732543766b719914"
                                 "e263202146e01c00d07410c6d0e3365a",
            "social_fit.json": "097bdf91759305f93b78db49db4e2f86"
                               "96afbf45e3292b2ffaa73eea8ec698ea",
            "sbm_blocks.csv": "6f47962170717bdd7f641f4d3ab78378"
                              "e56475ff297ada543282d2cee1191541",
        }
        assert {name: sha(out / name) for name in pinned} == pinned


#: The two ways to start the command process: ``python -m crowdcdr.cli``,
#: and the console script's entry function, which ``python -m crowdcdr`` runs.
ENTRIES = ["crowdcdr.cli", "crowdcdr"]

#: Edits that give ``with_rows`` copies of a desk-small city, named for
#: how ``report`` reads them.
READS = {
    "canonical": lambda rows: rows,
    # The whole file goes through the row reader.
    "quoted_first_row": lambda rows: ['"{}",{}'.format(*rows[0].split(",", 1)),
                                      *rows[1:]],
    # Rows rejected for an unknown tower, read in blocks.
    "rejected_rows": lambda rows: [
        ",".join(c if i != 5 else "99999" for i, c in enumerate(row.split(",")))
        if k % 500 == 250 else row for k, row in enumerate(rows)],
}


def junk_rows(rows):
    """Data rows that make ``report`` exit 3."""
    return ["junk"] * 20


class TestCommandProcess:
    """The command process runs without the cyclic collector; an
    in-process ``main`` leaves the caller's collector as it was."""

    def test_importing_the_entry_points_leaves_the_collector(self):
        script = ("import gc\n"
                  "import crowdcdr.cli, crowdcdr.__main__\n"
                  "print(gc.isenabled(), gc.get_freeze_count())\n")
        proc = fresh_python("-c", script)
        assert proc.stdout.split() == ["True", "0"], proc.stderr

    def test_the_console_script_freezes_the_collector_when_main_returns(
            self, gen_dir, tmp_path):
        script = ("import gc, sys\n"
                  "from crowdcdr.__main__ import main\n"
                  "code = main()\n"
                  "print(gc.isenabled(), gc.get_freeze_count() > 0, code)\n")
        proc = fresh_python("-c", script, "report", "--input-dir", gen_dir,
                            "--output-dir", tmp_path / "out")
        assert proc.stdout.splitlines()[-1].split() == ["False", "True", "0"], \
            proc.stderr

    @pytest.mark.parametrize("edit, code", [(READS["canonical"], 0),
                                            (junk_rows, 3)], ids=["ok", "data"])
    def test_in_process_main_leaves_the_collector_as_it_found_it(
            self, gen_dir, tmp_path, capsys, edit, code):
        src = with_rows(gen_dir, tmp_path / "in", edit)
        before = gc.isenabled(), gc.get_freeze_count()
        assert run("report", "--input-dir", src,
                   "--output-dir", tmp_path / "out") == code
        assert (gc.isenabled(), gc.get_freeze_count()) == before
        assert read_json(tmp_path / "out" / "manifest_report.json")[
            "versions"]["gc"]["enabled"] is before[0]

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_the_command_runs_without_the_collector(self, gen_dir, report_dir,
                                                    tmp_path, entry):
        out = tmp_path / "out"
        proc = fresh_python("-m", entry, "report", "--input-dir", gen_dir,
                            "--output-dir", out)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == read_json(report_dir / "summary.json")
        assert manifest_digests(out / "manifest_report.json") == \
            manifest_digests(report_dir / "manifest_report.json")
        collector = read_json(out / "manifest_report.json")["versions"]["gc"]
        assert collector["enabled"] is False
        assert isinstance(collector["collections"], int)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_a_data_error_in_the_command_exits_3(self, gen_dir, tmp_path,
                                                 entry):
        src = with_rows(gen_dir, tmp_path / "in", junk_rows)
        proc = fresh_python("-m", entry, "report", "--input-dir", src,
                            "--output-dir", tmp_path / "out")
        assert proc.returncode == 3
        assert proc.stderr.startswith("data error:"), proc.stderr
        blob = read_json(tmp_path / "out" / "manifest_report.json")
        assert (blob["exit_code"], blob["versions"]["gc"]["enabled"]) == (3, False)

    @pytest.mark.parametrize("edit", READS.values(), ids=READS)
    def test_a_run_leaves_little_garbage(self, gen_dir, tmp_path, capsys,
                                         edit):
        # What the command, without a collector, keeps until it exits:
        # 600 objects on each of these inputs, most of them the argument
        # parser's. Cycles made per row would pass the bound. An array is
        # never tracked by the collector, so none can be among them: what
        # they refer to is checked instead.
        src = with_rows(gen_dir, tmp_path / "in", edit)
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert run("report", "--input-dir", src,
                       "--output-dir", tmp_path / "out") == 0
            gc.collect()
            garbage = list(gc.garbage)
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert len(garbage) <= 2000
        assert not [o for o in gc.get_referents(*garbage)
                    if isinstance(o, np.ndarray)]


#: ``crowdcdr report`` with the fork threshold and the block size lowered,
#: so that a desk-small city is read and written by workers. ``{patch}``
#: may break a stage. After the run, the process says on stderr whether a
#: child of it is left.
WORKER_SCRIPT = """
import os, sys
from crowdcdr import cli, errors, ingest
ingest.FORK_BYTES, ingest.BLOCK_BYTES = 0, 16_384
{patch}
try:
    rc = cli.main(sys.argv[1:])
finally:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        print("no child left", file=sys.stderr)
sys.exit(rc)
"""


def processes_naming(text: str) -> list[int]:
    """Pids of the processes whose command line holds ``text``."""
    pids = []
    for cmdline in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if text.encode() in cmdline.read_bytes():
                pids.append(int(cmdline.parent.name))
        except OSError:
            pass
    return pids


def report_with_workers(input_dir: Path, out: Path, patch: str = ""):
    """The finished ``report`` process of ``WORKER_SCRIPT``, once it is
    known to have left no child, running or not."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    # A deadlock fails the test instead of hanging it.
    proc = subprocess.run(
        [sys.executable, "-c", WORKER_SCRIPT.format(patch=patch), "report",
         "--input-dir", str(input_dir), "--output-dir", str(out)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert "no child left" in proc.stderr, proc.stderr
    assert not processes_naming(str(out))
    return proc


def with_rows(gen_dir: Path, to: Path, edit, name: str = "cdr.csv") -> Path:
    """A copy of the input files whose ``name`` data rows are ``edit(rows)``."""
    shutil.copytree(gen_dir, to)
    header, *rows = (to / name).read_text().splitlines()
    rows = edit(rows)
    (to / name).write_text("\n".join([header, *rows]) + "\n")
    return to


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
class TestWorkers:
    """``report`` with workers leaves no process behind, whatever happens."""

    def test_success(self, gen_dir, report_dir, tmp_path):
        out = tmp_path / "out"
        proc = report_with_workers(gen_dir, out)
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == read_json(report_dir / "summary.json")
        assert manifest_digests(out / "manifest_report.json") == \
            manifest_digests(report_dir / "manifest_report.json")
        blob = read_json(out / "manifest_report.json")
        assert blob["stages"]["load"]["split_row"] > 1
        assert blob["stages"]["ingest"] == WORKER_WROTE
        assert list(blob["peak_rss_mb"]) == [
            "load", "ingest", "attendance", "social", "sbm", "spatial",
            "summary", "workers"]
        assert list(blob["timings_s"]) == [
            "load", "ingest", "attendance", "social", "sbm", "spatial",
            "summary", "total"]

    def test_non_canonical_block_before_the_cut(self, gen_dir, report_dir,
                                                tmp_path):
        quoted = with_rows(gen_dir, tmp_path / "in", lambda rows: [
            '"{}",{}'.format(*rows[0].split(",", 1)), *rows[1:]])
        out = tmp_path / "out"
        proc = report_with_workers(quoted, out)
        assert proc.returncode == 0
        assert manifest_digests(out / "manifest_report.json") == \
            manifest_digests(report_dir / "manifest_report.json")
        assert how_read(out / "manifest_report.json")["load"] == {
            "row_reader_from": 1, "split_row": None}

    def test_tolerance_error_after_the_cut_exits_3(self, gen_dir, tmp_path):
        garbage = with_rows(gen_dir, tmp_path / "in", lambda rows: [
            *rows[:-200], *["garbage,row"] * 200])
        out = tmp_path / "out"
        proc = report_with_workers(garbage, out)
        assert proc.returncode == 3
        assert proc.stderr.startswith("data error:")
        assert "unparseable" in proc.stderr
        blob = read_json(out / "manifest_report.json")
        assert (blob["failed_stage"], blob["exit_code"]) == ("load", 3)

    def test_analysis_error_while_the_writer_runs_exits_4(self, gen_dir,
                                                          tmp_path):
        out = tmp_path / "out"
        proc = report_with_workers(gen_dir, out, patch=(
            "def broken(run):\n"
            "    raise errors.SeparationError('separated')\n"
            "cli.stage_social = broken"))
        assert proc.returncode == 4
        assert proc.stderr.startswith("analysis error: separated")
        blob = read_json(out / "manifest_report.json")
        assert (blob["failed_stage"], blob["exit_code"]) == ("social", 4)
        # The writer's outputs are recorded first, as in one process.
        assert list(blob["timings_s"]) == [
            "load", "ingest", "attendance", "social", "total"]
        assert list(blob["outputs"])[:3] == [
            "observations", "counts", "ingest_report"]
        assert blob["stages"]["ingest"] == WORKER_WROTE

    def test_failed_writer_is_run_again_and_fails_as_in_one_process(
            self, gen_dir, tmp_path):
        out = tmp_path / "out"
        (out / "observations.csv").mkdir(parents=True)
        proc = report_with_workers(gen_dir, out)
        assert proc.returncode == 1
        assert proc.stderr.rstrip().endswith("Is a directory: "
                                             f"'{out / 'observations.csv'}'")
        blob = read_json(out / "manifest_report.json")
        assert (blob["failed_stage"], blob["error"]) == (
            "ingest", "IsADirectoryError")
        assert list(blob["timings_s"]) == ["load", "ingest", "total"]
        assert blob["outputs"] == {}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="workers need os.fork")
class TestSplitManifest:
    def test_split_row_is_the_first_row_after_the_cut(
            self, gen_dir, report_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 16_384)
        data = (gen_dir / "cdr.csv").read_bytes()
        with open(gen_dir / "cdr.csv", "rb") as fh:
            cut = ingest._split_point(fh, len(data))
        out = tmp_path / "out"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 0
        capsys.readouterr()
        blob = read_json(out / "manifest_report.json")
        # The header and the rows before the cut end in a line end each.
        assert how_read(out / "manifest_report.json") == {
            "load": {"row_reader_from": None,
                     "split_row": data[:cut].count(b"\n")},
            "ingest": WORKER_WROTE}
        # The stages the parent ran are recorded after the worker's.
        stages = read_json(report_dir / "manifest_report.json")["stages"]
        assert list(blob["stages"]) == list(stages)
        assert blob["stages"]["spatial"] == stages["spatial"]
        assert blob["peak_rss_mb"]["workers"] > 0
        assert manifest_digests(out / "manifest_report.json") == \
            manifest_digests(report_dir / "manifest_report.json")

    def test_wait_for_the_writer_is_recorded_only_when_it_ran(
            self, gen_dir, report_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        out = tmp_path / "out"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 0
        capsys.readouterr()
        blob = read_json(out / "manifest_report.json")
        wait = blob["stages"]["ingest"]["wait_s"]
        assert 0 <= wait <= blob["timings_s"]["total"]
        assert read_json(report_dir / "manifest_report.json")["stages"][
            "ingest"] == {"worker": False}

    def test_wait_for_the_read_worker_is_recorded_only_on_a_split_read(
            self, gen_dir, report_dir, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(ingest, "FORK_BYTES", 0)
        monkeypatch.setattr(ingest, "BLOCK_BYTES", 16_384)
        out = tmp_path / "out"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 0
        capsys.readouterr()
        blob = read_json(out / "manifest_report.json")
        load = blob["stages"]["load"]
        assert load["split_row"] > 1
        assert 0 <= load["worker_wait_s"] <= blob["timings_s"]["load"]
        unsplit = read_json(report_dir / "manifest_report.json")["stages"]["load"]
        assert (unsplit["split_row"], unsplit["worker_wait_s"]) == (None, None)


class TestCellMap:
    @pytest.mark.parametrize("seed", range(4))
    def test_silent_towers_go_where_the_linear_scan_sends_them(self, seed):
        rng = random.Random(seed)
        share = rng.uniform(0.05, 0.95)
        grid = synth.tower_grid(synth.named_scenario("desk-small"))[0]
        towers = [TowerSite(t.tower_id, t.latitude, t.longitude,
                            rng.random() < share) for t in grid]
        origin = geo.tower_origin(towers)
        want = {
            t.tower_id: t.tower_id if t.active else nearest_active_tower(
                geo.project_tower(t, origin), towers, origin=origin)
            for t in towers
        }
        assert serving_towers(towers) == want


class TestSubcommands:
    def test_ingest_outputs(self, gen_dir, tmp_path):
        out = tmp_path / "ing"
        assert run("ingest", "--input-dir", gen_dir, "--output-dir", out) == 0
        rows = read_rows(out / "observations.csv")
        assert rows and set(rows[0]) == {
            "person_id", "state_code", "day", "first_tower",
        }
        counts = read_rows(out / "counts.csv")
        assert sum(int(r["unique_handsets"]) for r in counts) == len(rows)
        assert timed_stages(out, "ingest") == {"load", "ingest", "total"}

    def test_attendance_outputs(self, gen_dir, tmp_path):
        out = tmp_path / "att"
        assert run("attendance", "--input-dir", gen_dir,
                   "--output-dir", out) == 0
        att = read_json(out / "attendance_summary.json")
        assert att["daily_use_estimate"] == pytest.approx(0.404, abs=0.01)
        daily = read_rows(out / "attendance_daily.csv")
        assert len(daily) == 90
        cum = read_rows(out / "attendance_cumulative.csv")
        vals = [float(r["estimate"]) for r in cum]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert timed_stages(out, "attendance") == {"load", "attendance", "total"}

    def test_social_local_inclusion_grows_network(self, gen_dir, tmp_path):
        excl, incl = tmp_path / "excl", tmp_path / "incl"
        assert run("social", "--input-dir", gen_dir,
                   "--output-dir", excl) == 0
        assert run("social", "--input-dir", gen_dir, "--output-dir", incl,
                   "--include-local") == 0
        fit_excl = read_json(excl / "social_fit.json")
        fit_incl = read_json(incl / "social_fit.json")
        assert fit_incl["n_nodes"] > fit_excl["n_nodes"]
        assert fit_incl["n_edges"] > fit_excl["n_edges"]
        assert fit_excl["n_triples_all"] > 0
        assert fit_excl["n_triples_independent"] <= fit_excl["n_triples_all"]
        census = read_rows(excl / "social_census.csv")
        assert census and set(census[0]) == {
            "state_code", "closed", "open", "transitivity",
            "closed_fraction", "w",
        }
        assert timed_stages(excl, "social") == {"load", "social", "total"}

    def test_spatial_bootstrap_flag_beats_config(self, gen_dir, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bootstrap_replicates": 200}),
                            encoding="utf-8")
        out = tmp_path / "spa"
        assert run("spatial", "--input-dir", gen_dir, "--output-dir", out,
                   "--config", cfg_path, "--bootstrap-replicates", 400) == 0
        spa = read_json(out / "spatial_summary.json")
        assert spa["bootstrap_replicates"] == 400
        report = read_rows(out / "spatial_report.csv")
        host_rows = [r for r in report if r["state_code"] == "1"]
        assert host_rows, "host state missing from spatial report"
        assert all(0 <= float(r["q_a"]) <= 1 for r in report if r["q_a"])
        assert timed_stages(out, "spatial") == {"load", "spatial", "total"}

    def test_sbm_standalone_skips_block_table(self, tmp_path):
        out = tmp_path / "sbm"
        assert run("sbm", "--output-dir", out, "--seed", 0) == 0
        curve = read_rows(out / "sbm_bias_curve.csv")
        assert [int(r["groups"]) for r in curve][0] == 1
        probs = [float(r["avg_edge_probability"]) for r in curve]
        assert probs[0] == 0.2
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        demo = read_json(out / "sbm_demo.json")
        assert demo["ratio_estimated"] > 4
        assert not (out / "sbm_blocks.csv").exists()
        assert timed_stages(out, "sbm") == {"sbm", "sbm_demo", "total"}
        # The bytes report wrote when it still ran the demo, at seed 0.
        assert {name: sha(out / name) for name in (
            "sbm_demo.json", "sbm_bias_curve.csv")} == {
            "sbm_demo.json": "d0afea39667eccf9b6a2891433dd772b"
                             "c868555b957ecdad3337454d6d8edc80",
            "sbm_bias_curve.csv": "cd571001b84ca07bd81ab5ea8ed10f4a"
                                  "aedbae2359b91afbb6bc39f709ddbec3",
        }

    def test_sbm_with_input_adds_block_table(self, gen_dir, report_dir,
                                             tmp_path):
        out = tmp_path / "sbm2"
        assert run("sbm", "--input-dir", gen_dir, "--output-dir", out) == 0
        blocks = read_rows(out / "sbm_blocks.csv")
        assert blocks and set(blocks[0]) == {
            "state_code", "n", "edges_within", "p_kk", "baseline",
        }
        assert sha(out / "sbm_blocks.csv") == sha(report_dir / "sbm_blocks.csv")
        assert timed_stages(out, "sbm") == {"load", "sbm", "sbm_demo", "total"}


def with_cell(row: str, i: int, value: str) -> str:
    """A CSV line with its cell ``i`` set to ``value``."""
    cells = row.split(",")
    cells[i] = value
    return ",".join(cells)


def nan_latitude(active: bool):
    """An edit of towers.csv rows: NaN as the latitude of the first tower
    that has CDR traffic (``active``) or has none."""
    def edit(rows, active_ids):
        i = next(i for i, row in enumerate(rows)
                 if (row.split(",")[0] in active_ids) == active)
        rows[i] = with_cell(rows[i], 1, "nan")
        return rows
    return edit


#: Values the loaders refuse: (file, an edit of its data rows given the
#: ids of the towers with traffic, what the error says).
MALFORMED = {
    "projection_nan": ("projections.csv", lambda rows, _: [
        with_cell(rows[0], 1, "nan"), *rows[1:]], "line 2: not a finite number"),
    "projection_inf": ("projections.csv", lambda rows, _: [
        with_cell(rows[0], 1, "inf"), *rows[1:]], "line 2: not a finite number"),
    "projection_negative": ("projections.csv", lambda rows, _: [
        with_cell(rows[0], 1, "-1"), *rows[1:]], "line 2: negative"),
    "projection_repeated_day": ("projections.csv", lambda rows, _: [
        with_cell(rows[0], 1, "1000"), with_cell(rows[0], 1, "2000"),
        *rows[1:]], "line 3: duplicate day"),
    "silent_tower_nan": ("towers.csv", nan_latitude(False),
                         "not a finite number"),
    "active_tower_nan": ("towers.csv", nan_latitude(True),
                         "not a finite number"),
    "repeated_tower": ("towers.csv", lambda rows, _: [rows[0], *rows],
                       "line 3: duplicate tower_id"),
}


class TestFailureModes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_auxiliary_value_exits_3(self, gen_dir, tmp_path,
                                               capsys, case):
        name, edit, message = MALFORMED[case]
        active = {row["tower_id"] for row in read_rows(gen_dir / "cdr.csv")}
        broken = with_rows(gen_dir, tmp_path / "in",
                           lambda rows: edit(rows, active), name)
        out = tmp_path / "out"
        assert run("report", "--input-dir", broken, "--output-dir", out) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:")
        assert f"{name}, line" in err and message in err
        blob = read_json(out / "manifest_report.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "load", "SchemaError", 3)

    def test_missing_states_file_exits_3(self, gen_dir, tmp_path, capsys):
        broken = tmp_path / "broken"
        broken.mkdir()
        for name in ("cdr.csv", "towers.csv"):
            shutil.copy(gen_dir / name, broken / name)
        assert run("report", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "states.csv" in err
        assert "missing input file" in err
        blob = read_json(tmp_path / "out" / "manifest_report.json")
        assert blob["failed_stage"] == "load"
        assert blob["error"] == "IngestError"
        assert blob["exit_code"] == 3
        assert set(blob["timings_s"]) == {"load", "total"}
        assert blob["outputs"] == {}

    def test_garbage_cdr_exits_3(self, gen_dir, tmp_path, capsys):
        broken = tmp_path / "garbage"
        broken.mkdir()
        for name in ("towers.csv", "states.csv"):
            shutil.copy(gen_dir / name, broken / name)
        (broken / "cdr.csv").write_text(
            CDR_HEADER + "\n" + "\n".join(["junk"] * 20) + "\n",
            encoding="utf-8",
        )
        assert run("ingest", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        assert "unparseable" in capsys.readouterr().err

    def _cdr_only(self, gen_dir, tmp_path, cdr_text):
        broken = tmp_path / "cdr_only"
        broken.mkdir()
        for name in ("towers.csv", "states.csv"):
            shutil.copy(gen_dir / name, broken / name)
        (broken / "cdr.csv").write_text(cdr_text, encoding="utf-8")
        return broken

    def test_header_only_cdr_exits_3(self, gen_dir, tmp_path, capsys):
        empty = self._cdr_only(gen_dir, tmp_path, CDR_HEADER + "\n")
        assert run("attendance", "--input-dir", empty,
                   "--output-dir", tmp_path / "out") == 3
        assert "no accepted rows" in capsys.readouterr().err
        blob = read_json(tmp_path / "out" / "manifest_attendance.json")
        assert blob["failed_stage"] == "load"
        assert blob["error"] == "IngestError"
        assert blob["exit_code"] == 3

    def test_cdr_with_every_row_rejected_exits_3(self, gen_dir, tmp_path,
                                                  capsys):
        header, *rows = (gen_dir / "cdr.csv").read_text(
            encoding="utf-8").splitlines()
        unknown = [",".join(c if i != 5 else "7" for i, c in
                            enumerate(row.split(","))) for row in rows[:50]]
        broken = self._cdr_only(gen_dir, tmp_path,
                                "\n".join([header, *unknown]) + "\n")
        assert run("report", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "no accepted rows" in err
        assert "'unknown_tower': 50" in err
        blob = read_json(tmp_path / "out" / "manifest_report.json")
        assert (blob["failed_stage"], blob["exit_code"]) == ("load", 3)

    def test_unparseable_rows_beyond_tolerance_are_counted(
            self, gen_dir, tmp_path, capsys):
        # Every 50th row garbage: 2% unparseable, over the 1% tolerance.
        garbage = with_rows(gen_dir, tmp_path / "in", lambda rows: [
            "garbage,row" if i % 50 == 49 else row
            for i, row in enumerate(rows)])
        assert run("report", "--input-dir", garbage,
                   "--output-dir", tmp_path / "out") == 3
        bad, rows = re.search(r"(\d+)/(\d+) rows unparseable",
                              capsys.readouterr().err).groups()
        blob = read_json(tmp_path / "out" / "manifest_report.json")
        assert (blob["failed_stage"], blob["exit_code"]) == ("load", 3)
        load = blob["stages"]["load"]
        assert load["rejects"]["unparseable"] == int(bad) > 0
        assert load["rows"] == int(rows)
        # The file is one block, which is not canonical.
        assert (load["row_reader_from"], load["split_row"]) == (1, None)
        assert 0 < load["accepted"] < load["rows"]
        # The reduction's counts are those of a load that finished.
        assert "person_days" not in load

    def test_config_bootstrap_replicates_below_minimum_exits_3(
            self, gen_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bootstrap_replicates": 50}),
                            encoding="utf-8")
        assert run("spatial", "--input-dir", gen_dir,
                   "--output-dir", tmp_path / "out", "--config", cfg_path) == 3
        assert "at least 200" in capsys.readouterr().err
        blob = read_json(tmp_path / "out" / "manifest_spatial.json")
        assert blob["failed_stage"] == "config"
        assert blob["error"] == "ConfigurationError"
        assert blob["exit_code"] == 3

    def test_config_bootstrap_replicates_above_maximum_exits_3(
            self, gen_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"bootstrap_replicates": 10 ** 15}),
                            encoding="utf-8")
        assert run("spatial", "--input-dir", gen_dir,
                   "--output-dir", tmp_path / "out", "--config", cfg_path) == 3
        assert "at most 100000" in capsys.readouterr().err
        blob = read_json(tmp_path / "out" / "manifest_spatial.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "config", "ConfigurationError", 3)

    def test_silent_tower_out_of_projection_range_exits_3(
            self, gen_dir, tmp_path, capsys):
        cdr = read_rows(gen_dir / "cdr.csv")
        used = {r["tower_id"] for r in cdr}
        header, *rows = (gen_dir / "towers.csv").read_text(
            encoding="utf-8").splitlines()
        silent = next(i for i, r in enumerate(rows)
                      if r.split(",")[0] not in used)
        tid, lat, lon = rows[silent].split(",")
        rows[silent] = f"{tid},{float(lat) + 1.0},{lon}"
        broken = tmp_path / "far"
        broken.mkdir()
        for name in ("cdr.csv", "states.csv"):
            shutil.copy(gen_dir / name, broken / name)
        (broken / "towers.csv").write_text("\n".join([header, *rows]) + "\n",
                                           encoding="utf-8")
        assert run("spatial", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        assert f"tower {tid}" in capsys.readouterr().err
        blob = read_json(tmp_path / "out" / "manifest_spatial.json")
        assert blob["error"] == "ConfigurationError"
        assert blob["exit_code"] == 3

    def test_unexpected_error_is_recorded_and_raised(self, gen_dir, tmp_path,
                                                     monkeypatch):
        def broken(run):
            raise RuntimeError("stage bug")
        monkeypatch.setattr(cli, "stage_ingest", broken)
        with pytest.raises(RuntimeError, match="stage bug"):
            run("ingest", "--input-dir", gen_dir, "--output-dir", tmp_path)
        blob = read_json(tmp_path / "manifest_ingest.json")
        assert blob["failed_stage"] == "ingest"
        assert blob["error"] == "RuntimeError"
        assert blob["exit_code"] == 1
        assert set(blob["timings_s"]) == {"load", "ingest", "total"}

    def test_peak_rss_is_recorded_up_to_the_failed_stage(
            self, gen_dir, tmp_path, monkeypatch):
        def broken(run):
            raise RuntimeError("stage bug")
        monkeypatch.setattr(cli, "stage_attendance", broken)
        with pytest.raises(RuntimeError, match="stage bug"):
            run("report", "--input-dir", gen_dir, "--output-dir", tmp_path)
        blob = read_json(tmp_path / "manifest_report.json")
        assert blob["failed_stage"] == "attendance"
        rss = blob["peak_rss_mb"]
        assert list(rss) == ["load", "ingest", "attendance"]
        # The process's peak so far: positive and never falling.
        assert 0 < rss["load"] <= rss["ingest"] <= rss["attendance"]

    @pytest.mark.parametrize("text", [
        '{"prevalence": "x"}',
        '{"calendar_peaks": "abc", "peak_mode": "calendar"}',
        '{"sensitivity_grid": 3}',
        '5',
        '{"subsample_seed": -1}',
        '{"peak_mode": "weird"}',
        '{"exclude_local": 1}',
        '{"sensitivity_numerator": NaN}',
        '{"sensitivity_numerator": Infinity}',
        '{"sensitivity_grid": [NaN, 0.5]}',
    ])
    def test_wrong_typed_config_exits_3(self, gen_dir, tmp_path, capsys,
                                        text):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text, encoding="utf-8")
        assert run("report", "--input-dir", gen_dir,
                   "--output-dir", tmp_path / "out", "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        # The message names the key it refuses, the first of the object.
        blob = json.loads(text)
        assert not isinstance(blob, dict) or next(iter(blob)) in err
        blob = read_json(tmp_path / "out" / "manifest_report.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "config", "ConfigurationError", 3)

    @pytest.mark.parametrize("command", ["gen", "sbm"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--output-dir", tmp_path, "--seed", -1)
        assert exc.value.code == 2
        assert "at least 0" in capsys.readouterr().err

    def test_report_has_no_seed(self, gen_dir, tmp_path, capsys):
        # Nothing report computes is random but what its config seeds.
        with pytest.raises(SystemExit) as exc:
            run("report", "--input-dir", gen_dir, "--output-dir", tmp_path,
                "--seed", 1)
        assert exc.value.code == 2
        usage, error = capsys.readouterr().err.splitlines()
        assert usage.startswith("usage: crowdcdr ")
        assert error == "crowdcdr: error: unrecognized arguments: --seed 1"
        assert not (tmp_path / "manifest_report.json").exists()

    @pytest.mark.parametrize("key, value", [("daily_use", 0.9),
                                            ("_notes", "provenance")])
    def test_removed_config_key_exits_3(self, gen_dir, tmp_path, capsys,
                                        key, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}), encoding="utf-8")
        assert run("report", "--input-dir", gen_dir,
                   "--output-dir", tmp_path / "out", "--config", cfg_path) == 3
        err = capsys.readouterr().err
        assert err == f"data error: unknown config keys: [{key!r}]\n"

    def test_unknown_config_key_exits_3(self, gen_dir, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"bogus": 1}), encoding="utf-8")
        assert run("attendance", "--input-dir", gen_dir,
                   "--output-dir", tmp_path / "out",
                   "--config", cfg_path) == 3
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("replicates", [0, 50])
    def test_too_few_bootstrap_replicates_exit_2(self, gen_dir, tmp_path,
                                                 capsys, replicates):
        with pytest.raises(SystemExit) as exc:
            run("spatial", "--input-dir", gen_dir, "--output-dir", tmp_path,
                "--bootstrap-replicates", replicates)
        assert exc.value.code == 2
        assert "at least 200" in capsys.readouterr().err

    def test_too_many_bootstrap_replicates_exit_2(self, gen_dir, tmp_path,
                                                  capsys):
        with pytest.raises(SystemExit) as exc:
            run("spatial", "--input-dir", gen_dir, "--output-dir", tmp_path,
                "--bootstrap-replicates", 10 ** 15)
        assert exc.value.code == 2
        assert "at most 100000" in capsys.readouterr().err

    def test_non_numeric_tower_id_exits_3(self, gen_dir, tmp_path, capsys):
        broken = tmp_path / "badtower"
        broken.mkdir()
        for name in ("cdr.csv", "states.csv"):
            shutil.copy(gen_dir / name, broken / name)
        header, first, *rest = (gen_dir / "towers.csv").read_text(
            encoding="utf-8").splitlines()
        (broken / "towers.csv").write_text(
            "\n".join([header, "x" + first, *rest]) + "\n", encoding="utf-8")
        assert run("ingest", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        assert "towers.csv, line 2" in capsys.readouterr().err

    def test_tower_id_beyond_int64_exits_3(self, gen_dir, tmp_path, capsys):
        # No CDR row can name such a tower, but the spatial stage maps
        # every tower into int64 arrays; it was an OverflowError, exit 1.
        broken = tmp_path / "bigtower"
        shutil.copytree(gen_dir, broken)
        header, first, *rest = (gen_dir / "towers.csv").read_text(
            encoding="utf-8").splitlines()
        first = ",".join([str(2 ** 63), *first.split(",")[1:]])
        (broken / "towers.csv").write_text(
            "\n".join([header, first, *rest]) + "\n", encoding="utf-8")
        assert run("report", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert "towers.csv, line 2" in err and "outside int64" in err

    @pytest.mark.parametrize("name", ["cdr.csv", "towers.csv", "states.csv",
                                      "projections.csv"])
    def test_non_utf8_input_file_exits_3(self, gen_dir, tmp_path, capsys,
                                         name):
        broken = tmp_path / "latin"
        shutil.copytree(gen_dir, broken)
        data = (broken / name).read_bytes()
        cut = data.index(b"\n") + 3
        (broken / name).write_bytes(data[:cut] + b"\xff" + data[cut:])
        assert run("ingest", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        err = capsys.readouterr().err
        assert name in err and "not UTF-8" in err
        blob = read_json(tmp_path / "out" / "manifest_ingest.json")
        assert (blob["failed_stage"], blob["exit_code"]) == ("load", 3)

    def test_non_utf8_config_exits_3(self, gen_dir, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"prevalence": 0.7\xff}')
        assert run("attendance", "--input-dir", gen_dir,
                   "--output-dir", tmp_path / "out", "--config", cfg_path) == 3
        assert "cfg.json" in capsys.readouterr().err
        blob = read_json(tmp_path / "out" / "manifest_attendance.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "config", "ConfigurationError", 3)

    @pytest.mark.parametrize("name", ["cdr.csv", "towers.csv"])
    def test_field_beyond_the_csv_limit_exits_3(self, gen_dir, tmp_path,
                                                capsys, name):
        broken = tmp_path / "wide"
        shutil.copytree(gen_dir, broken)
        header, first, *rest = (gen_dir / name).read_text(
            encoding="utf-8").splitlines()
        first = first.replace(",", "9" * (csv.field_size_limit() + 1) + ",", 1)
        (broken / name).write_text("\n".join([header, first, *rest]) + "\n",
                                   encoding="utf-8")
        assert run("ingest", "--input-dir", broken,
                   "--output-dir", tmp_path / "out") == 3
        assert "field larger than field limit" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["file", "under_a_file"])
    @pytest.mark.parametrize("command", ["gen", "report"])
    def test_output_dir_that_cannot_be_made_exits_2(self, gen_dir, tmp_path,
                                                     capsys, command, where):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        out = taken if where == "file" else taken / "out"
        argv = [command, "--output-dir", out]
        if command == "report":
            argv += ["--input-dir", gen_dir]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert str(out) in err

    def test_newton_iteration_cap_exits_4(self, gen_dir, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(social, "MAX_ITER", 1)
        out = tmp_path / "out"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 4
        assert "no convergence after 1 iterations" in capsys.readouterr().err
        blob = read_json(out / "manifest_report.json")
        assert (blob["failed_stage"], blob["error"], blob["exit_code"]) == (
            "social", "ConvergenceError", 4)

    def test_a_failed_fit_records_the_social_counts_before_it(
            self, gen_dir, report_dir, tmp_path, capsys, monkeypatch):
        def separated(*args, **kwargs):
            raise SeparationError("separated")
        monkeypatch.setattr(social, "fit_closure_model", separated)
        out = tmp_path / "out"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 4
        assert "separated" in capsys.readouterr().err
        blob = read_json(out / "manifest_report.json")
        assert (blob["failed_stage"], blob["exit_code"]) == ("social", 4)
        whole = read_json(report_dir / "manifest_report.json")["stages"]["social"]
        assert blob["stages"]["social"] == {
            key: whole[key] for key in ("nodes", "edges", "triples_all")}
        assert blob["stages"]["social"]["triples_all"] > 0

    def test_a_failed_tessellation_records_the_spatial_counts_before_it(
            self, gen_dir, report_dir, tmp_path, capsys, monkeypatch):
        def broken(towers):
            raise ConfigurationError("no cells")
        monkeypatch.setattr(geo, "build_tessellation", broken)
        out = tmp_path / "out"
        assert run("report", "--input-dir", gen_dir, "--output-dir", out) == 3
        capsys.readouterr()
        blob = read_json(out / "manifest_report.json")
        assert blob["failed_stage"] == "spatial"
        whole = read_json(report_dir / "manifest_report.json")["stages"]
        assert blob["stages"]["spatial"] == {
            "colocation_days": whole["spatial"]["colocation_days"]}
        assert blob["stages"]["social"] == whole["social"]

    def test_missing_required_argument_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("report")
        assert exc.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
        capsys.readouterr()


# ---------------------------------------------------------------------------
# Exit-code fuzz gate: mutated desk-small inputs never end in a traceback.

INPUT_FILES = ("cdr.csv", "towers.csv", "states.csv", "projections.csv")
CELL_VALUES = [v.encode("utf-8") for v in (
    "", "x", "-1", "0", "1.5", "1e3", "nan", "inf", "1e309",
    "99999999999999999999", "\u00e9", '"', "a,b", "9" * 200_000,
)]
HEADER_NAMES = [b"", b"X", b"tower_id", b"day", b"kind ", codecs.BOM_UTF8 + b"day"]
INVALID_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80", b"\x00"]

MUTATIONS = st.one_of(
    st.tuples(st.just("cell"), st.integers(0, 10 ** 6), st.sampled_from(CELL_VALUES)),
    st.tuples(st.just("header"), st.integers(0, 10 ** 6),
              st.sampled_from(HEADER_NAMES)),
    st.tuples(st.just("bytes"), st.integers(0, 10 ** 6),
              st.sampled_from(INVALID_UTF8)),
    st.tuples(st.just("bom"), st.just(0), st.just(codecs.BOM_UTF8)),
    st.tuples(st.just("truncate"), st.integers(0, 10 ** 6), st.just(b"")),
    st.tuples(st.just("empty"), st.just(0), st.just(b"")),
)

#: --config contents: none, one key set to a value of the wrong kind (or
#: of the right kind but out of range), a non-object file, an unknown key.
CONFIG_VALUES = ["x", None, True, -1, 0, 1.5, [], [1, "a"], {}, "calendar"]
CONFIGS = st.one_of(
    st.none(),
    st.builds(lambda key, value: json.dumps({key: value}),
              st.sampled_from(sorted(cli.DEFAULT_CONFIG)),
              st.sampled_from(CONFIG_VALUES)),
    st.sampled_from(["5", "[]", '"x"', "null", '{"bogus": 1}']),
)


def mutate(data: bytes, op: str, i: int, payload: bytes) -> bytes:
    """``data`` with one mutation applied; ``i`` picks where."""
    if op == "empty":
        return b""
    if op == "bom":
        return payload + data
    if op == "bytes":
        i %= len(data) + 1
        return data[:i] + payload + data[i:]
    if op == "truncate":
        # Drop the final line end and cut the last line short.
        body = data.rstrip(b"\n")
        start = body.rfind(b"\n") + 1
        return body[:start + i % (len(body) - start + 1)]
    lines = data.split(b"\n")
    row = 0 if op == "header" else i % len(lines)
    cells = lines[row].split(b",")
    cells[i // len(lines) % len(cells)] = payload
    lines[row] = b",".join(cells)
    return b"\n".join(lines)


def refuse_constant(name: str):
    """A ``json.loads`` hook that refuses NaN and the infinities."""
    raise ValueError(f"{name} is not JSON")


class TestExitCodeFuzz:
    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(st.tuples(st.sampled_from(INPUT_FILES), MUTATIONS),
                          min_size=1, max_size=3),
           config=CONFIGS)
    def test_mutated_inputs_exit_0_3_or_4(self, gen_dir, edits, config):
        with tempfile.TemporaryDirectory() as tmp:
            inputs, out = Path(tmp) / "in", Path(tmp) / "out"
            inputs.mkdir()
            files = {name: (gen_dir / name).read_bytes() for name in INPUT_FILES}
            for name, mutation in edits:
                files[name] = mutate(files[name], *mutation)
            for name, data in files.items():
                (inputs / name).write_bytes(data)
            flags = []
            if config is not None:
                (Path(tmp) / "cfg.json").write_text(config, encoding="utf-8")
                flags = ["--config", Path(tmp) / "cfg.json"]
            for command in ("ingest", "attendance", "report"):
                code = run(command, "--input-dir", inputs, "--output-dir", out,
                           *flags)
                assert code in (0, 3, 4)
                blob = read_json(out / f"manifest_{command}.json")
                assert blob.get("exit_code", 0) == code
                if code == 0:
                    # JSON has no NaN or infinity: a run that passes writes
                    # none.
                    for path in out.glob("*.json"):
                        json.loads(path.read_text(encoding="utf-8"),
                                   parse_constant=refuse_constant)


# ---------------------------------------------------------------------------
# The same gate for gen: a mutated scenario JSON never ends in a traceback.

SCENARIO_FIELDS = sorted(f.name for f in dataclasses.fields(synth.ScenarioConfig))
STATE_FIELDS = sorted(f.name for f in dataclasses.fields(synth.StateSpec))
SIZE_FIELDS = ["n_days", "min_stay", "peak_stay", "group_size", "grid_rows",
               "grid_cols", "n_inactive_towers"]
WRONG_KINDS = ["x", None, True, 1.5, -1, [], [1, "a"], {}]
#: Numbers no float holds: NaN, the infinities and an integer past them.
NON_FINITE = [float("nan"), float("inf"), float("-inf"), 10 ** 400]

#: (what, key, value) edits of a scenario JSON object; "sizes" sets
#: several size fields at once. Sizes stay small, so that no scenario is
#: larger than the desk city.
SCENARIO_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(SCENARIO_FIELDS),
              st.sampled_from(WRONG_KINDS + NON_FINITE)),
    st.tuples(st.just("sizes"), st.none(),
              st.dictionaries(st.sampled_from(SIZE_FIELDS),
                              st.integers(-3, 30), min_size=1)),
    st.tuples(st.just("state"), st.sampled_from(STATE_FIELDS + ["bogus"]),
              st.sampled_from(WRONG_KINDS + NON_FINITE)),
    st.tuples(st.just("state"), st.just("attendees"), st.integers(-3, 3000)),
    st.tuples(st.just("drop"), st.just("states"), st.none()),
)


class TestScenarioExitCodeFuzz:
    @settings(max_examples=60, deadline=None)
    @given(edits=st.lists(st.tuples(st.integers(0, 22), SCENARIO_EDITS),
                          min_size=1, max_size=3))
    def test_mutated_scenario_exits_0_2_or_3(self, edits):
        blob = dataclasses.asdict(synth.named_scenario("desk-small"))
        for state, (what, key, value) in edits:
            if what == "drop":
                blob.pop(key, None)
            elif what == "state":
                states = blob.get("states")
                spec = (states[state % len(states)]
                        if isinstance(states, list) and states else None)
                if isinstance(spec, dict):
                    spec[key] = value
            elif what == "sizes":
                blob.update(value)
            else:
                blob[key] = value
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path, out = Path(tmp) / "scenario.json", Path(tmp) / "out"
            # NaN and Infinity are written as JavaScript spells them, which
            # json.loads reads.
            cfg_path.write_text(json.dumps(blob), encoding="utf-8")
            code = run("gen", "--config", cfg_path, "--output-dir", out)
            assert code in (0, 2, 3)
            blob = read_json(out / "manifest_gen.json")
            assert blob.get("exit_code", 0) == code
