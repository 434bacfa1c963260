"""Correctness checks: every operation the benchmark times is checked.

The estimates of one synthetic city are compared with the truth planted
in it, using the tolerances of acceptance check 5 (tests/test_acceptance.py).
Check 5 asks the 95% closure-slope interval to cover the planted slope in
at least 90 of 100 seeds; a single run cannot apply a coverage rate, so
here the slope must lie within ``BETA1_SIGMAS`` standard errors of the
planted value.  A correct estimator misses that on about 1 seed in 16,000;
a biased one does not pass it for long.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

DAILY_USE_ABS = 0.01       # check 5
NON_USE_ABS = 0.03         # check 5
BETA1_SIGMAS = 4.0         # see the module docstring
CUMULATIVE_REL = 0.05      # seeds 1-60 stay within 0.016 at every scale used


def estimate_problems(est: dict, planted: dict) -> list[str]:
    """Ways the estimates in ``est`` miss the truth in ``planted``.

    ``est`` holds daily_use, non_use, beta1, se1, rho_a and cumulative;
    ``planted`` holds daily_use, non_use, beta1 and total (attendees).
    """
    problems = []
    if abs(est["daily_use"] - planted["daily_use"]) > DAILY_USE_ABS:
        problems.append(f"daily use {est['daily_use']} vs planted "
                        f"{planted['daily_use']} (tolerance {DAILY_USE_ABS})")
    if est["non_use"] is None or (
            abs(est["non_use"] - planted["non_use"]) > NON_USE_ABS):
        problems.append(f"non-use {est['non_use']} vs planted "
                        f"{planted['non_use']} (tolerance {NON_USE_ABS})")
    if abs(est["beta1"] - planted["beta1"]) > BETA1_SIGMAS * est["se1"]:
        problems.append(f"beta1 {est['beta1']} (se {est['se1']}) is more than "
                        f"{BETA1_SIGMAS} se from planted {planted['beta1']}")
    if est["rho_a"] is None or est["rho_a"] >= 0:
        problems.append(f"rho_a {est['rho_a']} is not negative")
    rel = est["cumulative"] / planted["total"] - 1.0
    if abs(rel) > CUMULATIVE_REL:
        problems.append(f"cumulative attendance off the planted total by "
                        f"{rel:+.4f} (tolerance {CUMULATIVE_REL})")
    return problems


def planted_from_summary(truth: dict) -> dict:
    """Planted values from a generator's ``ground_truth.json``."""
    return {
        "daily_use": truth["planted"]["daily_use"],
        "non_use": truth["planted"]["non_use"],
        "beta1": truth["planted"]["beta1"],
        "total": sum(s["attendees"] for s in truth["states"].values()),
    }


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def process_problems(returncode: int, stderr: str) -> list[str]:
    """A child process must exit 0 without a traceback."""
    if returncode != 0:
        return [f"exit code {returncode}: {stderr.strip()[-300:]}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    return []


def report_problems(input_dir: Path, output_dir: Path, returncode: int,
                    stderr: str) -> list[str]:
    """Checks on one ``crowdcdr report`` run over a clean synthetic input."""
    problems = process_problems(returncode, stderr)
    if returncode != 0:
        return problems
    try:
        ingest = _read_json(output_dir / "ingest_report.json")
        summary = _read_json(output_dir / "summary.json")
        fit = _read_json(output_dir / "social_fit.json")
        truth = _read_json(input_dir / "ground_truth.json")
    except (OSError, ValueError) as exc:
        return problems + [f"missing or unreadable output: {exc}"]
    if ingest["rejected"] or ingest["accepted"] != ingest["rows"]:
        problems.append(f"clean input has rejects: {ingest['rejected']}, "
                        f"{ingest['accepted']}/{ingest['rows']} accepted")
    est = {
        "daily_use": summary["daily_use_estimate"],
        "non_use": summary["non_use_calibrated"],
        "beta1": summary["beta1"],
        "se1": fit["se1"],
        "rho_a": summary["rho_a"],
        "cumulative": summary["cumulative_attendance"],
    }
    return problems + estimate_problems(est, planted_from_summary(truth))


def artifact_fingerprint(output_dir: Path) -> dict[str, str]:
    """Artifact name -> SHA-256, as recorded in ``manifest_report.json``."""
    try:
        manifest = _read_json(output_dir / "manifest_report.json")
    except (OSError, ValueError):
        return {}
    return {name: out["sha256"]
            for name, out in sorted(manifest["outputs"].items())}


def json_digest(value) -> str:
    """SHA-256 of a JSON value in canonical form."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def artifact_bytes(output_dir: Path) -> int:
    """Bytes of every artifact the manifest hashed."""
    manifest = _read_json(output_dir / "manifest_report.json")
    return sum(Path(out["path"]).stat().st_size
               for out in manifest["outputs"].values())


def file_digest(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
