"""Output checks: what each job wrote, compared with references recorded from
the seed commit (references.json, written by record_references.py).

Floats are compared with REL_TOL. summary.txt prints six significant digits,
so a last-digit rounding flip is a relative change of up to 1e-5; REL_TOL sits
one decade above that. Values at round-off level (a frequency deviation of
1e-17 rad/s when a law cancels a load exactly, or the ~1e-12 W/sample
prediction error of a noise-free fit) are compared with an absolute floor
instead: ABS_TOL for frequencies, thresholds and latencies, ETA_ABS_TOL for the
prediction error. Flag positions are compared exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from workload import CONTROL_PERIOD_MS, DETECTOR_WINDOW, Job

REL_TOL = 1e-4
ABS_TOL = 1e-9      # rad/s, W, s
ETA_ABS_TOL = 1e-6  # W/sample
EXPECTED_ORDER = 4  # d* the seed commit selects on the canonical grid
REFERENCES = Path(__file__).with_name("references.json")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def _summary(path: Path) -> dict:
    """Numbers of summary.txt: per-node RMS and steady values, attack latencies."""
    values: list[float] = []
    latencies: list[float | None] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("node "):
            for part in line.split("=")[1:]:
                values.append(float(part.split()[0]))
        elif "detection_latency_s = " in line:
            raw = line.rsplit("= ", 1)[1].strip()
            latencies.append(None if raw == "none" else float(raw))
    return {"summary": values, "latency_s": latencies}


def _flags(path: Path, column: str) -> list[int]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [int(row[column]) for row in csv.DictReader(fh)]


def _first(flags: list[int]) -> int | None:
    return next((k for k, f in enumerate(flags) if f), None)


def _header_floats(path: Path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            break
        key, sep, value = line.partition("=")
        if sep:
            out[key.strip()] = float(value)
    return out


def training_outcome(out: Path) -> dict:
    """Selected order, its prediction error and the thresholds of a model dir."""
    report = (out / "order_report.txt").read_text(encoding="utf-8").splitlines()
    d_star = int(report[-1].rsplit("=", 1)[1])
    eta = next(float(line.split("eta = ")[1].split()[0])
               for line in report if line.endswith(" *"))
    base = _header_floats(out / "baseline.txt")
    return {"d_star": d_star, "eta_star": eta, "eps1": base["eps1"],
            "eps2": base["eps2"]}


def outcome(job: Job, out: Path) -> dict:
    """The checked results of one finished job."""
    if job.workload == "train":
        return training_outcome(out)
    result = _summary(out / "summary.txt")
    n_rows = sum(1 for _ in open(out / "timeseries.csv", encoding="utf-8")) - 1
    result["rows"] = n_rows
    if job.workload == "detect":
        online = _flags(out / "detector.csv", "mg1_flag")
        offline = _flags(out / "detector_replay.csv", "flag")
        result["first_flag"] = _first(online)
        result["offline_first_flag"] = _first(offline)
        result.update(_quality(job, online))
    return result


def _quality(job: Job, flags: list[int]) -> dict:
    """Detection latency per attack and false alarms outside attack windows.

    An attack is detected when a flag is up while the window holds attacked
    samples, k in [start, end + W). A step is clean when the window is warm and
    holds no attacked sample: k >= W and k outside every [start, end + W).
    """
    step = CONTROL_PERIOD_MS
    attacked = set()
    latencies = []
    for atk in job.attacks:
        k0, k1 = atk.start_ms // step, atk.end_ms // step
        attacked.update(range(k0, k1 + DETECTOR_WINDOW))
        window_end = min(len(flags), k1 + DETECTOR_WINDOW)
        hit = next((k for k in range(k0, window_end) if flags[k]), None)
        latencies.append(None if hit is None else (hit - k0) * step)
    clean = [k for k in range(DETECTOR_WINDOW, len(flags)) if k not in attacked]
    return {
        "latency_ms": latencies,
        "clean_steps": len(clean),
        "false_flags": sum(flags[k] for k in clean),
    }


def _close(a: float, b: float, abs_tol: float = ABS_TOL) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=abs_tol)


def compare_training(observed: dict, reference: dict) -> list[str]:
    """Mismatches of a trained model dir: d* must be EXPECTED_ORDER."""
    problems = []
    if observed["d_star"] != EXPECTED_ORDER:
        problems.append(f"selected order {observed['d_star']} != {EXPECTED_ORDER}")
    if observed["d_star"] != reference["d_star"]:
        problems.append(f"selected order {observed['d_star']} != reference")
    for key, abs_tol in (("eta_star", ETA_ABS_TOL), ("eps1", ABS_TOL), ("eps2", ABS_TOL)):
        if not _close(observed[key], reference[key], abs_tol):
            problems.append(f"{key} {observed[key]!r} != {reference[key]!r}")
    return problems


def compare(job: Job, observed: dict, reference: dict | None) -> list[str]:
    """Mismatches between a job's outcome and its recorded reference."""
    if reference is None:
        return [f"{job.key}: no reference recorded"]
    if job.workload == "train":
        return [f"{job.key}: {p}" for p in compare_training(observed, reference)]
    problems = []
    if observed["rows"] != job.control_steps:
        problems.append(f"{observed['rows']} trace rows, expected {job.control_steps}")
    if len(observed["summary"]) != len(reference["summary"]) or not all(
        _close(a, b) for a, b in zip(observed["summary"], reference["summary"])
    ):
        problems.append(f"summary {observed['summary']} != {reference['summary']}")
    if len(observed["latency_s"]) != len(reference["latency_s"]) or not all(
        (a is None and b is None) or (a is not None and b is not None and _close(a, b))
        for a, b in zip(observed["latency_s"], reference["latency_s"])
    ):
        problems.append(f"latency {observed['latency_s']} != {reference['latency_s']}")
    if job.workload == "detect":
        if observed["first_flag"] != observed["offline_first_flag"]:
            problems.append(
                f"online first flag {observed['first_flag']} != offline "
                f"{observed['offline_first_flag']}"
            )
        if observed["first_flag"] != reference["first_flag"]:
            problems.append(
                f"first flag {observed['first_flag']} != reference {reference['first_flag']}"
            )
    return [f"{job.key}: {p}" for p in problems]


def reference_of(job: Job, observed: dict) -> dict:
    """The part of an outcome stored as the job's reference."""
    keys = (("d_star", "eta_star", "eps1", "eps2") if job.workload == "train"
            else ("summary", "latency_s", "first_flag") if job.workload == "detect"
            else ("summary", "latency_s"))
    return {k: observed[k] for k in keys}


def digest(directory: Path) -> dict[str, str]:
    """sha256 of every file in an output directory."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.is_file()
    }
