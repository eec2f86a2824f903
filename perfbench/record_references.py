"""Record the reference result of every library job into references.json.

    python3 perfbench/record_references.py

Run it on the commit whose results are the reference (the benchmark's were
recorded on the seed commit). It runs each job of the regulate, train and
detect libraries once, plus the detect workload's detector training, and
fails if any command exits non-zero.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import checks
import run
import workload as wl


def record(root: Path) -> dict:
    refs: dict = {"commit": run.git_commit()}
    root.mkdir(parents=True)
    client = run.Client(root, {})
    cfg = root / wl.SETUP_CONFIG
    cfg.write_text(wl.setup_config(), encoding="utf-8")
    for cmd in ("identify", "calibrate"):
        if client.call([cmd, "--config", str(cfg), "--out", str(root / wl.MODEL_DIR),
                        "--quiet"]) != 0:
            raise SystemExit(f"detector training: {cmd} failed")
    refs["detect-setup"] = checks.training_outcome(root / wl.MODEL_DIR)
    for name in ("regulate", "train", "detect"):
        jobs = [job for stratum in wl.library(name).values() for job in stratum]
        cfgs = wl.write_configs(jobs, root / "cfg" / name)
        refs[name] = {}
        for job, path in zip(jobs, cfgs):
            result = client.run(job, path)
            if result.outcome == {}:
                raise SystemExit("; ".join(result.problems))
            refs[name][job.key] = checks.reference_of(job, result.outcome)
            print(f"{job.key}: {refs[name][job.key]}", flush=True)
    return refs


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    root = run.WORK / "record"
    shutil.rmtree(root, ignore_errors=True)
    try:
        refs = record(root)
    finally:
        shutil.rmtree(root, ignore_errors=True)
    checks.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    print(f"wrote {checks.REFERENCES}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
