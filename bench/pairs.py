"""Paired benchmark runs of a base commit against this checkout.

    python3 bench/pairs.py --base HEAD~1 --out BENCH_5.json train=10 regulate=3 detect=3

Exports the committed files of the base commit with `git archive` into a
scratch directory, and copies the files git tracks in this checkout, as they
are on disk (uncommitted edits included, untracked files left out), into
another, so that both sides run from a fresh directory. It then runs
`perfbench/run.py --trace 0` from the two copies in alternating pairs: for
each WORKLOAD=PAIRS argument, pair i runs both sides with seed FIRST_SEED + i,
the base side first on even pairs and the change side first on odd ones.
Every run uses the benchmark's own run length, `run_seconds` in
BENCHMARK.json.

The output JSON holds, per workload and end-to-end metric, each side's median
and quartiles, the number of pairs the change won (ties count for neither),
whether the change is worse than the base median by more than the metric's
bound, and whether it is a gain by the paired rule: at least nine tenths of
the pairs won over at least ten pairs, and a median difference larger than
the base runs' quartile distance. It also records every run, both commits
and the machine.

After the pairs of a workload, TRACED_RUNS `--trace 1` runs per side, in
alternating pairs with seeds FIRST_SEED, FIRST_SEED + 1, ..., add that
workload's per-layer metrics under "per_layer": each side's median over its
traced runs and the relative change of the medians. They explain an
end-to-end change; they are not a paired test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10  # fewer pairs cannot show a gain, whatever they read
TRACED_RUNS = 3  # --trace 1 runs per side and workload


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(commit: str, dest: Path) -> None:
    """Write the committed files of commit into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def snapshot(checkout: Path, dest: Path) -> None:
    """Copy the files git tracks in checkout, as they are on disk, into dest;
    a tracked file deleted on disk is left out."""
    dest.mkdir(parents=True)
    listed = subprocess.run(["git", "-C", str(checkout), "ls-files", "-z"], check=True,
                            capture_output=True).stdout.decode()
    for name in filter(None, listed.split("\0")):
        src = checkout / name
        if src.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)


def source_digest(checkout: Path) -> str:
    """sha256 over the program sources, so a run names the code it measured."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run; its closing JSON line plus the run record."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["record"] = [s.strip() for s in lines if s.startswith("  nproc=")
                        or s.startswith("  python=")]
    return result


def side_stats(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(med), "q1": float(q1), "q3": float(q3)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        base = [r["base"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
        ties = sum(c == b for b, c in zip(base, change))
        b_stats, c_stats = side_stats(base), side_stats(change)
        shift = (c_stats["median"] - b_stats["median"]) / b_stats["median"]
        worse = shift if lower else -shift
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "base": b_stats, "change": c_stats,
            "change_wins": wins, "ties": ties, "pairs": len(runs),
            "median_change_rel": shift,
            "worse_than_bound": worse > spec["bound"],
            "gain": (len(runs) >= MIN_PAIRS_FOR_GAIN and wins >= 0.9 * len(runs)
                     and abs(c_stats["median"] - b_stats["median"])
                     > b_stats["q3"] - b_stats["q1"]),
        }
    return out


def median_metrics(results: list[dict]) -> dict:
    """Per metric ({name: {"value", "unit"}}), the median value over the runs
    that report it."""
    names = sorted(set().union(*(r["metrics"] for r in results)))
    out = {}
    for name in names:
        found = [r["metrics"][name] for r in results if name in r["metrics"]]
        out[name] = {"value": float(np.median([m["value"] for m in found])),
                     "unit": found[0]["unit"]}
    return out


def per_layer_table(base: dict, change: dict) -> dict:
    """Merge two traced runs' metrics ({name: {"value", "unit"}}) by name.

    A metric one side lacks reads None there; the relative change is None
    unless both sides have the metric and the base is nonzero.
    """
    out = {}
    for name in sorted(base.keys() | change.keys()):
        b, c = base.get(name, {}), change.get(name, {})
        b_val, c_val = b.get("value"), c.get("value")
        rel = (c_val - b_val) / b_val if b_val and c_val is not None else None
        out[name] = {"unit": b.get("unit", c.get("unit")), "base": b_val, "change": c_val,
                     "change_rel": rel}
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("plan", nargs="+", metavar="WORKLOAD=PAIRS")
    p.add_argument("--base", required=True, help="commit to compare against")
    p.add_argument("--out", required=True, type=Path, help="JSON file to write")
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--work", type=Path, default=None,
                   help="scratch directory for the two copies (default: a temp dir)")
    args = p.parse_args(argv)
    try:
        args.plan = [(w, int(n)) for w, _, n in (item.partition("=") for item in args.plan)]
    except ValueError:
        p.error("each plan item is WORKLOAD=PAIRS, e.g. train=10")
    if any(n < 1 for _, n in args.plan):
        p.error("PAIRS must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    base_commit = git("rev-parse", args.base)
    work = Path(tempfile.mkdtemp(dir=args.work))
    try:
        sides = {"base": work / "base", "change": work / "change"}
        export(base_commit, sides["base"])
        snapshot(ROOT, sides["change"])
        workloads, record = {}, []
        for workload, n_pairs in args.plan:
            runs = []
            for i in range(n_pairs):
                seed = args.first_seed + i
                order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
                pair = {"pair": i, "seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_once(sides[side], workload, seed, seconds)
                    record = pair[side].pop("record") or record
                runs.append(pair)
                print(f"{workload} pair {i} seed {seed}: " + ", ".join(
                    f"{side} job_ms_p50 {pair[side]['metrics']['job_ms_p50']['value']:.1f}"
                    for side in order), flush=True)
            traced = {side: [] for side in sides}
            for k in range(TRACED_RUNS):
                for side in (["base", "change"] if k % 2 == 0 else ["change", "base"]):
                    result = run_once(sides[side], workload, args.first_seed + k, seconds,
                                      trace=1)
                    result.pop("record")
                    traced[side].append(result)
            workloads[workload] = {
                "pairs": n_pairs,
                "failed": {s: sum(r[s]["failed"] for r in runs) for s in sides},
                "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in sides},
                "metrics": summarize(runs, bench["end_to_end"]),
                "runs": runs,
                "traced_failed": {s: sum(r["failed"] for r in traced[s]) for s in sides},
                "per_layer": per_layer_table(median_metrics(traced["base"]),
                                             median_metrics(traced["change"])),
            }
        result = {
            "command": ["perfbench/run.py", "--trace", "0", "--seconds", seconds],
            "per_layer_command": ["perfbench/run.py", "--trace", "1", "--seconds", seconds,
                                  "--seed", [args.first_seed + k for k in range(TRACED_RUNS)]],
            "base": {"commit": base_commit, "src_sha256": source_digest(sides["base"])},
            "change": {"head": git("rev-parse", "HEAD"),
                       "uncommitted": bool(git("status", "--porcelain", "--", "src")),
                       "src_sha256": source_digest(sides["change"])},
            "machine": record,
            "workloads": workloads,
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
