"""microagc benchmark: one closed-loop, in-process client that calls the CLI
entry point `microagc.cli.main(argv)` back to back.

    python3 perfbench/run.py --workload regulate --seed 1 --seconds 25 --trace 0

Each call sequence is a job built from the `.cfg` files the benchmark writes
from its seed (see workload.py). One process, no worker threads, BLAS pinned
to one thread. Every job's output is checked against references recorded from
the seed commit (checks.py); a job fails when `main` returns non-zero or a
check fails.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1 runs
each job twice, untraced then traced (spans.py), and reports the per-layer
metrics plus the tracing overhead. The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

Times are reported at a reference host speed. On a shared machine the CPU
speed one process gets drifts by tens of percent over tens of seconds, and it
moves every job's time alike. A fixed probe computation that does not touch
microagc (`probe_seconds`) is timed between jobs; each wall time is scaled by
PROBE_REF_S over the mean probe time before and after it. A change to microagc
moves job times and not the probe, so it shows in full. The report prints the
raw wall-clock figures beside the scaled ones.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workload as wl  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
PROBE_REF_S = 0.0033  # reference host speed: median probe time on a 2-vCPU Xeon VM
IMPORT_PROBE_REF_S = 0.0015  # the same for the import timer's pure-Python probe
# Times the program's import in a fresh interpreter, bracketed by a
# pure-Python probe (numpy is not loaded yet), and prints all three.
IMPORT_TIMER = """
import time
def probe():
    t = time.perf_counter()
    sum(i * i for i in range(20000))
    return time.perf_counter() - t
before = sorted(probe() for _ in range(3))[1]
t = time.perf_counter()
import microagc.cli, microagc.casestudy
took = time.perf_counter() - t
after = sorted(probe() for _ in range(3))[1]
print(took, before, after)
"""
_PROBE_A = 0.5 * np.eye(12) + 0.01
_PROBE_C = np.linspace(-1.0, 1.0, 12).reshape(3, 4)
_PROBE_U = np.linspace(-1.0, 1.0, 450).reshape(150, 3)

# name -> unit; the order the report prints them in
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
    "control_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "simcore.run_scenario.ms": "ms",
    "simcore.run_scenario.self_ms": "ms",
    "simcore.us_per_control_step": "us",
    "simcore.step.calls": "count",
    "simcore.step.us": "us",
    "simcore.load_vector.calls": "count",
    "simcore.load_vector.us": "us",
    "simcore.close_tie_line.ms": "ms",
    "simcore.to_csv.ms": "ms",
    "simcore.csv_bytes": "bytes",
    "transform.z_update.calls": "count",
    "transform.z_update.us": "us",
    "lqr.lqr_gain.calls": "count",
    "lqr.lqr_gain.ms": "ms",
    "lqr.control.calls": "count",
    "lqr.care_residual_max": "1",
    "netmodel.solve_operating_point.calls": "count",
    "netmodel.solve_operating_point.ms": "ms",
    "netmodel.assemble_plant.calls": "count",
    "netmodel.assemble_plant.ms": "ms",
    "sysid.select_order.ms": "ms",
    "sysid.select_order.self_ms": "ms",
    "sysid.identify.calls": "count",
    "sysid.identify.ms": "ms",
    "sysid.predict.calls": "count",
    "sysid.predict.ms": "ms",
    "sysid.save_records.ms": "ms",
    "sysid.load_model.ms": "ms",
    "sysid.orders_useful_ratio": "ratio",
    "casestudy.identification_records.ms": "ms",
    "watermark.dw_step.calls": "count",
    "watermark.dw_step.us": "us",
    "watermark.predict_step.calls": "count",
    "watermark.calibrate_baseline.ms": "ms",
    "watermark.calibrate_thresholds.ms": "ms",
    "watermark.flag_steps": "count",
    "cli.parse_config.ms": "ms",
    "cli.build_scenario.ms": "ms",
    "cli.write_detector_csv.ms": "ms",
    "cli.load_baseline.ms": "ms",
    "cli.cmd_simulate.ms": "ms",
    "cli.cmd_simulate.self_ms": "ms",
    "cli.cmd_identify.ms": "ms",
    "cli.cmd_calibrate.ms": "ms",
    "cli.cmd_detect.ms": "ms",
    "cli.cmd_detect.self_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace.overhead_ms": "ms",
    "detect_latency_ms": "ms",
    "missed_attack_frac": "ratio",
    "false_alarm_frac": "ratio",
}
# The end-to-end metric each layer metric should move, and on which workload;
# the longest matching name prefix applies.
MOVES = {
    "simcore.": "job_ms_p50, control_steps_per_s: regulate most, detect ~60%, train barely",
    "simcore.to_csv": "job_ms_p50: regulate, detect; not train",
    "simcore.csv_bytes": "job_ms_p50: regulate, detect; not train",
    "transform.": "job_ms_p50: regulate",
    "lqr.": "job_ms_p50 (fixed cost per run): mainly detect",
    "lqr.care_residual_max": "none: should not move",
    "netmodel.": "job_ms_p50 (fixed cost per run): detect, regulate tie-close jobs",
    "sysid.": "job_ms_p50: train; setup_s: detect; nothing on regulate",
    "casestudy.": "job_ms_p50: train",
    "watermark.": "job_ms_p50: detect; train barely; nothing on regulate",
    "cli.": "job_ms_p50: the workloads running the command",
    "trace.": "none: tracing cost",
    "detect_latency_ms": "none: detection quality on detect, simulated time",
    "missed_attack_frac": "none: detection quality on detect",
    "false_alarm_frac": "none: detection quality on detect",
}
CONTROL_LAWS = ("lqr.control_optimal", "lqr.control_decentralized",
                "lqr.control_observer", "lqr.control_pi_baseline")
# ROADMAP baseline, 2-vCPU Xeon VM (CPython 3.11.7, numpy 2.4.6, scipy 1.17.1)
ROADMAP_SELECT_ORDER_S = 2.07
ROADMAP_TO_CSV_MS_PER_1600 = 77.0


@dataclass
class JobResult:
    job: wl.Job
    seconds: float
    problems: list[str]
    outcome: dict = field(default_factory=dict)
    bytes_written: int = 0
    digest: dict = field(default_factory=dict)
    speed: float = 1.0  # PROBE_REF_S / probe time around the job

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def scaled_s(self) -> float:
        return self.seconds * self.speed


class Client:
    """Runs jobs through `microagc.cli.main` in one workspace."""

    def __init__(self, root: Path, references: dict):
        from microagc import cli

        self.cli = cli
        self.references = references
        self.out = root / "out"

    def call(self, argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cli.main(argv)

    def run(self, job: wl.Job, cfg: Path, tracer=None, job_id: str = "",
            keep_digest: bool = False) -> JobResult:
        shutil.rmtree(self.out, ignore_errors=True)
        argvs = [[cmd, "--config", str(cfg), "--out", str(self.out), "--quiet"]
                 for cmd in job.commands]
        problems: list[str] = []
        if tracer is not None:
            tracer.install()
            tracer.begin_job(job_id)
        t0 = time.perf_counter()
        try:
            for argv in argvs:
                rc = self.call(argv)
                if rc != 0:
                    problems.append(f"{job.key}: {argv[0]} exited with {rc}")
                    break
        except Exception:  # a crashing job is a failed job; the client keeps going
            problems.append(f"{job.key}: {traceback.format_exc(limit=3)}")
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
                tracer.uninstall()
        result = JobResult(job=job, seconds=seconds, problems=problems)
        if problems:
            return result
        try:
            result.outcome = checks.outcome(job, self.out)
        except (OSError, ValueError, KeyError, IndexError, StopIteration) as exc:
            problems.append(f"{job.key}: unreadable output: {exc!r}")
            return result
        reference = self.references.get(job.workload, {}).get(job.key)
        problems.extend(checks.compare(job, result.outcome, reference))
        result.bytes_written = sum(p.stat().st_size for p in self.out.iterdir())
        if keep_digest:
            result.digest = checks.digest(self.out)
        return result


# ---------------------------------------------------------------------------
# host speed


def probe_seconds() -> float:
    """Median of three timings of a fixed loop of small-array numpy calls.

    Small matmuls and kron products in a Python loop are the kind of work
    microagc jobs are made of; of the probes tried (pure Python, BLAS-sized
    linear algebra, this one), it tracked job-time drift best.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        g = np.zeros((3, 12))
        for u in _PROBE_U:
            g = g @ _PROBE_A + np.kron(u[None, :], _PROBE_C)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def speed_between(before: float, after: float) -> float:
    return 2.0 * PROBE_REF_S / (before + after)


# ---------------------------------------------------------------------------
# set-up


def import_seconds() -> tuple[float, float]:
    """Time to import the program in a fresh interpreter: (wall, scaled).

    The probe of this process does not track the speed another process gets,
    so the child scales its own import time with a probe of its own.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    took, before, after = map(float, proc.stdout.split()[-3:])
    return took, took * 2.0 * IMPORT_PROBE_REF_S / (before + after)


def set_up(name: str, seed: int, root: Path, references: dict):
    """Imports, config generation and, for detect, detector training.

    Returns (wall seconds, seconds at reference host speed, jobs, config
    paths, client, problems).
    """
    problems: list[str] = []
    import_s, import_scaled = import_seconds()
    before = probe_seconds()
    t0 = time.perf_counter()
    jobs = wl.job_list(name, seed)
    cfgs = wl.write_configs(jobs, root / "cfg")  # creates root
    client = Client(root, references)
    if name == "detect":
        cfg = root / wl.SETUP_CONFIG
        cfg.write_text(wl.setup_config(), encoding="utf-8")
        model_dir = root / wl.MODEL_DIR
        for cmd in ("identify", "calibrate"):
            rc = client.call([cmd, "--config", str(cfg), "--out", str(model_dir), "--quiet"])
            if rc != 0:
                problems.append(f"detector training: {cmd} exited with {rc}")
                break
    work_s = time.perf_counter() - t0
    speed = speed_between(before, probe_seconds())
    if name == "detect" and not problems:
        trained = checks.training_outcome(root / wl.MODEL_DIR)
        problems += [f"detector training: {p}" for p in
                     checks.compare_training(trained, references["detect-setup"])]
    return import_s + work_s, import_scaled + work_s * speed, jobs, cfgs, client, problems


# ---------------------------------------------------------------------------
# measurement


def measure(client: Client, jobs, cfgs, seconds: float, tracer=None):
    """Closed loop over the job list until the time is up.

    Returns (untraced results, traced results). With a tracer every job runs
    twice, untraced then traced, so both lists cover the same jobs.
    """
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    probe = probe_seconds()

    def timed(result: JobResult) -> JobResult:
        nonlocal probe
        after = probe_seconds()
        result.speed = speed_between(probe, after)
        probe = after
        return result

    i = 0
    while True:
        idx = i % len(jobs)
        plain.append(timed(client.run(jobs[idx], cfgs[idx], keep_digest=(i == 0))))
        if tracer is not None:
            traced.append(timed(client.run(jobs[idx], cfgs[idx], tracer=tracer,
                                           job_id=f"{i}:{jobs[idx].key}")))
        i += 1
        if time.perf_counter() >= deadline:
            return plain, traced


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def end_to_end(setup_s: float, results: list[JobResult], scaled: bool = True) -> dict[str, float]:
    secs = [r.scaled_s if scaled else r.seconds for r in results]
    busy = sum(secs)
    ms = [1e3 * t for t in secs]
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(results) / busy,
        "job_ms_p50": quantile(ms, 0.5),
        "job_ms_p90": quantile(ms, 0.9),
        "control_steps_per_s": sum(r.job.control_steps for r in results) / busy,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def detection_quality(results: list[JobResult]) -> dict[str, float]:
    latencies, missed, attacks, clean, false_flags = [], 0, 0, 0, 0
    for r in results:
        if r.job.workload != "detect" or not r.outcome:
            continue
        for lat in r.outcome["latency_ms"]:
            attacks += 1
            if lat is None:
                missed += 1
            else:
                latencies.append(lat)
        clean += r.outcome["clean_steps"]
        false_flags += r.outcome["false_flags"]
    return {
        "detect_latency_ms": statistics.median(latencies) if latencies else 0.0,
        "missed_attack_frac": missed / attacks if attacks else 0.0,
        "false_alarm_frac": false_flags / clean if clean else 0.0,
    }


def per_layer(tracer, traced: list[JobResult], plain: list[JobResult]) -> dict[str, float]:
    """Per-layer figures; times scaled by the median speed of the traced jobs."""
    n = len(traced)
    speed = statistics.median(r.speed for r in traced)

    def calls(name):
        return tracer.calls(name) / n

    def mean(name, unit):
        c = tracer.calls(name)
        return speed * unit * tracer.total_s(name) / c if c else 0.0

    def self_mean(name, unit):
        c = tracer.calls(name)
        return speed * unit * tracer.self_s(name) / c if c else 0.0

    values = tracer.values
    steps = values.get("control_steps", 0)
    n_csv = tracer.calls("simcore.to_csv")
    n_select = tracer.calls("sysid.select_order")
    n_identify = tracer.calls("sysid.identify")
    out = {
        "simcore.run_scenario.ms": mean("simcore.run_scenario", 1e3),
        "simcore.run_scenario.self_ms": self_mean("simcore.run_scenario", 1e3),
        "simcore.us_per_control_step":
            speed * 1e6 * tracer.total_s("simcore.run_scenario") / steps if steps else 0.0,
        "simcore.step.calls": calls("simcore.step"),
        "simcore.step.us": mean("simcore.step", 1e6),
        "simcore.load_vector.calls": calls("simcore.load_vector"),
        "simcore.load_vector.us": mean("simcore.load_vector", 1e6),
        "simcore.close_tie_line.ms": mean("simcore.close_tie_line", 1e3),
        "simcore.to_csv.ms": mean("simcore.to_csv", 1e3),
        "simcore.csv_bytes": values.get("csv_bytes", 0) / n_csv if n_csv else 0.0,
        "transform.z_update.calls": calls("transform.z_update"),
        "transform.z_update.us": mean("transform.z_update", 1e6),
        "lqr.lqr_gain.calls": calls("lqr.lqr_gain"),
        "lqr.lqr_gain.ms": mean("lqr.lqr_gain", 1e3),
        "lqr.control.calls": sum(tracer.calls(c) for c in CONTROL_LAWS) / n,
        "lqr.care_residual_max": values.get("care_residual_max", 0.0),
        "netmodel.solve_operating_point.calls": calls("netmodel.solve_operating_point"),
        "netmodel.solve_operating_point.ms": mean("netmodel.solve_operating_point", 1e3),
        "netmodel.assemble_plant.calls": calls("netmodel.assemble_plant"),
        "netmodel.assemble_plant.ms": mean("netmodel.assemble_plant", 1e3),
        "sysid.select_order.ms": mean("sysid.select_order", 1e3),
        "sysid.select_order.self_ms": self_mean("sysid.select_order", 1e3),
        "sysid.identify.calls": calls("sysid.identify"),
        "sysid.identify.ms": mean("sysid.identify", 1e3),
        "sysid.predict.calls": calls("sysid.predict"),
        "sysid.predict.ms": mean("sysid.predict", 1e3),
        "sysid.save_records.ms": mean("sysid.save_records", 1e3),
        "sysid.load_model.ms": mean("sysid.load_model", 1e3),
        "sysid.orders_useful_ratio": n_select / n_identify if n_identify else 0.0,
        "casestudy.identification_records.ms":
            mean("casestudy.identification_records", 1e3),
        "watermark.dw_step.calls": calls("watermark.dw_step"),
        "watermark.dw_step.us": mean("watermark.dw_step", 1e6),
        "watermark.predict_step.calls": calls("watermark.predict_step"),
        "watermark.calibrate_baseline.ms": mean("watermark.calibrate_baseline", 1e3),
        "watermark.calibrate_thresholds.ms": mean("watermark.calibrate_thresholds", 1e3),
        "watermark.flag_steps": values.get("flag_steps", 0) / n,
        "cli.parse_config.ms": mean("cli.parse_config", 1e3),
        "cli.build_scenario.ms": mean("cli.build_scenario", 1e3),
        "cli.write_detector_csv.ms": mean("cli.write_detector_csv", 1e3),
        "cli.load_baseline.ms": mean("cli.load_baseline", 1e3),
        "cli.cmd_simulate.ms": mean("cli.cmd_simulate", 1e3),
        "cli.cmd_simulate.self_ms": self_mean("cli.cmd_simulate", 1e3),
        "cli.cmd_identify.ms": mean("cli.cmd_identify", 1e3),
        "cli.cmd_calibrate.ms": mean("cli.cmd_calibrate", 1e3),
        "cli.cmd_detect.ms": mean("cli.cmd_detect", 1e3),
        "cli.cmd_detect.self_ms": self_mean("cli.cmd_detect", 1e3),
        "cli.bytes_written": sum(r.bytes_written for r in traced) / n,
        "trace.overhead_ms": quantile([1e3 * r.scaled_s for r in traced], 0.5)
        - quantile([1e3 * r.scaled_s for r in plain], 0.5),
    }
    out.update(detection_quality(plain))
    return out


# ---------------------------------------------------------------------------
# run record and cross-check


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_record(args) -> list[str]:
    import scipy

    return [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"nproc={os.cpu_count()} cpu={cpu_model()!r}",
        f"python={platform.python_version()} numpy={np.__version__} "
        f"scipy={scipy.__version__} blas_threads={os.environ['OPENBLAS_NUM_THREADS']}",
        f"commit={git_commit()}",
        "client=1 closed loop, in-process, no think time",
    ]


def cross_check(root: Path) -> list[str]:
    """One select_order and one 1,600-row to_csv, against the ROADMAP baseline.

    Information only, never a gate.
    """
    from microagc import casestudy
    from microagc.lqr import CostWeights
    from microagc.simcore import Scenario, run_scenario
    from microagc.sysid import ExcitationSpec, select_order

    grid = casestudy.grid1_spec(weights=CostWeights.uniform(3, q=10.0),
                                load_signals=[casestudy.pulse_load_signal()])
    _, u, y = casestudy.identification_records(grid, ExcitationSpec(seed=17))
    t0 = time.perf_counter()
    select_order(u, y, dt=0.005)
    select_s = time.perf_counter() - t0
    ts = run_scenario(Scenario(grids=(grid,), horizon=8.0, seed=1))
    t0 = time.perf_counter()
    ts.to_csv(root / "crosscheck.csv")
    csv_ms = 1e3 * (time.perf_counter() - t0) * 1600 / len(ts.time)
    return [
        f"select_order over 10 orders on {u.shape[0]} samples: {select_s:.3f} s wall-clock "
        f"(ROADMAP {ROADMAP_SELECT_ORDER_S} s, ratio {select_s / ROADMAP_SELECT_ORDER_S:.2f})",
        f"to_csv: {csv_ms:.1f} ms per 1,600 rows wall-clock "
        f"(ROADMAP {ROADMAP_TO_CSV_MS_PER_1600:.0f} ms, "
        f"ratio {csv_ms / ROADMAP_TO_CSV_MS_PER_1600:.2f})",
    ]


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wl.PATTERNS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def moves(name: str) -> str:
    return MOVES[max((p for p in MOVES if name.startswith(p)), key=len)]


def layer_shares(tracer, traced: list[JobResult]) -> list[str]:
    """Share of traced job time spent in each module's own code (self time)."""
    busy = sum(r.seconds for r in traced)
    shares: dict[str, float] = {}
    for name in tracer.stats:
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + tracer.self_s(name) / busy
    return [f"  {module:<10} {share:6.1%}"
            for module, share in sorted(shares.items(), key=lambda kv: -kv[1])]


def report(metrics: dict[str, float], units: dict[str, str], notes: dict[str, str]) -> list[str]:
    return [f"  {name:<38} {metrics[name]:>14.6g} {units[name]:<6} {notes.get(name, '')}".rstrip()
            for name in metrics]


def run(args, work_root: Path) -> dict:
    references = checks.load_references()
    root = work_root / f"run-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        print("run record")
        for line in run_record(args):
            print(f"  {line}")
        problems: list[str] = []
        setups, raw_setups = [], []
        for k in range(SETUP_REPEATS):
            wall, scaled, jobs, cfgs, client, found = set_up(
                args.workload, args.seed, root / f"setup{k}", references)
            raw_setups.append(wall)
            setups.append(scaled)
            problems += found
        setup_s = statistics.median(setups)
        warm = client.run(jobs[0], cfgs[0], keep_digest=True)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        plain, traced = measure(client, jobs, cfgs, args.seconds, tracer)
        every = [warm] + plain + traced
        if warm.ok and plain[0].ok and warm.digest != plain[0].digest:
            problems.append(f"{jobs[0].key}: re-run output is not byte-identical")
        for r in every:
            problems += r.problems
        failed = sum(not r.ok for r in every)

        print(f"set-up, {SETUP_REPEATS} repeats: "
              + ", ".join(f"{s:.3f}" for s in raw_setups) + " s wall-clock")
        print(f"jobs: {len(plain)} timed untraced"
              + (f", {len(traced)} traced" if tracer else "")
              + f", {failed} of {len(every)} failed (failed_frac = {failed / len(every):.4g})")
        e2e = end_to_end(setup_s, plain)
        raw = end_to_end(statistics.median(raw_setups), plain, scaled=False)
        speeds = [r.speed for r in plain + traced]
        print(f"host speed: median {statistics.median(speeds):.3f} of reference, "
              f"range {min(speeds):.3f}-{max(speeds):.3f}")
        print("end-to-end, wall-clock as measured (information):")
        print("\n".join(report(raw, END_TO_END, {})))
        above = sum(1 for r in plain if 1e3 * r.scaled_s > e2e["job_ms_p90"])
        notes = {"job_ms_p50": f"(n={len(plain)} jobs)",
                 "job_ms_p90": f"(n={len(plain)} jobs, {above} above)"}
        if tracer is None:
            metrics, units = e2e, END_TO_END
            print("end-to-end metrics (reference host speed):")
        else:
            tracer.dump(work_root / f"spans-{args.workload}.json")
            metrics, units = per_layer(tracer, traced, plain), PER_LAYER
            print("end-to-end, untraced jobs of this traced run (information):")
            print("\n".join(report(e2e, END_TO_END, notes)))
            notes = {name: f"moves {moves(name)}" for name in PER_LAYER}
            notes["trace.overhead_ms"] += f" (n={len(traced)} traced, {len(plain)} untraced jobs)"
            print("share of traced job time by module (self time):")
            print("\n".join(layer_shares(tracer, traced)))
            print("per-layer metrics (reference host speed; times per call, "
                  "counts per traced job):")
        print("\n".join(report(metrics, units, notes)))
        if tracer is None and args.workload == "detect":
            quality = detection_quality(plain)
            print("detection quality (simulated time, deterministic per job list):")
            print("\n".join(report(quality, PER_LAYER, {})))
        print("cross-check against ROADMAP baseline (information only):")
        try:
            lines = cross_check(root)
        except (ImportError, AttributeError, TypeError, ValueError) as exc:
            lines = [f"unavailable: library API changed ({exc!r})"]
        print("\n".join(f"  {line}" for line in lines))
        for p in problems[:20]:
            print(f"problem: {p}")
        return {
            "correct": not problems,
            "attempted": len(every),
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "microagc" / "cli.py").is_file():
        print(f"error: program source not found under {SRC.name}/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args, WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
