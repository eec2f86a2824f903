"""Seeded workload generator for the microagc benchmark.

Each workload draws its jobs from a fixed library of scenarios. The library
is built from LIBRARY_SEED, so the result of every library job can be recorded
once and stored with the benchmark (references.json). The run seed decides the
order in which the library is visited. Jobs are grouped into strata (for
example single-grid and tie-close scenarios) and the strata are interleaved in
a fixed pattern, so every run sees the same mix of job kinds whatever the seed.

The program only ever sees the generated `.cfg` files: `write_configs` renders
one file per job, and the same seed gives byte-identical files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

LIBRARY_SEED = 2208_11163
CONTROL_PERIOD_MS = 5
DETECTOR_WINDOW = 100  # samples; the [calibrate] window of every detect job

REGULATE_HORIZON_MS = 20_000
DETECT_HORIZON_MS = 4_000
CALIBRATE_HORIZON_MS = 10_000

REGULATE_CONTROLLERS = ("optimal-z", "decentralized", "pi", "slow-lqr")
GRID1_LOADS_W = (6348.0, 7935.0)

# Block patterns: one block visits one job of each listed stratum.
PATTERNS = {
    "regulate": ("single", "single", "single", "tie"),
    "train": ("train",),
    "detect": ("nominal", "noise", "replay-one", "replay-all"),
}
LIBRARY_BLOCKS = {"regulate": 12, "train": 16, "detect": 24}

# Shared model files of the detect workload, relative to a job's output dir.
MODEL_DIR = "model"
SETUP_CONFIG = "train.cfg"


@dataclass(frozen=True)
class Attack:
    start_ms: int
    end_ms: int


@dataclass(frozen=True)
class Job:
    """One closed-loop request: CLI subcommands run in order on one config."""

    key: str
    workload: str
    stratum: str
    commands: tuple[str, ...]
    config: str
    control_steps: int
    attacks: tuple[Attack, ...] = ()


def _secs(ms: int) -> str:
    return f"{ms / 1000:g}"


def _grid1(controller: str = "optimal-z", extra: tuple[str, ...] = ()) -> list[str]:
    return [
        "[grid.1]",
        "n_ibr = 3",
        "n_load = 2",
        "omega_c = 31.41",
        "m_p = 9.4e-5",
        "v_star = 230.0",
        "branch = 0 3 3.333",
        "branch = 1 3 3.333",
        "branch = 2 4 3.333",
        "branch = 3 4 3.333",
        "load_w = 6348.0 7935.0",
        f"controller = {controller}",
        "q_weight = 10.0",
        "r_weight = 1.0",
        *extra,
        "",
    ]


def _grid2() -> list[str]:
    return [
        "[grid.2]",
        "n_ibr = 2",
        "n_load = 1",
        "omega_c = 31.41",
        "m_p = 9.4e-5",
        "v_star = 230.0",
        "branch = 0 2 3.333",
        "branch = 1 2 3.333",
        "load_w = 4809.09",
        "controller = optimal-z",
        "q_weight = 10.0",
        "",
    ]


def _sim(horizon_ms: int, seed: int) -> list[str]:
    return [
        "schema_version = 1",
        "",
        "[sim]",
        f"horizon_s = {_secs(horizon_ms)}",
        "control_period_s = 0.005",
        "integrator_step_s = 0.0005",
        f"seed = {seed}",
        "",
    ]


def _pulse(amplitude: int, period_ms: int, width_ms: int, load_index: int = 0) -> list[str]:
    return [
        "[load_signal]",
        "grid = 1",
        f"load_index = {load_index}",
        "kind = periodic-pulse",
        f"amplitude_w = {amplitude}",
        f"period_s = {_secs(period_ms)}",
        f"width_s = {_secs(width_ms)}",
        "",
    ]


def _step(amplitude: int, time_ms: int, load_index: int = 0) -> list[str]:
    return [
        "[load_signal]",
        "grid = 1",
        f"load_index = {load_index}",
        "kind = step",
        f"amplitude_w = {amplitude}",
        f"step_time_s = {_secs(time_ms)}",
        "",
    ]


# The load every detector is trained and run against (configs/detection_demo.cfg).
CANONICAL_PULSE = _pulse(1904, 400, 200)


def _text(lines: list[str]) -> str:
    return "\n".join(lines).rstrip("\n") + "\n"


# ---------------------------------------------------------------------------
# regulate: long simulate runs, stepping-dominated


def _regulate_single(i: int, rng: random.Random) -> Job:
    controller = REGULATE_CONTROLLERS[i % len(REGULATE_CONTROLLERS)]
    load_index = rng.randrange(2)
    amplitude = round(GRID1_LOADS_W[load_index] * rng.uniform(0.1, 0.4))
    if (i // len(REGULATE_CONTROLLERS)) % 2 == 0:
        period_ms = 50 * rng.randint(4, 20)
        width_ms = 50 * rng.randint(1, period_ms // 50 - 1)
        load = _pulse(amplitude, period_ms, width_ms, load_index)
    else:
        load = _step(rng.choice((-1, 1)) * amplitude, 50 * rng.randint(10, 100),
                     load_index)
    lines = _sim(REGULATE_HORIZON_MS, rng.randrange(1, 10**6)) + _grid1(controller) + load
    return Job(key=f"regulate-single-{i:02d}", workload="regulate", stratum="single",
               commands=("simulate",), config=_text(lines),
               control_steps=REGULATE_HORIZON_MS // CONTROL_PERIOD_MS)


def _regulate_tie(i: int, rng: random.Random) -> Job:
    """Collaborative correction: grid 1 loses its controller while its load
    steps, then the tie line closes and grid 2 regulates both."""
    step_ms = 50 * rng.randint(10, 60)
    close_ms = step_ms + 50 * rng.randint(2, 20)
    amplitude = round(GRID1_LOADS_W[0] * rng.uniform(0.15, 0.45))
    lines = (
        _sim(REGULATE_HORIZON_MS, rng.randrange(1, 10**6))
        + _grid1()
        + _grid2()
        + ["[tie]", "node_a = 4", "node_b = 2", "admittance_s = 2.0", ""]
        + _step(amplitude, step_ms)
        + ["[event]", f"time_s = {_secs(step_ms)}", "action = controller_off",
           "grid = 1", ""]
        + ["[event]", f"time_s = {_secs(close_ms)}", "action = tie_close", ""]
    )
    return Job(key=f"regulate-tie-{i:02d}", workload="regulate", stratum="tie",
               commands=("simulate",), config=_text(lines),
               control_steps=REGULATE_HORIZON_MS // CONTROL_PERIOD_MS)


# ---------------------------------------------------------------------------
# train: identify + calibrate on the canonical 3-IBR grid


def _train_lines(sim_seed: int, excitation_seed: int, watermark_seed: int) -> list[str]:
    return (
        _sim(DETECT_HORIZON_MS, sim_seed)
        + _grid1()
        + CANONICAL_PULSE
        + [
            "[identify]",
            "grid = 1",
            f"seed = {excitation_seed}",
            "beta = 0.1",
            "dt_prime_s = 0.05",
            "k0 = 4000",
            "candidates = 1 2 3 4 5 6 7 8 9 10",
            "model_file = model.txt",
            "record_file = sysid_records.csv",
            "report_file = order_report.txt",
            "",
            "[calibrate]",
            "grid = 1",
            "model_file = model.txt",
            f"horizon_s = {_secs(CALIBRATE_HORIZON_MS)}",
            f"window = {DETECTOR_WINDOW}",
            "margin = 2.0",
            "watermark_std = 0.012",
            f"watermark_seed = {watermark_seed}",
            "baseline_file = baseline.txt",
            "",
        ]
    )


def _train(i: int, rng: random.Random) -> Job:
    lines = _train_lines(rng.randrange(1, 10**6), rng.randrange(1, 10**6),
                         rng.randrange(1, 10**6))
    return Job(key=f"train-{i:02d}", workload="train", stratum="train",
               commands=("identify", "calibrate"), config=_text(lines),
               control_steps=CALIBRATE_HORIZON_MS // CONTROL_PERIOD_MS)


def setup_config() -> str:
    """Training config of the detect workload: the detection_demo seeds."""
    return _text(_train_lines(77, 17, 29))


# ---------------------------------------------------------------------------
# detect: short watermarked simulate + offline replay of its trace


def _detect(i: int, stratum: str, rng: random.Random) -> Job:
    sim_seed = rng.randrange(1, 10**6)
    watermark_seed = rng.randrange(1, 10**6)
    attack_lines: list[str] = []
    attacks: tuple[Attack, ...] = ()
    if stratum == "noise":
        channels = (rng.randrange(3),)
        start_ms = 50 * rng.randint(20, 60)
        end_ms = start_ms + 50 * rng.randint(4, 12)
        attack_lines = [
            "[attack]", "grid = 1", "kind = noise-injection",
            f"channels = {channels[0]}", f"start_s = {_secs(start_ms)}",
            f"end_s = {_secs(end_ms)}",
            f"noise_std_w = {10 * rng.randint(20, 120)}", "",
        ]
        attacks = (Attack(start_ms, end_ms),)
    elif stratum in ("replay-one", "replay-all"):
        channels = (rng.randrange(3),) if stratum == "replay-one" else (0, 1, 2)
        start_ms = 50 * rng.randint(30, 60)
        end_ms = min(start_ms + 50 * rng.randint(6, 16), DETECT_HORIZON_MS - 100)
        source_to = start_ms - 50 * rng.randint(0, 4)
        source_from = max(100, source_to - 50 * rng.randint(6, 20))
        attack_lines = [
            "[attack]", "grid = 1", "kind = replay",
            "channels = " + " ".join(map(str, channels)),
            f"start_s = {_secs(start_ms)}", f"end_s = {_secs(end_ms)}",
            f"replay_from_s = {_secs(source_from)}",
            f"replay_to_s = {_secs(source_to)}", "",
        ]
        attacks = (Attack(start_ms, end_ms),)
    model = f"../{MODEL_DIR}"
    lines = (
        _sim(DETECT_HORIZON_MS, sim_seed)
        + _grid1(extra=(
            f"model_file = {model}/model.txt",
            f"baseline_file = {model}/baseline.txt",
            "watermark_std = 0.012",
            f"watermark_seed = {watermark_seed}",
        ))
        + CANONICAL_PULSE
        + attack_lines
        + [
            "[detect]",
            "grid = 1",
            f"model_file = {model}/model.txt",
            f"baseline_file = {model}/baseline.txt",
            "trace_file = timeseries.csv",
            "telemetry_file = detector_replay.csv",
            "",
        ]
    )
    return Job(key=f"detect-{stratum}-{i:02d}", workload="detect", stratum=stratum,
               commands=("simulate", "detect"), config=_text(lines),
               control_steps=DETECT_HORIZON_MS // CONTROL_PERIOD_MS,
               attacks=attacks)


# ---------------------------------------------------------------------------
# library and per-seed job lists


def library(workload: str) -> dict[str, list[Job]]:
    """The fixed job library of a workload, grouped by stratum."""
    if workload not in PATTERNS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{LIBRARY_SEED}-{workload}")
    pattern = PATTERNS[workload]
    strata: dict[str, list[Job]] = {name: [] for name in pattern}
    for _ in range(LIBRARY_BLOCKS[workload]):
        for name in pattern:
            i = len(strata[name])
            if workload == "regulate":
                job = _regulate_single(i, rng) if name == "single" else _regulate_tie(i, rng)
            elif workload == "train":
                job = _train(i, rng)
            else:
                job = _detect(i, name, rng)
            strata[name].append(job)
    return strata


def job_list(workload: str, seed: int) -> list[Job]:
    """Every library job once, in the seed's order, strata interleaved."""
    rng = random.Random(f"{seed}-{workload}")
    queues = {name: rng.sample(jobs, len(jobs)) for name, jobs in library(workload).items()}
    order: list[Job] = []
    for _ in range(LIBRARY_BLOCKS[workload]):
        for name in PATTERNS[workload]:
            order.append(queues[name].pop())
    return order


def write_configs(jobs: list[Job], directory: Path) -> list[Path]:
    """Render one config file per job; file i belongs to jobs[i]."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = directory / f"job{i:03d}-{job.key}.cfg"
        path.write_text(job.config, encoding="utf-8")
        paths.append(path)
    return paths
