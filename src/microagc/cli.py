"""Command-line front end: scenario simulation, identification, detector
calibration, and offline detection from recorded traces.

Subcommands: simulate | identify | calibrate | detect | plot | version.
Exit codes: 0 success, 1 usage/config error, 2 numerical/design failure,
3 I/O error.

Scenario files are structured text: `key = value` lines grouped under
`[section]` headers. SECTIONS below declares every key a section takes, the
field it feeds, its type, and whether it is a list or repeats (only `branch`).
Grids are numbered from 1; node and channel indices are 0-based within each
grid. See configs/ for worked fixtures of the two-microgrid experiments.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import logging
import sys
from dataclasses import MISSING, replace
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults, __version__
from .lqr import ControlDesignError, CostWeights
from .netmodel import IbrParams, ModelError, NetworkSpec
from .simcore import (
    AttackSpec,
    DetectorSetup,
    Event,
    GridSpec,
    LoadSignalSpec,
    Scenario,
    ScenarioError,
    SimulationError,
    TieSpec,
    TimeSeries,
    run_scenario,
    summarize,
    whole_steps,
)
from .sysid import (
    DiscreteModel,
    ExcitationSpec,
    IdentificationError,
    load_model,
    load_records,
    predict,
    save_model,
    save_records,
    select_order,
)
from .textio import BlockFile, ConfigError, read_table, write_table
from .watermark import (
    BaselineStats,
    DetectorState,
    WatermarkConfig,
    calibrate_baseline,
    calibrate_thresholds,
    dw_step,
    window_statistics,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# config parsing

LIST, REPEAT = "list", "repeat"


def _grid_index(token: str) -> int:
    """A grid number of the file (from 1) as the library's index (from 0)."""
    return int(token) - 1


# The keys of each section, key: (field, token type[, LIST or REPEAT]), and the
# dataclass the section feeds. A field is a field of that dataclass or one of
# the HAND_READ names its builder reads itself; a key the file leaves out keeps
# the default. A LIST holds numbers separated by whitespace or commas; only a
# REPEAT key may appear twice in a section, each line one such list.
SECTIONS = {
    "": (None, {"schema_version": ("schema_version", str)}),
    "sim": (Scenario, {
        "horizon_s": ("horizon", float), "control_period_s": ("control_period", float),
        "integrator_step_s": ("integrator_step", float), "seed": ("seed", int),
        "auto_response": ("auto_response", str)}),
    "grid": (GridSpec, {
        "n_ibr": ("n_ibr", int), "n_load": ("n_load", int), "u_max": ("u_max", float),
        "branch": ("branch", float, REPEAT), "load_w": ("load_w", float, LIST),
        "v_star": ("v_star", float, LIST), "omega_c": ("omega_c", float, LIST),
        "m_p": ("m_p", float, LIST), "q_weight": ("q_weight", float, LIST),
        "r_weight": ("r_weight", float, LIST), "controller": ("controller", str),
        "pi_kp": ("pi_kp", float), "pi_ki": ("pi_ki", float),
        "sensor_tau_s": ("sensor_tau", float), "slow_hold_s": ("slow_hold", float),
        "model_file": ("model_file", str), "baseline_file": ("baseline_file", str),
        "watermark_std": ("watermark_std", float),
        "watermark_seed": ("watermark_seed", int)}),
    "load_signal": (LoadSignalSpec, {
        "grid": ("grid", _grid_index), "load_index": ("load_index", int),
        "kind": ("kind", str), "amplitude_w": ("amplitude", float),
        "period_s": ("period", float), "width_s": ("width", float),
        "step_time_s": ("step_time", float)}),
    "attack": (AttackSpec, {
        "grid": ("grid", _grid_index), "kind": ("kind", str), "start_s": ("start", float),
        "end_s": ("end", float), "channels": ("channels", int, LIST),
        "noise_std_w": ("noise_std", float), "replay_from_s": ("replay_from", float),
        "replay_to_s": ("replay_to", float)}),
    "event": (Event, {
        "time_s": ("time", float), "action": ("action", str),
        "grid": ("grid", _grid_index)}),
    "tie": (TieSpec, {
        "node_a": ("node_a", int), "node_b": ("node_b", int),
        "admittance_s": ("y_mag", float), "theta_rad": ("theta", float)}),
    "identify": (ExcitationSpec, {
        "grid": ("grid", _grid_index), "seed": ("seed", int), "beta": ("beta", float),
        "k0": ("k0", int), "dt_s": ("dt", float), "dt_prime_s": ("dt_prime", float),
        "candidates": ("candidates", int, LIST), "records_file": ("records_file", str),
        "record_file": ("record_file", str), "model_file": ("model_file", str),
        "report_file": ("report_file", str)}),
    "calibrate": (None, {
        "grid": ("grid", _grid_index), "model_file": ("model_file", str),
        "horizon_s": ("horizon", float), "window": ("window", int),
        "margin": ("margin", float), "watermark_std": ("watermark_std", float),
        "watermark_seed": ("watermark_seed", int),
        "baseline_file": ("baseline_file", str)}),
    "detect": (None, {
        "grid": ("grid", _grid_index), "model_file": ("model_file", str),
        "baseline_file": ("baseline_file", str), "trace_file": ("trace_file", str),
        "telemetry_file": ("telemetry_file", str)}),
}
HAND_READ = frozenset({  # the fields a builder reads itself with Section.value
    "schema_version", "n_ibr", "n_load", "branch", "load_w", "v_star", "omega_c", "m_p",
    "q_weight", "r_weight", "model_file", "baseline_file", "watermark_std", "grid",
    "watermark_seed", "candidates", "records_file", "record_file", "report_file",
    "horizon", "window", "margin", "trace_file", "telemetry_file"})
REPEATABLE = ("load_signal", "attack", "event")  # sections that may appear twice
# (test, message) of Section.check for a number that must be finite and > 0 or >= 0
POSITIVE = (lambda v: 0.0 < v < np.inf, "must be finite and > 0, got {}")
NON_NEGATIVE = (lambda v: 0.0 <= v < np.inf, "must be finite and >= 0, got {}")


class Section:
    """One [section] of a scenario file, every value converted as it was read."""

    def __init__(self, name: str, lineno: int, path, keys: dict):
        self.name = name
        self.lineno = lineno
        self.path = path
        self.keys = keys
        self.values: dict = {}                  # field -> value (a list for REPEAT)
        self.lines: dict[str, list[int]] = {}   # field -> line of each occurrence

    def read(self, key: str, text: str, lineno: int) -> None:
        at = f"{self.path}: line {lineno}: [{self.name}] {key}: "
        if key not in self.keys:
            raise ConfigError(at + "unknown key")
        field, kind, *shape = self.keys[key]
        if field in self.lines and shape != [REPEAT]:
            raise ConfigError(at + f"repeated key (first at line {self.lines[field][0]})")
        try:
            value = [kind(t) for t in text.replace(",", " ").split()] if shape else kind(text)
        except ValueError:
            noun = "a number" if kind is float else "an integer"
            raise ConfigError(at + f"expected {noun}, got {text!r}") from None
        if shape == [REPEAT]:
            self.values.setdefault(field, []).append(value)
        else:
            self.values[field] = value
        self.lines.setdefault(field, []).append(lineno)

    def where(self, field: str | None = None, i: int = 0, key: bool = True) -> str:
        """'file: line N: [section] key' at the i-th line of field's key, at the
        header line when the file leaves field out, and without a key for None
        or when key is false."""
        line = self.lines.get(field, [self.lineno])[i]
        name = key and next((k for k, spec in self.keys.items() if spec[0] == field), None)
        return f"{self.path}: line {line}: [{self.name}]" + (f" {name}" if name else "")

    @contextlib.contextmanager
    def located(self, field: str | None = None):
        """Re-raise a value the library rejects, e.g. a dataclass's ScenarioError,
        as a ConfigError at field's line (the header line for None)."""
        try:
            yield
        except ValueError as exc:
            raise ConfigError(f"{self.where(field)}: {exc}") from exc

    def value(self, field: str, default=MISSING):
        """A HAND_READ field's value; without a default the file must set it."""
        if field not in HAND_READ:
            raise KeyError(f"{field!r} is not read by hand")
        if field not in self.values and default is MISSING:
            raise ConfigError(f"{self.where(field)}: missing required key")
        return self.values.get(field, default)

    def check(self, field: str, ok, text: str) -> None:
        """A ConfigError at field's line when the file sets it and ok(value) fails."""
        if field in self.values and not ok(self.values[field]):
            raise ConfigError(f"{self.where(field)} {text.format(self.values[field])}")

    def build(self, cls, **given):
        """cls from the file's values of its fields; a field the file leaves out
        takes its value from given, else its default, else it is missing."""
        fields = dataclasses.fields(cls)
        kwargs = given | {f.name: self.values[f.name] for f in fields
                          if f.name in self.values}
        for f in fields:
            if (f.name not in kwargs and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ConfigError(f"{self.where(f.name)}: missing required key")
        with self.located():
            return cls(**kwargs)


def parse_config(path) -> dict[str, list[Section]]:
    """Parse the structured text config into one list of sections per name
    in SECTIONS, in file order; "grid" lists the [grid.N] sections in grid order.

    An unknown section or key, a repeated key or section, a value that does
    not convert, grids not numbered [grid.1] to [grid.G] and a missing or
    unsupported schema_version are ConfigErrors naming the file and line.
    """
    current = Section("", 0, path, SECTIONS[""][1])
    sections = {name: [] for name in SECTIONS} | {"": [current]}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = f"{path}: line {lineno}: "
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            kind, dot, _ = name.partition(".")
            if not kind or kind not in SECTIONS or (dot and kind != "grid"):
                raise ConfigError(at + f"unknown section [{name}]")
            if kind not in REPEATABLE and any(s.name == name for s in sections[kind]):
                raise ConfigError(at + f"section [{name}] appears twice")
            current = Section(name, lineno, path, SECTIONS[kind][1])
            sections[kind].append(current)
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(at + "expected 'key = value'")
        current.read(key.strip(), value.strip(), lineno)
    version = sections[""][0].values.get("schema_version")
    if version != "1":
        raise ConfigError(f"{path}: missing schema_version" if version is None
                          else f"{path}: unsupported schema_version {version}")
    grids = sections["grid"]
    for sec in grids:
        if sec.name not in [f"grid.{n}" for n in range(1, len(grids) + 1)]:
            raise ConfigError(f"{sec.where()}: grids are numbered [grid.1] to "
                              f"[grid.{len(grids)}], each once")
    grids.sort(key=lambda sec: _grid_index(sec.name[5:]))
    return sections


def _first_section(sections: dict[str, list[Section]], name: str) -> Section:
    if not sections[name]:
        raise ConfigError(f"config has no [{name}] section")
    return sections[name][0]


def _per_ibr(sec: Section, field: str, n: int, default: float) -> np.ndarray:
    vals = sec.value(field, [default])
    if len(vals) not in (1, n):
        raise ConfigError(f"{sec.where(field)}: needs 1 or {n} values, got {len(vals)}")
    return np.full(n, vals[0]) if len(vals) == 1 else np.array(vals)


def _watermark(sec: Section, n: int, default_seed: int) -> WatermarkConfig:
    return WatermarkConfig.isotropic(sec.value("watermark_std", defaults.WATERMARK_STD),
                                     n, seed=sec.value("watermark_seed", default_seed))


def _build_detector(sec: Section, n: int, base_dir: Path) -> DetectorSetup | None:
    files = sec.value("model_file", None), sec.value("baseline_file", None)
    if files == (None, None):
        return None
    if None in files:
        raise ConfigError(f"{sec.where()} a detector needs model_file and baseline_file")
    model = load_model(base_dir / files[0])
    baseline, eps1, eps2 = load_baseline(base_dir / files[1])
    return DetectorSetup(model=model, baseline=baseline, eps1=eps1, eps2=eps2,
                         watermark=_watermark(sec, n, default_seed=0))


def _build_grid(sec: Section, sections: dict[str, list[Section]], base_dir: Path,
                with_detector: bool = True) -> GridSpec:
    sec.check("n_ibr", lambda k: k >= 1, "must be >= 1, got {}")
    sec.check("n_load", lambda k: k >= 0, "must be >= 0, got {}")
    n, n_load = sec.value("n_ibr"), sec.value("n_load")
    sec.check("u_max", *POSITIVE)
    sec.check("watermark_std", *NON_NEGATIVE)
    branches = sec.value("branch", [])
    for i, vals in enumerate(branches):
        if len(vals) not in (3, 4):
            raise ConfigError(f"{sec.where('branch', i)}: "
                              "expected 'from to admittance [theta]'")
    if not branches:
        raise ConfigError(f"{sec.where()} defines no branches")
    v_star = _per_ibr(sec, "v_star", n + n_load, defaults.V_STAR)
    with sec.located():
        network = NetworkSpec.from_branches(
            n_ibr=n, n_load=n_load, v_star=v_star,
            branches=[(int(b[0]), int(b[1]), *b[2:]) for b in branches])
    loads = sec.value("load_w")
    if len(loads) != n_load:
        raise ConfigError(f"{sec.where('load_w')}: needs {n_load} values, got {len(loads)}")
    share = sum(loads) / n
    p_inj = np.concatenate([np.full(n, share), -np.array(loads)])
    omega_c = _per_ibr(sec, "omega_c", n, defaults.OMEGA_C)
    m_p = _per_ibr(sec, "m_p", n, defaults.M_P)
    with sec.located():
        ibrs = tuple(IbrParams(omega_c=float(w), m_p=float(m)) for w, m in zip(omega_c, m_p))
    weights = CostWeights(q=_per_ibr(sec, "q_weight", n, defaults.LQR_Q_DIAG),
                          r=_per_ibr(sec, "r_weight", n, defaults.LQR_R_DIAG))
    gi = _grid_index(sec.name[5:])
    signals = tuple(s.build(LoadSignalSpec) for s in sections["load_signal"]
                    if _named_grid(sections, s) == gi)
    detector = _build_detector(sec, n, base_dir) if with_detector else None
    return sec.build(GridSpec, network=network, ibrs=ibrs, p_injections=p_inj,
                     weights=weights, load_signals=signals, detector=detector)


def _named_grid(sections: dict[str, list[Section]], sec: Section) -> int:
    """The index of the grid a section names by its `grid` key."""
    gi = sec.value("grid", 0)
    if not 0 <= gi < len(sections["grid"]):
        raise ConfigError(f"{sec.where('grid', key=False)} references grid {gi + 1} "
                          "but it is not defined")
    return gi


def build_scenario(sections: dict[str, list[Section]], base_dir: Path,
                   seed_override: int | None = None,
                   with_detectors: bool = True) -> Scenario:
    grids = tuple(_build_grid(sec, sections, base_dir, with_detectors)
                  for sec in sections["grid"])
    for sec in sections["event"] + sections["attack"]:
        _named_grid(sections, sec)
    scenario = _first_section(sections, "sim").build(
        Scenario, grids=grids,
        tie=sections["tie"][0].build(TieSpec) if sections["tie"] else None,
        events=tuple(sec.build(Event) for sec in sections["event"]),
        attacks=tuple(sec.build(AttackSpec, channels=(0,)) for sec in sections["attack"]),
    )
    return scenario if seed_override is None else replace(scenario, seed=seed_override)


# ---------------------------------------------------------------------------
# detector calibration and baseline persistence

# windows per window_statistics call: 1.2 MB of temporaries at w = 100 and n = 3
WINDOW_CHUNK = 256


def calibrate_detector(grid: GridSpec, model: DiscreteModel, watermark: WatermarkConfig,
                       window: int, margin: float, **run) -> DetectorSetup:
    """grid's detector calibrated on a nominal run of the grid alone: its controller,
    loop settings and load signals, the watermark on and the thresholds open; run
    holds the Scenario's horizon, seed and timing."""
    n = grid.network.n_ibr
    open_setup = DetectorSetup(
        model=model, eps1=np.inf, eps2=np.inf, watermark=watermark,
        baseline=BaselineStats(mu_star=np.zeros(n), sigma_star=np.zeros((n, n)), w=window))
    ts = run_scenario(Scenario(grids=(replace(grid, detector=open_setup),), **run))
    received, commands, marks = (np.column_stack([ts[f"mg1_{name}_{i + 1}"] for i in range(n)])
                                 for name in ("pg_rx", "dws", "wm"))
    predicted = predict(model, np.zeros(model.order), commands + marks)
    baseline = calibrate_baseline(received, predicted, w=window)
    windows = sliding_window_view(received - predicted, window, axis=0).swapaxes(1, 2)
    chunks = [window_statistics(windows[i : i + WINDOW_CHUNK], baseline)
              for i in range(0, windows.shape[0], WINDOW_CHUNK)]
    xi1, xi2 = (np.concatenate(series) for series in zip(*chunks))
    eps1, eps2 = calibrate_thresholds(xi1, xi2, margin=margin)
    return DetectorSetup(model=model, baseline=baseline, eps1=eps1, eps2=eps2,
                         watermark=watermark)


def save_baseline(baseline: BaselineStats, eps1: float, eps2: float, path) -> None:
    BlockFile.write(path, {"window": baseline.w, "eps1": eps1, "eps2": eps2},
                    {"mu": baseline.mu_star, "sigma": baseline.sigma_star})


def load_baseline(path) -> tuple[BaselineStats, float, float]:
    f = BlockFile(path)
    mu = f.block("mu")
    baseline = BaselineStats(mu_star=mu, sigma_star=f.block("sigma", mu.size, mu.size),
                             w=int(f.value("window")))
    return baseline, f.value("eps1"), f.value("eps2")


# ---------------------------------------------------------------------------
# detector telemetry output


def write_detector_csv(ts: TimeSeries, scenario: Scenario, path) -> None:
    names, cols = ["t"], [ts.time]
    for gi, det in enumerate(g.detector for g in scenario.grids):
        if det is None:
            continue
        p = f"mg{gi + 1}"
        names += [f"{p}_xi1", f"{p}_xi2", f"{p}_eps1", f"{p}_eps2", f"{p}_flag"]
        cols += [ts[f"{p}_xi1"], ts[f"{p}_xi2"], np.full(ts.time.shape, det.eps1),
                 np.full(ts.time.shape, det.eps2), ts[f"{p}_flag"]]
    write_table(path, names, cols)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    sections = parse_config(args.config)
    out = Path(args.out)
    made = [d for d in (out, *out.parents) if not d.exists()]  # innermost first
    out.mkdir(parents=True, exist_ok=True)  # model paths may resolve through it
    try:
        scenario = build_scenario(sections, out, seed_override=args.seed)
        ts = run_scenario(scenario)
    except Exception:
        for d in made:  # the directories this call made, while they are empty
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    ts.to_csv(out / "timeseries.csv")
    write_detector_csv(ts, scenario, out / "detector.csv")
    (out / "summary.txt").write_text(summarize(ts, scenario), encoding="utf-8")
    for name in ("timeseries.csv", "detector.csv", "summary.txt"):
        if not args.quiet:
            print(f"wrote {out / name}")
    return EXIT_OK


def cmd_identify(args) -> int:
    from .casestudy import identification_records

    sections = parse_config(args.config)
    out = Path(args.out)
    sec = _first_section(sections, "identify")
    grid = _build_grid(sections["grid"][_named_grid(sections, sec)], sections, out,
                       with_detector=False)

    sec.check("candidates", lambda c: min(c, default=1) >= 1,
              "must be orders >= 1, got {}")
    records_file = sec.value("records_file", None)
    if records_file is None:
        # the library accepts beta = 0 (a zero record); a run would fit a zero model
        sec.check("beta", *POSITIVE)
        sec.check("k0", lambda k: k >= 1, "must be >= 1, got {}")
        spec = sec.build(ExcitationSpec, seed=17)
        if args.seed is not None:
            spec = replace(spec, seed=args.seed)
    out.mkdir(parents=True, exist_ok=True)
    if records_file is not None:
        t, u, y = load_records(out / records_file)
        dt = float(t[1] - t[0]) if t.shape[0] > 1 else 0.0  # too short to fit anyway
    else:
        t, u, y = identification_records(grid, spec)
        save_records(out / sec.value("record_file", "sysid_records.csv"), t, u, y)
        dt = spec.dt
    report, model = select_order(
        u, y, candidates=sec.value("candidates", defaults.ORDER_CANDIDATES), dt=dt)
    save_model(model, out / sec.value("model_file", "model.txt"))
    lines = ["order selection", "==============="]
    for d in report.candidates:
        if d in report.eta:
            mark = " *" if d == report.d_star else ""
            lines.append(f"d = {d}: eta = {report.eta[d]:.9g} W/sample{mark}")
        else:
            lines.append(f"d = {d}: failed: {report.failures[d]}")
    lines.append(f"selected order = {report.d_star}")
    (out / sec.value("report_file", "order_report.txt")).write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    if not args.quiet:
        print(f"selected order {report.d_star}; "
              f"eta = {report.eta[report.d_star]:.6g} W/sample")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    sections = parse_config(args.config)
    out = Path(args.out)
    sec = _first_section(sections, "calibrate")
    sec.check("window", lambda w: w >= 1, "must be >= 1, got {}")
    sec.check("margin", *POSITIVE)
    sec.check("watermark_std", *NON_NEGATIVE)
    window = sec.value("window", defaults.DETECTOR_WINDOW)
    scenario = build_scenario(sections, out, seed_override=args.seed,
                              with_detectors=False)
    horizon = sec.value("horizon", 10.0)
    with sec.located("horizon"):
        steps = whole_steps(horizon, scenario.control_period, "horizon")
    if steps < window:
        raise ConfigError(f"{sec.where('horizon')} must be at least window = {window} "
                          f"control periods, got {horizon} s ({steps} periods)")
    grid = scenario.grids[_named_grid(sections, sec)]
    model = load_model(out / sec.value("model_file"))
    setup = calibrate_detector(
        grid, model, _watermark(sec, grid.network.n_ibr, default_seed=29), window,
        sec.value("margin", defaults.THRESHOLD_MARGIN), horizon=horizon, seed=scenario.seed,
        control_period=scenario.control_period, integrator_step=scenario.integrator_step)
    out.mkdir(parents=True, exist_ok=True)
    save_baseline(setup.baseline, setup.eps1, setup.eps2,
                  out / sec.value("baseline_file", "baseline.txt"))
    if not args.quiet:
        print(f"eps1 = {setup.eps1:.6g}, eps2 = {setup.eps2:.6g}")
    return EXIT_OK


def cmd_detect(args) -> int:
    sections = parse_config(args.config)
    out = Path(args.out)
    sec = _first_section(sections, "detect")
    gid = _named_grid(sections, sec) + 1
    model = load_model(out / sec.value("model_file"))
    baseline, eps1, eps2 = load_baseline(out / sec.value("baseline_file"))
    t, u, e, y = _load_trace(out / sec.value("trace_file"), gid, model.n_inputs)
    n_steps = t.shape[0]
    state = DetectorState(w=baseline.w, n=model.n_outputs,
                          x_hat=np.zeros(model.order), eps1=eps1, eps2=eps2)
    out.mkdir(parents=True, exist_ok=True)
    xi = np.zeros((n_steps, 2))
    flags = np.zeros(n_steps, dtype=int)
    for k in range(n_steps):
        u_prev = u[k - 1] if k > 0 else np.zeros(model.n_inputs)
        e_prev = e[k - 1] if k > 0 else np.zeros(model.n_inputs)
        flags[k], _ = dw_step(state, baseline, model, y[k], u_prev, e_prev)
        xi[k] = state.xi1, state.xi2
    write_table(out / sec.value("telemetry_file", "detector.csv"),
                ["t", "xi1", "xi2", "eps1", "eps2", "flag"],
                [t, *xi.T, np.full(n_steps, eps1), np.full(n_steps, eps2), flags])
    if n_steps < baseline.w and not args.quiet:
        print(f"note: trace shorter than the window ({n_steps} < {baseline.w}); "
              "warm-up only, no decisions made")
    first = np.nonzero(flags)[0]
    if not args.quiet:
        if first.size:
            print(f"first flag at t = {t[first[0]]:.6g}s "
                  f"({int(flags.sum())} flagged steps)")
        else:
            print("no flags raised")
    return EXIT_OK


def _load_trace(path, gid: int, n: int):
    """Read (t, commands, watermarks, received) for grid gid from a run CSV."""
    p = f"mg{gid}"
    _, data = read_table(path, ["t"] + [f"{p}_{name}_{i + 1}" for name in
                                        ("dws", "wm", "pg_rx") for i in range(n)])
    return data[:, 0], data[:, 1 : n + 1], data[:, n + 1 : 2 * n + 1], data[:, 2 * n + 1 :]


def cmd_plot(args) -> int:
    out = Path(args.out)
    ts_csv = out / "timeseries.csv"
    det_csv = out / "detector.csv"
    if not ts_csv.exists():
        raise ConfigError(f"{ts_csv} not found; run simulate first")
    header, _ = read_table(ts_csv, [])
    lines = [
        "# gnuplot script; run: gnuplot -p plots.gp",
        'set datafile separator ","',
        "set key autotitle columnhead",
    ]
    freq_cols = [i + 1 for i, name in enumerate(header) if "_domega_" in name]
    lines.append('set xlabel "time (s)"; set ylabel "domega (rad/s)"')
    plot_parts = [f'"{ts_csv.name}" using 1:{c} with lines' for c in freq_cols]
    lines.append("plot " + ", \\\n     ".join(plot_parts))
    if det_csv.exists():
        dheader, _ = read_table(det_csv, [])
        xi_cols = [i + 1 for i, name in enumerate(dheader)
                   if name.endswith("_xi2") or name.endswith("_eps2")]
        if xi_cols:
            lines.append('set ylabel "xi2 (W^2)"')
            parts = [f'"{det_csv.name}" using 1:{c} with lines' for c in xi_cols]
            lines.append("plot " + ", \\\n     ".join(parts))
    (out / "plots.gp").write_text("\n".join(lines) + "\n", encoding="utf-8")
    if not args.quiet:
        print(f"wrote {out / 'plots.gp'}")
    return EXIT_OK


def cmd_version(args) -> int:
    print(f"microagc {__version__}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="microagc",
        description="frequency regulation and FDI-attack resilience for "
                    "systems of AC microgrids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_config in (("simulate", True), ("identify", True), ("calibrate", True),
                               ("detect", True), ("plot", False), ("version", False)):
        p = sub.add_parser(name)
        if needs_config:
            p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run seed")
        p.add_argument("--quiet", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of the process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; it is looked up as cmd_<name> at each call, so a
    rebinding of the module's cmd_* functions takes effect."""
    args = _parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return globals()["cmd_" + args.command](args)
    except (ControlDesignError, IdentificationError, ModelError,
            SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, ValueError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
