"""Command-line front end: scenario simulation, identification, detector
calibration, and offline detection from recorded traces.

Subcommands: simulate | identify | calibrate | detect | plot | version.
Exit codes: 0 success, 1 usage/config error, 2 numerical/design failure,
3 I/O error.

Scenario files are structured text: `key = value` lines grouped under
`[section]` headers. SECTIONS below declares every key a section takes, the
field it feeds, its domain, and whether it is a list or repeats (only `branch`).
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
    check_finite,
    run_scenario,
    summarize,
)
from .sysid import (
    UNSTABLE_RADIUS,
    DiscreteModel,
    ExcitationSpec,
    IdentificationError,
    candidate_orders,
    load_model,
    load_records,
    predict,
    save_model,
    save_records,
    select_order,
)
from .textio import COUNT, INDEX, NON_NEGATIVE, POSITIVE, REAL, TEXT  # the key domains
from .textio import BlockFile, ConfigError, parse_value, read_table, write_table
from .watermark import (
    BaselineStats,
    DetectorState,
    WatermarkConfig,
    calibrate_baseline,
    calibrate_thresholds,
    dw_step,
    innovation_statistics,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3

CONFIG_COMMANDS = ("simulate", "identify", "calibrate", "detect")  # cmd_x(sections, out, args)
SEEDED_COMMANDS = ("simulate", "identify")  # the commands that read --seed


# ---------------------------------------------------------------------------
# config parsing

LIST, REPEAT = "list", "repeat"

# A key's domain is textio's (kind, test, rule). GRID turns a grid number of the
# file (from 1) into the library's index (from 0); Scenario or _named_grid checks it.
GRID = (lambda token: int(token) - 1, None, "")

# The keys of each section, key: (field, domain[, LIST or REPEAT]), and the
# dataclass the section feeds. A field the dataclass does not take is one of the
# HAND_READ names its builder reads itself; a key the file leaves out keeps the
# default. A LIST holds tokens separated by whitespace or commas; only a REPEAT
# key may appear twice in a section, each line one such list.
SECTIONS = {
    "": (None, {"schema_version": ("schema_version", (str, "1".__eq__, "1"))}),
    "sim": (Scenario, {
        "horizon_s": ("horizon", POSITIVE), "control_period_s": ("control_period", POSITIVE),
        "integrator_step_s": ("integrator_step", POSITIVE), "seed": ("seed", INDEX),
        "auto_response": ("auto_response", TEXT)}),
    "grid": (GridSpec, {
        "n_ibr": ("n_ibr", COUNT), "n_load": ("n_load", INDEX),
        "branch": ("branch", REAL, REPEAT), "load_w": ("loads", REAL, LIST),
        "v_star": ("v_star", POSITIVE, LIST), "omega_c": ("omega_c", POSITIVE, LIST),
        "m_p": ("m_p", POSITIVE, LIST), "q_weight": ("q_weight", POSITIVE, LIST),
        "r_weight": ("r_weight", POSITIVE, LIST), "controller": ("controller", TEXT),
        "model_file": ("model_file", TEXT), "baseline_file": ("baseline_file", TEXT),
        "watermark_std": ("watermark_std", NON_NEGATIVE),
        "watermark_seed": ("watermark_seed", INDEX)}),
    "load_signal": (LoadSignalSpec, {
        "grid": ("grid", GRID), "load_index": ("load_index", INDEX),
        "kind": ("kind", TEXT), "amplitude_w": ("amplitude", REAL),
        "period_s": ("period", POSITIVE), "width_s": ("width", POSITIVE),
        "step_time_s": ("step_time", REAL)}),
    "attack": (AttackSpec, {
        "grid": ("grid", GRID), "kind": ("kind", TEXT), "start_s": ("start", NON_NEGATIVE),
        "end_s": ("end", NON_NEGATIVE), "channels": ("channels", INDEX, LIST),
        "noise_std_w": ("noise_std", NON_NEGATIVE),
        "replay_from_s": ("replay_from", NON_NEGATIVE),
        "replay_to_s": ("replay_to", NON_NEGATIVE)}),
    "event": (Event, {
        "time_s": ("time", NON_NEGATIVE), "action": ("action", TEXT),
        "grid": ("grid", GRID)}),
    "tie": (TieSpec, {
        "node_a": ("node_a", INDEX), "node_b": ("node_b", INDEX),
        "admittance_s": ("y_mag", POSITIVE), "theta_rad": ("theta", REAL)}),
    "identify": (ExcitationSpec, {
        "grid": ("grid", GRID), "seed": ("seed", INDEX), "beta": ("beta", POSITIVE),
        "k0": ("k0", COUNT), "dt_prime_s": ("dt_prime", POSITIVE),
        "candidates": ("candidates", COUNT, LIST), "records_file": ("records_file", TEXT),
        "record_file": ("record_file", TEXT), "model_file": ("model_file", TEXT),
        "report_file": ("report_file", TEXT)}),
    "calibrate": (None, {
        "grid": ("grid", GRID), "model_file": ("model_file", TEXT),
        "horizon_s": ("horizon", POSITIVE), "window": ("window", COUNT),
        "margin": ("margin", POSITIVE), "watermark_std": ("watermark_std", NON_NEGATIVE),
        "watermark_seed": ("watermark_seed", INDEX),
        "baseline_file": ("baseline_file", TEXT)}),
    "detect": (None, {
        "grid": ("grid", GRID), "model_file": ("model_file", TEXT),
        "baseline_file": ("baseline_file", TEXT), "trace_file": ("trace_file", TEXT),
        "telemetry_file": ("telemetry_file", TEXT)}),
}
HAND_READ = frozenset(  # the fields a builder reads itself with Section.value
    field for cls, keys in SECTIONS.values() for field, *_ in keys.values()
    if not cls or field not in {f.name for f in dataclasses.fields(cls)})
REPEATABLE = ("load_signal", "attack", "event")  # sections that may appear twice


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
        at = f"{self.path}: line {lineno}: [{self.name}] "
        if key not in self.keys:
            raise ConfigError(at + f"{key}: unknown key")
        field, domain, *shape = self.keys[key]
        if field in self.lines and shape != [REPEAT]:
            raise ConfigError(at + f"{key}: repeated key (first at line "
                              f"{self.lines[field][0]})")
        try:
            value = parse_value(domain, key, text, many=bool(shape))
        except ValueError as exc:
            raise ConfigError(at + str(exc)) from None
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
    def located(self, sections=None):
        """Re-raise a value the library rejects, e.g. a dataclass's ScenarioError,
        as a ConfigError at the line of the field the error names, else at the
        header line, in the section of the Scenario or GridSpec record it names,
        if any ("events[1]" is sections["event"][1]), else in this one."""
        try:
            yield
        except ValueError as exc:
            sec, record = self, getattr(exc, "record", None)
            if record:
                name, _, i = record.partition("[")
                sec = sections[name.removesuffix("s")][int(i.strip("]") or 0)]
            raise ConfigError(f"{sec.where(getattr(exc, 'field', None))}: "
                              f"{exc.message if record else exc}") from exc

    def value(self, field: str, default=MISSING):
        """A HAND_READ field's value; without a default the file must set it."""
        if field not in HAND_READ:
            raise KeyError(f"{field!r} is not read by hand")
        if field not in self.values and default is MISSING:
            raise ConfigError(f"{self.where(field)}: missing required key")
        return self.values.get(field, default)

    def build(self, cls, sections=None, **given):
        """cls from the file's values of its fields; a field the file leaves out
        takes its value from given, else its default, else it is missing. Its
        errors are located, in the sections of the records they name."""
        fields = dataclasses.fields(cls)
        kwargs = given | {f.name: self.values[f.name] for f in fields
                          if f.name in self.values}
        for f in fields:
            if (f.name not in kwargs and f.default is MISSING
                    and f.default_factory is MISSING):
                raise ConfigError(f"{self.where(f.name)}: missing required key")
        with self.located(sections):
            return cls(**kwargs)


def parse_config(path) -> dict[str, list[Section]]:
    """Parse the structured text config into one list of sections per name
    in SECTIONS, in file order; "grid" lists the [grid.N] sections in grid order.

    An unknown section or key, a repeated key or section, a value that does
    not convert or lies outside its key's domain, grids not numbered [grid.1]
    to [grid.G] and a missing or unsupported schema_version are ConfigErrors
    naming the file and line.
    """
    current = Section("", 1, path, SECTIONS[""][1])  # the file's top, before any header
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
    sections[""][0].value("schema_version")  # required; its domain admits only "1"
    grids = sections["grid"]
    for sec in grids:
        if sec.name not in [f"grid.{n}" for n in range(1, len(grids) + 1)]:
            raise ConfigError(f"{sec.where()}: grids are numbered [grid.1] to "
                              f"[grid.{len(grids)}], each once")
    grids.sort(key=lambda sec: int(sec.name[5:]))
    return sections


def _first_section(sections: dict[str, list[Section]], name: str) -> Section:
    if not sections[name]:
        raise ConfigError(f"{sections[''][0].path}: config has no [{name}] section")
    return sections[name][0]


def _per_ibr(sec: Section, field: str, n: int, default: float) -> np.ndarray:
    vals = sec.value(field, [default])
    if len(vals) not in (1, n):
        raise ConfigError(f"{sec.where(field)}: needs 1 or {n} values, got {len(vals)}")
    return np.full(n, vals[0]) if len(vals) == 1 else np.array(vals)


def _watermark(sec: Section, default_seed: int) -> WatermarkConfig:
    return WatermarkConfig(sec.value("watermark_std", defaults.WATERMARK_STD),
                           seed=sec.value("watermark_seed", default_seed))


def _control_period(sections: dict[str, list[Section]]) -> float:
    """The run's control_period_s: [sim]'s, else the default."""
    values = sections["sim"][0].values if sections["sim"] else {}
    return values.get("control_period", defaults.CONTROL_PERIOD)


def _detector_model(sec: Section, n: int, base_dir: Path, period: float) -> DiscreteModel:
    """The model_file's model, which must map n commands to n powers, one per
    control period, and be stable: the detector reads an unstable model's
    growing free response as an attack."""
    model = load_model(base_dir / sec.value("model_file"))
    if not model.n_inputs == model.n_outputs == n:
        raise ConfigError(f"{sec.where('model_file')}: the model has {model.n_inputs} "
                          f"inputs and {model.n_outputs} outputs, the grid {n} IBRs")
    if not abs(model.dt - period) <= 1e-9 * period:
        raise ConfigError(f"{sec.where('model_file')}: the model's dt = {model.dt:.6g} s "
                          f"is not the control period {period:.6g} s")
    if model.spectral_radius >= UNSTABLE_RADIUS:
        raise ConfigError(f"{sec.where('model_file')}: the model's [a] block is unstable "
                          f"(spectral radius {model.spectral_radius:.6g})")
    return model


def _detector_baseline(sec: Section, n: int, base_dir: Path) -> BaselineStats:
    """The baseline_file's baseline, which must have n channels."""
    baseline = load_baseline(base_dir / sec.value("baseline_file"))
    if baseline.mu_star.size != n:
        raise ConfigError(f"{sec.where('baseline_file')}: the baseline has "
                          f"{baseline.mu_star.size} channels, the model {n} outputs")
    return baseline


def _build_detector(sec: Section, base_dir: Path, period: float) -> DetectorSetup | None:
    files = sec.value("model_file", None), sec.value("baseline_file", None)
    if files == (None, None):
        return None
    if None in files:
        raise ConfigError(f"{sec.where()} a detector needs model_file and baseline_file")
    return DetectorSetup(model=_detector_model(sec, sec.value("n_ibr"), base_dir, period),
                         baseline=_detector_baseline(sec, sec.value("n_ibr"), base_dir),
                         watermark=_watermark(sec, default_seed=0))


def _build_grid(sec: Section, sections: dict[str, list[Section]]) -> GridSpec:
    """The grid of a [grid.N] section with its load signals, and no detector."""
    n, n_load = sec.value("n_ibr"), sec.value("n_load")
    branches = sec.value("branch")
    for i, vals in enumerate(branches):
        if len(vals) not in (3, 4) or not vals[2] > 0.0:
            raise ConfigError(f"{sec.where('branch', i)}: "
                              "expected 'from to admittance [theta]', admittance > 0")
        if any(v < 0 or v % 1 for v in vals[:2]):
            raise ConfigError(f"{sec.where('branch', i)}: endpoints must be integers "
                              f">= 0, got {vals[0]:g} {vals[1]:g}")
    v_star = _per_ibr(sec, "v_star", n + n_load, defaults.V_STAR)
    with sec.located():
        network = NetworkSpec.from_branches(
            n_ibr=n, n_load=n_load, v_star=v_star,
            branches=[(int(b[0]), int(b[1]), *b[2:]) for b in branches])
    omega_c = _per_ibr(sec, "omega_c", n, defaults.OMEGA_C)
    m_p = _per_ibr(sec, "m_p", n, defaults.M_P)
    with sec.located():
        ibrs = tuple(IbrParams(omega_c=float(w), m_p=float(m)) for w, m in zip(omega_c, m_p))
    weights = CostWeights(q=_per_ibr(sec, "q_weight", n, defaults.LQR_Q_DIAG),
                          r=_per_ibr(sec, "r_weight", n, defaults.LQR_R_DIAG))
    gi = sections["grid"].index(sec)
    signal_secs = [s for s in sections["load_signal"] if _named_grid(sections, s) == gi]
    signals = tuple(s.build(LoadSignalSpec) for s in signal_secs)
    return sec.build(GridSpec, {"load_signal": signal_secs}, network=network, ibrs=ibrs,
                     weights=weights, load_signals=signals)


def _named_grid(sections: dict[str, list[Section]], sec: Section) -> int:
    """The index of the grid a section names by its `grid` key."""
    gi = sec.value("grid", 0)
    if not 0 <= gi < len(sections["grid"]):
        raise ConfigError(f"{sec.where('grid', key=False)} references grid {gi + 1} "
                          "but it is not defined")
    return gi


def build_scenario(sections: dict[str, list[Section]], base_dir: Path) -> Scenario:
    grids = tuple(replace(_build_grid(sec, sections), detector=_build_detector(
        sec, base_dir, _control_period(sections))) for sec in sections["grid"])
    ties = [sec.build(TieSpec) for sec in sections["tie"]]
    events = tuple(sec.build(Event) for sec in sections["event"])
    attacks = tuple(sec.build(AttackSpec, channels=(0,)) for sec in sections["attack"])
    return _first_section(sections, "sim").build(  # Scenario checks its rules
        Scenario, sections, grids=grids, tie=ties[0] if ties else None, events=events,
        attacks=attacks)


# ---------------------------------------------------------------------------
# detector calibration and baseline persistence


def open_detector(model: DiscreteModel, watermark: WatermarkConfig, window: int) -> DetectorSetup:
    """model's DetectorSetup with watermark, its window-long thresholds open: it never flags."""
    return DetectorSetup(model=model, watermark=watermark, baseline=BaselineStats(
        mu_star=np.zeros(model.n_outputs), trace=0.0, w=window))


def calibrate_detector(run: Scenario, margin: float) -> DetectorSetup:
    """The detector of run's one grid calibrated on run, a nominal run of the grid
    alone (its controller, weights and load signals) that carries the grid's
    open_detector: its model, watermark and window."""
    det = run.grids[0].detector
    model, window = det.model, det.baseline.w
    log = run_scenario(run).grids[0]
    nu = log["pg_rx"] - predict(model, np.zeros(model.order), log["dws"] + log["wm"])
    baseline = calibrate_baseline(nu, w=window)
    xi1, xi2 = innovation_statistics(nu, baseline)
    eps1, eps2 = calibrate_thresholds(xi1, xi2, margin=margin)
    return replace(det, baseline=replace(baseline, eps1=eps1, eps2=eps2))


def save_baseline(baseline: BaselineStats, path) -> None:
    BlockFile.write(path, {"window": baseline.w, "eps1": baseline.eps1, "eps2": baseline.eps2,
                           "trace": baseline.trace, "n_outputs": baseline.mu_star.size},
                    {"mu": baseline.mu_star})


# a threshold is > 0; inf, the open threshold of BaselineStats, is one
THRESHOLD = (float, lambda v: v > 0.0, "> 0")
BASELINE_KEYS = {"window": COUNT, "eps1": THRESHOLD, "eps2": THRESHOLD,
                 "trace": NON_NEGATIVE, "n_outputs": COUNT}


def load_baseline(path) -> BaselineStats:
    f = BlockFile(path, BASELINE_KEYS, ("mu",))
    return BaselineStats(mu_star=f.block("mu", f.value("n_outputs")), trace=f.value("trace"),
                         w=f.value("window"), eps1=f.value("eps1"), eps2=f.value("eps2"))


# ---------------------------------------------------------------------------
# detector telemetry output


def write_detector_csv(ts: TimeSeries, scenario: Scenario, path) -> None:
    names, cols = ["t"], [ts.time]
    for gi, det in enumerate(g.detector for g in scenario.grids):
        if det is None:
            continue
        log = ts.grids[gi]
        names += [ts.column(gi, name) for name in ("xi1", "xi2", "eps1", "eps2", "flag")]
        cols += [log["xi1"], log["xi2"], np.full(ts.time.shape, det.baseline.eps1),
                 np.full(ts.time.shape, det.baseline.eps2), log["flag"]]
    write_table(path, names, cols)


# ---------------------------------------------------------------------------
# subcommands


@contextlib.contextmanager
def _output_dir(out: Path):
    """Make out and its missing parents; when the block raises, remove the
    directories made here, innermost first, while they are empty."""
    made = [d for d in (out, *out.parents) if not d.exists()]
    out.mkdir(parents=True, exist_ok=True)
    try:
        yield
    except Exception:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise


def cmd_simulate(sections: dict[str, list[Section]], out: Path, args) -> None:
    scenario = build_scenario(sections, out)  # model paths may resolve through out
    ts = run_scenario(scenario)
    ts.to_csv(out / "timeseries.csv")
    write_detector_csv(ts, scenario, out / "detector.csv")
    (out / "summary.txt").write_text(summarize(ts, scenario), encoding="utf-8")
    for name in ("timeseries.csv", "detector.csv", "summary.txt"):
        if not args.quiet:
            print(f"wrote {out / name}")


def cmd_identify(sections: dict[str, list[Section]], out: Path, args) -> None:
    from .casestudy import identification_records

    sec = _first_section(sections, "identify")
    grid = _build_grid(sections["grid"][_named_grid(sections, sec)], sections)
    with sec.located():  # an empty candidate set names its line, before any run
        candidates = candidate_orders(sec.value("candidates", defaults.ORDER_CANDIDATES))

    records_file = sec.value("records_file", None)
    if records_file is not None:
        t, u, y = load_records(out / records_file)
        dt = float(t[1] - t[0]) if t.shape[0] > 1 else 0.0  # too short to fit anyway
    else:
        spec = sec.build(ExcitationSpec, seed=17, dt=_control_period(sections))
        t, u, y = identification_records(grid, spec)
        save_records(out / sec.value("record_file", "sysid_records.csv"), t, u, y)
        dt = spec.dt
    report, model = select_order(u, y, candidates=candidates, dt=dt)
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


def cmd_calibrate(sections: dict[str, list[Section]], out: Path, args) -> None:
    sec, sim = _first_section(sections, "calibrate"), _first_section(sections, "sim")
    window, horizon = sec.value("window", defaults.DETECTOR_WINDOW), sec.value("horizon", 10.0)
    grid_sec = sections["grid"][_named_grid(sections, sec)]
    grid = _build_grid(grid_sec, sections)
    model = _detector_model(sec, grid.network.n_ibr, out, _control_period(sections))
    detector = open_detector(model, _watermark(sec, default_seed=29), window)
    timing = {f: sim.values[f] for f in ("control_period", "integrator_step") if f in sim.values}
    try:  # the calibration run: the grid alone, [sim]'s timing, [calibrate]'s horizon
        run = Scenario(grids=(replace(grid, detector=detector),), horizon=horizon, **timing)
    except ScenarioError as exc:  # the horizon is [calibrate]'s, the other fields [sim]'s
        with (sec if exc.field == "horizon" else sim).located({"grid": [grid_sec]}):
            raise
    if run.n_steps < window:
        raise ConfigError(f"{sec.where('horizon')} must be at least window = {window} "
                          f"control periods, got {horizon} s ({run.n_steps} periods)")
    setup = calibrate_detector(run, sec.value("margin", defaults.THRESHOLD_MARGIN))
    save_baseline(setup.baseline, out / sec.value("baseline_file", "baseline.txt"))
    if not args.quiet:
        print(f"eps1 = {setup.baseline.eps1:.6g}, eps2 = {setup.baseline.eps2:.6g}")


def cmd_detect(sections: dict[str, list[Section]], out: Path, args) -> None:
    sec = _first_section(sections, "detect")
    gi = _named_grid(sections, sec)
    n = sections["grid"][gi].value("n_ibr")
    model = _detector_model(sec, n, out, _control_period(sections))
    baseline = _detector_baseline(sec, n, out)
    t, u, e, y = _load_trace(out / sec.value("trace_file"), gi, n)
    n_steps = t.shape[0]
    u_prev, e_prev = np.zeros_like(u), np.zeros_like(e)  # the step before's; zero at first
    u_prev[1:], e_prev[1:] = u[:-1], e[:-1]
    xi1, xi2, flags = np.zeros(n_steps), np.zeros(n_steps), np.zeros(n_steps, dtype=int)
    dw_step(DetectorState.start(model, baseline), baseline, model, y, u_prev, e_prev,
            out=(xi1, xi2, flags))
    check_finite("the replay", t, {"xi1": xi1, "xi2": xi2})
    write_table(out / sec.value("telemetry_file", "detector.csv"),
                ["t", "xi1", "xi2", "eps1", "eps2", "flag"],
                [t, xi1, xi2, np.full(n_steps, baseline.eps1), np.full(n_steps, baseline.eps2),
                 flags])
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


def _load_trace(path, gi: int, n: int):
    """Read (t, commands, watermarks, received) of grid gi's n IBRs from a run CSV."""
    _, data = read_table(path, ["t"] + [TimeSeries.column(gi, name, i) for name in
                                        ("dws", "wm", "pg_rx") for i in range(n)])
    return data[:, 0], data[:, 1 : n + 1], data[:, n + 1 : 2 * n + 1], data[:, 2 * n + 1 :]


def cmd_plot(args) -> None:
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


def cmd_version(args) -> None:
    print(f"microagc {__version__}")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, its usage errors raised as ConfigErrors, so that main
    reports them as every other usage error: `error: ...` and exit 1."""

    def error(self, message):
        raise ConfigError(message)


def _seed(token: str) -> int:
    """--seed's value, in the domain of the config's seed keys (INDEX)."""
    kind, test, rule = INDEX
    try:
        value = kind(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {token!r}") from None
    if not test(value):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="microagc",
        description="frequency regulation and FDI-attack resilience for "
                    "systems of AC microgrids",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*CONFIG_COMMANDS, "plot", "version"):
        p = sub.add_parser(name)
        if name in CONFIG_COMMANDS:
            p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
        if name in SEEDED_COMMANDS:
            p.add_argument("--seed", type=_seed, default=None, help="override run seed")
        p.add_argument("--quiet", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of the process."""
    return build_parser()


def main(argv=None) -> int:
    """Run one subcommand; it is looked up as cmd_<name> at each call, so a
    rebinding of the module's cmd_* functions takes effect. A config command
    runs on the parsed --config, --seed set as every [sim] and [identify] seed,
    inside _output_dir(--out)."""
    try:
        args = _parser().parse_args(argv)
        logging.basicConfig(
            level=logging.WARNING if args.quiet else logging.INFO,
            format="%(levelname)s %(name)s: %(message)s",
        )
        command = globals()["cmd_" + args.command]
        if args.command in CONFIG_COMMANDS:
            sections = parse_config(args.config)
            if (seed := vars(args).get("seed")) is not None:
                for sec in sections["sim"] + sections["identify"]:
                    sec.values["seed"] = seed
            out = Path(args.out)
            with _output_dir(out):
                command(sections, out, args)
        else:
            command(args)
        return EXIT_OK
    except (ControlDesignError, IdentificationError, ModelError, SimulationError,
            ArithmeticError, np.linalg.LinAlgError) as exc:
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
