"""Command-line front end: scenario simulation, identification, detector
calibration, and offline detection from recorded traces.

Subcommands: simulate | identify | calibrate | detect | plot | version.
Exit codes: 0 success, 1 usage/config error, 2 numerical/design failure,
3 I/O error.

Scenario files are structured text: `key = value` lines grouped under
`[section]` headers; keys may repeat (e.g. `branch`), values are scalars,
words, or whitespace-separated lists. Grids are numbered from 1; node and
channel indices are 0-based within each grid. See configs/ for worked
fixtures of the two-microgrid experiments.
"""

from __future__ import annotations

import argparse
import logging
import sys
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
    run_scenario,
    summarize,
)
from .sysid import (
    BlockFile,
    ConfigError,
    ExcitationSpec,
    IdentificationError,
    load_model,
    load_records,
    save_model,
    save_records,
    select_order,
)
from .watermark import (
    BaselineStats,
    DetectorState,
    WatermarkConfig,
    calibrate_baseline,
    calibrate_thresholds,
    dw_step,
    window_statistics,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# config parsing


class Section:
    def __init__(self, name: str, lineno: int):
        self.name = name
        self.lineno = lineno
        self.items: list[tuple[str, str, int]] = []

    def get(self, key: str, default=None) -> str | None:
        for k, v, _ in self.items:
            if k == key:
                return v
        return default

    def require(self, key: str) -> str:
        v = self.get(key)
        if v is None:
            raise ConfigError(f"section [{self.name}] is missing key {key!r}")
        return v

    def get_all(self, key: str) -> list[str]:
        return [v for k, v, _ in self.items if k == key]


def parse_config(path) -> list[Section]:
    """Parse the structured text config into an ordered section list."""
    sections: list[Section] = [Section("", 0)]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append(Section(line[1:-1].strip(), lineno))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        sections[-1].items.append((key.strip(), value.strip(), lineno))
    version = sections[0].get("schema_version")
    if version is None:
        raise ConfigError(f"{path}: missing schema_version")
    if version.strip() != "1":
        raise ConfigError(f"{path}: unsupported schema_version {version}")
    return sections


def _floats(text: str) -> list[float]:
    return [float(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _per_ibr(sec: Section, key: str, n: int, default: float) -> np.ndarray:
    raw = sec.get(key)
    if raw is None:
        return np.full(n, default)
    vals = _floats(raw)
    if len(vals) == 1:
        return np.full(n, vals[0])
    if len(vals) != n:
        raise ConfigError(
            f"section [{sec.name}]: {key} needs 1 or {n} values, got {len(vals)}"
        )
    return np.array(vals)


def _find_sections(sections: list[Section], name: str) -> list[Section]:
    return [s for s in sections if s.name == name or s.name.startswith(name + ".")]


def _first_section(sections: list[Section], name: str) -> Section:
    found = _find_sections(sections, name)
    if not found:
        raise ConfigError(f"config has no [{name}] section")
    return found[0]


def _build_network(sec: Section) -> tuple[NetworkSpec, np.ndarray]:
    n_ibr = int(sec.require("n_ibr"))
    n_load = int(sec.require("n_load"))
    v_star = _per_ibr(sec, "v_star", n_ibr + n_load, defaults.V_STAR)
    branches = []
    for raw in sec.get_all("branch"):
        vals = _floats(raw)
        if len(vals) not in (3, 4):
            raise ConfigError(
                f"section [{sec.name}]: branch needs 'from to admittance [theta]'"
            )
        branches.append((int(vals[0]), int(vals[1]), *vals[2:]))
    if not branches:
        raise ConfigError(f"section [{sec.name}] defines no branches")
    network = NetworkSpec.from_branches(
        n_ibr=n_ibr, n_load=n_load, branches=branches, v_star=v_star
    )
    loads = _floats(sec.require("load_w"))
    if len(loads) != n_load:
        raise ConfigError(
            f"section [{sec.name}]: load_w needs {n_load} values, got {len(loads)}"
        )
    share = sum(loads) / n_ibr
    p_inj = np.concatenate([np.full(n_ibr, share), -np.array(loads)])
    return network, p_inj


def _watermark(sec: Section, n: int, default_seed: int) -> WatermarkConfig:
    return WatermarkConfig.isotropic(float(sec.get("watermark_std", defaults.WATERMARK_STD)),
                                     n, seed=int(sec.get("watermark_seed", default_seed)))


def _build_detector(sec: Section, n: int, base_dir: Path) -> DetectorSetup | None:
    model_file = sec.get("model_file")
    baseline_file = sec.get("baseline_file")
    if model_file is None and baseline_file is None:
        return None
    if model_file is None or baseline_file is None:
        raise ConfigError(
            f"section [{sec.name}]: detector needs both model_file and baseline_file"
        )
    model = load_model(base_dir / model_file)
    baseline, eps1, eps2 = load_baseline(base_dir / baseline_file)
    return DetectorSetup(
        model=model, baseline=baseline, eps1=eps1, eps2=eps2,
        watermark=_watermark(sec, n, default_seed=0),
        window=baseline.w,
    )


def _build_grid(sec: Section, sections: list[Section], base_dir: Path,
                with_detector: bool = True) -> GridSpec:
    network, p_inj = _build_network(sec)
    n = network.n_ibr
    omega_c = _per_ibr(sec, "omega_c", n, defaults.OMEGA_C)
    m_p = _per_ibr(sec, "m_p", n, defaults.M_P)
    share = p_inj[0]
    ibrs = tuple(
        IbrParams(omega_c=float(omega_c[i]), m_p=float(m_p[i]), p_g_star=float(share))
        for i in range(n)
    )
    q = _per_ibr(sec, "q_weight", n, defaults.LQR_Q_DIAG)
    r = _per_ibr(sec, "r_weight", n, defaults.LQR_R_DIAG)
    gid = _grid_id(sec)
    signals = []
    for ls in _find_sections(sections, "load_signal"):
        if int(ls.get("grid", "1")) != gid:
            continue
        signals.append(
            LoadSignalSpec(
                kind=ls.require("kind"),
                amplitude=float(ls.require("amplitude_w")),
                load_index=int(ls.get("load_index", "0")),
                period=float(ls.get("period_s", defaults.LOAD_PULSE_PERIOD)),
                width=float(ls.get("width_s", defaults.LOAD_PULSE_WIDTH)),
                step_time=float(ls.get("step_time_s", "0.0")),
            )
        )
    detector = _build_detector(sec, n, base_dir) if with_detector else None
    return GridSpec(
        network=network,
        ibrs=ibrs,
        p_injections=p_inj,
        controller=sec.get("controller", "optimal-z"),
        weights=CostWeights(q=q, r=r),
        load_signals=tuple(signals),
        detector=detector,
        pi_kp=float(sec.get("pi_kp", defaults.PI_KP)),
        pi_ki=float(sec.get("pi_ki", defaults.PI_KI)),
        sensor_tau=float(sec.get("sensor_tau_s", defaults.SENSOR_LAG_TAU)),
        slow_hold=float(sec.get("slow_hold_s", defaults.SLOW_LQR_HOLD)),
        u_max=float(sec.get("u_max", defaults.COMMAND_LIMIT)),
    )


def _stage_grid_section(sections: list[Section], sec: Section) -> Section:
    """The [grid.N] section a stage section names by its `grid` key."""
    gid = int(sec.get("grid", "1"))
    grid_sec = next(
        (s for s in _find_sections(sections, "grid") if _grid_id(s) == gid), None
    )
    if grid_sec is None:
        raise ConfigError(f"[{sec.name}] references grid {gid} but it is not defined")
    return grid_sec


def _stage_grid(sections: list[Section], sec: Section, base_dir: Path) -> GridSpec:
    """The detector-free grid a stage section names by its `grid` key."""
    return _build_grid(_stage_grid_section(sections, sec), sections, base_dir,
                       with_detector=False)


def _grid_id(sec: Section) -> int:
    if "." in sec.name:
        return int(sec.name.split(".", 1)[1])
    return 1


def build_scenario(sections: list[Section], base_dir: Path,
                   seed_override: int | None = None,
                   with_detectors: bool = True) -> Scenario:
    sim = _first_section(sections, "sim")
    grid_secs = sorted(_find_sections(sections, "grid"), key=_grid_id)
    if not grid_secs:
        raise ConfigError("config defines no [grid.N] sections")
    grids = tuple(
        _build_grid(sec, sections, base_dir, with_detector=with_detectors)
        for sec in grid_secs
    )
    tie = None
    tie_secs = _find_sections(sections, "tie")
    if tie_secs:
        ts = tie_secs[0]
        tie = TieSpec(
            node_a=int(ts.require("node_a")),
            node_b=int(ts.require("node_b")),
            y_mag=float(ts.get("admittance_s", defaults.TIE_ADMITTANCE)),
            theta=float(ts.get("theta_rad", defaults.BRANCH_THETA)),
        )
    events = tuple(
        Event(
            time=float(ev.require("time_s")),
            action=ev.require("action"),
            grid=int(ev.get("grid", "1")) - 1,
        )
        for ev in _find_sections(sections, "event")
    )
    attacks = tuple(
        AttackSpec(
            kind=atk.require("kind"),
            channels=tuple(_ints(atk.get("channels", "0"))),
            start=float(atk.require("start_s")),
            end=float(atk.require("end_s")),
            noise_std=float(atk.get("noise_std_w", "0.0")),
            replay_from=float(atk.get("replay_from_s", "0.0")),
            replay_to=float(atk.get("replay_to_s", "0.0")),
            grid=int(atk.get("grid", "1")) - 1,
        )
        for atk in _find_sections(sections, "attack")
    )
    seed = seed_override if seed_override is not None else int(sim.get("seed", "0"))
    return Scenario(
        grids=grids,
        horizon=float(sim.require("horizon_s")),
        control_period=float(sim.get("control_period_s", defaults.CONTROL_PERIOD)),
        integrator_step=float(sim.get("integrator_step_s", defaults.INTEGRATOR_STEP)),
        tie=tie,
        events=events,
        attacks=attacks,
        auto_response=sim.get("auto_response", "none"),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# baseline persistence


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
    cols = ["t"]
    grids = []
    for gi, g in enumerate(scenario.grids):
        if g.detector is None:
            continue
        grids.append(gi)
        p = f"mg{gi + 1}"
        cols += [f"{p}_xi1", f"{p}_xi2", f"{p}_eps1", f"{p}_eps2", f"{p}_flag"]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(ts.time.shape[0]):
            parts = [f"{ts.time[k]:.9g}"]
            for gi in grids:
                p = f"mg{gi + 1}"
                det = scenario.grids[gi].detector
                parts += [
                    f"{ts[f'{p}_xi1'][k]:.9g}",
                    f"{ts[f'{p}_xi2'][k]:.9g}",
                    f"{det.eps1:.9g}",
                    f"{det.eps2:.9g}",
                    str(int(ts[f"{p}_flag"][k])),
                ]
            fh.write(",".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> int:
    sections = parse_config(args.config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    scenario = build_scenario(sections, out, seed_override=args.seed)
    ts = run_scenario(scenario)
    ts.to_csv(out / "timeseries.csv")
    write_detector_csv(ts, scenario, out / "detector.csv")
    (out / "summary.txt").write_text(summarize(ts, scenario), encoding="utf-8")
    if not args.quiet:
        print(f"wrote {out / 'timeseries.csv'}")
        print(f"wrote {out / 'detector.csv'}")
        print(f"wrote {out / 'summary.txt'}")
    return EXIT_OK


def cmd_identify(args) -> int:
    from .casestudy import identification_records

    sections = parse_config(args.config)
    out = Path(args.out)
    sec = _first_section(sections, "identify")
    grid = _stage_grid(sections, sec, out)
    out.mkdir(parents=True, exist_ok=True)

    records_file = sec.get("records_file")
    dt = float(sec.get("dt_s", defaults.CONTROL_PERIOD))
    if records_file is not None:
        t, u, y = load_records(out / records_file)
        dt = float(t[1] - t[0]) if t.shape[0] > 1 else dt
    else:
        seed = args.seed if args.seed is not None else int(sec.get("seed", "17"))
        spec = ExcitationSpec(
            dt=dt,
            dt_prime=float(sec.get("dt_prime_s", defaults.SYSID_DT_PRIME)),
            beta=float(sec.get("beta", defaults.SYSID_BETA)),
            k0=int(sec.get("k0", defaults.SYSID_K0)),
            seed=seed,
        )
        t, u, y = identification_records(grid, spec)
        save_records(out / sec.get("record_file", "sysid_records.csv"), t, u, y)
    candidates = _ints(sec.get("candidates", " ".join(map(str, defaults.ORDER_CANDIDATES))))
    report, model = select_order(u, y, candidates=candidates, dt=dt)
    save_model(model, out / sec.get("model_file", "model.txt"))
    lines = ["order selection", "==============="]
    for d in report.candidates:
        if d in report.eta:
            mark = " *" if d == report.d_star else ""
            lines.append(f"d = {d}: eta = {report.eta[d]:.9g} W/sample{mark}")
        else:
            lines.append(f"d = {d}: failed: {report.failures[d]}")
    lines.append(f"selected order = {report.d_star}")
    (out / sec.get("report_file", "order_report.txt")).write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )
    if not args.quiet:
        print(f"selected order {report.d_star}; "
              f"eta = {report.eta[report.d_star]:.6g} W/sample")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    from .casestudy import calibration_record, calibration_scenario

    sections = parse_config(args.config)
    out = Path(args.out)
    sec = _first_section(sections, "calibrate")
    horizon = float(sec.get("horizon_s", "10.0"))
    if horizon <= 0.0:
        raise ConfigError("[calibrate] horizon_s must be positive")
    window = int(sec.get("window", defaults.DETECTOR_WINDOW))
    margin = float(sec.get("margin", defaults.THRESHOLD_MARGIN))
    scenario = build_scenario(sections, out, seed_override=args.seed,
                              with_detectors=False)
    grid = _stage_grid(sections, sec, out)
    model = load_model(out / sec.require("model_file"))
    wm = _watermark(sec, grid.network.n_ibr, default_seed=29)
    ts = run_scenario(calibration_scenario(
        grid, model, wm, window, horizon=horizon, seed=scenario.seed,
        control_period=scenario.control_period, integrator_step=scenario.integrator_step,
    ))
    received, predicted = calibration_record(ts, model)
    baseline = calibrate_baseline(received, predicted, w=window)
    nu = received - predicted
    xi1, xi2 = np.transpose([window_statistics(nu[i - window : i], baseline)
                             for i in range(window, nu.shape[0] + 1)])
    eps1, eps2 = calibrate_thresholds(xi1, xi2, margin=margin)
    out.mkdir(parents=True, exist_ok=True)
    save_baseline(baseline, eps1, eps2, out / sec.get("baseline_file", "baseline.txt"))
    if not args.quiet:
        print(f"eps1 = {eps1:.6g}, eps2 = {eps2:.6g}")
    return EXIT_OK


def cmd_detect(args) -> int:
    sections = parse_config(args.config)
    out = Path(args.out)
    sec = _first_section(sections, "detect")
    gid = _grid_id(_stage_grid_section(sections, sec))
    model = load_model(out / sec.require("model_file"))
    baseline, eps1, eps2 = load_baseline(out / sec.require("baseline_file"))
    t, u, e, y = _load_trace(out / sec.require("trace_file"), gid, model.n_inputs)
    n_steps = t.shape[0]
    state = DetectorState(w=baseline.w, n=model.n_outputs,
                          x_hat=np.zeros(model.order), eps1=eps1, eps2=eps2)
    out.mkdir(parents=True, exist_ok=True)
    telemetry = out / sec.get("telemetry_file", "detector.csv")
    flags = np.zeros(n_steps, dtype=int)
    with open(telemetry, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("t,xi1,xi2,eps1,eps2,flag\n")
        for k in range(n_steps):
            u_prev = u[k - 1] if k > 0 else np.zeros(model.n_inputs)
            e_prev = e[k - 1] if k > 0 else np.zeros(model.n_inputs)
            flag, _ = dw_step(state, baseline, model, y[k], u_prev, e_prev)
            flags[k] = int(flag)
            fh.write(
                f"{t[k]:.9g},{state.xi1:.9g},{state.xi2:.9g},"
                f"{eps1:.9g},{eps2:.9g},{int(flag)}\n"
            )
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            rows = [line.strip().split(",") for line in fh if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    p = f"mg{gid}"
    try:
        it = header.index("t")
        iu = [header.index(f"{p}_dws_{i + 1}") for i in range(n)]
        ie = [header.index(f"{p}_wm_{i + 1}") for i in range(n)]
        iy = [header.index(f"{p}_pg_rx_{i + 1}") for i in range(n)]
    except ValueError as exc:
        raise ConfigError(f"{path}: missing column: {exc}") from exc
    t = np.array([float(r[it]) for r in rows])
    u = np.array([[float(r[j]) for j in iu] for r in rows])
    e = np.array([[float(r[j]) for j in ie] for r in rows])
    y = np.array([[float(r[j]) for j in iy] for r in rows])
    return t, u, e, y


def cmd_plot(args) -> int:
    out = Path(args.out)
    ts_csv = out / "timeseries.csv"
    det_csv = out / "detector.csv"
    if not ts_csv.exists():
        raise ConfigError(f"{ts_csv} not found; run simulate first")
    header = ts_csv.read_text(encoding="utf-8").splitlines()[0].split(",")
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
        dheader = det_csv.read_text(encoding="utf-8").splitlines()[0].split(",")
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
    for name, fn, needs_config in (
        ("simulate", cmd_simulate, True),
        ("identify", cmd_identify, True),
        ("calibrate", cmd_calibrate, True),
        ("detect", cmd_detect, True),
        ("plot", cmd_plot, False),
        ("version", cmd_version, False),
    ):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        if needs_config:
            p.add_argument("--config", required=True, help="scenario file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override run seed")
        p.add_argument("--quiet", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ControlDesignError, IdentificationError, ModelError,
            SimulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
