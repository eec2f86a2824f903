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
    ExcitationSpec,
    IdentificationError,
    load_model,
    load_records,
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

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


# ---------------------------------------------------------------------------
# config parsing


class Section:
    def __init__(self, name: str, lineno: int, path):
        self.name = name
        self.lineno = lineno
        self.path = path
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

    def number(self, key: str, default=None, kind=float, many: bool = False):
        """The value of key as a kind (float or int), or as a list of them when
        many (whitespace- or comma-separated). An absent key gives default, or
        is an error when default is None. A value that does not parse is a
        ConfigError naming the file, line, section and key."""
        lines = self.number_lines(key, kind)
        if not lines:
            if default is None:
                self.require(key)  # absent: raises the missing-key error
            return list(default) if many else kind(default)
        vals = lines[0]
        if many:
            return vals
        if len(vals) != 1:
            raise ConfigError(self._where(key) + f"expected one number, got {len(vals)}")
        return vals[0]

    def number_lines(self, key: str, kind=float) -> list[list]:
        """Every value of a repeatable key, each as a list of kind."""
        out = []
        for k, text, lineno in self.items:
            if k != key:
                continue
            try:
                out.append([kind(tok) for tok in text.replace(",", " ").split()])
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise ConfigError(self._where(key, lineno)
                                  + f"expected {noun}, got {text!r}") from None
        return out

    def _where(self, key: str, lineno: int | None = None) -> str:
        if lineno is None:
            lineno = next(n for k, _, n in self.items if k == key)
        return f"{self.path}: line {lineno}: [{self.name}] {key}: "


def parse_config(path) -> list[Section]:
    """Parse the structured text config into an ordered section list."""
    sections: list[Section] = [Section("", 0, path)]
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            sections.append(Section(line[1:-1].strip(), lineno, path))
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


def _per_ibr(sec: Section, key: str, n: int, default: float) -> np.ndarray:
    if sec.get(key) is None:
        return np.full(n, default)
    vals = sec.number(key, many=True)
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
    n_ibr = sec.number("n_ibr", kind=int)
    n_load = sec.number("n_load", kind=int)
    v_star = _per_ibr(sec, "v_star", n_ibr + n_load, defaults.V_STAR)
    branches = []
    for vals in sec.number_lines("branch"):
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
    loads = sec.number("load_w", many=True)
    if len(loads) != n_load:
        raise ConfigError(
            f"section [{sec.name}]: load_w needs {n_load} values, got {len(loads)}"
        )
    share = sum(loads) / n_ibr
    p_inj = np.concatenate([np.full(n_ibr, share), -np.array(loads)])
    return network, p_inj


def _watermark(sec: Section, n: int, default_seed: int) -> WatermarkConfig:
    return WatermarkConfig.isotropic(sec.number("watermark_std", defaults.WATERMARK_STD),
                                     n, seed=sec.number("watermark_seed", default_seed, int))


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
        if ls.number("grid", 1, int) != gid:
            continue
        signals.append(
            LoadSignalSpec(
                kind=ls.require("kind"),
                amplitude=ls.number("amplitude_w"),
                load_index=ls.number("load_index", 0, int),
                period=ls.number("period_s", defaults.LOAD_PULSE_PERIOD),
                width=ls.number("width_s", defaults.LOAD_PULSE_WIDTH),
                step_time=ls.number("step_time_s", 0.0),
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
        pi_kp=sec.number("pi_kp", defaults.PI_KP),
        pi_ki=sec.number("pi_ki", defaults.PI_KI),
        sensor_tau=sec.number("sensor_tau_s", defaults.SENSOR_LAG_TAU),
        slow_hold=sec.number("slow_hold_s", defaults.SLOW_LQR_HOLD),
        u_max=sec.number("u_max", defaults.COMMAND_LIMIT),
    )


def _stage_grid_section(sections: list[Section], sec: Section) -> Section:
    """The [grid.N] section a stage section names by its `grid` key."""
    gid = sec.number("grid", 1, int)
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
            node_a=ts.number("node_a", kind=int),
            node_b=ts.number("node_b", kind=int),
            y_mag=ts.number("admittance_s", defaults.TIE_ADMITTANCE),
            theta=ts.number("theta_rad", defaults.BRANCH_THETA),
        )
    events = tuple(
        Event(
            time=ev.number("time_s"),
            action=ev.require("action"),
            grid=ev.number("grid", 1, int) - 1,
        )
        for ev in _find_sections(sections, "event")
    )
    attacks = tuple(
        AttackSpec(
            kind=atk.require("kind"),
            channels=tuple(atk.number("channels", (0,), int, many=True)),
            start=atk.number("start_s"),
            end=atk.number("end_s"),
            noise_std=atk.number("noise_std_w", 0.0),
            replay_from=atk.number("replay_from_s", 0.0),
            replay_to=atk.number("replay_to_s", 0.0),
            grid=atk.number("grid", 1, int) - 1,
        )
        for atk in _find_sections(sections, "attack")
    )
    seed = seed_override if seed_override is not None else sim.number("seed", 0, int)
    return Scenario(
        grids=grids,
        horizon=sim.number("horizon_s"),
        control_period=sim.number("control_period_s", defaults.CONTROL_PERIOD),
        integrator_step=sim.number("integrator_step_s", defaults.INTEGRATOR_STEP),
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

    candidates = sec.number("candidates", defaults.ORDER_CANDIDATES, int, many=True)
    if min(candidates, default=1) < 1:
        raise ConfigError(f"[identify] candidates must be orders >= 1, got {candidates}")
    records_file = sec.get("records_file")
    dt = sec.number("dt_s", defaults.CONTROL_PERIOD)
    if records_file is not None:
        t, u, y = load_records(out / records_file)
        dt = float(t[1] - t[0]) if t.shape[0] > 1 else dt
    else:
        seed = args.seed if args.seed is not None else sec.number("seed", 17, int)
        beta = sec.number("beta", defaults.SYSID_BETA)
        k0 = sec.number("k0", defaults.SYSID_K0, int)
        # the library accepts beta = 0 (a zero record); a run would fit a zero model
        if not (np.isfinite(beta) and beta > 0.0):
            raise ConfigError(f"[identify] beta must be finite and > 0, got {beta}")
        if k0 < 1:
            raise ConfigError(f"[identify] k0 must be >= 1, got {k0}")
        spec = ExcitationSpec(
            dt=dt,
            dt_prime=sec.number("dt_prime_s", defaults.SYSID_DT_PRIME),
            beta=beta,
            k0=k0,
            seed=seed,
        )
        t, u, y = identification_records(grid, spec)
        save_records(out / sec.get("record_file", "sysid_records.csv"), t, u, y)
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
    horizon = sec.number("horizon_s", 10.0)
    if horizon <= 0.0:
        raise ConfigError("[calibrate] horizon_s must be positive")
    window = sec.number("window", defaults.DETECTOR_WINDOW, int)
    margin = sec.number("margin", defaults.THRESHOLD_MARGIN)
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
    xi = np.zeros((n_steps, 2))
    flags = np.zeros(n_steps, dtype=int)
    for k in range(n_steps):
        u_prev = u[k - 1] if k > 0 else np.zeros(model.n_inputs)
        e_prev = e[k - 1] if k > 0 else np.zeros(model.n_inputs)
        flags[k], _ = dw_step(state, baseline, model, y[k], u_prev, e_prev)
        xi[k] = state.xi1, state.xi2
    write_table(out / sec.get("telemetry_file", "detector.csv"),
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
