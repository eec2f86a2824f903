"""Deterministic closed-loop simulation: exact ZOH plant integration, sensor
models, attack injection, load signals, tie-line switching, and the resilient
control orchestration (detect, then correct locally or collaboratively).

One scenario is one sequential loop over control instants; the plant is
integrated between instants at a finer substep with all inputs held constant
over each substep. Every run has one world plant: the grid plants side by side
(block-diagonal) until the tie closes, the merged network's plant after, so
all grids are measured and stepped together through one path. Identical
scenario and seeds give bit-identical logs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import defaults
from .lqr import (
    ControllerGain,
    CostWeights,
    ObserverState,
    control_decentralized,
    control_observer,
    control_optimal,
    control_pi_baseline,
    lqr_gain,
    observer_update,
)
from .netmodel import (
    IbrParams,
    LinearPlant,
    ModelError,
    NetworkSpec,
    assemble_plant,
    build_sensitivity,
    solve_operating_point,
)
from .sysid import DiscreteModel
from .transform import ZAccumulator, make_transform, z_update
from .watermark import (
    BaselineStats,
    DetectorState,
    WatermarkConfig,
    WatermarkSource,
    dw_step,
)

log = logging.getLogger(__name__)

CONTROLLERS = ("optimal-z", "decentralized", "observer", "pi", "slow-lqr", "none")


class ScenarioError(ValueError):
    """Raised for inconsistent scenario definitions."""


class SimulationError(RuntimeError):
    """Raised when a run aborts; carries the position in the event timeline."""


# ---------------------------------------------------------------------------
# scenario data


@dataclass(frozen=True)
class LoadSignalSpec:
    """Deterministic load-deviation signal attached to one load node."""

    kind: str
    amplitude: float
    load_index: int = 0
    period: float = defaults.LOAD_PULSE_PERIOD
    width: float = defaults.LOAD_PULSE_WIDTH
    step_time: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "step", "periodic-pulse"):
            raise ScenarioError(f"unknown load signal kind {self.kind!r}")
        if self.kind == "periodic-pulse" and not self.period > self.width:
            raise ScenarioError("pulse period must exceed pulse width")


@dataclass(frozen=True)
class AttackSpec:
    """False data injection on a subset of received power channels."""

    kind: str
    channels: tuple[int, ...]
    start: float
    end: float
    noise_std: float = 0.0
    replay_from: float = 0.0
    replay_to: float = 0.0
    grid: int = 0

    def __post_init__(self):
        if self.kind not in ("noise-injection", "replay"):
            raise ScenarioError(f"unknown attack kind {self.kind!r}")
        if not self.start < self.end:
            raise ScenarioError("attack start must precede end")
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if self.kind == "replay":
            if not self.replay_from < self.replay_to:
                raise ScenarioError("replay source window is empty")
            if self.replay_to > self.start:
                raise ScenarioError("replay source window must precede the attack")


@dataclass(frozen=True)
class TieSpec:
    """Switchable branch between a node of grid 0 and a node of grid 1."""

    node_a: int
    node_b: int
    y_mag: float = defaults.TIE_ADMITTANCE
    theta: float = defaults.BRANCH_THETA


@dataclass(frozen=True)
class Event:
    """Timed action: controller toggles, observer handover, or tie close."""

    time: float
    action: str
    grid: int = 0

    def __post_init__(self):
        if self.action not in (
            "controller_on", "controller_off", "observer_on", "tie_close"
        ):
            raise ScenarioError(f"unknown event action {self.action!r}")


@dataclass(frozen=True)
class DetectorSetup:
    """Trained detection bundle: prediction model, baseline, thresholds, watermark."""

    model: DiscreteModel
    baseline: BaselineStats
    eps1: float
    eps2: float
    watermark: WatermarkConfig
    window: int = defaults.DETECTOR_WINDOW


@dataclass(frozen=True)
class GridSpec:
    """One microgrid: physics, nominal injections, controller, detection."""

    network: NetworkSpec
    ibrs: tuple[IbrParams, ...]
    p_injections: np.ndarray
    controller: str = "optimal-z"
    weights: CostWeights | None = None
    load_signals: tuple[LoadSignalSpec, ...] = ()
    detector: DetectorSetup | None = None
    pi_kp: float = defaults.PI_KP
    pi_ki: float = defaults.PI_KI
    sensor_tau: float = defaults.SENSOR_LAG_TAU
    slow_hold: float = defaults.SLOW_LQR_HOLD
    u_max: float = defaults.COMMAND_LIMIT

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ScenarioError(f"unknown controller {self.controller!r}")
        object.__setattr__(self, "ibrs", tuple(self.ibrs))
        object.__setattr__(self, "load_signals", tuple(self.load_signals))
        object.__setattr__(self, "p_injections",
                           np.array(self.p_injections, dtype=float))
        n = self.network.n_ibr
        if len(self.ibrs) != n:
            raise ScenarioError(
                f"{len(self.ibrs)} IBR parameter sets for {n} IBR nodes"
            )
        if self.p_injections.shape != (self.network.n_nodes,):
            raise ScenarioError(
                f"p_injections needs {self.network.n_nodes} entries, "
                f"got {self.p_injections.shape}"
            )
        if self.weights is not None and self.weights.q.shape != (n,):
            raise ScenarioError(
                f"cost weights sized {self.weights.q.shape} for {n} IBRs"
            )
        for sig in self.load_signals:
            if not 0 <= sig.load_index < self.network.n_load:
                raise ScenarioError(
                    f"load signal targets node {sig.load_index} but grid has "
                    f"{self.network.n_load} loads"
                )


@dataclass(frozen=True)
class Scenario:
    """Complete description of one deterministic run."""

    grids: tuple[GridSpec, ...]
    horizon: float
    control_period: float = defaults.CONTROL_PERIOD
    integrator_step: float = defaults.INTEGRATOR_STEP
    tie: TieSpec | None = None
    events: tuple[Event, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    auto_response: str = "none"
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "grids", tuple(self.grids))
        object.__setattr__(self, "events", tuple(self.events))
        object.__setattr__(self, "attacks", tuple(self.attacks))
        if not self.grids:
            raise ScenarioError("scenario needs at least one microgrid")
        if self.auto_response not in ("none", "observer", "collaborative"):
            raise ScenarioError(f"unknown auto response {self.auto_response!r}")
        ratio = self.control_period / self.integrator_step
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ScenarioError(
                "control period must be an integer multiple of the integrator step"
            )
        if self.tie is not None:
            if len(self.grids) != 2:
                raise ScenarioError(
                    f"a tie needs exactly two grids, scenario has {len(self.grids)}"
                )
            for k, node in enumerate((self.tie.node_a, self.tie.node_b)):
                if not 0 <= node < self.grids[k].network.n_nodes:
                    raise ScenarioError(
                        f"tie endpoint {node} is not a node of grid {k + 1}"
                    )
        for ev in self.events:
            if ev.action == "tie_close" and self.tie is None:
                raise ScenarioError("tie_close event without a tie specification")
            if ev.action != "tie_close" and not 0 <= ev.grid < len(self.grids):
                raise ScenarioError(f"event targets unknown grid {ev.grid}")
        for atk in self.attacks:
            if not 0 <= atk.grid < len(self.grids):
                raise ScenarioError(f"attack targets unknown grid {atk.grid}")
            n = self.grids[atk.grid].network.n_ibr
            if any(not 0 <= c < n for c in atk.channels):
                raise ScenarioError("attack channel out of range")


# ---------------------------------------------------------------------------
# elemental operations


class ZohStepper:
    """Exact zero-order-hold discretization of one plant at step h."""

    def __init__(self, plant: LinearPlant, h: float):
        if h <= 0.0:
            raise ValueError("step must be positive")
        n = plant.n_states
        b_all = np.hstack([plant.b1, plant.f])
        aug = np.zeros((n + b_all.shape[1], n + b_all.shape[1]))
        aug[:n, :n] = plant.a
        aug[:n, n:] = b_all
        phi = scipy.linalg.expm(aug * h)
        self.h = h
        self.a_d = phi[:n, :n]
        self.b_d = phi[:n, n:]
        self._n_u = plant.b1.shape[1]

    def step(self, x: np.ndarray, d_omega_s: np.ndarray, d_p_l: np.ndarray) -> np.ndarray:
        u = np.concatenate([d_omega_s, d_p_l])
        return self.a_d @ x + self.b_d @ u


def measure_power(plant: LinearPlant, x: np.ndarray, d_p_l: np.ndarray) -> np.ndarray:
    """Instantaneous true power deviation at the IBR nodes."""
    return plant.h_red @ (plant.e @ np.asarray(x, float)) + plant.f_map @ np.asarray(
        d_p_l, float
    )


def measure_frequency_lagged(
    true_omega: np.ndarray, sensor_state: np.ndarray, tau: float, h: float
) -> np.ndarray:
    """First-order-lag frequency sensor advanced by h with the input held.

    Returns the new sensor output; exact update y+ = w + (y - w) exp(-h/tau).
    """
    w = np.asarray(true_omega, dtype=float)
    y = np.asarray(sensor_state, dtype=float)
    return w + (y - w) * math.exp(-h / tau)


def load_signal(spec: LoadSignalSpec, t: float) -> float:
    """Evaluate one load signal at time t (W)."""
    if spec.kind == "constant":
        return spec.amplitude
    if spec.kind == "step":
        return spec.amplitude if t >= spec.step_time else 0.0
    phase = t / spec.period
    frac = phase - math.floor(phase)
    return spec.amplitude if frac * spec.period < spec.width else 0.0


def load_vector(signals, t: float, n_load: int) -> np.ndarray:
    """Sum all load signals into the load-deviation vector."""
    out = np.zeros(n_load)
    for sig in signals:
        out[sig.load_index] += load_signal(sig, t)
    return out


def apply_attack(
    true_meas: np.ndarray,
    spec: AttackSpec,
    t: float,
    history: np.ndarray,
    dt: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Corrupt the received measurement inside the attack window.

    Noise injection adds i.i.d. Gaussian noise on the target channels; replay
    substitutes the recorded source window cyclically, bit for bit.
    """
    received = np.array(true_meas, dtype=float)
    if not spec.start <= t < spec.end:
        return received
    if spec.kind == "noise-injection":
        for c in spec.channels:
            received[c] += rng.normal(0.0, spec.noise_std)
        return received
    src_start = int(round(spec.replay_from / dt))
    src_len = max(1, int(round((spec.replay_to - spec.replay_from) / dt)))
    k_rel = int(round((t - spec.start) / dt))
    idx = src_start + (k_rel % src_len)
    for c in spec.channels:
        received[c] = history[idx, c]
    return received


def close_tie_line(
    net_a: NetworkSpec, net_b: NetworkSpec, tie: TieSpec
) -> tuple[NetworkSpec, np.ndarray, np.ndarray]:
    """Merge two grids through the tie branch.

    Node ordering of the merged grid: A IBRs, B IBRs, A loads, B loads.
    Returns the merged spec and the old-to-new index maps for each grid.
    """
    na, ma = net_a.n_ibr, net_a.n_load
    nb, mb = net_b.n_ibr, net_b.n_load
    if not 0 <= tie.node_a < na + ma:
        raise ScenarioError(f"tie endpoint {tie.node_a} not in grid A")
    if not 0 <= tie.node_b < nb + mb:
        raise ScenarioError(f"tie endpoint {tie.node_b} not in grid B")
    map_a = np.array([i if i < na else na + nb + (i - na) for i in range(na + ma)])
    map_b = np.array(
        [na + i if i < nb else na + nb + ma + (i - nb) for i in range(nb + mb)]
    )
    n_tot = na + nb + ma + mb
    y_mag = np.zeros((n_tot, n_tot))
    y_ang = np.zeros((n_tot, n_tot))
    g_self = np.zeros(n_tot)
    v_star = np.zeros(n_tot)
    y_mag[np.ix_(map_a, map_a)] = net_a.y_mag
    y_ang[np.ix_(map_a, map_a)] = net_a.y_ang
    y_mag[np.ix_(map_b, map_b)] = net_b.y_mag
    y_ang[np.ix_(map_b, map_b)] = net_b.y_ang
    g_self[map_a] = net_a.g_self
    g_self[map_b] = net_b.g_self
    v_star[map_a] = net_a.v_star
    v_star[map_b] = net_b.v_star
    ia, ib = map_a[tie.node_a], map_b[tie.node_b]
    y_mag[ia, ib] = y_mag[ib, ia] = tie.y_mag
    y_ang[ia, ib] = y_ang[ib, ia] = tie.theta
    merged = NetworkSpec(
        n_ibr=na + nb, n_load=ma + mb, y_mag=y_mag, y_ang=y_ang,
        g_self=g_self, v_star=v_star,
    )
    return merged, map_a, map_b


# ---------------------------------------------------------------------------
# time series container


@dataclass
class TimeSeries:
    """Uniformly sampled run log with a fixed column schema."""

    time: np.ndarray
    columns: dict[str, np.ndarray]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @property
    def names(self) -> list[str]:
        return list(self.columns)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(["t"] + self.names) + "\n")
            cols = list(self.columns.values())
            for k in range(self.time.shape[0]):
                parts = [f"{self.time[k]:.9g}"]
                for col in cols:
                    v = col[k]
                    if isinstance(v, str):
                        parts.append(v)
                    elif isinstance(v, (np.integer, int)):
                        parts.append(str(int(v)))
                    else:
                        parts.append(f"{v:.9g}")
                fh.write(",".join(parts) + "\n")

    def window(self, name: str, t0: float | None = None,
               t1: float | None = None) -> np.ndarray:
        """Column values restricted to t0 <= t < t1."""
        mask = np.ones_like(self.time, dtype=bool)
        if t0 is not None:
            mask &= self.time >= t0
        if t1 is not None:
            mask &= self.time < t1
        return self.columns[name][mask]


def rms(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(values**2))) if values.size else 0.0


# ---------------------------------------------------------------------------
# runtime state per microgrid


class _GridRuntime:
    def __init__(self, spec: GridSpec, scenario: Scenario, gi: int):
        self.spec = spec
        self.gi = gi
        self.n = spec.network.n_ibr
        self.m = spec.network.n_load
        self.op = solve_operating_point(spec.network, spec.p_injections)
        self.plant = assemble_plant(spec.ibrs, build_sensitivity(spec.network, self.op))
        self.controller = spec.controller
        self.enabled = spec.controller != "none"
        needs_gain = spec.controller in ("optimal-z", "observer", "slow-lqr")
        self.gain: ControllerGain | None = None
        if needs_gain or spec.detector is not None:
            weights = spec.weights or CostWeights.uniform(self.n)
            self.gain = lqr_gain(self.plant, weights, make_transform(spec.ibrs))
        self.z = ZAccumulator.zeros(self.n)
        self.obs: ObserverState | None = None
        if spec.controller == "observer":
            if spec.detector is None:
                raise ScenarioError("observer controller needs a detector model")
            self.obs = ObserverState(
                x_hat=np.zeros(spec.detector.model.order), z_hat=np.zeros(self.n)
            )
        self.pi_integ = np.zeros(self.n)
        self.sensor_y = np.zeros(self.n)
        self.slow_steps = max(1, int(round(spec.slow_hold / scenario.control_period)))
        self.u_cmd = np.zeros(self.n)
        self.u_prev_cmd = np.zeros(self.n)
        self.e_prev = np.zeros(self.n)
        self.u_prev_applied = np.zeros(self.n)
        self.y_rx_prev = np.zeros(self.n)
        self.obs_fresh = False
        self.det_state: DetectorState | None = None
        self.wm_source: WatermarkSource | None = None
        self.wm_active = False
        if spec.detector is not None:
            det = spec.detector
            self.det_state = DetectorState(
                w=det.window, n=self.n, x_hat=np.zeros(det.model.order),
                eps1=det.eps1, eps2=det.eps2,
            )
            self.wm_source = WatermarkSource(det.watermark)
            self.wm_active = True
        self.responded = False
        self.history_true: np.ndarray | None = None


def _side_by_side(plants: list[LinearPlant]) -> LinearPlant:
    """Uncoupled grid plants as one block-diagonal plant; one grid is itself."""
    if len(plants) == 1:
        return plants[0]
    blocks = {name: scipy.linalg.block_diag(*(getattr(p, name) for p in plants))
              for name in ("a", "b1", "b2", "f", "e", "h_red", "f_map")}
    return LinearPlant(**blocks, ibrs=sum((p.ibrs for p in plants), ()))


class _World:
    """The one plant all grids of a run live in, stepped and measured whole.

    Until the tie closes it is the grid plants side by side; closing the tie
    replaces it in place with the merged network's plant. Both order the nodes
    as every grid's IBRs, then every grid's loads, so grid gi owns the state
    slice states[gi] and the IBR channel slice channels[gi] for the whole run.
    """

    def __init__(self, rts: list[_GridRuntime], h: float):
        self.rts = rts
        self.h = h
        self.plant = _side_by_side([rt.plant for rt in rts])
        self.stepper = ZohStepper(self.plant, h)
        self.x = np.zeros(self.plant.n_states)
        self.tied = False
        self.states: list[slice] = []
        self.channels: list[slice] = []
        signals: list[LoadSignalSpec] = []
        n0 = m0 = 0
        for rt in rts:
            self.states.append(slice(2 * n0, 2 * (n0 + rt.n)))
            self.channels.append(slice(n0, n0 + rt.n))
            signals += [replace(sig, load_index=m0 + sig.load_index)
                        for sig in rt.spec.load_signals]
            n0, m0 = n0 + rt.n, m0 + rt.m
        self.signals = tuple(signals)

    def load_deviation(self, t: float) -> np.ndarray:
        return load_vector(self.signals, t, self.plant.n_load)

    def close_tie(self, tie: TieSpec, t: float) -> None:
        """Network the two grids through the tie. Grid B's angles shift so the
        tie carries zero deviation flow at the closing instant (ideal
        synchronized close)."""
        a, b = self.rts
        network, map_a, map_b = close_tie_line(a.spec.network, b.spec.network, tie)
        p_inj = np.zeros(network.n_nodes)
        p_inj[map_a] = a.op.p_star
        p_inj[map_b] = b.op.p_star
        try:
            op = solve_operating_point(network, p_inj)
        except ModelError as exc:
            raise SimulationError(
                f"tie close at t={t:.4f}s: merged operating point failed: {exc}"
            ) from exc
        sens = build_sensitivity(network, op)
        d_p_l = self.load_deviation(t)
        ia, ib = map_a[tie.node_a], map_b[tie.node_b]

        def tie_angle_gap(x: np.ndarray) -> float:
            ddelta_g = x[0::2]
            ddelta_l = np.linalg.solve(sens.ll, d_p_l - sens.lg @ ddelta_g)
            full = np.concatenate([ddelta_g, ddelta_l])
            return float(full[ia] - full[ib])

        b_angles = np.arange(self.states[1].start, self.states[1].stop, 2)
        shifted = self.x.copy()
        shifted[b_angles] += 1.0
        gap0 = tie_angle_gap(self.x)
        slope = tie_angle_gap(shifted) - gap0
        gamma = 0.0
        if abs(slope) < 1e-12:
            log.warning("tie close: degenerate gauge condition, closing as-is")
        else:
            gamma = -gap0 / slope
        self.x[b_angles] += gamma
        self.plant = assemble_plant(a.spec.ibrs + b.spec.ibrs, sens)
        self.stepper = ZohStepper(self.plant, self.h)
        self.tied = True


# ---------------------------------------------------------------------------
# the orchestration loop


def run_scenario(scenario: Scenario) -> TimeSeries:
    """Execute the scenario at the control period and return the full log.

    Per control instant: fire due events, measure true powers, corrupt the
    received copies per the active attacks, step each enabled detector, apply
    the auto response when a flag first rises, update the active control law,
    superpose the watermark, then integrate the plant to the next instant.
    """
    dt_c = scenario.control_period
    h = scenario.integrator_step
    n_sub = int(round(dt_c / h))
    n_steps = int(round(scenario.horizon / dt_c))
    rts = [_GridRuntime(g, scenario, gi) for gi, g in enumerate(scenario.grids)]
    for rt in rts:
        rt.history_true = np.zeros((n_steps, rt.n))
    world = _World(rts, h)

    events = sorted(scenario.events, key=lambda e: e.time)
    fired = [False] * len(events)
    atk_rngs = [
        np.random.default_rng([scenario.seed, 101, j])
        for j, _ in enumerate(scenario.attacks)
    ]

    cols = _allocate_columns(rts, n_steps)
    time_axis = np.arange(n_steps) * dt_c

    for rho in range(n_steps):
        t = rho * dt_c

        # events due now (scripted)
        for j, ev in enumerate(events):
            if not fired[j] and ev.time <= t + 1e-12:
                fired[j] = True
                _apply_event(ev, scenario, rts, world, t)

        # true measurements
        y_all = measure_power(world.plant, world.x, world.load_deviation(t))
        y_true = [y_all[ch] for ch in world.channels]
        for gi, rt in enumerate(rts):
            rt.history_true[rho] = y_true[gi]

        # received measurements (attacks)
        y_rx = [y.copy() for y in y_true]
        for j, atk in enumerate(scenario.attacks):
            y_rx[atk.grid] = apply_attack(
                y_rx[atk.grid], atk, t, rts[atk.grid].history_true, dt_c, atk_rngs[j]
            )

        # detection and auto response
        for gi, rt in enumerate(rts):
            if rt.det_state is None:
                continue
            det = rt.spec.detector
            flag, _ = dw_step(
                rt.det_state, det.baseline, det.model, y_rx[gi],
                rt.u_prev_cmd, rt.e_prev,
            )
            if flag and not rt.responded and scenario.auto_response != "none":
                rt.responded = True
                if scenario.auto_response == "observer" or scenario.tie is None:
                    rt.controller = "observer"
                    rt.obs = ObserverState(
                        x_hat=rt.det_state.x_hat.copy(), z_hat=rt.z.z.copy()
                    )
                    rt.obs_fresh = True
                    rt.wm_active = False
                    log.info("grid %d: flag at t=%.4fs, observer law engaged", gi, t)
                else:
                    rt.controller = "none"
                    rt.enabled = False
                    rt.wm_active = False
                    _apply_event(Event(time=t, action="tie_close"), scenario, rts,
                                 world, t)
                    log.info("grid %d: flag at t=%.4fs, networking with neighbor", gi, t)

        # control laws, watermark and applied commands
        u_applied = []
        e_applied = []
        for gi, rt in enumerate(rts):
            x_grid = world.x[world.states[gi]]
            _update_controller(rt, x_grid, y_rx[gi], rho, dt_c)
            if rt.wm_active and rt.wm_source is not None and rt.enabled:
                e_now = rt.wm_source.draw()
            else:
                e_now = np.zeros(rt.n)
            u_applied.append(rt.u_cmd + e_now)
            e_applied.append(e_now)
            _log_step(cols, rho, gi, rt, x_grid, y_true[gi], y_rx[gi], e_now)

        # integrate to the next control instant
        x = world.x
        u_all = np.concatenate(u_applied)
        for s in range(n_sub):
            x = world.stepper.step(x, u_all, world.load_deviation(t + s * h))
        world.x = x

        for gi, rt in enumerate(rts):
            rt.u_prev_cmd = rt.u_cmd
            rt.e_prev = e_applied[gi]
            rt.u_prev_applied = u_applied[gi]
            rt.y_rx_prev = y_rx[gi]

    return _finalize_columns(cols, time_axis, rts)


def _update_controller(rt: _GridRuntime, x: np.ndarray, y_rx: np.ndarray, rho: int,
                       dt_c: float) -> None:
    law = rt.controller if rt.enabled else "none"
    if law in ("optimal-z", "decentralized"):
        if rho > 0:
            rt.z = z_update(rt.z, rt.u_prev_applied, rt.y_rx_prev, dt_c, rt.spec.ibrs)
    if law == "none":
        rt.u_cmd = np.zeros(rt.n)
    elif law == "optimal-z":
        rt.u_cmd = control_optimal(rt.gain, rt.z.z)
    elif law == "decentralized":
        rt.u_cmd = control_decentralized(rt.spec.ibrs, y_rx)
    elif law == "observer":
        if rho > 0 and not rt.obs_fresh:
            observer_update(rt.obs, rt.spec.detector.model, rt.spec.ibrs,
                            rt.u_prev_applied, dt_c)
        rt.obs_fresh = False
        rt.u_cmd = control_observer(rt.gain, rt.obs)
    elif law == "pi":
        rt.sensor_y = measure_frequency_lagged(
            x[1::2], rt.sensor_y, rt.spec.sensor_tau, dt_c
        )
        rt.u_cmd, rt.pi_integ = control_pi_baseline(
            rt.spec.pi_kp, rt.spec.pi_ki, rt.sensor_y, dt_c, rt.pi_integ
        )
    elif law == "slow-lqr":
        if rho % rt.slow_steps == 0:
            if rho > 0:
                rt.z = z_update(
                    rt.z, rt.u_prev_applied, y_rx, rt.slow_steps * dt_c, rt.spec.ibrs
                )
            rt.u_cmd = control_optimal(rt.gain, rt.z.z)
    # inverter setpoints saturate; keeps mis-tuned laws bounded as hardware would
    rt.u_cmd = np.clip(rt.u_cmd, -rt.spec.u_max, rt.spec.u_max)


def _apply_event(ev: Event, scenario: Scenario, rts: list[_GridRuntime],
                 world: _World, t: float) -> None:
    if ev.action == "controller_on":
        rts[ev.grid].enabled = True
    elif ev.action == "controller_off":
        rts[ev.grid].enabled = False
        rts[ev.grid].u_cmd = np.zeros(rts[ev.grid].n)
    elif ev.action == "observer_on":
        rt = rts[ev.grid]
        if rt.spec.detector is None:
            raise SimulationError(
                f"observer_on at t={t:.4f}s: grid {ev.grid} has no detector model"
            )
        rt.controller = "observer"
        rt.enabled = True
        # events fire before this step's detector update, so the copied
        # prediction state is one interval behind and must advance once
        x_hat = (rt.det_state.x_hat.copy() if rt.det_state is not None
                 else np.zeros(rt.spec.detector.model.order))
        rt.obs = ObserverState(x_hat=x_hat, z_hat=rt.z.z.copy())
        rt.obs_fresh = False
        rt.wm_active = False
    elif world.tied:
        log.warning("tie already closed; ignoring tie_close at t=%.4fs", t)
    else:
        world.close_tie(scenario.tie, t)
        for rt in rts:
            if rt.det_state is not None:
                rt.wm_active = False
                rt.det_state = None
                log.info("grid %d: detector retired after topology change", rt.gi)


def _allocate_columns(rts, n_steps: int) -> dict[str, np.ndarray]:
    cols: dict[str, np.ndarray] = {}
    for gi, rt in enumerate(rts):
        p = f"mg{gi + 1}"
        for name in ("ddelta", "domega", "pg", "pg_rx", "dws", "wm", "z", "zhat"):
            cols[f"{p}_{name}"] = np.zeros((n_steps, rt.n))
        cols[f"{p}_xi1"] = np.zeros(n_steps)
        cols[f"{p}_xi2"] = np.zeros(n_steps)
        cols[f"{p}_flag"] = np.zeros(n_steps, dtype=int)
        cols[f"{p}_ctrl"] = np.empty(n_steps, dtype=object)
    return cols


def _log_step(cols, rho: int, gi: int, rt: _GridRuntime, x, y_true, y_rx,
              e_now) -> None:
    p = f"mg{gi + 1}"
    cols[f"{p}_ddelta"][rho] = x[0::2]
    cols[f"{p}_domega"][rho] = x[1::2]
    cols[f"{p}_pg"][rho] = y_true
    cols[f"{p}_pg_rx"][rho] = y_rx
    cols[f"{p}_dws"][rho] = rt.u_cmd
    cols[f"{p}_wm"][rho] = e_now
    cols[f"{p}_z"][rho] = rt.z.z
    cols[f"{p}_zhat"][rho] = rt.obs.z_hat if rt.obs is not None else np.zeros(rt.n)
    if rt.det_state is not None:
        cols[f"{p}_xi1"][rho] = rt.det_state.xi1
        cols[f"{p}_xi2"][rho] = rt.det_state.xi2
        cols[f"{p}_flag"][rho] = int(rt.det_state.flag)
    cols[f"{p}_ctrl"][rho] = rt.controller if rt.enabled else "off"


def _finalize_columns(cols, time_axis, rts) -> TimeSeries:
    out: dict[str, np.ndarray] = {}
    for gi, rt in enumerate(rts):
        p = f"mg{gi + 1}"
        for name in ("ddelta", "domega", "pg", "pg_rx", "dws", "wm", "z", "zhat"):
            block = cols[f"{p}_{name}"]
            for i in range(rt.n):
                out[f"{p}_{name}_{i + 1}"] = block[:, i]
        out[f"{p}_xi1"] = cols[f"{p}_xi1"]
        out[f"{p}_xi2"] = cols[f"{p}_xi2"]
        out[f"{p}_flag"] = cols[f"{p}_flag"]
        out[f"{p}_ctrl"] = cols[f"{p}_ctrl"]
    return TimeSeries(time=time_axis, columns=out)


def summarize(ts: TimeSeries, scenario: Scenario) -> str:
    """Structured text report: RMS and steady-state deviations, detection latency."""
    lines = ["run summary", "==========="]
    horizon = scenario.horizon
    tail = 0.95 * horizon
    for gi, g in enumerate(scenario.grids):
        p = f"mg{gi + 1}"
        lines.append(f"[grid {gi + 1}]")
        for i in range(g.network.n_ibr):
            w = ts[f"{p}_domega_{i + 1}"]
            ss = ts.window(f"{p}_domega_{i + 1}", t0=tail)
            lines.append(
                f"node {i + 1}: rms_domega_rad_s = {rms(w):.6g}  "
                f"steady_abs_domega_rad_s = {np.mean(np.abs(ss)):.6g}"
            )
        flags = ts[f"{p}_flag"]
        for atk in scenario.attacks:
            if atk.grid != gi:
                continue
            after = (ts.time >= atk.start) & (flags > 0)
            latency = (
                f"{ts.time[after][0] - atk.start:.6g}" if np.any(after) else "none"
            )
            lines.append(
                f"attack {atk.kind} at {atk.start:.6g}s: detection_latency_s = {latency}"
            )
    return "\n".join(lines) + "\n"
