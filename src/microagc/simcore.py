"""Deterministic closed-loop simulation: exact ZOH plant integration, sensor
models, attack injection, load signals, tie-line switching, and the resilient
control orchestration (detect, then correct locally or collaboratively).

One scenario is one sequential loop over control instants; the plant is
integrated between instants at a finer substep with all inputs held constant
over each substep. A run of linear laws alone, with no event, attack, tie or
detector, is instead one closed-loop recursion of the same loop's one-period
map, unless a command would saturate. Every run has one world plant: the grid
plants side by side (block-diagonal) until the tie closes, the merged
network's plant after, so all grids are measured and stepped together through
one path, one block step per control period over a load schedule and its
change mask evaluated once per run. Scenario times are whole control periods
(`whole_steps`), so the schedule is step indices set before the loop, and each
grid's log is the run's record and only history. A grid's law, which advances
its z array, is bound once per law change. Identical scenario and seeds give
bit-identical logs.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import defaults
from .lqr import (
    ControllerGain,
    CostWeights,
    control_decentralized,
    control_optimal,
    control_pi_baseline,
    lqr_gain,
)
from .netmodel import (
    IbrParams,
    LinearPlant,
    ModelError,
    NetworkSpec,
    OperatingPoint,
    assemble_plant,
    build_sensitivity,
    solve_operating_point,
)
from .sysid import DiscreteModel, _recursion_rows
from .textio import write_table
from .transform import make_transform, z_update
from .watermark import (
    BaselineStats,
    DetectorState,
    WatermarkConfig,
    WatermarkSource,
    dw_step,
)

log = logging.getLogger(__name__)
# the clip ufunc np.clip ends in (numpy.core before numpy 2), called without its dispatch
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip

CONTROLLERS = ("optimal-z", "decentralized", "observer", "pi", "slow-lqr", "none")
_LINEAR_LAWS = ("optimal-z", "decentralized", "pi", "none")  # linear in the loop state, every step


class ScenarioError(ValueError):
    """Raised for inconsistent scenario definitions; field names the field at
    fault, record the Scenario's record that holds it, message the text without it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.message, self.field, self.record = message, field, None


@contextlib.contextmanager
def _record(record: str | None, field: str | None = None):
    """Name record ("grids[0]", "events[1]", "attacks[0]", "tie", or None for the
    Scenario's own fields) on a ScenarioError raised inside; one naming no field
    is of field's value, "record.field = ..."."""
    try:
        yield
    except ScenarioError as exc:
        exc.record = record
        if exc.field is None and field is not None:
            exc.field = field
            exc.args = (f"{record}.{exc.message}",) if record else exc.args
        raise


class SimulationError(RuntimeError):
    """Raised when a run aborts; carries the position in the event timeline."""


# ---------------------------------------------------------------------------
# scenario data


def whole_steps(seconds: float, step: float, what: str) -> int:
    """seconds as a whole, non-negative number of steps, the one such conversion;
    else a ScenarioError naming what and its value (relative tolerance 1e-9)."""
    ratio = seconds / step if step > 0 else math.nan
    k = round(ratio) if math.isfinite(ratio) else -1
    if k < 0 or abs(ratio - k) > 1e-9 * ratio:
        raise ScenarioError(f"{what} = {seconds} s is not a whole, non-negative "
                            f"number of {step} s steps")
    return k


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
        if not 0.0 <= self.noise_std < math.inf:
            raise ScenarioError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        object.__setattr__(self, "channels", tuple(int(c) for c in self.channels))
        if len(set(self.channels)) < len(self.channels):  # each would add its own noise draw
            raise ScenarioError(f"attack channels {self.channels} repeat a channel", "channels")
        if self.kind == "replay":
            if not self.replay_from < self.replay_to:
                raise ScenarioError("replay source window is empty")
            if self.replay_to > self.start:
                raise ScenarioError("replay source window must precede the attack")

    def check(self, grids) -> None:
        """The target grid and channels exist among grids."""
        if not 0 <= self.grid < len(grids):
            raise ScenarioError(f"attack targets unknown grid {self.grid + 1}", "grid")
        n = grids[self.grid].network.n_ibr
        for c in self.channels:
            if not 0 <= c < n:
                raise ScenarioError(f"attack channel {c} is out of range: grid "
                                    f"{self.grid + 1} has {n} IBRs", "channels")


@dataclass(frozen=True)
class TieSpec:
    """Switchable branch between a node of grid 0 and a node of grid 1."""

    node_a: int
    node_b: int
    y_mag: float = defaults.TIE_ADMITTANCE
    theta: float = defaults.BRANCH_THETA

    def check(self, networks) -> None:
        """networks are two, and each endpoint is a node of its network."""
        if len(networks) != 2:
            raise ScenarioError(f"a tie needs exactly two grids, scenario has {len(networks)}")
        for k, field in enumerate(("node_a", "node_b")):
            node = getattr(self, field)
            if not 0 <= node < networks[k].n_nodes:
                raise ScenarioError(f"tie endpoint {node} is not a node of grid {k + 1}",
                                    field)


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
    """Trained detection bundle: model, baseline (window w and thresholds), watermark."""

    model: DiscreteModel
    baseline: BaselineStats
    watermark: WatermarkConfig


@dataclass(frozen=True)
class GridSpec:
    """One microgrid: physics, loads, controller, detection."""

    network: NetworkSpec
    ibrs: tuple[IbrParams, ...]
    loads: tuple[float, ...]  # W drawn at each load node
    controller: str = "optimal-z"
    weights: CostWeights | None = None
    load_signals: tuple[LoadSignalSpec, ...] = ()
    detector: DetectorSetup | None = None

    def __post_init__(self):
        if self.controller not in CONTROLLERS:
            raise ScenarioError(f"unknown controller {self.controller!r}")
        object.__setattr__(self, "ibrs", tuple(self.ibrs))
        object.__setattr__(self, "load_signals", tuple(self.load_signals))
        object.__setattr__(self, "loads", tuple(float(p) for p in self.loads))
        n = self.network.n_ibr
        if len(self.ibrs) != n:
            raise ScenarioError(
                f"{len(self.ibrs)} IBR parameter sets for {n} IBR nodes"
            )
        if len(self.loads) != self.network.n_load:
            raise ScenarioError(f"{len(self.loads)} loads for {self.network.n_load} load nodes",
                                "loads")
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

    @property
    def p_injections(self) -> np.ndarray:
        """Nominal net injection at every node: the IBRs share the loads equally
        (node 0's share is the slack's, which the operating point sets)."""
        n = self.network.n_ibr
        return np.array([sum(self.loads) / n] * n + [-p for p in self.loads])


def grid_plant(grid: GridSpec) -> tuple[OperatingPoint, LinearPlant]:
    """grid's operating point at its nominal injections, and its plant there."""
    op = solve_operating_point(grid.network, grid.p_injections)
    return op, assemble_plant(grid.ibrs, build_sensitivity(grid.network, op))


@dataclass(frozen=True)
class Scenario:
    """Complete description of one deterministic run; the one place its rules are checked."""

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
        dt = self.control_period
        with _record(None, "control_period"):
            whole_steps(dt, self.integrator_step, "control_period")
        with _record(None, "horizon"):
            n_steps = self.n_steps

        def before_horizon(seconds: float, field: str) -> int:
            # in steps: a time that whole_steps rounds to the horizon's step is not before it
            if not (k := whole_steps(seconds, dt, field)) < n_steps:
                raise ScenarioError(f"{field} = {seconds} s is not before the horizon, "
                                    f"{self.horizon} s")
            return k

        for gi, g in enumerate(self.grids):
            with _record(f"grids[{gi}]", "controller"):  # the slow-lqr law's fixed hold
                if g.controller == "slow-lqr":
                    whole_steps(defaults.SLOW_LQR_HOLD, dt, "slow_hold")
                if g.controller == "observer" and g.detector is None:
                    raise ScenarioError("the observer controller needs a detector "
                                        "(model_file and baseline_file)", "controller")
        if self.tie is not None:
            with _record("tie"):
                self.tie.check([g.network for g in self.grids])
        for i, ev in enumerate(self.events):
            with _record(f"events[{i}]", "time"):
                before_horizon(ev.time, "time")
                if ev.action == "tie_close" and self.tie is None:
                    raise ScenarioError("tie_close event without a tie specification", "action")
                if ev.action != "tie_close" and not 0 <= ev.grid < len(self.grids):
                    raise ScenarioError(f"event targets unknown grid {ev.grid + 1}", "grid")
                if ev.action == "observer_on" and self.grids[ev.grid].detector is None:
                    raise ScenarioError(f"grid {ev.grid + 1} has no detector "
                                        "(model_file and baseline_file)", "action")
        for i, atk in enumerate(self.attacks):
            with _record(f"attacks[{i}]", "start"):
                steps = [before_horizon(atk.start, "start")]
                atk.check(self.grids)
            for name in ("end", "replay_from", "replay_to"):  # an end past the horizon cuts it
                with _record(f"attacks[{i}]", name):
                    steps.append(whole_steps(getattr(atk, name), dt, name))
            with _record(f"attacks[{i}]"):  # AttackSpec orders the times; as steps they may meet
                if steps[0] == steps[1] or atk.kind == "replay" and steps[2] == steps[3]:
                    raise ScenarioError(f"{'replay source' if steps[0] < steps[1] else 'attack'} "
                                        "window rounds to zero control steps")

    @property
    def n_steps(self) -> int:
        """The run's length in control steps: the horizon in whole control periods."""
        return whole_steps(self.horizon, self.control_period, "horizon")


# ---------------------------------------------------------------------------
# elemental operations


class ZohStepper:
    """Exact zero-order-hold discretization of one plant at step h."""

    def __init__(self, plant: LinearPlant, h: float):
        if h <= 0.0:
            raise ValueError("step must be positive")
        n, k = plant.n_states, plant.b1.shape[1] + plant.f.shape[1]
        aug = np.zeros((n + k, n + k))
        aug[:n] = np.hstack([plant.a, plant.b1, plant.f])
        phi = scipy.linalg.expm(aug * h)
        self.h = h
        self.a_d = phi[:n, :n]
        self.b_d = phi[:n, n:]
        self._n_u = plant.b1.shape[1]
        self._u = np.zeros(k)  # [d_omega_s, d_p_l] of the held input
        self._tmp = np.zeros(n)  # a_d @ x

    def step(self, x: np.ndarray, d_omega_s: np.ndarray, d_p_l: np.ndarray,
             changed=None) -> np.ndarray:
        """Advance one substep per row of d_p_l (a 1-D d_p_l is one substep) with
        the command held, from a copy of x. b_d @ u is recomputed at the rows
        that changed marks (default: every row); a run passes its row of
        `_load_changes`, which marks the first row and every row that differs
        from the one before, so each state equals one call per substep."""
        rows = d_p_l if d_p_l.ndim == 2 else d_p_l[None]
        u, tmp, n_u = self._u, self._tmp, self._n_u
        u[:n_u] = d_omega_s
        x = np.array(x, dtype=float)
        for s, new in enumerate([True] * len(rows) if changed is None else changed):
            if new:
                u[n_u:] = rows[s]
                drive = self.b_d @ u
            np.matmul(self.a_d, x, out=tmp)  # x = a_d @ x + drive, in place
            np.add(tmp, drive, out=x)
        return x


def _load_changes(loads: np.ndarray) -> np.ndarray:
    """(steps, substeps) mask of a load schedule (steps, substeps, loads): each
    period's first row, and every row that differs from the one before it."""
    changed = np.ones(loads.shape[:2], dtype=bool)
    changed[:, 1:] = (loads[:, 1:] != loads[:, :-1]).any(axis=2)
    return changed


def measure_power(plant: LinearPlant, x: np.ndarray, d_p_l: np.ndarray) -> np.ndarray:
    """Instantaneous true power deviation at the IBR nodes."""
    return plant.h_red @ (plant.e @ x) + plant.f_map @ d_p_l


def measure_frequency_lagged(
    true_omega: np.ndarray, sensor_state: np.ndarray, tau: float, h: float
) -> np.ndarray:
    """First-order-lag frequency sensor advanced by h with the input held.

    Returns the new sensor output; exact update y+ = w + (y - w) exp(-h/tau).
    """
    w = np.asarray(true_omega, dtype=float)
    y = np.asarray(sensor_state, dtype=float)
    return w + (y - w) * math.exp(-h / tau)


def load_signal(spec: LoadSignalSpec, t) -> np.ndarray:
    """Evaluate one load signal (W) at time t, a float or an array of times."""
    if spec.kind == "constant":
        on = np.ones(np.shape(t), dtype=bool)
    elif spec.kind == "step":
        on = t >= spec.step_time
    else:
        phase = t / spec.period
        on = (phase - np.floor(phase)) * spec.period < spec.width
    return np.where(on, spec.amplitude, 0.0)


def load_vector(signals, t, n_load: int) -> np.ndarray:
    """Sum the load signals, in order, into vectors of shape shape(t) + (n_load,)."""
    out = np.zeros(np.shape(t) + (n_load,))
    for sig in signals:
        out[..., sig.load_index] += load_signal(sig, t)
    return out


def apply_attack(
    true_meas: np.ndarray,
    spec: AttackSpec,
    k: int,
    history: np.ndarray,
    steps: tuple[int, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """Corrupt the received measurement of step k inside the attack window;
    steps is spec's (start, end, replay_from, replay_to) in control steps.

    Noise injection adds i.i.d. Gaussian noise on the target channels; replay
    substitutes history's rows (step i in row i) of the source window cyclically.
    """
    received = np.array(true_meas, dtype=float)
    start, end, src, stop = steps
    if not start <= k < end:
        return received
    if spec.kind == "noise-injection":
        for c in spec.channels:
            received[c] += rng.normal(0.0, spec.noise_std)
        return received
    idx = src + (k - start) % (stop - src)
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
    tie.check((net_a, net_b))
    na, ma = net_a.n_ibr, net_a.n_load
    nb, mb = net_b.n_ibr, net_b.n_load
    map_a = np.array([i if i < na else na + nb + (i - na) for i in range(na + ma)])
    map_b = np.array(
        [na + i if i < nb else na + nb + ma + (i - nb) for i in range(nb + mb)]
    )
    n_tot = na + nb + ma + mb
    y_mag = np.zeros((n_tot, n_tot))
    y_ang = np.zeros((n_tot, n_tot))
    v_star = np.zeros(n_tot)
    y_mag[np.ix_(map_a, map_a)] = net_a.y_mag
    y_ang[np.ix_(map_a, map_a)] = net_a.y_ang
    y_mag[np.ix_(map_b, map_b)] = net_b.y_mag
    y_ang[np.ix_(map_b, map_b)] = net_b.y_ang
    v_star[map_a] = net_a.v_star
    v_star[map_b] = net_b.v_star
    ia, ib = map_a[tie.node_a], map_b[tie.node_b]
    y_mag[ia, ib] = y_mag[ib, ia] = tie.y_mag
    y_ang[ia, ib] = y_ang[ib, ia] = tie.theta
    merged = NetworkSpec(n_ibr=na + nb, n_load=ma + mb, y_mag=y_mag, y_ang=y_ang,
                         v_star=v_star)
    return merged, map_a, map_b


# ---------------------------------------------------------------------------
# time series container


@dataclass
class TimeSeries:
    """Uniformly sampled run log as the run wrote it: grids[gi] maps every log
    name to grid gi's rows, (steps, n_ibr) for a per-IBR name, else (steps,)."""

    time: np.ndarray
    grids: list[dict[str, np.ndarray]]

    @staticmethod
    def column(gi: int, name: str, i: int | None = None) -> str:
        """The CSV name of grid gi's log name, of IBR i for a per-IBR name."""
        return f"mg{gi + 1}_{name}" + ("" if i is None else f"_{i + 1}")

    @functools.cached_property
    def columns(self) -> dict[str, np.ndarray]:
        """Every grid's log as named 1-D columns, one per IBR value."""
        return {self.column(gi, name, i): col for gi, log in enumerate(self.grids)
                for name, rows in log.items()
                for i, col in (enumerate(rows.T) if rows.ndim == 2 else [(None, rows)])}

    def to_csv(self, path) -> None:
        write_table(path, ["t", *self.columns], [self.time, *self.columns.values()])


def rms(values: np.ndarray) -> float:
    values = np.asarray(values, dtype=float)
    return float(np.sqrt(np.mean(values**2))) if values.size else 0.0


# ---------------------------------------------------------------------------
# runtime state per microgrid

# A grid's log columns: name, one column per IBR (else one), dtype. Row 0 is
# "before the run": step rho writes row rho + 1 and reads the step before in row rho.
# The per-IBR columns are views of the world's log (_World).
_LOG = (*((name, True, float) for name in
          ("ddelta", "domega", "pg", "pg_rx", "dws", "wm", "z", "zhat")),
        ("xi1", False, float), ("xi2", False, float), ("flag", False, int),
        ("ctrl", False, object))


class _GridRuntime:
    def __init__(self, spec: GridSpec, scenario: Scenario, n_steps: int):
        self.spec = spec
        self.n = spec.network.n_ibr
        self.dt = scenario.control_period
        self.op, self.plant = grid_plant(spec)
        self.controller = spec.controller
        self.enabled = spec.controller != "none"
        needs_gain = spec.controller in ("optimal-z", "observer", "slow-lqr")
        self.gain: ControllerGain | None = None
        if needs_gain or spec.detector is not None:
            weights = spec.weights or CostWeights.uniform(self.n)
            self.gain = lqr_gain(self.plant, weights, make_transform(spec.ibrs))
        self.omega_c = np.array([p.omega_c for p in spec.ibrs])
        self.m_p = np.array([p.m_p for p in spec.ibrs])
        self.z = np.zeros(self.n)
        self.x_hat = self.z_hat = None  # the observer law's model state and z
        if spec.controller == "observer":
            self.x_hat, self.z_hat = np.zeros(spec.detector.model.order), np.zeros(self.n)
        self.pi_integ = np.zeros(self.n)
        self.sensor_y = np.zeros(self.n)
        self.obs_fresh = False
        self.det_state: DetectorState | None = None
        self.wm_source: WatermarkSource | None = None  # None: draws no watermark
        if spec.detector is not None:
            self.det_state = DetectorState.start(spec.detector.model, spec.detector.baseline)
            self.wm_source = WatermarkSource(spec.detector.watermark, self.n)
        self.responded = False
        self.log = {name: np.zeros(n_steps + 1, dtype=dtype)
                    for name, per_ibr, dtype in _LOG if not per_ibr}

    def resolve_law(self, rho: int) -> None:
        """Bind the active law from step rho on; label ctrl from row rho + 1 on."""
        self.log["ctrl"][rho + 1:] = self.controller if self.enabled else "off"
        self.law = _bind_law(self, self.controller if self.enabled else "none")


def _bind_law(rt: _GridRuntime, name: str):
    """Grid rt's law `name` with its constants bound, as law(rt, rho, y_rx): from
    the grid's log and received powers y_rx at control step rho, it writes the
    saturated command into rt.cmd (slow-lqr holds it in between); rt.applied is
    the command applied over the step before. "none" is no law, a zero command.
    The law takes rt as an argument, so that rt.law makes no reference cycle."""
    gain, omega_c, m_p, dt = rt.gain, rt.omega_c, rt.m_p, rt.dt
    u_prev, cmd, spec = rt.applied, rt.cmd, rt.spec
    pg_rx, domega = rt.log["pg_rx"], rt.log["domega"]
    # setpoints saturate, as inverter hardware does; the loop constants are read at
    # each bind, so that a test may patch them
    lo, hi = -defaults.COMMAND_LIMIT, defaults.COMMAND_LIMIT
    kp, ki, tau = defaults.PI_KP, defaults.PI_KI, defaults.SENSOR_LAG_TAU
    if name == "none":
        cmd[:] = 0.0
        return None
    if name == "optimal-z":
        def law(rt, rho, y_rx):  # at rho = 0 the zero row leaves z at 0
            rt.z = z_update(rt.z, u_prev, pg_rx[rho], dt, omega_c, m_p)
            _clip(control_optimal(gain, rt.z), lo, hi, out=cmd)
    elif name == "decentralized":
        def law(rt, rho, y_rx):
            rt.z = z_update(rt.z, u_prev, pg_rx[rho], dt, omega_c, m_p)
            _clip(control_decentralized(m_p, y_rx), lo, hi, out=cmd)
    elif name == "observer":  # z_hat integrates the model's predicted power
        model = spec.detector.model

        def law(rt, rho, y_rx):
            if rho > 0 and not rt.obs_fresh:
                rt.z_hat[:] = z_update(rt.z_hat, u_prev, model.c_d @ rt.x_hat, dt, omega_c, m_p)
                rt.x_hat[:] = model.a_d @ rt.x_hat + model.b_d @ u_prev
            rt.obs_fresh = False
            _clip(control_optimal(gain, rt.z_hat), lo, hi, out=cmd)
    elif name == "pi":
        def law(rt, rho, y_rx):
            rt.sensor_y = measure_frequency_lagged(domega[rho + 1], rt.sensor_y, tau, dt)
            u, rt.pi_integ = control_pi_baseline(kp, ki, rt.sensor_y, dt, rt.pi_integ)
            _clip(u, lo, hi, out=cmd)
    else:  # slow-lqr
        hold = whole_steps(defaults.SLOW_LQR_HOLD, dt, "slow_hold")

        def law(rt, rho, y_rx):
            if rho % hold == 0:
                if rho > 0:
                    rt.z = z_update(rt.z, u_prev, y_rx, hold * dt, omega_c, m_p)
                _clip(control_optimal(gain, rt.z), lo, hi, out=cmd)
    return law


def _side_by_side(plants: list[LinearPlant]) -> LinearPlant:
    """Uncoupled grid plants as one block-diagonal plant; one grid is itself."""
    if len(plants) == 1:
        return plants[0]
    blocks = {name: scipy.linalg.block_diag(*(getattr(p, name) for p in plants))
              for name in ("a", "b1", "f", "e", "h_red", "f_map")}
    return LinearPlant(**blocks)


class _World:
    """The one plant all grids of a run live in, stepped and measured whole.

    Until the tie closes it is the grid plants side by side; closing the tie
    replaces it in place with the merged network's plant. Both order the nodes
    as every grid's IBRs, then every grid's loads: grid gi owns the channels
    channels[gi] and their states; one load schedule serves all.
    Its log holds one array per per-IBR column, so that one row write serves
    every grid; a grid's log columns are views of it, as are its held command
    rt.cmd and its applied command rt.applied.
    """

    def __init__(self, rts: list[_GridRuntime], h: float, n_steps: int):
        self.rts = rts
        self.plant = _side_by_side([rt.plant for rt in rts])
        self.stepper = ZohStepper(self.plant, h)
        self.x = np.zeros(self.plant.n_states)
        self.tied = False
        self.channels: list[slice] = []
        n_ch = sum(rt.n for rt in rts)
        self.log = {name: np.zeros((n_steps + 1, n_ch)) for name, per_ibr, _ in _LOG
                    if per_ibr}
        self.cmd, self.applied = np.zeros(n_ch), np.zeros(n_ch)
        signals: list[LoadSignalSpec] = []
        n0 = m0 = 0
        for rt in rts:
            ch = slice(n0, n0 + rt.n)
            self.channels.append(ch)
            rt.log.update({name: col[:, ch] for name, col in self.log.items()})
            rt.cmd, rt.applied = self.cmd[ch], self.applied[ch]
            signals += [replace(sig, load_index=m0 + sig.load_index)
                        for sig in rt.spec.load_signals]
            n0, m0 = n0 + rt.n, m0 + rt.spec.network.n_load
        self.signals = tuple(signals)

    def close_tie(self, tie: TieSpec, t: float, d_p_l: np.ndarray) -> None:
        """Network the two grids through the tie, with load deviations d_p_l
        at the closing instant t. Grid B's angles shift so the tie carries
        zero deviation flow at that instant (ideal synchronized close)."""
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
        ia, ib = map_a[tie.node_a], map_b[tie.node_b]

        def tie_angle_gap(x: np.ndarray) -> float:
            ddelta_g = x[0::2]
            ddelta_l = np.linalg.solve(sens.ll, d_p_l - sens.lg @ ddelta_g)
            full = np.concatenate([ddelta_g, ddelta_l])
            return float(full[ia] - full[ib])

        b_angles = 2 * np.arange(self.channels[1].start, self.channels[1].stop)
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
        self.stepper = ZohStepper(self.plant, self.stepper.h)
        self.tied = True


def check_finite(what: str, time_axis: np.ndarray,
                 columns: list[tuple[list[str], np.ndarray]]) -> None:
    """Raise SimulationError naming the time and column of the first value of
    columns, (names, (steps, len(names)) array) pairs, that is not finite: what
    diverged. Of two such values at one step, the earlier column in columns
    order is named."""
    first = []  # (step, index in columns) of each array's first bad row
    for order, (_, values) in enumerate(columns):
        rows_ok = np.isfinite(values).all(axis=1)
        if not rows_ok.all():
            first.append((int(np.argmin(rows_ok)), order))
    if not first:
        return
    k, order = min(first)
    names, values = columns[order]
    ch = int(np.argmin(np.isfinite(values[k])))
    raise SimulationError(
        f"{what} diverged at t={time_axis[k]:.4f}s: {names[ch]} = {values[k, ch]}")


# ---------------------------------------------------------------------------
# the orchestration loop


def run_scenario(scenario: Scenario) -> TimeSeries:
    """Execute the scenario at the control period and return the full log.

    A run with no event, attack, tie or detector, whose every law is linear
    (_LINEAR_LAWS), is one closed-loop recursion (_run_linear) unless a
    command leaves the linear range; every other run, and that one then, is
    stepped (_run_stepped). The loads at every substep are evaluated before
    either starts. A float value of the returned log that is not finite is a
    SimulationError naming the first such step and, of that step, the first
    such column in the CSV's order.
    """
    n_steps = scenario.n_steps
    linear = (n_steps > 0 and not (scenario.events or scenario.attacks)
              and scenario.tie is None
              and all(g.controller in _LINEAR_LAWS and g.detector is None
                      for g in scenario.grids))
    dt_c = scenario.control_period
    h = scenario.integrator_step
    n_sub = whole_steps(dt_c, h, "control_period")
    rts = [_GridRuntime(g, scenario, n_steps) for g in scenario.grids]
    world = _World(rts, h, n_steps)
    for rt in rts:
        rt.resolve_law(0)
    time_axis = np.arange(n_steps) * dt_c
    # load deviations at every substep time rho * dt_c + s * h of the run
    loads = load_vector(world.signals, time_axis[:, None] + np.arange(n_sub) * h,
                        world.plant.n_load)
    if not (linear and _run_linear(world, loads)):
        _run_stepped(scenario, world, loads)
    ts = TimeSeries(time_axis, [{name: rt.log[name][1:] for name, _, _ in _LOG} for rt in rts])
    check_finite("the run", time_axis, [([name], col[:, None]) for name, col in
                                        ts.columns.items() if col.dtype == float])
    return ts


def _loop_map(world: _World, n_sub: int):
    """The world's loop over one control period, every grid's law linear
    (_LINEAR_LAWS) and unsaturated, on the state s = (x, z, PI sensor lag,
    PI integrator) of a control instant, one (channels,) block each after x:
    s+ = m s + sum_j drive[j] d_j over the period's n_sub substep load rows
    d_j, and the step's command is u = c_u s + d_u d_0. m is world.stepper's
    substep map composed n_sub times, in run_scenario's update order: measure,
    update each law, then hold the command over the substeps. z and the PI
    states of a channel whose law does not use them stay 0. Returns
    (m, drive, c_u, d_u), drive shaped (n_sub, states, loads)."""
    plant, dt = world.plant, world.rts[0].dt
    n, n_x = len(world.cmd), plant.n_states
    a_d, b_u, b_l = world.stepper.a_d, world.stepper.b_d[:, :n], world.stepper.b_d[:, n:]
    sub = [np.eye(n_x)]  # sub[j] = a_d^(n_sub - 1 - j): substep j's input at the period's end
    for _ in range(n_sub - 1):
        sub.insert(0, a_d @ sub[0])
    sub = np.stack(sub)
    x, z, lag, integ = (slice(0, n_x), *(slice(n_x + k * n, n_x + (k + 1) * n)
                                         for k in range(3)))
    m = np.zeros((integ.stop, integ.stop))
    drive = np.zeros((n_sub, integ.stop, plant.n_load))
    c_u, d_u = np.zeros((n, integ.stop)), np.zeros((n, plant.n_load))
    pg_s = np.zeros((n, integ.stop))
    pg_s[:, x] = plant.h_red @ plant.e  # measure_power's map of s; of d_0, f_map
    decay = math.exp(-dt / defaults.SENSOR_LAG_TAU)  # measure_frequency_lagged's
    for rt, ch in zip(world.rts, world.channels):
        idx = np.arange(ch.start, ch.stop)
        if rt.controller == "optimal-z":
            c_u[ch, z][:, ch] = -rt.gain.k
        elif rt.controller == "decentralized":
            c_u[ch], d_u[ch] = rt.m_p[:, None] * pg_s[ch], rt.m_p[:, None] * plant.f_map[ch]
        elif rt.controller == "pi":  # the new sensor output, then the integrator over it
            m[idx + lag.start, 2 * idx + 1], m[idx + lag.start, idx + lag.start] = 1 - decay, decay
            m[idx + integ.start, idx + integ.start] = 1.0
            m[integ][ch] += dt * m[lag][ch]
            c_u[ch] = -(defaults.PI_KP * m[lag][ch] + defaults.PI_KI * m[integ][ch])
        if rt.controller in ("optimal-z", "decentralized"):  # z_update of u and pg
            gain = dt * rt.omega_c[:, None]
            m[z][ch] = gain * (c_u[ch] - rt.m_p[:, None] * pg_s[ch])
            m[idx + z.start, idx + z.start] += 1.0
            drive[0, z][ch] = gain * (d_u[ch] - rt.m_p[:, None] * plant.f_map[ch])
    hold = (sub @ b_u).sum(axis=0)  # the command held over the period
    m[x, x] = a_d @ sub[0]
    m[x] += hold @ c_u
    drive[:, x] = sub @ b_l
    drive[0, x] += hold @ d_u
    return m, drive, c_u, d_u


def _run_linear(world: _World, loads: np.ndarray) -> bool:
    """Fill the world's log from one recursion of its loop map (_loop_map)
    over the load schedule loads, (steps, substeps, loads), and return True;
    return False and write nothing if a state is not finite or a command
    leaves +-COMMAND_LIMIT, where the stepped loop would saturate it."""
    m, drive, c_u, d_u = _loop_map(world, loads.shape[1])
    s = _recursion_rows(m.T, np.zeros(m.shape[0]),
                        np.einsum("ksl,sil->ki", loads, drive, optimize=True))  # one gemm
    # optimal-z and pi command -(...), whose zero is -0.0, as their stepped laws do
    sign = np.concatenate([[-1.0 if rt.controller in ("optimal-z", "pi") else 1.0] * rt.n
                           for rt in world.rts])
    u = sign * (s @ (sign[:, None] * c_u).T + loads[:, 0] @ (sign[:, None] * d_u).T)
    if not (np.isfinite(s).all() and (np.abs(u) <= defaults.COMMAND_LIMIT).all()):
        return False
    n_x, n = world.plant.n_states, len(world.cmd)
    x = s[:, :n_x]
    pg = measure_power(world.plant, x.T, loads[:, 0].T).T
    for name, rows in (("ddelta", x[:, 0::2]), ("domega", x[:, 1::2]), ("pg", pg),
                       ("pg_rx", pg), ("dws", u), ("z", s[:, n_x:n_x + n])):
        world.log[name][1:] = rows
    return True


def _run_stepped(scenario: Scenario, world: _World, loads: np.ndarray) -> None:
    """Fill the world's log by one sequential loop over control instants.

    Per control instant: fire due events, measure true powers, corrupt the
    received copies per the active attacks, step each enabled detector, fire
    the auto response's events when a flag first rises, update the active
    control law, superpose the watermark, then integrate the plant to the next
    instant over the substep rows of loads. Every time is a step index, and
    the loads' change mask is evaluated, before the loop starts.
    """
    rts, dt_c, n_steps = world.rts, scenario.control_period, loads.shape[0]
    schedule: dict[int, list[Event]] = {}  # control step -> its events, in time order
    for ev in sorted(scenario.events, key=lambda e: e.time):
        schedule.setdefault(whole_steps(ev.time, dt_c, "event time"), []).append(ev)
    atk_steps = [tuple(whole_steps(getattr(atk, name), dt_c, name) for name in
                       ("start", "end", "replay_from", "replay_to")) for atk in scenario.attacks]
    atk_rngs = [np.random.default_rng([scenario.seed, 101, j])
                for j in range(len(scenario.attacks))]
    histories = [rts[atk.grid].log["pg"][1:] for atk in scenario.attacks]
    changed = _load_changes(loads).tolist()
    ddelta_log, domega_log, pg_log, dws_log, wm_log = (
        world.log[k] for k in ("ddelta", "domega", "pg", "dws", "wm"))

    for rho in range(n_steps):
        t = rho * dt_c
        r = rho + 1

        # events due now (scripted)
        for ev in schedule.get(rho, ()):
            _apply_event(ev, scenario, rts, world, rho, loads[rho, 0])

        # true measurements, and the received ones: a replay reads earlier rows
        pg_log[r] = y_all = measure_power(world.plant, world.x, loads[rho, 0])
        y_rx = [y_all[ch] for ch in world.channels]
        for j, atk in enumerate(scenario.attacks):
            y_rx[atk.grid] = apply_attack(y_rx[atk.grid], atk, rho, histories[j],
                                          atk_steps[j], atk_rngs[j])

        # detection and auto response
        for gi, rt in enumerate(rts):
            if rt.det_state is None:
                continue
            det = rt.spec.detector
            flag, _ = dw_step(rt.det_state, det.baseline, det.model, y_rx[gi],
                              rt.log["dws"][rho], rt.log["wm"][rho])
            # logged now: a response below may retire the detector
            rt.log["xi1"][r], rt.log["xi2"][r] = rt.det_state.xi1, rt.det_state.xi2
            rt.log["flag"][r] = flag
            if flag and not rt.responded and scenario.auto_response != "none":
                rt.responded = True
                observe = scenario.auto_response == "observer" or scenario.tie is None
                log.info("grid %d: flag at t=%.4fs, %s", gi + 1, t,
                         "observer law engaged" if observe else "networking with neighbor")
                for ev in ([Event(t, "observer_on", gi)] if observe else
                           [Event(t, "controller_off", gi), Event(t, "tie_close")]):
                    _apply_event(ev, scenario, rts, world, rho, loads[rho, 0])
                if observe:  # this step's dw_step has already advanced x_hat
                    rt.obs_fresh = True

        # control laws and watermark, logged
        ddelta_log[r], domega_log[r] = world.x[0::2], world.x[1::2]
        for gi, rt in enumerate(rts):
            if rt.law is not None:
                rt.law(rt, rho, y_rx[gi])
            if rt.wm_source is not None and rt.enabled:
                rt.log["wm"][r] = rt.wm_source.draw()
            rt.log["pg_rx"][r], rt.log["z"][r] = y_rx[gi], rt.z
            if rt.z_hat is not None:
                rt.log["zhat"][r] = rt.z_hat
        dws_log[r] = world.cmd

        # integrate the applied commands to the next control instant
        np.add(dws_log[r], wm_log[r], out=world.applied)
        world.x = world.stepper.step(world.x, world.applied, loads[rho], changed[rho])


def _apply_event(ev: Event, scenario: Scenario, rts: list[_GridRuntime],
                 world: _World, rho: int, d_p_l: np.ndarray) -> None:
    """Fire ev at control step rho, with load deviations d_p_l at that instant:
    the one place a run changes a grid's law, observer, watermark or detector."""
    t = rho * scenario.control_period
    rt = rts[ev.grid] if ev.action != "tie_close" else None
    if ev.action in ("controller_on", "controller_off"):
        rt.enabled = ev.action == "controller_on"
        rt.resolve_law(rho)
    elif ev.action == "observer_on":
        rt.controller = "observer"
        rt.enabled = True
        # events fire before this step's detector update, so the copied
        # prediction state is one interval behind and must advance once
        rt.x_hat = (rt.det_state.x_hat.copy() if rt.det_state is not None
                    else np.zeros(rt.spec.detector.model.order))
        rt.z_hat = rt.z.copy()
        rt.obs_fresh = False
        rt.wm_source = None
        rt.resolve_law(rho)
    elif world.tied:
        log.warning("tie already closed; ignoring tie_close at t=%.4fs", t)
    else:
        world.close_tie(scenario.tie, t, d_p_l)
        for gi, rt in enumerate(rts):
            if rt.det_state is not None:
                rt.wm_source = rt.det_state = None
                log.info("grid %d: detector retired after topology change", gi + 1)


def summarize(ts: TimeSeries, scenario: Scenario) -> str:
    """Structured text report: RMS and steady-state deviations, detection latency.
    The steady state is t >= 0.95 horizon, and at least the last control instant."""
    lines = ["run summary", "==========="]
    tail = min(0.95 * scenario.horizon, ts.time[-1])
    for gi, log in enumerate(ts.grids):
        lines.append(f"[grid {gi + 1}]")
        for i, w in enumerate(log["domega"].T):
            lines.append(
                f"node {i + 1}: rms_domega_rad_s = {rms(w):.6g}  "
                f"steady_abs_domega_rad_s = {np.mean(np.abs(w[ts.time >= tail])):.6g}"
            )
        flags = log["flag"]
        for atk in scenario.attacks:
            if atk.grid != gi:
                continue
            start = whole_steps(atk.start, scenario.control_period, "start")
            hits = np.flatnonzero(flags[start:])
            latency = f"{ts.time[start + hits[0]] - atk.start:.6g}" if hits.size else "none"
            lines.append(
                f"attack {atk.kind} at {atk.start:.6g}s: detection_latency_s = {latency}"
            )
    return "\n".join(lines) + "\n"
