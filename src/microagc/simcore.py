"""Deterministic closed-loop simulation: exact ZOH plant integration, sensor
models, attack injection, load signals, tie-line switching, and the resilient
control orchestration (detect, then correct locally or collaboratively).

One scenario is a sequential loop over control instants, the run's head,
then one closed-loop recursion of the same loop's one-period map, its tail,
from the loop's exact state at the handoff step K0 (run_scenario states
when that is); the plant is integrated between instants at a finer substep
with all inputs held constant over each substep. The map's law rows are the
laws' own functions, evaluated on the basis of the loop's state. A run draws
its watermark schedules and attack noise before the loop; both engines index
them, and the tail's watermark rows are one more drive of that map. A detector
advances over the log rows it has not seen through one helper (_advance):
with the loop while it can act, else in one block before anything reads or
retires it and at the run's end. Every run has one world
plant: the grid plants side by side (block-diagonal) until the tie
closes, the merged network's plant after, so all grids are measured and
stepped together through one path, one block step per control period over a
load schedule evaluated once per run. Scenario times are whole control periods
(`whole_steps`), so the schedule is step indices set before the loop, and each
grid's log is the run's record and only history. Every law is written once, as
_law (its command and PI states) and _integrate (its z after a period), which
both engines call. Identical scenario and seeds give bit-identical logs.
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
    dw_step,
)

log = logging.getLogger(__name__)
# the clip ufunc np.clip ends in (numpy.core before numpy 2), called without its dispatch
_clip = (np._core if hasattr(np, "_core") else np.core).umath.clip

CONTROLLERS = ("optimal-z", "decentralized", "observer", "pi", "slow-lqr", "none")
_LINEAR_LAWS = ("optimal-z", "decentralized", "pi", "none")  # linear in the loop state, every step
STEADY_FLOOR = 1e-12  # rad/s: summarize prints a steady |domega| below it, round-off, as 0


class ScenarioError(ValueError):
    """Raised for inconsistent scenario definitions; field names the field at
    fault, record the Scenario's (or GridSpec's) record that holds it, message
    the text without it."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.message, self.field, self.record = message, field, None


@contextlib.contextmanager
def _record(record: str | None, field: str | None = None):
    """Name record ("grids[0]", "events[1]", "attacks[0]", "tie", a GridSpec's
    "load_signals[0]", or None for the Scenario's own fields) on a ScenarioError
    raised inside; one naming no field is of field's value, "record.field = ..."."""
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
        if not self.channels:  # it would inject nothing
            raise ScenarioError("an attack needs at least one channel", "channels")
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
        for i, sig in enumerate(self.load_signals):
            with _record(f"load_signals[{i}]"):
                if not 0 <= sig.load_index < self.network.n_load:
                    raise ScenarioError(f"load signal targets node {sig.load_index} but grid "
                                        f"has {self.network.n_load} loads", "load_index")

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
             changed) -> np.ndarray:
        """Advance one substep per row of d_p_l, (substeps, loads), with the
        command held, from a copy of x. b_d @ u is recomputed at the rows that
        changed marks, one entry per row (else ValueError); a run passes its
        row of `_load_changes`, which marks the first row and every row that
        differs from the one before, so each state equals one call per substep."""
        u, tmp, n_u = self._u, self._tmp, self._n_u
        u[:n_u] = d_omega_s
        x = np.array(x, dtype=float)
        for s, new in zip(range(len(d_p_l)), changed, strict=True):  # only a changed row is read
            if new:
                u[n_u:] = d_p_l[s]
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
    noise: np.ndarray | None,
) -> np.ndarray:
    """Corrupt the received measurement of step k inside the attack window;
    steps is spec's (start, end, replay_from, replay_to) in control steps.

    Noise injection adds noise's row k - start (run_scenario's draws) on the target
    channels; replay substitutes history's rows (step i in row i) of the source window.
    """
    received = np.array(true_meas, dtype=float)
    start, end, src, stop = steps
    if not start <= k < end:
        return received
    if spec.kind == "noise-injection":
        received[list(spec.channels)] += noise[k - start]
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
        if spec.controller == "slow-lqr":  # its fixed hold, in control steps
            self.hold = whole_steps(defaults.SLOW_LQR_HOLD, self.dt, "slow_hold")
        self.x_hat = self.z_hat = None  # the observer law's model state and z
        if spec.controller == "observer":
            self.x_hat, self.z_hat = np.zeros(spec.detector.model.order), np.zeros(self.n)
        self.pi_integ = np.zeros(self.n)
        self.sensor_y = np.zeros(self.n)
        self.det_state: DetectorState | None = None
        self.wm: np.ndarray | None = None  # the watermark schedule: step k's in row k
        if spec.detector is not None:
            self.det_state = DetectorState.start(spec.detector.model, spec.detector.baseline)
            mark = spec.detector.watermark
            self.wm = mark.std * np.random.default_rng(mark.seed).standard_normal((n_steps, self.n))
        self.log = {name: np.zeros(n_steps + 1, dtype=dtype)
                    for name, per_ibr, dtype in _LOG if not per_ibr}
        self.label(0)

    @property
    def active_law(self) -> str:
        """The law in effect: the grid's controller, "none" while it is off."""
        return self.controller if self.enabled else "none"

    def label(self, rho: int) -> None:
        """Label ctrl from row rho + 1 on: the controller, "off" while it is off."""
        self.log["ctrl"][rho + 1:] = self.controller if self.enabled else "off"


def _law(law: str, gain: ControllerGain | None, m_p: np.ndarray, dt: float, z: np.ndarray,
         y_rx: np.ndarray, domega: np.ndarray, lag: np.ndarray, integ: np.ndarray):
    """Law `law`'s unsaturated command at one control step, and its PI states
    (sensor lag, integrator) after it: from the step's z (the observer's
    z_hat), received powers y_rx, frequency deviations domega and the PI
    states it found; m_p per IBR (a column on _loop_map's basis). The laws
    that do not use the PI states return them; "none" commands zero."""
    if law == "pi":  # the new sensor output, then the integrator over it
        lag = measure_frequency_lagged(domega, lag, defaults.SENSOR_LAG_TAU, dt)
        u, integ = control_pi_baseline(defaults.PI_KP, defaults.PI_KI, lag, dt, integ)
    elif law == "decentralized":
        u = control_decentralized(m_p, y_rx)
    elif law == "none":
        u = np.zeros(np.shape(z))
    else:  # optimal-z, slow-lqr and observer
        u = control_optimal(gain, z)
    return u, lag, integ


def _integrate(law: str, z: np.ndarray, u: np.ndarray, pg: np.ndarray, dt: float,
               omega_c: np.ndarray, m_p: np.ndarray) -> np.ndarray:
    """Law `law`'s z after one control period of applied command u and measured
    powers pg: z_update for the laws that integrate z, else z, held."""
    if law in ("optimal-z", "decentralized"):
        return z_update(z, u, pg, dt, omega_c, m_p)
    return z


def _command(rt: _GridRuntime, rho: int, y_rx: np.ndarray) -> None:
    """Grid rt's active law at control step rho, with received powers y_rx:
    advance its z from the step before (rt.applied was applied over it) and
    write the saturated command into rt.cmd, as setpoint hardware saturates.
    slow-lqr updates z and its command once per rt.hold steps and holds them
    in between; the observer law advances its model and z_hat on the model's
    predicted powers, not on y_rx."""
    law = rt.active_law
    if law == "slow-lqr" and rho % rt.hold:
        return
    dt, u_prev, omega_c, m_p = rt.dt, rt.applied, rt.omega_c, rt.m_p
    rt.z = z = _integrate(law, rt.z, u_prev, rt.log["pg_rx"][rho], dt, omega_c, m_p)
    if law == "slow-lqr" and rho > 0:
        rt.z = z = z_update(z, u_prev, y_rx, rt.hold * dt, omega_c, m_p)
    elif law == "observer":
        model = rt.spec.detector.model
        if rho > 0:
            rt.z_hat[:] = z_update(rt.z_hat, u_prev, model.c_d @ rt.x_hat, dt, omega_c, m_p)
            rt.x_hat[:] = model.a_d @ rt.x_hat + model.b_d @ u_prev
        z = rt.z_hat
    u, rt.sensor_y, rt.pi_integ = _law(law, rt.gain, m_p, dt, z, y_rx, rt.log["domega"][rho + 1],
                                       rt.sensor_y, rt.pi_integ)
    _clip(u, -defaults.COMMAND_LIMIT, defaults.COMMAND_LIMIT, out=rt.cmd)


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


def check_finite(what: str, time_axis: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """Raise SimulationError naming the time and column of the first value of
    columns, {name: 1-D column}, that is not finite: what diverged. Of two
    such values at one step, the earlier column in columns order is named."""
    first = []  # (step, index in columns, name) of each column's first bad value
    for order, (name, values) in enumerate(columns.items()):
        ok = np.isfinite(values)
        if not ok.all():
            first.append((int(np.argmin(ok)), order, name))
    if first:
        k, _, name = min(first)
        raise SimulationError(f"{what} diverged at t={time_axis[k]:.4f}s: "
                              f"{name} = {columns[name][k]}")


# ---------------------------------------------------------------------------
# the orchestration loop


def run_scenario(scenario: Scenario) -> TimeSeries:
    """Execute the scenario at the control period and return the full log.

    The stepped loop (_run_stepped) runs the head of the run, up to its
    handoff step K0: the first step at which every scheduled event has
    fired (those due at K0 included), every attack window has ended, every
    grid's active law is linear (_LINEAR_LAWS; a grid that is off runs
    "none") and no detector can act (auto_response "none", or every
    detector gone: a flag changes a run only through the response). From K0
    on, one closed-loop recursion (_run_linear) fills the rest of the log
    from the loop's exact state, unless a command leaves the linear range;
    then the loop steps on to the end. A run of linear laws with no event,
    attack or tie close is all tail (K0 = 0); a run whose head never ends
    (a slow-lqr or observer law, a detector whose flag may respond) is all
    head. Both parts run the same law functions on the same inputs, all set
    before either starts: the loads at every substep and the run's draws. A
    detector that can act steps with the loop (_advance); one that cannot
    advances over the log rows it has not seen in one block before a
    scheduled observer_on reads its prediction state, before a tie close
    retires it, and at the run's end over the rest. A float value of the
    returned log that is not finite is a SimulationError naming the first
    such step and, of that step, the first such column in the CSV's order.
    """
    n_steps = scenario.n_steps
    dt_c = scenario.control_period
    h = scenario.integrator_step
    n_sub = whole_steps(dt_c, h, "control_period")
    rts = [_GridRuntime(g, scenario, n_steps) for g in scenario.grids]
    world = _World(rts, h, n_steps)
    time_axis = np.arange(n_steps) * dt_c
    # load deviations at every substep time rho * dt_c + s * h of the run
    loads = load_vector(world.signals, time_axis[:, None] + np.arange(n_sub) * h,
                        world.plant.n_load)
    atk_steps = [tuple(whole_steps(getattr(atk, name), dt_c, name) for name in
                       ("start", "end", "replay_from", "replay_to")) for atk in scenario.attacks]
    noise = [np.random.default_rng([scenario.seed, 101, j]).normal(0.0, atk.noise_std, (
        min(end, n_steps) - start, len(atk.channels))) if atk.kind == "noise-injection" else None
        for j, (atk, (start, end, _, _)) in enumerate(zip(scenario.attacks, atk_steps))]
    _run_stepped(scenario, world, loads, atk_steps, noise)
    for rt in rts:  # a detector that could not act advances over the rest of the log
        if rt.det_state is not None:
            _advance(rt, n_steps)
    ts = TimeSeries(time_axis, [{name: rt.log[name][1:] for name, _, _ in _LOG} for rt in rts])
    check_finite("the run", time_axis,
                 {name: col for name, col in ts.columns.items() if col.dtype == float})
    return ts


def _loop_map(world: _World, n_sub: int):
    """The world's loop over one control period, every grid's active law
    linear (_LINEAR_LAWS) and unsaturated, on the state s = (x, z, PI sensor
    lag, PI integrator) of a control instant, one (channels,) block each
    after x: z as the step's law left it, the PI states as the step found
    them. s+ = m s + sum_j drive[j] d_j over the period's n_sub substep load
    rows d_j, and the step's command is u = c_u s + d_u d_0. m is
    world.stepper's substep map composed n_sub times, in the stepped loop's
    update order: measure, update each law, then hold the command over the
    substeps. Its measurement and law rows are the functions the stepped
    loop calls (measure_power, _law and _integrate), each linear in its
    state and inputs, every law evaluated on the whole basis of the step's
    inputs (s, d_0 and the watermark w), per-IBR constants as columns; a law
    that does not use z or the PI states holds them. w rides on the held
    command: it adds mark w to s+, through x and through z, which integrates
    the applied command. Returns (m, drive, mark, c_u, d_u), drive shaped
    (n_sub, states, loads) and mark (states, channels)."""
    plant, dt = world.plant, world.rts[0].dt
    n, n_x = len(world.cmd), plant.n_states
    a_d, b_u, b_l = world.stepper.a_d, world.stepper.b_d[:, :n], world.stepper.b_d[:, n:]
    sub = [np.eye(n_x)]  # sub[j] = a_d^(n_sub - 1 - j): substep j's input at the period's end
    for _ in range(n_sub - 1):
        sub.insert(0, a_d @ sub[0])
    sub = np.stack(sub)
    bounds = np.cumsum([0, n_x, n, n, n, plant.n_load, n])  # s = (x, z, lag, integ), d_0, w
    x, z, lag, integ, d_0, w = map(slice, bounds[:-1], bounds[1:])
    n_s, basis = integ.stop, np.eye(bounds[-1])  # one column per input
    pg = measure_power(plant, basis[x], basis[d_0])
    u = np.zeros((n, len(basis)))  # the law's command
    new = basis[:n_s].copy()  # s+: the laws' rows, x below
    for rt, ch in zip(world.rts, world.channels):
        law, m_p = rt.active_law, rt.m_p[:, None]
        u[ch], new[lag][ch], new[integ][ch] = _law(law, rt.gain, m_p, dt, basis[z][ch], pg[ch],
                                                   basis[x][1::2][ch], basis[lag][ch],
                                                   basis[integ][ch])
        new[z][ch] = _integrate(law, basis[z][ch], u[ch] + basis[w][ch], pg[ch], dt,
                                rt.omega_c[:, None], m_p)  # over the applied command, u + w
    c_u, d_u = u[:, :n_s], u[:, d_0]
    m, mark = new[:, :n_s].copy(), new[:, w].copy()
    drive = np.zeros((n_sub, n_s, plant.n_load))
    drive[0] = new[:, d_0]
    hold = (sub @ b_u).sum(axis=0)  # the command held over the period
    m[x, x] = a_d @ sub[0]
    m[x] += hold @ c_u
    drive[:, x] = sub @ b_l
    drive[0, x] += hold @ d_u
    mark[x] = hold
    return m, drive, mark, c_u, d_u


def _run_linear(world: _World, loads: np.ndarray, k0: int) -> bool:
    """Fill the world's log rows k0 + 1... from one recursion of its loop map
    (_loop_map) over the load schedule loads, (steps, substeps, loads), from
    the handoff step k0 (run_scenario) on: from the loop's state at step k0,
    its events fired, and the watermark rows k0 on of each grid that is on;
    log the z_hat that a grid off its observer law holds. A logged zero may
    have another sign than the stepped loop's; the writer writes both 0. Its
    detectors advance over these rows at the run's end. Return True; return
    False, and change nothing, if a state is not finite or a command leaves
    +-COMMAND_LIMIT, where the stepped loop would saturate it."""
    m, drive, mark, c_u, d_u = _loop_map(world, loads.shape[1])
    loads = loads[k0:]
    n_steps, n_x, n = loads.shape[0], world.plant.n_states, len(world.cmd)
    drives = np.einsum("ksl,sil->ki", loads, drive, optimize=True)  # one gemm
    wm = np.zeros((n_steps, n))
    for rt, ch in zip(world.rts, world.channels):
        if rt.wm is not None and rt.enabled:
            wm[:, ch] = rt.wm[k0:]
    drives += wm @ mark.T
    # step k0's state: z as its law leaves it (integrated over the step before), the rest as found
    z = [_integrate(rt.active_law, rt.z, rt.applied, rt.log["pg_rx"][k0], rt.dt, rt.omega_c,
                    rt.m_p) for rt in world.rts]
    start = np.concatenate([world.x, *z, *(rt.sensor_y for rt in world.rts),
                            *(rt.pi_integ for rt in world.rts)])
    s = _recursion_rows(m.T, start, drives)
    u = s @ c_u.T + loads[:, 0] @ d_u.T
    if not (np.isfinite(s).all() and (np.abs(u) <= defaults.COMMAND_LIMIT).all()):
        return False
    x = s[:, :n_x]
    pg = measure_power(world.plant, x.T, loads[:, 0].T).T
    for name, rows in (("ddelta", x[:, 0::2]), ("domega", x[:, 1::2]), ("pg", pg),
                       ("pg_rx", pg), ("dws", u), ("wm", wm), ("z", s[:, n_x:n_x + n])):
        world.log[name][k0 + 1:] = rows
    for rt in world.rts:
        if rt.z_hat is not None:  # no tail law reads it: held, as the stepped loop logs it
            rt.log["zhat"][k0 + 1:] = rt.z_hat
    return True


def _advance(rt: _GridRuntime, upto: int) -> bool:
    """Advance grid rt's detector over the log rows it has not seen, up to row
    upto, in one dw_step call (none if it has seen them): row r's received
    powers, of control step r - 1, with row r - 1's command and watermark.
    Log each row's xi1, xi2 and flag, and return the last row's flag."""
    state, det = rt.det_state, rt.spec.detector
    if upto <= state.count:
        return False
    seen, rows = state.count, slice(state.count + 1, upto + 1)
    return dw_step(state, det.baseline, det.model, rt.log["pg_rx"][rows],
                   rt.log["dws"][seen:upto], rt.log["wm"][seen:upto],
                   out=(rt.log["xi1"][rows], rt.log["xi2"][rows], rt.log["flag"][rows]))[0]


def _run_stepped(scenario: Scenario, world: _World, loads: np.ndarray,
                 atk_steps: list[tuple[int, ...]], noise: list[np.ndarray | None]) -> None:
    """Fill the world's log by one sequential loop over control instants,
    handing the rest of the run to _run_linear at the handoff step K0
    (run_scenario), with attack j's steps atk_steps[j] and noise rows noise[j].

    Per control instant: fire due events, hand off if the instant is K0,
    measure true powers, corrupt and log the received copies per the active
    attacks, step each detector if it can act (an auto response), fire the
    response's events on a flag unless they are in effect, update the active
    control law, superpose the watermark, then integrate the plant to the
    next instant over the substep rows of loads. Every time is a step index
    before the loop starts, and the loads' change mask is evaluated for each
    part of the run it steps.
    """
    rts, dt_c, n_steps = world.rts, scenario.control_period, loads.shape[0]
    schedule: dict[int, list[Event]] = {}  # control step -> its events, in time order
    for ev in sorted(scenario.events, key=lambda e: e.time):
        schedule.setdefault(whole_steps(ev.time, dt_c, "event time"), []).append(ev)
    histories = [rts[atk.grid].log["pg"][1:] for atk in scenario.attacks]
    # no event or attack from here on: the first step that may be K0
    handoff = max([*schedule, *(steps[1] for steps in atk_steps)], default=0)
    changed = _load_changes(loads[:handoff]).tolist()  # the rest's when it is stepped
    acts = scenario.auto_response != "none"  # else no detector steps with the loop
    observe = scenario.auto_response != "collaborative" or scenario.tie is None  # else tie close
    ddelta_log, domega_log, pg_log, dws_log, wm_log = (
        world.log[k] for k in ("ddelta", "domega", "pg", "dws", "wm"))

    for rho in range(n_steps):
        t = rho * dt_c
        r = rho + 1

        # events due now (scripted)
        for ev in schedule.get(rho, ()):
            _apply_event(ev, scenario, world, rho, loads[rho, 0])

        # the handoff: the recursion takes the rest, unless a flag may still change a law
        if rho == handoff:
            live = acts and any(rt.det_state is not None for rt in rts)
            if (not live and all(rt.active_law in _LINEAR_LAWS for rt in rts)
                    and _run_linear(world, loads, rho)):
                return
            if len(changed) == rho:
                changed += _load_changes(loads[rho:]).tolist()
            handoff = rho + 1 if live else n_steps  # else the laws are fixed: step to the end

        # true measurements, and the received ones: a replay reads earlier rows
        pg_log[r] = y_all = measure_power(world.plant, world.x, loads[rho, 0])
        y_rx = [y_all[ch] for ch in world.channels]
        for j, atk in enumerate(scenario.attacks):
            y_rx[atk.grid] = apply_attack(y_rx[atk.grid], atk, rho, histories[j],
                                          atk_steps[j], noise[j])

        # received powers logged, then detection and auto response
        for gi, rt in enumerate(rts):
            rt.log["pg_rx"][r] = y_rx[gi]
            if rt.det_state is None or not acts:
                continue
            x_hat = rt.det_state.x_hat  # step rho's: dw_step rebinds it
            # logged now: a response below may retire the detector; else already in effect
            # (a grid with a z_hat runs the observer law)
            if _advance(rt, r) and not (observe and rt.z_hat is not None):
                log.info("grid %d: flag at t=%.4fs, %s", gi + 1, t,
                         "observer law engaged" if observe else "networking with neighbor")
                for ev in ([Event(t, "observer_on", gi)] if observe else
                           [Event(t, "controller_off", gi), Event(t, "tie_close")]):
                    _apply_event(ev, scenario, world, rho, loads[rho, 0], x_hat)

        # control laws and watermark, logged
        ddelta_log[r], domega_log[r] = world.x[0::2], world.x[1::2]
        for gi, rt in enumerate(rts):
            _command(rt, rho, y_rx[gi])
            if rt.wm is not None and rt.enabled:
                rt.log["wm"][r] = rt.wm[rho]
            rt.log["z"][r] = rt.z
            if rt.z_hat is not None:
                rt.log["zhat"][r] = rt.z_hat
        dws_log[r] = world.cmd

        # integrate the applied commands to the next control instant
        np.add(dws_log[r], wm_log[r], out=world.applied)
        world.x = world.stepper.step(world.x, world.applied, loads[rho], changed[rho])


def _apply_event(ev: Event, scenario: Scenario, world: _World, rho: int, d_p_l: np.ndarray,
                 x_hat: np.ndarray | None = None) -> None:
    """Fire ev at control step rho, with load deviations d_p_l at that instant:
    the one place a run changes a grid's law, observer, watermark or detector.
    observer_on starts the observer law from z(rho - 1) and x_hat, the detector's
    prediction state at step rho's start (default: its state now); on a grid
    whose law is already the observer it only switches the grid on."""
    t, rts = rho * scenario.control_period, world.rts
    rt = rts[ev.grid] if ev.action != "tie_close" else None
    if ev.action in ("controller_on", "controller_off"):
        rt.enabled = ev.action == "controller_on"
        rt.label(rho)
    elif ev.action == "observer_on":
        if rt.controller != "observer":
            if x_hat is None and rt.det_state is not None:  # its state at step rho's start
                _advance(rt, rho)
                x_hat = rt.det_state.x_hat
            elif x_hat is None:
                x_hat = np.zeros(rt.spec.detector.model.order)
            rt.controller, rt.wm = "observer", None
            rt.x_hat, rt.z_hat = x_hat.copy(), rt.z.copy()
        rt.enabled = True
        rt.label(rho)
    elif world.tied:
        log.warning("tie already closed; ignoring tie_close at t=%.4fs", t)
    else:
        world.close_tie(scenario.tie, t, d_p_l)
        for gi, rt in enumerate(rts):
            if rt.det_state is not None:  # it has seen the rows before step rho
                _advance(rt, rho)
                rt.wm = rt.det_state = None
                log.info("grid %d: detector retired after topology change", gi + 1)


def summarize(ts: TimeSeries, scenario: Scenario) -> str:
    """Structured text report: RMS and steady-state deviations, detection latency.
    The steady state is t >= 0.95 horizon, and at least the last control instant."""
    lines = ["run summary", "==========="]
    tail = min(0.95 * scenario.horizon, ts.time[-1])
    for gi, log in enumerate(ts.grids):
        lines.append(f"[grid {gi + 1}]")
        for i, w in enumerate(log["domega"].T):
            steady = np.mean(np.abs(w[ts.time >= tail]))
            lines.append(f"node {i + 1}: rms_domega_rad_s = {rms(w):.6g}  steady_abs_domega_rad_s"
                         f" = {0.0 if steady < STEADY_FLOOR else steady:.6g}")
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
