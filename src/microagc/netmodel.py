"""Physical microgrid model: droop-controlled IBR dynamics, network constraints,
linearization, Kron reduction, and assembly of the continuous linear plant.

Node convention: inverter-based resources (IBRs) occupy nodes 0..N-1, loads and
interconnection points occupy nodes N..N+M-1. All angles in rad, powers in W,
frequencies in rad/s.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import defaults

log = logging.getLogger(__name__)


class ModelError(ValueError):
    """Raised when a model cannot be constructed from the given data."""


class ReductionError(ModelError):
    """Raised when the load block of the sensitivity matrix is singular."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class IbrParams:
    """Filter cutoff omega_c (rad/s) and droop coefficient m_p ((rad/s)/W) of
    one inverter-based resource.

    The model is in deviations from the operating point, so the nominal
    frequency and setpoint never enter it.
    """

    omega_c: float
    m_p: float

    def __post_init__(self):
        if self.omega_c <= 0.0:
            raise ModelError(f"filter cutoff must be positive, got {self.omega_c}")
        if self.m_p <= 0.0:
            raise ModelError(f"droop coefficient must be positive, got {self.m_p}")


@dataclass(frozen=True)
class NetworkSpec:
    """Branch admittances and nominal voltages of one microgrid.

    y_mag and y_ang are full symmetric (N+M)x(N+M) arrays; y_mag is zero where no
    branch exists (y_ang is ignored there). Nodes have no shunt conductance.
    """

    n_ibr: int
    n_load: int
    y_mag: np.ndarray
    y_ang: np.ndarray
    v_star: np.ndarray

    def __post_init__(self):
        n = self.n_nodes
        y_mag = _readonly(self.y_mag)
        y_ang = _readonly(self.y_ang)
        v_star = _readonly(self.v_star)
        for name, a, shape in (
            ("y_mag", y_mag, (n, n)),
            ("y_ang", y_ang, (n, n)),
            ("v_star", v_star, (n,)),
        ):
            if a.shape != shape:
                raise ModelError(f"{name} must have shape {shape}, got {a.shape}")
        if not np.array_equal(y_mag, y_mag.T):
            raise ModelError("branch admittance magnitudes must be symmetric")
        mask = y_mag != 0.0
        if not np.array_equal(y_ang * mask, y_ang.T * mask):
            raise ModelError("branch admittance angles must be symmetric")
        if np.any(v_star <= 0.0):
            raise ModelError("nominal voltages must be positive")
        object.__setattr__(self, "y_mag", y_mag)
        object.__setattr__(self, "y_ang", y_ang)
        object.__setattr__(self, "v_star", v_star)

    @property
    def n_nodes(self) -> int:
        return self.n_ibr + self.n_load

    @classmethod
    def from_branches(
        cls,
        n_ibr: int,
        n_load: int,
        branches,
        v_star: float | np.ndarray = defaults.V_STAR,
    ) -> "NetworkSpec":
        """Build a spec from a branch list of (i, k, y_mag[, theta]) tuples."""
        n = n_ibr + n_load
        y_mag = np.zeros((n, n))
        y_ang = np.zeros((n, n))
        for br in branches:
            if len(br) == 3:
                i, k, y = br
                theta = defaults.BRANCH_THETA
            else:
                i, k, y, theta = br
            if not (0 <= i < n and 0 <= k < n) or i == k:
                raise ModelError(f"invalid branch endpoints ({i}, {k}) for {n} nodes")
            y_mag[i, k] = y_mag[k, i] = y
            y_ang[i, k] = y_ang[k, i] = theta
        return cls(
            n_ibr=n_ibr,
            n_load=n_load,
            y_mag=y_mag,
            y_ang=y_ang,
            v_star=np.broadcast_to(np.asarray(v_star, dtype=float), (n,)).copy(),
        )


@dataclass(frozen=True)
class OperatingPoint:
    """Nominal angles and net injections satisfying the network constraints.

    Reactive power is decoupled from the real-power/frequency dynamics
    modeled here and is not carried.
    """

    delta_star: np.ndarray
    p_star: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "delta_star", _readonly(self.delta_star))
        object.__setattr__(self, "p_star", _readonly(self.p_star))


@dataclass(frozen=True)
class AngleSensitivity:
    """Injection-to-angle sensitivity (W/rad) about an operating point.

    Rows sum to zero exactly: a uniform angle shift moves no power.
    """

    h: np.ndarray
    n_ibr: int
    n_load: int

    def __post_init__(self):
        n = self.n_ibr + self.n_load
        h = _readonly(self.h)
        if h.shape != (n, n):
            raise ModelError(f"sensitivity must be {n}x{n}, got {h.shape}")
        object.__setattr__(self, "h", h)

    @property
    def gg(self) -> np.ndarray:
        return self.h[: self.n_ibr, : self.n_ibr]

    @property
    def gl(self) -> np.ndarray:
        return self.h[: self.n_ibr, self.n_ibr :]

    @property
    def lg(self) -> np.ndarray:
        return self.h[self.n_ibr :, : self.n_ibr]

    @property
    def ll(self) -> np.ndarray:
        return self.h[self.n_ibr :, self.n_ibr :]


@dataclass(frozen=True)
class LinearPlant:
    """Continuous linear deviation model of one microgrid.

    State x stacks per-IBR blocks [ddelta_i, domega_i]; inputs are the setpoint
    deviations (through b1) and the load-injection deviations (through f).
    """

    a: np.ndarray
    b1: np.ndarray
    f: np.ndarray
    e: np.ndarray
    h_red: np.ndarray
    f_map: np.ndarray

    def __post_init__(self):
        for name in ("a", "b1", "f", "e", "h_red", "f_map"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    @property
    def n_ibr(self) -> int:
        return self.b1.shape[1]

    @property
    def n_load(self) -> int:
        return self.f_map.shape[1]

    @property
    def n_states(self) -> int:
        return self.a.shape[0]


def nonlinear_injection(network: NetworkSpec, delta: np.ndarray) -> np.ndarray:
    """Net real injection at every node for the given absolute angles.

    P_i = sum_{k != i} V_i V_k Y_ik cos(delta_i - delta_k - theta_ik); with no
    shunt conductance a node injects only into its branches.
    """
    delta = np.asarray(delta, dtype=float)
    n = network.n_nodes
    if delta.shape != (n,):
        raise ModelError(f"angle vector must have {n} entries, got {delta.shape}")
    v = network.v_star
    dik = delta[:, None] - delta[None, :]
    terms = (v[:, None] * v[None, :]) * network.y_mag * np.cos(dik - network.y_ang)
    np.fill_diagonal(terms, 0.0)
    return terms.sum(axis=1)


def build_sensitivity(network: NetworkSpec, op: OperatingPoint) -> AngleSensitivity:
    """Linearize the network constraints about the operating point.

    Off-diagonal entry (i,k) is V_i V_k Y_ik sin(delta_ik* - theta_ik); each
    diagonal entry is minus its row's off-diagonal sum, so rows sum to zero
    exactly.
    """
    n = network.n_nodes
    delta = np.asarray(op.delta_star, dtype=float)
    if delta.shape != (n,):
        raise ModelError(f"operating point has {delta.shape} angles, expected {n}")
    v = network.v_star
    dik = delta[:, None] - delta[None, :]
    off = (v[:, None] * v[None, :]) * network.y_mag * np.sin(dik - network.y_ang)
    np.fill_diagonal(off, 0.0)
    h = off - np.diag(off.sum(axis=1))
    return AngleSensitivity(h=h, n_ibr=network.n_ibr, n_load=network.n_load)


def kron_reduce(sens: AngleSensitivity) -> tuple[np.ndarray, np.ndarray]:
    """Eliminate the load-node angles, returning (h_red, f_map).

    h_red maps IBR angle deviations to IBR power deviations; f_map maps load
    injection deviations to IBR power deviations.
    """
    if sens.n_load == 0:
        return sens.gg.copy(), np.zeros((sens.n_ibr, 0))
    ll = sens.ll
    svals = np.linalg.svd(ll, compute_uv=False)
    smax = svals[0] if svals.size else 0.0
    smin = svals[-1] if svals.size else 0.0
    if smax == 0.0 or smin <= 1e-13 * smax:
        raise ReductionError(
            f"load block is singular: smallest singular value {smin:.3e} "
            f"(largest {smax:.3e})"
        )
    log.debug("kron_reduce: load-block condition number %.3e", smax / smin)
    ll_inv_lg = np.linalg.solve(ll, sens.lg)
    gl_ll_inv = np.linalg.solve(ll.T, sens.gl.T).T
    h_red = sens.gg - sens.gl @ ll_inv_lg
    return h_red, gl_ll_inv


def assemble_plant(ibrs, sens: AngleSensitivity) -> LinearPlant:
    """Assemble the continuous deviation plant from IBR blocks and the network.

    Per-IBR block dynamics: d/dt [ddelta, domega] =
    [[0, 1], [0, -omega_c]] x + [0, omega_c] dws + [0, -m_p omega_c] dpg.
    The network closes dpg = h_red * ddelta_G + f_map * dpl.
    """
    ibrs = tuple(ibrs)
    n = len(ibrs)
    if n != sens.n_ibr:
        raise ModelError(f"{n} IBRs given but sensitivity has {sens.n_ibr} IBR nodes")
    m = sens.n_load
    a_g = np.zeros((2 * n, 2 * n))
    b1 = np.zeros((2 * n, n))
    b2 = np.zeros((2 * n, n))
    e = np.zeros((n, 2 * n))
    for i, p in enumerate(ibrs):
        a_g[2 * i, 2 * i + 1] = 1.0
        a_g[2 * i + 1, 2 * i + 1] = -p.omega_c
        b1[2 * i + 1, i] = p.omega_c
        b2[2 * i + 1, i] = -p.m_p * p.omega_c
        e[i, 2 * i] = 1.0
    h_red, f_map = kron_reduce(sens)
    a = a_g + b2 @ h_red @ e
    f = b2 @ f_map
    return LinearPlant(a=a, b1=b1, f=f, e=e, h_red=h_red, f_map=f_map)


def solve_operating_point(network: NetworkSpec, p_injections: np.ndarray) -> OperatingPoint:
    """Solve the network constraints for nominal angles by Newton iteration.

    p_injections specifies the desired net injection at every node. Node 0 is
    the slack node: its entry is ignored and recomputed from the solved angles,
    and its angle is pinned to zero. Flat start; converged when every other
    node's mismatch is within defaults.OP_TOL of the power scale, else a
    ModelError after defaults.OP_MAX_ITER iterations.
    """
    n = network.n_nodes
    p_spec = np.asarray(p_injections, dtype=float)
    if p_spec.shape != (n,):
        raise ModelError(f"injection vector must have {n} entries, got {p_spec.shape}")
    scale = max(1.0, float(np.max(np.abs(p_spec))), float(np.max(network.v_star) ** 2))
    delta = np.zeros(n)
    for _ in range(defaults.OP_MAX_ITER):
        p_now = nonlinear_injection(network, delta)
        resid = p_spec[1:] - p_now[1:]
        if np.max(np.abs(resid)) <= defaults.OP_TOL * scale:
            return OperatingPoint(delta_star=delta, p_star=p_now)
        jac = build_sensitivity(network, OperatingPoint(delta_star=delta, p_star=p_now))
        try:
            step = np.linalg.solve(jac.h[1:, 1:], resid)
        except np.linalg.LinAlgError as exc:
            raise ModelError(f"operating-point Jacobian is singular: {exc}") from exc
        delta[1:] += step
    raise ModelError(
        f"operating point did not converge in {defaults.OP_MAX_ITER} iterations "
        f"(residual {np.max(np.abs(resid)):.3e} W)"
    )
