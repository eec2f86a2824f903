"""Optimal z-space secondary controller design and the runtime control laws.

The design path solves the continuous algebraic Riccati equation for the plant
with state cost T' Q T (cost expressed in the z coordinates), then projects the
full-state gain K' onto the z space: K = K' T' (T T')^-1, the least-squares
solution of K T ~ K'. Runtime laws:

  optimal        dws = -K z            (z integrated from power measurements)
  decentralized  dws_i = m_p_i dpg_i   (zeroes dz/dt locally)
  observer       dws = -K z_hat        (z_hat driven by model predictions only)
  pi             discrete PI on lagged frequency measurements (baseline)
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import defaults
from .netmodel import LinearPlant, _readonly
from .transform import LeftNullTransform, z_update

log = logging.getLogger(__name__)


class ControlDesignError(RuntimeError):
    """Raised when the optimal design has no stabilizing solution."""


@dataclass(frozen=True)
class CostWeights:
    """Diagonal state (q) and command (r) weights; both strictly positive."""

    q: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        q = _readonly(np.atleast_1d(self.q))
        r = _readonly(np.atleast_1d(self.r))
        if np.any(q <= 0.0):
            raise ValueError("state weights must be strictly positive")
        if np.any(r <= 0.0):
            raise ValueError("command weights must be strictly positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    @classmethod
    def uniform(cls, n: int, q: float = defaults.LQR_Q_DIAG, r: float = defaults.LQR_R_DIAG):
        return cls(q=np.full(n, q), r=np.full(n, r))


@dataclass(frozen=True)
class ControllerGain:
    """Designed gains plus the Riccati solution and its residual diagnostics."""

    k_prime: np.ndarray      # (N, 2N) full-state gain
    k: np.ndarray            # (N, N) z-space gain
    care_solution: np.ndarray
    care_residual: float
    closed_loop_abscissa: float
    projected_abscissa: float

    def __post_init__(self):
        object.__setattr__(self, "k_prime", _readonly(self.k_prime))
        object.__setattr__(self, "k", _readonly(self.k))
        object.__setattr__(self, "care_solution", _readonly(self.care_solution))


@dataclass
class ObserverState:
    """Prediction-driven controller state: model state x_hat and z_hat integral."""

    x_hat: np.ndarray
    z_hat: np.ndarray


def _care_residual(a, b, q, r_inv_bt, p) -> float:
    res = a.T @ p + p @ a - p @ b @ (r_inv_bt @ p) + q
    return float(np.linalg.norm(res, "fro"))


def solve_care(
    a: np.ndarray,
    b: np.ndarray,
    q: np.ndarray,
    r: np.ndarray,
) -> np.ndarray:
    """Stabilizing solution of A'P + PA - P B R^-1 B' P + Q = 0.

    Stable invariant subspace of the Hamiltonian matrix via ordered real Schur
    decomposition, then up to 20 Newton-Kleinman refinements (each a Lyapunov
    solve) until the residual is below defaults.CARE_RTOL relative to ||P||.
    """
    rtol = defaults.CARE_RTOL
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    n = a.shape[0]
    r_inv_bt = np.linalg.solve(r, b.T)
    g = b @ r_inv_bt

    ham = np.block([[a, -g], [-q, -a.T]])
    if not np.isfinite(ham).all():
        raise ControlDesignError("Hamiltonian has non-finite entries")
    _, u, sdim = scipy.linalg.schur(ham, output="real", sort="lhp")
    if sdim != n:
        detail = _describe_unstabilizable(a, b)
        raise ControlDesignError(
            f"Hamiltonian has {sdim} stable eigenvalues, expected {n}; "
            "the pair (A, B) is not stabilizable or (Q, A) not detectable"
            + (f" ({detail})" if detail else "")
        )
    u11 = u[:n, :n]
    u21 = u[n:, :n]
    try:
        p = np.linalg.solve(u11.T, u21.T).T
    except np.linalg.LinAlgError as exc:
        raise ControlDesignError(f"stable subspace is degenerate: {exc}") from exc
    p = 0.5 * (p + p.T)

    p_norm = max(np.linalg.norm(p, "fro"), 1e-300)
    for _ in range(20):
        if _care_residual(a, b, q, r_inv_bt, p) <= rtol * p_norm:
            break
        k = r_inv_bt @ p
        a_cl = a - b @ k
        rhs = -(q + k.T @ r @ k)
        p = scipy.linalg.solve_continuous_lyapunov(a_cl.T, rhs)
        p = 0.5 * (p + p.T)
        p_norm = max(np.linalg.norm(p, "fro"), 1e-300)
    resid = _care_residual(a, b, q, r_inv_bt, p)
    if resid > rtol * p_norm:
        raise ControlDesignError(
            f"Riccati refinement stalled: residual {resid:.3e} vs tol {rtol * p_norm:.3e}"
        )
    min_eig = float(np.min(np.linalg.eigvalsh(p)))
    if min_eig < -1e-10 * max(1.0, p_norm):
        raise ControlDesignError(f"Riccati solution not PSD (min eigenvalue {min_eig:.3e})")
    abscissa = float(np.max(np.linalg.eigvals(a - g @ p).real))
    if abscissa >= 0.0:
        raise ControlDesignError(
            f"closed loop not stable: spectral abscissa {abscissa:.3e}"
        )
    return p


def _describe_unstabilizable(a: np.ndarray, b: np.ndarray) -> str:
    """PBH test at the unstable modes, naming any uncontrollable one."""
    n = a.shape[0]
    found = []
    for lam in np.linalg.eigvals(a):
        if lam.real >= -1e-12:
            pbh = np.hstack([a - lam * np.eye(n), b])
            smin = np.linalg.svd(pbh, compute_uv=False)[-1]
            if smin < 1e-9 * max(1.0, np.linalg.norm(a)):
                found.append(f"mode {lam:.6g} uncontrollable, PBH sv {smin:.3e}")
    return "; ".join(found)


def lqr_gain(
    plant: LinearPlant,
    weights: CostWeights,
    transform: LeftNullTransform,
) -> ControllerGain:
    """Design the z-space gain for a plant.

    K' = R^-1 B1' P from the Riccati solution with state cost T' Q T;
    K = K' T' (T T')^-1 minimizes ||K' - K T||_F. The projected closed loop
    A - B1 K T is checked and a warning is logged if it is not stable (the
    projection is an approximation; LQR theory only covers A - B1 K').
    """
    t = transform.t
    q_full = t.T @ np.diag(weights.q) @ t
    r_full = np.diag(weights.r)
    p = solve_care(plant.a, plant.b1, q_full, r_full)
    k_prime = np.linalg.solve(r_full, plant.b1.T @ p)
    k = np.linalg.solve(t @ t.T, (k_prime @ t.T).T).T
    resid = _care_residual(plant.a, plant.b1, q_full, np.linalg.solve(r_full, plant.b1.T), p)
    cl = float(np.max(np.linalg.eigvals(plant.a - plant.b1 @ k_prime).real))
    proj_eigs = np.linalg.eigvals(plant.a - plant.b1 @ k @ t)
    proj = float(np.max(proj_eigs.real))
    if proj >= 0.0:
        log.warning(
            "projected closed loop A - B1 K T is not stable; spectrum: %s",
            np.array_str(np.sort_complex(proj_eigs), precision=4),
        )
    return ControllerGain(
        k_prime=k_prime,
        k=k,
        care_solution=p,
        care_residual=resid,
        closed_loop_abscissa=cl,
        projected_abscissa=proj,
    )


def control_optimal(gain: ControllerGain, z: np.ndarray) -> np.ndarray:
    """dws = -K z."""
    return -(gain.k @ np.asarray(z, dtype=float))


def control_decentralized(m_p: np.ndarray, d_p_g: np.ndarray) -> np.ndarray:
    """dws_i = m_p_i * dpg_i (m_p per IBR), computable from local measurements alone."""
    return m_p * np.asarray(d_p_g, dtype=float)


def control_observer(gain: ControllerGain, obs: ObserverState) -> np.ndarray:
    """dws = -K z_hat; independent of (possibly corrupted) measurements."""
    return -(gain.k @ obs.z_hat)


def observer_update(
    obs: ObserverState,
    model,
    omega_c: np.ndarray,
    m_p: np.ndarray,
    d_omega_s_prev: np.ndarray,
    dt: float,
) -> None:
    """Advance the prediction-driven controller state one control period.

    z_hat takes the z_update step (per-IBR omega_c and m_p arrays) with the
    power predicted at the interval start, then the model state advances with
    the applied command.
    """
    u_prev = np.asarray(d_omega_s_prev, dtype=float)
    obs.z_hat = z_update(obs.z_hat, u_prev, model.c_d @ obs.x_hat, dt, omega_c, m_p)
    obs.x_hat = model.a_d @ obs.x_hat + model.b_d @ u_prev


def control_pi_baseline(
    kp: float,
    ki: float,
    measured_freq_deviation: np.ndarray,
    dt: float,
    integrator: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Discrete PI on the measured frequency deviation.

    Returns (command, updated integrator).
    """
    err = np.asarray(measured_freq_deviation, dtype=float)
    integ = np.asarray(integrator, dtype=float) + err * dt
    return -(kp * err + ki * integ), integ
