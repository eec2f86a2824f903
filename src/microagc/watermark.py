"""Dynamic-watermark detection of false data injection on power measurements.

A secret zero-mean Gaussian watermark rides on the setpoint commands. The
received measurements are compared against a model prediction driven by the
same commands and watermark; the innovation's moving-window mean and
covariance are tested against an attack-free baseline:

    xi1 = || mu_hat - mu_star ||_2        (mean shift)
    xi2 = | tr(Sigma_hat - Sigma_star) |  (variance shift)

Either statistic at or above its BaselineStats threshold raises the attack
flag. The statistics have one implementation, window_statistics, for one window
or a stack of them: the streaming dw_step passes its sliding window, and the
record-level innovation_statistics every window of a record as strided views, a
chunk at a time, each window's statistics bit-equal to the window alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import defaults
from .netmodel import _readonly
from .sysid import DiscreteModel


@dataclass(frozen=True)
class WatermarkConfig:
    """Isotropic secret watermark: each channel draws N(0, std^2), from seed."""

    std: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.std < math.inf:
            raise ValueError(f"watermark std must be finite and >= 0, got {self.std}")


class WatermarkSource:
    """Deterministic stream of watermark draws on n channels for one run."""

    def __init__(self, cfg: WatermarkConfig, n: int):
        self._rng = np.random.default_rng(cfg.seed)
        self._n = n
        # a product, not std * z: at std = 0 every draw stays +0.0, never -0.0
        self._factor = cfg.std * np.eye(n)

    def draw(self) -> np.ndarray:
        return self._factor @ self._rng.standard_normal(self._n)


def predict_step(
    model: DiscreteModel,
    x_hat: np.ndarray,
    d_omega_s: np.ndarray,
    e: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """One step of the watermarked prediction recursion.

    Drives the model with the watermarked command: x+ = A x + B (u + e).
    """
    x_hat = np.asarray(x_hat, dtype=float)
    u = np.asarray(d_omega_s, dtype=float)
    e = np.asarray(e, dtype=float)
    if x_hat.shape != (model.order,):
        raise ValueError(f"prediction state must have {model.order} entries")
    if u.shape != (model.n_inputs,) or e.shape != (model.n_inputs,):
        raise ValueError(f"command and watermark must have {model.n_inputs} entries")
    x_next = model.a_d @ x_hat + model.b_d @ (u + e)
    return x_next, model.c_d @ x_next


@dataclass(frozen=True)
class BaselineStats:
    """Attack-free innovation statistics over a window of length w and the
    thresholds on xi1 and xi2, open (math.inf) until calibrated.

    trace is tr(sigma_star), computed once for window_statistics.
    """

    mu_star: np.ndarray
    sigma_star: np.ndarray
    w: int
    eps1: float = math.inf
    eps2: float = math.inf
    trace: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "mu_star", _readonly(self.mu_star))
        object.__setattr__(self, "sigma_star", _readonly(self.sigma_star))
        object.__setattr__(self, "trace", float(np.trace(self.sigma_star)))
        n = self.mu_star.shape[0]
        if self.sigma_star.shape != (n, n):
            raise ValueError("baseline covariance shape mismatch")
        if not np.allclose(self.sigma_star, self.sigma_star.T, atol=1e-9):
            raise ValueError("baseline covariance must be symmetric")
        scale = max(1.0, float(np.max(np.abs(self.sigma_star))))
        if n and float(np.min(np.linalg.eigvalsh(self.sigma_star))) < -1e-9 * scale:
            raise ValueError("baseline covariance must be positive semidefinite")


def calibrate_baseline(
    received: np.ndarray, predicted: np.ndarray, w: int = defaults.DETECTOR_WINDOW
) -> BaselineStats:
    """Mean and covariance of the innovations over the first w samples."""
    received = np.atleast_2d(np.asarray(received, dtype=float))
    predicted = np.atleast_2d(np.asarray(predicted, dtype=float))
    if received.shape != predicted.shape:
        raise ValueError("received and predicted records must align")
    if received.shape[0] < w:
        raise ValueError(f"need at least {w} samples, got {received.shape[0]}")
    nu = received[:w] - predicted[:w]
    mu = nu.mean(axis=0)
    centered = nu - mu
    sigma = centered.T @ centered / w
    return BaselineStats(mu_star=mu, sigma_star=sigma, w=w)


def calibrate_thresholds(
    xi1_series: np.ndarray,
    xi2_series: np.ndarray,
    margin: float = defaults.THRESHOLD_MARGIN,
) -> tuple[float, float]:
    """Thresholds as margin times the nominal peak of each statistic.

    defaults.THRESHOLD_FLOOR bounds them from below, which keeps the strict
    inequality tests decidable when a perfect model yields identically zero
    statistics.
    """
    xi1 = np.asarray(xi1_series, dtype=float)
    xi2 = np.asarray(xi2_series, dtype=float)
    eps1 = max(margin * float(np.max(xi1, initial=0.0)), defaults.THRESHOLD_FLOOR)
    eps2 = max(margin * float(np.max(xi2, initial=0.0)), defaults.THRESHOLD_FLOOR)
    return eps1, eps2


@dataclass
class DetectorState:
    """Streaming detector: prediction state, innovation window, statistics.

    nu holds the last w innovations (received minus predicted power) in
    chronological order, oldest first; count is the number of samples seen.
    Until count reaches w the window still holds leading zeros.
    """

    x_hat: np.ndarray
    nu: np.ndarray
    count: int = 0
    xi1: float = 0.0
    xi2: float = 0.0

    @classmethod
    def start(cls, model: DiscreteModel, baseline: BaselineStats) -> "DetectorState":
        """The state before the first sample: zero prediction state, zero window."""
        return cls(x_hat=np.zeros(model.order), nu=np.zeros((baseline.w, model.n_outputs)))


def window_statistics(nu: np.ndarray, baseline: BaselineStats):
    """Mean shift xi1 and trace shift xi2 of one (w, n) innovation window, as
    two floats, or of each window of a (k, w, n) stack, as two (k,) arrays.

    The trace is the centred sum of squares over w, so it cannot cancel
    catastrophically the way mean(|nu|^2) - |mu_hat|^2 would. Each step is
    the float arithmetic of nu.mean(axis=0), np.linalg.norm and np.sum spelt
    with fewer numpy calls, and a window of a stack (contiguous or a strided
    view) gets the same bits as the window alone: the mean is reduced over the
    w axis, each window's w * n centred squares are one reduction, and xi1 is
    sqrt(shift @ shift) per window, since a vectorized sum of squares rounds
    differently.
    """
    w = nu.shape[-2]
    mu_hat = np.add.reduce(nu, axis=-2) / w
    shift = mu_hat - baseline.mu_star
    if nu.ndim == 2:  # the detector's per-step call stays scalar arithmetic
        centred = nu - mu_hat
        tr_hat = float(np.add.reduce((centred * centred).ravel())) / w
        return math.sqrt(shift @ shift), abs(tr_hat - baseline.trace)
    centred = nu - mu_hat[:, None]
    squares = (centred * centred).reshape(nu.shape[0], w * nu.shape[2])
    tr_hat = np.add.reduce(squares, axis=1) / w
    return np.array([math.sqrt(s @ s) for s in shift]), np.abs(tr_hat - baseline.trace)


# windows per window_statistics call: 1.2 MB of temporaries at w = 100 and n = 3
WINDOW_CHUNK = 256


def innovation_statistics(nu: np.ndarray, baseline: BaselineStats):
    """xi1 and xi2 of a (k, n) innovation record as two (k,) arrays: row j is
    bit-equal to what dw_step leaves in its state after j + 1 innovations,
    zeros until the window is warm."""
    w = baseline.w
    xi = np.zeros((2, nu.shape[0]))
    for i in range(w - 1, nu.shape[0], WINDOW_CHUNK):  # i: the chunk's first row
        windows = sliding_window_view(nu[i - w + 1 : i + WINDOW_CHUNK], w, axis=0)
        xi[:, i : i + WINDOW_CHUNK] = window_statistics(windows.swapaxes(1, 2), baseline)
    return xi[0], xi[1]


def dw_step(
    state: DetectorState,
    baseline: BaselineStats,
    model: DiscreteModel,
    received_p: np.ndarray,
    d_omega_s_prev: np.ndarray,
    e_prev: np.ndarray,
) -> tuple[bool, DetectorState]:
    """One detector step: predict, slide the innovation window, test, flag.

    The prediction advances with the command and watermark applied over the
    previous control interval; the received measurement is the current sample.
    Until the window is warm the sample is only accumulated and the flag
    stays down.
    """
    state.x_hat, p_hat = predict_step(model, state.x_hat, d_omega_s_prev, e_prev)
    state.nu[:-1] = state.nu[1:]
    state.nu[-1] = np.asarray(received_p, dtype=float) - p_hat
    state.count += 1
    if state.count < baseline.w:  # xi1 and xi2 keep their initial zeros
        return False, state
    state.xi1, state.xi2 = window_statistics(state.nu, baseline)
    return (state.xi1 >= baseline.eps1) or (state.xi2 >= baseline.eps2), state
