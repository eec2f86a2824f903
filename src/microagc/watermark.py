"""Dynamic-watermark detection of false data injection on power measurements.

A secret zero-mean Gaussian watermark rides on the setpoint commands. The
received measurements are compared against a model prediction driven by the
same commands and watermark; the innovation's moving-window mean and
covariance trace are tested against an attack-free baseline:

    xi1 = || mu_hat - mu_star ||_2          (mean shift)
    xi2 = | tr Sigma_hat - tr Sigma_star |  (variance shift)

Either statistic at or above its BaselineStats threshold raises the attack
flag. The baseline and the statistics take the window moments from one
function, _moments, over a stack of windows: the record-level
innovation_statistics passes every window of a record as strided views, a
chunk at a time, each window's statistics bit-equal to the window alone, and
the streaming dw_step, a block of samples per call, takes its windows from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import defaults
from .netmodel import _readonly
from .sysid import DiscreteModel, _replay


@dataclass(frozen=True)
class WatermarkConfig:
    """Isotropic secret watermark: each channel draws std * N(0, 1), from default_rng(seed)."""

    std: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.std < math.inf:
            raise ValueError(f"watermark std must be finite and >= 0, got {self.std}")


def predict_step(
    model: DiscreteModel,
    x_hat: np.ndarray,
    d_omega_s: np.ndarray,
    e: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """k steps of the watermarked prediction recursion, one per row of the
    (k, n) commands and marks.

    Drives the model with the watermarked command, x+ = A x + B (u + e), row
    by row as predict does, and returns the last x+ and the (k, n) predicted powers C x+.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    u = np.asarray(d_omega_s, dtype=float)
    e = np.asarray(e, dtype=float)
    if x_hat.shape != (model.order,):
        raise ValueError(f"prediction state must have {model.order} entries")
    if u.shape != e.shape or u.ndim != 2 or u.shape[1] != model.n_inputs:
        raise ValueError(f"command and watermark must have {model.n_inputs} entries "
                         "per row, in as many rows")
    states, p = _replay(model, x_hat, u + e)
    return states[-1], p[1:]


@dataclass(frozen=True)
class BaselineStats:
    """Attack-free innovation mean mu_star and covariance trace tr(Sigma_star)
    over a window of length w, and the thresholds on xi1 and xi2, open
    (math.inf) until calibrated."""

    mu_star: np.ndarray
    trace: float
    w: int
    eps1: float = math.inf
    eps2: float = math.inf

    def __post_init__(self):
        object.__setattr__(self, "mu_star", _readonly(self.mu_star))


def calibrate_baseline(nu: np.ndarray, w: int = defaults.DETECTOR_WINDOW) -> BaselineStats:
    """Mean and covariance trace of the first w rows of a (k, n) innovation
    record (_moments): that window's statistics against it are exactly 0."""
    if nu.shape[0] < w:
        raise ValueError(f"need at least {w} samples, got {nu.shape[0]}")
    mu, trace = _moments(nu[None, :w])
    return BaselineStats(mu_star=mu[0], trace=float(trace[0]), w=w)


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
    """Streaming detector: prediction state and innovation window.

    nu holds the last w innovations (received minus predicted power) in
    chronological order, oldest first; count is the number of samples seen
    (a run's detector has advanced over its log rows 1 to count). Until count
    reaches w the window still holds leading zeros.
    """

    x_hat: np.ndarray
    nu: np.ndarray
    count: int = 0

    @classmethod
    def start(cls, model: DiscreteModel, baseline: BaselineStats) -> "DetectorState":
        """The state before the first sample: zero prediction state, zero window."""
        return cls(x_hat=np.zeros(model.order), nu=np.zeros((baseline.w, model.n_outputs)))


def _moments(nu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean, (k, n), and covariance trace, (k,), of each window of a (k, w, n) stack.

    The trace is the centred sum of squares over w, so it cannot cancel
    catastrophically the way mean(|nu|^2) - |mu_hat|^2 would. A window gets
    the same bits in any stack, contiguous or a strided view, as in a stack
    of its own: the mean sums over w in time order, time axis outermost, and
    each window's w * n centred squares, in a contiguous copy, are one sum.
    """
    k, w, n = nu.shape
    # numpy sums a lone channel pairwise, not in time order: n = 1 keeps those bits
    mu_hat = (np.add.reduce(nu, axis=1) if n == 1
              else np.add.reduce(nu.transpose(1, 0, 2), axis=0)) / w
    centred = np.array(nu)
    centred -= mu_hat[:, None]
    centred *= centred
    return mu_hat, np.add.reduce(centred.reshape(k, w * n), axis=1) / w


def window_statistics(nu: np.ndarray, baseline: BaselineStats):
    """Mean shift xi1 and trace shift xi2 of each window of a (k, w, n) stack, as
    two (k,) arrays; xi1 is sqrt(shift @ shift), one dot product per window in a
    stacked matmul, since a vectorized sum of squares rounds differently."""
    mu_hat, tr_hat = _moments(nu)
    shift = mu_hat - baseline.mu_star
    xi1 = np.sqrt(np.matmul(shift[:, None, :], shift[:, :, None])[:, 0, 0])
    return xi1, np.abs(tr_hat - baseline.trace)


# windows per window_statistics call: one 0.6 MB copy of the stack at w = 100 and n = 3
WINDOW_CHUNK = 256


def innovation_statistics(nu: np.ndarray, baseline: BaselineStats) -> np.ndarray:
    """xi1 and xi2 of a (k, n) innovation record, as the rows of a (2, k)
    array: column j holds the statistics of the window ending at row j, as
    dw_step gives them for the record's sample j, and zeros until the window
    is warm."""
    w, (k, n) = baseline.w, nu.shape
    nu = np.ascontiguousarray(nu, dtype=float)  # the windows are views of its buffer
    xi = np.zeros((2, k))
    for i in range(w - 1, k, WINDOW_CHUNK):  # i: the chunk's first row
        rows = nu[i - w + 1 : i + WINDOW_CHUNK]
        windows = np.ndarray((len(rows) - w + 1, w, n), float, rows, 0, (8 * n, 8 * n, 8))
        xi[:, i : i + WINDOW_CHUNK] = window_statistics(windows, baseline)
    return xi


def dw_step(
    state: DetectorState,
    baseline: BaselineStats,
    model: DiscreteModel,
    received_p: np.ndarray,
    d_omega_s_prev: np.ndarray,
    e_prev: np.ndarray,
    out: tuple[np.ndarray, np.ndarray, np.ndarray],
) -> tuple[bool, DetectorState]:
    """Advance the detector over k samples: predict, slide the innovation
    window, test, flag.

    Row j of the (k, n) received powers is sample j; row j of the commands
    and marks is what was applied over the control interval before it, which
    advances the prediction. Until the window is warm a sample is only
    accumulated, its statistics stay zero and its flag down. The windows of
    the new samples take their statistics from innovation_statistics, so any
    split of one stream into blocks gives the same bits. out receives each
    sample's xi1, xi2 and flag; the flag returned is the last sample's
    (False for k = 0).
    """
    received = np.asarray(received_p, dtype=float)
    x_hat, p_hat = predict_step(model, state.x_hat, d_omega_s_prev, e_prev)
    if received.shape != p_hat.shape:
        raise ValueError(f"received powers must be shaped {p_hat.shape}, as the predicted, "
                         "one row per command")
    w, k = baseline.w, received.shape[0]
    nu = np.concatenate([state.nu, received - p_hat])
    cold = min(max(w - 1 - state.count, 0), k)  # rows still in warm-up
    xi = np.zeros((2, k))
    xi[:, cold:] = innovation_statistics(nu[1 + cold :], baseline)[:, w - 1 :]
    flags = (xi[0] >= baseline.eps1) | (xi[1] >= baseline.eps2)
    flags[:cold] = False
    state.x_hat, state.nu[:], state.count = x_hat, nu[k:], state.count + k
    for dest, rows in zip(out, (*xi, flags)):
        dest[:] = rows
    return bool(k) and bool(flags[-1]), state
