"""Data-driven discrete prediction model: excitation design, deterministic
subspace identification, and prediction-error order selection.

The identification follows the deterministic subspace recipe: block-Hankel
matrices of inputs and outputs, projection of the output rows onto the
orthogonal complement of the input rows (LQ factorization), SVD truncation to
the requested order for the extended observability matrix, shift-invariance
least squares for the state matrix, and a final linear least-squares pass for
the input matrix and initial state. Only similarity-invariant quantities
(Markov parameters, prediction error) are contractual; raw matrix entries are
basis dependent.

Order selection fits every candidate order and scores it by prediction error.
The score reuses the candidate's own fit: the B/x0 regressor already holds
every row [forced response | C A^k], so the prediction over the record is one
matrix product, not a replay of the recursion. The regressor itself comes from
a blocked recursion: the K samples are cut into blocks of p = ceil(sqrt(K)),
every block's local recursion runs at once, a second recursion over the
blocks carries their starts forward by A^p, and one batched product with the
powers A^0..A^(p-1) joins the two, so a fit takes about 3 sqrt(K) Python steps
(191 for K = 4,001) instead of K. Its rows equal the sample-by-sample
recursion up to rounding; predict keeps the sample-by-sample form, bit-equal
to the streaming detector's. Candidates with the same block-row count share
one LQ factorization of [U; Y], its L22 SVD and the input Hankel rank check
through a FitWorkspace. The rank check needs no factorization of its own:
U_h's singular values are those of the LQ factor's L11 block.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import defaults
from .netmodel import _readonly
from .textio import COUNT, INDEX, REAL, BlockFile, ConfigError, read_table, write_table

log = logging.getLogger(__name__)

RANK_RTOL = 1e-10  # singular values below this (relative) carry no signal


class IdentificationError(RuntimeError):
    """Raised when a model cannot be identified from the given records."""


class InsufficientExcitationError(IdentificationError):
    """Input record is not persistently exciting for the requested order."""


@dataclass(frozen=True)
class ExcitationSpec:
    """Staircase excitation: i.i.d. uniform levels held for dt_prime each."""

    dt: float = defaults.CONTROL_PERIOD
    dt_prime: float = defaults.SYSID_DT_PRIME
    beta: float = defaults.SYSID_BETA
    k0: int = defaults.SYSID_K0
    seed: int = 0

    def __post_init__(self):
        if self.dt_prime <= self.dt:
            raise ValueError("pulse width dt_prime must exceed the sample time dt")
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"amplitude bound beta must be finite and >= 0, got {self.beta}")
        if self.k0 < 1:
            raise ValueError(f"record length k0 must be >= 1, got {self.k0}")


@dataclass(frozen=True)
class DiscreteModel:
    """Identified (a_d, b_d, c_d) prediction model at sample time dt.

    order is the requested model order; effective_order is the number of modes
    actually supported by the data (the rest are zero-padded).
    """

    a_d: np.ndarray
    b_d: np.ndarray
    c_d: np.ndarray
    dt: float
    order: int
    effective_order: int = -1

    def __post_init__(self):
        object.__setattr__(self, "a_d", _readonly(self.a_d))
        object.__setattr__(self, "b_d", _readonly(self.b_d))
        object.__setattr__(self, "c_d", _readonly(self.c_d))
        if self.effective_order < 0:
            object.__setattr__(self, "effective_order", self.order)
        if self.order > 0:
            rho = float(np.max(np.abs(np.linalg.eigvals(self.a_d))))
            if rho >= 1.0 + 1e-9:
                log.warning("identified model is unstable (spectral radius %.6f)", rho)

    @property
    def n_inputs(self) -> int:
        return self.b_d.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c_d.shape[0]


@dataclass(frozen=True)
class OrderReport:
    """Prediction error per candidate order and the selected minimizer; eta
    values within numerical noise of the minimum tie, and a tie resolves to the
    smallest order.
    """

    candidates: tuple[int, ...]
    eta: dict[int, float]
    d_star: int
    failures: dict[int, str] = field(default_factory=dict)
    init_state_samples: int = 0


def generate_excitation(spec: ExcitationSpec, n_channels: int) -> np.ndarray:
    """Sample the staircase excitation on all channels: (k0 + 1, n) array.

    Each channel holds an independent uniform [-beta, beta] level for
    dt_prime / dt consecutive samples.
    """
    rng = np.random.default_rng(spec.seed)
    per_pulse = int(round(spec.dt_prime / spec.dt))
    n_samples = spec.k0 + 1
    n_pulses = -(-n_samples // per_pulse)
    levels = rng.uniform(-spec.beta, spec.beta, size=(n_pulses, n_channels))
    return np.repeat(levels, per_pulse, axis=0)[:n_samples]


def _hankel(data: np.ndarray, n_rows: int, n_cols: int) -> np.ndarray:
    """Block Hankel with n_rows block rows; data is (samples, channels)."""
    ch = data.shape[1]
    out = np.empty((n_rows * ch, n_cols))
    for r in range(n_rows):
        out[r * ch : (r + 1) * ch] = data[r : r + n_cols].T
    return out


def _as_record(arr: np.ndarray) -> np.ndarray:
    """Coerce to (samples, channels); 1-D input becomes a single channel."""
    arr = np.asarray(arr, dtype=float)
    if arr.ndim == 1:
        return arr[:, None]
    return arr


class FitWorkspace:
    """What the candidate orders of one record share during order selection.

    The LQ factorization of [U; Y], the SVD of its L22 block and the one
    Hankel rank check (on the singular values of its L11 block) depend only on
    the record and the block-row count i, so identify keeps one result per i
    here (the SVD factors, or the excitation error) and orders with the same i
    reuse it. identify also leaves the B/x0 regressor of its last fit in
    `regressor`, which `score` reads and drops. A workspace belongs to the
    record of its first identify call.
    """

    def __init__(self):
        self._record: tuple[np.ndarray, np.ndarray] | None = None
        self._factors: dict[int, tuple[np.ndarray, np.ndarray] | IdentificationError] = {}
        self.regressor: np.ndarray | None = None

    def factors(self, u: np.ndarray, y: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """_projected_factors(u, y, i), computed once per i."""
        if self._record is None:
            self._record = (u, y)
        elif self._record[0] is not u or self._record[1] is not y:
            raise ValueError("workspace was built for another record")
        if i not in self._factors:
            try:
                self._factors[i] = _projected_factors(u, y, i)
            except InsufficientExcitationError as exc:
                self._factors[i] = exc
        found = self._factors[i]
        if isinstance(found, IdentificationError):
            raise found
        return found

    def score(self, model: DiscreteModel, x0: np.ndarray, y: np.ndarray) -> float:
        """Mean per-sample 2-norm error of the model's prediction from x0.

        The prediction is the last fit's regressor times [vec(B); x0], the same
        sum as predict's recursion in another order; a model of effective
        order 0 predicts zero.
        """
        reg, self.regressor = self.regressor, None
        d_eff = model.effective_order
        if d_eff == 0:
            return float(np.mean(np.linalg.norm(y, axis=1)))
        theta = np.concatenate([model.b_d[:d_eff].T.ravel(), x0[:d_eff]])
        y_hat = (reg @ theta).reshape(y.shape)
        return float(np.mean(np.linalg.norm(y_hat - y, axis=1)))


def _projected_factors(u: np.ndarray, y: np.ndarray, i: int):
    """Left singular vectors and singular values of the LQ block L22 of the
    i-block-row Hankels; raises InsufficientExcitationError when the input
    Hankel is rank deficient.

    The rank check reads the singular values of the L11 block: U_h = L11 Q1^T
    with orthonormal rows in Q1^T, so they are U_h's own. With fewer Hankel
    columns j than input rows the slice is L's whole (m i, j) top block, whose
    j < m i singular values cannot give U_h full row rank.
    """
    m = u.shape[1]
    j = u.shape[0] - i + 1
    u_h = _hankel(u, i, j)
    y_h = _hankel(y, i, j)

    # LQ factorization of [U; Y]: the L22 block spans the output rows projected
    # onto the orthogonal complement of the input rows.
    stacked = np.vstack([u_h, y_h])
    l_fac = np.linalg.qr(stacked.T, mode="r").T

    if np.any(np.abs(u) > 0.0):
        u_sv = np.linalg.svd(l_fac[: m * i, : m * i], compute_uv=False)
        if u_sv.size < m * i or u_sv[-1] <= RANK_RTOL * u_sv[0]:
            raise InsufficientExcitationError(
                f"input Hankel rank {int(np.sum(u_sv > RANK_RTOL * u_sv[0]))} "
                f"< {u_h.shape[0]} rows; excitation not persistently exciting"
            )

    l22 = l_fac[m * i :, m * i :]
    u_sv, s_sv, _ = np.linalg.svd(l22, full_matrices=False)
    return u_sv, s_sv


def identify(
    u: np.ndarray,
    y: np.ndarray,
    d: int,
    dt: float = 0.0,
    *,
    workspace: FitWorkspace | None = None,
) -> DiscreteModel:
    """Fit an order-d discrete model to (samples, channels) records.

    Raises InsufficientExcitationError when the input Hankel is rank deficient.
    When the projected output data supports fewer than d modes, the unsupported
    modes are zero-padded and effective_order records the supported count. With a
    workspace, the factors of the record are shared with the workspace's other
    orders and the B/x0 regressor of the fit is left in it.
    """
    u = _as_record(u)
    y = _as_record(y)
    if workspace is not None:
        workspace.regressor = None
    if u.shape[0] != y.shape[0]:
        raise IdentificationError(
            f"input and output records differ in length: {u.shape[0]} vs {y.shape[0]}"
        )
    n_samples, m = u.shape
    n_out = y.shape[1]
    if d < 1:
        raise IdentificationError(f"model order must be >= 1, got {d}")
    if n_samples < 10 * d * max(m, n_out):
        raise IdentificationError(
            f"record too short: {n_samples} samples for order {d} with "
            f"{m} inputs / {n_out} outputs"
        )
    i = max(2 * d, 8)
    if workspace is None:
        u_sv, s_sv = _projected_factors(u, y, i)
    else:
        u_sv, s_sv = workspace.factors(u, y, i)

    s_max = s_sv[0] if s_sv.size else 0.0
    rank = int(np.sum(s_sv > RANK_RTOL * max(s_max, 1e-300)))
    d_eff = min(d, rank)
    if d_eff < d:
        log.debug("identify: order %d requested, data supports %d", d, rank)

    if d_eff == 0:
        a_d = np.zeros((d, d))
        b_d = np.zeros((d, m))
        c_d = np.zeros((n_out, d))
        return DiscreteModel(a_d, b_d, c_d, dt=dt, order=d, effective_order=0)

    gamma = u_sv[:, :d_eff] * np.sqrt(s_sv[:d_eff])
    a_core, *_ = np.linalg.lstsq(gamma[:-n_out], gamma[n_out:], rcond=None)
    c_core = gamma[:n_out]

    b_core, _, reg = _fit_input_matrix(a_core, c_core, u, y)
    if workspace is not None:
        workspace.regressor = reg

    a_d = np.zeros((d, d))
    b_d = np.zeros((d, m))
    c_d = np.zeros((n_out, d))
    a_d[:d_eff, :d_eff] = a_core
    b_d[:d_eff] = b_core
    c_d[:, :d_eff] = c_core
    return DiscreteModel(a_d, b_d, c_d, dt=dt, order=d, effective_order=d_eff)


def _fit_input_matrix(a, c, u, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares for B and x0 with A, C fixed (no feedthrough term).

    y[k] = C A^k x0 + sum_{tau<k} C A^(k-1-tau) B u[tau]. One stacked state
    recursion R[k+1] = R[k] A + D[k] over (m + 1) row blocks of n_out rows
    builds the whole regressor: block j < m starts at zero and is driven by
    D[k]_j = u_j[k] C, giving the rows of y[k] in column j of B; the last
    block starts at C and is never driven, giving C A^k, the rows of x0.

    The recursion runs in two levels of about sqrt(K) steps each over the K
    samples, cut into blocks of p = ceil(sqrt(K)) samples (the last one padded
    with zero drive): every block's local recursion L[q, s] from a zero start
    at once, then the block starts S[q + 1] = S[q] A^p + L[q, p], and every row
    R[q p + s] = S[q] A^s + L[q, s] in one batched product. The rows equal the
    sample-by-sample recursion up to rounding.

    Returns B, x0 and the (samples * n_out, (m + 1) n) regressor, whose
    product with [vec(B); x0] (vec input-major) is the model's prediction.
    """
    n = a.shape[0]
    n_out, _ = c.shape
    n_samples, m = u.shape
    width = (m + 1) * n_out
    p = math.isqrt(n_samples - 1) + 1  # ceil(sqrt(K))
    n_blocks = -(-n_samples // p)
    drive = np.zeros((n_blocks * p, m + 1, n_out, n))
    drive[:n_samples, :m] = u[:, :, None, None] * c
    drive = drive.reshape(n_blocks, p, width, n)
    rows = np.empty((n_blocks, p, width, n))  # L[q, s], then R[q p + s]
    local = np.zeros((n_blocks, width, n))
    for s in range(p):
        rows[:, s] = local
        local = local @ a + drive[:, s]
    del drive  # local is L[q, p]
    powers = np.empty((p + 1, n, n))
    powers[0] = np.eye(n)
    for s in range(p):
        powers[s + 1] = powers[s] @ a
    starts = np.empty((n_blocks, width, n))
    start = np.zeros((width, n))
    start[m * n_out :] = c
    for q in range(n_blocks):
        starts[q] = start
        start = start @ powers[p] + local[q]
    rows += starts[:, None] @ powers[:p]
    rows = rows.reshape(n_blocks * p, m + 1, n_out, n)[:n_samples]
    # (sample, block, output, state) -> (sample, output, block, state): each
    # output row reads [vec(B) input-major | x0]
    reg = rows.transpose(0, 2, 1, 3).reshape(n_samples * n_out, (m + 1) * n)
    del rows
    sol, *_ = np.linalg.lstsq(reg, y.reshape(-1), rcond=None)
    b = sol[: m * n].reshape(m, n).T     # vec with input-major blocks
    x0 = sol[m * n :]
    return b, x0, reg


def predict(model: DiscreteModel, x0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Run the model recursion: y[k] = C x[k], x[k] = A x[k-1] + B u[k-1]."""
    u = _as_record(u)
    if u.shape[1] != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} input channels, got {u.shape[1]}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.order,):
        raise ValueError(f"initial state must have {model.order} entries")
    n_samples = u.shape[0]
    y = np.empty((n_samples, model.n_outputs))
    y[0] = model.c_d @ x
    for k in range(1, n_samples):
        x = model.a_d @ x + model.b_d @ u[k - 1]
        y[k] = model.c_d @ x
    return y


def estimate_initial_state(
    model: DiscreteModel, u: np.ndarray, y: np.ndarray, n_samples: int
) -> np.ndarray:
    """Least-squares x0 from the first n_samples of the record."""
    u = _as_record(u)
    y = _as_record(y)
    n_use = min(n_samples, u.shape[0])
    forced = predict(model, np.zeros(model.order), u[:n_use])
    free = y[:n_use] - forced
    rows = np.empty((n_use, model.n_outputs, model.order))
    phi = model.c_d.copy()
    for k in range(n_use):
        rows[k] = phi
        phi = phi @ model.a_d
    x0, *_ = np.linalg.lstsq(rows.reshape(n_use * model.n_outputs, model.order),
                             free.reshape(-1), rcond=None)
    return x0


def select_order(
    u: np.ndarray,
    y: np.ndarray,
    candidates=defaults.ORDER_CANDIDATES,
    dt: float = 0.0,
) -> tuple[OrderReport, DiscreteModel]:
    """Fit every candidate order, score by prediction error, keep the minimizer.

    The initial state for scoring is estimated from the first max(2d, 20)
    samples; the report records that count for d*. A candidate is scored from
    its own fit: the prediction over the record is the fit's B/x0 regressor
    times [vec(B); x0], equal to predict's replay from x0 up to rounding.
    Candidates with the same block-row count share one LQ factorization, its
    L22 SVD and the Hankel rank check read from its L11 block (a
    FitWorkspace), so each model is the one a lone identify call returns.
    Per-candidate identification failures are recorded; the selection fails
    only if every candidate does. Ties break toward the smallest order.
    """
    candidates = tuple(sorted(set(int(c) for c in candidates)))
    if not candidates:
        raise IdentificationError("candidate order set is empty")
    u = _as_record(u)
    y = _as_record(y)
    work = FitWorkspace()
    eta: dict[int, float] = {}
    failures: dict[int, str] = {}
    models: dict[int, DiscreteModel] = {}
    for d in candidates:
        try:
            model = identify(u, y, d, dt=dt, workspace=work)
            x0 = estimate_initial_state(model, u, y, max(2 * d, 20))
            eta[d] = work.score(model, x0, y)
            models[d] = model
        except IdentificationError as exc:
            failures[d] = str(exc)
    if not eta:
        raise IdentificationError(
            "all candidate orders failed: "
            + "; ".join(f"d={d}: {msg}" for d, msg in failures.items())
        )
    # scores within numerical noise of the minimum count as ties; prefer the
    # smallest order among them
    y_scale = float(np.mean(np.linalg.norm(y, axis=1)))
    tol = 1e-9 * max(y_scale, 1.0)
    eta_min = min(eta.values())
    d_star = min(d for d, v in eta.items() if v <= eta_min + tol)
    report = OrderReport(
        candidates=candidates,
        eta=eta,
        d_star=d_star,
        failures=failures,
        init_state_samples=max(2 * d_star, 20),
    )
    return report, models[d_star]


def save_model(model: DiscreteModel, path) -> None:
    """Persist a model as structured text with row-major decimal matrices."""
    BlockFile.write(path, {
        "order": model.order, "effective_order": model.effective_order, "dt": model.dt,
        "n_inputs": model.n_inputs, "n_outputs": model.n_outputs,
    }, {"a": model.a_d, "b": model.b_d, "c": model.c_d})


MODEL_KEYS = {"order": COUNT, "effective_order": INDEX, "dt": REAL, "n_inputs": COUNT,
              "n_outputs": COUNT}  # a model file's header keys and their domains


def load_model(path) -> DiscreteModel:
    """Read a model persisted by save_model."""
    f = BlockFile(path, MODEL_KEYS)
    order, n_in, n_out = (f.value(k) for k in ("order", "n_inputs", "n_outputs"))
    return DiscreteModel(
        a_d=f.block("a", order, order), b_d=f.block("b", order, n_in),
        c_d=f.block("c", n_out, order), dt=f.value("dt"), order=order,
        effective_order=f.value("effective_order", order),
    )


def save_records(path, t: np.ndarray, u: np.ndarray, y: np.ndarray) -> None:
    """Write an identification record as CSV: time, u1..uN, y1..yN."""
    u = np.atleast_2d(u)
    y = np.atleast_2d(y)
    names = (["time"] + [f"u{i + 1}" for i in range(u.shape[1])]
             + [f"y{i + 1}" for i in range(y.shape[1])])
    write_table(path, names, [t, *u.T, *y.T])


def load_records(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read a record written by save_records; raises ConfigError naming the
    bad line."""
    header, data = read_table(path)
    n_u = sum(1 for c in header if c.startswith("u"))
    n_y = sum(1 for c in header if c.startswith("y"))
    if header[0] != "time" or n_u == 0 or n_y == 0:
        raise ConfigError(f"{path}: line 1: bad record header {header!r}")
    return data[:, 0], data[:, 1 : 1 + n_u], data[:, 1 + n_u :]
