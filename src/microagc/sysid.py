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
matrix product, not a replay of the recursion. The regressor comes from
_recursion_rows, the one blocked linear recursion, which also runs the plant
for casestudy's identification records: about 3 sqrt(K) Python steps (191 for
K = 4,001) instead of K, with rows equal to the sample-by-sample recursion up
to rounding. predict and the detector's prediction share _replay, which keeps
the sample-by-sample bits and runs only A x in a Python step per sample.

The candidates of a record share one QR through a FitWorkspace. The LQ factor
of [U; Y] at the largest block-row count, top, is a QR of the transposed
stack taken LQ_CHUNK_ROWS rows at a time, whose bits do not depend on the BLAS
thread count. Every smaller count's Hankels are a row subset of that stack
plus a few tail columns, so its factor is a small QR of the top factor's
columns of those rows with the tail columns stacked under them (the TSQR
idea). A lone identify is the one-count case: at the top count the model is
bit-equal to the lone one, at smaller counts equal up to rounding. The input
Hankel rank check needs no factorization of its own: U_h's singular values are
those of the LQ factor's L11 block.
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
UNSTABLE_RADIUS = 1.0 + 1e-9  # a model whose A reaches this spectral radius is unstable
LQ_CHUNK_ROWS = 512  # Hankel columns per QR step of the LQ factorization


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
        from .simcore import ScenarioError  # simcore imports this module

        if self.dt_prime <= self.dt:
            raise ScenarioError(f"pulse width dt_prime = {self.dt_prime} s must exceed the "
                                f"control period {self.dt} s", field="dt_prime")
        self.pulse_samples  # a whole number of samples
        if not (np.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"amplitude bound beta must be finite and >= 0, got {self.beta}")
        if self.k0 < 1:
            raise ValueError(f"record length k0 must be >= 1, got {self.k0}")

    @property
    def pulse_samples(self) -> int:
        """Samples per level, dt_prime / dt; a ScenarioError at dt_prime unless
        whole (simcore.whole_steps)."""
        from .simcore import ScenarioError, whole_steps  # simcore imports this module

        try:
            return whole_steps(self.dt_prime, self.dt, "dt_prime")
        except ScenarioError as exc:
            raise ScenarioError(str(exc), field="dt_prime") from None


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
        if self.spectral_radius >= UNSTABLE_RADIUS:
            log.warning("identified model is unstable (spectral radius %.6f)",
                        self.spectral_radius)

    @property
    def spectral_radius(self) -> float:
        """Largest eigenvalue modulus of a_d (0 for an order-0 model)."""
        return float(np.max(np.abs(np.linalg.eigvals(self.a_d)), initial=0.0))

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


def generate_excitation(spec: ExcitationSpec, n_channels: int) -> np.ndarray:
    """Sample the staircase excitation on all channels: (k0 + 1, n) array.

    Each channel holds an independent uniform [-beta, beta] level for
    spec.pulse_samples = dt_prime / dt consecutive samples.
    """
    rng = np.random.default_rng(spec.seed)
    per_pulse = spec.pulse_samples
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

    The workspace is built from the record and its candidate orders. The
    block-row counts i = max(2d, 8) of the orders that pass identify's
    record-length check are known up front, so one QR of the stacked Hankel at
    the largest count gives every count's LQ factor, L22 SVD and Hankel rank
    check (_projected_factors); the workspace keeps one result per count (the
    SVD factors, or the excitation error) and identify reads it. identify also
    leaves the B/x0 regressor of its last fit in `regressor`, which `score`
    reads and drops. identify must be called with the same (samples, channels)
    arrays the workspace was built from.
    """

    def __init__(self, u: np.ndarray, y: np.ndarray, orders):
        self._record = (u, y)
        counts = set()
        for d in orders:
            try:
                _check_order(u.shape[0], u.shape[1], y.shape[1], d)
                counts.add(_block_rows(d))
            except IdentificationError:
                pass  # identify rejects the order before it reads a factor
        self._factors = _projected_factors(u, y, counts) if counts else {}
        self.regressor: np.ndarray | None = None

    def factors(self, u: np.ndarray, y: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The left singular vectors and singular values of count i's L22."""
        if self._record[0] is not u or self._record[1] is not y:
            raise ValueError("workspace was built for another record")
        if i not in self._factors:
            raise ValueError(f"workspace was built without block-row count {i}")
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


def _block_rows(d: int) -> int:
    """Block-row count i of the Hankels an order-d fit reads."""
    return max(2 * d, 8)


def _check_order(n_samples: int, m: int, n_out: int, d: int) -> None:
    """Raise IdentificationError unless the record supports an order-d fit."""
    if d < 1:
        raise IdentificationError(f"model order must be >= 1, got {d}")
    if n_samples < 10 * d * max(m, n_out):
        raise IdentificationError(
            f"record too short: {n_samples} samples for order {d} with "
            f"{m} inputs / {n_out} outputs"
        )


def _r_factor(rows: np.ndarray) -> np.ndarray:
    """R of a QR of rows, with R^T R = rows^T rows, taken LQ_CHUNK_ROWS rows at
    a time: R <- qr([R; next chunk]). Each QR stays small, and its bits do not
    depend on the BLAS thread count, which a single QR of a long record's
    Hankel does."""
    r = rows[:0]
    for start in range(0, rows.shape[0], LQ_CHUNK_ROWS):
        r = np.linalg.qr(np.vstack([r, rows[start : start + LQ_CHUNK_ROWS]]), mode="r")
    return r


def _lq_factors(u: np.ndarray, y: np.ndarray, counts) -> dict[int, np.ndarray]:
    """The lower-triangular LQ factor L_i of [U_i; Y_i], the i-block-row
    Hankels of the record, for every count i in counts, from one QR.

    The QR is of the transposed stack at the largest count, top. For i < top,
    U_i's and Y_i's rows are rows of that stack, over its j columns plus
    top - i tail columns of their own. So R's columns of those rows, with the
    tail columns stacked under them, have the Gram matrix H_i H_i^T, and a
    small QR of that block gives L_i (L_i L_i^T = H_i H_i^T).
    """
    m, n_out = u.shape[1], y.shape[1]
    top = max(counts)
    j = u.shape[0] - top + 1
    r = _r_factor(np.vstack([_hankel(u, top, j), _hankel(y, top, j)]).T)
    factors = {top: r.T}
    for i in set(counts) - {top}:
        picked = np.r_[0 : m * i, m * top : m * top + n_out * i]  # U_i's, Y_i's rows
        tail = np.vstack([_hankel(u[j:], i, top - i), _hankel(y[j:], i, top - i)]).T
        factors[i] = _r_factor(np.vstack([r[:, picked], tail])).T
    return factors


def _projected_factors(
    u: np.ndarray, y: np.ndarray, counts
) -> dict[int, tuple[np.ndarray, np.ndarray] | InsufficientExcitationError]:
    """Left singular vectors and singular values of the LQ block L22 of the
    i-block-row Hankels, for every count i in counts; an i whose input Hankel
    is rank deficient maps to its InsufficientExcitationError instead.

    The rank check reads the singular values of the L11 block: U_h = L11 Q1^T
    with orthonormal rows in Q1^T, so they are U_h's own. With fewer Hankel
    columns j than input rows the slice is L's whole (m i, j) top block, whose
    j < m i singular values cannot give U_h full row rank.
    """
    m = u.shape[1]
    excited = bool(np.any(np.abs(u) > 0.0))
    found = {}
    for i, l_fac in _lq_factors(u, y, counts).items():
        mi = m * i
        if excited:
            u_sv = np.linalg.svd(l_fac[:mi, :mi], compute_uv=False)
            if u_sv.size < mi or u_sv[-1] <= RANK_RTOL * u_sv[0]:
                found[i] = InsufficientExcitationError(
                    f"input Hankel rank {int(np.sum(u_sv > RANK_RTOL * u_sv[0]))} "
                    f"< {mi} rows; excitation not persistently exciting"
                )
                continue
        # L22 spans the output rows projected onto the orthogonal complement
        # of the input rows
        found[i] = tuple(np.linalg.svd(l_fac[mi:, mi:], full_matrices=False)[:2])
    return found


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
    modes are zero-padded and effective_order records the supported count.
    Without a workspace the fit reads a one-order FitWorkspace of its own, the
    one-count case of the shared QR. With one, the factors come from the
    workspace's QR at its largest block-row count, and the B/x0 regressor of
    the fit is left in it.
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
    _check_order(n_samples, m, n_out, d)
    work = workspace if workspace is not None else FitWorkspace(u, y, (d,))
    u_sv, s_sv = work.factors(u, y, _block_rows(d))

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

    b_core, _, work.regressor = _fit_input_matrix(a_core, c_core, u, y)

    a_d = np.zeros((d, d))
    b_d = np.zeros((d, m))
    c_d = np.zeros((n_out, d))
    a_d[:d_eff, :d_eff] = a_core
    b_d[:d_eff] = b_core
    c_d[:, :d_eff] = c_core
    return DiscreteModel(a_d, b_d, c_d, dt=dt, order=d, effective_order=d_eff)


def _recursion_rows(a: np.ndarray, start: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Rows R[0..K-1] of R[0] = start, R[k+1] = R[k] @ a + drive[k], for K drive
    rows shaped like start, in two levels of about sqrt(K) steps: blocks of
    p = ceil(sqrt(K)) samples run their local recursions L[q, s] from zero at
    once, the block starts follow S[q + 1] = S[q] A^p + L[q, p], and
    R[q p + s] = S[q] A^s + L[q, s] is one product per block. The rows equal
    the stepwise recursion up to rounding. They are written over drive, which
    the caller gives up: no second array of the rows' size is held."""
    shape, n_samples, n = np.shape(start), drive.shape[0], a.shape[0]
    rows = drive.reshape(n_samples, -1, n)  # D[k], then L[q, s], then R[k]
    width = rows.shape[1]
    p = math.isqrt(n_samples - 1) + 1  # ceil(sqrt(K))
    n_blocks = -(-n_samples // p)
    local = np.zeros((n_blocks, width, n))
    for s in range(p):
        reach = -(-(n_samples - s) // p)  # the blocks that reach s
        d = rows[s::p].copy()
        rows[s::p] = local[:reach]
        local = local @ a
        local[:reach] += d
    powers = np.empty((p + 1, n, n))
    powers[0] = np.eye(n)
    for s in range(p):
        powers[s + 1] = powers[s] @ a
    start = np.reshape(start, (width, n))
    for q in range(n_blocks):
        block = rows[q * p:(q + 1) * p]
        block += start @ powers[:len(block)]
        start = start @ powers[p] + local[q]
    return rows.reshape(n_samples, *shape)


def _fit_input_matrix(a, c, u, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least squares for B and x0 with A, C fixed (no feedthrough term).

    y[k] = C A^k x0 + sum_{tau<k} C A^(k-1-tau) B u[tau]. One stacked state
    recursion R[k+1] = R[k] A + D[k] (_recursion_rows) over (m + 1) row blocks
    of n_out rows builds the whole regressor: block j < m starts at zero and is
    driven by D[k]_j = u_j[k] C, giving the rows of y[k] in column j of B; the
    last block starts at C and is never driven, giving C A^k, the rows of x0.

    Returns B, x0 and the (samples * n_out, (m + 1) n) regressor, whose
    product with [vec(B); x0] (vec input-major) is the model's prediction.
    """
    (n_samples, m), (n_out, n) = u.shape, c.shape
    drive = np.zeros((n_samples, m + 1, n_out, n))
    drive[:, :m] = u[:, :, None, None] * c
    start = np.zeros((m + 1, n_out, n))
    start[m] = c
    # (sample, block, output, state) -> (sample, output, block, state): each
    # output row reads [vec(B) input-major | x0]
    reg = _recursion_rows(a, start, drive).transpose(0, 2, 1, 3).reshape(
        n_samples * n_out, (m + 1) * n)
    del drive
    sol, *_ = np.linalg.lstsq(reg, y.reshape(-1), rcond=None)
    b = sol[: m * n].reshape(m, n).T     # vec with input-major blocks
    x0 = sol[m * n :]
    return b, x0, reg


def _replay(model: DiscreteModel, x, v) -> tuple[np.ndarray, np.ndarray]:
    """The (k + 1, order) states x[0] = x, x[j + 1] = A x[j] + B v[j] over the k
    rows of v, and their outputs C x[j]. B v[j] and C x[j] are one stacked
    matmul each, which makes the gemv of each row alone: the row-by-row bits."""
    states = np.empty((v.shape[0] + 1, model.order, 1))  # columns, as matmul writes them
    states[0, :, 0] = x
    np.matmul(model.b_d, v[:, :, None], out=states[1:])
    rows = states[:, :, 0]
    for j in range(v.shape[0]):
        rows[j + 1] += model.a_d @ rows[j]
    return rows, np.matmul(model.c_d, states)[:, :, 0]


def predict(model: DiscreteModel, x0: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Run the model recursion: y[k] = C x[k], x[k] = A x[k-1] + B u[k-1]; a
    0-row record gives a (0, n_outputs) prediction."""
    u = _as_record(u)
    if u.shape[1] != model.n_inputs:
        raise ValueError(f"expected {model.n_inputs} input channels, got {u.shape[1]}")
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.order,):
        raise ValueError(f"initial state must have {model.order} entries")
    return _replay(model, x, u[:-1])[1][: u.shape[0]]


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


def candidate_orders(candidates) -> tuple[int, ...]:
    """The candidate order set as sorted distinct ints; an empty set is a
    ScenarioError of the field candidates."""
    from .simcore import ScenarioError  # simcore imports this module
    if not (orders := tuple(sorted(set(int(c) for c in candidates)))):
        raise ScenarioError("candidate order set is empty", "candidates")
    return orders


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
    All candidates share one QR of the stacked Hankel (a FitWorkspace): each
    block-row count's LQ factor, L22 SVD and Hankel rank check derive from the
    factor at the largest count. A model at that count is the one a lone
    identify call returns bit for bit; one at a smaller count equals it up to
    rounding (Markov parameters within 1e-12 of their peak). Per-candidate
    identification failures are recorded; the selection fails only if every
    candidate does. Ties break toward the smallest order.
    """
    candidates = candidate_orders(candidates)
    u = _as_record(u)
    y = _as_record(y)
    work = FitWorkspace(u, y, candidates)
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
    report = OrderReport(candidates=candidates, eta=eta, d_star=d_star, failures=failures)
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
    f = BlockFile(path, MODEL_KEYS, ("a", "b", "c"))
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
    """Read a record written by save_records, its columns by name: time, u1..uN
    and y1..yM, in any order, each once and no other; raises ConfigError naming
    the bad line, at line 1 the bad or missing column. Its samples are uniform:
    t_k = t_0 + k dt, with dt = t_1 - t_0 > 0, to the relative tolerance 1e-9
    of simcore.whole_steps."""
    with open(path, encoding="utf-8") as fh:  # the header, checked before any row is read
        header = fh.readline().strip().split(",")
    n_u, n_y = (max(1, sum(c[:1] == p and c[1:].isdigit() for c in header)) for p in "uy")
    names = ["time", *(f"u{i + 1}" for i in range(n_u)), *(f"y{i + 1}" for i in range(n_y))]
    for i, column in enumerate(header):
        if column not in names or column in header[:i]:
            raise ConfigError(f"{path}: line 1: unexpected record column {column!r}: a record "
                              "holds time, u1..uN and y1..yM, each once")
    _, data = read_table(path, names)  # a missing name is refused at line 1
    t, bad = data[:, 0], None
    if t.shape[0] > 1 and not (dt := t[1] - t[0]) > 0:
        bad, rule = 1, f"does not follow t_0 = {t[0]:.9g} s: the step t_1 - t_0 must be > 0"
    elif t.shape[0] > 1:
        ratio = (t - t[0]) / dt  # k at row k; a NaN fails the test too
        if (rows := np.flatnonzero(~(np.abs(ratio - np.arange(t.shape[0])) <= 1e-9 * ratio))).size:
            bad = rows[0]
            rule = f"is not t_0 + {bad} dt = {t[0] + bad * dt:.9g} s, dt = t_1 - t_0 = {dt:.9g} s"
    if bad is not None:
        with open(path, encoding="utf-8") as fh:  # the row's line: read_table skips blank lines
            line = [n for n, text in enumerate(fh, start=1) if text.strip()][bad + 1]
        raise ConfigError(f"{path}: line {line}: time {t[bad]:.9g} s {rule}")
    return t, data[:, 1 : 1 + n_u], data[:, 1 + n_u :]
