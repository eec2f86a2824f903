"""Watermark and detector tests: draw statistics, prediction recursion,
window discipline, flag semantics, and the replay-attack property."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import microagc as m
from microagc import casestudy as cs, cli
from microagc.textio import ConfigError
from microagc.watermark import WINDOW_CHUNK, DetectorState


def _window_alone(win, baseline):
    """xi1 and xi2 of one (w, n) window by the scalar arithmetic: the mean
    over w, sqrt(shift @ shift), and the centred sum of squares over w."""
    w = win.shape[0]
    mu_hat = np.add.reduce(win, axis=0) / w
    shift = mu_hat - baseline.mu_star
    centred = win - mu_hat
    tr_hat = float(np.add.reduce((centred * centred).ravel())) / w
    return math.sqrt(shift @ shift), abs(tr_hat - baseline.trace)


def _step(state, baseline, model, received, command, mark):
    """One sample as a (1, n) block: (flag, xi1, xi2) as dw_step writes them."""
    xi1, xi2, flags = np.full(1, np.nan), np.full(1, np.nan), np.zeros(1, bool)
    flag, _ = m.dw_step(state, baseline, model, received[None], command[None], mark[None],
                        out=(xi1, xi2, flags))
    assert flag == flags[0]
    return flag, float(xi1[0]), float(xi2[0])


def toy_model(n=2):
    rng = np.random.default_rng(0)
    a = 0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n))
    a *= 0.8 / max(np.abs(np.linalg.eigvals(a)))
    return m.DiscreteModel(
        a_d=a, b_d=np.eye(n), c_d=np.eye(n), dt=0.005, order=n
    )


class TestWatermarkSource:
    """The watermark's configuration; a run's draws are tested in test_simcore."""

    def test_std_validation(self):
        for std in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="watermark std must be finite and >= 0"):
                m.WatermarkConfig(std)


class TestPredictStep:
    def test_no_watermark_reduces_to_model_recursion(self):
        model = toy_model()
        x = np.array([0.3, -0.1])
        u = np.array([[0.05, 0.02], [-0.01, 0.03]])
        x2, p = m.predict_step(model, x, u, np.zeros((2, 2)))
        x1 = model.a_d @ x + model.b_d @ u[0]
        np.testing.assert_allclose(p[0], model.c_d @ x1)
        np.testing.assert_allclose(x2, model.a_d @ x1 + model.b_d @ u[1])
        np.testing.assert_allclose(p[1], model.c_d @ x2)

    def test_superposition_of_watermark(self):
        model = toy_model()
        x = np.array([0.3, -0.1])
        u = np.array([[0.05, 0.02]])
        e = np.array([[0.01, -0.02]])
        _, p_marked = m.predict_step(model, x, u, e)
        _, p_plain = m.predict_step(model, x, u, np.zeros((1, 2)))
        _, p_only = m.predict_step(model, np.zeros(2), np.zeros((1, 2)), e)
        np.testing.assert_allclose(p_marked - p_plain, p_only, atol=1e-14)

    def test_dimension_checks(self):
        model = toy_model()
        with pytest.raises(ValueError):
            m.predict_step(model, np.zeros(3), np.zeros((1, 2)), np.zeros((1, 2)))
        with pytest.raises(ValueError):
            m.predict_step(model, np.zeros(2), np.zeros((1, 1)), np.zeros((1, 2)))
        with pytest.raises(ValueError):  # one sample is a (1, n) row, not a flat vector
            m.predict_step(model, np.zeros(2), np.zeros(2), np.zeros(2))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(order=st.integers(1, 12), n_in=st.integers(1, 6), n_out=st.integers(1, 6),
       k=st.integers(0, 300), w=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
@example(order=3, n_in=2, n_out=2, k=0, w=4, seed=0)  # a 0-row record
@example(order=12, n_in=6, n_out=6, k=300, w=8, seed=1)
def test_prediction_and_xi1_equal_the_scalar_loop(order, n_in, n_out, k, w, seed):
    """predict, predict_step and window_statistics' xi1 give, bit for bit, the
    row-by-row arithmetic written here: x = A x + B v and C x per row, and
    sqrt(s @ s) per window. A 0-row record predicts (0, n_outputs)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(order, order))
    a *= 0.95 / max(1e-3, float(np.max(np.abs(np.linalg.eigvals(a)))))
    model = m.DiscreteModel(a_d=a, b_d=rng.normal(size=(order, n_in)),
                            c_d=rng.normal(size=(n_out, order)), dt=0.005, order=order)
    x0 = rng.normal(size=order)
    u, e = rng.normal(size=(k, n_in)), 0.01 * rng.normal(size=(k, n_in))

    x, stepped = x0, np.empty((k, n_out))
    for j, v in enumerate(u + e):
        x = model.a_d @ x + model.b_d @ v
        stepped[j] = model.c_d @ x
    x_hat, p = m.predict_step(model, x0, u, e)
    assert p.shape == (k, n_out) and p.tobytes() == stepped.tobytes()
    assert x_hat.tobytes() == x.tobytes()

    x, replayed = x0, np.empty((k, n_out))
    for j in range(k):  # y[0] = C x0, then one input row per step
        replayed[j] = model.c_d @ x
        x = model.a_d @ x + model.b_d @ u[j]
    y = m.predict(model, x0, u)
    assert y.shape == (k, n_out) and y.tobytes() == replayed.tobytes()

    nu = rng.normal(size=(k + w - 1, n_out))
    stack = np.array([nu[i : i + w] for i in range(k)]).reshape(k, w, n_out)
    baseline = m.BaselineStats(mu_star=rng.normal(size=n_out), trace=1.0, w=w)
    xi1, _ = m.window_statistics(stack, baseline)
    assert xi1.tolist() == [_window_alone(win, baseline)[0] for win in stack]


class TestCalibrateBaseline:
    def test_perfect_model_zero_stats(self):
        data = np.random.default_rng(3).normal(size=(150, 2))
        base = m.calibrate_baseline(data - data, w=100)
        np.testing.assert_array_equal(base.mu_star, 0.0)
        assert base.trace == 0.0

    def test_recomputation_bit_identical(self):
        rng = np.random.default_rng(4)
        nu = rng.normal(size=(120, 2))
        b1 = m.calibrate_baseline(nu, w=100)
        b2 = m.calibrate_baseline(nu.copy(), w=100)
        np.testing.assert_array_equal(b1.mu_star, b2.mu_star)
        assert b1.trace == b2.trace

    def test_normalization_is_one_over_w(self):
        base = m.calibrate_baseline(np.array([[2.0], [0.0]]), w=2)
        assert base.mu_star[0] == pytest.approx(1.0)
        assert base.trace == pytest.approx(1.0)  # ((2-1)^2+(0-1)^2)/2

    def test_disjoint_nominal_windows_agree_in_trace(self):
        """Stationarity sanity: two windows of one nominal run, 20% in trace."""
        rng = np.random.default_rng(5)
        nu = rng.normal(0.0, 1.0, size=(400, 2))
        b1 = m.calibrate_baseline(nu[:100], w=100)
        b2 = m.calibrate_baseline(nu[200:300], w=100)
        t1, t2 = b1.trace, b2.trace
        assert abs(t1 - t2) <= 0.2 * max(t1, t2)

    def test_too_short_record(self):
        with pytest.raises(ValueError):
            m.calibrate_baseline(np.zeros((10, 1)), w=100)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), w=st.integers(1, 120),
           scale=st.sampled_from([1e-14, 1.0, 1e3]), offset=st.floats(-1e3, 1e3))
    def test_baseline_window_statistics_are_exactly_zero(self, seed, n, w, scale, offset):
        """The baseline window's own statistics against the baseline calibrated
        on it are exactly (0, 0): one moment arithmetic serves both."""
        nu = offset + scale * np.random.default_rng(seed).normal(size=(w + 5, n))
        base = m.calibrate_baseline(nu, w=w)
        xi = m.innovation_statistics(nu, base)
        assert xi[0, w - 1] == 0.0 and xi[1, w - 1] == 0.0
        xi1, xi2 = m.window_statistics(nu[None, :w], base)
        assert xi1[0] == 0.0 and xi2[0] == 0.0

    def test_baseline_file_rejects_negative_and_non_finite_trace(self, tmp_path):
        path = tmp_path / "baseline.txt"
        cli.save_baseline(m.BaselineStats(mu_star=np.zeros(2), trace=1.0, w=10), path)
        text = path.read_text()
        for bad in ("-1.0", "-0.5", "nan", "inf"):
            path.write_text(text.replace("trace = 1.0", f"trace = {bad}"))
            with pytest.raises(ConfigError,
                               match=f"line 4: trace must be finite and >= 0, got {bad}"):
                cli.load_baseline(path)


class TestThresholds:
    def test_margin_times_peak(self):
        e1, e2 = m.calibrate_thresholds(np.array([0.1, 0.4]), np.array([2.0, 1.0]),
                                        margin=2.0)
        assert e1 == pytest.approx(0.8)
        assert e2 == pytest.approx(4.0)

    def test_floor_keeps_zero_statistics_decidable(self):
        e1, e2 = m.calibrate_thresholds(np.zeros(5), np.zeros(5))
        assert e1 > 0.0 and e2 > 0.0


class TestDwStep:
    def make_detector(self, w=4, n=1, eps1=0.5, eps2=0.5):
        model = m.DiscreteModel(a_d=np.array([[0.0]]), b_d=np.array([[0.0]]),
                                c_d=np.array([[1.0]]), dt=0.005, order=1)
        base = m.BaselineStats(mu_star=np.zeros(n), trace=0.0, w=w,
                               eps1=eps1, eps2=eps2)
        return model, DetectorState.start(model, base), base

    def test_window_discipline_fifo(self):
        model, state, base = self.make_detector(w=4)
        for k in range(7):
            _step(state, base, model, np.array([float(k)]), np.zeros(1), np.zeros(1))
        held = sorted(state.nu[:, 0].tolist())
        assert held == [3.0, 4.0, 5.0, 6.0]
        assert state.count == 7

    def test_warmup_keeps_flag_down(self):
        model, state, base = self.make_detector(w=10, eps1=1e-12, eps2=1e-12)
        for k in range(9):
            flag, _, _ = _step(state, base, model, np.array([100.0]), np.zeros(1),
                               np.zeros(1))
            assert not flag

    def test_perfect_prediction_zero_statistics(self):
        model, state, base = self.make_detector(w=4)
        for _ in range(10):
            flag, xi1, xi2 = _step(state, base, model, np.array([0.0]), np.zeros(1),
                                   np.zeros(1))
        assert xi1 == 0.0 and xi2 == 0.0 and not flag

    def test_flag_matches_decision_rule_after_each_step(self):
        rng = np.random.default_rng(6)
        model, state, base = self.make_detector(w=8, eps1=0.3, eps2=0.2)
        for _ in range(50):
            flag, xi1, xi2 = _step(state, base, model, rng.normal(size=1), np.zeros(1),
                                   np.zeros(1))
            if state.count >= base.w:
                assert flag == (xi1 >= 0.3 or xi2 >= 0.2)

    def test_replay_of_logged_inputs_reproduces_flags(self):
        rng = np.random.default_rng(7)
        model, state, base = self.make_detector(w=8, eps1=0.3, eps2=0.2)
        ys = rng.normal(size=(60, 1))
        us = rng.normal(size=(60, 1)) * 0.1
        es = rng.normal(size=(60, 1)) * 0.01
        flags = []
        for k in range(60):
            u_prev = us[k - 1] if k else np.zeros(1)
            e_prev = es[k - 1] if k else np.zeros(1)
            flags.append(_step(state, base, model, ys[k], u_prev, e_prev))
        state2 = DetectorState.start(model, base)
        flags2 = []
        for k in range(60):
            u_prev = us[k - 1] if k else np.zeros(1)
            e_prev = es[k - 1] if k else np.zeros(1)
            flags2.append(_step(state2, base, model, ys[k], u_prev, e_prev))
        assert flags == flags2

    @pytest.mark.parametrize("received, commands, marks", [
        ((5, 1), (4, 1), (4, 1)), ((4, 1), (5, 1), (5, 1)), ((5, 1), (5, 1), (4, 1)),
        ((5, 2), (5, 1), (5, 1)), ((5, 1), (5,), (5,)), ((1,), (1, 1), (1, 1)),
    ], ids=["received", "commands-and-marks", "marks", "received-width", "flat-commands",
            "flat-received"])
    def test_block_rows_must_agree(self, received, commands, marks):
        """A block whose received, command and mark rows disagree, or a flat
        sample, raises, and leaves the state and out as they were."""
        model, state, base = self.make_detector(w=3)
        m.dw_step(state, base, model, np.ones((2, 1)), np.ones((2, 1)), np.ones((2, 1)),
                  out=np.zeros((3, 2)))
        before = (state.x_hat.copy(), state.nu.copy(), state.count)
        out = np.full((3, 5), np.nan)
        with pytest.raises(ValueError):
            m.dw_step(state, base, model, np.ones(received), np.ones(commands),
                      np.ones(marks), out=out)
        for was, now in zip(before, (state.x_hat, state.nu, state.count)):
            np.testing.assert_array_equal(now, was)
        assert np.isnan(out).all()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 12), n=st.integers(1, 4), extra=st.integers(0, 30),
       offset=st.floats(-1e4, 1e4), seed=st.integers(0, 2**32 - 1))
def test_streaming_statistics_equal_batch_window_statistics(w, n, extra, offset, seed):
    """dw_step on a stream, one sample per call, gives exactly
    innovation_statistics on the replayed record, the warm-up zeros included,
    and the scalar arithmetic on each of its windows alone; both match the
    mean/covariance definition to 1e-9 relative to the magnitude of the
    compared terms."""
    rng = np.random.default_rng(seed)
    k = w + extra
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(1e-3, float(np.max(np.abs(np.linalg.eigvals(a)))))
    model = m.DiscreteModel(a_d=a, b_d=rng.normal(size=(n, n)),
                            c_d=rng.normal(size=(n, n)), dt=0.005, order=n)
    commands = rng.normal(size=(k, n))
    marks = 0.01 * rng.normal(size=(k, n))
    received = offset + rng.normal(size=(k, n))
    baseline = m.BaselineStats(mu_star=offset + rng.normal(size=n),
                               trace=float(np.sum(rng.uniform(0.1, 2.0, n))), w=w)

    state = DetectorState.start(model, baseline)
    streamed = []
    for i in range(k):
        prev = (commands[i - 1], marks[i - 1]) if i else (np.zeros(n), np.zeros(n))
        streamed.append(_step(state, baseline, model, received[i], *prev)[1:])

    nu = received - m.predict(model, np.zeros(n), commands + marks)
    xi1, xi2 = m.innovation_statistics(nu, baseline)
    assert list(zip(xi1.tolist(), xi2.tolist())) == streamed
    assert streamed[: w - 1] == [(0.0, 0.0)] * (w - 1)
    batch = [_window_alone(nu[i - w : i], baseline) for i in range(w, k + 1)]
    assert streamed[w - 1 :] == batch

    for (xi1, xi2), i in zip(batch, range(w, k + 1)):
        win = nu[i - w : i]
        mu = win.sum(axis=0) / w
        cov = (win - mu).T @ (win - mu) / w
        ref1 = np.linalg.norm(mu - baseline.mu_star)
        ref2 = abs(np.trace(cov) - baseline.trace)
        scale1 = np.linalg.norm(mu) + np.linalg.norm(baseline.mu_star)
        scale2 = np.trace(cov) + baseline.trace
        assert abs(xi1 - ref1) <= 1e-9 * scale1
        assert abs(xi2 - ref2) <= 1e-9 * scale2


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 12), n=st.integers(1, 3),
       parts=st.lists(st.one_of(st.none(), st.integers(0, 30),
                                st.integers(WINDOW_CHUNK - 2, WINDOW_CHUNK + 20)),
                      min_size=1, max_size=6),
       eps_scale=st.sampled_from([1.0, 0.0]), seed=st.integers(0, 2**32 - 1))
@example(w=12, n=2, parts=[5, None, 3, 9, 0, None], eps_scale=1.0, seed=1)  # across warm-up
@example(w=4, n=3, parts=[None, WINDOW_CHUNK + 9, 0, 2, None], eps_scale=1.0, seed=2)
@example(w=1, n=1, parts=[0, 3, None, 1], eps_scale=0.0, seed=3)
def test_blocks_step_as_one_sample_steps(w, n, parts, eps_scale, seed):
    """One stream cut into blocks of k rows (k = 0 included; None is a
    one-sample block, k = 1) gives, bit for bit, the xi1, xi2 and flag of
    each sample and the final prediction state, window and count of one
    block over the whole stream, and so does one sample per call. At zero
    thresholds every warm sample flags, and still no sample in warm-up."""
    rng = np.random.default_rng(seed)
    sizes = [1 if part is None else part for part in parts]
    k_all = sum(sizes)
    a = rng.normal(size=(n, n))
    a *= 0.9 / max(1e-3, float(np.max(np.abs(np.linalg.eigvals(a)))))
    model = m.DiscreteModel(a_d=a, b_d=rng.normal(size=(n, n)),
                            c_d=rng.normal(size=(n, n)), dt=0.005, order=n)
    received = rng.normal(size=(k_all, n))
    drawn = rng.normal(size=(2, k_all, n))
    commands, marks = np.zeros((2, k_all, n))  # of the step before: zero at first
    commands[1:], marks[1:] = drawn[0, :-1], 0.01 * drawn[1, :-1]
    baseline = m.BaselineStats(mu_star=rng.normal(size=n), trace=float(n), w=w,
                               eps1=eps_scale * rng.uniform(0.2, 1.0),
                               eps2=eps_scale * rng.uniform(0.2, 2.0))

    def run(splits):
        """(state, [(xi1, xi2, flag) of each sample]) of the stream cut into splits."""
        state, got, i = DetectorState.start(model, baseline), [], 0
        for part in splits:
            out = np.full((3, part), np.nan)
            rows = slice(i, i + part)
            flag, _ = m.dw_step(state, baseline, model, received[rows], commands[rows],
                                marks[rows], out=out)
            assert type(flag) is bool and flag == (part > 0 and bool(out[2, -1]))
            got += zip(out[0].tolist(), out[1].tolist(), (out[2] == 1).tolist())
            i += part
        return state, got

    whole, expected = run([k_all])
    for splits in (sizes, [1] * k_all):
        state, got = run(splits)
        assert got == expected
        assert state.count == whole.count == k_all
        assert state.x_hat.tobytes() == whole.x_hat.tobytes()
        assert state.nu.tobytes() == whole.nu.tobytes()
    assert [flag for _, _, flag in expected[: w - 1]] == [False] * min(w - 1, k_all)
    if eps_scale == 0.0:
        assert all(flag for _, _, flag in expected[w - 1 :])


@pytest.mark.parametrize("w, k", [(1, 2 * WINDOW_CHUNK), (5, 3 * WINDOW_CHUNK + 7),
                                  (100, 2001), (9, 8)])
def test_innovation_statistics_rows_across_chunks(w, k):
    """Past warm-up each row holds the statistics of the window ending there,
    across chunk edges; before it, and on a record shorter than the window,
    rows are zero."""
    rng = np.random.default_rng(w + k)
    nu = rng.normal(size=(k, 3))
    baseline = m.BaselineStats(mu_star=rng.normal(size=3), trace=3.0, w=w)
    xi1, xi2 = m.innovation_statistics(nu, baseline)
    alone = [_window_alone(nu[j - w + 1 : j + 1], baseline) for j in range(w - 1, k)]
    assert list(zip(xi1.tolist(), xi2.tolist())) == ([(0.0, 0.0)] * (w - 1) + alone)[:k]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 130), n=st.integers(1, 4), k=st.integers(1, 40),
       offset=st.floats(-1e4, 1e4), scale=st.floats(1e-3, 1e2),
       contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_window_statistics_equal_each_window_alone(w, n, k, offset, scale,
                                                           contiguous, seed):
    """A (k, w, n) stack, as the strided view calibration passes or as a
    contiguous copy, gives each window's statistics bit for bit as the scalar
    arithmetic on the window alone."""
    rng = np.random.default_rng(seed)
    nu = offset + scale * rng.normal(size=(w + k - 1, n))
    baseline = m.BaselineStats(mu_star=offset + rng.normal(size=n),
                               trace=float(np.sum(rng.uniform(0.1, 2.0, n))), w=w)
    stack = np.lib.stride_tricks.sliding_window_view(nu, w, axis=0).swapaxes(1, 2)
    if contiguous:
        stack = np.ascontiguousarray(stack)
    xi1, xi2 = m.window_statistics(stack, baseline)
    alone = [_window_alone(nu[i : i + w], baseline) for i in range(k)]
    assert xi1.shape == xi2.shape == (k,)
    assert list(zip(xi1.tolist(), xi2.tolist())) == alone


def test_trained_detector_calibrates_the_grids_own_loop(monkeypatch):
    """The calibration run keeps the grid's controller and weights and swaps in
    only the calibration load signals and the open detector."""
    grid = cs.grid1_spec(controller="pi", weights=m.CostWeights.uniform(3, q=10.0),
                         load_signals=[cs.pulse_load_signal()])
    runs = []
    run_scenario = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario",
                        lambda sc: runs.append(sc) or run_scenario(sc))
    setup, _ = cs.trained_detector(grid, calibration_horizon=1.0, candidates=(4,),
                                   seed=3)
    (calib,) = [g for sc in runs for g in sc.grids]
    assert calib.controller == "pi" and calib.weights is grid.weights
    assert calib.network is grid.network and calib.load_signals == ()
    assert calib.detector.watermark == setup.watermark
    assert calib.detector.baseline.eps1 == np.inf and calib.detector.baseline.eps2 == np.inf


def test_calibrate_detector_scales_the_thresholds_by_the_margin(trained):
    """Thresholds are margin times the nominal peaks: on a pulsed run, whose
    model mispredicts the loads, margin 3 gives exactly 1.5 times the
    thresholds of margin 2, both above the floor."""
    grid, det, _ = trained
    run = m.Scenario(grids=(replace(grid, load_signals=(cs.pulse_load_signal(),),
                                    detector=cli.open_detector(det.model, det.watermark,
                                                               det.baseline.w)),),
                     horizon=2.0)
    two, three = (cli.calibrate_detector(run, margin).baseline for margin in (2.0, 3.0))
    assert min(two.eps1, two.eps2) > m.defaults.THRESHOLD_FLOOR
    assert (three.eps1, three.eps2) == (1.5 * two.eps1, 1.5 * two.eps2)


@pytest.fixture(scope="module")
def trained():
    grid = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0))
    det, report = cs.trained_detector(grid, calibration_signals=(),
                                      calibration_horizon=6.0, seed=5)
    return grid, det, report


class TestEndToEndDetection:
    def test_replay_attack_flagged_fast_without_load_cover(self, trained):
        """Constant loads: replayed outputs decorrelate from fresh watermarks."""
        grid, det, _ = trained
        g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0), detector=det)
        atk = m.AttackSpec(kind="replay", channels=(0, 1, 2), start=2.0, end=3.5,
                           replay_from=1.0, replay_to=1.5)
        sc = m.Scenario(grids=(g,), horizon=3.5, seed=31, attacks=(atk,))
        ts = m.run_scenario(sc)
        flags = ts.grids[0]["flag"]
        nominal = flags[ts.time < 2.0]
        assert nominal.sum() == 0
        first = ts.time[(ts.time >= 2.0) & (flags > 0)]
        assert first.size and first[0] - 2.0 <= 0.2

    def test_watermark_cost_on_regulation_quality(self, trained):
        """Watermark dither raises nominal frequency RMS by less than 10%."""
        grid, det, _ = trained
        sig = cs.pulse_load_signal()
        w = m.CostWeights.uniform(3, q=10.0)
        g_marked = cs.grid1_spec(weights=w, load_signals=[sig], detector=det)
        g_plain = cs.grid1_spec(weights=w, load_signals=[sig])
        rms_marked = _max_rms(m.run_scenario(
            m.Scenario(grids=(g_marked,), horizon=6.0, seed=41)))
        rms_plain = _max_rms(m.run_scenario(
            m.Scenario(grids=(g_plain,), horizon=6.0, seed=41)))
        assert rms_marked <= 1.10 * rms_plain

    def test_detector_state_never_uses_received_data_for_prediction(self, trained):
        """Predictions are command-driven: a measurement attack leaves the
        prediction stream untouched."""
        grid, det, _ = trained
        g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0), detector=det)
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=1.0,
                           end=1.5, noise_std=500.0)
        sc_att = m.Scenario(grids=(g,), horizon=2.0, seed=51, attacks=(atk,))
        # the same window injecting nothing, so that both runs are stepped
        sc_nom = m.Scenario(grids=(g,), horizon=2.0, seed=51,
                            attacks=(replace(atk, noise_std=0.0),))
        ts_att = m.run_scenario(sc_att)
        ts_nom = m.run_scenario(sc_nom)
        # true physics diverge (the corrupted z feeds back), but the commands
        # before the attack are identical, so early predictions coincide
        pre = ts_att.time < 1.0
        np.testing.assert_array_equal(ts_att.grids[0]["xi2"][pre], ts_nom.grids[0]["xi2"][pre])


def _max_rms(ts):
    return max(
        float(np.sqrt(np.mean(ts.columns[f"mg1_domega_{i + 1}"] ** 2))) for i in range(3)
    )
