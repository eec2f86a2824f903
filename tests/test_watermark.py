"""Watermark and detector tests: draw statistics, prediction recursion,
window discipline, flag semantics, and the replay-attack property."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microagc as m
from microagc import casestudy as cs, cli
from microagc.watermark import WINDOW_CHUNK, DetectorState


def toy_model(n=2):
    rng = np.random.default_rng(0)
    a = 0.5 * np.eye(n) + 0.1 * rng.normal(size=(n, n))
    a *= 0.8 / max(np.abs(np.linalg.eigvals(a)))
    return m.DiscreteModel(
        a_d=a, b_d=np.eye(n), c_d=np.eye(n), dt=0.005, order=n
    )


class TestWatermarkSource:
    def test_zero_covariance_draws_zero(self):
        src = m.WatermarkSource(m.WatermarkConfig(0.0, seed=1), 2)
        for _ in range(100):
            draw = src.draw()
            np.testing.assert_array_equal(draw, 0.0)
            assert not np.signbit(draw).any()  # +0.0, so the log never reads -0

    def test_fixed_seed_bit_identical(self):
        cfg = m.WatermarkConfig(0.02, seed=7)
        a = m.WatermarkSource(cfg, 3)
        b = m.WatermarkSource(cfg, 3)
        for _ in range(100):
            np.testing.assert_array_equal(a.draw(), b.draw())

    @pytest.mark.parametrize("std, n, seed", [(0.012, 3, 29), (0.02, 1, 7), (3.5, 6, 0),
                                              (1e-150, 2, 4)])
    def test_draws_are_std_times_standard_normals(self, std, n, seed):
        src = m.WatermarkSource(m.WatermarkConfig(std, seed=seed), n)
        rng = np.random.default_rng(seed)
        for _ in range(50):
            np.testing.assert_array_equal(src.draw(), std * rng.standard_normal(n))

    def test_std_validation(self):
        for std in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="watermark std must be finite and >= 0"):
                m.WatermarkConfig(std)


class TestPredictStep:
    def test_no_watermark_reduces_to_model_recursion(self):
        model = toy_model()
        x = np.array([0.3, -0.1])
        u = np.array([0.05, 0.02])
        x1, p1 = m.predict_step(model, x, u, np.zeros(2))
        np.testing.assert_allclose(x1, model.a_d @ x + model.b_d @ u)
        np.testing.assert_allclose(p1, model.c_d @ x1)

    def test_superposition_of_watermark(self):
        model = toy_model()
        x = np.array([0.3, -0.1])
        u = np.array([0.05, 0.02])
        e = np.array([0.01, -0.02])
        _, p_marked = m.predict_step(model, x, u, e)
        _, p_plain = m.predict_step(model, x, u, np.zeros(2))
        _, p_only = m.predict_step(model, np.zeros(2), np.zeros(2), e)
        np.testing.assert_allclose(p_marked - p_plain, p_only, atol=1e-14)

    def test_dimension_checks(self):
        model = toy_model()
        with pytest.raises(ValueError):
            m.predict_step(model, np.zeros(3), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            m.predict_step(model, np.zeros(2), np.zeros(1), np.zeros(2))


class TestCalibrateBaseline:
    def test_perfect_model_zero_stats(self):
        data = np.random.default_rng(3).normal(size=(150, 2))
        base = m.calibrate_baseline(data, data, w=100)
        np.testing.assert_array_equal(base.mu_star, 0.0)
        np.testing.assert_array_equal(base.sigma_star, 0.0)

    def test_recomputation_bit_identical(self):
        rng = np.random.default_rng(4)
        r = rng.normal(size=(120, 2))
        p = rng.normal(size=(120, 2))
        b1 = m.calibrate_baseline(r, p, w=100)
        b2 = m.calibrate_baseline(r.copy(), p.copy(), w=100)
        np.testing.assert_array_equal(b1.mu_star, b2.mu_star)
        np.testing.assert_array_equal(b1.sigma_star, b2.sigma_star)

    def test_normalization_is_one_over_w(self):
        r = np.array([[2.0], [0.0]])
        p = np.zeros((2, 1))
        base = m.calibrate_baseline(r, p, w=2)
        assert base.mu_star[0] == pytest.approx(1.0)
        assert base.sigma_star[0, 0] == pytest.approx(1.0)  # ((2-1)^2+(0-1)^2)/2

    def test_disjoint_nominal_windows_agree_in_trace(self):
        """Stationarity sanity: two windows of one nominal run, 20% in trace."""
        rng = np.random.default_rng(5)
        nu = rng.normal(0.0, 1.0, size=(400, 2))
        b1 = m.calibrate_baseline(nu[:100], np.zeros((100, 2)), w=100)
        b2 = m.calibrate_baseline(nu[200:300], np.zeros((100, 2)), w=100)
        t1, t2 = np.trace(b1.sigma_star), np.trace(b2.sigma_star)
        assert abs(t1 - t2) <= 0.2 * max(t1, t2)

    def test_too_short_record(self):
        with pytest.raises(ValueError):
            m.calibrate_baseline(np.zeros((10, 1)), np.zeros((10, 1)), w=100)

    def test_baseline_rejects_indefinite_covariance(self):
        with pytest.raises(ValueError):
            m.BaselineStats(mu_star=np.zeros(2),
                            sigma_star=np.array([[1.0, 2.0], [2.0, 1.0]]), w=10)


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
        base = m.BaselineStats(mu_star=np.zeros(n), sigma_star=np.zeros((n, n)), w=w,
                               eps1=eps1, eps2=eps2)
        return model, DetectorState.start(model, base), base

    def test_window_discipline_fifo(self):
        model, state, base = self.make_detector(w=4)
        for k in range(7):
            m.dw_step(state, base, model, np.array([float(k)]), np.zeros(1),
                      np.zeros(1))
        held = sorted(state.nu[:, 0].tolist())
        assert held == [3.0, 4.0, 5.0, 6.0]
        assert state.count == 7

    def test_warmup_keeps_flag_down(self):
        model, state, base = self.make_detector(w=10, eps1=1e-12, eps2=1e-12)
        for k in range(9):
            flag, _ = m.dw_step(state, base, model, np.array([100.0]),
                                np.zeros(1), np.zeros(1))
            assert not flag

    def test_perfect_prediction_zero_statistics(self):
        model, state, base = self.make_detector(w=4)
        for _ in range(10):
            flag, _ = m.dw_step(state, base, model, np.array([0.0]),
                                np.zeros(1), np.zeros(1))
        assert state.xi1 == 0.0 and state.xi2 == 0.0 and not flag

    def test_flag_matches_decision_rule_after_each_step(self):
        rng = np.random.default_rng(6)
        model, state, base = self.make_detector(w=8, eps1=0.3, eps2=0.2)
        for _ in range(50):
            flag, _ = m.dw_step(state, base, model,
                                rng.normal(size=1), np.zeros(1), np.zeros(1))
            if state.count >= base.w:
                assert flag == (state.xi1 >= 0.3 or state.xi2 >= 0.2)

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
            flag, _ = m.dw_step(state, base, model, ys[k], u_prev, e_prev)
            flags.append(flag)
        state2 = DetectorState.start(model, base)
        flags2 = []
        for k in range(60):
            u_prev = us[k - 1] if k else np.zeros(1)
            e_prev = es[k - 1] if k else np.zeros(1)
            flag, _ = m.dw_step(state2, base, model, ys[k], u_prev, e_prev)
            flags2.append(flag)
        assert flags == flags2


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 12), n=st.integers(1, 4), extra=st.integers(0, 30),
       offset=st.floats(-1e4, 1e4), seed=st.integers(0, 2**32 - 1))
def test_streaming_statistics_equal_batch_window_statistics(w, n, extra, offset, seed):
    """dw_step on a stream gives exactly innovation_statistics on the replayed
    record, the warm-up zeros included, and window_statistics on each of its
    windows; both match the mean/covariance definition to 1e-9 relative to the
    magnitude of the compared terms."""
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
                               sigma_star=np.diag(rng.uniform(0.1, 2.0, n)), w=w)

    state = DetectorState.start(model, baseline)
    streamed = []
    for i in range(k):
        prev = (commands[i - 1], marks[i - 1]) if i else (np.zeros(n), np.zeros(n))
        m.dw_step(state, baseline, model, received[i], *prev)
        streamed.append((state.xi1, state.xi2))

    nu = received - m.predict(model, np.zeros(n), commands + marks)
    xi1, xi2 = m.innovation_statistics(nu, baseline)
    assert list(zip(xi1.tolist(), xi2.tolist())) == streamed
    assert streamed[: w - 1] == [(0.0, 0.0)] * (w - 1)
    batch = [m.window_statistics(nu[i - w : i], baseline) for i in range(w, k + 1)]
    assert streamed[w - 1 :] == batch

    for (xi1, xi2), i in zip(batch, range(w, k + 1)):
        win = nu[i - w : i]
        mu = win.sum(axis=0) / w
        cov = (win - mu).T @ (win - mu) / w
        ref1 = np.linalg.norm(mu - baseline.mu_star)
        ref2 = abs(np.trace(cov) - np.trace(baseline.sigma_star))
        scale1 = np.linalg.norm(mu) + np.linalg.norm(baseline.mu_star)
        scale2 = np.trace(cov) + np.trace(baseline.sigma_star)
        assert abs(xi1 - ref1) <= 1e-9 * scale1
        assert abs(xi2 - ref2) <= 1e-9 * scale2


@pytest.mark.parametrize("w, k", [(1, 2 * WINDOW_CHUNK), (5, 3 * WINDOW_CHUNK + 7),
                                  (100, 2001), (9, 8)])
def test_innovation_statistics_rows_across_chunks(w, k):
    """Past warm-up each row holds the statistics of the window ending there,
    across chunk edges; before it, and on a record shorter than the window,
    rows are zero."""
    rng = np.random.default_rng(w + k)
    nu = rng.normal(size=(k, 3))
    baseline = m.BaselineStats(mu_star=rng.normal(size=3), sigma_star=np.eye(3), w=w)
    xi1, xi2 = m.innovation_statistics(nu, baseline)
    alone = [m.window_statistics(nu[j - w + 1 : j + 1], baseline) for j in range(w - 1, k)]
    assert list(zip(xi1.tolist(), xi2.tolist())) == ([(0.0, 0.0)] * (w - 1) + alone)[:k]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(w=st.integers(1, 130), n=st.integers(1, 4), k=st.integers(1, 40),
       offset=st.floats(-1e4, 1e4), scale=st.floats(1e-3, 1e2),
       contiguous=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_stacked_window_statistics_equal_each_window_alone(w, n, k, offset, scale,
                                                           contiguous, seed):
    """A (k, w, n) stack, as the strided view calibration passes or as a
    contiguous copy, gives each window's statistics bit for bit."""
    rng = np.random.default_rng(seed)
    nu = offset + scale * rng.normal(size=(w + k - 1, n))
    baseline = m.BaselineStats(mu_star=offset + rng.normal(size=n),
                               sigma_star=np.diag(rng.uniform(0.1, 2.0, n)), w=w)
    stack = np.lib.stride_tricks.sliding_window_view(nu, w, axis=0).swapaxes(1, 2)
    if contiguous:
        stack = np.ascontiguousarray(stack)
    xi1, xi2 = m.window_statistics(stack, baseline)
    alone = [m.window_statistics(nu[i : i + w], baseline) for i in range(k)]
    assert xi1.shape == xi2.shape == (k,)
    assert list(zip(xi1.tolist(), xi2.tolist())) == alone


def test_trained_detector_calibrates_the_grids_own_loop(monkeypatch):
    """The calibration run keeps the grid's controller and loop settings and
    swaps in only the calibration load signals and the open detector."""
    grid = replace(cs.grid1_spec(controller="pi", load_signals=[cs.pulse_load_signal()]),
                   pi_kp=0.3, pi_ki=3.0, sensor_tau=0.05, slow_hold=0.2, u_max=0.5)
    runs = []
    run_scenario = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario",
                        lambda sc: runs.append(sc) or run_scenario(sc))
    setup, _ = cs.trained_detector(grid, calibration_horizon=1.0, candidates=(4,),
                                   seed=3)
    (calib,) = [g for sc in runs for g in sc.grids]
    loop = ("controller", "pi_kp", "pi_ki", "sensor_tau", "slow_hold", "u_max")
    assert [getattr(calib, f) for f in loop] == [getattr(grid, f) for f in loop]
    assert calib.network is grid.network and calib.load_signals == ()
    assert calib.detector.watermark == setup.watermark
    assert calib.detector.baseline.eps1 == np.inf and calib.detector.baseline.eps2 == np.inf


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
        flags = ts["mg1_flag"]
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
        sc_nom = m.Scenario(grids=(g,), horizon=2.0, seed=51)
        ts_att = m.run_scenario(sc_att)
        ts_nom = m.run_scenario(sc_nom)
        # true physics diverge (the corrupted z feeds back), but the commands
        # before the attack are identical, so early predictions coincide
        pre = ts_att.time < 1.0
        np.testing.assert_array_equal(ts_att["mg1_xi2"][pre], ts_nom["mg1_xi2"][pre])


def _max_rms(ts):
    return max(
        float(np.sqrt(np.mean(ts[f"mg1_domega_{i + 1}"] ** 2))) for i in range(3)
    )
