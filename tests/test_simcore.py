"""Scenario engine tests: integrator exactness, sensors, attacks, load
signals, tie-line merging, and run-level invariants."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microagc as m
from microagc import casestudy as cs, defaults, simcore
from microagc.simcore import ZohStepper, _clip, _load_changes, load_vector, rms
from microagc.sysid import DiscreteModel


@pytest.fixture(scope="module")
def trained_detector_quiet():
    grid = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0))
    det, _ = cs.trained_detector(grid, calibration_signals=(),
                                 calibration_horizon=6.0, seed=6)
    return det


class TestIntegrateStep:
    """One exact ZOH step of ZohStepper with both inputs held constant."""

    def test_pure_integrator(self):
        plant = m.LinearPlant(
            a=np.zeros((2, 2)), b1=np.array([[1.0], [0.0]]),
            f=np.zeros((2, 0)), e=np.zeros((1, 2)),
            h_red=np.zeros((1, 1)), f_map=np.zeros((1, 0)),
        )
        x1 = ZohStepper(plant, 0.25).step(np.zeros(2), np.array([3.0]), np.zeros(0))
        np.testing.assert_allclose(x1, [0.75, 0.0], atol=1e-15)

    def test_scalar_exponential_decay(self):
        plant = m.LinearPlant(
            a=np.array([[-1.0]]), b1=np.zeros((1, 1)),
            f=np.zeros((1, 0)), e=np.zeros((1, 1)), h_red=np.zeros((1, 1)),
            f_map=np.zeros((1, 0)),
        )
        x1 = ZohStepper(plant, 1.0).step(np.array([1.0]), np.zeros(1), np.zeros(0))
        assert x1[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_semigroup_two_half_steps(self):
        grid = cs.grid1_spec()
        plant = m.grid_plant(grid)[1]
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 0.05, plant.n_states)
        u = rng.normal(0.0, 0.05, 3)
        pl = rng.normal(0.0, 200.0, 2)
        one = ZohStepper(plant, 0.005).step(x, u, pl)
        half_step = ZohStepper(plant, 0.0025).step
        two = half_step(half_step(x, u, pl), u, pl)
        np.testing.assert_allclose(two, one, rtol=0, atol=1e-12 * max(1, np.max(np.abs(one))))

    def test_matches_dense_reference_over_one_second(self):
        """Substeps at h vs h/64 with inputs held on the same h grid: the exact
        ZOH update must agree to 1e-9 relative."""
        grid = cs.grid1_spec()
        plant = m.grid_plant(grid)[1]
        h = 0.005
        fine = ZohStepper(plant, h / 64)
        coarse = ZohStepper(plant, h)
        rng = np.random.default_rng(2)
        x_c = rng.normal(0.0, 0.02, plant.n_states)
        x_f = x_c.copy()
        scale = 0.0
        for k in range(200):  # 1 s
            u = np.sin(np.arange(3) + 0.013 * k) * 0.05
            pl = np.cos(np.arange(2) + 0.029 * k) * 300.0
            x_c = coarse.step(x_c, u, pl)
            for _ in range(64):
                x_f = fine.step(x_f, u, pl)
            scale = max(scale, np.max(np.abs(x_c)))
        assert np.max(np.abs(x_c - x_f)) <= 1e-9 * scale


_GRID1 = cs.grid1_spec()
_SENS1 = m.build_sensitivity(_GRID1.network,
                             m.solve_operating_point(_GRID1.network, _GRID1.p_injections))
_FINITE = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(omega_c=st.lists(st.floats(1.0, 200.0), min_size=3, max_size=3),
       m_p=st.lists(st.floats(1e-6, 1e-3), min_size=3, max_size=3),
       h=st.sampled_from([2.5e-4, 5e-4, 1e-3]), data=st.data())
def test_block_step_equals_one_substep_per_row(omega_c, m_p, h, data):
    """A k-row load block gives, bit for bit, the states of k one-row steps and
    of the exact ZOH update a_d x + b_d [u; d_p_l] at every substep; rows drawn
    from a small pool repeat and change."""
    ibrs = [m.IbrParams(omega_c=w, m_p=mp) for w, mp in zip(omega_c, m_p)]
    stepper = ZohStepper(m.assemble_plant(ibrs, _SENS1), h)
    pool = data.draw(st.lists(st.lists(_FINITE, min_size=2, max_size=2),
                              min_size=1, max_size=3))
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=12))
    rows = np.array([pool[i] for i in picks]) + 0.0  # + 0.0 makes any -0.0 a 0.0
    x0 = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6)))
    u = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)))
    block = stepper.step(x0, u, rows)
    x_rows = x_ref = x0
    for row in rows:
        x_rows = stepper.step(x_rows, u, row)
        x_ref = stepper.a_d @ x_ref + stepper.b_d @ np.concatenate([u, row])
    assert np.array_equal(block, x_rows)
    assert np.array_equal(block, x_ref)


@pytest.mark.parametrize("period, width", [(0.0135, 0.006), (0.0072, 0.0031)])
def test_step_over_the_change_mask_equals_one_row_at_a_time(period, width):
    """A pulse whose edges fall inside control periods: stepping each period
    over its row of the run's change mask gives, bit for bit, the states of
    one-row steps, with the drive reused on unchanged rows."""
    plant = m.grid_plant(cs.grid1_spec())[1]
    dt_c, h, n_sub = 0.005, 5e-4, 10
    stepper = ZohStepper(plant, h)
    pulse = m.LoadSignalSpec(kind="periodic-pulse", amplitude=900.0, load_index=1,
                             period=period, width=width)
    times = np.arange(40)[:, None] * dt_c + np.arange(n_sub) * h
    loads = load_vector((pulse,), times, plant.n_load)
    changed = _load_changes(loads)
    assert changed.shape == (40, n_sub) and changed[:, 0].all()
    assert changed[:, 1:].any() and not changed[:, 1:].all()  # edges inside periods
    x_block = x_rows = np.zeros(plant.n_states)
    for rho in range(40):
        u = np.sin(np.arange(3) + 0.1 * rho) * 0.05
        x_block = stepper.step(x_block, u, loads[rho], changed[rho].tolist())
        for row in loads[rho]:
            x_rows = stepper.step(x_rows, u, row)
        assert np.array_equal(x_block, x_rows)


_SATURATE = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0, 0.6, -0.6]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(values=st.lists(_SATURATE, min_size=1, max_size=6),
       u_max=st.one_of(st.sampled_from([0.6, 1.0]),
                       st.floats(0.0, 1e6, allow_subnormal=True)))
def test_saturation_equals_np_clip_bit_for_bit(values, u_max):
    """The loop's saturation, the clip ufunc into a buffer, gives the bits of
    np.clip: NaN, signed zeros, infinities and values at exactly +-u_max."""
    v = np.array(values + [u_max, -u_max])
    out = np.full(v.shape, 7.0)
    _clip(v, -u_max, u_max, out=out)
    assert np.array_equal(out.view(np.int64), np.clip(v, -u_max, u_max).view(np.int64))


def _scalar_load(sig, t: float) -> float:
    """One load signal at one time in Python floats."""
    if sig.kind == "constant":
        return sig.amplitude
    if sig.kind == "step":
        return sig.amplitude if t >= sig.step_time else 0.0
    phase = t / sig.period
    return sig.amplitude if (phase - math.floor(phase)) * sig.period < sig.width else 0.0


@st.composite
def _load_signals(draw):
    kind = draw(st.sampled_from(["constant", "step", "periodic-pulse"]))
    period = draw(st.sampled_from([0.1, 0.3, 0.35, 0.7, 1.0]))
    width = draw(st.sampled_from([0.1, 0.3, 0.5, 0.7])) * period
    return m.LoadSignalSpec(kind=kind, amplitude=draw(_FINITE),
                            load_index=draw(st.integers(0, 1)), period=period,
                            width=width, step_time=draw(st.sampled_from([0.0, 0.3, 1.1])))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(sigs=st.lists(_load_signals(), min_size=1, max_size=4), data=st.data())
def test_load_vector_on_a_time_array_equals_scalar_evaluation(sigs, data):
    """Bit for bit at the run's substep times, on pulse edges k * period and
    k * period + width, on step times and at arbitrary times."""
    k = np.arange(40)
    times = [np.arange(8)[:, None] * 0.05 + np.arange(10) * 5e-4]
    for sig in sigs:
        times += [k * sig.period, k * sig.period + sig.width,
                  np.array([sig.step_time, np.nextafter(sig.step_time, -1.0)])]
    times.append(np.array(data.draw(st.lists(st.floats(0.0, 30.0), max_size=20))))
    for t in times:
        out = load_vector(sigs, t, 2)
        assert out.shape == t.shape + (2,)
        for idx in np.ndindex(t.shape):
            ref = np.zeros(2)
            for sig in sigs:
                ref[sig.load_index] += _scalar_load(sig, float(t[idx]))
            assert np.array_equal(out[idx], ref)
            assert np.array_equal(load_vector(sigs, float(t[idx]), 2), ref)


class TestMeasurement:
    def test_zero_state_zero_load(self):
        plant = m.grid_plant(cs.grid1_spec())[1]
        np.testing.assert_array_equal(
            m.measure_power(plant, np.zeros(6), np.zeros(2)), 0.0
        )

    def test_uniform_angle_shift_moves_no_power(self):
        plant = m.grid_plant(cs.grid1_spec())[1]
        x = np.zeros(6)
        x[0::2] = 0.37
        p = m.measure_power(plant, x, np.zeros(2))
        np.testing.assert_allclose(p, 0.0, atol=1e-9)


class TestFrequencySensor:
    def test_matched_constant_input_stays(self):
        y = m.measure_frequency_lagged(np.array([0.5]), np.array([0.5]), 0.1, 0.01)
        assert y[0] == pytest.approx(0.5)

    def test_step_response_63_percent_at_tau(self):
        tau, h = 0.1, 0.001
        y = np.zeros(1)
        for _ in range(100):  # advance exactly tau
            y = m.measure_frequency_lagged(np.array([1.0]), y, tau, h)
        assert y[0] == pytest.approx(1.0 - np.exp(-1.0), rel=1e-9)

    def test_fast_square_wave_never_tracked(self):
        tau, h = 0.1, 0.001
        period = 0.01  # much shorter than the lag
        y = np.zeros(1)
        worst = 0.0
        for k in range(2000):
            w = 1.0 if (k * h % period) < period / 2 else -1.0
            y = m.measure_frequency_lagged(np.array([w]), y, tau, h)
            if k > 500:
                worst = max(worst, abs(w - y[0]))
        assert worst >= 0.5 * 2.0  # error at least half the swing


class TestApplyAttack:
    def make_spec(self, **kw):
        base = dict(kind="noise-injection", channels=(0,), start=1.0, end=2.0,
                    noise_std=10.0)
        base.update(kw)
        return m.AttackSpec(**base)

    def test_identity_outside_window(self):
        spec = self.make_spec()
        rng = np.random.default_rng(0)
        meas = np.array([5.0, 6.0])
        out = m.apply_attack(meas, spec, 100, np.zeros((10, 2)), (200, 400, 0, 0), rng)
        np.testing.assert_array_equal(out, meas)
        out = m.apply_attack(meas, spec, 400, np.zeros((10, 2)), (200, 400, 0, 0), rng)
        np.testing.assert_array_equal(out, meas)

    def test_zero_std_identity(self):
        spec = self.make_spec(noise_std=0.0)
        rng = np.random.default_rng(0)
        meas = np.array([5.0, 6.0])
        out = m.apply_attack(meas, spec, 300, np.zeros((10, 2)), (200, 400, 0, 0), rng)
        np.testing.assert_array_equal(out, meas)

    def test_noise_targets_selected_channels_only(self):
        spec = self.make_spec(channels=(1,))
        rng = np.random.default_rng(1)
        meas = np.array([5.0, 6.0])
        out = m.apply_attack(meas, spec, 300, np.zeros((10, 2)), (200, 400, 0, 0), rng)
        assert out[0] == 5.0 and out[1] != 6.0

    def test_replay_substitutes_recorded_window_bit_exact(self):
        hist = np.arange(400.0).reshape(200, 2)
        spec = m.AttackSpec(kind="replay", channels=(0,), start=0.5, end=0.6,
                            replay_from=0.1, replay_to=0.15)
        rng = np.random.default_rng(2)
        # source rows 20..29, cycling over attack steps 100..119
        for k_rel, k in enumerate(range(100, 120)):
            out = m.apply_attack(np.array([-1.0, -2.0]), spec, k, hist, (100, 120, 20, 30),
                                 rng)
            assert out[0] == hist[20 + (k_rel % 10), 0]
            assert out[1] == -2.0

    def test_spec_validation(self):
        with pytest.raises(m.ScenarioError):
            m.AttackSpec(kind="replay", channels=(0,), start=1.0, end=2.0,
                         replay_from=0.5, replay_to=1.5)
        with pytest.raises(m.ScenarioError):
            m.AttackSpec(kind="noise-injection", channels=(0,), start=2.0, end=1.0)

    def test_repeated_channel_is_rejected(self):
        """A repeated channel would add one noise draw per repeat, sqrt(2) times
        the configured std on channel 0 here, so the spec names its channels."""
        with pytest.raises(m.ScenarioError, match=re.escape("(0, 1, 0) repeat")) as info:
            self.make_spec(channels=(0, 1, 0))
        assert info.value.field == "channels"


class TestLoadSignal:
    def test_constant(self):
        sig = m.LoadSignalSpec(kind="constant", amplitude=100.0)
        assert m.load_signal(sig, 0.0) == 100.0
        assert m.load_signal(sig, 5.0) == 100.0

    def test_step_before_and_after(self):
        sig = m.LoadSignalSpec(kind="step", amplitude=100.0, step_time=1.0)
        assert m.load_signal(sig, 0.999) == 0.0
        assert m.load_signal(sig, 1.0) == 100.0

    def test_periodic_pulse_periodicity(self):
        sig = m.LoadSignalSpec(kind="periodic-pulse", amplitude=50.0,
                               period=0.5, width=0.25)
        for t in (0.0, 0.1, 0.3, 0.45):
            assert m.load_signal(sig, t) == m.load_signal(sig, t + 0.5)
        assert m.load_signal(sig, 0.1) == 50.0
        assert m.load_signal(sig, 0.3) == 0.0

    def test_pulse_validation(self):
        with pytest.raises(m.ScenarioError):
            m.LoadSignalSpec(kind="periodic-pulse", amplitude=1.0, period=0.1,
                             width=0.2)

    def test_signals_sum_on_vector(self):
        sigs = (
            m.LoadSignalSpec(kind="constant", amplitude=10.0, load_index=0),
            m.LoadSignalSpec(kind="constant", amplitude=5.0, load_index=0),
            m.LoadSignalSpec(kind="constant", amplitude=7.0, load_index=1),
        )
        np.testing.assert_allclose(load_vector(sigs, 0.0, 2), [15.0, 7.0])


class TestCloseTieLine:
    def test_node_maps_are_bijective(self):
        g1, g2 = cs.grid1_spec(), cs.grid2_spec()
        merged, map_a, map_b = m.close_tie_line(g1.network, g2.network,
                                                cs.default_tie())
        all_new = np.concatenate([map_a, map_b])
        assert sorted(all_new.tolist()) == list(range(merged.n_nodes))

    def test_merged_sensitivity_row_sums_zero(self):
        g1, g2 = cs.grid1_spec(), cs.grid2_spec()
        merged, _, _ = m.close_tie_line(g1.network, g2.network, cs.default_tie())
        p_inj = np.zeros(merged.n_nodes)
        p_inj[merged.n_ibr :] = -1000.0
        p_inj[: merged.n_ibr] = 1000.0 * merged.n_load / merged.n_ibr
        op = m.solve_operating_point(merged, p_inj)
        hm = m.build_sensitivity(merged, op)
        scale = merged.n_nodes * np.max(np.abs(hm.h))
        assert np.max(np.abs(hm.h.sum(axis=1))) <= 1e-15 * scale

    def test_bad_endpoint_rejected(self):
        g1, g2 = cs.grid1_spec(), cs.grid2_spec()
        with pytest.raises(m.ScenarioError):
            m.close_tie_line(g1.network, g2.network, m.TieSpec(node_a=9, node_b=0))

    def test_equilibrium_preserved_through_merge(self):
        """Both grids quiescent, tie closes mid-run: nothing moves."""
        g1 = cs.grid1_spec(controller="optimal-z",
                           weights=m.CostWeights.uniform(3, q=10.0))
        g2 = cs.grid2_spec(controller="optimal-z",
                           weights=m.CostWeights.uniform(2, q=10.0))
        sc = m.Scenario(
            grids=(g1, g2), horizon=1.0, seed=0, tie=cs.default_tie(),
            events=(m.Event(time=0.5, action="tie_close"),),
        )
        ts = m.run_scenario(sc)
        for col in ("mg1_domega_1", "mg1_domega_2", "mg1_domega_3",
                    "mg2_domega_1", "mg2_domega_2", "mg1_pg_1", "mg2_pg_1"):
            assert np.max(np.abs(ts.columns[col])) <= 1e-9


class TestRunScenario:
    def test_quiescent_run_stays_identically_zero(self):
        g = cs.grid1_spec(controller="optimal-z")
        sc = m.Scenario(grids=(g,), horizon=1.0, seed=0)
        ts = m.run_scenario(sc)
        for i in range(3):
            assert np.max(np.abs(ts.columns[f"mg1_domega_{i + 1}"])) <= 1e-9
            assert np.max(np.abs(ts.columns[f"mg1_ddelta_{i + 1}"])) <= 1e-9
            assert np.max(np.abs(ts.columns[f"mg1_dws_{i + 1}"])) <= 1e-9

    def test_z_frozen_under_decentralized_law(self):
        """Constant load deviation, local law: z stays at zero through the
        quadrature identity and frequencies decay monotonically in envelope."""
        sig = m.LoadSignalSpec(kind="constant", amplitude=1200.0, load_index=0)
        g = cs.grid1_spec(controller="decentralized", load_signals=[sig])
        sc = m.Scenario(grids=(g,), horizon=1.5, seed=0)
        ts = m.run_scenario(sc)
        for i in range(3):
            assert np.max(np.abs(ts.columns[f"mg1_z_{i + 1}"])) <= 1e-12
        peak = np.max(np.abs(ts.columns["mg1_domega_1"]))
        tail = np.max(np.abs(ts.columns["mg1_domega_1"][ts.time >= 1.0]))
        assert tail <= 0.05 * peak + 1e-12

    def test_logged_z_is_the_z_update_recursion_of_the_logged_columns(
            self, trained_detector_quiet):
        """mg1_z at step k equals z_update applied to the logged dws + wm and
        pg_rx of step k - 1 (zeros at k = 0), bit for bit, with a watermark
        and a noise attack on the received powers."""
        g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                          detector=trained_detector_quiet,
                          load_signals=[cs.pulse_load_signal()])
        atk = m.AttackSpec(kind="noise-injection", channels=(1,), start=0.5,
                           end=0.8, noise_std=300.0)
        sc = m.Scenario(grids=(g,), horizon=1.0, seed=5, attacks=(atk,))
        log = m.run_scenario(sc).grids[0]
        omega_c = np.array([p.omega_c for p in g.ibrs])
        m_p = np.array([p.m_p for p in g.ibrs])
        applied, pg_rx, logged = log["dws"] + log["wm"], log["pg_rx"], log["z"]
        assert np.any(log["wm"]) and np.any(pg_rx != log["pg"])
        z = u_prev = pg_prev = np.zeros(3)
        for k in range(len(logged)):
            z = m.z_update(z, u_prev, pg_prev, sc.control_period, omega_c, m_p)
            assert np.array_equal(z, logged[k])
            u_prev, pg_prev = applied[k], pg_rx[k]

    @staticmethod
    def _diverged(sc, monkeypatch):
        """(SimulationError of running sc, sc's log unchecked, step of its first
        non-finite value, the float columns non-finite there in CSV order)."""
        with pytest.raises(m.SimulationError) as err:
            m.run_scenario(sc)
        monkeypatch.setattr(simcore, "check_finite", lambda *args: None)
        ts = m.run_scenario(sc)
        names = [c for c, col in ts.columns.items() if col.dtype.kind == "f"]  # CSV order
        bad = np.column_stack([~np.isfinite(ts.columns[c]) for c in names])
        k = np.flatnonzero(bad.any(axis=1))[0]
        return err.value, ts, k, [names[j] for j in np.flatnonzero(bad[k])]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_diverged_run_names_the_first_step_and_column_not_finite(self, monkeypatch):
        """A run whose log goes non-finite raises SimulationError at the first
        such step, naming its time and the first such column of that step in
        the CSV's order; the same run unchecked is the oracle."""
        sig = m.LoadSignalSpec(kind="step", amplitude=1e308, load_index=0, step_time=0.3)
        sc = m.Scenario(grids=(cs.grid1_spec(), cs.grid2_spec(load_signals=[sig])),
                        horizon=1.0)
        err, ts, k, bad = self._diverged(sc, monkeypatch)
        col = bad[0]
        assert ts.time[k] >= 0.3 and col.startswith("mg2_")
        assert str(err) == f"the run diverged at t={ts.time[k]:.4f}s: {col} = {ts.columns[col][k]}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow itself
    def test_two_grids_diverging_at_one_step_name_the_first_csv_column(self, monkeypatch):
        """The case-study grids, grid 1 switched off under a 1.7e308 W load step
        and the tie closed 0.2 s later: both grids go non-finite at the close,
        and the error names the first such column in the CSV's order, grid 1's,
        not the first of a per-IBR name over both grids."""
        sig = m.LoadSignalSpec(kind="step", amplitude=1.7e308, load_index=0, step_time=0.5)
        sc = m.Scenario(grids=(cs.grid1_spec(load_signals=[sig]), cs.grid2_spec()),
                        horizon=1.0, tie=cs.default_tie(),
                        events=(m.Event(0.5, "controller_off", 0), m.Event(0.7, "tie_close")))
        err, ts, k, bad = self._diverged(sc, monkeypatch)
        assert ts.time[k] == pytest.approx(0.7)
        assert {c[:4] for c in bad} == {"mg1_", "mg2_"}
        col = bad[0]
        assert col.startswith("mg1_")
        assert str(err) == f"the run diverged at t={ts.time[k]:.4f}s: {col} = {ts.columns[col][k]}"

    def test_determinism_bit_identical_logs(self):
        sig = cs.pulse_load_signal()
        g = cs.grid1_spec(controller="optimal-z",
                          weights=m.CostWeights.uniform(3, q=10.0),
                          load_signals=[sig])
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5,
                           end=0.7, noise_std=100.0)
        sc = m.Scenario(grids=(g,), horizon=1.0, seed=123, attacks=(atk,))
        ts1 = m.run_scenario(sc)
        ts2 = m.run_scenario(sc)
        for name in ts1.columns:
            if ts1.columns[name].dtype == object:
                assert list(ts1.columns[name]) == list(ts2.columns[name])
            else:
                np.testing.assert_array_equal(ts1.columns[name], ts2.columns[name])

    def test_events_toggle_controller(self):
        sig = m.LoadSignalSpec(kind="constant", amplitude=1500.0, load_index=0)
        g = cs.grid1_spec(controller="optimal-z",
                          weights=m.CostWeights.uniform(3, q=10.0),
                          load_signals=[sig])
        sc = m.Scenario(
            grids=(g,), horizon=2.0, seed=0,
            events=(m.Event(time=1.0, action="controller_off", grid=0),),
        )
        ts = m.run_scenario(sc)
        log, after = ts.grids[0], ts.time >= 1.0
        assert set(log["ctrl"][~after]) == {"optimal-z"} and set(log["ctrl"][after]) == {"off"}
        assert np.max(np.abs(log["dws"][after])) == 0.0

    def test_scenario_validation(self):
        g = cs.grid1_spec()
        with pytest.raises(m.ScenarioError):
            m.Scenario(grids=(g,), horizon=1.0, control_period=0.005,
                       integrator_step=0.0007)
        with pytest.raises(m.ScenarioError):
            m.Scenario(grids=(g,), horizon=1.0,
                       events=(m.Event(time=0.1, action="tie_close"),))
        with pytest.raises(m.ScenarioError):
            m.Scenario(grids=(g,), horizon=1.0, attacks=(
                m.AttackSpec(kind="noise-injection", channels=(7,), start=0.1,
                             end=0.2, noise_std=1.0),))
        # a tie is checked when the scenario is built, not when it closes
        with pytest.raises(m.ScenarioError, match="exactly two grids"):
            m.Scenario(grids=(g,), horizon=1.0, tie=cs.default_tie(),
                       events=(m.Event(time=0.1, action="tie_close"),))
        with pytest.raises(m.ScenarioError, match="not a node of grid 2"):
            m.Scenario(grids=(g, cs.grid2_spec()), horizon=1.0,
                       tie=m.TieSpec(node_a=4, node_b=3))

    @pytest.mark.parametrize("field, kwargs", [
        ("horizon", dict(horizon=1.0025)),
        ("horizon", dict(horizon=-0.5)),
        ("events[0].time", dict(events=(m.Event(time=0.5003, action="controller_off"),))),
        ("attacks[0].start", dict(attacks=(m.AttackSpec(
            kind="noise-injection", channels=(0,), start=0.5003, end=0.7),))),
        ("attacks[0].end", dict(attacks=(m.AttackSpec(
            kind="noise-injection", channels=(0,), start=0.5, end=0.7001),))),
        ("attacks[0].replay_from", dict(attacks=(m.AttackSpec(
            kind="replay", channels=(0,), start=0.5, end=0.7, replay_from=0.1001,
            replay_to=0.2),))),
        ("attacks[0].replay_to", dict(attacks=(m.AttackSpec(
            kind="replay", channels=(0,), start=0.5, end=0.7, replay_from=0.1,
            replay_to=0.2001),))),
        ("grids[0].slow_hold = 0.1 s is not a whole, non-negative number of 0.04 s steps",
         dict(grids=(cs.grid1_spec("slow-lqr"),), control_period=0.04)),
    ], ids=["horizon", "negative-horizon", "event", "start", "end", "replay_from",
            "replay_to", "slow_hold"])
    def test_times_must_be_whole_control_periods(self, field, kwargs):
        args = dict(grids=(cs.grid1_spec(),), horizon=1.0) | kwargs
        with pytest.raises(m.ScenarioError, match=re.escape(field)):
            m.Scenario(**args)

    @pytest.mark.parametrize("record, field, kwargs", [
        (None, "horizon", dict(horizon=1.0025)),
        (None, "control_period", dict(control_period=0.0052)),
        ("grids[0]", "controller", dict(grids=(cs.grid1_spec("slow-lqr"),),
                                        control_period=0.04)),
    ], ids=["horizon", "control_period", "slow-lqr-hold"])
    def test_timing_errors_name_their_field(self, record, field, kwargs):
        """The horizon and the control period are the Scenario's own fields; the
        fixed slow-lqr hold is the controller's, the one law that reads it."""
        with pytest.raises(m.ScenarioError, match="is not a whole") as info:
            m.Scenario(**dict(grids=(cs.grid1_spec(),), horizon=1.0) | kwargs)
        assert (info.value.record, info.value.field) == (record, field)

    @pytest.mark.parametrize("message, kwargs", [
        ("events[0].time = 1.0 s", dict(events=(m.Event(1.0, "controller_off"),))),
        ("events[1].time = 5.0 s", dict(events=(m.Event(0.5, "controller_off"),
                                                m.Event(5.0, "controller_on")))),
        ("attacks[0].start = 2.0 s", dict(attacks=(m.AttackSpec(
            kind="noise-injection", channels=(0,), start=2.0, end=2.5),))),
    ], ids=["event-at", "event-past", "attack-past"])
    def test_times_must_fall_before_the_horizon(self, message, kwargs):
        with pytest.raises(m.ScenarioError,
                           match=re.escape(f"{message} is not before the horizon, 1.0 s")):
            m.Scenario(grids=(cs.grid1_spec(),), horizon=1.0, **kwargs)

    def test_time_that_rounds_to_the_horizon_is_not_before_it(self):
        """0.5 (1 - 1e-12) s is step 100 of a 100-step run to whole_steps's
        tolerance, so the event would never fire. The error names its record
        and field, and its message is the text without the record."""
        t = 0.5 * (1 - 1e-12)
        with pytest.raises(m.ScenarioError, match=re.escape(
                f"events[0].time = {t} s is not before the horizon, 0.5 s")) as info:
            m.Scenario(grids=(cs.grid1_spec(),), horizon=0.5,
                       events=(m.Event(t, "controller_off"),))
        assert (info.value.record, info.value.field) == ("events[0]", "time")
        assert info.value.message == f"time = {t} s is not before the horizon, 0.5 s"

    @pytest.mark.parametrize("record, field, kwargs", [
        ("grids[0]", "controller", dict(grids=(cs.grid1_spec("observer"),))),
        ("events[0]", "action", dict(events=(m.Event(0.5, "observer_on"),))),
    ], ids=["observer-grid", "observer-event"])
    def test_observer_law_needs_a_detector(self, record, field, kwargs):
        """An observer grid or an observer_on event without the grid's detector
        is rejected when the scenario is built, not when the run reaches it."""
        args = dict(grids=(cs.grid1_spec(),), horizon=1.0) | kwargs
        with pytest.raises(m.ScenarioError, match="detector") as info:
            m.Scenario(**args)
        assert (info.value.record, info.value.field) == (record, field)

    @pytest.mark.parametrize("message, attack", [
        ("attack window", dict(kind="noise-injection", start=0.2, end=0.2000000000002)),
        ("replay source window", dict(kind="replay", start=0.5, end=0.7, replay_from=0.1,
                                      replay_to=0.1000000000001)),
    ], ids=["attack", "replay-source"])
    def test_attack_windows_span_a_control_step(self, message, attack):
        """Times within whole_steps's tolerance of each other are one step: a
        window whose ends round to the same step would never run or replay."""
        with pytest.raises(m.ScenarioError,
                           match=f"^{message} rounds to zero control steps$") as info:
            m.Scenario(grids=(cs.grid1_spec(),), horizon=1.0,
                       attacks=(m.AttackSpec(channels=(0,), **attack),))
        assert (info.value.record, info.value.field) == ("attacks[0]", None)

    def test_unknown_grids_are_numbered_from_one(self):
        """With two grids, an index of 2 names a third grid: grid 3."""
        grids = (cs.grid1_spec(), cs.grid2_spec())
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.1, end=0.2,
                           grid=2)
        with pytest.raises(m.ScenarioError, match="attack targets unknown grid 3$"):
            atk.check(grids)
        with pytest.raises(m.ScenarioError, match="event targets unknown grid 3$"):
            m.Scenario(grids=grids, horizon=1.0, events=(m.Event(0.1, "controller_off", 2),))

    def test_replay_attack_substitutes_the_logged_true_powers(self):
        """Inside the window the attacked channels receive the true powers of
        the source steps, cyclically and bit for bit; the rest receive pg."""
        g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                          load_signals=[cs.pulse_load_signal()])
        atk = m.AttackSpec(kind="replay", channels=(0, 2), start=1.0, end=1.6,
                           replay_from=0.3, replay_to=0.55)
        ts = m.run_scenario(m.Scenario(grids=(g,), horizon=2.0, seed=9, attacks=(atk,)))
        steps = np.arange(200, 320)
        source = 60 + (steps - 200) % 50
        outside = np.setdiff1d(np.arange(400), steps)
        for c in (1, 3):  # channels 0 and 2
            rx, pg = ts.columns[f"mg1_pg_rx_{c}"], ts.columns[f"mg1_pg_{c}"]
            assert np.array_equal(rx[steps], pg[source])
            assert not np.array_equal(rx[steps], pg[steps])
            assert np.array_equal(rx[outside], pg[outside])
        assert np.array_equal(ts.columns["mg1_pg_rx_2"], ts.columns["mg1_pg_2"])

    def test_untied_grids_run_independently(self):
        """Two grids without a tie share the world plant but not its physics:
        each grid's log equals the log of that grid run alone."""
        g1 = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                           load_signals=[cs.pulse_load_signal()])
        step = m.LoadSignalSpec(kind="step", amplitude=900.0, load_index=0,
                                step_time=0.2)
        g2 = cs.grid2_spec(controller="pi", load_signals=[step])
        both = m.run_scenario(m.Scenario(grids=(g1, g2), horizon=1.0, seed=0))
        for gi, g in enumerate((g1, g2)):
            alone = m.run_scenario(m.Scenario(grids=(g,), horizon=1.0, seed=0))
            for name in alone.columns:
                col = both.columns[f"mg{gi + 1}" + name[len("mg1"):]]
                if alone.columns[name].dtype == object:
                    assert list(col) == list(alone.columns[name])
                else:
                    peak = np.max(np.abs(alone.columns[name]))
                    assert np.max(np.abs(col - alone.columns[name])) <= 1e-12 * peak

    def test_auto_observer_response_engages_on_flag(self, trained_detector_quiet):
        """Flag up with no neighbor: the law switches to observer; the
        watermark stops; the corrupted measurements no longer drive commands."""
        det = trained_detector_quiet
        g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0), detector=det)
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5,
                           end=10.0, noise_std=800.0)
        sc = m.Scenario(grids=(g,), horizon=2.0, seed=13, attacks=(atk,),
                        auto_response="observer")
        ts = m.run_scenario(sc)
        assert "observer" in set(ts.columns["mg1_ctrl"])
        switched = ts.time[ts.columns["mg1_ctrl"] == "observer"]
        assert switched.size and switched[0] - 0.5 <= 0.1
        # watermark stops after the switch
        post_wm = ts.columns["mg1_wm_1"][ts.time >= switched[0] + 0.01]
        assert np.max(np.abs(post_wm)) == 0.0
        # frequencies settle despite the ongoing attack
        tail = np.max(np.abs(ts.grids[0]["domega"][ts.time >= 1.5]))
        assert tail <= 1e-3

    def test_auto_collaborative_response_closes_tie(self, trained_detector_quiet):
        """Flag up with a neighbor available: commands and watermark zero,
        the tie closes, the neighbor controller takes over regulation."""
        det = trained_detector_quiet
        step = m.LoadSignalSpec(kind="step", amplitude=1200.0, load_index=0,
                                step_time=0.4)
        g1 = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                           detector=det, load_signals=[step])
        g2 = cs.grid2_spec(weights=m.CostWeights.uniform(2, q=10.0))
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5,
                           end=10.0, noise_std=800.0)
        sc = m.Scenario(grids=(g1, g2), horizon=5.0, seed=17, attacks=(atk,),
                        tie=cs.default_tie(), auto_response="collaborative")
        ts = m.run_scenario(sc)
        off = ts.time[ts.columns["mg1_ctrl"] == "off"]
        assert off.size and off[0] - 0.5 <= 0.1
        after = ts.time >= off[0] + 0.01
        assert np.max(np.abs(ts.columns["mg1_dws_1"][after])) == 0.0
        assert np.max(np.abs(ts.columns["mg1_wm_1"][after])) == 0.0
        # the neighbor regulates everyone in steady state
        tail = np.max(np.abs(ts.grids[0]["domega"][ts.time >= 4.5]))
        assert tail <= 1e-3

    def test_auto_collaborative_response_logs_the_flag_step(self, trained_detector_quiet):
        """The detector retired by the tie close still logs the step that flagged."""
        g1 = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                           detector=trained_detector_quiet)
        g2 = cs.grid2_spec(weights=m.CostWeights.uniform(2, q=10.0))
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5,
                           end=10.0, noise_std=800.0)
        sc = m.Scenario(grids=(g1, g2), horizon=1.0, seed=17, attacks=(atk,),
                        tie=cs.default_tie(), auto_response="collaborative")
        ts = m.run_scenario(sc)
        (steps,) = np.nonzero(ts.columns["mg1_flag"])
        (off,) = np.nonzero(ts.columns["mg1_ctrl"] == "off")
        assert steps.tolist() == [off[0]]
        assert ts.columns["mg1_xi1"][off[0]] > 0.0 and ts.columns["mg1_xi2"][off[0]] > 0.0
        latency = ts.time[off[0]] - 0.5
        assert f"detection_latency_s = {latency:.6g}" in m.summarize(ts, sc)

    def test_auto_observer_response_switches_a_grid_that_was_off(
            self, trained_detector_quiet):
        """The response is the observer_on event: it switches on a grid whose
        own controller is none, from the row that flagged."""
        g = cs.grid1_spec(controller="none", weights=m.CostWeights.uniform(3, q=10.0),
                          detector=trained_detector_quiet)
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5,
                           end=10.0, noise_std=800.0)
        ts = m.run_scenario(m.Scenario(grids=(g,), horizon=1.0, seed=13, attacks=(atk,),
                                       auto_response="observer"))
        first = int(np.flatnonzero(ts.columns["mg1_flag"])[0])
        assert set(ts.columns["mg1_ctrl"][:first]) == {"off"}
        assert set(ts.columns["mg1_ctrl"][first:]) == {"observer"}

    def test_controller_on_after_a_collaborative_response_restores_the_grid_law(
            self, trained_detector_quiet):
        """The response switches the grid off without forgetting its law, so a
        later controller_on event brings that law back."""
        g1 = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                           detector=trained_detector_quiet)
        g2 = cs.grid2_spec(weights=m.CostWeights.uniform(2, q=10.0))
        atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5,
                           end=10.0, noise_std=800.0)
        sc = m.Scenario(grids=(g1, g2), horizon=3.5, seed=17, attacks=(atk,),
                        tie=cs.default_tie(), auto_response="collaborative",
                        events=(m.Event(time=3.0, action="controller_on"),))
        ts = m.run_scenario(sc)
        log, after = ts.grids[0], ts.time >= 3.0
        assert "off" in set(log["ctrl"][~after])
        assert set(log["ctrl"][after]) == {"optimal-z"}
        assert np.any(log["dws"][after, 0] != 0.0)

    def test_summarize_contains_metrics(self):
        g = cs.grid1_spec(controller="optimal-z")
        sc = m.Scenario(grids=(g,), horizon=0.5, seed=0)
        ts = m.run_scenario(sc)
        text = m.summarize(ts, sc)
        assert "rms_domega_rad_s" in text and "[grid 1]" in text

    def test_rms_helper(self):
        assert rms(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))
        assert rms(np.array([])) == 0.0


def _observer_run(attacks=()):
    """(scenario, log) of one study grid on the observer law from the start, with
    a hand-built order-1 detector model, the pulse load and a watermark; the
    detector's thresholds are open, so it never flags."""
    model = DiscreteModel(a_d=np.array([[0.9]]), b_d=np.array([[0.5, 0.2, -0.1]]),
                          c_d=np.array([[2000.0], [1000.0], [-500.0]]), dt=0.005, order=1)
    det = m.DetectorSetup(model=model, watermark=m.WatermarkConfig(0.012, seed=4),
                          baseline=m.BaselineStats(np.zeros(3), np.zeros((3, 3)), w=20))
    g = cs.grid1_spec(controller="observer", weights=m.CostWeights.uniform(3, q=10.0),
                      detector=det, load_signals=[cs.pulse_load_signal()])
    sc = m.Scenario(grids=(g,), horizon=1.0, seed=5, attacks=attacks)
    return sc, m.run_scenario(sc)


def test_observer_law_runs_on_the_model_prediction():
    """The logged zhat and dws rows follow the observer law, bit for bit:
    z_hat+ = z_hat + omega_c (u - m_p C x_hat) dt and x_hat+ = A x_hat + B u with
    u = dws + wm of the row before (zeros before row 0), and dws = clip(-K z_hat)."""
    sc, ts = _observer_run()
    g = sc.grids[0]
    model = g.detector.model
    gain = m.lqr_gain(m.grid_plant(g)[1], g.weights, m.make_transform(g.ibrs))
    omega_c = np.array([p.omega_c for p in g.ibrs])
    m_p = np.array([p.m_p for p in g.ibrs])
    zhat, dws, wm, ctrl = (ts.grids[0][name] for name in ("zhat", "dws", "wm", "ctrl"))
    assert np.any(wm) and np.any(zhat) and set(ctrl) == {"observer"}
    x_hat, z_hat, u = np.zeros(1), np.zeros(3), np.zeros(3)
    for k in range(len(ts.time)):
        if k > 0:
            z_hat = z_hat + omega_c * (u - m_p * (model.c_d @ x_hat)) * sc.control_period
            x_hat = model.a_d @ x_hat + model.b_d @ u
        assert np.array_equal(zhat[k], z_hat)
        limit = defaults.COMMAND_LIMIT
        assert np.array_equal(dws[k], np.clip(-(gain.k @ z_hat), -limit, limit))
        u = dws[k] + wm[k]


def test_observer_law_ignores_the_received_powers():
    """Two runs that differ only by a noise attack on the received powers log
    the same observer commands and z_hat."""
    atk = m.AttackSpec(kind="noise-injection", channels=(0, 2), start=0.3, end=0.8,
                       noise_std=800.0)
    (_, clean), (_, attacked) = _observer_run(), _observer_run((atk,))
    attacked, clean = attacked.grids[0], clean.grids[0]
    assert not np.array_equal(attacked["pg_rx"], clean["pg_rx"])
    for name in ("dws", "zhat"):
        assert np.array_equal(attacked[name], clean[name]), name


def test_only_apply_event_changes_a_grid_mid_run():
    """A grid runtime's law, observer, watermark and detector are set when it is
    built or its law is bound, and changed during a run only by _apply_event:
    an auto-response fires the events it stands for."""
    guarded = {"controller", "enabled", "x_hat", "z_hat", "wm_source", "det_state", "law"}
    writers: dict[str, set[str]] = {}

    def scan(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            written = None
            if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
                written = child.attr
            elif (isinstance(child, ast.Call) and len(child.args) > 1
                  and isinstance(child.args[1], ast.Constant)
                  and getattr(child.func, "id", getattr(child.func, "attr", None))
                  in ("setattr", "__setattr__")):
                written = child.args[1].value
            if written in guarded:
                writers.setdefault(scope, set()).add(written)
            scan(child, inner)

    scan(ast.parse(Path(simcore.__file__).read_text()), "")
    assert set(writers) == {"_GridRuntime.__init__", "_GridRuntime.resolve_law",
                            "_apply_event"}, writers
    assert writers["_apply_event"] == guarded - {"law"}


# ---------------------------------------------------------------------------
# the closed-loop recursion of a linear run, against the stepped loop

_RAD = ("ddelta", "domega", "dws", "z")  # the log names in rad or rad/s


def _runs(scenario):
    """(log, stepped log, whether the recursion filled the log) of scenario:
    as run_scenario runs it, and with _run_linear declining, the stepped loop."""
    taken = []
    inner = simcore._run_linear

    def spy(world, loads):
        taken.append(inner(world, loads))
        return taken[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcore, "_run_linear", spy)
        ts = m.run_scenario(scenario)
        mp.setattr(simcore, "_run_linear", lambda world, loads: False)
        return ts, m.run_scenario(scenario), taken == [True]


@st.composite
def _edge_loads(draw, horizon: float, n_load: int):
    """A step or a periodic pulse of 1 to 1,500 W whose edges fall between substeps."""
    amplitude = draw(st.sampled_from((-1.0, 1.0))) * draw(st.floats(1.0, 1500.0))
    load_index = draw(st.integers(0, n_load - 1))
    if draw(st.booleans()):
        return m.LoadSignalSpec(kind="step", amplitude=amplitude, load_index=load_index,
                                step_time=draw(st.floats(0.0, horizon)))
    period = draw(st.floats(0.02, 0.5))
    return m.LoadSignalSpec(kind="periodic-pulse", amplitude=amplitude, load_index=load_index,
                            period=period, width=draw(st.floats(0.1, 0.9)) * period)


@st.composite
def _linear_scenarios(draw):
    """One or two study grids side by side, each on a linear law, up to 2 s."""
    horizon = draw(st.integers(1, 400)) * defaults.CONTROL_PERIOD
    grids = []
    for make, n_load in ((cs.grid1_spec, 2), (cs.grid2_spec, 1))[:draw(st.integers(1, 2))]:
        signals = draw(st.lists(_edge_loads(horizon, n_load), max_size=2))
        grids.append(make(controller=draw(st.sampled_from(simcore._LINEAR_LAWS)),
                          load_signals=signals))
    return m.Scenario(grids=tuple(grids), horizon=horizon)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(scenario=_linear_scenarios())
def test_linear_run_is_the_stepped_run_up_to_rounding(scenario):
    """Every log column of the recursion is within 1e-11 of its peak of the
    stepped one; a rad or rad/s column whose peak is round-off (a decentralized
    law cancels a load exactly) within 1e-12 absolute. Labels are equal."""
    ts, stepped, linear = _runs(scenario)
    assert linear
    for name, col in stepped.columns.items():
        if col.dtype == object:
            assert list(ts.columns[name]) == list(col)
            continue
        floor = 1e-12 if name.split("_")[1] in _RAD else 0.0
        bound = max(1e-11 * np.max(np.abs(col), initial=0.0), floor)
        assert np.max(np.abs(ts.columns[name] - col), initial=0.0) <= bound, name


def test_saturating_run_is_the_stepped_run_bit_for_bit():
    """A load step that drives the optimal-z commands to +-COMMAND_LIMIT leaves
    the linear range: the run returns the stepped log, bit for bit."""
    sig = m.LoadSignalSpec(kind="step", amplitude=40000.0, load_index=0, step_time=0.1)
    ts, stepped, linear = _runs(m.Scenario(grids=(cs.grid1_spec(load_signals=[sig]),),
                                           horizon=1.0))
    assert not linear
    assert np.max(np.abs(ts.grids[0]["dws"])) == defaults.COMMAND_LIMIT
    for name, col in stepped.columns.items():
        assert np.array_equal(ts.columns[name], col), name


@pytest.mark.parametrize("kind", ["linear", "slow-lqr", "detector", "event", "attack", "tie"])
def test_only_a_linear_run_skips_the_stepper(monkeypatch, trained_detector_quiet, kind):
    """A slow-lqr, detector, event, attack or tie run makes one ZohStepper.step
    call per control step; a run of linear laws alone makes none."""
    calls = []
    step = simcore.ZohStepper.step
    monkeypatch.setattr(simcore.ZohStepper, "step",
                        lambda *args: calls.append(1) or step(*args))
    g = cs.grid1_spec(controller="slow-lqr" if kind == "slow-lqr" else "optimal-z",
                      weights=m.CostWeights.uniform(3, q=10.0),
                      detector=trained_detector_quiet if kind == "detector" else None,
                      load_signals=[cs.pulse_load_signal()])
    sc = m.Scenario(
        grids=(g, cs.grid2_spec()) if kind == "tie" else (g,), horizon=0.5,
        tie=cs.default_tie() if kind == "tie" else None,
        events=(m.Event(0.2, "controller_off"),) if kind == "event" else (),
        attacks=((m.AttackSpec(kind="noise-injection", channels=(0,), start=0.1, end=0.3,
                               noise_std=100.0),) if kind == "attack" else ()))
    m.run_scenario(sc)
    assert len(calls) == (0 if kind == "linear" else sc.n_steps)
