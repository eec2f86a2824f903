"""Scenario engine tests: integrator exactness, sensors, attacks, load
signals, tie-line merging, and run-level invariants."""

import ast
import logging
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import microagc as m
from microagc import casestudy as cs, cli, defaults, simcore
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
        x1 = ZohStepper(plant, 0.25).step(np.zeros(2), np.array([3.0]), np.zeros((1, 0)), [True])
        np.testing.assert_allclose(x1, [0.75, 0.0], atol=1e-15)

    def test_scalar_exponential_decay(self):
        plant = m.LinearPlant(
            a=np.array([[-1.0]]), b1=np.zeros((1, 1)),
            f=np.zeros((1, 0)), e=np.zeros((1, 1)), h_red=np.zeros((1, 1)),
            f_map=np.zeros((1, 0)),
        )
        x1 = ZohStepper(plant, 1.0).step(np.array([1.0]), np.zeros(1), np.zeros((1, 0)), [True])
        assert x1[0] == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_semigroup_two_half_steps(self):
        grid = cs.grid1_spec()
        plant = m.grid_plant(grid)[1]
        rng = np.random.default_rng(1)
        x = rng.normal(0.0, 0.05, plant.n_states)
        u = rng.normal(0.0, 0.05, 3)
        pl = rng.normal(0.0, 200.0, (1, 2))
        one = ZohStepper(plant, 0.005).step(x, u, pl, [True])
        half_step = ZohStepper(plant, 0.0025).step
        two = half_step(half_step(x, u, pl, [True]), u, pl, [True])
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
            pl = np.cos(np.arange(2) + 0.029 * k)[None] * 300.0
            x_c = coarse.step(x_c, u, pl, [True])
            for _ in range(64):
                x_f = fine.step(x_f, u, pl, [True])
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
    block = stepper.step(x0, u, rows, [True] * len(rows))
    x_rows = x_ref = x0
    for row in rows:
        x_rows = stepper.step(x_rows, u, row[None], [True])
        x_ref = stepper.a_d @ x_ref + stepper.b_d @ np.concatenate([u, row])
    assert np.array_equal(block, x_rows)
    assert np.array_equal(block, x_ref)


def test_step_needs_one_change_mark_per_load_row():
    """step takes (substeps, loads) rows and one mark per row: a flat row of
    loads, which it would read as one substep per load, or a short mask
    raises ValueError instead of stepping."""
    stepper = ZohStepper(m.assemble_plant(_GRID1.ibrs, _SENS1), 5e-4)
    x, u = np.zeros(6), np.zeros(3)
    for rows, changed in ((np.array([900.0, 0.0]), [True]), (np.zeros((3, 2)), [True, False])):
        with pytest.raises(ValueError):
            stepper.step(x, u, rows, changed)


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
            x_rows = stepper.step(x_rows, u, row[None], [True])
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
        noise = np.random.default_rng(0).normal(0.0, 10.0, (200, 1))
        meas = np.array([5.0, 6.0])
        out = m.apply_attack(meas, spec, 100, np.zeros((10, 2)), (200, 400, 0, 0), noise)
        np.testing.assert_array_equal(out, meas)
        out = m.apply_attack(meas, spec, 400, np.zeros((10, 2)), (200, 400, 0, 0), noise)
        np.testing.assert_array_equal(out, meas)

    def test_zero_std_identity(self):
        spec = self.make_spec(noise_std=0.0)
        noise = np.random.default_rng(0).normal(0.0, 0.0, (200, 1))
        meas = np.array([5.0, 6.0])
        out = m.apply_attack(meas, spec, 300, np.zeros((10, 2)), (200, 400, 0, 0), noise)
        np.testing.assert_array_equal(out, meas)

    def test_noise_targets_selected_channels_only(self):
        spec = self.make_spec(channels=(1,))
        noise = np.random.default_rng(1).normal(0.0, 10.0, (200, 1))
        meas = np.array([5.0, 6.0])
        out = m.apply_attack(meas, spec, 300, np.zeros((10, 2)), (200, 400, 0, 0), noise)
        assert out[0] == 5.0 and out[1] == 6.0 + noise[100, 0]

    def test_replay_substitutes_recorded_window_bit_exact(self):
        hist = np.arange(400.0).reshape(200, 2)
        spec = m.AttackSpec(kind="replay", channels=(0,), start=0.5, end=0.6,
                            replay_from=0.1, replay_to=0.15)
        # source rows 20..29, cycling over attack steps 100..119; a replay reads no noise
        for k_rel, k in enumerate(range(100, 120)):
            out = m.apply_attack(np.array([-1.0, -2.0]), spec, k, hist, (100, 120, 20, 30),
                                 None)
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

    def test_attack_without_channels_is_rejected(self):
        """An attack on no channel would inject nothing and go undetected."""
        with pytest.raises(m.ScenarioError, match="at least one channel") as info:
            self.make_spec(channels=())
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
        and a noise attack on the received powers up to the horizon, so the
        whole run is stepped."""
        g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                          detector=trained_detector_quiet,
                          load_signals=[cs.pulse_load_signal()])
        atk = m.AttackSpec(kind="noise-injection", channels=(1,), start=0.5,
                           end=1.0, noise_std=300.0)
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

    @pytest.mark.parametrize("horizon", [20.0, 10.0], ids=["settled", "settling"])
    def test_summary_prints_a_round_off_steady_state_as_0(self, horizon):
        """A tie run: grid 1 off at 0.5 s under a load step, the tie closed at
        1 s, grid 2 regulating both. Settled at 20 s, every node's steady
        |domega| is round-off, nonzero and below STEADY_FLOOR, and prints 0;
        still settling at 10 s, each is above it and prints as it is. The RMS
        values print as they are."""
        sig = m.LoadSignalSpec(kind="step", amplitude=2000.0, load_index=0, step_time=0.5)
        sc = m.Scenario(grids=(cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                                             load_signals=[sig]),
                               cs.grid2_spec(weights=m.CostWeights.uniform(2, q=10.0))),
                        horizon=horizon, tie=cs.default_tie(),
                        events=(m.Event(0.5, "controller_off", 0), m.Event(1.0, "tie_close")))
        ts = m.run_scenario(sc)
        text = m.summarize(ts, sc)
        omegas = [w for log in ts.grids for w in log["domega"].T]
        steady = [np.mean(np.abs(w[ts.time >= 0.95 * horizon])) for w in omegas]
        settled = horizon == 20.0
        assert all(0.0 < v < simcore.STEADY_FLOOR if settled else v >= simcore.STEADY_FLOOR
                   for v in steady)
        assert re.findall(r"steady_abs_domega_rad_s = (\S+)", text) == (
            ["0"] * 5 if settled else [f"{v:.6g}" for v in steady])
        assert re.findall(r"rms_domega_rad_s = (\S+)", text) == [f"{rms(w):.6g}" for w in omegas]

    def test_rms_helper(self):
        assert rms(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))
        assert rms(np.array([])) == 0.0


# ---------------------------------------------------------------------------
# engaging the observer law: one rule, whether a flag or an event engages it


@pytest.fixture(scope="module")
def trained_detector_pulsed():
    grid = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                         load_signals=[cs.pulse_load_signal()])
    det, _ = cs.trained_detector(grid, calibration_signals=grid.load_signals, seed=5)
    return det


def _noise_run(detector, controller="optimal-z", **kwargs):
    """The log of study grid 1 (controller, pulse load, detector) under 800 W of
    noise on channel 0 from 2 s to the 4 s horizon, with seed 1."""
    g = cs.grid1_spec(controller, weights=m.CostWeights.uniform(3, q=10.0),
                      load_signals=[cs.pulse_load_signal()], detector=detector)
    atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=2.0, end=4.0,
                       noise_std=800.0)
    return m.run_scenario(m.Scenario(grids=(g,), horizon=4.0, seed=1, attacks=(atk,),
                                     **kwargs))


def _assert_same_logs(a, b):
    assert list(a.columns) == list(b.columns)
    for name, col in a.columns.items():
        assert np.array_equal(col, b.columns[name]), name


def test_flag_and_scheduled_event_engage_the_observer_alike(trained_detector_pulsed):
    """The flag-fired response and an observer_on event at the flag's step give
    bit-identical logs: both start the law from z of the step before and the
    detector's prediction state at the step's start, and integrate it once."""
    auto = _noise_run(trained_detector_pulsed, auto_response="observer")
    k = int(np.flatnonzero(auto.grids[0]["flag"])[0])
    assert set(auto.grids[0]["ctrl"][:k]) == {"optimal-z"}
    assert set(auto.grids[0]["ctrl"][k:]) == {"observer"}
    scheduled = _noise_run(trained_detector_pulsed,
                           events=(m.Event(auto.time[k], "observer_on"),))
    _assert_same_logs(auto, scheduled)


def test_a_flag_on_an_observer_grid_changes_nothing(trained_detector_pulsed, caplog):
    """On a grid already on the observer law the observer response is in
    effect: the flag fires nothing, so the run logs what the run without an
    auto response logs, and z_hat integrates on through the flag."""
    with caplog.at_level(logging.INFO, logger="microagc.simcore"):
        auto = _noise_run(trained_detector_pulsed, "observer", auto_response="observer")
    flags = np.flatnonzero(auto.grids[0]["flag"])
    assert flags.size and set(auto.grids[0]["ctrl"]) == {"observer"}
    assert "observer law engaged" not in caplog.text
    _assert_same_logs(auto, _noise_run(trained_detector_pulsed, "observer"))
    assert np.all(auto.grids[0]["zhat"][flags[0]] != 0.0)


def test_an_observer_on_event_on_an_observer_grid_changes_nothing(trained_detector_pulsed):
    """observer_on on a grid whose law is already the observer keeps the law's
    state: z_hat integrates on, as in the run without the event."""
    plain = _noise_run(trained_detector_pulsed, "observer")
    event = _noise_run(trained_detector_pulsed, "observer",
                       events=(m.Event(2.5, "observer_on"),))
    _assert_same_logs(plain, event)


def _observer_run(attacks=()):
    """(scenario, log) of one study grid on the observer law from the start, with
    a hand-built order-1 detector model, the pulse load and a watermark; the
    detector's thresholds are open, so it never flags."""
    model = DiscreteModel(a_d=np.array([[0.9]]), b_d=np.array([[0.5, 0.2, -0.1]]),
                          c_d=np.array([[2000.0], [1000.0], [-500.0]]), dt=0.005, order=1)
    det = m.DetectorSetup(model=model, watermark=m.WatermarkConfig(0.012, seed=4),
                          baseline=m.BaselineStats(np.zeros(3), trace=0.0, w=20))
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
    built, and changed during a run only by _apply_event: an auto-response
    fires the events it stands for."""
    guarded = {"controller", "enabled", "x_hat", "z_hat", "wm", "det_state"}
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
    assert set(writers) == {"_GridRuntime.__init__", "_apply_event"}, writers
    assert writers["_apply_event"] == guarded


def test_the_engines_name_no_law():
    """Each law is written once: the stepped loop, the loop map and the
    recursion reach every law through the same functions (_law, _integrate,
    _command) and compare no law name themselves, and no per-law binding is
    left beside them."""
    laws = {"optimal-z", "decentralized", "pi", "slow-lqr", "observer"}
    tree = ast.parse(Path(simcore.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_bind_law" not in defs and not hasattr(simcore, "_bind_law")
    for name in ("_loop_map", "_run_linear", "_run_stepped"):
        named = {const.value for cmp in ast.walk(defs[name]) if isinstance(cmp, ast.Compare)
                 for const in ast.walk(cmp) if isinstance(const, ast.Constant)}
        assert not named & laws, (name, named & laws)


# ---------------------------------------------------------------------------
# the closed-loop recursion of a linear run, against the stepped loop

_RAD = ("ddelta", "domega", "dws", "z")  # the log names in rad or rad/s
_XI = {"xi1": 1, "xi2": 2}  # the detector statistics, in W and W^2: their power of W


def _runs(scenario):
    """(log, stepped log, whether the recursion filled the log's tail) of
    scenario: as run_scenario runs it, and with _run_linear declining, the
    stepped loop from start to end."""
    taken = []
    inner = simcore._run_linear

    def spy(world, loads, k0):
        taken.append(inner(world, loads, k0))
        return taken[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simcore, "_run_linear", spy)
        ts = m.run_scenario(scenario)
        mp.setattr(simcore, "_run_linear", lambda world, loads, k0: False)
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


# grid 2's open detector model: it predicts zero power, so its innovations are pg
_ZERO_MODEL = DiscreteModel(a_d=np.zeros((1, 1)), b_d=np.zeros((1, 2)), c_d=np.zeros((2, 1)),
                            dt=defaults.CONTROL_PERIOD, order=1)


def _window(draw, n_steps: int, replay: bool) -> dict:
    """An attack window, in seconds, that ends before step n_steps; a replay's
    source window precedes it."""
    dt = defaults.CONTROL_PERIOD
    start = draw(st.integers(2 if replay else 0, n_steps - 2))
    times = dict(start=start * dt, end=draw(st.integers(start + 1, n_steps - 1)) * dt)
    if replay:
        source = draw(st.integers(0, start - 1))
        times.update(replay_from=source * dt,
                     replay_to=draw(st.integers(source + 1, start)) * dt)
    return times


@st.composite
def _linear_scenarios(draw, trained):
    """One or two study grids side by side, each on a linear law, up to 2 s,
    each without a detector or with one that cannot act: open (grid 1 runs
    trained's model, grid 2 _ZERO_MODEL) or, on grid 1, trained, each with
    its own watermark, whose std may be 0. The run may switch grids off and
    on, close a tie between two grids, and attack grid 1's received powers
    by noise or replay in a window that ends before the horizon."""
    n_steps = draw(st.integers(1, 400))
    horizon = n_steps * defaults.CONTROL_PERIOD
    grids = []
    for gi, (make, n_load) in enumerate(((cs.grid1_spec, 2),
                                         (cs.grid2_spec, 1))[:draw(st.integers(1, 2))]):
        signals = draw(st.lists(_edge_loads(horizon, n_load), max_size=2))
        detector = draw(st.sampled_from((None, "open", "trained")[:3 - gi]))
        if detector is not None:
            watermark = m.WatermarkConfig(draw(st.sampled_from((0.0, defaults.WATERMARK_STD))),
                                          seed=draw(st.integers(0, 99)))
            detector = (replace(trained, watermark=watermark) if detector == "trained" else
                        cli.open_detector(trained.model if gi == 0 else _ZERO_MODEL, watermark,
                                          draw(st.sampled_from((10, defaults.DETECTOR_WINDOW)))))
        grids.append(replace(make(controller=draw(st.sampled_from(simcore._LINEAR_LAWS)),
                                  load_signals=signals), detector=detector))
    at = st.integers(0, n_steps - 1).map(lambda k: k * defaults.CONTROL_PERIOD)
    events = draw(st.lists(st.builds(m.Event, at, st.sampled_from(("controller_off",
                                                                   "controller_on")),
                                     st.integers(0, len(grids) - 1)), max_size=2))
    tie = cs.default_tie() if len(grids) == 2 and draw(st.booleans()) else None
    if tie is not None and draw(st.booleans()):
        events.append(m.Event(draw(at), "tie_close"))
    attacks = ()
    kind = draw(st.sampled_from((None, "noise-injection", "replay")[:1 + 2 * (n_steps >= 4)]))
    if kind is not None:
        channels = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3, unique=True))
        attacks = (m.AttackSpec(kind=kind, channels=tuple(channels),
                                noise_std=draw(st.floats(0.0, 300.0)),
                                **_window(draw, n_steps, kind == "replay")),)
    return m.Scenario(grids=tuple(grids), horizon=horizon, tie=tie, events=tuple(events),
                      attacks=attacks)


def _assert_stepped_up_to_rounding(ts, stepped):
    """Every log column of ts is within 1e-11 of its peak of the fully stepped
    log's; a rad or rad/s column whose peak is round-off (a decentralized law
    cancels a load exactly) within 1e-12 absolute, and a detector statistic
    whose peak is round-off within 1e-11 of the received power's peak (xi1,
    in W) or its square (xi2). Labels, flags and watermarks are equal."""
    for name, col in stepped.columns.items():
        if col.dtype == object:
            assert list(ts.columns[name]) == list(col)
            continue
        kind = name.split("_")[1]
        if kind in ("flag", "wm"):
            assert np.array_equal(ts.columns[name], col), name
            continue
        floor = 1e-12 if kind in _RAD else 0.0
        if kind in _XI:  # statistics of received minus predicted power: at a round-off
            # peak (a run without load to mispredict), within the received power's rounding
            floor = (1e-11 * np.max(np.abs(stepped.grids[int(name[2]) - 1]["pg_rx"]))) ** _XI[kind]
        bound = max(1e-11 * np.max(np.abs(col), initial=0.0), floor)
        assert np.max(np.abs(ts.columns[name] - col), initial=0.0) <= bound, name


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_linear_run_is_the_stepped_run_up_to_rounding(trained_detector_quiet, data):
    """The recursion takes the run's tail after its last event and attack,
    and its log is the fully stepped run's up to rounding."""
    scenario = data.draw(_linear_scenarios(trained_detector_quiet))
    ts, stepped, linear = _runs(scenario)
    assert linear
    _assert_stepped_up_to_rounding(ts, stepped)


@pytest.mark.parametrize("law, name, variant", [
    ("optimal-z", "z_update", lambda f: lambda z, u, pg, dt, omega_c, m_p:
        f(z, u, pg, dt / 2, omega_c, m_p)),
    ("decentralized", "control_decentralized", lambda f: lambda m_p, pg: f(m_p / 2, pg)),
    ("pi", "measure_frequency_lagged", lambda f: lambda w, y, tau, h: f(w, y, tau / 10, h)),
], ids=["optimal-z", "decentralized", "pi"])
def test_the_recursion_runs_the_law_functions(monkeypatch, law, name, variant):
    """The recursion's map is built from the law and sensor functions the
    stepped loop calls: with one of them changed (still linear), a run whose
    grid goes off and on again, so that it has a head and a tail, is the
    fully stepped run up to rounding."""
    monkeypatch.setattr(simcore, name, variant(getattr(simcore, name)))
    sc = m.Scenario(grids=(cs.grid1_spec(controller=law, load_signals=[cs.pulse_load_signal()]),),
                    horizon=0.5, events=(m.Event(0.1, "controller_off"),
                                         m.Event(0.2, "controller_on")))
    ts, stepped, linear = _runs(sc)
    assert linear
    _assert_stepped_up_to_rounding(ts, stepped)


def test_a_switched_off_observer_grid_logs_its_held_z_hat():
    """An observer grid switched off at 0.2 s runs no law, so the recursion
    takes the rest of the run: it logs the z_hat the grid holds, bit for bit
    as the stepped loop logs it, and the rest up to rounding."""
    sc, _ = _observer_run()
    ts, stepped, linear = _runs(replace(sc, events=(m.Event(0.2, "controller_off"),)))
    assert linear
    zhat = ts.grids[0]["zhat"]
    assert np.all(zhat[40:] == zhat[39]) and np.all(zhat[39] != 0.0)
    assert zhat.tobytes() == stepped.grids[0]["zhat"].tobytes()
    _assert_stepped_up_to_rounding(ts, stepped)


def test_a_second_tie_close_is_ignored(caplog):
    """A tie_close on a tied world logs a warning and changes nothing: the
    study grids, grid 1 off at 0.5 s, closed at 0.7 s and again at 0.9 s, run
    as the single close does, up to rounding (the second close moves the
    handoff to the recursion from 0.7 s to 0.9 s)."""
    grids = (cs.grid1_spec(load_signals=[cs.pulse_load_signal()]), cs.grid2_spec())
    once, twice = (m.run_scenario(m.Scenario(
        grids=grids, horizon=1.0, tie=cs.default_tie(),
        events=(m.Event(0.5, "controller_off", 0),
                *(m.Event(t, "tie_close") for t in closes))))
        for closes in ((0.7,), (0.7, 0.9)))
    assert [r.getMessage() for r in caplog.records if "tie" in r.getMessage()] == [
        "tie already closed; ignoring tie_close at t=0.9000s"]
    _assert_stepped_up_to_rounding(twice, once)


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


def test_saturating_detector_run_is_the_stepped_run_bit_for_bit(trained_detector_quiet):
    """The same load step on a grid whose detector cannot act: the declined
    recursion leaves the watermark stream at its start, so the stepped log it
    returns, wm included, is the stepped run's, bit for bit."""
    sig = m.LoadSignalSpec(kind="step", amplitude=40000.0, load_index=0, step_time=0.1)
    g = cs.grid1_spec(load_signals=[sig], detector=trained_detector_quiet)
    ts, stepped, linear = _runs(m.Scenario(grids=(g,), horizon=1.0))
    assert not linear
    assert np.max(np.abs(ts.grids[0]["dws"])) == defaults.COMMAND_LIMIT
    assert np.abs(ts.grids[0]["wm"]).min() > 0.0
    for name, col in stepped.columns.items():
        assert (list(ts.columns[name]) == list(col) if col.dtype == object
                else ts.columns[name].tobytes() == col.tobytes()), name


def _tie_saturating_run(detector=None) -> m.Scenario:
    """The study grids with a tie: grid 1 (optimal-z, detector) goes off at
    0.2 s, the tie closes at 0.3 s, and a 40 kW load step on grid 1 at 0.5 s
    drives grid 2's commands to +-COMMAND_LIMIT."""
    sig = m.LoadSignalSpec(kind="step", amplitude=40000.0, load_index=0, step_time=0.5)
    return m.Scenario(grids=(cs.grid1_spec(load_signals=[sig], detector=detector),
                             cs.grid2_spec()), horizon=1.0, tie=cs.default_tie(),
                      events=(m.Event(0.2, "controller_off"), m.Event(0.3, "tie_close")))


def _event_saturating_run(detector) -> m.Scenario:
    """The study grids side by side: grid 2 goes off at 0.2 s, and a 40 kW load
    step at 0.5 s drives the commands of grid 1 (optimal-z, detector) to
    +-COMMAND_LIMIT, its detector and watermark live throughout."""
    sig = m.LoadSignalSpec(kind="step", amplitude=40000.0, load_index=0, step_time=0.5)
    return m.Scenario(grids=(cs.grid1_spec(load_signals=[sig], detector=detector),
                             cs.grid2_spec()), horizon=1.0,
                      events=(m.Event(0.2, "controller_off", 1),))


@pytest.mark.parametrize("make", [_tie_saturating_run, _event_saturating_run],
                         ids=["tie", "event"])
def test_declined_tail_steps_on_to_the_stepped_run_bit_for_bit(trained_detector_quiet, make):
    """A tail that would saturate is declined at its handoff step: stepping
    resumes there from the state the tail left untouched, so the log, wm and
    the detector columns included, is the fully stepped run's, bit for bit."""
    ts, stepped, linear = _runs(make(trained_detector_quiet))
    assert not linear
    assert np.abs(ts.columns["mg2_dws_1" if make is _tie_saturating_run else "mg1_dws_1"]
                  ).max() == defaults.COMMAND_LIMIT
    assert np.abs(ts.grids[0]["wm"][:40]).min() > 0.0
    for name, col in stepped.columns.items():
        assert (list(ts.columns[name]) == list(col) if col.dtype == object
                else ts.columns[name].tobytes() == col.tobytes()), name


@pytest.mark.parametrize("kind", ["linear", "slow-lqr", "detector", "event", "attack", "tie",
                                  "auto-response", "collaborative"])
def test_only_a_linear_run_skips_the_stepper(monkeypatch, trained_detector_quiet, kind):
    """ZohStepper.step runs once per control step before the handoff step K0,
    where the recursion takes the rest: K0 is the event's step, the attack
    window's end, 0 for a linear run (a detector that cannot act, or a tie
    that never closes, changes nothing), the step after the flag that closes
    the tie for a collaborative response, and never (n_steps) for a slow-lqr
    law or a detector whose flag engages the observer law."""
    g = cs.grid1_spec(controller="slow-lqr" if kind == "slow-lqr" else "optimal-z",
                      weights=m.CostWeights.uniform(3, q=10.0),
                      detector=(trained_detector_quiet if kind in ("detector", "auto-response",
                                                                   "collaborative")
                                else None),
                      load_signals=[cs.pulse_load_signal()])
    attacked = kind in ("attack", "collaborative")
    sc = m.Scenario(
        grids=(g, cs.grid2_spec()) if kind in ("tie", "collaborative") else (g,),
        horizon=0.5 if kind != "collaborative" else 1.0,
        tie=cs.default_tie() if kind in ("tie", "collaborative") else None,
        events=(m.Event(0.2, "controller_off"),) if kind == "event" else (),
        attacks=((m.AttackSpec(kind="noise-injection", channels=(0,), start=0.1, end=0.3,
                               noise_std=100.0 if kind == "attack" else 800.0),)
                 if attacked else ()),
        auto_response={"auto-response": "observer",
                       "collaborative": "collaborative"}.get(kind, "none"))
    k0 = {"linear": 0, "detector": 0, "tie": 0, "event": 40, "attack": 60,
          "slow-lqr": sc.n_steps, "auto-response": sc.n_steps}.get(kind)
    if kind == "collaborative":
        k0 = int(np.flatnonzero(m.run_scenario(sc).grids[0]["flag"])[0]) + 1
        assert k0 < sc.n_steps
    calls = []
    step = simcore.ZohStepper.step
    monkeypatch.setattr(simcore.ZohStepper, "step",
                        lambda *args: calls.append(1) or step(*args))
    m.run_scenario(sc)
    assert len(calls) == k0


def _csv_cells(ts, path, kind: str) -> np.ndarray:
    """The cells of ts's log columns of kind ("wm", "dws", ...) as its to_csv
    writes them, a (steps, columns) array of strings."""
    ts.to_csv(path)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    return np.array(rows)[:, [f"_{kind}_" in name for name in header]]


@pytest.mark.parametrize("stds", [(defaults.WATERMARK_STD,), (0.0,), (0.02, 0.005)],
                         ids=["std-0.012", "std-0", "two-grids"])
def test_a_grid_logs_its_watermark_draws(trained_detector_quiet, tmp_path, stds):
    """A grid's watermark rows are std * default_rng(seed).standard_normal((k, n)),
    row for row, over a stepped head (an attack window to 0.2 s) and the
    recursion's tail, bit for bit, each grid from its own generator; at std 0
    every written wm cell reads 0."""
    grids = (cs.grid1_spec(load_signals=[cs.pulse_load_signal()]), cs.grid2_spec())
    grids = [replace(g, detector=replace(trained_detector_quiet if gi == 0 else
                                         cli.open_detector(_ZERO_MODEL, None, 10),
                                         watermark=m.WatermarkConfig(std, seed=11 + gi)))
             for gi, (g, std) in enumerate(zip(grids, stds))]
    atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.05, end=0.2,
                       noise_std=50.0)
    sc = m.Scenario(grids=tuple(grids), horizon=0.5, attacks=(atk,))
    ts, _, linear = _runs(sc)
    assert linear
    for gi, (log, std) in enumerate(zip(ts.grids, stds)):
        expected = std * np.random.default_rng(11 + gi).standard_normal(log["wm"].shape)
        assert log["wm"].tobytes() == expected.tobytes()
    cells = set(_csv_cells(ts, tmp_path / "ts.csv", "wm").ravel())
    assert (cells == {"0"}) if stds == (0.0,) else ("0" not in cells and len(cells) > 100)


@pytest.mark.parametrize("attack_end", [None, 0.3], ids=["on-in-the-tail", "on-in-the-head"])
def test_a_grid_switched_back_on_applies_its_schedules_row(trained_detector_quiet, attack_end):
    """A watermarked grid's schedule, std * default_rng(seed).standard_normal((steps,
    n)), is drawn before the run: at every step the grid is on its wm row is the
    schedule's row of that step, switched off at 0.1 s and back on at 0.2 s
    too, and while it is off the row is 0. The same holds fully stepped and
    with the recursion's tail, which starts at the switch back on or, behind
    an attack window to 0.3 s, after it."""
    std = defaults.WATERMARK_STD
    g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                      load_signals=[cs.pulse_load_signal()],
                      detector=replace(trained_detector_quiet, watermark=m.WatermarkConfig(std, 5)))
    attacks = (() if attack_end is None else
               (m.AttackSpec(kind="noise-injection", channels=(1,), start=0.05, end=attack_end,
                             noise_std=50.0),))
    sc = m.Scenario(grids=(g,), horizon=0.5, attacks=attacks,
                    events=(m.Event(0.1, "controller_off"), m.Event(0.2, "controller_on")))
    ts, stepped, linear = _runs(sc)
    assert linear
    schedule = std * np.random.default_rng(5).standard_normal((sc.n_steps, 3))
    on = np.ones(sc.n_steps, dtype=bool)
    on[20:40] = False
    for log in (ts, stepped):
        wm = log.grids[0]["wm"]
        assert wm[on].tobytes() == schedule[on].tobytes()
        assert not np.any(wm[~on])


@pytest.mark.parametrize("end, seed", [(0.3, 13), (0.7, 14)], ids=["window", "cut-at-horizon"])
def test_a_noise_attack_adds_its_pre_drawn_rows(end, seed):
    """Noise attack j's received powers are the true ones plus row k - start of
    default_rng([seed, 101, j]).normal(0, noise_std, (rows, channels)) on its
    channels, column i on channels[i], at every step k of its window, cut at
    the horizon (rows); every other received power is the true one."""
    grids = (cs.grid1_spec(load_signals=[cs.pulse_load_signal()]), cs.grid2_spec())
    attacks = (m.AttackSpec(kind="noise-injection", channels=(2, 0), start=0.1, end=end,
                            noise_std=80.0),
               m.AttackSpec(kind="noise-injection", channels=(1,), start=0.25, end=end,
                            noise_std=30.0, grid=1))
    sc = m.Scenario(grids=grids, horizon=0.5, attacks=attacks, seed=seed)
    ts, stepped, _ = _runs(sc)
    for j, atk in enumerate(attacks):
        start = round(atk.start / sc.control_period)
        stop = min(round(end / sc.control_period), sc.n_steps)  # the window, cut at the horizon
        block = np.random.default_rng([seed, 101, j]).normal(0.0, atk.noise_std,
                                                             (stop - start, len(atk.channels)))
        for log in (ts.grids[atk.grid], stepped.grids[atk.grid]):
            expected = log["pg"].copy()
            expected[start:stop, list(atk.channels)] += block
            assert log["pg_rx"].tobytes() == expected.tobytes()


def test_a_run_draws_only_before_its_loop():
    """A run draws its watermark schedules and attack noise at its set-up:
    simcore imports no copy, and neither engine nor apply_attack makes a
    generator, draws from one or copies one."""
    tree = ast.parse(Path(simcore.__file__).read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "copy" not in imported
    bodies = {node.name: node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    for name in ("_run_stepped", "_run_linear", "apply_attack"):
        called = {getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                  for node in ast.walk(bodies[name]) if isinstance(node, ast.Call)}
        assert not called & {"default_rng", "standard_normal", "normal", "deepcopy"}, name


@pytest.mark.parametrize("law", ["optimal-z", "pi"])
def test_the_recursion_writes_the_stepped_zero_commands(tmp_path, law):
    """optimal-z and pi command -(...), so a zero command is -0.0 in the
    stepped loop (row 1 of regulation_pulses.cfg's run), and the recursion's
    zero may be +0.0: both logs write every zero dws cell as 0."""
    sc = m.Scenario(grids=(cs.grid1_spec(controller=law, load_signals=[cs.pulse_load_signal()]),),
                    horizon=0.5)
    ts, stepped, linear = _runs(sc)
    assert linear
    zero = stepped.grids[0]["dws"] == 0.0
    assert zero.any() and np.array_equal(ts.grids[0]["dws"] == 0.0, zero)
    for i, log in enumerate((ts, stepped)):
        assert set(_csv_cells(log, tmp_path / f"{i}.csv", "dws")[zero]) == {"0"}


@pytest.mark.parametrize("kind", ["attacked", "tie-close", "live"])
def test_a_detector_that_cannot_act_advances_in_one_call(monkeypatch, trained_detector_quiet,
                                                         kind):
    """A detector that cannot act makes one dw_step call over every log row it
    sees: at the run's end, or at the tie close that retires it, whose rows
    from the close on stay zero. A detector that can act makes one call per
    stepped step."""
    g = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0), detector=trained_detector_quiet,
                      load_signals=[cs.pulse_load_signal()])
    atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.1, end=0.3,
                       noise_std=100.0)
    sc = m.Scenario(grids=(g,), horizon=1.0, seed=13, attacks=(atk,),
                    auto_response="observer" if kind == "live" else "none")
    if kind == "tie-close":
        sc = replace(sc, grids=(g, cs.grid2_spec()), tie=cs.default_tie(), attacks=(),
                     events=(m.Event(0.2, "controller_off"), m.Event(0.7, "tie_close")))
    calls = []
    dw_step = simcore.dw_step
    monkeypatch.setattr(simcore, "dw_step", lambda *args, **kw: calls.append(1)
                        or dw_step(*args, **kw))
    log = m.run_scenario(sc).grids[0]
    assert len(calls) == (sc.n_steps if kind == "live" else 1)
    seen = 140 if kind == "tie-close" else sc.n_steps  # rows up to the close
    assert seen > trained_detector_quiet.baseline.w
    assert np.all(log["xi2"][trained_detector_quiet.baseline.w - 1 : seen] > 0.0)
    assert not np.any(log["xi2"][seen:])


def test_a_detector_logs_the_same_rows_whether_it_can_act_or_not(trained_detector_quiet):
    """A slow-lqr grid is stepped throughout either way: with the detector's
    thresholds open no flag fires, so the run whose detector can act (one
    dw_step call per step) and the one whose detector cannot (one call at
    the end) log every column bit for bit alike."""
    det = replace(trained_detector_quiet, baseline=replace(
        trained_detector_quiet.baseline, eps1=math.inf, eps2=math.inf))
    g = cs.grid1_spec(controller="slow-lqr", weights=m.CostWeights.uniform(3, q=10.0),
                      detector=det, load_signals=[cs.pulse_load_signal()])
    atk = m.AttackSpec(kind="noise-injection", channels=(0,), start=0.5, end=0.8,
                       noise_std=800.0)
    none, live = (m.run_scenario(m.Scenario(grids=(g,), horizon=1.0, seed=13, attacks=(atk,),
                                            auto_response=response))
                  for response in ("none", "observer"))
    assert np.any(none.grids[0]["xi1"] > 0.0)
    for name, col in none.columns.items():
        assert (list(live.columns[name]) == list(col) if col.dtype == object
                else live.columns[name].tobytes() == col.tobytes()), name


def test_an_observer_on_after_the_tie_close_starts_from_a_zero_prediction(
        trained_detector_quiet):
    """A tie close retires grid 1's detector and watermark; an observer_on
    scheduled after it starts the observer law from z of the step before and
    a zero prediction state, whose predicted power is zero."""
    g1 = cs.grid1_spec(weights=m.CostWeights.uniform(3, q=10.0),
                       detector=trained_detector_quiet, load_signals=[cs.pulse_load_signal()])
    sc = m.Scenario(grids=(g1, cs.grid2_spec()), horizon=0.5, tie=cs.default_tie(),
                    events=(m.Event(0.2, "tie_close"), m.Event(0.3, "observer_on")))
    log = m.run_scenario(sc).grids[0]
    assert set(log["ctrl"][60:]) == {"observer"} and not np.any(log["wm"][40:])
    omega_c = np.array([p.omega_c for p in g1.ibrs])
    m_p = np.array([p.m_p for p in g1.ibrs])
    assert np.array_equal(log["zhat"][60], m.z_update(log["z"][59], log["dws"][59], np.zeros(3),
                                                      sc.control_period, omega_c, m_p))
