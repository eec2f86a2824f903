"""z-coordinate transform tests: null-vector property, integral consistency
with the state-space definition, and the frequency-decay observation."""

import numpy as np
import pytest

import microagc as m
from microagc import casestudy as cs
from microagc.simcore import ZohStepper, measure_power


def ibrs(*omega_c, m_p=1e-3):
    return tuple(m.IbrParams(omega_c=w, m_p=m_p) for w in omega_c)


class TestMakeTransform:
    def test_row_values(self):
        tr = m.make_transform(ibrs(31.4))
        np.testing.assert_allclose(tr.t_blocks[0], [31.4, 1.0])

    def test_left_null_of_ibr_block(self):
        for wc in (10.0, 31.41, 77.7):
            tr = m.make_transform(ibrs(wc))
            a_i = np.array([[0.0, 1.0], [0.0, -wc]])
            np.testing.assert_array_equal(tr.t_blocks[0] @ a_i, [0.0, 0.0])

    def test_block_diagonal_assembly(self):
        tr = m.make_transform(ibrs(10.0, 20.0))
        assert tr.t.shape == (2, 4)
        np.testing.assert_allclose(tr.t[0], [10.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(tr.t[1], [0.0, 0.0, 20.0, 1.0])


class TestZFromState:
    def test_zero_state(self):
        tr = m.make_transform(ibrs(31.4))
        np.testing.assert_array_equal(m.z_from_state(tr, np.zeros(2)), [0.0])

    def test_inner_product_value(self):
        tr = m.make_transform(ibrs(31.4))
        z = m.z_from_state(tr, np.array([0.01, 0.5]))
        assert z[0] == pytest.approx(0.814, rel=1e-12)

    def test_dimension_check(self):
        tr = m.make_transform(ibrs(31.4))
        with pytest.raises(ValueError):
            m.z_from_state(tr, np.zeros(3))


class TestZUpdate:
    def test_decentralized_law_freezes_z(self):
        prms = ibrs(10.0, 25.0)
        acc = m.ZAccumulator.zeros(2)
        d_p_g = np.array([120.0, -40.0])
        d_w_s = np.array([p.m_p for p in prms]) * d_p_g
        out = m.z_update(acc, d_w_s, d_p_g, 0.005, prms)
        np.testing.assert_array_equal(out.z, [0.0, 0.0])

    def test_single_euler_step(self):
        prms = ibrs(10.0)
        acc = m.ZAccumulator.zeros(1)
        out = m.z_update(acc, np.array([0.0]), np.array([100.0]), 0.005, prms)
        assert out.z[0] == pytest.approx(-0.005, rel=1e-12)

    def test_two_half_steps_equal_one_for_constant_inputs(self):
        prms = ibrs(31.41)
        u = np.array([0.02])
        y = np.array([55.0])
        one = m.z_update(m.ZAccumulator.zeros(1), u, y, 0.01, prms)
        half = m.z_update(m.ZAccumulator.zeros(1), u, y, 0.005, prms)
        two = m.z_update(half, u, y, 0.005, prms)
        assert two.z[0] == pytest.approx(one.z[0], rel=1e-12)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            m.z_update(m.ZAccumulator.zeros(1), np.zeros(1), np.zeros(1), 0.0,
                       ibrs(10.0))


class TestIntegralTracksState:
    def test_accumulator_matches_state_transform_along_trajectory(self):
        """Euler z accumulation vs z = T x along a driven closed-loop run."""
        grid = cs.grid1_spec()
        plant = cs.build_plant(grid)
        tr = m.make_transform(grid.ibrs)
        gain = m.lqr_gain(plant, m.CostWeights.uniform(3, q=10.0), tr)
        dt = 0.5e-3
        stepper = ZohStepper(plant, dt)
        x = np.zeros(plant.n_states)
        acc = m.ZAccumulator.zeros(3)
        pl = np.array([900.0, 0.0])
        z_scale = 0.0
        for k in range(2000):  # 1 s at 0.5 ms
            z_true = m.z_from_state(tr, x)
            z_scale = max(z_scale, np.max(np.abs(z_true)))
            u = -gain.k @ acc.z
            y = measure_power(plant, x, pl)
            x = stepper.step(x, u, pl)
            acc = m.z_update(acc, u, y, dt, grid.ibrs)
        err = np.max(np.abs(acc.z - m.z_from_state(tr, x)))
        assert err <= 1e-3 * max(z_scale, 1e-9)


class TestFrequencyDecayObservation:
    def test_exponential_decay_under_coupled_local_law(self):
        """Two IBRs coupled through the network under the local law: each
        domega_i follows domega_i(0) exp(-omega_c t) to 5 %, both ways.

        The coupling makes the measured power, and so the law, nonzero; with
        u = 0 the same run leaves the envelope by a factor of ten."""
        wc, mp, k = 31.41, 1e-3, 500.0
        prms = ibrs(wc, wc, m_p=mp)
        hm = m.AngleSensitivity(h=np.array([[-k, k], [k, -k]]), n_ibr=2, n_load=0)
        plant = m.assemble_plant(prms, hm)
        dt = 0.5e-3
        stepper = ZohStepper(plant, dt)
        x = np.array([0.0, 0.3, 0.0, -0.1])
        w0 = x[1::2].copy()
        peak_power = 0.0
        for j in range(1, int(round(5.0 / wc / dt)) + 1):
            y = measure_power(plant, x, np.zeros(0))
            peak_power = max(peak_power, np.max(np.abs(y)))
            u = m.control_decentralized(prms, y)
            x = stepper.step(x, u, np.zeros(0))
            ratio = x[1::2] / (w0 * np.exp(-wc * j * dt))
            assert np.max(np.abs(ratio - 1.0)) <= 0.05
        assert peak_power > 1.0
