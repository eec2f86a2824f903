"""z-coordinate transform tests: null-vector property, integral consistency
with the state-space definition, and the frequency-decay observation."""

import numpy as np
import pytest

import microagc as m
from microagc import casestudy as cs
from microagc.simcore import ZohStepper, measure_power


def ibrs(*omega_c, m_p=1e-3):
    return tuple(m.IbrParams(omega_c=w, m_p=m_p) for w in omega_c)


def z_from_state(t, dx):
    """z = T dx, the transformed coordinates from the full deviation state: the
    reference the running z integral is checked against."""
    dx = np.asarray(dx, dtype=float)
    if dx.shape != (2 * t.shape[0],):
        raise ValueError(f"state must have {2 * t.shape[0]} entries, got {dx.shape}")
    return t @ dx


def rates(prms):
    """The per-IBR omega_c and m_p arrays z_update takes."""
    return np.array([p.omega_c for p in prms]), np.array([p.m_p for p in prms])


class TestMakeTransform:
    def test_row_values(self):
        tr = m.make_transform(ibrs(31.4))
        np.testing.assert_allclose(tr, [[31.4, 1.0]])

    def test_left_null_of_ibr_block(self):
        for wc in (10.0, 31.41, 77.7):
            tr = m.make_transform(ibrs(wc))
            a_i = np.array([[0.0, 1.0], [0.0, -wc]])
            np.testing.assert_array_equal(tr[0] @ a_i, [0.0, 0.0])  # T is t_1

    def test_block_diagonal_assembly(self):
        tr = m.make_transform(ibrs(10.0, 20.0))
        assert tr.shape == (2, 4) and not tr.flags.writeable
        np.testing.assert_allclose(tr[0], [10.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(tr[1], [0.0, 0.0, 20.0, 1.0])


class TestZFromState:
    def test_zero_state(self):
        tr = m.make_transform(ibrs(31.4))
        np.testing.assert_array_equal(z_from_state(tr, np.zeros(2)), [0.0])

    def test_inner_product_value(self):
        tr = m.make_transform(ibrs(31.4))
        z = z_from_state(tr, np.array([0.01, 0.5]))
        assert z[0] == pytest.approx(0.814, rel=1e-12)

    def test_dimension_check(self):
        tr = m.make_transform(ibrs(31.4))
        with pytest.raises(ValueError):
            z_from_state(tr, np.zeros(3))


class TestZUpdate:
    def test_decentralized_law_freezes_z(self):
        omega_c, m_p = rates(ibrs(10.0, 25.0))
        d_p_g = np.array([120.0, -40.0])
        out = m.z_update(np.zeros(2), m_p * d_p_g, d_p_g, 0.005, omega_c, m_p)
        np.testing.assert_array_equal(out, [0.0, 0.0])

    def test_single_euler_step(self):
        out = m.z_update(np.zeros(1), np.array([0.0]), np.array([100.0]), 0.005,
                         *rates(ibrs(10.0)))
        assert out[0] == pytest.approx(-0.005, rel=1e-12)

    def test_two_half_steps_equal_one_for_constant_inputs(self):
        wc_mp = rates(ibrs(31.41))
        u = np.array([0.02])
        y = np.array([55.0])
        one = m.z_update(np.zeros(1), u, y, 0.01, *wc_mp)
        half = m.z_update(np.zeros(1), u, y, 0.005, *wc_mp)
        two = m.z_update(half, u, y, 0.005, *wc_mp)
        assert two[0] == pytest.approx(one[0], rel=1e-12)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            m.z_update(np.zeros(1), np.zeros(1), np.zeros(1), 0.0, *rates(ibrs(10.0)))


class TestIntegralTracksState:
    def test_accumulator_matches_state_transform_along_trajectory(self):
        """Euler z accumulation vs z = T x along a driven closed-loop run."""
        grid = cs.grid1_spec()
        plant = m.grid_plant(grid)[1]
        tr = m.make_transform(grid.ibrs)
        gain = m.lqr_gain(plant, m.CostWeights.uniform(3, q=10.0), tr)
        dt = 0.5e-3
        stepper = ZohStepper(plant, dt)
        x = np.zeros(plant.n_states)
        z = np.zeros(3)
        pl = np.array([900.0, 0.0])
        z_scale = 0.0
        for k in range(2000):  # 1 s at 0.5 ms
            z_true = z_from_state(tr, x)
            z_scale = max(z_scale, np.max(np.abs(z_true)))
            u = -gain.k @ z
            y = measure_power(plant, x, pl)
            x = stepper.step(x, u, pl[None], [True])
            z = m.z_update(z, u, y, dt, *rates(grid.ibrs))
        err = np.max(np.abs(z - z_from_state(tr, x)))
        assert err <= 1e-3 * max(z_scale, 1e-9)


class TestFrequencyDecayObservation:
    def test_exponential_decay_under_coupled_local_law(self):
        """Two IBRs coupled through the network under the local law: each
        domega_i follows domega_i(0) exp(-omega_c t) to 5 %, both ways.

        The coupling makes the measured power, and so the law, nonzero; with
        u = 0 the same run leaves the envelope by a factor of ten."""
        wc, mp, k = 31.41, 1e-3, 500.0
        prms = ibrs(wc, wc, m_p=mp)
        m_p = np.full(2, mp)
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
            u = m.control_decentralized(m_p, y)
            x = stepper.step(x, u, np.zeros((1, 0)), [True])
            ratio = x[1::2] / (w0 * np.exp(-wc * j * dt))
            assert np.max(np.abs(ratio - 1.0)) <= 0.05
        assert peak_power > 1.0
