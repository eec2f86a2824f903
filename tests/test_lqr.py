"""Controller design tests: Riccati solver against hand solutions and residual
oracles, gain projection optimality, and the runtime law contracts."""

import logging

import numpy as np
import pytest
import scipy.linalg

import microagc as m
from microagc import casestudy as cs, defaults


def default_design(q=1.0):
    grid = cs.grid1_spec()
    plant = m.grid_plant(grid)[1]
    tr = m.make_transform(grid.ibrs)
    gain = m.lqr_gain(plant, m.CostWeights.uniform(3, q=q), tr)
    return grid, plant, tr, gain


class TestSolveCare:
    def test_stable_plant_zero_cost(self):
        p = m.solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                         np.array([[0.0]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_scalar_integrator(self):
        # -p^2 + 1 = 0, PSD branch: p = 1
        p = m.solve_care(np.array([[0.0]]), np.array([[1.0]]),
                         np.array([[1.0]]), np.array([[1.0]]))
        assert p[0, 0] == pytest.approx(1.0, rel=1e-10)

    def test_random_system_residual_and_stability(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            a = rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 2))
            q_half = rng.normal(size=(4, 4))
            q = q_half.T @ q_half
            r = np.eye(2)
            p = m.solve_care(a, b, q, r)
            resid = a.T @ p + p @ a - p @ b @ np.linalg.solve(r, b.T) @ p + q
            assert np.linalg.norm(resid, "fro") <= 1e-8 * np.linalg.norm(p, "fro")
            k = np.linalg.solve(r, b.T @ p)
            assert np.max(np.linalg.eigvals(a - b @ k).real) < 0.0
            assert np.min(np.linalg.eigvalsh(p)) >= -1e-10 * np.linalg.norm(p)

    def test_unstabilizable_pair_raises(self):
        # unstable mode decoupled from the input
        a = np.array([[1.0, 0.0], [0.0, -1.0]])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(m.ControlDesignError):
            m.solve_care(a, b, np.eye(2), np.eye(1))


    @pytest.mark.parametrize("unstable, message", [
        (1.0, "stable subspace is degenerate: Singular matrix (mode 1 uncontrollable"),
        (2.0, "stable subspace is degenerate: Singular matrix (mode 2 uncontrollable"),
        (0.0, "Hamiltonian has 1 stable eigenvalues, expected 2; the pair (A, B) is not "
              "stabilizable or (Q, A) not detectable (mode 0 uncontrollable"),
    ], ids=["degenerate-1", "degenerate-2", "imaginary-axis-0"])
    def test_unstabilizable_pair_names_the_mode(self, unstable, message):
        """The uncontrollable unstable mode is named whether the Hamiltonian's
        stable subspace comes out degenerate or short of n eigenvalues."""
        a = np.diag([unstable, -1.0])
        b = np.array([[0.0], [1.0]])
        with pytest.raises(m.ControlDesignError) as err:
            m.solve_care(a, b, np.eye(2), np.eye(1))
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("rtol, solves", [(1e-8, 0), (1e-12, 1), (1e-14, 20)])
    def test_newton_kleinman_refinement(self, monkeypatch, rtol, solves):
        """On the study grid at q = 10 the Schur solution's residual (2.3e-9)
        meets the default tolerance; at 1e-12 (about 1.5e-10 absolute) one
        Lyapunov solve refines it to 7.9e-11; at 1e-14 the residual stays
        near 7.7e-11 through 20 solves and the refinement stalls."""
        monkeypatch.setattr(defaults, "CARE_RTOL", rtol)
        calls = []
        lyap = scipy.linalg.solve_continuous_lyapunov
        monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov",
                            lambda *a: calls.append(1) or lyap(*a))
        if solves == 20:
            with pytest.raises(m.ControlDesignError, match="Riccati refinement stalled"):
                default_design(q=10.0)
        else:
            gain = default_design(q=10.0)[3]
            assert gain.care_residual <= rtol * np.linalg.norm(gain.care_solution, "fro")
        assert len(calls) == solves


class TestLqrGain:
    def test_zero_state_cost_gives_zero_gains_on_stable_plant(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(4, 4))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.5) * np.eye(4)
        b = rng.normal(size=(4, 2))
        p = m.solve_care(a, b, np.zeros((4, 4)), np.eye(2))
        k_prime = b.T @ p
        np.testing.assert_allclose(k_prime, 0.0, atol=1e-9)

    def test_projection_satisfies_normal_equations(self):
        _, _, tr, gain = default_design()
        resid = (gain.k_prime - gain.k @ tr) @ tr.T
        assert np.max(np.abs(resid)) <= 1e-10 * max(1.0, np.max(np.abs(gain.k_prime)))

    def test_closed_loop_spectra_negative(self):
        _, plant, tr, gain = default_design()
        assert gain.closed_loop_abscissa < 0.0
        assert gain.projected_abscissa < 0.0
        direct = np.max(np.linalg.eigvals(plant.a - plant.b1 @ gain.k @ tr).real)
        assert direct == pytest.approx(gain.projected_abscissa, abs=1e-9)

    def test_weight_scaling_homogeneity(self):
        _, plant, tr, g1 = default_design(q=2.5)
        w_scaled = m.CostWeights(q=np.full(3, 2.5 * 7.0), r=np.full(3, 7.0))
        g2 = m.lqr_gain(plant, w_scaled, tr)
        np.testing.assert_allclose(g2.k_prime, g1.k_prime,
                                   atol=1e-10 * np.max(np.abs(g1.k_prime)))
        np.testing.assert_allclose(g2.k, g1.k, atol=1e-10 * np.max(np.abs(g1.k)))

    def test_riccati_residual_relative_bound(self):
        _, _, _, gain = default_design()
        p_norm = np.linalg.norm(gain.care_solution, "fro")
        assert gain.care_residual <= 1e-8 * p_norm


    def test_unstable_projection_warns_with_its_spectrum(self, caplog):
        """A two-IBR grid (omega_c 10 and 3.141 rad/s, m_p 9.4e-5 and 9.4e-4,
        10 S branches to one 5 kW load, q = 10) whose full-state loop is
        stable but whose projected z-space loop is not: the gain is returned
        and a warning gives the projected spectrum."""
        net = m.NetworkSpec.from_branches(n_ibr=2, n_load=1,
                                          branches=[(0, 2, 10.0), (1, 2, 10.0)])
        ibrs = (m.IbrParams(omega_c=10.0, m_p=9.4e-5), m.IbrParams(omega_c=3.141, m_p=9.4e-4))
        plant = m.grid_plant(m.GridSpec(network=net, ibrs=ibrs, loads=[5000.0]))[1]
        with caplog.at_level(logging.WARNING, logger="microagc.lqr"):
            gain = m.lqr_gain(plant, m.CostWeights.uniform(2, q=10.0), m.make_transform(ibrs))
        assert gain.projected_abscissa == pytest.approx(5.5939, abs=1e-4)
        assert gain.closed_loop_abscissa == pytest.approx(-7.5589, abs=1e-4)
        assert [r.getMessage() for r in caplog.records] == [
            "projected closed loop A - B1 K T is not stable; spectrum: "
            "[-45.7208-30.6283j -45.7208+30.6283j   5.5939 -8.0232j   5.5939 +8.0232j]"]


class TestCostWeights:
    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            m.CostWeights(q=np.array([1.0, 0.0]), r=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            m.CostWeights(q=np.array([1.0, 1.0]), r=np.array([1.0, -2.0]))


class TestControlLaws:
    def test_optimal_law_values(self):
        _, _, _, gain = default_design()
        np.testing.assert_array_equal(m.control_optimal(gain, np.zeros(3)), 0.0)
        e1 = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(m.control_optimal(gain, e1), -gain.k[:, 0])

    def test_decentralized_elementwise(self):
        m_p = np.array([1e-3, 2e-3])
        out = m.control_decentralized(m_p, np.array([100.0, -50.0]))
        np.testing.assert_allclose(out, [0.1, -0.1])
        np.testing.assert_array_equal(m.control_decentralized(m_p, np.zeros(2)), 0.0)

    def test_pi_zero_input(self):
        u, integ = m.control_pi_baseline(0.6, 6.0, np.zeros(3), 0.005, np.zeros(3))
        np.testing.assert_array_equal(u, 0.0)
        np.testing.assert_array_equal(integ, 0.0)

    def test_pi_constant_error_closed_form(self):
        kp, ki, dt = 0.6, 6.0, 0.005
        err = np.array([0.02])
        integ = np.zeros(1)
        for k in range(1, 11):
            u, integ = m.control_pi_baseline(kp, ki, err, dt, integ)
            assert u[0] == pytest.approx(-(kp * err[0] + ki * err[0] * k * dt))

    def test_pi_regulates_slow_disturbance_with_clean_sensor(self, monkeypatch):
        """Lag-free sensor and slow load steps: PI restores frequency."""
        monkeypatch.setattr(defaults, "SENSOR_LAG_TAU", 1e-4)
        sig = m.LoadSignalSpec(kind="step", amplitude=1500.0, load_index=0,
                               step_time=0.5)
        grid = cs.grid1_spec(controller="pi", load_signals=[sig])
        sc = m.Scenario(grids=(grid,), horizon=4.0, seed=0)
        ts = m.run_scenario(sc)
        domega = ts.grids[0]["domega"]
        peak = max(abs(domega[:, i]).max() for i in range(3))
        tail = max(abs(domega[ts.time >= 3.5, i]).max() for i in range(3))
        assert tail <= 0.05 * peak
