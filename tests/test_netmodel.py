"""Physical model tests: injection law, linearization, Kron reduction,
plant assembly. Oracles: hand-worked small networks, central finite
differences, and full-system linear solves."""

import numpy as np
import pytest

import microagc as m
from microagc import casestudy as cs


def two_node_net(theta=np.pi / 2):
    return m.NetworkSpec.from_branches(
        n_ibr=1, n_load=1, branches=[(0, 1, 1.0, theta)], v_star=1.0
    )


def random_net(n_ibr, n_load, rng, v=230.0, y=3.0):
    """Connected random network: a spanning chain plus random extra branches."""
    n = n_ibr + n_load
    branches = [(i, i + 1, y * (0.5 + rng.random())) for i in range(n - 1)]
    for _ in range(n):
        i, k = rng.integers(0, n, size=2)
        if i != k:
            branches.append((int(i), int(k), y * (0.5 + rng.random())))
    return m.NetworkSpec.from_branches(n_ibr, n_load, branches, v_star=v)


class TestNonlinearInjection:
    def test_quadrature_branch_carries_nothing_at_zero_angles(self):
        net = two_node_net()
        p = m.nonlinear_injection(net, np.zeros(2))
        assert np.allclose(p, 0.0, atol=1e-12)

    def test_small_angle_power_transfer(self):
        net = two_node_net()
        p = m.nonlinear_injection(net, np.array([0.1, 0.0]))
        expected = np.cos(0.1 - np.pi / 2)
        assert p[0] == pytest.approx(expected, rel=1e-12)
        assert p[1] == pytest.approx(-expected, rel=1e-12)
        assert expected == pytest.approx(0.09983342, rel=1e-6)

    def test_invariant_under_uniform_angle_shift(self):
        rng = np.random.default_rng(4)
        net = random_net(2, 3, rng)
        delta = rng.normal(0.0, 0.05, size=5)
        p0 = m.nonlinear_injection(net, delta)
        p1 = m.nonlinear_injection(net, delta + 0.7)
        np.testing.assert_allclose(p1, p0, rtol=0, atol=1e-9)

    def test_dimension_mismatch(self):
        net = two_node_net()
        with pytest.raises(m.ModelError):
            m.nonlinear_injection(net, np.zeros(3))


class TestSensitivity:
    def test_two_node_hand_value(self):
        net = two_node_net()
        op = m.OperatingPoint(delta_star=np.zeros(2), p_star=np.zeros(2))
        hm = m.build_sensitivity(net, op)
        np.testing.assert_allclose(hm.h, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)

    def test_row_sums_zero_to_machine_precision(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            net = random_net(3, 2, rng)
            op = m.solve_operating_point(net, _balanced_injections(net, rng))
            hm = m.build_sensitivity(net, op)
            scale = net.n_nodes * np.max(np.abs(hm.h))
            assert np.max(np.abs(hm.h.sum(axis=1))) <= 1e-15 * scale

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(7)
        net = random_net(3, 2, rng)
        op = m.solve_operating_point(net, _balanced_injections(net, rng))
        hm = m.build_sensitivity(net, op)
        step = 1e-6
        n = net.n_nodes
        fd = np.zeros((n, n))
        for k in range(n):
            dplus = op.delta_star.copy()
            dminus = op.delta_star.copy()
            dplus[k] += step
            dminus[k] -= step
            fd[:, k] = (
                m.nonlinear_injection(net, dplus) - m.nonlinear_injection(net, dminus)
            ) / (2 * step)
        scale = np.max(np.abs(hm.h))
        np.testing.assert_allclose(fd, hm.h, atol=1e-4 * scale)

    def test_linearization_error_bound_for_small_deviations(self):
        rng = np.random.default_rng(21)
        net = random_net(3, 2, rng)
        op = m.solve_operating_point(net, _balanced_injections(net, rng))
        hm = m.build_sensitivity(net, op)
        p_star = m.nonlinear_injection(net, op.delta_star)
        bound = 1e-3 * np.max(np.abs(hm.h)) * 0.01
        for _ in range(10):
            dd = rng.uniform(-0.01, 0.01, net.n_nodes)
            p = m.nonlinear_injection(net, op.delta_star + dd)
            err = np.max(np.abs(p - p_star - hm.h @ dd))
            assert err <= bound


def _balanced_injections(net, rng):
    """Injections solvable at small angles: loads drawn, IBRs sharing evenly."""
    loads = rng.uniform(500.0, 3000.0, net.n_load)
    share = loads.sum() / net.n_ibr
    return np.concatenate([np.full(net.n_ibr, share), -loads])


class TestKronReduce:
    def test_single_load_hand_elimination(self):
        hm = m.AngleSensitivity(h=np.array([[2.0, -2.0], [-2.0, 2.0]]), n_ibr=1,
                                n_load=1)
        h_red, f_map = m.kron_reduce(hm)
        assert h_red[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert f_map[0, 0] == pytest.approx(-1.0, rel=1e-15)

    def test_decoupled_blocks_pass_through(self):
        h = np.diag([1.0, 2.0, 3.0, 4.0])
        hm = m.AngleSensitivity(h=h, n_ibr=2, n_load=2)
        h_red, f_map = m.kron_reduce(hm)
        np.testing.assert_allclose(h_red, h[:2, :2])
        np.testing.assert_allclose(f_map, 0.0)

    def test_matches_full_linear_solve(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            net = random_net(2, 3, rng)
            op = m.solve_operating_point(net, _balanced_injections(net, rng))
            hm = m.build_sensitivity(net, op)
            h_red, f_map = m.kron_reduce(hm)
            # oracle: pick generator angles and load injections, solve the full
            # system for the load angles, read off the generator powers
            ddelta_g = rng.normal(0.0, 0.01, 2)
            dp_l = rng.normal(0.0, 200.0, 3)
            ddelta_l = np.linalg.solve(hm.ll, dp_l - hm.lg @ ddelta_g)
            dp_g_full = hm.gg @ ddelta_g + hm.gl @ ddelta_l
            dp_g_red = h_red @ ddelta_g + f_map @ dp_l
            scale = max(1.0, np.max(np.abs(dp_g_full)))
            np.testing.assert_allclose(dp_g_red, dp_g_full, atol=1e-10 * scale)

    def test_singular_load_block_reports_smallest_singular_value(self):
        h = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        hm = m.AngleSensitivity(h=h, n_ibr=1, n_load=2)
        with pytest.raises(m.ReductionError, match="singular value"):
            m.kron_reduce(hm)


class TestAssemblePlant:
    def test_isolated_ibr_block(self):
        ibr = m.IbrParams(omega_c=10.0, m_p=1e-3)
        hm = m.AngleSensitivity(h=np.zeros((1, 1)), n_ibr=1, n_load=0)
        plant = m.assemble_plant([ibr], hm)
        np.testing.assert_allclose(plant.a, [[0.0, 1.0], [0.0, -10.0]])
        np.testing.assert_allclose(plant.b1, [[0.0], [10.0]])
        # the network enters through b2 = [0, -m_p omega_c]': a gains b2 h_red e
        coupled = m.assemble_plant([ibr], m.AngleSensitivity(h=np.array([[2.0]]), n_ibr=1,
                                                             n_load=0))
        np.testing.assert_allclose(coupled.a - plant.a, [[0.0, 0.0], [-2e-2, 0.0]])

    def test_block_eigenvalues_and_rank_deficiency(self):
        for wc in (10.0, 31.41, 80.0):
            a_i = np.array([[0.0, 1.0], [0.0, -wc]])
            eigs = np.sort(np.linalg.eigvals(a_i).real)
            np.testing.assert_allclose(eigs, [-wc, 0.0], atol=1e-12)
            sv = np.linalg.svd(a_i, compute_uv=False)
            assert sv[-1] <= 1e-12 * sv[0]

    def test_network_coupling_consistency_along_trajectory(self):
        grid = cs.grid1_spec()
        plant = m.grid_plant(grid)[1]
        b2 = np.zeros((6, 3))  # the power input's matrix, [0, -m_p omega_c]' per IBR
        for i, p in enumerate(grid.ibrs):
            b2[2 * i + 1, i] = -p.m_p * p.omega_c
        rng = np.random.default_rng(2)
        for _ in range(10):
            x = rng.normal(0.0, 0.1, plant.n_states)
            u = rng.normal(0.0, 0.05, 3)
            pl = rng.normal(0.0, 300.0, 2)
            dp_g = m.measure_power(plant, x, pl)
            lhs = plant.a @ x + plant.b1 @ u + plant.f @ pl
            a_g = plant.a - b2 @ plant.h_red @ plant.e
            rhs = a_g @ x + plant.b1 @ u + b2 @ dp_g
            scale = max(1.0, np.max(np.abs(lhs)))
            np.testing.assert_allclose(lhs, rhs, atol=1e-10 * scale)

    def test_dimension_mismatch(self):
        ibr = m.IbrParams(omega_c=10.0, m_p=1e-3)
        hm = m.AngleSensitivity(h=np.zeros((2, 2)), n_ibr=2, n_load=0)
        with pytest.raises(m.ModelError):
            m.assemble_plant([ibr], hm)


class TestOperatingPoint:
    def test_residual_within_tolerance(self):
        grid = cs.grid1_spec()
        op = m.solve_operating_point(grid.network, grid.p_injections)
        p = m.nonlinear_injection(grid.network, op.delta_star)
        scale = np.max(np.abs(grid.p_injections))
        # all non-slack nodes meet the spec; slack absorbs the mismatch
        assert np.max(np.abs(p[1:] - grid.p_injections[1:])) <= 1e-9 * scale

    def test_infeasible_injections_raise(self):
        net = two_node_net()
        # a 1 S, 1 V branch cannot carry 100 W
        with pytest.raises(m.ModelError):
            m.solve_operating_point(net, np.array([0.0, 100.0]))


class TestIbrParams:
    def test_positivity(self):
        with pytest.raises(m.ModelError):
            m.IbrParams(omega_c=-1.0, m_p=1e-4)
        with pytest.raises(m.ModelError):
            m.IbrParams(omega_c=1.0, m_p=0.0)
