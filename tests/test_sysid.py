"""Identification tests. Correctness is asserted only through
similarity-invariant quantities: Markov parameters and prediction error."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import microagc as m
from microagc import sysid
from microagc import casestudy as cs


def random_discrete_system(n, m_in, l_out, rng, radius=0.9):
    a = rng.normal(size=(n, n))
    a *= radius / max(np.abs(np.linalg.eigvals(a)))
    b = rng.normal(size=(n, m_in))
    c = rng.normal(size=(l_out, n))
    return a, b, c


def prediction_error(model, x0, u, y):
    """Mean per-sample 2-norm error of the model's replay from x0 over the
    record (W/sample): the reference select_order's fit-based score is
    checked against."""
    y_hat = m.predict(model, x0, u)
    return float(np.mean(np.linalg.norm(y_hat - np.reshape(y, y_hat.shape), axis=1)))


def simulate(a, b, c, u, x0=None):
    x = np.zeros(a.shape[0]) if x0 is None else np.array(x0, dtype=float)
    y = np.empty((u.shape[0], c.shape[0]))
    y[0] = c @ x
    for k in range(1, u.shape[0]):
        x = a @ x + b @ u[k - 1]
        y[k] = c @ x
    return y


def markov_params(a, b, c, count):
    out = []
    ak = np.eye(a.shape[0])
    for _ in range(count):
        out.append(c @ ak @ b)
        ak = a @ ak
    return np.array(out)


class TestGenerateExcitation:
    def test_zero_amplitude(self):
        spec = m.ExcitationSpec(dt=0.005, dt_prime=0.05, beta=0.0, k0=100, seed=1)
        u = m.generate_excitation(spec, 3)
        assert u.shape == (101, 3)
        np.testing.assert_array_equal(u, 0.0)

    def test_pulse_width_in_samples(self):
        spec = m.ExcitationSpec(dt=0.005, dt_prime=0.05, beta=0.1, k0=99, seed=2)
        u = m.generate_excitation(spec, 1)
        for p in range(10):
            block = u[p * 10 : (p + 1) * 10, 0]
            assert np.all(block == block[0])
        assert len(np.unique(u[:, 0])) == 10

    def test_levels_bounded_and_centered(self):
        spec = m.ExcitationSpec(dt=0.005, dt_prime=0.05, beta=0.1, k0=20000, seed=3)
        u = m.generate_excitation(spec, 2)
        assert np.max(np.abs(u)) <= 0.1
        assert abs(u.mean()) < 0.005

    def test_channels_independent(self):
        spec = m.ExcitationSpec(dt=0.005, dt_prime=0.05, beta=0.1, k0=500, seed=4)
        u = m.generate_excitation(spec, 2)
        assert not np.allclose(u[:, 0], u[:, 1])

    def test_invalid_pulse_width(self):
        with pytest.raises(ValueError):
            m.ExcitationSpec(dt=0.01, dt_prime=0.01)

    @pytest.mark.parametrize("setting", [
        {"beta": float("nan")}, {"beta": float("inf")}, {"beta": -0.1}, {"k0": -5},
        {"k0": 0},
    ])
    def test_invalid_amplitude_or_length(self, setting):
        with pytest.raises(ValueError):
            m.ExcitationSpec(dt=0.005, dt_prime=0.05, **setting)


class TestIdentify:
    def test_markov_parameters_recovered(self):
        rng = np.random.default_rng(8)
        a, b, c = random_discrete_system(3, 2, 2, rng)
        u = rng.uniform(-1.0, 1.0, size=(600, 2))
        y = simulate(a, b, c, u)
        model = m.identify(u, y, 3, dt=0.01)
        truth = markov_params(a, b, c, 21)
        fitted = markov_params(model.a_d, model.b_d, model.c_d, 21)
        scale = np.max(np.abs(truth))
        np.testing.assert_allclose(fitted, truth, atol=1e-6 * scale)
        assert model.dt == 0.01

    def test_zero_data_gives_zero_model(self):
        u = np.zeros((200, 1))
        y = np.zeros((200, 1))
        model = m.identify(u, y, 2)
        assert model.effective_order == 0
        err = prediction_error(model, np.zeros(2), u, y)
        assert err == 0.0

    def test_overspecified_order_does_not_worsen_fit(self):
        rng = np.random.default_rng(9)
        a, b, c = random_discrete_system(2, 1, 1, rng)
        u = rng.uniform(-1.0, 1.0, size=(400, 1))
        y = simulate(a, b, c, u)
        etas = []
        for d in (2, 3, 4):
            model = m.identify(u, y, d)
            x0 = sysid.estimate_initial_state(model, u, y, max(2 * d, 20))
            etas.append(prediction_error(model, x0, u, y))
        scale = float(np.mean(np.abs(y)))
        for earlier, later in zip(etas, etas[1:]):
            assert later <= earlier + 1e-9 * scale

    def test_insufficient_excitation_rejected(self):
        u = np.ones((300, 1))  # constant input: Hankel rank one
        rng = np.random.default_rng(10)
        y = rng.normal(size=(300, 1))
        with pytest.raises(m.InsufficientExcitationError):
            m.identify(u, y, 2)

    def test_order_past_the_data_is_zero_padded(self):
        rng = np.random.default_rng(11)
        a, b, c = random_discrete_system(2, 1, 1, rng)
        u = rng.uniform(-1.0, 1.0, size=(400, 1))
        y = simulate(a, b, c, u)
        model = m.identify(u, y, 6)
        assert (model.order, model.effective_order) == (6, 2)
        assert model.a_d.shape == (6, 6)
        assert not model.a_d[2:].any() and not model.a_d[:, 2:].any()
        assert not model.b_d[2:].any() and not model.c_d[:, 2:].any()
        assert model.a_d[:2, :2].any() and model.c_d[:, :2].any()

    def test_record_too_short(self):
        with pytest.raises(m.IdentificationError):
            m.identify(np.zeros((15, 1)), np.zeros((15, 1)), 2)

    def test_length_mismatch(self):
        with pytest.raises(m.IdentificationError):
            m.identify(np.zeros((30, 1)), np.zeros((31, 1)), 1)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), m_in=st.integers(1, 3), l_out=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_input_matrix_fit_reproduces_noise_free_output(n, m_in, l_out, seed):
    """With the true A and C, the fitted (B, x0) reproduce a noise-free
    record through the model recursion. A residual check: it holds whether or
    not (B, x0) is unique."""
    rng = np.random.default_rng(seed)
    a, b, c = random_discrete_system(n, m_in, l_out, rng)
    x0 = rng.uniform(0.5, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
    u = rng.uniform(-1.0, 1.0, size=(200, m_in))
    y = simulate(a, b, c, u, x0)
    b_hat, x0_hat, _ = sysid._fit_input_matrix(a, c, u, y)
    assert b_hat.shape == (n, m_in) and x0_hat.shape == (n,)
    y_hat = simulate(a, b_hat, c, u, x0_hat)
    assert np.max(np.abs(y_hat - y)) <= 1e-8 * np.max(np.abs(y))


def stepwise_regressor(a, c, u):
    """The B/x0 regressor by the sample-by-sample recursion R[k+1] = R[k] A + D[k]:
    rows [u[0..k-1] forced response per input | C A^k] of every output."""
    n, (n_out, _), (n_samples, m_in) = a.shape[0], c.shape, u.shape
    r = np.zeros((m_in + 1, n_out, n))
    r[m_in] = c
    reg = np.empty((n_samples, n_out, m_in + 1, n))
    for k in range(n_samples):
        reg[k] = r.transpose(1, 0, 2)
        r = r @ a
        r[:m_in] += u[k][:, None, None] * c
    return reg.reshape(n_samples * n_out, (m_in + 1) * n)


# squares, squares +- 1 (a padded last block) and primes, from identify's
# 10-sample minimum to the 4,001 samples of the shipped record
RECORD_LENGTHS = [10, 15, 16, 17, 63, 64, 65, 97, 99, 100, 101, 257, 4001]


@pytest.mark.parametrize("n_samples", RECORD_LENGTHS)
@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 6), m_in=st.integers(1, 3), l_out=st.integers(1, 3),
       radius=st.one_of(st.just(1.0), st.floats(0.05, 1.0)),
       seed=st.integers(0, 2**32 - 1))
@example(n=3, m_in=2, l_out=3, radius=1.0, seed=0)
def test_blocked_regressor_is_the_stepwise_recursion(n_samples, n, m_in, l_out, radius,
                                                     seed):
    """_fit_input_matrix's blocked recursion builds the regressor the
    sample-by-sample recursion builds, to 1e-12 of each column's peak."""
    rng = np.random.default_rng(seed)
    a, _, c = random_discrete_system(n, m_in, l_out, rng, radius=radius)
    u = rng.uniform(-1.0, 1.0, size=(n_samples, m_in))
    y = rng.normal(size=(n_samples, l_out))
    _, _, reg = sysid._fit_input_matrix(a, c, u, y)
    ref = stepwise_regressor(a, c, u)
    assert reg.shape == ref.shape
    assert np.all(np.abs(reg - ref) <= 1e-12 * np.max(np.abs(ref), axis=0))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(n=st.integers(1, 4), m_in=st.integers(1, 3), l_out=st.integers(1, 3),
       noise=st.sampled_from([0.0, 1e-3]), seed=st.integers(0, 2**32 - 1))
def test_fit_score_is_the_replayed_prediction_error(n, m_in, l_out, noise, seed):
    """Orders 1..n+2 (block-row counts 8, 8, ..., 12) fitted through one
    workspace give the models of lone identify calls bit for bit, and each
    fit-based score equals prediction_error's replay up to rounding; the
    scores are select_order's eta."""
    rng = np.random.default_rng(seed)
    a, b, c = random_discrete_system(n, m_in, l_out, rng)
    u = rng.uniform(-1.0, 1.0, size=(300, m_in))
    y = simulate(a, b, c, u, rng.normal(size=n)) + noise * rng.normal(size=(300, l_out))
    orders = range(1, n + 3)
    work = sysid.FitWorkspace()
    scores = {}
    for d in orders:
        shared = sysid.identify(u, y, d, workspace=work)
        lone = sysid.identify(u, y, d)
        for field in ("a_d", "b_d", "c_d"):
            assert np.array_equal(getattr(shared, field), getattr(lone, field))
        assert shared.effective_order == lone.effective_order
        x0 = sysid.estimate_initial_state(shared, u, y, max(2 * d, 20))
        scores[d] = work.score(shared, x0, y)
        assert work.regressor is None
        replayed = prediction_error(shared, x0, u, y)
        assert abs(scores[d] - replayed) <= 1e-12 * np.max(np.abs(y))
    report, _ = m.select_order(u, y, candidates=orders)
    assert report.eta == scores


def test_workspace_belongs_to_one_record_and_shares_its_failures():
    rng = np.random.default_rng(3)
    u = rng.uniform(-1.0, 1.0, size=(200, 1))
    work = sysid.FitWorkspace()
    sysid.identify(u, u.copy(), 1, workspace=work)
    with pytest.raises(ValueError, match="another record"):
        sysid.identify(u, u.copy(), 1, workspace=work)
    constant = np.ones((200, 1))
    work = sysid.FitWorkspace()
    for d in (1, 2):                       # one block-row count, i = 8
        with pytest.raises(m.InsufficientExcitationError):
            sysid.identify(constant, constant, d, workspace=work)


def _duplicated(u):
    return np.column_stack([u, u])


@pytest.mark.parametrize("n_samples, m_in, make, i", [
    (200, 2, None, 8),                    # exciting
    (200, 1, _duplicated, 8),             # two equal channels: rank 8 of 16 rows
    (20, 2, None, 8),                     # j = 13 columns < m i = 16 rows
    (20, 1, _duplicated, 8),              # short and duplicated
    (100, 1, np.ones_like, 8),            # constant: rank 1
    (100, 1, np.zeros_like, 8),           # zero input: no check
    (60, 3, lambda u: u.round(0), 10),    # three-level input
])
def test_excitation_check_matches_the_input_hankel_svd(n_samples, m_in, make, i):
    """The rank check on the LQ factor's L11 block takes the decision, and
    counts the rank, that the input Hankel's own SVD gives: full row rank or
    an InsufficientExcitationError, also when j < m i columns cannot reach it."""
    rng = np.random.default_rng(n_samples + m_in + i)
    u = rng.uniform(-1.0, 1.0, size=(n_samples, m_in))
    u = make(u) if make else u
    y = rng.normal(size=(n_samples, 2))
    u_h = sysid._hankel(u, i, n_samples - i + 1)
    sv = np.linalg.svd(u_h, compute_uv=False)
    rank = int(np.sum(sv > sysid.RANK_RTOL * sv[0]))
    if not np.any(u) or rank == u_h.shape[0]:
        sysid._projected_factors(u, y, i)
    else:
        with pytest.raises(m.InsufficientExcitationError,
                           match=f"input Hankel rank {rank} < {u_h.shape[0]} rows"):
            sysid._projected_factors(u, y, i)


class TestPredict:
    def test_zero_input_zero_state(self):
        model = m.DiscreteModel(a_d=np.eye(2) * 0.5, b_d=np.ones((2, 1)),
                                c_d=np.ones((1, 2)), dt=0.01, order=2)
        y = m.predict(model, np.zeros(2), np.zeros((10, 1)))
        np.testing.assert_array_equal(y, 0.0)

    def test_one_step_definition(self):
        rng = np.random.default_rng(13)
        a, b, c = random_discrete_system(3, 2, 2, rng)
        model = m.DiscreteModel(a_d=a, b_d=b, c_d=c, dt=0.01, order=3)
        x0 = rng.normal(size=3)
        u = rng.normal(size=(2, 2))
        y = m.predict(model, x0, u)
        np.testing.assert_allclose(y[1], c @ (a @ x0 + b @ u[0]), rtol=1e-12)

    def test_matrix_power_closed_form(self):
        rng = np.random.default_rng(14)
        a, b, c = random_discrete_system(3, 1, 1, rng)
        model = m.DiscreteModel(a_d=a, b_d=b, c_d=c, dt=0.01, order=3)
        x0 = rng.normal(size=3)
        u = rng.normal(size=(30, 1))
        y = m.predict(model, x0, u)
        for k in (0, 5, 17, 29):
            closed = float((c @ np.linalg.matrix_power(a, k) @ x0)[0])
            closed += sum(
                float((c @ np.linalg.matrix_power(a, k - 1 - t) @ b @ u[t])[0])
                for t in range(k)
            )
            assert y[k, 0] == pytest.approx(closed, abs=1e-12 * max(1.0, abs(closed)))

    def test_dimension_errors(self):
        model = m.DiscreteModel(a_d=np.eye(2), b_d=np.ones((2, 1)),
                                c_d=np.ones((1, 2)), dt=0.01, order=2)
        with pytest.raises(ValueError):
            m.predict(model, np.zeros(3), np.zeros((5, 1)))
        with pytest.raises(ValueError):
            m.predict(model, np.zeros(2), np.zeros((5, 2)))


class TestSelectOrder:
    def test_true_order_recovered_from_small_system(self):
        rng = np.random.default_rng(15)
        a, b, c = random_discrete_system(3, 2, 2, rng)
        u = rng.uniform(-1.0, 1.0, size=(800, 2))
        y = simulate(a, b, c, u)
        report, model = m.select_order(u, y, candidates=range(1, 7))
        assert report.d_star <= 3
        scale = float(np.mean(np.linalg.norm(y, axis=1)))
        assert report.eta[report.d_star] <= 1e-6 * scale
        assert model.order == report.d_star

    def test_singleton_candidate(self):
        rng = np.random.default_rng(16)
        a, b, c = random_discrete_system(2, 1, 1, rng)
        u = rng.uniform(-1.0, 1.0, size=(300, 1))
        y = simulate(a, b, c, u)
        report, _ = m.select_order(u, y, candidates=[2])
        assert report.d_star == 2
        assert set(report.eta) == {2}

    def test_underfit_error_reported_honestly(self):
        rng = np.random.default_rng(17)
        a, b, c = random_discrete_system(4, 1, 1, rng)
        u = rng.uniform(-1.0, 1.0, size=(800, 1))
        y = simulate(a, b, c, u)
        r_under, _ = m.select_order(u, y, candidates=[1])
        r_full, _ = m.select_order(u, y, candidates=[4])
        assert r_under.eta[1] > 100.0 * r_full.eta[4]

    def test_eta_matches_independent_resimulation(self):
        """Seeded output noise keeps eta well away from zero (about 8.2e-4), so a
        wrong score cannot hide under an absolute floor."""
        rng = np.random.default_rng(18)
        a, b, c = random_discrete_system(3, 1, 1, rng)
        u = rng.uniform(-1.0, 1.0, size=(500, 1))
        y = simulate(a, b, c, u)
        y = y + 1e-3 * np.random.default_rng(6).normal(size=y.shape)
        report, model = m.select_order(u, y, candidates=[3])
        x0 = sysid.estimate_initial_state(model, u, y, report.init_state_samples)
        y_hat = simulate(model.a_d, model.b_d, model.c_d, u, x0)
        eta = float(np.mean(np.linalg.norm(y_hat - y, axis=1)))
        assert eta > 1e-4
        assert eta == pytest.approx(report.eta[3], rel=1e-9, abs=0.0)

    def test_init_state_samples_are_those_d_star_was_scored_with(self):
        """d* = 3 is scored with x0 from its own max(2d, 20) = 20 samples, not
        the 24 of the other candidate. Seeded output noise makes x0, and so
        eta, depend on that count: re-scoring from 24 samples moves eta by
        about 6e-12 max|y|, while the fit-based score sits within rounding of
        the 20-sample replay. The noise is small enough that d = 12 stays
        within the near-tie slack of d = 3."""
        rng = np.random.default_rng(18)
        a, b, c = random_discrete_system(3, 1, 1, rng)
        u = rng.uniform(-1.0, 1.0, size=(500, 1))
        y = simulate(a, b, c, u, x0=rng.normal(size=3))
        y = y + 3e-7 * np.random.default_rng(5).normal(size=y.shape)
        report, model = m.select_order(u, y, candidates=[3, 12])
        assert report.d_star == 3 and 12 in report.eta
        assert report.init_state_samples == 20

        def rescore(n_samples):
            x0 = sysid.estimate_initial_state(model, u, y, n_samples)
            return prediction_error(model, x0, u, y)

        tol = 1e-12 * float(np.max(np.abs(y)))
        assert abs(rescore(report.init_state_samples) - report.eta[3]) <= tol
        assert abs(rescore(24) - report.eta[3]) > tol

    def test_empty_candidates(self):
        with pytest.raises(m.IdentificationError):
            m.select_order(np.zeros((100, 1)), np.zeros((100, 1)), candidates=[])


class TestPersistence:
    def test_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        a, b, c = random_discrete_system(3, 2, 2, rng)
        model = m.DiscreteModel(a_d=a, b_d=b, c_d=c, dt=0.005, order=3)
        path = tmp_path / "model.txt"
        sysid.save_model(model, path)
        back = sysid.load_model(path)
        np.testing.assert_array_equal(back.a_d, model.a_d)
        np.testing.assert_array_equal(back.b_d, model.b_d)
        np.testing.assert_array_equal(back.c_d, model.c_d)
        assert back.dt == model.dt
        assert back.order == model.order

    def test_records_round_trip(self, tmp_path):
        rng = np.random.default_rng(20)
        t = np.arange(50) * 0.005
        u = rng.normal(size=(50, 2))
        y = rng.normal(size=(50, 3))
        path = tmp_path / "rec.csv"
        sysid.save_records(path, t, u, y)
        t2, u2, y2 = sysid.load_records(path)
        np.testing.assert_allclose(u2, u, rtol=1e-8)
        np.testing.assert_allclose(y2, y, rtol=1e-8)
        assert t2.shape == (50,)

    def test_corrupt_record_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,u1,y1\n0.0,1.0,2.0\n0.005,oops,3.0\n")
        with pytest.raises(sysid.ConfigError, match="line 3"):
            sysid.load_records(path)

    def test_short_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad2.csv"
        path.write_text("time,u1,y1\n0.0,1.0\n")
        with pytest.raises(sysid.ConfigError, match="line 2"):
            sysid.load_records(path)


class TestOnDefaultPlant:
    def test_noise_free_identification_of_study_grid(self):
        grid = cs.grid1_spec()
        spec = m.ExcitationSpec(k0=1500, seed=23)
        t, u, y = cs.identification_records(grid, spec)
        report, model = m.select_order(u, y, candidates=range(1, 8), dt=spec.dt)
        scale = float(np.mean(np.linalg.norm(y, axis=1)))
        assert report.d_star <= 6
        assert report.eta[report.d_star] <= 1e-6 * scale
        assert np.max(np.abs(np.linalg.eigvals(model.a_d))) < 1.0 + 1e-9
