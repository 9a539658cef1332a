"""Closed-loop model construction, dynamics, and attack-free statistics."""

import numpy as np
import pytest
from scipy import linalg as sla, stats

from resdet import model as mdl
from resdet import numerics
from resdet import reactor as rx
from resdet.model import PlantModel, advance, build_closed_loop, simulate_distance_stream


def _tiny_plant(r1=0.435, r2=0.5):
    return PlantModel(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]),
        np.array([[r1]]), np.array([[r2]]),
    )


# -------------------------------------------------------------- construction

def test_plant_symmetrizes_process_noise(reactor_matrices):
    plant = PlantModel(
        reactor_matrices["f"], reactor_matrices["g"], reactor_matrices["c"],
        reactor_matrices["r1"], reactor_matrices["r2"],
    )
    want = 0.5 * (reactor_matrices["r1"] + reactor_matrices["r1"].T)
    np.testing.assert_allclose(plant.r1, want, atol=0.0)
    assert plant.n == 4 and plant.m == 3 and plant.p == 3


def test_plant_rejects_bad_shapes_and_covariances():
    f = np.array([[0.5]])
    with pytest.raises(ValueError):
        PlantModel(f, np.ones((2, 1)), np.ones((1, 1)), f, f)  # G rows != n
    with pytest.raises(ValueError):
        PlantModel(f, np.ones((1, 1)), np.ones((1, 1)), np.array([[-1.0]]), f)
    with pytest.raises(ValueError):
        PlantModel(f, np.ones((1, 1)), np.ones((1, 1)), f, np.array([[0.0]]))  # R2 not PD


def test_build_rejects_unstable_closed_loop():
    plant = _tiny_plant()
    with pytest.raises(ValueError, match="unstable closed loop"):
        build_closed_loop(plant, np.array([[0.6]]))  # F+GK = 1.1


def test_build_rejects_unstable_estimator():
    plant = _tiny_plant()
    with pytest.raises(ValueError, match="unstable estimator"):
        build_closed_loop(plant, np.array([[-0.25]]), l_gain=np.array([[3.0]]))


def test_supplied_gain_covariance_matches_lyapunov_reference(reactor_fixed, reactor_matrices):
    f = reactor_matrices["f"]
    c = reactor_matrices["c"]
    l_gain = reactor_matrices["l_gain"]
    r1 = 0.5 * (reactor_matrices["r1"] + reactor_matrices["r1"].T)
    r2 = reactor_matrices["r2"]
    a = f - l_gain @ c
    p_ref = sla.solve_discrete_lyapunov(a, l_gain @ r2 @ l_gain.T + r1)
    np.testing.assert_allclose(reactor_fixed.p_pred, p_ref, rtol=1e-8, atol=1e-8)
    np.testing.assert_allclose(
        reactor_fixed.sigma, c @ p_ref @ c.T + r2, rtol=1e-8, atol=1e-8
    )
    np.testing.assert_allclose(
        np.diag(reactor_fixed.sigma),
        [113.887588, 166.324598, 105.03557],
        atol=1e-4,
    )
    assert reactor_fixed.rho_est == pytest.approx(0.4271963215, abs=1e-8)
    assert reactor_fixed.rho_cl == pytest.approx(0.9326486540, abs=1e-8)


def test_dare_gain_matches_reference(reactor_dare, reactor_matrices):
    f = reactor_matrices["f"]
    c = reactor_matrices["c"]
    r1 = 0.5 * (reactor_matrices["r1"] + reactor_matrices["r1"].T)
    r2 = reactor_matrices["r2"]
    p_ref = sla.solve_discrete_are(f.T, c.T, r1, r2)
    l_ref = f @ p_ref @ c.T @ np.linalg.inv(c @ p_ref @ c.T + r2)
    np.testing.assert_allclose(reactor_dare.l_gain, l_ref, rtol=1e-7, atol=1e-10)
    assert reactor_dare.rho_est < reactor_fixed_rho(reactor_matrices)


def test_build_computes_the_estimator_spectral_radius_once(monkeypatch):
    calls = []
    radius = numerics.spectral_radius

    def counting_radius(mat):
        calls.append(mat)
        return radius(mat)

    monkeypatch.setattr(numerics, "spectral_radius", counting_radius)
    # same bits as when the solvers checked rho(F - LC) a second time
    for estimator, rho_est in (("dare", 0.24930811262769365), ("fixed", 0.4271963214713752)):
        calls.clear()
        loop = rx.reactor_loop(estimator)
        assert len(calls) == 2, estimator  # F + GK, then F - LC
        assert np.array_equal(calls[1], loop.f_est)
        assert loop.rho_est == rho_est and loop.rho_cl == 0.9326486540281657


def reactor_fixed_rho(mats):
    a = mats["f"] - mats["l_gain"] @ mats["c"]
    return float(np.max(np.abs(np.linalg.eigvals(a))))


# ------------------------------------------------------------------ dynamics

def test_origin_is_noise_free_fixed_point(scalar_loop):
    x, xhat, r, z = advance(
        scalar_loop, np.zeros(1), np.zeros(1), np.zeros(1), np.zeros(1)
    )
    assert np.all(x == 0.0) and np.all(xhat == 0.0)
    assert np.all(r == 0.0) and z == 0.0


def test_saturating_bias_fixes_distance_measure(reactor_fixed):
    # delta = -C e - eta + Sigma^{1/2} psi with psi'psi = alpha gives z = alpha
    rng = np.random.default_rng(3)
    alpha = 7.81
    psi = rng.normal(size=3)
    psi *= np.sqrt(alpha) / np.linalg.norm(psi)
    x = rng.normal(size=4)
    xhat = rng.normal(size=4)
    eta = rng.normal(size=3)
    e = x - xhat
    delta = -(reactor_fixed.plant.c @ e) - eta + reactor_fixed.sigma_sqrt @ psi
    _, _, _, z = advance(reactor_fixed, x, xhat, rng.normal(size=4), eta, delta)
    assert z == pytest.approx(alpha, abs=1e-9)


def test_error_recursion_closed_form_random_models():
    rng = np.random.default_rng(21)
    for trial in range(6):
        n, p_dim, m_dim = 3, 2, 2
        f = rng.normal(size=(n, n))
        f *= 0.7 / max(1e-9, np.max(np.abs(np.linalg.eigvals(f))))
        g = rng.normal(size=(n, m_dim))
        c = rng.normal(size=(p_dim, n))
        raw1 = rng.normal(size=(n, n))
        raw2 = rng.normal(size=(p_dim, p_dim))
        plant = PlantModel(f, g, c, raw1 @ raw1.T + 0.1 * np.eye(n),
                           raw2 @ raw2.T + 0.1 * np.eye(p_dim))
        model = build_closed_loop(plant, np.zeros((m_dim, n)))
        a_est = model.f_est
        x = rng.normal(size=n)
        xhat = rng.normal(size=n)
        for _ in range(50):
            v = rng.normal(size=n)
            eta = rng.normal(size=p_dim)
            delta = 0.1 * rng.normal(size=p_dim)
            e = x - xhat
            x, xhat, _, _ = advance(model, x, xhat, v, eta, delta)
            e_closed = a_est @ e - model.l_gain @ eta + v - model.l_gain @ delta
            scale = 1.0 + np.abs(x).max() + np.abs(xhat).max()
            assert np.linalg.norm((x - xhat) - e_closed) <= 1e-10 * scale


def test_batched_advance_matches_sequential(reactor_fixed):
    rng = np.random.default_rng(4)
    runs = 5
    x = rng.normal(size=(4, runs))
    xhat = rng.normal(size=(4, runs))
    v = rng.normal(size=(4, runs))
    eta = rng.normal(size=(3, runs))
    bx, bxh, br, bz = advance(reactor_fixed, x, xhat, v, eta)
    for i in range(runs):
        sx, sxh, sr, sz = advance(reactor_fixed, x[:, i], xhat[:, i], v[:, i], eta[:, i])
        np.testing.assert_allclose(bx[:, i], sx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(bxh[:, i], sxh, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(br[:, i], sr, rtol=1e-12, atol=1e-12)
        assert bz[i] == pytest.approx(sz, rel=1e-12)


# ------------------------------------------------------- attack-free statistics

def test_distance_measure_moments_reactor(reactor_fixed):
    z = simulate_distance_stream(reactor_fixed, steps=1000, runs=1000, seed=0, burn_in=50)
    zf = z.ravel()
    assert zf.size == 1_000_000
    assert np.all(zf >= 0.0)
    assert abs(zf.mean() - 3.0) <= 0.02
    assert abs(zf.var() - 6.0) <= 0.1


def test_residual_whiteness_optimal_gain(reactor_dare):
    steps, warm = 100_000, 50
    noise = reactor_dare.noise(7, run=0)
    v, eta = noise.blocks(steps + warm)
    x = np.zeros(4)
    xhat = np.zeros(4)
    rs = np.empty((steps, 3))
    for t in range(steps + warm):
        x, xhat, r, _ = advance(reactor_dare, x, xhat, v[t], eta[t])
        if t >= warm:
            rs[t - warm] = r
    for j in range(3):
        ac = np.corrcoef(rs[:-1, j], rs[1:, j])[0, 1]
        assert abs(ac) <= 0.02, f"component {j} lag-1 autocorrelation {ac}"


def test_distance_measure_chi_squared_ks(reactor_fixed):
    z = simulate_distance_stream(reactor_fixed, steps=1000, runs=100, seed=5, burn_in=50)
    ks = stats.kstest(z.ravel(), lambda q: stats.chi2.cdf(q, 3)).statistic
    assert ks <= 0.01


def test_stream_determinism(reactor_fixed):
    z1 = simulate_distance_stream(reactor_fixed, steps=200, runs=7, seed=9)
    z2 = simulate_distance_stream(reactor_fixed, steps=200, runs=7, seed=9)
    assert np.array_equal(z1, z2)
    z3 = simulate_distance_stream(reactor_fixed, steps=200, runs=7, seed=10)
    assert not np.array_equal(z1, z3)


def test_noise_blocks_are_per_run_substreams(reactor_fixed):
    a = reactor_fixed.noise(0, run=0).blocks(64)
    b = reactor_fixed.noise(0, run=1).blocks(64)
    again = reactor_fixed.noise(0, run=0).blocks(64)
    assert np.array_equal(a[0], again[0]) and np.array_equal(a[1], again[1])
    assert not np.array_equal(a[0], b[0])
