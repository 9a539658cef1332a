"""Closed-loop model construction, dynamics, and attack-free statistics."""

import itertools
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import linalg as sla, stats

from resdet import attacks
from resdet import model as mdl
from resdet import numerics
from resdet import reactor as rx
from resdet import sim
from resdet.attacks import plan_attack
from resdet.cli import load_scenario
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    measure_alarm_rate,
    tune_chi2,
    tune_windowed,
)
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


def test_the_bundled_loop_is_the_cli_scenario_loop(reactor_fixed):
    # one reader of the scenario document: the library's benchmark loop and
    # `resdet simulate`'s loop of the bundled file are the same bits
    cli_loop = load_scenario(str(rx.scenario_path())).model
    for name in ("p_pred", "l_gain", "sigma", "sigma_sqrt", "sigma_inv"):
        assert np.array_equal(getattr(reactor_fixed, name), getattr(cli_loop, name)), name


def test_reactor_loop_opens_the_bundled_file_once(monkeypatch):
    opened = []
    bundled = rx.scenario_path()

    class CountingPath:
        def open(self, *args, **kwargs):
            opened.append(args)
            return bundled.open(*args, **kwargs)

        def read_text(self, *args, **kwargs):
            opened.append(args)
            return bundled.read_text(*args, **kwargs)

    monkeypatch.setattr(rx, "scenario_path", CountingPath)
    for estimator in ("fixed", "dare"):
        opened.clear()
        rx.reactor_loop(estimator)
        assert len(opened) == 1, estimator


def test_plant_rejects_bad_shapes_and_covariances():
    f = np.array([[0.5]])
    with pytest.raises(ValueError):
        PlantModel(f, np.ones((2, 1)), np.ones((1, 1)), f, f)  # G rows != n
    with pytest.raises(ValueError, match="not positive semidefinite"):
        PlantModel(f, np.ones((1, 1)), np.ones((1, 1)), np.array([[-1.0]]), f)
    with pytest.raises(ValueError):
        PlantModel(f, np.ones((1, 1)), np.ones((1, 1)), f, np.array([[0.0]]))  # R2 not PD


def test_the_plant_factors_r1_and_r2_once(reactor_matrices, monkeypatch):
    m = reactor_matrices
    plant = PlantModel(m["f"], m["g"], m["c"], m["r1"], m["r2"])
    for chol, cov in ((plant.chol_r1, plant.r1), (plant.chol_r2, plant.r2)):
        assert np.array_equal(chol, np.linalg.cholesky(cov))  # both are positive definite
    # a semidefinite R1 falls back to its symmetric square root
    r1 = np.diag([1.0, 0.0])
    semi = PlantModel(np.eye(2) * 0.5, np.eye(2), np.eye(2), r1, np.eye(2))
    assert np.array_equal(semi.chol_r1, numerics.psd_sqrt(r1))

    def no_factor(mat):
        raise AssertionError("the loop factored a covariance again")

    monkeypatch.setattr(numerics, "psd_factor", no_factor)
    loop = build_closed_loop(plant, m["k_fb"], l_gain=m["l_gain"])
    noise = loop.noise(0)
    assert noise.chol_r1 is plant.chol_r1 and noise.chol_r2 is plant.chol_r2


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


skip_under_O = pytest.mark.skipif(not __debug__, reason="python -O strips the assertion")


@skip_under_O
def test_the_error_recursion_check_fires_on_a_corrupted_loop(reactor_fixed):
    # advance's state update and the closed-form recursion (F - LC) e - L eta + v
    # disagree once f_est is not F - LC
    bad = replace(reactor_fixed, f_est=reactor_fixed.f_est + 1e-6)
    rng = np.random.default_rng(8)
    x, xhat, v, eta = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)
    advance(reactor_fixed, x, xhat, v, eta)
    with pytest.raises(AssertionError):
        advance(bad, x, xhat, v, eta)


@skip_under_O
def test_each_lane_is_held_to_its_own_error_bound(reactor_fixed):
    # lane 0 runs near the origin with an error of about 1e-6; lane 1's state
    # is 1e6 times larger with no error at all, which would hide lane 0's
    # error under a bound taken over the whole batch
    bad = replace(reactor_fixed, f_est=reactor_fixed.f_est + 1e-7)
    rng = np.random.default_rng(9)
    runs = 3
    x = np.hstack([rng.normal(size=(4, runs)), np.full((4, runs), 1e6)])
    xhat = np.hstack([rng.normal(size=(4, runs)), np.full((4, runs), 1e6)])
    v, eta = rng.normal(size=(4, 2 * runs)), rng.normal(size=(3, 2 * runs))
    advance(reactor_fixed, x, xhat, v, eta, lanes=2)
    advance(bad, x, xhat, v, eta)  # one lane: the large state sets the bound
    with pytest.raises(AssertionError):
        advance(bad, x, xhat, v, eta, lanes=2)
    with pytest.raises(AssertionError):
        advance(bad, x[:, :runs], xhat[:, :runs], v[:, :runs], eta[:, :runs])


# advance and synthesize_attacks on columns that do not split into lanes, or
# with noise that is not full width (one lane wide, one column, or neither),
# for two lanes and for one; then on one run's vectors; prints each call's
# ValueError message, or "ok" and the result's shape
LANE_PROBE = """
import numpy as np
from resdet import reactor as rx
from resdet.attacks import plan_attack, synthesize_attacks
from resdet.detectors import ChiSqDetector, tune_chi2
from resdet.model import advance

loop = rx.reactor_loop(estimator="fixed")
plan = plan_attack(loop, ChiSqDetector(tune_chi2(3, 0.05)), k_star=1)
rng = np.random.default_rng(11)

def probe(call):
    try:
        print("ok", np.shape(call()[0]))
    except ValueError as exc:
        print(exc)

for cols, lanes, width in ((7, 2, 7), (7, 0, 7), (7, -1, 7), (6, 2, 4), (6, 2, 3), (6, 2, 1), (6, 1, 1),
                          (6, 1, 3), (0, 2, 0), (0, 1, 0)):
    x, xhat = rng.normal(size=(4, cols)), rng.normal(size=(4, cols))
    v, eta = rng.normal(size=(4, width)), rng.normal(size=(3, width))
    probe(lambda: advance(loop, x, xhat, v, eta, lanes=lanes))
    probe(lambda: [synthesize_attacks([plan] * max(lanes, 0), loop, 1, x - xhat, eta)])
x, xhat, v, eta = rng.normal(size=4), rng.normal(size=4), rng.normal(size=4), rng.normal(size=3)
probe(lambda: advance(loop, x, xhat, v, eta))
probe(lambda: [synthesize_attacks([plan], loop, 1, x - xhat, eta)])
"""
LANE_PROBE_OUT = [
    *["lanes = 2 does not split the 7 columns into equal lanes"] * 2,
    *["lanes = 0 does not split the 7 columns into equal lanes"] * 2,
    "lanes = -1 does not split the 7 columns into equal lanes",
    "lanes = 0 does not split the 7 columns into equal lanes",  # no plan
    *[f"noise of width {width} is not as wide as the 6 columns of lanes = 2" for width in (4, 3, 1)
      for _ in range(2)],
    *[f"noise of width {width} is not as wide as the 6 columns of lanes = 1" for width in (1, 3)
      for _ in range(2)],
    "ok (4, 0)", "ok (3, 0)", "ok (4, 0)", "ok (3, 0)",  # empty batches
    "ok (4,)", "ok (3,)",  # one run's vectors
]


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["checked", "python-O"])
def test_lanes_that_do_not_split_the_columns_raise(child_env, flags):
    proc = subprocess.run([sys.executable, *flags, "-c", LANE_PROBE], capture_output=True, text=True,
                          timeout=120, env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == LANE_PROBE_OUT


def lane_bounds_hold(x_next, xhat_next, e_form, lanes):
    """The one-stage reference: every lane's maxima against its own bound."""
    error = x_next - xhat_next
    error -= e_form
    runs = x_next.shape[1] // lanes
    for lane in range(lanes):
        cols = slice(lane * runs, (lane + 1) * runs)
        big, big_hat = float(np.abs(x_next[:, cols]).max()), float(np.abs(xhat_next[:, cols]).max())
        if not float(np.abs(error[:, cols]).max()) <= 1e-10 * (1.0 + big + big_hat):
            return False
    return True


def least_run_0_bound(x_next, xhat_next, lanes):
    """1e-10 times the least of the lanes' bounds taken over their run-0 columns."""
    runs = x_next.shape[1] // lanes
    return 1e-10 * min(1.0 + float(np.abs(x_next[:, col]).max()) + float(np.abs(xhat_next[:, col]).max())
                       for col in range(0, lanes * runs, runs))


def check_raises(x_next, xhat_next, e_form, lanes) -> bool:
    try:
        mdl._check_error(x_next, xhat_next, e_form, lanes, x_next.shape[1] // lanes)
    except AssertionError:
        return True
    return False


# where an injected error sits against a bound: one ulp below, on it, one
# ulp above, a factor of two either side, or at 0 (no error in the lane)
OFFSETS = {"below": -np.inf, "on": None, "above": np.inf, "half": 0.5, "double": 2.0, "none": 0.0}


@skip_under_O
@settings(max_examples=300)
@given(data=st.data())
def test_the_two_stage_check_raises_where_the_lane_bounds_do(data):
    lanes, runs, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 5)), 4
    cols = lanes * runs
    exponents = data.draw(st.lists(st.floats(-3.0, 8.0), min_size=cols, max_size=cols))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    scale = 10.0 ** np.array(exponents)
    x_next, xhat_next = scale * rng.normal(size=(n, cols)), scale * rng.normal(size=(n, cols))
    # one error per lane, at a drawn entry whose x_next - xhat_next is exactly 0
    spots = [(data.draw(st.integers(0, n - 1)), lane * runs + data.draw(st.integers(0, runs - 1)))
             for lane in range(lanes)]
    for row, col in spots:
        xhat_next[row, col] = x_next[row, col]
    e_form = x_next - xhat_next
    least = least_run_0_bound(x_next, xhat_next, lanes)
    for lane, (row, col) in enumerate(spots):
        block = slice(lane * runs, (lane + 1) * runs)
        own = 1e-10 * (1.0 + float(np.abs(x_next[:, block]).max()) + float(np.abs(xhat_next[:, block]).max()))
        bound = own if data.draw(st.booleans()) else least
        offset = OFFSETS[data.draw(st.sampled_from(sorted(OFFSETS)))]
        if offset is None:
            err = bound
        elif np.isinf(offset):
            err = float(np.nextafter(bound, offset))
        else:
            err = bound * offset
        e_form[row, col] = -err if data.draw(st.booleans()) else err  # error = 0 - e_form
    holds = lane_bounds_hold(x_next, xhat_next, e_form, lanes)
    assert check_raises(x_next, xhat_next, e_form, lanes) == (not holds)


@skip_under_O
def test_a_lane_whose_run_0_is_near_the_origin_passes_in_stage_2():
    # lane 0's run 0 sits near the origin and its other runs are large: its
    # error is far above the least run-0 bound (stage 1 fails) and below its
    # own bound (stage 2 passes)
    rng = np.random.default_rng(12)
    lanes, runs = 2, 3
    x_next, xhat_next = rng.normal(size=(4, 6)), rng.normal(size=(4, 6))
    x_next[:, 1:], xhat_next[:, 1:] = 1e8 * x_next[:, 1:], 1e8 * xhat_next[:, 1:]
    x_next[:, 0], xhat_next[:, 0] = 1e-3 * x_next[:, 0], 1e-3 * xhat_next[:, 0]
    e_form = x_next - xhat_next
    e_form[2, 1] -= 1e-6
    error = x_next - xhat_next - e_form
    assert np.abs(error).max() > least_run_0_bound(x_next, xhat_next, lanes)
    assert lane_bounds_hold(x_next, xhat_next, e_form, lanes)
    assert not check_raises(x_next, xhat_next, e_form, lanes)
    e_form[2, 1] -= 1.0  # now above lane 0's own bound
    assert check_raises(x_next, xhat_next, e_form, lanes)
    assert not lane_bounds_hold(x_next, xhat_next, e_form, lanes)


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
    mdl._forget_noise()  # simulate and draw again rather than return z1
    z2 = simulate_distance_stream(reactor_fixed, steps=200, runs=7, seed=9)
    assert np.array_equal(z1, z2)
    z3 = simulate_distance_stream(reactor_fixed, steps=200, runs=7, seed=10)
    assert not np.array_equal(z1, z3)


# --------------------------------------------------------- remembered stream

STREAM = {"steps": 20, "runs": 3, "seed": 1, "burn_in": 5}


@pytest.fixture
def draws(monkeypatch):
    """One entry per run drawn: whether the drawing thread remembered a draw or a stream during the draw."""
    calls = []
    draw_blocks = mdl._draw_blocks

    def recording_draw_blocks(sources, buf):
        calls.extend([mdl._attack_free.noise is not None or mdl._attack_free.stream is not None]
                     * len(sources))
        return draw_blocks(sources, buf)

    monkeypatch.setattr(mdl, "_draw_blocks", recording_draw_blocks)
    return calls


def test_a_repeated_stream_is_not_simulated_again(reactor_fixed, draws):
    z = simulate_distance_stream(reactor_fixed, **STREAM)
    assert len(draws) == STREAM["runs"]
    again = simulate_distance_stream(reactor_fixed, **STREAM)
    assert len(draws) == STREAM["runs"]
    assert np.array_equal(again, z)


@pytest.fixture
def simulations(monkeypatch):
    """One entry per model._simulate call: the loop it simulated."""
    calls = []
    simulate = mdl._simulate

    def recording_simulate(model, *args, **kwargs):
        calls.append(model)
        return simulate(model, *args, **kwargs)

    monkeypatch.setattr(mdl, "_simulate", recording_simulate)
    return calls


@pytest.mark.parametrize("change", ["model", {"steps": 21}, {"runs": 2}, {"seed": 2}, {"burn_in": 4}],
                         ids=["model", "steps", "runs", "seed", "burn_in"])
def test_another_model_geometry_or_seed_is_simulated(reactor_fixed, draws, simulations, change):
    simulate_distance_stream(reactor_fixed, **STREAM)
    if change == "model":  # an equal loop, built again
        model, args = rx.reactor_loop(estimator="fixed"), STREAM
    else:
        model, args = reactor_fixed, {**STREAM, **change}
    draws.clear()
    simulations.clear()
    simulate_distance_stream(model, **args)
    assert simulations == [model]
    if change in ("model", {"burn_in": 4}):
        # the equal loop's noise, and the first 24 of 25 rows, are the remembered draw's
        assert draws == []
    else:
        assert len(draws) == args["runs"]
        assert not any(draws)  # the old draw and stream were forgotten before the draw


@pytest.mark.parametrize("between", ["run_ensemble", "estimate_arl", "stream"])
def test_any_noise_draw_forgets_the_stream(reactor_fixed, draws, between):
    simulate_distance_stream(reactor_fixed, **STREAM)
    draws.clear()
    if between == "run_ensemble":
        scenario = sim.Scenario(reactor_fixed, ChiSqDetector(7.8), steps=10, burn_in=2, mc_runs=2)
        sim.run_ensemble(scenario)
    elif between == "estimate_arl":
        estimate_arl(reactor_fixed, ChiSqDetector(0.1), runs=2, cap=20)
    else:
        simulate_distance_stream(reactor_fixed, **{**STREAM, "seed": 2})
    assert draws and not any(draws)
    draws.clear()
    simulate_distance_stream(reactor_fixed, **STREAM)
    assert len(draws) == STREAM["runs"]


def test_the_stream_is_read_only(reactor_fixed):
    z = simulate_distance_stream(reactor_fixed, **STREAM)
    with pytest.raises(ValueError, match="read-only"):
        z[0, 0] = 1.0
    with pytest.raises(ValueError):
        z.flags.writeable = True
    assert np.array_equal(simulate_distance_stream(reactor_fixed, **STREAM), z)


@pytest.mark.parametrize("bad, message", [
    ({"steps": -1}, "nonnegative"), ({"burn_in": -1}, "nonnegative"), ({"runs": 0}, "runs must be"),
], ids=["steps", "burn_in", "runs"])
def test_bad_arguments_raise_with_a_stream_remembered(reactor_fixed, draws, bad, message):
    simulate_distance_stream(reactor_fixed, **STREAM)
    draws.clear()
    with pytest.raises(ValueError, match=message):
        simulate_distance_stream(reactor_fixed, **{**STREAM, **bad})
    assert draws == []


# ---------------------------------------------------------- remembered draw

def _reactor_scaled(reactor_matrices, r1=1.0, r2=1.0):
    """The tabulated fixed-gain loop with R1 and R2 scaled: other noise, same gains."""
    m = reactor_matrices
    plant = PlantModel(m["f"], m["g"], m["c"], r1 * m["r1"], r2 * m["r2"])
    return build_closed_loop(plant, m["k_fb"], l_gain=m["l_gain"])


def test_loops_that_share_r1_and_r2_share_one_draw(reactor_dare, reactor_fixed, draws):
    # the two benchmark loops differ only in their estimator gain
    dare = simulate_distance_stream(reactor_dare, **STREAM)
    fixed = simulate_distance_stream(reactor_fixed, **STREAM)
    assert len(draws) == STREAM["runs"]
    assert not np.array_equal(dare, fixed)
    for loop, z in ((reactor_dare, dare), (reactor_fixed, fixed)):
        mdl._forget_noise()  # draw this loop's noise on its own
        assert np.array_equal(simulate_distance_stream(loop, **STREAM), z)
    assert len(draws) == 3 * STREAM["runs"]


@pytest.mark.parametrize("other", ["seed", "R1", "R2", "run_ensemble"])
def test_another_draw_forgets_the_family_first(reactor_fixed, reactor_matrices, monkeypatch, other):
    # the remembered draw goes before a draw of another seed, R1, R2 or an ensemble is allocated
    simulate_distance_stream(reactor_fixed, **STREAM)
    first = mdl._attack_free.noise
    assert first is not None
    seen = []  # the draw the drawing thread remembered during each draw, one entry per run
    draw_blocks = mdl._draw_blocks

    def recording_draw_blocks(sources, buf):
        seen.extend([mdl._attack_free.noise] * len(sources))
        return draw_blocks(sources, buf)

    monkeypatch.setattr(mdl, "_draw_blocks", recording_draw_blocks)
    if other == "run_ensemble":  # the family's own seed and run count
        scenario = sim.Scenario(reactor_fixed, ChiSqDetector(7.8), steps=10, burn_in=2,
                                seed=STREAM["seed"], mc_runs=STREAM["runs"])
        sim.run_ensemble(scenario)
        assert seen and all(remembered is None for remembered in seen)
    else:
        loop, args = reactor_fixed, STREAM
        if other == "seed":
            args = {**STREAM, "seed": 2}
        else:
            loop = _reactor_scaled(reactor_matrices, **{other.lower(): 2.0})
        simulate_distance_stream(loop, **args)
        assert len(seen) == STREAM["runs"]
        assert all(remembered is None for remembered in seen)
    assert mdl._attack_free.noise is not first


def test_a_second_stream_holds_only_one_draw_at_its_peak(reactor_fixed):
    # each stream draws 1,050 steps of 200 runs, 11.8 MB; the first draw
    # is let go before the second is allocated
    draw = 1050 * 200 * (reactor_fixed.n + reactor_fixed.p) * 8
    tracemalloc.start()
    try:
        for seed in (1, 2):
            simulate_distance_stream(reactor_fixed, steps=1000, runs=200, seed=seed, burn_in=50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one draw, and the stream's own z and step buffers
    assert peak < 1.5 * draw, (peak, draw)


def _scale_loop(n=100):
    """A random stable loop at n = 100, p = m = 50, built like the benchmark's `scale` cases."""
    rng = np.random.default_rng([n, 2, 0])
    p = n // 2

    def orthogonal():
        q, r = np.linalg.qr(rng.standard_normal((n, n)))
        return q * np.sign(np.diag(r))

    f = 0.6 * orthogonal()
    g = rng.standard_normal((n, p))
    c = rng.standard_normal((p, n))
    k_fb = 0.3 * orthogonal()[:p]
    b, d = rng.standard_normal((n, n)), rng.standard_normal((p, p))
    plant = PlantModel(f, g / np.linalg.norm(g, 2), c / np.linalg.norm(c, 2), b @ b.T / n,
                       d @ d.T / p + np.eye(p))
    return build_closed_loop(plant, k_fb, l_gain=0.3 * orthogonal()[:, :p])


@pytest.fixture(scope="module")
def lazy_loops(scalar_loop, reactor_dare):
    return {"1x1": scalar_loop, "reactor": reactor_dare, "n100": _scale_loop()}


def _whole_draw(sources, width):
    """Each source's next NoiseModel.blocks(width), stacked as a time-major (width, runs, n + p) draw."""
    return np.stack([np.concatenate(source.blocks(width), axis=1) for source in sources], axis=1)


def _joined(pieces, rows):
    """The first `rows` (at least one) rows of an iterator of time-major pieces, copied into one array.

    Each piece is copied before the next is taken, and no piece past the rows is taken.
    """
    parts = []
    while rows > 0:
        parts.append(next(pieces)[:rows].copy())
        rows -= len(parts[-1])
    return np.concatenate(parts)


# budgets for a piece of one tile, of the default size, and of every step
BUDGETS = {"tile": 1, "default": mdl._PIECE_BYTES, "whole": 1 << 40}


@pytest.mark.parametrize("loop", ["1x1", "reactor", "n100"])
def test_a_lazy_chunk_reads_the_rows_of_the_whole_draw(lazy_loops, monkeypatch, loop):
    # the ARL stream's own pieces, drawn only as far as they are read, hold
    # the rows of one whole draw, whatever the budget, and none is kept
    model, runs, seed = lazy_loops[loop], 3, 11
    whole = _whole_draw([model.noise(seed, run=i) for i in range(runs)], 1100)
    for budget in BUDGETS.values():
        monkeypatch.setattr(mdl, "_PIECE_BYTES", budget)
        for depth in (1, 64, 65, 449, 1100):
            assert np.array_equal(_joined(_arl_pieces(model, runs, seed), depth), whole[:depth]), \
                (budget, depth)
        most = mdl._piece_rows(runs, model.n + model.p)
        pieces = _arl_pieces(model, runs, seed)
        assert [len(next(pieces)) for _ in range(5)] == [min(64 << k, most) for k in range(5)], budget
    # under the last budget the buffer keeps growing with the pieces, and a
    # buffer its reader dropped is let go before the next one is allocated
    last = weakref.ref(next(pieces).base)
    held, allocated = [], []
    noise_buffer = mdl._noise_buffer

    def recording_noise_buffer(rows, *args):
        held.append(last() is not None)
        allocated.append(rows)
        return noise_buffer(rows, *args)

    monkeypatch.setattr(mdl, "_noise_buffer", recording_noise_buffer)
    assert len(next(pieces)) == 64 << 6
    assert held == [False] and allocated == [64 << 6]
    # the first buffer is one tile, never one sized to the endless stream
    pieces = _arl_pieces(model, runs, seed)
    assert allocated[1:] == [64] and len(next(pieces)) == 64
    # once the pieces reach _piece_rows, each is a view of one buffer
    monkeypatch.setattr(mdl, "_PIECE_BYTES", 3 * 64 * runs * (model.n + model.p) * 8)
    pieces = _arl_pieces(model, runs, seed)
    bases = [next(pieces).base for _ in range(6)]
    assert [len(base) for base in bases] == [64, 128, 192, 192, 192, 192]
    assert all(base is bases[2] for base in bases[2:]) and allocated[2:] == [64, 128, 192]


def _arl_pieces(model, runs, seed):
    """The ARL stream's pieces (iter_distance_stream): 64, 128, 256, ... rows up to _piece_rows."""
    return mdl._noise_pieces(model, runs, seed, first=mdl._TILE)


def test_a_lazy_chunk_draws_eta_by_doubling_and_leaves_no_short_tail(reactor_dare, monkeypatch):
    # the ARL stream draws v and eta together, ahead of its blocks, in pieces
    # of 64, 128, 256, ... rows up to _piece_rows; every product spans whole
    # 64-row tiles, so no product of fewer rows is formed
    tiles = []
    fill_tiles = mdl.NoiseModel._tiles

    def recording_tiles(self, out):
        if self.run == 0 and len(out):
            tiles.append(len(out))
        return fill_tiles(self, out)

    monkeypatch.setattr(mdl.NoiseModel, "_tiles", recording_tiles)
    for depth, drawn in ((1, [64]), (64, [64]), (65, [64, 128]), (200, [64, 128, 256]),
                         (449, [64, 128, 256, 512]), (4000, [64, 128, 256, 512, 1024, 2048])):
        tiles.clear()
        mdl._forget_noise()
        blocks = list(mdl.iter_distance_stream(reactor_dare, [depth], runs=2, seed=1))
        assert blocks[0].shape == (2, depth)
        assert tiles == drawn, depth
    # under a budget of three tiles of two runs the pieces stop doubling at 192 rows
    monkeypatch.setattr(mdl, "_PIECE_BYTES", 3 * 64 * 2 * 7 * 8)
    tiles.clear()
    mdl._forget_noise()
    list(mdl.iter_distance_stream(reactor_dare, [1000], runs=2, seed=1))
    assert tiles == [64, 128] + [192] * 5
    # a source's calls of whole tiles, and a last one that ends inside a
    # tile, form every tile whole, the last one too
    tiles.clear()
    source = reactor_dare.noise(1, run=0)
    parts = [np.concatenate(source.blocks(rows), axis=1) for rows in (64, 0, 64, 63)]
    assert tiles == [64] * 3
    assert np.array_equal(np.concatenate(parts), _whole_draw([reactor_dare.noise(1, run=0)], 191)[:, 0])


def test_a_source_reads_whole_tiles_until_its_last_call(reactor_dare):
    # blocks(64) then blocks(b) is blocks(64 + b)
    for b in (0, 1, 63, 64, 130):
        source = reactor_dare.noise(3, run=2)
        split = np.concatenate([np.concatenate(source.blocks(rows), axis=1) for rows in (64, b)])
        assert np.array_equal(split, _whole_draw([reactor_dare.noise(3, run=2)], 64 + b)[:, 0]), b
    # a call that ends inside a tile is the source's last
    source = reactor_dare.noise(3, run=2)
    source.blocks(30)
    with pytest.raises(ValueError, match="ended inside a 64-step tile"):
        source.blocks(1)


def _prefix_case(model, runs=3, seed=5, steps=300):
    """(whole, split): a (steps, runs, n + p) draw in one call per run, and in pieces of several sizes."""
    whole = _whole_draw([model.noise(seed, run=i) for i in range(runs)], steps)
    splits = {}
    for sizes in ((64,) * 4 + (steps - 256,), (192, steps - 192), (64, 0, 128, steps - 192), (128, 172),
                  (256, steps - 256)):
        sources = [model.noise(seed, run=i) for i in range(runs)]
        splits[sizes] = np.concatenate([_whole_draw(sources, size) for size in sizes])
    return whole, splits


@pytest.mark.parametrize("loop", ["reactor", "n100"])
def test_each_run_s_noise_through_step_t_is_the_start_of_a_longer_draw(lazy_loops, monkeypatch, loop):
    model = lazy_loops[loop]
    whole, splits = _prefix_case(model)
    for sizes, split in splits.items():
        assert np.array_equal(split, whole), sizes
    for steps in (1, 63, 64, 65, 200):
        shorter = _whole_draw([model.noise(5, run=i) for i in range(3)], steps)
        assert np.array_equal(shorter, whole[:steps]), steps
    # an ensemble's pieces, under any budget, join into the same draw
    for budget in BUDGETS.values():
        monkeypatch.setattr(mdl, "_PIECE_BYTES", budget)
        assert np.array_equal(_joined(mdl._noise_pieces(model, 3, 5, 300), 300), whole), budget


PREFIX_CHILD = """
import sys
import numpy as np
sys.path.insert(0, {tests!r})
from test_model import _prefix_case, _scale_loop
whole, splits = _prefix_case(_scale_loop())
for sizes, split in splits.items():
    assert np.array_equal(split, whole), sizes
print("prefix-consistent")
"""


def test_the_noise_is_prefix_consistent_with_two_blas_threads(child_env):
    # with two BLAS threads at n = 100 the rows of a 64-row product can round
    # differently from the same rows of a longer one; every product is one tile
    env = {**child_env, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}
    code = PREFIX_CHILD.format(tests=os.path.dirname(__file__))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "prefix-consistent\n"


@pytest.mark.parametrize("budget", sorted(BUDGETS))
def test_an_ensemble_and_an_arl_do_not_depend_on_the_budget(reactor_fixed, monkeypatch, budget):
    detector = ChiSqDetector(tune_chi2(3, 0.05))
    plan = plan_attack(reactor_fixed, detector, k_star=21)
    scenario = sim.Scenario(reactor_fixed, detector, plan, steps=300, burn_in=20, seed=3, mc_runs=9)

    def results():
        mdl._forget_noise()
        ens = sim.run_ensemble(scenario)
        arl = estimate_arl(reactor_fixed, CusumDetector(7.5, 3.0), runs=40, seed=2, cap=2000)
        windowed = estimate_arl(reactor_fixed, WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50),
                                runs=40, seed=2, cap=2000)
        return ens.z, ens.mean_x, ens.alarm, arl, windowed

    default = results()
    monkeypatch.setattr(mdl, "_PIECE_BYTES", BUDGETS[budget])
    for ours, theirs in zip(results(), default):
        assert np.array_equal(ours, theirs) if isinstance(ours, np.ndarray) else ours == theirs


def test_an_ensemble_holds_about_one_piece_of_noise(monkeypatch):
    # 200 runs x 1,000 steps at n = 100 are 240 MB of noise drawn whole; in
    # pieces of _piece_rows steps (64 here, 15.4 MB) drawn one over the
    # other into one buffer, the loop holds the piece it reads
    loop = _scale_loop()
    detector = ChiSqDetector(tune_chi2(loop.p, 0.05))
    plan = plan_attack(loop, detector, k_star=51, direction="ones")
    scenario = sim.Scenario(loop, detector, plan, steps=1000, burn_in=50, seed=0, mc_runs=200)
    piece = mdl._piece_rows(200, loop.n + loop.p) * 200 * (loop.n + loop.p) * 8
    assert mdl._piece_rows(200, loop.n + loop.p) == 64
    tracemalloc.start()
    try:
        sim.run_ensemble(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one piece, and the ensemble's own arrays: z, the run sums and run 0, 5 MB
    assert peak < piece + 8e6, (peak, piece)
    # every piece of a draw of several is a view of the one buffer
    monkeypatch.setattr(mdl, "_PIECE_BYTES", 1)
    pieces = list(mdl._noise_pieces(loop, 3, 0, 150))
    assert [len(piece) for piece in pieces] == [64, 64, 22]
    assert pieces[0].base is not None and all(piece.base is pieces[0].base for piece in pieces)


def _step_by_step(model, noise, runs, lanes, attack):
    """_simulate's loop from the origin, one one-shot advance call a step, on (steps, runs, n + p) noise."""
    n, cols, steps = model.n, lanes * runs, len(noise)
    x, xhat = np.zeros((n, cols)), np.zeros((n, cols))
    z, sum_x, first = np.empty((steps, cols)), np.empty((lanes, steps, n)), np.empty((lanes, steps, n))
    for t, row in enumerate(noise):
        v, eta = np.tile(row[:, :n].T, lanes), np.tile(row[:, n:].T, lanes)
        c_err = model.plant.c @ (x - xhat)
        delta = attack(t + 1, c_err, eta, z[:t].T)
        sum_x[:, t] = x.reshape(n, lanes, runs).sum(axis=2).T
        first[:, t] = x[:, ::runs].T
        x, xhat, _, z[t] = advance(model, x, xhat, v, eta, delta, lanes, c_err=c_err)
    return z.T, (x, xhat), (sum_x, first)


def _buffered_bits_that_differ(model, runs=3, steps=150, seed=4):
    """The outputs in which _simulate and _step_by_step differ on an attacked two-lane ensemble.

    Lane 0 carries the all-ones attack and lane 1 the worst-direction one,
    both from step 21.  _simulate reads the noise row by row from 64-step
    pieces drawn one over the other into one buffer (_noise_pieces under
    a one-tile budget), the reference one copy of the same draw.
    """
    lanes = 2
    detector = ChiSqDetector(tune_chi2(model.p, 0.05))
    plans = [plan_attack(model, detector, k_star=21, direction=d) for d in ("ones", "worst")]
    directions = attacks._lane_directions(plans, runs)

    def attack(k, c_err, eta, z_past):
        return attacks._lane_biases(plans, directions, model, k, c_err, eta, z_past) if k >= 21 else None

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mdl, "_PIECE_BYTES", BUDGETS["tile"])
        rows = itertools.chain.from_iterable(mdl._noise_pieces(model, runs, seed, steps))
        buffered = mdl._simulate(model, rows, steps, runs, attack, lanes=lanes, record=True)
        reference = _step_by_step(model, _joined(mdl._noise_pieces(model, runs, seed, steps), steps),
                                  runs, lanes, attack)
    names = ("z", "x", "xhat", "sum_x", "first")
    flat = [[out[0], *out[1], *out[2]] for out in (buffered, reference)]
    return [name for name, ours, theirs in zip(names, *flat) if not np.array_equal(ours, theirs)]


@pytest.mark.parametrize("loop", ["reactor", "n100"])
def test_the_buffered_loop_equals_one_shot_steps_bit_for_bit(lazy_loops, loop):
    assert _buffered_bits_that_differ(lazy_loops[loop]) == []


BITS_CHILD = """
import sys
sys.path.insert(0, {tests!r})
from resdet import reactor as rx
from test_model import _buffered_bits_that_differ as differ, _scale_loop
print(differ(rx.reactor_loop(estimator="dare")), differ(_scale_loop()))
"""


def test_the_buffered_loop_equals_one_shot_steps_without_assertions(child_env):
    # `python -O` drops advance's error check, whose scratch shares the step buffers
    code = BITS_CHILD.format(tests=os.path.dirname(__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=300,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"


# ------------------------------------------------------------------- threads

def test_a_stream_remembered_in_one_thread_is_not_served_to_another(reactor_fixed, draws):
    z = simulate_distance_stream(reactor_fixed, **STREAM)
    draws.clear()
    with ThreadPoolExecutor(max_workers=1) as pool:
        other = pool.submit(simulate_distance_stream, reactor_fixed, **STREAM).result()
        # the other thread simulated its own stream, from its own draw
        assert other is not z and np.array_equal(other, z)
        assert len(draws) == STREAM["runs"] and not any(draws)
        pool.submit(mdl._forget_noise).result()  # forgets that thread's memos only
    draws.clear()
    assert simulate_distance_stream(reactor_fixed, **STREAM) is z
    assert draws == []


def test_concurrent_calls_equal_serial_ones(reactor_dare, reactor_fixed):
    # the two loops share R1 and R2, so at equal seeds and runs every call
    # below reads one noise family key
    detectors = (ChiSqDetector(tune_chi2(3, 0.05)), CusumDetector(7.5, 3.0))
    calls = [(fn, loop, det, kwargs)
             for fn, kwargs in ((measure_alarm_rate, {"steps": 60, "runs": 40, "burn_in": 10}),
                                (estimate_arl, {"runs": 40, "cap": 2000, "warm_up": 10}))
             for loop in (reactor_dare, reactor_fixed) for det in detectors]
    serial = [fn(loop, det, **kwargs) for fn, loop, det, kwargs in calls]
    start = threading.Barrier(len(calls))

    def call(fn, loop, det, kwargs):
        start.wait()
        return fn(loop, det, **kwargs)

    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        with ThreadPoolExecutor(max_workers=len(calls)) as pool:
            concurrent = [future.result() for future in [pool.submit(call, *c) for c in calls]]
    finally:
        sys.setswitchinterval(interval)
    assert concurrent == serial


def test_noise_blocks_are_per_run_substreams(reactor_fixed):
    a = reactor_fixed.noise(0, run=0).blocks(64)
    b = reactor_fixed.noise(0, run=1).blocks(64)
    again = reactor_fixed.noise(0, run=0).blocks(64)
    assert np.array_equal(a[0], again[0]) and np.array_equal(a[1], again[1])
    assert not np.array_equal(a[0], b[0])
