"""Acceptance gate: one test per shipped capability claim, at stated tolerance.

Criterion 2 reproduces the tabulated CUSUM design (b = 3, tau = 0.86 at 5%)
as what it is: the design of a CUSUM on one sensor, z ~ chi-squared(1), with
5% read as an average run length of 1/0.05 = 20 steps.  The benchmark's own
three-sensor statistic needs tau of about 7.4 at 5% and alarms on about 22%
of steps at 0.86; the test computes that figure too.  See README "Known
limitations".
"""

import math

import numpy as np
import pytest

from resdet import model as mdl
from resdet import numerics as nx
from resdet import sim
from resdet.attacks import gamma_bound, plan_attack, worst_direction, compute_M
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    measure_alarm_rate,
    scan_chi2,
    scan_windowed,
    tune_chi2,
    tune_cusum_tau,
    tune_windowed,
)
from resdet.reactor import reactor_loop, run_benchmark


@pytest.fixture(scope="module")
def benchmark_report():
    return run_benchmark(seed=0)["report"]


def test_criterion_01_threshold_tuning_reproduction():
    assert abs(tune_chi2(3, 0.05) - 7.81) <= 0.01
    assert abs(tune_windowed(3, 4, 0.05) - 21.03) <= 0.01
    assert abs(tune_windowed(3, 50, 0.05) - 179.58) <= 0.01


def test_criterion_02_cusum_threshold_matches_tabulated_value(reactor_matrices):
    # The benchmark reactor seen through its first sensor only, with the
    # optimal gain, so the residual is white and z ~ chi-squared(1).
    mats = reactor_matrices
    plant = mdl.PlantModel(mats["f"], mats["g"], mats["c"][:1], mats["r1"], mats["r2"][:1, :1])
    loop = mdl.build_closed_loop(plant, mats["k_fb"])
    # The design reads 5% as ARL0 = 1/A* = 20.  Each alarm of the lagged
    # recursion uses up one more step, so the per-step rate is A*/(1 + A*).
    # tol_rel narrows the stopping band: at +-5% in rate the flat
    # chi-squared(1) curve spans about +-0.09 in tau.
    a_star = 0.05
    tau = tune_cusum_tau(
        loop, b=3.0, a_star=a_star / (1.0 + a_star), mc=1_000_000, seed=0, tol_rel=0.02
    )
    assert 0.76 <= tau <= 0.96, (
        f"Monte-Carlo calibration of the one-sensor CUSUM to ARL0 = 20 selects "
        f"tau={tau:.4g}, away from the tabulated 0.86"
    )
    arl = estimate_arl(loop, CusumDetector(tau, 3.0), runs=4000, seed=1, cap=100_000)
    assert arl.censored == 0
    assert abs(arl.arl - 1.0 / a_star) <= 0.05 / a_star, arl

    # The benchmark's three-sensor statistic, z ~ chi-squared(3), has zero
    # drift at b = 3: at the tabulated tau it alarms on about 22% of steps.
    est = measure_alarm_rate(
        reactor_loop("fixed"), CusumDetector(0.86, 3.0), steps=1000, runs=500, seed=2
    )
    assert abs(est.rate - 0.22) <= 0.01, est


def test_criterion_03_false_alarm_calibration_million_steps():
    loop = reactor_loop("dare")
    tau = tune_cusum_tau(loop, b=3.0, a_star=0.05, mc=1_000_000, seed=0, tol_rel=0.02)
    detectors = [
        ChiSqDetector(tune_chi2(3, 0.05)),
        WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4),
        WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50),
        CusumDetector(tau, 3.0),
    ]
    for det in detectors:
        est = measure_alarm_rate(loop, det, steps=1000, runs=1000, seed=1)
        assert abs(est.rate - 0.05) <= 0.005, (type(det).__name__, est)


def test_criterion_04_zero_alarm_property_ten_thousand_steps():
    loop = reactor_loop("fixed")
    steps, burn_in = 10_050, 50
    k_star = burn_in + 1

    det = ChiSqDetector(tune_chi2(3, 0.05))
    sc = sim.Scenario(model=loop, detector=det, plan=plan_attack(loop, det, k_star),
                      steps=steps, burn_in=burn_in)
    trace = sim.run(sc)
    k = np.arange(1, trace.steps + 1)
    active = k >= k_star
    assert trace.alarm[0, active].sum() == 0
    assert np.max(np.abs(trace.z[0, active] - det.alpha)) <= 1e-9

    for ell in (4, 50):
        det = WindowedChiSqDetector(tune_windowed(3, ell, 0.05), ell)
        sc = sim.Scenario(model=loop, detector=det, plan=plan_attack(loop, det, k_star),
                          steps=steps, burn_in=burn_in)
        trace = sim.run(sc)
        steady = k >= k_star + ell - 1
        assert trace.phase_counts()["alarms_steady"] == 0
        assert np.max(np.abs(trace.stat[0, steady] - det.beta)) <= 1e-8

    det = CusumDetector(0.86, 3.0)
    sc = sim.Scenario(model=loop, detector=det, plan=plan_attack(loop, det, k_star),
                      steps=steps, burn_in=burn_in)
    trace = sim.run(sc)
    after = trace.stat[0, k > k_star]
    assert np.max(np.abs(after - after[0])) == 0.0  # constant for k > k*


def test_criterion_05_deviation_bounds_within_five_percent(benchmark_report):
    for name in ("chi2", "windowed_ell4", "windowed_ell50", "cusum"):
        assert benchmark_report["relative_error"][f"{name}_worst"] <= 0.05, name


def test_criterion_06_measured_deviation_ordering(benchmark_report):
    measured = benchmark_report["measured"]
    assert (
        measured["chi2_worst"]
        > measured["windowed_ell4_worst"]
        > measured["windowed_ell50_worst"]
        > measured["cusum_worst"]
    )


def test_criterion_07_worst_over_ones_damage_ratio(benchmark_report):
    assert abs(benchmark_report["damage_ratio_worst_over_ones"] - 2.63) <= 0.15


def test_criterion_08_window_budget_convergence_and_cusum_limit():
    for a_star in (0.01, 0.05, 0.10, 0.30, 0.50, 0.80):
        budget = tune_windowed(1, 10_000, a_star) / 10_000
        assert abs(budget - 1.0) <= 0.05, a_star

    plant = mdl.PlantModel(f=[[0.5]], g=[[1.0]], c=[[1.0]], r1=[[0.435]], r2=[[0.5]])
    loop = mdl.build_closed_loop(plant, k_fb=[[-0.25]], l_gain=[[0.2]])
    beta = tune_windowed(1, 10_000, 0.05)
    g_win = gamma_bound(loop, WindowedChiSqDetector(beta, 10_000), [1.0]).gamma
    g_cs = gamma_bound(loop, CusumDetector(1.0, 1.0), [1.0]).gamma
    assert abs(g_win - g_cs) <= 0.03 * g_cs


def test_criterion_09_numerics_oracles():
    for a in (0.5, 1.0, 1.5, 5.0, 75.0):
        for q in np.arange(0.01, 1.0, 0.02):
            x = nx.inverse_regularized_lower_gamma(a, q)
            assert abs(nx.regularized_lower_gamma(a, x) - q) <= 1e-9

    loop = reactor_loop("dare")
    plant = loop.plant
    p_cov = loop.p_pred
    gain = plant.f @ p_cov @ plant.c.T @ np.linalg.inv(
        plant.c @ p_cov @ plant.c.T + plant.r2
    )
    residual = (
        plant.f @ p_cov @ plant.f.T
        - gain @ plant.c @ p_cov @ plant.f.T
        + plant.r1
        - p_cov
    )
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(p_cov)

    m = compute_M(reactor_loop("fixed"))
    nu1, lam = worst_direction(m)
    rng = np.random.default_rng(9)
    v = rng.standard_normal((3, 10_000))
    v /= np.linalg.norm(v, axis=0)
    rayleigh = ((m @ v) ** 2).sum(axis=0)
    assert rayleigh.max() <= lam * (1.0 + 1e-12)
    assert float(nu1 @ (m.T @ m) @ nu1) == pytest.approx(lam, rel=1e-12)


def test_criterion_10_property_suite():
    rng = np.random.default_rng(10)
    z = rng.chisquare(3, size=(1, 100_000))
    alpha = tune_chi2(3, 0.05)
    _, a_chi = scan_chi2(z, alpha)
    _, a_win = scan_windowed(z, 1, alpha)
    assert np.array_equal(a_chi, a_win)
    chi2_det = ChiSqDetector(alpha)
    win_det = WindowedChiSqDetector(alpha, 1)
    cusum_det = CusumDetector(2.0, 3.0)
    for value in z[0, :10_000]:
        assert (chi2_det.update(float(value)) is None) == (
            win_det.update(float(value)) is None
        )
        cusum_det.update(float(value))
        assert cusum_det.s >= 0.0

    loop = reactor_loop("fixed")
    a = mdl.simulate_distance_stream(loop, steps=500, runs=4, seed=0)
    mdl._forget_noise()  # simulate and draw again rather than return a
    b = mdl.simulate_distance_stream(loop, steps=500, runs=4, seed=0)
    assert np.array_equal(a, b)
