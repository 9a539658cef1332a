"""Detector state machines, analytic tuning, Monte-Carlo tuning, ARL."""

import math
import warnings

import numpy as np
import pytest
from scipy import special

from resdet import detectors as det
from resdet import numerics
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    measure_alarm_rate,
    scan_chi2,
    scan_cusum,
    scan_windowed,
    tune_chi2,
    tune_cusum_tau,
    tune_windowed,
)


# ------------------------------------------------------------- update machines

def test_chi2_strict_threshold_tie_is_quiet():
    d = ChiSqDetector(alpha=5.0)
    assert d.update(5.0) is None
    event = d.update(5.0 + 1e-9)
    assert event is not None
    assert event.k_star == 2
    assert event.statistic > d.alpha


def test_windowed_warm_up_suppresses_alarms():
    d = WindowedChiSqDetector(beta=10.0, ell=4)
    for _ in range(3):
        assert d.update(1e6) is None  # window not yet full
    assert d.update(1e6) is not None  # k = ell


def test_windowed_saturation_boundary_never_alarms():
    beta, ell = 21.0, 4
    d = WindowedChiSqDetector(beta, ell)
    for _ in range(100):
        assert d.update(beta / ell) is None  # dyadic: w == beta exactly
    assert d.w == pytest.approx(beta, abs=0.0)


def test_windowed_rejects_bad_window():
    with pytest.raises(ValueError, match="window must be >= 1"):
        WindowedChiSqDetector(1.0, 0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("make, message", [
    (lambda v: ChiSqDetector(v), "alpha must be positive and finite"),
    (lambda v: WindowedChiSqDetector(v, 4), "beta must be positive and finite"),
    (lambda v: CusumDetector(v, 3.0), "tau must be nonnegative and finite"),
    (lambda v: CusumDetector(0.86, v), "bias b must be positive and finite"),
], ids=["alpha", "beta", "tau", "b"])
def test_thresholds_must_be_finite(make, message, value):
    # an infinite threshold never alarms, so an attack riding it is infinite
    with pytest.raises(ValueError, match=f"{message}, got {value}"):
        make(value)


def test_windowed_running_sum_integrity_long_fuzz():
    rng = np.random.default_rng(31)
    d = WindowedChiSqDetector(beta=1e9, ell=1000)
    for z in rng.chisquare(3, size=1_000_000):
        d.update(z)
    assert abs(d.w - math.fsum(d.window)) <= 1e-6


def test_cusum_bias_equal_stream_stays_flat():
    d = CusumDetector(tau=2.0, b=3.0)
    for _ in range(50):
        assert d.update(3.0) is None
    assert d.s == 0.0


def test_cusum_tie_at_threshold_is_quiet_then_burst_alarms():
    # hitting tau exactly never alarms (strict inequality)
    d = CusumDetector(tau=2.0, b=3.0)
    assert d.update(d.tau + d.b) is None
    assert d.s == pytest.approx(2.0, abs=0.0)
    assert d.update(3.0) is None  # S stays at tau, still no alarm
    # a strict exceedance alarms on the next update with k* = k - 1
    d = CusumDetector(tau=2.0, b=3.0)
    assert d.update(d.tau + d.b + 1e-6) is None  # S = tau + 1e-6 > tau
    event = d.update(3.0)
    assert event is not None
    assert event.k_star == 1
    assert d.s == 0.0  # reset, sample consumed


def test_cusum_bounded_and_never_negative():
    rng = np.random.default_rng(32)
    d = CusumDetector(tau=4.0, b=1.0)
    s_prev = 0.0
    for z in rng.chisquare(1, size=20_000):
        d.update(float(z))
        assert d.s >= 0.0
        assert d.s <= max(d.tau, s_prev + z - d.b) + 1e-12
        s_prev = d.s


# ------------------------------------------------------------ analytic tuning

def test_tune_chi2_reference_points():
    assert tune_chi2(3, 0.05) == pytest.approx(7.81, abs=0.01)
    assert tune_chi2(3, 0.05) == pytest.approx(special.chdtri(3, 0.05), abs=1e-9)
    assert tune_chi2(2, 0.5) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert tune_chi2(1, 0.05) == pytest.approx(special.ndtri(0.975) ** 2, abs=1e-10)
    assert tune_chi2(1, 0.05) == pytest.approx(3.8415, abs=1e-4)


def test_tune_windowed_reference_points():
    assert tune_windowed(3, 4, 0.05) == pytest.approx(21.03, abs=0.01)
    assert tune_windowed(3, 50, 0.05) == pytest.approx(179.58, abs=0.01)
    assert tune_windowed(3, 4, 0.05) == pytest.approx(
        2.0 * special.gammaincinv(6.0, 0.95), abs=1e-9
    )
    assert tune_windowed(3, 50, 0.05) == pytest.approx(
        2.0 * special.gammaincinv(75.0, 0.95), abs=1e-9
    )
    assert tune_windowed(3, 1, 0.05) == tune_chi2(3, 0.05)


def test_tune_chi2_is_the_windowed_threshold_at_ell_one():
    for p in (1, 2, 3, 4, 7, 50):
        for a_star in (1e-6, 0.01, 0.05, 0.3, 0.8, 0.999):
            alpha = tune_chi2(p, a_star)
            assert alpha == tune_windowed(p, 1, a_star)
            # the quantile of chi-squared(p), bit for bit
            assert alpha == 2.0 * numerics.inverse_regularized_lower_gamma(p / 2.0, 1.0 - a_star)


def test_tune_monotonicity():
    rates = [0.01, 0.05, 0.1, 0.3]
    betas = [tune_windowed(3, 4, a) for a in rates]
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))  # decreasing in A
    ells = [1, 2, 4, 8]
    betas = [tune_windowed(3, ell, 0.05) for ell in ells]
    assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))  # increasing in ell
    ps = [1, 2, 3]
    betas = [tune_windowed(p, 4, 0.05) for p in ps]
    assert all(b1 < b2 for b1, b2 in zip(betas, betas[1:]))  # increasing in p


def test_tune_domain_errors():
    with pytest.raises(ValueError):
        tune_chi2(0, 0.05)
    with pytest.raises(ValueError):
        tune_chi2(3, 0.0)
    with pytest.raises(ValueError):
        tune_chi2(3, 1.0)
    with pytest.raises(ValueError, match="window must be >= 1"):
        tune_windowed(3, 0, 0.05)


# --------------------------------------------------------- Monte-Carlo tuning

def test_tune_cusum_rejects_small_budget(reactor_dare):
    with pytest.raises(ValueError):
        tune_cusum_tau(reactor_dare, b=3.0, a_star=0.05, mc=10_000)


@pytest.mark.parametrize("b", [math.inf, math.nan])
def test_tune_cusum_rejects_a_nonfinite_bias_before_simulating(reactor_dare, monkeypatch, b):
    def no_stream(*args, **kwargs):
        raise AssertionError("the calibration stream was simulated")

    monkeypatch.setattr(det.model_mod, "simulate_distance_stream", no_stream)
    with pytest.raises(ValueError, match=f"bias b must be positive and finite, got {b}"):
        tune_cusum_tau(reactor_dare, b=b, a_star=0.05, mc=100_000)


def test_tune_cusum_warns_small_bias(reactor_dare):
    with pytest.warns(UserWarning, match="bias too small"):
        tune_cusum_tau(reactor_dare, b=1.0, a_star=0.05, mc=100_000, seed=2)


def test_tune_cusum_unattainable_rate(reactor_dare):
    with pytest.warns(UserWarning, match="rate unattainable"):
        tau = tune_cusum_tau(reactor_dare, b=13.0, a_star=0.05, mc=100_000, seed=2)
    assert tau == 0.0


def test_tune_cusum_deterministic_and_calibrated(reactor_dare):
    tau1, info = tune_cusum_tau(
        reactor_dare, b=3.0, a_star=0.05, mc=200_000, seed=3, full_output=True
    )
    tau2 = tune_cusum_tau(reactor_dare, b=3.0, a_star=0.05, mc=200_000, seed=3)
    assert tau1 == tau2
    assert abs(info["rate"] - 0.05) <= 0.05 * 0.05


def test_tuning_consistency_all_kinds(reactor_dare):
    p = 3
    for a_star in (0.01, 0.05, 0.1):
        for kind in ("chi2", "windowed", "cusum"):
            allowance = 0.0
            if kind == "chi2":
                d = ChiSqDetector(tune_chi2(p, a_star))
            elif kind == "windowed":
                d = WindowedChiSqDetector(tune_windowed(p, 4, a_star), 4)
            else:
                tau, info = tune_cusum_tau(
                    reactor_dare, b=3.0, a_star=a_star, mc=300_000, seed=4,
                    tol_rel=0.01, full_output=True,
                )
                d = CusumDetector(tau, 3.0)
                # the tuner stops inside a relative band and calibrates on its
                # own finite stream; both shifts are systematic for this test
                allowance = abs(info["rate"] - a_star) + 0.01 * a_star
            est = measure_alarm_rate(reactor_dare, d, steps=1000, runs=200, seed=11)
            slack = 3.0 * est.stderr * (math.sqrt(2.0) if kind == "cusum" else 1.0)
            assert abs(est.rate - a_star) <= slack + allowance, (kind, a_star, est)


# ----------------------------------------------------------------------- scans

def test_scans_match_sequential_classes():
    rng = np.random.default_rng(33)
    z = rng.chisquare(3, size=(6, 3000))
    detectors = [
        ChiSqDetector(tune_chi2(3, 0.05)),
        WindowedChiSqDetector(tune_windowed(3, 7, 0.05), 7),
        CusumDetector(1.5, 3.0),
    ]
    for proto in detectors:
        stat_scan, alarm_scan, _ = proto.scan(z)
        for i in range(z.shape[0]):
            d = proto.fresh()
            for t in range(z.shape[1]):
                event = d.update(float(z[i, t]))
                got_alarm = event is not None
                assert got_alarm == bool(alarm_scan[i, t]), (type(proto).__name__, i, t)
                if isinstance(d, CusumDetector):
                    live = d.s
                elif isinstance(d, WindowedChiSqDetector):
                    live = d.w
                else:
                    live = float(z[i, t])
                assert abs(live - stat_scan[i, t]) <= 1e-9 * (1.0 + abs(live))


def scan_in_pieces(detector, z, widths):
    """Scan z chunk by chunk, passing the carry along; widths may be zero."""
    stats, alarms, carry, start = [], [], None, 0
    for width in widths:
        stat, alarm, carry = detector.scan(z[:, start:start + width], carry)
        stats.append(stat)
        alarms.append(alarm)
        start += width
    assert start == z.shape[1]
    return np.concatenate(stats, axis=1), np.concatenate(alarms, axis=1), carry


def test_chunked_scans_equal_whole_scans():
    rng = np.random.default_rng(35)
    z = rng.chisquare(3, size=(5, 400))
    # boundaries at 0, 1, 3 and 6 fall inside the ell = 7 warm-up
    widths = [0, 1, 2, 3, 1, 0, 50, 7, 136, 200]
    for proto in (
        ChiSqDetector(tune_chi2(3, 0.05)),
        WindowedChiSqDetector(tune_windowed(3, 7, 0.05), 7),
        WindowedChiSqDetector(tune_windowed(3, 1, 0.05), 1),
        CusumDetector(1.5, 3.0),
    ):
        whole_stat, whole_alarm, _ = proto.scan(z)
        stat, alarm, carry = scan_in_pieces(proto, z, widths)
        assert np.array_equal(alarm, whole_alarm), proto.kind
        if proto.kind == "windowed":
            # each chunk restarts the running sum, so the last bits may differ
            np.testing.assert_allclose(stat, whole_stat, rtol=1e-12)
            assert np.array_equal(carry, z[:, z.shape[1] - proto.ell + 1:])
        else:
            assert np.array_equal(stat, whole_stat), proto.kind
        if proto.kind == "cusum":
            assert np.array_equal(carry, whole_stat[:, -1])


def test_chunked_cusum_alarm_fires_on_the_next_chunk():
    # S exceeds tau on the last column of the first chunk; the lagged alarm
    # update is the first column of the second chunk, and it resets S
    z = np.array([[2.0, 7.0, 3.0, 3.0]])
    proto = CusumDetector(3.5, 3.0)
    stat, alarm, carry = scan_in_pieces(proto, z, [2, 2])
    whole_stat, whole_alarm, _ = proto.scan(z)
    assert np.array_equal(stat, whole_stat) and np.array_equal(alarm, whole_alarm)
    assert alarm.tolist() == [[False, False, True, False]]
    assert proto.exceedance(stat, alarm).tolist() == [[False, True, False, False]]
    assert stat[0, 2] == 0.0 and carry.tolist() == [0.0]


def test_one_run_cusum_scan_equals_the_vector_scan():
    # a one-run scan is held bit for bit to its row of a two-run scan
    rng = np.random.default_rng(36)
    for tau in (0.0, 0.86, 7.5):
        z = rng.chisquare(3, size=(1, 500))
        z[0, -1] = 50.0  # S exceeds tau on the last column
        for s in (None, np.array([0.0]), np.array([tau + 1.0])):
            stat, alarm = scan_cusum(z, 3.0, tau, s=s)
            pair_s = None if s is None else np.repeat(s, 2)
            pair_stat, pair_alarm = scan_cusum(np.repeat(z, 2, axis=0), 3.0, tau, s=pair_s)
            assert stat.shape == alarm.shape == (1, 500)
            assert np.array_equal(stat, pair_stat[:1]) and np.array_equal(alarm, pair_alarm[:1])
            assert stat[0, -1] > tau and alarm[0, 0] == (s is not None and s[0] > tau)
        # resuming from the carry of a first piece gives the whole scan
        proto = CusumDetector(tau, 3.0)
        whole_stat, whole_alarm, _ = proto.scan(z)
        stat, alarm, carry = scan_in_pieces(proto, z, [137, 363])
        assert np.array_equal(stat, whole_stat) and np.array_equal(alarm, whole_alarm)
        assert carry.shape == (1,) and carry[0] == whole_stat[0, -1]
    stat, alarm = scan_cusum(np.zeros((1, 0)), 3.0, 1.0)
    assert stat.shape == alarm.shape == (1, 0) and alarm.dtype == bool


def test_windowed_scan_ell_one_equals_chi2_scan():
    rng = np.random.default_rng(34)
    z = rng.chisquare(3, size=(1, 100_000))
    alpha = tune_chi2(3, 0.05)
    _, a1 = scan_chi2(z, alpha)
    _, a2 = scan_windowed(z, 1, alpha)
    assert np.array_equal(a1, a2)


def test_cusum_scan_eq10_timing():
    # exceedance at step 1 (S=tau+eps) -> alarm flag raised at step 2
    z = np.array([[7.0, 3.0, 3.0]])
    stats_, alarms = scan_cusum(z, b=3.0, tau=3.5)
    assert stats_[0, 0] == pytest.approx(4.0)
    assert not alarms[0, 0]
    assert alarms[0, 1]
    assert stats_[0, 1] == 0.0  # reset consumed the sample


# ------------------------------------------------------------------------ ARL

def test_arl_matches_inverse_rate(reactor_dare):
    d = ChiSqDetector(tune_chi2(3, 0.05))
    res = estimate_arl(reactor_dare, d, runs=2000, seed=6, cap=100_000, chunk=512)
    assert res.censored == 0
    assert abs(res.arl - 20.0) <= 0.05 * 20.0
    assert res.alarm_rate == pytest.approx(1.0 / res.arl, rel=1e-12)
    assert res.half_width > 0.0


def test_arl_rejects_bad_geometry(reactor_dare):
    d = ChiSqDetector(tune_chi2(3, 0.05))
    for bad in ({"runs": 0}, {"cap": 0}, {"chunk": 0}, {"warm_up": -1}):
        with pytest.raises(ValueError, match="must be"):
            estimate_arl(reactor_dare, d, **bad)


def test_arl_censoring_warns(reactor_dare):
    d = ChiSqDetector(1e9)
    with pytest.warns(UserWarning, match="censored"):
        res = estimate_arl(reactor_dare, d, runs=4, seed=6, cap=300, chunk=128)
    assert res.arl >= res.cap
    assert res.censored == 4


def test_windowed_rate_and_arl_both_reported(reactor_dare):
    d = WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4)
    est = measure_alarm_rate(reactor_dare, d, steps=1000, runs=300, seed=12)
    assert abs(est.rate - 0.05) <= 0.005
    res = estimate_arl(reactor_dare, d, runs=400, seed=13, cap=10_000, chunk=256)
    # windowed alarms are serially dependent: ARL and 1/rate need not agree,
    # but both live on the same order of magnitude
    assert res.censored == 0
    assert 5.0 <= res.arl <= 100.0
