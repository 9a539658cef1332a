"""Correctness checks for the benchmark workloads.

Every check compares a program output with a value computed apart from the
program (scipy and numpy on the raw matrices) or with a property the
method must have.  None compares with a stored copy of an earlier output.
Where Monte-Carlo noise enters, the tolerance is MC_SIGMAS standard
errors, so a correct program passes on any seed.

Each `check_*` function returns a list of messages, empty when every check
passes.
"""

from __future__ import annotations

import math

import jsonschema
import numpy as np
import scipy.linalg
import scipy.stats

FAR = 0.05
# tune_cusum_tau's default band: the rate on its own stream lies within
# FAR * (1 +- TUNE_TOL_REL).
TUNE_TOL_REL = 0.05
PRED_TOL = 0.05
# Standard errors allowed where Monte-Carlo enters.  Two sets of ten runs
# make about 160 such checks; at three standard errors a correct program
# would fail one of them with a chance of up to 30%, at four about 1%.
MC_SIGMAS = 4
# Accuracy the package's own tests state for psd_sqrt: ||X X - S||_F <= 1e-9 ||S||_F.
SQRT_RTOL = 1e-9
# The Jacobi eigensolver's convergence test (the known fault of README.md)
# can stop early and leave a root up to about 1e-8 off; a root further off
# than this is a wrong result, not that fault.
SQRT_FAULT_RTOL = 1e-7
DETECTOR_ORDER = ("chi2", "windowed_ell4", "windowed_ell50", "cusum")
REACTOR_P = 3
REACTOR_BIAS = 3.0
# Standard error of the greedy windowed ensemble's measured deviation at
# 200 runs, relative to gamma: 0.0029 / 0.878 over seeds 20-31.
GREEDY_REL_STDERR = 0.0035


def _close(actual, expected, rtol):
    return abs(actual - expected) <= rtol * abs(expected)


def chi2_threshold(dof: int) -> float:
    return float(scipy.stats.chi2.ppf(1.0 - FAR, dof))


def deviation_map(f, g, k_fb, l_gain, sigma) -> np.ndarray:
    """M = (I - F - GK)^-1 G K (I - F)^-1 L Sigma^1/2, computed without resdet."""
    w, v = np.linalg.eigh(sigma)
    sigma_sqrt = (v * np.sqrt(w)) @ v.T
    eye = np.eye(f.shape[0])
    inner = np.linalg.solve(eye - f, l_gain @ sigma_sqrt)
    return np.linalg.solve(eye - f - g @ k_fb, g @ k_fb @ inner)


# -- reactor-study -----------------------------------------------------------


def reactor_reference(doc: dict) -> dict:
    """Thresholds and deviation bounds of the reactor study from its scenario file."""
    plant = doc["plant"]
    f, g, c = (np.asarray(plant[key], dtype=float) for key in ("F", "G", "C"))
    r1 = np.asarray(plant["R1"], dtype=float)
    r1 = 0.5 * (r1 + r1.T)
    r2 = np.asarray(plant["R2"], dtype=float)
    k_fb = np.asarray(doc["controller"]["K"], dtype=float)
    l_gain = np.asarray(doc["estimator"]["L"], dtype=float)
    f_est = f - l_gain @ c
    p_pred = scipy.linalg.solve_discrete_lyapunov(f_est, r1 + l_gain @ r2 @ l_gain.T)
    sigma = c @ p_pred @ c.T + r2
    m_mat = deviation_map(f, g, k_fb, l_gain, sigma)
    top = float(np.linalg.svd(m_mat, compute_uv=False)[0])
    p = c.shape[0]
    thresholds = {
        "alpha": chi2_threshold(p),
        "beta_ell4": chi2_threshold(p * 4),
        "beta_ell50": chi2_threshold(p * 50),
    }
    gamma = {
        "chi2": top * math.sqrt(thresholds["alpha"]),
        "windowed_ell4": top * math.sqrt(thresholds["beta_ell4"] / 4),
        "windowed_ell50": top * math.sqrt(thresholds["beta_ell50"] / 50),
        "cusum": top * math.sqrt(REACTOR_BIAS),
        "ones": float(np.linalg.norm(m_mat @ np.ones(p))),
    }
    return {"thresholds": thresholds, "gamma": gamma}


def check_reactor_report(report: dict, schema: dict, reference: dict) -> list:
    errors = []
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        return [f"report.json does not match its schema: {exc.message}"]
    for key, expected in reference["thresholds"].items():
        if not _close(report["thresholds"][key], expected, 1e-9):
            errors.append(f"threshold {key} = {report['thresholds'][key]!r}, chi2 quantile {expected!r}")
    for key, expected in reference["gamma"].items():
        if not _close(report["gamma"][key], expected, 1e-9):
            errors.append(f"gamma {key} = {report['gamma'][key]!r}, recomputed {expected!r}")
    for key, rel in report["relative_error"].items():
        if rel > PRED_TOL:
            errors.append(f"{key}: relative error {rel:.4f} > {PRED_TOL}")
    for key, counts in report["alarms"].items():
        if counts["alarms_steady"] != 0:
            errors.append(f"{key}: {counts['alarms_steady']} alarms in the steady phase")
    if len(report["alarms"]) != 8:
        errors.append(f"{len(report['alarms'])} configurations reported, expected 8")
    gammas = [report["gamma"][name] for name in DETECTOR_ORDER]
    measured = [report["measured"][f"{name}_worst"] for name in DETECTOR_ORDER]
    if not all(a > b for a, b in zip(gammas, gammas[1:])):
        errors.append(f"gamma not ordered chi2 > ell4 > ell50 > cusum: {gammas}")
    if not all(a > b for a, b in zip(measured, measured[1:])):
        errors.append(f"measured deviation not ordered chi2 > ell4 > ell50 > cusum: {measured}")
    if list(report["ordering_by_gamma"]) != list(DETECTOR_ORDER):
        errors.append(f"ordering_by_gamma is {report['ordering_by_gamma']}")
    return errors


def check_greedy(summary: dict, schema: dict, rows: list, reference: dict) -> list:
    """The greedy windowed ell = 50 attack: quiet while attacking, damage within the static bound.

    rows: (k, z, alarm, attack_active) per trace row.  The greedy schedule
    tops the window sum up to beta, so an attacked row may alarm only while
    pre-attack samples are still in the window and already exceed beta on
    their own: then the attack injects nothing (z = 0) and no attack could
    undo the excess.
    """
    errors = []
    try:
        jsonschema.validate(summary, schema)
    except jsonschema.ValidationError as exc:
        return [f"summary does not match its schema: {exc.message}"]
    gamma, beta = reference["gamma"]["windowed_ell50"], reference["thresholds"]["beta_ell50"]
    attacked = [(k, z, alarm) for k, z, alarm, active in rows if active]
    if not attacked:
        return ["greedy trace has no attacked rows"]
    k_star = attacked[0][0]
    # From the 50th attacked step on, no pre-attack sample is left in the window.
    loud = [k for k, z, alarm in attacked if alarm and (k >= k_star + 49 or z > 1e-9 * beta)]
    if loud:
        errors.append(f"greedy trace alarms on attacked rows {loud} where the attack could stay quiet")
    if not _close(summary["predicted_gamma"], gamma, 1e-9):
        errors.append(f"greedy predicted gamma {summary['predicted_gamma']!r}, recomputed {gamma!r}")
    if summary["measured_deviation"] > gamma * (1.0 + MC_SIGMAS * GREEDY_REL_STDERR):
        errors.append(
            f"greedy measured deviation {summary['measured_deviation']:.6g} "
            f"exceeds the static bound {gamma:.6g}"
        )
    return errors


# -- calibrate ---------------------------------------------------------------


def check_calibration(out: dict) -> list:
    """out: thresholds, tuned taus, alarm rates and ARLs of the calibrate job.

    rates[loop][detector] and arl[detector] are dicts with the estimate and
    its standard error (`rate`, `stderr`; `arl`, `stderr`, `censored`).
    """
    errors = []
    for key, dof in (("alpha", REACTOR_P), ("beta_ell4", 4 * REACTOR_P), ("beta_ell50", 50 * REACTOR_P)):
        expected = chi2_threshold(dof)
        if not _close(out[key], expected, 1e-9):
            errors.append(f"{key} = {out[key]!r}, chi2 quantile {expected!r}")
    for name in ("chi2", "windowed_ell4", "windowed_ell50"):
        est = out["rates"]["dare"][name]
        tol = max(0.005, MC_SIGMAS * est["stderr"])
        if abs(est["rate"] - FAR) > tol:
            errors.append(f"dare {name}: alarm rate {est['rate']:.5f} not within {tol:.4f} of {FAR}")
    # The band holds on the tuning stream; its noise and the fresh stream's
    # (the same size, so the same standard error) both enter.
    for loop, est in ((loop, rates["cusum"]) for loop, rates in out["rates"].items()):
        tol = TUNE_TOL_REL * FAR + MC_SIGMAS * math.sqrt(2.0) * est["stderr"]
        if abs(est["rate"] - FAR) > tol:
            errors.append(
                f"{loop} cusum at tau={out['tau'][loop]:.6g}: fresh-seed rate "
                f"{est['rate']:.5f} not within {tol:.4f} of {FAR}"
            )
    dare = out["rates"]["dare"]
    for name, offset in (("chi2", 0.0), ("cusum", 1.0)):
        arl, rate = out["arl"][name], dare[name]
        expected = 1.0 / rate["rate"] - offset
        stderr = math.hypot(arl["stderr"], rate["stderr"] / rate["rate"] ** 2)
        if arl["censored"]:
            errors.append(f"{name} ARL: {arl['censored']} censored runs")
        if abs(arl["arl"] - expected) > MC_SIGMAS * stderr:
            errors.append(f"{name} ARL {arl['arl']:.4f} disagrees with {expected:.4f} "
                          f"(+-{MC_SIGMAS * stderr:.3f})")
    return errors


# -- scale -------------------------------------------------------------------


def reference_covariance(case: dict) -> np.ndarray:
    """Steady prediction-error covariance of a generated loop, by scipy."""
    r1 = 0.5 * (case["r1"] + case["r1"].T)
    if case["l_gain"] is None:
        return scipy.linalg.solve_discrete_are(case["f"].T, case["c"].T, r1, case["r2"])
    l_gain = case["l_gain"]
    return scipy.linalg.solve_discrete_lyapunov(
        case["f"] - l_gain @ case["c"], r1 + l_gain @ case["r2"] @ l_gain.T
    )


def reference_map(case: dict, p_ref: np.ndarray) -> np.ndarray:
    c, r2 = case["c"], case["r2"]
    sigma = c @ p_ref @ c.T + r2
    l_gain = case["l_gain"]
    if l_gain is None:
        l_gain = np.linalg.solve(sigma, c @ p_ref @ case["f"].T).T
    return deviation_map(case["f"], case["g"], case["k_fb"], l_gain, sigma)


def sqrt_residual(sigma, sigma_sqrt) -> float:
    """||X X - S||_F / ||S||_F for a claimed square root X of S."""
    return float(np.linalg.norm(sigma_sqrt @ sigma_sqrt - sigma) / np.linalg.norm(sigma))


def check_scale_loop(case: dict, p_pred, sigma_sqrt, direction) -> tuple[list, list]:
    """Covariance, its root and the worst direction of one generated loop against scipy and numpy.

    Returns (failures, errors): a root off scipy's Sigma by more than
    SQRT_RTOL but at most SQRT_FAULT_RTOL is the known Jacobi fault and
    fails the loop's operation; every other mismatch is an error.
    """
    failures, errors = [], []
    name = case["name"]
    p_ref = reference_covariance(case)
    if np.abs(p_pred - p_ref).max() > 1e-8 * np.abs(p_ref).max():
        errors.append(f"{name}: p_pred differs from scipy by {np.abs(p_pred - p_ref).max():.3g}")
    residual = sqrt_residual(case["c"] @ p_ref @ case["c"].T + case["r2"], sigma_sqrt)
    message = f"{name}: sigma_sqrt @ sigma_sqrt off sigma by {residual:.2g}"
    if residual > SQRT_FAULT_RTOL:
        errors.append(message)
    elif residual > SQRT_RTOL:
        failures.append(message)
    m_mat = reference_map(case, p_ref)
    top = float(np.linalg.eigvalsh(m_mat.T @ m_mat)[-1])
    reached = float(np.linalg.norm(m_mat @ direction) ** 2)
    if not _close(reached, top, 1e-8):
        errors.append(f"{name}: ||M nu||^2 = {reached!r}, largest eigenvalue of M'M {top!r}")
    return failures, errors


def check_scale_ensemble(case: dict, measured: float, alarms_steady: int) -> list:
    """All-ones attack at the chi-squared budget: measured deviation vs gamma."""
    p = case["c"].shape[0]
    m_mat = reference_map(case, reference_covariance(case))
    gamma = float(np.linalg.norm(m_mat @ (math.sqrt(chi2_threshold(p)) * np.ones(p) / math.sqrt(p))))
    errors = []
    if abs(measured - gamma) > PRED_TOL * gamma:
        errors.append(f"{case['name']} ensemble: measured {measured:.6g}, gamma {gamma:.6g}")
    if alarms_steady:
        errors.append(f"{case['name']} ensemble: {alarms_steady} alarms in the steady phase")
    return errors
