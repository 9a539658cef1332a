"""Synthesize zero-alarm sensor attacks against each detector family.

An attacker that reads the sensors and knows the loop matrices can replace
the residual with a chosen vector, then add exactly enough energy to park
the detector statistic at its threshold without ever crossing it.  Each
section below builds such an attack, replays the loop, and prints the alarm
counts by phase together with the statistic the detector actually saw.
"""

import numpy as np

from resdet import (
    ChiSqDetector,
    CusumDetector,
    Scenario,
    WindowedChiSqDetector,
    plan_attack,
    reactor_loop,
    run,
    tune_chi2,
    tune_cusum_tau,
    tune_windowed,
)
from resdet.reactor import BENCHMARK_BIAS

A_STAR = 0.05
K_STAR = 51  # first attacked step, right after the 50-step warm-up
STEPS = 1200


def replay(model, detector, plan, seed=0):
    scn = Scenario(model, detector, plan, steps=STEPS, burn_in=K_STAR - 1,
                   seed=seed)
    return run(scn)


def report(label, trace, steady_from):
    s = trace.phase_counts()
    steady = trace.stat[0, steady_from:]
    print(f"  {label}")
    print(f"    alarms pre/transient/steady: {s['alarms_pre_attack']}"
          f"/{s['alarms_transient']}/{s['alarms_steady']}")
    print(f"    steady statistic: min {steady.min():.6f}  max {steady.max():.6f}")


def main():
    model = reactor_loop()
    p = model.p

    print("static chi-squared detector")
    alpha = tune_chi2(p, A_STAR)
    det = ChiSqDetector(alpha)
    plan = plan_attack(model, det, k_star=K_STAR)
    trace = replay(model, det, plan)
    report(f"threshold {alpha:.4f}, worst-case direction", trace, K_STAR)
    print(f"    every attacked z equals alpha - margin: "
          f"{np.allclose(trace.z[0, K_STAR - 1:], alpha, atol=1e-9)}")
    print()

    print("windowed detector, l = 4, static energy split")
    beta = tune_windowed(p, 4, A_STAR)
    det = WindowedChiSqDetector(beta, 4)
    plan = plan_attack(model, det, k_star=K_STAR)
    trace = replay(model, det, plan)
    # the window needs l - 1 attacked steps before the sum is all-attack
    report(f"threshold {beta:.4f}, per-step budget beta/l", trace, K_STAR + 3)
    print()

    print("windowed detector, l = 50, greedy energy schedule")
    beta = tune_windowed(p, 50, A_STAR)
    det = WindowedChiSqDetector(beta, 50)
    plan = plan_attack(model, det, k_star=K_STAR, kind="windowed-greedy")
    trace = replay(model, det, plan)
    report(f"threshold {beta:.4f}, window sum topped up each step", trace, K_STAR)
    print()

    print("CUSUM detector, exact threshold ride")
    tau = tune_cusum_tau(model, b=BENCHMARK_BIAS, a_star=A_STAR, mc=200_000,
                         seed=0)
    det = CusumDetector(tau, BENCHMARK_BIAS)
    plan = plan_attack(model, det, k_star=K_STAR, kind="cusum-exact")
    trace = replay(model, det, plan)
    report(f"tau {tau:.4f}, S held at the threshold", trace, K_STAR + 1)
    print()

    print("all four attacks are invisible to their detector once the")
    print("window or recursion is saturated; the damage they cause is the")
    print("subject of demos/03_deviation_bounds.py")


if __name__ == "__main__":
    main()
