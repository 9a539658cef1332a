"""Simulation orchestration: Monte-Carlo ensembles, single runs, measurements.

A Scenario bundles a validated closed-loop model, a tuned detector, an
optional attack plan, and the run geometry (steps, burn-in before the
attack, seed, ensemble size).  `run_ensemble` is the one simulation loop:
it advances all Monte-Carlo runs in lockstep as (n, runs) matrix states,
which keeps 200x1000-step ensembles in the fraction-of-a-second range, and
replays the distance measures through the detector's scan.  `run` is the
one-run ensemble, reshaped into a per-step trace.

Measurement helpers compare the ensemble-mean state against the predicted
steady-state deviation, smooth per-run norms the way trace figures usually
do (trailing moving average), and tabulate the windowed-threshold
per-step budget beta(ell)/ell whose large-window limit ties the windowed
detector to the CUSUM one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import attacks as attacks_mod
from . import detectors as det_mod
from . import model as model_mod
from .attacks import AttackPlan
from .model import ClosedLoopModel

__all__ = [
    "Scenario",
    "SimulationTrace",
    "EnsembleResult",
    "run",
    "run_ensemble",
    "moving_average",
    "measure_steady_deviation",
    "steady_deviation_estimate",
    "stationarity_gap",
    "sweep_window_contours",
]


@dataclass(frozen=True)
class Scenario:
    """One experiment: model + detector + optional attack + run geometry.

    The attack (when present) starts right after the burn-in:
    k_star = burn_in + 1.  The simulation reads the detector only through
    its scan, never through its own state.  The alarms come from the
    detector and the attack schedule from the plan's snapshot of it, so a
    plan made against another detector (another kind or other
    thresholds) is rejected.
    """

    model: ClosedLoopModel
    detector: object
    plan: Optional[AttackPlan] = None
    steps: int = 1000
    burn_in: int = 50
    seed: int = 0
    mc_runs: int = 200
    tail_fraction: float = 0.5

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if not (0 <= self.burn_in) or (self.steps > 0 and self.burn_in >= self.steps):
            raise ValueError("burn_in must satisfy 0 <= burn_in < steps")
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be >= 1")
        if not (0.0 < self.tail_fraction <= 1.0):
            raise ValueError("tail_fraction must lie in (0, 1]")
        if self.attacked and self.plan.k_star != self.burn_in + 1:
            raise ValueError(
                f"plan starts at k={self.plan.k_star} but burn_in={self.burn_in} "
                f"implies k_star={self.burn_in + 1}"
            )
        if self.attacked:
            self.plan.check_fits(self.detector)

    @property
    def attacked(self) -> bool:
        return self.plan is not None and self.plan.kind != "none"

    @property
    def k_star(self) -> Optional[int]:
        return self.plan.k_star if self.attacked else None


def _steady_start(plan: AttackPlan) -> int:
    """First step of the attack's steady phase (transient fully flushed).

    chi2 saturates immediately; the windowed statistic needs ell - 1 more
    steps until the evaluation window holds only attacked samples; the
    CUSUM may emit one alarm at k*+1 (the corner case where the pre-attack
    statistic exceeded the bias), settled by k*+2.
    """
    if plan.kind == "chi2":
        return plan.k_star
    if plan.kind in ("windowed-static", "windowed-pulse"):
        return plan.k_star + plan.ell - 1
    if plan.kind == "cusum":
        return plan.k_star + 2
    raise ValueError(f"plan kind {plan.kind!r} has no attack phases")


@dataclass
class SimulationTrace:
    """Complete record of one run; row i describes step k = i + 1."""

    k: np.ndarray
    x: np.ndarray
    z: np.ndarray
    stat: np.ndarray
    alarm: np.ndarray
    attack_active: np.ndarray
    summary: dict = field(default_factory=dict)

    @property
    def norm_x(self) -> np.ndarray:
        return np.linalg.norm(self.x, axis=1)


def _phase_counts(alarm_steps: np.ndarray, plan: Optional[AttackPlan]) -> dict:
    """Alarm counts split into pre-attack / transient / steady phases."""
    total = int(alarm_steps.size)
    if plan is None or plan.kind == "none":
        return {"alarms": total, "alarms_pre_attack": total, "alarms_transient": 0, "alarms_steady": 0}
    steady = _steady_start(plan)
    pre = int((alarm_steps < plan.k_star).sum())
    transient = int(((alarm_steps >= plan.k_star) & (alarm_steps < steady)).sum())
    return {
        "alarms": total,
        "alarms_pre_attack": pre,
        "alarms_transient": transient,
        "alarms_steady": total - pre - transient,
    }


@dataclass
class EnsembleResult:
    """Vectorized Monte-Carlo ensemble output.

    mean_x[i] is the across-run mean state at step i + 1; z, stat, alarm
    are (runs, steps) arrays replayed through the detector semantics.
    """

    scenario: Scenario
    mean_x: np.ndarray
    z: np.ndarray
    stat: np.ndarray
    alarm: np.ndarray

    @property
    def runs(self) -> int:
        return self.z.shape[0]

    @property
    def steps(self) -> int:
        return self.z.shape[1]

    def phase_counts(self) -> dict:
        plan = self.scenario.plan if self.scenario.attacked else None
        ks = np.tile(np.arange(1, self.steps + 1), (self.runs, 1))
        return _phase_counts(ks[self.alarm], plan)


def run_ensemble(scenario: Scenario) -> EnsembleResult:
    """Simulate the Monte-Carlo ensemble in lockstep.

    Run i consumes the (seed, i) substream, so results are bitwise
    reproducible and independent of scheduling.  Detector statistics and
    alarms come from the detector's scan of the z matrix.  The dynamic
    attack schedules read the live detector state: the exact-first-step
    CUSUM the scan's carry S at k*, the greedy windowed schedule the
    window's tail, the last ell - 1 values of z.
    """
    model = scenario.model
    detector = scenario.detector
    plan = scenario.plan if scenario.attacked else None
    live = plan.live_state if plan is not None else None
    steps, runs = scenario.steps, scenario.mc_runs
    n, p = model.n, model.p

    v_all = np.empty((runs, steps, n))
    eta_all = np.empty((runs, steps, p))
    for i in range(runs):
        v_all[i], eta_all[i] = model.noise(scenario.seed, run=i).blocks(steps)

    x = np.zeros((n, runs))
    xhat = np.zeros((n, runs))
    sum_x = np.empty((steps, n))
    z_all = np.empty((runs, steps))

    for t in range(steps):
        k = t + 1
        eta = eta_all[:, t, :].T
        delta = None
        if plan is not None and k >= plan.k_star:
            state = {}
            if live == "s_prev" and k == plan.k_star:
                state[live] = detector.scan(z_all[:, :t])[2]
            elif live == "pending_window_sum":
                # the window's tail, summed left to right (sum() would go pairwise)
                tail = z_all[:, max(0, t - plan.ell + 1):t]
                state[live] = tail.cumsum(axis=1)[:, -1] if tail.size else np.zeros(runs)
            delta = attacks_mod.synthesize_attack(plan, model, k, x - xhat, eta, **state)
        sum_x[t] = x.sum(axis=1)
        x, xhat, _, z_all[:, t] = model_mod.advance(model, x, xhat, v_all[:, t, :].T, eta, delta)

    stat, alarm, _ = detector.scan(z_all)
    return EnsembleResult(scenario=scenario, mean_x=sum_x / runs, z=z_all, stat=stat, alarm=alarm)


def run(scenario: Scenario) -> SimulationTrace:
    """Simulate one run: the scenario's one-run ensemble as a per-step trace.

    Deterministic given the scenario seed; the run consumes the (seed, 0)
    noise substream.  Member 0 of a larger ensemble draws the same noise,
    but its last bits may differ, because the matrix products of a wider
    state block differently.
    """
    ens = run_ensemble(replace(scenario, mc_runs=1))
    k = np.arange(1, scenario.steps + 1)
    trace = SimulationTrace(
        k=k,
        x=ens.mean_x,
        z=ens.z[0],
        stat=ens.stat[0],
        alarm=ens.alarm[0],
        attack_active=k >= scenario.k_star if scenario.attacked else np.zeros(k.size, dtype=bool),
        summary=ens.phase_counts(),
    )
    if scenario.attacked and scenario.steps >= scenario.k_star:
        trace.summary["steady_estimate"] = steady_deviation_estimate(ens)
    return trace


def moving_average(series, w: int) -> np.ndarray:
    """Trailing moving average over min(k, w) samples; length-preserving."""
    if int(w) < 1:
        raise ValueError("window must be >= 1")
    s = np.asarray(series, dtype=float)
    if s.ndim != 1:
        raise ValueError("series must be 1-D")
    w = int(w)
    cs = np.cumsum(s)
    out = cs.copy()
    out[w:] = cs[w:] - cs[:-w]
    counts = np.minimum(np.arange(1, s.size + 1), w)
    return out / counts


def steady_deviation_estimate(result: EnsembleResult, tail_fraction: Optional[float] = None) -> float:
    """||mean over runs and tail steps of x_k||, the measured steady deviation."""
    scenario = result.scenario
    if not scenario.attacked:
        raise ValueError("no prediction available: scenario has no attack")
    frac = scenario.tail_fraction if tail_fraction is None else tail_fraction
    if not (0.0 < frac <= 1.0):
        raise ValueError("tail_fraction must lie in (0, 1]")
    k_star = scenario.plan.k_star
    span = result.steps - k_star + 1
    if span < 1:
        raise ValueError("trace ends before the attack starts")
    tail = max(1, int(round(frac * span)))
    return float(np.linalg.norm(result.mean_x[result.steps - tail:].mean(axis=0)))


def measure_steady_deviation(result: EnsembleResult, tail_fraction: Optional[float] = None):
    """Measured vs. predicted steady-state deviation.

    Returns:
        (measured, predicted, relative_error).  The measured value is the
        norm of the ensemble-and-tail mean state (expectation inside the
        norm); predicted is the matching closed-form bound for the plan.

    Raises:
        ValueError: "no prediction available" for attack-free scenarios,
            and for the pulsed windowed schedule which has no
            constant-forcing bound.
    """
    measured = steady_deviation_estimate(result, tail_fraction)
    predicted = attacks_mod.predicted_deviation(result.scenario.model, result.scenario.plan).gamma
    if predicted > 0.0:
        rel = abs(measured - predicted) / predicted
    else:
        rel = abs(measured)  # absolute fallback: no scale to normalize by
    return measured, predicted, rel


def stationarity_gap(result: EnsembleResult) -> float:
    """Relative gap between the last-10% and last-50% deviation estimates.

    Small values certify the attacked ensemble mean has settled within the
    measured tail.
    """
    dev_10 = steady_deviation_estimate(result, tail_fraction=0.1)
    dev_50 = steady_deviation_estimate(result, tail_fraction=0.5)
    return abs(dev_10 - dev_50) / max(abs(dev_50), 1e-300)


def sweep_window_contours(p: int, a_star_list, ell_max: int):
    """Threshold-budget table: rows (far, ell, beta, beta/ell).

    ell covers 1..min(100, ell_max) densely, then log-spaced integers up to
    ell_max.  beta(ell)/ell is the per-step statistic budget of the
    windowed detector; as ell grows it converges to p, the CUSUM's
    tightest admissible bias.
    """
    if int(ell_max) < 1:
        raise ValueError("window must be >= 1")
    rates = list(a_star_list)
    for a_star in rates:
        if not (0.0 < float(a_star) < 1.0):
            raise ValueError(f"false-alarm rate must lie in (0, 1), got {a_star}")
    ells = list(range(1, min(100, int(ell_max)) + 1))
    if ell_max > 100:
        extra = np.unique(
            np.round(np.logspace(math.log10(101), math.log10(ell_max), 60)).astype(int)
        )
        ells.extend(int(e) for e in extra if e > 100)
    rows = []
    for a_star in rates:
        for ell in ells:
            beta = det_mod.tune_windowed(p, ell, float(a_star))
            rows.append((float(a_star), int(ell), beta, beta / ell))
    return rows
