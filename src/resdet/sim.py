"""Simulation orchestration: Monte-Carlo ensembles, single runs, measurements.

A Scenario bundles a validated closed-loop model, a tuned detector, an
optional attack plan, and the run geometry (steps, burn-in before the
attack, seed, ensemble size).  `run_ensemble` hands the scenario and its
noise draw (drawn there, or drawn once beforehand and shared) to the
model's one fixed-length simulation loop (model._simulate), which advances
all Monte-Carlo runs in lockstep as (n, runs) matrix states, and replays
the distance measures through the detector's scan
(EnsembleResult.scanned, which also re-scans a trajectory for another
detector).  The attack comes from
the plan alone: each attacked step hands it the z history, and the plan's
schedule (attacks.attack_energy) reads what it needs from that.  `run`
is the one-run ensemble; a one-run result is the trace of a single
realization (row 0 of z, stat and alarm; mean_x is its state).

Measurement helpers compare the ensemble-mean state against the predicted
steady-state deviation, and tabulate the windowed-threshold per-step
budget beta(ell)/ell whose large-window limit ties the windowed detector
to the CUSUM one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import attacks as attacks_mod
from . import detectors as det_mod
from . import model as model_mod
from .attacks import AttackPlan
from .model import ClosedLoopModel

__all__ = [
    "Scenario",
    "EnsembleResult",
    "run",
    "run_ensemble",
    "measure_steady_deviation",
    "steady_deviation_estimate",
    "sweep_window_contours",
]


@dataclass(frozen=True)
class Scenario:
    """One experiment: model + detector + optional attack + run geometry.

    The attack (when present) starts right after the burn-in:
    k_star = burn_in + 1.  The simulation reads the detector only through
    its scan, never through its own state.  The alarms come from the
    detector and the attack schedule from the plan's own detector, so a
    plan made against another detector (another kind or other
    thresholds) is rejected, and so is a plan whose steady deviation is
    not finite (attacks.check_plan, "invalid attack: ...").
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
            attacks_mod.check_plan(self.model, self.plan)

    @property
    def attacked(self) -> bool:
        return self.plan is not None

    @property
    def k_star(self) -> Optional[int]:
        return self.plan.k_star if self.attacked else None


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
        """Alarm counts over all runs, split into pre-attack / transient / steady phases."""
        alarm_steps = np.nonzero(self.alarm)[1] + 1
        total = int(alarm_steps.size)
        plan = self.scenario.plan
        if plan is None:
            return {"alarms": total, "alarms_pre_attack": total, "alarms_transient": 0, "alarms_steady": 0}
        pre = int((alarm_steps < plan.k_star).sum())
        transient = int(((alarm_steps >= plan.k_star) & (alarm_steps < plan.steady_start)).sum())
        return {
            "alarms": total,
            "alarms_pre_attack": pre,
            "alarms_transient": transient,
            "alarms_steady": total - pre - transient,
        }

    @classmethod
    def scanned(cls, scenario: Scenario, mean_x: np.ndarray, z: np.ndarray) -> "EnsembleResult":
        """The scenario's result on a simulated trajectory: z replayed through its detector's scan."""
        stat, alarm, _ = scenario.detector.scan(z)
        return cls(scenario=scenario, mean_x=mean_x, z=z, stat=stat, alarm=alarm)


def run_ensemble(scenario: Scenario, noise=None) -> EnsembleResult:
    """Simulate the Monte-Carlo ensemble in lockstep (model._simulate).

    Run i consumes the (seed, i) substream, so results are bitwise
    reproducible and independent of scheduling and of the core count.
    `noise`, when given, is that draw made beforehand (model._draw_noise)
    and shared: a (v, eta) pair of shapes (mc_runs, steps, n) and
    (mc_runs, steps, p), such as the [:1] rows of a larger draw for a
    one-run scenario.  Detector statistics and alarms come from the
    detector's scan of the z matrix.  Each attacked step passes the z
    matrix so far to synthesize_attack.

    Raises:
        ValueError: if `noise` has other shapes.
    """
    model, plan = scenario.model, scenario.plan

    def attack(k, e, eta, z_past):
        if k >= plan.k_star:
            return attacks_mod.synthesize_attack(plan, model, k, e, eta, z_past)
        return None

    # the draw is an argument only, so it is freed before the scan
    sum_x, z, _ = model_mod._simulate(
        model, _ensemble_noise(scenario, noise), attack if scenario.attacked else None
    )
    return EnsembleResult.scanned(scenario, sum_x / scenario.mc_runs, z)


def _ensemble_noise(scenario: Scenario, noise):
    """The scenario's noise: `noise` once its shapes are checked, else drawn here."""
    model, runs, steps = scenario.model, scenario.mc_runs, scenario.steps
    if noise is None:
        return model_mod._draw_noise(model, steps, runs, scenario.seed)
    want = ((runs, steps, model.n), (runs, steps, model.p))
    got = tuple(np.shape(block) for block in noise)
    if got != want:
        raise ValueError(f"noise must be (v, eta) of shapes {want}, got {got}")
    return noise


def run(scenario: Scenario) -> EnsembleResult:
    """Simulate one run: the scenario's one-run ensemble.

    Deterministic given the scenario seed; the run consumes the (seed, 0)
    noise substream.  Member 0 of a larger ensemble draws the same noise,
    but its last bits may differ, because the matrix products of a wider
    state block differently.
    """
    return run_ensemble(replace(scenario, mc_runs=1))


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
