"""Simulation orchestration: Monte-Carlo ensembles, single runs, measurements.

A Scenario bundles a validated closed-loop model, a tuned detector, an
optional attack plan, and the run geometry (steps, burn-in before the
attack, seed, ensemble size).  `run_ensembles` simulates scenarios that
share a model object, geometry and seed as lanes of the model's one
fixed-length simulation loop (model._simulate): it draws their noise once
and advances all Monte-Carlo runs of every lane in lockstep as one
(n, lanes * runs) matrix state, then replays each lane's distance
measures through its detector's scan when the lane is consumed
(EnsembleResult.scanned, which also re-scans a trajectory for another
detector).  `run_ensemble` is its one-lane case.  The attack comes from
the plans alone (_lane_attack): each attacked step hands them the z
history, each plan's schedule (attacks.attack_energy) reads what it needs
from its lane's rows, and the bias of every lane is formed at once
(attacks._stealthy_bias).
A one-run result is the trace of a single realization (row 0 of z, stat
and alarm; mean_x is its state).  A trace comes from one of two places:
row 0 of an ensemble already simulated (EnsembleResult.first_run, from run
0's state the loop records at each step), which the reactor study and
`simulate --summary` of an attacked scenario use, or `run`, the one-run
ensemble, which plain `simulate` uses.  Both read the (seed, 0) noise
substream, but the wider state block of an ensemble rounds differently,
so the two can differ in their last bits.

Measurement helpers compare the ensemble-mean state against the predicted
steady-state deviation, and tabulate the windowed-threshold per-step
budget beta(ell)/ell whose large-window limit ties the windowed detector
to the CUSUM one.
"""

from __future__ import annotations

import itertools
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
    "run_ensembles",
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

    mean_x[i] is the across-run mean state at step i + 1 and x_first[i]
    run 0's state there (None when the trajectory recorded none); z, stat,
    alarm are (runs, steps) arrays replayed through the detector semantics.
    """

    scenario: Scenario
    mean_x: np.ndarray
    z: np.ndarray
    stat: np.ndarray
    alarm: np.ndarray
    x_first: Optional[np.ndarray] = None

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
    def scanned(cls, scenario: Scenario, mean_x: np.ndarray, z: np.ndarray,
                x_first: Optional[np.ndarray] = None) -> "EnsembleResult":
        """The scenario's result on a simulated trajectory: z replayed through its detector's scan."""
        stat, alarm, _ = scenario.detector.scan(z)
        return cls(scenario=scenario, mean_x=mean_x, z=z, stat=stat, alarm=alarm, x_first=x_first)

    def first_run(self) -> "EnsembleResult":
        """Run 0 as the scenario's one-run result: the trace of one realization.

        Its mean_x is x_first and its z, stat and alarm are copies of row 0,
        so the trace does not keep the ensemble's arrays alive.
        """
        if self.x_first is None:
            raise ValueError("the result recorded no state of run 0")
        rows = (self.z[:1].copy(), self.stat[:1].copy(), self.alarm[:1].copy())
        return EnsembleResult(replace(self.scenario, mc_runs=1), self.x_first, *rows, self.x_first)


def run_ensemble(scenario: Scenario) -> EnsembleResult:
    """Simulate the Monte-Carlo ensemble in lockstep: the one-lane run_ensembles.

    Run i consumes the (seed, i) substream, so results are bitwise
    reproducible and independent of scheduling under one BLAS thread
    count.  At the reactor's size (n = 4, p = 3) one and two OpenBLAS
    threads give the same bits; at n = 100 the noise and advance's
    products round differently under each.
    Detector statistics and alarms come from the detector's scan of the z
    matrix.  Each attacked step passes the z matrix so far to the plan's
    schedule.  The result records run 0's state at each step (x_first),
    so its first_run is the trace of run 0.
    """
    (result,) = run_ensembles([scenario])
    return result


def run_ensembles(scenarios):
    """Simulate ensembles as lanes of one lockstep loop; an iterator of one EnsembleResult per lane.

    The lanes share the model object, steps, burn_in, seed and mc_runs,
    so they read one stream of noise rows (model._noise_pieces): the
    state is one (n, lanes * mc_runs) block (model._simulate), each step
    copies its (., mc_runs) noise row into every lane's columns once, and
    each step is one advance call and one stealthy-bias evaluation for
    every lane (_lane_attack), each lane's psi coming from its own plan.
    The bias directions are formed once per call, and the bias and advance
    read one product C (x - xhat) per step.  The rows are drawn as the
    loop reaches them, in model._noise_pieces' pieces, and the draw is
    freed before the first scan.
    Each lane is scanned when it is consumed: a consumer that drops each
    result before taking the next holds one lane's stat and alarm at a
    time.

    Each result equals the lane's own run_ensemble to rounding.  A column
    of a matrix product rounds the same whatever the width only where the
    BLAS makes it so: with OpenBLAS at n = 4 and p = 3 every product of at
    least 2 columns does, so the reactor's lanes of 2 or more runs equal
    separate ensembles bit for bit.  A one-run lane (whose own ensemble
    multiplies single columns) or a loop with n >= 10 may differ in the
    last bits.

    Raises:
        ValueError: for no scenario, for lanes that differ in one of those
            fields (naming it), and for attacked lanes mixed with
            attack-free ones.
    """
    lanes = tuple(scenarios)
    if not lanes:
        raise ValueError("run_ensembles needs at least one scenario")
    head = lanes[0]
    if any(lane.model is not head.model for lane in lanes):
        raise ValueError("the lanes must share one model")
    for name in ("steps", "burn_in", "seed", "mc_runs"):
        if any(getattr(lane, name) != getattr(head, name) for lane in lanes):
            raise ValueError(f"the lanes must share one {name}")
    if any(lane.attacked != head.attacked for lane in lanes):
        raise ValueError("the lanes must be all attacked or all attack-free")
    return _simulated_lanes(lanes)


def _simulated_lanes(lanes):
    """run_ensembles' results, each scanned when it is taken."""
    head = lanes[0]
    model, runs = head.model, head.mc_runs
    plans = tuple(lane.plan for lane in lanes)
    rows = itertools.chain.from_iterable(model_mod._noise_pieces(model, runs, head.seed, head.steps))
    # formed once, after the draw's first buffer, which is the allocation that can fail
    attack = _lane_attack(model, plans, runs, head.k_star) if head.attacked else None
    z, _, (sum_x, first) = model_mod._simulate(
        model, rows, head.steps, runs, attack, lanes=len(lanes), record=True,
    )
    del rows  # the draw is freed before the first scan
    for l, lane in enumerate(lanes):
        yield EnsembleResult.scanned(lane, sum_x[l] / runs, z[l * runs:(l + 1) * runs], first[l])


def _lane_attack(model: ClosedLoopModel, plans, runs: int, k_star: int):
    """The lanes loop's `attack(k, c_err, eta, z_past)`: one plan per lane of `runs` columns.

    Lane l owns columns l * runs .. (l + 1) * runs - 1 and the same rows
    of z_past.  From k_star on, each lane's psi is its plan's direction
    times the square root of its schedule's energy on the lane's rows, and
    delta is formed once for every column (attacks._stealthy_bias).
    """
    directions = np.repeat(np.stack([plan.direction for plan in plans], axis=1), runs, axis=1)
    root = np.empty((len(plans), runs))  # psi'psi of each lane's runs, then its square root

    def attack(k, c_err, eta, z_past):
        if k < k_star:
            return None
        for l, plan in enumerate(plans):
            root[l] = attacks_mod.attack_energy(plan, k, z_past[l * runs:(l + 1) * runs])
        psi = directions * np.sqrt(root, out=root).reshape(-1)
        return attacks_mod._stealthy_bias(model, psi, c_err, eta)

    return attack


def run(scenario: Scenario) -> EnsembleResult:
    """Simulate one run alone: the scenario's one-run ensemble.

    Deterministic given the scenario seed; the run consumes the (seed, 0)
    noise substream.  An ensemble already simulated holds the same run as
    its row 0 (EnsembleResult.first_run), which needs no simulation of
    its own.
    """
    return run_ensemble(replace(scenario, mc_runs=1))


def steady_deviation_estimate(result: EnsembleResult) -> float:
    """||mean over runs and tail steps of x_k||, the measured steady deviation."""
    scenario = result.scenario
    if not scenario.attacked:
        raise ValueError("no prediction available: scenario has no attack")
    k_star = scenario.plan.k_star
    span = result.steps - k_star + 1
    if span < 1:
        raise ValueError("trace ends before the attack starts")
    tail = max(1, int(round(scenario.tail_fraction * span)))
    return float(np.linalg.norm(result.mean_x[result.steps - tail:].mean(axis=0)))


def measure_steady_deviation(result: EnsembleResult):
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
    measured = steady_deviation_estimate(result)
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
    tightest admissible bias.  An ell_max beyond the largest float raises
    ValueError.
    """
    if int(ell_max) < 1:
        raise ValueError("window must be >= 1")
    rates = list(a_star_list)
    for a_star in rates:
        if not (0.0 < float(a_star) < 1.0):
            raise ValueError(f"false-alarm rate must lie in (0, 1), got {a_star}")
    ells = list(range(1, min(100, int(ell_max)) + 1))
    if ell_max > 100:
        try:
            stop = math.log10(float(ell_max))
        except OverflowError:
            raise ValueError("ell_max is too large for a float") from None
        # Python ints: a window past int64 must reach the gamma shape check, not wrap
        spaced = {round(e) for e in np.logspace(math.log10(101), stop, 60).tolist()}
        ells.extend(sorted(e for e in spaced if e > 100))
    rows = []
    for a_star in rates:
        for ell in ells:
            beta = det_mod.tune_windowed(p, ell, float(a_star))
            rows.append((float(a_star), int(ell), beta, beta / ell))
    return rows
