"""Stealthy sensor-attack synthesis and steady-state deviation prediction.

An attacker with access to the true measurement and the estimator state can
cancel the loop's innovation and replace it with any vector it likes:

    delta_k = -C e_k - eta_k + Sigma^{1/2} psi_k

makes the realized residual exactly Sigma^{1/2} psi_k and the distance
measure z_k = psi_k' psi_k, a quantity the attacker fully controls.  Each
detector admits a "saturating" psi schedule that pins its statistic at (or
just below) the alarm threshold forever, so no alarm is ever raised while
the injected bias drags the plant state away from the origin.

The resulting steady-state mean deviation is linear in the schedule:
||E[x_k]|| -> ||M (magnitude * direction)|| with

    M = (I - F - G K)^{-1} G K (I - F)^{-1} L Sigma^{1/2},

which the loop solves once and keeps (ClosedLoopModel.deviation_map), so
the worst attack direction is the top eigenvector of M'M and the
per-detector damage is set by the scalar magnitude the threshold budget
allows: sqrt(alpha) for the static chi-squared detector, sqrt(beta/ell)
per step for the windowed one, sqrt(b) for the CUSUM steady phase.

Each of the six schedules (chi2, windowed-static, windowed-greedy,
windowed-pulse, cusum, cusum-exact) is defined here once (`attack_energy`);
it reads its thresholds through the plan's detector, and the dynamic ones
derive the detector state they read from the z history.  `check_plan` is
the one test of whether a plan can be simulated: its steady deviation, or
that of its pulse held on every step, must exist and be finite.  The bias
delta is formed in one place, `_stealthy_bias`, from psi and the C e of
the step: `synthesize_attack` forms psi for one plan, and the lanes loop
(sim._lane_attack) for each lane from its own plan.

Exact saturation is a knife edge in floating point (the computed statistic
lands a few ulps either side of the threshold), so synthesized schedules
back the energy off by a tiny relative margin (default 5e-11), far inside
every stated tolerance, making "zero alarms" robust rather than a coin
flip per step.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from . import detectors, numerics
from . import model as model_mod
from .model import ClosedLoopModel

__all__ = [
    "AttackPlan",
    "DeviationBound",
    "compute_M",
    "worst_direction",
    "resolve_direction",
    "plan_attack",
    "gamma_bound",
    "predicted_deviation",
    "attack_energy",
    "check_plan",
    "synthesize_attack",
]

DEFAULT_SATURATION_MARGIN = 5e-11

# The attack kind each detector kind invites by default.
_KIND_FOR_DETECTOR = {"chi2": "chi2", "windowed": "windowed-static", "cusum": "cusum"}
# The six attack kinds (AttackPlan.kind).
_KINDS = ("chi2", "windowed-static", "windowed-greedy", "windowed-pulse", "cusum", "cusum-exact")
# The largest magnitude whose square, the per-step energy, is finite.
_MAX_MAGNITUDE = math.sqrt(sys.float_info.max)


@dataclass(frozen=True)
class AttackPlan:
    """Immutable description of a stealthy attack: one schedule against one detector.

    Fields:
        kind: the schedule, one of chi2, windowed-static, windowed-greedy,
            windowed-pulse, cusum or cusum-exact (see attack_energy); the
            part before the dash is the detector kind it is made against.
        k_star: first attacked step (>= 1).
        direction: unit p-vector the injected bias points along.
        detector: the detector the plan was made against; the schedule
            reads its thresholds (`params`) and never its state.
        magnitude: optional override; when set, psi_k = magnitude*direction
            on every active step, ignoring the threshold budget (used for
            benchmark comparisons of prescribed constant injections).
        margin: relative back-off applied to threshold-saturating energies.
    """

    kind: str
    k_star: int
    direction: np.ndarray
    detector: object
    magnitude: Optional[float] = None
    margin: float = DEFAULT_SATURATION_MARGIN

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        self.check_fits(self.detector)
        if int(self.k_star) < 1:
            raise ValueError(f"k_star must be >= 1, got {self.k_star}")
        direction = np.asarray(self.direction, dtype=float).reshape(-1)
        norm = float(np.linalg.norm(direction))
        if not np.all(np.isfinite(direction)) or abs(norm - 1.0) > 1e-12:
            raise ValueError("direction must be a finite unit vector")
        object.__setattr__(self, "direction", direction)
        if self.magnitude is not None and not (0.0 <= self.magnitude <= _MAX_MAGNITUDE):
            raise ValueError(
                f"magnitude must be finite and nonnegative, with a finite square, got {self.magnitude}"
            )
        if not (0.0 <= self.margin < 1e-3):
            raise ValueError("margin must be a tiny nonnegative fraction")

    def check_fits(self, detector) -> None:
        """Raise ValueError unless this plan was made against `detector`.

        The plan's kind must fit the detector's kind, and its detector's
        thresholds must equal the detector's `params`.
        """
        if self.kind.split("-")[0] != detector.kind:
            raise ValueError(
                f"attack kind {self.kind!r} does not match detector kind {detector.kind!r}"
            )
        if self.detector.params != detector.params:
            raise ValueError(
                f"plan thresholds {self.detector.params} differ from the detector's {detector.params}"
            )

    @property
    def steady_start(self) -> int:
        """First step of the attack's steady phase (transient fully flushed).

        chi2 saturates immediately; the windowed statistic needs ell - 1
        more steps until the evaluation window holds only attacked samples;
        the CUSUM may emit one alarm at k*+1 (the corner case where the
        pre-attack statistic exceeded the bias), settled by k*+2.
        """
        if self.kind == "chi2":
            return self.k_star
        if self.kind in ("cusum", "cusum-exact"):
            return self.k_star + 2
        return self.k_star + self.detector.ell - 1


@dataclass(frozen=True)
class DeviationBound:
    """Predicted steady-state deviation ||M (magnitude*direction)|| for one detector."""

    gamma: float
    kind: str
    magnitude: float
    direction: np.ndarray


def compute_M(model: ClosedLoopModel) -> np.ndarray:
    """The loop's read-only (n, p) deviation map M, solved once (ClosedLoopModel.deviation_map)."""
    return model.deviation_map


def worst_direction(m_mat: np.ndarray):
    """Unit direction maximizing ||M v||: top eigenpair of M'M.

    Returns:
        (nu1, lambda1); ||M nu1|| = sqrt(lambda1).
    """
    m_mat = np.asarray(m_mat, dtype=float)
    if not np.all(np.isfinite(m_mat)):
        raise ValueError("M must be finite")
    lam, nu1 = numerics.max_eigenpair(m_mat.T @ m_mat)
    return nu1, lam


def resolve_direction(model: ClosedLoopModel, direction) -> np.ndarray:
    """Turn a direction spec into a unit p-vector.

    Accepts "worst" (top eigenvector of M'M), "ones" (normalized all-ones),
    or an explicit vector, which is normalized.
    """
    if isinstance(direction, str):
        if direction == "worst":
            return model.worst_eigenpair[0]
        if direction == "ones":
            return np.ones(model.p) / math.sqrt(model.p)
        raise ValueError(f"unknown direction spec {direction!r}")
    vec = np.asarray(direction, dtype=float).reshape(-1)
    if vec.shape != (model.p,):
        raise ValueError(f"direction must have length {model.p}, got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if not np.all(np.isfinite(vec)) or norm == 0.0:
        raise ValueError("direction must be a finite nonzero vector")
    return vec / norm


def plan_attack(
    model: ClosedLoopModel,
    detector,
    k_star: int,
    direction="worst",
    kind: Optional[str] = None,
    magnitude: Optional[float] = None,
    margin: float = DEFAULT_SATURATION_MARGIN,
) -> AttackPlan:
    """Build an AttackPlan against a tuned detector.

    `kind` is inferred from the detector's kind (windowed defaults to the
    static schedule, cusum to the prescribed first step); pass another
    schedule for the same detector kind, e.g. kind="windowed-greedy".
    """
    unit = resolve_direction(model, direction)
    return AttackPlan(
        kind=_KIND_FOR_DETECTOR[detector.kind] if kind is None else kind,
        k_star=int(k_star), direction=unit, detector=detector, magnitude=magnitude,
        margin=margin,
    )


def _steady_energy(plan: AttackPlan) -> float:
    """Per-step energy psi'psi that saturates the plan's detector in the steady phase."""
    if plan.kind == "chi2":
        return plan.detector.alpha
    if plan.kind in ("windowed-static", "windowed-greedy"):
        return plan.detector.beta / plan.detector.ell
    if plan.kind in ("cusum", "cusum-exact"):
        return plan.detector.b
    raise ValueError(
        "no constant-forcing deviation bound for the pulsed windowed attack; "
        "measure it by simulation"
    )


def gamma_bound(
    model: ClosedLoopModel,
    detector,
    direction,
    magnitude: Optional[float] = None,
) -> DeviationBound:
    """Predicted steady-state deviation for a saturating attack on `detector`.

    The prediction of the default plan against `detector` (see
    predicted_deviation); `magnitude` overrides the per-step magnitude for
    prescribed constant injections.  The direction must be a unit vector
    (or the specs "worst"/"ones").
    """
    if not isinstance(direction, str):
        given = np.asarray(direction, dtype=float).reshape(-1)
        if abs(float(np.linalg.norm(given)) - 1.0) > 1e-9:
            raise ValueError("direction must be a unit vector; scale belongs in the magnitude")
    plan = plan_attack(model, detector, k_star=1, direction=direction, magnitude=magnitude)
    return predicted_deviation(model, plan)


def predicted_deviation(model: ClosedLoopModel, plan: AttackPlan) -> DeviationBound:
    """Predicted steady-state deviation ||M (magnitude * direction)|| of a plan.

    The per-step magnitude is sqrt(alpha) (chi-squared), sqrt(beta/ell)
    (windowed static schedule, an upper bound for the greedy one), or
    sqrt(b) (CUSUM steady phase), unless the plan overrides it.

    Raises:
        ValueError: for the pulsed windowed schedule (its forcing is not
            constant, so the fixed-point formula does not apply).
    """
    steady = _steady_energy(plan)
    mag = math.sqrt(steady) if plan.magnitude is None else float(plan.magnitude)
    gamma = float(np.linalg.norm(model.deviation_map @ (mag * plan.direction)))
    return DeviationBound(gamma=gamma, kind=plan.kind, magnitude=mag, direction=plan.direction)


def check_plan(model: ClosedLoopModel, plan: AttackPlan) -> None:
    """Raise ValueError("invalid attack: ...") unless the plan's steady deviation is finite.

    The loop's deviation map M must exist (its stability precondition,
    ClosedLoopModel.deviation_map) and the predicted deviation must be
    finite.  The pulsed windowed schedule has no constant-forcing bound, so
    its pulse is held on every step instead, whose deviation is ell times
    the period mean of the pulse's steady one.
    """
    held, what = plan, "predicted deviation"
    if plan.kind == "windowed-pulse":
        pulse = math.sqrt(attack_energy(plan, plan.k_star))
        held = replace(plan, kind="windowed-static", magnitude=pulse)
        what = "deviation of the pulse held on every step"
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            gamma = predicted_deviation(model, held).gamma
        if not np.isfinite(gamma):
            raise ValueError(f"the {what} is not finite (gamma = {gamma})")
    except ValueError as exc:
        raise ValueError(f"invalid attack: {exc}") from exc


def attack_energy(plan: AttackPlan, k: int, z_past=None) -> Union[float, np.ndarray]:
    """Target residual energy psi'psi at step k (scalar, or per-run array).

    Schedules by kind (margin is the plan's relative back-off):
        chi2:             alpha * (1 - margin) every step;
        windowed-static:  beta/ell * (1 - margin) every step;
        windowed-greedy:  whatever tops the pending window sum, the last
                          ell - 1 values of z_past, up to beta * (1 - margin),
                          clamped at 0;
        windowed-pulse:   beta * (1 - margin) on every ell-th step, else 0;
        cusum:            tau on the first step, exact (it leaves S below
                          the threshold), then b * (1 - margin), so that
                          every steady z stays below b whatever its
                          rounding and S = max(0, S + z - b) never creeps
                          up;
        cusum-exact:      tau + b - S on the first step, S being the
                          statistic after z_past, margin-backed because it
                          lands on the threshold itself, then b exactly to
                          hold S there.

    A plan `magnitude` override short-circuits all of the above: energy is
    magnitude^2 on every step the schedule is active (for the pulse kind,
    on pulse steps).

    Args:
        z_past: the distance measures of steps 1..k-1, shape (k-1,) for one
            run or (runs, k-1).  Only the windowed-greedy schedule and the
            first cusum-exact step read it; they derive the detector state
            from it with the plan detector's thresholds.
    """
    if k < plan.k_star:
        raise ValueError(f"attack is inactive before k_star={plan.k_star}, got k={k}")
    off = 1.0 - plan.margin
    det = plan.detector

    pulse_on = plan.kind != "windowed-pulse" or (k - plan.k_star) % det.ell == 0
    if plan.magnitude is not None:
        return float(plan.magnitude) ** 2 if pulse_on else 0.0

    if plan.kind == "windowed-pulse":
        return det.beta * off if pulse_on else 0.0
    if plan.kind == "windowed-greedy":
        return np.maximum(0.0, det.beta * off - _live_state(plan, k, z_past))
    if plan.kind == "cusum-exact":
        if k > plan.k_star:
            return det.b
        return np.maximum(0.0, (det.tau + det.b - _live_state(plan, k, z_past)) * off)
    if plan.kind == "cusum" and k == plan.k_star:
        return det.tau
    return _steady_energy(plan) * off


def _live_state(plan: AttackPlan, k: int, z_past) -> np.ndarray:
    """The detector state a dynamic schedule reads at step k, from the z history.

    windowed-greedy: the pending window sum, the last ell - 1 values of
    z_past added left to right.  For a history of two or more runs that is
    one reduction over the rows of the time-major (ell - 1, runs) window,
    which adds them in order, with the bits of a cumsum along each run; a
    one-run or 1-D history keeps the cumsum, since numpy would sum one
    contiguous run pairwise.  cusum-exact: the CUSUM statistic S after
    z_past, scanned with the detector's (tau, b).
    """
    if np.shape(z_past)[-1:] != (k - 1,):
        raise ValueError(
            f"this schedule reads the detector state from z_past, "
            f"the {k - 1} distance measures before step {k}"
        )
    z_past = np.asarray(z_past, dtype=float)
    det = plan.detector
    if plan.kind != "windowed-greedy":
        state = detectors.scan_cusum(z_past, det.b, det.tau)[0].reshape(z_past.shape)
    elif z_past.ndim == 2 and len(z_past) > 1:
        # the rows of a C-ordered window: a one-lane simulation's time-major
        # history is one already; a lane's rows of a wider history are copied
        return np.add.reduce(np.ascontiguousarray(z_past[:, max(0, k - det.ell):].T), axis=0)
    else:
        state = z_past[..., max(0, k - det.ell):].cumsum(axis=-1)
    return state[..., -1] if state.shape[-1] else np.zeros(state.shape[:-1])


def synthesize_attack(
    plan: AttackPlan,
    model: ClosedLoopModel,
    k: int,
    e: np.ndarray,
    eta: np.ndarray,
    z_past=None,
) -> np.ndarray:
    """The injected sensor bias delta_k for step k >= k_star.

    delta cancels the true innovation (-C e - eta) and substitutes
    Sigma^{1/2} psi_k with psi_k from the plan's schedule.  `e` and `eta`
    are (n,) and (p,) vectors for one run or (n, runs) and (p, runs)
    matrices for an ensemble; `z_past` is the matching (k-1,) or
    (runs, k-1) z history, which the dynamic schedules read (see
    attack_energy).

    Raises:
        ValueError: naming its width and the column count when eta is not
            as wide as e, under python -O too.
    """
    model_mod._lane_runs(1, e, eta)
    # one energy per column, so that Sigma^{1/2} multiplies as many columns as e has
    energy = np.broadcast_to(attack_energy(plan, k, z_past), np.shape(e)[1:])
    return _stealthy_bias(model, np.multiply.outer(plan.direction, np.sqrt(energy)), model.plant.c @ e, eta)


def _stealthy_bias(model: ClosedLoopModel, psi: np.ndarray, c_err: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """delta = -C e - eta + Sigma^{1/2} psi, from c_err = C e; psi, c_err and eta are equally wide."""
    delta = np.negative(c_err)
    delta -= eta
    delta += model.sigma_sqrt @ psi
    return delta
