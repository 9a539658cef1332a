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

so the worst attack direction is the top eigenvector of M'M and the
per-detector damage is set by the scalar magnitude the threshold budget
allows: sqrt(alpha) for the static chi-squared detector, sqrt(beta/ell)
per step for the windowed one, sqrt(b) for the CUSUM steady phase.

Exact saturation is a knife edge in floating point (the computed statistic
lands a few ulps either side of the threshold), so synthesized schedules
back the energy off by a tiny relative margin (default 5e-11), far inside
every stated tolerance, making "zero alarms" robust rather than a coin
flip per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import numerics
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
    "synthesize_attack",
]

DEFAULT_SATURATION_MARGIN = 5e-11

_KINDS = ("chi2", "windowed-static", "windowed-pulse", "cusum", "none")

# The attack kind each detector kind invites by default.
_KIND_FOR_DETECTOR = {"chi2": "chi2", "windowed": "windowed-static", "cusum": "cusum"}
# The detector kind each attack kind is made against.
_DETECTOR_FOR_KIND = {"chi2": "chi2", "windowed-static": "windowed", "windowed-pulse": "windowed",
                      "cusum": "cusum"}


@dataclass(frozen=True)
class AttackPlan:
    """Immutable description of a stealthy attack.

    Fields:
        kind: chi2 | windowed-static | windowed-pulse | cusum | none.
        k_star: first attacked step (>= 1).
        direction: unit p-vector the injected bias points along.
        alpha / beta, ell / tau, b: threshold snapshot of the attacked
            detector (only the fields for `kind` are set).
        saturation_mode: windowed-static only; "static" keeps the constant
            per-step schedule, "greedy" sizes each step so the window sum
            sits at the threshold even while pre-attack samples remain in
            the window (clamped at zero energy).
        magnitude: optional override; when set, psi_k = magnitude*direction
            on every active step, ignoring the threshold budget (used for
            benchmark comparisons of prescribed constant injections).
        split_amplitude_across_window: windowed-static compatibility mode
            dividing the amplitude sqrt(beta) by ell (per-step energy
            beta/ell^2) instead of splitting the energy budget (beta/ell).
            The default energy split is the one that saturates the window.
        exact_first_step: cusum only; size the first step from the live
            statistic (energy tau + b - S) so S lands exactly at tau,
            instead of the prescribed constant sqrt(tau).
        margin: relative back-off applied to threshold-saturating energies.
    """

    kind: str
    k_star: int
    direction: np.ndarray
    alpha: Optional[float] = None
    beta: Optional[float] = None
    ell: Optional[int] = None
    tau: Optional[float] = None
    b: Optional[float] = None
    saturation_mode: str = "static"
    magnitude: Optional[float] = None
    split_amplitude_across_window: bool = False
    exact_first_step: bool = False
    margin: float = DEFAULT_SATURATION_MARGIN

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.kind != "none":
            if int(self.k_star) < 1:
                raise ValueError(f"k_star must be >= 1, got {self.k_star}")
            direction = np.asarray(self.direction, dtype=float).reshape(-1)
            norm = float(np.linalg.norm(direction))
            if not np.all(np.isfinite(direction)) or abs(norm - 1.0) > 1e-12:
                raise ValueError("direction must be a finite unit vector")
            object.__setattr__(self, "direction", direction)
        if self.saturation_mode not in ("static", "greedy"):
            raise ValueError(f"unknown saturation mode {self.saturation_mode!r}")
        if not (0.0 <= self.margin < 1e-3):
            raise ValueError("margin must be a tiny nonnegative fraction")

    def check_fits(self, detector) -> None:
        """Raise ValueError unless this plan was made against `detector`.

        The plan's kind must fit the detector's kind, and its threshold
        snapshot must equal the detector's `params`.
        """
        if _DETECTOR_FOR_KIND.get(self.kind) != detector.kind:
            raise ValueError(
                f"attack kind {self.kind!r} does not match detector kind {detector.kind!r}"
            )
        snapshot = {name: getattr(self, name) for name in detector.params}
        if snapshot != detector.params:
            raise ValueError(
                f"plan thresholds {snapshot} differ from the detector's {detector.params}"
            )

    @property
    def live_state(self) -> Optional[str]:
        """attack_energy's keyword for the live detector state this schedule reads, if any."""
        if self.kind == "windowed-static" and self.saturation_mode == "greedy":
            return "pending_window_sum"
        if self.kind == "cusum" and self.exact_first_step:
            return "s_prev"
        return None


@dataclass(frozen=True)
class DeviationBound:
    """Predicted steady-state deviation ||M (magnitude*direction)|| for one detector."""

    gamma: float
    kind: str
    magnitude: float
    direction: np.ndarray


def compute_M(model: ClosedLoopModel) -> np.ndarray:
    """The (n, p) map from the attacker's psi to the steady-state mean state.

    Requires an open-loop-stable plant and a stable closed loop (both
    inverses in the formula exist and the attacked error recursion, which
    loses the estimator correction, converges).
    """
    plant = model.plant
    rho_f = numerics.spectral_radius(plant.f)
    if rho_f >= 1.0:
        raise ValueError(
            f"stability precondition violated: spectral radius of F is {rho_f:.6g} >= 1"
        )
    if model.rho_cl >= 1.0:
        raise ValueError(
            f"stability precondition violated: spectral radius of F+GK is {model.rho_cl:.6g} >= 1"
        )
    eye = np.eye(plant.n)
    try:
        inner = np.linalg.solve(eye - plant.f, model.l_gain @ model.sigma_sqrt)
        m_mat = np.linalg.solve(eye - model.f_cl, plant.g @ (model.k_fb @ inner))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"stability precondition violated: {exc}") from None
    if not np.all(np.isfinite(m_mat)):
        raise ValueError("stability precondition violated: deviation map is not finite")
    return m_mat


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
            nu1, _ = worst_direction(compute_M(model))
            return nu1
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
    saturation_mode: str = "static",
    magnitude: Optional[float] = None,
    split_amplitude_across_window: bool = False,
    exact_first_step: bool = False,
    margin: float = DEFAULT_SATURATION_MARGIN,
) -> AttackPlan:
    """Build an AttackPlan against a tuned detector.

    The plan snapshots the detector's thresholds (`params`); `kind` is
    inferred from the detector's kind (windowed defaults to the static
    schedule; pass kind="windowed-pulse" for the pulsed one).
    """
    unit = resolve_direction(model, direction)
    common = dict(
        k_star=int(k_star),
        direction=unit,
        saturation_mode=saturation_mode,
        magnitude=magnitude,
        split_amplitude_across_window=split_amplitude_across_window,
        exact_first_step=exact_first_step,
        margin=margin,
    )
    if kind is None:
        kind = _KIND_FOR_DETECTOR[detector.kind]
    plan = AttackPlan(kind=kind, **common, **detector.params)
    plan.check_fits(detector)
    return plan


def _steady_magnitude(kind, alpha=None, beta=None, ell=None, b=None, split=False) -> float:
    if kind == "chi2":
        return math.sqrt(alpha)
    if kind == "windowed-static":
        if split:
            return math.sqrt(beta) / ell
        return math.sqrt(beta / ell)
    if kind == "cusum":
        return math.sqrt(b)
    raise ValueError(f"no constant-forcing deviation bound for attack kind {kind!r}")


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
    (windowed static schedule), or sqrt(b) (CUSUM steady phase), unless the
    plan overrides it.

    Raises:
        ValueError: for attack-free plans and for the pulsed windowed
            schedule (its forcing is not constant, so the fixed-point
            formula does not apply).
    """
    if plan.kind == "none":
        raise ValueError("no prediction available for an attack-free scenario")
    if plan.kind == "windowed-pulse":
        raise ValueError(
            "no constant-forcing deviation bound for the pulsed windowed attack; "
            "measure it by simulation"
        )
    if plan.magnitude is not None:
        mag = float(plan.magnitude)
    else:
        mag = _steady_magnitude(
            plan.kind,
            alpha=plan.alpha,
            beta=plan.beta,
            ell=plan.ell,
            b=plan.b,
            split=plan.split_amplitude_across_window,
        )
    gamma = float(np.linalg.norm(compute_M(model) @ (mag * plan.direction)))
    return DeviationBound(gamma=gamma, kind=plan.kind, magnitude=mag, direction=plan.direction)


def attack_energy(
    plan: AttackPlan,
    k: int,
    pending_window_sum=None,
    s_prev=None,
) -> Union[float, np.ndarray]:
    """Target residual energy psi'psi at step k (scalar, or per-run array).

    Schedules by kind (margin is the plan's relative back-off):
        chi2:             alpha * (1 - margin) every step;
        windowed-static:  beta/ell * (1 - margin) every step ("static"), or
                          whatever tops the pending window sum up to
                          beta * (1 - margin), clamped at 0 ("greedy");
        windowed-pulse:   beta * (1 - margin) on every ell-th step, else 0;
        cusum:            tau on the first step, exact (it leaves S below
                          the threshold), then b * (1 - margin), so that
                          every steady z stays below b whatever its
                          rounding and S = max(0, S + z - b) never creeps
                          up; with exact_first_step the first step spends
                          tau + b - S_prev, margin-backed because it lands
                          on the threshold itself, and the steady steps
                          spend b exactly to hold S there.

    A plan `magnitude` override short-circuits all of the above: energy is
    magnitude^2 on every step the schedule is active (for the pulse kind,
    on pulse steps).

    Args:
        pending_window_sum: greedy mode only; per-run sum of the z values
            that will share the evaluation window with this step.
        s_prev: exact_first_step only; per-run CUSUM statistic before k*.
    """
    if plan.kind == "none":
        raise ValueError("plan has no attack")
    if k < plan.k_star:
        raise ValueError(f"attack is inactive before k_star={plan.k_star}, got k={k}")
    off = 1.0 - plan.margin

    pulse_on = plan.kind != "windowed-pulse" or (k - plan.k_star) % plan.ell == 0
    if plan.magnitude is not None:
        return float(plan.magnitude) ** 2 if pulse_on else 0.0

    if plan.kind == "chi2":
        return plan.alpha * off
    if plan.kind == "windowed-pulse":
        return plan.beta * off if pulse_on else 0.0
    if plan.kind == "windowed-static":
        if plan.saturation_mode == "greedy":
            if pending_window_sum is None:
                raise ValueError("greedy windowed schedule needs the pending window sum")
            return np.maximum(0.0, plan.beta * off - np.asarray(pending_window_sum, dtype=float))
        if plan.split_amplitude_across_window:
            return (plan.beta / plan.ell**2) * off
        return (plan.beta / plan.ell) * off
    if plan.kind == "cusum":
        if k == plan.k_star:
            if plan.exact_first_step:
                if s_prev is None:
                    raise ValueError("exact first step needs the live CUSUM statistic")
                return np.maximum(0.0, (plan.tau + plan.b - np.asarray(s_prev, dtype=float)) * off)
            return plan.tau
        return plan.b if plan.exact_first_step else plan.b * off
    raise ValueError(f"unknown attack kind {plan.kind!r}")


def synthesize_attack(
    plan: AttackPlan,
    model: ClosedLoopModel,
    k: int,
    e: np.ndarray,
    eta: np.ndarray,
    pending_window_sum=None,
    s_prev=None,
) -> np.ndarray:
    """The injected sensor bias delta_k for step k >= k_star.

    delta cancels the true innovation (-C e - eta) and substitutes
    Sigma^{1/2} psi_k with psi_k from the plan's schedule.  `e` and `eta`
    are (n,) and (p,) vectors for one run or (n, runs) and (p, runs)
    matrices for an ensemble.  The dynamic schedules read the live detector
    state passed in, as attack_energy does.
    """
    energy = attack_energy(plan, k, pending_window_sum=pending_window_sum, s_prev=s_prev)
    psi = np.multiply.outer(plan.direction, np.sqrt(energy) * np.ones(np.shape(e)[1:]))
    return -(model.plant.c @ e) - eta + model.sigma_sqrt @ psi
