"""Closed-loop plant / estimator / controller model and its simulation core.

The object of study is the discrete-time stochastic LTI loop

    x_{k+1} = F x_k + G u_k + v_k,        v_k ~ N(0, R1)
    y_k     = C x_k + eta_k,              eta_k ~ N(0, R2)

monitored through a steady-state one-step-predictor (Kalman) estimator

    xhat_{k+1} = F xhat_k + G u_k + L r_k,    r_k = ybar_k - C xhat_k,

where ybar_k = y_k + delta_k is the received (possibly attacked)
measurement and u_k = K xhat_k.  The residual r_k is whitened into the
distance measure z_k = r_k' Sigma^-1 r_k with Sigma = C P C' + R2; z_k is
chi-squared with p degrees of freedom when delta = 0.

This module owns model construction/validation (stability certificates,
residual covariance), the single dynamics implementation `advance`, and
its two Monte-Carlo loops: `_simulate`, the one fixed-length simulation
(attacked ensembles and attack-free streams), and `iter_distance_stream`,
the attack-free stream the ARL estimate can stop early.  An ensemble's
noise is drawn on every available core (`_draw_blocks`), one slice of
runs per thread; each run owns its (seed, run) substream, so no value
depends on the core count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field

import numpy as np

from . import numerics

__all__ = [
    "PlantModel",
    "ClosedLoopModel",
    "NoiseModel",
    "build_closed_loop",
    "advance",
    "distance_measure",
    "iter_distance_stream",
    "simulate_distance_stream",
]

# Columns per sub-block of iter_distance_stream: how far the stream runs
# ahead of a consumer that may stop early.
_SUB_BLOCK = 64


def _as_matrix(value, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={arr.ndim}")
    if rows is not None and arr.shape[0] != rows:
        raise ValueError(f"{name} must have {rows} rows, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class PlantModel:
    """Open-loop plant matrices and noise covariances.

    R1 is symmetrized as (R1 + R1') / 2 on construction: a covariance must
    be symmetric, and averaging is the minimal repair for asymmetric input
    (e.g. transcription artifacts in published matrices).  R2 must be
    symmetric positive definite.
    """

    f: np.ndarray
    g: np.ndarray
    c: np.ndarray
    r1: np.ndarray
    r2: np.ndarray

    def __post_init__(self):
        f = _as_matrix(self.f, None, None, "F")
        n = f.shape[0]
        if f.shape[1] != n:
            raise ValueError(f"F must be square, got shape {f.shape}")
        g = _as_matrix(self.g, n, None, "G")
        c = _as_matrix(self.c, None, n, "C")
        p = c.shape[0]
        r1 = _as_matrix(self.r1, n, n, "R1")
        r1 = 0.5 * (r1 + r1.T)
        numerics.psd_sqrt(r1)  # raises if R1 is not PSD
        r2 = _as_matrix(self.r2, p, p, "R2")
        if np.abs(r2 - r2.T).max() > 1e-9 * max(1.0, float(np.abs(r2).max())):
            raise ValueError("R2 must be symmetric")
        r2 = 0.5 * (r2 + r2.T)
        try:
            np.linalg.cholesky(r2)
        except np.linalg.LinAlgError:
            raise ValueError("R2 must be positive definite") from None
        for name, arr in (("f", f), ("g", g), ("c", c), ("r1", r1), ("r2", r2)):
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return self.f.shape[0]

    @property
    def m(self) -> int:
        return self.g.shape[1]

    @property
    def p(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class ClosedLoopModel:
    """Validated closed loop: plant + feedback gain K + estimator gain L.

    Carries the derived quantities every consumer needs: the steady-state
    prediction-error covariance `p_pred`, the residual covariance
    `sigma = C P C' + R2` with its symmetric square root and inverse, the
    loop matrices F + G K and F - L C, and their spectral radii as
    stability certificates (both strictly below one by construction).
    """

    plant: PlantModel
    k_fb: np.ndarray
    l_gain: np.ndarray
    p_pred: np.ndarray
    sigma: np.ndarray
    sigma_sqrt: np.ndarray
    sigma_inv: np.ndarray
    f_cl: np.ndarray
    f_est: np.ndarray
    rho_cl: float
    rho_est: float
    chol_r1: np.ndarray
    chol_r2: np.ndarray

    @property
    def n(self) -> int:
        return self.plant.n

    @property
    def m(self) -> int:
        return self.plant.m

    @property
    def p(self) -> int:
        return self.plant.p

    def noise(self, seed: int, run: int = 0) -> "NoiseModel":
        """Noise source for one simulation run (substream = (seed, run))."""
        return NoiseModel(chol_r1=self.chol_r1, chol_r2=self.chol_r2, seed=seed, run=run)


def build_closed_loop(plant: PlantModel, k_fb, l_gain=None) -> ClosedLoopModel:
    """Assemble and validate the closed loop.

    Args:
        plant: open-loop model.
        k_fb: (m, n) state-feedback gain applied to the estimate.
        l_gain: optional (n, p) estimator gain.  When omitted, the
            steady-state optimal predictor gain is computed from the
            Riccati equation.  When supplied, the prediction-error
            covariance is instead the fixed point of the attack-free error
            recursion, P = (F-LC) P (F-LC)' + L R2 L' + R1, so Sigma is
            consistent with the gain actually in use.

    Raises:
        ValueError: "unstable closed loop" if rho(F + G K) >= 1, or
            "unstable estimator" if rho(F - L C) >= 1.
    """
    f, g, c = plant.f, plant.g, plant.c
    n, p = plant.n, plant.p
    k_arr = _as_matrix(k_fb, plant.m, n, "K")

    f_cl = f + g @ k_arr
    rho_cl = numerics.spectral_radius(f_cl)
    if rho_cl >= 1.0:
        raise ValueError(f"unstable closed loop: spectral radius of F+GK is {rho_cl:.6g} >= 1")

    # rho(F - LC) is computed once: the DARE solver checks its own gain,
    # and the Lyapunov solve reuses the estimator check's value.
    if l_gain is None:
        p_pred, l_arr, rho_est = numerics._solve_dare(f, c, plant.r1, plant.r2)
        f_est = f - l_arr @ c
    else:
        l_arr = _as_matrix(l_gain, n, p, "L")
        f_est = f - l_arr @ c
        rho_est = numerics.spectral_radius(f_est)
        if rho_est >= 1.0:
            raise ValueError(f"unstable estimator: spectral radius of F-LC is {rho_est:.6g} >= 1")
        p_pred = numerics._solve_lyapunov(
            f_est, plant.r1 + l_arr @ plant.r2 @ l_arr.T, rho_est
        )

    sigma = c @ p_pred @ c.T + plant.r2
    sigma = 0.5 * (sigma + sigma.T)
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise ValueError("residual covariance Sigma is not positive definite") from None
    sigma_inv = np.linalg.inv(sigma)
    sigma_inv = 0.5 * (sigma_inv + sigma_inv.T)

    return ClosedLoopModel(
        plant=plant,
        k_fb=k_arr,
        l_gain=l_arr,
        p_pred=p_pred,
        sigma=sigma,
        sigma_sqrt=numerics.psd_sqrt(sigma),
        sigma_inv=sigma_inv,
        f_cl=f_cl,
        f_est=f_est,
        rho_cl=rho_cl,
        rho_est=rho_est,
        chol_r1=numerics.psd_factor(plant.r1),
        chol_r2=numerics.psd_factor(plant.r2),
    )


@dataclass
class NoiseModel:
    """Seeded Gaussian noise source for one run.

    Samples v_k = chol_r1 @ w and eta_k = chol_r2 @ w' with w standard
    normal.  The stream is fully determined by (seed, run), so ensemble
    members get independent, reproducible substreams regardless of
    scheduling order.  `draw` and `blocks` consume the same underlying
    stream in different orders (per-step interleaved vs. block-wise); use
    one style per NoiseModel instance.

    Ensemble draws may call `blocks` on worker threads (`_draw_blocks`);
    each instance is used by one thread at a time.
    """

    chol_r1: np.ndarray
    chol_r2: np.ndarray
    seed: int
    run: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.seed) < 0 or int(self.run) < 0:
            raise ValueError("seed and run index must be nonnegative integers")
        self._rng = np.random.default_rng((int(self.seed), int(self.run)))

    def draw(self):
        """One step of noise: (v, eta)."""
        v = self.chol_r1 @ self._rng.standard_normal(self.chol_r1.shape[1])
        eta = self.chol_r2 @ self._rng.standard_normal(self.chol_r2.shape[1])
        return v, eta

    def blocks(self, steps: int):
        """Pre-generated noise for `steps` steps: v (steps, n), eta (steps, p)."""
        v = self._rng.standard_normal((steps, self.chol_r1.shape[1])) @ self.chol_r1.T
        eta = self._rng.standard_normal((steps, self.chol_r2.shape[1])) @ self.chol_r2.T
        return v, eta


def _draw_blocks(sources, width: int, n: int, p: int):
    """Noise of `width` steps for every source: v (runs, width, n), eta (runs, width, p).

    Run i is one `sources[i].blocks(width)` call, so the values do not
    depend on which thread draws them.  The runs are split into one
    contiguous slice per CPU (never more slices than runs); the calling
    thread draws the first slice and one thread started here draws each
    other slice, in parallel because numpy releases the interpreter lock
    while it fills normals and multiplies.  Every thread is joined before
    this returns, and the first exception raised in any slice is raised
    here.  A one-run draw starts no thread.
    """
    runs = len(sources)
    v_all = np.empty((runs, width, n))
    eta_all = np.empty((runs, width, p))
    errors = []

    def fill(lo: int, hi: int) -> None:
        try:
            for i in range(lo, hi):
                v_all[i], eta_all[i] = sources[i].blocks(width)
        except BaseException as exc:  # re-raised by the caller after the joins
            errors.append(exc)

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    slices = max(1, min(cpus, runs))  # iter_distance_stream takes runs = 0
    edges = [runs * s // slices for s in range(slices + 1)]
    workers = [threading.Thread(target=fill, args=edges[s:s + 2]) for s in range(1, slices)]
    for worker in workers:
        worker.start()
    fill(edges[0], edges[1])
    for worker in workers:
        worker.join()
    if errors:
        raise errors[0]
    return v_all, eta_all


def distance_measure(model: ClosedLoopModel, r: np.ndarray):
    """z = r' Sigma^-1 r, clamped at zero against rounding. Vectorizes over columns."""
    y = model.sigma_inv @ r
    z = np.maximum((r * y).sum(axis=0), 0.0)
    return float(z) if np.ndim(z) == 0 else z


def advance(model: ClosedLoopModel, x, xhat, v, eta, delta=None):
    """One step of the closed loop with explicit noise (and optional attack).

    Works on single-run vectors (n,) or run-stacked matrices (n, runs);
    the noises and delta are stacked the same way, (p,) or (p, runs).

    Returns:
        (x_next, xhat_next, r, z).
    """
    c = model.plant.c
    r = c @ (x - xhat) + eta
    if delta is not None:
        r = r + delta
    u = model.k_fb @ xhat
    gu = model.plant.g @ u
    x_next = model.plant.f @ x + gu + v
    xhat_next = model.plant.f @ xhat + gu + model.l_gain @ r

    if __debug__:
        # e_{k+1} must match the closed-form error recursion
        # (F-LC) e - L eta + v - L delta regardless of how it was produced.
        e_direct = x_next - xhat_next
        e_form = model.f_est @ (x - xhat) - model.l_gain @ eta + v
        if delta is not None:
            e_form = e_form - model.l_gain @ delta
        scale = 1.0 + float(np.abs(x_next).max(initial=0.0)) + float(np.abs(xhat_next).max(initial=0.0))
        assert float(np.abs(e_direct - e_form).max(initial=0.0)) <= 1e-10 * scale

    return x_next, xhat_next, r, distance_measure(model, r)


def _simulate(model: ClosedLoopModel, steps: int, runs: int, seed: int, attack=None):
    """Advance `runs` trajectories from the origin through `steps` steps, in lockstep.

    Run i consumes the (seed, i) noise substream, drawn up front on every
    core (_draw_blocks) with the same bits as on one.  `attack(k, e, eta, z_past)`, when given, returns step
    k's sensor bias (or None) from the error e = x - xhat, the sensor noise
    and the (runs, k - 1) z history.  Returns (mean_x, z): the across-run
    mean state of each step, (steps, n), and the distance measures, (runs, steps).
    """
    n, p = model.n, model.p
    sources = [model.noise(seed, run=i) for i in range(runs)]
    v_all, eta_all = _draw_blocks(sources, steps, n, p)
    # allocated after the noise: under glibc malloc the noise's memory then
    # goes back to the system when freed, and the next simulation peaks lower
    x = np.zeros((n, runs))
    xhat = np.zeros((n, runs))
    sum_x = np.empty((steps, n))
    z = np.empty((runs, steps))
    for t in range(steps):
        eta = eta_all[:, t, :].T
        delta = None if attack is None else attack(t + 1, x - xhat, eta, z[:, :t])
        sum_x[t] = x.sum(axis=1)
        x, xhat, _, z[:, t] = advance(model, x, xhat, v_all[:, t, :].T, eta, delta)
    return sum_x / runs, z


def simulate_distance_stream(
    model: ClosedLoopModel,
    steps: int,
    runs: int = 1,
    seed: int = 0,
    burn_in: int = 0,
) -> np.ndarray:
    """Attack-free distance-measure streams for a Monte-Carlo ensemble.

    Simulates `runs` independent closed-loop trajectories from the origin,
    discards `burn_in` initial steps, and returns z as a (runs, steps)
    array.  Run i consumes the (seed, i) noise substream, so the result is
    reproducible and independent of scheduling.  The burn-in and the kept
    steps are one attack-free run of run_ensemble's loop (_simulate).
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    return _simulate(model, burn_in + steps, runs, seed)[1][:, burn_in:]


def iter_distance_stream(model: ClosedLoopModel, widths, runs: int = 1, seed: int = 0):
    """Attack-free distance measures of one ensemble, sub-block by sub-block.

    Continues the same trajectories from the origin through one noise
    chunk per width in `widths`.  Each chunk's noise is drawn when the
    chunk starts, block-wise per run from the (seed, i) substreams, so the
    values depend on the chunk widths as well as on the seed.  The chunk
    is then advanced in sub-blocks of at most _SUB_BLOCK columns, and each
    is yielded as a (runs, columns) z array as soon as it is computed: a
    consumer that stops pulling stops the advancing (estimate_arl's early
    exit).  One chunk's sub-blocks, joined, are _simulate's z.  A chunk's
    noise is drawn on every available core (_draw_blocks) with the same
    bits as on one.
    """
    n, p = model.n, model.p
    sources = [model.noise(seed, run=i) for i in range(runs)]
    x = np.zeros((n, runs))
    xhat = np.zeros((n, runs))
    for width in widths:
        v_all, eta_all = _draw_blocks(sources, width, n, p)
        for start in range(0, width, _SUB_BLOCK):
            z = np.empty((runs, min(_SUB_BLOCK, width - start)))
            for j in range(z.shape[1]):
                t = start + j
                x, xhat, _, z[:, j] = advance(model, x, xhat, v_all[:, t, :].T, eta_all[:, t, :].T)
            yield z
