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
residual covariance), the one reader of a scenario document's matrices
(`closed_loop_from_document`), the single dynamics implementation
`advance`, and its one Monte-Carlo loop, `_simulate`, which advances a
noise draw (`_draw_noise`) from the origin or from where an earlier call
stopped: attacked ensembles, attack-free streams, and the sub-blocks of
`iter_distance_stream`, the attack-free stream the ARL estimate can stop
early.  An ensemble's noise is drawn on every available core
(`_draw_blocks`), one slice of runs per thread, into one buffer that
holds v and eta side by side; each run owns its (seed, run) substream, so
no value depends on the core count, and simulations of the same runs can
share one draw.  `simulate_distance_stream` remembers its last
(read-only) stream until the next noise draw, so detectors measured on
the same model, geometry and seed simulate it once.
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
    "closed_loop_from_document",
    "advance",
    "distance_measure",
    "iter_distance_stream",
    "simulate_distance_stream",
]

# Columns per sub-block of iter_distance_stream: how far the stream runs
# ahead of a consumer that may stop early.
_SUB_BLOCK = 64

# (model, (steps, runs, seed, burn_in), z) of the last simulate_distance_stream
# call, until the next noise draw; the model object itself is the key, so
# its address cannot be reused while the entry lives.
_last_stream = None


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


def closed_loop_from_document(doc: dict) -> ClosedLoopModel:
    """The closed loop of a schema-valid scenario document.

    Reads the `plant` matrices, the `controller` K and, when present, the
    `estimator` L; without L the steady-state optimal gain is solved for.
    Raises ValueError naming the section of a malformed matrix, and
    whatever build_closed_loop raises for a loop it rejects.
    """
    plant_doc = doc["plant"]
    try:
        plant = PlantModel(*(plant_doc[key] for key in ("F", "G", "C", "R1", "R2")))
    except ValueError as exc:
        raise ValueError(f"invalid plant: {exc}") from exc
    k_fb = _gain_matrix(doc["controller"]["K"], "controller K", (plant.m, plant.n))
    l_gain = None
    if "L" in doc.get("estimator", {}):
        l_gain = _gain_matrix(doc["estimator"]["L"], "estimator L", (plant.n, plant.p))
    return build_closed_loop(plant, k_fb, l_gain=l_gain)


def _gain_matrix(rows, name: str, shape: tuple) -> np.ndarray:
    """A scenario gain matrix as a float array of the given shape, else ValueError."""
    try:
        mat = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise ValueError(f"invalid {name}: {exc}") from exc
    if mat.shape != shape:
        raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got {mat.shape[0]}x{mat.shape[1]}")
    return mat


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

    v and eta are views of one (runs, width, n + p) allocation: two arrays
    freed at different times, around a remembered stream, fragment the
    glibc heap and raise the peak resident size.  The remembered stream
    (simulate_distance_stream) is dropped first, so it never stays alive
    through another simulation's noise.

    Run i is one `sources[i].blocks(width)` call, so the values do not
    depend on which thread draws them.  The runs are split into one
    contiguous slice per CPU (never more slices than runs); the calling
    thread draws the first slice and one thread started here draws each
    other slice, in parallel because numpy releases the interpreter lock
    while it fills normals and multiplies.  Every thread is joined before
    this returns, and the first exception raised in any slice is raised
    here.  A one-run draw starts no thread.
    """
    _forget_stream()
    runs = len(sources)
    buf = np.empty((runs, width, n + p))
    v_all, eta_all = buf[..., :n], buf[..., n:]
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


def _draw_noise(model: ClosedLoopModel, steps: int, runs: int, seed: int):
    """Noise of runs 0..runs-1 through `steps` steps: v (runs, steps, n), eta (runs, steps, p).

    Row i is run i's (seed, i) substream, drawn on every core
    (_draw_blocks) with the same bits as on one, so the first rows of a
    draw are a smaller ensemble's draw.
    """
    sources = [model.noise(seed, run=i) for i in range(runs)]
    return _draw_blocks(sources, steps, model.n, model.p)


def _simulate(model: ClosedLoopModel, noise, attack=None, state=None):
    """Advance one trajectory per run of `noise` in lockstep, from `state` or the origin.

    `noise` is a drawn (v, eta) pair, (runs, steps, n) and (runs, steps, p)
    (_draw_noise).  `attack(k, e, eta, z_past)`, when given, returns step
    k's sensor bias (or None) from the error e = x - xhat, the sensor noise
    and the (runs, k - 1) z history.  `state` is the (x, xhat) pair of
    (n, runs) matrices a previous call returned.  Returns (sum_x, z, state):
    the across-run sum of each step's state, (steps, n), the distance
    measures, (runs, steps), and the final (x, xhat), which a later call
    continues from.
    """
    v_all, eta_all = noise
    runs, steps, n = v_all.shape
    x, xhat = (np.zeros((n, runs)), np.zeros((n, runs))) if state is None else state
    sum_x = np.empty((steps, n))
    z = np.empty((runs, steps))
    for t in range(steps):
        eta = eta_all[:, t, :].T
        delta = None if attack is None else attack(t + 1, x - xhat, eta, z[:, :t])
        sum_x[t] = x.sum(axis=1)
        x, xhat, _, z[:, t] = advance(model, x, xhat, v_all[:, t, :].T, eta, delta)
    return sum_x, z, (x, xhat)


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

    The last stream is remembered: a call with the same model object,
    steps, runs, seed and burn_in returns it again without simulating, so
    detectors measured on one stream share one simulation.  The next noise
    draw of any simulation (run_ensemble, iter_distance_stream, another
    stream) forgets it.  The returned array is read-only.
    """
    global _last_stream
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    key = (steps, runs, seed, burn_in)
    if _last_stream is not None and _last_stream[0] is model and _last_stream[1] == key:
        return _last_stream[2]
    z = _simulate(model, _draw_noise(model, burn_in + steps, runs, seed))[1]
    z.flags.writeable = False  # its views cannot be made writeable either
    _last_stream = (model, key, z[:, burn_in:])
    return _last_stream[2]


def _forget_stream() -> None:
    """Drop the stream simulate_distance_stream remembers."""
    global _last_stream
    _last_stream = None


def iter_distance_stream(model: ClosedLoopModel, widths, runs: int = 1, seed: int = 0):
    """Attack-free distance measures of one ensemble, sub-block by sub-block.

    Continues the same trajectories from the origin through one noise
    chunk per width in `widths`.  Each chunk's noise is drawn when the
    chunk starts, block-wise per run from the (seed, i) substreams, so the
    values depend on the chunk widths as well as on the seed.  The chunk
    is then advanced in sub-blocks of at most _SUB_BLOCK columns, each one
    _simulate call that continues from the state the previous one left,
    and each sub-block's z is yielded as a (runs, columns) array as soon as
    it is computed: a consumer that stops pulling stops the advancing
    (estimate_arl's early exit).  A chunk's noise is drawn on every
    available core (_draw_blocks) with the same bits as on one.
    """
    sources = [model.noise(seed, run=i) for i in range(runs)]
    state = None
    for width in widths:
        v_all, eta_all = _draw_blocks(sources, width, model.n, model.p)
        for start in range(0, width, _SUB_BLOCK):
            block = (v_all[:, start:start + _SUB_BLOCK], eta_all[:, start:start + _SUB_BLOCK])
            _, z, state = _simulate(model, block, state=state)
            yield z
