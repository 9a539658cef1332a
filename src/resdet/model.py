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

This module owns model construction and validation (stability
certificates, residual covariance, and a stealthy attack's deviation map
M with the top eigenpair of M'M, which each loop solves once, on first
use, and keeps read-only), the one reader of a scenario document's
matrices (`closed_loop_from_document`), the single dynamics
implementation `advance`, and its one Monte-Carlo loop, `_simulate`.  The
loop advances a noise draw from the origin or from where an earlier call
stopped: ensembles, whose lanes share one draw (sim.run_ensembles) and
whose run 0 it records as their trace (sim.EnsembleResult.first_run);
attack-free streams; and the sub-blocks of `iter_distance_stream`, which
the ARL estimate can stop early.  Each run owns its (seed, run) noise
substream, drawn with the plant's factors of R1 and R2 on every core
(`_draw_blocks`), so no value depends on the core count.  The loop takes
a draw in one form: a time-major (steps, runs, n + p) array whose last
axis holds v, then eta, so each step copies its noise once, into every
lane's columns of one buffer, and z is written one (lanes * runs) row per
step; callers see z as its (lanes * runs, steps) transpose.  Ensembles and
fixed-length streams draw that array whole (`_noise_buffer`).
`iter_distance_stream` draws each chunk only as far as it reads it
(`_LazyChunk`): every run's v at the chunk's start, eta in doubling
draws, with the bits of the whole draw, and each sub-block assembled
from the two.

Two things are remembered, read-only and per thread (`_Remembered`), so
concurrent calls never read one another's draws: the last attack-free
stream (`simulate_distance_stream`), and one noise family of attack-free
draws (`_attack_free_noise`), which loops that share R1 and R2 and a
repeated ARL estimate read without drawing again.  Every draw forgets the
thread's stream before it allocates; a draw of another family or of an
ensemble (`_draw_noise`) forgets its family too.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from functools import cached_property, partial

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

# Fewest rows of one eta draw of a lazy chunk narrower than the chunk: the
# rows of a BLAS product of fewer rows can round differently.
_LAZY_ROWS = 64


class _Remembered(threading.local):
    """The attack-free draws' memos, one set per thread, each None until set.

    stream: (model, (steps, runs, seed, burn_in), z) of the last
    simulate_distance_stream call, keyed by the model object itself.
    family: the _NoiseFamily the attack-free draws last came from.
    """

    stream = None
    family = None


_remembered = _Remembered()

# Chunks a noise family remembers: a fixed-length stream is one chunk, an
# ARL estimate's warm-up and first full chunk are two.
_FAMILY_CHUNKS = 2


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
    symmetric positive definite.  The checks' factors, each with
    chol @ chol' = R, are kept for every noise draw: `chol_r1`
    (numerics.psd_factor) and `chol_r2` (Cholesky).
    """

    f: np.ndarray
    g: np.ndarray
    c: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    chol_r1: np.ndarray = field(init=False, repr=False, compare=False)
    chol_r2: np.ndarray = field(init=False, repr=False, compare=False)

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
        chol_r1 = numerics.psd_factor(r1)  # raises if R1 is not PSD
        r2 = _as_matrix(self.r2, p, p, "R2")
        if np.abs(r2 - r2.T).max() > 1e-9 * max(1.0, float(np.abs(r2).max())):
            raise ValueError("R2 must be symmetric")
        r2 = 0.5 * (r2 + r2.T)
        try:
            chol_r2 = np.linalg.cholesky(r2)
        except np.linalg.LinAlgError:
            raise ValueError("R2 must be positive definite") from None
        for name, arr in (("f", f), ("g", g), ("c", c), ("r1", r1), ("r2", r2),
                          ("chol_r1", chol_r1), ("chol_r2", chol_r2)):
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
        return NoiseModel(self.plant.chol_r1, self.plant.chol_r2, seed=seed, run=run)

    @cached_property
    def deviation_map(self) -> np.ndarray:
        """The (n, p) map M from a stealthy attacker's psi to the steady-state mean state.

        M = (I - F - G K)^{-1} G K (I - F)^{-1} L Sigma^{1/2}, solved on
        first access and kept, read-only.  It needs a stable plant and
        closed loop (both inverses exist and the attacked error recursion,
        which loses the estimator correction, converges); a loop without
        them raises ValueError on every access and keeps nothing.
        """
        plant = self.plant
        for name, rho in (("F", numerics.spectral_radius(plant.f)), ("F+GK", self.rho_cl)):
            if rho >= 1.0:
                raise ValueError(
                    f"stability precondition violated: spectral radius of {name} is {rho:.6g} >= 1"
                )
        eye = np.eye(plant.n)
        try:
            inner = np.linalg.solve(eye - plant.f, self.l_gain @ self.sigma_sqrt)
            m_mat = np.linalg.solve(eye - self.f_cl, plant.g @ (self.k_fb @ inner))
        except np.linalg.LinAlgError as exc:
            raise ValueError(f"stability precondition violated: {exc}") from None
        if not np.all(np.isfinite(m_mat)):
            raise ValueError("stability precondition violated: deviation map is not finite")
        return _read_only(m_mat)

    @cached_property
    def worst_eigenpair(self):
        """(nu1, lambda1), the top eigenpair of M'M, kept like M: unit v = nu1 maximizes ||M v||."""
        m_mat = self.deviation_map
        lam, nu1 = numerics.max_eigenpair(m_mat.T @ m_mat)
        return _read_only(nu1), lam


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A copy of `arr` that cannot be made writeable: a view of a read-only copy."""
    owner = np.array(arr)
    owner.flags.writeable = False
    return owner.view()


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
        plant=plant, k_fb=k_arr, l_gain=l_arr, p_pred=p_pred, sigma=sigma,
        sigma_sqrt=numerics.psd_sqrt(sigma), sigma_inv=sigma_inv, f_cl=f_cl, f_est=f_est,
        rho_cl=rho_cl, rho_est=rho_est,
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
    one style per NoiseModel instance.  `blocks(w)` is `v_rows` of w
    rows, then `eta_rows` of w rows, so a lazy chunk (`_LazyChunk`) that
    calls them itself draws the same normals.

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

    def blocks(self, steps: int, out=None):
        """Pre-generated noise for `steps` steps: v (steps, n), eta (steps, p).

        v and eta are the first n and the last p columns of one (steps,
        n + p) array: `out` when given (a run's slab of a draw,
        _draw_blocks), which the products are written into, else a new one.
        """
        n, p = self.chol_r1.shape[0], self.chol_r2.shape[0]
        if out is None:
            out = np.empty((steps, n + p))
        v, eta = out[:, :n], out[:, n:]
        return self.v_rows(v), self.eta_rows(eta)

    def v_rows(self, out):
        """Fill `out`, (steps, n), with the next steps of v; return it."""
        return np.matmul(self._rng.standard_normal((len(out), self.chol_r1.shape[1])), self.chol_r1.T,
                         out=out)

    def eta_rows(self, out):
        """Fill `out`, (steps, p), with the next steps of eta; return it."""
        return np.matmul(self._rng.standard_normal((len(out), self.chol_r2.shape[1])), self.chol_r2.T,
                         out=out)


def _draw_blocks(fills, buf: np.ndarray) -> np.ndarray:
    """Fill `buf`, one (width, runs, columns) draw, run by run; return it.

    The caller allocates `buf` before it builds any source, so a draw too
    large to allocate fails before a source exists.  A whole draw
    (`_whole_fills`) puts v and eta in the one time-major allocation: two
    arrays freed at different times, around a remembered stream, fragment
    the glibc heap and raise the peak resident size.  Step t of every run
    is then the contiguous block buf[t], which the simulation reads whole.

    Run i is one `fills[i](buf[:, i])` call, which writes its source's
    next products into its slab, so the values do not depend on which
    thread draws them.  The runs are split into one contiguous slice
    per CPU (never more slices than runs); the calling thread draws the
    first slice and one thread started here draws each other slice, in
    parallel because numpy releases the interpreter lock while it fills
    normals and multiplies.  Every thread is joined before this returns,
    and the first exception raised in any slice is raised here.  A one-run
    draw starts no thread.
    """
    runs = buf.shape[1]
    errors = []

    def fill(lo: int, hi: int) -> None:
        try:
            for i in range(lo, hi):
                fills[i](buf[:, i])
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
    return buf


def distance_measure(model: ClosedLoopModel, r: np.ndarray):
    """z = r' Sigma^-1 r, clamped at zero against rounding. Vectorizes over columns."""
    y = model.sigma_inv @ r
    y *= r
    z = np.maximum(y.sum(axis=0), 0.0)
    return float(z) if np.ndim(z) == 0 else z


def advance(model: ClosedLoopModel, x, xhat, v, eta, delta=None, lanes: int = 1, *, c_err=None):
    """One step of the closed loop with explicit noise (and optional attack).

    Works on single-run vectors (n,) or run-stacked matrices (n, runs);
    the noises and delta are stacked the same way, (p,) or (p, runs).
    `lanes` > 1 reads the columns as that many lanes of equal width side
    by side (sim.run_ensembles).  The noises are then full width, as the
    loop passes them (_simulate), or one lane wide, which is shared by
    every lane and tiled across them; a `lanes` that does not split the
    columns into equal lanes, or noise of neither width, raises
    ValueError naming the lanes and the column count, under python -O
    too.  `c_err`, keyword only, is the product C (x - xhat) when the
    caller has formed it already, for the stealthy bias of the same step
    (_simulate): r is then c_err + eta.

    Unless python runs with -O, the step is checked against the
    closed-form error recursion, each lane against its own bound
    (_check_error).

    Returns:
        (x_next, xhat_next, r, z).
    """
    plant = model.plant
    runs = None
    if lanes != 1:
        runs = _lane_runs(lanes, x)
        v, eta = _lane_noise(v, lanes, runs), _lane_noise(eta, lanes, runs)
    if c_err is None:
        e = x - xhat
        r = plant.c @ e
        r += eta
    else:
        r = c_err + eta
    if delta is not None:
        r += delta
    gu = plant.g @ (model.k_fb @ xhat)
    x_next = plant.f @ x
    x_next += gu
    x_next += v
    xhat_next = plant.f @ xhat
    xhat_next += gu
    xhat_next += model.l_gain @ r

    if __debug__:
        # e_{k+1} must match the closed-form error recursion
        # (F-LC) e - L eta + v - L delta regardless of how it was produced.
        if c_err is not None:
            e = x - xhat
        e_form = model.f_est @ e
        e_form -= model.l_gain @ eta
        e_form += v
        if delta is not None:
            e_form -= model.l_gain @ delta
        _check_error(x_next, xhat_next, e_form, lanes, runs)

    return x_next, xhat_next, r, distance_measure(model, r)


def _check_error(x_next, xhat_next, e_form, lanes: int, runs) -> None:
    """Assert that x_next - xhat_next is e_form to 1e-10 of each lane's bound.

    A lane's bound is 1 + max |x_next| + max |xhat_next| over its columns.
    One lane takes the three maxima in one pass each.  Lanes side by side
    (`runs` columns each) are checked in two stages with the same pass
    set.  Stage 1 holds the largest |error| of all columns to the least
    of the bounds taken over each lane's run-0 column alone, summed in the
    same order: a sum of smaller terms rounds no larger, so no lane's own
    bound is below it, and a pass is every lane's pass.  An error of NaN,
    which any NaN in x_next or xhat_next makes, fails stage 1.  Stage 2,
    every lane's maxima against its own bound, runs only when stage 1
    fails.
    """
    error = x_next - xhat_next
    error -= e_form
    if lanes == 1:  # measured faster than the stacked per-lane form at n = 4 and at n = 100
        scale = 1.0 + float(np.abs(x_next).max(initial=0.0)) + float(np.abs(xhat_next).max(initial=0.0))
        assert float(np.abs(error).max(initial=0.0)) <= 1e-10 * scale
        return
    if not runs:  # an empty batch
        return
    heads = np.abs(np.concatenate((x_next[:, ::runs], xhat_next[:, ::runs])))
    heads = heads.reshape(2, len(x_next), lanes).max(axis=1).tolist()
    least = min([1.0 + big + big_hat for big, big_hat in zip(*heads)])
    if float(np.abs(error).max()) <= 1e-10 * least:
        return
    # max |.| of x_next, xhat_next and the error over each lane's block, in one pass
    peaks = np.abs(np.stack((x_next, xhat_next, error)))
    peaks = peaks.reshape(3, len(x_next), lanes, -1).max(axis=(1, 3), initial=0.0).tolist()
    assert all(err <= 1e-10 * (1.0 + big + big_hat) for big, big_hat, err in zip(*peaks))


def _lane_runs(lanes: int, x) -> int:
    """The runs of each lane when x's columns are `lanes` equal lanes, else ValueError naming both."""
    cols = x.shape[1] if x.ndim == 2 else 1
    if lanes < 1 or cols % lanes:
        raise ValueError(f"lanes = {lanes} does not split the {cols} columns into equal lanes")
    return cols // lanes


def _lane_noise(noise, lanes: int, runs: int):
    """Noise of `lanes` lanes of `runs` runs: full-width noise as it is, one lane's tiled across them.

    Noise of any other width raises ValueError naming the lanes and the
    column count.
    """
    width = noise.shape[-1]
    if width == lanes * runs:
        return noise
    if width != runs:
        raise ValueError(f"noise {width} columns wide is neither the {lanes * runs} columns "
                         f"nor one of lanes = {lanes}")
    return np.tile(noise, lanes)


def _draw_noise(model: ClosedLoopModel, steps: int, runs: int, seed: int):
    """Noise of runs 0..runs-1 through `steps` steps, one time-major (steps, runs, n + p) array.

    Slab [:, i] is run i's (seed, i) substream, drawn on every core
    (_draw_blocks) with the same bits as on one, so the first slabs of a
    draw are a smaller ensemble's draw.  The remembered stream and noise
    family are forgotten before the draw is allocated.
    """
    _forget_noise()
    buf = _noise_buffer(steps, runs, model.n + model.p)
    return _draw_blocks(_whole_fills([model.noise(seed, run=i) for i in range(runs)], steps), buf)


def _whole_fills(sources, width: int) -> list:
    """The _draw_blocks fills that draw each source's next `width` steps whole, v over eta."""
    return [partial(source.blocks, width) for source in sources]


def _noise_buffer(steps: int, runs: int, columns: int, run_major: bool = False) -> np.ndarray:
    """An empty (steps, runs, columns) noise buffer, else ValueError naming the runs and steps.

    The buffer is time-major, or, when `run_major`, the transposed view of
    a (runs, steps, columns) array, whose run slabs are contiguous.
    """
    try:
        if run_major:
            return np.empty((runs, steps, columns)).transpose(1, 0, 2)
        return np.empty((steps, runs, columns))
    except (MemoryError, ValueError):  # ValueError: past what numpy can address
        raise ValueError(
            f"the noise of runs x steps = {runs} x {steps} is too large to allocate"
        ) from None


@dataclass
class _NoiseFamily:
    """The per-run noise sources of one attack-free ensemble and its first chunks.

    The key is the values of the plant's noise factors (`plant` is the
    first loop's), the seed and the run count, so loops that share R1 and
    R2 share the family.  `sources` stand after the `drawn` chunks started
    from them, less any eta that the last one, a _LazyChunk, has not drawn
    yet; `kept` holds the first _FAMILY_CHUNKS of those chunks, each a
    read-only time-major (width, runs, n + p) draw or a _LazyChunk.  A
    draw that fails stops the sources part-way, so the thread forgets the
    family if it remembers it.
    """

    plant: PlantModel
    seed: int
    runs: int
    sources: list = None
    drawn: int = 0
    kept: list = field(default_factory=list)

    def serves(self, model: ClosedLoopModel, runs: int, seed: int) -> bool:
        return (self.seed == seed and self.runs == runs
                and np.array_equal(self.plant.chol_r1, model.plant.chol_r1)
                and np.array_equal(self.plant.chol_r2, model.plant.chol_r2))

    def draw(self, model: ClosedLoopModel, width: int, lazy: bool = False):
        """The sources' next `width` steps, kept while fewer than _FAMILY_CHUNKS are.

        The chunk is drawn whole, or, when `lazy`, as a _LazyChunk.
        """
        buf = self.buffer(width, model.n if lazy else model.n + model.p, run_major=lazy)
        if self.sources is None:
            self.sources = [model.noise(self.seed, run=i) for i in range(self.runs)]
        if lazy:
            noise = _LazyChunk(self, self.fill([source.v_rows for source in self.sources], buf), model.p)
        else:
            noise = self.fill(_whole_fills(self.sources, width), buf)
        self.drawn += 1
        if len(self.kept) < _FAMILY_CHUNKS:
            self.kept.append(noise)
        return noise

    def buffer(self, steps: int, columns: int, run_major: bool = False) -> np.ndarray:
        """An empty (steps, runs, columns) buffer (_noise_buffer), allocated after the stream is forgotten."""
        _remembered.stream = None
        return _noise_buffer(steps, self.runs, columns, run_major)

    def fill(self, fills, buf: np.ndarray) -> np.ndarray:
        """`buf` filled by _draw_blocks(fills, buf) and made read-only; a failure forgets the family."""
        try:
            _draw_blocks(fills, buf)
        except BaseException:
            if _remembered.family is self:  # its sources stopped part-way
                _forget_noise()
            raise
        if buf.base is not None:  # a run-major buffer's owner
            buf.base.flags.writeable = False
        buf.flags.writeable = False  # its views cannot be made writeable either
        return buf


class _LazyChunk:
    """A chunk of a noise family that draws eta only as far as it is read.

    It reads like the time-major (width, runs, n + p) array of a whole
    draw: `len` is the width, and a slice of steps is a new time-major
    array of v over eta, one _simulate input.  Each run's v block is drawn
    when the chunk starts, into `v`, a (width, runs, n) view whose run
    slabs are contiguous: time-major v rows are 8 * runs * n bytes apart,
    and at 400 runs and n = 4 (12,800 bytes) the fill took about a third
    longer.  Eta is drawn when a slice first reaches past the drawn depth,
    for every run at once, by draws that double the depth, take at least
    _LAZY_ROWS rows, and run to the chunk's end rather than leave fewer
    than _LAZY_ROWS.  So run i's source makes the calls of one
    NoiseModel.blocks(width) in the same order, and no eta product spans
    fewer than _LAZY_ROWS rows unless the chunk does: a product of fewer
    rows can round differently (a one-row product goes to gemv).  The
    drawn rows stay, read-only, in `eta`, one (rows, runs, p) array per
    draw, so a later reader of a kept chunk extends them.  Only the
    family's last chunk has eta left to draw.
    """

    def __init__(self, family: _NoiseFamily, v: np.ndarray, p: int):
        self.family, self.v, self.p = family, v, p
        self.eta = []
        self.depth = 0

    def __len__(self) -> int:
        return len(self.v)

    def __getitem__(self, steps: slice) -> np.ndarray:
        lo, hi, _ = steps.indices(len(self))
        while self.depth < hi:
            self._draw_eta()
        n = self.v.shape[2]
        out = np.empty((hi - lo, self.v.shape[1], n + self.p))
        out[:, :, :n] = self.v[lo:hi]
        start = 0
        for eta in self.eta:
            a, b = max(lo, start), min(hi, start + len(eta))
            if a < b:
                out[a - lo:b - lo, :, n:] = eta[a - start:b - start]
            start += len(eta)
        return out

    def _draw_eta(self) -> None:
        width, family = len(self), self.family
        depth = min(width, max(2 * self.depth, _LAZY_ROWS))
        if width - depth < _LAZY_ROWS:
            depth = width
        buf = family.buffer(depth - self.depth, self.p)
        self.eta.append(family.fill([source.eta_rows for source in family.sources], buf))
        self.depth = depth


def _attack_free_noise(model: ClosedLoopModel, widths, runs: int, seed: int, lazy: bool = False):
    """The noise of each chunk of `widths` in turn, from the family of (model, seed, runs).

    A chunk the family keeps is handed out as it is, read-only, whole or
    lazy.  Any other is drawn from the family's sources, whole or, when
    `lazy`, as a _LazyChunk, when they stand right after this consumer's
    earlier chunks.  When they have moved past them (another consumer drew
    further), or the family was forgotten or serves another key, the
    family restarts: the old one and the remembered stream are forgotten,
    and new sources draw this consumer's earlier chunks again, whole,
    before this one.  A consumer reads each chunk to its end before it
    asks for the next, so a lazy chunk has drawn all its eta before the
    sources draw on.  Run i reads its (seed, i) substream in the same
    chunk widths on every path, so the bits do not depend on the path.
    """
    family = _remembered.family
    family = family if family is not None and family.serves(model, runs, seed) else None
    past = []
    for index, width in enumerate(widths):
        current = family is not None and family is _remembered.family
        if current and index < len(family.kept) and len(family.kept[index]) == width:
            noise = family.kept[index]
        elif current and family.drawn == index:
            noise = family.draw(model, width, lazy)
        else:
            _forget_noise()
            family = _remembered.family = _NoiseFamily(model.plant, seed, runs)
            for earlier in past:
                family.draw(model, earlier)
            noise = family.draw(model, width, lazy)
        past.append(width)
        yield noise


def _simulate(model: ClosedLoopModel, noise, attack=None, state=None, lanes: int = 1,
              record: bool = False):
    """Advance one trajectory per run of `noise` and lane in lockstep, from `state` or the origin.

    `noise` is a time-major (steps, runs, n + p) draw (_draw_noise), which
    every lane shares: the state is one (n, lanes * runs) block whose
    columns l * runs .. (l + 1) * runs - 1 are lane l's runs.  Each step
    copies its noise once, into every lane's columns of one (n + p,
    lanes * runs) buffer that the steps reuse (v over eta), and is one
    advance call with full-width noise.  `attack(k, c_err, eta, z_past)`,
    when given, returns step k's sensor bias (or None) for the whole
    block from c_err = C (x - xhat), which advance then reads too, the
    full-width (p, lanes * runs) sensor noise and the (lanes * runs, k - 1)
    z history.
    `state` is the (x, xhat) pair of (n, lanes * runs) matrices a previous
    call returned.
    Returns (z, state, record): the distance measures, (lanes * runs,
    steps), a view of the time-major (steps, lanes * runs) rows the loop
    writes one step at a time; the final (x, xhat), which a later call
    continues from; and, when `record` is asked (ensembles), the pair
    (sum_x, first): each lane's across-run sum of each step's state,
    (lanes, steps, n), and each lane's run 0 state at each step, (lanes,
    steps, n).  `first` and row l * runs of z are lane l's run 0 trace, so
    an ensemble's trace needs no one-run simulation of its own.  Without
    `record` the third item is None and neither is computed.
    """
    steps, runs, width = noise.shape
    n, c = model.n, model.plant.c
    cols = lanes * runs
    x, xhat = (np.zeros((n, cols)), np.zeros((n, cols))) if state is None else state
    if record:
        sum_x, first = np.empty((lanes, steps, n)), np.empty((lanes, steps, n))
    z = np.empty((steps, cols))
    block = np.empty((width, lanes, runs))
    v, eta = block[:n].reshape(n, cols), block[n:].reshape(width - n, cols)
    for t in range(steps):
        np.copyto(block, noise[t].T[:, None])
        c_err = delta = None
        if attack is not None:
            c_err = c @ (x - xhat)
            delta = attack(t + 1, c_err, eta, z[:t].T)
        if record:
            sum_x[:, t] = x.reshape(n, lanes, runs).sum(axis=2).T
            first[:, t] = x[:, ::runs].T
        x, xhat, _, z[t] = advance(model, x, xhat, v, eta, delta, lanes, c_err=c_err)
    return z.T, (x, xhat), ((sum_x, first) if record else None)


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

    The last stream is remembered, per thread: a call with the same model
    object, steps, runs, seed and burn_in returns it again without
    simulating, so detectors measured on one stream share one simulation.
    The thread's next noise draw of any simulation (run_ensemble,
    iter_distance_stream, another stream) forgets it.  The returned array
    is read-only.

    The noise is one chunk of the noise family (_attack_free_noise), so a
    loop with the same R1 and R2 simulates from the remembered draw.
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    key = (steps, runs, seed, burn_in)
    last = _remembered.stream
    if last is not None and last[0] is model and last[1] == key:
        return last[2]
    _remembered.stream = None  # a remembered chunk is no draw: drop the old z before the new one
    noise = next(_attack_free_noise(model, [burn_in + steps], runs, seed))
    z = _simulate(model, noise[:])[0]  # a lazy chunk that an ARL estimate left is read whole
    z.base.flags.writeable = False  # the time-major rows: no view of them can be made writeable
    z.flags.writeable = False
    _remembered.stream = (model, key, z[:, burn_in:])
    return _remembered.stream[2]


def _forget_noise() -> None:
    """Drop the calling thread's remembered stream and noise family."""
    _remembered.stream = _remembered.family = None


def iter_distance_stream(model: ClosedLoopModel, widths, runs: int = 1, seed: int = 0):
    """Attack-free distance measures of one ensemble, sub-block by sub-block.

    Continues the same trajectories from the origin through one noise
    chunk per width in `widths`.  Each chunk's noise is block-wise per run
    from the (seed, i) substreams, with the bits of one
    NoiseModel.blocks(width) call per run and chunk, so the values depend
    on the chunk widths as well as on the seed.  The chunk is advanced in
    sub-blocks of at most _SUB_BLOCK steps, each one _simulate call on the
    chunk's next steps that continues from the state the previous one
    left, and each sub-block's z is yielded as a (runs, columns) array, a
    view of its time-major rows, as soon as it is computed.  The noise is
    drawn only as far as it is read (_LazyChunk): every run's v when the
    chunk starts, and eta in doubling draws as the sub-blocks reach it.  A
    consumer that stops pulling (estimate_arl's early exit) stops the
    advancing and leaves most of the chunk's eta undrawn.  Every draw runs
    on every available core (_draw_blocks) with the same bits as on one.

    The chunks come from the noise family (_attack_free_noise), which keeps
    the first two, with the eta drawn so far, for the next stream of the
    same R1, R2, seed and runs.
    """
    state = None
    for noise in _attack_free_noise(model, widths, runs, seed, lazy=True):
        for start in range(0, len(noise), _SUB_BLOCK):
            z, state, _ = _simulate(model, noise[start:start + _SUB_BLOCK], state=state)
            yield z
