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
implementation `advance`, and its one Monte-Carlo loop, `_simulate`, which
allocates one set of step buffers (`_StepBuffers`) per call, so that no
step allocates an array the size of the state.  The loop advances a
stream of noise rows from the origin or from where an earlier call
stopped: ensembles, whose lanes share one draw (sim.run_ensembles) and
whose run 0 it records as their trace (sim.EnsembleResult.first_run);
attack-free streams; and the blocks of `iter_distance_stream`, which the
ARL estimate can stop early.

Each run owns its (seed, run) noise substream (NoiseModel): one row of
n + p standard normals per step, multiplied by the plant's factors of R1
and R2 in whole tiles of _TILE steps aligned to step 0.  So step t's
noise depends only on (seed, run, t): a draw of T steps is the first T
steps of any longer one, however either is split into whole tiles, and
the draw's size is free.  Every run's noise is drawn run by run on the
calling thread (`_draw_blocks`): a fixed-length stream's steps in one
piece, and every other stream's by one generator (`_noise_pieces`),
each piece over the last in one buffer, in the consumer's size rule: an
ensemble pieces of at most _PIECE_BYTES, and the ARL stream pieces that
double from _TILE rows up to _PIECE_BYTES.  A piece is a time-major (rows, runs,
n + p) array whose last axis holds v, then eta, and the loop reads it
row by row, so each step copies its noise once, into every lane's
columns of one buffer, and z is written one (lanes * runs) row per step;
callers see z as its (lanes * runs, steps) transpose.

Each thread remembers one attack-free draw (`_AttackFreeDraw`), read-only,
so concurrent calls never read one another's: the last fixed-length
stream's noise and the last stream simulated on it.  Loops that share R1
and R2 simulate their streams from it without drawing again, and a
repeated stream is returned without simulating.  Every other draw
forgets it before it allocates.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from functools import cached_property

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

# Steps of one noise product: each run's normals are multiplied by the
# factors of R1 and R2 in tiles of this many rows, aligned to step 0.
_TILE = 64

# Bytes of noise drawn at once: an ensemble's pieces and the ARL stream's
# largest.
_PIECE_BYTES = 16 << 20


class _AttackFreeDraw(threading.local):
    """The calling thread's last fixed-length attack-free draw; every field None until set.

    key: (chol_r1, chol_r2, seed, runs), the plant's noise factors compared
    by value, so loops that share R1 and R2 share the draw.
    noise: the read-only time-major (rows, runs, n + p) draw of runs 0 ..
    runs - 1 from step 0.
    stream: (model, steps, burn_in, z), the last stream simulated on
    `noise`, keyed by the model object itself.
    """

    key = noise = stream = None

    def holds(self, model: ClosedLoopModel, runs: int, seed: int, rows: int) -> bool:
        """Whether the draw is of model's R1 and R2, `seed` and `runs`, with at least `rows` rows."""
        if self.key is None or self.key[2:] != (seed, runs) or len(self.noise) < rows:
            return False
        return (np.array_equal(self.key[0], model.plant.chol_r1)
                and np.array_equal(self.key[1], model.plant.chol_r2))


_attack_free = _AttackFreeDraw()


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


@dataclass(slots=True)
class NoiseModel:
    """Seeded Gaussian noise source for one run.

    Step t's noise is v_t = chol_r1 @ w_t[:n] and eta_t = chol_r2 @ w_t[n:],
    where w_t is row t of the (seed, run) substream's standard normals, n +
    p to a row.  The products are formed on tiles of _TILE rows aligned to
    step 0, each one BLAS product of one shape: the rows of a product over
    more rows can round differently (with two BLAS threads at n = 100), and
    so can those of one over fewer.  So step t's noise depends only on
    (seed, run, t), never on how the steps are split into calls of whole
    tiles: `blocks(64)` then `blocks(b)` is `blocks(64 + b)`.  A call that
    ends inside a tile forms the whole tile and hands out its first rows;
    it is the source's last, and a later call raises ValueError.  Ensemble
    members get independent, reproducible substreams regardless of
    scheduling order.
    """

    chol_r1: np.ndarray
    chol_r2: np.ndarray
    seed: int
    run: int = 0
    # None once a call has ended inside a tile: the rest of that tile's
    # normals are drawn, so the substream cannot go on
    _rng: np.random.Generator | None = field(init=False, repr=False)

    def __post_init__(self):
        if int(self.seed) < 0 or int(self.run) < 0:
            raise ValueError("seed and run index must be nonnegative integers")
        self._rng = np.random.default_rng((int(self.seed), int(self.run)))

    def blocks(self, steps: int, out=None):
        """The next `steps` steps of noise: v (steps, n), eta (steps, p).

        v and eta are the first n and the last p columns of one (steps,
        n + p) array: `out` when given (a run's slab of a draw,
        _draw_blocks), which the rows are written into, else a new one.
        Raises ValueError after a call whose steps ended inside a tile.
        """
        if self._rng is None:
            raise ValueError(f"the noise of run {self.run} ended inside a {_TILE}-step tile at the last call; "
                             "only a source's last call may ask for steps that are not whole tiles")
        n = self.chol_r1.shape[0]
        if out is None:
            out = np.empty((steps, n + self.chol_r2.shape[0]))
        whole = steps // _TILE * _TILE
        self._tiles(out[:whole])
        if whole < steps:
            out[whole:] = self._tiles(np.empty((_TILE, out.shape[1])))[:steps - whole]
            self._rng = None
        return out[:, :n], out[:, n:]

    def _tiles(self, out: np.ndarray) -> np.ndarray:
        """Fill `out`, (k * _TILE, n + p), with the next k tiles; return it.

        One batched matmul per factor makes one BLAS product per tile.
        """
        n = self.chol_r1.shape[0]
        normals = self._rng.standard_normal(out.shape).reshape(-1, _TILE, out.shape[1])
        tiles = out.reshape(normals.shape)  # a view: splitting the row axis never copies
        np.matmul(normals[..., :n], self.chol_r1.T, out=tiles[..., :n])
        np.matmul(normals[..., n:], self.chol_r2.T, out=tiles[..., n:])
        return out


def _draw_blocks(sources, buf: np.ndarray) -> np.ndarray:
    """Fill `buf`, one time-major (rows, runs, n + p) piece, run by run; return it.

    `buf` is allocated before any source is built (the first buffer of
    _noise_pieces, or simulate_distance_stream's one piece), so a draw too
    large to allocate fails before a source exists.  v and eta share the one allocation:
    two arrays freed at different times, with the thread's remembered
    draw and stream allocated between them, fragment the glibc heap and
    raise the peak resident size.  Step t of every run is then the
    contiguous row buf[t], which the simulation reads whole.

    Run i is one `sources[i].blocks` call, which writes the source's next
    rows into its slab buf[:, i].  The runs are drawn in order on the
    calling thread, so an error in any run's draw is raised from here.
    """
    for i in range(buf.shape[1]):
        sources[i].blocks(len(buf), buf[:, i])
    return buf


def distance_measure(model: ClosedLoopModel, r: np.ndarray):
    """z = r' Sigma^-1 r, clamped at zero against rounding. Vectorizes over columns."""
    shape = np.shape(r)
    z = _distance(model, r, np.empty(shape), np.empty(shape[1:]))
    return float(z) if z.ndim == 0 else z


def _distance(model: ClosedLoopModel, r, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """distance_measure of r written into z, with y = Sigma^-1 r formed in y; returns z."""
    np.matmul(model.sigma_inv, r, out=y)
    y *= r
    return np.maximum(y.sum(axis=0, out=z), 0.0, out=z)


class _StepBuffers:
    """The arrays advance writes, for states of `shape`, (n,) or (n, columns).

    Two (x, xhat) pairs, zeros at first, take the next state in turn, so
    a loop that hands each step the state the last one wrote (_simulate)
    reads one pair while the step writes the other.  r, K xhat, G K xhat,
    L r, e = x - xhat and y = Sigma^-1 r have one array each, which the
    error check reuses once the step has read them.  `z` is where the
    distance measures go: _simulate points it at its row of z before each
    step.
    """

    __slots__ = ("pairs", "turn", "r", "k_xhat", "gu", "l_r", "e", "y", "z")

    def __init__(self, model: ClosedLoopModel, shape: tuple):
        n, cols = shape[0], tuple(shape[1:])
        self.pairs = [(np.zeros((n, *cols)), np.zeros((n, *cols))) for _ in range(2)]
        self.turn = 0
        self.r, self.y = np.empty((model.p, *cols)), np.empty((model.p, *cols))
        self.k_xhat = np.empty((model.m, *cols))
        self.gu, self.l_r, self.e = (np.empty((n, *cols)) for _ in range(3))
        self.z = np.empty(cols)


def advance(model: ClosedLoopModel, x, xhat, v, eta, delta=None, lanes: int = 1, *, c_err=None,
            buffers: _StepBuffers | None = None):
    """One step of the closed loop with explicit noise (and optional attack).

    Works on single-run vectors (n,) or run-stacked matrices (n, runs);
    the noises and delta are stacked the same way, (p,) or (p, runs).
    `lanes` > 1 reads the columns as that many lanes of equal width side
    by side (sim.run_ensembles).  The noise must be as wide as the state,
    for one lane too, as the loop passes it (_simulate): a `lanes` that
    does not split the columns into equal lanes, or noise of another
    width, raises ValueError naming the lanes and the column count, under
    python -O too.  `c_err`, keyword only, is the product C (x - xhat)
    when the caller has formed it already, for the stealthy bias of the
    same step (_simulate): r is then c_err + eta.

    `buffers`, keyword only, is the _StepBuffers the step writes into:
    the next state into the pair after the one it wrote last, and z into
    `buffers.z`.  The loop allocates one set per call, so its steps
    allocate nothing the size of the state; a call without one builds a
    set of its own, whose arrays it returns.  Every product is the same
    BLAS call either way, so the bits are too.

    Unless python runs with -O, the step is checked against the
    closed-form error recursion, each lane against its own bound
    (_check_error).

    Returns:
        (x_next, xhat_next, r, z).
    """
    plant = model.plant
    runs = _lane_runs(lanes, x, v, eta)
    if buffers is None:
        buffers = _StepBuffers(model, x.shape)
    x_next, xhat_next = buffers.pairs[buffers.turn]
    buffers.turn ^= 1
    if c_err is None:
        e = np.subtract(x, xhat, out=buffers.e)
        r = np.matmul(plant.c, e, out=buffers.r)
        r += eta
    else:
        r = np.add(c_err, eta, out=buffers.r)
    if delta is not None:
        r += delta
    gu = np.matmul(plant.g, np.matmul(model.k_fb, xhat, out=buffers.k_xhat), out=buffers.gu)
    np.matmul(plant.f, x, out=x_next)
    x_next += gu
    x_next += v
    np.matmul(plant.f, xhat, out=xhat_next)
    xhat_next += gu
    xhat_next += np.matmul(model.l_gain, r, out=buffers.l_r)

    if __debug__:
        # e_{k+1} must match the closed-form error recursion
        # (F-LC) e - L eta + v - L delta regardless of how it was produced.
        # The check writes over what the step has read: e_form over G K
        # xhat, L eta and L delta over L r, and the error over e.
        if c_err is not None:
            e = np.subtract(x, xhat, out=buffers.e)
        e_form = np.matmul(model.f_est, e, out=buffers.gu)
        e_form -= np.matmul(model.l_gain, eta, out=buffers.l_r)
        e_form += v
        if delta is not None:
            e_form -= np.matmul(model.l_gain, delta, out=buffers.l_r)
        _check_error(x_next, xhat_next, e_form, lanes, runs, error=buffers.e, scratch=buffers.l_r)

    z = _distance(model, r, buffers.y, buffers.z)
    return x_next, xhat_next, r, float(z) if z.ndim == 0 else z


def _check_error(x_next, xhat_next, e_form, lanes: int, runs: int, error=None, scratch=None) -> None:
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
    fails.  `error` and `scratch`, arrays of x_next's shape when given,
    take the error and each |.| before its maximum (advance's buffers).
    """
    error = np.subtract(x_next, xhat_next, out=error)
    error -= e_form
    if lanes == 1:  # measured faster than the stacked per-lane form at n = 4 and at n = 100
        scale = (1.0 + float(np.abs(x_next, out=scratch).max(initial=0.0))
                 + float(np.abs(xhat_next, out=scratch).max(initial=0.0)))
        assert float(np.abs(error, out=scratch).max(initial=0.0)) <= 1e-10 * scale
        return
    if not runs:  # an empty batch
        return
    heads = np.abs(np.concatenate((x_next[:, ::runs], xhat_next[:, ::runs])))
    heads = heads.reshape(2, len(x_next), lanes).max(axis=1).tolist()
    least = min([1.0 + big + big_hat for big, big_hat in zip(*heads)])
    if float(np.abs(error, out=scratch).max()) <= 1e-10 * least:
        return
    # max |.| of x_next, xhat_next and the error over each lane's block, in one pass
    peaks = np.abs(np.stack((x_next, xhat_next, error)))
    peaks = peaks.reshape(3, len(x_next), lanes, -1).max(axis=(1, 3), initial=0.0).tolist()
    assert all(err <= 1e-10 * (1.0 + big + big_hat) for big, big_hat, err in zip(*peaks))


def _lane_runs(lanes: int, x, *noises) -> int:
    """The runs of each lane when x's columns are `lanes` equal lanes, else ValueError naming both.

    Each of `noises` must be as wide as x, else ValueError naming its
    width, the column count and the lanes.
    """
    cols = x.shape[1] if x.ndim == 2 else 1
    if lanes < 1 or cols % lanes:
        raise ValueError(f"lanes = {lanes} does not split the {cols} columns into equal lanes")
    for noise in noises:
        width = noise.shape[1] if noise.ndim == 2 else 1
        if width != cols:
            raise ValueError(f"noise of width {width} is not as wide as the {cols} columns of lanes = {lanes}")
    return cols // lanes


def _piece_rows(runs: int, columns: int) -> int:
    """Rows of the largest piece of whole tiles of `runs` runs within _PIECE_BYTES, at least one tile."""
    return max(1, _PIECE_BYTES // (8 * _TILE * columns * max(runs, 1))) * _TILE


def _noise_pieces(model: ClosedLoopModel, runs: int, seed: int, steps: int | None = None,
                  first: int | None = None):
    """Noise of runs 0..runs-1 from step 0, an iterator of time-major (rows, runs, n + p) pieces.

    Each piece has `first` rows more than were drawn before it, at most
    _piece_rows (the default of `first`), and the pieces end after `steps`
    rows in all (at least one piece, maybe empty), or never when `steps`
    is None.  So an ensemble's pieces have _piece_rows rows, and the ARL
    stream's (`first` = _TILE) have 64, 128, 256, ... rows up to
    _piece_rows; every piece but the last is whole tiles, as NoiseModel
    requires.  Slab [:, i] is run i's (seed, i) substream (_draw_blocks),
    so the first slabs of a draw are a smaller ensemble's draw.

    The thread's remembered draw is forgotten, and the first piece's
    buffer allocated, in this call; the sources are built when the first
    piece is taken.  Each piece is drawn over the last into a view of
    that buffer, which is replaced only by a larger one while the pieces
    grow, the old one let go first.  So a consumer reads each piece before
    it takes the next, and, reading it row by row as _simulate does,
    holds one buffer at a time.
    """
    _forget_noise()
    columns = model.n + model.p
    most = _piece_rows(runs, columns)
    first = most if first is None else first
    end = np.inf if steps is None else steps

    def pieces(buf):
        sources, drawn = [model.noise(seed, run=i) for i in range(runs)], 0
        while True:
            size = min(most, drawn + first, end - drawn)
            if size > len(buf):
                buf = None  # the outgrown buffer is let go before the next is allocated
                buf = _noise_buffer(size, runs, columns, size)
            yield _draw_blocks(sources, buf[:size])
            drawn += size
            if drawn >= end:
                return

    return pieces(_noise_buffer(min(most, first, end), runs, columns, steps or first))


def _noise_buffer(rows: int, runs: int, columns: int, steps: int) -> np.ndarray:
    """An empty (rows, runs, columns) buffer for a `steps`-step draw, else ValueError naming both."""
    try:
        return np.empty((rows, runs, columns))
    except (MemoryError, ValueError):  # ValueError: past what numpy can address
        raise ValueError(
            f"the noise of runs x steps = {runs} x {steps} is too large to allocate"
        ) from None


def _simulate(model: ClosedLoopModel, rows, steps: int, runs: int, attack=None, state=None,
              lanes: int = 1, record: bool = False):
    """Advance one trajectory per run and lane in lockstep, from `state` or the origin, for `steps` steps.

    `rows` is an iterator of time-major (runs, n + p) noise rows, one a
    step, of which the call reads the next `steps` (the rows of
    _noise_pieces), and which every lane shares: the state is one (n,
    lanes * runs) block whose columns l * runs .. (l + 1) * runs - 1 are
    lane l's runs.  No row is held once the step has copied it, so the
    piece behind a spent row can be drawn over or let go.  Each step
    copies its noise once, into every lane's columns of one (n + p,
    lanes * runs) buffer that the steps reuse (v over eta), and is one
    advance call with full-width noise, which writes into one set of step
    buffers (_StepBuffers) allocated per call, and its z straight into
    row t of z: no step allocates an array the size of the state.
    `attack(k, c_err, eta, z_past)`, when given, returns step k's sensor
    bias (or None) for the whole block from c_err = C (x - xhat), formed
    in a buffer of its own, which advance then reads too, the full-width
    (p, lanes * runs) sensor noise and the (lanes * runs, k - 1) z
    history.
    `state` is the (x, xhat) pair of (n, lanes * runs) matrices a previous
    call returned; it is read, never written.
    Returns (z, state, record): the distance measures, (lanes * runs,
    steps), a view of the time-major (steps, lanes * runs) rows the loop
    writes one step at a time; the final (x, xhat), a pair of the call's
    step buffers, which a later call continues from; and, when `record`
    is asked (ensembles), the pair (sum_x, first): each lane's across-run
    sum of each step's state, (lanes, steps, n), and each lane's run 0
    state at each step, (lanes, steps, n).  `first` and row l * runs of z are lane l's run 0 trace, so
    an ensemble's trace needs no one-run simulation of its own.  Without
    `record` the third item is None and neither is computed.
    """
    n, c = model.n, model.plant.c
    cols = lanes * runs
    step = _StepBuffers(model, (n, cols))
    # the origin is the zeros of the pair that the first step does not write
    x, xhat = step.pairs[1] if state is None else state
    if record:
        sum_x, first = np.empty((lanes, steps, n)), np.empty((lanes, steps, n))
    z = np.empty((steps, cols))
    block = np.empty((n + model.p, lanes, runs))
    v, eta = block[:n].reshape(n, cols), block[n:].reshape(model.p, cols)
    c_err = delta = None
    if attack is not None:
        c_err = np.empty((model.p, cols))
    for t in range(steps):
        np.copyto(block, next(rows).T[:, None])
        if attack is not None:
            np.matmul(c, np.subtract(x, xhat, out=step.e), out=c_err)
            delta = attack(t + 1, c_err, eta, z[:t].T)
        if record:
            sum_x[:, t] = x.reshape(n, lanes, runs).sum(axis=2).T
            first[:, t] = x[:, ::runs].T
        step.z = z[t]
        x, xhat, _, _ = advance(model, x, xhat, v, eta, delta, lanes, c_err=c_err, buffers=step)
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

    The noise is the thread's remembered draw (_AttackFreeDraw) when it is
    of the same R1 and R2, seed and runs and holds burn_in + steps rows,
    so a loop that shares R1 and R2, or a shorter stream, simulates
    without drawing again.  Otherwise the old draw is forgotten and
    burn_in + steps rows are drawn in one piece (_draw_blocks), and
    remembered.  The last stream simulated on the draw is remembered with it: a call with the
    same model object, steps and burn_in returns it again without
    simulating, so detectors measured on one stream share one simulation.
    Every other noise draw of the thread (run_ensemble,
    iter_distance_stream) forgets both.  The returned array is read-only.
    """
    if steps < 0 or burn_in < 0:
        raise ValueError("steps and burn_in must be nonnegative")
    if runs < 1:
        raise ValueError("runs must be >= 1")
    total, memo = burn_in + steps, _attack_free
    if not memo.holds(model, runs, seed, total):
        _forget_noise()  # let the old draw go before the new one is allocated
        noise = _noise_buffer(total, runs, model.n + model.p, total)
        _draw_blocks([model.noise(seed, run=i) for i in range(runs)], noise)
        noise.flags.writeable = False  # its views cannot be made writeable either
        memo.key, memo.noise = (model.plant.chol_r1, model.plant.chol_r2, seed, runs), noise
    elif memo.stream is not None and memo.stream[0] is model and memo.stream[1:3] == (steps, burn_in):
        return memo.stream[3]
    memo.stream = None  # drop the old z before the new one
    z = _simulate(model, iter(memo.noise), total, runs)[0]
    z.base.flags.writeable = False  # the time-major rows: no view of them can be made writeable
    z.flags.writeable = False
    memo.stream = (model, steps, burn_in, z[:, burn_in:])
    return memo.stream[3]


def _forget_noise() -> None:
    """Drop the calling thread's remembered draw and the stream simulated on it."""
    _attack_free.key = _attack_free.noise = _attack_free.stream = None


def iter_distance_stream(model: ClosedLoopModel, widths, runs: int = 1, seed: int = 0):
    """Attack-free distance measures of one ensemble, block by block.

    Continues the same trajectories from the origin, one block per width
    in `widths`: each block is one _simulate call that continues from the
    state the previous one left, and its z is yielded as a (runs, width)
    array, a view of its time-major rows, as soon as it is computed.  Run
    i reads its (seed, i) substream, whose step t does not depend on the
    widths, so the blocks join into the stream of their summed width
    (simulate_distance_stream).

    The blocks read one stream of noise rows, drawn ahead of them in
    pieces of 64, 128, 256, ... rows up to _piece_rows (_noise_pieces),
    and the thread's remembered draw is forgotten before the first.  The
    pieces grow in a new buffer each, the last let go first, and then are
    drawn over one another in the largest; none is kept.  So a consumer
    that stops pulling (estimate_arl's early exit) stops the advancing
    and the drawing, a long run makes few draws, and the stream holds one
    buffer of noise at a time.
    """
    rows = itertools.chain.from_iterable(_noise_pieces(model, runs, seed, first=_TILE))
    state = None
    for width in widths:
        z, state, _ = _simulate(model, rows, width, runs, state=state)
        yield z
