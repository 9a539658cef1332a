"""Residual-based anomaly detectors over the distance measure z_k.

Three detectors monitor the whitened residual energy z_k = r_k' Sigma^-1 r_k
(chi-squared with p degrees of freedom when no attack is present):

* static chi-squared: alarm when z_k > alpha;
* windowed chi-squared: alarm when the sum of the last ell values exceeds
  beta (chi-squared with p*ell degrees of freedom attack-free);
* CUSUM: S_k accumulates z_k - b clamped at zero; the alarm is declared on
  the update after S exceeds tau, consuming that sample in the reset.

Alarms use strict inequality; a statistic exactly at its threshold is not
an alarm.  Thresholds for the first two come in closed form from the
inverse regularized lower incomplete gamma function; the CUSUM threshold
has no closed form and is tuned by Monte-Carlo bisection on simulated
attack-free streams.

Each detector class carries its thresholds (`kind`, `params`) and defines
its semantics once, by `scan`: a vectorized pass over (runs, steps) arrays
that resumes from a carry (the window tail, the CUSUM statistic), so a
stream can be scanned block by block.  `update` is the same scan fed one z
at a time: one column, resuming from the carry of the last call.  Tuning,
Monte-Carlo estimation and the simulation loop use only the scans; tests
hold them to the per-sample state machines kept in tests/reference.py.

The three Monte-Carlo estimators (tune_cusum_tau, measure_alarm_rate,
estimate_arl) count alarms or exceedances on their attack-free stream
block by block, through _scan_blocks.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import model as model_mod
from . import numerics

__all__ = [
    "AlarmEvent",
    "ChiSqDetector",
    "WindowedChiSqDetector",
    "CusumDetector",
    "tune_chi2",
    "tune_windowed",
    "tune_cusum_tau",
    "scan_chi2",
    "scan_windowed",
    "scan_cusum",
    "measure_alarm_rate",
    "estimate_arl",
    "RateEstimate",
    "ArlResult",
]

# Rates below this are solved on the chi-squared upper tail (tune_windowed).
_UPPER_TAIL_RATE = 1e-6

# Steps the Monte-Carlo estimators scan at a time (_scan_blocks): the
# statistics any of them holds, and how far estimate_arl can run past the
# last run's exceedance.
_SCAN_BLOCK = 64


@dataclass(frozen=True)
class AlarmEvent:
    """A raised alarm: the step blamed (k_star), detector kind, statistic value."""

    k_star: int
    kind: str
    statistic: float


class _Detector:
    """What every detector offers besides `scan`.

    `params` holds the thresholds under their constructor names.
    `exceedance` marks the columns where the statistic first crosses its
    threshold, the end of a run length.
    """

    kind: str
    k = 0
    _carry = None

    def exceedance(self, stat: np.ndarray, alarm: np.ndarray) -> np.ndarray:
        return alarm

    def _update(self, z: float, lagged: bool = False) -> Optional[AlarmEvent]:
        """`update`: z scanned as one column from the last call's carry, kept with the count k."""
        if z < 0:
            raise ValueError(f"distance measure must be nonnegative, got {z}")
        self.k += 1
        carry = self._carry
        stat, alarm, self._carry = self.scan(np.array([[float(z)]]), carry)
        if not alarm[0, 0]:
            return None
        if lagged:  # the CUSUM's alarm blames the exceedance step, S before the reset
            return AlarmEvent(k_star=self.k - 1, kind=self.kind, statistic=float(carry[0]))
        return AlarmEvent(k_star=self.k, kind=self.kind, statistic=float(stat[0, 0]))


class ChiSqDetector(_Detector):
    """Static chi-squared detector: alarm iff z > alpha, memoryless."""

    kind = "chi2"

    def __init__(self, alpha: float):
        if not (0 < alpha < math.inf):
            raise ValueError(f"alpha must be positive and finite, got {alpha}")
        self.alpha = float(alpha)

    @property
    def params(self) -> dict:
        return {"alpha": self.alpha}

    def update(self, z: float) -> Optional[AlarmEvent]:
        return self._update(z)

    def scan(self, z, carry=None):
        """(stat, alarm, carry); memoryless, so the carry stays None."""
        stat, alarm = scan_chi2(z, self.alpha)
        return stat, alarm, None


class WindowedChiSqDetector(_Detector):
    """Sliding-window chi-squared detector: alarm iff sum of last ell z's > beta.

    Alarms are suppressed until the window is full (the first ell - 1
    steps), so every evaluated statistic has the full chi-squared(p*ell)
    null distribution.  Before the window fills, the sum is partial.
    """

    kind = "windowed"

    def __init__(self, beta: float, ell: int):
        if not (0 < beta < math.inf):
            raise ValueError(f"beta must be positive and finite, got {beta}")
        if int(ell) < 1:
            raise ValueError("window must be >= 1")
        try:
            float(ell)  # attacks budget beta / ell per step
        except OverflowError:
            raise ValueError("window is too large to convert to a float") from None
        self.beta = float(beta)
        self.ell = int(ell)

    @property
    def params(self) -> dict:
        return {"beta": self.beta, "ell": self.ell}

    def update(self, z: float) -> Optional[AlarmEvent]:
        return self._update(z)

    def scan(self, z, carry=None):
        """(stat, alarm, carry); the carry is a copy of the last (up to) ell - 1 samples seen.

        A copy, so that it keeps no block of z alive.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        seen = z if carry is None else np.concatenate([carry, z], axis=1)
        stat, alarm = scan_windowed(seen, self.ell, self.beta)
        lead = seen.shape[1] - z.shape[1]  # the carried columns fill the window only
        tail = seen[:, max(0, seen.shape[1] - self.ell + 1):]
        return stat[:, lead:], alarm[:, lead:], tail.copy()


class CusumDetector(_Detector):
    """CUSUM detector on z with bias b and threshold tau.

    Update recursion: if the previous statistic already exceeded tau, this
    update declares the alarm (blaming the previous step, k_star = k - 1)
    and resets S to zero, consuming the current sample; otherwise
    S <- max(0, S + z - b).  The one-step alarm lag is the recursion's
    literal reset semantics, kept as-is.
    """

    kind = "cusum"

    def __init__(self, tau: float, b: float):
        if not (0 <= tau < math.inf):
            raise ValueError(f"tau must be nonnegative and finite, got {tau}")
        if not (0 < b < math.inf):
            raise ValueError(f"bias b must be positive and finite, got {b}")
        self.tau = float(tau)
        self.b = float(b)

    @property
    def params(self) -> dict:
        return {"tau": self.tau, "b": self.b}

    def update(self, z: float) -> Optional[AlarmEvent]:
        return self._update(z, lagged=True)

    def scan(self, z, carry=None):
        """(stat, alarm, carry); the carry is S after the last column."""
        z = np.atleast_2d(np.asarray(z, dtype=float))
        s = np.zeros(z.shape[0]) if carry is None else carry
        stat, alarm = scan_cusum(z, self.b, self.tau, s=s)
        return stat, alarm, stat[:, -1] if stat.shape[1] else s

    def exceedance(self, stat: np.ndarray, alarm: np.ndarray) -> np.ndarray:
        """S > tau: the step before the lagged alarm update."""
        return stat > self.tau


# ---------------------------------------------------------------------------
# Threshold tuning


def tune_chi2(p: int, a_star: float) -> float:
    """Chi-squared threshold for a target per-step false-alarm rate.

    alpha is the (1 - a_star) quantile of chi-squared(p): the attack-free
    z exceeds it with probability a_star exactly.  It is the windowed
    threshold at ell = 1.
    """
    return tune_windowed(p, 1, a_star)


def tune_windowed(p: int, ell: int, a_star: float) -> float:
    """Windowed threshold: the (1 - a_star) quantile of chi-squared(p*ell).

    Below _UPPER_TAIL_RATE the quantile is solved on the upper tail,
    Q = 1 - P = a_star: the lower tail's stop, |P - q| <= 1e-13, is
    absolute and would lose digits there (DiDonato & Morris 1986, ACM
    TOMS 12(4)).
    """
    if int(ell) < 1:
        raise ValueError("window must be >= 1")
    if int(p) < 1:
        raise ValueError(f"sensor count must be >= 1, got {p}")
    if not (0.0 < a_star < 1.0):
        raise ValueError(f"false-alarm rate must lie in (0, 1), got {a_star}")
    if 1.0 - a_star == 1.0:
        raise ValueError(f"false-alarm rate {a_star} is too small: 1 - rate rounds to 1")
    try:
        shape = p * ell / 2.0
    except OverflowError:
        raise ValueError("chi-squared shape p * window / 2 is too large for a float") from None
    if a_star >= _UPPER_TAIL_RATE:
        return 2.0 * numerics.inverse_regularized_lower_gamma(shape, 1.0 - a_star)
    start = numerics.inverse_regularized_lower_gamma(shape, 1.0 - _UPPER_TAIL_RATE)
    return 2.0 * numerics._inverse_upper_gamma(shape, a_star, start)


def tune_cusum_tau(
    model: "model_mod.ClosedLoopModel",
    b: Optional[float] = None,
    a_star: float = 0.05,
    mc: int = 1_000_000,
    seed: int = 0,
    tol_rel: float = 0.05,
    full_output: bool = False,
):
    """Monte-Carlo CUSUM threshold for a target per-step alarm rate.

    There is no closed form for the CUSUM false-alarm rate, so tau is found
    by bisection: one attack-free ensemble of distance measures is
    simulated (about `mc` samples, deterministic given `seed`) and the
    alarm frequency is evaluated on that fixed stream at each candidate
    tau until it is within `tol_rel` (relative) of `a_star`, counting its
    alarms through _scan_blocks, once per distinct tau.  The returned tau
    is the first bisection midpoint inside that band, not the root: on the
    benchmark loop at b = 3 and 5% it is 7.5, while the root lies near
    7.38.

    The calibrated rate counts alarms of the lagged recursion (see
    CusumDetector): each alarm update uses up one sample after the
    exceedance, so an alarm cycle lasts ARL0 + 1 steps and
    ARL0 = 1/a_star - 1, where ARL0 is the mean number of steps from S = 0
    to the first exceedance.  A design stated as ARL0 = 1/A* therefore
    needs a_star = A*/(1 + A*).

    Args:
        model: closed loop whose attack-free residual stream to calibrate on.
        b: bias; defaults to p, the attack-free mean of z.  A bias below p
            lets the statistic drift upward ("bias too small" warning).
        a_star: target per-step alarm rate in (0, 1).
        mc: total sample budget, at least 1e5.
        seed: substream seed for the calibration ensemble.
        tol_rel: relative tolerance on the achieved rate.
        full_output: also return a diagnostics dict (achieved rate, bracket,
            iterations, sample count).

    Returns:
        tau, or (tau, info) when full_output is set.
    """
    if not (0.0 < a_star < 1.0):
        raise ValueError(f"false-alarm rate must lie in (0, 1), got {a_star}")
    if mc < 100_000:
        raise ValueError(f"sample budget too small for tuning, got {mc} (need >= 1e5)")
    p = model.p
    if b is None:
        b = float(p)
    b = float(b)
    if not (0 < b < math.inf):
        raise ValueError(f"bias b must be positive and finite, got {b}")
    if b < p:
        warnings.warn(
            f"bias too small: b={b} < p={p}; the statistic drifts upward "
            "and the per-step alarm rate loses meaning",
            stacklevel=2,
        )

    steps = 1000
    runs = max(1, math.ceil(mc / steps))
    z = model_mod.simulate_distance_stream(model, steps=steps, runs=runs, seed=seed, burn_in=50)
    samples = z.size

    @functools.cache  # bisection's first midpoint is bracketing's last passing hi
    def rate_at(tau: float) -> float:
        return sum(alarm.sum() for _, alarm in _scan_blocks(CusumDetector(tau, b), z)) / samples

    tau = lo = hi = 0.0
    rate = rate_at(0.0)
    iterations = 0
    if rate < a_star:
        warnings.warn(
            f"rate unattainable: even tau -> 0 yields alarm rate {rate:.4g} "
            f"< target {a_star:.4g} (bias b={b} too large for this target)",
            stacklevel=2,
        )
    else:
        hi = max(1.0, b)
        while rate_at(hi) >= a_star:
            hi *= 2.0
            if hi > 1e12:
                raise RuntimeError("failed to bracket the CUSUM threshold")
        for iterations in range(1, 81):
            tau = 0.5 * (lo + hi)
            rate = rate_at(tau)
            if abs(rate - a_star) <= tol_rel * a_star:
                break
            if rate > a_star:
                lo = tau
            else:
                hi = tau
        else:
            warnings.warn(
                f"bisection stopped at alarm rate {rate:.4g} (target {a_star:.4g})",
                stacklevel=2,
            )

    info = {"rate": rate, "b": b, "bracket": (lo, hi), "iterations": iterations, "samples": samples}
    return (tau, info) if full_output else tau


# ---------------------------------------------------------------------------
# Vectorized scans (mirror tests/reference.py's state machines exactly)


def scan_chi2(z: np.ndarray, alpha: float):
    """Alarm flags for a chi-squared detector over (..., steps) z arrays, in z's memory order."""
    z = np.asarray(z, dtype=float)
    return z.copy(order="K"), z > alpha


def scan_windowed(z: np.ndarray, ell: int, beta: float):
    """Statistics and alarm flags for the windowed detector over (runs, steps).

    The statistic at column t is the sum of the last min(t+1, ell) values
    (partial sums during warm-up); alarms require a full window.  To resume
    a scan, prepend the samples that precede column 0 and drop their
    columns (WindowedChiSqDetector.scan).  The scan walks the time axis of
    z.T, step-major like the simulation's z, and returns views of
    step-major arrays.

    The window sums are formed in the cumulative sum's own buffer, the one
    float (steps, runs) array the scan allocates: in blocks of ell rows
    from the end backwards, rows lo..hi-1 lose rows lo - ell..hi - ell - 1,
    which no earlier block changed and which the block does not write.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    ell = int(ell)
    w = np.cumsum(z.T, axis=0)
    for hi in range(len(w), ell, -ell):
        lo = max(ell, hi - ell)
        w[lo:hi] -= w[lo - ell:hi - ell]
    alarms = w > beta
    alarms[: ell - 1] = False  # window not yet full
    return w.T, alarms.T


def scan_cusum(z: np.ndarray, b: float, tau: float, s: Optional[np.ndarray] = None):
    """Statistics and alarm flags for the CUSUM detector over (runs, steps).

    stats[:, t] is S after consuming column t; alarms[:, t] marks updates
    that fired (i.e. the previous S exceeded tau; that update resets S and
    discards column t).  `s` is S before column 0 (zero by default), for
    resuming a scan.  Each run's columns get the same IEEE operations in
    the same order whatever the run count, so a one-run scan equals its
    row of a many-run scan bit for bit.  The scan walks the rows of z.T,
    which are contiguous for the simulation's step-major z, and returns
    views of step-major arrays.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    runs, steps = z.shape
    # step-major buffers, so every step writes contiguous rows
    stats = np.empty((steps, runs))
    alarms = np.empty((steps, runs), dtype=bool)
    s = np.zeros(runs) if s is None else s
    for t, z_t in enumerate(z.T):
        fired = np.greater(s, tau, out=alarms[t])
        s = np.add(s, z_t, out=stats[t])
        s -= b
        np.maximum(s, 0.0, out=s)
        s[fired] = 0.0
    return stats.T, alarms.T


# ---------------------------------------------------------------------------
# Monte-Carlo estimation


def _block_width(detector) -> int:
    """_SCAN_BLOCK, or ell - 1 for a longer window: a carry never outnumbers a block's columns."""
    return max(_SCAN_BLOCK, detector.params.get("ell", 1) - 1)


def _scan_blocks(detector, z):
    """Yield (stat, alarm) of detector.scan for each column block of one stream.

    `z` is the stream as a (runs, steps) array, scanned in views of
    _block_width(detector) steps, or as an iterable of its consecutive
    (runs, width) blocks.  The scan's carry is threaded from block to block,
    so the blocks' alarms are the whole scan's (the chi-squared and CUSUM
    statistics bit for bit; a windowed block restarts its running sums, so
    its statistics can differ in the last bits), and a consumer holds the
    statistics of at most two blocks: the last, and the one being scanned.
    """
    blocks = z
    if isinstance(z, np.ndarray):
        width = _block_width(detector)
        blocks = (z[:, start:start + width] for start in range(0, z.shape[1], width))
    carry = None
    for block in blocks:
        stat, alarm, carry = detector.scan(block, carry)
        yield stat, alarm


@dataclass(frozen=True)
class RateEstimate:
    """Per-step alarm frequency over an attack-free ensemble."""

    rate: float
    stderr: float
    alarms: int
    samples: int


def measure_alarm_rate(
    model: "model_mod.ClosedLoopModel",
    detector,
    steps: int = 1000,
    runs: int = 1000,
    seed: int = 0,
    burn_in: int = 50,
) -> RateEstimate:
    """Empirical attack-free per-step alarm frequency of a tuned detector.

    Simulates `runs` independent attack-free streams of `steps` distance
    measures (after `burn_in`) and counts alarms per run through
    _scan_blocks.  The standard error uses between-run variation, which is
    honest for the windowed and CUSUM detectors whose alarm events are
    serially dependent within a run.  A window longer than the stream
    evaluates nothing, and the estimate is NaN.
    """
    z = model_mod.simulate_distance_stream(model, steps=steps, runs=runs, seed=seed, burn_in=burn_in)
    # a windowed detector evaluates only full windows
    per_run_samples = max(0, steps - detector.params.get("ell", 1) + 1)
    if per_run_samples == 0:
        return RateEstimate(rate=math.nan, stderr=math.nan, alarms=0, samples=0)
    alarms = sum(alarm.sum(axis=1) for _, alarm in _scan_blocks(detector, z))  # per run
    run_rates = alarms / per_run_samples
    rate = float(run_rates.mean())
    stderr = float(run_rates.std(ddof=1) / math.sqrt(runs)) if runs > 1 else math.nan
    return RateEstimate(
        rate=rate,
        stderr=stderr,
        alarms=int(alarms.sum()),
        samples=per_run_samples * runs,
    )


@dataclass(frozen=True)
class ArlResult:
    """Average run length to first exceedance on attack-free streams.

    The run length counts steps from a stationary (warmed-up) start until
    the detector statistic first exceeds its threshold.  Runs that reach
    `cap` without an exceedance enter the mean at the cap, so with
    censoring the reported ARL is a lower bound.

    `alarm_rate` is 1/arl.  For the CUSUM that is the rate of exceedances
    with a restart on the exceedance step, which is larger than the
    detector's per-step alarm rate by a factor of (1 + alarm_rate): the
    lagged reset adds one step to every alarm cycle.  A CUSUM tuned by
    tune_cusum_tau to 5% per step therefore reports about 0.05/0.95 in
    expectation; `resdet arl` on the benchmark CUSUM tuned to 5% (tau =
    7.5, 400 runs at seed 0) reports 0.048, an ARL of 20.7 +- 1.9.

    `half_width` is the 95% normal half-width of the mean, None for one
    run, which has no spread.
    """

    arl: float
    alarm_rate: float
    half_width: Optional[float]
    runs: int
    censored: int
    cap: int


def estimate_arl(
    model: "model_mod.ClosedLoopModel",
    detector,
    runs: int = 400,
    seed: int = 0,
    cap: int = 1_000_000,
    warm_up: int = 50,
) -> ArlResult:
    """Monte-Carlo average run length of a tuned detector.

    Each run simulates the attack-free loop from the origin, discards
    `warm_up` steps, then counts steps until the detector statistic first
    exceeds its threshold (for the CUSUM that is the exceedance step; the
    emitted alarm trails it by one update).  Runs are capped at `cap`
    steps; censored runs are counted at the cap and flagged with a warning.

    After the warm-up the stream is advanced (model.iter_distance_stream,
    which draws its noise) and scanned (_scan_blocks) in blocks of
    _block_width steps, and the loop stops as soon as every run has
    exceeded, so the work follows the longest run rather than the cap.
    Step t of run i's noise depends only on (seed, i, t), so the result
    depends on the seed alone.  Nothing of the draw is kept, so each
    estimate draws its own noise, and the thread's remembered
    fixed-length draw is forgotten first.

    The two CUSUM rates differ: 1/ARL counts exceedances with a restart on
    the exceedance step, while tune_cusum_tau and measure_alarm_rate count
    alarms of the lagged recursion, whose cycles are one step longer (see
    ArlResult).  Which of the two a published "5%" design means has to be
    read off the design; the benchmark's tabulated tau = 0.86 fits the ARL
    reading (README, "Known limitations").
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if cap > np.iinfo(np.int64).max:  # the run lengths are int64
        raise ValueError(f"cap must be at most 2**63 - 1, got {cap}")
    if warm_up < 0:
        raise ValueError("warm_up must be >= 0")
    width = _block_width(detector)
    blocks = (min(width, cap - offset) for offset in range(0, cap, width))
    widths = itertools.chain([warm_up], blocks)
    try:
        lengths = np.full(runs, cap, dtype=np.int64)
        done = np.zeros(runs, dtype=bool)
    except (MemoryError, ValueError):  # ValueError: past what numpy can address
        raise ValueError(
            f"an ARL estimate of runs = {runs} capped at {cap} steps is too large to allocate"
        ) from None
    stream = model_mod.iter_distance_stream(model, widths, runs=runs, seed=seed)
    offset = 0  # the post-warm-up step that begins the block
    for stat, alarm in _scan_blocks(detector, itertools.islice(stream, 1, None)):  # past the warm-up
        exceed = detector.exceedance(stat, alarm)
        newly = exceed.any(axis=1) & ~done
        lengths[newly] = offset + exceed.argmax(axis=1)[newly] + 1
        done |= newly
        if done.all():
            break  # stop advancing: every run has exceeded
        offset += stat.shape[1]

    censored = int((~done).sum())
    if censored:
        warnings.warn(
            f"{censored} of {runs} runs reached the {cap}-step cap without an "
            "exceedance; the reported ARL is a censored lower bound",
            stacklevel=2,
        )
    arl = float(lengths.mean())
    half_width = float(1.96 * lengths.std(ddof=1) / math.sqrt(runs)) if runs > 1 else None
    return ArlResult(
        arl=arl,
        alarm_rate=1.0 / arl if arl > 0 else math.inf,
        half_width=half_width,
        runs=runs,
        censored=censored,
        cap=cap,
    )
