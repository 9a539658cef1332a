"""Numerical kernels used across the library.

The special functions and the matrix-equation solvers the detection and
attack analysis code relies on, with numpy as the only dependency:

* regularized lower incomplete gamma function and its inverse, which give
  chi-squared tail thresholds for alarm tuning (numpy has none);
* symmetric eigenpairs by LAPACK ``eigh``, powering the dominant eigenpair
  extraction and the symmetric PSD square root;
* the discrete algebraic Riccati equation in one-step-predictor form, by
  the structure-preserving doubling algorithm (quadratic convergence);
* the discrete Lyapunov equation, by Smith's doubling iteration (O(n^3)
  per doubling, no n^2 x n^2 system).

All routines operate on plain numpy arrays and raise ValueError on domain
violations rather than returning NaNs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "regularized_lower_gamma",
    "inverse_regularized_lower_gamma",
    "max_eigenpair",
    "symmetric_eigenpairs",
    "psd_sqrt",
    "psd_factor",
    "spectral_radius",
    "solve_dare",
    "solve_discrete_lyapunov",
]

# Convergence controls for the gamma series / continued fraction.  The
# iteration counts scale with sqrt(a) near x = a, so the cap is generous:
# window statistics push a = p*ell/2 into the thousands.
_GAMMA_EPS = 1e-15
_GAMMA_ITMAX = 200_000
_QUANTILE_TOL = 1e-13  # |P(a, x) - q| that ends the quantile's Newton iteration
_TINY = 1e-300

# Doubling iterations (DARE, Lyapunov): an increment below this fraction of
# the solution ends the iteration; the next one would be about its square.
# 2**64 terms of the series reach any spectral radius below 1 that a double
# holds, so the cap is met only by a divergent or overflowing iteration.
_DOUBLING_TOL = 1e-15
_DOUBLING_MAX = 64
_UNDETECTABLE = "non-detectable or ill-conditioned model"


def _gamma_series(a: float, x: float) -> float:
    """Lower regularized gamma by power series, valid for x < a + 1."""
    if x <= 0.0:
        return 0.0
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_GAMMA_ITMAX):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            return total * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ValueError(f"gamma series failed to converge for shape a={a} (x={x})")


def _gamma_cont_fraction(a: float, x: float) -> float:
    """Upper regularized gamma by Lentz continued fraction, for x >= a + 1."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_ITMAX + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            return h * math.exp(-x + a * math.log(x) - math.lgamma(a))
    raise ValueError(f"gamma continued fraction failed to converge for shape a={a} (x={x})")


def regularized_lower_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma function P(a, x).

    P(a, x) = gamma(a, x) / Gamma(a), the CDF of a Gamma(a, 1) variable.
    The chi-squared CDF with ``p`` degrees of freedom evaluated at ``t``
    is ``lower_gamma_regularized(p / 2, t / 2)``.

    Args:
        a: shape parameter, must be > 0.
        x: evaluation point, must be >= 0.

    Returns:
        P(a, x) in [0, 1].

    Raises:
        ValueError: naming the shape, when it is too large for the series
            or the continued fraction to converge in _GAMMA_ITMAX terms
            (their count grows like sqrt(a) near x = a).
    """
    if not (a > 0.0) or math.isnan(a):
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if math.isnan(x) or x < 0.0:
        raise ValueError(f"evaluation point must be nonnegative, got x={x}")
    if a + 1.0 == a:  # the continued fraction would start from 1 / (x + 1 - a) = 1 / 0
        raise ValueError(f"gamma shape a={a} is too large: a + 1 rounds to a")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cont_fraction(a, x)


def _gamma_pdf(a: float, x: float) -> float:
    """Density of Gamma(a, 1), the derivative of P(a, .)."""
    if x <= 0.0:
        return 0.0
    return math.exp(-x + (a - 1.0) * math.log(x) - math.lgamma(a))


def inverse_regularized_lower_gamma(a: float, q: float) -> float:
    """Inverse of the regularized lower incomplete gamma in its second argument.

    Finds x >= 0 with P(a, x) = q using Newton iterations safeguarded by
    bisection on the bracket [0, a + 20*sqrt(a) + 100], which contains the
    quantile for any q < 1 - 1e-12.

    Args:
        a: shape parameter, must be > 0.
        q: target probability in [0, 1).

    Returns:
        The quantile x.
    """
    if not (a > 0.0) or math.isnan(a):
        raise ValueError(f"shape parameter must be positive, got a={a}")
    if math.isnan(q) or not (0.0 <= q < 1.0):
        raise ValueError(f"probability must lie in [0, 1), got q={q}")
    if q == 0.0:
        return 0.0

    lo, hi = 0.0, a + 20.0 * math.sqrt(a) + 100.0
    while regularized_lower_gamma(a, hi) < q:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise RuntimeError(f"failed to bracket gamma quantile for a={a}, q={q}")

    # Crude starting point: the mean, pulled toward the bracket interior.
    x = min(max(a, lo + 0.25 * (hi - lo)), hi)
    for _ in range(200):
        err = regularized_lower_gamma(a, x) - q
        if err > 0.0:
            hi = x
        else:
            lo = x
        if abs(err) <= _QUANTILE_TOL:
            return x
        dpdx = _gamma_pdf(a, x)
        if dpdx > 0.0:
            step = err / dpdx
            x_new = x - step
        else:
            x_new = math.nan
        if not (lo < x_new < hi):
            x_new = 0.5 * (lo + hi)  # Newton left the bracket: bisect
        if x_new == x:
            return x
        x = x_new
    return x


def _check_square(mat: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _check_symmetric(mat: np.ndarray, name: str, rtol: float = 1e-8) -> np.ndarray:
    arr = _check_square(mat, name)
    scale = max(1.0, float(np.abs(arr).max()))
    if np.abs(arr - arr.T).max() > rtol * scale:
        raise ValueError(f"{name} must be symmetric")
    return 0.5 * (arr + arr.T)


def symmetric_eigenpairs(mat: np.ndarray):
    """Full eigendecomposition of a symmetric matrix (LAPACK ``eigh``).

    Args:
        mat: symmetric (n, n) matrix.

    Returns:
        (w, V): eigenvalues in descending order and the matrix whose columns
        are the matching orthonormal eigenvectors.
    """
    w, v = np.linalg.eigh(_check_symmetric(mat, "matrix"))
    return w[::-1], v[:, ::-1]


def max_eigenpair(mat: np.ndarray):
    """Dominant eigenpair (largest eigenvalue) of a symmetric matrix.

    The eigenvector is unit norm with a canonical sign: its first component
    of magnitude above 1e-12 is made positive.

    Returns:
        (lambda_max, v) with ``mat @ v == lambda_max * v``.
    """
    w, v_mat = symmetric_eigenpairs(mat)
    vec = v_mat[:, 0]
    for comp in vec:
        if abs(comp) > 1e-12:
            if comp < 0.0:
                vec = -vec
            break
    return float(w[0]), vec


def psd_sqrt(mat: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive semidefinite matrix.

    Eigenvalues in [-1e-9 * lambda_max, 0) are treated as rounding debris
    and clamped to zero; anything more negative raises ValueError.
    """
    w, v = symmetric_eigenpairs(mat)
    lam_max = max(float(w[0]), 0.0)
    floor = -1e-9 * max(lam_max, 1.0)
    if float(w[-1]) < floor:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[-1]:.3e})")
    root = v * np.sqrt(np.clip(w, 0.0, None))
    out = root @ v.T
    return 0.5 * (out + out.T)


def psd_factor(mat: np.ndarray) -> np.ndarray:
    """A factor A with A @ A.T equal to the given symmetric PSD matrix.

    Uses Cholesky when the matrix is positive definite and falls back to the
    symmetric square root (psd_sqrt, which rejects a matrix that is not PSD).
    """
    sym = _check_symmetric(mat, "covariance")
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError:
        return psd_sqrt(sym)


def spectral_radius(mat: np.ndarray) -> float:
    """Largest eigenvalue magnitude of a (generally non-symmetric) square matrix."""
    arr = _check_square(mat, "matrix")
    return float(np.abs(np.linalg.eigvals(arr)).max())


def solve_dare(f: np.ndarray, c: np.ndarray, q_cov: np.ndarray, r_cov: np.ndarray):
    """Stabilizing solution of the discrete algebraic Riccati equation.

    Solves P = F P F' - F P C' (C P C' + R)^-1 C P F' + Q, the
    one-step-predictor form, by the structure-preserving doubling
    algorithm (Anderson 1978) on the dual control problem (F', C').  With
    W = I + G_k H_k, starting from A_0 = F', G_0 = C' R^-1 C, H_0 = Q:

        A_{k+1} = A_k W^-1 A_k
        G_{k+1} = G_k + A_k W^-1 G_k A_k'
        H_{k+1} = H_k + A_k' H_k W^-1 A_k

    H_k converges quadratically to P.  P is the steady-state covariance of
    the one-step prediction error; the matching predictor gain is
    L = F P C' (C P C' + R)^-1.

    Args:
        f: (n, n) state transition matrix.
        c: (p, n) output matrix.
        q_cov: (n, n) process noise covariance (symmetrized internally).
        r_cov: (p, p) measurement noise covariance, positive definite.

    Returns:
        (P, L): covariance and predictor gain, with spectral radius of
        F - L C strictly inside the unit circle.

    Raises:
        RuntimeError: "non-detectable or ill-conditioned model" if the
            doubling diverges, fails to converge, or converges to a
            solution whose F - L C is not stable.
    """
    return _solve_dare(f, c, q_cov, r_cov)[:2]


def _solve_dare(f, c, q_cov, r_cov):
    """solve_dare, also returning the spectral radius of F - L C it checked."""
    f = _check_square(f, "F")
    c = np.asarray(c, dtype=float)
    n = f.shape[0]
    if c.ndim != 2 or c.shape[1] != n:
        raise ValueError(f"C must have {n} columns, got shape {c.shape}")
    q_sym = _check_symmetric(q_cov, "process covariance")
    r_sym = _check_symmetric(r_cov, "measurement covariance")

    a_k, g_k, h_k = f.T, c.T @ np.linalg.solve(r_sym, c), q_sym
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DOUBLING_MAX):
            w_inv = np.linalg.solve(np.eye(n) + g_k @ h_k, np.hstack([a_k, g_k]))
            step = a_k.T @ h_k @ w_inv[:, :n]
            g_k = g_k + a_k @ w_inv[:, n:] @ a_k.T
            h_k = h_k + step
            a_k = a_k @ w_inv[:, :n]
            size = float(np.abs(h_k).max())
            if not np.isfinite(size) or size > 1e200:
                raise RuntimeError(f"{_UNDETECTABLE} (Riccati doubling diverged)")
            if float(np.abs(step).max()) <= _DOUBLING_TOL * size:
                break
        else:
            raise RuntimeError(f"{_UNDETECTABLE} (no convergence in {_DOUBLING_MAX} doublings)")

    p_cov = 0.5 * (h_k + h_k.T)
    innov = c @ p_cov @ c.T + r_sym
    gain = np.linalg.solve(innov.T, (f @ p_cov @ c.T).T).T
    rho = spectral_radius(f - gain @ c)
    if rho >= 1.0:
        raise RuntimeError(f"{_UNDETECTABLE} (spectral radius of F-LC is {rho:.6g})")
    return p_cov, gain, rho


def solve_discrete_lyapunov(a: np.ndarray, q_cov: np.ndarray) -> np.ndarray:
    """Solve P = A P A' + Q by Smith's doubling iteration (Smith 1968).

    P_{k+1} = P_k + A_k P_k A_k' with A_{k+1} = A_k A_k, from P_0 = Q and
    A_0 = A, makes P_k the first 2^k terms of the series sum_j A^j Q A'^j.
    It converges quadratically for a stable A and needs no (n^2, n^2)
    system.

    Raises:
        ValueError: if the spectral radius of A is >= 1, where the series
            diverges and no PSD solution exists.
    """
    a = _check_square(a, "A")
    return _solve_lyapunov(a, q_cov, spectral_radius(a))


def _solve_lyapunov(a, q_cov, rho: float):
    """solve_discrete_lyapunov for a square A whose spectral radius is `rho`."""
    q_sym = _check_symmetric(q_cov, "Q")
    if rho >= 1.0:
        raise ValueError(f"A must be stable: spectral radius {rho:.6g} >= 1")
    p_cov = q_sym
    for _ in range(_DOUBLING_MAX):
        step = a @ p_cov @ a.T
        p_cov = p_cov + step
        if float(np.abs(step).max()) <= _DOUBLING_TOL * float(np.abs(p_cov).max()):
            return 0.5 * (p_cov + p_cov.T)
        a = a @ a
    raise RuntimeError(f"Lyapunov doubling did not converge in {_DOUBLING_MAX} doublings")
