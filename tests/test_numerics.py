"""Numerics kernels against independent reference implementations.

Every kernel is checked two ways where possible: against frozen values
computed once from closed forms, and live against scipy/numpy references.
The special functions and the matrix-equation solvers never call those
references; the eigensolver wraps numpy's ``eigh``, so its oracle is
scipy's ``eigh`` (another LAPACK routine) and the eigen-equation residual.
Property tests draw random models up to n = 100.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, linalg as sla, special

from resdet import numerics as nx


# ---------------------------------------------------------------- lower gamma

def test_lower_gamma_closed_form_points():
    # P(1, x) = 1 - exp(-x)
    assert abs(nx.regularized_lower_gamma(1.0, math.log(2.0)) - 0.5) <= 1e-14
    # chi-squared(3) 95% quantile is 7.8147...: P(1.5, q/2) = 0.95
    assert abs(nx.regularized_lower_gamma(1.5, 3.9074) - 0.95) <= 1e-4
    # P(0.5, x) = erf(sqrt(x))
    for x in (0.01, 0.3, 1.0, 2.5, 9.0):
        assert abs(nx.regularized_lower_gamma(0.5, x) - math.erf(math.sqrt(x))) <= 1e-13


def test_lower_gamma_matches_scipy_grid():
    a_grid = [0.3, 0.5, 1.0, 1.5, 2.0, 5.0, 10.0, 37.5, 75.0, 150.0]
    for a in a_grid:
        for x in (1e-8, 0.25 * a, 0.5 * a, a, a + 1.0, 2.0 * a, 5.0 * a, 10.0 * a):
            got = nx.regularized_lower_gamma(a, x)
            want = special.gammainc(a, x)
            assert abs(got - want) <= 1e-12, (a, x)


def test_lower_gamma_matches_quadrature():
    a = 1.5
    for x in (0.5, 2.0, 3.9074):
        want, _ = integrate.quad(
            lambda t: t ** (a - 1.0) * math.exp(-t) / math.gamma(a), 0.0, x
        )
        assert abs(nx.regularized_lower_gamma(a, x) - want) <= 1e-10


def test_lower_gamma_domain_and_limits():
    assert nx.regularized_lower_gamma(2.0, 0.0) == 0.0
    assert abs(nx.regularized_lower_gamma(2.0, 1e4) - 1.0) <= 1e-15
    with pytest.raises(ValueError):
        nx.regularized_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        nx.regularized_lower_gamma(1.0, -0.5)


def test_inverse_lower_gamma_round_trip_grid():
    qs = [round(0.01 + 0.02 * i, 2) for i in range(50)]  # 0.01 .. 0.99
    for a in (0.5, 1.0, 1.5, 5.0, 75.0):
        for q in qs:
            x = nx.inverse_regularized_lower_gamma(a, q)
            assert abs(nx.regularized_lower_gamma(a, x) - q) <= 1e-10, (a, q)


def test_inverse_lower_gamma_matches_scipy():
    for a in (0.5, 1.5, 5.0, 75.0):
        for q in (0.01, 0.2, 0.5, 0.9, 0.99):
            got = nx.inverse_regularized_lower_gamma(a, q)
            want = special.gammaincinv(a, q)
            assert abs(got - want) <= 1e-8 * max(1.0, want), (a, q)


def test_inverse_lower_gamma_domain():
    assert nx.inverse_regularized_lower_gamma(2.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        nx.inverse_regularized_lower_gamma(2.0, 1.0)
    with pytest.raises(ValueError):
        nx.inverse_regularized_lower_gamma(2.0, -0.1)
    with pytest.raises(ValueError):
        nx.inverse_regularized_lower_gamma(-1.0, 0.5)


@pytest.mark.parametrize("a", [868859613.0, 1.5e21], ids=["series-runs-out", "a+1-rounds-to-a"])
def test_a_shape_out_of_reach_is_a_value_error_naming_it(a):
    # p * ell / 2 of a 5% windowed threshold at p = 3 and ell = 579239742 or 1e21
    with pytest.raises(ValueError, match=re.escape(f"shape a={a}")):
        nx.inverse_regularized_lower_gamma(a, 0.95)


# ----------------------------------------------------------------- eigenpairs

def test_max_eigenpair_matches_eigh():
    rng = np.random.default_rng(11)
    for n in (2, 3, 5, 8):
        raw = rng.normal(size=(n, n))
        s = raw + raw.T
        lam, vecs = np.linalg.eigh(s)
        lam1, nu = nx.max_eigenpair(s)
        assert abs(lam1 - lam[-1]) <= 1e-10 * max(1.0, abs(lam[-1]))
        assert abs(abs(nu @ vecs[:, -1]) - 1.0) <= 1e-9
        assert np.linalg.norm(s @ nu - lam1 * nu) <= 1e-9 * max(1.0, abs(lam1))


def test_max_eigenpair_sign_canonical():
    s = np.diag([4.0, 1.0])
    lam1, nu = nx.max_eigenpair(s)
    assert lam1 == pytest.approx(4.0, abs=1e-12)
    assert nu[0] > 0  # first nonzero component made positive
    np.testing.assert_allclose(nu, [1.0, 0.0], atol=1e-12)


def test_symmetric_eigenpairs_full_spectrum():
    rng = np.random.default_rng(12)
    raw = rng.normal(size=(6, 6))
    s = raw + raw.T
    vals, vecs = nx.symmetric_eigenpairs(s)
    ref = np.linalg.eigh(s)[0][::-1]
    np.testing.assert_allclose(vals, ref, atol=1e-9)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(6), atol=1e-9)
    np.testing.assert_allclose(s @ vecs, vecs @ np.diag(vals), atol=1e-8)


# ------------------------------------------------------------ spectral radius

def _char_poly_coeffs(a: np.ndarray) -> np.ndarray:
    """Characteristic polynomial via the Faddeev-LeVerrier recursion.

    Trace-based, so it shares no code path with any eigenvalue routine.
    """
    n = a.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    return coeffs


def test_spectral_radius_reactor_charpoly_oracle(reactor_matrices):
    f = reactor_matrices["f"]
    roots = np.roots(_char_poly_coeffs(f))
    want = float(np.max(np.abs(roots)))
    got = nx.spectral_radius(f)
    assert 0.0 < got < 1.0
    assert abs(got - want) <= 1e-8 * want
    assert got == pytest.approx(0.2497282544, abs=1e-8)


# ------------------------------------------------------------------- psd sqrt

def test_psd_sqrt_reactor_sigma(reactor_fixed):
    sigma = reactor_fixed.sigma
    x = nx.psd_sqrt(sigma)
    err = np.linalg.norm(x @ x - sigma) / np.linalg.norm(sigma)
    assert err <= 1e-9
    np.testing.assert_allclose(x, x.T, atol=1e-12)


def test_psd_sqrt_random_and_reference():
    rng = np.random.default_rng(13)
    raw = rng.normal(size=(5, 5))
    s = raw @ raw.T
    x = nx.psd_sqrt(s)
    assert np.linalg.norm(x @ x - s) <= 1e-9 * np.linalg.norm(s)
    ref = sla.sqrtm(s).real
    np.testing.assert_allclose(x, ref, atol=1e-8)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        nx.psd_sqrt(np.diag([1.0, -1.0]))


# ----------------------------------------------------------------------- DARE

def test_solve_dare_scalar_closed_form():
    # f=0.5, c=1, q=1, r=1: fixed point solves p^2 - 0.25 p - 1 = 0
    p_want = (0.25 + math.sqrt(0.25 ** 2 + 4.0)) / 2.0
    l_want = 0.5 * p_want / (p_want + 1.0)
    p_got, l_got = nx.solve_dare(
        np.array([[0.5]]), np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]])
    )
    assert abs(p_got[0, 0] - p_want) <= 1e-10
    assert abs(l_got[0, 0] - l_want) <= 1e-10


def test_solve_dare_zero_dynamics():
    r1 = np.diag([2.0, 3.0])
    p, l_gain = nx.solve_dare(np.zeros((2, 2)), np.eye(2), r1, np.eye(2))
    np.testing.assert_allclose(p, r1, atol=1e-12)
    np.testing.assert_allclose(l_gain, 0.0, atol=1e-12)


def test_solve_dare_reactor_vs_scipy(reactor_matrices):
    f = reactor_matrices["f"]
    c = reactor_matrices["c"]
    r1 = 0.5 * (reactor_matrices["r1"] + reactor_matrices["r1"].T)
    r2 = reactor_matrices["r2"]
    p, l_gain = nx.solve_dare(f, c, r1, r2)

    p_ref = sla.solve_discrete_are(f.T, c.T, r1, r2)
    np.testing.assert_allclose(p, p_ref, rtol=1e-8, atol=1e-10)
    l_ref = f @ p_ref @ c.T @ np.linalg.inv(c @ p_ref @ c.T + r2)
    np.testing.assert_allclose(l_gain, l_ref, rtol=1e-7, atol=1e-10)

    # direct equation residual (acceptance-level tolerance)
    s = c @ p @ c.T + r2
    resid = f @ p @ f.T - f @ p @ c.T @ np.linalg.solve(s, c @ p @ f.T) + r1 - p
    assert np.linalg.norm(resid) <= 1e-10 * max(1.0, np.linalg.norm(p))


def test_solve_dare_rejects_undetectable():
    f = np.diag([1.5, 0.5])
    c = np.array([[0.0, 1.0]])  # unstable mode unobserved
    with pytest.raises(RuntimeError, match="non-detectable or ill-conditioned model"):
        nx.solve_dare(f, c, np.eye(2), np.eye(1))


# ------------------------------------------------------------------- Lyapunov

def test_solve_discrete_lyapunov_vs_scipy():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(4, 4))
    a *= 0.8 / nx.spectral_radius(a)
    raw = rng.normal(size=(4, 4))
    q = raw @ raw.T
    p = nx.solve_discrete_lyapunov(a, q)
    ref = sla.solve_discrete_lyapunov(a, q)
    np.testing.assert_allclose(p, ref, rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(a @ p @ a.T + q, p, rtol=1e-9, atol=1e-9)


def test_solve_discrete_lyapunov_rejects_unstable():
    for a in ([[2.0]], np.diag([1.1, 0.5]), np.diag([1.0, 0.5])):
        with pytest.raises(ValueError, match="must be stable"):
            nx.solve_discrete_lyapunov(np.array(a), np.eye(len(a)))


# ------------------------------------------------- properties on random models

SIZES = st.integers(1, 100)
SEEDS = st.integers(0, 2**32 - 1)


def _scaled(rng, n, rho):
    """Gaussian (n, n) matrix scaled to spectral radius rho."""
    raw = rng.standard_normal((n, n))
    return raw * (rho / nx.spectral_radius(raw))


def _random_model(n, seed, rho):
    """F with spectral radius rho, a (p, n) C with 1 <= p <= n, PD Q and R.

    A Gaussian C observes every mode, so (F, C) is detectable for any rho.
    """
    rng = np.random.default_rng(seed)
    p = int(rng.integers(1, n + 1))
    f = _scaled(rng, n, rho)
    c = rng.standard_normal((p, n)) / math.sqrt(n)
    b = rng.standard_normal((n, n)) / math.sqrt(n)
    br = rng.standard_normal((p, p)) / math.sqrt(p)
    return f, c, b @ b.T + 1e-3 * np.eye(n), br @ br.T + np.eye(p)


def test_symmetric_eigenpairs_regression_matrix():
    # Wishart matrix with eigenvalues from 5e-4 to 203
    raw = np.random.default_rng(1).standard_normal((50, 50))
    s = raw @ raw.T
    vals, vecs = nx.symmetric_eigenpairs(s)
    np.testing.assert_allclose(vals, sla.eigh(s, eigvals_only=True)[::-1], atol=1e-9)
    np.testing.assert_allclose(s @ vecs, vecs * vals, atol=1e-8 * vals[0])
    x = nx.psd_sqrt(s)
    assert np.linalg.norm(x @ x - s) <= 1e-9 * np.linalg.norm(s)


@settings(max_examples=30)
@given(n=SIZES, seed=SEEDS)
def test_symmetric_eigenpairs_match_scipy(n, seed):
    raw = np.random.default_rng(seed).standard_normal((n, n))
    s = raw + raw.T
    vals, vecs = nx.symmetric_eigenpairs(s)
    np.testing.assert_allclose(vals, sla.eigh(s, eigvals_only=True)[::-1], atol=1e-9)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(n), atol=1e-9)
    np.testing.assert_allclose(s @ vecs, vecs * vals, atol=1e-8)

    lam1, nu = nx.max_eigenpair(s)
    assert lam1 == vals[0]
    assert nu[np.abs(nu) > 1e-12][0] > 0.0


@settings(max_examples=30)
@given(n=SIZES, rank=SIZES, seed=SEEDS)
def test_psd_sqrt_squares_back(n, rank, seed):
    # rank < n makes the matrix singular, exercising the PSD floor
    raw = np.random.default_rng(seed).standard_normal((n, min(rank, n)))
    s = raw @ raw.T
    x = nx.psd_sqrt(s)
    assert np.linalg.norm(x @ x - s) <= 1e-9 * np.linalg.norm(s)
    np.testing.assert_array_equal(x, x.T)


@settings(max_examples=20)
@given(n=SIZES, seed=SEEDS, rho=st.floats(0.05, 1.2))  # scipy's QZ fails as F -> 0
def test_solve_dare_matches_scipy(n, seed, rho):
    f, c, q, r = _random_model(n, seed, rho)
    p, l_gain = nx.solve_dare(f, c, q, r)

    p_ref = sla.solve_discrete_are(f.T, c.T, q, r)
    np.testing.assert_allclose(p, p_ref, rtol=1e-8, atol=1e-10)
    l_ref = f @ p_ref @ c.T @ np.linalg.inv(c @ p_ref @ c.T + r)
    np.testing.assert_allclose(l_gain, l_ref, rtol=1e-7, atol=1e-10)
    assert nx.spectral_radius(f - l_gain @ c) < 1.0


@settings(max_examples=20)
@given(n=SIZES, seed=SEEDS, rho=st.floats(0.0, 0.95))
def test_solve_discrete_lyapunov_matches_scipy(n, seed, rho):
    rng = np.random.default_rng(seed)
    a = _scaled(rng, n, rho)
    raw = rng.standard_normal((n, n)) / math.sqrt(n)
    q = raw @ raw.T
    p = nx.solve_discrete_lyapunov(a, q)
    np.testing.assert_allclose(p, sla.solve_discrete_lyapunov(a, q), rtol=1e-9, atol=1e-10)
    np.testing.assert_allclose(a @ p @ a.T + q, p, rtol=1e-9, atol=1e-9)


@settings(max_examples=20)
@given(n=st.integers(1, 30), seed=SEEDS, rho=st.floats(1.001, 3.0))
def test_solve_discrete_lyapunov_rejects_random_unstable(n, seed, rho):
    a = _scaled(np.random.default_rng(seed), n, rho)
    with pytest.raises(ValueError, match="must be stable"):
        nx.solve_discrete_lyapunov(a, np.eye(n))


@settings(max_examples=20)
@given(n=st.integers(2, 30), seed=SEEDS, lam=st.floats(1.0, 2.0))
def test_solve_dare_rejects_random_non_detectable(n, seed, lam):
    # one unstable or marginal mode that C does not see, hidden by a permutation
    f, c, q, r = _random_model(n - 1, seed, 0.5)
    f = np.block([[np.array([[lam]]), np.zeros((1, n - 1))], [np.zeros((n - 1, 1)), f]])
    c = np.hstack([np.zeros((c.shape[0], 1)), c])
    q = np.block([[np.ones((1, 1)), np.zeros((1, n - 1))], [np.zeros((n - 1, 1)), q]])
    perm = np.random.default_rng(seed).permutation(n)
    with pytest.raises(RuntimeError, match="non-detectable or ill-conditioned model"):
        nx.solve_dare(f[perm][:, perm], c[:, perm], q[perm][:, perm], r)


@settings(max_examples=20)
@given(n=st.integers(1, 30), seed=SEEDS, neg=st.floats(1e-6, 1.0))
def test_psd_sqrt_rejects_random_indefinite(n, seed, neg):
    # eigenvalues in [0, 1] and one at -neg, below the -1e-9 rounding floor
    rng = np.random.default_rng(seed)
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    w = rng.uniform(0.0, 1.0, n)
    w[0] = -neg
    with pytest.raises(ValueError, match="not positive semidefinite"):
        nx.psd_sqrt((v * w) @ v.T)
