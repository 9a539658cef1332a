"""Metamorphic relations: how outputs must move between related inputs.

Scaling both noise covariances by four (R1 -> 4 R1, R2 -> 4 R2, with the
same F, G, C, K and L) scales every IEEE operation on the loop's paths by
a power of two, so the relation holds bit for bit: P and Sigma scale by 4,
Sigma^{1/2}, the noise factors and M by 2, Sigma^-1 by 1/4, and the
distance measure z, every detector statistic and alarm, and every
threshold the tuners find stay the same (Chen, Cheung & Yiu 1998,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01).

An orthogonal change T of the state basis and an invertible change S of
the output basis leave the innovations' law alone (Anderson & Moore 1979,
Optimal Filtering): P -> T P T', L -> T L S^-1, and the z of S r, the
singular values of M, lambda_1 and rho(F - L C) are invariant, to
rounding that grows with cond(S).
"""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resdet import model as model_mod
from resdet import reactor as reactor_mod
from resdet import sim
from resdet.attacks import compute_M, plan_attack
from resdet.cli import main
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    tune_chi2,
    tune_cusum_tau,
    tune_windowed,
)
from resdet.model import PlantModel, build_closed_loop, closed_loop_from_document, distance_measure

ESTIMATORS = ["fixed", "dare"]


def scaled_by_four(doc):
    """A copy of a scenario document with its R1 and R2 times four."""
    doc = json.loads(json.dumps(doc))
    for name in ("R1", "R2"):
        doc["plant"][name] = [[4.0 * v for v in row] for row in doc["plant"][name]]
    return doc


@pytest.fixture(scope="module", params=ESTIMATORS)
def loops(request):
    """(loop, loop with R1 and R2 times four) of the benchmark, with the tabulated or the DARE gain."""
    doc = reactor_mod._bundled_document()
    if request.param == "dare":
        del doc["estimator"]
    return closed_loop_from_document(doc), closed_loop_from_document(scaled_by_four(doc))


def test_the_closed_loop_scales_by_powers_of_two(loops):
    loop, big = loops
    assert np.array_equal(big.p_pred, 4 * loop.p_pred)
    assert np.array_equal(big.sigma, 4 * loop.sigma)
    assert np.array_equal(big.sigma_sqrt, 2 * loop.sigma_sqrt)
    assert np.array_equal(big.sigma_inv, loop.sigma_inv / 4)
    assert np.array_equal(big.l_gain, loop.l_gain)
    assert np.array_equal(big.plant.chol_r1, 2 * loop.plant.chol_r1)
    assert np.array_equal(big.plant.chol_r2, 2 * loop.plant.chol_r2)
    assert np.array_equal(compute_M(big), 2 * compute_M(loop))


def test_the_attack_free_stream_is_unchanged(loops):
    loop, big = loops
    z = model_mod.simulate_distance_stream(loop, steps=300, runs=20, seed=3)
    assert np.array_equal(model_mod.simulate_distance_stream(big, steps=300, runs=20, seed=3), z)


def test_the_cusum_tuning_and_arl_are_unchanged(loops):
    loop, big = loops
    detector = CusumDetector(7.5, 3)
    assert estimate_arl(big, detector, runs=50) == estimate_arl(loop, detector, runs=50)
    tuned = tune_cusum_tau(loop, mc=100_000, full_output=True)
    assert tune_cusum_tau(big, mc=100_000, full_output=True) == tuned


DETECTORS = {
    "chi2": ChiSqDetector(tune_chi2(3, 0.05)),
    "windowed": WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4),
    "cusum": CusumDetector(7.5, 3.0),
}


@pytest.mark.parametrize("kind, detector", [
    ("chi2", "chi2"),
    ("windowed-static", "windowed"),
    ("windowed-greedy", "windowed"),
    ("windowed-pulse", "windowed"),
    ("cusum", "cusum"),
    ("cusum-exact", "cusum"),
])
def test_an_attacked_ensemble_keeps_its_alarms_and_doubles_its_state(loops, kind, detector):
    loop, big = loops
    detector = DETECTORS[detector]
    loop_run, big_run = (
        sim.run_ensemble(sim.Scenario(
            model, detector, plan_attack(model, detector, k_star=51, kind=kind),
            steps=300, burn_in=50, seed=2, mc_runs=20,
        ))
        for model in (loop, big)
    )
    assert np.array_equal(big_run.z, loop_run.z)
    assert np.array_equal(big_run.stat, loop_run.stat)
    assert np.array_equal(big_run.alarm, loop_run.alarm)
    assert np.array_equal(big_run.mean_x, 2 * loop_run.mean_x)
    assert np.array_equal(big_run.x_first, 2 * loop_run.x_first)


@pytest.mark.parametrize("command", [
    ["arl", "--runs", "100"],
    ["tune", "--detector", "cusum", "--far", "0.05"],
], ids=["arl", "tune-cusum"])
def test_the_cli_prints_the_same_bytes(tmp_path, capsys, command):
    doc = reactor_mod._bundled_document()
    stdout = []
    for name, scenario in (("loop.json", doc), ("big.json", scaled_by_four(doc))):
        path = tmp_path / name
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(command + ["--scenario", str(path)]) == 0
        stdout.append(capsys.readouterr().out)
    assert stdout[0] and stdout[1] == stdout[0]


def simulated(tmp_path, name, doc):
    """The trace rows and summary of `resdet simulate --summary` on a scenario document."""
    scenario, trace, summary = (tmp_path / f"{name}{suffix}" for suffix in (".json", ".csv", "_summary.json"))
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario), "--out", str(trace), "--summary", str(summary)]) == 0
    with trace.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh)), json.loads(summary.read_text(encoding="utf-8"))


def test_simulate_keeps_its_trace_and_doubles_its_deviation(tmp_path):
    doc = reactor_mod._bundled_document()
    (rows, summary), (big_rows, big_summary) = (
        simulated(tmp_path, name, scenario) for name, scenario in (("loop", doc), ("big", scaled_by_four(doc)))
    )
    columns = ("k", "z", "stat", "alarm", "attack_active")
    assert [[row[c] for c in columns] for row in big_rows] == [[row[c] for c in columns] for row in rows]
    for name in ("measured_deviation", "predicted_gamma"):
        assert big_summary[name] == 2 * summary[name]
    for name in ("alarms", "relative_error"):
        assert big_summary[name] == summary[name]
    # the state doubles exactly, but norm_x is printed to 12 significant
    # digits, each within 5e-12 of its own value
    norm_x, big_norm_x = (np.array([float(row["norm_x"]) for row in trace]) for trace in (rows, big_rows))
    assert np.all(np.abs(big_norm_x - 2 * norm_x) <= 1e-11 * 2 * norm_x)


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def scale_case(n, path, index=0):
    """The random stable loop (n, path, index) of the benchmark's `scale` workload, as matrices.

    F = 0.6 Q (Q orthogonal), G and C of unit spectral norm, K and L of
    norm 0.3, R1 = B B'/n and R2 = D D'/p + I; L is None on the DARE path.
    """
    p = m = n // 2
    rng = np.random.default_rng([n, 1 if path == "dare" else 2, index])
    f = 0.6 * _orthogonal(rng, n)
    g = rng.standard_normal((n, m))
    g /= np.linalg.norm(g, 2)
    c = rng.standard_normal((p, n))
    c /= np.linalg.norm(c, 2)
    k_fb = 0.3 * _orthogonal(rng, n)[:m, :]
    b = rng.standard_normal((n, n))
    d = rng.standard_normal((p, p))
    l_gain = 0.3 * _orthogonal(rng, n)[:, :p] if path == "given" else None
    return {"f": f, "g": g, "c": c, "k_fb": k_fb, "r1": b @ b.T / n, "r2": d @ d.T / p + np.eye(p),
            "l_gain": l_gain}


def loop_of(case, noise_scale=1.0):
    """The closed loop of a case's matrices, with R1 and R2 times `noise_scale`."""
    plant = PlantModel(case["f"], case["g"], case["c"], noise_scale * case["r1"], noise_scale * case["r2"])
    return build_closed_loop(plant, case["k_fb"], case["l_gain"])


@pytest.mark.parametrize("n, path", [(20, "dare"), (40, "given")])
def test_a_larger_loop_scales_by_powers_of_two(n, path):
    case = scale_case(n, path)
    loop, big = loop_of(case), loop_of(case, 4.0)
    assert np.array_equal(big.p_pred, 4 * loop.p_pred)
    assert np.array_equal(big.l_gain, loop.l_gain)
    assert np.array_equal(compute_M(big), 2 * compute_M(loop))
    z = model_mod.simulate_distance_stream(loop, steps=200, runs=5, seed=1)
    assert np.array_equal(model_mod.simulate_distance_stream(big, steps=200, runs=5, seed=1), z)


def reactor_case(estimator):
    """The bundled loop's matrices (R1 symmetrized), with its tabulated L or none."""
    loop = reactor_mod.reactor_loop(estimator)
    plant = loop.plant
    return {"f": plant.f, "g": plant.g, "c": plant.c, "k_fb": loop.k_fb, "r1": plant.r1, "r2": plant.r2,
            "l_gain": loop.l_gain if estimator == "fixed" else None}


TRANSFORM_CASES = {
    "reactor-fixed": lambda: reactor_case("fixed"),
    "reactor-dare": lambda: reactor_case("dare"),
    "dare-n20": lambda: scale_case(20, "dare"),
    "given-n20": lambda: scale_case(20, "given"),
}


def transformed(case, t, s):
    """The case in state basis T (orthogonal) and output basis S (invertible)."""
    def sym(mat):
        return 0.5 * (mat + mat.T)

    l_gain = None if case["l_gain"] is None else t @ case["l_gain"] @ np.linalg.inv(s)
    return {"f": t @ case["f"] @ t.T, "g": t @ case["g"], "c": s @ case["c"] @ t.T,
            "k_fb": case["k_fb"] @ t.T, "r1": sym(t @ case["r1"] @ t.T), "r2": sym(s @ case["r2"] @ s.T),
            "l_gain": l_gain}


def transform_deviations(case, seed, cond):
    """The relative deviations from each invariant under a random T and an S of condition number `cond`."""
    rng = np.random.default_rng(seed)
    n, p = case["c"].shape[1], case["c"].shape[0]
    t = _orthogonal(rng, n)
    s = _orthogonal(rng, p) @ np.diag(np.geomspace(1.0, cond, p)) @ _orthogonal(rng, p)
    loop, moved = loop_of(case), loop_of(transformed(case, t, s))
    r = rng.standard_normal((p, 50))
    z = distance_measure(loop, r)
    values, moved_values = (np.linalg.svd(compute_M(lp), compute_uv=False) for lp in (loop, moved))
    expected_l = t @ loop.l_gain @ np.linalg.inv(s)

    def rel(ours, theirs):
        return float(np.linalg.norm(np.subtract(ours, theirs)) / np.linalg.norm(theirs))

    return {
        "P": rel(moved.p_pred, t @ loop.p_pred @ t.T),
        "L": rel(moved.l_gain, expected_l),
        "z": rel(distance_measure(moved, s @ r), z),
        "singular values of M": rel(moved_values, values),
        "lambda_1": rel(moved.worst_eigenpair[1], loop.worst_eigenpair[1]),
        "rho(F - LC)": rel(moved.rho_est, loop.rho_est),
    }


@settings(max_examples=40)
@given(name=st.sampled_from(sorted(TRANSFORM_CASES)), seed=st.integers(0, 2**32 - 1),
       cond=st.floats(1.0, 200.0))
def test_a_change_of_basis_keeps_the_invariants(name, seed, cond):
    deviations = transform_deviations(TRANSFORM_CASES[name](), seed, cond)
    assert all(dev <= 1e-10 * cond for dev in deviations.values()), deviations
