"""Metamorphic relations: how outputs must move between related inputs.

Scaling both noise covariances by four (R1 -> 4 R1, R2 -> 4 R2, with the
same F, G, C, K and L) scales every IEEE operation on the loop's paths by
a power of two, so the relation holds bit for bit: P and Sigma scale by 4,
Sigma^{1/2}, the noise factors and M by 2, Sigma^-1 by 1/4, and the
distance measure z, every detector statistic and alarm, and every
threshold the tuners find stay the same (Chen, Cheung & Yiu 1998,
"Metamorphic testing: a new approach for generating next test cases",
HKUST-CS98-01).
"""

import json

import numpy as np
import pytest

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
from resdet.model import closed_loop_from_document

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
