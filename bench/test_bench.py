"""Tests of the benchmark itself: its checks reject wrong outputs, its tracer adds up.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import checks  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402


# -- tracer ----------------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_times_add_up_to_the_root_span():
    clock = FakeClock()
    tracer = tracer_mod.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        leaf()
        clock.now += 0.5
        leaf()

    def root():
        clock.now += 4.0
        middle()
        clock.now += 0.25

    leaf = tracer.span("t.leaf", leaf)
    middle = tracer.span("t.middle", middle)
    root = tracer.span("t.root", root)
    root()
    assert tracer.self_s["t.leaf"] == 4.0
    assert tracer.self_s["t.middle"] == 1.5
    assert tracer.self_s["t.root"] == 4.25
    assert sum(tracer.self_s.values()) == clock.now
    assert tracer.calls == {"t.leaf": 2, "t.middle": 1, "t.root": 1}


def test_failed_eigen_solves_are_counted_and_reraised():
    tracer = tracer_mod.Tracer()

    def boom():
        raise RuntimeError("did not converge")

    wrapped = tracer.span("numerics.symmetric_eigenpairs", boom)
    with pytest.raises(RuntimeError):
        wrapped()
    assert tracer.counts["numerics.symmetric_eigenpairs.failed"] == 1
    assert tracer.calls["numerics.symmetric_eigenpairs"] == 1


def test_install_wraps_every_binding_and_uninstall_restores_them():
    import resdet
    from resdet import attacks, cli, model, reactor, sim
    from resdet.detectors import ChiSqDetector, tune_chi2

    originals = (model.build_closed_loop, attacks.plan_attack, model.advance, model.PlantModel.__init__)
    tracer = tracer_mod.Tracer()
    tracer.install()
    try:
        for owner in (resdet, reactor, cli):
            assert owner.build_closed_loop is model.build_closed_loop
        assert cli.plan_attack is attacks.plan_attack
        assert model.build_closed_loop is not originals[0]
        loop = resdet.reactor_loop("dare")
        detector = ChiSqDetector(tune_chi2(loop.p, 0.05))
        plan = cli.plan_attack(loop, detector, k_star=11)
        ens = sim.run_ensemble(sim.Scenario(loop, detector, plan, steps=30, burn_in=10, mc_runs=7))
        assert ens.z.shape == (7, 30)
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert (model.build_closed_loop, attacks.plan_attack, model.advance,
            model.PlantModel.__init__) == originals
    assert metrics["reactor.reactor_loop.calls"] == 1
    assert metrics["model.build_closed_loop.calls"] == 1
    assert metrics["model.PlantModel.calls"] == 1
    assert metrics["attacks.plan_attack.calls"] == 1
    assert metrics["model.advance.calls"] == 30
    assert metrics["model.advance.columns"] == 7 * 30
    assert metrics["model.NoiseModel.blocks.draws"] == 7 * 30 * (loop.n + loop.p)
    assert metrics["model.advance.columns_per_s"] > 0


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {m["name"] for m in spec["per_layer"]}
    printed = set(tracer_mod.Tracer().metrics()) | {"tracing.overhead_s"}
    assert names == printed
    assert {m["name"] for m in spec["end_to_end"]} == {"setup_s", "job_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "calibrate", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- reactor-study checks ---------------------------------------------------------


@pytest.fixture(scope="module")
def reactor_outputs():
    from resdet.reactor import run_benchmark

    doc = json.loads((ROOT / "src/resdet/data/reactor.json").read_text(encoding="utf-8"))
    report = json.loads(json.dumps(run_benchmark(seed=0)["report"]))
    schema = json.loads((ROOT / "src/resdet/schemas/report.schema.json").read_text(encoding="utf-8"))
    return report, schema, checks.reactor_reference(doc)


def test_reactor_check_accepts_the_program_report(reactor_outputs):
    assert checks.check_reactor_report(*reactor_outputs) == []


@pytest.mark.parametrize("section, key", [
    ("gamma", "chi2"), ("gamma", "windowed_ell50"), ("gamma", "ones"),
    ("thresholds", "alpha"), ("thresholds", "beta_ell4"),
])
def test_reactor_check_rejects_a_value_off_by_one_percent(reactor_outputs, section, key):
    report, schema, reference = reactor_outputs
    wrong = copy.deepcopy(report)
    wrong[section][key] *= 1.01
    assert checks.check_reactor_report(wrong, schema, reference)


def test_reactor_check_rejects_a_steady_alarm_and_a_wrong_order(reactor_outputs):
    report, schema, reference = reactor_outputs
    wrong = copy.deepcopy(report)
    wrong["alarms"]["cusum_worst"]["alarms_steady"] = 1
    wrong["alarms"]["cusum_worst"]["alarms"] += 1
    assert checks.check_reactor_report(wrong, schema, reference)
    wrong = copy.deepcopy(report)
    wrong["measured"]["cusum_worst"] = wrong["measured"]["chi2_worst"] * 1.01
    assert checks.check_reactor_report(wrong, schema, reference)


@pytest.fixture(scope="module")
def greedy_case(reactor_outputs):
    schema = json.loads((ROOT / "src/resdet/schemas/summary.schema.json").read_text(encoding="utf-8"))
    reference = reactor_outputs[2]
    gamma, beta = reference["gamma"]["windowed_ell50"], reference["thresholds"]["beta_ell50"]
    summary = {"alarms": 5, "measured_deviation": 0.88 * gamma,
               "predicted_gamma": gamma, "relative_error": 0.12}
    # Pre-attack alarms, and two onset rows where the pre-attack samples
    # alone exceed beta and the attack injects nothing.
    rows = [(k, 4.0, int(k in (7, 30, 50)), 0) for k in range(1, 51)]
    rows += [(k, 0.0, 1, 1) for k in (51, 52)]
    rows += [(k, beta / 50, 0, 1) for k in range(53, 1001)]
    return summary, schema, rows, reference


def test_greedy_check_accepts_a_quiet_attack_below_the_bound(greedy_case):
    assert checks.check_greedy(*greedy_case) == []


@pytest.mark.parametrize("k, z", [(60, 3.59), (120, 3.59), (53, 3.59), (52, 0.5)])
def test_greedy_check_rejects_an_alarm_on_an_attacked_row(greedy_case, k, z):
    summary, schema, rows, reference = greedy_case
    rows = list(rows)
    rows[k - 1] = (k, z, 1, 1)
    assert checks.check_greedy(summary, schema, rows, reference)


def test_greedy_check_rejects_damage_above_the_bound(greedy_case):
    summary, schema, rows, reference = greedy_case
    summary = dict(summary, measured_deviation=1.05 * reference["gamma"]["windowed_ell50"])
    assert checks.check_greedy(summary, schema, rows, reference)


# -- calibrate checks --------------------------------------------------------------


@pytest.fixture
def calibration():
    rate = {"rate": 0.05, "stderr": 2.5e-4}
    return {
        "alpha": checks.chi2_threshold(3),
        "beta_ell4": checks.chi2_threshold(12),
        "beta_ell50": checks.chi2_threshold(150),
        "tau": {"dare": 7.5, "fixed": 7.69},
        "rates": {
            "dare": {"chi2": dict(rate), "windowed_ell4": dict(rate),
                     "windowed_ell50": {"rate": 0.0512, "stderr": 9e-4},
                     "cusum": {"rate": 0.0489, "stderr": 4e-4}},
            "fixed": {"cusum": {"rate": 0.0495, "stderr": 4e-4}},
        },
        "arl": {"chi2": {"arl": 20.4, "stderr": 1.0, "censored": 0},
                "cusum": {"arl": 19.6, "stderr": 1.0, "censored": 0}},
    }


def test_calibration_check_accepts_a_correct_calibration(calibration):
    assert checks.check_calibration(calibration) == []


@pytest.mark.parametrize("key", ["alpha", "beta_ell4", "beta_ell50"])
def test_calibration_check_rejects_a_threshold_off_by_one_percent(calibration, key):
    calibration[key] *= 1.01
    assert checks.check_calibration(calibration)


@pytest.mark.parametrize("loop, name", [
    ("dare", "chi2"), ("dare", "windowed_ell4"), ("dare", "windowed_ell50"),
    ("dare", "cusum"), ("fixed", "cusum"),
])
def test_calibration_check_rejects_a_rate_off_by_a_hundredth(calibration, loop, name):
    calibration["rates"][loop][name]["rate"] += 0.01
    assert checks.check_calibration(calibration)


@pytest.mark.parametrize("name", ["chi2", "cusum"])
def test_calibration_check_rejects_an_arl_off_by_a_quarter(calibration, name):
    calibration["arl"][name]["arl"] *= 1.25
    assert checks.check_calibration(calibration)


# -- scale checks ---------------------------------------------------------------


@pytest.fixture(scope="module")
def scale_reference():
    case = workloads.scale_case(20, "dare", 0)
    p_ref = checks.reference_covariance(case)
    w, v = np.linalg.eigh(case["c"] @ p_ref @ case["c"].T + case["r2"])
    root = (v * np.sqrt(w)) @ v.T
    m_mat = checks.reference_map(case, p_ref)
    direction = np.linalg.eigh(m_mat.T @ m_mat)[1][:, -1]
    return case, p_ref, root, direction


def test_scale_check_accepts_the_reference_solution(scale_reference):
    assert checks.check_scale_loop(*scale_reference) == ([], [])


def test_scale_check_rejects_a_covariance_or_direction_off(scale_reference):
    case, p_ref, root, direction = scale_reference
    assert checks.check_scale_loop(case, p_ref * 1.01, root, direction)[1]
    tilted = direction + 0.05 * np.roll(direction, 1)
    assert checks.check_scale_loop(case, p_ref, root, tilted / np.linalg.norm(tilted))[1]


def test_scale_check_rejects_a_root_off_by_one_percent(scale_reference):
    case, p_ref, root, direction = scale_reference
    assert checks.check_scale_loop(case, p_ref, 1.01 * root, direction) == (
        [], [f"{case['name']}: sigma_sqrt @ sigma_sqrt off sigma by 0.02"])


def test_scale_check_counts_a_root_as_inexact_as_the_jacobi_fault_as_failed(scale_reference):
    case, p_ref, root, direction = scale_reference
    failures, errors = checks.check_scale_loop(case, p_ref, (1 + 4e-9) * root, direction)
    assert errors == []
    assert len(failures) == 1


def test_scale_ensemble_check_holds_gamma_to_five_percent(scale_reference):
    case = scale_reference[0]
    p = case["c"].shape[0]
    m_mat = checks.reference_map(case, scale_reference[1])
    gamma = float(np.linalg.norm(m_mat @ np.full(p, math.sqrt(checks.chi2_threshold(p) / p))))
    assert checks.check_scale_ensemble(case, 1.03 * gamma, 0) == []
    assert checks.check_scale_ensemble(case, 1.06 * gamma, 0)
    assert checks.check_scale_ensemble(case, gamma, 1)
