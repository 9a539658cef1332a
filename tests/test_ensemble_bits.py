"""Bit-identity pins for the ensemble path, and the noise draw's core count.

`run_ensemble` and `iter_distance_stream` draw an ensemble's noise on every
available core, one slice of runs per thread.  The `reactor`, greedy
`simulate` and `tune` outputs pinned here were recorded when every run was
drawn in turn on one thread, the other `simulate` outputs while `sim.run`
still copied its one-run ensemble into a separate trace type.  The
core-count tests make `os.sched_getaffinity` report 1, 2, 3 and 8 CPUs and
require the same bits under each.

The reactor study draws its noise once and simulates its all-ones attack
once; `resdet reactor --seed 0` and `--seed 1` are pinned to outputs
recorded while it drew and simulated them for every ensemble and trace.
"""

import hashlib
import json
import os
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

from resdet import model as model_mod
from resdet import reactor as reactor_mod
from resdet import sim
from resdet.attacks import plan_attack
from resdet.cli import main
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    tune_chi2,
    tune_windowed,
)
from resdet.reactor import run_benchmark, scenario_path

# `resdet reactor --seed 0`
REACTOR_SHA256 = {
    "report.json": "bf281d3aeb6200cf3c80929cb4e4665e65a5aeae9a292da56e43dc9148350d85",
    "trace_chi2_ones.csv": "9695bb3859d945a375053e6869fbc38add40e783311fce8671cd7b9ea5a264a6",
    "trace_chi2_worst.csv": "c26fd29937288c2a2b0465989c67798ee61d14c8bc450a486240f3d1461c0ab4",
    "trace_cusum_ones.csv": "a7801ded6258cbe8e73ce25cf1f840fb87219da1d4e08dbf3462a79cb5f9db3e",
    "trace_cusum_worst.csv": "0827ca236311f9cb9a24eb76911829412a77e69f032dce84c7b010489e04f468",
    "trace_windowed_ell4_ones.csv": "691f80e21b3a141d7d348e0d8a2271926de19f30d6d73a244b6aa91ff48efb82",
    "trace_windowed_ell4_worst.csv": "bf56946e486561578acbf5aae1742ded8f04b7fc2c0ab092861e7527f0a0b1ed",
    "trace_windowed_ell50_ones.csv": "7578188c177215cc9f3fde1d622b0d2a09b20350bc69680b62ae1537ff8c63b5",
    "trace_windowed_ell50_worst.csv": "fb3feddc13f04d41f0433ce883aace93d55269d18312bf473e5e5c0fc6b0459b",
}
# `resdet reactor --seed 1`, recorded while every ensemble and trace drew its
# own noise and each all-ones attack was simulated for its own detector
REACTOR_SEED1_SHA256 = {
    "report.json": "edfa77e8f2828e2f37b5636e4fa774946e6a0b3c7aa507a1fdff0a5a18856f65",
    "trace_chi2_ones.csv": "7f60017ebc2a0e82791f1cfc89d2cbdf75d8b55d3a1478cadff57dd45f07db12",
    "trace_chi2_worst.csv": "f2bd1d78891ba39e204c8c20da43af422ef0b9e52d2b561f4c1b08a6defd195d",
    "trace_cusum_ones.csv": "258fe131ce5aa6f2c05e9e651288aa19fccfce91a36b5ebe45775be011ed3ac8",
    "trace_cusum_worst.csv": "ca8f6cc063c7140be5e31a544d79d4b0143848e4cf9f08796e06829fbf06b8de",
    "trace_windowed_ell4_ones.csv": "b39231de59c6884bb0ed032efc0f378bd06cb8ae8fc19a14441ed7601853a04c",
    "trace_windowed_ell4_worst.csv": "d203c1bb33572f8185e459b7d5a77b99f138ad7fde84ada411a6d7342a368ed0",
    "trace_windowed_ell50_ones.csv": "d11c2d3b65039e3a4834610cced68c04d33bb091c27e261eb2fa2c22684c8e4d",
    "trace_windowed_ell50_worst.csv": "4d57b8574bef4f7632e86fc4afa110dd66b62c274b50207fcb560669ce020e42",
}
# `resdet simulate --summary` of the bundled scenario (chi2), of it with a 5%
# windowed ell = 50 detector and the greedy attack at seed 0 (greedy), and
# with a CUSUM tau = 0.86 detector and the all-ones attack (cusum-ones); and
# of a scalar loop attack-free (attack-free) and under the windowed ell = 4
# pulse (pulse).  The trace CSV is the same with and without --summary.
SCALAR = {
    "plant": {"F": [[0.5]], "G": [[1.0]], "C": [[1.0]], "R1": [[0.435]], "R2": [[0.5]]},
    "controller": {"K": [[-0.25]]},
    "estimator": {"L": [[0.2]]},
    "detector": {"kind": "chi2", "far": 0.05},
    "attack": {"kind": "none"},
    "sim": {"steps": 400, "burn_in": 50, "seed": 1, "mc_runs": 20},
}
SIMULATE_SCENARIOS = {
    "chi2": (None, {}),
    "greedy": (None, {
        "detector": {"kind": "windowed", "window": 50, "far": 0.05},
        "attack": {"kind": "windowed-static", "direction": "worst", "k_star": 51, "mode": "greedy"},
        "sim": {"steps": 1000, "burn_in": 50, "seed": 0, "mc_runs": 200},
    }),
    "cusum-ones": (None, {
        "detector": {"kind": "cusum", "tau": 0.86, "b": 3.0},
        "attack": {"kind": "cusum", "direction": "ones", "magnitude": 3 ** 0.5, "k_star": 51},
    }),
    "attack-free": (SCALAR, {}),
    "pulse": (SCALAR, {
        "detector": {"kind": "windowed", "far": 0.05, "window": 4},
        "attack": {"kind": "windowed-pulse", "direction": [1.0], "k_star": 51},
        "sim": {"steps": 300, "burn_in": 50, "seed": 1, "mc_runs": 50},
    }),
}
# name: (sha256 of the trace CSV, summary JSON)
SIMULATE_GOLDEN = {
    "chi2": (
        "c26fd29937288c2a2b0465989c67798ee61d14c8bc450a486240f3d1461c0ab4",
        """{
  "alarms": 1,
  "measured_deviation": 892709.6388479302,
  "predicted_gamma": 892709.6184812463,
  "relative_error": 2.281445559669064e-08
}
""",
    ),
    "greedy": (
        "d1a69428e1f1946ece790832f7cfebcfb16b798d86a65111a81e46f829a733e5",
        """{
  "alarms": 0,
  "measured_deviation": 531325.7033180845,
  "predicted_gamma": 605198.7631445284,
  "relative_error": 0.12206412888653273
}
""",
    ),
    "cusum-ones": (
        "a7801ded6258cbe8e73ce25cf1f840fb87219da1d4e08dbf3462a79cb5f9db3e",
        """{
  "alarms": 12,
  "measured_deviation": 337556.6551562221,
  "predicted_gamma": 337556.63476725435,
  "relative_error": 6.040162054313563e-08
}
""",
    ),
    "attack-free": (
        "f693073cb12708b3f531e3595ff7a74a15a4f4fd1e5bb33352b5aa9b40b4bb10",
        """{
  "alarms": 19,
  "measured_deviation": 0.10491803938382734,
  "predicted_gamma": null,
  "relative_error": null
}
""",
    ),
    "pulse": (
        "94f7016ccdd4b4116f6d97f88ec12cd449952c204b25df0cbf60467b41074fa3",
        """{
  "alarms": 10,
  "measured_deviation": 0.09110139896698452,
  "predicted_gamma": null,
  "relative_error": null
}
""",
    ),
}
# `resdet tune --detector cusum --far 0.05 --scenario <bundled>`
TUNE_CUSUM = (
    '{"detector": "cusum", "params": {"p": 3, "b": 3.0, "mc": 1000000, "seed": 0}, '
    '"threshold": 7.5, "far": 0.05}\n'
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_cpus(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)


def chi2_scenario(model, runs: int) -> sim.Scenario:
    detector = ChiSqDetector(tune_chi2(model.p, 0.05))
    plan = plan_attack(model, detector, k_star=21)
    return sim.Scenario(model, detector, plan, steps=120, burn_in=20, seed=3, mc_runs=runs)


# ---------------------------------------------------------------- golden CLI


def test_reactor_outputs_are_golden(tmp_path):
    assert main(["reactor", "--out-dir", str(tmp_path), "--seed", "0"]) == 0
    assert {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()} == REACTOR_SHA256


def test_reactor_seed_1_outputs_are_golden(tmp_path):
    assert main(["reactor", "--out-dir", str(tmp_path), "--seed", "1"]) == 0
    assert {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()} == REACTOR_SEED1_SHA256


def test_reactor_outputs_are_golden_without_assertions(tmp_path, child_env):
    # `python -O` drops advance's error-recursion check (`if __debug__`): no bit may move
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "resdet.cli", "reactor", "--out-dir", str(tmp_path), "--seed", "0"],
        capture_output=True, text=True, timeout=300, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert {p.name: sha256(p.read_bytes()) for p in tmp_path.iterdir()} == REACTOR_SHA256


@pytest.mark.parametrize("name", sorted(SIMULATE_SCENARIOS))
def test_simulate_is_golden(tmp_path, name):
    base, overrides = SIMULATE_SCENARIOS[name]
    doc = dict(base or json.loads(scenario_path().read_text(encoding="utf-8")), **overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    csv, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    assert main(["simulate", "--scenario", str(path), "--out", str(csv), "--summary", str(summary)]) == 0
    assert (sha256(csv.read_bytes()), summary.read_text(encoding="utf-8")) == SIMULATE_GOLDEN[name]


def test_tune_cusum_stdout_is_golden(capsys, monkeypatch):
    monkeypatch.delenv("RS_SEED", raising=False)
    rc = main(["tune", "--detector", "cusum", "--far", "0.05", "--scenario", str(scenario_path())])
    assert rc == 0
    assert capsys.readouterr().out == TUNE_CUSUM


# ------------------------------------------------------------ shared draws


def test_the_study_simulates_each_distinct_trajectory_once(monkeypatch):
    # one 200-run draw; an ensemble and a trace for each worst-case attack,
    # and one of each for the all-ones attack, which no detector changes
    draws, simulated = [], []
    draw_blocks, run_ensemble = model_mod._draw_blocks, sim.run_ensemble

    def recording_draw(sources, *args):
        draws.append(len(sources))
        return draw_blocks(sources, *args)

    def recording_run(scenario, noise=None):
        simulated.append((scenario.detector.kind, scenario.plan.magnitude is None, scenario.mc_runs))
        return run_ensemble(scenario, noise)

    monkeypatch.setattr(model_mod, "_draw_blocks", recording_draw)
    monkeypatch.setattr(sim, "run_ensemble", recording_run)
    result = run_benchmark(seed=0)
    assert draws == [200]
    worst = [(kind, True, runs) for kind in ("chi2", "windowed", "windowed", "cusum") for runs in (200, 1)]
    assert simulated == worst[:2] + [("chi2", False, 200), ("chi2", False, 1)] + worst[2:]
    assert len(result["traces"]) == 8
    assert len({id(trace.z) for key, trace in result["traces"].items() if key.endswith("_ones")}) == 1


def test_the_study_takes_its_geometry_from_the_bundled_scenario(tmp_path, monkeypatch):
    doc = json.loads(scenario_path().read_text(encoding="utf-8"))
    doc["sim"] = {"steps": 120, "burn_in": 20, "seed": 5, "mc_runs": 3}
    bundled = tmp_path / "reactor.json"
    bundled.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(reactor_mod, "scenario_path", lambda: bundled)
    result = run_benchmark(seed=0)
    report = result["report"]
    assert (report["runs"], report["steps"], report["burn_in"], report["k_star"]) == (3, 120, 20, 21)
    assert report["seed"] == 0  # the study's seed is the caller's, never sim.seed
    assert {trace.steps for trace in result["traces"].values()} == {120}


def test_row_0_of_a_draw_is_the_one_run_draw(reactor_fixed):
    five = model_mod._draw_noise(reactor_fixed, 40, 5, 7)
    one = model_mod._draw_noise(reactor_fixed, 40, 1, 7)
    assert [block.shape for block in five] == [(5, 40, 4), (5, 40, 3)]
    for rows, row in zip(five, one):
        assert np.array_equal(rows[:1], row)


# ---------------------------------------------------------------- core count


def test_stream_and_arl_do_not_depend_on_the_core_count(reactor_dare, monkeypatch):
    detectors = [
        ChiSqDetector(tune_chi2(3, 0.05)),
        WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4),
        CusumDetector(7.5, 3.0),
    ]
    results = {}
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        for count in (1, 2, 3, 8):
            report_cpus(monkeypatch, count)
            model_mod._forget_stream()  # simulate on `count` cores rather than return a remembered z
            z = model_mod.simulate_distance_stream(reactor_dare, steps=200, runs=9, seed=4, burn_in=50)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # cap = 40 censors some runs
                arls = [estimate_arl(reactor_dare, det, runs=9, seed=6, cap=40, chunk=16, **kw)
                        for det in detectors for kw in ({}, {"warm_up": 0})]
            results[count] = z, arls
    finally:
        sys.setswitchinterval(interval)
    z_one, arls_one = results[1]
    for count, (z, arls) in results.items():
        assert np.array_equal(z, z_one), count
        assert arls == arls_one, count


def test_ensemble_does_not_depend_on_the_core_count(reactor_fixed, monkeypatch):
    scenario = chi2_scenario(reactor_fixed, runs=5)
    results = {}
    for count in (1, 2, 3):
        report_cpus(monkeypatch, count)
        results[count] = sim.run_ensemble(scenario)
    one = results[1]
    for count, ens in results.items():
        for name in ("mean_x", "z", "stat", "alarm"):
            assert np.array_equal(getattr(ens, name), getattr(one, name)), (count, name)


def test_each_slice_of_runs_is_drawn_on_its_own_thread(reactor_fixed, monkeypatch):
    report_cpus(monkeypatch, 3)
    names = {}  # run index -> name of the thread that drew its noise
    blocks = model_mod.NoiseModel.blocks

    def recording_blocks(self, steps):
        names[self.run] = threading.current_thread().name
        return blocks(self, steps)

    monkeypatch.setattr(model_mod.NoiseModel, "blocks", recording_blocks)
    before = threading.active_count()
    sim.run_ensemble(chi2_scenario(reactor_fixed, runs=5))
    assert threading.active_count() == before  # every worker was joined
    # slices [0, 1), [1, 3), [3, 5); the caller draws the first
    main_name = threading.main_thread().name
    assert names[0] == main_name
    assert names[1] == names[2] != main_name
    assert names[3] == names[4] not in (main_name, names[1])


def test_v_and_eta_are_drawn_into_one_buffer(reactor_fixed):
    # two arrays, freed at different times around a remembered stream,
    # fragment the glibc heap and raise the peak resident size
    v, eta = model_mod._draw_noise(reactor_fixed, 40, 5, 7)
    assert v.shape == (5, 40, 4) and eta.shape == (5, 40, 3)
    assert v.base is not None and v.base is eta.base


def test_a_one_run_or_empty_draw_starts_no_thread(reactor_fixed, monkeypatch):
    report_cpus(monkeypatch, 3)

    def no_thread(*args, **kwargs):
        raise AssertionError("a one-run draw started a thread")

    monkeypatch.setattr(model_mod.threading, "Thread", no_thread)
    trace = sim.run(chi2_scenario(reactor_fixed, runs=5))
    assert trace.z.shape == (1, 120)
    z = model_mod.simulate_distance_stream(reactor_fixed, steps=30, runs=1, seed=2)
    assert z.shape == (1, 30)
    blocks = list(model_mod.iter_distance_stream(reactor_fixed, [5], runs=0))
    assert [b.shape for b in blocks] == [(0, 5)]


def test_an_error_on_a_worker_slice_reaches_the_caller(reactor_fixed, monkeypatch):
    report_cpus(monkeypatch, 2)  # slices [0, 2), [2, 5)
    raised_on = []

    def failing_blocks(self, steps):
        if self.run == 4:
            raised_on.append(threading.current_thread())
            raise RuntimeError("no noise for run 4")
        return np.zeros((steps, self.chol_r1.shape[0])), np.zeros((steps, self.chol_r2.shape[0]))

    monkeypatch.setattr(model_mod.NoiseModel, "blocks", failing_blocks)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="no noise for run 4"):
        sim.run_ensemble(chi2_scenario(reactor_fixed, runs=5))
    with pytest.raises(RuntimeError, match="no noise for run 4"):
        model_mod.simulate_distance_stream(reactor_fixed, steps=30, runs=5, seed=2)
    assert len(raised_on) == 2
    assert all(thread is not threading.main_thread() for thread in raised_on)
    assert threading.active_count() == before
