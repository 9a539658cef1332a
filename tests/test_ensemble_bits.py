"""Bit-identity pins for the ensemble path, and the noise draw's core count.

`run_ensemble` and `iter_distance_stream` draw an ensemble's noise on every
available core, one slice of runs per thread.  The `reactor` reports, the
plain greedy `simulate` trace and the `tune` output pinned here were
recorded when every run was drawn in turn on one thread, the other plain
`simulate` traces and the summaries while `sim.run` still copied its
one-run ensemble into a separate trace type.  The core-count tests make `os.sched_getaffinity` report 1, 2, 3 and 8 CPUs and
require the same bits under each.

The reactor study draws its noise once, simulates its all-ones attack
once and takes each trace from row 0 of its ensemble.  The `report.json`
of `resdet reactor --seed 0` and `--seed 1` were recorded while it drew
and simulated every ensemble and trace apart; the trace CSVs were
re-recorded when the traces became row 0 of the ensembles, whose wider
state block rounds differently from a one-run simulation.  So were the
`simulate --summary` traces of attacked scenarios; plain `simulate` is
pinned to the CSVs recorded before, when both paths ran the one-run
ensemble.  `resdet reactor --seed 0` and the greedy `simulate --summary`
are also run under `python -O`, which drops advance's error check, and
keep the same pins.
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
    "trace_chi2_ones.csv": "4520d10cd37bd26a6f186d0f2b7d41c3a8a587e52521c80184783f645b72849b",
    "trace_chi2_worst.csv": "02040666181582cb5a96e7f38b43c746c358e465cdb837fd831eab7f8ccc8ba4",
    "trace_cusum_ones.csv": "2115efd292ada2068f8e3964e48d25033ac7c6041da93e7cdbc8fc9047146f4a",
    "trace_cusum_worst.csv": "d50050a1dadbc71aa17bcd0521d3d8808ee06081a9211524adc7918ba2e49455",
    "trace_windowed_ell4_ones.csv": "fe7f3c3f2fe3de45b298bc851031b2d7e8c89d6df18ffafd9d8613f44fe2a740",
    "trace_windowed_ell4_worst.csv": "a6ad6ddb347145f95b6cde6de2a36a0550fa104261424a834f7523f8f80b74de",
    "trace_windowed_ell50_ones.csv": "8bd15a135235e6d56d0da2478f8a83104d73f2bca933ed6c2368203e25d6f374",
    "trace_windowed_ell50_worst.csv": "3348477f206649ba50a7e92f4430fda4d600295d315a81eef3145676788c8e52",
}
# `resdet reactor --seed 1`; report.json recorded while every ensemble and
# trace drew its own noise and each all-ones attack was simulated for its own
# detector
REACTOR_SEED1_SHA256 = {
    "report.json": "edfa77e8f2828e2f37b5636e4fa774946e6a0b3c7aa507a1fdff0a5a18856f65",
    "trace_chi2_ones.csv": "874bbbb24096af1b7249aa6a3b6cf733ef7431a645330b279929fdb34926e8cd",
    "trace_chi2_worst.csv": "ea345ad40fd21cdecffa6b59745cf0219be8790ea125f30347c5008a1f6918b6",
    "trace_cusum_ones.csv": "5a1c455bd491b87fc0484a5ddd77bbd56c172ddf352fffd35cd75b3f7b1746ba",
    "trace_cusum_worst.csv": "ac9dd51744d39c94d678d63e9d19ff8cbdedec96de540f49878c10ad4961d973",
    "trace_windowed_ell4_ones.csv": "88a3aa657d63458c9f7370577e7fc4a12a23984b30748a44801a0ccb5b47cedb",
    "trace_windowed_ell4_worst.csv": "5cfb55e0a81eb5ac112f67caf3c9e92a4d3daf32af7a6c54226b03aa06c8c641",
    "trace_windowed_ell50_ones.csv": "e708f648df98270bf3f8dcb6243fd2b1211f1bc403734230aa832dba1c714927",
    "trace_windowed_ell50_worst.csv": "fbff5113df49ffbaa0f562d41f289791fe050d677da9d10128d64fb4a8786099",
}
# `resdet simulate --summary` of the bundled scenario (chi2), of it with a 5%
# windowed ell = 50 detector and the greedy attack at seed 0 (greedy), and
# with a CUSUM tau = 0.86 detector and the all-ones attack (cusum-ones); and
# of a scalar loop attack-free (attack-free) and under the windowed ell = 4
# pulse (pulse).  With --summary an attacked scenario's trace is row 0 of the
# summary's ensemble, so its CSV can differ in the last digits from plain
# `simulate`, which runs the one-run ensemble (SIMULATE_TRACE_SHA256); at
# n = 1 (pulse) the two agree bit for bit.
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
        "02040666181582cb5a96e7f38b43c746c358e465cdb837fd831eab7f8ccc8ba4",
        """{
  "alarms": 1,
  "measured_deviation": 892709.6388479302,
  "predicted_gamma": 892709.6184812463,
  "relative_error": 2.281445559669064e-08
}
""",
    ),
    "greedy": (
        "f60042c63ca2e88c65ad32574b7085f12d8957e11d5e7a5345f327495c2b5eec",
        """{
  "alarms": 0,
  "measured_deviation": 531325.7033180845,
  "predicted_gamma": 605198.7631445284,
  "relative_error": 0.12206412888653273
}
""",
    ),
    "cusum-ones": (
        "2115efd292ada2068f8e3964e48d25033ac7c6041da93e7cdbc8fc9047146f4a",
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
# sha256 of the trace CSV of plain `resdet simulate` (no --summary)
SIMULATE_TRACE_SHA256 = {
    "chi2": "c26fd29937288c2a2b0465989c67798ee61d14c8bc450a486240f3d1461c0ab4",
    "greedy": "d1a69428e1f1946ece790832f7cfebcfb16b798d86a65111a81e46f829a733e5",
    "cusum-ones": "a7801ded6258cbe8e73ce25cf1f840fb87219da1d4e08dbf3462a79cb5f9db3e",
    "attack-free": "f693073cb12708b3f531e3595ff7a74a15a4f4fd1e5bb33352b5aa9b40b4bb10",
    "pulse": "94f7016ccdd4b4116f6d97f88ec12cd449952c204b25df0cbf60467b41074fa3",
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


def write_simulate_scenario(tmp_path, name) -> str:
    base, overrides = SIMULATE_SCENARIOS[name]
    doc = dict(base or json.loads(scenario_path().read_text(encoding="utf-8")), **overrides)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_greedy_summary_is_golden_without_assertions(tmp_path, child_env):
    # the attacked one-lane path: its bias and advance share C e, and no bit moves under `python -O`
    csv, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "resdet.cli", "simulate", "--scenario",
         write_simulate_scenario(tmp_path, "greedy"), "--out", str(csv), "--summary", str(summary)],
        capture_output=True, text=True, timeout=300, env=child_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert (sha256(csv.read_bytes()), summary.read_text(encoding="utf-8")) == SIMULATE_GOLDEN["greedy"]


@pytest.mark.parametrize("name", sorted(SIMULATE_SCENARIOS))
def test_simulate_is_golden(tmp_path, name):
    path = write_simulate_scenario(tmp_path, name)
    csv, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
    assert main(["simulate", "--scenario", path, "--out", str(csv), "--summary", str(summary)]) == 0
    assert (sha256(csv.read_bytes()), summary.read_text(encoding="utf-8")) == SIMULATE_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(SIMULATE_SCENARIOS))
def test_plain_simulate_is_golden(tmp_path, name):
    csv = tmp_path / "trace.csv"
    assert main(["simulate", "--scenario", write_simulate_scenario(tmp_path, name), "--out", str(csv)]) == 0
    assert sha256(csv.read_bytes()) == SIMULATE_TRACE_SHA256[name]


def read_trace(path):
    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return rows[:, :4], rows[:, 4:]  # (k, norm_x, z, stat), (alarm, attack_active)


@pytest.mark.parametrize("name", ["chi2", "cusum-ones", "greedy", "pulse"])
def test_a_summary_trace_is_the_plain_trace_to_rounding(tmp_path, name):
    # row 0 of the ensemble and the one-run ensemble read the same noise
    path = write_simulate_scenario(tmp_path, name)
    plain, summed = tmp_path / "plain.csv", tmp_path / "summed.csv"
    assert main(["simulate", "--scenario", path, "--out", str(plain)]) == 0
    assert main(["simulate", "--scenario", path, "--out", str(summed),
                 "--summary", str(tmp_path / "summary.json")]) == 0
    (plain_values, plain_flags), (summed_values, summed_flags) = read_trace(plain), read_trace(summed)
    assert np.allclose(summed_values, plain_values, rtol=1e-9, atol=0.0)
    assert np.array_equal(summed_flags, plain_flags)


def test_tune_cusum_stdout_is_golden(capsys, monkeypatch):
    monkeypatch.delenv("RS_SEED", raising=False)
    rc = main(["tune", "--detector", "cusum", "--far", "0.05", "--scenario", str(scenario_path())])
    assert rc == 0
    assert capsys.readouterr().out == TUNE_CUSUM


# ------------------------------------------------------------ shared draws


def test_the_study_solves_its_deviation_map_once(m_solves):
    # the study builds its own loop, so the count starts from a fresh loop
    run_benchmark(seed=0)
    assert len(m_solves) == 1


def test_the_study_simulates_each_distinct_trajectory_once(monkeypatch):
    # one 200-run draw; one simulation whose lanes are the worst-case attacks
    # and the all-ones attack, which no detector changes; each trace is row 0
    # of its lane
    draws, lanes, simulations = [], [], []
    draw_blocks, run_ensembles, simulate = model_mod._draw_blocks, sim.run_ensembles, model_mod._simulate

    def recording_draw(sources, *args):
        draws.append(len(sources))
        return draw_blocks(sources, *args)

    def recording_lanes(scenarios):
        scenarios = list(scenarios)
        lanes.append([(sc.detector.kind, getattr(sc.detector, "ell", None), sc.plan.magnitude is None,
                       sc.mc_runs) for sc in scenarios])
        return run_ensembles(scenarios)

    def recording_simulate(*args, **kwargs):
        simulations.append(kwargs.get("lanes", 1))
        return simulate(*args, **kwargs)

    def no_run_ensemble(scenario):
        raise AssertionError("the study simulated an ensemble on its own")

    monkeypatch.setattr(model_mod, "_draw_blocks", recording_draw)
    monkeypatch.setattr(model_mod, "_simulate", recording_simulate)
    monkeypatch.setattr(sim, "run_ensembles", recording_lanes)
    monkeypatch.setattr(sim, "run_ensemble", no_run_ensemble)
    result = run_benchmark(seed=0)
    assert draws == [200]
    assert simulations == [5]
    worst = [(kind, ell, True, 200)
             for kind, ell in (("chi2", None), ("windowed", 4), ("windowed", 50), ("cusum", None))]
    assert lanes == [worst[:1] + [("chi2", None, False, 200)] + worst[1:]]
    assert len(result["traces"]) == 8
    assert {trace.runs for trace in result["traces"].values()} == {1}
    ones = [trace for key, trace in result["traces"].items() if key.endswith("_ones")]
    assert len(ones) == 4 and len({id(trace.mean_x) for trace in ones}) == 1
    assert all(np.array_equal(trace.z, ones[0].z) for trace in ones)


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
    # a draw is time-major: run i is slab [:, i]
    five = model_mod._draw_noise(reactor_fixed, 40, 5, 7)
    one = model_mod._draw_noise(reactor_fixed, 40, 1, 7)
    assert five.shape == (40, 5, 4 + 3) and one.shape == (40, 1, 4 + 3)
    assert np.array_equal(five[:, :1], one)


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
            model_mod._forget_noise()  # draw on `count` cores rather than return a remembered z
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

    def recording_blocks(self, steps, out=None):
        names[self.run] = threading.current_thread().name
        return blocks(self, steps, out=out)

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
    noise = model_mod._draw_noise(reactor_fixed, 40, 5, 7)
    assert noise.shape == (40, 5, 4 + 3) and noise.flags.c_contiguous  # step t is one block
    # each row is v over eta: run 0's slab is its own NoiseModel.blocks draw
    v, eta = reactor_fixed.noise(7, run=0).blocks(40)
    assert np.array_equal(noise[:, 0, :4], v) and np.array_equal(noise[:, 0, 4:], eta)


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

    def failing_blocks(self, steps, out=None):
        if self.run == 4:
            raised_on.append(threading.current_thread())
            raise RuntimeError("no noise for run 4")
        out[...] = 0.0
        return out[:, :self.chol_r1.shape[0]], out[:, self.chol_r1.shape[0]:]

    monkeypatch.setattr(model_mod.NoiseModel, "blocks", failing_blocks)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="no noise for run 4"):
        sim.run_ensemble(chi2_scenario(reactor_fixed, runs=5))
    with pytest.raises(RuntimeError, match="no noise for run 4"):
        model_mod.simulate_distance_stream(reactor_fixed, steps=30, runs=5, seed=2)
    assert len(raised_on) == 2
    assert all(thread is not threading.main_thread() for thread in raised_on)
    assert threading.active_count() == before
