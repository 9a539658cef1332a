"""Bit-identity pins for the ensemble path, and the thread the noise is drawn on.

`run_ensemble` and `iter_distance_stream` draw an ensemble's noise run by
run on the calling thread.  Every pin here was recorded with the
prefix-consistent draw, where step t of run i's noise depends only on
(seed, i, t), so it holds whatever the size of the pieces the noise is
drawn in.

The reactor study draws its noise once, simulates its all-ones attack
once and takes each trace from row 0 of its ensemble.  With `--summary`,
`simulate` takes its trace from row 0 of the summary's ensemble, whose
wider state block can round differently from the one-run simulation of
plain `simulate`.  `resdet reactor --seed 0` and the greedy
`simulate --summary` are also run under `python -O`, which drops
advance's error check, and keep the same pins.
"""

import hashlib
import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from resdet import model as model_mod
from resdet import reactor as reactor_mod
from resdet import sim
from resdet.attacks import plan_attack
from resdet.cli import main
from resdet.detectors import ChiSqDetector, estimate_arl, tune_chi2
from resdet.reactor import run_benchmark, scenario_path

# `resdet reactor --seed 0`
REACTOR_SHA256 = {
    "report.json": "9d008dd7575b4f552ce1be993176e5dad726b31e422ebd676fdadc52c5ebcbee",
    "trace_chi2_ones.csv": "1eb08e8451cc9fdf8e85437786aa33fd6e03251b01391cb81e091b91a44cafd6",
    "trace_chi2_worst.csv": "0342d1d12f13c62f1b4c408ca0741e3aa3fa47eeab2e6a0965d311789798ec6c",
    "trace_cusum_ones.csv": "e0aec8afaeed91706cb3942d6f910e76898d5da8d455e91e0605526edaf8f8f7",
    "trace_cusum_worst.csv": "4f8990625b0ef5d3d52548718c1033bd108e60d6f3cb85a87d1d51bb84026926",
    "trace_windowed_ell4_ones.csv": "6dfd4c10a27ec22cf1aea27afa8203a7f7c3927d6803b3568bde3dfe487c1a9a",
    "trace_windowed_ell4_worst.csv": "661af256918c6436477dc19dfa64f32ca88d72db27b8813158e97a3e9aa6de5d",
    "trace_windowed_ell50_ones.csv": "f763b73eaaa6ca9c57e1fa04280aef7dc0c7b54df01ec3d48a5628712d106d81",
    "trace_windowed_ell50_worst.csv": "d4711b08da6d70958fb533106094f29fa0abb6138ce5940fe0ed41ef57bc1ecd",
}
# `resdet reactor --seed 1`
REACTOR_SEED1_SHA256 = {
    "report.json": "11bcd946d0f2d0c35a04abe820491f400147e6071202d582b277a5b4391b300a",
    "trace_chi2_ones.csv": "286ad397ae559d3b82b32688201d1f3e4908009e3ddb721853512608f0b5a6b6",
    "trace_chi2_worst.csv": "54e2c0c3208f40e1d0096c736099ebcea267184e92e1adf2f2e435981cddef10",
    "trace_cusum_ones.csv": "55e09fee58447581fbdaac6bf0773d18cb2aa2ed42184cc7505fa556ddf954df",
    "trace_cusum_worst.csv": "51470abb84b014feb802cecfb3311dd0749b140621723ba880e372195f3e79b0",
    "trace_windowed_ell4_ones.csv": "10286b83b6c03c1e46f2666c87f7615b813ac68de78da2dc04441c24861f560b",
    "trace_windowed_ell4_worst.csv": "f213757dfd1df2601ce709396c026498404ab802404bbd64915adb6e39887a42",
    "trace_windowed_ell50_ones.csv": "c76776f68abedc0e973fa111cd5ecf30ce09d1f4ff07d41f0cdc823175190e02",
    "trace_windowed_ell50_worst.csv": "6d880ade81a886519b060dc7479e6c6f8d0b2fbef970ab45f6486ab8c86a864d",
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
        "0342d1d12f13c62f1b4c408ca0741e3aa3fa47eeab2e6a0965d311789798ec6c",
        """{
  "alarms": 3,
  "measured_deviation": 892709.5801023375,
  "predicted_gamma": 892709.6184812463,
  "relative_error": 4.299148118272146e-08
}
""",
    ),
    "greedy": (
        "fb7f553ffc06837f2b80c50645abcbce231d35d1fe19e0029294ddba75a284b2",
        """{
  "alarms": 0,
  "measured_deviation": 530715.9762988393,
  "predicted_gamma": 605198.7631445284,
  "relative_error": 0.12307161114918161
}
""",
    ),
    "cusum-ones": (
        "e0aec8afaeed91706cb3942d6f910e76898d5da8d455e91e0605526edaf8f8f7",
        """{
  "alarms": 13,
  "measured_deviation": 337556.5964106964,
  "predicted_gamma": 337556.63476725435,
  "relative_error": 1.1362999272862653e-07
}
""",
    ),
    "attack-free": (
        "7c93a7562ef6b999d6f9b7b82ac059d1e2e313267c670f4ba92cef4c5470198f",
        """{
  "alarms": 23,
  "measured_deviation": 0.12932881075472052,
  "predicted_gamma": null,
  "relative_error": null
}
""",
    ),
    "pulse": (
        "a9c8c8113f5dc5c732478b83afb9d003ffd810c5c2524a12229e00eed98977b9",
        """{
  "alarms": 7,
  "measured_deviation": 0.12538084218434029,
  "predicted_gamma": null,
  "relative_error": null
}
""",
    ),
}
# sha256 of the trace CSV of plain `resdet simulate` (no --summary)
SIMULATE_TRACE_SHA256 = {
    "chi2": "d8ca6a08380440af057f4e84c5e225b234166684fa91f00bb3cbeecc41c541f5",
    "greedy": "7403693ceb9b44dcdd98143330812cd7dd73927c4da5eee311ca8061eef6a9fb",
    "cusum-ones": "f383a19fcaa74cd79ffe8f93d3383d09995a3e28f5c6ef7055363a23554312a3",
    "attack-free": "7c93a7562ef6b999d6f9b7b82ac059d1e2e313267c670f4ba92cef4c5470198f",
    "pulse": "a9c8c8113f5dc5c732478b83afb9d003ffd810c5c2524a12229e00eed98977b9",
}
# `resdet tune --detector cusum --far 0.05 --scenario <bundled>`
TUNE_CUSUM = (
    '{"detector": "cusum", "params": {"p": 3, "b": 3.0, "mc": 1000000, "seed": 0}, '
    '"threshold": 7.5, "far": 0.05}\n'
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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
    # a draw is time-major: run i is slab [:, i] of each piece
    (five,) = model_mod._noise_pieces(reactor_fixed, 5, 7, 40)
    (one,) = model_mod._noise_pieces(reactor_fixed, 1, 7, 40)
    assert five.shape == (40, 5, 4 + 3) and one.shape == (40, 1, 4 + 3)
    assert np.array_equal(five[:, :1], one)


# ------------------------------------------------------------ drawing thread


def test_every_run_is_drawn_on_the_calling_thread_in_run_order(reactor_fixed, monkeypatch):
    drawn = []  # (run index, thread) of each run's draw, in the order they were drawn
    blocks = model_mod.NoiseModel.blocks

    def recording_blocks(self, steps, out=None):
        drawn.append((self.run, threading.current_thread()))
        return blocks(self, steps, out=out)

    monkeypatch.setattr(model_mod.NoiseModel, "blocks", recording_blocks)
    sim.run_ensemble(chi2_scenario(reactor_fixed, runs=5))
    assert drawn == [(run, threading.current_thread()) for run in range(5)]


def test_v_and_eta_are_drawn_into_one_buffer(reactor_fixed):
    # two arrays, freed at different times around a remembered stream,
    # fragment the glibc heap and raise the peak resident size
    (noise,) = model_mod._noise_pieces(reactor_fixed, 5, 7, 40)
    assert noise.shape == (40, 5, 4 + 3) and noise.flags.c_contiguous  # step t is one block
    # each row is v over eta: run 0's slab is its own NoiseModel.blocks draw
    v, eta = reactor_fixed.noise(7, run=0).blocks(40)
    assert np.array_equal(noise[:, 0, :4], v) and np.array_equal(noise[:, 0, 4:], eta)


def test_no_draw_starts_a_thread(reactor_fixed, reactor_dare, monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a draw started a thread")

    monkeypatch.setattr(threading, "Thread", no_thread)
    trace = sim.run(chi2_scenario(reactor_fixed, runs=5))
    assert trace.z.shape == (1, 120)
    assert sim.run_ensemble(chi2_scenario(reactor_fixed, runs=200)).z.shape == (200, 120)
    z = model_mod.simulate_distance_stream(reactor_fixed, steps=30, runs=1, seed=2)
    assert z.shape == (1, 30)
    z = model_mod.simulate_distance_stream(reactor_fixed, steps=30, runs=1000, seed=2)
    assert z.shape == (1000, 30)
    blocks = list(model_mod.iter_distance_stream(reactor_fixed, [5], runs=0))
    assert [b.shape for b in blocks] == [(0, 5)]
    assert estimate_arl(reactor_dare, ChiSqDetector(tune_chi2(3, 0.05)), runs=400, seed=2).runs == 400


def test_an_error_in_a_draw_is_raised_on_the_calling_thread(reactor_fixed, monkeypatch):
    drawn, raised_on = [], []

    def failing_blocks(self, steps, out=None):
        drawn.append(self.run)
        if self.run == 3:
            raised_on.append(threading.current_thread())
            raise RuntimeError("no noise for run 3")
        out[...] = 0.0
        return out[:, :self.chol_r1.shape[0]], out[:, self.chol_r1.shape[0]:]

    monkeypatch.setattr(model_mod.NoiseModel, "blocks", failing_blocks)
    with pytest.raises(RuntimeError, match="no noise for run 3"):
        sim.run_ensemble(chi2_scenario(reactor_fixed, runs=5))
    with pytest.raises(RuntimeError, match="no noise for run 3"):
        model_mod.simulate_distance_stream(reactor_fixed, steps=30, runs=5, seed=2)
    assert drawn == [0, 1, 2, 3] * 2  # the draw stops at the run that failed
    assert raised_on == [threading.current_thread()] * 2
