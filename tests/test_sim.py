"""Scenario plumbing, single-run vs ensemble equivalence, deviation measurement."""

import json
import math
import re
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from resdet import model as mdl
from resdet import sim
from resdet.attacks import plan_attack
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    tune_chi2,
    tune_windowed,
)
from resdet.cli import main
from resdet.reactor import BENCHMARK_BIAS, BENCHMARK_TAU, reactor_loop, scenario_path

GAMMA_CHI2 = 892709.6184812458


def chi2_scenario(loop, steps=1000, burn_in=50, seed=0, mc_runs=200, attacked=True):
    det = ChiSqDetector(tune_chi2(3, 0.05))
    plan = plan_attack(loop, det, k_star=burn_in + 1) if attacked else None
    return sim.Scenario(
        model=loop, detector=det, plan=plan,
        steps=steps, burn_in=burn_in, seed=seed, mc_runs=mc_runs,
    )


# ----------------------------------------------------------------- validation

def test_scenario_validation(reactor_fixed):
    det = ChiSqDetector(7.8)
    with pytest.raises(ValueError, match="steps"):
        sim.Scenario(model=reactor_fixed, detector=det, steps=-1)
    with pytest.raises(ValueError, match="burn_in"):
        sim.Scenario(model=reactor_fixed, detector=det, steps=50, burn_in=50)
    with pytest.raises(ValueError, match="mc_runs"):
        sim.Scenario(model=reactor_fixed, detector=det, mc_runs=0)
    with pytest.raises(ValueError, match="tail_fraction"):
        sim.Scenario(model=reactor_fixed, detector=det, tail_fraction=0.0)
    plan = plan_attack(reactor_fixed, det, k_star=10)
    with pytest.raises(ValueError, match="implies k_star"):
        sim.Scenario(model=reactor_fixed, detector=det, plan=plan, burn_in=50)


def test_scenario_rejects_a_plan_made_against_another_detector(reactor_fixed):
    ell50 = WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50)
    greedy = plan_attack(reactor_fixed, ell50, k_star=51, kind="windowed-greedy")
    ell10 = WindowedChiSqDetector(tune_windowed(3, 10, 0.05), 10)
    with pytest.raises(ValueError, match="plan thresholds .* differ from the detector's"):
        sim.Scenario(model=reactor_fixed, detector=ell10, plan=greedy)
    chi2_plan = plan_attack(reactor_fixed, ChiSqDetector(tune_chi2(3, 0.05)), k_star=51)
    benchmark_cusum = CusumDetector(BENCHMARK_TAU, BENCHMARK_BIAS)
    with pytest.raises(ValueError, match="attack kind 'chi2' does not match detector kind 'cusum'"):
        sim.Scenario(model=reactor_fixed, detector=benchmark_cusum, plan=chi2_plan)
    cusum_plan = plan_attack(reactor_fixed, benchmark_cusum, k_star=51)
    with pytest.raises(ValueError, match="differ"):
        sim.Scenario(model=reactor_fixed, detector=CusumDetector(BENCHMARK_TAU, 4.0), plan=cusum_plan)
    # the matching pairs build, also with an equal detector in place of the planned one
    for det, plan in ((ell50, greedy), (type(ell50)(**ell50.params), greedy), (benchmark_cusum, cusum_plan)):
        assert sim.Scenario(model=reactor_fixed, detector=det, plan=plan).attacked


NONFINITE_DEVIATION = "invalid attack: the predicted deviation is not finite"
NONFINITE_PULSE = "invalid attack: the deviation of the pulse held on every step is not finite"
UNSTABLE_F = "invalid attack: stability precondition violated: spectral radius of F is 1.2 >= 1"


def attack_document(plant, detector, attack):
    """A scenario document: the bundled reactor, or a scalar plant with F = 1.2."""
    if plant == "reactor":
        doc = json.loads(scenario_path().read_text(encoding="utf-8"))
    else:
        # F + GK = 0.7 is stable, but the attacked error recursion runs on F = 1.2
        doc = {"plant": {"F": [[1.2]], "G": [[1.0]], "C": [[1.0]], "R1": [[1.0]], "R2": [[1.0]]},
               "controller": {"K": [[-0.5]]}}
    params = {"window" if name == "ell" else name: value for name, value in detector.params.items()}
    doc["detector"] = {"kind": detector.kind, **params}
    doc["attack"] = attack
    doc["sim"] = {"steps": 300, "burn_in": 50, "seed": 1, "mc_runs": 20}
    return doc


@pytest.mark.parametrize("plant, detector, attack, message", [
    ("reactor", ChiSqDetector(1e308), {"kind": "chi2"}, NONFINITE_DEVIATION),
    ("reactor", ChiSqDetector(7.8), {"kind": "chi2", "magnitude": 1e150}, NONFINITE_DEVIATION),
    ("reactor", WindowedChiSqDetector(21.0, 4), {"kind": "windowed-pulse", "magnitude": 1e150},
     NONFINITE_PULSE),
    ("reactor", WindowedChiSqDetector(1e308, 4), {"kind": "windowed-pulse"}, NONFINITE_PULSE),
    ("unstable", ChiSqDetector(3.84), {"kind": "chi2", "direction": "ones"}, UNSTABLE_F),
    ("unstable", ChiSqDetector(3.84), {"kind": "chi2", "direction": [1.0]}, UNSTABLE_F),
], ids=["alpha-1e308", "magnitude-1e150", "pulse-magnitude-1e150", "pulse-beta-1e308",
        "unstable-ones", "unstable-vector"])
def test_a_scenario_rejects_the_attacks_the_cli_rejects(tmp_path, capsys, plant, detector, attack,
                                                        message):
    doc = attack_document(plant, detector, attack)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    printed = capsys.readouterr().err

    model = mdl.closed_loop_from_document(doc)
    plan = plan_attack(model, detector, k_star=51, direction=attack.get("direction", "worst"),
                       kind=attack["kind"], magnitude=attack.get("magnitude"))
    with pytest.raises(ValueError, match="^" + re.escape(message)) as info:
        sim.Scenario(model=model, detector=detector, plan=plan, steps=300, burn_in=50, seed=1,
                     mc_runs=20)
    assert printed == f"resdet: {info.value}\n"


@pytest.mark.parametrize("demo", ["01_tuning_thresholds.py", "02_stealthy_attacks.py",
                                  "03_deviation_bounds.py", "04_reactor_benchmark.py"])
def test_demo_scenarios_still_build(demo, child_env):
    # every demo runs to the end
    path = Path(__file__).resolve().parents[1] / "demos" / demo
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, timeout=300,
                          env=child_env)
    assert proc.returncode == 0, proc.stderr


def test_scenario_attack_properties(reactor_fixed):
    det = ChiSqDetector(7.8)
    bare = sim.Scenario(model=reactor_fixed, detector=det)
    assert not bare.attacked and bare.k_star is None
    sc = chi2_scenario(reactor_fixed)
    assert sc.attacked and sc.k_star == 51


def test_empty_trace(reactor_fixed):
    sc = sim.Scenario(model=reactor_fixed, detector=ChiSqDetector(7.8), steps=0, burn_in=0)
    trace = sim.run(sc)
    assert trace.steps == 0 and trace.mean_x.shape == (0, 4)
    assert trace.phase_counts()["alarms"] == 0


# ----------------------------------------------------------------- single run

def test_unattacked_alarm_count_in_binomial_band(reactor_dare):
    sc = chi2_scenario(reactor_dare, attacked=False)
    trace = sim.run(sc)
    # binomial(1000, 0.05) stays within +-3 sd of 50 (the start-up
    # transient can only lower the count)
    assert 29 <= trace.phase_counts()["alarms"] <= 71
    assert trace.phase_counts()["alarms_steady"] == 0  # no attack phases
    assert not sc.attacked and sc.k_star is None  # no step is attacked


def test_attacked_run_saturates_and_tracks_gamma(reactor_fixed):
    sc = chi2_scenario(reactor_fixed, steps=2000)
    trace = sim.run(sc)
    active = np.arange(1, trace.steps + 1) >= 51
    assert sc.k_star == 51 and active.sum() == 1950
    assert trace.alarm[0, active].sum() == 0
    assert np.max(np.abs(trace.z[0, active] - sc.detector.alpha)) <= 1e-9
    last_20 = np.linalg.norm(trace.mean_x[-20:], axis=1).mean()  # trailing 20-step mean
    assert abs(last_20 - GAMMA_CHI2) <= 0.01 * GAMMA_CHI2
    assert trace.phase_counts()["alarms_steady"] == 0
    assert sim.steady_deviation_estimate(trace) == pytest.approx(GAMMA_CHI2, rel=0.01)


# -------------------------------------------------------- ensemble equivalence

def test_run_matches_ensemble_member_zero(reactor_fixed):
    sc = chi2_scenario(reactor_fixed, steps=500, mc_runs=3)
    trace = sim.run(sc)
    ens = sim.run_ensemble(sc)
    assert np.allclose(ens.z[0], trace.z[0], rtol=1e-12, atol=1e-12)
    assert np.array_equal(ens.alarm[0], trace.alarm[0])
    assert np.allclose(ens.stat[0], trace.stat[0], rtol=1e-9, atol=1e-9)


def test_run_matches_ensemble_greedy_windowed(reactor_fixed):
    det = WindowedChiSqDetector(tune_windowed(3, 10, 0.05), 10)
    plan = plan_attack(reactor_fixed, det, k_star=51, kind="windowed-greedy")
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=500, mc_runs=2)
    trace = sim.run(sc)
    ens = sim.run_ensemble(sc)
    assert np.allclose(ens.z[0], trace.z[0], rtol=1e-9, atol=1e-9)
    assert np.array_equal(ens.alarm[0], trace.alarm[0])


@pytest.mark.parametrize("name, options", [
    ("chi2", {"kind": "chi2"}),
    ("windowed", {"kind": "windowed-static"}),
    ("windowed", {"kind": "windowed-greedy"}),
    ("windowed", {"kind": "windowed-pulse"}),
    ("cusum", {"kind": "cusum"}),
    ("cusum", {"kind": "cusum-exact"}),
])
def test_run_is_the_one_run_ensemble(reactor_fixed, name, options):
    det = {
        "chi2": ChiSqDetector(tune_chi2(3, 0.05)),
        "windowed": WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50),
        "cusum": CusumDetector(0.86, 3.0),
    }[name]
    plan = plan_attack(reactor_fixed, det, k_star=51, **options)
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=1000, seed=0)
    trace = sim.run(sc)
    ens = sim.run_ensemble(replace(sc, mc_runs=1))
    assert np.array_equal(trace.mean_x, ens.mean_x)
    assert np.array_equal(trace.z, ens.z)
    assert np.array_equal(trace.stat, ens.stat)
    assert np.array_equal(trace.alarm, ens.alarm)


SCHEDULE_DETECTORS = {
    "chi2": ("chi2", lambda: ChiSqDetector(tune_chi2(3, 0.05))),
    "windowed-static": ("windowed", lambda: WindowedChiSqDetector(tune_windowed(3, 10, 0.05), 10)),
    "windowed-greedy": ("windowed", lambda: WindowedChiSqDetector(tune_windowed(3, 10, 0.05), 10)),
    "windowed-pulse": ("windowed", lambda: WindowedChiSqDetector(tune_windowed(3, 10, 0.05), 10)),
    "cusum": ("cusum", lambda: CusumDetector(0.86, 3.0)),
    "cusum-exact": ("cusum", lambda: CusumDetector(0.86, 3.0)),
}


@pytest.mark.parametrize("kind", sorted(SCHEDULE_DETECTORS))
@settings(max_examples=4)
@given(seed=st.integers(0, 2**16), runs=st.integers(1, 7), direction=st.sampled_from(["worst", "ones"]))
def test_a_trace_is_row_0_of_its_ensemble(reactor_fixed, kind, seed, runs, direction):
    det = SCHEDULE_DETECTORS[kind][1]()
    plan = plan_attack(reactor_fixed, det, k_star=31, kind=kind, direction=direction)
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=150, burn_in=30, seed=seed,
                      mc_runs=runs)
    ens = sim.run_ensemble(sc)
    trace = ens.first_run()
    assert trace.scenario == replace(sc, mc_runs=1) and trace.runs == 1
    for name in ("z", "stat", "alarm"):
        assert np.array_equal(getattr(trace, name), getattr(ens, name)[:1]), name
    assert np.array_equal(trace.mean_x, ens.x_first)
    # run 0's recorded state is the state of the one-run ensemble, up to the
    # rounding of a wider state block
    assert np.allclose(trace.mean_x, sim.run(sc).mean_x, rtol=1e-9, atol=1e-9)


def test_a_trace_does_not_keep_its_ensemble_alive(reactor_fixed):
    ens = sim.run_ensemble(chi2_scenario(reactor_fixed, steps=120, burn_in=20, mc_runs=5))
    trace = ens.first_run()
    for name in ("z", "stat", "alarm"):
        assert not np.shares_memory(getattr(trace, name), getattr(ens, name)), name
    assert trace.first_run().mean_x is trace.mean_x
    with pytest.raises(ValueError, match="recorded no state of run 0"):
        sim.EnsembleResult.scanned(ens.scenario, ens.mean_x, ens.z).first_run()


def test_each_loop_object_solves_its_deviation_map_once(m_solves):
    # the session loops keep the M an earlier test solved: count on loops built here
    loop = reactor_loop(estimator="fixed")
    sc = chi2_scenario(loop, steps=120, burn_in=20, mc_runs=5)
    assert m_solves == [loop]

    # copies, runs and traces of the scenario, the reactor study's eight
    # scenarios and a replaced plan all read the M the loop keeps
    replace(sc, mc_runs=1)
    sim.run(sc)
    sim.run_ensemble(sc).first_run()
    eight = [chi2_scenario(loop, steps=120, burn_in=20, seed=seed, mc_runs=5) for seed in range(8)]
    for scenario in eight:
        replace(scenario, mc_runs=1)
    huge = plan_attack(loop, sc.detector, k_star=21, magnitude=1e150)
    with pytest.raises(ValueError, match="^" + re.escape(NONFINITE_DEVIATION)):
        replace(sc, plan=huge)
    assert m_solves == [loop]

    # another loop object, equal or not, solves its own once
    equal = reactor_loop(estimator="fixed")
    replace(sc, model=equal, plan=plan_attack(equal, sc.detector, k_star=21))
    det = ChiSqDetector(3.84)
    scalar = mdl.build_closed_loop(mdl.PlantModel([[0.5]], [[1.0]], [[1.0]], [[0.435]], [[0.5]]),
                                   [[-0.25]], l_gain=[[0.2]])
    stable = sim.Scenario(model=scalar, detector=det,
                          plan=plan_attack(scalar, det, k_star=51, direction=[1.0]))
    replace(stable, mc_runs=1)
    assert m_solves == [loop, equal, scalar]

    # a loop that fails the precondition raises on every check and keeps nothing
    unstable = mdl.closed_loop_from_document(attack_document("unstable", det, {"kind": "chi2"}))
    m_solves.clear()
    for _ in range(2):
        with pytest.raises(ValueError, match="^" + re.escape(UNSTABLE_F)):
            replace(stable, model=unstable)
    assert m_solves == [unstable, unstable]


def schedule_lanes(loop, runs, seed=3, direction="worst"):
    """One scenario per attack schedule, all on one model, geometry and seed."""
    lanes = []
    for kind, (_, make) in sorted(SCHEDULE_DETECTORS.items()):
        det = make()
        plan = plan_attack(loop, det, k_star=31, kind=kind, direction=direction)
        lanes.append(sim.Scenario(model=loop, detector=det, plan=plan, steps=150, burn_in=30,
                                  seed=seed, mc_runs=runs))
    return lanes


@pytest.mark.parametrize("runs, direction", [(2, "worst"), (5, "ones"), (7, "worst")])
def test_lanes_equal_separate_ensembles(reactor_fixed, runs, direction):
    # six lanes, one per schedule, among them greedy and cusum-exact, which
    # read z_past: on the reactor loop every lane is its own ensemble bit for bit
    lanes = schedule_lanes(reactor_fixed, runs, direction=direction)
    together = list(sim.run_ensembles(lanes))
    assert [ens.scenario for ens in together] == lanes
    for lane, ens in zip(lanes, together):
        alone = sim.run_ensemble(lane)
        for name in ("mean_x", "z", "stat", "alarm", "x_first"):
            assert np.array_equal(getattr(ens, name), getattr(alone, name)), (lane.plan.kind, name)


def test_five_lanes_make_one_advance_call_per_step(reactor_fixed, monkeypatch):
    # every step advances all lanes' runs in one call, with the step's noise
    # in every lane's columns and, once attacked, the C e the bias was formed
    # from; each lane keeps the bits of its own ensemble
    lanes, runs = schedule_lanes(reactor_fixed, 4)[:5], 4
    calls, advance = [], mdl.advance

    def recording_advance(model, x, xhat, v, eta, delta=None, lanes=1, **kwargs):
        calls.append((x.shape, v.shape, eta.shape, lanes, delta is not None, kwargs["c_err"] is not None))
        return advance(model, x, xhat, v, eta, delta, lanes, **kwargs)

    monkeypatch.setattr(mdl, "advance", recording_advance)
    together = list(sim.run_ensembles(lanes))
    steps, burn_in = lanes[0].steps, lanes[0].burn_in
    full = ((4, 5 * runs), (4, 5 * runs), (3, 5 * runs), 5)
    assert calls == [full + (False, True)] * burn_in + [full + (True, True)] * (steps - burn_in)
    monkeypatch.undo()
    for lane, ens in zip(lanes, together):
        alone = sim.run_ensemble(lane)
        for name in ("mean_x", "z", "stat", "alarm", "x_first"):
            assert np.array_equal(getattr(ens, name), getattr(alone, name)), (lane.plan.kind, name)


def test_one_run_lanes_equal_separate_ensembles_to_rounding(reactor_fixed):
    # a one-run ensemble alone multiplies single columns, which the BLAS may
    # round differently from the same column of a wider product
    lanes = schedule_lanes(reactor_fixed, 1)
    for lane, ens in zip(lanes, sim.run_ensembles(lanes)):
        alone = sim.run_ensemble(lane)
        assert np.allclose(ens.z, alone.z, rtol=1e-9, atol=0.0), lane.plan.kind
        assert np.allclose(ens.mean_x, alone.mean_x, rtol=1e-9, atol=1e-9), lane.plan.kind
        assert np.array_equal(ens.alarm, alone.alarm), lane.plan.kind


def test_a_lane_is_scanned_when_it_is_consumed(reactor_fixed, monkeypatch):
    # the draw is freed before the first scan, and each lane is scanned
    # only when it is taken
    draws, scans = [], []
    noise_pieces = mdl._noise_pieces

    def recording_draw(*args):
        noise = noise_pieces(*args)
        draws.append(weakref.ref(noise))
        return noise

    def recording_scan(cls):
        scan = cls.scan

        def scan_and_record(self, z, carry=None):
            assert draws and draws[0]() is None, "the draw outlived the simulation"
            scans.append(self.kind)
            return scan(self, z, carry)
        monkeypatch.setattr(cls, "scan", scan_and_record)

    monkeypatch.setattr(mdl, "_noise_pieces", recording_draw)
    for cls in (ChiSqDetector, WindowedChiSqDetector, CusumDetector):
        recording_scan(cls)
    lanes = schedule_lanes(reactor_fixed, 3)
    results = sim.run_ensembles(lanes)
    assert draws == [] and scans == []
    kinds = []
    for lane in lanes:
        next(results)
        kinds.append(lane.detector.kind)
        assert scans == kinds
    assert len(draws) == 1


LANE_CHANGES = {
    "model": lambda sc: replace(sc, model=replace(sc.model)),
    "steps": lambda sc: replace(sc, steps=151),
    "burn_in": lambda sc: replace(sc, burn_in=29, plan=replace(sc.plan, k_star=30)),
    "seed": lambda sc: replace(sc, seed=4),
    "mc_runs": lambda sc: replace(sc, mc_runs=4),
}


@pytest.mark.parametrize("field", sorted(LANE_CHANGES))
def test_lanes_must_share_model_geometry_and_seed(reactor_fixed, field):
    lanes = schedule_lanes(reactor_fixed, 3)
    lanes[2] = LANE_CHANGES[field](lanes[2])
    with pytest.raises(ValueError, match=f"^the lanes must share one {field}$"):
        sim.run_ensembles(lanes)


def test_lanes_are_all_attacked_or_all_attack_free(reactor_fixed):
    lanes = schedule_lanes(reactor_fixed, 3)
    with pytest.raises(ValueError, match="all attacked or all attack-free"):
        sim.run_ensembles([lanes[0], replace(lanes[1], plan=None)])
    with pytest.raises(ValueError, match="at least one scenario"):
        sim.run_ensembles([])


def test_a_rescanned_trajectory_is_the_simulated_one(reactor_fixed):
    # a magnitude override injects the same bias against every detector, so
    # the chi2 plan's trajectory re-scanned by the CUSUM is the CUSUM plan's run
    chi2 = ChiSqDetector(tune_chi2(3, 0.05))
    cusum = CusumDetector(BENCHMARK_TAU, BENCHMARK_BIAS)
    ones = {det.kind: sim.Scenario(
        model=reactor_fixed, detector=det, steps=200, burn_in=20, seed=2, mc_runs=6,
        plan=plan_attack(reactor_fixed, det, k_star=21, direction="ones", magnitude=math.sqrt(3)),
    ) for det in (chi2, cusum)}
    simulated = sim.run_ensemble(ones["chi2"])
    rescanned = sim.EnsembleResult.scanned(ones["cusum"], simulated.mean_x, simulated.z)
    direct = sim.run_ensemble(ones["cusum"])
    for name in ("mean_x", "z", "stat", "alarm"):
        assert np.array_equal(getattr(rescanned, name), getattr(direct, name)), name
    assert rescanned.phase_counts() == direct.phase_counts()


def test_greedy_ensemble_tops_the_window_up_to_beta(reactor_fixed):
    ell = 10
    det = WindowedChiSqDetector(tune_windowed(3, ell, 0.05), ell)
    plan = plan_attack(reactor_fixed, det, k_star=51, kind="windowed-greedy")
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=200, mc_runs=4)
    z = sim.run_ensemble(sc).z
    target = det.beta * (1.0 - plan.margin)
    for t in range(50, 200):  # the attacked steps k = 51..200
        pending = z[:, t - ell + 1:t].sum(axis=1)  # the ell - 1 samples the window keeps
        np.testing.assert_allclose(z[:, t], np.maximum(0.0, target - pending), rtol=0, atol=1e-8)


def test_ensemble_rerun_is_bitwise_identical(reactor_fixed):
    sc = chi2_scenario(reactor_fixed, steps=300, mc_runs=8)
    a = sim.run_ensemble(sc)
    b = sim.run_ensemble(sc)
    assert np.array_equal(a.z, b.z)
    assert np.array_equal(a.mean_x, b.mean_x)
    assert np.array_equal(a.alarm, b.alarm)


# -------------------------------------------------------- deviation measurement

def test_measured_matches_predicted_chi2(reactor_fixed):
    ens = sim.run_ensemble(chi2_scenario(reactor_fixed))
    measured, predicted, rel = sim.measure_steady_deviation(ens)
    assert predicted == pytest.approx(GAMMA_CHI2, rel=1e-9)
    assert rel <= 1e-4
    assert measured == pytest.approx(predicted, rel=1e-4)


def test_zero_feedback_measures_zero():
    plant = mdl.PlantModel(f=[[0.5]], g=[[1.0]], c=[[1.0]], r1=[[0.435]], r2=[[0.5]])
    loop = mdl.build_closed_loop(plant, k_fb=[[0.0]], l_gain=[[0.2]])
    det = ChiSqDetector(tune_chi2(1, 0.05))
    plan = plan_attack(loop, det, k_star=51, direction=[1.0])
    sc = sim.Scenario(model=loop, detector=det, plan=plan, steps=1000, mc_runs=200)
    measured, predicted, rel = sim.measure_steady_deviation(sim.run_ensemble(sc))
    assert predicted == 0.0
    assert rel == measured  # absolute fallback when there is no scale
    assert measured <= 0.2


def test_attacked_mean_is_stationary_in_tail(reactor_fixed):
    det = CusumDetector(0.86, 3.0)
    plan = plan_attack(reactor_fixed, det, k_star=51)
    cusum = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=1000, mc_runs=200)
    for sc in (chi2_scenario(reactor_fixed), cusum):
        ens = sim.run_ensemble(sc)
        # the last-10% and last-50% estimates agree within 2%: the mean has settled
        tails = (replace(ens, scenario=replace(sc, tail_fraction=f)) for f in (0.1, 0.5))
        dev_10, dev_50 = map(sim.steady_deviation_estimate, tails)
        assert abs(dev_10 - dev_50) <= 0.02 * dev_50


def test_windowed_attack_phase_counts(reactor_fixed):
    det = WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50)
    plan = plan_attack(reactor_fixed, det, k_star=51)
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=1000, mc_runs=200)
    counts = sim.run_ensemble(sc).phase_counts()
    assert counts["alarms_steady"] == 0
    assert counts["alarms"] == (
        counts["alarms_pre_attack"] + counts["alarms_transient"] + counts["alarms_steady"]
    )
    # one alarm on each side of k* = 51 and of the steady start 51 + 50 - 1
    assert plan.steady_start == 100
    alarm = np.zeros((2, 1000), dtype=bool)
    alarm[0, [49, 50]] = alarm[1, [98, 99]] = True  # steps 50, 51 and 99, 100
    empty = np.zeros((2, 1000))
    split = sim.EnsembleResult(sc, mean_x=np.zeros((1000, 4)), z=empty, stat=empty, alarm=alarm)
    assert split.phase_counts() == {
        "alarms": 4, "alarms_pre_attack": 1, "alarms_transient": 2, "alarms_steady": 1,
    }


def test_cusum_attack_at_most_one_alarm_per_run(reactor_fixed):
    det = CusumDetector(5.0, 3.0)
    plan = plan_attack(reactor_fixed, det, k_star=51)
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=1000, mc_runs=200)
    ens = sim.run_ensemble(sc)
    post = ens.alarm[:, 50:]  # updates k >= 51
    assert int(post.sum(axis=1).max()) <= 1


def test_measurement_requires_a_bounded_attack(reactor_fixed):
    ens = sim.run_ensemble(chi2_scenario(reactor_fixed, attacked=False, mc_runs=4, steps=200))
    with pytest.raises(ValueError, match="no prediction available"):
        sim.steady_deviation_estimate(ens)
    det = WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4)
    plan = plan_attack(reactor_fixed, det, k_star=51, kind="windowed-pulse")
    sc = sim.Scenario(model=reactor_fixed, detector=det, plan=plan, steps=200, mc_runs=4)
    pulse_ens = sim.run_ensemble(sc)
    assert sim.steady_deviation_estimate(pulse_ens) > 0.0  # measurable by simulation
    with pytest.raises(ValueError, match="measure it by simulation"):
        sim.measure_steady_deviation(pulse_ens)


# ----------------------------------------------------------------- sweep table

def test_sweep_window_contours_values_and_shape():
    rows = sim.sweep_window_contours(1, [0.05, 0.8], ell_max=120)
    by_key = {(far, ell): (beta, per) for far, ell, beta, per in rows}
    assert by_key[(0.05, 1)][0] == pytest.approx(3.8415, abs=1e-4)
    assert by_key[(0.8, 1)][0] == pytest.approx(0.0642, abs=1e-4)
    ells = sorted({ell for _, ell, _, _ in rows})
    assert ells[:100] == list(range(1, 101))  # dense up to 100
    assert ells[-1] <= 120 and len(ells) < 121  # log-thinned beyond 100
    for far, ell, beta, per in rows:
        assert per == pytest.approx(beta / ell, rel=1e-15)


def test_sweep_window_contours_validation():
    with pytest.raises(ValueError, match="false-alarm rate"):
        sim.sweep_window_contours(1, [1.5], ell_max=10)
    with pytest.raises(ValueError, match="window"):
        sim.sweep_window_contours(1, [0.05], ell_max=0)
