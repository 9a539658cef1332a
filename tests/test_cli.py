"""End-to-end command-line behavior: outputs, schemas, exit codes, seeding."""

import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from resdet import detectors as det_mod
from resdet.cli import load_scenario, main
from resdet.reactor import scenario_path

ALPHA = 7.814727903251175
GAMMA_CHI2 = 892709.6184812458


def output_schema(name: str) -> dict:
    ref = resources.files("resdet").joinpath(f"schemas/{name}")
    return json.loads(ref.read_text(encoding="utf-8"))


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def scalar_doc(**overrides):
    doc = {
        "plant": {"F": [[0.5]], "G": [[1.0]], "C": [[1.0]], "R1": [[0.435]], "R2": [[0.5]]},
        "controller": {"K": [[-0.25]]},
        "estimator": {"L": [[0.2]]},
        "detector": {"kind": "chi2", "far": 0.05},
        "attack": {"kind": "none"},
        "sim": {"steps": 400, "burn_in": 50, "seed": 1, "mc_runs": 20},
    }
    doc.update(overrides)
    return doc


def bundled_doc(**overrides):
    doc = json.loads(scenario_path().read_text(encoding="utf-8"))
    doc.update(overrides)
    return doc


@pytest.fixture
def bundled_scenario(tmp_path):
    path = tmp_path / "reactor.json"
    path.write_text(scenario_path().read_text(encoding="utf-8"), encoding="utf-8")
    return str(path)


# ----------------------------------------------------------------------- tune

def test_tune_chi2_stdout(capsys):
    assert main(["tune", "--detector", "chi2", "--sensors", "3", "--far", "0.05"]) == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, output_schema("tune.schema.json"))
    assert out["detector"] == "chi2"
    assert out["params"] == {"p": 3}
    assert out["threshold"] == pytest.approx(ALPHA, rel=1e-12)
    assert out["far"] == 0.05


def test_tune_windowed_stdout_and_errors(capsys):
    assert main(
        ["tune", "--detector", "windowed", "--sensors", "3", "--window", "4", "--far", "0.05"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["threshold"] == pytest.approx(21.026069817483055, rel=1e-12)

    assert main(
        ["tune", "--detector", "windowed", "--sensors", "3", "--window", "0", "--far", "0.05"]
    ) == 2
    assert "window must be >= 1" in capsys.readouterr().err
    assert main(["tune", "--detector", "windowed", "--sensors", "3", "--far", "0.05"]) == 2
    assert main(["tune", "--detector", "chi2", "--sensors", "3", "--far", "0"]) == 2
    assert "false-alarm rate" in capsys.readouterr().err


def test_tune_cusum_needs_a_model(capsys, bundled_scenario):
    assert main(["tune", "--detector", "cusum", "--far", "0.05"]) == 2
    assert "requires --scenario" in capsys.readouterr().err
    rc = main(
        ["tune", "--detector", "cusum", "--far", "0.05",
         "--scenario", bundled_scenario, "--mc", "200000", "--seed", "3"]
    )
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, output_schema("tune.schema.json"))
    assert out["threshold"] > 0.0
    assert out["params"]["b"] == 3.0
    assert main(
        ["tune", "--detector", "cusum", "--far", "0.05",
         "--scenario", bundled_scenario, "--sensors", "4", "--mc", "200000"]
    ) == 2
    assert "contradicts" in capsys.readouterr().err


# ------------------------------------------------------------------- simulate

def test_simulate_bundled_scenario(tmp_path, bundled_scenario):
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    rc = main(["simulate", "--scenario", bundled_scenario,
               "--out", str(trace), "--summary", str(summary)])
    assert rc == 0

    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "k,norm_x,z,stat,alarm,attack_active"
    assert len(lines) == 1001
    row50 = lines[50].split(",")
    row51 = lines[51].split(",")
    assert row50[0] == "50" and row50[5] == "0"
    assert row51[0] == "51" and row51[5] == "1"
    assert all(len(line.split(",")) == 6 for line in lines[1:])

    doc = json.loads(summary.read_text(encoding="utf-8"))
    jsonschema.validate(doc, output_schema("summary.schema.json"))
    assert doc["predicted_gamma"] == pytest.approx(GAMMA_CHI2, rel=1e-6)
    assert doc["relative_error"] <= 0.05
    assert doc["measured_deviation"] == pytest.approx(GAMMA_CHI2, rel=0.05)
    assert 0 <= doc["alarms"] <= 10  # pre-attack steps only

    trace2 = tmp_path / "trace2.csv"
    summary2 = tmp_path / "summary2.json"
    assert main(["simulate", "--scenario", bundled_scenario,
                 "--out", str(trace2), "--summary", str(summary2)]) == 0
    assert trace.read_bytes() == trace2.read_bytes()
    assert summary.read_bytes() == summary2.read_bytes()


def test_simulate_unattacked_summary(tmp_path):
    path = write_scenario(tmp_path, scalar_doc())
    trace = tmp_path / "t.csv"
    summary = tmp_path / "s.json"
    assert main(["simulate", "--scenario", path,
                 "--out", str(trace), "--summary", str(summary)]) == 0
    doc = json.loads(summary.read_text(encoding="utf-8"))
    jsonschema.validate(doc, output_schema("summary.schema.json"))
    assert doc["predicted_gamma"] is None
    assert doc["relative_error"] is None
    assert 2 <= doc["alarms"] <= 40  # ~ far * steps = 20
    assert doc["measured_deviation"] >= 0.0


def test_simulate_pulse_attack_summary(tmp_path):
    doc = scalar_doc(
        detector={"kind": "windowed", "far": 0.05, "window": 4},
        attack={"kind": "windowed-pulse", "direction": [1.0], "k_star": 51},
        sim={"steps": 300, "burn_in": 50, "seed": 1, "mc_runs": 50},
    )
    path = write_scenario(tmp_path, doc)
    summary = tmp_path / "s.json"
    assert main(["simulate", "--scenario", path,
                 "--out", str(tmp_path / "t.csv"), "--summary", str(summary)]) == 0
    out = json.loads(summary.read_text(encoding="utf-8"))
    jsonschema.validate(out, output_schema("summary.schema.json"))
    assert out["predicted_gamma"] is None  # pulse has no constant-forcing bound
    assert out["relative_error"] is None
    assert out["measured_deviation"] > 0.0


def test_simulate_rejects_defective_documents(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    assert main(["simulate", "--scenario", str(bad), "--out", str(tmp_path / "t.csv")]) == 2
    assert "malformed JSON" in capsys.readouterr().err

    missing = write_scenario(tmp_path, {"controller": {"K": [[0.0]]}}, "missing.json")
    assert main(["simulate", "--scenario", missing, "--out", str(tmp_path / "t.csv")]) == 2
    assert "schema error" in capsys.readouterr().err

    shape = write_scenario(tmp_path, scalar_doc(controller={"K": [[0.1, 0.2]]}), "shape.json")
    assert main(["simulate", "--scenario", shape, "--out", str(tmp_path / "t.csv")]) == 2
    assert "controller K must be" in capsys.readouterr().err

    assert main(["simulate", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "t.csv")]) == 2


@pytest.mark.parametrize("section, name, value", [
    ("controller", "K", [[0.1], [0.1, 0.2]]),
    ("estimator", "L", [[0.2], [0.1, 0.2]]),
])
def test_ragged_gain_matrix_exits_2(tmp_path, capsys, section, name, value):
    path = write_scenario(tmp_path, scalar_doc(**{section: {name: value}}))
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert f"invalid {section} {name}: " in capsys.readouterr().err
    assert main(["arl", "--scenario", path, "--runs", "2"]) == 2
    assert f"invalid {section} {name}: " in capsys.readouterr().err


@pytest.mark.parametrize("detector, attack", [
    ({"kind": "chi2", "far": 0.05}, {"kind": "chi2", "mode": "greedy"}),
    ({"kind": "windowed", "far": 0.05, "window": 4}, {"kind": "windowed-pulse", "mode": "greedy"}),
])
def test_simulate_rejects_greedy_mode_off_windowed_static(tmp_path, capsys, detector, attack):
    path = write_scenario(tmp_path, scalar_doc(detector=detector, attack=attack))
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert "invalid attack: the greedy mode is a windowed-static schedule" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


NONFINITE_MAGNITUDE = "invalid attack: magnitude must be finite and nonnegative"
NONFINITE_DEVIATION = "invalid attack: the predicted deviation is not finite"


@pytest.mark.parametrize("doc, message", [
    # json reads NaN and Infinity, and both pass the schema's minimum; 1e200
    # is finite, but its square, the per-step energy, is not
    *((scalar_doc(attack={"kind": "chi2", "direction": "ones", "magnitude": magnitude}),
       NONFINITE_MAGNITUDE) for magnitude in (float("nan"), float("inf"), 1e200)),
    # a finite energy whose steady deviation overflows
    (bundled_doc(attack={"kind": "chi2", "magnitude": 1e150},
                 sim={"steps": 1000, "burn_in": 50, "seed": 0, "mc_runs": 5}), NONFINITE_DEVIATION),
    (bundled_doc(detector={"kind": "chi2", "alpha": 1e308}), NONFINITE_DEVIATION),
], ids=["nan", "inf", "1e+200", "magnitude-1e150", "alpha-1e308"])
def test_simulate_rejects_a_nonfinite_magnitude(tmp_path, capsys, doc, message):
    path = write_scenario(tmp_path, doc)
    for summary in ([], ["--summary", str(tmp_path / "s.json")]):
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")] + summary) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "s.json").exists()


@pytest.mark.parametrize("detector, attack, message", [
    ({"kind": "chi2", "alpha": float("inf")}, "chi2", "alpha must be positive and finite, got inf"),
    ({"kind": "windowed", "window": 4, "beta": float("inf")}, "windowed-static",
     "beta must be positive and finite, got inf"),
    ({"kind": "cusum", "tau": float("inf"), "b": 1.0}, "cusum",
     "tau must be nonnegative and finite, got inf"),
    ({"kind": "cusum", "tau": 0.86, "b": float("inf")}, "cusum",
     "bias b must be positive and finite, got inf"),
], ids=["alpha", "beta", "tau", "b"])
def test_an_infinite_threshold_exits_2(tmp_path, capsys, detector, attack, message):
    # json reads Infinity, and it passes the schema's minimum
    doc = scalar_doc(detector=detector, attack={"kind": attack, "direction": "ones"})
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert main(["arl", "--scenario", path, "--runs", "3", "--cap", "100"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("direction", ["ones", "worst", [1.0]], ids=["ones", "worst", "vector"])
def test_simulate_rejects_an_attack_on_an_open_loop_unstable_plant(tmp_path, capsys, direction):
    # F + GK = 0.7 is stable, but the attacked error recursion runs on F = 1.2
    doc = scalar_doc(
        plant={"F": [[1.2]], "G": [[1.0]], "C": [[1.0]], "R1": [[1.0]], "R2": [[1.0]]},
        controller={"K": [[-0.5]]},
        attack={"kind": "chi2", "direction": direction},
        sim={"steps": 300, "burn_in": 50, "seed": 1, "mc_runs": 20},
    )
    del doc["estimator"]
    path = write_scenario(tmp_path, doc)
    for summary in ([], ["--summary", str(tmp_path / "s.json")]):
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")] + summary) == 2
        assert ("invalid attack: stability precondition violated: spectral radius of F is 1.2 >= 1"
                in capsys.readouterr().err)
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "s.json").exists()


def test_simulate_unstable_model_exits_3(tmp_path, capsys):
    doc = scalar_doc(plant={"F": [[1.2]], "G": [[1.0]], "C": [[1.0]],
                            "R1": [[1.0]], "R2": [[1.0]]},
                     controller={"K": [[0.1]]})
    del doc["estimator"]
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 3
    assert "unstable" in capsys.readouterr().err


def test_simulate_seed_from_environment(tmp_path, monkeypatch):
    doc = scalar_doc()
    del doc["sim"]["seed"]
    path = write_scenario(tmp_path, doc)

    def run_with(seed_env, out_name):
        monkeypatch.setenv("RS_SEED", seed_env)
        out = tmp_path / out_name
        assert main(["simulate", "--scenario", path, "--out", str(out)]) == 0
        return out.read_bytes()

    a = run_with("7", "a.csv")
    b = run_with("7", "b.csv")
    c = run_with("8", "c.csv")
    assert a == b
    assert a != c

    monkeypatch.setenv("RS_SEED", "abc")
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "d.csv")]) == 2


@pytest.mark.parametrize("command", [
    ["arl", "--runs", "50"],
    ["tune", "--detector", "cusum", "--far", "0.05", "--mc", "100000"],
], ids=["arl", "tune-cusum"])
def test_the_scenario_seed_beats_rs_seed(tmp_path, capsys, monkeypatch, command):
    # --seed beats sim.seed, which beats RS_SEED
    doc = json.loads(scenario_path().read_text(encoding="utf-8"))
    doc["sim"]["seed"] = 5
    path = write_scenario(tmp_path, doc)
    monkeypatch.setenv("RS_SEED", "0")
    outs = {}
    for flags in ([], ["--seed", "5"], ["--seed", "0"]):
        assert main(command + ["--scenario", path] + flags) == 0
        outs[" ".join(flags)] = capsys.readouterr().out
    assert outs[""] == outs["--seed 5"] != outs["--seed 0"]


def test_negative_seeds_exit_2(tmp_path, monkeypatch, capsys, bundled_scenario):
    assert main(["arl", "--scenario", bundled_scenario, "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert main(["reactor", "--out-dir", str(tmp_path / "study"), "--seed", "-1"]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "study").exists()

    doc = scalar_doc()
    del doc["sim"]["seed"]
    path = write_scenario(tmp_path, doc)
    monkeypatch.setenv("RS_SEED", "-3")
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


# ---------------------------------------------------------------------- sweep

def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--sensors", "1", "--far", "0.05,0.8",
                 "--ell-max", "120", "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "far,ell,beta,beta_over_ell"
    first = lines[1].split(",")
    assert first[0] == "0.05" and first[1] == "1"
    assert float(first[2]) == pytest.approx(3.8415, abs=1e-4)
    assert float(first[2]) == pytest.approx(float(first[3]), rel=1e-12)
    ells = sorted({int(line.split(",")[1]) for line in lines[1:]})
    assert ells[:100] == list(range(1, 101))
    assert ells[-1] == 120
    row08 = next(line.split(",") for line in lines[1:] if line.startswith("0.8,1,"))
    assert float(row08[2]) == pytest.approx(0.0642, abs=1e-4)


def test_sweep_validation(tmp_path, capsys):
    assert main(["sweep", "--sensors", "1", "--far", "1.5",
                 "--ell-max", "10", "--out", str(tmp_path / "s.csv")]) == 2
    assert "false-alarm rate" in capsys.readouterr().err
    assert main(["sweep", "--sensors", "1", "--far", "0.05",
                 "--ell-max", "0", "--out", str(tmp_path / "s.csv")]) == 2
    assert main(["sweep", "--sensors", "0", "--far", "0.05",
                 "--ell-max", "10", "--out", str(tmp_path / "s.csv")]) == 2
    assert main(["sweep", "--sensors", "1", "--far", "x,y",
                 "--ell-max", "10", "--out", str(tmp_path / "s.csv")]) == 2


# -------------------------------------------------------------------- reactor

def test_reactor_study_outputs(tmp_path):
    out_dir = tmp_path / "nested" / "study"
    assert main(["reactor", "--out-dir", str(out_dir)]) == 0

    expected = {
        f"trace_{name}_{label}.csv"
        for name in ("chi2", "windowed_ell4", "windowed_ell50", "cusum")
        for label in ("worst", "ones")
    }
    produced = {p.name for p in out_dir.iterdir()}
    assert produced == expected | {"report.json"}
    for name in expected:
        lines = (out_dir / name).read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,norm_x,z,stat,alarm,attack_active"
        assert len(lines) == 1001

    report = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))
    jsonschema.validate(report, output_schema("report.schema.json"))
    th = report["thresholds"]
    assert th["alpha"] == pytest.approx(ALPHA, rel=1e-9)
    assert th["beta_ell4"] == pytest.approx(21.026069817483055, rel=1e-9)
    assert th["beta_ell50"] == pytest.approx(179.5806341541804, rel=1e-9)
    assert th["cusum_bias"] == 3.0 and th["cusum_tau"] == 0.86
    assert abs(report["damage_ratio_worst_over_ones"] - 2.63) <= 0.15
    assert report["ordering_by_gamma"] == ["chi2", "windowed_ell4", "windowed_ell50", "cusum"]
    assert any("symmetrized" in note for note in report["adjustments"])
    for key, counts in report["alarms"].items():
        assert counts["alarms_steady"] == 0, key
    for key, rel in report["relative_error"].items():
        assert rel <= 0.05, key


def test_reactor_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["reactor", "--out-dir", str(a)]) == 0
    assert main(["reactor", "--out-dir", str(b)]) == 0
    for path in sorted(a.iterdir()):
        assert path.read_bytes() == (b / path.name).read_bytes(), path.name


# ------------------------------------------------------------------------ arl

def test_arl_stdout(capsys, bundled_scenario):
    rc = main(["arl", "--scenario", bundled_scenario, "--runs", "300", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    jsonschema.validate(out, output_schema("arl.schema.json"))
    assert out["detector"]["kind"] == "chi2"
    assert 17.0 <= out["arl"] <= 23.0  # 1 / far = 20
    assert out["censored"] == 0
    assert out["alarm_rate"] == pytest.approx(1.0 / out["arl"], rel=1e-12)
    assert main(["arl", "--scenario", bundled_scenario, "--runs", "0"]) == 2


# `resdet arl` stdout, recorded when every run was advanced through the
# whole first chunk; stopping once every run has exceeded changes no byte.
ARL_GOLDEN = {
    ("bundled", "--runs 50 --seed 1"):
        '{"detector": {"kind": "chi2", "params": {"alpha": 7.814727903251175}}, "arl": 19.88, "alarm_rate": 0.05030181086519115, "half_width": 6.3110385072506086, "runs": 50, "censored": 0, "cap": 1000000}\n',
    ("bundled", "--cap 7 --runs 30 --seed 3"):
        '{"detector": {"kind": "chi2", "params": {"alpha": 7.814727903251175}}, "arl": 6.066666666666666, "alarm_rate": 0.16483516483516483, "half_width": 0.586370667229333, "runs": 30, "censored": 21, "cap": 7}\n',
    ("windowed4", "--runs 50 --seed 1"):
        '{"detector": {"kind": "windowed", "params": {"beta": 21.026069817483055, "window": 4}}, "arl": 31.38, "alarm_rate": 0.03186743148502231, "half_width": 6.486069305827685, "runs": 50, "censored": 0, "cap": 1000000}\n',
    ("windowed4", "--cap 7 --runs 30 --seed 3"):
        '{"detector": {"kind": "windowed", "params": {"beta": 21.026069817483055, "window": 4}}, "arl": 6.733333333333333, "alarm_rate": 0.1485148514851485, "half_width": 0.28087831591721424, "runs": 30, "censored": 25, "cap": 7}\n',
    ("cusum086", "--runs 50 --seed 1"):
        '{"detector": {"kind": "cusum", "params": {"tau": 0.86, "b": 3.0}}, "arl": 3.5, "alarm_rate": 0.2857142857142857, "half_width": 0.8570927604407822, "runs": 50, "censored": 0, "cap": 1000000}\n',
    ("cusum086", "--cap 7 --runs 30 --seed 3"):
        '{"detector": {"kind": "cusum", "params": {"tau": 0.86, "b": 3.0}}, "arl": 3.566666666666667, "alarm_rate": 0.2803738317757009, "half_width": 0.7731296204141229, "runs": 30, "censored": 5, "cap": 7}\n',
}
ARL_DETECTORS = {
    "windowed4": {"kind": "windowed", "window": 4, "far": 0.05},
    "cusum086": {"kind": "cusum", "tau": 0.86, "b": 3.0},
}


@pytest.mark.filterwarnings("ignore:.*censored lower bound")
@pytest.mark.parametrize("scenario, flags", sorted(ARL_GOLDEN))
def test_arl_stdout_is_golden(tmp_path, capsys, scenario, flags):
    doc = json.loads(scenario_path().read_text(encoding="utf-8"))
    if scenario in ARL_DETECTORS:
        doc.update(detector=ARL_DETECTORS[scenario], attack={"kind": "none"})
    path = write_scenario(tmp_path, doc)
    assert main(["arl", "--scenario", path] + flags.split()) == 0
    assert capsys.readouterr().out == ARL_GOLDEN[(scenario, flags)]


def test_arl_of_one_run_is_strict_json(tmp_path, capsys):
    # one run has no spread: half_width is null, not NaN
    path = write_scenario(tmp_path, scalar_doc())
    assert main(["arl", "--scenario", path, "--runs", "1", "--cap", "1000"]) == 0

    def reject(constant):
        raise ValueError(f"non-finite constant {constant} in the output")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    jsonschema.validate(out, output_schema("arl.schema.json"))
    assert out["runs"] == 1 and out["half_width"] is None


@pytest.mark.parametrize("bias", [4.0, None], ids=["b-from-document", "b-defaults-to-p"])
def test_arl_tunes_a_scenario_cusum_far(tmp_path, capsys, monkeypatch, bias):
    # the scenario's "far" is tuned with the document's b and mc at the resolved seed
    calls = []
    tune = det_mod.tune_cusum_tau

    def recording_tune(*args, **kwargs):
        calls.append(kwargs)
        return tune(*args, **kwargs)

    monkeypatch.setattr("resdet.cli.det_mod.tune_cusum_tau", recording_tune)
    detector = {"kind": "cusum", "far": 0.05, "mc": 100_000}
    if bias is not None:
        detector["b"] = bias
    path = write_scenario(tmp_path, bundled_doc(detector=detector, attack={"kind": "none"}))
    assert main(["arl", "--scenario", path, "--runs", "2", "--cap", "1000", "--seed", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    b = 3.0 if bias is None else bias  # defaults to p
    assert calls == [{"b": b, "a_star": 0.05, "mc": 100_000, "seed": 2}]
    model = load_scenario(path, seed_override=2).model
    tau = tune(model, b=b, a_star=0.05, mc=100_000, seed=2)
    assert out["detector"] == {"kind": "cusum", "params": {"tau": tau, "b": b}}


def test_arl_rejects_runs_and_cap_before_tuning(tmp_path, monkeypatch, capsys):
    def no_tuning(*args, **kwargs):
        raise AssertionError("the detector was tuned before the flags were checked")

    monkeypatch.setattr("resdet.cli.det_mod.tune_cusum_tau", no_tuning)
    path = write_scenario(tmp_path, scalar_doc(detector={"kind": "cusum", "far": 0.05}))
    assert main(["arl", "--scenario", path, "--cap", "0"]) == 2
    assert "--cap must be >= 1" in capsys.readouterr().err
    assert main(["arl", "--scenario", path, "--runs", "0"]) == 2
    assert "--runs must be >= 1" in capsys.readouterr().err


# ------------------------------------------------------------------- plumbing

def test_usage_errors_exit_2(capsys):
    assert main([]) == 2
    assert main(["tune", "--detector", "sideways", "--far", "0.05"]) == 2
    capsys.readouterr()


def test_module_entrypoint_smoke(child_env):
    proc = subprocess.run(
        [sys.executable, "-m", "resdet.cli", "tune",
         "--detector", "chi2", "--sensors", "3", "--far", "0.05"],
        capture_output=True, text=True, timeout=120, env=child_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["threshold"] == pytest.approx(ALPHA, rel=1e-12)
