"""End-to-end command-line behavior: outputs, schemas, exit codes, seeding."""

import hashlib
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from resdet import detectors as det_mod
from resdet import sim
from resdet.cli import load_scenario, main, scenario_schema
from resdet.model import ClosedLoopModel
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


def test_every_shipped_schema_is_a_valid_schema():
    names = sorted(ref.name for ref in resources.files("resdet").joinpath("schemas").iterdir()
                   if ref.name.endswith(".json"))
    assert names == ["arl.schema.json", "report.schema.json", "scenario.schema.json",
                     "summary.schema.json", "tune.schema.json"]
    for name in names:
        schema = output_schema(name)
        jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("doc", [
    {"controller": {"K": [[0.0]]}},
    scalar_doc(detector={"kind": "nope"}),
    scalar_doc(sim={"steps": -1, "burn_in": 50, "seed": 1, "mc_runs": 20}),
    scalar_doc(attack={"kind": "chi2", "direction": "sideways"}),
], ids=["missing-plant", "detector-kind", "negative-steps", "direction"])
def test_a_schema_error_names_what_jsonschema_validate_raises(tmp_path, capsys, doc):
    with pytest.raises(jsonschema.ValidationError) as raised:
        jsonschema.validate(doc, scenario_schema())
    where = "/".join(str(part) for part in raised.value.absolute_path) or "(root)"
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 2
    assert capsys.readouterr().err == f"resdet: scenario schema error at {where}: {raised.value.message}\n"


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
NONFINITE_PULSE = "invalid attack: the deviation of the pulse held on every step is not finite"


@pytest.mark.parametrize("doc, message", [
    # json reads NaN and Infinity, and both pass the schema's minimum; 1e200
    # is finite, but its square, the per-step energy, is not
    *((scalar_doc(attack={"kind": "chi2", "direction": "ones", "magnitude": magnitude}),
       NONFINITE_MAGNITUDE) for magnitude in (float("nan"), float("inf"), 1e200)),
    # a finite energy whose steady deviation overflows
    (bundled_doc(attack={"kind": "chi2", "magnitude": 1e150},
                 sim={"steps": 1000, "burn_in": 50, "seed": 0, "mc_runs": 5}), NONFINITE_DEVIATION),
    (bundled_doc(detector={"kind": "chi2", "alpha": 1e308}), NONFINITE_DEVIATION),
    # the pulse has no constant-forcing bound; its pulse held on every step has one
    (bundled_doc(detector={"kind": "windowed", "window": 4, "far": 0.05},
                 attack={"kind": "windowed-pulse", "magnitude": 1e150},
                 sim={"steps": 1000, "burn_in": 50, "seed": 0, "mc_runs": 5}), NONFINITE_PULSE),
    (bundled_doc(detector={"kind": "windowed", "window": 4, "beta": 1e308},
                 attack={"kind": "windowed-pulse"}), NONFINITE_PULSE),
], ids=["nan", "inf", "1e+200", "magnitude-1e150", "alpha-1e308", "pulse-magnitude-1e150",
        "pulse-beta-1e308"])
def test_simulate_rejects_a_nonfinite_magnitude(tmp_path, capsys, doc, message):
    path = write_scenario(tmp_path, doc)
    for summary in ([], ["--summary", str(tmp_path / "s.json")]):
        assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")] + summary) == 2
        assert message in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()
    assert not (tmp_path / "s.json").exists()


def reject_nonfinite(constant):
    raise ValueError(f"non-finite constant {constant} in the output")


# Every JSON document is strict: NaN or Infinity in it is a usage error, and
# no document is written.

def test_a_nonfinite_tune_threshold_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("resdet.cli.det_mod.tune_chi2", lambda p, far: float("inf"))
    assert main(["tune", "--detector", "chi2", "--sensors", "3", "--far", "0.05"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "non-finite value in the output" in out.err


def test_a_nonfinite_summary_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("resdet.cli.sim_mod.measure_steady_deviation", lambda ens: (float("nan"),) * 3)
    path = write_scenario(tmp_path, bundled_doc(sim={"steps": 100, "burn_in": 50, "seed": 0, "mc_runs": 2}))
    summary = tmp_path / "s.json"
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv"),
                 "--summary", str(summary)]) == 2
    assert "non-finite value in the output" in capsys.readouterr().err
    assert not summary.exists()
    assert not (tmp_path / "t.csv").exists()  # every output is serialized before any is written


def test_a_failed_summary_write_removes_the_trace(tmp_path, capsys):
    path = write_scenario(tmp_path, bundled_doc(sim={"steps": 100, "burn_in": 50, "seed": 0, "mc_runs": 2}))
    trace, summary = tmp_path / "t.csv", tmp_path / "missing" / "sum.json"
    assert main(["simulate", "--scenario", path, "--out", str(trace), "--summary", str(summary)]) == 2
    assert "sum.json" in capsys.readouterr().err
    assert not trace.exists()


def test_a_failed_report_write_removes_the_traces(tmp_path, capsys, monkeypatch, scalar_loop):
    trace = sim.run(sim.Scenario(scalar_loop, det_mod.ChiSqDetector(3.84), steps=5, burn_in=0))
    study = {"report": {}, "traces": {"a": trace, "b": trace}}
    monkeypatch.setattr("resdet.cli.reactor_mod.run_benchmark", lambda seed: study)
    out_dir = tmp_path / "study"
    (out_dir / "report.json").mkdir(parents=True)  # the last write fails
    assert main(["reactor", "--out-dir", str(out_dir)]) == 2
    assert "report.json" in capsys.readouterr().err
    assert [p.name for p in out_dir.iterdir()] == ["report.json"]


def test_a_nonfinite_report_exits_2(tmp_path, capsys, monkeypatch):
    def nan_study(seed):
        return {"report": {"damage_ratio_worst_over_ones": float("nan")}, "traces": {}}

    monkeypatch.setattr("resdet.cli.reactor_mod.run_benchmark", nan_study)
    assert main(["reactor", "--out-dir", str(tmp_path / "study")]) == 2
    assert "non-finite value in the output" in capsys.readouterr().err
    assert not (tmp_path / "study" / "report.json").exists()


HUGE = 10**400  # an integer beyond the largest float
FLOAT_SHAPE = "resdet: chi-squared shape p * window / 2 is too large for a float\n"


@pytest.mark.parametrize("command, message", [
    (["tune", "--detector", "windowed", "--sensors", "3", "--window", "1000000000000000000000",
      "--far", "0.05"], "shape a="),
    (["sweep", "--sensors", "3", "--far", "0.05", "--ell-max", "1000000000", "--out", "sweep.csv"],
     "shape a="),
    (["tune", "--detector", "windowed", "--sensors", "3", "--window", str(HUGE), "--far", "0.05"],
     FLOAT_SHAPE),
    (["sweep", "--sensors", str(HUGE), "--far", "0.05", "--ell-max", "3", "--out", "sweep.csv"],
     FLOAT_SHAPE),
    # log-spaced windows past int64 stay integers and reach the shape check
    (["sweep", "--sensors", "3", "--far", "0.05", "--ell-max", str(10**20), "--out", "sweep.csv"],
     "shape a="),
    (["sweep", "--sensors", "3", "--far", "0.05", "--ell-max", str(HUGE), "--out", "sweep.csv"],
     "resdet: ell_max is too large for a float\n"),
], ids=["tune-window-1e21", "sweep-ell-max-1e9", "tune-window-1e400", "sweep-sensors-1e400",
        "sweep-ell-max-1e20", "sweep-ell-max-1e400"])
def test_a_gamma_shape_out_of_reach_exits_2(tmp_path, capsys, monkeypatch, command, message):
    monkeypatch.chdir(tmp_path)
    assert main(command) == 2
    out = capsys.readouterr()
    assert out.out == "" and message in out.err
    assert out.err.startswith("resdet: ") and out.err.count("\n") == 1
    assert not (tmp_path / "sweep.csv").exists()


TINY_FAR = "resdet: false-alarm rate 1e-300 is too small: 1 - rate rounds to 1\n"


@pytest.mark.parametrize("command", [
    ["tune", "--detector", "chi2", "--sensors", "3", "--far", "1e-300"],
    ["tune", "--detector", "windowed", "--sensors", "3", "--window", "4", "--far", "1e-300"],
    ["sweep", "--sensors", "3", "--far", "0.05,1e-300", "--ell-max", "3", "--out", "sweep.csv"],
    ["simulate", "--scenario", "scenario.json", "--out", "t.csv", "--summary", "s.json"],
], ids=["tune-chi2", "tune-windowed", "sweep", "scenario-far"])
def test_a_rate_too_small_for_its_quantile_names_the_rate(tmp_path, capsys, monkeypatch, command):
    # 1 - 1e-300 rounds to 1, where no quantile exists
    monkeypatch.chdir(tmp_path)
    write_scenario(tmp_path, scalar_doc(detector={"kind": "windowed", "far": 1e-300, "window": 4}))
    assert main(command) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == TINY_FAR
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "t.csv", "--summary", "s.json"],
    ["arl", "--runs", "2", "--cap", "10"],
], ids=["simulate", "arl"])
@pytest.mark.parametrize("threshold", [{"far": 0.05}, {"beta": 21.0}], ids=["far", "beta"])
def test_a_window_too_large_for_a_float_exits_2(tmp_path, capsys, monkeypatch, command, threshold):
    monkeypatch.chdir(tmp_path)
    detector = {"kind": "windowed", "window": HUGE, **threshold}
    path = write_scenario(tmp_path, bundled_doc(detector=detector, attack={"kind": "none"}))
    assert main(command + ["--scenario", path]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "window" in out.err and "too large" in out.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


def test_a_window_longer_than_a_deque_never_fills(tmp_path):
    # a float-sized window beyond sys.maxsize is a finite budget beta / ell that no run fills
    doc = scalar_doc(detector={"kind": "windowed", "window": 10**300, "beta": 21.0},
                     attack={"kind": "windowed-static", "direction": [1.0]},
                     sim={"steps": 60, "burn_in": 10, "seed": 1, "mc_runs": 2})
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 0
    rows = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()[1:]
    assert len(rows) == 60 and all(row.split(",")[4] == "0" for row in rows)


@pytest.mark.parametrize("command", [
    ["simulate", "--out", "t.csv", "--summary", "s.json"],
    ["arl", "--runs", "2", "--cap", "10"],
    ["tune", "--detector", "cusum", "--far", "0.05", "--mc", "1000"],
], ids=["simulate", "arl", "tune-cusum"])
@pytest.mark.parametrize("text, message", [
    (b"\xff\xfe{}", "resdet: 'utf-8' codec can't decode byte 0xff in position 0"),
    (b"[" * 100_000, "resdet: malformed JSON in bad.json: maximum recursion depth exceeded"),
], ids=["not-utf8", "nested-too-deep"])
def test_an_unreadable_document_exits_2(tmp_path, capsys, monkeypatch, command, text, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.json").write_bytes(text)
    assert main(command + ["--scenario", "bad.json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith(message) and out.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.json"]


@pytest.mark.parametrize("steps", [10**15, 10**30], ids=["memory-error", "beyond-numpy-dimensions"])
def test_a_trace_too_long_to_allocate_exits_2(tmp_path, capsys, steps):
    # 10**15 steps of one run is 50 PiB, beyond any address space: the allocation fails at once
    doc = bundled_doc(attack={"kind": "none"}, sim={"steps": steps, "burn_in": 50, "seed": 0, "mc_runs": 1})
    path = write_scenario(tmp_path, doc)
    assert main(["simulate", "--scenario", path, "--out", str(tmp_path / "t.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("resdet: ") and err.count("\n") == 1
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("command, message", [
    (["simulate", "--out", "t.csv", "--summary", "u.json"],
     "the noise of runs x steps = 1000000000000000 x 1000 is too large to allocate"),
    (["arl", "--runs", str(10**15)],
     "an ARL estimate of runs = 1000000000000000 capped at 1000000 steps is too large to allocate"),
    # tune_cusum_tau draws 10**18 / 1000 runs of a 50-step burn-in and 1000 steps
    (["tune", "--detector", "cusum", "--far", "0.05", "--mc", str(10**18)],
     "the noise of runs x steps = 1000000000000000 x 1050 is too large to allocate"),
], ids=["simulate-mc-runs", "arl-runs", "tune-mc"])
def test_an_ensemble_too_large_to_allocate_exits_2(tmp_path, capsys, monkeypatch, command, message):
    # 10**15 runs of any draw here is past 2**48 bytes, so the allocation fails at
    # once, with one line that names the runs and steps asked for; it must fail
    # before one noise source per run is built, and the guard stops a list of
    # 10**15 sources long before it exhausts the memory
    noise, built = ClosedLoopModel.noise, []

    def guarded_noise(self, *args, **kwargs):
        built.append(args)
        if len(built) > 10:
            raise AssertionError("noise sources were built before the draw was allocated")
        return noise(self, *args, **kwargs)

    monkeypatch.setattr(ClosedLoopModel, "noise", guarded_noise)
    monkeypatch.chdir(tmp_path)
    doc = bundled_doc()
    doc["sim"]["mc_runs"] = 10**15
    write_scenario(tmp_path, doc, "s.json")
    assert main(command + ["--scenario", "s.json"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and out.err == f"resdet: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.json"]


def test_a_cap_past_int64_exits_2(capsys, bundled_scenario):
    # run lengths are int64: one past its range is a usage error, its largest value a cap
    assert main(["arl", "--scenario", bundled_scenario, "--runs", "3", "--cap", str(10**19)]) == 2
    assert capsys.readouterr() == ("", f"resdet: cap must be at most 2**63 - 1, got {10**19}\n")
    assert main(["arl", "--scenario", bundled_scenario, "--runs", "3", "--cap", str(2**63 - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["cap"] == 2**63 - 1


def boom(*args, **kwargs):
    raise ValueError("boom")


@pytest.mark.parametrize("target, command", [
    ("sim_mod.run_ensemble", ["simulate", "--scenario", "s.json", "--out", "t.csv", "--summary", "u.json"]),
    ("det_mod.estimate_arl", ["arl", "--scenario", "s.json", "--runs", "2"]),
    ("reactor_mod.run_benchmark", ["reactor", "--out-dir", "study"]),
    ("sim_mod.sweep_window_contours", ["sweep", "--sensors", "1", "--far", "0.05", "--ell-max", "3",
                                       "--out", "t.csv"]),
    ("det_mod.tune_chi2", ["tune", "--detector", "chi2", "--sensors", "3", "--far", "0.05"]),
], ids=["simulate", "arl", "reactor", "sweep", "tune"])
def test_a_library_value_error_exits_2(tmp_path, capsys, monkeypatch, target, command):
    monkeypatch.chdir(tmp_path)
    write_scenario(tmp_path, scalar_doc(), "s.json")
    monkeypatch.setattr(f"resdet.cli.{target}", boom)
    assert main(command) == 2
    assert capsys.readouterr() == ("", "resdet: boom\n")
    produced = sorted(p.name for p in tmp_path.rglob("*") if p.is_file())
    assert produced == ["s.json"]


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


def unstable_model_doc():
    doc = scalar_doc(plant={"F": [[1.2]], "G": [[1.0]], "C": [[1.0]],
                            "R1": [[1.0]], "R2": [[1.0]]},
                     controller={"K": [[0.1]]})
    del doc["estimator"]
    return doc


def test_simulate_unstable_model_exits_3(tmp_path, capsys):
    path = write_scenario(tmp_path, unstable_model_doc())
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

# `sweep --sensors 3 --far 0.05 --ell-max 1000000`, recorded while the log-spaced
# windows were numpy int64
SWEEP_MILLION_SHA256 = "a4165d99f7cf0b21ae4be374cfcae80b29ad55b5c440baedf8c8bc1439c47235"


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


def test_sweep_to_a_million_is_golden(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--sensors", "3", "--far", "0.05", "--ell-max", "1000000", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SWEEP_MILLION_SHA256


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


# `resdet arl` stdout, recorded with the prefix-consistent draw, where step
# t of run i's noise depends only on (seed, i, t); stopping once every run
# has exceeded changes no byte.
ARL_GOLDEN = {
    ("bundled", "--runs 50 --seed 1"):
        '{"detector": {"kind": "chi2", "params": {"alpha": 7.814727903251175}}, "arl": 19.24, "alarm_rate": 0.05197505197505198, "half_width": 5.452042200863819, "runs": 50, "censored": 0, "cap": 1000000}\n',
    ("bundled", "--cap 7 --runs 30 --seed 3"):
        '{"detector": {"kind": "chi2", "params": {"alpha": 7.814727903251175}}, "arl": 5.7, "alarm_rate": 0.17543859649122806, "half_width": 0.7288350648288938, "runs": 30, "censored": 20, "cap": 7}\n',
    ("windowed4", "--runs 50 --seed 1"):
        '{"detector": {"kind": "windowed", "params": {"beta": 21.026069817483055, "window": 4}}, "arl": 34.88, "alarm_rate": 0.0286697247706422, "half_width": 8.923111062852461, "runs": 50, "censored": 0, "cap": 1000000}\n',
    ("windowed4", "--cap 7 --runs 30 --seed 3"):
        '{"detector": {"kind": "windowed", "params": {"beta": 21.026069817483055, "window": 4}}, "arl": 6.533333333333333, "alarm_rate": 0.15306122448979592, "half_width": 0.3482566543772102, "runs": 30, "censored": 23, "cap": 7}\n',
    ("cusum086", "--runs 50 --seed 1"):
        '{"detector": {"kind": "cusum", "params": {"tau": 0.86, "b": 3.0}}, "arl": 4.08, "alarm_rate": 0.24509803921568626, "half_width": 0.9664503298152469, "runs": 50, "censored": 0, "cap": 1000000}\n',
    ("cusum086", "--cap 7 --runs 30 --seed 3"):
        '{"detector": {"kind": "cusum", "params": {"tau": 0.86, "b": 3.0}}, "arl": 2.9, "alarm_rate": 0.3448275862068966, "half_width": 0.6466532052159735, "runs": 30, "censored": 1, "cap": 7}\n',
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

    out = json.loads(capsys.readouterr().out, parse_constant=reject_nonfinite)
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


def test_module_entrypoint_smoke(tmp_path, child_env):
    def resdet(*argv):
        return subprocess.run([sys.executable, "-m", "resdet.cli", *argv],
                              capture_output=True, text=True, timeout=120, env=child_env)

    proc = resdet("tune", "--detector", "chi2", "--sensors", "3", "--far", "0.05")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["threshold"] == pytest.approx(ALPHA, rel=1e-12)

    # one defective input per error code: a usage error, a model pathology
    (tmp_path / "not-utf8.json").write_bytes(b"\xff\xfe{}")
    for name, doc, code in (("not-utf8.json", None, 2), ("unstable.json", unstable_model_doc(), 3)):
        path = tmp_path / name if doc is None else write_scenario(tmp_path, doc, name)
        proc = resdet("simulate", "--scenario", str(path), "--out", str(tmp_path / "t.csv"))
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith("resdet: ") and proc.stderr.count("\n") == 1, proc.stderr
        assert "Traceback" not in proc.stderr
    assert not (tmp_path / "t.csv").exists()
