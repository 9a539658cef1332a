"""Command-line front end.

Subcommands:
    tune      analytic (chi2, windowed) or Monte-Carlo (cusum) thresholds
    simulate  run a scenario file, write a per-step trace CSV (+ summary)
    sweep     windowed-threshold budget table beta(ell)/ell over windows
    reactor   built-in benchmark study: 8 attack traces + report.json
    arl       attack-free average run length of a scenario's detector

Scenario files are JSON documents validated against the shipped schema
(`resdet/schemas/scenario.schema.json`); the bundled benchmark scenario at
`resdet/data/reactor.json` is a complete example.  The RS_SEED environment
variable supplies the default seed wherever none is given explicitly.

Exit codes: 0 success; 2 flag, schema, or domain errors; 3 model
pathologies (unstable loop or estimator, non-detectable model).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from importlib import resources
from pathlib import Path
from typing import Optional

import jsonschema
import numpy as np

from . import detectors as det_mod
from . import reactor as reactor_mod
from . import sim as sim_mod
from .attacks import plan_attack
# build_closed_loop is not called here: bench/test_bench.py checks the tracer rebinds it here
from .model import build_closed_loop, closed_loop_from_document  # noqa: F401

__all__ = ["main", "load_scenario", "scenario_schema"]

EXIT_USAGE = 2
EXIT_MODEL = 3

_TRACE_HEADER = "k,norm_x,z,stat,alarm,attack_active"


class CliError(Exception):
    """Carries the process exit code alongside the message."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _resolve_seed(explicit: Optional[int] = None, doc: Optional[dict] = None) -> int:
    """The run seed: `explicit`, else the scenario's sim.seed, else RS_SEED, else 0; never negative."""
    seed = explicit
    if seed is None and doc is not None:
        seed = doc.get("sim", {}).get("seed")
    if seed is None:
        raw = os.environ.get("RS_SEED", "0")
        try:
            seed = int(raw)
        except ValueError:
            raise CliError(EXIT_USAGE, f"RS_SEED must be an integer, got {raw!r}") from None
    if seed < 0:
        raise CliError(EXIT_USAGE, f"seed must be nonnegative, got {seed}")
    return int(seed)


def _fmt(value: float) -> str:
    """Shortest round-trip decimal capped at 12 significant digits."""
    return format(float(value), ".12g")


def _json_default(obj):
    """numpy arrays, integers and booleans as JSON (numpy floats are floats)."""
    return obj.tolist()


def scenario_schema() -> dict:
    with resources.files("resdet").joinpath("schemas/scenario.schema.json").open(
        "r", encoding="utf-8"
    ) as fh:
        return json.load(fh)


def _load_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliError(EXIT_USAGE, f"malformed JSON in {path}: {exc}") from exc
    try:
        jsonschema.validate(doc, scenario_schema())
    except jsonschema.ValidationError as exc:
        where = "/".join(str(part) for part in exc.absolute_path) or "(root)"
        raise CliError(EXIT_USAGE, f"scenario schema error at {where}: {exc.message}") from exc
    return doc


def _build_model(doc: dict):
    try:
        return closed_loop_from_document(doc)
    except ValueError as exc:
        code = EXIT_MODEL if "unstable" in str(exc) else EXIT_USAGE
        raise CliError(code, str(exc)) from exc
    except RuntimeError as exc:
        raise CliError(EXIT_MODEL, str(exc)) from exc


def _build_detector(doc: dict, model, seed: int):
    det_doc = doc["detector"]
    kind = det_doc["kind"]
    p = model.plant.p
    try:
        if kind == "chi2":
            if "alpha" in det_doc:
                return det_mod.ChiSqDetector(float(det_doc["alpha"]))
            if "far" in det_doc:
                return det_mod.ChiSqDetector(det_mod.tune_chi2(p, det_doc["far"]))
            raise CliError(EXIT_USAGE, "chi2 detector requires alpha or far")
        if kind == "windowed":
            if "window" not in det_doc:
                raise CliError(EXIT_USAGE, "windowed detector requires a window")
            ell = int(det_doc["window"])
            if "beta" in det_doc:
                return det_mod.WindowedChiSqDetector(float(det_doc["beta"]), ell)
            if "far" in det_doc:
                beta = det_mod.tune_windowed(p, ell, det_doc["far"])
                return det_mod.WindowedChiSqDetector(beta, ell)
            raise CliError(EXIT_USAGE, "windowed detector requires beta or far")
        if kind == "cusum":
            b = float(det_doc.get("b", p))
            if "tau" in det_doc:
                return det_mod.CusumDetector(float(det_doc["tau"]), b)
            if "far" in det_doc:
                tau = det_mod.tune_cusum_tau(
                    model,
                    b=b,
                    a_star=det_doc["far"],
                    mc=int(det_doc.get("mc", 1_000_000)),
                    seed=seed,
                )
                return det_mod.CusumDetector(tau, b)
            raise CliError(EXIT_USAGE, "cusum detector requires tau or far")
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    raise CliError(EXIT_USAGE, f"unknown detector kind {kind!r}")


# Detector parameter names as scenario files spell them.
_SCENARIO_PARAM = {"ell": "window"}


def _describe_detector(detector) -> dict:
    params = {_SCENARIO_PARAM.get(name, name): value for name, value in detector.params.items()}
    return {"kind": detector.kind, "params": params}


def load_scenario(path: str, seed_override: Optional[int] = None) -> sim_mod.Scenario:
    """Parse, schema-validate, and cross-check a scenario file.

    Raises CliError with the appropriate exit code on any defect.
    """
    doc = _load_document(path)
    model = _build_model(doc)

    sim_doc = doc.get("sim", {})
    steps = int(sim_doc.get("steps", 1000))
    burn_in = int(sim_doc.get("burn_in", 50))
    seed = _resolve_seed(seed_override, doc)
    mc_runs = int(sim_doc.get("mc_runs", 200))
    tail_fraction = float(sim_doc.get("tail_fraction", 0.5))

    detector = _build_detector(doc, model, seed)

    plan = None
    attack_doc = doc.get("attack")
    if attack_doc is not None and attack_doc.get("kind", "none") != "none":
        direction = attack_doc.get("direction", "worst")
        if isinstance(direction, list):
            direction = np.asarray(direction, dtype=float)
        kind, greedy = attack_doc["kind"], attack_doc.get("mode") == "greedy"
        try:
            if greedy and kind != "windowed-static":
                raise ValueError(f"the greedy mode is a windowed-static schedule, not {kind!r}")
            plan = plan_attack(
                model,
                detector,
                k_star=int(attack_doc.get("k_star", burn_in + 1)),
                direction=direction,
                kind="windowed-greedy" if greedy else kind,
                magnitude=attack_doc.get("magnitude"),
            )
        except (ValueError, TypeError) as exc:
            raise CliError(EXIT_USAGE, f"invalid attack: {exc}") from exc

    try:
        return sim_mod.Scenario(
            model=model,
            detector=detector,
            plan=plan,
            steps=steps,
            burn_in=burn_in,
            seed=seed,
            mc_runs=mc_runs,
            tail_fraction=tail_fraction,
        )
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc


def _trace_csv(result: sim_mod.EnsembleResult) -> str:
    """One row per step of a one-run result; attack_active is 1 from k_star on."""
    norm_x = np.linalg.norm(result.mean_x, axis=1)
    k_star = result.scenario.k_star
    rows = [_TRACE_HEADER]
    for i in range(result.steps):
        k = i + 1
        active = k_star is not None and k >= k_star
        rows.append(
            f"{k},{_fmt(norm_x[i])},{_fmt(result.z[0, i])},"
            f"{_fmt(result.stat[0, i])},{int(result.alarm[0, i])},{int(active)}"
        )
    return "\n".join(rows) + "\n"


def _dumps(obj, **kwargs) -> str:
    """Strict JSON text: a non-finite number is a usage error, never NaN or Infinity."""
    try:
        return json.dumps(obj, allow_nan=False, default=_json_default, **kwargs)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"non-finite value in the output: {exc}") from exc


def _write_files(texts: dict) -> None:
    """Write each path's text; if one write fails, remove the files already opened.

    Callers serialize every output first, so a command that fails writes nothing.
    """
    opened = []
    try:
        for path, text in texts.items():
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                opened.append(Path(path))
                fh.write(text)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def _cmd_tune(args) -> int:
    try:
        if args.detector == "chi2":
            if args.sensors is None:
                raise CliError(EXIT_USAGE, "chi2 tuning requires --sensors")
            threshold = det_mod.tune_chi2(args.sensors, args.far)
            params = {"p": args.sensors}
        elif args.detector == "windowed":
            if args.sensors is None or args.window is None:
                raise CliError(EXIT_USAGE, "windowed tuning requires --sensors and --window")
            threshold = det_mod.tune_windowed(args.sensors, args.window, args.far)
            params = {"p": args.sensors, "window": args.window}
        else:
            if args.scenario is None:
                raise CliError(EXIT_USAGE, "cusum tuning requires --scenario (a model to calibrate on)")
            doc = _load_document(args.scenario)
            model = _build_model(doc)
            if args.sensors is not None and args.sensors != model.plant.p:
                raise CliError(
                    EXIT_USAGE,
                    f"--sensors {args.sensors} contradicts the scenario model (p={model.plant.p})",
                )
            b = float(model.plant.p)
            seed = _resolve_seed(args.seed, doc)
            threshold = det_mod.tune_cusum_tau(model, b=b, a_star=args.far, mc=args.mc, seed=seed)
            params = {"p": model.plant.p, "b": b, "mc": args.mc, "seed": seed}
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    print(_dumps({
        "detector": args.detector,
        "params": params,
        "threshold": threshold,
        "far": args.far,
    }))
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    trace = sim_mod.run(scenario)
    texts = {args.out: _trace_csv(trace)}
    if args.summary is not None:
        predicted = None
        relative_error = None
        if scenario.attacked:
            ensemble = sim_mod.run_ensemble(scenario)
            try:
                measured, predicted, relative_error = sim_mod.measure_steady_deviation(ensemble)
            except ValueError:
                # pulsed schedule: no constant-forcing prediction, measure only
                measured = sim_mod.steady_deviation_estimate(ensemble)
        else:
            tail = max(1, scenario.steps // 2)
            measured = float(np.linalg.norm(trace.mean_x[scenario.steps - tail:].mean(axis=0)))
        texts[args.summary] = _dumps({
            "alarms": int(trace.alarm.sum()),
            "measured_deviation": measured,
            "predicted_gamma": predicted,
            "relative_error": relative_error,
        }, indent=2) + "\n"
    _write_files(texts)
    return 0


def _cmd_sweep(args) -> int:
    try:
        rates = [float(tok) for tok in args.far.split(",") if tok.strip()]
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"--far must be a comma-separated list of rates: {exc}") from exc
    if not rates:
        raise CliError(EXIT_USAGE, "--far must name at least one rate")
    if args.sensors < 1:
        raise CliError(EXIT_USAGE, "--sensors must be >= 1")
    try:
        rows = sim_mod.sweep_window_contours(args.sensors, rates, args.ell_max)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc
    lines = ["far,ell,beta,beta_over_ell"]
    for far, ell, beta, budget in rows:
        lines.append(f"{_fmt(far)},{int(ell)},{_fmt(beta)},{_fmt(budget)}")
    _write_files({args.out: "\n".join(lines) + "\n"})
    return 0


def _cmd_reactor(args) -> int:
    seed = _resolve_seed(args.seed)
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_USAGE, f"cannot create --out-dir: {exc}") from exc
    result = reactor_mod.run_benchmark(seed=seed)
    texts = {out_dir / f"trace_{key}.csv": _trace_csv(trace) for key, trace in result["traces"].items()}
    texts[out_dir / "report.json"] = _dumps(result["report"], indent=2) + "\n"
    _write_files(texts)
    return 0


def _cmd_arl(args) -> int:
    if args.runs < 1:
        raise CliError(EXIT_USAGE, "--runs must be >= 1")
    if args.cap < 1:
        raise CliError(EXIT_USAGE, "--cap must be >= 1")
    doc = _load_document(args.scenario)
    seed = _resolve_seed(args.seed, doc)
    model = _build_model(doc)
    detector = _build_detector(doc, model, seed)
    result = det_mod.estimate_arl(model, detector, runs=args.runs, seed=seed, cap=args.cap)
    out = {"detector": _describe_detector(detector), **dataclasses.asdict(result)}
    print(_dumps(out))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resdet",
        description="Residual-based attack detection: tuning, stealthy-attack simulation, deviation bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune", help="compute a detector threshold for a target false-alarm rate")
    tune.add_argument("--detector", required=True, choices=["chi2", "windowed", "cusum"])
    tune.add_argument("--sensors", type=int, help="residual dimension p")
    tune.add_argument("--window", type=int, help="windowed detector window length")
    tune.add_argument("--far", type=float, required=True, help="target per-step false-alarm rate")
    tune.add_argument("--scenario", help="scenario JSON supplying the model (cusum only)")
    tune.add_argument("--mc", type=int, default=1_000_000, help="Monte-Carlo samples (cusum only)")
    tune.add_argument("--seed", type=int, default=None)
    tune.set_defaults(func=_cmd_tune)

    simulate = sub.add_parser("simulate", help="run a scenario and write the per-step trace CSV")
    simulate.add_argument("--scenario", required=True)
    simulate.add_argument("--out", required=True, help="trace CSV path")
    simulate.add_argument("--summary", default=None, help="also write a summary JSON here")
    simulate.set_defaults(func=_cmd_simulate)

    sweep = sub.add_parser("sweep", help="tabulate beta(ell) and beta(ell)/ell over window lengths")
    sweep.add_argument("--sensors", type=int, required=True)
    sweep.add_argument("--far", required=True, help="comma-separated list of rates")
    sweep.add_argument("--ell-max", type=int, required=True)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    reactor = sub.add_parser("reactor", help="run the built-in benchmark study")
    reactor.add_argument("--out-dir", required=True)
    reactor.add_argument("--seed", type=int, default=None)
    reactor.set_defaults(func=_cmd_reactor)

    arl = sub.add_parser("arl", help="attack-free average run length of a scenario's detector")
    arl.add_argument("--scenario", required=True)
    arl.add_argument("--runs", type=int, default=400)
    arl.add_argument("--seed", type=int, default=None)
    arl.add_argument("--cap", type=int, default=1_000_000)
    arl.set_defaults(func=_cmd_arl)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"resdet: {exc}", file=sys.stderr)
        return exc.code
    except OSError as exc:
        print(f"resdet: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
