"""The benchmark's three workloads, each a set-up, a job and its checks.

`run.py` calls `prepare(workload, seed)` before each round, untimed; then
`worker.py` drives the workload in a fresh process:

    state = setup(seed, out_dir)     # import resdet, build validated loops
    result = job(state)              # the timed job
    attempted, failures, errors = check(state, result)

`setup` and `job` call only the program; `check` (in `checks.py`) imports
scipy and jsonschema and runs after every timer has stopped.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import numpy as np

FAR = 0.05
ROOT = Path("src") / "resdet"
OUT = Path(__file__).resolve().parent / "out"


def out_dir(workload: str) -> Path:
    """Where a round of `workload` writes its outputs."""
    return OUT / workload


def prepare(workload: str, seed: int) -> None:
    """Before a round, untimed: empty its output directory and write its input files."""
    shutil.rmtree(out_dir(workload), ignore_errors=True)
    out_dir(workload).mkdir(parents=True)
    if workload == "reactor-study":
        (out_dir(workload) / "greedy.json").write_text(json.dumps(greedy_scenario(seed)),
                                                      encoding="utf-8")


# -- reactor-study -------------------------------------------------------------


def greedy_scenario(seed: int) -> dict:
    """The bundled scenario with a 5% windowed ell = 50 detector and the greedy attack."""
    doc = json.loads((ROOT / "data" / "reactor.json").read_text(encoding="utf-8"))
    doc["detector"] = {"kind": "windowed", "window": 50, "far": FAR}
    doc["attack"] = {"kind": "windowed-static", "direction": "worst", "k_star": 51, "mode": "greedy"}
    doc["sim"]["seed"] = seed
    return doc


def reactor_setup(seed: int, out_dir: Path) -> dict:
    import resdet.cli
    from resdet.reactor import reactor_loop

    reactor_loop("fixed")
    return {"seed": seed, "out_dir": out_dir, "scenario": out_dir / "greedy.json", "main": resdet.cli.main}


def reactor_job(state: dict) -> dict:
    out_dir, main = state["out_dir"], state["main"]
    codes = [
        main(["reactor", "--out-dir", str(out_dir / "reactor"), "--seed", str(state["seed"])]),
        main(["simulate", "--scenario", str(state["scenario"]),
              "--out", str(out_dir / "greedy.csv"), "--summary", str(out_dir / "greedy_summary.json")]),
    ]
    return {"codes": codes}


def reactor_check(state: dict, result: dict):
    import checks

    out_dir = state["out_dir"]
    errors = [f"resdet {cmd} exited with {code}"
              for cmd, code in zip(("reactor", "simulate"), result["codes"]) if code != 0]
    if errors:
        return 2, [], errors
    scenario = json.loads((ROOT / "data" / "reactor.json").read_text(encoding="utf-8"))
    reference = checks.reactor_reference(scenario)
    report = json.loads((out_dir / "reactor" / "report.json").read_text(encoding="utf-8"))
    errors += checks.check_reactor_report(report, _schema("report"), reference)
    summary = json.loads((out_dir / "greedy_summary.json").read_text(encoding="utf-8"))
    with open(out_dir / "greedy.csv", newline="", encoding="utf-8") as fh:
        rows = [(int(row["k"]), float(row["z"]), int(row["alarm"]), int(row["attack_active"]))
                for row in csv.DictReader(fh)]
    errors += checks.check_greedy(summary, _schema("summary"), rows, reference)
    return 2, [], errors


def _schema(name: str) -> dict:
    return json.loads((ROOT / "schemas" / f"{name}.schema.json").read_text(encoding="utf-8"))


# -- calibrate -----------------------------------------------------------------


def calibrate_setup(seed: int, out_dir: Path) -> dict:
    from resdet.reactor import reactor_loop

    return {"seed": seed, "loops": {"dare": reactor_loop("dare"), "fixed": reactor_loop("fixed")}}


def calibrate_job(state: dict) -> dict:
    from resdet import detectors as det

    seed, loops = state["seed"], state["loops"]
    # The rates and ARLs use seeds the tuning did not use.
    tune_seed, rate_seed, arl_seed = seed, seed + 1, seed + 2
    p = loops["dare"].p
    alpha = det.tune_chi2(p, FAR)
    beta4 = det.tune_windowed(p, 4, FAR)
    beta50 = det.tune_windowed(p, 50, FAR)
    tau = {name: det.tune_cusum_tau(loop, b=float(p), a_star=FAR, mc=1_000_000, seed=tune_seed)
           for name, loop in loops.items()}
    detectors = {
        "chi2": det.ChiSqDetector(alpha),
        "windowed_ell4": det.WindowedChiSqDetector(beta4, 4),
        "windowed_ell50": det.WindowedChiSqDetector(beta50, 50),
    }
    rates = {"dare": {}, "fixed": {}}
    for name, detector in detectors.items():
        rates["dare"][name] = det.measure_alarm_rate(loops["dare"], detector, seed=rate_seed)
    cusum = {name: det.CusumDetector(tau[name], float(p)) for name in loops}
    for name, loop in loops.items():
        rates[name]["cusum"] = det.measure_alarm_rate(loop, cusum[name], seed=rate_seed)
    arl = {
        "chi2": det.estimate_arl(loops["dare"], detectors["chi2"], runs=400, seed=arl_seed),
        "cusum": det.estimate_arl(loops["dare"], cusum["dare"], runs=400, seed=arl_seed),
    }
    return {"alpha": alpha, "beta_ell4": beta4, "beta_ell50": beta50, "tau": tau,
            "rates": rates, "arl": arl}


def calibrate_check(state: dict, result: dict):
    import checks

    out = dict(result)
    out["rates"] = {loop: {name: {"rate": est.rate, "stderr": est.stderr} for name, est in rates.items()}
                    for loop, rates in result["rates"].items()}
    out["arl"] = {name: {"arl": res.arl, "stderr": res.half_width / 1.96, "censored": res.censored}
                  for name, res in result["arl"].items()}
    # two tunings, five alarm rates, two ARL estimates
    return 9, [], checks.check_calibration(out)


# -- scale ---------------------------------------------------------------------

# (n, path, loops): p = m = n/2; "dare" computes the observer gain, "given"
# supplies one and takes the Lyapunov path.
SCALE_SIZES = ((20, "dare", 4), (100, "dare", 4), (20, "given", 4), (40, "given", 4))
ENSEMBLE = {"n": 100, "runs": 200, "steps": 1000, "burn_in": 50, "tail_fraction": 0.9}


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def scale_case(n: int, path: str, index: int) -> dict:
    """A random stable, detectable loop drawn from the fixed seed (n, path, index).

    F = 0.6 Q (Q orthogonal), so F is stable and (F, C) detectable; G and C
    have unit spectral norm and K, L norm 0.3, so F + GK and F - LC have
    norm at most 0.9.  R1 = B B'/n with B standard normal; R2 = D D'/p + I.
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
    return {"name": f"{path}-n{n}-{index}", "f": f, "g": g, "c": c, "k_fb": k_fb,
            "r1": b @ b.T / n, "r2": d @ d.T / p + np.eye(p), "l_gain": l_gain}


def scale_setup(seed: int, out_dir: Path) -> dict:
    from resdet.model import PlantModel, build_closed_loop

    cases = [scale_case(n, path, i) for n, path, count in SCALE_SIZES for i in range(count)]
    loops, failures = [], []
    for case in cases:
        try:
            plant = PlantModel(case["f"], case["g"], case["c"], case["r1"], case["r2"])
            loops.append(build_closed_loop(plant, case["k_fb"], case["l_gain"]))
        except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
            loops.append(None)
            failures.append(f"{case['name']} build: {exc}")
    return {"seed": seed, "cases": cases, "loops": loops, "failures": failures}


def scale_job(state: dict) -> dict:
    from resdet import attacks, detectors, sim

    plans, failures = [], list(state["failures"])
    for case, loop in zip(state["cases"], state["loops"]):
        plan = None
        if loop is not None:
            detector = detectors.ChiSqDetector(detectors.tune_chi2(loop.p, FAR))
            try:
                plan = attacks.plan_attack(loop, detector, k_star=ENSEMBLE["burn_in"] + 1)
            except (RuntimeError, ValueError, np.linalg.LinAlgError) as exc:
                failures.append(f"{case['name']} plan: {exc}")
        plans.append(plan)

    # The first n = 100 loop that builds carries the attacked ensemble.
    pick = next(i for i, (case, loop) in enumerate(zip(state["cases"], state["loops"]))
                if loop is not None and case["f"].shape[0] == ENSEMBLE["n"])
    loop = state["loops"][pick]
    detector = detectors.ChiSqDetector(detectors.tune_chi2(loop.p, FAR))
    plan = attacks.plan_attack(loop, detector, k_star=ENSEMBLE["burn_in"] + 1, direction="ones")
    scenario = sim.Scenario(model=loop, detector=detector, plan=plan, steps=ENSEMBLE["steps"],
                            burn_in=ENSEMBLE["burn_in"], seed=state["seed"],
                            mc_runs=ENSEMBLE["runs"], tail_fraction=ENSEMBLE["tail_fraction"])
    ensemble = sim.run_ensemble(scenario)
    measured, _, _ = sim.measure_steady_deviation(ensemble)
    return {"plans": plans, "failures": failures, "pick": pick, "measured": measured,
            "alarms_steady": ensemble.phase_counts()["alarms_steady"]}


def scale_check(state: dict, result: dict):
    import checks

    failures, errors = list(result["failures"]), []
    for case, loop, plan in zip(state["cases"], state["loops"], result["plans"]):
        if plan is None:
            continue
        loop_failures, loop_errors = checks.check_scale_loop(case, loop.p_pred, loop.sigma_sqrt,
                                                             plan.direction)
        failures += loop_failures
        errors += loop_errors
    case = state["cases"][result["pick"]]
    errors += checks.check_scale_ensemble(case, result["measured"], result["alarms_steady"])
    # one operation per loop (build and plan) and one for the ensemble
    return len(state["cases"]) + 1, failures, errors


WORKLOADS = {
    "reactor-study": (reactor_setup, reactor_job, reactor_check),
    "calibrate": (calibrate_setup, calibrate_job, calibrate_check),
    "scale": (scale_setup, scale_job, scale_check),
}
