"""Full benchmark study on the built-in chemical reactor loop.

Runs the complete pipeline: tune all four detector configurations to a 5%
per-step false-alarm rate, synthesize the matching zero-alarm attacks in
both the worst-case and the all-ones residual direction, simulate 200-run
ensembles, and compare the measured steady-state deviations against the
closed-form predictions.  The same study is available from the command
line as `resdet reactor --out-dir <dir>`.
"""

from resdet import run_benchmark


def main():
    out = run_benchmark(seed=0)
    report = out["report"]

    print("loop: four-state reactor, three sensors, estimator gain "
          f"'{report['estimator']}'")
    print(f"ensemble: {report['runs']} runs x {report['steps']} steps, "
          f"attack from step {report['k_star']}, seed {report['seed']}")
    print()

    print(f"thresholds at A* = {report['far_target']}:")
    for name, value in report["thresholds"].items():
        print(f"  {name:14s} {value:10.4f}")
    print()

    print("worst-direction attacks, predicted vs measured deviation:")
    print(f"  {'detector':16s}{'predicted':>12s}{'measured':>12s}{'rel err':>9s}"
          f"{'steady alarms':>15s}")
    for name in report["ordering_by_gamma"]:
        key = f"{name}_worst"
        print(f"  {name:16s}{report['gamma'][name]:12.1f}"
              f"{report['measured'][key]:12.1f}"
              f"{report['relative_error'][key]:9.4f}"
              f"{report['alarms'][key]['alarms_steady']:15d}")
    print()

    ratio = report["damage_ratio_worst_over_ones"]
    print("direction matters: the same chi2 energy budget spent on the")
    print(f"naive all-ones direction moves the state by "
          f"{report['measured']['chi2_ones']:.1f}")
    print(f"(predicted {report['gamma']['ones']:.1f}), so the worst direction "
          f"does {ratio:.3f}x more damage")
    print(f"detector ranking by damage sustained: "
          f"{' > '.join(report['ordering_by_gamma'])}")
    print()

    print("configuration notes:")
    for note in report["adjustments"]:
        print(f"  - {note}")


if __name__ == "__main__":
    main()
