"""Call tracing for the benchmark, installed from outside the package.

`Tracer.install` replaces each traced public function of `resdet` by a
wrapper, under every name a `resdet` module binds it to (for example
`build_closed_loop` in `model`, `reactor`, `cli` and the package itself).
Classes are traced through their `__init__`, methods through the class
attribute, so every binding sees the wrapper.  `uninstall` puts the
originals back.

Each wrapper records one span: its duration, and its self time, which is
the duration minus the time of the spans it called.  Spans nest on a
stack, so the self times of a tree of spans add up to the duration of its
root.  Counters are kept at the same boundaries:

* `model.advance.columns`: run-steps advanced (columns of the state);
* `model.NoiseModel.blocks.draws`: standard normal variates drawn;
* `numerics.symmetric_eigenpairs.failed`: calls that raised;
* `detectors.tune_cusum_tau.scans`: `scan_cusum` calls made inside
  tunings (divided by the tuning count when reported);
* `detectors.estimate_arl.run_length` and `.run_steps`: the sum of the run
  lengths an ARL estimate returns, and the run-steps it advanced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# module -> traced public functions, methods (Class.method) and classes.
TRACED = {
    "cli": ["main"],
    "reactor": ["run_benchmark", "reactor_loop"],
    "sim": ["run", "run_ensemble", "measure_steady_deviation"],
    "attacks": [
        "plan_attack", "compute_M", "worst_direction", "synthesize_attack", "attack_energy",
    ],
    "detectors": [
        "tune_chi2", "tune_windowed", "tune_cusum_tau", "scan_chi2", "scan_windowed",
        "scan_cusum", "measure_alarm_rate", "estimate_arl",
        "ChiSqDetector.update", "WindowedChiSqDetector.update", "CusumDetector.update",
    ],
    "model": [
        "PlantModel", "build_closed_loop", "simulate_distance_stream", "NoiseModel.blocks",
        "advance", "distance_measure",
    ],
    "numerics": [
        "solve_dare", "solve_discrete_lyapunov", "symmetric_eigenpairs", "psd_sqrt",
        "inverse_regularized_lower_gamma",
    ],
}

SPAN_NAMES = [f"{mod}.{name}" for mod, names in TRACED.items() for name in names]


class Tracer:
    """Spans and counters for the traced functions of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.calls = Counter()
        self.self_s = Counter()
        self.counts = Counter()
        # time spent in the child spans of each open span, innermost last
        self._child_s: list[float] = []
        self._undo: list = []

    # -- spans -----------------------------------------------------------

    def span(self, name: str, fn):
        """Wrap `fn` so each call records a span called `name`."""
        on_exit = _ON_EXIT.get(name)
        takes_totals = name in _DELTA_SPANS
        stack, clock = self._child_s, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            before = self._totals() if takes_totals else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if name == "numerics.symmetric_eigenpairs":
                    self.counts[f"{name}.failed"] += 1
                raise
            finally:
                duration = clock() - start
                child_s = stack.pop()
                self.calls[name] += 1
                self.self_s[name] += duration - child_s
                if stack:
                    stack[-1] += duration
            if on_exit is not None:
                on_exit(self, before, args, kwargs, result)
            return result

        return traced

    def _totals(self) -> tuple:
        """Run-steps advanced and `scan_cusum` calls made so far."""
        return self.counts["model.advance.columns"], self.calls["detectors.scan_cusum"]

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function of resdet under all its bindings."""
        for mod_name in TRACED:
            importlib.import_module(f"resdet.{mod_name}")
        bound = [m for name, m in sorted(sys.modules.items())
                 if m is not None and (name == "resdet" or name.startswith("resdet."))]
        for mod_name, names in TRACED.items():
            module = sys.modules[f"resdet.{mod_name}"]
            for qual in names:
                span_name = f"{mod_name}.{qual}"
                if "." in qual:  # Class.method
                    cls_name, meth = qual.split(".")
                    self._patch(getattr(module, cls_name), meth, span_name)
                elif isinstance(getattr(module, qual), type):  # a class: trace construction
                    self._patch(getattr(module, qual), "__init__", span_name)
                else:
                    original = getattr(module, qual)
                    wrapper = self.span(span_name, original)
                    for owner in bound:
                        for attr, value in list(vars(owner).items()):
                            if value is original:
                                self._patch_attr(owner, attr, wrapper)

    def _patch(self, owner, attr: str, span_name: str) -> None:
        self._patch_attr(owner, attr, self.span(span_name, vars(owner)[attr]))

    def _patch_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- report ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer figures of this process, by metric name."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        columns = self.counts["model.advance.columns"]
        advance_s = self.self_s["model.advance"]
        tunings = self.calls["detectors.tune_cusum_tau"]
        steps = self.counts["detectors.estimate_arl.run_steps"]
        out["model.advance.columns"] = columns
        out["model.advance.columns_per_s"] = columns / advance_s if advance_s > 0 else 0.0
        out["model.NoiseModel.blocks.draws"] = self.counts["model.NoiseModel.blocks.draws"]
        out["numerics.symmetric_eigenpairs.failed"] = self.counts["numerics.symmetric_eigenpairs.failed"]
        out["detectors.tune_cusum_tau.scans"] = (
            self.counts["detectors.tune_cusum_tau.scans"] / tunings if tunings else 0.0
        )
        out["detectors.estimate_arl.useful_step_ratio"] = (
            self.counts["detectors.estimate_arl.run_length"] / steps if steps else 0.0
        )
        return out


# -- counters kept at span exit ------------------------------------------
#
# The spans in _DELTA_SPANS pass their handler `before`, the tracer's
# `_totals()` at span entry, so the span's own share of a global counter is
# its value at exit minus `before`; the other handlers get None.

_DELTA_SPANS = frozenset({"detectors.tune_cusum_tau", "detectors.estimate_arl"})


def _advance_exit(tracer, before, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counts["model.advance.columns"] += 1 if np.ndim(x) == 1 else np.shape(x)[1]


def _blocks_exit(tracer, before, args, kwargs, result):
    v, eta = result
    tracer.counts["model.NoiseModel.blocks.draws"] += v.size + eta.size


def _tune_cusum_exit(tracer, before, args, kwargs, result):
    tracer.counts["detectors.tune_cusum_tau.scans"] += tracer.calls["detectors.scan_cusum"] - before[1]


def _estimate_arl_exit(tracer, before, args, kwargs, result):
    tracer.counts["detectors.estimate_arl.run_length"] += result.arl * result.runs
    tracer.counts["detectors.estimate_arl.run_steps"] += tracer.counts["model.advance.columns"] - before[0]


_ON_EXIT = {
    "model.advance": _advance_exit,
    "model.NoiseModel.blocks": _blocks_exit,
    "detectors.tune_cusum_tau": _tune_cusum_exit,
    "detectors.estimate_arl": _estimate_arl_exit,
}
