"""resdet: residual-based attack detection in stochastic LTI control loops.

Tune chi-squared, windowed chi-squared, and CUSUM detectors to a target
false-alarm rate; synthesize zero-alarm sensor attacks against each; predict
and measure the worst-case steady-state deviation the attacks can induce.
"""

from .attacks import (
    AttackPlan,
    DeviationBound,
    compute_M,
    gamma_bound,
    plan_attack,
    predicted_deviation,
    synthesize_attack,
    worst_direction,
)
from .detectors import (
    AlarmEvent,
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    measure_alarm_rate,
    tune_chi2,
    tune_cusum_tau,
    tune_windowed,
)
from .model import (
    ClosedLoopModel,
    NoiseModel,
    PlantModel,
    advance,
    build_closed_loop,
    distance_measure,
    simulate_distance_stream,
)
from .numerics import (
    inverse_regularized_lower_gamma,
    max_eigenpair,
    psd_sqrt,
    regularized_lower_gamma,
    solve_dare,
    solve_discrete_lyapunov,
    spectral_radius,
)
from .reactor import reactor_loop, run_benchmark
from .sim import (
    EnsembleResult,
    Scenario,
    measure_steady_deviation,
    moving_average,
    run,
    run_ensemble,
    stationarity_gap,
    steady_deviation_estimate,
    sweep_window_contours,
)

__version__ = "0.1.0"

__all__ = [
    "AlarmEvent",
    "AttackPlan",
    "ChiSqDetector",
    "ClosedLoopModel",
    "CusumDetector",
    "DeviationBound",
    "EnsembleResult",
    "NoiseModel",
    "PlantModel",
    "Scenario",
    "WindowedChiSqDetector",
    "advance",
    "build_closed_loop",
    "compute_M",
    "distance_measure",
    "estimate_arl",
    "gamma_bound",
    "inverse_regularized_lower_gamma",
    "max_eigenpair",
    "measure_alarm_rate",
    "measure_steady_deviation",
    "moving_average",
    "plan_attack",
    "predicted_deviation",
    "psd_sqrt",
    "reactor_loop",
    "regularized_lower_gamma",
    "run",
    "run_benchmark",
    "run_ensemble",
    "simulate_distance_stream",
    "solve_dare",
    "solve_discrete_lyapunov",
    "spectral_radius",
    "stationarity_gap",
    "steady_deviation_estimate",
    "sweep_window_contours",
    "synthesize_attack",
    "tune_chi2",
    "tune_cusum_tau",
    "tune_windowed",
    "worst_direction",
]
