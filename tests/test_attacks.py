"""Deviation map, worst directions, attack planning, zero-alarm synthesis."""

import math
import sys
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.linalg

from resdet import attacks as attacks_mod
from resdet import model as mdl
from resdet.attacks import (
    AttackPlan,
    compute_M,
    gamma_bound,
    attack_energy,
    plan_attack,
    predicted_deviation,
    resolve_direction,
    synthesize_attack,
    worst_direction,
)
from resdet.detectors import (
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    tune_chi2,
    tune_windowed,
)
from resdet.reactor import reactor_loop

ALPHA = 7.814727903251175
BETA4 = 21.026069817483055
BETA50 = 179.5806341541804


def live_energy(plan, detector, k):
    """The dynamic schedule's step-k energy from the detector's own state machine.

    None for steps whose energy reads no detector state.
    """
    off = 1.0 - plan.margin
    if plan.kind == "windowed-greedy":
        # the window sum that remains after the next push evicts the oldest sample
        full = len(detector.window) == detector.ell
        pending = detector.w - detector.window[0] if full else detector.w
        return max(0.0, plan.detector.beta * off - pending)
    if plan.kind == "cusum-exact" and k == plan.k_star:
        return max(0.0, (plan.detector.tau + plan.detector.b - detector.s) * off)
    return None


def drive_attacked(model, detector, plan, steps, seed=0):
    """Single-run closed-loop simulation with the attack injected live.

    The attack reads the z history; at every step whose energy depends on
    the detector state, that energy must match the one computed from the
    live state machine.  Returns (z, stat, alarm) arrays indexed by step-1;
    stat is the detector's post-update statistic (z itself for the static
    detector).
    """
    v_rows, eta_rows = model.noise(seed).blocks(steps)
    x = np.zeros(model.n)
    xhat = np.zeros(model.n)
    z_out = np.empty(steps)
    stat = np.empty(steps)
    alarm = np.zeros(steps, dtype=bool)
    for k in range(1, steps + 1):
        v, eta = v_rows[k - 1], eta_rows[k - 1]
        delta = None
        if k >= plan.k_star:
            z_past = z_out[: k - 1]
            live = live_energy(plan, detector, k)
            if live is not None:
                assert attack_energy(plan, k, z_past) == pytest.approx(live, rel=1e-12)
            delta = synthesize_attack(plan, model, k, x - xhat, eta, z_past)
        x, xhat, _, z = mdl.advance(model, x, xhat, v, eta, delta)
        alarm[k - 1] = detector.update(z) is not None
        if isinstance(detector, CusumDetector):
            stat[k - 1] = detector.s
        elif isinstance(detector, WindowedChiSqDetector):
            stat[k - 1] = detector.w
        else:
            stat[k - 1] = z
        z_out[k - 1] = z
    return z_out, stat, alarm


# ------------------------------------------------------------- deviation map

def test_deviation_map_scalar_closed_form(scalar_loop):
    assert scalar_loop.sigma[0, 0] == pytest.approx(1.0, abs=1e-12)
    m = compute_M(scalar_loop)
    assert m.shape == (1, 1)
    # (1 - 0.5 + 0.25)^-1 * (-0.25) * (1 - 0.5)^-1 * 0.2 * 1 = -2/15
    assert m[0, 0] == pytest.approx(-2.0 / 15.0, abs=1e-12)


def test_deviation_map_zero_feedback_is_zero():
    plant = mdl.PlantModel(f=[[0.5]], g=[[1.0]], c=[[1.0]], r1=[[0.435]], r2=[[0.5]])
    loop = mdl.build_closed_loop(plant, k_fb=[[0.0]], l_gain=[[0.2]])
    assert np.all(compute_M(loop) == 0.0)
    bound = gamma_bound(loop, ChiSqDetector(ALPHA), [1.0])
    assert bound.gamma == 0.0


def test_deviation_map_matches_inverse_chain(reactor_fixed):
    loop = reactor_fixed
    f, g = loop.plant.f, loop.plant.g
    eye = np.eye(loop.n)
    sqrt_sigma = np.real(scipy.linalg.sqrtm(loop.sigma))
    oracle = (
        np.linalg.inv(eye - f - g @ loop.k_fb)
        @ g
        @ loop.k_fb
        @ np.linalg.inv(eye - f)
        @ loop.l_gain
        @ sqrt_sigma
    )
    m = compute_M(loop)
    assert np.linalg.norm(m - oracle) <= 1e-9 * np.linalg.norm(oracle)


def test_deviation_map_requires_stable_plant():
    plant = mdl.PlantModel(f=[[1.2]], g=[[1.0]], c=[[1.0]], r1=[[1.0]], r2=[[1.0]])
    loop = mdl.build_closed_loop(plant, k_fb=[[-0.5]], l_gain=[[1.0]])
    for _ in range(2):  # raised on every access: nothing is kept
        with pytest.raises(ValueError, match="stability precondition violated"):
            compute_M(loop)
        with pytest.raises(ValueError, match="stability precondition violated"):
            loop.worst_eigenpair
    assert "deviation_map" not in vars(loop) and "worst_eigenpair" not in vars(loop)


def _solved_deviation_map(loop):
    """M solved from the loop's matrices, as compute_M solved it on every call."""
    eye = np.eye(loop.n)
    inner = np.linalg.solve(eye - loop.plant.f, loop.l_gain @ loop.sigma_sqrt)
    return np.linalg.solve(eye - loop.f_cl, loop.plant.g @ (loop.k_fb @ inner))


@pytest.mark.parametrize("estimator", ["fixed", "dare"])
def test_the_kept_deviation_map_is_the_solved_one_and_read_only(estimator):
    loop = reactor_loop(estimator)
    m = compute_M(loop)
    assert m is loop.deviation_map is compute_M(loop)
    solved = _solved_deviation_map(loop)
    assert np.array_equal(m, solved)  # bit for bit
    nu1, lam = loop.worst_eigenpair
    want_nu1, want_lam = worst_direction(solved)
    assert np.array_equal(nu1, want_nu1) and lam == want_lam
    assert resolve_direction(loop, "worst") is nu1
    for arr in (m, nu1):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
        with pytest.raises(ValueError):
            arr.flags.writeable = True
    for name in ("deviation_map", "worst_eigenpair"):
        with pytest.raises(FrozenInstanceError):
            setattr(loop, name, None)
        with pytest.raises(FrozenInstanceError):
            delattr(loop, name)


# ----------------------------------------------------------- worst direction

def test_worst_direction_diagonal():
    nu1, lam = worst_direction(np.diag([2.0, 1.0]))
    assert lam == pytest.approx(4.0, abs=1e-12)
    assert np.allclose(nu1, [1.0, 0.0], atol=1e-12)  # sign canonical


def test_worst_direction_dominates_random_directions(reactor_fixed):
    rng = np.random.default_rng(41)
    for m in (compute_M(reactor_fixed), rng.standard_normal((5, 3))):
        nu1, lam = worst_direction(m)
        best = math.sqrt(lam)
        assert np.linalg.norm(m @ nu1) == pytest.approx(best, rel=1e-12)
        v = rng.standard_normal((m.shape[1], 10_000))
        v /= np.linalg.norm(v, axis=0)
        assert np.linalg.norm(m @ v, axis=0).max() <= best * (1.0 + 1e-12)


def test_worst_direction_reactor_frozen(reactor_fixed):
    nu1, lam = worst_direction(compute_M(reactor_fixed))
    assert lam == pytest.approx(101978018018.69304, rel=1e-9)
    assert np.allclose(
        nu1, [2.88694326e-09, 5.87733754e-02, 9.98271351e-01], atol=1e-8
    )


# ------------------------------------------------------------ gamma ordering

def test_gamma_bounds_reactor_frozen_and_ordered(reactor_fixed):
    loop = reactor_fixed
    g_chi2 = gamma_bound(loop, ChiSqDetector(ALPHA), "worst").gamma
    g_w4 = gamma_bound(loop, WindowedChiSqDetector(BETA4, 4), "worst").gamma
    g_w50 = gamma_bound(loop, WindowedChiSqDetector(BETA50, 50), "worst").gamma
    g_cs = gamma_bound(loop, CusumDetector(0.86, 3.0), "worst").gamma
    g_ones = gamma_bound(loop, ChiSqDetector(ALPHA), "ones", magnitude=math.sqrt(3.0)).gamma
    assert g_chi2 == pytest.approx(892709.6184812458, rel=1e-9)
    assert g_w4 == pytest.approx(732153.8306103413, rel=1e-9)
    assert g_w50 == pytest.approx(605198.7631445281, rel=1e-9)
    assert g_cs == pytest.approx(553113.0572098973, rel=1e-9)
    assert g_ones == pytest.approx(337556.6347672572, rel=1e-9)
    assert g_chi2 > g_w4 > g_w50 > g_cs > g_ones
    assert g_chi2 / g_ones == pytest.approx(2.644621750944882, rel=1e-9)


def test_gamma_scales_with_sqrt_alpha(reactor_fixed):
    g1 = gamma_bound(reactor_fixed, ChiSqDetector(ALPHA), "worst").gamma
    g2 = gamma_bound(reactor_fixed, ChiSqDetector(2.0 * ALPHA), "worst").gamma
    assert g2 / g1 == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_gamma_bound_self_consistent(reactor_fixed):
    loop = reactor_fixed
    m = compute_M(loop)
    for det in (
        ChiSqDetector(ALPHA),
        WindowedChiSqDetector(BETA4, 4),
        CusumDetector(0.86, 3.0),
    ):
        bound = gamma_bound(loop, det, "worst")
        recomputed = np.linalg.norm(m @ (bound.magnitude * bound.direction))
        assert bound.gamma == pytest.approx(recomputed, rel=1e-12)
    assert gamma_bound(loop, ChiSqDetector(ALPHA), "worst").magnitude == pytest.approx(
        math.sqrt(ALPHA), rel=1e-12
    )
    assert gamma_bound(loop, WindowedChiSqDetector(BETA4, 4), "worst").magnitude == (
        pytest.approx(math.sqrt(BETA4 / 4.0), rel=1e-12)
    )
    assert gamma_bound(loop, CusumDetector(0.86, 3.0), "worst").magnitude == (
        pytest.approx(math.sqrt(3.0), rel=1e-12)
    )


def test_gamma_bound_rejects_scaled_direction(reactor_fixed):
    with pytest.raises(ValueError, match="unit vector"):
        gamma_bound(reactor_fixed, ChiSqDetector(ALPHA), [2.0, 0.0, 0.0])


def test_resolve_direction_specs(reactor_fixed):
    ones = resolve_direction(reactor_fixed, "ones")
    assert np.allclose(ones, np.ones(3) / math.sqrt(3.0), atol=1e-15)
    vec = resolve_direction(reactor_fixed, [0.0, 0.0, 5.0])
    assert np.allclose(vec, [0.0, 0.0, 1.0], atol=1e-15)
    with pytest.raises(ValueError, match="unknown direction"):
        resolve_direction(reactor_fixed, "sideways")
    with pytest.raises(ValueError):
        resolve_direction(reactor_fixed, [0.0, 0.0])
    with pytest.raises(ValueError):
        resolve_direction(reactor_fixed, [0.0, 0.0, 0.0])


# -------------------------------------------------------------- attack plans

def test_plan_attack_inference_and_snapshots(reactor_fixed):
    chi2 = ChiSqDetector(ALPHA)
    plan = plan_attack(reactor_fixed, chi2, k_star=51)
    assert plan.kind == "chi2" and plan.detector is chi2 and plan.k_star == 51
    assert plan.detector.alpha == ALPHA
    plan = plan_attack(reactor_fixed, WindowedChiSqDetector(BETA4, 4), k_star=51)
    assert plan.kind == "windowed-static" and plan.detector.beta == BETA4 and plan.detector.ell == 4
    plan = plan_attack(
        reactor_fixed, WindowedChiSqDetector(BETA4, 4), k_star=51, kind="windowed-pulse"
    )
    assert plan.kind == "windowed-pulse"
    plan = plan_attack(reactor_fixed, CusumDetector(0.86, 3.0), k_star=51)
    assert plan.kind == "cusum" and plan.detector.tau == 0.86 and plan.detector.b == 3.0
    assert abs(np.linalg.norm(plan.direction) - 1.0) <= 1e-12


def test_plan_attack_validation(reactor_fixed):
    with pytest.raises(ValueError, match="does not match"):
        plan_attack(reactor_fixed, ChiSqDetector(ALPHA), k_star=1, kind="cusum")
    with pytest.raises(ValueError, match="k_star"):
        plan_attack(reactor_fixed, ChiSqDetector(ALPHA), k_star=0)
    with pytest.raises(ValueError, match="unit vector"):
        AttackPlan(kind="chi2", k_star=1, direction=np.array([2.0, 0.0, 0.0]),
                   detector=ChiSqDetector(ALPHA))
    with pytest.raises(ValueError, match="unknown attack kind"):
        AttackPlan(kind="ramp", k_star=1, direction=np.array([1.0, 0.0, 0.0]),
                   detector=ChiSqDetector(ALPHA))
    with pytest.raises(ValueError, match="margin"):
        plan_attack(reactor_fixed, ChiSqDetector(ALPHA), k_star=1, margin=0.01)


def test_a_plan_needs_its_detector():
    # the thresholds live in the detector alone; a plan without one does not build
    with pytest.raises(TypeError, match="detector"):
        AttackPlan(kind="chi2", k_star=1, direction=np.array([1.0, 0.0, 0.0]))


def test_plan_rejects_a_negative_or_nonfinite_magnitude(reactor_fixed):
    # 1e200 and 10**400 are finite, but their squares, the per-step energy, are not
    for magnitude in (-2.0, math.nan, math.inf, 1e200, 10**400):
        with pytest.raises(ValueError, match="magnitude must be finite and nonnegative"):
            plan_attack(reactor_fixed, ChiSqDetector(ALPHA), k_star=1, magnitude=magnitude)
    plan = plan_attack(reactor_fixed, ChiSqDetector(ALPHA), k_star=1, magnitude=0.0)
    assert attack_energy(plan, 5) == 0.0
    largest = math.sqrt(sys.float_info.max)
    plan = plan_attack(reactor_fixed, ChiSqDetector(ALPHA), k_star=1, magnitude=largest)
    assert math.isfinite(attack_energy(plan, 5))


def test_predicted_deviation_refuses_unbounded_kinds(reactor_fixed):
    # an attack-free scenario is plan=None; "none" is no plan kind
    with pytest.raises(ValueError, match="unknown attack kind 'none'"):
        AttackPlan(kind="none", k_star=1, direction=np.array([1.0, 0.0, 0.0]),
                   detector=ChiSqDetector(ALPHA))
    pulse = plan_attack(
        reactor_fixed, WindowedChiSqDetector(BETA4, 4), k_star=1, kind="windowed-pulse"
    )
    with pytest.raises(ValueError, match="measure it by simulation"):
        predicted_deviation(reactor_fixed, pulse)


def test_each_kind_fits_only_its_detector_kind(reactor_fixed):
    direction = np.array([1.0, 0.0, 0.0])
    detectors = {"chi2": ChiSqDetector(ALPHA), "windowed": WindowedChiSqDetector(BETA4, 4),
                 "cusum": CusumDetector(5.0, 3.0)}
    own = {"chi2": "chi2", "windowed-static": "windowed", "windowed-greedy": "windowed",
           "windowed-pulse": "windowed", "cusum": "cusum", "cusum-exact": "cusum"}
    for kind, own_kind in own.items():
        for det_kind, det in detectors.items():
            if det_kind == own_kind:
                plan = AttackPlan(kind=kind, k_star=1, direction=direction, detector=det)
                assert plan.detector is det
                plan_attack(reactor_fixed, det, k_star=1, kind=kind).check_fits(type(det)(**det.params))
                continue
            message = f"attack kind '{kind}' does not match detector kind '{det_kind}'"
            with pytest.raises(ValueError, match=message):
                AttackPlan(kind=kind, k_star=1, direction=direction, detector=det)
            with pytest.raises(ValueError, match=message):
                plan_attack(reactor_fixed, det, k_star=1, kind=kind)


def test_steady_start_by_kind(reactor_fixed):
    detectors = {"chi2": ChiSqDetector(ALPHA), "windowed": WindowedChiSqDetector(BETA4, 4),
                 "cusum": CusumDetector(5.0, 3.0)}
    starts = {
        kind: plan_attack(reactor_fixed, detectors[kind.split("-")[0]], k_star=51, kind=kind)
        .steady_start
        for kind in ("chi2", "windowed-static", "windowed-greedy", "windowed-pulse", "cusum",
                     "cusum-exact")
    }
    assert starts == {
        "chi2": 51, "windowed-static": 54, "windowed-greedy": 54, "windowed-pulse": 54,
        "cusum": 53, "cusum-exact": 53,
    }


def test_dynamic_kinds_keep_the_static_bounds(reactor_fixed):
    # greedy is bounded by the static budget beta/ell, cusum-exact spends b in its steady phase
    pairs = (
        (WindowedChiSqDetector(BETA50, 50), "windowed-static", "windowed-greedy"),
        (CusumDetector(5.0, 3.0), "cusum", "cusum-exact"),
    )
    for det, static, dynamic in pairs:
        plans = [plan_attack(reactor_fixed, det, k_star=51, kind=kind) for kind in (static, dynamic)]
        bounds = [predicted_deviation(reactor_fixed, plan) for plan in plans]
        assert bounds[0].gamma == bounds[1].gamma and bounds[0].magnitude == bounds[1].magnitude
        assert [bound.kind for bound in bounds] == [static, dynamic]


# ------------------------------------------------------------ energy schedule

def test_attack_energy_schedules(reactor_fixed):
    direction = np.array([1.0, 0.0, 0.0])
    m = 5e-11

    plan = AttackPlan(kind="chi2", k_star=10, direction=direction, detector=ChiSqDetector(ALPHA))
    assert attack_energy(plan, 10) == pytest.approx(ALPHA * (1 - m), rel=1e-15)
    with pytest.raises(ValueError, match="inactive before"):
        attack_energy(plan, 9)
    exact = AttackPlan(kind="chi2", k_star=10, direction=direction, detector=ChiSqDetector(ALPHA),
                       margin=0.0)
    assert attack_energy(exact, 10) == ALPHA

    windowed = WindowedChiSqDetector(BETA4, 4)
    plan = AttackPlan(kind="windowed-static", k_star=10, direction=direction, detector=windowed)
    assert attack_energy(plan, 123) == pytest.approx(BETA4 / 4 * (1 - m), rel=1e-15)

    greedy = AttackPlan(kind="windowed-greedy", k_star=10, direction=direction, detector=windowed)
    # the pending window sum is the last ell - 1 = 3 values of the history: 1.0, then over 1e9
    past = np.array([[9.0] * 6 + [0.25, 0.25, 0.5], [9.0] * 8 + [1e9]])
    assert attack_energy(greedy, 10, past[0]) == pytest.approx(BETA4 * (1 - m) - 1.0, rel=1e-12)
    assert attack_energy(greedy, 10, past[1]) == 0.0
    assert np.array_equal(
        attack_energy(greedy, 10, past), [attack_energy(greedy, 10, row) for row in past]
    )
    with pytest.raises(ValueError, match="reads the detector state from z_past"):
        attack_energy(greedy, 10)
    with pytest.raises(ValueError, match="z_past, the 9 distance measures before step 10"):
        attack_energy(greedy, 10, past[:, :8])
    # attacked from step 1: nothing is pending yet
    greedy_1 = AttackPlan(kind="windowed-greedy", k_star=1, direction=direction, detector=windowed)
    assert attack_energy(greedy_1, 1, np.empty(0)) == BETA4 * (1 - m)
    assert np.array_equal(attack_energy(greedy_1, 1, np.empty((3, 0))), [BETA4 * (1 - m)] * 3)

    pulse = AttackPlan(kind="windowed-pulse", k_star=10, direction=direction, detector=windowed)
    assert attack_energy(pulse, 10) == pytest.approx(BETA4 * (1 - m), rel=1e-15)
    assert attack_energy(pulse, 11) == 0.0
    assert attack_energy(pulse, 14) == pytest.approx(BETA4 * (1 - m), rel=1e-15)

    cusum = CusumDetector(5.0, 3.0)
    plan = AttackPlan(kind="cusum", k_star=10, direction=direction, detector=cusum)
    assert attack_energy(plan, 10) == 5.0  # exact, no margin
    assert attack_energy(plan, 11) == pytest.approx(3.0 * (1 - m), rel=1e-15)
    first = AttackPlan(kind="cusum-exact", k_star=10, direction=direction, detector=cusum)
    # S after the history: 0 for eight steps, then max(0, 0 + 4 - 3) = 1 and 0.5
    past = np.array([[0.0] * 8 + [4.0], [0.0] * 8 + [3.5]])
    assert attack_energy(first, 10, past[0]) == pytest.approx(7.0 * (1 - m), rel=1e-15)
    assert np.array_equal(
        attack_energy(first, 10, past), [attack_energy(first, 10, row) for row in past]
    )
    assert attack_energy(first, 10, past[1]) == pytest.approx(7.5 * (1 - m), rel=1e-15)
    assert attack_energy(first, 11, past[:, :1]) == 3.0  # steady steps read no history
    with pytest.raises(ValueError, match="reads the detector state from z_past"):
        attack_energy(first, 10)
    first_1 = AttackPlan(kind="cusum-exact", k_star=1, direction=direction, detector=cusum)
    assert attack_energy(first_1, 1, np.empty(0)) == 8.0 * (1 - m)
    assert np.array_equal(attack_energy(first_1, 1, np.empty((2, 0))), [8.0 * (1 - m)] * 2)

    override = AttackPlan(
        kind="chi2", k_star=10, direction=direction, detector=ChiSqDetector(ALPHA), magnitude=2.0
    )
    assert attack_energy(override, 99) == 4.0
    override_pulse = AttackPlan(
        kind="windowed-pulse", k_star=10, direction=direction, detector=windowed, magnitude=2.0
    )
    assert attack_energy(override_pulse, 10) == 4.0
    assert attack_energy(override_pulse, 11) == 0.0


@pytest.mark.parametrize("runs", [1, 2, 3, 200])
def test_the_greedy_window_sum_adds_left_to_right(runs):
    # a history of two or more runs is summed as one reduction over the rows
    # of its time-major window; it must keep the bits of a cumsum along each
    # run, which numpy's pairwise sum of one contiguous run would not
    greedy = AttackPlan(kind="windowed-greedy", k_star=1, direction=np.array([1.0, 0.0, 0.0]),
                        detector=WindowedChiSqDetector(BETA50, 50))
    rng = np.random.default_rng(runs)
    rows = rng.chisquare(3, size=(300, 2 * runs)) * 10.0 ** rng.uniform(-6, 6, size=(300, 2 * runs))
    for k in (1, 2, 9, 50, 51, 130, 300):
        time_major = rows[:k - 1].T  # (2 * runs, k - 1), as a simulation hands it over
        histories = [time_major[:runs], time_major[runs:], np.ascontiguousarray(time_major[:runs])]
        if runs == 1:
            histories.append(time_major[0])  # one run's 1-D history
        for past in histories:
            want = past[..., max(0, k - 50):].cumsum(axis=-1)
            want = want[..., -1] if k > 1 else np.zeros(past.shape[:-1])
            got = attacks_mod._live_state(greedy, k, past)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want), (k, past.shape, past.flags.c_contiguous)


def test_synthesize_requires_live_detector_for_dynamic_modes(reactor_fixed):
    e = np.zeros(4)
    eta = np.zeros(3)
    greedy = plan_attack(
        reactor_fixed, WindowedChiSqDetector(BETA4, 4), k_star=1, kind="windowed-greedy"
    )
    with pytest.raises(ValueError, match="reads the detector state from z_past"):
        synthesize_attack(greedy, reactor_fixed, 1, e, eta)
    first = plan_attack(reactor_fixed, CusumDetector(5.0, 3.0), k_star=1, kind="cusum-exact")
    with pytest.raises(ValueError, match="reads the detector state from z_past"):
        synthesize_attack(first, reactor_fixed, 1, e, eta)


# ------------------------------------------------------- zero-alarm synthesis

def test_zero_alarm_chi2(reactor_fixed):
    det = ChiSqDetector(tune_chi2(3, 0.05))
    plan = plan_attack(reactor_fixed, det, k_star=1)
    z, _, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=2)
    assert alarm.sum() == 0
    assert np.max(np.abs(z - det.alpha)) <= 1e-9
    assert np.all(z < det.alpha)  # saturates from below


def test_zero_alarm_windowed_static(reactor_fixed):
    det = WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4)
    plan = plan_attack(reactor_fixed, det, k_star=100)
    _, w, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=2)
    steady = slice(plan.k_star + det.ell - 2, None)  # windows of attacked samples only
    assert alarm[steady].sum() == 0
    assert np.max(np.abs(w[steady] - det.beta)) <= 1e-8
    assert np.all(w[steady] < det.beta)


def test_zero_alarm_windowed_greedy(reactor_fixed):
    det = WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50)
    plan = plan_attack(reactor_fixed, det, k_star=100, kind="windowed-greedy")
    _, w, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=2)
    active = slice(plan.k_star - 1, None)
    assert alarm[active].sum() == 0  # greedy tops up, never overshoots
    assert np.all(w[active] <= det.beta)
    steady = slice(plan.k_star + det.ell - 2, None)
    assert np.max(np.abs(w[steady] - det.beta)) <= 1e-8


def test_zero_alarm_windowed_pulse(reactor_fixed):
    det = WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4)
    plan = plan_attack(reactor_fixed, det, k_star=100, kind="windowed-pulse")
    z, w, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=2)
    steady = slice(plan.k_star + det.ell - 2, None)
    assert alarm[steady].sum() == 0
    assert np.max(np.abs(w[steady] - det.beta)) <= 1e-8  # one pulse per window
    # off-pulse steps carry no energy at all
    k = np.arange(1, 2001)
    off = (k >= plan.k_star) & ((k - plan.k_star) % 4 != 0)
    assert np.max(z[off]) <= 1e-12


def test_zero_alarm_cusum_quiet_branch(reactor_fixed):
    # k_star chosen so the pre-attack statistic sits at or below the bias
    det = CusumDetector(5.0, 3.0)
    plan = plan_attack(reactor_fixed, det, k_star=7)
    _, s, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=0)
    s_prev = s[plan.k_star - 2]
    assert 0.0 < s_prev <= det.b
    assert alarm[plan.k_star - 1 :].sum() == 0
    expected = s_prev + det.tau - det.b  # <= tau: rides below threshold forever
    assert np.max(np.abs(s[plan.k_star - 1 :] - expected)) <= 1e-6


def test_zero_alarm_cusum_corner_branch(reactor_fixed):
    # pre-attack statistic above the bias: the first attacked update pushes
    # S past tau, one alarm fires on the following update, then silence
    det = CusumDetector(5.0, 3.0)
    plan = plan_attack(reactor_fixed, det, k_star=8)
    _, s, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=0)
    s_prev = s[plan.k_star - 2]
    assert det.b < s_prev <= det.tau
    post = alarm[plan.k_star - 1 :]
    assert post.sum() == 1
    assert alarm[plan.k_star]  # update k_star + 1
    assert np.max(np.abs(s[plan.k_star + 1 :])) <= 1e-9  # reset, then z = b holds S at 0


def test_zero_alarm_cusum_exact_first_step(reactor_fixed):
    det = CusumDetector(5.0, 3.0)
    plan = plan_attack(reactor_fixed, det, k_star=8, kind="cusum-exact")
    _, s, alarm = drive_attacked(reactor_fixed, det, plan, steps=2000, seed=0)
    assert alarm[plan.k_star - 1 :].sum() == 0
    steady = s[plan.k_star - 1 :]
    assert np.all(steady <= det.tau)
    assert np.min(steady) >= det.tau - 1e-6
    assert np.max(np.abs(steady - steady[0])) <= 1e-9


# ------------------------------------------------- window budget convergence

def test_window_budget_per_step_converges_to_dof():
    values = {ell: tune_windowed(1, ell, 0.05) / ell for ell in (1, 100, 10_000)}
    assert values[1] == pytest.approx(3.84145882069412, rel=1e-9)
    assert values[100] == pytest.approx(1.2434211340400396, rel=1e-9)
    assert values[10_000] == pytest.approx(1.0233748897678416, rel=1e-9)
    assert values[1] > values[100] > values[10_000] > 1.0
