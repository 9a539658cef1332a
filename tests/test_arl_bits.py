"""Bit-identity pins for the attack-free stream and the ARL estimate.

`iter_distance_stream` advances each chunk in sub-blocks and draws its
noise only as far as they read it, and `estimate_arl` stops pulling
sub-blocks once every run has exceeded.  None of these may change a bit of
what was computed before: the values below were recorded with the
whole-chunk stream, which drew every chunk it started at once and advanced
every run through it.  The
stream and the fixed-length loop behind `simulate_distance_stream` and
`run_ensemble` are separate code, held here to the same bits.
"""

import hashlib
import os
import tracemalloc
import warnings

import numpy as np
import pytest

from resdet import model as model_mod
from resdet import sim
from resdet.detectors import (
    ArlResult,
    ChiSqDetector,
    CusumDetector,
    WindowedChiSqDetector,
    estimate_arl,
    tune_chi2,
    tune_windowed,
)

DETECTORS = {
    "chi2": lambda: ChiSqDetector(tune_chi2(3, 0.05)),
    "windowed4": lambda: WindowedChiSqDetector(tune_windowed(3, 4, 0.05), 4),
    "windowed50": lambda: WindowedChiSqDetector(tune_windowed(3, 50, 0.05), 50),
    "cusum7.5": lambda: CusumDetector(7.5, 3.0),
    "cusum0.86": lambda: CusumDetector(0.86, 3.0),
}
# (seed, chunk) pairs, a cap inside the first chunk, and no warm-up; 40 runs each
CASES = {
    "s0c4096": dict(seed=0, chunk=4096),
    "s3c128": dict(seed=3, chunk=128),
    "s5c7": dict(seed=5, chunk=7),
    "cap23": dict(seed=1, cap=23),
    "nowarm": dict(seed=2, warm_up=0, chunk=64),
}
# thresholds no attack-free run reaches: every run is censored at cap = 300
NEVER = {
    "chi2": lambda: ChiSqDetector(1e9),
    "windowed": lambda: WindowedChiSqDetector(1e9, 50),
    "cusum": lambda: CusumDetector(1e9, 3.0),
}
# (loop, detector, case) -> (arl, half_width, censored)
PINNED = {
    ('dare', 'chi2', 's0c4096'): (14.475, 3.796164322589653, 0),
    ('dare', 'chi2', 's3c128'): (29.475, 7.728322468653023, 0),
    ('dare', 'chi2', 's5c7'): (17.65, 6.454031147374642, 0),
    ('dare', 'chi2', 'cap23'): (14.775, 2.51128753880636, 14),
    ('dare', 'chi2', 'nowarm'): (18.675, 7.278163390123454, 0),
    ('dare', 'windowed4', 's0c4096'): (32.05, 8.831983596928282, 0),
    ('dare', 'windowed4', 's3c128'): (35.175, 8.06569676993968, 0),
    ('dare', 'windowed4', 's5c7'): (42.325, 11.374753906608154, 0),
    ('dare', 'windowed4', 'cap23'): (19.125, 2.1067662362870196, 27),
    ('dare', 'windowed4', 'nowarm'): (49.275, 14.73914578379281, 0),
    ('dare', 'windowed50', 's0c4096'): (337.775, 102.20932449296242, 0),
    ('dare', 'windowed50', 's3c128'): (252.45, 58.798657719722016, 0),
    ('dare', 'windowed50', 's5c7'): (311.275, 77.42318032253912, 0),
    ('dare', 'windowed50', 'cap23'): (23.0, 0.0, 40),
    ('dare', 'windowed50', 'nowarm'): (284.95, 71.12098897454919, 0),
    ('dare', 'cusum7.5', 's0c4096'): (17.6, 3.961120224872938, 0),
    ('dare', 'cusum7.5', 's3c128'): (23.425, 6.011658397838961, 0),
    ('dare', 'cusum7.5', 's5c7'): (18.575, 4.67621803959633, 0),
    ('dare', 'cusum7.5', 'cap23'): (14.7, 2.474453350664624, 14),
    ('dare', 'cusum7.5', 'nowarm'): (16.575, 3.880149848414858, 0),
    ('dare', 'cusum0.86', 's0c4096'): (2.575, 0.6800058634739662, 0),
    ('dare', 'cusum0.86', 's3c128'): (3.0, 0.7687752497416813, 0),
    ('dare', 'cusum0.86', 's5c7'): (3.025, 0.7069928915611163, 0),
    ('dare', 'cusum0.86', 'cap23'): (3.5, 1.004814053470234, 0),
    ('dare', 'cusum0.86', 'nowarm'): (3.6, 0.7286486262340859, 0),
    ('dare', 'chi2', 'censored'): (300.0, 0.0, 5),
    ('dare', 'windowed', 'censored'): (300.0, 0.0, 5),
    ('dare', 'cusum', 'censored'): (300.0, 0.0, 5),
    ('fixed', 'chi2', 's0c4096'): (14.0, 4.025378466041646, 0),
    ('fixed', 'chi2', 's3c128'): (26.875, 7.341430474386883, 0),
    ('fixed', 'chi2', 's5c7'): (17.025, 5.096332213037236, 0),
    ('fixed', 'chi2', 'cap23'): (13.275, 2.6370854103609274, 15),
    ('fixed', 'chi2', 'nowarm'): (20.675, 4.87197098797728, 0),
    ('fixed', 'windowed4', 's0c4096'): (26.075, 7.465235035027707, 0),
    ('fixed', 'windowed4', 's3c128'): (37.775, 12.558261474280993, 0),
    ('fixed', 'windowed4', 's5c7'): (35.35, 9.96509627110083, 0),
    ('fixed', 'windowed4', 'cap23'): (17.175, 2.154957498539779, 20),
    ('fixed', 'windowed4', 'nowarm'): (45.7, 13.835320477601835, 0),
    ('fixed', 'windowed50', 's0c4096'): (358.8, 106.21396365006065, 0),
    ('fixed', 'windowed50', 's3c128'): (236.075, 51.50294002835277, 0),
    ('fixed', 'windowed50', 's5c7'): (271.075, 64.3613580737896, 0),
    ('fixed', 'windowed50', 'cap23'): (23.0, 0.0, 40),
    ('fixed', 'windowed50', 'nowarm'): (251.0, 72.34194843650359, 0),
    ('fixed', 'cusum7.5', 's0c4096'): (15.1, 3.594109939388368, 0),
    ('fixed', 'cusum7.5', 's3c128'): (21.025, 6.1327546807579845, 0),
    ('fixed', 'cusum7.5', 's5c7'): (19.275, 5.818951352791483, 0),
    ('fixed', 'cusum7.5', 'cap23'): (12.95, 2.382944935180535, 11),
    ('fixed', 'cusum7.5', 'nowarm'): (18.4, 4.379770465827328, 0),
    ('fixed', 'cusum0.86', 's0c4096'): (3.35, 0.9191875453843702, 0),
    ('fixed', 'cusum0.86', 's3c128'): (3.375, 1.001592257998259, 0),
    ('fixed', 'cusum0.86', 's5c7'): (2.975, 0.7861564892825255, 0),
    ('fixed', 'cusum0.86', 'cap23'): (3.425, 1.1486428000258748, 0),
    ('fixed', 'cusum0.86', 'nowarm'): (4.0, 0.9974346582287469, 0),
    ('fixed', 'chi2', 'censored'): (300.0, 0.0, 5),
    ('fixed', 'windowed', 'censored'): (300.0, 0.0, 5),
    ('fixed', 'cusum', 'censored'): (300.0, 0.0, 5),
}


def sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


@pytest.fixture(scope="module")
def loops(reactor_dare, reactor_fixed):
    return {"dare": reactor_dare, "fixed": reactor_fixed}


@pytest.mark.parametrize("loop", ["dare", "fixed"])
@pytest.mark.parametrize("name", sorted(DETECTORS))
def test_arl_is_bit_identical_to_the_whole_chunk_stream(loops, loop, name):
    for case, kwargs in CASES.items():
        arl, half_width, censored = PINNED[(loop, name, case)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # cap = 23 censors some runs
            result = estimate_arl(loops[loop], DETECTORS[name](), runs=40, **kwargs)
        cap = kwargs.get("cap", 1_000_000)
        assert result == ArlResult(arl, 1.0 / arl, half_width, 40, censored, cap), case


@pytest.mark.parametrize("loop", ["dare", "fixed"])
def test_fully_censored_arl_is_bit_identical(loops, loop):
    for name, make in NEVER.items():
        with pytest.warns(UserWarning, match="5 of 5 runs"):
            result = estimate_arl(loops[loop], make(), runs=5, seed=4, cap=300, chunk=128)
        arl, half_width, censored = PINNED[(loop, name, "censored")]
        assert result == ArlResult(arl, 1.0 / arl, half_width, 5, censored, 300), name


def test_stream_sub_blocks_join_into_the_whole_chunk_stream(reactor_dare, reactor_fixed):
    z = model_mod.simulate_distance_stream(reactor_dare, steps=300, runs=7, seed=4, burn_in=50)
    assert z.shape == (7, 300)
    assert sha256(z) == "0e70f392496adf93b66fe57bddffd76870eb1390cbbfc04f008a4cf5117f634c"
    # burn-in and kept steps are one chunk, whose sub-blocks straddle the burn-in
    blocks = list(model_mod.iter_distance_stream(reactor_dare, [350], runs=7, seed=4))
    assert np.array_equal(np.concatenate(blocks, axis=1)[:, 50:], z)
    z = model_mod.simulate_distance_stream(reactor_fixed, steps=200, runs=3, seed=9)
    assert sha256(z) == "1f0940bb362003e27556a6f20f90571a842d75608959494a8671f9b8ef1da040"
    blocks = list(model_mod.iter_distance_stream(reactor_fixed, [50, 130, 0, 7, 64], runs=5, seed=2))
    assert [b.shape[1] for b in blocks] == [50, 64, 64, 2, 7, 64]
    joined = np.concatenate(blocks, axis=1)
    assert sha256(joined) == "668307b2681c07b28db42ebe92d7187d263ae0c8e675247092d50bd319efae26"
    # the streaming loop and the fixed-length loop give the same bits; 150 and
    # 200 steps are not multiples of the 64-column sub-block
    for runs in (1, 7, 200):
        z = {}
        for burn_in in (0, 50):
            z[burn_in] = model_mod.simulate_distance_stream(reactor_fixed, steps=150, runs=runs,
                                                            seed=6, burn_in=burn_in)
            blocks = list(model_mod.iter_distance_stream(reactor_fixed, [burn_in + 150], runs=runs,
                                                         seed=6))
            assert np.array_equal(np.concatenate(blocks, axis=1)[:, burn_in:], z[burn_in]), (runs, burn_in)
        # an attack-free ensemble is the attack-free stream without a burn-in
        scenario = sim.Scenario(reactor_fixed, ChiSqDetector(tune_chi2(3, 0.05)), steps=150,
                                burn_in=50, seed=6, mc_runs=runs)
        assert np.array_equal(sim.run_ensemble(scenario).z, z[0]), runs


@pytest.fixture
def row_draws(monkeypatch):
    """Every source built, as (seed, run), and every row draw, as (run, "v" or "eta", rows).

    NoiseModel.blocks draws its v rows and then its eta rows, so whole and
    lazy draws are both recorded; worker threads append too.
    """
    draws = {"sources": [], "rows": []}
    noise = model_mod.ClosedLoopModel.noise
    v_rows, eta_rows = model_mod.NoiseModel.v_rows, model_mod.NoiseModel.eta_rows

    def recording_noise(self, seed, run=0):
        draws["sources"].append((seed, run))
        return noise(self, seed, run)

    def recording_v_rows(self, out):
        draws["rows"].append((self.run, "v", len(out)))
        return v_rows(self, out)

    def recording_eta_rows(self, out):
        draws["rows"].append((self.run, "eta", len(out)))
        return eta_rows(self, out)

    monkeypatch.setattr(model_mod.ClosedLoopModel, "noise", recording_noise)
    monkeypatch.setattr(model_mod.NoiseModel, "v_rows", recording_v_rows)
    monkeypatch.setattr(model_mod.NoiseModel, "eta_rows", recording_eta_rows)
    return draws


def _per_run(rows, runs):
    return [[(kind, count) for run, kind, count in rows if run == i] for i in range(runs)]


def test_two_arls_of_one_loop_seed_and_runs_draw_once(loops, row_draws):
    drawn = []
    for name in ("chi2", "cusum7.5"):
        result = estimate_arl(loops["dare"], DETECTORS[name](), runs=40, seed=0)
        arl, half_width, censored = PINNED[("dare", name, "s0c4096")]
        assert result == ArlResult(arl, 1.0 / arl, half_width, 40, censored, 1_000_000), name
        drawn.append(_per_run(row_draws["rows"], 40))
    # one source per run, built by the first estimate: the second draws no
    # normal the first drew, and reads on from its rows where it reads further
    assert row_draws["sources"] == [(0, i) for i in range(40)]
    for run in drawn[1]:
        # the warm-up's v and its eta in one draw (50 < 64 rows), then the
        # 4096-step chunk's v, and its eta by doubling, only as deep as the
        # longer estimate read
        assert run[:3] == [("v", 50), ("eta", 50), ("v", 4096)]
        assert run[3:] == [("eta", 64)] + [("eta", 64 * 2 ** k) for k in range(len(run) - 4)]
        assert sum(count for _, count in run[3:]) < 4096
    assert drawn[0] == [run[:len(drawn[0][0])] for run in drawn[1]]


def test_an_arl_past_the_kept_chunks_restarts_the_family(reactor_dare, row_draws):
    detector = ChiSqDetector(tune_chi2(3, 0.05))
    kwargs = dict(runs=40, seed=1, cap=40, chunk=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # cap = 40 censors some runs
        first = estimate_arl(reactor_dare, detector, **kwargs)
        family = model_mod._remembered.family
        assert family.drawn > 2 and len(family.kept) == 2
        drawn = len(row_draws["sources"])
        second = estimate_arl(reactor_dare, detector, **kwargs)
        # the sources had moved past the third chunk: a new family redrew the first three
        restarted = model_mod._remembered.family
        assert restarted is not family and len(row_draws["sources"]) == 2 * drawn
        assert len(restarted.kept) == 2
        model_mod._forget_noise()
        fresh = estimate_arl(reactor_dare, detector, **kwargs)
    assert first == second == fresh
    # the first family kept its two lazy chunks, the restarted one redrew them whole
    for kept in (family.kept, restarted.kept):
        for width, noise in zip((50, 8), kept):
            assert noise[:].shape == (width, 40, 4 + 3)  # time-major
            arrays = [noise] if isinstance(noise, np.ndarray) else [noise.v, *noise.eta]
            for arr in arrays:
                assert not arr.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    arr[0, 0, 0] = 1.0
    assert not any(isinstance(noise, np.ndarray) for noise in family.kept)
    assert all(isinstance(noise, np.ndarray) for noise in restarted.kept)


def test_a_failed_eta_draw_forgets_the_family(reactor_dare, monkeypatch):
    # an eta draw past the warm-up fails on run 4, on the worker thread:
    # the sources stopped part-way, so the next estimate draws afresh
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    eta_rows = model_mod.NoiseModel.eta_rows

    def failing_eta_rows(self, out):
        if self.run == 4 and len(out) == 64:
            raise RuntimeError("no eta for run 4")
        return eta_rows(self, out)

    monkeypatch.setattr(model_mod.NoiseModel, "eta_rows", failing_eta_rows)
    with pytest.raises(RuntimeError, match="no eta for run 4"):
        estimate_arl(reactor_dare, DETECTORS["chi2"](), runs=40, seed=0)
    assert model_mod._remembered.family is None
    monkeypatch.setattr(model_mod.NoiseModel, "eta_rows", eta_rows)
    arl, half_width, censored = PINNED[("dare", "chi2", "s0c4096")]
    result = estimate_arl(reactor_dare, DETECTORS["chi2"](), runs=40, seed=0)
    assert result == ArlResult(arl, 1.0 / arl, half_width, 40, censored, 1_000_000)

def test_an_arl_estimate_does_not_hold_the_unread_eta_of_its_chunk(reactor_dare):
    # 400 runs of a 4,146-step draw were about 93 MB; the estimate reads about
    # 200 steps, so it holds the chunk's v block, 52 MB, and little eta
    detector = ChiSqDetector(tune_chi2(3, 0.05))
    tracemalloc.start()
    try:
        estimate_arl(reactor_dare, detector, runs=400, seed=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 70e6, peak


def test_arl_stops_advancing_once_every_run_has_exceeded(reactor_dare, monkeypatch):
    columns = []
    advance = model_mod.advance

    def counting_advance(model, x, *args, **kwargs):
        columns.append(x.shape[1])
        return advance(model, x, *args, **kwargs)

    monkeypatch.setattr(model_mod, "advance", counting_advance)
    # without the early exit this cap would advance 50 + 10,000 columns
    result = estimate_arl(reactor_dare, DETECTORS["chi2"](), runs=400, seed=2, cap=10_000)
    assert result.censored == 0
    assert set(columns) == {400}
    # the warm-up and whole sub-blocks up to the longest run, not 50 + 4096
    assert len(columns) < 1000
    assert (len(columns) - 50) % 64 == 0
