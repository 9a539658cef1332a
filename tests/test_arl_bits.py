"""Bit-identity pins for the attack-free stream and the ARL estimate.

Step t of run i's noise depends only on (seed, i, t), so `estimate_arl`
has no chunk width to pin: its result depends on the seed, the runs, the
cap and the warm-up.  `iter_distance_stream` advances the stream in the
blocks its consumer asks for and draws the noise ahead of them, in pieces
that double from 64 steps, and `estimate_arl` stops pulling blocks once
every run has exceeded.  None of these may change a bit of what the
stream computes: the values below were recorded with the prefix-consistent
draw, and the stream and the fixed-length loop behind
`simulate_distance_stream` and `run_ensemble` are held to the same bits.
"""

import hashlib
import threading
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
# three seeds, a cap inside the first block, and no warm-up; 40 runs each
CASES = {
    "s0": dict(seed=0),
    "s3": dict(seed=3),
    "s5": dict(seed=5),
    "cap23": dict(seed=1, cap=23),
    "nowarm": dict(seed=2, warm_up=0),
}
# thresholds no attack-free run reaches: every run is censored at cap = 300
NEVER = {
    "chi2": lambda: ChiSqDetector(1e9),
    "windowed": lambda: WindowedChiSqDetector(1e9, 50),
    "cusum": lambda: CusumDetector(1e9, 3.0),
}
# (loop, detector, case) -> (arl, half_width, censored)
PINNED = {
    ('dare', 'chi2', 's0'): (20.125, 6.738739163435583, 0),
    ('dare', 'chi2', 's3'): (21.75, 6.62209258893367, 0),
    ('dare', 'chi2', 's5'): (18.625, 5.802295865232339, 0),
    ('dare', 'chi2', 'cap23'): (12.225, 2.509325575957382, 11),
    ('dare', 'chi2', 'nowarm'): (21.475, 7.104410762480678, 0),
    ('dare', 'windowed4', 's0'): (45.8, 13.418597060681234, 0),
    ('dare', 'windowed4', 's3'): (33.675, 11.620843288831914, 0),
    ('dare', 'windowed4', 's5'): (45.775, 10.60972224557293, 0),
    ('dare', 'windowed4', 'cap23'): (16.125, 2.345696414003028, 19),
    ('dare', 'windowed4', 'nowarm'): (44.2, 11.368433236660637, 0),
    ('dare', 'windowed50', 's0'): (269.2, 83.5071889698188, 0),
    ('dare', 'windowed50', 's3'): (341.15, 91.25450592935263, 0),
    ('dare', 'windowed50', 's5'): (306.8, 84.18355770028327, 0),
    ('dare', 'windowed50', 'cap23'): (23.0, 0.0, 40),
    ('dare', 'windowed50', 'nowarm'): (369.225, 92.26809693371393, 0),
    ('dare', 'cusum7.5', 's0'): (18.525, 5.818104896763514, 0),
    ('dare', 'cusum7.5', 's3'): (11.6, 2.3167660041421354, 0),
    ('dare', 'cusum7.5', 's5'): (20.975, 6.028266491905934, 0),
    ('dare', 'cusum7.5', 'cap23'): (13.375, 2.337809488629945, 11),
    ('dare', 'cusum7.5', 'nowarm'): (20.375, 6.29883272662076, 0),
    ('dare', 'cusum0.86', 's0'): (3.275, 0.8273640410425488, 0),
    ('dare', 'cusum0.86', 's3'): (2.775, 0.5892028295578479, 0),
    ('dare', 'cusum0.86', 's5'): (2.7, 0.4770124978204691, 0),
    ('dare', 'cusum0.86', 'cap23'): (3.675, 0.9834803584132298, 0),
    ('dare', 'cusum0.86', 'nowarm'): (3.1, 0.735376826479511, 0),
    ('dare', 'chi2', 'censored'): (300.0, 0.0, 5),
    ('dare', 'windowed', 'censored'): (300.0, 0.0, 5),
    ('dare', 'cusum', 'censored'): (300.0, 0.0, 5),
    ('fixed', 'chi2', 's0'): (20.025, 6.997715742682366, 0),
    ('fixed', 'chi2', 's3'): (18.1, 5.375841076710813, 0),
    ('fixed', 'chi2', 's5'): (23.575, 6.8488223037773395, 0),
    ('fixed', 'chi2', 'cap23'): (13.125, 2.510012437398953, 12),
    ('fixed', 'chi2', 'nowarm'): (22.425, 5.3877779802162005, 0),
    ('fixed', 'windowed4', 's0'): (39.625, 11.750926788326757, 0),
    ('fixed', 'windowed4', 's3'): (30.15, 7.909594634496212, 0),
    ('fixed', 'windowed4', 's5'): (50.175, 15.968809719944527, 0),
    ('fixed', 'windowed4', 'cap23'): (17.15, 2.2254129204861433, 20),
    ('fixed', 'windowed4', 'nowarm'): (43.125, 11.550232515142115, 0),
    ('fixed', 'windowed50', 's0'): (259.475, 70.09980441082483, 0),
    ('fixed', 'windowed50', 's3'): (252.0, 68.69907717067649, 0),
    ('fixed', 'windowed50', 's5'): (366.2, 104.59236480639909, 0),
    ('fixed', 'windowed50', 'cap23'): (23.0, 0.0, 40),
    ('fixed', 'windowed50', 'nowarm'): (279.7, 63.15864942613429, 0),
    ('fixed', 'cusum7.5', 's0'): (22.65, 8.522822278432395, 0),
    ('fixed', 'cusum7.5', 's3'): (14.575, 4.30439057600135, 0),
    ('fixed', 'cusum7.5', 's5'): (24.45, 7.527833610793669, 0),
    ('fixed', 'cusum7.5', 'cap23'): (13.6, 2.2455169240979362, 11),
    ('fixed', 'cusum7.5', 'nowarm'): (23.025, 5.14107371554989, 0),
    ('fixed', 'cusum0.86', 's0'): (3.95, 1.0961227238046958, 0),
    ('fixed', 'cusum0.86', 's3'): (2.875, 0.5666187385462952, 0),
    ('fixed', 'cusum0.86', 's5'): (2.775, 0.5850084154555779, 0),
    ('fixed', 'cusum0.86', 'cap23'): (3.875, 1.0366298328026307, 0),
    ('fixed', 'cusum0.86', 'nowarm'): (3.8, 0.9601999791710057, 0),
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
            result = estimate_arl(loops[loop], make(), runs=5, seed=4, cap=300)
        arl, half_width, censored = PINNED[(loop, name, "censored")]
        assert result == ArlResult(arl, 1.0 / arl, half_width, 5, censored, 300), name


def test_stream_sub_blocks_join_into_the_whole_chunk_stream(reactor_dare, reactor_fixed):
    z = model_mod.simulate_distance_stream(reactor_dare, steps=300, runs=7, seed=4, burn_in=50)
    assert z.shape == (7, 300)
    assert sha256(z) == "649d99dd0acebc2a4d51ac6a587523cf76727a95c3a7f12328a5d51dde2a53ce"
    # the burn-in and the kept steps are one block of the stream
    blocks = list(model_mod.iter_distance_stream(reactor_dare, [350], runs=7, seed=4))
    assert np.array_equal(np.concatenate(blocks, axis=1)[:, 50:], z)
    z = model_mod.simulate_distance_stream(reactor_fixed, steps=200, runs=3, seed=9)
    assert sha256(z) == "548c05f74e96586155d1d3accdeb88380d688564184ff81b23691fa9aada2292"
    blocks = list(model_mod.iter_distance_stream(reactor_fixed, [50, 130, 0, 7, 64], runs=5, seed=2))
    assert [b.shape[1] for b in blocks] == [50, 130, 0, 7, 64]
    joined = np.concatenate(blocks, axis=1)
    assert sha256(joined) == "b152dc03af142a4f3942cd04feb0ec6978d98de5e30dc45311594f195a8d39ed"
    # the blocks' widths change no bit: one block of the summed width is the same stream
    model_mod._forget_noise()
    whole = list(model_mod.iter_distance_stream(reactor_fixed, [251], runs=5, seed=2))
    assert np.array_equal(whole[0], joined)
    # the streaming loop and the fixed-length loop give the same bits; 150 and
    # 200 steps are not multiples of the 64-step tile
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
    """Every source built, as (seed, run), and every draw of normals, as (run, rows).

    A source draws its normals in whole 64-step tiles (NoiseModel._tiles),
    v and eta together.
    """
    draws = {"sources": [], "rows": []}
    noise = model_mod.ClosedLoopModel.noise
    tiles = model_mod.NoiseModel._tiles

    def recording_noise(self, seed, run=0):
        draws["sources"].append((seed, run))
        return noise(self, seed, run)

    def recording_tiles(self, out):
        if len(out):
            draws["rows"].append((self.run, len(out)))
        return tiles(self, out)

    monkeypatch.setattr(model_mod.ClosedLoopModel, "noise", recording_noise)
    monkeypatch.setattr(model_mod.NoiseModel, "_tiles", recording_tiles)
    return draws


def _per_run(rows, runs):
    return [[count for run, count in rows if run == i] for i in range(runs)]


def test_two_arls_of_one_loop_seed_and_runs_draw_the_same_rows(loops, row_draws):
    drawn = []
    for name in ("chi2", "cusum7.5"):
        before = len(row_draws["rows"])
        result = estimate_arl(loops["dare"], DETECTORS[name](), runs=40, seed=0)
        arl, half_width, censored = PINNED[("dare", name, "s0")]
        assert result == ArlResult(arl, 1.0 / arl, half_width, 40, censored, 1_000_000), name
        drawn.append(_per_run(row_draws["rows"][before:], 40))
    # each estimate builds its own source per run and keeps nothing, so the
    # second draws the same rows again from step 0
    assert row_draws["sources"] == [(0, i) for i in range(40)] * 2
    for estimate in drawn:
        for run in estimate:
            # pieces of 64, 128, 256, ... steps drawn ahead of the 50-step warm-up
            # and the 64-step blocks, only as deep as the estimate read
            assert run == [64 * 2 ** k for k in range(len(run))]
            assert sum(run) < 4096
    assert drawn[0] == [run[:len(drawn[0][0])] for run in drawn[1]]


def test_a_failed_eta_draw_forgets_the_family(reactor_dare, monkeypatch):
    # v and eta are one draw; a draw of 128 steps fails on run 24, on the
    # calling thread: the ARL stream's second piece (past the warm-up), and
    # a fixed-length stream's one piece.  Either way the thread remembers
    # no draw afterwards, and the next estimate draws afresh
    blocks = model_mod.NoiseModel.blocks
    raised_on = []

    def failing_blocks(self, steps, out=None):
        if self.run == 24 and steps == 128:
            raised_on.append(threading.current_thread())
            raise RuntimeError("no noise for run 24")
        return blocks(self, steps, out)

    monkeypatch.setattr(model_mod.NoiseModel, "blocks", failing_blocks)
    failing = (lambda: estimate_arl(reactor_dare, DETECTORS["chi2"](), runs=40, seed=0),
               lambda: model_mod.simulate_distance_stream(reactor_dare, steps=78, runs=40, burn_in=50))
    for call in failing:
        model_mod.simulate_distance_stream(reactor_dare, steps=10, runs=2, seed=5)  # a draw to forget
        with pytest.raises(RuntimeError, match="no noise for run 24"):
            call()
        assert model_mod._attack_free.noise is None and model_mod._attack_free.stream is None
    assert raised_on == [threading.current_thread()] * 2
    monkeypatch.setattr(model_mod.NoiseModel, "blocks", blocks)
    arl, half_width, censored = PINNED[("dare", "chi2", "s0")]
    result = estimate_arl(reactor_dare, DETECTORS["chi2"](), runs=40, seed=0)
    assert result == ArlResult(arl, 1.0 / arl, half_width, 40, censored, 1_000_000)


def test_an_arl_estimate_holds_only_the_pieces_it_reads(reactor_dare):
    # the first estimate reads about 200 steps of 400 runs and draws pieces
    # of 64, 128 and 256 steps ahead of them, 10 MB of noise; the censored
    # one reads all 5,050 steps, in pieces that grow to _piece_rows (704
    # steps, 15.8 MB) and then are drawn over one another in one buffer,
    # which the stream holds alone, also where a block straddles two pieces
    def first():
        return estimate_arl(reactor_dare, ChiSqDetector(tune_chi2(3, 0.05)), runs=400, seed=2)

    def censored():
        with pytest.warns(UserWarning, match="400 of 400 runs"):
            return estimate_arl(reactor_dare, ChiSqDetector(1e9), runs=400, seed=2, cap=5000)

    for estimate in (first, censored):
        tracemalloc.start()
        try:
            result = estimate()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, (estimate.__name__, peak)
    assert result.censored == 400


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
    # the warm-up and whole 64-step blocks up to the longest run, not 50 + 10,000
    assert len(columns) < 1000
    assert (len(columns) - 50) % 64 == 0
