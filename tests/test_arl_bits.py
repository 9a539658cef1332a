"""Bit-identity pins for the attack-free stream and the ARL estimate.

`iter_distance_stream` draws each chunk's noise at once but advances it in
sub-blocks, and `estimate_arl` stops pulling sub-blocks once every run has
exceeded.  Neither may change a bit of what was computed before the
sub-blocks existed: the values below were recorded with the whole-chunk
stream, which advanced every run through every chunk it started.
"""

import hashlib
import warnings

import numpy as np
import pytest

from resdet import model as model_mod
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
