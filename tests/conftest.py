"""Shared fixtures: benchmark loops and a scalar loop with unit sigma.

The loop fixtures live for the whole session, and a loop keeps its
deviation map M once it is solved (ClosedLoopModel.deviation_map), so a
test that counts solves (`m_solves`) builds its own loop objects.

Property tests run under a derandomized hypothesis profile with no deadline
and no example database, so every run draws the same examples and none is
stored between runs.  Every test must join every thread it starts
(`no_thread_left_running`).
"""

import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import resdet
from resdet import model as model_mod
from resdet import reactor as rx
from resdet.model import ClosedLoopModel, PlantModel, build_closed_loop

settings.register_profile("resdet", derandomize=True, deadline=None, database=None)
settings.load_profile("resdet")


@pytest.fixture(autouse=True)
def no_remembered_stream():
    """Start every test with no remembered attack-free draw, or stream simulated on it, in its thread.

    The loop fixtures live for the whole session, so a test could otherwise
    be handed a stream that an earlier test simulated, or noise it drew.
    """
    model_mod._forget_noise()


@pytest.fixture(autouse=True)
def no_thread_left_running():
    """Fail every test that leaves a thread running: each thread it starts must be joined."""
    before = threading.active_count()
    yield
    assert threading.active_count() == before, "the test left a thread running"


@pytest.fixture
def m_solves(monkeypatch):
    """One entry per solve of a deviation map M, failed or not: the loop it was solved for."""
    calls = []
    deviation_map = ClosedLoopModel.deviation_map  # the cached_property itself
    solve = deviation_map.func

    def counting_solve(loop):
        calls.append(loop)
        return solve(loop)

    monkeypatch.setattr(deviation_map, "func", counting_solve)
    return calls


@pytest.fixture(scope="session")
def reactor_fixed():
    """Benchmark loop with the tabulated estimator gain."""
    return rx.reactor_loop(estimator="fixed")


@pytest.fixture(scope="session")
def reactor_dare():
    """Benchmark loop with the recomputed optimal estimator gain."""
    return rx.reactor_loop(estimator="dare")


@pytest.fixture(scope="session")
def scalar_loop():
    """1-state loop engineered so sigma = 1 exactly.

    f=0.5, g=1, c=1, k=-0.25, l=0.2; the Lyapunov covariance with
    r1=0.455 - 0.04*r2 ... chosen so P = 0.5 and sigma = P + r2 = 1.
    """
    plant = PlantModel(
        np.array([[0.5]]),
        np.array([[1.0]]),
        np.array([[1.0]]),
        np.array([[0.435]]),
        np.array([[0.5]]),
    )
    return build_closed_loop(plant, np.array([[-0.25]]), l_gain=np.array([[0.2]]))


@pytest.fixture(scope="session")
def reactor_matrices():
    """The bundled scenario's tabulated matrices verbatim: R1 is not symmetrized."""
    doc = json.loads(rx.scenario_path().read_text(encoding="utf-8"))
    plant = doc["plant"]
    tables = {
        "f": plant["F"], "g": plant["G"], "c": plant["C"], "r1": plant["R1"], "r2": plant["R2"],
        "k_fb": doc["controller"]["K"], "l_gain": doc["estimator"]["L"],
    }
    return {name: np.asarray(rows, dtype=float) for name, rows in tables.items()}


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child python: this resdet's directory leads PYTHONPATH."""
    src = str(Path(resdet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
