"""Shared fixtures: benchmark loops and a scalar loop with unit sigma.

Property tests run under a derandomized hypothesis profile with no deadline
and no example database, so every run draws the same examples and none is
stored between runs.
"""

import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import resdet
from resdet import reactor as rx
from resdet.model import PlantModel, build_closed_loop

settings.register_profile("resdet", derandomize=True, deadline=None, database=None)
settings.load_profile("resdet")


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
    return rx.load_matrices()


@pytest.fixture(scope="session")
def child_env():
    """Environment for a child python: this resdet's directory leads PYTHONPATH."""
    src = str(Path(resdet.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
