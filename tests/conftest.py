import os
from pathlib import Path

import pytest

import dftr
from dftr import FeedbackLaw, ReactorParams, SpatialGrid, default_saturation_bound

# reference parameter set used throughout: v=0.01 m/s, l=1 m, Pe=4
# (d_ax=0.0025), k=0.001, T=400 s
D_AX = 0.0025
V = 0.01
K = 0.001
L = 1.0


def make_params(n=1.0, k=K, t_final=400.0, sat_m=None, alpha_for_sat=0.0,
                d_ax=D_AX, v=V):
    if sat_m is None:
        sat_m = default_saturation_bound(d_ax, v, L, alpha_for_sat)
    return ReactorParams(d_ax=d_ax, v=v, k=k, n=n, l=L, t_final=t_final,
                         sat_m=sat_m)


@pytest.fixture
def params():
    return make_params()


@pytest.fixture
def grid201():
    return SpatialGrid(l=L, num_nodes=201)


@pytest.fixture
def law0():
    return FeedbackLaw(alpha=0.0)


def child_env():
    """The environment of a child process that finds this package first."""
    paths = [str(Path(dftr.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
