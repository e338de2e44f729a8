"""Shared fixtures: the desk-scale operator and a small reusable ensemble,
and the README's example config."""

import json
import pathlib
import re

import pytest

from fracheat.laplacian import OperatorConfig, assemble, build_grid
from fracheat.sde import (
    Discretization,
    ModelParams,
    SigmaSpec,
    run_ensemble,
    tent_profile,
)

DESK_ALPHA = 1.5
DESK_N = 64
DESK_MU = 0.1

# the first JSON block of the README: its example config
README_CONFIG = json.loads(
    re.search(r"```json\n(.*?)^```", (pathlib.Path(__file__).parents[1] / "README.md").read_text(),
              flags=re.S | re.M).group(1)
)


@pytest.fixture(scope="session")
def desk_grid():
    return build_grid(L=1.0, n=DESK_N, mu=DESK_MU)


@pytest.fixture(scope="session")
def desk_op(desk_grid):
    return assemble(desk_grid, OperatorConfig(alpha=DESK_ALPHA))


def make_params(grid, lam=1.0, u0=None, p=2.0, sigma=None):
    if sigma is None:
        sigma = SigmaSpec(kind="linear", l_sigma=1.0, L_sigma=1.0)
    return ModelParams(
        alpha=DESK_ALPHA,
        L=grid.L,
        lam=lam,
        sigma=sigma,
        u0=u0 if u0 is not None else tent_profile(grid),
        mu=grid.mu,
        p=p,
    )


@pytest.fixture(scope="session")
def desk_params(desk_grid):
    return make_params(desk_grid)


@pytest.fixture(scope="session")
def small_ensemble(desk_grid, desk_op, desk_params):
    """64 paths, two snapshots, coarse steps: enough signal for ordering tests."""
    disc = Discretization(
        grid=desk_grid, dt=1.0 / 256.0, t_end=0.25, snapshot_times=(0.125, 0.25)
    )
    return run_ensemble(
        desk_params, disc, desk_op, n_paths=64, master_seed=1234, worker_count=2
    )
