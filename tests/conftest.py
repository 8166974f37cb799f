"""Shared fixtures: a single coarse AIR table reused by the slow tests.

The coarse table (1 dB grid, 5e4 Monte-Carlo symbols) takes ~0.6 s to build
on a 2-vCPU x86-64 host, so it is built once per session and shared by every
test that only needs a realistic, monotone SNR->AIR map rather than a
specific resolution.
"""

import numpy as np
import pytest

from fsolink.airlut import MCConfig, build_air_table

COARSE_GRID = np.arange(0.0, 31.0, 1.0)
COARSE_MC = MCConfig(mc_symbols=50_000, seed=7)


@pytest.fixture(scope="session")
def coarse_table():
    return build_air_table(COARSE_GRID, COARSE_MC, ngmi_th=0.9)
