"""Each snapshot stack is held once, from the time loop through the scan.

A "stack" is one (rows, N) array of float64 snapshots.  simulate keeps two
(u and u_t) and needs a small workspace beside them; the scan transforms the
monitored stack in row blocks and keeps only the columns its quadrature
reads, so it adds less than one stack to the trajectory it reads.
"""
import tracemalloc

import numpy as np
import pytest

from sigmaevo.functional import TestFunctionSpec, scan
from sigmaevo.modulus import ModulusSpec
from sigmaevo.params import EquationParams
from sigmaevo.solver import SolverConfig, simulate
from sigmaevo.spectral import GridSpec

GRID = GridSpec(1, 4096, 200.0)
PARAMS = EquationParams(sigma=2.0, delta=1.0, n=1, p=3, target="on_ut", r=3.0)
CONFIG = SolverConfig(dt=0.05, t_end=5.0, store_fields=True)


def traced_peak(fn):
    """fn()'s result and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def run():
    x = GRID.coords()[0]
    u0, u1 = 0.01 * np.exp(-x * x), 0.01 * np.exp(-(x - 0.5) ** 2)
    traj, peak = traced_peak(lambda: simulate(u0, u1, PARAMS, ModulusSpec.from_key("log-log-lip:2"),
                                              CONFIG, GRID))
    stack = traj.snapshots_ut.nbytes
    assert traj.blowup is None and len(traj.times) == 101 and stack == 101 * 4096 * 8
    return traj, peak, stack


def test_simulate_holds_each_stack_once(run):
    traj, peak, stack = run
    assert peak < 2.5 * stack


def test_scan_adds_less_than_one_stack(run):
    traj, _, stack = run
    spec = TestFunctionSpec.for_params(PARAMS, np.geomspace(0.45, 4.5, 10))
    rows, peak = traced_peak(lambda: scan(traj, ModulusSpec.from_key("log-log-lip:2"), 3.0, spec))
    assert len(rows) == 10 and all(np.isfinite(row).all() for row in rows)
    assert peak < stack
