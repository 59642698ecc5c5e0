"""No command holds a snapshot stack, and simulate holds each of its once.

A "stack" is one (rows, N) array of float64 snapshots.  In memory, simulate
keeps two (u and u_t) and needs a small workspace beside them; the scan
reads the monitored stack in row blocks and keeps only the columns its
quadrature reads, so it adds less than one stack to the trajectory it reads.
The command line streams the rows through the run directory, so
``semilinear`` and ``blowup-scan`` each stay below one stack in all.

``linear-decay`` holds no stack, and is bounded in grid-sized arrays: one
state pair advanced in place, the data released once transformed.
"""
import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest

from sigmaevo.cli import main
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


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    """The run of the ``run`` fixture as a config file of the command line."""
    def gaussian(center):
        return {"family": "gaussian", "amplitude": 0.01, "width": 1.0, "center": center}

    path = tmp_path_factory.mktemp("memory") / "config.json"
    path.write_text(json.dumps({
        "params": {"sigma": 2.0, "delta": 1.0, "m": 1.0, "n": 1, "p": 3.0,
                   "target": "on_ut", "r": 3.0},
        "mu": "log-log-lip:2",
        "grid": {"n": 1, "N": 4096, "L": 200.0},
        "solver": {"dt": 0.05, "t_end": 5.0, "snapshot_stride": 1, "store_fields": True},
        "data": {"u0": gaussian(0.0), "u1": gaussian(0.5)},
    }))
    return path


def traced_command(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        code, peak = traced_peak(lambda: main(argv))
    assert code == 0
    return peak


@pytest.fixture(scope="module")
def streamed(run, config_path):
    """The run directory ``semilinear`` writes, and its traced peak."""
    rundir = config_path.parent / "run"
    peak = traced_command(["semilinear", "--config", str(config_path), "--out", str(rundir)])
    assert len(list((rundir / "fields").iterdir())) == 2 * 101
    return rundir, peak


def test_semilinear_command_holds_no_stack(run, streamed):
    assert streamed[1] < run[2]


def test_blowup_scan_command_holds_no_stack(run, streamed):
    rundir, _ = streamed
    assert traced_command(["blowup-scan", str(rundir)]) < run[2]
    assert len((rundir / "functional.csv").read_text().splitlines()) == 11


def test_linear_decay_command_holds_few_fields(tmp_path):
    # a grid no other test uses, so that its cached |xi|^2 and norm weights
    # are built inside the traced command, as in a fresh process
    grid = {"n": 2, "N": 256, "L": 37.0}
    path = tmp_path / "linear.json"
    path.write_text(json.dumps({
        "params": {"sigma": 1.0, "delta": 0.0, "m": 1.0, "n": 2, "p": 2.0, "target": "on_u"},
        "mu": "hoelder:0.5",
        "grid": grid,
        "solver": {"dt": 0.05, "t_end": 6.0, "snapshot_stride": 4},
        "data": {"u0": {"family": "gaussian", "amplitude": 0.01, "width": 1.0, "center": 0.0},
                 "u1": {"family": "zero"}},
    }))
    field = 8 * grid["N"] ** grid["n"]
    peak = traced_command(["linear-decay", "--config", str(path), "--out", str(tmp_path / "run"),
                           "--window-lo", "1", "--window-hi", "5"])
    # about 11 fields: the state pair (2), u (1), a norm row's work (1), the
    # multipliers and their shell index (2.5), apply's two row blocks (0.5),
    # the grid's transform scratch (1), |xi|^2 and norm weights (1.5).  Two
    # state pairs, a full-size apply scratch, an unused u_t buffer and the
    # data held through the run made 16.5
    assert peak < 13 * field
