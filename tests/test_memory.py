"""No command holds a snapshot stack, and simulate holds each of its once.

A "stack" is one (rows, N) array of float64 snapshots.  In memory, simulate
keeps two (u and u_t) and needs a small workspace beside them; the scan
reads the monitored stack one row at a time and keeps only the columns its
quadrature reads, so it adds less than one stack to the trajectory it reads.
Its peak is counted in T x cols arrays (cols = the grid points that the
largest R reaches) and fields: a fixed set of buffers, allocated once.
The command line streams the rows through the run directory, so
``semilinear`` and ``blowup-scan`` each stay below one stack in all.

``linear-decay`` and a 2D ``semilinear`` hold no stack, and are bounded in
grid-sized arrays: one state pair advanced in place, the data released once
transformed, a norm row's workspace shared with the transform scratch.  A
step of the semilinear stepper holds no grid-sized temporary at all.
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
from sigmaevo.solver import SolverConfig, Trajectory, _Stepper, simulate
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
    x = GRID.axis()
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


def scan_working_set(traj, spec):
    """The bound on a scan's traced peak, in bytes: T x cols arrays of
    float64 (cols = the grid points under the largest R) and fields.

    The pass holds the monitored stack's columns, its two operator-applied
    stacks, Psi's weight, four buffers for each R's argument, phi_R,
    stencils, PhiR and integrands, and g's mask (8.125 T x cols).  While it
    reads, it holds the three stacks, one row, its spectrum, the product
    with a symbol and the two symbols (3 T x cols and 5 fields).  One field
    more is slack for the arrays of T or cols entries."""
    grid = traj.grid
    near = grid.radius().reshape(-1) ** spec.scale_power + traj.times[0]
    tk = 8 * len(traj.times) * np.count_nonzero(near < spec.R_values[-1])
    field = 8 * grid.N ** grid.n
    return max(8.5 * tk, 3 * tk + 5 * field) + field


def test_scan_holds_a_counted_working_set(run):
    # 284 KiB against a bound of 320 KiB; 7-row blocks and per-R arrays made 938
    traj = run[0]
    spec = TestFunctionSpec.for_params(PARAMS, np.geomspace(0.45, 4.5, 10))
    rows, peak = traced_peak(lambda: scan(traj, ModulusSpec.from_key("log-log-lip:2"), 3.0, spec))
    assert len(rows) == 10 and all(np.isfinite(row).all() for row in rows)
    assert peak < scan_working_set(traj, spec)


def test_2d_scan_holds_a_counted_working_set():
    # a scan whose per-R arrays outweigh the row transform: 1,353 KiB (8.2
    # T x cols) against a bound of 1,514; per-R arrays made 2,367
    grid = GridSpec(2, 128, 10.0)
    params = EquationParams(sigma=2.0, delta=1.0, n=2, p=3, target="on_ut", r=3.0)
    times = 0.1 * np.arange(41)
    x, y = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    bump = np.exp(-x * x - 0.5 * y * y)
    traj = Trajectory(times=times, norms=np.zeros((len(times), 6)), grid=grid, params=params,
                      snapshots_u=np.cos(times)[:, None, None] * bump,
                      snapshots_ut=-np.sin(times)[:, None, None] * bump)
    spec = TestFunctionSpec.for_params(params, np.geomspace(0.4, 4.0, 10))
    mu = ModulusSpec.from_key("log-log-lip:2")
    scan(traj, mu, 3.0, spec)   # the grid's cached |xi|^2 and transform scratch
    rows, peak = traced_peak(lambda: scan(traj, mu, 3.0, spec))
    assert len(rows) == 10 and all(np.isfinite(row).all() for row in rows)
    assert peak < scan_working_set(traj, spec)


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


def test_blowup_scan_command_holds_the_scans_working_set(run, streamed):
    # the scan at the command's default R values, whose snapshot files are
    # read straight into the scan's row buffer, and 3 fields for the rest of
    # the command (its parser, manifest and norms table take about 2): 349
    # KiB against a bound of 416; 7-row blocks and per-R arrays made 1,002
    rundir, _ = streamed
    spec = TestFunctionSpec.for_params(PARAMS, np.geomspace(0.45, 4.5, 10))
    bound = scan_working_set(run[0], spec) + 3 * 8 * GRID.N
    assert traced_command(["blowup-scan", str(rundir)]) < bound


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
    # about 9.5 fields: the state pair (2), u (1), the multipliers and their
    # shell index (2.5), apply's two row blocks (0.5), the grid's transform
    # scratch, which is also a norm row's work (1), |xi|^2 and norm weights
    # (1.5).  A norm row's own work made 10.4; two state pairs, a full-size
    # apply scratch, an unused u_t buffer and the data held through the run
    # made 16.5
    assert peak < 10 * field


def test_semilinear_2d_command_holds_few_fields(tmp_path):
    # a grid of its own, as above
    grid = {"n": 2, "N": 256, "L": 43.0}
    data = {"family": "gaussian", "amplitude": 0.1, "width": 2.0, "center": 0.0}
    path = tmp_path / "semilinear.json"
    path.write_text(json.dumps({
        "params": {"sigma": 2.0, "delta": 0.0, "m": 1.0, "n": 2, "p": 3.0, "target": "on_u",
                   "r": 1.5},
        "mu": "hoelder:0.5",
        "grid": grid,
        "solver": {"dt": 0.05, "t_end": 1.0, "snapshot_stride": 10},
        "data": {"u0": data, "u1": data},
    }))
    peak = traced_command(["semilinear", "--config", str(path), "--out", str(tmp_path / "run")])
    # about 17 fields.  A norm row's own work and the two temporaries of each
    # modulus evaluation made 19.7
    assert peak < 18 * 8 * grid["N"] ** grid["n"]


@pytest.mark.parametrize("target,key", [("on_u", "hoelder:0.5"), ("on_ut", "log-log-lip:2")])
def test_stepper_step_holds_no_field_temporary(target, key):
    # numpy's casts of a real multiplier against a complex spectrum take
    # buffers of 8192 elements, a quarter of a field at 256^2; a modulus
    # evaluation into fresh arrays took two fields
    grid = GridSpec(2, 256, 20.0)
    params = EquationParams(sigma=2.0, delta=1.0, n=2, p=3.0, target=target, r=3.0)
    stepper = _Stepper(params, ModulusSpec.from_key(key), SolverConfig(dt=0.05, t_end=1.0), grid)
    x, y = np.meshgrid(grid.axis(), grid.axis(), indexing="ij")
    uh, uth = grid.fft(0.1 * np.exp(-x * x - y * y)), grid.fft(0.1 * np.exp(-x * x - y * y / 2))
    uh, uth = stepper.step(uh, uth, None, out=(uh, uth))   # warm: caches and PEC state

    def ten_steps():
        state = uh, uth
        for _ in range(10):
            state = stepper.step(*state, None, out=state)
        return state

    (uh2, uth2), peak = traced_peak(ten_steps)
    assert uh2 is uh and uth2 is uth and np.isfinite(uh).all()
    assert peak < 0.5 * 8 * 256 ** 2
