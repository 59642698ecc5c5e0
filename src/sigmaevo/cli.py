"""Experiment runner: configuration, run persistence, and standard suites.

A run is described by one JSON document (diff-able, round-trips losslessly)
and produces a run directory holding the exact config used (manifest.json),
norms.csv, and optional binary field snapshots, one file per field and row.
Numerical blow-up is a recorded verdict, never a process failure; validation
problems exit nonzero with the violated constraint named.

Snapshots stream through the run directory and no command holds a stack of
them: a run writes each kept row as its loop makes it (FieldFiles, the one
writer of field files), and a loaded run's stacks read their rows from the
files on demand (FieldStack).

Each command imports the modules that only it uses (analysis, functional,
norms, concurrent.futures) as it runs, so that no other command loads them.
"""
from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, replace
from enum import Enum
from typing import Literal, Optional, get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .errors import ConfigError, CoverageError, ParameterError, SigmaevoError
from .modulus import ModulusSpec, check_derivative_bound, check_modulus_axioms, \
    classify_integral_criterion
from .params import (EquationParams, check_admissibility, critical_exponent,
                     predict_linear_rate, predict_theorem_rates)
from .solver import (NORM_COLUMNS, BlowUp, SolverConfig, Trajectory, simulate,
                     simulate_linear)
from .spectral import (GridSpec, field_header, mode_coefficients, read_field, synthesize,
                       wrap_time, write_field)

OUTPUT_ROOT_ENV = "SIGMAEVO_OUT"
# the keys of a run config; a legacy "seed" key is also accepted, and ignored
CONFIG_KEYS = ("params", "mu", "grid", "solver", "data", "output_dir")


# -- initial data ------------------------------------------------------------

DataFamily = Literal["zero", "gaussian", "cosine-bump", "from-file"]


@dataclass(frozen=True)
class DataSpec:
    """Initial-datum descriptor: zero | gaussian | cosine-bump | from-file."""

    family: DataFamily = "zero"
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    path: Optional[str] = None

    def __post_init__(self):
        if self.family not in get_args(DataFamily):
            raise ConfigError(f"unknown data family {self.family!r}; the families are "
                              + ", ".join(map(repr, get_args(DataFamily))))
        for key in ("amplitude", "width", "center"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"data {key} must be finite")
        if self.family in ("gaussian", "cosine-bump") and self.width <= 0:
            raise ConfigError("data width must be positive")
        if self.family == "from-file" and not (isinstance(self.path, str) and self.path):
            raise ConfigError(f"from-file data needs a path (a file name), not {self.path!r:.40}")

    def build(self, grid: GridSpec) -> np.ndarray:
        if self.family == "zero":
            return np.zeros(grid.shape)
        if self.family == "from-file":
            arr, g, _ = read_field(self.path)
            if g != grid:
                raise ConfigError(f"field file grid {g} does not match run grid {grid}")
            return arr
        # the profile is applied in place to the fresh |x - c|
        r = grid.radius(self.center)
        if self.family == "gaussian":
            np.divide(r, self.width, out=r)
            np.exp(np.negative(np.square(r, out=r), out=r), out=r)
        else:
            outside = r >= self.width
            np.divide(r, self.width, out=r)
            np.cos(np.multiply(0.5 * np.pi, np.minimum(r, 1.0, out=r), out=r), out=r)
            np.square(r, out=r)
            r[outside] = 0.0
        return np.multiply(self.amplitude, r, out=r)


@dataclass
class RunConfig:
    params: EquationParams
    mu_key: str
    grid: GridSpec
    solver: SolverConfig
    u0: DataSpec
    u1: DataSpec
    output_dir: Optional[str] = None

    def mu(self) -> ModulusSpec:
        return ModulusSpec.from_key(self.mu_key)

    def to_dict(self) -> dict:
        return {
            "params": asdict(self.params),
            "mu": self.mu_key,
            "grid": asdict(self.grid),
            "solver": asdict(self.solver),
            "data": {"u0": _dataspec_dict(self.u0), "u1": _dataspec_dict(self.u1)},
            "output_dir": self.output_dir,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        """Validated config from its JSON form; a legacy "seed" key is ignored
        (every data family is deterministic), any other unknown key rejected."""
        unknown = sorted(set(doc) - set(CONFIG_KEYS) - {"seed"})
        if unknown:
            raise ConfigError(f"config has unknown key(s) {', '.join(map(repr, unknown))}; "
                              f"the keys are {', '.join(CONFIG_KEYS)}")
        params = _record(EquationParams, doc, "params")
        grid = _record(GridSpec, doc, "grid")
        solver = _record(SolverConfig, doc, "solver")
        u0, u1 = (_record(DataSpec, doc, f"data.{key}") for key in ("u0", "u1"))
        mu_key = _section(doc, "mu", kind=str)
        ModulusSpec.from_key(mu_key)  # validate early
        if params.n != grid.n:
            raise ConfigError(f"params.n = {params.n} does not match grid.n = {grid.n}")
        return cls(params=params, mu_key=mu_key, grid=grid, solver=solver,
                   u0=u0, u1=u1, output_dir=doc.get("output_dir"))

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        return cls.from_dict(_load_json(path))


def _load_json(path: str, kind: str = "config") -> dict:
    """The JSON object in ``path`` (a config, run manifest or sweep document)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{kind} {path} is not a JSON object: {doc!r:.40}")
    return doc


def _section(doc: dict, key: str, where: str = "config", kind: type = dict):
    """doc[key], a JSON object (a string with kind=str); ``where`` names doc."""
    if key not in doc:
        raise ConfigError(f"{where} missing required key: {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise ConfigError(f"{where} key {key!r} must be "
                          f"{'a string' if kind is str else 'an object'}, not {value!r:.40}")
    return value


def _record(cls, doc: dict, key: str, where: str = "config"):
    """cls(**doc[key]); a field that cls lacks or rejects raises ConfigError.

    ``key`` may be a dotted path of nested objects (``data.u0``).  A number
    field (float, int or Optional[float]) must hold a JSON number that is not
    a bool, or null where Optional; a bool field true or false; an Enum or
    Literal field one of its values.  The range of each value is cls's to
    check."""
    parts = key.split(".")
    section = doc
    for i, part in enumerate(parts):
        section = _section(section, part, " ".join([where, *parts[:i]]))
    hints = get_type_hints(cls)
    for name, value in section.items():
        hint = hints.get(name)
        if hint is bool:
            ok, want = isinstance(value, bool), "true or false"
        elif get_origin(hint) is Literal or isinstance(hint, type) and issubclass(hint, Enum):
            values = get_args(hint) or tuple(m.value for m in hint)
            ok, want = value in values, "one of " + ", ".join(map(repr, values))
        elif hint in (float, int, Optional[float]):
            nullable = hint == Optional[float]
            ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
                  or nullable and value is None)
            want = "a number or null" if nullable else "a number"
        else:
            continue
        if not ok:
            raise ConfigError(f"{where} key '{key}.{name}' must be {want}, not {value!r:.40}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _dataspec_dict(d: DataSpec) -> dict:
    out = {"family": d.family}
    if d.family in ("gaussian", "cosine-bump"):
        out.update(amplitude=d.amplitude, width=d.width, center=d.center)
    if d.family == "from-file":
        out["path"] = d.path
    return out


# -- run persistence -----------------------------------------------------------

def write_table(path: str, header, rows, append: bool = False):
    """Write one CSV table: a float cell (numpy floats included) as
    repr(float(v)), so it reads back bit for bit, any other cell unchanged.
    Appending writes the header only into a new or empty file, and refuses,
    leaving the file as it is, a file whose first row is another header."""
    new = True
    if append and os.path.exists(path):
        with open(path, newline="") as fh:
            first = next(csv.reader(fh), None)
        new = first is None
        if not new and first != list(header):
            raise ParameterError(f"{path}: first row {','.join(first)} is not the header "
                                 f"{','.join(header)}; not appending to another table")
    with open(path, "a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(header)
        writer.writerows([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                          for v in row] for row in rows)


def write_norms_csv(path: str, traj: Trajectory):
    # no table-sized temporary: one (column_stack or tolist) raised linear-2d's
    # peak RSS and scan-1d's page faults per job
    write_table(path, ("t",) + NORM_COLUMNS,
                ([t, *row] for t, row in zip(traj.times, traj.norms)))


def read_norms_csv(path: str):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ParameterError(f"{path}: empty file, no header row")
    header, body = rows[0], rows[1:]
    # shape (0, ncols) when the run ended before its first row
    data = np.empty((len(body), len(header)))
    for i, row in enumerate(body):
        try:   # a cell that is no number, or a row of the wrong length
            data[i] = [float(v) for v in row]
        except ValueError as exc:
            raise ParameterError(f"{path}: row {i}: {exc}") from exc
    return header, data


def save_run(outdir: str, config: RunConfig, traj: Trajectory, mean_u1: float, kind: str):
    """Write manifest.json and norms.csv of a run of the command ``kind``; its
    snapshots, if any, were streamed to outdir/fields by its loop.
    ``mean_u1`` is the mean of the run's u1, taken where the data are built."""
    os.makedirs(outdir, exist_ok=True)
    manifest = {
        "version": __version__,
        "config": config.to_dict(),
        "mean_u1": mean_u1,
        "u1_mean_positive": mean_u1 > 0,
        "blowup": None if traj.blowup is None else
                  {"time": traj.blowup.time, "reason": traj.blowup.reason},
        "blowup_threshold": traj.blowup_threshold,
        "kind": kind,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, allow_nan=False)
    write_norms_csv(os.path.join(outdir, "norms.csv"), traj)


def _field_path(fdir: str, name: str, i: int) -> str:
    """The file of row i's snapshot of field ``name`` (u or ut)."""
    return os.path.join(fdir, f"{name}_{i:06d}.bin")


class FieldFiles:
    """The snapshot sink that streams a run to files (see
    solver.SnapshotStacks): row i's u and u_t are transformed into one pair
    of buffers and written to u_{i:06d}.bin and ut_{i:06d}.bin in ``fdir``
    once the row has passed its blow-up check.  It holds no stack."""

    def __init__(self, fdir: str, grid: GridSpec):
        self.fdir, self.grid = fdir, grid
        self._buffers = (np.empty(grid.shape), np.empty(grid.shape))

    def buffers(self, i: int) -> tuple:
        return self._buffers

    def keep(self, i: int, t: float):
        for name, field in zip(("u", "ut"), self._buffers):
            write_field(_field_path(self.fdir, name, i), field, self.grid, float(t))

    def stacks(self, n: int) -> tuple:
        return None, None


@contextlib.contextmanager
def _field_sink(outdir: str, grid: GridSpec, store: bool):
    """A FieldFiles sink for outdir/fields (None unless ``store``).

    The files go to a staging directory inside outdir that replaces
    outdir/fields when the block ends; a block that raises leaves outdir as
    it found it, removing the directories it made.
    """
    if not store:
        yield None
        return
    made, parent = None, os.path.abspath(outdir)
    while not os.path.exists(parent):
        made, parent = parent, os.path.dirname(parent)
    os.makedirs(outdir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".fields-", dir=outdir)
    try:
        # mkdtemp's directory is private (0700); the one inside it is made
        # with the usual permissions, and is what becomes outdir/fields
        staged = os.path.join(stage, "fields")
        os.mkdir(staged)
        yield FieldFiles(staged, grid)
        fdir = os.path.join(outdir, "fields")
        if os.path.isdir(fdir):
            shutil.rmtree(fdir)
        os.rename(staged, fdir)
    except BaseException:
        shutil.rmtree(made or stage, ignore_errors=True)
        raise
    os.rmdir(stage)


def _check_snapshot(path: str, i: int, t: float, header: tuple, grid: GridSpec):
    """Row i of norms.csv, at time t on ``grid``, against a snapshot's header."""
    if header != (grid, t):
        raise ParameterError(f"{path}: header grid {header[0]} at t = {header[1]!r} does not "
                             f"match row {i} of norms.csv, t = {t!r} on {grid}")


class FieldStack:
    """One field's snapshots in a run directory, read on demand: row i is
    <fdir>/<name>_{i:06d}.bin, whose header must match time times[i] on
    ``grid``.  It has a length, and an integer row reads just that file."""

    def __init__(self, fdir: str, name: str, times: list, grid: GridSpec):
        self.fdir, self.name, self.times, self.grid = fdir, name, times, grid

    def __len__(self) -> int:
        return len(self.times)

    def __getitem__(self, i: int) -> np.ndarray:
        i = range(len(self))[i]
        path = _field_path(self.fdir, self.name, i)
        field, grid, time = read_field(path)
        _check_snapshot(path, i, self.times[i], (grid, time), self.grid)
        return field


def load_run(outdir: str) -> tuple:
    """(config, trajectory) reconstructed from a run directory; row i of
    norms.csv reads the snapshots fields/u_{i:06d}.bin and ut_{i:06d}.bin.

    Every snapshot's header (grid, time and payload size) is checked against
    its row here; the trajectory's stacks are FieldStacks, read on demand."""
    path = os.path.join(outdir, "manifest.json")
    manifest = _load_json(path, "run manifest")
    config = RunConfig.from_dict(_section(manifest, "config", path))
    norms_path = os.path.join(outdir, "norms.csv")
    header, data = read_norms_csv(norms_path)
    if header != ["t", *NORM_COLUMNS]:
        raise ParameterError(f"{norms_path}: header {','.join(header)} is not "
                             f"{','.join(('t',) + NORM_COLUMNS)}")
    blowup = (None if manifest.get("blowup") is None
              else _record(BlowUp, manifest, "blowup", path))
    traj = Trajectory(times=data[:, 0], norms=data[:, 1:], grid=config.grid,
                      params=config.params, blowup=blowup,
                      blowup_threshold=manifest.get("blowup_threshold"))
    fdir = os.path.join(outdir, "fields")
    if os.path.isdir(fdir):
        times = traj.times.tolist()
        for i, t in enumerate(times):
            for name in ("u", "ut"):
                path = _field_path(fdir, name, i)
                _check_snapshot(path, i, t, field_header(path), config.grid)
        traj.snapshots_u, traj.snapshots_ut = (FieldStack(fdir, name, times, config.grid)
                                               for name in ("u", "ut"))
    return config, traj


def _output_dir(override: Optional[str], configured: Optional[str], name: str) -> str:
    """--out, else the config's output_dir, else <$SIGMAEVO_OUT or runs>/<name>."""
    if not isinstance(configured, (str, type(None))):
        raise ConfigError(f"config key 'output_dir' must be a string, not {configured!r:.40}")
    return override or configured or os.path.join(os.environ.get(OUTPUT_ROOT_ENV, "runs"), name)


# -- subcommand implementations ---------------------------------------------------

def cmd_mu_classify(args) -> int:
    mu = ModulusSpec.from_key(args.mu)
    verdicts = [classify_integral_criterion(mu, c0, args.mode).verdict for c0 in args.c0]
    report = check_modulus_axioms(mu)
    sup = check_derivative_bound(mu)
    print(f"modulus {args.mu}")
    print(f"  axioms: zero_at_zero={report.zero_at_zero} nondecreasing={report.nondecreasing} "
          f"midpoint_concave={report.midpoint_concave} finite={report.finite_nonnegative}")
    print(f"  slope-bound supremum s*mu'/mu: {sup:.6g}")
    for c0, verdict in zip(args.c0, verdicts):
        print(f"  criterion (c0={c0:g}, mode={args.mode}): {verdict}")
    print(f"verdict: {verdicts[0]}")
    return 0


def cmd_rates(args) -> int:
    params = _params_from_args(args)
    print(f"parameters: sigma={params.sigma} delta={params.delta} m={params.m} "
          f"n={params.n} r={params.r} target={params.target.value}")
    try:
        pc = critical_exponent(params)
        print(f"critical exponent p* = {pc} = {float(pc)!r}")
    except SigmaevoError as exc:
        print(f"critical exponent: not defined ({exc})")
    report = check_admissibility(params)
    for key in ("thm_1_1", "thm_1_2", "thm_1_3"):
        ok = report.admissible(key)
        note = "" if ok else f"  [violated: {report.first_violation(key).name}]"
        print(f"admissible {key}: {ok}{note}")
    if report.window_empty_thm_1_3:
        print("note: thm_1_3 regularity window is empty for these parameters")
    print("linear rates (data with extra L^m integrability):")
    for a, label in ((0.0, "a=0"), (params.r, f"a=r={params.r}")):
        for j in (0, 1):
            e0, e1 = predict_linear_rate(params, a, j)
            print(f"  d_t^{j} |D|^{label}: u0-term {float(e0):+.6g}  u1-term {float(e1):+.6g}")
    try:
        pred = predict_theorem_rates(params)
        print(f"theorem rates ({pred.source.value}):")
        print(f"  L2 exponent          {float(pred.exponent_u_L2):+.6g}")
        print(f"  |D|^r L2 exponent    {float(pred.exponent_Dr_u_L2):+.6g}")
        if pred.exponent_ut_L2 is not None:
            print(f"  u_t L2 exponent      {float(pred.exponent_ut_L2):+.6g}")
    except SigmaevoError as exc:
        print(f"theorem rates: inadmissible ({exc})")
    return 0


def _expected_linear_exponent(params: EquationParams, u0: np.ndarray, u1: np.ndarray) -> float:
    """Dominant predicted L2 exponent given which data are present (nonzero)."""
    e0, e1 = predict_linear_rate(params, 0.0, 0)
    has_u0, has_u1 = bool(np.any(u0)), bool(np.any(u1))
    if has_u0 and not has_u1:
        return float(e0)
    if has_u1 and not has_u0:
        return float(e1)
    return float(max(e0, e1))


def _fit_window(config: RunConfig, u0: np.ndarray, u1: np.ndarray) -> tuple:
    spectrum = np.abs(config.grid.fft(u0)) + np.abs(config.grid.fft(u1))
    support = 4.0 * max(config.u0.width if config.u0.family != "zero" else 0.0,
                        config.u1.width if config.u1.family != "zero" else 0.0, 1.0)
    tw = wrap_time(config.grid, config.params.sigma, config.params.delta,
                   spectrum, support)
    from . import analysis
    return analysis.default_fit_window(config.solver.t_end, tw)


def _check_fit_options(args):
    """A bad --tolerance or fit window exits before any data are loaded."""
    if not 0 < args.tolerance < math.inf:   # written so that NaN fails it
        raise ParameterError(f"--tolerance must be positive and finite, got {args.tolerance}")
    if (args.window_lo is None) != (args.window_hi is None):
        raise ParameterError("--window-lo and --window-hi go together: give both or neither")
    if args.window_lo is not None and not -math.inf < args.window_lo < args.window_hi < math.inf:
        raise ParameterError("--window-lo must be below --window-hi and both finite, got "
                             f"{args.window_lo} and {args.window_hi}")


def cmd_linear_decay(args) -> int:
    _check_fit_options(args)
    from . import analysis
    config = RunConfig.load(args.config)
    outdir = _output_dir(args.out, config.output_dir, "run")
    data = [config.u0.build(config.grid), config.u1.build(config.grid)]
    mean_u1 = float(np.mean(data[1]))
    window = ((args.window_lo, args.window_hi) if args.window_lo is not None
              else _fit_window(config, *data))
    predicted = _expected_linear_exponent(config.params, *data)
    # the row times of a semilinear run of the same config
    solver = config.solver
    times = np.arange(0, solver.n_steps + 1, solver.snapshot_stride) * solver.dt
    with _field_sink(outdir, config.grid, solver.store_fields) as fields:
        # popped from the list: the run holds the only references to the
        # data, and lets them go once it has transformed them
        traj = simulate_linear(data.pop(0), data.pop(0), config.params, times, config.grid,
                               store_fields=solver.store_fields, fields=fields)
        fit = analysis.fit_decay(traj.series("L2_u"), window)
        verdict = analysis.compare_to_theory(fit, predicted, args.tolerance)
        save_run(outdir, config, traj, mean_u1, "linear-decay")
    write_table(os.path.join(outdir, "fit.csv"),
                ["column", "exponent", "predicted", "tolerance",
                 "window_lo", "window_hi", "residual_rms", "passed"],
                [["L2_u", fit.exponent, predicted, args.tolerance, *window,
                  fit.residual_rms, verdict.passed]])
    print(f"fitted L2 exponent {fit.exponent:+.4f} vs predicted {predicted:+.4f} "
          f"on t in [{window[0]:g}, {window[1]:g}]: "
          f"{'PASS' if verdict.passed else 'FAIL'} (margin {verdict.margin:+.4f})")
    print(f"artifacts in {outdir}")
    return 0


def cmd_semilinear(args) -> int:
    config = RunConfig.load(args.config)
    outdir = _output_dir(args.out, config.output_dir, "run")
    traj = run_semilinear(config, outdir, "semilinear")
    if traj.blowup is not None:
        print(f"blow-up at t = {traj.blowup.time:g} ({traj.blowup.reason}); "
              "verdict recorded")
    else:
        print(f"reached t = {traj.times[-1]:g} with no blow-up")
    print(f"artifacts in {outdir}")
    return 0


def run_semilinear(config: RunConfig, outdir: str, kind: str) -> Trajectory:
    """The semilinear run of ``config``, saved to ``outdir`` as a run of the
    command ``kind``: its snapshots (with store_fields) are streamed to
    outdir/fields as the loop keeps them, and a run that raises leaves
    outdir as it was."""
    grid = config.grid
    data = [config.u0.build(grid), config.u1.build(grid)]
    mean_u1 = float(np.mean(data[1]))
    with _field_sink(outdir, grid, config.solver.store_fields) as fields:
        # popped from the list: the run holds the only references to the
        # data, and lets them go once it has transformed them
        traj = simulate(data.pop(0), data.pop(0), config.params,
                        config.mu(), config.solver, grid, fields=fields)
        save_run(outdir, config, traj, mean_u1, kind)
    return traj


def cmd_blowup_scan(args) -> int:
    from . import functional
    config, traj = load_run(args.rundir)
    if not len(traj.times):
        raise CoverageError(f"run directory {args.rundir} holds no rows "
                            "(the run ended before its first)")
    if traj.snapshots_u is None:
        raise CoverageError(f"run directory {args.rundir} has no field snapshots; "
                            "re-run with store_fields")
    mu = config.mu()
    p0 = float(critical_exponent(replace(config.params, m=1.0)))
    spec = functional.TestFunctionSpec.for_params(
        config.params, args.R or _default_R_values(traj, args.rundir))
    bound = math.log(1.0 + math.e)
    rows = [(R, I, J, g, G, "ok" if (0.0 <= I < J) and (G <= bound * I * (1.0 + 1e-6) + 1e-12)
             else "violated") for R, I, J, g, G in functional.scan(traj, mu, p0, spec)]
    outdir = args.out or args.rundir
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "functional.csv")
    write_table(path, ["R", "I_R", "J_R", "g", "G", "verdict"], rows)
    for row in rows:
        print("R={:9.4g}  I_R={:12.6g}  J_R={:12.6g}  g={:12.6g}  G={:12.6g}  {}".format(*row))
    print(f"wrote {path}")
    return 0


def _default_R_values(traj: Trajectory, rundir: str) -> list:
    t_hi = float(traj.snapshot_times[-1]) * 0.9
    if t_hi <= 0.0:
        raise CoverageError(f"run directory {rundir}: its field snapshots end at t = 0")
    return list(np.geomspace(t_hi / 10.0, t_hi, 10))


def cmd_check_inequalities(args) -> int:
    for option, value, least in (("--fields", args.fields, 1), ("--kmax", args.kmax, 1),
                                 ("--seed", args.seed, 0)):
        if value < least:
            raise ParameterError(f"{option} must be at least {least}, got {value}")
    from . import norms
    rng = np.random.default_rng(args.seed)
    grid = GridSpec(1, args.N, float(args.L))
    fine = GridSpec(1, 2 * args.N, float(args.L))
    checks = {
        "gagliardo-nirenberg": lambda u, g: norms.check_gagliardo_nirenberg(u, 2, 2, 2, 0.5, 1.0, g),
        "embedding": lambda u, g: norms.check_embedding(u, 0.25, 1.0, g),
        "fractional-powers": lambda u, g: norms.check_fractional_powers(u, 2.5, 1.1, g),
    }
    maxima = {name: [0.0, 0.0] for name in checks}
    for _ in range(args.fields):
        coeffs = mode_coefficients(args.kmax, 1, rng, mean_zero=True)
        for j, g in enumerate((grid, fine)):
            u = synthesize(coeffs, g)
            for name, check in checks.items():
                maxima[name][j] = max(maxima[name][j], check(u, g))
    rows = [(name, coarse, refined, refined / coarse if coarse > 0 else float("nan"))
            for name, (coarse, refined) in maxima.items()]
    print(f"{'check':24s} {'max ratio':>12s} {'refined':>12s} {'growth':>8s}")
    for row in rows:
        print("{:24s} {:12.6g} {:12.6g} {:8.4f}".format(*row))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_table(os.path.join(args.out, "inequalities.csv"),
                    ["check", "max_ratio", "max_ratio_refined", "growth"], rows)
    # a NaN growth (no field gave a nonzero ratio) never sets the exit code
    return 0 if max(0.0, *(row[3] for row in rows)) < 1.5 else 1


def cmd_fit(args) -> int:
    _check_fit_options(args)
    if args.predicted is not None and not -math.inf < args.predicted < math.inf:
        raise ParameterError(f"--predicted must be finite, got {args.predicted}")
    from . import analysis
    header, data = read_norms_csv(args.norms)
    if args.column not in header:
        raise ParameterError(f"{args.norms}: column {args.column!r} not in {header}")
    idx = header.index(args.column)
    series = np.column_stack([data[:, 0], data[:, idx]])
    fit = analysis.fit_decay(series, (args.window_lo, args.window_hi))
    row = [args.norms, args.column, fit.exponent, fit.log_amplitude, fit.residual_rms,
           args.window_lo, args.window_hi, "", "", ""]
    verdict = ""
    if args.predicted is not None:
        cmp = analysis.compare_to_theory(fit, args.predicted, args.tolerance)
        verdict = "PASS" if cmp.passed else "FAIL"
        row[7:] = [args.predicted, args.tolerance, verdict]
    write_table(args.ledger, ["norms", "column", "exponent", "log_amplitude", "residual_rms",
                              "window_lo", "window_hi", "predicted", "tolerance", "verdict"],
                [row], append=True)
    print(f"{args.column}: exponent {fit.exponent:+.5f} "
          f"(residual {fit.residual_rms:.3g}) {verdict}")
    return 0


def _set_by_path(doc: dict, dotted: str, value):
    keys = dotted.split(".")
    node = doc
    for k in keys[:-1]:
        node = node.get(k)
        if not isinstance(node, dict):
            raise ConfigError(f"sweep path {dotted!r}: {k!r} is not a section of the base config")
    node[keys[-1]] = value


# the errors main() reports as exit 2; in a sweep they fail one member only
_USER_ERRORS = (SigmaevoError, OSError)


def _sweep_worker(task) -> dict:
    doc, outdir, label = task
    try:
        config = RunConfig.from_dict(doc)
        traj = run_semilinear(config, outdir, "sweep-member")
    except _USER_ERRORS as exc:
        return {"run_dir": outdir, "status": "error", "error": f"{label}: {exc}"}
    return {
        "run_dir": outdir,
        "status": "ok",
        "error": "",
        "blowup_time": "" if traj.blowup is None else traj.blowup.time,
        "blowup_reason": "" if traj.blowup is None else traj.blowup.reason,
        "rows": len(traj.times),
        # a member that escapes at t = 0 has no rows
        "final_L2_u": traj.column("L2_u")[-1] if len(traj.times) else "",
    }


def cmd_sweep(args) -> int:
    if args.workers < 1:
        raise ParameterError(f"--workers must be at least 1, got {args.workers}")
    doc = _load_json(args.config)
    base, axes = _section(doc, "base", args.config), _section(doc, "sweep", args.config)
    for path, values in axes.items():
        if path.split(".", 1)[0] not in CONFIG_KEYS:
            raise ConfigError(f"sweep path {path!r} does not start with a key of a run config "
                              f"({', '.join(CONFIG_KEYS)})")
        if not (isinstance(values, list) and values):
            raise ConfigError(f"sweep path {path!r} must map to a non-empty list of values")
    keys = sorted(axes)
    outroot = _output_dir(args.out, doc.get("output_dir"), "sweep")

    combos = [()]
    for k in keys:
        combos = [c + (v,) for c in combos for v in axes[k]]
    # a member's config is validated in its worker: an invalid one fails alone
    tasks = []
    for i, combo in enumerate(combos):
        member = copy.deepcopy(base)
        for k, v in zip(keys, combo):
            _set_by_path(member, k, v)
        label = ", ".join(f"{k}={v!r}" for k, v in zip(keys, combo))
        tasks.append((member, os.path.join(outroot, f"member_{i:04d}"), label))
    os.makedirs(outroot, exist_ok=True)

    # no more processes than members or CPUs: a pool forks all of them at once
    workers = min(args.workers, len(tasks), os.cpu_count() or 1)
    if workers == 1:
        results = [_sweep_worker(task) for task in tasks]
    else:
        import concurrent.futures
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))

    summary = os.path.join(outroot, "summary.csv")
    columns = ["run_dir", "status", "error", "blowup_time", "blowup_reason",
               "rows", "final_L2_u"]
    write_table(summary, keys + columns,
                [list(combo) + [res.get(c, "") for c in columns]
                 for combo, res in zip(combos, results)])
    failed = [res for res in results if res["status"] == "error"]
    for res in failed:
        print(f"error: sweep member {res['run_dir']}: {res['error']}", file=sys.stderr)
    print(f"{len(results) - len(failed)} of {len(results)} sweep members complete; "
          f"summary in {summary}")
    return 1 if failed else 0


# -- argument parsing ---------------------------------------------------------

def _params_from_args(args) -> EquationParams:
    if args.config:
        return RunConfig.load(args.config).params
    return EquationParams(sigma=args.sigma, delta=args.delta, m=args.m,
                          n=args.n, p=args.p, target=args.target, r=args.r)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmaevo",
        description="damped sigma-evolution solver and rate-verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    mc = sub.add_parser("mu-classify", help="axiom report, slope bound and "
                                            "tail-criterion verdict for a modulus")
    mc.add_argument("mu", help="modulus key, e.g. hoelder:0.5 or log-power:1")
    mc.add_argument("--c0", type=float, nargs="+", default=[math.e, 10.0, 100.0])
    mc.add_argument("--mode", choices=["analytic", "numeric", "both"], default="both")
    mc.set_defaults(func=cmd_mu_classify)

    rt = sub.add_parser("rates", help="print critical exponents and predicted decay rates")
    rt.add_argument("--config")
    rt.add_argument("--sigma", type=float, default=1.0)
    rt.add_argument("--delta", type=float, default=0.0)
    rt.add_argument("--m", type=float, default=1.0)
    rt.add_argument("--n", type=int, default=1)
    rt.add_argument("--p", type=float, default=2.0)
    rt.add_argument("--r", type=float, default=None)
    rt.add_argument("--target", choices=["on_u", "on_ut"], default="on_u")
    rt.set_defaults(func=cmd_rates)

    ld = sub.add_parser("linear-decay", help="exact linear run + decay fit + verdict")
    ld.add_argument("--config", required=True)
    ld.add_argument("--out")
    ld.add_argument("--window-lo", type=float, default=None)
    ld.add_argument("--window-hi", type=float, default=None)
    ld.add_argument("--tolerance", type=float, default=0.05)
    ld.set_defaults(func=cmd_linear_decay)

    se = sub.add_parser("semilinear", help="full semilinear run with artifacts")
    se.add_argument("--config", required=True)
    se.add_argument("--out")
    se.set_defaults(func=cmd_semilinear)

    bs = sub.add_parser("blowup-scan", help="test-function functionals over an R sweep")
    bs.add_argument("rundir", help="run directory with field snapshots")
    bs.add_argument("--out")
    bs.add_argument("--R", type=float, nargs="+")
    bs.set_defaults(func=cmd_blowup_scan)

    ci = sub.add_parser("check-inequalities", help="empirical norm-inequality suite "
                                                   "over seeded random fields")
    ci.add_argument("--seed", type=int, default=0)
    ci.add_argument("--fields", type=int, default=100)
    ci.add_argument("--N", type=int, default=256)
    ci.add_argument("--L", type=float, default=1.0)
    ci.add_argument("--kmax", type=int, default=32)
    ci.add_argument("--out")
    ci.set_defaults(func=cmd_check_inequalities)

    ft = sub.add_parser("fit", help="fit one norms.csv column, append to a ledger")
    ft.add_argument("norms")
    ft.add_argument("column")
    ft.add_argument("--window-lo", type=float, required=True)
    ft.add_argument("--window-hi", type=float, required=True)
    ft.add_argument("--predicted", type=float)
    ft.add_argument("--tolerance", type=float, default=0.05)
    ft.add_argument("--ledger", default="fits.csv")
    ft.set_defaults(func=cmd_fit)

    sw = sub.add_parser("sweep", help="cartesian parameter sweep, one run dir per member")
    sw.add_argument("--config", required=True)
    sw.add_argument("--out")
    sw.add_argument("--workers", type=int, default=1)
    sw.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
