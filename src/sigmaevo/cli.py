"""Experiment runner: configuration, run persistence, and standard suites.

A run is described by one JSON document (diff-able, round-trips losslessly)
and produces a run directory holding the exact config used (manifest.json),
norms.csv, and optional binary field snapshots.  Numerical blow-up is a
recorded verdict, never a process failure; validation problems exit nonzero
with the violated constraint named.
"""
from __future__ import annotations

import argparse
import concurrent.futures
import copy
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, replace
from typing import Optional

import numpy as np

from . import __version__
from . import analysis, functional, norms
from .errors import ConfigError, CoverageError, ParameterError, SigmaevoError
from .modulus import ModulusSpec, check_derivative_bound, check_modulus_axioms, \
    classify_integral_criterion
from .params import (EquationParams, check_admissibility, critical_exponent,
                     predict_linear_rate, predict_theorem_rates)
from .solver import (NORM_COLUMNS, SolverConfig, Trajectory, simulate,
                     simulate_linear)
from .spectral import (GridSpec, mode_coefficients, read_field, synthesize,
                       wrap_time, write_field)

OUTPUT_ROOT_ENV = "SIGMAEVO_OUT"


# -- initial data ------------------------------------------------------------

@dataclass(frozen=True)
class DataSpec:
    """Initial-datum descriptor: zero | gaussian | cosine-bump | from-file."""

    family: str = "zero"
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    path: Optional[str] = None

    def __post_init__(self):
        if self.family not in ("zero", "gaussian", "cosine-bump", "from-file"):
            raise ConfigError(f"unknown data family {self.family!r}")
        if self.family in ("gaussian", "cosine-bump") and self.width <= 0:
            raise ConfigError("data width must be positive")
        if self.family == "from-file" and not self.path:
            raise ConfigError("from-file data needs a path")

    def build(self, grid: GridSpec) -> np.ndarray:
        if self.family == "zero":
            return np.zeros(grid.shape)
        if self.family == "from-file":
            arr, g, _ = read_field(self.path)
            if g != grid:
                raise ConfigError(f"field file grid {g} does not match run grid {grid}")
            return arr
        r = np.sqrt(sum((c - self.center) ** 2 for c in grid.coords()))
        if self.family == "gaussian":
            return self.amplitude * np.exp(-((r / self.width) ** 2))
        bump = np.where(r < self.width,
                        np.cos(0.5 * np.pi * np.minimum(r / self.width, 1.0)) ** 2, 0.0)
        return self.amplitude * bump


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
        (every data family is deterministic)."""
        try:
            params = EquationParams(**doc["params"])
            grid = GridSpec(**doc["grid"])
            solver = SolverConfig(**doc["solver"])
            u0 = DataSpec(**doc["data"]["u0"])
            u1 = DataSpec(**doc["data"]["u1"])
            mu_key = doc["mu"]
            ModulusSpec.from_key(mu_key)  # validate early
        except KeyError as exc:
            raise ConfigError(f"config missing required key: {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc
        return cls(params=params, mu_key=mu_key, grid=grid, solver=solver,
                   u0=u0, u1=u1, output_dir=doc.get("output_dir"))

    @classmethod
    def load(cls, path: str) -> "RunConfig":
        return cls.from_dict(_load_json(path))


def _load_json(path: str, kind: str = "config") -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {kind} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{kind} {path} is not valid JSON: {exc}") from exc


def _dataspec_dict(d: DataSpec) -> dict:
    out = {"family": d.family}
    if d.family in ("gaussian", "cosine-bump"):
        out.update(amplitude=d.amplitude, width=d.width, center=d.center)
    if d.family == "from-file":
        out["path"] = d.path
    return out


# -- run persistence -----------------------------------------------------------

def write_norms_csv(path: str, traj: Trajectory):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("t",) + NORM_COLUMNS)
        for t, row in zip(traj.times, traj.norms):
            writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def read_norms_csv(path: str):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    # shape (0, ncols) when the run ended before its first row
    data = np.array([[float(v) for v in row] for row in body]).reshape(len(body), len(header))
    return header, data


def save_run(outdir: str, config: RunConfig, traj: Trajectory,
             extra_manifest: Optional[dict] = None):
    os.makedirs(outdir, exist_ok=True)
    mean_u1 = float(np.mean(config.u1.build(config.grid)))
    manifest = {
        "version": __version__,
        "config": config.to_dict(),
        "mean_u1": mean_u1,
        "u1_mean_positive": mean_u1 > 0,
        "blowup": None if traj.blowup is None else
                  {"time": traj.blowup.time, "reason": traj.blowup.reason},
        "blowup_threshold": traj.blowup_threshold,
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    write_norms_csv(os.path.join(outdir, "norms.csv"), traj)
    if traj.snapshots_u is not None:
        fdir = os.path.join(outdir, "fields")
        os.makedirs(fdir, exist_ok=True)
        for i, t in enumerate(traj.snapshot_times):
            write_field(os.path.join(fdir, f"u_{i:06d}.bin"),
                        traj.snapshots_u[i], config.grid, float(t))
            write_field(os.path.join(fdir, f"ut_{i:06d}.bin"),
                        traj.snapshots_ut[i], config.grid, float(t))


def load_run(outdir: str) -> tuple:
    """(config, trajectory) reconstructed from a run directory."""
    manifest = _load_json(os.path.join(outdir, "manifest.json"), "run manifest")
    config = RunConfig.from_dict(manifest["config"])
    _, data = read_norms_csv(os.path.join(outdir, "norms.csv"))
    blowup = None
    if manifest.get("blowup"):
        from .solver import BlowUp
        blowup = BlowUp(manifest["blowup"]["time"], manifest["blowup"]["reason"])
    traj = Trajectory(times=data[:, 0], norms=data[:, 1:], grid=config.grid,
                      params=config.params, blowup=blowup,
                      blowup_threshold=manifest.get("blowup_threshold"))
    fdir = os.path.join(outdir, "fields")
    if os.path.isdir(fdir):
        us = sorted(f for f in os.listdir(fdir) if f.startswith("u_"))
        snaps_u, snaps_ut, snap_t = [], [], []
        for name in us:
            u, _, t = read_field(os.path.join(fdir, name))
            ut, _, _ = read_field(os.path.join(fdir, name.replace("u_", "ut_")))
            snaps_u.append(u)
            snaps_ut.append(ut)
            snap_t.append(t)
        traj.snapshot_times = np.asarray(snap_t)
        traj.snapshots_u = np.asarray(snaps_u)
        traj.snapshots_ut = np.asarray(snaps_ut)
    return config, traj


def _resolve_outdir(config: RunConfig, override: Optional[str]) -> str:
    out = override or config.output_dir
    if out is None:
        root = os.environ.get(OUTPUT_ROOT_ENV, "runs")
        out = os.path.join(root, "run")
    return out


# -- subcommand implementations ---------------------------------------------------

def cmd_mu_classify(args) -> int:
    mu = ModulusSpec.from_key(args.mu)
    report = check_modulus_axioms(mu)
    sup = check_derivative_bound(mu)
    print(f"modulus {args.mu}")
    print(f"  axioms: zero_at_zero={report.zero_at_zero} nondecreasing={report.nondecreasing} "
          f"midpoint_concave={report.midpoint_concave} finite={report.finite_nonnegative}")
    print(f"  slope-bound supremum s*mu'/mu: {sup:.6g}")
    verdicts = [classify_integral_criterion(mu, c0, args.mode).verdict for c0 in args.c0]
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


def _expected_linear_exponent(config: RunConfig) -> float:
    """Dominant predicted L2 exponent given which data are present."""
    e0, e1 = predict_linear_rate(config.params, 0.0, 0)
    has_u0 = config.u0.family != "zero" and config.u0.amplitude != 0 or config.u0.family == "from-file"
    has_u1 = config.u1.family != "zero" and config.u1.amplitude != 0 or config.u1.family == "from-file"
    if has_u0 and not has_u1:
        return float(e0)
    if has_u1 and not has_u0:
        return float(e1)
    return float(max(e0, e1))


def _fit_window(config: RunConfig, u0: np.ndarray, u1: np.ndarray,
                override: Optional[tuple]) -> tuple:
    if override is not None:
        return override
    spectrum = np.abs(config.grid.fft(u0)) + np.abs(config.grid.fft(u1))
    support = 4.0 * max(config.u0.width if config.u0.family != "zero" else 0.0,
                        config.u1.width if config.u1.family != "zero" else 0.0, 1.0)
    tw = wrap_time(config.grid, config.params.sigma, config.params.delta,
                   spectrum, support)
    return analysis.default_fit_window(config.solver.t_end, tw)


def cmd_linear_decay(args) -> int:
    config = RunConfig.load(args.config)
    outdir = _resolve_outdir(config, args.out)
    u0 = config.u0.build(config.grid)
    u1 = config.u1.build(config.grid)
    stride_dt = config.solver.dt * config.solver.snapshot_stride
    times = np.arange(0.0, config.solver.t_end + 0.5 * stride_dt, stride_dt)
    traj = simulate_linear(u0, u1, config.params, times, config.grid,
                           store_fields=config.solver.store_fields)
    window = _fit_window(config, u0, u1, (args.window_lo, args.window_hi)
                         if args.window_lo is not None else None)
    fit = analysis.fit_decay(traj.series("L2_u"), window)
    predicted = _expected_linear_exponent(config)
    verdict = analysis.compare_to_theory(fit, predicted, args.tolerance)
    save_run(outdir, config, traj, {"kind": "linear-decay"})
    with open(os.path.join(outdir, "fit.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["column", "exponent", "predicted", "tolerance",
                         "window_lo", "window_hi", "residual_rms", "passed"])
        writer.writerow(["L2_u", repr(fit.exponent), repr(predicted), repr(args.tolerance),
                         repr(window[0]), repr(window[1]), repr(fit.residual_rms),
                         verdict.passed])
    print(f"fitted L2 exponent {fit.exponent:+.4f} vs predicted {predicted:+.4f} "
          f"on t in [{window[0]:g}, {window[1]:g}]: "
          f"{'PASS' if verdict.passed else 'FAIL'} (margin {verdict.margin:+.4f})")
    print(f"artifacts in {outdir}")
    return 0


def cmd_semilinear(args) -> int:
    config = RunConfig.load(args.config)
    outdir = _resolve_outdir(config, args.out)
    traj = run_semilinear(config)
    save_run(outdir, config, traj, {"kind": "semilinear"})
    if traj.blowup is not None:
        print(f"blow-up at t = {traj.blowup.time:g} ({traj.blowup.reason}); "
              "verdict recorded")
    else:
        print(f"reached t = {traj.times[-1]:g} with no blow-up")
    print(f"artifacts in {outdir}")
    return 0


def run_semilinear(config: RunConfig) -> Trajectory:
    u0 = config.u0.build(config.grid)
    u1 = config.u1.build(config.grid)
    return simulate(u0, u1, config.params, config.mu(), config.solver, config.grid)


def cmd_blowup_scan(args) -> int:
    config, traj = load_run(args.rundir)
    if not len(traj.times):
        print(f"run directory {args.rundir} holds no rows (the run ended before its first)",
              file=sys.stderr)
        return 2
    if traj.snapshots_u is None:
        print("run directory has no field snapshots; re-run with store_fields", file=sys.stderr)
        return 2
    params = config.params
    mu = config.mu()
    p0 = float(critical_exponent(replace(params, m=1.0)))
    R_values = args.R or _default_R_values(traj, args.rundir)
    spec = functional.TestFunctionSpec.for_params(params, R_values)
    out_rows = []
    bound = math.log(1.0 + math.e)
    for (R, I, J, g, G) in functional.scan(traj, mu, p0, spec, R_values, params):
        ok = (0.0 <= I < J) and (G <= bound * I * (1.0 + 1e-6) + 1e-12)
        out_rows.append((R, I, J, g, G, "ok" if ok else "violated"))
    outdir = args.out or args.rundir
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "functional.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["R", "I_R", "J_R", "g", "G", "verdict"])
        for row in out_rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    for row in out_rows:
        print(f"R={row[0]:9.4g}  I_R={row[1]:12.6g}  J_R={row[2]:12.6g}  "
              f"g={row[3]:12.6g}  G={row[4]:12.6g}  {row[5]}")
    print(f"wrote {path}")
    return 0


def _default_R_values(traj: Trajectory, rundir: str, count: int = 10) -> list:
    t_hi = float(traj.snapshot_times[-1]) * 0.9
    if t_hi <= 0.0:
        raise CoverageError(f"run directory {rundir}: its field snapshots end at t = 0")
    return list(np.geomspace(t_hi / 10.0, t_hi, count))


def cmd_check_inequalities(args) -> int:
    if args.fields < 1:
        raise ParameterError(f"--fields must be at least 1, got {args.fields}")
    rng = np.random.default_rng(args.seed)
    grid = GridSpec(1, args.N, float(args.L))
    fine = GridSpec(1, 2 * args.N, float(args.L))
    maxima = {"gagliardo-nirenberg": [0.0, 0.0], "embedding": [0.0, 0.0],
              "fractional-powers": [0.0, 0.0]}
    for _ in range(args.fields):
        coeffs = mode_coefficients(args.kmax, 1, rng, mean_zero=True)
        for j, g in enumerate((grid, fine)):
            u = synthesize(coeffs, g)
            maxima["gagliardo-nirenberg"][j] = max(
                maxima["gagliardo-nirenberg"][j],
                norms.check_gagliardo_nirenberg(u, 2, 2, 2, 0.5, 1.0, g))
            maxima["embedding"][j] = max(
                maxima["embedding"][j], norms.check_embedding(u, 0.25, 1.0, g))
            maxima["fractional-powers"][j] = max(
                maxima["fractional-powers"][j],
                norms.check_fractional_powers(u, 2.5, 1.1, g))
    print(f"{'check':24s} {'max ratio':>12s} {'refined':>12s} {'growth':>8s}")
    worst = 0.0
    for name, (coarse, refined) in maxima.items():
        growth = refined / coarse if coarse > 0 else float("nan")
        worst = max(worst, growth)
        print(f"{name:24s} {coarse:12.6g} {refined:12.6g} {growth:8.4f}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with open(os.path.join(args.out, "inequalities.csv"), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["check", "max_ratio", "max_ratio_refined", "growth"])
            for name, (coarse, refined) in maxima.items():
                writer.writerow([name, repr(coarse), repr(refined),
                                 repr(refined / coarse if coarse else float("nan"))])
    return 0 if worst < 1.5 else 1


def cmd_fit(args) -> int:
    header, data = read_norms_csv(args.norms)
    if args.column not in header:
        print(f"column {args.column!r} not in {header}", file=sys.stderr)
        return 2
    idx = header.index(args.column)
    series = np.column_stack([data[:, 0], data[:, idx]])
    fit = analysis.fit_decay(series, (args.window_lo, args.window_hi))
    line = [args.norms, args.column, repr(fit.exponent), repr(fit.log_amplitude),
            repr(fit.residual_rms), repr(args.window_lo), repr(args.window_hi)]
    verdict = ""
    if args.predicted is not None:
        cmp = analysis.compare_to_theory(fit, args.predicted, args.tolerance)
        verdict = "PASS" if cmp.passed else "FAIL"
        line += [repr(args.predicted), repr(args.tolerance), verdict]
    new = not os.path.exists(args.ledger)
    with open(args.ledger, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
            writer.writerow(["norms", "column", "exponent", "log_amplitude",
                             "residual_rms", "window_lo", "window_hi",
                             "predicted", "tolerance", "verdict"])
        writer.writerow(line + [""] * (10 - len(line)))
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
_USER_ERRORS = (SigmaevoError, OSError, KeyError, json.JSONDecodeError)


def _error_message(exc: BaseException) -> str:
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def _sweep_worker(task) -> dict:
    doc, outdir, label = task
    try:
        config = RunConfig.from_dict(doc)
        traj = run_semilinear(config)
        save_run(outdir, config, traj, {"kind": "sweep-member"})
    except _USER_ERRORS as exc:
        return {"run_dir": outdir, "status": "error", "error": f"{label}: {_error_message(exc)}"}
    return {
        "run_dir": outdir,
        "status": "ok",
        "error": "",
        "blowup_time": "" if traj.blowup is None else repr(traj.blowup.time),
        "blowup_reason": "" if traj.blowup is None else traj.blowup.reason,
        "rows": len(traj.times),
        # a member that escapes at t = 0 has no rows
        "final_L2_u": repr(float(traj.column("L2_u")[-1])) if len(traj.times) else "",
    }


def cmd_sweep(args) -> int:
    doc = _load_json(args.config)
    if "base" not in doc or "sweep" not in doc:
        print("sweep config needs 'base' (a run config) and 'sweep' "
              "(dotted-path -> list of values)", file=sys.stderr)
        return 2
    base, axes = doc["base"], doc["sweep"]
    keys = sorted(axes)
    outroot = args.out or doc.get("output_dir") or \
        os.path.join(os.environ.get(OUTPUT_ROOT_ENV, "runs"), "sweep")
    os.makedirs(outroot, exist_ok=True)

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

    if args.workers <= 1:
        results = [_sweep_worker(task) for task in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    results = list(zip(combos, results))

    summary = os.path.join(outroot, "summary.csv")
    columns = ["run_dir", "status", "error", "blowup_time", "blowup_reason",
               "rows", "final_L2_u"]
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(list(keys) + columns)
        for combo, res in results:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in combo]
                            + [res.get(c, "") for c in columns])
    failed = [res for _, res in results if res["status"] == "error"]
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
        print(f"error: {_error_message(exc)}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
