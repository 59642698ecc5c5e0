"""The benchmark's workloads: seeded run configs, CLI jobs and output checks.

Every workload is a closed loop of CLI jobs on one generated config.  The
default seed reproduces the documented parameters exactly; any other seed
jitters the Gaussian data (amplitude, width, centre) inside ranges that keep
the workload in its regime: no blow-up, a usable fit window, and snapshot
coverage for every R of the scan.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Relative tolerance of the reference comparison: far above floating-point
# reordering (about 1e-15) and far below any change to the model.
RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    params: dict
    mu: str
    grid: dict
    solver: dict
    u0: dict                      # Gaussian (amplitude, width) of u0
    u1: dict                      # Gaussian (amplitude, width) of u1, or {} for zero
    jitter: dict                  # data-jitter ranges for non-default seeds
    commands: tuple               # CLI argv templates; {cfg} and {run} are filled in
    quick: dict = field(default_factory=dict)   # grid/solver overrides for --quick

    @property
    def solver_command(self) -> str:
        return self.commands[0][0]

    def n_rows(self, config: dict) -> int:
        """Rows of norms.csv: one per ``snapshot_stride`` steps, plus t = 0."""
        s = config["solver"]
        return int(round(s["t_end"] / s["dt"])) // s["snapshot_stride"] + 1

    def n_time_levels(self, config: dict) -> int:
        """Time steps of ``semilinear`` or exact samples of ``linear-decay``."""
        if self.solver_command == "linear-decay":
            return self.n_rows(config)
        s = config["solver"]
        return int(round(s["t_end"] / s["dt"]))

    def config(self, seed: int, quick: bool = False) -> dict:
        """The run config JSON for one seed; the only input the program gets."""
        rng = random.Random(seed)
        jit = self.jitter if seed != DEFAULT_SEED else {}

        def gaussian(base):
            if not base:
                return {"family": "zero"}
            amp = base["amplitude"] * (rng.uniform(*jit["amplitude"]) if jit else 1.0)
            width = base["width"] * (rng.uniform(*jit["width"]) if jit else 1.0)
            center = rng.uniform(*jit["center"]) if jit else 0.0
            return {"family": "gaussian", "amplitude": amp, "width": width,
                    "center": center}

        solver = {"dealias_fraction": 2.0 / 3.0, "blowup_threshold": None, **self.solver}
        grid = dict(self.grid)
        if quick:
            grid.update(self.quick.get("grid", {}))
            solver.update(self.quick.get("solver", {}))
        return {"params": self.params, "mu": self.mu, "grid": grid, "solver": solver,
                "data": {"u0": gaussian(self.u0), "u1": gaussian(self.u1)}}


WORKLOADS = {w.name: w for w in (
    Workload(
        name="semilinear-2d",
        why="time-stepping hot path: FFT pair, multiplier apply and |w|^p on 2D 256^2",
        params={"sigma": 2.0, "delta": 0.0, "m": 1.0, "n": 2, "p": 3.0,
                "target": "on_u", "r": 1.5},
        mu="hoelder:0.5",
        grid={"n": 2, "N": 256, "L": 40.0},
        solver={"dt": 0.05, "t_end": 15.0, "snapshot_stride": 10, "store_fields": False},
        u0={"amplitude": 0.1, "width": 2.0},
        u1={"amplitude": 0.1, "width": 2.0},
        jitter={"amplitude": (0.8, 1.2), "width": (0.8, 1.2), "center": (-1.0, 1.0)},
        commands=(("semilinear", "--config", "{cfg}", "--out", "{run}"),),
        quick={"grid": {"N": 32}, "solver": {"t_end": 1.0}},
    ),
    Workload(
        name="scan-1d",
        why="1D on_ut stepping with the costly log-log-lip modulus, then the "
            "post-processing path: field snapshots written and read, blowup-scan functionals",
        params={"sigma": 2.0, "delta": 1.0, "m": 1.0, "n": 1, "p": 3.0,
                "target": "on_ut", "r": 3.0},
        mu="log-log-lip:2",
        grid={"n": 1, "N": 4096, "L": 200.0},
        solver={"dt": 0.05, "t_end": 50.0, "snapshot_stride": 10, "store_fields": True},
        u0={"amplitude": 0.01, "width": 1.0},
        u1={"amplitude": 0.01, "width": 1.0},
        jitter={"amplitude": (0.8, 1.2), "width": (0.8, 1.2), "center": (-2.0, 2.0)},
        commands=(("semilinear", "--config", "{cfg}", "--out", "{run}"),
                  ("blowup-scan", "{run}")),
        quick={"grid": {"N": 256}, "solver": {"t_end": 5.0}},
    ),
    Workload(
        name="linear-2d",
        why="exact-propagator path: Propagator.build per sample and norm rows; "
            "no nonlinearity, modulus or functionals",
        params={"sigma": 1.0, "delta": 0.0, "m": 1.0, "n": 2, "p": 2.0,
                "target": "on_u", "r": None},
        mu="hoelder:0.5",
        grid={"n": 2, "N": 256, "L": 40.0},
        solver={"dt": 0.05, "t_end": 60.0, "snapshot_stride": 4, "store_fields": False},
        u0={"amplitude": 0.01, "width": 1.0},
        u1={},
        jitter={"amplitude": (0.8, 1.2), "width": (0.8, 1.2), "center": (-1.0, 1.0)},
        commands=(("linear-decay", "--config", "{cfg}", "--out", "{run}",
                   "--window-lo", "10", "--window-hi", "30"),),
        quick={"grid": {"N": 64}},
    ),
)}


def argv(command: tuple, cfg: str, run: str) -> list:
    return [a.format(cfg=cfg, run=run) for a in command]


# -- output checks -----------------------------------------------------------

def _read_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _close(a: float, b: float, scale: float) -> bool:
    """Equal to RTOL relative, with values far below ``scale`` (the largest
    magnitude of their column) held to RTOL of a thousandth of it."""
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-3 * scale)


def summarize_outputs(workload: Workload, run: str) -> dict:
    """The outputs the reference pins, read back from a run directory."""
    norms = _read_csv(os.path.join(run, "norms.csv"))
    with open(os.path.join(run, "manifest.json")) as fh:
        manifest = json.load(fh)
    out = {"rows": len(norms) - 1, "final_row": [float(v) for v in norms[-1]],
           "blowup": manifest["blowup"]}
    if workload.name == "scan-1d":
        rows = _read_csv(os.path.join(run, "functional.csv"))[1:]
        out["functional"] = [[float(v) for v in r[:5]] + [r[5]] for r in rows]
        out["field_files"] = len(os.listdir(os.path.join(run, "fields")))
    if workload.name == "linear-2d":
        fit = _read_csv(os.path.join(run, "fit.csv"))[1]
        out["fit"] = {"exponent": float(fit[1]), "window": [float(fit[4]), float(fit[5])],
                      "passed": fit[7] == "True"}
    return out


def check_outputs(workload: Workload, config: dict, run: str,
                  reference: dict | None) -> list:
    """Problems with one job's outputs; an empty list means correct.

    Invariants that hold for any seed are always checked; ``reference`` (the
    stored default-seed outputs) is compared when given.
    """
    got = summarize_outputs(workload, run)
    errors = []
    if got["rows"] != workload.n_rows(config):
        errors.append(f"norms.csv has {got['rows']} rows, expected {workload.n_rows(config)}")
    if got["blowup"] is not None:
        errors.append(f"unexpected blow-up {got['blowup']}")
    norms = _read_csv(os.path.join(run, "norms.csv"))[1:]
    if not all(math.isfinite(float(v)) for row in norms for v in row):
        errors.append("norms.csv holds non-finite values")
    if workload.name == "scan-1d":
        expected_files = 2 * got["rows"]
        if got["field_files"] != expected_files:
            errors.append(f"{got['field_files']} field files, expected {expected_files}")
        if len(got["functional"]) != 10:
            errors.append(f"functional.csv has {len(got['functional'])} rows, expected 10")
        if any(r[5] not in ("ok", "violated") for r in got["functional"]):
            errors.append("functional.csv verdicts outside {ok, violated}")
        if not all(math.isfinite(v) for r in got["functional"] for v in r[:5]):
            errors.append("functional.csv holds non-finite values")
    if workload.name == "linear-2d":
        fit = got["fit"]
        if not math.isfinite(fit["exponent"]) or not fit["passed"]:
            errors.append(f"decay fit did not pass: {fit}")
        if fit["window"] != [10.0, 30.0]:
            errors.append(f"fit window {fit['window']}, expected [10, 30]")
    if reference is not None:
        errors += compare_reference(got, reference)
    return errors


def compare_reference(got: dict, ref: dict) -> list:
    errors = []
    for key in ("rows", "blowup", "field_files"):
        if key in ref and got.get(key) != ref[key]:
            errors.append(f"{key}: {got.get(key)!r} != reference {ref[key]!r}")
    # each entry of the row is a different quantity: compare each on its own
    if not all(_close(a, b, 0.0) for a, b in zip(got["final_row"], ref["final_row"])):
        errors.append(f"final norms row {got['final_row']} != reference {ref['final_row']}")
    if "functional" in ref:
        cols = list(zip(*[r[:5] for r in ref["functional"]]))
        scales = [max(abs(v) for v in c) for c in cols]
        for g, r in zip(got["functional"], ref["functional"]):
            if g[5] != r[5] or not all(_close(a, b, s) for a, b, s in zip(g[:5], r[:5], scales)):
                errors.append(f"functional row {g} != reference {r}")
    if "fit" in ref:
        g, r = got["fit"], ref["fit"]
        if g["passed"] != r["passed"] or not _close(g["exponent"], r["exponent"], 0.0):
            errors.append(f"fit {g} != reference {r}")
    return errors
