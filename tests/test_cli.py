import concurrent.futures
import csv
import json
import math
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

import sigmaevo
from sigmaevo import cli
from sigmaevo.cli import (DataSpec, RunConfig, load_run, main, read_norms_csv,
                          run_semilinear, save_run, write_norms_csv)
from sigmaevo.errors import ConfigError, ParameterError
from sigmaevo.functional import TestFunctionSpec, phi_R
from sigmaevo.modulus import classify_integral_criterion
from sigmaevo.params import predict_linear_rate
from sigmaevo.solver import simulate, simulate_linear
from sigmaevo.spectral import GridSpec, read_field, write_field


def tree_bytes(root):
    """Every file under root, by relative path, with its bytes; and every
    directory, mapped to None."""
    out = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            out[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def small_config_doc(tmp_path, **overrides):
    doc = {
        "params": {"sigma": 1, "delta": 0, "m": 1, "n": 1, "p": 3,
                   "target": "on_u", "r": 1},
        "mu": "hoelder:0.5",
        "grid": {"n": 1, "N": 256, "L": 30.0},
        "solver": {"dt": 0.05, "t_end": 5.0, "dealias_fraction": 2 / 3,
                   "blowup_threshold": None, "snapshot_stride": 4,
                   "store_fields": False},
        "data": {"u0": {"family": "gaussian", "amplitude": 0.01,
                        "width": 1.0, "center": 0.0},
                 "u1": {"family": "zero"}},
        "seed": 0,
        "output_dir": str(tmp_path / "run"),
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, name="config.json", **overrides):
    doc = small_config_doc(tmp_path, **overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path, doc


def mean_u1(config):
    """The mean of config's u1, as the commands hand it to save_run."""
    return float(np.mean(config.u1.build(config.grid)))


def in_memory_run(config):
    """The semilinear run of config held in memory: simulate on the config's
    data, the snapshots (with store_fields) in solver.SnapshotStacks."""
    grid = config.grid
    return simulate(config.u0.build(grid), config.u1.build(grid), config.params,
                    config.mu(), config.solver, grid)


def save_in_memory_run(outdir, config, traj, kind):
    """The run directory of an in-memory trajectory: save_run's manifest and
    norms, and each row's snapshots written by spectral.write_field under
    the names the commands stream them to."""
    save_run(outdir, config, traj, mean_u1(config), kind)
    if traj.snapshots_u is not None:
        os.mkdir(os.path.join(outdir, "fields"))
        for i, t in enumerate(traj.times.tolist()):
            for name, stack in (("u", traj.snapshots_u), ("ut", traj.snapshots_ut)):
                write_field(os.path.join(outdir, "fields", f"{name}_{i:06d}.bin"), stack[i],
                            config.grid, t)


def stack_rows(stack):
    """Every row of a snapshot stack (an array, or a loaded run's
    cli.FieldStack, which reads one integer row at a time) as one array."""
    return np.array([stack[i] for i in range(len(stack))])


class TestDataSpec:
    def test_gaussian(self):
        from sigmaevo.spectral import GridSpec
        g = GridSpec(1, 256, 10.0)
        u = DataSpec("gaussian", amplitude=2.0, width=1.5, center=1.0).build(g)
        x = g.axis()
        assert u == pytest.approx(2.0 * np.exp(-(((x - 1.0) / 1.5) ** 2)))

    def test_cosine_bump_compact_support(self):
        from sigmaevo.spectral import GridSpec
        g = GridSpec(1, 512, 10.0)
        u = DataSpec("cosine-bump", amplitude=1.0, width=2.0).build(g)
        x = g.axis()
        assert np.all(u[np.abs(x) >= 2.0] == 0.0)
        assert np.max(u) == pytest.approx(1.0, abs=1e-3)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            DataSpec("wavelet")

    @staticmethod
    def meshgrid_build(spec, grid):
        """The profiles as build once formed them: |x - c| from meshgrid
        copies of the coordinates, each step a fresh array."""
        coords = np.meshgrid(*[grid.axis()] * grid.n, indexing="ij")
        r = np.sqrt(sum((c - spec.center) ** 2 for c in coords))
        if spec.family == "gaussian":
            return spec.amplitude * np.exp(-((r / spec.width) ** 2))
        bump = np.where(r < spec.width,
                        np.cos(0.5 * np.pi * np.minimum(r / spec.width, 1.0)) ** 2, 0.0)
        return spec.amplitude * bump

    @pytest.mark.parametrize("family", ["gaussian", "cosine-bump"])
    @pytest.mark.parametrize("center,width", [(0.7, 1.5), (-1.3, 3.0)])
    @pytest.mark.parametrize("n,N,L", [(1, 256, 20.0), (2, 64, 10.0), (3, 16, 8.0)])
    def test_build_matches_the_meshgrid_formula(self, family, center, width, n, N, L):
        from sigmaevo.spectral import GridSpec
        g = GridSpec(n, N, L)
        spec = DataSpec(family, amplitude=-0.3, width=width, center=center)
        u = spec.build(g)
        assert u.shape == g.shape and u.dtype == np.float64
        assert u.tobytes() == self.meshgrid_build(spec, g).tobytes()
        if family == "cosine-bump":
            assert 0 < np.count_nonzero(u) < u.size


class TestRunConfig:
    def test_roundtrip_lossless(self, tmp_path):
        _, doc = write_config(tmp_path)
        config = RunConfig.from_dict(doc)
        again = RunConfig.from_dict(config.to_dict())
        assert config.to_dict() == again.to_dict()

    def test_legacy_seed_key_ignored(self, tmp_path):
        doc = small_config_doc(tmp_path, seed=7)
        config = RunConfig.from_dict(doc)
        assert not hasattr(config, "seed")
        assert "seed" not in config.to_dict()

    def test_to_dict_layout(self, tmp_path):
        out = RunConfig.from_dict(small_config_doc(tmp_path, params={
            "sigma": 2, "delta": 1, "m": 1, "n": 1, "p": 3, "target": "on_ut"})).to_dict()
        assert list(out) == ["params", "mu", "grid", "solver", "data", "output_dir"]
        assert list(out["params"]) == ["sigma", "delta", "m", "n", "p", "target", "r"]
        assert list(out["grid"]) == ["n", "N", "L"]
        assert list(out["solver"]) == ["dt", "t_end", "dealias_fraction", "blowup_threshold",
                                       "snapshot_stride", "store_fields"]
        assert out["params"]["r"] == 2.0
        assert '"target": "on_ut"' in json.dumps(out)

    def test_missing_key_named(self, tmp_path):
        doc = small_config_doc(tmp_path)
        del doc["params"]
        with pytest.raises(ConfigError, match="params"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("key", ["muu", "solvers", "Seed"])
    def test_unknown_key_named(self, tmp_path, key):
        # an unknown key was once ignored, so a misspelt one ran the defaults
        doc = small_config_doc(tmp_path, **{key: 1})
        with pytest.raises(ConfigError, match=f"unknown key\\(s\\) '{key}'"):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("command", ["semilinear", "linear-decay"])
    def test_params_n_must_match_grid_n(self, tmp_path, capsys, command):
        # a 3D params.n on a 1D grid once ran the numerics in 1D and the
        # window warning, rates and predicted exponent in 3D
        doc = small_config_doc(tmp_path)
        doc["params"]["n"] = 3
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--config", str(path)]) == 2
        assert "params.n = 3 does not match grid.n = 1" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_invalid_parameter_propagates(self, tmp_path):
        doc = small_config_doc(tmp_path)
        doc["params"]["delta"] = 3.0
        with pytest.raises(ConfigError, match="delta"):
            RunConfig.from_dict(doc)


class TestPersistence:
    def test_save_and_load_run(self, tmp_path):
        path, doc = write_config(tmp_path, solver={
            "dt": 0.05, "t_end": 2.0, "dealias_fraction": 2 / 3,
            "blowup_threshold": None, "snapshot_stride": 4, "store_fields": True})
        config = RunConfig.load(path)
        traj = in_memory_run(config)
        outdir = tmp_path / "saved"
        assert main(["semilinear", "--config", str(path), "--out", str(outdir)]) == 0
        config2, traj2 = load_run(outdir)
        assert config2.to_dict() == config.to_dict()
        assert np.array_equal(traj2.times, traj.times)
        assert traj2.norms == pytest.approx(traj.norms, rel=1e-15)
        assert np.array_equal(stack_rows(traj2.snapshots_u), traj.snapshots_u)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "u1_mean_positive" in manifest

    def test_loaded_snapshots_are_the_rows(self, tmp_path):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        traj = in_memory_run(RunConfig.load(path))
        assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "saved")]) == 0
        _, loaded = load_run(tmp_path / "saved")
        assert traj.snapshot_times is traj.times and loaded.snapshot_times is loaded.times
        assert np.array_equal(loaded.times, traj.times)
        assert np.array_equal(stack_rows(loaded.snapshots_u), traj.snapshots_u)
        assert np.array_equal(stack_rows(loaded.snapshots_ut), traj.snapshots_ut)

    @pytest.mark.parametrize("params", [
        {"sigma": 1, "delta": 0, "m": 1, "n": 1, "p": 3, "target": "on_u", "r": 1},
        {"sigma": 2, "delta": 1, "m": 1, "n": 1, "p": 3, "target": "on_ut", "r": 3},
    ], ids=["on_u", "on_ut"])
    def test_streamed_run_equals_saved_in_memory_run(self, tmp_path, params):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver, params=params)
        assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        config = RunConfig.load(path)
        save_in_memory_run(tmp_path / "b", config, in_memory_run(config), "semilinear")
        assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")
        assert len(os.listdir(tmp_path / "a" / "fields")) == 2 * 26

    def test_streamed_linear_run_equals_saved_in_memory_run(self, tmp_path):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        assert main(["linear-decay", "--config", str(path), "--out", str(tmp_path / "a"),
                     "--window-lo", "1", "--window-hi", "4"]) == 0
        config = RunConfig.load(path)
        u0, u1 = config.u0.build(config.grid), config.u1.build(config.grid)
        times = np.arange(0, 101, 4) * 0.05
        traj = simulate_linear(u0, u1, config.params, times, config.grid, store_fields=True)
        save_in_memory_run(tmp_path / "b", config, traj, "linear-decay")
        a, b = tree_bytes(tmp_path / "a"), tree_bytes(tmp_path / "b")
        assert a.pop("fit.csv") and a == b

    @pytest.mark.parametrize("existing", [False, True])
    @pytest.mark.parametrize("fault", ["write", "interrupt"])
    def test_run_that_raises_leaves_the_output_as_it_was(self, tmp_path, monkeypatch,
                                                         existing, fault):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        out = tmp_path / "deep" / "run"
        if existing:   # an earlier run of another config, fields included
            short, _ = write_config(tmp_path, "short.json", solver=dict(solver, t_end=1.0))
            assert main(["semilinear", "--config", str(short), "--out", str(out)]) == 0
        before = tree_bytes(tmp_path)
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 7:   # mid-loop: row 3's u file
                raise OSError("No space left on device") if fault == "write" \
                    else KeyboardInterrupt()
            return write_field(*args, **kwargs)

        write_field = cli.write_field
        monkeypatch.setattr(cli, "write_field", failing)
        if fault == "write":
            assert main(["semilinear", "--config", str(path), "--out", str(out)]) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                main(["semilinear", "--config", str(path), "--out", str(out)])
        assert len(calls) == 7
        assert tree_bytes(tmp_path) == before
        assert out.parent.exists() == existing

    @pytest.mark.parametrize("command", ["semilinear", "linear-decay"])
    @pytest.mark.parametrize("fault", ["write", "interrupt"])
    def test_run_whose_last_write_raises_leaves_the_output_as_it_was(self, tmp_path,
                                                                      monkeypatch, fault,
                                                                      command):
        # the writer's error on the last file (row 25's u_t, write 52) is
        # raised before the run saves its manifest and norms over the old run's
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        out = tmp_path / "deep" / "run"
        short, _ = write_config(tmp_path, "short.json", solver=dict(solver, t_end=1.0))
        assert main(["semilinear", "--config", str(short), "--out", str(out)]) == 0
        before = tree_bytes(tmp_path)
        calls = []

        def failing(*args, **kwargs):
            calls.append(args)
            if len(calls) == 52:
                raise OSError("No space left on device") if fault == "write" \
                    else KeyboardInterrupt()
            return write_field(*args, **kwargs)

        write_field = cli.write_field
        monkeypatch.setattr(cli, "write_field", failing)
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "linear-decay":
            argv += ["--window-lo", "1", "--window-hi", "4"]
        if fault == "write":
            assert main(argv) == 2
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert len(calls) == 52
        assert tree_bytes(tmp_path) == before

    def test_loaded_stacks_read_rows_on_demand(self, tmp_path, monkeypatch):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        traj = in_memory_run(RunConfig.load(path))
        assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "saved")]) == 0
        _, loaded = load_run(tmp_path / "saved")
        reads = []
        monkeypatch.setattr(cli, "read_field", lambda path, out=None:
                            reads.append(os.path.basename(path)) or read_field(path, out=out))
        for name, got, want in (("u", loaded.snapshots_u, traj.snapshots_u),
                                ("ut", loaded.snapshots_ut, traj.snapshots_ut)):
            assert len(got) == 26 and want.shape == (26, 256)
            reads.clear()
            assert np.array_equal(got[3], want[3]) and reads == [f"{name}_000003.bin"]
            assert np.array_equal(got[-1], want[-1]) and reads[-1] == f"{name}_000025.bin"
            assert np.array_equal(stack_rows(got), want)

    def test_save_run_writes_the_mean_it_is_given(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, data={
            "u0": {"family": "zero"},
            "u1": {"family": "gaussian", "amplitude": 0.01, "width": 1.0, "center": 0.0}})
        config = RunConfig.load(path)
        traj = in_memory_run(config)
        mean = mean_u1(config)
        built = []
        build = DataSpec.build
        monkeypatch.setattr(DataSpec, "build", lambda self, g: built.append(self) or build(self, g))
        save_run(tmp_path / "saved", config, traj, mean, "semilinear")
        assert built == []
        manifest = json.loads((tmp_path / "saved" / "manifest.json").read_text())
        assert manifest["mean_u1"] == mean > 0 and manifest["u1_mean_positive"] is True

    def test_norms_csv_roundtrip_exact(self, tmp_path):
        from sigmaevo.params import EquationParams
        from sigmaevo.solver import Trajectory
        from sigmaevo.spectral import GridSpec
        rng = np.random.default_rng(0)
        traj = Trajectory(times=np.linspace(0, 1, 7),
                          norms=rng.standard_normal((7, 6)) ** 2,
                          grid=GridSpec(1, 8, 1.0),
                          params=EquationParams(sigma=1, delta=0, p=2))
        path = tmp_path / "norms.csv"
        write_norms_csv(path, traj)
        header, data = read_norms_csv(path)
        assert header[0] == "t"
        assert np.array_equal(data[:, 1:], traj.norms)


class TestRunDirectory:
    """Every file of a run reaches its directory through one staged swap: a
    rerun replaces or removes each of cli.RUN_FILES, and a run that raises
    leaves the directory as it was."""

    @staticmethod
    def stored_solver(tmp_path, **overrides):
        return dict(small_config_doc(tmp_path)["solver"], store_fields=True, **overrides)

    def scanned_earlier_run(self, tmp_path, out):
        """A shorter semilinear run with snapshots in ``out``, and its scan."""
        short, _ = write_config(tmp_path, "short.json",
                                solver=self.stored_solver(tmp_path, t_end=1.0))
        assert main(["semilinear", "--config", str(short), "--out", str(out)]) == 0
        assert main(["blowup-scan", str(out)]) == 0
        assert {"fields", "functional.csv"} <= set(os.listdir(out))

    def test_run_without_snapshots_removes_the_earlier_ones(self, tmp_path, capsys):
        # the earlier fields/ once stayed, and blowup-scan scanned them under
        # the new run's manifest
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        self.scanned_earlier_run(tmp_path, out)
        path, _ = write_config(tmp_path)
        for rundir in (out, fresh):
            assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        assert sorted(os.listdir(out)) == ["manifest.json", "norms.csv"]
        assert tree_bytes(out) == tree_bytes(fresh)
        capsys.readouterr()
        assert main(["blowup-scan", str(out)]) == 2
        assert f"run directory {out} has no field snapshots" in capsys.readouterr().err

    def test_run_with_snapshots_replaces_the_earlier_ones(self, tmp_path):
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        self.scanned_earlier_run(tmp_path, out)
        path, _ = write_config(tmp_path, solver=self.stored_solver(tmp_path))
        for rundir in (out, fresh):
            assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        assert sorted(os.listdir(out)) == ["fields", "manifest.json", "norms.csv"]
        assert len(os.listdir(out / "fields")) == 2 * 26
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_semilinear_run_removes_an_earlier_fit(self, tmp_path):
        path, _ = write_config(tmp_path)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert main(["linear-decay", "--config", str(path), "--out", str(out),
                     "--window-lo", "1", "--window-hi", "4"]) == 0
        assert (out / "fit.csv").exists()
        for rundir in (out, fresh):
            assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        assert not (out / "fit.csv").exists()
        assert tree_bytes(out) == tree_bytes(fresh)

    def test_manifest_is_swapped_in_last(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, solver=self.stored_solver(tmp_path))
        out = tmp_path / "out"
        renamed, rename = [], os.rename
        monkeypatch.setattr(os, "rename", lambda src, dst: renamed.append(dst) or rename(src, dst))
        assert main(["linear-decay", "--config", str(path), "--out", str(out),
                     "--window-lo", "1", "--window-hi", "4"]) == 0
        assert [os.path.basename(dst) for dst in renamed] == \
            ["fields", "norms.csv", "fit.csv", "manifest.json"]
        assert cli.RUN_FILES[-1] == "manifest.json"

    @pytest.mark.parametrize("command,table", [("semilinear", "norms.csv"),
                                               ("linear-decay", "fit.csv")])
    @pytest.mark.parametrize("fault", ["write", "interrupt"])
    def test_failed_table_leaves_the_output_as_it_was(self, tmp_path, monkeypatch, capsys,
                                                      command, table, fault):
        # the manifest and norms were once written in place, and fit.csv
        # after the run had replaced the earlier one's files
        out = tmp_path / "deep" / "run"
        self.scanned_earlier_run(tmp_path, out)
        path, _ = write_config(tmp_path, solver=self.stored_solver(tmp_path))
        before, threads = tree_bytes(tmp_path), threading.enumerate()
        write_table = cli.write_table

        def failing(file, *args, **kwargs):
            if os.path.basename(file) != table:
                return write_table(file, *args, **kwargs)
            with open(file, "w") as fh:   # a table cut short
                fh.write("t,L2")
            raise OSError(28, "No space left on device", file) if fault == "write" \
                else KeyboardInterrupt()

        monkeypatch.setattr(cli, "write_table", failing)
        argv = [command, "--config", str(path), "--out", str(out)]
        if command == "linear-decay":
            argv += ["--window-lo", "1", "--window-hi", "4"]
        if fault == "write":
            assert main(argv) == 2
            assert f"No space left on device: '{out}" in capsys.readouterr().err
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
        assert tree_bytes(tmp_path) == before
        assert threading.enumerate() == threads


FIT_OPTION_ERRORS = [
    (["--window-lo", "30", "--window-hi", "10"],
     "--window-lo must be below --window-hi and both finite, got 30.0 and 10.0"),
    (["--window-lo", "10", "--window-hi", "10"], "--window-lo must be below --window-hi"),
    (["--window-lo", "nan", "--window-hi", "10"], "--window-lo must be below --window-hi"),
    (["--window-lo", "1", "--window-hi", "inf"], "--window-lo must be below --window-hi"),
    (["--window-lo", "1", "--window-hi", "4", "--tolerance", "nan"],
     "--tolerance must be positive and finite, got nan"),
]
PREDICTED_ERRORS = [   # fit's own option
    (["--window-lo", "1", "--window-hi", "4", "--predicted", "nan"],
     "--predicted must be finite, got nan"),
    (["--window-lo", "1", "--window-hi", "4", "--predicted", "inf"],
     "--predicted must be finite, got inf"),
]


class TestFieldWriter:
    """cli.FieldFiles: one writer thread writes the kept rows while the loop
    fills the other of two buffer pairs."""

    @pytest.mark.parametrize("case", ["stride-1", "escape"])
    def test_streamed_files_are_the_in_memory_rows(self, tmp_path, case):
        solver = dict(small_config_doc(tmp_path)["solver"], snapshot_stride=1,
                      store_fields=True)
        data = small_config_doc(tmp_path)["data"]
        if case == "escape":   # u_t = 50 lifts u past 20 within a few steps
            solver["blowup_threshold"] = 20.0
            data = {key: {"family": "gaussian", "amplitude": a, "width": 1.0, "center": 0.0}
                    for key, a in (("u0", 2.0), ("u1", 50.0))}
        path, _ = write_config(tmp_path, solver=solver, data=data)
        config = RunConfig.load(path)
        traj = in_memory_run(config)
        assert (traj.blowup is not None) == (case == "escape")
        assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "a")]) == 0
        fdir = tmp_path / "a" / "fields"
        assert len(os.listdir(fdir)) == 2 * len(traj.times) > 4
        for name, stack in (("u", traj.snapshots_u), ("ut", traj.snapshots_ut)):
            for i, t in enumerate(traj.times.tolist()):
                field, grid, time = read_field(fdir / f"{name}_{i:06d}.bin")
                assert field.tobytes() == stack[i].tobytes() and time == t and grid == config.grid

    @staticmethod
    def held_sink(tmp_path, monkeypatch):
        """A FieldFiles on a small grid whose writer holds each row until
        the returned event is set."""
        release = threading.Event()

        def held(*args):
            assert release.wait(timeout=30)
            write_field(*args)

        monkeypatch.setattr(cli, "write_field", held)
        return cli.FieldFiles(str(tmp_path), GridSpec(1, 16, 1.0)), release

    def test_keep_returns_while_the_writer_writes(self, tmp_path, monkeypatch):
        files, release = self.held_sink(tmp_path, monkeypatch)
        try:
            first = files.buffers(0)
            for value, field in enumerate(first):
                field.fill(value)
            files.keep(0, 0.5)
            second = files.buffers(1)   # the other pair, free though row 0 is not written
            assert second[0] is not first[0] and os.listdir(tmp_path) == []
            files.keep(1, 1.0)
            release.set()
            assert files.buffers(2) is first   # once row 0, its last row, is written
            for value, name in enumerate(("u", "ut")):
                field, _, time = read_field(tmp_path / f"{name}_000000.bin")
                assert np.all(field == value) and time == 0.5
        finally:
            release.set()
            files.close()
        assert sorted(os.listdir(tmp_path)) == ["u_000000.bin", "u_000001.bin",
                                                "ut_000000.bin", "ut_000001.bin"]
        assert not files._writer.is_alive()

    def test_close_raises_the_writers_error(self, tmp_path, monkeypatch):
        # a row kept after the last wait: only close is left to raise its error
        def failing(*args):
            raise OSError(28, "No space left on device", args[0])

        monkeypatch.setattr(cli, "write_field", failing)
        files = cli.FieldFiles(str(tmp_path), GridSpec(1, 16, 1.0))
        files.buffers(0)
        files.keep(0, 0.0)
        with pytest.raises(OSError, match="No space left"):
            files.close()
        assert not files._writer.is_alive() and os.listdir(tmp_path) == []

    def test_no_row_is_overwritten_before_it_is_written(self, tmp_path):
        # switch threads as often as the interpreter allows: a pair handed out
        # before the writer is done with it would leave a file of a later row
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            files = cli.FieldFiles(str(tmp_path), GridSpec(1, 16, 1.0))
            for i in range(300):
                for field in files.buffers(i):
                    field.fill(i)
                files.keep(i, float(i))
            files.close()
        finally:
            sys.setswitchinterval(interval)
        for i in range(300):
            for name in ("u", "ut"):
                field, _, time = read_field(tmp_path / f"{name}_{i:06d}.bin")
                assert np.all(field == i) and time == i

    @pytest.mark.parametrize("fault", ["none", "write", "writer-interrupt",
                                       "loop-interrupt", "last-write"])
    def test_no_thread_outlives_the_command(self, tmp_path, monkeypatch, capsys, fault):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        out = tmp_path / "run"
        calls = []
        write, keep = cli.write_field, cli.FieldFiles.keep

        def failing_write(*args):
            calls.append(args[0])
            if fault == "writer-interrupt" and len(calls) == 9:
                raise KeyboardInterrupt()
            if fault in ("write", "last-write") and len(calls) == (52 if fault == "last-write"
                                                                   else 9):
                raise OSError(28, "No space left on device", args[0])
            write(*args)

        def interrupted_keep(self, i, t):
            keep(self, i, t)
            if fault == "loop-interrupt" and i == 3:
                raise KeyboardInterrupt()

        monkeypatch.setattr(cli, "write_field", failing_write)
        monkeypatch.setattr(cli.FieldFiles, "keep", interrupted_keep)
        before = threading.enumerate()
        if fault in ("none", "write", "last-write"):
            assert main(["semilinear", "--config", str(path), "--out", str(out)]) == \
                (0 if fault == "none" else 2)
        else:
            with pytest.raises(KeyboardInterrupt):
                main(["semilinear", "--config", str(path), "--out", str(out)])
        assert threading.enumerate() == before
        assert out.exists() == (fault == "none")
        if fault in ("write", "last-write"):
            assert calls[-1] in capsys.readouterr().err   # names the file
            assert len(calls) == (52 if fault == "last-write" else 9)


class TestCommands:
    def test_mu_classify_exit_zero(self, capsys):
        assert main(["mu-classify", "log-power:1"]) == 0
        out = capsys.readouterr().out
        assert "divergent" in out

    def test_mu_classify_one_verdict_per_c0(self, monkeypatch, capsys):
        calls = []

        def counting(mu, c0, mode):
            calls.append(c0)
            return classify_integral_criterion(mu, c0, mode)

        monkeypatch.setattr(cli, "classify_integral_criterion", counting)
        assert main(["mu-classify", "log-power:1", "--c0", "3", "10"]) == 0
        assert calls == [3.0, 10.0]
        assert capsys.readouterr().out.strip().endswith("verdict: divergent")

    def test_rates_prints_critical_exponent(self, capsys):
        assert main(["rates", "--sigma", "1", "--delta", "0", "--m", "1",
                     "--n", "1", "--p", "3", "--r", "1"]) == 0
        out = capsys.readouterr().out
        assert "p* = 3" in out
        assert "-0.25" in out

    @pytest.mark.parametrize("flags,source,exponents", [
        (["--sigma", "2", "--delta", "1", "--target", "on_ut", "--r", "2.6"], "thm_1_3",
         ("+0.75", "-0.55", "-0.25")),
        (["--sigma", "2", "--delta", "1", "--n", "3"], "thm_1_2", ("+0.25", "-0.75", "-0.75")),
    ])
    def test_rates_prints_the_theorem_exponents(self, capsys, flags, source, exponents):
        # both theorems bound u_t in L2 too; thm_1_1 does not
        assert main(["rates", *flags]) == 0
        assert capsys.readouterr().out.splitlines()[-4:] == [
            f"theorem rates ({source}):",
            f"  L2 exponent          {exponents[0]}",
            f"  |D|^r L2 exponent    {exponents[1]}",
            f"  u_t L2 exponent      {exponents[2]}"]

    def test_rates_outside_every_window_reports_and_exits_0(self, capsys):
        # n = 1 <= 2 m delta: no critical exponent, and no theorem applies
        assert main(["rates", "--sigma", "2", "--delta", "1", "--n", "1"]) == 0
        out = capsys.readouterr().out
        assert "critical exponent: not defined (" in out
        assert "theorem rates: inadmissible (" in out

    def test_linear_decay_run(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            grid={"n": 1, "N": 1024, "L": 100.0},
            solver={"dt": 0.25, "t_end": 40.0, "dealias_fraction": 2 / 3,
                    "blowup_threshold": None, "snapshot_stride": 2,
                    "store_fields": False},
            data={"u0": {"family": "gaussian", "amplitude": 1.0, "width": 1.0,
                         "center": 0.0},
                  "u1": {"family": "zero"}})
        out = tmp_path / "lin"
        rc = main(["linear-decay", "--config", str(path), "--out", str(out),
                   "--window-lo", "10", "--window-hi", "40",
                   "--tolerance", "0.08"])
        assert rc == 0
        assert (out / "norms.csv").exists()
        assert (out / "fit.csv").exists()
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("data,term", [("u0", 0), ("u1", 1)])
    def test_linear_decay_default_window_ends_at_the_wrap_time(self, tmp_path, capsys,
                                                                 data, term):
        # sigma = 2, delta = 1 on N = 512, L = 100: the periodic images reach
        # the data's support at t = 176.4, before t_end = 200; the predicted
        # exponent is the term of the one datum that is nonzero
        gaussian = {"family": "gaussian", "amplitude": 1.0, "width": 1.0, "center": 0.0}
        params = {"sigma": 2, "delta": 1, "m": 1, "n": 1, "p": 3, "target": "on_u", "r": 1}
        path, _ = write_config(
            tmp_path, params=params, grid={"n": 1, "N": 512, "L": 100.0},
            solver={"dt": 0.5, "t_end": 200.0, "dealias_fraction": 2 / 3,
                    "blowup_threshold": None, "snapshot_stride": 2, "store_fields": False},
            data={"u0": {"family": "zero"}, "u1": {"family": "zero"}, data: gaussian})
        out = tmp_path / "lin"
        assert main(["linear-decay", "--config", str(path), "--out", str(out)]) == 0
        header, row = csv.reader((out / "fit.csv").read_text().splitlines())
        fit = dict(zip(header, row))
        assert float(fit["window_lo"]) == 10.0 and 176 < float(fit["window_hi"]) < 177
        predicted = predict_linear_rate(RunConfig.load(path).params, 0.0, 0)[term]
        assert float(fit["predicted"]) == float(predicted) == (-0.25, 0.75)[term]
        assert fit["passed"] == "True"
        assert f"on t in [10, {float(fit['window_hi']):g}]: PASS" in capsys.readouterr().out

    def test_rates_from_a_config_match_the_flags(self, tmp_path, capsys):
        path, doc = write_config(tmp_path, params={
            "sigma": 2.0, "delta": 0.5, "m": 1.0, "n": 3, "p": 2.5, "target": "on_ut", "r": 1.5},
            grid={"n": 3, "N": 16, "L": 8.0})
        assert main(["rates", "--config", str(path)]) == 0
        from_config = capsys.readouterr().out
        assert main(["rates", *(f"--{key}={value}" for key, value in doc["params"].items())]) == 0
        assert from_config == capsys.readouterr().out
        assert "parameters: sigma=2.0 delta=0.5 m=1.0 n=3 r=1.5 target=on_ut" in from_config

    @pytest.mark.parametrize("flag", [["--window-lo", "12"], ["--window-hi", "20"]])
    def test_linear_decay_window_flags_go_together(self, tmp_path, capsys, flag):
        # --window-lo alone once ended in a TypeError, --window-hi alone was ignored
        path, _ = write_config(tmp_path)
        assert main(["linear-decay", "--config", str(path), *flag]) == 2
        assert "--window-lo and --window-hi go together" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_linear_decay_rows_are_the_semilinear_rows(self, tmp_path):
        # with t_end = 1, dt = 0.05 and stride 3 the rows stop at step 18,
        # t = 0.9; linear-decay once wrote one more, at t = 1.05 > t_end
        solver = dict(small_config_doc(tmp_path)["solver"], t_end=1.0, snapshot_stride=3)
        path, _ = write_config(tmp_path, solver=solver)
        semi, lin = tmp_path / "semi", tmp_path / "lin"
        assert main(["semilinear", "--config", str(path), "--out", str(semi)]) == 0
        assert main(["linear-decay", "--config", str(path), "--out", str(lin),
                     "--window-lo", "0", "--window-hi", "1"]) == 0
        times = [[row[0] for row in csv.reader((d / "norms.csv").read_text().splitlines())][1:]
                 for d in (semi, lin)]
        assert times[0] == times[1] == [repr(k * 0.05) for k in range(0, 19, 3)]

    def test_semilinear_blowup_is_exit_zero(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            mu="log-power:1",
            solver={"dt": 0.01, "t_end": 30.0, "dealias_fraction": 2 / 3,
                    "blowup_threshold": 50.0, "snapshot_stride": 10,
                    "store_fields": False},
            data={"u0": {"family": "zero"},
                  "u1": {"family": "gaussian", "amplitude": 5.0, "width": 0.5,
                         "center": 0.0}})
        out = tmp_path / "blow"
        rc = main(["semilinear", "--config", str(path), "--out", str(out)])
        assert rc == 0
        assert "blow-up at" in capsys.readouterr().out
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["blowup"]["reason"] == "escape"

    def test_invalid_config_exit_nonzero(self, tmp_path, capsys):
        doc = small_config_doc(tmp_path)
        doc["params"]["m"] = 5.0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        rc = main(["semilinear", "--config", str(path)])
        assert rc != 0
        assert "m must lie in [1, 2)" in capsys.readouterr().err

    def test_missing_config_named_cleanly(self, tmp_path, capsys):
        rc = main(["semilinear", "--config", str(tmp_path / "nope.json")])
        assert rc != 0
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json_named_cleanly(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc = main(["semilinear", "--config", str(path)])
        assert rc != 0
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_tabulated_modulus_named_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["mu-classify", f"tabulated:{missing}"]) == 2
        assert str(missing) in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["hoelder:abc", "log-log-lip:x", "log-log-lip:2.5",
                                     "log-power:nan", "log-power:inf", "lipschitz:junk",
                                     "log-lip:3"])
    def test_bad_modulus_key_named_cleanly(self, key, capsys):
        assert main(["mu-classify", key]) == 2
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("rows,named", [("0,0,1\n1,1,1\n", "3 columns"),
                                            ("0,0\n0.5,0\n1,0\n", "0 at every sample point")])
    def test_bad_tabulated_modulus_named_cleanly(self, tmp_path, capsys, rows, named):
        path = tmp_path / "mu.csv"
        path.write_text(rows)
        assert main(["mu-classify", f"tabulated:{path}"]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("section,key,value", [("solver", "snapshot_stride", 2.5),
                                                   ("solver", "snapshot_stride", float("inf")),
                                                   ("solver", "snapshot_stride", float("nan")),
                                                   ("params", "n", float("inf"))])
    def test_non_integer_count_exits_2(self, tmp_path, capsys, section, key, value):
        # a stride of 2.5 once wrote a row every 5 steps; an infinite one
        # (or n) ended in an OverflowError traceback
        doc = small_config_doc(tmp_path)
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["semilinear", "--config", str(path)]) == 2
        assert f"{key} must be a positive integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key,value,named", [
        ("solver", "dt", float("nan"), "dt must be finite"),
        ("solver", "dt", float("inf"), "dt must be finite"),
        ("solver", "t_end", float("inf"), "t_end must be finite"),
        ("solver", "t_end", float("nan"), "t_end must be finite"),
        ("solver", "dt", 1e-320, "t_end / dt must be finite"),
        ("solver", "blowup_threshold", float("nan"), "blowup_threshold must be positive"),
        ("solver", "blowup_threshold", float("inf"), "blowup_threshold must be positive"),
        ("params", "p", float("nan"), "p must be finite and exceed 1"),
        ("params", "p", float("inf"), "p must be finite and exceed 1"),
        ("params", "r", float("nan"), "r must be finite and nonnegative"),
        ("params", "r", float("inf"), "r must be finite and nonnegative"),
        ("params", "sigma", float("nan"), "sigma must be finite and >= 1"),
        ("params", "sigma", float("inf"), "sigma must be finite and >= 1"),
        ("grid", "L", float("nan"), "L must be positive and finite"),
        ("grid", "L", float("inf"), "L must be positive and finite"),
        ("data.u0", "amplitude", float("inf"), "data amplitude must be finite"),
        ("data.u0", "amplitude", float("nan"), "data amplitude must be finite"),
        ("data.u0", "width", float("inf"), "data width must be finite"),
        ("data.u0", "width", float("nan"), "data width must be finite"),
        ("data.u0", "center", float("nan"), "data center must be finite"),
        ("data.u0", "center", float("inf"), "data center must be finite")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, section, key, value, named):
        # NaN dt or t_end, an infinite t_end, r or sigma ended in tracebacks; a
        # NaN p recorded a false blow-up and a NaN threshold could never escape;
        # an infinite amplitude was blamed on the default blow-up threshold
        doc = small_config_doc(tmp_path)
        node = doc
        for name in section.split("."):
            node = node[name]
        node[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["semilinear", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key,value,named", [
        # a string "false" is truthy: the run once stored its fields
        ("solver", "store_fields", "false", "'solver.store_fields' must be true or false, "
                                            "not 'false'"),
        ("solver", "store_fields", 0, "'solver.store_fields' must be true or false, not 0"),
        # a number as a string once exited 2 naming no key
        ("solver", "dt", "0.1", "'solver.dt' must be a number, not '0.1'"),
        ("params", "sigma", "2", "'params.sigma' must be a number, not '2'"),
        ("grid", "L", "200", "'grid.L' must be a number, not '200'"),
        ("data.u0", "amplitude", "1", "'data.u0.amplitude' must be a number, not '1'"),
        # a bad enum value once named neither its key nor the accepted values
        ("params", "target", "on_w", "'params.target' must be one of 'on_u', 'on_ut', "
                                     "not 'on_w'"),
        ("data.u0", "family", "gauss", "'data.u0.family' must be one of 'zero', 'gaussian', "
                                       "'cosine-bump', 'from-file', not 'gauss'"),
        ("data.u1", "family", None, "'data.u1.family' must be one of 'zero', 'gaussian', "
                                    "'cosine-bump', 'from-file', not None"),
        ("solver", "dealias_fraction", "0.5", "'solver.dealias_fraction' must be a number"),
        ("solver", "blowup_threshold", "1e3",
         "'solver.blowup_threshold' must be a number or null, not '1e3'"),
        # true was once read as the number 1
        ("params", "n", True, "'params.n' must be a number, not True"),
        ("params", "sigma", True, "'params.sigma' must be a number, not True"),
        ("grid", "n", True, "'grid.n' must be a number, not True"),
        ("solver", "snapshot_stride", True, "'solver.snapshot_stride' must be a number, not True"),
        ("solver", "t_end", None, "'solver.t_end' must be a number, not None"),
    ])
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, capsys, section, key, value,
                                             named):
        doc = small_config_doc(tmp_path)
        node = doc
        for name in section.split("."):
            node = node[name]
        node[key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["semilinear", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("solver", "snapshot_stride", 4.0), ("params", "sigma", 1), ("grid", "L", 30),
        ("solver", "blowup_threshold", 100), ("solver", "store_fields", True)])
    def test_value_of_an_accepted_type_runs(self, tmp_path, section, key, value):
        doc = small_config_doc(tmp_path)
        doc[section][key] = value
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(doc))
        assert main(["semilinear", "--config", str(path)]) == 0

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0"])
    @pytest.mark.parametrize("command", ["linear-decay", "fit"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, command, tolerance):
        # a NaN tolerance once wrote nan into fit.csv, and an infinite one
        # passed any fit
        path, _ = write_config(tmp_path)
        window = ["--window-lo", "0", "--window-hi", "5", "--tolerance", tolerance]
        if command == "fit":
            assert main(["semilinear", "--config", str(path)]) == 0
            argv = ["fit", str(tmp_path / "run" / "norms.csv"), "L2_u",
                    "--predicted", "-0.25", "--ledger", str(tmp_path / "fits.csv")]
            written = tmp_path / "fits.csv"
        else:
            argv = ["linear-decay", "--config", str(path)]
            written = tmp_path / "run"
        capsys.readouterr()
        assert main(argv + window) == 2
        assert "tolerance must be positive and finite" in capsys.readouterr().err
        assert not written.exists()

    @pytest.mark.parametrize("command,options,named", [
        pytest.param(command, options, named, id=f"{command}-options{i}-{named}")
        for command in ("linear-decay", "fit")
        for i, (options, named) in enumerate(
            FIT_OPTION_ERRORS + (PREDICTED_ERRORS if command == "fit" else []))])
    def test_bad_fit_option_exits_2_before_any_data(self, tmp_path, capsys, monkeypatch,
                                                    command, options, named):
        # these once ran every sample (or read the whole norms.csv) first, and
        # then exited 2 naming no flag; a non-finite --predicted once exited 0
        # and appended a FAIL row predicting nan or inf to the ledger
        monkeypatch.setattr(RunConfig, "load", lambda path: pytest.fail("config loaded"))
        monkeypatch.setattr(cli, "read_norms_csv", lambda path: pytest.fail("norms loaded"))
        ledger = tmp_path / "fits.csv"
        argv = (["linear-decay", "--config", "config.json"] if command == "linear-decay" else
                ["fit", "norms.csv", "L2_u", "--predicted", "-0.25", "--ledger", str(ledger)])
        assert main(argv + options) == 2
        assert named in capsys.readouterr().err
        assert not ledger.exists()

    def test_non_finite_modulus_config_exits_2(self, tmp_path, capsys):
        # log-power:nan once ran and recorded a false blow-up
        path, _ = write_config(tmp_path, mu="log-power:nan")
        assert main(["semilinear", "--config", str(path)]) == 2
        assert "'log-power:nan'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override,named", [
        ({"mu": 7}, "config key 'mu' must be a string, not 7"),
        ({"data": 3}, "config key 'data' must be an object, not 3"),
        ({"data": {"u0": {"family": "zero"}}}, "config data missing required key: 'u1'"),
        ({"data": {"u0": [], "u1": {"family": "zero"}}},
         "config data key 'u0' must be an object, not []"),
        ({"params": [1]}, "config key 'params' must be an object, not [1]"),
        ({"grid": None}, "config key 'grid' must be an object, not None"),
        ({"grid": {"n": 1.0, "N": 256, "L": 30.0}}, "grid dimension must be 1, 2 or 3"),
        ({"grid": {"n": 1, "N": 256.0, "L": 30.0}}, "N must be a power of two"),
        ({"data": {"u0": {"family": "from-file", "path": 1000}, "u1": {"family": "zero"}}},
         "from-file data needs a path (a file name), not 1000"),
        ({"output_dir": 7}, "config key 'output_dir' must be a string, not 7"),
    ])
    @pytest.mark.parametrize("command", ["semilinear", "linear-decay"])
    def test_malformed_config_document_named_cleanly(self, tmp_path, capsys, command,
                                                     override, named):
        # each of these once ended in a traceback (a float grid.n builds no
        # shape), ran (a from-file path read that file descriptor), or exited 2
        # naming neither key nor file
        path, _ = write_config(tmp_path, **override)
        assert main([command, "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("override,named", [
        ({"data": {"u0": {"family": "gaussian", "amplitude": 1.0, "width": 0.0},
                   "u1": {"family": "zero"}}},
         "config section 'data.u0': data width must be positive"),
        ({"data": {"u0": {"family": "zero"},
                   "u1": {"family": "gaussian", "amplitude": 1.0, "width": 0.0}}},
         "config section 'data.u1': data width must be positive"),
        ({"grid": {"n": 1, "N": 100, "L": 30.0}},
         "config section 'grid': N must be a power of two"),
    ], ids=["u0", "u1", "grid.N"])
    def test_range_error_names_its_section(self, tmp_path, capsys, override, named):
        # u0 and u1 once both read "data width must be positive"
        path, _ = write_config(tmp_path, **override)
        assert main(["semilinear", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("override,named", [
        # 8 TiB per field: numpy's MemoryError once ended the command
        ({"grid": {"n": 1, "N": 2 ** 40, "L": 30.0}},
         f"grid.N = {2 ** 40} in 1D gives {2 ** 40} cells, {8 * 2 ** 40} bytes per field; "
         "a field may have at most 16777216 cells (134217728 bytes)"),
        ({"solver": {"dt": 1e-7, "t_end": 5.0, "snapshot_stride": 4}},
         "t_end / dt = 5e+07 steps at snapshot_stride 4 record 12500001 rows, over the "
         "maximum of 1000000; raise snapshot_stride or dt, or shorten t_end"),
    ], ids=["cells", "rows"])
    @pytest.mark.parametrize("command", ["semilinear", "linear-decay"])
    def test_size_beyond_the_maximum_exits_2_before_any_data(self, tmp_path, capsys,
                                                             monkeypatch, command, override,
                                                             named):
        # the config is rejected as it is read: no field, sample time or
        # norm row of the run is allocated
        monkeypatch.setattr(DataSpec, "build", lambda spec, grid: pytest.fail("data built"))
        path, _ = write_config(tmp_path, **override)
        assert main([command, "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("n,N,L", [(1, 64, 1e-300), (2, 16, 1e300), (3, 8, 1e200),
                                       (3, 8, 1e-200)])
    @pytest.mark.parametrize("command", ["semilinear", "linear-decay"])
    def test_length_whose_grid_overflows_exits_2(self, tmp_path, capsys, command, n, N, L):
        # |xi|^2 or the cell volume once overflowed in a traceback, or the
        # cell volume of a tiny 3D torus read 0.0
        params = dict(small_config_doc(tmp_path)["params"], n=n)
        path, _ = write_config(tmp_path, params=params, grid={"n": n, "N": N, "L": L})
        assert main([command, "--config", str(path)]) == 2
        assert (f"config section 'grid': L = {L!r} is out of range for N = {N} in {n}D"
                in capsys.readouterr().err)
        assert not (tmp_path / "run").exists()

    def test_length_whose_grid_overflows_exits_2_from_the_flag(self, tmp_path, capsys):
        argv = ["check-inequalities", "--fields", "1", "--N", "8", "--kmax", "1",
                "--L", "1e-300", "--out", str(tmp_path / "ci")]
        assert main(argv) == 2
        assert "L = 1e-300 is out of range for N = 8 in 1D" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["semilinear", "linear-decay"])
    def test_step_count_beyond_the_maximum_exits_2(self, tmp_path, capsys, command):
        # it once ended in "ValueError: Maximum allowed size exceeded"
        solver = dict(small_config_doc(tmp_path)["solver"], dt=1e-300)
        path, _ = write_config(tmp_path, solver=solver)
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "t_end / dt = 5e+300 steps exceeds the maximum" in err
        assert "raise dt or shorten t_end" in err
        assert not (tmp_path / "run").exists()

    def test_config_that_is_no_object_named_cleanly(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([small_config_doc(tmp_path)]))
        assert main(["semilinear", "--config", str(path)]) == 2
        assert f"config {path} is not a JSON object" in capsys.readouterr().err

    @staticmethod
    def _fail_snapshot_stacks(monkeypatch):
        # 100 steps at stride 4 keep 26 rows of 256 points; only arrays of
        # that shape fail, so no real allocation is attempted
        empty = np.empty

        def failing_empty(shape, *args, **kwargs):
            if shape == (26, 256):
                raise MemoryError("cannot allocate")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", failing_empty)

    def test_unallocatable_snapshot_stacks_raise_in_simulate(self, tmp_path, monkeypatch):
        # the in-memory stacks of simulate are allocated up front, and main
        # reports this ParameterError as exit 2
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        config = RunConfig.load(path)
        self._fail_snapshot_stacks(monkeypatch)
        with pytest.raises(ParameterError) as info:
            in_memory_run(config)
        message = str(info.value)
        assert "store_fields" in message and "snapshot_stride" in message
        assert f"26 rows ({8 * 26 * 256} bytes each)" in message

    def test_streamed_run_allocates_no_stacks(self, tmp_path, monkeypatch):
        # the command streams its rows to files: a stack that cannot be
        # allocated does not matter to it
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        self._fail_snapshot_stacks(monkeypatch)
        assert main(["semilinear", "--config", str(path)]) == 0
        names = sorted(os.listdir(tmp_path / "run" / "fields"))
        assert names == sorted(f"{name}_{i:06d}.bin" for name in ("u", "ut") for i in range(26))

    def test_missing_sweep_config_named_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["sweep", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and str(missing) in err

    @pytest.mark.parametrize("shape,named", [
        ({"sweep": {"params.p": 3}}, "sweep path 'params.p' must map to a non-empty list"),
        ({"sweep": {"params.p": []}}, "sweep path 'params.p' must map to a non-empty list"),
        # a misspelt top-level key once ran identical members, all ok
        ({"sweep": {"muu": ["hoelder:0.5", "lipschitz"]}},
         "sweep path 'muu' does not start with a key of a run config"),
        ({"sweep": {"params.p": [3.0], "solverr.dt": [0.1]}},
         "sweep path 'solverr.dt' does not start with a key of a run config"),
        ({"sweep": ["params.p"]}, "{cfg} key 'sweep' must be an object"),
        ({"base": [1]}, "{cfg} key 'base' must be an object"),
        ({"base": "config.json"}, "{cfg} key 'base' must be an object"),
        ({"output_dir": 7}, "'output_dir' must be a string, not 7"),
        ({"sweep": None}, "{cfg} key 'sweep' must be an object, not None"),
        ("list", "config {cfg} is not a JSON object"),
    ])
    def test_malformed_sweep_document_exits_2(self, tmp_path, capsys, shape, named):
        # each of these but the empty list once ended in a traceback or an
        # unnamed exit 2; the empty list ran no member and exited 0
        sweep_doc = {"base": small_config_doc(tmp_path), "sweep": {"params.p": [3.0]},
                     "output_dir": str(tmp_path / "sw")}
        sweep_doc = [sweep_doc] if shape == "list" else dict(sweep_doc, **shape)
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert named.format(cfg=cfg) in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    def test_bad_sweep_path_named_cleanly(self, tmp_path, capsys):
        sweep_doc = {"base": small_config_doc(tmp_path),
                     "sweep": {"data.u9.amplitude": [0.01]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "data.u9.amplitude" in err and "'u9'" in err
        assert not (tmp_path / "sw").exists()

    def test_blowup_scan_missing_rundir_named_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["blowup-scan", str(missing)]) == 2
        assert str(missing / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["corrupt-manifest", "manifest-without-config",
                                        "manifest-list", "config-not-object",
                                        "blowup-not-object", "blowup-without-reason",
                                        "missing-norms"])
    def test_blowup_scan_damaged_rundir_named_cleanly(self, tmp_path, capsys, damage):
        path, _ = write_config(tmp_path)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        manifest = rundir / "manifest.json"
        doc = json.loads(manifest.read_text())
        if damage == "corrupt-manifest":
            manifest.write_text("{not json")
            named = str(manifest)
        elif damage == "manifest-without-config":
            manifest.write_text(json.dumps({"version": "0"}))
            named = f"{manifest} missing required key: 'config'"
        elif damage == "manifest-list":
            manifest.write_text(json.dumps([doc]))
            named = f"run manifest {manifest} is not a JSON object"
        elif damage == "config-not-object":
            manifest.write_text(json.dumps(dict(doc, config=5)))
            named = f"{manifest} key 'config' must be an object, not 5"
        elif damage == "blowup-not-object":
            manifest.write_text(json.dumps(dict(doc, blowup=1.5)))
            named = f"{manifest} key 'blowup' must be an object, not 1.5"
        elif damage == "blowup-without-reason":
            manifest.write_text(json.dumps(dict(doc, blowup={"time": 1.5})))
            named = "'reason'"
        else:
            (rundir / "norms.csv").unlink()
            named = str(rundir / "norms.csv")
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        assert named in capsys.readouterr().err

    def test_blowup_scan_on_run_without_rows_named_cleanly(self, tmp_path, capsys):
        # a threshold below sup |u0| = 0.01 ends the run before its first row
        solver = dict(small_config_doc(tmp_path)["solver"], blowup_threshold=0.001,
                      store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        _, traj = load_run(rundir)
        assert traj.times.shape == (0,) and traj.norms.shape == (0, 6)
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert str(rundir) in err and "holds no rows" in err

    def test_blowup_scan_on_one_row_run_named_cleanly(self, tmp_path, capsys):
        # the run escapes at its first step: one row and one snapshot, at t = 0
        solver = dict(small_config_doc(tmp_path)["solver"], blowup_threshold=2.0005,
                      snapshot_stride=1, store_fields=True)
        data = {"u0": {"family": "gaussian", "amplitude": 2.0, "width": 1.0, "center": 0.0},
                "u1": {"family": "gaussian", "amplitude": 50.0, "width": 1.0, "center": 0.0}}
        path, _ = write_config(tmp_path, solver=solver, data=data)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        _, traj = load_run(rundir)
        assert traj.times.tolist() == [0.0] and traj.snapshot_times.tolist() == [0.0]
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert str(rundir) in err and "end at t = 0" in err

    def test_blowup_scan_without_snapshots_named_cleanly(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert f"run directory {rundir} has no field snapshots" in err

    @pytest.mark.parametrize("damage", ["truncated", "garbage-header"])
    def test_damaged_from_file_datum_named_cleanly(self, tmp_path, capsys, damage):
        from sigmaevo.spectral import GridSpec, write_field
        grid = GridSpec(1, 64, 30.0)
        field = tmp_path / "u0.bin"
        write_field(field, 0.01 * np.exp(-grid.axis() ** 2), grid)
        data = field.read_bytes()
        field.write_bytes(data[:-8] if damage == "truncated" else b"\x89\xff garbage\n" + data)
        path, _ = write_config(tmp_path, grid={"n": 1, "N": 64, "L": 30.0},
                               data={"u0": {"family": "from-file", "path": str(field)},
                                     "u1": {"family": "zero"}})
        assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert str(field) in err and "Traceback" not in err

    def test_from_file_datum_on_another_grid_names_both_grids(self, tmp_path, capsys):
        from sigmaevo.spectral import GridSpec, write_field
        grid = GridSpec(1, 64, 30.0)
        field = tmp_path / "u0.bin"
        write_field(field, 0.01 * np.exp(-grid.axis() ** 2), grid)
        path, _ = write_config(tmp_path, grid={"n": 1, "N": 128, "L": 30.0},
                               data={"u0": {"family": "from-file", "path": str(field)},
                                     "u1": {"family": "zero"}})
        assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert ("field file grid GridSpec(n=1, N=64, L=30.0) does not match "
                "run grid GridSpec(n=1, N=128, L=30.0)") in err

    @pytest.mark.parametrize("command", ["blowup-scan", "fit"])
    @pytest.mark.parametrize("damage", ["non-numeric", "ragged", "empty"])
    def test_damaged_norms_csv_named_cleanly(self, tmp_path, capsys, command, damage):
        # a non-numeric cell once ended in a ValueError traceback, an empty
        # file (fit) in an IndexError one
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        norms_csv = rundir / "norms.csv"
        lines = norms_csv.read_text().splitlines(keepends=True)
        if damage == "non-numeric":
            lines[3] = lines[3].replace(",", ",x", 1)
        elif damage == "ragged":
            lines[3] = lines[3].rsplit(",", 1)[0] + "\n"
        norms_csv.write_text("".join(lines) if damage != "empty" else "")
        named = str(norms_csv) + (": empty file" if damage == "empty" else ": row 2:")
        argv = (["blowup-scan", str(rundir)] if command == "blowup-scan" else
                ["fit", str(norms_csv), "L2_u", "--window-lo", "0", "--window-hi", "5",
                 "--ledger", str(tmp_path / "fits.csv")])
        capsys.readouterr()
        assert main(argv) == 2
        assert named in capsys.readouterr().err
        assert not (rundir / "functional.csv").exists() and not (tmp_path / "fits.csv").exists()

    def test_blowup_scan_norms_csv_without_energy_named_cleanly(self, tmp_path, capsys):
        # load_run once ignored the header: a norms.csv without a column scanned
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        norms_csv = rundir / "norms.csv"
        rows = list(csv.reader(norms_csv.read_text().splitlines()))
        norms_csv.write_text("".join(",".join(row[:-1]) + "\n" for row in rows))
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert str(norms_csv) in err and "is not t,L2_u,Hr_u,L2_ut,Hrs_ut,Linf_u,energy" in err
        assert not (rundir / "functional.csv").exists()

    @pytest.mark.parametrize("R", [["nan"], ["1", "nan"], ["inf"], ["0.5", "inf"], ["2", "1"]])
    def test_blowup_scan_bad_R_values_exit_2(self, tmp_path, capsys, R):
        # --R nan once wrote a functional.csv row with R = nan and "violated"
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir), "--R", *R]) == 2
        assert "R_values must be positive, finite and increasing" in capsys.readouterr().err
        assert not (rundir / "functional.csv").exists()

    @pytest.mark.parametrize("damage", ["truncated", "time"])
    def test_blowup_scan_damaged_unread_snapshot_named_cleanly(self, tmp_path, capsys, damage):
        # an on_ut scan reads no u snapshot, but load_run checks every header
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        params = {"sigma": 2, "delta": 1, "m": 1, "n": 1, "p": 3, "target": "on_ut", "r": 3}
        path, _ = write_config(tmp_path, solver=solver, params=params)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        snapshot = rundir / "fields" / "u_000003.bin"
        data = snapshot.read_bytes()
        snapshot.write_bytes(data[:-8] if damage == "truncated"
                             else data.replace(b"time=0.6000000000000001", b"time=0.5", 1))
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert str(snapshot) in err and "does not match" in err and "Traceback" not in err
        assert not (rundir / "functional.csv").exists()

    def test_blowup_scan_truncated_snapshot_named_cleanly(self, tmp_path, capsys):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        snapshot = rundir / "fields" / "u_000003.bin"
        snapshot.write_bytes(snapshot.read_bytes()[:-8])
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert str(snapshot) in err and "does not match" in err

    @pytest.mark.parametrize("damage", ["ut-time", "u-time", "missing-ut"])
    def test_blowup_scan_snapshot_off_its_row_named_cleanly(self, tmp_path, capsys, damage):
        # row i of norms.csv reads fields/u_{i:06d}.bin and ut_{i:06d}.bin, whose
        # header times must equal the row's; an edited ut_ time once loaded silently
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        fields = rundir / "fields"
        if damage == "missing-ut":
            named = fields / "ut_000004.bin"
            named.unlink()
        else:
            named = fields / ("ut_000002.bin" if damage == "ut-time" else "u_000002.bin")
            header, _, payload = named.read_bytes().partition(b"\n")
            named.write_bytes(re.sub(rb"time=\S+", b"time=1.25", header) + b"\n" + payload)
        capsys.readouterr()
        assert main(["blowup-scan", str(rundir)]) == 2
        err = capsys.readouterr().err
        assert str(named) in err and "Traceback" not in err

    def test_run_without_rows_loads_empty_stacks(self, tmp_path):
        solver = dict(small_config_doc(tmp_path)["solver"], blowup_threshold=0.001,
                      store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        assert (rundir / "fields").is_dir() and not list((rundir / "fields").iterdir())
        _, traj = load_run(rundir)
        assert len(traj.snapshots_u) == len(traj.snapshots_ut) == 0
        assert traj.snapshot_times is traj.times

    def test_manifest_records_resolved_threshold(self, tmp_path):
        path, _ = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # the config asks for the default; the manifest keeps the request and
        # records the number simulate used: 1e6 x sup |u0|
        assert manifest["config"]["solver"]["blowup_threshold"] is None
        assert manifest["blowup_threshold"] == pytest.approx(1e6 * 0.01)
        _, traj = load_run(out)
        assert traj.blowup_threshold == manifest["blowup_threshold"]

    def test_blowup_scan(self, tmp_path, capsys):
        path, _ = write_config(
            tmp_path,
            mu="log-power:1",
            grid={"n": 1, "N": 512, "L": 20.0},
            solver={"dt": 0.005, "t_end": 30.0, "dealias_fraction": 2 / 3,
                    "blowup_threshold": 1e4, "snapshot_stride": 20,
                    "store_fields": True},
            data={"u0": {"family": "zero"},
                  "u1": {"family": "gaussian", "amplitude": 3.0, "width": 0.5,
                         "center": 0.0}})
        rundir = tmp_path / "scan"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        assert main(["blowup-scan", str(rundir)]) == 0
        rows = (rundir / "functional.csv").read_text().strip().splitlines()
        assert rows[0] == "R,I_R,J_R,g,G,verdict"
        assert len(rows) == 11
        assert all(line.endswith("ok") for line in rows[1:])

    def test_check_inequalities(self, tmp_path):
        rc = main(["check-inequalities", "--fields", "10", "--N", "128",
                   "--kmax", "16", "--out", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "inequalities.csv").exists()

    def test_check_inequalities_without_fields_exits_2(self, tmp_path, capsys):
        # zero fields once printed NaN growth and passed
        assert main(["check-inequalities", "--fields", "0", "--out", str(tmp_path)]) == 2
        assert "--fields" in capsys.readouterr().err
        assert not (tmp_path / "inequalities.csv").exists()

    @pytest.mark.parametrize("option,value,least", [("--kmax", "-1", 1), ("--kmax", "0", 1),
                                                     ("--seed", "-1", 0)])
    def test_check_inequalities_bad_count_exits_2(self, tmp_path, capsys, option, value, least):
        # a negative --kmax or --seed once ended in a numpy ValueError
        # traceback; --kmax 0 gives zero fields, NaN growth and a pass
        argv = ["check-inequalities", "--fields", "2", "--N", "64", "--out", str(tmp_path)]
        assert main(argv + [option, value]) == 2
        assert f"{option} must be at least {least}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "inequalities.csv").exists()

    @pytest.mark.parametrize("mu,c0", [("log-power:0.5", "inf"), ("hoelder:0.5", "nan"),
                                       ("lipschitz", "1")])
    @pytest.mark.parametrize("mode", ["analytic", "numeric", "both"])
    def test_mu_classify_bad_c0_exits_2_before_printing(self, capsys, mu, c0, mode):
        # --c0 inf and nan once passed the c0 >= e check and printed false
        # verdicts; --c0 1 printed the axiom lines before its error
        assert main(["mu-classify", mu, "--c0", c0, "--mode", mode]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"c0 must be finite and at least e, got {float(c0)}" in err

    def test_fit_subcommand_appends_ledger(self, tmp_path):
        t = np.linspace(1, 50, 60)
        v = 3 * (1 + t) ** -0.5
        from sigmaevo.params import EquationParams
        from sigmaevo.solver import Trajectory
        from sigmaevo.spectral import GridSpec
        traj = Trajectory(times=t, norms=np.tile(v[:, None], (1, 6)),
                          grid=GridSpec(1, 8, 1.0),
                          params=EquationParams(sigma=1, delta=0, p=2))
        norms_path = tmp_path / "norms.csv"
        write_norms_csv(norms_path, traj)
        ledger = tmp_path / "fits.csv"
        rc = main(["fit", str(norms_path), "L2_u", "--window-lo", "5",
                   "--window-hi", "50", "--predicted", "-0.5",
                   "--tolerance", "0.05", "--ledger", str(ledger)])
        assert rc == 0
        lines = ledger.read_text().strip().splitlines()
        assert len(lines) == 2
        assert "PASS" in lines[1]

    @staticmethod
    def _decaying_norms(path):
        from sigmaevo.params import EquationParams
        from sigmaevo.solver import Trajectory
        from sigmaevo.spectral import GridSpec
        t = np.linspace(1, 50, 60)
        write_norms_csv(path, Trajectory(times=t, norms=np.tile((1 + t)[:, None] ** -0.5, (1, 6)),
                                         grid=GridSpec(1, 8, 1.0),
                                         params=EquationParams(sigma=1, delta=0, p=2)))

    def test_fit_refuses_a_ledger_that_is_another_table(self, tmp_path, capsys):
        # a --ledger naming the norms table once appended a ledger row under its header
        victim = tmp_path / "victim.csv"
        self._decaying_norms(victim)
        before = victim.read_bytes()
        rc = main(["fit", str(victim), "L2_u", "--window-lo", "10", "--window-hi", "50",
                   "--ledger", str(victim)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(victim) in err and "header" in err
        assert victim.read_bytes() == before

    def test_fit_unknown_column_named_cleanly(self, tmp_path, capsys):
        norms_path = tmp_path / "norms.csv"
        self._decaying_norms(norms_path)
        ledger = tmp_path / "fits.csv"
        assert main(["fit", str(norms_path), "L9_u", "--window-lo", "10", "--window-hi", "50",
                     "--ledger", str(ledger)]) == 2
        assert f"{norms_path}: column 'L9_u' not in" in capsys.readouterr().err
        assert not ledger.exists()

    def test_fit_writes_the_header_into_an_empty_ledger(self, tmp_path):
        norms_path = tmp_path / "norms.csv"
        self._decaying_norms(norms_path)
        ledger = tmp_path / "fits.csv"
        ledger.write_text("")
        for _ in range(2):
            assert main(["fit", str(norms_path), "L2_u", "--window-lo", "10",
                         "--window-hi", "50", "--ledger", str(ledger)]) == 0
        with open(ledger, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["norms", "column", "exponent"]
        assert [row[0] for row in rows[1:]] == [str(norms_path)] * 2


def strict_json(path):
    """json.loads that rejects NaN, Infinity and -Infinity."""
    def reject(name):
        raise ValueError(f"{path}: {name} is not standard JSON")
    return json.loads(path.read_text(), parse_constant=reject)


class TestStrictJson:
    @pytest.mark.parametrize("threshold", [None, 1e3, math.inf])
    def test_written_json_is_standard(self, tmp_path, capsys, threshold):
        # an infinite threshold once ran and wrote Infinity into every manifest
        solver = dict(small_config_doc(tmp_path)["solver"], blowup_threshold=threshold)
        path, doc = write_config(tmp_path, solver=solver)
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"base": doc, "sweep": {"data.u0.amplitude": [0.01, 0.02]}}))
        out = tmp_path / "out"
        codes = [main(["semilinear", "--config", str(path), "--out", str(out / "semilinear")]),
                 main(["linear-decay", "--config", str(path), "--out", str(out / "linear"),
                       "--window-lo", "1", "--window-hi", "4"]),
                 main(["sweep", "--config", str(sweep), "--out", str(out / "sweep")])]
        written = sorted(out.rglob("*.json"))
        for name in written:
            strict_json(name)
        if threshold == math.inf:
            assert codes == [2, 2, 1] and written == []
            assert "blowup_threshold must be positive and finite" in capsys.readouterr().err
        else:
            assert codes == [0, 0, 0] and len(written) == 4


# each table the CLI writes: its path in the fixture's tree, its documented
# header and the indices of its float columns
TABLES = {
    "norms.csv": ("semilinear/norms.csv",
                  ["t", "L2_u", "Hr_u", "L2_ut", "Hrs_ut", "Linf_u", "energy"], range(7)),
    "fit.csv": ("linear/fit.csv",
                ["column", "exponent", "predicted", "tolerance", "window_lo", "window_hi",
                 "residual_rms", "passed"], range(1, 7)),
    "functional.csv": ("semilinear/functional.csv",
                       ["R", "I_R", "J_R", "g", "G", "verdict"], range(5)),
    "inequalities.csv": ("inequalities/inequalities.csv",
                         ["check", "max_ratio", "max_ratio_refined", "growth"], range(1, 4)),
    "fits.csv": ("fits.csv",
                 ["norms", "column", "exponent", "log_amplitude", "residual_rms", "window_lo",
                  "window_hi", "predicted", "tolerance", "verdict"], range(2, 9)),
    "summary.csv": ("sweep/summary.csv",
                    ["data.u0.amplitude", "solver.dt", "run_dir", "status", "error",
                     "blowup_time", "blowup_reason", "rows", "final_L2_u"], (0, 1, 5, 8)),
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """The six tables, written by one run of each command (two fit appends)."""
    out = tmp_path_factory.mktemp("tables")
    solver = dict(small_config_doc(out)["solver"], store_fields=True)
    path, doc = write_config(out, solver=solver)
    sweep = out / "sweep.json"
    sweep.write_text(json.dumps({"base": doc, "sweep": {"data.u0.amplitude": [0.01, 0.02],
                                                        "solver.dt": [0.05, -1.0]}}))
    norms_csv = str(out / "semilinear" / "norms.csv")
    fit = ["fit", norms_csv, "L2_u", "--window-lo", "1", "--window-hi", "4",
           "--ledger", str(out / "fits.csv")]
    codes = [main(["semilinear", "--config", str(path), "--out", str(out / "semilinear")]),
             main(["blowup-scan", str(out / "semilinear")]),
             main(["linear-decay", "--config", str(path), "--out", str(out / "linear"),
                   "--window-lo", "1", "--window-hi", "4"]),
             main(["check-inequalities", "--fields", "3", "--N", "64", "--kmax", "8",
                   "--out", str(out / "inequalities")]),
             main(fit),
             main(fit + ["--predicted", "-0.25"]),
             main(["sweep", "--config", str(sweep), "--out", str(out / "sweep")])]
    assert codes == [0, 0, 0, 0, 0, 0, 1]
    return out


class TestTables:
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_header_and_floats_read_back_exactly(self, tables, name):
        path, header, float_columns = TABLES[name]
        with open(tables / path, newline="") as fh:
            head, *body = list(csv.reader(fh))
        assert head == header and body
        for row in body:
            assert len(row) == len(header)
            cells = [row[j] for j in float_columns if row[j] != ""]
            assert cells == [repr(float(cell)) for cell in cells]


class TestReproducibility:
    def test_bit_identical_norms_from_persisted_config(self, tmp_path):
        # a run re-created from the manifest of a previous run reproduces
        # norms.csv byte for byte
        path, _ = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        config = RunConfig.load(path)
        run_semilinear(config, out1, "semilinear")
        persisted, _ = load_run(out1)
        run_semilinear(persisted, out2, "semilinear")
        assert (out1 / "norms.csv").read_bytes() == (out2 / "norms.csv").read_bytes()


class TestSweep:
    def test_sweep_summary_matches_members(self, tmp_path):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        sweep_doc = {"base": base,
                     "sweep": {"data.u0.amplitude": [0.01, 0.02],
                               "params.p": [2.5, 3.0]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        rc = main(["sweep", "--config", str(cfg), "--workers", "2"])
        assert rc == 0
        summary = (tmp_path / "sw" / "summary.csv").read_text().strip().splitlines()
        assert len(summary) == 5
        for line in summary[1:]:
            cells = line.split(",")
            rundir = cells[2]
            _, traj = load_run(rundir)
            assert cells[-1] == repr(float(traj.column("L2_u")[-1]))
            with open(os.path.join(rundir, "manifest.json")) as fh:
                member = json.load(fh)
            assert member["config"]["data"]["u0"]["amplitude"] == float(cells[0])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_member_recorded_not_fatal(self, tmp_path, capsys, workers):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        missing = str(tmp_path / "missing.bin")
        sweep_doc = {"base": base,
                     "sweep": {"data.u0": [base["data"]["u0"],
                                           {"family": "from-file", "path": missing}]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg), "--workers", str(workers)]) == 1
        assert missing in capsys.readouterr().err
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error"]
        ok, bad = rows
        assert ok["error"] == "" and int(ok["rows"]) > 0
        _, traj = load_run(ok["run_dir"])
        assert ok["final_L2_u"] == repr(float(traj.column("L2_u")[-1]))
        assert missing in bad["error"]
        assert bad["run_dir"].endswith("member_0001")
        assert bad["rows"] == bad["final_L2_u"] == ""

    @pytest.mark.parametrize("axis,error", [
        ({"solver.dt": [0.05, -1.0]},
         "solver.dt=-1.0: config section 'solver': dt must be positive"),
        # a modulus key that is no string once aborted the sweep in a traceback
        ({"mu": ["hoelder:0.5", 7]}, "mu=7: config key 'mu' must be a string, not 7"),
        # a step count beyond any array once aborted the sweep in a traceback
        ({"solver.dt": [0.05, 1e-300]}, "solver.dt=1e-300: config section 'solver': "
                                        "t_end / dt = 1e+300 steps exceeds "
                                        "the maximum of 1000000000; raise dt or shorten t_end"),
    ], ids=["dt", "mu", "tiny-dt"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_member_recorded_not_fatal(self, tmp_path, capsys, workers, axis, error):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        sweep_doc = {"base": base, "sweep": axis, "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg), "--workers", str(workers)]) == 1
        err = capsys.readouterr().err
        assert error in err
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error"]
        ok, bad = rows
        assert int(ok["rows"]) > 0
        assert bad["error"] == error
        assert bad["run_dir"].endswith("member_0001")

    def test_member_beyond_the_size_maximum_recorded(self, tmp_path, capsys):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        sweep_doc = {"base": base, "sweep": {"grid.N": [256, 2 ** 40], "solver.dt": [0.05, 1e-7]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err.count("error: sweep member") == 3
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error", "error", "error"]
        assert "record 2500001 rows, over the maximum" in rows[1]["error"]
        assert all(f"grid.N = {2 ** 40} in 1D" in r["error"] for r in rows[2:])

    @staticmethod
    def _three_member_sweep(tmp_path):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": base, "sweep": {"params.p": [2.5, 3.0, 3.5]},
                                   "output_dir": str(tmp_path / "sw")}))
        return cfg

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_2(self, tmp_path, capsys, workers):
        # they once ran the sweep serially without a word
        cfg = self._three_member_sweep(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--workers", workers]) == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "sw").exists()

    # (--workers, os.cpu_count(), the pool's max_workers or None for a serial
    # sweep) on three members
    @pytest.mark.parametrize("workers,cpus,pool", [
        ("5000", 8, 3), ("2", 8, 2), ("5000", 2, 2), ("5000", None, None), ("1", 8, None),
        ("2", 1, None),
    ])
    def test_pool_is_bounded_by_members_and_cpus(self, tmp_path, monkeypatch, workers,
                                                  cpus, pool):
        # a pool forks all its max_workers processes at the first submit; this
        # one records the size and runs the members in this process
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        # sweep imports concurrent.futures when it runs: the same module object
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cfg = self._three_member_sweep(tmp_path)
        assert main(["sweep", "--config", str(cfg), "--workers", workers]) == 0
        assert sizes == ([] if pool is None else [pool])
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            assert [r["status"] for r in csv.DictReader(fh)] == ["ok"] * 3

    def test_fractional_stride_member_recorded(self, tmp_path, capsys):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        sweep_doc = {"base": base, "sweep": {"solver.snapshot_stride": [2, 2.5]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg)]) == 1
        capsys.readouterr()
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error"]
        assert rows[1]["error"] == ("solver.snapshot_stride=2.5: config section 'solver': "
                                    "snapshot_stride must be a positive integer")

    def test_member_escaping_at_t0_recorded(self, tmp_path):
        # a threshold below sup |u0| ends the run before its first row
        base = small_config_doc(tmp_path)
        base["solver"].update(t_end=1.0, blowup_threshold=0.001)
        sweep_doc = {"base": base, "sweep": {"params.p": [3.0]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg)]) == 0
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["status"] == "ok" and row["blowup_reason"] == "escape"
        assert row["blowup_time"] == "0.0" and row["rows"] == "0" and row["final_L2_u"] == ""


def _package_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(sigmaevo.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])), **extra)


def test_cli_import_leaves_scipy_unloaded():
    # scipy was most of the import time, and of a mu-classify run, whose
    # tail criterion once integrated with scipy's quad
    env = _package_env()
    code = ("import sys\nfrom sigmaevo.cli import main\n"
            "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(scipy())\n"
            "status = main(['mu-classify', 'log-power:1'])\n"
            "print(status, scipy())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "[]" and out[-1] == "0 []"


def test_module_entry_point_exits_with_the_command_status(tmp_path):
    # python -m sigmaevo.cli hands main's status to the shell; a user error
    # is one stderr line, with no traceback
    env = _package_env()
    rates = subprocess.run([sys.executable, "-m", "sigmaevo.cli", "rates"], env=env,
                           capture_output=True, text=True)
    assert rates.returncode == 0 and rates.stdout.startswith("parameters: ")
    missing = subprocess.run([sys.executable, "-m", "sigmaevo.cli", "semilinear", "--config",
                              str(tmp_path / "missing.json")], env=env, capture_output=True,
                             text=True)
    assert missing.returncode == 2 and missing.stdout == ""
    assert len(missing.stderr.splitlines()) == 1 and missing.stderr.startswith("error:")
    assert "Traceback" not in missing.stderr


@pytest.mark.parametrize("command,store,loaded", [
    (["semilinear"], False, []),
    (["semilinear"], True, ["queue"]),
    (["linear-decay", "--window-lo", "1", "--window-hi", "4"], False, ["sigmaevo.analysis"]),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, command, store, loaded):
    # functional (blowup-scan), norms (check-inequalities), analysis (the
    # fits), concurrent.futures (a parallel sweep) and queue (a run that
    # stores its fields) load with their command
    solver = dict(small_config_doc(tmp_path)["solver"], store_fields=store)
    path, _ = write_config(tmp_path, solver=solver)
    env = _package_env()
    lazy = ["concurrent.futures", "queue", "sigmaevo.analysis", "sigmaevo.functional",
            "sigmaevo.norms"]
    code = ("import sys; from sigmaevo.cli import main; "
            f"assert main({command + ['--config', str(path)]!r}) == 0; "
            f"print([m for m in {lazy!r} if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == repr(loaded)


@pytest.mark.parametrize("command", [
    ["semilinear"], ["linear-decay", "--window-lo", "1", "--window-hi", "4"]])
def test_command_builds_each_datum_once(tmp_path, monkeypatch, command):
    # mean_u1 in manifest.json is taken from the data the run is given
    path, _ = write_config(tmp_path, data={
        "u0": {"family": "gaussian", "amplitude": 0.01, "width": 1.0, "center": 0.0},
        "u1": {"family": "cosine-bump", "amplitude": 0.02, "width": 2.0, "center": 0.5}})
    config = RunConfig.load(path)
    built = []
    build = DataSpec.build
    monkeypatch.setattr(DataSpec, "build", lambda self, g: built.append(self) or build(self, g))
    assert main(command + ["--config", str(path)]) == 0
    assert built == [config.u0, config.u1]
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["mean_u1"] == float(np.mean(build(config.u1, config.grid)))


def test_norm_rows_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the norm sums once went through a BLAS dot, which OpenBLAS splits
    # across threads on a 256^2 half spectrum: the last digits of norms.csv
    # then changed with OPENBLAS_NUM_THREADS
    commands = {"linear-decay": ["--window-lo", "1", "--window-hi", "4"], "semilinear": []}
    for command, target in zip(commands, ("on_u", "on_ut")):
        doc = small_config_doc(tmp_path)
        doc["params"].update(n=2, sigma=2, r=1.5, target=target)
        doc["grid"] = {"n": 2, "N": 256, "L": 40.0}
        doc["solver"].update(t_end=5.0 if command == "linear-decay" else 1.0)
        doc["data"]["u1"] = {"family": "gaussian", "amplitude": 0.01, "width": 2.0,
                             "center": 0.5}
        (tmp_path / f"{command}.json").write_text(json.dumps(doc))
    norms = {}
    for threads in ("1", "2"):
        argvs = [[command, "--config", str(tmp_path / f"{command}.json"),
                  "--out", str(tmp_path / threads / command)] + extra
                 for command, extra in commands.items()]
        code = f"from sigmaevo.cli import main; assert [main(a) for a in {argvs!r}] == [0, 0]"
        subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                       env=_package_env(OPENBLAS_NUM_THREADS=threads))
        norms[threads] = [(tmp_path / threads / command / "norms.csv").read_bytes()
                          for command in commands]
    assert norms["1"] == norms["2"]


class TestOtherDimensions:
    """The commands end to end off 1D: a 3D run of 1D data, and a 2D scan."""

    N, L = 16, 10.0

    def lifted_config(self, tmp_path, n):
        """A config of n-D data that vary along the first axis only, both
        read from field files: u0 and u1 Gaussians of the 1D run's coordinate."""
        grid = GridSpec(n, self.N, self.L)
        x = grid.axis().reshape((-1,) + (1,) * (n - 1))
        data = {}
        for name, amplitude, center in (("u0", 0.3, 0.0), ("u1", 1.5, 0.5)):
            field = np.broadcast_to(amplitude * np.exp(-((x - center) / 1.5) ** 2), grid.shape)
            path = tmp_path / f"{name}-{n}d.bin"
            write_field(path, np.ascontiguousarray(field), grid)
            data[name] = {"family": "from-file", "path": str(path)}
        doc = small_config_doc(tmp_path, params={"sigma": 2, "delta": 0.5, "m": 1, "n": n,
                                                 "p": 3, "target": "on_u", "r": 2},
                               mu="log-log-lip:2", grid={"n": n, "N": self.N, "L": self.L},
                               data=data)
        doc["solver"].update(dt=0.01, t_end=2.0, snapshot_stride=10)
        path = tmp_path / f"config-{n}d.json"
        path.write_text(json.dumps(doc))
        return path

    @pytest.mark.filterwarnings("ignore:parameters outside")
    @pytest.mark.parametrize("command,extra", [
        ("linear-decay", ["--window-lo", "0.5", "--window-hi", "2"]), ("semilinear", [])])
    def test_3d_run_of_lifted_data_has_the_1d_rows(self, tmp_path, command, extra):
        # the L2-type columns scale by (2L)^((n-1)/2), Linf_u by 1, energy by (2L)^(n-1)
        norms = {}
        for n in (1, 3):
            out = tmp_path / f"{command}-{n}d"
            argv = [command, "--config", str(self.lifted_config(tmp_path, n)),
                    "--out", str(out)]
            assert main(argv + extra) == 0
            norms[n] = read_norms_csv(str(out / "norms.csv"))
        (header, one_d), (header_3d, three_d) = norms[1], norms[3]
        assert header == header_3d == ["t", "L2_u", "Hr_u", "L2_ut", "Hrs_ut", "Linf_u",
                                       "energy"]
        assert len(one_d) == 21
        s = 2 * self.L
        scale = np.array([1.0, s, s, s, s, 1.0, s * s])
        np.testing.assert_allclose(three_d / scale, one_d, rtol=1e-13, atol=0.0)

    @pytest.mark.filterwarnings("ignore:parameters outside")
    def test_2d_blowup_scan_meets_the_weak_form_identity(self, tmp_path):
        # with u0 = 0, testing the on_ut equation against phi_R gives
        # J_R = I_R + integral of u1 phi_R(0) when p is the p0 of I_R's
        # weight (1 + sigma / n = 2 here).  The rest is the time quadrature's
        # error: at most 2.5e-3 of the data term at snapshot spacing 0.01,
        # 1.0e-2 at 0.02 and 3.6e-2 at 0.04, the same at a tenth of u1
        # (where I_R is 30 times smaller)
        doc = small_config_doc(tmp_path, params={"sigma": 2, "delta": 1, "m": 1, "n": 2,
                                                 "p": 2, "target": "on_ut", "r": 2},
                               mu="log-power:1", grid={"n": 2, "N": 32, "L": 12.0},
                               data={"u0": {"family": "zero"},
                                     "u1": {"family": "gaussian", "amplitude": 0.05,
                                            "width": 1.0, "center": 0.0}})
        doc["solver"].update(dt=0.01, t_end=4.0, snapshot_stride=1, store_fields=True)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        rundir = tmp_path / "scan"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        assert main(["blowup-scan", str(rundir)]) == 0
        header, *rows = csv.reader((rundir / "functional.csv").read_text().splitlines())
        assert header == ["R", "I_R", "J_R", "g", "G", "verdict"]
        table = np.array([[float(v) for v in row[:5]] for row in rows])
        assert table.shape == (10, 5) and np.all(np.isfinite(table))
        config, _ = load_run(str(rundir))
        grid = config.grid
        spec = TestFunctionSpec.for_params(config.params, table[:, 0])
        u1 = config.u1.build(grid)
        D = np.array([np.sum(u1 * phi_R(0.0, grid.radius(), R, spec, 2)) * grid.cell_volume
                      for R in spec.R_values])
        residual = np.abs(table[:, 2] - table[:, 1] - D) / np.abs(D)
        assert np.all(residual < 5e-3), residual


class TestOutputIsAFile:
    """An output directory that names an existing file, or lies under one,
    exits 2 before any work with the option and the path in the message, and
    leaves the file as it was."""

    @pytest.fixture
    def afile(self, tmp_path):
        path = tmp_path / "afile"
        path.write_text("kept")
        return path

    @staticmethod
    def check(argv, afile, capsys, option="--out"):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"error: {option} " in err and str(afile) in err and "Errno" not in err
        assert afile.read_text() == "kept"

    def test_semilinear(self, tmp_path, capsys, afile):
        path, _ = write_config(tmp_path)
        self.check(["semilinear", "--config", str(path), "--out", str(afile)], afile, capsys)

    def test_semilinear_default_directory(self, tmp_path, capsys, afile, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(afile))
        path, _ = write_config(tmp_path, output_dir=None)
        self.check(["semilinear", "--config", str(path)], afile, capsys, "output directory")

    def test_linear_decay(self, tmp_path, capsys, afile):
        path, _ = write_config(tmp_path, output_dir=str(afile / "run"))
        self.check(["linear-decay", "--config", str(path)], afile, capsys,
                   "config key 'output_dir'")

    def test_blowup_scan(self, tmp_path, capsys, afile):
        solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
        path, _ = write_config(tmp_path, solver=solver)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        capsys.readouterr()
        self.check(["blowup-scan", str(rundir), "--out", str(afile)], afile, capsys)
        assert not (rundir / "functional.csv").exists()

    def test_sweep(self, tmp_path, capsys, afile):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"base": small_config_doc(tmp_path),
                                   "sweep": {"params.p": [2.5, 3.0]}}))
        self.check(["sweep", "--config", str(cfg), "--out", str(afile)], afile, capsys)

    def test_check_inequalities(self, capsys, afile):
        self.check(["check-inequalities", "--fields", "1", "--out", str(afile)], afile, capsys)

    def test_dangling_link(self, tmp_path, capsys):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "nowhere")
        assert main(["check-inequalities", "--fields", "1", "--out", str(link)]) == 2
        err = capsys.readouterr().err
        assert "error: --out " in err and str(link) in err and "Errno" not in err
        assert link.is_symlink() and not (tmp_path / "nowhere").exists()


def test_loaded_stack_reads_rows_into_one_buffer(tmp_path):
    solver = dict(small_config_doc(tmp_path)["solver"], store_fields=True)
    path, _ = write_config(tmp_path, solver=solver)
    assert main(["semilinear", "--config", str(path), "--out", str(tmp_path / "saved")]) == 0
    _, loaded = load_run(tmp_path / "saved")
    for name, stack in (("u", loaded.snapshots_u), ("ut", loaded.snapshots_ut)):
        buffer = np.empty(loaded.grid.shape)
        for i in range(len(stack)):
            assert stack.read_into(i, buffer) is buffer
            assert np.array_equal(buffer, stack[i])
        with pytest.raises(ParameterError, match=f"/{name}_000000.bin"):
            stack.read_into(0, np.empty(2 * loaded.grid.N))
