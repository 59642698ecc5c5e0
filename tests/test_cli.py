import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import sigmaevo
from sigmaevo import cli
from sigmaevo.cli import (DataSpec, RunConfig, load_run, main, read_norms_csv,
                          run_semilinear, save_run, write_norms_csv)
from sigmaevo.errors import ConfigError
from sigmaevo.modulus import classify_integral_criterion


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
        traj = run_semilinear(config)
        outdir = tmp_path / "saved"
        save_run(outdir, config, traj)
        config2, traj2 = load_run(outdir)
        assert config2.to_dict() == config.to_dict()
        assert np.array_equal(traj2.times, traj.times)
        assert traj2.norms == pytest.approx(traj.norms, rel=1e-15)
        assert np.array_equal(traj2.snapshots_u, traj.snapshots_u)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "u1_mean_positive" in manifest

    def test_save_run_builds_u1_once(self, tmp_path, monkeypatch):
        path, _ = write_config(tmp_path, data={
            "u0": {"family": "zero"},
            "u1": {"family": "gaussian", "amplitude": 0.01, "width": 1.0, "center": 0.0}})
        config = RunConfig.load(path)
        traj = run_semilinear(config)
        built = []
        build = DataSpec.build
        monkeypatch.setattr(DataSpec, "build", lambda self, g: built.append(self) or build(self, g))
        save_run(tmp_path / "saved", config, traj)
        assert built == [config.u1]
        manifest = json.loads((tmp_path / "saved" / "manifest.json").read_text())
        assert manifest["mean_u1"] > 0 and manifest["u1_mean_positive"] is True

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
        ("params", "p", float("nan"), "p must be finite and exceed 1"),
        ("params", "p", float("inf"), "p must be finite and exceed 1"),
        ("params", "r", float("nan"), "r must be finite and nonnegative"),
        ("params", "r", float("inf"), "r must be finite and nonnegative"),
        ("params", "sigma", float("nan"), "sigma must be finite and >= 1"),
        ("params", "sigma", float("inf"), "sigma must be finite and >= 1")])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, section, key, value, named):
        # NaN dt or t_end, an infinite t_end, r or sigma ended in tracebacks; a
        # NaN p recorded a false blow-up and a NaN threshold could never escape
        doc = small_config_doc(tmp_path)
        doc[section][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["semilinear", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_non_finite_modulus_config_exits_2(self, tmp_path, capsys):
        # log-power:nan once ran and recorded a false blow-up
        path, _ = write_config(tmp_path, mu="log-power:nan")
        assert main(["semilinear", "--config", str(path)]) == 2
        assert "'log-power:nan'" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_sweep_config_named_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["sweep", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err and str(missing) in err

    def test_bad_sweep_path_named_cleanly(self, tmp_path, capsys):
        sweep_doc = {"base": small_config_doc(tmp_path),
                     "sweep": {"data.u9.amplitude": [0.01]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "data.u9.amplitude" in err and "'u9'" in err

    def test_blowup_scan_missing_rundir_named_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        assert main(["blowup-scan", str(missing)]) == 2
        assert str(missing / "manifest.json") in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["corrupt-manifest", "manifest-without-config",
                                        "missing-norms"])
    def test_blowup_scan_damaged_rundir_named_cleanly(self, tmp_path, capsys, damage):
        path, _ = write_config(tmp_path)
        rundir = tmp_path / "run"
        assert main(["semilinear", "--config", str(path), "--out", str(rundir)]) == 0
        manifest = rundir / "manifest.json"
        if damage == "corrupt-manifest":
            manifest.write_text("{not json")
            named = str(manifest)
        elif damage == "manifest-without-config":
            manifest.write_text(json.dumps({"version": "0"}))
            named = "missing key 'config'"
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


class TestReproducibility:
    def test_bit_identical_norms_from_persisted_config(self, tmp_path):
        # a run re-created from the manifest of a previous run reproduces
        # norms.csv byte for byte
        path, _ = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        config = RunConfig.load(path)
        save_run(out1, config, run_semilinear(config))
        persisted, _ = load_run(out1)
        save_run(out2, persisted, run_semilinear(persisted))
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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_invalid_member_recorded_not_fatal(self, tmp_path, capsys, workers):
        base = small_config_doc(tmp_path)
        base["solver"]["t_end"] = 1.0
        sweep_doc = {"base": base, "sweep": {"solver.dt": [0.05, -1.0]},
                     "output_dir": str(tmp_path / "sw")}
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps(sweep_doc))
        assert main(["sweep", "--config", str(cfg), "--workers", str(workers)]) == 1
        err = capsys.readouterr().err
        assert "solver.dt=-1.0: dt must be positive" in err
        with open(tmp_path / "sw" / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["status"] for r in rows] == ["ok", "error"]
        ok, bad = rows
        assert int(ok["rows"]) > 0
        assert bad["error"] == "solver.dt=-1.0: dt must be positive"
        assert bad["run_dir"].endswith("member_0001")

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
        assert rows[1]["error"] == ("solver.snapshot_stride=2.5: "
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


def test_cli_import_leaves_scipy_unloaded():
    # scipy is most of the import time, and only mu-classify needs it
    src = os.path.dirname(os.path.dirname(sigmaevo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    code = ("import sys, sigmaevo.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
