"""What the benchmark relies on, checked by the package's own suite.

The benchmark tracer wraps package names by lookup (``vars(owner)[attr]``),
and the benchmark checks every job's outputs against bench/reference.json.
Deleting or moving a traced name, or changing an output the reference pins
(or the run directory layout it counts), would otherwise only show up in a
benchmark run.
"""
import contextlib
import importlib.util
import io
import json
import os
import sys

import pytest

from sigmaevo import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def load_bench_module(name):
    """bench/<name>.py, loaded by path; registered in sys.modules first, as
    dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_bench_module("spans").sigmaevo_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert targets and not missing


@pytest.mark.parametrize("name", ["scan-1d", "linear-2d", "semilinear-2d"])
def test_default_seed_job_matches_the_reference(name, tmp_path):
    workloads = load_bench_module("workloads")
    workload = workloads.WORKLOADS[name]
    config = workload.config(workloads.DEFAULT_SEED)
    cfg_path, run = str(tmp_path / "config.json"), str(tmp_path / "run")
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    for command in workload.commands:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(workloads.argv(command, cfg_path, run)) == 0
    with open(os.path.join(BENCH, "reference.json")) as fh:
        reference = json.load(fh)[name]
    assert workloads.check_outputs(workload, config, run, reference) == []
