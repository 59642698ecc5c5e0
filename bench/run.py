"""Benchmark of the sigmaevo CLI: three closed-loop workloads, end to end and by layer.

Run from the root of a checkout (the directory holding ``src/sigmaevo``):

    python3 bench/run.py --workload semilinear-2d --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 20 --trace 0

One client in one process runs one CLI job at a time through
``sigmaevo.cli.main`` until ``--seconds`` have passed, each job in a fresh run
directory created and removed outside the timed region.  A warm-up job comes
first; every later job must reproduce its outputs bit for bit.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
jobs and reports per-span counters from the traced ones plus the tracing
overhead.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it name
every metric with its unit and record the environment.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# numpy's FFT is single-threaded; pin BLAS/OpenMP pools before numpy loads.
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

from spans import EXTRA_COUNTERS, LAYERS, SPAN_NAMES, Tracer, sigmaevo_targets, \
    summarize_job  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, argv, check_outputs, \
    summarize_outputs  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
SETUP_PROBES = 5     # fresh processes per run; setup_s is their median
MIN_JOBS = 3         # timed jobs per run (per side when tracing), whatever --seconds says

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Printed, but kept out of the JSON: each exists on some workloads only, and
# steps_per_s spread past the largest allowed bound between runs.
PRINTED_ONLY = {"steps_per_s": "1/s", "samples_per_s": "1/s", "scan_s": "s"}
PER_LAYER = {
    **{f"{s}.{k}": u for s in SPAN_NAMES for k, u in (("calls", "count"), ("self_s", "s"))},
    **dict(EXTRA_COUNTERS),
    **{f"share.{layer}": "ratio" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


class JobError(Exception):
    pass


class Jobs:
    """Runs the CLI jobs of one workload and checks every job's outputs."""

    def __init__(self, workload, config: dict, cfg_path: str, work: str,
                 reference: dict | None):
        self.workload, self.config = workload, config
        self.cfg_path, self.work, self.reference = cfg_path, work, reference
        self.attempted = self.failed = 0
        self._digest = None

    def commands(self, run: str) -> list:
        """Wall seconds of each CLI command of one job."""
        from sigmaevo import cli

        times = []
        for command in self.workload.commands:
            args = argv(command, self.cfg_path, run)
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(args)
                times.append(time.perf_counter() - t0)
            if code != 0:
                raise JobError(f"sigmaevo {args[0]} exited with {code}")
        return times

    def run(self, call=None) -> list | None:
        """One job; ``call(commands, run_dir)`` may wrap it (for tracing).
        Returns the per-command times, or None if the job failed."""
        run = tempfile.mkdtemp(prefix="run-", dir=self.work)
        self.attempted += 1
        try:
            times = (call or (lambda f, r: f(r)))(self.commands, run)
            errors = check_outputs(self.workload, self.config, run, self.reference)
            digest = _tree_digest(run)
            if self._digest is None:
                self._digest = digest
            elif digest != self._digest:
                errors.append("outputs differ from the first job of this run")
        except Exception:  # a failed job is counted, the run goes on
            times, errors = None, [traceback.format_exc()]
        finally:
            shutil.rmtree(run, ignore_errors=True)
        if errors:
            self.failed += 1
            print(f"job {self.attempted} failed: " + "; ".join(errors), file=sys.stderr)
            return None
        return times


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _loop(seconds: float, body, min_iterations: int = MIN_JOBS):
    """Call ``body()`` at least ``min_iterations`` times, and again while one
    more call is expected to end within ``seconds``."""
    start = time.perf_counter()
    last = 0.0
    count = 0
    while count < min_iterations or time.perf_counter() - start + last <= seconds:
        t0 = time.perf_counter()
        body()
        last = time.perf_counter() - t0
        count += 1


def measure_setup(cfg_path: str, src: str, probes: int) -> list:
    """``setup_s`` samples, each from a fresh interpreter, after one unmeasured
    probe that leaves the bytecode cache warm."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), cfg_path]
    out = []
    for i in range(probes + 1):
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        if i:
            out.append(float(proc.stdout.split()[-1]))
    return out


# -- environment record ----------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit(root: str) -> str:
    """HEAD of the checkout, read from its own .git directory if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(root: str) -> dict:
    import numpy
    import numpy.fft
    import scipy

    if "numpy.fft._pocketfft_umath" in sys.modules:
        backend = "pocketfft (C++ ufuncs)"
    elif "numpy.fft._pocketfft_internal" in sys.modules:
        backend = "pocketfft (C)"
    else:
        backend = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_fft_backend": f"{backend}, fftn from {numpy.fft.fftn.__module__}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": _git_commit(root),
    }


# -- one workload ------------------------------------------------------------------

def _quartiles(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"median of n={len(values)}, q1 {q1:.6g}, q3 {q3:.6g}"


def _timed(jobs: Jobs, workload, config: dict, seconds: float, setup: list) -> tuple:
    samples = []

    def body():
        times = jobs.run()
        if times is not None:
            samples.append(times)

    _loop(seconds, body)
    if not samples:
        return {}, []
    levels = workload.n_time_levels(config)
    rate = "samples_per_s" if workload.solver_command == "linear-decay" else "steps_per_s"
    series = {"job_s": [sum(t) for t in samples],
              rate: [levels / t[0] for t in samples],
              "setup_s": setup}
    if workload.name == "scan-1d":
        series["scan_s"] = [t[1] for t in samples]
    metrics = {k: statistics.median(v) for k, v in series.items()}
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    units = {**END_TO_END, **PRINTED_ONLY}
    lines = [f"  {k:<14} {metrics[k]:<12.6g} {units[k]:<5} {_quartiles(series[k])}"
             for k in series]
    lines.append(f"  {'peak_rss_mb':<14} {metrics['peak_rss_mb']:<12.6g} MB")
    return metrics, lines


def _traced(jobs: Jobs, seconds: float, trace_path: str, env: dict) -> tuple:
    tracer = Tracer()
    targets = sigmaevo_targets()
    plain, traced, summaries = [], [], []

    def traced_call(commands, run):
        with tracer.installed(targets):
            return tracer.run_job(jobs.attempted, commands, run)

    def body():
        times = jobs.run()
        if times is not None:
            plain.append(sum(times))
        times = jobs.run(traced_call)
        if times is not None:
            traced.append(sum(times))
            summaries.append(summarize_job(tracer.spans, jobs.attempted))

    _loop(seconds, body)
    with open(trace_path, "w") as fh:
        json.dump({"env": env, "spans": tracer.to_json()}, fh)
    if not summaries or not plain:
        return {}, []
    metrics = {k: statistics.median(s.get(k, 0.0) for s in summaries)
               for k in PER_LAYER if k != "trace.overhead_frac"}
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    shares = {layer: metrics[f"share.{layer}"] for layer in LAYERS}
    top_span = max(SPAN_NAMES, key=lambda s: metrics[f"{s}.self_s"])
    lines = [f"  traced jobs {len(summaries)}, untraced jobs {len(plain)}, "
             f"overhead {metrics['trace.overhead_frac']:+.4f}",
             "  self-time share by layer: " +
             ", ".join(f"{k} {v:.3f}" for k, v in sorted(shares.items(), key=lambda kv: -kv[1])),
             f"  largest self-time share: layer {max(shares, key=shares.get)}, span {top_span}",
             f"  spans written to {os.path.relpath(trace_path)}"]
    lines += [f"  {k:<40} {metrics[k]:<14.6g} {PER_LAYER[k]}"
              for k in PER_LAYER if metrics[k] != 0]
    return metrics, lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool,
                 root: str) -> int:
    workload = WORKLOADS[name]
    config = workload.config(seed, quick)
    reference = None
    if seed == DEFAULT_SEED and not quick:
        with open(REFERENCE) as fh:
            reference = json.load(fh)[name]
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir)
    try:
        cfg_path = os.path.join(work, "config.json")
        with open(cfg_path, "w") as fh:
            json.dump(config, fh, indent=2)
        env = environment(root)
        jobs = Jobs(workload, config, cfg_path, work, reference)
        jobs.run()  # warm-up: fills caches; later jobs must match its outputs
        if trace:
            trace_path = os.path.join(out_dir, f"trace-{name}-seed{seed}.json")
            metrics, lines = _traced(jobs, seconds, trace_path, env)
            units = PER_LAYER
        else:
            setup = measure_setup(cfg_path, os.path.join(root, "src"),
                                  1 if quick else SETUP_PROBES)
            metrics, lines = _timed(jobs, workload, config, seconds, setup)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"workload {name} seed {seed} trace {int(trace)}"
          f"{' quick' if quick else ''}: {json.dumps(config['data'])}")
    for line in lines:
        print(line)
    print(f"  {'fail_frac':<14} {jobs.failed / jobs.attempted:<12.6g} 1     "
          f"{jobs.failed} of {jobs.attempted} jobs failed")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": jobs.failed == 0 and bool(metrics),
        "attempted": jobs.attempted,
        "failed": jobs.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()
                    if k in metrics},
    }))
    return 0 if metrics else 1


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS stays its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            merged["correct"] = False
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def write_reference(root: str) -> int:
    """Store the default-seed outputs every later run is compared against."""
    refs = {}
    for name, workload in WORKLOADS.items():
        config = workload.config(DEFAULT_SEED)
        work = tempfile.mkdtemp(prefix="reference-", dir=root)
        try:
            cfg_path = os.path.join(work, "config.json")
            with open(cfg_path, "w") as fh:
                json.dump(config, fh)
            run = os.path.join(work, "run")
            Jobs(workload, config, cfg_path, work, None).commands(run)
            refs[name] = summarize_outputs(workload, run)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    with open(REFERENCE, "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE}")
    return 0


def main(argv_=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced grids for the harness self-test; not a measurement")
    parser.add_argument("--write-reference", action="store_true",
                        help="re-record the default-seed reference outputs and exit")
    args = parser.parse_args(argv_)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "sigmaevo", "cli.py")):
        print(f"error: no sigmaevo sources under {src}; run from the root of a "
              "sigmaevo checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.write_reference:
        return write_reference(root)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.quick, root)


if __name__ == "__main__":
    sys.exit(main())
