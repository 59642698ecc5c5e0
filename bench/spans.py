"""Outside-in span tracer for the sigmaevo benchmark.

Spans are recorded by wrappers installed at the attribute through which each
call is looked up (a class attribute, a module global, or a name bound into
another module at import), so the package itself carries no instrumentation.
``Tracer.installed`` puts the wrappers in place and restores the originals on
exit.  Spans stay in memory until the caller writes them out.

A span is ``[name, job, start, end, parent, counts]``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``counts`` is an optional dict of
work counters (bytes, flops, points) computed from the call's arguments and
result after the span's clock has stopped.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time
from collections import defaultdict

NAME, JOB, START, END, PARENT, COUNTS = range(6)

JOB_SPAN = "job"


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.job = None
        self._stack = []
        self._installed = []

    def wrap(self, name, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(args, kwargs, result)``
        may return a dict of work counters for the span."""
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, self.job, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if count is not None:
                rec[COUNTS] = count(args, kwargs, result)
            return result

        return traced

    def install(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` (class or module) by a traced wrapper."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, count))
        else:
            replacement = self.wrap(name, original, count)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, targets):
        """Install ``(owner, attr, name, count)`` targets for the block."""
        try:
            for target in targets:
                self.install(*target)
            yield self
        finally:
            self.restore()

    def run_job(self, job, fn, *args):
        """Call ``fn(*args)`` under a root span shared by every span of ``job``."""
        self.job = job
        try:
            return self.wrap(JOB_SPAN, fn)(*args)
        finally:
            self.job = None

    def to_json(self) -> list:
        return [{"name": s[NAME], "job": s[JOB], "start": s[START], "end": s[END],
                 "parent": s[PARENT], **({"counts": s[COUNTS]} if s[COUNTS] else {})}
                for s in self.spans]


def self_times(spans) -> list:
    """Per span: its duration minus the time its child spans cover.

    Spans come from one thread, so the children of a span never overlap and
    the covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def _has_ancestor(spans, i, name) -> bool:
    i = spans[i][PARENT]
    while i >= 0:
        if spans[i][NAME] == name:
            return True
        i = spans[i][PARENT]
    return False


def layer_of(name: str) -> str:
    """Layer that owns a span: ``fft_kernel`` stands alone, otherwise the
    module prefix; the job root's own time is the harness's."""
    if name == JOB_SPAN:
        return "harness"
    return name if name == "fft_kernel" else name.split(".", 1)[0]


def summarize_job(spans, job) -> dict:
    """Counters of one job: ``<span>.calls``, ``<span>.self_s``, summed work
    counters, derived step counts and per-layer self-time shares."""
    idx = [i for i, s in enumerate(spans) if s[JOB] == job]
    local = {g: k for k, g in enumerate(idx)}   # parents re-indexed into the job's list
    sub = [[*spans[i][:PARENT], local.get(spans[i][PARENT], -1), spans[i][COUNTS]]
           for i in idx]
    selfs = self_times(sub)
    out = defaultdict(float)
    layer_self = defaultdict(float)
    total = 0.0
    steps = transforms = 0
    for i, (s, self_s) in enumerate(zip(sub, selfs)):
        name = s[NAME]
        if name == JOB_SPAN:
            total += s[END] - s[START]
        else:
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_s
        layer_self[layer_of(name)] += self_s
        for key, value in (s[COUNTS] or {}).items():
            out[f"{name}.{key}"] += value
        if name == "spectral.propagator_apply" and _has_ancestor(sub, i, "solver.simulate"):
            steps += 1
        if name in ("spectral.fft", "spectral.ifft") and _has_ancestor(sub, i, "solver.simulate"):
            transforms += 1
    out["solver.steps"] = steps
    out["spectral.transforms_per_step"] = transforms / steps if steps else 0.0
    for layer, value in layer_self.items():
        out[f"share.{layer}"] = value / total if total > 0 else 0.0
    out["job.wall_s"] = total
    return dict(out)


# -- what to wrap in sigmaevo ---------------------------------------------------

_COMPLEX_FFTS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
_REAL_FFTS = ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")
_FFT_DEFAULT_AXES = {"": (-1,), "2": (-2, -1), "n": None}


def _fft_counter(fname: str):
    """Bytes in+out and flops of one numpy.fft call.

    flops = 5 M log2 M per complex transform of M points and half that per
    real one, times the number of transforms in the batch.  M is taken from
    the real-space side (the output of c2c and c2r, the input of r2c).
    """
    import numpy as np

    real = fname in _REAL_FFTS
    suffix = fname[-1] if fname[-1] in "2n" else ""
    key = "axis" if suffix == "" else "axes"
    default = _FFT_DEFAULT_AXES[suffix]
    factor = 2.5 if real else 5.0
    space_is_input = fname.startswith("rfft")

    def count(args, kwargs, result):
        a = np.asarray(args[0])
        axes = kwargs.get(key, args[2] if len(args) > 2 else default)
        space = a if space_is_input else result
        if axes is None:
            axes = range(space.ndim)
        elif isinstance(axes, int):
            axes = (axes,)
        M = math.prod(space.shape[ax] for ax in axes)
        batch = space.size // M if M else 0
        flops = factor * M * math.log2(M) * batch if M > 1 else 0.0
        return {"bytes": a.nbytes + result.nbytes, "flops": flops}

    return count


def _points(args, kwargs, result):
    return {"points": result.size if hasattr(result, "size") else 1}


def _bytes_written(args, kwargs, result):
    return {"bytes": args[1].nbytes}


def _bytes_read(args, kwargs, result):
    return {"bytes": result[0].nbytes}


def sigmaevo_targets() -> list:
    """Every ``(owner, attr, span, count)`` the traced run installs."""
    import numpy.fft

    from sigmaevo import analysis, cli, functional, modulus, solver, spectral

    targets = [
        (spectral.GridSpec, "fft", "spectral.fft", None),
        (spectral.GridSpec, "ifft", "spectral.ifft", None),
        (spectral.MultiplierCache, "build", "spectral.multiplier_cache_build", None),
        (spectral.Propagator, "build", "spectral.propagator_build", None),
        (spectral.Propagator, "apply", "spectral.propagator_apply", None),
        (spectral, "spectral_l2", "spectral.spectral_l2", None),
        (solver, "spectral_l2", "spectral.spectral_l2", None),
        (cli, "write_field", "spectral.write_field", _bytes_written),
        (cli, "read_field", "spectral.read_field", _bytes_read),
        (modulus.ModulusSpec, "evaluate", "modulus.evaluate", _points),
        (cli, "simulate", "solver.simulate", None),
        (cli, "simulate_linear", "solver.simulate_linear", None),
        (cli, "main", "cli.main", None),
        (cli, "save_run", "cli.save_run", None),
        (cli, "load_run", "cli.load_run", None),
        (cli, "write_norms_csv", "cli.write_norms_csv", None),
        (analysis, "fit_decay", "analysis.fit_decay", None),
    ]
    for fname in ("compute_I_R", "compute_J_R", "compute_g", "compute_G", "psi",
                  "phi_R", "phi_star_R", "time_derivative"):
        targets.append((functional, fname, f"functional.{fname}", None))
    for fname in _COMPLEX_FFTS + _REAL_FFTS:
        targets.append((numpy.fft, fname, "fft_kernel", _fft_counter(fname)))
    return targets


SPAN_NAMES = (
    "fft_kernel", "spectral.fft", "spectral.ifft", "spectral.propagator_build",
    "spectral.multiplier_cache_build", "spectral.propagator_apply",
    "spectral.spectral_l2", "spectral.write_field", "spectral.read_field",
    "modulus.evaluate", "solver.simulate", "solver.simulate_linear",
    "functional.compute_I_R", "functional.compute_J_R", "functional.compute_g",
    "functional.compute_G", "functional.psi", "functional.phi_R",
    "functional.phi_star_R", "functional.time_derivative",
    "cli.main", "cli.save_run", "cli.load_run", "cli.write_norms_csv",
    "analysis.fit_decay",
)
EXTRA_COUNTERS = (
    ("fft_kernel.bytes", "B"), ("fft_kernel.flops", "flop"),
    ("spectral.write_field.bytes", "B"), ("spectral.read_field.bytes", "B"),
    ("modulus.evaluate.points", "count"), ("solver.steps", "count"),
    ("spectral.transforms_per_step", "count"),
)
LAYERS = ("fft_kernel", "spectral", "modulus", "solver", "functional", "cli", "analysis")
