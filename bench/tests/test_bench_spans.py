"""Tracer tests on synthetic call trees (no sigmaevo code involved)."""
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from spans import END, NAME, PARENT, START, Tracer, self_times, summarize_job  # noqa: E402


class FakeClock:
    """Advances by a fixed tick on each read and by ``work(dt)`` on demand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 0.001
        return self.now

    def work(self, dt):
        self.now += dt


def _tree(tracer, clock):
    """root -> (a -> (b, b), c -> b); each body does known work."""
    def b():
        clock.work(0.5)

    def a():
        clock.work(1.0)
        wb()
        wb()

    def c():
        clock.work(2.0)
        wb()

    wb = tracer.wrap("layer.b", b)
    wa = tracer.wrap("layer.a", a)
    wc = tracer.wrap("other.c", c)

    def root():
        clock.work(0.25)
        wa()
        wc()

    return root


def test_self_plus_child_times_add_up_to_root():
    clock = FakeClock()
    tracer = Tracer(clock)
    tracer.run_job(7, _tree(tracer, clock))
    spans = tracer.spans
    assert [s[NAME] for s in spans] == ["job", "layer.a", "layer.b", "layer.b",
                                        "other.c", "layer.b"]
    assert all(s[1] == 7 for s in spans)
    root = spans[0]
    selfs = self_times(spans)
    assert sum(selfs) == pytest.approx(root[END] - root[START], abs=1e-12)
    for i, s in enumerate(spans):
        children = sum(c[END] - c[START] for c in spans if c[PARENT] == i)
        assert selfs[i] + children == pytest.approx(s[END] - s[START], abs=1e-12)
    # known work shows up as self time, clock ticks aside
    assert selfs[1] == pytest.approx(1.0, abs=0.01)
    assert selfs[4] == pytest.approx(2.0, abs=0.01)


def test_summary_counts_calls_self_times_and_shares():
    clock = FakeClock()
    tracer = Tracer(clock)
    root = _tree(tracer, clock)
    tracer.run_job(0, root)
    tracer.run_job(1, root)
    summary = summarize_job(tracer.spans, 1)
    assert summary["layer.b.calls"] == 3
    assert summary["layer.a.calls"] == 1
    assert summary["layer.b.self_s"] == pytest.approx(1.5, abs=0.02)
    total = summary["job.wall_s"]
    parts = sum(v for k, v in summary.items() if k.startswith("share."))
    assert parts == pytest.approx(1.0, abs=1e-12)
    assert summary["share.layer"] * total == pytest.approx(
        summary["layer.a.self_s"] + summary["layer.b.self_s"], abs=1e-12)


def test_install_wraps_lookups_and_restores_originals():
    class Thing:
        def method(self, x):
            return x + 1

        @classmethod
        def build(cls, x):
            return cls, x

    module = types.ModuleType("fake_module")
    module.helper = lambda x: 2 * x
    originals = (Thing.__dict__["method"], Thing.__dict__["build"], module.helper)

    tracer = Tracer()
    targets = [(Thing, "method", "t.method", None),
               (Thing, "build", "t.build", lambda a, k, r: {"points": a[1]}),
               (module, "helper", "m.helper", None)]
    with tracer.installed(targets):
        assert Thing().method(1) == 2
        assert Thing.build(5) == (Thing, 5)
        assert module.helper(3) == 6
    assert [s[NAME] for s in tracer.spans] == ["t.method", "t.build", "m.helper"]
    assert tracer.spans[1][5] == {"points": 5}
    assert (Thing.__dict__["method"], Thing.__dict__["build"], module.helper) == originals


def test_restore_runs_when_the_traced_block_raises():
    module = types.ModuleType("fake_module")
    module.helper = lambda: 1
    original = module.helper
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed([(module, "helper", "m.helper", None)]):
            raise RuntimeError("boom")
    assert module.helper is original
