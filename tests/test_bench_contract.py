"""The benchmark tracer wraps package names by lookup (``vars(owner)[attr]``).

Deleting or moving one of them would only show up in a traced benchmark
run; this test makes it a failure of the package's own suite.
"""
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_defined_on_its_owner():
    targets = load_spans().sigmaevo_targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, *_ in targets if attr not in vars(owner)]
    assert targets and not missing
