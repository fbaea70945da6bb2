"""Every function the benchmark's tracer patches must exist under src/.

A rename in the simulator would otherwise leave the traced benchmark
without that layer, with nothing failing.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


def resolves(owner: str, attr: str) -> bool:
    module_name, _, class_name = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return False
    if class_name:
        obj = getattr(obj, class_name, None)
    return callable(getattr(obj, attr, None))


def test_every_tracer_target_resolves():
    targets = load_tracer().TARGETS
    assert len(targets) > 0
    missing = [t.name for t in targets if not resolves(t.owner, t.attr)]
    assert missing == []
