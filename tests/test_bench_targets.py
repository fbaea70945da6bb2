"""The benchmark still runs against the simulator under src/.

Every function its tracer patches must exist, and one tiny rep of each
workload must pass its output checks, traced and untraced. A change under
src/ that breaks the benchmark would otherwise fail nothing here.
"""

import contextlib
import importlib
import importlib.util
import sys
from functools import cache
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@cache
def load_bench(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
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
    targets = load_bench("tracer").TARGETS
    assert len(targets) > 0
    missing = [t.name for t in targets if not resolves(t.owner, t.attr)]
    assert missing == []


@pytest.mark.parametrize("traced", [False, True])
def test_one_tiny_rep_of_each_workload_passes_its_checks(traced):
    workloads = load_bench("workloads").make_workloads(tiny=True)
    assert workloads
    tracer = load_bench("tracer").Tracer() if traced else None
    for name, workload in workloads.items():
        state = workload.setup(workload.default_seed)
        job = workload.prepare(state, 0)
        with tracer.active(name) if tracer else contextlib.nullcontext():
            out = workload.execute(state, job, tracer)
        ops, problems, _ = workload.check(state, job, out)
        assert ops >= 1, name
        assert problems == [], name
