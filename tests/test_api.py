"""Every name a module lists in ``__all__`` exists in that module, and every
function the benchmark's span recorder traces exists with the arguments it reads."""

import importlib
import inspect
import pkgutil
import sys

import pytest

import fracheat

MODULES = ["fracheat"] + sorted(
    f"fracheat.{m.name}" for m in pkgutil.iter_modules(fracheat.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(name)
    missing = [entry for entry in module.__all__ if not hasattr(module, entry)]
    assert missing == []


@pytest.fixture(scope="module")
def spans(pytestconfig):
    # the benchmark's span recorder, imported as the traced benchmark child imports it
    perfbench = str(pytestconfig.rootpath / "perfbench")
    sys.path.insert(0, perfbench)
    try:
        yield importlib.import_module("spans")
    finally:
        sys.path.remove(perfbench)


# the call arguments the span hooks read by name, and the benchmark's
# worker-count rerun of the functions whose first call it keeps
HOOK_PARAMS = {
    "bounds.second_moment_volterra": {"op", "T", "steps"},
    "sde.run_ensemble": {"n_paths", "disc", "worker_count"},
    "sde.estimate_second_moment_pair": {"n_paths", "worker_count"},
    "sde.PathEnsemble.write_csv": {"path"},
    "cli.read_ensemble_csv": {"path"},
}


def _resolve(name):
    module, _, attr = name.partition(".")
    obj = importlib.import_module(f"fracheat.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part, None)
    return obj


def test_benchmark_span_targets_resolve(spans):
    # a renamed traced function would break only the traced benchmark run
    names = [t.name for t in spans.TARGETS + spans.acceptance_targets()]
    assert [name for name in names if not callable(_resolve(name))] == []
    assert set(HOOK_PARAMS) <= set(names)
    for name, params in HOOK_PARAMS.items():
        assert params <= set(inspect.signature(_resolve(name)).parameters), name
