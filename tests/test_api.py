"""Every name a module lists in ``__all__`` exists in that module, and every
function the benchmark's span recorder traces exists with the arguments it
reads and is reached through a reference the recorder patches."""

import collections
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
import textwrap

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


# runs in a fresh interpreter: install() patches the fracheat modules for good
_TRACED_MOMENTS = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import spans
    from fracheat import cli
    tracer = spans.Tracer("test")
    spans.install(tracer, spans.TARGETS)
    assert cli.main(["moments", "--config", sys.argv[2]]) == 0
    print(json.dumps([s.name for s in tracer.spans]))
    """
)


def test_traced_moments_records_the_calls_the_cli_makes(tmp_path, pytestconfig):
    # install() swaps module attributes and entries of flat module tuples;
    # a function the CLI reaches any other way (a dict, say) records no span
    doc = {
        "model": {"alpha": 1.5},
        "discretization": {"n": 32, "t_end": 0.25, "dt": 1.0 / 256.0, "snapshot_times": [0.125, 0.25]},
        "ensemble": {"n_paths": 12, "master_seed": 7, "worker_count": 1},
        "outputs": {"directory": str(tmp_path / "out")},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(fracheat.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_MOMENTS, str(pytestconfig.rootpath / "perfbench"), str(cfg)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    calls = collections.Counter(json.loads(proc.stdout.splitlines()[-1]))
    assert calls["cli.cmd_moments"] == 1
    assert calls["sde.run_ensemble"] == 1
    for estimator in ("estimate_energy", "estimate_sup_moment", "estimate_inf_subinterval_moment"):
        assert calls[f"moments.{estimator}"] == 2, estimator
