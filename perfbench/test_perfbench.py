"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench -q        (from the repository root)
"""

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import pytest  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from run import quartiles  # noqa: E402
from spans import Span, covered_length, self_times  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _span(i, parent, start, end):
    return Span(i, parent, f"f{i}", start, end, "run")


# ---------------------------------------------------------------------------
# self time = duration minus the part of the span its children cover


def test_self_time_without_children_is_duration():
    assert self_times([_span(0, None, 1.0, 3.5)]) == {0: 2.5}


def test_self_time_nested_children_count_only_direct_children():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 6.0),
        _span(2, 1, 2.0, 5.0),   # grandchild: already inside span 1
        _span(3, 2, 3.0, 4.0),
    ]
    st = self_times(tree)
    assert st[0] == pytest.approx(10.0 - 5.0)
    assert st[1] == pytest.approx(5.0 - 3.0)
    assert st[2] == pytest.approx(3.0 - 1.0)
    assert st[3] == pytest.approx(1.0)
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_back_to_back_children():
    tree = [_span(0, None, 0.0, 4.0), _span(1, 0, 1.0, 2.0), _span(2, 0, 2.0, 3.0)]
    assert self_times(tree)[0] == pytest.approx(2.0)


def test_self_time_overlapping_and_overhanging_children_count_once():
    tree = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 2.0, 6.0),
        _span(2, 0, 4.0, 8.0),      # overlaps span 1 (another thread)
        _span(3, 0, 9.0, 12.0),     # runs past its parent's end
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_length_merges_and_clips():
    assert covered_length([], 0.0, 1.0) == 0.0
    assert covered_length([(0.5, 0.7), (0.1, 0.3), (0.2, 0.4)], 0.0, 1.0) == pytest.approx(0.5)
    assert covered_length([(-1.0, 0.5), (0.9, 2.0), (3.0, 4.0)], 0.0, 1.0) == pytest.approx(0.6)


def test_wrapped_calls_give_self_time_net_of_children():
    tracer = spans.Tracer("test")

    def inner():
        return sum(range(2000))

    inner_w = tracer.wrap(spans.Target("m.inner"), inner)

    def outer():
        return inner_w() + inner_w()

    outer_w = tracer.wrap(spans.Target("m.outer"), outer)
    outer_w()
    m = spans.layer_metrics(tracer.spans, tracer.counts)
    assert m["m.inner.calls"] == 2 and m["m.outer.calls"] == 1
    assert m["m.outer.self_s"] == pytest.approx(m["m.outer.total_s"] - m["m.inner.total_s"])
    assert m["m.inner.self_s"] == pytest.approx(m["m.inner.total_s"])


def test_quartiles_match_statistics_module():
    q = quartiles([4.0, 1.0, 3.0, 2.0, 5.0])
    assert q == {"median": 3.0, "q1": 1.5, "q3": 4.5, "n": 5}
    assert quartiles([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "n": 1}


# ---------------------------------------------------------------------------
# metric names and units


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_every_metric_name_is_well_formed_and_has_a_unit():
    spec = _spec()
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME_RE.fullmatch(m["name"]), m["name"]
        assert UNIT_RE.fullmatch(m.get("unit", "")), m
        assert m["better"] in ("lower", "higher")
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)


def test_per_layer_metrics_name_a_traced_function():
    traced = {t.name for t in spans.TARGETS + spans.acceptance_targets()} | {"process"}
    for m in _spec()["per_layer"]:
        owner = m["name"].rsplit(".", 1)[0]
        assert owner in traced, m["name"]


# ---------------------------------------------------------------------------
# seed mapping


def _readme_config():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    return json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))


def test_default_seed_reproduces_readme_and_check4_seeds():
    from fracheat import acceptance

    assert workloads.README_CONFIG == _readme_config()
    assert workloads.master_seed("ensemble-io", workloads.DEFAULT_SEED) == 1
    assert workloads.master_seed("long-horizon", workloads.DEFAULT_SEED) == 1
    assert workloads.master_seed("mc-oracle", workloads.DEFAULT_SEED) == 31415 == acceptance._MC_SEED
    assert workloads.config("ensemble-io", workloads.DEFAULT_SEED)["ensemble"]["master_seed"] == 1


def test_other_seeds_give_new_repeatable_master_seeds():
    for w in ("mc-oracle", "ensemble-io", "long-horizon"):
        seeds = [workloads.master_seed(w, s) for s in range(1, 30)]
        assert len(set(seeds)) == len(seeds)
        assert workloads.master_seed(w, workloads.DEFAULT_SEED) not in seeds
        assert seeds == [workloads.master_seed(w, s) for s in range(1, 30)]
        assert all(0 <= s < 2**32 for s in seeds)
    assert workloads.master_seed("selftest-quick", 7) is None
