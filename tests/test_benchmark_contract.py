"""The benchmark's tracer still sees every layer of an allocation run.

``perfbench/tracer.py`` replaces functions at the names the allocation loop
looks them up by (module attributes and ``MomentEngine``/``TallyLedger``
methods).  If one of those names moves, or the loop stops calling it, the
benchmark's per-layer numbers read zero without any error.  These tests run
the benchmark's two kinds of call under its own tracer and require a span
from every layer.
"""

from pathlib import Path

import pytest

from doubleshot import (
    DEFAULT_CONFIG,
    AllocationConfig,
    allocator,
    cover_for,
    experiments,
    ground_state,
    load_builtin,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SPANS = (
    "allocator.run",
    "posterior.single_block",
    "posterior.pair_block",
    "simulator.group_shot",
    "simulator.double_shot",
    "ledger.record",
    "ledger.estimate",
)


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    return tracer


@pytest.fixture(scope="module")
def ising_1x2():
    obs = load_builtin("ising-1x2")
    return obs, ground_state(obs), cover_for(obs)


def _calls(tracer, recorder) -> dict:
    summary = recorder.summary()
    return {name: summary.get(name, tracer.SpanTotals()).calls for name in SPANS}


def test_lone_run_records_every_span(tracer, ising_1x2):
    # as the estimate-2x3 and wide-10q workloads call it
    obs, state, cover = ising_1x2
    config = AllocationConfig(budget=40, seed=(0, 1))
    plain = allocator.run_allocation(obs, state, cover, config)
    recorder = tracer.Tracer()
    with recorder.installed():
        traced = allocator.run_allocation(obs, state, cover, config)
    calls = _calls(tracer, recorder)
    assert all(n >= 1 for n in calls.values()), calls
    assert calls["allocator.run"] == 1
    assert traced.trace == plain.trace
    assert traced.report == plain.report


def test_repetitions_record_every_layer(tracer, ising_1x2):
    # as the calib-1x2 workload calls it, positionally; its cohorts do not
    # pass through run_allocation, so allocator.run records nothing here
    obs, state, cover = ising_1x2
    args = (obs, state, cover, 40, 3, True, 0, DEFAULT_CONFIG)
    plain = experiments.run_repetitions(*args)
    recorder = tracer.Tracer()
    with recorder.installed():
        traced = experiments.run_repetitions(*args)
    calls = _calls(tracer, recorder)
    del calls["allocator.run"]
    assert all(n >= 1 for n in calls.values()), calls
    assert [r.trace for r in traced] == [r.trace for r in plain]
    assert [r.report for r in traced] == [r.report for r in plain]
