"""The benchmark's own tests: every check rejects a perturbed result, and
every workload runs to its end at a tiny budget.

Run from the root of the checkout:  python3 -m pytest perfbench/tests
"""
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reference
import workloads
from doubleshot import AllocationResult, allocator

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_single_posterior_beta_and_quadrature():
    mean, var = reference.single_posterior(np.array([7.0, 2.0, 0.0, 0.0]))
    assert mean == 8.0 / 11.0
    assert var == pytest.approx(8.0 * 3.0 / (11.0**2 * 12.0), rel=1e-14)
    # the grid path agrees with the closed form when it integrates a Beta
    logd = 7.0 * reference._LOG_T + 2.0 * reference._LOG_1MT
    w = np.exp(logd - logd.max())
    assert w @ reference._CELLS / w.sum() == pytest.approx(8.0 / 11.0, abs=1e-9)
    # two-copy counts only: the posterior is symmetric about 1/2
    mean, _ = reference.single_posterior(np.array([0.0, 0.0, 5.0, 3.0]))
    assert mean == pytest.approx(0.5, abs=1e-12)


def test_pair_posterior_matches_the_dirichlet_closed_form():
    # joint single counts only: (t++, t+-, t-+, t--) ~ Dirichlet(counts + 1),
    # and Cov(sum_S t, sum_T t) = (A a_(S&T) - a_S a_T) / (A^2 (A + 1))
    s_joint = np.array([12.0, 3.0, 4.0, 9.0])
    a = s_joint + 1.0
    big = a.sum()
    a_i, a_j = a[0] + a[1], a[0] + a[2]
    norm = big * big * (big + 1.0)
    want = [(big * a[0] - a_i * a_j) / norm,
            a_i * (big - a_i) / norm, a_j * (big - a_j) / norm]
    got = reference.pair_posterior(np.concatenate([s_joint, np.zeros(8)])[None, :])[0]
    np.testing.assert_allclose(got, want, rtol=0.01)


@pytest.fixture(scope="module")
def small_run():
    """A real ising-1x2 run with both shot kinds, and its reference inputs."""
    wl = dataclasses.replace(workloads.WORKLOADS["calib-1x2"], budget=60, repetitions=1)
    setup = workloads.set_up(wl)
    checker = workloads.Checker(wl, setup)
    results, _ = workloads.run_round(wl, setup, seed=0)
    result = results[0]
    assert result.report.m_double > 0
    args = (checker.terms, checker.offset, checker.groups, wl.budget)
    return result, args, checker


def test_unperturbed_run_passes(small_run):
    result, args, checker = small_run
    reference.check_run(result, *args)
    reference.check_z(reference.z_score(result.report, checker.e0), workloads.Z_BOUND)


def _with_report(result, **changes):
    return AllocationResult(
        ledger=result.ledger,
        report=dataclasses.replace(result.report, **changes),
        trace=result.trace,
    )


def _nudged_term(result, field, delta):
    terms = list(result.report.per_term)
    terms[0] = dataclasses.replace(terms[0], **{field: getattr(terms[0], field) + delta})
    return _with_report(result, per_term=tuple(terms))


def _bumped_ledger(result, table, index):
    ledger = result.ledger.copy()
    getattr(ledger, table)[index] += 1.0
    return AllocationResult(ledger=ledger, report=result.report, trace=result.trace)


def _without_first_group_row(result):
    first = next(k for k, row in enumerate(result.trace) if row.kind == "group")
    trace = result.trace[:first] + result.trace[first + 1:]
    return AllocationResult(ledger=result.ledger, report=result.report, trace=trace)


def _with_pairs(result, per_pair):
    """The report with other per-pair rows and the variance summed to match."""
    variance = (sum(t.variance_contribution for t in result.report.per_term)
                + sum(q.contribution for q in per_pair))
    return _with_report(result, per_pair=tuple(per_pair), variance=variance)


def _zeroed_covariances(result):
    return _with_pairs(result, [
        dataclasses.replace(q, covariance=0.0, contribution=0.0)
        for q in result.report.per_pair])


def _nudged_contribution(result):
    rows = list(result.report.per_pair)
    rows[0] = dataclasses.replace(rows[0], contribution=rows[0].contribution * (1 + 1e-6))
    return _with_report(result, per_pair=tuple(rows))


def _moved_joint_count(result):
    """One joint single count moved to both terms' counts taken apart.

    Every single-term marginal stays the same; only the joint total breaks.
    """
    ledger = result.ledger.copy()
    k, pattern = np.argwhere(ledger.pairs[:, :4] > 0)[0]
    minus_i, minus_j = divmod(int(pattern), 2)
    ledger.pairs[k, [pattern, 8 + minus_i, 10 + minus_j]] += (-1.0, 1.0, 1.0)
    return AllocationResult(ledger=ledger, report=result.report, trace=result.trace)


PERTURBATIONS = {
    "mean nudged by 1e-3": lambda r: _with_report(r, mean=r.report.mean + 1e-3),
    "theta nudged by 1e-5": lambda r: _nudged_term(r, "theta", 1e-5),
    "variance contribution nudged": lambda r: _nudged_term(
        r, "variance_contribution", 1e-3 * r.report.per_term[0].variance_contribution),
    "s+ bumped": lambda r: _bumped_ledger(r, "singles", (0, 0)),
    "d- bumped": lambda r: _bumped_ledger(r, "singles", (1, 3)),
    "trace row dropped": lambda r: AllocationResult(
        ledger=r.ledger, report=r.report, trace=r.trace[:-1]),
    "group trace row dropped": lambda r: _without_first_group_row(r),
    "budget overspent": lambda r: _with_report(r, m=r.report.m + 1),
    "variance zero": lambda r: _with_report(r, variance=0.0),
    "variance nan": lambda r: _with_report(r, variance=float("nan")),
    "variance off the sum": lambda r: _with_report(r, variance=r.report.variance * (1 + 1e-6)),
    "covariances zeroed": _zeroed_covariances,
    "covariances doubled": lambda r: _with_pairs(r, [
        dataclasses.replace(q, covariance=2 * q.covariance, contribution=2 * q.contribution)
        for q in r.report.per_pair]),
    "pair contribution nudged": _nudged_contribution,
    "per-pair row dropped": lambda r: _with_pairs(r, r.report.per_pair[1:]),
    "pair d++ bumped": lambda r: _bumped_ledger(r, "pairs", (0, 4)),
    "joint count moved apart": _moved_joint_count,
}


@pytest.mark.parametrize("name", sorted(PERTURBATIONS))
def test_check_run_rejects_perturbation(small_run, name):
    result, args, _ = small_run
    with pytest.raises(reference.CheckFailed):
        reference.check_run(PERTURBATIONS[name](result), *args)


def test_energy_z_and_rms_checks_reject():
    reference.check_energy(-1.0, -1.0)
    with pytest.raises(reference.CheckFailed):
        reference.check_energy(-1.0 + 1e-6, -1.0)
    reference.check_z(5.9, 6.0)
    with pytest.raises(reference.CheckFailed):
        reference.check_z(-6.1, 6.0)
    reference.check_rms_z([1.0, -0.8, 0.5], (0.5, 1.6))
    with pytest.raises(reference.CheckFailed):
        reference.check_rms_z([0.1, -0.2, 0.1], (0.5, 1.6))
    with pytest.raises(reference.CheckFailed):
        reference.check_rms_z([3.0, -2.0], (0.5, 1.6))


TINY = {"calib-1x2": (30, 3), "estimate-2x3": (10, 1), "wide-10q": (4, 1)}


@pytest.mark.parametrize("name,trace", list(itertools.product(sorted(TINY), (False, True))))
def test_every_workload_at_a_tiny_budget(name, trace):
    budget, reps = TINY[name]
    wl = dataclasses.replace(workloads.WORKLOADS[name], budget=budget,
                             repetitions=reps, rms_band=None)
    out = workloads.measure(wl, seed=1, seconds=0.0, trace=trace)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == (2 if trace else 1) * reps
    metrics = out["metrics"]
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(metrics) == {m["name"] for m in declared}
    if not trace:
        assert all(v > 0 for v in metrics.values())
        return
    self_total = sum(metrics[k] for k in (
        "allocator.self_s", "posterior.self_s", "ledger.self_s", "simulator.sample_s"))
    assert self_total + metrics["trace.remainder_s"] == pytest.approx(metrics["trace.run_s"])
    assert 0.0 <= metrics["trace.remainder_s"] < 0.05 * metrics["trace.run_s"] + 0.01
    assert metrics["posterior.single_rows"] > 0


def test_a_raising_round_counts_every_repetition_as_failed(monkeypatch):
    wl = dataclasses.replace(workloads.WORKLOADS["estimate-2x3"], budget=4)

    def boom(*args, **kwargs):
        raise FloatingPointError("injected")

    monkeypatch.setattr(allocator, "run_allocation", boom)
    out = workloads.measure(wl, seed=0, seconds=0.0, trace=False)
    assert out["attempted"] == out["failed"] == wl.repetitions


def test_run_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "calib-1x2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_declares_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_run_prints_the_result_as_its_last_line():
    """The command line: one round (--seconds 0) and the JSON result last."""
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "calib-1x2",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == workloads.WORKLOADS["calib-1x2"].repetitions
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
