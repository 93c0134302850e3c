"""The three allocation workloads and one measured run of any of them.

A run sets the observable up several times (``setup_s`` is the median),
then repeats whole rounds of the workload's allocation runs until the
requested seconds have passed (``run_s`` is the median round), checks every
repetition against the references in ``reference.py`` outside the timed
regions, and reports its peak RSS.  A traced run times one untraced round and
then the same round under the tracer, and reports per-layer numbers.

Inputs depend only on the workload seed: repetition ``r`` of every round
draws from the PCG64 stream ``(seed, r)``, as ``doubleshot calibrate`` and
``doubleshot estimate --seed`` do.  ``wide-10q`` is the exception: its lattice
is drawn with lattice seed 7 and its one run always draws from stream
``(0, 0)`` (see ``Workload.stream``).  Every round of a run repeats the same
repetitions, so the traced round can be compared with the untraced one
action for action.
"""
from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from doubleshot import (
    DEFAULT_CONFIG,
    AllocationConfig,
    allocator,
    build_ising,
    cover_for,
    exact_mean,
    experiments,
    ground_state,
    load_builtin,
    random_ising_spec,
    simulator,
)

import reference
from tracer import SpanTotals, Tracer

LATTICE_SEED = 7
Z_BOUND = 6.0
# RMS z over the 20 repetitions of one calib-1x2 round.  At 300 repetitions
# the flat-prior bias gives mean z +0.48 and RMS z 0.95 (criterion 6).  If z
# were normal with that mean square, 20 z^2 would sum like 0.9 chi^2_20, and
# RMS z would leave (0.4, 1.8) with probability about 2e-5.
RMS_Z_BAND = (0.4, 1.8)
MIN_SETUP_REPEATS = 3
MIN_SETUP_SECONDS = 2.0


def _ising_1x2():
    return load_builtin("ising-1x2")


def _ising_2x3():
    return load_builtin("ising-2x3")


def _random_2x5():
    return build_ising(random_ising_spec(2, 5, np.random.default_rng(LATTICE_SEED)))


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable
    budget: int
    repetitions: int
    # True: one run_repetitions call sharing one MomentEngine, as calibrate
    # runs them; False: one run_allocation per repetition, as estimate does.
    shared_engine: bool
    rms_band: tuple[float, float] | None = None
    # Base seed of the shot streams when it must not follow the workload
    # seed.  One wide-10q run costs ~30 s, so a run holds one of them, and
    # whether the allocator takes any two-copy shot within the budget depends
    # on the stream: 1 of 10 streams tried at m_eff 28 and 2 of 12 at m_eff 22
    # took none and ran ~45 % faster, so a seed-dependent single run would
    # make run_s bimodal.
    stream: int | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "calib-1x2", _ising_1x2, budget=250, repetitions=20, shared_engine=True,
            rms_band=RMS_Z_BAND,
        ),
        Workload(
            "estimate-2x3", _ising_2x3, budget=150, repetitions=1, shared_engine=False,
        ),
        Workload(
            "wide-10q", _random_2x5, budget=28, repetitions=1, shared_engine=False,
            stream=0,
        ),
    )
}


@dataclass
class Setup:
    obs: object
    state: object
    cover: object
    times: dict


def set_up(workload: Workload) -> Setup:
    """Build the observable, its ground state and its cover, timing each."""
    t0 = time.perf_counter()
    obs = workload.build()
    t1 = time.perf_counter()
    state = ground_state(obs)
    t2 = time.perf_counter()
    cover = cover_for(obs)
    t3 = time.perf_counter()
    return Setup(obs, state, cover, {
        "total": t3 - t0, "ground_state": t2 - t1, "cover": t3 - t2,
    })


def set_up_repeatedly(workload: Workload) -> tuple[Setup, list[dict]]:
    setup, times, spent = None, [], 0.0
    while len(times) < MIN_SETUP_REPEATS or spent < MIN_SETUP_SECONDS:
        setup = set_up(workload)
        times.append(setup.times)
        spent += setup.times["total"]
    return setup, times


def _reset_process_caches() -> None:
    """Start each round with the simulator state a fresh process has.

    The simulator keeps a module-level table of Pauli permutations that
    outlives a run; a fresh ``doubleshot estimate`` pays to fill it, so
    every round does too.
    """
    cache = getattr(simulator, "_apply_cache", None)
    if isinstance(cache, dict):
        cache.clear()


def run_round(workload: Workload, setup: Setup, seed: int):
    """The workload's allocation runs; returns (results, seconds)."""
    if workload.stream is not None:
        seed = workload.stream
    _reset_process_caches()
    t0 = time.perf_counter()
    if workload.shared_engine:
        results = experiments.run_repetitions(
            setup.obs, setup.state, setup.cover, workload.budget,
            workload.repetitions, True, seed, DEFAULT_CONFIG,
        )
    else:
        results = [
            allocator.run_allocation(
                setup.obs, setup.state, setup.cover,
                AllocationConfig(budget=workload.budget, seed=(seed, rep)),
            )
            for rep in range(workload.repetitions)
        ]
    return results, time.perf_counter() - t0


class Checker:
    """Output checks for one workload's repetitions; counts failures."""

    def __init__(self, workload: Workload, setup: Setup):
        self.workload = workload
        obs = setup.obs
        self.terms = [(t.coefficient, t.string.letters) for t in obs.terms]
        self.offset = obs.identity_offset
        self.groups = setup.cover.groups
        self.e0 = reference.ground_energy(self.terms, self.offset)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        try:
            reference.check_energy(exact_mean(obs, setup.state), self.e0)
        except reference.CheckFailed as exc:
            self.errors.append(str(exc))
        self.zs: list[float] = []
        self.m_eff_var: list[float] = []
        self.m_eff_sq_err: list[float] = []

    def check_round(self, results) -> None:
        zs = []
        for result in results:
            self.attempted += 1
            try:
                reference.check_run(
                    result, self.terms, self.offset, self.groups,
                    self.workload.budget,
                )
                z = reference.z_score(result.report, self.e0)
                reference.check_z(z, Z_BOUND)
            except reference.CheckFailed as exc:
                self.failed += 1
                print(f"check failed: {exc}", file=sys.stderr)
                continue
            zs.append(z)
            m_eff = result.report.m_eff
            self.m_eff_var.append(m_eff * result.report.variance)
            self.m_eff_sq_err.append(m_eff * (result.report.mean - self.e0) ** 2)
        self.zs.extend(zs)
        if self.workload.rms_band and zs:
            try:
                reference.check_rms_z(zs, self.workload.rms_band)
            except reference.CheckFailed as exc:
                self.errors.append(str(exc))

    def fail_round(self, exc: Exception) -> None:
        """A round that raised: every repetition in it failed."""
        self.attempted += self.workload.repetitions
        self.failed += self.workload.repetitions
        print(f"round raised: {exc!r}", file=sys.stderr)

    def quality(self) -> dict:
        zs = self.zs or [float("nan")]
        return {
            "mean_z": statistics.fmean(zs),
            "rms_z": float(np.sqrt(np.mean(np.square(zs)))),
            "m_eff_x_variance": statistics.fmean(self.m_eff_var or [float("nan")]),
            "m_eff_x_sq_error": statistics.fmean(self.m_eff_sq_err or [float("nan")]),
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _same_decisions(a, b) -> bool:
    return len(a) == len(b) and all(
        x.trace == y.trace and x.report == y.report for x, y in zip(a, b)
    )


def _layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float,
                   results, setup_times: list[dict]) -> dict:
    s = tracer.summary()

    def tot(name):
        return s.get(name, SpanTotals())

    steps = sum(len(r.trace) for r in results)
    single, pair = tot("posterior.single_block"), tot("posterior.pair_block")
    group, double = tot("simulator.group_shot"), tot("simulator.double_shot")
    record, est = tot("ledger.record"), tot("ledger.estimate")
    alloc = tot("allocator.run")
    layer_self = {
        "allocator": alloc.self_s,
        "posterior": single.self_s + pair.self_s,
        "ledger": record.self_s + est.self_s,
        "simulator": group.self_s + double.self_s,
    }
    remainder = traced_s - sum(layer_self.values())

    def per(value, count, scale=1.0):
        return value * scale / count if count else 0.0

    return {
        "pauli.cover_s": statistics.median(t["cover"] for t in setup_times),
        "simulator.ground_state_s": statistics.median(
            t["ground_state"] for t in setup_times),
        "simulator.sample_s": layer_self["simulator"],
        "simulator.double_shot_ms": per(double.total_s, double.calls, 1e3),
        "simulator.group_shot_ms": per(group.total_s, group.calls, 1e3),
        "posterior.self_s": layer_self["posterior"],
        "posterior.pair_rows": pair.rows,
        "posterior.pair_rows_per_s": per(pair.rows, pair.total_s),
        "posterior.single_rows": single.rows,
        "posterior.single_rows_per_s": per(single.rows, single.total_s),
        "ledger.self_s": layer_self["ledger"],
        "ledger.record_ms": per(record.self_s, record.calls, 1e3),
        "allocator.self_s": layer_self["allocator"],
        "allocator.self_ms_per_step": per(alloc.self_s, steps, 1e3),
        "allocator.pair_rows_per_step": per(pair.rows, steps),
        "trace.run_s": traced_s,
        "trace.remainder_s": remainder,
        "trace.overhead_s": traced_s - untraced_s,
    }


def measure(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and extra information."""
    setup, setup_times = set_up_repeatedly(workload)
    checker = Checker(workload, setup)
    round_s: list[float] = []
    correct = True
    notes = {}

    def one_round():
        try:
            results, elapsed = run_round(workload, setup, seed)
        except Exception as exc:  # a raising round is counted as failed
            checker.fail_round(exc)
            return None, None
        checker.check_round(results)
        return results, elapsed

    if trace:
        untraced, untraced_s = one_round()
        tracer = Tracer()
        with tracer.installed():
            traced, traced_s = one_round()
        if untraced is None or traced is None:
            metrics = {}
            correct = False
        else:
            if not _same_decisions(untraced, traced):
                checker.errors.append("traced round made other decisions")
            metrics = _layer_metrics(tracer, traced_s, untraced_s, traced,
                                     setup_times)
    else:
        # Whole rounds while the next one, at the mean pace so far, still
        # ends inside the window; the first round always runs.
        start, rounds = time.perf_counter(), 0
        while True:
            _, elapsed = one_round()
            rounds += 1
            if elapsed is not None:
                round_s.append(elapsed)
            spent = time.perf_counter() - start
            if spent * (rounds + 1) / rounds > seconds:
                break
        if not round_s:
            correct = False
        metrics = {
            "setup_s": statistics.median(t["total"] for t in setup_times),
            "run_s": statistics.median(round_s) if round_s else float("nan"),
            "peak_rss_mb": peak_rss_mb(),
        }
        notes["round_s"] = round_s
    if checker.errors:
        correct = False
        notes["errors"] = checker.errors
        print("\n".join(checker.errors), file=sys.stderr)
    notes["setup_repeats"] = len(setup_times)
    notes["quality"] = checker.quality()
    return {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
        "notes": notes,
    }
