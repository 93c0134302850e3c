"""Tests for experiment specs, CSV/JSON documents, and the report drivers."""

import dataclasses
import gc
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from doubleshot import experiments
from doubleshot.allocator import (
    AllocationConfig,
    AllocationResult,
    TraceRow,
    cohort_size,
    run_allocation,
)
from doubleshot.errors import InvalidInputError
from doubleshot.experiments import (
    CsvDocument,
    ExperimentSpec,
    GROUND_STATE_SOURCE,
    calibrate_rows,
    cover_for,
    curve_rows,
    double_usage_rows,
    read_csv,
    reference_report,
    rep_seed,
    resolve_observable,
    resolve_state,
    run_repetitions,
    trace_document,
    write_csv,
)
from doubleshot.ledger import EstimateReport, PairReport, TallyLedger, TermReport
from doubleshot.pauli import parse_observable
from doubleshot.posterior import DEFAULT_CONFIG, MomentEngine
from doubleshot.simulator import StateVector, exact_mean, ground_state

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def toy_spec(**overrides):
    fields = dict(
        observable_source="builtin:toy-fig1",
        budgets=(8,),
        repetitions=2,
        base_seed=0,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


class TestExperimentSpec:
    def test_defaults(self):
        spec = toy_spec()
        assert spec.state_source == GROUND_STATE_SOURCE
        assert spec.enable_double is True
        assert spec.budgets == (8,)

    def test_rejects_bad_repetitions(self):
        with pytest.raises(InvalidInputError):
            toy_spec(repetitions=0)

    def test_rejects_empty_budgets(self):
        with pytest.raises(InvalidInputError):
            toy_spec(budgets=())

    def test_rejects_non_positive_budget(self):
        with pytest.raises(InvalidInputError):
            toy_spec(budgets=(0, 5))

    def test_rejects_non_positive_max_qubits(self):
        with pytest.raises(InvalidInputError):
            toy_spec(max_qubits=0)
        with pytest.raises(InvalidInputError):
            toy_spec(max_qubits=-3)

    def test_rejects_negative_base_seed(self):
        with pytest.raises(InvalidInputError):
            toy_spec(base_seed=-1)
        assert toy_spec(base_seed=0).base_seed == 0

    @pytest.mark.parametrize(
        "overrides",
        [
            {"budgets": (2.5,)},
            {"budgets": (5.0,)},
            {"budgets": (np.float64(5),)},
            {"budgets": (True, 5)},
            {"budgets": ("8",)},
            {"repetitions": 2.5},
            {"repetitions": True},
            {"base_seed": 1.5},
            {"max_qubits": 10.5},
        ],
        ids=["budget-float", "budget-whole-float", "budget-numpy-float",
             "budget-bool", "budget-str", "repetitions-float",
             "repetitions-bool", "base_seed-float", "max_qubits-float"],
    )
    def test_rejects_non_integers(self, overrides):
        with pytest.raises(InvalidInputError, match="must be an integer"):
            toy_spec(**overrides)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"enable_double": "false"},
            {"enable_double": 1},
            {"state_source": None},
            {"budgets": 8},
        ],
        ids=["enable_double-str", "enable_double-int", "state_source-none",
             "budgets-int"],
    )
    def test_rejects_wrong_types(self, overrides):
        # beyond the 2.5 and "x" of every field that test_config_fields tries
        with pytest.raises(InvalidInputError):
            toy_spec(**overrides)

    def test_takes_numpy_integers(self):
        # a list of budgets is stored as a tuple of int
        spec = toy_spec(
            budgets=[np.int64(5), np.int32(9)], repetitions=np.int64(2),
            base_seed=np.int16(3), max_qubits=np.int64(10),
        )
        assert spec.budgets == (5, 9)
        assert all(type(b) is int for b in spec.budgets)

    def test_rejects_non_increasing_budgets(self):
        with pytest.raises(InvalidInputError):
            toy_spec(budgets=(10, 10))
        with pytest.raises(InvalidInputError):
            toy_spec(budgets=(10, 5))


class TestResolvers:
    def test_builtin_observable(self):
        obs = resolve_observable("builtin:toy-fig1")
        assert obs.num_terms == 5

    def test_unknown_builtin_rejected(self):
        with pytest.raises(InvalidInputError):
            resolve_observable("builtin:nope")

    def test_observable_from_file(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.5 XZ\n-0.5 ZI\n")
        obs = resolve_observable(str(path))
        assert obs.num_terms == 2

    def test_ground_state_source(self):
        obs = resolve_observable("builtin:toy-fig1")
        state = resolve_state(GROUND_STATE_SOURCE, obs)
        assert np.allclose(state.amplitudes, ground_state(obs).amplitudes)

    def test_state_from_file(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1 0\n0 0\n0 0\n0 0\n")
        obs = resolve_observable("builtin:toy-fig1")
        state = resolve_state(str(path), obs)
        assert state.amplitudes[0] == 1.0 + 0.0j

    def test_state_file_width_mismatch(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("1 0\n0 0\n")
        obs = resolve_observable("builtin:toy-fig1")
        with pytest.raises(InvalidInputError):
            resolve_state(str(path), obs)

    def test_rep_seed(self):
        assert rep_seed(7, 3) == (7, 3)
        assert rep_seed(np.int64(7), np.int64(3)) == (7, 3)

    def test_cover_for_toy(self):
        cover = cover_for(resolve_observable("builtin:toy-fig1"))
        assert set(cover.groups) == {(0, 1, 2), (2, 3, 4)}

    def test_cover_for_identity(self):
        cover = cover_for(parse_observable("0.5 II"))
        assert cover.num_groups == 0


class TestRunRepetitions:
    def _run(self, moments=DEFAULT_CONFIG):
        obs = resolve_observable("builtin:toy-fig1")
        state = ground_state(obs)
        cover = cover_for(obs)
        return run_repetitions(
            obs,
            state,
            cover,
            budget=10,
            repetitions=3,
            enable_double=True,
            base_seed=0,
            moments=moments,
        )

    def test_returns_one_result_per_repetition(self):
        results = self._run()
        assert len(results) == 3
        assert all(r.ledger.effective_shots == 10 for r in results)

    def test_deterministic_and_engine_invariant(self):
        # the engine holds its settings by value: an equal engine built
        # anew gives the same bits
        first = self._run()
        second = self._run()
        shared = self._run(MomentEngine(pair_cells=16))
        for a, b, c in zip(first, second, shared):
            assert a.report.mean == b.report.mean == c.report.mean
            assert a.report.variance == b.report.variance == c.report.variance
            assert a.trace == b.trace == c.trace

    def test_repetitions_use_distinct_seeds(self):
        # Repetition r is a lone run seeded rep_seed(0, r), bit for bit, and
        # the seeds differ: not every repetition draws the same ledger.
        obs = resolve_observable("builtin:toy-fig1")
        state = ground_state(obs)
        cover = cover_for(obs)
        results = self._run()
        for rep, result in enumerate(results):
            alone = run_allocation(
                obs, state, cover,
                AllocationConfig(budget=10, seed=rep_seed(0, rep)),
            )
            assert result.trace == alone.trace
            assert result.report == alone.report
            assert np.array_equal(result.ledger.singles, alone.ledger.singles)
            assert np.array_equal(result.ledger.pairs, alone.ledger.pairs)
        singles = {r.ledger.singles.tobytes() for r in results}
        pairs = {r.ledger.pairs.tobytes() for r in results}
        assert len(singles) > 1 or len(pairs) > 1


class TestRunRepetitionsMemory:
    def test_shared_engine_holds_nothing_per_repetition(self):
        # Memory still allocated after run_repetitions returns (its results
        # dropped) is what the shared engine kept; it must not grow with
        # the number of repetitions.
        obs = resolve_observable("builtin:ising-1x2")
        state = ground_state(obs)
        cover = cover_for(obs)

        def run(reps):
            run_repetitions(
                obs, state, cover, budget=40, repetitions=reps,
                enable_double=True, base_seed=0, moments=MomentEngine(),
            )

        def held(reps):
            gc.collect()
            tracemalloc.start()
            try:
                run(reps)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        run(1)  # module-level set-up (quadrature grids) happens once
        two, eight = held(2), held(8)
        assert eight - two < 64 * 1024, (two, eight)


class TestLockstepCohorts:
    """Repetitions in lockstep cohorts give the bits of their lone runs."""

    @staticmethod
    def _force_cohorts_of_two(monkeypatch, obs):
        import doubleshot.allocator as alloc_mod

        ledger = TallyLedger(obs)
        monkeypatch.setattr(
            alloc_mod, "COHORT_ROWS", 2 * (ledger.num_terms + ledger.num_pairs)
        )
        assert alloc_mod.cohort_size(obs) == 2

    @pytest.mark.parametrize("enable_double", [True, False])
    @pytest.mark.parametrize("name, budget", [("toy-fig1", 30), ("ising-1x2", 40)])
    def test_each_repetition_equals_its_lone_run(
        self, monkeypatch, name, budget, enable_double
    ):
        obs = resolve_observable(f"builtin:{name}")
        state = ground_state(obs)
        cover = cover_for(obs)
        # five repetitions span three cohorts: (0, 1), (2, 3) and (4,)
        self._force_cohorts_of_two(monkeypatch, obs)
        calls = {"n": 0}
        real = MomentEngine.pair_block

        def counting(self, counts):
            calls["n"] += 1
            return real(self, counts)

        monkeypatch.setattr(MomentEngine, "pair_block", counting)
        results = run_repetitions(
            obs, state, cover, budget, 5, enable_double, 0, MomentEngine()
        )
        cohort_calls, calls["n"] = calls["n"], 0
        for rep, result in enumerate(results):
            alone = run_allocation(
                obs, state, cover,
                AllocationConfig(
                    budget=budget, enable_double=enable_double,
                    seed=rep_seed(0, rep),
                ),
            )
            assert result.trace == alone.trace
            assert result.report == alone.report
            assert np.array_equal(result.ledger.singles, alone.ledger.singles)
            assert np.array_equal(result.ledger.pairs, alone.ledger.pairs)
        # the cohorts shared engine calls
        assert cohort_calls < calls["n"]
        if name == "ising-1x2" and enable_double:
            # a cohort whose repetitions end at different steps
            assert len(results[0].trace) != len(results[1].trace)

    def test_memory_grows_only_by_the_results(self, monkeypatch):
        # With cohorts of two, the working memory above what run_repetitions
        # returns is one cohort's, however many repetitions run.
        obs = resolve_observable("builtin:ising-2x2")
        state = ground_state(obs)
        cover = cover_for(obs)
        self._force_cohorts_of_two(monkeypatch, obs)

        def working(reps):
            gc.collect()
            tracemalloc.start()
            try:
                results = run_repetitions(
                    obs, state, cover, budget=16, repetitions=reps,
                    enable_double=True, base_seed=0, moments=MomentEngine(),
                )
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(results) == reps
            return peak - held

        working(1)  # module-level set-up (quadrature grids) happens once
        two, six = working(2), working(6)
        assert six - two < 512 * 1024, (two, six)


class TestBenchmarkScaleCohort:
    """A calib-1x2 round of the benchmark, checked by the benchmark's checks."""

    def test_every_repetition_passes_and_equals_its_lone_run(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import reference

        obs = resolve_observable("builtin:ising-1x2")
        state = ground_state(obs)
        cover = cover_for(obs)
        # one cohort of 20 whose runs leave at different steps, some of them
        # right after a double shot
        assert cohort_size(obs) >= 20
        results = run_repetitions(obs, state, cover, 250, 20, True, 81, DEFAULT_CONFIG)
        terms = [(t.coefficient, t.string.letters) for t in obs.terms]
        e0 = reference.ground_energy(terms, obs.identity_offset)
        for result in results:
            reference.check_run(result, terms, obs.identity_offset, cover.groups, 250)
            reference.check_z(reference.z_score(result.report, e0), 6.0)

        steps = [len(result.trace) for result in results]
        on_double = [
            rep for rep, result in enumerate(results)
            if result.trace[-1].kind == "double"
        ]
        assert len(set(steps)) > 1 and on_double
        for rep in {steps.index(min(steps)), steps.index(max(steps)), on_double[0]}:
            alone = run_allocation(
                obs, state, cover, AllocationConfig(budget=250, seed=rep_seed(81, rep))
            )
            result = results[rep]
            assert result.trace == alone.trace
            assert result.report == alone.report
            assert result.ledger.singles.tobytes() == alone.ledger.singles.tobytes()
            assert result.ledger.pairs.tobytes() == alone.ledger.pairs.tobytes()


class TestCsvDocument:
    def _doc(self):
        return CsvDocument(
            fieldnames=("a", "b"),
            rows=({"a": "1", "b": "x"}, {"a": "2.5", "b": "y"}),
            top_comments=("header note", "alpha = 3"),
            bottom_comments=("beta = 0.25",),
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "doc.csv"
        write_csv(self._doc(), path)
        again = read_csv(path)
        assert again.fieldnames == ("a", "b")
        assert again.rows == ({"a": "1", "b": "x"}, {"a": "2.5", "b": "y"})
        assert again.top_comments == ("header note", "alpha = 3")
        assert again.bottom_comments == ("beta = 0.25",)

    def test_write_is_stable(self, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        write_csv(self._doc(), first)
        write_csv(read_csv(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_comment_value(self):
        doc = self._doc()
        assert doc.comment_value("alpha") == "3"
        assert doc.comment_value("beta") == "0.25"
        with pytest.raises(KeyError):
            doc.comment_value("gamma")

    def test_float_cells_use_repr(self, tmp_path):
        doc = CsvDocument(
            fieldnames=("v",), rows=({"v": 0.1 + 0.2},), top_comments=()
        )
        path = tmp_path / "f.csv"
        write_csv(doc, path)
        assert "0.30000000000000004" in path.read_text()

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only comments\n")
        with pytest.raises(InvalidInputError):
            read_csv(path)


class TestCurveRows:
    def test_row_grid_and_columns(self):
        doc = curve_rows(toy_spec(budgets=(6, 12), repetitions=2))
        assert doc.fieldnames == (
            "budget",
            "arm",
            "repetitions",
            "mean_scaled_variance",
            "rms_scaled_variance",
            "best_rep",
            "worst_rep",
            "mean_scaled_sq_error",
        )
        assert [(r["budget"], r["arm"]) for r in doc.rows] == [
            (6, "double_on"),
            (12, "double_on"),
            (6, "double_off"),
            (12, "double_off"),
        ]
        assert all(r["repetitions"] == 2 for r in doc.rows)
        assert doc.comment_value("base_seed") == "0"

    def test_single_repetition_has_zero_rms(self):
        doc = curve_rows(toy_spec(budgets=(6,), repetitions=1))
        for row in doc.rows:
            assert row["rms_scaled_variance"] == 0.0
            assert row["best_rep"] == 0
            assert row["worst_rep"] == 0

    def test_disabled_double_makes_arms_identical(self):
        doc = curve_rows(toy_spec(budgets=(5, 9), repetitions=2, enable_double=False))
        on = {r["budget"]: r for r in doc.rows if r["arm"] == "double_on"}
        off = {r["budget"]: r for r in doc.rows if r["arm"] == "double_off"}
        for budget in (5, 9):
            assert (
                on[budget]["mean_scaled_variance"]
                == off[budget]["mean_scaled_variance"]
            )
            assert (
                on[budget]["mean_scaled_sq_error"]
                == off[budget]["mean_scaled_sq_error"]
            )

    def test_disabled_double_runs_each_budget_once(self, monkeypatch, tmp_path):
        calls = []
        real = experiments.run_repetitions

        def counted(obs, state, cover, budget, repetitions, enable_double, *rest):
            calls.append((budget, enable_double))
            return real(obs, state, cover, budget, repetitions, enable_double, *rest)

        monkeypatch.setattr(experiments, "run_repetitions", counted)
        fields = dict(
            observable_source="builtin:ising-1x2", budgets=(20, 45), repetitions=3
        )
        full = curve_rows(ExperimentSpec(**fields))
        assert calls == [(20, True), (45, True), (20, False), (45, False)]
        calls.clear()
        alone = curve_rows(ExperimentSpec(**fields, enable_double=False))
        assert calls == [(20, False), (45, False)]
        # both arms of the no-double curve are the full curve's double_off
        # arm, written line for line
        off = [r for r in full.rows if r["arm"] == "double_off"]
        want = [dict(r, arm=arm) for arm in ("double_on", "double_off") for r in off]
        write_csv(alone, tmp_path / "alone.csv")
        write_csv(dataclasses.replace(alone, rows=tuple(want)), tmp_path / "want.csv")
        assert (tmp_path / "alone.csv").read_bytes() == (
            tmp_path / "want.csv"
        ).read_bytes()

    def test_round_trips_to_disk(self, tmp_path):
        doc = curve_rows(toy_spec(budgets=(6,), repetitions=1))
        path = tmp_path / "curve.csv"
        write_csv(doc, path)
        again = read_csv(path)
        assert again.fieldnames == doc.fieldnames
        assert len(again.rows) == len(doc.rows)
        assert float(again.rows[0]["mean_scaled_variance"]) == pytest.approx(
            doc.rows[0]["mean_scaled_variance"]
        )


class TestCalibrateRows:
    def test_columns_and_summary(self):
        spec = ExperimentSpec(
            observable_source="builtin:toy-fig1",
            budgets=(10,),
            repetitions=3,
            base_seed=1,
        )
        doc = calibrate_rows(spec)
        assert doc.fieldnames == (
            "rep",
            "m",
            "m_double",
            "estimate",
            "claimed_variance",
            "z_score",
            "flagged",
        )
        assert len(doc.rows) == 3
        assert [r["rep"] for r in doc.rows] == [0, 1, 2]
        assert doc.comment_value("budget") == "10"
        assert doc.comment_value("flagged_rows") == "0"
        zs = [r["z_score"] for r in doc.rows]
        mean_z = float(doc.comment_value("summary_mean_z"))
        rms_z = float(doc.comment_value("summary_rms_z"))
        assert mean_z == pytest.approx(np.mean(zs))
        assert rms_z == pytest.approx(np.sqrt(np.mean(np.square(zs))))

    def test_residuals_shrink_with_budget(self, tmp_path):
        # Deterministic single-term observable: every shot is -1, so the
        # estimate walks toward the exact mean as the budget grows.
        path = tmp_path / "z.txt"
        path.write_text("1.0 Z\n")

        def run(budget):
            spec = ExperimentSpec(
                observable_source=str(path),
                budgets=(budget,),
                repetitions=1,
                enable_double=False,
            )
            doc = calibrate_rows(spec)
            truth = float(doc.comment_value("exact_mean"))
            return abs(doc.rows[0]["estimate"] - truth)

        assert run(40) < run(10)

    def test_flagged_rows_excluded_from_summary(self, monkeypatch):
        import doubleshot.experiments as exp_mod

        obs = resolve_observable("builtin:toy-fig1")
        state = ground_state(obs)
        truth = exact_mean(obs, state)

        def fake_report(mean, variance):
            return EstimateReport(
                mean=mean,
                variance=variance,
                per_term=(),
                per_pair=(),
                m=3,
                m_double=0,
            )

        fakes = [
            AllocationResult(ledger=None, report=fake_report(truth + 0.5, 0.0), trace=()),
            AllocationResult(ledger=None, report=fake_report(truth, 0.0), trace=()),
            AllocationResult(ledger=None, report=fake_report(truth + 1.0, 4.0), trace=()),
        ]
        monkeypatch.setattr(
            exp_mod, "run_repetitions", lambda *a, **k: fakes
        )
        doc = calibrate_rows(toy_spec(repetitions=3))
        assert [r["flagged"] for r in doc.rows] == [1, 0, 0]
        assert math.isnan(doc.rows[0]["z_score"])
        assert doc.rows[1]["z_score"] == 0.0
        assert doc.rows[2]["z_score"] == pytest.approx(0.5)
        assert doc.comment_value("flagged_rows") == "1"
        # Summary over the two unflagged rows only: mean (0 + 0.5)/2.
        assert float(doc.comment_value("summary_mean_z")) == pytest.approx(0.25)


class TestDoubleUsageRows:
    def test_disabled_double_gives_zero_slope(self):
        spec = toy_spec(budgets=(30,), repetitions=2, enable_double=False)
        doc = double_usage_rows(spec)
        assert doc.fieldnames == ("m", "mean_m_double", "repetitions")
        assert [r["m"] for r in doc.rows] == list(range(1, 31))
        assert all(r["mean_m_double"] == 0.0 for r in doc.rows)
        assert float(doc.comment_value("fit_slope")) == 0.0
        assert doc.comment_value("fit_window_min_exclusive") == "20"
        assert doc.comment_value("fit_window_max_inclusive") == "30"

    def test_mean_m_double_is_nondecreasing(self):
        spec = toy_spec(budgets=(40,), repetitions=2)
        doc = double_usage_rows(spec)
        values = [r["mean_m_double"] for r in doc.rows]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_fit_max_caps_window(self):
        spec = toy_spec(budgets=(30,), repetitions=1, enable_double=False)
        doc = double_usage_rows(spec, fit_min=5, fit_max=12)
        assert doc.comment_value("fit_window_max_inclusive") == "12"

    def test_window_too_small_yields_nan(self):
        spec = toy_spec(budgets=(21,), repetitions=1, enable_double=False)
        doc = double_usage_rows(spec, fit_min=20)
        assert math.isnan(float(doc.comment_value("fit_slope")))


class TestTraceDocument:
    def test_reflects_run(self):
        obs = resolve_observable("builtin:toy-fig1")
        state = ground_state(obs)
        cover = cover_for(obs)
        result = run_allocation(
            obs, state, cover, AllocationConfig(budget=8, seed=0)
        )
        doc = trace_document(result, spec_note="budget = 8")
        assert len(doc.rows) == len(result.trace)
        assert doc.top_comments[-1] == "budget = 8"
        for row, t in zip(doc.rows, result.trace):
            assert row["step"] == t.step
            assert row["kind"] == t.kind
            assert row["m"] == t.m
            assert row["m_double"] == t.m_double
            if t.kind == "double":
                assert row["group"] == ""
            else:
                assert row["group"] == t.group

    def test_round_trips_to_disk(self, tmp_path):
        obs = resolve_observable("builtin:toy-fig1")
        state = ground_state(obs)
        cover = cover_for(obs)
        result = run_allocation(
            obs, state, cover, AllocationConfig(budget=5, seed=1)
        )
        path = tmp_path / "trace.csv"
        write_csv(trace_document(result), path)
        again = read_csv(path)
        assert len(again.rows) == 5
        assert float(again.rows[0]["predicted_variance"]) == pytest.approx(
            result.trace[0].predicted_variance
        )


class TestRecordColumns:
    def test_columns_are_the_dataclass_fields(self):
        obs = resolve_observable("builtin:ising-1x2")
        result = run_allocation(
            obs, ground_state(obs), cover_for(obs), AllocationConfig(budget=30, seed=0)
        )

        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert list(trace_document(result).fieldnames) == names(TraceRow)
        payload = result.report.to_dict()
        assert payload["per_term"] and payload["per_pair"]
        assert all(list(row) == names(TermReport) for row in payload["per_term"])
        assert all(list(row) == names(PairReport) for row in payload["per_pair"])


class TestReferenceReport:
    def test_toy_reference(self):
        obs = resolve_observable("builtin:toy-fig1")
        state = ground_state(obs)
        report = reference_report(obs, state)
        assert report["exact_mean"] == pytest.approx(-3.0, abs=1e-9)
        assert report["ground_state_energy"] == pytest.approx(-3.0, abs=1e-9)
        assert report["identity_offset"] == 0.0
        assert report["num_terms"] == 5
        assert report["state_source"] == GROUND_STATE_SOURCE
        assert len(report["terms"]) == 5
        for term in report["terms"]:
            theta = term["theta"]
            assert term["phi"] == pytest.approx(
                theta * theta + (1 - theta) * (1 - theta), abs=1e-12
            )

    def test_ground_state_source_runs_no_second_eigensolve(self, monkeypatch):
        obs = resolve_observable("builtin:ising-1x2")
        state = ground_state(obs)

        def no_eigensolve(*args, **kwargs):
            raise AssertionError("reference_report ran a second eigensolve")

        monkeypatch.setattr("doubleshot.experiments.ground_energy", no_eigensolve)
        report = reference_report(obs, state)
        assert report["ground_state_energy"] == report["exact_mean"]
        assert report["ground_state_energy"] == pytest.approx(
            -1.7917658636527167, abs=1e-12
        )

    def test_state_file_source_reports_true_ground_energy(self):
        obs = resolve_observable("builtin:toy-fig1")
        state = StateVector([1.0, 0.0, 0.0, 0.0])
        report = reference_report(obs, state, "state.txt")
        assert report["exact_mean"] == pytest.approx(1.0, abs=1e-12)
        assert report["ground_state_energy"] == pytest.approx(-3.0, abs=1e-9)
