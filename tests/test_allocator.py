"""Tests for the greedy adaptive allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshot.allocator import (
    _BOTH,
    _GROUP,
    _ISIDE,
    _JSIDE,
    _PAIR_DOUBLE,
    _REAL,
    _TERM_DOUBLE,
    AllocationConfig,
    _FastLoop,
    choose_action,
    cohort_size,
    run_allocation,
    run_allocations,
    virtual_update,
)
from doubleshot.errors import InvalidInputError, NumericalError, ResourceLimitError
from doubleshot.experiments import cover_for, rep_seed, run_repetitions
from doubleshot.hamiltonians import build_ising, load_builtin, random_ising_spec
from doubleshot.ledger import TallyLedger, estimate, joint_mask
from doubleshot.pauli import GroupCover, build_group_cover, parse_observable
from doubleshot.posterior import DEFAULT_CONFIG, MomentEngine
from doubleshot.simulator import (
    ShotOutcome,
    ground_state,
    sample_double_shot,
    sample_group_shot,
)

TOY_TEXT = "1.0 IX\n1.0 XI\n1.0 XX\n1.0 YY\n1.0 ZZ"


def toy_problem():
    obs = parse_observable(TOY_TEXT)
    cover = build_group_cover(obs)
    state = ground_state(obs)
    return obs, cover, state


def single_problem():
    obs = parse_observable("1.0 Z")
    return obs, build_group_cover(obs), ground_state(obs)


class TestCandidateIndex:
    # single_problem's cover has one group: candidate 0 is that group's
    # shot, 1 the double shot, and 2 is past the last candidate
    @pytest.mark.parametrize(
        "candidate", [-1, True, 1.5, "1", np.float64(1.0), None, 2],
        ids=["negative", "bool", "float", "str", "numpy-float", "none", "past-double"],
    )
    def test_virtual_update_refuses_bad_candidates(self, candidate):
        obs, cover, _ = single_problem()
        assert cover.num_groups == 1
        with pytest.raises(InvalidInputError, match="candidate"):
            virtual_update(TallyLedger(obs), candidate, cover)

    def test_virtual_update_takes_numpy_integers(self):
        obs, cover, _ = single_problem()
        led = TallyLedger(obs)
        hypo = virtual_update(led, np.int64(0), cover)
        assert np.array_equal(hypo.singles, virtual_update(led, 0, cover).singles)


class TestAllocationConfig:
    def test_budget_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            AllocationConfig(budget=0)
        with pytest.raises(InvalidInputError):
            AllocationConfig(budget=-5)

    @pytest.mark.parametrize("field", ["budget", "max_qubits"])
    @pytest.mark.parametrize("value", [2.5, 2.0, True, "4", None])
    def test_integer_fields_refuse_non_integers(self, field, value):
        fields = {"budget": 6, field: value}
        with pytest.raises(InvalidInputError, match="must be an integer"):
            AllocationConfig(**fields)

    def test_integer_fields_take_numpy_integers(self):
        config = AllocationConfig(budget=np.int64(6), max_qubits=np.int32(10))
        obs, cover, state = toy_problem()
        result = run_allocation(obs, state, cover, config)
        assert result.ledger.effective_shots == 6

    def test_max_qubits_must_be_positive(self):
        with pytest.raises(InvalidInputError):
            AllocationConfig(budget=6, max_qubits=-3, enable_double=False)
        with pytest.raises(InvalidInputError):
            AllocationConfig(budget=6, max_qubits=0)

    def test_defaults(self):
        config = AllocationConfig(budget=10)
        assert config.enable_double is True
        assert config.seed is None

    @pytest.mark.parametrize(
        "seed", [True, (True, 2), 1.5, -1, "abc", (0, -1), (0, 1.5), np.bool_(True)],
        ids=["bool", "bool-in-tuple", "float", "negative", "str", "negative-in-tuple",
             "float-in-tuple", "numpy-bool"],
    )
    def test_seed_refused_at_construction(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            AllocationConfig(budget=4, seed=seed)

    @pytest.mark.parametrize(
        "seed", [None, 0, 7, np.int64(3), (0, 1), [81, 2], (np.int32(4), 0)]
    )
    def test_seed_takes_integers_and_sequences_of_them(self, seed):
        assert AllocationConfig(budget=4, seed=seed).seed is seed

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_enable_double_must_be_a_bool(self, value):
        with pytest.raises(InvalidInputError, match="enable_double"):
            AllocationConfig(budget=4, enable_double=value)
        assert not AllocationConfig(budget=4, enable_double=np.False_).enable_double


class TestVirtualUpdate:
    def test_group_splits_single_counts_by_posterior_mean(self):
        obs, cover, _ = single_problem()
        led = TallyLedger(obs)
        led.record(ShotOutcome(kind="group", values={0: 1}))
        # One head on a flat prior: posterior mean 2/3, so the virtual shot
        # adds (2/3, 1/3) on top of the existing (1, 0).
        hypo = virtual_update(led, 0, cover)
        assert hypo.singles[0, 0] == pytest.approx(1.0 + 2.0 / 3.0, abs=1e-12)
        assert hypo.singles[0, 1] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert hypo.singles[0, 2] == 0.0
        assert hypo.singles[0, 3] == 0.0

    def test_double_splits_half_phi(self):
        obs, cover, _ = single_problem()
        led = TallyLedger(obs)
        # Flat prior: E[phi] = 2/3, and the double action books half an
        # expectation-valued shot, so d gains (1/2)(2/3, 1/3) = (1/3, 1/6).
        hypo = virtual_update(led, cover.num_groups, cover)
        assert hypo.singles[0, 2] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert hypo.singles[0, 3] == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert hypo.singles[0, 2] + hypo.singles[0, 3] == pytest.approx(
            0.5, abs=1e-12
        )

    def test_group_splits_joint_cells(self):
        obs, cover, _ = toy_problem()
        led = TallyLedger(obs)
        group_idx = next(
            g for g, members in enumerate(cover.groups)
            if set(members) == {2, 3, 4}
        )
        hypo = virtual_update(led, group_idx, cover)
        # Flat factorized pair posterior: every joint cell mean is 1/4.
        row = dict(zip(hypo.pair_keys, hypo.pairs))
        for i, j in [(2, 3), (2, 4), (3, 4)]:
            assert row[i, j][0:4] == pytest.approx(
                (0.25, 0.25, 0.25, 0.25), abs=1e-12
            )
        # Pairs with one endpoint outside the group get independent-count
        # splits by that endpoint's posterior mean (flat: 1/2).
        assert row[0, 2][10:12] == pytest.approx((0.5, 0.5), abs=1e-12)
        assert row[0, 2][8:10].tolist() == [0.0, 0.0]
        # Pairs fully outside stay untouched.
        assert row[0, 1][0:4].tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_double_splits_joint_phi_cells(self):
        obs, cover, _ = toy_problem()
        led = TallyLedger(obs)
        hypo = virtual_update(led, cover.num_groups, cover)
        # Flat factorized pair: joint phi means are the products of the
        # marginal phi means (2/3 each), halved for the two-shot cost.
        expected = 0.5 * np.array([4.0, 2.0, 2.0, 1.0]) / 9.0
        for d_joint in hypo.pairs[:, 4:8]:
            assert d_joint == pytest.approx(expected, abs=1e-12)
            assert d_joint.sum() == pytest.approx(0.5, abs=1e-12)

    def test_snapshot_isolation(self):
        obs, cover, _ = toy_problem()
        led = TallyLedger(obs)
        led.record(ShotOutcome(kind="group", values={0: 1, 1: -1}))
        singles_before = led.singles.copy()
        pairs_before = led.pairs.copy()
        for candidate in [0, cover.num_groups]:
            hypo = virtual_update(led, candidate, cover)
            assert hypo is not led
            assert np.array_equal(led.singles, singles_before)
            assert np.array_equal(led.pairs, pairs_before)
        assert led.shots_taken == 1

    def test_counters_not_advanced(self):
        # Hypothetical ledgers hold fractional counts and are only used for
        # variance prediction; their counters mirror the snapshot.
        obs, cover, _ = single_problem()
        led = TallyLedger(obs)
        hypo = virtual_update(led, cover.num_groups, cover)
        assert hypo.shots_taken == 0
        assert hypo.double_shots == 0


class TestPickMatrix:
    @pytest.mark.parametrize(
        "name", ["toy-fig1", "ising-1x2", "ising-2x2", "ising-2x3"]
    )
    def test_picks_match_brute_force(self, name):
        obs = load_builtin(name)
        cover = cover_for(obs)
        loop = _FastLoop(obs, cover, enable_double=True)
        led = loop.ledger
        g = cover.num_groups
        assert loop.term_pick.shape == (g + 1, led.num_terms)
        assert loop.pair_pick.shape == (g + 1, led.num_pairs)
        for c, members in enumerate(cover.groups):
            held = set(members)
            for t in range(led.num_terms):
                want = _GROUP if t in held else _REAL
                assert loop.term_pick[c, t] == want
            for k, (i, j) in enumerate(led.pair_keys):
                if i in held and j in held:
                    want = _BOTH
                elif i in held:
                    want = _ISIDE
                elif j in held:
                    want = _JSIDE
                else:
                    want = _REAL
                assert loop.pair_pick[c, k] == want
        assert np.all(loop.term_pick[g] == _TERM_DOUBLE)
        assert np.all(loop.pair_pick[g] == _PAIR_DOUBLE)
        for v in (_BOTH, _ISIDE, _JSIDE):
            assert np.array_equal(
                loop.needed[v], (loop.pair_pick[:g] == v).any(axis=0)
            )


class TestChooseAction:
    def test_single_term_without_double_returns_singleton_group(self):
        obs, cover, _ = single_problem()
        config = AllocationConfig(budget=10, enable_double=False)
        assert choose_action(TallyLedger(obs), obs, cover, config) == 0

    def test_remaining_budget_one_excludes_double(self):
        obs, cover, _ = single_problem()
        config = AllocationConfig(budget=1)
        assert choose_action(TallyLedger(obs), obs, cover, config) < cover.num_groups

    def test_no_budget_remaining_rejected(self):
        obs, cover, _ = single_problem()
        led = TallyLedger(obs)
        led.record(ShotOutcome(kind="group", values={0: 1}))
        with pytest.raises(InvalidInputError):
            choose_action(led, obs, cover, AllocationConfig(budget=1))

    def test_empty_cover_rejected(self):
        obs = parse_observable("0.5 II")
        cover = cover_for(obs)
        assert cover.num_groups == 0
        with pytest.raises(InvalidInputError):
            choose_action(TallyLedger(obs), obs, cover, AllocationConfig(budget=5))

    def test_deterministic(self):
        obs, cover, _ = toy_problem()
        led = TallyLedger(obs)
        led.record(ShotOutcome(kind="group", values={0: 1, 1: -1, 2: 1}))
        config = AllocationConfig(budget=50)
        first = choose_action(led, obs, cover, config)
        second = choose_action(led, obs, cover, config)
        assert first == second

    def test_picks_variance_argmin(self):
        obs, cover, _ = toy_problem()
        engine = MomentEngine()
        led = TallyLedger(obs)
        rng = np.random.default_rng(11)
        state = ground_state(obs)
        for _ in range(6):
            led.record(sample_group_shot(state, obs, cover.groups[0], rng))
        config = AllocationConfig(budget=100)
        chosen = choose_action(led, obs, cover, config)
        variances = [
            estimate(virtual_update(led, c, cover), obs, engine).variance
            for c in range(cover.num_groups + 1)
        ]
        assert chosen == int(np.argmin(variances))


class TestInformationNeverHurts:
    @settings(max_examples=60, deadline=None)
    @given(
        s_plus=st.integers(min_value=0, max_value=30),
        s_minus=st.integers(min_value=0, max_value=30),
        d_plus=st.integers(min_value=0, max_value=30),
        d_minus=st.integers(min_value=0, max_value=30),
    )
    def test_virtual_group_shot_never_raises_predicted_variance(
        self, s_plus, s_minus, d_plus, d_minus
    ):
        obs, cover, _ = single_problem()
        engine = MomentEngine()
        led = TallyLedger(obs)
        led.singles[0] = [s_plus, s_minus, d_plus, d_minus]
        led.shots_taken = s_plus + s_minus + d_plus + d_minus
        led.double_shots = d_plus + d_minus
        current = estimate(led, obs, engine).variance
        hypo = virtual_update(led, 0, cover)
        predicted = estimate(hypo, obs, engine).variance
        assert predicted <= current + 1e-12


class TestRunAllocation:
    @pytest.mark.parametrize("budget", [1, 2, 7, 20])
    def test_budget_spent_exactly(self, budget):
        obs, cover, state = toy_problem()
        result = run_allocation(
            obs, state, cover, AllocationConfig(budget=budget, seed=0)
        )
        assert result.ledger.effective_shots == budget
        costs = sum(1 if row.kind == "group" else 2 for row in result.trace)
        assert costs == budget
        assert result.report.m == result.ledger.shots_taken
        assert result.report.m_double == result.ledger.double_shots

    def test_budget_one_is_single_group_shot(self):
        obs, cover, state = toy_problem()
        result = run_allocation(
            obs, state, cover, AllocationConfig(budget=1, seed=0)
        )
        assert len(result.trace) == 1
        assert result.trace[0].kind == "group"
        assert result.ledger.double_shots == 0

    def test_single_group_no_double_runs_budget_group_shots(self):
        obs, cover, state = single_problem()
        config = AllocationConfig(budget=10, enable_double=False, seed=3)
        result = run_allocation(obs, state, cover, config)
        assert len(result.trace) == 10
        assert all(row.kind == "group" for row in result.trace)
        assert result.ledger.shots_taken == 10
        assert result.ledger.double_shots == 0

    def test_disable_double_keeps_m_eff_equal_m(self):
        obs, cover, state = toy_problem()
        config = AllocationConfig(budget=30, enable_double=False, seed=1)
        result = run_allocation(obs, state, cover, config)
        assert result.ledger.double_shots == 0
        assert result.ledger.effective_shots == result.ledger.shots_taken == 30
        assert all(row.kind == "group" for row in result.trace)

    def test_trace_rows_are_consistent(self):
        obs, cover, state = toy_problem()
        result = run_allocation(
            obs, state, cover, AllocationConfig(budget=15, seed=2)
        )
        m, m_double = 0, 0
        for step, row in enumerate(result.trace, start=1):
            assert row.step == step
            m += 1
            if row.kind == "double":
                m_double += 1
                assert row.group is None
            else:
                assert 0 <= row.group < cover.num_groups
            assert row.m == m
            assert row.m_double == m_double
            assert row.predicted_variance >= 0.0
            assert row.realized_variance >= 0.0
        assert result.trace[-1].realized_variance == pytest.approx(
            result.report.variance
        )

    def test_deterministic_given_seed(self):
        obs, cover, state = toy_problem()
        config = AllocationConfig(budget=25, seed=7)
        first = run_allocation(obs, state, cover, config)
        second = run_allocation(obs, state, cover, config)
        assert first.trace == second.trace
        assert first.report.mean == second.report.mean
        assert first.report.variance == second.report.variance
        assert np.array_equal(first.ledger.singles, second.ledger.singles)

    def test_different_seeds_differ(self):
        obs, cover, state = toy_problem()
        first = run_allocation(obs, state, cover, AllocationConfig(budget=25, seed=0))
        second = run_allocation(obs, state, cover, AllocationConfig(budget=25, seed=1))
        assert not np.array_equal(first.ledger.singles, second.ledger.singles)

    def test_fast_loop_matches_reference_chooser(self):
        # Replay the run with the reference chooser and the same RNG stream:
        # the incremental candidate evaluation must pick identical actions
        # and produce an identical final ledger.
        obs, cover, state = toy_problem()
        config = AllocationConfig(budget=20, seed=5)
        result = run_allocation(obs, state, cover, config)
        assert len(result.trace) >= 12

        from doubleshot.simulator import sample_double_shot

        engine = DEFAULT_CONFIG
        rng = np.random.default_rng(config.seed)
        led = TallyLedger(obs)
        for row in result.trace:
            candidate = choose_action(led, obs, cover, config)
            double = row.kind == "double"
            assert candidate == (cover.num_groups if double else row.group)
            hypo = virtual_update(led, candidate, cover)
            assert estimate(hypo, obs, engine).variance == pytest.approx(
                row.predicted_variance, rel=1e-12, abs=1e-15
            )
            if double:
                outcome = sample_double_shot(state, obs, rng)
            else:
                outcome = sample_group_shot(state, obs, cover.groups[candidate], rng)
            led.record(outcome)
        assert np.array_equal(led.singles, result.ledger.singles)
        assert np.array_equal(led.pairs, result.ledger.pairs)
        final = estimate(led, obs, engine)
        assert final.mean == pytest.approx(result.report.mean, rel=1e-12)
        assert final.variance == pytest.approx(result.report.variance, rel=1e-12)

    def test_bell_table_built_once_per_run(self, monkeypatch):
        import doubleshot.allocator as alloc_mod

        obs = load_builtin("ising-1x2")
        cover = cover_for(obs)
        state = ground_state(obs)
        config = AllocationConfig(budget=40, seed=1)
        plain = run_allocation(obs, state, cover, config)
        assert sum(row.kind == "double" for row in plain.trace) >= 2

        built = []
        real = alloc_mod._bell_table

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(alloc_mod, "_bell_table", counting)
        counted = run_allocation(obs, state, cover, config)
        assert len(built) == 1
        assert counted.trace == plain.trace
        assert counted.report == plain.report

        built.clear()
        no_double = AllocationConfig(budget=40, seed=1, enable_double=False)
        run_allocation(obs, state, cover, no_double)
        assert built == []

    @pytest.mark.parametrize(
        "enable_double, script",
        [(True, [0, 1, "double", 0, 2, "double", 1]), (False, [0, 1, 0, 2, 1, 3])],
        ids=["double-on", "double-off"],
    )
    def test_incremental_predictions_equal_reference_bits(self, enable_double, script):
        # After every kind of real action the fast loop's tables must give
        # each candidate exactly the variance estimate() gives its
        # hypothetical ledger, bit for bit.  Without double shots the pairs
        # split across groups are never measured jointly, so at every step
        # the loop skips their one-side variants.
        obs = load_builtin("ising-2x2")
        cover = cover_for(obs)
        state = ground_state(obs)
        config = AllocationConfig(budget=30, seed=2)
        engine = DEFAULT_CONFIG
        loop = _FastLoop(obs, cover, enable_double=enable_double)
        # a cohort of one run, started as a fresh ledger: every row evaluated
        live = np.array([0])
        variance = loop.update(engine, live, np.array([cover.num_groups]))
        ledger = loop.ledgers[0]
        rng = np.random.default_rng(config.seed)
        candidates = range(cover.num_groups + enable_double)
        for step in script:
            want = [
                estimate(virtual_update(ledger, c, cover), obs, engine).variance
                for c in candidates
            ]
            predicted = loop.predict(live, np.array([enable_double]))[0]
            assert predicted[: len(candidates)].tolist() == want
            assert variance[0] == estimate(ledger, obs, engine).variance
            if step == "double":
                candidate = cover.num_groups
                outcome = sample_double_shot(state, obs, rng)
            else:
                candidate = step
                outcome = sample_group_shot(state, obs, cover.groups[step], rng)
            ledger.record(outcome)
            variance = loop.update(engine, live, np.array([candidate]))

    def test_zero_term_observable_takes_no_shots(self):
        obs = parse_observable("0.5 II")
        cover = cover_for(obs)
        state = ground_state(obs)
        result = run_allocation(obs, state, cover, AllocationConfig(budget=10))
        assert result.trace == ()
        assert result.ledger.effective_shots == 0
        assert result.report.mean == 0.5
        assert result.report.variance == 0.0

    def test_sampling_failure_attaches_partial_trace(self, monkeypatch):
        obs, cover, state = toy_problem()
        calls = {"n": 0}
        real = sample_group_shot

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 3:
                raise NumericalError("injected sampling failure")
            return real(*args, **kwargs)

        import doubleshot.allocator as alloc_mod

        monkeypatch.setattr(alloc_mod, "sample_group_shot", flaky)
        config = AllocationConfig(budget=50, enable_double=False, seed=0)
        with pytest.raises(NumericalError) as excinfo:
            run_allocation(obs, state, cover, config)
        assert len(excinfo.value.partial_trace) == 3

        # Inside one cohort only repetition 1 of 3 fails, at its 11th shot:
        # the error leaves with that repetition's own trace.
        rep1_shots = []

        def flaky_in_rep1(state, obs, group, rng, **kwargs):
            if rng.bit_generator.seed_seq.entropy == rep_seed(0, 1):
                rep1_shots.append(group)
                if len(rep1_shots) > 10:
                    raise NumericalError("injected sampling failure")
            return real(state, obs, group, rng, **kwargs)

        monkeypatch.setattr(alloc_mod, "sample_group_shot", flaky_in_rep1)
        obs = load_builtin("ising-1x2")
        cover = cover_for(obs)
        state = ground_state(obs)
        assert cohort_size(obs) >= 3
        with pytest.raises(NumericalError) as excinfo:
            run_repetitions(obs, state, cover, 50, 3, False, 0, MomentEngine())
        monkeypatch.undo()
        alone = [
            run_allocation(
                obs, state, cover,
                AllocationConfig(budget=50, enable_double=False, seed=rep_seed(0, r)),
            ).trace[:10]
            for r in range(3)
        ]
        assert excinfo.value.partial_trace == alone[1]
        assert alone[1] not in (alone[0], alone[2])

    def test_engine_failure_in_a_cohort_carries_that_runs_trace(self, monkeypatch):
        # pair_block fails once a pair row holds 20 joint single counts,
        # which each repetition reaches at its own step.  In a cohort the
        # error leaves with the trace of the repetition that reaches it
        # first, exactly as that repetition's lone run leaves.
        real = MomentEngine.pair_block
        calls = []

        def failing(self, counts):
            calls.append(counts.shape[0])
            if np.any(counts[:, :4].sum(axis=1) >= 20):
                raise NumericalError("injected moment failure")
            return real(self, counts)

        monkeypatch.setattr(MomentEngine, "pair_block", failing)
        obs = load_builtin("ising-1x2")
        cover = cover_for(obs)
        state = ground_state(obs)
        configs = [
            AllocationConfig(budget=200, enable_double=False, seed=rep_seed(0, r))
            for r in range(3)
        ]
        lone = []
        for config in configs:
            calls.clear()
            with pytest.raises(NumericalError) as excinfo:
                run_allocation(obs, state, cover, config)
            lone.append((len(calls), excinfo.value.partial_trace))
        first = min(range(3), key=lambda r: (lone[r][0], r))
        assert first != 0
        with pytest.raises(NumericalError) as excinfo:
            run_allocations(obs, state, cover, configs)
        assert excinfo.value.partial_trace == lone[first][1]

    @pytest.mark.parametrize(
        "extra", [(15,), (-1,), (), (0, 1), (True,), (2.0,)],
        ids=["out-of-range", "negative", "empty", "anticommuting", "bool", "float"],
    )
    def test_bad_cover_group_refused_before_any_shot(self, monkeypatch, extra):
        # on ising-1x2 terms 0 and 1 are XI and YI, which anticommute
        import doubleshot.allocator as alloc_mod

        obs = load_builtin("ising-1x2")
        cover = GroupCover(groups=cover_for(obs).groups + (extra,))
        state = ground_state(obs)
        shots = []
        monkeypatch.setattr(
            alloc_mod, "sample_group_shot", lambda *args, **kw: shots.append(args)
        )
        config = AllocationConfig(budget=60, seed=rep_seed(0, 0))
        with pytest.raises(InvalidInputError):
            run_allocation(obs, state, cover, config)
        with pytest.raises(InvalidInputError):
            run_allocations(obs, state, cover, [])
        assert shots == []
        with pytest.raises(InvalidInputError):
            choose_action(TallyLedger(obs), obs, cover, config)

    def test_width_mismatch_refused_before_any_engine_call(self, monkeypatch):
        calls = []
        for name in ("single_block", "pair_block"):
            real = getattr(MomentEngine, name)

            def counting(self, rows, _real=real):
                calls.append(len(rows))
                return _real(self, rows)

            monkeypatch.setattr(MomentEngine, name, counting)
        obs = load_builtin("ising-1x2")
        state = ground_state(load_builtin("ising-2x2"))
        config = AllocationConfig(budget=10, seed=0)
        with pytest.raises(InvalidInputError, match="width"):
            run_allocations(obs, state, cover_for(obs), [config])
        assert calls == []

    def test_no_configs_give_no_runs(self):
        obs, cover, state = toy_problem()
        assert run_allocations(obs, state, cover, []) == []

    @pytest.mark.parametrize(
        "enable_double", [False, True], ids=["double-off", "double-on"]
    )
    def test_qubit_cap_checked_before_any_shot(self, monkeypatch, enable_double):
        import doubleshot.allocator as alloc_mod

        obs = load_builtin("ising-1x2")
        state = ground_state(obs)
        shots = []
        for name in ("sample_group_shot", "sample_double_shot"):
            monkeypatch.setattr(
                alloc_mod, name, lambda *args, **kw: shots.append(args)
            )
        configs = [
            AllocationConfig(budget=40, enable_double=enable_double, seed=1),
            AllocationConfig(
                budget=40, enable_double=enable_double, seed=1, max_qubits=1
            ),
        ]
        with pytest.raises(ResourceLimitError):
            run_allocations(obs, state, cover_for(obs), configs)
        assert shots == []

    def test_cohort_size_follows_the_observable(self):
        wide = build_ising(random_ising_spec(2, 5, np.random.default_rng(7)))
        assert cohort_size(wide) == 1
        assert cohort_size(load_builtin("ising-2x3")) == 1
        assert cohort_size(load_builtin("ising-1x2")) >= 20
        assert cohort_size(parse_observable("0.5 II")) >= 1


class TestCohortStepIsArrays:
    def test_helper_calls_follow_the_steps_not_the_runs(self, monkeypatch):
        # A cohort step evaluates the rows of all its runs with one call of
        # each contribution helper per phase, so a cohort of 16 runs makes
        # about as many calls as one of 2 (its longest run may take more
        # steps), not 8 times as many.
        import doubleshot.allocator as alloc_mod

        obs = load_builtin("ising-1x2")
        cover = cover_for(obs)
        state = ground_state(obs)
        assert cohort_size(obs) >= 16
        helpers = ("joint_mask", "pair_contributions", "term_contributions")
        calls = dict.fromkeys(helpers, 0)
        for name in helpers:
            real = getattr(alloc_mod, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(alloc_mod, name, counting)

        def count(runs):
            calls.update(dict.fromkeys(helpers, 0))
            run_repetitions(obs, state, cover, 60, runs, True, 0, MomentEngine())
            return dict(calls)

        two, sixteen = count(2), count(16)
        for name in helpers:
            assert 0 < sixteen[name] <= 2 * two[name], (name, two, sixteen)


class TestOneSideRowsAreJoint:
    def test_no_virtual_pair_row_is_discarded(self, monkeypatch):
        # The cohort step builds a one-side pair row only for a pair already
        # measured jointly, so every virtual pair row it builds carries a
        # covariance and goes to the engine.  Checking that on every row
        # leaves the runs as they are.
        import doubleshot.allocator as alloc_mod

        def runs():
            obs = load_builtin("ising-2x2")
            cover, state = cover_for(obs), ground_state(obs)
            out = []
            for enable_double in (True, False):
                configs = [
                    AllocationConfig(
                        budget=30, enable_double=enable_double, seed=rep_seed(0, r)
                    )
                    for r in range(3)
                ]
                out.extend(run_allocations(obs, state, cover, configs))
            wide = load_builtin("ising-2x3")
            out.append(run_allocation(
                wide, ground_state(wide), cover_for(wide),
                AllocationConfig(budget=40, seed=0),
            ))
            return [(r.trace, r.report) for r in out]

        plain = runs()
        built = []
        for name in ("_iside_pair_rows", "_jside_pair_rows"):
            real = getattr(alloc_mod, name)

            def joint_only(pairs, theta, _real=real):
                assert np.all(joint_mask(pairs))
                built.append(len(pairs))
                return _real(pairs, theta)

            monkeypatch.setattr(alloc_mod, name, joint_only)
        assert runs() == plain
        assert sum(built) > 0
