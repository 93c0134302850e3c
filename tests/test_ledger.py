"""Tests for the tally ledger: recording, integrity checks, and estimates."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshot.allocator import (
    AllocationConfig,
    MeasurementAction,
    run_allocation,
    virtual_update,
)
from doubleshot.errors import InvalidInputError
from doubleshot.experiments import cover_for
from doubleshot.ledger import (
    EstimateReport,
    TallyLedger,
    clamped_variance,
    estimate,
    joint_mask,
)
from doubleshot.pauli import build_group_cover, observable_from_pairs, parse_observable
from doubleshot.posterior import DEFAULT_CONFIG, MomentEngine
from doubleshot.simulator import ShotOutcome, ground_state, sample_group_shot

TOY_TEXT = "1.0 IX\n1.0 XI\n1.0 XX\n1.0 YY\n1.0 ZZ"
ORACLE = MomentEngine.oracle()

# columns of a single count row and of a pair count row
S_PLUS, S_MINUS = 0, 1
S_JOINT, D_JOINT = slice(0, 4), slice(4, 8)
S_I_INDEP, S_J_INDEP = slice(8, 10), slice(10, 12)


def pair_row(led, i, j):
    """The count row of tracked pair (i, j)."""
    return led.pairs[led.pair_keys.index((i, j))]


def toy_obs():
    return parse_observable(TOY_TEXT)


def group(values):
    return ShotOutcome(kind="group", values=values)


def double(values):
    return ShotOutcome(kind="double", values=values)


class TestConstruction:
    def test_tracks_only_commuting_pairs(self):
        led = TallyLedger(toy_obs())
        # IX/XI/XX mutually commute, and XX/YY/ZZ mutually commute; the
        # cross pairs (IX,YY), (IX,ZZ), (XI,YY), (XI,ZZ) anticommute.
        assert led.pair_keys == ((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4))
        assert led.num_pairs == 6
        assert (2, 3) in led.pair_keys
        assert (0, 3) not in led.pair_keys

    def test_starts_empty(self):
        led = TallyLedger(toy_obs())
        assert led.shots_taken == 0
        assert led.double_shots == 0
        assert led.effective_shots == 0
        assert not led.singles.any()
        assert not led.pairs.any()
        led.validate()

    def test_copy_is_independent(self):
        led = TallyLedger(toy_obs())
        dup = led.copy()
        dup.record(group({0: 1, 1: -1}))
        assert led.shots_taken == 0
        assert not led.singles.any()
        assert dup.shots_taken == 1


class TestRecordGroup:
    def test_joint_and_independent_bins(self):
        led = TallyLedger(toy_obs())
        led.record(group({0: 1, 1: -1}))
        assert led.singles[0, S_PLUS] == 1
        assert led.singles[1, S_MINUS] == 1
        # (0,1) was hit jointly with outcomes (+, -): second joint cell.
        assert pair_row(led, 0, 1)[S_JOINT].tolist() == [0.0, 1.0, 0.0, 0.0]
        # (0,2) and (1,2) each saw only one endpoint.
        assert pair_row(led, 0, 2)[S_I_INDEP].tolist() == [1.0, 0.0]
        assert pair_row(led, 0, 2)[S_JOINT].tolist() == [0.0, 0.0, 0.0, 0.0]
        assert pair_row(led, 1, 2)[S_I_INDEP].tolist() == [0.0, 1.0]
        # Pairs not touching term 0 or 1 stay empty.
        assert not any(pair_row(led, 3, 4)[S_JOINT])
        assert not any(pair_row(led, 3, 4)[S_I_INDEP])
        assert led.shots_taken == 1
        assert led.double_shots == 0
        led.validate()

    def test_joint_bin_order_is_pp_pm_mp_mm(self):
        cells = {}
        for oi, oj in [(1, 1), (1, -1), (-1, 1), (-1, -1)]:
            led = TallyLedger(toy_obs())
            led.record(group({3: oi, 4: oj}))
            cells[(oi, oj)] = pair_row(led, 3, 4)[S_JOINT].tolist()
        assert cells[(1, 1)] == [1.0, 0.0, 0.0, 0.0]
        assert cells[(1, -1)] == [0.0, 1.0, 0.0, 0.0]
        assert cells[(-1, 1)] == [0.0, 0.0, 1.0, 0.0]
        assert cells[(-1, -1)] == [0.0, 0.0, 0.0, 1.0]

    def test_separate_singles_count_as_independent(self):
        # Two solo shots of term 0 followed by one joint shot of (0, 1):
        # the pair posterior must see the solo outcomes as independent
        # evidence, not as joint cells.
        led = TallyLedger(toy_obs())
        led.record(group({0: 1}))
        led.record(group({0: 1}))
        led.record(group({0: 1, 1: 1}))
        row = pair_row(led, 0, 1)
        assert row[S_JOINT].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert row[S_I_INDEP].tolist() == [2.0, 0.0]
        assert row[S_J_INDEP].tolist() == [0.0, 0.0]
        assert led.singles[0, S_PLUS] == 3
        assert led.singles[1, S_PLUS] == 1
        led.validate()

    def test_rejects_out_of_range_index(self):
        led = TallyLedger(toy_obs())
        with pytest.raises(InvalidInputError):
            led.record(group({5: 1}))
        with pytest.raises(InvalidInputError):
            led.record(group({-1: 1}))

    def test_numpy_integer_indices_count_like_ints(self):
        led, ref = TallyLedger(toy_obs()), TallyLedger(toy_obs())
        for make, values in ((group, {0: 1, 2: -1}), (double, dict.fromkeys(range(5), 1))):
            led.record(make({np.int64(i): o for i, o in values.items()}))
            ref.record(make(values))
        assert np.array_equal(led.singles, ref.singles)
        assert np.array_equal(led.pairs, ref.pairs)
        assert (led.shots_taken, led.double_shots) == (2, 1)

    def test_rejects_unknown_kind(self):
        led = TallyLedger(toy_obs())
        with pytest.raises(InvalidInputError):
            led.record(ShotOutcome(kind="triple", values={0: 1}))


class TestRecordDouble:
    def test_updates_every_term_and_pair(self):
        led = TallyLedger(toy_obs())
        led.record(double({0: 1, 1: -1, 2: 1, 3: -1, 4: 1}))
        assert np.array_equal(led.singles[:, 2], [1, 0, 1, 0, 1])
        assert np.array_equal(led.singles[:, 3], [0, 1, 0, 1, 0])
        # Every tracked pair receives exactly one joint doubled count, in the
        # cell matching its endpoints' signs.
        assert pair_row(led, 0, 1)[D_JOINT].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert pair_row(led, 0, 2)[D_JOINT].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert pair_row(led, 3, 4)[D_JOINT].tolist() == [0.0, 0.0, 1.0, 0.0]
        for i, j in led.pair_keys:
            assert sum(pair_row(led, i, j)[D_JOINT]) == 1.0
        assert led.shots_taken == 1
        assert led.double_shots == 1
        assert led.effective_shots == 2
        led.validate()

    def test_three_term_commuting_observable(self):
        obs = parse_observable("1.0 XX\n1.0 YY\n1.0 ZZ")
        led = TallyLedger(obs)
        assert led.pair_keys == ((0, 1), (0, 2), (1, 2))
        led.record(double({0: 1, 1: 1, 2: -1}))
        assert np.array_equal(led.singles[:, 2], [1, 1, 0])
        assert np.array_equal(led.singles[:, 3], [0, 0, 1])
        assert pair_row(led, 0, 1)[D_JOINT].tolist() == [1.0, 0.0, 0.0, 0.0]
        assert pair_row(led, 0, 2)[D_JOINT].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert pair_row(led, 1, 2)[D_JOINT].tolist() == [0.0, 1.0, 0.0, 0.0]
        led.validate()

    def test_rejects_partial_coverage(self):
        led = TallyLedger(toy_obs())
        with pytest.raises(InvalidInputError):
            led.record(double({0: 1, 1: 1}))


# Random interleavings of group and double shots on the toy observable.
_toy_groups = st.sampled_from([(0, 1, 2), (2, 3, 4), (0,), (3,), (0, 2), (3, 4)])
_signs = st.integers(min_value=0, max_value=1).map(lambda b: 2 * b - 1)


@st.composite
def toy_shot(draw):
    if draw(st.booleans()):
        terms = draw(_toy_groups)
        return group({t: draw(_signs) for t in terms})
    return double({t: draw(_signs) for t in range(5)})


class TestBookkeeping:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(toy_shot(), max_size=25))
    def test_counters_and_identities_after_any_stream(self, shots):
        led = TallyLedger(toy_obs())
        for outcome in shots:
            led.record(outcome)
        doubles = sum(1 for s in shots if s.kind == "double")
        assert led.shots_taken == len(shots)
        assert led.double_shots == doubles
        assert led.effective_shots == len(shots) + doubles
        # Doubled counts on every term equal the number of double shots.
        assert np.array_equal(
            led.singles[:, 2] + led.singles[:, 3],
            np.full(5, float(doubles)),
        )
        led.validate()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(toy_shot(), max_size=20))
    def test_joint_mask_matches_pair_rows(self, shots):
        led = TallyLedger(toy_obs())
        for outcome in shots:
            led.record(outcome)
        mask = joint_mask(led.pairs)
        for k, row in enumerate(led.pairs):
            has_joint = any(row[S_JOINT]) or any(row[D_JOINT])
            assert mask[k] == has_joint


class ReferenceLedger:
    """Recording term by term and pair by pair, as the reference for record.

    Group shots walk every pair touching a measured term; double shots set
    each pair's joint cell from the signs of its ends.
    """

    def __init__(self, obs):
        led = TallyLedger(obs)
        p, q = led.num_terms, led.num_pairs
        self.num_terms = p
        self.pair_keys, self.pair_i, self.pair_j = led.pair_keys, led.pair_i, led.pair_j
        self.singles = np.zeros((p, 4))
        self.pairs = np.zeros((q, 12))
        ends = np.concatenate([self.pair_j, self.pair_i])
        order = np.argsort(ends, kind="stable")
        rows = np.concatenate([np.arange(q)] * 2)[order]
        bounds = np.cumsum(np.bincount(ends, minlength=p))[:-1]
        self.pairs_touching = tuple(np.split(rows, bounds))
        self.shots_taken = 0
        self.double_shots = 0

    def record(self, outcome):
        if outcome.kind == "group":
            self._record_group(outcome.values)
        else:
            self._record_double(outcome.values)

    def _record_group(self, values):
        touched = set()
        for i, o in values.items():
            self.singles[i, 0 if o > 0 else 1] += 1.0
            touched.update(self.pairs_touching[i].tolist())
        for k in touched:
            i, j = self.pair_keys[k]
            oi = values.get(i)
            oj = values.get(j)
            if oi is not None and oj is not None:
                self.pairs[k, (0 if oi > 0 else 2) + (0 if oj > 0 else 1)] += 1.0
            elif oi is not None:
                self.pairs[k, 8 + (0 if oi > 0 else 1)] += 1.0
            else:
                self.pairs[k, 10 + (0 if oj > 0 else 1)] += 1.0
        self.shots_taken += 1

    def _record_double(self, values):
        o = np.array([values[i] for i in range(self.num_terms)])
        plus = o > 0
        self.singles[:, 2] += plus
        self.singles[:, 3] += ~plus
        if len(self.pair_keys):
            bins = 4 + np.where(plus[self.pair_i], 0, 2) + np.where(
                plus[self.pair_j], 0, 1
            )
            self.pairs[np.arange(len(self.pair_keys)), bins] += 1.0
        self.shots_taken += 1
        self.double_shots += 1


_sign = st.sampled_from((1, -1))


@st.composite
def observable_and_shots(draw):
    """A random observable of width 1-4 and a stream of shots on it.

    Group outcomes cover a random subset of the terms, in random order;
    double outcomes cover every term.
    """
    width = draw(st.integers(min_value=1, max_value=4))
    letters = st.text(alphabet="IXYZ", min_size=width, max_size=width).filter(
        lambda s: set(s) != {"I"}
    )
    strings = draw(st.lists(letters, min_size=1, max_size=12, unique=True))
    obs = observable_from_pairs([(1.0, s) for s in strings])
    p = obs.num_terms
    shot = st.one_of(
        st.dictionaries(st.integers(min_value=0, max_value=p - 1), _sign).map(group),
        st.lists(_sign, min_size=p, max_size=p).map(
            lambda signs: double(dict(enumerate(signs)))
        ),
    )
    return obs, draw(st.lists(shot, max_size=20))


def _assert_same_counts(led, ref):
    assert np.array_equal(led.singles, ref.singles)
    assert np.array_equal(led.pairs, ref.pairs)
    assert led.shots_taken == ref.shots_taken
    assert led.double_shots == ref.double_shots


class TestRecordAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(observable_and_shots())
    def test_same_counts_as_term_by_term_recording(self, case):
        obs, shots = case
        led, ref = TallyLedger(obs), ReferenceLedger(obs)
        for outcome in shots:
            led.record(outcome)
            ref.record(outcome)
        _assert_same_counts(led, ref)
        led.validate()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(toy_shot(), max_size=20), st.integers(min_value=0, max_value=2))
    def test_writes_through_a_run_view_only(self, shots, run):
        # The allocator hands each run's ledger views into one (runs, rows,
        # cols) array per table; a shot must land in its own run's slice.
        obs = toy_obs()
        rng = np.random.default_rng(run)
        singles = rng.integers(0, 4, size=(3, 5, 4)).astype(float)
        pairs = rng.integers(0, 4, size=(3, 6, 12)).astype(float)
        before = singles.copy(), pairs.copy()
        led, ref = TallyLedger(obs), ReferenceLedger(obs)
        led.singles, led.pairs = singles[run], pairs[run]
        for outcome in shots:
            led.record(outcome)
            ref.record(outcome)
        others = np.arange(3) != run
        assert np.array_equal(singles[others], before[0][others])
        assert np.array_equal(pairs[others], before[1][others])
        assert np.array_equal(singles[run] - before[0][run], ref.singles)
        assert np.array_equal(pairs[run] - before[1][run], ref.pairs)


class TestRecordRefusesBadValues:
    @pytest.mark.parametrize(
        "outcome",
        [
            group({0: 0}),
            group({0: 1, 1: 5}),
            group({2: -1, 3: 0.5}),
            group({0: 1, 1: -2}),
            double({t: 0 for t in range(5)}),
            double({0: 1, 1: -1, 2: 2, 3: 1, 4: 1}),
            group({0: 1, 7: 1}),
            double({0: 1, 1: -1, 2: 1, 3: 1, 9: 1}),
            group({0: 1, 1.5: 1}),
            group({True: 1}),
            double({0: 1, 1: -1, 2: 1, 3: -1, 4.0: 1}),
            double({False: 1, True: -1, 2: 1, 3: -1, 4: 1}),
        ],
        ids=[
            "group-zero", "group-five", "group-half", "group-minus-two",
            "double-all-zero", "double-two", "group-index", "double-index",
            "group-float-index", "group-bool-index", "double-float-index",
            "double-bool-index",
        ],
    )
    def test_refused_outcome_moves_no_count(self, outcome):
        led = TallyLedger(toy_obs())
        led.record(group({0: 1, 2: -1}))
        led.record(double({0: 1, 1: -1, 2: 1, 3: -1, 4: 1}))
        singles, pairs = led.singles.copy(), led.pairs.copy()
        with pytest.raises(InvalidInputError):
            led.record(outcome)
        assert np.array_equal(led.singles, singles)
        assert np.array_equal(led.pairs, pairs)
        assert led.shots_taken == 2
        assert led.double_shots == 1
        led.validate()


class TestValidate:
    def _stocked_ledger(self):
        led = TallyLedger(toy_obs())
        led.record(group({0: 1, 1: -1, 2: 1}))
        led.record(double({0: 1, 1: 1, 2: -1, 3: 1, 4: -1}))
        return led

    def test_consistent_ledger_passes(self):
        self._stocked_ledger().validate()

    def test_detects_double_counter_mismatch(self):
        led = self._stocked_ledger()
        led.singles[0, 2] += 1.0
        with pytest.raises(InvalidInputError):
            led.validate()

    def test_detects_negative_counts(self):
        led = self._stocked_ledger()
        led.singles[1, 0] = -1.0
        with pytest.raises(InvalidInputError):
            led.validate()

    def test_detects_pair_single_inconsistency(self):
        led = self._stocked_ledger()
        led.pairs[0, 0] += 1.0
        with pytest.raises(InvalidInputError):
            led.validate()


class TestEstimate:
    def test_empty_single_term_ledger(self):
        obs = parse_observable("1.0 Z")
        report = estimate(TallyLedger(obs), obs)
        # Flat prior: theta = 1/2 so the mean vanishes, and
        # Var(theta) = 1/12 gives claimed variance 4/12 = 1/3.
        assert report.mean == pytest.approx(0.0, abs=1e-12)
        assert report.variance == pytest.approx(1.0 / 3.0, abs=1e-8)
        assert report.m == 0
        assert report.m_double == 0
        assert report.m_eff == 0
        assert len(report.per_term) == 1
        assert report.per_term[0].theta == pytest.approx(0.5, abs=1e-9)
        assert report.per_pair == ()

    def test_offset_only_observable(self):
        obs = parse_observable("0.5 II")
        assert obs.num_terms == 0
        report = estimate(TallyLedger(obs), obs)
        assert report.mean == 0.5
        assert report.variance == 0.0
        assert report.per_term == ()
        assert report.per_pair == ()

    def test_only_jointly_measured_pair_contributes(self):
        obs = toy_obs()
        led = TallyLedger(obs)
        led.record(group({3: 1, 4: 1}))
        report = estimate(led, obs, ORACLE)
        # Terms 3 and 4 each have one +1 count: theta = 2/3, so the mean is
        # 2 * (2 * 2/3 - 1) = 2/3; the unmeasured terms sit at theta = 1/2.
        assert report.mean == pytest.approx(2.0 / 3.0, abs=1e-6)
        assert len(report.per_pair) == 1
        pair = report.per_pair[0]
        assert (pair.i, pair.j) == (3, 4)
        # One (+,+) joint count on a flat pair prior: Cov = 1/150.
        assert pair.covariance == pytest.approx(1.0 / 150.0, abs=5e-4)
        assert pair.contribution == pytest.approx(8.0 / 150.0, abs=4e-3)
        assert pair.contribution != 0.0

    def test_mean_uses_full_tally(self):
        obs = parse_observable("2.0 Z")
        led = TallyLedger(obs)
        for _ in range(8):
            led.record(group({0: 1}))
        led.record(double({0: 1}))
        led.record(double({0: -1}))
        # Doubled counts are sign-blind: they weight the posterior through
        # phi = theta^2 + (1-theta)^2, so the density here is
        # theta^8 * phi * (1 - phi).  Integrate it directly as an oracle.
        grid = np.linspace(0.0, 1.0, 20001)
        phi = 2.0 * grid * grid - 2.0 * grid + 1.0
        weight = grid**8 * phi * (1.0 - phi)
        theta_exp = np.trapezoid(grid * weight, grid) / np.trapezoid(weight, grid)
        report = estimate(led, obs)
        assert report.per_term[0].theta == pytest.approx(theta_exp, abs=1e-6)
        assert report.mean == pytest.approx(
            2.0 * (2.0 * theta_exp - 1.0), abs=1e-5
        )
        assert report.m == 10
        assert report.m_double == 2
        assert report.m_eff == 12

    def test_rejects_mismatched_observable(self):
        led = TallyLedger(toy_obs())
        with pytest.raises(InvalidInputError):
            estimate(led, parse_observable("1.0 Z"))

    def test_variance_shrinks_like_one_over_shots(self):
        # Single term measured n times: the claimed variance should track
        # 4 theta (1 - theta) / n once counts dominate the prior.
        obs = parse_observable("1.0 Z")
        theta_true = 0.8
        ratios = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            led = TallyLedger(obs)
            for _ in range(1000):
                o = 1 if rng.random() < theta_true else -1
                led.record(group({0: o}))
            report = estimate(led, obs)
            ratios.append(report.variance / (4.0 * 0.8 * 0.2 / 1000.0))
        assert 0.7 < float(np.mean(ratios)) < 1.3

    def test_variance_decreases_with_more_shots(self):
        # Averaged over seeds, ten extra round-robin single shots never make
        # the claimed variance grow.
        obs = toy_obs()
        state = ground_state(obs)
        engine = MomentEngine()
        var_50 = []
        var_60 = []
        for seed in range(50):
            rng = np.random.default_rng(seed)
            led = TallyLedger(obs)
            for step in range(60):
                led.record(sample_group_shot(state, obs, [step % 5], rng))
                if step == 49:
                    var_50.append(estimate(led, obs, engine=engine).variance)
            var_60.append(estimate(led, obs, engine=engine).variance)
        assert float(np.mean(var_60)) < float(np.mean(var_50))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(toy_shot(), max_size=15))
    def test_variance_is_never_negative(self, shots):
        obs = toy_obs()
        led = TallyLedger(obs)
        for outcome in shots:
            led.record(outcome)
        report = estimate(led, obs)
        assert report.variance >= 0.0
        assert math.isfinite(report.mean)


class TestClampedVariance:
    def test_positive_passes_through(self):
        assert clamped_variance(0.25) == 0.25

    def test_tiny_negative_clamps_silently(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clamped_variance(-1e-12) == 0.0

    def test_large_negative_warns(self):
        with pytest.warns(RuntimeWarning):
            assert clamped_variance(-1.0) == 0.0


class TestEstimateReport:
    def test_to_dict_round_trips_through_json(self):
        obs = toy_obs()
        led = TallyLedger(obs)
        led.record(group({0: 1, 1: -1, 2: 1}))
        led.record(double({0: 1, 1: 1, 2: -1, 3: 1, 4: -1}))
        report = estimate(led, obs)
        data = json.loads(json.dumps(report.to_dict()))
        assert data["m"] == 2
        assert data["m_double"] == 1
        assert data["m_eff"] == 3
        assert data["mean"] == pytest.approx(report.mean)
        assert data["variance"] == pytest.approx(report.variance)
        assert len(data["per_term"]) == 5
        assert {t["string"] for t in data["per_term"]} == {
            "IX", "XI", "XX", "YY", "ZZ",
        }
        assert all(t["variance_contribution"] >= 0.0 for t in data["per_term"])
        assert isinstance(report, EstimateReport)


# Zero-row and zero-term inputs take the general path; these pin what it
# gives them.
HALF_IDENTITY = parse_observable("0.5 II")
HALF_IDENTITY_REPORT = EstimateReport(
    mean=0.5, variance=0.0, per_term=(), per_pair=(), m=0, m_double=0
)


def _one_term_ledger():
    """A ledger of a one-term observable, which has no pairs, after two shots."""
    obs = parse_observable("1.0 Z")
    led = TallyLedger(obs)
    led.record(ShotOutcome(kind="group", values={0: 1}))
    led.record(ShotOutcome(kind="double", values={0: -1}))
    return obs, led


def _one_term_virtual(action):
    obs, led = _one_term_ledger()
    hypo = virtual_update(led, action, build_group_cover(obs), DEFAULT_CONFIG)
    return hypo.singles.shape, hypo.pairs.shape


def _half_identity_run():
    obs = HALF_IDENTITY
    config = AllocationConfig(budget=5, seed=0)
    return run_allocation(obs, ground_state(obs), cover_for(obs), config).report


@pytest.mark.parametrize(
    "call, want",
    [
        (lambda: DEFAULT_CONFIG.single_block(np.zeros((0, 4))).shape, (0, 3)),
        (lambda: DEFAULT_CONFIG.pair_block(np.zeros((0, 12))).shape, (0, 11)),
        (
            lambda: (lambda m: (m.shape, m.dtype))(joint_mask(np.zeros((0, 12)))),
            ((0,), np.dtype(bool)),
        ),
        (lambda: _one_term_ledger()[1].validate(), None),
        (
            lambda: _one_term_virtual(MeasurementAction(kind="group", group=0)),
            ((1, 4), (0, 12)),
        ),
        (
            lambda: _one_term_virtual(MeasurementAction(kind="double")),
            ((1, 4), (0, 12)),
        ),
        (
            lambda: estimate(TallyLedger(HALF_IDENTITY), HALF_IDENTITY),
            HALF_IDENTITY_REPORT,
        ),
        (_half_identity_run, HALF_IDENTITY_REPORT),
    ],
    ids=[
        "single_block", "pair_block", "joint_mask", "validate-no-pairs",
        "virtual-group-no-pairs", "virtual-double-no-pairs",
        "estimate-identity", "run_allocation-identity",
    ],
)
def test_zero_size_input(call, want):
    assert call() == want
