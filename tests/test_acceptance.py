"""Acceptance suite: one test per release criterion.

Each test prints the measured quantities it judges, so the -v output gives
one pass/fail line per criterion plus the numbers behind it on failure.
Runtime notes: criteria 6-8 run full allocation sweeps and dominate the
suite's wall-clock time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshot.experiments import (
    ExperimentSpec,
    calibrate_rows,
    double_usage_rows,
)
from doubleshot.hamiltonians import load_builtin
from doubleshot.ledger import TallyLedger, estimate
from doubleshot.pauli import parse_observable
from doubleshot.posterior import (
    MomentConfig,
    MomentEngine,
    mcmc_pair_block,
    phi_joint_of_theta_joint,
    phi_of_theta,
)
from doubleshot.simulator import (
    StateVector,
    exact_pair_thetas,
    exact_theta,
    ground_state,
    sample_double_shot,
    sample_group_shot,
)

CALIBRATION_BUDGET = 250
CALIBRATION_REPS = 300


def _calibration_doc(enable_double: bool):
    spec = ExperimentSpec(
        observable_source="builtin:ising-1x2",
        budgets=(CALIBRATION_BUDGET,),
        repetitions=CALIBRATION_REPS,
        enable_double=enable_double,
        base_seed=0,
    )
    return calibrate_rows(spec)


@pytest.fixture(scope="module")
def calibration_double_on():
    return _calibration_doc(enable_double=True)


@pytest.fixture(scope="module")
def calibration_double_off():
    return _calibration_doc(enable_double=False)


def test_criterion_01_phi_fixed_value():
    # phi(0.725) = 0.725^2 + 0.275^2 = 0.60125, to machine precision.
    value = phi_of_theta(0.725)
    print(f"phi(0.725) = {value!r}")
    assert value == pytest.approx(0.60125, abs=5e-16)


def test_criterion_02_normalization_propagates():
    # Normalized joint outcome distributions map to normalized doubled-copy
    # distributions: 1e4 random simplex points, sums within 1e-9 of 1.
    rng = np.random.default_rng(20240814)
    points = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=10_000)
    worst = 0.0
    for point in points:
        total = float(np.sum(phi_joint_of_theta_joint(tuple(point))))
        worst = max(worst, abs(total - 1.0))
    print(f"worst |sum - 1| over 1e4 simplex points = {worst:.3e}")
    assert worst < 1e-9


def test_criterion_03_central_limit_recovery():
    # A single term measured alone 1000 times on a state with expectation
    # 0.6 (theta = 0.8) must claim a variance near (1 - 0.6^2)/1000,
    # averaged over 50 seeds, within 20%.
    obs = parse_observable("1.0 Z")
    state = StateVector([np.sqrt(0.8), np.sqrt(0.2)])
    engine = MomentEngine()
    target = (1.0 - 0.36) / 1000.0
    claimed = []
    for seed in range(50):
        rng = np.random.default_rng(seed)
        led = TallyLedger(obs)
        for _ in range(1000):
            led.record(sample_group_shot(state, obs, [0], rng))
        claimed.append(estimate(led, obs, engine).variance)
    mean_claimed = float(np.mean(claimed))
    ratio = mean_claimed / target
    print(f"mean claimed variance = {mean_claimed:.4e}, target = {target:.4e},"
          f" ratio = {ratio:.3f}")
    assert 0.8 < ratio < 1.2


def test_criterion_04_backend_oracle_equivalence():
    # (a) MCMC pair moments match the tensor-grid quadrature within 1e-2
    # absolute on 20 fixed validation tallies.
    oracle = MomentEngine(MomentConfig.oracle())
    rng = np.random.default_rng(12)
    tallies = np.zeros((20, 12))
    tallies[:, 0:4] = rng.integers(0, 8, size=(20, 4))
    tallies[:, 4:8] = rng.integers(0, 6, size=(20, 4))
    tallies[:, 8:12] = rng.integers(0, 5, size=(20, 4))
    ref = oracle.pair_block(tallies)
    got = mcmc_pair_block(tallies)
    worst_pair = float(np.max(np.abs(ref - got)))
    print(f"worst MCMC-vs-quadrature pair moment deviation = {worst_pair:.3e}")
    assert worst_pair < 1e-2

    # (b) With pure sign-resolved counts the single posterior is a Beta
    # density; quadrature moments match the closed forms to 1e-8.
    engine = MomentEngine()
    worst_single = 0.0
    for s_plus in (0, 1, 2, 5, 10, 40):
        for s_minus in (0, 1, 2, 5, 10, 40):
            a, b = s_plus + 1, s_minus + 1
            n = a + b
            mean = a / n
            second = a * (a + 1) / (n * (n + 1))
            phi = 2.0 * second - 2.0 * mean + 1.0
            row = engine.single_block(
                np.array([[s_plus, s_minus, 0.0, 0.0]])
            )[0]
            worst_single = max(
                worst_single,
                abs(row[0] - mean),
                abs(row[1] - second),
                abs(row[2] - phi),
            )
    print(f"worst quadrature-vs-Beta deviation = {worst_single:.3e}")
    assert worst_single < 1e-8


def test_criterion_05_sign_blind_mean_is_half():
    # Doubled-copy counts carry no sign information: with zero s counts the
    # posterior mean must be exactly 1/2, whatever the d counts.
    engine = MomentEngine()
    rng = np.random.default_rng(55)
    tallies = np.zeros((100, 4))
    tallies[:, 2:4] = rng.integers(0, 200, size=(100, 2))
    moments = engine.single_block(tallies)
    off = np.abs(moments[:, 0] - 0.5)
    print(f"max |theta - 1/2| over 100 sign-free tallies = {float(off.max())!r}")
    assert np.all(moments[:, 0] == 0.5)


def _z_summary(doc):
    zs = np.array([row["z_score"] for row in doc.rows], dtype=float)
    assert not np.isnan(zs).any()
    return float(zs.mean()), float(np.sqrt(np.mean(zs**2)))


def test_criterion_06_calibration_at_desk_scale(
    calibration_double_on, calibration_double_off
):
    # 300 repetitions at m_eff = 250 on the (1,2) lattice ground state:
    # the z-score distribution should be roughly standard normal (|mean|
    # < 0.3, RMS in [0.6, 1.1]) for both arms.
    #
    # Known limitation, asserted faithfully rather than loosened: the flat
    # prior shrinks every posterior mean toward 1/2, which biases the
    # estimate toward 0 (exact mean -1.79).  Measured with these fixtures:
    #
    #   arm         mean z   RMS z   mean residual
    #   double on   +0.479   0.945   +0.0288 +- 0.0027
    #   double off  +0.330   0.967   +0.0231 +- 0.0035
    #
    # The residual bias is ~10 and ~7 standard errors from zero.  The
    # standard error of mean z is 0.047 (0.055 taking the RMS as the
    # spread), so the double-on arm sits 3.3-3.8 standard errors past the
    # bound: a different seed would not pass.  The posterior mean shrinks
    # each <P_i> toward 0 by 2<P_i>/(n_i + 2); the Z-type terms ZI and IZ
    # have theta ~0.007 and ~0.043, where this offset is of the order of
    # the posterior sd at this budget.  The shrinkage predicted from the
    # sign counts alone gives mean z +0.58 (on) / +0.39 (off), and
    # Jeffreys-prior means with the same claimed variance give +0.29 /
    # +0.13.  Pair-grid resolution is ruled out: re-scoring the same
    # ledgers with 60- and 120-cell pair grids gives +0.462 and +0.459
    # (on), +0.322 and +0.322 (off).  So the mean-z clause fails while the
    # RMS clause passes.
    results = {}
    for arm, doc in (
        ("double_on", calibration_double_on),
        ("double_off", calibration_double_off),
    ):
        mean_z, rms_z = _z_summary(doc)
        results[arm] = (mean_z, rms_z)
        print(f"{arm}: mean z = {mean_z:+.3f}, rms z = {rms_z:.3f}")
    for arm, (mean_z, rms_z) in results.items():
        assert 0.6 <= rms_z <= 1.1, f"{arm} rms z {rms_z:.3f} outside [0.6, 1.1]"
    for arm, (mean_z, rms_z) in results.items():
        assert abs(mean_z) < 0.3, f"{arm} mean z {mean_z:+.3f} not within 0.3 of 0"


def test_criterion_07_double_advantage(
    calibration_double_on, calibration_double_off
):
    # Paired seeds (same base seed, first 25 repetitions), m_eff = 250:
    # allowing the two-copy scheme must not hurt the budget-scaled claimed
    # variance on the (1,2) lattice.
    def scaled(doc):
        rows = doc.rows[:25]
        assert len(rows) == 25
        return float(
            np.mean(
                [
                    (row["m"] + row["m_double"]) * row["claimed_variance"]
                    for row in rows
                ]
            )
        )

    with_double = scaled(calibration_double_on)
    without_double = scaled(calibration_double_off)
    print(
        f"mean m_eff * claimed variance: double on = {with_double:.4f},"
        f" double off = {without_double:.4f}"
    )
    assert with_double <= without_double


def test_criterion_08_double_usage_slope():
    # Post-plateau slope of m_double vs m on the (1,2) lattice (sweep to
    # m = 300) must match 0.154 +- 0.08, and the (2,3) slope must be
    # strictly smaller.
    spec_12 = ExperimentSpec(
        observable_source="builtin:ising-1x2",
        budgets=(410,),
        repetitions=25,
        base_seed=0,
    )
    doc_12 = double_usage_rows(spec_12, fit_min=20, fit_max=300)
    slope_12 = float(doc_12.comment_value("fit_slope"))
    window_12 = int(doc_12.comment_value("fit_window_max_inclusive"))

    spec_23 = ExperimentSpec(
        observable_source="builtin:ising-2x3",
        budgets=(355,),
        repetitions=4,
        base_seed=0,
    )
    doc_23 = double_usage_rows(spec_23, fit_min=20, fit_max=300)
    slope_23 = float(doc_23.comment_value("fit_slope"))
    window_23 = int(doc_23.comment_value("fit_window_max_inclusive"))

    print(
        f"(1,2) slope = {slope_12:.4f} over m in (20, {window_12}];"
        f" (2,3) slope = {slope_23:.4f} over m in (20, {window_23}]"
    )
    assert window_12 == 300
    assert 0.154 - 0.08 <= slope_12 <= 0.154 + 0.08
    assert slope_23 < slope_12


def test_criterion_09_sampling_oracle_fidelity():
    # 1e4 two-copy shots on the (1,2) lattice ground state: marginal means
    # match (2 theta - 1)^2 and per-pair joint cell frequencies match the
    # doubled-copy outcome map, every comparison within 3 sigma.
    obs = load_builtin("ising-1x2")
    state = ground_state(obs)
    led = TallyLedger(obs)
    n_shots = 10_000
    rng = np.random.default_rng(0)
    values = np.empty((n_shots, obs.num_terms))
    for k in range(n_shots):
        outcome = sample_double_shot(state, obs, rng)
        values[k] = [outcome.values[i] for i in range(obs.num_terms)]

    worst = 0.0
    for i in range(obs.num_terms):
        theta = exact_theta(state, obs.terms[i].string)
        target = (2.0 * theta - 1.0) ** 2
        phi = phi_of_theta(theta)
        var = 4.0 * phi * (1.0 - phi)
        got = float(values[:, i].mean())
        if var > 0.0:
            worst = max(worst, abs(got - target) / np.sqrt(var / n_shots))
        else:
            assert got == target

    for i, j in led.pair_keys:
        theta_joint = exact_pair_thetas(
            state, obs.terms[i].string, obs.terms[j].string
        )
        expected = phi_joint_of_theta_joint(theta_joint)
        plus_i = values[:, i] > 0
        plus_j = values[:, j] > 0
        freqs = (
            np.array(
                [
                    np.sum(plus_i & plus_j),
                    np.sum(plus_i & ~plus_j),
                    np.sum(~plus_i & plus_j),
                    np.sum(~plus_i & ~plus_j),
                ]
            )
            / n_shots
        )
        for got, p in zip(freqs, expected):
            sd = np.sqrt(p * (1.0 - p) / n_shots)
            if sd > 0.0:
                worst = max(worst, abs(got - p) / sd)
            else:
                assert got == p
    print(
        f"worst z over {obs.num_terms} marginals and {led.num_pairs} pair"
        f" joints = {worst:.3f}"
    )
    assert worst < 3.0


_TOY = parse_observable("1.0 IX\n1.0 XI\n1.0 XX\n1.0 YY\n1.0 ZZ")
_solo_shots = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.sampled_from((1, -1)),
    ),
    max_size=30,
)


@settings(max_examples=50, deadline=None)
@given(shots=_solo_shots)
def test_criterion_10_zero_covariance_without_joint_data(shots):
    # Terms only ever measured separately: every pair covariance bracket is
    # zero, so the claimed variance is exactly the per-term sum.
    from doubleshot.simulator import ShotOutcome

    engine = MomentEngine()
    led = TallyLedger(_TOY)
    for term, sign in shots:
        led.record(ShotOutcome(kind="group", values={term: sign}))
    report = estimate(led, _TOY, engine)
    assert report.per_pair == ()
    per_term_sum = sum(t.variance_contribution for t in report.per_term)
    assert report.variance == pytest.approx(per_term_sum, rel=1e-12, abs=0.0)
    # The pair posterior itself also factorizes: covariance explicitly zero
    # for the rows holding only independent counts.
    pmom = engine.pair_block(led.pairs)
    cov = pmom[:, 8] - pmom[:, 9] * pmom[:, 10]
    assert np.all(np.abs(cov) <= 1e-12)
