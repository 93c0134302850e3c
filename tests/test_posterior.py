"""Posterior moment engines: closed forms, invariants, MCMC agreement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshot.errors import InvalidInputError, NumericalError
from doubleshot.posterior import (
    MomentEngine,
    _chunked_means,
    _pair_tables,
    _single_tables,
    mcmc_pair_block,
    mcmc_sample,
    phi_joint_of_theta_joint,
    phi_of_theta,
)

ORACLE = MomentEngine.oracle()
DEFAULT = MomentEngine()

# columns of a single-term moment row
THETA, THETA_SQ, PHI = 0, 1, 2
# columns of a pair moment row
THETA_JOINT, PHI_JOINT = slice(0, 4), slice(4, 8)
THETA_PROD, THETA_I, THETA_J = 8, 9, 10


def single_row(counts, engine):
    """Moment row of one single-term count row (s+, s-, d+, d-)."""
    return engine.single_block(np.array([counts], dtype=float))[0]


def pair_counts(s_joint, d_joint, s_i_indep, s_j_indep):
    """One pair count row, its 12 columns in pair_block's order."""
    return np.concatenate([s_joint, d_joint, s_i_indep, s_j_indep]).astype(float)


def pair_row(counts, engine):
    """Moment row of one pair count row."""
    return engine.pair_block(counts[None, :])[0]


def covariance(m):
    return m[THETA_PROD] - m[THETA_I] * m[THETA_J]


counts_st = st.floats(min_value=0, max_value=40, allow_nan=False)
int_counts_st = st.integers(min_value=0, max_value=60)


def simplex_point(rng):
    x = rng.dirichlet(np.ones(4))
    return x / x.sum()


class TestPhiOfTheta:
    def test_paper_point(self):
        assert phi_of_theta(0.725) == pytest.approx(0.60125, abs=1e-15)

    def test_minimum_and_endpoints(self):
        assert phi_of_theta(0.5) == pytest.approx(0.5, abs=1e-15)
        assert phi_of_theta(0.0) == 1.0
        assert phi_of_theta(1.0) == 1.0

    def test_range_validated(self):
        with pytest.raises(InvalidInputError):
            phi_of_theta(-0.01)
        with pytest.raises(InvalidInputError):
            phi_of_theta(1.01)

    @given(st.floats(min_value=0, max_value=1))
    def test_range_of_output(self, theta):
        assert 0.5 <= phi_of_theta(theta) <= 1.0


class TestPhiJointMap:
    def test_deterministic_corner(self):
        out = phi_joint_of_theta_joint((1.0, 0.0, 0.0, 0.0))
        assert np.allclose(out, [1, 0, 0, 0], atol=1e-15)

    def test_symmetric_fixed_point(self):
        out = phi_joint_of_theta_joint((0.25, 0.25, 0.25, 0.25))
        assert np.allclose(out, [0.25] * 4, atol=1e-15)

    def test_half_half(self):
        out = phi_joint_of_theta_joint((0.5, 0.5, 0.0, 0.0))
        assert np.allclose(out, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInputError):
            phi_joint_of_theta_joint((0.5, 0.5, 0.5, 0.0))
        with pytest.raises(InvalidInputError):
            phi_joint_of_theta_joint((-0.1, 0.6, 0.3, 0.2))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200)
    def test_normalization_propagates(self, seed):
        theta4 = simplex_point(np.random.default_rng(seed))
        out = phi_joint_of_theta_joint(theta4)
        assert abs(float(np.sum(out)) - 1.0) < 1e-9
        assert np.all(np.asarray(out) >= -1e-15)


class TestSingleMoments:
    def test_flat_prior(self):
        m = single_row((0, 0, 0, 0), DEFAULT)
        assert m[THETA] == 0.5  # exact, by symmetry short-circuit
        assert m[THETA_SQ] == pytest.approx(1 / 3, abs=1e-12)
        assert m[PHI] == pytest.approx(2 / 3, abs=1e-12)

    def test_beta_2_1(self):
        m = single_row((1, 0, 0, 0), DEFAULT)
        assert m[THETA] == pytest.approx(2 / 3, abs=1e-12)
        assert m[THETA_SQ] == pytest.approx(1 / 2, abs=1e-12)

    @pytest.mark.parametrize("sp,sm", [(3, 0), (7, 3), (0, 9), (20, 20), (50, 1)])
    def test_beta_closed_forms(self, sp, sm):
        n = sp + sm
        m = single_row((sp, sm, 0, 0), DEFAULT)
        assert m[THETA] == pytest.approx((sp + 1) / (n + 2), abs=1e-8)
        assert m[THETA_SQ] == pytest.approx(
            (sp + 2) * (sp + 1) / ((n + 3) * (n + 2)), abs=1e-8
        )

    def test_sign_blind_bimodal(self):
        m = single_row((0, 0, 40, 10), DEFAULT)
        assert m[THETA] == 0.5  # exactly, by theta <-> 1-theta symmetry
        assert m[THETA_SQ] > 0.25

    @given(
        st.tuples(counts_st, counts_st, counts_st, counts_st),
    )
    @settings(max_examples=80, deadline=None)
    def test_variance_nonnegative_and_phi_identity(self, counts):
        m = single_row(counts, DEFAULT)
        assert 0.0 <= m[THETA] <= 1.0
        assert m[THETA_SQ] >= m[THETA] * m[THETA] - 1e-12
        assert 0.0 <= m[PHI] <= 1.0
        # phi = 2 theta^2 - 2 theta + 1 holds as an identity between means
        assert m[PHI] == pytest.approx(
            2 * m[THETA_SQ] - 2 * m[THETA] + 1, abs=1e-10
        )


class TestPairMoments:
    def test_flat_prior_factorizes(self):
        m = pair_row(pair_counts((0,) * 4, (0,) * 4, (0, 0), (0, 0)), DEFAULT)
        assert np.allclose(m[THETA_JOINT], [0.25] * 4, atol=1e-12)
        assert m[THETA_PROD] == pytest.approx(0.25, abs=1e-12)
        assert m[THETA_I] == pytest.approx(0.5, abs=1e-12)
        assert covariance(m) == 0.0

    def test_dirichlet_2111(self):
        m = pair_row(pair_counts((1, 0, 0, 0), (0,) * 4, (0, 0), (0, 0)), ORACLE)
        assert np.allclose(m[THETA_JOINT], [0.4, 0.2, 0.2, 0.2], atol=5e-4)
        assert m[THETA_PROD] == pytest.approx(11 / 30, abs=5e-4)
        # cov = 11/30 - 0.6 * 0.6 = 1/150
        assert covariance(m) == pytest.approx(1 / 150, abs=5e-4)

    def test_factorized_branch_exact(self):
        # no joint counts at all -> moments are exact products of 1-D posteriors
        m = pair_row(pair_counts((0,) * 4, (0,) * 4, (5, 2), (1, 3)), DEFAULT)
        si = single_row((5, 2, 0, 0), DEFAULT)
        sj = single_row((1, 3, 0, 0), DEFAULT)
        assert covariance(m) == 0.0
        assert m[THETA_I] == pytest.approx(si[THETA], abs=1e-14)
        assert m[THETA_J] == pytest.approx(sj[THETA], abs=1e-14)
        assert m[THETA_PROD] == pytest.approx(si[THETA] * sj[THETA], abs=1e-14)

    def test_single_consistency_invariant(self):
        # all j-specific and joint counts zero -> i-marginal == single row
        for si_counts in [(3, 1), (0, 0), (10, 7)]:
            m = pair_row(pair_counts((0,) * 4, (0,) * 4, si_counts, (0, 0)), DEFAULT)
            s = single_row((*si_counts, 0, 0), DEFAULT)
            assert m[THETA_I] == pytest.approx(s[THETA], abs=1e-6)

    @given(
        st.tuples(*([int_counts_st] * 4)),
        st.tuples(*([int_counts_st] * 4)),
        st.tuples(int_counts_st, int_counts_st),
        st.tuples(int_counts_st, int_counts_st),
    )
    @settings(max_examples=40, deadline=None)
    def test_normalization_invariants(self, sj, dj, si, sk):
        m = pair_row(pair_counts(sj, dj, si, sk), DEFAULT)
        assert abs(sum(m[THETA_JOINT]) - 1.0) < 1e-9
        assert abs(sum(m[PHI_JOINT]) - 1.0) < 1e-9
        assert all(x >= 0 for x in m[THETA_JOINT])
        assert all(x >= 0 for x in m[PHI_JOINT])
        assert 0.0 <= m[THETA_I] <= 1.0
        assert 0.0 <= m[THETA_J] <= 1.0

    def test_default_grid_tracks_oracle(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(12):
            counts = pair_counts(
                rng.integers(0, 6, 4),
                rng.integers(0, 5, 4),
                rng.integers(0, 8, 2),
                rng.integers(0, 8, 2),
            )
            a = pair_row(counts, ORACLE)
            b = pair_row(counts, DEFAULT)
            # every column: theta_joint, phi_joint, theta_prod, theta_i, theta_j
            worst = max(worst, np.abs(a - b).max())
        assert worst < 1e-2

    def test_posterior_concentration(self):
        theta_star = 0.73
        errors = []
        for n in (10, 100, 1000):
            m = single_row((theta_star * n, (1 - theta_star) * n, 0, 0), DEFAULT)
            errors.append(abs(m[THETA] - theta_star))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 1e-3


class TestBatchInvariance:
    """A row's moments are the same bits in any batch, size or position."""

    SIZES = (1, 2, 3, 63, 64, 65, 257)
    OFFSETS = (0, 1, 17, 64, 200)

    @staticmethod
    def _rows(width, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 40, (500, width)).astype(float)
        # fractional virtual counts, and rows the symmetric and factorized
        # shortcuts take
        counts[::3] += rng.random((len(counts[::3]), width))
        counts[::7, :2] = 0.0
        counts[::11, : min(8, width)] = 0.0
        return counts

    @staticmethod
    def _block(kind, counts):
        # a fresh engine per call, so that no engine state could carry a
        # value from one batch to the next
        return getattr(MomentEngine(), f"{kind}_block")(counts)

    @pytest.mark.parametrize("kind, width", [("single", 4), ("pair", 12)])
    def test_slices_match_full_batch(self, kind, width):
        counts = self._rows(width, 11)
        full = self._block(kind, counts)
        for size in self.SIZES:
            for offset in self.OFFSETS:
                part = self._block(kind, counts[offset : offset + size])
                assert np.array_equal(part, full[offset : offset + size]), (
                    size, offset,
                )

    def test_reordered_batch_matches(self):
        counts = self._rows(12, 5)
        order = np.random.default_rng(0).permutation(len(counts))
        assert np.array_equal(
            self._block("pair", counts[order]),
            self._block("pair", counts)[order],
        )

    @pytest.mark.parametrize("kind, width", [("single", 4), ("pair", 12)])
    def test_repeated_rows_match_rows_alone(self, kind, width):
        # few distinct rows, each repeated many times: the symmetric and
        # factorized shortcut rows of _rows, and copies with -0.0 in place of
        # 0.0, which compare equal but are other bits
        distinct = self._rows(width, 3)[:77]
        signed = distinct[::7].copy()
        signed[signed == 0.0] = -0.0
        distinct = np.concatenate([distinct, signed])
        pick = np.random.default_rng(1).integers(0, len(distinct), 1500)
        batch = self._block(kind, distinct[pick])
        alone = np.concatenate(
            [self._block(kind, row[None, :]) for row in distinct]
        )
        assert np.array_equal(batch, alone[pick])


class _CountingArray(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    matmuls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountingArray.matmuls += 1
        inputs = [np.asarray(x) for x in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class TestDistinctRows:
    """A batch evaluates each bitwise-distinct row once."""

    @pytest.mark.parametrize(
        "tables, width",
        [(_single_tables(), 4), (_pair_tables(DEFAULT.pair_cells), 12)],
        ids=["single", "pair"],
    )
    def test_repeated_rows_take_one_chunk(self, monkeypatch, tables, width):
        logs_t, weighted = tables
        rows = np.arange(3 * width, dtype=float).reshape(3, width)
        counts = rows[np.arange(3000) % 3]
        expected = _chunked_means(rows, logs_t, weighted, "test")
        counting = logs_t.view(_CountingArray)
        monkeypatch.setattr(_CountingArray, "matmuls", 0)
        out = _chunked_means(counts, counting, weighted, "test")
        # one chunk of 64 rows; every row evaluated would take 47
        assert _CountingArray.matmuls == 1
        assert np.array_equal(out, expected[np.arange(3000) % 3])

    @pytest.mark.parametrize("kind, width", [("single", 4), ("pair", 12)])
    def test_a_repeated_nan_row_still_fails_normalization(self, kind, width):
        counts = np.ones((200, width))
        counts[50::60, 1] = np.nan
        with pytest.raises(NumericalError):
            getattr(DEFAULT, f"{kind}_block")(counts)


class TestMcmc:
    def test_uniform_simplex_means(self):
        # +-0.01 is roughly a 1-sigma band for the default chain length, so
        # a fixed, typical seed keeps this deterministic.
        rng = np.random.default_rng(3)
        samples = mcmc_sample(lambda t: 0.0, 4, rng)
        assert samples.shape[1] == 4
        assert np.allclose(samples.mean(axis=0), [0.25] * 4, atol=0.01)

    def test_linear_density_on_unit_interval(self):
        rng = np.random.default_rng(1)
        samples = mcmc_sample(
            lambda t: math.log(max(t[0], 1e-300)), 2, rng
        )
        assert samples[:, 0].mean() == pytest.approx(2 / 3, abs=0.01)

    def test_pair_tally_matches_quadrature(self):
        row = pair_counts((3, 1, 1, 0), (0,) * 4, (0, 0), (0, 0))[None, :]
        q = ORACLE.pair_block(row)[0]
        m = mcmc_pair_block(row)[0]
        assert np.allclose(m[0:4], q[0:4], atol=1e-2)  # theta_joint
        assert np.allclose(m[4:8], q[4:8], atol=1e-2)  # phi_joint
        assert m[8] == pytest.approx(q[8], abs=1e-2)  # theta_prod

    def test_deterministic_given_config(self):
        # the chain settings are fixed and each row seeds its own chain, so
        # a row gets the same moments again, alone or in a batch
        row = pair_counts((2, 0, 1, 0), (1, 1, 0, 0), (2, 1), (0, 0))
        other = pair_counts((1, 0, 0, 1), (0,) * 4, (0, 0), (1, 0))
        a = mcmc_pair_block(row[None, :])
        b = mcmc_pair_block(np.stack([other, row]))
        assert np.array_equal(a[0], b[1])
