"""Bayesian posterior moments for single terms and commuting pairs.

Two posteriors, both under flat priors and evaluated in the log domain:

  * single-term: density over theta in [0,1] proportional to
    theta^s+ (1-theta)^s- phi^d+ (1-phi)^d-, with phi = theta^2 + (1-theta)^2;
  * pair: density over the 3-simplex of joint outcome probabilities
    (t++, t+-, t-+), with t-- = 1 - sum.  Factors: joint double counts on the
    quadratic map phi_joint, joint single counts on the t's themselves, and
    independent single counts on the marginals theta_i = t++ + t+-,
    theta_j = t++ + t-+.

Component order for all length-4 joint vectors is (++, +-, -+, --), first
sign = lower term index.

Moments come from deterministic quadrature: Gauss-Legendre in 1-D and a
midpoint tensor grid on the simplex.  joint_mask is the one test of whether
a pair row was measured jointly (holds any joint count).  When it was not,
its posterior factorizes into the two 1-D posteriors and the moments are
assembled as exact products; this is what makes never-measured-together
pairs contribute exactly zero covariance.  ledger.estimate uses the same
test to skip those pairs, and the allocator's cohort step to skip their
one-side variants.  The quadrature reads rows in fixed-shape chunks, so a
row's moments are the same bits in whatever batch the row is evaluated.
It works in base 2, shifts each row by its log-likelihood's maximum over a
few probe nodes (over every node, for the rare row that this shift
overflows), and integrates only the independent moments; the engine
derives the rest.  mcmc_pair_block, a Metropolis random walk in
additive-logistic coordinates, checks the pair quadrature independently;
no run calls it.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InvalidInputError, NumericalError

# Rows per quadrature chunk.  A multiple of the row tiles of the BLAS matrix
# kernels, so that no row of a chunk falls in an edge tile summed in another
# order than the rest.
_CHUNK_ROWS = 64

# Gauss-Legendre nodes of the single-term quadrature.
_SINGLE_NODES = 512

# Every (N // _PROBE_NODES)-th of a rule's N nodes, 24 or 25 of them, gives
# each row the shift of its log-likelihood (see _chunked_means).
_PROBE_NODES = 24

# Weights of the sum that _chunked_means sorts rows by: square roots of
# primes, so that rows of distinct whole counts have distinct exact sums.
_ROW_KEY_WEIGHTS = np.sqrt([2.0, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])


def phi_of_theta(theta):
    """Probability that two i.i.d. +-1 outcomes with P(+1)=theta agree."""
    arr = np.asarray(theta, dtype=float)
    if np.any(arr < 0) or np.any(arr > 1):
        raise InvalidInputError(f"theta out of [0,1]: {theta!r}")
    out = arr * arr + (1.0 - arr) * (1.0 - arr)
    return out if out.ndim else float(out)


def phi_joint_of_theta_joint(theta_joint):
    """Map joint outcome probabilities to joint agreement probabilities.

    For two independent copies measured jointly, component a of the output is
    the probability that both copies produce outcome pattern parity a.
    """
    t = np.asarray(theta_joint, dtype=float)
    if t.shape[-1] != 4:
        raise InvalidInputError("theta_joint needs 4 components")
    if np.any(t < -1e-12):
        raise InvalidInputError(f"negative joint probability: {theta_joint!r}")
    sums = t.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise InvalidInputError(
            f"joint probabilities must sum to 1 within 1e-9, got {sums!r}"
        )
    return np.stack(_pair_factors(*np.moveaxis(t, -1, 0))[4:8], axis=-1)


def _pair_factors(t0, t1, t2, t3) -> list:
    """The 12 likelihood factors of a pair, in count-column order.

    Joint outcome probabilities t, joint agreement probabilities phi_joint,
    then the marginals theta_i, 1 - theta_i, theta_j, 1 - theta_j.
    """
    return [
        t0, t1, t2, t3,
        t0 * t0 + t1 * t1 + t2 * t2 + t3 * t3,
        2.0 * (t0 * t1 + t2 * t3),
        2.0 * (t0 * t2 + t1 * t3),
        2.0 * (t0 * t3 + t1 * t2),
        t0 + t1, t2 + t3, t0 + t2, t1 + t3,
    ]


# ---------------------------------------------------------------------------
# quadrature grids


def _chunk_sums(
    counts: np.ndarray,
    aug: np.ndarray,
    probe: np.ndarray,
    weighted: np.ndarray,
) -> np.ndarray:
    """Weighted sums of each row's shifted likelihood, in fixed-shape chunks.

    A row's log2-likelihood is shifted by its maximum over the probe nodes,
    which enters as one extra count column against aug's row of ones.
    """
    n, c = counts.shape
    sums = np.empty((-(-n // _CHUNK_ROWS) * _CHUNK_ROWS, weighted.shape[1]))
    chunk = np.zeros((_CHUNK_ROWS, c + 1))
    loglike = np.empty((_CHUNK_ROWS, aug.shape[1]))
    for lo in range(0, n, _CHUNK_ROWS):
        m = min(_CHUNK_ROWS, n - lo)
        chunk[:m, :c] = counts[lo : lo + m]
        chunk[m:, :c] = 0.0
        chunk[:, c] = -(chunk[:, :c] @ probe).max(axis=1)
        np.matmul(chunk, aug, out=loglike)
        np.exp2(loglike, out=loglike)
        np.matmul(loglike, weighted, out=sums[lo : lo + _CHUNK_ROWS])
    return sums[:n]


def _chunked_means(
    counts: np.ndarray,
    aug: np.ndarray,
    probe: np.ndarray,
    weighted: np.ndarray,
    what: str,
) -> np.ndarray:
    """Posterior means by quadrature, one row of counts per posterior.

    aug (C + 1, N) holds the log2 of each of the C likelihood factors at each
    of the N nodes, then a row of ones; probe (C, P) holds the same log2
    factors at P fixed nodes; weighted (N, 1 + F) holds each node's weight
    followed by the weight times each of the F integrands.  A row's shift is
    its log2-likelihood's maximum over the probe nodes.  That is at most the
    maximum over all nodes, so a row's largest term is at least 1 and its
    sums can only overflow; a row whose sums do so is evaluated again with
    every node as its probe, which makes the shift its exact maximum.

    Rows are read in zero-padded chunks of _CHUNK_ROWS, so every matrix
    product has one shape whatever the batch, and a row's moments depend on
    its own counts only: they are bit for bit the same in any batch, at any
    size or position.  That lets every call evaluate each bitwise-distinct
    row once and copy its moments to the rows that repeat it; nothing
    outlives the call.
    """
    # Sorted by a weighted sum, equal rows sit together; a row starts a new
    # group where its bits differ from the row before it.  Equal rows whose
    # sums differ, or unequal rows whose sums tie, cost at most an extra
    # evaluation, never a wrong moment.
    order = np.argsort(counts @ _ROW_KEY_WEIGHTS[: counts.shape[1]])
    ordered = counts[order]
    bits = ordered.view(np.uint64)
    first = np.ones(len(order), dtype=bool)
    np.any(bits[1:] != bits[:-1], axis=1, out=first[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    counts = ordered[first]
    with np.errstate(over="ignore"):
        sums = _chunk_sums(counts, aug, probe, weighted)
    failed = ~np.isfinite(sums[:, 0])
    if np.any(failed):
        sums[failed] = _chunk_sums(counts[failed], aug, aug[:-1], weighted)
        # shifted by its maximum over every node, a finite row's largest
        # term is 1 up to rounding
        if not np.all(np.isfinite(sums[failed, 0])):
            raise NumericalError(f"{what} posterior normalization failed")
    return (sums[:, 1:] / sums[:, :1])[inverse]


def _log2_tables(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(aug, probe) of _chunked_means from the (C, N) likelihood factors."""
    logs = np.log2(factors)
    aug = np.vstack([logs, np.ones(logs.shape[1])])
    probe = np.ascontiguousarray(logs[:, :: logs.shape[1] // _PROBE_NODES])
    return aug, probe


@lru_cache(maxsize=1)
def _single_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre (aug, probe, weighted) on [0,1] for theta, theta^2."""
    x, w = np.polynomial.legendre.leggauss(_SINGLE_NODES)
    # (1-x)/2 is exactly the reversed node list, so symmetric integrands
    # stay symmetric in floating point
    t = 0.5 * (x + 1.0)
    omt = 0.5 * (1.0 - x)
    phi = t * t + omt * omt
    one_minus_phi = 2.0 * t * omt
    weights = 0.5 * w
    weighted = np.stack([weights, t, t * t], axis=1)
    weighted[:, 1:] *= weights[:, None]
    return *_log2_tables(np.stack([t, omt, phi, one_minus_phi])), weighted


@lru_cache(maxsize=4)
def _pair_tables(cells: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Midpoint tensor grid (aug, probe, weighted) over the open 3-simplex.

    The integrands are the independent moments t++, t+-, t-+, phi++, phi+-,
    phi-+ and theta_i * theta_j; pair_block derives the rest from them.
    """
    m = (np.arange(cells) + 0.5) / cells
    u, v, w = np.meshgrid(m, m, m, indexing="ij")
    u, v, w = u.ravel(), v.ravel(), w.ravel()
    keep = u + v + w < 1.0
    t0, t1, t2 = u[keep], v[keep], w[keep]
    t3 = 1.0 - t0 - t1 - t2
    factors = _pair_factors(t0, t1, t2, t3)
    ti, tj = factors[8], factors[10]
    # cells have equal weight
    weighted = np.stack(
        [np.ones_like(t0), t0, t1, t2, *factors[4:7], ti * tj], axis=1
    )
    return *_log2_tables(np.stack(factors)), weighted


# ---------------------------------------------------------------------------
# MCMC cross-check

# Chain settings: burn-in steps (which adapt the step size toward the
# acceptance band), retained samples, and the initial step.
_MCMC_BURN_IN = 2000
_MCMC_SAMPLES = 20000
_MCMC_INITIAL_STEP = 0.8
_MCMC_TARGET_BAND = (0.2, 0.5)


def _run_chain(
    logdensity_y: Callable[[np.ndarray], float],
    dim: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Random-walk Metropolis in R^dim with burn-in step adaptation.

    Returns the retained y samples.
    """
    total = _MCMC_BURN_IN + _MCMC_SAMPLES
    normals = rng.standard_normal((total, dim))
    log_uniforms = np.log(rng.random(total))
    step = _MCMC_INITIAL_STEP
    low, high = _MCMC_TARGET_BAND

    y = np.zeros(dim)
    logp = logdensity_y(y)
    if not np.isfinite(logp):
        raise NumericalError("log-density not finite at the simplex center")
    retained = np.empty((_MCMC_SAMPLES, dim))
    accepted_window = 0
    accepted_sampling = 0
    for k in range(total):
        proposal = y + step * normals[k]
        logp_new = logdensity_y(proposal)
        if log_uniforms[k] < logp_new - logp:
            y, logp = proposal, logp_new
            accepted_window += 1
            if k >= _MCMC_BURN_IN:
                accepted_sampling += 1
        if k < _MCMC_BURN_IN:
            if (k + 1) % 100 == 0:
                rate = accepted_window / 100.0
                if rate < low:
                    step *= 0.7
                elif rate > high:
                    step *= 1.4
                accepted_window = 0
        else:
            retained[k - _MCMC_BURN_IN] = y
    if accepted_sampling == 0:
        raise NumericalError("Metropolis chain rejected every proposal")
    return retained


def _y_to_simplex(y: np.ndarray) -> np.ndarray:
    """Additive-logistic map R^(n-1) -> open n-simplex (last component pinned)."""
    z = np.concatenate([y, [0.0]])
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def mcmc_sample(
    logdensity: Callable[[np.ndarray], float],
    ncomp: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw samples from a density on the (ncomp-1)-simplex.

    logdensity takes the full ncomp-component probability vector. The walk
    runs in unconstrained additive-logistic coordinates with the transform
    Jacobian (the product of all components) folded into the target.
    """
    if ncomp < 2:
        raise InvalidInputError("simplex sampling needs at least 2 components")

    def logdensity_y(y):
        theta = _y_to_simplex(y)
        if np.any(theta <= 0.0):
            return -np.inf
        return logdensity(theta) + np.log(theta).sum()

    ys = _run_chain(logdensity_y, ncomp - 1, rng)
    out = np.empty((ys.shape[0], ncomp))
    for i, y in enumerate(ys):
        out[i] = _y_to_simplex(y)
    return out


def _pair_loglike(counts: np.ndarray) -> Callable[[np.ndarray], float]:
    """Sum of count * log(factor) over a pair row, skipping zero counts."""

    def logdensity(theta):
        total = 0.0
        for c, f in zip(counts, _pair_factors(*theta)):
            if c != 0.0:
                if f <= 0.0:
                    return -np.inf
                total += c * np.log(f)
        return total

    return logdensity


def mcmc_pair_block(counts: np.ndarray) -> np.ndarray:
    """counts (K,12) -> (K,11) pair moment rows by MCMC, in pair_block's order.

    An independent check of the pair quadrature, at about 0.7 s per row.
    Each row's chain is seeded from that row's counts, so a row's moments
    depend on the row alone.
    """
    counts = np.ascontiguousarray(counts, dtype=float)
    out = np.empty((counts.shape[0], 11))
    for r, row in enumerate(counts):
        seed = np.random.SeedSequence((0, zlib.crc32(row.tobytes())))
        samples = mcmc_sample(
            _pair_loglike(row), 4, np.random.Generator(np.random.PCG64(seed))
        )
        t0, t1, t2, t3 = samples.T
        ti, tj = t0 + t1, t0 + t2
        phi = phi_joint_of_theta_joint(samples)
        out[r] = [
            t0.mean(), t1.mean(), t2.mean(), t3.mean(),
            phi[:, 0].mean(), phi[:, 1].mean(), phi[:, 2].mean(), phi[:, 3].mean(),
            (ti * tj).mean(), ti.mean(), tj.mean(),
        ]
    return out


# ---------------------------------------------------------------------------
# the engine


def joint_mask(pairs: np.ndarray) -> np.ndarray:
    """True for pair rows that carry any joint (s or d) count."""
    return np.any(pairs[:, :8] != 0.0, axis=1)


@dataclass(frozen=True)
class MomentEngine:
    """Evaluates posterior moment rows on a pair grid of pair_cells per axis.

    It holds nothing but pair_cells.  Each row's moments are a pure function
    of that row's counts, bit for bit, whatever batch it arrives in, so
    callers may split, merge and reorder their batches freely and reuse the
    rows that did not change (see allocator._FastLoop).
    """

    pair_cells: int = 16

    @classmethod
    def oracle(cls) -> "MomentEngine":
        """The 60-cells-per-axis midpoint grid used as the test oracle."""
        return cls(pair_cells=60)

    def single_block(self, counts: np.ndarray) -> np.ndarray:
        """counts (K,4) -> (K,3) moment rows [theta, theta_sq, phi]."""
        counts = np.ascontiguousarray(counts, dtype=float)
        means = _chunked_means(counts, *_single_tables(), "single-term")
        out = np.empty((counts.shape[0], 3))
        out[:, :2] = means
        # phi = theta^2 + (1 - theta)^2
        out[:, 2] = 2.0 * means[:, 1] - 2.0 * means[:, 0] + 1.0
        # exact symmetry: with no sign information the posterior is even
        # about 1/2, so the mean is 1/2 identically
        symmetric = (counts[:, 0] == 0.0) & (counts[:, 1] == 0.0)
        out[symmetric, 0] = 0.5
        return out

    def pair_block(self, counts: np.ndarray) -> np.ndarray:
        """counts (K,12) -> (K,11) moment rows.

        Column order in: s_joint(4), d_joint(4), s_i_indep(2), s_j_indep(2).
        Column order out: theta_joint(4), phi_joint(4), theta_prod,
        theta_i, theta_j.
        """
        counts = np.ascontiguousarray(counts, dtype=float)
        out = np.empty((counts.shape[0], 11))
        full = joint_mask(counts)
        factorized = ~full
        means = _chunked_means(
            counts[full], *_pair_tables(self.pair_cells), "pair"
        )
        joint = np.empty((means.shape[0], 11))
        joint[:, [0, 1, 2, 4, 5, 6, 8]] = means
        # t-- and phi-- are 1 less the other three; theta_i = t++ + t+- and
        # theta_j = t++ + t-+
        joint[:, [3, 7]] = 1.0 - means[:, :6].reshape(-1, 2, 3).sum(axis=2)
        np.add(means[:, :1], means[:, 1:3], out=joint[:, 9:])
        out[full] = joint
        if np.any(factorized):
            out[factorized] = self._factorized_rows(counts[factorized])
        return out

    def _factorized_rows(self, sub: np.ndarray) -> np.ndarray:
        """Pairs never measured together: exact products of 1-D moments."""
        k = sub.shape[0]
        singles = np.zeros((2 * k, 4))
        singles[:k, 0:2] = sub[:, 8:10]
        singles[k:, 0:2] = sub[:, 10:12]
        mom = self.single_block(singles)
        ti, tj = mom[:k, 0], mom[k:, 0]
        pi, pj = mom[:k, 2], mom[k:, 2]
        out = np.empty((k, 11))
        out[:, 0] = ti * tj
        out[:, 1] = ti * (1.0 - tj)
        out[:, 2] = (1.0 - ti) * tj
        out[:, 3] = (1.0 - ti) * (1.0 - tj)
        out[:, 4] = pi * pj
        out[:, 5] = pi * (1.0 - pj)
        out[:, 6] = (1.0 - pi) * pj
        out[:, 7] = (1.0 - pi) * (1.0 - pj)
        out[:, 8] = ti * tj
        out[:, 9] = ti
        out[:, 10] = tj
        return out


# The default engine; the name is kept because perfbench/workloads.py
# imports it.
DEFAULT_CONFIG = MomentEngine()
