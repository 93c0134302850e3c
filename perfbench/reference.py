"""References computed apart from the program, and the output checks.

Nothing here calls into doubleshot's numerics: the Hamiltonian is built from
this file's own 2x2 Pauli matrices, the single-term posterior moments come
from the closed-form Beta mean or a fine midpoint quadrature, the pair
covariances from a midpoint grid on the simplex three times finer than the
program's, and the count identities are read off the trace and the cover.  The checks only read the
program's outputs (reports, ledgers, traces).
"""
from __future__ import annotations

import math
from functools import reduce

import numpy as np

PAULI = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Midpoint grid for the 1-D posterior with two-copy counts.  At the largest
# count totals here (n ~ 300) the narrowest posterior has sd ~ 3e-3, so
# 2e5 cells put ~600 cells inside one sd; the midpoint error is then far
# below the tolerances below.
FINE_CELLS = 200_000

# Tolerances, fixed from the methods compared: the program integrates the
# same density with 512 Gauss-Legendre nodes in double precision.
THETA_TOL = 1e-7
VARIANCE_REL_TOL = 1e-5
VARIANCE_ABS_TOL = 1e-12
ENERGY_TOL = 1e-8
# Sums the report states as identities, recomputed in another order.
IDENTITY_REL_TOL = 1e-12

# Midpoint grid on the 3-simplex of joint outcome probabilities for the pair
# posterior.  On the workloads' ledgers, 48 cells per axis moved the
# coefficient-weighted covariance sums by under 1.5 % against 96 cells.
PAIR_CELLS = 48
# The program integrates the pair posterior on a 16-cell grid, so its
# covariances may differ from the reference by the grid's error:
# |cov - reference| <= PAIR_REL_TOL * sqrt(Var_i Var_j) + PAIR_ABS_TOL, with
# PAIR_ABS_TOL the squared 16-cell width.  On 40 calib-1x2 repetitions and
# three estimate-2x3 runs the largest per-pair error was 0.24 of that
# tolerance, and zeroing every covariance exceeded it by a factor of 1.3 or
# more in every repetition.
PAIR_REL_TOL = 0.1
PAIR_ABS_TOL = (1.0 / 16) ** 2


class CheckFailed(AssertionError):
    """An output disagrees with the reference computed apart from the program."""


def dense_hamiltonian(terms: list[tuple[float, str]], offset: float) -> np.ndarray:
    """Dense H = offset + sum c P, each P the Kronecker product of its letters."""
    dim = 1 << (len(terms[0][1]) if terms else 0)
    h = offset * np.eye(dim, dtype=complex)
    for coeff, letters in terms:
        h += coeff * reduce(np.kron, (PAULI[ch] for ch in letters))
    return h


def ground_energy(terms: list[tuple[float, str]], offset: float) -> float:
    """Lowest eigenvalue of the dense H: the exact mean on the ground state."""
    return float(np.linalg.eigvalsh(dense_hamiltonian(terms, offset))[0])


_CELLS = (np.arange(FINE_CELLS) + 0.5) / FINE_CELLS
_LOG_T = np.log(_CELLS)
_LOG_1MT = np.log1p(-_CELLS)
_PHI = _CELLS**2 + (1.0 - _CELLS) ** 2
_LOG_PHI = np.log(_PHI)
_LOG_1MPHI = np.log(2.0 * _CELLS * (1.0 - _CELLS))


def single_posterior(counts: np.ndarray) -> tuple[float, float]:
    """(E[theta], Var[theta]) under a flat prior for one (s+, s-, d+, d-) row.

    Without two-copy counts the posterior is Beta(s+ + 1, s- + 1) and the
    moments are closed-form; otherwise the density
    theta^s+ (1-theta)^s- phi^d+ (1-phi)^d- is integrated on a fine grid.
    """
    sp, sm, dp, dm = (float(c) for c in counts)
    if dp == 0.0 and dm == 0.0:
        a, b = sp + 1.0, sm + 1.0
        mean = a / (a + b)
        return mean, a * b / ((a + b) ** 2 * (a + b + 1.0))
    logd = sp * _LOG_T + sm * _LOG_1MT + dp * _LOG_PHI + dm * _LOG_1MPHI
    w = np.exp(logd - logd.max())
    w /= w.sum()
    mean = float(w @ _CELLS)
    return mean, float(w @ (_CELLS - mean) ** 2)


def _pair_grid(cells: int):
    """Log factors (12, points) and the marginals theta_i, theta_j per point.

    Points are cell midpoints (t++, t+-, t-+) with t-- = 1 - sum; pattern
    index p = 2 [i is -] + [j is -].  Two copies show agreement pattern a
    with probability phi_a = sum_p t_p t_(p xor a).
    """
    m = (np.arange(cells) + 0.5) / cells
    axes = [a.ravel() for a in np.meshgrid(m, m, m, indexing="ij")]
    keep = axes[0] + axes[1] + axes[2] < 1.0
    t = [a[keep] for a in axes]
    t.append(1.0 - t[0] - t[1] - t[2])
    phi = [sum(t[p] * t[p ^ a] for p in range(4)) for a in range(4)]
    ti, tj = t[0] + t[1], t[0] + t[2]
    factors = t + phi + [ti, 1.0 - ti, tj, 1.0 - tj]
    return np.log(np.stack(factors)), ti, tj


_PAIR_LOGS, _PAIR_TI, _PAIR_TJ = _pair_grid(PAIR_CELLS)


def pair_posterior(counts: np.ndarray, batch: int = 128) -> np.ndarray:
    """(Cov, Var_i, Var_j) of the marginals under a flat prior, per pair row.

    *counts* rows are the ledger's 12 pair columns: joint single counts,
    joint two-copy counts (both in pattern order), then the single counts
    of term i and of term j taken without the other.
    """
    out = np.empty((counts.shape[0], 3))
    for lo in range(0, counts.shape[0], batch):
        logd = counts[lo:lo + batch] @ _PAIR_LOGS
        w = np.exp(logd - logd.max(axis=1, keepdims=True))
        w /= w.sum(axis=1, keepdims=True)
        mi, mj = w @ _PAIR_TI, w @ _PAIR_TJ
        out[lo:lo + batch] = np.stack([
            w @ (_PAIR_TI * _PAIR_TJ) - mi * mj,
            w @ _PAIR_TI**2 - mi * mi,
            w @ _PAIR_TJ**2 - mj * mj,
        ], axis=1)
    return out


def _fail(what: str):
    raise CheckFailed(what)


def check_energy(program_mean: float, e0: float) -> None:
    """exact_mean(obs, ground_state) must equal the lowest eigenvalue."""
    if not abs(program_mean - e0) <= ENERGY_TOL * max(1.0, abs(e0)):
        _fail(f"exact mean {program_mean!r} differs from E0 {e0!r}")


def check_run(result, terms, offset, groups, budget: int) -> None:
    """All per-repetition checks on one AllocationResult.

    *terms* are (coefficient, letters) pairs, *groups* the cover's groups.
    """
    report, ledger, trace = result.report, result.ledger, result.trace
    if report.m + report.m_double != budget:
        _fail(f"m + m_double = {report.m + report.m_double}, budget {budget}")
    if len(trace) != report.m or (trace and trace[-1].m_double != report.m_double):
        _fail("trace length or final m_double disagrees with the report")
    if sum(1 for row in trace if row.kind == "double") != report.m_double:
        _fail("double actions in the trace disagree with m_double")

    singles = np.asarray(ledger.singles)
    group_actions = np.bincount(
        np.array([row.group for row in trace if row.kind == "group"], dtype=int),
        minlength=len(groups))
    member = np.zeros((len(groups), len(terms)))
    for g, held in enumerate(groups):
        member[g, list(held)] = 1.0
    group_shots = group_actions @ member
    if not np.array_equal(singles[:, 0] + singles[:, 1], group_shots):
        _fail("s+ + s- disagrees with the group actions in the trace")
    if not np.all(singles[:, 2] + singles[:, 3] == report.m_double):
        _fail("d+ + d- disagrees with m_double")

    if len(report.per_term) != len(terms):
        _fail("report has the wrong number of terms")
    mean = offset
    for i, ((coeff, _), term) in enumerate(zip(terms, report.per_term)):
        theta, var = single_posterior(singles[i])
        if not abs(term.theta - theta) <= THETA_TOL:
            _fail(f"term {i}: theta {term.theta!r}, reference {theta!r}")
        want = 4.0 * coeff * coeff * var
        got = term.variance_contribution
        if not abs(got - want) <= VARIANCE_REL_TOL * abs(want) + VARIANCE_ABS_TOL:
            _fail(f"term {i}: variance contribution {got!r}, reference {want!r}")
        mean += coeff * (2.0 * theta - 1.0)
    scale = sum(abs(c) for c, _ in terms) or 1.0
    if not abs(report.mean - mean) <= 2.0 * THETA_TOL * scale:
        _fail(f"mean {report.mean!r}, reference {mean!r}")
    check_pairs(report, ledger, [c for c, _ in terms], member, group_actions)
    if not (math.isfinite(report.variance) and report.variance > 0.0):
        _fail(f"claimed variance {report.variance!r} is not finite and positive")


def check_pairs(report, ledger, coeff, member, group_actions) -> None:
    """Pair counts, per-pair covariances and the claimed variance's sum.

    *member* is the cover's (group, term) membership matrix and
    *group_actions* counts the trace's actions per group.
    """
    keys = np.array(ledger.pair_keys, dtype=int).reshape(-1, 2)
    i, j = keys.T
    pairs, singles = np.asarray(ledger.pairs), np.asarray(ledger.singles)
    both = (member.T * group_actions) @ member
    if not np.array_equal(pairs[:, 0:4].sum(axis=1), both[i, j]):
        _fail("joint single counts disagree with the group actions holding both terms")
    p = pairs.T
    marginal_i = np.stack([p[0] + p[1] + p[8], p[2] + p[3] + p[9], p[4] + p[5], p[6] + p[7]], 1)
    marginal_j = np.stack([p[0] + p[2] + p[10], p[1] + p[3] + p[11], p[4] + p[6], p[5] + p[7]], 1)
    if not (np.array_equal(marginal_i, singles[i]) and np.array_equal(marginal_j, singles[j])):
        _fail("pair counts disagree with the single-term counts")

    joint = np.flatnonzero(pairs[:, :8].sum(axis=1) > 0)
    if sorted((q.i, q.j) for q in report.per_pair) != [tuple(k) for k in keys[joint].tolist()]:
        _fail("per-pair rows are not the jointly measured pairs")
    by_key = {(q.i, q.j): q for q in report.per_pair}
    rows = [by_key[tuple(k)] for k in keys[joint].tolist()]
    cov = np.array([q.covariance for q in rows])
    contrib = np.array([q.contribution for q in rows])
    coeff = np.asarray(coeff)
    want = 8.0 * coeff[i[joint]] * coeff[j[joint]] * cov
    if not np.allclose(contrib, want, rtol=IDENTITY_REL_TOL, atol=0.0):
        _fail("a pair contribution differs from 8 c_i c_j Cov")
    ref = pair_posterior(pairs[joint])
    bad = np.flatnonzero(np.abs(cov - ref[:, 0])
                         > PAIR_REL_TOL * np.sqrt(ref[:, 1] * ref[:, 2]) + PAIR_ABS_TOL)
    if bad.size:
        k = bad[0]
        _fail(f"pair {tuple(keys[joint[k]].tolist())}: covariance {float(cov[k])!r},"
              f" reference {float(ref[k, 0])!r}")

    terms = np.array([t.variance_contribution for t in report.per_term])
    total = terms.sum() + contrib.sum()
    scale = np.abs(terms).sum() + np.abs(contrib).sum()
    if not abs(report.variance - max(total, 0.0)) <= IDENTITY_REL_TOL * scale:
        _fail(f"claimed variance {report.variance!r} is not the sum {float(total)!r}"
              " of its term and pair contributions")


def z_score(report, e0: float) -> float:
    return (report.mean - e0) / math.sqrt(report.variance)


def check_z(z: float, bound: float) -> None:
    if not abs(z) <= bound:
        _fail(f"|z| = {abs(z):.3f} exceeds {bound}")


def check_rms_z(zs: list[float], band: tuple[float, float]) -> None:
    rms = math.sqrt(sum(z * z for z in zs) / len(zs))
    if not band[0] <= rms <= band[1]:
        _fail(f"RMS z {rms:.3f} outside {band}")
