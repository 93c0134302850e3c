"""Outcome bookkeeping and estimate assembly.

The ledger stores, per observable term, the four single-term counts
(s+, s-, d+, d-) and, per commuting unordered pair, a 12-component count row:

    columns 0-3   s_joint   joint single-scheme counts (++, +-, -+, --)
    columns 4-7   d_joint   joint double-scheme counts (same order)
    columns 8-9   s_i_indep single counts of the lower-index term taken in a
                            context that did not measure the other term (+,-)
    columns 10-11 s_j_indep same for the higher-index term

First sign in a joint bin is the lower-index term.  Only commuting pairs are
tracked: anti-commuting pairs can never be jointly measured on a single copy
and their covariance is pinned to zero, so they need no storage.

Real shots add integer counts; the allocator's virtual updates add fractional
expectation-valued counts to a copy (see allocator module).
"""
from __future__ import annotations

import copy
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .pauli import Observable, commutation_matrix
from .posterior import DEFAULT_CONFIG, MomentEngine
from .simulator import ShotOutcome

_NEGATIVE_VARIANCE_FLOOR = -1e-9

# record codes each term's outcome 0 (not measured), 1 (plus) or 2 (minus);
# the cell tables have one row per shot kind
_KINDS = {"group": 0, "double": 1}
_SIGNS = frozenset((1, -1))
_INTEGRAL = (int, np.integer)
# single-row column by kind and code: s+ and s- for a group shot, d+ and d-
# for a double shot
_SINGLE_CELLS = ((-1, 0, 1), (-1, 2, 3))
# pair-row column by kind and 3 * code_i + code_j: a group shot fills a joint
# cell 0-3 when it measured both ends and a one-side cell 8-11 when it
# measured one; a double shot measures every term, so only its joint cells
# 4-7 occur
_PAIR_CELLS = np.array([
    [-1, 10, 11, 8, 0, 1, 9, 2, 3],
    [-1, -1, -1, -1, 4, 5, -1, 6, 7],
])


class TallyLedger:
    """All measurement counts for one observable, plus shot counters.

    shots_taken counts every executed action (group or double); double_shots
    counts the double ones, so the effective budget spent is
    shots_taken + double_shots.
    """

    def __init__(self, obs: Observable):
        p = obs.num_terms
        self.num_terms = p
        self.singles = np.zeros((p, 4))
        commuting = np.triu(commutation_matrix(obs.strings()), 1)
        # (2, q): each commuting pair's lower and higher term
        self.pair_ends = np.array(np.nonzero(commuting))
        self.pair_i, self.pair_j = self.pair_ends
        # row-major nonzero order: the keys are sorted
        self.pair_keys: tuple[tuple[int, int], ...] = tuple(
            zip(self.pair_i.tolist(), self.pair_j.tolist())
        )
        self.pairs = np.zeros((len(self.pair_keys), 12))
        self.shots_taken = 0
        self.double_shots = 0

    @property
    def num_pairs(self) -> int:
        return len(self.pair_keys)

    @property
    def effective_shots(self) -> int:
        return self.shots_taken + self.double_shots

    def copy(self) -> "TallyLedger":
        dup = copy.copy(self)
        dup.singles = self.singles.copy()
        dup.pairs = self.pairs.copy()
        return dup

    # -- recording ----------------------------------------------------------

    def record(self, outcome: ShotOutcome) -> None:
        """Fold one real shot into the counts and advance the counters.

        Each measured term adds one count to its single cell, and each pair
        with a measured end adds one to the cell _PAIR_CELLS gives for the
        codes of its two ends.  An index that is not an integer (a bool is
        not one) or lies outside the terms, or a value other than +1 or -1,
        is refused before any count moves.
        """
        kind = _KINDS.get(outcome.kind)
        if kind is None:
            raise InvalidInputError(f"unknown outcome kind {outcome.kind!r}")
        values, p = outcome.values, self.num_terms
        # each key type checked once; a bool is an int but not a term index
        types = set(map(type, values))
        if bool in types or not all(issubclass(t, _INTEGRAL) for t in types):
            bad = next(
                i for i in values if type(i) is bool or not isinstance(i, _INTEGRAL)
            )
            raise InvalidInputError(f"outcome term index {bad!r} is not an integer")
        if values and (min(values) < 0 or max(values) >= p):
            bad = next(i for i in values if not 0 <= i < p)
            raise InvalidInputError(f"outcome term index {bad} outside 0..{p - 1}")
        if not _SIGNS.issuperset(values.values()):
            bad = next(o for o in values.values() if o not in _SIGNS)
            raise InvalidInputError(f"outcome value {bad!r} is not +1 or -1")
        if kind and len(values) != p:
            raise InvalidInputError(
                f"double outcome must cover every term; got {len(values)} of {p}"
            )
        singles, cells = self.singles, _SINGLE_CELLS[kind]
        code = np.zeros(p, np.intp)
        for i, o in values.items():
            c = 1 if o == 1 else 2
            singles[i, cells[c]] += 1.0
            code[i] = c
        ends = code[self.pair_ends]
        cell = 3 * ends[0]
        cell += ends[1]
        rows = cell.nonzero()[0]
        at = 12 * rows
        at += _PAIR_CELLS[kind][cell[rows]]
        # flat positions: take and put write through any view of the rows
        self.pairs.put(at, self.pairs.take(at) + 1.0)
        self.shots_taken += 1
        self.double_shots += kind

    # -- integrity ----------------------------------------------------------

    def validate(self) -> None:
        """Check the count identities that every real (integer) ledger obeys."""
        d_total = self.singles[:, 2] + self.singles[:, 3]
        if not np.allclose(d_total, self.double_shots, atol=1e-9):
            raise InvalidInputError(
                "double counts do not match the double-shot counter"
            )
        if np.any(self.singles < 0) or np.any(self.pairs < 0):
            raise InvalidInputError("negative counts in ledger")
        if self.num_pairs == 0:
            return
        pr = self.pairs
        checks = [
            (pr[:, 0] + pr[:, 1] + pr[:, 8], self.singles[self.pair_i, 0]),
            (pr[:, 2] + pr[:, 3] + pr[:, 9], self.singles[self.pair_i, 1]),
            (pr[:, 0] + pr[:, 2] + pr[:, 10], self.singles[self.pair_j, 0]),
            (pr[:, 1] + pr[:, 3] + pr[:, 11], self.singles[self.pair_j, 1]),
            (pr[:, 4] + pr[:, 5], self.singles[self.pair_i, 2]),
            (pr[:, 6] + pr[:, 7], self.singles[self.pair_i, 3]),
            (pr[:, 4] + pr[:, 6], self.singles[self.pair_j, 2]),
            (pr[:, 5] + pr[:, 7], self.singles[self.pair_j, 3]),
        ]
        for got, want in checks:
            if not np.allclose(got, want, atol=1e-9):
                raise InvalidInputError(
                    "pair counts inconsistent with single-term totals"
                )


@dataclass(frozen=True)
class TermReport:
    index: int
    string: str
    coefficient: float
    theta: float
    variance_contribution: float


@dataclass(frozen=True)
class PairReport:
    i: int
    j: int
    covariance: float
    contribution: float


@dataclass(frozen=True)
class EstimateReport:
    """Point estimate, claimed variance, and their per-term/per-pair split."""

    mean: float
    variance: float
    per_term: tuple[TermReport, ...]
    per_pair: tuple[PairReport, ...]
    m: int
    m_double: int

    @property
    def m_eff(self) -> int:
        return self.m + self.m_double

    def to_dict(self) -> dict:
        return {
            "mean": self.mean,
            "variance": self.variance,
            "m": self.m,
            "m_double": self.m_double,
            "m_eff": self.m_eff,
            "per_term": [
                {
                    "index": t.index,
                    "string": t.string,
                    "coefficient": t.coefficient,
                    "theta": t.theta,
                    "variance_contribution": t.variance_contribution,
                }
                for t in self.per_term
            ],
            "per_pair": [
                {
                    "i": q.i,
                    "j": q.j,
                    "covariance": q.covariance,
                    "contribution": q.contribution,
                }
                for q in self.per_pair
            ],
        }


def joint_mask(pairs: np.ndarray) -> np.ndarray:
    """True for pair rows that carry any joint (s or d) counts."""
    if pairs.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    return np.any(pairs[:, :8] > 0, axis=1)


def term_contributions(coeff: np.ndarray, smom: np.ndarray) -> np.ndarray:
    """Per-term variance contributions 4 c_i^2 (E[theta^2] - E[theta]^2)."""
    theta = smom[:, 0]
    return 4.0 * coeff * coeff * (smom[:, 1] - theta * theta)


def pair_covariance(pmom: np.ndarray) -> np.ndarray:
    """Same-posterior bracket E[theta_i theta_j] - E[theta_i] E[theta_j] per row."""
    return pmom[:, 8] - pmom[:, 9] * pmom[:, 10]


def pair_contributions(
    coeff: np.ndarray,
    pair_i: np.ndarray,
    pair_j: np.ndarray,
    num_pairs: int,
    joint_rows: np.ndarray,
    cov: np.ndarray,
) -> np.ndarray:
    """Per-pair contributions 8 c_i c_j Cov; zero for never-jointly-measured.

    cov holds the pair_covariance of exactly the joint_rows indices.
    """
    out = np.zeros(num_pairs)
    if joint_rows.size:
        out[joint_rows] = (
            8.0 * coeff[pair_i[joint_rows]] * coeff[pair_j[joint_rows]] * cov
        )
    return out


def clamped_variance(total: float) -> float:
    """Apply the nonnegativity floor to the summed variance."""
    if total < 0.0:
        if total < _NEGATIVE_VARIANCE_FLOOR:
            warnings.warn(
                f"claimed variance {total:.3e} fell below the numerical "
                "floor; clamping to zero",
                RuntimeWarning,
                stacklevel=3,
            )
        return 0.0
    return total


def estimate(
    ledger: TallyLedger,
    obs: Observable,
    engine: MomentEngine = DEFAULT_CONFIG,
) -> EstimateReport:
    """Assemble the point estimate and its claimed variance from the counts.

    Mean: offset + sum_i c_i (2 theta_i - 1) with theta_i the posterior mean
    from the full single tally.  Variance: 4 sum_i c_i^2 Var(theta_i) plus
    8 sum over jointly measured commuting pairs of c_i c_j Cov(theta_i,
    theta_j), where both the product moment and the subtracted marginals come
    from the same pair posterior.  Pairs with no joint counts contribute
    exactly zero and are skipped.  Moments come from *engine*.
    """
    if ledger.num_terms != obs.num_terms:
        raise InvalidInputError(
            f"ledger tracks {ledger.num_terms} terms, observable has "
            f"{obs.num_terms}"
        )
    coeff = obs.coefficients()
    strings = obs.strings()

    if ledger.num_terms == 0:
        return EstimateReport(
            mean=obs.identity_offset,
            variance=0.0,
            per_term=(),
            per_pair=(),
            m=ledger.shots_taken,
            m_double=ledger.double_shots,
        )

    smom = engine.single_block(ledger.singles)
    theta = smom[:, 0]
    mean = obs.identity_offset + float(np.sum(coeff * (2.0 * theta - 1.0)))
    term_contrib = term_contributions(coeff, smom)

    joint_rows = np.flatnonzero(joint_mask(ledger.pairs))
    pmom_joint = (
        engine.pair_block(ledger.pairs[joint_rows])
        if joint_rows.size
        else np.zeros((0, 11))
    )
    cov = pair_covariance(pmom_joint)
    pair_contrib = pair_contributions(
        coeff, ledger.pair_i, ledger.pair_j, ledger.num_pairs, joint_rows, cov,
    )
    variance = clamped_variance(float(np.sum(term_contrib) + np.sum(pair_contrib)))

    per_pair = []
    for pos, k in enumerate(joint_rows):
        i, j = ledger.pair_keys[k]
        per_pair.append(
            PairReport(
                i=i, j=j, covariance=float(cov[pos]),
                contribution=float(pair_contrib[k]),
            )
        )

    per_term = tuple(
        TermReport(
            index=i,
            string=str(strings[i]),
            coefficient=float(coeff[i]),
            theta=float(theta[i]),
            variance_contribution=float(term_contrib[i]),
        )
        for i in range(obs.num_terms)
    )
    return EstimateReport(
        mean=mean,
        variance=variance,
        per_term=per_term,
        per_pair=tuple(per_pair),
        m=ledger.shots_taken,
        m_double=ledger.double_shots,
    )
