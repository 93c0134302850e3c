"""Greedy adaptive shot allocation.

Each step hypothesizes every candidate action against the current counts:
a group action adds one expectation-valued single-scheme shot of that group
(term counts split by the posterior mean, joint counts split by the pair
posterior's joint means), a double action adds half an expectation-valued
double-scheme shot to every term and pair (the half encodes its two-shot
cost).  The action whose hypothetical ledger predicts the smallest estimate
variance is executed for real, and the loop repeats until the effective
budget (group shots count 1, double shots 2) cannot fund any action.

The run loop keeps, for every term and pair, the variance contribution of
its real row and of each virtual row a candidate can give it (its variants),
and after an executed action evaluates again only the rows that action
changed: a group shot's members and the pairs touching them, or every row
after a double shot.  A candidate is one pick of a variant per row, so all
candidates are one pick matrix per table, and their predictions are the
picked contributions gathered and summed row by row.  The moment engine
gives a row the same bits in any batch, and a row sum of the gathered matrix
the same bits as np.sum of that row, so the predictions are bit-identical to
rebuilding each hypothetical ledger and calling estimate() on it, which is
what virtual_update and choose_action do and what the tests cross-check.

run_allocations steps a cohort of runs together as one array program (see
_FastLoop): a step predicts every candidate of every live run with one
gather and row sum per table, draws each run's shot from its own rng in run
order, and evaluates again the rows the shots changed in four engine calls,
each holding the rows of every live run, which fills the quadrature
chunks that one small run leaves mostly padding.  Again because a row's
moments are the same bits in any batch, every run gets the bits it gets
alone.  The cohort holds as many runs as fit COHORT_ROWS tally rows, so
wide observables run one at a time and memory stays that of one cohort.
run_allocation is the one-run case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _require_bool, _require_integer
from .ledger import (
    EstimateReport,
    TallyLedger,
    clamped_variance,
    estimate,
    pair_contributions,
    pair_covariance,
    term_contributions,
)
from .pauli import GroupCover, Observable, _group_indices, commutation_matrix
from .posterior import DEFAULT_CONFIG, MomentEngine, joint_mask
from .simulator import (
    DEFAULT_MAX_QUBITS,
    StateVector,
    _bell_table,
    _check_cap,
    _pauli_actions,
    sample_double_shot,
    sample_group_shot,
)


@dataclass(frozen=True)
class AllocationConfig:
    budget: int
    enable_double: bool = True
    seed: int | None = None
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self):
        _require_integer("budget", self.budget, 1)
        _require_integer("max_qubits", self.max_qubits, 1)
        _require_bool("enable_double", self.enable_double)
        # None, a non-negative integer, or a sequence of them (a PCG64 entropy)
        if self.seed is not None:
            seeds = self.seed if isinstance(self.seed, (tuple, list)) else (self.seed,)
            for value in seeds:
                _require_integer("seed", value, 0)


@dataclass(frozen=True)
class TraceRow:
    """One executed action with its predicted and realized variance."""

    step: int
    kind: str
    group: int | None
    predicted_variance: float
    realized_variance: float
    m: int
    m_double: int


@dataclass(frozen=True)
class AllocationResult:
    ledger: TallyLedger
    report: EstimateReport
    trace: tuple[TraceRow, ...] = field(repr=False)


# Variants: the rows of _FastLoop's contribution tables and the values of its
# pick matrices (real row; row after a virtual group or double shot).
_REAL = 0
_GROUP, _TERM_DOUBLE = 1, 2
_BOTH, _ISIDE, _JSIDE, _PAIR_DOUBLE = 1, 2, 3, 4


def _partition(ledger: TallyLedger, members):
    """A group shot's member terms, and its pairs by side: both, i only, j only."""
    held = np.zeros(ledger.num_terms, dtype=bool)
    held[np.asarray(members, dtype=np.intp)] = True
    hi, hj = held[ledger.pair_i], held[ledger.pair_j]
    return (
        np.flatnonzero(held),
        np.flatnonzero(hi & hj),
        np.flatnonzero(hi & ~hj),
        np.flatnonzero(~hi & hj),
    )


# Virtual rows, one function per way an action can change a row.  Each takes
# the real rows it changes and the moments it adds, so the reference path
# and the fast loop build the same rows with the same arithmetic.


def _group_single_rows(singles, smom):
    """Term rows after one expectation-valued single-scheme shot."""
    vs = singles.copy()
    th = smom[:, 0]
    vs[:, 0] += th
    vs[:, 1] += 1.0 - th
    return vs


def _double_single_rows(singles, smom):
    """Term rows after half an expectation-valued double shot."""
    vs = singles.copy()
    phi = smom[:, 2]
    vs[:, 2] += 0.5 * phi
    vs[:, 3] += 0.5 * (1.0 - phi)
    return vs


def _both_pair_rows(pairs, pmom):
    """Pair rows after a group shot holding both terms: joint cells split."""
    vp = pairs.copy()
    vp[:, 0:4] += pmom[:, 0:4]
    return vp


def _iside_pair_rows(pairs, theta_i):
    """Pair rows after a group shot holding only the lower-index term."""
    vp = pairs.copy()
    vp[:, 8] += theta_i
    vp[:, 9] += 1.0 - theta_i
    return vp


def _jside_pair_rows(pairs, theta_j):
    """Pair rows after a group shot holding only the higher-index term."""
    vp = pairs.copy()
    vp[:, 10] += theta_j
    vp[:, 11] += 1.0 - theta_j
    return vp


def _double_pair_rows(pairs, pmom):
    """Pair rows after half an expectation-valued double shot."""
    vp = pairs.copy()
    vp[:, 4:8] += 0.5 * pmom[:, 4:8]
    return vp


def virtual_update(
    ledger: TallyLedger, candidate: int, cover: GroupCover
) -> TallyLedger:
    """Reference hypothetical-ledger builder; the input ledger is untouched.

    candidate is a group's index, or cover.num_groups for the double shot,
    as in the run loop; anything else is refused.  Counters are not
    advanced: the hypothetical ledger only serves variance prediction, and
    its fractional counts do not satisfy the integer-count identities that
    validate() checks on real ledgers.  Moments come from DEFAULT_CONFIG.
    """
    _require_integer("candidate", candidate, 0)
    if candidate > cover.num_groups:
        raise InvalidInputError(
            f"candidate {candidate} outside 0..{cover.num_groups} for this cover"
        )
    smom = DEFAULT_CONFIG.single_block(ledger.singles)
    pmom = DEFAULT_CONFIG.pair_block(ledger.pairs)
    out = ledger.copy()
    singles, pairs = ledger.singles, ledger.pairs
    if candidate < cover.num_groups:
        terms, both, iside, jside = _partition(ledger, cover.groups[candidate])
        out.singles[terms] = _group_single_rows(singles[terms], smom[terms])
        out.pairs[both] = _both_pair_rows(pairs[both], pmom[both])
        out.pairs[iside] = _iside_pair_rows(
            pairs[iside], smom[ledger.pair_i[iside], 0]
        )
        out.pairs[jside] = _jside_pair_rows(
            pairs[jside], smom[ledger.pair_j[jside], 0]
        )
    else:
        out.singles = _double_single_rows(singles, smom)
        out.pairs = _double_pair_rows(pairs, pmom)
    return out


def _check_cover(obs: Observable, cover: GroupCover) -> None:
    """Refuse a cover with a group that pauli._group_indices refuses."""
    for g, group in enumerate(cover.groups):
        try:
            _group_indices(obs, group)
        except InvalidInputError as err:
            raise InvalidInputError(f"cover group {g}: {err}") from None


def choose_action(
    ledger: TallyLedger,
    obs: Observable,
    cover: GroupCover,
    config: AllocationConfig,
) -> int:
    """Reference chooser: rebuild every hypothetical ledger and estimate it.

    Returns the run loop's candidate index: a group's, or cover.num_groups
    for the double shot.  Ties resolve to the first candidate in order, so
    equal predictions prefer the cheaper action.  Moments come from
    DEFAULT_CONFIG.
    """
    remaining = config.budget - ledger.effective_shots
    if remaining < 1:
        raise InvalidInputError("no budget remaining")
    if cover.num_groups == 0:
        raise InvalidInputError("no measurable groups")
    _check_cover(obs, cover)
    candidates = range(cover.num_groups + (config.enable_double and remaining >= 2))
    predicted = [
        estimate(virtual_update(ledger, c, cover), obs, DEFAULT_CONFIG).variance
        for c in candidates
    ]
    return predicted.index(min(predicted))


class _FastLoop:
    """Candidate evaluation for a cohort of runs, as one array program.

    `enable_double` holds one flag per run (a bool alone is a cohort of
    one).  Each run keeps its own ledger in `ledgers`, whose tallies are
    views of one (runs, terms, 4) and one (runs, pairs, 12) array, and its
    trace in `traces`; the first run's ledger, `ledger`, gives the pair
    layout that every run shares.

    `term` (runs, 3, terms) and `pair` (runs, 5, pairs) hold variance
    contributions, one row per variant and one column per tally row: a
    term's real row, its row after a virtual group shot and after a virtual
    double shot; a pair's real row, after a group shot holding both terms,
    only term i or only term j, and after a double shot.  A group's virtual
    rows depend only on the row and on which of its terms the group holds,
    so the tables serve every candidate.  A candidate (groups by index, then
    double) is one row of `term_pick` and `pair_pick`, one pick of a variant
    per tally row, and its prediction is the sum of the picked
    contributions.  A real shot changes the rows its picks move off _REAL;
    only those are evaluated again, and of the group pair variants only
    those some candidate picks (`needed`).  joint_mask selects the one-side
    variants: one is built only for a jointly measured row, since it adds
    only independent counts, so a row never measured jointly keeps the zero
    contribution it started with.  A real pair row never measured jointly
    gets its zero from the engine, whose factorized moments give a
    covariance of exactly 0.0.  Double-shot variants are kept only for the
    runs that may take double shots.  Of the term moments only theta
    (`theta`) is kept; the one-side variants read it.
    """

    def __init__(self, obs: Observable, cover: GroupCover, enable_double):
        self.double = np.atleast_1d(np.asarray(enable_double, dtype=bool))
        self.coeff = obs.coefficients()
        self.ledger = led = TallyLedger(obs)
        runs, p, q, g = self.double.size, led.num_terms, led.num_pairs, cover.num_groups
        self.ledgers = [led] + [led.copy() for _ in range(runs - 1)]
        self.singles = np.zeros((runs, p, 4))
        self.pairs = np.zeros((runs, q, 12))
        for r, own in enumerate(self.ledgers):
            own.singles, own.pairs = self.singles[r], self.pairs[r]
        self.traces: list[list[TraceRow]] = [[] for _ in range(runs)]
        self.theta = np.zeros((runs, p))
        self.term = np.zeros((runs, 3, p))
        self.pair = np.zeros((runs, 5, q))
        self.term_pick = np.full((g + 1, p), _REAL, dtype=np.int8)
        self.pair_pick = np.full((g + 1, q), _REAL, dtype=np.int8)
        for c, members in enumerate(cover.groups):
            terms, both, iside, jside = _partition(led, members)
            self.term_pick[c, terms] = _GROUP
            self.pair_pick[c, both] = _BOTH
            self.pair_pick[c, iside] = _ISIDE
            self.pair_pick[c, jside] = _JSIDE
        self.term_pick[g] = _TERM_DOUBLE
        self.pair_pick[g] = _PAIR_DOUBLE
        # pair variants some group picks; the others are never read
        self.needed = np.zeros((5, q), dtype=bool)
        self.needed[self.pair_pick[:g], np.arange(q)] = True
        self.term_at = _off_real(self.term_pick)
        self.pair_at = _off_real(self.pair_pick)

    def predict(self, live: np.ndarray, allowed: np.ndarray) -> np.ndarray:
        """Clamped predicted variance of each candidate (columns) per live run.

        Each live run's matrix of picked contributions is summed over its
        last, contiguous axis, which gives each prediction the bits of
        np.sum on its row alone.  A run's double candidate reads inf where
        `allowed` is False, so that argmin never picks it.
        """
        total = _picked_sums(self.term[live], *self.term_at) + _picked_sums(
            self.pair[live], *self.pair_at
        )
        total[~allowed, -1] = np.inf
        return _clamped(total)

    def update(
        self, engine: MomentEngine, live: np.ndarray, cand: np.ndarray
    ) -> np.ndarray:
        """Re-evaluate the rows candidate cand[i] changed in run live[i].

        The double candidate changes every row, so it also starts a fresh
        ledger.  Four engine calls, each holding the rows of every live run,
        in this order: real single rows, real pair rows, virtual single
        rows, virtual pair rows.  joint_mask is taken once, on the real pair
        rows, and selects the one-side variants; a real row never measured
        jointly stores the engine's exact zero.  Every virtual pair row built
        is jointly measured, so the last call takes them all.  Returns each
        live run's clamped variance estimate.
        """
        coeff, pair_i, pair_j = self.coeff, self.ledger.pair_i, self.ledger.pair_j
        pos, tt = np.nonzero(self.term_pick[cand])
        rt = live[pos]
        pos, kk = np.nonzero(self.pair_pick[cand])
        rk = live[pos]

        srows = self.singles[rt, tt]
        smom = self._evaluate(engine.single_block, srows, rt, live)
        self.theta[rt, tt] = smom[:, 0]
        prows = self.pairs[rk, kk]
        pmom = self._evaluate(engine.pair_block, prows, rk, live)
        self.term[rt, _REAL, tt] = term_contributions(coeff[tt], smom)
        joint = joint_mask(prows)
        self.pair[rk, _REAL, kk] = pair_contributions(
            coeff, pair_i[kk], pair_j[kk], pair_covariance(pmom)
        )

        d = self.double[rt]
        runs, cols = np.concatenate([rt, rt[d]]), np.concatenate([tt, tt[d]])
        variant = np.repeat([_GROUP, _TERM_DOUBLE], [tt.size, np.count_nonzero(d)])
        rows = np.concatenate([
            _group_single_rows(srows, smom),
            _double_single_rows(srows[d], smom[d]),
        ])
        ms = self._evaluate(engine.single_block, rows, runs, live)
        self.term[runs, variant, cols] = term_contributions(coeff[cols], ms)

        # a one-side row is jointly measured exactly when its real row is; a
        # both-terms or double row adds a probability vector to joint cells
        sel = [self.needed[_BOTH, kk], self.needed[_ISIDE, kk] & joint,
               self.needed[_JSIDE, kk] & joint, self.double[rk]]
        b, i, j, d = sel
        runs = np.concatenate([rk[s] for s in sel])
        cols = np.concatenate([kk[s] for s in sel])
        variant = np.repeat(
            [_BOTH, _ISIDE, _JSIDE, _PAIR_DOUBLE], [np.count_nonzero(s) for s in sel]
        )
        rows = np.concatenate([
            _both_pair_rows(prows[b], pmom[b]),
            _iside_pair_rows(prows[i], self.theta[rk[i], pair_i[kk[i]]]),
            _jside_pair_rows(prows[j], self.theta[rk[j], pair_j[kk[j]]]),
            _double_pair_rows(prows[d], pmom[d]),
        ])
        mp = self._evaluate(engine.pair_block, rows, runs, live)
        self.pair[runs, variant, cols] = pair_contributions(
            coeff, pair_i[cols], pair_j[cols], pair_covariance(mp)
        )

        return _clamped(
            self.term[live, _REAL].sum(axis=-1) + self.pair[live, _REAL].sum(axis=-1)
        )

    def _evaluate(self, block, rows, runs, live):
        """One engine call on the rows of every live run; rows[n] is runs[n]'s.

        On a failure each live run's rows are evaluated alone, in run order,
        and the first run whose rows fail raises that error, with its own
        partial trace attached as `partial_trace`.
        """
        try:
            return block(rows)
        except Exception:
            for r in live.tolist():
                try:
                    block(rows[runs == r])
                except Exception as err:
                    err.partial_trace = tuple(self.traces[r])
                    raise
            raise


def _off_real(pick: np.ndarray):
    """Candidates, and flat positions of the picks off _REAL and what they pick.

    int32 holds them: the (candidates, rows) matrix is made in full at each step.
    """
    at = np.flatnonzero(pick)
    rows = pick.shape[1]
    src = pick.ravel()[at].astype(np.intp) * rows + at % rows
    return len(pick), at.astype(np.int32), src.astype(np.int32)


def _picked_sums(table: np.ndarray, candidates, at, src) -> np.ndarray:
    """Row sums of each run's (candidates, rows) matrix of picked contributions.

    The real row repeated, then the other picks put in from table (runs,
    variants, rows); summed over the last, contiguous axis.
    """
    runs = table.shape[0]
    picked = np.repeat(table[:, _REAL : _REAL + 1], candidates, axis=1)
    picked.reshape(runs, -1)[:, at] = table.reshape(runs, -1)[:, src]
    return picked.sum(axis=-1)


def _clamped(totals: np.ndarray) -> np.ndarray:
    """clamped_variance of each element, with its warnings."""
    for total in totals[totals < 0.0].tolist():
        clamped_variance(total)
    return np.where(totals < 0.0, 0.0, totals)


# Tally rows (terms plus pairs) per cohort.  A cohort's rows fill the
# quadrature chunks that one run's small batches leave mostly empty; the cap
# keeps the memory of a cohort near that of one wide run.
COHORT_ROWS = 4096


def cohort_size(obs: Observable) -> int:
    """Repetitions stepped together: as many as fit COHORT_ROWS tally rows."""
    pairs = np.count_nonzero(np.triu(commutation_matrix(obs.strings()), 1))
    return max(1, COHORT_ROWS // max(1, obs.num_terms + pairs))


class _Shots:
    """Shot sampling for every run of one state.

    The state is fixed, so the table of every term's signed permutation and
    the Bell table are made once, at first use, and serve every run.  The
    cover's groups were checked by _check_cover, and every config's
    max_qubits against the state's width by run_allocations, so double
    shots are drawn with the state's width as the cap.
    """

    def __init__(self, obs: Observable, state: StateVector, cover: GroupCover):
        self.obs, self.state, self.cover = obs, state, cover
        self.table = None
        self.bell = None

    def sample(self, candidate: int, rng):
        """One shot of a candidate (a group's index, or num_groups for double)."""
        if candidate < self.cover.num_groups:
            if self.table is None:
                self.table = _pauli_actions(self.obs.strings())
            return sample_group_shot(
                self.state, self.obs, self.cover.groups[candidate], rng,
                table=self.table,
            )
        if self.bell is None:
            self.bell = _bell_table(self.state, self.state.width)
        return sample_double_shot(
            self.state, self.obs, rng, max_qubits=self.state.width, bell=self.bell
        )


def _run_cohort(
    obs: Observable,
    cover: GroupCover,
    configs: list[AllocationConfig],
    engine: MomentEngine,
    shots: _Shots,
) -> list[AllocationResult]:
    """Allocate-measure-update runs, one per config, stepped together.

    Each step predicts every candidate of every live run, takes each run's
    best one, draws its shot from the run's own rng in run order, and
    re-evaluates what the shots changed.  A run leaves when its budget
    cannot fund a group shot.  On a failure inside a run the exception is
    re-raised with that run's partial trace attached as `partial_trace`.
    """
    g = cover.num_groups
    loop = _FastLoop(obs, cover, [config.enable_double for config in configs])
    rngs = [np.random.default_rng(config.seed) for config in configs]
    remaining = np.array([config.budget for config in configs])
    results: list[AllocationResult] = [None] * len(configs)
    live = np.arange(len(configs))
    loop.update(engine, live, np.full(live.size, g))
    while True:
        done = remaining[live] < 1 if g else np.ones(live.size, dtype=bool)
        for r in live[done].tolist():
            led = loop.ledgers[r]
            led.singles, led.pairs = led.singles.copy(), led.pairs.copy()
            report = estimate(led, obs, engine)
            results[r] = AllocationResult(
                ledger=led, report=report, trace=tuple(loop.traces[r])
            )
        live = live[~done]
        if not live.size:
            return results

        predicted = loop.predict(live, loop.double[live] & (remaining[live] >= 2))
        best = np.argmin(predicted, axis=1)
        predicted = predicted[np.arange(live.size), best].tolist()
        runs, picks = live.tolist(), best.tolist()
        for r, c in zip(runs, picks):
            try:
                outcome = shots.sample(c, rngs[r])
                loop.ledgers[r].record(outcome)
            except Exception as err:
                err.partial_trace = tuple(loop.traces[r])
                raise
        remaining[live] -= np.where(best == g, 2, 1)
        variance = loop.update(engine, live, best).tolist()
        for r, c, pred, real in zip(runs, picks, predicted, variance):
            led, trace = loop.ledgers[r], loop.traces[r]
            trace.append(
                TraceRow(
                    step=len(trace) + 1,
                    kind="double" if c == g else "group",
                    group=None if c == g else c,
                    predicted_variance=pred,
                    realized_variance=real,
                    m=led.shots_taken,
                    m_double=led.double_shots,
                )
            )


def run_allocations(
    obs: Observable,
    state: StateVector,
    cover: GroupCover,
    configs: list[AllocationConfig],
    engine: MomentEngine = DEFAULT_CONFIG,
) -> list[AllocationResult]:
    """One allocation run per config, in order, run in cohorts.

    The runs of a cohort (cohort_size of them; a lone run is a cohort of
    one) step together as one array program (see _FastLoop): each
    re-evaluation phase is one engine call holding the rows of every live
    run, and a run leaves the cohort when its budget is spent.  Each run
    keeps its own ledger, rng and trace, and gets the same bits as alone.
    One engine serves every run of the call.  The observable's width
    against the state's, the cover, and each config's max_qubits against
    the state's width are checked before any engine call or shot.
    """
    if obs.width != state.width:
        raise InvalidInputError(
            f"observable width {obs.width} does not match state width {state.width}"
        )
    _check_cover(obs, cover)
    for config in configs:
        _check_cap(state.width, config.max_qubits)
    shots = _Shots(obs, state, cover)
    size = cohort_size(obs)
    results = []
    for lo in range(0, len(configs), size):
        results.extend(_run_cohort(obs, cover, configs[lo : lo + size], engine, shots))
    return results


def run_allocation(
    obs: Observable,
    state: StateVector,
    cover: GroupCover,
    config: AllocationConfig,
) -> AllocationResult:
    """Run the full allocate-measure-update loop until the budget is spent.

    Returns the final ledger, its estimate report, and one trace row per
    executed action.  On a sampling or numerical failure the exception is
    re-raised with the partial trace attached as `partial_trace`.  It is
    the one-run case of run_allocations.
    """
    return run_allocations(obs, state, cover, [config])[0]
