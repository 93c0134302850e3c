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

A run is a generator of moment requests, and run_allocations advances a
cohort of runs in lockstep: each re-evaluation phase (real single rows, real
pair rows, virtual single rows, virtual joint pair rows) is one engine call
holding the rows of every live run, which fills the quadrature chunks that
one small run leaves mostly padding.  Again because a row's moments are the
same bits in any batch, every run gets the bits it gets alone.  The cohort
holds as many runs as fit COHORT_ROWS tally rows, so wide observables run
one at a time and memory stays that of one cohort.  run_allocation is the
one-run case.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .ledger import (
    EstimateReport,
    TallyLedger,
    clamped_variance,
    estimate,
    joint_mask,
    pair_contributions,
    term_contributions,
)
from .pauli import GroupCover, Observable, commutation_matrix
from .posterior import DEFAULT_CONFIG, MomentConfig, MomentEngine
from .simulator import (
    DEFAULT_MAX_QUBITS,
    StateVector,
    _bell_table,
    _group_actions,
    _pauli_actions,
    sample_double_shot,
    sample_group_shot,
)


@dataclass(frozen=True)
class MeasurementAction:
    """One executable choice: measure a cover group once, or one double shot."""

    kind: str
    group: int | None = None

    def __post_init__(self):
        if self.kind == "group":
            if self.group is None or self.group < 0:
                raise InvalidInputError("group action needs a group index")
        elif self.kind == "double":
            if self.group is not None:
                raise InvalidInputError("double action takes no group index")
        else:
            raise InvalidInputError(f"unknown action kind {self.kind!r}")

    @property
    def cost(self) -> int:
        """Effective-budget units consumed: 1 single-copy shot or 2 copies."""
        return 1 if self.kind == "group" else 2


@dataclass(frozen=True)
class AllocationConfig:
    budget: int
    enable_double: bool = True
    moments: MomentConfig = DEFAULT_CONFIG
    seed: int | None = None
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self):
        if self.budget < 1:
            raise InvalidInputError(f"budget must be >= 1, got {self.budget}")
        if self.max_qubits < 1:
            raise InvalidInputError(
                f"max_qubits must be >= 1, got {self.max_qubits}"
            )


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
# the real ledger and moments and the indices of the rows it builds, so the
# reference path and the fast loop build the same rows with the same
# arithmetic.


def _group_single_rows(ledger: TallyLedger, smom, terms):
    """Term rows after one expectation-valued single-scheme shot."""
    vs = ledger.singles[terms].copy()
    th = smom[terms, 0]
    vs[:, 0] += th
    vs[:, 1] += 1.0 - th
    return vs


def _double_single_rows(ledger: TallyLedger, smom, terms):
    """Term rows after half an expectation-valued double shot."""
    vs = ledger.singles[terms].copy()
    phi = smom[terms, 2]
    vs[:, 2] += 0.5 * phi
    vs[:, 3] += 0.5 * (1.0 - phi)
    return vs


def _both_pair_rows(ledger: TallyLedger, pmom, ks):
    """Pair rows after a group shot holding both terms: joint cells split."""
    vp = ledger.pairs[ks].copy()
    vp[:, 0:4] += pmom[ks, 0:4]
    return vp


def _iside_pair_rows(ledger: TallyLedger, smom, ks):
    """Pair rows after a group shot holding only the lower-index term."""
    vp = ledger.pairs[ks].copy()
    ti = smom[ledger.pair_i[ks], 0]
    vp[:, 8] += ti
    vp[:, 9] += 1.0 - ti
    return vp


def _jside_pair_rows(ledger: TallyLedger, smom, ks):
    """Pair rows after a group shot holding only the higher-index term."""
    vp = ledger.pairs[ks].copy()
    tj = smom[ledger.pair_j[ks], 0]
    vp[:, 10] += tj
    vp[:, 11] += 1.0 - tj
    return vp


def _double_pair_rows(ledger: TallyLedger, pmom, ks):
    """Pair rows after half an expectation-valued double shot."""
    vp = ledger.pairs[ks].copy()
    vp[:, 4:8] += 0.5 * pmom[ks, 4:8]
    return vp


def _full_moments(ledger: TallyLedger, engine: MomentEngine):
    smom = engine.single_block(ledger.singles)
    pmom = (
        engine.pair_block(ledger.pairs)
        if ledger.num_pairs
        else np.zeros((0, 11))
    )
    return smom, pmom


def virtual_update(
    ledger: TallyLedger,
    action: MeasurementAction,
    cover: GroupCover,
    engine: MomentEngine,
) -> TallyLedger:
    """Reference hypothetical-ledger builder; the input ledger is untouched.

    Counters are not advanced: the hypothetical ledger only serves variance
    prediction, and its fractional counts do not satisfy the integer-count
    identities that validate() checks on real ledgers.
    """
    smom, pmom = _full_moments(ledger, engine)
    out = ledger.copy()
    if action.kind == "group":
        terms, both, iside, jside = _partition(ledger, cover.groups[action.group])
        out.singles[terms] = _group_single_rows(ledger, smom, terms)
        out.pairs[both] = _both_pair_rows(ledger, pmom, both)
        out.pairs[iside] = _iside_pair_rows(ledger, smom, iside)
        out.pairs[jside] = _jside_pair_rows(ledger, smom, jside)
    else:
        out.singles = _double_single_rows(ledger, smom, np.arange(ledger.num_terms))
        out.pairs = _double_pair_rows(ledger, pmom, np.arange(ledger.num_pairs))
    return out


def _candidate_actions(
    cover: GroupCover, config: AllocationConfig, remaining: int
) -> list[MeasurementAction]:
    """Candidates in tie-break order: groups by index, then double."""
    actions = [
        MeasurementAction(kind="group", group=g)
        for g in range(cover.num_groups)
    ]
    if config.enable_double and remaining >= 2 and cover.num_groups > 0:
        actions.append(MeasurementAction(kind="double"))
    return actions


def choose_action(
    ledger: TallyLedger,
    obs: Observable,
    cover: GroupCover,
    config: AllocationConfig,
) -> MeasurementAction:
    """Reference chooser: rebuild every hypothetical ledger and estimate it.

    Ties resolve to the first candidate in order (groups by index, double
    last), so equal predictions prefer the cheaper action.  Moments follow
    config.moments.
    """
    remaining = config.budget - ledger.effective_shots
    if remaining < 1:
        raise InvalidInputError("no budget remaining")
    if cover.num_groups == 0:
        raise InvalidInputError("no measurable groups")
    engine = MomentEngine(config.moments)
    actions = _candidate_actions(cover, config, remaining)
    best, best_var = None, None
    for action in actions:
        hypo = virtual_update(ledger, action, cover, engine)
        var = estimate(hypo, obs, engine).variance
        if best_var is None or var < best_var:
            best, best_var = action, var
    return best


class _FastLoop:
    """Candidate evaluation that re-evaluates only the rows an action changed.

    `term` and `pair` hold variance contributions, one row per variant, one
    column per tally row: a term's real row, its row after a virtual group
    shot and after a virtual double shot; a pair's real row, after a group
    shot holding both terms, only term i or only term j, and after a double
    shot.  A group's virtual rows depend only on the row and on which of its
    terms the group holds, so the tables serve every candidate.  A candidate
    (groups by index, then double) is one row of `term_pick` and
    `pair_pick`, one pick of a variant per tally row, and its prediction is
    the sum of the picked contributions.  A real shot changes the rows its
    picks move off _REAL; only those are evaluated again, and of the group
    pair variants only those some candidate picks (`needed`).  Double-shot
    variants are kept only when double shots are enabled.

    The evaluations are generators of moment requests, which the caller
    serves (see _lockstep): start() for the fresh ledger, recorded() after a
    real shot.
    """

    def __init__(self, obs: Observable, cover: GroupCover, enable_double: bool):
        self.enable_double = enable_double
        self.coeff = obs.coefficients()
        self.ledger = led = TallyLedger(obs)
        p, q, g = led.num_terms, led.num_pairs, cover.num_groups
        self.smom = np.zeros((p, 3))
        self.pmom = np.zeros((q, 11))
        self.term = np.zeros((3, p))
        self.pair = np.zeros((5, q))
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
        self.variance = None

    def start(self):
        """Moment requests that evaluate every row of the fresh ledger."""
        return self._update(
            np.arange(self.ledger.num_terms), np.arange(self.ledger.num_pairs)
        )

    def recorded(self, outcome, action: MeasurementAction):
        """Fold a real shot into the ledger; moment requests for what it changed."""
        self.ledger.record(outcome)
        if action.kind == "group":
            return self._update(
                np.flatnonzero(self.term_pick[action.group]),
                np.flatnonzero(self.pair_pick[action.group]),
            )
        return self.start()

    def _update(self, terms: np.ndarray, ks: np.ndarray):
        """Re-evaluate term rows `terms`, pair rows `ks` and their variants.

        Four requests, in this order: real single rows, real pair rows,
        virtual single rows, jointly measured virtual pair rows.
        """
        led, coeff = self.ledger, self.coeff
        self.smom[terms] = yield "single", led.singles[terms]
        self.pmom[ks] = yield "pair", led.pairs[ks]
        self.term[_REAL, terms] = term_contributions(coeff[terms], self.smom[terms])
        joint = joint_mask(led.pairs[ks])
        self.pair[_REAL, ks] = self._pair_contributions(
            ks, joint, self.pmom[ks[joint]]
        )

        term_rows = {_GROUP: _group_single_rows(led, self.smom, terms)}
        pair_ks = {v: ks[self.needed[v, ks]] for v in (_BOTH, _ISIDE, _JSIDE)}
        pair_rows = {
            _BOTH: _both_pair_rows(led, self.pmom, pair_ks[_BOTH]),
            _ISIDE: _iside_pair_rows(led, self.smom, pair_ks[_ISIDE]),
            _JSIDE: _jside_pair_rows(led, self.smom, pair_ks[_JSIDE]),
        }
        if self.enable_double:
            term_rows[_TERM_DOUBLE] = _double_single_rows(led, self.smom, terms)
            pair_ks[_PAIR_DOUBLE] = ks
            pair_rows[_PAIR_DOUBLE] = _double_pair_rows(led, self.pmom, ks)

        # one request per kind; of the pair rows only the jointly measured
        # go in, since the others contribute exactly zero
        ms = yield "single", np.concatenate(list(term_rows.values()))
        for pos, v in enumerate(term_rows):
            rows = ms[pos * terms.size : (pos + 1) * terms.size]
            self.term[v, terms] = term_contributions(coeff[terms], rows)
        joint = {v: joint_mask(rows) for v, rows in pair_rows.items()}
        mp = yield "pair", np.concatenate(
            [rows[joint[v]] for v, rows in pair_rows.items()]
        )
        at = 0
        for v in pair_rows:
            n = int(np.count_nonzero(joint[v]))
            self.pair[v, pair_ks[v]] = self._pair_contributions(
                pair_ks[v], joint[v], mp[at : at + n]
            )
            at += n

        self.variance = clamped_variance(
            float(np.sum(self.term[_REAL]) + np.sum(self.pair[_REAL]))
        )

    def _pair_contributions(self, ks, joint, mom):
        """Contributions of pair rows `ks`; mom holds the rows ks[joint]."""
        led = self.ledger
        return pair_contributions(
            self.coeff, led.pair_i[ks], led.pair_j[ks], ks.size,
            np.flatnonzero(joint), mom,
        )

    def predict(self, actions: list[MeasurementAction]) -> list[float]:
        """Predicted variance per candidate: its picked contributions, summed."""
        total = (
            np.take_along_axis(self.term, self.term_pick, axis=0).sum(axis=1)
            + np.take_along_axis(self.pair, self.pair_pick, axis=0).sum(axis=1)
        )
        double = len(total) - 1
        return [
            clamped_variance(float(total[double if a.kind == "double" else a.group]))
            for a in actions
        ]


def _lockstep(runs: list, engine: MomentEngine) -> list:
    """Serve generators of moment requests in lockstep; return their values.

    A generator yields (kind, rows), kind "single" or "pair", and is sent
    the engine's moments of those rows.  Each round evaluates the pending
    rows of every live generator with one engine call per kind, so the rows
    of many runs share the quadrature chunks; a row's moments are the same
    bits in any batch, so each run is sent exactly what it would get alone.
    A generator leaves when it returns.
    """
    values = [None] * len(runs)
    pending = [(r, None) for r in range(len(runs))]
    while pending:
        requests = {"single": [], "pair": []}
        for r, moments in pending:
            try:
                kind, rows = runs[r].send(moments)
            except StopIteration as stop:
                values[r] = stop.value
            else:
                requests[kind].append((r, rows))
        pending = []
        for kind, batch in requests.items():
            if not batch:
                continue
            moments = _evaluate(engine, kind, [runs[r] for r, _ in batch],
                                [rows for _, rows in batch])
            at = 0
            for r, rows in batch:
                pending.append((r, moments[at : at + len(rows)]))
                at += len(rows)
    return values


def _evaluate(engine: MomentEngine, kind: str, runs: list, rows: list):
    """One engine call on the rows of several runs.

    On a failure each run's rows are evaluated alone, and the error is
    raised inside the first run whose rows fail, so that it leaves with
    that run's own partial trace.
    """
    block = engine.single_block if kind == "single" else engine.pair_block
    try:
        return block(rows[0] if len(rows) == 1 else np.concatenate(rows))
    except Exception:
        for run, own in zip(runs, rows):
            try:
                block(own)
            except Exception as err:
                run.throw(err)
        raise


# Tally rows (terms plus pairs) per lockstep cohort.  A cohort's rows fill
# the quadrature chunks that one run's small batches leave mostly empty; the
# cap keeps the memory of a cohort near that of one wide run.
COHORT_ROWS = 4096


def cohort_size(obs: Observable) -> int:
    """Repetitions run in lockstep: as many as fit COHORT_ROWS tally rows."""
    pairs = np.count_nonzero(np.triu(commutation_matrix(obs.strings()), 1))
    return max(1, COHORT_ROWS // max(1, obs.num_terms + pairs))


class _Shots:
    """Shot sampling for every run of one state.

    The state is fixed, so every term's signed permutation, each group's
    commutation check and the Bell table are made once, at first use, and
    serve every run.
    """

    def __init__(self, obs: Observable, state: StateVector, cover: GroupCover):
        self.obs, self.state, self.cover = obs, state, cover
        self.table = None
        self.actions = {}
        self.bell = None

    def sample(self, action: MeasurementAction, rng, max_qubits: int):
        """One shot of the action, drawn from rng."""
        if action.kind == "group":
            group = self.cover.groups[action.group]
            if action.group not in self.actions:
                if self.table is None:
                    self.table = _pauli_actions(self.obs.strings())
                self.actions[action.group] = _group_actions(
                    self.obs, group, self.table
                )
            return sample_group_shot(
                self.state, self.obs, group, rng,
                actions=self.actions[action.group],
            )
        if self.bell is None:
            self.bell = _bell_table(self.state, max_qubits)
        return sample_double_shot(
            self.state, self.obs, rng, max_qubits=max_qubits, bell=self.bell
        )


def _run(
    obs: Observable,
    cover: GroupCover,
    config: AllocationConfig,
    shots: _Shots,
):
    """One allocate-measure-update run as a generator of moment requests.

    Returns its AllocationResult.  On a failure the exception is re-raised
    with the run's partial trace attached as `partial_trace`.
    """
    rng = np.random.default_rng(config.seed)
    trace: list[TraceRow] = []
    try:
        loop = _FastLoop(obs, cover, config.enable_double)
        yield from loop.start()
        ledger = loop.ledger
        while cover.num_groups > 0:
            remaining = config.budget - ledger.effective_shots
            if remaining < 1:
                break
            actions = _candidate_actions(cover, config, remaining)
            predictions = loop.predict(actions)
            best = int(np.argmin(predictions))
            action = actions[best]
            outcome = shots.sample(action, rng, config.max_qubits)
            yield from loop.recorded(outcome, action)
            trace.append(
                TraceRow(
                    step=len(trace) + 1,
                    kind=action.kind,
                    group=action.group,
                    predicted_variance=predictions[best],
                    realized_variance=loop.variance,
                    m=ledger.shots_taken,
                    m_double=ledger.double_shots,
                )
            )
    except Exception as err:
        err.partial_trace = tuple(trace)
        raise

    report = estimate(ledger, obs, MomentEngine(config.moments))
    return AllocationResult(ledger=ledger, report=report, trace=tuple(trace))


def run_allocations(
    obs: Observable,
    state: StateVector,
    cover: GroupCover,
    configs: list[AllocationConfig],
) -> list[AllocationResult]:
    """One allocation run per config, in order, run in lockstep cohorts.

    The runs of a cohort (cohort_size of them) advance together: each
    re-evaluation phase is one engine call holding the rows of every live
    run, and a run leaves the cohort when its budget is spent.  Each run
    keeps its own loop, rng and trace, and gets the same bits as alone.
    The configs must share their moment settings, since every engine call
    serves several runs.
    """
    if not configs:
        return []
    if any(config.moments != configs[0].moments for config in configs):
        raise InvalidInputError("the configs of one call must share their moments")
    engine = MomentEngine(configs[0].moments)
    shots = _Shots(obs, state, cover)
    # a lone run needs no cohort, nor the pair scan that sizes one
    size = cohort_size(obs) if len(configs) > 1 else 1
    results = []
    for lo in range(0, len(configs), size):
        cohort = [
            _run(obs, cover, config, shots)
            for config in configs[lo : lo + size]
        ]
        results.extend(_lockstep(cohort, engine))
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
