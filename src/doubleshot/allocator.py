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
its real row and of each virtual row a candidate can give it, and after an
executed action evaluates again only the rows that action changed: a group
shot's members and the pairs touching them, or every row after a double
shot.  A candidate's prediction is the real contributions with its virtual
ones in their place.  The moment engine gives a row the same bits in any
batch, so the predictions are bit-identical to rebuilding each hypothetical
ledger and calling estimate() on it, which is what virtual_update and
choose_action do and what the tests cross-check.

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
from .pauli import GroupCover, Observable
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


class _GroupIndex:
    """Static index of which tallies one group's virtual shot touches.

    Pairs with both terms in the group are `both`; pairs with only the lower
    or only the higher term in it are `iside` and `jside`.
    """

    def __init__(self, ledger: TallyLedger, members):
        self.members = np.asarray(sorted(members), dtype=np.intp)
        mset = set(members)
        k_both, k_i, k_j = [], [], []
        seen = set()
        for t in members:
            for k in ledger.pairs_touching[t].tolist():
                if k in seen:
                    continue
                seen.add(k)
                i, j = ledger.pair_keys[k]
                if i in mset and j in mset:
                    k_both.append(k)
                elif i in mset:
                    k_i.append(k)
                else:
                    k_j.append(k)
        self.both = np.asarray(k_both, dtype=np.intp)
        self.iside = np.asarray(k_i, dtype=np.intp)
        self.jside = np.asarray(k_j, dtype=np.intp)
        self.touched = np.concatenate([self.both, self.iside, self.jside])

    def virtual_rows(self, ledger: TallyLedger, smom, pmom):
        """Hypothetical single and pair rows after one shot of this group."""
        vs = _group_single_rows(ledger, smom, self.members)
        vp = np.concatenate([
            _both_pair_rows(ledger, pmom, self.both),
            _iside_pair_rows(ledger, smom, self.iside),
            _jside_pair_rows(ledger, smom, self.jside),
        ])
        return vs, vp


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


def _double_virtual_rows(ledger: TallyLedger, smom, pmom):
    """Hypothetical rows after half an expectation-valued double shot."""
    return (
        _double_single_rows(ledger, smom, np.arange(ledger.num_terms)),
        _double_pair_rows(ledger, pmom, np.arange(ledger.num_pairs)),
    )


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
        gi = _GroupIndex(ledger, cover.groups[action.group])
        vs, vp = gi.virtual_rows(ledger, smom, pmom)
        out.singles[gi.members] = vs
        if gi.touched.size:
            out.pairs[gi.touched] = vp
    else:
        vs, vp = _double_virtual_rows(ledger, smom, pmom)
        out.singles = vs
        out.pairs = vp
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

    Every term keeps three variance contributions: from its real row, from
    its row after a virtual group shot, and from its row after a virtual
    double shot.  Every pair keeps five: real, after a group shot holding
    both terms, only term i, only term j, and after a double shot.  A group's
    virtual rows depend only on the row and on which of its terms the group
    holds, not on the group, so these tables serve every candidate.  A real
    group shot changes its members' rows and every pair row touching them;
    a real double shot changes every row.  After an action only those rows'
    moments and contributions are evaluated again.  Double-shot variants are
    kept only when double shots are enabled.

    The evaluations are generators of moment requests, which the caller
    serves (see _lockstep): start() for the fresh ledger, recorded() after a
    real shot.
    """

    def __init__(self, obs: Observable, cover: GroupCover, enable_double: bool):
        self.enable_double = enable_double
        self.coeff = obs.coefficients()
        self.ledger = led = TallyLedger(obs)
        self.groups = [_GroupIndex(led, g) for g in cover.groups]
        p, q = led.num_terms, led.num_pairs
        self.smom = np.zeros((p, 3))
        self.pmom = np.zeros((q, 11))
        self.term = {v: np.zeros(p) for v in ("real", "group", "double")}
        self.pair = {
            v: np.zeros(q) for v in ("real", "both", "iside", "jside", "double")
        }
        # pair variants some group can produce; the others are never read
        self.needed = {v: np.zeros(q, dtype=bool) for v in ("both", "iside", "jside")}
        for gi in self.groups:
            for v in self.needed:
                self.needed[v][getattr(gi, v)] = True
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
            gi = self.groups[action.group]
            return self._update(gi.members, gi.touched)
        return self.start()

    def _update(self, terms: np.ndarray, ks: np.ndarray):
        """Re-evaluate term rows `terms`, pair rows `ks` and their variants.

        Four requests, in this order: real single rows, real pair rows,
        virtual single rows, jointly measured virtual pair rows.
        """
        led, coeff = self.ledger, self.coeff
        self.smom[terms] = yield "single", led.singles[terms]
        self.pmom[ks] = yield "pair", led.pairs[ks]
        self.term["real"][terms] = term_contributions(coeff[terms], self.smom[terms])
        joint = joint_mask(led.pairs[ks])
        self.pair["real"][ks] = self._pair_contributions(
            ks, joint, self.pmom[ks[joint]]
        )

        term_rows = {"group": _group_single_rows(led, self.smom, terms)}
        pair_ks = {v: ks[self.needed[v][ks]] for v in self.needed}
        pair_rows = {
            "both": _both_pair_rows(led, self.pmom, pair_ks["both"]),
            "iside": _iside_pair_rows(led, self.smom, pair_ks["iside"]),
            "jside": _jside_pair_rows(led, self.smom, pair_ks["jside"]),
        }
        if self.enable_double:
            term_rows["double"] = _double_single_rows(led, self.smom, terms)
            pair_ks["double"] = ks
            pair_rows["double"] = _double_pair_rows(led, self.pmom, ks)

        # one request per kind; of the pair rows only the jointly measured
        # go in, since the others contribute exactly zero
        ms = yield "single", np.concatenate(list(term_rows.values()))
        for pos, v in enumerate(term_rows):
            rows = ms[pos * terms.size : (pos + 1) * terms.size]
            self.term[v][terms] = term_contributions(coeff[terms], rows)
        joint = {v: joint_mask(rows) for v, rows in pair_rows.items()}
        mp = yield "pair", np.concatenate(
            [rows[joint[v]] for v, rows in pair_rows.items()]
        )
        at = 0
        for v in pair_rows:
            n = int(np.count_nonzero(joint[v]))
            self.pair[v][pair_ks[v]] = self._pair_contributions(
                pair_ks[v], joint[v], mp[at : at + n]
            )
            at += n

        self.variance = clamped_variance(
            float(np.sum(self.term["real"]) + np.sum(self.pair["real"]))
        )

    def _pair_contributions(self, ks, joint, mom):
        """Contributions of pair rows `ks`; mom holds the rows ks[joint]."""
        led = self.ledger
        return pair_contributions(
            self.coeff, led.pair_i[ks], led.pair_j[ks], ks.size,
            np.flatnonzero(joint), mom,
        )

    def predict(self, actions: list[MeasurementAction]) -> list[float]:
        """Predicted variance per candidate, assembled from the tables."""
        out = []
        for action in actions:
            if action.kind == "group":
                gi = self.groups[action.group]
                tc = self.term["real"].copy()
                tc[gi.members] = self.term["group"][gi.members]
                pc = self.pair["real"].copy()
                for v in ("both", "iside", "jside"):
                    ks = getattr(gi, v)
                    pc[ks] = self.pair[v][ks]
            else:
                tc, pc = self.term["double"], self.pair["double"]
            out.append(clamped_variance(float(np.sum(tc) + np.sum(pc))))
        return out


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
    led = TallyLedger(obs)
    return max(1, COHORT_ROWS // max(1, led.num_terms + led.num_pairs))


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
