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
    engine: MomentEngine | None = None,
) -> MeasurementAction:
    """Reference chooser: rebuild every hypothetical ledger and estimate it.

    Ties resolve to the first candidate in order (groups by index, double
    last), so equal predictions prefer the cheaper action.
    """
    remaining = config.budget - ledger.effective_shots
    if remaining < 1:
        raise InvalidInputError("no budget remaining")
    if cover.num_groups == 0:
        raise InvalidInputError("no measurable groups")
    if engine is None:
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
    """

    def __init__(
        self,
        obs: Observable,
        cover: GroupCover,
        engine: MomentEngine,
        enable_double: bool,
    ):
        self.engine = engine
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
        self._update(np.arange(p), np.arange(q))

    def record(self, outcome, action: MeasurementAction) -> None:
        """Fold a real shot into the ledger and re-evaluate what it changed."""
        self.ledger.record(outcome)
        if action.kind == "group":
            gi = self.groups[action.group]
            self._update(gi.members, gi.touched)
        else:
            self._update(
                np.arange(self.ledger.num_terms), np.arange(self.ledger.num_pairs)
            )

    def _update(self, terms: np.ndarray, ks: np.ndarray) -> None:
        """Re-evaluate term rows `terms`, pair rows `ks` and their variants."""
        led, engine, coeff = self.ledger, self.engine, self.coeff
        self.smom[terms] = engine.single_block(led.singles[terms])
        self.pmom[ks] = engine.pair_block(led.pairs[ks])
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

        # one engine call per kind; of the pair rows only the jointly
        # measured go in, since the others contribute exactly zero
        ms = engine.single_block(np.concatenate(list(term_rows.values())))
        for pos, v in enumerate(term_rows):
            rows = ms[pos * terms.size : (pos + 1) * terms.size]
            self.term[v][terms] = term_contributions(coeff[terms], rows)
        joint = {v: joint_mask(rows) for v, rows in pair_rows.items()}
        mp = engine.pair_block(
            np.concatenate([rows[joint[v]] for v, rows in pair_rows.items()])
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


def run_allocation(
    obs: Observable,
    state: StateVector,
    cover: GroupCover,
    config: AllocationConfig,
    engine: MomentEngine | None = None,
) -> AllocationResult:
    """Run the full allocate-measure-update loop until the budget is spent.

    Returns the final ledger, its estimate report, and one trace row per
    executed action.  On a sampling or numerical failure the exception is
    re-raised with the partial trace attached as `partial_trace`.
    """
    if engine is None:
        engine = MomentEngine(config.moments)
    rng = np.random.default_rng(config.seed)
    trace: list[TraceRow] = []
    # the state is fixed for the run, so its Bell table is built once, at
    # the first two-copy shot
    bell = None

    try:
        loop = _FastLoop(obs, cover, engine, config.enable_double)
        ledger = loop.ledger
        step = 0
        while cover.num_groups > 0:
            remaining = config.budget - ledger.effective_shots
            if remaining < 1:
                break
            actions = _candidate_actions(cover, config, remaining)
            predictions = loop.predict(actions)
            best = int(np.argmin(predictions))
            action = actions[best]
            if action.kind == "group":
                outcome = sample_group_shot(
                    state, obs, cover.groups[action.group], rng
                )
            else:
                if bell is None:
                    bell = _bell_table(state, config.max_qubits)
                outcome = sample_double_shot(
                    state, obs, rng, max_qubits=config.max_qubits, bell=bell
                )
            loop.record(outcome, action)
            step += 1
            trace.append(
                TraceRow(
                    step=step,
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

    report = estimate(ledger, obs, engine)
    return AllocationResult(ledger=ledger, report=report, trace=tuple(trace))
