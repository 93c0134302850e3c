"""Experiment drivers: seeded repetition sweeps and their CSV/JSON artifacts.

Every driver consumes an :class:`ExperimentSpec`, runs seeded allocation
repetitions in cohorts that step together as arrays (repetition ``r``
always uses the derived seed ``(base_seed, r)`` and gives the same bits as
run alone, so results are independent of execution order and of how many
repetitions run), and returns rows ready for :func:`write_csv`.

CSV files produced here are plain ``csv`` dialect with ``#``-prefixed comment
lines above the header (column documentation) and, for drivers with summary
statistics, below the data rows.  :func:`read_csv` parses them back without
loss, so every artifact round-trips through this module.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from io import StringIO
from pathlib import Path

import csv

import numpy as np

# run_allocation is not called here, but perfbench's tracer wraps it by
# this module's name, so it stays importable from it
from .allocator import (  # noqa: F401
    AllocationConfig,
    AllocationResult,
    TraceRow,
    run_allocation,
    run_allocations,
)
from .errors import InvalidInputError, _is_integer, _require_bool, _require_integer
from .hamiltonians import load_builtin
from .pauli import GroupCover, Observable, build_group_cover, load_observable
from .posterior import DEFAULT_CONFIG, MomentEngine, phi_of_theta
from .simulator import (
    DEFAULT_MAX_QUBITS,
    StateVector,
    _check_cap,
    exact_mean,
    exact_theta,
    ground_energy,
    ground_state,
    load_state_file,
)

__all__ = [
    "CsvDocument",
    "ExperimentSpec",
    "calibrate_rows",
    "curve_rows",
    "double_usage_rows",
    "read_csv",
    "reference_report",
    "resolve_observable",
    "resolve_state",
    "run_repetitions",
    "write_csv",
]

GROUND_STATE_SOURCE = "ground-state"


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one experiment command.

    ``observable_source`` is a file path or ``builtin:<name>`` with name in
    BUILTIN_NAMES; ``state_source`` is ``ground-state`` or an amplitude-file
    path.  ``budgets`` are effective-shot caps, strictly increasing, stored
    as ``int``; a float budget is taken only if its value is whole.
    """

    observable_source: str
    budgets: tuple[int, ...]
    repetitions: int
    state_source: str = GROUND_STATE_SOURCE
    enable_double: bool = True
    base_seed: int = 0
    max_qubits: int = DEFAULT_MAX_QUBITS

    def __post_init__(self):
        for name in ("observable_source", "state_source"):
            if not isinstance(getattr(self, name), str):
                raise InvalidInputError(
                    f"{name} must be a string, got {getattr(self, name)!r}"
                )
        try:
            budgets = tuple(self.budgets)
        except TypeError:
            raise InvalidInputError(
                f"budgets must be a sequence of integers, got {self.budgets!r}"
            ) from None
        for b in budgets:
            if not (_is_integer(b) or isinstance(b, float) and b.is_integer()):
                raise InvalidInputError(f"budget must be an integer, got {b!r}")
        object.__setattr__(self, "budgets", tuple(int(b) for b in budgets))
        _require_integer("repetitions", self.repetitions, 1)
        if not self.budgets:
            raise InvalidInputError("at least one budget is required")
        if any(b < 1 for b in self.budgets):
            raise InvalidInputError(f"budgets must be >= 1, got {self.budgets}")
        if any(b >= c for b, c in zip(self.budgets, self.budgets[1:])):
            raise InvalidInputError(
                f"budgets must be strictly increasing, got {self.budgets}"
            )
        _require_integer("max_qubits", self.max_qubits, 1)
        _require_integer("base_seed", self.base_seed, 0)
        _require_bool("enable_double", self.enable_double)


def resolve_observable(source: str) -> Observable:
    """Load an observable from ``builtin:<name>`` or a file path."""
    if source.startswith("builtin:"):
        return load_builtin(source[len("builtin:") :])
    return load_observable(source)


def resolve_state(
    source: str, obs: Observable, max_qubits: int = DEFAULT_MAX_QUBITS
) -> StateVector:
    """Resolve ``ground-state`` (of *obs*) or an amplitude file.

    Either way *obs* wider than *max_qubits* raises ResourceLimitError
    before any state is built or read.
    """
    _check_cap(obs.width, max_qubits)
    if source == GROUND_STATE_SOURCE:
        return ground_state(obs, max_qubits)
    return load_state_file(source, width=obs.width)


# perfbench/workloads.py and tests/test_benchmark_contract.py import this
# name; it can go once the benchmark calls build_group_cover (ROADMAP item 1).
cover_for = build_group_cover


def rep_seed(base_seed: int, rep: int) -> tuple[int, int]:
    """Derived seed for repetition *rep*: entropy pair fed to the PCG64 rng."""
    return (int(base_seed), int(rep))


def run_repetitions(
    obs: Observable,
    state: StateVector,
    cover: GroupCover,
    budget: int,
    repetitions: int,
    enable_double: bool,
    base_seed: int,
    moments: MomentEngine,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> list[AllocationResult]:
    """Run seeded repetitions, ordered by repetition index.

    Repetition r is run_allocation seeded rep_seed(base_seed, r).  The
    repetitions step together in cohorts (allocator.run_allocations), whose
    size the observable sets, so memory is bounded by one cohort.  A step
    of a cohort is one array program: one gather predicts every run's
    candidates, each run draws its shot from its own rng, and each moment
    evaluation is one call of the engine *moments* for the whole cohort.
    The engine holds no state and gives a row the same bits in any batch,
    so each repetition gives the same bits as run alone.
    """
    configs = [
        AllocationConfig(
            budget=budget,
            enable_double=enable_double,
            seed=rep_seed(base_seed, rep),
            max_qubits=max_qubits,
        )
        for rep in range(repetitions)
    ]
    return run_allocations(obs, state, cover, configs, moments)


# ---------------------------------------------------------------------------
# CSV document model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CsvDocument:
    """A CSV file with comment banners: lossless read/write round-trip."""

    fieldnames: tuple[str, ...]
    rows: tuple[dict, ...]
    top_comments: tuple[str, ...] = ()
    bottom_comments: tuple[str, ...] = ()

    def comment_value(self, key: str) -> str:
        """Value of a ``key = value`` bottom-comment entry."""
        for line in self.bottom_comments + self.top_comments:
            parts = line.split("=", 1)
            if len(parts) == 2 and parts[0].strip() == key:
                return parts[1].strip()
        raise KeyError(key)


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if value is None:
        return ""
    return str(value)


def write_csv(doc: CsvDocument, path) -> None:
    out = StringIO()
    for line in doc.top_comments:
        out.write(f"# {line}\n")
    writer = csv.DictWriter(out, fieldnames=list(doc.fieldnames))
    writer.writeheader()
    for row in doc.rows:
        writer.writerow({k: _format_cell(v) for k, v in row.items()})
    for line in doc.bottom_comments:
        out.write(f"# {line}\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def read_csv(path) -> CsvDocument:
    top: list[str] = []
    bottom: list[str] = []
    data_lines: list[str] = []
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        if raw.startswith("#"):
            stripped = raw[1:].strip()
            (top if not data_lines else bottom).append(stripped)
        elif raw.strip():
            data_lines.append(raw)
    if not data_lines:
        raise InvalidInputError(f"no CSV header found in {path}")
    reader = csv.DictReader(StringIO("\n".join(data_lines)))
    rows = tuple(dict(r) for r in reader)
    return CsvDocument(
        fieldnames=tuple(reader.fieldnames or ()),
        rows=rows,
        top_comments=tuple(top),
        bottom_comments=tuple(bottom),
    )


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _problem(spec: ExperimentSpec):
    """The spec's observable, state, group cover and exact mean."""
    obs = resolve_observable(spec.observable_source)
    state = resolve_state(spec.state_source, obs, spec.max_qubits)
    return obs, state, build_group_cover(obs), exact_mean(obs, state)


def _repetitions(spec: ExperimentSpec, problem, budget: int, enable_double: bool):
    """The spec's seeded repetitions of *problem* (from _problem) at *budget*."""
    obs, state, cover, _ = problem
    return run_repetitions(
        obs,
        state,
        cover,
        budget,
        spec.repetitions,
        enable_double,
        spec.base_seed,
        DEFAULT_CONFIG,
        spec.max_qubits,
    )


def _provenance(spec: ExperimentSpec, *middle: str) -> tuple[str, ...]:
    """Provenance comment lines; *middle* goes between state and base_seed."""
    return (
        f"observable = {spec.observable_source}",
        f"state = {spec.state_source}",
        *middle,
        f"base_seed = {spec.base_seed}",
        f"enable_double = {spec.enable_double}",
    )


def curve_rows(spec: ExperimentSpec) -> CsvDocument:
    """Scaled-variance statistics per budget for both allocation arms.

    For every budget and each arm (double scheme allowed / suppressed; when
    *spec* itself disables the double scheme both arms are the same runs,
    which run once), repetitions with paired seeds produce mean and spread
    of the rescaled claimed variance m_eff * variance, the repetition
    indices of the best and worst runs, and the mean rescaled true squared
    error against the exact reference.
    """
    problem = _problem(spec)
    truth = problem[3]
    arms = (("double_on", spec.enable_double), ("double_off", False))
    stats = {}
    rows = []
    for arm_name, arm_double in arms:
        for budget in spec.budgets:
            key = (budget, arm_double)
            if key not in stats:
                results = _repetitions(spec, problem, budget, arm_double)
                scaled = np.array(
                    [r.report.m_eff * r.report.variance for r in results]
                )
                sq_err = np.array(
                    [r.report.m_eff * (r.report.mean - truth) ** 2 for r in results]
                )
                stats[key] = {
                    "repetitions": spec.repetitions,
                    "mean_scaled_variance": float(scaled.mean()),
                    "rms_scaled_variance": float(
                        np.sqrt(((scaled - scaled.mean()) ** 2).mean())
                    ),
                    "best_rep": int(np.argmin(scaled)),
                    "worst_rep": int(np.argmax(scaled)),
                    "mean_scaled_sq_error": float(sq_err.mean()),
                }
            rows.append({"budget": budget, "arm": arm_name, **stats[key]})
    return CsvDocument(
        fieldnames=tuple(rows[0]),
        rows=tuple(rows),
        top_comments=(
            "scaled-variance curve: one row per (budget, arm)",
            "budget: effective-shot cap m_eff for the allocation run",
            "arm: double_on allows pair-copy shots, double_off suppresses them",
            "mean/rms_scaled_variance: mean and spread over repetitions of"
            " m_eff * claimed variance",
            "best_rep/worst_rep: repetition index with smallest/largest"
            " scaled claimed variance",
            "mean_scaled_sq_error: mean over repetitions of m_eff *"
            " (estimate - exact mean)^2",
            *_provenance(spec),
        ),
    )


def calibrate_rows(spec: ExperimentSpec) -> CsvDocument:
    """Per-repetition z-scores against the exact mean at the largest budget.

    z = (estimate - exact mean) / sqrt(claimed variance).  Rows with zero
    claimed variance but a nonzero residual are flagged and excluded from
    the summary statistics in the bottom comments.
    """
    budget = spec.budgets[-1]
    problem = _problem(spec)
    truth = problem[3]
    results = _repetitions(spec, problem, budget, spec.enable_double)
    rows = []
    z_values = []
    flagged_count = 0
    for rep, result in enumerate(results):
        report = result.report
        residual = report.mean - truth
        flagged = False
        if report.variance > 0.0:
            z = residual / math.sqrt(report.variance)
        elif residual == 0.0:
            z = 0.0
        else:
            z = math.nan
            flagged = True
            flagged_count += 1
        if not flagged:
            z_values.append(z)
        rows.append(
            {
                "rep": rep,
                "m": report.m,
                "m_double": report.m_double,
                "estimate": report.mean,
                "claimed_variance": report.variance,
                "z_score": z,
                "flagged": int(flagged),
            }
        )
    z_arr = np.array(z_values) if z_values else np.zeros(0)
    mean_z = float(z_arr.mean()) if z_arr.size else math.nan
    rms_z = float(np.sqrt((z_arr**2).mean())) if z_arr.size else math.nan
    return CsvDocument(
        fieldnames=tuple(rows[0]),
        rows=tuple(rows),
        top_comments=(
            "calibration: one z-score per repetition at a fixed budget",
            "z_score = (estimate - exact mean) / sqrt(claimed variance)",
            "flagged = 1 marks zero claimed variance with nonzero residual",
            *_provenance(spec, f"budget = {budget}"),
            f"exact_mean = {truth!r}",
        ),
        bottom_comments=(
            f"summary_mean_z = {mean_z!r}",
            f"summary_rms_z = {rms_z!r}",
            f"flagged_rows = {flagged_count}",
        ),
    )


def fit_slope(
    m_values: np.ndarray, m_double_values: np.ndarray
) -> tuple[float, float]:
    """Least-squares line m_double ~ slope * m + intercept."""
    if m_values.size < 2:
        raise InvalidInputError("need at least 2 points for a slope fit")
    slope, intercept = np.polyfit(
        np.asarray(m_values, dtype=float),
        np.asarray(m_double_values, dtype=float),
        1,
    )
    return float(slope), float(intercept)


def double_usage_rows(
    spec: ExperimentSpec,
    fit_min: int = 20,
    fit_max: int | None = None,
) -> CsvDocument:
    """Pair-copy usage m_double as a function of m, averaged over repetitions.

    Runs the largest budget in *spec* once per repetition, averages the
    per-step (m, m_double) trajectories over repetitions (up to the largest
    m reached by every repetition), and fits a least-squares slope over the
    window fit_min < m <= fit_max (fit_max defaults to the common maximum).
    """
    results = _repetitions(spec, _problem(spec), spec.budgets[-1], spec.enable_double)
    # Every action advances m by exactly 1, so step k of any trace has
    # m = k + 1 and trajectories align by index.
    common_m = min(len(r.trace) for r in results)
    md = np.array(
        [[r.trace[k].m_double for k in range(common_m)] for r in results],
        dtype=float,
    )
    md_mean = md.mean(axis=0)
    m_values = np.arange(1, common_m + 1)
    window_top = common_m if fit_max is None else min(fit_max, common_m)
    window = (m_values > fit_min) & (m_values <= window_top)
    if window.sum() >= 2:
        slope, intercept = fit_slope(m_values[window], md_mean[window])
    else:
        slope, intercept = math.nan, math.nan
    rows = tuple(
        {
            "m": int(m_values[k]),
            "mean_m_double": float(md_mean[k]),
            "repetitions": len(results),
        }
        for k in range(common_m)
    )
    return CsvDocument(
        fieldnames=("m", "mean_m_double", "repetitions"),
        rows=rows,
        top_comments=(
            "pair-copy usage: mean m_double after each total-shot count m",
            "m: total shots taken (every action advances m by 1)",
            "mean_m_double: average over repetitions of pair-copy shots"
            " among the first m",
            *_provenance(spec, f"budget = {spec.budgets[-1]}"),
        ),
        bottom_comments=(
            f"fit_slope = {slope!r}",
            f"fit_intercept = {intercept!r}",
            f"fit_window_min_exclusive = {fit_min}",
            f"fit_window_max_inclusive = {window_top}",
        ),
    )


def trace_document(result: AllocationResult, spec_note: str = "") -> CsvDocument:
    """Per-action trace of one allocation run as a CSV document."""
    rows = tuple(
        dict(vars(t), group="" if t.group is None else t.group)
        for t in result.trace
    )
    top = (
        "allocation trace: one row per executed action",
        "kind: 'group' (one-copy commuting-group shot) or 'double'"
        " (two-copy pair shot)",
        "group: cover index of the measured group (empty for double shots)",
        "predicted_variance: claimed variance the chooser expected after"
        " the action",
        "realized_variance: claimed variance after recording the outcome",
    )
    if spec_note:
        top = top + (spec_note,)
    return CsvDocument(
        fieldnames=tuple(f.name for f in fields(TraceRow)),
        rows=rows,
        top_comments=top,
    )


def reference_report(
    obs: Observable,
    state: StateVector,
    state_source: str = GROUND_STATE_SOURCE,
    max_qubits: int = DEFAULT_MAX_QUBITS,
) -> dict:
    """Exact quantities for calibration: mean, per-term probabilities, energy.

    When *state_source* is the ground state, its exact mean is the ground
    energy, so no second eigensolve runs.
    """
    terms = []
    for index, term in enumerate(obs.terms):
        theta = exact_theta(state, term.string)
        terms.append(
            {
                "index": index,
                "string": str(term.string),
                "coefficient": term.coefficient,
                "theta": theta,
                "phi": phi_of_theta(theta),
            }
        )
    mean = exact_mean(obs, state)
    if state_source == GROUND_STATE_SOURCE:
        energy = mean
    else:
        energy = ground_energy(obs, max_qubits)
    return {
        "exact_mean": mean,
        "ground_state_energy": energy,
        "identity_offset": obs.identity_offset,
        "num_terms": obs.num_terms,
        "state_source": state_source,
        "terms": terms,
    }


def write_json(payload: dict, path) -> None:
    Path(path).write_text(
        json.dumps(payload, indent=2, allow_nan=True) + "\n", encoding="utf-8"
    )


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
