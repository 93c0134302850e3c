"""Exact dense statevector oracle: ground states, expectations, seeded sampling.

H acts through one table with a row per distinct X part of its terms
(_hamiltonian_action).  The ground state is a dense eigh of that H below
8 qubits and Lanczos on the table from 8 qubits, which never forms the
2^n x 2^n matrix.  A degenerate ground space gets a deterministic
representative, which may differ from the one eigh would pick.

All stochastic paths draw from an explicitly passed numpy Generator; the
project-wide RNG is numpy's PCG64 (see README). Basis-state indices put
qubit 1 in the most significant bit, matching the kron order of pauli_matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InvalidInputError,
    NumericalError,
    ResourceLimitError,
    _require_integer,
)
from .pauli import Observable, PauliString, _group_indices, _term_indices, commutes

# dense work cap: 2^10 amplitudes, and a 4^10-entry Bell table for two-copy shots
DEFAULT_MAX_QUBITS = 10

# From this width on the ground state comes from _lanczos, below it from a
# dense eigensolve.  With one BLAS thread the dense solve is still faster at
# 7 qubits (5 against 9 ms on a random 1x7 lattice), Lanczos at 8 (11 against
# 26 ms on a random 2x4 lattice), and the dense solve grows as 8^n.
_LANCZOS_MIN_QUBITS = 8
_LANCZOS_TOL = 1e-14

# Amplitude magnitudes within this relative distance of the largest count as
# tied for the phase pivot: far above rounding, so that the pivot of a state
# whose amplitudes tie does not depend on the solver's last bits.
_PIVOT_TIE = 1e-9

_NORM_TOL = 1e-10
_PROJECTION_NORM_TOL = 1e-9

_SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


class StateVector:
    """Immutable normalized state of `width` qubits."""

    __slots__ = ("width", "amplitudes")

    def __init__(self, amplitudes, width: int | None = None):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise InvalidInputError("amplitude vector length must be a power of 2")
        inferred = amps.size.bit_length() - 1
        if width is None:
            width = inferred
        else:
            _require_integer("width", width, 0)
        if width != inferred:
            raise InvalidInputError(
                f"width {width} inconsistent with {amps.size} amplitudes"
            )
        if inferred == 0:
            raise InvalidInputError("need at least one qubit")
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > _NORM_TOL:
            raise InvalidInputError(f"state not normalized (norm {nrm!r})")
        amps = amps.copy()
        amps.flags.writeable = False
        object.__setattr__(self, "width", width)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")


@dataclass(frozen=True)
class ShotOutcome:
    """One measurement shot: kind is 'group' or 'double', values maps term index -> +-1."""

    kind: str
    values: dict[int, int]


def _check_cap(width: int, max_qubits: int):
    if width > max_qubits:
        raise ResourceLimitError(
            f"{width} qubits exceeds the dense cap of {max_qubits}; "
            "raise max_qubits explicitly if you mean it"
        )


def _pauli_actions(strings: Sequence[PauliString]) -> tuple[np.ndarray, np.ndarray]:
    """Signed permutations of many strings, one row each.

    (P_k v)_b = factor[k, b] * v[src[k, b]].  Uses P = i^{n_Y} X^x Z^z: the
    X part permutes basis states by XOR with the x mask, the Z part gives
    the sign (-1)^(src.z), and factor is phase * signs with phase = 1j**n_Y.
    """
    x = np.array([s.x_mask for s in strings], dtype=np.int64)
    z = np.array([s.z_mask for s in strings], dtype=np.int64)
    width = strings[0].width
    src = np.arange(1 << width, dtype=np.int64) ^ x[:, None]
    signs = np.where(np.bitwise_count(src & z[:, None]) & 1, -1.0, 1.0)
    phases = np.array([1j**k for k in range(width + 1)])[np.bitwise_count(x & z)]
    return src, phases[:, None] * signs


def apply_pauli(s: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Return P|v> without forming the dense matrix."""
    src, factor = _pauli_actions([s])
    return factor[0] * amplitudes[src[0]]


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense 2^q x 2^q matrix of the string (kron over letters, qubit 1 first)."""
    m = np.array([[1.0 + 0j]])
    for ch in s.letters:
        m = np.kron(m, _SINGLE_QUBIT[ch])
    return m


def _hamiltonian_action(obs: Observable) -> tuple[np.ndarray, np.ndarray]:
    """H's action, one row per distinct x mask: (H v)_b = sum_g diag[g, b] v[src[g, b]].

    Row g holds the terms whose X part is x_g, so src[g] = b ^ x_g, and
    diag[g] sums their c * factor in term order.  Row 0 is x = 0 and also
    holds the identity offset.
    """
    strings = obs.strings()
    x = np.array([s.x_mask for s in strings] + [0], dtype=np.int64)
    masks, row = np.unique(x, return_inverse=True)
    diag = np.zeros((masks.size, 1 << obs.width), dtype=complex)
    if strings:
        _, factor = _pauli_actions(strings)
        np.add.at(diag, row[:-1], obs.coefficients()[:, None] * factor)
    diag[0] += obs.identity_offset
    return np.arange(1 << obs.width, dtype=np.int64) ^ masks[:, None], diag


def observable_matrix(obs: Observable, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Dense H = sum_i c_i P_i + offset: one scatter of its action table."""
    _check_cap(obs.width, max_qubits)
    src, diag = _hamiltonian_action(obs)
    dim = 1 << obs.width
    h = np.zeros((dim, dim), dtype=complex)
    h[np.arange(dim), src] = diag
    return h


def _lanczos(obs: Observable) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of H by Lanczos with full reorthogonalisation.

    H acts through _hamiltonian_action, so no 2^n x 2^n matrix is formed.
    The start vector is a fixed-seed complex Gaussian: the uniform vector
    can miss the ground state (it is orthogonal to it under +sum X_i).  The
    iteration stops when the Ritz pair's residual beta_k |s_k| falls below
    _LANCZOS_TOL times sum |c_i| + |offset|, a bound on the norm of H; as
    |s_k| <= 1, that includes breakdown, where the Krylov space is invariant.
    """
    src, diag = _hamiltonian_action(obs)
    dim = src.shape[1]
    scale = float(np.abs(obs.coefficients()).sum()) + abs(obs.identity_offset)
    tol = _LANCZOS_TOL * scale
    rng = np.random.default_rng(0)
    q = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    basis = np.empty((min(dim, 64), dim), dtype=complex)
    basis[0] = q / np.linalg.norm(q)
    alpha, beta = [], []
    for k in range(dim):
        w = (diag * basis[k][src]).sum(axis=0)
        alpha.append(float(np.vdot(basis[k], w).real))
        for _ in range(2):  # Gram-Schmidt twice keeps the basis orthonormal
            w -= basis[: k + 1].T @ (basis[: k + 1] @ w.conj()).conj()
        b = float(np.linalg.norm(w))
        t = np.diag(alpha) + np.diag(beta, 1) + np.diag(beta, -1)
        vals, vecs = np.linalg.eigh(t)
        if b * abs(vecs[-1, 0]) <= tol:
            return float(vals[0]), vecs[:, 0] @ basis[: k + 1]
        if k + 1 == basis.shape[0]:
            grown = np.empty((min(dim, 2 * basis.shape[0]), dim), dtype=complex)
            grown[: k + 1] = basis
            basis = grown
        basis[k + 1] = w / b
        beta.append(b)
    raise NumericalError(f"Lanczos did not converge in {dim} steps")


def _ground(obs: Observable, max_qubits: int) -> tuple[float, StateVector]:
    """Lowest eigenvalue and its eigenvector.

    Below _LANCZOS_MIN_QUBITS qubits from one dense eigensolve of
    observable_matrix, from that width on by _lanczos.  The phase convention
    makes the largest-magnitude amplitude real positive, the last one where
    magnitudes tie within _PIVOT_TIE, so a degenerate ground space still
    yields a deterministic (if method-dependent) representative, and a
    nondegenerate one the same ray with the same phase from either method.
    """
    _check_cap(obs.width, max_qubits)
    if obs.width < _LANCZOS_MIN_QUBITS:
        vals, vecs = np.linalg.eigh(observable_matrix(obs, max_qubits))
        energy, v = vals[0], vecs[:, 0]
    else:
        energy, v = _lanczos(obs)
    mag = np.abs(v)
    k = int(np.flatnonzero(mag >= mag.max() * (1.0 - _PIVOT_TIE))[-1])
    pivot = v[k]
    v = v * (pivot.conjugate() / abs(pivot))
    return float(energy), StateVector(v / np.linalg.norm(v), obs.width)


def ground_state(obs: Observable, max_qubits: int = DEFAULT_MAX_QUBITS) -> StateVector:
    """Eigenvector of the smallest eigenvalue, with a fixed global phase."""
    return _ground(obs, max_qubits)[1]


def ground_energy(obs: Observable, max_qubits: int = DEFAULT_MAX_QUBITS) -> float:
    return _ground(obs, max_qubits)[0]


def expectation(state: StateVector, s: PauliString) -> float:
    """<state| P |state>, real by Hermiticity."""
    if s.width != state.width:
        raise InvalidInputError(
            f"string width {s.width} vs state width {state.width}"
        )
    return float(np.real(np.vdot(state.amplitudes, apply_pauli(s, state.amplitudes))))


def exact_theta(state: StateVector, s: PauliString) -> float:
    """Probability of the +1 outcome: (1 + <P>)/2, clipped to [0, 1]."""
    return min(1.0, max(0.0, 0.5 * (1.0 + expectation(state, s))))


def exact_mean(obs: Observable, state: StateVector) -> float:
    """Exact <O> on the state."""
    total = obs.identity_offset
    for t in obs.terms:
        total += t.coefficient * expectation(state, t.string)
    return total


def exact_pair_thetas(
    state: StateVector, a: PauliString, b: PauliString
) -> np.ndarray:
    """Joint outcome probabilities (++, +-, -+, --) for commuting a, b."""
    if not commutes(a, b):
        raise InvalidInputError("joint distribution needs commuting strings")
    v = state.amplitudes
    va = apply_pauli(a, v)
    vb = apply_pauli(b, v)
    vab = apply_pauli(a, vb)
    ea = np.real(np.vdot(v, va))
    eb = np.real(np.vdot(v, vb))
    eab = np.real(np.vdot(v, vab))
    out = np.array(
        [
            0.25 * (1 + ea + eb + eab),
            0.25 * (1 + ea - eb - eab),
            0.25 * (1 - ea + eb - eab),
            0.25 * (1 - ea - eb + eab),
        ]
    )
    return np.clip(out, 0.0, 1.0)


def _draw_outcome(theta: float, rng: np.random.Generator) -> int:
    """+1 with probability theta (clipped to [0, 1]), from one rng.random() draw."""
    theta = min(1.0, max(0.0, theta))
    return 1 if rng.random() < theta else -1


def _measure_in_place(
    v: np.ndarray, s: PauliString, src: np.ndarray, factor: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, int]:
    """Projectively measure s, whose action is (P v)_b = factor[b] v[src[b]]."""
    pv = factor * v[src]
    outcome = _draw_outcome(0.5 * (1.0 + float(np.real(np.vdot(v, pv)))), rng)
    v = 0.5 * (v + outcome * pv)
    nrm = np.linalg.norm(v)
    if nrm < _PROJECTION_NORM_TOL:
        raise NumericalError(
            f"projection onto outcome {outcome:+d} of {s.letters} annihilated the state"
        )
    return v / nrm, outcome


def sample_group_shot(
    state: StateVector,
    obs: Observable,
    group: Sequence[int],
    rng: np.random.Generator,
    table: tuple[np.ndarray, np.ndarray] | None = None,
) -> ShotOutcome:
    """One simultaneous shot of a commuting group, by sequential projection.

    The joint outcome distribution is order-independent because the strings
    commute; measurement order is ascending term index for reproducibility.

    table is _pauli_actions(obs.strings()), for a caller that samples many
    shots; the group's rows are read from it, and its indices are checked
    (pauli._term_indices) but its commutation is left to the caller (see
    pauli._group_indices).  Without it the whole group is checked and its
    rows are built here.  The draws are the same either way.
    """
    if obs.width != state.width:
        raise InvalidInputError("observable width does not match the state")
    if table is None:
        indices = _group_indices(obs, group)
        src, factor = _pauli_actions([obs.terms[i].string for i in indices])
        rows = range(len(indices))
    else:
        indices = rows = _term_indices(obs, group)
        src, factor = table
        shape = (obs.num_terms, 1 << state.width)
        if src.shape != shape or factor.shape != shape:
            raise InvalidInputError(
                f"action table of shape {src.shape} does not fit {shape[0]} "
                f"terms on {state.width} qubits"
            )
    v = state.amplitudes.copy()
    values = {}
    for k, idx in zip(rows, indices):
        v, values[idx] = _measure_in_place(
            v, obs.terms[idx].string, src[k], factor[k], rng
        )
    return ShotOutcome(kind="group", values=values)


def _bell_table(state: StateVector, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Bell-basis distribution of state (x) state over the 4^n Paulis X^x Z^z.

    Entry [x, z] is p(x, z) = |psi^T X^x Z^z psi|^2 / 2^n.  Row x is the
    Walsh-Hadamard transform over b of psi_b psi_{b^x}, so the table costs
    O(4^n n) time and 4^n floats.
    """
    _check_cap(state.width, max_qubits)
    psi = state.amplitudes
    dim = psi.size
    idx = np.arange(dim)
    f = psi[idx[:, None] ^ idx[None, :]] * psi[None, :]
    h = 1
    while h < dim:
        pairs = f.reshape(dim, dim // (2 * h), 2, h)
        low = pairs[:, :, 0, :].copy()
        high = pairs[:, :, 1, :]
        pairs[:, :, 0, :] += high
        np.subtract(low, high, out=high)
        h *= 2
    return (f.real**2 + f.imag**2) / dim


def sample_double_shot(
    state: StateVector,
    obs: Observable,
    rng: np.random.Generator,
    max_qubits: int = DEFAULT_MAX_QUBITS,
    bell: np.ndarray | None = None,
) -> ShotOutcome:
    """One shot of the doubled scheme: measure every P_i (x) P_i on state (x) state.

    The doubled operators commute pairwise regardless of the originals, so all
    p terms are read out in a single two-copy shot.  All of them are diagonal
    in the Bell basis: Bell outcome sigma = X^x Z^z has probability
    _bell_table(state)[x, z] and gives P_i (x) P_i the value
    (-1)^(omega(P_i, sigma) + n_Y(P_i)), omega the symplectic product
    (Montanaro, arXiv:1707.04012).  Terms are read in ascending index order,
    one rng.random() each, from their law conditioned on the earlier outcomes;
    this is the law, and the draw sequence, of projecting state (x) state onto
    each outcome in turn, without the 2^(2n)-amplitude doubled state.

    bell is the state's table, _bell_table(state), for a caller that samples
    many shots of one state; it is built here when not given.  The draws are
    the same either way.
    """
    _check_cap(state.width, max_qubits)
    if obs.width != state.width:
        raise InvalidInputError("observable width does not match the state")
    n = state.width
    if bell is None:
        bell = _bell_table(state, max_qubits)
    elif bell.shape != (1 << n, 1 << n):
        raise InvalidInputError(
            f"Bell table of shape {bell.shape} does not fit a {n}-qubit state"
        )
    probs = bell.ravel()
    # key (x << n) | z; omega(P, sigma) = |x_P & z| + |z_P & x| = |key & (z_P << n | x_P)|
    keys = np.arange(probs.size, dtype=np.int64)
    values = {}
    for i, t in enumerate(obs.terms):
        s = t.string
        n_y = (s.x_mask & s.z_mask).bit_count()
        plus = (np.bitwise_count(keys & ((s.z_mask << n) | s.x_mask)) & 1) == (n_y & 1)
        total = probs.sum()
        theta = probs.sum(where=plus) / total
        outcome = _draw_outcome(theta, rng)
        # the projection's norm test: its squared norm is the outcome's probability
        if (theta if outcome == 1 else 1.0 - theta) < _PROJECTION_NORM_TOL**2:
            raise NumericalError(
                f"two-copy outcome {outcome:+d} of {s.letters} has no Bell support"
            )
        kept = plus if outcome == 1 else ~plus
        keys, probs = keys[kept], probs[kept]
        values[i] = outcome
    return ShotOutcome(kind="double", values=values)


def load_state_file(path, width: int | None = None) -> StateVector:
    """Read amplitudes from text lines "re im"; blank lines and # comments skipped."""
    amps = []
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise InvalidInputError(
                    f"{path}: line {lineno}: expected 're im', got {raw!r}"
                )
            try:
                amps.append(complex(float(fields[0]), float(fields[1])))
            except ValueError:
                raise InvalidInputError(
                    f"{path}: line {lineno}: unreadable amplitude {raw!r}"
                ) from None
    arr = np.asarray(amps, dtype=complex)
    nrm = np.linalg.norm(arr)
    if arr.size and abs(nrm - 1.0) > 1e-6:
        raise InvalidInputError(
            f"{path}: amplitudes have norm {nrm:.8f}, expected 1 within 1e-6"
        )
    if arr.size:
        arr = arr / nrm
    return StateVector(arr, width)
