"""Exact dense statevector oracle: ground states, expectations, seeded sampling.

All stochastic paths draw from an explicitly passed numpy Generator; the
project-wide RNG is numpy's PCG64 (see README). Basis-state indices put
qubit 1 in the most significant bit, matching the kron order of pauli_matrix.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError, ResourceLimitError
from .pauli import Observable, PauliString, commutes

# dense work cap: 2^10 amplitudes, and a 4^10-entry Bell table for two-copy shots
DEFAULT_MAX_QUBITS = 10

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
        elif width != inferred:
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


def _pauli_action(s: PauliString):
    """(source indices, signs, phase) with (P v)_b = phase * signs[b] * v[src[b]].

    Uses P = i^{n_Y} X^x Z^z: the Z part contributes (-1)^(b.z), the X part
    permutes basis states by XOR with the x mask.
    """
    idx = np.arange(1 << s.width, dtype=np.int64)
    src = idx ^ s.x_mask
    signs = 1.0 - 2.0 * (np.bitwise_count(src & s.z_mask) & 1)
    phase = 1j ** (s.x_mask & s.z_mask).bit_count()
    return src, signs, phase


def apply_pauli(s: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Return P|v> without forming the dense matrix."""
    src, signs, phase = _pauli_action(s)
    return phase * signs * amplitudes[src]


def pauli_matrix(s: PauliString) -> np.ndarray:
    """Dense 2^q x 2^q matrix of the string (kron over letters, qubit 1 first)."""
    m = np.array([[1.0 + 0j]])
    for ch in s.letters:
        m = np.kron(m, _SINGLE_QUBIT[ch])
    return m


def observable_matrix(obs: Observable, max_qubits: int = DEFAULT_MAX_QUBITS) -> np.ndarray:
    """Dense H = sum_i c_i P_i + offset; each P_i fills one signed permutation."""
    _check_cap(obs.width, max_qubits)
    dim = 1 << obs.width
    rows = np.arange(dim)
    h = np.zeros((dim, dim), dtype=complex)
    for t in obs.terms:
        src, signs, phase = _pauli_action(t.string)
        h[rows, src] += t.coefficient * phase * signs
    h[rows, rows] += obs.identity_offset
    return h


def _ground(obs: Observable, max_qubits: int) -> tuple[float, StateVector]:
    """Lowest eigenvalue and its eigenvector, from one dense eigensolve.

    The phase convention makes the largest-magnitude amplitude real positive,
    so degenerate ground spaces still yield a deterministic (if basis-dependent)
    representative.
    """
    h = observable_matrix(obs, max_qubits)
    vals, vecs = np.linalg.eigh(h)
    v = vecs[:, 0]
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    v = v * (pivot.conjugate() / abs(pivot))
    return float(vals[0]), StateVector(v / np.linalg.norm(v), obs.width)


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
    """Probability of the +1 outcome: (1 + <P>)/2."""
    return 0.5 * (1.0 + expectation(state, s))


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


def _measure_in_place(v: np.ndarray, s: PauliString, rng: np.random.Generator) -> tuple[np.ndarray, int]:
    """Projectively measure s on v; returns (projected state, outcome)."""
    pv = apply_pauli(s, v)
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
) -> ShotOutcome:
    """One simultaneous shot of a commuting group, by sequential projection.

    The joint outcome distribution is order-independent because the strings
    commute; measurement order is ascending term index for reproducibility.
    """
    indices = sorted(group)
    if not indices:
        raise InvalidInputError("empty group")
    strings = [obs.terms[i].string for i in indices]
    for s in strings:
        if s.width != state.width:
            raise InvalidInputError("group strings do not match the state width")
    for i in range(len(strings)):
        for j in range(i + 1, len(strings)):
            if not commutes(strings[i], strings[j]):
                raise InvalidInputError(
                    f"group is not commuting: {strings[i].letters} vs "
                    f"{strings[j].letters}"
                )
    v = state.amplitudes.copy()
    values = {}
    for idx, s in zip(indices, strings):
        v, outcome = _measure_in_place(v, s, rng)
        values[idx] = outcome
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
