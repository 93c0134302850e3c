"""Pauli strings, observables, and commuting-group covers.

Conventions used throughout the package:
  * a Pauli string is written left to right, qubit 1 first ("ZI" acts with Z
    on qubit 1);
  * in integer basis-state indices, qubit 1 is the most significant bit;
  * an observable file is UTF-8 text of lines "<coefficient> <letters>" with
    full-line ``#`` comments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputError, ObservableParseError, _is_integer

PAULI_LETTERS = "IXYZ"

# symplectic encoding of one letter: (x bit, z bit)
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
# the same, indexed by the letter's ASCII code
_BYTE_BITS = np.zeros((128, 2), dtype=np.int64)
_BYTE_BITS[[ord(ch) for ch in _LETTER_BITS]] = list(_LETTER_BITS.values())

# merged coefficients smaller than this are dropped as cancelled
COEFFICIENT_DROP_TOL = 1e-12


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators."""

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise InvalidInputError("empty Pauli string")
        bad = sorted(set(self.letters) - set(PAULI_LETTERS))
        if bad:
            raise InvalidInputError(
                f"invalid Pauli letters {bad} in {self.letters!r}"
            )

    @property
    def width(self) -> int:
        return len(self.letters)

    @cached_property
    def x_mask(self) -> int:
        """X-part bit-vector packed into an int, qubit 1 = most significant bit."""
        m = 0
        for ch in self.letters:
            m = (m << 1) | _LETTER_BITS[ch][0]
        return m

    @cached_property
    def z_mask(self) -> int:
        m = 0
        for ch in self.letters:
            m = (m << 1) | _LETTER_BITS[ch][1]
        return m

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    def __str__(self) -> str:
        return self.letters


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff a and b commute (symplectic inner product is even)."""
    if a.width != b.width:
        raise InvalidInputError(
            f"width mismatch: {a.letters!r} vs {b.letters!r}"
        )
    parity = (a.x_mask & b.z_mask).bit_count() ^ (a.z_mask & b.x_mask).bit_count()
    return parity % 2 == 0


@dataclass(frozen=True)
class PauliTerm:
    coefficient: float
    string: PauliString


@dataclass(frozen=True)
class Observable:
    """Weighted Pauli sum  sum_i c_i P_i  plus a scalar identity offset."""

    width: int
    terms: tuple[PauliTerm, ...]
    identity_offset: float = 0.0

    def __post_init__(self):
        seen = set()
        for t in self.terms:
            if t.string.width != self.width:
                raise InvalidInputError(
                    f"term {t.string.letters!r} has width {t.string.width}, "
                    f"observable has width {self.width}"
                )
            if t.string.is_identity:
                raise InvalidInputError(
                    "identity term must live in identity_offset"
                )
            if not math.isfinite(t.coefficient) or t.coefficient == 0.0:
                raise InvalidInputError(
                    f"bad coefficient {t.coefficient!r} for {t.string.letters!r}"
                )
            if t.string.letters in seen:
                raise InvalidInputError(f"duplicate term {t.string.letters!r}")
            seen.add(t.string.letters)
        if not math.isfinite(self.identity_offset):
            raise InvalidInputError("non-finite identity offset")

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def coefficients(self) -> np.ndarray:
        return np.array([t.coefficient for t in self.terms])

    def strings(self) -> list[PauliString]:
        return [t.string for t in self.terms]


def observable_from_pairs(
    pairs: Iterable[tuple[float, str]], width: int | None = None
) -> Observable:
    """Build a normalized Observable from (coefficient, letters) pairs.

    Duplicates are merged by addition in first-occurrence order, identity
    terms are folded into the offset, and merged coefficients below
    COEFFICIENT_DROP_TOL are dropped.
    """
    merged: dict[str, float] = {}
    order: list[str] = []
    offset = 0.0
    for coeff, letters in pairs:
        s = PauliString(letters)
        if width is None:
            width = s.width
        elif s.width != width:
            raise InvalidInputError(
                f"inconsistent widths: expected {width}, got {s.width} "
                f"for {letters!r}"
            )
        if not math.isfinite(coeff):
            raise InvalidInputError(f"non-finite coefficient for {letters!r}")
        if s.is_identity:
            offset += coeff
            continue
        if letters not in merged:
            merged[letters] = 0.0
            order.append(letters)
        merged[letters] += coeff
    if width is None:
        raise InvalidInputError("no terms given")
    terms = tuple(
        PauliTerm(merged[l], PauliString(l))
        for l in order
        if abs(merged[l]) >= COEFFICIENT_DROP_TOL
    )
    return Observable(width=width, terms=terms, identity_offset=offset)


def parse_observable(text: str) -> Observable:
    """Parse observable-file content into a normalized Observable."""
    pairs = []
    width = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ObservableParseError(
                f"expected '<coefficient> <letters>', got {raw!r}", lineno
            )
        try:
            coeff = float(fields[0])
        except ValueError:
            raise ObservableParseError(
                f"unreadable coefficient {fields[0]!r}", lineno
            ) from None
        if not math.isfinite(coeff):
            raise ObservableParseError(
                f"non-finite coefficient {fields[0]!r}", lineno
            )
        letters = fields[1].upper()
        try:
            s = PauliString(letters)
        except InvalidInputError as exc:
            raise ObservableParseError(str(exc), lineno) from None
        if width is None:
            width = s.width
        elif s.width != width:
            raise ObservableParseError(
                f"string width {s.width} differs from earlier width {width}",
                lineno,
            )
        pairs.append((coeff, letters))
    if width is None:
        raise ObservableParseError("no data lines found")
    return observable_from_pairs(pairs, width)


def serialize_observable(obs: Observable) -> str:
    """Inverse of parse_observable on normalized observables."""
    lines = []
    if obs.identity_offset != 0.0:
        lines.append(f"{obs.identity_offset!r} {'I' * obs.width}")
    for t in obs.terms:
        lines.append(f"{t.coefficient!r} {t.string.letters}")
    return "\n".join(lines) + "\n"


def load_observable(path) -> Observable:
    with open(path, encoding="utf-8") as f:
        return parse_observable(f.read())


@dataclass(frozen=True)
class GroupCover:
    """Overlapping cover of term indices by commuting cliques."""

    groups: tuple[tuple[int, ...], ...]

    @property
    def num_groups(self) -> int:
        return len(self.groups)


def commutation_matrix(strings: Sequence[PauliString]) -> np.ndarray:
    """(p, p) bool matrix: entry (i, j) says strings i and j commute.

    The symplectic parity of every pair at once, from 0/1 x- and z-bit
    matrices of the letters, so it holds at any width.
    """
    if not strings:
        return np.ones((0, 0), dtype=bool)
    width = strings[0].width
    if any(s.width != width for s in strings):
        raise InvalidInputError("strings of different widths")
    codes = np.frombuffer(
        "".join(s.letters for s in strings).encode("ascii"), dtype=np.uint8
    ).reshape(len(strings), width)
    x, z = _BYTE_BITS[codes].transpose(2, 0, 1)
    return (x @ z.T + z @ x.T) & 1 == 0


def _term_indices(obs: Observable, group: Sequence[int]) -> tuple[int, ...]:
    """A group's term indices, in ascending order.

    Refuses a group that is empty or names a term by anything but a distinct
    integer index (a bool is not one) in 0..p-1.
    """
    indices = tuple(group)
    if not indices:
        raise InvalidInputError("empty group")
    if not all(map(_is_integer, indices)):
        raise InvalidInputError(
            f"group {indices!r} holds an index that is not an integer"
        )
    indices = tuple(sorted(indices))
    p = obs.num_terms
    if len(set(indices)) < len(indices) or indices[0] < 0 or indices[-1] >= p:
        raise InvalidInputError(
            f"group {indices!r} needs distinct indices in 0..{p - 1}"
        )
    return indices


def _group_indices(obs: Observable, group: Sequence[int]) -> tuple[int, ...]:
    """A measurable group's term indices, in ascending order.

    Refuses a group that _term_indices refuses, or whose terms do not
    pairwise commute; that refusal names the first clashing pair, lower
    index first.
    """
    indices = _term_indices(obs, group)
    strings = [obs.terms[i].string for i in indices]
    clash = np.argwhere(np.triu(~commutation_matrix(strings), 1))
    if clash.size:
        i, j = clash[0]
        raise InvalidInputError(
            f"group is not commuting: {strings[i].letters} vs {strings[j].letters}"
        )
    return indices


def build_group_cover(obs: Observable) -> GroupCover:
    """Greedy clique cover of the commutation graph.

    Terms are ranked by descending |coefficient| (ties by index). Each pass
    seeds a clique with the first uncovered term and extends it with every
    compatible term, covered or not, in rank order until maximal. Groups may
    overlap.
    """
    p = obs.num_terms
    coeffs = obs.coefficients()
    rank = sorted(range(p), key=lambda i: (-abs(coeffs[i]), i))
    commuting = commutation_matrix(obs.strings())

    covered = [False] * p
    groups: list[tuple[int, ...]] = []
    for seed in rank:
        if covered[seed]:
            continue
        members = [seed]
        allowed = commuting[seed].copy()
        for t in rank:
            if t == seed or not allowed[t]:
                continue
            members.append(t)
            allowed &= commuting[t]
        group = tuple(sorted(members))
        groups.append(group)
        for i in group:
            covered[i] = True
    return GroupCover(groups=tuple(groups))
