"""Built-in observables and the perturbed-Ising lattice generator.

Two entry points:

* :func:`load_builtin` / :func:`builtin_text` expose the observable files
  bundled under ``data/`` byte-verbatim (three perturbed-Ising instances and
  the five-term toy observable used in the walk-through examples).
* :class:`IsingSpec` / :func:`build_ising` generate a perturbed transverse
  Ising observable on a periodic rectangular lattice from explicit or random
  coefficients, laid out exactly like the bundled tables.

Lattice conventions (shared by the bundled files and the generator):

* Vertices live at (x, y) with x in 1..nx, y in 1..ny and map to qubit index
  ``(x - 1) * ny + (y - 1)``.
* Undirected nearest-neighbour edges with periodic wrap are enumerated
  vertex-major, probing +x, -x, +y, -y from each vertex; the first occurrence
  of an edge wins and self-loops (from wrap on a length-1 axis) are skipped.
* The observable lists, in order: per-vertex X, Y, Z terms, then per-edge
  two-site terms in row-major letter order (XX, XY, XZ, YX, ..., ZZ).

Each vertex carries a Z field plus a 3-vector of local perturbations; each
edge carries a ZZ coupling plus a symmetric 3x3 block of two-site
perturbations.  The Z/ZZ entries are added to the matching perturbation
entries, so the emitted file has one merged coefficient per distinct string.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .errors import InvalidInputError, _require_integer, _require_real
from .pauli import Observable, observable_from_pairs, parse_observable

__all__ = [
    "BUILTIN_NAMES",
    "IsingSpec",
    "builtin_text",
    "build_ising",
    "lattice_edges",
    "load_builtin",
    "random_ising_spec",
]

_BUILTIN_FILES = {
    "ising-1x2": "ising_1x2.txt",
    "ising-2x2": "ising_2x2.txt",
    "ising-2x3": "ising_2x3.txt",
    "toy-fig1": "toy_fig1.txt",
}

BUILTIN_NAMES = tuple(_BUILTIN_FILES)

_AXES = "XYZ"

# Documented (non-physical) defaults for random coefficient draws: the strong
# Z/ZZ entries are uniform on [-0.15, 1.15], the perturbative entries uniform
# on [-0.2, 0.2]; draws are rounded to 3 decimals to match the bundled tables.
RANDOM_MAIN_RANGE = (-0.15, 1.15)
RANDOM_PERTURBATION_RANGE = (-0.2, 0.2)

_SYMMETRY_TOL = 1e-12


def builtin_text(name: str) -> str:
    """Return the bundled observable file for *name*, byte-verbatim."""
    try:
        filename = _BUILTIN_FILES[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_FILES))
        raise InvalidInputError(
            f"unknown builtin {name!r} (known: {known})"
        ) from None
    return (
        resources.files("doubleshot.data").joinpath(filename).read_text("utf-8")
    )


def load_builtin(name: str) -> Observable:
    """Parse the bundled observable registered under *name*."""
    return parse_observable(builtin_text(name))


def lattice_edges(nx: int, ny: int) -> tuple[tuple[int, int], ...]:
    """Periodic nearest-neighbour edges in the canonical enumeration order.

    Vertex-major; from each vertex the +x, -x, +y, -y neighbours are probed
    in that order, recording each undirected edge the first time it appears
    and skipping self-loops.
    """
    _require_integer("nx", nx, 1)
    _require_integer("ny", ny, 1)
    seen: set[tuple[int, int]] = set()
    edges: list[tuple[int, int]] = []
    for x in range(nx):
        for y in range(ny):
            here = x * ny + y
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                there = ((x + dx) % nx) * ny + (y + dy) % ny
                if there == here:
                    continue
                edge = (min(here, there), max(here, there))
                if edge not in seen:
                    seen.add(edge)
                    edges.append(edge)
    return tuple(edges)


def _as_float_tuple(values, what: str, count: int) -> tuple[float, ...]:
    out = tuple(_require_real(f"{what} entry", v) for v in values)
    if len(out) != count:
        raise InvalidInputError(f"{what} must have {count} entries, got {len(out)}")
    return out


def _json_array(value, what: str) -> list:
    """value itself, if it was read from a JSON array."""
    if not isinstance(value, list):
        raise InvalidInputError(f"{what} must be a JSON array, got {value!r}")
    return value


@dataclass(frozen=True)
class IsingSpec:
    """Explicit coefficients for the perturbed-Ising generator.

    ``field_z`` and ``coupling`` are the strong Z / ZZ entries (one per
    vertex / edge); ``local_fields`` holds a 3-vector (X, Y, Z) per vertex
    and ``tensor_blocks`` a symmetric 3x3 matrix per edge, flattened
    row-major.  Edges follow :func:`lattice_edges` order.
    """

    nx: int
    ny: int
    field_z: tuple[float, ...]
    local_fields: tuple[tuple[float, float, float], ...]
    coupling: tuple[float, ...]
    tensor_blocks: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        # lattice_edges refuses sizes that are not integers >= 1
        edges = lattice_edges(self.nx, self.ny)
        q = self.num_vertices
        object.__setattr__(
            self, "field_z", _as_float_tuple(self.field_z, "field_z", q)
        )
        object.__setattr__(
            self,
            "local_fields",
            tuple(
                _as_float_tuple(row, f"local_fields[{i}]", 3)
                for i, row in enumerate(self.local_fields)
            ),
        )
        if len(self.local_fields) != q:
            raise InvalidInputError(
                f"local_fields must have {q} rows, got {len(self.local_fields)}"
            )
        object.__setattr__(
            self, "coupling", _as_float_tuple(self.coupling, "coupling", len(edges))
        )
        blocks = tuple(
            _as_float_tuple(row, f"tensor_blocks[{i}]", 9)
            for i, row in enumerate(self.tensor_blocks)
        )
        if len(blocks) != len(edges):
            raise InvalidInputError(
                f"tensor_blocks must have {len(edges)} rows, got {len(blocks)}"
            )
        for i, block in enumerate(blocks):
            for a in range(3):
                for b in range(a + 1, 3):
                    if abs(block[3 * a + b] - block[3 * b + a]) > _SYMMETRY_TOL:
                        raise InvalidInputError(
                            f"tensor_blocks[{i}] is not symmetric: "
                            f"[{a},{b}] = {block[3 * a + b]!r} vs "
                            f"[{b},{a}] = {block[3 * b + a]!r}"
                        )
        object.__setattr__(self, "tensor_blocks", blocks)

    @property
    def num_vertices(self) -> int:
        return self.nx * self.ny

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return lattice_edges(self.nx, self.ny)

    def to_json(self) -> str:
        blocks = [[b[3 * a : 3 * a + 3] for a in range(3)] for b in self.tensor_blocks]
        payload = {**vars(self), "tensor_blocks": blocks}
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "IsingSpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInputError(f"unreadable lattice spec: {exc}") from None
        if not isinstance(payload, dict):
            raise InvalidInputError("lattice spec must be a JSON object")
        try:
            nx = payload["nx"]
            ny = payload["ny"]
            field_z = payload["field_z"]
            local_fields = payload["local_fields"]
            coupling = payload["coupling"]
            tensor_blocks = payload["tensor_blocks"]
        except KeyError as exc:
            raise InvalidInputError(f"lattice spec is missing key {exc}") from None
        flat_blocks = []
        for i, rows in enumerate(_json_array(tensor_blocks, "tensor_blocks")):
            _json_array(rows, f"tensor_blocks[{i}]")
            if len(rows) == 3 and all(
                isinstance(r, (list, tuple)) and len(r) == 3 for r in rows
            ):
                flat_blocks.append(tuple(v for r in rows for v in r))
            else:
                flat_blocks.append(tuple(rows))
        return cls(
            nx=nx,
            ny=ny,
            field_z=tuple(_json_array(field_z, "field_z")),
            local_fields=tuple(
                tuple(_json_array(row, f"local_fields[{i}]"))
                for i, row in enumerate(_json_array(local_fields, "local_fields"))
            ),
            coupling=tuple(_json_array(coupling, "coupling")),
            tensor_blocks=tuple(flat_blocks),
        )


def random_ising_spec(nx: int, ny: int, rng: np.random.Generator) -> IsingSpec:
    """Draw a random IsingSpec with the documented defaults.

    Draw order (all uniform, rounded to 3 decimals): per-vertex Z fields,
    per-vertex local 3-vectors, per-edge ZZ couplings, per-edge upper
    triangles of the symmetric tensor blocks (row-major: xx, xy, xz, yy,
    yz, zz).
    """
    edges = lattice_edges(nx, ny)
    q = nx * ny

    def draw(lo_hi) -> float:
        lo, hi = lo_hi
        return round(float(rng.uniform(lo, hi)), 3)

    field_z = tuple(draw(RANDOM_MAIN_RANGE) for _ in range(q))
    local_fields = tuple(
        tuple(draw(RANDOM_PERTURBATION_RANGE) for _ in range(3)) for _ in range(q)
    )
    coupling = tuple(draw(RANDOM_MAIN_RANGE) for _ in range(len(edges)))
    blocks = []
    for _ in edges:
        block = [0.0] * 9
        for a in range(3):
            for b in range(a, 3):
                v = draw(RANDOM_PERTURBATION_RANGE)
                block[3 * a + b] = v
                block[3 * b + a] = v
        blocks.append(tuple(block))
    return IsingSpec(
        nx=nx,
        ny=ny,
        field_z=field_z,
        local_fields=local_fields,
        coupling=coupling,
        tensor_blocks=tuple(blocks),
    )


def _site_letters(width: int, placements: dict[int, str]) -> str:
    letters = ["I"] * width
    for pos, letter in placements.items():
        letters[pos] = letter
    return "".join(letters)


def build_ising(spec: IsingSpec) -> Observable:
    """Assemble the observable for *spec* in the canonical table layout."""
    q = spec.num_vertices
    pairs: list[tuple[float, str]] = []
    for v in range(q):
        bx, by, bz = spec.local_fields[v]
        pairs.append((bx, _site_letters(q, {v: "X"})))
        pairs.append((by, _site_letters(q, {v: "Y"})))
        pairs.append((bz + spec.field_z[v], _site_letters(q, {v: "Z"})))
    for e, (i, k) in enumerate(spec.edges):
        block = spec.tensor_blocks[e]
        for a in range(3):
            for b in range(3):
                coeff = block[3 * a + b]
                if a == 2 and b == 2:
                    coeff += spec.coupling[e]
                pairs.append((coeff, _site_letters(q, {i: _AXES[a], k: _AXES[b]})))
    return observable_from_pairs(pairs, width=q)
