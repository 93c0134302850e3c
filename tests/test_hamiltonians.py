"""Tests for the bundled observables and the perturbed-Ising generator."""

import hashlib
import json

import numpy as np
import pytest

from doubleshot import cli
from doubleshot.errors import InvalidInputError
from doubleshot.hamiltonians import (
    BUILTIN_NAMES,
    IsingSpec,
    build_ising,
    builtin_text,
    lattice_edges,
    load_builtin,
    random_ising_spec,
)
from doubleshot.pauli import parse_observable
from doubleshot.simulator import StateVector

# Byte-level pins of the bundled files: any reformatting or renumbering of
# the shipped coefficient tables is an API break.
_SHA256 = {
    "ising-1x2": "60a404cd27ce3b0486bb683af30f29cd0a05c9fd6921f9875f37422fe48fc990",
    "ising-2x2": "ef74cdf84e1edc79334e0aab619bee849162940da70928e05561fef53edc6fd7",
    "ising-2x3": "832ffc925cc36f167c7fface645eca70bd90a3c89f2b659ecc0afca6118b945b",
    "toy-fig1": "0065116bec146367b471cea5ae7a0994641a71bbf18f14ec7f7fea86492c31d3",
}
_NUM_TERMS = {"ising-1x2": 15, "ising-2x2": 48, "ising-2x3": 99, "toy-fig1": 5}


class TestBuiltins:
    def test_names(self):
        assert BUILTIN_NAMES == ("ising-1x2", "ising-2x2", "ising-2x3", "toy-fig1")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_text_is_byte_stable(self, name):
        digest = hashlib.sha256(builtin_text(name).encode()).hexdigest()
        assert digest == _SHA256[name]

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_term_counts(self, name):
        assert load_builtin(name).num_terms == _NUM_TERMS[name]

    def test_1x2_contains_known_lines(self):
        text = builtin_text("ising-1x2")
        assert "1.028 ZI" in text
        assert "0.416 ZZ" in text

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            builtin_text("ising-9x9")

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_parses_with_zero_offset(self, name):
        obs = load_builtin(name)
        assert obs.identity_offset == 0.0


class TestLatticeEdges:
    def test_single_vertex_has_no_edges(self):
        assert lattice_edges(1, 1) == ()

    def test_1x2_single_edge(self):
        assert lattice_edges(1, 2) == ((0, 1),)

    def test_2x2_edges(self):
        # Vertex-major probing (+x, -x, +y, -y), first occurrence wins:
        # vertex 0 meets 2 (x-wrap) and 1 (y-wrap); vertex 1 meets 3; then
        # vertex 2 meets 3.
        assert lattice_edges(2, 2) == ((0, 2), (0, 1), (1, 3), (2, 3))

    def test_2x3_edges(self):
        assert lattice_edges(2, 3) == (
            (0, 3),
            (0, 1),
            (0, 2),
            (1, 4),
            (1, 2),
            (2, 5),
            (3, 4),
            (3, 5),
            (4, 5),
        )

    def test_edge_counts(self):
        assert len(lattice_edges(1, 2)) == 1
        assert len(lattice_edges(2, 2)) == 4
        assert len(lattice_edges(2, 3)) == 9
        assert len(lattice_edges(3, 3)) == 18

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidInputError):
            lattice_edges(0, 2)
        with pytest.raises(InvalidInputError):
            lattice_edges(2, -1)


class TestIsingSpec:
    def _tiny_spec(self, **overrides):
        fields = dict(
            nx=1,
            ny=2,
            field_z=(1.0, 0.9),
            local_fields=((0.1, -0.05, 0.02), (0.0, 0.0, -0.01)),
            coupling=(0.4,),
            tensor_blocks=(
                (0.01, 0.02, 0.03, 0.02, 0.05, 0.06, 0.03, 0.06, 0.09),
            ),
        )
        fields.update(overrides)
        return IsingSpec(**fields)

    def test_valid_spec_constructs(self):
        spec = self._tiny_spec()
        assert spec.num_vertices == 2
        assert spec.edges == ((0, 1),)

    def test_rejects_wrong_field_count(self):
        with pytest.raises(InvalidInputError):
            self._tiny_spec(field_z=(1.0,))

    def test_rejects_wrong_local_field_shape(self):
        with pytest.raises(InvalidInputError):
            self._tiny_spec(local_fields=((0.1, 0.2), (0.0, 0.0, 0.0)))

    def test_rejects_wrong_coupling_count(self):
        with pytest.raises(InvalidInputError):
            self._tiny_spec(coupling=(0.4, 0.5))

    def test_rejects_asymmetric_block(self):
        bad = (0.01, 0.02, 0.03, 0.99, 0.05, 0.06, 0.03, 0.06, 0.09)
        with pytest.raises(InvalidInputError):
            self._tiny_spec(tensor_blocks=(bad,))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            self._tiny_spec(field_z=(float("nan"), 0.9))

    def test_rejects_bad_dimensions(self):
        with pytest.raises(InvalidInputError):
            self._tiny_spec(nx=0)

    def test_json_round_trip(self):
        spec = self._tiny_spec()
        again = IsingSpec.from_json(spec.to_json())
        assert again == spec

    def test_from_json_accepts_flat_blocks(self):
        spec = self._tiny_spec()
        import json

        payload = json.loads(spec.to_json())
        payload["tensor_blocks"] = [
            [v for row in block for v in row] for block in payload["tensor_blocks"]
        ]
        again = IsingSpec.from_json(json.dumps(payload))
        assert again == spec

    def test_from_json_rejects_garbage(self):
        with pytest.raises(InvalidInputError):
            IsingSpec.from_json("not json")
        with pytest.raises(InvalidInputError):
            IsingSpec.from_json("[1, 2, 3]")
        with pytest.raises(InvalidInputError):
            IsingSpec.from_json("{}")


class TestBuildIsing:
    def test_term_layout_1x2(self):
        # Per-vertex X, Y, Z blocks first, then the 9 row-major two-site
        # combinations per edge; the strong Z and ZZ entries are folded into
        # the matching rows.
        spec = IsingSpec(
            nx=1,
            ny=2,
            field_z=(1.0, 0.9),
            local_fields=((0.1, -0.05, 0.02), (0.04, 0.03, -0.01)),
            coupling=(0.4,),
            tensor_blocks=(
                (0.01, 0.02, 0.03, 0.02, 0.05, 0.06, 0.03, 0.06, 0.09),
            ),
        )
        obs = build_ising(spec)
        got = [(t.string.letters, t.coefficient) for t in obs.terms]
        assert got == [
            ("XI", 0.1),
            ("YI", -0.05),
            ("ZI", 1.02),
            ("IX", 0.04),
            ("IY", 0.03),
            ("IZ", 0.89),
            ("XX", 0.01),
            ("XY", 0.02),
            ("XZ", 0.03),
            ("YX", 0.02),
            ("YY", 0.05),
            ("YZ", 0.06),
            ("ZX", 0.03),
            ("ZY", 0.06),
            ("ZZ", pytest.approx(0.49)),
        ]

    def test_single_vertex_has_three_terms(self):
        spec = IsingSpec(
            nx=1,
            ny=1,
            field_z=(0.7,),
            local_fields=((0.1, 0.2, 0.3),),
            coupling=(),
            tensor_blocks=(),
        )
        obs = build_ising(spec)
        assert [(t.string.letters, t.coefficient) for t in obs.terms] == [
            ("X", 0.1),
            ("Y", 0.2),
            ("Z", 1.0),
        ]

    def test_zero_coefficients_are_dropped(self):
        spec = IsingSpec(
            nx=1,
            ny=1,
            field_z=(0.5,),
            local_fields=((0.0, 0.2, -0.5),),
            coupling=(),
            tensor_blocks=(),
        )
        obs = build_ising(spec)
        # The X entry is zero and the Z entries cancel: only Y survives.
        assert [(t.string.letters, t.coefficient) for t in obs.terms] == [
            ("Y", 0.2)
        ]

    def test_reproduces_builtin_tables(self):
        # The bundled (1,2) table is exactly what the generator emits for
        # the coefficients recoverable from the table itself; here check the
        # structural skeleton: same strings in the same order.
        for name, (nx, ny) in [
            ("ising-1x2", (1, 2)),
            ("ising-2x2", (2, 2)),
            ("ising-2x3", (2, 3)),
        ]:
            obs = load_builtin(name)
            q = nx * ny
            strings = [t.string.letters for t in obs.terms]
            expected = []
            for v in range(q):
                for letter in "XYZ":
                    s = ["I"] * q
                    s[v] = letter
                    expected.append("".join(s))
            for i, k in lattice_edges(nx, ny):
                for a in "XYZ":
                    for b in "XYZ":
                        s = ["I"] * q
                        s[i] = a
                        s[k] = b
                        expected.append("".join(s))
            assert strings == expected


class TestRandomIsingSpec:
    def test_deterministic_given_seed(self):
        first = random_ising_spec(2, 2, np.random.default_rng(42))
        second = random_ising_spec(2, 2, np.random.default_rng(42))
        assert first == second

    def test_values_in_documented_ranges(self):
        spec = random_ising_spec(2, 3, np.random.default_rng(1))
        assert all(-0.15 <= v <= 1.15 for v in spec.field_z)
        assert all(-0.15 <= v <= 1.15 for v in spec.coupling)
        assert all(-0.2 <= v <= 0.2 for row in spec.local_fields for v in row)
        assert all(-0.2 <= v <= 0.2 for row in spec.tensor_blocks for v in row)

    def test_values_are_rounded_to_three_decimals(self):
        spec = random_ising_spec(2, 2, np.random.default_rng(5))
        values = (
            list(spec.field_z)
            + [v for row in spec.local_fields for v in row]
            + list(spec.coupling)
            + [v for row in spec.tensor_blocks for v in row]
        )
        assert all(round(v, 3) == v for v in values)

    def test_blocks_are_symmetric(self):
        spec = random_ising_spec(2, 3, np.random.default_rng(9))
        for block in spec.tensor_blocks:
            for a in range(3):
                for b in range(3):
                    assert block[3 * a + b] == block[3 * b + a]

    @pytest.mark.parametrize(
        ("nx", "ny", "expected"), [(1, 2, 15), (2, 2, 48), (2, 3, 99)]
    )
    def test_term_count_matches_lattice(self, nx, ny, expected):
        # 3 per vertex + 9 per edge; seed 0 draws no exactly-zero rounded
        # coefficient for these lattices, so nothing is dropped.
        spec = random_ising_spec(nx, ny, np.random.default_rng(0))
        assert build_ising(spec).num_terms == expected

    def test_off_diagonal_coefficients_match_in_observable(self):
        spec = random_ising_spec(2, 2, np.random.default_rng(17))
        obs = build_ising(spec)
        coeff = {t.string.letters: t.coefficient for t in obs.terms}
        for i, k in spec.edges:
            for a, b in [("X", "Y"), ("X", "Z"), ("Y", "Z")]:
                s_ab = ["I"] * 4
                s_ab[i], s_ab[k] = a, b
                s_ba = ["I"] * 4
                s_ba[i], s_ba[k] = b, a
                assert coeff["".join(s_ab)] == coeff["".join(s_ba)]

    def test_round_trips_through_serialization(self):
        spec = random_ising_spec(1, 2, np.random.default_rng(3))
        obs = build_ising(spec)
        from doubleshot.pauli import serialize_observable

        again = parse_observable(serialize_observable(obs))
        assert [(t.string.letters, t.coefficient) for t in again.terms] == [
            (t.string.letters, t.coefficient) for t in obs.terms
        ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: lattice_edges(1.5, 2),
        lambda: lattice_edges(True, 2),
        lambda: lattice_edges(2, np.float64(3.0)),
        lambda: random_ising_spec(True, 2, np.random.default_rng(0)),
        lambda: StateVector([1.0, 0.0], width=True),
        lambda: StateVector([1.0, 0.0], width=1.0),
    ],
    ids=[
        "lattice-float", "lattice-bool", "lattice-numpy-float",
        "random-spec-bool", "state-width-bool", "state-width-float",
    ],
)
def test_sizes_must_be_integers(build):
    # a bool is not a size, and a float is refused even when whole
    with pytest.raises(InvalidInputError):
        build()


def _set_first_block_entry(payload, value):
    payload["tensor_blocks"][0][0][0] = value


@pytest.mark.parametrize(
    ("size", "edit"),
    [
        ((2, 2), lambda payload: payload.update(nx=2.7)),
        ((2, 2), lambda payload: payload.update(nx="2")),
        ((1, 2), lambda payload: payload.update(nx=True)),
        ((1, 2), lambda payload: payload.update(field_z=[True, "0.5"])),
        ((1, 2), lambda payload: _set_first_block_entry(payload, "0.01")),
    ],
    ids=["nx-float", "nx-string", "nx-bool", "field-bool-and-string", "block-string"],
)
def test_from_json_refuses_values_it_would_coerce(tmp_path, size, edit):
    # sizes must be JSON integers and entries JSON numbers, as read
    payload = json.loads(random_ising_spec(*size, np.random.default_rng(0)).to_json())
    edit(payload)
    text = json.dumps(payload)
    with pytest.raises(InvalidInputError):
        IsingSpec.from_json(text)
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cli.main(["gen-ising", "--coefficients", str(path)]) == 2



@pytest.mark.parametrize("value", [3, None], ids=["number", "null"])
@pytest.mark.parametrize(
    "where",
    [
        ("field_z",), ("local_fields",), ("coupling",), ("tensor_blocks",),
        ("local_fields", 0), ("tensor_blocks", 0),
    ],
    ids=lambda where: where[0] + "-row" * (len(where) - 1),
)
def test_from_json_refuses_a_list_field_that_is_not_an_array(tmp_path, where, value):
    # a number or null where a list or a row belongs is refused, not iterated
    payload = json.loads(random_ising_spec(1, 2, np.random.default_rng(0)).to_json())
    *parents, last = where
    target = payload
    for key in parents:
        target = target[key]
    target[last] = value
    text = json.dumps(payload)
    with pytest.raises(InvalidInputError, match="JSON array"):
        IsingSpec.from_json(text)
    path = tmp_path / "spec.json"
    path.write_text(text)
    assert cli.main(["gen-ising", "--coefficients", str(path)]) == 2
