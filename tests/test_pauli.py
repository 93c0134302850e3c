"""Pauli strings, commutation, observable parsing, and group covers."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from doubleshot.errors import InvalidInputError, ObservableParseError
from doubleshot.pauli import (
    Observable,
    PauliString,
    PauliTerm,
    build_group_cover,
    commutation_matrix,
    commutes,
    observable_from_pairs,
    parse_observable,
    serialize_observable,
)
from doubleshot.simulator import pauli_matrix


def all_strings(width: int):
    return ["".join(p) for p in itertools.product("IXYZ", repeat=width)]


letters_st = st.text(alphabet="IXYZ", min_size=1, max_size=5)


def observable_st(max_width=4, max_terms=6):
    def build(width, rows):
        pairs = [
            (coeff, "".join("IXYZ"[v % 4] for v in draw))
            for coeff, draw in rows
        ]
        return pairs, width

    return st.integers(1, max_width).flatmap(
        lambda w: st.lists(
            st.tuples(
                st.floats(
                    min_value=-4, max_value=4, allow_nan=False
                ).filter(lambda c: abs(c) > 1e-6),
                st.lists(st.integers(0, 3), min_size=w, max_size=w),
            ),
            min_size=1,
            max_size=max_terms,
        ).map(lambda rows: build(w, rows))
    )


class TestPauliString:
    def test_letter_bit_consistency(self):
        s = PauliString("IXYZ")
        assert s.width == 4
        # leftmost letter is qubit 1 = the most significant mask bit
        assert s.x_mask == 0b0110
        assert s.z_mask == 0b0011

    @given(letters_st)
    def test_masks_roundtrip_letters(self, letters):
        s = PauliString(letters)
        rebuilt = []
        for k in range(s.width):
            x = (s.x_mask >> (s.width - 1 - k)) & 1
            z = (s.z_mask >> (s.width - 1 - k)) & 1
            rebuilt.append({(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}[(x, z)])
        assert "".join(rebuilt) == letters

    def test_rejects_bad_letters(self):
        with pytest.raises(InvalidInputError):
            PauliString("XQ")
        with pytest.raises(InvalidInputError):
            PauliString("")


class TestCommutes:
    def test_examples(self):
        assert commutes(PauliString("XX"), PauliString("YY")) is True
        assert commutes(PauliString("XI"), PauliString("YI")) is False
        assert commutes(PauliString("IX"), PauliString("XI")) is True

    def test_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            commutes(PauliString("X"), PauliString("XX"))

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_matches_matrix_commutator_exhaustively(self, width):
        strings = all_strings(width)
        mats = {s: pauli_matrix(PauliString(s)) for s in strings}
        for a, b in itertools.combinations_with_replacement(strings, 2):
            bracket = mats[a] @ mats[b] - mats[b] @ mats[a]
            truth = bool(np.allclose(bracket, 0))
            assert commutes(PauliString(a), PauliString(b)) is truth
            assert commutes(PauliString(b), PauliString(a)) is truth

    @given(letters_st)
    def test_reflexive(self, letters):
        s = PauliString(letters)
        assert commutes(s, s) is True


class TestCommutationMatrix:
    @pytest.mark.parametrize("width, count", [(1, 4), (5, 40), (70, 30)])
    def test_matches_pairwise_commutes(self, width, count):
        # 70 qubits: wider than one 64-bit word of x or z bits
        rng = np.random.default_rng(width)
        strings = [
            PauliString("".join(rng.choice(list("IXYZ"), width)))
            for _ in range(count)
        ]
        matrix = commutation_matrix(strings)
        assert matrix.dtype == bool and matrix.shape == (count, count)
        for (i, a), (j, b) in itertools.product(enumerate(strings), repeat=2):
            assert matrix[i, j] == commutes(a, b), (a, b)
        assert not matrix.all()

    def test_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            commutation_matrix([PauliString("X"), PauliString("XX")])


class TestParseObservable:
    def test_two_term_example(self):
        obs = parse_observable("1.028 ZI\n0.416 ZZ")
        assert obs.num_terms == 2
        assert obs.identity_offset == 0.0
        assert obs.terms[0].coefficient == 1.028
        assert obs.terms[0].string.letters == "ZI"

    def test_identity_extraction(self):
        obs = parse_observable("0.5 II")
        assert obs.num_terms == 0
        assert obs.identity_offset == 0.5

    def test_duplicate_merge(self):
        obs = parse_observable("1.0 XZ\n0.5 XZ")
        assert obs.num_terms == 1
        assert obs.terms[0].coefficient == 1.5

    def test_comments_and_blank_lines(self):
        obs = parse_observable("# header\n\n1.0 Z\n")
        assert obs.num_terms == 1

    def test_malformed_line_names_line_number(self):
        with pytest.raises(ObservableParseError) as err:
            parse_observable("1.0 Z\nnot-a-line\n")
        assert err.value.line_number == 2

    def test_inconsistent_width(self):
        with pytest.raises(ObservableParseError):
            parse_observable("1.0 Z\n1.0 ZZ")

    def test_non_finite_coefficient(self):
        with pytest.raises(ObservableParseError):
            parse_observable("inf Z")

    def test_empty_input(self):
        with pytest.raises(ObservableParseError):
            parse_observable("# only comments\n")

    def test_cancelling_duplicates_dropped(self):
        obs = parse_observable("1.0 XZ\n-1.0 XZ\n2.0 ZZ")
        assert [t.string.letters for t in obs.terms] == ["ZZ"]

    @given(observable_st())
    @settings(max_examples=60)
    def test_parse_serialize_parse_identity(self, pairs_width):
        pairs, width = pairs_width
        obs = observable_from_pairs(pairs, width)
        if obs.num_terms == 0 and obs.identity_offset == 0.0:
            return
        again = parse_observable(serialize_observable(obs))
        assert again.width == obs.width
        assert again.identity_offset == obs.identity_offset
        assert [(t.coefficient, t.string.letters) for t in again.terms] == [
            (t.coefficient, t.string.letters) for t in obs.terms
        ]


class TestObservableInvariants:
    def test_identity_in_terms_rejected(self):
        with pytest.raises(InvalidInputError):
            Observable(width=2, terms=(PauliTerm(1.0, PauliString("II")),))

    def test_zero_coefficient_rejected(self):
        with pytest.raises(InvalidInputError):
            Observable(width=1, terms=(PauliTerm(0.0, PauliString("X")),))

    def test_duplicate_string_rejected(self):
        with pytest.raises(InvalidInputError):
            Observable(
                width=1,
                terms=(
                    PauliTerm(1.0, PauliString("X")),
                    PauliTerm(2.0, PauliString("X")),
                ),
            )

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            Observable(width=2, terms=(PauliTerm(1.0, PauliString("X")),))


TOY_TEXT = "1.0 IX\n1.0 XI\n1.0 XX\n1.0 YY\n1.0 ZZ"


class TestGroupCover:
    def test_toy_cover(self):
        obs = parse_observable(TOY_TEXT)
        cover = build_group_cover(obs)
        groups = {frozenset(g) for g in cover.groups}
        assert groups == {frozenset({0, 1, 2}), frozenset({2, 3, 4})}

    def test_single_term(self):
        cover = build_group_cover(parse_observable("0.7 XY"))
        assert cover.groups == ((0,),)

    def test_identity_only_gives_empty_cover(self):
        assert build_group_cover(parse_observable("0.5 II")).groups == ()

    def test_anticommuting_set_gives_singletons(self):
        obs = parse_observable("1.0 XI\n1.0 YI\n1.0 ZI")
        cover = build_group_cover(obs)
        assert sorted(cover.groups) == [(0,), (1,), (2,)]

    @given(observable_st(max_width=3, max_terms=7))
    @settings(max_examples=60)
    def test_cover_properties(self, pairs_width):
        pairs, width = pairs_width
        obs = observable_from_pairs(pairs, width)
        cover = build_group_cover(obs)
        covered = set()
        for group in cover.groups:
            for i, j in itertools.combinations(group, 2):
                assert commutes(obs.terms[i].string, obs.terms[j].string)
            covered.update(group)
        assert covered == set(range(obs.num_terms))

    def test_deterministic(self):
        obs = parse_observable(TOY_TEXT)
        assert build_group_cover(obs) == build_group_cover(obs)
