"""Dense statevector oracle: ground states, exact values, seeded sampling."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from doubleshot import cli, simulator
from doubleshot.errors import InvalidInputError, ResourceLimitError
from doubleshot.hamiltonians import (
    BUILTIN_NAMES,
    build_ising,
    load_builtin,
    random_ising_spec,
)
from doubleshot.pauli import PauliString, build_group_cover, commutes, parse_observable
from doubleshot.posterior import phi_joint_of_theta_joint, phi_of_theta
from doubleshot.simulator import (
    StateVector,
    _bell_table,
    _pauli_actions,
    apply_pauli,
    exact_mean,
    exact_pair_thetas,
    exact_theta,
    expectation,
    ground_energy,
    ground_state,
    load_state_file,
    observable_matrix,
    pauli_matrix,
    sample_double_shot,
    sample_group_shot,
)

TOY_TEXT = "1.0 IX\n1.0 XI\n1.0 XX\n1.0 YY\n1.0 ZZ"


def theta_state(theta: float) -> StateVector:
    """Single-qubit state with exact_theta(. , Z) == theta."""
    return StateVector([math.sqrt(theta), math.sqrt(1.0 - theta)])


def random_state(width: int, seed: int) -> StateVector:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=1 << width) + 1j * rng.normal(size=1 << width)
    return StateVector(v / np.linalg.norm(v))


# Three qubits, complex state, several terms with Y letters.
Y_TERMS_TEXT = "0.7 XYZ\n-0.4 YYI\n0.3 ZIY\n1.1 IXX\n-0.9 YZY\n0.5 ZZZ\n0.2 IIY"


def dense_double_shot(state: StateVector, obs, rng) -> dict[int, int]:
    """Reference two-copy shot: project state (x) state onto each P (x) P in turn.

    The doubled operators pairwise commute, so projecting them one at a time in
    index order gives their joint law; one rng.random() is drawn per term.
    """
    v = np.kron(state.amplitudes, state.amplitudes)
    values = {}
    for i, t in enumerate(obs.terms):
        pv = pauli_matrix(PauliString(t.string.letters * 2)) @ v
        theta = min(1.0, max(0.0, 0.5 * (1.0 + float(np.vdot(v, pv).real))))
        outcome = 1 if rng.random() < theta else -1
        v = 0.5 * (v + outcome * pv)
        v = v / np.linalg.norm(v)
        values[i] = outcome
    return values


def kron_observable_matrix(obs) -> np.ndarray:
    """Reference H: the dense kron sum of the terms plus the offset."""
    dim = 1 << obs.width
    h = np.zeros((dim, dim), dtype=complex)
    for t in obs.terms:
        h += t.coefficient * pauli_matrix(t.string)
    return h + obs.identity_offset * np.eye(dim)


class TestStateVector:
    def test_unit_norm_enforced(self):
        with pytest.raises(InvalidInputError):
            StateVector([1.0, 1.0])

    def test_wrong_length_rejected(self):
        with pytest.raises(InvalidInputError):
            StateVector([1.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_amplitude_refused(self, tmp_path, bad):
        # NaN fails every comparison, so a norm test must be one that NaN fails
        with pytest.raises(InvalidInputError):
            StateVector([float(bad), 0.0])
        state_path = tmp_path / "state.txt"
        state_path.write_text(f"{bad} 0\n0 0\n")
        with pytest.raises(InvalidInputError):
            load_state_file(state_path)
        obs_path = tmp_path / "obs.txt"
        obs_path.write_text("1.0 Z\n0.5 X\n")
        out = tmp_path / "report.json"
        argv = [
            "estimate", "--observable", str(obs_path), "--state", str(state_path),
            "--budget", "6", "--out", str(out),
        ]
        assert cli.main(argv) == 2
        assert not out.exists()

    def test_immutable(self):
        state = StateVector([1.0, 0.0])
        with pytest.raises(AttributeError):
            state.width = 3
        with pytest.raises(ValueError):
            state.amplitudes[0] = 0.0


class TestGroundState:
    def test_diagonal_hamiltonian(self):
        # ground state of -Z is the +1 eigenstate of Z, energy -1
        obs = parse_observable("-1.0 Z")
        state = ground_state(obs)
        assert exact_theta(state, PauliString("Z")) == pytest.approx(1.0, abs=1e-12)
        assert exact_mean(obs, state) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_ground_space_eigenvalue_only(self):
        obs = parse_observable("1.0 ZZ")
        state = ground_state(obs)
        assert exact_mean(obs, state) == pytest.approx(-1.0, abs=1e-12)
        assert ground_energy(obs) == pytest.approx(-1.0, abs=1e-12)

    def test_phase_convention_deterministic(self):
        obs = parse_observable("1.0 XI\n0.3 IZ\n-0.2 ZZ")
        a = ground_state(obs).amplitudes
        b = ground_state(obs).amplitudes
        assert np.array_equal(a, b)
        k = int(np.argmax(np.abs(a)))
        assert a[k].real > 0 and abs(a[k].imag) < 1e-12

    def test_cap_and_override(self):
        wide = parse_observable("1.0 " + "Z" * 11)
        with pytest.raises(ResourceLimitError):
            ground_state(wide)
        state = ground_state(wide, max_qubits=11)
        assert state.width == 11

    def test_matrix_cap(self):
        wide = parse_observable("1.0 " + "Z" * 11)
        with pytest.raises(ResourceLimitError):
            observable_matrix(wide)

    @pytest.mark.parametrize(
        "obs",
        [
            load_builtin("toy-fig1"),
            load_builtin("ising-2x3"),
            build_ising(random_ising_spec(2, 3, np.random.default_rng(11))),
            parse_observable("0.25 III\n" + Y_TERMS_TEXT),
        ],
        ids=["toy-fig1", "ising-2x3", "random-2x3", "y-terms"],
    )
    def test_matrix_equals_kron_sum(self, obs):
        assert np.array_equal(observable_matrix(obs), kron_observable_matrix(obs))

    def test_energy_is_lowest_eigenvalue_of_state(self):
        obs = load_builtin("ising-1x2")
        state = ground_state(obs)
        assert ground_energy(obs) == pytest.approx(exact_mean(obs, state), abs=1e-12)
        assert ground_energy(obs) == pytest.approx(
            np.linalg.eigvalsh(kron_observable_matrix(obs))[0], abs=1e-12
        )


def lattice(nx: int, ny: int, seed: int):
    return build_ising(random_ising_spec(nx, ny, np.random.default_rng(seed)))


class TestLanczosGroundState:
    """From 8 qubits the ground state comes from Lanczos on the action table."""

    @pytest.mark.parametrize(
        "obs",
        [lattice(2, 4, 6), lattice(3, 3, 7), lattice(2, 5, 7)],
        ids=["random-2x4", "random-3x3", "wide-10q"],
    )
    def test_agrees_with_dense_eigh(self, obs):
        vals, vecs = np.linalg.eigh(observable_matrix(obs))
        energy = ground_energy(obs)
        state = ground_state(obs)
        assert abs(energy - vals[0]) < 1e-12
        assert abs(abs(np.vdot(vecs[:, 0], state.amplitudes)) - 1.0) < 1e-12

    def test_deterministic(self):
        obs = lattice(2, 4, 6)
        a = ground_state(obs).amplitudes
        assert a.tobytes() == ground_state(obs).amplitudes.tobytes()

    def test_uniform_start_vector_trap(self):
        # +sum_i X_i: its ground state is orthogonal to the uniform vector
        obs = parse_observable(
            "\n".join(f"1.0 {'I' * i}X{'I' * (7 - i)}" for i in range(8))
        )
        assert ground_energy(obs) == pytest.approx(-8.0, abs=1e-12)
        assert exact_mean(obs, ground_state(obs)) == pytest.approx(-8.0, abs=1e-12)

    def test_degenerate_ground_space(self):
        obs = parse_observable("1.0 ZZZZZZZZ")
        energy = ground_energy(obs)
        assert energy == pytest.approx(-1.0, abs=1e-12)
        assert exact_mean(obs, ground_state(obs)) == pytest.approx(energy, abs=1e-12)

    @pytest.mark.parametrize(
        "obs",
        [
            load_builtin("toy-fig1"),
            load_builtin("ising-2x3"),
            lattice(1, 7, 5),
            parse_observable("0.25 III\n" + Y_TERMS_TEXT),
        ],
        ids=["toy-fig1", "ising-2x3", "random-1x7", "y-terms"],
    )
    def test_dense_path_below_eight_qubits(self, obs):
        vals, vecs = np.linalg.eigh(kron_observable_matrix(obs))
        v = vecs[:, 0]
        pivot = v[int(np.argmax(np.abs(v)))]
        v = v * (pivot.conjugate() / abs(pivot))
        v = v / np.linalg.norm(v)
        assert ground_state(obs).amplitudes.tobytes() == v.tobytes()
        assert ground_energy(obs) == float(vals[0])

    def test_memory_stays_matrix_free(self):
        # a dense 12-qubit H alone would take 256 MB
        obs = lattice(2, 6, 0)
        tracemalloc.start()
        try:
            state = ground_state(obs, max_qubits=12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.width == 12
        assert peak < 64e6

    def test_no_dense_eigensolve_on_wide_lattice(self, monkeypatch):
        sizes = []
        eigh = np.linalg.eigh

        def spy(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(simulator.np.linalg, "eigh", spy)
        obs = lattice(2, 5, 7)
        ground_state(obs)
        ground_energy(obs)
        assert sizes and max(sizes) <= 128


class TestPhasePivot:
    """The phase pivot is the last largest amplitude, ties within rounding."""

    @pytest.mark.parametrize(
        "obs",
        [load_builtin(name) for name in BUILTIN_NAMES] + [lattice(2, 5, 7)],
        ids=list(BUILTIN_NAMES) + ["wide-10q"],
    )
    def test_states_keep_their_argmax_pivot(self, obs):
        # Each has one largest amplitude, except toy-fig1, whose two largest
        # tie within rounding and where argmax took the later one; so each
        # state keeps the bits the argmax pivot gives it.
        if obs.width < simulator._LANCZOS_MIN_QUBITS:
            v = np.linalg.eigh(observable_matrix(obs))[1][:, 0]
        else:
            v = simulator._lanczos(obs)[1]
        pivot = v[int(np.argmax(np.abs(v)))]
        v = v * (pivot.conjugate() / abs(pivot))
        v = v / np.linalg.norm(v)
        assert ground_state(obs).amplitudes.tobytes() == v.tobytes()

    def test_tied_magnitudes_give_one_state_from_either_method(self, monkeypatch):
        # +sum_i X_i on 8 qubits: every amplitude of its ground state is
        # 1/16 in magnitude, so rounding alone would pick the pivot
        obs = parse_observable(
            "\n".join(f"1.0 {'I' * i}X{'I' * (7 - i)}" for i in range(8))
        )
        lanczos = ground_state(obs).amplitudes
        monkeypatch.setattr(simulator, "_LANCZOS_MIN_QUBITS", 9)
        dense = ground_state(obs).amplitudes
        assert np.max(np.abs(lanczos - dense)) < 1e-12


class TestExactValues:
    def test_z_on_zero(self):
        assert exact_theta(StateVector([1.0, 0.0]), PauliString("Z")) == pytest.approx(1.0)

    def test_z_on_plus(self):
        plus = StateVector([1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert exact_theta(plus, PauliString("Z")) == pytest.approx(0.5)

    def test_paper_theta_phi_point(self):
        state = theta_state(0.725)
        theta = exact_theta(state, PauliString("Z"))
        assert theta == pytest.approx(0.725, abs=1e-12)
        assert expectation(state, PauliString("Z")) == pytest.approx(0.45, abs=1e-12)
        assert phi_of_theta(theta) == pytest.approx(0.60125, abs=1e-12)

    def test_width_mismatch(self):
        with pytest.raises(InvalidInputError):
            exact_theta(StateVector([1.0, 0.0]), PauliString("ZZ"))

    def test_theta_clipped_to_unit_interval(self):
        # the singlet: <XX> = <ZZ> = -1, which rounds to theta = -1.1e-16
        obs = parse_observable("1.0 XX\n1.0 ZZ")
        state = ground_state(obs)
        for t in obs.terms:
            assert exact_theta(state, t.string) == 0.0

    def test_exact_mean_includes_offset(self):
        obs = parse_observable("0.25 II\n1.0 ZI")
        state = StateVector([0, 0, 1, 0])  # |10>
        assert exact_mean(obs, state) == pytest.approx(0.25 - 1.0)


@pytest.mark.parametrize(
    ("theta", "expected"),
    [(-0.25, -1), (0.0, -1), (1.0, 1), (1.25, 1), (math.nan, -1)],
)
def test_draw_outcome_outside_unit_interval(theta, expected):
    # theta >= 1 always gives +1, and theta <= 0 or NaN always -1, from one draw
    rng = np.random.default_rng(11)
    assert simulator._draw_outcome(theta, rng) == expected
    after_one = np.random.default_rng(11)
    after_one.random()
    assert rng.random() == after_one.random()


class TestGroupShot:
    def test_deterministic_z(self):
        state = StateVector([1.0, 0.0])
        obs = parse_observable("1.0 Z")
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert sample_group_shot(state, obs, [0], rng).values == {0: 1}

    def test_bell_stabilizers(self):
        bell = StateVector([1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2)])
        obs = parse_observable("1.0 XX\n1.0 ZZ")
        rng = np.random.default_rng(1)
        for _ in range(100):
            assert sample_group_shot(bell, obs, [0, 1], rng).values == {0: 1, 1: 1}

    def test_product_state_joint_frequencies(self):
        # |+0>: both group outcomes deterministic, joint always (+1, +1)
        plus_zero = StateVector([1 / math.sqrt(2), 0, 1 / math.sqrt(2), 0])
        obs = parse_observable("1.0 XI\n1.0 IZ")
        rng = np.random.default_rng(2)
        for _ in range(200):
            assert sample_group_shot(plus_zero, obs, [0, 1], rng).values == {0: 1, 1: 1}

    def test_joint_frequencies_match_exact_pair_thetas(self):
        # entangled state, commuting pair (ZI, IZ): 3 sigma at 10^4 shots
        state = StateVector([0.6, 0.0, 0.0, 0.8])
        obs = parse_observable("1.0 ZI\n1.0 IZ")
        probs = exact_pair_thetas(state, obs.terms[0].string, obs.terms[1].string)
        rng = np.random.default_rng(3)
        n = 10_000
        counts = {(1, 1): 0, (1, -1): 0, (-1, 1): 0, (-1, -1): 0}
        for _ in range(n):
            values = sample_group_shot(state, obs, [0, 1], rng).values
            counts[(values[0], values[1])] += 1
        for k, (oi, oj) in enumerate([(1, 1), (-1, 1), (1, -1), (-1, -1)]):
            p = probs[k]
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / n)
            assert abs(counts[(oi, oj)] / n - p) < 3 * sigma + 1e-9

    def test_non_commuting_group_rejected(self):
        state = StateVector([1.0, 0.0])
        obs = parse_observable("1.0 X\n1.0 Z")
        with pytest.raises(InvalidInputError):
            sample_group_shot(state, obs, [0, 1], np.random.default_rng(0))

    @pytest.mark.parametrize(
        "group", [[-1], (4, -1), [0, 0], [True], [5], [1.0], ()],
        ids=["negative", "negative-and-valid", "repeated", "bool", "out-of-range",
             "float", "empty"],
    )
    def test_unmeasurable_group_refused(self, group):
        obs = load_builtin("toy-fig1")
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            sample_group_shot(ground_state(obs), obs, group, rng)
        assert rng.random() == np.random.default_rng(0).random()

    def test_law_of_large_numbers(self):
        # single term alone, 10^5 shots, 4 sigma band
        theta = 0.725
        state = theta_state(theta)
        obs = parse_observable("1.0 Z")
        rng = np.random.default_rng(4)
        n = 100_000
        hits = sum(
            sample_group_shot(state, obs, [0], rng).values[0] == 1
            for _ in range(n)
        )
        sigma = math.sqrt(theta * (1 - theta) / n)
        assert abs(hits / n - theta) < 4 * sigma


class TestDoubleShot:
    def test_deterministic_term(self):
        state = StateVector([1.0, 0.0])
        obs = parse_observable("1.0 Z")
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert sample_double_shot(state, obs, rng).values == {0: 1}

    def test_covers_all_terms(self):
        obs = parse_observable(TOY_TEXT)
        state = ground_state(obs)
        outcome = sample_double_shot(state, obs, np.random.default_rng(1))
        assert outcome.kind == "double"
        assert sorted(outcome.values) == list(range(obs.num_terms))
        assert all(v in (-1, 1) for v in outcome.values.values())

    def test_marginal_matches_phi(self):
        # mean of double outcomes -> (2 theta - 1)^2, equivalently +1 rate -> phi
        theta = 0.725
        state = theta_state(theta)
        obs = parse_observable("1.0 Z\n0.5 X")
        rng = np.random.default_rng(5)
        n = 10_000
        total = {0: 0, 1: 0}
        plus = {0: 0, 1: 0}
        for _ in range(n):
            values = sample_double_shot(state, obs, rng).values
            for i, v in values.items():
                total[i] += v
                plus[i] += v == 1
        for i in (0, 1):
            ti = exact_theta(state, obs.terms[i].string)
            target = (2 * ti - 1) ** 2
            sigma = math.sqrt(max((1 - target**2), 1e-12) / n)
            assert abs(total[i] / n - target) < 3 * sigma + 1e-9
            phi = phi_of_theta(ti)
            sigma_p = math.sqrt(phi * (1 - phi) / n)
            assert abs(plus[i] / n - phi) < 3 * sigma_p + 1e-9

    def test_pair_joint_matches_quadratic_map(self):
        obs = parse_observable("1.0 ZI\n1.0 IZ")
        state = StateVector([0.6, 0.0, 0.0, 0.8])
        theta4 = exact_pair_thetas(state, obs.terms[0].string, obs.terms[1].string)
        phi4 = phi_joint_of_theta_joint(theta4)
        rng = np.random.default_rng(6)
        n = 10_000
        counts = np.zeros(4)
        for _ in range(n):
            values = sample_double_shot(state, obs, rng).values
            k = (0 if values[0] == 1 else 2) + (0 if values[1] == 1 else 1)
            counts[k] += 1
        for k in range(4):
            sigma = math.sqrt(max(phi4[k] * (1 - phi4[k]), 1e-12) / n)
            assert abs(counts[k] / n - phi4[k]) < 3 * sigma + 1e-9

    def test_cap_applies_to_single_copy_width(self):
        wide = parse_observable("1.0 " + "Z" * 6)
        state = ground_state(wide)
        # the cap counts one copy's qubits: 6 <= 10 runs, 6 > 5 is refused
        outcome = sample_double_shot(state, wide, np.random.default_rng(0))
        assert outcome.values[0] in (-1, 1)
        with pytest.raises(ResourceLimitError):
            sample_double_shot(state, wide, np.random.default_rng(0), max_qubits=5)


class TestGivenBellTable:
    """A caller's prebuilt table gives the draws the sampler makes alone."""

    def test_same_outcomes_and_stream(self):
        obs = parse_observable(Y_TERMS_TEXT)
        state = random_state(3, 17)
        table = _bell_table(state)
        rng_given = np.random.default_rng(7)
        rng_alone = np.random.default_rng(7)
        for _ in range(100):
            given = sample_double_shot(state, obs, rng_given, bell=table)
            assert given.values == sample_double_shot(state, obs, rng_alone).values
        assert rng_given.random() == rng_alone.random()
        assert np.array_equal(table, _bell_table(state))  # left untouched

    def test_wrong_shape_refused(self):
        obs = parse_observable("1.0 ZZ")
        state = ground_state(obs)
        with pytest.raises(InvalidInputError):
            sample_double_shot(
                state, obs, np.random.default_rng(0), bell=np.ones((2, 2)) / 4
            )

    def test_cap_checked_before_building(self):
        state = ground_state(parse_observable("1.0 " + "Z" * 6))
        with pytest.raises(ResourceLimitError):
            _bell_table(state, max_qubits=5)


class TestGivenGroupActions:
    """A caller's action table gives the draws the sampler makes alone."""

    @pytest.mark.parametrize(
        "obs, state",
        [
            (load_builtin("ising-2x2"), ground_state(load_builtin("ising-2x2"))),
            (parse_observable(Y_TERMS_TEXT), random_state(3, 17)),
            (lattice(2, 5, 7), ground_state(lattice(2, 5, 7))),
        ],
        ids=["ising-2x2", "random-3q-y-terms", "wide-10q"],
    )
    def test_same_outcomes_and_stream(self, obs, state):
        groups = build_group_cover(obs).groups
        table = _pauli_actions(obs.strings())
        rng_given = np.random.default_rng(11)
        rng_alone = np.random.default_rng(11)
        for shot in range(200):
            g = shot % len(groups)
            given = sample_group_shot(state, obs, groups[g], rng_given, table=table)
            assert given.values == sample_group_shot(
                state, obs, groups[g], rng_alone
            ).values
        assert rng_given.random() == rng_alone.random()

    def test_table_rows_act_as_apply_pauli(self):
        obs = parse_observable(Y_TERMS_TEXT)
        v = random_state(3, 17).amplitudes
        src, factor = _pauli_actions(obs.strings())
        for k, s in enumerate(obs.strings()):
            assert np.array_equal(factor[k] * v[src[k]], apply_pauli(s, v))

    @pytest.mark.parametrize(
        "obs",
        [parse_observable(Y_TERMS_TEXT), load_builtin("ising-2x3"), lattice(2, 5, 7)],
        ids=["random-3q-y-terms", "ising-2x3", "wide-10q"],
    )
    def test_table_bytes_match_per_string_formula(self, obs):
        # -0.0 and 0.0 differ here, so bytes are compared, not values
        src, factor = _pauli_actions(obs.strings())
        idx = np.arange(1 << obs.width, dtype=np.int64)
        for k, s in enumerate(obs.strings()):
            perm = idx ^ s.x_mask
            signs = 1.0 - 2.0 * (np.bitwise_count(perm & s.z_mask) & 1)
            phase = 1j ** (s.x_mask & s.z_mask).bit_count()
            assert src[k].tobytes() == perm.tobytes()
            assert factor[k].tobytes() == (phase * signs).tobytes()

    def test_table_of_another_observable_refused(self):
        obs = parse_observable(TOY_TEXT)
        state = ground_state(obs)
        rng = np.random.default_rng(0)
        other = parse_observable("1.0 IZ\n1.0 ZI")
        with pytest.raises(InvalidInputError):
            sample_group_shot(
                state, obs, [0, 1], rng, table=_pauli_actions(other.strings())
            )

    @pytest.mark.parametrize(
        "group", [[-1], [0, 0], (), [True], [15], [1.0]],
        ids=["negative", "repeated", "empty", "bool", "out-of-range", "float"],
    )
    def test_table_path_refuses_bad_indices(self, group):
        # the indices are checked on the table path too, before any draw
        obs = load_builtin("ising-1x2")
        table = _pauli_actions(obs.strings())
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            sample_group_shot(ground_state(obs), obs, group, rng, table=table)
        assert rng.random() == np.random.default_rng(0).random()

    def test_commutation_checked_when_building(self):
        obs = parse_observable("1.0 X\n1.0 Z")
        state = StateVector([1.0, 0.0])
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidInputError):
            sample_group_shot(state, obs, [0, 1], rng)
        with pytest.raises(InvalidInputError):
            sample_group_shot(state, obs, [], rng)

    @pytest.mark.parametrize(
        "group", [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (1, 2, 3, 4), (2, 3, 4, 1), (0, 3)]
    )
    def test_refusal_names_the_first_clashing_pair(self, group):
        # pairs in ascending index order, lower index first: the first that
        # does not commute is the one the message names
        obs = parse_observable(TOY_TEXT)
        strings = [obs.terms[i].string for i in sorted(group)]
        a, b = next(
            (a, b)
            for a, b in itertools.combinations(strings, 2)
            if not commutes(a, b)
        )
        with pytest.raises(InvalidInputError) as err:
            sample_group_shot(ground_state(obs), obs, group, np.random.default_rng(0))
        assert str(err.value) == f"group is not commuting: {a.letters} vs {b.letters}"


class TestDoubleShotOracle:
    """The Bell-table sampler against projection of the doubled state."""

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_doubled_strings_always_commute(self, width):
        strings = ["".join(p) for p in itertools.product("IXYZ", repeat=width)]
        for a, b in itertools.combinations(strings, 2):
            assert commutes(PauliString(a * 2), PauliString(b * 2)) is True

    @pytest.mark.parametrize(
        "obs, state",
        [
            (load_builtin("toy-fig1"), ground_state(load_builtin("toy-fig1"))),
            (load_builtin("ising-1x2"), ground_state(load_builtin("ising-1x2"))),
            (parse_observable(Y_TERMS_TEXT), random_state(3, 17)),
        ],
        ids=["toy-fig1", "ising-1x2", "random-3q-y-terms"],
    )
    def test_same_outcomes_and_stream_as_dense_oracle(self, obs, state):
        rng_bell = np.random.default_rng(2024)
        rng_dense = np.random.default_rng(2024)
        for _ in range(250):
            values = sample_double_shot(state, obs, rng_bell).values
            assert values == dense_double_shot(state, obs, rng_dense)
        assert rng_bell.random() == rng_dense.random()

    @pytest.mark.parametrize("name", ["ising-1x2", "ising-2x3"])
    def test_bell_table_marginals_are_squared_expectations(self, name):
        obs = load_builtin(name)
        state = ground_state(obs)
        n = obs.width
        table = _bell_table(state)
        assert table.shape == (1 << n, 1 << n)
        assert table.sum() == pytest.approx(1.0, abs=1e-12)
        x = np.arange(1 << n)[:, None]
        z = np.arange(1 << n)[None, :]
        for t in obs.terms:
            s = t.string
            omega = np.bitwise_count(s.x_mask & z) + np.bitwise_count(s.z_mask & x)
            n_y = (s.x_mask & s.z_mask).bit_count()
            sign = 1.0 - 2.0 * ((omega + n_y) & 1)
            assert float((sign * table).sum()) == pytest.approx(
                expectation(state, s) ** 2, abs=1e-12
            )

    def test_ten_qubit_shot_memory(self):
        letters = np.random.default_rng(3).choice(list("IXYZ"), size=(40, 10))
        text = "\n".join(f"1.0 {''.join(row)}" for row in letters)
        obs = parse_observable(text)
        state = random_state(10, 5)
        tracemalloc.start()
        try:
            outcome = sample_double_shot(state, obs, np.random.default_rng(0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sorted(outcome.values) == list(range(obs.num_terms))
        assert peak < 200e6


class TestReproducibility:
    def test_identical_seeds_identical_streams(self):
        obs = parse_observable(TOY_TEXT)
        state = ground_state(obs)

        def stream(seed):
            rng = np.random.default_rng(seed)
            out = []
            for _ in range(50):
                out.append(tuple(sorted(sample_group_shot(state, obs, [2, 3, 4], rng).values.items())))
                out.append(tuple(sorted(sample_double_shot(state, obs, rng).values.items())))
            return out

        assert stream(123) == stream(123)
        assert stream(123) != stream(124)


class TestStateFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "state.txt"
        path.write_text("# amplitudes\n0.6 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.8\n")
        state = load_state_file(path)
        assert state.width == 2
        assert np.allclose(state.amplitudes, [0.6, 0, 0, 0.8j])

    def test_norm_checked(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 0.0\n1.0 0.0\n")
        with pytest.raises(InvalidInputError):
            load_state_file(path)

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("1.0 0.0\n0.0 0.0\n")
        with pytest.raises(InvalidInputError):
            load_state_file(path, width=2)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\n")
        with pytest.raises(InvalidInputError):
            load_state_file(path)
