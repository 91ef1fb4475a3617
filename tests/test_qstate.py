"""State-engine tests: gate application, measurement, fidelity, phase equality.

Expected vectors for the encoded-resource cases were worked out by hand from
the operation matrices under the package conventions (qubit 1 most
significant, |e> -> bit 0).
"""

import dataclasses
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdc.qstate import (
    COMPUTATIONAL,
    I_SIGMA_Y,
    IDENTITY,
    PLUS_MINUS,
    SIGMA_X,
    SIGMA_Z,
    Y_BASIS,
    MeasurementBasis,
    MeasurementOutcome,
    QuantumState,
    apply_gate,
    apply_two_qubit,
    basis_amplitudes,
    collapse,
    measure,
    outcome_distribution,
)
from oracles import (
    allclose,
    amplitude,
    basis_state,
    born_probabilities,
    fidelity,
    global_phase_equal,
    norm,
)

SQ2 = 1 / np.sqrt(2)


def ghz_state() -> QuantumState:
    amps = np.zeros(8, dtype=complex)
    amps[0b000] = SQ2
    amps[0b111] = 1j * SQ2
    return QuantumState(amps)


def random_state(rng, n) -> QuantumState:
    amps = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return QuantumState(amps / np.linalg.norm(amps))


def random_unitary(rng, dim) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestQuantumState:
    def test_basis_state_indexing(self):
        s = basis_state("egg")
        assert s.amplitudes[0b011] == 1.0  # qubit 1 is the most significant bit

    def test_amplitude_indexes_valid_labels(self):
        s = basis_state("eeg")
        assert amplitude(s, "eeg") == 1.0
        assert amplitude(s, "gee") == 0.0
        assert amplitude(ghz_state(), "eee") == SQ2
        assert amplitude(ghz_state(), "ggg") == 1j * SQ2

    @pytest.mark.parametrize("label", ["eex", "EEG", "e g"])
    def test_amplitude_rejects_other_characters(self, label):
        with pytest.raises(ValueError):
            amplitude(basis_state("eeg"), label)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            QuantumState([1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            QuantumState([np.nan, 0.0])

    def test_amplitudes_read_only(self):
        s = ghz_state()
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0


class TestApplyGate:
    def test_identity_leaves_state(self):
        s = ghz_state()
        assert allclose(apply_gate(s, IDENTITY, 1), s)

    def test_sigma_x_on_qubit_one_of_ghz(self):
        """sigma_x flips the first atom: -> (|gee> + i|egg>)/sqrt(2)."""
        out = apply_gate(ghz_state(), SIGMA_X, 1)
        expected = np.zeros(8, dtype=complex)
        expected[0b100] = SQ2
        expected[0b011] = 1j * SQ2
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_sigma_z_on_qubit_one_of_ghz(self):
        """sigma_z leaves |e> and negates |g>: -> (|eee> - i|ggg>)/sqrt(2)."""
        out = apply_gate(ghz_state(), SIGMA_Z, 1)
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = SQ2
        expected[0b111] = -1j * SQ2
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_qubit_out_of_range(self):
        with pytest.raises(ValueError):
            apply_gate(ghz_state(), SIGMA_X, 4)

    def test_non_unitary_rejected(self):
        with pytest.raises(ValueError):
            apply_gate(ghz_state(), np.array([[1, 0], [0, 2]]), 1)

    def test_norm_preserved_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s = random_state(rng, 3)
            u = random_unitary(rng, 2)
            out = apply_gate(s, u, int(rng.integers(1, 4)))
            assert abs(norm(out) ** 2 - 1.0) < 1e-10

    def test_inverse_returns_original(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            s = random_state(rng, 4)
            u = random_unitary(rng, 2)
            q = int(rng.integers(1, 5))
            back = apply_gate(apply_gate(s, u, q), u.conj().T, q)
            assert allclose(back, s, tol=1e-10)


class TestApplyTwoQubit:
    def test_identity(self):
        s = ghz_state()
        assert allclose(apply_two_qubit(s, np.eye(4), (1, 2)), s)

    def test_swap_on_basis_state(self):
        swap = np.eye(4)[[0, 2, 1, 3]]
        out = apply_two_qubit(basis_state("eg"), swap, (1, 2))
        assert allclose(out, basis_state("ge"))

    def test_acts_on_named_pair_only(self):
        rng = np.random.default_rng(17)
        s = random_state(rng, 3)
        u = random_unitary(rng, 4)
        # Same unitary through the (2, 3) path and through an explicit kron.
        out = apply_two_qubit(s, u, (2, 3))
        full = np.kron(np.eye(2), u)
        assert np.max(np.abs(out.amplitudes - full @ s.amplitudes)) < 1e-12

    def test_ordered_pair_matters(self):
        rng = np.random.default_rng(19)
        s = random_state(rng, 2)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        a = apply_two_qubit(s, cnot, (1, 2))
        b = apply_two_qubit(s, cnot, (2, 1))
        assert not allclose(a, b, tol=1e-6)

    def test_same_qubit_rejected(self):
        with pytest.raises(ValueError):
            apply_two_qubit(ghz_state(), np.eye(4), (2, 2))

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            s = random_state(rng, 4)
            u = random_unitary(rng, 4)
            pair = tuple(rng.choice(np.arange(1, 5), size=2, replace=False))
            back = apply_two_qubit(apply_two_qubit(s, u, pair), u.conj().T, pair)
            assert allclose(back, s, tol=1e-10)


class TestMeasurement:
    def test_outcome_stores_what_measure_computed(self):
        """The qubit and basis are the caller's own arguments, and ``collapse`` gives the
        probability; the outcome holds the result."""
        assert [f.name for f in dataclasses.fields(MeasurementOutcome)] == ["result"]

    def test_eigenstate_is_deterministic(self):
        plus = QuantumState(np.array([SQ2, SQ2]))
        outcome, post = measure(plus, 1, PLUS_MINUS, 0.999999)
        assert outcome.result == 0
        assert collapse(plus, 1, PLUS_MINUS, 0)[0] == pytest.approx(1.0, abs=1e-10)
        assert allclose(post, plus)

    def test_ghz_marginal_is_uniform(self):
        p0, p1 = born_probabilities(ghz_state(), 1, COMPUTATIONAL)
        assert p0 == pytest.approx(0.5, abs=1e-10)
        assert p1 == pytest.approx(0.5, abs=1e-10)

    def test_outcome_probabilities_sum_to_one(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            s = random_state(rng, 3)
            for basis in (COMPUTATIONAL, PLUS_MINUS, Y_BASIS):
                p0, p1 = born_probabilities(s, int(rng.integers(1, 4)), basis)
                assert p0 + p1 == pytest.approx(1.0, abs=1e-10)

    def test_deterministic_given_rand(self):
        rng = np.random.default_rng(31)
        s = random_state(rng, 3)
        a = measure(s, 2, Y_BASIS, 0.37)
        b = measure(s, 2, Y_BASIS, 0.37)
        assert a[0] == b[0]
        assert allclose(a[1], b[1])

    def test_collapse_then_remeasure_is_certain(self):
        rng = np.random.default_rng(37)
        s = random_state(rng, 3)
        outcome, post = measure(s, 3, PLUS_MINUS, 0.5)
        p = born_probabilities(post, 3, PLUS_MINUS)[outcome.result]
        assert p == pytest.approx(1.0, abs=1e-10)

    def test_basis_change_consistency(self):
        """Measuring in a basis equals rotating into it, then measuring computationally."""
        rng = np.random.default_rng(41)
        for basis in (PLUS_MINUS, Y_BASIS):
            s = random_state(rng, 3)
            direct = born_probabilities(s, 2, basis)
            rotated = apply_gate(s, basis.rotation_gate(), 2)
            via_rotation = born_probabilities(rotated, 2, COMPUTATIONAL)
            assert direct == pytest.approx(via_rotation, abs=1e-10)

    def test_unnormalized_input_rejected(self):
        s = QuantumState(np.array([1.0, 1.0], dtype=complex))
        with pytest.raises(ValueError):
            measure(s, 1, COMPUTATIONAL, 0.5)

    def test_collapse_zero_probability_branch_rejected(self):
        with pytest.raises(ValueError):
            collapse(basis_state("e"), 1, COMPUTATIONAL, 1)


def product_bra_probabilities(state: QuantumState, bases) -> np.ndarray:
    """Oracle: |<r_1 ... r_k ; x|psi>|^2 from explicit product bras, summed over x.

    x runs over the computational states of the qubits with no basis
    (``None`` entries and qubits past ``len(bases)``).
    """
    n = state.num_qubits
    bases = list(bases) + [None] * (n - len(bases))
    measured = [q for q in range(n) if bases[q] is not None]
    probs = np.zeros((2,) * len(measured))
    for results in product((0, 1), repeat=len(measured)):
        for rest in product((0, 1), repeat=n - len(measured)):
            picks = dict(zip(measured, results))
            free = iter(rest)
            bra = np.ones(1, dtype=complex)
            for q in range(n):
                if bases[q] is None:
                    factor = np.eye(2)[next(free)]
                else:
                    factor = bases[q].matrix()[picks[q]].conj()
                bra = np.kron(bra, factor)
            probs[results] += abs(bra @ state.amplitudes) ** 2
    return probs


class TestOutcomeDistribution:
    CHOICES = (COMPUTATIONAL, PLUS_MINUS, Y_BASIS, None)

    def test_matches_product_bra_enumeration(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            s = random_state(rng, 4)
            # Three bases on four qubits: qubit 4 is always summed out.
            bases = [self.CHOICES[i] for i in rng.integers(len(self.CHOICES), size=3)]
            got = outcome_distribution(s, bases)
            want = product_bra_probabilities(s, bases)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) < 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            s = random_state(rng, 4)
            bases = [self.CHOICES[i] for i in rng.integers(len(self.CHOICES), size=4)]
            assert outcome_distribution(s, bases).sum() == pytest.approx(1.0, abs=1e-12)

    def test_marginals_agree_with_born_probabilities(self):
        rng = np.random.default_rng(53)
        s = random_state(rng, 4)
        for basis in (COMPUTATIONAL, PLUS_MINUS, Y_BASIS):
            joint = outcome_distribution(s, [basis] * 4)
            for qubit in range(1, 5):
                others = tuple(axis for axis in range(4) if axis != qubit - 1)
                marginal = joint.sum(axis=others)
                assert marginal == pytest.approx(born_probabilities(s, qubit, basis), abs=1e-12)

    def test_more_bases_than_qubits_rejected(self):
        with pytest.raises(ValueError):
            outcome_distribution(ghz_state(), [COMPUTATIONAL] * 4)


def embed(n, factors) -> np.ndarray:
    """Oracle: the full 2^n x 2^n operator with ``factors[q]`` (1-based) on qubit q, I elsewhere."""
    full = np.ones((1, 1), dtype=complex)
    for q in range(1, n + 1):
        full = np.kron(full, factors.get(q, IDENTITY))
    return full


def embed_pair(n, unitary, qa, qb) -> np.ndarray:
    """Oracle: a 4x4 unitary on the ordered pair (qa, qb), as a sum of Kronecker chains."""
    full = np.zeros((2**n, 2**n), dtype=complex)
    for oa, ob, ia, ib in product((0, 1), repeat=4):
        full += unitary[2 * oa + ob, 2 * ia + ib] * embed(
            n, {qa: np.outer(np.eye(2)[oa], np.eye(2)[ia]), qb: np.outer(np.eye(2)[ob], np.eye(2)[ib])}
        )
    return full


KERNEL_ORACLE = settings(derandomize=True, max_examples=150, deadline=None)


@st.composite
def kernel_cases(draw, min_qubits=1):
    """A random normalized state on 1..7 qubits, a qubit of it, and a measurement basis."""
    n = draw(st.integers(min_qubits, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = random_state(rng, n)
    qubit = draw(st.integers(1, n))
    basis = draw(st.sampled_from((COMPUTATIONAL, PLUS_MINUS, Y_BASIS, None)))
    if basis is None:  # a random orthonormal basis
        rows = random_unitary(rng, 2)
        basis = MeasurementBasis("random", tuple(tuple(complex(x) for x in row) for row in rows))
    return rng, state, qubit, basis


class TestKernelOracle:
    """Every state kernel against a full Kronecker-product matrix, to 1e-12."""

    @KERNEL_ORACLE
    @given(kernel_cases())
    def test_apply_gate(self, case):
        rng, state, qubit, _ = case
        gate = random_unitary(rng, 2)
        expected = embed(state.num_qubits, {qubit: gate}) @ state.amplitudes
        assert np.max(np.abs(apply_gate(state, gate, qubit).amplitudes - expected)) <= 1e-12

    @KERNEL_ORACLE
    @given(kernel_cases(min_qubits=2), st.data())
    def test_apply_two_qubit_both_orders(self, case, data):
        rng, state, qa, _ = case
        qb = data.draw(st.integers(1, state.num_qubits).filter(lambda q: q != qa))
        u = random_unitary(rng, 4)
        for pair in ((qa, qb), (qb, qa)):
            expected = embed_pair(state.num_qubits, u, *pair) @ state.amplitudes
            got = apply_two_qubit(state, u, pair).amplitudes
            assert np.max(np.abs(got - expected)) <= 1e-12

    @KERNEL_ORACLE
    @given(kernel_cases(), st.data())
    def test_basis_amplitudes(self, case, data):
        _, state, _, basis = case
        n = state.num_qubits
        choices = (COMPUTATIONAL, PLUS_MINUS, Y_BASIS, basis, None)
        bases = data.draw(st.lists(st.sampled_from(choices), max_size=n))
        rotation = embed(n, {q + 1: b.matrix().conj() for q, b in enumerate(bases) if b is not None})
        expected = (rotation @ state.amplitudes).reshape((2,) * n)
        assert np.max(np.abs(basis_amplitudes(state, bases) - expected)) <= 1e-12

    @KERNEL_ORACLE
    @given(kernel_cases())
    def test_collapse_and_both_measure_branches(self, case):
        _, state, qubit, basis = case
        n = state.num_qubits
        p0 = collapse(state, qubit, basis, 0)[0]
        for result in (0, 1):
            ket = basis.matrix()[result]
            branch = embed(n, {qubit: np.outer(ket, ket.conj())}) @ state.amplitudes
            prob = float(np.vdot(branch, branch).real)
            expected = branch / np.sqrt(prob)
            got_prob, got = collapse(state, qubit, basis, result)
            assert abs(got_prob - prob) <= 1e-12
            assert np.max(np.abs(got.amplitudes - expected)) <= 1e-12
            # The draw rule: result 0 exactly when rand < p0.
            for rand in ((np.nextafter(p0, 0.0),) if result == 0 else (p0, np.nextafter(p0, 1.0))):
                outcome, post = measure(state, qubit, basis, float(rand))
                assert outcome.result == result
                assert np.array_equal(post.amplitudes, got.amplitudes)  # collapse's post-state
                assert np.max(np.abs(post.amplitudes - expected)) <= 1e-12

    @KERNEL_ORACLE
    @given(kernel_cases(), st.sampled_from((1 - 1e-6, 1 + 1e-6)))
    def test_unnormalized_state_rejected(self, case, scale):
        _, state, qubit, basis = case
        scaled = QuantumState(state.amplitudes * scale)
        with pytest.raises(ValueError, match="normalized"):
            measure(scaled, qubit, basis, 0.5)


class TestFidelity:
    def test_self_fidelity_is_one(self):
        s = ghz_state()
        assert fidelity(s, s) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_states(self):
        assert fidelity(basis_state("e"), basis_state("g")) == 0.0

    def test_half_overlap(self):
        plus = QuantumState(np.array([SQ2, SQ2]))
        assert fidelity(basis_state("e"), plus) == pytest.approx(0.5, abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(43)
        a, b = random_state(rng, 3), random_state(rng, 3)
        assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(basis_state("e"), basis_state("ee"))


class TestGlobalPhaseEqual:
    def test_phase_rotation_is_equal(self):
        s = ghz_state()
        rotated = QuantumState(np.exp(-1j * np.pi / 4) * s.amplitudes)
        assert global_phase_equal(s, rotated, 1e-10)

    def test_distinct_states_not_equal(self):
        assert not global_phase_equal(
            basis_state("e"), basis_state("g"), 1e-10
        )

    def test_relative_phase_detected(self):
        a = QuantumState(np.array([SQ2, SQ2]))
        b = QuantumState(np.array([SQ2, -SQ2]))
        assert not global_phase_equal(a, b, 1e-10)


class TestBasisDefinitions:
    @pytest.mark.parametrize("basis", [COMPUTATIONAL, PLUS_MINUS, Y_BASIS])
    def test_orthonormal(self, basis):
        m = basis.matrix()
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-10

    def test_bad_basis_rejected(self):
        with pytest.raises(ValueError):
            MeasurementBasis("bad", ((1, 0), (1, 0)))

    def test_i_sigma_y_is_sigma_z_sigma_x(self):
        assert np.array_equal(I_SIGMA_Y, SIGMA_Z @ SIGMA_X)
