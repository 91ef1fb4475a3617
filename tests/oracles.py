"""Test-only references: the paper's two atom-pair generators, the dense atoms (x)
cavity generator, single-qubit Born probabilities, the Born-rule enumeration of a
message round, the ancilla attack's Holevo chi, its Holevo quantity from LAPACK
spectra, fine-grid information and eigenbasis readout, the timing error by
simulation, basis states by label, state comparisons (norm, fidelity, entrywise and
up to a global phase), and numpy's generator for the per-round streams."""

import math

import numpy as np

from ghzdc import _check_count
from ghzdc.adversary import attach_ancilla
from ghzdc.cavity import CavityParams, FockSpace, PulseParams, effective_unitary
from ghzdc.protocol import SIGNS, DecodeKey, EncodingOp, bob_interaction, encode, prepare_ghz
from ghzdc.qstate import (
    COMPUTATIONAL,
    IDENTITY,
    PLUS_MINUS,
    SIGMA_X,
    TOL_EQ,
    TOL_UNITARY,
    QuantumState,
    apply_two_qubit,
    basis_amplitudes,
    outcome_distribution,
)

S_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)   # |e><g|
S_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)  # |g><e|


def regime_ok(params: CavityParams) -> bool:
    """Whether the strong-driving (Omega >= 10 delta) and dispersive (delta >= 10 g) conditions hold."""
    return params.omega_rabi >= 10.0 * params.delta and params.delta >= 10.0 * params.g


def drive_hamiltonian(params: CavityParams) -> np.ndarray:
    """Classical-drive generator Omega * (sx (x) I + I (x) sx) on the atom pair."""
    return params.omega_rabi * (np.kron(SIGMA_X, IDENTITY) + np.kron(IDENTITY, SIGMA_X))


def effective_hamiltonian(params: CavityParams) -> np.ndarray:
    """Dispersive generator lambda (I + sx (x) sx), the paper's form as in ``effective_unitary``."""
    return params.dispersive_coupling * (np.eye(4) + np.kron(SIGMA_X, SIGMA_X))


def evolution_operator(params: CavityParams, t: float) -> np.ndarray:
    """Ordered product exp(-i H_drive t) exp(-i H_eff t) on the atom pair."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return _propagator(drive_hamiltonian(params), t) @ _propagator(effective_hamiltonian(params), t)


def _propagator(h: np.ndarray, t: float) -> np.ndarray:
    # exp(-i h t) of a Hermitian generator, from its eigendecomposition.
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def dense_hamiltonian(params: CavityParams, fock: FockSpace) -> np.ndarray:
    """Driven two-atom Tavis-Cummings generator in the drive rotating frame, as one dense matrix.

    Ordering is atoms (x) cavity with the atom pair index major.  The drive is
    resonant with the atoms, so in this frame the bare terms leave ``-delta n``
    on every pair state, plus the exchange coupling and the now-static drive.
    Every matrix element is real, so the generator is returned as a real
    symmetric ``float64`` array.
    """
    nc = fock.levels
    n = np.arange(nc)
    h = np.diag(np.tile(-params.delta * n.astype(float), 4))
    exchange = params.g * np.sqrt(n[1:])
    for pair in range(4):
        for bit in (2, 1):  # atom 1 is the most significant bit of the pair index
            flipped = pair ^ bit
            h[pair * nc + n, flipped * nc + n] = params.omega_rabi
            if not pair & bit:
                # The atom is excited in ``pair``: S-_j a^dagger takes |pair, m> to
                # |flipped, m+1> with amplitude g sqrt(m+1); S+_j a is its transpose.
                h[flipped * nc + n[1:], pair * nc + n[:-1]] = exchange
                h[pair * nc + n[:-1], flipped * nc + n[1:]] = exchange
    return h


def born_probabilities(state, qubit: int, basis) -> tuple[float, float]:
    """Probabilities of the two outcomes of measuring one qubit in the basis."""
    before = _check_count("qubit", qubit, 1, state.num_qubits) - 1
    p0, p1 = outcome_distribution(state, [None] * before + [basis])
    return float(p0), float(p1)


def born_decode_distribution(op: EncodingOp) -> dict[DecodeKey, float]:
    """Joint (pair, sign) distribution of one message round, by Born-rule enumeration."""
    state = bob_interaction(encode(prepare_ghz(2), op), (1, 2))
    probs = outcome_distribution(state, (COMPUTATIONAL, COMPUTATIONAL, PLUS_MINUS))
    return {DecodeKey("eg"[b1] + "eg"[b2], SIGNS[s]): float(p) for (b1, b2, s), p in np.ndenumerate(probs)}


def trace_distances(rho: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """0.5 sum|eig(rho - targets)| over the last two axes, by complex LAPACK's ``eigvalsh``."""
    return 0.5 * np.abs(np.linalg.eigvalsh(rho - targets)).sum(axis=-1)


def ancilla_ensemble(theta: float) -> np.ndarray:
    """Sub-normalized ancilla ket per decode key of an attacked message round, shape (8, 2).

    Read from the state vector of the attacked, interacted resource: the
    receiver pair stays computational, the partner's share turns to the +/-
    basis by a Hadamard, keys in (q1, q2, sign) order, ancilla (e, g) last.
    """
    attacked = bob_interaction(attach_ancilla(prepare_ghz(2), theta), (1, 2))
    amps = attacked.amplitudes.reshape(2, 2, 2, 2)
    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    return np.einsum("st,abtc->absc", hadamard, amps).reshape(8, 2)


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    """-sum p log2 p over the positive entries."""
    p = eigenvalues[eigenvalues > 0.0]
    return float(-(p * np.log2(p)).sum())


def holevo_chi(theta: float) -> float:
    """Holevo chi (bits) of the ancilla ensemble: its states are pure, so chi is the
    entropy of their mixture, the ancilla's reduced state."""
    kets = ancilla_ensemble(theta)
    return _entropy_bits(np.linalg.eigvalsh(kets.T @ kets.conj()))


def holevo_by_eigvalsh(theta: float) -> float:
    """``adversary.ancilla_attack_tradeoff`` with every 2x2 spectrum from LAPACK's ``eigvalsh``:
    H(eig sum_k rho_k) + H(w) - H(eig rho_k) over the same sub-normalized rho_k per decode key."""
    evolved = bob_interaction(attach_ancilla(prepare_ghz(2), theta), (1, 2))
    rotated = basis_amplitudes(evolved, (None, None, PLUS_MINUS))  # (q1, q2, sign, anc)
    rhos = (rotated[..., :, None] * rotated[..., None, :].conj()).reshape(8, 2, 2)
    weights = np.real(np.trace(rhos, axis1=1, axis2=2))
    return (_entropy_bits(np.linalg.eigvalsh(rhos.sum(axis=0))) + _entropy_bits(weights)
            - _entropy_bits(np.linalg.eigvalsh(rhos)))


def fine_grid_information(theta: float) -> float:
    """Max over a 181 x 361 polar-azimuth grid of readout directions of the mutual
    information (bits) between the decode key and the ancilla's two-outcome readout.

    The readout's first ket along (polar p, azimuth a) is (cos(p/2), e^{ia} sin(p/2)).
    """
    kets = ancilla_ensemble(theta)
    polar, azimuth = np.meshgrid(
        np.linspace(0.0, np.pi, 181), np.linspace(0.0, 2.0 * np.pi, 361), indexing="ij")
    bra = np.stack([np.cos(polar / 2), np.exp(-1j * azimuth) * np.sin(polar / 2)], axis=-1)
    weights = (np.abs(kets) ** 2).sum(axis=1)
    first = np.abs(bra.reshape(-1, 2) @ kets.T) ** 2  # (directions, keys)
    joint = np.stack([first, np.clip(weights - first, 0.0, None)], axis=-1)
    marginal = joint.sum(axis=1, keepdims=True)
    # Empty cells add 0 log 1.
    ratio = np.divide(joint, weights[None, :, None] * marginal, out=np.ones_like(joint), where=joint > 0.0)
    return float((joint * np.log2(ratio)).sum(axis=(1, 2)).max())


def eigenbasis_readout_information(theta: float) -> float:
    """Mutual information (bits) between the decode key and a projective ancilla readout
    in the eigenbasis of the key-averaged ancilla state.

    At theta = pi/2 that state is I/2, so every basis is an eigenbasis; there the
    readout takes the heaviest key's own state and its orthogonal ket, the Bloch axis
    that every key's state lies on.
    """
    kets = ancilla_ensemble(theta)
    weights = (np.abs(kets) ** 2).sum(axis=1)
    eigenvalues, readout = np.linalg.eigh(kets.T @ kets.conj())  # readout kets as columns
    if eigenvalues[1] - eigenvalues[0] < 1e-12:
        first = kets[np.argmax(weights)] / math.sqrt(weights.max())
        readout = np.array([first, [-first[1].conjugate(), first[0].conjugate()]]).T
    joint = np.abs(kets @ readout.conj()) ** 2  # (keys, results)
    marginal = joint.sum(axis=0, keepdims=True)
    # Empty cells add 0 log 1.
    ratio = np.divide(joint, weights[:, None] * marginal, out=np.ones_like(joint), where=joint > 0.0)
    return float((joint * np.log2(ratio)).sum())


def binary_entropy(p: float) -> float:
    """h2(p) in bits, 0 at p = 0 and p = 1."""
    return float(sum(-q * np.log2(q) for q in (p, 1.0 - p) if q > 0.0))


def timing_error_simulation(epsilon: float) -> float:
    """Worst squared overlap, over the four encoded inputs, of the canonical pulse's output
    with the output of a pulse whose coupling angle is (1 + epsilon) pi/4 (drive angle pi)."""
    perturbed = effective_unitary(PulseParams(lambda_t=(1.0 + epsilon) * np.pi / 4, omega_t=np.pi))
    encoded = (encode(prepare_ghz(2), op) for op in EncodingOp)
    pair = (1, 2)
    return min(fidelity(bob_interaction(s, pair), apply_two_qubit(s, perturbed, pair)) for s in encoded)


def norm(state: QuantumState) -> float:
    """Euclidean norm of the amplitude vector."""
    return float(np.linalg.norm(state.amplitudes))


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """Squared overlap |<a|b>|^2 of two normalized states."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("fidelity requires equal qubit counts")
    for s in (a, b):
        if abs(norm(s) - 1.0) > TOL_UNITARY:
            raise ValueError("fidelity requires normalized states")
    val = float(np.abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)
    return min(val, 1.0)


def _basis_index(label: str) -> int:
    """Amplitude index of an 'e'/'g' label, qubit 1 most significant and |e> -> 0."""
    if not label or set(label) - {"e", "g"}:
        raise ValueError(f"basis label must use only 'e' and 'g', got {label!r}")
    return int(label.replace("e", "0").replace("g", "1"), 2)


def basis_state(label: str) -> QuantumState:
    """Computational basis state from a string of 'e'/'g' characters, qubit 1 first."""
    amps = np.zeros(2 ** len(label), dtype=complex)
    amps[_basis_index(label)] = 1.0
    return QuantumState(amps)


def amplitude(state: QuantumState, label: str) -> complex:
    """Amplitude of the given computational basis string."""
    if len(label) != state.num_qubits:
        raise ValueError(f"label {label!r} does not match {state.num_qubits} qubits")
    return complex(state.amplitudes[_basis_index(label)])


def allclose(a: QuantumState, b: QuantumState, tol: float = TOL_EQ) -> bool:
    """Equal qubit counts and every amplitude within tol."""
    return a.num_qubits == b.num_qubits and bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol)


def global_phase_equal(a: QuantumState, b: QuantumState, tol: float = TOL_EQ) -> bool:
    """True when a equals exp(i*theta)*b for some real theta, within tol."""
    if a.num_qubits != b.num_qubits:
        raise ValueError("states must have equal qubit counts")
    overlap = np.vdot(b.amplitudes, a.amplitudes)
    if abs(overlap) < tol:
        return bool(np.max(np.abs(a.amplitudes - b.amplitudes)) <= tol)
    phase = overlap / abs(overlap)
    return bool(np.max(np.abs(a.amplitudes - phase * b.amplitudes)) <= tol)


def numpy_round_rng(seed: int, round_index: int, stream: int = 0) -> np.random.Generator:
    """numpy's generator for a (seed, round, stream) triple: the replay rule that
    ``protocol.round_rng`` reproduces bit for bit."""
    return np.random.default_rng(np.random.SeedSequence((seed, round_index, stream)))


def numpy_pcg64(state: int, inc: int) -> np.random.Generator:
    """numpy's generator on a raw PCG64 state and increment, with no 32-bit draw buffered."""
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0,
    }
    return rng
