"""Test-only references: the paper's two atom-pair generators, single-qubit Born
probabilities, and the Born-rule enumeration of a message round."""

import numpy as np

from ghzdc.cavity import CavityParams
from ghzdc.protocol import SIGNS, DecodeKey, EncodingOp, bob_interaction, encode, prepare_ghz
from ghzdc.qstate import COMPUTATIONAL, IDENTITY, PLUS_MINUS, SIGMA_X, _check_qubit, outcome_distribution

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


def born_probabilities(state, qubit: int, basis) -> tuple[float, float]:
    """Probabilities of the two outcomes of measuring one qubit in the basis."""
    p0, p1 = outcome_distribution(state, [None] * _check_qubit(state, qubit) + [basis])
    return float(p0), float(p1)


def born_decode_distribution(op: EncodingOp) -> dict[DecodeKey, float]:
    """Joint (pair, sign) distribution of one message round, by Born-rule enumeration."""
    state = bob_interaction(encode(prepare_ghz(), op))
    probs = outcome_distribution(state, (COMPUTATIONAL, COMPUTATIONAL, PLUS_MINUS))
    return {DecodeKey("eg"[b1] + "eg"[b2], SIGNS[s]): float(p) for (b1, b2, s), p in np.ndenumerate(probs)}
