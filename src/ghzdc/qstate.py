"""Dense state-vector engine for small atomic-qubit registers.

Conventions used everywhere in this package:

- Qubit 1 is the *most significant* bit of the basis-state index, so for a
  three-qubit register the amplitude order is
  ``|eee>, |eeg>, |ege>, ..., |ggg>``.
- The excited level ``|e>`` maps to bit 0 and the ground level ``|g>`` to
  bit 1, which makes ``sigma_z |e> = +|e>``.
- Amplitudes are plain complex doubles; all operations are pure functions
  returning new states, so values can be shared freely across threads.
- No hidden randomness: measurement consumes an explicit uniform draw in
  ``[0, 1)``, which keeps every transcript replayable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import _check_count

# Amplitude/probability equality tolerance; input-validation unitarity tolerance.
TOL_EQ = 1e-10
TOL_UNITARY = 1e-8

SQRT_HALF = 1.0 / np.sqrt(2.0)

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# i*sigma_y == sigma_z @ sigma_x; real-valued representative of the y rotation.
I_SIGMA_Y = np.array([[0, 1], [-1, 0]], dtype=complex)


class QuantumState:
    """Immutable normalized amplitude vector over an ordered qubit register."""

    __slots__ = ("num_qubits", "_amps")

    def __init__(self, amplitudes):
        amps = np.array(amplitudes, dtype=complex)
        if amps.ndim != 1 or amps.size < 2 or amps.size & (amps.size - 1):
            raise ValueError(f"amplitude vector length {amps.size} is not a power of two >= 2")
        if not np.all(np.isfinite(amps.view(float))):
            raise ValueError("amplitudes must be finite")
        amps.setflags(write=False)
        self.num_qubits = int(amps.size).bit_length() - 1
        self._amps = amps

    @property
    def amplitudes(self) -> np.ndarray:
        """Read-only view of the amplitude vector."""
        return self._amps

    @classmethod
    def _from_trusted(cls, amps: np.ndarray) -> "QuantumState":
        # Fast path for freshly allocated output of a norm-preserving
        # operation on an already validated state.
        obj = cls.__new__(cls)
        amps.setflags(write=False)
        obj.num_qubits = int(amps.size).bit_length() - 1
        obj._amps = amps
        return obj


def _identity_error(matrix: np.ndarray) -> float:
    """Largest entry of |M M^dagger - I|.  ``einsum`` keeps the check off BLAS's GEMM."""
    return np.abs(np.einsum("ij,kj->ik", matrix, matrix.conj()) - np.eye(len(matrix))).max()


@dataclass(frozen=True)
class MeasurementBasis:
    """Single-qubit orthonormal measurement basis.

    ``eigenvectors`` holds the two basis kets as rows, in the (e, g)
    component ordering; result r of a measurement refers to row r.
    """

    name: str
    eigenvectors: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        m = np.array(self.eigenvectors, dtype=complex)
        if _identity_error(m) > TOL_EQ:
            raise ValueError(f"basis {self.name!r} eigenvectors are not orthonormal")
        m.setflags(write=False)
        object.__setattr__(self, "_matrix", m)

    def matrix(self) -> np.ndarray:
        """Basis kets as rows, read-only."""
        return self._matrix

    def rotation_gate(self) -> np.ndarray:
        """Unitary mapping this basis onto the computational one (rows are bras)."""
        return self._matrix.conj()


COMPUTATIONAL = MeasurementBasis("computational", ((1, 0), (0, 1)))
PLUS_MINUS = MeasurementBasis(
    "plus_minus", ((SQRT_HALF, SQRT_HALF), (SQRT_HALF, -SQRT_HALF))
)
Y_BASIS = MeasurementBasis(
    "y", ((SQRT_HALF, SQRT_HALF * 1j), (SQRT_HALF, -SQRT_HALF * 1j))
)


@dataclass(frozen=True)
class MeasurementOutcome:
    result: int


def _check_unitary(matrix: np.ndarray, dim: int) -> np.ndarray:
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got {matrix.shape}")
    if _identity_error(matrix) > TOL_UNITARY:
        raise ValueError("matrix is not unitary within tolerance")
    return matrix


def _view(amps: np.ndarray, axis: int) -> np.ndarray:
    # (qubits before, the target qubit, qubits after); a reshape, never a copy.
    return amps.reshape(1 << axis, 2, -1)


def _rotated(gate: np.ndarray, amps: np.ndarray, axis: int) -> np.ndarray:
    """``gate`` applied to qubit axis+1 of ``amps``, shape (before, 2, after).

    ``np.dot`` of a 2-D gate with the 3-D view takes numpy's dot-product loop, not
    ``@``'s GEMM: a 2x2 product does not need OpenBLAS's GEMM set-up and its memory.
    """
    return np.dot(gate, _view(amps, axis)).swapaxes(0, 1)


def apply_gate(state: QuantumState, gate, qubit: int) -> QuantumState:
    """Apply a single-qubit unitary to the given qubit (1-based)."""
    axis = _check_count("qubit", qubit, 1, state.num_qubits) - 1  # qubits before this one
    gate = _check_unitary(gate, 2)
    return QuantumState._from_trusted(_rotated(gate, state.amplitudes, axis).reshape(-1))


def apply_two_qubit(state: QuantumState, unitary, qubits: tuple[int, int]) -> QuantumState:
    """Apply a 4x4 unitary to the ordered qubit pair (1-based indices)."""
    try:
        qa, qb = qubits
    except (TypeError, ValueError):
        raise ValueError(f"qubits must be a pair of qubit indices, got {qubits!r}") from None
    axa, axb = (_check_count("qubit", q, 1, state.num_qubits) - 1 for q in (qa, qb))
    if axa == axb:
        raise ValueError("two-qubit unitary needs distinct qubits")
    u = _check_unitary(unitary, 4).reshape(2, 2, 2, 2)  # (out_a, out_b, in_a, in_b)
    if axa > axb:  # make the first qubit of the unitary the earlier one
        axa, axb, u = axb, axa, u.transpose(1, 0, 3, 2)
    view = state.amplitudes.reshape(1 << axa, 2, 1 << (axb - axa - 1), 2, -1)
    out = np.einsum("ijkl,akblc->aibjc", u, view)
    return QuantumState._from_trusted(out.reshape(-1))


def basis_amplitudes(state: QuantumState, bases) -> np.ndarray:
    """Amplitude tensor, shape ``(2,) * num_qubits``, with qubit j+1 rotated into ``bases[j]``.

    Index r on a rotated axis is the amplitude of result r in that basis.  A
    ``None`` entry, and every qubit past ``len(bases)``, is left as it is.
    """
    n = state.num_qubits
    if len(bases) > n:
        raise ValueError(f"{len(bases)} bases for {n} qubits")
    amps = state.amplitudes
    for axis, basis in enumerate(bases):
        if basis is not None:
            amps = _rotated(basis.rotation_gate(), amps, axis)
    return amps.reshape((2,) * n)


def outcome_distribution(state: QuantumState, bases) -> np.ndarray:
    """Joint Born probabilities of measuring qubit j+1 in ``bases[j]``.

    The result has one axis of length 2 per non-``None`` basis, in qubit
    order; ``None`` entries and qubits past ``len(bases)`` are summed out.
    """
    probs = np.abs(basis_amplitudes(state, bases)) ** 2
    padded = list(bases) + [None] * (state.num_qubits - len(bases))
    return probs.sum(axis=tuple(axis for axis, basis in enumerate(padded) if basis is None))


def _branches(state: QuantumState, axis: int, basis: MeasurementBasis):
    """Both outcome branches of one qubit: amplitudes, shape (before, 2, after), and probabilities.

    ``branch[:, r, :]`` is the unnormalized amplitude of the other qubits
    given result r, so its squared norm is the Born probability of r.
    """
    branch = _rotated(basis.rotation_gate(), state.amplitudes, axis)
    return branch, (np.abs(branch) ** 2).sum(axis=(0, 2)).tolist()


def _post_state(basis: MeasurementBasis, branch: np.ndarray, result: int, prob: float) -> QuantumState:
    # Re-insert the measured qubit as the basis ket of the result.
    vec = basis.matrix()[result]
    post = vec[None, :, None] * branch[:, result, None, :] / math.sqrt(prob)
    return QuantumState._from_trusted(post.reshape(-1))


def collapse(
    state: QuantumState, qubit: int, basis: MeasurementBasis, result: int
) -> tuple[float, QuantumState]:
    """Probability and renormalized post-state of a forced measurement outcome.

    Raises when the requested outcome has (numerically) zero probability,
    since no post-measurement state exists there.
    """
    result = _check_count("result", result, 0, 1)
    axis = _check_count("qubit", qubit, 1, state.num_qubits) - 1
    branch, probs = _branches(state, axis, basis)
    prob = probs[result]
    if prob <= 1e-300:
        raise ValueError(f"outcome {result} has zero probability")
    return prob, _post_state(basis, branch, result, prob)


def measure(
    state: QuantumState, qubit: int, basis: MeasurementBasis, rand: float
) -> tuple[MeasurementOutcome, QuantumState]:
    """Projective measurement of one qubit, decided by the supplied uniform draw.

    The outcome is result 0 when ``rand`` falls below its Born probability,
    result 1 otherwise, so identical inputs always reproduce the same
    outcome and post-measurement state.
    """
    # float first: the numbers.Real check alone costs ~0.4 us, as much as the rest of the test.
    if not (isinstance(rand, (float, numbers.Real)) and 0.0 <= rand < 1.0):
        raise ValueError(f"rand must lie in [0, 1), got {rand!r}")
    axis = _check_count("qubit", qubit, 1, state.num_qubits) - 1
    branch, (p0, p1) = _branches(state, axis, basis)
    # The basis is orthonormal, so the two branch probabilities sum to the squared norm.
    if abs(math.sqrt(p0 + p1) - 1.0) > TOL_UNITARY:
        raise ValueError("measurement requires a normalized state")
    result = 0 if rand < p0 else 1
    return MeasurementOutcome(result), _post_state(basis, branch, result, (p0, p1)[result])
