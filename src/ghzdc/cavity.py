"""Dispersive two-atom cavity dynamics behind the receiver's decoding step.

Two identical two-level atoms sit in a single-mode cavity, far detuned from
it, while a resonant classical field drives both atoms. Two descriptions
of that system live here:

1. ``effective_unitary`` -- the closed-form 4x4 map on the two atoms, for a
   dimensionless pulse (coupling angle ``lambda*t``, drive angle
   ``Omega*t``).  Each input ``|ab>`` goes to
   ``exp(-i*lambda*t) [cos(lambda*t) R|a>R|b> - i sin(lambda*t) R|a~>R|b~>]``
   with ``R|a> = cos(Omega*t)|a> - i sin(Omega*t)|a~>`` the single-atom
   drive rotation and ``~`` the flipped level.  It is the ordered product of
   the drive and the paper's dispersive generator, written out in its docstring.
2. ``full_hamiltonian`` -- the driven Tavis-Cummings model on a truncated
   Fock space, in the frame rotating at the drive frequency, built directly
   as its exchange-symmetric (triplet) block, photon-major and banded, and
   the energies of the dark singlet.  ``validate_effective_model`` propagates
   the weighted input columns in real arithmetic and reports how far the
   reduced atomic dynamics strays from the closed form.

Operator convention: the raising operator is ``S+ = |e><g|`` (so the
``a_dagger S-`` coupling term conserves excitation number).  Atom ordering
in 4-dim matrices follows qstate: atom 1 is the most significant bit and
``|e> -> 0``.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import _check_count

_SQRT_HALF = math.sqrt(0.5)
_TRIPLET_SLOTS = np.array([0, 1, 3])  # ee, T0, gg in the exchange pair basis


def _require_finite(params) -> None:
    for field in fields(params):
        value = getattr(params, field.name)
        # Compared exactly, an int beyond float range is not finite (math.isfinite would overflow).
        if not (isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


def _as_float(name: str, value) -> float:
    """A real number as a float; NaN and inf pass, an int beyond float range is not finite."""
    if not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be finite, got {value!r}") from None


@dataclass(frozen=True)
class CavityParams:
    """Rates of the driven atoms-cavity system: coupling, detuning and drive.

    ``g`` is the atom-cavity coupling and ``delta`` the atom-cavity detuning,
    which must be positive (dispersive regime sign choice) and large enough
    that the dispersive coupling g^2/(2 delta) is finite.  The classical
    drive of Rabi frequency ``omega_rabi`` is resonant with the atoms.
    """

    g: float
    delta: float
    omega_rabi: float

    def __post_init__(self):
        _require_finite(self)
        if self.g < 0:
            raise ValueError("coupling g must be >= 0")
        if self.delta <= 0:
            raise ValueError("detuning delta must be > 0")
        if math.isinf(self.dispersive_coupling):
            raise ValueError(f"detuning delta is too small: g^2/(2 delta) overflows, "
                             f"got delta={self.delta!r}, g={self.g!r}")
        if self.omega_rabi < 0:
            raise ValueError("Rabi frequency must be >= 0")

    @classmethod
    def from_ratios(cls, delta_over_g: float, omega_over_delta: float) -> "CavityParams":
        """Parameters at unit coupling g from the two dimensionless regime ratios."""
        delta = _as_float("delta_over_g", delta_over_g)
        omega_over_delta = _as_float("omega_over_delta", omega_over_delta)
        return cls(g=1.0, delta=delta, omega_rabi=omega_over_delta * delta)

    @property
    def dispersive_coupling(self) -> float:
        """Effective atom-atom coupling rate g^2 / (2 delta), in Python floats: an
        overflow reads inf, which ``__post_init__`` refuses, with no numpy warning."""
        g = float(self.g)
        return g * g / (2.0 * float(self.delta))


@dataclass(frozen=True)
class PulseParams:
    """Dimensionless pulse areas: coupling angle lambda*t and drive angle Omega*t."""

    lambda_t: float
    omega_t: float

    def __post_init__(self):
        _require_finite(self)
        if self.lambda_t < 0 or self.omega_t < 0:
            raise ValueError("pulse areas must be >= 0")


# Pulse that turns the encoded states into the product-decodable form:
# coupling angle pi/4, drive angle pi.
CANONICAL_PULSE = PulseParams(lambda_t=np.pi / 4, omega_t=np.pi)


# Largest truncation accepted: one validation at n_max 400 is a dense 1203x1203
# eigensolve of the exchange-symmetric block, ~0.4-0.5 s and ~87 MB peak resident
# in a fresh process (2 cores, one BLAS thread); the cost grows as n_max**3.
MAX_FOCK = 400

# Largest phase error accepted from float64 propagation: eps * max|E| * t, for the
# generator's largest energy |E| and the pulse duration t.  The physics-sweep
# workload's worst point (delta/g 80, n_max 96) sits at 3.0e-10.
MAX_PHASE_ERROR = 1e-6


@dataclass(frozen=True)
class FockSpace:
    """Cavity truncation: photon numbers 0..n_max retained, 1 <= n_max <= MAX_FOCK."""

    n_max: int = 8

    def __post_init__(self):
        object.__setattr__(self, "n_max", _check_count("n_max", self.n_max, 1, MAX_FOCK))

    @property
    def levels(self) -> int:
        return self.n_max + 1

    @property
    def dimension(self) -> int:
        return 4 * (self.n_max + 1)


class TruncationWarning(UserWarning):
    """Raised as a warning when population reaches the top retained Fock level."""


def _drive_rotation(omega_t: float) -> np.ndarray:
    # Single-atom factor of exp(-i * Omega t * sigma_x): cos|a> - i sin|a~>.
    c, s = np.cos(omega_t), np.sin(omega_t)
    return np.array([[c, -1j * s], [-1j * s, c]])


@functools.lru_cache(maxsize=256)
def effective_unitary(pulse: PulseParams, /) -> np.ndarray:
    """Closed-form two-atom map for the given pulse, including its overall phase.

    The map is exp(-i H_drive t) exp(-i H_eff t) at lambda*t and Omega*t equal to
    the pulse angles, for the drive H_drive = Omega (sx (x) I + I (x) sx) and the
    paper's dispersive generator H_eff = (lambda/2) [sum_j (|e><e| + |g><g|)_j +
    sum_{j!=k} (S+_j S+_k + S+_j S-_k + h.c.)] = lambda (I + sx (x) sx).  Results
    are cached per pulse and returned read-only.
    """
    single = _drive_rotation(pulse.omega_t)
    rot = np.kron(single, single)
    # Flipping both atoms maps basis index i to 3 - i, so R|a~>R|b~> is column 3 - i.
    out = np.exp(-1j * pulse.lambda_t) * (
        np.cos(pulse.lambda_t) * rot - 1j * np.sin(pulse.lambda_t) * rot[:, ::-1])
    out.setflags(write=False)
    return out


def full_hamiltonian(params: CavityParams, fock: FockSpace) -> tuple[np.ndarray, np.ndarray]:
    """Driven two-atom Tavis-Cummings generator in the drive rotating frame, as ``(block, singlet)``.

    The resonant drive's frame leaves ``-delta n`` on every pair state.  Atom exchange
    commutes with the generator and the singlet (|eg> - |ge>)/sqrt2 is dark to cavity
    and drive, so in the pair basis (ee, T0, S, gg), T0 = (eg + ge)/sqrt2, it splits
    into the real symmetric triplet ``block`` and the singlet energy at each n.  Row
    ``3 * n + slot`` of the block is ``|slot, n>`` for slot (ee, T0, gg): ``-delta n``
    on the diagonal, sqrt2 Omega between T0 and ee or gg, and sqrt2 g sqrt(n+1) from
    |ee, n> to |T0, n+1> and from |T0, n> to |gg, n+1> (S-_j a^dagger), plus transposes.

    Each sqrt2 entry is ``(x + x) * _SQRT_HALF`` and each T0 or S diagonal
    ``(b * _SQRT_HALF + b * _SQRT_HALF) * _SQRT_HALF``, as the pair rotation of the
    atoms (x) cavity generator computes them, so the two agree bit for bit.  The
    photon-major order keeps the block banded: ``eigh`` is faster on it at ``n_max``
    96 but meets subnormals and is slower at 400, so it stays unless a workload at
    ``n_max`` >= 200 is added.
    """
    levels = fock.levels
    n = np.arange(levels)
    bare = -params.delta * n
    singlet = (bare * _SQRT_HALF + bare * _SQRT_HALF) * _SQRT_HALF
    drive = (params.omega_rabi + params.omega_rabi) * _SQRT_HALF
    x = params.g * np.sqrt(n[1:])
    exchange = (x + x) * _SQRT_HALF
    m = n[:-1]
    block = np.zeros((levels, 3, levels, 3))
    block[n, 0, n, 0] = block[n, 2, n, 2] = bare
    block[n, 1, n, 1] = singlet
    block[n, 0, n, 1] = block[n, 1, n, 0] = block[n, 1, n, 2] = block[n, 2, n, 1] = drive
    block[m + 1, 1, m, 0] = block[m, 0, m + 1, 1] = exchange  # |ee, m> <-> |T0, m+1>
    block[m + 1, 2, m, 1] = block[m, 1, m + 1, 2] = exchange  # |T0, m> <-> |gg, m+1>
    return block.reshape(3 * levels, 3 * levels), singlet


def _cavity_weights(initial_cavity, levels: int) -> np.ndarray:
    if isinstance(initial_cavity, numbers.Integral):  # a Fock index: weight 1 on that level
        initial_cavity = [0] * _check_count("initial_cavity", initial_cavity, 0, levels - 1) + [1]
    weights = np.asarray(initial_cavity)
    if weights.dtype.kind not in "iuf" or not np.all(np.isfinite(weights)):
        raise ValueError(f"mixture weights must be finite real numbers, got {initial_cavity!r}")
    if weights.ndim != 1 or weights.size > levels or np.any(weights < 0):
        raise ValueError("mixture weights must be a nonnegative vector within the truncation")
    total = weights.sum()
    if total <= 0:
        raise ValueError("mixture weights must not all vanish")
    padded = np.zeros(levels)
    padded[: weights.size] = weights / total
    return padded


def _exchange_reflect(x: np.ndarray) -> None:
    """Pair slots (ee, eg, ge, gg) <-> (ee, T0, S, gg) on axes 0 and 2, in place.

    ``x`` is a ``(4, levels, 4, m)`` view; T0 = (eg + ge)/sqrt2 and S = (eg - ge)/sqrt2.
    The reflection is its own inverse.
    """
    for pairs in (x, np.moveaxis(x, 2, 0)):
        pairs[1], pairs[2] = (pairs[1] + pairs[2]) * _SQRT_HALF, (pairs[1] - pairs[2]) * _SQRT_HALF


def validate_effective_model(
    params: CavityParams,
    fock: FockSpace,
    pulse: PulseParams,
    initial_cavity,
) -> float:
    """Worst-case trace distance between full-model and closed-form atom outputs.

    The full model runs for ``t = pulse.lambda_t / lambda``, the cavity (Fock
    state or classical mixture of Fock states) is traced out, and each of the
    four computational atom inputs is compared against the prediction of
    ``effective_unitary`` for the pulse actually realized in that time.  Emits
    ``TruncationWarning`` when, for any atom input, more than 1e-6 of the
    population lands on the top retained level, each cavity Fock branch
    counted at its mixture weight.  Raises ``ValueError`` when float64 cannot
    resolve the phases, i.e. when ``eps * max|E| * t`` exceeds
    ``MAX_PHASE_ERROR``, and when lambda is zero but the coupling angle is not.
    """
    lam = params.dispersive_coupling
    if lam == 0.0 and pulse.lambda_t != 0.0:
        raise ValueError("lambda is zero: no duration realizes a nonzero coupling angle")
    duration = float(pulse.lambda_t) / lam if lam else 0.0

    levels = fock.levels
    weights = _cavity_weights(initial_cavity, levels)
    fock_in = np.flatnonzero(weights)
    block, singlet = full_hamiltonian(params, fock)
    energies, modes = np.linalg.eigh(block)
    top = max(np.abs(energies).max(), np.abs(singlet[fock_in]).max())
    # Python floats overflow to inf without a numpy RuntimeWarning; the check below refuses it.
    phase_error = sys.float_info.epsilon * float(top) * duration
    if not phase_error <= MAX_PHASE_ERROR:
        raise ValueError(
            f"eps*max|E|*t = {phase_error:.2e} exceeds {MAX_PHASE_ERROR:g}: "
            "float64 cannot resolve the phases of so long a pulse")
    u_eff = effective_unitary(
        PulseParams(lambda_t=lam * duration, omega_t=params.omega_rabi * duration))
    # Propagate only the input columns |slot, n> that carry weight, in real arithmetic:
    # exp(-iHt)[:, cols] = V cos(wt) V[cols]^T - i V sin(wt) V[cols]^T on the triplet
    # block for the real orthogonal V, and one phase on each singlet column.
    k = fock_in.size
    cols = (3 * fock_in[:, None] + np.arange(3)).ravel()  # [fock_in, slot]
    inputs = modes[cols].T
    angles = (energies * duration)[:, None]
    waves = modes @ np.hstack((inputs * np.cos(angles), inputs * np.sin(angles)))
    waves = waves.reshape(levels, 3, 2, k, 3).transpose(2, 1, 0, 4, 3)  # [re/im, slot, n, slot, k]
    outputs = np.zeros((4, levels, 4, k), dtype=complex)
    in_triplet = np.ix_(_TRIPLET_SLOTS, range(levels), _TRIPLET_SLOTS, range(k))
    outputs.real[in_triplet] = waves[0]
    outputs.imag[in_triplet] = -waves[1]
    outputs[2, fock_in, 2, range(k)] = np.exp(-1j * singlet[fock_in] * duration)
    _exchange_reflect(outputs)
    branches = outputs.transpose(2, 3, 0, 1)  # [atom_in, fock_in, pair, n]
    leak = np.sum(np.abs(branches[..., -1]) ** 2, axis=-1)  # [atom_in, fock_in]
    worst_leak = float((leak @ weights[fock_in]).max())
    rho = np.einsum("k,akpn,akqn->apq", weights[fock_in], branches, branches.conj())
    targets = u_eff.T[:, :, None] * u_eff.T.conj()[:, None, :]  # [atom_in, pair, pair]
    distances = 0.5 * np.abs(np.linalg.eigvalsh(rho - targets)).sum(axis=1)
    if worst_leak > 1e-6:
        warnings.warn(
            f"population {worst_leak:.2e} reached Fock level {fock.n_max}; "
            "increase n_max for a trustworthy comparison",
            TruncationWarning,
            stacklevel=2,
        )
    return float(distances.max())

