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
   Fock space, expressed in the frame rotating at the drive frequency so the
   generator is time independent.  ``validate_effective_model`` evolves it
   numerically and reports how far the reduced atomic dynamics strays from
   the closed form.  The atom-exchange singlet is dark to cavity and drive,
   so only the exchange-symmetric (triplet) block is diagonalized.  That
   block is gathered photon-major (index ``3 * n + slot``), which keeps it
   banded, and the weighted input columns are propagated in real arithmetic.

Operator convention: the raising operator is ``S+ = |e><g|`` (so the
``a_dagger S-`` coupling term conserves excitation number).  Atom ordering
in 4-dim matrices follows qstate: atom 1 is the most significant bit and
``|e> -> 0``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, fields

import numpy as np

_SQRT_HALF = math.sqrt(0.5)
_TRIPLET_SLOTS = np.array([0, 1, 3])  # ee, T0, gg in the exchange pair basis


def _require_finite(params) -> None:
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise ValueError(f"{field.name} must be finite, got {value!r}")


@dataclass(frozen=True)
class CavityParams:
    """Physical parameters of the driven atoms-cavity system.

    ``delta`` is the atom-cavity detuning ``omega0 - omega_a`` and must be
    positive (dispersive regime sign choice); the drive is resonant with
    the atoms when ``omega_drive == omega0``.
    """

    g: float
    delta: float
    omega_rabi: float
    omega0: float
    omega_a: float
    omega_drive: float

    def __post_init__(self):
        _require_finite(self)
        if self.g < 0:
            raise ValueError("coupling g must be >= 0")
        if self.delta <= 0:
            raise ValueError("detuning delta must be > 0")
        if self.omega_rabi < 0:
            raise ValueError("Rabi frequency must be >= 0")
        scale = max(abs(self.omega0), abs(self.omega_a), 1.0)
        if abs((self.omega0 - self.omega_a) - self.delta) > 1e-9 * scale:
            raise ValueError("delta must equal omega0 - omega_a")

    @classmethod
    def resonant(cls, g: float, delta: float, omega_rabi: float, omega_a: float = 0.0) -> "CavityParams":
        """Parameters with the classical drive locked to the atomic transition."""
        omega0 = omega_a + delta
        return cls(g=g, delta=delta, omega_rabi=omega_rabi,
                   omega0=omega0, omega_a=omega_a, omega_drive=omega0)

    @classmethod
    def from_ratios(cls, delta_over_g: float, omega_over_delta: float, g: float = 1.0) -> "CavityParams":
        """Resonant-drive parameters from the two dimensionless regime ratios."""
        delta = delta_over_g * g
        return cls.resonant(g=g, delta=delta, omega_rabi=omega_over_delta * delta)

    @property
    def dispersive_coupling(self) -> float:
        """Effective atom-atom coupling rate g^2 / (2 delta)."""
        return self.g * self.g / (2.0 * self.delta)


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
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.n_max > MAX_FOCK:
            raise ValueError(f"n_max must be <= {MAX_FOCK}, got {self.n_max}")

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
def effective_unitary(pulse: PulseParams) -> np.ndarray:
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


def full_hamiltonian(params: CavityParams, fock: FockSpace) -> np.ndarray:
    """Driven two-atom Tavis-Cummings generator in the drive rotating frame.

    Ordering is atoms (x) cavity with the atom pair index major.  In this
    frame the bare terms become (omega0 - omega_drive) Sz and
    (omega_a - omega_drive) n, so a resonant drive leaves ``-delta n`` plus
    the exchange coupling and the now-static drive.  Every matrix element is
    real, so the generator is returned as a real symmetric ``float64`` array.
    """
    nc = fock.levels
    n = np.arange(nc)
    sz = np.array([1.0, 0.0, 0.0, -1.0])  # (sz_1 + sz_2) / 2 on |ee>, |eg>, |ge>, |gg>
    bare = (params.omega0 - params.omega_drive) * sz[:, None]
    bare = bare + (params.omega_a - params.omega_drive) * n
    h = np.diag(bare.ravel())
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


def _cavity_weights(initial_cavity, levels: int) -> np.ndarray:
    if isinstance(initial_cavity, (int, np.integer)):
        if not 0 <= initial_cavity < levels:
            raise ValueError(f"Fock index {initial_cavity} outside 0..{levels - 1}")
        weights = np.zeros(levels)
        weights[initial_cavity] = 1.0
        return weights
    weights = np.asarray(initial_cavity, dtype=float)
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"mixture weights must be finite, got {initial_cavity!r}")
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


def _exchange_split(h: np.ndarray, fock_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Triplet block of the generator ``h``, photon-major, and its singlet energies at ``fock_in``.

    Row and column ``3 * n + slot`` of the block is ``|slot, n>`` for slot (ee, T0, gg)
    and photon number n.  T0 and S are formed on rows first, then on columns, as
    ``_exchange_reflect`` does.  In this order the block is banded: drive and
    exchange coupling reach at most one photon number away.  ``h`` is overwritten.
    """
    levels = h.shape[0] // 4
    h = h.reshape(4, levels, 4, levels)
    n = fock_in
    singlet = ((h[1, n, 1, n] - h[2, n, 1, n]) * _SQRT_HALF
               - (h[1, n, 2, n] - h[2, n, 2, n]) * _SQRT_HALF) * _SQRT_HALF
    h[1] += h[2]
    h[1] *= _SQRT_HALF  # pair row 1 is now T0
    block = np.empty((levels, 3, levels, 3))
    for slot, rows in enumerate((h[0], h[1], h[3])):
        block[:, slot, :, 0] = rows[:, 0]
        t0 = np.add(rows[:, 1], rows[:, 2], out=block[:, slot, :, 1])
        t0 *= _SQRT_HALF
        block[:, slot, :, 2] = rows[:, 3]
    return block.reshape(3 * levels, 3 * levels), singlet


def validate_effective_model(
    params: CavityParams,
    fock: FockSpace,
    pulse: PulseParams,
    initial_cavity=0,
    duration: float | None = None,
) -> float:
    """Worst-case trace distance between full-model and closed-form atom outputs.

    The full model runs for ``t = pulse.lambda_t / lambda`` (or the explicit
    ``duration``), the cavity (Fock state or classical mixture of Fock
    states) is traced out, and each of the four computational atom inputs is
    compared against the prediction of ``effective_unitary`` for the pulse
    actually realized in that time.  Emits ``TruncationWarning`` when, for any
    atom input, more than 1e-6 of the population lands on the top retained
    level, each cavity Fock branch counted at its mixture weight.
    Raises ``ValueError`` when float64 cannot resolve the phases, i.e. when
    ``eps * max|E| * t`` exceeds ``MAX_PHASE_ERROR``.
    """
    lam = params.dispersive_coupling
    if duration is None:
        if lam == 0.0:
            if pulse.lambda_t != 0.0:
                raise ValueError("lambda is zero: a nonzero coupling angle needs an explicit duration")
            duration = 0.0
        else:
            duration = pulse.lambda_t / lam

    levels = fock.levels
    weights = _cavity_weights(initial_cavity, levels)
    fock_in = np.flatnonzero(weights)
    # Atom exchange commutes with the generator, and the singlet (|eg> - |ge>)/sqrt2
    # is dark to cavity and drive alike: in the pair basis (ee, T0, S, gg) the
    # generator splits into a triplet block on pair slots 0, 1, 3 (3 * levels
    # dimensions) and a diagonal singlet block on slot 2, (omega_a - omega_drive) n.
    block, singlet_energies = _exchange_split(full_hamiltonian(params, fock), fock_in)
    energies, modes = np.linalg.eigh(block)
    top = max(np.abs(energies).max(), np.abs(singlet_energies).max())
    phase_error = np.finfo(float).eps * top * duration
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
    outputs[2, fock_in, 2, range(k)] = np.exp(-1j * singlet_energies * duration)
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


@dataclass(frozen=True)
class SweepPoint:
    delta_over_g: float
    omega_over_delta: float
    n_max: int
    error: float


def effective_model_sweep(
    delta_over_g_values,
    omega_over_delta: float,
    n_max: int = 8,
    pulse: PulseParams = CANONICAL_PULSE,
    initial_cavity=0,
) -> list[SweepPoint]:
    """Validation error along a detuning sweep at fixed drive ratio."""
    points = []
    for ratio in delta_over_g_values:
        params = CavityParams.from_ratios(ratio, omega_over_delta)
        err = validate_effective_model(params, FockSpace(n_max), pulse, initial_cavity)
        points.append(SweepPoint(float(ratio), float(omega_over_delta), int(n_max), err))
    return points
