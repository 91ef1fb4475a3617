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
   the weighted input columns in real arithmetic and reports, in the pair basis
   (ee, T0, S, gg), how far the reduced atomic dynamics strays from the closed form.

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
# (ee, eg, ge, gg) -> (ee, T0, S, gg), S = (eg - ge)/sqrt2; symmetric and its own inverse.
_EXCHANGE = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, _SQRT_HALF, _SQRT_HALF, 0.0],
                      [0.0, _SQRT_HALF, -_SQRT_HALF, 0.0], [0.0, 0.0, 0.0, 1.0]])


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
        omega_rabi = omega_over_delta * delta  # Python floats: an overflow reads inf, with no warning
        if math.isinf(omega_rabi) and math.isfinite(delta) and math.isfinite(omega_over_delta):
            raise ValueError(f"omega_over_delta * delta_over_g overflows, got delta_over_g={delta!r}, "
                             f"omega_over_delta={omega_over_delta!r}")
        return cls(g=1.0, delta=delta, omega_rabi=omega_rabi)

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


# Largest truncation accepted.  A validation at n_max 400 builds and solves only the
# leading levels its truncation bound certifies: 48x48 for a Fock 0 input, ~0.5 ms warm
# and ~30 MB peak resident in a fresh process (2 cores, one BLAS thread).  When the bound
# fails below the full size it ends on the dense 1203x1203 triplet block; the worst case,
# a Fock 92 input that first solves 600 and 1200 rows, takes ~0.8 s and ~90 MB in a fresh
# process and grows as n_max**3.
MAX_FOCK = 400

# Largest phase error accepted from float64 propagation: eps * max|E| * t, for the
# largest energy |E| of the spectrum propagated and the pulse duration t.  The
# physics-sweep workload's worst point (delta/g 80, n_max 96, Fock 1) sits at 1.3e-10.
MAX_PHASE_ERROR = 1e-6

# Largest Duhamel bound on ||exp(-iHt) v - exp(-iH_m t) v|| at which a solve on the
# leading Fock levels 0..m-1 stands for the full block (``_truncation_bound``).
MAX_TRUNCATION_ERROR = 1e-12


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
    photon-major order keeps the block banded and makes the truncation to levels
    0..m-1 its leading 3m x 3m submatrix: the block of ``FockSpace(m - 1)`` equals that
    submatrix, and its singlet energies the first m, bit for bit, so
    ``validate_effective_model`` builds only the levels it solves.  A dense ``eigh`` of
    the whole block meets subnormals at ``n_max`` 400.
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


def _truncation_bound(modes: np.ndarray, cols: np.ndarray, coupling: float, duration: float) -> float:
    """Duhamel bound on ||exp(-iHt) v - exp(-iH_m t) v|| over the input columns ``v``.

    ``modes`` are the eigenvectors W of the leading block H_m on levels 0..m-1, and
    ``coupling`` the norm of the one term that leaves it, level m-1 to level m.  The
    amplitude on level m-1 never exceeds sum_k ||W[m-1, k]|| |W[c, k]|, and the error
    grows at most at ``coupling`` times that amplitude over the pulse.
    """
    top_level = np.sqrt(np.sum(modes[-3:] ** 2, axis=0))  # ||W[level m-1, k]||
    reach = float((np.abs(modes[cols]) @ top_level).max())
    return duration * coupling * reach  # Python floats: an overflow reads inf, which fails


def _trace_distances(rho: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Trace distance 0.5 sum|eig(rho[i] - targets[i])| of each pair of 4x4 Hermitian matrices.

    Each difference A + iB is taken through its real symmetric embedding
    [[A, -B], [B, A]], whose spectrum is that of A + iB with every eigenvalue twice,
    so only real LAPACK (``dsyevd``) runs.
    """
    diff = rho - targets
    embedding = np.empty((diff.shape[0], 8, 8))
    embedding[:, :4, :4] = embedding[:, 4:, 4:] = diff.real
    embedding[:, 4:, :4] = diff.imag
    embedding[:, :4, 4:] = -diff.imag
    return 0.25 * np.abs(np.linalg.eigvalsh(embedding)).sum(axis=1)


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
    ``effective_unitary`` for the pulse actually realized in that time.

    Only the leading Fock levels 0..m-1 are built and solved, starting at
    m = 2 (top + 1) + 14 for the highest input level ``top``; that solve stands for
    the full block once ``_truncation_bound`` is at most ``MAX_TRUNCATION_ERROR``.
    Otherwise the truncated solve is dropped and m doubles, up to every retained
    level, where the solve is exact.  Inputs and outputs are taken in the pair
    basis and compared with ``_EXCHANGE @ effective_unitary``: a real orthogonal
    change of basis moves no trace distance and no leak.  The trace distances run
    through real LAPACK only (``_trace_distances``).  Emits ``TruncationWarning``
    when, for any atom input, more than 1e-6 of the population lands on the top
    retained level, each cavity Fock branch counted at its mixture weight; a
    certified truncated solve leaves at most the bound squared there.  Raises
    ``ValueError`` when float64 cannot resolve the phases, i.e. when
    ``eps * max|E| * t`` over the propagated spectrum exceeds ``MAX_PHASE_ERROR``,
    and when lambda is zero but the coupling angle is not.
    """
    lam = params.dispersive_coupling
    if lam == 0.0 and pulse.lambda_t != 0.0:
        raise ValueError("lambda is zero: no duration realizes a nonzero coupling angle")
    duration = float(pulse.lambda_t) / lam if lam else 0.0

    levels = fock.levels
    weights = _cavity_weights(initial_cavity, levels)
    fock_in = np.flatnonzero(weights)
    cols = (3 * fock_in[:, None] + np.arange(3)).ravel()  # [fock_in, slot]
    m = min(2 * (int(fock_in[-1]) + 1) + 14, levels)
    while True:
        block, singlet = full_hamiltonian(params, FockSpace(m - 1))
        energies, modes = np.linalg.eigh(block)
        del block
        if m == levels or _truncation_bound(
                modes, cols, math.sqrt(2.0 * m) * float(params.g), duration) <= MAX_TRUNCATION_ERROR:
            break
        del energies, modes  # free the truncated solve before the larger build
        m = min(2 * m, levels)
    top = max(np.abs(energies).max(), np.abs(singlet[fock_in]).max())
    # Python floats overflow to inf without a numpy RuntimeWarning; the check below refuses it.
    phase_error = sys.float_info.epsilon * float(top) * duration
    if not phase_error <= MAX_PHASE_ERROR:
        raise ValueError(
            f"eps*max|E|*t = {phase_error:.2e} exceeds {MAX_PHASE_ERROR:g}: "
            "float64 cannot resolve the phases of so long a pulse")
    # Propagate only the input columns |slot, n> that carry weight, in real arithmetic:
    # exp(-iHt)[:, cols] = V cos(wt) V[cols]^T - i V sin(wt) V[cols]^T on the triplet
    # block for the real orthogonal V, and one phase on each singlet column.
    k = fock_in.size
    inputs = (modes[cols].T.reshape(-1, k, 3) @ _EXCHANGE[_TRIPLET_SLOTS]).reshape(-1, 4 * k)
    angles = (energies * duration)[:, None]
    waves = modes @ np.hstack((inputs * np.cos(angles), inputs * np.sin(angles)))
    triplet = (waves[:, : 4 * k] - 1j * waves[:, 4 * k:]).reshape(m, 3, k, 4)  # [n, slot, k, atom_in]
    branches = np.zeros((4, k, 4, m), dtype=complex)  # [atom_in, fock_in, pair, n]
    branches[:, :, _TRIPLET_SLOTS] = triplet.transpose(3, 2, 1, 0)
    branches[:, range(k), 2, fock_in] = _EXCHANGE[2][:, None] * np.exp(-1j * singlet[fock_in] * duration)
    worst_leak = 0.0  # a certified truncated solve leaves at most the bound squared on level n_max
    if m == levels:
        leak = np.sum(np.abs(branches[..., -1]) ** 2, axis=-1)  # [atom_in, fock_in]
        worst_leak = float((leak @ weights[fock_in]).max())
    rho = np.einsum("k,akpn,akqn->apq", weights[fock_in], branches, branches.conj())
    u_eff = effective_unitary(PulseParams(lambda_t=lam * duration, omega_t=params.omega_rabi * duration))
    kets = np.einsum("qa,qp->ap", u_eff, _EXCHANGE)  # (_EXCHANGE @ u_eff).T without a complex GEMM
    targets = kets[:, :, None] * kets.conj()[:, None, :]
    distances = _trace_distances(rho, targets)
    if worst_leak > 1e-6:
        warnings.warn(
            f"population {worst_leak:.2e} reached Fock level {fock.n_max}; "
            "increase n_max for a trustworthy comparison",
            TruncationWarning,
            stacklevel=2,
        )
    return float(distances.max())
