"""Cavity-physics tests.

The closed-form map is cross-checked against numerical matrix exponentials
of its generators (independent code path through scipy), and the full
driven model is probed for structure, truncation warnings, and the
regime-limit behavior of the validation error.
"""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.linalg import expm

import ghzdc
from ghzdc import cavity
from ghzdc.cavity import (
    CANONICAL_PULSE,
    MAX_FOCK,
    MAX_PHASE_ERROR,
    CavityParams,
    FockSpace,
    PulseParams,
    TruncationWarning,
    _cavity_weights,
    _exchange_reflect,
    effective_unitary,
    full_hamiltonian,
    validate_effective_model,
)
from ghzdc.cli import RUNNERS
from ghzdc.protocol import timing_error_fidelity
from ghzdc.qstate import IDENTITY, SIGMA_X
from oracles import (
    S_MINUS,
    S_PLUS,
    dense_hamiltonian,
    drive_hamiltonian,
    effective_hamiltonian,
    evolution_operator,
    regime_ok,
    timing_error_simulation,
    trace_distances,
)

SQ2 = 1 / np.sqrt(2)
SWAP = np.eye(4)[[0, 2, 1, 3]]
# A resonant-drive point that from_ratios never gives: g != 1.
GENERIC = CavityParams(g=0.7, delta=3.0, omega_rabi=11.0)


def params_for(delta_over_g=10.0, omega_over_delta=20.0):
    return CavityParams.from_ratios(delta_over_g, omega_over_delta)


def pulse_for(params, duration):
    """The canonical pulse, or the pulse that runs ``params`` for an explicit ``duration``."""
    if duration is None:
        return CANONICAL_PULSE
    return PulseParams(params.dispersive_coupling * duration, params.omega_rabi * duration)


def kron_chain_hamiltonian(params, fock):
    """Reference generator: the driven Tavis-Cummings model as a sum of complex Kronecker terms."""
    nc = fock.levels
    lower = np.diag(np.sqrt(np.arange(1, nc)), 1).astype(complex)
    raise_ = lower.conj().T
    eye_cav = np.eye(nc)

    def on_atom(op, j):
        return np.kron(op, IDENTITY) if j == 0 else np.kron(IDENTITY, op)

    h = -params.delta * np.kron(np.eye(4), raise_ @ lower)
    for j in (0, 1):
        h = h + params.g * (
            np.kron(on_atom(S_MINUS, j), raise_) + np.kron(on_atom(S_PLUS, j), lower)
        )
        h = h + params.omega_rabi * np.kron(on_atom(SIGMA_X, j), eye_cav)
    return h


def exchange_rotated(h, levels):
    """A pair-major generator in the pair basis (ee, T0, S, gg), by elementwise row and column sums."""
    s = np.sqrt(0.5)
    h4 = h.reshape(4, levels, 4, levels)
    rows = np.stack([h4[0], (h4[1] + h4[2]) * s, (h4[1] - h4[2]) * s, h4[3]])
    both = np.stack([rows[:, :, 0], (rows[:, :, 1] + rows[:, :, 2]) * s,
                     (rows[:, :, 1] - rows[:, :, 2]) * s, rows[:, :, 3]], axis=2)
    return both.reshape(4 * levels, 4 * levels)


def rotated_split(h, levels):
    """The photon-major triplet block and the singlet energies of a pair-major generator."""
    rotated = exchange_rotated(h, levels).reshape(4, levels, 4, levels)
    triplet = rotated[[0, 1, 3]][:, :, [0, 1, 3]]  # [slot, n, slot, m]
    n = np.arange(levels)
    return triplet.transpose(1, 0, 3, 2).reshape(3 * levels, 3 * levels), rotated[2, n, 2, n]


def dense_expm_validation(params, fock, pulse, weights):
    """Reference validation error: full propagator from scipy's expm, every branch kept."""
    lam = params.dispersive_coupling
    t = pulse.lambda_t / lam
    closed = effective_unitary(PulseParams(lam * t, params.omega_rabi * t))
    u = expm(-1j * kron_chain_hamiltonian(params, fock) * t)
    levels = fock.levels
    weights = np.asarray(weights, dtype=float) / np.sum(weights)
    worst = 0.0
    for atom_in in range(4):
        rho = np.zeros((4, 4), dtype=complex)
        for n, w in enumerate(weights):
            branch = u[:, atom_in * levels + n].reshape(4, levels)
            rho += w * (branch @ branch.conj().T)
        target = closed[:, atom_in]
        worst = max(worst, float(trace_distances(rho, np.outer(target, target.conj()))))
    return worst


def slot_major_validation(params, fock, pulse, initial_cavity=0):
    """Reference validation error: the triplet block in slot-major order, complex propagation.

    The generator is reflected in place to the pair basis (ee, T0, S, gg), the
    triplet slots are taken out slot-major (index ``slot * levels + n``), the input
    columns are propagated with complex phases, and each atom input gets its own
    density matrix and trace distance.
    """
    lam = params.dispersive_coupling
    t = pulse.lambda_t / lam
    u_eff = effective_unitary(PulseParams(lam * t, params.omega_rabi * t))
    levels = fock.levels
    weights = _cavity_weights(initial_cavity, levels)
    fock_in = np.flatnonzero(weights)
    slots = np.array([0, 1, 3])
    h = dense_hamiltonian(params, fock).reshape(4, levels, 4, levels)
    _exchange_reflect(h)
    singlet_energies = h[2, :, 2].diagonal()[fock_in]
    h = h.take(slots, axis=0).take(slots, axis=2)
    energies, modes = np.linalg.eigh(h.reshape(3 * levels, 3 * levels))
    k = fock_in.size
    cols = (np.arange(3)[:, None] * levels + fock_in).ravel()
    triplet = (modes * np.exp(-1j * energies * t)) @ modes[cols].T
    outputs = np.zeros((4, levels, 4, k), dtype=complex)
    outputs[np.ix_(slots, range(levels), slots, range(k))] = triplet.reshape(3, levels, 3, k)
    outputs[2, fock_in, 2, range(k)] = np.exp(-1j * singlet_energies * t)
    _exchange_reflect(outputs)
    branches = outputs.transpose(2, 3, 0, 1)
    worst = 0.0
    for atom_in in range(4):
        rho = np.zeros((4, 4), dtype=complex)
        for branch, w in zip(branches[atom_in], weights[fock_in]):
            rho += w * (branch @ branch.conj().T)
        target = u_eff[:, atom_in]
        worst = max(worst, float(trace_distances(rho, np.outer(target, target.conj()))))
    return worst


def thermal_weights(nbar, n_max):
    """Geometric (thermal) photon-number weights nbar^n / (nbar + 1)^(n + 1), n = 0..n_max."""
    return [nbar**n / (nbar + 1) ** (n + 1) for n in range(n_max + 1)]


class TestCavityParams:
    def test_dispersive_coupling_value(self):
        p = CavityParams(g=2.0, delta=8.0, omega_rabi=100.0)
        assert p.dispersive_coupling == 2.0 * 2.0 / (2 * 8.0)

    def test_nonpositive_delta_rejected(self):
        with pytest.raises(ValueError):
            CavityParams(g=1.0, delta=0.0, omega_rabi=1.0)

    def test_regime_flag(self):
        assert regime_ok(params_for(10, 10))
        assert not regime_ok(params_for(5, 20))
        assert not regime_ok(params_for(20, 5))

    def test_negative_pulse_rejected(self):
        with pytest.raises(ValueError):
            PulseParams(-0.1, 0.0)

    @pytest.mark.parametrize("ratios,name", [((10**400, 20), "delta_over_g"),
                                             ((40, 10**400), "omega_over_delta")])
    def test_ratio_beyond_float_range_rejected(self, ratios, name):
        """float() would raise OverflowError; an int beyond float range is not finite."""
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            CavityParams.from_ratios(*ratios)

    @pytest.mark.parametrize("g,delta", [(1.0, 1e-310), (1e200, 1.0), (np.float64(1e200), 1.0),
                                         (1.0, np.float64(1e-310))],
                             ids=["delta", "g", "numpy-g", "numpy-delta"])  # numpy: no RuntimeWarning
    def test_overflowing_dispersive_coupling_rejected(self, g, delta):
        with pytest.raises(ValueError, match=r"^detuning delta is too small: g\^2/\(2 delta\) overflows"):
            CavityParams(g, delta, 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"),
                                     pytest.param(10**400, id="int-beyond-float")])
    @pytest.mark.parametrize("field", ["g", "delta", "omega_rabi"])
    def test_non_finite_cavity_field_rejected(self, field, bad):
        values = {"g": 1.0, "delta": 10.0, "omega_rabi": 200.0}
        values[field] = bad
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            CavityParams(**values)

    @pytest.mark.parametrize("lambda_t,omega_t,field", [
        (float("nan"), np.pi, "lambda_t"),
        (np.pi / 4, float("inf"), "omega_t"),
        pytest.param(10**400, 0.0, "lambda_t", id="int-beyond-float-lambda_t"),
    ])
    def test_non_finite_pulse_rejected(self, lambda_t, omega_t, field):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PulseParams(lambda_t, omega_t)

    @pytest.mark.parametrize("ratios", [(1e200, 1e200), (1e200, -1e200), (10.0, 1e308)])
    def test_overflowing_drive_names_both_ratios(self, ratios):
        """Both ratios are finite, their product omega_rabi is not; no CavityParams field is named."""
        with pytest.raises(ValueError, match=r"^omega_over_delta \* delta_over_g overflows, "
                                             r"got delta_over_g=.*, omega_over_delta="):
            CavityParams.from_ratios(*ratios)

    @pytest.mark.parametrize("ratios,name", [(("40", 20), "delta_over_g"),
                                             ((40, "20"), "omega_over_delta")])
    def test_ratio_text_rejected(self, ratios, name):
        """float() would parse the text; a ratio must already be a number."""
        with pytest.raises(ValueError, match=f"^{name} must be a real number"):
            CavityParams.from_ratios(*ratios)


class TestEffectiveUnitary:
    def test_zero_pulse_is_identity(self):
        assert np.max(np.abs(effective_unitary(PulseParams(0, 0)) - np.eye(4))) < 1e-12

    def test_canonical_gg_column(self):
        """At the canonical pulse |gg> goes to e^{-i pi/4}(|gg> - i|ee>)/sqrt(2)."""
        u = effective_unitary(CANONICAL_PULSE)
        expected = np.zeros(4, dtype=complex)
        expected[3] = SQ2
        expected[0] = -1j * SQ2
        expected *= np.exp(-1j * np.pi / 4)
        assert np.max(np.abs(u[:, 3] - expected)) < 1e-10

    def test_matches_exponential_oracle_at_arbitrary_pulse(self):
        pulse = PulseParams(0.3, 1.1)
        # Realize the pulse with t = 1 so the angles are the rates themselves.
        p = CavityParams(g=np.sqrt(2 * 0.3), delta=1.0, omega_rabi=1.1)
        oracle = expm(-1j * drive_hamiltonian(p)) @ expm(-1j * effective_hamiltonian(p))
        assert np.max(np.abs(effective_unitary(pulse) - oracle)) < 1e-10

    def test_unitary_over_pulse_grid(self):
        for lt in np.linspace(0, 2 * np.pi, 20):
            for ot in np.linspace(0, 2 * np.pi, 20):
                u = effective_unitary(PulseParams(lt, ot))
                assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-12

    def test_atom_exchange_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = effective_unitary(PulseParams(rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi)))
            assert np.max(np.abs(SWAP @ u @ SWAP - u)) < 1e-12

    def test_canonical_pairs_inputs_with_double_flip_partner(self):
        """At the canonical pulse each input mixes only with its double flip, weight 1/sqrt(2)."""
        u = effective_unitary(CANONICAL_PULSE)
        mags = np.abs(u)
        for col, partner in ((0, 3), (1, 2), (2, 1), (3, 0)):
            assert mags[col, col] == pytest.approx(SQ2, abs=1e-12)
            assert mags[partner, col] == pytest.approx(SQ2, abs=1e-12)
            for row in range(4):
                if row not in (col, partner):
                    assert mags[row, col] < 1e-12

    def test_closed_form_equals_column_loop(self):
        """The kron(R, R) form is bit-identical to building each input column |ab> in turn."""

        def column_loop(pulse):
            c, s = np.cos(pulse.omega_t), np.sin(pulse.omega_t)
            rot = np.array([[c, -1j * s], [-1j * s, c]])
            cos_l, sin_l = np.cos(pulse.lambda_t), np.sin(pulse.lambda_t)
            prefactor = np.exp(-1j * pulse.lambda_t)
            out = np.zeros((4, 4), dtype=complex)
            for a in (0, 1):
                for b in (0, 1):
                    direct = np.kron(rot[:, a], rot[:, b])
                    flipped = np.kron(rot[:, a ^ 1], rot[:, b ^ 1])
                    out[:, 2 * a + b] = prefactor * (cos_l * direct - 1j * sin_l * flipped)
            return out

        grid = np.linspace(0, 2 * np.pi, 31)
        pulses = [CANONICAL_PULSE] + [PulseParams(lt, ot) for lt in grid for ot in grid]
        for pulse in pulses:
            u = effective_unitary(pulse)
            assert not u.flags.writeable
            assert np.array_equal(u, column_loop(pulse))


class TestGenerators:
    def test_effective_hamiltonian_hermitian(self):
        h = effective_hamiltonian(params_for())
        assert np.max(np.abs(h - h.conj().T)) < 1e-12

    def test_quadratic_scaling_in_coupling(self):
        """At fixed detuning, doubling the coupling quadruples the generator."""
        base = effective_hamiltonian(CavityParams(g=1.0, delta=10.0, omega_rabi=200.0))
        doubled = effective_hamiltonian(CavityParams(g=2.0, delta=10.0, omega_rabi=200.0))
        assert np.max(np.abs(doubled - 4.0 * base)) < 1e-12

    def test_exchange_matrix_element(self):
        """<eg| H |ge> equals the dispersive coupling.

        Both ordered atom pairs contribute an exchange term; that weight is
        what makes the generator's exponential reproduce the closed-form
        map's mixing angle (checked independently below).
        """
        p = params_for()
        h = effective_hamiltonian(p)
        assert h[1, 2] == pytest.approx(p.dispersive_coupling, abs=1e-14)

    def test_exponentials_reproduce_closed_form_gg_column(self):
        p = params_for()
        t = 0.7 / p.dispersive_coupling
        u = expm(-1j * drive_hamiltonian(p) * t) @ expm(-1j * effective_hamiltonian(p) * t)
        closed = effective_unitary(PulseParams(p.dispersive_coupling * t, p.omega_rabi * t))
        assert np.max(np.abs(u[:, 3] - closed[:, 3])) < 1e-10

    def test_drive_eigenvalues(self):
        p = params_for()
        eigs = np.linalg.eigvalsh(drive_hamiltonian(p))
        expected = np.array([-2, 0, 0, 2]) * p.omega_rabi
        assert np.max(np.abs(np.sort(eigs) - expected)) < 1e-9

    def test_zero_drive_is_zero_matrix(self):
        p = CavityParams(g=1.0, delta=10.0, omega_rabi=0.0)
        assert np.max(np.abs(drive_hamiltonian(p))) == 0.0

    def test_full_drive_angle_closes_rotation(self):
        """A drive angle of pi is a 2*pi rotation of each atom: the propagator is +identity."""
        p = params_for()
        t = np.pi / p.omega_rabi
        u = expm(-1j * drive_hamiltonian(p) * t)
        assert np.max(np.abs(u - np.eye(4))) < 1e-12

    def test_half_drive_angle_gives_minus_xx(self):
        p = params_for()
        t = np.pi / 2 / p.omega_rabi
        u = expm(-1j * drive_hamiltonian(p) * t)
        sx = np.array([[0, 1], [1, 0]])
        assert np.max(np.abs(u + np.kron(sx, sx))) < 1e-12


class TestEvolutionOperator:
    def test_t_zero_is_identity(self):
        assert np.max(np.abs(evolution_operator(params_for(), 0.0) - np.eye(4))) < 1e-12

    def test_matches_effective_unitary(self):
        p = params_for()
        t = (np.pi / 4) / p.dispersive_coupling
        u = evolution_operator(params_for(), t)
        closed = effective_unitary(PulseParams(p.dispersive_coupling * t, p.omega_rabi * t))
        assert np.max(np.abs(u - closed)) < 1e-10

    def test_unitary_for_random_times(self):
        rng = np.random.default_rng(7)
        p = params_for()
        for _ in range(100):
            u = evolution_operator(p, float(rng.uniform(0, 5)))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) < 1e-10

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            evolution_operator(params_for(), -1.0)


class TestFullHamiltonian:
    """The directly built triplet block: photon-major, row ``3 * n + slot`` for slot (ee, T0, gg)."""

    def test_hermitian(self):
        block, singlet = full_hamiltonian(params_for(), FockSpace(4))
        assert block.dtype == singlet.dtype == np.float64
        assert np.array_equal(block, block.T)

    def test_decoupled_limit_is_diagonal(self):
        p = CavityParams(g=0.0, delta=10.0, omega_rabi=0.0)
        block, singlet = full_hamiltonian(p, FockSpace(3))
        assert np.max(np.abs(block - np.diag(np.diag(block)))) < 1e-14
        # Bare cavity detuning in the rotating frame: -delta per photon on every slot.
        bare = -10.0 * np.arange(4)
        assert np.max(np.abs(np.diag(block).reshape(4, 3) - bare[:, None])) < 1e-12
        assert np.max(np.abs(singlet - bare)) < 1e-12

    def test_coupling_connects_adjacent_fock_levels_only(self):
        block, _ = full_hamiltonian(params_for(), FockSpace(5))
        rows, cols = np.nonzero(block)
        assert np.max(np.abs(rows // 3 - cols // 3)) == 1

    def test_single_excitation_matrix_element(self):
        """<gg, n+1| H |T0, n> = <T0, n+1| H |ee, n> = sqrt2 g sqrt(n+1) from the ladder algebra."""
        g = 1.7
        p = CavityParams(g=g, delta=10.0, omega_rabi=200.0)
        fock = FockSpace(6)
        block, _ = full_hamiltonian(p, fock)
        for n in range(fock.n_max):
            expected = np.sqrt(2) * g * np.sqrt(n + 1)
            assert block[3 * (n + 1) + 2, 3 * n + 1] == pytest.approx(expected, abs=1e-12)
            assert block[3 * (n + 1) + 1, 3 * n] == pytest.approx(expected, abs=1e-12)

    def test_n_max_validation(self):
        with pytest.raises(ValueError):
            FockSpace(0)

    def test_n_max_must_be_an_integer(self):
        assert FockSpace(np.int64(8)).levels == 9
        with pytest.raises(ValueError, match="n_max must be an integer"):
            FockSpace(2.5)

    def test_n_max_cap(self):
        assert FockSpace(MAX_FOCK).dimension == 4 * (MAX_FOCK + 1)  # constructing allocates nothing
        with pytest.raises(ValueError, match=f"^n_max must be 1..{MAX_FOCK}, got {MAX_FOCK + 1}$"):
            FockSpace(MAX_FOCK + 1)

    @pytest.mark.parametrize("n_max", [4, 8])
    @pytest.mark.parametrize("params", [params_for(), GENERIC, CavityParams(g=1, delta=3, omega_rabi=11)])
    def test_real_symmetric_and_equal_to_kron_chain(self, params, n_max):
        fock = FockSpace(n_max)
        block, singlet = full_hamiltonian(params, fock)
        assert block.dtype == np.float64
        assert np.array_equal(block, block.T)
        expected_block, expected_singlet = rotated_split(kron_chain_hamiltonian(params, fock), fock.levels)
        assert np.max(np.abs(block - expected_block)) < 1e-12
        assert np.max(np.abs(singlet - expected_singlet)) < 1e-12


class TestValidateEffectiveModel:
    def test_zero_coupling_angle_without_duration(self):
        """At g = 0 no duration realizes a nonzero coupling angle."""
        p = CavityParams(g=0.0, delta=10.0, omega_rabi=37.0)
        with pytest.raises(ValueError):
            validate_effective_model(p, FockSpace(4), PulseParams(0.1, 0.0), 0)

    def test_error_small_in_good_regime(self):
        err = validate_effective_model(params_for(20, 20), FockSpace(8), CANONICAL_PULSE, 0)
        assert err < 0.05

    def test_truncation_warning_fires(self):
        p = CavityParams(g=1.0, delta=2.0, omega_rabi=4.0)
        with pytest.warns(TruncationWarning):
            validate_effective_model(p, FockSpace(1), CANONICAL_PULSE, 1)

    def test_thermal_mixture_leak_counts_weights(self):
        """Thermal nbar = 1 holds ~4.5e-13 of its weight on level 40, so no warning fires."""
        weights = thermal_weights(1.0, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            validate_effective_model(params_for(40, 40), FockSpace(40), CANONICAL_PULSE, weights)

    def test_half_weight_on_top_level_warns(self):
        weights = [0.5] + [0.0] * 39 + [0.5]
        with pytest.warns(TruncationWarning, match="population 4.99e-01 reached Fock level 40"):
            validate_effective_model(params_for(40, 40), FockSpace(40), CANONICAL_PULSE, weights)

    @pytest.mark.parametrize("n_max", [4, 8])
    @pytest.mark.parametrize("initial_cavity,duration", [
        (0, None), (1, None), ([0.5, 0.3, 0.2], None), (0, 2.5),
    ])
    def test_matches_dense_expm_oracle(self, initial_cavity, duration, n_max):
        p = params_for()
        fock = FockSpace(n_max)
        weights = np.zeros(fock.levels)
        if isinstance(initial_cavity, int):
            weights[initial_cavity] = 1.0
        else:
            weights[: len(initial_cavity)] = initial_cavity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)  # n_max 4 is meant to truncate
            err = validate_effective_model(p, fock, pulse_for(p, duration), initial_cavity)
        expected = dense_expm_validation(p, fock, pulse_for(p, duration), weights)
        assert abs(err - expected) < 1e-10

    @pytest.mark.parametrize("weights", [[float("nan"), 1.0], [0.5, float("inf")]])
    def test_non_finite_mixture_rejected(self, weights):
        with pytest.raises(ValueError, match="mixture weights must be finite"):
            validate_effective_model(params_for(), FockSpace(4), CANONICAL_PULSE, weights)

    def test_mixture_weights_average_branches(self):
        p = params_for(10, 20)
        fock = FockSpace(8)
        mixed = validate_effective_model(p, fock, CANONICAL_PULSE, [0.5, 0.5])
        e0 = validate_effective_model(p, fock, CANONICAL_PULSE, 0)
        e1 = validate_effective_model(p, fock, CANONICAL_PULSE, 1)
        assert mixed <= max(e0, e1) + 1e-12

    def test_sweep_rows_carry_inputs(self):
        cfg = {"delta_over_g": [10.0, 20.0], "omega_over_delta": 20.0, "n_max": 6,
               "lambda_t": CANONICAL_PULSE.lambda_t, "cavity_fock": 0}
        rows, _ = RUNNERS["physics-sweep"](cfg)
        assert [row["delta_over_g"] for row in rows] == [10.0, 20.0]
        assert all(row["n_max"] == 6 and row["omega_over_delta"] == 20.0 for row in rows)
        assert all(0.0 <= row["error"] <= 1.0 for row in rows)


class TestExchangeSplit:
    """The singlet (|eg> - |ge>)/sqrt(2) is dark, so the full model splits by atom exchange."""

    @pytest.mark.parametrize("n_max", [4, 8])
    @pytest.mark.parametrize("params", [params_for(), GENERIC, CavityParams(g=1, delta=3, omega_rabi=11)])
    def test_oracle_fill_equals_kron_chain(self, params, n_max):
        fock = FockSpace(n_max)
        h = dense_hamiltonian(params, fock)
        assert h.dtype == np.float64
        assert np.array_equal(h, h.T)
        assert np.max(np.abs(h - kron_chain_hamiltonian(params, fock))) < 1e-12

    @pytest.mark.parametrize("params", [params_for(), GENERIC])
    @pytest.mark.parametrize("n_max", [1, 8])
    def test_singlet_couples_to_nothing(self, params, n_max):
        levels = n_max + 1
        rotated = exchange_rotated(dense_hamiltonian(params, FockSpace(n_max)), levels)
        singlet = np.arange(2 * levels, 3 * levels)
        energies = rotated[singlet, singlet].copy()
        rotated[singlet, singlet] = 0.0
        assert not rotated[singlet].any()
        assert not rotated[:, singlet].any()
        expected = -params.delta * np.arange(levels)
        np.testing.assert_allclose(energies, expected, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("params", [params_for(), GENERIC])
    @pytest.mark.parametrize("n_max", [1, 6])
    @pytest.mark.parametrize("initial_cavity,duration", [
        (0, None), (1, None), ([0.6, 0.4], None), (0, 2.5),
    ])
    def test_matches_dense_expm_oracle(self, params, n_max, initial_cavity, duration):
        fock = FockSpace(n_max)
        weights = np.zeros(fock.levels)
        if isinstance(initial_cavity, int):
            weights[initial_cavity] = 1.0
        else:
            weights[: len(initial_cavity)] = initial_cavity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)  # n_max 1 is meant to truncate
            err = validate_effective_model(params, fock, pulse_for(params, duration), initial_cavity)
        expected = dense_expm_validation(params, fock, pulse_for(params, duration), weights)
        assert abs(err - expected) < 1e-10


class TestPhotonMajorBlock:
    """The triplet block is built photon-major and propagated in real arithmetic."""

    @pytest.mark.parametrize("params", [params_for(), GENERIC, params_for(80.0, 20.0)])
    @pytest.mark.parametrize("n_max", [1, 8, 96])
    def test_block_equals_reordered_elementwise_rotation(self, params, n_max):
        fock = FockSpace(n_max)
        expected_block, expected_singlet = rotated_split(dense_hamiltonian(params, fock), fock.levels)
        block, singlet = full_hamiltonian(params, fock)
        assert np.array_equal(block, expected_block)
        assert np.array_equal(singlet, expected_singlet)

    def test_block_is_banded(self):
        """Drive and exchange coupling reach one photon number at most: bandwidth 3 + 1."""
        block, _ = full_hamiltonian(params_for(), FockSpace(8))
        rows, cols = np.nonzero(block)
        assert np.max(np.abs(rows - cols)) == 4

    @pytest.mark.parametrize("delta_over_g", [10.0, 40.0, 80.0, 20.0, 60.0])
    @pytest.mark.parametrize("initial_cavity", [0, 1, [0.5, 0.3, 0.2], 2, 3, 4])
    def test_matches_slot_major_oracle_at_n_max_96(self, delta_over_g, initial_cavity):
        params = params_for(delta_over_g, 20.0)
        fock = FockSpace(96)
        err = validate_effective_model(params, fock, CANONICAL_PULSE, initial_cavity)
        expected = slot_major_validation(params, fock, CANONICAL_PULSE, initial_cavity)
        assert abs(err - expected) < 1e-9


class TestLeadingBlock:
    """The eigensolve covers the leading Fock levels that a Duhamel bound certifies."""

    # The physics-sweep benchmark's grid: delta/g 10, 12, ..., 80 at Omega/delta 20, n_max 96.
    BENCHMARK_SWEEP = {"delta_over_g": [float(x) for x in range(10, 81, 2)], "omega_over_delta": 20.0,
                       "n_max": 96, "lambda_t": CANONICAL_PULSE.lambda_t}

    @staticmethod
    def eigh_sizes(call):
        """The result of ``call()`` and the size of each matrix it passed to ``numpy.linalg.eigh``."""
        sizes = []
        eigh = np.linalg.eigh

        def counting(a, *args, **kwargs):
            sizes.append(a.shape[0])
            return eigh(a, *args, **kwargs)

        with mock.patch("numpy.linalg.eigh", counting):
            return call(), sizes

    @pytest.mark.parametrize("delta_over_g", [10.0, 40.0, 80.0])
    @pytest.mark.parametrize("initial_cavity", [0, 1])
    def test_error_bit_identical_across_n_max(self, delta_over_g, initial_cavity):
        params = params_for(delta_over_g, 20.0)
        errors = {validate_effective_model(params, FockSpace(n_max), CANONICAL_PULSE, initial_cavity)
                  for n_max in (40, 96, 400)}
        assert len(errors) == 1

    @pytest.mark.parametrize("n_max,sizes", [(12, [39]), (18, [54, 57])])
    def test_uncertified_point_ends_on_full_block(self, n_max, sizes):
        """Far from the dispersive regime the bound fails at every truncated size."""
        params, fock = params_for(2.0, 2.0), FockSpace(n_max)
        with pytest.warns(TruncationWarning, match=f"reached Fock level {n_max};"):
            err, seen = self.eigh_sizes(
                lambda: validate_effective_model(params, fock, CANONICAL_PULSE, 1))
        assert seen == sizes and seen[-1] == 3 * fock.levels
        assert abs(err - slot_major_validation(params, fock, CANONICAL_PULSE, 1)) < 1e-9

    @pytest.mark.parametrize("fock_index,size", [(0, 48), (1, 54)])
    def test_benchmark_grid_calls(self, fock_index, size):
        """One full_hamiltonian per point, of the leading 2 (n + 1) + 14 levels only, and
        one eigh of the block it built: the 291-row block of n_max 96 is never built."""
        points = len(self.BENCHMARK_SWEEP["delta_over_g"])
        built = []

        def building(params, fock):
            block, singlet = full_hamiltonian(params, fock)
            built.append(block.shape[0])
            return block, singlet

        with mock.patch.object(cavity, "full_hamiltonian", building):
            (rows, _), sizes = self.eigh_sizes(
                lambda: RUNNERS["physics-sweep"](self.BENCHMARK_SWEEP | {"cavity_fock": fock_index}))
        assert len(rows) == points
        assert built == sizes == [size] * points

    @pytest.mark.parametrize("params", [params_for(2.0, 2.0), params_for(), params_for(80.0, 20.0),
                                        params_for(40.0, 2.0), GENERIC])
    @pytest.mark.parametrize("m", [2, 16, 18, 97])
    def test_leading_build_equals_full_prefix(self, params, m):
        """The block built on levels 0..m-1 is the full block's leading 3m x 3m submatrix
        and its singlet energies are the full ones' first m, bit for bit."""
        block, singlet = full_hamiltonian(params, FockSpace(96))
        leading, leading_singlet = full_hamiltonian(params, FockSpace(m - 1))
        assert leading.shape == (3 * m, 3 * m)
        assert (leading == block[: 3 * m, : 3 * m]).all()
        assert (leading_singlet == singlet[:m]).all()


class TestTraceDistance:
    """The real 8x8 embedding gives the complex eigvalsh trace distance of ``tests/oracles.py``."""

    @staticmethod
    def distance_calls(call):
        """The (rho, targets, distances) of every ``_trace_distances`` call that ``call()`` makes."""
        calls = []
        original = cavity._trace_distances

        def recording(rho, targets):
            distances = original(rho, targets)
            calls.append((rho, targets, distances))
            return distances

        with mock.patch.object(cavity, "_trace_distances", recording):
            call()
        return calls

    @staticmethod
    def assert_matches_oracle(calls):
        assert calls
        for rho, targets, distances in calls:
            assert np.abs(distances - trace_distances(rho, targets)).max() <= 1e-15

    @pytest.mark.parametrize("fock_index", [0, 1])
    def test_benchmark_points(self, fock_index):
        sweep = TestLeadingBlock.BENCHMARK_SWEEP | {"cavity_fock": fock_index}
        calls = self.distance_calls(lambda: RUNNERS["physics-sweep"](sweep))
        assert len(calls) == len(sweep["delta_over_g"])
        self.assert_matches_oracle(calls)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_density_matrices_against_pure_targets(self, seed):
        rng = np.random.default_rng(seed)
        # Four density matrices G G^dagger / tr, G keeping a random rank 1..4 of its columns.
        cols = rng.normal(size=(4, 4, 4)) + 1j * rng.normal(size=(4, 4, 4))
        cols *= (np.arange(4) < rng.integers(1, 5, size=4)[:, None])[:, None, :]
        rho = cols @ cols.conj().transpose(0, 2, 1)
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        kets = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        targets = kets[:, :, None] * kets.conj()[:, None, :]
        self.assert_matches_oracle([(rho, targets, cavity._trace_distances(rho, targets))])

    def test_full_block_path(self):
        params, fock = params_for(2.0, 2.0), FockSpace(12)
        with pytest.warns(TruncationWarning):
            calls = self.distance_calls(
                lambda: validate_effective_model(params, fock, CANONICAL_PULSE, 1))
        self.assert_matches_oracle(calls)


class TestPhaseResolution:
    """Pulses too long for float64 phases are refused rather than evaluated."""

    @pytest.mark.parametrize("params,pulse", [
        (params_for(), PulseParams(1e300, np.pi)),
        (params_for(10.0, 1e300), CANONICAL_PULSE),
        (params_for(1e300), CANONICAL_PULSE),  # eps*max|E|*t overflows, with no RuntimeWarning
    ])
    def test_unresolvable_pulse_rejected(self, params, pulse):
        with pytest.raises(ValueError, match=r"eps\*max\|E\|\*t = .* exceeds 1e-06"):
            validate_effective_model(params, FockSpace(8), pulse, 0)

    def test_explicit_duration_is_bounded_too(self):
        params = params_for()
        with pytest.raises(ValueError, match="exceeds"):
            validate_effective_model(params, FockSpace(8), pulse_for(params, 1e12), 0)

    def test_unpropagated_levels_do_not_refuse(self):
        """At delta/g 3000 and n_max 400 only levels the certified solve never reaches are too fast."""
        params, fock = params_for(3000.0, 20.0), FockSpace(400)
        duration = CANONICAL_PULSE.lambda_t / params.dispersive_coupling
        block, _ = full_hamiltonian(params, fock)
        # A diagonal entry is a Rayleigh quotient, so max|E| of the full block is at least this.
        assert sys.float_info.epsilon * np.abs(np.diag(block)).max() * duration > MAX_PHASE_ERROR
        err = validate_effective_model(params, fock, CANONICAL_PULSE, 0)
        assert 0.0 <= err <= 1.0
        assert err == validate_effective_model(params, FockSpace(40), CANONICAL_PULSE, 0)

    def test_far_from_dispersive_is_still_evaluated(self):
        """delta/g = 1e-300 is far from the effective model but has short, resolvable phases."""
        err = validate_effective_model(params_for(1e-300, 20.0), FockSpace(8), CANONICAL_PULSE, 0)
        assert 0.0 <= err <= 1.0


class TestTimingErrorFidelity:
    def test_perfect_timing(self):
        assert timing_error_fidelity(0.0) == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_in_epsilon(self):
        for eps in (0.01, 0.03, 0.05):
            assert timing_error_fidelity(eps) == pytest.approx(
                timing_error_fidelity(-eps), abs=1e-10
            )

    def test_quadratic_loss_bound(self):
        for eps in np.linspace(-0.05, 0.05, 21):
            f = timing_error_fidelity(float(eps))
            assert 1.0 - f <= 2.0 * eps * eps + 1e-12

    def test_matches_overlap_formula(self):
        """The worst-case overlap follows cos^2(eps*pi/4) for a pure coupling-angle error."""
        for eps in (0.0, 0.02, 0.1, -0.07):
            expected = np.cos(eps * np.pi / 4) ** 2
            assert timing_error_fidelity(eps) == pytest.approx(expected, abs=1e-10)

    def test_epsilon_range_validated(self):
        with pytest.raises(ValueError):
            timing_error_fidelity(1.0)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_epsilon_rejected(self, eps):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            timing_error_fidelity(eps)

    def test_closed_form(self):
        """The worst-case overlap is cos^2(pi eps / 4) across the accepted range, and the
        four-encoding simulation gives the same value."""
        for eps in np.linspace(-0.7, 0.9, 24):
            expected = math.cos(math.pi * eps / 4) ** 2
            assert abs(timing_error_fidelity(float(eps)) - expected) <= 2e-15
            assert abs(timing_error_fidelity(float(eps)) - timing_error_simulation(float(eps))) <= 2e-15

    def test_epsilon_text_rejected(self):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            timing_error_fidelity("0.1")


class TestSidebandLaw:
    """The drive sidebands leave a Fock-0/1 error gap of sqrt(2)*pi*delta/(8*Omega).

    Acceptance 7b demands that gap vanish at Omega/delta = 20; this pins the
    law that explains why it does not: the gap falls as 1/Omega with that
    coefficient, at delta/g = 40 where the dispersive terms are negligible.
    """

    RATIOS = np.array([10.0, 20.0, 40.0, 80.0, 160.0])

    @pytest.fixture(scope="class")
    def gaps(self):
        fock = FockSpace(8)
        out = []
        for ratio in self.RATIOS:
            p = CavityParams.from_ratios(40.0, ratio)
            e0 = validate_effective_model(p, fock, CANONICAL_PULSE, 0)
            e1 = validate_effective_model(p, fock, CANONICAL_PULSE, 1)
            out.append(abs(e1 - e0))
        return np.array(out)

    def test_coefficient(self, gaps):
        assert np.allclose(gaps * self.RATIOS, np.sqrt(2) * np.pi / 8, rtol=0.01, atol=0.0)

    def test_inverse_omega_slope(self, gaps):
        slope, _ = np.polyfit(np.log(self.RATIOS), np.log(gaps), 1)
        assert slope == pytest.approx(-1.0, rel=0.01)


class TestFockThermalLaw:
    """The full-model error at Fock n is (2n+1) (sqrt(2) pi/16) delta/Omega.

    A thermal mixture of mean photon number nbar follows the same law with nbar
    for n.  The coefficient is pinned as measured, to 0.5%, at delta/g = 40 and
    Omega/delta = 40; TestSidebandLaw's sqrt(2) pi/8 per photon is its slope in n.
    """

    PARAMS = CavityParams.from_ratios(40.0, 40.0)
    UNIT = np.sqrt(2) * np.pi / 16 / 40.0  # (sqrt(2) pi/16) delta/Omega

    @pytest.mark.parametrize("n", range(5))
    def test_fock(self, n):
        err = validate_effective_model(self.PARAMS, FockSpace(16), CANONICAL_PULSE, n)
        assert err / ((2 * n + 1) * self.UNIT) == pytest.approx(1.0, abs=0.005)

    @pytest.mark.parametrize("nbar", [0.05, 0.2, 0.5, 1.0])
    def test_thermal(self, nbar):
        weights = thermal_weights(nbar, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            err = validate_effective_model(self.PARAMS, FockSpace(40), CANONICAL_PULSE, weights)
        assert err / ((2 * nbar + 1) * self.UNIT) == pytest.approx(1.0, abs=0.005)


class TestDerivedDriveShift:
    """Acceptance 7b's point (delta/g 40, Omega/delta 20, n_max 8) against a derived law, not a fit.

    Time-averaged to second order, the drive sidebands leave (g^2/4 Omega)(2n+1) Jx, a drive
    shift that depends on the photon number n.  Over the pulse it rotates the atoms by
    theta_n = (2n+1) pi delta/(8 Omega), so the worst input's trace distance is
    sqrt(1 - cos^4(theta_n/2)): 0.013884 / 0.041637 for Fock 0 / 1.  The full model gives
    0.013912 / 0.041682; the 2.9e-5 / 4.5e-5 left over is the next order.
    """

    @pytest.mark.parametrize("n,derived", [(0, 0.013884), (1, 0.041637)])
    def test_fock_error_follows_derived_shift(self, n, derived):
        theta = (2 * n + 1) * math.pi / (8 * 20.0)
        law = math.sqrt(1 - math.cos(theta / 2) ** 4)
        assert law == pytest.approx(derived, abs=1e-6)
        err = validate_effective_model(CavityParams.from_ratios(40.0, 20.0), FockSpace(8), CANONICAL_PULSE, n)
        assert abs(err - law) <= 1e-4


class TestBlasThreadDefault:
    """Importing ghzdc defaults OpenBLAS to one thread unless a thread count is already set."""

    THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

    def openblas_threads_after_import(self, **settings):
        env = {k: v for k, v in os.environ.items() if k not in self.THREAD_VARS}
        src = str(Path(ghzdc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(settings)
        code = "import ghzdc, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        return proc.stdout.strip()

    def test_unset_defaults_to_one(self):
        assert self.openblas_threads_after_import() == "1"

    def test_user_openblas_setting_kept(self):
        assert self.openblas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"

    def test_omp_setting_leaves_openblas_unset(self):
        assert self.openblas_threads_after_import(OMP_NUM_THREADS="2") == "None"


class TestImportFootprint:
    def test_cli_import_leaves_scipy_unloaded(self):
        env = dict(os.environ)
        src = str(Path(ghzdc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import sys, ghzdc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert proc.stdout.strip() == "[]"
