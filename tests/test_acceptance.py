"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.

Criterion 7 is split: 7a (error shrinks with detuning) holds, while 7b
(identical error for cavity Fock inputs 0 and 1 to 1e-6) does not hold for
the faithful driven model: the drive sidebands leave a photon-number
dependent residual of order delta/(8 Omega) per photon, four orders above
the demanded tolerance at the pinned drive ratio.  The test states the
demand honestly and is expected to fail; see the repository notes.
"""

from fractions import Fraction
from itertools import product

import numpy as np
from scipy.linalg import expm

from ghzdc.adversary import (
    AdversaryModel,
    analytic_success,
    ancilla_attack_tradeoff,
    check_violation_rate,
    decode_distribution,
    intercept_resend_detection,
    monte_carlo_confirm,
)
from ghzdc.cavity import (
    CANONICAL_PULSE,
    CavityParams,
    FockSpace,
    PulseParams,
    effective_unitary,
    validate_effective_model,
)
from ghzdc.cli import main as cli_main
from ghzdc.protocol import (
    DecodeKey,
    EncodingOp,
    SessionConfig,
    bob_interaction,
    encode,
    prepare_ghz,
    run_session,
    security_check_round,
    timing_error_fidelity,
)
from ghzdc.qstate import QuantumState
from oracles import drive_hamiltonian, effective_hamiltonian, global_phase_equal

SQ2 = 1 / np.sqrt(2)


def vec(entries: dict[int, complex], n: int = 3) -> QuantumState:
    amps = np.zeros(2**n, dtype=complex)
    for idx, amp in entries.items():
        amps[idx] = amp
    return QuantumState(amps)


ENCODED_TARGETS = {
    EncodingOp.IDENTITY: vec({0b000: SQ2, 0b111: 1j * SQ2}),
    EncodingOp.SIGMA_X: vec({0b100: SQ2, 0b011: 1j * SQ2}),
    EncodingOp.I_SIGMA_Y: vec({0b100: SQ2, 0b011: -1j * SQ2}),
    EncodingOp.SIGMA_Z: vec({0b000: SQ2, 0b111: -1j * SQ2}),
}

POST_INTERACTION_TARGETS = {
    EncodingOp.IDENTITY: vec({0b000: 0.5, 0b001: 0.5, 0b110: -0.5j, 0b111: 0.5j}),
    EncodingOp.SIGMA_X: vec({0b100: 0.5, 0b101: 0.5, 0b010: -0.5j, 0b011: 0.5j}),
    EncodingOp.I_SIGMA_Y: vec({0b010: -0.5j, 0b011: -0.5j, 0b100: 0.5, 0b101: -0.5}),
    EncodingOp.SIGMA_Z: vec({0b110: -0.5j, 0b111: -0.5j, 0b000: 0.5, 0b001: -0.5}),
}

VALID_KEYS = {
    EncodingOp.IDENTITY: {DecodeKey("ee", "+"), DecodeKey("gg", "-")},
    EncodingOp.SIGMA_X: {DecodeKey("ge", "+"), DecodeKey("eg", "-")},
    EncodingOp.I_SIGMA_Y: {DecodeKey("eg", "+"), DecodeKey("ge", "-")},
    EncodingOp.SIGMA_Z: {DecodeKey("gg", "+"), DecodeKey("ee", "-")},
}


def report(number: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_encoding_correctness():
    """Each local operation maps the resource state to its listed output."""
    worst = 0.0
    for op, target in ENCODED_TARGETS.items():
        out = encode(prepare_ghz(2), op)
        if op is EncodingOp.I_SIGMA_Y:
            ok_state = global_phase_equal(out, target, 1e-10)
            worst = max(worst, 0.0 if ok_state else 1.0)
        else:
            worst = max(worst, float(np.max(np.abs(out.amplitudes - target.amplitudes))))
    ok = worst < 1e-10
    report("1", ok, f"encoding correctness, worst deviation {worst:.2e} (tol 1e-10)")
    assert ok


def test_criterion_2_evolvement_matches_exponential_oracle():
    """Closed-form map equals exp(-i H_drive t) exp(-i H_eff t) over a 20x20 pulse grid."""
    worst = 0.0
    for lt in np.linspace(0.0, 2 * np.pi, 20):
        for ot in np.linspace(0.0, 2 * np.pi, 20):
            params = CavityParams(
                g=np.sqrt(2.0 * lt) if lt > 0 else 0.0, delta=1.0, omega_rabi=ot
            )
            oracle = expm(-1j * drive_hamiltonian(params)) @ expm(
                -1j * effective_hamiltonian(params)
            )
            closed = effective_unitary(PulseParams(lt, ot))
            worst = max(worst, float(np.max(np.abs(closed - oracle))))
    ok = worst < 1e-10
    report("2", ok, f"evolvement vs matrix-exponential oracle, worst entry {worst:.2e}")
    assert ok


def test_criterion_3_canonical_pulse_outputs():
    """The canonical pulse carries each encoded state to its decodable product form."""
    ok = True
    for op, target in POST_INTERACTION_TARGETS.items():
        out = bob_interaction(encode(prepare_ghz(2), op), (1, 2))
        ok = ok and global_phase_equal(out, target, 1e-10)
    report("3", ok, "post-interaction states match the decode targets up to global phase")
    assert ok


def test_criterion_4_decode_table_exactness_and_monte_carlo():
    """Enumeration gives exactly 1/2 on the two valid keys; 10^4-round MC agrees."""
    half = Fraction(1, 2)
    exact_ok = True
    for op in EncodingOp:
        dist = decode_distribution(op)
        for key, p in dist.items():
            expected = half if key in VALID_KEYS[op] else Fraction(0)
            exact_ok = exact_ok and p == expected
    rounds = 10_000
    se = np.sqrt(0.5 * 0.5 / rounds)
    mc_ok = True
    worst_dev = 0.0
    for op in EncodingOp:
        config = SessionConfig(rng_seed=40_000 + op.value, p_check=0.0)
        counts: dict[DecodeKey, int] = {}
        for idx in range(rounds):
            record = run_session(config, op.value, idx)
            key = DecodeKey(record.bob_outcomes, record.partner_signs[0])
            counts[key] = counts.get(key, 0) + 1
        mc_ok = mc_ok and set(counts) == VALID_KEYS[op]
        for key in VALID_KEYS[op]:
            dev = abs(counts.get(key, 0) / rounds - 0.5)
            worst_dev = max(worst_dev, dev)
            mc_ok = mc_ok and dev <= 5 * se
    ok = exact_ok and mc_ok
    report(
        "4",
        ok,
        f"decode table exact halves; MC worst deviation {worst_dev:.4f} <= {5 * se:.4f}",
    )
    assert ok


def test_criterion_5_security_numbers():
    """Solo-guess and cheat probabilities match the four claimed rationals, MC-confirmed."""
    exact = {
        "solo_bob": (analytic_success(AdversaryModel("bob_alone_guess")), Fraction(1, 2)),
        "solo_charlie": (analytic_success(AdversaryModel("charlie_alone_guess")), Fraction(1, 4)),
        "cheat_charlie": (analytic_success(AdversaryModel("charlie_lies")), Fraction(1, 2)),
        "cheat_bob": (analytic_success(AdversaryModel("bob_lies")), Fraction(3, 4)),
    }
    exact_ok = all(got == want for got, want in exact.values())
    rounds = 10_000
    mc_ok = True
    for seed, model in enumerate(
        (
            AdversaryModel("bob_alone_guess"),
            AdversaryModel("charlie_alone_guess"),
            AdversaryModel("charlie_lies"),
            AdversaryModel("bob_lies"),
        )
    ):
        rep = monte_carlo_confirm(model, rounds, seed=50_000 + seed)
        mc_ok = mc_ok and abs(rep.empirical_success - rep.analytic_success) <= 5 * rep.std_error
    ok = exact_ok and mc_ok
    values = {name: f"{got}" for name, (got, _) in exact.items()}
    report("5", ok, f"security numbers {values}, Monte Carlo within 5 SE")
    assert ok


def test_criterion_6_eavesdropping_detection():
    """Clean checks are silent; intercept-resend is caught; leakage needs disturbance."""
    clean_rate = check_violation_rate(prepare_ghz(2))
    rng = np.random.default_rng(60_001)
    sampled_violations = 0
    for _ in range(500):
        bases = ["XY"[rng.integers(2)] for _ in range(3)]
        rands = [rng.random() for _ in range(3)]
        sampled_violations += security_check_round(prepare_ghz(2), bases, rands).violation
    clean_ok = clean_rate == 0.0 and sampled_violations == 0

    detection = intercept_resend_detection(2, "computational")
    model = AdversaryModel("intercept_resend", target_qubit=2, intercept_basis="computational")
    mc = monte_carlo_confirm(model, 10_000, seed=60_002)
    intercept_ok = (
        detection > 0
        and abs(mc.empirical_success - float(detection)) <= 5 * mc.std_error
    )

    grid_ok = True
    leak_free_points = 0
    for theta in np.linspace(0.0, np.pi / 2, 50):
        if analytic_success(AdversaryModel("ancilla_attack", theta=float(theta))) == 0.0:
            leak_free_points += 1
            grid_ok = grid_ok and ancilla_attack_tradeoff(float(theta)) < 1e-10
    ok = clean_ok and intercept_ok and grid_ok
    report(
        "6",
        ok,
        f"clean checks silent, intercept detection {detection} (MC ok), "
        f"{leak_free_points} zero-error grid points all leak-free",
    )
    assert ok


SWEEP_RATIOS = (10.0, 20.0, 40.0)


def _sweep_errors(cavity_fock: int) -> list[float]:
    errors = []
    for ratio in SWEEP_RATIOS:
        params = CavityParams.from_ratios(ratio, 20.0)
        errors.append(
            validate_effective_model(params, FockSpace(8), CANONICAL_PULSE, cavity_fock)
        )
    return errors


def test_criterion_7a_effective_model_error_shrinks_with_detuning():
    """Validation error decreases monotonically across delta/g in {10, 20, 40}."""
    errors = _sweep_errors(0)
    ok = errors[0] > errors[1] > errors[2]
    report(
        "7a",
        ok,
        "full-vs-effective error decreases along delta/g=10,20,40: "
        + ", ".join(f"{e:.6f}" for e in errors),
    )
    assert ok


def test_criterion_7b_fock_input_insensitivity():
    """Demand: validation error identical to 1e-6 for cavity Fock inputs 0 and 1.

    Known not to hold for the faithful driven model; kept as stated rather
    than weakened.  The measured gap is the drive-sideband photon shift.
    """
    params = CavityParams.from_ratios(40.0, 20.0)
    err0 = validate_effective_model(params, FockSpace(8), CANONICAL_PULSE, 0)
    err1 = validate_effective_model(params, FockSpace(8), CANONICAL_PULSE, 1)
    gap = abs(err0 - err1)
    ok = gap < 1e-6
    report(
        "7b",
        ok,
        f"Fock 0 vs 1 error gap {gap:.3e} (demanded < 1e-6); "
        f"errors {err0:.6f} / {err1:.6f}",
    )
    assert ok, (
        "photon-number dependent sideband residual ~pi*delta/(8*Omega) per photon "
        "exceeds the demanded 1e-6 by ~4 orders at Omega/delta = 20"
    )


def test_criterion_8_timing_robustness():
    """Perfect timing gives fidelity 1; the loss stays under 2 eps^2 on the grid."""
    f0 = timing_error_fidelity(0.0)
    grid_ok = True
    worst_margin = 0.0
    for eps in np.linspace(-0.05, 0.05, 21):
        loss = 1.0 - timing_error_fidelity(float(eps))
        worst_margin = max(worst_margin, loss - 2.0 * eps * eps)
        grid_ok = grid_ok and loss <= 2.0 * eps * eps + 1e-15
    ok = abs(f0 - 1.0) < 1e-12 and grid_ok
    report("8", ok, f"F(0)={f0:.15f}, worst (loss - 2eps^2) margin {worst_margin:.2e}")
    assert ok


def _coalition_guess_success(n_users: int, dropped_sign: int | None) -> float:
    """Optimal guess rate of the coalition that lost one user's sign report.

    Exact enumeration over messages and outcomes; ``dropped_sign`` indexes
    the missing report among the n_users - 1 sign holders (None keeps all).
    """
    comp = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    signs_vec = {0: np.array([SQ2, SQ2]), 1: np.array([SQ2, -SQ2])}
    n_signs = n_users - 1
    views: dict[tuple, dict[EncodingOp, float]] = {}
    for op in EncodingOp:
        state = bob_interaction(encode(prepare_ghz(n_users), op), (1, 2))
        tensor = state.amplitudes.reshape([2] * (n_users + 1))
        for bits in product((0, 1), repeat=n_users + 1):
            bras = [comp[bits[0]], comp[bits[1]]] + [signs_vec[b] for b in bits[2:]]
            amp = tensor
            for bra in reversed(bras):
                amp = np.tensordot(amp, bra.conj(), axes=([len(amp.shape) - 1], [0]))
            p = float(np.abs(amp) ** 2) / 4.0
            if p < 1e-15:
                continue
            kept = tuple(
                b for i, b in enumerate(bits[2:]) if dropped_sign is None or i != dropped_sign
            )
            view = (bits[0], bits[1], kept)
            views.setdefault(view, {}).setdefault(op, 0.0)
            views[view][op] += p
    return sum(max(by_op.values()) for by_op in views.values())


def test_criterion_9_multi_user_generalization():
    """Cooperative decoding is exact for 3 and 4 users; any missing sign breaks certainty."""
    accuracy_ok = True
    for n_users in (3, 4):
        config = SessionConfig(rng_seed=90_000 + n_users, p_check=0.0, n_users=n_users)
        for idx in range(1000):
            record = run_session(config, idx % 4, idx)
            accuracy_ok = accuracy_ok and record.decoded_bits == idx % 4

    enumeration_ok = True
    drop_rates = []
    for n_users in (3, 4):
        full = _coalition_guess_success(n_users, None)
        enumeration_ok = enumeration_ok and abs(full - 1.0) < 1e-10
        for dropped in range(n_users - 1):
            partial = _coalition_guess_success(n_users, dropped)
            drop_rates.append(partial)
            enumeration_ok = enumeration_ok and partial < 1.0 - 1e-10
    ok = accuracy_ok and enumeration_ok
    report(
        "9",
        ok,
        "multi-user decoding exact over 10^3 rounds; "
        f"coalition success without one sign: {sorted(set(round(r, 6) for r in drop_rates))}",
    )
    assert ok


def test_criterion_10_cli_determinism(tmp_path, capsys):
    """Identical config and seed reproduce byte-identical data sections."""
    commands = [
        ["session", "--rounds", "80", "--p-check", "0.15", "--seed", "10"],
        ["adversary", "--model", "bob-lies", "--rounds", "500", "--seed", "4", "--format", "csv"],
        ["physics-sweep", "--delta-over-g", "10,20", "--n-max", "6", "--format", "csv"],
        ["timing-sweep", "--epsilon-grid", "0:0.05:6"],
        ["decode-table", "--n-users", "3"],
    ]
    ok = True
    for i, argv in enumerate(commands):
        a = tmp_path / f"run_{i}_a.dat"
        b = tmp_path / f"run_{i}_b.dat"
        assert cli_main([*argv, "--out", str(a)]) == 0
        assert cli_main([*argv, "--out", str(b)]) == 0
        ok = ok and a.read_bytes() == b.read_bytes()
    capsys.readouterr()
    report("10", ok, f"{len(commands)} command configurations reproduced byte-identically")
    assert ok
