"""Adversary-lab tests: exact probabilities, attack detection, leakage trade-off.

Frozen expected values: solo guesses 1/2 (Bob) and 1/4 (Charlie); cheat
successes 1/2 (Charlie lying) and 3/4 (Bob lying); computational
intercept-resend detection 1/4 per check round, worked out from the
fifty-fifty |eee>/|ggg> forwarding ensemble, whose X/Y outcomes are
uniform, half of all rounds landing in the four-element accept set.
"""

import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from ghzdc import adversary
from ghzdc.adversary import (
    STRATEGIES,
    AdversaryModel,
    CheatReport,
    ancilla_attack_tradeoff,
    attach_ancilla,
    analytic_success,
    check_violation_rate,
    decode_distribution,
    intercept_resend_detection,
    monte_carlo_confirm,
)
from ghzdc.cavity import CANONICAL_PULSE, effective_unitary
from ghzdc.cli import MODEL_FLAGS
from ghzdc.protocol import (
    CHECK_BASES,
    PAIRS,
    CheckRecord,
    DecodeKey,
    EncodingOp,
    SessionConfig,
    _honest_post_state,
    _mix_steps,
    decode,
    encode,
    parity_accept_set,
    prepare_ghz,
    run_rounds,
)
from ghzdc.qstate import QuantumState, outcome_distribution
from oracles import (
    allclose,
    basis_state,
    binary_entropy,
    born_decode_distribution,
    eigenbasis_readout_information,
    fine_grid_information,
    holevo_by_eigvalsh,
    holevo_chi,
    norm,
)


class TestModels:
    def test_intercept_requires_transit_qubit(self):
        with pytest.raises(ValueError):
            AdversaryModel("intercept_resend", target_qubit=1, intercept_basis="computational")

    def test_intercept_basis_checked(self):
        with pytest.raises(ValueError):
            AdversaryModel("intercept_resend", target_qubit=2, intercept_basis="hadamard")

    def test_theta_range_checked(self):
        with pytest.raises(ValueError):
            AdversaryModel("ancilla_attack", theta=-0.1)
        with pytest.raises(ValueError):
            AdversaryModel("ancilla_attack", theta=math.pi)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AdversaryModel("mallory")

    def test_cli_flags_and_strategy_table_agree(self):
        for kind in MODEL_FLAGS.values():
            model = AdversaryModel(kind, target_qubit=2, intercept_basis="computational", theta=0.3)
            assert model.kind == kind
        assert set(STRATEGIES) <= set(MODEL_FLAGS.values())


class TestDecodeDistribution:
    def test_distribution_is_exactly_half_half(self):
        for op in EncodingOp:
            dist = decode_distribution(op)
            values = sorted(dist.values(), reverse=True)
            assert values[:2] == [Fraction(1, 2), Fraction(1, 2)]
            assert all(v == 0 for v in values[2:])

    @pytest.mark.parametrize("op", list(EncodingOp))
    def test_closed_form_equals_born_enumeration(self, op):
        closed = decode_distribution(op)
        born = born_decode_distribution(op)
        assert list(closed) == list(born)
        for key, p in closed.items():
            assert abs(float(p) - born[key]) <= 1e-12, key


class TestSoloGuess:
    def test_bob_half(self):
        assert analytic_success(AdversaryModel("bob_alone_guess")) == Fraction(1, 2)

    def test_charlie_quarter(self):
        assert analytic_success(AdversaryModel("charlie_alone_guess")) == Fraction(1, 4)

    def test_hierarchy_and_floor(self):
        bob = analytic_success(AdversaryModel("bob_alone_guess"))
        charlie = analytic_success(AdversaryModel("charlie_alone_guess"))
        assert bob > charlie
        assert charlie == Fraction(1, 4)  # the random-guess floor, met with equality


class TestCheatSuccess:
    def test_charlie_lying(self):
        assert analytic_success(AdversaryModel("charlie_lies")) == Fraction(1, 2)

    def test_bob_lying(self):
        assert analytic_success(AdversaryModel("bob_lies")) == Fraction(3, 4)

    def test_honest_deceives_nobody(self):
        assert analytic_success(AdversaryModel("honest")) == 0

    def test_receiver_cheats_better(self):
        assert analytic_success(AdversaryModel("bob_lies")) > analytic_success(
            AdversaryModel("charlie_lies")
        )

    def test_flip_variants_always_mislead(self):
        assert analytic_success(AdversaryModel("charlie_flips")) == 1
        assert analytic_success(AdversaryModel("bob_flips")) == 1


class TestInterceptResend:
    def test_computational_on_qubit_two(self):
        assert intercept_resend_detection(2, "computational") == Fraction(1, 4)

    def test_detection_strictly_positive_in_all_bases(self):
        for basis in ("computational", "x", "y"):
            assert intercept_resend_detection(2, basis) > 0

    @pytest.mark.parametrize("target, basis", [(2, "hadamard"), (1, "computational")])
    def test_bad_arguments_raise_value_error(self, target, basis):
        with pytest.raises(ValueError):
            intercept_resend_detection(target, basis)

    @pytest.mark.parametrize("target", [2, 3])
    @pytest.mark.parametrize("basis, label, expected", [
        ("computational", "Z", Fraction(1, 4)), ("x", "X", Fraction(1, 8)), ("y", "Y", Fraction(1, 8)),
    ])
    def test_counts_accept_set_basis_mismatches(self, target, basis, label, expected):
        """Detection is the number of accept-set combinations whose basis at the target
        differs from the intercept basis, over 16: each such combination has weight 1/8
        and violates with probability 1/2, and the others never violate."""
        mismatches = sum(combo[target - 1] != label for combo in parity_accept_set(3))
        assert intercept_resend_detection(target, basis) == Fraction(mismatches, 16) == expected

    def test_share_exchange_symmetry(self):
        for basis in ("computational", "x", "y"):
            assert intercept_resend_detection(2, basis) == intercept_resend_detection(3, basis)

    def test_clean_state_rate_is_zero(self):
        assert check_violation_rate(prepare_ghz(2)) == 0

    def test_product_state_rate(self):
        assert check_violation_rate(basis_state("eee")) == pytest.approx(0.25)

    def test_verdicts_come_from_check_record(self, monkeypatch):
        """The enumeration asks the sampled check round's rule about every accept-set outcome."""
        asked = []

        class Recording(CheckRecord):
            @property
            def violation(self):
                asked.append((self.bases, self.results))
                return super().violation

        monkeypatch.setattr(adversary, "CheckRecord", Recording)
        assert check_violation_rate(basis_state("eee")) == pytest.approx(0.25)
        assert sorted(asked) == sorted(
            (tuple(combo), results)
            for combo in parity_accept_set(3)
            for results in product((0, 1), repeat=3)
        )


def ancilla_rate(theta: float) -> float:
    """The ancilla family's detection side: its analytic check-round violation rate."""
    return analytic_success(AdversaryModel("ancilla_attack", theta=theta))


class TestAncillaAttack:
    def test_identity_attack_leaks_nothing(self):
        assert ancilla_rate(0.0) < 1e-12
        assert ancilla_attack_tradeoff(0.0) < 1e-10

    def test_full_rotation_is_family_maximum(self):
        full = ancilla_attack_tradeoff(math.pi / 2)
        assert ancilla_rate(math.pi / 2) == pytest.approx(0.25, abs=1e-10)
        assert full == pytest.approx(1.0, abs=1e-9)
        for theta in np.linspace(0, math.pi / 2, 7):
            assert ancilla_attack_tradeoff(float(theta)) <= full + 1e-9

    def test_information_needs_disturbance(self):
        """Zero check-round error implies zero leakage across the family."""
        for theta in np.linspace(0.0, math.pi / 2, 11):
            rate = ancilla_rate(float(theta))
            if rate == 0.0:
                assert ancilla_attack_tradeoff(float(theta)) < 1e-10
            if theta > 0:
                assert rate > 0

    def test_monotone_tradeoff(self):
        thetas = [float(t) for t in np.linspace(0.0, math.pi / 2, 9)]
        errors = [ancilla_rate(theta) for theta in thetas]
        infos = [ancilla_attack_tradeoff(theta) for theta in thetas]
        assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(infos, infos[1:]))

    def test_attach_ancilla_shape(self):
        attacked = attach_ancilla(prepare_ghz(2), 0.3)
        assert attacked.num_qubits == 4
        assert norm(attacked) == pytest.approx(1.0, abs=1e-12)

    def test_returns_information_bits(self):
        """The tradeoff call returns only the leak, a float; the rate has one route."""
        assert type(ancilla_attack_tradeoff(0.2)) is float

    def test_detection_rate_is_the_enumerated_check_rate(self):
        for theta in (0.0, 0.3, 0.7854, math.pi / 2):
            attacked = attach_ancilla(prepare_ghz(2), theta)
            assert ancilla_rate(theta) == check_violation_rate(attacked)  # bit for bit


# The family's angles, endpoints included.
THETAS_41 = [float(t) for t in np.linspace(0.0, math.pi / 2, 41)]
THETAS_17 = [float(t) for t in np.linspace(0.0, math.pi / 2, 17)]


def h2_of(theta: float) -> float:
    """The ancilla's leak in closed form: h2(sin^2(theta/2)) bits."""
    return binary_entropy(math.sin(theta / 2) ** 2)


class TestAncillaClosedForms:
    """The ancilla family against its closed forms (Holevo, Probl. Peredachi Inf. 9(3), 3, 1973)."""

    def test_holevo_chi_is_h2(self):
        for theta in THETAS_41:
            assert abs(holevo_chi(theta) - h2_of(theta)) <= 1e-12

    def test_fine_grid_respects_holevo_bound(self):
        for theta in THETAS_41:
            assert fine_grid_information(theta) <= h2_of(theta) + 1e-12

    def test_information_bits_respects_holevo_bound(self):
        """The reported value is the Holevo quantity itself: h2(sin^2(theta/2)), neither above nor below."""
        for theta in THETAS_41:
            assert abs(ancilla_attack_tradeoff(theta) - h2_of(theta)) <= 1e-12

    @pytest.mark.parametrize("theta", [0.0, 1e-6, 1e-3, 0.3, math.pi / 4, 0.7854, 1.2, math.pi / 2])
    def test_closed_form_spectra_match_eigvalsh(self, theta):
        """The 2x2 spectra in closed form give LAPACK's value to 1e-13 relative.  At theta 1e-6
        the leak is ~1e-11 bits, so a smaller root taken as mid - half, 8e-5 off there, fails."""
        expected = holevo_by_eigvalsh(theta)
        assert abs(ancilla_attack_tradeoff(theta) - expected) <= 1e-13 * abs(expected)

    def test_eigenbasis_readout_reaches_information_bits(self):
        """One projective readout learns the reported value, so it is the accessible
        information, not only an upper bound on it."""
        for theta in THETAS_41[1:]:
            readout = eigenbasis_readout_information(theta)
            assert abs(readout - ancilla_attack_tradeoff(theta)) <= 1e-12

    def test_attacked_check_round_distribution(self):
        """Result string b under k Y bases: (1 + cos(theta) Re[i (-i)^k (-1)^|b|]) / 8."""
        for theta in THETAS_17:
            attacked = attach_ancilla(prepare_ghz(2), theta)
            for combo in product("XY", repeat=3):
                probs = outcome_distribution(attacked, [CHECK_BASES[label] for label in combo])
                phase = 1j * (-1j) ** combo.count("Y")
                for b in product((0, 1), repeat=3):
                    expected = (1 + math.cos(theta) * (phase * (-1) ** sum(b)).real) / 8
                    assert abs(probs[b] - expected) <= 1e-14

    def test_detection_rate_closed_form(self):
        for theta in THETAS_17:
            rate = analytic_success(AdversaryModel("ancilla_attack", theta=theta))
            assert abs(rate - (1 - math.cos(theta)) / 4) <= 1e-15


class TestMonteCarlo:
    def test_round_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_confirm(AdversaryModel("honest"), 99, seed=0)

    @pytest.mark.parametrize("rounds,seed,name", [(100.5, 0, "rounds"), (100, 1.5, "seed")],
                             ids=["rounds-float", "seed-float"])
    def test_entry_refuses_before_the_exact_value(self, monkeypatch, rounds, seed, name):
        def no_exact_value(model):
            raise AssertionError("the exact value was computed before the inputs were checked")

        monkeypatch.setattr(adversary, "analytic_success", no_exact_value)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            monte_carlo_confirm(AdversaryModel("honest"), rounds, seed)

    def test_honest_never_deceived(self):
        report = monte_carlo_confirm(AdversaryModel("honest"), 500, seed=3)
        assert report.analytic_success == 0.0
        assert report.empirical_success == 0.0

    @pytest.mark.parametrize(
        "model",
        [
            AdversaryModel("bob_lies"),
            AdversaryModel("charlie_lies"),
            AdversaryModel("bob_alone_guess"),
            AdversaryModel("charlie_alone_guess"),
            AdversaryModel("intercept_resend", target_qubit=2, intercept_basis="computational"),
        ],
    )
    def test_empirical_matches_analytic(self, model):
        report = monte_carlo_confirm(model, 3000, seed=11)
        assert abs(report.empirical_success - report.analytic_success) <= 5 * report.std_error

    def test_ancilla_empirical_rate(self):
        model = AdversaryModel("ancilla_attack", theta=math.pi / 2)
        report = monte_carlo_confirm(model, 3000, seed=13)
        assert report.analytic_success == pytest.approx(0.25, abs=1e-10)
        assert abs(report.empirical_success - 0.25) <= 5 * report.std_error

    def test_report_serializes(self):
        report = monte_carlo_confirm(AdversaryModel("bob_lies"), 200, seed=5)
        d = report.to_json_dict()
        assert d["model"] == "bob_lies"
        assert d["rounds"] == 200
        assert 0.0 <= d["empirical_success"] <= 1.0

    def test_std_error_is_derived(self):
        assert [f.name for f in dataclasses.fields(CheatReport)] == [
            "model", "analytic_success", "empirical_success", "rounds"]
        report = CheatReport(AdversaryModel("bob_lies"), 0.75, 0.7, 400)
        assert report.std_error == math.sqrt(0.75 * 0.25 / 400)
        assert report.to_json_dict()["std_error"] == report.std_error

    def test_analytic_success_covers_all_models(self):
        for model in (
            AdversaryModel("honest"),
            AdversaryModel("bob_alone_guess"),
            AdversaryModel("charlie_alone_guess"),
            AdversaryModel("bob_lies"),
            AdversaryModel("charlie_lies"),
            AdversaryModel("bob_flips"),
            AdversaryModel("charlie_flips"),
            AdversaryModel("intercept_resend", target_qubit=3, intercept_basis="x"),
            AdversaryModel("ancilla_attack", theta=0.4),
        ):
            value = analytic_success(model)
            assert 0.0 <= value <= 1.0

    @pytest.mark.parametrize("kind,exact", [
        ("honest", Fraction(0)),
        ("charlie_lies", Fraction(1, 2)),
        ("bob_lies", Fraction(3, 4)),
        ("charlie_flips", Fraction(1)),
        ("bob_flips", Fraction(1)),
        ("bob_alone_guess", Fraction(1, 2)),
        ("charlie_alone_guess", Fraction(1, 4)),
    ])
    def test_message_kinds_are_exact_fractions(self, kind, exact):
        value = analytic_success(AdversaryModel(kind))
        assert type(value) is Fraction
        assert value == exact

    def test_check_attacks_keep_their_exact_types(self):
        intercept = analytic_success(AdversaryModel("intercept_resend", target_qubit=2,
                                                    intercept_basis="computational"))
        assert type(intercept) is Fraction
        assert intercept == Fraction(1, 4)
        assert type(analytic_success(AdversaryModel("ancilla_attack", theta=0.4))) is float


class TestCachedRoundInputs:
    """Inputs every Monte Carlo round shares are built once and change no estimate."""

    @pytest.mark.parametrize(
        "model,empirical",
        [
            (AdversaryModel("bob_lies"), 0.7485),
            (AdversaryModel("intercept_resend", target_qubit=2,
                            intercept_basis="computational"), 0.253),
            (AdversaryModel("ancilla_attack", theta=0.7854), 0.078),
        ],
    )
    def test_adversary_mix_estimates_pinned(self, model, empirical):
        # Values of the state-vector Monte Carlo before any round input was cached.
        assert monte_carlo_confirm(model, 2000, seed=5).empirical_success == empirical

    def test_attached_state_is_cached(self):
        assert attach_ancilla(prepare_ghz(2), 0.7854) is attach_ancilla(prepare_ghz(2), 0.7854)

    def test_equal_distinct_state_gives_equal_result(self):
        ghz = prepare_ghz(2)
        copy = QuantumState(ghz.amplitudes.copy())
        assert copy is not ghz
        np.testing.assert_array_equal(
            attach_ancilla(copy, 0.7854).amplitudes, attach_ancilla(ghz, 0.7854).amplitudes
        )

    def test_other_inputs_give_other_states(self):
        ghz = prepare_ghz(2)
        base = attach_ancilla(ghz, 0.3)
        assert not allclose(attach_ancilla(ghz, 0.7), base)
        assert not allclose(attach_ancilla(encode(ghz, EncodingOp.SIGMA_X), 0.3), base)

    def test_liar_table_matches_decoding(self):
        outcomes = STRATEGIES["bob_lies"].outcomes
        for op in EncodingOp:
            for key in (DecodeKey(pair, sign) for pair in PAIRS for sign in "+-"):
                expected = tuple(decode(p, [key.sign]) != op for p in PAIRS)
                assert outcomes(op, key) == expected
                assert outcomes(op, key) is outcomes(op, key)


class TestOneCacheKeyPerValue:
    """Each cached builder takes its arguments positionally and has no default,
    so one value is one cache key and one object, whichever layer asks for it."""

    def test_two_user_paths_share_one_ghz(self):
        prepare_ghz.cache_clear()
        parity_accept_set.cache_clear()
        run_rounds(SessionConfig(rng_seed=3, p_check=0.5), 200, None)
        for model in (AdversaryModel("intercept_resend", 2, "x"),
                      AdversaryModel("ancilla_attack", theta=0.7854)):
            monte_carlo_confirm(model, 100, 0)
            analytic_success(model)
        ancilla_attack_tradeoff(0.7854)
        assert prepare_ghz.cache_info().currsize == 1
        assert parity_accept_set.cache_info().currsize == 1

    @pytest.mark.parametrize("call", [
        lambda: prepare_ghz(),
        lambda: prepare_ghz(n_users=2),
        lambda: parity_accept_set(),
        lambda: parity_accept_set(n_parties=3),
        lambda: _honest_post_state(n_users=2, op=EncodingOp.IDENTITY, receiver_qubit=2),
        lambda: attach_ancilla(state=prepare_ghz(2), theta=0.3),
        lambda: effective_unitary(pulse=CANONICAL_PULSE),
        lambda: _mix_steps(n_words=3),
    ], ids=["ghz-default", "ghz-keyword", "accept-default", "accept-keyword", "post-state-keyword",
            "ancilla-keyword", "unitary-keyword", "mix-keyword"])
    def test_keyword_or_missing_argument_is_refused(self, call):
        with pytest.raises(TypeError):
            call()
