"""Adversary-lab tests: exact probabilities, attack detection, leakage trade-off.

Frozen expected values: solo guesses 1/2 (Bob) and 1/4 (Charlie); cheat
successes 1/2 (Charlie lying) and 3/4 (Bob lying); computational
intercept-resend detection 1/4 per check round, worked out from the
fifty-fifty |eee>/|ggg> forwarding ensemble, whose X/Y outcomes are
uniform, half of all rounds landing in the four-element accept set.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from ghzdc.adversary import (
    STRATEGIES,
    AdversaryModel,
    AncillaTradeoff,
    ancilla_attack_tradeoff,
    attach_ancilla,
    analytic_success,
    cheat_success,
    check_violation_rate,
    decode_distribution,
    intercept_resend_detection,
    monte_carlo_confirm,
    solo_guess_probability,
)
from ghzdc.cli import MODEL_FLAGS
from ghzdc.protocol import PAIRS, DecodeKey, EncodingOp, Role, decode, encode, prepare_ghz
from ghzdc.qstate import QuantumState
from oracles import born_decode_distribution


class TestModels:
    def test_intercept_requires_transit_qubit(self):
        with pytest.raises(ValueError):
            AdversaryModel("intercept_resend", target_qubit=1, basis="computational")

    def test_intercept_basis_checked(self):
        with pytest.raises(ValueError):
            AdversaryModel("intercept_resend", target_qubit=2, basis="hadamard")

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
            model = AdversaryModel(kind, target_qubit=2, basis="computational", theta=0.3)
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
        assert solo_guess_probability(Role.BOB) == Fraction(1, 2)

    def test_charlie_quarter(self):
        assert solo_guess_probability(Role.CHARLIE) == Fraction(1, 4)

    def test_alice_knows_her_message(self):
        assert solo_guess_probability(Role.ALICE) == 1

    def test_hierarchy_and_floor(self):
        bob = solo_guess_probability(Role.BOB)
        charlie = solo_guess_probability(Role.CHARLIE)
        assert bob > charlie
        assert charlie == Fraction(1, 4)  # the random-guess floor, met with equality


class TestCheatSuccess:
    def test_charlie_lying(self):
        assert cheat_success(AdversaryModel("charlie_lies")) == Fraction(1, 2)

    def test_bob_lying(self):
        assert cheat_success(AdversaryModel("bob_lies")) == Fraction(3, 4)

    def test_honest_deceives_nobody(self):
        assert cheat_success(AdversaryModel("honest")) == 0

    def test_receiver_cheats_better(self):
        assert cheat_success(AdversaryModel("bob_lies")) > cheat_success(
            AdversaryModel("charlie_lies")
        )

    def test_flip_variants_always_mislead(self):
        assert cheat_success(AdversaryModel("charlie_flips")) == 1
        assert cheat_success(AdversaryModel("bob_flips")) == 1

    def test_unsupported_model(self):
        with pytest.raises(ValueError):
            cheat_success(AdversaryModel("intercept_resend", target_qubit=2, basis="computational"))


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

    def test_share_exchange_symmetry(self):
        for basis in ("computational", "x", "y"):
            assert intercept_resend_detection(2, basis) == intercept_resend_detection(3, basis)

    def test_clean_state_rate_is_zero(self):
        assert check_violation_rate(prepare_ghz()) == 0

    def test_product_state_rate(self):
        assert check_violation_rate(QuantumState.basis_state("eee")) == pytest.approx(0.25)


class TestAncillaAttack:
    def test_identity_attack_leaks_nothing(self):
        point = ancilla_attack_tradeoff(0.0)
        assert point.error_rate < 1e-12
        assert point.information_bits < 1e-10

    def test_full_rotation_is_family_maximum(self):
        full = ancilla_attack_tradeoff(math.pi / 2)
        assert full.error_rate == pytest.approx(0.25, abs=1e-10)
        assert full.information_bits == pytest.approx(1.0, abs=1e-9)
        for theta in np.linspace(0, math.pi / 2, 7):
            assert ancilla_attack_tradeoff(float(theta)).information_bits <= (
                full.information_bits + 1e-9
            )

    def test_information_needs_disturbance(self):
        """Zero check-round error implies zero leakage across the family."""
        for theta in np.linspace(0.0, math.pi / 2, 11):
            point = ancilla_attack_tradeoff(float(theta))
            if point.error_rate == 0.0:
                assert point.information_bits < 1e-10
            if theta > 0:
                assert point.error_rate > 0

    def test_monotone_tradeoff(self):
        errors, infos = [], []
        for theta in np.linspace(0.0, math.pi / 2, 9):
            point = ancilla_attack_tradeoff(float(theta))
            errors.append(point.error_rate)
            infos.append(point.information_bits)
        assert all(a <= b + 1e-12 for a, b in zip(errors, errors[1:]))
        assert all(a <= b + 1e-9 for a, b in zip(infos, infos[1:]))

    def test_attach_ancilla_shape(self):
        attacked = attach_ancilla(prepare_ghz(), 0.3)
        assert attacked.num_qubits == 4
        assert attacked.norm() == pytest.approx(1.0, abs=1e-12)

    def test_returns_tradeoff_record(self):
        point = ancilla_attack_tradeoff(0.2)
        assert isinstance(point, AncillaTradeoff)
        assert point.theta == 0.2


class TestMonteCarlo:
    def test_round_floor(self):
        with pytest.raises(ValueError):
            monte_carlo_confirm(AdversaryModel("honest"), 99, seed=0)

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
            AdversaryModel("intercept_resend", target_qubit=2, basis="computational"),
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

    def test_analytic_success_covers_all_models(self):
        for model in (
            AdversaryModel("honest"),
            AdversaryModel("bob_alone_guess"),
            AdversaryModel("charlie_alone_guess"),
            AdversaryModel("bob_lies"),
            AdversaryModel("charlie_lies"),
            AdversaryModel("bob_flips"),
            AdversaryModel("charlie_flips"),
            AdversaryModel("intercept_resend", target_qubit=3, basis="x"),
            AdversaryModel("ancilla_attack", theta=0.4),
        ):
            value = analytic_success(model)
            assert 0.0 <= value <= 1.0


class TestCachedRoundInputs:
    """Inputs every Monte Carlo round shares are built once and change no estimate."""

    @pytest.mark.parametrize(
        "model,empirical",
        [
            (AdversaryModel("bob_lies"), 0.7485),
            (AdversaryModel("intercept_resend", target_qubit=2, basis="computational"), 0.253),
            (AdversaryModel("ancilla_attack", theta=0.7854), 0.078),
        ],
    )
    def test_adversary_mix_estimates_pinned(self, model, empirical):
        # Values of the state-vector Monte Carlo before any round input was cached.
        assert monte_carlo_confirm(model, 2000, seed=5).empirical_success == empirical

    def test_attached_state_is_cached(self):
        assert attach_ancilla(prepare_ghz(), 0.7854) is attach_ancilla(prepare_ghz(), 0.7854)

    def test_equal_distinct_state_gives_equal_result(self):
        ghz = prepare_ghz()
        copy = QuantumState(ghz.amplitudes.copy())
        assert copy is not ghz
        np.testing.assert_array_equal(
            attach_ancilla(copy, 0.7854).amplitudes, attach_ancilla(ghz, 0.7854).amplitudes
        )

    def test_other_inputs_give_other_states(self):
        ghz = prepare_ghz()
        base = attach_ancilla(ghz, 0.3)
        assert not attach_ancilla(ghz, 0.7).allclose(base)
        assert not attach_ancilla(encode(ghz, EncodingOp.SIGMA_X), 0.3).allclose(base)

    def test_liar_table_matches_decoding(self):
        outcomes = STRATEGIES["bob_lies"].outcomes
        for op in EncodingOp:
            for key in (DecodeKey(pair, sign) for pair in PAIRS for sign in "+-"):
                expected = tuple(decode(DecodeKey(p, key.sign)) != op for p in PAIRS)
                assert outcomes(op, key) == expected
                assert outcomes(op, key) is outcomes(op, key)
