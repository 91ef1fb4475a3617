"""Protocol tests: resource preparation, encoding, decoding, checks, sessions.

Expected three-qubit vectors are written out longhand from the operation
matrices and the product structure of the post-interaction states, so they
are independent of the package's own gate plumbing.  Basis order: qubit 1
is the most significant bit, e before g (|eee>=0, ..., |ggg>=7).
"""

import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghzdc.protocol import (
    PAIRS,
    SIGNS,
    CheckRecord,
    DecodeKey,
    EncodingOp,
    Role,
    SessionConfig,
    bob_interaction,
    decode,
    decode_n,
    decode_table,
    encode,
    parity_accept_set,
    prepare_ghz,
    round_rng,
    run_rounds,
    run_session,
    security_check_round,
)
from ghzdc.qstate import (
    COMPUTATIONAL,
    PLUS_MINUS,
    Y_BASIS,
    QuantumState,
    global_phase_equal,
    outcome_distribution,
)
from oracles import born_probabilities

SQ2 = 1 / np.sqrt(2)


def vec(entries: dict[int, complex]) -> QuantumState:
    amps = np.zeros(8, dtype=complex)
    for idx, amp in entries.items():
        amps[idx] = amp
    return QuantumState(amps)


# The four encoded resource states.
ENCODED = {
    EncodingOp.IDENTITY: vec({0b000: SQ2, 0b111: 1j * SQ2}),
    EncodingOp.SIGMA_X: vec({0b100: SQ2, 0b011: 1j * SQ2}),
    EncodingOp.I_SIGMA_Y: vec({0b100: SQ2, 0b011: -1j * SQ2}),
    EncodingOp.SIGMA_Z: vec({0b000: SQ2, 0b111: -1j * SQ2}),
}

# Post-interaction targets at the canonical pulse: pair (x) sign products.
POST_INTERACTION = {
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


def key_probabilities(state: QuantumState) -> dict[DecodeKey, float]:
    """Brute-force Born probabilities of (pair, sign) via explicit product bras."""
    comp = {("e",): np.array([1, 0]), ("g",): np.array([0, 1])}
    sign_vecs = {"+": np.array([SQ2, SQ2]), "-": np.array([SQ2, -SQ2])}
    out = {}
    for pair in PAIRS:
        for sign in SIGNS:
            bra = np.kron(
                np.kron(comp[(pair[0],)], comp[(pair[1],)]), sign_vecs[sign]
            ).conj()
            out[DecodeKey(pair, sign)] = float(np.abs(bra @ state.amplitudes) ** 2)
    return out


class TestPrepareGhz:
    def test_amplitudes(self):
        s = prepare_ghz()
        assert s.amplitude("eee") == pytest.approx(SQ2, abs=1e-12)
        assert s.amplitude("ggg") == pytest.approx(1j * SQ2, abs=1e-12)
        assert np.count_nonzero(s.amplitudes) == 2

    def test_normalized(self):
        assert prepare_ghz().norm() == pytest.approx(1.0, abs=1e-12)

    def test_uniform_single_qubit_marginals(self):
        s = prepare_ghz()
        for q in (1, 2, 3):
            p0, _ = born_probabilities(s, q, COMPUTATIONAL)
            assert p0 == pytest.approx(0.5, abs=1e-10)

    def test_n_user_reduction(self):
        assert prepare_ghz(2).allclose(prepare_ghz())

    def test_n_user_structure(self):
        s = prepare_ghz(5)
        assert s.num_qubits == 6
        assert np.count_nonzero(s.amplitudes) == 2
        assert s.norm() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 12])
    def test_n_user_range(self, n):
        with pytest.raises(ValueError):
            prepare_ghz(n)

    @pytest.mark.parametrize("n", [2, 5, 11])
    def test_one_shared_read_only_state(self, n):
        s = prepare_ghz(n)
        assert prepare_ghz(n) is s
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0
        assert s.amplitudes[0] == SQ2
        assert s.amplitudes[-1] == 1j * SQ2


class TestEncode:
    @pytest.mark.parametrize("op", list(EncodingOp))
    def test_matches_expected_state(self, op):
        out = encode(prepare_ghz(), op)
        if op is EncodingOp.I_SIGMA_Y:
            # The sign representative differs from the target by a global -1.
            assert global_phase_equal(out, ENCODED[op], 1e-10)
        else:
            assert out.allclose(ENCODED[op], tol=1e-10)

    def test_bits_round_trip(self):
        for op in EncodingOp:
            assert EncodingOp.from_bits(op.bits) is op

    def test_bit_assignment(self):
        assert [op.bits for op in EncodingOp] == [0b00, 0b01, 0b10, 0b11]

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            encode(QuantumState.basis_state("ee"), EncodingOp.IDENTITY)


class TestBobInteraction:
    @pytest.mark.parametrize("op", list(EncodingOp))
    def test_canonical_pulse_reaches_decodable_state(self, op):
        out = bob_interaction(encode(prepare_ghz(), op))
        assert global_phase_equal(out, POST_INTERACTION[op], 1e-10)

    def test_zero_pulse_is_identity(self):
        from ghzdc.cavity import PulseParams

        s = encode(prepare_ghz(), EncodingOp.SIGMA_X)
        assert bob_interaction(s, PulseParams(0, 0)).allclose(s, tol=1e-12)

    def test_small_register_rejected(self):
        with pytest.raises(ValueError):
            bob_interaction(QuantumState.basis_state("ee"))


class TestDecodeTable:
    def test_key_to_operation_mapping(self):
        assert decode(DecodeKey("ee", "+")) is EncodingOp.IDENTITY
        assert decode(DecodeKey("gg", "-")) is EncodingOp.IDENTITY
        assert decode(DecodeKey("ge", "+")) is EncodingOp.SIGMA_X
        assert decode(DecodeKey("eg", "-")) is EncodingOp.SIGMA_X
        assert decode(DecodeKey("eg", "+")) is EncodingOp.I_SIGMA_Y
        assert decode(DecodeKey("ge", "-")) is EncodingOp.I_SIGMA_Y
        assert decode(DecodeKey("gg", "+")) is EncodingOp.SIGMA_Z
        assert decode(DecodeKey("ee", "-")) is EncodingOp.SIGMA_Z

    def test_total_and_balanced(self):
        seen = {}
        for pair in PAIRS:
            for sign in SIGNS:
                op = decode(DecodeKey(pair, sign))
                seen[op] = seen.get(op, 0) + 1
        assert all(count == 2 for count in seen.values())

    @pytest.mark.parametrize("op", list(EncodingOp))
    def test_born_rule_enumeration(self, op):
        """Each encoding puts probability 1/2 on its two keys and 0 elsewhere."""
        probs = key_probabilities(bob_interaction(encode(prepare_ghz(), op)))
        for key, p in probs.items():
            target = 0.5 if key in VALID_KEYS[op] else 0.0
            assert p == pytest.approx(target, abs=1e-10)

    def test_pair_identifies_class(self):
        for op in EncodingOp:
            pairs = {key.pair for key in VALID_KEYS[op]}
            if op in (EncodingOp.IDENTITY, EncodingOp.SIGMA_Z):
                assert pairs == {"ee", "gg"}
            else:
                assert pairs == {"eg", "ge"}

    def test_sign_marginal_is_encoding_independent(self):
        """The third party's +/- marginal is exactly 1/2 whatever the message."""
        for op in EncodingOp:
            state = bob_interaction(encode(prepare_ghz(), op))
            p_plus, p_minus = born_probabilities(state, 3, PLUS_MINUS)
            assert p_plus == pytest.approx(0.5, abs=1e-10)

    def test_decode_n_reduces_to_decode(self):
        for pair in PAIRS:
            for sign in SIGNS:
                assert decode_n(pair, [sign]) is decode(DecodeKey(pair, sign))

    def test_decode_n_uses_sign_parity(self):
        assert decode_n("ee", ["+", "+"]) is EncodingOp.IDENTITY
        assert decode_n("ee", ["-", "-"]) is EncodingOp.IDENTITY
        assert decode_n("ee", ["+", "-"]) is EncodingOp.SIGMA_Z

    def test_single_sign_flip_switches_class_member(self):
        for pair in PAIRS:
            for signs in product(SIGNS, repeat=3):
                base = decode_n(pair, signs)
                for i in range(3):
                    flipped = list(signs)
                    flipped[i] = "+" if flipped[i] == "-" else "-"
                    other = decode_n(pair, flipped)
                    assert other is not base
                    assert {base, other} in (
                        {EncodingOp.IDENTITY, EncodingOp.SIGMA_Z},
                        {EncodingOp.SIGMA_X, EncodingOp.I_SIGMA_Y},
                    )

    def test_table_row_count(self):
        for n in (2, 3, 5):
            assert len(decode_table(n)) == 4 * 2 ** (n - 1)

    def test_empty_signs_rejected(self):
        with pytest.raises(ValueError):
            decode_n("ee", [])


class TestAcceptSet:
    def test_matches_independent_enumeration(self):
        """Accept set for the phase-i resource state, derived with raw products.

        Outcome amplitude for product bras is (1 + i t1 t2 t3)/4 with
        t = +/-1 for X results and -/+ i for Y results; deterministic parity
        holds exactly when i*t1*t2*t3 is real.
        """
        expected = {}
        for combo in product("XY", repeat=3):
            support_parities = set()
            for results in product((0, 1), repeat=3):
                t = 1.0 + 0.0j
                for basis, r in zip(combo, results):
                    t *= (-1.0) ** r if basis == "X" else -1j * (-1.0) ** r
                amp = (1 + 1j * t) / 4
                if abs(amp) ** 2 > 1e-12:
                    support_parities.add(sum(results) % 2)
            if len(support_parities) == 1:
                expected["".join(combo)] = support_parities.pop()
        assert parity_accept_set(3) == expected
        assert expected == {"XXY": 0, "XYX": 0, "YXX": 0, "YYY": 1}

    @pytest.mark.parametrize("n_parties", range(3, 9))
    def test_closed_form_matches_born_enumeration(self, n_parties):
        """Oracle: a combination is accepted when every outcome of nonzero
        probability has the same parity, and the map value is that parity."""
        state = prepare_ghz(n_parties - 1)
        bases = {"X": PLUS_MINUS, "Y": Y_BASIS}
        expected = {}
        for combo in product("XY", repeat=n_parties):
            probs = outcome_distribution(state, [bases[c] for c in combo])
            parities = {sum(bits) % 2 for bits, p in np.ndenumerate(probs) if p > 1e-12}
            if len(parities) == 1:
                expected["".join(combo)] = parities.pop()
        accept = parity_accept_set(n_parties)
        assert accept == expected
        assert list(accept) == list(expected)  # same key order

    def test_twelve_parties_is_fast(self):
        parity_accept_set.cache_clear()
        started = time.perf_counter()
        accept = parity_accept_set(12)
        assert time.perf_counter() - started < 1.0
        assert len(accept) == 2**11

    def test_clean_state_never_violates(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            bases = ["XY"[rng.integers(2)] for _ in range(3)]
            rands = [rng.random() for _ in range(3)]
            record = security_check_round(prepare_ghz(), bases, rands)
            assert isinstance(record, CheckRecord)
            assert not record.violation

    def test_product_state_replacement_is_detected(self):
        """Swapping in |eee> yields violations at the enumerated positive rate."""
        rng = np.random.default_rng(8)
        fake = QuantumState.basis_state("eee")
        violations = 0
        rounds = 4000
        for _ in range(rounds):
            bases = ["XY"[rng.integers(2)] for _ in range(3)]
            rands = [rng.random() for _ in range(3)]
            violations += security_check_round(fake, bases, rands).violation
        rate = violations / rounds
        se = np.sqrt(0.25 * 0.75 / rounds)
        assert rate > 0
        assert abs(rate - 0.25) < 5 * se

    def test_bad_bases_rejected(self):
        with pytest.raises(ValueError):
            security_check_round(prepare_ghz(), ["X", "Z", "Y"], [0.1, 0.2, 0.3])


class TestRunSession:
    def test_honest_round_trip_all_messages(self):
        config = SessionConfig(rng_seed=123, p_check=0.0)
        for message in range(4):
            for idx in range(250):
                record = run_session(config, message, idx)
                assert record.branch == "encode"
                assert record.decoded_bits == message

    def test_all_check_rounds_when_forced(self):
        config = SessionConfig(rng_seed=5, p_check=1.0)
        for idx in range(50):
            record = run_session(config, None, idx)
            assert record.branch == "check"
            assert record.check is not None and not record.check.violation

    def test_identity_message_confines_bob_pairs(self):
        config = SessionConfig(rng_seed=17, p_check=0.0)
        for idx in range(500):
            record = run_session(config, 0b00, idx)
            assert record.bob_outcomes in ("ee", "gg")

    def test_missing_message_raises(self):
        with pytest.raises(ValueError):
            run_session(SessionConfig(rng_seed=1, p_check=0.0), None, 0)

    def test_deterministic_replay(self):
        config = SessionConfig(rng_seed=99, p_check=0.2)
        a = [run_session(config, 3, i) for i in range(40)]
        b = [run_session(config, 3, i) for i in range(40)]
        assert a == b

    def test_charlie_as_receiver_decodes_too(self):
        config = SessionConfig(rng_seed=31, p_check=0.0, receiver=Role.CHARLIE)
        for message in range(4):
            for idx in range(100):
                record = run_session(config, message, idx)
                assert record.decoded_bits == message

    def test_alice_cannot_receive(self):
        with pytest.raises(ValueError):
            SessionConfig(receiver=Role.ALICE)

    def test_key_frequencies_match_born_rule(self):
        """Monte Carlo frequency of each valid key is 1/2 within 5 standard errors."""
        rounds = 2000
        se = np.sqrt(0.5 * 0.5 / rounds)
        for op in EncodingOp:
            config = SessionConfig(rng_seed=1000 + op.bits, p_check=0.0)
            counts: dict[DecodeKey, int] = {}
            for idx in range(rounds):
                record = run_session(config, op.bits, idx)
                key = DecodeKey(record.bob_outcomes, record.partner_signs[0])
                counts[key] = counts.get(key, 0) + 1
            assert set(counts) == VALID_KEYS[op]
            for key in VALID_KEYS[op]:
                assert abs(counts[key] / rounds - 0.5) < 5 * se

    def test_multi_user_honest_decoding(self):
        config = SessionConfig(rng_seed=7, p_check=0.0, n_users=4)
        for message in range(4):
            for idx in range(50):
                record = run_session(config, message, idx)
                assert len(record.partner_signs) == 3
                assert record.decoded_bits == message

    def test_run_rounds_draws_reproducible_messages(self):
        config = SessionConfig(rng_seed=55, p_check=0.1)
        a = run_rounds(config, 60)
        b = run_rounds(config, 60)
        assert a == b
        encodes = [r for r in a if r.branch == "encode"]
        assert {r.message_bits for r in encodes} == {0, 1, 2, 3}
        assert all(r.decoded_bits == r.message_bits for r in encodes)

    def test_round_rng_streams_are_stable(self):
        assert round_rng(1, 2).random() == round_rng(1, 2).random()
        assert round_rng(1, 2).random() != round_rng(1, 3).random()
        assert round_rng(1, 2, stream=1).random() != round_rng(1, 2, stream=0).random()


class TestDecodeNOracle:
    def test_multi_user_enumeration(self):
        """Four-qubit enumeration confirms the parity decoding rule from scratch."""
        for op in EncodingOp:
            state = bob_interaction(encode(prepare_ghz(3), op))
            tensor = state.amplitudes.reshape(2, 2, 2, 2)
            comp = {0: np.array([1.0, 0]), 1: np.array([0, 1.0])}
            sign_vecs = {"+": np.array([SQ2, SQ2]), "-": np.array([SQ2, -SQ2])}
            for b1, b2 in product((0, 1), repeat=2):
                for s3, s4 in product(SIGNS, repeat=2):
                    bra = np.einsum(
                        "a,b,c,d,abcd->",
                        comp[b1],
                        comp[b2],
                        sign_vecs[s3].conj(),
                        sign_vecs[s4].conj(),
                        tensor,
                    )
                    p = float(np.abs(bra) ** 2)
                    pair = "eg"[b1] + "eg"[b2]
                    if p > 1e-10:
                        assert p == pytest.approx(0.25, abs=1e-10)
                        assert decode_n(pair, (s3, s4)) is op

    def test_specific_row(self):
        assert decode_n("ee", ("+", "+")) is EncodingOp.IDENTITY


class TestDecodeProperty:
    """Every honest message round decodes exactly, for any stream and group size."""

    @pytest.mark.parametrize("n_users", range(2, 12))
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), round_index=st.integers(0, 10**9))
    def test_message_round_decodes_its_bits(self, n_users, seed, round_index):
        config = SessionConfig(rng_seed=seed, p_check=0.0, n_users=n_users)
        for op in EncodingOp:
            record = run_session(config, op.bits, round_index)
            assert record.branch == "encode"
            assert len(record.partner_signs) == n_users - 1
            assert record.decoded_bits == op.bits


class TestSessionRecordJson:
    def test_encode_record_fields(self):
        record = run_session(SessionConfig(rng_seed=4, p_check=0.0), 1, 9)
        d = record.to_json_dict()
        assert d["round_index"] == 9
        assert d["branch"] == "encode"
        assert d["decoded"] == record.decoded
        assert d["check"] is None

    def test_check_record_fields(self):
        record = run_session(SessionConfig(rng_seed=4, p_check=1.0), None, 0)
        d = record.to_json_dict()
        assert d["branch"] == "check"
        assert set(d["check"]) == {
            "bases",
            "results",
            "in_accept_set",
            "expected_parity",
            "observed_parity",
            "violation",
        }
