"""Protocol tests: resource preparation, encoding, decoding, checks, sessions.

Expected three-qubit vectors are written out longhand from the operation
matrices and the product structure of the post-interaction states, so they
are independent of the package's own gate plumbing.  Basis order: qubit 1
is the most significant bit, e before g (|eee>=0, ..., |ggg>=7).
"""

import dataclasses
import os
import random
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghzdc
from ghzdc.protocol import (
    PAIRS,
    DECODE_TABLE,
    SIGNS,
    CheckRecord,
    DecodeKey,
    EncodingOp,
    Role,
    RoundStream,
    SessionConfig,
    SessionRecord,
    bob_interaction,
    decode,
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
    outcome_distribution,
)
from oracles import (
    allclose,
    amplitude,
    basis_state,
    born_probabilities,
    global_phase_equal,
    norm,
    numpy_pcg64,
    numpy_round_rng,
)

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
        s = prepare_ghz(2)
        assert amplitude(s, "eee") == pytest.approx(SQ2, abs=1e-12)
        assert amplitude(s, "ggg") == pytest.approx(1j * SQ2, abs=1e-12)
        assert np.count_nonzero(s.amplitudes) == 2

    def test_normalized(self):
        assert norm(prepare_ghz(2)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_single_qubit_marginals(self):
        s = prepare_ghz(2)
        for q in (1, 2, 3):
            p0, _ = born_probabilities(s, q, COMPUTATIONAL)
            assert p0 == pytest.approx(0.5, abs=1e-10)

    def test_n_user_reduction(self):
        """Two users give the paper's tripartite state, (|eee> + i|ggg>)/sqrt(2)."""
        assert allclose(prepare_ghz(2), vec({0: SQ2, 7: 1j * SQ2}))

    def test_n_user_structure(self):
        s = prepare_ghz(5)
        assert s.num_qubits == 6
        assert np.count_nonzero(s.amplitudes) == 2
        assert norm(s) == pytest.approx(1.0, abs=1e-12)

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
        out = encode(prepare_ghz(2), op)
        if op is EncodingOp.I_SIGMA_Y:
            # The sign representative differs from the target by a global -1.
            assert global_phase_equal(out, ENCODED[op], 1e-10)
        else:
            assert allclose(out, ENCODED[op], tol=1e-10)

    def test_bit_assignment(self):
        assert [op.value for op in EncodingOp] == [0b00, 0b01, 0b10, 0b11]

    def test_wrong_qubit_count(self):
        with pytest.raises(ValueError):
            encode(basis_state("ee"), EncodingOp.IDENTITY)


class TestBobInteraction:
    @pytest.mark.parametrize("op", list(EncodingOp))
    def test_canonical_pulse_reaches_decodable_state(self, op):
        out = bob_interaction(encode(prepare_ghz(2), op), (1, 2))
        assert global_phase_equal(out, POST_INTERACTION[op], 1e-10)

    def test_zero_pulse_is_identity(self):
        from ghzdc.cavity import PulseParams, effective_unitary
        from ghzdc.qstate import apply_two_qubit

        s = encode(prepare_ghz(2), EncodingOp.SIGMA_X)
        assert allclose(apply_two_qubit(s, effective_unitary(PulseParams(0, 0)), (1, 2)), s, tol=1e-12)

    def test_small_register_rejected(self):
        with pytest.raises(ValueError):
            bob_interaction(basis_state("ee"), (1, 2))


class TestDecodeTable:
    def test_key_to_operation_mapping(self):
        assert decode("ee", ["+"]) is EncodingOp.IDENTITY
        assert decode("gg", ["-"]) is EncodingOp.IDENTITY
        assert decode("ge", ["+"]) is EncodingOp.SIGMA_X
        assert decode("eg", ["-"]) is EncodingOp.SIGMA_X
        assert decode("eg", ["+"]) is EncodingOp.I_SIGMA_Y
        assert decode("ge", ["-"]) is EncodingOp.I_SIGMA_Y
        assert decode("gg", ["+"]) is EncodingOp.SIGMA_Z
        assert decode("ee", ["-"]) is EncodingOp.SIGMA_Z

    def test_total_and_balanced(self):
        seen = {}
        for pair in PAIRS:
            for sign in SIGNS:
                op = decode(pair, [sign])
                seen[op] = seen.get(op, 0) + 1
        assert all(count == 2 for count in seen.values())

    @pytest.mark.parametrize("op", list(EncodingOp))
    def test_born_rule_enumeration(self, op):
        """Each encoding puts probability 1/2 on its two keys and 0 elsewhere."""
        probs = key_probabilities(bob_interaction(encode(prepare_ghz(2), op), (1, 2)))
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
            state = bob_interaction(encode(prepare_ghz(2), op), (1, 2))
            p_plus, p_minus = born_probabilities(state, 3, PLUS_MINUS)
            assert p_plus == pytest.approx(0.5, abs=1e-10)

    def test_one_sign_reads_the_table(self):
        for pair in PAIRS:
            for sign in SIGNS:
                assert decode(pair, [sign]) is DECODE_TABLE[DecodeKey(pair, sign)]

    def test_uses_sign_parity(self):
        assert decode("ee", ["+", "+"]) is EncodingOp.IDENTITY
        assert decode("ee", ["-", "-"]) is EncodingOp.IDENTITY
        assert decode("ee", ["+", "-"]) is EncodingOp.SIGMA_Z

    def test_single_sign_flip_switches_class_member(self):
        for pair in PAIRS:
            for signs in product(SIGNS, repeat=3):
                base = decode(pair, signs)
                for i in range(3):
                    flipped = list(signs)
                    flipped[i] = "+" if flipped[i] == "-" else "-"
                    other = decode(pair, flipped)
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
            decode("ee", [])


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
            record = security_check_round(prepare_ghz(2), bases, rands)
            assert isinstance(record, CheckRecord)
            assert not record.violation

    def test_product_state_replacement_is_detected(self):
        """Swapping in |eee> yields violations at the enumerated positive rate."""
        rng = np.random.default_rng(8)
        fake = basis_state("eee")
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
            security_check_round(prepare_ghz(2), ["X", "Z", "Y"], [0.1, 0.2, 0.3])


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

    def test_receiver_is_a_role(self):
        assert SessionConfig(receiver="charlie").receiver is Role.CHARLIE
        with pytest.raises(ValueError, match="not a valid Role"):
            SessionConfig(receiver="dave", n_users=5)

    def test_n_users_is_an_integer(self):
        assert SessionConfig(n_users=np.int64(3)).n_users == 3
        with pytest.raises(ValueError, match="n_users must be an integer"):
            SessionConfig(n_users=2.0)

    def test_key_frequencies_match_born_rule(self):
        """Monte Carlo frequency of each valid key is 1/2 within 5 standard errors."""
        rounds = 2000
        se = np.sqrt(0.5 * 0.5 / rounds)
        for op in EncodingOp:
            config = SessionConfig(rng_seed=1000 + op.value, p_check=0.0)
            counts: dict[DecodeKey, int] = {}
            for idx in range(rounds):
                record = run_session(config, op.value, idx)
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
        a = run_rounds(config, 60, None)
        b = run_rounds(config, 60, None)
        assert a == b
        encodes = [r for r in a if r.branch == "encode"]
        assert {r.message_bits for r in encodes} == {0, 1, 2, 3}
        assert all(r.decoded_bits == r.message_bits for r in encodes)

    def test_round_rng_streams_are_stable(self):
        assert round_rng(1, 2, 0).random() == round_rng(1, 2, 0).random()
        assert round_rng(1, 2, 0).random() != round_rng(1, 3, 0).random()
        assert round_rng(1, 2, 1).random() != round_rng(1, 2, 0).random()


class TestRoundStream:
    """``round_rng`` replays numpy's SeedSequence -> PCG64 draws bit for bit, without numpy.random."""

    # random(), integers(4), integers(3), random(), integers(5), integers(2) of three triples.
    PINNED = {
        (0, 0, 0): [0.6369616873214543, 2, 0, 0.04097352393619469, 0, 0],
        (2024, 17, 1): [0.5134129931905469, 0, 2, 0.9547266339188764, 0, 0],
        (2**64 + 3, 999_999, 0): [0.18194939494676465, 2, 1, 0.8143308332279235, 1, 1],
    }

    @staticmethod
    def draws(rng, ks):
        """One draw per entry of ``ks``: ``random()`` for None, else ``integers(k)``, as Python numbers."""
        return [float(rng.random()) if k is None else int(rng.integers(k)) for k in ks]

    @pytest.mark.parametrize("triple", sorted(PINNED))
    def test_pinned_draws(self, triple):
        assert self.draws(round_rng(*triple), [None, 4, 3, None, 5, 2]) == self.PINNED[triple]

    def test_matches_numpy_on_ten_thousand_triples(self):
        chooser = random.Random(17)
        seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 3, 2**128 + 7, 2**300]
        triples = [(seed, round_index, stream)
                   for seed in seeds for round_index in (0, 1, 999_999) for stream in (0, 1)]
        while len(triples) < 10_000:
            bits = chooser.choice((8, 32, 33, 64, 65, 96, 200))
            round_index = chooser.choice((0, chooser.randrange(10**6), chooser.randrange(2**40)))
            triples.append((chooser.getrandbits(bits), round_index, chooser.randrange(2)))
        mismatched = []
        for triple in triples:
            ks = [chooser.choice((None, None, 1, 2, 3, 4, 5)) for _ in range(6)]
            if self.draws(round_rng(*triple), ks) != self.draws(numpy_round_rng(*triple), ks):
                mismatched.append((triple, ks))
        assert mismatched == []

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_integers_interleaved_with_random(self, k):
        # The upper half of a 64-bit output waits across random() calls; k = 1 draws nothing.
        ks = [k, None, k, k, None, None, k, k, k, None] * 20
        for round_index in range(20):
            ours = self.draws(round_rng(9, round_index, 1), ks)
            assert ours == self.draws(numpy_round_rng(9, round_index, 1), ks)

    def test_k_one_draws_nothing(self):
        assert self.draws(round_rng(9, 0, 0), [1, 1, None]) == [0, 0, round_rng(9, 0, 0).random()]

    @pytest.mark.parametrize("k", [3, 5])
    def test_lemire_rejection(self, k):
        # A state whose next output's low half is 0: the 32-bit draw 0 is rejected for
        # k = 3 and 5 (2**32 mod k = 1), and the buffered upper half is drawn next.
        inc = 0x5851F42D4C957F2D14057B7EF767814F
        upper = 0x9E3779B9
        after = (12345 << 64) | 12345 ^ (upper << 32)  # top 6 bits 0: no rotation
        multiplier = 0x2360ED051FC65DA44385DF649FCCF645
        before = (after - inc) * pow(multiplier, -1, 2**128) % 2**128
        ks = [k] * 8 + [None, k]
        assert self.draws(RoundStream(before, inc), ks) == self.draws(numpy_pcg64(before, inc), ks)
        assert RoundStream(before, inc).integers(k) == upper * k >> 32

    @pytest.mark.parametrize("triple", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
    def test_negative_entropy_raises(self, triple):
        name = ("seed", "round_index", "stream")[triple.index(-1)]
        with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
            round_rng(*triple)
        with pytest.raises(ValueError):
            numpy_round_rng(*triple)

    @pytest.mark.parametrize("argv", [
        ["session", "--rounds", "40", "--p-check", "0.3"],
        ["adversary", "--model", "intercept-resend", "--rounds", "200"],
    ])
    def test_cli_run_leaves_numpy_random_unloaded(self, argv):
        env = dict(os.environ)
        src = str(Path(ghzdc.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.pop("GHZDC_CONFIG", None)
        code = ("import sys; from ghzdc.cli import main; main(sys.argv[1:]); "
                "print(sorted({'numpy.random', 'secrets', '_hashlib'} & set(sys.modules)), file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", os.devnull], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        assert proc.stderr.splitlines()[-1] == "[]"


class TestDecodeNOracle:
    def test_multi_user_enumeration(self):
        """Four-qubit enumeration confirms the parity decoding rule from scratch."""
        for op in EncodingOp:
            state = bob_interaction(encode(prepare_ghz(3), op), (1, 2))
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
                        assert decode(pair, (s3, s4)) is op

    def test_specific_row(self):
        assert decode("ee", ("+", "+")) is EncodingOp.IDENTITY


class TestDecodeProperty:
    """Every honest message round decodes exactly, for any stream and group size."""

    @pytest.mark.parametrize("n_users", range(2, 12))
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), round_index=st.integers(0, 10**9))
    def test_message_round_decodes_its_bits(self, n_users, seed, round_index):
        config = SessionConfig(rng_seed=seed, p_check=0.0, n_users=n_users)
        for op in EncodingOp:
            record = run_session(config, op.value, round_index)
            assert record.branch == "encode"
            assert len(record.partner_signs) == n_users - 1
            assert record.decoded_bits == op.value


class TestSessionRecordJson:
    def test_encode_record_fields(self):
        record = run_session(SessionConfig(rng_seed=4, p_check=0.0), 1, 9)
        d = record.to_json_dict()
        assert d["round_index"] == 9
        assert d["branch"] == "encode"
        assert (d["decoded"], d["decoded_bits"]) == ("SIGMA_X", 1)
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


class TestDerivedRecords:
    """Records store only draws and results; the verdict and the decode are read from them."""

    def test_stored_fields(self):
        assert [f.name for f in dataclasses.fields(CheckRecord)] == ["bases", "results"]
        assert [f.name for f in dataclasses.fields(SessionRecord)] == [
            "round_index", "message_bits", "bob_outcomes", "partner_signs", "check"]

    @pytest.mark.parametrize("n_parties", [3, 4])
    def test_check_verdict_by_hand(self, n_parties):
        accept = parity_accept_set(n_parties)
        for bases in product("XY", repeat=n_parties):
            expected = accept.get("".join(bases))
            for results in product((0, 1), repeat=n_parties):
                record = CheckRecord(bases, results)
                observed = sum(results) % 2
                violation = expected is not None and observed != expected
                assert record.expected_parity == expected
                assert record.observed_parity == observed
                assert record.violation is violation
                row = record.to_json_dict()
                assert (row["in_accept_set"], row["expected_parity"], row["observed_parity"],
                        row["violation"]) == (expected is not None, expected, observed, violation)

    @pytest.mark.parametrize("n_users", [2, 3])
    def test_message_record_decodes_its_results(self, n_users):
        for bits, pair, signs in product(range(4), PAIRS, product(SIGNS, repeat=n_users - 1)):
            record = SessionRecord(5, bits, pair, signs)
            op = decode(pair, signs)
            assert (record.branch, record.encoding) == ("encode", EncodingOp(bits).name)
            assert record.decoded_bits == op.value
            assert record.to_json_dict()["decoded"] == op.name

    def test_check_round_has_no_decode(self):
        record = SessionRecord(3, check=CheckRecord(("X", "X", "Y"), (0, 1, 1)))
        assert record.branch == "check"
        for name in ("message_bits", "encoding", "bob_outcomes", "partner_signs", "decoded_bits"):
            assert getattr(record, name) is None

    def test_derived_fields_are_read_only(self):
        record = SessionRecord(0, 1, "ge", ("+",))
        with pytest.raises(AttributeError):
            record.decoded_bits = 3
        with pytest.raises(AttributeError):
            CheckRecord(("X", "X", "Y"), (0, 0, 0)).violation = True

    @pytest.mark.parametrize("fields", [
        {},
        {"message_bits": 1},
        {"message_bits": 1, "bob_outcomes": "ge"},
        {"message_bits": 1, "bob_outcomes": "ge", "partner_signs": ("+",),
         "check": CheckRecord(("X", "X", "Y"), (0, 0, 0))},
        {"partner_signs": ("+",), "check": CheckRecord(("X", "X", "Y"), (0, 0, 0))},
    ], ids=["neither", "bits-only", "no-signs", "both", "check-with-signs"])
    def test_record_is_one_kind(self, fields):
        """A round is a message round or a check round: never neither, never a mixed row."""
        with pytest.raises(ValueError, match="either all three message fields or a check"):
            SessionRecord(0, **fields)


class TestLibraryEdges:
    """A library entry refuses a wrong-typed or out-of-range value with a ValueError
    that names the parameter, before any work, instead of failing later."""

    @pytest.mark.parametrize("call,name", [
        (lambda: SessionConfig(rng_seed=1.5), "rng_seed"),
        (lambda: SessionConfig(rng_seed=-1), "rng_seed"),
        (lambda: SessionConfig(p_check="0.5"), "p_check"),
        (lambda: run_rounds(SessionConfig(), 2.5, None), "rounds"),
        (lambda: prepare_ghz(2.0), "n_users"),
        (lambda: decode_table(2.0), "n_users"),
        (lambda: parity_accept_set(3.0), "n_parties"),
    ], ids=["seed-float", "seed-negative", "p_check-text", "rounds-float", "prepare_ghz-float",
            "decode_table-float", "accept_set-float"])
    def test_entry_refuses(self, call, name):
        # The equal integer keys are cached; a float key must still be refused.
        prepare_ghz(2)
        parity_accept_set(3)
        with pytest.raises(ValueError, match=f"^{name} must "):
            call()

    def test_counts_keep_their_ranges(self):
        for call, message in (
            (lambda: prepare_ghz(12), "n_users must be 2..11, got 12"),
            (lambda: decode_table(1), "n_users must be 2..11, got 1"),
            (lambda: parity_accept_set(13), "n_parties must be 3..12, got 13"),
            (lambda: SessionConfig(n_users=12), "n_users must be 2..11, got 12"),
            (lambda: run_rounds(SessionConfig(), 0, None), "rounds must be >= 1, got 0"),
        ):
            with pytest.raises(ValueError) as excinfo:
                call()
            assert str(excinfo.value) == message
        assert SessionConfig(rng_seed=np.int64(7), n_users=np.int64(3)).rng_seed == 7

    def test_numpy_counts_share_the_int_caches(self):
        """A numpy count is stored as its int, so the session reuses the cached states."""
        config = SessionConfig(rng_seed=np.int64(7), n_users=np.int64(3))
        assert type(config.rng_seed) is int and type(config.n_users) is int
        assert prepare_ghz(config.n_users) is prepare_ghz(3)
