"""Five-step secure dense-coding protocol over shared GHZ states.

One round runs as an explicit, replayable state machine:

1. Alice flips a biased coin: with probability ``p_check`` the round is a
   security check, otherwise a message round.
2. Check rounds: every party measures its share in a random X or Y basis;
   rounds whose basis combination has deterministic outcome parity for the
   honest resource state are compared against the expected parity.
3. Message rounds: Alice applies one of the four local operations
   (identity, sigma_x, i*sigma_y, sigma_z) to her atom, encoding 2 bits.
4. Alice sends her atom to the designated receiver, who passes both atoms
   through the driven cavity (the canonical pulse) and measures them in the
   computational basis.  Every other party measures in the +/- basis.
5. Decoding combines the receiver's two-atom outcome with the parity of the
   announced signs.

All randomness is drawn from per-round streams derived from a master seed
and the round index, so any round can be replayed bit-for-bit.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass
from itertools import chain, product, repeat

import numpy as np

from . import MAX_USERS, _check_count, qstate
from .cavity import CANONICAL_PULSE, effective_unitary
from .qstate import (
    COMPUTATIONAL,
    PLUS_MINUS,
    SQRT_HALF,
    Y_BASIS,
    QuantumState,
    apply_gate,
    apply_two_qubit,
    measure,
)


class Role(str, enum.Enum):
    ALICE = "alice"
    BOB = "bob"
    CHARLIE = "charlie"


class EncodingOp(enum.Enum):
    """Alice's four local operations and their fixed 2-bit values."""

    IDENTITY = 0b00
    SIGMA_X = 0b01
    I_SIGMA_Y = 0b10
    SIGMA_Z = 0b11


_ENCODING_MATRICES = {
    EncodingOp.IDENTITY: qstate.IDENTITY,
    EncodingOp.SIGMA_X: qstate.SIGMA_X,
    EncodingOp.I_SIGMA_Y: qstate.I_SIGMA_Y,
    EncodingOp.SIGMA_Z: qstate.SIGMA_Z,
}


def _cached_count(name: str, low: int, high: int):
    """An ``lru_cache`` keyed by ``_check_count(name, value, low, high)``, run on every call."""
    def decorate(build):
        cached = functools.lru_cache(maxsize=None)(build)

        @functools.wraps(build)
        def checked(value, /):
            return cached(_check_count(name, value, low, high))

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked
    return decorate


@_cached_count("n_users", 2, MAX_USERS)
def prepare_ghz(n_users: int, /) -> QuantumState:
    """Resource state (|e...e> + i|g...g>)/sqrt(2) on n_users + 1 qubits.

    Built once per ``n_users``; every call returns the same immutable state.
    """
    amps = np.zeros(2 ** (n_users + 1), dtype=complex)
    amps[0] = SQRT_HALF
    amps[-1] = 1j * SQRT_HALF
    return QuantumState(amps)


def encode(state: QuantumState, op: EncodingOp) -> QuantumState:
    """Apply Alice's operation to qubit 1 of a resource register of 3 or more qubits."""
    if state.num_qubits < 3:
        raise ValueError(f"encode expects at least 3 qubits, got {state.num_qubits}")
    if not isinstance(op, EncodingOp):
        raise ValueError(f"op must be an EncodingOp, got {op!r}")
    return apply_gate(state, _ENCODING_MATRICES[op], 1)


def bob_interaction(state: QuantumState, qubits: tuple[int, int]) -> QuantumState:
    """Send the receiver's two atoms through the driven cavity (the canonical pulse)."""
    if state.num_qubits < 3:
        raise ValueError("interaction expects the receiver pair plus at least one more share")
    return apply_two_qubit(state, effective_unitary(CANONICAL_PULSE), qubits)


def timing_error_fidelity(epsilon: float) -> float:
    """Worst-case decoding fidelity when the coupling angle is off by a factor 1+epsilon.

    The drive angle stays at pi (it is set by the field, not the transit
    time); only the coupling angle scales, from pi/4 to (1+epsilon) pi/4.  The
    perturbed map is the ideal one times e^{-i d} exp(-i d X1 X2), d = pi epsilon / 4
    (``effective_unitary``), so an input's squared overlap is cos^2 d + sin^2 d <X1 X2>^2.
    The encoded shares span |x y y>, which X1 X2 maps to |x' y' y>, orthogonal to
    them, so <X1 X2> = 0 and each of the four inputs gives cos^2(pi epsilon / 4).
    """
    if not (isinstance(epsilon, numbers.Real) and abs(epsilon) < 1.0):  # also rejects nan
        raise ValueError(f"epsilon must be finite with |epsilon| < 1, got {epsilon!r}")
    return math.cos(math.pi * epsilon / 4) ** 2


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------

PAIRS = ("ee", "eg", "ge", "gg")
SIGNS = ("+", "-")


@dataclass(frozen=True)
class DecodeKey:
    """Joint classical record indexing Alice's operation: receiver pair + sign."""

    pair: str
    sign: str

    def __post_init__(self):
        if self.pair not in PAIRS:
            raise ValueError(f"pair must be one of {PAIRS}, got {self.pair!r}")
        if self.sign not in SIGNS:
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")


# Two keys per operation: the receiver pair fixes the class {identity, sigma_z}
# vs {sigma_x, i sigma_y}; the sign picks the member.
DECODE_TABLE: dict[DecodeKey, EncodingOp] = {
    DecodeKey("ee", "+"): EncodingOp.IDENTITY,
    DecodeKey("gg", "-"): EncodingOp.IDENTITY,
    DecodeKey("ge", "+"): EncodingOp.SIGMA_X,
    DecodeKey("eg", "-"): EncodingOp.SIGMA_X,
    DecodeKey("eg", "+"): EncodingOp.I_SIGMA_Y,
    DecodeKey("ge", "-"): EncodingOp.I_SIGMA_Y,
    DecodeKey("gg", "+"): EncodingOp.SIGMA_Z,
    DecodeKey("ee", "-"): EncodingOp.SIGMA_Z,
}


def _check_labels(name: str, values, labels) -> tuple[str, ...]:
    """The label rule: ``values`` as a non-empty tuple of entries of ``labels``.  Anything else,
    a value that is not iterable or an entry that is not a label, raises ``ValueError`` naming
    ``name``."""
    try:
        entries = tuple(values)
        ok = entries and all(map(labels.__contains__, entries))
    except TypeError:  # not iterable, or an unhashable entry tested against a dict's keys
        ok = False
    if not ok:
        raise ValueError(f"{name} must be a non-empty sequence of {tuple(labels)}, got {values!r}")
    return entries


def decode(pair: str, signs) -> EncodingOp:
    """Alice's operation from the receiver's pair and the other parties' sign reports.

    The parity of the '-' reports plays the sign role, so one report is the
    three-party rule and any number of users decodes through ``DECODE_TABLE``.
    """
    signs = _check_labels("signs", signs, SIGNS)
    return DECODE_TABLE[DecodeKey(pair, SIGNS[signs.count("-") % 2])]


def decode_table(n_users: int) -> list[tuple[str, tuple[str, ...], EncodingOp]]:
    """Full (pair, signs) -> operation mapping, 4 * 2^(n_users - 1) rows."""
    _check_count("n_users", n_users, 2, MAX_USERS)
    rows = []
    for pair in PAIRS:
        for signs in product(SIGNS, repeat=n_users - 1):
            rows.append((pair, signs, decode(pair, signs)))
    return rows


# ---------------------------------------------------------------------------
# Security check
# ---------------------------------------------------------------------------

CHECK_BASES = {"X": PLUS_MINUS, "Y": Y_BASIS}


@_cached_count("n_parties", 3, MAX_USERS + 1)
def parity_accept_set(n_parties: int, /) -> dict[str, int]:
    """Basis combinations with deterministic outcome parity on the honest state.

    Measuring (|e...e> + i|g...g>)/sqrt(2) on n = n_parties qubits with k Y
    factors gives result string b the amplitude
    (1 + i (-i)^k (-1)^|b|) / 2^((n+1)/2), so the parity |b| mod 2 is fixed
    exactly when k is odd: 0 for k = 1 (mod 4) and 1 for k = 3 (mod 4).
    Keys follow ``product("XY", repeat=n_parties)`` order; the tests check
    the map against Born-rule enumeration.
    """
    accept: dict[str, int] = {}
    for combo in product("XY", repeat=n_parties):
        k = combo.count("Y")
        if k % 2:
            accept["".join(combo)] = (k % 4) // 2
    return accept


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one security-check round: the bases and results; the verdict is read from them."""

    bases: tuple[str, ...]
    results: tuple[int, ...]

    @property
    def expected_parity(self) -> int | None:
        """Outcome parity of the honest state in these bases; None outside the accept set."""
        return parity_accept_set(len(self.bases)).get("".join(self.bases))

    @property
    def observed_parity(self) -> int:
        return sum(self.results) % 2

    @property
    def violation(self) -> bool:
        return _violation(self.expected_parity, self.observed_parity)

    def to_json_dict(self) -> dict:
        expected, observed = self.expected_parity, self.observed_parity  # one accept-set lookup
        return {
            "bases": "".join(self.bases),
            "results": list(self.results),
            "in_accept_set": expected is not None,
            "expected_parity": expected,
            "observed_parity": observed,
            "violation": _violation(expected, observed),
        }


def _violation(expected_parity: int | None, observed_parity: int) -> bool:
    """The verdict: only a combination in the accept set can be violated, by the other parity."""
    return expected_parity is not None and observed_parity != expected_parity


def _measure_chain(state: QuantumState, qubits, bases, rands):
    """Measure each qubit in turn, in its basis with its uniform draw; yield each result bit.

    ``rands`` is read once per qubit, right before that qubit is measured.
    """
    for qubit, basis, rand in zip(qubits, bases, rands):
        outcome, state = measure(state, qubit, basis, rand)
        yield outcome.result


def security_check_round(state: QuantumState, bases, rands) -> CheckRecord:
    """All parties measure their shares in the chosen X/Y bases.

    ``bases`` has one 'X'/'Y' entry per party (qubits 1..len(bases)); extra
    qubits in the state are left untouched.  The verdict compares observed
    outcome parity against the parity expected of the honest resource state,
    and only basis combinations in the accept set can register a violation.
    """
    bases = _check_labels("bases", bases, CHECK_BASES)
    n_parties = len(bases)
    if n_parties < 3 or n_parties > state.num_qubits:
        raise ValueError("need one basis per party and at least three parties")
    if not (hasattr(rands, "__len__") and len(rands) == n_parties):
        raise ValueError(f"rands must hold one uniform draw per party, got {rands!r}")
    results = _measure_chain(state, range(1, n_parties + 1), map(CHECK_BASES.get, bases), rands)
    return CheckRecord(bases, tuple(results))


# ---------------------------------------------------------------------------
# Sessions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionConfig:
    """Per-session knobs; the receiver is the party Alice mails her atom to."""

    rng_seed: int = 0
    p_check: float = 0.1
    n_users: int = 2
    receiver: Role = Role.BOB

    def __post_init__(self):
        object.__setattr__(self, "rng_seed", _check_count("rng_seed", self.rng_seed, 0, None))
        if not (isinstance(self.p_check, numbers.Real) and 0.0 <= self.p_check <= 1.0):
            raise ValueError(f"p_check must lie in [0, 1], got {self.p_check!r}")
        object.__setattr__(self, "n_users", _check_count("n_users", self.n_users, 2, MAX_USERS))
        # Text such as "charlie" becomes its Role; a value outside Role raises ValueError.
        object.__setattr__(self, "receiver", Role(self.receiver))
        if self.receiver == Role.ALICE:
            raise ValueError("Alice cannot receive her own atom")
        if self.receiver == Role.CHARLIE and self.n_users != 2:
            raise ValueError("a Charlie receiver only exists in the 2-user session")

    @property
    def receiver_qubit(self) -> int:
        return 2 if self.receiver == Role.BOB else 3


@dataclass(frozen=True)
class SessionRecord:
    """Transcript of one protocol round: what was drawn and what was measured.

    ``bob_outcomes`` is the receiver's two-atom computational result
    (Alice's atom first); ``partner_signs`` lists the +/- results of the
    remaining users ordered by qubit index.  Message fields are set exactly
    on message rounds, ``check`` exactly on check rounds; the rest is derived.
    """

    round_index: int
    message_bits: int | None = None
    bob_outcomes: str | None = None
    partner_signs: tuple[str, ...] | None = None
    check: CheckRecord | None = None

    def __post_init__(self):
        if any((value is None) != (self.check is not None)
               for value in (self.message_bits, self.bob_outcomes, self.partner_signs)):
            raise ValueError("a round record holds either all three message fields or a check")

    @property
    def branch(self) -> str:
        return "check" if self.check else "encode"

    @property
    def encoding(self) -> str | None:
        return None if self.check else EncodingOp(self.message_bits).name

    @property
    def decoded_bits(self) -> int | None:
        return None if self.check else decode(self.bob_outcomes, self.partner_signs).value

    def to_json_dict(self) -> dict:
        bits = self.decoded_bits  # the row's one decode
        return {
            "round_index": self.round_index,
            "branch": self.branch,
            "message_bits": self.message_bits,
            "encoding": self.encoding,
            "bob_outcomes": self.bob_outcomes,
            "partner_signs": list(self.partner_signs) if self.partner_signs else None,
            "decoded": None if bits is None else EncodingOp(bits).name,
            "decoded_bits": bits,
            "check": self.check.to_json_dict() if self.check else None,
        }


_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_constants(init: int, multiplier: int, count: int) -> tuple[tuple[int, int], ...]:
    """(xor, multiplier) of a hash family's first ``count`` calls; they do not depend on the data."""
    pairs = []
    for _ in range(count):
        pairs.append((init, init * multiplier & _MASK32))
        init = pairs[-1][1]
    return tuple(pairs)


def _hashed(words, hashes) -> list[int]:
    """Each word hashed with its (xor, multiplier) pair, as far as both run."""
    out = []
    for word, (xor, multiplier) in zip(words, hashes):
        value = (word ^ xor) * multiplier & _MASK32
        out.append(value ^ value >> 16)
    return out


# SeedSequence's two hash families: the entropy hashes (the first four fill the pool)
# and the hashes of the eight output words.
_ENTROPY_HASH = (0x43B0D7E5, 0x931E8875)
_POOL_HASHES = _hash_constants(*_ENTROPY_HASH, 4)
_STATE_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


@functools.lru_cache(maxsize=8)
def _mix_steps(n_words: int, /) -> tuple[tuple[int, int, int, int], ...]:
    """SeedSequence's pool mixing for ``n_words`` entropy words: (source, target, xor, multiplier).

    Each pool word (indices 0-3) is mixed into every other one, then each
    entropy word past the fourth (indices 4 on) into every pool word.
    """
    steps = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    steps += [(src, dst) for src in range(4, n_words) for dst in range(4)]
    hashes = _hash_constants(*_ENTROPY_HASH, 4 + len(steps))[4:]
    return tuple(step + pair for step, pair in zip(steps, hashes))


def _entropy_words(numbers) -> list[int]:
    """Little-endian 32-bit words of each non-negative integer in turn; 0 gives [0]."""
    words = []
    for n in numbers:
        words.append(n & _MASK32)
        while n := n >> 32:
            words.append(n & _MASK32)
    return words


class RoundStream:
    """A PCG64 (XSL-RR) stream with the two draws of the replay rule, ``random`` and ``integers``."""

    __slots__ = ("_state", "_inc", "_upper")

    def __init__(self, state: int, inc: int):
        self._state, self._inc, self._upper = state, inc, None

    def _next64(self) -> int:
        # Step the 128-bit LCG, then xor its halves and rotate right by its top 6 bits.
        self._state = state = (self._state * _PCG64_MULTIPLIER + self._inc) & _MASK128
        word, rot = (state >> 64 ^ state) & _MASK64, state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1): the top 53 bits of one 64-bit output."""
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, k: int) -> int:
        """Uniform int in [0, k), 1 <= k <= 2**32, by Lemire's rejection on 32-bit draws.

        A 64-bit output gives two 32-bit draws, low half first; the high half
        waits for the next draw, across ``random`` calls.  k = 1 draws nothing.
        """
        k = _check_count("k", k, 1, 1 << 32)
        if k == 1:
            return 0
        threshold = (1 << 32) % k
        while True:
            if self._upper is None:
                word = self._next64()
                word, self._upper = word & _MASK32, word >> 32
            else:
                word, self._upper = self._upper, None
            product = word * k
            if product & _MASK32 >= threshold:
                return product >> 32


def round_rng(seed: int, round_index: int, stream: int) -> RoundStream:
    """Independent per-round stream: (master seed, round counter, stream id).

    Stream 0 drives the round itself; stream 1 draws random messages in
    batch runs.  The triple's little-endian 32-bit words are hashed into a
    four-word pool and expanded to eight words (numpy's ``SeedSequence``,
    after O'Neill's ``seed_seq_fe``); they seed a 128-bit PCG64 state and
    increment, whose XSL-RR outputs feed ``RoundStream``'s draws.  Every draw
    equals the one ``numpy.random.default_rng(SeedSequence((seed, round_index,
    stream)))`` gives, bit for bit, but it is computed here: numpy is not
    consulted and ``numpy.random`` is never imported (the tests keep numpy's
    generator as the oracle).  So results are stable across platforms and
    numpy versions, and rounds can be parallelized without coordination.
    """
    entropy = _entropy_words((_check_count("seed", seed, 0, None),
                              _check_count("round_index", round_index, 0, None),
                              _check_count("stream", stream, 0, None)))
    words = _hashed(entropy + [0, 0, 0], _POOL_HASHES) + entropy[4:]
    for src, dst, xor, multiplier in _mix_steps(len(entropy)):
        value = (words[src] ^ xor) * multiplier & _MASK32
        value = (0xCA01F9DD * words[dst] - 0x4973F715 * (value ^ value >> 16)) & _MASK32
        words[dst] = value ^ value >> 16
    w = _hashed(words[:4] * 2, _STATE_HASHES)
    # Words pair up little-endian into four uint64s: (seed high, seed low, inc high, inc low).
    seed128 = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
    inc = ((w[4] | w[5] << 32) << 65 | (w[6] | w[7] << 32) << 1 | 1) & _MASK128
    return RoundStream(((seed128 + inc) * _PCG64_MULTIPLIER + inc) & _MASK128, inc)


def measure_decode(
    state: QuantumState, rng: RoundStream, receiver_qubit: int
) -> tuple[str, tuple[str, ...]]:
    """Step-4 measurements: receiver pair in computational, everyone else in +/-.

    Returns the pair string (Alice's atom first) and the partner signs in
    qubit order.
    """
    partners = (q for q in range(2, state.num_qubits + 1) if q != receiver_qubit)
    results = _measure_chain(
        state,
        chain((1, receiver_qubit), partners),
        chain((COMPUTATIONAL, COMPUTATIONAL), repeat(PLUS_MINUS)),
        iter(rng.random, None),
    )
    pair = "eg"[next(results)] + "eg"[next(results)]
    return pair, tuple(SIGNS[result] for result in results)


def random_check_round(state: QuantumState, rng: RoundStream, n_parties: int) -> CheckRecord:
    """Check round on qubits 1..n_parties with bases and results drawn from ``rng``.

    The replay rule fixes the draw order: all bases first, then one uniform per party.
    """
    n_parties = _check_count("n_parties", n_parties, 3, state.num_qubits)
    bases = ["XY"[rng.integers(2)] for _ in range(n_parties)]
    rands = [rng.random() for _ in range(n_parties)]
    return security_check_round(state, bases, rands)


@functools.lru_cache(maxsize=128)
def _honest_post_state(n_users: int, op: EncodingOp, receiver_qubit: int, /) -> QuantumState:
    # Message rounds of an honest session all start from this state.
    state = encode(prepare_ghz(n_users), op)
    return bob_interaction(state, (1, receiver_qubit))


def run_session(
    config: SessionConfig, message_bits: int | None, round_index: int
) -> SessionRecord:
    """Execute one full round (branch selection through decoding)."""
    round_index = _check_count("round_index", round_index, 0, None)  # the record stores the int
    rng = round_rng(config.rng_seed, round_index, 0)
    if rng.random() < config.p_check:
        record = random_check_round(prepare_ghz(config.n_users), rng, config.n_users + 1)
        return SessionRecord(round_index, check=record)
    if message_bits is None:
        raise ValueError("message bits are required on an encoding round")
    op = EncodingOp(_check_count("message_bits", message_bits, 0, 3))
    state = _honest_post_state(config.n_users, op, config.receiver_qubit)
    pair, signs = measure_decode(state, rng, config.receiver_qubit)
    return SessionRecord(round_index, op.value, pair, signs)


def run_rounds(
    config: SessionConfig, rounds: int, message_bits: int | None
) -> list[SessionRecord]:
    """Run consecutive rounds; random message per round when none is fixed.

    Random messages come from their own derived stream, so transcripts stay
    reproducible for a given seed.
    """
    _check_count("rounds", rounds, 1, None)
    records = []
    for idx in range(rounds):
        msg = message_bits
        if msg is None:
            msg = round_rng(config.rng_seed, idx, 1).integers(4)
        records.append(run_session(config, msg, idx))
    return records
