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
from dataclasses import dataclass
from itertools import chain, product, repeat

import numpy as np

from . import qstate
from .cavity import CANONICAL_PULSE, PulseParams, effective_unitary
from .qstate import (
    COMPUTATIONAL,
    PLUS_MINUS,
    SQRT_HALF,
    Y_BASIS,
    QuantumState,
    apply_gate,
    apply_two_qubit,
    fidelity,
    measure,
)

MAX_USERS = 11


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

    @property
    def bits(self) -> int:
        return self.value

    @property
    def matrix(self) -> np.ndarray:
        return _ENCODING_MATRICES[self]

    @classmethod
    def from_bits(cls, bits: int) -> "EncodingOp":
        if not 0 <= bits <= 3:
            raise ValueError(f"message bits must be 0..3, got {bits}")
        return cls(bits)


_ENCODING_MATRICES = {
    EncodingOp.IDENTITY: qstate.IDENTITY,
    EncodingOp.SIGMA_X: qstate.SIGMA_X,
    EncodingOp.I_SIGMA_Y: qstate.I_SIGMA_Y,
    EncodingOp.SIGMA_Z: qstate.SIGMA_Z,
}


@functools.lru_cache(maxsize=None)
def prepare_ghz(n_users: int = 2) -> QuantumState:
    """Resource state (|e...e> + i|g...g>)/sqrt(2) on n_users + 1 qubits.

    Built once per ``n_users``; every call returns the same immutable state.
    """
    if not 2 <= n_users <= MAX_USERS:
        raise ValueError(f"n_users must be 2..{MAX_USERS}, got {n_users}")
    amps = np.zeros(2 ** (n_users + 1), dtype=complex)
    amps[0] = SQRT_HALF
    amps[-1] = 1j * SQRT_HALF
    return QuantumState(amps)


def encode(state: QuantumState, op: EncodingOp) -> QuantumState:
    """Apply Alice's operation to qubit 1 of a resource register of 3 or more qubits."""
    if state.num_qubits < 3:
        raise ValueError(f"encode expects at least 3 qubits, got {state.num_qubits}")
    return apply_gate(state, op.matrix, 1)


def bob_interaction(
    state: QuantumState, pulse: PulseParams = CANONICAL_PULSE, qubits: tuple[int, int] = (1, 2)
) -> QuantumState:
    """Send the receiver's two atoms through the driven cavity."""
    if state.num_qubits < 3:
        raise ValueError("interaction expects the receiver pair plus at least one more share")
    return apply_two_qubit(state, effective_unitary(pulse), qubits)


def timing_error_fidelity(epsilon: float) -> float:
    """Worst-case decoding fidelity when the coupling angle is off by a factor 1+epsilon.

    The drive angle stays at pi (it is set by the field, not the transit
    time); only the coupling angle scales.  Returns the minimum squared
    overlap with the ideal output over the four encoded inputs.
    """
    if not abs(epsilon) < 1.0:  # also rejects nan
        raise ValueError(f"epsilon must be finite with |epsilon| < 1, got {epsilon!r}")
    perturbed = PulseParams(lambda_t=(1.0 + epsilon) * np.pi / 4, omega_t=np.pi)
    encoded = (encode(prepare_ghz(), op) for op in EncodingOp)
    return min(fidelity(bob_interaction(s), bob_interaction(s, perturbed)) for s in encoded)


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


def decode(key: DecodeKey) -> EncodingOp:
    """Three-party decoding; total on all 8 keys."""
    return DECODE_TABLE[key]


def decode_n(pair: str, signs) -> EncodingOp:
    """Multi-user decoding: the parity of the '-' reports plays the sign role."""
    signs = tuple(signs)
    if not signs:
        raise ValueError("at least one sign report is required")
    for s in signs:
        if s not in SIGNS:
            raise ValueError(f"sign reports must be '+' or '-', got {s!r}")
    parity_sign = "+" if signs.count("-") % 2 == 0 else "-"
    return decode(DecodeKey(pair, parity_sign))


def decode_table(n_users: int = 2) -> list[tuple[str, tuple[str, ...], EncodingOp]]:
    """Full (pair, signs) -> operation mapping, 4 * 2^(n_users - 1) rows."""
    if not 2 <= n_users <= MAX_USERS:
        raise ValueError(f"n_users must be 2..{MAX_USERS}, got {n_users}")
    rows = []
    for pair in PAIRS:
        for signs in product(SIGNS, repeat=n_users - 1):
            rows.append((pair, signs, decode_n(pair, signs)))
    return rows


# ---------------------------------------------------------------------------
# Security check
# ---------------------------------------------------------------------------

CHECK_BASES = {"X": PLUS_MINUS, "Y": Y_BASIS}


@functools.lru_cache(maxsize=None)
def parity_accept_set(n_parties: int = 3) -> dict[str, int]:
    """Basis combinations with deterministic outcome parity on the honest state.

    Measuring (|e...e> + i|g...g>)/sqrt(2) on n = n_parties qubits with k Y
    factors gives result string b the amplitude
    (1 + i (-i)^k (-1)^|b|) / 2^((n+1)/2), so the parity |b| mod 2 is fixed
    exactly when k is odd: 0 for k = 1 (mod 4) and 1 for k = 3 (mod 4).
    Keys follow ``product("XY", repeat=n_parties)`` order; the tests check
    the map against Born-rule enumeration.
    """
    if not 3 <= n_parties <= MAX_USERS + 1:
        raise ValueError(f"n_parties must be 3..{MAX_USERS + 1}")
    accept: dict[str, int] = {}
    for combo in product("XY", repeat=n_parties):
        k = combo.count("Y")
        if k % 2:
            accept["".join(combo)] = (k % 4) // 2
    return accept


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one security-check round."""

    bases: tuple[str, ...]
    results: tuple[int, ...]
    in_accept_set: bool
    expected_parity: int | None
    observed_parity: int
    violation: bool

    def to_json_dict(self) -> dict:
        return {
            "bases": "".join(self.bases),
            "results": list(self.results),
            "in_accept_set": self.in_accept_set,
            "expected_parity": self.expected_parity,
            "observed_parity": self.observed_parity,
            "violation": self.violation,
        }


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
    bases = tuple(bases)
    rands = tuple(rands)
    n_parties = len(bases)
    if n_parties < 3 or n_parties > state.num_qubits:
        raise ValueError("need one basis per party and at least three parties")
    if len(rands) != n_parties:
        raise ValueError("need exactly one uniform draw per party")
    for b in bases:
        if b not in CHECK_BASES:
            raise ValueError(f"check bases must be 'X' or 'Y', got {b!r}")
    results = tuple(
        _measure_chain(state, range(1, n_parties + 1), map(CHECK_BASES.get, bases), rands)
    )
    observed = sum(results) % 2
    expected = parity_accept_set(n_parties).get("".join(bases))
    in_accept = expected is not None
    return CheckRecord(
        bases=bases,
        results=results,
        in_accept_set=in_accept,
        expected_parity=expected,
        observed_parity=observed,
        violation=in_accept and observed != expected,
    )


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
        if not 0.0 <= self.p_check <= 1.0:
            raise ValueError("p_check must lie in [0, 1]")
        if not 2 <= self.n_users <= MAX_USERS:
            raise ValueError(f"n_users must be 2..{MAX_USERS}")
        if self.receiver == Role.ALICE:
            raise ValueError("Alice cannot receive her own atom")
        if self.receiver == Role.CHARLIE and self.n_users != 2:
            raise ValueError("a Charlie receiver only exists in the 2-user session")

    @property
    def receiver_qubit(self) -> int:
        return 2 if self.receiver == Role.BOB else 3


@dataclass(frozen=True)
class SessionRecord:
    """Transcript of one protocol round.

    ``bob_outcomes`` is the receiver's two-atom computational result
    (Alice's atom first); ``partner_signs`` lists the +/- results of the
    remaining users ordered by qubit index.  Decoded fields are present
    exactly on message rounds, ``check`` exactly on check rounds.
    """

    round_index: int
    branch: str  # "check" | "encode"
    message_bits: int | None = None
    encoding: str | None = None
    bob_outcomes: str | None = None
    partner_signs: tuple[str, ...] | None = None
    decoded: str | None = None
    decoded_bits: int | None = None
    check: CheckRecord | None = None

    def to_json_dict(self) -> dict:
        return {
            "round_index": self.round_index,
            "branch": self.branch,
            "message_bits": self.message_bits,
            "encoding": self.encoding,
            "bob_outcomes": self.bob_outcomes,
            "partner_signs": list(self.partner_signs) if self.partner_signs else None,
            "decoded": self.decoded,
            "decoded_bits": self.decoded_bits,
            "check": self.check.to_json_dict() if self.check else None,
        }


def round_rng(seed: int, round_index: int, stream: int = 0) -> np.random.Generator:
    """Independent per-round stream: (master seed, round counter, stream id).

    Stream 0 drives the round itself; stream 1 draws random messages in
    batch runs.  The triple feeds ``numpy.random.SeedSequence`` directly,
    so results are stable across platforms and can be parallelized by
    round without coordination.
    """
    return np.random.default_rng(np.random.SeedSequence((seed, round_index, stream)))


def measure_decode(
    state: QuantumState, rng: np.random.Generator, receiver_qubit: int = 2
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


def random_check_round(state: QuantumState, rng: np.random.Generator, n_parties: int = 3) -> CheckRecord:
    """Check round on qubits 1..n_parties with bases and results drawn from ``rng``.

    The replay rule fixes the draw order: all bases first, then one uniform per party.
    """
    bases = ["XY"[rng.integers(2)] for _ in range(n_parties)]
    rands = [rng.random() for _ in range(n_parties)]
    return security_check_round(state, bases, rands)


@functools.lru_cache(maxsize=128)
def _honest_post_state(n_users: int, op: EncodingOp, receiver_qubit: int) -> QuantumState:
    # Message rounds of an honest session all start from this state.
    state = encode(prepare_ghz(n_users), op)
    return bob_interaction(state, qubits=(1, receiver_qubit))


def run_session(
    config: SessionConfig, message_bits: int | None = None, round_index: int = 0
) -> SessionRecord:
    """Execute one full round (branch selection through decoding)."""
    rng = round_rng(config.rng_seed, round_index)
    if rng.random() < config.p_check:
        record = random_check_round(prepare_ghz(config.n_users), rng, config.n_users + 1)
        return SessionRecord(round_index=round_index, branch="check", check=record)
    if message_bits is None:
        raise ValueError("message bits are required on an encoding round")
    op = EncodingOp.from_bits(message_bits)
    state = _honest_post_state(config.n_users, op, config.receiver_qubit)
    pair, signs = measure_decode(state, rng, config.receiver_qubit)
    decoded = decode_n(pair, signs)
    return SessionRecord(
        round_index=round_index,
        branch="encode",
        message_bits=message_bits,
        encoding=op.name,
        bob_outcomes=pair,
        partner_signs=signs,
        decoded=decoded.name,
        decoded_bits=decoded.bits,
    )


def run_rounds(
    config: SessionConfig, rounds: int, message_bits: int | None = None
) -> list[SessionRecord]:
    """Run consecutive rounds; random message per round when none is fixed.

    Random messages come from their own derived stream, so transcripts stay
    reproducible for a given seed.
    """
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    records = []
    for idx in range(rounds):
        msg = message_bits
        if msg is None:
            msg = int(round_rng(config.rng_seed, idx, stream=1).integers(4))
        records.append(run_session(config, msg, idx))
    return records
