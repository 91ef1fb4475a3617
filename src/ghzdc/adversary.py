"""Dishonest-party and eavesdropper analysis: exact values plus Monte Carlo.

Solo-guess and cheat probabilities are exact rationals, summed over
messages, lie randomness and the closed-form message-round distribution
(1/2 on each of the two decode keys of Alice's operation).
"Lying" means reporting a value drawn uniformly from the report alphabet,
independent of the true outcome (a fabricated record); the stricter
always-flip variants are exposed separately.  A cheat succeeds when the
deceived party decodes the wrong message.

Eavesdropping is modeled two ways: intercept-resend on an atom in transit
during distribution, and a one-parameter family that entangles a fresh
ancilla with the second share through a controlled rotation of angle theta.
Both are scored by the security-check violation rate; the ancilla family
additionally reports how much the best projective ancilla measurement
reveals about the legitimate decode key.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from .protocol import (
    CHECK_BASES,
    DECODE_TABLE,
    PAIRS,
    SIGNS,
    DecodeKey,
    EncodingOp,
    Role,
    _honest_post_state,
    bob_interaction,
    decode,
    measure_decode,
    parity_accept_set,
    prepare_ghz,
    random_check_round,
    round_rng,
)
from .qstate import (
    COMPUTATIONAL,
    PLUS_MINUS,
    Y_BASIS,
    QuantumState,
    apply_two_qubit,
    basis_amplitudes,
    collapse,
    measure,
    outcome_distribution,
)

INTERCEPT_BASES = {"computational": COMPUTATIONAL, "x": PLUS_MINUS, "y": Y_BASIS}

# One range rule per model parameter: (accepts the value, message otherwise).
PARAM_CHECKS = {
    "target_qubit": (lambda q: q in (2, 3), "intercept target must be qubit 2 or 3 (atoms in transit)"),
    "basis": (lambda b: b in INTERCEPT_BASES, f"intercept basis must be one of {sorted(INTERCEPT_BASES)}"),
    "theta": (lambda t: t is not None and 0.0 <= t <= math.pi / 2, "theta must lie in [0, pi/2]"),
}


def _check_param(name: str, value) -> None:
    accepts, message = PARAM_CHECKS[name]
    if not accepts(value):
        raise ValueError(message)


@dataclass(frozen=True)
class AdversaryModel:
    """Tagged strategy description; ``kind`` names an entry of ``STRATEGIES``."""

    kind: str
    target_qubit: int | None = None
    basis: str | None = None
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in STRATEGIES:
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        for name in STRATEGIES[self.kind].params:
            _check_param(name, getattr(self, name))


def _snap(p: float) -> Fraction:
    """Recover the exact rational a Born-rule enumeration converged to."""
    frac = Fraction(p).limit_denominator(4096)
    if abs(float(frac) - p) > 1e-12:
        raise ValueError(f"probability {p!r} is not rational within tolerance")
    return frac


def decode_distribution(op: EncodingOp) -> dict[DecodeKey, Fraction]:
    """Exact joint outcome distribution of one message round, keys in (pair, sign) order.

    The honest round is a stabilizer circuit: it lands on the two
    ``DECODE_TABLE`` keys of ``op`` with probability 1/2 each, never elsewhere.
    """
    keys = (DecodeKey(pair, sign) for pair in PAIRS for sign in SIGNS)
    return {key: Fraction(1, 2) if DECODE_TABLE[key] == op else Fraction(0) for key in keys}


def _joint_message_key() -> dict[tuple[EncodingOp, DecodeKey], Fraction]:
    # Uniform messages over decode_distribution: 1/8 on each DECODE_TABLE entry, 0 elsewhere.
    return {(op, key): Fraction(1, 8) for key, op in DECODE_TABLE.items()}


def solo_guess_probability(party: Role) -> Fraction:
    """Best success probability of guessing the message from one party's record alone.

    Uniform messages; the guess is the maximum-a-posteriori choice given
    the receiver pair (Bob) or the sign (Charlie).  Alice trivially knows
    her own message.
    """
    if party == Role.ALICE:
        return Fraction(1)
    if party not in SOLO_GUESSES:
        raise ValueError(f"party must be a Role, got {party!r}")
    return SOLO_GUESSES[party].exact()


def cheat_success(model: AdversaryModel) -> Fraction:
    """Probability that the victim decodes the wrong message under the model.

    Liars submit a uniformly random report; flippers submit a uniformly
    random *false* report.  The honest model deceives no one.
    """
    if model.kind not in CHEATS:
        raise ValueError(f"cheat_success does not apply to {model.kind!r}")
    return CHEATS[model.kind].exact()


# ---------------------------------------------------------------------------
# Eavesdropping
# ---------------------------------------------------------------------------


def check_violation_rate(state: QuantumState) -> float:
    """Per-check-round probability of landing in the accept set with bad parity.

    The three parties choose bases independently and uniformly; qubits
    beyond the third (an ancilla) are traced out by the enumeration.
    """
    accept = parity_accept_set(3)
    combo_weight = 1.0 / 2**3
    total = 0.0
    for combo, expected in accept.items():
        probs = outcome_distribution(state, [CHECK_BASES[label] for label in combo])
        # Outcomes below 1e-12 are float residue of zero amplitudes, so states
        # that pass every check exactly report a rate of exactly zero.  The sum runs
        # in index order, which fixes its float rounding.
        total += combo_weight * sum(
            float(p) for bits, p in np.ndenumerate(probs) if p > 1e-12 and sum(bits) % 2 != expected
        )
    return total


def intercept_resend_detection(target_qubit: int, basis: str) -> Fraction:
    """Exact detection probability per check round for an intercept-resend attack.

    The attacked resource is the ensemble of post-measurement states the
    eavesdropper forwards; every branch probability here is an exact dyadic
    rational, recovered from the enumeration by snapping.
    """
    _check_param("target_qubit", target_qubit)
    _check_param("basis", basis)
    ghz = prepare_ghz()
    total = Fraction(0)
    for result in (0, 1):
        prob, resent = collapse(ghz, target_qubit, INTERCEPT_BASES[basis], result)
        total += _snap(prob) * _snap(check_violation_rate(resent))
    return total


def _controlled_rotation(theta: float) -> np.ndarray:
    """On (share, ancilla): rotate the ancilla by theta when the share is |g>."""
    c, s = math.cos(theta), math.sin(theta)
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = np.array([[c, -s], [s, c]])
    return u


@functools.lru_cache(maxsize=128)
def attach_ancilla(state: QuantumState, theta: float) -> QuantumState:
    """Append a fresh ancilla (as the last qubit) entangled with the second share (qubit 2).

    Cached by ``(state, theta)``, states keyed by identity: an ancilla Monte
    Carlo round passes the one cached ``prepare_ghz()`` state, so every round
    after the first reuses the attacked state.
    """
    amps = np.zeros(2 * state.amplitudes.size, dtype=complex)
    amps[0::2] = state.amplitudes  # ancilla starts in |e>
    attacked = QuantumState(amps)
    return apply_two_qubit(attacked, _controlled_rotation(theta), (2, attacked.num_qubits))


def _grid_normals(polar_n: int, azimuth_n: int) -> np.ndarray:
    polar = np.linspace(0.0, math.pi, polar_n)
    azimuth = np.linspace(0.0, 2.0 * math.pi, azimuth_n)
    pol, azi = np.meshgrid(polar, azimuth, indexing="ij")
    return np.stack(
        [np.sin(pol) * np.cos(azi), np.sin(pol) * np.sin(azi), np.cos(pol)], axis=-1
    ).reshape(-1, 3)


def _best_grid_information(rhos: np.ndarray, normals: np.ndarray) -> float:
    """Max mutual information (bits) between key and a projective ancilla readout.

    For a measurement direction n the outcome probabilities given key k are
    (w_k +/- n . r_k)/2 with w_k the key probability and r_k the ancilla
    Bloch vector, so the whole grid reduces to dot products.
    """
    weights = np.real(np.trace(rhos, axis1=1, axis2=2))
    blochs = np.stack(
        [
            2.0 * np.real(rhos[:, 1, 0]),
            2.0 * np.imag(rhos[:, 1, 0]),
            np.real(rhos[:, 0, 0] - rhos[:, 1, 1]),
        ],
        axis=-1,
    )
    dots = normals @ blochs.T  # (grid, keys)
    joint = np.stack([(weights + dots) / 2.0, (weights - dots) / 2.0], axis=-1)
    joint = np.clip(joint, 0.0, None)
    pk = weights[None, :, None]
    pe = joint.sum(axis=1, keepdims=True)
    mask = joint > 1e-15
    safe_p = np.where(mask, joint, 1.0)
    safe_q = np.where(mask, pk * pe, 1.0)
    info = np.sum(np.where(mask, joint * np.log2(safe_p / safe_q), 0.0), axis=(1, 2))
    return float(info.max())


@dataclass(frozen=True)
class AncillaTradeoff:
    theta: float
    error_rate: float
    information_bits: float


def ancilla_attack_tradeoff(theta: float) -> AncillaTradeoff:
    """Detection-vs-leakage point of the controlled-rotation attack family.

    ``error_rate`` is the security-check violation rate on the attacked
    state.  ``information_bits`` is the mutual information between the best
    projective ancilla measurement (maximized over a 31 x 61 polar-azimuth
    grid) and the decode key of a message round; the encoding is held
    fixed, which by symmetry gives the same value for every message and
    captures what the eavesdropper learns about the parties' measurement
    records.
    """
    _check_param("theta", theta)
    attacked = attach_ancilla(prepare_ghz(), theta)
    error = check_violation_rate(attacked)

    evolved = bob_interaction(attacked)
    rotated = basis_amplitudes(evolved, (None, None, PLUS_MINUS))  # (q1, q2, sign, anc)
    # Sub-normalized ancilla density matrix per decode key, keys in (q1, q2, sign) order.
    rhos = (rotated[..., :, None] * rotated[..., None, :].conj()).reshape(8, 2, 2)
    best = _best_grid_information(rhos, _grid_normals(31, 61))
    return AncillaTradeoff(theta=theta, error_rate=error, information_bits=best)


# ---------------------------------------------------------------------------
# Strategy table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Strategy:
    """What every adversary kind declares: its CLI ``--model`` flag, the
    ``AdversaryModel`` fields it takes (each checked by ``PARAM_CHECKS``),
    and ``report(model)``, the extra fields of its result row."""

    flag: str
    params: tuple[str, ...] = ()
    report: Callable[[AdversaryModel], dict] = lambda model: {}


@dataclass(frozen=True)
class MessageStrategy(Strategy):
    """An adversary acting on message rounds.

    ``outcomes(op, key)`` lists the equally likely results (True for a hit)
    of the adversary's own randomness, given Alice's operation and the true
    decode key.  ``exact`` averages this function over the closed-form joint
    distribution and ``sample`` applies it to a simulated round, so the two
    share every adversary rule.
    Message strategies take no model parameters.
    """

    outcomes: Callable[[EncodingOp, DecodeKey], tuple[bool, ...]]

    def exact(self, model: AdversaryModel | None = None) -> Fraction:
        total = Fraction(0)
        for (op, key), p in _joint_message_key().items():
            results = self.outcomes(op, key)
            total += p * Fraction(sum(results), len(results))
        return total

    def sample(self, model: AdversaryModel, rng: np.random.Generator) -> bool:
        """One message round with a uniformly random message; True on a hit."""
        op = EncodingOp(int(rng.integers(4)))
        pair, signs = measure_decode(_honest_post_state(2, op, 2), rng)
        results = self.outcomes(op, DecodeKey(pair, signs[0]))
        return results[int(rng.integers(len(results)))]


@dataclass(frozen=True)
class CheckAttack(Strategy):
    """An eavesdropper acting on check rounds: sampled attacked state and exact detection rate."""

    attacked_state: Callable[[AdversaryModel, np.random.Generator], QuantumState]
    exact: Callable[[AdversaryModel], Fraction | float]

    def sample(self, model: AdversaryModel, rng: np.random.Generator) -> bool:
        """One check round on the attacked state; True when it flags a violation."""
        return random_check_round(self.attacked_state(model, rng), rng).violation


def _report_cheat(flag: str, field: str, exclude_truth: bool) -> MessageStrategy:
    """A party replaces its ``field`` of the decode key by a uniformly random
    report (lies) or a uniformly random false one (flips); a hit is a wrong decode."""
    alphabet = PAIRS if field == "pair" else SIGNS

    @functools.cache  # 4 operations x 8 keys; Monte Carlo rounds look them up
    def outcomes(op: EncodingOp, key: DecodeKey) -> tuple[bool, ...]:
        truth = getattr(key, field)
        return tuple(
            decode(replace(key, **{field: report})) != op
            for report in alphabet
            if not (exclude_truth and report == truth)
        )

    return MessageStrategy(outcomes, flag=flag)


def _solo_guess(flag: str, field: str) -> MessageStrategy:
    """Guess the message from ``field`` of the decode key alone: the
    maximum-a-posteriori operation, ties going to the lowest bits."""

    @functools.cache
    def guess(view: str) -> EncodingOp:
        weights = {op: Fraction(0) for op in EncodingOp}  # bits order: max keeps the first
        for (op, key), p in _joint_message_key().items():
            if getattr(key, field) == view:
                weights[op] += p
        return max(weights, key=weights.__getitem__)

    return MessageStrategy(lambda op, key: (guess(getattr(key, field)) == op,), flag=flag)


CHEATS = {
    "honest": MessageStrategy(lambda op, key: (decode(key) != op,), flag="honest"),
    "charlie_lies": _report_cheat("charlie-lies", "sign", exclude_truth=False),
    "bob_lies": _report_cheat("bob-lies", "pair", exclude_truth=False),
    "charlie_flips": _report_cheat("charlie-flips", "sign", exclude_truth=True),
    "bob_flips": _report_cheat("bob-flips", "pair", exclude_truth=True),
}

SOLO_GUESSES = {
    Role.BOB: _solo_guess("bob-guess", "pair"),
    Role.CHARLIE: _solo_guess("charlie-guess", "sign"),
}

STRATEGIES: dict[str, MessageStrategy | CheckAttack] = {
    **CHEATS,
    "bob_alone_guess": SOLO_GUESSES[Role.BOB],
    "charlie_alone_guess": SOLO_GUESSES[Role.CHARLIE],
    "intercept_resend": CheckAttack(
        attacked_state=lambda model, rng: measure(
            prepare_ghz(), model.target_qubit, INTERCEPT_BASES[model.basis], rng.random()
        )[1],
        exact=lambda model: intercept_resend_detection(model.target_qubit, model.basis),
        flag="intercept-resend",
        params=("target_qubit", "basis"),
    ),
    "ancilla_attack": CheckAttack(
        # The analytic value needs no information grid; ``report`` computes it once.
        attacked_state=lambda model, rng: attach_ancilla(prepare_ghz(), model.theta),
        exact=lambda model: check_violation_rate(attach_ancilla(prepare_ghz(), model.theta)),
        flag="ancilla",
        params=("theta",),
        report=lambda model: {
            "information_bits": ancilla_attack_tradeoff(model.theta).information_bits
        },
    ),
}


# ---------------------------------------------------------------------------
# Monte Carlo confirmation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheatReport:
    """Analytic value next to its seeded empirical estimate."""

    model: AdversaryModel
    analytic_success: float
    empirical_success: float
    std_error: float
    rounds: int

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.kind,
            "target_qubit": self.model.target_qubit,
            "basis": self.model.basis,
            "theta": self.model.theta,
            "analytic_success": self.analytic_success,
            "empirical_success": self.empirical_success,
            "std_error": self.std_error,
            "rounds": self.rounds,
        }


def analytic_success(model: AdversaryModel) -> float:
    """Reference value matching what the Monte Carlo run estimates."""
    return float(STRATEGIES[model.kind].exact(model))


def monte_carlo_confirm(model: AdversaryModel, rounds: int, seed: int) -> CheatReport:
    """Seeded empirical estimate of the model's success/detection frequency."""
    if rounds < 100:
        raise ValueError("rounds must be >= 100 for a meaningful estimate")
    analytic = analytic_success(model)
    strategy = STRATEGIES[model.kind]
    hits = sum(strategy.sample(model, round_rng(seed, idx)) for idx in range(rounds))
    empirical = hits / rounds
    std_error = math.sqrt(analytic * (1.0 - analytic) / rounds)
    return CheatReport(
        model=model,
        analytic_success=analytic,
        empirical_success=empirical,
        std_error=std_error,
        rounds=rounds,
    )
