"""Dishonest-party and eavesdropper analysis: exact values plus Monte Carlo.

Solo-guess and cheat probabilities are exact rationals, summed over
messages, lie randomness and the closed-form message-round distribution
(1/2 on each of the two decode keys of Alice's operation).
"Lying" means reporting a value drawn uniformly from the report alphabet,
independent of the true outcome (a fabricated record); the stricter
always-flip variants are exposed separately.  A cheat succeeds when the
deceived party decodes the wrong message.  ``analytic_success`` gives the
exact value of every model, and ``monte_carlo_confirm`` samples it.

Eavesdropping is modeled two ways: intercept-resend on an atom in transit
during distribution, and a one-parameter family that entangles a fresh
ancilla with the second share through a controlled rotation of angle theta.
Both are scored by the security-check violation rate; the ancilla family
additionally reports how much the best ancilla measurement reveals about
the legitimate decode key.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

import numpy as np

from . import INTERCEPT_BASIS_NAMES, MIN_ADVERSARY_ROUNDS, _check_count
from .protocol import (
    CHECK_BASES,
    DECODE_TABLE,
    PAIRS,
    SIGNS,
    CheckRecord,
    DecodeKey,
    EncodingOp,
    RoundStream,
    _honest_post_state,
    bob_interaction,
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

INTERCEPT_BASES = dict(zip(INTERCEPT_BASIS_NAMES, (COMPUTATIONAL, PLUS_MINUS, Y_BASIS)))

# One rule per model parameter: returns the value to store, or raises ValueError naming it.
PARAM_CHECKS = {
    "target_qubit": lambda q: _check_count("target_qubit", q, 2, 3),  # the atoms in transit
    "intercept_basis": lambda b: _accepted(b, isinstance(b, str) and b in INTERCEPT_BASES,
                                           f"intercept_basis must be one of {list(INTERCEPT_BASES)}"),
    "theta": lambda t: _accepted(t, isinstance(t, numbers.Real) and 0.0 <= t <= math.pi / 2,
                                 "theta must lie in [0, pi/2]"),
}


def _accepted(value, ok: bool, message: str):
    if not ok:
        raise ValueError(f"{message}, got {value!r}")
    return value


@dataclass(frozen=True)
class AdversaryModel:
    """Tagged strategy description; ``kind`` names an entry of ``STRATEGIES``."""

    kind: str
    target_qubit: int | None = None
    intercept_basis: str | None = None
    theta: float | None = None

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in STRATEGIES):
            raise ValueError(f"unknown adversary kind {self.kind!r}")
        for name in STRATEGIES[self.kind].params:
            object.__setattr__(self, name, PARAM_CHECKS[name](getattr(self, name)))


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


# ---------------------------------------------------------------------------
# Eavesdropping
# ---------------------------------------------------------------------------


def check_violation_rate(state: QuantumState) -> float:
    """Per-check-round probability that a three-party check round flags a violation.

    The three parties choose bases independently and uniformly; each
    outcome's verdict is ``CheckRecord(bases, results).violation``, the rule
    of the sampled check round, so only accept-set combinations can flag.
    Qubits beyond the third (an ancilla) are traced out by the enumeration.
    """
    combo_weight = 1.0 / 2**3
    total = 0.0
    for combo in parity_accept_set(3):
        probs = outcome_distribution(state, [CHECK_BASES[label] for label in combo]).ravel()
        flagged = np.array([CheckRecord(tuple(combo), r).violation for r in np.ndindex(2, 2, 2)])
        # Outcomes below 1e-12 are float residue of zero amplitudes, so states
        # that pass every check exactly report a rate of exactly zero.
        total += combo_weight * float(probs[flagged & (probs > 1e-12)].sum())
    return total


def intercept_resend_detection(target_qubit: int, intercept_basis: str) -> Fraction:
    """Exact detection probability per check round for an intercept-resend attack.

    The attacked resource is the ensemble of post-measurement states the
    eavesdropper forwards; every branch probability here is an exact dyadic
    rational, recovered from the enumeration by snapping.
    """
    target_qubit = PARAM_CHECKS["target_qubit"](target_qubit)
    intercept_basis = PARAM_CHECKS["intercept_basis"](intercept_basis)
    ghz = prepare_ghz(2)
    total = Fraction(0)
    for result in (0, 1):
        prob, resent = collapse(ghz, target_qubit, INTERCEPT_BASES[intercept_basis], result)
        total += _snap(prob) * _snap(check_violation_rate(resent))
    return total


def _controlled_rotation(theta: float) -> np.ndarray:
    """On (share, ancilla): rotate the ancilla by theta when the share is |g>."""
    c, s = math.cos(theta), math.sin(theta)
    u = np.eye(4, dtype=complex)
    u[2:, 2:] = np.array([[c, -s], [s, c]])
    return u


@functools.lru_cache(maxsize=128)
def attach_ancilla(state: QuantumState, theta: float, /) -> QuantumState:
    """Append a fresh ancilla (as the last qubit) entangled with the second share (qubit 2).

    Cached by ``(state, theta)``, states keyed by identity: an ancilla Monte
    Carlo round passes the one cached ``prepare_ghz(2)`` state, so every round
    after the first reuses the attacked state.
    """
    amps = np.zeros(2 * state.amplitudes.size, dtype=complex)
    amps[0::2] = state.amplitudes  # ancilla starts in |e>
    attacked = QuantumState(amps)
    return apply_two_qubit(attacked, _controlled_rotation(theta), (2, attacked.num_qubits))


def _eigenvalues_2x2(blocks: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of Hermitian 2x2 blocks, shape (..., 2, 2) -> (..., 2).

    The larger root is (a+d)/2 + hypot((a-d)/2, |b|) and the smaller det/larger, so a
    small root keeps its relative precision and a singular block's exact zero stays
    exact; no LAPACK call is needed for a 2x2 spectrum.
    """
    a, d, b = blocks[..., 0, 0].real, blocks[..., 1, 1].real, np.abs(blocks[..., 0, 1])
    larger = (a + d) / 2 + np.hypot((a - d) / 2, b)
    smaller = np.divide(a * d - b * b, larger, out=np.zeros_like(larger), where=larger != 0.0)
    return np.stack((smaller, larger), axis=-1)


def _entropy_bits(eigenvalues: np.ndarray) -> float:
    """-sum p log2 p over the positive entries; zeros and round-off negatives add 0."""
    p = eigenvalues[eigenvalues > 0.0]
    return float(-(p * np.log2(p)).sum())


def ancilla_attack_tradeoff(theta: float) -> float:
    """Leakage side of the controlled-rotation attack family, in bits.

    The detection side is ``analytic_success`` of the ancilla model.  The
    leakage is the Holevo quantity of the ancilla states rho_k left by each
    decode key k of a message round (sub-normalized, weight w_k = Tr rho_k):
    S(sum_k rho_k) - sum_k w_k S(rho_k / w_k), where the second term is
    H(eigenvalues of every rho_k) - H(w).  It bounds what any ancilla
    measurement learns about the key (Holevo 1973), and a projective readout
    in the eigenbasis of sum_k rho_k reaches it, so it is the accessible
    information, h2(sin^2(theta/2)).  The encoding is held fixed, which by
    symmetry gives the same value for every message and captures what the
    eavesdropper learns about the parties' measurement records.
    """
    theta = PARAM_CHECKS["theta"](theta)
    evolved = bob_interaction(attach_ancilla(prepare_ghz(2), theta), (1, 2))
    rotated = basis_amplitudes(evolved, (None, None, PLUS_MINUS))  # (q1, q2, sign, anc)
    # Sub-normalized ancilla density matrix per decode key, keys in (q1, q2, sign) order.
    rhos = (rotated[..., :, None] * rotated[..., None, :].conj()).reshape(8, 2, 2)
    weights = np.real(np.trace(rhos, axis1=1, axis2=2))
    return (_entropy_bits(_eigenvalues_2x2(rhos.sum(axis=0))) + _entropy_bits(weights)
            - _entropy_bits(_eigenvalues_2x2(rhos)))


# ---------------------------------------------------------------------------
# Strategy table
# ---------------------------------------------------------------------------


@dataclass(frozen=True, kw_only=True)
class Strategy:
    """What every adversary kind declares: the ``AdversaryModel`` fields it
    takes (each checked by ``PARAM_CHECKS``) and ``report(model)``, the extra
    fields of its result row."""

    params: tuple[str, ...] = ()
    report: Callable[[AdversaryModel], dict] = lambda model: {}


@dataclass(frozen=True)
class MessageStrategy(Strategy):
    """An adversary acting on message rounds.

    ``outcomes(op, key)`` lists the equally likely results (True for a hit)
    of the adversary's own randomness, given Alice's operation and the true
    decode key.  ``exact`` averages this function over uniform messages and
    each message's ``decode_distribution``, and ``sample`` applies it to a
    simulated round, so the two share every adversary rule.
    Message strategies take no model parameters.
    """

    outcomes: Callable[[EncodingOp, DecodeKey], tuple[bool, ...]]

    def exact(self, model: AdversaryModel) -> Fraction:
        total = Fraction(0)
        for op in EncodingOp:
            for key, p in decode_distribution(op).items():
                results = self.outcomes(op, key)
                total += p * Fraction(sum(results), len(results))
        return total / len(EncodingOp)

    def sample(self, model: AdversaryModel, rng: RoundStream) -> bool:
        """One message round with a uniformly random message; True on a hit."""
        op = EncodingOp(rng.integers(4))
        pair, signs = measure_decode(_honest_post_state(2, op, 2), rng, 2)
        results = self.outcomes(op, DecodeKey(pair, signs[0]))
        return results[rng.integers(len(results))]


@dataclass(frozen=True)
class CheckAttack(Strategy):
    """An eavesdropper acting on check rounds: sampled attacked state and exact detection rate."""

    attacked_state: Callable[[AdversaryModel, RoundStream], QuantumState]
    exact: Callable[[AdversaryModel], Fraction | float]

    def sample(self, model: AdversaryModel, rng: RoundStream) -> bool:
        """One check round on the attacked state; True when it flags a violation."""
        return random_check_round(self.attacked_state(model, rng), rng, 3).violation


def _report_cheat(field: str, exclude_truth: bool) -> MessageStrategy:
    """A party replaces its ``field`` of the decode key by a uniformly random
    report (lies) or a uniformly random false one (flips); a hit is a wrong decode."""
    alphabet = PAIRS if field == "pair" else SIGNS

    @functools.cache  # 4 operations x 8 keys; Monte Carlo rounds look them up
    def outcomes(op: EncodingOp, key: DecodeKey) -> tuple[bool, ...]:
        truth = getattr(key, field)
        return tuple(
            DECODE_TABLE[replace(key, **{field: report})] != op
            for report in alphabet
            if not (exclude_truth and report == truth)
        )

    return MessageStrategy(outcomes)


def _solo_guess(field: str) -> MessageStrategy:
    """Guess the message from ``field`` of the decode key alone: the
    maximum-a-posteriori operation, ties going to the lowest bits."""

    @functools.cache
    def guess(view: str) -> EncodingOp:
        # Uniform messages: the posterior is the likelihood; max keeps the first in bits order.
        return max(EncodingOp, key=lambda op: sum(
            p for key, p in decode_distribution(op).items() if getattr(key, field) == view))

    return MessageStrategy(lambda op, key: (guess(getattr(key, field)) == op,))


STRATEGIES: dict[str, MessageStrategy | CheckAttack] = {
    "honest": MessageStrategy(lambda op, key: (DECODE_TABLE[key] != op,)),
    "charlie_lies": _report_cheat("sign", exclude_truth=False),
    "bob_lies": _report_cheat("pair", exclude_truth=False),
    "charlie_flips": _report_cheat("sign", exclude_truth=True),
    "bob_flips": _report_cheat("pair", exclude_truth=True),
    "bob_alone_guess": _solo_guess("pair"),
    "charlie_alone_guess": _solo_guess("sign"),
    "intercept_resend": CheckAttack(
        attacked_state=lambda model, rng: measure(
            prepare_ghz(2), model.target_qubit, INTERCEPT_BASES[model.intercept_basis], rng.random()
        )[1],
        exact=lambda model: intercept_resend_detection(model.target_qubit, model.intercept_basis),
        params=("target_qubit", "intercept_basis"),
    ),
    "ancilla_attack": CheckAttack(
        # The analytic value needs no information_bits; ``report`` computes it once.
        attacked_state=lambda model, rng: attach_ancilla(prepare_ghz(2), model.theta),
        exact=lambda model: check_violation_rate(attach_ancilla(prepare_ghz(2), model.theta)),
        params=("theta",),
        report=lambda model: {"information_bits": ancilla_attack_tradeoff(model.theta)},
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
    rounds: int

    @property
    def std_error(self) -> float:
        """Binomial standard error of the estimate, taken at the analytic value."""
        p = self.analytic_success
        return math.sqrt(p * (1.0 - p) / self.rounds)

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.kind,
            "target_qubit": self.model.target_qubit,
            "basis": self.model.intercept_basis,
            "theta": self.model.theta,
            "analytic_success": self.analytic_success,
            "empirical_success": self.empirical_success,
            "std_error": self.std_error,
            "rounds": self.rounds,
        }


def analytic_success(model: AdversaryModel) -> Fraction | float:
    """Exact value of what the Monte Carlo run estimates: the cheat or solo-guess
    success, or the detection rate per check round.

    A ``Fraction`` for the message kinds and intercept-resend; the ancilla
    family's Born-rule enumeration is a float.
    """
    return STRATEGIES[model.kind].exact(model)


def monte_carlo_confirm(model: AdversaryModel, rounds: int, seed: int) -> CheatReport:
    """Seeded empirical estimate of the model's success/detection frequency."""
    _check_count("rounds", rounds, MIN_ADVERSARY_ROUNDS, None)
    _check_count("seed", seed, 0, None)
    analytic = float(analytic_success(model))
    strategy = STRATEGIES[model.kind]
    hits = sum(strategy.sample(model, round_rng(seed, idx, 0)) for idx in range(rounds))
    return CheatReport(model, analytic, hits / rounds, rounds)
