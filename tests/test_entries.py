"""Every library entry ends in a result or a ``ValueError`` naming what it refused.

The property test draws, derandomized, the scalar arguments of each public constructor and
entry: values in type, out of type (``str``, ``bool``, a ``float`` where an integer is expected,
``complex``, ``list``, ``None``), on the bounds and non-finite.  Arguments that are objects of
the package (a state, a basis, a round stream, a session config, a parameter record) are built
valid by their own constructors, which the test draws as entries in their own right.  Counts
are drawn no larger than 10**3 and ``n_max`` no larger than 16, so the test runs in seconds;
the long run at the CLI's ``MAX_ROUNDS`` is a long run by design, not a stall.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghzdc.adversary import STRATEGIES, AdversaryModel, ancilla_attack_tradeoff, monte_carlo_confirm
from ghzdc.cavity import (
    CANONICAL_PULSE,
    CavityParams,
    FockSpace,
    PulseParams,
    TruncationWarning,
    validate_effective_model,
)
from ghzdc.protocol import (
    PAIRS,
    SIGNS,
    EncodingOp,
    SessionConfig,
    bob_interaction,
    decode,
    decode_table,
    encode,
    parity_accept_set,
    prepare_ghz,
    random_check_round,
    round_rng,
    run_rounds,
    run_session,
    security_check_round,
    timing_error_fidelity,
)
from ghzdc.qstate import COMPUTATIONAL, PLUS_MINUS, Y_BASIS, apply_two_qubit, collapse, measure

GHZ = prepare_ghz(2)
CONFIG = SessionConfig(rng_seed=1, p_check=0.0, n_users=2, receiver="bob")
CAVITY = CavityParams.from_ratios(40, 20)

# Out of type for a count, a rate or a name, and on the edges of each.  No huge integer: a
# count with no upper end (rounds) would run that many rounds.
ODD = st.sampled_from([
    "x", "2", "0.3", True, False, 2.0, 2.5, -0.0, 1j, 2 + 0j, [2], [0.3], None,
    math.nan, math.inf, -math.inf, 1e308, -1, 0, np.int64(2), np.float64(0.5),
])
REAL = st.one_of(st.floats(-2.0, 2.0), st.floats(allow_nan=True, allow_infinity=True),
                st.just(10**400), ODD)  # an int beyond float range


def count(low: int, high: int) -> st.SearchStrategy:
    """Integers from two below ``low`` to two above ``high`` (at most 10**3), or an odd value."""
    return st.one_of(st.integers(low - 2, min(high + 2, 10**3)), ODD)


SEED = st.one_of(count(0, 10**3), st.just(2**70))  # a seed or an index costs no more when huge
BASIS = st.sampled_from([COMPUTATIONAL, PLUS_MINUS, Y_BASIS])
ROUND_STREAM = st.builds(round_rng, st.integers(0, 10), st.integers(0, 10), st.integers(0, 1))


def labels(alphabet: str) -> st.SearchStrategy:
    """A sequence of up to five labels, some out of ``alphabet``, as a list or a string, or an odd value."""
    entry = st.one_of(st.sampled_from(list(alphabet)), st.sampled_from(["Z", "", "+-"]), ODD)
    return st.one_of(st.lists(entry, max_size=5), st.text(alphabet + "Z", max_size=5), ODD)


# Entry -> (callable, one strategy per positional argument).
ENTRIES = {
    "SessionConfig": (SessionConfig, (SEED, REAL, count(2, 11), st.one_of(
        st.sampled_from(["alice", "bob", "charlie"]), ODD))),
    "run_session": (run_session, (
        st.builds(SessionConfig, st.integers(0, 10), st.sampled_from([0.0, 0.3, 1.0])),
        count(0, 3), SEED)),
    "run_rounds": (run_rounds, (
        st.builds(SessionConfig, st.integers(0, 10), st.sampled_from([0.0, 0.3]), st.integers(2, 3)),
        count(1, 10**3), st.one_of(st.none(), count(0, 3)))),
    "round_rng.integers": (lambda seed, index, stream, k: round_rng(seed, index, stream).integers(k),
                           (SEED, SEED, count(0, 1), st.one_of(count(1, 10), st.sampled_from(
                               [2**32 - 1, 2**32, 2**32 + 1])))),
    "prepare_ghz": (prepare_ghz, (count(2, 11),)),
    "decode_table": (decode_table, (count(2, 11),)),
    "parity_accept_set": (parity_accept_set, (count(3, 12),)),
    "timing_error_fidelity": (timing_error_fidelity, (REAL,)),
    # Each field is often None, as a kind that does not take it requires.
    "AdversaryModel": (AdversaryModel, (
        st.one_of(st.sampled_from(sorted(STRATEGIES)), ODD), st.one_of(st.none(), count(2, 3)),
        st.one_of(st.none(), st.sampled_from(["computational", "x", "y", "z"]), ODD),
        st.one_of(st.none(), st.floats(-0.1, 1.7), REAL))),
    "ancilla_attack_tradeoff": (ancilla_attack_tradeoff, (st.one_of(st.floats(-0.1, 1.7), REAL),)),
    "monte_carlo_confirm": (monte_carlo_confirm, (
        st.sampled_from([AdversaryModel("honest"), AdversaryModel("bob_lies"),
                         AdversaryModel("intercept_resend", 3, "y"),
                         AdversaryModel("ancilla_attack", theta=0.5)]),
        count(100, 10**3), SEED)),
    "CavityParams": (CavityParams, (REAL, REAL, REAL)),
    "CavityParams.from_ratios": (CavityParams.from_ratios, (REAL, REAL)),
    "PulseParams": (PulseParams, (REAL, REAL)),
    "FockSpace": (FockSpace, (st.one_of(count(1, 16), st.just(401)),)),
    "validate_effective_model": (validate_effective_model, (
        st.builds(CavityParams.from_ratios, st.floats(1.0, 100.0), st.floats(0.0, 30.0)),
        st.builds(FockSpace, st.integers(1, 16)),
        st.builds(PulseParams, st.floats(0.0, 2.0), st.floats(0.0, 4.0)),
        st.one_of(count(0, 16), st.lists(REAL, max_size=4)))),
    "decode": (decode, (st.one_of(st.sampled_from(PAIRS), ODD), labels("+-"))),
    "encode": (encode, (st.just(GHZ), st.one_of(st.sampled_from(EncodingOp), ODD))),
    "bob_interaction": (bob_interaction, (
        st.just(GHZ), st.one_of(st.tuples(count(1, 3), count(1, 3)), st.lists(count(1, 3)), ODD))),
    "random_check_round": (random_check_round, (st.just(GHZ), ROUND_STREAM, count(3, 3))),
    "security_check_round": (security_check_round, (
        st.just(GHZ), labels("XY"), st.one_of(st.lists(REAL, max_size=4), ODD))),
    "measure": (measure, (st.just(GHZ), count(1, 3), BASIS, REAL)),
    "collapse": (collapse, (st.just(GHZ), count(1, 3), BASIS, count(0, 1))),
}

# Count fields a returned record stores as a plain int, for the entries that build records.
INT_FIELDS = {
    "SessionConfig": lambda r: (r.rng_seed, r.n_users),
    "FockSpace": lambda r: (r.n_max,),
    "AdversaryModel": lambda r: (r.target_qubit,) if "target_qubit" in STRATEGIES[r.kind].params else (),
    "run_session": lambda r: (r.round_index, r.message_bits) if r.message_bits is not None else (),
}


@st.composite
def entry_calls(draw):
    name = draw(st.sampled_from(sorted(ENTRIES)))
    return name, tuple(draw(arg) for arg in ENTRIES[name][1])


class TestEntryProperty:
    @settings(derandomize=True, max_examples=1000, deadline=None, database=None)
    @given(case=entry_calls())
    @example(("FockSpace", (True,)))
    @example(("validate_effective_model", (CAVITY, FockSpace(8), CANONICAL_PULSE, True)))
    @example(("measure", (GHZ, 2.0, COMPUTATIONAL, 0.5)))
    @example(("collapse", (GHZ, 1.0, COMPUTATIONAL, 0)))
    @example(("collapse", (GHZ, 1, COMPUTATIONAL, 1.0)))
    @example(("round_rng.integers", (1, 0, 0, 2.5)))
    @example(("round_rng.integers", (1.5, 0, 0, 2)))
    @example(("run_session", (CONFIG, None, 1.5)))
    @example(("AdversaryModel", ("intercept_resend", 2.0, "x", None)))
    @example(("AdversaryModel", ("intercept_resend", np.int64(2), "x", None)))
    @example(("AdversaryModel", ("ancilla_attack", None, None, "0.3")))
    @example(("AdversaryModel", ("ancilla_attack", None, None, 1j)))
    @example(("AdversaryModel", ("ancilla_attack", None, None, [0.3])))
    @example(("CavityParams", (10**400, 1.0, 1.0)))
    @example(("PulseParams", (10**400, 0.0)))
    @example(("CavityParams.from_ratios", (10**400, 20)))
    @example(("prepare_ghz", ([2],)))
    @example(("decode", ("ee", 5)))
    @example(("encode", (GHZ, 1)))
    @example(("random_check_round", (GHZ, round_rng(1, 0, 0), 2.5)))
    @example(("bob_interaction", (GHZ, 5)))
    @example(("security_check_round", (GHZ, "XXY", 0.5)))
    @example(("security_check_round", (GHZ, [[2], "X", "Y"], [0.1, 0.2, 0.3])))
    def test_result_or_value_error(self, case):
        name, args = case
        entry, _ = ENTRIES[name]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", TruncationWarning)  # small n_max truncates by design
                result = entry(*args)
        except ValueError:
            return
        if name == "validate_effective_model":
            assert 0.0 <= result <= 1.0, (args, result)
        for value in INT_FIELDS.get(name, lambda r: ())(result):
            assert type(value) is int, (args, value)


REFUSED = {
    "measure-qubit-2.0": (lambda: measure(GHZ, 2.0, COMPUTATIONAL, 0.5), "qubit"),
    "measure-qubit-1.0": (lambda: measure(GHZ, 1.0, COMPUTATIONAL, 0.5), "qubit"),
    "collapse-qubit-2.0": (lambda: collapse(GHZ, 2.0, COMPUTATIONAL, 0), "qubit"),
    "two-qubit-2.0": (lambda: apply_two_qubit(GHZ, np.eye(4), (1, 2.0)), "qubit"),
    "collapse-result-1.0": (lambda: collapse(GHZ, 1, COMPUTATIONAL, 1.0), "result"),
    "integers-2.5": (lambda: round_rng(1, 0, 0).integers(2.5), "k"),
    "round-rng-seed-1.5": (lambda: round_rng(1.5, 0, 0), "seed"),
    "run-session-index-1.5": (lambda: run_session(CONFIG, None, 1.5), "round_index"),
    "target-qubit-2.0": (lambda: AdversaryModel("intercept_resend", target_qubit=2.0,
                                                intercept_basis="x"), "target_qubit"),
    "fock-index-9": (lambda: validate_effective_model(CAVITY, FockSpace(8), CANONICAL_PULSE, 9),
                     "initial_cavity"),
    "message-bits-1.0": (lambda: run_session(CONFIG, 1.0, 0), "message_bits"),
    "check-round-parties-2.5": (lambda: random_check_round(GHZ, round_rng(1, 0, 0), 2.5), "n_parties"),
}

# A value of the wrong type or shape, and the name its refusal gives.
MISSHAPEN = {
    "decode-signs-5": (lambda: decode("ee", 5), "signs"),
    "decode-signs-unhashable": (lambda: decode("ee", [["+"]]), "signs"),
    "encode-op-1": (lambda: encode(GHZ, 1), "op"),
    "bob-interaction-qubits-5": (lambda: bob_interaction(GHZ, 5), "qubits"),
    "check-round-rands-0.5": (lambda: security_check_round(GHZ, "XXY", 0.5), "rands"),
    "check-round-bases-none": (lambda: security_check_round(GHZ, None, [0.1, 0.2, 0.3]), "bases"),
}


class TestOneIntegerRule:
    """Each integer parameter goes through ``ghzdc._check_count``: a float, a string or a value
    out of range raises ``ValueError`` in the rule's form, and a bool counts as its int."""

    @pytest.mark.parametrize("call,name", REFUSED.values(), ids=REFUSED.keys())
    def test_refused_naming_the_parameter(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} must be "):
            call()

    @pytest.mark.parametrize("theta", ["0.3", 1j, [0.3], None, math.nan])
    def test_theta_must_be_a_real_number(self, theta):
        with pytest.raises(ValueError, match=r"^theta must lie in \[0, pi/2\]"):
            AdversaryModel("ancilla_attack", theta=theta)

    @pytest.mark.parametrize("index", [False, True])
    def test_bool_fock_index_is_its_int(self, index):
        with warnings.catch_warnings():
            warnings.simplefilter("error", TruncationWarning)
            args = (CAVITY, FockSpace(8), CANONICAL_PULSE)
            assert validate_effective_model(*args, index) == validate_effective_model(*args, int(index))

    def test_bool_count_is_its_int(self):
        assert FockSpace(True) == FockSpace(1)
        assert type(FockSpace(True).n_max) is int
        assert round_rng(True, 0, 0).integers(2) == round_rng(1, 0, 0).integers(2)

    def test_numpy_counts_are_stored_as_int(self):
        assert type(FockSpace(np.int64(8)).n_max) is int
        model = AdversaryModel("intercept_resend", target_qubit=np.int64(2), intercept_basis="x")
        assert type(model.target_qubit) is int
        assert type(run_session(CONFIG, np.int64(3), np.int64(0)).message_bits) is int

    def test_numpy_count_shares_the_cached_state(self):
        assert prepare_ghz(np.int64(2)) is prepare_ghz(2)
        assert parity_accept_set(np.int64(3)) is parity_accept_set(3)
        with pytest.raises(ValueError, match="^n_users must be an integer"):
            prepare_ghz(2.0)  # not a cache hit on 2, whatever the cache holds
        with pytest.raises(ValueError, match="^n_parties must be an integer"):
            parity_accept_set([3])


class TestShapeRules:
    """A sequence, pair or operation of the wrong type or shape raises ``ValueError`` naming it."""

    @pytest.mark.parametrize("call,name", MISSHAPEN.values(), ids=MISSHAPEN.keys())
    def test_misshapen_value_refused_naming_it(self, call, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            call()
