"""Secure dense coding over tripartite GHZ states in cavity QED: exact simulator and verification toolkit."""

import os

# The cavity layer's eigensolves are a few hundred dimensions at most, where
# OpenBLAS worker threads cost more than they save.  Default to one thread,
# before numpy is first imported, unless the user chose a thread count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

from .cavity import (
    CANONICAL_PULSE,
    CavityParams,
    FockSpace,
    PulseParams,
    TruncationWarning,
    effective_unitary,
    full_hamiltonian,
    validate_effective_model,
)
from .adversary import (
    AdversaryModel,
    AncillaTradeoff,
    CheatReport,
    ancilla_attack_tradeoff,
    cheat_success,
    check_violation_rate,
    intercept_resend_detection,
    monte_carlo_confirm,
    solo_guess_probability,
)
from .protocol import (
    DecodeKey,
    EncodingOp,
    Role,
    SessionConfig,
    SessionRecord,
    bob_interaction,
    decode,
    decode_table,
    encode,
    parity_accept_set,
    prepare_ghz,
    run_rounds,
    run_session,
    security_check_round,
    timing_error_fidelity,
)
from .qstate import (
    COMPUTATIONAL,
    PLUS_MINUS,
    Y_BASIS,
    MeasurementBasis,
    MeasurementOutcome,
    QuantumState,
    apply_gate,
    apply_two_qubit,
    fidelity,
    global_phase_equal,
    measure,
    outcome_distribution,
)
