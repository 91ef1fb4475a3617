"""Secure dense coding over tripartite GHZ states in cavity QED: exact simulator and verification toolkit.

Importing the package loads no submodule; import each from ``ghzdc.<module>``.
"""

import operator
import os

# The cavity layer's eigensolves are a few hundred dimensions at most, where
# OpenBLAS worker threads cost more than they save.  Default to one thread,
# before numpy is first imported, unless the user chose a thread count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"

# The intercept-resend bases by name: ``adversary`` maps each to its basis, and the CLI's
# --intercept-basis takes them without importing ``adversary``.
INTERCEPT_BASIS_NAMES = ("computational", "x", "y")

# Bounds that the library checks and the CLI's flags state in their own words: the most
# users a session holds (its state vector has 2^(n+1) amplitudes), and the fewest adversary
# Monte Carlo rounds that give a meaningful estimate.
MAX_USERS = 11
MIN_ADVERSARY_ROUNDS = 100


def _check_count(name: str, value, low: int, high: int | None) -> int:
    """The integer rule of every library entry: ``value`` as a plain ``int`` in low..high (no
    upper end when None), so a numpy integer keys the caches as its ``int`` does and a ``bool``
    counts as its ``int``.  Anything else raises ``ValueError`` naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < low or high is not None and value > high:
        bound = f">= {low}" if high is None else f"{low}..{high}"
        raise ValueError(f"{name} must be {bound}, got {value}")
    return value
