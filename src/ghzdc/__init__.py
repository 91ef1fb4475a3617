"""Secure dense coding over tripartite GHZ states in cavity QED: exact simulator and verification toolkit.

Importing the package loads no submodule; import each from ``ghzdc.<module>``.
"""

import os

# The cavity layer's eigensolves are a few hundred dimensions at most, where
# OpenBLAS worker threads cost more than they save.  Default to one thread,
# before numpy is first imported, unless the user chose a thread count.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
