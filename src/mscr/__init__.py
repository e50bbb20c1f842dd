"""Minimum-storage cooperative regenerating MDS array code.

Systematic encoder and any-k decoder for the parity-check-defined array code,
two-phase cooperative repair of h simultaneous failures at the cut-set
bandwidth bound, and exact repair-bandwidth / disk-access accounting.
"""

from .code import (
    CodeParams,
    InconsistentCodewordError,
    encode,
    erase_decode,
    parity_residual,
    validate_params,
)
from .field import SingularMatrixError
from .metrics import (
    Bounds,
    RepairMetrics,
    access_count,
    access_set,
    bounds,
    comparison_table,
    g_ratio,
)
from .oracle import naive_repair, recount
from .repair import (
    RepairJob,
    RepairTranscript,
    run_repair,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "CodeParams",
    "InconsistentCodewordError",
    "RepairJob",
    "RepairMetrics",
    "RepairTranscript",
    "SingularMatrixError",
    "access_count",
    "access_set",
    "bounds",
    "comparison_table",
    "encode",
    "erase_decode",
    "g_ratio",
    "naive_repair",
    "parity_residual",
    "recount",
    "run_repair",
    "validate_params",
]
