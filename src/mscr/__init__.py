"""Minimum-storage cooperative regenerating MDS array code.

Systematic encoder and any-k decoder for the parity-check-defined array code,
two-phase cooperative repair of h simultaneous failures at the cut-set
bandwidth bound, and exact repair-bandwidth / disk-access accounting.
"""

from .code import (
    Codeword,
    CodeParams,
    InconsistentCodewordError,
    NodeVector,
    encode,
    erase_decode,
    make_node_vector,
    parity_residual,
    random_message,
    reconstruct,
    validate_params,
)
from .field import FieldContext, SingularMatrixError
from .metrics import (
    AccessLog,
    Bounds,
    RepairMetrics,
    access_count,
    access_set,
    bounds,
    comparison_table,
    g_ratio,
)
from .oracle import OracleReport, cross_check, naive_repair, recount
from .repair import (
    FailedNodeState,
    HelperNode,
    RepairJob,
    RepairMessage,
    RepairTranscript,
    helper_payload,
    recover_own_plane,
    recover_pairs,
    run_repair,
)

__version__ = "0.1.0"

__all__ = [
    "AccessLog",
    "Bounds",
    "CodeParams",
    "Codeword",
    "FailedNodeState",
    "FieldContext",
    "HelperNode",
    "InconsistentCodewordError",
    "NodeVector",
    "OracleReport",
    "RepairJob",
    "RepairMessage",
    "RepairMetrics",
    "RepairTranscript",
    "SingularMatrixError",
    "access_count",
    "access_set",
    "bounds",
    "comparison_table",
    "cross_check",
    "encode",
    "erase_decode",
    "g_ratio",
    "helper_payload",
    "make_node_vector",
    "naive_repair",
    "parity_residual",
    "random_message",
    "reconstruct",
    "recount",
    "recover_own_plane",
    "recover_pairs",
    "run_repair",
    "validate_params",
]
