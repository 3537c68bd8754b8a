"""Simulated distributed-memory runtime.

This subpackage substitutes for MPI + Trilinos/Epetra (see DESIGN.md): p
logical ranks hold real local CSR blocks, SpMV executes the paper's four
phases (expand, local compute, fold, sum) with genuine data movement, and
an alpha-beta-gamma machine model converts the exact communication
structure into modeled wall-clock time. Communication metrics (max
messages, volumes, imbalance) are exact, machine-independent quantities.
"""

from .machine import MachineModel, CAB, HOPPER, ZERO_COMM, MACHINES
from .maps import Map
from .plan import CommPlan
from .trace import CostLedger, SPMV_PHASES
from .distmatrix import DistSparseMatrix
from .distvector import DistVectorSpace
from .engine import SpmvEngine
from .threads import ApplyPlan, balanced_row_splits
from .store import (
    ARTIFACT_SCHEMA,
    EngineKey,
    EngineStore,
    LoadedEngine,
    StoreVerifyError,
    default_store_dir,
    matrix_hash,
)
from .metrics import CommStats, comm_stats, recovery_peers, max_recovery_peers
from .collectives import COLLECTIVE_ALGORITHMS, phase_time
from .migration import MigrationStats, migration_stats

__all__ = [
    "MachineModel",
    "CAB",
    "HOPPER",
    "ZERO_COMM",
    "MACHINES",
    "Map",
    "CommPlan",
    "CostLedger",
    "SPMV_PHASES",
    "DistSparseMatrix",
    "DistVectorSpace",
    "SpmvEngine",
    "ApplyPlan",
    "balanced_row_splits",
    "ARTIFACT_SCHEMA",
    "EngineKey",
    "EngineStore",
    "LoadedEngine",
    "StoreVerifyError",
    "default_store_dir",
    "matrix_hash",
    "CommStats",
    "comm_stats",
    "recovery_peers",
    "max_recovery_peers",
    "COLLECTIVE_ALGORITHMS",
    "phase_time",
    "MigrationStats",
    "migration_stats",
]
