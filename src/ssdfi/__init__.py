"""Monte Carlo fault injection for SSD arrays under parity based codes."""
from .codes import (
    ErasureCode,
    UpdatePenalty,
    encode_xor_count,
    erf,
    uncorrectable,
    update_penalty,
)
from .engine import (
    DataLossRecord,
    SimResult,
    run_simulation,
)
from .geometry import ArrayGeometry
from .pool import PooledSsd, SsdPool, generate_pool, validate_pool
from .profiles import (
    MISSION_HOURS,
    RberCurve,
    SsdModelProfile,
    default_profiles,
    load_profiles,
    profile_by_name,
)
from .reporting import (
    AggregateReport,
    aggregate_results,
    emit_report,
)
from .workload import (
    SynthWorkloadParams,
    UsageLog,
    dense_arrays,
    parse_usage_log,
    synthesize_usage_log,
    write_usage_log,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateReport",
    "ArrayGeometry",
    "DataLossRecord",
    "ErasureCode",
    "MISSION_HOURS",
    "PooledSsd",
    "RberCurve",
    "SimResult",
    "SsdModelProfile",
    "SsdPool",
    "SynthWorkloadParams",
    "UpdatePenalty",
    "UsageLog",
    "aggregate_results",
    "default_profiles",
    "dense_arrays",
    "emit_report",
    "encode_xor_count",
    "erf",
    "generate_pool",
    "load_profiles",
    "parse_usage_log",
    "profile_by_name",
    "run_simulation",
    "synthesize_usage_log",
    "uncorrectable",
    "update_penalty",
    "validate_pool",
    "write_usage_log",
]
