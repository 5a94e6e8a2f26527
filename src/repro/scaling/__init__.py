"""Multi-core and multi-machine scaling substrates (Section 8.6 of the paper)."""

from repro.scaling.cluster import CLUSTER_THREADS, ClusterConfig, ClusterModel
from repro.scaling.multicore import (
    ENGINE_PROFILES,
    M5A_8XLARGE_CORES,
    M5A_8XLARGE_MEMORY_BYTES,
    EngineScalingProfile,
    ScalingModel,
    ScalingPoint,
    ScalingResult,
    measure_single_worker_throughput,
    run_data_parallel,
)

__all__ = [
    "ScalingPoint",
    "ScalingResult",
    "ScalingModel",
    "EngineScalingProfile",
    "ENGINE_PROFILES",
    "run_data_parallel",
    "measure_single_worker_throughput",
    "ClusterModel",
    "ClusterConfig",
    "CLUSTER_THREADS",
    "M5A_8XLARGE_CORES",
    "M5A_8XLARGE_MEMORY_BYTES",
]
