"""Distributed-memory simulation of RECEIPT CD (paper Sec. 7 extension)."""

from .simulation import DistributedCdReport, partition_vertices, simulate_distributed_cd

__all__ = [
    "DistributedCdReport",
    "partition_vertices",
    "simulate_distributed_cd",
]
