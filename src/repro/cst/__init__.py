"""Candidate search tree: structure, construction, partitioning, workload."""

from repro.cst.builder import build_cst
from repro.cst.partition import (
    DEFAULT_MAX_PARTITIONS,
    PartitionLimits,
    PartitionSet,
    PartitionStats,
    partition_cst,
    partition_to_list,
)
from repro.cst.refine import refine_cst
from repro.cst.stats import CSTSummary, PartitionSetSummary
from repro.cst.structure import CST, ENTRY_BYTES, CandidateAdjacency
from repro.cst.workload import (
    candidate_weights,
    estimate_workload,
    exact_tree_embeddings,
)

__all__ = [
    "CST",
    "CSTSummary",
    "CandidateAdjacency",
    "DEFAULT_MAX_PARTITIONS",
    "ENTRY_BYTES",
    "PartitionLimits",
    "PartitionSet",
    "PartitionSetSummary",
    "PartitionStats",
    "build_cst",
    "candidate_weights",
    "estimate_workload",
    "exact_tree_embeddings",
    "partition_cst",
    "partition_to_list",
    "refine_cst",
]
