"""Shared utilities: errors, deterministic RNG, text tables."""

from repro.common.errors import (
    BufferOverflowError,
    CSTError,
    DeviceError,
    ExperimentError,
    GraphError,
    JournalError,
    JournalMismatchError,
    JournalVersionError,
    ModeledOutOfMemory,
    ModeledOverflow,
    ModeledTimeout,
    PartitionError,
    QueryError,
    ReproError,
    ResourceExhausted,
    SchedulerError,
)
from repro.common.io import atomic_write_json, fsync_append, read_jsonl
from repro.common.rng import DEFAULT_SEED, derive_seed, make_rng
from repro.common.tables import format_value, render_kv, render_table

__all__ = [
    "BufferOverflowError",
    "CSTError",
    "DEFAULT_SEED",
    "DeviceError",
    "ExperimentError",
    "GraphError",
    "JournalError",
    "JournalMismatchError",
    "JournalVersionError",
    "ModeledOutOfMemory",
    "ModeledOverflow",
    "ModeledTimeout",
    "PartitionError",
    "QueryError",
    "ReproError",
    "ResourceExhausted",
    "SchedulerError",
    "atomic_write_json",
    "derive_seed",
    "format_value",
    "fsync_append",
    "make_rng",
    "read_jsonl",
    "render_kv",
    "render_table",
]
