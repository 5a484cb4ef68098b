"""FAST: FPGA-based subgraph matching on massive graphs - reproduction.

This package reproduces the full system of the ICDE 2021 paper
*FAST: FPGA-based Subgraph Matching on Massive Graphs* (Jin, Yang, Lin,
Yang, Qin, Peng) on a cycle-approximate simulated FPGA:

* :mod:`repro.graph` - CSR labelled-graph substrate and generators;
* :mod:`repro.ldbc` - an LDBC-SNB-like benchmark generator, the DGx
  dataset registry, and the q0-q8 query set;
* :mod:`repro.query` - query validation, BFS spanning trees, matching
  orders (path-based, CFL/DAF/CECI-style, random connected);
* :mod:`repro.cst` - the candidate search tree: construction
  (Algorithm 1), partitioning (Algorithm 2), workload estimation;
* :mod:`repro.fpga` - the simulated device and the FAST kernel
  (Algorithms 4-8) in its DRAM/BASIC/TASK/SEP variants;
* :mod:`repro.host` - the host-side scheduler (Algorithm 3), the CPU
  matcher, and the end-to-end :class:`~repro.host.runtime.FastRunner`;
* :mod:`repro.baselines` - CFL-Match, DAF, CECI (1/8 threads), GpSM
  and GSI, instrumented for the modeled-time comparison;
* :mod:`repro.runtime` - the staged execution pipeline (plan, build
  CST, partition, schedule, execute, merge), the :class:`RunContext`
  carrying config plus per-stage metrics, and the
  :class:`BackendRegistry` every entry point dispatches through;
* :mod:`repro.experiments` - drivers regenerating every table and
  figure of the paper's evaluation.

Quickstart::

    from repro import FastRunner, load_dataset, get_query

    dataset = load_dataset("DG-MINI")
    query = get_query("q1")
    result = FastRunner().run(query.graph, dataset.graph)
    print(result.embeddings, result.total_seconds)
"""

from repro.baselines import (
    Ceci,
    CflMatch,
    Daf,
    GpSM,
    Gsi,
    ParallelCeci,
    ParallelDaf,
    count_reference_embeddings,
    reference_embeddings,
)
from repro.cst import (
    CST,
    PartitionLimits,
    PartitionSet,
    build_cst,
    estimate_workload,
    partition_to_list,
    refine_cst,
)
from repro.fpga import FastEngine, FpgaConfig, KernelReport
from repro.graph import Graph, GraphBuilder
from repro.host import (
    FastRunner,
    FastRunResult,
    MultiFpgaRunner,
    WorkloadScheduler,
)
from repro.ldbc import (
    Label,
    LdbcGenerator,
    all_queries,
    get_query,
    load_dataset,
    load_scale,
)
from repro.query import (
    QueryGraph,
    build_bfs_tree,
    choose_root,
    path_based_order,
    sample_queries,
    sample_query,
)
from repro.runtime import (
    REGISTRY,
    BackendRegistry,
    BackendSpec,
    FaultPlan,
    HealthReport,
    RetryPolicy,
    RunContext,
    RunMetrics,
    RunOutcome,
    StageCache,
)

__version__ = "1.0.0"

__all__ = [
    "CST",
    "Ceci",
    "CflMatch",
    "Daf",
    "BackendRegistry",
    "BackendSpec",
    "FastEngine",
    "FastRunResult",
    "FastRunner",
    "FaultPlan",
    "FpgaConfig",
    "GpSM",
    "Graph",
    "GraphBuilder",
    "Gsi",
    "HealthReport",
    "KernelReport",
    "Label",
    "LdbcGenerator",
    "MultiFpgaRunner",
    "ParallelCeci",
    "ParallelDaf",
    "PartitionLimits",
    "PartitionSet",
    "QueryGraph",
    "REGISTRY",
    "RetryPolicy",
    "RunContext",
    "RunMetrics",
    "RunOutcome",
    "StageCache",
    "WorkloadScheduler",
    "__version__",
    "all_queries",
    "build_bfs_tree",
    "build_cst",
    "choose_root",
    "count_reference_embeddings",
    "estimate_workload",
    "get_query",
    "load_dataset",
    "load_scale",
    "partition_to_list",
    "path_based_order",
    "reference_embeddings",
    "refine_cst",
    "sample_queries",
    "sample_query",
]
