"""Workload estimation for a CST (Section V-C).

The scheduler needs to know how much matching work a CST represents.
The paper estimates it as the number of embeddings of the *spanning
tree* inside the CST (ignoring non-tree false positives), computed by a
bottom-up dynamic program::

    c_u(v) = prod over children u' of ( sum over v' in N^u_u'(v) c_u'(v') )
    W_CST  = sum over root candidates v of c_root(v)

Leaf candidates have ``c = 1``. The estimate upper-bounds the true
embedding count (every real embedding is also a tree embedding) and is
exact for tree queries.
"""

from __future__ import annotations

import numpy as np

from repro.cst.structure import CST


def candidate_weights(cst: CST) -> list[np.ndarray]:
    """Per-candidate tree-embedding counts ``c_u(v)`` as ``float64``.

    Float arithmetic avoids overflow on large search spaces; the
    scheduler only needs relative magnitudes. Use
    :func:`exact_tree_embeddings` when an exact integer is required.
    """
    tree = cst.tree
    weights: list[np.ndarray] = [
        np.ones(len(c), dtype=np.float64) for c in cst.candidates
    ]
    for u in reversed(tree.bfs_order):
        for u_c in tree.children[u]:
            adj = cst.adjacency[(u, u_c)]
            weights[u] *= row_sums(adj.indptr, adj.targets, weights[u_c])
    return weights


def estimate_workload(cst: CST) -> float:
    """``W_CST``: estimated number of tree embeddings in the CST."""
    if cst.is_empty():
        return 0.0
    weights = candidate_weights(cst)
    return float(segment_sums(weights[cst.tree.root], [0])[0])


def exact_tree_embeddings(cst: CST) -> int:
    """Exact integer tree-embedding count (Python big ints).

    Slower than :func:`estimate_workload`; used by tests to validate
    the DP and by reports that need exact counts.
    """
    tree = cst.tree
    weights: list[list[int]] = [[1] * len(c) for c in cst.candidates]
    for u in reversed(tree.bfs_order):
        for u_c in tree.children[u]:
            adj = cst.adjacency[(u, u_c)]
            child_w = weights[u_c]
            for i in range(adj.num_rows):
                total = 0
                for j in adj.row(i):
                    total += child_w[int(j)]
                weights[u][i] *= total
    return sum(weights[tree.root])


def row_sums(
    indptr: np.ndarray, targets: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Per-row sums of ``values[targets]`` for a CSR layout."""
    sums = np.zeros(len(indptr) - 1, dtype=np.float64)
    full = np.flatnonzero(np.diff(indptr))
    sums[full] = segment_sums(values[targets], indptr[full])
    return sums


def segment_sums(
    values: np.ndarray, starts: np.ndarray | list[int]
) -> np.ndarray:
    """Sums of ``values`` over the non-empty segments that begin at the
    increasing ``starts`` (the last one runs to the end).

    Every sum of the workload DP goes through here, in
    :func:`estimate_workload` and in Algorithm 2's batched DP over many
    CSTs at once. ``np.add.reduceat`` sums a segment in an order fixed
    by its length alone, so a sum does not depend on where its segment
    lies: one CST's workload is the same bit for bit either way.
    """
    if len(starts) == 0:
        return np.zeros(0, dtype=np.float64)
    return np.add.reduceat(values, starts)
