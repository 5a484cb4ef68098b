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
    return float(weights[cst.tree.root].sum())


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
    n = len(indptr) - 1
    if len(targets) == 0:
        return np.zeros(n, dtype=np.float64)
    prefix = np.zeros(len(targets) + 1, dtype=np.float64)
    np.cumsum(values[targets], out=prefix[1:])
    return prefix[indptr[1:]] - prefix[indptr[:-1]]
