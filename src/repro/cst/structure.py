"""The candidate search tree (CST) data structure.

Definition 2 of the paper: a CST is a graph isomorphic to the query in
which every query vertex ``u`` carries a candidate set ``C(u)`` and two
candidates ``v in C(u)``, ``v' in C(u')`` are connected iff ``(u, u')``
is a query edge and ``(v, v')`` is a data edge. Because *all* query
edges are materialised (including the non-tree edges a CPI would drop),
a CST is a complete, self-contained search space: matching needs no
access to the data graph, which is what lets partitions be solved
independently inside FPGA BRAM.

Representation
--------------
``candidates[u]`` is a sorted ``int64`` array of data-vertex ids. For
every *directed* query edge ``(a, b)`` an adjacency
:class:`CandidateAdjacency` stores, per candidate index ``i`` of ``a``,
the *positions* (indices into ``candidates[b]``) of its CST neighbours.
Position-indexing keeps partitioning and edge checks O(log d) without
repeated id lookups, and mirrors how an FPGA implementation would store
BRAM-local offsets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import CSTError
from repro.query.query_graph import QueryGraph
from repro.query.spanning_tree import SpanningTree

#: Modeled bytes per stored id/offset. FPGA implementations use 32-bit
#: vertex ids; the size threshold delta_S is interpreted in these units.
ENTRY_BYTES = 4


class CandidateAdjacency:
    """CSR adjacency between two candidate sets (one edge direction).

    ``row(i)`` lists, sorted ascending, the positions in the target
    candidate set adjacent to source candidate index ``i``.
    """

    __slots__ = ("indptr", "targets", "_keys", "_stride", "_row_lens")

    def __init__(self, indptr: np.ndarray, targets: np.ndarray) -> None:
        # Contiguous arrays keep the kernel's batched gathers on the
        # fast numpy path even when callers hand in strided views.
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.targets = np.ascontiguousarray(targets, dtype=np.int64)
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.targets):
            raise CSTError("adjacency indptr does not cover targets")
        self._keys: np.ndarray | None = None
        self._stride: int = 0
        self._row_lens: np.ndarray | None = None

    @classmethod
    def from_rows(cls, rows: list[np.ndarray]) -> "CandidateAdjacency":
        """Build from per-source-position target arrays."""
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        for i, row in enumerate(rows):
            indptr[i + 1] = indptr[i] + len(row)
        targets = (
            np.concatenate(rows) if rows else np.empty(0, dtype=np.int64)
        )
        return cls(indptr, np.asarray(targets, dtype=np.int64))

    @property
    def num_rows(self) -> int:
        return len(self.indptr) - 1

    def row(self, i: int) -> np.ndarray:
        """Target positions adjacent to source position ``i``."""
        return self.targets[self.indptr[i]: self.indptr[i + 1]]

    def row_len(self, i: int) -> int:
        return int(self.indptr[i + 1] - self.indptr[i])

    def row_lens_array(self) -> np.ndarray:
        """All row lengths (``np.diff(indptr)``), built once and cached.

        The Generator gathers row lengths for a whole batch of partials
        every round; one cached diff turns that into a single fancy-
        index gather. Lazy like ``_keys`` (benign to race under the
        GIL: both winners compute identical arrays).
        """
        if self._row_lens is None:
            self._row_lens = np.diff(self.indptr)
        return self._row_lens

    def contains(self, i: int, j: int) -> bool:
        """Whether target position ``j`` is adjacent to source ``i``."""
        lo, hi = self.indptr[i], self.indptr[i + 1]
        pos = int(np.searchsorted(self.targets[lo:hi], j))
        return pos < hi - lo and int(self.targets[lo + pos]) == j

    def contains_batch(
        self, src_positions: np.ndarray, dst_positions: np.ndarray
    ) -> np.ndarray:
        """Vectorised :meth:`contains` over parallel position arrays.

        Encodes each stored (row, target) pair as ``row * stride +
        target`` - globally sorted because rows are sorted and targets
        ascend within a row - then binary-searches all queries at once.
        This is the batched form of the Edge Validator's O(1) probes.
        """
        if len(src_positions) == 0:
            return np.zeros(0, dtype=bool)
        if len(self.targets) == 0:
            return np.zeros(len(src_positions), dtype=bool)
        if self._keys is None:
            self._stride = int(self.targets.max()) + 1
            row_ids = np.repeat(
                np.arange(self.num_rows, dtype=np.int64),
                self.row_lens_array(),
            )
            self._keys = row_ids * self._stride + self.targets
        in_range = dst_positions < self._stride
        queries = src_positions * self._stride + np.where(
            in_range, dst_positions, 0
        )
        slots = np.searchsorted(self._keys, queries)
        slots = np.minimum(slots, len(self._keys) - 1)
        return in_range & (self._keys[slots] == queries)

    def max_row_len(self) -> int:
        """Longest row; contributes to ``D_CST``."""
        if self.num_rows == 0:
            return 0
        return int(self.row_lens_array().max())

    def num_entries(self) -> int:
        return len(self.targets)

    def transpose(self, num_target_positions: int) -> "CandidateAdjacency":
        """The reverse-direction adjacency (vectorised bucket sort)."""
        src = np.repeat(
            np.arange(self.num_rows, dtype=np.int64), np.diff(self.indptr)
        )
        order = np.lexsort((src, self.targets))
        sorted_targets = self.targets[order]
        sorted_src = src[order]
        counts = np.bincount(
            sorted_targets, minlength=num_target_positions
        ).astype(np.int64)
        indptr = np.zeros(num_target_positions + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return CandidateAdjacency(indptr, sorted_src)


@dataclass
class CST:
    """A candidate search tree (possibly a partition of a larger one).

    Attributes
    ----------
    query:
        The query graph the CST is isomorphic to.
    tree:
        The BFS spanning tree ``t_q`` used during construction.
    candidates:
        ``candidates[u]`` - sorted data-vertex ids in ``C(u)``.
    adjacency:
        ``adjacency[(a, b)]`` for every directed query edge (tree and
        non-tree, both directions).
    """

    query: QueryGraph
    tree: SpanningTree
    candidates: list[np.ndarray]
    adjacency: dict[tuple[int, int], CandidateAdjacency]
    #: True for tree-only indexes (a CPI, as CFL-Match builds): only
    #: spanning-tree edges are materialised and non-tree constraints
    #: must be verified against the data graph.
    tree_only: bool = False

    # ------------------------------------------------------------------
    # Size / degree metrics (Section V-B thresholds)
    # ------------------------------------------------------------------

    def candidate_count(self, u: int) -> int:
        """``|C(u)|``."""
        return len(self.candidates[u])

    def total_candidates(self) -> int:
        return sum(len(c) for c in self.candidates)

    def total_adjacency_entries(self) -> int:
        """Directed adjacency entries (each undirected CST edge counts
        twice, as stored)."""
        return sum(a.num_entries() for a in self.adjacency.values())

    def size_bytes(self) -> int:
        """Modeled BRAM footprint ``|CST|``: candidates, adjacency
        targets, and CSR row offsets, at :data:`ENTRY_BYTES` each."""
        offsets = sum(len(a.indptr) for a in self.adjacency.values())
        return ENTRY_BYTES * (
            self.total_candidates()
            + self.total_adjacency_entries()
            + offsets
        )

    def max_candidate_degree(self) -> int:
        """``D_CST``: the longest adjacency row over all directed edges.

        This is what the BRAM array-partition port limit constrains
        (Section VI-A), hence the ``delta_D`` partition threshold.
        """
        if not self.adjacency:
            return 0
        return max(a.max_row_len() for a in self.adjacency.values())

    def is_empty(self) -> bool:
        """Whether some candidate set is empty (zero embeddings)."""
        return any(len(c) == 0 for c in self.candidates)

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def position_of(self, u: int, v: int) -> int:
        """Position of data vertex ``v`` in ``C(u)`` (-1 if absent)."""
        cands = self.candidates[u]
        pos = int(np.searchsorted(cands, v))
        if pos < len(cands) and int(cands[pos]) == v:
            return pos
        return -1

    def vertex_at(self, u: int, pos: int) -> int:
        """Data vertex at ``position`` in ``C(u)``."""
        return int(self.candidates[u][pos])

    def neighbors_of(self, a: int, b: int, pos: int) -> np.ndarray:
        """Positions in ``C(b)`` adjacent to candidate ``pos`` of ``a``
        (the paper's ``N^a_b(v)``)."""
        return self.adjacency[(a, b)].row(pos)

    def has_candidate_edge(self, a: int, i: int, b: int, j: int) -> bool:
        """Whether candidate ``i`` of ``a`` and ``j`` of ``b`` are
        CST-adjacent (the Edge Validator's O(1) BRAM probe)."""
        return self.adjacency[(a, b)].contains(i, j)

    # ------------------------------------------------------------------

    def check_consistency(self) -> None:
        """Validate internal invariants; raises :class:`CSTError`.

        Checks: an adjacency exists for both directions of every query
        edge and no others; row counts match candidate counts; target
        positions are in range and sorted; the two directions of each
        edge are mutual transposes.
        """
        if self.tree_only:
            edge_list = [
                (min(p, c), max(p, c)) for p, c in self.tree.tree_edges()
            ]
        else:
            edge_list = self.query.edges()
        expected = set()
        for a, b in edge_list:
            expected.add((a, b))
            expected.add((b, a))
        if set(self.adjacency) != expected:
            raise CSTError(
                f"adjacency keys {sorted(self.adjacency)} do not match "
                f"query edges {sorted(expected)}"
            )
        for (a, b), adj in self.adjacency.items():
            if adj.num_rows != self.candidate_count(a):
                raise CSTError(
                    f"adjacency ({a},{b}) has {adj.num_rows} rows for "
                    f"{self.candidate_count(a)} candidates"
                )
            nb = self.candidate_count(b)
            if adj.num_entries() and (
                adj.targets.min() < 0 or adj.targets.max() >= nb
            ):
                raise CSTError(f"adjacency ({a},{b}) target out of range")
            for i in range(adj.num_rows):
                row = adj.row(i)
                if len(row) > 1 and (np.diff(row) <= 0).any():
                    raise CSTError(
                        f"adjacency ({a},{b}) row {i} not strictly sorted"
                    )
        for a, b in edge_list:
            fwd, rev = self.adjacency[(a, b)], self.adjacency[(b, a)]
            for i in range(fwd.num_rows):
                for j in fwd.row(i):
                    if not rev.contains(int(j), i):
                        raise CSTError(
                            f"edge ({a},{b}) candidate pair ({i},{j}) "
                            "missing its reverse entry"
                        )

    def __repr__(self) -> str:
        sizes = ",".join(str(len(c)) for c in self.candidates)
        return (
            f"CST(candidates=[{sizes}], bytes={self.size_bytes()}, "
            f"D={self.max_candidate_degree()})"
        )
