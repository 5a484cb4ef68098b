"""CST partitioning (Algorithm 2 of the paper).

A CST must fit the FPGA's on-chip constraints before it can be matched
BRAM-only: its modeled size must not exceed ``delta_S`` (the BRAM
budget) and no adjacency row may exceed ``delta_D`` (the array-
partition port limit of the Edge Validator, Section VI-A). When either
is violated, the candidate set of the current matching-order vertex is
split into ``k`` even parts (``k = max(|CST|/delta_S, D_CST/delta_D)``
under the paper's greedy policy) and each part induces a sub-CST:

* vertices *preceding* the split vertex in the matching order keep
  their candidate sets (Algorithm 2, lines 7-8);
* vertices *following* it keep only candidates that can reach a kept
  candidate (lines 9-12) - implemented by filtering, in matching
  order, against the kept sets of all earlier query neighbours, which
  is sound for arbitrary connected orders;
* adjacency lists are rebuilt on the surviving candidates (line 13).

Sub-CSTs that still violate a constraint recurse (on the same vertex
while it has more than one candidate, else on the next order vertex).
The resulting partitions have pairwise-disjoint search spaces whose
union is the original search space (the paper's Example 3 property),
which the test suite verifies.

Every node of the split tree is a keep-mask over the candidates of
the *root* CST (:class:`MaskedCST`), whose adjacencies are flattened
once into global entry arrays (:class:`FlatCST`). A node's size,
``D_CST`` and workload estimate each take a few whole-array passes.
An emitted node is packed at once into a :class:`PartitionSet`: the
candidates and CSR adjacencies of all its partitions, stacked
block-diagonally in one layout that the kernel reads in place and the
worker pool ships as one shared-memory placement. A partition's own
:class:`~repro.cst.structure.CST` is built only when a consumer indexes
the set for it.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from repro.common.errors import PartitionError
from repro.cst.structure import CST, ENTRY_BYTES, CandidateAdjacency
from repro.cst.workload import row_sums

#: Hard cap on emitted partitions - a guard against thresholds so small
#: that partitioning degenerates into per-candidate enumeration.
DEFAULT_MAX_PARTITIONS = 200_000


@dataclass(frozen=True)
class PartitionLimits:
    """The two thresholds of Section V-B.

    ``max_bytes`` is ``delta_S`` (modeled BRAM bytes available for the
    CST); ``max_degree`` is ``delta_D`` (the maximum adjacency-row
    length the Edge Validator's port budget supports).
    """

    max_bytes: int
    max_degree: int


@dataclass
class PartitionStats:
    """Bookkeeping accumulated during partitioning."""

    num_partitions: int = 0
    num_empty_skipped: int = 0
    num_splits: int = 0
    max_recursion_depth: int = 0
    total_bytes: int = 0
    split_factors: list[int] = field(default_factory=list)


def _concat(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(arrays) if arrays else np.empty(0, np.int64)


class FlatCST:
    """A CST's adjacencies flattened into global entry arrays.

    Candidate ``i`` of query vertex ``u`` is global candidate
    ``voff[u] + i``; row ``i`` of the ``e``-th adjacency is global row
    ``roff[e] + i``. Entries run in adjacency, row and target order;
    per entry, ``rowid`` is its global row, ``tgt`` its local target
    and ``src``/``dst`` the global candidates it joins.
    """

    def __init__(self, cst: CST) -> None:
        self.cst = cst
        self.voff = list(accumulate(map(len, cst.candidates), initial=0))
        #: Data-vertex id of every global candidate.
        self.ids = _concat(cst.candidates)
        self.edges = list(cst.adjacency)
        self.edge_index = {edge: e for e, edge in enumerate(self.edges)}
        adjs = list(cst.adjacency.values())
        num_rows = [adj.num_rows for adj in adjs]
        self.roff = list(accumulate(num_rows, initial=0))
        #: Per vertex, the entries a kept candidate costs in ``|CST|``:
        #: itself plus one CSR offset per adjacency it sources.
        self.weight = [1] * len(cst.candidates)
        for a, _b in self.edges:
            self.weight[a] += 1
        #: Per global row, its source candidate; per entry, the target
        #: vertex's first candidate.
        self.row_src = _concat([
            np.arange(self.voff[a], self.voff[a] + n, dtype=np.int64)
            for (a, _b), n in zip(self.edges, num_rows)
        ])
        self.rowid = np.repeat(
            np.arange(self.roff[-1], dtype=np.int64),
            _concat([np.diff(adj.indptr) for adj in adjs]),
        )
        self.tgt = _concat([adj.targets for adj in adjs])
        self.src = self.row_src[self.rowid]
        self.dst_base = np.repeat(
            np.array([self.voff[b] for _a, b in self.edges], np.int64),
            [adj.num_entries() for adj in adjs],
        )
        self.dst = self.tgt + self.dst_base

    def root(self) -> "MaskedCST":
        return MaskedCST(
            self, np.ones(self.voff[-1], dtype=bool), np.arange(len(self.src))
        )


class MaskedCST:
    """A sub-CST of a :class:`FlatCST`'s CST, held as a keep-mask.

    ``idx`` lists the alive entries (both endpoints kept), ``counts``
    the kept candidates per query vertex (counted from ``mask`` unless
    given) and ``row_lens`` the alive entries per global row; global
    row ``r``'s alive entries are ``idx[ends[r]:ends[r + 1]]``.
    ``size_bytes`` and ``degree`` are the sub-CST's ``|CST|`` and
    ``D_CST``.
    """

    __slots__ = ("flat", "mask", "idx", "counts", "row_lens", "ends",
                 "size_bytes", "degree", "_workload")

    def __init__(self, flat: FlatCST, mask: np.ndarray, idx: np.ndarray,
                 counts: list[int] | None = None) -> None:
        self.flat, self.mask, self.idx = flat, mask, idx
        self.counts = counts if counts is not None else [
            int(np.count_nonzero(mask[lo:hi]))
            for lo, hi in zip(flat.voff, flat.voff[1:])
        ]
        num_rows = flat.roff[-1]
        self.row_lens = np.bincount(flat.rowid[idx], minlength=num_rows)
        self.ends = np.zeros(num_rows + 1, dtype=np.int64)
        np.cumsum(self.row_lens, out=self.ends[1:])
        self.size_bytes = ENTRY_BYTES * (
            sum(n * w for n, w in zip(self.counts, flat.weight))
            + len(idx) + len(flat.edges)
        )
        self.degree = int(self.row_lens.max()) if num_rows else 0
        self._workload: float | None = None

    def entries(self, e: int) -> np.ndarray:
        """Alive global entry ids of the ``e``-th adjacency."""
        roff = self.flat.roff
        return self.idx[self.ends[roff[e]]:self.ends[roff[e + 1]]]

    def split(
        self, u: int, k: int, later: tuple[int, ...]
    ) -> list[MaskedCST]:
        """The sub-CSTs keeping one of ``np.array_split``'s ``k`` parts
        of ``C(u)`` each, filtering the ``later`` vertices (Algorithm 2,
        lines 7-12). A tree-only index's missing edges are skipped."""
        flat, voff = self.flat, self.flat.voff
        # Per filtered vertex, its alive entries toward each filtered
        # neighbour as (global target, local source), fixed across parts.
        filtered = {u}
        probes = []
        for u2 in later:
            rows = [
                (flat.dst[es], flat.src[es] - voff[u2])
                for es in (
                    self.entries(flat.edge_index[(u2, nb)])
                    for nb in flat.cst.query.neighbors(u2)
                    if nb in filtered and (u2, nb) in flat.edge_index
                )
            ]
            if rows:
                probes.append((u2, voff[u2], voff[u2 + 1], rows))
                filtered.add(u2)
        src, dst = flat.src[self.idx], flat.dst[self.idx]
        lo, hi = voff[u], voff[u + 1]
        kept = np.flatnonzero(self.mask[lo:hi]) + lo
        step, extra = divmod(len(kept), k)
        children = []
        for i in range(k):
            part = kept[i * step + min(i, extra):][:step + (i < extra)]
            mask = self.mask.copy()
            mask[lo:hi] = False
            mask[part] = True
            counts = list(self.counts)
            counts[u] = len(part)
            for u2, start, stop, rows in probes:
                keep = np.ones(stop - start, dtype=bool)
                for targets, sources in rows:
                    hit = np.zeros(stop - start, dtype=bool)
                    hit[sources[mask[targets]]] = True
                    keep &= hit
                mask[start:stop] = keep
                counts[u2] = int(np.count_nonzero(keep))
            children.append(MaskedCST(
                flat, mask, self.idx[mask[src] & mask[dst]], counts
            ))
        return children

    def workload(self) -> float:
        """``estimate_workload`` of the sub-CST, bit for bit: the
        alive entries, in row order, are its compacted CSR's. Below
        a tree leaf all weights are 1.0, so row sums are row lengths."""
        if self._workload is None:
            flat, tree = self.flat, self.flat.cst.tree
            weights: dict[int, np.ndarray] = {}
            for u in reversed(tree.bfs_order):
                for child in tree.children[u]:
                    e = flat.edge_index[(u, child)]
                    lo, hi = flat.roff[e], flat.roff[e + 1]
                    sums = row_sums(
                        self.ends[lo:hi + 1] - self.ends[lo],
                        flat.tgt[self.entries(e)], weights[child],
                    ) if child in weights else (
                        self.row_lens[lo:hi].astype(np.float64)
                    )
                    weights[u] = weights[u] * sums if u in weights else sums
            root = tree.root
            keep = self.mask[flat.voff[root]:flat.voff[root + 1]]
            self._workload = float(
                weights[root][keep].sum() if root in weights
                else self.counts[root]
            )
        return self._workload


class PartitionSet:
    """Partitions of one CST, packed into one block-diagonal layout.

    Partition ``p``'s candidates of ``u`` are
    ``candidates[u][offsets[u, p]:offsets[u, p + 1]]``, and
    ``adjacency[(a, b)]`` maps set-wide positions of ``a`` to set-wide
    positions of ``b``: row ``offsets[a, p] + i`` is candidate ``i`` of
    ``a`` in partition ``p``, and its targets lie in ``p``'s block of
    ``b``. A partial result never leaves its partition's blocks, so the
    kernel advances any members of a set in place. ``size_bytes[p]``
    and ``workloads[p]`` are the partition's ``|CST|`` and workload
    estimate. ``pset[p]`` builds the partition's own :class:`CST`, in
    local positions, on demand (so iterating a set yields every one).

    Algorithm 2 fills a set through :meth:`add`, one emitted node at a
    time; :meth:`pack` then stacks the added nodes' arrays and fills
    the ``size_bytes`` and ``workloads`` tuples (empty until then),
    after which the set is immutable.
    """

    def __init__(self, cst: CST) -> None:
        """An empty set for partitions of ``cst``."""
        self.query, self.tree = cst.query, cst.tree
        self.tree_only, self.edges = cst.tree_only, list(cst.adjacency)
        self.size_bytes: tuple[int, ...] = ()
        self.workloads: tuple[float, ...] = ()
        #: Per added node: its candidate counts, kept candidate ids,
        #: kept rows' lengths, alive entries' local targets, alive
        #: entries per edge (in the node's flat order), its size and
        #: its workload. ``None`` once packed.
        self._pending: list[tuple] | None = []

    @classmethod
    def of(cls, cst: CST, workload: float) -> PartitionSet:
        """``cst`` as a one-member set over its own arrays, with
        ``workload`` as its estimate."""
        return cls.from_arrays((
            cst.query, cst.tree, cst.tree_only, list(cst.adjacency),
            (cst.size_bytes(),), (workload,),
        ), [
            np.array([[0, len(c)] for c in cst.candidates],
                     dtype=np.int64).reshape(-1, 2),
            *cst.candidates,
            *(arr for adj in cst.adjacency.values()
              for arr in (adj.indptr, adj.targets)),
        ])

    def add(self, node: MaskedCST) -> None:
        """Pack ``node`` as the set's next partition."""
        if self._pending is None:
            raise PartitionError("partition set is already packed")
        flat, mask, idx = node.flat, node.mask, node.idx
        # Alive entries' targets renumbered among the kept candidates.
        rank = np.zeros(len(mask) + 1, dtype=np.int64)
        np.cumsum(mask, out=rank[1:])
        self._pending.append((
            node.counts,
            flat.ids[mask],
            node.row_lens[mask[flat.row_src]],
            rank[flat.dst[idx]] - rank[flat.dst_base[idx]],
            np.diff(node.ends[flat.roff]),
            node.size_bytes,
            node.workload(),
        ))

    def pack(self) -> PartitionSet:
        """Stack the added nodes' arrays block-diagonally (once);
        returns the set."""
        if self._pending is None:
            return self
        n, parts = self.query.num_vertices, len(self._pending)
        (counts, ids, rows, targets, entries, self.size_bytes,
         self.workloads) = list(zip(*self._pending)) or [()] * 7
        counts = np.array(counts, dtype=np.int64).reshape(parts, n)
        entries = np.array(entries, dtype=np.int64).reshape(parts, len(self.edges))
        offsets = np.zeros((n, parts + 1), dtype=np.int64)
        np.cumsum(counts.T, axis=1, out=offsets[:, 1:])
        src = [a for a, _b in self.edges]
        dst = [b for _a, b in self.edges]
        # Local targets shifted into their partition's block of ``b``.
        targets = _concat(list(targets)) + np.repeat(
            offsets[dst, :-1].T.ravel(), entries.ravel()
        )
        adjacency = []
        for lens, tgts in zip(_regroup(rows, counts[:, src]),
                              _regroup([targets], entries)):
            adjacency += [np.concatenate(([0], np.cumsum(lens))), tgts]
        self._load([offsets, *_regroup(ids, counts), *adjacency])
        return self

    def _load(self, arrays: list[np.ndarray]) -> None:
        """Adopt packed ``arrays`` (:meth:`arrays` order)."""
        n = self.query.num_vertices
        self._pending = None
        self._arrays = arrays
        #: ``(vertices, len + 1)``: each partition's first position per
        #: query vertex, and the total.
        self.offsets = arrays[0]
        self.candidates = arrays[1:1 + n]
        self.adjacency = {
            edge: CandidateAdjacency(arrays[1 + n + 2 * e],
                                     arrays[2 + n + 2 * e])
            for e, edge in enumerate(self.edges)
        }

    def __len__(self) -> int:
        return len(self.size_bytes)

    def __getitem__(self, p: int) -> CST:
        """Partition ``p``'s own CST, in local positions."""
        p = range(len(self))[p]
        lo, hi = self.offsets[:, p].tolist(), self.offsets[:, p + 1].tolist()
        adjacency = {}
        for (a, b), adj in self.adjacency.items():
            indptr = adj.indptr[lo[a]:hi[a] + 1]
            adjacency[(a, b)] = CandidateAdjacency(
                indptr - indptr[0], adj.targets[indptr[0]:indptr[-1]] - lo[b]
            )
        return CST(self.query, self.tree, [
            c[start:stop] for c, start, stop in zip(self.candidates, lo, hi)
        ], adjacency, self.tree_only)

    def take(self, members: Sequence[int]) -> PartitionSet:
        """A new set of just ``members``, in that order."""
        out = PartitionSet(self[members[0]])
        for m in members:
            out.add(FlatCST(self[m]).root())
        return out.pack()

    # -- shared-memory placement ---------------------------------------

    def header(self) -> tuple:
        """Everything but the arrays, for :meth:`from_arrays`."""
        return (self.query, self.tree, self.tree_only, self.edges,
                self.size_bytes, self.workloads)

    def arrays(self) -> list[np.ndarray]:
        """Every backing array: the offsets, the candidates per vertex,
        then each edge's indptr and targets."""
        return self._arrays

    @classmethod
    def from_arrays(cls, header: tuple, arrays: Sequence[np.ndarray]
                    ) -> PartitionSet:
        """The set of :meth:`header` over ``arrays`` (no copy)."""
        pset = cls.__new__(cls)
        (pset.query, pset.tree, pset.tree_only, pset.edges,
         pset.size_bytes, pset.workloads) = header
        pset._load(list(arrays))
        return pset


def _regroup(chunks: list[np.ndarray], lens: np.ndarray) -> list[np.ndarray]:
    """Reorder part-major blocks key-major: ``chunks`` hold, per part
    ``p``, ``lens[p, k]`` values for each key ``k`` in turn; returns
    one array per key with its blocks in part order."""
    parts, keys = lens.shape
    # The smallest key dtype makes the stable sort a radix sort.
    key = np.repeat(np.tile(
        np.arange(keys, dtype=np.min_scalar_type(keys)), parts
    ), lens.ravel())
    values = _concat(list(chunks))[np.argsort(key, kind="stable")]
    return np.split(values, np.cumsum(lens.sum(axis=0))[:-1].tolist())


def partition_cst(
    cst: CST,
    order: tuple[int, ...],
    limits: PartitionLimits,
    sink: Callable[[MaskedCST, float], None],
    k_policy: int | str = "greedy",
    max_partitions: int = DEFAULT_MAX_PARTITIONS,
    intercept: Callable[[float], bool] | None = None,
    split_policy: str = "order",
) -> PartitionStats:
    """Partition ``cst`` until every piece fits ``limits``.

    Each conforming piece goes to ``sink(node, workload)`` at once (the
    paper's offload-as-soon-as-ready behaviour), as its keep-mask node
    with ``workload == node.workload()``; the sink packs it into a
    :class:`PartitionSet` (:meth:`PartitionSet.add`) before the next
    node exists. ``k_policy`` is ``"greedy"`` (the paper's adaptive
    factor) or a fixed integer (the Fig. 8 study).

    ``intercept``, when given, is offered the workload of every
    oversized CST before it is split; returning True hands the whole
    CST to ``sink`` instead, uncounted in the returned stats. This is
    how FAST-SHARE gives whole oversized CSTs to the CPU, "reducing the
    cost of partitioning" (Section VII-B).

    ``split_policy`` selects the vertex whose candidate set is split:
    ``"order"`` is Algorithm 2 verbatim (the next matching-order
    vertex, advancing only past singletons); ``"degree"``, beyond the
    paper, splits the *target* set of the longest adjacency row when
    delta_D is violated (which is what actually shortens rows), else
    the largest candidate set. It collapses the hub-query partition
    explosions of EXPERIMENTS.md, and partitions stay disjoint and
    complete whichever vertex is split.
    """
    if isinstance(k_policy, str):
        if k_policy != "greedy":
            raise PartitionError(f"unknown k policy {k_policy!r}")
    elif k_policy < 2:
        raise PartitionError("fixed partition factor must be >= 2")
    if sorted(order) != list(range(cst.query.num_vertices)):
        raise PartitionError("order must be a permutation of query vertices")
    if split_policy not in ("order", "degree"):
        raise PartitionError(f"unknown split policy {split_policy!r}")

    stats = PartitionStats()
    flat = FlatCST(cst)
    order_rank = {u: i for i, u in enumerate(order)}
    # Depth-first, children in split order: the sink sees partitions in
    # Algorithm 2's recursion order.
    stack = [(flat.root(), 0, 0)]
    while stack:
        node, index, depth = stack.pop()
        stats.max_recursion_depth = max(stats.max_recursion_depth, depth)
        if 0 in node.counts:
            stats.num_empty_skipped += 1
            continue
        fits = (node.size_bytes <= limits.max_bytes
                and node.degree <= limits.max_degree)
        if fits:
            stats.num_partitions += 1
            stats.total_bytes += node.size_bytes
            if stats.num_partitions > max_partitions:
                raise PartitionError(
                    f"more than {max_partitions} partitions; thresholds "
                    f"{limits} are too small for this CST"
                )
        if fits or (intercept is not None and intercept(node.workload())):
            sink(node, node.workload())
            continue
        if split_policy == "degree":
            u = _degree_split_vertex(node, limits)
        else:
            u = order[index] if index < len(order) else None
            if u is not None and node.counts[u] <= 1:
                stack.append((node, index + 1, depth + 1))
                continue
        if u is None:
            raise PartitionError(
                "CST violates limits even with singleton candidate sets; "
                f"limits {limits} cannot be met"
            )
        if k_policy == "greedy":
            k = math.ceil(max(
                node.size_bytes / limits.max_bytes,
                node.degree / limits.max_degree,
            ))
        else:
            k = int(k_policy)
        k = max(2, min(k, node.counts[u]))
        stats.num_splits += 1
        stats.split_factors.append(k)
        children = node.split(u, k, order[order_rank[u] + 1:])
        stack.extend((child, index, depth + 1) for child in reversed(children))
    return stats


def partition_to_list(
    cst: CST,
    order: tuple[int, ...],
    limits: PartitionLimits,
    k_policy: int | str = "greedy",
    max_partitions: int = DEFAULT_MAX_PARTITIONS,
    split_policy: str = "order",
) -> tuple[PartitionSet, PartitionStats]:
    """Convenience wrapper packing every partition into one set."""
    parts = PartitionSet(cst)
    stats = partition_cst(
        cst, order, limits, lambda node, _workload: parts.add(node),
        k_policy, max_partitions, split_policy=split_policy,
    )
    return parts.pack(), stats


# ----------------------------------------------------------------------


def _degree_split_vertex(
    node: MaskedCST, limits: PartitionLimits
) -> int | None:
    """Pick the split vertex for the ``degree`` policy.

    If the port cap is violated, the longest adjacency row's *target*
    vertex is split - halving C(b) (roughly) halves the rows pointing
    into it, whereas Algorithm 2 may split unrelated vertices for many
    rounds first. Otherwise (size violation) the largest candidate set
    is split. Returns None when every candidate set is a singleton.
    """
    counts = node.counts
    if node.degree > limits.max_degree:
        longest = np.maximum.reduceat(node.row_lens, node.flat.roff[:-1])
        best: tuple[int, int] | None = None
        for (_a, b), row_len in zip(node.flat.edges, longest.tolist()):
            if counts[b] > 1 and (best is None or row_len > best[0]):
                best = (row_len, b)
        if best is not None:
            return best[1]
    return max(
        (u for u, n in enumerate(counts) if n > 1),
        key=counts.__getitem__, default=None,
    )
