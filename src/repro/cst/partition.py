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

The splits of sibling nodes are independent, so the split tree is
expanded a level at a time. A :class:`SplitLevel` holds every node
that lies the same number of splits below the root, stacked: one
keep-mask row per node over the candidates of the *root* CST (whose
adjacencies :class:`FlatCST` flattens once into global entry arrays),
and the alive entries of all of them, each tagged with its node.
Candidate counts, ``|CST|``, ``D_CST``, the bottom-up workload DP,
every node's split decision and the children of every node that
splits each take a few segmented numpy passes per level, however wide
it is.

The sink and FAST-SHARE's intercept must still see nodes in Algorithm
2's depth-first order, because the intercept reads scheduler state that
earlier emissions changed. So :func:`partition_cst` replays the tree
depth first and applies the per-node rules there (empty skip, fit
test, partition cap, intercept, sink). When the replay first needs the
children of a level's node, the children of that node and of every
later splitting node of its level are expanded in one pass. Subtrees
below intercepted nodes are expanded but never visited, and a node
whose limits cannot be met raises only if the replay reaches it.

An emitted node reaches the sink as a :class:`SplitNode`, a handle
into its level. A :class:`PartitionSet` gathers the candidates and CSR
adjacencies of all its partitions at :meth:`PartitionSet.pack`, stacked
block-diagonally in one layout that the kernel reads in place and the
worker pool ships as one shared-memory placement. A partition's own
:class:`~repro.cst.structure.CST` is built only when a consumer indexes
the set for it.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from repro.common.errors import PartitionError
from repro.cst.structure import CST, ENTRY_BYTES, CandidateAdjacency
from repro.cst.workload import segment_sums

#: Hard cap on emitted partitions - a guard against thresholds so small
#: that partitioning degenerates into per-candidate enumeration.
DEFAULT_MAX_PARTITIONS = 200_000

#: Bytes of child keep-masks and alive entries one expansion pass may
#: stack: a wider level of a large CST is expanded in several passes.
EXPANSION_BYTES = 1 << 22

#: Parent entries a pass tests at once for its children's alive
#: entries, which bounds the pass's scratch memory.
FILTER_SLICE = 1 << 14


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


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """``arange(s, s + n)`` for each start ``s`` and length ``n``,
    concatenated."""
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.arange(total) + np.repeat(starts - ends + lens, lens)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a non-negative array starts."""
    return np.flatnonzero(np.diff(keys, prepend=-1))


class FlatCST:
    """A CST's adjacencies flattened into global entry arrays.

    Candidate ``i`` of query vertex ``u`` is global candidate
    ``voff[u] + i``; row ``i`` of the ``e``-th adjacency is global row
    ``roff[e] + i``, and its entries are global entries
    ``eoff[e] .. eoff[e + 1] - 1``. Entries run in adjacency, row and
    target order; per entry, ``rowid`` is its global row, ``tgt`` its
    local target, ``src``/``dst`` the global candidates it joins and
    ``entry_edge`` its adjacency.
    """

    def __init__(self, cst: CST) -> None:
        self.cst = cst
        self.voff = list(accumulate(map(len, cst.candidates), initial=0))
        self.edges = list(cst.adjacency)
        self.edge_index = {edge: e for e, edge in enumerate(self.edges)}
        adjs = list(cst.adjacency.values())
        num_rows = [adj.num_rows for adj in adjs]
        num_entries = [adj.num_entries() for adj in adjs]
        self.roff = list(accumulate(num_rows, initial=0))
        self.eoff = list(accumulate(num_entries, initial=0))
        #: Per vertex, the entries a kept candidate costs in ``|CST|``:
        #: itself plus one CSR offset per adjacency it sources.
        weight = [1] * len(cst.candidates)
        for a, _b in self.edges:
            weight[a] += 1
        self.weight = np.array(weight, dtype=np.int64)
        #: Per global row, its source candidate and its adjacency.
        self.row_src = _concat([
            np.arange(self.voff[a], self.voff[a] + n, dtype=np.int64)
            for (a, _b), n in zip(self.edges, num_rows)
        ])
        self.row_edge = np.repeat(np.arange(len(adjs)), num_rows)
        self.rowid = np.repeat(
            np.arange(self.roff[-1], dtype=np.int64),
            _concat([np.diff(adj.indptr) for adj in adjs]),
        )
        self.tgt = _concat([adj.targets for adj in adjs])
        self.src = self.row_src[self.rowid]
        self.entry_edge = np.repeat(np.arange(len(adjs)), num_entries)
        self.dst = self.tgt + np.repeat(
            np.array([self.voff[b] for _a, b in self.edges], np.int64),
            num_entries,
        )
        #: The workload DP's schedule: (vertex, tree child, adjacency),
        #: children before parents.
        tree = cst.tree
        self.tree_edges = [
            (u, child, self.edge_index[(u, child)])
            for u in reversed(tree.bfs_order) for child in tree.children[u]
        ]

    def node(self, mask: np.ndarray) -> SplitNode:
        """The sub-CST keeping the global candidates ``mask``, as the
        one node of its own level."""
        ent = np.flatnonzero(mask[self.src] & mask[self.dst])
        level = SplitLevel(self, mask[None, :], ent, np.zeros_like(ent))
        return SplitNode(level, 0)


class SplitNode(NamedTuple):
    """Node ``index`` of a :class:`SplitLevel`: what the sink receives
    and :meth:`PartitionSet.add` packs."""

    level: SplitLevel
    index: int


class SplitLevel:
    """Nodes of the split tree, stacked: one level, or part of one.

    Node ``i`` keeps the global candidates ``masks([i])[0]`` (held
    bit-packed between uses), and its alive entries (both endpoints
    kept) are ``ent[bounds[i]:bounds[i + 1]]``, in flat order; ``own``
    tags each alive entry with its node while the level is built.
    ``counts`` (nodes x query vertices), ``size_bytes``, ``degree`` and
    ``workloads`` are every node's candidate counts, ``|CST|``,
    ``D_CST`` and ``estimate_workload``, bit for bit. A level made by
    a :class:`_Splitter` also carries the per-node split decisions the
    replay reads, as lists.
    """

    def __init__(self, flat: FlatCST, masks: np.ndarray, ent: np.ndarray,
                 own: np.ndarray, splitter: _Splitter | None = None) -> None:
        self.flat, self.ent, self.splitter = flat, ent, splitter
        self.bits = np.packbits(masks, axis=1)
        n, voff = len(masks), flat.voff
        self.bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(own, minlength=n), out=self.bounds[1:])
        self.counts = np.stack([
            np.count_nonzero(masks[:, lo:hi], axis=1)
            for lo, hi in zip(voff, voff[1:])
        ], axis=1)
        self.size_bytes = ENTRY_BYTES * (
            self.counts @ flat.weight + np.diff(self.bounds) + len(flat.edges)
        )
        # Runs of alive entries per (node, row); per node and adjacency,
        # the longest.
        rows = flat.rowid[ent]
        key = own * flat.roff[-1] + rows
        starts = _run_starts(key)
        lens = np.diff(starts, append=len(key))
        num_edges = len(flat.edges)
        self.longest = np.zeros((n, num_edges), dtype=np.int64)
        if len(starts):
            key = own[starts] * num_edges + flat.row_edge[rows[starts]]
            first = _run_starts(key)
            self.longest.ravel()[key[first]] = np.maximum.reduceat(lens, first)
        self.degree = (self.longest.max(axis=1) if num_edges
                       else np.zeros(n, dtype=np.int64))
        self.workloads = self._weigh(masks, own)
        #: Per node, ``(level, first child)`` once its children exist.
        self.children: list[tuple[SplitLevel, int] | None] = [None] * n

    def _weigh(self, masks: np.ndarray, owners: np.ndarray) -> np.ndarray:
        """The workload DP of every node: per tree vertex, one weight
        per kept candidate of every node, keyed ``node * |C(u)| + i``.
        Row and root sums go through :func:`segment_sums`, as in
        ``estimate_workload``, so they depend only on the summed
        values."""
        flat, voff = self.flat, self.flat.voff
        edge = flat.entry_edge[self.ent]
        keys: dict[int, np.ndarray] = {}
        weights: dict[int, np.ndarray] = {}
        for u, child, e in flat.tree_edges:
            width = voff[u + 1] - voff[u]
            if u not in keys:
                keys[u] = np.flatnonzero(masks[:, voff[u]:voff[u + 1]])
            sel = edge == e
            ent, own = self.ent[sel], owners[sel]
            row_keys = own * width + (flat.rowid[ent] - flat.roff[e])
            starts = _run_starts(row_keys)
            if child in weights:
                child_width = voff[child + 1] - voff[child]
                values = weights[child][np.searchsorted(
                    keys[child], own * child_width + flat.tgt[ent]
                )]
                sums = segment_sums(values, starts)
            else:
                sums = np.diff(starts, append=len(row_keys)).astype(np.float64)
            full = np.zeros(len(keys[u]))
            full[np.searchsorted(keys[u], row_keys[starts])] = sums
            weights[u] = weights[u] * full if u in weights else full
        root = flat.cst.tree.root
        if root not in weights:
            return self.counts[:, root].astype(np.float64)
        node = keys[root] // (voff[root + 1] - voff[root])
        first = _run_starts(node)
        out = np.zeros(len(masks))
        out[node[first]] = segment_sums(weights[root], first)
        return out

    def masks(self, nodes: np.ndarray) -> np.ndarray:
        """The keep-masks of ``nodes``, unpacked (a new array)."""
        return np.unpackbits(
            self.bits[nodes], axis=1, count=self.flat.voff[-1]
        ).view(bool)

    def entry_keys(self) -> np.ndarray:
        """``node * entries + entry`` per alive entry: sorted, so
        ``searchsorted`` finds any node's entries of one adjacency."""
        return self.ent + np.repeat(
            np.arange(len(self.counts)) * len(self.flat.src),
            np.diff(self.bounds),
        )

    def child_of(self, i: int) -> tuple[SplitLevel, int]:
        """Node ``i``'s children: their level and the first one's index
        (they are consecutive), expanded on first use. Asked once per
        node, so the level lets go of them."""
        if self.children[i] is None:
            self.splitter.expand(self, i)
        children, self.children[i] = self.children[i], None
        return children


class _Splitter:
    """Algorithm 2's split rule over one :class:`FlatCST`: decides every
    node of a level at once, and expands a level's children."""

    def __init__(self, flat: FlatCST, order: tuple[int, ...],
                 limits: PartitionLimits, k_policy: int | str,
                 split_policy: str) -> None:
        self.flat, self.order, self.limits = flat, order, limits
        self.k_policy, self.split_policy = k_policy, split_policy
        self._order = np.array(order, dtype=np.int64)
        self._probes: dict[int, list[tuple[int, list[int]]]] = {}

    def root(self) -> SplitLevel:
        flat = self.flat
        level = SplitLevel(
            flat, np.ones((1, flat.voff[-1]), dtype=bool),
            np.arange(len(flat.src)), np.zeros(len(flat.src), np.int64), self,
        )
        self.decide(level, np.zeros(1, dtype=np.int64))
        return level

    def decide(self, level: SplitLevel, index: np.ndarray) -> None:
        """Each node's fate if the replay reaches it: empty, fitting,
        or split on ``split[i]`` into ``k[i]`` parts after
        ``advance[i]`` singleton advances of the order index
        (``split[i]`` -1: the limits cannot be met). ``index`` is each
        node's matching-order index."""
        counts, limits = level.counts, self.limits
        n = len(counts)
        size, degree = level.size_bytes, level.degree
        empty = (counts == 0).any(axis=1)
        fits = (size <= limits.max_bytes) & (degree <= limits.max_degree)
        if self.split_policy == "degree":
            split = self._degree_split_vertices(level)
            advance = np.zeros(n, dtype=np.int64)
        else:
            steps = len(self.order)
            open_ = (counts[:, self._order] > 1) & (
                np.arange(steps) >= index[:, None]
            )
            found = open_.any(axis=1)
            first = np.where(found, open_.argmax(axis=1), steps)
            advance = first - index
            split = np.where(
                found, self._order[np.minimum(first, steps - 1)], -1
            )
        if self.k_policy == "greedy":
            k = np.ceil(np.maximum(
                size / limits.max_bytes, degree / limits.max_degree
            )).astype(np.int64)
        else:
            k = np.full(n, int(self.k_policy), dtype=np.int64)
        k = np.maximum(2, np.minimum(
            k, counts[np.arange(n), np.maximum(split, 0)]
        ))
        level.empty, level.fits = empty.tolist(), fits.tolist()
        level.advance, level.split = advance.tolist(), split.tolist()
        level.k = k.tolist()
        level.sizes, level.weights = size.tolist(), level.workloads.tolist()
        level.index = index + advance
        level.splits = ~empty & ~fits & (split >= 0)

    def _degree_split_vertices(self, level: SplitLevel) -> np.ndarray:
        """The ``degree`` policy's split vertex per node (-1: none).

        If the port cap is violated, the longest adjacency row's
        *target* vertex is split - halving C(b) (roughly) halves the
        rows pointing into it, whereas Algorithm 2 may split unrelated
        vertices for many rounds first. Otherwise (size violation) the
        largest candidate set is split. Ties go to the first adjacency
        or vertex.
        """
        counts = level.counts
        multi = counts > 1
        split = np.where(
            multi.any(axis=1), np.where(multi, counts, -1).argmax(axis=1), -1
        )
        if self.flat.edges:
            target = np.array([b for _a, b in self.flat.edges])
            eligible = multi[:, target]
            by_row = target[
                np.where(eligible, level.longest, -1).argmax(axis=1)
            ]
            over = (level.degree > self.limits.max_degree) & eligible.any(axis=1)
            split = np.where(over, by_row, split)
        return split

    def probes(self, u: int) -> list[tuple[int, list[int]]]:
        """Per later order vertex that a split of ``u`` filters, its
        adjacencies toward vertices filtered before it (Algorithm 2,
        lines 9-12). A tree-only index's missing edges are skipped."""
        if u not in self._probes:
            flat = self.flat
            filtered, probes = {u}, []
            for u2 in self.order[self.order.index(u) + 1:]:
                edges = [
                    flat.edge_index[(u2, nb)]
                    for nb in flat.cst.query.neighbors(u2)
                    if nb in filtered and (u2, nb) in flat.edge_index
                ]
                if edges:
                    probes.append((u2, edges))
                    filtered.add(u2)
            self._probes[u] = probes
        return self._probes[u]

    def expand(self, level: SplitLevel, i: int) -> None:
        """Build, as one new level, the children of node ``i`` and of
        the splitting nodes after it, up to :data:`EXPANSION_BYTES`."""
        flat = self.flat
        parents = np.flatnonzero(level.splits[i:]) + i
        k = np.array(level.k)[parents]
        alive = np.diff(level.bounds)[parents]
        cost = np.cumsum(k * (flat.voff[-1] + 24 * alive))
        parents = parents[:max(1, int(np.searchsorted(cost, EXPANSION_BYTES,
                                                      side="right")))]
        k = k[:len(parents)]
        first = np.cumsum(k) - k
        parent = np.repeat(parents, k)
        masks = level.masks(parent)
        split = np.array(level.split)[parents]
        for u in np.unique(split).tolist():
            group = split == u
            self._split(level, masks, u, parents[group], first[group],
                        k[group])
        # Each child's alive entries: its parent's, where both ends
        # are still kept, tested for a slice of children at a time.
        lens = np.diff(level.bounds)[parent]
        ends = np.cumsum(lens)
        cuts = np.unique(np.concatenate((
            [0], np.searchsorted(ends, np.arange(FILTER_SLICE, ends[-1],
                                                 FILTER_SLICE)),
            [len(parent)],
        )))
        cells, alive = masks.ravel(), []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            ent = level.ent[_ranges(level.bounds[parent[lo:hi]], lens[lo:hi])]
            own = np.repeat(np.arange(lo, hi), lens[lo:hi])
            row = own * flat.voff[-1]
            keep = cells[row + flat.src[ent]] & cells[row + flat.dst[ent]]
            alive.append((ent[keep], own[keep]))
        child = SplitLevel(flat, masks, *map(_concat, zip(*alive)), self)
        self.decide(child, np.repeat(level.index[parents], k))
        for p, lo in zip(parents.tolist(), first.tolist()):
            level.children[p] = (child, lo)

    def _split(self, level: SplitLevel, masks: np.ndarray, u: int,
               parents: np.ndarray, first: np.ndarray, k: np.ndarray
               ) -> None:
        """Restrict the children of ``parents`` (rows ``first[j] ..
        first[j] + k[j] - 1`` of ``masks``, each still a copy of its
        parent's row) to one of ``np.array_split``'s ``k[j]`` parts of
        ``C(u)`` each, then filter the later vertices through the
        parents' alive entries (Algorithm 2, lines 7-12)."""
        flat, voff, width = self.flat, self.flat.voff, self.flat.voff[-1]
        cells = masks.ravel()
        lo, hi = voff[u], voff[u + 1]
        rows = _ranges(first, k)
        node, col = np.nonzero(masks[first, lo:hi])
        count = level.counts[parents, u]
        rank = np.arange(len(node)) - np.repeat(np.cumsum(count) - count, count)
        step, extra = count // k, count % k
        big = (extra * (step + 1))[node]
        step, extra = step[node], extra[node]
        part = np.where(rank < big, rank // (step + 1),
                        extra + (rank - big) // step)
        masks[rows, lo:hi] = False
        cells[(first[node] + part) * width + lo + col] = True
        # Each filtered vertex keeps the candidates whose parent entries
        # reach a kept candidate over every probed adjacency.
        entries = len(flat.src)
        key = level.entry_keys()
        parent = np.repeat(parents, k) * entries
        for u2, edges in self.probes(u):
            lo2, hi2 = voff[u2], voff[u2 + 1]
            keep = np.ones(len(rows) * (hi2 - lo2), dtype=bool)
            for e in edges:
                start = np.searchsorted(key, parent + flat.eoff[e])
                lens = np.searchsorted(key, parent + flat.eoff[e + 1]) - start
                ent = level.ent[_ranges(start, lens)]
                reach = cells[np.repeat(rows * width, lens) + flat.dst[ent]]
                hit = np.zeros_like(keep)
                hit[(np.repeat(np.arange(len(rows)) * (hi2 - lo2), lens)
                     + flat.src[ent] - lo2)[reach]] = True
                keep &= hit
            masks[rows, lo2:hi2] = keep.reshape(len(rows), hi2 - lo2)


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
    time; :meth:`pack` then gathers the added nodes from their levels
    and fills the ``size_bytes`` and ``workloads`` tuples (empty until
    then), after which the set is immutable.
    """

    def __init__(self, cst: CST) -> None:
        """An empty set for partitions of ``cst``."""
        self.query, self.tree = cst.query, cst.tree
        self.tree_only, self.edges = cst.tree_only, list(cst.adjacency)
        self.size_bytes: tuple[int, ...] = ()
        self.workloads: tuple[float, ...] = ()
        #: The added nodes, and the CST they keep candidates of; both
        #: ``None`` once packed.
        self._pending: list[SplitNode] | None = []
        self._root: CST | None = cst

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

    def add(self, node: SplitNode) -> None:
        """Queue ``node`` as the set's next partition."""
        if self._pending is None:
            raise PartitionError("partition set is already packed")
        self._pending.append(node)

    def pack(self) -> PartitionSet:
        """Gather the added nodes block-diagonally (once); returns the
        set."""
        if self._pending is None:
            return self
        nodes, cands = self._pending, self._root.candidates
        n, parts = len(cands), len(nodes)
        width = [len(c) for c in cands]
        counts = np.zeros((parts, n), dtype=np.int64)
        size_bytes = np.zeros(parts, dtype=np.int64)
        workloads = np.zeros(parts)
        # Per vertex, every kept candidate as ``partition * |C(u)| + i``;
        # per level and adjacency, each added node's alive entries.
        kept: list[list[np.ndarray]] = [[] for _ in range(n)]
        groups: dict[int, tuple[SplitLevel, list[int], list[int]]] = {}
        for p, (level, i) in enumerate(nodes):
            group = groups.setdefault(id(level), (level, [], []))
            group[1].append(p)
            group[2].append(i)
        spans = []
        for level, pos, idx in groups.values():
            flat, pos, idx = level.flat, np.array(pos), np.array(idx)
            masks = level.masks(idx)
            counts[pos] = level.counts[idx]
            size_bytes[pos] = level.size_bytes[idx]
            workloads[pos] = level.workloads[idx]
            for u, (lo, hi) in enumerate(zip(flat.voff, flat.voff[1:])):
                node, col = np.nonzero(masks[:, lo:hi])
                kept[u].append(pos[node] * (hi - lo) + col)
            key, base = level.entry_keys(), idx * len(flat.src)
            spans.append((level, pos, np.searchsorted(
                key, base[:, None] + np.array(flat.eoff)
            )))
        keys = [np.sort(_concat(k)) for k in kept]
        adjacency = []
        for e, (a, b) in enumerate(self.edges):
            # The edge's alive entries in partition and entry order.
            part, row, tgt = [], [], []
            for level, pos, bounds in spans:
                flat, lens = level.flat, bounds[:, e + 1] - bounds[:, e]
                ent = level.ent[_ranges(bounds[:, e], lens)]
                part.append(np.repeat(pos, lens))
                row.append(flat.rowid[ent] - flat.roff[e])
                tgt.append(flat.tgt[ent])
            by = np.argsort(_concat(part), kind="stable")
            part, row, tgt = (_concat(arrs)[by] for arrs in (part, row, tgt))
            rows = np.searchsorted(keys[a], part * width[a] + row)
            indptr = np.zeros(len(keys[a]) + 1, dtype=np.int64)
            np.cumsum(np.bincount(rows, minlength=len(keys[a])),
                      out=indptr[1:])
            adjacency += [indptr, np.searchsorted(
                keys[b], part * width[b] + tgt
            ).astype(np.int64)]
        offsets = np.zeros((n, parts + 1), dtype=np.int64)
        np.cumsum(counts.T, axis=1, out=offsets[:, 1:])
        self.size_bytes = tuple(size_bytes.tolist())
        self.workloads = tuple(workloads.tolist())
        self._load([
            offsets,
            *(c[k % max(w, 1)] for c, k, w in zip(cands, keys, width)),
            *adjacency,
        ])
        return self

    def _load(self, arrays: list[np.ndarray]) -> None:
        """Adopt packed ``arrays`` (:meth:`arrays` order)."""
        n = self.query.num_vertices
        self._pending = self._root = None
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
        """A new set of just ``members``, in that order, sliced from the
        packed arrays."""
        members = np.asarray(members, dtype=np.int64)
        old = self.offsets
        lens = old[:, members + 1] - old[:, members]
        offsets = np.zeros((len(old), len(members) + 1), dtype=np.int64)
        np.cumsum(lens, axis=1, out=offsets[:, 1:])
        picks = [_ranges(old[u, members], lens[u]) for u in range(len(old))]
        adjacency = []
        for (a, b), adj in self.adjacency.items():
            starts = adj.indptr[picks[a]]
            row_lens = adj.indptr[picks[a] + 1] - starts
            indptr = np.zeros(len(starts) + 1, dtype=np.int64)
            np.cumsum(row_lens, out=indptr[1:])
            # Each target moves from its member's old block of ``b`` to
            # the new one.
            shift = np.repeat(offsets[b, :-1] - old[b, members],
                              np.diff(indptr[offsets[a]]))
            adjacency += [indptr,
                          adj.targets[_ranges(starts, row_lens)] + shift]
        return PartitionSet.from_arrays((
            self.query, self.tree, self.tree_only, self.edges,
            tuple(self.size_bytes[m] for m in members.tolist()),
            tuple(self.workloads[m] for m in members.tolist()),
        ), [
            offsets,
            *(c[pick] for c, pick in zip(self.candidates, picks)),
            *adjacency,
        ])

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


def partition_cst(
    cst: CST,
    order: tuple[int, ...],
    limits: PartitionLimits,
    sink: Callable[[SplitNode, float], None],
    k_policy: int | str = "greedy",
    max_partitions: int = DEFAULT_MAX_PARTITIONS,
    intercept: Callable[[float], bool] | None = None,
    split_policy: str = "order",
) -> PartitionStats:
    """Partition ``cst`` until every piece fits ``limits``.

    Each conforming piece goes to ``sink(node, workload)`` at once (the
    paper's offload-as-soon-as-ready behaviour), as a
    :class:`SplitNode` with its workload estimate; the sink queues it
    in a :class:`PartitionSet` (:meth:`PartitionSet.add`).
    ``k_policy`` is ``"greedy"`` (the paper's adaptive factor) or a
    fixed integer (the Fig. 8 study).

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
    splitter = _Splitter(FlatCST(cst), tuple(order), limits, k_policy,
                         split_policy)
    # Depth-first, children in split order: the sink sees partitions in
    # Algorithm 2's recursion order. A singleton advance revisits the
    # same node one recursion level deeper.
    stack = [(splitter.root(), 0, 0)]
    while stack:
        level, i, depth = stack.pop()
        stats.max_recursion_depth = max(stats.max_recursion_depth, depth)
        if level.empty[i]:
            stats.num_empty_skipped += 1
            continue
        if level.fits[i]:
            stats.num_partitions += 1
            stats.total_bytes += level.sizes[i]
            if stats.num_partitions > max_partitions:
                raise PartitionError(
                    f"more than {max_partitions} partitions; thresholds "
                    f"{limits} are too small for this CST"
                )
            sink(SplitNode(level, i), level.weights[i])
            continue
        advance = level.advance[i]
        if intercept is not None:
            workload = level.weights[i]
            taken = intercept(workload)
            for extra in range(1, advance + 1):
                if taken:
                    break
                stats.max_recursion_depth = max(
                    stats.max_recursion_depth, depth + extra
                )
                taken = intercept(workload)
            if taken:
                sink(SplitNode(level, i), workload)
                continue
        depth += advance
        stats.max_recursion_depth = max(stats.max_recursion_depth, depth)
        if level.split[i] < 0:
            raise PartitionError(
                "CST violates limits even with singleton candidate sets; "
                f"limits {limits} cannot be met"
            )
        k = level.k[i]
        stats.num_splits += 1
        stats.split_factors.append(k)
        child, first = level.child_of(i)
        stack.extend(
            (child, c, depth + 1) for c in range(first + k - 1, first - 1, -1)
        )
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
