"""The FAST kernel modules (Algorithms 4-8), batch-vectorised.

The paper decomposes matching into *Generator*, *Visited Validator*,
*Edge Validator* and *Synchronizer* so that each step processes
thousands of partial results per round with no loop-carried
dependencies. This module implements exactly those four steps over
numpy batches:

* a :class:`DepthBuffer` holds all partial results of one depth (the
  BRAM-only intermediate buffer of Section VI-B);
* :func:`generate` pops partials from a buffer and expands up to
  ``N_o`` new ones through the anchor adjacency row (Algorithm 5);
* :func:`visited_validate` marks injectivity violations (Algorithm 6);
* :func:`edge_validate` probes CST candidate edges for every
  previously-matched non-anchor neighbour (Algorithm 7);
* :func:`synchronize` filters by both bit vectors (Algorithm 8) -
  routing to the next buffer or the result set is the engine's job;
* :func:`expand_root_many`, :func:`generate_many` and
  :func:`validate_many` run the same steps for many partitions of a
  :class:`~repro.cst.partition.PartitionSet` at once, over
  per-partition :class:`SlotBuffers` (the lockstep engine).

Everything is positional: a partial result is a row of candidate
*positions* aligned with the matching order, plus the parallel row of
data-vertex ids used for the visited check. The single-partition steps
read any object with a CST's ``candidates`` and ``adjacency``: a CST in
its own positions, or a partition set in set-wide ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import BufferOverflowError, DeviceError, QueryError
from repro.cst.partition import PartitionSet
from repro.cst.structure import CST
from repro.query.ordering import validate_order
from repro.query.query_graph import QueryGraph


@dataclass(frozen=True)
class MatchPlan:
    """Static per-depth expansion metadata for one (query, order) pair.

    For step ``i`` (matching ``order[i]``): ``anchor_vertex[i]`` is the
    earliest-matched query neighbour whose CST adjacency supplies the
    extension candidates; ``anchor_col[i]`` its column in the partial-
    result matrix; ``checks[i]`` the remaining matched neighbours as
    ``(query_vertex, column)`` pairs, each of which costs one edge-
    validation task per new partial result.
    """

    order: tuple[int, ...]
    anchor_vertex: tuple[int, ...]
    anchor_col: tuple[int, ...]
    checks: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def num_steps(self) -> int:
        return len(self.order)

    def tasks_per_partial(self, step: int) -> int:
        """Edge-validation tasks generated per partial at ``step``."""
        return len(self.checks[step])


def build_plan(query: QueryGraph, order: tuple[int, ...]) -> MatchPlan:
    """Derive the :class:`MatchPlan` for a connected matching order."""
    validate_order(query, order)
    rank = {u: i for i, u in enumerate(order)}
    anchor_vertex = [-1]
    anchor_col = [-1]
    checks: list[tuple[tuple[int, int], ...]] = [()]
    for i, u in enumerate(order):
        if i == 0:
            continue
        matched = [w for w in query.neighbors(u) if rank[w] < i]
        if not matched:
            raise QueryError("order is not connected")  # pragma: no cover
        anchor = min(matched, key=rank.__getitem__)
        anchor_vertex.append(anchor)
        anchor_col.append(rank[anchor])
        checks.append(
            tuple((w, rank[w]) for w in matched if w != anchor)
        )
    return MatchPlan(
        order=tuple(order),
        anchor_vertex=tuple(anchor_vertex),
        anchor_col=tuple(anchor_col),
        checks=tuple(checks),
    )


class DepthBuffer:
    """All partial results of one depth, stored as matrices.

    ``pos``/``ids`` have one row per partial; ``front`` is the pop
    cursor and ``front_offset`` the number of extension candidates
    already consumed from the front entry's adjacency row (a partial
    whose candidate row exceeds the round budget is resumed later, as
    Section VI-B prescribes).
    """

    __slots__ = ("depth", "capacity", "pos", "ids", "front", "front_offset",
                 "peak")

    def __init__(self, depth: int, capacity: int) -> None:
        self.depth = depth
        self.capacity = capacity
        self.pos = np.empty((0, depth), dtype=np.int64)
        self.ids = np.empty((0, depth), dtype=np.int64)
        self.front = 0
        self.front_offset = 0
        self.peak = 0

    def __len__(self) -> int:
        return len(self.pos) - self.front

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def fill(self, pos: np.ndarray, ids: np.ndarray) -> None:
        """Load a fresh batch; the buffer must currently be empty.

        The deepest-first expansion policy guarantees a buffer is only
        written when drained, which is what bounds each depth at
        ``N_o`` entries; violations raise :class:`BufferOverflowError`.
        """
        if not self.is_empty:
            raise BufferOverflowError(
                f"depth-{self.depth} buffer written while non-empty"
            )
        if len(pos) > self.capacity:
            raise BufferOverflowError(
                f"depth-{self.depth} buffer received {len(pos)} partials "
                f"but holds only {self.capacity}"
            )
        self.pos = pos
        self.ids = ids
        self.front = 0
        self.front_offset = 0
        self.peak = max(self.peak, len(pos))


@dataclass
class RoundBatch:
    """Output of one Generator round at one step."""

    step: int
    pos: np.ndarray          # (n_new, step + 1) candidate positions
    ids: np.ndarray          # (n_new, step + 1) data-vertex ids
    n_consumed: int          # buffer entries fully consumed
    n_new: int               # |P_o| of this round
    n_tasks: int             # |T_n| of this round


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lens[i])`` segments."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.concatenate(
        ([np.int64(0)], np.cumsum(lens[:-1], dtype=np.int64))
    )
    return np.repeat(starts - shift, lens) + np.arange(total, dtype=np.int64)


def generate(
    cst: CST | PartitionSet,
    plan: MatchPlan,
    buffer: DepthBuffer,
    step: int,
    budget: int,
) -> RoundBatch:
    """Algorithm 5: expand up to ``budget`` partials from ``buffer``.

    Pops entries from the buffer front; an entry whose extension row
    does not fully fit the budget keeps its cursor for the next round.
    """
    if budget < 1:
        raise DeviceError("generator budget must be >= 1")
    u = plan.order[step]
    anchor = plan.anchor_vertex[step]
    adj = cst.adjacency[(anchor, u)]

    avail = len(buffer)
    anchor_col = plan.anchor_col[step]
    all_lens = adj.row_lens_array()

    # Scan buffer entries in windows of roughly one budget's worth
    # instead of gathering the whole remaining suffix every round (the
    # suffix can be orders of magnitude larger than one round's
    # consumption). The scan keeps extending while the running total is
    # still <= budget, so trailing zero-length rows that fit under the
    # budget are consumed this round — exactly the rows a full-suffix
    # ``searchsorted(cum, budget, side="right")`` would take.
    chunk = max(64, min(avail, budget))
    starts_parts: list[np.ndarray] = []
    lens_parts: list[np.ndarray] = []
    scanned = 0
    total = 0
    while scanned < avail and total <= budget:
        end = min(avail, scanned + chunk)
        apos = buffer.pos[
            buffer.front + scanned: buffer.front + end, anchor_col
        ]
        rs = adj.indptr[apos]
        rl = all_lens[apos]
        if scanned == 0 and buffer.front_offset:
            rs[0] += buffer.front_offset
            rl[0] -= buffer.front_offset
        starts_parts.append(rs)
        lens_parts.append(rl)
        total += int(rl.sum())
        scanned = end

    if starts_parts:
        row_start = np.concatenate(starts_parts)
        row_len = np.concatenate(lens_parts)
    else:
        row_start = np.empty(0, dtype=np.int64)
        row_len = np.empty(0, dtype=np.int64)

    cum = np.cumsum(row_len)
    take_full = int(np.searchsorted(cum, budget, side="right"))
    consumed_new = int(cum[take_full - 1]) if take_full else 0
    partial_take = 0
    if take_full < avail:
        # The scan only stops early once the running total exceeds the
        # budget, so the first not-fully-consumed row is always inside
        # the scanned window.
        partial_take = budget - consumed_new

    starts = row_start[:take_full]
    lens = row_len[:take_full]
    if partial_take > 0:
        starts = np.append(starts, row_start[take_full])
        lens = np.append(lens, np.int64(partial_take))

    idx = _gather_ranges(starts, lens)
    new_pos = adj.targets[idx]
    parent_sel = buffer.front + np.repeat(
        np.arange(len(lens), dtype=np.int64), lens
    )
    pos = np.concatenate(
        [buffer.pos[parent_sel], new_pos[:, None]], axis=1
    )
    new_ids = cst.candidates[u][new_pos]
    ids = np.concatenate(
        [buffer.ids[parent_sel], new_ids[:, None]], axis=1
    )

    # Advance the pop cursor.
    if partial_take > 0:
        if take_full == 0:
            buffer.front_offset += partial_take
        else:
            buffer.front += take_full
            buffer.front_offset = partial_take
    else:
        buffer.front += take_full
        buffer.front_offset = 0

    n_new = len(new_pos)
    return RoundBatch(
        step=step,
        pos=pos,
        ids=ids,
        n_consumed=take_full,
        n_new=n_new,
        n_tasks=n_new * plan.tasks_per_partial(step),
    )


def expand_root(
    cst: CST | PartitionSet, plan: MatchPlan, cursor: int, budget: int
) -> tuple[RoundBatch, int]:
    """Algorithm 4 lines 2-3: stream root candidates into partials.

    Returns the batch and the advanced cursor. Streaming (rather than
    buffering all root candidates) keeps the depth-1 buffer within its
    ``N_o`` bound even when ``|C(root)|`` is large.
    """
    root = plan.order[0]
    cands = cst.candidates[root]
    take = min(budget, len(cands) - cursor)
    new_pos = np.arange(cursor, cursor + take, dtype=np.int64)
    pos = new_pos[:, None]
    ids = cands[new_pos][:, None]
    batch = RoundBatch(
        step=0, pos=pos, ids=ids, n_consumed=0, n_new=take, n_tasks=0
    )
    return batch, cursor + take


def visited_validate(batch: RoundBatch) -> np.ndarray:
    """Algorithm 6: one bit per new partial - new vertex not yet used.

    The columnwise comparison is the simulated form of the array-
    partitioned parallel compare against every element of the partial.
    """
    if batch.step == 0 or batch.n_new == 0:
        return np.ones(batch.n_new, dtype=bool)
    new_ids = batch.ids[:, -1]
    return ~(batch.ids[:, :-1] == new_ids[:, None]).any(axis=1)


def edge_validate(
    cst: CST | PartitionSet, plan: MatchPlan, batch: RoundBatch
) -> np.ndarray:
    """Algorithm 7: one bit per new partial - all non-anchor matched
    neighbours are CST-adjacent to the new candidate.

    Every check is a batched O(1) probe into the (BRAM array-
    partitioned) adjacency of the corresponding query edge; a partial
    fails if any of its tasks fails.
    """
    if batch.n_new == 0:
        return np.ones(0, dtype=bool)
    u = plan.order[batch.step]
    ok = np.ones(batch.n_new, dtype=bool)
    new_pos = batch.pos[:, -1]
    for w, col in plan.checks[batch.step]:
        adj = cst.adjacency[(u, w)]
        ok &= adj.contains_batch(new_pos, batch.pos[:, col])
    return ok


def synchronize(
    batch: RoundBatch, bv: np.ndarray, bn: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Algorithm 8: keep partials whose both bits are set.

    Returns the surviving ``(pos, ids)`` matrices; the engine routes
    them to the next depth buffer or to the result store.
    """
    keep = bv & bn
    return batch.pos[keep], batch.ids[keep]


# ----------------------------------------------------------------------
# Segmented (lockstep) form: many partitions per numpy pass
# ----------------------------------------------------------------------


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    """``cumsum(values) - values``: each segment's start offset."""
    return np.cumsum(values) - values


class SlotBuffers:
    """Per-partition depth buffers of the lockstep engine.

    Depth ``d`` owns a fixed slot of ``capacity`` (``N_o``) rows per
    partition: rows ``p * capacity ..`` of ``pos[d]``/``ids[d]``,
    shaped ``(parts * capacity, d)``. These are the BRAM buffers of
    Section VI-B, one set per partition. A fill scatters a partition's
    survivors into its slot, which is only written when drained, so
    rows are never moved or re-sorted. ``front[d]``/``offset[d]`` are
    the :class:`DepthBuffer` cursors per partition and
    ``remaining[d]`` its unpopped rows; ``remaining[0]`` counts root
    candidates not yet streamed, so the deepest non-zero row of a
    column is that partition's next step. ``root_cursor`` is each
    partition's next root position, from ``root_start``.
    """

    def __init__(self, num_parts: int, num_steps: int, capacity: int,
                 root_total: np.ndarray,
                 root_start: np.ndarray | int) -> None:
        self.capacity = capacity
        shape = (num_steps, num_parts)
        self.remaining = np.zeros(shape, dtype=np.int64)
        self.remaining[0] = root_total
        self.front = np.zeros(shape, dtype=np.int64)
        self.offset = np.zeros(shape, dtype=np.int64)
        self.peak = np.zeros(shape, dtype=np.int64)
        self.root_cursor = np.zeros(num_parts, dtype=np.int64) + root_start
        rows = num_parts * capacity
        self.pos = [np.empty((rows, d), dtype=np.int64)
                    for d in range(num_steps)]
        self.ids = [np.empty((rows, d), dtype=np.int64)
                    for d in range(num_steps)]

    def fill(self, depth: int, group: np.ndarray, owner: np.ndarray,
             counts: np.ndarray, pos: np.ndarray, ids: np.ndarray) -> None:
        """Scatter survivors into their partitions' ``depth`` slots.

        ``owner`` indexes ``group`` per row and ascends; ``counts`` is
        rows per group member. The deepest-first policy only writes a
        drained slot, so each starts over at row 0; a slot still holding
        rows raises :class:`BufferOverflowError`, as
        :meth:`DepthBuffer.fill` does.
        """
        if (self.remaining[depth][group] > 0).any():
            raise BufferOverflowError(
                f"depth-{depth} buffer written while non-empty"
            )
        if len(owner):
            if counts.max() > self.capacity:
                raise BufferOverflowError(
                    f"depth-{depth} buffer received {counts.max()} "
                    f"partials but holds only {self.capacity}"
                )
            rows = np.arange(len(owner)) + (
                group * self.capacity - _exclusive_cumsum(counts)
            )[owner]
            self.pos[depth][rows] = pos
            self.ids[depth][rows] = ids
        self.remaining[depth][group] = counts
        self.front[depth][group] = 0
        self.offset[depth][group] = 0
        peak = self.peak[depth]
        peak[group] = np.maximum(peak[group], counts)


@dataclass
class GroupBatch:
    """One Generator round of every partition of a lockstep group.

    The segmented :class:`RoundBatch`: the rows of group member ``g``
    are contiguous, in the order :func:`generate` emits them for that
    partition alone, and ``owner`` holds ``g`` per row.
    """

    step: int
    pos: np.ndarray          # (rows, step + 1) global candidate positions
    ids: np.ndarray          # (rows, step + 1) data-vertex ids
    owner: np.ndarray        # (rows,) group member of each row
    n_consumed: np.ndarray   # per member: buffer entries fully consumed
    n_new: np.ndarray        # per member: |P_o| of this round


def expand_root_many(
    parts: PartitionSet, plan: MatchPlan, bufs: SlotBuffers,
    group: np.ndarray, budget: int,
) -> GroupBatch:
    """:func:`expand_root` for every partition in ``group`` at once."""
    root = plan.order[0]
    cursor = bufs.root_cursor[group]
    unstreamed = bufs.remaining[0]
    take = np.minimum(budget, unstreamed[group])
    new_pos = _gather_ranges(cursor, take)
    bufs.root_cursor[group] = cursor + take
    unstreamed[group] -= take
    return GroupBatch(
        step=0,
        pos=new_pos[:, None],
        ids=parts.candidates[root][new_pos][:, None],
        owner=np.repeat(np.arange(len(group)), take),
        n_consumed=np.zeros(len(group), dtype=np.int64),
        n_new=take,
    )


def generate_many(
    parts: PartitionSet, plan: MatchPlan, bufs: SlotBuffers,
    group: np.ndarray, step: int, budget: int,
) -> GroupBatch:
    """:func:`generate` for every partition in ``group`` at once.

    Each member pops from its own ``step`` slot under its own
    ``budget``: the take is a segmented cumulative sum over the
    members' unpopped rows, so every member consumes exactly the rows,
    and resumes exactly the partial row, that it would alone.
    """
    u = plan.order[step]
    adj = parts.adjacency[(plan.anchor_vertex[step], u)]
    fronts, offsets, unpopped = (
        bufs.front[step], bufs.offset[step], bufs.remaining[step]
    )
    front = fronts[group]
    offset = offsets[group]
    avail = unpopped[group]
    first = _exclusive_cumsum(avail)
    row_owner = np.repeat(np.arange(len(group)), avail)
    rows = np.arange(len(row_owner)) + (
        group * bufs.capacity + front - first
    )[row_owner]
    slots_pos = bufs.pos[step]
    apos = slots_pos[:, plan.anchor_col[step]][rows]
    row_start = adj.indptr[apos]
    row_len = adj.row_lens_array()[apos]
    row_start[first] += offset
    row_len[first] -= offset

    # Row lengths summed within each member's segment.
    cum = np.cumsum(row_len)
    cum -= (cum[first] - row_len[first])[row_owner]
    fits = cum <= budget
    take_full = np.add.reduceat(fits, first, dtype=np.int64)
    consumed = np.where(
        take_full > 0, cum[np.maximum(first + take_full - 1, 0)], 0
    )
    partial = np.where(take_full < avail, budget - consumed, 0)
    lens = np.where(fits, row_len, 0)
    cut = partial > 0
    lens[(first + take_full)[cut]] = partial[cut]

    idx = _gather_ranges(row_start, lens)
    parent = np.repeat(rows, lens)
    new_pos = adj.targets[idx]
    pos = np.concatenate((slots_pos[parent], new_pos[:, None]), axis=1)
    ids = np.concatenate(
        (bufs.ids[step][parent],
         parts.candidates[u][new_pos][:, None]),
        axis=1,
    )

    # Advance the pop cursors exactly as generate() does per buffer.
    fronts[group] = front + take_full
    offsets[group] = np.where(
        cut, np.where(take_full == 0, offset + partial, partial), 0
    )
    unpopped[group] = avail - take_full
    return GroupBatch(
        step=step,
        pos=pos,
        ids=ids,
        owner=np.repeat(row_owner, lens),
        n_consumed=take_full,
        n_new=np.add.reduceat(lens, first),
    )


def validate_many(
    parts: PartitionSet, plan: MatchPlan, batch: GroupBatch
) -> np.ndarray:
    """Algorithms 6-8 over a group batch: the indices of kept rows.

    The visited bit, then each edge check, narrows the surviving row
    indices, so later probes only see rows still alive; the kept set
    is exactly ``visited_validate & edge_validate``.
    """
    keep = np.arange(len(batch.owner))
    if batch.step == 0 or not len(keep):
        return keep
    ids = batch.ids
    keep = keep[~(ids[:, :-1] == ids[:, -1:]).any(axis=1)]
    u = plan.order[batch.step]
    for w, col in plan.checks[batch.step]:
        adj = parts.adjacency[(u, w)]
        keep = keep[adj.contains_batch(
            batch.pos[keep, -1], batch.pos[keep, col]
        )]
    return keep
