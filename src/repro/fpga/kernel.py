"""The FAST kernel modules (Algorithms 4-8), batch-vectorised.

The paper decomposes matching into *Generator*, *Visited Validator*,
*Edge Validator* and *Synchronizer* so that each step processes
thousands of partial results per round with no loop-carried
dependencies. :func:`expand` runs exactly those four steps over one
slice of a search-space level: the Generator gathers every child
(Algorithm 5, or the root stream of Algorithm 4 lines 2-3), the
visited bit (Algorithm 6) and each edge probe (Algorithm 7) narrow the
kept rows, and the survivors are what the Synchronizer (Algorithm 8)
routes on. Which rounds a slice belongs to, and in what order the
device runs them, is the engine's job.

Everything is positional: a partial result is a row of candidate
*positions* aligned with the matching order, plus the parallel row of
data-vertex ids used for the visited check. Positions are set-wide: a
:class:`~repro.cst.partition.PartitionSet` keeps every partition in
its own blocks of one block-diagonal layout, so a slice may hold
partials of many partitions at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.common.errors import QueryError
from repro.cst.partition import PartitionSet
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


def _gather_ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lens[i])`` segments."""
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    shift = np.concatenate(
        ([np.int64(0)], np.cumsum(lens[:-1], dtype=np.int64))
    )
    return np.repeat(starts - shift, lens) + np.arange(total, dtype=np.int64)


def expand(
    parts: PartitionSet, plan: MatchPlan, step: int,
    pos: np.ndarray, ids: np.ndarray, starts: np.ndarray, lens: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithms 5-8 over one slice of step ``step``.

    Row ``e`` of ``pos``/``ids`` (``step`` columns each) extends by the
    ``lens[e]`` candidates from index ``starts[e]`` of its anchor
    adjacency's targets, or, at step 0, by the root positions
    ``starts[e] ..``. Returns the kept children's indices among all
    the slice's children, in order, and their ``pos``/``ids`` rows.
    The visited bit, then each edge check, narrows the kept indices,
    so later probes only see rows still alive.
    """
    u = plan.order[step]
    idx = _gather_ranges(starts, lens)
    parent = np.repeat(np.arange(len(lens)), lens)
    new_pos = (
        parts.adjacency[(plan.anchor_vertex[step], u)].targets[idx]
        if step else idx
    )
    new_ids = parts.candidates[u][new_pos]
    keep = np.arange(len(idx))
    if step:
        keep = keep[(ids[parent] != new_ids[:, None]).all(axis=1)]
    for w, col in plan.checks[step]:
        keep = keep[parts.adjacency[(u, w)].contains_batch(
            new_pos[keep], pos[parent[keep], col]
        )]
    rows = parent[keep]
    return (
        keep,
        np.column_stack((pos[rows], new_pos[keep])),
        np.column_stack((ids[rows], new_ids[keep])),
    )
