"""Full candidate refinement (the third refinement of DAF's CS).

The paper deliberately *stops* CST refinement after the top-down and
bottom-up passes, arguing the extra pruning of CS is not worth its
construction cost on the host (Section V-A's Remark). This module
implements that extra pruning - iterate to fixpoint removing every
candidate that lacks support on *any* materialised query edge - both to
build a faithful DAF baseline and as an ablation of the paper's
trade-off.

Refinement preserves soundness: a removed candidate has some query
neighbour with no CST-adjacent candidate, so no embedding can use it.
"""

from __future__ import annotations

import numpy as np

from repro.cst.partition import FlatCST, PartitionSet
from repro.cst.structure import CST


def refine_cst(cst: CST, max_passes: int = 10) -> tuple[CST, int]:
    """Prune unsupported candidates to fixpoint.

    Returns the refined CST and the number of passes executed. Each
    pass scans every directed adjacency; a candidate survives only if
    all its rows are non-empty. Stops early at fixpoint. The passes
    run on a keep-mask over ``cst`` (:class:`FlatCST`) and its alive
    entries, and the refined CST is packed once at the end.
    """
    flat = FlatCST(cst)
    mask = np.ones(flat.voff[-1], dtype=bool)
    alive = np.arange(len(flat.src))
    for passes in range(max_passes):
        # A materialised row that lost all its entries kills its
        # source candidate (unmaterialised tree-only edges have none).
        row_lens = np.bincount(flat.rowid[alive], minlength=flat.roff[-1])
        unsupported = flat.row_src[row_lens == 0]
        if not mask[unsupported].any():
            break
        mask[unsupported] = False
        alive = alive[mask[flat.src[alive]] & mask[flat.dst[alive]]]
    else:
        passes = max_passes
    refined = PartitionSet(cst)
    refined.add(flat.node(mask))
    return refined.pack()[0], passes
