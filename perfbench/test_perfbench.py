"""Checks of the benchmark itself; run with ``python -m pytest perfbench``.

The embedding counts the benchmark pins are recomputed here with the
brute-force oracle. That takes about 3.5 s in all on a 2-CPU host,
longer than three set-ups, which is why each run checks against
pinned counts instead of recomputing them.
"""

from __future__ import annotations

import pytest

from layers import Patches, SpanRecorder
from procstat import quantile, tail_quantile
from repro.baselines.reference import count_reference_embeddings
from repro.ldbc.datasets import load_dataset
from repro.ldbc.queries import get_query
from workloads import EXPECTED


@pytest.mark.parametrize("cls", sorted(EXPECTED))
def test_pinned_counts_match_oracle(cls):
    dataset, query, _ = cls
    data = load_dataset(dataset, use_cache=False)
    expected, _ = EXPECTED[cls]
    assert count_reference_embeddings(get_query(query).graph, data.graph) == (
        expected
    )


def test_tail_quantile_needs_ten_samples_beyond():
    assert tail_quantile(list(range(99)), 0.9) is None
    assert tail_quantile(list(range(100)), 0.9) == quantile(list(range(100)), 0.9)
    assert quantile([3.0, 1.0, 2.0], 0.5) == 2.0


class _Layer:
    def outer(self, inner):
        return inner()


def test_self_time_excludes_wrapped_children_and_patches_restore():
    rec = SpanRecorder()
    original = _Layer.__dict__["outer"]
    table = (("test_perfbench", "_Layer.outer", "outer", None),)
    inner = rec.wrap("inner", lambda: sum(range(20000)))
    with Patches(rec, table):
        _Layer().outer(inner)
    assert _Layer.__dict__["outer"] is original
    outer, leaf = rec.stat("outer"), rec.stat("inner")
    assert outer.calls == leaf.calls == 1
    assert outer.self_time == pytest.approx(outer.total - leaf.total)
    assert leaf.self_time == leaf.total
