"""parts.map_spans: how far work splits, and that its spans cover the
units once, in order."""

import pytest

from signconj.parts import map_spans
from splitting import assert_all_reaped, on_cpus, split_test


def _pow2_at_most(k):
    return 1 << (k.bit_length() - 1)


@split_test
@pytest.mark.parametrize("cpus", [1, 2, 4, 64])
@pytest.mark.parametrize(
    "count, least", [(0, 1), (1, 1), (7, 4), (8, 4), (16, 8), (33, 1), (40, 3), (40, 50)]
)
def test_spans_cover_the_units_in_order(cpus, count, least):
    with on_cpus(cpus) as (_, forks):
        spans = map_spans(list, range(count), least)
    assert_all_reaped()
    assert [unit for span in spans for unit in span] == list(range(count))
    quotient = count // least
    expected = min(_pow2_at_most(cpus), _pow2_at_most(quotient)) if quotient >= 2 else 1
    assert len(forks) == expected - 1
    assert len(spans) == expected
    if expected > 1:
        assert min(map(len, spans)) >= least


@split_test
@pytest.mark.parametrize("cpus", [2, 4])
def test_nested_spans_fork_nothing(cpus):
    # each span, in the parent and in the children, splits its own units
    # again as one span
    with on_cpus(cpus) as (_, forks):
        nested = map_spans(lambda span: len(map_spans(list, span, 1)), range(64), 1)
    assert_all_reaped()
    assert nested == [1] * cpus
    assert len(forks) == cpus - 1
    # once the outer call returns, a call splits again
    with on_cpus(cpus) as (_, forks):
        assert len(map_spans(list, range(64), 1)) == cpus
    assert len(forks) == cpus - 1
    assert_all_reaped()
