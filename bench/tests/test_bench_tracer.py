import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from tracer import Tracer, aggregate, instrument, roots, self_times  # noqa: E402

# A hand-built tree (times in seconds):
#
#   0 round   [0, 10]
#   1   a     [1, 4]
#   2     b   [2, 3]
#   3   c     [5, 9]
#   4     b   [5, 6]
#   5     b   [8, 9]
#   6 round   [20, 22]   (no children)
NAMES = ["round", "a", "b", "c", "b", "b", "round"]
STARTS = [0.0, 1.0, 2.0, 5.0, 5.0, 8.0, 20.0]
ENDS = [10.0, 4.0, 3.0, 9.0, 6.0, 9.0, 22.0]
PARENTS = [-1, 0, 1, 0, 3, 3, -1]


def test_self_time_subtracts_children():
    assert self_times(STARTS, ENDS, PARENTS) == [3.0, 2.0, 1.0, 2.0, 1.0, 1.0, 2.0]


def test_self_times_of_a_tree_add_up_to_its_root():
    selves = self_times(STARTS, ENDS, PARENTS)
    root_of = roots(PARENTS)
    assert root_of == [0, 0, 0, 0, 0, 0, 6]
    assert sum(s for s, r in zip(selves, root_of) if r == 0) == ENDS[0] - STARTS[0]


def test_aggregate_counts_calls_inclusive_and_self():
    selves = self_times(STARTS, ENDS, PARENTS)
    totals = aggregate(NAMES, STARTS, ENDS, PARENTS, selves, [True] * 6 + [False])
    assert totals["b"].calls == 3
    assert totals["b"].inclusive_s == 3.0
    assert totals["b"].self_s == 3.0
    assert totals["a"].inclusive_s == 3.0 and totals["a"].self_s == 2.0
    assert totals["round"].calls == 1


def test_nested_same_name_counts_inclusive_time_once():
    totals = aggregate(["f", "f"], [0.0, 1.0], [4.0, 2.0], [-1, 0], [3.0, 1.0], [True, True])
    assert totals["f"].calls == 2
    assert totals["f"].inclusive_s == 4.0
    assert totals["f"].self_s == 4.0


def test_wrappers_record_nested_spans_at_every_bound_name():
    lib = types.ModuleType("pkg.lib")
    user = types.ModuleType("pkg.user")

    def inner(x):
        return x + 1

    inner.__module__ = "pkg.lib"
    lib.inner = inner
    lib.__all__ = ["inner"]
    user.inner = inner  # what `from .lib import inner` leaves behind

    def outer(x):
        return user.inner(x) * 2

    outer.__module__ = "pkg.user"
    user.outer = outer
    user.__all__ = ["outer", "inner"]

    tracer = Tracer()
    assert instrument(tracer, [lib, user]) == ["lib.inner", "user.outer"]
    assert user.inner is lib.inner
    with tracer.span("round"):
        assert user.outer(1) == 4
    assert tracer.names == ["round", "user.outer", "lib.inner"]
    assert list(tracer.parents) == [-1, 0, 1]
    assert all(e >= s for s, e in zip(tracer.starts, tracer.ends))


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert tracer.ends[0] >= tracer.starts[0] and not tracer._open
