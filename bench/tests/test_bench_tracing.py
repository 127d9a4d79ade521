import math
from collections import defaultdict

import pytest

import tracing
from tracing import COUNT_SPAN, Tracer, self_times
from workloads import WORKLOADS, Outcome


def test_self_time_on_hand_built_tree():
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["b", 2.0, 3.0, 1, "r"],
        ["c", 5.0, 9.0, 0, "r"],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ["root", 0.0, 10.0, -1, "r"],
        ["a", 1.0, 4.0, 0, "r"],
        ["b", 3.0, 6.0, 0, "r"],       # overlaps a on [3, 4]
        ["c", 8.0, 12.0, 0, "r"],      # runs past its parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


class _Box:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    @classmethod
    def make(cls):
        return cls()


def test_wrappers_record_nesting_and_are_removed():
    lookup = {"fn": lambda x: x + 1}
    originals = (vars(_Box)["outer"], vars(_Box)["inner"],
                 vars(_Box)["make"], lookup["fn"])
    seen = []
    patches = (
        ("box.outer", _Box, "outer", None),
        ("box.inner", _Box, "inner",
         lambda add, parent, args, result: (seen.append(parent),
                                            add("box.items", args[1]))),
        ("box.make", _Box, "make", None),
        ("dict.fn", lookup, "fn", None),
    )
    tracer = Tracer(patches)
    with tracer.installed("op1"):
        assert _Box.make().outer(3) == 7
        assert lookup["fn"](1) == 2
    assert (vars(_Box)["outer"], vars(_Box)["inner"], vars(_Box)["make"],
            lookup["fn"]) == originals
    assert _Box().outer(3) == 7

    names = [span[0] for span in tracer.spans]
    assert names == ["box.make", "box.outer", "box.inner", COUNT_SPAN, "dict.fn"]
    parents = {span[0]: span[3] for span in tracer.spans}
    assert parents["box.inner"] == names.index("box.outer")
    assert parents[COUNT_SPAN] == names.index("box.outer")
    assert seen == ["box.outer"]
    totals = tracer.layer_totals()["op1"]
    assert totals["box.items"] == 3
    assert totals["box.inner_calls"] == 1
    assert all(span[4] == "op1" for span in tracer.spans)


def _patched_objects():
    # raises KeyError when lrmt renames or moves a traced function
    return [tracing._lookup(owner, attr) for _, owner, attr, _ in tracing.PATCHES]


@pytest.mark.parametrize("name, key", [
    ("train", "valid_loss"), ("infer", "bleu"), ("sequential", "bleu"),
])
def test_traced_and_untraced_operations_agree_bit_for_bit(name, key, tmp_path):
    workload = WORKLOADS[name]()
    state = workload.setup(3, tmp_path)
    originals = _patched_objects()
    tracer = Tracer()
    outcome = Outcome()
    samples = {False: defaultdict(list), True: defaultdict(list)}
    for traced in (False, True):
        if traced:
            with tracer.installed("op"):
                result = workload.run(state)
        else:
            result = workload.run(state)
        workload.check(state, result, 1.0, outcome, samples[traced])
    assert all(a is b for a, b in zip(_patched_objects(), originals))
    assert outcome.failed == 0, outcome.problems
    untraced, traced = samples[False][key], samples[True][key]
    assert untraced == traced and math.isfinite(untraced[0])
    totals = tracer.layer_totals()["op"]
    assert totals and all(v >= 0 for v in totals.values())
