import gc
import math
from types import SimpleNamespace

import pytest

from replay_layers import bits, replay


@pytest.fixture
def no_full_collections(monkeypatch):
    """A replay collects garbage before each timed run; over a full test
    session's heap that takes far longer than the toy layers below."""
    monkeypatch.setattr(gc, "collect", lambda: 0)


def test_bits_accept_equal_values_and_flag_each_kind_of_difference():
    weights = [1.5 + 0.25j, complex(-0.0, 2.0)]
    traces = [{"a": 1 + 1j, "ab": 0.5 + 0j}, {}]
    assert bits([weights, traces]) == bits([list(weights), [dict(t) for t in traces]])
    one_ulp = [{"a": 1 + 1j, "ab": complex(math.nextafter(0.5, 1.0), 0.0)}, {}]
    assert bits(traces) != bits(one_ulp)
    reordered = [{"ab": 0.5 + 0j, "a": 1 + 1j}, {}]
    assert reordered == traces and bits(reordered) != bits(traces)
    assert bits(weights) != bits([1.5 + 0.25j, complex(0.0, 2.0)])  # -0.0 is no 0.0
    assert bits(weights) != bits([1.5 + 0.25j, complex(-0.0, 2.5)])


def _toy_layers(scale):
    """One layer whose calls double a number, and one whose calls scale it."""
    return {
        "doubled": (lambda cs, xs: [(cs.double, (x,)) for x in xs], [1.0, 2.0]),
        "scaled": (lambda cs, xs: [(cs.scale, (x,)) for x in xs], [3.0]),
    }


def _tree(factor):
    return SimpleNamespace(double=lambda x: 2 * x, scale=lambda x: factor * x)


def test_one_round_prints_the_comparison_and_no_summary(capsys, no_full_collections):
    assert replay({"parent": _tree(3.0), "change": _tree(3.0)}, _toy_layers(3.0), 1)
    assert capsys.readouterr().out == ("doubled: 2 calls, values bitwise equal\n"
                                       "scaled: 1 calls, values bitwise equal\n")


def test_a_differing_layer_is_named_and_summarized_from_two_rounds(capsys,
                                                                   no_full_collections):
    assert not replay({"parent": _tree(3.0), "change": _tree(3.0000001)}, _toy_layers(3.0), 2)
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "doubled: 2 calls, values bitwise equal"
    assert out[2] == "scaled: 1 calls, values DIFFER between the trees"
    assert out[1].startswith("  ms: ") and "wins" in out[3]
