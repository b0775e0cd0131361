"""The layer tracer of perfbench/ wraps module attributes of dlogwalk.

A refactor that renames one of those attributes, or binds it somewhere the
tracer cannot replace it (a closure, a default argument), would leave the
traced benchmark silently blind to that layer.  These tests pin the names
and check that a traced solve really calls through them.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from dlogwalk import walk  # noqa: E402
from dlogwalk.gf2m import BinaryFieldParams  # noqa: E402
from dlogwalk.primefield import PrimeGroupParams  # noqa: E402

P2003 = PrimeGroupParams(2003, 5)
GF27 = BinaryFieldParams(7, 0x83)


def test_spanned_names_exist():
    for name, modules in {**tracer.SPANNED, **tracer.COUNTED}.items():
        attr = name.split(".", 1)[1]
        for module in modules:
            assert callable(getattr(module, attr)), (name, module.__name__)


@pytest.mark.parametrize("params,variant,target", [
    (P2003, "inverse", 777),
    (P2003, "collatz", 777),
    (GF27, "char2", 0x1D),
])
def test_traced_solve_calls_through_module_names(params, variant, target):
    t = tracer.Tracer()
    with t.installed():
        result = walk.run_dlog(params, target,
                               walk.WalkConfig(variant=variant, seed=3))
    assert result.success
    assert result.collisions_tested > 0
    assert t.calls["walk.run_dlog"] == 1
    assert t.calls["walk.build_table_one"] == 1
    assert t.calls["linexpr.collision_solve"] == result.collisions_tested
    # the tracer counts a solve only when DlogResult.congruence is the very
    # object collision_solve returned
    assert t.events["linexpr.outcome.solved"] == 1
    if variant == "char2":
        steps = t.calls["gf2m.gf_sqrt"] + t.calls["gf2m.gf_div_by_x"]
        assert steps == result.steps_taken
    else:
        # one root attempt per step, which also decides residuosity
        assert t.calls["primefield.sqrt_mod_p"] == result.steps_taken
        assert t.calls["primefield.legendre"] == 0
    assert t.calls["primefield.mod_pow"] + t.calls["gf2m.gf_pow"] >= \
        result.candidates_tried
