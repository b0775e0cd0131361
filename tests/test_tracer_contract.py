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
from dlogwalk.linexpr import LinExpr  # noqa: E402
from dlogwalk.primefield import PrimeGroupParams  # noqa: E402

P2003 = PrimeGroupParams(2003, 5)
P7340033 = PrimeGroupParams(7340033, 3)    # the benchmark's prime_2adic
P16776899 = PrimeGroupParams(16776899, 2)  # the benchmark's prime_safe24
GF27 = BinaryFieldParams(7, 0x83)


def test_spanned_names_exist():
    for name, modules in {**tracer.SPANNED, **tracer.COUNTED}.items():
        attr = name.split(".", 1)[1]
        for module in modules:
            assert callable(getattr(module, attr)), (name, module.__name__)
    # the tracer replaces the exponent ops on the class with setattr
    for method in tracer.LINEXPR_METHODS:
        original = getattr(LinExpr, method)
        assert callable(original), method
        setattr(LinExpr, method, lambda self: None)
        try:
            assert getattr(LinExpr(), method)() is None, method
        finally:
            setattr(LinExpr, method, original)
        assert getattr(LinExpr, method) is original, method


@pytest.mark.parametrize("params,variant,target", [
    (P2003, "inverse", 777),
    (P2003, "collatz", 777),
    (GF27, "char2", 0x1D),
    (P7340033, "inverse", 777),
    (P7340033, "collatz", 777),
    (P16776899, "inverse", 777),
    (P16776899, "collatz", 777),
])
def test_traced_solve_calls_through_module_names(params, variant, target):
    t = tracer.Tracer()
    with t.installed():
        result = walk.run_dlog(params, target,
                               walk.WalkConfig(variant=variant, seed=3,
                                               trace=True))
    assert result.success
    assert result.collisions_tested > 0
    assert t.calls["walk.run_dlog"] == 1
    assert t.calls["walk.build_table_one"] == 1
    assert t.calls["linexpr.collision_solve"] == result.collisions_tested
    # the tracer counts a solve only when DlogResult.congruence is the very
    # object collision_solve returned
    assert t.events["linexpr.outcome.solved"] == 1
    # the exponent is a residue pair (char2) or an (A, B, k) tuple (prime)
    # in locals, so no LinExpr op runs
    assert sum(t.calls[f"linexpr.LinExpr.{method}"]
               for method in tracer.LINEXPR_METHODS) == 0
    if variant == "char2":
        # every step is one field op through a spanned name
        steps = t.calls["gf2m.gf_sqrt"] + t.calls["gf2m.gf_div_by_x"]
        assert steps == result.steps_taken
    else:
        # the walk knows every value's 2-Sylow log, so a root is computed
        # on exactly the root steps
        attempts = sum(rec.branch == "sqrt" for rec in result.trace)
        assert t.calls["primefield.sqrt_mod_p"] == attempts
        assert 0 < attempts < result.steps_taken
        assert t.calls["primefield.legendre"] == 0
    assert t.calls["primefield.mod_pow"] + t.calls["gf2m.gf_pow"] >= \
        result.candidates_tried
