"""The layer tracer of perfbench/ wraps module attributes of dlogwalk.

A refactor that renames one of those attributes, or binds it somewhere the
tracer cannot replace it (a closure, a default argument), would leave the
traced benchmark silently blind to that layer.  These tests pin the names
and check that a traced solve really calls through them, as often as its
steps and collisions say: on the benchmark's three groups, on two small
ones, and on a restarted walk whose collisions do not all solve.  They
are the one statement of that call-path contract.  A prime walk's
root in the odd part (2-Sylow log 0) is a product of window-table lookups
built from the walk's exponent, not a call, so sqrt_mod_p is called
exactly on the root rows whose value has a nonzero log: none on an r = 1
prime.  That every root, called or not, is
right is checked by tests/test_properties.py::test_walk_matches_the_reference,
whose reference walk takes each root from sqrt_mod_p with a searched log.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracer  # noqa: E402
from dlogwalk import walk  # noqa: E402
from dlogwalk.gf2m import BinaryFieldParams  # noqa: E402
from dlogwalk.linexpr import LinExpr  # noqa: E402
from dlogwalk.primefield import PrimeGroupParams, sylow_log  # noqa: E402

P2003 = PrimeGroupParams(2003, 5)
P7340033 = PrimeGroupParams(7340033, 3)    # the benchmark's prime_2adic
P16776899 = PrimeGroupParams(16776899, 2)  # the benchmark's prime_safe24
GF27 = BinaryFieldParams(7, 0x83)
GF219 = BinaryFieldParams(19, 0x80027)     # the benchmark's char2_m19


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


# group, variant, target, and None or a max_steps that restarts the walk
SOLVES = [
    (P2003, "inverse", 777, None),
    (P2003, "collatz", 777, None),
    (GF27, "char2", 0x1D, None),
    (P7340033, "inverse", 777, None),
    (P7340033, "collatz", 777, None),
    (P16776899, "inverse", 777, None),
    (P16776899, "collatz", 777, None),
    (GF219, "char2", 777, None),
    # 4 restarts, and 2 degenerate collisions before the one that solves
    (GF27, "char2", 0x1D, 7),
]


@pytest.mark.parametrize(
    "params,variant,target,max_steps", SOLVES,
    ids=[f"params{i}-{variant}-{target}" + (f"-max{cap}" if cap else "")
         for i, (_, variant, target, cap) in enumerate(SOLVES)])
def test_traced_solve_calls_through_module_names(params, variant, target,
                                                 max_steps):
    t = tracer.Tracer()
    with t.installed():
        result = walk.run_dlog(params, target,
                               walk.WalkConfig(variant=variant, seed=3,
                                               max_steps=max_steps,
                                               trace=True))
    assert result.success
    assert result.collisions_tested > 0
    assert t.calls["walk.run_dlog"] == 1
    assert t.calls["walk.build_table_one"] == 1
    assert t.calls["linexpr.collision_solve"] == result.collisions_tested
    # the tracer counts a solve only when DlogResult.congruence is the very
    # object collision_solve returned
    assert t.events["linexpr.outcome.solved"] == 1
    # the true n solves every collision, so none is spurious, and the walk
    # walks past only degenerate ones and those with too many candidates
    assert t.events["linexpr.outcome.spurious"] == 0
    walked_past = sum(t.events[f"linexpr.outcome.{kind}"]
                      for kind in ("degenerate", "toomany"))
    assert walked_past + 1 == result.collisions_tested
    # a restarted walk meets collisions that do not solve too
    assert (walked_past > 0) == (result.restarts > 0) == (max_steps is not None)
    # the exponent is an (A, B, k) tuple in locals, on either field, so
    # no LinExpr op runs
    assert sum(t.calls[f"linexpr.LinExpr.{method}"]
               for method in tracer.LINEXPR_METHODS) == 0
    if variant == "char2":
        # every step is one field op through a spanned name
        steps = t.calls["gf2m.gf_sqrt"] + t.calls["gf2m.gf_div_by_x"]
        assert steps == result.steps_taken
        assert t.calls["primefield.sqrt_mod_p"] == 0
    else:
        # the walk knows every value's 2-Sylow log, so a root is taken on
        # exactly the root rows; one in the odd part (log 0) is a product
        # of window-table entries from the walk's exponent, and
        # sqrt_mod_p computes every other
        roots = [rec.value for rec in result.trace if rec.branch == "sqrt"]
        assert 0 < len(roots) < result.steps_taken
        called = sum(sylow_log(value, params) != 0 for value in roots)
        assert t.calls["primefield.sqrt_mod_p"] == called
        # r = 1: every root is in the odd part
        assert (called == 0) == (params.r == 1)
        assert t.calls["primefield.legendre"] == 0
    assert t.calls["primefield.mod_pow"] + t.calls["gf2m.gf_pow"] >= \
        result.candidates_tried
