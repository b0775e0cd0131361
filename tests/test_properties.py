"""Property tests over random inputs: group laws, BSGS and the walk invariant.

Each walk stores values together with their symbolic exponent (A, B, k),
and the invariant is v^(2^k) = g^(A*n + B) for every stored value v.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from dlogwalk.gf2m import BinaryFieldParams
from dlogwalk.oracles import bsgs_dlog
from dlogwalk.primefield import PrimeGroupParams
from dlogwalk.walk import WalkConfig, run_dlog

P2003 = PrimeGroupParams(2003, 5)   # 2002 = 2 * 7 * 11 * 13: collatz runs
GF27 = BinaryFieldParams(7, 0x83)
GROUPS = st.sampled_from([P2003, GF27])
EXPONENTS = st.integers(min_value=0, max_value=10**6)


@settings(max_examples=100, deadline=None)
@given(GROUPS, EXPONENTS, EXPONENTS)
def test_pow_adds_exponents(params, a, b):
    g = params.generator
    assert params.mul(params.pow(g, a), params.pow(g, b)) == params.pow(g, a + b)


@settings(max_examples=100, deadline=None)
@given(GROUPS, EXPONENTS)
def test_format_parse_roundtrip(params, e):
    u = params.pow(params.generator, e)
    assert params.parse(params.format(u)) == u


@settings(max_examples=50, deadline=None)
@given(GROUPS, EXPONENTS)
def test_bsgs_recovers_exponent(params, n):
    assert bsgs_dlog(params, params.pow(params.generator, n)).n == n % params.order


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(P2003, "inverse"), (P2003, "collatz"), (GF27, "char2")]),
       EXPONENTS, st.integers(min_value=0, max_value=2**32),
       st.sampled_from([None, 12]))
def test_walk_exponent_invariant(case, n, seed, max_steps):
    # max_steps=12 forces restart segments through the same invariant
    params, variant = case
    n %= params.order
    g = params.generator
    result = run_dlog(params, params.pow(g, n), WalkConfig(
        variant=variant, seed=seed, max_steps=max_steps, trace=True))
    for rec in result.trace:
        expected = params.pow(g, (rec.expr.A * n + rec.expr.B) % params.order)
        for v in [rec.result] if rec.roots is None else rec.roots:
            assert params.pow(v, 1 << rec.expr.k) == expected
    if result.success:
        assert result.n == n
