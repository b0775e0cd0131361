"""Property tests over random inputs: group laws, BSGS, both square roots,
the collision congruence and the walk invariants.

A prime walk stores values together with their symbolic exponent (A, B, k),
and the invariant is v^(2^k) = g^(A*n + B) for every stored value v: on
every trace row and in the history dict, which keeps every segment's start.
The char2 walk stores residue pairs (A, B) mod the odd order N, with
v = g^(A*n + B); its trace rows show (A*2^k, B*2^k, k), for which the
first invariant holds.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlogwalk.gf2m import BinaryFieldParams, gf_mul, gf_sqrt, is_irreducible
from dlogwalk.linexpr import (DegenerateCollisionError, LinExpr,
                              NoSolutionError, collision_solve,
                              enumerate_candidates)
from dlogwalk.oracles import bsgs_dlog
from dlogwalk.primefield import PrimeGroupParams
from dlogwalk.walk import WalkConfig, _Walk

P2003 = PrimeGroupParams(2003, 5)   # 2002 = 2 * 7 * 11 * 13: collatz runs
P257 = PrimeGroupParams(257, 3)     # 256 = 2^8: deep roots; collatz runs
P7340033 = PrimeGroupParams(7340033, 3)  # 7 * 2^20: 20-bit roots; collatz runs
GF27 = BinaryFieldParams(7, 0x83)
GF213 = BinaryFieldParams(13, 0x201B)
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


def _irreducible_at_or_above(m, low):
    """The first irreducible x^m + ... + 1 from x^m + low up, wrapping round."""
    poly = (1 << m) | low % (1 << m) | 1
    while not is_irreducible(poly):
        poly += 2
        if poly >> m != 1:
            poly = (1 << m) | 1
    return poly


def _sqrt_by_squaring(u, params):
    """u^(2^(m-1)) by m - 1 squarings: the root before it became a table."""
    for _ in range(params.m - 1):
        u = gf_mul(u, u, params)
    return u


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=2**64 - 1))
@example(2, 0, 3)           # one partial byte; u up to 2^m - 1 kept as is
@example(7, 0x03, 0x7F)
@example(8, 0x1B, 0xFF)     # exact byte boundaries
@example(16, 0x2B, 0xFFFF)
@example(9, 0x11, 0x1FF)    # one spare bit
@example(17, 0x09, 0x1FFFF)
def test_sqrt_table_matches_repeated_squaring(m, low, u):
    params = BinaryFieldParams(m, _irreducible_at_or_above(m, low))
    u = u % params.order or params.order
    assert gf_sqrt(u, params) == _sqrt_by_squaring(u, params)


@pytest.mark.parametrize("p,a,r", [
    (103, 5, 1), (101, 2, 2), (97, 5, 5), (257, 3, 8), (12289, 11, 12),
    (7340033, 3, 20),
])
def test_c_powers_are_repeated_squares_of_c(p, a, r):
    # every entry of the square-root window tables, against pow(c, ., p)
    params = PrimeGroupParams(p, a)
    c = params.c
    assert params.r == r
    assert pow(c, 2**(r - 1), p) == p - 1  # c has order 2^r exactly
    w, tables = params.sqrt_windows
    if r == 1:  # the half log h < 2^(r-1) is always 0
        assert tables == ()
        return
    count = math.ceil((r - 1) / 11)  # balanced windows of at most 11 bits
    assert w == math.ceil((r - 1) / count)
    assert len(tables) == count
    # the windows cover the r - 1 bits of h, the last one only the bits left
    assert (count - 1) * w < r - 1 <= count * w
    for i, table in enumerate(tables):
        pos = i * w
        bits = min(w, r - 1 - pos)
        assert table == tuple(pow(c, -j * 2**pos, p) for j in range(2**bits))
    if r == 20:
        assert [len(table) for table in tables] == [1024, 512]


EXPRS = st.builds(LinExpr, st.integers(-50, 50), st.integers(-300, 300),
                  st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 400), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6), st.integers(0, 12))
@example(101, 0, -100, 0)   # dec reaches -N exactly: 0
@example(100, -40, 99, 4)   # triple: 3A = -120 and 3B + t = 313 leave (-N, N)
def test_linexpr_ops_closed_form(order, a, b, k):
    # an exponent as the walk keeps it, A and B inside (-N, N), with
    # t = 2^k mod N; each op's result is congruent mod N to its exact
    # closed form, inside (-N, N), and equal to it wherever the closed form
    # with t for 2^k already lies inside
    A, B = a % (2 * order - 1) - order + 1, b % (2 * order - 1) - order + 1
    e, t = LinExpr(A, B, k), pow(2, k, order)
    for got, exact, with_t in (
            (e.dec(t, order), (A, B - 2**k, k), (A, B - t, k)),
            (e.halve(), (A, B, k + 1), (A, B, k + 1)),
            (e.triple_plus_one(t, order), (3 * A, 3 * B + 2**k, k),
             (3 * A, 3 * B + t, k))):
        assert type(got) is LinExpr
        assert got.k == exact[2]
        for x, y, z in zip(got[:2], exact[:2], with_t[:2]):
            assert (x - y) % order == 0
            assert -order < x < order
            if -order < z < order:
                assert x == z

@settings(max_examples=300, deadline=None)
@given(EXPRS, EXPRS, st.integers(min_value=1, max_value=300))
@example(LinExpr(1, -3, 1), LinExpr(2, -6, 2), 102)   # degenerate
@example(LinExpr(0, 5, 0), LinExpr(0, 5 + 102, 0), 102)  # 0*n = 102 = 0: degenerate
@example(LinExpr(0, 5, 0), LinExpr(0, 6, 0), 1)  # order 1: 0 = 0, degenerate
def test_collision_solve_matches_scan(e1, e2, order):
    # e1 = e2 with both sides scaled by 2^K: coef*n = rhs.  A congruence
    # that every n solves (0 = 0 mod N) says nothing about n: degenerate
    big = max(e1.k, e2.k)
    m1, m2 = 1 << (big - e1.k), 1 << (big - e2.k)
    coef, rhs = m1 * e1.A - m2 * e2.A, m2 * e2.B - m1 * e1.B
    scan = [n for n in range(order) if (coef * n - rhs) % order == 0]
    if len(scan) == order:
        with pytest.raises(DegenerateCollisionError):
            collision_solve(e1, e2, order)
    elif not scan:
        with pytest.raises(NoSolutionError):
            collision_solve(e1, e2, order)
    else:
        sol = collision_solve(e1, e2, order)
        assert enumerate_candidates(sol, order, d_max=order) == scan


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([(P2003, "inverse"), (P2003, "collatz"), (GF27, "char2")]),
       EXPONENTS, st.integers(min_value=0, max_value=2**32),
       st.sampled_from([None, 12]))
def test_walk_exponent_invariant(case, n, seed, max_steps):
    # max_steps=12 forces restart segments through the same invariant
    params, variant = case
    n %= params.order
    g = params.generator

    def holds(v, expr):
        A, B, k = expr
        return params.pow(v, 1 << k) == \
            params.pow(g, (A * n + B) % params.order)

    def bounded(expr):  # A and B are kept inside (-N, N)
        A, B, _ = expr
        return -params.order < A < params.order and \
            -params.order < B < params.order

    def pair_holds(v, pair):  # char2 stores residues: v = g^(A*n + B)
        A, B = pair
        return type(pair) is tuple and 0 <= A < params.order and \
            0 <= B < params.order and \
            v == params.pow(g, (A * n + B) % params.order)

    walk = _Walk(params, params.pow(g, n), WalkConfig(
        variant=variant, seed=seed, max_steps=max_steps, trace=True), None)
    result = walk.run()
    for rec in result.trace:
        assert bounded(rec.expr)
        if variant == "char2":  # a row renders into (-N/2, N/2]
            assert 2 * abs(rec.expr.A) < params.order
            assert 2 * abs(rec.expr.B) < params.order
        for v in [rec.result] if rec.roots is None else rec.roots:
            assert holds(v, rec.expr)
    # what the walk stored, which collisions read: every segment's start too
    for v, expr in walk.seen.items():
        if variant == "char2":
            assert pair_holds(v, expr)
        else:  # a plain tuple (A, B, k)
            assert type(expr) is tuple
            assert bounded(expr)
            assert holds(v, expr)
    if result.success:
        assert result.n == n


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([GF27, GF213]), EXPONENTS,
       st.integers(min_value=0, max_value=2**32), st.sampled_from([None, 12]))
def test_char2_rows_render_the_exponent_ops(params, n, seed, max_steps):
    # a char2 row shows its residue pair (A, B) after k roots as
    # (A*2^k, B*2^k, k) reduced into (-N/2, N/2]: the LinExpr ops applied
    # from the segment's start n + j, mod N, with k exact
    order = params.order
    walk = _Walk(params, params.pow(params.generator, n), WalkConfig(
        variant="char2", seed=seed, max_steps=max_steps, trace=True), None)
    draws = [0]
    randrange = walk.rng.randrange
    walk.rng.randrange = lambda n: draws.append(randrange(n)) or draws[-1]
    segment = -1
    for rec in walk.run().trace:
        if rec.segment != segment:
            assert rec.segment == segment + 1
            segment = rec.segment
            expr, t = LinExpr(1, draws[segment], 0), 1
        if rec.branch == "div":
            expr = expr.dec(t, order)
        else:
            expr, t = expr.halve(), 2 * t % order
        assert rec.expr.k == expr.k
        for got, want in zip(rec.expr[:2], expr[:2]):
            assert (got - want) % order == 0
            assert -order < 2 * got <= order


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P2003, P257, P7340033]),
       st.sampled_from(["inverse", "collatz"]), EXPONENTS,
       st.integers(min_value=0, max_value=2**32), st.sampled_from([None, 12]))
@example(P2003, "inverse", 928, 282, None)  # row 21: B - t = -N exactly
def test_prime_rows_follow_the_reference_ops(params, variant, n, seed,
                                             max_steps):
    # the prime segment does its exponent arithmetic inline: each row's
    # (A, B, k) is the LinExpr op of its branch applied to the row before
    # it, or to the segment's start n + j, with t = 2^k mod N, so every
    # reduction lands on the reference op's representative
    order = params.order
    walk = _Walk(params, params.pow(params.generator, n), WalkConfig(
        variant=variant, seed=seed, max_steps=max_steps, trace=True), None)
    draws = [0]
    randrange = walk.rng.randrange
    walk.rng.randrange = lambda n: draws.append(randrange(n)) or draws[-1]
    segment = -1
    for rec in walk.run().trace:
        if rec.segment != segment:
            assert rec.segment == segment + 1
            segment = rec.segment
            expr = LinExpr(1, draws[segment], 0)
        t = pow(2, expr.k, order)
        if rec.branch == "div":
            expr = expr.dec(t, order)
        elif rec.branch == "cube":
            expr = expr.triple_plus_one(t, order)
        else:
            expr = expr.halve()
        assert type(rec.expr) is LinExpr
        assert rec.expr == expr


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P2003, P257]), st.sampled_from(["inverse", "collatz"]),
       EXPONENTS, st.integers(min_value=0, max_value=2**32),
       st.sampled_from([None, 12]))
def test_fallback_step_lands_on_a_residue(params, variant, n, seed, max_steps):
    # division or cubing must leave a residue, so within a segment a
    # div/cube row is always followed by a sqrt row
    target = params.pow(params.generator, n)
    trace = _Walk(params, target, WalkConfig(
        variant=variant, seed=seed, max_steps=max_steps, trace=True),
        None).run().trace
    for rec, nxt in zip(trace, trace[1:]):
        if rec.branch in ("div", "cube") and nxt.segment == rec.segment:
            assert nxt.branch == "sqrt"
            assert nxt.value == rec.result
