"""Property tests over random inputs: group laws, BSGS, both square roots,
the collision congruence, Table I and the walk invariants, on fixed groups
and on random ones.

A prime walk stores values together with their symbolic exponent (A, B, k),
and the invariant is v^(2^k) = g^(A*n + B) for every stored value v: on
every trace row and in the history dict, which keeps every segment's start.
The char2 walk carries t = 2^k mod the odd order N, doubled on every root,
and stores (A, B, k) with A = 1 (0 in Table I).  On either field a trace row
shows the (A, B, k) the walk stored.
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
from dlogwalk.primefield import (PrimeGroupParams, check_generator,
                                 is_probable_prime, jacobi, prime_factors)
from dlogwalk.walk import (VARIANTS, UnsupportedGroupError, WalkConfig, _Walk,
                           build_table_one)

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
@example(11, 0x05, 0x7FF)   # exact 11-bit window boundaries
@example(22, 0x03, 0x3FFFFF)
@example(12, 0x53, 0xFFF)   # one spare bit past a window
@example(23, 0x21, 0x7FFFFF)
def test_sqrt_table_matches_repeated_squaring(m, low, u):
    params = BinaryFieldParams(m, _irreducible_at_or_above(m, low))
    u = u % params.order or params.order
    assert gf_sqrt(u, params) == _sqrt_by_squaring(u, params)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=64),
       st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=2**64 - 1),
       st.integers(min_value=1, max_value=2**70))
@example(11, 0x05, 0x7FF, 2)
@example(22, 0x03, 0x3FFFFF, 2**22)
@example(23, 0x21, 0x7FFFFF, 2**23 - 1)
def test_table_square_and_pow_match_gf_mul(m, low, u, e):
    # gf_pow squares through params.square_tables and multiplies by u:
    # u^2 = u * u, and u^e = u^(e-1) * u for exponents past the order too
    params = BinaryFieldParams(m, _irreducible_at_or_above(m, low))
    u = u % params.order or params.order
    assert params.pow(u, 2) == gf_mul(u, u, params)
    assert params.pow(u, e) == gf_mul(params.pow(u, e - 1), u, params)


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
    tables = params.sqrt_tables
    # the derived sign bit of sqrt_mod_p: the top bit of a log
    assert params.sqrt_top == 2**(r - 1)
    if r == 1:  # the half log h < 2^(r-1) is always 0
        assert tables == ()
        return
    # 11-bit windows, as gf2m's tables have: they cover the r - 1 bits of
    # h, the last one only the bits left
    assert len(tables) == math.ceil((r - 1) / 11)
    for i, table in enumerate(tables):
        assert len(table) == 2**min(11, r - 1 - 11 * i)
        for b, entry in enumerate(table):
            assert entry == pow(c, -(b << 11 * i), p), (i, b)
    if r == 20:
        assert [len(table) for table in tables] == [2048, 256]


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
# a division there lands B on exactly -N, which must wrap to 0
@example((GF27, "char2"), 5, 28, None)
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

    walk = _Walk(params, params.pow(g, n), WalkConfig(
        variant=variant, seed=seed, max_steps=max_steps, trace=True), None)
    result = walk.run()
    for rec in result.trace:
        assert bounded(rec.expr)
        for v in [rec.result] if rec.roots is None else rec.roots:
            assert holds(v, rec.expr)
    # what the walk stored, which collisions read: every segment's start too
    for v, expr in walk.seen.items():  # a plain tuple (A, B, k)
        assert type(expr) is tuple
        assert bounded(expr)
        assert holds(v, expr)
        if variant == "char2":  # no op touches A: 1, or 0 in Table I
            assert expr[0] in (0, 1)
    if result.success:
        assert result.n == n


def _check_rows_follow_the_reference_ops(params, variant, n, seed,
                                         max_steps):
    # both segments do their exponent arithmetic inline: each row's
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
@given(st.sampled_from([GF27, GF213]), EXPONENTS,
       st.integers(min_value=0, max_value=2**32), st.sampled_from([None, 12]))
@example(GF27, 5, 28, None)  # a division: B - t = -N exactly
def test_char2_rows_render_the_exponent_ops(params, n, seed, max_steps):
    # a char2 row shows the (A, B, k) the walk stored, as a prime row does
    _check_rows_follow_the_reference_ops(params, "char2", n, seed, max_steps)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([P2003, P257, P7340033]),
       st.sampled_from(["inverse", "collatz"]), EXPONENTS,
       st.integers(min_value=0, max_value=2**32), st.sampled_from([None, 12]))
@example(P2003, "inverse", 928, 282, None)  # row 21: B - t = -N exactly
@example(P2003, "collatz", 1944, 399, None)  # row 22: 3B + t = N exactly
def test_prime_rows_follow_the_reference_ops(params, variant, n, seed,
                                             max_steps):
    _check_rows_follow_the_reference_ops(params, variant, n, seed, max_steps)


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


# -- random groups ---------------------------------------------------------

def _prime_group(p):
    """Z_p^* for the largest prime at or below p >= 3, with its least
    primitive root: the first non-square a that `check_generator` passes
    against `prime_factors` of the order."""
    while not is_probable_prime(p):
        p -= 1
    factors = prime_factors(p - 1)
    for a in range(2, p):
        if jacobi(a, p) == -1:
            params = PrimeGroupParams(p, a)
            try:
                check_generator(params, factors)
            except ValueError:
                continue
            return params


def _binary_group(m, low):
    """GF(2^m) mod the first irreducible at or above x^m + low, wrapping
    round, in which x is primitive."""
    factors = prime_factors((1 << m) - 1)
    while True:
        params = BinaryFieldParams(m, _irreducible_at_or_above(m, low))
        try:
            check_generator(params, factors)
        except ValueError:
            low = params.poly + 2
            continue
        return params


GROUPS_AT_RANDOM = st.one_of(
    st.builds(_prime_group, st.integers(min_value=3, max_value=2**20 - 1)),
    st.builds(_binary_group, st.integers(min_value=2, max_value=16),
              st.integers(min_value=0, max_value=2**16 - 1)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(GROUPS_AT_RANDOM, st.integers(min_value=0, max_value=2**20),
       st.integers(min_value=0, max_value=2**32))
@example(_prime_group(3), 1, 0)           # the smallest group: N = 2
@example(_prime_group(1019), 500, 0)      # r = 1: p = 3 (mod 4)
@example(_prime_group(786433), 12345, 0)  # r = 18 (p = 3 * 2^18 + 1), 3 | N
@example(_prime_group(257), 200, 1)       # s = 1: p - 1 = 2^8
@example(_prime_group(65537), 4242, 2)    # s = 1: p - 1 = 2^16
@example(_prime_group(1009), 77, 3)       # p = 1 (mod 3): no collatz
@example(_binary_group(2, 0), 2, 0)       # GF(4): N = 3
@example(_binary_group(16, 0), 54321, 0)  # N = 65535 = 3 * 5 * 17 * 257
def test_random_group_table_one_and_every_variant(params, n, seed):
    # Table I holds the order's bit length of squares g^(2^j), distinct
    order, g = params.order, params.generator
    table = build_table_one(params)
    assert len(table) == order.bit_length()
    for v, k in table.items():
        assert params.pow(g, k) == v
    # every variant the group runs solves, as BSGS does, and stores only
    # exponents that hold; every other variant is refused
    n %= order
    target = params.pow(g, n)
    assert bsgs_dlog(params, target).n == n
    for variant in VARIANTS:
        config = WalkConfig(variant=variant, seed=seed)
        if variant not in params.variants:
            with pytest.raises(UnsupportedGroupError):
                _Walk(params, target, config, None)
            continue
        walk = _Walk(params, target, config, None)
        assert walk.run().n == n, variant
        for v, (A, B, k) in walk.seen.items():
            assert params.pow(v, 1 << k) == params.pow(g, (A * n + B) % order)
