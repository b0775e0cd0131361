"""Property tests over random inputs: group laws, format and parse, the
GF(2^m) root and square tables, the prime root tables, the LinExpr ops and
the collision congruence against their closed forms and a scan, Table I
and the walk invariants, on fixed groups and on random ones.

A prime walk stores values together with their symbolic exponent (A, B, k),
and the invariant is v^(2^k) = g^(A*n + B) for every stored value v: on
every trace row and in the history dict, which keeps every segment's start,
with A and B inside (-N, N).  The char2 walk carries t = 2^k mod the odd
order N, doubled on every root, and stores (A, B, k) with A = 1 (0 in
Table I).  test_walk_exponent_invariant checks it on trace rows and
history of random walks, restarted ones included, and on p = 7340033
(r = 20) with 12-step segments, the r >= 2 input of the walk tests it
replaced.

On random groups, every variant the group runs solves and stores only
exponents that hold, 3x+1 runs exactly where 3 does not divide N (p = 3
included), and every other variant is refused.

The walk's oracle is tests/reference_walk.py, the walk written from the
paper: `_Walk` must give its DlogResult, every trace row included, and its
history, on random groups and walks, and on examples past their reach: the
benchmark's groups, p = 2013265921, GF(2^31), two primes near 2^61, and on
p = 257 a restarted segment where t = 2^8 = N must wrap to 0.  Every target
must equal `power`'s, and every solve the drawn n.  It is the walk's one
test of solves, determinism, budgets, restarts, D_MAX and scale, and
test_walk.py keeps what it cannot show.  The reference replays the five
worked examples.
"""

import math
import random
import re
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dlogwalk import walk
from dlogwalk.gf2m import BinaryFieldParams, gf_mul, gf_sqrt
from dlogwalk.linexpr import (DegenerateCollisionError, LinExpr,
                              NoSolutionError, collision_solve,
                              enumerate_candidates)
from dlogwalk.oracles import bsgs_dlog
from dlogwalk.primefield import (PrimeGroupParams, is_probable_prime,
                                 prime_factors)
from dlogwalk.selftest import CASES
from dlogwalk.walk import (D_MAX, VARIANTS, DecisionsExhaustedError,
                           UnsupportedGroupError, WalkConfig, _Walk,
                           build_table_one)
from reference_walk import (_poly_gcd, gf_pow_reference, is_irreducible,
                            power, reference_walk)

P2003 = PrimeGroupParams(2003, 5)   # 2002 = 2 * 7 * 11 * 13: collatz runs
P7340033 = PrimeGroupParams(7340033, 3)  # 7 * 2^20: 20-bit roots
# r = 1, so every root is in the odd part, with s = 524285 read in three
# 8-bit windows of each exponent
P1048571 = PrimeGroupParams(1048571, 2)
P257 = PrimeGroupParams(257, 3)  # s = 1: the odd part is {1}
GF27 = BinaryFieldParams(7, 0x83)
P16776899 = PrimeGroupParams(16776899, 2)  # the benchmark's groups
GF219 = BinaryFieldParams(19, 0x80027)
P2013265921 = PrimeGroupParams(2013265921, 31, (2, 3, 5))
GF231 = BinaryFieldParams(31, 0x80000009)
M61 = PrimeGroupParams(2**61 - 1, 37, (2, 3, 5, 7, 11, 13, 31, 41, 61, 151,
                                       331, 1321))
P2305843009213693907 = PrimeGroupParams(2305843009213693907, 2,
                                        (2, 11, 83, 215833, 5850744257))
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


# x^(2^i) - x is the product of the irreducibles whose degree divides i, so
# (x^16 - x)/x * (x^8 - x)/(x^2 - x) = (x^15 + 1)(x^6 + ... + x + 1) is the
# product of every irreducible of degree 1 to 4 but x
_SMALL_FACTORS = 0x7F << 15 | 0x7F


def _irreducible_at_or_above(m, low):
    """The first irreducible x^m + ... + 1 from x^m + low up, wrapping round.
    Ben-Or's test runs only on a candidate with an odd number of terms (else
    x + 1 divides it) and, past degree 4, no factor of degree 1 to 4."""
    poly = (1 << m) | low % (1 << m) | 1
    while (poly.bit_count() % 2 == 0
           or m > 4 and _poly_gcd(poly, _SMALL_FACTORS) != 1
           or not is_irreducible(poly)):
        poly += 2
        if poly >> m != 1:
            poly = (1 << m) | 1
    return poly


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
    params = _binary_group(m, low)
    u = u % params.order or params.order
    # u^(2^(m-1)), the root before it became a table
    assert gf_sqrt(u, params) == gf_pow_reference(u, 1 << (params.m - 1),
                                                  params)


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
    params = _binary_group(m, low)
    u = u % params.order or params.order
    assert params.pow(u, 2) == gf_mul(u, u, params)
    assert params.pow(u, e) == gf_mul(params.pow(u, e - 1), u, params)


@pytest.mark.parametrize("p,a,r", [
    (103, 5, 1), (101, 2, 2), (97, 5, 5), (257, 3, 8), (12289, 11, 12),
    (7340033, 3, 20), (2013265921, 31, 27),
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
    if r == 27:  # the one shape with a third window
        assert [len(table) for table in tables] == [2048, 2048, 16]


EXPRS = st.builds(LinExpr, st.integers(-50, 50), st.integers(-300, 300),
                  st.integers(0, 8))


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 400), st.integers(-10**6, 10**6),
       st.integers(-10**6, 10**6), st.integers(0, 12))
@example(101, 0, -100, 0)   # dec reaches -N exactly: 0
@example(100, -40, 99, 4)   # triple: 3A = -120 and 3B + t = 313 leave (-N, N)
# triple's reductions at their exact boundaries: 3A = -N and 3A = N (A = -34
# and 34, N = 102), 3B + t = N (B = 33, N = 100) and -N (B = -34, N = 101)
@example(102, 67, 0, 0)
@example(102, 135, 0, 0)
@example(100, 0, 132, 0)
@example(101, 0, 66, 0)
def test_linexpr_ops_closed_form(order, a, b, k):
    # the one closed-form check of dec, halve and triple_plus_one: an
    # exponent as the walk keeps it, A and B inside (-N, N), with
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
# r = 20: roots with 2-Sylow logs of 20 bits, in restarted segments
@example((P7340033, "inverse"), 777, 1, 12)
@example((P7340033, "collatz"), 777, 1, 12)
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
    for rec in result.trace:  # a row holds the tuple the walk stored
        assert type(rec.expr) is tuple
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


# -- random groups ---------------------------------------------------------

def _prime_group(p):
    """Z_p^* for the largest prime at or below p >= 3, with its least
    primitive root: the first a that the constructor accepts."""
    while not is_probable_prime(p):
        p -= 1
    factors = prime_factors(p - 1)
    for a in range(2, p):
        try:
            return PrimeGroupParams(p, a, factors)
        except ValueError:
            continue


_BUILT = {}  # (m, poly): the field, or None where the constructor refused


def _binary_group(m, low):
    """GF(2^m) mod the first irreducible at or above x^m + low, wrapping
    round, that the constructor accepts: the first in which x is
    primitive.  Ben-Or's test passes over a reducible modulus faster
    than a refused build does."""
    while True:
        poly = _irreducible_at_or_above(m, low)
        if (m, poly) not in _BUILT:
            try:
                _BUILT[m, poly] = BinaryFieldParams(m, poly)
            except ValueError:
                _BUILT[m, poly] = None
        if _BUILT[m, poly] is not None:
            return _BUILT[m, poly]
        low = poly + 2


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
    if isinstance(params, PrimeGroupParams):  # 3x+1 where cubing is 1-1
        assert ("collatz" in params.variants) == (order % 3 != 0)
    n %= order
    target = params.pow(g, n)
    assert bsgs_dlog(params, target) == n
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


# -- the reference walk ----------------------------------------------------

WALKS_AT_RANDOM = GROUPS_AT_RANDOM.flatmap(
    lambda group: st.tuples(st.just(group), st.sampled_from(group.variants)))


def _drawn(params, variant, max_steps=None, max_restarts=0):
    """The walk at n = Random(1).randrange(N), seed 1, with Table I.  Each
    drawn walk with the default budget solves in its first segment, so
    max_restarts=0 changes no result.  A wrong exponent op, on either
    side, raises WalkInvariantError at its first collision; any other
    mismatch fails within one segment's budget, not 33."""
    n = random.Random(1).randrange(params.order)
    return example((params, variant), n, 1, max_steps, max_restarts, D_MAX,
                   True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(WALKS_AT_RANDOM, st.integers(min_value=0, max_value=2**20),
       st.one_of(st.integers(min_value=0, max_value=2**32),
                 st.lists(st.integers(min_value=0, max_value=1), max_size=40)),
       st.sampled_from([None, 1, 3, 10]), st.sampled_from([0, 2, 5, 32]),
       st.sampled_from([D_MAX, 1]), st.booleans())
# each example with the default budget solves in its first segment, so
# max_restarts=0 changes no result; a wrong exponent op raises at its first
# collision, and any other mismatch fails within one segment's budget
# boundaries: a division's B - t = -N exactly, and 3B + t = N in row 22
@example((GF27, "char2"), 5, 28, None, 0, D_MAX, True)
@example((P2003, "inverse"), 928, 282, None, 0, D_MAX, True)  # row 21
@example((P2003, "collatz"), 1944, 399, None, 0, D_MAX, True)
@example((P7340033, "inverse"), 777, 1, None, 0, D_MAX, True)  # 5328 steps
# odd-part roots read three windows, 2117 and 3009 steps
@example((P1048571, "inverse"), 123456, 2, None, 0, D_MAX, True)
@example((P1048571, "collatz"), 777, 1, None, 0, D_MAX, True)
# the root of 1 at k = 33, after roots with a nonzero log
@example((P257, "inverse"), 83, 37, None, 0, D_MAX, False)
# t = 2^8 = N wraps to 0, in a segment whose B is still positive then
@example((P257, "inverse"), 247, 226, 10, 32, D_MAX, False)
# r = 27: each root reads three 11-bit windows (57,763 steps); m = 31: three
# windows in the root and square tables (207,048 steps); r = 1 and a 60-bit
# s: each odd-part root reads eight 8-bit windows per exponent
@_drawn(P2013265921, "inverse")
@_drawn(GF231, "char2")
@_drawn(M61, "inverse", 200, 1)
@_drawn(P2305843009213693907, "inverse", 200, 1)
@_drawn(P2305843009213693907, "collatz", 200, 1)
@_drawn(P16776899, "inverse")
@_drawn(P16776899, "collatz")
@_drawn(GF219, "char2")
def test_walk_matches_the_reference(case, n, seed_or_bits, max_steps,
                                    max_restarts, d_max, table_one):
    # a seed, or a list of scripted bits; Table I, or no table at all
    params, variant = case
    draws = {"choices" if isinstance(seed_or_bits, list) else "seed":
             seed_or_bits}
    config = WalkConfig(variant=variant, max_steps=max_steps,
                        max_restarts=max_restarts, trace=True, **draws)
    target = params.pow(params.generator, n)
    assert target == power(params, n)
    table = None if table_one else {}
    # patched here, not by a fixture: Hypothesis refuses a function-scoped
    # fixture that every example would share
    with patch.object(walk, "D_MAX", d_max):
        fast = _Walk(params, target, config, table)
        try:
            expected, history = reference_walk(params, target, config, table)
        except DecisionsExhaustedError as exc:
            with pytest.raises(DecisionsExhaustedError,
                               match=f"^{re.escape(str(exc))}$"):
                fast.run()
            return
        assert fast.run() == expected
    assert fast.seen == history
    # a solve is the drawn n, and the default budget always solves
    assert expected.n in (n % params.order, None)
    assert max_steps or expected.n is not None


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_reference_replays_the_worked_examples(case):
    # the oracle against the paper's five tables, without walk.py
    config = WalkConfig(variant=case.variant, choices=case.choices, trace=True)
    result, _ = reference_walk(case.params, case.target, config)
    rows = tuple((rec.value, rec.branch, rec.result, rec.roots, rec.chosen,
                  rec.decision, tuple(rec.expr)) for rec in result.trace)
    assert (result.n, result.congruence, rows) == \
        (case.n, case.congruence, case.rows)
