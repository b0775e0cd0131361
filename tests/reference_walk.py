"""The walk of the paper, written plainly: the oracle for walk.py, whose
code it does not follow.

A prime step from a residue (Legendre symbol +1) halves the exponent and
moves to one of the value's two square roots, asked of `sqrt_mod_p` with
no log, so each searches; from a non-residue it divides by the generator
(inverse) or cubes and multiplies by it (collatz).  A GF(2^m) step takes
`gf_div_by_x` or `gf_sqrt` by a random bit.  The exponent moves by the
LinExpr ops, with t = 2^k mod N computed afresh.  Each segment start and
each value a step makes is looked up in the history, which starts as
Table I, {g^(2^j): 2^j}: a hit is a collision, whose candidates (at most
walk.D_MAX, read at call time) are verified, and a miss is stored.  The
true n solves every collision, so one that is neither degenerate nor has
too many candidates, and verifies none, raises WalkInvariantError.  A
segment runs ceil(20 * sqrt(N)) steps, or max_steps; the first starts at
the target with exponent n, a later one at target * g^j with n + j.

The draws follow the walk's documented order: one getrandbits(1) per char2
step, one per prime root step only when neither root solved, and one
randrange(N) per restart, from the seeded PRNG even when bits are scripted.

Five more oracles, for the library's own shortcuts: `brute_force_dlog`
scans the generator's powers (against BSGS and the walk), `brute_order`
counts an element's order by stepping from 1 back to 1 (against the
generator checks), `is_irreducible` is Ben-Or's test (against trial
division, and the tests' quick pre-filter for primitive moduli, which the
library finds by its order test alone), `power` is generator^n by builtin
`pow` or carry-less squares (against `params.pow`, for targets that the
code under test did not make), and `gf_pow_reference` is square-and-multiply
on `gf_mul` alone (against `gf_pow` and the root tables of `gf_sqrt`).
"""

import math
import random

from dlogwalk import walk
from dlogwalk.gf2m import (GENERATOR, BinaryFieldParams, _poly_mod,
                           gf_div_by_x, gf_mul, gf_sqrt)
from dlogwalk.linexpr import (DegenerateCollisionError, LinExpr,
                              NoSolutionError, TooManyCandidatesError,
                              collision_solve, enumerate_candidates)
from dlogwalk.primefield import legendre, sqrt_mod_p
from dlogwalk.walk import (DecisionsExhaustedError, DlogResult, TraceRecord,
                           WalkInvariantError)


def reference_walk(params, target, config, table=None):
    """Solve generator^n = target as the paper walks; returns the
    DlogResult and the history, from each stored value to its LinExpr.
    A given `table` replaces Table I ({} for none)."""
    return _Reference(params, target, config, table).run()


class _Reference:
    def __init__(self, params, target, config, table):
        self.params, self.config = params, config
        self.order, self.g = params.order, params.generator
        self.target = params.element(target)
        if table is None:
            table = {params.pow(self.g, 1 << j): 1 << j
                     for j in range(self.order.bit_length())}
        self.history = {v: LinExpr(0, k % self.order, 0)
                        for v, k in table.items()}
        self.budget = config.max_steps or math.ceil(20 * math.sqrt(self.order))
        self.rng = random.Random(0 if config.seed is None else config.seed)
        self.script = None if config.choices is None else iter(config.choices)
        self.trace = [] if config.trace else None
        self.steps = self.restarts = self.collisions = self.tried = 0

    def run(self):
        value, j = self.target, 0
        while True:
            expr = LinExpr(1, j, 0)
            outcome = self.meet(value, expr) or self.segment(value, expr)
            if outcome or self.restarts == self.config.max_restarts:
                return outcome or self.result(None), self.history
            self.restarts += 1
            j = self.rng.randrange(self.order)
            value = self.params.mul(self.target, self.params.pow(self.g, j))

    def segment(self, value, expr):
        step = self.char2_step if self.config.variant == "char2" \
            else self.prime_step
        for _ in range(self.budget):
            self.steps += 1
            outcome, value, expr = step(value, expr)
            if outcome:
                return outcome
        return None

    def prime_step(self, value, expr):
        params, order, p = self.params, self.order, self.params.p
        if legendre(value, params) == 1:  # m / 2, to either root
            expr = expr.halve()
            r1, r2, _ = sqrt_mod_p(value, params)
            outcome = self.meet(r1, expr) or self.meet(r2, expr)
            bit = None if outcome else self.bit()
            new = r2 if bit else r1
            self.row(value, "sqrt", expr, roots=(r1, r2),
                     chosen=None if bit is None else new, decision=bit)
            return outcome, new, expr
        t = pow(2, expr.k, order)
        if self.config.variant == "inverse":  # m - 1
            new, branch = value * pow(params.a, -1, p) % p, "div"
            expr = expr.dec(t, order)
        else:  # 3m + 1
            new, branch = pow(value, 3, p) * params.a % p, "cube"
            expr = expr.triple_plus_one(t, order)
        self.row(value, branch, expr, result=new)
        return self.meet(new, expr), new, expr

    def char2_step(self, value, expr):
        bit = self.bit()
        if bit:  # m - 1
            new, branch = gf_div_by_x(value, self.params), "div"
            expr = expr.dec(pow(2, expr.k, self.order), self.order)
        else:  # m / 2: the one root
            new, branch = gf_sqrt(value, self.params), "sqrt"
            expr = expr.halve()
        self.row(value, branch, expr, result=new, decision=bit)
        return self.meet(new, expr), new, expr

    def bit(self):
        if self.script is None:
            return self.rng.getrandbits(1)
        for b in self.script:
            return b
        raise DecisionsExhaustedError(f"scripted choices exhausted after"
                                      f" {len(self.config.choices)} decisions")

    def row(self, value, branch, expr, **fields):
        if self.trace is not None:
            self.trace.append(TraceRecord(self.steps, self.restarts, value,
                                          branch, expr, **fields))

    def meet(self, value, expr):
        """Store a reached value, or solve its collision with the stored
        one: the verified DlogResult, or None to walk on past a degenerate
        collision or one with too many candidates."""
        if value not in self.history:
            self.history[value] = expr
            return None
        self.collisions += 1
        stored = self.history[value]
        try:
            sol = collision_solve(expr, stored, self.order)
            candidates = enumerate_candidates(sol, self.order, walk.D_MAX)
        except (DegenerateCollisionError, TooManyCandidatesError):
            return None
        except NoSolutionError:
            candidates = ()
        for n in candidates:
            self.tried += 1
            if self.params.pow(self.g, n) == self.target:
                return self.result(n, sol)
        raise WalkInvariantError(
            f"no candidate verified at {self.params.format(value)}:"
            f" {expr} against the stored {stored}")

    def result(self, n, congruence=None):
        return DlogResult(n, self.steps, self.restarts, self.collisions,
                          self.tried, congruence, self.trace)


def brute_force_dlog(params, target):
    """The n in [0, N) with generator^n = target, by scanning the powers
    of the generator; every group verifies that it has order N."""
    target = params.element(target)
    acc = 1
    for n in range(params.order):
        if acc == target:
            return n
        acc = params.mul(acc, params.generator)
    raise AssertionError(f"{params.format(target)} is not a power of"
                         f" the generator of {params}")


def brute_order(step):
    """The order of the element that step multiplies by: the count of
    steps from 1 back to 1."""
    v, order = step(1), 1
    while v != 1:
        v, order = step(v), order + 1
    return order


def power(params, n):
    """generator^n for n >= 0: builtin `pow` on a prime group; on GF(2^m),
    whose generator is x, square-and-multiply with carry-less squares,
    reduced bit by bit mod the field polynomial, and no `gf_mul`."""
    if not isinstance(params, BinaryFieldParams):
        return pow(params.generator, n, params.p)
    acc = 1
    for bit in f"{n:b}":  # most significant first: square, then times x
        acc = int("0".join(f"{acc:b}"), 2) << int(bit)
        for i in range(acc.bit_length() - 1, params.m - 1, -1):
            if acc >> i & 1:
                acc ^= params.poly << (i - params.m)
    return acc


def gf_pow_reference(u, e, params):
    """u^e in GF(2^m) by right-to-left square-and-multiply on gf_mul alone."""
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, u, params)
        u = gf_mul(u, u, params)
        e >>= 1
    return r


def _poly_gcd(u, v):
    while v:
        u, v = v, _poly_mod(u, v)
    return u


def is_irreducible(f):
    """Ben-Or's test: f of degree m is irreducible over GF(2) iff
    gcd(f, x^(2^i) - x) = 1 for every 1 <= i <= m/2.

    An irreducible factor of degree d divides x^(2^i) - x exactly when d
    divides i, and a reducible f has a factor of degree <= m/2.  A
    negative f is no polynomial: ValueError.
    """
    if f < 0:
        raise ValueError(f"{f:#x} is not a polynomial over GF(2)")
    m = f.bit_length() - 1
    if m < 1:
        return False
    h = GENERATOR  # x^(2^i) mod f
    for _ in range(m // 2):
        # squaring over GF(2) spreads the bits: (sum x^j)^2 = sum x^(2j)
        h = _poly_mod(int("0".join(f"{h:b}"), 2), f)
        if _poly_gcd(f, h ^ GENERATOR) != 1:
            return False
    return True
