"""Random-walk discrete-log solver: the inverse of square-and-multiply.

Three walk variants share one engine.  Over a prime field, a step from a
residue halves the exponent and moves to one of the value's two square
roots at random; from a non-residue (the exponent is odd) it divides by the
generator instead, peeling one off.  The 3x+1 variant replaces division by
b <- b^3 * a.  Either fallback lands on a residue.  The walk carries the
value's log e in the 2-Sylow subgroup (value^s = c^e), whose parity is the
residuosity: one Tonelli-Shanks search finds the target's, a segment that
starts at target * g^j starts at e + j, a root comes with its log, division
makes it e - 1 and the 3x+1 step 3e + 1.  So a root is taken exactly where
it exists, and costs no search.  A value with e = 0 lies in the odd-order
subgroup, where its root is unique and has log 0; the segment builds it
from the walk's own exponent, as a product of lookups in fixed-base window
tables of the odd parts of the target and the generator, the first three
windows of both in one expression.  Any other root is sqrt_mod_p's.  Over
GF(2^m) square roots are unique, so a random bit decides the branch
instead.

Every visited value is stored with its exponent, a linear function of the
unknown n, in one dict, the walk history: from each visited value's key
to the first exponent stored for it.  Over GF(2^m) the key is the value.
Over a prime field it is the value's class {v, p - v}, under
min(v, p - v): the walk ignores a root's sign, so a root step's two
roots are one class.  The history starts as a copy of Table I,
precomputed generator powers g^k stored with A = 0 and B = k mod N
(exponent known exactly); they go in first and are never overwritten.
Every entry is a plain tuple (A, B, k), with 2^k * log(key) = A*n + B
(mod N).  For k >= 1 an exponent of v holds for p - v too, since
2^k * N/2 = 0 (mod N); a k = 0 exponent (a start, a Table I entry, or a
fallback before a segment's first root) of a v above p/2 is stored under
p - v with B + N/2, as log(p - v) = log v + N/2.  Both segments apply
LinExpr's dec, triple_plus_one and halve inline to three int locals, with
the same reductions, so they store the ops' own representatives (a collatz segment
never subtracts, so its A and B are never negative and 3m + 1 tests only
A, B < N); each carries t = 2^k mod N, doubled on every root, so A and B
stay inside (-N, N), and k, the roots taken since the segment's start, is
a small int; a prime segment also halves w = 2^-(k+1) mod s, the scale of
an odd-part root's exponent, on every root.  The char2 segment is the
inverse branch alone: a division lowers B by t, a root raises k and
doubles t, and A stays 1.  A trace row holds the exponent of the value
it reached, which the walk stores but for that B + N/2; a LinExpr is
built only for collision_solve and the CLI's -v rows.  So
each history entry is a tuple of three ints, which the cyclic GC stops
tracking, and the history's memory is linear in the steps.

A reached value meets the history one way, by one seen.setdefault(key,
expr) for each segment start and each step (the fallback's value, or the
class of both roots), so a step stores at most one entry: expr is a tuple
built for that call, so only a miss, which stores it, returns it, and a
hit keeps the first entry and is a collision for _attempt.  A collision
yields a linear congruence for n whose
candidates are verified by exponentiation; the first verified one wins.  A
degenerate collision, or one with more than D_MAX solutions, is walked
past: the walk is random, so it cannot be trapped.  The true n solves
every other, so one that verifies nothing raises WalkInvariantError.  A
walk runs in segments, each in one frame with its value and exponent in
locals, of at most max_steps steps, until the answer or the budget's end.
The first segment starts at the target with exponent n,
every later one at target * g^j for a random j, with exponent n + j, each
at k = 0.  The history is never cleared, and each entry's invariant holds
whichever segment stored it, so a segment collides with every earlier one,
at its start too.  A walk is sequential; it only reads Table I, which calls
may share, and touches no global state.
"""

import math
import random
from typing import NamedTuple

from ._record import Record

# gf_pow and mod_pow are not called here (params.pow calls them), and
# legendre is not called at all, but the layer tracer in perfbench/ wraps
# them on this module as well as their own.
from .gf2m import gf_div_by_x, gf_pow, gf_sqrt  # noqa: F401
from .linexpr import (CongruenceSolution, DegenerateCollisionError, LinExpr,
                      NoSolutionError, TooManyCandidatesError, collision_solve,
                      enumerate_candidates)
from .primefield import (_ODD_WINDOW_BITS, _ODD_WINDOW_MASK,  # noqa: F401
                         _odd_power_tables, legendre, mod_pow, sqrt_mod_p,
                         sylow_log)

VARIANTS = ("inverse", "collatz", "char2")

# the most solutions of a collision's congruence the walk verifies, each by
# one exponentiation; a collision with more is walked past
D_MAX = 65536


class DecisionsExhaustedError(RuntimeError):
    """A scripted choice list ran out before the walk finished."""


class WalkInvariantError(RuntimeError):
    """A wrong stored exponent: a collision verified no candidate, an
    odd-part root failed its check, or a field op refused a value the walk
    reached.  Not a ValueError: the input was fine."""


class UnsupportedGroupError(ValueError):
    """A variant the group does not run (e.g. 3x+1 when 3 | p-1)."""


def check_variant(params, variant: str) -> None:
    """UnsupportedGroupError unless the group runs the variant: the one
    copy of that decision, for the walk and for the CLI before it opens
    an output file."""
    if variant not in params.variants:
        raise UnsupportedGroupError(
            f"variant {variant!r} does not run on {params};"
            f" it runs {', '.join(params.variants)}")


def _check_count(name: str, value, least: int):
    """ValueError unless a budget is an int of at least `least`: the walk
    meets it with int counters, which would step past a fractional one.  A
    bool is refused too: True would pass as a budget of 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


class WalkConfig(Record):
    """Tunables for one solver run.

    `seed` and `choices` are mutually exclusive: a seed drives a PRNG, a
    choice list, any iterable of bits stored as a list, scripts every random
    decision (for replaying known walks).
    An unset max_steps falls back to an order-dependent default at run time.
    """

    _fields = __slots__ = ("variant", "max_steps", "max_restarts", "seed",
                           "choices", "trace")

    def __init__(self, variant: str = "inverse", max_steps: int | None = None,
                 max_restarts: int = 32, seed: int | None = None,
                 choices: list[int] | None = None, trace: bool = False):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if seed is not None and choices is not None:
            raise ValueError("seed and scripted choices are mutually exclusive")
        if seed is not None and (not isinstance(seed, int)
                                 or isinstance(seed, bool)):  # True seeds 1
            raise ValueError(f"seed must be an int or None, got {seed!r}")
        if max_steps is not None:
            _check_count("max_steps", max_steps, 1)
        _check_count("max_restarts", max_restarts, 0)
        if not isinstance(trace, bool):  # "no" would turn tracing on
            raise ValueError(f"trace must be a bool, got {trace!r}")
        if choices is not None:
            choices = list(choices)  # once: the check would use up an iterator
            for b in choices:
                if b not in (0, 1):
                    raise ValueError(f"scripted choices must be bits, got {b!r}")
        self._assign(variant, max_steps, max_restarts, seed, choices, trace)

    def replace(self, **changes) -> "WalkConfig":
        """A copy with `changes` applied, checked as the constructor checks."""
        return WalkConfig(**dict(zip(self._fields, self._values()), **changes))


class TraceRecord(NamedTuple):
    index: int
    segment: int
    value: int
    branch: str  # "div", "cube" or "sqrt"
    expr: tuple[int, int, int]  # the (A, B, k) of the value reached
    result: int | None = None
    roots: tuple[int, int] | None = None
    chosen: int | None = None
    decision: int | None = None


class DlogResult(Record):
    """Outcome of a solver run; n is None when every restart budget ran out."""

    _fields = __slots__ = ("n", "steps_taken", "restarts", "collisions_tested",
                           "candidates_tried", "congruence", "trace")

    def __init__(self, n: int | None, steps_taken: int = 0, restarts: int = 0,
                 collisions_tested: int = 0, candidates_tried: int = 0,
                 congruence: CongruenceSolution | None = None,
                 trace: list[TraceRecord] | None = None):
        self._assign(n, steps_taken, restarts, collisions_tested,
                     candidates_tried, congruence, trace)

    @property
    def success(self) -> bool:
        return self.n is not None


def default_max_steps(order: int) -> int:
    # generous multiple of the O(sqrt N) expectation
    return math.ceil(20 * math.sqrt(order))


def build_table_one(params, config=None) -> dict[int, int]:
    """Table I: a dict from generator^(2^j) to 2^j for j < B, the squares
    that square-and-multiply computes for an exponent of B bits, with B
    the group order's bit length.

    Each 2^j is at most the order N, so any two differ by less than N,
    the generator's order: the B squares are distinct.  `config` is
    accepted and not read: the benchmark in perfbench/ builds one table
    per variant, passing that variant's WalkConfig.
    """
    v = params.generator
    table: dict[int, int] = {}
    for j in range(params.order.bit_length()):
        table[v] = 1 << j
        v = params.mul(v, v)
    return table


def _scripted_bits(bits):
    """Scripted choices as a next_bit: called as next_bit(1), the way the
    seeded walk calls its PRNG's getrandbits."""
    remaining = iter(bits)

    def next_bit(_):
        for bit in remaining:
            return bit
        raise DecisionsExhaustedError(
            f"scripted choices exhausted after {len(bits)} decisions")

    return next_bit


class _Walk:
    def __init__(self, params, target, config: WalkConfig,
                 table: dict[int, int] | None):
        self.params = params
        self.config = config
        self.order = params.order

        check_variant(params, config.variant)
        self.target = params.element(target)
        # the prime fallback step: divide by a (inverse), or cube when None
        self.inv_a = None
        if config.variant == "inverse":
            self.inv_a = pow(params.a, -1, params.p)
        if config.variant != "char2":  # the walk's only search for a log
            self.e_target = sylow_log(self.target, params)
            # T''s and G''s tables of each window, paired: an odd-part root
            # reads the first three pairs in one expression, padded with
            # (1,) tables for s < 2^16, and loops over the rest
            pairs = list(zip(_odd_power_tables(self.target, params),
                             params.odd_tables, strict=True))
            pairs += [((1,), (1,))] * (3 - len(pairs))
            self.odd_head = pairs[:3]
            self.odd_tail = tuple(
                (i * _ODD_WINDOW_BITS, t_table, g_table)
                for i, (t_table, g_table) in enumerate(pairs[3:], 3))
        if table is None:
            table = build_table_one(params)
        self.max_steps = config.max_steps or default_max_steps(self.order)
        self.rng = random.Random(config.seed if config.seed is not None else 0)
        if config.choices is not None:
            self.next_bit = _scripted_bits(config.choices)
        else:  # one getrandbits(1) per decision, called as next_bit(1)
            self.next_bit = self.rng.getrandbits

        # the history: Table I first, then the first exponent stored for
        # each key the walk reaches, as a plain tuple (A, B, k)
        self.seen = {v: (0, k % self.order, 0) for v, k in table.items()}
        if config.variant != "char2":  # each under its ± class's key
            self.seen = dict(self._entry(v, expr)
                             for v, expr in self.seen.items())
        self.steps_taken = 0
        self.restarts = 0
        self.collisions_tested = 0
        self.candidates_tried = 0
        self.trace: list[TraceRecord] | None = [] if config.trace else None

    def run(self) -> DlogResult:
        # bound here, not on self: a stored bound method would be a reference
        # cycle that keeps every finished walk's history alive until a full GC
        segment = (self._segment_char2 if self.config.variant == "char2"
                   else self._segment_prime)
        params, seen = self.params, self.seen
        value, j = self.target, 0
        while True:
            # a segment starts at target * g^j with exponent n + j; a start
            # already in the history is a collision like any other.  entry
            # is a fresh tuple, so setdefault returns it exactly on a miss
            expr = (1, j, 0)
            key, entry = self._entry(value, expr)
            outcome = None
            if seen.setdefault(key, entry) is not entry:
                outcome = self._attempt(key, entry, self.steps_taken)
            if outcome is None:
                try:  # a field op refusing a reached value is a broken walk
                    outcome = segment(value, expr)
                except ValueError as exc:
                    raise WalkInvariantError(str(exc)) from exc
            if outcome is not None:
                return outcome
            if self.restarts == self.config.max_restarts:
                return self._result(None)
            self.restarts += 1
            j = self.rng.randrange(self.order)
            value = params.mul(self.target, params.pow(params.generator, j))

    # -- segments: each returns the DlogResult, or None with its budget spent -

    def _segment_prime(self, value, expr):
        """The sign-ignorant walk on (A, B, k) in locals, stored as a plain
        tuple under its value's ± class: the LinExpr ops inline.  A value v
        meets and is stored under min(v, p - v), a k = 0 exponent of a v
        above p/2 with B + N/2 (_entry; one with k >= 1 holds for both),
        so one setdefault a step stores at most one entry; a root step
        meets r1, the smaller root, alone.  A trace row holds the exponent
        of the value reached.  A root in the odd part (log 0) is built here,
        checked and ordered as sqrt_mod_p checks and orders a root; any
        other root is sqrt_mod_p's.  Since 2^(k+1) * log(root) = A*n + B
        (mod N), the odd part's root is T'^(A*w) * G'^(B*w),
        w = 2^(-(k+1)) mod s, with T' and G' the odd parts of the target
        g^n and of g: one lookup per 8-bit window of each exponent, from
        that window's (T' table, G' table) pair, the first three pairs in
        one product (self.odd_head) and the rest in a loop
        (self.odd_tail, empty for s < 2^24), reduced once."""
        params, seen, order = self.params, self.seen, self.order
        root = sqrt_mod_p  # for e != 0, read once: a layer tracer wraps it
        p, a, inv_a = params.p, params.a, self.inv_a
        top, mask = params.sqrt_top, (1 << params.r) - 1
        s = params.s
        (t0, g0), (t1, g1), (t2, g2) = self.odd_head
        odd_tail, wmask = self.odd_tail, _ODD_WINDOW_MASK
        shift1, shift2 = _ODD_WINDOW_BITS, 2 * _ODD_WINDOW_BITS
        w = params.sqrt_exp  # 2^(-(k+1)) mod s, halved as t doubles
        fallback = "cube" if inv_a is None else "div"
        low = -order  # negated once, not on every division
        next_bit, trace, segment = self.next_bit, self.trace, self.restarts
        A, B, k = expr
        # e is the value's 2-Sylow log (value^s = c^e).  A segment starts at
        # target * a^j with exponent (1, j, 0), so at log e_target + j since
        # a^s = c; a root comes with its log, and div and cube move it to
        # e - 1 and 3e + 1.  So a root is taken exactly where it exists.
        e = (self.e_target + B) & mask
        t = 1  # 2^k mod N, for the ops and each root: every start has k = 0
        first = self.steps_taken + 1  # steps is stored back where it is read
        for steps in range(first, first + self.max_steps):
            if e & 1:
                if inv_a is None:  # 3m + 1: the +1 is 2^k = t in B
                    # A, B >= 0: a collatz segment starts at (1, j, 0)
                    new = value * value % p * value % p * a % p
                    A *= 3
                    B = 3 * B + t
                    if A >= order:
                        A %= order
                    if B >= order:
                        B %= order
                    e = (3 * e + 1) & mask
                else:  # m - 1: B falls by 2^k = t
                    new = value * inv_a % p
                    B -= t
                    if B <= low:
                        B += order
                    e -= 1
                expr = (A, B, k)
                if trace is not None:  # a row does not depend on the collision
                    trace.append(TraceRecord(steps, segment, value, fallback,
                                             expr, result=new))
                key = p - new
                if new < key:
                    key = new
                elif not k:  # stored under p - new with B + N/2
                    key, expr = self._entry(new, expr)
                if seen.setdefault(key, expr) is not expr:
                    outcome = self._attempt(key, expr, steps)
                    if outcome is not None:
                        return outcome
            else:  # m / 2: one more root taken
                if e:  # the c^(-h) window product is sqrt_mod_p's alone
                    r1, r2, e = root(value, params, e)
                else:  # in the odd part: T'^(A*w) * G'^(B*w), log 0
                    x, y = A * w % s, B * w % s  # one digit each for s < 2^30
                    r1 = (t0[x & wmask] * g0[y & wmask]
                          * t1[x >> shift1 & wmask] * g1[y >> shift1 & wmask]
                          * t2[x >> shift2 & wmask] * g2[y >> shift2 & wmask])
                    for shift, t_table, g_table in odd_tail:
                        r1 *= (t_table[x >> shift & wmask]
                               * g_table[y >> shift & wmask])
                    r1 %= p
                    if r1 * r1 % p != value:  # a wrong log, exponent or w
                        raise WalkInvariantError(
                            f"the odd-part root of {value} mod {p} is wrong")
                    r2 = p - r1
                    if r2 < r1:  # the smaller is -R, with log 2^(r-1)
                        r1, r2, e = r2, r1, top
                k += 1
                t += t
                if t >= order:
                    t -= order
                w = (w + s) >> 1 if w & 1 else w >> 1  # w / 2 mod s
                expr = (A, B, k)
                # r1 < r2 = p - r1: r1 is the key of both roots' class
                if seen.setdefault(r1, expr) is not expr:
                    outcome = self._attempt(r1, expr, steps)
                    if outcome is not None:  # solved: no root is chosen
                        if trace is not None:
                            trace.append(TraceRecord(steps, segment, value,
                                                     "sqrt", expr,
                                                     roots=(r1, r2)))
                        return outcome
                bit = next_bit(1)
                if bit:
                    new = r2
                    e ^= top
                else:
                    new = r1
                if trace is not None:
                    trace.append(TraceRecord(
                        steps, segment, value, "sqrt", expr, roots=(r1, r2),
                        chosen=new, decision=bit))
            value = new
        self.steps_taken = steps
        return None  # budget spent

    def _segment_char2(self, value, expr):
        """The unique-root walk on (A, B, k) in locals, stored as a plain
        tuple: the inverse branch of _segment_prime, with a random bit for
        the branch, and a trace row holding that tuple, as there.  A is
        never touched: every segment starts at A = 1."""
        params, seen, order = self.params, self.seen, self.order
        # read from the module once per segment: a layer tracer wraps them
        root, down = gf_sqrt, gf_div_by_x
        next_bit, trace, segment = self.next_bit, self.trace, self.restarts
        A, B, k = expr
        t = 1  # 2^k mod N: every start has k = 0
        low = -order  # negated once, not on every division
        first = self.steps_taken + 1  # steps is stored back where it is read
        for steps in range(first, first + self.max_steps):
            bit = next_bit(1)
            if bit:  # m - 1: B falls by 2^k = t
                new = down(value, params)
                B -= t
                if B <= low:
                    B += order
            else:  # m / 2: one more root taken
                new = root(value, params)
                k += 1
                t += t
                if t >= order:
                    t -= order
            expr = (A, B, k)
            if trace is not None:  # a row does not depend on the collision
                trace.append(TraceRecord(steps, segment, value,
                                         "div" if bit else "sqrt", expr,
                                         result=new, decision=bit))
            if seen.setdefault(new, expr) is not expr:
                outcome = self._attempt(new, expr, steps)
                if outcome is not None:
                    return outcome
            value = new
        self.steps_taken = steps
        return None  # budget spent

    def _entry(self, value, expr):
        """The history key of a value reached with the k = 0 exponent expr,
        and the entry that holds for that key.  A prime field keys the
        class {v, p - v} under its smaller member, and log(p - v) = log v +
        N/2; GF(2^m) keys v itself, since -v = v there."""
        if self.config.variant != "char2" and self.params.p - value < value:
            A, B, _ = expr
            return (self.params.p - value,
                    (A, (B + (self.order >> 1)) % self.order, 0))
        return value, expr

    # -- collision handling -------------------------------------------------

    def _attempt(self, key: int, expr, steps: int):
        """Solve the collision, at step `steps`, of a key in the history.

        Every start or step key found in the history comes here, with the
        exponent `expr` that the walk reached it by, a plain (A, B, k).
        No candidate is verified elsewhere.  Returns the verified DlogResult,
        or None past a degenerate collision or one with over D_MAX
        candidates; any other that verifies none raises WalkInvariantError.
        """
        self.steps_taken = steps
        self.collisions_tested += 1
        reached, stored = LinExpr(*expr), LinExpr(*self.seen[key])
        try:
            sol = collision_solve(reached, stored, self.order)
            candidates = enumerate_candidates(sol, self.order, D_MAX)
        except (DegenerateCollisionError, TooManyCandidatesError):
            return None
        except NoSolutionError:  # no n at all: verified by none
            candidates = ()
        for n in candidates:
            self.candidates_tried += 1
            if self.params.pow(self.params.generator, n) == self.target:
                return self._result(n, sol)
        raise WalkInvariantError(
            f"no candidate verified at {self.params.format(key)}:"
            f" {reached} against the stored {stored}")

    # -- bookkeeping ---------------------------------------------------------

    def _result(self, n, congruence=None):
        return DlogResult(
            n=n,
            steps_taken=self.steps_taken,
            restarts=self.restarts,
            collisions_tested=self.collisions_tested,
            candidates_tried=self.candidates_tried,
            congruence=congruence,
            trace=self.trace)


def run_dlog(params, target: int, config: WalkConfig | None = None,
             table: dict[int, int] | None = None) -> DlogResult:
    """Solve generator^n = target; returns a DlogResult (n = None on failure).

    Deterministic for a fixed config: the default seed is 0.  A prebuilt
    Table I may be shared across calls; it is only read.
    """
    if config is None:
        config = WalkConfig()
    return _Walk(params, target, config, table).run()
