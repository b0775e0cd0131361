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
it exists, and costs no search.  Over GF(2^m) square roots are unique, so
a random bit decides the branch instead.

Every visited value is stored with its exponent, a linear function of the
unknown n, in one dict, the walk history: from each visited value (and
each untaken square root) to the first exponent stored for it.  It starts
as a copy of Table I, precomputed generator powers g^k stored with A = 0
and B = k mod N (exponent known exactly); they go in first and are never
overwritten.  Every entry is a plain tuple (A, B, k), with 2^k *
log(value) = A*n + B (mod N).  Both segments apply LinExpr's dec,
triple_plus_one and halve inline to three int locals, with the same
reductions, so they store the ops' own representatives (a collatz segment
never subtracts, so its A and B are never negative and 3m + 1 tests only
A, B < N); each carries t = 2^k mod N, doubled on every root, so A and B
stay inside (-N, N), and k, the roots taken since the segment's start, is
a small int.  The char2 segment is the inverse branch alone: a division
lowers B by t, a root raises k and doubles t, and A stays 1.  A LinExpr is
built only for a trace row, which on either field shows the (A, B, k) the
walk stored.  So each history entry is a tuple of three ints, which the
cyclic GC stops tracking, and the history's memory is linear in the steps.

A reached value meets the history one way: each segment start and each
value a step produces (the fallback's, or both roots) is looked up once; a
hit is a collision for _attempt, and a miss is stored.  A collision yields
a linear congruence for n whose candidates are verified by exponentiation;
the first verified one wins.  A collision that verifies nothing (spurious,
degenerate, or with more than d_max solutions) is walked past: the walk is
random, so it cannot be trapped.  A walk runs in segments, each in one
frame with its value and exponent in locals, of at most max_steps steps,
until the answer or the budget's end.  The first segment starts at the
target with exponent n, every later one at target * g^j for a random j,
with exponent n + j, each at k = 0.  The history is never cleared, and
each entry's invariant holds whichever segment stored it, so a segment
collides with every earlier one, at its start too.  A walk is sequential;
it only reads Table I, which calls may share, and touches no global state.
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
from .primefield import legendre, mod_pow, sqrt_mod_p, sylow_log  # noqa: F401

VARIANTS = ("inverse", "collatz", "char2")


class DecisionsExhaustedError(RuntimeError):
    """A scripted choice list ran out before the walk finished."""


class UnsupportedGroupError(ValueError):
    """A variant the group does not run (e.g. 3x+1 when 3 | p-1)."""


def _check_count(name: str, value, least: int):
    """ValueError unless a budget is an int of at least `least`: the walk
    meets it with int counters, which would step past a fractional one."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


class WalkConfig(Record):
    """Tunables for one solver run.

    `seed` and `choices` are mutually exclusive: a seed drives a PRNG, a
    choice list scripts every random decision (for replaying known walks).
    An unset max_steps falls back to an order-dependent default at run time.
    """

    _fields = __slots__ = ("variant", "max_steps", "max_restarts", "d_max",
                           "seed", "choices", "trace")

    def __init__(self, variant: str = "inverse", max_steps: int | None = None,
                 max_restarts: int = 32, d_max: int = 65536,
                 seed: int | None = None, choices: list[int] | None = None,
                 trace: bool = False):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if seed is not None and choices is not None:
            raise ValueError("seed and scripted choices are mutually exclusive")
        if max_steps is not None:
            _check_count("max_steps", max_steps, 1)
        _check_count("max_restarts", max_restarts, 0)
        _check_count("d_max", d_max, 1)
        if choices is not None:
            for b in choices:
                if b not in (0, 1):
                    raise ValueError(f"scripted choices must be bits, got {b!r}")
        self._assign(variant, max_steps, max_restarts, d_max, seed, choices,
                     trace)

    def replace(self, **changes) -> "WalkConfig":
        """A copy with `changes` applied, checked as the constructor checks."""
        return WalkConfig(**dict(zip(self._fields, self._values()), **changes))


class TraceRecord(NamedTuple):
    index: int
    segment: int
    value: int
    branch: str  # "div", "cube" or "sqrt"
    expr: LinExpr
    result: int | None = None
    roots: tuple[int, int] | None = None
    chosen: int | None = None
    decision: int | None = None


class DlogResult(Record):
    """Outcome of a solver run; n is None when every restart budget ran out."""

    _fields = __slots__ = ("n", "steps_taken", "restarts", "collisions_tested",
                           "candidates_tried", "congruence", "candidates",
                           "trace")

    def __init__(self, n: int | None, steps_taken: int = 0, restarts: int = 0,
                 collisions_tested: int = 0, candidates_tried: int = 0,
                 congruence: CongruenceSolution | None = None,
                 candidates: list[int] | None = None,
                 trace: list[TraceRecord] | None = None):
        self._assign(n, steps_taken, restarts, collisions_tested,
                     candidates_tried, congruence, candidates, trace)

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

    Each 2^j is at most the order N, so any two differ by less than N:
    for a generator of the whole group the B squares are distinct.  For a
    generator of smaller order, which the library takes on trust, a
    repeated square keeps its last exponent; every entry still has
    generator^k = v.  `config` is accepted and not read: the
    benchmark in perfbench/ builds one table per variant, passing that
    variant's WalkConfig.
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

        if config.variant not in params.variants:
            raise UnsupportedGroupError(
                f"variant {config.variant!r} does not run on {params};"
                f" it runs {', '.join(params.variants)}")
        self.target = params.element(target)
        # the prime fallback step: divide by a (inverse), or cube when None
        self.inv_a = None
        if config.variant == "inverse":
            self.inv_a = pow(params.a, -1, params.p)
        if config.variant != "char2":  # the walk's only search for a log
            self.e_target = sylow_log(self.target, params)
        if table is None:
            table = build_table_one(params)
        self.max_steps = config.max_steps or default_max_steps(self.order)
        self.rng = random.Random(config.seed if config.seed is not None else 0)
        if config.choices is not None:
            self.next_bit = _scripted_bits(list(config.choices))
        else:  # one getrandbits(1) per decision, called as next_bit(1)
            self.next_bit = self.rng.getrandbits

        # the history: Table I first, then the first exponent stored for
        # each value the walk reaches, as a plain tuple (A, B, k)
        self.seen = {v: (0, k % self.order, 0) for v, k in table.items()}
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
            # already in the history is a collision like any other
            expr = (1, j, 0)
            outcome = None
            if value in seen:
                outcome = self._attempt(value, expr, self.steps_taken)
            else:
                seen[value] = expr
            if outcome is None:
                outcome = segment(value, expr)
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
        tuple: the LinExpr ops inline, and a LinExpr only for a trace row."""
        params, seen, order = self.params, self.seen, self.order
        root = sqrt_mod_p  # read once per segment: a layer tracer wraps it
        p, a, inv_a = params.p, params.a, self.inv_a
        top, mask = params.sqrt_top, (1 << params.r) - 1
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
            outcome = None
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
                if new in seen:
                    outcome = self._attempt(new, expr, steps)
                else:
                    seen[new] = expr
                if trace is not None:
                    trace.append(TraceRecord(steps, segment, value, fallback,
                                             LinExpr(*expr), result=new))
            else:  # m / 2: one more root taken
                r1, r2, e = root(value, params, e)
                k += 1
                t += t
                if t >= order:
                    t -= order
                expr = (A, B, k)
                if r1 in seen:
                    outcome = self._attempt(r1, expr, steps)
                else:
                    seen[r1] = expr
                if outcome is None:
                    if r2 in seen:
                        outcome = self._attempt(r2, expr, steps)
                    else:
                        seen[r2] = expr
                bit = next_bit(1) if outcome is None else None
                new = r2 if bit else r1
                if bit:
                    e ^= top
                if trace is not None:
                    trace.append(TraceRecord(
                        steps, segment, value, "sqrt", LinExpr(*expr),
                        roots=(r1, r2), chosen=None if bit is None else new,
                        decision=bit))
            if outcome is not None:
                return outcome
            value = new
        self.steps_taken = steps
        return None  # budget spent

    def _segment_char2(self, value, expr):
        """The unique-root walk on (A, B, k) in locals, stored as a plain
        tuple: the inverse branch of _segment_prime, with a random bit for
        the branch, and a trace row of what it stored, as there.  A is never
        touched: every segment starts at A = 1."""
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
                                         "div" if bit else "sqrt",
                                         LinExpr(*expr), result=new,
                                         decision=bit))
            if new in seen:
                outcome = self._attempt(new, expr, steps)
                if outcome is not None:
                    return outcome
            else:
                seen[new] = expr
            value = new
        self.steps_taken = steps
        return None  # budget spent

    # -- collision handling -------------------------------------------------

    def _attempt(self, value: int, expr, steps: int):
        """Solve the collision, at step `steps`, of a value in the history.

        Every start or step value found in the history comes here, with the
        exponent `expr` it was reached by, a plain (A, B, k).
        No candidate is verified elsewhere.  Returns the verified DlogResult,
        or None to walk on: a spurious or degenerate collision says nothing
        about n, and one with more than d_max candidates is not verified.
        """
        self.steps_taken = steps
        self.collisions_tested += 1
        try:
            sol = collision_solve(LinExpr(*expr), LinExpr(*self.seen[value]),
                                  self.order)
            candidates = enumerate_candidates(sol, self.order, self.config.d_max)
        except (NoSolutionError, DegenerateCollisionError,
                TooManyCandidatesError):
            return None
        for n in candidates:
            self.candidates_tried += 1
            if self.params.pow(self.params.generator, n) == self.target:
                return self._result(n, sol, candidates)
        return None  # cannot happen for genuine matches; treated as spurious

    # -- bookkeeping ---------------------------------------------------------

    def _result(self, n, congruence=None, candidates=None):
        return DlogResult(
            n=None if n is None else n % self.order,
            steps_taken=self.steps_taken,
            restarts=self.restarts,
            collisions_tested=self.collisions_tested,
            candidates_tried=self.candidates_tried,
            congruence=congruence,
            candidates=candidates,
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
