"""Random-walk discrete-log solver: the inverse of square-and-multiply.

Three walk variants share one engine.  Over a prime field, a step attempts
a square root: on a residue it halves the exponent and moves to one of the
two roots at random; on a non-residue (the exponent is odd) it divides by
the generator instead, peeling one off.  The 3x+1 variant replaces division
by b <- b^3 * a.  Either fallback lands on a residue.  The walk carries the
value's log e in the 2-Sylow subgroup (value^s = c^e): a root comes with
its log, division makes it e - 1 and the 3x+1 step 3e + 1.  So a root is
attempted only where it exists (e even), one fails only on the first step
of a segment, and once e is known a root costs no Tonelli-Shanks search.
Over GF(2^m) square roots are unique, so a random bit decides the branch
instead.

Every visited value is stored with its symbolic exponent (a LinExpr in the
unknown n) in one dict, the walk history: from each visited value (and each
untaken square root) to the first exponent stored for it.  It starts as a
copy of Table I, precomputed generator powers g^k stored as LinExpr(0, k, 0)
(exponent known exactly); they go in first and are never overwritten.

A collision yields a linear congruence for n whose solutions are verified by
exponentiation; the first verified candidate wins.  A walk runs in segments,
each in one frame with its value and exponent in locals, of at most
max_steps steps.  A step looks each new value up in the history and calls
the collision handling only on a hit; it builds a trace record only when
tracing is on.  A segment ends with the answer, or with a restart on too
many solutions or an exhausted budget.  The first segment starts at the
target with exponent n; every later one at target * g^j for a random j,
with exponent n + j.  The history is never cleared: whatever segment stored
an entry, 2^k * log(value) = A*n + B (mod N) holds for it, so a later
segment collides with every earlier one.  A walk is sequential; it only
reads Table I, which calls may share, and touches no global state.
"""

import math
import random
from functools import partial
from typing import NamedTuple

from ._record import Record

# gf_pow and mod_pow are not called here (params.pow calls them), and
# legendre is not called at all, but the layer tracer in perfbench/ wraps
# them on this module as well as their own.
from .gf2m import gf_div_by_x, gf_pow, gf_sqrt  # noqa: F401
from .linexpr import (CongruenceSolution, DegenerateCollisionError, LinExpr,
                      NoSolutionError, TooManyCandidatesError, collision_solve,
                      enumerate_candidates)
from .primefield import legendre, mod_inverse, mod_pow, sqrt_mod_p  # noqa: F401

VARIANTS = ("inverse", "collatz", "char2")
SEQUENCES = ("pow2", "consec")


class DecisionsExhaustedError(RuntimeError):
    """A scripted choice list ran out before the walk finished."""


class UnsupportedGroupError(ValueError):
    """Group/variant combination violates a precondition (e.g. 3 | p-1 for 3x+1)."""


class WalkConfig(Record):
    """Tunables for one solver run.

    `seed` and `choices` are mutually exclusive: a seed drives a PRNG, a
    choice list scripts every random decision (for replaying known walks).
    Unset sizes fall back to order-dependent defaults at run time.
    """

    _fields = __slots__ = ("variant", "table_size", "sequence", "max_steps",
                           "max_restarts", "d_max", "seed", "choices", "trace")

    def __init__(self, variant: str = "inverse", table_size: int | None = None,
                 sequence: str = "pow2", max_steps: int | None = None,
                 max_restarts: int = 32, d_max: int = 65536,
                 seed: int | None = None, choices: list[int] | None = None,
                 trace: bool = False):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        if sequence not in SEQUENCES:
            raise ValueError(f"unknown sequence kind {sequence!r}")
        if seed is not None and choices is not None:
            raise ValueError("seed and scripted choices are mutually exclusive")
        if max_steps is not None and max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if table_size is not None and table_size < 0:
            raise ValueError("table_size must be >= 0")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if d_max < 1:
            raise ValueError("d_max must be >= 1")
        if choices is not None:
            for b in choices:
                if b not in (0, 1):
                    raise ValueError(f"scripted choices must be bits, got {b!r}")
        self._assign(variant, table_size, sequence, max_steps, max_restarts,
                     d_max, seed, choices, trace)

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


def default_table_size(order: int) -> int:
    return order.bit_length()


def build_table_one(params, config: WalkConfig) -> dict[int, int]:
    """Table I: a dict from generator^k_j to k_j.

    pow2 uses k_j = 2^j (repeated squaring), consec uses k_j = j + 1
    (repeated multiplication), for j < B.  If two exponents produce the same
    value the smaller exponent is kept.  A B above the group order would
    only repeat entries: ValueError.
    """
    size = config.table_size
    if size is None:
        size = default_table_size(params.order)
    if size > params.order:
        raise ValueError(f"table size {size} exceeds the group order"
                         f" {params.order}")
    v = g = params.generator
    pow2 = config.sequence == "pow2"
    table: dict[int, int] = {}
    for j in range(size):
        table.setdefault(v, (1 << j) if pow2 else j + 1)
        v = params.mul(v, v if pow2 else g)
    return table


# Restart outcome of a segment: too many candidates or the step budget
# exhausted, apply the restart policy.
_RESTART = object()


def _scripted_bits(bits):
    yield from bits
    raise DecisionsExhaustedError(
        f"scripted choices exhausted after {len(bits)} decisions")


class _Walk:
    def __init__(self, params, target, config: WalkConfig,
                 table: dict[int, int] | None):
        self.params = params
        self.config = config
        self.order = params.order

        if config.variant not in params.variants:
            raise TypeError(f"variant {config.variant!r} does not run on"
                            f" {type(params).__name__}")
        self.target = params.element(target)
        # the prime fallback step: divide by a (inverse), or cube when None
        self.inv_a = None
        if config.variant == "inverse":
            self.inv_a = mod_inverse(params.a, params.p)
        elif config.variant == "collatz" and math.gcd(3, self.order) != 1:
            raise UnsupportedGroupError(
                f"3x+1 variant needs gcd(3, p-1) = 1; p-1 = {self.order}")
        if table is None:
            table = build_table_one(params, config)
        self.max_steps = config.max_steps or default_max_steps(self.order)
        self.rng = random.Random(config.seed if config.seed is not None else 0)
        if config.choices is not None:
            self.next_bit = _scripted_bits(list(config.choices)).__next__
        else:
            self.next_bit = partial(self.rng.getrandbits, 1)

        # the history: Table I first, then the first exponent stored for
        # each value the walk reaches
        self.seen: dict[int, LinExpr] = {v: LinExpr(0, k, 0)
                                         for v, k in table.items()}
        self.seen.setdefault(self.target, LinExpr())
        self.segment = 0
        self.steps_taken = 0
        self.restarts = 0
        self.collisions_tested = 0
        self.candidates_tried = 0
        self.trace: list[TraceRecord] | None = [] if config.trace else None

    def run(self) -> DlogResult:
        known = self.seen[self.target]
        if known.A == 0:  # the target is in Table I
            n = known.B % self.order
            if self._verify(n):
                return self._result(n, CongruenceSolution(n, self.order, 1), [n])
        # bound here, not on self: a stored bound method would be a reference
        # cycle that keeps every finished walk's history alive until a full GC
        segment = (self._segment_char2 if self.config.variant == "char2"
                   else self._segment_prime)
        value, expr = self.target, LinExpr()
        while True:
            outcome = segment(value, expr)
            if outcome is not _RESTART:
                return outcome
            if self.restarts == self.config.max_restarts:
                return self._result(None)
            self.restarts += 1
            value, expr = self._restart()

    def _restart(self) -> tuple[int, LinExpr]:
        """The next segment's start: target * g^j, exponent n + j, for a
        random j; stored in the history unless the value is there already."""
        self.segment += 1
        params = self.params
        j = self.rng.randrange(self.order)
        value = params.mul(self.target, params.pow(params.generator, j))
        expr = LinExpr(1, j, 0)
        self.seen.setdefault(value, expr)
        return value, expr

    # -- segments: each returns _RESTART or the DlogResult --------------------

    def _segment_prime(self, value, expr):
        params, seen = self.params, self.seen
        p, a, inv_a = params.p, params.a, self.inv_a
        top, mask = 1 << (params.r - 1), (1 << params.r) - 1
        fallback = "cube" if inv_a is None else "div"
        next_bit, trace, segment = self.next_bit, self.trace, self.segment
        # e is the value's 2-Sylow log (value^s = c^e), unknown only until the
        # first root: a root comes with its log, and div and cube move it to
        # e - 1 and 3e + 1.  So a root is attempted only where it exists,
        # and found without the search for e, except on a segment's first
        # step (and the one after, if that first step finds no root).
        e = None
        first = self.steps_taken + 1  # steps is stored back where it is read
        for steps in range(first, first + self.max_steps):
            roots = (None if e is not None and e & 1
                     else sqrt_mod_p(value, params, e))
            if roots is None:
                if inv_a is None:
                    new = value * value % p * value % p * a % p
                    nexpr = expr.triple_plus_one()
                    if e is not None:
                        e = (3 * e + 1) & mask
                else:
                    new = value * inv_a % p
                    nexpr = expr.dec()
                    if e is not None:
                        e -= 1
                outcome = None
                if new in seen:
                    self.steps_taken = steps
                    outcome = self._attempt(new, nexpr)
                if trace is not None:
                    trace.append(TraceRecord(steps, segment, value, fallback,
                                             nexpr, result=new))
                seen.setdefault(new, nexpr)
            else:
                r1, r2, e = roots
                nexpr = expr.halve()
                hit = r1 in seen or r2 in seen
                outcome = None
                if hit:
                    self.steps_taken = steps
                    if r1 in seen:
                        outcome = self._attempt(r1, nexpr)
                    if (outcome is None or outcome is _RESTART) and r2 in seen:
                        # a verified second root outranks a restart from the first
                        outcome = self._attempt(r2, nexpr) or outcome
                if outcome is None:
                    bit = next_bit()
                    new, other = (r1, r2) if bit == 0 else (r2, r1)
                else:
                    bit, new, other = None, r1, r2
                if bit:
                    e ^= top
                if not hit:  # neither root is stored yet
                    seen[new] = seen[other] = nexpr
                else:
                    seen.setdefault(new, nexpr)
                    seen.setdefault(other, nexpr)
                if trace is not None:
                    trace.append(TraceRecord(
                        steps, segment, value, "sqrt", nexpr,
                        roots=(r1, r2), chosen=None if bit is None else new,
                        decision=bit))
            if outcome is not None:
                return outcome
            value, expr = new, nexpr
        self.steps_taken = steps
        return _RESTART  # budget exhausted

    def _segment_char2(self, value, expr):
        params, seen = self.params, self.seen
        next_bit, trace, segment = self.next_bit, self.trace, self.segment
        first = self.steps_taken + 1  # steps is stored back where it is read
        for steps in range(first, first + self.max_steps):
            bit = next_bit()
            if bit == 1:
                new = gf_div_by_x(value, params)
                nexpr = expr.dec()
            else:
                new = gf_sqrt(value, params)
                nexpr = expr.halve()
            if new in seen:
                self.steps_taken = steps
                outcome = self._attempt(new, nexpr)
            else:
                outcome = None
                seen[new] = nexpr
            if trace is not None:
                trace.append(TraceRecord(steps, segment, value,
                                         "div" if bit else "sqrt", nexpr,
                                         result=new, decision=bit))
            if outcome is not None:
                return outcome
            value, expr = new, nexpr
        self.steps_taken = steps
        return _RESTART  # budget exhausted

    # -- collision handling -------------------------------------------------

    def _attempt(self, value: int, expr: LinExpr):
        """Solve the collision of a value found in the history.

        A Table I entry (A = 0) is never overwritten, so a value in Table I
        collides with its known exponent.  Returns None (hit discarded as
        spurious/degenerate), _RESTART (too many candidates), or the verified
        DlogResult.
        """
        self.collisions_tested += 1
        try:
            sol = collision_solve(expr, self.seen[value], self.order)
            candidates = enumerate_candidates(sol, self.order, self.config.d_max)
        except (NoSolutionError, DegenerateCollisionError):
            return None  # spurious or self-collision: walk on
        except TooManyCandidatesError:
            return _RESTART
        for n in candidates:
            if self._verify(n):
                return self._result(n, sol, candidates)
        return None  # cannot happen for genuine matches; treated as spurious

    def _verify(self, n: int) -> bool:
        self.candidates_tried += 1
        return self.params.pow(self.params.generator, n) == self.target

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
