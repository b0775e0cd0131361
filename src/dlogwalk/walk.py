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
overwritten.  Over GF(2^m) the order N = 2^m - 1 is odd, so halving an
exponent is multiplying it by (N + 1)/2: an entry is a plain pair (A, B)
of residues mod N, with log(value) = A*n + B.  Over a prime field N is
even and an entry is a plain tuple (A, B, k), with 2^k * log(value) =
A*n + B (mod N).  The segment applies LinExpr's dec, triple_plus_one and
halve inline to three int locals, with the same reductions, so it stores
the ops' own representatives; it carries t = 2^k mod N, doubled on every
root, so A and B stay inside (-N, N), and k, the roots taken since the
segment's start, is a small int.  A LinExpr is built only for a trace
row.  Either way each history entry is a tuple of a few ints, which the
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
from .primefield import legendre, mod_pow, sqrt_mod_p, sylow_log  # noqa: F401

VARIANTS = ("inverse", "collatz", "char2")
SEQUENCES = ("pow2", "consec")


class DecisionsExhaustedError(RuntimeError):
    """A scripted choice list ran out before the walk finished."""


class UnsupportedGroupError(ValueError):
    """A variant the group does not run (e.g. 3x+1 when 3 | p-1)."""


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


def _pair(A: int, B: int) -> tuple[int, int]:
    return A, B


def _triple(A: int, B: int) -> tuple[int, int, int]:
    return A, B, 0


def _scaled(A: int, B: int, k: int, order: int) -> LinExpr:
    """A residue pair after k roots as the (A, B, k) exponent a trace row
    shows: A*2^k and B*2^k mod N, each reduced into (-N/2, N/2]."""
    t, half = pow(2, k, order), order >> 1
    A, B = A * t % order, B * t % order
    return LinExpr(A - order if A > half else A, B - order if B > half else B, k)


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
            table = build_table_one(params, config)
        self.max_steps = config.max_steps or default_max_steps(self.order)
        self.rng = random.Random(config.seed if config.seed is not None else 0)
        if config.choices is not None:
            self.next_bit = _scripted_bits(list(config.choices)).__next__
        else:
            self.next_bit = partial(self.rng.getrandbits, 1)

        # the history: Table I first, then the first exponent stored for
        # each value the walk reaches, as a plain tuple (A, B, k) on a prime
        # field and as a residue pair (A, B) on GF(2^m)* (see the segments)
        self.entry = _pair if config.variant == "char2" else _triple
        self.seen = {v: self.entry(0, k % self.order) for v, k in table.items()}
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
            expr = self.entry(1, j)
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
        top, mask = 1 << (params.r - 1), (1 << params.r) - 1
        fallback = "cube" if inv_a is None else "div"
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
                    new = value * value % p * value % p * a % p
                    A *= 3
                    B = 3 * B + t
                    if not -order < A < order:
                        A %= order
                    if not -order < B < order:
                        B %= order
                    e = (3 * e + 1) & mask
                else:  # m - 1: B falls by 2^k = t
                    new = value * inv_a % p
                    B -= t
                    if B <= -order:
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
                bit = next_bit() if outcome is None else None
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
        """The unique-root walk on a residue pair (A, B) in locals: a
        collision's congruence is the k-scaled one times the unit 2^(-K),
        so it has the same solutions.  k is read only by trace rows."""
        params, seen, order = self.params, self.seen, self.order
        # read from the module once per segment: a layer tracer wraps them
        root, down = gf_sqrt, gf_div_by_x
        h = (order + 1) >> 1  # 1/2 mod N
        next_bit, trace, segment = self.next_bit, self.trace, self.restarts
        A, B = expr
        k = 0  # roots taken since the start
        first = self.steps_taken + 1  # steps is stored back where it is read
        for steps in range(first, first + self.max_steps):
            bit = next_bit()
            if bit == 1:
                new = down(value, params)
                B = B - 1 if B else order - 1
            else:
                new = root(value, params)
                A = A * h % order
                B = B * h % order
                k += 1
            if new in seen:
                outcome = self._attempt(new, (A, B), steps)
            else:
                outcome = None
                seen[new] = (A, B)
            if trace is not None:
                trace.append(TraceRecord(steps, segment, value,
                                         "div" if bit else "sqrt",
                                         _scaled(A, B, k, order),
                                         result=new, decision=bit))
            if outcome is not None:
                return outcome
            value = new
        self.steps_taken = steps
        return None  # budget spent

    # -- collision handling -------------------------------------------------

    def _attempt(self, value: int, expr, steps: int):
        """Solve the collision, at step `steps`, of a value in the history.

        Every start or step value found in the history comes here, with the
        exponent `expr` it was reached by, a plain (A, B, k) or, on GF(2^m),
        a pair (A, B), which is LinExpr(A, B, 0).
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
