"""The random-walk solver: the inverse of square-and-multiply.

One engine runs the three variants, inverse and collatz over a prime
field and char2 over GF(2^m), each segment of a walk in one frame with
its value and exponent (A, B, k) in locals.  README's "The walk" states
the design: the 2-Sylow log a prime step carries, the odd-part root, the
history and its keys, collisions and restarts.
"""

import math
import random
from typing import NamedTuple

from ._record import Record

# not all called here: the layer tracer in perfbench/ wraps them here too
from .gf2m import gf_div_by_x, gf_pow, gf_sqrt  # noqa: F401
from .linexpr import (CongruenceSolution, DegenerateCollisionError, LinExpr,
                      NoSolutionError, TooManyCandidatesError, collision_solve,
                      enumerate_candidates)
from .primefield import (_ODD_WINDOW_BITS, _ODD_WINDOW_MASK,  # noqa: F401
                         _odd_power_tables, legendre, mod_pow, sqrt_mod_p,
                         sylow_log)

VARIANTS = ("inverse", "collatz", "char2")

# the most candidates of one collision the walk verifies, by a power each
D_MAX = 65536


class DecisionsExhaustedError(RuntimeError):
    """A scripted choice list ran out before the walk finished."""


class WalkInvariantError(RuntimeError):
    """A wrong stored exponent: a collision verified no candidate, an
    odd-part root failed its check, or a field op refused a value the walk
    reached.  Not a ValueError: the input was fine."""


class UnsupportedGroupError(ValueError):
    """A variant the group does not run (e.g. 3x+1 when 3 | p-1)."""


def _check_count(name: str, value, least: int):
    """ValueError unless a budget is an int of at least `least`: a counter
    would step past a fraction, and True would pass as 1."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}")


class WalkConfig(Record):
    """Tunables for one solver run: `seed` drives a PRNG, or `choices`, an
    iterable of bits stored as a list, scripts every random decision; an
    unset max_steps is default_max_steps(N)."""

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
    """Table I: a dict from generator^(2^j) to 2^j for j below the bit
    length of the order N; each 2^j is at most N, so the squares are
    distinct.  `config` is accepted and not read (perfbench/ passes one)."""
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
        if table is None:
            table = build_table_one(params)
        # the history, README's "The history": Table I first
        self.seen = {v: (0, k % self.order, 0) for v, k in table.items()}
        if config.variant != "char2":
            # the prime fallback step: divide by a (inverse), or cube when None
            self.inv_a = (pow(params.a, -1, params.p)
                          if config.variant == "inverse" else None)
            self.e_target = sylow_log(self.target, params)  # the only search
            # T''s and G''s tables of each window, paired, padded with (1,)
            # tables to the three pairs the odd-part root reads at once
            pairs = list(zip(_odd_power_tables(self.target, params),
                             params.odd_tables, strict=True))
            pairs += [((1,), (1,))] * (3 - len(pairs))
            self.odd_head = pairs[:3]
            self.odd_tail = tuple(
                (i * _ODD_WINDOW_BITS, t_table, g_table)
                for i, (t_table, g_table) in enumerate(pairs[3:], 3))
            # each Table I entry under its ± class's key
            self.seen = dict(self._entry(v, expr)
                             for v, expr in self.seen.items())
        self.max_steps = config.max_steps or default_max_steps(self.order)
        self.rng = random.Random(config.seed if config.seed is not None else 0)
        if config.choices is not None:
            self.next_bit = _scripted_bits(config.choices)
        else:
            self.next_bit = self.rng.getrandbits
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
            # entry is a fresh tuple: setdefault returns it exactly on a miss
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

    def _segment_prime(self, value, expr):
        """One segment of the prime walk from value with the k = 0
        exponent expr: the DlogResult once a collision solves, else None
        with max_steps steps spent.  A root of a value with 2-Sylow log 0
        is T'^(A*w) * G'^(B*w), from the odd parts' window tables, which
        needs w = 2^-(k+1) mod s; any other is sqrt_mod_p's (README's "The
        2-Sylow log")."""
        params, seen, order = self.params, self.seen, self.order
        root = sqrt_mod_p  # for e != 0, read once: a layer tracer wraps it
        p, a, inv_a = params.p, params.a, self.inv_a
        top, mask = params.sqrt_top, (1 << params.r) - 1
        s = params.s
        (t0, g0), (t1, g1), (t2, g2) = self.odd_head
        odd_tail, wmask = self.odd_tail, _ODD_WINDOW_MASK
        shift1, shift2 = _ODD_WINDOW_BITS, 2 * _ODD_WINDOW_BITS
        w = params.sqrt_exp  # 2^-(k+1) mod s, halved as t doubles
        fallback = "cube" if inv_a is None else "div"
        low = -order  # negated once, not on every division
        next_bit, trace, segment = self.next_bit, self.trace, self.restarts
        A, B, k = expr
        # value^s = c^e: README's "The 2-Sylow log"
        e = (self.e_target + B) & mask
        t = 1  # 2^k mod N: every start has k = 0
        first = self.steps_taken + 1  # steps is stored back where it is read
        for steps in range(first, first + self.max_steps):
            if e & 1:
                if inv_a is None:  # 3m + 1
                    # A, B >= 0: a collatz segment starts at (1, j, 0)
                    new = value * value % p * value % p * a % p
                    A *= 3
                    B = 3 * B + t
                    if A >= order:
                        A %= order
                    if B >= order:
                        B %= order
                    e = (3 * e + 1) & mask
                else:  # m - 1
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
                elif not k:  # B + N/2 under p - new
                    key, expr = self._entry(new, expr)
                if seen.setdefault(key, expr) is not expr:
                    outcome = self._attempt(key, expr, steps)
                    if outcome is not None:
                        return outcome
            else:  # m / 2: one more root taken
                if e:
                    r1, r2, e = root(value, params, e)
                else:  # log 0: the odd-part root
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
        """One segment of the char2 walk, as _segment_prime: a random bit
        picks the branch, and A stays 1, as at every start."""
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
            if bit:  # m - 1
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
        """The history key of a value reached with the k = 0 exponent
        expr, and the entry that holds for that key (README's "The
        history")."""
        if self.config.variant != "char2" and self.params.p - value < value:
            A, B, _ = expr
            return (self.params.p - value,
                    (A, (B + (self.order >> 1)) % self.order, 0))
        return value, expr

    def _attempt(self, key: int, expr, steps: int):
        """The collision at step `steps` of a key already in the history,
        reached with the exponent `expr`: the verified DlogResult, or None
        past a degenerate collision or one with over D_MAX candidates; any
        other that verifies none raises WalkInvariantError."""
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

    Deterministic for a fixed config.  A prebuilt Table I may be shared
    across calls; it is only read."""
    if config is None:
        config = WalkConfig()
    return _Walk(params, target, config, table).run()
