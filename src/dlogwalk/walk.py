"""Random-walk discrete-log solver: the inverse of square-and-multiply.

Three walk variants share one engine.  Over a prime field, a step attempts
a square root: on a residue it halves the exponent and moves to one of the
two roots at random; on a non-residue (the exponent is odd) it divides by
the generator instead, peeling one off.  The 3x+1 variant replaces division
by b <- b^3 * a.  Either fallback lands on a residue, so each step makes
exactly one root attempt.  Over GF(2^m) square roots are unique, so a random
bit decides the branch instead.

Every visited value is stored with its symbolic exponent (a LinExpr in the
unknown n).  Two lookups drive collision detection:

* Table I         - precomputed generator powers (exponent known exactly),
* Tables II + III - the walk history: one dict from each visited value (and
                    each untaken square root) to the first exponent stored
                    for it.

A collision yields a linear congruence for n whose solutions are verified by
exponentiation; the first verified candidate wins.  If a congruence has too
many solutions or a walk exhausts its step budget, the walk restarts from
an untaken square root drawn from the list of forks kept in walk order (then
from scratch once mid-walk restarts are used up).  A walk is sequential; it
only reads Table I, which calls may share, and touches no global state.
"""

import math
import random
from dataclasses import dataclass
from functools import partial

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


@dataclass
class WalkConfig:
    """Tunables for one solver run.

    `seed` and `choices` are mutually exclusive: a seed drives a PRNG, a
    choice list scripts every random decision (for replaying known walks).
    Unset sizes fall back to order-dependent defaults at run time.
    """

    variant: str = "inverse"
    table_size: int | None = None
    sequence: str = "pow2"
    max_steps: int | None = None
    max_restarts: int = 32
    d_max: int = 65536
    seed: int | None = None
    choices: list[int] | None = None
    trace: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.sequence not in SEQUENCES:
            raise ValueError(f"unknown sequence kind {self.sequence!r}")
        if self.seed is not None and self.choices is not None:
            raise ValueError("seed and scripted choices are mutually exclusive")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if self.table_size is not None and self.table_size < 0:
            raise ValueError("table_size must be >= 0")
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        if self.d_max < 1:
            raise ValueError("d_max must be >= 1")
        if self.choices is not None:
            for b in self.choices:
                if b not in (0, 1):
                    raise ValueError(f"scripted choices must be bits, got {b!r}")


@dataclass
class TraceRecord:
    index: int
    segment: int
    value: int
    branch: str  # "div", "cube" or "sqrt"
    result: int | None
    roots: tuple[int, int] | None
    chosen: int | None
    decision: int | None
    expr: LinExpr


@dataclass
class DlogResult:
    """Outcome of a solver run; n is None when every restart budget ran out."""

    n: int | None
    steps_taken: int = 0
    restarts: int = 0
    collisions_tested: int = 0
    candidates_tried: int = 0
    congruence: CongruenceSolution | None = None
    candidates: list[int] | None = None
    trace: list[TraceRecord] | None = None

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

    pow2 uses k_j = 2^j, consec uses k_j = j + 1, for j < B.  If two
    exponents produce the same value the smaller exponent is kept.
    """
    size = config.table_size
    if size is None:
        size = default_table_size(params.order)
    table: dict[int, int] = {}
    for j in range(size):
        k = (1 << j) if config.sequence == "pow2" else j + 1
        table.setdefault(params.pow(params.generator, k), k)
    return table


# Restart outcome of a step: too many candidates, apply the restart policy.
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
        if config.variant == "inverse":
            self.inv_a = mod_inverse(params.a, params.p)
        elif config.variant == "collatz" and math.gcd(3, self.order) != 1:
            raise UnsupportedGroupError(
                f"3x+1 variant needs gcd(3, p-1) = 1; p-1 = {self.order}")
        self.table = table if table is not None else build_table_one(params, config)
        self.max_steps = config.max_steps or default_max_steps(self.order)
        self.rng = random.Random(config.seed if config.seed is not None else 0)
        if config.choices is not None:
            self.next_bit = _scripted_bits(list(config.choices)).__next__
        else:
            self.next_bit = partial(self.rng.getrandbits, 1)

        # Tables II and III: the first exponent stored for each value
        self.seen: dict[int, LinExpr] = {self.target: LinExpr()}
        # untaken square roots in walk order, which restarts resume from
        self.forks: list[tuple[int, LinExpr]] = []
        self.value = self.target
        self.expr = LinExpr()
        self.segment = 0
        self.steps_taken = 0
        self.restarts = 0
        self.mid_restarts = 0
        self.collisions_tested = 0
        self.candidates_tried = 0
        self.trace: list[TraceRecord] | None = [] if config.trace else None

    def run(self) -> DlogResult:
        hit = self.table.get(self.target)
        if hit is not None:
            n = hit % self.order
            if self._verify(n):
                return self._result(n, CongruenceSolution(n, self.order, 1), [n])
        # bound here, not on self: a stored bound method would be a reference
        # cycle that keeps every finished walk's history alive until a full GC
        step = self._step_char2 if self.config.variant == "char2" else self._step_prime
        while True:
            for _ in range(self.max_steps):
                self.steps_taken += 1
                outcome = step()
                if outcome is not None:
                    break
            else:
                outcome = _RESTART  # budget exhausted
            if outcome is not _RESTART:
                return outcome
            self.restarts += 1
            if self.restarts > self.config.max_restarts:
                return self._result(None)
            self._restart()

    def _restart(self):
        self.segment += 1
        forks = self.forks
        if forks and self.mid_restarts < self.config.max_restarts // 2:
            self.value, self.expr = forks[self.rng.randrange(len(forks))]
            self.mid_restarts += 1
            return
        # fresh walk from the target; Table I survives, history does not
        self.seen.clear()
        forks.clear()
        self.value = self.target
        self.expr = self.seen[self.target] = LinExpr()

    # -- steps: each returns None (walk on), _RESTART or the DlogResult -----

    def _step_prime(self):
        value, expr = self.value, self.expr
        p = self.params.p
        roots = sqrt_mod_p(value, self.params)
        if roots is None:
            if self.config.variant == "collatz":
                new = value * value % p * value % p * self.params.a % p
                nexpr = expr.triple_plus_one()
                branch = "cube"
            else:
                new = value * self.inv_a % p
                nexpr = expr.dec()
                branch = "div"
            outcome = self._attempt(new, nexpr)
            self._record(value, branch, result=new, expr=nexpr)
            self.seen.setdefault(new, nexpr)
            self.value, self.expr = new, nexpr
            return outcome
        r1, r2 = roots
        nexpr = expr.halve()
        outcome = self._attempt(r1, nexpr)
        if outcome is None or outcome is _RESTART:
            # a verified second root outranks a restart from the first
            outcome = self._attempt(r2, nexpr) or outcome
        if outcome is None:
            bit = self.next_bit()
            chosen, other = (r1, r2) if bit == 0 else (r2, r1)
        else:
            bit, chosen, other = None, r1, r2
        seen = self.seen
        if chosen not in seen or other not in seen:
            self.forks.append((other, nexpr))
            seen.setdefault(chosen, nexpr)
            seen.setdefault(other, nexpr)
        self._record(value, "sqrt", roots=(r1, r2),
                     chosen=None if bit is None else chosen, decision=bit,
                     expr=nexpr)
        self.value, self.expr = chosen, nexpr
        return outcome

    def _step_char2(self):
        value, expr = self.value, self.expr
        bit = self.next_bit()
        if bit == 1:
            new = gf_div_by_x(value, self.params)
            nexpr = expr.dec()
            branch = "div"
        else:
            new = gf_sqrt(value, self.params)
            nexpr = expr.halve()
            branch = "sqrt"
        outcome = self._attempt(new, nexpr)
        self._record(value, branch, result=new, decision=bit, expr=nexpr)
        if new not in self.seen:
            self.seen[new] = nexpr
            if bit == 0:
                self.forks.append((new, nexpr))
        self.value, self.expr = new, nexpr
        return outcome

    # -- collision handling -------------------------------------------------

    def _attempt(self, value: int, expr: LinExpr):
        """Check one candidate value against Table I, then the walk history.

        Returns None (no hit, or hit discarded as spurious/degenerate),
        _RESTART (too many candidates), or the verified DlogResult.
        """
        known = self.table.get(value)
        if known is not None:
            stored = LinExpr(0, known, 0)
        else:
            stored = self.seen.get(value)
            if stored is None:
                return None
        self.collisions_tested += 1
        try:
            sol = collision_solve(expr, stored, self.order)
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

    def _record(self, value, branch, result=None, roots=None, chosen=None,
                decision=None, expr=None):
        if self.trace is None:
            return
        self.trace.append(TraceRecord(
            index=self.steps_taken, segment=self.segment, value=value,
            branch=branch, result=result, roots=roots, chosen=chosen,
            decision=decision, expr=expr))

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
