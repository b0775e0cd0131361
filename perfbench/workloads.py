"""The benchmark's workloads: one group, its variants, and how to make inputs.

This module imports nothing from dlogwalk, so the fresh-process set-up probe
can start its clock before dlogwalk is imported.  Targets are computed here
with the benchmark's own arithmetic, independent of the solver under test.
"""

import math
from dataclasses import dataclass


def _gf2m_mulmod(u: int, v: int, poly: int) -> int:
    m = poly.bit_length() - 1
    r = 0
    while v:
        if v & 1:
            r ^= u
        v >>= 1
        u <<= 1
        if u >> m & 1:
            u ^= poly
    return r


@dataclass(frozen=True)
class Workload:
    """A group, its walk variants, and how many instances a run solves.

    `modulus` is the prime p of a prime workload, or the GF(2^m) modulus
    polynomial (bit m set) of a char2 workload, where the generator is x.
    `instances_per_s` is the rate at which this code solved instances
    untraced (every variant once) on a 2-CPU x86-64 host with Python 3.11.
    It sizes a run: the instance set is fixed by the seed and the run
    length, never by the solver's speed, so step statistics and the step
    digest repeat exactly for a given seed.
    """

    name: str
    field: str  # "prime" or "char2"
    modulus: int
    generator: int
    factors_of_order: tuple[int, ...]
    variants: tuple[str, ...]
    instances_per_s: float

    @property
    def params_span(self) -> str:
        """Per-layer name of the group constructor this workload calls."""
        if self.field == "prime":
            return "primefield.PrimeGroupParams"
        return "gf2m.BinaryFieldParams"

    def make_params(self, dlogwalk):
        """Build the group with its checks: primitivity or irreducibility."""
        if self.field == "prime":
            return dlogwalk.PrimeGroupParams(
                self.modulus, self.generator,
                factors_of_order=self.factors_of_order)
        return dlogwalk.BinaryFieldParams(self.modulus.bit_length() - 1,
                                          self.modulus)

    def target(self, n: int) -> int:
        """generator^n in the workload's group."""
        if self.field == "prime":
            return pow(self.generator, n, self.modulus)
        r, b = 1, self.generator
        while n:
            if n & 1:
                r = _gf2m_mulmod(r, b, self.modulus)
            b = _gf2m_mulmod(b, b, self.modulus)
            n >>= 1
        return r

    def instance_count(self, seconds: float) -> int:
        """Instances an untraced run solves in about `seconds`."""
        return max(1, math.ceil(seconds * self.instances_per_s))


# Why each workload is here, and which layers it should and should not move,
# is written in perfbench/README.md and in the "why" of BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    # Safe prime, p - 1 = 2 * 8388449 (r = 1): every root is a single pow,
    # so the step loop, Legendre symbol, history and LinExpr growth dominate
    # and Tonelli-Shanks never runs.
    Workload("prime_safe24", "prime", 16776899, 2, (2, 8388449),
             ("inverse", "collatz"), 7.8),
    # p = 7 * 2^20 + 1 (r = 20): every root runs the Tonelli-Shanks loop and
    # collisions can have several candidates.  gcd(3, p - 1) = 1 for collatz.
    Workload("prime_2adic", "prime", 7340033, 3, (2, 7),
             ("inverse", "collatz"), 7.0),
    # GF(2^19) mod x^19 + x^5 + x^2 + x + 1; 2^19 - 1 is prime, so x
    # generates the group.  gf2m dominates; primefield never runs on the walk.
    Workload("char2_m19", "char2", 0x80027, 0b10, (),
             ("char2",), 17.0),
)}
