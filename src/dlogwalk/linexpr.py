"""Symbolic exponent tracking and the collision congruence.

While the walk transforms a group element it transforms the element's
unknown discrete log n alongside, as m = (A*n + B) / 2^k, so
2^k * m = A*n + B (mod N) for the group order N.  A halving raises k
instead of dividing A and B by 2, which is impossible mod the even p - 1.
A value's two roots have logs N/2 apart, and 2^k * N/2 = 0 (mod N) for
k >= 1, so one exponent holds for whichever root the walk took; a
collision multiplies each side by 2^(K - k_i), K = max(k1, k2), which
clears the denominators exactly.  Reducing A and B mod N is sound, since
only their residues enter the congruence; it is dividing by 2 that is
not.  So the ops keep A and B inside (-N, N) and take t = 2^k mod N from
the caller: a value stays as it is until it leaves that range.  k itself
stays exact, a small int, because the collision scales 2^(K - k) need it:
scaling each side by the other's t instead would multiply the congruence
by a further 2^min(k1, k2), and its gcd with N, hence the candidate
count, by up to the 2^r dividing N.

LinExpr's ops are the reference form of the arithmetic that the walk does
inline on plain (A, B, k) tuples.
"""

from math import gcd
from typing import NamedTuple


class NoSolutionError(ValueError):
    """gcd(coef, N) does not divide the right-hand side: no n solves it,
    which the walk, whose collisions the true n solves, reads as broken."""


class DegenerateCollisionError(ValueError):
    """Both sides of the collision congruence vanish mod N: every n solves it."""


class TooManyCandidatesError(ValueError):
    """Solution count d exceeds the bound on candidates to verify, which
    the walk sets with its constant walk.D_MAX."""

    def __init__(self, count: int, limit: int):
        super().__init__(f"{count} candidate solutions exceed limit {limit}")
        self.count = count
        self.limit = limit


class LinExpr(NamedTuple):
    """The walk exponent m = (A*n + B) / 2^k as a function of the unknown n.

    Equal by value, also to the plain (A, B, k) tuple the walk stores.
    dec and triple_plus_one take t = 2^k mod N and N.  The layer tracer
    patches the ops by name (tests/test_tracer_contract.py).
    """

    A: int = 1
    B: int = 0
    k: int = 0

    def dec(self, t: int, order: int) -> "LinExpr":
        """m - 1: subtracting 1 from (A*n + B)/2^k lowers B by 2^k = t,
        and by N less if that leaves (-N, N)."""
        A, B, k = self
        B -= t
        if B <= -order:
            B += order
        return tuple.__new__(LinExpr, (A, B, k))

    def halve(self) -> "LinExpr":
        """m / 2: one more halving."""
        A, B, k = self
        return tuple.__new__(LinExpr, (A, B, k + 1))

    def triple_plus_one(self, t: int, order: int) -> "LinExpr":
        """3m + 1: triples A and B, and folds the +1 into B as 2^k = t;
        A or B that leaves (-N, N) is reduced mod N."""
        A, B, k = self
        A *= 3
        B = 3 * B + t
        if not -order < A < order:
            A %= order
        if not -order < B < order:
            B %= order
        return tuple.__new__(LinExpr, (A, B, k))

    def __str__(self):
        if self.A == 0:
            num = str(self.B)
        else:
            num = {1: "n", -1: "-n"}.get(self.A, f"{self.A}n")
            if self.B > 0:
                num += f"+{self.B}"
            elif self.B < 0:
                num += str(self.B)
        if self.k == 0:
            return num
        if self.A != 0 and self.B != 0:
            num = f"({num})"
        # a denominator past 2^10 prints as a power, not as k bits of digits
        return f"{num}/{1 << self.k if self.k <= 10 else f'2^{self.k}'}"


class CongruenceSolution(NamedTuple):
    """Solutions of a linear congruence mod the group order N.

    The full solution set is {residue + t*modulus : 0 <= t < count} mod N,
    with modulus = N / count.
    """

    residue: int
    modulus: int
    count: int


def solve_linear(coef: int, rhs: int, order: int) -> CongruenceSolution:
    """Solve coef * n = rhs (mod order).

    With d = gcd(coef, order) there are d solutions when d divides rhs,
    spaced order/d apart; otherwise none (NoSolutionError).
    """
    if order < 1:
        raise ValueError("order must be positive")
    coef %= order
    rhs %= order
    d = gcd(coef, order)  # gcd(0, order) == order: coef vanishing means d = N
    if rhs % d != 0:
        raise NoSolutionError(f"{coef}*n = {rhs} mod {order} has no solution")
    modulus = order // d  # 1 when d = N, and pow(0, -1, 1) == 0 then
    residue = rhs // d * pow(coef // d, -1, modulus) % modulus
    return CongruenceSolution(residue, modulus, d)


def collision_solve(e1: LinExpr, e2: LinExpr, order: int) -> CongruenceSolution:
    """Solve the congruence of two exponents of one value, each side
    scaled by 2^(K - k_i) with K = max(k1, k2) (the module docstring):

        (2^(K-k1)*A1 - 2^(K-k2)*A2) * n  =  2^(K-k2)*B2 - 2^(K-k1)*B1  (mod order)

    DegenerateCollisionError when both sides are 0 mod order (a
    self-collision, or a cycle such as 2^m = 1 in GF(2^m)*).
    """
    big_k = max(e1.k, e2.k)
    m1 = pow(2, big_k - e1.k, order)
    m2 = pow(2, big_k - e2.k, order)
    coef = m1 * e1.A - m2 * e2.A
    rhs = m2 * e2.B - m1 * e1.B
    if coef % order == 0 and rhs % order == 0:
        raise DegenerateCollisionError("0 = 0 (mod order): no constraint on n")
    return solve_linear(coef, rhs, order)


def enumerate_candidates(sol: CongruenceSolution, order: int,
                         d_max: int) -> list[int]:
    """All d solutions mod the group order, ascending.

    Raises TooManyCandidatesError past d_max so the caller can walk on
    instead of grinding through trial verification.  residue < modulus and
    modulus * count = order, so the range needs neither a sort nor a
    reduction.
    """
    if sol.count > d_max:
        raise TooManyCandidatesError(sol.count, d_max)
    return list(range(sol.residue, order, sol.modulus))
