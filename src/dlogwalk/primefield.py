"""Exact modular arithmetic over Z/pZ: primality, factoring, the
generator check, and square roots through the 2-Sylow log.

A value's log e in the 2-Sylow subgroup <c>, x^s = c^e, is what a prime
walk carries from step to step (README's "The 2-Sylow log"): `sylow_log`
searches for it, and `sqrt_mod_p` takes it and returns each root's.  The
root tables here are built by gf2m's `_linear_tables`, with a product mod
p in place of xor; gf2m's module docstring tells how they are read.
"""

import math
import random

from ._record import Record
from .gf2m import _MAX_WINDOW_BITS, _WINDOW_MASK, _linear_tables


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RANDOM_WITNESSES = 16  # Miller-Rabin witnesses added from 3.3e24 up
RHO_MAX = 1 << 18  # rho iterations per piece: enough for primes to ~2^36
_GCD_BATCH = 128  # rho iterations per gcd


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 via the fixed witness set; larger inputs add
    _RANDOM_WITNESSES random witnesses on top.
    """
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    witnesses = list(_SMALL_PRIMES)
    if n >= 3317044064679887385961981:
        rng = random.Random(n)
        witnesses += [rng.randrange(2, n - 1) for _ in range(_RANDOM_WITNESSES)]
    for w in witnesses:
        x = pow(w, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> tuple[int, ...]:
    """The distinct prime factors of n >= 1, in increasing order, split by
    `_brent_divisor`; ValueError naming n once a piece needs more than
    RHO_MAX iterations.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors, todo = set(), [n]
    while todo:
        piece = todo.pop()
        if piece == 1:
            continue
        if is_probable_prime(piece):
            factors.add(piece)
            continue
        d = _brent_divisor(piece)
        if d is None:
            raise ValueError(f"cannot factor {n}: Brent's rho split no factor"
                             f" of {piece} within {RHO_MAX} iterations")
        todo += [d, piece // d]
    return tuple(sorted(factors))


def check_generator(params, factors=None) -> None:
    """ValueError unless params.generator has the whole group order N.

    g has order exactly N iff g^N = 1 and g^(N/q) != 1 for each prime
    q | N.  g^N = 1 is tested first, before any factoring, so most bad
    GF(2^m) moduli fail fast.  factors must be the distinct primes of N
    (else ValueError); None asks `prime_factors`, whose bound may refuse N.
    """
    g, order = params.generator, params.order
    if params.pow(g, order) != 1:
        th = ("th" if order % 100 in (11, 12, 13)
              else {1: "st", 2: "nd", 3: "rd"}.get(order % 10, "th"))
        raise ValueError(f"{params.format(g)} is not a generator of {params}:"
                         f" its {order}{th} power is not 1")
    if factors is None:
        factors = prime_factors(order)
    cofactor = order
    for q in factors:
        if not is_probable_prime(q) or order % q:
            raise ValueError(f"{q} is not a prime factor of the order {order}")
        if params.pow(g, order // q) == 1:
            raise ValueError(f"{params.format(g)} is not a generator:"
                             f" its order divides {order}/{q}")
        while cofactor % q == 0:
            cofactor //= q
    if cofactor > 1:
        raise ValueError(f"the factors miss the cofactor {cofactor} of the"
                         f" order {order}, so the generator is not verified")


def _brent_divisor(n: int) -> int | None:
    """A proper divisor of the composite n, or None past RHO_MAX iterations.

    Pollard's rho with Brent's cycle finding (BIT 20, 1980): y runs on
    y -> y^2 + c while x holds the value at the last power of two, and
    gcd(x - y, n) reveals a prime p | n once the iterates cycle mod p,
    after about sqrt(p) steps.  As Brent does, the product of x - y mod n
    over a batch of _GCD_BATCH iterations takes one gcd; a gcd of n steps
    back through that batch one iteration at a time, and one of n there
    means they cycled mod every prime at once: c + 1 starts another
    sequence.  A round of r steps that would take the count over all c
    past RHO_MAX is not run.
    """
    if n % 2 == 0:
        return 2
    c, budget = 1, RHO_MAX
    while True:
        y, r, g, q = 2, 1, 1, 1
        while g == 1:
            x = y
            budget -= r
            if budget < 0:
                return None
            done = 0
            while done < r and g == 1:
                batch_start = y
                for _ in range(min(_GCD_BATCH, r - done)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                done += _GCD_BATCH
            r *= 2
        if g == n:  # back through the batch, one gcd an iteration
            y, g = batch_start, 1
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
        if g != n:
            return g
        c += 1


class PrimeGroupParams(Record):
    """The group (Z/pZ)* of an odd prime p, generated by a primitive root a.

    p - 1 = 2^r * s with s odd, and c = a^s has order 2^r.  Derived from
    p and a once, and not compared by ==: sqrt_exp = (s + 1)/2, which is
    also 2^-1 mod s; sqrt_tables, c^(-h) per 11-bit window of a half log
    h (`sqrt_mod_p`); sqrt_top = 2^(r-1), the log bit that tells a root
    from its negative; odd_tables, the powers of a's odd part
    (`_odd_power_tables`); and variants.  ValueError unless p is an odd
    prime and `check_generator` accepts a against factors_of_order, else
    against `prime_factors(p - 1)`, whose refusal names factors_of_order.
    The factors are not stored, so a group is equal however it was built.
    """

    _fields = ("p", "a", "r", "s", "c")
    __slots__ = _fields + ("sqrt_exp", "sqrt_tables", "sqrt_top",
                           "odd_tables", "variants")

    def __init__(self, p: int, a: int,
                 factors_of_order: tuple[int, ...] | None = None):
        # the order test would refuse a composite p too (Lucas), but only
        # after factoring p - 1
        if p < 3 or not is_probable_prime(p):
            raise ValueError(f"p = {p} is not an odd prime")
        if not 1 <= a <= p - 1:
            raise ValueError(f"generator {a} out of range for p = {p}")
        s = p - 1
        r = 0
        while s % 2 == 0:
            s //= 2
            r += 1
        self._assign(p, a, r, s, pow(a, s, p))
        if factors_of_order is None:  # g^N = 1 for every a: factor first
            try:
                factors_of_order = prime_factors(p - 1)
            except ValueError as exc:
                raise ValueError(f"{exc}; give factors_of_order") from None
        check_generator(self, factors_of_order)
        self.sqrt_exp = (s + 1) // 2
        self.sqrt_tables = _linear_tables(  # bit j of h maps to c^(-2^j)
            [pow(self.c, -(1 << j), p) for j in range(r - 1)],
            lambda table, v: [u * v % p for u in table], 1)
        self.sqrt_top = 1 << (r - 1)
        self.odd_tables = _odd_power_tables(a, self)
        # cubing, the 3x+1 step, is a bijection of the group only when
        # gcd(3, p - 1) = 1
        self.variants = (("inverse", "collatz") if (p - 1) % 3
                         else ("inverse",))

    @property
    def order(self) -> int:
        return self.p - 1

    @property
    def generator(self) -> int:
        return self.a

    def element(self, x: int) -> int:
        """x as a group element: reduced mod p, and 0 rejected."""
        x %= self.p
        if x == 0:
            raise ValueError(f"0 is not an element of the group mod {self.p}")
        return x

    def parse(self, text: str) -> int:
        """A decimal group element."""
        return self.element(int(text))

    def format(self, u: int) -> str:
        return str(u)

    def mul(self, u: int, v: int) -> int:
        return u * v % self.p

    def pow(self, u: int, e: int) -> int:
        return mod_pow(u, e, self)

    def __str__(self) -> str:
        return str(self.p)


def mod_pow(base: int, exponent: int, params: PrimeGroupParams) -> int:
    """base^exponent mod p.

    Zero bases are rejected: the walk only ever exponentiates group
    elements.
    """
    base %= params.p
    if base == 0:
        raise ValueError("base is 0 mod p")
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    return pow(base, exponent, params.p)


def legendre(x: int, params: PrimeGroupParams) -> int:
    """Legendre symbol (x/p): +1 iff x is a quadratic residue mod p.

    Euler's criterion: x^((p-1)/2) is 1 for a residue and -1 otherwise.
    """
    if x % params.p == 0:
        raise ValueError("x is 0 mod p")
    return 1 if pow(x, params.p >> 1, params.p) == 1 else -1


def sylow_log(x: int, params: PrimeGroupParams) -> int:
    """x's log in the 2-Sylow subgroup <c>: the e in [0, 2^r) with x^s = c^e.

    Since a^s = c, e is n mod 2^r for x = a^n, the 2-part of Pohlig-Hellman
    (1978).  The search of Tonelli (1891) and Shanks (1973) finds it bit by
    bit from the lowest, in t = x^s: with the bits below i cleared,
    t = c^(m*2^i) and t^(2^(r-1-i)) = (-1)^m, so bit i is m's parity, and
    c^(-2^i) clears it.  Bit 0 set is Euler's criterion for a non-residue,
    x^((p-1)/2) = -1.
    """
    p, r = params.p, params.r
    if x % p == 0:
        raise ValueError("x is 0 mod p")
    t = pow(x, params.s, p)
    e, f = 0, pow(params.c, -1, p)
    for i in range(r):
        if pow(t, 1 << (r - 1 - i), p) != 1:
            t = t * f % p
            e |= 1 << i
        f = f * f % p  # c^(-2^(i+1))
    return e


def sqrt_mod_p(x: int, params: PrimeGroupParams,
               e: int | None = None) -> tuple[int, int, int] | None:
    """Both square roots of x as (min, max, e_min), or None if x is a
    non-residue; e_min is min's 2-Sylow log, and max's is e_min ^
    params.sqrt_top, since -1 = c^(2^(r-1)).

    e is x's own log, x^s = c^e with 0 <= e < 2^r (ValueError outside),
    asked of `sylow_log` when not given; an odd e returns None.  For e = 2h
    the root is x^((s+1)/2) * c^(-h), read from params.sqrt_tables and
    checked: ValueError naming e when its square is not x.  x is reduced
    mod p only when it lies outside [1, p).
    """
    p = params.p
    if not 0 < x < p:
        x %= p
        if x == 0:
            raise ValueError("x is 0 mod p")
    if e is None:
        e = sylow_log(x, params)
    elif e >> params.r:
        raise ValueError(f"log {e} of {x} is outside 0 <= e < 2^{params.r}")
    if e & 1:
        return None
    h = e >> 1
    y = pow(x, params.sqrt_exp, p)
    if h:  # always 0 for r = 1, which has no tables
        bits = h
        for table in params.sqrt_tables:  # reduced once, after the last
            y *= table[bits & _WINDOW_MASK]
            bits >>= _MAX_WINDOW_BITS
        y %= p
    if y * y % p != x:
        raise ValueError(f"{e} is not the 2-Sylow log of {x} mod {p}")
    q = p - y
    if y < q:
        return y, q, h
    return q, y, h ^ params.sqrt_top


# bits of an exponent below s per lookup in an odd part's power tables:
# the walk builds the target's per solve, so they stay small
_ODD_WINDOW_BITS = 8
_ODD_WINDOW_MASK = (1 << _ODD_WINDOW_BITS) - 1


def _odd_power_tables(x: int, params: PrimeGroupParams):
    """x'^b for b < s, one table per 8-bit window of b, where x' =
    x^(2^r * w), w = 2^-r mod s, is x's projection on the odd-order
    subgroup: 2^r * w is 1 mod s and 0 mod 2^r (Pohlig-Hellman, 1978)."""
    p, s = params.p, params.s
    square = pow(x, pow(2, -params.r, s) << params.r, p)
    squares = []
    for _ in range(s.bit_length()):
        squares.append(square)
        square = square * square % p
    return _linear_tables(squares, lambda table, v: [u * v % p for u in table],
                          1, _ODD_WINDOW_BITS)
