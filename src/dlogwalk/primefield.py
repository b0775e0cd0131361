"""Exact modular arithmetic over Z/pZ.

Everything here works on plain Python ints (arbitrary precision); a
:class:`PrimeGroupParams` carries the prime p, a primitive root a, which
`check_generator` verifies, the decomposition p - 1 = 2^r * s with s odd,
c = a^s and the tables of powers of c from which `sqrt_mod_p` builds a
square root, and those of a's odd part, from which the walk builds a root
in the odd-order subgroup.

The walk carries each value's log in the 2-Sylow subgroup <c>: x^s = c^e
with 0 <= e < 2^r.  e is odd exactly for a non-residue, so the walk
computes no Legendre symbol; `legendre`, Euler's criterion, remains as a
tested library function.  `sylow_log` holds the one Tonelli-Shanks search
for e; a walk runs it once, on its target, and `sqrt_mod_p` runs it only
when its caller passes no log.  Every later log follows from an earlier
one, since a^s = c: target * a^j has log e + j, x/a has e - 1 and
x^3 * a has 3e + 1 (mod 2^r), and `sqrt_mod_p` returns the log of each
root.  So `sqrt_mod_p`'s root costs one power and one table entry c^(-h)
per 11-bit window of the half log h = e/2, from tables built and read as
gf2m's linear maps are (`_linear_tables`).  A walk's root of a value with
log 0 costs no power: it lies in the odd-order subgroup, and the walk
builds it from its own exponent as a product of lookups in the odd part's
fixed-base tables (`_odd_power_tables`).
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
    """The distinct prime factors of n >= 1, in increasing order.

    Brent's rho splits each composite piece until every piece is a
    probable prime, so a piece such as 715827883 * 2147483647 (from
    2^62 - 1) costs about the square root of its smaller factor in steps;
    one that needs over RHO_MAX raises ValueError naming n.
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

    r and s are derived so that p - 1 = 2^r * s with s odd, and c = a^s,
    which has order 2^r; sqrt_exp = (s + 1)/2, also 2^(-1) mod s.
    sqrt_tables gives c^(-h) for the half log h < 2^(r-1) of `sqrt_mod_p`,
    one table per 11-bit window of h, built by gf2m's `_linear_tables`
    (none for r = 1): entry b of table i is c^(-b*2^(11i)), the last table
    only for the bits left (2^11 and 2^8 entries for r = 20).  sqrt_top =
    2^(r-1) is the top bit of a log, which tells a root from its negative.
    odd_tables gives G'^b for b < s, G' = a^(2^r * w) with w = 2^(-r) mod
    s being a's projection on the odd-order subgroup, one table per 8-bit
    window of b (`_odd_power_tables`; 640 entries for s < 2^23): the walk
    builds an odd-part root from them, reading each window's table together
    with the same window's of the target's odd part, since both have one
    table per 8-bit window of s.  These four are derived from p and
    a once, so == does not compare them.  `check_generator` verifies a
    against the primes of p - 1 before any table is built: factors_of_order
    when given, else `prime_factors`', whose refusal names factors_of_order.
    It is not stored, so the same group is equal however it was built.
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
    non-residue; e_min is min's 2-Sylow log: min^s = c^e_min.

    max's log is e_min ^ 2^(r-1), and a root is a square iff its log is
    even.  x is reduced mod p only when it lies outside [1, p).  e is x's
    own log (x^s = c^e, 0 <= e < 2^r; ValueError outside that range),
    asked of `sylow_log` when not given: an odd e returns None, and an
    even e = 2h gives the root R = x^((s+1)/2) * c^(-h), one entry of
    params.sqrt_tables per 11-bit window of h, as `gf_sqrt` reads its
    tables, checked by R^2 = x (ValueError naming e if not: a wrong e
    never yields a non-root).  R^s = c^h and (-R)^s = c^(h + 2^(r-1)), since
    (-1)^s = -1 = c^(2^(r-1)), so the log of -R is h ^ params.sqrt_top.
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
    """x'^b for b < s, with x' = x^(2^r * w) and w = 2^(-r) mod s: x's
    projection on the odd-order subgroup, since 2^r * w is 1 mod s and 0
    mod 2^r (the odd part of Pohlig-Hellman, 1978).  One table per 8-bit
    window of b, from the squares x'^(2^j) (fixed-base windows as in
    Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992): x'^b is the
    product of entry b_i of table i over b's windows b_i."""
    p, s = params.p, params.s
    square = pow(x, pow(2, -params.r, s) << params.r, p)
    squares = []
    for _ in range(s.bit_length()):
        squares.append(square)
        square = square * square % p
    return _linear_tables(squares, lambda table, v: [u * v % p for u in table],
                          1, _ODD_WINDOW_BITS)
