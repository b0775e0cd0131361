"""Exact modular arithmetic over Z/pZ.

Everything here works on plain Python ints (arbitrary precision); a
:class:`PrimeGroupParams` carries the prime p, a primitive root a, the
decomposition p - 1 = 2^r * s with s odd, c = a^s and the tables of powers
of c from which `sqrt_mod_p` builds a square root.

The walk carries each value's log in the 2-Sylow subgroup <c>: x^s = c^e
with 0 <= e < 2^r.  e is odd exactly for a non-residue, so `sqrt_mod_p`
decides residuosity (it returns None) and the walk computes no Legendre
symbol; `legendre` and `jacobi` remain for the generator's square check and
as tested library functions.  For even e = 2h the root R = x^((s+1)/2) *
c^(-h) has R^s = (x^s)^((s+1)/2) * c^(-h*s) = c^h, and -R, with s odd and
-1 = c^(2^(r-1)), has (-R)^s = c^(h + 2^(r-1)): the log of each root is
known once e is, and a root is a square iff its log is even.  The walk's
other steps move the log just as predictably: x/a has log e - 1 and
x^3 * a has 3e + 1 (mod 2^r), since a^s = c.  So a root costs one power and
one table entry per window of h's bits, and only a segment's first root
searches for e.
"""

from dataclasses import dataclass, field
import math
import random


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_RANDOM_WITNESSES = 16  # Miller-Rabin witnesses added from 3.3e24 up

# Most bits of the half log h that one table lookup in `sqrt_mod_p`
# handles; each window's table holds up to 2^11 entries.
_MAX_WINDOW_BITS = 11


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

    Trial division by q < 1024 (stopping once q^2 > n), then Brent's rho
    splits the cofactor, so a cofactor such as 715827883 * 2147483647 (from
    2^62 - 1) costs about the square root of its smaller factor in steps.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = []
    q = 2
    while q < 1024 and q * q <= n:
        if n % q == 0:
            factors.append(q)
            while n % q == 0:
                n //= q
        q += 1 if q == 2 else 2
    return tuple(sorted(factors + _rho_factors(n)))


def _rho_factors(n: int) -> list[int]:
    """The distinct prime factors of n >= 1, by Brent's rho alone."""
    factors, todo = set(), [n]
    while todo:
        n = todo.pop()
        if n == 1:
            continue
        if is_probable_prime(n):
            factors.add(n)
            continue
        d = _brent_divisor(n)
        todo += [d, n // d]
    return sorted(factors)


def _brent_divisor(n: int) -> int:
    """A proper divisor of the composite n.

    Pollard's rho with Brent's cycle finding (BIT 20, 1980): y runs on
    y -> y^2 + c while x holds the value at the last power of two, and
    gcd(x - y, n) reveals a prime p | n once the iterates cycle mod p,
    after about sqrt(p) steps.  A gcd of n itself means they cycled mod
    every prime at once; c + 1 starts another sequence.
    """
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        y, r, g = 2, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
                g = math.gcd(x - y, n)
                if g != 1:
                    break
            r *= 2
        if g != n:
            return g
        c += 1


@dataclass
class PrimeGroupParams:
    """The group (Z/pZ)* of an odd prime p, generated by a primitive root a.

    r and s are derived so that p - 1 = 2^r * s with s odd, and c = a^s,
    which has order 2^r; sqrt_exp = (s + 1)/2.  sqrt_windows = (w, tables)
    gives c^(-h) for the half log h < 2^(r-1) of `sqrt_mod_p`: h's r - 1
    bits are split into count = ceil((r-1)/11) windows of
    w = ceil((r-1)/count) bits (two of 10 for r = 20, none for r = 1), and
    window i's table holds c^(-j*2^(i*w)) for j < 2^w.  A square is never a
    primitive root, so a with Jacobi symbol (a/p) = +1 is rejected.
    If factors_of_order is given, it must list every prime factor of
    p - 1 (ValueError names a cofactor it leaves), and primitivity of a is
    verified in full; without it the caller's claim is trusted.
    """

    p: int
    a: int
    factors_of_order: tuple[int, ...] | None = None
    r: int = field(init=False)
    s: int = field(init=False)
    c: int = field(init=False)
    sqrt_exp: int = field(init=False, repr=False, compare=False)
    sqrt_windows: tuple[int, tuple[tuple[int, ...], ...]] = field(
        init=False, repr=False, compare=False)

    variants = ("inverse", "collatz")

    def __post_init__(self):
        if self.p < 3 or self.p % 2 == 0 or not is_probable_prime(self.p):
            raise ValueError(f"p = {self.p} is not an odd prime")
        if not 1 <= self.a <= self.p - 1:
            raise ValueError(f"generator {self.a} out of range for p = {self.p}")
        if jacobi(self.a, self.p) != -1:
            raise ValueError(f"{self.a} is a square mod {self.p},"
                             f" so it is not a primitive root")
        s = self.p - 1
        r = 0
        while s % 2 == 0:
            s //= 2
            r += 1
        self.r = r
        self.s = s
        self.c = pow(self.a, s, self.p)
        self.sqrt_exp = (s + 1) // 2
        self.sqrt_windows = _sqrt_windows(self.p, r, self.c)
        if self.factors_of_order is not None:
            self.factors_of_order = tuple(self.factors_of_order)
            cofactor = self.p - 1
            for q in self.factors_of_order:
                if (self.p - 1) % q != 0 or not is_probable_prime(q):
                    raise ValueError(f"{q} is not a prime factor of p-1")
                if pow(self.a, (self.p - 1) // q, self.p) == 1:
                    raise ValueError(
                        f"{self.a} is not a primitive root mod {self.p}"
                        f" (order divides (p-1)/{q})")
                while cofactor % q == 0:
                    cofactor //= q
            if cofactor > 1:
                raise ValueError(
                    f"factors_of_order misses the cofactor {cofactor} of"
                    f" p-1 = {self.p - 1}, so primitivity is not verified")

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


def _sqrt_windows(p: int, r: int, c: int):
    """PrimeGroupParams.sqrt_windows for c of order 2^r."""
    count = -(-(r - 1) // _MAX_WINDOW_BITS)
    w = -(-(r - 1) // max(count, 1))  # 0 for r = 1, which has no windows
    g = pow(c, -1, p)  # c^(-2^(i*w)) for window i
    tables = []
    for _ in range(count):
        tables.append(_powers(g, w, p))
        g = pow(g, 1 << w, p)
    return w, tuple(tables)


def _powers(g: int, w: int, p: int) -> tuple[int, ...]:
    """g^j mod p for j < 2^w, as running products."""
    powers = [1]
    for _ in range((1 << w) - 1):
        powers.append(powers[-1] * g % p)
    return tuple(powers)


def mod_inverse(x: int, modulus: int) -> int:
    """Inverse of x modulo `modulus`; modulus need not be prime.

    Raises ValueError when gcd(x, modulus) > 1.
    """
    return pow(x, -1, modulus)


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


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by binary quadratic reciprocity.

    Returns 0 when gcd(a, n) > 1.  For prime n this is the Legendre symbol.
    """
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(x: int, params: PrimeGroupParams) -> int:
    """Legendre symbol (x/p): +1 iff x is a quadratic residue mod p.

    Computed via the Jacobi symbol (O(log^2 p)); `legendre_euler` is the
    slower Euler-criterion form kept as a cross-check.
    """
    if x % params.p == 0:
        raise ValueError("x is 0 mod p")
    return jacobi(x, params.p)


def legendre_euler(x: int, params: PrimeGroupParams) -> int:
    """Legendre symbol by Euler's criterion x^((p-1)/2); test oracle for `legendre`."""
    if x % params.p == 0:
        raise ValueError("x is 0 mod p")
    e = mod_pow(x, (params.p - 1) // 2, params)
    return -1 if e == params.p - 1 else e


def sqrt_mod_p(x: int, params: PrimeGroupParams,
               e: int | None = None) -> tuple[int, int, int] | None:
    """Both square roots of x as (min, max, e_min), or None if x is a
    non-residue; e_min is min's 2-Sylow log: min^s = c^e_min.

    max's log is e_min ^ 2^(r-1), and a root is a square iff its log is
    even.  e is x's own log (x^s = c^e, 0 <= e < 2^r; ValueError outside
    that range): an odd e returns None, and an even e = 2h gives the root
    R = x^((s+1)/2) * c^(-h), one table entry per window of h's bits,
    checked by R^2 = x (ValueError if not: a wrong e never yields a
    non-root).  R^s = c^h and (-R)^s = c^(h + 2^(r-1)), since
    (-1)^s = -1 = c^(2^(r-1)).

    Without e, the search of Tonelli (1891) and Shanks (1973) finds it, bit
    by bit from the lowest, in t = x^s = c^e: with the bits below i
    cleared, t = c^(m*2^i) and t^(2^(r-1-i)) = (-1)^m, so bit i is m's
    parity, and c^(-2^i) clears it.  Bit 0 set is Euler's criterion for a
    non-residue, x^((p-1)/2) = -1.
    """
    p = params.p
    x %= p
    if x == 0:
        raise ValueError("x is 0 mod p")
    if e is None:
        r = params.r
        t = pow(x, params.s, p)
        if pow(t, 1 << (r - 1), p) != 1:
            return None
        e, f = 0, pow(params.c, -1, p)
        for i in range(1, r):
            f = f * f % p  # c^(-2^i)
            if pow(t, 1 << (r - 1 - i), p) != 1:
                t = t * f % p
                e |= 1 << i
    elif e and e >> params.r:
        raise ValueError(f"log {e} of {x} is outside 0 <= e < 2^{params.r}")
    elif e & 1:
        return None
    y = pow(x, params.sqrt_exp, p)
    if e:  # always 0 for r = 1
        w, tables = params.sqrt_windows
        h, mask = e >> 1, (1 << w) - 1
        for table in tables:
            y = y * table[h & mask] % p
            h >>= w
    if y * y % p != x:
        raise ValueError(f"{e} is not the 2-Sylow log of {x} mod {p}")
    if y < p - y:
        return y, p - y, e >> 1
    return p - y, y, (e >> 1) ^ (1 << (params.r - 1))
