"""Exact modular arithmetic over Z/pZ.

Everything here works on plain Python ints (arbitrary precision); a
:class:`PrimeGroupParams` carries the prime p, a primitive root a, the
decomposition p - 1 = 2^r * s with s odd, c = a^s and the table of its
powers c^(2^j), j < r, which the square-root code reads.  `sqrt_mod_p`
also decides residuosity (it returns None for a non-residue), so the walk
computes no Legendre symbol; `legendre` and `jacobi` remain for the
generator's square check and as tested library functions.
"""

from dataclasses import dataclass, field
import math
import random


_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int, rounds: int = 16) -> bool:
    """Miller-Rabin primality test.

    Deterministic for n < 3.3e24 via the fixed witness set; larger inputs add
    `rounds` random witnesses on top.
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
        witnesses += [rng.randrange(2, n - 1) for _ in range(rounds)]
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
    which has order 2^r; c_powers[j] = c^(2^j) for j < r is the table that
    Tonelli-Shanks reads (c_powers[r-1] = -1).  A square is never a
    primitive root, so a with Jacobi symbol (a/p) = +1 is rejected.
    If factors_of_order lists the prime factors of p - 1, primitivity of a
    is verified in full; otherwise the caller's claim is trusted.
    """

    p: int
    a: int
    factors_of_order: tuple[int, ...] | None = None
    r: int = field(init=False)
    s: int = field(init=False)
    c: int = field(init=False)
    c_powers: tuple[int, ...] = field(init=False, repr=False, compare=False)

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
        powers = [pow(self.a, s, self.p)]
        for _ in range(r - 1):
            powers.append(powers[-1] * powers[-1] % self.p)
        self.c, self.c_powers = powers[0], tuple(powers)
        if self.factors_of_order is not None:
            self.factors_of_order = tuple(self.factors_of_order)
            for q in self.factors_of_order:
                if (self.p - 1) % q != 0 or not is_probable_prime(q):
                    raise ValueError(f"{q} is not a prime factor of p-1")
                if pow(self.a, (self.p - 1) // q, self.p) == 1:
                    raise ValueError(
                        f"{self.a} is not a primitive root mod {self.p}"
                        f" (order divides (p-1)/{q})")

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


def sqrt_mod_p(x: int, params: PrimeGroupParams) -> tuple[int, int] | None:
    """Both square roots of x as (min, max), or None if x is a non-residue.

    Tonelli-Shanks: z = x^((s-1)/2) gives y = z*x = x^((s+1)/2) and
    t = z*y = x^s, so y^2 = t*x.  Each pass finds the least i with
    t^(2^i) = 1 and brings the order of t down to 2^i by multiplying y by
    c^(2^(r-i-1)) and t by its square, both read from params.c_powers,
    until t = 1 and y is a root.  t starts with order 2^r exactly when x is
    a non-residue (Euler's criterion), so that is the one case in which the
    first pass finds no i < r.
    """
    p, r, c_powers = params.p, params.r, params.c_powers
    x %= p
    if x == 0:
        raise ValueError("x is 0 mod p")
    z = pow(x, (params.s - 1) // 2, p)
    y = z * x % p
    t = z * y % p
    while t != 1:
        i, t2i = 0, t
        while t2i != 1:
            t2i = t2i * t2i % p
            i += 1
        if i == r:
            return None
        y = y * c_powers[r - i - 1] % p
        t = t * c_powers[r - i] % p
    return (y, p - y) if y < p - y else (p - y, y)
