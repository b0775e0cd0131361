"""Exact modular arithmetic over Z/pZ.

Everything here works on plain Python ints (arbitrary precision); a
:class:`PrimeGroupParams` carries the prime p, a primitive root a, and the
decomposition p - 1 = 2^r * s with s odd, which the square-root code needs.
"""

from dataclasses import dataclass, field
import random


class NotAResidueError(ValueError):
    """Square root requested for a quadratic non-residue."""


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


@dataclass
class PrimeGroupParams:
    """The group (Z/pZ)* of an odd prime p, generated by a primitive root a.

    r and s are derived so that p - 1 = 2^r * s with s odd.  A square is
    never a primitive root, so a with Jacobi symbol (a/p) = +1 is rejected.
    If factors_of_order lists the prime factors of p - 1, primitivity of a
    is verified in full; otherwise the caller's claim is trusted.
    """

    p: int
    a: int
    factors_of_order: tuple[int, ...] | None = None
    r: int = field(init=False)
    s: int = field(init=False)

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


def sqrt_mod_p(x: int, params: PrimeGroupParams) -> tuple[int, int]:
    """Both square roots of a quadratic residue x, as (min, max).

    For p = 3 mod 4 (r = 1) the root is x^((s+1)/2) directly.  Otherwise
    Tonelli-Shanks runs with the primitive root a as the non-residue it
    needs (a primitive root is never a square).
    """
    p = params.p
    x %= p
    if x == 0:
        raise ValueError("x is 0 mod p")
    if legendre(x, params) != 1:
        raise NotAResidueError(f"{x} is not a quadratic residue mod {p}")
    if params.r == 1:
        y = pow(x, (params.s + 1) // 2, p)
    else:
        y = _tonelli_shanks(x, params)
    return (y, p - y) if y < p - y else (p - y, y)


def _tonelli_shanks(x: int, params: PrimeGroupParams) -> int:
    p, r, s = params.p, params.r, params.s
    c = pow(params.a, s, p)
    y = pow(x, (s + 1) // 2, p)
    t = pow(x, s, p)
    m = r
    while t != 1:
        t2i = t
        i = 0
        for i in range(1, m):
            t2i = t2i * t2i % p
            if t2i == 1:
                break
        b = pow(c, 1 << (m - i - 1), p)
        y = y * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return y
