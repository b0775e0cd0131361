"""Polynomial-basis arithmetic for GF(2^m).

Elements are ints used as bit masks: bit i is the coefficient of x^i, so
the modulus x^7 + x + 1 is 0x83 and the generator x is 0x02.  Addition is
xor.  Squaring is a field automorphism (Frobenius), so every element has
exactly one square root, reachable by m - 1 further squarings.
"""

from dataclasses import dataclass

from .primefield import is_probable_prime

GENERATOR = 0b10  # the element x

_IRREDUCIBILITY_SCAN_LIMIT = 32


def _poly_mod(v: int, f: int) -> int:
    fb = f.bit_length()
    while v.bit_length() >= fb:
        v ^= f << (v.bit_length() - fb)
    return v


def is_irreducible(f: int) -> bool:
    """Exhaustive trial division by every polynomial of degree <= deg(f)/2."""
    m = f.bit_length() - 1
    if m < 1:
        return False
    for d in range(1, m // 2 + 1):
        for g in range(1 << d, 1 << (d + 1)):
            if _poly_mod(f, g) == 0:
                return False
    return True


@dataclass
class BinaryFieldParams:
    """The group GF(2^m)* of an irreducible modulus polynomial f of degree m.

    The generator is x.  When 2^m - 1 is prime every element besides 1
    generates the group, so that is verified for free (`generator_verified`);
    otherwise it is taken on trust.
    """

    m: int
    poly: int

    generator = GENERATOR
    variants = ("char2",)

    def __post_init__(self):
        if self.m < 2:
            raise ValueError("extension degree must be >= 2:"
                             " x is not an element of GF(2)")
        if self.poly.bit_length() - 1 != self.m:
            raise ValueError(f"modulus degree {self.poly.bit_length() - 1} != m = {self.m}")
        if self.poly & 1 == 0:
            raise ValueError("modulus must have constant term 1")
        if self.m <= _IRREDUCIBILITY_SCAN_LIMIT and not is_irreducible(self.poly):
            raise ValueError(f"0x{self.poly:x} is reducible over GF(2)")

    @property
    def order(self) -> int:
        return (1 << self.m) - 1

    @property
    def generator_verified(self) -> bool:
        """Whether x provably generates the multiplicative group.

        When 2^m - 1 is prime, every element except 1 generates it;
        otherwise the claim rests on the caller.
        """
        return is_probable_prime(self.order)

    def element(self, u: int) -> int:
        """u as a group element: 0 and anything out of range rejected."""
        _check_elem(u, self)
        if u == 0:
            raise ValueError("0 is not an element of the multiplicative group")
        return u

    def parse(self, text: str) -> int:
        """A hex group element (bit 0 = constant term)."""
        return self.element(int(text, 16))

    def format(self, u: int) -> str:
        return format_elem(u)

    def mul(self, u: int, v: int) -> int:
        return gf_mul(u, v, self)

    def pow(self, u: int, e: int) -> int:
        return gf_pow(u, e, self)

    def __str__(self) -> str:
        return f"gf2^{self.m}/0x{self.poly:x}"


def _check_elem(u: int, params: BinaryFieldParams):
    if u < 0 or u.bit_length() > params.m:
        raise ValueError(f"0x{u:x} is not an element of GF(2^{params.m})")


def gf_mul(u: int, v: int, params: BinaryFieldParams) -> int:
    """Carry-less product of u and v, reduced mod the field polynomial."""
    _check_elem(u, params)
    _check_elem(v, params)
    r = 0
    while v:
        if v & 1:
            r ^= u
        u <<= 1
        v >>= 1
    return _poly_mod(r, params.poly)


def gf_sqr(u: int, params: BinaryFieldParams) -> int:
    return gf_mul(u, u, params)


def gf_sqrt(u: int, params: BinaryFieldParams) -> int:
    """The unique square root of u != 0, i.e. u^(2^(m-1)) by m-1 squarings."""
    _check_elem(u, params)
    if u == 0:
        raise ValueError("0 has no multiplicative square root")
    for _ in range(params.m - 1):
        u = gf_mul(u, u, params)
    return u


def gf_div_by_x(u: int, params: BinaryFieldParams) -> int:
    """v with x*v = u.

    If the constant term of u is clear this is a plain right shift; otherwise
    adding f first clears it (f has constant term 1) and the shift stays exact.
    """
    _check_elem(u, params)
    if u == 0:
        raise ValueError("0 cannot be divided by the generator")
    if u & 1:
        u ^= params.poly
    return u >> 1


def gf_pow(u: int, e: int, params: BinaryFieldParams) -> int:
    """u^e by square-and-multiply."""
    _check_elem(u, params)
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if u == 0:
        if e == 0:
            raise ValueError("0^0 is undefined")
        return 0
    r = 1
    while e:
        if e & 1:
            r = gf_mul(r, u, params)
        u = gf_mul(u, u, params)
        e >>= 1
    return r


def parse_elem(text: str, params: BinaryFieldParams) -> int:
    """Parse the hex encoding (bit 0 = constant term) of a field element."""
    u = int(text, 16)
    _check_elem(u, params)
    return u


def format_elem(u: int) -> str:
    return f"0x{u:x}"


def poly_str(u: int) -> str:
    """Human-readable polynomial form, highest degree first (0 -> \"0\")."""
    if u == 0:
        return "0"
    terms = []
    for i in range(u.bit_length() - 1, -1, -1):
        if u >> i & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)
