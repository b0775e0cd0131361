"""Polynomial-basis arithmetic for GF(2^m), and the window tables of the
linear maps that both fields' roots read.

Elements are ints used as bit masks: bit i is the coefficient of x^i, so
the modulus x^7 + x + 1 is 0x83 and the generator x is 0x02.  Addition is
xor.  Squaring, the Frobenius map, is a GF(2)-linear automorphism, so
every element has exactly one square root and the root map is linear
too: sqrt(u) is the xor of sqrt(x^j) over the bits j set in u, where
sqrt(x^(2t)) = x^t and sqrt(x^(2t+1)) = x^t * sqrt(x) (Fong, Hankerson,
Lopez and Menezes, IEEE Trans. Computers 53(8), 2004).

A linear map is stored as one table per window of at most 11 bits of its
argument (`_linear_tables`): entry b of table i is the image of
b * x^(11i), so an image costs one lookup per window, two for m <= 22.
The same builder, with a product mod p in place of xor, makes a prime
field's root tables c^(-h) and the odd parts' powers (fixed-base windows,
Brickell, Gordon, McCurley and Wilson, EUROCRYPT 1992), read the same way.
"""

from itertools import repeat
from operator import xor

from ._record import Record

GENERATOR = 0b10  # the element x

# window bits of a `_linear_tables` table, for GF(2^m) and prime roots alike
_MAX_WINDOW_BITS = 11
_WINDOW_MASK = (1 << _MAX_WINDOW_BITS) - 1


def _poly_mod(v: int, f: int) -> int:
    fb = f.bit_length()
    while v.bit_length() >= fb:
        v ^= f << (v.bit_length() - fb)
    return v


class BinaryFieldParams(Record):
    """The group GF(2^m)* of a primitive modulus polynomial f of degree m,
    generated by x; ValueError unless `check_generator` accepts x, the
    whole check on f (README's "Library").  sqrt_tables and square_tables,
    the root and squaring maps' window tables, are derived, and == ignores
    them.
    """

    _fields = ("m", "poly")
    __slots__ = _fields + ("sqrt_tables", "square_tables")

    generator = GENERATOR
    variants = ("char2",)

    def __init__(self, m: int, poly: int):
        if m < 2:
            raise ValueError("extension degree must be >= 2:"
                             " x is not an element of GF(2)")
        if poly >> m != 1:  # also rejects negative ints
            raise ValueError(f"{poly:#x} is not a polynomial"
                             f" of degree m = {m}")
        # here, not at the top: primefield imports gf2m
        from .primefield import check_generator
        self._assign(m, poly)
        # gf_pow squares through these: (x^j)^2 = x^(2j) mod f
        self.square_tables = _linear_tables(
            [_poly_mod(1 << (2 * j), poly) for j in range(m)])
        check_generator(self)
        root_x = gf_pow(GENERATOR, 1 << (m - 1), self)  # x^(2^(m-1))
        self.sqrt_tables = _linear_tables(
            [gf_mul(1 << (j >> 1), root_x if j & 1 else 1, self)
             for j in range(m)])

    @property
    def order(self) -> int:
        return (1 << self.m) - 1

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
        return f"0x{u:x}"

    def mul(self, u: int, v: int) -> int:
        return gf_mul(u, v, self)

    def pow(self, u: int, e: int) -> int:
        return gf_pow(u, e, self)

    def __str__(self) -> str:
        return f"gf2^{self.m}/0x{self.poly:x}"


def _xor_all(table: list[int], image: int):
    return map(xor, table, repeat(image, len(table)))


def _linear_tables(images: list[int], step=_xor_all, unit: int = 0,
                   bits: int = _MAX_WINDOW_BITS) -> tuple[tuple[int, ...], ...]:
    """The map f with f(0) = unit and f(b + 2^j) = f(b) combined with
    images[j] for b < 2^j, one table per window of `bits` bits of its
    argument, the last for the bits left: entry b of table i is
    f(b * 2^(bits*i)).  step(table, image) gives the entries b + 2^j from
    the 2^j so far."""
    tables = []
    for lo in range(0, len(images), bits):
        table = [unit]
        for image in images[lo:lo + bits]:
            table += step(table, image)
        tables.append(tuple(table))
    return tuple(tables)


def _check_elem(u: int, params: BinaryFieldParams):
    if u < 0 or u.bit_length() > params.m:
        raise ValueError(f"0x{u:x} is not an element of GF(2^{params.m})")


def gf_mul(u: int, v: int, params: BinaryFieldParams) -> int:
    """Carry-less product of u and v, reduced mod the field polynomial."""
    m = params.m
    if u < 0 or v < 0 or u.bit_length() > m or v.bit_length() > m:
        _check_elem(u, params)  # only on failure: it raises for u or v
        _check_elem(v, params)
    r = 0
    while v:
        if v & 1:
            r ^= u
        u <<= 1
        v >>= 1
    return _poly_mod(r, params.poly)


def gf_sqrt(u: int, params: BinaryFieldParams) -> int:
    """The unique square root of u != 0, u^(2^(m-1)), from
    params.sqrt_tables."""
    if u <= 0 or u >> params.m:  # _check_elem only on failure
        _check_elem(u, params)
        raise ValueError("0 has no multiplicative square root")
    r = 0
    for table in params.sqrt_tables:
        r ^= table[u & _WINDOW_MASK]
        u >>= _MAX_WINDOW_BITS
    return r


def gf_div_by_x(u: int, params: BinaryFieldParams) -> int:
    """v with x*v = u.

    If the constant term of u is clear this is a plain right shift; otherwise
    adding f first clears it (f has constant term 1) and the shift stays exact.
    """
    if u <= 0 or u >> params.m:  # _check_elem only on failure
        _check_elem(u, params)
        raise ValueError("0 cannot be divided by the generator")
    if u & 1:
        u ^= params.poly
    return u >> 1


def gf_pow(u: int, e: int, params: BinaryFieldParams) -> int:
    """u^e by left-to-right square-and-multiply.

    Each square is one lookup per window in params.square_tables; gf_mul
    runs only on e's set bits, always by the fixed base u (for the
    generator x, a two-iteration loop).
    """
    _check_elem(u, params)
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    if u == 0:
        if e == 0:
            raise ValueError("0^0 is undefined")
        return 0
    tables = params.square_tables
    r = 1
    for bit in f"{e:b}":  # "0" for e = 0: one square of 1
        s = 0
        for table in tables:
            s ^= table[r & _WINDOW_MASK]
            r >>= _MAX_WINDOW_BITS
        r = gf_mul(s, u, params) if bit == "1" else s
    return r
