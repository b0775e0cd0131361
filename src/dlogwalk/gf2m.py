"""Polynomial-basis arithmetic for GF(2^m).

Elements are ints used as bit masks: bit i is the coefficient of x^i, so
the modulus x^7 + x + 1 is 0x83 and the generator x is 0x02.  Addition is
xor.  Squaring is a field automorphism (Frobenius), so every element has
exactly one square root.  Frobenius is additive, (u + v)^2 = u^2 + v^2, so
its inverse, the square root, is a GF(2)-linear map: sqrt(u) is the xor of
sqrt(x^j) over the bits j set in u, where sqrt(x^(2t)) = x^t and
sqrt(x^(2t+1)) = x^t * sqrt(x) (Fong, Hankerson, Lopez and Menezes, "Field
inversion and point halving revisited", IEEE Trans. Computers 53(8), 2004).
Squaring, the Frobenius map itself, is GF(2)-linear too.  Each field
precomputes both maps once, as one xor table per window of at most 11 bits
of an element (`_linear_tables`), so a root or a square costs one table
lookup per window: two for m <= 22, three for m <= 33.  A prime field's
root tables, the powers c^(-h) of `sqrt_mod_p`, come from the same builder
with a product mod p in place of xor, and are read the same way.  `gf_pow`
squares through the square tables and calls `gf_mul` only to multiply by
its base.
"""

from itertools import repeat
from operator import xor

from ._record import Record

GENERATOR = 0b10  # the element x

# Most bits of an argument that one lookup in a `_linear_tables` table
# handles, for GF(2^m) elements and prime roots' half logs alike; each
# window's table holds up to 2^11 entries.
_MAX_WINDOW_BITS = 11
_WINDOW_MASK = (1 << _MAX_WINDOW_BITS) - 1


def _poly_mod(v: int, f: int) -> int:
    fb = f.bit_length()
    while v.bit_length() >= fb:
        v ^= f << (v.bit_length() - fb)
    return v


class BinaryFieldParams(Record):
    """The group GF(2^m)* of a primitive modulus polynomial f of degree m.

    The generator is x, and `check_generator`'s order test is the whole
    check on f: if x has order 2^m - 1 in GF(2)[x]/(f), every nonzero
    element is a power of x and so a unit, the ring is a field, f is
    irreducible and x is primitive.  sqrt_tables and square_tables are
    derived, and == ignores them: the square-root map and the squaring
    map, one table per 11-bit window of an element, entry b of table i
    being the root (the square) of b * x^(11i).
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
        # sqrt(x^j) = x^(j // 2), times sqrt(x) when j is odd
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
    images[j] for b < 2^j, as one table per window of `bits` bits of its
    argument (the last window takes the bits left): entry b of table i is
    f(b * 2^(bits*i)).  step(table, image) gives the entries b + 2^j from
    the 2^j so far.  With xor and 0 it is a GF(2)-linear map on GF(2^m),
    images[j] being the image of x^j; `PrimeGroupParams` builds c^(-h) and
    an odd part's powers with a product mod p and 1."""
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
    """The unique square root of u != 0, i.e. u^(2^(m-1)).

    The root is linear in u over GF(2) (Frobenius is additive), so it is
    the xor of one precomputed entry per 11-bit window of u:
    params.sqrt_tables.
    """
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
