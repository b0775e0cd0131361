import random

import pytest

from dlogwalk.gf2m import (GENERATOR, BinaryFieldParams, format_elem,
                           gf_div_by_x, gf_mul, gf_pow, gf_sqr, gf_sqrt,
                           is_irreducible, parse_elem, poly_str)

GF27 = BinaryFieldParams(7, 0x83)       # x^7 + x + 1
GF213 = BinaryFieldParams(13, 0x201B)   # x^13 + x^4 + x^3 + x + 1
NONZERO_27 = range(1, 128)


def test_field_params():
    assert GF27.order == 127
    assert GF213.order == 8191
    assert GF27.generator_verified        # 127 prime: every element != 1 generates
    assert GF213.generator_verified
    assert not BinaryFieldParams(4, 0b10011).generator_verified  # 15 = 3 * 5
    with pytest.raises(ValueError):
        BinaryFieldParams(7, 0x9B)   # x^7+x^4+x^3+x+1 has factor x^3+x^2+1
    with pytest.raises(ValueError):
        BinaryFieldParams(7, 0x82)   # no constant term
    with pytest.raises(ValueError):
        BinaryFieldParams(6, 0x83)   # degree disagrees with m
    with pytest.raises(ValueError):
        BinaryFieldParams(1, 0x3)    # the generator x is not in GF(2)


def test_is_irreducible_degree3():
    assert is_irreducible(0b1011)        # x^3 + x + 1
    assert is_irreducible(0b1101)        # x^3 + x^2 + 1
    assert not is_irreducible(0b1001)    # x^3 + 1 = (x+1)(x^2+x+1)
    assert not is_irreducible(0b1111)    # (x+1)^3


def test_mul_known_values():
    # x * (x^6 + x^4) = x^5 + x + 1 after reduction
    assert gf_mul(0x02, 0x50, GF27) == 0x23
    assert gf_mul(0x37, 0x01, GF27) == 0x37
    # x^4 * x^4 = x^8 = x^2 + x
    assert gf_mul(0x10, 0x10, GF27) == 0x06


def test_sqrt_known_values():
    assert gf_sqrt(0x1D, GF27) == 0x23   # sqrt(x^4+x^3+x^2+1) = x^5+x+1
    assert gf_sqrt(0x01, GF27) == 0x01
    assert gf_sqrt(0x3D, GF27) == 0x6B   # second worked example, row 4
    with pytest.raises(ValueError):
        gf_sqrt(0, GF27)


def test_div_by_x_known_values():
    assert gf_div_by_x(0x23, GF27) == 0x50   # (x^5+x+1)/x = x^6+x^4
    assert gf_div_by_x(0x02, GF27) == 0x01
    assert gf_div_by_x(0x77, GF27) == 0x7A
    with pytest.raises(ValueError):
        gf_div_by_x(0, GF27)


def test_pow_known_values():
    assert gf_pow(GENERATOR, 16, GF27) == 0x14   # x^16 = x^4 + x^2
    assert gf_pow(0x5A, 1, GF27) == 0x5A
    assert gf_pow(GENERATOR, 38, GF27) == 0x1D
    with pytest.raises(ValueError):
        gf_pow(0, 0, GF27)
    assert gf_pow(0, 3, GF27) == 0


def test_element_range_checks():
    with pytest.raises(ValueError):
        gf_mul(0x80, 0x01, GF27)  # degree 7 is not an element of GF(2^7)
    with pytest.raises(ValueError):
        gf_sqrt(1 << 13, GF213)


@pytest.mark.parametrize("params", [GF27, GF213])
def test_field_axioms_random(params):
    rng = random.Random(params.m)
    top = 1 << params.m
    for _ in range(1000):
        u, v, w = (rng.randrange(top) for _ in range(3))
        assert gf_mul(u, v, params) == gf_mul(v, u, params)
        assert gf_mul(gf_mul(u, v, params), w, params) == \
            gf_mul(u, gf_mul(v, w, params), params)
        assert gf_mul(u, v ^ w, params) == \
            gf_mul(u, v, params) ^ gf_mul(u, w, params)


@pytest.mark.parametrize("params", [GF27, GF213])
def test_inverse_via_pow(params):
    rng = random.Random(99)
    for _ in range(200):
        u = rng.randrange(1, 1 << params.m)
        assert gf_mul(u, gf_pow(u, params.order - 1, params), params) == 1


def test_sqrt_roundtrip_exhaustive_m7():
    for u in NONZERO_27:
        assert gf_sqrt(gf_mul(u, u, GF27), GF27) == u
        r = gf_sqrt(u, GF27)
        assert gf_mul(r, r, GF27) == u


def test_div_by_x_roundtrip_exhaustive_m7():
    for u in NONZERO_27:
        assert gf_mul(GENERATOR, gf_div_by_x(u, GF27), GF27) == u


def test_frobenius_linearity():
    rng = random.Random(4)
    for _ in range(500):
        u, v = rng.randrange(128), rng.randrange(128)
        assert gf_sqr(u ^ v, GF27) == gf_sqr(u, GF27) ^ gf_sqr(v, GF27)


def test_generator_enumerates_group_m7():
    seen = set()
    acc = 1
    for _ in range(127):
        seen.add(acc)
        acc = gf_mul(acc, GENERATOR, GF27)
    assert seen == set(NONZERO_27)
    assert acc == 1  # full cycle


def test_hex_roundtrip():
    for u in (0x00, 0x01, 0x1D, 0x6B, 0x7F):
        assert parse_elem(format_elem(u), GF27) == u
    assert parse_elem("1d", GF27) == 0x1D
    with pytest.raises(ValueError):
        parse_elem("0xFF", GF27)  # out of range for m = 7


def test_poly_str():
    assert poly_str(0) == "0"
    assert poly_str(0x01) == "1"
    assert poly_str(0x02) == "x"
    assert poly_str(0x83) == "x^7+x+1"
    assert poly_str(0x1D) == "x^4+x^3+x^2+1"
