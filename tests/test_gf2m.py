import random
import re

import pytest

from dlogwalk.gf2m import (GENERATOR, BinaryFieldParams, _poly_mod,
                           gf_div_by_x, gf_mul, gf_pow, gf_sqrt)
from reference_walk import brute_order, gf_pow_reference, is_irreducible

GF27 = BinaryFieldParams(7, 0x83)       # x^7 + x + 1
GF213 = BinaryFieldParams(13, 0x201B)   # x^13 + x^4 + x^3 + x + 1
GF219 = BinaryFieldParams(19, 0x80027)  # the benchmark's char2_m19
# one full 11-bit window, one full window and a 1-bit one, two full windows
GF211 = BinaryFieldParams(11, 0x805)       # x^11 + x^2 + 1
GF212 = BinaryFieldParams(12, 0x1053)      # x^12 + x^6 + x^4 + x + 1
GF222 = BinaryFieldParams(22, 0x400003)    # x^22 + x + 1
NONZERO_27 = range(1, 128)


def test_field_params():
    assert GF27.order == 127
    assert GF213.order == 8191
    with pytest.raises(ValueError):
        BinaryFieldParams(7, 0x9B)   # x^7+x^4+x^3+x+1 has factor x^3+x^2+1
    with pytest.raises(ValueError):
        BinaryFieldParams(33, 0x200000001)  # x^33+1 has factor x+1
    with pytest.raises(ValueError):
        BinaryFieldParams(7, 0x82)   # no constant term
    with pytest.raises(ValueError):
        BinaryFieldParams(6, 0x83)   # degree disagrees with m
    for poly in (-0x5, -0xB):        # bit_length looks right, sign does not
        with pytest.raises(ValueError):
            BinaryFieldParams(poly.bit_length() - 1, poly)
    with pytest.raises(ValueError):
        BinaryFieldParams(1, 0x3)    # the generator x is not in GF(2)


def test_is_irreducible_degree3():
    assert is_irreducible(0b1011)        # x^3 + x + 1
    assert is_irreducible(0b1101)        # x^3 + x^2 + 1
    assert not is_irreducible(0b1001)    # x^3 + 1 = (x+1)(x^2+x+1)
    assert not is_irreducible(0b1111)    # (x+1)^3


def _irreducible_by_trial_division(f):
    m = f.bit_length() - 1
    return m >= 1 and all(_poly_mod(f, g) != 0
                          for g in range(2, 1 << (m // 2 + 1)))


def test_is_irreducible_matches_trial_division():
    for f in range(1 << 11):  # every f of degree <= 10
        assert is_irreducible(f) == _irreducible_by_trial_division(f), hex(f)


def test_is_irreducible_rejects_negative_polynomials():
    # reducing by a negative f never shrinks the remainder, so it must be
    # refused, not tested: the loop would never end
    for f in (-0x83, -1):
        with pytest.raises(ValueError, match=f"^{f:#x} is not a polynomial"):
            is_irreducible(f)
    assert not is_irreducible(0) and not is_irreducible(1)


def test_field_builds_exactly_when_modulus_is_primitive():
    # every x^m + low, even low included: the order test alone must decide
    built = 0
    for m in range(2, 11):
        for low in range(1 << m):
            poly = 1 << m | low
            # x's order: multiplying by x is a shift, then poly added
            # when bit m is set
            primitive = (_irreducible_by_trial_division(poly)
                         and brute_order(
                             lambda v: v << 1 ^ poly * (v >> (m - 1)))
                         == (1 << m) - 1)
            try:
                BinaryFieldParams(m, poly)
            except ValueError:
                assert not primitive, hex(poly)
            else:
                assert primitive, hex(poly)
                built += 1
    # phi(2^m - 1)/m primitive polynomials of each degree m
    assert built == 1 + 2 + 2 + 6 + 6 + 18 + 16 + 48 + 60


def test_bad_modulus_refused_without_factoring(monkeypatch):
    # x^N != 1 already: a reducible modulus, x^33 + 1, and one without a
    # constant term fail before the order is factored
    def no_factoring(n):
        raise AssertionError(f"factored {n}")
    monkeypatch.setattr("dlogwalk.primefield.prime_factors", no_factoring)
    for m, poly in ((7, 0x9B), (33, 0x200000001), (7, 0x82)):
        with pytest.raises(ValueError, match=re.escape(
                f"0x2 is not a generator of gf2^{m}/{poly:#x}:")):
            BinaryFieldParams(m, poly)


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
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        gf_pow(3, -1, GF27)
    assert gf_pow(0, 3, GF27) == 0


@pytest.mark.parametrize("params", [GF27, GF213, GF219])
def test_pow_matches_square_and_multiply_on_gf_mul(params):
    rng = random.Random(params.poly)
    top, order = 1 << params.m, params.order
    cases = [(rng.randrange(1, top), rng.randrange(order)) for _ in range(200)]
    cases += [(rng.randrange(1, top), 0), (1, rng.randrange(order)), (1, 0),
              (rng.randrange(1, top), order), (GENERATOR, order + 5),
              (rng.randrange(1, top), rng.randrange(order, 1 << 3 * params.m)),
              (GENERATOR, 1), (top - 1, 2), (top >> 1, 3)]
    for u, e in cases:
        assert gf_pow(u, e, params) == gf_pow_reference(u, e, params), (u, e)
    assert gf_pow(GENERATOR, order, params) == 1


@pytest.mark.parametrize("params,windows", [
    (GF27, [128]), (GF211, [2048]), (GF212, [2048, 2]),
    (GF219, [2048, 256]), (GF222, [2048, 2048]),
    (BinaryFieldParams(23, 0x800021), [2048, 2048, 2]),  # x^23 + x^5 + 1
])
def test_linear_map_tables_have_11_bit_windows(params, windows):
    assert [len(t) for t in params.sqrt_tables] == windows
    assert [len(t) for t in params.square_tables] == windows


def _table_square(u, params):
    """u^2 as the xor of one square_tables entry per 11-bit window."""
    r = 0
    for table in params.square_tables:
        r ^= table[u & 0x7FF]
        u >>= 11
    return r


@pytest.mark.parametrize("params", [GF211, GF212, GF222])
def test_root_and_square_tables_at_window_edges(params):
    m = params.m
    rng = random.Random(m)
    edges = [1, (1 << m) - 1, 1 << (m - 1)]  # one, all ones, top bit only
    for lo in range(0, m, 11):  # each window's lowest and highest bit
        edges += [1 << lo, 1 << min(lo + 10, m - 1),
                  ((1 << min(11, m - lo)) - 1) << lo]
    for u in edges + [rng.randrange(1, 1 << m) for _ in range(2000)]:
        square = gf_mul(u, u, params)
        assert gf_sqrt(square, params) == u, hex(u)
        # the table square, one lookup per window, and through gf_pow
        assert _table_square(u, params) == square, hex(u)
        assert gf_pow(u, 2, params) == square, hex(u)


def test_mul_rejects_non_elements_in_either_argument():
    # gf_mul tests the range inline; each bad input still raises the exact
    # error of the full element check
    for bad in (-5, 0x80, 1 << 200):
        message = f"0x{bad:x} is not an element of GF(2^7)"
        for args in ((bad, 1), (1, bad), (bad, bad), (0x7F, bad)):
            with pytest.raises(ValueError) as info:
                gf_mul(*args, GF27)
            assert str(info.value) == message, args
        with pytest.raises(ValueError) as info:
            gf_pow(bad, 3, GF27)
        assert str(info.value) == message
    assert gf_mul(0x7F, 0x7F, GF27) == gf_pow(0x7F, 2, GF27)


@pytest.mark.parametrize("op,zero", [
    (gf_sqrt, "0 has no multiplicative square root"),
    (gf_div_by_x, "0 cannot be divided by the generator"),
])
def test_step_ops_reject_non_elements(op, zero):
    # the step ops test the range inline; each bad input still raises the
    # exact error of the full element check
    for u, message in [(0, zero),
                       (-5, "0x-5 is not an element of GF(2^7)"),
                       (0x80, "0x80 is not an element of GF(2^7)"),
                       (1 << 200, f"0x{1 << 200:x} is not an element of GF(2^7)")]:
        with pytest.raises(ValueError) as info:
            op(u, GF27)
        assert str(info.value) == message, u
    assert op(0x7F, GF27) > 0  # the widest element passes


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
    # every nonzero element of GF(2^7), 200 draws from GF(2^13)
    rng = random.Random(99)
    elements = (NONZERO_27 if params is GF27
                else [rng.randrange(1, 1 << params.m) for _ in range(200)])
    for u in elements:
        assert gf_mul(u, gf_pow(u, params.order - 1, params), params) == 1


def test_sqrt_roundtrip_exhaustive_m7():
    # and every element of GF(2^13), whose second 11-bit window is partial
    for params in (GF27, GF213):
        for u in range(1, 1 << params.m):
            assert gf_sqrt(gf_mul(u, u, params), params) == u
            r = gf_sqrt(u, params)
            assert gf_mul(r, r, params) == u


def test_div_by_x_roundtrip_exhaustive_m7():
    for u in NONZERO_27:
        assert gf_mul(GENERATOR, gf_div_by_x(u, GF27), GF27) == u


def test_hex_roundtrip():
    for u in (0x01, 0x1D, 0x6B, 0x7F):
        assert GF27.parse(GF27.format(u)) == u
    assert GF27.format(0x1D) == "0x1d"
    assert GF27.parse("1d") == 0x1D
    with pytest.raises(ValueError):
        GF27.parse("0xFF")  # out of range for m = 7
    with pytest.raises(ValueError):
        GF27.parse("0x0")  # not in the multiplicative group

