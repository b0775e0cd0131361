from types import SimpleNamespace

import pytest

from dlogwalk.gf2m import BinaryFieldParams, gf_pow
from dlogwalk.oracles import BSGS_LIMIT, bsgs_dlog
from dlogwalk.primefield import PrimeGroupParams, mod_pow
from reference_walk import brute_force_dlog

GF27 = BinaryFieldParams(7, 0x83)


def test_known_values():
    assert brute_force_dlog(PrimeGroupParams(103, 5), 84) == 29
    assert brute_force_dlog(PrimeGroupParams(101, 2), 72) == 41
    assert bsgs_dlog(PrimeGroupParams(103, 5), 99) == 37
    assert bsgs_dlog(GF27, 0x1D) == 38
    assert bsgs_dlog(GF27, 1) == 0
    assert brute_force_dlog(PrimeGroupParams(103, 5), 5) == 1


@pytest.mark.parametrize("p,a", [(103, 5), (101, 2), (499, 7), (1009, 11),
                                 (2003, 5), (199, 3), (193, 5)])
def test_oracles_agree_exhaustively_prime(p, a):
    params = PrimeGroupParams(p, a)
    for target in range(1, p):
        n1 = brute_force_dlog(params, target)
        n2 = bsgs_dlog(params, target)
        assert n1 == n2
        assert mod_pow(a, n1, params) == target


def test_oracles_agree_exhaustively_gf2m():
    for target in range(1, 128):
        n1 = brute_force_dlog(GF27, target)
        n2 = bsgs_dlog(GF27, target)
        assert n1 == n2
        assert gf_pow(0b10, n1, GF27) == target


def test_bsgs_guard():
    # checked before the ceil(sqrt(N)) baby-step table is built
    params = PrimeGroupParams((1 << 61) - 1, 37)
    assert params.order > BSGS_LIMIT
    with pytest.raises(ValueError, match="too large for BSGS"):
        bsgs_dlog(params, 5)


def test_targets_reduced_and_checked_like_the_walk():
    params = PrimeGroupParams(103, 5)
    for target, n in ((104, 0), (-1, 51)):
        assert brute_force_dlog(params, target) == n
        assert bsgs_dlog(params, target) == n
    for group, target in ((params, 0), (GF27, 0), (GF27, 0x80)):
        with pytest.raises(ValueError):
            bsgs_dlog(group, target)
    # -1 mod 103 has order 2, x mod x^4 + x^3 + x^2 + x + 1 has order 5:
    # neither group builds
    for build, args in ((PrimeGroupParams, (103, 102)),
                        (BinaryFieldParams, (4, 0x1f))):
        with pytest.raises(ValueError, match="is not a generator"):
            build(*args)
    # a group that claims order 102 for -1, built past the constructor:
    # BSGS finds no answer for 5 rather than print an unverified one
    posing = SimpleNamespace(order=102, generator=102, element=params.element,
                             mul=params.mul, pow=params.pow,
                             format=params.format)
    with pytest.raises(ValueError,
                       match="^5 is not a power of the generator$"):
        bsgs_dlog(posing, 5)
