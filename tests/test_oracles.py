import pytest

from dlogwalk.gf2m import BinaryFieldParams, gf_pow
from dlogwalk.oracles import brute_force_dlog, bsgs_dlog
from dlogwalk.primefield import PrimeGroupParams, mod_pow

GF27 = BinaryFieldParams(7, 0x83)


def test_known_values():
    assert brute_force_dlog(PrimeGroupParams(103, 5), 84).n == 29
    assert brute_force_dlog(PrimeGroupParams(101, 2), 72).n == 41
    assert bsgs_dlog(PrimeGroupParams(103, 5), 99).n == 37
    assert bsgs_dlog(GF27, 0x1D).n == 38
    assert bsgs_dlog(GF27, 1).n == 0
    assert brute_force_dlog(PrimeGroupParams(103, 5), 5).n == 1


@pytest.mark.parametrize("p,a", [(103, 5), (101, 2), (499, 7), (1009, 11), (2003, 5)])
def test_oracles_agree_exhaustively_prime(p, a):
    params = PrimeGroupParams(p, a)
    for target in range(1, p):
        n1 = brute_force_dlog(params, target).n
        n2 = bsgs_dlog(params, target).n
        assert n1 == n2
        assert mod_pow(a, n1, params) == target


def test_oracles_agree_exhaustively_gf2m():
    for target in range(1, 128):
        n1 = brute_force_dlog(GF27, target).n
        n2 = bsgs_dlog(GF27, target).n
        assert n1 == n2
        assert gf_pow(0b10, n1, GF27) == target


def test_brute_force_guard():
    params = PrimeGroupParams((1 << 61) - 1, 37)
    with pytest.raises(ValueError):
        brute_force_dlog(params, 5)


def test_targets_reduced_and_checked_like_the_walk():
    params = PrimeGroupParams(103, 5)
    for target, n in ((104, 0), (-1, 51)):
        assert brute_force_dlog(params, target).n == n
        assert bsgs_dlog(params, target).n == n
    for solver in (brute_force_dlog, bsgs_dlog):
        for group, target in ((params, 0), (GF27, 0), (GF27, 0x80)):
            with pytest.raises(ValueError):
                solver(group, target)


def test_methods_labelled():
    assert brute_force_dlog(GF27, 2).method == "brute"
    assert bsgs_dlog(GF27, 2).method == "bsgs"
