"""The public value classes: constructor checks, equality, repr, hashing."""

import re

import pytest

from dlogwalk import (BinaryFieldParams, CongruenceSolution, DlogResult,
                      OracleResult, PrimeGroupParams, WalkConfig)


@pytest.mark.parametrize("kwargs,message", [
    ({"variant": "pollard"}, "unknown variant 'pollard'"),
    ({"choices": [0, 2]}, "scripted choices must be bits, got 2"),
    ({"seed": 1, "choices": [0, 1]},
     "seed and scripted choices are mutually exclusive"),
    ({"max_steps": 0}, "max_steps must be >= 1"),
    ({"max_steps": 2.5}, "max_steps must be an int, got 2.5"),
    ({"max_restarts": -4}, "max_restarts must be >= 0"),
    ({"d_max": 0}, "d_max must be >= 1"),
    ({"max_restarts": 0.5}, "max_restarts must be an int, got 0.5"),
    ({"max_restarts": None}, "max_restarts must be an int, got None"),
    ({"d_max": 1e3}, "d_max must be an int, got 1000.0"),
])
def test_walk_config_checks(kwargs, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WalkConfig(**kwargs)
    # replace checks the changed config just as the constructor does
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        WalkConfig().replace(**kwargs)


def test_walk_config_replace():
    config = WalkConfig(variant="collatz", seed=3, max_steps=9)
    changed = config.replace(seed=4, trace=True)
    assert changed == WalkConfig(variant="collatz", seed=4, max_steps=9,
                                 trace=True)
    assert config == WalkConfig(variant="collatz", seed=3, max_steps=9)
    assert config.replace() == config and config.replace() is not config
    # the check sees the combined fields: seed alone is fine, with choices not
    with pytest.raises(ValueError, match="mutually exclusive"):
        WalkConfig(choices=[0]).replace(seed=1)
    with pytest.raises(TypeError):
        config.replace(colour="red")


@pytest.mark.parametrize("args,message", [
    ((4, 3), "p = 4 is not an odd prime"),
    ((91, 2), "p = 91 is not an odd prime"),
    ((103, 0), "generator 0 out of range for p = 103"),
    ((103, 103), "generator 103 out of range for p = 103"),
    ((103, 25), "25 is a square mod 103, so it is not a primitive root"),
    ((103, 5, (2, 5)), "5 is not a prime factor of the order 102"),
    ((41, 3, (2, 5)), "3 is not a generator: its order divides 40/5"),
    ((7340033, 3, (2,)), "the factors miss the cofactor 7 of the order"
     " 7340032, so the generator is not verified"),
    ((103, 5, (2, 3, 51)), "51 is not a prime factor of the order 102"),
])
def test_prime_group_checks(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PrimeGroupParams(*args)


@pytest.mark.parametrize("args,message", [
    ((1, 0x3), "extension degree must be >= 2: x is not an element of GF(2)"),
    ((6, 0x83), "0x83 is not a polynomial of degree m = 6"),
    ((7, 0x82), "modulus must have constant term 1"),
    ((7, 0x9B), "0x9b is reducible over GF(2)"),
])
def test_binary_field_checks(args, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BinaryFieldParams(*args)


def test_repr():
    assert repr(WalkConfig(variant="collatz", choices=[0, 1], trace=True)) == (
        "WalkConfig(variant='collatz', max_steps=None, max_restarts=32,"
        " d_max=65536, seed=None, choices=[0, 1], trace=True)")
    assert repr(DlogResult(None, 3, 1, 2, 0, CongruenceSolution(1, 2, 3),
                           [1], [])) == (
        "DlogResult(n=None, steps_taken=3, restarts=1, collisions_tested=2,"
        " candidates_tried=0, congruence=CongruenceSolution(residue=1,"
        " modulus=2, count=3), candidates=[1], trace=[])")
    assert repr(DlogResult(5)) == (
        "DlogResult(n=5, steps_taken=0, restarts=0, collisions_tested=0,"
        " candidates_tried=0, congruence=None, candidates=None, trace=None)")
    # the derived root tables and the checked factor list stay out of it
    assert repr(PrimeGroupParams(103, 5, [2, 3, 17])) == (
        "PrimeGroupParams(p=103, a=5, r=1, s=51, c=102)")
    assert repr(PrimeGroupParams(257, 3)) == (
        "PrimeGroupParams(p=257, a=3, r=8, s=1, c=3)")
    assert repr(BinaryFieldParams(7, 0x83)) == "BinaryFieldParams(m=7, poly=131)"
    assert repr(OracleResult(3, "bsgs")) == "OracleResult(n=3, method='bsgs')"


def test_equality():
    assert WalkConfig() == WalkConfig()
    assert WalkConfig(choices=[0, 1]) == WalkConfig(choices=[0, 1])
    for change in ({"variant": "collatz"}, {"max_steps": 5},
                   {"max_restarts": 1}, {"d_max": 7}, {"seed": 0},
                   {"choices": [1]}, {"trace": True}):
        assert WalkConfig() != WalkConfig(**change), change
    assert WalkConfig() != "WalkConfig()"

    full = (5, 3, 1, 2, 4, CongruenceSolution(5, 6, 1), [5], [])
    assert DlogResult(*full) == DlogResult(*full)
    for i, other in enumerate((None, 4, 0, 0, 0, None, None, None)):
        assert DlogResult(*full[:i], other, *full[i + 1:]) != DlogResult(*full)
    assert DlogResult(5) != (5, 0, 0, 0, 0, None, None, None)

    # factors_of_order is only checked, not stored, so the same group is
    # equal however it was built; the root tables, derived from p and a,
    # are not compared
    assert PrimeGroupParams(103, 5, [2, 3, 17]) == \
        PrimeGroupParams(103, 5, (2, 3, 17))
    assert PrimeGroupParams(103, 5) == PrimeGroupParams(103, 5, (2, 3, 17))
    assert PrimeGroupParams(103, 5) != PrimeGroupParams(103, 6)
    assert PrimeGroupParams(103, 5) != PrimeGroupParams(107, 5)
    tweaked = PrimeGroupParams(257, 3)
    tweaked.sqrt_exp, tweaked.sqrt_tables, tweaked.sqrt_top = 0, (), 0
    assert tweaked == PrimeGroupParams(257, 3)
    tweaked.c = 5
    assert tweaked != PrimeGroupParams(257, 3)

    assert BinaryFieldParams(7, 0x83) == BinaryFieldParams(7, 0x83)
    assert BinaryFieldParams(7, 0x83) != BinaryFieldParams(7, 0x89)
    tweaked = BinaryFieldParams(7, 0x83)
    tweaked.sqrt_tables = tweaked.square_tables = ()
    assert tweaked == BinaryFieldParams(7, 0x83)
    assert BinaryFieldParams(7, 0x83) != PrimeGroupParams(131, 2)


@pytest.mark.parametrize("value", [
    WalkConfig(), DlogResult(1), PrimeGroupParams(103, 5),
    BinaryFieldParams(7, 0x83),
])
def test_mutable_classes_are_unhashable(value):
    with pytest.raises(TypeError):
        hash(value)


def test_results_hash_by_value():
    assert hash(CongruenceSolution(1, 2, 3)) == hash(CongruenceSolution(1, 2, 3))
    assert hash(OracleResult(3, "bsgs")) == hash(OracleResult(3, "bsgs"))
