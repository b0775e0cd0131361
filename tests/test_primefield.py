import random
import time

import pytest

from dlogwalk.primefield import (_ODD_WINDOW_BITS, _ODD_WINDOW_MASK,
                                 PrimeGroupParams, _brent_divisor,
                                 _odd_power_tables,
                                 is_probable_prime, legendre, mod_pow,
                                 prime_factors, sqrt_mod_p, sylow_log)

P103 = PrimeGroupParams(103, 5)
P101 = PrimeGroupParams(101, 2)


def test_params_decomposition():
    assert (P103.r, P103.s) == (1, 51)       # 102 = 2 * 51
    assert (P101.r, P101.s) == (2, 25)       # 100 = 4 * 25
    assert P101.c == pow(2, 25, 101)
    assert P103.order == 102


def test_params_primitivity_check():
    PrimeGroupParams(103, 5, factors_of_order=(2, 3, 17))
    with pytest.raises(ValueError):
        # 25 = 5^2 is a square, so its order divides 51
        PrimeGroupParams(103, 25, factors_of_order=(2, 3, 17))
    with pytest.raises(ValueError):
        PrimeGroupParams(103, 5, factors_of_order=(2, 5))  # 5 does not divide 102
    for p, a in ((97, 4), (1000003, 4), (7340033, 9)):
        with pytest.raises(ValueError):  # a square is never a primitive root
            PrimeGroupParams(p, a)


def test_params_rejects_incomplete_factors_of_order():
    # 3^7 has order (p-1)/7, which the factor list (2,) cannot see
    with pytest.raises(ValueError, match="cofactor 7 "):
        PrimeGroupParams(7340033, pow(3, 7, 7340033), factors_of_order=(2,))
    with pytest.raises(ValueError, match="cofactor 7 "):
        PrimeGroupParams(7340033, 3, factors_of_order=(2,))
    # a prime factor listed once covers all its powers: 2^31 - 2 = 2*3^2*...
    PrimeGroupParams(2**31 - 1, 7, factors_of_order=(2, 3, 7, 11, 31, 151, 331))


@pytest.mark.parametrize("p", [4, 9, 15, 91, 1])
def test_params_rejects_composites(p):
    with pytest.raises(ValueError):
        PrimeGroupParams(p, 2)


def test_params_rejects_out_of_range_generator():
    with pytest.raises(ValueError):
        PrimeGroupParams(103, 0)
    with pytest.raises(ValueError):
        PrimeGroupParams(103, 103)


def test_is_probable_prime_small():
    sieve = {n for n in range(2, 200)
             if all(n % d for d in range(2, int(n ** 0.5) + 1))}
    for n in range(-2, 200):
        assert is_probable_prime(n) == (n in sieve)
    assert is_probable_prime(8191)
    assert is_probable_prime(2**61 - 1)
    assert not is_probable_prime(2**67 - 1)  # 193707721 * 761838257287
    # a strong pseudoprime to every base up to 41, the fixed witnesses'
    # limit: from it on random witnesses join them
    assert not is_probable_prime(3317044064679887385961981)


def test_prime_factors_brute_force():
    primes = [q for q in range(2, 5001)
              if all(q % d for d in range(2, int(q ** 0.5) + 1))]
    for n in range(2, 5001):
        expected = tuple(q for q in primes if n % q == 0)
        assert prime_factors(n) == expected
    assert prime_factors(1) == ()
    # rho splits small factors too: prime powers, whose pieces split the
    # same way again, and the long runs of 2 in two CI group orders
    for q in primes:
        if q < 1024:
            assert prime_factors(q**2) == prime_factors(q**3) == (q,)
    assert prime_factors(2**27 * 3 * 5) == (2, 3, 5)  # p = 2013265921
    assert prime_factors(2**20 * 7) == (2, 7)  # prime_2adic, p = 7340033
    # 2^61 - 2 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 * 1321
    assert prime_factors(2**61 - 2) == (2, 3, 5, 7, 11, 13, 31, 41, 61, 151,
                                        331, 1321)
    with pytest.raises(ValueError):
        prime_factors(0)


def test_prime_factors_splits_large_cofactors():
    # trial division would run to 715827883 on 2^62 - 1
    start = time.perf_counter()
    assert prime_factors(2**62 - 1) == (3, 715827883, 2147483647)
    assert time.perf_counter() - start < 0.5
    assert prime_factors(2**64 - 1) == (3, 5, 17, 257, 641, 65537, 6700417)
    assert prime_factors(2**128 - 1) == (3, 5, 17, 257, 641, 65537, 274177,
                                         6700417, 67280421310721)
    assert prime_factors(1009**3 * 1013) == (1009, 1013)  # a prime power
    # rho stops at RHO_MAX iterations: 2^101 - 1 = 7432339208719 *
    # 341117531003194129 took 6.3 s and 4.8e6 iterations to split
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^cannot factor {2**101 - 1}: "):
        prime_factors(2**101 - 1)
    assert time.perf_counter() - start < 1


def test_brent_divisor_steps_back_through_a_batch():
    # small composites cycle mod every prime factor within one batch of
    # iterations, so the batch's gcd is n itself, 454 times below 20000:
    # the step back through the batch, one gcd an iteration, finds the
    # first iteration whose gcd is not 1, a proper divisor or n
    for n in range(9, 20000, 2):
        if not is_probable_prime(n):
            d = _brent_divisor(n)
            assert d is not None and 1 < d < n and n % d == 0, n


def test_params_take_the_factors_rho_cannot_find():
    # p - 1 = 2 * q1 * q2 with two 64-bit primes: rho refuses to factor it
    # within a second, naming the keyword that skips the factoring, and
    # the group builds when given them
    q1, q2 = 9223372036854775837, 9223372036854778307
    p = 2 * q1 * q2 + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^cannot factor {p - 1}: .*"
                                         r"; give factors_of_order$"):
        PrimeGroupParams(p, 11)
    assert time.perf_counter() - start < 1
    PrimeGroupParams(p, 11, factors_of_order=(2, q1, q2))


def test_mod_pow_known_values():
    assert mod_pow(5, 2**6, P103) == 36
    assert mod_pow(2, 2**6, P101) == 79
    assert mod_pow(7, 0, P103) == 1
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        mod_pow(3, -1, P103)


def test_mod_pow_rejects_zero_base():
    with pytest.raises(ValueError):
        mod_pow(0, 5, P103)
    with pytest.raises(ValueError):
        mod_pow(206, 5, P103)  # 206 = 0 mod 103


def test_legendre_known_values():
    assert legendre(84, P103) == -1
    assert legendre(99, P103) == -1
    assert legendre(1, P103) == 1
    assert legendre(1, P101) == 1
    for zero in (0, 103):
        with pytest.raises(ValueError, match="^x is 0 mod p$"):
            legendre(zero, P103)


@pytest.mark.parametrize("params", [
    P103, P101,
    PrimeGroupParams(1009, 11),     # p = 1 mod 4, r = 4
    PrimeGroupParams(12289, 11),    # r = 12: deep root-finding loop
    PrimeGroupParams(10007, 5),
    PrimeGroupParams(100003, 2),
])
def test_jacobi_matches_euler(params):
    # acceptance criterion 6b, "Jacobi = Euler": legendre, Euler's
    # criterion, against the set of squares mod p
    p = params.p
    squares = {x * x % p for x in range(1, p)}
    rng = random.Random(p)
    for _ in range(1000):
        x = rng.randrange(1, p)
        assert legendre(x, params) == (1 if x in squares else -1), x


def test_sqrt_known_values():
    assert sqrt_mod_p(58, P103)[:2] == (26, 77)
    assert sqrt_mod_p(1, P103)[:2] == (1, 102)
    assert sqrt_mod_p(5, P101)[:2] == (45, 56)  # exercises Tonelli-Shanks, r = 2
    # the low root's 2-Sylow log: 26 = 51^2 is a square (log 0) and 77 = -26
    # is not (log 0 ^ 1, r = 1); for r = 2 both roots of 5 are squares
    # (45 = 34^2 with log 2, 56 = 37^2 with log 2 ^ 2 = 0)
    assert sqrt_mod_p(58, P103) == (26, 77, 0)
    assert sqrt_mod_p(1, P103) == (1, 102, 0)
    assert sqrt_mod_p(5, P101) == (45, 56, 2)


def test_sqrt_errors():
    assert legendre(84, P103) == -1
    assert sqrt_mod_p(84, P103) is None
    with pytest.raises(ValueError):
        sqrt_mod_p(0, P103)
    for zero in (0, 103):
        with pytest.raises(ValueError, match="^x is 0 mod p$"):
            sylow_log(zero, P103)


@pytest.mark.parametrize("params,xs", [
    (PrimeGroupParams(97, 5), range(1, 97)),                 # r = 5
    (PrimeGroupParams(257, 3), range(1, 257)),               # r = 8
    (PrimeGroupParams(7340033, 3),                           # r = 20
     random.Random(20).sample(range(1, 7340033), 500)),
    (P103, range(1, 103)),                                   # r = 1
    (PrimeGroupParams(16776899, 2),                          # r = 1
     random.Random(1).sample(range(1, 16776899), 500)),
])
def test_sqrt_detects_non_residues_at_every_depth(params, xs):
    _assert_root_or_none(params, xs)


def _assert_root_or_none(params, xs):
    p = params.p
    for x in xs:
        if legendre(x, params) == -1:
            assert sqrt_mod_p(x, params) is None
        else:
            lo, hi, e_lo = sqrt_mod_p(x, params)
            assert lo * lo % p == x and hi * hi % p == x
            # the 2-Sylow logs of both roots, and so their characters
            e_hi = e_lo ^ 2**(params.r - 1)
            assert 0 <= e_lo < 2**params.r, x
            assert pow(lo, params.s, p) == pow(params.c, e_lo, p), x
            assert pow(hi, params.s, p) == pow(params.c, e_hi, p), x
            assert (e_lo % 2 == 0) == (legendre(lo, params) == 1), x
            assert (e_hi % 2 == 0) == (legendre(hi, params) == 1), x


# Primes whose r (p - 1 = 2^r * s) splits the r - 1 bits of the half log
# into 11-bit windows: none (r = 1: a root is one power), one (r <= 12,
# full at r = 12) or several, the last taking the bits left, from one bit
# (r = 13) to a full 11 (r = 23).
WINDOW_SHAPES = [
    (103, 5, 1), (13, 2, 2), (41, 6, 3), (641, 3, 7), (257, 3, 8), (7681, 17, 9),
    (18433, 5, 11), (12289, 11, 12), (40961, 3, 13), (65537, 3, 16),
    (1179649, 19, 17),
    (104857601, 3, 22), (998244353, 3, 23), (2013265921, 31, 27),
    (2**64 - 2**32 + 1, 7, 32),
]


# 257 (in WINDOW_SHAPES) has s = 1; 2305843009213693907 has a 60-bit s,
# so an exponent below s has two 30-bit digits
@pytest.mark.parametrize("p,a", [(p, a) for p, a, _ in WINDOW_SHAPES]
                         + [(16776899, 2), (1073740439, 7),
                            (2305843009213693907, 2)])
def test_odd_tables_are_the_powers_of_the_odd_part(p, a):
    # G' = a^(2^r * w), w = 2^(-r) mod s, is 1 mod s and 0 mod 2^r in the
    # exponent: a's odd part, of order s; the product of one lookup per
    # 8-bit window of x is G'^x, and likewise T'^x for any element T
    params = PrimeGroupParams(p, a)
    r, s = params.r, params.s
    rng = random.Random(p + 5)
    target = rng.randrange(1, p)
    target_tables = _odd_power_tables(target, params)
    # the walk reads T''s and G''s tables window by window, in pairs
    assert len(target_tables) == len(params.odd_tables) \
        == -(-s.bit_length() // _ODD_WINDOW_BITS)
    for base, tables in ((a, params.odd_tables), (target, target_tables)):
        odd = pow(base, pow(2, -r, s) * 2**r, p)
        assert pow(odd, s, p) == 1
        for x in [0, 1, s - 1] + [rng.randrange(s) for _ in range(200)]:
            product, bits = 1, x
            for table in tables:
                product *= table[bits & _ODD_WINDOW_MASK]
                bits >>= _ODD_WINDOW_BITS
            assert product % p == pow(odd, x, p), (base, x)


@pytest.mark.parametrize("p,a,r", WINDOW_SHAPES)
def test_sqrt_across_window_shapes(p, a, r):
    params = PrimeGroupParams(p, a, prime_factors(p - 1))
    assert params.r == r
    rng = random.Random(p)
    xs = range(1, p) if p < 10**4 else [rng.randrange(1, p) for _ in range(600)]
    _assert_root_or_none(params, xs)


@pytest.mark.parametrize("params", [
    P103, P101,
    PrimeGroupParams(1009, 11),
    PrimeGroupParams(12289, 11),
    PrimeGroupParams(10007, 5),
    PrimeGroupParams(100003, 2),
])
def test_sqrt_roundtrip_random_residues(params):
    rng = random.Random(params.p * 7)
    p = params.p
    for _ in range(1000):
        x = rng.randrange(1, p)
        x = x * x % p  # guaranteed residue
        lo, hi, _ = sqrt_mod_p(x, params)
        assert lo * lo % p == x
        assert hi * hi % p == x
        assert lo + hi == p
        assert lo < hi


@pytest.mark.parametrize("p,a,r", WINDOW_SHAPES)
def test_sylow_log_is_the_log_mod_2_to_the_r(p, a, r):
    # a^s = c, so a^n has 2-Sylow log n mod 2^r: the 2-part of Pohlig-Hellman
    params = PrimeGroupParams(p, a)
    rng = random.Random(p + 3)
    for _ in range(300):
        n = rng.randrange(p - 1)
        x = pow(a, n, p)
        e = sylow_log(x, params)
        assert e == n % 2**r, n
        assert sqrt_mod_p(x, params) == sqrt_mod_p(x, params, e), n


@pytest.mark.parametrize("p,a,r", WINDOW_SHAPES)
def test_sqrt_from_a_known_log_matches_the_search(p, a, r):
    # x's log is twice lo's: x^s = (lo^s)^2 = c^(2*e_lo)
    params = PrimeGroupParams(p, a)
    rng = random.Random(p + 1)
    for _ in range(300):
        x = rng.randrange(1, p)
        roots = sqrt_mod_p(x, params)
        if roots is None:
            continue
        e = 2 * roots[2] % 2**r
        assert sqrt_mod_p(x, params, e) == roots, x


@pytest.mark.parametrize("p,a,r", WINDOW_SHAPES)
def test_sqrt_from_a_wrong_log(p, a, r):
    params = PrimeGroupParams(p, a)
    rng = random.Random(p + 2)
    for _ in range(50):
        y = rng.randrange(1, p)
        x = y * y % p
        e = 2 * sqrt_mod_p(x, params)[2] % 2**r
        # an odd log is a non-residue's
        assert sqrt_mod_p(x, params, e ^ 1) is None
        if r > 1:  # r = 1 has one even log only
            wrong = (e + 2 * rng.randrange(1, 2**(r - 1))) % 2**r
            # the message names the log passed in, not the half log
            with pytest.raises(
                    ValueError,
                    match=rf"^{wrong} is not the 2-Sylow log of {x} mod {p}$"):
                sqrt_mod_p(x, params, wrong)


@pytest.mark.parametrize("p,a,r", WINDOW_SHAPES)
def test_sqrt_of_unreduced_inputs(p, a, r):
    # x outside [1, p) is reduced first: every x + k*p has x's roots, with
    # or without its log, and a multiple of p is 0 mod p
    params = PrimeGroupParams(p, a)
    rng = random.Random(p + 4)
    for _ in range(20):
        x = rng.randrange(1, p)
        e = sylow_log(x, params)
        roots = sqrt_mod_p(x, params)
        for k in (-3, -1, 1, 2):
            assert sqrt_mod_p(x + k * p, params) == roots, (x, k)
            assert sqrt_mod_p(x + k * p, params, e) == roots, (x, k)
    for zero in (0, p, -p, 2 * p):
        for e in (None, 0):
            with pytest.raises(ValueError, match="^x is 0 mod p$"):
                sqrt_mod_p(zero, params, e)


@pytest.mark.parametrize("params", [
    P103, P101, PrimeGroupParams(257, 3), PrimeGroupParams(7340033, 3),
])
def test_sqrt_from_a_log_out_of_range(params):
    # the same log mod 2^r, one period above or below [0, 2^r); at
    # p = 7340033, 4 has log 41956, and 41956 + 2^20 once raised IndexError
    r = params.r
    for x in (4, 9, params.p - 1):
        roots = sqrt_mod_p(x, params)
        if roots is None:
            continue
        e = 2 * roots[2] % 2**r
        for wrong in (e + 2**r, e - 2**r, e + 1 + 2**r, e + 1 - 2**r):
            with pytest.raises(ValueError, match=rf"outside 0 <= e < 2\^{r}$"):
                sqrt_mod_p(x, params, wrong)
