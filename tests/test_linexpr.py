import pytest

from dlogwalk.linexpr import (CongruenceSolution, DegenerateCollisionError,
                              LinExpr, NoSolutionError, TooManyCandidatesError,
                              collision_solve, enumerate_candidates,
                              solve_linear)


def test_dec():
    # t = 2^k mod N: m - 1 lowers B by t, congruent to 2^k
    assert LinExpr(1, 0, 0).dec(1, 102) == LinExpr(1, -1, 0)
    assert LinExpr(1, -1, 1).dec(2, 102) == LinExpr(1, -3, 1)
    assert LinExpr(0, 9, 0).dec(1, 102) == LinExpr(0, 8, 0)
    # B - t at or below -N gains N once: -100 - 2^7 = -228 = -24 (mod 102)
    assert LinExpr(1, -100, 7).dec(128 % 102, 102) == LinExpr(1, -24, 7)
    assert LinExpr(1, -101, 0).dec(1, 102) == LinExpr(1, 0, 0)


def test_halve():
    assert LinExpr(1, -1, 0).halve() == LinExpr(1, -1, 1)
    assert LinExpr(1, -3, 2).halve() == LinExpr(1, -3, 3)
    assert LinExpr(0, 0, 4).halve() == LinExpr(0, 0, 5)


def test_triple_plus_one():
    assert LinExpr(1, 0, 0).triple_plus_one(1, 100) == LinExpr(3, 1, 0)
    assert LinExpr(0, 0, 0).triple_plus_one(1, 100) == LinExpr(0, 1, 0)
    # 3 * (3n+1)/16 + 1 = (9n + 19)/16
    assert LinExpr(3, 1, 4).triple_plus_one(16, 100) == LinExpr(9, 19, 4)
    # out of (-N, N), A and B are reduced mod N: 3*(-40) = -120 = 80 and
    # 3*30 + 16 = 106 = 6 (mod 100); an A or B still inside stays signed
    assert LinExpr(-40, 30, 4).triple_plus_one(16, 100) == LinExpr(80, 6, 4)
    assert LinExpr(-20, -30, 4).triple_plus_one(16, 100) == \
        LinExpr(-60, -74, 4)


def test_str():
    assert str(LinExpr()) == "n"
    assert str(LinExpr(1, -1, 0)) == "n-1"
    assert str(LinExpr(1, -3, 1)) == "(n-3)/2"
    assert str(LinExpr(1, 0, 1)) == "n/2"
    assert str(LinExpr(3, 1, 4)) == "(3n+1)/16"
    assert str(LinExpr(0, 64, 0)) == "64"
    # from k = 11 on the denominator prints as a power of 2
    assert str(LinExpr(1, 5, 10)) == "(n+5)/1024"
    assert str(LinExpr(1, 5, 11)) == "(n+5)/2^11"
    assert str(LinExpr(0, 0, 64)) == "0/2^64"


def test_value_semantics():
    e = LinExpr(3, -7, 2)
    with pytest.raises(AttributeError):
        e.k = 3
    assert e == LinExpr(3, -7, 2) and e != LinExpr(3, -7, 3)
    assert hash(e) == hash(LinExpr(3, -7, 2))
    assert len({e, LinExpr(3, -7, 2), e.halve()}) == 2
    assert repr(LinExpr()) == "LinExpr(A=1, B=0, k=0)"
    assert LinExpr() == LinExpr(1, 0, 0)
    assert (LinExpr().A, LinExpr().B, LinExpr().k) == (1, 0, 0)
    assert LinExpr(B=5) == LinExpr(1, 5, 0)


def test_solve_linear_known():
    # worked example 1 after clearing: 1*n = 131 = 29 (mod 102)
    assert solve_linear(1, 131, 102) == CongruenceSolution(29, 102, 1)
    assert solve_linear(3, 9, 102) == CongruenceSolution(3, 34, 3)
    assert solve_linear(1, 0, 77) == CongruenceSolution(0, 77, 1)


def test_solve_linear_no_solution():
    with pytest.raises(NoSolutionError):
        solve_linear(2, 1, 10)
    with pytest.raises(NoSolutionError):
        solve_linear(0, 5, 12)


def test_solve_linear_degenerate_order_one():
    assert solve_linear(0, 0, 1) == CongruenceSolution(0, 1, 1)
    assert solve_linear(0, 0, 12) == CongruenceSolution(0, 1, 12)
    with pytest.raises(ValueError, match="order must be positive"):
        solve_linear(1, 1, 0)


@pytest.mark.parametrize("order", list(range(1, 61)) + [256, 360])
def test_solve_linear_exhaustive_small_orders(order):
    """Full (coef, rhs) grid against a brute-force scan: every order to 60,
    a power of two and 360 = 2^3 * 3^2 * 5, whose gcds reach 180."""
    for coef in range(order):
        hits = {}
        for n in range(order):
            hits.setdefault(coef * n % order, []).append(n)
        for rhs in range(order):
            expected = hits.get(rhs, [])
            if not expected:
                with pytest.raises(NoSolutionError):
                    solve_linear(coef, rhs, order)
                continue
            sol = solve_linear(coef, rhs, order)
            got = sorted((sol.residue + t * sol.modulus) % order
                         for t in range(sol.count))
            assert got == expected
            assert sol.modulus * sol.count == order


def test_collision_solve_worked_cases():
    # Table II entry (n-3)/2 vs current (n-3)/8 over order 102
    assert collision_solve(LinExpr(1, -3, 3), LinExpr(1, -3, 1), 102) == \
        CongruenceSolution(3, 34, 3)
    # current (n-3)/2 vs Table I constant 2^6 over order 102
    assert collision_solve(LinExpr(1, -3, 1), LinExpr(0, 64, 0), 102) == \
        CongruenceSolution(29, 102, 1)
    # char-2 self-collision with the start: (n-4)/4 vs n over order 127
    assert collision_solve(LinExpr(1, -4, 2), LinExpr(1, 0, 0), 127) == \
        CongruenceSolution(41, 127, 1)


def test_collision_solve_degenerate():
    e = LinExpr(1, -3, 1)
    with pytest.raises(DegenerateCollisionError):
        collision_solve(e, e, 102)
    # identical after clearing: (2n-6)/4 is the same function as (n-3)/2
    with pytest.raises(DegenerateCollisionError):
        collision_solve(LinExpr(2, -6, 2), LinExpr(1, -3, 1), 102)
    # 19 roots in a row return to the same value in GF(2^19)*: 2^19 n = n,
    # so coef = 2^19 - 1 = N and rhs = 0, true for every n
    with pytest.raises(DegenerateCollisionError):
        collision_solve(LinExpr(1, 0, 0), LinExpr(1, 0, 19), 2**19 - 1)
    # prime order: coef = 101 and rhs = -101 are nonzero, but both are 0 mod N
    with pytest.raises(DegenerateCollisionError):
        collision_solve(LinExpr(102, 101, 0), LinExpr(1, 0, 0), 101)


def test_collision_solve_dec_is_unsatisfiable():
    # e and e-1 can only collide spuriously (0*n = -2^k with N not a 2-power),
    # also where dec wraps B round: (n - N + 1)/2^7 - 1
    for order in (101, 102, 127, 360):
        for e in (LinExpr(), LinExpr(1, -3, 1), LinExpr(3, 1, 2),
                  LinExpr(1, 1 - order, 7)):
            with pytest.raises(NoSolutionError):
                collision_solve(e.dec(pow(2, e.k, order), order), e, order)


def test_enumerate_candidates():
    assert enumerate_candidates(CongruenceSolution(3, 34, 3), 102,
                                d_max=3) == [3, 37, 71]
    assert enumerate_candidates(CongruenceSolution(29, 102, 1), 102,
                                d_max=1) == [29]
    assert enumerate_candidates(CongruenceSolution(1, 5, 4), 20,
                                d_max=4) == [1, 6, 11, 16]


def test_enumerate_candidates_limit():
    sol = CongruenceSolution(0, 1, 1000)
    with pytest.raises(TooManyCandidatesError) as info:
        enumerate_candidates(sol, 1000, d_max=999)
    assert info.value.count == 1000
    assert enumerate_candidates(sol, 1000, d_max=1000) == list(range(1000))
