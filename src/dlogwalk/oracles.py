"""Independent discrete-log solvers used as correctness oracles and baselines."""

import math
from dataclasses import dataclass

BRUTE_FORCE_LIMIT = 10**7


@dataclass(frozen=True)
class OracleResult:
    n: int
    method: str


def brute_force_dlog(params, target: int) -> OracleResult:
    """Scan e = 0, 1, 2, ... accumulating generator powers until the target appears."""
    target = params.element(target)
    order, gen, mul = params.order, params.generator, params.mul
    if order > BRUTE_FORCE_LIMIT:
        raise ValueError(f"group order {order} too large for brute force")
    acc = 1
    for e in range(order):
        if acc == target:
            return OracleResult(e, "brute")
        acc = mul(acc, gen)
    raise ValueError(f"{target} is not a power of the generator")


def bsgs_dlog(params, target: int) -> OracleResult:
    """Baby-step giant-step: n = i*m + j from a table of m = ceil(sqrt(N)) baby steps."""
    target = params.element(target)
    order, gen, mul = params.order, params.generator, params.mul
    m = math.isqrt(order - 1) + 1
    baby = {}
    acc = 1
    for j in range(m):
        baby.setdefault(acc, j)
        acc = mul(acc, gen)
    # giant stride generator^(-m) = generator^(N - m): the group has order N
    stride = params.pow(gen, -m % order)
    cur = target
    for i in range(m + 1):
        j = baby.get(cur)
        if j is not None:
            return OracleResult((i * m + j) % order, "bsgs")
        cur = mul(cur, stride)
    raise ValueError(f"{target} is not a power of the generator")
