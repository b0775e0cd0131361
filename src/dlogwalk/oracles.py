"""An independent discrete-log solver: the correctness oracle and baseline."""

import math

BSGS_LIMIT = 10**12  # ceil(sqrt(N)) baby steps: at most 10^6 entries


def bsgs_dlog(params, target: int) -> int:
    """Baby-step giant-step: n = i*m + j from a table of m = ceil(sqrt(N)) baby steps."""
    target = params.element(target)
    order, gen, mul = params.order, params.generator, params.mul
    if order > BSGS_LIMIT:
        raise ValueError(f"group order {order} too large for BSGS")
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
            return i * m + j
        cur = mul(cur, stride)
    raise ValueError(f"{params.format(target)} is not a power of the generator")
