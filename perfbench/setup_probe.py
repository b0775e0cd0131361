"""Time one set-up of a workload in this fresh process; print seconds.

Set-up is what a user pays before the first solve: importing dlogwalk,
building the group with its checks (primitivity from the factors of p - 1,
or irreducibility of the GF(2^m) modulus) and building Table I for each of
the workload's variants.  Run by run.py as
`python3 perfbench/setup_probe.py <workload>`; prints the seconds and the
host speed reference measured before and after (see hostspeed.py).
"""

import os
import sys
import time

from hostspeed import kernel, reference_ns


def main(name: str):
    kernel()  # the first call runs unspecialised bytecode; warm it up
    before = reference_ns()
    start = time.perf_counter()
    import dlogwalk
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    params = workload.make_params(dlogwalk)
    for variant in workload.variants:
        dlogwalk.build_table_one(params, dlogwalk.WalkConfig(variant=variant))
    elapsed = time.perf_counter() - start
    print(repr(elapsed), before, reference_ns())


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    main(sys.argv[1])
