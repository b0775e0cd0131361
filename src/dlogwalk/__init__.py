"""Discrete logarithms by randomized inversion of square-and-multiply.

Walk-based solvers over prime fields and GF(2^m), a 3x+1-style variant,
exact baseline oracles (brute force, baby-step giant-step), and a
reproducible step-count benchmark harness.
"""

__version__ = "0.1.0"

from .gf2m import BinaryFieldParams, gf_div_by_x, gf_mul, gf_pow, gf_sqrt
from .linexpr import (CongruenceSolution, DegenerateCollisionError, LinExpr,
                      NoSolutionError, TooManyCandidatesError, collision_solve,
                      enumerate_candidates, solve_linear)
from .oracles import OracleResult, brute_force_dlog, bsgs_dlog
from .primefield import (PrimeGroupParams, is_probable_prime, jacobi, legendre,
                         legendre_euler, mod_inverse, mod_pow, prime_factors,
                         sqrt_mod_p)
from .walk import (DecisionsExhaustedError, DlogResult, UnsupportedGroupError,
                   WalkConfig, build_table_one, run_dlog)

__all__ = [
    "BinaryFieldParams", "CongruenceSolution", "DegenerateCollisionError",
    "DecisionsExhaustedError", "DlogResult", "LinExpr", "NoSolutionError",
    "OracleResult", "PrimeGroupParams",
    "TooManyCandidatesError", "UnsupportedGroupError", "WalkConfig",
    "brute_force_dlog", "bsgs_dlog", "build_table_one", "collision_solve",
    "enumerate_candidates", "gf_div_by_x", "gf_mul", "gf_pow", "gf_sqrt",
    "is_probable_prime", "jacobi", "legendre", "legendre_euler", "mod_inverse",
    "mod_pow", "prime_factors", "run_dlog", "solve_linear", "sqrt_mod_p",
]
