"""Replays of the five worked toy examples with scripted random choices.

Each case pins the full walk: every intermediate value, branch, root pair
and symbolic exponent, plus the final congruence and answer.  These runs
double as an end-to-end smoke test for the CLI (`dlogwalk selftest`).
"""

from dataclasses import dataclass

from .gf2m import BinaryFieldParams
from .linexpr import CongruenceSolution
from .primefield import PrimeGroupParams
from .walk import WalkConfig, run_dlog


@dataclass(frozen=True)
class ReplayCase:
    name: str
    params: object
    target: int
    choices: tuple[int, ...]
    table_size: int
    variant: str
    n: int
    congruence: CongruenceSolution
    candidates: tuple[int, ...]
    # prime rows: (value, branch, result, roots, chosen, (A, B, k))
    # char2 rows: (value, branch, result, decision, (A, B, k))
    rows: tuple


_P103 = PrimeGroupParams(103, 5, factors_of_order=(2, 3, 17))
_P101 = PrimeGroupParams(101, 2, factors_of_order=(2, 5))
_GF27 = BinaryFieldParams(7, 0x83)

CASES = (
    ReplayCase(
        name="prime1", params=_P103, target=84, choices=(1,), table_size=7,
        variant="inverse", n=29,
        congruence=CongruenceSolution(29, 102, 1), candidates=(29,),
        rows=(
            (84, "div", 58, None, None, (1, -1, 0)),
            (58, "sqrt", None, (26, 77), 77, (1, -1, 1)),
            (77, "div", 36, None, None, (1, -3, 1)),
        )),
    ReplayCase(
        name="prime2", params=_P103, target=99, choices=(0, 1), table_size=7,
        variant="inverse", n=37,
        congruence=CongruenceSolution(3, 34, 3), candidates=(3, 37, 71),
        rows=(
            (99, "div", 61, None, None, (1, -1, 0)),
            (61, "sqrt", None, (24, 79), 24, (1, -1, 1)),
            (24, "div", 46, None, None, (1, -3, 1)),
            (46, "sqrt", None, (47, 56), 56, (1, -3, 2)),
            (56, "sqrt", None, (46, 57), None, (1, -3, 3)),
        )),
    ReplayCase(
        name="gf2m1", params=_GF27, target=0x1D, choices=(0, 1, 1, 1),
        table_size=7, variant="char2", n=38,
        congruence=CongruenceSolution(38, 127, 1), candidates=(38,),
        rows=(
            (0x1D, "sqrt", 0x23, 0, (1, 0, 1)),
            (0x23, "div", 0x50, 1, (1, -2, 1)),
            (0x50, "div", 0x28, 1, (1, -4, 1)),
            (0x28, "div", 0x14, 1, (1, -6, 1)),
        )),
    ReplayCase(
        name="gf2m2", params=_GF27, target=0x6B, choices=(0, 1, 1, 0),
        table_size=7, variant="char2", n=41,
        congruence=CongruenceSolution(41, 127, 1), candidates=(41,),
        rows=(
            (0x6B, "sqrt", 0x77, 0, (1, 0, 1)),
            (0x77, "div", 0x7A, 1, (1, -2, 1)),
            (0x7A, "div", 0x3D, 1, (1, -4, 1)),
            (0x3D, "sqrt", 0x6B, 0, (1, -4, 2)),
        )),
    ReplayCase(
        name="collatz", params=_P101, target=72, choices=(1, 0, 1),
        table_size=7, variant="collatz", n=41,
        congruence=CongruenceSolution(41, 100, 1), candidates=(41,),
        rows=(
            (72, "cube", 5, None, None, (3, 1, 0)),
            (5, "sqrt", None, (45, 56), 56, (3, 1, 1)),
            (56, "sqrt", None, (37, 64), 37, (3, 1, 2)),
            (37, "sqrt", None, (21, 80), 80, (3, 1, 3)),
            (80, "sqrt", None, (22, 79), None, (3, 1, 4)),
        )),
)

CASE_NAMES = tuple(c.name for c in CASES)


def replay(case: ReplayCase) -> str | None:
    """Run one case; None on exact match, else a message naming the divergence."""
    config = WalkConfig(variant=case.variant, table_size=case.table_size,
                        sequence="pow2", choices=list(case.choices), trace=True)
    try:
        result = run_dlog(case.params, case.target, config)
    except Exception as exc:  # a corrupted build shows up as a walk error
        return f"walk aborted: {exc}"
    trace = result.trace or []
    for i, expected in enumerate(case.rows):
        if i >= len(trace):
            return (f"row {i + 1}: walk ended early"
                    f" (expected value {case.params.format(expected[0])})")
        rec = trace[i]
        if case.variant == "char2":
            got = (rec.value, rec.branch, rec.result, rec.decision,
                   (rec.expr.A, rec.expr.B, rec.expr.k))
        else:
            got = (rec.value, rec.branch, rec.result, rec.roots, rec.chosen,
                   (rec.expr.A, rec.expr.B, rec.expr.k))
        if got != expected:
            return f"row {i + 1}: expected {expected}, got {got}"
    if len(trace) != len(case.rows):
        return f"walk took {len(trace)} rows, expected {len(case.rows)}"
    if result.congruence != case.congruence:
        return f"congruence {result.congruence}, expected {case.congruence}"
    if tuple(result.candidates or ()) != case.candidates:
        return f"candidates {result.candidates}, expected {list(case.candidates)}"
    if result.n != case.n:
        return f"n = {result.n}, expected {case.n}"
    return None


def run_selftest(only: str | None = None) -> tuple[bool, list[str]]:
    cases = CASES if only is None else tuple(c for c in CASES if c.name == only)
    if not cases:
        raise ValueError(f"unknown example {only!r}; know {', '.join(CASE_NAMES)}")
    lines = []
    failures = 0
    for case in cases:
        problem = replay(case)
        if problem is None:
            lines.append(f"{case.name}: ok (n = {case.n})")
        else:
            failures += 1
            lines.append(f"{case.name}: FAIL: {problem}")
    lines.append(f"{len(cases) - failures}/{len(cases)} examples reproduced")
    return failures == 0, lines
