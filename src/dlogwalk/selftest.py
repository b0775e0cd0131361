"""Replays of the five worked toy examples with scripted random choices.

Each case pins the full walk: every intermediate value, branch, root pair,
random decision and symbolic exponent, plus the final congruence and
answer, with its group's own Table I (g^(2^j) for j < 7).
"""

from typing import NamedTuple

from .gf2m import BinaryFieldParams
from .linexpr import CongruenceSolution
from .primefield import PrimeGroupParams
from .walk import WalkConfig, run_dlog


class ReplayCase(NamedTuple):
    name: str
    params: object
    target: int
    choices: tuple[int, ...]
    variant: str
    n: int
    congruence: CongruenceSolution
    # (value, branch, result, roots, chosen, decision, (A, B, k))
    rows: tuple


_P103 = PrimeGroupParams(103, 5, factors_of_order=(2, 3, 17))
_P101 = PrimeGroupParams(101, 2, factors_of_order=(2, 5))
_GF27 = BinaryFieldParams(7, 0x83)

CASES = (
    ReplayCase(
        name="prime1", params=_P103, target=84, choices=(1,),
        variant="inverse", n=29,
        congruence=CongruenceSolution(29, 102, 1),
        rows=(
            (84, "div", 58, None, None, None, (1, -1, 0)),
            (58, "sqrt", None, (26, 77), 77, 1, (1, -1, 1)),
            (77, "div", 36, None, None, None, (1, -3, 1)),
        )),
    ReplayCase(
        name="prime2", params=_P103, target=99, choices=(0, 1),
        variant="inverse", n=37,
        congruence=CongruenceSolution(3, 34, 3),
        rows=(
            (99, "div", 61, None, None, None, (1, -1, 0)),
            (61, "sqrt", None, (24, 79), 24, 0, (1, -1, 1)),
            (24, "div", 46, None, None, None, (1, -3, 1)),
            (46, "sqrt", None, (47, 56), 56, 1, (1, -3, 2)),
            (56, "sqrt", None, (46, 57), None, None, (1, -3, 3)),
        )),
    ReplayCase(
        name="gf2m1", params=_GF27, target=0x1D, choices=(0, 1, 1, 1),
        variant="char2", n=38,
        congruence=CongruenceSolution(38, 127, 1),
        rows=(
            (0x1D, "sqrt", 0x23, None, None, 0, (1, 0, 1)),
            (0x23, "div", 0x50, None, None, 1, (1, -2, 1)),
            (0x50, "div", 0x28, None, None, 1, (1, -4, 1)),
            (0x28, "div", 0x14, None, None, 1, (1, -6, 1)),
        )),
    ReplayCase(
        name="gf2m2", params=_GF27, target=0x6B, choices=(0, 1, 1, 0),
        variant="char2", n=41,
        congruence=CongruenceSolution(41, 127, 1),
        rows=(
            (0x6B, "sqrt", 0x77, None, None, 0, (1, 0, 1)),
            (0x77, "div", 0x7A, None, None, 1, (1, -2, 1)),
            (0x7A, "div", 0x3D, None, None, 1, (1, -4, 1)),
            (0x3D, "sqrt", 0x6B, None, None, 0, (1, -4, 2)),
        )),
    ReplayCase(
        name="collatz", params=_P101, target=72, choices=(1, 0, 1),
        variant="collatz", n=41,
        congruence=CongruenceSolution(41, 100, 1),
        rows=(
            (72, "cube", 5, None, None, None, (3, 1, 0)),
            (5, "sqrt", None, (45, 56), 56, 1, (3, 1, 1)),
            (56, "sqrt", None, (37, 64), 37, 0, (3, 1, 2)),
            (37, "sqrt", None, (21, 80), 80, 1, (3, 1, 3)),
            (80, "sqrt", None, (22, 79), None, None, (3, 1, 4)),
        )),
)

CASE_NAMES = tuple(c.name for c in CASES)


def _show(row: tuple, params) -> str:
    """row as its tuple repr, with the group elements (value, result,
    roots and chosen: an element, a pair of them or None) in params.format."""
    def element(u):
        if isinstance(u, tuple):
            return f"({', '.join(map(element, u))})"
        return "None" if u is None else params.format(u)
    return "(" + ", ".join(element(x) if i in (0, 2, 3, 4) else repr(x)
                           for i, x in enumerate(row)) + ")"


def replay(case: ReplayCase) -> str | None:
    """Run one case; None on exact match, else a message naming the divergence."""
    config = WalkConfig(variant=case.variant, choices=case.choices, trace=True)
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
        got = (rec.value, rec.branch, rec.result, rec.roots, rec.chosen,
               rec.decision, rec.expr)
        if got != expected:
            return (f"row {i + 1}:"
                    f" expected {_show(expected, case.params)},"
                    f" got {_show(got, case.params)}")
    if len(trace) != len(case.rows):
        return f"walk took {len(trace)} rows, expected {len(case.rows)}"
    if result.congruence != case.congruence:
        return f"congruence {result.congruence}, expected {case.congruence}"
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
