"""Per-case oracles of the verifiers' batched checks.

`check` records a check by testing one Python case at a time, and `cases`
lists or draws the case tuples of a set of spaces.  The verifiers record
every check with `bimodule.check_all` on a mask of outcomes; the tests
compare their reports with those `check` gives on the same cases.
"""

import itertools
import math
import random
from typing import Callable, Iterable, Iterator, Optional, Sequence

from quiverhopf.bimodule import Check, Report


def check(report: Report, name: str, cases: Iterable, test: Callable[..., bool],
          witness: Callable[..., str] = str, weight: int = 1) -> None:
    """Add check `name` to report: test(case) for each case, stopping at the
    first failure.  The count is weight times the cases tried; the witness
    string is formatted for the failing case only.  A check that passes
    with nothing checked is left out of the report."""
    checked = 0
    for case in cases:
        checked += weight
        if not test(case):
            report.checks.append(Check(name, False, checked, witness(case)))
            return
    if checked:
        report.checks.append(Check(name, True, checked))


def cases(spaces: Sequence[tuple[Sequence, ...]], samples: int = 0,
          rng: Optional[random.Random] = None) -> Iterator[tuple]:
    """Cases for `check` from spaces, each the product of its sequences.

    With rng None: every tuple of every space, in order.  Otherwise
    `samples` tuples, each drawn by picking a space with probability
    proportional to its size and then one uniform entry per coordinate,
    which is the uniform law on all the tuples.  No spaces, or only empty
    ones, give no cases."""
    if rng is None:
        for space in spaces:
            yield from itertools.product(*space)
        return
    weights = [math.prod(len(s) for s in space) for space in spaces]
    if sum(weights):
        for space in rng.choices(spaces, weights, k=samples):
            yield tuple(rng.choice(s) for s in space)
