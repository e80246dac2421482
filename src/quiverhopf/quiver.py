"""Ramification data and the Hopf quiver with arrow labels (x, y, class, slot, j).

Arrows are generated implicitly: between vertices x and y with x^-1 y in a
ramified class C there are exactly r_C arrows, split into slots i (one per
irreducible summand of the class data) of width deg rho_C^(i).

The arrow space is kG (x) V, V spanned by the apv arrows out of the
identity, in the order of `HopfQuiver.local` (class, class element c, slot,
j).  Arrow number x * apv + l is local arrow l at vertex x, from x to x c.
The bimodule, its coinvariants and the path algebra run on these numbers;
`ArrowId` only names them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

import numpy as np

from .groups import Group, InputError, class_of, conjugacy_classes, parse_cycle_string


@dataclass(frozen=True)
class Ramification:
    """Formal sum of conjugacy classes with non-negative integer coefficients."""

    coeffs: tuple[tuple[int, int], ...]   # (class_index, r_C), sorted, r_C > 0

    @classmethod
    def from_dict(cls, d: dict[int, int]) -> "Ramification":
        items = []
        for k in sorted(d):
            if d[k] < 0:
                raise InputError(f"negative ramification coefficient {d[k]}")
            if d[k] > 0:
                items.append((k, d[k]))
        return cls(tuple(items))

    def r_of(self, class_index: int) -> int:
        for k, v in self.coeffs:
            if k == class_index:
                return v
        return 0

    @property
    def support(self) -> tuple[int, ...]:
        """K_r(G): the ramified class indices."""
        return tuple(k for k, _ in self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def describe(self, g: Group) -> str:
        classes = conjugacy_classes(g)
        if self.is_zero():
            return "0"
        return " + ".join(f"{v}*[{g.element_name(classes[k].rep)}]"
                          for k, v in self.coeffs)


def parse_ramification(g: Group, spec: str) -> Ramification:
    """Parse "rep:count" pairs, e.g. "e:2" or "(0 1):1,(0 1 2):2"; "" is zero."""
    spec = (spec or "").strip()
    if not spec:
        return Ramification(())
    out: dict[int, int] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise InputError(f"ramification entry {part!r} needs rep:count")
        rep_text, count_text = part.rsplit(":", 1)
        try:
            count = int(count_text)
        except ValueError:
            raise InputError(f"bad count in {part!r}") from None
        if count < 0:
            raise InputError(f"negative count in {part!r}")
        cls = class_of(g, g.find(parse_cycle_string(rep_text.strip(), g.degree)))
        if cls in out:
            raise InputError(f"class of {rep_text.strip()!r} given twice")
        out[cls] = count
    return Ramification.from_dict(out)


class ArrowId(NamedTuple):
    """One arrow of the Hopf quiver: x --(cls, slot, j)--> y."""

    x: int
    y: int
    cls: int
    slot: int
    j: int


@dataclass(frozen=True)
class HopfQuiver:
    """Hopf quiver of (G, r) with slots sized by the chosen irreducibles."""

    group: Group
    ram: Ramification
    slot_degrees: tuple[tuple[int, ...], ...]   # per support position: degrees

    @cached_property
    def local(self) -> np.ndarray:
        """The arrows out of the identity in local order, one row
        (class, class element c, slot, j) per local index l."""
        classes = conjugacy_classes(self.group)
        rows = [(k, c, i, j) for k, degrees in zip(self.ram.support, self.slot_degrees)
                for c in classes[k].elements
                for i, d in enumerate(degrees) for j in range(d)]
        return np.array(rows, dtype=np.intp).reshape(-1, 4)

    @property
    def arrows_per_vertex(self) -> int:
        return len(self.local)

    def arrow_count(self) -> int:
        return self.group.order * self.arrows_per_vertex

    def arrow(self, n: int) -> ArrowId:
        """The name of arrow number n."""
        x, l = divmod(int(n), self.arrows_per_vertex)
        cls, c, slot, j = self.local[l].tolist()
        return ArrowId(x, self.group.mul(x, c), cls, slot, j)

    def arrows(self) -> Iterator[ArrowId]:
        """All arrows, in the order of their numbers."""
        return map(self.arrow, range(self.arrow_count()))

    def to_dot(self) -> str:
        g = self.group
        lines = ["digraph hopfquiver {"]
        for x in range(g.order):
            lines.append(f'  v{x} [label="{g.element_name(x)}"];')
        for a in self.arrows():
            lines.append(f'  v{a.x} -> v{a.y} [label="({a.cls},{a.slot},{a.j})"];')
        lines.append("}")
        return "\n".join(lines)
