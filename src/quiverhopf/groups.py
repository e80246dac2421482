"""Finite permutation groups: enumeration, conjugacy structure, coset transversals.

Composition convention, fixed for the whole package: (a*b)(x) = b(a(x)),
i.e. the left factor acts first.  Elements are referred to by their index
in the canonical element order (image tuples sorted lexicographically);
index 0 is always the identity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed user-facing input: group specs, ramifications, files."""


DEFAULT_ORDER_CAP = 5040
DEFAULT_AUT_CAP = 48

# dense multiplication tables are kept up to this order; beyond it products
# are recomputed from image tuples
_TABLE_CAP = 2048


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    # apply a first, then b
    return tuple(b[x] for x in a)


def _invert(a: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def _cycles_of(images: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    seen = [False] * len(images)
    out = []
    for start in range(len(images)):
        if seen[start] or images[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = images[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = images[x]
        out.append(tuple(cyc))
    return tuple(out)


@dataclass(frozen=True)
class Permutation:
    """A permutation of {0..degree-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise InputError(f"not a permutation: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(_compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation(_invert(self.images))

    def order(self) -> int:
        n = 1
        for cyc in _cycles_of(self.images):
            n = math.lcm(n, len(cyc))
        return n

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Disjoint cycles, each starting at its minimum, sorted by first point."""
        return _cycles_of(self.images)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "e"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cycs)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[int]], degree: int) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            if len(set(cyc)) != len(cyc):
                raise InputError(f"repeated point in cycle {cyc}")
            for a in cyc:
                if not 0 <= a < degree:
                    raise InputError(f"point {a} out of range for degree {degree}")
            for i, a in enumerate(cyc):
                images[a] = cyc[(i + 1) % len(cyc)]
        if sorted(images) != list(range(degree)):
            raise InputError(f"cycles {list(cycles)} overlap")
        return cls(tuple(images))


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycle_string(text: str, degree: int) -> Permutation:
    """Parse 0-based cycle notation like "(0 1 2)(3 4)"; "e" or "()" is the identity."""
    text = text.strip()
    if text in ("e", "", "()", "id", "1"):
        return Permutation.identity(degree)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise InputError(f"cannot parse cycle notation {text!r}")
    cycles = []
    for body in _CYCLE_RE.findall(text):
        pts = [p for p in re.split(r"[,\s]+", body.strip()) if p]
        try:
            cyc = [int(p) for p in pts]
        except ValueError:
            raise InputError(f"bad point in cycle {body!r}") from None
        if cyc:
            cycles.append(cyc)
    return Permutation.from_cycles(cycles, degree)


def _max_point(text: str) -> int:
    pts = [int(p) for p in re.findall(r"\d+", text)]
    return max(pts) if pts else 0


class Group:
    """A fully enumerated permutation group.

    Elements are image tuples, sorted lexicographically; all arithmetic is
    done on element indices.  The elements and the multiplication table are
    fixed at construction.  Derived data (classes, the generating sequence,
    automorphisms and the `caches` dict other modules fill) is computed on
    first use and stored without locks, so a Group is not thread-safe.
    """

    def __init__(self, degree: int, generators: Sequence[Permutation],
                 name: Optional[str] = None, order_cap: int = DEFAULT_ORDER_CAP,
                 spec: Optional[str] = None):
        self.degree = degree
        self.generators = tuple(generators)
        self.name = name
        self.spec = spec if spec is not None else name
        for g in self.generators:
            if g.degree != degree:
                raise InputError("generator degree mismatch")
        elements = self._close(order_cap)
        self.elements: tuple[tuple[int, ...], ...] = tuple(sorted(elements))
        self.index: dict[tuple[int, ...], int] = {e: i for i, e in enumerate(self.elements)}
        self.order = len(self.elements)
        self._inv = tuple(self.index[_invert(e)] for e in self.elements)
        self._orders = tuple(Permutation(e).order() for e in self.elements)
        self.exponent = math.lcm(*self._orders) if self._orders else 1
        if self.order <= _TABLE_CAP:
            tbl = np.empty((self.order, self.order), dtype=np.int32)
            for i, a in enumerate(self.elements):
                row = [self.index[_compose(a, b)] for b in self.elements]
                tbl[i] = row
            self._table = tbl
        else:
            self._table = None
        self._classes: Optional[list[ConjClassCtx]] = None
        self._class_of: Optional[tuple[int, ...]] = None
        self._gen_words = None
        self._aut_cache: dict[int, tuple[list["Automorphism"], bool]] = {}
        self.caches: dict = {}
        # set by centralizer_subgroup: the ambient index of each element, and
        # its inverse (ambient index -> element index)
        self.embed: Optional[tuple[int, ...]] = None
        self.local: Optional[dict[int, int]] = None

    def _close(self, order_cap: int) -> set[tuple[int, ...]]:
        ident = tuple(range(self.degree))
        seen = {ident}
        frontier = [ident]
        gens = [g.images for g in self.generators]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    b = _compose(a, g)
                    if b not in seen:
                        if len(seen) >= order_cap:
                            raise InputError(
                                f"group order exceeds cap {order_cap}")
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return seen

    # -- element arithmetic on indices -------------------------------------

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return int(self._table[a, b])
        return self.index[_compose(self.elements[a], self.elements[b])]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, h: int) -> int:
        """h^-1 * a * h."""
        return self.mul(self.mul(self._inv[h], a), h)

    def order_of(self, a: int) -> int:
        return self._orders[a]

    def element(self, a: int) -> Permutation:
        return Permutation(self.elements[a])

    def element_name(self, a: int) -> str:
        return self.element(a).cycle_string()

    def find(self, p: Permutation) -> int:
        try:
            return self.index[p.images]
        except KeyError:
            raise InputError(f"{p.cycle_string()} is not in the group") from None

    def center(self) -> list[int]:
        return [z for z in range(self.order)
                if all(self.mul(z, h) == self.mul(h, z) for h in range(self.order))]

    def cycle_key(self, a: int) -> tuple:
        # canonical cycle form, used to pick class representatives u0
        return _cycles_of(self.elements[a])

    def generating_sequence(self) -> tuple[list[int], list[tuple[int, int]], list[int]]:
        """Greedy generating sequence plus expression words.

        Returns (gens, expr, order) with expr[e] = (prev_element, gen_position)
        so that e = prev * gens[pos]; expr[identity] = (-1, -1).  order lists
        the non-identity elements as discovered, each after its prev.  Used to
        extend maps defined on generators to the whole group.
        """
        if self._gen_words is not None:
            return self._gen_words
        gens: list[int] = []
        expr: list[Optional[tuple[int, int]]] = [None] * self.order
        expr[0] = (-1, -1)
        closure = {0}
        order: list[int] = []
        for cand in range(1, self.order):
            if cand in closure:
                continue
            gens.append(cand)
            frontier = list(closure)
            while frontier:
                nxt = []
                for a in frontier:
                    for pos, g in enumerate(gens):
                        b = self.mul(a, g)
                        if b not in closure:
                            closure.add(b)
                            expr[b] = (a, pos)
                            order.append(b)
                            nxt.append(b)
                frontier = nxt
            if len(closure) == self.order:
                break
        assert len(closure) == self.order
        self._gen_words = (gens, expr, order)  # type: ignore[assignment]
        return self._gen_words  # type: ignore[return-value]

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        return f"<Group {label} of order {self.order}>"


@dataclass
class ConjClassCtx:
    """A conjugacy class with its representative, centralizer and transversal.

    rep is u0(C), the member minimal in canonical cycle order.  transversal
    lists right-coset representatives g_theta of Z_rep with g_0 = identity;
    theta_of maps a class element c to the theta with g_theta^-1*rep*g_theta = c.
    """

    class_index: int
    elements: tuple[int, ...]
    rep: int
    centralizer: tuple[int, ...]
    transversal: tuple[int, ...]
    theta_of: dict[int, int]

    @property
    def size(self) -> int:
        return len(self.elements)


def coset_transversal(g: Group, u: int) -> tuple[list[int], dict[int, int]]:
    """Right-coset transversal of Z_u scanning canonical order; g_0 = identity.

    Returns (transversal, theta_of) with theta_of[g_theta^-1 u g_theta] = theta.
    """
    transversal: list[int] = []
    theta_of: dict[int, int] = {}
    for h in range(g.order):
        c = g.conj(u, h)
        if c not in theta_of:
            theta_of[c] = len(transversal)
            transversal.append(h)
    return transversal, theta_of


def conjugacy_classes(g: Group) -> list[ConjClassCtx]:
    """Conjugacy classes in canonical order (by minimal member index)."""
    if g._classes is not None:
        return g._classes
    classes: list[ConjClassCtx] = []
    class_of = [-1] * g.order
    for seed in range(g.order):
        if class_of[seed] != -1:
            continue
        members = sorted({g.conj(seed, h) for h in range(g.order)})
        idx = len(classes)
        for m in members:
            class_of[m] = idx
        rep = min(members, key=g.cycle_key)
        centralizer = tuple(h for h in range(g.order)
                            if g.mul(h, rep) == g.mul(rep, h))
        transversal, theta_of = coset_transversal(g, rep)
        assert transversal[0] == 0 and len(transversal) == len(members)
        classes.append(ConjClassCtx(idx, tuple(members), rep, centralizer,
                                    tuple(transversal), theta_of))
    g._classes = classes
    g._class_of = tuple(class_of)
    return classes


def class_of(g: Group, a: int) -> int:
    conjugacy_classes(g)
    return g._class_of[a]  # type: ignore[index]


def coset_factor(g: Group, ctx: ConjClassCtx, theta: int, h: int) -> tuple[int, int]:
    """Factor g_theta*h = zeta*g_theta' with zeta in the centralizer.

    Returns (zeta, theta') as element/transversal indices.
    """
    if not 0 <= theta < len(ctx.transversal):
        raise InputError(f"theta {theta} out of range")
    if not 0 <= h < g.order:
        raise InputError(f"element index {h} out of range")
    w = g.mul(ctx.transversal[theta], h)
    theta_p = ctx.theta_of[g.conj(ctx.rep, w)]
    zeta = g.mul(w, g.inv(ctx.transversal[theta_p]))
    return zeta, theta_p


def centralizer_subgroup(g: Group, ctx_or_elt) -> Group:
    """The centralizer of a class representative (or explicit element) as a Group.

    Its element i is ambient element sub.embed[i], and sub.local inverts
    embed: both orders are lexicographic, so embed is ascending.
    """
    elt = ctx_or_elt.rep if isinstance(ctx_or_elt, ConjClassCtx) else ctx_or_elt
    key = ("centralizer", elt)
    if key in g.caches:
        return g.caches[key]
    members = [h for h in range(g.order) if g.mul(h, elt) == g.mul(elt, h)]
    sub = Group(g.degree, [g.element(h) for h in members],
                name=f"Z({g.element_name(elt)})", order_cap=g.order)
    assert sub.order == len(members)
    sub.embed = tuple(members)
    sub.local = {h: i for i, h in enumerate(members)}
    g.caches[key] = sub
    return sub


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism as a permutation of element indices."""

    mapping: tuple[int, ...]

    def of(self, a: int) -> int:
        return self.mapping[a]


def automorphisms(g: Group, cap: int = DEFAULT_AUT_CAP) -> tuple[list[Automorphism], bool]:
    """All automorphisms by generator-image backtracking.

    Returns (list, is_inner_only) with is_inner_only = (|Aut| == |G/Z(G)|).
    Candidate generator images must share order and class size; every full
    assignment is verified multiplicatively.
    """
    if g.order > cap:
        raise InputError(f"order {g.order} exceeds automorphism cap {cap}")
    if cap in g._aut_cache:
        auts, flag = g._aut_cache[cap]
        return list(auts), flag
    gens, expr, order = g.generating_sequence()
    classes = conjugacy_classes(g)
    size_of = {c.class_index: c.size for c in classes}
    cands = []
    for e in gens:
        profile = (g.order_of(e), size_of[class_of(g, e)])
        cands.append([x for x in range(g.order)
                      if (g.order_of(x), size_of[class_of(g, x)]) == profile])

    found: list[Automorphism] = []

    def build_map(images: list[int]) -> Optional[tuple[int, ...]]:
        mapping = [-1] * g.order
        mapping[0] = 0
        # elements were discovered as prev*gen; fill in the same order
        for e in order:
            prev, pos = expr[e]
            mapping[e] = g.mul(mapping[prev], images[pos])
        if sorted(mapping) != list(range(g.order)):
            return None
        return tuple(mapping)

    def is_hom(mapping: tuple[int, ...]) -> bool:
        for a in range(g.order):
            ma = mapping[a]
            for b in range(g.order):
                if mapping[g.mul(a, b)] != g.mul(ma, mapping[b]):
                    return False
        return True

    def dfs(pos: int, images: list[int]):
        if pos == len(gens):
            m = build_map(images)
            if m is not None and is_hom(m):
                found.append(Automorphism(m))
            return
        for c in cands[pos]:
            images.append(c)
            dfs(pos + 1, images)
            images.pop()

    dfs(0, [])
    uniq = sorted({a.mapping for a in found})
    auts = [Automorphism(m) for m in uniq]
    inner_count = g.order // len(g.center())
    flag = len(auts) == inner_count
    g._aut_cache[cap] = (auts, flag)
    return list(auts), flag


_SYM_RE = re.compile(r"^([A-Za-z]+)(\d+)$")


def inner_only(g: Group, cap: int = DEFAULT_AUT_CAP) -> bool:
    """Whether Aut G = Inn G; uses the S_n (n != 6) shortcut for named groups."""
    if g.name:
        m = _SYM_RE.match(g.name)
        if m and m.group(1) == "S" and int(m.group(2)) != 6:
            return True
    return automorphisms(g, cap)[1]


def _sym_gens(n: int) -> list[Permutation]:
    if n <= 1:
        return [Permutation.identity(max(n, 1))]
    if n == 2:
        return [Permutation.from_cycles([[0, 1]], 2)]
    return [Permutation.from_cycles([[0, 1]], n),
            Permutation.from_cycles([list(range(n))], n)]


def _alt_gens(n: int) -> list[Permutation]:
    if n <= 2:
        return [Permutation.identity(max(n, 1))]
    return [Permutation.from_cycles([[i, i + 1, i + 2]], n) for i in range(n - 2)]


def _cyc_gens(n: int) -> list[Permutation]:
    if n == 1:
        return [Permutation.identity(1)]
    return [Permutation.from_cycles([list(range(n))], n)]


def _dih_gens(n: int) -> list[Permutation]:
    # dihedral group of the n-gon, order 2n ("D4" = order 8)
    if n < 3:
        raise InputError("dihedral groups need n >= 3")
    rot = Permutation.from_cycles([list(range(n))], n)
    refl = Permutation(tuple((n - i) % n for i in range(n)))
    return [rot, refl]


def _q8_gens() -> list[Permutation]:
    # left-regular action on {1,-1,i,-i,j,-j,k,-k}
    return [Permutation((2, 3, 1, 0, 6, 7, 5, 4)),
            Permutation((4, 5, 7, 6, 1, 0, 2, 3))]


def _named_group(token: str, order_cap: int) -> Group:
    token = token.strip()
    if token.upper() == "Q8":
        return Group(8, _q8_gens(), name="Q8", order_cap=order_cap)
    m = _SYM_RE.match(token)
    if not m:
        raise InputError(f"unknown group name {token!r}")
    kind, n = m.group(1).upper(), int(m.group(2))
    if n < 1:
        raise InputError(f"bad group size in {token!r}")
    if kind == "S":
        return Group(max(n, 1), _sym_gens(n), name=f"S{n}", order_cap=order_cap)
    if kind == "A":
        return Group(max(n, 1), _alt_gens(n), name=f"A{n}", order_cap=order_cap)
    if kind == "C" or kind == "Z":
        return Group(n, _cyc_gens(n), name=f"C{n}", order_cap=order_cap)
    if kind == "D":
        return Group(n, _dih_gens(n), name=f"D{n}", order_cap=order_cap)
    raise InputError(f"unknown group name {token!r}")


def _shift_perm(p: Permutation, offset: int, degree: int) -> Permutation:
    images = list(range(degree))
    for i, x in enumerate(p.images):
        images[offset + i] = offset + x
    return Permutation(tuple(images))


def parse_group(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """Build a group from a spec string.

    Grammar: NAME ("S3", "A4", "D4" = dihedral of order 8, "C6", "Q8"),
    a generator list "perm:(0 1 2)(3 4);(0 1)" in 0-based cycle notation,
    or a direct product "A x B" of named groups acting on disjoint points.
    """
    if not isinstance(spec, str) or not spec.strip():
        raise InputError("empty group spec")
    spec = spec.strip()
    if spec.startswith("perm:"):
        body = spec[len("perm:"):]
        parts = [p for p in body.split(";") if p.strip()]
        if not parts:
            raise InputError("empty generator list")
        degree = max(_max_point(p) for p in parts) + 1
        gens = [parse_cycle_string(p, degree) for p in parts]
        return Group(degree, gens, name=None, order_cap=order_cap, spec=spec)
    tokens = [t for t in re.split(r"\s*[xX]\s*(?![^()]*\))", spec) if t]
    if len(tokens) == 1:
        g = _named_group(tokens[0], order_cap)
        g.spec = spec
        return g
    factors = [_named_group(t, order_cap) for t in tokens]
    degree = sum(f.degree for f in factors)
    gens: list[Permutation] = []
    offset = 0
    for f in factors:
        gens.extend(_shift_perm(p, offset, degree) for p in f.generators)
        offset += f.degree
    name = "x".join(t.strip() for t in tokens)
    return Group(degree, gens, name=name, order_cap=order_cap, spec=spec)


@lru_cache(maxsize=64)
def cached_group(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """parse_group with a process-level cache (a group's elements never change)."""
    return parse_group(spec, order_cap)
