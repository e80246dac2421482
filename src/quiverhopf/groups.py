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
# cells of candidate automorphisms (assignments times elements) that
# `automorphisms` may extend and check: S6 on its parsed generators takes
# 5.2e6, S7 on (0 1) and a 7-cycle would take 7.6e7
AUT_BUDGET = 1 << 23

# dense multiplication tables are kept up to this order; beyond it products
# are recomputed from image rows
_TABLE_CAP = 2048
# products composed from image rows are taken this many at a time, which
# bounds the transient (chunk, degree) arrays
_PRODUCT_CHUNK = 1 << 14
# candidate automorphisms are extended and checked this many cells at a time
_AUT_BLOCK = 1 << 18


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    # apply a first, then b
    return tuple(b[x] for x in a)


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

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(_compose(self.images, other.images))

    def order(self) -> int:
        return _order_of(self.images)

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


def _order_of(images: Sequence[int]) -> int:
    return math.lcm(1, *(len(c) for c in _cycles_of(images)))


def _generated(degree: int, generators: Sequence[Permutation],
               name: Optional[str] = None, order_cap: int = DEFAULT_ORDER_CAP,
               spec: Optional[str] = None) -> "Group":
    """The group generated by permutations (each of this degree), closed by
    breadth-first search."""
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    gens = [g.images for g in generators]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = _compose(a, g)
                if b not in seen:
                    if len(seen) >= order_cap:
                        raise InputError(f"group order exceeds cap {order_cap}")
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return Group(degree, sorted(seen), name=name, spec=spec, generators=generators)


def _max_point(text: str) -> int:
    pts = [int(p) for p in re.findall(r"\d+", text)]
    return max(pts) if pts else 0


class Group:
    """A fully enumerated permutation group.

    Built from its sorted element rows (image tuples, closed under
    products): a subgroup is a set of rows of its ambient group, and only a
    group closed from generators by `parse_group` records `generators`.
    Arithmetic is on element indices.  `perms` holds the rows as an
    (order, degree) array of big-endian uint16 images (uint32 past degree
    65536), so the bytes of each row compare like its tuple.  `products(a,
    b)` multiplies whole broadcast index arrays: it reads the dense
    multiplication table, kept up to order _TABLE_CAP (2048), and otherwise
    composes image rows with a gather and finds each product's index with one
    binary search over the rows' byte keys.  `mul` is the scalar form.  The
    elements and the table are fixed at construction.  Derived data (classes,
    the generating sequence and the `caches` dict that `automorphisms` and
    other modules fill) is computed on first use and stored without locks,
    so a Group is not thread-safe.
    """

    def __init__(self, degree: int, rows, name: Optional[str] = None,
                 spec: Optional[str] = None,
                 generators: Sequence[Permutation] = ()):
        self.degree = degree
        self.generators = tuple(generators)
        self.name = name
        self.spec = spec if spec is not None else name
        width = np.dtype(">u2") if degree <= 1 << 16 else np.dtype(">u4")
        self._key_dtype = np.dtype((np.void, width.itemsize * degree))
        self.perms = np.asarray(rows, dtype=width).reshape(-1, degree)
        self.order = len(self.perms)
        self.elements = tuple(map(tuple, self.perms.tolist()))
        self.index: dict[tuple[int, ...], int] = {e: i for i, e in enumerate(self.elements)}
        self._keys = self._key(self.perms)
        inverse_images = np.empty_like(self.perms)
        np.put_along_axis(inverse_images, self.perms,
                          np.arange(degree, dtype=width)[None, :], axis=1)
        self.inverses = self._lookup(inverse_images)
        self._inv = tuple(self.inverses.tolist())
        self._orders = tuple(_order_of(e) for e in self.elements)
        self.exponent = math.lcm(*self._orders)
        self._table: Optional[np.ndarray] = None
        if self.order <= _TABLE_CAP:
            every = np.arange(self.order)
            tbl = np.empty((self.order, self.order), dtype=np.int32)
            for a in range(self.order):
                tbl[a] = self.products(a, every)
            self._table = tbl
        self._classes: Optional[list[ConjClassCtx]] = None
        self._class_of: Optional[tuple[int, ...]] = None
        self._gen_words = None
        self.caches: dict = {}
        # set by centralizer_subgroup: embed[i] is the ambient index of
        # element i, local[x] the element index of ambient x (-1 off the
        # subgroup)
        self.embed: Optional[np.ndarray] = None
        self.local: Optional[np.ndarray] = None

    # -- element arithmetic on indices -------------------------------------

    def _key(self, rows: np.ndarray) -> np.ndarray:
        # one void scalar per image row; bytewise order is tuple order
        rows = np.ascontiguousarray(rows, dtype=self.perms.dtype)
        return rows.view(self._key_dtype).reshape(rows.shape[:-1])

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each image row (every row must be an element)."""
        return np.searchsorted(self._keys, self._key(rows))

    def products(self, a, b) -> np.ndarray:
        """Index array of a[i]*b[i] over the broadcast of two index arrays."""
        if self._table is not None:
            return self._table[a, b]
        a, b = np.broadcast_arrays(np.asarray(a), np.asarray(b))
        shape = a.shape
        a, b = a.reshape(-1), b.reshape(-1)
        out = np.empty(a.size, dtype=np.intp)
        # (a*b)(x) = b(a(x)): gather b's images at a's, in bounded chunks
        for lo in range(0, a.size, _PRODUCT_CHUNK):
            hi = lo + _PRODUCT_CHUNK
            rows = np.take_along_axis(self.perms[b[lo:hi]], self.perms[a[lo:hi]],
                                      axis=1)
            out[lo:hi] = self._lookup(rows)
        return out.reshape(shape)

    def conjugates(self, a: int) -> np.ndarray:
        """h^-1 * a * h for every h, in canonical order."""
        every = np.arange(self.order)
        return self.products(self.products(self.inverses, a), every)

    def mul(self, a: int, b: int) -> int:
        if self._table is not None:
            return int(self._table[a, b])
        return self.index[_compose(self.elements[a], self.elements[b])]

    def inv(self, a: int) -> int:
        return self._inv[a]

    def conj(self, a: int, h: int) -> int:
        """h^-1 * a * h."""
        return self.mul(self.mul(self._inv[h], a), h)

    def element(self, a: int) -> Permutation:
        return Permutation(self.elements[a])

    def element_name(self, a: int) -> str:
        return self.element(a).cycle_string()

    def find(self, p: Permutation) -> int:
        try:
            return self.index[p.images]
        except KeyError:
            raise InputError(f"{p.cycle_string()} is not in the group") from None

    def commutes_with(self, a: int) -> np.ndarray:
        """Boolean mask of the elements h with h*a == a*h."""
        every = np.arange(self.order)
        return self.products(every, a) == self.products(a, every)

    def center(self) -> list[int]:
        central = np.ones(self.order, dtype=bool)
        for a in self.generating_sequence()[0]:
            central &= self.commutes_with(a)
        return np.flatnonzero(central).tolist()

    def generating_sequence(self) -> tuple[list[int], list[tuple[int, int]], list[int]]:
        """Greedy generating sequence plus expression words.

        gens takes each element, in canonical order, that the earlier ones
        do not generate.  Returns (gens, expr, order) with expr[e] =
        (prev_element, gen_position) so that e = prev * gens[pos];
        expr[identity] = (-1, -1).  order lists the non-identity elements
        by word length, each after its prev (the spanning tree of `words`).
        Used to extend maps defined on generators to the whole group.

        Lemma: if P(e) = 1 and P(g s) = P(g) P(s) for every g and generator
        s, then P(g h) = P(g) P(h) for all g, h, by induction on the word of
        h (h = h' s gives P(g h' s) = P(g h') P(s) = P(g) P(h') P(s)); the
        mirrored form P(s h) = P(s) P(h) does the same on the word of g.  So
        |G| * |gens| pairs check that a map respects the product.  The
        proof uses only that every element is a word in the generators, so
        it holds for any generating set.
        """
        if self._gen_words is None:
            gens: list[int] = []
            prev, pos, levels = self.words(gens)
            while (missing := np.flatnonzero(prev[1:] == -1)).size:
                gens.append(int(missing[0]) + 1)
                prev, pos, levels = self.words(gens)
            self._gen_words = (gens, list(zip(prev.tolist(), pos.tolist())),
                               np.concatenate(levels)[1:].tolist())
        return self._gen_words

    def words(self, gens: Sequence[int]) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Breadth-first spanning tree of the words in gens (element
        indices): x = prev[x] * gens[pos[x]] (-1 at e and off the subgroup
        gens generate), and the levels: the elements first reached at each
        word length, in the order a scan of the previous level times each
        generator in turn meets them (level 0 is [0])."""
        gens = np.asarray(gens, dtype=np.intp)
        prev = np.full(self.order, -1)
        pos = np.full(self.order, -1)
        levels = [np.zeros(1, dtype=np.intp)]
        while gens.size:
            reached = self.products(levels[-1][:, None], gens[None, :]).reshape(-1)
            new, first = np.unique(reached, return_index=True)
            first = np.sort(first[(pos[new] == -1) & (new != 0)])
            if not first.size:
                break
            new = reached[first]
            prev[new] = levels[-1][first // gens.size]
            pos[new] = first % gens.size
            levels.append(new)
        return prev, pos, levels

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
    conj, first = np.unique(g.conjugates(u), return_index=True)
    by_first = np.argsort(first)
    transversal = first[by_first].tolist()
    theta_of = {c: theta for theta, c in enumerate(conj[by_first].tolist())}
    return transversal, theta_of


def conjugacy_classes(g: Group) -> list[ConjClassCtx]:
    """Conjugacy classes in canonical order (by minimal member index)."""
    if g._classes is not None:
        return g._classes
    classes: list[ConjClassCtx] = []
    class_of = np.full(g.order, -1)
    for seed in range(g.order):
        if class_of[seed] != -1:
            continue
        idx = len(classes)
        class_of[g.conjugates(seed)] = idx
        members = np.flatnonzero(class_of == idx).tolist()
        # u0: the member least in canonical cycle form
        rep = min(members, key=lambda a: _cycles_of(g.elements[a]))
        centralizer = tuple(np.flatnonzero(g.commutes_with(rep)).tolist())
        transversal, theta_of = coset_transversal(g, rep)
        assert transversal[0] == 0 and len(transversal) == len(members)
        classes.append(ConjClassCtx(idx, tuple(members), rep, centralizer,
                                    tuple(transversal), theta_of))
    g._classes = classes
    g._class_of = tuple(class_of.tolist())
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
    """The centralizer of a class representative (or explicit element) as a
    Group on the ambient rows of its members: no closure, no generators.
    sub.embed is the int array of the members' ambient indices (ascending:
    both orders are lexicographic); sub.local inverts it over the ambient
    group, -1 off the subgroup."""
    elt = ctx_or_elt.rep if isinstance(ctx_or_elt, ConjClassCtx) else ctx_or_elt
    key = ("centralizer", elt)
    if key in g.caches:
        return g.caches[key]
    members = np.flatnonzero(g.commutes_with(elt))
    sub = Group(g.degree, g.perms[members], name=f"Z({g.element_name(elt)})")
    sub.embed = members
    sub.local = np.full(g.order, -1, dtype=np.intp)
    sub.local[members] = np.arange(len(members))
    g.caches[key] = sub
    return sub


def automorphisms(g: Group) -> np.ndarray:
    """Aut G as one read-only (|Aut G|, |G|) int array of element images,
    rows ascending, cached in g.caches.

    Each generator (the parsed ones if any, else the greedy sequence: the
    lemma of Group.generating_sequence holds for any generating set) may
    go to any element of its order and class size.  Every assignment is
    extended along one spanning tree of words (Group.words) and kept when
    only e maps to e and phi(a s) = phi(a) phi(s) for every a and generator
    s: a multiplicative map with trivial kernel, so a bijection.  The work,
    prod |candidates| * |G| cells, must fit AUT_BUDGET (else InputError
    before anything is built); it runs in blocks of _AUT_BLOCK cells.
    """
    if "automorphisms" in g.caches:
        return g.caches["automorphisms"]
    gens = [g.find(s) for s in g.generators] or g.generating_sequence()[0] or [0]
    orders = np.array(g._orders)
    sizes = np.array([c.size for c in conjugacy_classes(g)])[list(g._class_of)]
    cands = [np.flatnonzero((orders == orders[s]) & (sizes == sizes[s])) for s in gens]
    cells = math.prod(len(c) for c in cands) * g.order
    if cells > AUT_BUDGET:
        raise InputError(f"{cells} cells of candidate automorphisms exceed "
                         f"the automorphism budget of {AUT_BUDGET}")
    images = np.stack(np.meshgrid(*cands, indexing="ij"), -1).reshape(-1, len(gens))
    prev, pos, levels = g.words(gens)
    times_gen = g.products(np.arange(g.order)[:, None], np.array(gens)[None, :])
    step = max(1, _AUT_BLOCK // (g.order * len(gens)))
    kept = []
    for lo in range(0, len(images), step):
        img = images[lo:lo + step]
        phi = np.zeros((len(img), g.order), dtype=np.int32)
        for level in levels[1:]:
            phi[:, level] = g.products(phi[:, prev[level]], img[:, pos[level]])
        trivial_kernel = (phi[:, 1:] != 0).all(axis=1)
        phi, img = phi[trivial_kernel], img[trivial_kernel]
        hom = (phi[:, times_gen] ==
               g.products(phi[:, :, None], img[:, None, :])).all(axis=(1, 2))
        kept.append(phi[hom])
    auts = np.unique(np.concatenate(kept), axis=0)
    auts.flags.writeable = False
    g.caches["automorphisms"] = auts
    return auts


def outer_representatives(g: Group) -> list[np.ndarray]:
    """The first automorphism of each coset of Inn G in Aut G as an index
    array, cached on g: phi c_h has phi's generator images conjugated by phi(h)."""
    if "outer" not in g.caches:
        gens, reps, seen = g.generating_sequence()[0], [], set()
        every = np.arange(g.order)[:, None]
        for images in automorphisms(g):
            if tuple(images[gens].tolist()) not in seen:
                reps.append(images)
                conj = g.products(g.products(g.inverses[every], images[gens]), every)
                seen.update(map(tuple, conj.tolist()))
        g.caches["outer"] = reps
    return g.caches["outer"]


_SYM_RE = re.compile(r"^([A-Za-z]+)(\d+)$")


def inner_only(g: Group) -> bool:
    """Whether Aut G = Inn G, that is |Aut G| = |G/Z(G)|; S_n (n != 6) is
    answered from its name."""
    m = _SYM_RE.match(g.name or "")
    if m and m.group(1) == "S" and int(m.group(2)) != 6:
        return True
    return len(automorphisms(g)) == g.order // len(g.center())


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
        return _generated(8, _q8_gens(), name="Q8", order_cap=order_cap)
    m = _SYM_RE.match(token)
    if not m:
        raise InputError(f"unknown group name {token!r}")
    kind, n = m.group(1).upper(), int(m.group(2))
    if n < 1:
        raise InputError(f"bad group size in {token!r}")
    if kind == "S":
        return _generated(max(n, 1), _sym_gens(n), name=f"S{n}", order_cap=order_cap)
    if kind == "A":
        return _generated(max(n, 1), _alt_gens(n), name=f"A{n}", order_cap=order_cap)
    if kind == "C" or kind == "Z":
        return _generated(n, _cyc_gens(n), name=f"C{n}", order_cap=order_cap)
    if kind == "D":
        return _generated(n, _dih_gens(n), name=f"D{n}", order_cap=order_cap)
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
        return _generated(degree, gens, order_cap=order_cap, spec=spec)
    tokens = re.split(r"\s*[xX]\s*(?![^()]*\))", spec)
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
    return _generated(degree, gens, name=name, order_cap=order_cap, spec=spec)


@lru_cache(maxsize=64)
def cached_group(spec: str, order_cap: int = DEFAULT_ORDER_CAP) -> Group:
    """parse_group with a process-level cache (a group's elements never change)."""
    return parse_group(spec, order_cap)
