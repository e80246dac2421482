"""Finite permutation groups as index arrays: closure, conjugacy
structure, centralizers with their cosets, automorphisms.

Composition convention, fixed for the whole package: (a*b)(x) = b(a(x)),
i.e. the left factor acts first.  Elements are referred to by their index
in the canonical element order (image tuples sorted lexicographically);
index 0 is always the identity.  A group holds its elements once, as an
array of image rows, and derives everything else from it as index arrays.
Elements are image rows only: parse_cycle_string validates a user's cycle
notation into a row, the named groups are built as rows, cycle_string names one.

A row is found by one binary search on its key (_keys): up to degree 16
its points packed into one uint64, past it the row's bytes.  A parsed group
is built once (_generated): one breadth-first search over its generators
reaches every element, and that search is also the group's word tree on
those generators (Group.words) and the order in which its multiplication
table is filled.

Element orders, and the conjugacy classes of a group without a
multiplication table, come from whole-array passes: pointer doubling on
the image rows finds the least point and length of every cycle, in no more
rounds than the rows' moved points need; conjugation by each generator is
one gather and one lookup of all rows, whose orbits are the classes; and
the class representatives come from one lexsort of canonical cycle forms.
A group with a table scans its classes one `conjugates` at a time instead
(see conjugacy_classes).  cycle_string walks a row that fixes most of its
points over the moved ones alone.

Group.conjugates is the row h -> h^-1 a h of one element a over every h,
Group.conj its entry at one h; a centralizer takes its element's row once,
keeping it with its cosets for the bimodule and rsr (centralizer_subgroup).

Malformed input raises InputError; work over a budget raises its subclass
BudgetError, here ORDER_CAP, ROW_CELLS_CAP and AUT_BUDGET, downstream
rsr.TYPE_CAP, rsr.RAM_CAP, yd.CELL_CAP and typeone.PATH_CAP.  Aut G is
searched within AUT_BUDGET; past it only the theorem Aut S_n = Inn S_n
(n != 6) answers, in outer_representatives, for a group of degree n and
order n!.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional, Sequence

import numpy as np


class InputError(ValueError):
    """Malformed user-facing input: group specs, ramifications, files."""


class BudgetError(InputError):
    """Work over a budget: ORDER_CAP, ROW_CELLS_CAP (2^25 cells of element
    rows, order x degree), AUT_BUDGET, rsr.TYPE_CAP, rsr.RAM_CAP,
    yd.CELL_CAP or typeone.PATH_CAP."""


# the largest order parse_group closes a group to
ORDER_CAP = 5040
# the most cells of element rows (order x degree) parse_group builds: the
# degree is checked before any permutation is built, the order as the
# closure grows; C5040 takes 25.4e6
ROW_CELLS_CAP = 1 << 25
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
# the cycle passes (orders, cycle-form keys) take image rows about this
# many cells at a time, which bounds their transient index arrays
_CYCLE_CELLS = 1 << 13
# candidate automorphisms are extended and checked this many cells at a time
_AUT_BLOCK = 1 << 18
# rows of up to this many points are keyed by one uint64: bits(n - 1) <= 4
# bits a point, n of them
_PACKED_DEGREE = 16


def _cycles_of(images: Sequence[int] | dict[int, int]) -> tuple[tuple[int, ...], ...]:
    """The moved cycles of an image row, each from its least point, by least
    point.  images holds the image of every point, as a sequence, or of the
    moved points alone, as a dict in ascending order.  The walk marks each
    point it visits fixed, in a copy."""
    if isinstance(images, dict):
        left, starts = dict(images), list(images)
    else:
        left, starts = list(images), range(len(images))
    out = []
    for start in starts:
        x = left[start]
        if x == start:
            continue
        cyc = [start]
        left[start] = start
        while x != start:
            cyc.append(x)
            left[x], x = x, left[x]
        out.append(tuple(cyc))
    return tuple(out)


def cycle_string(images: Sequence[int]) -> str:
    """Cycle notation of an image row: its moved cycles, each from its least
    point, by least point; "e" for the identity.  A row that fixes most of
    its points is walked over the moved ones alone."""
    row = np.asarray(images)
    moved = np.flatnonzero(row != np.arange(row.size))
    walk = (row.tolist() if 2 * moved.size > row.size
            else dict(zip(moved.tolist(), row[moved].tolist())))
    # a cycle's tuple repr without its commas is its notation: "(0, 1)" -> "(0 1)"
    return "".join(repr(c).replace(",", "") for c in _cycles_of(walk)) or "e"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycle_string(text: str, degree: int) -> np.ndarray:
    """The image row of 0-based cycle notation like "(0 1 2)(3 4)" on
    degree points; "e" or "()" is the identity.  InputError on text that
    is not cycles of integers, on a point outside 0..degree-1 and on a
    point given twice, within one cycle or across two."""
    text = text.strip()
    images = np.arange(degree)
    if text in ("e", "", "()", "id", "1"):
        return images
    if _CYCLE_RE.sub("", text).strip():
        raise InputError(f"cannot parse cycle notation {text!r}")
    seen: set[int] = set()
    for body in _CYCLE_RE.findall(text):
        try:
            cyc = [int(p) for p in re.split(r"[,\s]+", body.strip()) if p]
        except ValueError:
            raise InputError(f"bad point in cycle {body!r}") from None
        for a in cyc:
            if not 0 <= a < degree:
                raise InputError(f"point {a} out of range for degree {degree}")
            if a in seen:
                raise InputError(f"point {a} given twice in {text!r}")
            seen.add(a)
        images[cyc] = cyc[1:] + cyc[:1]
    return images


@lru_cache(maxsize=_PACKED_DEGREE)
def _key_weights(n: int) -> np.ndarray:
    # 2^(b * (n - 1 - i)) at point i of n <= _PACKED_DEGREE, b = bits(n - 1)
    bits = max(1, (n - 1).bit_length())
    weights = np.uint64(1) << np.arange(bits * (n - 1), -1, -bits, dtype=np.uint64)
    weights.flags.writeable = False
    return weights


def _keys(rows: np.ndarray) -> np.ndarray:
    """One key per image row of n points, ordered like the row's tuple: up
    to _PACKED_DEGREE points, the points packed into one uint64, bits(n - 1)
    bits each; past it, the row's big-endian bytes as one void scalar."""
    if rows.shape[-1] <= _PACKED_DEGREE:
        return rows @ _key_weights(rows.shape[-1])
    rows = np.ascontiguousarray(rows)
    width = np.dtype((np.void, rows.dtype.itemsize * rows.shape[-1]))
    return rows.view(width).reshape(rows.shape[:-1])


def _cycles(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pointer doubling on image rows (c, n) as one flat successor array:
    the array, the flat index of each point's least cycle point, and each
    cycle's length at its least point (0 elsewhere).  Round k takes the
    least point within 2^k steps ahead, so ceil(log2 m) rounds of gathers
    cover every cycle, m the longest a cycle can be: n, or the number of
    points the rows move if that is less (one round for a transposition on
    2^24 points)."""
    c, n = rows.shape
    least = np.arange(c * n)
    succ = (rows.astype(np.intp) + least[::n, None]).reshape(-1)
    longest = min(n, int(np.count_nonzero(succ != least)))
    jump = succ
    for _ in range((longest - 1).bit_length()):
        np.minimum(least, least[jump], out=least)
        jump = jump[jump]
    return succ, least, np.bincount(least, minlength=c * n)


def _orders(rows: np.ndarray) -> np.ndarray:
    """Element orders of image rows: the lcm of each row's cycle lengths."""
    c, n = rows.shape
    _, _, length = _cycles(rows)
    at = np.flatnonzero(length)     # least points; each row's point 0 is one
    return np.lcm.reduceat(length[at], np.searchsorted(at, np.arange(0, c * n, n)))


def _cycle_keys(rows: np.ndarray) -> np.ndarray:
    """Canonical cycle forms of image rows (c, n) as key rows of n + n // 2
    columns: each moved cycle from its least point, closed by -1, cycles by
    least point, padded with -1.  Rows of one cycle type compare like their
    _cycles_of tuples: -1 ends a cycle before any point continues one."""
    c, n = rows.shape
    succ, least, length = _cycles(rows)
    flat = np.arange(c * n)
    # steps from each point forward to its least point: list ranking on the
    # cycles cut there, ceil(log2 n) rounds of gathers
    steps = (flat != least).astype(np.intp)
    jump = np.where(steps == 1, succ, flat)
    for _ in range((n - 1).bit_length()):
        steps += steps[jump]
        jump = jump[jump]
    # a moved cycle takes its length plus one -1, after the cycles of lesser
    # least points
    width = np.where(length > 1, length + 1, 0).reshape(c, n)
    start = (np.cumsum(width, axis=1) - width).reshape(-1)
    cycle = length[least]
    at = np.flatnonzero(cycle > 1)
    row, point = np.divmod(at, n)
    slot = start[least[at]] + (cycle[at] - steps[at]) % cycle[at]
    # int16 while points fit: lexsort sorts 16-bit keys by radix
    keys = np.full((c, n + n // 2), -1, dtype=np.int16 if n <= 1 << 15 else np.int32)
    keys.reshape(-1)[row * keys.shape[1] + slot] = point
    return keys


def _check_row_cells(order: int, degree: int) -> None:
    if order * degree > ROW_CELLS_CAP:
        raise BudgetError(f"element rows of {order} x {degree} cells exceed the cap "
                          f"of {ROW_CELLS_CAP}")


def _generated(degree: int, generators: np.ndarray,
               name: Optional[str] = None, spec: Optional[str] = None) -> "Group":
    """The group generated by image rows (k, degree), closed
    breadth-first on image rows, one word length at a time, within
    ORDER_CAP and ROW_CELLS_CAP; the rows a word length reaches, the
    generators times the rows of the level before, are checked against
    ROW_CELLS_CAP before they are built.  A level's new rows are the first
    of each key (_keys) not seen before, in the order an element-major scan
    meets them.  This search is the word tree of the generators: it is kept
    on the group as `_search`, and Group.words reads it on first use.
    Element orders come from _orders, _CYCLE_CELLS at a time.  Up to order
    _TABLE_CAP the table is built along the tree: the generators' rows by
    lookup, then each row of x*s as the column gather T[x*s] = T[x][:, T[s]],
    one per word length and generator."""
    width = np.dtype(">u2") if degree <= 1 << 16 else np.dtype(">u4")
    gens = np.asarray(generators, dtype=width)
    # the search numbers the elements as it reaches them, x = prev[x] * gens[pos[x]]
    levels, prev, pos = [np.arange(degree, dtype=width)[None, :]], [[-1]], [[-1]]
    seen = set(_keys(levels[0]).tolist())
    ends = [1]      # the search number past each level
    while len(levels[-1]):
        _check_row_cells(len(gens) * len(levels[-1]), degree)
        # reached[s, x] = x*s, (x*s)(i) = s(x(i)); keys taken x-major
        reached = gens[:, levels[-1]]
        keys = _keys(reached).T.reshape(-1)
        found, first = np.unique(keys, return_index=True)
        first = np.sort(first[np.array([k not in seen for k in found.tolist()], dtype=bool)])
        x, s = np.divmod(first, len(gens))
        prev.append(len(seen) - len(levels[-1]) + x)
        pos.append(s)
        levels.append(reached[s, x])
        seen.update(keys[first].tolist())
        ends.append(len(seen))
        if len(seen) > ORDER_CAP:
            raise BudgetError(f"group order exceeds cap {ORDER_CAP}")
        _check_row_cells(len(seen), degree)
    rows = np.concatenate(levels, dtype=width)
    by_key = np.argsort(_keys(rows))
    g = Group(rows[by_key], name=name, spec=spec, generators=gens)
    index = np.empty(g.order, dtype=np.intp)     # search number -> element index
    index[by_key] = np.arange(g.order)
    at = g._lookup(gens)
    ends = np.array(ends[:-1])
    g.caches["generators"] = at.tolist()
    g._search = index, np.concatenate(prev), np.concatenate(pos), ends
    inverse_images = np.empty_like(g.perms)
    np.put_along_axis(inverse_images, g.perms, np.arange(degree, dtype=width)[None, :],
                      axis=1)
    g.inverses = g._lookup(inverse_images)
    step = max(1, _CYCLE_CELLS // degree)
    g.orders = np.concatenate([_orders(g.perms[lo:lo + step])
                               for lo in range(0, g.order, step)])
    if g.order <= _TABLE_CAP:
        table = np.empty((g.order, g.order), dtype=np.int32)
        table[0] = np.arange(g.order)
        # (s*b)(i) = b(s(i)): a generator's row gathers every row at s
        table[at] = g._lookup(np.swapaxes(g.perms[:, gens], 0, 1))
        # level 1 holds the generators other than e; the search numbers of
        # the later levels go in blocks of one word length and generator
        _, parent, gen, _ = g._search
        lo = ends[min(1, len(ends) - 1)]
        block = np.repeat(np.arange(len(ends) - 2), np.diff(ends[1:])) * len(gens) + gen[lo:]
        by_block = lo + np.argsort(block, kind="stable")
        for part in np.split(by_block, np.flatnonzero(np.diff(block[by_block - lo])) + 1):
            if part.size:
                table[index[part]] = table[index[parent[part]][:, None],
                                           table[at[gen[part[0]]]]]
        g._table = table
    return g


class Group:
    """A fully enumerated permutation group, held as index arrays.

    `perms` holds the elements once: their image rows, sorted, as big-endian
    uint16 (uint32 past degree 65536).  `_keys` holds one key per row in
    the same order, and `_lookup` finds rows by one binary search on it: up
    to degree 16 the row's points packed into one uint64, bits(degree - 1)
    bits each, past it the row's bytes as one void scalar; either compares
    like the row's tuple.  `inverses` and `orders` are arrays over the
    elements.  `products(a, b)` multiplies broadcast index arrays from the
    dense table, kept up to order _TABLE_CAP (2048), and otherwise composes
    image rows and looks them up.  `conjugates(a)` is the row h^-1 a h over
    every h; centralizer_subgroup takes it once and keeps it, as `conj_row`,
    with `transversal` and `theta_at` for the bimodule and rsr to read.
    The table also picks the route of `conjugacy_classes`: with it, one
    `conjugates` scan per class; without it (S7, A7, C5040), the orbits of
    conjugation by the generators, each one lookup of every row.  Two
    constructors fill inverses, orders and table: `_generated` closes the
    read-only (k, degree) array `generators` of a parsed group (other groups
    have k = 0) and keeps its search as the word tree of those generators,
    and `centralizer_subgroup` restricts its ambient group's.  Derived data
    (classes, the generating sequence and the `caches` dict other modules
    fill) is computed on first use without locks: not thread-safe.
    """

    def __init__(self, perms: np.ndarray, name: Optional[str] = None,
                 spec: Optional[str] = None,
                 generators: Sequence = ()):
        self.perms = perms
        self.order, self.degree = perms.shape
        self.generators = np.asarray(generators, dtype=perms.dtype).reshape(-1, self.degree)
        self.generators.flags.writeable = False
        self.name = name
        self.spec = spec if spec is not None else name
        self._keys = _keys(perms)
        self.inverses = self.orders = self._table = None   # set by the constructor
        self._classes: Optional[list[ConjClassCtx]] = None
        self._class_of: Optional[np.ndarray] = None
        self._gens: Optional[list[int]] = None
        # set by _generated: its search over the parsed generators, as the
        # element index of each search number, prev and pos by search number
        # (x = prev[x] * gens[pos[x]]) and the search number past each level
        self._search: Optional[tuple] = None
        self.caches: dict = {}
        self.embed = self.local = self.conj_row = self.transversal = self.theta_at = None

    @property
    def exponent(self) -> int:
        return int(np.lcm.reduce(self.orders))

    # -- element arithmetic on indices -------------------------------------

    def _lookup(self, rows: np.ndarray) -> np.ndarray:
        """Element index of each image row (every row must be an element)."""
        return np.searchsorted(self._keys, _keys(rows.astype(self.perms.dtype)))

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
        """h^-1 * a * h for every h, in canonical order.

        Without a table each chunk of h is one gather of image rows,
        (h^-1 a h)(x) = h(a(h^-1(x))), and one lookup."""
        every = np.arange(self.order)
        if self._table is not None:
            return self._table[self._table[self.inverses, a], every]
        out = np.empty(self.order, dtype=np.intp)
        image = self.perms[a]
        for lo in range(0, self.order, _PRODUCT_CHUNK):
            h = every[lo:lo + _PRODUCT_CHUNK]
            rows = np.take_along_axis(self.perms[h], image[self.perms[self.inverses[h]]],
                                      axis=1)
            out[lo:lo + _PRODUCT_CHUNK] = self._lookup(rows)
        return out

    def mul(self, a: int, b: int) -> int:
        return int(self.products(a, b))

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def conj(self, a: int, h: int) -> int:
        """h^-1 * a * h."""
        return self.mul(self.mul(self.inv(h), a), h)

    def element_name(self, a: int) -> str:
        return cycle_string(self.perms[a])

    def find(self, images: Sequence[int]) -> int:
        """The element index of an image row, any sequence of points; else
        InputError, naming the row in cycle notation only if it is a permutation."""
        row = np.asarray(images)
        if row.shape == (self.degree,):
            a = int(self._lookup(row))
            if a < self.order and (self.perms[a] == row).all():
                return a
        if row.ndim != 1 or (np.sort(row) != np.arange(row.size)).any():
            raise InputError(f"not a permutation: {row.tolist()}")
        raise InputError(f"{cycle_string(row)} is not in the group")

    def generating_sequence(self) -> list[int]:
        """Greedy generating sequence: each element, in canonical order,
        that the earlier ones do not generate.  Maps defined on generators
        extend to the whole group along the words of `words`.

        Lemma: if P(e) = 1 and P(g s) = P(g) P(s) for every g and generator
        s, then P(g h) = P(g) P(h) for all g, h, by induction on the word of
        h (h = h' s gives P(g h' s) = P(g h') P(s) = P(g) P(h') P(s)); the
        mirrored form P(s h) = P(s) P(h) does the same on the word of g.  So
        |G| * |gens| pairs check that a map respects the product.  The
        proof uses only that every element is a word in the generators, so
        it holds for any generating set.
        """
        if self._gens is None:
            gens: list[int] = []
            prev = self.words(gens)[0]
            while (missing := np.flatnonzero(prev[1:] == -1)).size:
                gens.append(int(missing[0]) + 1)
                prev = self.words(gens)[0]
            self._gens = gens
        return self._gens

    def generator_indices(self) -> list[int]:
        """The element indices of the parsed generators, which _generated
        keeps in `caches`, else the greedy generating sequence: the
        generators `automorphisms`, `outer_representatives` and modrep's
        right-ideal check extend maps along."""
        if "generators" not in self.caches:
            self.caches["generators"] = self.generating_sequence()
        return self.caches["generators"]

    def words(self, gens: Sequence[int]) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
        """Breadth-first spanning tree of the words in gens (element
        indices): x = prev[x] * gens[pos[x]] (-1 at e and off the subgroup
        gens generate), and the levels: the elements first reached at each
        word length, in the order a scan of the previous level times each
        generator in turn meets them (level 0 is [0]).  On a parsed group's
        generators this is the closure's own search, renumbered; any other
        tuple takes a search of its own.  Built once per tuple of generators
        and kept in `caches`, read-only."""
        key = ("words", tuple(int(s) for s in gens))
        if key in self.caches:
            return self.caches[key]
        prev = np.full(self.order, -1)
        pos = np.full(self.order, -1)
        if self._search is not None and list(key[1]) == self.generator_indices():
            index, prev_s, pos_s, ends = self._search
            prev[index[1:]] = index[prev_s[1:]]
            pos[index[1:]] = pos_s[1:]
            levels = np.split(index, ends[:-1])
        else:
            gens = np.asarray(gens, dtype=np.intp)
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
        for a in (prev, pos, *levels):
            a.flags.writeable = False
        self.caches[key] = prev, pos, levels
        return self.caches[key]

    def __repr__(self):
        label = self.name or f"degree-{self.degree} group"
        return f"<Group {label} of order {self.order}>"


@dataclass
class ConjClassCtx:
    """A conjugacy class and its representative u0(C), the member minimal
    in canonical cycle order."""

    class_index: int
    elements: tuple[int, ...]
    rep: int

    @property
    def size(self) -> int:
        return len(self.elements)


def conjugacy_classes(g: Group) -> list[ConjClassCtx]:
    """Conjugacy classes in canonical order (by minimal member index), each
    with u0, its member least in canonical cycle form.

    The route follows the table, as `products` and `conjugates` do.  With a
    table (order <= _TABLE_CAP) each class is one `conjugates` of its least
    unclassed element, a gather of the table, and u0 is picked in Python:
    such groups are small and classed often (every centralizer of an RSR
    census), and on them array set-up costs more than the scan.
    Without a table a `conjugates` costs a lookup of every row, once per
    class, so the classes are the orbits of x -> s^-1 x s over
    `generator_indices`: one gather and one lookup of all rows per
    generator, then min-label propagation with pointer jumping.  There u0
    comes from one lexsort of the _cycle_keys of the members of classes of
    more than one element; within a cycle type key order is the order of
    _cycles_of tuples, so both routes pick the same u0."""
    if g._classes is not None:
        return g._classes
    if g._table is None:
        return _conjugation_orbits(g)
    classes: list[ConjClassCtx] = []
    class_of = np.full(g.order, -1)
    for seed in range(g.order):
        if class_of[seed] != -1:
            continue
        idx = len(classes)
        class_of[g.conjugates(seed)] = idx
        members = np.flatnonzero(class_of == idx).tolist()
        # u0: the member least in canonical cycle form
        if len(members) == 1:
            rep = seed
        else:
            rows = g.perms[members].tolist()
            rep = members[min(range(len(rows)), key=lambda i: _cycles_of(rows[i]))]
        classes.append(ConjClassCtx(idx, tuple(members), rep))
    g._classes = classes
    g._class_of = class_of
    return classes


def _conjugation_orbits(g: Group) -> list[ConjClassCtx]:
    """The table-less route of conjugacy_classes."""
    # (s^-1 x s)(p) = s(x(s^-1(p))) for every x at once
    conj = [g._lookup(g.perms[s][g.perms[:, g.perms[g.inverses[s]]]])
            for s in g.generator_indices()]
    # label[x] stays a member of x's orbit no greater than x; at the fixed
    # point it is constant along every generator's cycles, so on each
    # orbit, and equal to the orbit's least member
    label = np.arange(g.order)
    while True:
        low = label
        for c in conj:
            low = np.minimum(low, low[c])
        low = low[low]
        if (low == label).all():
            break
        label = low
    least, class_of, sizes = np.unique(label, return_inverse=True, return_counts=True)
    by_class = np.argsort(class_of, kind="stable")
    members = np.split(by_class, np.cumsum(sizes)[:-1])
    reps = least        # the member of each singleton class
    # u0 of each class of more than one element: the first member of its
    # class in one lexsort of class and cycle-form key
    shared = by_class[sizes[class_of[by_class]] > 1]
    if shared.size:
        step = max(1, _CYCLE_CELLS // g.degree)
        keys = np.concatenate([_cycle_keys(g.perms[shared[lo:lo + step]])
                               for lo in range(0, shared.size, step)])
        ranked = shared[np.lexsort((*keys.T[::-1], class_of[shared]))]
        first = ranked[np.flatnonzero(np.diff(class_of[ranked], prepend=-1))]
        reps[class_of[first]] = first
    g._classes = [ConjClassCtx(k, tuple(m.tolist()), r)
                  for k, (m, r) in enumerate(zip(members, reps.tolist()))]
    g._class_of = class_of
    return g._classes


def class_of(g: Group, a):
    """The class index of element a, or the class indices of an index array."""
    conjugacy_classes(g)
    k = g._class_of[a]  # type: ignore[index]
    return k if isinstance(k, np.ndarray) else int(k)


def centralizer_subgroup(g: Group, ctx_or_elt) -> Group:
    """The centralizer Z_u of a class representative (or explicit element)
    u as a Group on the ambient rows of its members, with its right cosets.
    g.conjugates(u) is taken once, as sub.conj_row; sub.embed holds the
    members' ambient indices (ascending, as both orders are lexicographic),
    sub.local inverts it (-1 off Z_u), sub.transversal the first h of each
    conjugate, ascending (g_0 = e), and sub.theta_at the theta of
    g_theta^-1 u g_theta (-1 off the class).  The bimodule reads
    conj_row, transversal and theta_at, rsr._plan the last two.  Inverses,
    orders and table are the ambient's, read with no closure or generators."""
    elt = ctx_or_elt.rep if isinstance(ctx_or_elt, ConjClassCtx) else ctx_or_elt
    key = ("centralizer", elt)
    if key in g.caches:
        return g.caches[key]
    conj = g.conjugates(elt)
    members = np.flatnonzero(conj == elt)
    sub = Group(g.perms[members], name=f"Z({g.element_name(elt)})")
    sub.conj_row, sub.embed = conj, members
    sub.transversal = np.sort(np.unique(conj, return_index=True)[1])
    sub.theta_at = np.full(g.order, -1)
    sub.theta_at[conj[sub.transversal]] = np.arange(len(sub.transversal))
    sub.local = np.full(g.order, -1, dtype=np.intp)
    sub.local[members] = np.arange(len(members))
    sub.inverses = sub.local[g.inverses[members]]
    sub.orders = g.orders[members]
    if sub.order <= _TABLE_CAP:
        sub._table = sub.local[g.products(members[:, None], members)].astype(np.int32)
    g.caches[key] = sub
    return sub


def automorphisms(g: Group) -> np.ndarray:
    """Aut G as one read-only (|Aut G|, |G|) int array of element images,
    rows ascending, cached in g.caches.

    Each generator of Group.generator_indices (the lemma of
    Group.generating_sequence holds for any generating set) may go to any
    element of its order and class size.  Every assignment is extended
    along one spanning tree of words (Group.words) and kept when
    only e maps to e and phi(a s) = phi(a) phi(s) for every a and generator
    s: a multiplicative map with trivial kernel, so a bijection.  The work,
    prod |candidates| * |G| cells, must fit AUT_BUDGET (else BudgetError
    before anything is built); it runs in blocks of _AUT_BLOCK cells.
    """
    if "automorphisms" in g.caches:
        return g.caches["automorphisms"]
    gens = g.generator_indices() or [0]
    orders = g.orders
    sizes = np.array([c.size for c in conjugacy_classes(g)])[class_of(g, np.arange(g.order))]
    cands = [np.flatnonzero((orders == orders[s]) & (sizes == sizes[s])) for s in gens]
    cells = math.prod(len(c) for c in cands) * g.order
    if cells > AUT_BUDGET:
        raise BudgetError(f"{cells} cells of candidate automorphisms exceed "
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
    array, cached on g: phi c_h has phi's generator images conjugated by phi(h).
    The generators are Group.generator_indices, as in `automorphisms`: an
    automorphism is fixed by its images on any generating set, so the
    cosets and their order do not depend on which.
    The first entry is always the identity: the rows of `automorphisms`
    ascend and arange is the least permutation row.

    Past the budget of `automorphisms` the theorem Aut S_n = Inn S_n
    (n != 6) answers with the identity alone a group of degree n and order
    n!, which is Sym(n) whatever its name; any other group is refused with
    the BudgetError."""
    if "outer" not in g.caches:
        try:
            auts = automorphisms(g)
        except BudgetError:
            if g.degree == 6 or g.order != math.factorial(g.degree):
                raise
            auts = np.arange(g.order)[None, :]
        gens = g.generator_indices()
        reps, seen = [], set()
        for images in auts:
            if tuple(images[gens].tolist()) not in seen:
                reps.append(images)
                conj = np.stack([g.conjugates(x) for x in images[gens]], axis=1)
                seen.update(map(tuple, conj.tolist()))
        g.caches["outer"] = reps
    return g.caches["outer"]


def inner_only(g: Group) -> bool:
    """Whether Aut G = Inn G: one coset in outer_representatives."""
    return len(outer_representatives(g)) == 1


def _sym_gens(n: int) -> np.ndarray:
    # (0 1) and the n-cycle; the one generator of S1 and S2 is the n-cycle
    cycle = (np.arange(n) + 1) % n
    swap = np.concatenate(([1, 0], np.arange(2, n)))
    return cycle[None] if n <= 2 else np.array([swap, cycle])


def _alt_gens(n: int) -> np.ndarray:
    # the 3-cycles (i i+1 i+2); the identity for n <= 2
    rows = np.arange(n)[None].repeat(max(n - 2, 1), axis=0)
    i = np.arange(n - 2)[:, None]
    rows[i, i + [0, 1, 2]] = i + [1, 2, 0]
    return rows


def _cyc_gens(n: int) -> np.ndarray:
    return (np.arange(n)[None] + 1) % n


def _dih_gens(n: int) -> np.ndarray:
    # dihedral group of the n-gon, order 2n ("D4" = order 8): i -> i+1, i -> -i
    if n < 3:
        raise InputError("dihedral groups need n >= 3")
    return np.array([(np.arange(n) + 1) % n, -np.arange(n) % n])


def _q8_gens() -> np.ndarray:
    # left-regular action on {1,-1,i,-i,j,-j,k,-k}
    return np.array([[2, 3, 1, 0, 6, 7, 5, 4], [4, 5, 7, 6, 1, 0, 2, 3]])


_NAME_RE = re.compile(r"^([A-Za-z]+)(\d+)$")
_NAMED = {"S": _sym_gens, "A": _alt_gens, "C": _cyc_gens, "Z": _cyc_gens,
          "D": _dih_gens}
# how many generator rows each builder of _NAMED makes for degree n
_NAMED_ROWS = {"S": lambda n: 1 if n <= 2 else 2, "A": lambda n: max(n - 2, 1),
               "C": lambda n: 1, "Z": lambda n: 1, "D": lambda n: 2}


def _named_factor(token: str) -> tuple[str, int, int, Callable[[], np.ndarray]]:
    """The name, degree, generator row count and generator builder of a
    named group: degree n for S_n, A_n, C_n (alias Z_n) and D_n, and 8 for
    Q8."""
    token = token.strip()
    if token.upper() == "Q8":
        return "Q8", 8, 2, _q8_gens
    m = _NAME_RE.match(token)
    if not m:
        raise InputError(f"unknown group name {token!r}")
    kind, n = m.group(1).upper(), int(m.group(2))
    if n < 1:
        raise InputError(f"bad group size in {token!r}")
    if kind not in _NAMED:
        raise InputError(f"unknown group name {token!r}")
    name = ("C" if kind == "Z" else kind) + str(n)
    return name, n, _NAMED_ROWS[kind](n), partial(_NAMED[kind], n)


def parse_group(spec: str) -> Group:
    """Build a group from a spec string.

    Grammar: NAME ("S3", "A4", "D4" = dihedral of order 8, "C6", "Q8"),
    a generator list "perm:(0 1 2)(3 4);(0 1)" in 0-based cycle notation,
    or a direct product "A x B" of named groups acting on disjoint points.
    The generator rows, their count times the degree, are checked against
    ROW_CELLS_CAP before any of them is built.
    """
    if not isinstance(spec, str):
        raise InputError(f"group spec must be a string, not {type(spec).__name__}")
    if not spec.strip():
        raise InputError("empty group spec")
    spec = spec.strip()
    if spec.startswith("perm:"):
        body = spec[len("perm:"):]
        parts = [p for p in body.split(";") if p.strip()]
        if not parts:
            raise InputError("empty generator list")
        degree = max(map(int, re.findall(r"\d+", body)), default=0) + 1
        _check_row_cells(len(parts), degree)
        gens = np.array([parse_cycle_string(p, degree) for p in parts])
        return _generated(degree, gens, spec=spec)
    tokens = re.split(r"\s*[xX]\s*(?![^()]*\))", spec)
    if not all(tokens):
        raise InputError(f"empty factor in group spec {spec!r}")
    factors = [_named_factor(t) for t in tokens]
    degree = sum(f[1] for f in factors)
    _check_row_cells(sum(f[2] for f in factors), degree)
    # each factor's rows act on its own block of points, the rest fixed
    blocks, offset = [], 0
    for _, n, _, build in factors:
        own = build()
        rows = np.arange(degree)[None].repeat(len(own), axis=0)
        rows[:, offset:offset + n] = own + offset
        blocks.append(rows)
        offset += n
    gens = np.concatenate(blocks)
    name = factors[0][0] if len(tokens) == 1 else "x".join(t.strip() for t in tokens)
    return _generated(degree, gens, name=name, spec=spec)
