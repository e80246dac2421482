"""Truncated graded Hopf algebra on the paths of a Hopf quiver, and the
graded dimensions of the type-one Hopf algebra via the biproduct identity.

Basis: paths of length <= N, the degree-n ones spanning kG (x) V^(x)n with
V the apv arrows out of the identity.  A path is the int tuple (start
vertex, l_1, ..., l_n), its i-th arrow being number x_{i-1} * apv + l_i
with x_{i-1} the vertex it leaves; (x,) is the vertex x, and each degree
is listed in lexicographic order.  The product of basis paths p, q is the
normal form of their tensor over the group algebra,

    p * q = concat( p . t(q) , s(p) . q )
          = (s(p) s(q), word(q) ++ A_{t(q)}^(x)m word(p)),

with m = deg p and A_h the right action of h on V, applied letterwise;
this is the module action when either path is a vertex.
This two-sided rule is forced by associativity (the source-translated
factors generate a free subalgebra and vertices act by the smash relation
x v x^-1 = x |> v); it reduces to a plain right shift whenever s(p) = 1.

The rule runs on integer codes: the degree-n path (x, l_1, ..., l_n) is
code x apv^n + sum_i l_i apv^(n-i), its index in that degree's basis.
Two tables hold everything it needs.  `target[n]` is the target vertex of
every degree-n code.  `action_table(m)`, T[m], holds for every vertex h
and word w of length m the k^m (code, coefficient) terms of A_h^(x)m w,
zero-padded, k being the largest number of nonzeros in a column of any
right action: |G| apv^m k^m cells, built on first use.  A batch of
products is then gathers: the vertex s(p) s(q), word(q) as the prefix and
T[m][t(q), word(p)] as the suffixes.  `product_basis` is the one-pair view
of the same gathers.

The coproduct is the multiplicative extension of Delta(x) = x (x) x on
vertices and Delta(a) = t(a) (x) a + a (x) s(a) on arrows; arrows out of
the identity vertex are therefore (1,y)-skew-primitive.  The antipode is
computed by the graded convolution recursion and cached.

Graded dimensions of the type-one algebra are |G| times the Nichols
dimensions of the coinvariant module; the cotensor coalgebra itself is
never materialized.
"""

from __future__ import annotations

import copy
import itertools
import random
from typing import Optional

import numpy as np

from .bimodule import (HopfBimodule, Report, build_bimodule, cases, check, check_all,
                       combine)
from .groups import BudgetError, InputError
from .rsr import RSR
from .yd import nichols_dims, yd_from_rsr

# basis keys: (start vertex, l_1, ..., l_n), the path whose i-th arrow is
# local arrow l_i at the end of the first i - 1; (x,) is the vertex x
PathKey = tuple[int, ...]
Element = dict  # PathKey -> coefficient mod p

# paths of degree <= N, sum_n |G| apv^n: 131,072 is 2.6 times the largest
# basis in use (S5 "(0 1):2" at degree 2, 50,520 paths)
PATH_CAP = 1 << 17
# cells of one chunk of right actions read into T[1]
STACK_CELLS = 1 << 18
# the batched checks take at most CHUNK cases at once, and fewer when
# their terms would pass about TERMS
CHUNK = 1 << 16
TERMS = 1 << 20


class TruncationError(RuntimeError):
    """A product escaped the degree-N truncation."""


def path_degree(key: PathKey) -> int:
    return len(key) - 1


def _padded(run: np.ndarray, size: int, *values: np.ndarray) -> list[np.ndarray]:
    """Each of values, listed by ascending run, as a (size, width) array:
    row r holds the entries of run r in order, then zeros, width being the
    longest run."""
    at = np.arange(len(run)) - np.searchsorted(run, run)
    out = []
    for v in values:
        out.append(np.zeros((size, int(at.max(initial=-1)) + 1), dtype=np.int64))
        out[-1][run, at] = v
    return out


class TruncatedHopf:
    """Degree-capped tensor Hopf algebra of the arrow bimodule of an RSR."""

    def __init__(self, rsr: RSR, max_deg: int,
                 bim: Optional[HopfBimodule] = None):
        if max_deg < 0:
            raise InputError("max_deg must be non-negative")
        self.rsr = rsr
        self.group = rsr.group
        self.p = rsr.field.p
        self.max_deg = max_deg
        self.bim = bim if bim is not None else build_bimodule(rsr)
        order, apv = self.group.order, self.bim.apv
        paths = sum(order * apv ** n for n in range(max_deg + 1))
        if paths > PATH_CAP:
            raise BudgetError(f"{paths} paths up to degree {max_deg} exceed "
                              f"the cap of {PATH_CAP}")
        # lexicographic in (vertex, word), the order of the arrow numbers
        self.basis_by_degree: list[list[PathKey]] = [
            list(itertools.product(range(order), *[range(apv)] * n))
            for n in range(max_deg + 1)]
        self._elem = self.bim.elem.tolist()
        # target[n][code]: the vertex where the degree-n path ends
        self.target = [np.arange(order)]
        for _ in range(max_deg):
            self.target.append(self.group.products(
                self.target[-1][:, None], self.bim.elem[None, :]).ravel())
        self._tables: list[tuple[np.ndarray, np.ndarray]] = []
        # Delta(e, w) per word w, built by coproduct's prefix recursion
        self._word_cop: dict[tuple[int, ...], dict] = {(): {((0,), (0,)): 1}}
        self._cop_tables: dict[int, list[np.ndarray]] = {}
        self._antipode_cache: dict[PathKey, Element] = {}

    # -- elements -------------------------------------------------------------

    def dim(self, n: int) -> int:
        return len(self.basis_by_degree[n])

    def code(self, key: PathKey) -> int:
        """The index of a path in its degree's basis."""
        code = key[0]
        for l in key[1:]:
            code = code * self.bim.apv + l
        return code

    def vertices(self, key: PathKey) -> list[int]:
        """The vertices a path passes, from its start to its target."""
        return list(itertools.accumulate((self._elem[l] for l in key[1:]),
                                         self.group.mul, initial=key[0]))

    def action_table(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """T[m]: the codes and the coefficients, each (|G|, apv^m, k^m), of
        the terms of A_h^(x)m w for every vertex h and word w of length m,
        padded with zero coefficients at code 0.  T[1] reads the nonzeros of
        the right actions, a chunk of h at a time; T[m] expands T[m - 1] by
        T[1], the last letter's terms innermost."""
        while len(self._tables) <= m:
            n = len(self._tables)
            if n == 0:
                shape = (self.group.order, 1, 1)
                self._tables.append((np.zeros(shape, dtype=np.int64),
                                     np.ones(shape, dtype=np.int64)))
            elif n == 1:
                self._tables.append(self._right_table())
            else:
                (code, coef), (code1, coef1) = self._tables[-1], self._tables[1]
                shape = (self.group.order, self.bim.apv ** n, -1)
                self._tables.append((
                    (code[:, :, None, :, None] * self.bim.apv +
                     code1[:, None, :, None, :]).reshape(shape),
                    (coef[:, :, None, :, None] * coef1[:, None, :, None, :]
                     % self.p).reshape(shape)))
        return self._tables[m]

    def _right_table(self) -> tuple[np.ndarray, np.ndarray]:
        order, apv = self.group.order, self.bim.apv
        rows = max(1, STACK_CELLS // max(1, apv * apv))
        found = []
        for lo in range(0, order, rows):
            # entry [h, l, l'] is the coefficient of l' in l . h
            hs = np.arange(lo, min(lo + rows, order))
            cols = self.bim.right_stack(hs).transpose(0, 2, 1)
            h, l, image = np.nonzero(cols)
            found.append(((lo + h) * apv + l, image, cols[h, l, image]))
        run, image, coef = map(np.concatenate, zip(*found))
        return tuple(a.reshape(order, apv, a.shape[-1])
                     for a in _padded(run, order * apv, image, coef))

    def products(self, m: int, n: int, pc, qc) -> tuple[np.ndarray, np.ndarray]:
        """p * q = (s(p) s(q), word(q) ++ A_{t(q)}^(x)m word(p)) for the
        degree-m codes pc and degree-n codes qc, two broadcastable arrays:
        the degree-(m + n) codes and coefficients of the k^m terms of each
        product on a new last axis, zero coefficients included."""
        am, an = self.bim.apv ** m, self.bim.apv ** n
        code, coef = self.action_table(m)
        sp, wp = divmod(pc, am)
        sq, wq = divmod(qc, an)
        t = self.target[n][qc]
        head = (self.group.products(sp, sq) * an + wq) * am
        return head[..., None] + code[t, wp], coef[t, wp]

    def product_basis(self, pk: PathKey, qk: PathKey) -> Element:
        """p * q on two basis paths, from `products` on their codes."""
        m, n = path_degree(pk), path_degree(qk)
        if m + n > self.max_deg:
            raise TruncationError(
                f"product of degrees {m}+{n} exceeds truncation {self.max_deg}")
        codes, coefs = self.products(m, n, self.code(pk), self.code(qk))
        keys = self.basis_by_degree[m + n]
        # the nonzero terms have distinct codes: only the padding drops out
        return {keys[c]: w for c, w in zip(codes.tolist(), coefs.tolist()) if w}

    def multiply(self, e1: Element, e2: Element) -> Element:
        return combine(((k, c1 * c2 * c) for k1, c1 in e1.items()
                        for k2, c2 in e2.items()
                        for k, c in self.product_basis(k1, k2).items()), self.p)

    # -- coalgebra --------------------------------------------------------------

    def _tensor_mul(self, t1: dict, t2: dict) -> dict:
        return combine((((ka, kb), c1 * c2 * ca * cb)
                        for (a1, b1), c1 in t1.items() for (a2, b2), c2 in t2.items()
                        for (ka, ca), (kb, cb) in itertools.product(
                            self.product_basis(a1, a2).items(),
                            self.product_basis(b1, b2).items())), self.p)

    def coproduct(self, key: PathKey) -> dict:
        """Delta on a basis path, as a dict {(left_key, right_key): coeff}.

        Translation lemma: the product rule gives (x, w) = x * (e, w), and
        Delta(x) = x (x) x, so Delta(x, w) is Delta(e, w) with both tensor
        factors left-translated by x, (y, u) -> (x y, u).  Delta(e, w) is
        built once per word by the prefix recursion Delta(e, w l) =
        Delta(F) Delta(e, w), where (e, w l) = F * (e, w) for F = l . t^-1
        with t = t(e, w), a combination of arrows v out of the identity,
        each with Delta(v) = t(v) (x) v + v (x) 1.
        """
        x, cop = key[0], self._coproduct_at_e(key[1:])
        mul = self.group.mul
        return {((mul(x, a[0]),) + a[1:], (mul(x, b[0]),) + b[1:]): c
                for (a, b), c in cop.items()}

    def _coproduct_at_e(self, word: tuple[int, ...]) -> dict:
        if word not in self._word_cop:
            t = self.vertices((0,) + word[:-1])[-1]
            factor = {}
            # l . t^-1 = sum_v c (t^-1, v); F is sum_v c (e, v)
            arrow = self.product_basis((0, word[-1]), (self.group.inv(t),))
            for (_, v), c in arrow.items():
                factor[((self._elem[v],), (0, v))] = c
                factor[((0, v), (0,))] = c
            self._word_cop[word] = self._tensor_mul(
                factor, self._coproduct_at_e(word[:-1]))
        return self._word_cop[word]

    def coproduct_terms(self, n: int, i: int, codes) -> tuple[np.ndarray, ...]:
        """Delta of the degree-n paths in codes, restricted to the terms
        whose left factor has degree i: the left codes, right codes (degree
        n - i) and coefficients on a new last axis, padded with zero
        coefficients.  Delta(e, w) is read into arrays once per degree and
        translated to (x, w) by the group table."""
        left, right, coef = self.coproduct_table(n)[i][:, codes % self.bim.apv ** n]
        x = (codes // self.bim.apv ** n)[..., None]
        return (self._translate(x, left, i), self._translate(x, right, n - i), coef)

    def coproduct_table(self, n: int) -> list[np.ndarray]:
        """Per left degree i, Delta(e, w) for every word w of length n as one
        (3, apv^n, width) array: left codes, right codes and coefficients."""
        apv = self.bim.apv
        if n not in self._cop_tables:
            terms = [[] for _ in range(n + 1)]
            for w, key in enumerate(self.basis_by_degree[n][:apv ** n]):
                for (a, b), c in self._coproduct_at_e(key[1:]).items():
                    terms[path_degree(a)].append((w, self.code(a), self.code(b), c))
            rows = [np.array(t, dtype=np.int64).reshape(-1, 4) for t in terms]
            self._cop_tables[n] = [np.stack(_padded(r[:, 0], apv ** n, *r[:, 1:].T))
                                   for r in rows]
        return self._cop_tables[n]

    def _translate(self, x, codes, n: int) -> np.ndarray:
        """The degree-n codes moved from start y to start x y."""
        y, w = divmod(codes, self.bim.apv ** n)
        return self.group.products(x, y) * self.bim.apv ** n + w

    def antipode(self, key: PathKey) -> Element:
        """S on a basis path via the convolution recursion S * id = unit . counit."""
        g = self.group
        if len(key) == 1:
            return {(g.inv(key[0]),): 1}
        if key in self._antipode_cache:
            return dict(self._antipode_cache[key])
        n = len(key) - 1
        # S(p) * x0 = -(the other terms), the single top term being S(p) * x0
        rest = combine(((k, -c * cv) for (k1, k2), c in self.coproduct(key).items()
                        if path_degree(k1) != n
                        for k, cv in self.multiply(self.antipode(k1), {k2: 1}).items()),
                       self.p)
        out = self.multiply(rest, {(g.inv(key[0]),): 1})
        self._antipode_cache[key] = out
        return dict(out)


def path_key_json(key: PathKey, h: "TruncatedHopf") -> dict:
    g = h.group
    if len(key) == 1:
        return {"vertex": g.element_name(key[0])}
    apv = h.bim.apv
    arrows = [h.bim.quiver.arrow(x * apv + l) for x, l in zip(h.vertices(key), key[1:])]
    return {"start": g.element_name(key[0]),
            "arrows": [{"y": g.element_name(a.y), "class": a.cls,
                        "slot": a.slot, "j": a.j} for a in arrows]}


def structure_json(h: TruncatedHopf) -> dict:
    """Structure constants per degree pair, for diffing across builds."""
    doc = {"prime": h.p, "max_degree": h.max_deg,
           "dims": [h.dim(n) for n in range(h.max_deg + 1)], "products": []}
    for m in range(h.max_deg + 1):
        for n in range(h.max_deg + 1 - m):
            for pk in h.basis_by_degree[m]:
                for qk in h.basis_by_degree[n]:
                    terms = [{"path": path_key_json(k, h), "coeff": c}
                             for k, c in sorted(h.product_basis(pk, qk).items())]
                    doc["products"].append({
                        "left": path_key_json(pk, h),
                        "right": path_key_json(qk, h),
                        "terms": terms,
                    })
    return doc


def tensor_hopf(rsr: RSR, max_deg: int) -> TruncatedHopf:
    return TruncatedHopf(rsr, max_deg)


def _agree(p: int, bound: int, ncases: int, lhs: list, rhs: list) -> np.ndarray:
    """Per case, whether two sides agree as F_p-combinations.  A side is a
    list of (keys, coefficients) arrays, keys below bound, their first axis
    the case; they agree when the canonical form of lhs - rhs (sorted by
    (case, key), summed mod p, zeros dropped) has no term in the case."""
    terms = [(np.arange(ncases).reshape((-1,) + (1,) * (k.ndim - 1)) * bound + k,
              sign * c) for side, sign in ((lhs, 1), (rhs, -1)) for k, c in side]
    keys = np.concatenate([k.ravel() for k, _ in terms])
    coefs = np.concatenate([np.broadcast_to(c, k.shape).ravel() for k, c in terms])
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    left = np.add.reduceat(coefs[order], first) % p != 0
    ok = np.ones(ncases, dtype=bool)
    ok[keys[first[left]] // bound] = False
    return ok


def associative(h: TruncatedHopf, degrees: tuple[int, ...], a, b, c) -> np.ndarray:
    """Per case, (a b) c = a (b c) for the codes a, b, c of the given
    degrees, three equal-length arrays."""
    d1, d2, d3 = degrees
    ab, w1 = h.products(d1, d2, a, b)
    lhs, w2 = h.products(d1 + d2, d3, ab, c[:, None])
    bc, v1 = h.products(d2, d3, b, c)
    rhs, v2 = h.products(d1, d2 + d3, a[:, None], bc)
    return _agree(h.p, h.dim(d1 + d2 + d3), len(a), [(lhs, w1[..., None] * w2 % h.p)],
                  [(rhs, v1[..., None] * v2 % h.p)])


def multiplicative(h: TruncatedHopf, degrees: tuple[int, ...], a, b) -> np.ndarray:
    """Per case, Delta(a b) = Delta(a) Delta(b) for the codes a, b of the
    given degrees.  A tensor of degree-i and degree-(d - i) codes u, v is
    the key off[i] + u dim_{d-i} + v.  Delta(a b) is sum c Delta(term) over
    the terms of a b; Delta(a) Delta(b) multiplies the left and the right
    factors of every pair of terms, one degree pair (i, j) at a time."""
    m, n = degrees
    d, p = m + n, h.p
    off = list(itertools.accumulate((h.dim(i) * h.dim(d - i) for i in range(d + 1)),
                                    initial=0))
    ab, w = h.products(m, n, a, b)
    lhs = []
    for i in range(d + 1):
        u, v, c = h.coproduct_terms(d, i, ab)
        lhs.append((off[i] + u * h.dim(d - i) + v, w[..., None] * c % p))
    rhs = []
    terms_a = [h.coproduct_terms(m, i, a) for i in range(m + 1)]
    terms_b = [h.coproduct_terms(n, j, b) for j in range(n + 1)]
    for (i, (ua, va, ca)), (j, (ub, vb, cb)) in itertools.product(enumerate(terms_a),
                                                                  enumerate(terms_b)):
        left, wl = h.products(i, j, ua[:, :, None], ub[:, None, :])
        right, wr = h.products(m - i, n - j, va[:, :, None], vb[:, None, :])
        rhs.append((off[i + j] + left[..., :, None] * h.dim(d - i - j) +
                    right[..., None, :],
                    (ca[:, :, None] * cb[:, None, :] % p)[..., None, None] *
                    (wl[..., :, None] * wr[..., None, :] % p) % p))
    return _agree(p, off[-1], len(a), lhs, rhs)


def verify_hopf(h: TruncatedHopf, seed: int = 0, samples: int = 300,
                exhaustive: Optional[bool] = None) -> Report:
    """Check Hopf axioms on basis elements within the truncation degree.

    Associativity runs on triples and Delta-is-an-algebra-map on pairs of
    basis paths of total degree <= N.  Both come from one list of degree
    compositions (d_1, ..., d_k) with sum <= N: exhaustive mode (the
    default when the basis has at most 100 paths) takes every tuple of
    each composition; sampled mode draws `samples` tuples, each by picking
    a composition with probability proportional to its tuple count
    prod dim_{d_i} and then one uniform path per degree, which is the
    uniform law on all tuples of total degree <= N.  Both run batched, one
    degree composition of a chunk of cases at a time, on the path codes:
    associativity compares (p q) r with p (q r) by `products`, and the
    algebra map compares sum c Delta(term) over the terms of p q with the
    products of the left and of the right factors of Delta(p) Delta(q),
    Delta(e, w) being read from `coproduct_table`.  Counts, outcomes and
    witnesses are those of `check` on the same cases.  The remaining checks
    cover every path in either mode: unit, coassociativity and counit all
    basis paths, and the antipode convolution identity all paths of degree
    <= N-1.  Unit, coassociativity and counit run on the paths at e, each
    counted for its |G| translates: each holds at (x, w) exactly when it
    holds at (e, w).  For the unit, the product rule gives e . (x, w) and
    (x, w) . e as e . (e, w) and (e, w) . e with the start vertex moved to
    x; for the others, the translation lemma of `TruncatedHopf.coproduct`,
    translation by x being injective on tensors.
    """
    p = h.p
    n_basis = sum(h.dim(n) for n in range(h.max_deg + 1))
    if exhaustive is None:
        exhaustive = n_basis <= 100
    report = Report(mode="exhaustive" if exhaustive else f"sampled({samples})")
    rng = None if exhaustive else random.Random(f"hopf:{seed}")

    at_e = [k for n in range(h.max_deg + 1)
            for k in h.basis_by_degree[n][:h.bim.apv ** n]]
    # the global index of each degree's code 0, and the end of the basis
    offset = np.cumsum([0] + [h.dim(n) for n in range(h.max_deg + 1)])

    def batched(name: str, arity: int, terms: int, test) -> None:
        """check_all of test over the tuples of paths of total degree <= N,
        a chunk at a time, each chunk split by degree composition.  A path
        is drawn as its global index: degree d's codes follow those of the
        degrees below, and `cases` picks from range objects exactly as from
        the lists of their length.  The draws run on a copy of rng, which
        then moves on as far as `check` would move it: through the first
        failing case."""
        comps = [c for c in itertools.product(range(h.max_deg + 1), repeat=arity)
                 if sum(c) <= h.max_deg]
        spaces = [tuple(range(offset[d], offset[d + 1]) for d in c) for c in comps]
        draw = copy.copy(rng)
        stream = cases(spaces, samples, draw)
        size = max(1, min(CHUNK, TERMS // terms))
        oks, done = [], 0
        while len(chunk := np.fromiter(itertools.islice(stream, size),
                                       dtype=np.dtype((np.int64, arity)))):
            deg = np.searchsorted(offset, chunk, side="right") - 1
            comp = np.ravel_multi_index(deg.T, (h.max_deg + 1,) * arity)
            ok = np.ones(len(chunk), dtype=bool)
            for c in np.flatnonzero(np.bincount(comp)):
                at = np.flatnonzero(comp == c)
                ok[at] = test(h, tuple(deg[at[0]].tolist()),
                              *(chunk[at] - offset[deg[at]]).T)
            oks.append(ok)
            if not ok.all():
                break
            done += len(chunk)
        ok = np.concatenate(oks) if oks else np.ones(0, dtype=bool)

        def witness(i: int) -> str:
            paths = list(itertools.chain(*h.basis_by_degree))
            return str(tuple(paths[j] for j in chunk[i - done]))

        check_all(report, name, ok, witness)
        if rng is not None:
            if ok.all():
                rng.setstate(draw.getstate())
            else:
                drawn = int(np.argmin(ok)) + 1
                for _ in itertools.islice(cases(spaces, samples, rng), drawn):
                    pass

    # terms per case are at most about k^2N for associativity
    kmax = max(1, h.action_table(1)[1].shape[-1]) if h.max_deg else 1
    batched("associativity", 3, kmax ** (2 * h.max_deg) + kmax ** h.max_deg, associative)
    check(report, "unit", at_e,
          lambda k: h.product_basis((0,), k) == {k: 1} == h.product_basis(k, (0,)),
          weight=h.group.order)

    # every tensor factor of a coproduct is itself a basis path
    cop = h.coproduct

    def coassociative(k) -> bool:
        return (combine((((a1, a2, b), c * c2) for (a, b), c in cop(k).items()
                         for (a1, a2), c2 in cop(a).items()), p) ==
                combine((((a, b1, b2), c * c2) for (a, b), c in cop(k).items()
                         for (b1, b2), c2 in cop(b).items()), p))

    def counital(k) -> bool:
        return (combine(((b, c) for (a, b), c in cop(k).items()
                         if len(a) == 1), p) == {k: 1} ==
                combine(((a, c) for (a, b), c in cop(k).items()
                         if len(b) == 1), p))

    check(report, "coassociativity", at_e, coassociative, weight=h.group.order)
    check(report, "counit", at_e, counital, weight=h.group.order)

    width = max(sum(t.shape[-1] for t in h.coproduct_table(n))
                for n in range(h.max_deg + 1))
    batched("coproduct-algebra-map", 2, (width * width + width) * kmax ** h.max_deg,
            multiplicative)

    def antipodal(k) -> bool:
        return combine(((t, c * c2) for (a, b), c in cop(k).items()
                        for t, c2 in h.multiply(h.antipode(a), {b: 1}).items()),
                       p) == ({(0,): 1} if len(k) == 1 else {})

    check(report, "antipode",
          (k for n in range(h.max_deg) for k in h.basis_by_degree[n]), antipodal)
    return report


def skew_primitive_report(h: TruncatedHopf) -> Report:
    """Arrows out of the identity vertex must satisfy
    Delta(a) = y (x) a + a (x) 1."""
    report = Report(mode="exhaustive")
    check(report, "skew-primitivity",
          (key for key in (h.basis_by_degree[1] if h.max_deg >= 1 else [])
           if key[0] == 0),
          lambda key: h.coproduct(key) == {((h.vertices(key)[1],), key): 1,
                                           (key, (0,)): 1})
    return report


def type_one_dims(rsr: RSR, max_deg: int) -> list[int]:
    """Graded dimensions of the type-one Hopf algebra: |G| times the Nichols
    dimensions of the coinvariant module (the biproduct identity)."""
    base = nichols_dims(yd_from_rsr(rsr), max_deg)
    return [rsr.group.order * b for b in base]
