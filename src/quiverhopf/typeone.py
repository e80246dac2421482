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

Elements are integer codes: the degree-n path (x, l_1, ..., l_n) is code
x apv^n + sum_i l_i apv^(n-i), its index in that degree's basis, and
PathKeys appear only in witnesses and JSON.  Two tables hold the product.
`target[n]` is the target vertex of every degree-n code.
`action_table(m)`, T[m], holds for every vertex h and word w of length m
the k^m (code, coefficient) terms of A_h^(x)m w, zero-padded, k being the
largest number of nonzeros in a column of any right action: |G| apv^m k^m
cells, built on first use, T[1] from the bimodule's `right_terms`.  A
batch of products is then gathers: the vertex s(p) s(q), word(q) as the
prefix and T[m][t(q), word(p)] as the suffixes.  `product_basis` is the
one-pair view of the same gathers.

The coproduct is the multiplicative extension of Delta(x) = x (x) x on
vertices and Delta(a) = t(a) (x) a + a (x) s(a) on arrows; arrows out of
the identity vertex are therefore (1,y)-skew-primitive.  Delta(e, w) and
the antipode S(e, w) are tables over the words w at the identity, built
degree by degree; (x, w) = x * (e, w) reads both at x by the group table.

`verify_hopf` samples tuples of paths as uniform indices into the list of
all of them, one random stream per check.

Graded dimensions of the type-one algebra are |G| times the Nichols
dimensions of the coinvariant module; the cotensor coalgebra itself is
never materialized.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Optional

import numpy as np

from .bimodule import Report, build_bimodule, check_all
from .groups import BudgetError, InputError
from .rsr import RSR
from .yd import nichols_dims, yd_from_rsr

# basis keys: (start vertex, l_1, ..., l_n), the path whose i-th arrow is
# local arrow l_i at the end of the first i - 1; (x,) is the vertex x
PathKey = tuple[int, ...]

# paths of degree <= N, sum_n |G| apv^n: 131,072 is 2.6 times the largest
# basis in use (S5 "(0 1):2" at degree 2, 50,520 paths)
PATH_CAP = 1 << 17
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


def _canonical(p: int, bound: int, terms: list) -> tuple[np.ndarray, ...]:
    """The F_p-combination per case of terms, a list of (keys, coefficients)
    arrays, keys below bound, their first axis the case: the cases, keys
    and coefficients of its nonzero terms, sorted by (case, key)."""
    keys = np.concatenate([
        (np.arange(len(k)).reshape((-1,) + (1,) * (k.ndim - 1)) * bound + k).ravel()
        for k, _ in terms])
    coefs = np.concatenate([np.broadcast_to(c, k.shape).ravel() for k, c in terms])
    order = np.argsort(keys)
    keys = keys[order]
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    sums = np.add.reduceat(coefs[order], first) % p
    nonzero = sums != 0
    return (*np.divmod(keys[first[nonzero]], bound), sums[nonzero])


def _agree(p: int, bound: int, ncases: int, lhs: list, rhs: list) -> np.ndarray:
    """Per case, whether two sides, lists of terms as `_canonical` takes
    them, agree as F_p-combinations: lhs - rhs has no term in the case."""
    ok = np.ones(ncases, dtype=bool)
    ok[_canonical(p, bound, lhs + [(k, -c) for k, c in rhs])[0]] = False
    return ok


class TruncatedHopf:
    """Degree-capped tensor Hopf algebra of the arrow bimodule of an RSR."""

    def __init__(self, rsr: RSR, max_deg: int):
        if max_deg < 0:
            raise InputError("max_deg must be non-negative")
        self.rsr = rsr
        self.group = rsr.group
        self.p = rsr.field.p
        self.max_deg = max_deg
        self.bim = build_bimodule(rsr)
        paths = sum(self.dim(n) for n in range(max_deg + 1))
        if paths > PATH_CAP:
            raise BudgetError(f"{paths} paths up to degree {max_deg} exceed "
                              f"the cap of {PATH_CAP}")
        # target[n][code]: the vertex where the degree-n path ends
        self.target = [np.arange(self.group.order)]
        for _ in range(max_deg):
            self.target.append(self.group.products(
                self.target[-1][:, None], self.bim.elem[None, :]).ravel())
        # tables known outright: T[0] fixes the empty word, S(e) = e,
        # Delta(e) = e (x) e and Delta(e, l) = t(l) (x) (e, l) + (e, l) (x) e
        one = np.ones((self.group.order, 1, 1), dtype=np.int64)
        self._tables = [(0 * one, one)]
        l = np.arange(self.bim.apv)[:, None]
        self._cop_tables = [[np.stack([0 * one[0], 0 * one[0], one[0]])],
                            [np.stack([self.bim.elem[l], l, np.ones_like(l)]),
                             np.stack([l, 0 * l, np.ones_like(l)])]]
        self._antipode_tables = [(0 * one[0], one[0].copy())]

    # -- elements -------------------------------------------------------------

    def dim(self, n: int) -> int:
        return self.group.order * self.bim.apv ** n

    def code(self, key: PathKey) -> int:
        """The index of a path in its degree's basis."""
        shape = (self.group.order,) + (self.bim.apv,) * path_degree(key)
        return int(np.ravel_multi_index(key, shape))

    def key(self, n: int, code: int) -> PathKey:
        """The degree-n path with the given code: the inverse of `code`."""
        shape = (self.group.order,) + (self.bim.apv,) * n
        return tuple(map(int, np.unravel_index(code, shape)))

    def action_table(self, m: int) -> tuple[np.ndarray, np.ndarray]:
        """T[m]: the codes and the coefficients, each (|G|, apv^m, k^m), of
        the terms of A_h^(x)m w for every vertex h and word w of length m,
        padded with zero coefficients at code 0.  T[1] pads the nonzeros of
        the right actions, `HopfBimodule.right_terms` of every h; T[m]
        expands T[m - 1] by T[1], the last letter's terms innermost."""
        while len(self._tables) <= m:
            n = len(self._tables)
            if n == 1:
                self._tables.append(self._right_table())
            else:
                (code, coef), (code1, coef1) = self._tables[-1], self._tables[1]
                shape = (self.group.order, self.bim.apv ** n,
                         code.shape[-1] * code1.shape[-1])
                self._tables.append((
                    (code[:, :, None, :, None] * self.bim.apv +
                     code1[:, None, :, None, :]).reshape(shape),
                    (coef[:, :, None, :, None] * coef1[:, None, :, None, :]
                     % self.p).reshape(shape)))
        return self._tables[m]

    def _right_table(self) -> tuple[np.ndarray, np.ndarray]:
        order, apv = self.group.order, self.bim.apv
        h, l, image, coef = self.bim.right_terms(np.arange(order))
        return tuple(a.reshape(order, apv, a.shape[-1])
                     for a in _padded(h * apv + l, order * apv, image, coef))

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

    def product_basis(self, pk: PathKey, qk: PathKey) -> dict:
        """p * q on two basis paths, from `products` on their codes."""
        m, n = path_degree(pk), path_degree(qk)
        if m + n > self.max_deg:
            raise TruncationError(
                f"product of degrees {m}+{n} exceeds truncation {self.max_deg}")
        codes, coefs = self.products(m, n, self.code(pk), self.code(qk))
        # the nonzero terms have distinct codes: only the padding drops out
        return {self.key(m + n, c): w for c, w in zip(codes.tolist(), coefs.tolist()) if w}

    def tensor_products(self, m: int, n: int, ta: list, tb: list) -> list[tuple]:
        """(a (x) b)(a' (x) b') = a a' (x) b b' on tensors of degrees m and n,
        each a list over its left degree i of the (left codes, right codes,
        coefficients) of its terms, (cases, terms) arrays: per pair (i, j)
        of left degrees, (i + j, keys, coefficients), a tensor u (x) v of
        left degree d being the key u dim_{m+n-d} + v."""
        p, out = self.p, []
        for (i, (ua, va, ca)), (j, (ub, vb, cb)) in itertools.product(enumerate(ta),
                                                                      enumerate(tb)):
            left, wl = self.products(i, j, ua[:, :, None], ub[:, None, :])
            right, wr = self.products(m - i, n - j, va[:, :, None], vb[:, None, :])
            key = left[..., :, None] * self.dim(m + n - i - j) + right[..., None, :]
            out.append((i + j, key, (ca[:, :, None] * cb[:, None, :] % p)[..., None, None] *
                        (wl[..., :, None] * wr[..., None, :] % p) % p))
        return out

    # -- coalgebra --------------------------------------------------------------

    def coproduct_terms(self, n: int, i: int, codes) -> tuple[np.ndarray, ...]:
        """Delta of the degree-n paths in codes, its terms of left degree i:
        the left codes, right codes and coefficients on a new last axis,
        zero-padded.  (x, w) = x * (e, w) and Delta(x) = x (x) x, so
        Delta(x, w) is Delta(e, w) with both factors moved from start y to
        start x y."""
        x, w = divmod(codes, self.bim.apv ** n)
        left, right, coef = self.coproduct_table(n)[i][:, w]
        return (self._translate(x[..., None], left, i),
                self._translate(x[..., None], right, n - i), coef)

    def coproduct_table(self, n: int) -> list[np.ndarray]:
        """Per left degree i, Delta(e, w) for every word w of length n as one
        (3, apv^n, width) array of left codes, right codes and coefficients,
        repeated tensors summed mod p and zeros dropped.  Past degree 1,
        Delta(e, w l) = Delta(F) Delta(e, w), where (e, w l) = F * (e, w)
        for F = l . t(e, w)^-1, the arrows sum_v c (e, v) read from T[1]."""
        apv, p = self.bim.apv, self.p
        while len(self._cop_tables) <= n:
            d = len(self._cop_tables)
            w, l = np.divmod(np.arange(apv ** d), apv)
            code, coef = self.action_table(1)
            inv = self.group.inverses[self.target[d - 1][w]]
            v, c = code[inv, l], coef[inv, l]
            factor = [(a[v, 0], b[v, 0], k[v, 0] * c % p) for a, b, k in self._cop_tables[1]]
            terms = self.tensor_products(1, d - 1, factor,
                                         [t[:, w] for t in self._cop_tables[d - 1]])
            table = []
            for i in range(d + 1):
                run, key, k = _canonical(p, self.dim(i) * self.dim(d - i),
                                         [t[1:] for t in terms if t[0] == i])
                left, right = np.divmod(key, self.dim(d - i))
                table.append(np.stack(_padded(run, len(w), left, right, k)))
            self._cop_tables.append(table)
        return self._cop_tables[n]

    def _translate(self, x, codes, n: int) -> np.ndarray:
        """The degree-n codes moved from start y to start x y."""
        y, w = divmod(codes, self.bim.apv ** n)
        return self.group.products(x, y) * self.bim.apv ** n + w

    def antipode_table(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """S(e, w) for every word w of length n: the codes and coefficients,
        each (apv^n, width), of its terms, zero-padded.  S * id = unit counit
        at (e, w), whose one term of left degree n is S(e, w) e, gives
        S(e, w) = -sum S(a) b over the other terms a (x) b of Delta(e, w)."""
        while len(self._antipode_tables) <= n:
            d = len(self._antipode_tables)
            words = np.arange(self.bim.apv ** d)
            run, key, c = _canonical(self.p, self.dim(d),
                                     [(k, -c) for k, c in self.convolution(d, words, d)])
            self._antipode_tables.append(tuple(_padded(run, len(words), key, c)))
        return self._antipode_tables[n]

    def antipode_terms(self, n: int, codes) -> tuple[np.ndarray, np.ndarray]:
        """S of the degree-n paths in codes, its terms on a new last axis,
        zero-padded: S(x, w) = S(e, w) S(x) = S(e, w) x^-1 by `products`."""
        code, coef = self.antipode_table(n)
        x, w = divmod(codes, self.bim.apv ** n)
        out, c = self.products(n, 0, code[w], self.group.inverses[x][..., None])
        return (out.reshape(*np.shape(codes), -1),
                (coef[w][..., None] * c % self.p).reshape(*np.shape(codes), -1))

    def convolution(self, n: int, codes, top: int) -> list[tuple]:
        """sum S(a) b over the terms a (x) b of Delta of the degree-n paths in
        codes whose left degree is below top: (codes, coefficients) arrays,
        the case on the first axis, one pair per left degree."""
        out = []
        for i in range(top):
            a, b, c = self.coproduct_terms(n, i, codes)
            s, cs = self.antipode_terms(i, a)
            prod, cp = self.products(i, n - i, s, b[..., None])
            out.append((prod, (c[..., None] * cs % self.p)[..., None] * cp % self.p))
        return out


def path_key_json(key: PathKey, h: "TruncatedHopf") -> dict:
    g = h.group
    if len(key) == 1:
        return {"vertex": g.element_name(key[0])}
    # the i-th arrow leaves the target of the path's first i - 1 arrows
    arrows = [h.bim.quiver.arrow(h.target[i][h.code(key[:i + 1])] * h.bim.apv + l)
              for i, l in enumerate(key[1:])]
    return {"start": g.element_name(key[0]),
            "arrows": [{"y": g.element_name(a.y), "class": a.cls,
                        "slot": a.slot, "j": a.j} for a in arrows]}


def structure_json(h: TruncatedHopf) -> dict:
    """Structure constants per degree pair, for diffing across builds."""
    doc = {"prime": h.p, "max_degree": h.max_deg,
           "dims": [h.dim(n) for n in range(h.max_deg + 1)], "products": []}
    for m in range(h.max_deg + 1):
        for n in range(h.max_deg + 1 - m):
            for pc, qc in itertools.product(range(h.dim(m)), range(h.dim(n))):
                pk, qk = h.key(m, pc), h.key(n, qc)
                terms = [{"path": path_key_json(k, h), "coeff": c}
                         for k, c in sorted(h.product_basis(pk, qk).items())]
                doc["products"].append({"left": path_key_json(pk, h),
                                        "right": path_key_json(qk, h), "terms": terms})
    return doc


def tensor_hopf(rsr: RSR, max_deg: int) -> TruncatedHopf:
    return TruncatedHopf(rsr, max_deg)


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
    the terms of a b; Delta(a) Delta(b) is `tensor_products`."""
    m, n = degrees
    d, p = m + n, h.p
    off = list(itertools.accumulate((h.dim(i) * h.dim(d - i) for i in range(d + 1)),
                                    initial=0))
    ab, w = h.products(m, n, a, b)
    lhs = []
    for i in range(d + 1):
        u, v, c = h.coproduct_terms(d, i, ab)
        lhs.append((off[i] + u * h.dim(d - i) + v, w[..., None] * c % p))
    rhs = h.tensor_products(m, n, [h.coproduct_terms(m, i, a) for i in range(m + 1)],
                            [h.coproduct_terms(n, j, b) for j in range(n + 1)])
    return _agree(p, off[-1], len(a), lhs, [(off[i] + k, c) for i, k, c in rhs])


def _each_is(h: TruncatedHopf, bound: int, sides: list, key) -> np.ndarray:
    """Per case, whether each of sides, (keys, coefficients) arrays with the
    case on the first axis, sums to the one term key[case], coefficient 1."""
    return np.logical_and.reduce(
        [_agree(h.p, bound, len(key), [side], [(key[:, None], 1)]) for side in sides])


def unital(h: TruncatedHopf, n: int, words) -> np.ndarray:
    """Per path (e, w) of degree n, e (e, w) = (e, w) = (e, w) e."""
    return _each_is(h, h.dim(n), [h.products(0, n, 0, words), h.products(n, 0, words, 0)],
                    words)


def counital(h: TruncatedHopf, n: int, words) -> np.ndarray:
    """Per path (e, w) of degree n, (eps (x) id) Delta(e, w) = (e, w) =
    (id (x) eps) Delta(e, w), eps being 1 on vertices and 0 on arrows."""
    _, right, c0 = h.coproduct_terms(n, 0, words)
    left, _, cn = h.coproduct_terms(n, n, words)
    return _each_is(h, h.dim(n), [(right, c0), (left, cn)], words)


def coassociative(h: TruncatedHopf, n: int, words) -> np.ndarray:
    """Per path (e, w) of degree n, (Delta (x) id) Delta = (id (x) Delta)
    Delta, a degree composition (i, j, l) and a chunk of about TERMS terms
    at a time.  a (x) b (x) c is the key (a dim_j + b) dim_l + c: a case
    times a key stays below apv^n dim_i dim_j dim_l = |G| dim_n^2, at most
    2^51 under PATH_CAP."""
    p, ok = h.p, np.ones(len(words), dtype=bool)
    width = [[t.shape[-1] for t in h.coproduct_table(d)] for d in range(n + 1)]
    for i, j, l in ((i, j, n - i - j) for i in range(n + 1) for j in range(n + 1 - i)):
        step = max(1, TERMS // max(1, width[n][i + j] * width[i + j][i] +
                                   width[n][i] * width[j + l][j]))
        for lo in range(0, len(words), step):
            at = words[lo:lo + step]
            a, c, w = h.coproduct_terms(n, i + j, at)
            a1, a2, w1 = h.coproduct_terms(i + j, i, a)
            a, b, v = h.coproduct_terms(n, i, at)
            b1, b2, v1 = h.coproduct_terms(j + l, j, b)
            ok[at] &= _agree(
                p, h.dim(i) * h.dim(j) * h.dim(l), len(at),
                [((a1 * h.dim(j) + a2) * h.dim(l) + c[..., None], w[..., None] * w1 % p)],
                [((a[..., None] * h.dim(j) + b1) * h.dim(l) + b2, v[..., None] * v1 % p)])
    return ok


def antipodal(h: TruncatedHopf, n: int, codes) -> np.ndarray:
    """Per degree-n path, S * id = unit counit: sum S(a) b over all the
    terms a (x) b of its coproduct is e in degree 0 and 0 above."""
    unit = [(0 * codes[:, None], 1)] if n == 0 else []
    return _agree(h.p, h.dim(n), len(codes), h.convolution(n, codes, n + 1), unit)


def verify_hopf(h: TruncatedHopf, seed: int = 0, samples: int = 300,
                exhaustive: Optional[bool] = None) -> Report:
    """Check Hopf axioms on basis elements within the truncation degree.

    Associativity runs on triples and Delta-is-an-algebra-map on pairs of
    basis paths of total degree <= N, each an index into the list of all
    such tuples, ordered by degree composition (d_1, ..., d_k) and then
    row-major: exhaustive mode (the default up to 100 basis paths) takes
    every index, sampled mode `samples` uniform indices taken from
    random.Random(f"hopf:{seed}:{name}"), one stream per check.
    The other checks cover every path in either mode, a degree with paths
    at a time: the antipode identity the paths of degree <= N-1; unit,
    coassociativity and counit the paths (e, w), each counted for its |G|
    translates (x, w), where it holds exactly when it holds at (e, w), for
    e (x, w) and (x, w) e are e (e, w) and (e, w) e moved to start x, and
    Delta(x, w) is Delta(e, w) moved to x.
    """
    dims = [h.dim(n) for n in range(h.max_deg + 1)]
    if exhaustive is None:
        exhaustive = sum(dims) <= 100
    report = Report(mode="exhaustive" if exhaustive else f"sampled({samples})")

    def batched(name: str, arity: int, terms: int, test) -> None:
        """check_all of test over the tuples of paths of total degree <= N,
        listed by composition, then row-major: index i is tuple i - off[c] of
        composition c.  Case j is index j, or pick j in sampled mode; cases
        run a chunk at a time, batched by composition."""
        comps = [c for c in itertools.product(range(h.max_deg + 1), repeat=arity)
                 if sum(c) <= h.max_deg]
        off = np.cumsum([0] + [math.prod(dims[d] for d in c) for c in comps])
        total = int(off[-1])
        rng = random.Random(f"hopf:{seed}:{name}")
        picks = None if exhaustive else np.array(
            [rng.randrange(total) for _ in range(samples)], dtype=np.int64)
        size = max(1, min(CHUNK, TERMS // terms))

        def decode(cases: np.ndarray):
            """Per composition among the cases: its degrees, the positions of
            its cases among them and their codes, one array per degree."""
            index = cases if exhaustive else picks[cases]
            comp = np.searchsorted(off, index, side="right") - 1
            for c in np.flatnonzero(np.bincount(comp)):
                pos = np.flatnonzero(comp == c)
                yield comps[c], pos, np.unravel_index(index[pos] - off[c],
                                                      [dims[d] for d in comps[c]])

        oks, count = [], total if exhaustive else samples
        for lo in range(0, count, size):
            cases = np.arange(lo, min(lo + size, count))
            oks.append(np.ones(len(cases), dtype=bool))
            for degrees, pos, codes in decode(cases):
                oks[-1][pos] = test(h, degrees, *codes)
            if not oks[-1].all():
                break

        def witness(i: int) -> str:
            (degrees, _, codes), = decode(np.array([i]))
            return str(tuple(map(h.key, degrees, np.concatenate(codes).tolist())))

        check_all(report, name, np.concatenate([np.ones(0, dtype=bool)] + oks), witness)

    def per_degree(name: str, sizes: list[int], test, weight: int = 1) -> None:
        """check_all of test(h, n, codes) over the codes below sizes[n]."""
        ok = [test(h, n, np.arange(s)) for n, s in enumerate(sizes) if s]

        def witness(i: int) -> str:
            n = int(np.searchsorted(np.cumsum(sizes), i, side="right"))
            return str(h.key(n, i - sum(sizes[:n])))

        check_all(report, name, np.concatenate([np.ones(0, dtype=bool)] + ok), witness, weight)

    # terms per case are at most about k^2N for associativity
    kmax = max(1, h.action_table(1)[1].shape[-1]) if h.max_deg else 1
    batched("associativity", 3, kmax ** (2 * h.max_deg) + kmax ** h.max_deg, associative)
    at_e = [h.bim.apv ** n for n in range(h.max_deg + 1)]
    per_degree("unit", at_e, unital, h.group.order)
    per_degree("coassociativity", at_e, coassociative, h.group.order)
    per_degree("counit", at_e, counital, h.group.order)
    width = max(sum(t.shape[-1] for t in h.coproduct_table(n))
                for n in range(h.max_deg + 1) if at_e[n])
    batched("coproduct-algebra-map", 2, (width * width + width) * kmax ** h.max_deg,
            multiplicative)
    per_degree("antipode", dims[:-1], antipodal)
    return report


def skew_primitive_report(h: TruncatedHopf) -> Report:
    """Arrows out of the identity vertex must satisfy Delta(a) = y (x) a +
    a (x) 1: per left degree, one term, the key u dim_{1-i} + v of u (x) v."""
    report = Report(mode="exhaustive")
    if h.max_deg >= 1:
        l = np.arange(h.bim.apv)
        ok = np.ones(len(l), dtype=bool)
        for i, key in enumerate([h.target[1][l] * h.dim(1) + l, l * h.dim(0)]):
            a, b, c = h.coproduct_terms(1, i, l)
            ok &= _each_is(h, h.dim(i) * h.dim(1 - i), [(a * h.dim(1 - i) + b, c)], key)
        check_all(report, "skew-primitivity", ok, lambda i: str(h.key(1, i)))
    return report


def type_one_dims(rsr: RSR, max_deg: int) -> list[int]:
    """Graded dimensions of the type-one Hopf algebra: |G| times the Nichols
    dimensions of the coinvariant module (the biproduct identity)."""
    base = nichols_dims(yd_from_rsr(rsr), max_deg)
    return [rsr.group.order * b for b in base]
