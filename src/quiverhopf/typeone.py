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

The coproduct is the multiplicative extension of Delta(x) = x (x) x on
vertices and Delta(a) = t(a) (x) a + a (x) s(a) on arrows; arrows out of
the identity vertex are therefore (1,y)-skew-primitive.  The antipode is
computed by the graded convolution recursion and cached.

Graded dimensions of the type-one algebra are |G| times the Nichols
dimensions of the coinvariant module; the cotensor coalgebra itself is
never materialized.
"""

from __future__ import annotations

import itertools
import random
from typing import Optional

import numpy as np

from .bimodule import HopfBimodule, Report, build_bimodule, cases, check, combine
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


class TruncationError(RuntimeError):
    """A product escaped the degree-N truncation."""


def path_degree(key: PathKey) -> int:
    return len(key) - 1


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
        self._right_cache: dict[int, list[list[tuple[int, int]]]] = {}
        self._prod_cache: dict[tuple[PathKey, PathKey], Element] = {}
        # Delta(e, w) per word w, built by coproduct's prefix recursion
        self._word_cop: dict[tuple[int, ...], dict] = {(): {((0,), (0,)): 1}}
        self._antipode_cache: dict[PathKey, Element] = {}

    # -- elements -------------------------------------------------------------

    def dim(self, n: int) -> int:
        return len(self.basis_by_degree[n])

    def vertices(self, key: PathKey) -> list[int]:
        """The vertices a path passes, from its start to its target."""
        return list(itertools.accumulate((self._elem[l] for l in key[1:]),
                                         self.group.mul, initial=key[0]))

    def _right_terms(self, h: int) -> list[list[tuple[int, int]]]:
        """Per local arrow l, the (l', coefficient) terms of l . h."""
        if h not in self._right_cache:
            cols = self.bim.right_stack([h])[0].T
            # nonzero lists the arrows ascending: each arrow's terms are one slice
            arrow, image = np.nonzero(cols)
            terms = list(zip(image.tolist(), cols[arrow, image].tolist()))
            bounds = np.searchsorted(arrow, np.arange(len(cols) + 1)).tolist()
            self._right_cache[h] = [terms[a:b] for a, b in zip(bounds, bounds[1:])]
        return self._right_cache[h]

    def product_basis(self, pk: PathKey, qk: PathKey) -> Element:
        """p * q = (s(p) s(q), word(q) ++ A_{t(q)}^(x)m word(p)), m = deg p:
        s(p) . q followed by p . t(q), whose word is acted on letterwise."""
        m, n = path_degree(pk), path_degree(qk)
        if m + n > self.max_deg:
            raise TruncationError(
                f"product of degrees {m}+{n} exceeds truncation {self.max_deg}")
        key = (pk, qk)
        if key not in self._prod_cache:
            terms = [((self.group.mul(pk[0], qk[0]),) + qk[1:], 1)]
            right = self._right_terms(self.vertices(qk)[-1])
            for l in pk[1:]:
                terms = [(w + (r,), c * c2) for w, c in terms for r, c2 in right[l]]
            self._prod_cache[key] = combine(terms, self.p)
        return dict(self._prod_cache[key])

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
            for v, c in self._right_terms(self.group.inv(t))[word[-1]]:
                factor[((self._elem[v],), (0, v))] = c
                factor[((0, v), (0,))] = c
            self._word_cop[word] = self._tensor_mul(
                factor, self._coproduct_at_e(word[:-1]))
        return self._word_cop[word]

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
    uniform law on all tuples of total degree <= N.  The remaining checks
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

    def tuples(arity: int):
        return cases([tuple(h.basis_by_degree[d] for d in c)
                      for c in itertools.product(range(h.max_deg + 1), repeat=arity)
                      if sum(c) <= h.max_deg], samples, rng)

    def associative(t) -> bool:
        k1, k2, k3 = t
        return (h.multiply(h.product_basis(k1, k2), {k3: 1}) ==
                h.multiply({k1: 1}, h.product_basis(k2, k3)))

    check(report, "associativity", tuples(3), associative)
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

    def multiplicative(t) -> bool:
        k1, k2 = t
        return (combine(((pair, c * c2) for k, c in h.product_basis(k1, k2).items()
                         for pair, c2 in cop(k).items()), p) ==
                h._tensor_mul(cop(k1), cop(k2)))

    check(report, "coproduct-algebra-map", tuples(2), multiplicative)

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
