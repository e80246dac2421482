"""Truncated graded Hopf algebra on the paths of a Hopf quiver, and the
graded dimensions of the type-one Hopf algebra via the biproduct identity.

Basis: paths of length <= N (0-paths are the group elements).  The product
of basis paths p, q of positive degree is the normal form of their tensor
over the group algebra,

    p * q = concat( p . t(q) , s(p) . q ),

with the right bimodule action applied arrow-wise and the left action a
translation; a product with a 0-path is the corresponding module action.
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

import random
from typing import Optional, Union

from .bimodule import HopfBimodule, Report, build_bimodule, check
from .groups import InputError
from .quiver import ArrowId
from .rsr import RSR
from .yd import DEFAULT_DIM_CAP, DEFAULT_SPACE_CAP, nichols_dims, yd_from_rsr

# basis keys: a group element index for 0-paths, else a tuple of composable
# ArrowIds in application order
PathKey = Union[int, tuple[ArrowId, ...]]
Element = dict  # PathKey -> coefficient mod p


class TruncationError(RuntimeError):
    """A product escaped the degree-N truncation."""


def path_degree(key: PathKey) -> int:
    return 0 if isinstance(key, int) else len(key)


def path_source(key: PathKey) -> int:
    return key if isinstance(key, int) else key[0].x


def path_target(key: PathKey) -> int:
    return key if isinstance(key, int) else key[-1].y


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
        self.basis_by_degree: list[list[PathKey]] = [list(range(self.group.order))]
        out_arrows: dict[int, list[ArrowId]] = {x: [] for x in range(self.group.order)}
        for a in self.bim.arrows:
            out_arrows[a.x].append(a)
        for n in range(1, max_deg + 1):
            prev = self.basis_by_degree[n - 1]
            level: list[PathKey] = []
            for key in prev:
                stem = () if isinstance(key, int) else key
                for a in out_arrows[path_target(key)]:
                    level.append(stem + (a,))
            self.basis_by_degree.append(level)
        self._prod_cache: dict[tuple[PathKey, PathKey], Element] = {}
        self._antipode_cache: dict[PathKey, Element] = {}

    # -- elements -------------------------------------------------------------

    def dim(self, n: int) -> int:
        return len(self.basis_by_degree[n])

    def _left(self, h: int, key: PathKey) -> PathKey:
        if isinstance(key, int):
            return self.group.mul(h, key)
        return tuple(self.bim.left_action(h, a) for a in key)

    def _right(self, key: PathKey, h: int) -> Element:
        if isinstance(key, int):
            return {self.group.mul(key, h): 1}
        terms: list[tuple[tuple[ArrowId, ...], int]] = [((), 1)]
        for a in key:
            expansion = self.bim.right_action(a, h)
            terms = [(stem + (b,), coeff * c2 % self.p)
                     for stem, coeff in terms for b, c2 in expansion]
        return {stem: c for stem, c in terms if c}

    def product_basis(self, pk: PathKey, qk: PathKey) -> Element:
        m, n = path_degree(pk), path_degree(qk)
        if m + n > self.max_deg:
            raise TruncationError(
                f"product of degrees {m}+{n} exceeds truncation {self.max_deg}")
        key = (pk, qk)
        if key in self._prod_cache:
            return dict(self._prod_cache[key])
        if m == 0:
            out = {self._left(pk, qk): 1}
        elif n == 0:
            out = self._right(pk, qk)
        else:
            shifted_q = self._left(path_source(pk), qk)
            out = {}
            for late, coeff in self._right(pk, path_target(qk)).items():
                merged = shifted_q + late
                out[merged] = (out.get(merged, 0) + coeff) % self.p
            out = {k: v for k, v in out.items() if v}
        self._prod_cache[key] = out
        return dict(out)

    def multiply(self, e1: Element, e2: Element) -> Element:
        out: Element = {}
        for k1, c1 in e1.items():
            for k2, c2 in e2.items():
                for k, c in self.product_basis(k1, k2).items():
                    val = (out.get(k, 0) + c1 * c2 * c) % self.p
                    out[k] = val
        return {k: v for k, v in out.items() if v}

    def unit(self) -> Element:
        return {0: 1}

    def counit(self, e: Element) -> int:
        return sum(c for k, c in e.items() if isinstance(k, int)) % self.p

    # -- coalgebra --------------------------------------------------------------

    def _tensor_mul(self, t1: dict, t2: dict) -> dict:
        out: dict = {}
        for (a1, b1), c1 in t1.items():
            for (a2, b2), c2 in t2.items():
                left = self.product_basis(a1, a2)
                right = self.product_basis(b1, b2)
                for ka, ca in left.items():
                    for kb, cb in right.items():
                        k = (ka, kb)
                        out[k] = (out.get(k, 0) + c1 * c2 * ca * cb) % self.p
        return {k: v for k, v in out.items() if v}

    def coproduct(self, key: PathKey) -> dict:
        """Delta on a basis path, as a dict {(left_key, right_key): coeff}."""
        if isinstance(key, int):
            return {(key, key): 1}
        g = self.group
        x0 = key[0].x
        acc: Optional[dict] = None
        # p = F_n * ... * F_1 * x0 with F_i = a_i . x_{i-1}^{-1}, a combination
        # of arrows out of the identity vertex
        for a in reversed(key):
            factor: dict = {}
            for v, coeff in self.bim.right_action(a, g.inv(a.x)):
                factor[(v.y, (v,))] = (factor.get((v.y, (v,)), 0) + coeff) % self.p
                factor[((v,), 0)] = (factor.get(((v,), 0), 0) + coeff) % self.p
            acc = factor if acc is None else self._tensor_mul(acc, factor)
        return self._tensor_mul(acc, {(x0, x0): 1})

    def antipode(self, key: PathKey) -> Element:
        """S on a basis path via the convolution recursion S * id = unit . counit."""
        if isinstance(key, int):
            return {self.group.inv(key): 1}
        if key in self._antipode_cache:
            return dict(self._antipode_cache[key])
        n = len(key)
        x0 = key[0].x
        acc: Element = {}
        for (k1, k2), c in self.coproduct(key).items():
            if path_degree(k1) == n:
                continue        # the single top term S(p) * x0, solved for below
            for k, cv in self.multiply(self.antipode(k1), {k2: 1}).items():
                acc[k] = (acc.get(k, 0) + c * cv) % self.p
        neg = {k: (-v) % self.p for k, v in acc.items()}
        out = self.multiply(neg, {self.group.inv(x0): 1})
        self._antipode_cache[key] = out
        return dict(out)

    def antipode_element(self, e: Element) -> Element:
        out: Element = {}
        for k, c in e.items():
            for k2, c2 in self.antipode(k).items():
                out[k2] = (out.get(k2, 0) + c * c2) % self.p
        return {k: v for k, v in out.items() if v}


def path_key_json(key: PathKey, h: "TruncatedHopf") -> dict:
    g = h.group
    if isinstance(key, int):
        return {"vertex": g.element_name(key)}
    return {"start": g.element_name(key[0].x),
            "arrows": [{"y": g.element_name(a.y), "class": a.cls,
                        "slot": a.slot, "j": a.j} for a in key]}


def structure_json(h: TruncatedHopf) -> dict:
    """Structure constants per degree pair, for diffing across builds."""
    doc = {"prime": h.p, "max_degree": h.max_deg,
           "dims": [h.dim(n) for n in range(h.max_deg + 1)], "products": []}
    for m in range(h.max_deg + 1):
        for n in range(h.max_deg + 1 - m):
            for pk in h.basis_by_degree[m]:
                for qk in h.basis_by_degree[n]:
                    terms = [{"path": path_key_json(k, h), "coeff": c}
                             for k, c in sorted(h.product_basis(pk, qk).items(),
                                                key=str)]
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

    Exhaustive over all tuples when the basis is small, else seeded samples:
    associativity and Delta-is-an-algebra-map on tuples of total degree <= N,
    coassociativity / counit on all basis paths, and the antipode convolution
    identity on degrees <= N-1.
    """
    p = h.p
    n_basis = sum(h.dim(n) for n in range(h.max_deg + 1))
    if exhaustive is None:
        exhaustive = n_basis <= 100
    report = Report(mode="exhaustive" if exhaustive else f"sampled({samples})")
    rng = random.Random(f"hopf:{seed}")

    all_keys = [k for n in range(h.max_deg + 1) for k in h.basis_by_degree[n]]

    def tuples(arity: int, budget: int):
        if exhaustive:
            def rec(acc, remaining):
                if len(acc) == arity:
                    yield tuple(acc)
                    return
                for nd in range(remaining + 1):
                    for k in h.basis_by_degree[nd]:
                        acc.append(k)
                        yield from rec(acc, remaining - nd)
                        acc.pop()
            yield from rec([], budget)
        else:
            for _ in range(samples):
                while True:
                    picks = [all_keys[rng.randrange(len(all_keys))]
                             for _ in range(arity)]
                    if sum(path_degree(k) for k in picks) <= budget:
                        break
                yield tuple(picks)

    def associative(t) -> bool:
        k1, k2, k3 = t
        return (h.multiply(h.product_basis(k1, k2), {k3: 1}) ==
                h.multiply({k1: 1}, h.product_basis(k2, k3)))

    check(report, "associativity", tuples(3, h.max_deg), associative)
    check(report, "unit", all_keys,
          lambda k: h.product_basis(0, k) == {k: 1} == h.product_basis(k, 0))

    # every tensor factor of a coproduct is itself a basis path
    cop = {k: h.coproduct(k) for k in all_keys}

    def coassociative(k) -> bool:
        lhs: dict = {}
        rhs: dict = {}
        for (a, b), c in cop[k].items():
            for (a1, a2), c2 in cop[a].items():
                lhs[(a1, a2, b)] = (lhs.get((a1, a2, b), 0) + c * c2) % p
            for (b1, b2), c2 in cop[b].items():
                rhs[(a, b1, b2)] = (rhs.get((a, b1, b2), 0) + c * c2) % p
        return {t: v for t, v in lhs.items() if v} == {t: v for t, v in rhs.items() if v}

    def counital(k) -> bool:
        left: Element = {}
        right: Element = {}
        for (a, b), c in cop[k].items():
            if isinstance(a, int):
                left[b] = (left.get(b, 0) + c) % p
            if isinstance(b, int):
                right[a] = (right.get(a, 0) + c) % p
        return ({t: v for t, v in left.items() if v} == {k: 1} ==
                {t: v for t, v in right.items() if v})

    # coassociativity and counit on all basis paths
    check(report, "coassociativity", all_keys, coassociative)
    check(report, "counit", all_keys, counital)

    def multiplicative(t) -> bool:
        k1, k2 = t
        lhs: dict = {}
        for k, c in h.product_basis(k1, k2).items():
            for pair, c2 in cop[k].items():
                lhs[pair] = (lhs.get(pair, 0) + c * c2) % p
        lhs = {pair: v for pair, v in lhs.items() if v}
        return lhs == h._tensor_mul(cop[k1], cop[k2])

    check(report, "coproduct-algebra-map", tuples(2, h.max_deg), multiplicative)

    # antipode convolution identity on degrees <= N-1
    def antipodal(k) -> bool:
        acc: Element = {}
        for (a, b), c in cop[k].items():
            for t, c2 in h.multiply(h.antipode(a), {b: 1}).items():
                acc[t] = (acc.get(t, 0) + c * c2) % p
        acc = {t: v for t, v in acc.items() if v}
        return acc == ({0: 1} if isinstance(k, int) else {})

    check(report, "antipode",
          (k for n in range(h.max_deg) for k in h.basis_by_degree[n]), antipodal)
    return report


def skew_primitive_report(h: TruncatedHopf) -> Report:
    """Arrows out of the identity vertex must satisfy
    Delta(a) = y (x) a + a (x) 1."""
    report = Report(mode="exhaustive")
    check(report, "skew-primitivity",
          (key for key in (h.basis_by_degree[1] if h.max_deg >= 1 else [])
           if key[0].x == 0),
          lambda key: h.coproduct(key) == {(key[0].y, key): 1, (key, 0): 1})
    return report


def type_one_dims(rsr: RSR, max_deg: int,
                  space_cap: int = DEFAULT_SPACE_CAP,
                  dim_cap: int = DEFAULT_DIM_CAP) -> list[int]:
    """Graded dimensions of the type-one Hopf algebra: |G| times the Nichols
    dimensions of the coinvariant module (the biproduct identity)."""
    base = nichols_dims(yd_from_rsr(rsr), max_deg, space_cap, dim_cap)
    return [rsr.group.order * b for b in base]
