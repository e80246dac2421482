"""Ramification systems with irreducible representations: construction,
normalization, types, isomorphism testing, counting and enumeration.

An RSR fixes a group, a splitting prime, a ramification, a class
representative u(C) per class, and for each ramified class an ordered list
of irreducible characters of the centralizer Z_u(C) whose degrees sum to
r_C.  The type (per-class multiplicity vector against the canonical
character order of Z_u0(C)) is a complete isomorphism invariant whenever
Aut G = Inn G.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .groups import (
    Group,
    InputError,
    automorphisms,
    centralizer_subgroup,
    class_of,
    conjugacy_classes,
    inner_only,
    parse_cycle_string,
    parse_group,
)
from .modrep import (
    CharTable,
    FieldPrime,
    Irrep,
    choose_prime,
    group_table,
    irrep_matrices,
    validate_prime,
)
from .quiver import HopfQuiver, Ramification


class RSR:
    """A validated ramification system with irreducible representations.

    Centralizers, their character tables, irreducible matrices and the
    isomorphism-test signatures are computed on first use and cached on the
    instance without locks.
    """

    def __init__(self, group: Group, field: FieldPrime, ram: Ramification,
                 u: dict[int, int], irreps: dict[int, tuple[int, ...]],
                 seed: int = 0):
        self.group = group
        self.field = field
        self.ram = ram
        self.u = dict(u)
        self.irreps = {k: tuple(v) for k, v in irreps.items()}
        self.seed = seed
        self._ztabs: dict[int, CharTable] = {}
        self._zsubs: dict[int, Group] = {}
        self._mats: dict[tuple[int, int], Irrep] = {}
        # isomorphism-test signatures, filled by _own_multiset and
        # _twisted_multiset
        self._own_sig: dict[int, tuple] = {}
        self._twist_sig: dict[tuple[int, int, int], tuple] = {}

    # -- per-class data ------------------------------------------------------

    def centralizer(self, cls: int) -> Group:
        if cls not in self._zsubs:
            self._zsubs[cls] = centralizer_subgroup(self.group, self.u[cls])
        return self._zsubs[cls]

    def ztable(self, cls: int) -> CharTable:
        if cls not in self._ztabs:
            self._ztabs[cls] = group_table(self.centralizer(cls), self.field)
        return self._ztabs[cls]

    def slot_degrees(self, cls: int) -> tuple[int, ...]:
        t = self.ztable(cls)
        return tuple(t.degrees[i] for i in self.irreps[cls])

    def irrep(self, cls: int, slot: int) -> Irrep:
        key = (cls, slot)
        if key not in self._mats:
            idx = self.irreps[cls][slot]
            self._mats[key] = irrep_matrices(self.centralizer(cls), self.field,
                                             idx, seed=self.seed)
        return self._mats[key]

    def quiver(self) -> HopfQuiver:
        return HopfQuiver(self.group, self.ram,
                          tuple(self.slot_degrees(k) for k in self.ram.support))

    def to_json(self) -> dict:
        g = self.group
        return {
            "group": g.spec or "perm:" + ";".join(
                p.cycle_string() for p in g.generators),
            "prime": self.field.p,
            "seed": self.seed,
            "u": [{"class": k, "rep": g.element_name(self.u[k])}
                  for k in sorted(self.u)],
            "rho": [{"class": k, "irreps": list(self.irreps[k])}
                    for k in self.ram.support],
        }


def make_rsr(group: Group, ram: Ramification,
             u_choice: Optional[dict[int, int]] = None,
             per_class_irreps: Optional[dict[int, Sequence[int]]] = None,
             field: Optional[FieldPrime] = None, seed: int = 0) -> RSR:
    """Validate and build an RSR; u defaults to the canonical representatives."""
    field = field if field is not None else choose_prime(group)
    classes = conjugacy_classes(group)
    u = {c.class_index: c.rep for c in classes}
    if u_choice:
        for k, elt in u_choice.items():
            if not 0 <= k < len(classes):
                raise InputError(f"class index {k} out of range")
            if elt not in classes[k].elements:
                raise InputError(
                    f"u({k}) = {group.element_name(elt)} is not in its class")
            u[k] = elt
    per_class_irreps = per_class_irreps or {}
    irreps: dict[int, tuple[int, ...]] = {}
    for k in ram.support:
        if k not in per_class_irreps:
            raise InputError(f"no irreducibles given for ramified class {k}")
        irreps[k] = tuple(per_class_irreps[k])
    rsr = RSR(group, field, ram, u, irreps, seed=seed)
    for k in ram.support:
        table = rsr.ztable(k)
        for idx in irreps[k]:
            if not 0 <= idx < table.nchars:
                raise InputError(f"character index {idx} out of range for class {k}")
        total = sum(table.degrees[i] for i in irreps[k])
        if total != ram.r_of(k):
            raise InputError(
                f"degree sum {total} != r_C = {ram.r_of(k)} for class {k}")
    return rsr


@dataclass(frozen=True)
class RSRType:
    """Per-class multiplicity vectors against canonical character orders."""

    entries: tuple[tuple[int, tuple[int, ...]], ...]

    def to_json(self) -> list[dict]:
        return [{"class": k, "multiplicities": list(v)} for k, v in self.entries]


def twist_rsr(rsr: RSR, conjugators: dict[int, int]) -> RSR:
    """The isomorphic RSR with u'(C) = h_C^-1 u(C) h_C and representations
    twisted accordingly: rho'(z) = rho(h_C z h_C^-1), looked up by character
    in the canonical table of the new centralizer."""
    g = rsr.group
    new_u = dict(rsr.u)
    new_irreps = dict(rsr.irreps)
    for cls, h in conjugators.items():
        u_old = rsr.u[cls]
        u_new = g.conj(u_old, h)
        if u_new not in conjugacy_classes(g)[cls].elements:
            raise InputError("conjugator leaves the class")  # cannot happen
        new_u[cls] = u_new
        if cls not in rsr.irreps:
            continue
        z_old = rsr.centralizer(cls)
        z_new = centralizer_subgroup(g, u_new)
        table_old = rsr.ztable(cls)
        table_new = group_table(z_new, rsr.field)
        cls_of_old = {z: class_of(z_old, z) for z in range(z_old.order)}
        hin = g.inv(h)
        mapped = []
        for idx in rsr.irreps[cls]:
            row = table_old.rows[idx]
            values = []
            for c_new in conjugacy_classes(z_new):
                w = z_new.embed[c_new.rep]
                hw = g.mul(g.mul(h, w), hin)            # h w h^-1 in Z_u_old
                values.append(row[cls_of_old[z_old.local[hw]]])
            mapped.append(table_new.rows.index(tuple(values)))
        new_irreps[cls] = tuple(mapped)
    return RSR(g, rsr.field, rsr.ram, new_u, new_irreps, seed=rsr.seed)


def _first_conjugator(g: Group, a: int, target: int) -> int:
    """The first h in canonical order with h^-1 a h = target."""
    return int(np.flatnonzero(g.conjugates(a) == target)[0])


def normalize_u(rsr: RSR) -> RSR:
    """Equivalent RSR on the canonical representatives u0.

    For each class with u(C) != u0(C) the first conjugator in canonical
    element order with h^-1 u(C) h = u0(C) is used for the twist.
    """
    g = rsr.group
    classes = conjugacy_classes(g)
    conjugators = {}
    for c in classes:
        u_old = rsr.u[c.class_index]
        if u_old != c.rep:
            conjugators[c.class_index] = _first_conjugator(g, u_old, c.rep)
    if not conjugators:
        return rsr
    return twist_rsr(rsr, conjugators)


def rsr_type(rsr: RSR) -> RSRType:
    norm = normalize_u(rsr)
    entries = []
    for k in norm.ram.support:
        gamma = norm.ztable(k).nchars
        mult = [0] * gamma
        for idx in norm.irreps[k]:
            mult[idx] += 1
        entries.append((k, tuple(mult)))
    return RSRType(tuple(entries))


def _char_value_tuple(rsr: RSR, cls: int, idx: int) -> tuple[int, ...]:
    """Character values on the elements of Z_u(cls), in subgroup order."""
    z = rsr.centralizer(cls)
    row = rsr.ztable(cls).rows[idx]
    return tuple(row[class_of(z, zi)] for zi in range(z.order))


def _own_multiset(a: RSR, cls: int) -> tuple:
    cache = a._own_sig
    if cls not in cache:
        cache[cls] = tuple(sorted(_char_value_tuple(a, cls, idx)
                                  for idx in a.irreps[cls]))
    return cache[cls]


def _twisted_multiset(b: RSR, phi_idx: int, phi, cls_a: int, cls_b: int,
                      u_a: int) -> tuple:
    """Multiset of characters of b's irreps at cls_b pulled back to Z_{u_a}
    through phi_{h_C}, where phi(h_C^-1 u_a h_C) = u_b(cls_b).

    The choice of h_C within its coset is irrelevant: it changes phi_{h_C}
    by an inner automorphism of the centralizer, invisible to characters.
    Cached per (phi, cls_a, u_a) on the b instance.
    """
    g = b.group
    key = (phi_idx, cls_a, u_a)
    cache = b._twist_sig
    if key in cache:
        return cache[key]
    target = phi.mapping.index(b.u[cls_b])
    h = _first_conjugator(g, u_a, target)
    z_a = centralizer_subgroup(g, u_a)
    z_b = b.centralizer(cls_b)
    rows_b = b.ztable(cls_b).rows
    # phi_h(x) = phi(h^-1 x h) for each element of Z_{u_a}, as a class index
    # of Z_{u_b}
    conj = g.products(g.products(g.inv(h), np.array(z_a.embed)), h)
    pulled = [class_of(z_b, z_b.local[img])
              for img in np.asarray(phi.mapping)[conj].tolist()]
    twisted = tuple(sorted(tuple(rows_b[idx][c] for c in pulled)
                           for idx in b.irreps[cls_b]))
    cache[key] = twisted
    return twisted


def isomorphic(a: RSR, b: RSR, mode: str = "assume-inner",
               aut_cap: int = 48) -> bool:
    """RSR isomorphism test.

    assume-inner compares types (complete when Aut G = Inn G); search-aut
    searches group automorphisms and per-class conjugators directly against
    the defining conditions.
    """
    if a.group is not b.group:
        raise InputError("RSRs must live on the same group object")
    if a.field.p != b.field.p:
        raise InputError("RSRs must use the same prime")
    g = a.group
    if mode == "assume-inner":
        if not inner_only(g, aut_cap):
            raise InputError("assume-inner requires Aut G = Inn G")
        return rsr_type(a) == rsr_type(b)
    if mode != "search-aut":
        raise InputError(f"unknown mode {mode!r}")

    auts, _ = automorphisms(g, aut_cap)
    classes = conjugacy_classes(g)
    k = len(classes)
    img_cache = g.caches.setdefault("aut-class-images", {})
    for phi_idx, phi in enumerate(auts):
        if phi_idx not in img_cache:
            img_cache[phi_idx] = tuple(class_of(g, phi.of(classes[i].rep))
                                       for i in range(k))
        class_img = img_cache[phi_idx]
        if any(a.ram.r_of(i) != b.ram.r_of(class_img[i]) for i in range(k)):
            continue
        ok = True
        for cls in a.ram.support:
            cls_b = class_img[cls]
            if len(a.irreps[cls]) != len(b.irreps[cls_b]):
                ok = False
                break
            if _own_multiset(a, cls) != _twisted_multiset(
                    b, phi_idx, phi, cls, cls_b, a.u[cls]):
                ok = False
                break
        if ok:
            return True
    return False


def _tau(degrees: Sequence[int], r: int) -> int:
    """#{(n_1..n_gamma) in N^gamma : sum n_i d_i = r} by coin-counting DP."""
    ways = [0] * (r + 1)
    ways[0] = 1
    for d in degrees:
        for v in range(d, r + 1):
            ways[v] += ways[v - d]
    return ways[r]


def count_classes(g: Group, ram: Ramification,
                  field: Optional[FieldPrime] = None) -> int:
    """Number of isomorphism classes of RSRs with this ramification."""
    field = field if field is not None else choose_prime(g)
    classes = conjugacy_classes(g)
    total = 1
    for k, r in ram.coeffs:
        z = centralizer_subgroup(g, classes[k].rep)
        total *= _tau(group_table(z, field).degrees, r)
    return total


def _multiplicity_vectors(degrees: Sequence[int], r: int) -> list[tuple[int, ...]]:
    """All (n_1..n_gamma) with sum n_i d_i = r, in descending lexicographic order."""
    out: list[tuple[int, ...]] = []

    def rec(pos: int, remaining: int, acc: list[int]):
        if pos == len(degrees):
            if remaining == 0:
                out.append(tuple(acc))
            return
        for n in range(remaining // degrees[pos], -1, -1):
            acc.append(n)
            rec(pos + 1, remaining - n * degrees[pos], acc)
            acc.pop()

    rec(0, r, [])
    return out


def enumerate_types(g: Group, ram: Ramification,
                    field: Optional[FieldPrime] = None) -> list[RSRType]:
    """All RSR types for the ramification, one per isomorphism class."""
    field = field if field is not None else choose_prime(g)
    classes = conjugacy_classes(g)
    per_class = []
    for k, r in ram.coeffs:
        z = centralizer_subgroup(g, classes[k].rep)
        degrees = group_table(z, field).degrees
        per_class.append([(k, v) for v in _multiplicity_vectors(degrees, r)])
    if not per_class:
        return [RSRType(())]
    return [RSRType(tuple(combo)) for combo in itertools.product(*per_class)]


def rsr_from_type(g: Group, ram: Ramification, rtype: RSRType,
                  field: Optional[FieldPrime] = None, seed: int = 0) -> RSR:
    """Materialize the representative RSR of a type (u = u0, ascending slots)."""
    irreps = {}
    for k, mult in rtype.entries:
        slots: list[int] = []
        for idx, n in enumerate(mult):
            slots.extend([idx] * n)
        irreps[k] = tuple(slots)
    return make_rsr(g, ram, None, irreps, field=field, seed=seed)


# -- JSON round-trip ----------------------------------------------------------

def rsr_to_json(rsr: RSR) -> dict:
    return rsr.to_json()


def rsr_from_json(doc: dict, group: Optional[Group] = None) -> RSR:
    """Build an RSR from its JSON document (see rsr_to_json)."""
    try:
        g = group if group is not None else parse_group(doc["group"])
        classes = conjugacy_classes(g)
        field = validate_prime(g, int(doc["prime"]))
        seed = int(doc.get("seed", 0))
        u_choice = {}
        for entry in doc.get("u", []):
            k = int(entry["class"])
            perm = parse_cycle_string(str(entry["rep"]), g.degree)
            u_choice[k] = g.find(perm)
        irreps: dict[int, Sequence[int]] = {}
        ram_coeffs: dict[int, int] = {}
        for entry in doc["rho"]:
            k = int(entry["class"])
            idxs = tuple(int(i) for i in entry["irreps"])
            irreps[k] = idxs
            if not 0 <= k < len(classes):
                raise InputError(f"class index {k} out of range")
            rep = u_choice.get(k, classes[k].rep)
            z = centralizer_subgroup(g, rep)
            table = group_table(z, field)
            for i in idxs:
                if not 0 <= i < table.nchars:
                    raise InputError(f"character index {i} out of range")
            ram_coeffs[k] = sum(table.degrees[i] for i in idxs)
        ram = Ramification.from_dict(ram_coeffs)
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(f"malformed RSR document: {exc}") from exc
    return make_rsr(g, ram, u_choice, irreps, field=field, seed=seed)


def read_rsr_doc(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read RSR file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"RSR file {path} must hold a JSON object, "
                         f"not {type(doc).__name__}")
    return doc


def load_rsr(path: str, group: Optional[Group] = None) -> RSR:
    return rsr_from_json(read_rsr_doc(path), group=group)
