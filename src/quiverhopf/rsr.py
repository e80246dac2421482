"""Ramification systems with irreducible representations: construction,
twists, types, isomorphism keys, counting and enumeration.

An RSR fixes a group, a splitting prime, a ramification, a class
representative u(C) per class, and for each ramified class an ordered list
of irreducible characters of the centralizer Z_u(C) whose degrees sum to
r_C.  The type (per-class multiplicity vector against the canonical
character order of Z_u0(C)) is a complete isomorphism invariant whenever
Aut G = Inn G.  The key (rsr_key), the least type of phi*rsr over all phi
in Aut G, is a complete invariant for S_n (n != 6), whose key is its type
by the theorem Aut S_n = Inn S_n, and for every other group within the
budget of groups.automorphisms (groups.outer_representatives): isomorphic
compares keys in both of its modes.

twist_rsr, rsr_type and rsr_key all move characters between centralizers
along ambient maps z -> h phi(z) h^-1 by character maps (_char_map), each
built once per group, prime and map and kept in Group.caches.  A type reads
a plan kept there per prime, ramified (class, u) pairs and phi (_plan): the
conjugators and maps of every class, each conjugator the first h taking u to
its target, read as transversal[theta_at[target]] off the centralizer of u
(whose row is taken once), so typing an RSR is one list lookup per ramified
character, with no conjugate search and no table search.

Counting, listing and validating read only the degrees of the centralizers
(modrep.group_degrees, which builds no table for an abelian one), and a
plan only their class counts.  On u0 every character map of a type is the
identity and reads no table, so a table is built only where its rows are
read: irreducible matrices and the character maps of a twist or of an
outer automorphism.  A type is a NamedTuple, so == and hash on types and
keys run in C.
"""

from __future__ import annotations

import json
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .groups import (
    BudgetError,
    Group,
    InputError,
    centralizer_subgroup,
    class_of,
    conjugacy_classes,
    inner_only,
    outer_representatives,
    parse_cycle_string,
    parse_group,
)
from .modrep import (
    FieldPrime,
    Irrep,
    choose_prime,
    group_degrees,
    group_table,
    irrep_matrices,
    validate_prime,
)
from .quiver import HopfQuiver, Ramification

# types a full listing may hold: C6 "e:30" has 324,632, C12 "e:40" 47,626,016,970
TYPE_CAP = 1 << 19
# the largest r_C count_classes counts, 4,096: its coin DP keeps r_C + 1
# counters; the goldens, CI and tests reach r_C = 40
RAM_CAP = 1 << 12


class RSR:
    """A validated ramification system with irreducible representations.

    Centralizers, their degrees, character tables and irreducible
    matrices, and the character maps and plans that type it, come from the
    caches on the group (centralizer_subgroup, group_degrees, group_table,
    irrep_matrices, _char_map, _plan).  The one cache on the instance is
    the isomorphism key, filled by rsr_key on first use without locks.
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
        self._key: Optional[RSRType] = None

    # -- per-class data ------------------------------------------------------

    def centralizer(self, cls: int) -> Group:
        return centralizer_subgroup(self.group, self.u[cls])

    def slot_degrees(self, cls: int) -> tuple[int, ...]:
        degrees = group_degrees(self.centralizer(cls), self.field)
        return tuple(degrees[i] for i in self.irreps[cls])

    def irrep(self, cls: int, slot: int) -> Irrep:
        return irrep_matrices(self.centralizer(cls), self.field,
                              self.irreps[cls][slot], seed=self.seed)

    def quiver(self) -> HopfQuiver:
        return HopfQuiver(self.group, self.ram,
                          tuple(self.slot_degrees(k) for k in self.ram.support))

    def to_json(self) -> dict:
        g = self.group
        return {
            "group": g.spec,
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
        degrees = group_degrees(rsr.centralizer(k), field)
        for idx in irreps[k]:
            if not 0 <= idx < len(degrees):
                raise InputError(f"character index {idx} out of range for class {k}")
        total = sum(degrees[i] for i in irreps[k])
        if total != ram.r_of(k):
            raise InputError(
                f"degree sum {total} != r_C = {ram.r_of(k)} for class {k}")
    return rsr


class RSRType(NamedTuple):
    """Per-class multiplicity vectors against canonical character orders;
    a tuple, so that == and hash on types and keys run in C."""

    entries: tuple[tuple[int, tuple[int, ...]], ...]

    def to_json(self) -> list[dict]:
        return [{"class": k, "multiplicities": list(v)} for k, v in self.entries]


def _char_map(g: Group, field: FieldPrime, u: int, onto: int, h: int,
              phi: Optional[np.ndarray] = None) -> list[int]:
    """Where every character of Z_u lands, as a row index of the canonical
    table of Z_onto, when pulled back along the ambient map
    z -> h phi(z) h^-1 (phi an automorphism as an index array, by default
    the identity), which must send Z_onto onto Z_u.  Kept in g.caches per
    (p, u, onto, h, phi), phi by its bytes and None for the identity.  The
    identity map (u == onto, h = e, no phi: every plan entry of an RSR on
    u0) reads no table."""
    if phi is None and h == 0 and u == onto:
        return list(range(len(conjugacy_classes(centralizer_subgroup(g, u)))))
    key = ("charmap", field.p, u, onto, h, None if phi is None else phi.tobytes())
    if key not in g.caches:
        z_to = centralizer_subgroup(g, u)
        z_from = centralizer_subgroup(g, onto)
        reps = z_from.embed[[c.rep for c in conjugacy_classes(z_from)]]
        if phi is not None:
            reps = phi[reps]
        images = g.products(g.products(h, reps), g.inv(h))
        at = class_of(z_to, z_to.local[images]).tolist()
        index = {row: i for i, row in enumerate(group_table(z_from, field).rows)}
        g.caches[key] = [index[tuple(row[c] for c in at)]
                         for row in group_table(z_to, field).rows]
    return g.caches[key]


def twist_rsr(rsr: RSR, conjugators: dict[int, int]) -> RSR:
    """The isomorphic RSR with u'(C) = h_C^-1 u(C) h_C and representations
    twisted accordingly: rho'(z) = rho(h_C z h_C^-1), read off the character
    map into the canonical table of the new centralizer."""
    g = rsr.group
    new_u = dict(rsr.u)
    new_irreps = dict(rsr.irreps)
    for cls, h in conjugators.items():
        new_u[cls] = g.conj(rsr.u[cls], h)
        if cls in rsr.irreps:
            chars = _char_map(g, rsr.field, rsr.u[cls], new_u[cls], h)
            new_irreps[cls] = tuple(chars[i] for i in rsr.irreps[cls])
    return RSR(g, rsr.field, rsr.ram, new_u, new_irreps, seed=rsr.seed)


def _plan(rsr: RSR, phi: Optional[np.ndarray] = None
          ) -> list[tuple[int, int, list[int], int]]:
    """How every RSR with rsr's prime and ramified (class, u) pairs is typed
    along phi, kept in g.caches: for each class C' whose phi(u0(C')) lies in
    a ramified class C, the tuple (C', C, character map along
    z -> h phi(z) h^-1 with h the first conjugator h^-1 u(C) h =
    phi(u0(C')), the number of characters of Z_u0(C'), which is its number
    of classes)."""
    g = rsr.group
    key = ("rsr-plan", rsr.field.p, tuple((k, rsr.u[k]) for k in rsr.ram.support),
           None if phi is None else phi.tobytes())
    if key not in g.caches:
        plan = []
        for c in conjugacy_classes(g):
            target = c.rep if phi is None else int(phi[c.rep])
            cls = class_of(g, target)
            if cls in rsr.irreps:
                z = rsr.centralizer(cls)
                h = int(z.transversal[z.theta_at[target]])
                plan.append((c.class_index, cls,
                             _char_map(g, rsr.field, rsr.u[cls], c.rep, h, phi),
                             len(conjugacy_classes(centralizer_subgroup(g, c.rep)))))
        g.caches[key] = plan
    return g.caches[key]


def _type_along(rsr: RSR, phi: Optional[np.ndarray] = None) -> RSRType:
    """The type of the RSR pulled back along the automorphism phi (by
    default the identity): class C' carries the characters of rsr at the
    class C of phi(u0(C')), pulled back along z -> h phi(z) h^-1 with
    h^-1 u(C) h = phi(u0(C')); one lookup per character in _plan."""
    entries = []
    for c, cls, chars, nchars in _plan(rsr, phi):
        mult = [0] * nchars
        for idx in rsr.irreps[cls]:
            mult[chars[idx]] += 1
        entries.append((c, tuple(mult)))
    return RSRType(tuple(entries))


def rsr_type(rsr: RSR) -> RSRType:
    """Per-class multiplicities against the canonical tables of Z_u0(C):
    a complete isomorphism invariant when Aut G = Inn G."""
    return _type_along(rsr)


def rsr_key(rsr: RSR) -> RSRType:
    """The least type of phi*rsr over all phi in Aut G, cached in rsr._key:
    one phi per coset of Inn G, as phi c_h pulls back to the same type.
    The first coset is Inn G itself (outer_representatives puts the
    identity first), whose type is rsr_type.

    Two RSRs on one group and prime are isomorphic exactly when their keys
    are equal, for S_n (n != 6), where the theorem Aut S_n = Inn S_n leaves
    the identity alone, and for every other group whose automorphisms fit
    the budget of groups.automorphisms (A5 and S6 among them); any other
    group past it raises BudgetError.
    """
    if rsr._key is None:
        outer = outer_representatives(rsr.group)[1:]
        rsr._key = min([rsr_type(rsr), *(_type_along(rsr, phi) for phi in outer)])
    return rsr._key


def isomorphic(a: RSR, b: RSR, mode: str = "assume-inner") -> bool:
    """RSR isomorphism test: both modes compare keys (rsr_key).

    assume-inner first requires Aut G = Inn G (groups.inner_only), where
    the key is the type; search-aut has no precondition.  Both hold for
    S_n (n != 6) by the theorem Aut S_n = Inn S_n, with no automorphism
    listed, and for every other group within the automorphism budget
    (groups.AUT_BUDGET, groups.outer_representatives), and raise
    BudgetError otherwise.
    """
    if a.group is not b.group:
        raise InputError("RSRs must live on the same group object")
    if a.field.p != b.field.p:
        raise InputError("RSRs must use the same prime")
    if mode not in ("assume-inner", "search-aut"):
        raise InputError(f"unknown mode {mode!r}")
    if mode == "assume-inner" and not inner_only(a.group):
        raise InputError("assume-inner requires Aut G = Inn G")
    return rsr_key(a) == rsr_key(b)


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
    """Number of RSR types with this ramification: the number of
    isomorphism classes only when Aut G = Inn G, and an overcount
    otherwise (one class may hold several types, see rsr_key).  An r_C
    past RAM_CAP (4,096) raises BudgetError before its DP allocates."""
    field = field if field is not None else choose_prime(g)
    classes = conjugacy_classes(g)
    total = 1
    for k, r in ram.coeffs:
        if r > RAM_CAP:
            raise BudgetError(f"r_C = {r} of class {k} exceeds the counting cap of {RAM_CAP}")
        z = centralizer_subgroup(g, classes[k].rep)
        total *= _tau(group_degrees(z, field), r)
    return total


def _multiplicity_vectors(degrees: Sequence[int], r: int) -> Iterator[tuple[int, ...]]:
    """All (n_1..n_gamma), gamma >= 1, with sum n_i d_i = r, in descending
    lexicographic order."""
    if len(degrees) == 1:
        if r % degrees[0] == 0:
            yield (r // degrees[0],)
        return
    for n in range(r // degrees[0], -1, -1):
        for rest in _multiplicity_vectors(degrees[1:], r - n * degrees[0]):
            yield (n, *rest)


def iter_types(g: Group, ram: Ramification,
               field: Optional[FieldPrime] = None) -> Iterator[RSRType]:
    """The types of enumerate_types one at a time, in its order: each
    class's vectors are listed anew under every choice for the classes before."""
    field = field if field is not None else choose_prime(g)
    per_class = [(k, group_degrees(centralizer_subgroup(g, conjugacy_classes(g)[k].rep),
                                   field), r) for k, r in ram.coeffs]

    def rec(pos: int, entries: tuple) -> Iterator[RSRType]:
        k, degrees, r = per_class[pos]
        for v in _multiplicity_vectors(degrees, r):
            if pos + 1 < len(per_class):
                yield from rec(pos + 1, entries + ((k, v),))
            else:
                yield RSRType(entries + ((k, v),))

    return rec(0, ()) if per_class else iter([RSRType(())])


def enumerate_types(g: Group, ram: Ramification,
                    field: Optional[FieldPrime] = None) -> list[RSRType]:
    """All RSR types for the ramification: one per isomorphism class only
    when Aut G = Inn G (otherwise see rsr_key).  More than TYPE_CAP types,
    counted by count_classes before any is listed, raise BudgetError."""
    count = count_classes(g, ram, field)
    if count > TYPE_CAP:
        raise BudgetError(f"{count} RSR types exceed the listing cap of {TYPE_CAP}")
    return list(iter_types(g, ram, field))


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

def rsr_from_json(doc: dict, group: Optional[Group] = None) -> RSR:
    """Build an RSR from its JSON document (see RSR.to_json).

    A class given twice in "u" or in "rho", or a value of the wrong JSON
    type (`typed`, under which no bool is an int), is an InputError.  A
    given group (another RSR's) is used, caches and all, when the
    document's group has the same elements; otherwise the two use
    different groups, an InputError too.
    """
    def typed(value, kind: type, what: str):
        if type(value) is not kind:
            raise InputError(f"{what} must be {kind.__name__}, not {type(value).__name__}")
        return value
    try:
        g = parse_group(doc["group"])
        if group is not None:
            if not np.array_equal(g.perms, group.perms):
                raise InputError("the two RSR documents use different groups")
            g = group
        classes = conjugacy_classes(g)
        field = validate_prime(g, typed(doc["prime"], int, "prime"))
        seed = typed(doc.get("seed", 0), int, "seed")
        u_choice = {}
        for entry in typed(doc.get("u", []), list, "u"):
            k = typed(entry["class"], int, "class")
            if k in u_choice:
                raise InputError(f"class {k} given twice in u")
            rep = typed(entry["rep"], str, "rep")
            u_choice[k] = g.find(parse_cycle_string(rep, g.degree))
        irreps: dict[int, Sequence[int]] = {}
        ram_coeffs: dict[int, int] = {}
        for entry in typed(doc["rho"], list, "rho"):
            k = typed(entry["class"], int, "class")
            if k in irreps:
                raise InputError(f"class {k} given twice in rho")
            irreps[k] = idxs = tuple(typed(i, int, "character index")
                                     for i in typed(entry["irreps"], list, "irreps"))
            if not 0 <= k < len(classes):
                raise InputError(f"class index {k} out of range")
            z = centralizer_subgroup(g, u_choice.get(k, classes[k].rep))
            degrees = group_degrees(z, field)
            for i in idxs:
                if not 0 <= i < len(degrees):
                    raise InputError(f"character index {i} out of range")
            ram_coeffs[k] = sum(degrees[i] for i in idxs)
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


def load_rsr(path: str) -> RSR:
    return rsr_from_json(read_rsr_doc(path))
