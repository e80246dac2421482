"""The group-algebra Hopf bimodule M = kG (x) V on the arrows of a Hopf quiver.

Arrow number x * apv + l is local arrow l, one of the apv arrows out of e,
at vertex x.  Left action: h moves it to (hx) * apv + l.  Right action:
a^{(i,j)}_{y,x} . h = sum_s rho^{(i)}(zeta_theta(h))[j,s] a^{(i,s)}_{yh,xh},
where theta is the coset index of x^-1 y and zeta the centralizer factor of
g_theta h: x goes to xh, and the local arrows by a block map independent of
x.  Per class, the zeta and theta' tables are array expressions over all
(theta, h): theta, theta' and the class elements are read off the
transversal, theta_at and conj_row that centralizer_subgroup keeps, and the
blocks, which depend only on (class, slot, zeta), are one (|Z|, d, d) stack
per slot, put on arrows by `right_terms` alone, for `right_stack`, T[1] and
the YD grading check.  The verifier checks every axiom completely:
left-associativity as each left action being a translation,
right-associativity on the pairs (g, s) with s a generator, which covers
every pair (the lemma of `Group.generating_sequence`), the other checks on
every case.  The stacked checks (right-associativity, right-invertibility)
count |G| per case, one case covering all of G.  A check with no cases is
left out of the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import linalg
from .groups import InputError
from .quiver import HopfQuiver
from .rsr import RSR


@dataclass
class Check:
    name: str
    ok: bool
    checked: int
    witness: Optional[str] = None

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok, "checked": self.checked}
        if self.witness:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    """Outcome of a verifier run: per-axiom checks plus an overall flag."""

    checks: list[Check] = field(default_factory=list)
    mode: str = "exhaustive"

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {"passed": self.passed, "mode": self.mode,
                "checks": [c.to_json() for c in self.checks]}


def check_all(report: Report, name: str, ok: np.ndarray | list,
              witness: Callable[[int], str], weight: int = 1) -> None:
    """Add check `name` from `ok`, the outcome of each of its cases in
    order: the count is weight times the cases through the first failure,
    or all of them, and the witness is formatted for the failing index
    only.  A check that passes with a zero count is left out."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    if bad.size:
        i = int(bad[0])
        report.checks.append(Check(name, False, weight * (i + 1), witness(i)))
    elif weight * len(ok):
        report.checks.append(Check(name, True, weight * len(ok)))


class HopfBimodule:
    """Arrow space kG (x) V of the quiver of an RSR, arrow number x * apv + l
    being local arrow l at vertex x, with both actions and coactions."""

    def __init__(self, rsr: RSR, transversals: Optional[dict[int, list[int]]] = None):
        self.rsr = rsr
        self.group = rsr.group
        self.p = rsr.field.p
        self.quiver: HopfQuiver = rsr.quiver()
        g = self.group
        self.apv = self.quiver.arrows_per_vertex
        self.cls, self.elem, self.slot, self.j = self.quiver.local.T
        self.theta = np.empty(self.apv, dtype=np.intp)

        self.transversal: dict[int, list[int]] = {}
        # zeta data per class: zl[theta, h] = centralizer element (local index),
        # tp[theta, h] = theta'
        self.zl: dict[int, np.ndarray] = {}
        self.tp: dict[int, np.ndarray] = {}
        # coefficient blocks per (class, slot): an own (|Z|, d, d) stack, and
        # the local arrows of (class, slot) as a (theta, j) array
        self.blocks: dict[tuple[int, int], np.ndarray] = {}
        self.slot_arrows: dict[tuple[int, int], np.ndarray] = {}

        every = np.arange(g.order)
        for cls in rsr.ram.support:
            z = rsr.centralizer(cls)
            t = np.array([int(x) for x in (transversals or {}).get(cls, z.transversal)])
            if len(t) != len(z.transversal):
                raise InputError("transversal has wrong length")
            if ((t < 0) | (t >= g.order)).any():
                raise InputError(f"transversal entry out of range 0..{g.order - 1}")
            off = np.flatnonzero(z.local[g.products(t, g.inverses[z.transversal])] < 0)
            if off.size:
                raise InputError(f"coset mismatch at theta={off[0]} for class {cls}")
            self.transversal[cls] = t.tolist()
            self.theta[self.cls == cls] = z.theta_at[self.elem[self.cls == cls]]
            # g_theta h = zeta g_theta' with theta' the coset of
            # (g_theta h)^-1 u (g_theta h), over every (theta, h) at once
            w = g.products(t[:, None], every[None, :])
            self.tp[cls] = tp = z.theta_at[z.conj_row[w]]
            self.zl[cls] = z.local[g.products(w, g.inverses[t[tp]])]
            for slot in range(len(rsr.irreps[cls])):
                self.blocks[(cls, slot)] = rsr.irrep(cls, slot).matrices.copy()
                at = np.flatnonzero((self.cls == cls) & (self.slot == slot))
                src = self.slot_arrows[(cls, slot)] = np.empty_like(at).reshape(len(t), -1)
                src[self.theta[at], self.j[at]] = at

    # -- structure maps -----------------------------------------------------

    def left_perm(self, h: int) -> np.ndarray:
        """Left action as a permutation of arrow numbers: h moves arrow
        x * apv + l to (hx) * apv + l."""
        hx = self.group.products(h, np.arange(self.group.order, dtype=np.int32))
        return (hx[:, None] * self.apv + np.arange(self.apv, dtype=np.int32)).ravel()

    def right_terms(self, hs) -> tuple[np.ndarray, ...]:
        """The nonzero entries of the right actions of hs, four arrays (i, l,
        l', c) sorted by (i, l, l'): c is the coefficient of arrow (x hs[i])
        * apv + l' in (x * apv + l) . hs[i] for every vertex x, entry [j, s]
        of a block at (theta, h) sending arrow (theta, j) to (theta', s)."""
        hs = np.asarray(hs, dtype=np.intp)
        d = max((b.shape[1] for b in self.blocks.values()), default=1)
        image, coef = np.zeros((2, len(hs), self.apv, d), dtype=np.int64)
        for (cls, slot), blocks in self.blocks.items():
            src = self.slot_arrows[(cls, slot)]
            image[:, src, :src.shape[1]] = src[self.tp[cls][:, hs]].swapaxes(0, 1)[:, :, None]
            coef[:, src, :src.shape[1]] = blocks[self.zl[cls][:, hs]].swapaxes(0, 1)
        # each arrow's images ascend in s, so the nonzeros come sorted
        at = np.flatnonzero(coef)
        return (*np.divmod(at // d, self.apv), image.ravel()[at], coef.ravel()[at])

    def right_stack(self, hs) -> np.ndarray:
        """The right action of each h in hs, a (len(hs), apv, apv) stack:
        entry [i, l', l] is the coefficient of arrow (xh) * apv + l' in
        (x * apv + l) . h, for every vertex x, scattered from `right_terms`."""
        i, l, image, coef = self.right_terms(hs)
        out = np.zeros((len(hs), self.apv, self.apv), dtype=np.int64)
        out[i, image, l] = coef
        return out

    def cocycle(self, cls: int, slot: int, theta: int, a, b) -> np.ndarray:
        """Whether (arrow . a) . b = arrow . ab on the arrows of (class, slot,
        theta), as a mask over the broadcast element arrays a and b."""
        zl, tp, blocks = self.zl[cls], self.tp[cls], self.blocks[(cls, slot)]
        ab, mid = self.group.products(a, b), tp[theta, a]
        return (tp[theta, ab] == tp[mid, b]) & (
            blocks[zl[theta, ab]] == linalg.matmul(
                blocks[zl[theta, a]], blocks[zl[mid, b]], self.p)).all(axis=(-2, -1))

    def dim(self) -> int:
        return self.group.order * self.apv

    def to_json(self) -> dict:
        g = self.group
        doc = {
            "prime": self.p,
            "arrows": [{"x": g.element_name(a.x), "y": g.element_name(a.y),
                        "class": a.cls, "slot": a.slot, "j": a.j}
                       for a in self.quiver.arrows()],
            "zeta_blocks": [],
        }
        for cls in self.rsr.ram.support:
            z = self.rsr.centralizer(cls)
            for h in range(g.order):
                entry = {"class": cls, "h": g.element_name(h), "thetas": []}
                for theta in range(len(self.transversal[cls])):
                    zloc = int(self.zl[cls][theta, h])
                    entry["thetas"].append({
                        "theta": theta,
                        "theta_prime": int(self.tp[cls][theta, h]),
                        "zeta": z.element_name(zloc),
                        "blocks": [self.blocks[(cls, slot)][zloc].tolist()
                                   for slot in range(len(self.rsr.irreps[cls]))],
                    })
                doc["zeta_blocks"].append(entry)
        return doc


def build_bimodule(rsr: RSR,
                   transversals: Optional[dict[int, list[int]]] = None) -> HopfBimodule:
    return HopfBimodule(rsr, transversals)


def verify_bimodule(m: HopfBimodule) -> Report:
    """Check the Hopf-bimodule axioms on the action tables, completely.

    Left- and right-associativity take the pairs (g, s) with s a generator,
    and unit holds the base case e (the lemma of `Group.generating_sequence`);
    the other checks take every case.  A check with no cases, as on a
    ramification without arrows, is left out of the report.
    """
    g = m.group
    name = g.element_name
    narrows = m.dim()
    report = Report(mode="exhaustive")
    support = m.rsr.ram.support
    every = np.arange(g.order)
    gens = np.array(g.generating_sequence(), dtype=np.intp)

    # unit: the zeta tables are trivial at h = e, and e fixes every arrow
    # on both sides; cases are the tables, then each arrow on the left,
    # then each arrow on the right
    tables = np.array([all((m.zl[cls][:, 0] == 0).all() and
                           (m.tp[cls][:, 0] == np.arange(len(m.transversal[cls]))).all()
                           for cls in support)] if support else [], dtype=bool)
    fixed = (m.right_stack([0])[0] == linalg.identity(m.apv)).all(axis=0)
    right = ((g.products(every, 0) == every)[:, None] & fixed[None, :]).ravel()
    ntab = len(tables)

    def unit_witness(i: int) -> str:
        if i < ntab:
            return "the tables of e are not trivial"
        side, a = divmod(i - ntab, narrows)
        return (f"identity moves arrow {m.quiver.arrow(a)} on the "
                f"{('left', 'right')[side]}")

    check_all(report, "unit", np.concatenate(
        [tables, m.left_perm(0) == np.arange(narrows), right]), unit_witness)

    # left associativity: P_h must move arrow x * apv + l to (hx) * apv + l,
    # the left translation of the vertices lifted to the arrows, for every
    # h; translation is multiplicative, so P_{gh} = P_g . P_h on every pair.
    # The count is that of the pairs (g, s), s a generator, on all arrows
    local = np.arange(m.apv)

    def translates(h: int) -> bool:
        return (m.left_perm(h).reshape(g.order, m.apv) ==
                g.products(h, every)[:, None] * m.apv + local).all()

    check_all(report, "left-associativity", [translates(h) for h in range(g.order)],
              lambda h: f"h={name(h)} is not a left translation of the arrows",
              weight=narrows * len(gens))

    # right associativity: the zeta cocycle on (theta, g, s), s a generator,
    # which covers every (theta, g, h); one case (class, theta, s, slot)
    # covers every g at once
    assoc = [(cls, theta, s, slot) for cls in support
             for theta in range(len(m.transversal[cls])) for s in gens.tolist()
             for slot in range(len(m.rsr.irreps[cls]))]

    def assoc_witness(i: int) -> str:
        cls, theta, s, slot = assoc[i]
        bad = int(np.argmin(m.cocycle(cls, slot, theta, every, s)))
        return f"class {cls} slot {slot} theta {theta} g={name(bad)} h={name(s)}"

    check_all(report, "right-associativity",
              [m.cocycle(cls, slot, theta, every, s).all() for cls, theta, s, slot in assoc],
              assoc_witness, weight=g.order)

    # bimodule commutation and coaction grading: each arrow's class element
    # is c_theta = g_theta^-1 u g_theta for its theta, and on every (h,
    # class, theta) g_theta h = zeta g_theta', which puts the destination
    # class element h^-1 c_theta h of a . h at theta' (zeta commutes with
    # u).  Coefficients agree because theta is invariant under the left shift
    consistent = np.zeros(m.apv, dtype=bool)
    per_h = [np.zeros((g.order, 0), dtype=bool)]
    for cls in support:
        t, z = np.asarray(m.transversal[cls]), m.rsr.centralizer(cls)
        own = m.cls == cls
        consistent[own] = m.elem[own] == z.conj_row[t[m.theta[own]]]
        per_h.append((g.products(t[:, None], every) ==
                      g.products(z.embed[m.zl[cls]], t[m.tp[cls]])).T)
    thetas = [(cls, th) for cls in support for th in range(len(m.transversal[cls]))]

    def commutes_witness(i: int) -> str:
        if i < narrows:
            return f"arrow {m.quiver.arrow(i)} has inconsistent class data"
        h, at = divmod(i - narrows, len(thetas))
        return f"class {thetas[at][0]} theta {thetas[at][1]} h={name(h)}"

    check_all(report, "commutation-and-coaction", np.concatenate(
        [np.tile(consistent, g.order), np.concatenate(per_h, axis=1).ravel()]),
        commutes_witness)

    # right action by h then h^-1 is that of e, the identity by unit: the
    # cocycle at (h, h^-1); one case is (class, slot, theta) over every h
    inverse = [(cls, slot, theta) for cls in support
               for slot in range(len(m.rsr.irreps[cls]))
               for theta in range(len(m.transversal[cls]))]

    def inverse_witness(i: int) -> str:
        cls, slot, theta = inverse[i]
        bad = int(np.argmin(m.cocycle(cls, slot, theta, every, g.inverses)))
        return f"class {cls} slot {slot} theta {theta} h={name(bad)}"

    check_all(report, "right-invertibility",
              [m.cocycle(*case, every, g.inverses).all() for case in inverse],
              inverse_witness, weight=g.order)
    return report


class BimoduleMap:
    """An arrow-basis linear map between two bimodules on the same quiver:
    row a of the matrix is the image of arrow number a."""

    def __init__(self, source: HopfBimodule, target: HopfBimodule,
                 matrix: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.p = source.p

    def is_bijective(self) -> bool:
        return linalg.rank(self.matrix, self.p) == self.matrix.shape[0]

    def verify(self) -> Report:
        """Check bijectivity and that the map intertwines both actions and
        both coactions.  Each action is checked on the generators, f(s.a) =
        s.f(a) and f(a.s) = f(a).s for every arrow a and generator s, which
        covers every element (the lemma of `Group.generating_sequence`)."""
        m1, m2 = self.source, self.target
        g, q, f, p = m1.group, m1.quiver, self.matrix, self.p
        report = Report(mode="exhaustive")
        check_all(report, "bijective", [self.is_bijective()],
                  lambda i: "the map is singular")

        # an arrow maps into the arrows with its own source and target
        a, b = np.nonzero(f)
        vertex = np.repeat(np.arange(g.order), m1.apv)
        elem = np.tile(m1.elem, g.order)
        check_all(report, "coaction-intertwining",
                  (vertex[a] == vertex[b]) & (elem[a] == elem[b]),
                  lambda i: f"{q.arrow(a[i])} maps to {q.arrow(b[i])}")

        # masks over (side, s, arrow): f P_s = P_s f on the left, and on the
        # right f(a . s) = f(a) . s, where x * apv + l . s = sum_l' A_s[l', l]
        # (xs) * apv + l', A_s being the module's local stack at s
        gens, every, n = g.generating_sequence(), np.arange(g.order), m1.dim()
        left = [(f[np.ix_(m1.left_perm(s), m2.left_perm(s))] == f).all(axis=1)
                for s in gens]

        def right(s: int) -> np.ndarray:
            xs = g.products(every, s)
            moved = linalg.matmul(m1.right_stack([s])[0].T,
                                  f.reshape(g.order, m1.apv, n)[xs], p)
            image = np.empty((n, g.order, m2.apv), dtype=np.int64)
            image[:, xs] = linalg.matmul(f.reshape(n, g.order, m2.apv),
                                         m2.right_stack([s])[0].T, p)
            return (moved.reshape(n, n) == image.reshape(n, n)).all(axis=1)

        def witness(i: int) -> str:
            side, s, arrow = np.unravel_index(i, (2, len(gens), n))
            return (f"{('left', 'right')[side]} action of s={g.element_name(gens[s])} "
                    f"on arrow {q.arrow(arrow)}")

        check_all(report, "action-intertwining",
                  np.array(left + [right(s) for s in gens], dtype=bool).ravel(), witness)
        return report


def transversal_iso(rsr: RSR, t1: dict[int, list[int]],
                    t2: dict[int, list[int]]) -> BimoduleMap:
    """The explicit isomorphism between the bimodules built from two
    transversals of the same cosets (arrow a^{(i,j)} built from t1 maps to
    sum_s rho^{(i)}(g_theta h_theta^-1)[j,s] times the t2-arrow a^{(i,s)}).
    It is the same on every vertex, so its matrix is 1 (x) the local map."""
    g = rsr.group
    m1 = build_bimodule(rsr, t1)
    m2 = build_bimodule(rsr, t2)
    local = np.zeros((m1.apv, m1.apv), dtype=np.int64)
    for (cls, slot), blocks in m1.blocks.items():
        src = m1.slot_arrows[(cls, slot)]
        z = rsr.centralizer(cls).local[g.products(m1.transversal[cls],
                                                  g.inverses[m2.transversal[cls]])]
        local[src[:, :, None], src[:, None, :]] = blocks[z]
    fmap = BimoduleMap(m1, m2, np.kron(np.eye(g.order, dtype=np.int64), local))
    if not fmap.is_bijective():
        raise AssertionError("transversal-change map failed to be bijective")
    return fmap
