"""The group-algebra Hopf bimodule on the arrow space of a Hopf quiver.

Left action: h . a_{y,x} = a_{hy,hx} (an index shift).  Right action:
a^{(i,j)}_{y,x} . h = sum_s rho^{(i)}(zeta_theta(h))[j,s] a^{(i,s)}_{yh,xh},
where theta is the coset index of x^-1 y and zeta the centralizer factor of
g_theta h.  Per class, the zeta and theta' tables are array expressions over
all (theta, h), and the coefficient blocks, which depend only on (class,
slot, zeta), are one (|Z|, d, d) stack per slot.  The verifier checks every
axiom completely: left- and right-associativity on the pairs (g, s) with s
a generator, which covers every pair (the lemma of
`Group.generating_sequence`), the other checks on every case.  The stacked
checks (right-associativity, right-invertibility) count |G| per case, one
case covering all of G.  A check with no cases is left out of the report.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import linalg
from .groups import InputError, class_of, coset_transversal
from .quiver import ArrowId, HopfQuiver
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

    def add(self, name: str, ok: bool, checked: int, witness: Optional[str] = None):
        self.checks.append(Check(name, ok, checked, witness))

    def to_json(self) -> dict:
        return {"passed": self.passed, "mode": self.mode,
                "checks": [c.to_json() for c in self.checks]}


def check(report: Report, name: str, cases: Iterable, test: Callable[..., bool],
          witness: Callable[..., str] = str, weight: int = 1) -> None:
    """Add check `name` to report: test(case) for each case, stopping at the
    first failure.  The count is weight times the cases tried; the witness
    string is formatted for the failing case only.  A check that passes
    with nothing checked is left out of the report."""
    checked = 0
    for case in cases:
        checked += weight
        if not test(case):
            report.add(name, False, checked, witness(case))
            return
    if checked:
        report.add(name, True, checked)


def cases(spaces: Sequence[tuple[Sequence, ...]], samples: int = 0,
          rng: Optional[random.Random] = None) -> Iterator[tuple]:
    """Cases for `check` from spaces, each the product of its sequences.

    With rng None: every tuple of every space, in order.  Otherwise
    `samples` tuples, each drawn by picking a space with probability
    proportional to its size and then one uniform entry per coordinate,
    which is the uniform law on all the tuples.  No spaces, or only empty
    ones, give no cases."""
    if rng is None:
        for space in spaces:
            yield from itertools.product(*space)
        return
    weights = [math.prod(len(s) for s in space) for space in spaces]
    if sum(weights):
        for space in rng.choices(spaces, weights, k=samples):
            yield tuple(rng.choice(s) for s in space)


def combine(terms: Iterable[tuple[Hashable, int]], p: int) -> dict:
    """The F_p-combination {key: coefficient} summing (key, coefficient)
    pairs mod p, without the keys whose coefficient vanishes."""
    out: dict = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: r for key, c in out.items() if (r := c % p)}


class HopfBimodule:
    """Arrow space of the quiver of an RSR with both actions and coactions."""

    def __init__(self, rsr: RSR, transversals: Optional[dict[int, list[int]]] = None):
        self.rsr = rsr
        self.group = rsr.group
        self.p = rsr.field.p
        self.quiver: HopfQuiver = rsr.quiver()
        g = self.group
        self.arrows: list[ArrowId] = list(self.quiver.arrows())
        self.arrow_index = {a: i for i, a in enumerate(self.arrows)}

        self.transversal: dict[int, list[int]] = {}
        self.theta_of: dict[int, dict[int, int]] = {}
        # zeta data per class: zl[theta, h] = centralizer element (local index),
        # tp[theta, h] = theta'
        self.zl: dict[int, np.ndarray] = {}
        self.tp: dict[int, np.ndarray] = {}
        # coefficient blocks per (class, slot): an own (|Z|, d, d) stack
        self.blocks: dict[tuple[int, int], np.ndarray] = {}

        every = np.arange(g.order)
        for cls in rsr.ram.support:
            u = rsr.u[cls]
            z = rsr.centralizer(cls)
            default_t, theta_of = coset_transversal(g, u)
            t = np.array([int(x) for x in (transversals or {}).get(cls, default_t)])
            if len(t) != len(default_t):
                raise InputError("transversal has wrong length")
            if ((t < 0) | (t >= g.order)).any():
                raise InputError(f"transversal entry out of range 0..{g.order - 1}")
            off = np.flatnonzero(z.local[g.products(t, g.inverses[default_t])] < 0)
            if off.size:
                raise InputError(f"coset mismatch at theta={off[0]} for class {cls}")
            self.transversal[cls] = t.tolist()
            self.theta_of[cls] = theta_of
            theta_at = np.full(g.order, -1)
            theta_at[list(theta_of)] = list(theta_of.values())
            # g_theta h = zeta g_theta' with theta' the coset of
            # (g_theta h)^-1 u (g_theta h), over every (theta, h) at once
            w = g.products(t[:, None], every[None, :])
            self.tp[cls] = tp = theta_at[g.products(g.products(g.inverses[w], u), w)]
            self.zl[cls] = z.local[g.products(w, g.inverses[t[tp]])]
            for slot in range(len(rsr.irreps[cls])):
                self.blocks[(cls, slot)] = np.stack(rsr.irrep(cls, slot).matrices)

    # -- structure maps -----------------------------------------------------

    def left_action(self, h: int, a: ArrowId) -> ArrowId:
        g = self.group
        return ArrowId(g.mul(h, a.x), g.mul(h, a.y), a.cls, a.slot, a.j)

    def right_action(self, a: ArrowId, h: int) -> list[tuple[ArrowId, int]]:
        g = self.group
        c = g.mul(g.inv(a.x), a.y)
        theta = self.theta_of[a.cls][c]
        zloc = int(self.zl[a.cls][theta, h])
        block = self.blocks[(a.cls, a.slot)][zloc]
        xh, yh = g.mul(a.x, h), g.mul(a.y, h)
        return [(ArrowId(xh, yh, a.cls, a.slot, s), int(block[a.j, s]))
                for s in range(block.shape[1]) if block[a.j, s]]

    def left_perm(self, h: int) -> np.ndarray:
        """Left action as a permutation of arrow indices.  arrows() is
        vertex-major with the same local order at every vertex, so h moves
        arrow x * apv + l to (hx) * apv + l, apv being the arrows per vertex."""
        apv = len(self.arrows) // self.group.order
        hx = self.group.products(h, np.arange(self.group.order, dtype=np.int32))
        return (hx[:, None] * apv + np.arange(apv, dtype=np.int32)).ravel()

    def dim(self) -> int:
        return len(self.arrows)

    def to_json(self) -> dict:
        g = self.group
        doc = {
            "prime": self.p,
            "arrows": [{"x": g.element_name(a.x), "y": g.element_name(a.y),
                        "class": a.cls, "slot": a.slot, "j": a.j}
                       for a in self.arrows],
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
    narrows = len(m.arrows)
    report = Report(mode="exhaustive")
    p = m.p
    support = m.rsr.ram.support
    every = np.arange(g.order)
    gens = np.array(g.generating_sequence()[0], dtype=np.intp)

    # unit: the zeta tables and left_perm are trivial at h = e, and e fixes
    # every arrow on both sides
    def unit(case) -> bool:
        side, a = case
        if side == "left":
            return m.left_action(0, a) == a
        if side == "right":
            return m.right_action(a, 0) == [(a, 1)]
        return (m.left_perm(0) == np.arange(narrows)).all() and all(
            (m.zl[cls][:, 0] == 0).all() and
            (m.tp[cls][:, 0] == np.arange(len(m.transversal[cls]))).all()
            for cls in support)

    check(report, "unit", itertools.chain(
        [("tables", None)] if support else [], (("left", a) for a in m.arrows),
        (("right", a) for a in m.arrows)), unit,
        lambda case: "the tables of e are not trivial" if case[0] == "tables"
        else f"identity moves arrow {case[1]} on the {case[0]}")

    # left associativity, P_{sh} = P_s . P_h on all arrows for every
    # generator s and every h: the mirrored form of the lemma
    gen_perms = [m.left_perm(int(s)) for s in gens]

    def left_assoc(h: int) -> np.ndarray:
        """Whether P_{sh} = P_s . P_h, for each generator s."""
        ph = m.left_perm(h)
        return np.array([(m.left_perm(int(sh)) == ps.take(ph)).all()
                         for sh, ps in zip(g.products(gens, h), gen_perms)], dtype=bool)

    check(report, "left-associativity", range(g.order), lambda h: left_assoc(h).all(),
          lambda h: f"(g,h)=({name(int(gens[np.argmin(left_assoc(h))]))},{name(h)})",
          weight=narrows * len(gens))

    # right associativity: the zeta cocycle at block level on (theta, g, s),
    # s a generator; the lemma covers every (theta, g, h).  One case is
    # (class, theta, s, slot) over every g at once
    def right_assoc(case) -> np.ndarray:
        """Whether the cocycle holds at each g, as a mask over G."""
        cls, theta, s, slot = case
        zl, tp = m.zl[cls], m.tp[cls]
        blocks = m.blocks[(cls, slot)]
        gs, tpg = g.products(every, s), tp[theta]
        return (tp[theta, gs] == tp[tpg, s]) & (
            blocks[zl[theta, gs]] ==
            linalg.matmul(blocks[zl[theta]], blocks[zl[tpg, s]], p)).all(axis=(1, 2))

    check(report, "right-associativity",
          cases([((cls,), range(len(m.transversal[cls])), gens.tolist(),
                  range(len(m.rsr.irreps[cls]))) for cls in support]),
          lambda case: right_assoc(case).all(),
          lambda case: f"class {case[0]} slot {case[3]} theta {case[1]} "
                       f"g={name(int(np.argmin(right_assoc(case))))} h={name(case[2])}",
          weight=g.order)

    # bimodule commutation and coaction grading: index arithmetic on all
    # (g, arrow, h); coefficients agree because theta(x^-1 y) is invariant
    # under the left shift
    def commutes(case) -> bool:
        if isinstance(case, ArrowId):
            c = g.mul(g.inv(case.x), case.y)
            return class_of(g, c) == case.cls and c in m.theta_of[case.cls]
        h, cls, c, theta = case
        tp, t = m.tp[cls], m.transversal[cls]
        zeta = m.rsr.centralizer(cls).embed[int(m.zl[cls][theta, h])]
        # destination class element of a . h is h^-1 c h, and the
        # defining relation g_theta h = zeta g_theta' holds
        return (m.theta_of[cls][g.conj(c, h)] == tp[theta, h] and
                g.mul(t[theta], h) == g.mul(zeta, t[int(tp[theta, h])]))

    check(report, "commutation-and-coaction", itertools.chain(
        m.arrows, ((h, cls, c, theta) for h in range(g.order) for cls in support
                   for c, theta in m.theta_of[cls].items())), commutes,
        lambda case: f"arrow {case} has inconsistent class data"
        if isinstance(case, ArrowId) else
        f"class {case[1]} theta {case[3]} h={name(case[0])}")

    # right action by h then h^-1 is the identity; one case is
    # (class, slot, theta) over every h at once
    def invertible(case) -> np.ndarray:
        """Whether the blocks of h and h^-1 multiply to 1, as a mask over G."""
        cls, slot, theta = case
        zl, tp = m.zl[cls], m.tp[cls]
        blocks = m.blocks[(cls, slot)]
        prod = linalg.matmul(blocks[zl[theta]], blocks[zl[tp[theta], g.inverses]], p)
        return (prod == linalg.identity(prod.shape[-1])).all(axis=(1, 2))

    check(report, "right-invertibility",
          ((cls, slot, theta) for cls in support
           for slot in range(len(m.rsr.irreps[cls]))
           for theta in range(len(m.transversal[cls]))),
          lambda case: invertible(case).all(),
          lambda case: f"class {case[0]} slot {case[1]} theta {case[2]} "
                       f"h={name(int(np.argmin(invertible(case))))}",
          weight=g.order)
    return report


def _apply_right(m: HopfBimodule, combo: Iterable[tuple[ArrowId, int]],
                 h: int) -> dict[ArrowId, int]:
    return combine(((b, c * c2) for a, c in combo
                    for b, c2 in m.right_action(a, h)), m.p)


class BimoduleMap:
    """An arrow-basis linear map between two bimodules on the same quiver."""

    def __init__(self, source: HopfBimodule, target: HopfBimodule,
                 matrix: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.p = source.p

    def apply(self, combo: Iterable[tuple[ArrowId, int]]) -> dict[ArrowId, int]:
        rows = ((c, self.matrix[self.source.arrow_index[a]]) for a, c in combo)
        return combine(((self.target.arrows[b], c * int(row[b]))
                        for c, row in rows for b in np.flatnonzero(row)), self.p)

    def is_bijective(self) -> bool:
        return linalg.rank(self.matrix, self.p) == self.matrix.shape[0]

    def verify(self) -> Report:
        """Check bijectivity and that the map intertwines both actions and
        both coactions.  Each action is checked on the generators, f(s.a) =
        s.f(a) and f(a.s) = f(a).s for every arrow a and generator s, which
        covers every element (the lemma of `Group.generating_sequence`)."""
        m1, m2 = self.source, self.target
        g = m1.group
        report = Report(mode="exhaustive")
        report.add("bijective", self.is_bijective(), 1)

        check(report, "coaction-intertwining",
              ((a, m2.arrows[bidx]) for i, a in enumerate(m1.arrows)
               for bidx in np.nonzero(self.matrix[i])[0]),
              lambda ab: (ab[1].x, ab[1].y) == (ab[0].x, ab[0].y),
              lambda ab: f"{ab[0]} maps to {ab[1]}")

        def intertwines(case) -> bool:
            side, s, a = case
            fa = self.apply([(a, 1)])
            if side == "left":
                return self.apply([(m1.left_action(s, a), 1)]) == {
                    m2.left_action(s, b): c for b, c in fa.items()}
            return (self.apply(_apply_right(m1, [(a, 1)], s).items()) ==
                    _apply_right(m2, fa.items(), s))

        check(report, "action-intertwining",
              cases([(("left", "right"), g.generating_sequence()[0], m1.arrows)]),
              intertwines,
              lambda case: f"{case[0]} action of s={g.element_name(case[1])} "
                           f"on arrow {case[2]}")
        return report


def transversal_iso(rsr: RSR, t1: dict[int, list[int]],
                    t2: dict[int, list[int]]) -> BimoduleMap:
    """The explicit isomorphism between the bimodules built from two
    transversals of the same cosets (arrow a^{(i,j)} built from t1 maps to
    sum_s rho^{(i)}(g_theta h_theta^-1)[j,s] times the t2-arrow a^{(i,s)})."""
    g = rsr.group
    m1 = build_bimodule(rsr, t1)
    m2 = build_bimodule(rsr, t2)
    n = len(m1.arrows)
    matrix = np.zeros((n, n), dtype=np.int64)
    for i, a in enumerate(m1.arrows):
        c = g.mul(g.inv(a.x), a.y)
        theta = m1.theta_of[a.cls][c]
        gt = m1.transversal[a.cls][theta]
        ht = m2.transversal[a.cls][theta]
        zelt = rsr.centralizer(a.cls).local[g.mul(gt, g.inv(ht))]
        block = m1.blocks[(a.cls, a.slot)][zelt]
        for s in range(block.shape[1]):
            if block[a.j, s]:
                bidx = m2.arrow_index[ArrowId(a.x, a.y, a.cls, a.slot, s)]
                matrix[i, bidx] = block[a.j, s]
    fmap = BimoduleMap(m1, m2, matrix)
    if not fmap.is_bijective():
        raise AssertionError("transversal-change map failed to be bijective")
    return fmap
