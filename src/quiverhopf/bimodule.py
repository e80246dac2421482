"""The group-algebra Hopf bimodule on the arrow space of a Hopf quiver.

Left action: h . a_{y,x} = a_{hy,hx} (an index shift).  Right action:
a^{(i,j)}_{y,x} . h = sum_s rho^{(i)}(zeta_theta(h))[j,s] a^{(i,s)}_{yh,xh},
where theta is the coset index of x^-1 y and zeta the centralizer factor of
g_theta h.  Coefficient blocks depend only on (class, slot, zeta), so they
are stored densely per class and slot; the verifier exploits the same
factorization to cover every (g, arrow, h) triple exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

import numpy as np

from . import linalg
from .groups import InputError, class_of, coset_transversal
from .quiver import ArrowId, HopfQuiver
from .rsr import RSR

EXHAUSTIVE_TRIPLE_CAP = 10 ** 6


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

    def first_failure(self) -> Optional[Check]:
        return next((c for c in self.checks if not c.ok), None)

    def to_json(self) -> dict:
        return {"passed": self.passed, "mode": self.mode,
                "checks": [c.to_json() for c in self.checks]}


def check(report: Report, name: str, cases: Iterable, test: Callable[..., bool],
          witness: Callable[..., str] = str, weight: int = 1) -> None:
    """Add check `name` to report: test(case) for each case, stopping at the
    first failure.  The count is weight times the cases tried; the witness
    string is formatted for the failing case only."""
    checked = 0
    for case in cases:
        checked += weight
        if not test(case):
            report.add(name, False, checked, witness(case))
            return
    report.add(name, True, checked)


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
        # coefficient blocks per (class, slot): own copies, indexed by local z
        self.blocks: dict[tuple[int, int], list[np.ndarray]] = {}

        for cls in rsr.ram.support:
            u = rsr.u[cls]
            z = rsr.centralizer(cls)
            default_t, theta_of = coset_transversal(g, u)
            t = default_t
            if transversals and cls in transversals:
                t = [int(x) for x in transversals[cls]]
                if len(t) != len(default_t):
                    raise InputError("transversal has wrong length")
                for theta, (h1, h2) in enumerate(zip(default_t, t)):
                    if g.mul(h2, g.inv(h1)) not in z.local:
                        raise InputError(
                            f"coset mismatch at theta={theta} for class {cls}")
            self.transversal[cls] = t
            self.theta_of[cls] = theta_of
            nt = len(t)
            zl = np.empty((nt, g.order), dtype=np.int64)
            tp = np.empty((nt, g.order), dtype=np.int64)
            for theta in range(nt):
                for h in range(g.order):
                    w = g.mul(t[theta], h)
                    theta_p = theta_of[g.conj(u, w)]
                    zeta = g.mul(w, g.inv(t[theta_p]))
                    zl[theta, h] = z.local[zeta]
                    tp[theta, h] = theta_p
            self.zl[cls] = zl
            self.tp[cls] = tp
            for slot in range(len(rsr.irreps[cls])):
                rep = rsr.irrep(cls, slot)
                self.blocks[(cls, slot)] = [m.copy() for m in rep.matrices]

        self._perm_cache: dict[int, np.ndarray] = {}

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

    def coact_left(self, a: ArrowId) -> int:
        return a.y

    def coact_right(self, a: ArrowId) -> int:
        return a.x

    def left_perm(self, h: int) -> np.ndarray:
        """Left action as a permutation of arrow indices."""
        if h not in self._perm_cache:
            perm = np.empty(len(self.arrows), dtype=np.int64)
            for i, a in enumerate(self.arrows):
                perm[i] = self.arrow_index[self.left_action(h, a)]
            self._perm_cache[h] = perm
        return self._perm_cache[h]

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


def verify_bimodule(m: HopfBimodule, exhaustive: Optional[bool] = None,
                    samples: int = 100_000, seed: int = 0) -> Report:
    """Check the Hopf-bimodule axioms.

    Exhaustive mode factors the axioms through the action tables, covering
    every (g, arrow, h) triple; sampled mode draws seeded triples and checks
    them pointwise through the public maps.
    """
    g = m.group
    name = g.element_name
    n = g.order
    narrows = len(m.arrows)
    if exhaustive is None:
        exhaustive = n * narrows <= EXHAUSTIVE_TRIPLE_CAP
    report = Report(mode="exhaustive" if exhaustive else f"sampled({samples})")
    p = m.p
    support = m.rsr.ram.support

    if exhaustive:
        # unit: the zeta tables are trivial at h = e, and e fixes every arrow
        # on both sides
        def unit(case) -> bool:
            side, a = case
            if side == "left":
                return m.left_action(0, a) == a
            if side == "right":
                return m.right_action(a, 0) == [(a, 1)]
            return all((m.zl[cls][:, 0] == 0).all() and
                       (m.tp[cls][:, 0] == np.arange(len(m.transversal[cls]))).all()
                       for cls in support)

        check(report, "unit", itertools.chain(
            [("tables", None)], (("left", a) for a in m.arrows),
            (("right", a) for a in m.arrows)), unit,
            lambda case: "zeta(., e) is not trivial" if case[0] == "tables"
            else f"identity moves arrow {case[1]} on the {case[0]}")

        # left associativity: P_{gh} = P_g . P_h on all arrows
        check(report, "left-associativity", itertools.product(range(n), repeat=2),
              lambda ab: (m.left_perm(g.mul(*ab)) ==
                          m.left_perm(ab[0])[m.left_perm(ab[1])]).all(),
              lambda ab: f"(g,h)=({name(ab[0])},{name(ab[1])})", weight=narrows)

        # right associativity: zeta cocycle at block level, all (theta, g, h)
        def right_assoc(case) -> bool:
            cls, slot, theta, a, b = case
            zl, tp = m.zl[cls], m.tp[cls]
            blocks = m.blocks[(cls, slot)]
            ab, tpa = g.mul(a, b), int(tp[theta, a])
            return tp[theta, ab] == tp[tpa, b] and (
                blocks[int(zl[theta, ab])] ==
                linalg.matmul(blocks[int(zl[theta, a])], blocks[int(zl[tpa, b])], p)).all()

        check(report, "right-associativity",
              ((cls, slot, theta, a, b) for cls in support
               for theta in range(len(m.transversal[cls]))
               for a in range(n) for b in range(n)
               for slot in range(len(m.rsr.irreps[cls]))), right_assoc,
              lambda case: f"class {case[0]} slot {case[1]} theta {case[2]} "
                           f"g={name(case[3])} h={name(case[4])}")

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
            m.arrows, ((h, cls, c, theta) for h in range(n) for cls in support
                       for c, theta in m.theta_of[cls].items())), commutes,
            lambda case: f"arrow {case} has inconsistent class data"
            if isinstance(case, ArrowId) else
            f"class {case[1]} theta {case[3]} h={name(case[0])}")

        # right action by h then h^-1 is the identity
        def invertible(case) -> bool:
            cls, slot, theta, h = case
            zl, tp = m.zl[cls], m.tp[cls]
            blocks = m.blocks[(cls, slot)]
            prod = linalg.matmul(blocks[int(zl[theta, h])],
                                 blocks[int(zl[int(tp[theta, h]), g.inv(h)])], p)
            return (prod == linalg.identity(prod.shape[0])).all()

        check(report, "right-invertibility",
              ((cls, slot, theta, h) for cls in support
               for slot in range(len(m.rsr.irreps[cls]))
               for theta in range(len(m.transversal[cls])) for h in range(n)),
              invertible,
              lambda case: f"class {case[0]} slot {case[1]} theta {case[2]} "
                           f"h={name(case[3])}")
        return report

    # sampled mode: seeded triples checked through the public maps; every
    # check replays the same draws
    def draws():
        rng = random.Random(f"bimodule:{seed}")
        for _ in range(samples):
            yield (m.arrows[rng.randrange(narrows)], rng.randrange(n),
                   rng.randrange(n), rng.randrange(n))

    def commutes_sampled(case) -> bool:
        a, gg, h, _ = case
        lhs = _apply_right(m, [(m.left_action(gg, a), 1)], h)
        rhs = [(m.left_action(gg, b), c) for b, c in m.right_action(a, h)]
        return _normalize(lhs, p) == _normalize(rhs, p)

    def assoc_sampled(case) -> bool:
        a, _, h, h2 = case
        two = _apply_right(m, m.right_action(a, h), h2)
        return _normalize(two, p) == _normalize(m.right_action(a, g.mul(h, h2)), p)

    def invertible_sampled(case) -> bool:
        a, _, h, _ = case
        back = _apply_right(m, m.right_action(a, h), g.inv(h))
        return _normalize(back, p) == _normalize([(a, 1)], p)

    def graded_sampled(case) -> bool:
        a, _, h, _ = case
        return all(b.x == g.mul(a.x, h) and b.y == g.mul(a.y, h)
                   for b, _ in m.right_action(a, h))

    check(report, "left-right-commutation", draws(), commutes_sampled,
          lambda case: f"g={name(case[1])} arrow={case[0]} h={name(case[2])}")
    check(report, "right-associativity", draws(), assoc_sampled,
          lambda case: f"arrow={case[0]} h={name(case[2])} h'={name(case[3])}")
    check(report, "right-invertibility", draws(), invertible_sampled,
          lambda case: f"arrow={case[0]} h={name(case[2])}")
    check(report, "coaction-grading", draws(), graded_sampled,
          lambda case: f"arrow={case[0]} h={name(case[2])}")
    return report


def _apply_right(m: HopfBimodule, combo: list[tuple[ArrowId, int]],
                 h: int) -> list[tuple[ArrowId, int]]:
    out: dict[ArrowId, int] = {}
    for a, c in combo:
        for b, c2 in m.right_action(a, h):
            out[b] = (out.get(b, 0) + c * c2) % m.p
    return [(a, c) for a, c in out.items() if c]


def _normalize(combo: list[tuple[ArrowId, int]], p: int) -> dict:
    out: dict[ArrowId, int] = {}
    for a, c in combo:
        out[a] = (out.get(a, 0) + c) % p
    return {a: c for a, c in out.items() if c}


class BimoduleMap:
    """An arrow-basis linear map between two bimodules on the same quiver."""

    def __init__(self, source: HopfBimodule, target: HopfBimodule,
                 matrix: np.ndarray):
        self.source = source
        self.target = target
        self.matrix = matrix
        self.p = source.p

    def apply(self, combo: list[tuple[ArrowId, int]]) -> list[tuple[ArrowId, int]]:
        out: dict[ArrowId, int] = {}
        for a, c in combo:
            row = self.matrix[self.source.arrow_index[a]]
            for bidx in np.nonzero(row)[0]:
                b = self.target.arrows[bidx]
                out[b] = (out.get(b, 0) + c * int(row[bidx])) % self.p
        return [(a, c) for a, c in out.items() if c]

    def is_bijective(self) -> bool:
        return linalg.rank(self.matrix, self.p) == self.matrix.shape[0]

    def verify(self, exhaustive: bool = True, samples: int = 2000,
               seed: int = 0) -> Report:
        """Check bijectivity and that the map intertwines both actions and
        both coactions."""
        m1, m2 = self.source, self.target
        g = m1.group
        report = Report(mode="exhaustive" if exhaustive else f"sampled({samples})")
        report.add("bijective", self.is_bijective(), 1)

        check(report, "coaction-intertwining",
              ((a, m2.arrows[bidx]) for i, a in enumerate(m1.arrows)
               for bidx in np.nonzero(self.matrix[i])[0]),
              lambda ab: (ab[1].x, ab[1].y) == (ab[0].x, ab[0].y),
              lambda ab: f"{ab[0]} maps to {ab[1]}")

        if exhaustive:
            cases = ((gg, h, a) for gg in range(g.order) for h in range(g.order)
                     for a in m1.arrows)
        else:
            rng = random.Random(f"bimodmap:{seed}")
            pairs = [(rng.randrange(g.order), rng.randrange(g.order))
                     for _ in range(samples)]
            cases = [(gg, h, m1.arrows[rng.randrange(len(m1.arrows))])
                     for gg, h in pairs]

        def intertwines(case) -> bool:
            gg, h, a = case
            lhs = self.apply(_apply_right(m1, [(m1.left_action(gg, a), 1)], h))
            fa = self.apply([(a, 1)])
            rhs = _apply_right(m2, [(m2.left_action(gg, b), c) for b, c in fa], h)
            return _normalize(lhs, self.p) == _normalize(rhs, self.p)

        check(report, "action-intertwining", cases, intertwines,
              lambda case: f"g={g.element_name(case[0])} arrow={case[2]} "
                           f"h={g.element_name(case[1])}")
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
        z = rsr.centralizer(a.cls)
        zelt = z.local[g.mul(gt, g.inv(ht))]
        block = m1.blocks[(a.cls, a.slot)][zelt]
        for s in range(block.shape[1]):
            if block[a.j, s]:
                bidx = m2.arrow_index[ArrowId(a.x, a.y, a.cls, a.slot, s)]
                matrix[i, bidx] = block[a.j, s]
    fmap = BimoduleMap(m1, m2, matrix)
    if not fmap.is_bijective():
        raise AssertionError("transversal-change map failed to be bijective")
    return fmap
