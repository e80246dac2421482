"""Coinvariant Yetter-Drinfeld module, braiding, and Nichols-algebra
graded dimensions via skew derivations.

The coinvariants of the arrow bimodule M = kG (x) V are V: the apv arrows
out of the identity vertex, arrow numbers 0..apv-1 of x * apv + l.  The
group acts by conjugation, g |> a = g.a.g^-1: the bimodule's right action
of g^-1, its `right_terms` only for the elements asked for.  The grading
is the target vertex.  `verify_yd` checks every axiom on the bimodule's
tables, the action's multiplicativity on the pairs (g, s) with s a
generator, which covers every pair, and the grading on every nonzero
entry of `right_terms`.  The braiding is the standard one for
YD modules over a group algebra,

    c(a (x) b) = (deg(a) |> b) (x) a,

and the degree-n component B^n of the Nichols algebra has dimension equal
to the rank over F_p of the quantum symmetrizer S_n = sum_{sigma} T_sigma,
where T_sigma lifts sigma through the braiding along a reduced word
(well-defined by the braid relation).

Production ranks form neither S_n nor a tensor power of V.  The coset
factorization S_n = (S_{n-1} (x) 1) T_n, T_n = sum_j c_{n-2} ... c_j (c_j
applied first), gives S_n(x) = sum_i S_{n-1}(d_i x) (x) e_i for the skew
derivations d_i(x (x) a) = a_i x + d_i(x) (x) (deg(i) |> a): x vanishes in
B^n exactly when every d_i x vanishes in B^{n-1} (Milinski-Schneider 2000;
Andruskiewitsch-Grana 2003).  B^n is spanned by the products e_k . a of a
basis of B^{n-1} with the letters, whose derivations on that basis are

    Phi[(k, a), (i, .)] = delta_ia e_k + sum_b (deg(i) |> e_a)_b (D_i R_b)[k, .]

for D_i : B^{n-1} -> B^{n-2} and R_b : B^{n-2} -> B^{n-1} (right
multiplication) on bases, so dim B^n = rank Phi.  The rref rows of Phi are
the basis of B^n and their blocks i the next D_i; a product's entries at
the pivots are its coordinates, the next R_a.  The recursion starts at
B^0 = k, and as d_i maps G-degree h to h deg(i)^-1, Phi is ranked one
G-degree block at a time.  Each t in G acts on B(V) as a graded algebra
automorphism mapping B^n_h onto B^n_{tht^-1}, so conjugate blocks have
equal dimension (Andruskiewitsch-Schneider, MSRI Publ. 43, 2002;
Heckenberger-Schneider, AMS Surveys 247, 2020).  The last requested degree
feeds no later one, so there only one block of each conjugacy class is
ranked and counted once per block of its class; every lower degree keeps
all its blocks, whose bases the next degree reads.  The dense sum over
Sym(n) (`quantum_symmetrizer`) is the test oracle.  Ranks are computed mod
p; `nichols_dims_multiprime` reports the maximum over several valid primes
and flags disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .bimodule import HopfBimodule, Report, build_bimodule, check_all
from .groups import BudgetError, InputError, class_of
from .modrep import next_primes
from .rsr import RSR, make_rsr

BRAIDING_CONVENTION = "c(a(x)b) = (deg(a) |> b) (x) a"

# cells of the largest array of a Nichols degree: 2^24 int64 cells are
# 128 MiB, and building the derivation matrices holds about four such arrays
CELL_CAP = 1 << 24


class YDModule:
    """The coinvariant Yetter-Drinfeld module of a Hopf bimodule on its local
    arrows 0..dim-1: a view of the bimodule's tables, with no action array."""

    def __init__(self, m: HopfBimodule):
        self.bimodule = m
        self.group = m.group
        self.p = m.p
        self.grading = m.elem.tolist()  # basis index -> group element (target)
        self.dim = m.apv

    def action(self, hs) -> np.ndarray:
        """g |> a for each g in hs, a (len(hs), dim, dim) stack in the column
        convention: the right action of g^-1 on the local arrows."""
        return self.bimodule.right_stack(
            self.group.inverses[np.asarray(hs, dtype=np.intp)])


def coinvariant_yd(m: HopfBimodule) -> YDModule:
    """The coinvariant construction on the local arrows: g |> a = g.a.g^-1."""
    return YDModule(m)


def verify_yd(v: YDModule) -> Report:
    """Check the group Yetter-Drinfeld axioms on the bimodule's tables:
    multiplicativity of the action, on the pairs (g, s) with s a generator,
    and grading equivariance deg(g |> a) = g deg(a) g^-1.  A
    zero-dimensional module gives no cases."""
    g, m, inv = v.group, v.bimodule, v.group.inverses
    report = Report(mode="exhaustive")
    check_all(report, "identity-acts-trivially",
              [(v.action([0])[0] == linalg.identity(v.dim)).all()] if v.dim else [],
              lambda i: "the identity does not act trivially")

    # (gs) |> a = g |> (s |> a) is a . (s^-1 g^-1) = (a . s^-1) . g^-1, the
    # zeta cocycle at (s^-1, g^-1) for all g at once; with e acting as 1
    # above, every pair by the lemma of Group.generating_sequence
    gens = g.generating_sequence() if v.dim else []

    def column_ok(s: int) -> np.ndarray:
        return np.all([m.cocycle(*key, theta, inv[s], inv) for key in m.blocks
                       for theta in range(len(m.transversal[key[0]]))], axis=0)

    check_all(report, "action-multiplicative", [column_ok(s).all() for s in gens],
              lambda i: f"(g,h)=({g.element_name(int(np.argmin(column_ok(gens[i]))))},"
                        f"{g.element_name(gens[i])})",
              weight=g.order)

    # deg(h |> b_j) = h deg(b_j) h^-1 for every nonzero entry of h's matrix,
    # the right action of h^-1.  Cases in the order (h, column, row)
    h, col, row, _ = m.right_terms(inv)
    grading = np.asarray(v.grading, dtype=np.intp)
    check_all(report, "grading-equivariance",
              grading[row] == g.products(g.products(h, grading[col]), inv[h]),
              lambda i: f"g={g.element_name(int(h[i]))} basis={int(col[i])}")
    return report


@dataclass
class Braiding:
    """The braiding of a YD module as a dim^2 x dim^2 matrix over F_p."""

    p: int
    dim: int
    matrix: np.ndarray

    def verify(self) -> Report:
        """Invertibility and the braid relation, one case each on d > 0."""
        report = Report(mode="exhaustive")
        d, p, c = self.dim, self.p, self.matrix
        check_all(report, "invertible", [linalg.rank(c, p) == d * d] if d else [],
                  lambda i: "c is singular")

        def braids() -> bool:
            eye = linalg.identity(d)
            c1, c2 = np.kron(c, eye) % p, np.kron(eye, c) % p
            return (linalg.matmul(linalg.matmul(c1, c2, p), c1, p) ==
                    linalg.matmul(linalg.matmul(c2, c1, p), c2, p)).all()

        check_all(report, "braid-relation", [braids()] if d else [],
                  lambda i: "c1 c2 c1 != c2 c1 c2", weight=d ** 6)
        return report


def braiding(v: YDModule) -> Braiding:
    """c(e_a (x) e_b) = (deg(a) |> e_b) (x) e_a on the tensor-square basis:
    entry [b' d + a, a d + b] is the (b', b) entry of the action of deg(a)."""
    d, p = v.dim, v.p
    c = np.zeros((d, d, d, d), dtype=np.int64)
    diag = np.arange(d)
    c[:, diag, diag, :] = v.action(v.grading).transpose(1, 0, 2)
    return Braiding(p, d, c.reshape(d * d, d * d))


def insertion_word(sigma: Sequence[int]) -> list[int]:
    """A reduced word for sigma from insertion sort (length = inversion count)."""
    arr = list(sigma)
    word = []
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            word.append(j - 1)
            j -= 1
    return word


def braid_operators(c: Braiding, n: int) -> list[np.ndarray]:
    """c_i = 1^(i) (x) c (x) 1^(n-2-i) on the n-fold tensor power."""
    d, p = c.dim, c.p
    ops = []
    for i in range(n - 1):
        left = np.eye(d ** i, dtype=np.int64)
        right = np.eye(d ** (n - 2 - i), dtype=np.int64)
        ops.append(np.kron(np.kron(left, c.matrix), right) % p)
    return ops


def word_operator(word: Sequence[int], ops: list[np.ndarray], dim_total: int,
                  p: int) -> np.ndarray:
    t = np.eye(dim_total, dtype=np.int64)
    for j in word:
        t = linalg.matmul(t, ops[j], p)
    return t


def quantum_symmetrizer(c: Braiding, n: int,
                        word_fn=insertion_word) -> np.ndarray:
    """S_n = sum over Sym(n) of the braid lift of one reduced word each."""
    d, p = c.dim, c.p
    total = d ** n
    ops = braid_operators(c, n)
    s = np.zeros((total, total), dtype=np.int64)
    for sigma in itertools.permutations(range(n)):
        s = (s + word_operator(word_fn(sigma), ops, total, p)) % p
    return s


def nichols_dims(v: YDModule, max_deg: int) -> list[int]:
    """Graded dimensions of the Nichols algebra of v up to degree max_deg.

    D_i and R_a (module docstring) are kept per G-degree block of B^n,
    padded to the largest block and stacked with a zero block last, for the
    G-degrees with no element: deriv[K, k, (i, j)] is D_i of element k of
    block K on element j of block K deg(i)^-1, and right[K, (a, j), k] is
    R_a of element j of block K deg(a)^-1 on element k of block K.  The
    budget: BudgetError when the blocks of a degree and the zero block, each
    d*m by d*max(m, m0) cells for the largest blocks m, m0 of the two
    degrees below, exceed CELL_CAP.  That bounds every array of the degree
    and is checked first; a degree past a zero image allocates nothing.

    At n = max_deg only one block of each conjugacy class of G-degrees is
    built, ranked and weighted by the number of blocks of its class (module
    docstring), the budget counts those blocks, and no D_i or R_a is
    kept."""
    if max_deg < 0:
        raise InputError("max_deg must be non-negative")
    g, d, p = v.group, v.dim, v.p
    letters = np.asarray(v.grading, dtype=np.intp)
    act = v.action(letters).transpose(0, 2, 1)    # [i, a, b]: (deg(i) |> e_a)_b
    # B^0 = k at G-degree e, over B^{-1} = 0
    hs, sizes, m0, m = np.zeros(1, dtype=np.intp), np.array([1, 0]), 0, 1
    deriv = np.zeros((2, m, d * m0), dtype=np.int64)
    right = np.zeros((2, d * m0, m), dtype=np.int64)
    dims = [1]
    for n in range(1, max_deg + 1):
        # block H of B^n is spanned by e_k . a, k in block H deg(a)^-1 of B^{n-1}
        new = np.flatnonzero(np.bincount(
            g.products(hs[:, None], letters[None, :]).ravel(), minlength=g.order))
        if not new.size:
            return dims + [0] * (max_deg + 1 - n)
        if n == max_deg:
            # t |> B^n_h = B^n_{tht^-1}, and new is a union of classes, as
            # the nonzero blocks below and the letters' degrees are: one
            # block of each class is ranked, weighted by the class's blocks
            _, first, weight = np.unique(class_of(g, new), return_index=True,
                                         return_counts=True)
            new = new[first]
        cells = (len(new) + 1) * d * m * d * max(m, m0)
        if cells > CELL_CAP:
            raise BudgetError(f"degree {n} needs {cells} cells, over the cap of {CELL_CAP}")
        at = np.full(g.order, len(hs))
        at[hs] = np.arange(len(hs))
        down = at[g.products(new[:, None], g.inverses[letters][None, :])]
        # phi[H, (a, k), (i, l)] = delta + sum_b (deg(i) |> e_a)_b (D_i R_b)[k, l]
        dr = linalg.matmul(act, right[down].reshape(len(new), d, d, m0 * m), p)
        dr = dr.reshape(len(new), d, d, m0, m).transpose(0, 2, 1, 3, 4)
        dg = deriv[down].reshape(len(new), d, m, d, m0).transpose(0, 1, 3, 2, 4)
        phi = linalg.matmul(dg, dr, p).transpose(0, 1, 3, 2, 4).reshape(len(new), d * m, -1)
        valid = (np.arange(m) < sizes[down][:, :, None]).reshape(len(new), -1)
        phi[:, np.arange(d * m), np.arange(d * m)] += valid
        subs = ((h, idx, phi[h][np.ix_(idx, idx)])
                for h, idx in enumerate(map(np.flatnonzero, valid)))
        if n == max_deg:
            dims.append(sum(int(w) * linalg.rank(sub, p)
                            for w, (_, _, sub) in zip(weight, subs)))
            break
        # the rref rows of a block are its basis, their blocks i its D_i, and
        # a product's entries at the pivots its coordinates, its R_a row
        found = []
        for h, idx, sub in subs:
            r, piv = linalg.rref(sub, p)
            if piv:
                found.append((h, idx, r[:len(piv)], sub[:, piv]))
        m0, m = m, max((len(rows) for _, _, rows, _ in found), default=0)
        deriv = np.zeros((len(found) + 1, m, d * m0), dtype=np.int64)
        right = np.zeros((len(found) + 1, d * m0, m), dtype=np.int64)
        for t, (_, idx, rows, cols) in enumerate(found):
            deriv[t][:len(rows), idx] = rows
            right[t][idx, :len(rows)] = cols
        sizes = np.array([len(rows) for _, _, rows, _ in found] + [0])
        hs = new[[h for h, _, _, _ in found]]
        dims.append(int(sizes.sum()))
    return dims


def yd_from_rsr(rsr: RSR) -> YDModule:
    return coinvariant_yd(build_bimodule(rsr))


def nichols_dims_multiprime(rsr: RSR, max_deg: int, nprimes: int = 3) -> dict:
    """Graded dimensions over several valid primes.

    The mod-p rank can only undershoot the characteristic-0 rank, so the
    entrywise maximum is reported; `agreed` records whether all primes gave
    identical tables.  Character indices are carried across primes through
    the canonical table order.
    """
    fields = next_primes(rsr.group, nprimes, rsr.field)
    per_prime = []
    for f in fields:
        clone = rsr if f.p == rsr.field.p else make_rsr(
            rsr.group, rsr.ram, dict(rsr.u),
            {k: v for k, v in rsr.irreps.items()}, field=f, seed=rsr.seed)
        per_prime.append(nichols_dims(yd_from_rsr(clone), max_deg))
    agreed = all(d == per_prime[0] for d in per_prime[1:])
    dims = [max(col) for col in zip(*per_prime)]
    return {
        "dims": dims,
        "primes": [f.p for f in fields],
        "per_prime": per_prime,
        "agreed": agreed,
        "braiding": BRAIDING_CONVENTION,
    }
