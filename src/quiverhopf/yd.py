"""Coinvariant Yetter-Drinfeld module, braiding, and Nichols-algebra
graded dimensions via quantum symmetrizer ranks.

The coinvariants of the arrow bimodule M = kG (x) V are V: the apv arrows
out of the identity vertex, arrow numbers 0..apv-1 of x * apv + l.  The
group acts by conjugation, g |> a = g.a.g^-1: the bimodule's right action
of g^-1, read off its (theta', zeta) tables only for the elements asked
for.  The grading is the target vertex.  `verify_yd` checks every axiom on
those tables, the action's multiplicativity on the pairs (g, s) with s a
generator, which covers every pair.  The braiding is the standard one for
YD modules over a group algebra,

    c(a (x) b) = (deg(a) |> b) (x) a,

and the degree-n component of the Nichols algebra has dimension equal to
the rank over F_p of the quantum symmetrizer S_n = sum_{sigma} T_sigma,
where T_sigma lifts sigma through the braiding along a reduced word
(well-defined by the braid relation).

Production ranks never form S_n.  They come from the coset recursion
S_n = B_n (S_{n-1} (x) id), B_n = sum_j c_j c_{j+1} ... c_{n-2}, the sum
over minimal coset representatives of Sym(n-1) in Sym(n) (Schauenburg;
Rosso's quantum shuffles): Im S_n = B_n (Im S_{n-1} (x) V), with B_n
applied by braiding two tensor slots at a time.  The braiding preserves
the G-degree of a tensor word, so each image is ranked one G-degree block
at a time.  The dense sum over Sym(n) (`quantum_symmetrizer`) is kept as
the test oracle.  Ranks are computed mod p; `nichols_dims_multiprime`
reports the maximum over several valid primes and flags disagreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .bimodule import HopfBimodule, Report, build_bimodule, check, check_all
from .groups import Group, InputError
from .modrep import next_primes
from .rsr import RSR, make_rsr

BRAIDING_CONVENTION = "c(a(x)b) = (deg(a) |> b) (x) a"

DEFAULT_DIM_CAP = 8
# cells of the working matrix Im S_{n-1} (x) V: 2^25 int64 cells are 256 MiB,
# and braiding it holds about three such arrays
CELL_CAP = 1 << 25


class BudgetError(RuntimeError):
    """The module or a working matrix exceeds the Nichols budget."""


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
    check(report, "identity-acts-trivially", [0] if v.dim else [],
          lambda e: (v.action([e])[0] == linalg.identity(v.dim)).all(),
          lambda e: "the identity does not act trivially")

    # (gs) |> a = g |> (s |> a) is a . (s^-1 g^-1) = (a . s^-1) . g^-1, the
    # zeta cocycle at (s^-1, g^-1) for all g at once; with e acting as 1
    # above, every pair by the lemma of Group.generating_sequence
    gens = g.generating_sequence() if v.dim else []

    def column_ok(s: int) -> np.ndarray:
        return np.all([m.cocycle(*key, theta, inv[s], inv) for key in m.blocks
                       for theta in range(len(m.transversal[key[0]]))], axis=0)

    check(report, "action-multiplicative", gens, lambda s: column_ok(s).all(),
          lambda s: f"(g,h)=({g.element_name(int(np.argmin(column_ok(s))))},"
                    f"{g.element_name(s)})",
          weight=g.order)

    # deg(h |> b_j) = h deg(b_j) h^-1 for every nonzero entry of h's matrix:
    # entry [j, s] of the block at (theta, h^-1) sends arrow (theta, j) to
    # (theta', s).  Cases in the order (h, column, row)
    found = [np.zeros((3, 0), dtype=np.intp)]
    for (cls, slot), blocks in m.blocks.items():
        src = m.slot_arrows(cls, slot)
        theta, h, j, s = np.nonzero(blocks[m.zl[cls][:, inv]])
        found.append(np.stack([h, src[theta, j], src[m.tp[cls][theta, inv[h]], s]]))
    found = np.concatenate(found, axis=1)
    h, col, row = found[:, np.lexsort(found[::-1])]
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
        d, p = self.dim, self.p
        one = [self.matrix] if d else []
        check(report, "invertible", one, lambda c: linalg.rank(c, p) == d * d,
              lambda c: "c is singular")

        def braids(c: np.ndarray) -> bool:
            eye = linalg.identity(d)
            c1, c2 = np.kron(c, eye) % p, np.kron(eye, c) % p
            return (linalg.matmul(linalg.matmul(c1, c2, p), c1, p) ==
                    linalg.matmul(linalg.matmul(c2, c1, p), c2, p)).all()

        check(report, "braid-relation", one, braids,
              lambda c: "c1 c2 c1 != c2 c1 c2", weight=d ** 6)
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


def _braid_slots(c: Braiding, x: np.ndarray, j: int) -> np.ndarray:
    """c applied to tensor slots j, j+1 of every column of x (d^n rows): one
    product of c.matrix with x viewed as (d^j, d^2, rest), no kron'd operator."""
    y = linalg.matmul(c.matrix, x.reshape(c.dim ** j, c.dim * c.dim, -1), c.p)
    return y.reshape(x.shape)


def _word_degrees(g: Group, prev: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """G-degree of each word w.a (index w*d + a), the product deg(w) deg(a)."""
    hs, where = np.unique(prev, return_inverse=True)
    table = g.products(hs[:, None], letters[None, :]).astype(np.int64)
    return table[where].reshape(-1)


def nichols_dims(v: YDModule, max_deg: int) -> list[int]:
    """Graded dimensions of the Nichols algebra of v up to degree max_deg.

    Im S_n is kept as one basis per G-degree h, stored on the rows of the
    degree-h tensor words only; see the module docstring.  The budget:
    BudgetError when the module dimension exceeds DEFAULT_DIM_CAP, or when
    the working matrix of a degree, d^n words by the columns of
    Im S_{n-1} (x) V, would exceed CELL_CAP cells.  It is checked before
    that matrix is allocated, and a degree whose image is already zero
    allocates nothing."""
    if max_deg < 0:
        raise InputError("max_deg must be non-negative")
    if v.dim > DEFAULT_DIM_CAP:
        raise BudgetError(f"module dimension {v.dim} exceeds cap {DEFAULT_DIM_CAP}")
    dims = [1]
    if max_deg == 0:
        return dims
    dims.append(v.dim)
    if v.dim == 0:
        return dims + [0] * (max_deg - 1)
    c = braiding(v)
    d, p = v.dim, v.p
    letters = np.asarray(v.grading, dtype=np.int64)
    word_deg = letters
    # Im S_1 = V: (G-degree, its rows, basis as rows over those rows)
    blocks = []
    for h in np.unique(letters):
        rows = np.flatnonzero(letters == h)
        blocks.append((int(h), rows, linalg.identity(len(rows))))
    for n in range(2, max_deg + 1):
        if not blocks:
            dims.append(0)
            continue
        # Im S_{n-1} (x) V on the d^n words, each column tagged by G-degree
        width = sum(len(basis) for _, _, basis in blocks) * d
        if d ** n * width > CELL_CAP:
            raise BudgetError(
                f"degree {n} needs {d ** n} x {width} = {d ** n * width} "
                f"cells, over the cap of {CELL_CAP}")
        word_deg = _word_degrees(v.group, word_deg, letters)
        x = np.zeros((d ** n, width), dtype=np.int64)
        col_deg = np.empty(width, dtype=np.int64)
        at = 0
        for h, rows, basis in blocks:
            k = len(basis)
            for a in range(d):
                x[rows * d + a, at:at + k] = basis.T
                col_deg[at:at + k] = v.group.mul(h, int(letters[a]))
                at += k
        # B_n x = sum_j c_j ... c_{n-2} x, by braiding slots n-2, ..., 0
        image, y = x, x
        for j in range(n - 2, -1, -1):
            y = _braid_slots(c, y, j)
            image += y
            image %= p
        blocks = []
        for h in np.unique(col_deg):
            rows = np.flatnonzero(word_deg == h)
            basis = linalg.row_space(image[np.ix_(rows, col_deg == h)].T, p)
            if len(basis):
                blocks.append((int(h), rows, basis))
        dims.append(sum(len(basis) for _, _, basis in blocks))
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
