"""Coinvariant Yetter-Drinfeld module, braiding, and Nichols-algebra
graded dimensions via quantum symmetrizer ranks.

The coinvariants of the arrow bimodule are the arrows starting at the
identity vertex; the group acts by conjugation (g |> a = g.a.g^-1) and the
grading is the target vertex.  The braiding is the standard one for
Yetter-Drinfeld modules over a group algebra,

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
from .bimodule import HopfBimodule, Report, build_bimodule, check
from .groups import Group, InputError
from .modrep import next_primes
from .quiver import ArrowId
from .rsr import RSR, make_rsr

BRAIDING_CONVENTION = "c(a(x)b) = (deg(a) |> b) (x) a"

DEFAULT_SPACE_CAP = 100_000
DEFAULT_DIM_CAP = 8


class BudgetError(RuntimeError):
    """Tensor-power space exceeds the configured memory budget."""


class YDModule:
    """Arrows with source 1, adjoint action and target grading."""

    def __init__(self, group: Group, p: int, basis: list[ArrowId],
                 grading: list[int], action: dict[int, np.ndarray]):
        self.group = group
        self.p = p
        self.basis = basis
        self.index = {a: i for i, a in enumerate(basis)}
        self.grading = grading          # basis index -> group element (target)
        self.action = action            # g -> dim x dim matrix, column convention
        self.dim = len(basis)

    def act(self, g: int, coords: np.ndarray) -> np.ndarray:
        return linalg.matmul(self.action[g], coords.reshape(-1, 1), self.p)[:, 0]


def coinvariant_yd(m: HopfBimodule) -> YDModule:
    """The coinvariant construction: basis arrows a_{y,1}, action g.a.g^-1."""
    g = m.group
    basis = [a for a in m.arrows if a.x == 0]
    index = {a: i for i, a in enumerate(basis)}
    grading = [a.y for a in basis]
    dim = len(basis)
    action: dict[int, np.ndarray] = {}
    for h in range(g.order):
        mat = np.zeros((dim, dim), dtype=np.int64)
        hin = g.inv(h)
        for jcol, a in enumerate(basis):
            shifted = m.left_action(h, a)
            for b, coeff in m.right_action(shifted, hin):
                mat[index[b], jcol] = coeff % m.p
        action[h] = mat
    return YDModule(g, m.p, basis, grading, action)


def verify_yd(v: YDModule) -> Report:
    """Check the group Yetter-Drinfeld axioms on all (g, basis) data:
    multiplicativity of the action and grading equivariance
    deg(g |> a) = g deg(a) g^-1."""
    g = v.group
    report = Report(mode="exhaustive")
    ok = (v.action[0] == linalg.identity(v.dim)).all() if v.dim else True
    report.add("identity-acts-trivially", bool(ok), 1)

    check(report, "action-multiplicative", itertools.product(range(g.order), repeat=2),
          lambda ab: (v.action[g.mul(*ab)] ==
                      linalg.matmul(v.action[ab[0]], v.action[ab[1]], v.p)).all(),
          lambda ab: f"(g,h)=({g.element_name(ab[0])},{g.element_name(ab[1])})")

    # deg(h |> b_j) = h deg(b_j) h^-1 for every nonzero entry of h's matrix
    check(report, "grading-equivariance",
          ((h, jcol, int(irow)) for h in range(g.order) for jcol in range(v.dim)
           for irow in np.nonzero(v.action[h][:, jcol])[0]),
          lambda c: v.grading[c[2]] == g.conj(v.grading[c[1]], g.inv(c[0])),
          lambda c: f"g={g.element_name(c[0])} basis={v.basis[c[1]]}")
    return report


@dataclass
class Braiding:
    """The braiding of a YD module as a dim^2 x dim^2 matrix over F_p."""

    p: int
    dim: int
    matrix: np.ndarray

    def verify(self) -> Report:
        report = Report(mode="exhaustive")
        d, p = self.dim, self.p
        n2 = d * d
        inv_ok = linalg.rank(self.matrix, p) == n2
        report.add("invertible", inv_ok, 1)
        if d == 0:
            report.add("braid-relation", True, 0)
            return report
        eye = linalg.identity(d)
        c1 = np.kron(self.matrix, eye) % p
        c2 = np.kron(eye, self.matrix) % p
        lhs = linalg.matmul(linalg.matmul(c1, c2, p), c1, p)
        rhs = linalg.matmul(linalg.matmul(c2, c1, p), c2, p)
        report.add("braid-relation", bool((lhs == rhs).all()), lhs.size)
        return report


def braiding(v: YDModule) -> Braiding:
    """c(e_a (x) e_b) = (deg(a) |> e_b) (x) e_a on the tensor-square basis."""
    d, p = v.dim, v.p
    c = np.zeros((d * d, d * d), dtype=np.int64)
    for a in range(d):
        mat = v.action[v.grading[a]]
        for b in range(d):
            col = a * d + b
            for bp in np.nonzero(mat[:, b])[0]:
                c[int(bp) * d + a, col] = mat[int(bp), b]
    return Braiding(p, d, c)


def bubble_word(sigma: Sequence[int]) -> list[int]:
    """A reduced word for sigma from bubble sort (length = inversion count)."""
    arr = list(sigma)
    word = []
    changed = True
    while changed:
        changed = False
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                word.append(j)
                changed = True
    return word


def insertion_word(sigma: Sequence[int]) -> list[int]:
    """A reduced word for sigma from insertion sort; differs from the bubble
    word in general but represents the same permutation."""
    arr = list(sigma)
    word = []
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            word.append(j - 1)
            j -= 1
    return word


def word_permutation(word: Sequence[int], n: int) -> tuple[int, ...]:
    """The permutation whose sorting word is `word` (inverse application)."""
    arr = list(range(n))
    for j in reversed(word):
        arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return tuple(arr)


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
                        word_fn=bubble_word) -> np.ndarray:
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
    product of c.matrix with x viewed as (d^j, d^2, rest), no kron'd operator.
    The caller checks once that int64 sums of d^2 products stay exact."""
    y = c.matrix @ x.reshape(c.dim ** j, c.dim * c.dim, -1)
    y %= c.p
    return y.reshape(x.shape)


def _word_degrees(g: Group, prev: np.ndarray, letters: np.ndarray) -> np.ndarray:
    """G-degree of each word w.a (index w*d + a), the product deg(w) deg(a)."""
    hs, where = np.unique(prev, return_inverse=True)
    table = np.array([[g.mul(int(h), int(a)) for a in letters] for h in hs],
                     dtype=np.int64)
    return table[where].reshape(-1)


def nichols_dims(v: YDModule, max_deg: int,
                 space_cap: int = DEFAULT_SPACE_CAP,
                 dim_cap: int = DEFAULT_DIM_CAP) -> list[int]:
    """Graded dimensions of the Nichols algebra of v up to degree max_deg.

    Im S_n is kept as one basis per G-degree h, stored on the rows of the
    degree-h tensor words only; see the module docstring."""
    if max_deg < 0:
        raise InputError("max_deg must be non-negative")
    if v.dim > dim_cap:
        raise BudgetError(f"module dimension {v.dim} exceeds cap {dim_cap}")
    dims = [1]
    if max_deg == 0:
        return dims
    dims.append(v.dim)
    if v.dim == 0:
        return dims + [0] * (max_deg - 1)
    c = braiding(v)
    d, p = v.dim, v.p
    linalg._check_mul(d * d, p)
    letters = np.asarray(v.grading, dtype=np.int64)
    word_deg = letters
    # Im S_1 = V: (G-degree, its rows, basis as rows over those rows)
    blocks = []
    for h in np.unique(letters):
        rows = np.flatnonzero(letters == h)
        blocks.append((int(h), rows, linalg.identity(len(rows))))
    for n in range(2, max_deg + 1):
        if d ** n > space_cap:
            raise BudgetError(
                f"dim^{n} = {d ** n} exceeds space cap {space_cap}")
        if not blocks:
            dims.append(0)
            continue
        word_deg = _word_degrees(v.group, word_deg, letters)
        # Im S_{n-1} (x) V on the d^n words, each column tagged by G-degree
        width = sum(len(basis) for _, _, basis in blocks) * d
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


def nichols_dims_multiprime(rsr: RSR, max_deg: int, nprimes: int = 3,
                            space_cap: int = DEFAULT_SPACE_CAP,
                            dim_cap: int = DEFAULT_DIM_CAP) -> dict:
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
        per_prime.append(nichols_dims(yd_from_rsr(clone), max_deg, space_cap,
                                      dim_cap))
    agreed = all(d == per_prime[0] for d in per_prime[1:])
    dims = [max(col) for col in zip(*per_prime)]
    return {
        "dims": dims,
        "primes": [f.p for f in fields],
        "per_prime": per_prime,
        "agreed": agreed,
        "braiding": BRAIDING_CONVENTION,
    }
