"""Exact modular representation theory over a splitting prime.

Character tables come from the Burnside-Dixon class-sum method: the class
multiplication constants give commuting matrices over F_p whose common
eigenvectors are the central characters; degrees are recovered from the
orthogonality relation and rows sorted into a canonical order (degree,
then value tuple lifted to {0..p-1}).  As in Schneider's refinement, the
matrix of a class is built from that class's products alone, and only
when the split first reads it.  Eigenvalues are found as the roots of
minimal polynomials of Krylov sequences (one vectorized Horner pass over
F_p each).  The Krylov stack doubles and is eliminated once per doubling,
as columns, and its first dependent vector gives the minimal polynomial.
A simple spectrum takes its eigenvectors from the Krylov quotients, with
no further elimination; otherwise a nullspace is computed at each root,
never for every element of F_p.  Readers that need only the degrees take
them from group_degrees, which builds no table for an abelian group.

Irreducible matrix representations are cut out of the regular module by
the central idempotent of the character, whose rows e*y, with the y
spread over the group, extend one rref echelon a block at a time, and
split down to dimension d with seeded random module endomorphisms (right
multiplications): from the Krylov roots of one random vector, one nullspace
per root in ascending order, until the first of dimension d.
The endomorphisms and the generators' matrices are read at the pivots of
the rref basis, with no further elimination: an endomorphism is one
(|G|, m) gather of its coefficients and one m x |G| x m product, with no
|G| x |G| operator, once the span is checked closed under right
multiplication by generators.  An irrep is one (|G|, d, d) stack, filled
one word length at a time along the spanning tree of Group.words on
Group.generator_indices: for a parsed group its own generators, whose tree
the closure already built (S6: 2 generators, against 5 in the greedy
generating sequence, each of those a breadth-first search).  A homomorphism
is fixed by its images of any generating set, so the stack does not depend
on which.  The verifiers (yd, bimodule) keep the greedy
Group.generating_sequence, because the `checked` counts they report follow
its length.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .groups import Group, InputError, class_of, conjugacy_classes

# the roots of a polynomial are searched this many elements of F_p at a time
_ROOT_CHUNK = 1 << 16


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class FieldPrime:
    """A splitting prime for a group: p = 1 (mod exponent) and p > 2|G|."""

    p: int


def choose_prime(g: Group, min_bound: int = 0) -> FieldPrime:
    """Smallest prime p >= max(min_bound, 2|G|+1) with p = 1 (mod exponent)."""
    e = g.exponent
    p = max(min_bound, 2 * g.order + 1)
    # step to the residue class 1 mod e
    p += (1 - p) % e
    while not _is_prime(p):
        p += e
    return FieldPrime(p)


def validate_prime(g: Group, p: int) -> FieldPrime:
    # below 2^31 a product of two residues fits int64; trial division of a
    # larger number could also run for hours
    if p >= 1 << 31:
        raise InputError(f"prime {p} must be below 2^31")
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    if p <= 2 * g.order:
        raise InputError(f"prime {p} must exceed 2|G| = {2 * g.order}")
    if (p - 1) % g.exponent != 0:
        raise InputError(f"prime {p} is not 1 mod exponent {g.exponent}")
    return FieldPrime(p)


def next_primes(g: Group, count: int, start: Optional[FieldPrime] = None) -> list[FieldPrime]:
    """count distinct valid primes for g, starting from `start` (or the smallest)."""
    out = [start if start is not None else choose_prime(g)]
    while len(out) < count:
        out.append(choose_prime(g, out[-1].p + 1))
    return out


@dataclass(frozen=True)
class CharTable:
    """Irreducible character table over F_p, canonically ordered rows.

    rows[i][j] is the value of character i on class j (canonical class
    order of the group); degrees[i] = rows[i][0] as a plain integer.
    """

    p: int
    degrees: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def nchars(self) -> int:
        return len(self.rows)

    def to_json(self, g: Group) -> dict:
        classes = conjugacy_classes(g)
        return {
            "p": self.p,
            "degrees": list(self.degrees),
            "classes": [{"rep": g.element_name(c.rep), "size": c.size}
                        for c in classes],
            "rows": [list(r) for r in self.rows],
        }


def _class_matrix(g: Group, i: int) -> np.ndarray:
    """M_i[j, k] = #{x in C_i : x^-1 z_k in C_j}, z_k the representative of
    class k: the matrix of the class sum of C_i, counted from the |C_i| k
    products x^-1 z_k of its members alone."""
    classes = conjugacy_classes(g)
    k = len(classes)
    reps = np.array([c.rep for c in classes])
    members = g.inverses[list(classes[i].elements)]
    j = class_of(g, g.products(members[:, None], reps[None, :]))
    return np.bincount((j * k + np.arange(k)).reshape(-1),
                       minlength=k * k).reshape(k, k)


def _krylov_poly(s: np.ndarray, u: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c of the minimal polynomial x^m - sum_i c[i] x^i of the
    row vector u under u -> u @ s, and the Krylov rows u s^i, i < m.

    The Krylov stack doubles, to 2, 4, 8, ... vectors and at most d + 1,
    one product with s per vector, and is eliminated once per doubling, as
    columns: the first non-pivot column is the first vector u s^m that
    depends on those before it, and its entries in the rref are c."""
    krylov = [linalg.asmod(u, p)[None, :]]
    while True:
        for _ in range(min(len(krylov), s.shape[0] + 1 - len(krylov))):
            krylov.append(linalg.matmul(krylov[-1], s, p))
        stack = np.concatenate(krylov)
        r, pivots = linalg.rref(stack.T, p)
        m = len(pivots)
        if m < len(stack):
            return r[:m, m], stack[:m]


def _poly_roots(coeffs: np.ndarray, p: int) -> list[int]:
    """Roots in F_p, ascending, of x^m - sum_i coeffs[i] x^i, by one Horner
    pass over every element of F_p (in bounded chunks)."""
    roots = []
    for lo in range(0, p, _ROOT_CHUNK):
        x = np.arange(lo, min(lo + _ROOT_CHUNK, p), dtype=np.int64)
        acc = np.ones_like(x)
        for c in coeffs[::-1]:
            acc = (acc * x - int(c)) % p
        roots.extend(x[acc == 0].tolist())
    return roots


def _eigenspaces(s: np.ndarray, p: int, starts) -> dict[int, np.ndarray]:
    """Eigenvalue -> rows spanning the left kernel of s - lambda, over the
    F_p roots of the minimal polynomials of the vectors in starts under
    u -> u @ s, taken until the spaces fill F_p^d.  Over a spanning set of
    starts their lcm is s's minimal polynomial, so fewer than d dimensions
    means s does not split over F_p.

    When a start's minimal polynomial m_u has d distinct roots, and no
    earlier start found a root, the spectrum is simple and the eigenvector
    at lambda is u q(s), with q = m_u / (x - lambda) by synthetic division:
    one product of the quotients with the Krylov rows, each row scaled to
    end in 1, as the nullspace row of a 1-dim kernel does.  Otherwise each
    root costs one nullspace."""
    d = s.shape[0]
    spaces: dict[int, np.ndarray] = {}
    found = 0
    for u in starts:
        if found == d:
            break
        coeffs, krylov = _krylov_poly(s, u, p)
        roots = _poly_roots(coeffs, p)
        if not spaces and len(roots) == d:
            lams = np.array(roots, dtype=np.int64)
            q = np.zeros((d, d), dtype=np.int64)
            q[:, d - 1] = 1
            for i in range(d - 1, 0, -1):
                q[:, i - 1] = (lams * q[:, i] - coeffs[i]) % p
            vecs = linalg.matmul(q, krylov, p)
            last = vecs[np.arange(d), d - 1 - np.argmax(vecs[:, ::-1] != 0, axis=1)]
            vecs = vecs * np.array([pow(int(x), p - 2, p) for x in last])[:, None] % p
            return {root: vecs[i:i + 1] for i, root in enumerate(roots)}
        for lam in roots:
            if lam not in spaces:
                spaces[lam] = linalg.nullspace(((s - lam * linalg.identity(d)) % p).T, p)
                found += len(spaces[lam])
    return spaces


def _check_splitting(g: Group, f: FieldPrime):
    if (f.p - 1) % g.exponent != 0 or f.p <= 2 * g.order:
        raise InputError("field is not a splitting prime for this group")


def character_table(g: Group, f: FieldPrime) -> CharTable:
    """Burnside-Dixon character table of g over F_p."""
    _check_splitting(g, f)
    p = f.p
    classes = conjugacy_classes(g)
    k = len(classes)
    inv_class = class_of(g, g.inverses[[c.rep for c in classes]])

    # split F_p^k into common eigenspaces of the class-sum matrices, built
    # only for the classes read; bases are stored as columns
    spaces = [linalg.identity(k)]
    for i in range(1, k):
        if all(s.shape[1] == 1 for s in spaces):
            break
        mi = _class_matrix(g, i)
        new_spaces = []
        for v in spaces:
            if v.shape[1] == 1:
                new_spaces.append(v)
                continue
            # the restriction of M_i to the subspace; on all of F_p^k, M_i
            d = v.shape[1]
            r = mi if d == k else linalg.solve(v, linalg.matmul(mi, v, p), p)
            eigenspaces = _eigenspaces(r.T, p, linalg.identity(d))
            found = sum(ker.shape[0] for ker in eigenspaces.values())
            assert found == d, "class-sum matrix failed to split over F_p"
            for lam in sorted(eigenspaces):
                new_spaces.append(linalg.matmul(v, eigenspaces[lam].T, p))
        spaces = new_spaces
    if any(s.shape[1] != 1 for s in spaces):
        raise AssertionError("non-splitting prime: common eigenspaces not all 1-dim")

    inv_sizes = np.array([pow(c.size, p - 2, p) for c in classes])
    rows = []
    degrees = []
    order_mod = g.order % p
    sqrt_cap = math.isqrt(g.order)
    for s in spaces:
        w = s[:, 0] % p
        assert w[0] != 0
        w = (w * pow(int(w[0]), p - 2, p)) % p   # normalize: identity-class entry 1
        acc = int((w * w[inv_class] % p * inv_sizes % p).sum() % p)
        d2 = (order_mod * pow(acc, p - 2, p)) % p
        deg = next((d for d in range(1, sqrt_cap + 1) if d * d % p == d2), None)
        assert deg is not None, "character degree not an integer square root"
        row = tuple((deg * w % p * inv_sizes % p).tolist())
        rows.append(row)
        degrees.append(deg)
    order = sorted(range(k), key=lambda i: (degrees[i], rows[i]))
    rows = tuple(rows[i] for i in order)
    degrees = tuple(degrees[i] for i in order)
    assert sum(d * d for d in degrees) == g.order
    return CharTable(p, degrees, rows)


def group_table(g: Group, f: FieldPrime) -> CharTable:
    """character_table with a per-group cache."""
    key = ("chartab", f.p)
    if key not in g.caches:
        g.caches[key] = character_table(g, f)
    return g.caches[key]


def group_degrees(g: Group, f: FieldPrime) -> tuple[int, ...]:
    """The degrees of group_table(g, f), in its canonical order.  A group
    with as many classes as elements is abelian, with |G| linear
    characters, so its degrees are |G| ones and no table is built."""
    if len(conjugacy_classes(g)) == g.order:
        _check_splitting(g, f)
        return (1,) * g.order
    return group_table(g, f).degrees


class Irrep:
    """An irreducible matrix representation of a group over F_p.

    matrices is one read-only (|G|, d, d) int64 stack, matrices[i] the
    image of element i; the convention is multiplicative,
    rho(ab) = rho(a) @ rho(b), so rows give the right-module action
    x_j . a = sum_s rho(a)[j, s] x_s on row vectors.
    """

    def __init__(self, p: int, char_index: int, matrices: np.ndarray):
        self.p = p
        self.char_index = char_index
        self.matrices = matrices
        self.matrices.flags.writeable = False
        self.degree = matrices.shape[1]

    def matrix(self, a: int) -> np.ndarray:
        return self.matrices[a]

    def trace_vector(self) -> tuple[int, ...]:
        return tuple((np.trace(self.matrices, axis1=1, axis2=2) % self.p).tolist())


def _ideal(g: Group, chi: np.ndarray, d: int, p: int) -> tuple[np.ndarray, list[int]]:
    """The rref basis and pivots of the two-sided ideal e*kG (dimension
    d^2) of the central idempotent e = (d/|G|) sum chi(x^-1) x, chi the
    character of degree d on elements.

    The row of e*y holds the coefficient of x at x*y.  The rows extend one
    echelon d^2 + 4 at a time until they span e*kG, a block being barely
    more rows than its rank; an rref is canonical, so the basis is the one
    of the whole matrix.  The y are taken at stride isqrt(|G|) through the
    elements: the first ones in order lie in a point stabiliser and span
    little (S7, degree 6: 51 blocks of 2d^2, spread out 2 of d^2 + 4)."""
    scale = d * pow(g.order % p, p - 2, p) % p
    coeffs = scale * chi[g.inverses] % p
    every = np.arange(g.order)
    spread = np.argsort(every % math.isqrt(g.order), kind="stable")
    basis, pivots = np.zeros((0, g.order), dtype=np.int64), []
    block = d * d + 4
    for lo in range(0, g.order, block):
        ys = spread[lo:lo + block]
        e_y = np.zeros((len(ys), g.order), dtype=np.int64)
        e_y[np.arange(len(ys))[:, None], g.products(every[None, :], ys[:, None])] = coeffs
        basis, pivots = linalg.extend(basis, pivots, e_y, p)
        if len(pivots) == d * d:
            break
    assert len(pivots) == d * d
    return basis, pivots


def _check_right_ideal(g: Group, basis: np.ndarray, pivots: list[int], p: int):
    """ValueError unless the span of basis (rref rows, pivot columns
    pivots) is closed under right multiplication by a generating set of g,
    hence by every element of kG: one stacked coordinates check."""
    gens = g.generator_indices()
    every = np.arange(g.order)
    moved = np.zeros((len(gens),) + basis.shape, dtype=np.int64)
    for i, h in enumerate(gens):
        moved[i][:, g.products(every, h)] = basis   # right multiplication by h
    linalg.coordinates(basis, pivots, moved.reshape(-1, g.order), p)


def _right_mult(g: Group, basis: np.ndarray, pivots: list[int],
                coeffs: np.ndarray, p: int) -> np.ndarray:
    """Right multiplication by c = sum_h coeffs[h] h on a right ideal with
    rref basis and pivots, in its coordinates (acting on coefficient rows,
    v -> v @ s): the rows basis * c read at the pivots, where the entry of
    v * c at z is sum_x v[x] c[x^-1 z], so s = basis @ c[x^-1 * pivots]."""
    at = g.products(g.inverses[:, None], np.asarray(pivots)[None, :])
    return linalg.matmul(basis, coeffs[at], p)


def _split(g: Group, basis: np.ndarray, pivots: list[int], d: int,
           rng: random.Random, p: int) -> tuple[np.ndarray, list[int]]:
    """A d-dimensional irreducible left submodule of the ideal spanned by
    basis: the smallest proper eigenspace of right multiplication by a
    seeded random element of kG, drawn again while none is proper.  Right
    multiplication is a module map only on a right ideal, checked once per
    basis, so a split that leaves more than d dimensions is a ValueError.

    On e*kG = M_d(k) right multiplication commutes with the left action,
    so every eigenspace is a left submodule and its dimension a multiple
    of d: the nullspaces are taken at the roots in ascending order and the
    first of dimension d ends the search, being the smallest."""
    budget = 64
    checked = False
    while len(pivots) > d:
        budget -= 1
        if budget < 0:
            raise RuntimeError("irreducible splitting failed within retry budget")
        if not checked:
            _check_right_ideal(g, basis, pivots, p)
            checked = True
        coeffs = np.array([rng.randrange(p) for _ in range(g.order)], dtype=np.int64)
        s = _right_mult(g, basis, pivots, coeffs, p)
        m = len(pivots)
        u = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
        if not u.any():
            u[0] = 1
        proper = []
        for lam in _poly_roots(_krylov_poly(s, u, p)[0], p):
            ker = linalg.nullspace(((s - lam * linalg.identity(m)) % p).T, p)
            if len(ker) < m:
                proper.append(ker)
                if len(ker) == d:
                    break
        if proper:
            sub, pivots = linalg.rref(linalg.matmul(min(proper, key=len), basis, p), p)
            basis = sub[:len(pivots)]
            checked = False
    return basis, pivots


def irrep_matrices(g: Group, f: FieldPrime, char_index: int, seed: int = 0) -> Irrep:
    """Explicit matrices for character row char_index of g's canonical table.

    Deterministic given (group, prime, char_index, seed); results are cached
    on the group instance.
    """
    cache_key = ("irrep", f.p, char_index, seed)
    if cache_key in g.caches:
        return g.caches[cache_key]
    rep = _irrep_matrices(g, f, char_index, seed)
    g.caches[cache_key] = rep
    return rep


def _irrep_matrices(g: Group, f: FieldPrime, char_index: int, seed: int) -> Irrep:
    p = f.p
    table = group_table(g, f)
    if not 0 <= char_index < table.nchars:
        raise InputError(f"character index {char_index} out of range")
    row = table.rows[char_index]
    d = table.degrees[char_index]
    chi = np.array(row, dtype=np.int64)[class_of(g, np.arange(g.order))]
    if d == 1:
        return Irrep(p, char_index, chi.reshape(-1, 1, 1))

    basis, pivots = _ideal(g, chi, d, p)
    rng = random.Random(f"irrep:{seed}:{g.order}:{p}:{char_index}")
    basis, pivots = _split(g, basis, pivots, d, rng, p)

    # matrices on generators read at the pivots of the submodule basis, then
    # one product per word level along the spanning tree of Group.words
    gens = g.generator_indices()
    every = np.arange(g.order)
    gen_mats = np.zeros((len(gens), d, d), dtype=np.int64)
    for i, h in enumerate(gens):
        moved = np.zeros_like(basis)
        moved[:, g.products(h, every)] = basis  # left multiplication by h
        gen_mats[i] = linalg.coordinates(basis, pivots, moved, p).T
    prev, pos, levels = g.words(gens)
    mats = np.zeros((g.order, d, d), dtype=np.int64)
    mats[0] = linalg.identity(d)
    for level in levels[1:]:
        mats[level] = linalg.matmul(mats[prev[level]], gen_mats[pos[level]], p)
    rep = Irrep(p, char_index, mats)
    assert rep.trace_vector() == tuple(chi.tolist()), \
        "trace of constructed representation does not match its character"
    return rep

