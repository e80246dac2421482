"""Exact modular representation theory over a splitting prime.

Character tables come from the Burnside-Dixon class-sum method: the class
multiplication constants give commuting matrices over F_p whose common
eigenvectors are the central characters; degrees are recovered from the
orthogonality relation and rows sorted into a canonical order (degree,
then value tuple lifted to {0..p-1}).

Irreducible matrix representations are cut out of the regular module by
the central idempotent of the character and split down to dimension d
with seeded random module endomorphisms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .groups import Group, InputError, class_of, conjugacy_classes


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


def _factor(n: int) -> list[int]:
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _primitive_root(p: int) -> int:
    factors = _factor(p - 1)
    for c in range(2, p):
        if all(pow(c, (p - 1) // q, p) != 1 for q in factors):
            return c
    raise AssertionError(f"no primitive root mod {p}")


@dataclass(frozen=True)
class FieldPrime:
    """A splitting prime for a group: p = 1 (mod e) and p > 2|G|."""

    p: int
    root_order: int       # exponent e of the group
    primitive_root: int
    zeta: int             # fixed primitive e-th root of unity, root^((p-1)/e)

    @classmethod
    def for_prime(cls, p: int, exponent: int) -> "FieldPrime":
        root = _primitive_root(p)
        return cls(p, exponent, root, pow(root, (p - 1) // exponent, p))


def choose_prime(g: Group, min_bound: int = 0) -> FieldPrime:
    """Smallest prime p >= max(min_bound, 2|G|+1) with p = 1 (mod exponent)."""
    e = g.exponent
    p = max(min_bound, 2 * g.order + 1)
    # step to the residue class 1 mod e
    if e > 1:
        p += (1 - p) % e
    else:
        p = max(p, 2)
    while not _is_prime(p):
        p += e if e > 1 else 1
    return FieldPrime.for_prime(p, e)


def validate_prime(g: Group, p: int) -> FieldPrime:
    if not _is_prime(p):
        raise InputError(f"{p} is not prime")
    if p <= 2 * g.order:
        raise InputError(f"prime {p} must exceed 2|G| = {2 * g.order}")
    if (p - 1) % g.exponent != 0:
        raise InputError(f"prime {p} is not 1 mod exponent {g.exponent}")
    return FieldPrime.for_prime(p, g.exponent)


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


def _class_constants(g: Group) -> tuple[np.ndarray, list[int]]:
    """a[i,j,k] = #{x in C_i : x^-1 z_k in C_j} and the inverse-class map."""
    classes = conjugacy_classes(g)
    k = len(classes)
    reps = [c.rep for c in classes]
    a = np.zeros((k, k, k), dtype=np.int64)
    for i, ci in enumerate(classes):
        for x in ci.elements:
            xinv = g.inv(x)
            for kk, z in enumerate(reps):
                j = class_of(g, g.mul(xinv, z))
                a[i, j, kk] += 1
    inv_class = [class_of(g, g.inv(r)) for r in reps]
    return a, inv_class


def character_table(g: Group, f: FieldPrime) -> CharTable:
    """Burnside-Dixon character table of g over F_p."""
    p = f.p
    if (p - 1) % g.exponent != 0 or p <= 2 * g.order:
        raise InputError("field is not a splitting prime for this group")
    classes = conjugacy_classes(g)
    k = len(classes)
    if k == 1:
        return CharTable(p, (1,), ((1,),))
    a, inv_class = _class_constants(g)
    mats = [np.ascontiguousarray(a[i] % p) for i in range(k)]

    # split F_p^k into common eigenspaces of the class-sum matrices;
    # bases are stored as columns
    spaces = [linalg.identity(k)]
    for i in range(1, k):
        if all(s.shape[1] == 1 for s in spaces):
            break
        mi = mats[i]
        new_spaces = []
        for v in spaces:
            if v.shape[1] == 1:
                new_spaces.append(v)
                continue
            mv = linalg.matmul(mi, v, p)
            r = linalg.solve(v, mv, p)          # restriction of M_i to the subspace
            d = v.shape[1]
            found = 0
            for lam in range(p):
                if found == d:
                    break
                ker = linalg.nullspace((r - lam * linalg.identity(d)) % p, p)
                if ker.shape[0] == 0:
                    continue
                new_spaces.append(linalg.matmul(v, ker.T, p))
                found += ker.shape[0]
            assert found == d, "class-sum matrix failed to split over F_p"
        spaces = new_spaces
    if any(s.shape[1] != 1 for s in spaces):
        raise AssertionError("non-splitting prime: common eigenspaces not all 1-dim")

    sizes = [c.size for c in classes]
    rows = []
    degrees = []
    order_mod = g.order % p
    sqrt_cap = math.isqrt(g.order)
    for s in spaces:
        w = s[:, 0] % p
        assert w[0] != 0
        w = (w * pow(int(w[0]), p - 2, p)) % p   # normalize: identity-class entry 1
        acc = 0
        for i in range(k):
            acc += int(w[i]) * int(w[inv_class[i]]) * pow(sizes[i], p - 2, p)
        acc %= p
        d2 = (order_mod * pow(acc, p - 2, p)) % p
        deg = next((d for d in range(1, sqrt_cap + 1) if d * d % p == d2), None)
        assert deg is not None, "character degree not an integer square root"
        row = tuple(int(deg * int(w[i]) * pow(sizes[i], p - 2, p) % p) for i in range(k))
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


class Irrep:
    """An irreducible matrix representation of a group over F_p.

    matrices[i] is the image of element i; the convention is multiplicative,
    rho(ab) = rho(a) @ rho(b), so rows give the right-module action
    x_j . a = sum_s rho(a)[j, s] x_s on row vectors.
    """

    def __init__(self, subgroup: Group, p: int, char_index: int,
                 matrices: list[np.ndarray]):
        self.subgroup = subgroup
        self.p = p
        self.char_index = char_index
        self.matrices = matrices
        self.degree = int(matrices[0].shape[0]) if matrices else 1

    def matrix(self, a: int) -> np.ndarray:
        return self.matrices[a]

    def trace_vector(self) -> tuple[int, ...]:
        return tuple(int(np.trace(m) % self.p) for m in self.matrices)


def _left_mult_perm(g: Group, h: int) -> np.ndarray:
    perm = np.empty(g.order, dtype=np.int64)
    for x in range(g.order):
        perm[x] = g.mul(h, x)
    return perm


def _right_mult_matrix(g: Group, coeffs: dict[int, int], p: int) -> np.ndarray:
    # operator of right multiplication by sum_h coeffs[h]*h on row vectors
    r = np.zeros((g.order, g.order), dtype=np.int64)
    for h, c in coeffs.items():
        for x in range(g.order):
            r[x, g.mul(x, h)] = (r[x, g.mul(x, h)] + c) % p
    return r


def _min_poly_roots(s: np.ndarray, p: int, rng: random.Random) -> list[int]:
    """Eigenvalues of s via the minimal polynomial of a random Krylov vector."""
    m = s.shape[0]
    u = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
    if not u.any():
        u[0] = 1
    rows = [u]
    while True:
        rows.append(linalg.matmul(rows[-1][None, :], s, p)[0])
        k = np.stack(rows)
        if linalg.rank(k, p) < k.shape[0]:
            break
    deg = len(rows) - 1
    coeffs = linalg.solve(np.stack(rows[:deg]).T, rows[deg], p)
    # poly(x) = x^deg - sum coeffs[i] x^i; scan F_p for roots
    roots = []
    for lam in range(p):
        acc = pow(lam, deg, p)
        val = (acc - sum(int(coeffs[i]) * pow(lam, i, p) for i in range(deg))) % p
        if val == 0:
            roots.append(lam)
    return roots


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
    cls_of = [class_of(g, x) for x in range(g.order)]
    if d == 1:
        mats = [np.array([[row[cls_of[x]]]], dtype=np.int64) for x in range(g.order)]
        return Irrep(g, p, char_index, mats)

    # central idempotent (d/|G|) sum chi(x^-1) x acting by left multiplication
    scale = d * pow(g.order % p, p - 2, p) % p
    e = np.zeros((g.order, g.order), dtype=np.int64)
    for x in range(g.order):
        c = scale * row[cls_of[g.inv(x)]] % p
        if c:
            perm = _left_mult_perm(g, x)
            e[perm, np.arange(g.order)] = (e[perm, np.arange(g.order)] + c) % p
    basis = linalg.row_space(e.T, p)            # rows spanning the image
    assert basis.shape[0] == d * d

    rng = random.Random(f"irrep:{seed}:{g.order}:{p}:{char_index}")
    budget = 64
    while basis.shape[0] > d:
        budget -= 1
        if budget < 0:
            raise RuntimeError("irreducible splitting failed within retry budget")
        coeffs = {h: rng.randrange(p) for h in range(g.order)}
        rmat = _right_mult_matrix(g, coeffs, p)
        tb = linalg.matmul(basis, rmat, p)
        # endomorphism in basis coordinates acts on coefficient rows: c -> c @ s
        s = linalg.solve(basis.T, tb.T, p).T
        m = basis.shape[0]
        best = None
        for lam in _min_poly_roots(s, p, rng):
            ker = linalg.nullspace(((s - lam * linalg.identity(m)) % p).T, p)
            dim = ker.shape[0]
            if 0 < dim < m and (best is None or dim < best[0]):
                best = (dim, linalg.matmul(ker, basis, p))
        if best is not None:
            basis = linalg.row_space(best[1], p)

    # matrices on generators by solving in the submodule basis, then words
    gens, expr, order = g.generating_sequence()
    mats: list[Optional[np.ndarray]] = [None] * g.order
    mats[0] = linalg.identity(d)
    gen_mats = []
    for h in gens:
        perm = _left_mult_perm(g, h)
        moved = np.zeros_like(basis)
        moved[:, perm] = basis
        gen_mats.append(linalg.solve(basis.T, moved.T, p))
    for x in order:
        prev, pos = expr[x]
        mats[x] = linalg.matmul(mats[prev], gen_mats[pos], p)
    rep = Irrep(g, p, char_index, mats)  # type: ignore[arg-type]
    assert rep.trace_vector() == tuple(row[cls_of[x]] for x in range(g.order)), \
        "trace of constructed representation does not match its character"
    return rep


class ElementMap:
    """A multiplicative map between (sub)groups, stored on element indices."""

    def __init__(self, src: Group, dst: Group, table: list[int]):
        self.src = src
        self.dst = dst
        self.table = table

    def of(self, a: int) -> int:
        return self.table[a]

    @classmethod
    def conjugation(cls, ambient: Group, h: int, src: Group, dst: Group) -> "ElementMap":
        """z -> h z h^-1 from src to dst, both centralizer subgroups of
        ambient (see groups.centralizer_subgroup)."""
        hin = ambient.inv(h)
        table = [dst.local[ambient.mul(ambient.mul(h, z), hin)] for z in src.embed]
        return cls(src, dst, table)


def rep_twist(rep: Irrep, phi: ElementMap) -> Irrep:
    """The composite representation rho . phi on phi's source group."""
    if phi.dst.elements != rep.subgroup.elements:
        raise InputError("map target does not match the representation domain")
    mats = [rep.matrices[phi.of(z)] for z in range(phi.src.order)]
    return Irrep(phi.src, rep.p, -1, mats)


def rep_equal(a: Irrep, b: Irrep) -> bool:
    """Isomorphism test: equal character vectors (faithful mod a splitting prime)."""
    if a.subgroup.elements != b.subgroup.elements or a.p != b.p:
        raise InputError("representations live over different domains or fields")
    return a.trace_vector() == b.trace_vector()
