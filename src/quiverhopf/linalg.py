"""Dense exact linear algebra over a prime field F_p, on numpy int64 arrays.

Matrices hold entries reduced mod p.  Products are numpy int64 matmuls,
exact while (p-1)^2 times the inner dimension stays below 2^63 (checked).
Rank and reduced row echelon form share one Gaussian elimination: the
first nonzero entry at or below the current row is the pivot, and rank
clears only the rows below it while rref clears every other row.
"""

from __future__ import annotations

import numpy as np


def asmod(a, p: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64) % p
    return np.ascontiguousarray(m)


def _check_mul(n_inner: int, p: int):
    # int64 products stay exact while (p-1)^2 * n_inner < 2^63
    if (p - 1) ** 2 * max(n_inner, 1) >= 2 ** 63:
        raise OverflowError(f"modulus {p} too large for int64 matmul")


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    a = asmod(a, p)
    b = asmod(b, p)
    _check_mul(a.shape[1], p)
    return (a @ b) % p


def _eliminate(a: np.ndarray, p: int, full: bool) -> tuple[np.ndarray, list[int]]:
    """Gaussian elimination on a copy of a; returns (matrix, pivot columns).

    Each pivot row is scaled to 1 and its column cleared below the pivot,
    or in every other row when full (giving the rref).  Whole rows are
    updated: entries left of the pivot are zero in the pivot row, and
    contiguous row operations beat column-sliced ones on the matrices the
    package eliminates (up to |G| x |G| with a few dozen pivots).
    """
    m = a.copy()
    rows, cols = m.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        row = m[r]
        row *= pow(int(row[c]), p - 2, p)
        row %= p
        rest = m if full else m[r + 1:]
        col = rest[:, c].copy()
        if full:
            col[r] = 0
        rest -= np.outer(col, row)
        rest %= p
        pivots.append(c)
        r += 1
    return m, pivots


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = asmod(a, p)
    if a.size == 0:
        return a.copy(), []
    return _eliminate(a, p, full=True)


def rank(a: np.ndarray, p: int) -> int:
    a = asmod(a, p)
    if a.size == 0:
        return 0
    return len(_eliminate(a, p, full=False)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the right kernel of a (a @ x = 0)."""
    a = asmod(a, p)
    rows, cols = a.shape
    if cols == 0:
        return np.zeros((0, 0), dtype=np.int64)
    r, pivots = rref(a, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for i, fc in enumerate(free):
        basis[i, fc] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = (-r[j, fc]) % p
    return basis


def row_space(a: np.ndarray, p: int) -> np.ndarray:
    """Canonical (rref) basis of the row space, zero rows dropped."""
    r, pivots = rref(a, p)
    return r[: len(pivots)].copy()


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve a @ x = b for x; a must have full column rank and b be consistent."""
    a = asmod(a, p)
    b = asmod(b, p)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    aug = np.concatenate([a, b], axis=1)
    r, pivots = rref(aug, p)
    ncols = a.shape[1]
    if any(c >= ncols for c in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ValueError("coefficient matrix does not have full column rank")
    x = np.zeros((ncols, b.shape[1]), dtype=np.int64)
    for j, pc in enumerate(pivots):
        x[pc] = r[j, ncols:]
    return x[:, 0] if single else x


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    return solve(a, np.eye(n, dtype=np.int64), p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
