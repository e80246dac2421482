"""Dense exact linear algebra over a prime field F_p, on numpy int64 arrays.

Matrices hold entries reduced mod p.  Products are numpy int64 matmuls,
exact while (p-1)^2 times the inner dimension stays below 2^63 (checked).
Every elimination is `rref`, the one Gaussian elimination: the first
nonzero entry at or below the current row is the pivot, and its column is
cleared in every other row.  `rank` is its pivot count, and `nullspace`
and `solve` read their results off it.  An rref basis is kept with its
pivot columns: `extend` grows it by rows without eliminating it again, and
`coordinates` reads a vector's coordinates in it at the pivots, checked
with one product.
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
    """a @ b mod p; stacked operands multiply as numpy's matmul does."""
    _check_mul(a.shape[-1], p)
    out = a @ b
    out %= p
    return out


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a; returns (matrix, pivot column list).

    The package's one Gaussian elimination.  Each pivot row is scaled to 1
    and its column cleared in every other row.  Whole rows are updated:
    entries left of the pivot are zero in the pivot row, and contiguous row
    operations beat column-sliced ones on the matrices the package
    eliminates (up to |G| x |G| with a few dozen pivots).
    """
    m = asmod(a, p)     # a fresh array, eliminated in place
    rows, cols = m.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        k = r + int(nz[0])
        if k != r:
            m[[r, k]] = m[[k, r]]
        row = m[r]
        row *= pow(int(row[c]), p - 2, p)
        row %= p
        col = m[:, c].copy()
        col[r] = 0
        m -= col[:, None] * row
        m %= p
        pivots.append(c)
    return m, pivots


def rank(a: np.ndarray, p: int) -> int:
    """The number of pivots of the rref of a."""
    return len(rref(a, p)[1])


def nullspace(a: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning the right kernel of a (a @ x = 0): one per free column
    of the rref r, 1 at that column, 0 at the other free columns and -r's
    entries of that column at the pivots."""
    r, pivots = rref(a, p)
    free = np.delete(np.arange(r.shape[1]), pivots)
    basis = np.zeros((len(free), r.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = -r[: len(pivots), free].T % p
    return basis


def extend(basis: np.ndarray, pivots: list[int], rows: np.ndarray,
           p: int) -> tuple[np.ndarray, list[int]]:
    """The nonzero rows and pivot columns of the rref of basis stacked on
    rows, where basis holds the nonzero rows of an rref with pivot columns
    pivots.

    rows are reduced by basis, only what is left is eliminated, and its
    pivots are cleared from basis; an rref is canonical, so the result is
    the one of the whole stack."""
    rows = asmod(rows, p)
    new, new_pivots = rref(rows - matmul(rows[:, pivots], basis, p), p)
    if not new_pivots:
        return basis, pivots
    new = new[: len(new_pivots)]
    basis = (basis - matmul(basis[:, new_pivots], new, p)) % p
    order = np.argsort(pivots + new_pivots)
    return np.concatenate([basis, new])[order], sorted(pivots + new_pivots)


def coordinates(basis: np.ndarray, pivots: list[int], rows: np.ndarray,
                p: int) -> np.ndarray:
    """c with c @ basis = rows, where basis holds the nonzero rows of an
    rref with pivot columns pivots: the entries of rows at the pivots.  A
    basis not in that form or a row outside its span is a ValueError."""
    rows = asmod(rows, p)
    if basis.shape[0] != len(pivots) or not np.array_equal(
            basis[:, pivots], identity(len(pivots))):
        raise ValueError("basis is not a reduced row echelon form at its pivots")
    coords = rows[:, pivots]
    if not np.array_equal(matmul(coords, basis, p), rows):
        raise ValueError("a row lies outside the span of the basis")
    return coords


def solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Solve a @ x = b for x; a must have full column rank and b be consistent.

    Then the pivots of the rref of [a | b] are the columns of a, in order,
    and x is the right block of its first rows."""
    a, b = asmod(a, p), asmod(b, p)
    single = b.ndim == 1
    if single:
        b = b[:, None]
    r, pivots = rref(np.concatenate([a, b], axis=1), p)
    ncols = a.shape[1]
    if any(c >= ncols for c in pivots):
        raise ValueError("inconsistent linear system")
    if len(pivots) != ncols:
        raise ValueError("coefficient matrix does not have full column rank")
    x = r[:ncols, ncols:]
    return x[:, 0] if single else x


def inverse(a: np.ndarray, p: int) -> np.ndarray:
    n = a.shape[0]
    return solve(a, np.eye(n, dtype=np.int64), p)


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
