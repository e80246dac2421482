"""Dense exact linear algebra over a prime field F_p, on numpy int64 arrays.

Matrices hold entries reduced mod p.  `matmul` multiplies on float64 BLAS
while (p-1)^2 times the inner dimension stays below 2^53, where every
float64 product and partial sum is an exact integer, as FFLAS-FFPACK
(Dumas, Giorgi and Pernet 2008) does, unless the product is too small to
gain from BLAS; otherwise it multiplies in int64, exact while (p-1)^2
times the inner dimension stays below 2^63 (checked).  numpy's int64 `@`
is a plain loop, not BLAS.  `import quiverhopf` sets OPENBLAS_NUM_THREADS
to 1 unless the caller set it, so the products run on one BLAS thread:
with more, the idle workers spin, and on two cores CPU time rose to twice
the wall time.  OpenBLAS reads the variable when numpy loads, so a caller
that imports numpy first keeps its own thread count.
Every elimination is `rref`, the one Gaussian elimination.  Its kernel
takes the first nonzero entry at or below the current row as the pivot
and clears its column in every other row, one pivot at a time; it
eliminates every matrix at most _PANEL = 64 columns wide.  A wider matrix
goes through a panel driver, after FFLAS-FFPACK: the kernel finds a
panel's pivots on a copy of 64 columns, and two products make the new
pivot rows and clear their columns, only in the rows with a nonzero
there.  Past the float64 bound the products split their inner dimension
so that (p-1)^2 times each piece stays below 2^63.  `rank` is the rref's
pivot count, and `nullspace` and `solve` read their results off it.  An
rref basis is kept with its pivot columns: `extend` grows it by rows
without eliminating it again, and `coordinates` reads a vector's
coordinates in it at the pivots, checked with one product.
"""

from __future__ import annotations

import numpy as np

_PANEL = 64     # the widest matrix the kernel eliminates whole
_REST_CELLS = 2 * _PANEL ** 2   # see rref
# fewer multiply-adds than this stay int64 (see matmul)
_BLAS_MACS = 10_000


def asmod(a, p: int) -> np.ndarray:
    m = np.asarray(a, dtype=np.int64) % p
    return np.ascontiguousarray(m)


def _check_mul(n_inner: int, p: int):
    # int64 products stay exact while (p-1)^2 * n_inner < 2^63
    if (p - 1) ** 2 * max(n_inner, 1) >= 2 ** 63:
        raise OverflowError(f"modulus {p} too large for int64 matmul")


def _exact_in_float(n_inner: int, p: int) -> bool:
    # float64 products stay exact while (p-1)^2 * n_inner < 2^53
    return (p - 1) ** 2 * n_inner < 2 ** 53


def matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p; stacked operands multiply as numpy's matmul does.

    a and b must hold entries reduced mod p, in [0, p): the exactness
    bounds below rest on it.  While (p-1)^2 * inner < 2^53 a product of
    at least _BLAS_MACS multiply-adds is taken on float64 BLAS, cast to
    int64 and reduced there (an int64 % beats a float64 one about
    threefold).  Smaller products, and every product past that bound, are
    int64 (checked): below about 10^4 multiply-adds the casts and the BLAS
    call cost more than numpy's int64 loop (3.3 against 1.8 us for 2 x 2
    matrices on two cores), and the verifiers, RSR censuses and low
    Nichols degrees take thousands of products that small."""
    # the multiply-adds, exact unless both operands broadcast
    macs = max(a.size * b.shape[-1], b.size * (a.shape[-2] if a.ndim > 1 else 1))
    if macs >= _BLAS_MACS and _exact_in_float(a.shape[-1], p):
        out = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
    else:
        _check_mul(a.shape[-1], p)
        out = a @ b
    out %= p
    return out


def _kernel(m: np.ndarray, p: int, order: np.ndarray | None = None) -> list[int]:
    """Eliminate the reduced matrix m in place, one pivot at a time, and
    return its pivot columns; order, if given, has m's row swaps applied.

    The first nonzero entry at or below the current row is the pivot; its
    row is scaled to 1 and its column cleared in every other row.  Whole
    rows are updated: entries left of the pivot are zero in the pivot row,
    and contiguous row operations beat column-sliced ones on the matrices
    `rref` gives the kernel: at most _PANEL columns wide, a pivot block
    [B | I], or a rest of at most _REST_CELLS cells past its first panel."""
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
            if order is not None:
                order[[r, k]] = order[[k, r]]
        row = m[r]
        row *= pow(int(row[c]), p - 2, p)
        row %= p
        col = m[:, c].copy()
        col[r] = 0
        m -= col[:, None] * row
        m %= p
        pivots.append(c)
    return pivots


def _product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p: one `matmul` below the float64 bound, and past it the
    inner dimension cut into chunks whose int64 products are exact,
    (p-1)^2 * chunk < 2^63, and the chunks summed mod p."""
    if _exact_in_float(a.shape[1], p):
        return matmul(a, b, p)
    step = max(1, (2 ** 63 - 1) // max((p - 1) ** 2, 1))
    out = matmul(a[:, :step], b[:step], p)
    for lo in range(step, a.shape[1], step):
        out += matmul(a[:, lo:lo + step], b[lo:lo + step], p)
        out %= p
    return out


def _clear(m: np.ndarray, touch: np.ndarray, piv: list[int], new: np.ndarray,
           p: int):
    """Clear the pivot columns piv of the rows touch of m with the pivot
    rows new, which hold m's columns from piv[0]'s panel on."""
    if touch.size:
        c0 = m.shape[1] - new.shape[1]
        cleared = m[touch, c0:]
        cleared -= _product(m[np.ix_(touch, piv)], new, p)
        cleared %= p
        m[touch, c0:] = cleared


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a; returns (matrix, pivot column list).

    The package's one Gaussian elimination.  A matrix at most _PANEL
    columns wide goes to the per-pivot kernel.  A wider one is eliminated
    one panel of _PANEL columns at a time, with r rows already holding
    pivots:
      - the kernel runs on a copy of the panel's rows r:, which gives the
        panel's pivot columns and the k rows S they come from;
      - the kernel on [B | I] inverts the k x k block B of rows S at those
        columns;
      - one product B^-1 m[S] gives the k new pivot rows, moved in place to
        rows r:r+k, and one product clears their columns, only in the rows
        with a nonzero there (most rows of a sparse matrix have none).
    Once the rows r: times the columns past the panel hold at most
    _REST_CELLS = 2 _PANEL^2 cells, copying a panel and inverting its
    block (2 k^2 cells a pivot) would cost more than it saves, and the
    kernel eliminates the rest in place (the last panel always); one
    product clears its pivot columns in the rows above.  Without that rule
    the 81 x 81 Krylov stack of the degree-9 irrep of S6 took twice as
    long.  An rref is canonical, so the result is the kernel's on the
    whole matrix, bit for bit.

    The products are `matmul`s, on float64 BLAS below its bound; past it
    they stay int64, their inner dimension cut so that
    (p-1)^2 * chunk < 2^63: the chunk is 9 at p = 10^9 + 7, 2 at 2^31 - 1
    and at least 1 wherever the kernel's own products are exact.  On two
    cores (Python 3.11, numpy 2.4, one BLAS thread, p = 1621; medians of
    9) the 85 x 720 ideal of the degree-9 irrep of S6 takes 8.4 ms (10.6 ms
    with int64 products, 35 ms in the kernel alone), a 494 x 494 matrix at
    1 % fill 0.10 s (0.12 s; 0.8-1.1 s) and a 641 x 641 one at 1 % fill
    0.16 s (0.22 s; 1.9-2.4 s)."""
    m = asmod(a, p)     # a fresh array, eliminated in place
    rows, cols = m.shape
    if cols <= _PANEL:
        return m, _kernel(m, p)
    pivots: list[int] = []
    for c0 in range(0, cols, _PANEL):
        r = len(pivots)
        rest = m[r:, c0:]
        if not rest.any():
            break
        if (rows - r) * (cols - c0 - _PANEL) <= _REST_CELLS:
            piv = [c0 + c for c in _kernel(rest, p)]
            _clear(m, np.flatnonzero(m[:r, piv].any(axis=1)), piv,
                   m[r:r + len(piv), c0:], p)
            return m, pivots + piv
        order = np.arange(r, rows)
        piv = [c0 + c for c in _kernel(m[r:, c0:c0 + _PANEL].copy(), p, order)]
        k = len(piv)
        if not k:
            continue
        took = order[:k]
        block = np.concatenate([m[np.ix_(took, piv)], identity(k)], axis=1)
        _kernel(block, p)
        new = _product(block[:, k:], m[took, c0:], p)
        # the rows r:r+k that were not taken move to the taken rows below
        taken = np.zeros(rows, dtype=bool)
        taken[took] = True
        m[took[took >= r + k]] = m[r:r + k][~taken[r:r + k]]
        m[r:r + k, c0:] = new
        touch = np.flatnonzero(m[:, piv].any(axis=1))
        _clear(m, touch[(touch < r) | (touch >= r + k)], piv, new, p)
        pivots += piv
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


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)
