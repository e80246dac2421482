"""Dense exact linear algebra over a prime field F_p.

The hot kernels (matmul, rank, reduced row echelon) are provided twice: a
compiled extension (quiverhopf._modp, built from _modp.pyx) and a numpy
fallback.  The backend is selected once at import; set QUIVERHOPF_PURE=1
to force the fallback.  Both use the same pivoting rule, so all results
are bit-identical.

On dense random input numpy's blocked int64 matmul beats the scalar loop;
the compiled kernel skips zero entries, so it wins on sparse operands;
benchmarks/bench_modp.py shows both regimes.

Matrices are numpy int64 arrays with entries reduced mod p.
"""

from __future__ import annotations

import os

import numpy as np

try:
    if os.environ.get("QUIVERHOPF_PURE") == "1":
        _modp = None
    else:
        from . import _modp  # type: ignore[attr-defined]
except ImportError:
    _modp = None

BACKEND = "compiled" if _modp is not None else "numpy"


def backend_name() -> str:
    return BACKEND


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
    if _modp is not None:
        return _modp.matmul_mod(a, b, p)
    return (a @ b) % p


def _py_rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
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
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= p
        pivots.append(c)
        r += 1
    return m, pivots


def _py_rank(a: np.ndarray, p: int) -> int:
    m = a.copy()
    rows, cols = m.shape
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
        inv = pow(int(m[r, c]), p - 2, p)
        m[r, c:] = (m[r, c:] * inv) % p
        col = m[r + 1:, c].copy()
        m[r + 1:, c:] -= np.outer(col, m[r, c:])
        m[r + 1:, c:] %= p
        r += 1
    return r


def rref(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; returns (matrix, pivot column list)."""
    a = asmod(a, p)
    if a.size == 0:
        return a.copy(), []
    if _modp is not None:
        m, piv = _modp.rref_mod(a, p)
        return m, list(piv)
    return _py_rref(a, p)


def rank(a: np.ndarray, p: int) -> int:
    a = asmod(a, p)
    if a.size == 0:
        return 0
    if _modp is not None:
        return int(_modp.rank_mod(a, p))
    return _py_rank(a, p)


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
