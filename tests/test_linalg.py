import random

import numpy as np
import pytest

from quiverhopf import linalg


def random_matrix(rng, rows, cols, p):
    return np.array([[rng.randrange(p) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


def oracle_rank(a, p):
    """Independent rank: column-oriented elimination on python ints."""
    m = [list(map(int, row)) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    rank = 0
    used = [False] * rows
    for c in range(cols):
        pivot = None
        for r in range(rows):
            if not used[r] and m[r][c] % p:
                pivot = r
                break
        if pivot is None:
            continue
        used[pivot] = True
        rank += 1
        inv = pow(m[pivot][c], p - 2, p)
        for r in range(rows):
            if r != pivot and m[r][c] % p:
                factor = m[r][c] * inv % p
                for cc in range(cols):
                    m[r][cc] = (m[r][cc] - factor * m[pivot][cc]) % p
    return rank


@pytest.mark.parametrize("p", [13, 61, 241])
def test_rank_against_oracle(p):
    rng = random.Random(p)
    for _ in range(20):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
        a = random_matrix(rng, rows, cols, p)
        assert linalg.rank(a, p) == oracle_rank(a, p)


def _shaped_cases(rng, p):
    """Rank-deficient, wide, tall and leading-zero-column matrices."""
    for _ in range(10):
        rows, cols, k = rng.randrange(2, 9), rng.randrange(2, 9), rng.randrange(1, 4)
        low = random_matrix(rng, rows, k, p) @ random_matrix(rng, k, cols, p) % p
        yield low                                         # rank <= k
        yield random_matrix(rng, rng.randrange(1, 4), rng.randrange(6, 12), p)
        yield random_matrix(rng, rng.randrange(6, 12), rng.randrange(1, 4), p)
        lead = random_matrix(rng, rows, cols, p)
        lead[:, : rng.randrange(1, cols)] = 0
        yield lead


@pytest.mark.parametrize("p", [2, 13, 241])
def test_rank_matches_rref_pivots(p):
    rng = random.Random(100 + p)
    for a in _shaped_cases(rng, p):
        r, pivots = linalg.rref(a, p)
        assert linalg.rank(a, p) == len(pivots) == oracle_rank(a, p)
        assert (r[len(pivots):] == 0).all()
        assert pivots == sorted(pivots)


def test_rref_properties():
    rng = random.Random(3)
    p = 23
    for _ in range(15):
        a = random_matrix(rng, rng.randrange(1, 10), rng.randrange(1, 10), p)
        r, pivots = linalg.rref(a, p)
        assert len(pivots) == linalg.rank(a, p)
        for i, c in enumerate(pivots):
            col = r[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_nullspace_and_solve():
    rng = random.Random(5)
    p = 17
    for _ in range(15):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        a = random_matrix(rng, rows, cols, p)
        ns = linalg.nullspace(a, p)
        assert ns.shape[0] == cols - linalg.rank(a, p)
        if ns.size:
            assert not (linalg.matmul(a, ns.T, p)).any()
        x = np.array([rng.randrange(p) for _ in range(cols)], dtype=np.int64)
        b = linalg.matmul(a, x.reshape(-1, 1), p)[:, 0]
        if linalg.rank(a, p) == cols:
            got = linalg.solve(a, b, p)
            assert (linalg.matmul(a, got.reshape(-1, 1), p)[:, 0] == b).all()


def test_inverse():
    rng = random.Random(9)
    p = 13
    for _ in range(10):
        n = rng.randrange(1, 8)
        while True:
            a = random_matrix(rng, n, n, p)
            if linalg.rank(a, p) == n:
                break
        inv = linalg.inverse(a, p)
        assert (linalg.matmul(a, inv, p) == np.eye(n, dtype=np.int64)).all()


def test_solve_errors():
    p = 7
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)   # rank 1
    with pytest.raises(ValueError):
        linalg.solve(a, np.array([1, 1], dtype=np.int64), p)


def test_empty_matrices():
    p = 11
    assert linalg.rank(np.zeros((0, 3), dtype=np.int64), p) == 0
    assert linalg.nullspace(np.zeros((2, 0), dtype=np.int64), p).shape == (0, 0)
