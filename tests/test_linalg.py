import os
import pathlib
import random
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest

import quiverhopf
from quiverhopf import linalg
from quiverhopf.modrep import _is_prime


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


@pytest.mark.parametrize("p", [2, 13, 241])
def test_nullspace_and_solve_on_shaped_matrices(p):
    rng, draws = random.Random(400 + p), random.Random(500 + p)
    solved = 0
    for a in _shaped_cases(rng, p):
        cols = a.shape[1]
        rank = oracle_rank(a, p)
        free = [c for c in range(cols) if c not in linalg.rref(a, p)[1]]
        ns = linalg.nullspace(a, p)
        assert ns.shape == (cols - rank, cols)
        assert np.array_equal(ns[:, free], np.eye(len(free), dtype=np.int64))
        assert not linalg.matmul(a, ns.T, p).any()
        if rank == cols:
            x = random_matrix(draws, cols, 2, p)
            b = linalg.matmul(a, x, p)
            assert np.array_equal(linalg.matmul(a, linalg.solve(a, b, p), p), b)
            assert np.array_equal(linalg.solve(a, b[:, 1], p), x[:, 1])
            solved += 1
    assert solved


def test_rank_nullspace_and_solve_each_eliminate_once(monkeypatch):
    calls = []
    rref = linalg.rref

    def counted(a, p):
        calls.append(a.shape)
        return rref(a, p)

    monkeypatch.setattr(linalg, "rref", counted)
    p = 7
    a = np.array([[1, 2], [3, 4], [5, 6]])
    for run in (lambda: linalg.rank(a, p), lambda: linalg.nullspace(a.T, p),
                lambda: linalg.solve(a, np.array([1, 0, 6]), p)):
        calls.clear()
        run()
        assert len(calls) == 1


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
        inv = linalg.solve(a, linalg.identity(n), p)
        assert (linalg.matmul(a, inv, p) == np.eye(n, dtype=np.int64)).all()


def test_solve_errors():
    p = 7
    a = np.array([[1, 2], [2, 4]], dtype=np.int64)   # rank 1
    with pytest.raises(ValueError, match="inconsistent"):
        linalg.solve(a, np.array([1, 1], dtype=np.int64), p)
    # consistent, but x is not unique
    with pytest.raises(ValueError, match="full column rank"):
        linalg.solve(a, np.array([1, 2], dtype=np.int64), p)


def test_empty_matrices():
    p = 11
    assert linalg.rank(np.zeros((0, 3), dtype=np.int64), p) == 0
    assert linalg.nullspace(np.zeros((2, 0), dtype=np.int64), p).shape == (0, 0)


def _nonzero_rref(a, p):
    r, pivots = linalg.rref(a, p)
    return r[: len(pivots)], pivots


def _extend_cases(rng, p):
    """(A, B) pairs: random, empty basis, zero rows, rank-deficient B and
    B inside the row space of A."""
    for _ in range(8):
        rows, cols = rng.randrange(1, 9), rng.randrange(2, 12)
        a = random_matrix(rng, rows, cols, p)
        yield a, random_matrix(rng, rng.randrange(1, 9), cols, p)
        yield np.zeros((0, cols), dtype=np.int64), random_matrix(rng, rows, cols, p)
        yield a, np.zeros((rng.randrange(0, 3), cols), dtype=np.int64)
        k = rng.randrange(1, 3)
        yield a, random_matrix(rng, 6, k, p) @ random_matrix(rng, k, cols, p) % p
        yield a, random_matrix(rng, 5, rows, p) @ a % p


@pytest.mark.parametrize("p", [2, 13, 241])
def test_extend_equals_rref_of_the_stack(p):
    rng = random.Random(200 + p)
    for a, b in _extend_cases(rng, p):
        basis, pivots = _nonzero_rref(a, p)
        got, got_pivots = linalg.extend(basis, pivots, b, p)
        want, want_pivots = _nonzero_rref(np.concatenate([a, b]), p)
        assert got_pivots == want_pivots
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [13, 241])
def test_coordinates_equal_solve(p):
    rng = random.Random(300 + p)
    for _ in range(15):
        rows, cols = rng.randrange(1, 8), rng.randrange(2, 12)
        basis, pivots = _nonzero_rref(random_matrix(rng, rows, cols, p), p)
        rows = random_matrix(rng, rng.randrange(1, 6), len(basis), p) @ basis % p
        got = linalg.coordinates(basis, pivots, rows, p)
        assert np.array_equal(got, linalg.solve(basis.T, rows.T, p).T)


def test_coordinates_reject_a_row_outside_the_span():
    p = 7
    basis, pivots = _nonzero_rref(np.array([[1, 2, 0], [0, 0, 1]]), p)
    assert linalg.coordinates(basis, pivots, np.array([[2, 4, 3]]), p).tolist() == [[2, 3]]
    with pytest.raises(ValueError):
        linalg.coordinates(basis, pivots, np.array([[0, 1, 0]]), p)
    with pytest.raises(ValueError):
        linalg.coordinates(basis[::-1], pivots, np.array([[2, 4, 3]]), p)


def _kernel_rref(a, p):
    """The per-pivot kernel run on the whole matrix."""
    m = linalg.asmod(a, p)
    return m, linalg._kernel(m, p)


def _fill_cases(rng, rows, cols, p):
    """Zero, rank-deficient, dense and 1 %-fill matrices of one shape."""
    yield np.zeros((rows, cols), dtype=np.int64)
    k = min(rows, cols) // 3
    yield rng.integers(0, p, (rows, k)) @ rng.integers(0, 2, (k, cols)) % p
    yield rng.integers(0, p, (rows, cols))
    yield rng.integers(0, p, (rows, cols)) * (rng.random((rows, cols)) < 0.01)


# widths 63 and 64 go to the kernel, 65 to the in-place rest, and 128, 129
# and 720 to 64-wide panels (140 rows, so the rest rule does not take them)
@pytest.mark.parametrize("rows, cols", [(70, 63), (70, 64), (140, 65), (140, 128),
                                        (140, 129), (85, 720)])
@pytest.mark.parametrize("p", [2, 3, 61, 1621, 10501, 1000000007, 2147483647])
def test_rref_equals_the_kernel_on_the_whole_matrix(rows, cols, p):
    rng = np.random.default_rng([rows, cols, p])
    for a in _fill_cases(rng, rows, cols, p):
        want, want_pivots = _kernel_rref(a, p)
        got, got_pivots = linalg.rref(a, p)   # no OverflowError where the kernel has none
        assert got_pivots == want_pivots
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [1000000007, 2147483647])
def test_panel_products_split_their_inner_dimension(p, monkeypatch):
    # a dense 100 x 300 matrix goes through 64-wide panels; each matmul's
    # inner dimension keeps (p-1)^2 * inner < 2^63
    inner = []
    matmul = linalg.matmul

    def checked(a, b, q):
        inner.append(a.shape[-1])
        return matmul(a, b, q)

    monkeypatch.setattr(linalg, "matmul", checked)
    a = np.random.default_rng(p).integers(0, p, (100, 300))
    got, pivots = linalg.rref(a, p)
    assert pivots == list(range(100))
    assert inner and all((p - 1) ** 2 * n < 2 ** 63 for n in inner)
    monkeypatch.undo()
    assert np.array_equal(got, _kernel_rref(a, p)[0])


def test_panel_clears_only_the_rows_it_touches(monkeypatch):
    # two diagonal blocks: the rows of one block have no nonzero at the
    # other's pivot columns, so each panel's clearing product skips them
    p, rng = 61, np.random.default_rng(7)
    a = np.zeros((300, 400), dtype=np.int64)
    a[:150, :200] = rng.integers(0, p, (150, 200))
    a[150:, 200:] = rng.integers(0, p, (150, 200))
    cleared = []
    clear = linalg._clear

    def counted(m, touch, piv, new, q):
        cleared.append(len(touch))
        return clear(m, touch, piv, new, q)

    monkeypatch.setattr(linalg, "_clear", counted)
    got, pivots = linalg.rref(a, p)
    assert len(pivots) == 300
    assert cleared and max(cleared) <= 150
    assert np.array_equal(got, _kernel_rref(a, p)[0])


def _seam_primes(inner):
    """The largest prime p with (p-1)^2 * inner < 2^53, where matmul's
    float64 products are exact, and the least prime past it."""
    below = above = isqrt((2 ** 53 - 1) // inner) + 1
    while not _is_prime(below):
        below -= 1
    above += 1
    while not _is_prime(above):
        above += 1
    return below, above


# operand shapes, 0 standing for the inner dimension: 2-D, stacked and
# broadcast, and the 3-D by 4-D and 5-D ones of the Nichols engine in yd
SEAM_SHAPES = [((3, 0), (0, 4)), ((2, 3, 0), (0, 4)), ((2, 3, 0), (2, 0, 4)),
               ((3, 3, 0), (2, 3, 0, 5)), ((2, 3, 3, 0), (2, 3, 0, 5)),
               ((2, 3, 2, 2, 0), (2, 3, 2, 0, 3))]


@pytest.mark.parametrize("inner", [1, 7, 64, 300])
def test_products_at_the_float64_seam_equal_python_integers(inner, monkeypatch):
    # entries within 2 of p - 1 put most sums past 2^53 above the seam, odd
    # and even, so a float64 product taken there would round them; every
    # product below the seam takes float64, however small
    monkeypatch.setattr(linalg, "_BLAS_MACS", 0)
    rng = np.random.default_rng(inner)
    below, above = _seam_primes(inner)
    assert linalg._exact_in_float(inner, below)
    assert not linalg._exact_in_float(inner, above)
    for p in (below, above):
        for sa, sb in SEAM_SHAPES:
            a = p - 1 - rng.integers(0, 3, [n or inner for n in sa])
            b = p - 1 - rng.integers(0, 3, [n or inner for n in sb])
            want = (a.astype(object) @ b.astype(object)) % p
            got = linalg.matmul(a, b, p)
            assert got.dtype == np.int64
            assert np.array_equal(got, want.astype(np.int64))
        m = p - 1 - rng.integers(0, 3, (5, inner))
        n = p - 1 - rng.integers(0, 3, (inner, 6))
        want = (m.astype(object) @ n.astype(object)) % p
        assert np.array_equal(linalg._product(m, n, p), want.astype(np.int64))


def _blas_threads(preset):
    """OPENBLAS_NUM_THREADS when numpy is first imported and after `import
    quiverhopf`, in a fresh interpreter whose environment sets it to preset
    (None: unset)."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = str(pathlib.Path(quiverhopf.__file__).parents[1])
    probe = """
import builtins, os
real, seen = builtins.__import__, []
def spy(name, *args, **kwargs):
    if name == "numpy" and not seen:
        seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
    return real(name, *args, **kwargs)
builtins.__import__ = spy
import quiverhopf
print(seen[0], os.environ.get("OPENBLAS_NUM_THREADS"))
"""
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return done.stdout.split()


def test_import_sets_one_blas_thread_unless_the_caller_chose():
    assert _blas_threads(None) == ["1", "1"]
    assert _blas_threads("2") == ["2", "2"]
