import hashlib
import random

import numpy as np
import pytest

from quiverhopf import (
    InputError,
    choose_prime,
    class_of,
    conjugacy_classes,
    irrep_matrices,
    parse_group,
    validate_prime,
)
from quiverhopf import linalg
from quiverhopf.modrep import (
    CharTable,
    FieldPrime,
    _check_right_ideal,
    _class_matrix,
    _eigenspaces,
    _ideal,
    _is_prime,
    _krylov_poly,
    _poly_roots,
    _right_mult,
    _split,
    character_table,
    group_table,
    next_primes,
)


def test_choose_prime_examples(s3, s4):
    assert choose_prime(s3).p == 13
    assert choose_prime(parse_group("C1")).p == 3
    # oracle: scan primes = 1 mod 12 exceeding 2*24
    p = 49
    while not (_is_prime(p) and p % 12 == 1):
        p += 1
    assert choose_prime(s4).p == p == 61


@pytest.mark.parametrize("spec", ["C1", "S1"])
def test_trivial_group_takes_the_general_path(spec):
    # exponent 1 and a single class: the prime scan and the eigenspace
    # split run as for any other group
    g = parse_group(spec)
    assert [f.p for f in next_primes(g, 3)] == [3, 5, 7]
    assert character_table(g, choose_prime(g)) == CharTable(3, (1,), ((1,),))


def test_choose_prime_invariants():
    for spec in ("S3", "S4", "D4", "Q8", "A4", "C6"):
        g = parse_group(spec)
        f = choose_prime(g)
        assert _is_prime(f.p)
        assert f.p > 2 * g.order
        assert (f.p - 1) % g.exponent == 0


def test_validate_prime(s3):
    assert validate_prime(s3, 13).p == 13
    with pytest.raises(InputError):
        validate_prime(s3, 12)       # not prime
    with pytest.raises(InputError):
        validate_prime(s3, 11)       # too small
    with pytest.raises(InputError):
        validate_prime(s3, 17)       # not 1 mod 6
    # a FieldPrime built directly is checked again where it is used: 7 is
    # 1 mod 6 but not past 2|G| = 12
    with pytest.raises(InputError, match="not a splitting prime"):
        character_table(s3, FieldPrime(7))
    with pytest.raises(InputError, match="character index 99 out of range"):
        irrep_matrices(s3, validate_prime(s3, 13), 99)


def test_character_table_s3(s3, s3_field):
    t = character_table(s3, s3_field)
    assert t.degrees == (1, 1, 2)
    p = s3_field.p
    assert t.rows[0] == (1, 1, 1)                 # trivial
    assert t.rows[1] == (1, p - 1, 1)             # sign
    assert t.rows[2] == (2, 0, p - 1)             # 2-dimensional


def test_character_table_c2():
    g = parse_group("C2")
    f = choose_prime(g)
    t = character_table(g, f)
    assert t.rows == ((1, 1), (1, f.p - 1))


def test_character_table_s4(s4, s4_field):
    assert character_table(s4, s4_field).degrees == (1, 1, 2, 3, 3)


@pytest.mark.parametrize("spec", ["S3", "S4", "S5", "D4", "Q8", "A4"])
def test_row_orthogonality(spec):
    g = parse_group(spec)
    f = choose_prime(g)
    t = character_table(g, f)
    classes = conjugacy_classes(g)
    sizes = [c.size for c in classes]
    inv_class = [class_of(g, g.inv(c.rep)) for c in classes]
    p = f.p
    for i, ri in enumerate(t.rows):
        for k, rk in enumerate(t.rows):
            s = sum(sizes[j] * ri[j] * rk[inv_class[j]] for j in range(len(sizes))) % p
            assert s == (g.order % p if i == k else 0)
    assert sum(d * d for d in t.degrees) == g.order


@pytest.mark.parametrize("spec", ["S3", "S4"])
def test_degrees_stable_across_primes(spec):
    g = parse_group(spec)
    fields = next_primes(g, 3)
    assert len({f.p for f in fields}) == 3
    degs = [character_table(g, f).degrees for f in fields]
    assert degs[0] == degs[1] == degs[2]


def test_irrep_c2_sign():
    g = parse_group("C2")
    f = choose_prime(g)
    rep = irrep_matrices(g, f, 1)
    assert rep.matrices[0].tolist() == [[1]]
    assert rep.matrices[1].tolist() == [[f.p - 1]]


def test_irrep_trivial_character(s3, s3_field):
    rep = irrep_matrices(s3, s3_field, 0)
    assert all(m.tolist() == [[1]] for m in rep.matrices)


def test_irrep_s3_two_dimensional(s3, s3_field):
    rep = irrep_matrices(s3, s3_field, 2, seed=0)
    assert rep.degree == 2
    three_cycle = s3.find((1, 2, 0))
    assert int(np.trace(rep.matrix(three_cycle)) % s3_field.p) == s3_field.p - 1


@pytest.mark.parametrize("spec,idx", [("S3", 2), ("S4", 2), ("S4", 3), ("S4", 4)])
def test_irrep_multiplicative(spec, idx):
    g = parse_group(spec)
    f = choose_prime(g)
    rep = irrep_matrices(g, f, idx, seed=0)
    eye = np.eye(rep.degree, dtype=np.int64)
    assert (rep.matrix(0) == eye).all()
    for a in range(g.order):
        ma = rep.matrix(a)
        for b in range(g.order):
            assert (rep.matrix(g.mul(a, b)) == (ma @ rep.matrix(b)) % f.p).all()


@pytest.mark.parametrize("spec,idx", [("C2", 1), ("S4", 3)])
def test_irrep_matrices_are_one_read_only_stack(spec, idx):
    g = parse_group(spec)
    rep = irrep_matrices(g, choose_prime(g), idx)
    m = rep.matrices
    assert isinstance(m, np.ndarray) and m.dtype == np.int64
    assert m.shape == (g.order, rep.degree, rep.degree)
    assert not m.flags.writeable
    with pytest.raises(ValueError):
        m[0, 0, 0] = 0
    assert all(type(t) is int for t in rep.trace_vector())


def test_irrep_deterministic(s4, s4_field):
    r1 = irrep_matrices(s4, s4_field, 3, seed=5)
    r2 = irrep_matrices(s4, s4_field, 3, seed=5)
    assert all((a == b).all() for a, b in zip(r1.matrices, r2.matrices))


def test_irrep_trace_matches_character(s4, s4_field):
    t = group_table(s4, s4_field)
    for idx in range(t.nchars):
        rep = irrep_matrices(s4, s4_field, idx, seed=1)
        expected = tuple(t.rows[idx][class_of(s4, x)] for x in range(s4.order))
        assert rep.trace_vector() == expected


@pytest.mark.parametrize("spec", ["Q8", "D4"])
def test_two_dimensional_irrep_of_order_eight_groups(spec):
    g = parse_group(spec)
    f = choose_prime(g)
    t = character_table(g, f)
    assert t.degrees == (1, 1, 1, 1, 2)
    rep = irrep_matrices(g, f, 4, seed=0)
    assert rep.degree == 2
    for a in range(g.order):
        for b in range(g.order):
            assert (rep.matrix(g.mul(a, b)) ==
                    (rep.matrix(a) @ rep.matrix(b)) % f.p).all()


def test_table_rows_canonically_sorted():
    for spec in ("S3", "S4", "D4", "A4"):
        g = parse_group(spec)
        t = character_table(g, choose_prime(g))
        keys = [(d, r) for d, r in zip(t.degrees, t.rows)]
        assert keys == sorted(keys)


def test_character_table_s6():
    g = parse_group("S6")
    f = choose_prime(g)
    t = character_table(g, f)
    assert t.degrees == (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16)
    assert sum(d * d for d in t.degrees) == 720


def _scalar_roots(coeffs, p):
    m = len(coeffs)
    return [lam for lam in range(p)
            if (pow(lam, m, p) - sum(int(c) * pow(lam, i, p)
                                     for i, c in enumerate(coeffs))) % p == 0]


@pytest.mark.parametrize("p", [13, 61, 1621])
def test_min_poly_root_scan_matches_scalar_evaluation(p):
    rng = random.Random(p)
    for m in range(1, 8):
        # a diagonalizable matrix with repeated eigenvalues, in a random basis
        while True:
            q = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(m)])
            if linalg.rank(q, p) == m:
                break
        diag = np.diag([rng.randrange(3) for _ in range(m)])
        conj = linalg.matmul(linalg.matmul(linalg.solve(q, linalg.identity(m), p), diag, p), q, p)
        plain = np.array([[rng.randrange(p) for _ in range(m)] for _ in range(m)])
        for s in (conj, plain):
            seed = rng.randrange(1000)
            draw = random.Random(seed)
            u = np.array([draw.randrange(p) for _ in range(m)], dtype=np.int64)
            coeffs, _ = _krylov_poly(s, u, p)
            # u s^deg is the combination of the lower powers given by coeffs
            powers = [u]
            for _ in range(len(coeffs)):
                powers.append(linalg.matmul(powers[-1][None, :], s, p)[0])
            assert (powers[-1] == sum(int(c) * w for c, w in
                                      zip(coeffs, powers)) % p).all()
            assert _poly_roots(coeffs, p) == _scalar_roots(coeffs, p)
            assert list(_eigenspaces(s, p, [u])) == _scalar_roots(coeffs, p)
        u = np.array([rng.randrange(p) for _ in range(m)], dtype=np.int64)
        assert set(_eigenspaces(conj, p, [u])) <= set(np.diag(diag).tolist())


def test_krylov_sequence_stops_at_the_first_dependence(monkeypatch):
    p = 61
    # a 40x40 matrix with minimal polynomial (x - 2)(x - 5)
    s = np.diag([2] * 20 + [5] * 20)
    u = np.arange(1, 41, dtype=np.int64)
    calls = []
    matmul = linalg.matmul
    monkeypatch.setattr(linalg, "matmul",
                        lambda a, b, p: calls.append(a.shape) or matmul(a, b, p))
    coeffs, krylov = _krylov_poly(s, u, p)
    assert coeffs.tolist() == [(-10) % p, 7]
    assert krylov.tolist() == [u.tolist(), (u * np.diag(s) % p).tolist()]
    # the stack doubles to 2, then to 4 vectors, where u s^2 depends on the
    # first two: one vector product for each vector past u
    assert calls == [(1, 40)] * 3


def test_krylov_relation_comes_from_one_rref_per_doubling(monkeypatch):
    p = 61
    s = np.diag([2] * 3 + [5] * 3)
    u = np.arange(1, 7, dtype=np.int64)
    calls = []
    for name in ("rank", "solve", "rref"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, name=name, real=real:
                            calls.append((name, a[0].shape)) or real(*a))
    assert _krylov_poly(s, u, p)[0].tolist() == [(-10) % p, 7]
    # the stack of 2 vectors, then of 4, eliminated as columns
    assert calls == [("rref", (6, 2)), ("rref", (6, 4))]


@pytest.mark.parametrize("spec", ["S5", "S6"])
def test_character_table_nullspaces_only_at_eigenvalues(spec, monkeypatch):
    g = parse_group(spec)
    f = choose_prime(g)
    k = len(conjugacy_classes(g))
    calls = []
    nullspace = linalg.nullspace
    monkeypatch.setattr(linalg, "nullspace",
                        lambda a, p: calls.append(a.shape) or nullspace(a, p))
    t = character_table(g, f)
    assert sum(d * d for d in t.degrees) == g.order
    if spec == "S5":
        # S5 splits on one class with a simple spectrum: every eigenvector is
        # a Krylov quotient
        assert calls == []
    else:
        # S6's first split has repeated roots: one call per eigenvalue of each
        # such split, where a scan of F_p made about p (1621)
        assert 0 < len(calls) <= 2 * k


def test_eigenspaces_fall_short_when_a_matrix_does_not_split():
    p = 7
    # x^2 + 1 has no root mod 7; a Jordan block has a 1-dim eigenspace
    for r in (np.array([[0, p - 1], [1, 0]]), np.array([[3, 1], [0, 3]])):
        spaces = _eigenspaces(r.T, p, linalg.identity(2))
        assert sum(ker.shape[0] for ker in spaces.values()) < 2
    r = np.array([[2, 0, 0], [0, 5, 0], [0, 0, 2]])
    spaces = _eigenspaces(r.T, p, linalg.identity(3))
    assert {lam: ker.shape[0] for lam, ker in spaces.items()} == {2: 2, 5: 1}
    for lam, ker in spaces.items():
        assert (linalg.matmul(r, ker.T, p) == lam * ker.T % p).all()


@pytest.mark.parametrize("p", [13, 61, 1621])
def test_krylov_quotient_eigenvectors_equal_the_nullspace_rows(p, monkeypatch):
    rng = random.Random(f"quotients:{p}")
    nullspace = linalg.nullspace
    quotients = 0
    for _ in range(200):
        d = rng.randrange(1, 9)
        # a diagonalizable matrix with d distinct eigenvalues, in a random basis
        while True:
            q = np.array([[rng.randrange(p) for _ in range(d)] for _ in range(d)])
            if linalg.rank(q, p) == d:
                break
        lams = sorted(rng.sample(range(p), d))
        s = linalg.matmul(linalg.matmul(linalg.solve(q, linalg.identity(d), p), np.diag(lams), p), q, p)
        expected = [nullspace(((s - lam * linalg.identity(d)) % p).T, p) for lam in lams]
        u = np.array([rng.randrange(p) for _ in range(d)], dtype=np.int64)
        simple = len(_krylov_poly(s, u, p)[0]) == d
        calls = []
        monkeypatch.setattr(linalg, "nullspace",
                            lambda a, p: calls.append(a.shape) or nullspace(a, p))
        spaces = _eigenspaces(s, p, [u] + list(linalg.identity(d)))
        monkeypatch.setattr(linalg, "nullspace", nullspace)
        assert sorted(spaces) == lams
        for lam, ker in zip(lams, expected):
            assert spaces[lam].dtype == ker.dtype
            assert spaces[lam].tolist() == ker.tolist()
        # a start whose minimal polynomial has every root takes no nullspace
        assert calls == [] or not simple
        quotients += simple
    assert quotients >= 100


def _class_constants(g):
    """Oracle: a[i, j, k] = #{x in C_i : x^-1 z_k in C_j} for all classes at
    once, from all |G| k products x^-1 z_k."""
    classes = conjugacy_classes(g)
    k = len(classes)
    reps = [c.rep for c in classes]
    cls = class_of(g, np.arange(g.order))
    j = cls[g.products(g.inverses[:, None], np.array(reps)[None, :])]
    a = np.zeros((k, k, k), dtype=np.int64)
    np.add.at(a, (cls[:, None], j, np.arange(k)[None, :]), 1)
    return a


@pytest.mark.parametrize("spec", ["S3", "S4", "D4", "Q8", "A5", "S3xC2", "C12", "S6"])
def test_class_matrices_equal_the_class_constants(spec):
    g = parse_group(spec)
    a = _class_constants(g)
    for i in range(len(a)):
        m = _class_matrix(g, i)
        assert m.dtype == np.int64
        assert np.array_equal(m, a[i])


@pytest.mark.parametrize("n", [12, 100])
def test_cyclic_character_table_is_the_closed_form(n):
    g = parse_group(f"C{n}")
    f = choose_prime(g)
    p = f.p
    # the class of g^b is {g^b}, and g^b maps 0 to b for g = (0 1 ... n-1)
    powers = [int(g.perms[c.rep][0]) for c in conjugacy_classes(g)]
    # a primitive n-th root of unity: z^n = 1 and z^(n/q) != 1 for each prime q | n
    zeta = next(z for z in range(2, p) if pow(z, n, p) == 1 and all(
        pow(z, n // q, p) != 1 for q in range(2, n + 1)
        if n % q == 0 and all(q % r for r in range(2, q))))
    expected = {tuple(pow(zeta, a * b, p) for b in powers) for a in range(n)}
    assert len(expected) == n
    assert set(character_table(g, f).rows) == expected


# SHA-256 of np.stack(matrices).tobytes() for the degree-5 and degree-9
# irreps of S6 at seed 0, frozen before the regular-module operators and the
# eigenvalue search were vectorized
S6_IRREP_SHA256 = {
    5: "95990b9b472b180d17e0aa847fabb434469888c7fc4204eb74b5cac59cb42228",
    9: "8eb454679e20342b74c100a0cbb768328348de03e31103fa5bb5691b421d8ace",
}


@pytest.mark.parametrize("degree", sorted(S6_IRREP_SHA256))
def test_s6_irreps_bit_identical(degree):
    g = parse_group("S6")
    f = choose_prime(g)
    t = group_table(g, f)
    rep = irrep_matrices(g, f, t.degrees.index(degree), seed=0)
    digest = hashlib.sha256(np.stack(rep.matrices).tobytes()).hexdigest()
    assert digest == S6_IRREP_SHA256[degree]


# (degree, seed) -> SHA-256 as above, frozen before the split and the
# generator matrices read coordinates at the pivots of the irrep basis
S6_IRREP_SEED_SHA256 = {
    (10, 0): "701dc610b4e43d4c61a8fb03879ff11581bd296fcbeb817c3d724b25376947e7",
    (16, 0): "541b65927c7d7a46b9db7dc3fca980ebf70379c003618f97fd5e83bfece82b6f",
    (16, 21): "34b5de543c36bf943ee111324a06062a3bd3d03ef793af000042149da307ef0b",
}


@pytest.mark.parametrize("degree, seed", sorted(S6_IRREP_SEED_SHA256))
def test_s6_irreps_at_seeds_bit_identical(degree, seed):
    g = parse_group("S6")
    f = choose_prime(g)
    t = group_table(g, f)
    rep = irrep_matrices(g, f, t.degrees.index(degree), seed=seed)
    digest = hashlib.sha256(np.stack(rep.matrices).tobytes()).hexdigest()
    assert digest == S6_IRREP_SEED_SHA256[degree, seed]


# SHA-256 as above of the degree-6 irrep of S7 at seed 0, frozen before the
# idempotent's rows were taken spread over the group
S7_IRREP6_SHA256 = "119d63103e5d385ad1a4bf1dea85bc26767eddf5f64022b196849e5a18b39093"


# one SHA-256 over the character table and every irrep at seeds 0 and 3 of
# each group below, frozen before the irreps were filled along the parsed
# generators instead of the greedy generating sequence
TABLES_AND_IRREPS_SHA256 = "4ca6a81f0f18dcc0a42c738ed83d9919cf61f176e04f57d17f0ecad3cb23a3bb"


def test_tables_and_irreps_bit_identical():
    digest = hashlib.sha256()
    for spec in ("S3", "S4", "D4", "Q8", "A4", "S3xC2", "A5", "S5", "S6"):
        g = parse_group(spec)
        f = choose_prime(g)
        table = group_table(g, f)
        digest.update(repr((spec, table.p, table.degrees, table.rows)).encode())
        for seed in (0, 3):
            for i in range(table.nchars):
                digest.update(irrep_matrices(g, f, i, seed=seed).matrices.tobytes())
    assert digest.hexdigest() == TABLES_AND_IRREPS_SHA256


def test_s7_degree_six_irrep_from_two_idempotent_blocks(monkeypatch):
    calls = []
    extend = linalg.extend
    monkeypatch.setattr(linalg, "extend",
                        lambda *a: calls.append(a[2].shape) or extend(*a))
    g = parse_group("S7")
    f = choose_prime(g)
    rep = irrep_matrices(g, f, group_table(g, f).degrees.index(6), seed=0)
    digest = hashlib.sha256(np.stack(rep.matrices).tobytes()).hexdigest()
    assert digest == S7_IRREP6_SHA256
    # blocks of d^2 + 4 = 40 rows, at most two of them (51 blocks of 2d^2
    # with the elements taken in order)
    assert 1 <= len(calls) <= 2
    assert all(shape == (40, g.order) for shape in calls)


def _right_mult_matrix(g, coeffs):
    """Dense oracle: right multiplication by sum_h coeffs[h] h on row
    vectors, the (|G|, |G|) matrix whose row x holds coeffs[h] at x*h."""
    every = np.arange(g.order)
    r = np.zeros((g.order, g.order), dtype=np.int64)
    for x in range(g.order):
        r[x, g.products(x, every)] = coeffs
    return r


def _two_sided_ideals(g):
    """(degree, basis, pivots) of e*kG for every character of degree > 1."""
    f = choose_prime(g)
    t = group_table(g, f)
    cls = class_of(g, np.arange(g.order))
    return [(d, *_ideal(g, np.array(row, dtype=np.int64)[cls], d, f.p))
            for d, row in zip(t.degrees, t.rows) if d > 1]


@pytest.mark.parametrize("spec", ["S3", "S4", "A5"])
def test_right_mult_at_the_pivots_equals_the_dense_product(spec):
    g = parse_group(spec)
    p = choose_prime(g).p
    rng = random.Random(spec)
    ideals = _two_sided_ideals(g)
    assert ideals
    for d, basis, pivots in ideals:
        assert basis.shape == (d * d, g.order)
        for _ in range(4):
            c = np.array([rng.randrange(p) for _ in range(g.order)], dtype=np.int64)
            dense = linalg.matmul(basis, _right_mult_matrix(g, c), p)
            expected = linalg.coordinates(basis, pivots, dense, p)
            assert np.array_equal(_right_mult(g, basis, pivots, c, p), expected)


def test_right_ideal_check_rejects_a_left_ideal(s3, s3_field):
    p = s3_field.p
    [(d, basis, pivots)] = _two_sided_ideals(s3)
    _check_right_ideal(s3, basis, pivots, p)
    left, left_pivots = _split(s3, basis, pivots, d, random.Random(0), p)
    assert len(left_pivots) == d
    # closed under left multiplication by every element, but not a right ideal
    for h in range(s3.order):
        moved = np.zeros_like(left)
        moved[:, s3.products(h, np.arange(s3.order))] = left
        linalg.coordinates(left, left_pivots, moved, p)
    with pytest.raises(ValueError):
        _check_right_ideal(s3, left, left_pivots, p)
    # a split asked to go below a left ideal that is no right ideal refuses
    with pytest.raises(ValueError):
        _split(s3, left, left_pivots, 1, random.Random(0), p)
