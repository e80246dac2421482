import itertools

import numpy as np
import pytest

from quiverhopf import (
    ArrowId,
    BudgetError,
    YDModule,
    braiding,
    build_bimodule,
    centralizer_subgroup,
    choose_prime,
    coinvariant_yd,
    conjugacy_classes,
    enumerate_types,
    make_rsr,
    nichols_dims,
    nichols_dims_multiprime,
    parse_group,
    parse_ramification,
    rsr_from_type,
    verify_bimodule,
    verify_yd,
    yd_from_rsr,
)
from quiverhopf import linalg, yd
from quiverhopf.yd import (
    braid_operators,
    insertion_word,
    quantum_symmetrizer,
    word_operator,
)


def bubble_word(sigma):
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


def word_permutation(word, n):
    """The permutation whose sorting word is `word` (inverse application)."""
    arr = list(range(n))
    for j in reversed(word):
        arr[j], arr[j + 1] = arr[j + 1], arr[j]
    return tuple(arr)


def sgn_bimodule(s3):
    """A fresh bimodule of S3 (0 1):1 with the sign of Z = C2, to mutate."""
    return build_bimodule(make_rsr(s3, parse_ramification(s3, "(0 1):1"),
                                   None, {1: (1,)}))


@pytest.fixture(scope="module")
def sgn_module(s3):
    return coinvariant_yd(sgn_bimodule(s3))


@pytest.fixture(scope="module")
def c2_module():
    g = parse_group("C2")
    ram = parse_ramification(g, "(0 1):1")
    return yd_from_rsr(make_rsr(g, ram, None, {1: (1,)}))


def test_dimension_counts(sgn_module, s3):
    assert sgn_module.dim == 3                     # r_C * |C| = 3
    # the basis is the arrows 0..dim-1, those out of the identity vertex,
    # graded by their targets
    q = make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)}).quiver()
    arrows = [q.arrow(a) for a in range(sgn_module.dim)]
    assert all(a.x == 0 for a in arrows)
    assert [a.y for a in arrows] == sgn_module.grading


def test_zero_module(s3):
    rsr = make_rsr(s3, parse_ramification(s3, ""), None, {})
    v = yd_from_rsr(rsr)
    assert v.dim == 0
    # an empty basis gives no cases, so no check claims any coverage
    report = verify_yd(v)
    assert report.passed and report.checks == []
    assert nichols_dims(v, 3) == [1, 0, 0, 0]


def test_c2_sign_action(c2_module):
    v = c2_module
    assert v.dim == 1
    # the nontrivial element acts by -1
    assert v.action([1])[0].tolist() == [[v.p - 1]]


def test_verify_yd_passes(sgn_module):
    report = verify_yd(sgn_module)
    assert report.passed, report.to_json()


def test_verify_yd_catches_grading_mutation(sgn_module):
    # the grading is read at both ends of every block entry
    broken = YDModule(sgn_module.bimodule)
    broken.grading[0], broken.grading[1] = broken.grading[1], broken.grading[0]
    assert [c.name for c in verify_yd(broken).checks if not c.ok] == \
        ["grading-equivariance"]
    assert verify_yd(sgn_module).passed


def test_verify_yd_catches_action_mutation(s3):
    # a changed block entry: the sign of the transposition in Z = C2
    m = sgn_bimodule(s3)
    m.blocks[(1, 0)][1][0, 0] = (m.blocks[(1, 0)][1][0, 0] + 1) % m.p
    failed = [c.name for c in verify_yd(coinvariant_yd(m)).checks if not c.ok]
    assert "action-multiplicative" in failed


def test_verify_yd_catches_theta_prime_mutation(s3):
    # a changed theta' entry at (0 2), neither a generator nor its inverse,
    # under the trivial character: every block is 1, so only the theta'
    # half of the shared cocycle sees it, in both verifiers
    m = build_bimodule(make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (0,)}))
    assert (m.blocks[(1, 0)] == 1).all()
    h = s3.find((2, 1, 0))
    m.tp[1][0, h] = (m.tp[1][0, h] + 1) % len(m.transversal[1])
    assert "action-multiplicative" in [
        c.name for c in verify_yd(coinvariant_yd(m)).checks if not c.ok]
    assert "right-associativity" in [
        c.name for c in verify_bimodule(m).checks if not c.ok]


def test_action_multiplicative_names_first_failing_pair(s3, sgn_module):
    g = s3
    gens = g.generating_sequence()
    # (0 2) is neither a generator nor a product of two: only the pairs
    # (g, s) with g over all of G meet it
    far = g.find((2, 1, 0))
    assert far not in gens and far not in {g.mul(a, b) for a in gens for b in gens}
    # the zeta of (theta 0, far^-1) becomes the other element of Z = C2, so
    # of the whole action only the matrix of far changes
    m = sgn_bimodule(s3)
    m.zl[1][0, g.inv(far)] = 1 - m.zl[1][0, g.inv(far)]
    v = coinvariant_yd(m)
    action = v.action(range(g.order))
    changed = (action != sgn_module.action(range(g.order))).any(axis=(1, 2))
    assert np.flatnonzero(changed).tolist() == [far]
    report = verify_yd(v)
    first = next((i, a, b) for i, b in enumerate(gens) for a in range(g.order)
                 if not (action[g.mul(a, b)] ==
                         linalg.matmul(action[a], action[b], v.p)).all())
    bad = {c.name: c for c in report.checks if not c.ok}
    assert bad["action-multiplicative"].witness == \
        f"(g,h)=({g.element_name(first[1])},{g.element_name(first[2])})"
    # one stacked product per generator s covers its |G| pairs (g, s)
    assert bad["action-multiplicative"].checked == (first[0] + 1) * g.order
    assert [c.checked for c in verify_yd(sgn_module).checks if c.name ==
            "action-multiplicative"] == [g.order * len(gens)]


def dense_yd_checks(v):
    """The YD checks on the dense action of every element, as (name, ok,
    checked, witness) in the order, counts and witnesses of `verify_yd`:
    A[e] = 1, A[g] A[s] = A[gs] for every g and generator s, and
    deg(b_row) = h deg(b_col) h^-1 on every nonzero entry of every A[h]."""
    g, p, d = v.group, v.p, v.dim
    if not d:
        return []
    acts = v.action(range(g.order))
    one = bool((acts[0] == np.eye(d, dtype=np.int64)).all())
    out = [("identity-acts-trivially", one, 1,
            None if one else "the identity does not act trivially")]
    gens = g.generating_sequence()
    mult = ("action-multiplicative", True, g.order * len(gens), None)
    for i, s in enumerate(gens):
        ok = [(acts[g.mul(a, s)] == linalg.matmul(acts[a], acts[s], p)).all()
              for a in range(g.order)]
        if not all(ok):
            mult = ("action-multiplicative", False, (i + 1) * g.order,
                    f"(g,h)=({g.element_name(ok.index(False))},{g.element_name(s)})")
            break
    out.append(mult)
    entries = [(h, col, row) for h in range(g.order) for col in range(d)
               for row in range(d) if acts[h][row, col]]
    deg = v.grading
    bad = [i for i, (h, col, row) in enumerate(entries)
           if deg[row] != g.mul(g.mul(h, deg[col]), g.inv(h))]
    if bad:
        h, col, _ = entries[bad[0]]
        out.append(("grading-equivariance", False, bad[0] + 1,
                    f"g={g.element_name(h)} basis={col}"))
    else:
        out.append(("grading-equivariance", True, len(entries), None))
    return out


@pytest.mark.parametrize("spec, ram", [("S3", "(0 1):1"), ("S3", "e:2"),
                                       ("D4", "(0 1)(2 3):1"),
                                       ("S4", "(0 1)(2 3):2")])
def test_table_checks_match_the_dense_oracle(spec, ram):
    # every type, and on each a zeta-table mutant at one element and (where
    # two arrows differ in degree) a grading mutant, against the verdicts,
    # counts and witnesses of the dense action.  A mutant may still be a YD
    # module (a trivial character, or a swap within a class of two)
    g = parse_group(spec)
    r = parse_ramification(g, ram)
    h = g.order - 1
    failing = 0
    for t in enumerate_types(g, r):
        m = build_bimodule(rsr_from_type(g, r, t))
        modules = [coinvariant_yd(m)]
        assert verify_yd(modules[0]).passed, (spec, ram, t)
        degrees = modules[0].grading
        other = [i for i, x in enumerate(degrees) if x != degrees[0]]
        if other:
            swapped = YDModule(m)
            swapped.grading[0], swapped.grading[other[0]] = degrees[other[0]], degrees[0]
            modules.append(swapped)
        mutant = build_bimodule(rsr_from_type(g, r, t))
        cls = next(iter(mutant.zl))
        zl = mutant.zl[cls]
        zl[0, h] = (zl[0, h] + 1) % mutant.rsr.centralizer(cls).order
        modules.append(coinvariant_yd(mutant))
        failing += sum(not verify_yd(v).passed for v in modules[1:])
        for v in modules:
            got = [(c.name, c.ok, c.checked, c.witness) for c in verify_yd(v).checks]
            assert got == dense_yd_checks(v), (spec, ram, t)
    assert failing


def test_braiding_c2(c2_module):
    c = braiding(c2_module)
    assert c.matrix.tolist() == [[c.p - 1]]
    assert [(k.name, k.ok, k.checked) for k in c.verify().checks] == [
        ("invertible", True, 1), ("braid-relation", True, 1)]


def test_braiding_trivial_is_flip():
    # three loops at e with the trivial character of C2: grading e and
    # trivial action, so c(a (x) b) = b (x) a
    g = parse_group("C2")
    d = 3
    v = yd_from_rsr(make_rsr(g, parse_ramification(g, "e:3"), None, {0: (0,) * d}))
    assert v.grading == [0] * d
    assert (v.action(range(g.order)) == np.eye(d, dtype=np.int64)).all()
    c = braiding(v)
    flip = np.zeros((d * d, d * d), dtype=np.int64)
    for a in range(d):
        for b in range(d):
            flip[b * d + a, a * d + b] = 1
    assert (c.matrix == flip).all()


def test_braiding_matches_entrywise_formula(sgn_module):
    # oracle: apply the defining formula through the action maps directly
    v = sgn_module
    c = braiding(v)
    assert c.matrix.shape == (9, 9)
    for a in range(v.dim):
        for b in range(v.dim):
            col = np.zeros(v.dim, dtype=np.int64)
            col[b] = 1
            image = linalg.matmul(v.action([v.grading[a]])[0], col.reshape(-1, 1),
                                  v.p)[:, 0]
            expected = np.zeros(81 // 9 * 9, dtype=np.int64)[:81 // 9]
            got = c.matrix[:, a * v.dim + b]
            for bp in range(v.dim):
                assert got[bp * v.dim + a] == image[bp]
            # nothing outside the (.,a) stripe
            mask = np.ones(9, dtype=bool)
            for bp in range(v.dim):
                mask[bp * v.dim + a] = False
            assert not got[mask].any()


def test_braid_relation_and_invertibility(sgn_module, s4):
    assert braiding(sgn_module).verify().passed
    ram = parse_ramification(s4, "(0 1)(2 3):1")
    v = yd_from_rsr(make_rsr(s4, ram, None, {3: (1,)}))
    assert braiding(v).verify().passed


def test_word_functions():
    for n in (2, 3, 4):
        for sigma in itertools.permutations(range(n)):
            bw = bubble_word(sigma)
            iw = insertion_word(sigma)
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if sigma[i] > sigma[j])
            assert len(bw) == len(iw) == inv
            assert word_permutation(bw, n) == sigma
            assert word_permutation(iw, n) == sigma


def test_word_independence(sgn_module):
    # T_sigma does not depend on the reduced word (all sigma of length <= 4)
    c = braiding(sgn_module)
    for n in (3, 4):
        ops = braid_operators(c, n)
        total = c.dim ** n
        for sigma in itertools.permutations(range(n)):
            bw = bubble_word(sigma)
            if len(bw) > 4:
                continue
            iw = insertion_word(sigma)
            t1 = word_operator(bw, ops, total, c.p)
            t2 = word_operator(iw, ops, total, c.p)
            assert (t1 == t2).all()


def test_symmetrizer_word_choice_irrelevant(sgn_module):
    c = braiding(sgn_module)
    for n in (2, 3):
        s1 = quantum_symmetrizer(c, n, bubble_word)
        s2 = quantum_symmetrizer(c, n, insertion_word)
        assert (s1 == s2).all()


def test_nichols_dims_c2(c2_module):
    assert nichols_dims(c2_module, 4) == [1, 1, 0, 0, 0]


def test_nichols_dims_s3_transposition(sgn_module):
    # frozen from the independent coset-factorization oracle below
    assert nichols_dims(sgn_module, 5) == [1, 3, 4, 3, 1, 0]


def oracle_dims(v, max_deg):
    """Independent symmetrizer: the length-additive coset factorization
    S_n = (S_{n-1} (x) 1) . (1 + c_{n-1} + c_{n-1}c_{n-2} + ...)."""
    c = braiding(v)
    d, p = c.dim, c.p
    dims = [1, linalg.rank(np.eye(d, dtype=np.int64), p)]
    s_prev = np.eye(d, dtype=np.int64)
    for n in range(2, max_deg + 1):
        ops = braid_operators(c, n)
        total = d ** n
        gamma = np.zeros((total, total), dtype=np.int64)
        for k in range(n):
            word = list(range(n - 2, k - 1, -1))
            gamma = (gamma + word_operator(word, ops, total, p)) % p
        s_n = linalg.matmul(np.kron(s_prev, np.eye(d, dtype=np.int64)) % p,
                            gamma, p)
        dims.append(linalg.rank(s_n, p))
        s_prev = s_n
    return dims


def test_nichols_dims_against_oracle(sgn_module, c2_module):
    assert oracle_dims(sgn_module, 5) == nichols_dims(sgn_module, 5)
    assert oracle_dims(c2_module, 4) == nichols_dims(c2_module, 4)


def test_nichols_dims_invariants(s3):
    ram = parse_ramification(s3, "(0 1 2):1")
    for idx in range(3):
        v = yd_from_rsr(make_rsr(s3, ram, None, {2: (idx,)}))
        dims = nichols_dims(v, 3)
        assert dims[0] == 1 and dims[1] == v.dim
        assert all(dims[n] <= v.dim ** n for n in range(len(dims)))


def test_zero_module_braiding_reports_no_empty_check(s3):
    v = yd_from_rsr(make_rsr(s3, parse_ramification(s3, ""), None, {}))
    report = braiding(v).verify()
    assert report.passed and report.checks == []


def test_budget_error(monkeypatch, sgn_module):
    # degree 3 has 3 blocks and the zero block, each 6 x 6 cells: 144
    monkeypatch.setattr(yd, "CELL_CAP", 100)
    with pytest.raises(BudgetError, match="degree 3 needs 144 cells"):
        nichols_dims(sgn_module, 5)


def test_budget_counts_allocated_cells_only(monkeypatch, sgn_module):
    # the 144 cells of degree 3 are the most any degree needs: past
    # Im S_5 = 0 the degrees up to 11 allocate nothing
    monkeypatch.setattr(yd, "CELL_CAP", 144)
    assert nichols_dims(sgn_module, 11) == [1, 3, 4, 3, 1] + [0] * 7


def test_multiprime(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    res = nichols_dims_multiprime(rsr, 4, nprimes=3)
    assert res["dims"] == [1, 3, 4, 3, 1]
    assert len(res["primes"]) == 3 and len(set(res["primes"])) == 3
    assert res["agreed"] is True
    assert res["primes"][0] == 13


def test_coinvariant_matches_bimodule():
    # oracle: g |> a = g . a . g^-1 for each arrow a out of e, named by the
    # quiver: a translated to g, then acted on by g^-1 through the coset
    # factorization g_theta g^-1 = zeta g_theta', g_theta' found by search
    # over the transversal, and rho(zeta); the bimodule's right_terms of
    # g^-1 are exactly its nonzero entries
    for spec, ram in [("S3", "(0 1):1"), ("S3", "e:2"), ("D4", "(0 1)(2 3):1"),
                      ("S4", "(0 1)(2 3):2"), ("S3", "")]:
        g = parse_group(spec)
        r = parse_ramification(g, ram)
        classes = conjugacy_classes(g)
        transversals = [(z.transversal, z.theta_at)
                        for z in (centralizer_subgroup(g, c) for c in classes)]
        every = np.arange(g.order)
        zsets = [set(np.flatnonzero(g.products(every, c.rep) == g.products(c.rep, every)).tolist())
                 for c in classes]
        for t in enumerate_types(g, r):
            rsr = rsr_from_type(g, r, t)
            q = rsr.quiver()
            arrows = [q.arrow(a) for a in range(q.arrows_per_vertex)]
            m = build_bimodule(rsr)
            v = coinvariant_yd(m)
            acts = v.action(range(g.order))
            terms = []
            for h in range(g.order):
                for col, a in enumerate(arrows):
                    ctx = classes[a.cls]
                    assert rsr.u[a.cls] == ctx.rep
                    t, theta_of = transversals[a.cls]
                    w = g.mul(t[theta_of[a.y]], g.inv(h))
                    theta = next(s for s in range(len(t))
                                 if g.mul(w, g.inv(t[s])) in zsets[a.cls])
                    zeta = g.mul(w, g.inv(t[theta]))
                    rho = rsr.irrep(a.cls, a.slot).matrix(
                        int(rsr.centralizer(a.cls).local[zeta]))
                    y = g.conj(a.y, g.inv(h))
                    expected = np.zeros(v.dim, dtype=np.int64)
                    for s in range(rho.shape[1]):
                        row = arrows.index(ArrowId(0, y, a.cls, a.slot, s))
                        expected[row] = rho[a.j, s] % v.p
                        if expected[row]:
                            terms.append((h, col, row, int(expected[row])))
                    assert theta_of[y] == theta
                    assert (acts[h][:, col] == expected).all(), (spec, ram, h, a)
            # sorted by (h, arrow, image), with no zero coefficient
            i, l, image, c = m.right_terms([g.inv(h) for h in range(g.order)])
            assert list(zip(i.tolist(), l.tolist(), image.tolist(), c.tolist())) == \
                sorted(terms), (spec, ram, t)


def test_same_type_pairs_share_dims(s3):
    # representatives presenting the same type give identical dimensions
    from quiverhopf import make_rsr as mk
    ram = parse_ramification(s3, "e:2")
    a = mk(s3, ram, None, {0: (0, 1)})
    b = mk(s3, ram, None, {0: (1, 0)})
    assert nichols_dims(yd_from_rsr(a), 3) == nichols_dims(yd_from_rsr(b), 3)


def test_no_module_dimension_cap(s4):
    # a 12-dimensional module needs no cap on its dimension
    ram = parse_ramification(s4, "(0 1):2")
    rsr = make_rsr(s4, ram, None, {1: (0, 1)})
    v = yd_from_rsr(rsr)
    assert v.dim == 12
    assert nichols_dims(v, 2) == dense_dims(v, 2) == [1, 12, 118]


def test_trivially_braided_module_gives_symmetric_algebra(s4):
    # loops at the identity vertex have group-like degree e, so the braiding
    # is the flip and the Nichols algebra is the symmetric algebra:
    # dimensions C(n + d - 1, d - 1)
    from math import comb
    ram = parse_ramification(s4, "e:2")
    rsr = make_rsr(s4, ram, None, {0: (2,)})   # the 2-dim representation
    v = yd_from_rsr(rsr)
    assert v.dim == 2
    assert all(d == 0 for d in v.grading)
    dims = nichols_dims(v, 4)
    assert dims == [comb(n + 1, 1) for n in range(5)]


def _types(spec, ram):
    g = parse_group(spec)
    field = choose_prime(g)
    r = parse_ramification(g, ram)
    return [(t, yd_from_rsr(rsr_from_type(g, r, t, field)))
            for t in enumerate_types(g, r, field)]


def dense_dims(v, max_deg):
    """Ranks of the dense sum over Sym(n), lifted along insertion words."""
    c = braiding(v)
    return [1, v.dim] + [linalg.rank(quantum_symmetrizer(c, n, insertion_word),
                                     v.p)
                         for n in range(2, max_deg + 1)]


@pytest.mark.parametrize("spec,ram,max_deg,ntypes", [
    ("S3", "(0 1):1", 4, 2),
    ("S3", "(0 1 2):1", 4, 3),
    ("S3", "e:2", 4, 4),
    ("S4", "(0 1):1", 3, 4),
    ("S4", "(0 1)(2 3):2", 3, 11),
])
def test_recursion_matches_dense_symmetrizer(spec, ram, max_deg, ntypes):
    types = _types(spec, ram)
    assert len(types) == ntypes
    for _, v in types:
        assert nichols_dims(v, max_deg) == dense_dims(v, max_deg)


def test_recursion_on_non_monomial_braiding():
    # the type built on the 2-dimensional irrep of the centralizer D4
    t, v = _types("S4", "(0 1)(2 3):2")[10]
    assert [e["multiplicities"] for e in t.to_json()] == [[0, 0, 0, 0, 1]]
    c = braiding(v)
    assert (np.count_nonzero(c.matrix, axis=0) > 1).any()
    assert nichols_dims(v, 3) == dense_dims(v, 3) == [1, 6, 21, 60]


@pytest.mark.parametrize("spec, ram, which", [
    ("S3", "(0 1):1", slice(None)), ("S3", "(0 1 2):1", slice(None)),
    ("S4", "(0 1):1", slice(None)), ("D4", "(0 1)(2 3):1", slice(None)),
    ("A4", "(0 1 2):1", slice(None)),
    ("S4", "(0 1)(2 3):2", slice(10, 11)),     # not monomial
])
def test_top_degree_by_classes_matches_all_blocks(spec, ram, which):
    # degree n is ranked one block per class as the top degree and through
    # every block when degree n + 1 reads its bases
    for _, v in _types(spec, ram)[which]:
        for n in range(1, 4):
            assert nichols_dims(v, n) == nichols_dims(v, n + 1)[:n + 1]


def test_top_degree_ranks_one_block_per_class(monkeypatch):
    # degree 3 of S4 (0 1):1 has 12 blocks in 2 classes, the odd elements;
    # the degrees below take rrefs and no rank
    _, v = _types("S4", "(0 1):1")[0]
    shapes = []
    rank = linalg.rank
    monkeypatch.setattr(linalg, "rank", lambda a, p: shapes.append(a.shape) or rank(a, p))
    assert nichols_dims(v, 3) == [1, 6, 33, 180]
    assert len(shapes) == 2


@pytest.mark.parametrize("index", [1, 3])
def test_fomin_kirillov_through_degree_5(index):
    _, v = _types("S4", "(0 1):1")[index]
    assert nichols_dims(v, 5) == [1, 6, 19, 42, 71, 96]


def test_s3_transposition_to_degree_9(sgn_module):
    assert nichols_dims(sgn_module, 9) == [1, 3, 4, 3, 1, 0, 0, 0, 0, 0]


def _q_series(parts):
    """Coefficients of the product of the q-integers [n] = 1 + q + ... + q^(n-1)."""
    series = np.ones(1, dtype=np.int64)
    for n in parts:
        series = np.convolve(series, np.ones(n, dtype=np.int64))
    return series.tolist()


@pytest.mark.parametrize("spec, ram, index", [("S4", "(0 1):1", 1),
                                              ("S4", "(0 1):1", 3),
                                              ("S4", "(0 1 2 3):1", 3)])
def test_fomin_kirillov_whole_series(spec, ram, index):
    # E_4 has Hilbert series [2]^2 [3]^2 [4]^2: top degree 12, dimension 576
    _, v = _types(spec, ram)[index]
    dims = nichols_dims(v, 13)
    assert dims == _q_series([2, 2, 3, 3, 4, 4]) + [0]
    assert dims[:13] == dims[12::-1] and sum(dims) == 576


def test_s5_transposition_starts_like_e5():
    # E_5 has Hilbert series [4]^4 [5]^2 [6]^4 (dimension 8,294,400)
    _, v = _types("S5", "(0 1):1")[1]
    assert v.dim == 10
    assert nichols_dims(v, 5) == _q_series([4] * 4 + [5] * 2 + [6] * 4)[:6] == \
        [1, 10, 55, 220, 711, 1960]
