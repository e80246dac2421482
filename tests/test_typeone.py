import itertools
import random
from collections import Counter

import numpy as np
import pytest

from percase import cases, check
from quiverhopf import typeone
from quiverhopf.bimodule import Report
from quiverhopf.typeone import path_degree
from quiverhopf import (
    TruncationError,
    enumerate_types,
    make_rsr,
    parse_group,
    parse_ramification,
    rsr_from_type,
    skew_primitive_report,
    tensor_hopf,
    type_one_dims,
    verify_hopf,
    yd_from_rsr,
)
from quiverhopf import nichols_dims


@pytest.fixture(scope="module")
def hopf_s3_loops(s3):
    ram = parse_ramification(s3, "e:2")
    rsr = make_rsr(s3, ram, None, {0: (2,)})
    return tensor_hopf(rsr, 3)


@pytest.fixture(scope="module")
def hopf_c2_seven_loops():
    # dims 2, 14, 98: 114 basis paths, so sampled unless asked otherwise
    g = parse_group("C2")
    rsr = make_rsr(g, parse_ramification(g, "e:7"), None, {0: (0,) * 7})
    return tensor_hopf(rsr, 2)


def checked_cases(monkeypatch, h, **kwargs):
    """verify_hopf(h, **kwargs) and the cases its batched checks ran on, as
    PathKey tuples grouped by degree composition."""
    cases = {}

    def batch_recording(name, test):
        def run(h, degrees, *codes):
            cases.setdefault(name, []).extend(zip(*(
                [h.key(d, c) for c in cs] for d, cs in zip(degrees, codes))))
            return test(h, degrees, *codes)
        return run

    monkeypatch.setattr(typeone, "associative",
                        batch_recording("associativity", typeone.associative))
    monkeypatch.setattr(typeone, "multiplicative",
                        batch_recording("coproduct-algebra-map", typeone.multiplicative))
    return verify_hopf(h, **kwargs), cases


@pytest.fixture(scope="module")
def hopf_s3_sgn(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    return tensor_hopf(rsr, 3)


def combine(terms, p):
    """The F_p-combination {key: coefficient} summing (key, coefficient)
    pairs mod p, without the keys whose coefficient vanishes."""
    out = {}
    for key, c in terms:
        out[key] = out.get(key, 0) + c
    return {key: r for key, c in out.items() if (r := c % p)}


def test_combine_sums_mod_p_and_drops_zeros():
    # a and b cancel mod 7, c reduces, d keeps its first-seen position
    terms = ((k, c) for k, c in [("a", 3), ("d", 2), ("b", 5), ("a", 4),
                                 ("c", 8), ("b", -5), ("d", 7)])
    out = combine(terms, 7)
    assert out == {"d": 2, "c": 1}
    assert list(out) == ["d", "c"]
    assert combine([((1, "x"), 6), ((1, "x"), 6), ("y", 0)], 7) == {(1, "x"): 5}
    assert combine([], 7) == {}


def basis(h, n):
    """The degree-n paths, in code order."""
    return [h.key(n, c) for c in range(h.dim(n))]


def vertices(h, key):
    """The vertices a path passes, from its start to its target, by the
    group product."""
    return list(itertools.accumulate((int(h.bim.elem[l]) for l in key[1:]),
                                     h.group.mul, initial=key[0]))


def multiply(h, e1, e2):
    """The dict product: product_basis extended bilinearly."""
    return combine(((k, c1 * c2 * c) for k1, c1 in e1.items()
                    for k2, c2 in e2.items()
                    for k, c in h.product_basis(k1, k2).items()), h.p)


def tensor_mul(h, t1, t2):
    """The dict product of tensors {(left, right): coefficient}, factor by
    factor."""
    return combine((((ka, kb), c1 * c2 * ca * cb)
                    for (a1, b1), c1 in t1.items() for (a2, b2), c2 in t2.items()
                    for (ka, ca), (kb, cb) in itertools.product(
                        h.product_basis(a1, a2).items(),
                        h.product_basis(b1, b2).items())), h.p)


def coproduct(h, key):
    """Delta of one path as {(left, right): coefficient}, read from
    coproduct_terms."""
    n, code = path_degree(key), np.array([h.code(key)])
    return combine((((h.key(i, a), h.key(n - i, b)), c) for i in range(n + 1)
                    for a, b, c in zip(*(t[0].tolist()
                                         for t in h.coproduct_terms(n, i, code)))), h.p)


def antipode(h, key):
    """S of one path as {path: coefficient}, read from antipode_terms."""
    n = path_degree(key)
    codes, coefs = h.antipode_terms(n, np.array([h.code(key)]))
    return combine(((h.key(n, c), w) for c, w in zip(codes[0].tolist(), coefs[0].tolist())),
                   h.p)


def antipode_oracle(h, key, cache):
    """S by the convolution recursion on dicts, S * id = unit counit: S of
    a vertex is its inverse, and S(p) x = -(sum S(a) b over the other terms
    a (x) b of Delta(p)) for p of degree n >= 1 starting at x, the single
    term of left degree n being p (x) x."""
    if len(key) == 1:
        return {(h.group.inv(key[0]),): 1}
    if key not in cache:
        n = path_degree(key)
        rest = combine(((k, -c * cv) for (k1, k2), c in coproduct(h, key).items()
                        if path_degree(k1) != n
                        for k, cv in multiply(h, antipode_oracle(h, k1, cache),
                                              {k2: 1}).items()), h.p)
        cache[key] = multiply(h, rest, {(h.group.inv(key[0]),): 1})
    return cache[key]


def test_degree_dimensions(hopf_s3_loops, hopf_s3_sgn):
    assert [hopf_s3_loops.dim(n) for n in range(4)] == [6, 12, 24, 48]
    assert [hopf_s3_sgn.dim(n) for n in range(4)] == [6, 18, 54, 162]


def test_degree_zero_is_group_algebra(hopf_s3_loops, s3):
    for x in range(s3.order):
        for y in range(s3.order):
            assert hopf_s3_loops.product_basis((x,), (y,)) == {(s3.mul(x, y),): 1}
    # antipode on vertices is inversion
    for x in range(s3.order):
        assert antipode(hopf_s3_loops, (x,)) == {(s3.inv(x),): 1}
        assert coproduct(hopf_s3_loops, (x,)) == {((x,), (x,)): 1}


def test_arrow_times_vertex_is_right_action(hopf_s3_sgn, s3):
    # a 1-path (x0, l) is arrow number x0 * apv + l
    h = hopf_s3_sgn
    m = h.bim
    for x in range(s3.order):
        right, left = m.right_stack([x])[0], m.left_perm(x)
        for x0, l in basis(h, 1):
            expected = {(s3.mul(x0, x), int(r)): int(right[r, l])
                        for r in np.flatnonzero(right[:, l])}
            assert h.product_basis((x0, l), (x,)) == expected
            assert h.product_basis((x,), (x0, l)) == \
                {tuple(divmod(int(left[x0 * m.apv + l]), m.apv)): 1}


def oracle_product(h, stack, pk, qk):
    """The dict product rule: p * q = (s(p) s(q), word(q) ++ A_{t(q)}^(x)m
    word(p)), the word of p acted on letterwise by the right action of
    t(q), read from stack, the bimodule's right actions of every element."""
    right = stack[vertices(h, qk)[-1]]
    terms = [((h.group.mul(pk[0], qk[0]),) + qk[1:], 1)]
    for l in pk[1:]:
        terms = [(w + (r,), c * int(right[r, l])) for w, c in terms
                 for r in np.flatnonzero(right[:, l]).tolist()]
    return combine(terms, h.p)


def two_dimensional_slot_hopf(max_deg):
    # S4 "(0 1)(2 3):2" with the 2-dimensional irrep of the centralizer D4
    g = parse_group("S4")
    ram = parse_ramification(g, "(0 1)(2 3):2")
    for t in enumerate_types(g, ram):
        h = tensor_hopf(rsr_from_type(g, ram, t), max_deg)
        if any(b.shape[1] == 2 for b in h.bim.blocks.values()):
            return h
    raise AssertionError("no type with a 2-dimensional slot")


def test_product_basis_matches_the_oracle(hopf_s3_sgn, hopf_c2_seven_loops):
    two_dim = two_dimensional_slot_hopf(2)
    assert two_dim.action_table(1)[0].shape[-1] == 2        # k = 2
    for h in (hopf_s3_sgn, two_dim, hopf_c2_seven_loops):
        stack = h.bim.right_stack(np.arange(h.group.order))
        for m, n in itertools.product(range(h.max_deg + 1), repeat=2):
            if m + n <= h.max_deg:
                for pk, qk in itertools.product(basis(h, m), basis(h, n)):
                    expected = oracle_product(h, stack, pk, qk)
                    assert h.product_basis(pk, qk) == expected, (pk, qk)


def test_tensor_relation(hopf_s3_sgn, s3):
    # the defining relation of the tensor product over the group algebra:
    # (p . g) * q = p * (g . q)
    h = hopf_s3_sgn
    keys = basis(h, 1)
    for pk in keys[:6]:
        for qk in keys[:6]:
            for g in range(s3.order):
                lhs = multiply(h, h.product_basis(pk, (g,)), {qk: 1})
                rhs = multiply(h, {pk: 1}, h.product_basis((g,), qk))
                assert lhs == rhs


def test_skew_primitivity(hopf_s3_loops, hopf_s3_sgn):
    assert skew_primitive_report(hopf_s3_loops).passed
    assert skew_primitive_report(hopf_s3_sgn).passed


def test_general_arrow_coproduct(hopf_s3_sgn, s3):
    # Delta(a_{y,x}) = y (x) a + a (x) x for every arrow
    h = hopf_s3_sgn
    for x, l in basis(h, 1):
        a = h.bim.quiver.arrow(x * h.bim.apv + l)
        assert coproduct(h, (x, l)) == {((a.y,), (x, l)): 1, ((x, l), (a.x,)): 1}


def factor_product_coproduct(h, key):
    """Oracle: Delta of one path multiplied out factor by factor.  The path
    is F_n * ... * F_1 * x0 with F_i = l_i . x_{i-1}^-1, a combination of
    arrows v out of e with Delta(v) = t(v) (x) v + v (x) 1."""
    acc = None
    for x, l in reversed(list(zip(vertices(h, key), key[1:]))):
        factor = {}
        right = h.bim.right_stack([h.group.inv(x)])[0]
        for v in np.flatnonzero(right[:, l]).tolist():
            c = int(right[v, l])
            factor[((int(h.bim.elem[v]),), (0, v))] = c
            factor[((0, v), (0,))] = c
        acc = factor if acc is None else tensor_mul(h, acc, factor)
    start = {(key[:1], key[:1]): 1}
    return start if acc is None else tensor_mul(h, acc, start)


def test_coproduct_matches_the_factor_product(hopf_s3_sgn):
    for h in (hopf_s3_sgn, two_dimensional_slot_hopf(2)):
        for n in range(h.max_deg + 1):
            for key in basis(h, n):
                assert coproduct(h, key) == factor_product_coproduct(h, key), key


def s3_sgn_degree_two(s3):
    ram = parse_ramification(s3, "(0 1):1")
    return tensor_hopf(make_rsr(s3, ram, None, {1: (1,)}), 2)


def corrupt_arrow_coproduct(h, l):
    """The a (x) e term of Delta(e, l) in coproduct_table(1) scaled by 2."""
    left, right, coef = h.coproduct_table(1)[1][:, l]
    assert (left.tolist(), right.tolist(), coef.tolist()) == ([l], [0], [1])
    h.coproduct_table(1)[1][2, l, 0] = 2


# the failing checks of coassociativity and counit, (checked, witness),
# that the dict coproduct gives under the same corruptions
CORRUPTED_WORD_FAILURES = {
    (1,): {"coassociativity": (18, "(0, 1)"), "counit": (18, "(0, 1)")},
    (1, 2): {"coassociativity": (60, "(0, 1, 2)")}}


@pytest.mark.parametrize("word, expected", [((1,), "counit"),
                                            ((1, 2), "coassociativity")])
def test_corrupted_word_coproduct_fails_coassociativity_or_counit(s3, word, expected):
    # one word's Delta(e, w) corrupted in coproduct_table: on a letter the
    # a (x) e term scaled by 2 (the degree-2 rows are then built from it),
    # on two letters the t(a) (x) a term moved to e (x) a, which leaves the
    # counit intact
    h = s3_sgn_degree_two(s3)
    w = h.code((0,) + word)
    if len(word) == 1:
        corrupt_arrow_coproduct(h, w)
    else:
        left, right, coef = h.coproduct_table(2)[0]
        (col,) = np.flatnonzero((right[w] == w) & (coef[w] != 0))
        assert left[w, col] != 0
        left[w, col] = 0
    report = verify_hopf(h, seed=4)
    failed = {c.name: (c.checked, c.witness) for c in report.checks
              if not c.ok and c.name in ("coassociativity", "counit")}
    assert expected in failed and failed == CORRUPTED_WORD_FAILURES[word], report.to_json()


def test_corrupted_arrow_coproduct_fails_skew_primitivity(s3):
    # the dict coproduct under the same corruption: the second arrow at e
    # fails, after 2 cases
    h = s3_sgn_degree_two(s3)
    assert skew_primitive_report(h).passed
    corrupt_arrow_coproduct(h, 1)
    assert skew_primitive_report(h).to_json() == {
        "passed": False, "mode": "exhaustive",
        "checks": [{"name": "skew-primitivity", "ok": False, "checked": 2,
                    "witness": "(0, 1)"}]}


def test_corrupted_antipode_table_fails_the_antipode(s3):
    # S(e, 1) = -t(1)^-1 (e, 1), one term, doubled: the convolution
    # identity fails at (e, 1), after the 6 vertices and (e, 0), as the dict
    # antipode with the same S(e, 1) fails; no other check reads S
    h = s3_sgn_degree_two(s3)
    code, coef = h.antipode_table(1)
    assert antipode(h, (0, 1)) == {(s3.inv(vertices(h, (0, 1))[1]), 1): h.p - 1}
    assert np.count_nonzero(coef[1]) == 1
    coef[1] = 2 * coef[1] % h.p
    report = verify_hopf(h, seed=4)
    assert [c.to_json() for c in report.checks if not c.ok] == [
        {"name": "antipode", "ok": False, "checked": 8, "witness": "(0, 1)"}]


def test_corrupted_identity_action_fails_unit(s3):
    # T[1] of the identity sends letter 0 to letter 1: the unit runs only on
    # the paths at e, and (e, 0) . e is now (e, 1)
    ram = parse_ramification(s3, "(0 1):1")
    h = tensor_hopf(make_rsr(s3, ram, None, {1: (1,)}), 2)
    code, coef = h.action_table(1)
    assert code[0, 0].tolist() == [0] and coef[0, 0].tolist() == [1]
    code[0, 0, 0] = 1
    report = verify_hopf(h, seed=4)
    assert "unit" in {c.name for c in report.checks if not c.ok}, report.to_json()


def test_antipode_matches_the_convolution_oracle(hopf_s3_sgn, hopf_s3_loops):
    for h in (hopf_s3_sgn, hopf_s3_loops, two_dimensional_slot_hopf(2)):
        cache = {}
        for n in range(h.max_deg + 1):
            for key in basis(h, n):
                assert antipode(h, key) == antipode_oracle(h, key, cache), key


def test_coproduct_table_rows_are_combined(hopf_s3_sgn):
    # in each row, the nonzero terms are distinct tensors and come first
    for h in (hopf_s3_sgn, two_dimensional_slot_hopf(2)):
        for n in range(h.max_deg + 1):
            for left, right, coef in h.coproduct_table(n):
                for a, b, c in zip(left, right, coef):
                    live = np.count_nonzero(c)
                    assert np.all(c[:live] != 0)
                    assert len(set(zip(a[:live], b[:live]))) == live


def test_action_table_without_arrows(s3):
    # no arrows: T[m] holds no word and no term, (|G|, 0, 0) per array
    h = tensor_hopf(make_rsr(s3, parse_ramification(s3, ""), None, {}), 3)
    for m in (1, 2, 3):
        assert [a.shape for a in h.action_table(m)] == [(6, 0, 0)] * 2


def test_verify_hopf_loops(hopf_s3_loops):
    report = verify_hopf(hopf_s3_loops, seed=1)
    assert report.mode == "exhaustive"
    assert report.passed, report.to_json()


def test_verify_hopf_group_algebra(s3):
    rsr = make_rsr(s3, parse_ramification(s3, ""), None, {})
    report = verify_hopf(tensor_hopf(rsr, 3))
    assert report.passed


def test_verify_hopf_sampled(hopf_s3_sgn):
    report = verify_hopf(hopf_s3_sgn, seed=2, samples=120)
    assert report.passed, report.to_json()


def test_exhaustive_tuples_are_every_tuple_once(monkeypatch, hopf_c2_seven_loops):
    h = hopf_c2_seven_loops
    report, cases = checked_cases(monkeypatch, h, exhaustive=True)
    assert report.passed and report.mode == "exhaustive"
    for name, arity, count in (("associativity", 3, 2528),
                               ("coproduct-algebra-map", 2, 648)):
        tuples = cases[name]
        assert len(tuples) == len(set(tuples)) == count
        assert all(len(t) == arity and
                   sum(path_degree(k) for k in t) <= h.max_deg for t in tuples)


def test_sampled_compositions_follow_their_tuple_counts(monkeypatch,
                                                        hopf_c2_seven_loops):
    h = hopf_c2_seven_loops
    samples = 2000
    report, cases = checked_cases(monkeypatch, h, seed=5, samples=samples)
    assert report.passed and report.mode == f"sampled({samples})"
    pairs = cases["coproduct-algebra-map"]
    assert len(pairs) == samples
    seen = Counter(tuple(path_degree(k) for k in t) for t in pairs)
    weights = {(0, 0): 4, (0, 1): 28, (1, 0): 28,
               (0, 2): 196, (2, 0): 196, (1, 1): 196}
    assert set(seen) == set(weights)
    for comp, w in weights.items():
        assert abs(seen[comp] / samples - w / 648) < 0.03, (comp, seen[comp])


# the hopf-verify operations of the benchmark's verify workload
VERIFY_OPS = [("S3", 2), ("S4", 1)]


def verify_op_hopf(spec, max_deg, corrupt=False):
    """The first type of "(0 1):2" on spec, as hopf-verify builds it.  With
    corrupt, one coefficient of T[1] is doubled: that of the right action
    of y on letter l, for the first sampled associativity triple
    ((x, l), (y,), r) at seed 0, so that this triple fails associativity."""
    g = parse_group(spec)
    ram = parse_ramification(g, "(0 1):2")
    h = tensor_hopf(rsr_from_type(g, ram, enumerate_types(g, ram)[0]), max_deg)
    if corrupt:
        triples = pathkey_cases(h, 3, 0, "associativity")
        (_, l), (y,), _ = next(t for t in triples if len(t[0]) == 2 and len(t[1]) == 1)
        coef = h.action_table(1)[1]
        coef[y, l, 0] = 2 * coef[y, l, 0] % h.p
    return h


def pathkey_cases(h, arity, seed, name):
    """The 300 sampled tuples of PathKeys of total degree <= N of check
    name: uniform indices into the list of every such tuple, drawn from
    the check's own rng."""
    every = list(cases([tuple(basis(h, d) for d in c)
                        for c in itertools.product(range(h.max_deg + 1), repeat=arity)
                        if sum(c) <= h.max_deg]))
    rng = random.Random(f"hopf:{seed}:{name}")
    return [every[rng.randrange(len(every))] for _ in range(300)]


def per_case_associative(h, t):
    """Oracle of `typeone.associative`: one triple of PathKeys through the
    dict products."""
    k1, k2, k3 = t
    return (multiply(h, h.product_basis(k1, k2), {k3: 1}) ==
            multiply(h, {k1: 1}, h.product_basis(k2, k3)))


def per_case_multiplicative(h, t):
    """Oracle of `typeone.multiplicative`: one pair of PathKeys through the
    dict products and coproducts."""
    k1, k2 = t
    return (combine(((pair, c * c2) for k, c in h.product_basis(k1, k2).items()
                     for pair, c2 in coproduct(h, k).items()), h.p) ==
            tensor_mul(h, coproduct(h, k1), coproduct(h, k2)))


def batched_outcomes(h, test, tuples):
    """test, one of the batched checks, on each tuple of PathKeys."""
    by_degrees, ok = {}, {}
    for t in tuples:
        by_degrees.setdefault(tuple(map(path_degree, t)), []).append(t)
    for degrees, group in by_degrees.items():
        codes = [np.array([h.code(k) for k in column]) for column in zip(*group)]
        ok.update(zip(group, test(h, degrees, *codes).tolist()))
    return [ok[t] for t in tuples]


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("spec, max_deg", VERIFY_OPS)
def test_batched_checks_match_the_per_case_checks(spec, max_deg, corrupt):
    h = verify_op_hopf(spec, max_deg, corrupt)
    triples = pathkey_cases(h, 3, 0, "associativity")
    pairs = pathkey_cases(h, 2, 0, "coproduct-algebra-map")
    expected = [per_case_associative(h, t) for t in triples]
    assert batched_outcomes(h, typeone.associative, triples) == expected
    assert all(expected) != corrupt
    expected = [per_case_multiplicative(h, t) for t in pairs]
    assert batched_outcomes(h, typeone.multiplicative, pairs) == expected


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("spec, max_deg", VERIFY_OPS)
def test_batched_reports_match_the_per_case_reports(monkeypatch, spec, max_deg,
                                                     corrupt):
    # counts, outcomes and witnesses as `check` gives them on the per-case
    # tests, each check on its own draws.  Chunks of 2 cases put the
    # corrupt triple, case 7 on S3 and case 4 on S4, past the first chunk
    h = verify_op_hopf(spec, max_deg, corrupt)
    per_case = Report()
    check(per_case, "associativity", pathkey_cases(h, 3, 0, "associativity"),
          lambda t: per_case_associative(h, t))
    check(per_case, "coproduct-algebra-map", pathkey_cases(h, 2, 0, "coproduct-algebra-map"),
          lambda t: per_case_multiplicative(h, t))
    assert per_case.passed != corrupt
    for chunk in (typeone.CHUNK, 2):
        monkeypatch.setattr(typeone, "CHUNK", chunk)
        batched = {c.name: c for c in verify_hopf(h, seed=0).checks}
        assert [batched[c.name] for c in per_case.checks] == per_case.checks


@pytest.mark.parametrize("spec, max_deg", VERIFY_OPS)
def test_code_sampling_draws_the_pathkey_tuples(monkeypatch, spec, max_deg):
    h = verify_op_hopf(spec, max_deg)
    report, recorded = checked_cases(monkeypatch, h, seed=3)
    assert report.passed
    for name, arity in (("associativity", 3), ("coproduct-algebra-map", 2)):
        assert Counter(recorded[name]) == Counter(pathkey_cases(h, arity, 3, name))


def test_a_failing_check_leaves_the_next_checks_draws(monkeypatch):
    # each tuple check draws from its own rng: associativity failing at its
    # first case changes none of the algebra map's tuples
    h = verify_op_hopf("S3", 2)
    with pytest.MonkeyPatch.context() as unpatched:
        report, passing = checked_cases(unpatched, h, seed=3)
    assert report.passed
    monkeypatch.setattr(typeone, "associative",
                        lambda h, degrees, a, b, c: np.zeros(len(a), dtype=bool))
    report, failing = checked_cases(monkeypatch, h, seed=3)
    assert [(c.name, c.checked) for c in report.checks if not c.ok] == [("associativity", 1)]
    assert failing["coproduct-algebra-map"] == passing["coproduct-algebra-map"]
    assert len(failing["coproduct-algebra-map"]) == 300


def test_basis_is_lexicographic_in_vertex_and_word(hopf_s3_loops, hopf_s3_sgn):
    # oracle: extend each path of degree n - 1, in basis order, by the arrows
    # of the quiver out of its target, in arrow order
    for h in (hopf_s3_loops, hopf_s3_sgn):
        apv, order = h.bim.apv, h.group.order
        arrows = list(h.bim.quiver.arrows())
        level = [((x,), x) for x in range(order)]        # (key, target)
        for n in range(h.max_deg + 1):
            keys = [key for key, _ in level]
            assert basis(h, n) == keys == sorted(keys)
            assert [h.code(key) for key in keys] == list(range(h.dim(n)))
            assert keys == list(itertools.product(range(order), *[range(apv)] * n))
            assert [vertices(h, key)[-1] for key in keys] == [t for _, t in level]
            level = [(key + (number % apv,), a.y) for key, t in level
                     for number, a in enumerate(arrows) if a.x == t]


def test_truncation_overflow(hopf_s3_sgn):
    k1 = hopf_s3_sgn.key(2, 0)
    k2 = hopf_s3_sgn.key(2, 0)
    with pytest.raises(TruncationError):
        hopf_s3_sgn.product_basis(k1, k2)


def test_mutated_product_fails_coproduct_map(monkeypatch, s3):
    # one coefficient of T[1], the right action of x on letter 0, doubled;
    # the failures, (checked, witness), are those of the dict products,
    # coproducts and antipode under the same corruption, the antipode first
    # failing at (x, 0), off the identity.  Chunks of 7 cases put the
    # failing triple and pair past the first chunk
    h = s3_sgn_degree_two(s3)
    coef = h.action_table(1)[1]
    x = 1
    assert coef[x, 0, 0] != 0
    coef[x, 0, 0] = 2 * coef[x, 0, 0] % h.p
    for chunk in (typeone.CHUNK, 7):
        monkeypatch.setattr(typeone, "CHUNK", chunk)
        report = verify_hopf(h, seed=4)
        assert report.mode == "exhaustive"
        failed = {c.name: (c.checked, c.witness) for c in report.checks if not c.ok}
        assert failed == {"associativity": (7352, "((0, 0), (1,), (1,))"),
                          "coassociativity": (30, "(0, 0, 0)"), "counit": (30, "(0, 0, 0)"),
                          "coproduct-algebra-map": (577, "((0, 0), (0, 0))"),
                          "antipode": (10, "(1, 0)")}, report.to_json()


def test_wrong_target_fails_a_product_check(s3):
    # one degree-1 path ends at the wrong vertex: a product with it on the
    # right is then acted on by the wrong element
    ram = parse_ramification(s3, "(0 1):1")
    h = tensor_hopf(make_rsr(s3, ram, None, {1: (1,)}), 2)
    code = h.code((0, 0))
    end = int(h.target[1][code])
    assert end == vertices(h, (0, 0))[-1]
    h.target[1][code] = next(x for x in range(s3.order) if x not in (0, end))
    report = verify_hopf(h, seed=4)
    failed = {c.name for c in report.checks if not c.ok}
    assert "coproduct-algebra-map" in failed or "associativity" in failed, report.to_json()


def test_type_one_dims_c2():
    g = parse_group("C2")
    ram = parse_ramification(g, "(0 1):1")
    rsr = make_rsr(g, ram, None, {1: (1,)})
    assert type_one_dims(rsr, 4) == [2, 2, 0, 0, 0]


def test_type_one_dims_zero_ramification(s3):
    rsr = make_rsr(s3, parse_ramification(s3, ""), None, {})
    assert type_one_dims(rsr, 3) == [6, 0, 0, 0]


def test_type_one_dims_transpositions(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    assert type_one_dims(rsr, 5) == [6, 18, 24, 18, 6, 0]


def test_type_one_dims_match_biproduct(s3):
    # entrywise |G| times the Nichols dimensions, plus the hard invariants
    # dims[0] = |G| and dims[1] = |G| * dim V
    ram = parse_ramification(s3, "(0 1 2):1")
    rsr = make_rsr(s3, ram, None, {2: (1,)})
    dims = type_one_dims(rsr, 3)
    base = nichols_dims(yd_from_rsr(rsr), 3)
    assert dims == [6 * b for b in base]
    assert dims[0] == s3.order
    assert dims[1] == s3.order * rsr.quiver().arrows_per_vertex


def test_structure_dump(s3):
    from quiverhopf.typeone import structure_json
    rsr = make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)})
    h = tensor_hopf(rsr, 1)
    doc = structure_json(h)
    assert doc["dims"] == [6, 18]
    # vertex*vertex block is the multiplication table
    vertex_products = [e for e in doc["products"]
                       if "vertex" in e["left"] and "vertex" in e["right"]]
    assert len(vertex_products) == 36
    assert all(len(e["terms"]) == 1 for e in vertex_products)
