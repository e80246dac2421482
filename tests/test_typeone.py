import itertools
import random
from collections import Counter

import numpy as np
import pytest

from quiverhopf import typeone
from quiverhopf.bimodule import Report, cases, check, combine
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
    """verify_hopf(h, **kwargs) and the cases each of its checks ran on; the
    batched checks' cases as PathKey tuples, grouped by degree composition."""
    cases = {}

    def recording(report, name, it, test, *args, **kw):
        cases[name] = list(it)
        check(report, name, cases[name], test, *args, **kw)

    def batch_recording(name, test):
        def run(h, degrees, *codes):
            cases.setdefault(name, []).extend(zip(*(
                [h.basis_by_degree[d][c] for c in cs] for d, cs in zip(degrees, codes))))
            return test(h, degrees, *codes)
        return run

    monkeypatch.setattr(typeone, "check", recording)
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


def test_degree_dimensions(hopf_s3_loops, hopf_s3_sgn):
    assert [hopf_s3_loops.dim(n) for n in range(4)] == [6, 12, 24, 48]
    assert [hopf_s3_sgn.dim(n) for n in range(4)] == [6, 18, 54, 162]


def test_degree_zero_is_group_algebra(hopf_s3_loops, s3):
    for x in range(s3.order):
        for y in range(s3.order):
            assert hopf_s3_loops.product_basis((x,), (y,)) == {(s3.mul(x, y),): 1}
    # antipode on vertices is inversion
    for x in range(s3.order):
        assert hopf_s3_loops.antipode((x,)) == {(s3.inv(x),): 1}
        assert hopf_s3_loops.coproduct((x,)) == {((x,), (x,)): 1}


def test_arrow_times_vertex_is_right_action(hopf_s3_sgn, s3):
    # a 1-path (x0, l) is arrow number x0 * apv + l
    h = hopf_s3_sgn
    m = h.bim
    for x in range(s3.order):
        right, left = m.right_stack([x])[0], m.left_perm(x)
        for x0, l in h.basis_by_degree[1]:
            expected = {(s3.mul(x0, x), int(r)): int(right[r, l])
                        for r in np.flatnonzero(right[:, l])}
            assert h.product_basis((x0, l), (x,)) == expected
            assert h.product_basis((x,), (x0, l)) == \
                {tuple(divmod(int(left[x0 * m.apv + l]), m.apv)): 1}


def oracle_product(h, stack, pk, qk):
    """The dict product rule: p * q = (s(p) s(q), word(q) ++ A_{t(q)}^(x)m
    word(p)), the word of p acted on letterwise by the right action of
    t(q), read from stack, the bimodule's right actions of every element."""
    right = stack[h.vertices(qk)[-1]]
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
                for pk, qk in itertools.product(h.basis_by_degree[m], h.basis_by_degree[n]):
                    expected = oracle_product(h, stack, pk, qk)
                    assert h.product_basis(pk, qk) == expected, (pk, qk)


def test_tensor_relation(hopf_s3_sgn, s3):
    # the defining relation of the tensor product over the group algebra:
    # (p . g) * q = p * (g . q)
    h = hopf_s3_sgn
    keys = h.basis_by_degree[1]
    for pk in keys[:6]:
        for qk in keys[:6]:
            for g in range(s3.order):
                lhs = h.multiply(h.product_basis(pk, (g,)), {qk: 1})
                rhs = h.multiply({pk: 1}, h.product_basis((g,), qk))
                assert lhs == rhs


def test_skew_primitivity(hopf_s3_loops, hopf_s3_sgn):
    assert skew_primitive_report(hopf_s3_loops).passed
    assert skew_primitive_report(hopf_s3_sgn).passed


def test_general_arrow_coproduct(hopf_s3_sgn, s3):
    # Delta(a_{y,x}) = y (x) a + a (x) x for every arrow
    h = hopf_s3_sgn
    for x, l in h.basis_by_degree[1]:
        a = h.bim.quiver.arrow(x * h.bim.apv + l)
        assert h.coproduct((x, l)) == {((a.y,), (x, l)): 1, ((x, l), (a.x,)): 1}


def factor_product_coproduct(h, key):
    """Oracle: Delta of one path multiplied out factor by factor.  The path
    is F_n * ... * F_1 * x0 with F_i = l_i . x_{i-1}^-1, a combination of
    arrows v out of e with Delta(v) = t(v) (x) v + v (x) 1."""
    acc = None
    for x, l in reversed(list(zip(h.vertices(key), key[1:]))):
        factor = {}
        right = h.bim.right_stack([h.group.inv(x)])[0]
        for v in np.flatnonzero(right[:, l]).tolist():
            c = int(right[v, l])
            factor[((h._elem[v],), (0, v))] = c
            factor[((0, v), (0,))] = c
        acc = factor if acc is None else h._tensor_mul(acc, factor)
    start = {(key[:1], key[:1]): 1}
    return start if acc is None else h._tensor_mul(acc, start)


def test_coproduct_matches_the_factor_product(hopf_s3_sgn):
    for h in (hopf_s3_sgn, two_dimensional_slot_hopf(2)):
        for n in range(h.max_deg + 1):
            for key in h.basis_by_degree[n]:
                assert h.coproduct(key) == factor_product_coproduct(h, key), key


@pytest.mark.parametrize("word, expected", [((1,), "counit"),
                                            ((1, 2), "coassociativity")])
def test_corrupted_word_coproduct_fails_coassociativity_or_counit(s3, word, expected):
    # one word's Delta(e, w) corrupted in the cache: on a letter the
    # a (x) 1 term scaled by 2, on two letters the t(a) (x) a term moved to
    # e (x) a, which leaves the counit intact
    ram = parse_ramification(s3, "(0 1):1")
    h = tensor_hopf(make_rsr(s3, ram, None, {1: (1,)}), 2)
    path = (0,) + word
    cop = dict(h._coproduct_at_e(word))
    if len(word) == 1:
        cop[(path, (0,))] = 2 * cop[(path, (0,))] % h.p
    else:
        (left,) = [a for a, b in cop if b == path]
        assert left != (0,)
        cop[((0,), path)] = cop.pop((left, path))
    h._word_cop[word] = cop
    report = verify_hopf(h, seed=4)
    failed = {c.name for c in report.checks if not c.ok}
    assert expected in failed, report.to_json()


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
    of y on letter l, for the first sampled triple ((x, l), (y,), r) at
    seed 0, so that this triple fails associativity."""
    g = parse_group(spec)
    ram = parse_ramification(g, "(0 1):2")
    h = tensor_hopf(rsr_from_type(g, ram, enumerate_types(g, ram)[0]), max_deg)
    if corrupt:
        triples = list(pathkey_cases(h, 3, random.Random("hopf:0")))
        (_, l), (y,), _ = next(t for t in triples if len(t[0]) == 2 and len(t[1]) == 1)
        coef = h.action_table(1)[1]
        coef[y, l, 0] = 2 * coef[y, l, 0] % h.p
    return h


def pathkey_cases(h, arity, rng):
    """Sampled tuples of PathKeys of total degree <= N, drawn from the
    lists of each degree's paths."""
    return cases([tuple(h.basis_by_degree[d] for d in c)
                  for c in itertools.product(range(h.max_deg + 1), repeat=arity)
                  if sum(c) <= h.max_deg], 300, rng)


def per_case_associative(h, t):
    """Oracle of `typeone.associative`: one triple of PathKeys through the
    dict products."""
    k1, k2, k3 = t
    return (h.multiply(h.product_basis(k1, k2), {k3: 1}) ==
            h.multiply({k1: 1}, h.product_basis(k2, k3)))


def per_case_multiplicative(h, t):
    """Oracle of `typeone.multiplicative`: one pair of PathKeys through the
    dict products and coproducts."""
    k1, k2 = t
    cop = h.coproduct
    return (combine(((pair, c * c2) for k, c in h.product_basis(k1, k2).items()
                     for pair, c2 in cop(k).items()), h.p) ==
            h._tensor_mul(cop(k1), cop(k2)))


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
    rng = random.Random("hopf:0")
    triples, pairs = list(pathkey_cases(h, 3, rng)), list(pathkey_cases(h, 2, rng))
    expected = [per_case_associative(h, t) for t in triples]
    assert batched_outcomes(h, typeone.associative, triples) == expected
    assert all(expected) != corrupt
    expected = [per_case_multiplicative(h, t) for t in pairs]
    assert batched_outcomes(h, typeone.multiplicative, pairs) == expected


@pytest.mark.parametrize("corrupt", [False, True])
@pytest.mark.parametrize("spec, max_deg", VERIFY_OPS)
def test_batched_reports_match_the_per_case_reports(spec, max_deg, corrupt):
    # counts, outcomes and witnesses as `check` gives them on the per-case
    # tests; after a failure the algebra map's draws start where `check`
    # stopped drawing triples
    h = verify_op_hopf(spec, max_deg, corrupt)
    batched = {c.name: c for c in verify_hopf(h, seed=0).checks}
    per_case, rng = Report(), random.Random("hopf:0")
    check(per_case, "associativity", pathkey_cases(h, 3, rng),
          lambda t: per_case_associative(h, t))
    check(per_case, "coproduct-algebra-map", pathkey_cases(h, 2, rng),
          lambda t: per_case_multiplicative(h, t))
    assert [batched[c.name] for c in per_case.checks] == per_case.checks
    assert per_case.passed != corrupt


@pytest.mark.parametrize("spec, max_deg", VERIFY_OPS)
def test_code_sampling_draws_the_pathkey_tuples(monkeypatch, spec, max_deg):
    h = verify_op_hopf(spec, max_deg)
    report, recorded = checked_cases(monkeypatch, h, seed=3)
    assert report.passed
    rng = random.Random("hopf:3")
    for name, arity in (("associativity", 3), ("coproduct-algebra-map", 2)):
        assert Counter(recorded[name]) == Counter(pathkey_cases(h, arity, rng))


def test_basis_is_lexicographic_in_vertex_and_word(hopf_s3_loops, hopf_s3_sgn):
    # oracle: extend each path of degree n - 1, in basis order, by the arrows
    # of the quiver out of its target, in arrow order
    for h in (hopf_s3_loops, hopf_s3_sgn):
        apv, order = h.bim.apv, h.group.order
        arrows = list(h.bim.quiver.arrows())
        level = [((x,), x) for x in range(order)]        # (key, target)
        for n in range(h.max_deg + 1):
            keys = [key for key, _ in level]
            assert h.basis_by_degree[n] == keys == sorted(keys)
            assert keys == list(itertools.product(range(order), *[range(apv)] * n))
            assert [h.vertices(key)[-1] for key in keys] == [t for _, t in level]
            level = [(key + (number % apv,), a.y) for key, t in level
                     for number, a in enumerate(arrows) if a.x == t]


def test_truncation_overflow(hopf_s3_sgn):
    k1 = hopf_s3_sgn.basis_by_degree[2][0]
    k2 = hopf_s3_sgn.basis_by_degree[2][0]
    with pytest.raises(TruncationError):
        hopf_s3_sgn.product_basis(k1, k2)


def test_mutated_product_fails_coproduct_map(s3):
    # one coefficient of T[1], the right action of x on letter 0, doubled
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    h = tensor_hopf(rsr, 2)
    coef = h.action_table(1)[1]
    x = 1
    assert coef[x, 0, 0] != 0
    coef[x, 0, 0] = 2 * coef[x, 0, 0] % h.p
    report = verify_hopf(h, seed=4)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.ok}
    assert "coproduct-algebra-map" in failed or "associativity" in failed


def test_wrong_target_fails_a_product_check(s3):
    # one degree-1 path ends at the wrong vertex: a product with it on the
    # right is then acted on by the wrong element
    ram = parse_ramification(s3, "(0 1):1")
    h = tensor_hopf(make_rsr(s3, ram, None, {1: (1,)}), 2)
    code = h.code((0, 0))
    end = int(h.target[1][code])
    assert end == h.vertices((0, 0))[-1]
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
