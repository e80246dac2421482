import pytest

from quiverhopf import (
    TruncationError,
    make_rsr,
    parse_group,
    parse_ramification,
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
            assert hopf_s3_loops.product_basis(x, y) == {s3.mul(x, y): 1}
    # antipode on vertices is inversion
    for x in range(s3.order):
        assert hopf_s3_loops.antipode(x) == {s3.inv(x): 1}
        assert hopf_s3_loops.coproduct(x) == {(x, x): 1}


def test_arrow_times_vertex_is_right_action(hopf_s3_sgn, s3):
    h = hopf_s3_sgn
    for key in h.basis_by_degree[1]:
        arrow = key[0]
        for x in range(s3.order):
            expected = {(b,): c for b, c in h.bim.right_action(arrow, x)}
            assert h.product_basis(key, x) == expected
            assert h.product_basis(x, key) == \
                {(h.bim.left_action(x, arrow),): 1}


def test_tensor_relation(hopf_s3_sgn, s3):
    # the defining relation of the tensor product over the group algebra:
    # (p . g) * q = p * (g . q)
    h = hopf_s3_sgn
    keys = h.basis_by_degree[1]
    for pk in keys[:6]:
        for qk in keys[:6]:
            for g in range(s3.order):
                lhs = {}
                for k1, c1 in h._right(pk, g).items():
                    for k, c in h.product_basis(k1, qk).items():
                        lhs[k] = (lhs.get(k, 0) + c1 * c) % h.p
                shifted = h._left(g, qk)
                rhs = h.product_basis(pk, shifted)
                assert {k: v for k, v in lhs.items() if v} == rhs


def test_skew_primitivity(hopf_s3_loops, hopf_s3_sgn):
    assert skew_primitive_report(hopf_s3_loops).passed
    assert skew_primitive_report(hopf_s3_sgn).passed


def test_general_arrow_coproduct(hopf_s3_sgn, s3):
    # Delta(a_{y,x}) = y (x) a + a (x) x for every arrow
    h = hopf_s3_sgn
    for key in h.basis_by_degree[1]:
        a = key[0]
        assert h.coproduct(key) == {(a.y, key): 1, (key, a.x): 1}


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


def test_truncation_overflow(hopf_s3_sgn):
    k1 = hopf_s3_sgn.basis_by_degree[2][0]
    k2 = hopf_s3_sgn.basis_by_degree[2][0]
    with pytest.raises(TruncationError):
        hopf_s3_sgn.product_basis(k1, k2)


def test_mutated_product_fails_coproduct_map(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    h = tensor_hopf(rsr, 2)
    k1 = h.basis_by_degree[1][0]
    k2 = h.basis_by_degree[1][3]
    mutated = h.product_basis(k1, k2)
    target = next(iter(mutated))
    mutated[target] = (mutated[target] + 2) % h.p
    h._prod_cache[(k1, k2)] = {k: v for k, v in mutated.items() if v}
    report = verify_hopf(h, seed=4)
    assert not report.passed
    failed = {c.name for c in report.checks if not c.ok}
    assert "coproduct-algebra-map" in failed or "associativity" in failed


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
