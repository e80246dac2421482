import numpy as np
import pytest

from quiverhopf import (
    ArrowId,
    InputError,
    Permutation,
    build_bimodule,
    conjugacy_classes,
    make_rsr,
    parse_group,
    parse_ramification,
    transversal_iso,
    verify_bimodule,
)
from quiverhopf.bimodule import Report, check
from quiverhopf.groups import coset_transversal


@pytest.fixture(scope="module")
def sgn_bimodule(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    return build_bimodule(rsr)


def test_left_action_is_index_shift(sgn_bimodule, s3):
    m = sgn_bimodule
    for h in range(s3.order):
        for a in m.arrows:
            b = m.left_action(h, a)
            assert (b.x, b.y) == (s3.mul(h, a.x), s3.mul(h, a.y))
            assert (b.cls, b.slot, b.j) == (a.cls, a.slot, a.j)


def test_right_action_centralizer_case(s3):
    # x = 1, y = u(C), h in the centralizer: coefficients are rho(h) rows
    ram = parse_ramification(s3, "e:2")
    rsr = make_rsr(s3, ram, None, {0: (2,)})
    m = build_bimodule(rsr)
    rho = rsr.irrep(0, 0)
    for h in range(s3.order):          # Z_e = S3
        for j in range(2):
            a = ArrowId(0, 0, 0, 0, j)
            out = dict(((b.slot, b.j, b.x, b.y), c)
                       for b, c in m.right_action(a, h))
            for s in range(2):
                expected = int(rho.matrix(h)[j, s])
                got = out.get((0, s, h, h), 0)
                assert got == expected % m.p or (expected % m.p == 0 and got == 0)


def test_right_action_sign_flip(sgn_bimodule, s3):
    # a_{(0 1), e} . (0 1) = (p-1) a_{e, (0 1)}
    m = sgn_bimodule
    t01 = s3.find(Permutation((1, 0, 2)))
    a = ArrowId(0, t01, 1, 0, 0)
    assert m.right_action(a, t01) == [(ArrowId(t01, 0, 1, 0, 0), m.p - 1)]


def test_verify_passes_exhaustively(sgn_bimodule):
    report = verify_bimodule(sgn_bimodule)
    assert report.mode == "exhaustive"
    assert report.passed, report.to_json()


def test_verify_zero_ramification(s3):
    rsr = make_rsr(s3, parse_ramification(s3, ""), None, {})
    m = build_bimodule(rsr)
    assert m.dim() == 0
    assert verify_bimodule(m).passed


def test_right_action_block_structure(sgn_bimodule):
    # all component arrows of a.h share the slot index
    m = sgn_bimodule
    for a in m.arrows:
        for h in range(m.group.order):
            for b, _ in m.right_action(a, h):
                assert b.slot == a.slot and b.cls == a.cls


def test_right_action_invertible(s3):
    ram = parse_ramification(s3, "e:2")
    rsr = make_rsr(s3, ram, None, {0: (2,)})
    m = build_bimodule(rsr)
    for a in m.arrows:
        for h in range(s3.order):
            back = {}
            for b, c in m.right_action(a, h):
                for bb, cc in m.right_action(b, s3.inv(h)):
                    back[bb] = (back.get(bb, 0) + c * cc) % m.p
            back = {k: v for k, v in back.items() if v}
            assert back == {a: 1}


def test_mutation_is_caught(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    for zidx in range(2):
        for delta in (1, 5):
            m = build_bimodule(rsr)
            m.blocks[(1, 0)] = [b.copy() for b in m.blocks[(1, 0)]]
            m.blocks[(1, 0)][zidx][0, 0] = (m.blocks[(1, 0)][zidx][0, 0] + delta) % m.p
            assert not verify_bimodule(m).passed
            assert not verify_bimodule(m, exhaustive=False, samples=3000,
                                       seed=1).passed


def test_sampled_mode(s4):
    ram = parse_ramification(s4, "(0 1):1")
    rsr = make_rsr(s4, ram, None, {1: (1,)})
    m = build_bimodule(rsr)
    report = verify_bimodule(m, exhaustive=False, samples=2000, seed=11)
    assert report.passed
    assert report.mode == "sampled(2000)"


def test_transversal_iso_identity(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    ctx = conjugacy_classes(s3)[1]
    t = {1: list(coset_transversal(s3, ctx.rep)[0])}
    f = transversal_iso(rsr, t, t)
    assert (f.matrix == np.eye(f.matrix.shape[0], dtype=np.int64)).all()
    assert f.verify().passed


def test_transversal_iso_sign_diagonal(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    ctx = conjugacy_classes(s3)[1]
    t1 = {1: list(coset_transversal(s3, ctx.rep)[0])}
    t2 = {1: list(t1[1])}
    z_nontrivial = [z for z in ctx.centralizer if z != 0][0]
    t2[1][1] = s3.mul(z_nontrivial, t2[1][1])
    f = transversal_iso(rsr, t1, t2)
    # diagonal with entries +-1
    mat = f.matrix
    assert (mat == np.diag(np.diag(mat))).all()
    assert set(np.diag(mat)) <= {1, f.source.p - 1}
    assert (np.diag(mat) == f.source.p - 1).any()
    report = f.verify()
    assert report.passed, report.to_json()


def test_transversal_iso_trivial_class(s3):
    # class {e}: a single coset, both representatives are the identity
    ram = parse_ramification(s3, "e:2")
    rsr = make_rsr(s3, ram, None, {0: (2,)})
    f = transversal_iso(rsr, {0: [0]}, {0: [0]})
    assert (f.matrix == np.eye(12, dtype=np.int64)).all()


def test_transversal_coset_mismatch(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    ctx = conjugacy_classes(s3)[1]
    t1 = {1: list(coset_transversal(s3, ctx.rep)[0])}
    bad = {1: [t1[1][1], t1[1][0], t1[1][2]]}    # reordered cosets
    with pytest.raises(InputError):
        transversal_iso(rsr, t1, bad)


def test_bimodule_json_dump(sgn_bimodule):
    doc = sgn_bimodule.to_json()
    assert len(doc["arrows"]) == 18
    assert doc["prime"] == sgn_bimodule.p
    assert any(e["class"] == 1 for e in doc["zeta_blocks"])


def test_bimodule_with_noncanonical_u(s3):
    ram = parse_ramification(s3, "(0 1):1")
    u02 = s3.find(Permutation((2, 1, 0)))
    rsr = make_rsr(s3, ram, {1: u02}, {1: (1,)})
    m = build_bimodule(rsr)
    assert m.dim() == 18
    report = verify_bimodule(m, exhaustive=True)
    assert report.passed, report.to_json()


def test_transversal_iso_with_noncanonical_u(s3):
    ram = parse_ramification(s3, "(0 1):1")
    u02 = s3.find(Permutation((2, 1, 0)))
    rsr = make_rsr(s3, ram, {1: u02}, {1: (1,)})
    t1 = {1: list(coset_transversal(s3, u02)[0])}
    t2 = {1: list(t1[1])}
    z = [h for h in range(s3.order)
         if s3.mul(h, u02) == s3.mul(u02, h) and h][0]
    t2[1][2] = s3.mul(z, t2[1][2])
    fmap = transversal_iso(rsr, t1, t2)
    assert fmap.verify(exhaustive=True).passed


def test_two_class_bimodule(s3):
    ram = parse_ramification(s3, "e:1,(0 1 2):2")
    rsr = make_rsr(s3, ram, None, {0: (0,), 2: (1, 2)})
    m = build_bimodule(rsr)
    assert m.dim() == 6 * (1 + 4)
    assert verify_bimodule(m, exhaustive=True).passed


def test_product_group_pipeline():
    # a direct product exercised end to end
    from quiverhopf import (
        choose_prime, class_of, coinvariant_yd, enumerate_types,
        nichols_dims, rsr_from_type, verify_yd,
    )
    g = parse_group("S3xC2")
    f = choose_prime(g)
    rep = g.find(Permutation((1, 0, 2, 4, 3)))
    cls = class_of(g, rep)
    classes = conjugacy_classes(g)
    ram = parse_ramification(g, f"{g.element_name(classes[cls].rep)}:1")
    types = enumerate_types(g, ram, f)
    assert len(types) == 4                     # centralizer C2 x C2
    rsr = rsr_from_type(g, ram, types[1], f)
    m = build_bimodule(rsr)
    assert m.dim() == 36
    assert verify_bimodule(m).passed
    v = coinvariant_yd(m)
    assert v.dim == 3
    assert verify_yd(v).passed
    assert nichols_dims(v, 3) == [1, 3, 4, 3]


def test_check_records_first_failure_and_count():
    formatted = []

    def witness(x):
        formatted.append(x)
        return f"x={x}"

    report = Report()
    check(report, "first-failure", range(10), lambda x: x < 3, witness)
    check(report, "weighted", range(4), lambda x: True, witness, weight=5)
    check(report, "empty", [], lambda x: False, witness)
    assert [c.to_json() for c in report.checks] == [
        {"name": "first-failure", "ok": False, "checked": 4, "witness": "x=3"},
        {"name": "weighted", "ok": True, "checked": 20},
        {"name": "empty", "ok": True, "checked": 0}]
    assert formatted == [3]
