import random

import numpy as np
import pytest

from percase import cases, check
from quiverhopf import (
    ArrowId,
    Group,
    InputError,
    build_bimodule,
    centralizer_subgroup,
    coinvariant_yd,
    conjugacy_classes,
    enumerate_types,
    make_rsr,
    parse_group,
    parse_ramification,
    rsr_from_type,
    transversal_iso,
    verify_bimodule,
    verify_yd,
)
from quiverhopf.bimodule import BimoduleMap, Report, check_all


@pytest.fixture(scope="module")
def sgn_bimodule(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    return build_bimodule(rsr)


def every_class_bimodule(spec):
    """The bimodule of the RSR ramified once at every class, each with the
    trivial character of its centralizer."""
    g = parse_group(spec)
    classes = conjugacy_classes(g)
    ram = parse_ramification(g, ",".join(f"{g.element_name(c.rep)}:1" for c in classes))
    return build_bimodule(make_rsr(g, ram, None, {c.class_index: (0,) for c in classes}))


def centralizer_of(g, a):
    every = np.arange(g.order)
    return np.flatnonzero(g.products(every, a) == g.products(a, every)).tolist()


def right_action(m, a: ArrowId, h: int) -> list[tuple[ArrowId, int]]:
    """The terms of a . h read off the module's local stack, by name."""
    x, l = divmod(list(m.quiver.arrows()).index(a), m.apv)
    col = m.right_stack([h])[0][:, l]
    xh = m.group.mul(x, h)
    return [(m.quiver.arrow(xh * m.apv + r), int(col[r])) for r in np.flatnonzero(col)]


def test_left_action_is_index_shift(sgn_bimodule, s3):
    m = sgn_bimodule
    arrows = list(m.quiver.arrows())
    for h in range(s3.order):
        for a, i in zip(arrows, m.left_perm(h)):
            b = arrows[i]
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
                       for b, c in right_action(m, a, h))
            for s in range(2):
                expected = int(rho.matrix(h)[j, s])
                got = out.get((0, s, h, h), 0)
                assert got == expected % m.p or (expected % m.p == 0 and got == 0)


def test_right_action_sign_flip(sgn_bimodule, s3):
    # a_{(0 1), e} . (0 1) = (p-1) a_{e, (0 1)}
    m = sgn_bimodule
    t01 = s3.find((1, 0, 2))
    a = ArrowId(0, t01, 1, 0, 0)
    assert right_action(m, a, t01) == [(ArrowId(t01, 0, 1, 0, 0), m.p - 1)]


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
    for a in m.quiver.arrows():
        for h in range(m.group.order):
            for b, _ in right_action(m, a, h):
                assert b.slot == a.slot and b.cls == a.cls


def test_right_action_invertible(s3):
    ram = parse_ramification(s3, "e:2")
    rsr = make_rsr(s3, ram, None, {0: (2,)})
    m = build_bimodule(rsr)
    for a in m.quiver.arrows():
        for h in range(s3.order):
            back = {}
            for b, c in right_action(m, a, h):
                for bb, cc in right_action(m, b, s3.inv(h)):
                    back[bb] = (back.get(bb, 0) + c * cc) % m.p
            back = {k: v for k, v in back.items() if v}
            assert back == {a: 1}


def test_mutation_is_caught(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    for zidx in range(2):
        for delta in (1, 5):
            m = build_bimodule(rsr)     # its own stack of blocks
            m.blocks[(1, 0)][zidx][0, 0] = (m.blocks[(1, 0)][zidx][0, 0] + delta) % m.p
            assert not verify_bimodule(m).passed


def test_writing_a_block_leaves_the_cached_irrep_unchanged(s3):
    rsr = make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)})
    cached = rsr.irrep(1, 0).matrices
    assert not cached.flags.writeable
    before = cached.copy()
    m = build_bimodule(rsr)
    m.blocks[(1, 0)][1][0, 0] = (m.blocks[(1, 0)][1][0, 0] + 1) % m.p
    assert (rsr.irrep(1, 0).matrices == before).all()
    assert (build_bimodule(rsr).blocks[(1, 0)] == before).all()


def _far_from_generators(g) -> int:
    """An element that is neither e, a generator nor a product of two: only
    the cases whose g or h ranges over all of G meet it."""
    gens = g.generating_sequence()
    near = {0, *gens, *(g.mul(a, b) for a in gens for b in gens)}
    return next(h for h in range(g.order) if h not in near)


@pytest.mark.parametrize("spec, ram", [("S3", "e:1,(0 1 2):2"), ("D4", "(0 2):1"),
                                       ("S4", "(0 1):1"), ("S1", "e:1")])
def test_reduced_counts_are_pairs_times_weight(spec, ram):
    # |G| * |gens| pairs (g, s) times each check's weight; the trivial group
    # has no generators, so its reduced checks are left out
    g = parse_group(spec)
    r = parse_ramification(g, ram)
    rsr = rsr_from_type(g, r, enumerate_types(g, r)[-1])
    m = build_bimodule(rsr)
    pairs = g.order * len(g.generating_sequence())
    report = verify_bimodule(m)
    got = {c.name: c.checked for c in report.checks}
    assert report.passed and report.mode == "exhaustive"
    assert got.get("left-associativity", 0) == pairs * m.dim()
    assert got.get("right-associativity", 0) == pairs * sum(
        len(m.transversal[c]) * len(rsr.irreps[c]) for c in rsr.ram.support)
    yd = {c.name: c.checked for c in verify_yd(coinvariant_yd(m)).checks}
    assert yd.get("action-multiplicative", 0) == pairs


def _table_corruptions(s3):
    """(name, module) with one table entry changed at h = (0 2) only."""
    h = _far_from_generators(s3)
    sign = make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)})
    m = build_bimodule(sign)
    m.tp[1][0, h] = (m.tp[1][0, h] + 1) % len(m.transversal[1])
    yield "tp", m
    m = build_bimodule(sign)
    m.zl[1][0, h] = 1 - m.zl[1][0, h]          # the other element of Z = C2
    yield "zl", m
    # on the class of e, zl[0, h] = h: block h is used at (0, h) alone
    m = build_bimodule(make_rsr(s3, parse_ramification(s3, "e:2"), None, {0: (2,)}))
    assert (m.zl[0][0] == np.arange(s3.order)).all()
    m.blocks[(0, 0)][h][0, 0] = (m.blocks[(0, 0)][h][0, 0] + 1) % m.p
    yield "block", m


def test_table_corruption_away_from_generators_fails_right_associativity(s3):
    seen = []
    for what, m in _table_corruptions(s3):
        report = verify_bimodule(m)
        failed = [c.name for c in report.checks if not c.ok]
        assert "right-associativity" in failed, (what, report.to_json())
        seen.append(what)
    assert seen == ["tp", "zl", "block"]


def test_stacked_checks_name_the_first_failing_element(s3):
    # the block of h = (0 2) on the class of e is changed: each stacked
    # case covers all of G, fails on its first case and names the first g
    *_, (_, m) = _table_corruptions(s3)
    h = _far_from_generators(s3)
    s = s3.generating_sequence()[0]
    checks = {c.name: c for c in verify_bimodule(m).checks}
    first_g = min(h, s3.mul(h, s3.inv(s)))
    assert checks["right-associativity"].to_json() == {
        "name": "right-associativity", "ok": False, "checked": s3.order,
        "witness": f"class 0 slot 0 theta 0 g={s3.element_name(first_g)} "
                   f"h={s3.element_name(s)}"}
    assert checks["right-invertibility"].to_json() == {
        "name": "right-invertibility", "ok": False, "checked": s3.order,
        "witness": f"class 0 slot 0 theta 0 "
                   f"h={s3.element_name(min(h, s3.inv(h)))}"}


@pytest.mark.parametrize("spec, ram", [("S3", "e:2,(0 1):1,(0 1 2):2"),
                                       ("S4", "e:2,(0 1):1")])
def test_left_perm_is_the_left_action(spec, ram):
    g = parse_group(spec)
    r = parse_ramification(g, ram)
    # a type with a slot of dimension > 1
    m = max((build_bimodule(rsr_from_type(g, r, t)) for t in enumerate_types(g, r)),
            key=lambda m: m.j.max())
    arrows = list(m.quiver.arrows())
    assert max(a.j for a in arrows) > 0
    for h in range(g.order):
        assert ([arrows[i] for i in m.left_perm(h)] ==
                [ArrowId(g.mul(h, a.x), g.mul(h, a.y), a.cls, a.slot, a.j)
                 for a in arrows])


def test_swapped_left_perm_entry_fails_both_modes(monkeypatch, s4):
    ram = parse_ramification(s4, "(0 1):1")
    m = build_bimodule(make_rsr(s4, ram, None, {1: (1,)}))
    left_perm = m.left_perm
    # at e (unit holds the lemma's base case), at a generator, and at an
    # element the reduced check meets only as h
    for bad in (0, 1, _far_from_generators(s4)):
        perm = left_perm(bad).copy()
        perm[[0, 1]] = perm[[1, 0]]
        monkeypatch.setattr(m, "left_perm",
                            lambda h: perm if h == bad else left_perm(h))
        report = verify_bimodule(m)
        failed = [c.name for c in report.checks if not c.ok]
        assert failed == ["unit"] * (bad == 0) + ["left-associativity"], \
            (bad, report.to_json())


def test_zeta_tables_trivial_cases():
    m = every_class_bimodule("S3")
    for cls, t in m.transversal.items():
        z = m.rsr.centralizer(cls)
        assert t[0] == 0
        # h in the centralizer, theta = 0: zeta = h
        for h in centralizer_of(m.group, m.rsr.u[cls]):
            assert (z.embed[m.zl[cls][0, h]], m.tp[cls][0, h]) == (h, 0)
        # h = identity: zeta = identity, theta unchanged
        assert (m.zl[cls][:, 0] == 0).all()
        assert m.tp[cls][:, 0].tolist() == list(range(len(t)))


@pytest.mark.parametrize("spec", ["S3", "S4", "D4"])
def test_zeta_tables_factor_g_theta_h(spec):
    # g_theta h = zeta g_theta' with zeta in the centralizer, for every (theta, h)
    m = every_class_bimodule(spec)
    g = m.group
    for ctx in conjugacy_classes(g):
        t, zl, tp = m.transversal[ctx.class_index], m.zl[ctx.class_index], m.tp[ctx.class_index]
        z = m.rsr.centralizer(ctx.class_index)
        zset = set(centralizer_of(g, ctx.rep))
        assert len(t) == ctx.size
        for theta in range(len(t)):
            for h in range(g.order):
                assert zl[theta, h] >= 0
                zeta = int(z.embed[zl[theta, h]])
                assert zeta in zset
                assert g.mul(t[theta], h) == g.mul(zeta, t[tp[theta, h]])


def test_zeta_tables_cocycle():
    # factoring for h1 then h2 agrees with factoring for h1*h2
    for spec in ("S3", "S4"):
        m = every_class_bimodule(spec)
        g = m.group
        rng = random.Random(7)
        for cls, t in m.transversal.items():
            zl, tp = m.zl[cls], m.tp[cls]
            embed = m.rsr.centralizer(cls).embed
            for _ in range(40):
                theta = rng.randrange(len(t))
                h1 = rng.randrange(g.order)
                h2 = rng.randrange(g.order)
                t1, h12 = tp[theta, h1], g.mul(h1, h2)
                assert tp[theta, h12] == tp[t1, h2]
                assert embed[zl[theta, h12]] == g.mul(int(embed[zl[theta, h1]]),
                                                      int(embed[zl[t1, h2]]))


def test_transversal_iso_identity(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    ctx = conjugacy_classes(s3)[1]
    t = {1: centralizer_subgroup(s3, ctx).transversal.tolist()}
    f = transversal_iso(rsr, t, t)
    assert (f.matrix == np.eye(f.matrix.shape[0], dtype=np.int64)).all()
    assert f.verify().passed


def test_transversal_iso_sign_diagonal(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    ctx = conjugacy_classes(s3)[1]
    t1 = {1: centralizer_subgroup(s3, ctx).transversal.tolist()}
    t2 = {1: list(t1[1])}
    z_nontrivial = centralizer_of(s3, ctx.rep)[1]
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
    t1 = {1: centralizer_subgroup(s3, ctx).transversal.tolist()}
    bad = {1: [t1[1][1], t1[1][0], t1[1][2]]}    # reordered cosets
    with pytest.raises(InputError):
        transversal_iso(rsr, t1, bad)


def test_transversal_entries_out_of_range(s3):
    # negative entries are not wrapped-around aliases, and entries past
    # |G| - 1 are input errors, not IndexErrors
    rsr = make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)})
    t = {1: centralizer_subgroup(s3, conjugacy_classes(s3)[1]).transversal.tolist()}
    assert t == {1: [0, 1, 3]}
    for bad in ([-6, -5, -3], [0, 1, 3 + s3.order], [0, s3.order, 3]):
        with pytest.raises(InputError, match="out of range"):
            build_bimodule(rsr, {1: bad})
        with pytest.raises(InputError, match="out of range"):
            transversal_iso(rsr, t, {1: bad})


def test_changed_transversal_iso_entry_fails_action_intertwining(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    t1 = {1: centralizer_subgroup(s3, conjugacy_classes(s3)[1]).transversal.tolist()}
    t2 = {1: [t1[1][0], s3.mul(s3.find((1, 0, 2)), t1[1][1]), t1[1][2]]}
    f = transversal_iso(rsr, t1, t2)
    report = f.verify()
    gens = s3.generating_sequence()
    assert {c.name: c.checked for c in report.checks}["action-intertwining"] == \
        2 * len(gens) * f.source.dim()
    assert report.passed, report.to_json()
    for i in (0, 7):
        bad = transversal_iso(rsr, t1, t2)
        bad.matrix[i, i] = 2          # was +-1: still bijective and graded
        report = bad.verify()
        assert [c.name for c in report.checks if not c.ok] == ["action-intertwining"]


def test_singular_map_fails_bijective(s3):
    # the identity map with one arrow sent to zero: rank one short, and the
    # one case of bijective fails with its witness
    m = build_bimodule(make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)}))
    f = np.eye(m.dim(), dtype=np.int64)
    assert BimoduleMap(m, m, f).verify().checks[0].to_json() == {
        "name": "bijective", "ok": True, "checked": 1}
    f[0, 0] = 0
    report = BimoduleMap(m, m, f).verify()
    assert report.checks[0].to_json() == {"name": "bijective", "ok": False, "checked": 1,
                                          "witness": "the map is singular"}
    assert not report.passed


def test_map_intertwining_only_the_left_action_fails(s3):
    # scaling the arrows with x^-1 y = (0 1) by 2 commutes with the left
    # action and the coaction, but a . h moves x^-1 y to h^-1 x^-1 y h
    m = build_bimodule(make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)}))
    t01 = s3.find((1, 0, 2))
    scale = [2 if s3.mul(s3.inv(a.x), a.y) == t01 else 1 for a in m.quiver.arrows()]
    report = BimoduleMap(m, m, np.diag(scale).astype(np.int64)).verify()
    failed = [c for c in report.checks if not c.ok]
    assert [c.name for c in failed] == ["action-intertwining"]
    assert failed[0].witness.startswith("right action")


def test_class_data_corruption_fails_commutation(s3):
    # one array comparison over the arrows, then over (h, class, theta):
    # the count runs to the first failing case, which the witness names
    sign = make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)})
    m = build_bimodule(sign)
    m.theta = m.theta.copy()
    m.theta[1] = m.theta[0]                 # arrow 1 claims the class element of 0
    checks = {c.name: c for c in verify_bimodule(m).checks}
    assert checks["commutation-and-coaction"].to_json() == {
        "name": "commutation-and-coaction", "ok": False, "checked": 2,
        "witness": f"arrow {m.quiver.arrow(1)} has inconsistent class data"}
    h = _far_from_generators(s3)
    m = build_bimodule(sign)
    m.tp[1][2, h] = (m.tp[1][2, h] + 1) % 3
    checks = {c.name: c for c in verify_bimodule(m).checks}
    assert checks["commutation-and-coaction"].to_json() == {
        "name": "commutation-and-coaction", "ok": False,
        "checked": m.dim() + 3 * h + 3,
        "witness": f"class 1 theta 2 h={s3.element_name(h)}"}


def test_map_off_the_coaction_fails_coaction_intertwining(sgn_bimodule):
    # arrow 0 runs e -> (0 1), arrow 1 runs e -> (0 2): same source, other target
    m = sgn_bimodule
    f = np.eye(m.dim(), dtype=np.int64)
    f[0, 1] = 1
    checks = {c.name: c for c in BimoduleMap(m, m, f).verify().checks}
    assert checks["coaction-intertwining"].to_json() == {
        "name": "coaction-intertwining", "ok": False, "checked": 2,
        "witness": f"{m.quiver.arrow(0)} maps to {m.quiver.arrow(1)}"}


def test_bimodule_json_dump(sgn_bimodule):
    doc = sgn_bimodule.to_json()
    assert len(doc["arrows"]) == 18
    assert doc["prime"] == sgn_bimodule.p
    assert any(e["class"] == 1 for e in doc["zeta_blocks"])


def test_bimodule_with_noncanonical_u(s3):
    ram = parse_ramification(s3, "(0 1):1")
    u02 = s3.find((2, 1, 0))
    rsr = make_rsr(s3, ram, {1: u02}, {1: (1,)})
    m = build_bimodule(rsr)
    assert m.dim() == 18
    report = verify_bimodule(m)
    assert report.passed, report.to_json()


def test_transversal_iso_with_noncanonical_u(s3):
    ram = parse_ramification(s3, "(0 1):1")
    u02 = s3.find((2, 1, 0))
    rsr = make_rsr(s3, ram, {1: u02}, {1: (1,)})
    t1 = {1: centralizer_subgroup(s3, u02).transversal.tolist()}
    t2 = {1: list(t1[1])}
    z = [h for h in range(s3.order)
         if s3.mul(h, u02) == s3.mul(u02, h) and h][0]
    t2[1][2] = s3.mul(z, t2[1][2])
    fmap = transversal_iso(rsr, t1, t2)
    assert fmap.verify().passed


def test_two_class_bimodule(s3):
    ram = parse_ramification(s3, "e:1,(0 1 2):2")
    rsr = make_rsr(s3, ram, None, {0: (0,), 2: (1, 2)})
    m = build_bimodule(rsr)
    assert m.dim() == 6 * (1 + 4)
    assert verify_bimodule(m).passed


def test_product_group_pipeline():
    # a direct product exercised end to end
    from quiverhopf import (
        choose_prime, class_of, coinvariant_yd, enumerate_types,
        nichols_dims, rsr_from_type, verify_yd,
    )
    g = parse_group("S3xC2")
    f = choose_prime(g)
    rep = g.find((1, 0, 2, 4, 3))
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
    check(report, "weightless", range(4), lambda x: True, witness, weight=0)
    assert [c.to_json() for c in report.checks] == [
        {"name": "first-failure", "ok": False, "checked": 4, "witness": "x=3"},
        {"name": "weighted", "ok": True, "checked": 20}]
    assert formatted == [3]


@pytest.mark.parametrize("weight", [0, 1, 5])
def test_check_all_records_what_check_records(weight):
    # the count is weight times the cases through the first failure, the
    # witness that of the first failure, and a check with a zero count
    # that passes is left out
    for outcomes in ([], [True] * 4, [True, True, False, True, False], [False]):
        by_check, by_all = Report(), Report()
        check(by_check, "c", range(len(outcomes)), lambda i: outcomes[i],
              lambda i: f"i={i}", weight=weight)
        check_all(by_all, "c", np.array(outcomes, dtype=bool), lambda i: f"i={i}", weight)
        assert by_all.checks == by_check.checks


def test_cases_lists_or_draws_the_tuples_of_every_space():
    spaces = [("ab", (0, 1)), ("c", (2,))]
    assert list(cases(spaces, 5, None)) == [
        ("a", 0), ("a", 1), ("b", 0), ("b", 1), ("c", 2)]
    drawn = list(cases(spaces, 500, random.Random(3)))
    assert len(drawn) == 500 and set(drawn) == set(cases(spaces, 5, None))
    for rng in (None, random.Random(3)):
        assert list(cases([], 5, rng)) == []
        assert list(cases([("ab", ())], 5, rng)) == []


def test_trivial_table_of_e_is_the_unit_witness(s3):
    # zeta of (theta 0, h = e) made the other element of Z = C2: the unit
    # check fails on its first case, the tables, and the cocycle checks too
    m = build_bimodule(make_rsr(s3, parse_ramification(s3, "(0 1):1"), None, {1: (1,)}))
    m.zl[1][0, 0] = 1 - m.zl[1][0, 0]
    checks = {c.name: c for c in verify_bimodule(m).checks}
    assert checks["unit"].to_json() == {"name": "unit", "ok": False, "checked": 1,
                                        "witness": "the tables of e are not trivial"}
    assert [name for name, c in checks.items() if not c.ok] == [
        "unit", "right-associativity", "commutation-and-coaction", "right-invertibility"]


@pytest.mark.parametrize("spec, ram", [("S4", "(0 1)(2 3):2"), ("S5", "(0 1):2")])
def test_bimodule_takes_no_conjugation_row_once_the_centralizers_exist(
        spec, ram, monkeypatch):
    # theta, theta' and the class elements are read off the cosets each
    # centralizer keeps, so building and verifying conjugate nothing anew
    g = parse_group(spec)
    r = parse_ramification(g, ram)
    rsr = rsr_from_type(g, r, enumerate_types(g, r)[0])
    for c in conjugacy_classes(g):
        centralizer_subgroup(g, c)
    calls, conjugates = [], Group.conjugates
    monkeypatch.setattr(Group, "conjugates", lambda self, a:
                        (self is g and calls.append(a)) or conjugates(self, a))
    report = verify_bimodule(build_bimodule(rsr))
    assert report.passed, report.to_json()
    assert calls == []
