import itertools
import random
import re

import numpy as np
import pytest

from quiverhopf import (
    BudgetError,
    InputError,
    automorphisms,
    centralizer_subgroup,
    choose_prime,
    class_of,
    conjugacy_classes,
    inner_only,
    parse_group,
    parse_ramification,
)
from quiverhopf import groups
from quiverhopf.groups import (
    _TABLE_CAP,
    Group,
    _cycles_of,
    _generated,
    outer_representatives,
)
from quiverhopf.modrep import group_table


def compose(a, b):
    # apply a first, then b
    return tuple(b[x] for x in a)


def invert(a):
    inv = [0] * len(a)
    for i, x in enumerate(a):
        inv[x] = i
    return tuple(inv)


def order_by_powers(row):
    """Independent oracle: the least n with row^n the identity."""
    ident = tuple(range(len(row)))
    power, n = row, 1
    while power != ident:
        power, n = compose(power, row), n + 1
    return n


def rows_of(g):
    """Independent oracle: the elements as image tuples, in index order."""
    return [tuple(r) for r in g.perms.tolist()]


def centralizer_of(g, a):
    every = np.arange(g.order)
    return np.flatnonzero(g.products(every, a) == g.products(a, every)).tolist()


def center_order(g):
    """|Z(G)| by brute force: the elements commuting with every element."""
    every = np.arange(g.order)
    table = g.products(every[:, None], every[None, :])
    return int((table == table.T).all(axis=1).sum())


def brute_force_classes(elements):
    """Independent oracle: partition image tuples by conjugation directly."""
    remaining = set(elements)
    classes = []
    while remaining:
        seed = min(remaining)
        orbit = {compose(compose(invert(h), seed), h) for h in elements}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return classes


def test_parse_named_groups():
    assert parse_group("S3").order == 6
    assert parse_group("C1").order == 1
    assert parse_group("C6").order == 6
    assert parse_group("A4").order == 12
    assert parse_group("D4").order == 8      # dihedral of the square
    assert parse_group("Q8").order == 8
    assert parse_group("S3xC2").order == 12
    assert parse_group("C2xC2xC2").order == 8


def test_parse_generator_list():
    g = parse_group("perm:(0 1 2)(3 4);(0 1)")
    assert g.degree == 5
    assert g.order == 12
    with pytest.raises(InputError):
        parse_group("perm:(0 1")
    with pytest.raises(InputError):
        parse_group("nosuchgroup")
    with pytest.raises(InputError):
        parse_group("X9")


@pytest.mark.parametrize("cycles, message", [
    ("(0 1)x", "cannot parse"),             # junk text
    ("(0 a)", "bad point"),                 # a point that is no integer
    ("(0 -1)", "out of range"),
    ("(0 1 0)", "given twice"),             # a repeat inside one cycle
    ("(0 1 2)(0 1 2)", "given twice"),      # a point in two cycles: repeated
    ("(0 1)(1 0)", "given twice"),
    ("(0 1)(1 2)", "given twice"),          # and crossing
])
def test_cycle_parser_rejections(s3, cycles, message):
    # as a generator and as a class rep: every rejection is an InputError
    with pytest.raises(InputError, match=message):
        parse_group("perm:" + cycles)
    with pytest.raises(InputError, match=message):
        parse_ramification(s3, cycles + ":1")


def test_order_cap(monkeypatch):
    monkeypatch.setattr(groups, "ORDER_CAP", 100)
    with pytest.raises(InputError):
        parse_group("S5")


def test_row_cells_cap_is_checked_before_any_permutation(monkeypatch):
    # a degree past the cap is refused before any generator row is built:
    # by the cycle parser (perm: specs) or a named builder (named groups and
    # the factors of products)
    def refuse(*args):
        raise AssertionError("a generator row was built")

    monkeypatch.setattr(groups, "parse_cycle_string", refuse)
    monkeypatch.setattr(groups, "_q8_gens", refuse)
    for kind in groups._NAMED:
        monkeypatch.setitem(groups._NAMED, kind, refuse)
    for spec in ("perm:(0 99999999)", "C40000000", "C20000000xC20000000",
                 "S40000000", "Q8xA40000000"):
        with pytest.raises(BudgetError, match="exceed the cap of 33554432"):
            parse_group(spec)
    monkeypatch.undo()
    # order x degree is checked as the closure grows: S5 on 60 points does
    # not fit a cap of 100 elements of degree 60
    monkeypatch.setattr(groups, "ROW_CELLS_CAP", 100 * 60)
    parse_group("C60")
    with pytest.raises(BudgetError, match="exceed the cap of 6000"):
        parse_group("S5xC55")


def test_generator_rows_are_checked_before_they_are_built(monkeypatch):
    # A_n has n - 2 generator rows of n points: A20000 needs 19,998 x 20,000
    # cells, refused before its builder runs, as are several perm: rows
    def refuse(*args):
        raise AssertionError("a generator row was built")

    monkeypatch.setattr(groups, "parse_cycle_string", refuse)
    for kind in groups._NAMED:
        monkeypatch.setitem(groups._NAMED, kind, refuse)
    for spec, cells in [("A20000", "19998 x 20000"), ("A5000xA5000", "9996 x 10000"),
                        ("C3xA6000", "5999 x 6003"),
                        ("perm:(0 12000000);(0 1);(0 2)", "3 x 12000001")]:
        with pytest.raises(BudgetError, match=f"of {cells} cells exceed the cap"):
            parse_group(spec)
    monkeypatch.undo()
    # the rows a word length reaches, generators times the level before,
    # are checked before they are built: A40's 38 x 38 products of 40
    # points are refused while 1 + 38 elements fit 40 x 40 cells
    monkeypatch.setattr(groups, "ROW_CELLS_CAP", 40 * 40)
    with pytest.raises(BudgetError, match="of 1444 x 40 cells exceed the cap of 1600"):
        parse_group("A40")


@pytest.mark.parametrize("spec", ["S5", "D4", "Q8", "C12", "S3xC2", "C4xC6xS3",
                                  "S7", "A7", "C400"])
def test_element_orders_are_the_least_powers_at_the_identity(spec):
    g = parse_group(spec)
    assert g.orders.tolist() == [order_by_powers(row) for row in rows_of(g)]


def test_identity_is_element_zero(s3, s4):
    for g in (s3, s4):
        rows = rows_of(g)
        assert rows[0] == tuple(range(g.degree))
        assert rows == sorted(rows)


def test_s3_classes_match_example(s3):
    classes = conjugacy_classes(s3)
    assert len(classes) == 3
    assert [c.size for c in classes] == [1, 3, 2]
    # representatives in canonical cycle order
    assert s3.element_name(classes[0].rep) == "e"
    assert s3.element_name(classes[1].rep) == "(0 1)"
    assert s3.element_name(classes[2].rep) == "(0 1 2)"


@pytest.mark.parametrize("spec", ["perm:(0 99999)", "D4", "S4"])
def test_singleton_classes_take_their_member_as_u0(spec, monkeypatch):
    # with a table, u0 of a class of one element is that element, found
    # without a cycle form; larger classes take their least cycle form
    g = parse_group(spec)
    assert g._table is not None
    formed = []
    monkeypatch.setattr(groups, "_cycles_of",
                        lambda images: formed.append(len(images)) or _cycles_of(images))
    classes = conjugacy_classes(g)
    assert len(formed) == sum(c.size for c in classes if c.size > 1)
    rows = rows_of(g)
    for c in classes:
        assert c.rep == min(c.elements, key=lambda e: _cycles_of(rows[e]))


@pytest.mark.parametrize("spec", ["S7", "A7", "perm:(0 1 2 3 4 5 6);(0 1 2)", "Z(e) of S7"])
def test_tableless_classes_are_conjugation_orbits(spec):
    # past the table cap classes are orbits under the generators and u0
    # comes from sorted cycle-form keys; the oracle is one `conjugates`
    # scan per class and the least member in `_cycles_of` order.  Z(e) of
    # S7 has no table and no parsed generators, so its orbits run over the
    # greedy generating sequence.
    g = (centralizer_subgroup(parse_group("S7"), 0) if spec.startswith("Z")
         else parse_group(spec))
    assert g._table is None
    classes = conjugacy_classes(g)
    assert sorted(e for c in classes for e in c.elements) == list(range(g.order))
    assert [c.elements[0] for c in classes] == sorted(c.elements[0] for c in classes)
    rows = rows_of(g)
    for k, c in enumerate(classes):
        assert c.class_index == k and list(c.elements) == sorted(c.elements)
        assert np.unique(g.conjugates(c.elements[0])).tolist() == list(c.elements)
        assert c.rep == min(c.elements, key=lambda e: _cycles_of(rows[e]))
        assert (class_of(g, np.array(c.elements)) == k).all()


def test_trivial_group_single_class():
    g = parse_group("C1")
    classes = conjugacy_classes(g)
    assert len(classes) == 1 and classes[0].size == 1


def test_s4_classes_against_brute_force(s4):
    classes = conjugacy_classes(s4)
    assert sorted(c.size for c in classes) == [1, 3, 6, 6, 8]
    rows = rows_of(s4)
    oracle = brute_force_classes(rows)
    mine = [frozenset(rows[e] for e in c.elements) for c in classes]
    assert set(mine) == set(oracle)


@pytest.mark.parametrize("spec", ["S3", "S4", "D4", "Q8", "A4", "C6"])
def test_class_counting_identities(spec):
    g = parse_group(spec)
    classes = conjugacy_classes(g)
    assert sum(c.size for c in classes) == g.order
    for c in classes:
        centralizer = centralizer_of(g, c.rep)
        z = centralizer_subgroup(g, c)
        transversal, theta_at = z.transversal.tolist(), z.theta_at
        assert len(centralizer) * c.size == g.order
        assert len(transversal) == c.size
        assert transversal[0] == 0
        # conj_row is the conjugation row of the representative, and each
        # transversal entry is the first h conjugating it to its element
        conj = [g.conj(c.rep, h) for h in range(g.order)]
        assert z.conj_row.tolist() == conj
        assert transversal == sorted(conj.index(elt) for elt in c.elements)
        # theta_at inverts the transversal conjugation on the class, and is
        # -1 off it
        assert np.flatnonzero(theta_at >= 0).tolist() == sorted(c.elements)
        for elt in c.elements:
            assert g.conj(c.rep, transversal[theta_at[elt]]) == elt
        # cosets Z*g_theta partition G
        seen = set()
        for t in transversal:
            coset = frozenset(g.mul(z, t) for z in centralizer)
            assert not (coset & seen)
            seen |= coset
        assert len(seen) == g.order


def test_multiplication_table_associativity(s4):
    # full check for |G| <= 24
    n = s4.order
    for a in range(n):
        for b in range(n):
            ab = s4.mul(a, b)
            for c in range(0, n, 5):
                assert s4.mul(ab, c) == s4.mul(a, s4.mul(b, c))
    rng = random.Random(1)
    g = parse_group("S5")
    for _ in range(200):
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        assert g.mul(g.mul(a, b), c) == g.mul(a, g.mul(b, c))


def brute_force_automorphisms(g):
    """Independent oracle: every bijection fixing e, checked on all pairs."""
    every = np.arange(g.order)
    table = g.products(every[:, None], every[None, :])
    found = []
    for rest in itertools.permutations(range(1, g.order)):
        images = np.array((0,) + rest)
        if (images[table] == table[images[:, None], images[None, :]]).all():
            found.append(images)
    return np.array(found)


def test_automorphisms_s3(s3):
    auts = automorphisms(s3)
    assert auts.shape == (6, 6)
    assert inner_only(s3)


def test_automorphisms_trivial():
    g = parse_group("C1")
    assert automorphisms(g).tolist() == [[0]]
    assert inner_only(g)


def test_automorphisms_klein_four_against_oracle():
    g = parse_group("C2xC2")
    auts = automorphisms(g)
    assert not inner_only(g)
    assert (auts == brute_force_automorphisms(g)).all()
    assert len(auts) == 6


@pytest.mark.parametrize("spec, count", [("D4", 8), ("Q8", 24)])
def test_automorphisms_against_brute_force(spec, count):
    g = parse_group(spec)
    auts = automorphisms(g)
    assert len(auts) == count
    assert (auts == brute_force_automorphisms(g)).all()   # rows ascending


@pytest.mark.parametrize("spec, count, inner", [
    ("A5", 120, False), ("S5", 120, True), ("S6", 1440, False),
    ("C2xC2xC2", 168, False), ("D4", 8, False), ("Q8", 24, False),
    ("S4", 24, True), ("A4", 24, False), ("C2", 1, True),
])
def test_automorphism_counts(spec, count, inner):
    g = parse_group(spec)
    auts = automorphisms(g)
    assert auts.shape == (count, g.order)
    assert inner_only(g) == inner
    # every row is a bijection fixing e, the rows are distinct and ascending
    assert (np.sort(auts, axis=1) == np.arange(g.order)).all()
    assert (auts[:, 0] == 0).all()
    assert [tuple(r) for r in auts.tolist()] == sorted(set(map(tuple, auts.tolist())))
    assert len(outer_representatives(g)) * (g.order // center_order(g)) == count
    assert automorphisms(g) is auts and not auts.flags.writeable


def greedy_outer_representatives(g):
    """outer_representatives keyed by the images of the greedy generating
    sequence instead of the parsed generators."""
    gens, reps, seen = g.generating_sequence(), [], set()
    every = np.arange(g.order)[:, None]
    for images in automorphisms(g):
        if tuple(images[gens].tolist()) not in seen:
            reps.append(images)
            conj = g.products(g.products(g.inverses[every], images[gens]), every)
            seen.update(map(tuple, conj.tolist()))
    return reps


@pytest.mark.parametrize("spec", ["D4", "Q8", "A4", "C2xC2", "S3xC2", "S6",
                                  "perm:(0 1 2);(3 4 5)"])
def test_outer_representatives_do_not_depend_on_the_generators(spec):
    # an automorphism is fixed by its images on any generating set, so the
    # parsed generators give the same cosets, in the same order, as the
    # greedy sequence; the identity comes first
    g = parse_group(spec)
    reps = outer_representatives(g)
    expected = greedy_outer_representatives(g)
    assert len(reps) == len(expected) > 1
    assert all((a == b).all() for a, b in zip(reps, expected))
    assert (reps[0] == np.arange(g.order)).all()


def test_automorphisms_are_multiplicative(s3):
    every = np.arange(s3.order)
    for phi in automorphisms(s3):
        assert (phi[s3.products(every[:, None], every[None, :])] ==
                s3.products(phi[:, None], phi[None, :])).all()


def test_inner_only_named_shortcut():
    # S5 lists its automorphisms; S7, named or not, is refused by the budget
    # before any assignment is built and is inner-only by its order n!
    assert len(automorphisms(parse_group("S5"))) == 120
    unnamed = parse_group("perm:(0 1);(0 1 2 3 4 5 6)")
    assert unnamed.order == 5040
    with pytest.raises(InputError, match="automorphism budget"):
        automorphisms(unnamed)
    assert inner_only(unnamed)
    assert inner_only(parse_group("S7"))


def test_automorphism_budget_counts_candidate_cells(monkeypatch):
    # S3 on (0 1) and (0 1 2): 3 * 2 candidate assignments times 6 elements
    monkeypatch.setattr(groups, "AUT_BUDGET", 36)
    assert len(automorphisms(parse_group("S3"))) == 6
    monkeypatch.setattr(groups, "AUT_BUDGET", 35)
    with pytest.raises(InputError, match="36 cells"):
        automorphisms(parse_group("S3"))
    # a candidate shares the generator's order as well as its class size:
    # the two 4-cycles of C4, not all four elements
    monkeypatch.setattr(groups, "AUT_BUDGET", 7)
    with pytest.raises(InputError, match="8 cells"):
        automorphisms(parse_group("C4"))


def test_centralizer_subgroup(s3):
    ctx = conjugacy_classes(s3)[1]
    z = centralizer_subgroup(s3, ctx)
    assert z.order == 2
    assert centralizer_subgroup(s3, ctx) is z   # cached


@pytest.mark.parametrize("spec", ["S4", "D4", "Q8"])
def test_centralizer_embedding_maps(spec):
    g = parse_group(spec)
    for ctx in conjugacy_classes(g):
        sub = centralizer_subgroup(g, ctx)
        assert g.caches[("centralizer", ctx.rep)] is sub
        assert isinstance(sub.embed, np.ndarray) and isinstance(sub.local, np.ndarray)
        assert sub.embed.tolist() == centralizer_of(g, ctx.rep)
        sub_rows, rows = rows_of(sub), rows_of(g)
        for i, h in enumerate(sub.embed.tolist()):
            assert sub_rows[i] == rows[h]
            assert sub.local[h] == i
        # local is defined exactly on embed, and -1 off Z
        assert np.flatnonzero(sub.local >= 0).tolist() == sub.embed.tolist()
        assert (sub.local[np.setdiff1d(np.arange(g.order), sub.embed)] == -1).all()
        assert sub.generators.shape == (0, sub.degree)
        every = np.arange(sub.order)
        assert (sub.embed[sub.products(every[:, None], every[None, :])] ==
                g.products(sub.embed[:, None], sub.embed[None, :])).all()


@pytest.mark.parametrize("spec, classes", [
    ("S4", None), ("D4", None), ("Q8", None), ("A4", None), ("S3xC2", None),
    ("S6", [0]),
])
def test_subgroup_rows_match_closure(spec, classes):
    # oracle: the group the subgroup's members generate, closed by search
    g = parse_group(spec)
    field = choose_prime(g)
    ctxs = conjugacy_classes(g)
    for ctx in ctxs if classes is None else [ctxs[k] for k in classes]:
        sub = centralizer_subgroup(g, ctx)
        oracle = _generated(g.degree, g.perms[centralizer_of(g, ctx.rep)])
        assert rows_of(sub) == rows_of(oracle)
        assert (sub.perms == oracle.perms).all()
        assert (sub.inverses == oracle.inverses).all()
        assert sub.orders.tolist() == oracle.orders.tolist() == [
            order_by_powers(e) for e in rows_of(sub)]
        assert sub.exponent == oracle.exponent
        every = np.arange(sub.order)
        grid = (every[:, None], every[None, :])
        assert (sub.products(*grid) == oracle.products(*grid)).all()
        assert sub.generating_sequence() == oracle.generating_sequence()
        ours, theirs = group_table(sub, field), group_table(oracle, field)
        assert (ours.rows, ours.degrees) == (theirs.rows, theirs.degrees)


def test_generating_sequence_order_is_parent_first(s4):
    gens = s4.generating_sequence()
    prev, pos, levels = s4.words(gens)
    order = np.concatenate(levels)[1:].tolist()
    assert sorted(order) == list(range(1, s4.order))
    seen = {0}
    for e in order:
        assert prev[e] in seen and s4.mul(prev[e], gens[pos[e]]) == e
        seen.add(e)


def test_word_tree_is_built_once_per_generator_tuple():
    # the tree generating_sequence() ends on is the one irreps are built
    # along: a second call returns it without a new breadth-first search
    g = parse_group("S4")
    gens = g.generating_sequence()
    tree = g.words(gens)
    assert g.words(list(gens)) is tree
    assert not any(a.flags.writeable for a in (tree[0], tree[1], *tree[2]))


def fresh_words(g, gens):
    """Independent oracle: a breadth-first search on the words in gens that
    takes the products of each level with every generator and keeps each
    element where a scan, element-major, first meets it."""
    prev, pos, levels, seen = [-1] * g.order, [-1] * g.order, [[0]], {0}
    while True:
        grid = g.products(np.array(levels[-1])[:, None], np.array(gens)[None, :])
        level = []
        for x, row in zip(levels[-1], grid.tolist()):
            for i, y in enumerate(row):
                if y not in seen:
                    seen.add(y)
                    prev[y], pos[y] = x, i
                    level.append(y)
        if not level:
            return prev, pos, levels
        levels.append(level)


@pytest.mark.parametrize("spec", [
    *(f"S{n}" for n in range(1, 8)), *(f"A{n}" for n in range(4, 8)),
    "C1", "C6", "C12", "C5040", "D4", "D8", "Q8", "S3xC2", "C4xC6xS3", "S1xS2",
    # a repeated generator, and one that is e on the points S3 acts on
    "perm:(0 1);(0 1)", "perm:(0 1 2)(3 4);(0 1)",
])
def test_closure_search_is_the_word_tree_of_the_parsed_generators(spec, monkeypatch):
    g = parse_group(spec)
    gens = g.generator_indices()
    calls = []
    products = Group.products
    monkeypatch.setattr(Group, "products",
                        lambda self, a, b: calls.append(1) or products(self, a, b))
    prev, pos, levels = g.words(gens)
    assert calls == []
    monkeypatch.undo()
    assert (prev.tolist(), pos.tolist(), [level.tolist() for level in levels]) == \
        fresh_words(g, gens)


@pytest.mark.parametrize("degree", [1, 2, 15, 16, 17])
def test_key_order_is_tuple_order(degree):
    # rows of up to 16 points pack into one uint64, wider ones are bytes
    rng = np.random.default_rng(degree)
    rows = np.concatenate([rng.integers(0, degree, (100, degree)),
                           [rng.permutation(degree) for _ in range(100)]]).astype(">u2")
    keys = groups._keys(rows)
    assert (keys.dtype == np.uint64) == (degree <= 16)
    tuples = [tuple(r) for r in rows.tolist()]
    assert [tuples[i] for i in np.argsort(keys, kind="stable")] == sorted(tuples)
    assert len(np.unique(keys)) == len(set(tuples))


@pytest.mark.parametrize("spec", ["C16", "C17"])
def test_find_on_both_key_paths(spec):
    g = parse_group(spec)
    assert [g.find(row) for row in g.perms] == list(range(g.order))
    assert g.find(list(range(g.degree))) == 0
    with pytest.raises(InputError, match="is not in the group"):
        g.find(groups.parse_cycle_string("(0 1)", g.degree))


@pytest.mark.parametrize("spec, images", [
    ("S4", (0, 1, 2, 7)), ("S4", (0, 1, 2, 65535)), ("S4", (0, 1, 2, -1)),
    # 6 overflows its 2-bit field into the next: the row's key is the
    # identity's, 0*64 + 1*16 + 2*4 + 3
    ("S4", (0, 0, 6, 3)),
    ("C16", tuple(range(15)) + (16,)), ("C17", tuple(range(16)) + (65535,)),
])
def test_find_refuses_a_point_past_its_key_field(spec, images):
    with pytest.raises(InputError, match=re.escape(f"not a permutation: {list(images)}")):
        parse_group(spec).find(images)


def test_exponent(s3, s4):
    assert s3.exponent == 6
    assert s4.exponent == 12
    assert parse_group("Q8").exponent == 4


def test_cycle_string_round_trip(s4):
    # name -> parse_cycle_string -> find, for every element of S4 and S5
    for g in (s4, parse_group("S5")):
        for e in range(g.order):
            name = g.element_name(e)
            row = groups.parse_cycle_string(name, g.degree)
            assert row.tolist() == list(rows_of(g)[e])
            assert g.find(row) == e
            assert groups.cycle_string(rows_of(g)[e]) == name


def test_class_of_consistency(s4):
    classes = conjugacy_classes(s4)
    for c in classes:
        for e in c.elements:
            assert class_of(s4, e) == c.class_index


def test_cyclic_alias_and_cache():
    z6 = parse_group("Z6")
    assert z6.order == 6 and rows_of(z6) == rows_of(parse_group("C6"))
    # derived data is computed once per group instance
    assert conjugacy_classes(z6) is conjugacy_classes(z6)
    assert centralizer_subgroup(z6, 1) is centralizer_subgroup(z6, 1)


@pytest.mark.parametrize("spec", [
    "S6", "S7", "D4", "S3xC2",
    # degree 18: 18^18 > 2^63, so a mixed-radix code of the images would
    # overflow int64
    "perm:(" + " ".join(str(i) for i in range(18)) + ")",
    # images on both sides of 256: only big-endian keys sort like tuples
    "perm:(254 255 256 257);(254 255)",
])
def test_products_agree_with_compose(spec):
    g = parse_group(spec)
    assert (g._table is None) == (g.order > _TABLE_CAP)
    rng = random.Random(spec)
    a = np.array([rng.randrange(g.order) for _ in range(400)])
    b = np.array([rng.randrange(g.order) for _ in range(400)])
    rows = rows_of(g)
    index = {r: i for i, r in enumerate(rows)}
    expect = [index[compose(rows[x], rows[y])] for x, y in zip(a.tolist(), b.tolist())]
    assert g.products(a, b).tolist() == expect
    assert [g.mul(x, y) for x, y in zip(a.tolist(), b.tolist())] == expect
    if g._table is not None:
        assert g._table[a, b].tolist() == expect
    # broadcasting: a column of left factors against a row of right factors
    grid = g.products(a[:20, None], b[None, :30])
    assert grid.shape == (20, 30)
    assert grid.tolist() == [[g.mul(x, y) for y in b[:30].tolist()]
                             for x in a[:20].tolist()]
    assert g.products(a[0], b[0]).shape == ()
    # the inverse array and conjugates agree with the scalar forms
    assert [g.inv(x) for x in a.tolist()] == [index[invert(rows[x])] for x in a.tolist()]
    x = int(a[0])
    assert g.conjugates(x)[b].tolist() == [g.conj(x, h) for h in b.tolist()]


def count_lookups(monkeypatch) -> list:
    """The sizes of the row lookups every Group makes from now on."""
    calls = []
    lookup = Group._lookup

    def counting(self, rows):
        calls.append(len(rows))
        return lookup(self, rows)

    monkeypatch.setattr(Group, "_lookup", counting)
    return calls


def test_s6_table_is_built_along_the_word_tree(monkeypatch):
    # lookups for the generators, their rows and the inverses; every other
    # row of the table is a gather, and the centralizers look nothing up
    calls = count_lookups(monkeypatch)
    g = parse_group("S6")
    assert 0 < len(calls) <= 30
    classes = conjugacy_classes(g)
    calls.clear()
    for ctx in classes:
        centralizer_subgroup(g, ctx)
    assert calls == []


def test_s7_conjugates_are_one_gather_and_one_lookup(monkeypatch):
    # past the table cap h^-1 a h is gathered from image rows for every h
    # at once, (h^-1 a h)(x) = h(a(h^-1(x))), and looked up once
    g = parse_group("S7")
    assert g._table is None
    for cycles in ("(0 1)", "(0 1 2)(3 4)", "(0 1 2 3 4 5 6)"):
        a = g.find(groups.parse_cycle_string(cycles, g.degree))
        calls = count_lookups(monkeypatch)
        got = g.conjugates(a)
        assert calls == [g.order]
        monkeypatch.undo()
        assert got.tolist() == [g.conj(a, h) for h in range(g.order)]


def test_s7_classes_look_up_every_row_once_per_generator(monkeypatch):
    # one lookup of all 5,040 conjugated rows per generator, none per class
    g = parse_group("S7")
    gens = g.generator_indices()
    calls = count_lookups(monkeypatch)
    assert len(conjugacy_classes(g)) == 15
    assert calls == [g.order] * len(gens)


@pytest.mark.parametrize("spec, reps", [
    ("S3", None), ("S4", None), ("D4", None), ("Q8", None), ("A4", None),
    ("S3xC2", None), ("S6", None),
    # past the table cap the ambient composes rows; Z((0 1)) keeps a table
    ("S7", ["(0 1)"]),
])
def test_centralizer_restricts_its_ambient(spec, reps):
    g = parse_group(spec)
    if reps is None:
        elts = [ctx.rep for ctx in conjugacy_classes(g)]
    else:
        elts = [g.find(groups.parse_cycle_string(r, g.degree)) for r in reps]
    assert (g._table is None) == (g.order > _TABLE_CAP)
    for u in elts:
        sub = centralizer_subgroup(g, u)
        z = sub.embed
        assert (z[sub.inverses] == g.inverses[z]).all()
        assert (sub.orders == g.orders[z]).all()
        assert sub._table is not None
        assert (z[sub._table] == g.products(z[:, None], z[None, :])).all()


def test_find_rejects_other_degrees_and_non_members(s3):
    with pytest.raises(InputError, match="not in the group"):
        s3.find((0, 1, 2, 3))
    with pytest.raises(InputError, match="not in the group"):
        s3.find((0, 1))
    with pytest.raises(InputError, match="not in the group"):
        parse_group("A4").find(groups.parse_cycle_string("(0 1)", 4))
    # C3's rows are (0 1 2), (1 2 0), (2 0 1): (2 1 0) sorts past the last
    with pytest.raises(InputError, match="not in the group"):
        parse_group("C3").find((2, 1, 0))


@pytest.mark.parametrize("images", [(0, 0, 1), (0, 1, 3), (0, 0), ((0, 1, 2),)])
def test_find_refuses_a_row_that_is_no_permutation(s3, images):
    # such a row is refused before it is named in cycle notation, which
    # would not end on it
    with pytest.raises(InputError, match="not a permutation"):
        s3.find(images)
