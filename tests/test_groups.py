import itertools
import random

import pytest

from quiverhopf import (
    InputError,
    Permutation,
    automorphisms,
    centralizer_subgroup,
    class_of,
    conjugacy_classes,
    coset_factor,
    inner_only,
    parse_group,
)


def brute_force_classes(elements):
    """Independent oracle: partition image tuples by conjugation directly."""
    def compose(a, b):
        return tuple(b[x] for x in a)

    def invert(a):
        inv = [0] * len(a)
        for i, x in enumerate(a):
            inv[x] = i
        return tuple(inv)

    remaining = set(elements)
    classes = []
    while remaining:
        seed = min(remaining)
        orbit = {compose(compose(invert(h), seed), h) for h in elements}
        classes.append(frozenset(orbit))
        remaining -= orbit
    return classes


def test_composition_convention():
    # (a*b)(x) = b(a(x)): left factor first
    a = Permutation((1, 0, 2))   # (0 1)
    b = Permutation((0, 2, 1))   # (1 2)
    ab = a * b
    assert ab.images == tuple(b.images[a.images[x]] for x in range(3))


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


def test_order_cap():
    with pytest.raises(InputError):
        parse_group("S5", order_cap=100)


def test_identity_is_element_zero(s3, s4):
    for g in (s3, s4):
        assert g.elements[0] == tuple(range(g.degree))
        assert list(g.elements) == sorted(g.elements)


def test_s3_classes_match_example(s3):
    classes = conjugacy_classes(s3)
    assert len(classes) == 3
    assert [c.size for c in classes] == [1, 3, 2]
    # representatives in canonical cycle order
    assert s3.element_name(classes[0].rep) == "e"
    assert s3.element_name(classes[1].rep) == "(0 1)"
    assert s3.element_name(classes[2].rep) == "(0 1 2)"


def test_trivial_group_single_class():
    g = parse_group("C1")
    classes = conjugacy_classes(g)
    assert len(classes) == 1 and classes[0].size == 1


def test_s4_classes_against_brute_force(s4):
    classes = conjugacy_classes(s4)
    assert sorted(c.size for c in classes) == [1, 3, 6, 6, 8]
    oracle = brute_force_classes(list(s4.elements))
    mine = [frozenset(s4.elements[e] for e in c.elements) for c in classes]
    assert set(mine) == set(oracle)


@pytest.mark.parametrize("spec", ["S3", "S4", "D4", "Q8", "A4", "C6"])
def test_class_counting_identities(spec):
    g = parse_group(spec)
    classes = conjugacy_classes(g)
    assert sum(c.size for c in classes) == g.order
    for c in classes:
        assert len(c.centralizer) * c.size == g.order
        assert len(c.transversal) == c.size
        assert c.transversal[0] == 0
        # theta_of inverts the transversal conjugation
        for elt, theta in c.theta_of.items():
            assert g.conj(c.rep, c.transversal[theta]) == elt
        # cosets Z*g_theta partition G
        seen = set()
        for t in c.transversal:
            coset = frozenset(g.mul(z, t) for z in c.centralizer)
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


def test_coset_factor_trivial_cases(s3):
    classes = conjugacy_classes(s3)
    ctx = classes[1]
    # h in the centralizer, theta = 0: zeta = h
    for h in ctx.centralizer:
        assert coset_factor(s3, ctx, 0, h) == (h, 0)
    # h = identity: zeta = identity, theta unchanged
    for theta in range(len(ctx.transversal)):
        assert coset_factor(s3, ctx, theta, 0) == (0, theta)


@pytest.mark.parametrize("spec", ["S3", "S4", "D4"])
def test_coset_factor_defining_identity(spec):
    g = parse_group(spec)
    for ctx in conjugacy_classes(g):
        zset = set(ctx.centralizer)
        for theta in range(len(ctx.transversal)):
            for h in range(g.order):
                zeta, tp = coset_factor(g, ctx, theta, h)
                assert zeta in zset
                assert g.mul(ctx.transversal[theta], h) == \
                    g.mul(zeta, ctx.transversal[tp])


def test_coset_factor_cocycle(s3, s4):
    # applying the factorization for h then h' agrees with h*h'
    for g in (s3, s4):
        rng = random.Random(7)
        for ctx in conjugacy_classes(g):
            for _ in range(40):
                theta = rng.randrange(len(ctx.transversal))
                h1 = rng.randrange(g.order)
                h2 = rng.randrange(g.order)
                z1, t1 = coset_factor(g, ctx, theta, h1)
                z2, t2 = coset_factor(g, ctx, t1, h2)
                z12, t12 = coset_factor(g, ctx, theta, g.mul(h1, h2))
                assert t12 == t2
                assert z12 == g.mul(z1, z2)


def test_coset_factor_errors(s3):
    ctx = conjugacy_classes(s3)[1]
    with pytest.raises(InputError):
        coset_factor(s3, ctx, 99, 0)
    with pytest.raises(InputError):
        coset_factor(s3, ctx, 0, 99)


def test_automorphisms_s3(s3):
    auts, flag = automorphisms(s3)
    assert len(auts) == 6 and flag
    assert inner_only(s3)


def test_automorphisms_trivial():
    g = parse_group("C1")
    auts, flag = automorphisms(g)
    assert len(auts) == 1 and flag


def test_automorphisms_klein_four_against_oracle():
    g = parse_group("C2xC2")
    auts, flag = automorphisms(g)
    assert len(auts) == 6
    assert not flag
    # independent oracle: all bijections of elements checked multiplicatively
    count = 0
    for images in itertools.permutations(range(g.order)):
        if images[0] != 0:
            continue
        if all(images[g.mul(a, b)] == g.mul(images[a], images[b])
               for a in range(g.order) for b in range(g.order)):
            count += 1
    assert count == 6


def test_automorphisms_are_multiplicative(s3):
    auts, _ = automorphisms(s3)
    for phi in auts:
        for a in range(s3.order):
            for b in range(s3.order):
                assert phi.of(s3.mul(a, b)) == s3.mul(phi.of(a), phi.of(b))


def test_inner_only_named_shortcut():
    # S5 exceeds the automorphism cap; the named shortcut must avoid search
    g = parse_group("S5")
    assert inner_only(g)
    with pytest.raises(InputError):
        automorphisms(g)


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
        assert sub.embed == ctx.centralizer
        for i, h in enumerate(sub.embed):
            assert sub.elements[i] == g.elements[h]
            assert sub.local[h] == i
        assert sorted(sub.local) == list(sub.embed)
        for i in range(sub.order):
            for j in range(sub.order):
                assert sub.embed[sub.mul(i, j)] == g.mul(sub.embed[i], sub.embed[j])


def test_generating_sequence_order_is_parent_first(s4):
    gens, expr, order = s4.generating_sequence()
    assert sorted(order) == list(range(1, s4.order))
    seen = {0}
    for e in order:
        prev, pos = expr[e]
        assert prev in seen and s4.mul(prev, gens[pos]) == e
        seen.add(e)


def test_exponent(s3, s4):
    assert s3.exponent == 6
    assert s4.exponent == 12
    assert parse_group("Q8").exponent == 4


def test_cycle_string_round_trip(s4):
    for e in range(s4.order):
        name = s4.element_name(e)
        p = Permutation(s4.elements[e])
        assert s4.find(p) == e
        assert p.cycle_string() == name


def test_class_of_consistency(s4):
    classes = conjugacy_classes(s4)
    for c in classes:
        for e in c.elements:
            assert class_of(s4, e) == c.class_index


def test_cyclic_alias_and_cache():
    from quiverhopf.groups import cached_group
    assert parse_group("Z6").order == 6
    assert cached_group("S3") is cached_group("S3")
