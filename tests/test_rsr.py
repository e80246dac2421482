import itertools
import json
import random

import numpy as np
import pytest

import quiverhopf.modrep
import quiverhopf.rsr
from quiverhopf import (
    BudgetError,
    Group,
    InputError,
    RSRType,
    centralizer_subgroup,
    choose_prime,
    class_of,
    conjugacy_classes,
    count_classes,
    enumerate_types,
    inner_only,
    isomorphic,
    make_rsr,
    parse_group,
    parse_ramification,
    rsr_from_json,
    rsr_from_type,
    rsr_key,
    rsr_type,
    twist_rsr,
)
from quiverhopf.groups import automorphisms, outer_representatives
from quiverhopf.modrep import group_table, next_primes
from quiverhopf.rsr import _char_map, _type_along


def oracle_type_along(rsr, phi=None):
    """The type of rsr pulled back along the automorphism phi, with no
    character map or plan: per ramified class the first conjugator by a
    full search of the conjugates, and each character found by its values
    with tuple.index in the canonical table of Z_u0(C')."""
    g = rsr.group
    entries = []
    for c in conjugacy_classes(g):
        target = c.rep if phi is None else int(phi[c.rep])
        cls = class_of(g, target)
        if cls not in rsr.irreps:
            continue
        h = int(np.flatnonzero(g.conjugates(rsr.u[cls]) == target)[0])
        z_to = centralizer_subgroup(g, rsr.u[cls])
        z_from = centralizer_subgroup(g, c.rep)
        reps = z_from.embed[[k.rep for k in conjugacy_classes(z_from)]]
        if phi is not None:
            reps = phi[reps]
        images = g.products(g.products(h, reps), g.inv(h))
        at = class_of(z_to, z_to.local[images]).tolist()
        rows = group_table(z_to, rsr.field).rows
        table = group_table(z_from, rsr.field)
        mult = [0] * table.nchars
        for idx in rsr.irreps[cls]:
            mult[table.rows.index(tuple(rows[idx][k] for k in at))] += 1
        entries.append((c.class_index, tuple(mult)))
    return RSRType(tuple(entries))


def brute_force_tau(degrees, r):
    """Oracle: count multisets of character indices with total degree r."""
    count = 0
    for size in range(r + 1):
        for combo in itertools.combinations_with_replacement(
                range(len(degrees)), size):
            if sum(degrees[i] for i in combo) == r:
                count += 1
    return count


def test_make_rsr_examples(s3):
    ram = parse_ramification(s3, "e:2")
    make_rsr(s3, ram, None, {0: (2,)})        # the 2-dim rep, degree 2
    make_rsr(s3, ram, None, {0: (0, 1)})      # eps + sgn
    with pytest.raises(InputError):
        make_rsr(s3, ram, None, {0: (0,)})    # degree 1 != 2
    with pytest.raises(InputError):
        make_rsr(s3, ram, None, {})           # missing class data
    with pytest.raises(InputError):
        make_rsr(s3, ram, None, {0: (7,)})    # bad character index


def test_make_rsr_u_validation(s3):
    ram = parse_ramification(s3, "(0 1):1")
    t12 = s3.find((0, 2, 1))
    make_rsr(s3, ram, {1: t12}, {1: (1,)})
    with pytest.raises(InputError):
        make_rsr(s3, ram, {1: 0}, {1: (1,)})  # identity not in the class


def test_sign_on_a_noncanonical_transposition_is_the_sign_on_u0(s3):
    # u({transpositions}) = (0 2) with the sign character of Z_{(0 2)} is
    # isomorphic to u0 = (0 1) with the sign character of Z_{(0 1)}
    ram = parse_ramification(s3, "(0 1):1")
    u02 = s3.find((2, 1, 0))
    rsr = make_rsr(s3, ram, {1: u02}, {1: (1,)})
    on_u0 = make_rsr(s3, ram, None, {1: (1,)})
    assert on_u0.u[1] == conjugacy_classes(s3)[1].rep != u02
    assert rsr_type(rsr) == rsr_type(on_u0)
    assert isomorphic(rsr, on_u0)
    assert not isomorphic(rsr, make_rsr(s3, ram, None, {1: (0,)}))


def test_rsr_type_example(s3):
    ram = parse_ramification(s3, "e:2")
    assert rsr_type(make_rsr(s3, ram, None, {0: (2,)})).entries == ((0, (0, 0, 1)),)
    assert rsr_type(make_rsr(s3, ram, None, {0: (0, 1)})) == \
        rsr_type(make_rsr(s3, ram, None, {0: (1, 0)}))


def test_rsr_type_zero_ramification(s3):
    rsr = make_rsr(s3, parse_ramification(s3, ""), None, {})
    assert rsr_type(rsr).entries == ()


def test_rsr_type_is_a_tuple_of_its_entries():
    a = RSRType(((0, (1, 0)), (2, (0, 1))))
    b = RSRType(((0, (1, 0)), (2, (0, 1))))
    c = RSRType(((0, (0, 1)), (2, (0, 1))))
    assert a == b and hash(a) == hash(b) and a != c
    assert a == (a.entries,) and hash(a) == hash((a.entries,))
    assert {a, b, c} == {a, c} and b in {a} and c not in {a}
    assert min([a, c], key=lambda t: t.entries) is c
    assert min([b, a]) is b
    assert a.to_json() == [{"class": 0, "multiplicities": [1, 0]},
                           {"class": 2, "multiplicities": [0, 1]}]
    assert RSRType(()).to_json() == []


@pytest.mark.parametrize("spec", ["S3", "S4", "D4", "Q8", "A4", "S3xC2"])
def test_identity_char_map_equals_the_table_built_map(spec):
    # phi = the identity as an index array takes the table route
    g = parse_group(spec)
    f = choose_prime(g)
    identity = np.arange(g.order)
    for c in conjugacy_classes(g):
        z = centralizer_subgroup(g, c.rep)
        chars = _char_map(g, f, c.rep, c.rep, 0)
        assert chars == _char_map(g, f, c.rep, c.rep, 0, identity)
        assert chars == list(range(group_table(z, f).nchars))


def test_isomorphic_example(s3):
    ram = parse_ramification(s3, "e:2")
    a = make_rsr(s3, ram, None, {0: (0, 1)})
    b = make_rsr(s3, ram, None, {0: (1, 0)})
    c = make_rsr(s3, ram, None, {0: (0, 0)})
    d = make_rsr(s3, ram, None, {0: (1, 1)})
    for mode in ("assume-inner", "search-aut"):
        assert isomorphic(a, b, mode)
        assert not isomorphic(c, d, mode)
        assert isomorphic(a, a, mode)


def test_isomorphic_is_equivalence(s3):
    ram = parse_ramification(s3, "e:2,(0 1):1")
    reps = [rsr_from_type(s3, ram, t) for t in enumerate_types(s3, ram)]
    # add u-twisted copies of a few representatives
    rng = random.Random(0)
    twisted = [twist_rsr(r, {1: rng.randrange(s3.order)}) for r in reps[:3]]
    pool = reps + twisted
    rel = {(i, j): isomorphic(x, y, "search-aut")
           for i, x in enumerate(pool) for j, y in enumerate(pool)}
    n = len(pool)
    for i in range(n):
        assert rel[(i, i)]
        for j in range(n):
            assert rel[(i, j)] == rel[(j, i)]
            for k in range(n):
                if rel[(i, j)] and rel[(j, k)]:
                    assert rel[(i, k)]


def test_isomorphic_mode_errors(s3):
    ram = parse_ramification(s3, "e:2")
    a = make_rsr(s3, ram, None, {0: (2,)})
    v4 = parse_group("C2xC2")
    b = make_rsr(v4, parse_ramification(v4, ""), None, {})
    with pytest.raises(InputError):
        isomorphic(a, b)
    with pytest.raises(InputError):
        isomorphic(b, b, "assume-inner")   # Aut != Inn for the Klein group
    with pytest.raises(InputError):
        isomorphic(a, a, "no-such-mode")
    zero = parse_ramification(s3, "")
    first, second = next_primes(s3, 2)
    with pytest.raises(InputError, match="same prime"):
        isomorphic(make_rsr(s3, zero, None, {}, field=first),
                   make_rsr(s3, zero, None, {}, field=second))


def test_count_classes_refuses_r_past_the_cap():
    g = parse_group("C2")
    cap = quiverhopf.rsr.RAM_CAP
    assert count_classes(g, parse_ramification(g, f"e:{cap}")) == cap + 1
    with pytest.raises(BudgetError):
        count_classes(g, parse_ramification(g, f"e:{cap + 1}"))


def test_count_classes_examples(s3):
    assert count_classes(s3, parse_ramification(s3, "e:2")) == 4
    assert count_classes(s3, parse_ramification(s3, "")) == 1
    assert count_classes(s3, parse_ramification(s3, "e:2,(0 1):1")) == 8


def test_count_against_brute_force():
    # DP equals multiset enumeration for r <= 4 over small tables
    for spec in ("S3", "S4", "D4", "Q8"):
        g = parse_group(spec)
        f = choose_prime(g)
        for ctx in conjugacy_classes(g):
            degrees = group_table(centralizer_subgroup(g, ctx), f).degrees
            if len(degrees) > 6:
                continue
            for r in range(5):
                ram_like = [(ctx.class_index, r)] if r else []
                from quiverhopf.rsr import _tau
                assert _tau(degrees, r) == brute_force_tau(degrees, r)


def test_enumerate_types_example(s3):
    ram = parse_ramification(s3, "e:2")
    types = enumerate_types(s3, ram)
    assert [t.entries[0][1] for t in types] == \
        [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)]


def test_enumerate_types_zero(s3):
    types = enumerate_types(s3, parse_ramification(s3, ""))
    assert len(types) == 1 and types[0].entries == ()


def test_enumerate_types_three_cycles(s3):
    # centralizer C3 has degrees (1,1,1): three types for r = 1
    types = enumerate_types(s3, parse_ramification(s3, "(0 1 2):1"))
    assert len(types) == 3


@pytest.mark.parametrize("spec,ram_spec", [
    ("S3", "e:2"), ("S3", "(0 1):2,(0 1 2):1"), ("S4", "(0 1):2"),
    ("D4", "e:3"), ("Q8", "(0 2 1 3)(4 6 5 7):2"),
])
def test_count_equals_enumeration(spec, ram_spec):
    g = parse_group(spec)
    ram = parse_ramification(g, ram_spec)
    assert count_classes(g, ram) == len(enumerate_types(g, ram))


def test_type_invariant_under_twist(s3, s4):
    rng = random.Random(42)
    for g in (s3, s4):
        classes = conjugacy_classes(g)
        for _ in range(5):
            cls = rng.randrange(len(classes))
            f = choose_prime(g)
            z = centralizer_subgroup(g, classes[cls])
            degrees = group_table(z, f).degrees
            idx = rng.randrange(len(degrees))
            r = degrees[idx]
            ram = parse_ramification(
                g, f"{g.element_name(classes[cls].rep)}:{r}")
            rsr = make_rsr(g, ram, None, {cls: (idx,)}, field=f)
            h = rng.randrange(g.order)
            assert rsr_type(twist_rsr(rsr, {cls: h})) == rsr_type(rsr)


def test_json_round_trip(s3):
    ram = parse_ramification(s3, "e:2,(0 1):1")
    rsr = make_rsr(s3, ram, None, {0: (0, 1), 1: (0,)}, seed=3)
    doc = rsr.to_json()
    assert set(doc) == {"group", "prime", "seed", "u", "rho"}
    back = rsr_from_json(json.loads(json.dumps(doc)))
    assert rsr_type(back) == rsr_type(rsr)
    assert back.seed == 3


def test_json_with_noncanonical_u(s3):
    ram = parse_ramification(s3, "(0 1):1")
    u02 = s3.find((2, 1, 0))
    rsr = make_rsr(s3, ram, {1: u02}, {1: (1,)})
    back = rsr_from_json(rsr.to_json())
    assert back.u[1] == u02
    assert rsr_type(back) == rsr_type(rsr)


def test_json_errors(s3):
    with pytest.raises(InputError):
        rsr_from_json({"group": "S3", "prime": 13})          # no rho
    with pytest.raises(InputError):
        rsr_from_json({"group": "S3", "prime": 12,
                       "rho": [{"class": 0, "irreps": [0]}]})
    with pytest.raises(InputError):
        rsr_from_json({"group": "S3", "prime": 13,
                       "rho": [{"class": 9, "irreps": [0]}]})
    with pytest.raises(InputError):
        rsr_from_json({"group": "S3", "prime": 13,
                       "u": [{"class": 1, "rep": "(0 1 2)"}],
                       "rho": [{"class": 1, "irreps": [0]}]})
    with pytest.raises(InputError):                           # rho class twice
        rsr_from_json({"group": "S3", "prime": 13,
                       "rho": [{"class": 1, "irreps": [0]},
                               {"class": 1, "irreps": [1]}]})
    with pytest.raises(InputError):                           # u class twice
        rsr_from_json({"group": "S3", "prime": 13,
                       "u": [{"class": 1, "rep": "(0 2)"},
                             {"class": 1, "rep": "(1 2)"}],
                       "rho": [{"class": 1, "irreps": [1]}]})
    # values of the wrong JSON type are refused, not coerced: "10" is no
    # list of characters 1 and 0, 13.9 no prime 13, true no seed 1
    good = {"group": "S3", "prime": 13, "u": [{"class": 1, "rep": "(0 1)"}],
            "rho": [{"class": 1, "irreps": [1]}]}
    rsr_from_json(good)
    for key, value, message in [
            ("prime", 13.9, "prime must be int, not float"),
            ("prime", "13", "prime must be int, not str"),
            ("prime", True, "prime must be int, not bool"),
            ("seed", True, "seed must be int, not bool"),
            ("u", {"class": 1, "rep": "(0 1)"}, "u must be list, not dict"),
            ("u", [{"class": "1", "rep": "(0 1)"}], "class must be int, not str"),
            ("u", [{"class": 1, "rep": 5}], "rep must be str, not int"),
            ("rho", {"class": 1, "irreps": [1]}, "rho must be list, not dict"),
            ("rho", [{"class": "1", "irreps": [1]}], "class must be int, not str"),
            ("rho", [{"class": 1.0, "irreps": [1]}], "class must be int, not float"),
            ("rho", [{"class": 1, "irreps": "10"}], "irreps must be list, not str"),
            ("rho", [{"class": 1, "irreps": [True]}],
             "character index must be int, not bool")]:
        with pytest.raises(InputError, match=f"^{message}$"):
            rsr_from_json({**good, key: value})


def test_a4_outer_automorphism_fusion():
    # A4 has Aut != Inn; the two classes of 3-cycles are fused by an outer
    # automorphism, so RSRs carried by them can be isomorphic while their
    # types differ: the type criterion is complete only for inner-only groups
    a4 = parse_group("A4")
    classes = conjugacy_classes(a4)
    assert [c.size for c in classes] == [1, 4, 4, 3]
    ram1 = parse_ramification(a4, f"{a4.element_name(classes[1].rep)}:1")
    ram2 = parse_ramification(a4, f"{a4.element_name(classes[2].rep)}:1")
    x = make_rsr(a4, ram1, None, {1: (0,)})
    y = make_rsr(a4, ram2, None, {2: (0,)})
    assert isomorphic(x, y, "search-aut")
    assert rsr_type(x) != rsr_type(y)
    # nontrivial characters of the cyclic centralizer: the outer map matches
    # each to exactly one of the two conjugates on the fused class
    x1 = make_rsr(a4, ram1, None, {1: (1,)})
    y1 = make_rsr(a4, ram2, None, {2: (1,)})
    y2 = make_rsr(a4, ram2, None, {2: (2,)})
    assert isomorphic(x1, y1, "search-aut") != isomorphic(x1, y2, "search-aut")
    assert not isomorphic(x, x1, "search-aut")


# Isomorphism classes of e:1 RSRs (the linear characters) are their orbits
# under Aut G; the counts are those of E1_AUT_ORBITS in qhbench/oracles.py.
OUTER_AUT_E1_ORBITS = {"D4": 3, "Q8": 2, "A4": 2, "C2xC2": 2, "S3xC2": 3}


@pytest.mark.parametrize("spec", sorted(OUTER_AUT_E1_ORBITS))
def test_rsr_key_counts_outer_automorphism_orbits(spec):
    g = parse_group(spec)
    assert not inner_only(g)
    ram = parse_ramification(g, "e:1")
    reps = [rsr_from_type(g, ram, t) for t in enumerate_types(g, ram)]
    keys = {rsr_key(r) for r in reps}
    assert len(keys) == OUTER_AUT_E1_ORBITS[spec]
    assert len({rsr_type(r) for r in reps}) == len(reps)


@pytest.mark.parametrize("spec", sorted(OUTER_AUT_E1_ORBITS) + ["S3", "S4"])
def test_rsr_key_is_the_least_type_over_all_of_aut(spec):
    # one automorphism per coset of Inn G gives the key of the whole of
    # Aut G, on e:1, e:2 and every class at r = 1, 2
    g = parse_group(spec)
    auts = automorphisms(g)
    every = np.arange(g.order)
    table = g.products(every[:, None], every[None, :])
    center = (table == table.T).all(axis=1).sum()      # |Z(G)| by brute force
    assert len(outer_representatives(g)) * (g.order // center) == len(auts)
    for cls in conjugacy_classes(g):
        for r in (1, 2):
            ram = parse_ramification(g, f"{g.element_name(cls.rep)}:{r}")
            for t in enumerate_types(g, ram):
                rsr = rsr_from_type(g, ram, t)
                least = min((oracle_type_along(rsr, phi) for phi in auts),
                            key=lambda k: k.entries)
                assert rsr_key(rsr) == least, (spec, ram.coeffs, t)


@pytest.mark.parametrize("spec", sorted(OUTER_AUT_E1_ORBITS))
def test_rsr_key_invariant_under_twists(spec):
    g = parse_group(spec)
    rng = random.Random(spec)
    classes = conjugacy_classes(g)
    for cls in range(1, len(classes)):
        ram = parse_ramification(g, f"{g.element_name(classes[cls].rep)}:2")
        for t in enumerate_types(g, ram):
            r = rsr_from_type(g, ram, t)
            conjugators = {k: rng.randrange(g.order)
                           for k in range(len(classes))}
            twisted = twist_rsr(r, conjugators)
            assert rsr_key(twisted) == rsr_key(r)
            assert isomorphic(twisted, r, "search-aut")


def test_search_aut_on_s5_agrees_with_types():
    # S5 is inner-only: search-aut must agree with the type comparison
    g = parse_group("S5")
    ram = parse_ramification(g, "(0 1):1")
    reps = [rsr_from_type(g, ram, t) for t in enumerate_types(g, ram)]
    assert len(reps) == 4
    for a in reps:
        for b in reps:
            assert isomorphic(a, b, "search-aut") == (rsr_type(a) == rsr_type(b))


def test_search_aut_on_s7_agrees_with_types():
    # outer_representatives answers S7 by Aut S_n = Inn S_n without listing
    # Aut S7 (past the automorphism budget), so a twisted u changes neither
    # key nor type
    g = parse_group("S7")
    ram = parse_ramification(g, "(0 1):1")
    canonical = rsr_from_type(g, ram, enumerate_types(g, ram)[0])
    (k, _), = ram.coeffs
    twisted = twist_rsr(canonical, {k: g.find((1, 2, 0, 3, 4, 5, 6))})
    others = [rsr_from_type(g, ram, t) for t in enumerate_types(g, ram)[1:3]]
    assert twisted.u != canonical.u
    for b in [canonical, twisted, *others]:
        assert isomorphic(canonical, b, "search-aut") == (rsr_type(canonical) == rsr_type(b))
        assert isomorphic(twisted, b, "search-aut") == (rsr_type(twisted) == rsr_type(b))
    assert isomorphic(canonical, twisted, "search-aut")


def test_search_aut_on_s6_matches_the_classes_the_outer_automorphism_swaps():
    # the outer automorphism of S6 swaps transpositions with triple
    # transpositions, so each type on one class is isomorphic to exactly
    # one type on the other although no type is shared
    g = parse_group("S6")
    sides = []
    for spec in ("(0 1):1", "(0 1)(2 3)(4 5):1"):
        ram = parse_ramification(g, spec)
        sides.append([rsr_from_type(g, ram, t) for t in enumerate_types(g, ram)])
    left, right = sides
    assert len(left) == len(right) == 4
    match = np.array([[isomorphic(a, b, "search-aut") for b in right] for a in left])
    assert (match.sum(axis=0) == 1).all() and (match.sum(axis=1) == 1).all()
    assert not any(rsr_type(a) == rsr_type(b) for a in left for b in right)
    with pytest.raises(InputError, match="assume-inner"):
        isomorphic(left[0], right[0], "assume-inner")


def ramifications(g):
    """Every class at r_C = 1 and 2, and every pair of classes at 1."""
    names = [g.element_name(c.rep) for c in conjugacy_classes(g)]
    return ([f"{n}:{r}" for n in names for r in (1, 2)] +
            [f"{a}:1,{b}:1" for a, b in itertools.combinations(names, 2)])


@pytest.mark.parametrize("spec", ["S3", "S4", "D4", "Q8", "A4", "C2xC2", "S3xC2", "C5"])
def test_type_along_matches_the_uncached_oracle(spec):
    # every type, every automorphism, two primes on one group object, and a
    # twisted copy of every RSR (u not canonical); on C5 the automorphism
    # z -> z^2 orders the characters differently at the two primes
    g = parse_group(spec)
    rng = random.Random(spec)
    classes = conjugacy_classes(g)
    auts = automorphisms(g)
    for field in next_primes(g, 2):
        for ram_spec in ramifications(g):
            ram = parse_ramification(g, ram_spec)
            for t in enumerate_types(g, ram, field):
                rsr = rsr_from_type(g, ram, t, field=field)
                twisted = twist_rsr(rsr, {k: rng.randrange(g.order)
                                          for k in range(len(classes))})
                assert oracle_type_along(twisted) == oracle_type_along(rsr) == t
                for r in (rsr, twisted):
                    for phi in auts:
                        assert _type_along(r, phi) == oracle_type_along(r, phi), \
                            (spec, field.p, ram_spec, t, r.u)


def types_and_keys(g, field, ram_spec):
    """Type and key of every type's RSR and of a twisted copy of each."""
    ram = parse_ramification(g, ram_spec)
    rng = random.Random(ram_spec)
    conjugators = {k: rng.randrange(g.order) for k, _ in ram.coeffs}
    rsrs = [rsr_from_type(g, ram, t, field=field)
            for t in enumerate_types(g, ram, field)]
    rsrs += [twist_rsr(r, conjugators) for r in rsrs]
    return [(rsr_type(r), rsr_key(r)) for r in rsrs]


@pytest.mark.parametrize("spec", ["S3", "D4", "A4", "C5"])
def test_one_group_at_two_primes_types_as_fresh_groups_do(spec):
    shared = parse_group(spec)
    for field in (choose_prime(shared), next_primes(shared, 2)[1]):
        fresh = parse_group(spec)
        for ram_spec in ramifications(shared):
            assert types_and_keys(shared, field, ram_spec) == \
                types_and_keys(fresh, field, ram_spec), (spec, field.p, ram_spec)


@pytest.mark.parametrize("spec,ram_spec", [
    ("S4", "e:2,(0 1):1"), ("S4", "(0 1)(2 3):2"), ("D4", "e:2"),
    ("A4", "(0 1 2):1,(0 2 1):1"), ("S6", "(0 1):1,(0 1)(2 3)(4 5):1"),
])
def test_no_conjugate_or_table_search_per_rsr_once_the_plan_exists(
        spec, ram_spec, monkeypatch):
    g = parse_group(spec)
    ram = parse_ramification(g, ram_spec)
    rsrs = [rsr_from_type(g, ram, t) for t in enumerate_types(g, ram)]
    conjugators = {k: g.order - 1 for k, _ in ram.coeffs}
    twisted = [twist_rsr(r, conjugators) for r in rsrs]
    for first in (rsrs[0], twisted[0]):
        rsr_type(first)
        rsr_key(first)
    calls = []
    conjugates, table = Group.conjugates, quiverhopf.rsr.group_table
    monkeypatch.setattr(Group, "conjugates",
                        lambda self, a: calls.append(a) or conjugates(self, a))
    monkeypatch.setattr(quiverhopf.rsr, "group_table",
                        lambda z, f: calls.append(z) or table(z, f))
    for r in rsrs[1:] + twisted[1:]:
        rsr_type(r)
        rsr_key(r)
    assert calls == []


@pytest.mark.parametrize("spec,ram_spec", [("S4", "(0 1):1,(0 1 2 3):1"),
                                           ("S3", "(0 1):2,(0 1 2):3")])
def test_abelian_centralizers_on_u0_build_no_table(spec, ram_spec, monkeypatch):
    # counting, listing, validating, typing and keying read only degrees
    # and class counts, and on u0 every character map is the identity
    calls, table = [], quiverhopf.modrep.character_table
    monkeypatch.setattr(quiverhopf.modrep, "character_table",
                        lambda z, f: calls.append(z) or table(z, f))
    g = parse_group(spec)
    ram = parse_ramification(g, ram_spec)
    types = enumerate_types(g, ram)
    assert count_classes(g, ram) == len(types) > 1
    rsrs = [rsr_from_type(g, ram, t) for t in types]
    assert [rsr_type(r) for r in rsrs] == types
    assert [rsr_key(r) for r in rsrs] == types
    assert isomorphic(rsrs[0], rsrs[0], "search-aut")
    assert not isomorphic(rsrs[0], rsrs[-1], "search-aut")
    assert rsr_from_json(rsrs[-1].to_json()).irreps == rsrs[-1].irreps
    assert calls == []


def test_s6_keys_across_the_swapped_classes_are_the_burnside_count():
    # the outer automorphism of S6 swaps transpositions with triple
    # transpositions; on the 16 types with one linear character on each,
    # an involution fixing 4 of the pairs leaves (16 + 4) / 2 = 10 orbits
    g = parse_group("S6")
    ram = parse_ramification(g, "(0 1):1,(0 1)(2 3)(4 5):1")
    rsrs = [rsr_from_type(g, ram, t) for t in enumerate_types(g, ram)]
    assert len(rsrs) == 16
    keys = [rsr_key(r) for r in rsrs]
    assert len(set(keys)) == 10
    auts = automorphisms(g)
    assert len(auts) == 1440
    for r, key in zip(rsrs, keys):
        assert key == min((oracle_type_along(r, phi) for phi in auts),
                          key=lambda k: k.entries)


@pytest.mark.parametrize("spec, ram_spec", [("S4", "(0 1)(2 3):2"), ("S5", "(0 1):2")])
def test_first_type_takes_no_conjugation_row_once_the_centralizers_exist(
        spec, ram_spec, monkeypatch):
    # the plan's conjugators are the centralizers' transversals at theta_at
    g = parse_group(spec)
    ram = parse_ramification(g, ram_spec)
    rsr = rsr_from_type(g, ram, enumerate_types(g, ram)[0])
    for c in conjugacy_classes(g):
        centralizer_subgroup(g, c)
    calls, conjugates = [], Group.conjugates
    monkeypatch.setattr(Group, "conjugates", lambda self, a:
                        (self is g and calls.append(a)) or conjugates(self, a))
    assert rsr_type(rsr) == enumerate_types(g, ram)[0]
    assert calls == []
