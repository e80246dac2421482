"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All checks are exact (integer / mod-p arithmetic); tolerances are equality.
Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines.
"""

import itertools
import json
import random
from contextlib import contextmanager

from quiverhopf import (
    braiding,
    build_bimodule,
    centralizer_subgroup,
    choose_prime,
    class_of,
    cli,
    conjugacy_classes,
    count_classes,
    enumerate_types,
    inner_only,
    isomorphic,
    linalg,
    make_rsr,
    nichols_dims,
    nichols_dims_multiprime,
    parse_group,
    parse_ramification,
    rsr_from_type,
    rsr_type,
    skew_primitive_report,
    tensor_hopf,
    transversal_iso,
    twist_rsr,
    type_one_dims,
    verify_bimodule,
    verify_hopf,
    verify_yd,
    yd_from_rsr,
)
from quiverhopf.groups import coset_transversal
from quiverhopf.modrep import character_table, group_table, next_primes
from quiverhopf.quiver import Ramification
from quiverhopf.yd import (
    braid_operators,
    bubble_word,
    insertion_word,
    quantum_symmetrizer,
    word_operator,
)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] FAIL - {label}")
        raise
    print(f"[criterion {number}] PASS - {label}")


def small_ramifications(g, max_r=3, max_classes=2):
    """Every ramification with r_C <= max_r supported on <= max_classes."""
    classes = conjugacy_classes(g)
    idxs = range(len(classes))
    out = [Ramification(())]
    for k in idxs:
        for r in range(1, max_r + 1):
            out.append(Ramification(((k, r),)))
    for k1, k2 in itertools.combinations(idxs, 2):
        for r1 in range(1, max_r + 1):
            for r2 in range(1, max_r + 1):
                out.append(Ramification(((k1, r1), (k2, r2))))
    return out


def brute_force_count(g, ram, field):
    """Independent count: enumerate multisets of character indices."""
    total = 1
    for k, r in ram.coeffs:
        z = centralizer_subgroup(g, conjugacy_classes(g)[k].rep)
        degrees = group_table(z, field).degrees
        found = 0
        for size in range(r + 1):
            for combo in itertools.combinations_with_replacement(
                    range(len(degrees)), size):
                if sum(degrees[i] for i in combo) == r:
                    found += 1
        total *= found
    return total


def test_criterion_1_example_reproduction(capsys, tmp_path):
    with criterion(1, "Example reproduction: S3 with two loops at each vertex"):
        code = cli.main(["rsr-enumerate", "--group", "S3", "--ram", "e:2"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 4
        mults = {tuple(t[0]["multiplicities"]) for t in doc["types"]}
        # against the ordering (trivial, sign, 2-dim) of the S3 characters:
        # {rho}, {eps,eps}, {eps,sgn}, {sgn,sgn}
        assert mults == {(0, 0, 1), (2, 0, 0), (1, 1, 0), (0, 2, 0)}

        g = parse_group("S3")
        ram = parse_ramification(g, "e:2")
        files = {}
        for name, slots in [("es", (0, 1)), ("se", (1, 0)),
                            ("ee", (0, 0)), ("ss", (1, 1))]:
            rsr = make_rsr(g, ram, None, {0: slots})
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(rsr.to_json()))
            files[name] = str(path)
        code = cli.main(["rsr-iso", files["es"], files["se"]])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"] is True
        code = cli.main(["rsr-iso", files["ee"], files["ss"]])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["isomorphic"] is False


def test_criterion_2_counting_cross_check():
    with criterion(2, "class counting: DP = brute force = enumeration length"):
        for spec in ("S3", "S4", "D4", "Q8"):
            g = parse_group(spec)
            field = choose_prime(g)
            for ram in small_ramifications(g):
                dp = count_classes(g, ram, field)
                assert dp == brute_force_count(g, ram, field)
                assert dp == len(enumerate_types(g, ram, field))


def test_criterion_3_character_tables():
    with criterion(3, "character tables: degrees, orthogonality, prime stability"):
        assert character_table(parse_group("S3"),
                               choose_prime(parse_group("S3"))).degrees == (1, 1, 2)
        assert character_table(parse_group("S4"),
                               choose_prime(parse_group("S4"))).degrees == (1, 1, 2, 3, 3)
        for spec in ("S3", "S4", "S5", "D4", "Q8", "A4"):
            g = parse_group(spec)
            fields = next_primes(g, 3)
            degrees_seen = []
            for f in fields:
                t = character_table(g, f)
                degrees_seen.append(t.degrees)
                classes = conjugacy_classes(g)
                sizes = [c.size for c in classes]
                inv_class = [class_of(g, g.inv(c.rep)) for c in classes]
                p = f.p
                for i, ri in enumerate(t.rows):
                    for k, rk in enumerate(t.rows):
                        s = sum(sizes[j] * ri[j] * rk[inv_class[j]]
                                for j in range(len(sizes))) % p
                        assert s == (g.order % p if i == k else 0)
            assert degrees_seen[0] == degrees_seen[1] == degrees_seen[2]


def test_criterion_4_bimodule_engine():
    with criterion(4, "bimodule axioms: exhaustive on S3, sampled on S4, "
                      "mutations caught"):
        g = parse_group("S3")
        field = choose_prime(g)
        built = []
        for ram in small_ramifications(g, max_r=2, max_classes=3):
            for t in enumerate_types(g, ram, field):
                rsr = rsr_from_type(g, ram, t, field)
                m = build_bimodule(rsr)
                report = verify_bimodule(m, exhaustive=True)
                assert report.passed, (ram.coeffs, t.entries, report.to_json())
                built.append(rsr)

        g4 = parse_group("S4")
        ram4 = parse_ramification(g4, "(0 1):1")
        for t in enumerate_types(g4, ram4)[:2]:
            m4 = build_bimodule(rsr_from_type(g4, ram4, t))
            report = verify_bimodule(m4, exhaustive=False,
                                     samples=100_000, seed=2024)
            assert report.passed, report.to_json()

        # every injected single-coefficient mutation must be caught
        rng = random.Random(99)
        mutated_checked = 0
        while mutated_checked < 20:
            rsr = built[rng.randrange(len(built))]
            if rsr.ram.is_zero():
                continue
            m = build_bimodule(rsr)
            cls = rsr.ram.support[rng.randrange(len(rsr.ram.support))]
            slot = rng.randrange(len(rsr.irreps[cls]))
            blocks = [b.copy() for b in m.blocks[(cls, slot)]]
            z = rng.randrange(len(blocks))
            d = blocks[z].shape[0]
            i, j = rng.randrange(d), rng.randrange(d)
            blocks[z][i, j] = (blocks[z][i, j] + rng.randrange(1, m.p)) % m.p
            m.blocks[(cls, slot)] = blocks
            assert not verify_bimodule(m, exhaustive=True).passed
            mutated_checked += 1


def test_criterion_5_transversal_change():
    with criterion(5, "transversal change gives a verified bimodule isomorphism"):
        g = parse_group("S3")
        ram = parse_ramification(g, "(0 1):1")
        rsr = make_rsr(g, ram, None, {1: (1,)})
        rep = conjugacy_classes(g)[1].rep
        t1 = {1: list(coset_transversal(g, rep)[0])}
        t2 = {1: list(t1[1])}
        z_nontrivial = [z for z in conjugacy_classes(g)[1].centralizer if z][0]
        t2[1][1] = g.mul(z_nontrivial, t2[1][1])
        t2[1][2] = g.mul(z_nontrivial, t2[1][2])
        fmap = transversal_iso(rsr, t1, t2)
        report = fmap.verify(exhaustive=True)
        assert report.passed, report.to_json()


def _random_rsr(g, field, rng, max_dim):
    classes = conjugacy_classes(g)
    while True:
        support = rng.sample(range(len(classes)),
                             k=rng.randrange(1, min(3, len(classes))))
        r_by_class = {}
        dim = 0
        for k in support:
            r = rng.randrange(1, 3)
            dim += r * classes[k].size
            r_by_class[k] = r
        if not 0 < dim <= max_dim:
            continue
        ram = Ramification.from_dict(r_by_class)
        u_choice = {k: classes[k].elements[rng.randrange(classes[k].size)]
                    for k in support}
        irreps = {}
        feasible = True
        for k in support:
            z = centralizer_subgroup(g, u_choice[k])
            degrees = group_table(z, field).degrees
            remaining = r_by_class[k]
            slots = []
            guard = 0
            while remaining > 0:
                idx = rng.randrange(len(degrees))
                if degrees[idx] <= remaining:
                    slots.append(idx)
                    remaining -= degrees[idx]
                guard += 1
                if guard > 100:
                    feasible = False
                    break
            if not feasible:
                break
            irreps[k] = tuple(slots)
        if not feasible:
            continue
        return make_rsr(g, ram, u_choice, irreps, field=field)


def test_criterion_6_twist_invariance():
    with criterion(6, "conjugation twists preserve the type and the Nichols "
                      "dimensions up to degree 3"):
        rng = random.Random(20240612)
        groups = [parse_group("S3"), parse_group("S4")]
        fields = [choose_prime(g) for g in groups]
        for n in range(20):
            g, field = groups[n % 2], fields[n % 2]
            rsr = _random_rsr(g, field, rng, max_dim=6)
            conjugators = {k: rng.randrange(g.order) for k in rsr.ram.support}
            twisted = twist_rsr(rsr, conjugators)
            assert rsr_type(twisted) == rsr_type(rsr)
            d1 = nichols_dims(yd_from_rsr(rsr), 3)
            d2 = nichols_dims(yd_from_rsr(twisted), 3)
            assert d1 == d2, (rsr.to_json(), conjugators, d1, d2)


def test_criterion_7_nichols_dimensions():
    with criterion(7, "Nichols dimensions: sign module and the S3 "
                      "transposition module, three primes and the brute oracle"):
        c2 = parse_group("C2")
        rsr2 = make_rsr(c2, parse_ramification(c2, "(0 1):1"), None, {1: (1,)})
        res2 = nichols_dims_multiprime(rsr2, 2, nprimes=3)
        assert res2["dims"] == [1, 1, 0] and res2["agreed"]

        g = parse_group("S3")
        rsr = make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (1,)})
        res = nichols_dims_multiprime(rsr, 5, nprimes=3)
        assert res["dims"] == [1, 3, 4, 3, 1, 0]
        assert res["agreed"] and len(set(res["primes"])) == 3

        # independent oracle: per-permutation lifts along insertion-sort
        # words, summed densely, ranked by plain elimination
        v = yd_from_rsr(rsr)
        c = braiding(v)
        dims = [1, v.dim]
        for n in range(2, 6):
            s = quantum_symmetrizer(c, n, insertion_word)
            dims.append(linalg.rank(s, v.p))
        assert dims == [1, 3, 4, 3, 1, 0]


def test_criterion_8_type_one_consistency():
    with criterion(8, "biproduct identity, skew-primitive arrows and the "
                      "Hopf axioms at degree 3"):
        g = parse_group("S3")
        field = choose_prime(g)
        tested = [
            make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (1,)}),
            make_rsr(g, parse_ramification(g, "e:2"), None, {0: (2,)}),
            make_rsr(g, parse_ramification(g, "(0 1 2):1"), None, {2: (2,)}),
        ]
        for rsr in tested:
            dims = type_one_dims(rsr, 3)
            base = nichols_dims(yd_from_rsr(rsr), 3)
            assert dims == [g.order * b for b in base]
            assert dims[0] == g.order
            assert dims[1] == g.order * rsr.quiver().arrows_per_vertex
            h = tensor_hopf(rsr, 3)
            assert skew_primitive_report(h).passed

        h = tensor_hopf(tested[1], 3)
        report = verify_hopf(h, seed=8)
        assert report.mode == "exhaustive"
        assert report.passed, report.to_json()
        report2 = verify_hopf(tensor_hopf(tested[0], 3), seed=8, samples=250)
        assert report2.passed, report2.to_json()


def test_criterion_9_isomorphism_modes_agree():
    with criterion(9, "type comparison agrees with the automorphism search "
                      "on all enumerated pairs"):
        for spec in ("S3", "S4"):
            g = parse_group(spec)
            field = choose_prime(g)
            assert inner_only(g)
            for ram in small_ramifications(g):
                reps = [rsr_from_type(g, ram, t, field)
                        for t in enumerate_types(g, ram, field)]
                types = [rsr_type(r) for r in reps]
                for i, a in enumerate(reps):
                    for j, b in enumerate(reps):
                        assert (types[i] == types[j]) == \
                            isomorphic(a, b, "search-aut"), \
                            (spec, ram.coeffs, i, j)
