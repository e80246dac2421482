from collections import Counter

import pytest

from quiverhopf import (
    InputError,
    class_of,
    conjugacy_classes,
    make_rsr,
    parse_group,
    parse_ramification,
)


def test_parse_ramification_identity_class(s3):
    ram = parse_ramification(s3, "e:2")
    assert ram.coeffs == ((0, 2),)
    assert ram.support == (0,)


def test_parse_ramification_empty(s3):
    assert parse_ramification(s3, "").is_zero()
    assert parse_ramification(s3, "  ").is_zero()


def test_parse_ramification_two_classes(s3):
    ram = parse_ramification(s3, "(0 1):1,(0 1 2):2")
    # oracle: look the classes up through class_of directly
    t = s3.find((1, 0, 2))
    c = s3.find((1, 2, 0))
    assert dict(ram.coeffs) == {class_of(s3, t): 1, class_of(s3, c): 2}


def test_parse_ramification_errors(s3):
    with pytest.raises(InputError):
        parse_ramification(s3, "(0 5):1")        # point out of range
    with pytest.raises(InputError):
        parse_ramification(s3, "(0 1):-2")
    with pytest.raises(InputError):
        parse_ramification(s3, "(0 1):1,(0 2):1")  # same class twice
    with pytest.raises(InputError):
        parse_ramification(s3, "(0 1)")
    with pytest.raises(InputError, match=r"bad count in '\(0 1\):x'"):
        parse_ramification(s3, "(0 1):x")


def test_parse_ramification_skips_empty_entries(s3):
    assert parse_ramification(s3, "(0 1):1,,e:1") == parse_ramification(s3, "(0 1):1,e:1")


def test_quiver_loops_for_identity_class(s3):
    ram = parse_ramification(s3, "e:2")
    rsr = make_rsr(s3, ram, None, {0: (2,)})     # the 2-dim representation
    q = rsr.quiver()
    assert q.arrow_count() == 12                 # |G| * r_C * |C| = 6*2*1
    for x in range(s3.order):
        loops = [a for a in q.arrows() if a.x == a.y == x]
        assert len(loops) == 2
        assert {(a.slot, a.j) for a in loops} == {(0, 0), (0, 1)}


def test_quiver_zero_ramification(s3):
    rsr = make_rsr(s3, parse_ramification(s3, ""), None, {})
    q = rsr.quiver()
    assert q.arrow_count() == 0
    assert list(q.arrows()) == []


def test_quiver_transposition_class(s3):
    ram = parse_ramification(s3, "(0 1):1")
    rsr = make_rsr(s3, ram, None, {1: (1,)})
    q = rsr.quiver()
    assert q.arrow_count() == 18                 # 6 vertices * 1 * 3


def test_arrow_counts_between_vertices(s3):
    ram = parse_ramification(s3, "(0 1):1,(0 1 2):2")
    rsr = make_rsr(s3, ram, None, {1: (0,), 2: (0, 1)})
    q = rsr.quiver()
    classes = conjugacy_classes(s3)
    between = Counter((a.x, a.y) for a in q.arrows())
    for x in range(s3.order):
        for y in range(s3.order):
            cls = class_of(s3, s3.mul(s3.inv(x), y))
            assert between[(x, y)] == ram.r_of(cls)
    # slot widths sum to r_C
    for k, degrees in zip(ram.support, q.slot_degrees):
        assert sum(degrees) == ram.r_of(k)
    total = sum(v * classes[k].size for k, v in ram.coeffs)
    assert q.arrows_per_vertex == total
    assert len(list(q.arrows())) == q.arrow_count() == s3.order * total


def test_path_counts(s3):
    # number of n-paths is |G| * (sum r_C |C|)^n
    from quiverhopf import tensor_hopf
    ram = parse_ramification(s3, "e:1,(0 1):1")
    rsr = make_rsr(s3, ram, None, {0: (0,), 1: (1,)})
    h = tensor_hopf(rsr, 3)
    k = rsr.quiver().arrows_per_vertex
    for n in range(4):
        assert h.dim(n) == s3.order * k ** n


def test_dot_export(s3):
    ram = parse_ramification(s3, "e:1")
    rsr = make_rsr(s3, ram, None, {0: (0,)})
    dot = rsr.quiver().to_dot()
    assert dot.startswith("digraph")
    assert dot.count("->") == 6
    assert '"(0 1 2)"' in dot
