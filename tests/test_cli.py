import json

import pytest

from quiverhopf import __version__, cli, make_rsr, parse_group, parse_ramification, typeone
from quiverhopf.rsr import TYPE_CAP


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_rsr_count_example(capsys):
    code, out, _ = run_cli(capsys, "rsr-count", "--group", "S3", "--ram", "e:2")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 4
    assert doc["prime"] == 13
    assert doc["tool_version"]


def test_rsr_count_zero(capsys):
    code, out, _ = run_cli(capsys, "rsr-count", "--group", "S3", "--ram", "")
    assert code == 0
    assert json.loads(out)["count"] == 1


def test_byte_identical_output(capsys):
    _, out1, _ = run_cli(capsys, "rsr-enumerate", "--group", "S3",
                         "--ram", "e:2", "--seed", "5")
    _, out2, _ = run_cli(capsys, "rsr-enumerate", "--group", "S3",
                         "--ram", "e:2", "--seed", "5")
    assert out1 == out2


def test_input_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "group-info", "--group", "NOPE")
    assert code == 2
    assert "error" in err


def test_bad_ramification_exit_code(capsys):
    code, _, _ = run_cli(capsys, "rsr-count", "--group", "S3",
                         "--ram", "(0 9):1")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["hopf-verify", "--group", "S3", "--ram", "(0 1):1", "--type-index", "1",
     "--max-degree", "0"],
    ["bimodule-verify", "--group", "S3", "--ram", ""],
    ["yd-verify", "--group", "S3", "--ram", ""],
])
def test_no_check_passes_with_nothing_checked(capsys, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    checks = [c for res in json.loads(out)["results"] for r in res.values()
              for c in r.get("checks", [])]
    assert all(c["checked"] > 0 for c in checks), checks


def test_verification_failure_exit_code(capsys, monkeypatch):
    from quiverhopf.bimodule import Check, Report

    def fake_verify(m):
        return Report([Check("left-associativity", False, 1, "g=e arrow=a h=e")])

    monkeypatch.setattr(cli, "verify_bimodule", fake_verify)
    code, out, _ = run_cli(capsys, "bimodule-verify", "--group", "S3",
                           "--ram", "e:1", "--type-index", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    failing = doc["results"][0]["report"]["checks"][0]
    assert failing["name"] == "left-associativity"
    assert "witness" in failing


def test_bimodule_verify_ok(capsys):
    code, out, _ = run_cli(capsys, "bimodule-verify", "--group", "S3",
                           "--ram", "(0 1):1", "--type-index", "1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_yd_verify(capsys):
    code, out, _ = run_cli(capsys, "yd-verify", "--group", "S3",
                           "--ram", "(0 1):1")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_nichols_dims_ignores_the_environment(capsys, monkeypatch):
    # the output depends on argv and seed alone: NPRIMES, valid or not,
    # leaves stdout byte-identical, with the default of three primes
    argv = ("nichols-dims", "--group", "C2", "--ram", "(0 1):1",
            "--max-degree", "3", "--type-index", "1")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(plain)
    assert len(doc["primes"]) == 3
    assert doc["results"][0]["dims"] == [1, 1, 0, 0]
    for value in ("2", "0", "x"):
        monkeypatch.setenv("NPRIMES", value)
        assert run_cli(capsys, *argv) == (0, plain, "")


def test_hopf_dims(capsys):
    code, out, _ = run_cli(capsys, "hopf-dims", "--group", "C2",
                           "--ram", "(0 1):1", "--max-degree", "3",
                           "--type-index", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["dims"] == [2, 2, 0, 0]


def test_hopf_verify(capsys):
    code, out, _ = run_cli(capsys, "hopf-verify", "--group", "S3",
                           "--ram", "e:2", "--type-index", "3",
                           "--max-degree", "2", "--samples", "60")
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_rsr_iso_files(capsys, tmp_path):
    g = parse_group("S3")
    ram = parse_ramification(g, "e:2")
    a = make_rsr(g, ram, None, {0: (0, 1)})
    b = make_rsr(g, ram, None, {0: (1, 0)})
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.to_json()))
    pb.write_text(json.dumps(b.to_json()))
    code, out, _ = run_cli(capsys, "rsr-iso", str(pa), str(pb))
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, out, _ = run_cli(capsys, "rsr-iso", str(pa), str(pb),
                           "--mode", "search-aut")
    assert json.loads(out)["isomorphic"] is True


def test_rsr_iso_group_mismatch(capsys, tmp_path):
    g = parse_group("S3")
    c2 = parse_group("C2")
    a = make_rsr(g, parse_ramification(g, "e:2"), None, {0: (0, 1)})
    b = make_rsr(c2, parse_ramification(c2, ""), None, {})
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.to_json()))
    pb.write_text(json.dumps(b.to_json()))
    code, _, err = run_cli(capsys, "rsr-iso", str(pa), str(pb))
    assert code == 2 and "different groups" in err


def test_group_info_and_chartab(capsys):
    code, out, _ = run_cli(capsys, "group-info", "--group", "D4")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 8 and len(doc["classes"]) == 5
    code, out, _ = run_cli(capsys, "chartab", "--group", "S4")
    assert json.loads(out)["degrees"] == [1, 1, 2, 3, 3]


def test_chartab_of_the_trivial_group(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "C1")
    assert code == 0
    doc = {"classes": [{"rep": "e", "size": 1}], "degrees": [1], "p": 3, "prime": 3,
           "rows": [[1]], "seed": 0, "tool_version": __version__}
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_chartab_custom_prime(capsys):
    code, out, _ = run_cli(capsys, "chartab", "--group", "S3",
                           "--prime", "19")
    assert code == 0
    assert json.loads(out)["p"] == 19
    code, _, _ = run_cli(capsys, "chartab", "--group", "S3", "--prime", "7")
    assert code == 2


@pytest.mark.parametrize("prime", ["2000000011", "2305843009213693951"])
def test_prime_past_int64_products_is_an_input_error(capsys, prime):
    # 2000000011 passes the prime checks but overflows the int64 matmuls;
    # 2^61 - 1 is refused before a primality test by trial division
    code, out, err = run_cli(capsys, "chartab", "--group", "S3", "--prime", prime)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("prime", ["0", "1"])
def test_prime_below_two_is_refused(capsys, prime):
    code, out, err = run_cli(capsys, "chartab", "--group", "S3", "--prime", prime)
    assert code == 2 and out == ""
    assert err == f"error: {prime} is not prime\n"


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "rsr-enumerate", "--group", "S3",
                           "--ram", "e:2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "type_index,class,multiplicities"
    assert len(lines) == 5
    code, out, _ = run_cli(capsys, "chartab", "--group", "S3",
                           "--format", "csv")
    assert out.splitlines()[1].startswith("1,")


def test_csv_of_the_zero_ramification(capsys):
    # the one type of the zero ramification has no class and no multiplicities
    code, out, _ = run_cli(capsys, "rsr-enumerate", "--group", "S3", "--ram", "",
                           "--format", "csv")
    assert (code, out) == (0, "type_index,class,multiplicities\n0,,\n")


def test_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "group-info", "--group", "S3",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["order"] == 6


def test_out_into_a_missing_directory_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "group-info", "--group", "S3", "--out", str(target))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1


def test_rsr_count_past_the_ramification_cap_exits_2(capsys):
    # refused before the coin DP would allocate 10^12 + 1 counters
    code, out, err = run_cli(capsys, "rsr-count", "--group", "C2", "--ram", "e:1000000000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--group", "S3", "--seed", "7",
                           "--samples", "400")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert len(doc["sections"]) >= 3


def test_rsr_file_input(capsys, tmp_path):
    g = parse_group("S3")
    rsr = make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (1,)})
    path = tmp_path / "rsr.json"
    path.write_text(json.dumps(rsr.to_json()))
    code, out, _ = run_cli(capsys, "nichols-dims", "--rsr", str(path),
                           "--max-degree", "3", "--nprimes", "2")
    assert code == 0
    assert json.loads(out)["results"][0]["dims"] == [1, 3, 4, 3]


def test_missing_rsr_file(capsys):
    code, _, err = run_cli(capsys, "nichols-dims", "--rsr", "/nonexistent.json")
    assert code == 2 and "error" in err


@pytest.mark.parametrize("doc, message", [
    ({"u": [{"class": 9, "rep": "(0 1)"}], "rho": [{"class": 1, "irreps": [0]}]},
     "class index 9 out of range"),
    ({"rho": [{"class": 1, "irreps": [2]}]}, "character index 2 out of range"),
])
def test_rsr_file_indices_out_of_range_exit_2(capsys, tmp_path, doc, message):
    path = tmp_path / "rsr.json"
    path.write_text(json.dumps({"group": "S3", "prime": 13, **doc}))
    code, out, err = run_cli(capsys, "bimodule-verify", "--rsr", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_rsr_file_values_of_the_wrong_json_type_exit_2(capsys, tmp_path):
    # each of these was coerced once: 13.9 to 13, true to 1, "1" to 1 and
    # "10" to the characters 1 and 0
    path = tmp_path / "rsr.json"
    path.write_text(json.dumps({"group": "S3", "prime": 13.9, "seed": True,
                                "rho": [{"class": "1", "irreps": "10"}]}))
    code, out, err = run_cli(capsys, "yd-verify", "--rsr", str(path))
    assert (code, out, err) == (2, "", "error: prime must be int, not float\n")


def test_non_string_group_spec_is_named(capsys, tmp_path):
    g = parse_group("S3")
    doc = make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (1,)}).to_json()
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(doc))
    bad.write_text(json.dumps({**doc, "group": 5}))
    for argv in (("yd-verify", "--rsr", str(bad)), ("rsr-iso", str(good), str(bad))):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: group spec must be a string, not int\n")


def test_rsr_iso_prime_mismatch(capsys, tmp_path):
    g = parse_group("S3")
    ram = parse_ramification(g, "e:2")
    a = make_rsr(g, ram, None, {0: (0, 1)})
    doc_b = a.to_json()
    doc_b["prime"] = 19
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(a.to_json()))
    pb.write_text(json.dumps(doc_b))
    code, _, err = run_cli(capsys, "rsr-iso", str(pa), str(pb))
    assert code == 2 and "primes" in err


def test_bimodule_verify_from_rsr_file(capsys, tmp_path):
    g = parse_group("S3")
    rsr = make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (1,)})
    path = tmp_path / "rsr.json"
    path.write_text(json.dumps(rsr.to_json()))
    code, out, _ = run_cli(capsys, "bimodule-verify", "--rsr", str(path))
    assert code == 0
    assert json.loads(out)["passed"] is True


def test_explicit_exhaustive_flag(capsys):
    # bimodule-verify has one complete mode and no mode flags; selftest keeps
    # them for its hopf section
    argv = ("bimodule-verify", "--group", "S3", "--ram", "e:1", "--type-index", "0")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"][0]["report"]["mode"] == "exhaustive"
    for flag in ("--exhaustive", "--samples=5"):
        code, out, err = run_cli(capsys, *argv, flag)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag.split("=")[0] in err
    code, out, _ = run_cli(capsys, "selftest", "--group", "C2", "--exhaustive")
    assert code == 0
    assert {s["hopf"]["mode"] for s in json.loads(out)["sections"]} == {"exhaustive"}


def test_hopf_verify_honours_exhaustive_flag(capsys):
    # 2 + 14 + 98 = 114 basis paths: sampled by default
    code, out, _ = run_cli(capsys, "hopf-verify", "--group", "C2",
                           "--ram", "e:7", "--type-index", "0",
                           "--max-degree", "2", "--exhaustive")
    assert code == 0
    report = json.loads(out)["results"][0]["report"]
    assert report["mode"] == "exhaustive"
    checked = {c["name"]: c["checked"] for c in report["checks"]}
    # triples: 2^3 + 3*14*2^2 + 3*98*2^2 + 3*14^2*2; pairs: 2^2 + 2*14*2
    # + 2*98*2 + 14^2
    assert checked["associativity"] == 2528
    assert checked["coproduct-algebra-map"] == 648


def test_budget_error_exit_code(capsys):
    # degree 4 of the 12-dimensional module exceeds the Nichols cell budget
    # when degree 5 reads its bases
    for verb in ("hopf-dims", "nichols-dims"):
        code, out, err = run_cli(capsys, verb, "--group", "S4",
                                 "--ram", "(0 1):2", "--max-degree", "5",
                                 "--type-index", "0")
        assert code == 2 and out == ""
        assert err == "error: degree 4 needs 21033792 cells, over the cap of 16777216\n"


def test_top_degree_within_the_budget_by_classes(capsys):
    # as the last degree, degree 4 of the same module ranks one block of
    # each of its 3 classes of G-degrees, not all 12 blocks
    code, out, _ = run_cli(capsys, "nichols-dims", "--group", "S4", "--ram", "(0 1):2",
                           "--max-degree", "4", "--type-index", "0", "--nprimes", "1")
    assert code == 0
    assert json.loads(out)["results"][0]["dims"] == [1, 12, 118, 1116, 10341]


def test_type_index_builds_only_its_type(capsys):
    # C12 on "e:40" has 47,626,016,970 types: the index is checked against
    # their count and only type 0, forty copies of the trivial character, is
    # built, so the listing of all of them never starts
    argv = ("nichols-dims", "--group", "C12", "--ram", "e:40", "--max-degree", "1",
            "--nprimes", "1", "--type-index")
    code, out, _ = run_cli(capsys, *argv, "0")
    assert code == 0
    assert json.loads(out)["results"][0]["dims"] == [1, 40]
    code, out, err = run_cli(capsys, *argv, "47626016970")
    assert (code, out) == (2, "")
    assert err == "error: --type-index out of range (0..47626016969)\n"


def test_full_type_listing_over_the_cap_exits_2(capsys):
    # without --type-index both verbs list every type: C12 on "e:40" has
    # 47,626,016,970, counted and refused before any is listed
    for verb in ("rsr-enumerate", "nichols-dims"):
        code, out, err = run_cli(capsys, verb, "--group", "C12", "--ram", "e:40")
        assert (code, out) == (2, "")
        assert err == ("error: 47626016970 RSR types exceed the listing cap "
                       f"of {TYPE_CAP}\n")


def test_path_budget_exit_code(capsys, monkeypatch):
    # S3 "(0 1):1" to degree 2 has 6 + 18 + 54 = 78 paths: one over the cap
    # is an input error before any path is built, the cap itself passes
    argv = ("hopf-verify", "--group", "S3", "--ram", "(0 1):1",
            "--type-index", "1", "--max-degree", "2")
    monkeypatch.setattr(typeone, "PATH_CAP", 77)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: 78 paths up to degree 2 exceed the cap of 77\n"
    monkeypatch.setattr(typeone, "PATH_CAP", 78)
    assert run_cli(capsys, *argv)[0] == 0


def test_nprimes_must_be_positive(capsys):
    base = ("nichols-dims", "--group", "C2", "--ram", "(0 1):1",
            "--max-degree", "2")
    code, out, err = run_cli(capsys, *base, "--nprimes", "0")
    assert code == 2 and out == "" and "--nprimes" in err


@pytest.mark.parametrize("verb", ["nichols-dims", "hopf-dims", "hopf-verify"])
def test_negative_max_degree_exits_2(capsys, verb):
    code, out, err = run_cli(capsys, verb, "--group", "S3", "--ram", "(0 1):1",
                             "--type-index", "0", "--max-degree", "-1")
    assert (code, out, err) == (2, "", "error: max_deg must be non-negative\n")


def test_samples_must_be_positive(capsys):
    for argv in (("hopf-verify", "--group", "S3", "--ram", "e:1",
                  "--max-degree", "1"),
                 ("selftest", "--group", "C2")):
        code, out, err = run_cli(capsys, *argv, "--samples", "0")
        assert code == 2 and out == "" and "--samples" in err


def test_rsr_iso_rejects_non_object_files(capsys, tmp_path):
    g = parse_group("S3")
    a = make_rsr(g, parse_ramification(g, "e:2"), None, {0: (0, 1)})
    good, bad = tmp_path / "a.json", tmp_path / "list.json"
    good.write_text(json.dumps(a.to_json()))
    bad.write_text(json.dumps([a.to_json()]))
    for pair in ((bad, good), (good, bad)):
        code, out, err = run_cli(capsys, "rsr-iso", *map(str, pair))
        assert code == 2 and out == "" and "JSON object" in err
    bad.write_text("{}")            # an object without a group
    code, out, err = run_cli(capsys, "rsr-iso", str(good), str(bad))
    assert code == 2 and out == "" and err.startswith("error: ")


def test_rsr_iso_names_a_missing_group_key_in_either_file(capsys, tmp_path):
    g = parse_group("S3")
    good, bad = tmp_path / "a.json", tmp_path / "b.json"
    good.write_text(json.dumps(make_rsr(g, parse_ramification(g, "e:2"), None,
                                        {0: (0, 1)}).to_json()))
    bad.write_text(json.dumps({"prime": 13, "rho": []}))
    for pair in ((good, bad), (bad, good)):
        code, out, err = run_cli(capsys, "rsr-iso", *map(str, pair))
        assert (code, out, err) == (2, "", "error: malformed RSR document: 'group'\n")


def test_selftest_honours_samples_and_max_degree(capsys):
    # the hopf section runs at the --samples and --max-degree given
    code, out, _ = run_cli(capsys, "selftest", "--group", "S4", "--ram", "(0 1):1",
                           "--samples", "400")
    assert code == 0
    assert {s["hopf"]["mode"] for s in json.loads(out)["sections"]} == {"sampled(400)"}
    code, out, _ = run_cli(capsys, "selftest", "--group", "S3", "--ram", "(0 1):1",
                           "--max-degree", "3")
    assert code == 0
    # 6 * (1 + 3 + 9 + 27) basis paths up to degree 3
    units = [c["checked"] for s in json.loads(out)["sections"]
             for c in s["hopf"]["checks"] if c["name"] == "unit"]
    assert units == [240, 240]


def test_samples_has_one_default(capsys):
    for argv in (("hopf-verify", "--group", "S4", "--ram", "(0 1):1", "--type-index", "0",
                  "--max-degree", "2"),
                 ("selftest", "--group", "S4", "--ram", "(0 1):1")):
        assert cli.build_parser().parse_args(list(argv)).samples == 300


@pytest.mark.parametrize("argv", [
    ["group-info", "--group", "S3", "--bogus"],
    ["group-info", "--group", "S3", "--prime", "7"],
    ["chartab", "--group", "S3", "--seed", "x"],
    ["no-such-verb", "--group", "S3"],
    [],
])
def test_argparse_rejections_are_one_error_line(capsys, argv):
    # an unknown flag or verb, a flag the verb does not read and a value
    # that is not an integer return 2 with one error line, as any input error
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err


@pytest.mark.parametrize("argv", [
    ["rsr-count", "--group", "S3", "--ram", "(0 1)(1 0):1"],
    ["group-info", "--group", "perm:(0 1 2)(0 1 2)"],
])
def test_a_point_in_two_cycles_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "given twice" in lines[0]


@pytest.mark.parametrize("spec, message", [
    ("D2", "dihedral groups need n >= 3"),
    ("S0", "bad group size in 'S0'"),
    ("perm:;", "empty generator list"),
    ("B5", "unknown group name 'B5'"),
    ("", "empty group spec"),
    ("  ", "empty group spec"),
    *[(spec, f"empty factor in group spec {spec!r}")
      for spec in ("S3x", "xS3", "S3xxS3", "C2X", "X5")],
])
def test_malformed_group_specs_are_one_error_line(capsys, spec, message):
    # an empty product factor names the whole spec, not an empty name
    code, out, err = run_cli(capsys, "group-info", "--group", spec)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["group-info", "--help"])
    assert exc.value.code == 0 and "--group" in capsys.readouterr().out


def test_rsr_iso_search_aut_on_s7(capsys, tmp_path):
    # Aut S7 is past the automorphism budget; Aut S_n = Inn S_n (n != 6)
    # answers it, so the twisted and the canonical RSR are isomorphic
    g = parse_group("S7")
    rsr = make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (0,)})
    canonical, twisted = rsr.to_json(), rsr.to_json()
    twisted["u"] = [{"class": 1, "rep": "(1 2)"}]
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(canonical))
    pb.write_text(json.dumps(twisted))
    code, out, err = run_cli(capsys, "rsr-iso", str(pa), str(pb), "--mode", "search-aut")
    assert (code, err) == (0, "")
    assert json.loads(out)["isomorphic"] is True


def test_inner_only_is_unknown_past_the_budget_for_a7(capsys):
    # Aut A7 is past the automorphism budget, and A7 is no S_n, so
    # outer_representatives re-raises and rsr-count reports null
    code, out, err = run_cli(capsys, "rsr-count", "--group", "A7", "--ram", "e:1")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["count"] == 1 and doc["inner_only_assumed"] is None


def test_unnamed_sym7_is_inner_only_by_its_order(capsys, tmp_path):
    # S7 given by generators has no name; degree 7 and order 7! make it
    # Sym(7), so Aut = Inn answers both rsr-count and search-aut
    spec = "perm:(0 1);(0 1 2 3 4 5 6)"
    code, out, err = run_cli(capsys, "rsr-count", "--group", spec, "--ram", "e:1")
    assert (code, err) == (0, "")
    assert json.loads(out)["inner_only_assumed"] is True
    g = parse_group(spec)
    doc = make_rsr(g, parse_ramification(g, "(0 1):1"), None, {1: (0,)}).to_json()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    pa.write_text(json.dumps(doc))
    pb.write_text(json.dumps({**doc, "u": [{"class": 1, "rep": "(1 2)"}]}))
    code, out, err = run_cli(capsys, "rsr-iso", str(pa), str(pb), "--mode", "search-aut")
    assert (code, err) == (0, "")
    assert json.loads(out)["isomorphic"] is True


def test_one_parser_serves_every_call(capsys, monkeypatch, tmp_path):
    # every call of a sequence answers as on a parser of its own: --out then
    # stdout, csv then json, an argparse rejection then a valid argv
    report = tmp_path / "report.json"
    sequence = [
        ("group-info", "--group", "S3", "--out", str(report)),
        ("group-info", "--group", "S3"),
        ("chartab", "--group", "S3", "--format", "csv"),
        ("chartab", "--group", "S3"),
        ("group-info", "--group", "S3", "--bogus"),
        ("group-info", "--group", "S4"),
    ]

    def run_all():
        runs = []
        for argv in sequence:
            code, out, err = run_cli(capsys, *argv)
            runs.append((code, out, err, report.read_text() if report.exists() else None))
            report.unlink(missing_ok=True)
        return runs

    hits = cli._parser.cache_info().hits
    shared = run_all()
    assert cli._parser.cache_info().hits >= hits + len(sequence) - 1
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert run_all() == shared
    assert shared[0][1] == "" and shared[0][3] == shared[1][1]
    assert shared[4][0] == 2 and shared[4][2].startswith("error: ")
