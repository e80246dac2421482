"""Golden CLI corpus: the stdout and exit code of fixed argvs, byte for byte.

Each case runs `quiverhopf.cli.main` in-process.  The expected stdout of
case NAME is `tests/golden/NAME.out`; the exit codes are in
`tests/golden/exit_codes.json`.  `{golden}` in an argv stands for the
directory holding the RSR input files.  After an intended change of
output, regenerate the corpus with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys

import pytest

from quiverhopf import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

S4_RAM = "(0 1):1,(0 1 2):2"
PERM = "perm:(0 1 2)(3 4);(0 1)"

CASES: dict[str, list[str]] = {
    "group_info_s3": ["group-info", "--group", "S3"],
    "group_info_s4_csv": ["group-info", "--group", "S4", "--format", "csv"],
    "group_info_d4": ["group-info", "--group", "D4"],
    "group_info_q8_csv": ["group-info", "--group", "Q8", "--format", "csv"],
    "group_info_a4": ["group-info", "--group", "A4"],
    "group_info_s3xc2_csv": ["group-info", "--group", "S3xC2", "--format", "csv"],
    "group_info_perm": ["group-info", "--group", PERM],
    "chartab_s3_csv": ["chartab", "--group", "S3", "--format", "csv"],
    "chartab_s4": ["chartab", "--group", "S4"],
    "chartab_d4_csv": ["chartab", "--group", "D4", "--format", "csv"],
    "chartab_q8": ["chartab", "--group", "Q8", "--prime", "41"],
    "chartab_a4_csv": ["chartab", "--group", "A4", "--format", "csv"],
    "chartab_s3xc2": ["chartab", "--group", "S3xC2"],
    "chartab_perm_csv": ["chartab", "--group", PERM, "--format", "csv"],
    "rsr_count_s3": ["rsr-count", "--group", "S3", "--ram", "e:2"],
    "rsr_count_s4_csv": ["rsr-count", "--group", "S4", "--ram", S4_RAM,
                         "--format", "csv"],
    "rsr_count_d4": ["rsr-count", "--group", "D4", "--ram", "e:1"],
    "rsr_count_q8_csv": ["rsr-count", "--group", "Q8", "--ram",
                         "(0 1)(2 3)(4 5)(6 7):2", "--format", "csv"],
    "rsr_enumerate_s3_csv": ["rsr-enumerate", "--group", "S3", "--ram", "e:2",
                             "--format", "csv"],
    "rsr_enumerate_a4": ["rsr-enumerate", "--group", "A4", "--ram",
                         "(0 1)(2 3):1"],
    "rsr_enumerate_s3xc2": ["rsr-enumerate", "--group", "S3xC2", "--ram",
                            "(0 1):1,(3 4):1"],
    "rsr_enumerate_perm_csv": ["rsr-enumerate", "--group", PERM, "--ram",
                               "(0 1 2):2", "--format", "csv"],
    "rsr_iso_s3": ["rsr-iso", "{golden}/s3_twisted.json",
                   "{golden}/s3_canonical.json"],
    "rsr_iso_d4_search": ["rsr-iso", "{golden}/d4_twisted.json",
                          "{golden}/d4_canonical.json", "--mode", "search-aut"],
    "rsr_iso_q8_search_csv": ["rsr-iso", "{golden}/q8_a.json",
                              "{golden}/q8_b.json", "--mode", "search-aut",
                              "--format", "csv"],
    "bimodule_verify_s3_exhaustive": ["bimodule-verify", "--group", "S3",
                                      "--ram", "(0 1):1", "--exhaustive"],
    "bimodule_verify_d4_rsr": ["bimodule-verify", "--rsr",
                               "{golden}/d4_twisted.json"],
    "bimodule_verify_s4": ["bimodule-verify", "--group", "S4", "--ram",
                           "(0 1 2):1", "--type-index", "1"],
    "bimodule_verify_s6_samples": ["bimodule-verify", "--group", "S6", "--ram",
                                   "(0 1):1", "--type-index", "0",
                                   "--samples", "40", "--seed", "3"],
    "yd_verify_s3": ["yd-verify", "--group", "S3", "--ram", "(0 1):1"],
    "yd_verify_d4": ["yd-verify", "--group", "D4", "--ram", "(0 2):1"],
    "yd_verify_perm": ["yd-verify", "--group", PERM, "--ram", "(0 1 2):1"],
    "nichols_dims_s3": ["nichols-dims", "--group", "S3", "--ram", "(0 1):1",
                        "--type-index", "1", "--max-degree", "5"],
    "nichols_dims_s4": ["nichols-dims", "--group", "S4", "--ram", "(0 1):1",
                        "--type-index", "1", "--max-degree", "4",
                        "--nprimes", "1"],
    "nichols_dims_q8": ["nichols-dims", "--group", "Q8", "--ram",
                        "(0 1)(2 3)(4 5)(6 7):1", "--max-degree", "3"],
    "hopf_verify_s3": ["hopf-verify", "--group", "S3", "--ram", "(0 1):1",
                       "--max-degree", "2"],
    "hopf_verify_s4_sampled": ["hopf-verify", "--group", "S4", "--ram",
                               "(0 1):1", "--type-index", "0",
                               "--max-degree", "1", "--samples", "50"],
    "hopf_dims_s3_csv": ["hopf-dims", "--group", "S3", "--ram", "(0 1 2):1",
                         "--max-degree", "3", "--format", "csv"],
    "hopf_dims_a4": ["hopf-dims", "--group", "A4", "--ram", "(0 1)(2 3):1",
                     "--type-index", "0", "--max-degree", "3"],
    "selftest_s3": ["selftest", "--group", "S3", "--seed", "7"],
    "selftest_d4": ["selftest", "--group", "D4", "--ram", "(0 2):1",
                    "--samples", "100"],
    "error_unknown_group": ["group-info", "--group", "NOPE"],
    "error_budget": ["nichols-dims", "--group", "S4", "--ram", "(0 1):2",
                     "--type-index", "0", "--max-degree", "3"],
}


def run_case(name: str) -> tuple[int, str]:
    argv = [a.replace("{golden}", str(GOLDEN)) for a in CASES[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _exit_codes() -> dict:
    return json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_cli(name):
    code, out = run_case(name)
    assert code == _exit_codes()[name]
    assert out == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")


def test_corpus_covers_every_verb():
    verbs = {argv[0] for argv in CASES.values()}
    assert verbs == set(cli.build_parser()._subparsers._group_actions[0].choices)


if __name__ == "__main__":
    codes = {}
    for case in sorted(CASES):
        codes[case], text = run_case(case)
        (GOLDEN / f"{case}.out").write_text(text, encoding="utf-8")
    (GOLDEN / "exit_codes.json").write_text(
        json.dumps(codes, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    sys.exit(0)
