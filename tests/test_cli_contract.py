"""The CLI contract on generated argvs: exit 0, 1 or 2, no exception out of
`cli.main`, and stderr either empty or one `error:` line.

Options are passed as `--flag=value`, so a generated value that starts with
a dash still reaches the program instead of argparse.  Groups have order at
most 24, and at most 12 for `selftest`, which runs every verifier; degrees
stay at most 4, and at most 1 for `selftest`, which keeps every example
cheap.  RSR documents (`--rsr`, `rsr-iso`) are the files of the golden
corpus and malformed ones written to a temporary directory.  The example
set is derandomized so that the suite runs the same argvs each time.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quiverhopf import cli

NAMED = ["S1", "S2", "S3", "S4", "A3", "A4", "C1", "C2", "C4", "C6", "D3",
         "D4", "D6", "Q8", "C2xC2", "S3xC2", "C2xC3"]
SMALL = [name for name in NAMED if name != "S4"]        # order at most 12
CYCLES = ["e", "(0 1)", "(1 3)", "(0 1 2)", "(0 1)(2 3)", "(0 1 2 3)"]
# garbage: text over an alphabet that reaches the parsers' branches
JUNK = st.text(alphabet="SACDQxXpermi:;,()e 0123456789-", max_size=12)

GOLDEN = pathlib.Path(__file__).parent / "golden"
S3_DOC = json.loads((GOLDEN / "s3_canonical.json").read_text(encoding="utf-8"))
MALFORMED = {
    "not-json.json": "{\"group\": ",
    "list.json": json.dumps([S3_DOC]),
    "no-group.json": json.dumps({k: v for k, v in S3_DOC.items() if k != "group"}),
    "class-twice.json": json.dumps({**S3_DOC, "rho": S3_DOC["rho"] * 2}),
}
DOCS = sorted(f.name for f in GOLDEN.glob("*.json")) + sorted(MALFORMED)

# valid values come first, so that most examples get past the parsers
groups = st.one_of(
    st.sampled_from(NAMED),
    st.lists(st.sampled_from(CYCLES), min_size=1, max_size=2)
    .map(lambda gens: "perm:" + ";".join(gens)),
    JUNK,
    st.text(max_size=8),
)
rams = st.one_of(
    st.lists(st.tuples(st.sampled_from(CYCLES[:4]), st.integers(0, 2)), max_size=2)
    .map(lambda parts: ",".join(f"{rep}:{n}" for rep, n in parts)),
    st.lists(st.tuples(st.sampled_from(CYCLES), st.integers(-1, 2)), max_size=2)
    .map(lambda parts: ",".join(f"{rep}:{n}" for rep, n in parts)),
    JUNK,
)
small = st.one_of(st.integers(0, 1), st.integers(-1, 4))
samples = st.one_of(st.integers(1, 60), st.integers(-1, 0))
docs = st.sampled_from(DOCS).map(lambda name: "{docs}/" + name)


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory) -> str:
    """The directory `{docs}` of the argvs: the golden corpus's JSON files
    and the malformed documents."""
    d = tmp_path_factory.mktemp("rsr")
    for f in GOLDEN.glob("*.json"):
        (d / f.name).write_bytes(f.read_bytes())
    for name, text in MALFORMED.items():
        (d / name).write_text(text, encoding="utf-8")
    return str(d)


@st.composite
def argvs(draw) -> list[str]:
    verb = draw(st.sampled_from(["group-info", "chartab", "rsr-count",
                                 "rsr-enumerate", "rsr-iso", "bimodule-verify",
                                 "yd-verify", "nichols-dims", "hopf-verify",
                                 "hopf-dims", "selftest"]))
    if verb == "rsr-iso":
        return [verb, draw(docs), draw(docs),
                f"--mode={draw(st.sampled_from(['assume-inner', 'search-aut']))}"]
    if verb in ("bimodule-verify", "yd-verify", "hopf-verify") and draw(st.booleans()):
        argv = [verb, f"--rsr={draw(docs)}"]
    else:
        group = draw(st.one_of(st.sampled_from(SMALL), JUNK) if verb == "selftest"
                     else groups)
        argv = [verb, f"--group={group}"]
        if verb not in ("group-info", "chartab"):
            argv.append(f"--ram={draw(rams)}")
        if verb not in ("group-info", "chartab", "rsr-count", "rsr-enumerate",
                        "selftest"):
            argv.append(f"--type-index={draw(small)}")
    if verb in ("hopf-verify", "selftest"):
        argv.append(f"--samples={draw(samples)}")
        if draw(st.booleans()):
            argv.append("--exhaustive")
    if verb == "selftest":
        argv.append(f"--max-degree={draw(st.integers(-1, 1))}")
    elif verb == "hopf-verify":
        # paths up to degree N number |G| * sum_k arrows^k: keep N <= 2
        argv.append(f"--max-degree={draw(st.integers(-1, 2))}")
    elif verb in ("nichols-dims", "hopf-dims"):
        argv.append(f"--max-degree={draw(small)}")
    if verb == "nichols-dims":
        argv.append("--nprimes=1")
    return argv


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["nichols-dims", "--group=S4", "--ram=(0 1):1", "--type-index=0",
               "--max-degree=6", "--nprimes=1"])
@example(argv=["hopf-verify", "--group=S4", "--ram=(0 1):2", "--type-index=0",
               "--max-degree=7"])
@example(argv=["group-info", "--group=X"])
@example(argv=["selftest", "--group=D4", "--samples=20", "--max-degree=1"])
@example(argv=["hopf-verify", "--rsr={docs}/d4_twisted.json", "--max-degree=2"])
@example(argv=["bimodule-verify", "--rsr={docs}/class-twice.json"])
@example(argv=["rsr-iso", "{docs}/q8_a.json", "{docs}/q8_b.json",
               "--mode=search-aut"])
@example(argv=["rsr-iso", "{docs}/s3_twisted.json", "{docs}/not-json.json"])
def test_cli_contract(argv, doc_dir):
    argv = [a.replace("{docs}", doc_dir) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, code)
    lines = err.getvalue().splitlines()
    assert lines == [] or (len(lines) == 1 and lines[0].startswith("error: ")), \
        (argv, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
    else:
        json.loads(out.getvalue())
