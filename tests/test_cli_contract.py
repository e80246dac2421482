"""The CLI contract on generated argvs: exit 0, 1 or 2, no exception out of
`cli.main`, and stderr either empty or one `error:` line.

Options are passed as `--flag=value`, so a generated value that starts with
a dash still reaches the program instead of argparse.  Groups have order at
most 24 and degrees stay at most 4, which keeps every example cheap; the
example set is derandomized so that the suite runs the same argvs each time.
"""

from __future__ import annotations

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from quiverhopf import cli

NAMED = ["S1", "S2", "S3", "S4", "A3", "A4", "C1", "C2", "C4", "C6", "D3",
         "D4", "D6", "Q8", "C2xC2", "S3xC2", "C2xC3"]
CYCLES = ["e", "(0 1)", "(1 3)", "(0 1 2)", "(0 1)(2 3)", "(0 1 2 3)"]
# garbage: text over an alphabet that reaches the parsers' branches
JUNK = st.text(alphabet="SACDQxXpermi:;,()e 0123456789-", max_size=12)

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


@st.composite
def argvs(draw) -> list[str]:
    verb = draw(st.sampled_from(["group-info", "chartab", "rsr-count",
                                 "rsr-enumerate", "bimodule-verify", "yd-verify",
                                 "nichols-dims", "hopf-verify", "hopf-dims"]))
    argv = [verb, f"--group={draw(groups)}"]
    if verb not in ("group-info", "chartab"):
        argv.append(f"--ram={draw(rams)}")
    if verb not in ("group-info", "chartab", "rsr-count", "rsr-enumerate"):
        argv.append(f"--type-index={draw(small)}")
    if verb in ("bimodule-verify", "hopf-verify"):
        argv.append(f"--samples={draw(small)}")
    if verb == "hopf-verify":
        # paths up to degree N number |G| * sum_k arrows^k: keep N <= 2
        argv.append(f"--max-degree={draw(st.integers(-1, 2))}")
    elif verb in ("nichols-dims", "hopf-dims"):
        argv.append(f"--max-degree={draw(small)}")
    if verb == "nichols-dims":
        argv.append("--nprimes=1")
    return argv


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argv=argvs())
@example(argv=["nichols-dims", "--group=S4", "--ram=(0 1):1", "--type-index=0",
               "--max-degree=6", "--nprimes=1"])
@example(argv=["group-info", "--group=X"])
def test_cli_contract(argv):
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
