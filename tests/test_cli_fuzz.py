"""Fuzzing the command line: every argv either gets an answer or a refusal.

Random argv for `coset`, `field-info`, `minpoly` and `factor` run through
`cli.main` in-process.  Integers come from the whole range, far past every
limit, and polynomial text from a small alphabet, as raw strings and as
sums of terms.  Each run must end with an exit code in {0, 1, 2}, with no
exception escaping `main`, within the documented per-command budget of
BUDGET_S seconds (README, exit codes).  `coset` refuses p >= 2^32 and
p^m - 1 >= 2^64, and polynomial text above MAX_POLY_DEGREE is refused,
before any of that work starts.  The examples are derandomized, so every
run draws the same 300 and the test's cost stays fixed.

`search` is out of scope: it is accepted for every m <= 12 and has no
budget yet (it can run for hours at m = 12).
"""

import contextlib
import io
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from cyc3.cli import main
from cyc3.gf3poly import MAX_POLY_DEGREE

BUDGET_S = 20

HUGE = 10**30
small = st.integers(min_value=-3, max_value=24)
integers = st.one_of(
    small,
    small,
    st.integers(min_value=-HUGE, max_value=HUGE),
    st.sampled_from([2**32 - 5, 2**32 + 15, 2**64, 10**18 + 3, 3 * 10**6]),
).map(str)
# coset needs a prime p to get past its first check
primes = st.one_of(st.sampled_from(["2", "3", "5", "7", str(2**32 - 5)]), integers)
# raw text, mostly refused by the parser, and well-formed sums of terms
# whose exponents are small or far past MAX_POLY_DEGREE
terms = st.tuples(
    st.sampled_from(["+", "-", "+2", "-2"]),
    st.one_of(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=MAX_POLY_DEGREE + 1, max_value=HUGE),
    ),
).map(lambda t: f"{t[0]}x^{t[1]}")
poly_text = st.one_of(
    st.text(alphabet="x^+-0123, ", max_size=10),
    st.lists(terms, min_size=1, max_size=4).map("".join),
)
formats = st.sampled_from(["text", "json"])

argvs = st.one_of(
    st.tuples(primes, integers, integers).map(
        lambda t: ["coset", "--p", t[0], "--m", t[1], "--j", t[2]]
    ),
    integers.map(lambda m: ["field-info", "--m", m]),
    st.tuples(integers, integers).map(
        lambda t: ["minpoly", "--m", t[0], "--i", t[1]]
    ),
    poly_text.map(lambda text: ["factor", f"--poly={text}"]),
)


def run_main(argv: list[str]) -> int:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse's usage errors
            return exc.code


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argvs, formats)
def test_cli_answers_or_refuses_within_budget(argv, fmt):
    start = time.perf_counter()
    code = run_main(argv + ["--format", fmt])
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 1, 2)
