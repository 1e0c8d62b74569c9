"""Fuzzing the command line: every argv either gets an answer or a refusal.

Random argv for `coset`, `field-info`, `minpoly`, `factor`, `code` and the
scan commands `verify`, `mindist`, `family` and `search` run through
`cli.main` in-process.  Integers come from the whole range, far past every limit,
with half the weight on the small values -3..24, and polynomial text from
a small alphabet, as raw strings and as sums of terms; at least half of
the scan commands' m draws lie below the table cap, where they answer.
`family` takes every name with an m-list of one to three integers, and
`search` an e-range of at most 201 exponents; `code` draws its m and e as
`verify` does, in a test of its own so that the other tests draw as before.  Each run must end with an
exit code in {0, 1, 2}, with no exception escaping `main`, within the
documented per-command budget of BUDGET_S seconds (README, exit codes).
`coset` refuses p >= 2^32 and p^m - 1 >= 2^64, polynomial text above
MAX_POLY_DEGREE is refused, and the scan commands refuse an m above the
table cap, all before any of that work starts.  The examples are
derandomized, so every run draws the same 300 per test and their cost
stays fixed.

Whole-group `search` (no `--e-range`) is not drawn here.  It answers for
m <= 10 (1.9-3.0 s at m = 10 in three runs on a 2-core host with Python
3.11.7) and refuses m = 11 and 12 (14.5-19.8 s and 141-163 s there) with
exit 2 before any scan; `tests/test_cli.py` checks that refusal.
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


def weighted(*branches):
    """Draw from (weight, strategy) branches in proportion to the weights;
    st.one_of collapses a repeated branch into one, so it cannot weight."""
    indices = [i for i, (weight, _) in enumerate(branches) for _ in range(weight)]
    return st.sampled_from(indices).flatmap(lambda i: branches[i][1])


SMALL_MIN, SMALL_MAX = -3, 24
integers = weighted(
    (2, st.integers(min_value=SMALL_MIN, max_value=SMALL_MAX)),
    (1, st.integers(min_value=-HUGE, max_value=HUGE)),
    (1, st.sampled_from([2**32 - 5, 2**32 + 15, 2**64, 10**18 + 3, 3 * 10**6])),
).map(str)
# coset needs a prime p to get past its first check
primes = st.one_of(st.sampled_from(["2", "3", "5", "7", str(2**32 - 5)]), integers)
# raw text, mostly refused by the parser, and well-formed sums of terms
# whose exponents are small or far past MAX_POLY_DEGREE
terms = st.tuples(
    st.sampled_from(["+", "-", "+2", "-2"]),
    weighted(
        (2, st.integers(min_value=0, max_value=40)),
        (1, st.integers(min_value=MAX_POLY_DEGREE + 1, max_value=HUGE)),
    ),
).map(lambda t: f"{t[0]}x^{t[1]}")
poly_text = st.one_of(
    st.text(alphabet="x^+-0123, ", max_size=10),
    st.lists(terms, min_size=1, max_size=4).map("".join),
)
# half the draws take each m, or a whole m-list, below the table cap
table_m = st.integers(min_value=1, max_value=12).map(str)
scan_m = st.one_of(table_m, integers)
m_lists = st.one_of(
    st.lists(table_m, min_size=1, max_size=3),
    st.lists(integers, min_size=1, max_size=3),
).map(",".join)
families = st.sampled_from(["open-problem", "concl-A", "concl-B", "concl-C"])
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
scan_argvs = st.one_of(
    st.tuples(st.sampled_from(["verify", "mindist"]), scan_m, integers).map(
        lambda t: [t[0], "--m", t[1], "--e", t[2]]
    ),
    st.tuples(families, m_lists).map(
        lambda t: ["family", "--name", t[0], "--m-list", t[1]]
    ),
    st.tuples(scan_m, integers, st.integers(min_value=0, max_value=200)).map(
        lambda t: ["search", "--m", t[0], f"--e-range={t[1]}..{int(t[1]) + t[2]}"]
    ),
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


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scan_argvs, formats)
def test_scan_commands_answer_or_refuse_within_budget(argv, fmt):
    start = time.perf_counter()
    code = run_main(argv + ["--format", fmt])
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 1, 2)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(scan_m, integers, formats)
def test_code_answers_or_refuses_within_budget(m, e, fmt):
    start = time.perf_counter()
    code = run_main(["code", "--m", m, "--e", e, "--format", fmt])
    assert time.perf_counter() - start < BUDGET_S
    assert code in (0, 1, 2)


def test_integers_draw_small_values_at_least_half_the_time():
    """The weights reach the draws.  Hypothesis never repeats an example,
    and a lone small integer has only 28 values, so the draws are counted
    in triples, as coset's argv takes them: 63% of them were small when
    this was written, against 47% from st.one_of(small, small, ...)."""
    drawn = []

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.tuples(integers, integers, integers))
    def draw(values):
        drawn.extend(map(int, values))

    draw()
    small = sum(SMALL_MIN <= value <= SMALL_MAX for value in drawn)
    assert small >= len(drawn) / 2
