"""CLI fuzz: malformed sizes, specs and flags end in exit code 0, 2 or 3.

Each example runs cli.main in-process; argparse rejections (SystemExit 2)
count as exit code 2.  Any other exception escaping main fails the test.
Valid sizes stay small so that the drawn requests finish quickly.  The one
exit code 4 allowed is analyze or search at n = 6, where eight functions
break the strict below-n bound by design.
"""

import io
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symfai.cli import main

FUZZ = settings(derandomize=True, max_examples=30, deadline=None, database=None)

JUNK = st.sampled_from(
    ["", " ", "x", "1.5", "1e3", "0x10", "-", "--", "nan", "inf", "-1", "0", "\u0663", "\x00", "9" * 20]
)
TEXT = st.text(alphabet="0123456789abcdefghijklmnopqrstuvwxyz:.-+_ ", max_size=8)


def numbers(valid):
    """An integer flag value: a drawn valid integer, junk, or arbitrary short text."""
    return st.one_of(valid.map(str), JUNK, TEXT)


SPECS = st.one_of(
    st.text(alphabet="01", min_size=1, max_size=12),
    st.sampled_from(["", "v:", "v:2", "v:0101", "sigma:", "sigma:-1", "sigma:2", "sigma:99", "majority"]),
    st.builds("v:{}".format, st.text(alphabet="01", max_size=12)),
    TEXT,
)
FORMATS = st.sampled_from(["json", "pretty", "csv", "xml", ""])
OUT = ("--out", st.just(os.path.join(os.devnull, "out")))  # not a directory: the write fails


def well_formed(sizes):
    """A valid size and a spec that parses on it, so the flags reach the handlers."""

    def specs(n):
        bits = st.text(alphabet="01", min_size=n + 1, max_size=n + 1)
        return st.one_of(bits, bits.map("v:{}".format), st.sampled_from([f"sigma:{n // 2}", "majority"]))

    return sizes.flatmap(lambda n: st.tuples(st.just(str(n)), specs(n)))


def requests(sizes, flags, spec=True):
    """(n, spec or None, extra argv): malformed or well-formed sizes and specs plus drawn flags."""
    if spec:
        head = st.one_of(st.tuples(numbers(sizes), SPECS), well_formed(sizes.filter(lambda n: 0 < n <= 40)))
    else:
        head = st.tuples(numbers(sizes), st.none())
    chosen = st.lists(st.one_of(*(st.tuples(st.just(flag), value) for flag, value in flags)), max_size=3)
    extra = chosen.map(lambda pairs: [token for pair in pairs for token in pair])
    return st.tuples(head, extra).map(lambda r: (*r[0], r[1]))


COMMON = [("--format", FORMATS), OUT]
SMALL = st.integers(-3, 40)

REQUESTS = {
    "analyze": requests(st.one_of(st.integers(-3, 10), st.sampled_from([15, 65537])), COMMON),
    "attack": requests(SMALL, [*COMMON, ("--e", numbers(st.integers(-2, 8))), ("--k", numbers(st.integers(-2, 8)))]),
    "convert": requests(SMALL, [OUT]),
    "search": requests(
        st.one_of(st.integers(-3, 6), st.sampled_from([15, 65537])),
        [*COMMON, ("--budget-seconds", st.sampled_from(["nan", "inf", "-1", "0", "x", "1e-9"]))],
        spec=False,
    ),
    "stat": requests(
        st.one_of(SMALL, st.sampled_from([65536, 65537])),
        [*COMMON, ("--samples", numbers(st.integers(-3, 3))), ("--seed", numbers(st.integers(-3, 3)))],
        spec=False,
    ),
}


def exit_code(argv) -> int:
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse rejects the request
            return exc.code


@pytest.mark.parametrize("command", sorted(REQUESTS))
def test_fuzzed_requests_exit_cleanly(command):
    @FUZZ
    @given(REQUESTS[command])
    def check(request):
        n, spec, extra = request
        argv = [command, "--n", n, *(["--f", spec] if spec is not None else []), *extra]
        code = exit_code(argv)
        if code == 4:
            assert command in ("analyze", "search") and int(n) == 6, argv
        else:
            assert code in (0, 2, 3), argv

    check()
