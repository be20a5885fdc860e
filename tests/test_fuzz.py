"""Front-end fuzzing: on any text the parsers raise only SyntaxError_, and
`relmeta typecheck` on a fuzzed `.term` file exits 0, 1 or 3 with one
error line and no traceback."""

import contextlib
import io
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import golden_sig_path
from relmeta import cli
from relmeta.signatures import load_signature
from relmeta.syntax import (CALCULI, SyntaxError_, parse_context, parse_term,
                            parse_type)

# derandomized and bounded, so the suite runs the same examples in about
# the same time on every run
FUZZ = settings(max_examples=100, deadline=None, derandomize=True,
                database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

SIGS = {c: load_signature(Path(golden_sig_path(c)).read_text())
        for c in CALCULI}

# the surface syntax's tokens, names the signatures declare, and a few
# tokens of other kinds
TOKENS = ["do", "in", "let", "lam", "lamarrow", "app", "ret", "pi1", "pi2",
          "derelict", "merge", "unmerge", "regrade", "J", "K", "R", "T", "gr",
          "I", "<-", "->", "-o", "~>", "=>", ">=", "(", ")", ",", ".", ":",
          ";", "<", ">", "*", "=", "[", "]", "{", "}", "x", "y", "a", "f",
          "A", "B", "C", "1", "2", "3", "4", "0", "T_2", "T_1", "coin", "not",
          "pair2", "and2", "pick", "-", "#", "\n", "()", "λ", "\x00"]
token_text = st.lists(st.sampled_from(TOKENS), max_size=25).map(" ".join)
text = st.one_of(st.text(max_size=40), token_text)


@FUZZ
@given(text, st.sampled_from(CALCULI))
def test_parsers_raise_only_syntax_errors(src, calculus):
    sig = SIGS[calculus]
    for parse in (lambda: parse_term(src, calculus, sig),
                  lambda: parse_type(src, sig),
                  lambda: parse_context(src, sig)):
        try:
            parse()
        except SyntaxError_:
            pass


KEYS = ["calculus", "form", "ctx", "lctx", "dctx", "pctx", "term", "type"]
line = st.one_of(
    st.tuples(st.sampled_from(KEYS), text).map(" ".join),
    st.tuples(st.just("calculus"),
              st.sampled_from([*CALCULI, "foo", ""])).map(" ".join),
    st.tuples(st.just("form"),
              st.sampled_from(["A", "C", "term", "command", "B", ""]))
    .map(" ".join),
    text)


@FUZZ
@given(st.one_of(st.lists(line, max_size=8)
                 .map(lambda ls: ("\n".join(ls) + "\n").encode()),
                 st.binary(max_size=60)),
       st.sampled_from(CALCULI))
def test_typecheck_cli_exits_cleanly(tmp_path, data, calculus):
    path = tmp_path / "fuzz.term"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["typecheck", "--sig", golden_sig_path(calculus),
                         str(path)])
    assert code in (0, 1, 3), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1
