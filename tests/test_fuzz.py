"""Front-end fuzzing: on any text the parsers raise only SyntaxError_, and
the CLI on a fuzzed `.term`, `.sig`, `.mb`, `.inst` or proof file exits
0, 1, 2 or 3 with one error line and no traceback."""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import GOLDEN, fixture_path, golden_sig_path
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


def _run_cli(args):
    """Exit code and stderr of the CLI on args; the error is one line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    assert "Traceback" not in err.getvalue()
    if code == 3:
        assert err.getvalue().startswith("error: ")
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code, err.getvalue()


def _file(lines):
    """Files of fuzzed lines, and files of raw bytes."""
    return st.one_of(st.lists(lines, max_size=8)
                     .map(lambda ls: ("\n".join(ls) + "\n").encode()),
                     st.binary(max_size=60))


@FUZZ
@given(_file(line), st.sampled_from(CALCULI))
def test_typecheck_cli_exits_cleanly(tmp_path, data, calculus):
    path = tmp_path / "fuzz.term"
    path.write_bytes(data)
    code, err = _run_cli(["typecheck", "--sig", golden_sig_path(calculus),
                          str(path)])
    assert code in (0, 1, 3), err


COIN, STONE1 = fixture_path("coin.sig"), fixture_path("stone1.eq")
# each input format: its line heads, and the command that reads a file of
# it at a path
FORMATS = {
    "sig": (["calculus", "object", "gen", "rel", "wordcap", "grading",
             "grading builtin", "grading object", "grading unit",
             "grading tensor", "op", "axiom"],
            lambda path: ["eq", "--theory", path, STONE1]),
    "mb": (["calculus", "backend", "carrier", "interp", "opinterp"],
           lambda path: ["eval", "--sig", COIN, "--model", path,
                         str(GOLDEN / "eval" / "dist_pair.term")]),
    "inst": (["builtin", "objects", "aobj", "unitobj", "hom", "comp", "id",
              "tensor", "tensormor", "jmap", "tmap", "eta", "ext"],
             lambda path: ["lawcheck", path]),
    "proof": (["ax1", "ax2", "do.assoc", "do.beta", "at", "root", "with",
               "lr", "rl", "fwd", "bwd"],
              lambda path: ["prove", "--theory", COIN,
                            str(GOLDEN / "prove" / "valley.eq"), path]),
}


@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_input_file_cli_exits_cleanly(tmp_path, kind):
    heads, args = FORMATS[kind]
    entry = st.tuples(st.sampled_from(heads), text,
                      st.sampled_from(["", " = "]), text).map(" ".join)

    @FUZZ
    @given(_file(st.one_of(entry, text)))
    def run(data):
        path = tmp_path / f"fuzz.{kind}"
        path.write_bytes(data)
        code, err = _run_cli(args(str(path)))
        assert code in (0, 1, 2, 3), err

    run()
