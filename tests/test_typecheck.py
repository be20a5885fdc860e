"""Judgement checking: one golden test per typing rule of every calculus,
the zone disciplines, and the checkable metatheory (substitution,
exchange, weakening)."""

import random
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import accepted_golden_judgements, fixture_text
from relmeta import gen as genmod
from relmeta import syntax, typecheck
from relmeta.signatures import load_signature
from relmeta.syntax import (bsubst, close_binder, judgement, parse_context,
                            parse_term, parse_type)
from relmeta.typecheck import (check, replay, serialize_derivation,
                               split_linear, LinearityError)

ARMM_SIG = "calculus armm\nobject B\nobject C\n"
LNL_SIG = "calculus lnl\nobject A\nobject B\ngrading builtin mult\n"

# (name, calculus, sig text or None(coin), form, zones, term, type, accept)
GOLDEN = [
    # -- unary calculus --------------------------------------------------
    ("urmm/var", "urmm", None, "A", ["x : J(2)"], "x", "J(2)", True),
    ("urmm/gen", "urmm", None, "A", ["x : J(2)"], "not x", "J(2)", True),
    ("urmm/ret", "urmm", None, "A", ["x : J(2)"], "ret x", "T(2)", True),
    ("urmm/do", "urmm", None, "A", ["x : T(2)"],
     "do y <- x in ret not y", "T(2)", True),
    ("urmm/do-body-unary", "urmm", None, "A", ["x : J(2)"],
     "do y <- ret x in ret x", "T(2)", False),  # x not in the unary body
    # -- core metalanguage -----------------------------------------------
    ("rmm/var", "rmm", None, "A", ["x : J(2)"], "x", "J(2)", True),
    ("rmm/unit", "rmm", None, "A", [""], "()", "1", True),
    ("rmm/pair", "rmm", None, "A", ["x : J(2)"], "(x, ret x)",
     "J(2) * T(2)", True),
    ("rmm/pi1", "rmm", None, "A", ["p : J(2) * T(2)"], "pi1 p", "J(2)", True),
    ("rmm/pi2", "rmm", None, "A", ["p : J(2) * T(2)"], "pi2 p", "T(2)", True),
    ("rmm/gen", "rmm", None, "A", ["x : J(2)"], "not x", "J(2)", True),
    ("rmm/ret", "rmm", None, "A", ["x : J(2)"], "ret x", "T(2)", True),
    ("rmm/do", "rmm", None, "A", [""],
     "do x <- coin in ret ()", "T(1)", True),
    ("rmm/op", "rmm", None, "A", ["x : J(2)"], "and2(x, not x)", "J(2)",
     True),
    ("rmm/gen-endpoint", "rmm", None, "A", ["x : J(4)"], "not x", "J(2)",
     False),
    ("rmm/ret-nonj", "rmm", None, "A", [""], "ret coin", "T(2)", False),
    # -- graded metalanguage ----------------------------------------------
    ("gmm/var", "gmm", "gmm", "A", ["x : A"], "x", "A", True),
    ("gmm/unit", "gmm", "gmm", "A", [""], "()", "1", True),
    ("gmm/pair", "gmm", "gmm", "A", ["x : A", ], "(x, x)", "A * A", True),
    ("gmm/pi1", "gmm", "gmm", "A", ["p : A * B"], "pi1 p", "A", True),
    ("gmm/pi2", "gmm", "gmm", "A", ["p : A * B"], "pi2 p", "B", True),
    ("gmm/ret-unit-grade", "gmm", "gmm", "A", ["x : A"], "ret x", "T_1(A)",
     True),
    ("gmm/do-tensors-grades", "gmm", "gmm", "A",
     ["u : T_2(A), v : T_3(B)"], "do x <- u in v", "T_6(B)", True),
    ("gmm/regrade", "gmm", "gmm", "A", ["u : T_3(A)"],
     "regrade<5>=3> u", "T_5(A)", True),
    ("gmm/regrade-bad", "gmm", "gmm", "A", ["u : T_3(A)"],
     "regrade<2>=3> u", "T_2(A)", False),
    ("gmm/ret-wrong-grade", "gmm", "gmm", "A", ["x : A"], "ret x", "T_2(A)",
     False),
    # -- linear-non-linear -------------------------------------------------
    ("lnl/a-var", "lnl", "lnl", "A", ["a : A"], "a", "A", True),
    ("lnl/a-unit", "lnl", "lnl", "A", [""], "()", "1", True),
    ("lnl/a-pair", "lnl", "lnl", "A", ["a : A"], "(a, a)", "A * A", True),
    ("lnl/a-proj", "lnl", "lnl", "A", ["p : A * B"], "(pi2 p, pi1 p)",
     "B * A", True),
    ("lnl/a-lam", "lnl", "lnl", "A", [""], "lam (a:A). a", "A -> A", True),
    ("lnl/a-app", "lnl", "lnl", "A", ["f : A -> B, a : A"], "app f a", "B",
     True),
    ("lnl/c-var", "lnl", "lnl", "C", ["", "x : J(A)"], "x", "J(A)", True),
    ("lnl/c-unit", "lnl", "lnl", "C", ["", ""], "()", "I", True),
    ("lnl/c-tensor", "lnl", "lnl", "C", ["", "x : J(A), y : J(B)"],
     "(x, y)", "J(A) * J(B)", True),
    ("lnl/c-letunit", "lnl", "lnl", "C", ["", "u : I, x : J(A)"],
     "let () = u in x", "J(A)", True),
    ("lnl/c-letpair", "lnl", "lnl", "C", ["", "p : J(A) * J(B)"],
     "let (x,y) = p in (y, x)", "J(B) * J(A)", True),
    ("lnl/c-lam", "lnl", "lnl", "C", ["", ""],
     "lam (x:J(A)). ret x", "J(A) -o T(A)", True),
    ("lnl/c-app", "lnl", "lnl", "C", ["", "f : J(A) -o T(A), x : J(A)"],
     "app f x", "T(A)", True),
    ("lnl/c-ret", "lnl", "lnl", "C", ["", "x : J(A)"], "ret x", "T(A)", True),
    ("lnl/c-do", "lnl", "lnl", "C", ["", "u : T(A), f : J(A) -o T(B)"],
     "do x <- u in app f x", "T(B)", True),
    ("lnl/c-grade-action", "lnl", "lnl", "C", ["", "s : gr(4)"],
     "regrade<4>=2> s", "gr(2)", True),
    ("lnl/c-merge-unit", "lnl", "lnl", "C", ["", "u : I"], "merge u",
     "gr(1)", True),
    ("lnl/c-unmerge-unit", "lnl", "lnl", "C", ["", "s : gr(1)"],
     "unmerge s", "I", True),
    ("lnl/c-merge-tensor", "lnl", "lnl", "C", ["", "p : gr(2) * gr(3)"],
     "merge p", "gr(6)", True),
    ("lnl/c-unmerge-tensor", "lnl", "lnl", "C", ["", "s : gr(2 * 3)"],
     "unmerge s", "gr(2) * gr(3)", True),
    ("lnl/j-intro", "lnl", "lnl", "C", ["a : A", ""], "J(a)", "J(A)", True),
    ("lnl/letj", "lnl", "lnl", "C", ["", "t : J(A)"],
     "let J(a) = t in ret J(a)", "T(A)", True),
    ("lnl/r-intro", "lnl", "lnl", "A", [""],
     "R(lam (x:J(A)). ret x)", "R(J(A) -o T(A))", True),
    ("lnl/derelict", "lnl", "lnl", "C", ["f : R(gr(2) -o T(A))", ""],
     "derelict f", "gr(2) -o T(A)", True),
    # linearity rejections
    ("lnl/dup", "lnl", "lnl", "C", ["", "s : gr(2)"], "(s, s)",
     "gr(2) * gr(2)", False),
    ("lnl/unused", "lnl", "lnl", "C", ["", "s : gr(2), x : J(A)"], "x",
     "J(A)", False),
    ("lnl/linear-under-j", "lnl", "lnl", "C", ["", "x : J(A)"],
     "J(x)", "J(J(A))", False),
    ("lnl/r-nonempty-linear", "lnl", "lnl", "C", ["", "x : J(A)"],
     "let J(a) = x in derelict R(ret J(a))", "T(A)", True),
    # -- arrow calculus ----------------------------------------------------
    ("arrow/var", "arrow", "arrow", "A", ["b : B"], "b", "B", True),
    ("arrow/lam", "arrow", "arrow", "A", [""], "lam (b:B). b", "B -> B",
     True),
    ("arrow/app", "arrow", "arrow", "A", ["f : B -> C, b : B"], "app f b",
     "C", True),
    ("arrow/lamarrow", "arrow", "arrow", "A", ["f : B ~> C"],
     "lamarrow (x:B). do y <- f . x in ret y", "B ~> C", True),
    ("arrow/cmd-ret", "arrow", "arrow", "C", ["g : B", "d : C"],
     "ret (g, d)", "B * C", True),
    ("arrow/cmd-app", "arrow", "arrow", "C", ["f : B ~> C", "b : B"],
     "f . b", "C", True),
    ("arrow/cmd-do", "arrow", "arrow", "C", ["f : B ~> C", "b : B"],
     "do y <- f . b in ret y", "C", True),
    ("arrow/cmd-app-arrow-from-delta", "arrow", "arrow", "C",
     ["", "f : B ~> C, b : B"], "f . b", "C", False),  # arrows live in zone 1
    ("arrow/non-command", "arrow", "arrow", "C", ["b : B", ""], "b", "B",
     False),
    # -- three-zone arrow metalanguage --------------------------------------
    ("armm/a-var", "armm", "armm", "A", ["a : B"], "a", "B", True),
    ("armm/a-pair-proj", "armm", "armm", "A", ["p : B * C"],
     "(pi2 p, pi1 p)", "C * B", True),
    ("armm/c-var", "armm", "armm", "C", ["", "", "x : T(B)"], "x", "T(B)",
     True),
    ("armm/c-unit", "armm", "armm", "C", ["", "", ""], "()", "1", True),
    ("armm/c-pair", "armm", "armm", "C", ["", "", "x : J(B), y : K(C)"],
     "(x, y)", "J(B) * K(C)", True),
    ("armm/c-proj", "armm", "armm", "C", ["", "", "p : J(B) * K(C)"],
     "pi1 p", "J(B)", True),
    ("armm/j-intro", "armm", "armm", "C", ["a : B", "d : C", ""],
     "J((a, d))", "J(B * C)", True),
    ("armm/k-intro", "armm", "armm", "C", ["a : B", "", ""], "K(a)", "K(B)",
     True),
    ("armm/k-intro-delta-rejected", "armm", "armm", "C", ["", "a : B", ""],
     "K(a)", "K(B)", False),  # K sees only the first zone
    ("armm/letj", "armm", "armm", "C", ["", "", "t : J(B)"],
     "let J(a) = t in ret J(a)", "T(B)", True),
    ("armm/letk", "armm", "armm", "C", ["", "", "t : K(B)"],
     "let K(a) = t in K(a)", "K(B)", True),
    ("armm/ret", "armm", "armm", "C", ["", "a : B", ""], "ret J(a)", "T(B)",
     True),
    ("armm/do", "armm", "armm", "C", ["", "", "t : T(B)"],
     "do x <- t in ret x", "T(B)", True),
    ("armm/do-phi-replaced", "armm", "armm", "C", ["", "", "t : T(B)"],
     "do x <- t in (do y <- t in ret y)", "T(B)", False),
    ("armm/aapp", "armm", "armm", "C", ["u : B => T(C)", "v : B", ""],
     "u . v", "T(C)", True),
    ("armm/lamarrow", "armm", "armm", "A", [""],
     "lamarrow (a:B). ret J(a)", "B => T(B)", True),
    ("armm/fun-app", "armm", "armm", "A", ["u : B => J(C), v : B"],
     "app u v", "C", True),
    ("armm/lamarrow-fun", "armm", "armm", "A", [""],
     "lamarrow (a:B). J(a)", "B => J(B)", True),
]


def _sig_for(key, coin_sig):
    if key is None:
        return coin_sig
    return load_signature({
        "gmm": "calculus gmm\nobject A\nobject B\ngrading builtin mult\n",
        "lnl": LNL_SIG,
        "arrow": "calculus arrow\nobject B\nobject C\n",
        "armm": ARMM_SIG,
        "ungraded gmm": "calculus gmm\nobject A\n",
        "ungraded lnl": "calculus lnl\nobject A\n",
        "lnl tick": LNL_SIG + "op tick : (x : J(A)) -> T(A)\n",
        "ungraded gmm op":
            "calculus gmm\nobject A\nop tk : (x : A) -> T_2(A)\n",
    }[key])


@pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_golden_rule(case, coin_sig):
    name, calculus, sigkey, form, zones, term_text, ty_text, accept = case
    sig = _sig_for(sigkey, coin_sig)
    zones_parsed = tuple(parse_context(z, sig) for z in zones)
    term = parse_term(term_text, calculus, sig)
    ty = parse_type(ty_text, sig)
    j = judgement(calculus, zones_parsed, term, ty, form=form)
    res = check(j, sig)
    assert res.ok == accept, (name, res.message)
    if accept:
        assert res.derivation.term is not None
        assert replay(res.derivation, sig)


def test_derivation_serialization(coin_sig):
    j = judgement("rmm", [()],
                  parse_term("do x <- coin in ret not x", "rmm", coin_sig),
                  parse_type("T(2)"))
    res = check(j, coin_sig)
    text = serialize_derivation(res.derivation)
    assert "do" in text and "ret" in text and "children=" in text


def test_rejection_reports_path(coin_sig):
    j = judgement("rmm", [()], parse_term("ret coin", "rmm", coin_sig),
                  parse_type("T(2)"))
    res = check(j, coin_sig)
    assert not res.ok
    assert res.rule == "ret"
    assert res.path == ()


def test_bound_variable_is_not_a_command():
    """A bound variable in command position is reported as a variable, as
    a free one is."""
    sig = _sig_for("arrow", None)
    j = judgement("arrow", [()], parse_term("lamarrow (x:B). x", "arrow", sig),
                  parse_type("B ~> B"), form="A")
    res = check(j, sig)
    assert (res.ok, res.rule, res.path) == (False, "var", (0,))
    assert res.message.startswith("'var' is not a command former")


# (calculus, form, type, signature key, message): one rejected type per
# row of the type-former table, then each check the table leaves to code
TYPE_REJECTIONS = [
    ("urmm", "A", "1", None, "unary calculus types are J(A) | T(A)"),
    ("urmm", "A", "2", None, "type former base not admissible in urmm"),
    ("rmm", "A", "2", None, "type former base not admissible in rmm"),
    ("gmm", "A", "J(A)", "gmm", "type former jt not admissible in gmm"),
    ("lnl", "A", "I", "lnl", "type former lunit not an A-zone type"),
    ("lnl", "C", "A", "lnl", "type former base not a linear-zone type"),
    ("arrow", "C", "J(B)", "arrow",
     "type former jt not admissible in the arrow calculus"),
    ("armm", "A", "J(B)", "armm", "type former jt not an A-zone type"),
    ("armm", "C", "B", "armm", "type former base not a C-zone type"),
    # an argument takes the zone kind its row gives it
    ("lnl", "A", "R(A)", "lnl", "type former base not a linear-zone type"),
    ("armm", "A", "B => B", "armm", "type former base not a C-zone type"),
    # the checks left to code
    ("rmm", "A", "T(Z)", None, "T(Z): argument must be a declared object"),
    ("gmm", "A", "Z", "gmm", "base type 'Z' is not a declared object"),
    ("gmm", "A", "T_2(A)", "ungraded gmm", "graded types need a grading"),
    ("lnl", "C", "gr(2)", "ungraded lnl", "grade types need a grading"),
    ("gmm", "A", "T_g(A)", "gmm", "grade g not an object of the grading"),
]


def test_type_rejections_cover_every_table_row():
    rows = {(calc, syntax.FORMS[calc, form][-1])
            for calc, form, *_ in TYPE_REJECTIONS}
    assert rows == set(typecheck.TYPE_FORMERS)


@pytest.mark.parametrize("calc, form, ty_text, sigkey, message",
                         TYPE_REJECTIONS)
def test_type_rejection_message(calc, form, ty_text, sigkey, message,
                                coin_sig):
    """A type in the last zone of a form is rejected with the wording of
    that zone kind's row."""
    sig = _sig_for(sigkey, coin_sig)
    ty = parse_type(ty_text, sig)
    zones = [()] * (len(syntax.FORMS[calc, form]) - 1) + [(("x", ty),)]
    j = judgement(calc, zones, syntax.var("x"), ty, form=form)
    res = check(j, sig)
    assert (res.ok, res.rule, res.path, res.message) == \
        (False, "type", (), message)


# (calculus, signature key, form, zones, term, type, rule, path, message,
# expected, actual): a rule several forms share rejects each form's
# judgement with the same wording, and a graded former with no grading is
# rejected at its node
RULE_REJECTIONS = [
    # the scrutinee and the body of an ungraded do
    ("rmm", None, "A", ["x : J(2)"], "do y <- x in ret y", "T(2)",
     "do", (), "do expects a computation", None, "J(2)"),
    ("lnl", "lnl", "C", ["", "x : J(A)"], "do y <- x in ret y", "T(A)",
     "do", (), "do expects a computation", None, "J(A)"),
    ("armm", "armm", "C", ["", "", "x : J(B)"], "do y <- x in ret y", "T(B)",
     "do", (), "do expects a computation", None, "J(B)"),
    ("rmm", None, "A", ["x : T(2)"], "do y <- x in y", "T(2)",
     "do", (), "do body must be a computation", None, "J(2)"),
    ("lnl", "lnl", "C", ["", "u : T(A)"], "do x <- u in x", "T(A)",
     "do", (), "do body must be a computation", None, "J(A)"),
    ("armm", "armm", "C", ["", "", "u : T(B)"], "do x <- u in x", "T(B)",
     "do", (), "do body must be a computation", None, "J(B)"),
    # ret of an argument that is not J-typed
    ("rmm", None, "A", [""], "ret coin", "T(2)",
     "ret", (), "ret expects a J-typed argument", None, "T(2)"),
    ("lnl", "lnl", "C", ["", "u : T(A)"], "ret u", "T(A)",
     "ret", (), "ret expects a J-typed argument", None, "T(A)"),
    ("armm", "armm", "C", ["", "", "u : T(B)"], "ret u", "T(B)",
     "ret", (), "ret expects a J-typed argument", None, "T(B)"),
    # projections
    ("rmm", None, "A", ["x : J(2)"], "pi1 x", "J(2)",
     "pi1", (), "projection of a non-product", None, "J(2)"),
    ("armm", "armm", "C", ["", "", "x : J(B)"], "pi2 x", "J(B)",
     "pi2", (), "projection of a non-product", None, "J(B)"),
    # let J(a) / let K(a) scrutinees
    ("lnl", "lnl", "C", ["", "u : T(A)"], "let J(a) = u in ret J(a)", "T(A)",
     "letj", (), "let J(a) scrutinee must be J-typed", None, "T(A)"),
    ("armm", "armm", "C", ["", "", "u : T(B)"], "let J(a) = u in ret J(a)",
     "T(B)", "letj", (), "let J(a) scrutinee must be J-typed", None, "T(B)"),
    ("armm", "armm", "C", ["", "", "u : J(B)"], "let K(a) = u in K(a)",
     "K(B)", "letk", (), "let K(a) scrutinee must be K-typed", None, "J(B)"),
    # arguments of the wrong type
    ("arrow", "arrow", "A", ["f : B -> C, c : C"], "app f c", "C",
     "app", (), "argument type mismatch", "B", "C"),
    ("armm", "armm", "A", ["u : B => J(C), c : C"], "app u c", "C",
     "app", (), "argument type mismatch", "B", "C"),
    ("arrow", "arrow", "C", ["f : B ~> C", "c : C"], "f . c", "C",
     "cmd-app", (), "arrow argument type mismatch", "B", "C"),
    ("armm", "armm", "C", ["u : B => T(C)", "c : C", ""], "u . c", "T(C)",
     "aapp", (), "argument type mismatch", "B", "C"),
    ("lnl", "lnl", "C", ["", "f : J(A) -o T(A), y : J(B)"], "app f y", "T(A)",
     "lapp", (), "argument type mismatch", "J(A)", "J(B)"),
    # a linear variable where only nonlinear ones may go, and the converse
    ("lnl", "lnl", "C", ["", "x : J(A)"], "J(x)", "J(A)",
     "J(-)", (), "linear variable(s) x cannot be used under J(-)", None,
     None),
    ("lnl", "lnl", "C", ["", "x : J(A)"], "derelict x", "J(A)",
     "derelict", (), "linear variable(s) x cannot be used under derelict",
     None, None),
    ("lnl", "lnl tick", "C", ["", "x : J(A)"], "tick(x)", "T(A)",
     "op", (), "linear variable(s) x cannot be used under op", None, None),
    ("lnl", "lnl", "C", ["a : A", ""], "ret a", "T(A)",
     "lvar", (0,), "nonlinear variable 'a' used as a linear term"
     " (use J(-)/derelict)", None, None),
    # a former that needs a grading, under a signature without one
    ("gmm", "ungraded gmm", "A", ["x : A"], "ret x", "A",
     "ret", (), "ret needs a grading", None, None),
    ("gmm", "ungraded gmm op", "A", ["x : A"], "do y <- tk(x) in tk(y)", "A",
     "do", (), "do needs a grading", None, None),
    ("gmm", "ungraded gmm op", "A", ["x : A"], "regrade<2>=3> tk(x)", "A",
     "regrade", (), "regrade needs a grading", None, None),
    ("lnl", "ungraded lnl", "C", ["", ""], "merge ()", "I",
     "merge", (), "merge needs a grading", None, None),
    ("lnl", "ungraded lnl", "C", ["", "u : I"], "unmerge u", "I",
     "unmerge", (), "unmerge needs a grading", None, None),
    ("lnl", "ungraded lnl", "C", ["", "u : I"], "regrade<2>=3> u", "I",
     "regrade", (), "regrade needs a grading", None, None),
]


@pytest.mark.parametrize(
    "calc, sigkey, form, zones, term, ty, rule, path, message, expected,"
    " actual", RULE_REJECTIONS)
def test_rule_rejection(calc, sigkey, form, zones, term, ty, rule, path,
                        message, expected, actual, coin_sig):
    sig = _sig_for(sigkey, coin_sig)
    j = judgement(calc, [parse_context(z, sig) for z in zones],
                  parse_term(term, calc, sig), parse_type(ty, sig), form=form)
    res = check(j, sig)
    assert (res.ok, res.rule, res.path, res.message, res.expected,
            res.actual) == (False, rule, path, message, expected, actual)


def test_split_linear():
    x, y = ("x", parse_type("J(A)")), ("y", parse_type("J(B)"))
    delta = (x, y)
    claims = split_linear(delta, parse_term("(ret x, ret y)", "lnl"))
    assert claims == [(x,), (y,)]
    # each share keeps the zone's order, not the order of use
    assert split_linear(delta, parse_term("((y, x), ())", "lnl")) == \
        [(x, y), ()]
    with pytest.raises(LinearityError):
        split_linear(delta, parse_term("(ret x, ret x)", "lnl"))
    # under a binder in force named y: the body's bvar 0 is the do's own
    # binder, which claims nothing; its bvar 1 is y
    t = syntax.do(syntax.var("x"),
                  syntax.pair(syntax.bv(0), syntax.bv(1)))
    claims = split_linear(delta, t, ("y",))
    assert claims == [(x,), (y,)]
    with pytest.raises(LinearityError):
        split_linear(delta, syntax.pair(syntax.bv(0), syntax.var("y")),
                     ("y",))


def test_graded_arithmetic_audit(gmm_sig):
    ctx = parse_context("u : T_2(A), v : T_3(B)", gmm_sig)
    j = judgement("gmm", [ctx],
                  parse_term("do x <- u in regrade<4>=3> v", "gmm", gmm_sig),
                  parse_type("T_8(B)"))
    res = check(j, gmm_sig)
    assert res.ok
    d = res.derivation
    assert replay(d, gmm_sig)
    # the do's grade is 2 * 4, not 6
    assert not replay(replace(d, ty=parse_type("T_6(B)")), gmm_sig)
    # 3 => 4 is no morphism of (N, >=, *, 1)
    u, reg = d.children
    assert reg.rule == "regrade"
    reg = replace(reg, term=parse_term("regrade<3>=4> v", "gmm", gmm_sig))
    assert not replay(replace(d, children=(u, reg)), gmm_sig)



def test_a_signature_error_is_a_rejection(gmm_sig):
    """A grade the built-in grading cannot multiply out is rejected by rule
    `signature`, not raised."""
    j = judgement("gmm", [parse_context("u : T_1(A)", gmm_sig)],
                  parse_term("regrade<a * b>=1> u", "gmm", gmm_sig),
                  parse_type("T_2(A)"))
    res = check(j, gmm_sig)
    assert not res.ok
    assert (res.rule, res.message) == \
        ("signature", "built-in gradings have numeric grades only")


def test_self_sequencing_program(lnl_sig, lnl_add_sig):
    """The self-sequencing function types at A -> T_{m (+) m}(A) under both
    built-in gradings (written through the graded encoding)."""
    from relmeta.translate import bind_program
    from relmeta.syntax import gnat
    for sig, m, mm in ((lnl_sig, 2, 4), (lnl_add_sig, 2, 4)):
        bind = bind_program(gnat(m), gnat(m), parse_type("A"),
                            parse_type("A"))
        tma = f"R(gr({m}) -o T(A))"
        prog_ty = parse_type(f"A -> (A -> {tma}) -> R(gr({mm}) -o T(A))")
        body = syntax.app(
            syntax.app(bind, syntax.app(syntax.bv(0), syntax.bv(1))),
            syntax.bv(0))
        prog = syntax.lam(parse_type("A"),
                          syntax.lam(parse_type(f"A -> {tma}"), body,
                                     hint="f"), hint="a")
        j = judgement("lnl", [()], prog, prog_ty, form="A")
        res = check(j, sig)
        assert res.ok, res.message


def test_duplicate_and_run_both_rejected(lnl_sig):
    """The one-grade pairing of two graded computations needs the grade
    token twice: the linear checker rejects it."""
    text = ("lam (p:R(gr(2) -o T(A)) * R(gr(2) -o T(B))). "
            "R(lam (s:gr(2)). "
            "do x <- app (derelict (pi1 p)) s in "
            "(let J(a) = x in do y <- app (derelict (pi2 p)) s in "
            "(let J(b) = y in ret J((a,b)))))")
    t = parse_term(text, "lnl", lnl_sig)
    ty = parse_type("R(gr(2) -o T(A)) * R(gr(2) -o T(B))"
                    " -> R(gr(2) -o T(A * B))")
    res = check(judgement("lnl", [()], t, ty, form="A"), lnl_sig)
    assert not res.ok
    assert "two subterms" in res.message
    # while the honest costed version (token split 2 = 1+... under the
    # multiplicative reading 4 = 2*2) is accepted
    ok_text = ("lam (p:R(gr(2) -o T(A)) * R(gr(2) -o T(B))). "
               "R(lam (s:gr(2 * 2)). let (s1,s2) = unmerge s in "
               "do x <- app (derelict (pi1 p)) s1 in "
               "(let J(a) = x in do y <- app (derelict (pi2 p)) s2 in "
               "(let J(b) = y in ret J((a,b)))))")
    t2 = parse_term(ok_text, "lnl", lnl_sig)
    ty2 = parse_type("R(gr(2) -o T(A)) * R(gr(2) -o T(B))"
                     " -> R(gr(4) -o T(A * B))")
    res2 = check(judgement("lnl", [()], t2, ty2, form="A"), lnl_sig)
    assert res2.ok, res2.message


# -- metatheory properties ----------------------------------------------------

def test_substitution_lemma(sweep_sig, rng):
    """If G, x:X |- t : Y and G |- u : X check, so does G |- t[u/x] : Y."""
    g = genmod.Gen(rng, sweep_sig, "rmm", ["1o", "2"])
    done = 0
    while done < 60:
        ctx = genmod.seeded_context("rmm", ["1o", "2"], g.gen_context(1))
        xty = g.gen_type(1)
        try:
            t = g.gen_term(ctx + (("xx", xty),), g.gen_type(1), 5)
            u = g.gen_term(ctx, xty, 4)
        except ValueError:
            continue
        done += 1
        ty = check(judgement("rmm", [ctx + (("xx", xty),)], t,
                             parse_type("1")), sweep_sig)
        # synthesize the type first
        from relmeta.typecheck import _Checker
        chk = _Checker(sweep_sig, "rmm")
        chk.avoid = {x for x, _ in ctx} | {"xx"}
        d, tty = chk.synth_a(t, (), (ctx + (("xx", xty),),))
        jt = judgement("rmm", [ctx + (("xx", xty),)], t, tty)
        assert check(jt, sweep_sig).ok
        js = judgement("rmm", [ctx], bsubst(close_binder(t, "xx"), 0, u), tty)
        assert check(js, sweep_sig).ok


@pytest.mark.parametrize("size", [3, 5])
def test_generated_unary_judgements_check(coin_sig, size):
    """The generator gives a unary `do` body its binder alone as context,
    as the unary calculus does: at seed 1 and size 3, 20 of 200 bodies
    named the outer variable when they were given the outer context."""
    g = genmod.Gen(random.Random(1), coin_sig, "urmm", ["2"])
    ctx = genmod.seeded_context("urmm", ["2"])
    for i in range(200):
        ty = parse_type("T(2)" if i % 4 else "J(2)")
        j = judgement("urmm", [ctx], g.gen_term(ctx, ty, size), ty)
        res = check(j, coin_sig)
        assert res.ok, (str(j), res.message)


def test_exchange_and_weakening(coin_sig):
    ctx = parse_context("x : J(2), y : J(4)", coin_sig)
    t = parse_term("ret not x", "rmm", coin_sig)
    ty = parse_type("T(2)")
    assert check(judgement("rmm", [ctx], t, ty), coin_sig).ok
    assert check(judgement("rmm", [tuple(reversed(ctx))], t, ty),
                 coin_sig).ok
    widened = ctx + (("zzz", parse_type("T(4)")),)
    assert check(judgement("rmm", [widened], t, ty), coin_sig).ok


def test_linear_exchange(lnl_sig):
    zl = parse_context("x : J(A), y : J(B)")
    t = parse_term("(y, x)", "lnl", lnl_sig)
    ty = parse_type("J(B) * J(A)")
    assert check(judgement("lnl", [(), zl], t, ty, form="C"), lnl_sig).ok
    assert check(judgement("lnl", [(), tuple(reversed(zl))], t, ty,
                           form="C"), lnl_sig).ok


BINDING_CHILD = {"do": 1, "letj": 1, "letk": 1, "letpair": 1, "cmd-do": 1,
                 "lam": 0, "limpl": 0, "lamarrow": 0}


def test_derivation_binders_are_the_new_zone_names():
    """At each binding rule a node's binders are the names new in its
    binding child's zones, in zone order; every other node binds none."""
    seen = set()
    for name, j, sig in accepted_golden_judgements():
        for node in check(j, sig).derivation.walk():
            if node.rule not in BINDING_CHILD:
                assert node.binders == (), (name, node.rule)
                continue
            seen.add(node.rule)
            mine = {x for zone in node.zones for x, _ in zone}
            child = node.children[BINDING_CHILD[node.rule]]
            new = tuple(x for zone in child.zones for x, _ in zone
                        if x not in mine)
            assert node.binders == new and new, (name, node.rule)
    assert seen == set(BINDING_CHILD)


def test_walk_is_preorder_and_stack_safe():
    """`Derivation.walk` gives every node once, in preorder, on the goldens,
    and walks a derivation 5,000 nodes deep under the default recursion
    limit."""
    def preorder(node):
        return [node] + [n for c in node.children for n in preorder(c)]

    for name, j, sig in accepted_golden_judgements():
        d = check(j, sig).derivation
        assert list(map(id, d.walk())) == list(map(id, preorder(d))), name
    assert sys.getrecursionlimit() <= 1000
    leaf = typecheck.Derivation("unit", "rmm", ((),), syntax.Term("unit"),
                                syntax.UNIT1)
    d = leaf
    for _ in range(5000):
        d = typecheck.Derivation("pair", "rmm", ((),), leaf.term, leaf.ty,
                                 (d, leaf))
    nodes = list(d.walk())
    assert len(nodes) == 10001 and nodes[0] is d and nodes[-1] is leaf



def _bind_chain(n, sig):
    """do x0 <- coin in do x1 <- ret not x0 in ... in ret x(n-1)."""
    text = f"ret x{n - 1}"
    for i in reversed(range(n)):
        text = f"do x{i} <- {f'ret not x{i - 1}' if i else 'coin'} in {text}"
    return judgement("rmm", [()], parse_term(text, "rmm", sig),
                     parse_type("T(2)"))


def test_check_and_print_build_no_terms(monkeypatch, coin_sig):
    """The checker, replay and the printer read the term as parsed, bvars
    and all: they open no binder and so build no Term."""
    cases = accepted_golden_judgements() + \
        [("chain", _bind_chain(100, coin_sig), coin_sig)]
    built = []
    init = syntax.Term.__init__

    def counting(self, kind, *args, **kwargs):
        built.append(kind)
        init(self, kind, *args, **kwargs)

    def refuse(*args):
        raise AssertionError("a binder was opened")

    monkeypatch.setattr(syntax.Term, "__init__", counting)
    monkeypatch.setattr(syntax, "bsubst", refuse)
    for name, j, sig in cases:
        res = check(j, sig)
        assert res.ok, (name, res.message)
        assert replay(res.derivation, sig), name
        serialize_derivation(res.derivation)
        syntax.term_to_text(j.term)
    assert built == []


def test_replay_rejects_a_wrong_type_under_a_binder():
    """Each node under one binder or more, given a wrong type, makes its
    derivation fail to replay; untouched derivations replay."""
    seen = set()
    for name, j, sig in accepted_golden_judgements():
        d = check(j, sig).derivation
        assert replay(d, sig), name

        def under_binders(node, names):
            if names:
                yield node
            for i, c in enumerate(node.children):
                yield from under_binders(c, node.child_names(i, names))

        for node in list(under_binders(d, ())):
            right = node.ty
            node.ty = syntax.prod(right, right)
            assert not replay(d, sig), (name, node.rule)
            node.ty = right
            seen.add(j.calculus)
        assert replay(d, sig), name
    assert seen == set(syntax.CALCULI)


@pytest.mark.parametrize("calc, sig_text, zones, term, ty", [
    ("armm", ARMM_SIG + "op tick : (x : J(B)) -> T(B)\n",
     ["", "", "x : J(B)"], "tick(x)", "T(B)"),
    ("lnl", LNL_SIG + "op tick : (x : J(A)) -> T(A)\n",
     ["a : A", ""], "tick(J(a))", "T(A)"),
])
def test_op_node_records_its_callers_judgement(calc, sig_text, zones, term,
                                               ty):
    """An operation inside a C judgement is recorded under the caller's
    zones and form, so its derivation replays."""
    sig = load_signature(sig_text)
    j = judgement(calc, [parse_context(z, sig) for z in zones],
                  parse_term(term, calc, sig), parse_type(ty, sig), form="C")
    res = check(j, sig)
    assert res.ok, res.message
    d = res.derivation
    assert (d.rule, *(getattr(d, f) for f in FIELDS)) == \
        ("op", *(getattr(j, f) for f in FIELDS))
    assert replay(res.derivation, sig)


# the LNL rules whose children each get a share of the linear zone
LNL_SPLITS = {"tensor", "letunit", "letpair", "lapp", "do", "letj"}


def _is_subsequence(sub, seq):
    it = iter(seq)
    return all(any(a == b for b in it) for a in sub)


def test_nodes_share_their_parents_zones(coin_sig):
    """A child holds its parent's zone tuples themselves, not copies.  A
    binding child's zone is its parent's plus exactly the node's binders
    (or the binders alone, where the rule starts the zone afresh); an LNL
    split hands each child a share of the linear zone in its order; a
    Cartesian child of a command or three-zone node sees the
    concatenation of the first two zones."""
    cases = accepted_golden_judgements() + \
        [("chain", _bind_chain(30, coin_sig), coin_sig)]
    shared = set()
    for name, j, sig in cases:
        d = check(j, sig).derivation
        assert all(a is b for a, b in zip(d.zones, j.zones)), name
        for node in d.walk():
            pz = node.zones
            for i, child in enumerate(node.children):
                cz = child.zones
                bound = set(node.binders) \
                    if syntax.child_binders(node.term, i) else set()
                added = ()
                for z, c in enumerate(cz):
                    k = sum(1 for x, _ in c if x in bound)
                    old, new = c[:len(c) - k], c[len(c) - k:]
                    assert {x for x, _ in new} <= bound, (name, node.rule)
                    added += tuple(x for x, _ in new)
                    p = pz[z] if z < len(pz) else ()
                    where = (name, node.rule, i, z)
                    if node.calculus == "lnl" and node.form == "C" and z == 1 \
                            and node.rule in LNL_SPLITS:
                        assert _is_subsequence(old, p), where
                    elif k:
                        assert old in (p, ()), where
                    elif len(cz) < len(pz) and old != p:
                        assert z == 0 and old == pz[0] + pz[1], where
                    else:
                        assert old is p, where
                        if p:
                            shared.add(node.calculus)
                assert added == (node.binders if bound else ()), \
                    (name, node.rule, i)
    assert shared == set(syntax.CALCULI)

def test_check_validates_the_root_judgement_only(monkeypatch, coin_sig):
    """`check` validates the zones of the judgement it is given, once; the
    node judgements it builds from them are not validated again."""
    cases = accepted_golden_judgements() + \
        [("chain", _bind_chain(100, coin_sig), coin_sig)]
    validated = []
    post_init = syntax.Judgement.__post_init__

    def counting(self):
        validated.append(self)
        post_init(self)

    monkeypatch.setattr(syntax.Judgement, "__post_init__", counting)
    for name, j, sig in cases:
        validated.clear()
        assert check(j, sig).ok, name
        assert len(validated) == 1 and validated[0] is j, name


def _checked_corpus(coin_sig):
    """(name, judgement, signature) for every accepted golden, the bind
    chain and each judgement of the generated corpus that checks."""
    cases = accepted_golden_judgements() + \
        [("chain", _bind_chain(100, coin_sig), coin_sig)] + \
        _generated_corpus()
    return [(name, j, sig) for name, j, sig in cases if check(j, sig).ok]


def test_a_node_holds_its_judgement_inline():
    """A derivation node is a slotted record, with no instance dict, and
    its calculus, form, zones, term and type are those of the root node of
    a full check of its subterm, under the names of the binders in force
    there; for all six calculi."""
    calculi = set()
    for name, j, sig in accepted_golden_judgements():

        def go(node, names):
            assert not hasattr(node, "__dict__"), (name, node.rule)
            fields = tuple(getattr(node, f) for f in FIELDS)
            full = typecheck._Checker(sig, node.calculus, names) \
                .check_judgement(syntax.Judgement(*fields))
            assert tuple(getattr(full, f) for f in FIELDS) == fields, \
                (name, node.rule)
            for i, c in enumerate(node.children):
                go(c, node.child_names(i, names))

        go(check(j, sig).derivation, ())
        calculi.add(j.calculus)
    assert calculi == set(syntax.CALCULI)


def test_node_judgements_are_valid_judgements(coin_sig):
    """Every node's judgement, which the checker builds without validation,
    passes it: rebuilt with `Judgement(...)`, none raises and each has the
    node's fields."""
    calculi = set()
    for name, j, sig in _checked_corpus(coin_sig):
        for node in check(j, sig).derivation.walk():
            fields = tuple(getattr(node, f) for f in FIELDS)
            nj = syntax.Judgement(*fields)
            assert tuple(getattr(nj, f) for f in FIELDS) == fields, \
                (name, node.rule)
            calculi.add(node.calculus)
    assert calculi == set(syntax.CALCULI)


def _lnl_judgements(lnl_sig):
    """The accepted LNL rule goldens and typecheck goldens, and the linear
    translation of one instance of each graded equation, both sides."""
    from relmeta import translate
    import random
    gmm = load_signature("calculus gmm\nobject A\nobject B\n"
                         "grading builtin mult\n")
    out = [(name, j, sig) for name, j, sig in accepted_golden_judgements()
           if j.calculus == "lnl"]
    for name, calc, sigkey, form, zones, term, ty, accept in GOLDEN:
        if calc == "lnl" and accept:
            sig = _sig_for(sigkey, None)
            out.append((name, judgement(
                calc, [parse_context(z, sig) for z in zones],
                parse_term(term, calc, sig), parse_type(ty, sig), form=form),
                sig))
    for name, jl, jr in genmod.gmm_schema_instances(random.Random(11), gmm,
                                                    ["A", "B"]):
        for side, j in (("lhs", jl), ("rhs", jr)):
            out.append((f"{name} {side}", translate.gmm_to_lnl(j, gmm)[0],
                        lnl_sig))
    return out


def _oracle_split(delta, t, names):
    """split_linear's shares read off `free_vars`, each child walked anew."""
    return [tuple((x, ty) for x, ty in delta if x in syntax.free_vars(
        s, (*names, *[None] * syntax.child_binders(t, i))))
        for i, s in enumerate(t.subs)]


def test_occurrence_table_agrees_with_free_vars(lnl_sig):
    """At every node of every LNL derivation, under the names in force:
    the term's cached occurrences give `free_vars` and `uses_bvar` of the
    node's term, and the linear split they give, with the names in force
    as a tuple or as a list, is the split `free_vars` gives."""
    splits = set()
    for name, j, sig in _lnl_judgements(lnl_sig):
        res = check(j, sig)
        assert res.ok, (name, res.message)

        def go(node, names):
            t, zones = node.term, node.zones
            fv, mask = t.occ
            bvars = {k for k in range(mask.bit_length()) if mask >> k & 1}
            assert fv | {names[-1 - k] for k in bvars if k < len(names)} \
                == syntax.free_vars(t, names), (name, node.rule)
            for k in range(max(bvars, default=0) + 2):
                assert (k in bvars) == syntax.uses_bvar(t, k), (name, k)
            if node.form == "C" and t.subs:
                want = _oracle_split(zones[1], t, names)
                assert split_linear(zones[1], t, list(names)) == want
                assert split_linear(zones[1], t, tuple(names)) == want
                splits.add(node.rule)
            for i, c in enumerate(node.children):
                go(c, node.child_names(i, names))

        go(res.derivation, ())
    assert LNL_SPLITS <= splits


# -- the checked judgement ----------------------------------------------------

FIELDS = ("calculus", "form", "zones", "term", "ty")


def _coin_judgement(coin_sig, term):
    return judgement("rmm", [parse_context("u : T(2)", coin_sig)],
                     parse_term(term, "rmm", coin_sig), parse_type("T(2)"))


def _count_full_checks(monkeypatch):
    """The terms every layer checks in full, in order."""
    from relmeta import equations, models, translate
    seen = []

    def counting(j, sig, **kw):
        seen.append(j.term)
        return check(j, sig, **kw)
    for mod in (equations, models, translate):
        monkeypatch.setattr(mod, "check", counting)
    return seen


def test_a_checked_judgement_is_its_signature_and_root_derivation(coin_sig):
    """check hands back a Checked, a record of its signature object and its
    derivation that is not a Judgement: it reads its judgement off the
    derivation's root and prints it; the class cannot be called, and
    with_term gives a plain judgement."""
    j = _coin_judgement(coin_sig, "do x <- u in ret x")
    c = check(j, coin_sig)
    assert typecheck.Checked.__slots__ == ("sig", "derivation")
    assert type(c) is typecheck.Checked and c.ok and c.sig is coin_sig
    assert not isinstance(c, syntax.Judgement) and c != j
    assert c.term is c.derivation.term is j.term
    assert tuple(getattr(c, f) for f in FIELDS) == \
        tuple(getattr(j, f) for f in FIELDS)
    assert str(c) == str(j)
    assert typecheck.is_checked(c, coin_sig)
    assert not typecheck.is_checked(j, coin_sig)
    with pytest.raises(TypeError):
        typecheck.Checked(coin_sig, c.derivation)
    for plain in (c.with_term(c.term), c.with_term(parse_term("u", "rmm"))):
        assert type(plain) is syntax.Judgement
        assert not typecheck.is_checked(plain, coin_sig)
    assert c.with_term(c.term) == j


def test_a_checked_judgement_has_the_type_it_was_checked_against(gmm_sig):
    """A Checked's type is the one its check was given, which its root's
    `expect` holds, not the type the root synthesized, which may be written
    otherwise: `do x <- u in w` checks at T_(1 * 2)(A) and synthesizes
    T_2(A).  So a side check_eq releases keeps it, and the pair of a
    Checked and a plain side is of one shape."""
    from relmeta import equations
    ctx = parse_context("u : T_1(A), w : T_2(A)", gmm_sig)
    j, jr = (judgement("gmm", [ctx], parse_term(t, "gmm", gmm_sig),
                       parse_type("T_(1 * 2)(A)"))
             for t in ("do x <- u in w", "do y <- u in w"))
    c = check(j, gmm_sig)
    assert c.ty == j.ty and c.derivation.ty != j.ty
    assert c.derivation.ty == parse_type("T_2(A)")
    assert equations.check_eq(c, jr, gmm_sig).status == "PROVEN"
    assert c.ty == j.ty and c.derivation.ty != j.ty and str(c) == str(j)


def test_check_eq_releases_its_sides_to_their_root_judgements(
        coin_sig, dist_binding, monkeypatch):
    """check_eq releases the checks of the sides it is handed: each keeps a
    childless root of its judgement and no signature, so a later layer
    checks it in full."""
    from relmeta import equations
    jl = _coin_judgement(coin_sig, "do x <- u in ret x")
    jr = _coin_judgement(coin_sig, "do x <- u in ret not x")
    cl, cr = check(jl, coin_sig), check(jr, coin_sig)
    equations.check_eq(cl, cr, coin_sig, [("dist", dist_binding)])
    for c, j in ((cl, jl), (cr, jr)):
        assert c.sig is None and c.derivation.children == ()
        assert c.derivation.binders == () and c.term is j.term
        assert str(c) == str(j) and not typecheck.is_checked(c, coin_sig)
    seen = _count_full_checks(monkeypatch)
    equations.normalize(cl, coin_sig)
    assert seen[0] is jl.term


def test_a_checked_judgement_is_read_under_its_own_signature_only(
        coin_sig, dist_binding, monkeypatch):
    """A layer handed a Checked under the signature object it was checked
    under reads its derivation; under another signature object, even one
    loaded from the same text, it checks it again.  check_eq spends the
    checks of its sides, so a later layer checks them again."""
    from conftest import fixture_text
    from relmeta import equations, models
    other = load_signature(fixture_text("coin.sig"))
    jl = _coin_judgement(coin_sig, "do x <- u in ret x")
    jr = _coin_judgement(coin_sig, "do x <- u in ret not x")
    cl, cr = check(jl, coin_sig), check(jr, coin_sig)
    seen = _count_full_checks(monkeypatch)
    equations.normalize(cl, coin_sig)
    env = {"u": models.VDist([(models.VElem("tt"), models.DY_ONE)])}
    models.eval_term(cl, env, dist_binding, coin_sig)
    assert not models.semantic_eq(cl, cr, dist_binding, coin_sig)[0]
    assert seen == []
    equations.normalize(cl, other)
    assert seen == [jl.term]
    del seen[:]
    equations.check_eq(cl, cr, coin_sig, [("dist", dist_binding)])
    assert jl.term not in seen and jr.term not in seen
    assert not typecheck.is_checked(cl, coin_sig)
    equations.normalize(cl, coin_sig)
    assert seen[-1] == jl.term


# -- generated-judgement golden ---------------------------------------------

GENERATED = Path(__file__).parent / "golden" / "generated" / "typecheck.txt"


# raw-term judgements: well-formed types of each zone kind (`syntax.FORMS`
# gives the kinds of each judgement form's zones, the last also the result's)
RAW_TYPES = {
    ("urmm", "A"): ["J(2)", "T(2)", "J(4)", "T(4)"],
    ("rmm", "A"): ["J(2)", "T(2)", "1", "J(2) * T(4)", "T(1)"],
    ("gmm", "A"): ["A", "T_2(A)", "T_1(B)", "A * B", "T_6(A)"],
    ("lnl", "A"): ["A", "A -> B", "R(gr(2) -o T(A))", "1"],
    ("lnl", "C"): ["J(A)", "T(A)", "gr(2)", "I", "J(A) -o T(B)",
                   "gr(2) * gr(3)"],
    ("arrow", "A"): ["B", "C", "B ~> C", "B -> C", "B * C"],
    ("armm", "A"): ["B", "C", "B => T(C)", "B => J(C)"],
    ("armm", "C"): ["J(B)", "K(C)", "T(B)", "1", "J(B) * K(C)"],
}

# the graded laws whose linear translations are small enough to keep
SMALL_GMM_TO_LNL = {"prod.eta", "prod.beta1", "regrade.id", "do.beta",
                    "do.eta"}


def _generated_corpus():
    """(tag, judgement, signature) for a seeded corpus over all six calculi:
    schema instances (and their translations) that check, and raw terms
    over random contexts and types, most of which do not."""
    import random
    from relmeta import translate
    coin = load_signature(fixture_text("coin.sig"))
    gmm = load_signature("calculus gmm\nobject A\nobject B\n"
                         "grading builtin mult\n")
    lnl = load_signature(LNL_SIG)
    arrow = load_signature("calculus arrow\nobject B\nobject C\n")
    armm = load_signature(ARMM_SIG)
    out = []
    rng = random.Random(6)
    for name, jl, jr in genmod.rmm_schema_instances(rng, coin, ["2", "4"]):
        out += [(f"rmm {name} lhs", jl, coin), (f"rmm {name} rhs", jr, coin)]
    for name, jl, jr in genmod.gmm_schema_instances(rng, gmm, ["A", "B"]):
        for side, j in (("lhs", jl), ("rhs", jr)):
            out.append((f"gmm {name} {side}", j, gmm))
            if name in SMALL_GMM_TO_LNL:
                out.append((f"lnl gmm_to_lnl {name} {side}",
                            translate.gmm_to_lnl(j, gmm)[0], gmm))
    for name, jl, jr in genmod.arrow_schema_instances(rng, arrow, ["B", "C"]):
        for side, j in (("lhs", jl), ("rhs", jr)):
            out.append((f"arrow {name} {side}", j, arrow))
            out.append((f"armm arrow_to_armm {name} {side}",
                        translate.arrow_to_armm(j, arrow)[0], arrow))
    g = genmod.Gen(rng, coin, "urmm", ["2"])
    ctx, ty = (("x", syntax.jt(syntax.base("2"))),), parse_type("T(2)")
    for i in range(12):
        out.append((f"urmm gen {i}",
                    judgement("urmm", [ctx], g.gen_comp(ctx, ty, 5), ty),
                    coin))
    sigs = {"urmm": coin, "rmm": coin, "gmm": gmm, "lnl": lnl,
            "arrow": arrow, "armm": armm}
    for calc, sig in sigs.items():
        for i in range(30):
            form = rng.choice("AC") if (calc, "C") in syntax.FORMS else "A"
            kinds = syntax.FORMS[calc, form]
            zones = [tuple((f"v{k}", parse_type(rng.choice(
                RAW_TYPES[calc, kinds[z]]))) for k in range(4)
                if k % len(kinds) == z and rng.random() < 0.6)
                for z in range(len(kinds))]
            ty = parse_type(rng.choice(RAW_TYPES[calc, kinds[-1]]))
            t = genmod.gen_raw_term(rng, calc, sig, depth=3)
            out.append((f"{calc} raw {i}",
                        judgement(calc, zones, t, ty, form=form), sig))
    return out


def generated_typecheck_report() -> str:
    """One block per corpus judgement: the judgement, then its serialized
    derivation or the rejection's rule, path, message and types."""
    blocks = []
    for tag, j, sig in _generated_corpus():
        res = check(j, sig)
        if res.ok:
            body = serialize_derivation(res.derivation)
        else:
            body = (f"rejected: rule={res.rule} path={res.path}"
                    f" expected={res.expected} actual={res.actual}\n"
                    f"  {res.message}")
        blocks.append(f"## {tag}\n{j}\n{body}")
    return "\n".join(blocks) + "\n"


def test_generated_typecheck_golden():
    """Derivations and rejections of the generated corpus, byte for byte
    (regenerate with `PYTHONPATH=src python tests/test_typecheck.py`)."""
    assert generated_typecheck_report() == GENERATED.read_text(
        encoding="utf-8")


if __name__ == "__main__":
    GENERATED.parent.mkdir(exist_ok=True)
    GENERATED.write_text(generated_typecheck_report(), encoding="utf-8")
