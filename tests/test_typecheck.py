"""Judgement checking: one golden test per typing rule of every calculus,
the zone disciplines, and the checkable metatheory (substitution,
exchange, weakening)."""

import pytest

from conftest import accepted_golden_judgements
from relmeta import gen as genmod
from relmeta import syntax
from relmeta.signatures import load_signature
from relmeta.syntax import (judgement, parse_context, parse_term, parse_type,
                            subst_free)
from relmeta.typecheck import (check, check_graded_arithmetic, replay,
                               serialize_derivation, split_linear,
                               LinearityError)

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
        assert res.derivation.judgement.term is not None
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


def test_split_linear():
    delta = {"x": parse_type("J(A)"), "y": parse_type("J(B)")}
    t1 = parse_term("ret x", "lnl")
    t2 = parse_term("ret y", "lnl")
    claims = split_linear(delta, [t1, t2])
    assert set(claims[0]) == {"x"} and set(claims[1]) == {"y"}
    with pytest.raises(LinearityError):
        split_linear(delta, [t1, t1])


def test_graded_arithmetic_audit(gmm_sig):
    ctx = parse_context("u : T_2(A), v : T_3(B)", gmm_sig)
    j = judgement("gmm", [ctx],
                  parse_term("do x <- u in regrade<4>=3> v", "gmm", gmm_sig),
                  parse_type("T_8(B)"))
    res = check(j, gmm_sig)
    assert res.ok
    assert check_graded_arithmetic(res.derivation, gmm_sig)


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
        d, tty = chk.synth_a(t, (), dict(ctx + (("xx", xty),)),
                             {x for x, _ in ctx} | {"xx"})
        jt = judgement("rmm", [ctx + (("xx", xty),)], t, tty)
        assert check(jt, sweep_sig).ok
        js = judgement("rmm", [ctx], subst_free(t, "xx", u), tty)
        assert check(js, sweep_sig).ok


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
            mine = {x for zone in node.judgement.zones for x, _ in zone}
            child = node.children[BINDING_CHILD[node.rule]]
            new = tuple(x for zone in child.judgement.zones for x, _ in zone
                        if x not in mine)
            assert node.binders == new and new, (name, node.rule)
    assert seen == set(BINDING_CHILD)
