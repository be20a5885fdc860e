import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relmeta import gen as genmod
from relmeta import syntax
from relmeta.syntax import (SyntaxError_, alpha_eq, bv, close_binder,
                            free_vars, judgement, open_binder, parse_context,
                            parse_term, parse_type, subst_free, term_to_text,
                            var)


def test_parse_simple(coin_sig):
    t = parse_term("do x <- coin in ret not x", "rmm", coin_sig)
    assert t.kind == "do"
    assert t.subs[0] == syntax.opapp("coin")
    assert t.subs[1] == syntax.ret(syntax.gen("not", bv(0)))


def test_parse_positions(coin_sig):
    with pytest.raises(SyntaxError_) as e:
        parse_term("do x <- coin in\n ret $", "rmm", coin_sig)
    assert e.value.line == 2


@pytest.mark.parametrize("text, calc, col", [
    ("do ( <- coin in ret ()", "rmm", 4),
    ("do\n  * <- coin in ret ()", "rmm", 3),
    ("lam (in:A). ret ()", "lnl", 6),
    ("lamarrow 2. ret ()", "arrow", 10),
    ("let (x, 2) = p in x", "lnl", 9),
    ("let J(<-) = t in ret ()", "lnl", 7),
])
def test_binder_must_be_a_name(text, calc, col, coin_sig):
    with pytest.raises(SyntaxError_) as e:
        parse_term(text, calc, coin_sig)
    assert (e.value.line, e.value.col) == (text.count("\n") + 1, col)
    assert "expected a variable name" in str(e.value)


def test_context_entry_must_be_a_name():
    with pytest.raises(SyntaxError_) as e:
        parse_context("( : J(2), * : T(2)")
    assert (e.value.line, e.value.col) == (1, 1)
    with pytest.raises(SyntaxError_) as e:
        parse_context("x : J(2), * : T(2)")
    assert (e.value.line, e.value.col) == (1, 11)


def test_unknown_op_arity(coin_sig):
    with pytest.raises(SyntaxError_):
        parse_term("and2(x)", "rmm", coin_sig)


def test_admissibility():
    with pytest.raises(SyntaxError_):
        parse_term("lam (x:1). x", "rmm")  # no lambdas in the core calculus
    with pytest.raises(SyntaxError_):
        parse_term("(x, y)", "urmm")       # no products in the unary calculus


def test_alpha_eq_binders(coin_sig):
    t1 = parse_term("do x <- coin in ret x", "rmm", coin_sig)
    t2 = parse_term("do y <- coin in ret y", "rmm", coin_sig)
    assert alpha_eq(t1, t2)
    assert not alpha_eq(parse_term("ret x", "rmm"), parse_term("ret y", "rmm"))


def test_alpha_eq_nested_permuted(coin_sig):
    t1 = parse_term("do x <- coin in do y <- coin in ret pair2(x,y)",
                    "rmm", coin_sig)
    t2 = parse_term("do u <- coin in do v <- coin in ret pair2(u,v)",
                    "rmm", coin_sig)
    t3 = parse_term("do u <- coin in do v <- coin in ret pair2(v,u)",
                    "rmm", coin_sig)
    assert alpha_eq(t1, t2)
    assert not alpha_eq(t1, t3)


def test_subst_basics():
    u = parse_term("ret z", "rmm")
    assert subst_free(var("x"), "x", u) == u
    # bound occurrences shadow nothing in the locally nameless form:
    # substitution never touches indices
    t = parse_term("do y <- v in ret y", "rmm")
    assert subst_free(t, "y", u) == t


def test_subst_free_vars():
    t = parse_term("ret x", "rmm")
    s = subst_free(t, "x", parse_term("not2", "rmm"))
    assert free_vars(s) == frozenset({"not2"})


def test_open_close_inverse(coin_sig):
    t = parse_term("do x <- coin in ret pair2(x, w)", "rmm", coin_sig)
    body = t.subs[1]
    assert close_binder(open_binder(body, "fresh"), "fresh") == body


def test_print_parse_roundtrip_hand(coin_sig, lnl_sig):
    cases = [
        ("rmm", coin_sig, "do x <- coin in do y <- coin in ret pair2(x,y)"),
        ("rmm", coin_sig, "pi1 (ret (), coin)"),
        ("lnl", lnl_sig,
         "lam (f:R(gr(2) -o T(A))). R(lam (s:gr(2)). app (derelict f) s)"),
        ("lnl", lnl_sig, "lam (x:gr(2 * 3)). let (t,r) = unmerge x in (t, r)"),
        ("lnl", lnl_sig, "regrade<4>=2> s"),
    ]
    for calc, sig, text in cases:
        t = parse_term(text, calc, sig)
        assert parse_term(term_to_text(t), calc, sig) == t


@pytest.mark.parametrize("calculus", ["rmm", "gmm", "arrow"])
def test_print_parse_roundtrip_typed_corpus(calculus, sweep_sig, gmm_sig,
                                            arrow_sig):
    """parse o print on well-typed generated terms."""
    sig = {"rmm": sweep_sig, "gmm": gmm_sig, "arrow": arrow_sig}[calculus]
    objects = {"rmm": ["1o", "2"], "gmm": ["A", "B"],
               "arrow": ["B", "C"]}[calculus]
    rng = random.Random(hash(calculus) & 0xffff)
    g = genmod.Gen(rng, sig, calculus, objects)
    made = 0
    while made < 200:
        ctx = genmod.seeded_context(calculus, objects, g.gen_context(1))
        ty = g.gen_type(2)
        try:
            t = g.gen_term(ctx, ty, rng.randint(1, 8))
        except ValueError:
            continue
        made += 1
        printed = term_to_text(t)
        assert parse_term(printed, calculus, sig) == t, printed


ROUNDTRIP_SIGS = {
    "urmm": "calculus urmm\nobject 2\ngen not : 2 -> 2\nop coin : () -> T(2)\n",
    "rmm": "calculus rmm\nobject 2\ngen not : 2 -> 2\nop coin : () -> T(2)\n",
    "gmm": "calculus gmm\nobject A\ngrading builtin mult\n",
    "lnl": "calculus lnl\nobject A\ngrading builtin mult\n",
    "arrow": "calculus arrow\nobject B\n",
    "armm": "calculus armm\nobject B\n",
}


@pytest.mark.parametrize("calculus", sorted(ROUNDTRIP_SIGS))
def test_print_parse_roundtrip_raw_corpus(calculus):
    """parse o print is the identity up to alpha on 500+ well-formed terms
    for every calculus."""
    from relmeta.signatures import load_signature
    sig = load_signature(ROUNDTRIP_SIGS[calculus])
    rng = random.Random(hash(calculus) & 0xffff)
    for i in range(520):
        t = genmod.gen_raw_term(rng, calculus, sig,
                                depth=rng.randint(1, 4))
        printed = term_to_text(t)
        assert parse_term(printed, calculus, sig) == t, printed


def test_type_roundtrip():
    for text in ["1", "I", "J(2) * T(2)", "A -> B -> A", "gr(2 * 3)",
                 "R(gr(2) -o T(A))", "B ~> (B ~> B)", "B => T(B)",
                 "T_3(A * A)", "T_(2 * 3)(A)", "K(A * 1)"]:
        ty = parse_type(text)
        assert parse_type(syntax.type_to_text(ty)) == ty


def test_judgement_zone_validation():
    one = ("x", parse_type("1"))
    for args, form, message in [
            (("rmm", [(), ()]), None,
             "rmm/A judgements take 1 context zone(s), got 2"),
            (("rmm", [()]), "C", "judgement form 'C' does not exist in rmm"),
            (("armm", [(one, one)]), "A", "duplicate context variable 'x'"),
            (("lnl", [(one,), (one,)]), None,
             "duplicate context variable 'x'")]:
        with pytest.raises(SyntaxError_) as e:
            judgement(*args, var("x"), parse_type("1"), form=form)
        assert str(e.value) == message


names = st.sampled_from(["x", "y", "z", "w"])


@st.composite
def closed_terms(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from([syntax.UNIT, var(draw(names))]))
    k = draw(st.integers(0, 4))
    if k == 0:
        return syntax.ret(draw(closed_terms(depth - 1)))
    if k == 1:
        return syntax.pair(draw(closed_terms(depth - 1)),
                           draw(closed_terms(depth - 1)))
    if k == 2:
        x = draw(names)
        body = close_binder(draw(closed_terms(depth - 1)), x)
        return syntax.do(draw(closed_terms(depth - 1)), body, hint=x)
    if k == 3:
        return syntax.pi1(draw(closed_terms(depth - 1)))
    return var(draw(names))


@given(closed_terms(), names)
@settings(max_examples=200, deadline=None)
def test_subst_self_is_identity(t, x):
    assert alpha_eq(subst_free(t, x, var(x)), t)


@given(closed_terms(), names, closed_terms())
@settings(max_examples=200, deadline=None)
def test_subst_free_var_lemma(t, x, u):
    s = subst_free(t, x, u)
    fv_t, fv_u, fv_s = free_vars(t), free_vars(u), free_vars(s)
    if x in fv_t:
        assert fv_s == (fv_t - {x}) | fv_u
    else:
        assert s == t
