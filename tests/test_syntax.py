import io
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, fixture_text
from relmeta import cli, equations
from relmeta import gen as genmod
from relmeta import syntax
from relmeta.signatures import load_signature
from relmeta.syntax import (SyntaxError_, alpha_eq, bsubst, bv,
                            close_binder, free_vars, judgement, parse_context,
                            parse_term, parse_type, replace_at, subterm_at,
                            term_to_text, var)


def subst(t, x, u):
    """Substitute u, which has no dangling bvar, for the free name x."""
    return bsubst(close_binder(t, x), 0, u)


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
    assert subst(var("x"), "x", u) == u
    # bound occurrences shadow nothing in the locally nameless form:
    # substitution never touches indices
    t = parse_term("do y <- v in ret y", "rmm")
    assert subst(t, "y", u) == t


def test_subst_free_vars():
    t = parse_term("ret x", "rmm")
    s = subst(t, "x", parse_term("not2", "rmm"))
    assert free_vars(s) == frozenset({"not2"})


def test_open_close_inverse(coin_sig):
    t = parse_term("do x <- coin in ret pair2(x, w)", "rmm", coin_sig)
    body = t.subs[1]
    assert close_binder(bsubst(body, 0, var("fresh")), "fresh") == body


def test_print_parse_roundtrip_hand(coin_sig, lnl_sig, presented_sig):
    cases = [
        ("rmm", coin_sig, "do x <- coin in do y <- coin in ret pair2(x,y)"),
        ("rmm", coin_sig, "pi1 (ret (), coin)"),
        ("lnl", lnl_sig,
         "lam (f:R(gr(2) -o T(A))). R(lam (s:gr(2)). app (derelict f) s)"),
        ("lnl", lnl_sig, "lam (x:gr(2 * 3)). let (t,r) = unmerge x in (t, r)"),
        ("lnl", lnl_sig, "regrade<4>=2> s"),
        # a presented grading's identity prints as id_m, and reads back
        ("gmm", presented_sig, "regrade<id_m> u"),
        ("gmm", presented_sig, "regrade<up;up> regrade<up> u"),
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
@settings(max_examples=200, deadline=None, derandomize=True)
def test_subst_self_is_identity(t, x):
    assert alpha_eq(subst(t, x, var(x)), t)


@given(closed_terms(), names, closed_terms())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_subst_free_var_lemma(t, x, u):
    s = subst(t, x, u)
    fv_t, fv_u, fv_s = free_vars(t), free_vars(u), free_vars(s)
    if x in fv_t:
        assert fv_s == (fv_t - {x}) | fv_u
    else:
        assert s == t


# str() of the SyntaxError_ each input raises, as the token-at-a-time
# tokenizer and the close_binder parser worded and placed it
SYNTAX_ERRORS = [
    ("char mid-line", lambda c, l: parse_term("do x <- coin in ret $ x",
                                              "rmm", c),
     "1:21: unexpected character '$'"),
    ("char at end", lambda c, l: parse_term("do x <- coin in ret x?", "rmm",
                                            c),
     "1:22: unexpected character '?'"),
    ("char after comment", lambda c, l: parse_term(
        "# a comment\ndo x <- coin in\n  ret @x", "rmm", c),
     "3:7: unexpected character '@'"),
    ("char after crlf", lambda c, l: parse_term("do x <- coin in\r\n\tret !",
                                                "rmm", c),
     "2:6: unexpected character '!'"),
    ("trailing", lambda c, l: parse_term("coin coin", "rmm", c),
     "1:6: trailing input starting at 'coin'"),
    ("trailing on line 2", lambda c, l: parse_term("ret x\n  ret y", "rmm"),
     "2:3: trailing input starting at 'ret'"),
    ("let", lambda c, l: parse_term("let", "lnl", l),
     "1:4: expected a let pattern: (), (x,y), J(a), or K(a)"),
    ("let and newline", lambda c, l: parse_term("let\n", "lnl", l),
     "2:1: expected a let pattern: (), (x,y), J(a), or K(a)"),
    ("J(", lambda c, l: parse_type("J("), "1:3: expected a type, found None"),
    ("x :", lambda c, l: parse_context("x :"),
     "1:4: expected a type, found None"),
    ("empty", lambda c, l: parse_term(""), "1:1: expected a term, found None"),
    ("blank", lambda c, l: parse_term("   "),
     "1:4: expected a term, found None"),
    ("only a comment", lambda c, l: parse_term("# only a comment"),
     "1:17: expected a term, found None"),
    ("empty type", lambda c, l: parse_type(""),
     "1:1: expected a type, found None"),
    ("do without a body", lambda c, l: parse_term("do x <- coin in  ", "rmm",
                                                  c),
     "1:14: expected a term, found None"),
    ("keyword as a variable", lambda c, l: parse_term(
        "do x <- coin in pi1 in", "rmm", c),
     "1:21: keyword 'in' cannot be used as a variable"),
    ("keyword as a binder", lambda c, l: parse_term(
        "do in <- coin in ret ()", "rmm", c),
     "1:4: expected a variable name, found 'in'"),
    ("arity", lambda c, l: parse_term("do x <- coin in ret pair2(x)", "rmm",
                                      c),
     "1:29: operation pair2 expects 2 argument(s), got 1"),
    ("arity 0", lambda c, l: parse_term("coin(x)", "rmm", c),
     "1:5: trailing input starting at '('"),
    ("lam without parentheses", lambda c, l: parse_term("lam x. x", "lnl", l),
     "1:5: expected '(', found 'x'"),
    ("lam without a dot", lambda c, l: parse_term("lam (x:A) x", "lnl", l),
     "1:11: expected '.', found 'x'"),
    ("let without in", lambda c, l: parse_term("let (x,y) = p x", "lnl", l),
     "1:15: expected 'in', found 'x'"),
    ("let pattern", lambda c, l: parse_term("let [x] = p in x", "lnl", l),
     "1:6: expected a let pattern: (), (x,y), J(a), or K(a)"),
    ("admissible", lambda c, l: parse_term(
        "do x <- coin in let J(a) = coin in (lam (y:2). y)", "rmm", c),
     "term former 'letj' is not part of rmm"),
    ("proof orientation", lambda c, l: equations.parse_proof(
        "ax1 at root lr sideways\n", c, "rmm"),
     "line 1: expected 'fwd' or 'bwd', found 'sideways'"),
    ("proof path", lambda c, l: equations.parse_proof(
        "# c\nax1 at 0.x fwd\n", c, "rmm"),
     "line 2: expected `root` or a path of indices, found '0.x'"),
    ("proof substitution", lambda c, l: equations.parse_proof(
        "ax1 at 1 with {x := ret $} fwd\n", c, "rmm"),
     "line 1: unexpected character '$'"),
    ("proof trailing", lambda c, l: equations.parse_proof(
        "ax1 at root fwd fwd\n", c, "rmm"),
     "line 1: trailing input starting at 'fwd'"),
    ("sig axiom", lambda c, l: load_signature(
        fixture_text("coin.sig")
        + "axiom do x <- coin in ret ( = ret () in [] : T(1)\n"),
     "line 15: expected a term, found '='"),
    ("sig axiom trailing", lambda c, l: load_signature(
        fixture_text("coin.sig") + "axiom coin = coin in [] : T(2) T\n"),
     "line 15: trailing input after axiom"),
    ("sig op", lambda c, l: load_signature(
        fixture_text("coin.sig") + "op flip : (x : J(2) -> T(2)\n"),
     "line 15: expected ')', found None"),
]


@pytest.mark.parametrize("make, message",
                         [pytest.param(m, msg, id=name)
                          for name, m, msg in SYNTAX_ERRORS])
def test_syntax_error_messages(make, message, coin_sig, lnl_sig):
    with pytest.raises(SyntaxError_) as e:
        make(coin_sig, lnl_sig)
    assert str(e.value) == message


@pytest.mark.parametrize("text, tokens", [
    ("a # foo", ["a"]), ("a # foo\n", ["a"]), ("   ", []), ("x #y z", ["x"]),
    ("# x\nab # c\n(x)#", ["ab", "(", "x", ")"]), ("a\n#c\n  b", ["a", "b"]),
    ("f(x)->y~>z", ["f", "(", "x", ")", "->", "y", "~>", "z"]),
    ("12ab x' _1", ["12", "ab", "x'", "_1"])])
def test_tokenize_skips_whitespace_and_comments(text, tokens):
    assert syntax.tokenize(text) == tokens + [None]


def test_repl_syntax_error_messages(monkeypatch, capsys):
    script = ":type T(2)\n:eq coin = coin garbage\n:eq do x <- coin in\n" \
        ":eq coin = coin )\n:eq coin = coin $\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(script))
    assert cli.main(["repl", "--sig", fixture_path("coin.sig")]) == 0
    assert capsys.readouterr().out.split("relmeta> ")[1:] == [
        "", "error: 1:13: trailing input starting at 'garbage'\n",
        "error: 1:14: expected a term, found None\n",
        "error: 1:13: trailing input starting at ')'\n",
        "error: 1:13: unexpected character '$'\n", ""]


def _same(t, u) -> bool:
    """t == u with the hints compared too, walked in a loop: `==` on terms
    recurses once per level."""
    todo = [(t, u)]
    while todo:
        a, b = todo.pop()
        if (a.kind, a.name, a.index, a.xi, a.tyann, a.hints, len(a.subs)) != \
                (b.kind, b.name, b.index, b.xi, b.tyann, b.hints, len(b.subs)):
            return False
        todo.extend(zip(a.subs, b.subs))
    return True


def _do_chain(n):
    return "".join(f"do x{i} <- coin in " for i in range(n)) + "ret x0"


def _closed_do_chain(n, coin):
    """The do chain built as the parser once did, closing each body over
    its binder."""
    t = syntax.ret(var("x0"))
    for i in reversed(range(n)):
        t = syntax.do(coin, close_binder(t, f"x{i}"), hint=f"x{i}")
    return t


CHAINS = {
    "do": ("rmm", _do_chain),
    "letpair": ("lnl", lambda n: "let (x0,y0) = p in " + "".join(
        f"let (x{i},y{i}) = y{i - 1} in " for i in range(1, n)) + "(x0, y1)"),
    "lam": ("lnl", lambda n: "".join(f"lam (x{i}:A). " for i in range(n))
            + "x0"),
    "lamarrow": ("arrow", lambda n: "".join(f"lamarrow x{i}. "
                                            for i in range(n)) + "x0"),
    "lam arrow": ("arrow", lambda n: "".join(f"lam (x{i}:B). "
                                             for i in range(n)) + "x0"),
}


@pytest.mark.parametrize("former", sorted(CHAINS))
def test_deep_spines_parse_and_print(former, coin_sig, lnl_sig, arrow_sig):
    """A spine of 5,000 binders parses, prints and parses back under the
    default recursion limit."""
    assert sys.getrecursionlimit() <= 1000
    calc, text_of = CHAINS[former]
    sig = {"rmm": coin_sig, "lnl": lnl_sig, "arrow": arrow_sig}[calc]
    text = text_of(5000)
    t = parse_term(text, calc, sig)
    printed = term_to_text(t)
    assert printed == text
    assert _same(parse_term(printed, calc, sig), t)
    # x0, the outermost binder, seen from the innermost body
    body = t
    while body.kind == t.kind:
        body = body.subs[-1]
    depth = 5000 * (2 if former == "letpair" else 1)
    assert bv(depth - 1) in (body, *body.subs)


@pytest.mark.parametrize("former", sorted(CHAINS))
def test_deep_spines_hash_and_have_occurrences(former, coin_sig, lnl_sig,
                                               arrow_sig):
    """The hash and the occurrences of a spine of 5,000 binders are filled
    under the default recursion limit, and two spines parsed apart hash
    equal.  (`repr` on terms still recurses once per level.)"""
    assert sys.getrecursionlimit() <= 1000
    calc, text_of = CHAINS[former]
    sig = {"rmm": coin_sig, "lnl": lnl_sig, "arrow": arrow_sig}[calc]
    t, u = (parse_term(text_of(5000), calc, sig) for _ in range(2))
    assert t is not u and hash(t) == hash(u)
    assert t.occ == u.occ == (frozenset({"p"} if former == "letpair"
                                        else ()), 0)
    assert free_vars(t) == t.occ[0]
    body = u
    while body.kind == u.kind:
        body = body.subs[-1]
    depth = 5000 * (2 if former == "letpair" else 1)
    assert body.occ[1].bit_length() == depth  # x0 dangles there


@pytest.mark.parametrize("former", sorted(CHAINS))
def test_deep_spines_compare_and_replace(former, coin_sig, lnl_sig,
                                         arrow_sig):
    """Under the default recursion limit, two spines of 5,000 binders parsed
    apart are `==`, before their hashes are filled and after; a subterm
    replaced 4,000 binders down keeps every other subterm and makes the
    spine unequal, and replacing it back makes it equal again."""
    assert sys.getrecursionlimit() <= 1000
    calc, text_of = CHAINS[former]
    sig = {"rmm": coin_sig, "lnl": lnl_sig, "arrow": arrow_sig}[calc]
    t, u = (parse_term(text_of(5000), calc, sig) for _ in range(2))
    assert t == u and not t != u
    assert hash(t) == hash(u) and t == u
    path = ()
    for _ in range(4000):
        path += (len(subterm_at(t, path).subs) - 1,)
    old = subterm_at(t, path)
    v = replace_at(t, path, var("z"))
    assert subterm_at(v, path) == var("z") and v != t and v != u
    for k in range(len(path)):
        above, here = subterm_at(t, path[:k]), subterm_at(v, path[:k])
        assert here is not above and here.kind == above.kind
        assert all(a is b for i, (a, b) in enumerate(zip(above.subs,
                                                         here.subs))
                   if i != path[k])
    assert replace_at(v, path, old) == t


@pytest.mark.parametrize("former", ["not", "ret"])
def test_deep_prefix_chains_parse(former, coin_sig):
    """A chain of 5,000 prefix formers parses under the default recursion
    limit, `==` to the chain its constructors build (`==` loops, so the
    comparison is stack-safe too)."""
    assert sys.getrecursionlimit() <= 1000
    t = parse_term(f"{former} " * 5000 + "x", "rmm", coin_sig)
    built = var("x")
    for _ in range(5000):
        built = syntax.gen("not", built) if former == "not" \
            else syntax.ret(built)
    assert t == built and hash(t) == hash(built)
    assert t != syntax.ret(built)


@pytest.mark.parametrize("chain, inner", [("ret ", "x"), ("not ", "x"),
                                          ("ret pi1 not pi2 ", "(x, y)")])
def test_deep_prefix_chains_print(chain, inner, coin_sig):
    """A chain of 5,000 prefix formers prints under the default recursion
    limit, as it was written, and parses back to itself."""
    assert sys.getrecursionlimit() <= 1000
    text = chain * (5000 // len(chain.split())) + inner
    t = parse_term(text, "rmm", coin_sig)
    printed = term_to_text(t)
    assert printed == text
    assert parse_term(printed, "rmm", coin_sig) == t


@pytest.mark.parametrize("n", [1, 2, 3, 10, 50])
def test_a_do_chain_parses_as_closing_each_body_did(n, coin_sig):
    coin = syntax.opapp("coin")
    t = parse_term(_do_chain(n), "rmm", coin_sig)
    assert t == _closed_do_chain(n, coin)
    assert repr(t) == repr(_closed_do_chain(n, coin))


def test_binders_resolve_as_closing_each_body_did(coin_sig, lnl_sig):
    """The inner of two equal binders wins; a scrutinee sees the binders
    around it only; of two equal names in one pattern the first wins; an
    operation or generator name is never a variable."""
    coin, x, y = syntax.opapp("coin"), var("x"), var("y")
    do, ret = syntax.do, syntax.ret
    for text, sig, calc, expected in [
        ("do x <- coin in do x <- coin in ret x", coin_sig, "rmm",
         do(coin, close_binder(do(coin, close_binder(ret(x), "x")), "x"))),
        ("do x <- coin in do x <- ret x in ret x", coin_sig, "rmm",
         do(coin, close_binder(do(ret(x), close_binder(ret(x), "x")), "x"))),
        ("do x <- coin in do y <- coin in ret pair2(x, y)", coin_sig, "rmm",
         do(coin, close_binder(do(coin, close_binder(
             ret(syntax.opapp("pair2", x, y)), "y")), "x"))),
        ("do coin <- coin in coin", coin_sig, "rmm",
         do(coin, close_binder(coin, "coin"))),
        ("do not <- coin in ret not y", coin_sig, "rmm",
         do(coin, close_binder(ret(syntax.gen("not", y)), "not"))),
        ("let (x,x) = p in x", lnl_sig, "lnl",
         syntax.letpair(var("p"), close_binder(close_binder(x, "x"), "x"))),
        ("let (x,y) = p in let J(x) = y in (x, y)", lnl_sig, "lnl",
         syntax.letpair(var("p"), close_binder(close_binder(syntax.letj(
             y, close_binder(syntax.pair(x, y), "x")), "x"), "y"))),
    ]:
        assert parse_term(text, calc, sig) == expected, text
    assert parse_term("let (x,x) = p in x", "lnl", lnl_sig).subs[1] == bv(1)
    assert parse_term("do x <- coin in do x <- coin in ret x", "rmm",
                      coin_sig).subs[1].subs[1] == syntax.ret(bv(0))


def test_admissibility_reports_the_first_former_in_preorder(lnl_sig):
    for text, first in [
            ("(let J(a) = c in a, lam (x:A). x)", "letj"),
            ("(lam (x:A). x, let J(a) = c in a)", "lam"),
            ("((u, app f x), let J(a) = c in a)", "app"),
            ("(ret (y, R(z)), lam (x:A). let () = x in x)", "rterm")]:
        t = parse_term(text, "lnl", lnl_sig)
        with pytest.raises(SyntaxError_) as e:
            syntax.check_admissible(t, "rmm")
        assert str(e.value) == f"term former '{first}' is not part of rmm"
