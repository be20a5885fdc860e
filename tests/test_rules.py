"""The rule table: its registration, its schema rows, and the one matcher
that serves the rows and the theory axioms."""

import pytest

from conftest import fixture_path
from relmeta import rules
from relmeta.rules import INDEX, RULES, RuleCtx, match, rule
from relmeta.signatures import load_signature
from relmeta.syntax import (SyntaxError_, Term, base, bv, do, judgement,
                            lam, letpair, parse_type,
                            opapp, parse_term, ret, shift, var)

BY_NAME = {r.name: r for r in RULES}

# the rules tried at a (calculus, head), in order, as the rules written as
# functions registered them
PINNED = """
urmm gen gen.word
urmm do do.beta do.eta do.assoc
rmm var unit.eta
rmm pair unit.eta prod.eta
rmm pi1 unit.eta prod.beta1
rmm pi2 unit.eta prod.beta2
rmm app unit.eta
rmm aapp unit.eta
rmm letj unit.eta
rmm letk unit.eta
rmm opapp unit.eta
rmm gen unit.eta gen.word
rmm jterm unit.eta
rmm kterm unit.eta
rmm lam unit.eta
rmm do unit.eta do.beta do.eta do.assoc
gmm var unit.eta
gmm pair unit.eta prod.eta
gmm pi1 unit.eta prod.beta1
gmm pi2 unit.eta prod.beta2
gmm app unit.eta
gmm aapp unit.eta
gmm letj unit.eta
gmm letk unit.eta
gmm opapp unit.eta
gmm gen unit.eta
gmm jterm unit.eta
gmm kterm unit.eta
gmm lam unit.eta
gmm do unit.eta do.beta do.eta do.assoc do.regrade.body do.regrade.scrutinee
gmm regrade regrade.id regrade.comp
lnl var unit.eta
lnl pair unit.eta prod.eta
lnl pi1 unit.eta prod.beta1
lnl pi2 unit.eta prod.beta2
lnl app unit.eta fun.beta let.hoist.appfun let.hoist.apparg
lnl aapp unit.eta
lnl letj unit.eta letj.beta letj.eta let.hoist.scrut let.exchange
    let.push.ret let.push.grade
lnl letk unit.eta let.hoist.scrut let.exchange
lnl opapp unit.eta
lnl gen unit.eta
lnl jterm unit.eta
lnl kterm unit.eta
lnl lam unit.eta fun.eta let.hoist.lam
lnl do unit.eta do.beta do.eta do.assoc let.hoist.doscrut let.hoist.dobody
lnl regrade regrade.id regrade.comp
lnl letunit letunit.beta letunit.eta let.hoist.scrut let.exchange
    let.push.ret let.push.grade
lnl letpair letpair.beta letpair.eta let.hoist.scrut let.exchange
    let.push.ret let.push.grade grade.unitl grade.unitr grade.sym
    grade.assoc grade.assoc.rev
lnl derelict derelict.beta
lnl rterm derelict.eta
lnl merge grade.merge.unmerge
lnl unmerge grade.unmerge.merge grade.dist
arrow var unit.eta
arrow pair unit.eta prod.eta
arrow pi1 unit.eta prod.beta1
arrow pi2 unit.eta prod.beta2
arrow app unit.eta fun.beta
arrow aapp unit.eta arr.beta
arrow letj unit.eta
arrow letk unit.eta
arrow opapp unit.eta
arrow gen unit.eta
arrow jterm unit.eta
arrow kterm unit.eta
arrow lam unit.eta fun.eta
arrow do unit.eta do.beta do.eta do.assoc
arrow lamarrow arr.eta
armm var unit.eta jk.unit.eta
armm pair unit.eta prod.eta
armm pi1 unit.eta prod.beta1 jk.unit.eta
armm pi2 unit.eta prod.beta2 jk.unit.eta
armm app unit.eta fun.beta.j
armm aapp unit.eta arr.beta jk.unit.eta
armm letj unit.eta letj.beta letj.eta jk.unit.eta letjk.dead letjk.contract
    letjk.pair let.hoist.scrut let.exchange
armm letk unit.eta letk.beta letk.eta jk.unit.eta letjk.dead letjk.contract
    letjk.pair let.hoist.scrut let.exchange
armm opapp unit.eta
armm gen unit.eta
armm jterm unit.eta
armm kterm unit.eta
armm lam unit.eta
armm do unit.eta do.beta do.eta do.assoc jk.unit.eta
armm lamarrow arr.eta fun.eta.j
armm letunit let.hoist.scrut let.exchange
armm letpair let.hoist.scrut let.exchange
"""


def test_the_rules_tried_at_each_head_are_pinned():
    """The table registers the rules each (calculus, head) tries, in the
    order it tries them, as the rule functions did: so the redex order
    and every proof stay as they were."""
    pinned = {}
    for line in PINNED.replace("\n    ", " ").strip().splitlines():
        calc, head, *names = line.split()
        pinned[calc, head] = names
    assert {key: list(dict.fromkeys(r.name for r, _, _ in cands))
            for key, cands in INDEX.heads.items()} == pinned
    assert [r.name for r in RULES if r.search_only] == \
        ["grade.assoc", "grade.assoc.rev"]


def _instance(t: Term) -> Term:
    """A schema side with each metavariable made a fresh free variable,
    applied (as an operation) to its arguments where it has any, and to
    them once more under a binder, and each type metavariable a base type
    of its name."""
    if t.kind == "meta":
        args = tuple(map(_instance, t.subs))
        if not args:
            return var(t.name)
        return opapp(t.name, *args, do(var(t.name), opapp(
            t.name, *(shift(a, 1) for a in args))))
    ty = t.tyann
    if ty is not None and ty.kind == "meta":
        ty = base(ty.name)
    return Term(t.kind, tuple(map(_instance, t.subs)), name=t.name,
                index=t.index, xi=t.xi, tyann=ty, hints=t.hints)


def _fire(name, calc, t):
    """Rule `name` fired on t as the engine fires it: through the index
    (t's recorded type a base type), one row or function at most."""
    t = parse_term(t, calc) if isinstance(t, str) else t
    r = BY_NAME[name]
    ctx = RuleCtx(None, calc, None)
    news = [rewrite(t, ctx) for cand, rewrite in
            INDEX.candidates(calc, r.search_only, t, base("A")) if cand is r]
    assert len(news) <= 1
    return news[0] if news else None


ROWS = [(r, row) for r in RULES for row in r.rows]


@pytest.mark.parametrize("r, row", ROWS,
                         ids=[f"{r.name}-{i}" for i, (r, _) in
                              enumerate(ROWS)])
def test_each_row_rewrites_an_instance_of_its_left_side(r, row):
    """Each row fires on its left side's instance and gives its right
    side's instance, binder names included: the metavariables' arguments
    are the binders themselves, also under a binder of their own, so every
    substitution, shift and re-indexing is seen, also in rows no corpus
    reaches."""
    assert repr(_fire(r.name, r.calculi[0], _instance(row.lhs))) == \
        repr(_instance(row.rhs))


def test_the_table_has_one_row_per_let_kind_and_rule():
    assert len(ROWS) == 56
    assert sum(1 for r in RULES if r.rows) == 36


@pytest.mark.parametrize("name, calc, text, result", [
    ("fun.eta", "lnl", "lam (x:A). app (app f x) x", None),
    ("fun.eta", "lnl", "lam (x:A). app (app f y) x", "app f y"),
    ("arr.eta", "arrow", "lamarrow (x:A). f . x . x", None),
    ("arr.eta", "arrow", "lamarrow (x:A). f . y . x", "f . y"),
    ("fun.eta.j", "armm", "lamarrow (a:A). J(app (app f a) a)", None),
    ("fun.eta.j", "armm", "lamarrow (a:A). J(app f a)", "f"),
    ("letjk.dead", "armm", "let J(a) = s in (a, u)", None),
    ("letjk.dead", "armm", "let K(a) = s in (u, u)", "(u, u)"),
    # a name repeated on a left side matches alpha-equal terms only
    ("prod.eta", "rmm", "(pi1 u, pi2 v)", None),
    ("prod.eta", "rmm", "(pi1 u, pi2 u)", "u"),
    ("letjk.contract", "armm", "let J(a) = s in let J(b) = r in (a, b)",
     None),
    ("letjk.contract", "armm", "let J(a) = s in let J(b) = a in (a, b)",
     None),
    ("letjk.contract", "armm", "let K(a) = s in let K(b) = s in (a, b)",
     "let K(a) = s in (a, a)"),
])
def test_a_metavariable_mentions_only_its_binders(name, calc, text, result):
    """An eta rule's side condition is its metavariable's binder set, and
    a repeated metavariable needs equal terms."""
    new = _fire(name, calc, text)
    assert new == (None if result is None else parse_term(result, calc))


@pytest.mark.parametrize("name, calc, t, result", [
    ("do.assoc", "rmm", "do q <- (do p <- u in ret p) in ret q",
     do(var("u"), do(ret(bv(0)), ret(bv(0)), hint="q"), hint="p")),
    # binders without names print as the constructors name them
    ("do.assoc", "rmm",
     Term("do", (Term("do", (var("u"), ret(bv(0)))), ret(bv(0)))),
     do(var("u"), do(ret(bv(0)), ret(bv(0)))),),
    ("let.hoist.lam", "lnl", "lam (f:A). let (p, q) = s in app (app g p) f",
     letpair(var("s"), lam(base("A"), Term("app", (
         Term("app", (var("g"), bv(2))), bv(0))), hint="f"), "p", "q")),
    ("letpair.beta", "lnl", "let (p, q) = (u, v) in do r <- q in ret p",
     do(var("v"), ret(var("u")), hint="r")),
])
def test_right_sides_take_the_left_sides_binder_names(name, calc, t, result):
    """A right-side binder takes the names of the left-side binder of the
    same schema name, and its annotation (hints are not compared by ==,
    so by repr)."""
    assert repr(_fire(name, calc, t)) == repr(result)


def test_an_axiom_variable_under_a_binder_matches_what_it_did():
    """An axiom's variables are metavariables that may mention no binder
    of the axiom: under `do z <- ...`, x matches a variable bound outside
    the redex, and not z."""
    with open(fixture_path("store.sig")) as f:
        sig = load_signature(f.read())
    ax = sig.theory.axioms[0]  # do z <- assign(x,y) in lookup(x) = ...
    axvars = {x for x, _ in ax.zones[0]}
    t = parse_term("do p <- ref(v) in do z <- assign(p, v) in lookup(p)",
                   "rmm", sig)
    assert match(ax.lhs, t, axvars, {}) is None
    assert match(ax.lhs, t.subs[1], axvars, {}) == {"x": bv(0),
                                                    "y": var("v")}
    t = parse_term("do z <- assign(a, y) in lookup(z)", "rmm", sig)
    assert match(ax.lhs, t, axvars, {}) is None
    # do z <- assign(x,y) in ret y, with x the binder outside
    assert rules.instantiate(ax.rhs, {"x": bv(0), "y": var("v")}) == \
        do(opapp("assign", bv(0), var("v")), ret(var("v")))


@pytest.mark.parametrize("heads, row, msg", [
    (("do",), "do x <- u in t[y] ~> t",
     "the arguments of t are not distinct binders in scope"),
    (("letpair",), "let (x, y) = u in t[x, x] ~> t[x, x]",
     "the arguments of t are not distinct binders in scope"),
    (("do",), "do x <- u in ret x ~> v",
     "v is not on the left side with 0 argument(s)"),
    (("lam",), "lam (x:X). t ~> lam (x:Y). t",
     "Y is not on the left side with 0 argument(s)"),
    (("pi1",), "pi2 (u, v) ~> v",
     "the head pi2 is not among the rule's heads"),
    (("do",), "do x <- u in ret x",
     "expected `lhs ~> rhs`"),
])
def test_a_malformed_row_is_an_error(heads, row, msg):
    """The table's checks raise, so they hold under python -O too."""
    with pytest.raises(SyntaxError_) as e:
        rule("bad", ("rmm",), heads, row)
    assert str(e.value) == f"rule bad: {msg}: {row}"


def test_rows_of_one_rule_are_told_apart_by_their_kinds():
    """The index tries every row whose kinds fit a position, so two rows of
    one rule must differ in the kind of one child of their head."""
    rows = ("do x <- u in ret x ~> u", "do x <- u in t[x] ~> u")
    with pytest.raises(SyntaxError_) as e:
        rule("bad", ("rmm",), ("do",), *rows)
    assert str(e.value) == ("rule bad: its kinds do not tell the row apart"
                            f" from an earlier one: {rows[1]}")
    # each would match `do x <- ret u in ret x`
    with pytest.raises(SyntaxError_):
        rule("bad", ("rmm",), ("do",), rows[0],
             "do x <- ret u in t[x] ~> t[u]")
    rule("good", ("rmm",), ("pi1", "pi2"), "pi1 (u, v) ~> u",
         "pi2 (u, v) ~> v")


@pytest.mark.parametrize("text, ty, path, rule_name", [
    ("do y <- regrade<up> u in ret (y, y)", "T_m(A * A)", (),
     "do.regrade.scrutinee"),
    ("do x <- u in regrade<up> u", "T_m(A)", (), "do.regrade.body"),
    ("do x <- u in do y <- regrade<up> u in ret (x, y)", "T_m(A * A)", (1,),
     "do.regrade.scrutinee"),
])
def test_a_regrade_hoist_declines_a_tensor_the_grading_cannot_make(
        presented_sig, text, ty, path, rule_name):
    """A presented grading tensors identity morphisms only, so hoisting a
    generator's regrade out of a bind, which tensors it with the other
    side's identity, cannot be computed: the rule is asked and declines, as
    regrade.comp does where it cannot compose, and the term is its own
    normal form."""
    from relmeta.equations import normalize, redexes
    from relmeta.typecheck import check
    j = judgement("gmm", [[("u", parse_type("T_m(A)", presented_sig))]],
                  parse_term(text, "gmm", presented_sig),
                  parse_type(ty, presented_sig))
    c = check(j, presented_sig)
    sub = j.term.subs[1] if path else j.term
    node = c.derivation.children[1] if path else c.derivation
    assert rule_name in [r.name for r, _ in INDEX.candidates(
        "gmm", False, sub, node.ty)]
    assert list(redexes(c, presented_sig)) == []
    assert normalize(j, presented_sig).term == j.term


def test_an_identity_regrade_hoists_and_drops_under_a_presented_grading(
        presented_sig):
    """A presented grading has each identity morphism (an empty word) and
    tensors identities, so an identity regrade of a bind's scrutinee is
    hoisted out of the bind, as the identity of the bind's grade, and then
    dropped."""
    from relmeta.equations import normalize
    from relmeta.syntax import gname
    g = presented_sig.grading
    m, e = gname("m"), g.unit()
    assert g.has_mor(g.id_mor(m)) and g.has_mor(g.id_mor(e))
    assert g.tensor_mor(g.id_mor(m), g.id_mor(e)) == g.id_mor(m)
    j = judgement("gmm", [[("u", parse_type("T_m(A)", presented_sig))]],
                  parse_term("do x <- regrade<id_m> u in ret (x, x)", "gmm",
                             presented_sig),
                  parse_type("T_m(A * A)", presented_sig))
    out = normalize(j, presented_sig)
    assert out.term == parse_term("do x <- u in ret (x, x)", "gmm",
                                  presented_sig)
    assert [(s.name, s.path) for s in out.steps] == \
        [("do.regrade.scrutinee", ()), ("regrade.id", ())]
