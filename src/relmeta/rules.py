"""The oriented rewrite rules of the four equational theories.

Each rule is a function from a subterm (plus position info) to a
replacement, or None when it does not fire.  Orientation follows the usual
discipline: beta, unit, projection and let-beta laws left to right; eta
laws as contractions guarded by occurrence side conditions; do-associativity
toward right nesting; commuting conversions hoist lets outward, with
ret/merge/unmerge popping outward through lets; symmetric exchange pairs
are broken by a fixed priority on let kinds and, between equal kinds, by a
canonical term ordering.

Rules marked search_only are sound equations that do not participate in
normalization (their two orientations are registered separately for the
bounded equality search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .syntax import (GradeMor, Term, bv, child_binders, jterm, kterm,
                     letj, letk, letpair, letunit, pair, regrade, ret,
                     shift, term_key, unmerge, uses_bvar, with_subs)
from . import syntax


@dataclass
class RuleCtx:
    sig: object
    calculus: str
    path: tuple
    ann: dict  # position -> (judgement form, TypeExpr) of the node there

    @property
    def ty(self):
        info = self.ann.get(self.path)
        return info[1] if info else None

    def typeof(self, rel):
        info = self.ann.get(self.path + tuple(rel))
        return info[1] if info else None

    @property
    def grading(self):
        return self.sig.grading


@dataclass
class Rule:
    name: str
    calculi: tuple
    heads: tuple  # term kinds the rule can fire on
    rewrite: Callable[[Term, RuleCtx], Term | None]
    search_only: bool = False
    note: str = ""


_RULES: list[Rule] = []


def rule(name, calculi, heads, search_only=False, note=""):
    def deco(fn):
        _RULES.append(Rule(name, tuple(calculi), tuple(heads), fn,
                           search_only, note))
        return fn
    return deco


def rules_for(calculus: str, include_search=False) -> list[Rule]:
    return [r for r in _RULES
            if calculus in r.calculi and (include_search or not r.search_only)]


# ---------------------------------------------------------------------------
# small de Bruijn helpers

def unshift(t: Term, by: int = 1, cutoff: int = 0) -> Term:
    return shift(t, -by, cutoff)


def map_bvar(t: Term, fn, depth: int = 0) -> Term:
    if t.kind == "bvar":
        if t.index >= depth:
            return bv(depth + fn(t.index - depth))
        return t
    if not t.subs:
        return t
    return with_subs(t, (map_bvar(s, fn, depth + child_binders(t, i))
                         for i, s in enumerate(t.subs)))


def rotate_out(t: Term, nb: int) -> Term:
    """Frame [lets(nb), b] -> [b, lets(nb)]: the single outer binder moves
    innermost."""
    def fn(i):
        if i < nb:
            return i + 1
        if i == nb:
            return 0
        return i
    return map_bvar(t, fn)


def rotate2(t: Term, nb1: int, nb2: int) -> Term:
    """Frame [k2(nb2), k1(nb1)] -> [k1(nb1), k2(nb2)]."""
    def fn(i):
        if i < nb2:
            return i + nb1
        if i < nb1 + nb2:
            return i - nb2
        return i
    return map_bvar(t, fn)


CARTESIAN = ("rmm", "gmm", "lnl", "arrow", "armm")

LET_KINDS = {"letunit": 0, "letpair": 2, "letj": 1, "letk": 1}
LET_PRIORITY = {"letunit": 1, "letpair": 2, "letj": 3, "letk": 4}


def mklet(kind, scrut, body, proto: Term | None = None) -> Term:
    hints = proto.hints if proto is not None and proto.kind == kind else None
    if kind == "letunit":
        return letunit(scrut, body)
    if kind == "letpair":
        return letpair(scrut, body, *(hints or ("x", "y")))
    if kind == "letj":
        return letj(scrut, body, *(hints or ("a",)))
    return letk(scrut, body, *(hints or ("a",)))


# ---------------------------------------------------------------------------
# unit / product laws

@rule("unit.eta", CARTESIAN, heads=("var", "pair", "pi1", "pi2", "app",
                                    "aapp", "letj", "letk", "opapp", "gen",
                                    "jterm", "kterm", "lam", "do"),
      note="terms of unit type collapse to ()")
def unit_eta(t, ctx):
    ty = ctx.ty
    if ty is None or ty.kind != "unit1" or t.kind == "unit":
        return None
    if ctx.calculus == "lnl":
        info = ctx.ann.get(ctx.path)
        if info and info[0] == "C":
            return None  # the linear unit I has let-form laws instead
    return syntax.UNIT


@rule("prod.beta1", CARTESIAN, heads=("pi1",))
def prod_beta1(t, ctx):
    if t.subs[0].kind == "pair":
        return t.subs[0].subs[0]
    return None


@rule("prod.beta2", CARTESIAN, heads=("pi2",))
def prod_beta2(t, ctx):
    if t.subs[0].kind == "pair":
        return t.subs[0].subs[1]
    return None


@rule("prod.eta", CARTESIAN, heads=("pair",))
def prod_eta(t, ctx):
    a, b = t.subs
    if a.kind == "pi1" and b.kind == "pi2" and a.subs[0] == b.subs[0]:
        return a.subs[0]
    return None


# ---------------------------------------------------------------------------
# base-category morphism words

@rule("gen.word", ("urmm", "rmm"), heads=("gen",),
      note="collapse generator chains to normal composition words")
def gen_word(t, ctx):
    word = []
    inner = t
    while inner.kind == "gen":
        word.append(inner.name)
        inner = inner.subs[0]
    try:
        nf = ctx.sig.category.normalize_word(tuple(word))
    except Exception:
        return None
    if nf == tuple(word):
        return None
    out = inner
    for name in reversed(nf):
        out = syntax.gen(name, out)
    return out


# ---------------------------------------------------------------------------
# monadic sequencing

@rule("do.beta", syntax.CALCULI, heads=("do",),
      note="do x <- ret u in t  ~>  t[u/x]")
def do_beta(t, ctx):
    u, body = t.subs
    if u.kind == "ret":
        return syntax.bsubst(body, 0, u.subs[0])
    return None


@rule("do.eta", syntax.CALCULI, heads=("do",),
      note="do x <- u in ret x  ~>  u")
def do_eta(t, ctx):
    u, body = t.subs
    if body.kind == "ret" and body.subs[0].kind == "bvar" \
            and body.subs[0].index == 0:
        return u
    return None


@rule("do.assoc", syntax.CALCULI, heads=("do",),
      note="nested binds reassociate to the right-nested form")
def do_assoc(t, ctx):
    u, v = t.subs
    if u.kind != "do":
        return None
    u0, t0 = u.subs
    v2 = shift(v, 1, 1)
    inner = syntax.do(t0, v2, hint=t.hints[0] if t.hints else "x")
    return syntax.do(u0, inner, hint=u.hints[0] if u.hints else "x")


# ---------------------------------------------------------------------------
# graded regrading (strict gradings: structural morphisms are identities)

@rule("regrade.id", ("gmm", "lnl"), heads=("regrade",))
def regrade_id(t, ctx):
    # only syntactically written identities: an identity morphism between
    # differently written grades (say 2 and 1*2) is a factorization cast
    # that an enclosing unmerge may rely on
    if t.xi.word:
        return None
    if t.xi.src == t.xi.tgt:
        return t.subs[0]
    return None


@rule("regrade.comp", ("gmm", "lnl"), heads=("regrade",),
      note="stacked grade actions compose")
def regrade_comp(t, ctx):
    g = ctx.grading
    inner = t.subs[0]
    if g is None or inner.kind != "regrade":
        return None
    try:
        if ctx.calculus == "gmm":
            composite = g.compose(inner.xi, t.xi)
        else:
            composite = g.compose(t.xi, inner.xi)
    except Exception:
        return None
    return regrade(composite, inner.subs[0])


@rule("do.regrade.body", ("gmm",), heads=("do",),
      note="regrades hoist out of a bind body")
def do_regrade_body(t, ctx):
    g = ctx.grading
    u, body = t.subs
    if g is None or body.kind != "regrade":
        return None
    uty = ctx.typeof((0,))
    if uty is None or uty.kind != "tgr":
        return None
    l = g.norm(uty.grade)
    xi = g.norm_mor(body.xi)
    new_xi = g.tensor_mor(GradeMor(l, l), xi)
    return regrade(new_xi, syntax.do(u, body.subs[0],
                                     hint=t.hints[0] if t.hints else "x"))


@rule("do.regrade.scrutinee", ("gmm",), heads=("do",),
      note="regrades hoist out of a bind scrutinee")
def do_regrade_scrutinee(t, ctx):
    g = ctx.grading
    u, body = t.subs
    if g is None or u.kind != "regrade":
        return None
    bty = ctx.typeof((1,))
    if bty is None or bty.kind != "tgr":
        return None
    l = g.norm(bty.grade)
    xi = g.norm_mor(u.xi)
    new_xi = g.tensor_mor(xi, GradeMor(l, l))
    return regrade(new_xi, syntax.do(u.subs[0], body,
                                     hint=t.hints[0] if t.hints else "x"))


# ---------------------------------------------------------------------------
# lambda calculi

@rule("fun.beta", ("lnl", "arrow"), heads=("app",),
      note="(lam (x:X). t) u  ~>  t[u/x]  (Cartesian and linear)")
def fun_beta(t, ctx):
    f, a = t.subs
    if f.kind != "lam":
        return None
    if ctx.calculus == "lnl" and f.tyann is not None \
            and f.tyann.kind == "grty":
        # keep the factorization the binder annotation promised: a grade
        # written as a tensor may be consumed by an unmerge in the body
        aty = ctx.typeof((1,))
        if aty is not None and aty.kind == "grty" \
                and aty.grade != f.tyann.grade:
            a = regrade(GradeMor(aty.grade, f.tyann.grade), a)
    return syntax.bsubst(f.subs[0], 0, a)


@rule("fun.eta", ("lnl", "arrow"), heads=("lam",),
      note="lam (x:X). (t x)  ~>  t  when x not free in t")
def fun_eta(t, ctx):
    body = t.subs[0]
    if body.kind == "app" and body.subs[1].kind == "bvar" \
            and body.subs[1].index == 0 and not uses_bvar(body.subs[0], 0):
        return unshift(body.subs[0], 1, 0)
    return None


@rule("arr.beta", ("arrow", "armm"), heads=("aapp",),
      note="(lamarrow x. t) . u  ~>  t[u/x]")
def arr_beta(t, ctx):
    f, a = t.subs
    if f.kind == "lamarrow":
        return syntax.bsubst(f.subs[0], 0, a)
    return None


@rule("arr.eta", ("arrow", "armm"), heads=("lamarrow",),
      note="lamarrow x. (u . x)  ~>  u  when x not free in u")
def arr_eta(t, ctx):
    body = t.subs[0]
    if body.kind == "aapp" and body.subs[1].kind == "bvar" \
            and body.subs[1].index == 0 and not uses_bvar(body.subs[0], 0):
        return unshift(body.subs[0], 1, 0)
    return None


@rule("fun.beta.j", ("armm",), heads=("app",),
      note="(lamarrow a. J(u)) v  ~>  u[v/a]")
def fun_beta_j(t, ctx):
    f, a = t.subs
    if f.kind == "lamarrow" and f.subs[0].kind == "jterm":
        return syntax.bsubst(f.subs[0].subs[0], 0, a)
    return None


@rule("fun.eta.j", ("armm",), heads=("lamarrow",),
      note="lamarrow a. J(u a)  ~>  u  when a not free in u")
def fun_eta_j(t, ctx):
    body = t.subs[0]
    if body.kind == "jterm" and body.subs[0].kind == "app":
        f, a = body.subs[0].subs
        if a.kind == "bvar" and a.index == 0 and not uses_bvar(f, 0):
            return unshift(f, 1, 0)
    return None


# ---------------------------------------------------------------------------
# let laws (linear and three-zone calculi)

@rule("letunit.beta", ("lnl",), heads=("letunit",))
def letunit_beta(t, ctx):
    if t.subs[0].kind == "unit":
        return t.subs[1]
    return None


@rule("letunit.eta", ("lnl",), heads=("letunit",))
def letunit_eta(t, ctx):
    if t.subs[1].kind == "unit":
        return t.subs[0]
    return None


@rule("letpair.beta", ("lnl",), heads=("letpair",))
def letpair_beta(t, ctx):
    scrut, body = t.subs
    if scrut.kind != "pair":
        return None
    a, b = scrut.subs
    step1 = syntax.bsubst(body, 0, shift(b, 1))
    return syntax.bsubst(step1, 0, a)


@rule("letpair.eta", ("lnl",), heads=("letpair",))
def letpair_eta(t, ctx):
    body = t.subs[1]
    if body.kind == "pair" and body.subs[0] == bv(1) and body.subs[1] == bv(0):
        return t.subs[0]
    return None


@rule("letj.beta", ("lnl", "armm"), heads=("letj",))
def letj_beta(t, ctx):
    if t.subs[0].kind == "jterm":
        return syntax.bsubst(t.subs[1], 0, t.subs[0].subs[0])
    return None


@rule("letj.eta", ("lnl", "armm"), heads=("letj",))
def letj_eta(t, ctx):
    body = t.subs[1]
    if body.kind == "jterm" and body.subs[0] == bv(0):
        return t.subs[0]
    return None


@rule("letk.beta", ("armm",), heads=("letk",))
def letk_beta(t, ctx):
    if t.subs[0].kind == "kterm":
        return syntax.bsubst(t.subs[1], 0, t.subs[0].subs[0])
    return None


@rule("letk.eta", ("armm",), heads=("letk",))
def letk_eta(t, ctx):
    body = t.subs[1]
    if body.kind == "kterm" and body.subs[0] == bv(0):
        return t.subs[0]
    return None


@rule("derelict.beta", ("lnl",), heads=("derelict",))
def derelict_beta(t, ctx):
    if t.subs[0].kind == "rterm":
        return t.subs[0].subs[0]
    return None


@rule("derelict.eta", ("lnl",), heads=("rterm",))
def derelict_eta(t, ctx):
    if t.subs[0].kind == "derelict":
        return t.subs[0].subs[0]
    return None


@rule("jk.unit.eta", ("armm",), heads=("var", "letj", "letk", "pi1", "pi2",
                                       "aapp", "do"),
      note="terms of type J(1) / K(1) are the canonical injections")
def jk_unit_eta(t, ctx):
    ty = ctx.ty
    if ty is None or ty.kind not in ("jt", "kt") or ty.subs[0].kind != "unit1":
        return None
    canon = jterm(syntax.UNIT) if ty.kind == "jt" else kterm(syntax.UNIT)
    if t == canon:
        return None
    if t.kind in ("jterm", "kterm"):
        return None  # inner unit.eta gets there
    return canon


@rule("letjk.dead", ("armm",), heads=("letj", "letk"),
      note="drop a let whose binder is unused (Cartesian zones)")
def letjk_dead(t, ctx):
    if not uses_bvar(t.subs[1], 0):
        return unshift(t.subs[1], 1, 0)
    return None


@rule("letjk.contract", ("armm",), heads=("letj", "letk"),
      note="two lets of one scrutinee collapse")
def letjk_contract(t, ctx):
    body = t.subs[1]
    if body.kind != t.kind:
        return None
    if body.subs[0] == shift(t.subs[0], 1, 0):
        return mklet(t.kind, t.subs[0], syntax.bsubst(body.subs[1], 0, bv(0)),
                     proto=t)
    return None


@rule("letjk.pair", ("armm",), heads=("letj", "letk"),
      note="lets distribute over pairs")
def letjk_pair(t, ctx):
    scrut, body = t.subs
    if body.kind != "pair":
        return None
    return pair(mklet(t.kind, scrut, body.subs[0], proto=t),
                mklet(t.kind, scrut, body.subs[1], proto=t))


# -- commuting conversions: hoisting families -------------------------------

def _is_let(t):
    return t.kind in LET_KINDS


@rule("let.hoist.scrut", ("lnl", "armm"), heads=tuple(LET_KINDS),
      note="a let nested in a let scrutinee hoists out")
def let_hoist_scrut(t, ctx):
    inner = t.subs[0]
    if not _is_let(inner):
        return None
    if ctx.calculus == "armm" and (t.kind not in ("letj", "letk")
                                   or inner.kind not in ("letj", "letk")):
        return None
    nb1 = LET_KINDS[inner.kind]
    nb2 = LET_KINDS[t.kind]
    body2 = shift(t.subs[1], nb1, nb2)
    return mklet(inner.kind, inner.subs[0],
                 mklet(t.kind, inner.subs[1], body2, proto=t), proto=inner)


@rule("let.exchange", ("lnl", "armm"), heads=tuple(LET_KINDS),
      note="independent adjacent lets sort by kind priority, then term order")
def let_exchange(t, ctx):
    inner = t.subs[1]
    if not _is_let(inner):
        return None
    if ctx.calculus == "armm" and (t.kind not in ("letj", "letk")
                                   or inner.kind not in ("letj", "letk")):
        return None
    nb1 = LET_KINDS[t.kind]
    nb2 = LET_KINDS[inner.kind]
    s = inner.subs[0]
    for j in range(nb1):
        if uses_bvar(s, j):
            return None
    s0 = unshift(s, nb1, 0)
    p1, p2 = LET_PRIORITY[t.kind], LET_PRIORITY[inner.kind]
    if not (p2 < p1 or (p2 == p1 and term_key(s0) < term_key(t.subs[0]))):
        return None
    r2 = shift(t.subs[0], nb2, 0)
    body = rotate2(inner.subs[1], nb1, nb2)
    return mklet(inner.kind, s0, mklet(t.kind, r2, body, proto=t),
                 proto=inner)


@rule("let.hoist.appfun", ("lnl",), heads=("app",))
def let_hoist_appfun(t, ctx):
    f, a = t.subs
    if not _is_let(f):
        return None
    nb = LET_KINDS[f.kind]
    return mklet(f.kind, f.subs[0],
                 syntax.app(f.subs[1], shift(a, nb, 0)), proto=f)


@rule("let.hoist.apparg", ("lnl",), heads=("app",))
def let_hoist_apparg(t, ctx):
    f, a = t.subs
    if not _is_let(a):
        return None
    nb = LET_KINDS[a.kind]
    return mklet(a.kind, a.subs[0],
                 syntax.app(shift(f, nb, 0), a.subs[1]), proto=a)


@rule("let.hoist.lam", ("lnl",), heads=("lam",),
      note="a let under a lambda hoists out when independent of the binder")
def let_hoist_lam(t, ctx):
    body = t.subs[0]
    if not _is_let(body):
        return None
    s = body.subs[0]
    if uses_bvar(s, 0):
        return None
    nb = LET_KINDS[body.kind]
    lam2 = syntax.lam(t.tyann, rotate_out(body.subs[1], nb),
                      hint=t.hints[0] if t.hints else "x")
    return mklet(body.kind, unshift(s, 1, 0), lam2, proto=body)


@rule("let.hoist.doscrut", ("lnl",), heads=("do",))
def let_hoist_doscrut(t, ctx):
    u, v = t.subs
    if not _is_let(u):
        return None
    nb = LET_KINDS[u.kind]
    inner = syntax.do(u.subs[1], shift(v, nb, 1),
                      hint=t.hints[0] if t.hints else "x")
    return mklet(u.kind, u.subs[0], inner, proto=u)


@rule("let.hoist.dobody", ("lnl",), heads=("do",))
def let_hoist_dobody(t, ctx):
    u, body = t.subs
    if not _is_let(body):
        return None
    s = body.subs[0]
    if uses_bvar(s, 0):
        return None
    nb = LET_KINDS[body.kind]
    do2 = syntax.do(shift(u, nb, 0), rotate_out(body.subs[1], nb),
                    hint=t.hints[0] if t.hints else "x")
    return mklet(body.kind, unshift(s, 1, 0), do2, proto=body)


@rule("let.push.ret", ("lnl",), heads=("letunit", "letpair", "letj"),
      note="ret pops outward through lets")
def let_push_ret(t, ctx):
    body = t.subs[1]
    if body.kind != "ret":
        return None
    return ret(mklet(t.kind, t.subs[0], body.subs[0], proto=t))


@rule("let.push.grade", ("lnl",), heads=("letunit", "letpair", "letj"),
      note="merge/unmerge pop outward through lets")
def let_push_grade(t, ctx):
    body = t.subs[1]
    if body.kind not in ("merge", "unmerge"):
        return None
    inner = mklet(t.kind, t.subs[0], body.subs[0], proto=t)
    return syntax.merge(inner) if body.kind == "merge" \
        else unmerge(inner)


# ---------------------------------------------------------------------------
# grade-type structure

@rule("grade.merge.unmerge", ("lnl",), heads=("merge",))
def merge_unmerge(t, ctx):
    if t.subs[0].kind == "unmerge":
        return t.subs[0].subs[0]
    return None


@rule("grade.unmerge.merge", ("lnl",), heads=("unmerge",))
def unmerge_merge(t, ctx):
    if t.subs[0].kind == "merge":
        return t.subs[0].subs[0]
    return None


@rule("grade.dist", ("lnl",), heads=("unmerge",),
      note="unmerge distributes over a tensor grade action")
def grade_dist(t, ctx):
    inner = t.subs[0]
    if inner.kind != "regrade":
        return None
    xi = inner.xi
    if xi.src.kind != "tensor" or xi.tgt.kind != "tensor" or xi.word is not None:
        return None
    g = ctx.grading
    xi1 = GradeMor(xi.src.subs[0], xi.tgt.subs[0])
    xi2 = GradeMor(xi.src.subs[1], xi.tgt.subs[1])
    if g is None or not (g.has_mor(g.norm_mor(xi1)) and
                         g.has_mor(g.norm_mor(xi2))):
        return None
    return letpair(unmerge(inner.subs[0]),
                   pair(regrade(xi1, bv(1)), regrade(xi2, bv(0))),
                   "s", "r")


@rule("grade.unitl", ("lnl",), heads=("letpair",),
      note="splitting off a unit grade on the left is the identity")
def grade_unitl(t, ctx):
    scrut, body = t.subs
    if scrut.kind != "unmerge":
        return None
    if body.kind == "letunit" and body.subs[0] == unmerge(bv(1)) \
            and body.subs[1] == bv(0):
        return scrut.subs[0]
    return None


@rule("grade.unitr", ("lnl",), heads=("letpair",),
      note="splitting off a unit grade on the right is the identity")
def grade_unitr(t, ctx):
    scrut, body = t.subs
    if scrut.kind != "unmerge":
        return None
    if body.kind == "letunit" and body.subs[0] == unmerge(bv(0)) \
            and body.subs[1] == bv(1):
        return scrut.subs[0]
    return None


@rule("grade.sym", ("lnl",), heads=("letpair",),
      note="swapping an unmerged pair is unmerging at the symmetric grade")
def grade_sym(t, ctx):
    scrut, body = t.subs
    if scrut.kind != "unmerge":
        return None
    if body.kind == "pair" and body.subs[0] == bv(0) and body.subs[1] == bv(1):
        return unmerge(scrut.subs[0])
    return None


def _unmerge_assoc_l2r(t, ctx):
    # let (x,r) = unmerge w in (let (y,z) = unmerge r in u)
    #   ~> let (s,z) = unmerge w in (let (x,y) = unmerge s in u)
    scrut, body = t.subs
    if scrut.kind != "unmerge" or body.kind != "letpair":
        return None
    if body.subs[0] != unmerge(bv(0)):
        return None
    u = body.subs[1]
    if uses_bvar(u, 2):  # the consumed middle binder cannot occur
        return None
    # u frame: [y=1, z=0] inside [x=1, r=0]  ->  overall x=3, r=2, y=1, z=0
    # target: [x=1, y=0] inside [s=1, z=0]   ->  s=3, z=2, x=1, y=0
    u2 = map_bvar(u, lambda i: {0: 2, 1: 0, 3: 1}.get(i, i))
    return letpair(unmerge(scrut.subs[0]),
                   letpair(unmerge(bv(1)), u2, "x", "y"), "s", "z")


def _unmerge_assoc_r2l(t, ctx):
    scrut, body = t.subs
    if scrut.kind != "unmerge" or body.kind != "letpair":
        return None
    if body.subs[0] != unmerge(bv(1)):
        return None
    u = body.subs[1]
    if uses_bvar(u, 3):  # the consumed outer binder cannot occur
        return None
    # inverse of the map above
    u2 = map_bvar(u, lambda i: {2: 0, 0: 1, 1: 3}.get(i, i))
    return letpair(unmerge(scrut.subs[0]),
                   letpair(unmerge(bv(0)), u2, "y", "z"), "x", "r")


rule("grade.assoc", ("lnl",), heads=("letpair",), search_only=True)(
    _unmerge_assoc_l2r)
rule("grade.assoc.rev", ("lnl",), heads=("letpair",), search_only=True)(
    _unmerge_assoc_r2l)


RULES_BY_HEAD: dict[tuple[str, str], list[Rule]] = {}
for _r in _RULES:
    for _c in _r.calculi:
        for _h in _r.heads:
            RULES_BY_HEAD.setdefault((_c, _h), []).append(_r)
