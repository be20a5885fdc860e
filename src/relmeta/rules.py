"""The oriented rewrite rules of the four equational theories.

Orientation follows the usual discipline: beta, unit, projection and
let-beta laws left to right; eta laws as contractions; do-associativity
toward right nesting; commuting conversions hoist lets outward, with
ret/merge/unmerge popping outward through lets; symmetric exchange pairs
are broken by a fixed priority on let kinds and, between equal kinds, by a
canonical term ordering.

`RULES` is the table of every rule, in registration order, which fixes the
order in which rules are tried at a position.  Most rules are schemas:
rows `lhs ~> rhs` in the term syntax, no two of one rule matching one term:
two with one head differ in the kind of a child (a rule has a row per let
kind it moves).  A free name in a row is a metavariable, `t` or
`t[x, y]`, applied to the binders around it that it may mention: on a
left side distinct bound names (a Miller pattern), on a right side any
terms, which are substituted for them.  So
`do x <- ret u in t[x] ~> t[u]` substitutes, and in
`lam (x:X). app t x ~> t` the eta side condition, x not free in t, is t's
binder set.  A name repeated on a left side matches alpha-equal terms.  A
binder's annotation is a type metavariable, which the right side carries
over or drops.  A right-side binder prints as the left-side binder of the
same schema name did (with the constructor's names if that had none).
The rules that read types, the grading, a payload or an order are
functions, each declaring the kinds it can fire on: of the type recorded
at its position, or of children of its head.

`INDEX` is built once from the table.  For a position (calculus, node
kind, the kinds of its children and of its recorded type) it gives the
rows and functions that can fire there: those of the head whose kinds fit,
a subset of the head's rules in registration order, so the redex order is
the one trying every rule of the head gives.  Per head it is a decision
tree on those kinds, built on the head's first lookup.

`match` and `instantiate` serve the schemas and the theory axioms alike;
an axiom's variables are metavariables that may mention no binder.

Rules marked search_only are sound equations that do not participate in
normalization (their two orientations are registered separately for the
bounded equality search).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .signatures import SignatureError
from .syntax import (BINDERS, GradeMor, SyntaxError_, Term, bv, gtensor,
                     jterm, kterm, letpair, pair, rebind, regrade, shift,
                     term_key, unmerge, uses_bvar)
from . import syntax


@dataclass
class RuleCtx:
    sig: object
    calculus: str
    node: object  # the position's `typecheck.Derivation` node; None: untyped

    @property
    def ty(self):
        return self.typeof(())

    def typeof(self, rel):
        """The type of the node at `rel` below the position's, or None
        where there is none."""
        node = self.node
        for i in rel:
            kids = node.children if node else ()
            node = kids[i] if i < len(kids) else None
        return node and node.ty


class Row(NamedTuple):
    """A parsed schema `lhs ~> rhs`."""
    lhs: Term
    rhs: Term

    def rewrite(self, t: Term, ctx: RuleCtx | None = None) -> Term | None:
        """The right side's instance where t is one of the left side's."""
        hints = {}
        sigma = match(self.lhs, t, (), {}, hints)
        return None if sigma is None else instantiate(self.rhs, sigma, hints)


@dataclass
class Rule:
    name: str
    calculi: tuple
    heads: tuple  # term kinds the rule can fire on
    rewrite: Callable[[Term, RuleCtx], Term | None] | None  # None: rows
    search_only: bool = False
    rows: tuple = ()  # a schema rule's rows, in table order
    needs: dict = field(default_factory=dict)  # a function's, see `rule`


# ---------------------------------------------------------------------------
# matching and instantiating schemas

def match(pat: Term, t: Term, metas, sigma: dict, hints: dict | None = None,
          depth: int = 0) -> dict | None:
    """sigma extended so that t, found under `depth` of pat's binders, is
    an instance of the schema pat, or None.  A metavariable is a `meta`
    node or a `var` named in `metas` (an axiom's variables); sigma maps
    each, and each type metavariable, to what it matched.  With `hints`,
    each binder of pat records its names -> the names t's binder there
    prints."""
    kind = pat.kind
    if kind == "meta" or kind == "var" and pat.name in metas:
        # the p-th of k arguments is bvar k-1-p of what it binds
        k = len(pat.subs)
        if depth and (depth != k or any(a.index != k - 1 - p
                                        for p, a in enumerate(pat.subs))):
            outer = [None] * depth
            for p, a in enumerate(pat.subs):
                outer[a.index] = bv(k - 1 - p)
            barred = sum(1 << j for j, a in enumerate(outer) if a is None)
            if t.occ[1] & barred:
                return None  # a binder the metavariable may not mention
            t = rebind(t, outer, k)
        old = sigma.setdefault(pat.name, t)
        return sigma if old is t or old == t else None
    if (kind != t.kind or pat.name != t.name or pat.index != t.index
            or pat.xi != t.xi or len(pat.subs) != len(t.subs)):
        return None
    ty = pat.tyann
    if ty is not None and ty.kind == "meta":
        if sigma.setdefault(ty.name, t.tyann) != t.tyann:
            return None
    elif ty != t.tyann:
        return None
    if hints is not None and pat.hints:
        hints[pat.hints] = t.hints
    binders = BINDERS[kind]
    # the last child first: a binder's body, which holds a row's shape, and
    # an eta row's bound argument; so most failing matches fail before a
    # metavariable walks what it matched
    for i in range(len(pat.subs) - 1, -1, -1):
        if match(pat.subs[i], t.subs[i], metas, sigma, hints,
                 depth + binders[i] if binders else depth) is None:
            return None
    return sigma


# the names a right-side binder prints when its left-side namesake had none
_DEFAULT_HINTS = {"do": ("x",), "lam": ("x",), "lamarrow": ("x",),
                  "letpair": ("x", "y"), "letj": ("a",), "letk": ("a",)}


def instantiate(pat: Term, sigma: dict, hints: dict | None = None,
                depth: int = 0) -> Term:
    """The instance of the schema pat under sigma (from `match`), at
    `depth` of pat's binders.  With `hints`, each binder of pat prints as
    the one the names it records were matched to; without, as pat's."""
    kind = pat.kind
    if kind == "meta" or kind == "var" and pat.name in sigma:
        k = len(pat.subs)
        args = [instantiate(a, sigma, hints, depth) for a in pat.subs]
        if depth == k and all(a.kind == "bvar" and a.index == k - 1 - p
                              for p, a in enumerate(args)):
            return sigma[pat.name]  # the identity: no walk
        return rebind(sigma[pat.name], args[::-1], depth)
    if not pat.subs:
        return pat
    ty, names, binders = pat.tyann, pat.hints, BINDERS[kind]
    if ty is not None and ty.kind == "meta":
        ty = sigma[ty.name]
    if hints is not None and names:
        names = hints.get(names) or _DEFAULT_HINTS[kind]
    return Term(kind, tuple(instantiate(s, sigma, hints,
                                        depth + binders[i] if binders
                                        else depth)
                            for i, s in enumerate(pat.subs)),
                name=pat.name, index=pat.index, xi=pat.xi, tyann=ty,
                hints=names)


# ---------------------------------------------------------------------------
# loading schemas

def _side(text: str) -> Term:
    p = syntax._P(text, schema=True)
    t = p.term()
    p.end()
    return t


def _metas(t: Term):
    """The metavariable nodes of a schema side, terms and types."""
    if t.kind == "meta":
        yield t
    if t.tyann is not None and t.tyann.kind == "meta":
        yield t.tyann
    for s in t.subs:
        yield from _metas(s)


def _row(name: str, heads, text: str) -> Row:
    """Parse and check one row of rule `name`."""
    def fail(msg):
        raise SyntaxError_(f"rule {name}: {msg}: {text}")

    lhs_text, arrow, rhs_text = text.partition("~>")
    if not arrow:
        fail("expected `lhs ~> rhs`")
    lhs, rhs = _side(lhs_text), _side(rhs_text)
    if lhs.kind not in heads:
        fail(f"the head {lhs.kind} is not among the rule's heads")
    arity = {}
    for m in _metas(lhs):
        k = len(m.subs)  # 0 for a type metavariable
        if len({a.index for a in m.subs if a.kind == "bvar"}) != k:
            fail(f"the arguments of {m.name} are not distinct binders in"
                 " scope")
        if arity.setdefault(m.name, k) != k:
            fail(f"{m.name} takes different arguments")
    for m in _metas(rhs):
        if arity.get(m.name) != len(m.subs):
            fail(f"{m.name} is not on the left side with {len(m.subs)}"
                 " argument(s)")
    return Row(lhs, rhs)


# what a need reads at a position: the recorded type's kind, or child i's
TYPE = -1


def _row_needs(row: Row) -> dict:
    """The kinds a row needs: of each child of its head that is not a
    metavariable."""
    return {i: (s.kind,) for i, s in enumerate(row.lhs.subs)
            if s.kind != "meta"}


def rule(name: str, calculi, heads, *body, search_only=False,
         needs=None) -> Rule:
    """A rule: `body` is its rewrite function, or its schema rows, each
    `lhs ~> rhs`, no two of one head that their kinds do not tell apart.
    A function declares in `needs` the kinds it can fire on, {TYPE or
    child index: kinds}."""
    if len(body) == 1 and callable(body[0]):
        return Rule(name, tuple(calculi), tuple(heads), body[0], search_only,
                    needs=needs or {})
    rows = tuple(_row(name, heads, text) for text in body)
    for k, row in enumerate(rows):
        a = _row_needs(row)
        for other in rows[:k]:
            b = _row_needs(other)
            if row.lhs.kind == other.lhs.kind and \
                    all(a[i] == b[i] for i in a.keys() & b.keys()):
                raise SyntaxError_(f"rule {name}: its kinds do not tell the"
                                   f" row apart from an earlier one: {body[k]}")
    return Rule(name, tuple(calculi), tuple(heads), None, search_only, rows)


# ---------------------------------------------------------------------------
# the rules written as functions

ALL = syntax.CALCULI
CARTESIAN = ("rmm", "gmm", "lnl", "arrow", "armm")
LNL, ARMM = ("lnl",), ("armm",)

LET_KINDS = {"letunit": 0, "letpair": 2, "letj": 1, "letk": 1}
LET_PRIORITY = {"letunit": 1, "letpair": 2, "letj": 3, "letk": 4}
LETS = ("letunit", "letpair", "letj")  # the lets of lnl
JK = ("letj", "letk")


def _rebuilt(proto: Term, *subs: Term) -> Term:
    """A binder of proto's kind and names over subs."""
    return Term(proto.kind, subs,
                hints=proto.hints or _DEFAULT_HINTS.get(proto.kind, ()))


def unit_eta(t, ctx):
    """Terms of unit type collapse to ()."""
    ty = ctx.ty
    if ty is None or ty.kind != "unit1" or t.kind == "unit":
        return None
    if ctx.calculus == "lnl" and ctx.node.form == "C":
        return None  # the linear unit I has let-form laws instead
    return syntax.UNIT


def gen_word(t, ctx):
    """Collapse generator chains to normal composition words."""
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


# graded regrading (strict gradings: structural morphisms are identities)

def regrade_id(t, ctx):
    # only syntactically written identities: an identity morphism between
    # differently written grades (say 2 and 1*2) is a factorization cast
    # that an enclosing unmerge may rely on
    if not t.xi.word and t.xi.src == t.xi.tgt:
        return t.subs[0]
    return None


def regrade_comp(t, ctx):
    """Stacked grade actions compose."""
    g = ctx.sig.grading
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


def _do_regrade(side):
    """Regrades hoist out of a bind's scrutinee (side 0) or body (1)."""
    def rewrite(t, ctx):
        g, inner = ctx.sig.grading, t.subs[side]
        if g is None or inner.kind != "regrade":
            return None
        other = ctx.typeof((1 - side,))
        if other is None or other.kind != "tgr":
            return None
        l = g.norm(other.grade)
        xis = [g.norm_mor(inner.xi)]
        xis.insert(1 - side, GradeMor(l, l))
        try:  # a presented grading tensors identities only
            xi = g.tensor_mor(*xis)
        except SignatureError:
            return None
        subs = list(t.subs)
        subs[side] = inner.subs[0]
        return regrade(xi, _rebuilt(t, *subs))
    return rewrite


def fun_beta(t, ctx):
    """(lam (x:X). t) u  ~>  t[u/x]  (Cartesian and linear)."""
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


def jk_unit_eta(t, ctx):
    """Terms of type J(1) / K(1) are the canonical injections (J(..) and
    K(..) are not its heads: the inner unit.eta gets there)."""
    ty = ctx.ty
    if ty is None or ty.kind not in ("jt", "kt") or ty.subs[0].kind != "unit1":
        return None
    return jterm(syntax.UNIT) if ty.kind == "jt" else kterm(syntax.UNIT)


# commuting conversions between lets; armm has them for J and K lets only

def _lets(t, inner, ctx):
    """Whether t and the let inner next to it have a conversion."""
    return inner.kind in LET_KINDS and (
        ctx.calculus != "armm" or t.kind in JK and inner.kind in JK)


def let_hoist_scrut(t, ctx):
    """A let nested in a let scrutinee hoists out."""
    inner = t.subs[0]
    if not _lets(t, inner, ctx):
        return None
    body = shift(t.subs[1], LET_KINDS[inner.kind], LET_KINDS[t.kind])
    return _rebuilt(inner, inner.subs[0], _rebuilt(t, inner.subs[1], body))


def let_exchange(t, ctx):
    """Independent adjacent lets sort by kind priority, then term order."""
    inner = t.subs[1]
    if not _lets(t, inner, ctx):
        return None
    nb1 = LET_KINDS[t.kind]
    nb2 = LET_KINDS[inner.kind]
    s = inner.subs[0]
    if any(uses_bvar(s, j) for j in range(nb1)):
        return None
    s0 = shift(s, -nb1)
    p1, p2 = LET_PRIORITY[t.kind], LET_PRIORITY[inner.kind]
    if not (p2 < p1 or (p2 == p1 and term_key(s0) < term_key(t.subs[0]))):
        return None
    # the body's frame [t's binders, inner's] becomes [inner's, t's]
    body = rebind(inner.subs[1], [bv(j + nb1) for j in range(nb2)]
                  + [bv(j) for j in range(nb1)], nb1 + nb2)
    return _rebuilt(inner, s0, _rebuilt(t, shift(t.subs[0], nb2), body))


# grade-type structure

def grade_dist(t, ctx):
    """Unmerge distributes over a tensor grade action."""
    inner = t.subs[0]
    if inner.kind != "regrade":
        return None
    xi = inner.xi
    if xi.src.kind != "tensor" or xi.tgt.kind != "tensor" or xi.word is not None:
        return None
    g = ctx.sig.grading
    xi1 = GradeMor(xi.src.subs[0], xi.tgt.subs[0])
    xi2 = GradeMor(xi.src.subs[1], xi.tgt.subs[1])
    if g is None or not (g.has_mor(g.norm_mor(xi1)) and
                         g.has_mor(g.norm_mor(xi2))):
        return None
    return letpair(unmerge(inner.subs[0]),
                   pair(regrade(xi1, bv(1)), regrade(xi2, bv(0))),
                   "s", "r")


# grade associativity, each way: the schema's outer unmerge splits w, once
# w is regraded from its grade (read at (0, 0)) to the regrouped one, as
# its inner unmerge needs; the right side's binders print as it names them
_ASSOC = ("let (x,r) = unmerge w in let (y,z) = unmerge r in u[x,y,z]",
          "let (s,z) = unmerge w in let (x,y) = unmerge s in u[x,y,z]")


def _regrouped(lhs, rhs, right):
    """grade.assoc one way: w's grade m * (n * k) regrouped as
    (m * n) * k, or with `right` false the reverse."""
    row = _row("grade.assoc", ("letpair",), f"{lhs} ~> {rhs}")

    def rewrite(t, ctx):
        g, ty = ctx.sig.grading, ctx.typeof((0, 0))
        m = ty.grade if g and ty and ty.kind == "grty" else None
        if m is None or m.kind != "tensor" or m.subs[right].kind != "tensor":
            return None
        sigma = match(row.lhs, t, (), {})
        if sigma is None:
            return None
        a, b, c = (m.subs[0], *m.subs[1].subs) if right else \
            (*m.subs[0].subs, m.subs[1])
        tgt = gtensor(gtensor(a, b), c) if right else gtensor(a, gtensor(b, c))
        sigma["w"] = regrade(GradeMor(m, tgt, g.id_mor(m).word), sigma["w"])
        return instantiate(row.rhs, sigma)

    return rewrite


# ---------------------------------------------------------------------------
# the table


RULES = (
    rule("unit.eta", CARTESIAN,
         ("var", "pair", "pi1", "pi2", "app", "aapp", "letj", "letk",
          "opapp", "gen", "jterm", "kterm", "lam", "do"), unit_eta,
         needs={TYPE: ("unit1",)}),
    # unit / product laws
    rule("prod.beta1", CARTESIAN, ("pi1",), "pi1 (u, v) ~> u"),
    rule("prod.beta2", CARTESIAN, ("pi2",), "pi2 (u, v) ~> v"),
    rule("prod.eta", CARTESIAN, ("pair",), "(pi1 u, pi2 u) ~> u"),
    # base-category morphism words
    rule("gen.word", ("urmm", "rmm"), ("gen",), gen_word),
    # monadic sequencing
    rule("do.beta", ALL, ("do",), "do x <- ret u in t[x] ~> t[u]"),
    rule("do.eta", ALL, ("do",), "do x <- u in ret x ~> u"),
    rule("do.assoc", ALL, ("do",), "do y <- (do x <- u in t[x]) in v[y]"
         " ~> do x <- u in do y <- t[x] in v[y]"),
    rule("regrade.id", ("gmm", "lnl"), ("regrade",), regrade_id),
    rule("regrade.comp", ("gmm", "lnl"), ("regrade",), regrade_comp,
         needs={0: ("regrade",)}),
    rule("do.regrade.body", ("gmm",), ("do",), _do_regrade(1),
         needs={1: ("regrade",)}),
    rule("do.regrade.scrutinee", ("gmm",), ("do",), _do_regrade(0),
         needs={0: ("regrade",)}),
    # lambda calculi
    rule("fun.beta", ("lnl", "arrow"), ("app",), fun_beta,
         needs={0: ("lam",)}),
    rule("fun.eta", ("lnl", "arrow"), ("lam",), "lam (x:X). app t x ~> t"),
    rule("arr.beta", ("arrow", "armm"), ("aapp",),
         "(lamarrow (x:X). t[x]) . u ~> t[u]"),
    rule("arr.eta", ("arrow", "armm"), ("lamarrow",),
         "lamarrow (x:X). u . x ~> u"),
    rule("fun.beta.j", ARMM, ("app",),
         "app (lamarrow (a:X). J(u[a])) v ~> u[v]"),
    rule("fun.eta.j", ARMM, ("lamarrow",), "lamarrow (a:X). J(app u a) ~> u"),
    # let laws (linear and three-zone calculi)
    rule("letunit.beta", LNL, ("letunit",), "let () = () in t ~> t"),
    rule("letunit.eta", LNL, ("letunit",), "let () = s in () ~> s"),
    rule("letpair.beta", LNL, ("letpair",),
         "let (x,y) = (u, v) in t[x,y] ~> t[u, v]"),
    rule("letpair.eta", LNL, ("letpair",), "let (x,y) = s in (x, y) ~> s"),
    rule("letj.beta", ("lnl", "armm"), ("letj",),
         "let J(a) = J(u) in t[a] ~> t[u]"),
    rule("letj.eta", ("lnl", "armm"), ("letj",), "let J(a) = s in J(a) ~> s"),
    rule("letk.beta", ARMM, ("letk",), "let K(a) = K(u) in t[a] ~> t[u]"),
    rule("letk.eta", ARMM, ("letk",), "let K(a) = s in K(a) ~> s"),
    rule("derelict.beta", LNL, ("derelict",), "derelict R(t) ~> t"),
    rule("derelict.eta", LNL, ("rterm",), "R(derelict u) ~> u"),
    rule("jk.unit.eta", ARMM,
         ("var", "letj", "letk", "pi1", "pi2", "aapp", "do"), jk_unit_eta,
         needs={TYPE: ("jt", "kt")}),
    # Cartesian zones: a let whose binder is unused goes, two lets of one
    # scrutinee collapse, lets distribute over pairs
    rule("letjk.dead", ARMM, JK,
         "let J(a) = s in t ~> t", "let K(a) = s in t ~> t"),
    rule("letjk.contract", ARMM, JK,
         "let J(a) = s in let J(b) = s in t[a,b] ~> let J(a) = s in t[a,a]",
         "let K(a) = s in let K(b) = s in t[a,b] ~> let K(a) = s in t[a,a]"),
    rule("letjk.pair", ARMM, JK,
         "let J(a) = s in (t[a], v[a])"
         " ~> (let J(a) = s in t[a], let J(a) = s in v[a])",
         "let K(a) = s in (t[a], v[a])"
         " ~> (let K(a) = s in t[a], let K(a) = s in v[a])"),
    # commuting conversions: lets hoist outward
    rule("let.hoist.scrut", ("lnl", "armm"), tuple(LET_KINDS),
         let_hoist_scrut, needs={0: tuple(LET_KINDS)}),
    rule("let.exchange", ("lnl", "armm"), tuple(LET_KINDS), let_exchange,
         needs={1: tuple(LET_KINDS)}),
    rule("let.hoist.appfun", LNL, ("app",),
         "app (let () = s in f) u ~> let () = s in app f u",
         "app (let (x,y) = s in f[x,y]) u ~> let (x,y) = s in app f[x,y] u",
         "app (let J(a) = s in f[a]) u ~> let J(a) = s in app f[a] u"),
    rule("let.hoist.apparg", LNL, ("app",),
         "app f (let () = s in u) ~> let () = s in app f u",
         "app f (let (x,y) = s in u[x,y]) ~> let (x,y) = s in app f u[x,y]",
         "app f (let J(a) = s in u[a]) ~> let J(a) = s in app f u[a]"),
    rule("let.hoist.lam", LNL, ("lam",),
         "lam (x:X). let () = s in t[x] ~> let () = s in lam (x:X). t[x]",
         "lam (x:X). let (y,z) = s in t[x,y,z]"
         " ~> let (y,z) = s in lam (x:X). t[x,y,z]",
         "lam (x:X). let J(a) = s in t[x,a]"
         " ~> let J(a) = s in lam (x:X). t[x,a]"),
    rule("let.hoist.doscrut", LNL, ("do",),
         "do w <- (let () = s in u) in t[w] ~> let () = s in do w <- u in t[w]",
         "do w <- (let (x,y) = s in u[x,y]) in t[w]"
         " ~> let (x,y) = s in do w <- u[x,y] in t[w]",
         "do w <- (let J(a) = s in u[a]) in t[w]"
         " ~> let J(a) = s in do w <- u[a] in t[w]"),
    rule("let.hoist.dobody", LNL, ("do",),
         "do w <- u in let () = s in t[w] ~> let () = s in do w <- u in t[w]",
         "do w <- u in let (x,y) = s in t[w,x,y]"
         " ~> let (x,y) = s in do w <- u in t[w,x,y]",
         "do w <- u in let J(a) = s in t[w,a]"
         " ~> let J(a) = s in do w <- u in t[w,a]"),
    # ret, merge and unmerge pop outward through lets
    rule("let.push.ret", LNL, LETS,
         "let () = s in ret t ~> ret (let () = s in t)",
         "let (x,y) = s in ret t[x,y] ~> ret (let (x,y) = s in t[x,y])",
         "let J(a) = s in ret t[a] ~> ret (let J(a) = s in t[a])"),
    rule("let.push.grade", LNL, LETS,
         "let () = s in merge t ~> merge (let () = s in t)",
         "let () = s in unmerge t ~> unmerge (let () = s in t)",
         "let (x,y) = s in merge t[x,y] ~> merge (let (x,y) = s in t[x,y])",
         "let (x,y) = s in unmerge t[x,y] ~> unmerge (let (x,y) = s in t[x,y])",
         "let J(a) = s in merge t[a] ~> merge (let J(a) = s in t[a])",
         "let J(a) = s in unmerge t[a] ~> unmerge (let J(a) = s in t[a])"),
    # grade-type structure
    rule("grade.merge.unmerge", LNL, ("merge",), "merge unmerge t ~> t"),
    rule("grade.unmerge.merge", LNL, ("unmerge",), "unmerge merge t ~> t"),
    rule("grade.dist", LNL, ("unmerge",), grade_dist,
         needs={0: ("regrade",)}),
    # splitting off a unit grade on either side is the identity, and
    # swapping an unmerged pair is unmerging at the symmetric grade
    rule("grade.unitl", LNL, ("letpair",),
         "let (x,y) = unmerge w in let () = unmerge x in y ~> w"),
    rule("grade.unitr", LNL, ("letpair",),
         "let (x,y) = unmerge w in let () = unmerge y in x ~> w"),
    rule("grade.sym", LNL, ("letpair",),
         "let (x,y) = unmerge w in (y, x) ~> unmerge w"),
    rule("grade.assoc", LNL, ("letpair",), _regrouped(*_ASSOC, True),
         search_only=True, needs={0: ("unmerge",), 1: ("letpair",)}),
    rule("grade.assoc.rev", LNL, ("letpair",),
         _regrouped(*reversed(_ASSOC), False), search_only=True,
         needs={0: ("unmerge",), 1: ("letpair",)}),
)


class _Switch(NamedTuple):
    """An inner node of an index tree: the subtree for the kind read at
    `where` (TYPE or a child index), or `default` for a kind no candidate
    below needs."""
    where: int
    branches: dict
    default: object


def _tree(cands: list, wheres: tuple):
    """The index tree over cands, (rule, rewrite, needs) triples in
    registration order, switching on the kinds at `wheres` in turn; a leaf
    holds the (rule, rewrite) pairs whose needs the kinds read meet, in
    the same order."""
    if not wheres:
        return tuple((r, rewrite) for r, rewrite, _ in cands)
    where, rest = wheres[0], wheres[1:]

    def fit(kind):
        return [c for c in cands if kind in c[2].get(where, (kind,))]

    kinds = {k for c in cands for k in c[2].get(where, ())}
    if not kinds:
        return _tree(cands, rest)
    return _Switch(where, {k: _tree(fit(k), rest) for k in kinds},
                   _tree(fit(None), rest))


class RuleIndex:
    """The rules a position can fire, by (calculus, node kind, the kinds of
    its children and of its recorded type), each rule or row once, in
    registration order: a subset of the rules of the position's head, so
    redex order is as if every one were tried.

    `heads` holds, per (calculus, head), the (rule, rewrite, needs) triples
    of every row and function rule with that head; `trees`, per
    (calculus, search_only) that has rules, the tree of each head that
    `candidates` walks, built on the head's first lookup."""

    def __init__(self, rules):
        self.by_name = {r.name: r for r in rules}
        self.heads, self.trees = {}, {}
        for r in rules:
            cases = [(row.lhs.kind, row.rewrite, _row_needs(row))
                     for row in r.rows] or \
                [(h, r.rewrite, r.needs) for h in r.heads]
            for c in r.calculi:
                self.trees.setdefault((c, r.search_only), {})
                for head, rewrite, needs in cases:
                    self.heads.setdefault((c, head), []).append(
                        (r, rewrite, needs))

    def candidates(self, calculus: str, search_only: bool, t: Term, ty):
        """The (rule, rewrite) pairs that can fire on t, whose recorded
        type is ty, in registration order."""
        trees = self.trees.get((calculus, search_only))
        if trees is None:
            return ()
        node = trees.get(t.kind)
        if node is None:  # the head's first lookup
            mine = [x for x in self.heads.get((calculus, t.kind), ())
                    if x[0].search_only == search_only]
            node = trees[t.kind] = _tree(
                mine, tuple(sorted({w for x in mine for w in x[2]})))
        while node.__class__ is _Switch:
            where, branches, default = node
            node = branches.get((ty if where < 0 else t.subs[where]).kind,
                                default)
        return node


INDEX = RuleIndex(RULES)
