"""Seeded random generation of well-typed judgements and equation-schema
instances.

Generation is type-directed: gen_term(target type) picks among context
variables, introduction forms, and a few elimination forms, under a size
budget.  The instance makers below instantiate each equation schema of
the core and graded theories (and the arrow-calculus laws) with
freshly generated components; they are what the soundness sweeps and the
conservativity harnesses run on.
"""

from __future__ import annotations

import random

from . import syntax
from .signatures import Signature
from .syntax import (GradeMor, Term, TypeExpr, base, bv, close_binder,
                     gnat, jt, judgement, prod, tgr, tt)
from .typecheck import TYPE_FORMERS


def _fresh_name(used, stem="v"):
    k = len(used)
    while f"{stem}{k}" in used:
        k += 1
    used.add(f"{stem}{k}")
    return f"{stem}{k}"


class Gen:
    """Type-directed term generator for one calculus over one signature."""

    def __init__(self, rng: random.Random, sig: Signature, calculus: str,
                 objects: list[str] | None = None):
        self.rng = rng
        self.sig = sig
        self.calculus = calculus
        self.objects = objects or list(sig.category.objects)

    def obj(self):
        return self.rng.choice(self.objects)

    def gen_type(self, depth=2) -> TypeExpr:
        r = self.rng.random()
        if self.calculus in ("rmm", "urmm"):
            if depth <= 0 or r < 0.5:
                return jt(base(self.obj())) if r < 0.75 else tt(base(self.obj()))
            if r < 0.7:
                return tt(base(self.obj()))
            if r < 0.85:
                return prod(self.gen_type(depth - 1), self.gen_type(depth - 1))
            return syntax.UNIT1
        if self.calculus == "gmm":
            if depth <= 0 or r < 0.55:
                return base(self.obj())
            if r < 0.8:
                return tgr(self.grade(), self.gen_type(depth - 1))
            return prod(self.gen_type(depth - 1), self.gen_type(depth - 1))
        if self.calculus == "arrow":
            if depth <= 0 or r < 0.5:
                return base(self.obj())
            if r < 0.7:
                return syntax.arr(base(self.obj()), base(self.obj()))
            if r < 0.85:
                return syntax.fun(base(self.obj()), base(self.obj()))
            return prod(self.gen_type(depth - 1), self.gen_type(depth - 1))
        raise ValueError(self.calculus)

    def grade(self, lo=1, hi=3):
        unit = self.sig.grading.unit()
        lo = max(lo, unit.nat) if unit.nat else lo
        return gnat(self.rng.randint(lo, hi))

    def gen_context(self, n) -> tuple:
        used = set()
        return tuple((_fresh_name(used, "c"), self.gen_type(1))
                     for _ in range(n))

    # -- terms ----------------------------------------------------------

    def var_of(self, ctx, ty):
        opts = [x for x, t in ctx if t == ty]
        if not opts:
            return None
        return syntax.var(self.rng.choice(opts))

    def gen_term(self, ctx, ty: TypeExpr, size: int) -> Term:
        """A term of the given type over ctx; always succeeds for the type
        grammar produced by gen_type (falls back to canonical inhabitants).
        """
        rng = self.rng
        v = self.var_of(ctx, ty)
        if size <= 1 and v is not None:
            return v
        if v is not None and rng.random() < 0.25:
            return v
        k = ty.kind
        if k == "unit1":
            return syntax.UNIT
        if k == "prod":
            return syntax.pair(self.gen_term(ctx, ty.subs[0], size // 2),
                               self.gen_term(ctx, ty.subs[1], size // 2))
        if k == "jt":
            return self.gen_jterm(ctx, ty, size)
        if k == "tt":
            return self.gen_comp(ctx, ty, size)
        if k == "tgr":
            return self.gen_graded(ctx, ty, size)
        if k == "base":
            # bare base types occur in gmm/arrow; fall back to a variable or
            # a projection from one
            if v is not None:
                return v
            for x, t in ctx:
                if t.kind == "prod" and t.subs[0] == ty:
                    return syntax.pi1(syntax.var(x))
                if t.kind == "prod" and t.subs[1] == ty:
                    return syntax.pi2(syntax.var(x))
            raise ValueError(f"no inhabitant of {ty} in context")
        if k == "fun":
            used = {x for x, _ in ctx}
            x = _fresh_name(used, "x")
            body = self.gen_term(ctx + ((x, ty.subs[0]),), ty.subs[1],
                                 size - 1)
            return syntax.lam(ty.subs[0], close_binder(body, x), hint=x)
        if k == "arr":
            used = {x for x, _ in ctx}
            x = _fresh_name(used, "x")
            body = self.gen_command(ctx, ((x, ty.subs[0]),), ty.subs[1],
                                    size - 1)
            return syntax.lamarrow(ty.subs[0], close_binder(body, x), hint=x)
        raise ValueError(f"cannot generate type {ty}")

    def gen_jterm(self, ctx, ty, size):
        v = self.var_of(ctx, ty)
        if ty.subs[0].kind == "unit1":
            return syntax.UNIT
        # apply a generator landing in the right object, if any
        target = ty.subs[0].name
        gens = [g for g in self.sig.category.generators.values()
                if g.tgt == target and base(g.src) in
                [t.subs[0] for _, t in ctx if t.kind == "jt"] + []]
        if size > 1 and gens and self.rng.random() < 0.5:
            g = self.rng.choice(gens)
            arg = self.gen_term(ctx, jt(base(g.src)), size - 1)
            return syntax.gen(g.name, arg)
        if v is not None:
            return v
        # fall back through projections
        for x, t in ctx:
            if t.kind == "prod":
                if t.subs[0] == ty:
                    return syntax.pi1(syntax.var(x))
                if t.subs[1] == ty:
                    return syntax.pi2(syntax.var(x))
        raise ValueError(f"no J-inhabitant of {ty} in context")

    def ops_returning(self, ty):
        if self.sig.theory is None:
            return []
        return [d for d in self.sig.theory.ops.values() if d.result == ty]

    def gen_comp(self, ctx, ty, size):
        rng = self.rng
        ops = self.ops_returning(ty)
        choices = ["ret"]
        if size > 2:
            choices.append("do")
        if ops:
            choices.append("op")
        v = self.var_of(ctx, ty)
        if v is not None:
            choices.append("var")
        c = rng.choice(choices)
        if c == "var":
            return v
        if c == "op":
            decl = rng.choice(ops)
            args = [self.gen_term(ctx, pty, 1) for _, pty in decl.params]
            return syntax.opapp(decl.name, *args)
        if c == "ret":
            return syntax.ret(self.gen_term(ctx, jt(ty.subs[0]), size - 1))
        mid = base(self.obj())
        u = self.gen_comp(ctx, tt(mid), size // 2)
        used = {x for x, _ in ctx}
        x = _fresh_name(used, "x")
        # the unary calculus's body context is its binder alone
        inner = ((x, jt(mid)),)
        if self.calculus != "urmm":
            inner = ctx + inner
        body = self.gen_comp(inner, ty, size // 2)
        return syntax.do(u, close_binder(body, x), hint=x)

    def gen_graded(self, ctx, ty, size):
        rng = self.rng
        grading = self.sig.grading
        m = grading.norm(ty.grade)
        unit = grading.norm(grading.unit())
        ops = self.ops_returning(tgr(m, ty.subs[0]))
        choices = []
        if m == unit:
            choices.append("ret")
        facts = _factorizations(m.nat, grading)
        if size > 2 and facts:
            choices.append("do")
        regrade_srcs = [n for n in range(unit.nat, m.nat + 1)
                        if grading.has_mor(GradeMor(m, gnat(n)))
                        and n != m.nat] if m.kind == "nat" else []
        if regrade_srcs and size > 1:
            choices.append("regrade")
        if ops:
            choices.append("op")
        v = self.var_of(ctx, tgr(m, ty.subs[0]))
        if v is not None:
            choices.append("var")
        if not choices:
            choices = ["regrade"] if regrade_srcs else []
        if not choices:
            raise ValueError(f"cannot inhabit graded type {ty}")
        c = rng.choice(choices)
        if c == "var":
            return v
        if c == "op":
            decl = rng.choice(ops)
            args = [self.gen_term(ctx, pty, 1) for _, pty in decl.params]
            return syntax.opapp(decl.name, *args)
        if c == "ret":
            return syntax.ret(self.gen_term(ctx, ty.subs[0], size - 1))
        if c == "regrade":
            n = rng.choice(regrade_srcs)
            inner = self.gen_graded(ctx, tgr(gnat(n), ty.subs[0]), size - 1)
            return syntax.regrade(GradeMor(m, gnat(n)), inner)
        m1, m2 = rng.choice(facts)
        mid = base(self.obj())
        u = self.gen_graded(ctx, tgr(gnat(m1), mid), size // 2)
        used = {x for x, _ in ctx}
        x = _fresh_name(used, "x")
        body = self.gen_graded(ctx + ((x, mid),), tgr(gnat(m2), ty.subs[0]),
                               size // 2)
        return syntax.do(u, close_binder(body, x), hint=x)

    def gen_command(self, gamma, delta, ty, size):
        """An arrow-calculus command of result type ty over Gamma; Delta."""
        rng = self.rng
        both = tuple(gamma) + tuple(delta)
        choices = ["ret"]
        arrs = [x for x, t in gamma if t.kind == "arr" and t.subs[1] == ty]
        if arrs:
            choices.append("app")
        if size > 2:
            choices.append("do")
        c = rng.choice(choices)
        if c == "ret":
            return syntax.ret(self.gen_term(both, ty, max(1, size - 1)))
        if c == "app":
            x = rng.choice(arrs)
            aty = dict(gamma)[x].subs[0]
            v = self.gen_term(both, aty, max(1, size - 1))
            return syntax.aapp(syntax.var(x), v)
        mid = base(self.obj())
        u = self.gen_command(gamma, delta, mid, size // 2)
        used = {x for x, _ in both}
        x = _fresh_name(used, "x")
        body = self.gen_command(gamma, delta + ((x, mid),), ty, size // 2)
        return syntax.do(u, close_binder(body, x), hint=x)


# ---------------------------------------------------------------------------
# equation-schema instances

def _factorizations(n, grading):
    if grading.name == "builtin-add":
        return [(a, n - a) for a in range(0, n + 1)]
    return [(a, n // a) for a in range(1, n + 1) if n % a == 0]


def _subst_top(body: Term, u: Term) -> Term:
    return syntax.bsubst(body, 0, u)


def seeded_context(calculus, objects, extra=()):
    """A context guaranteeing every base object is inhabited."""
    if calculus in ("rmm", "urmm"):
        return tuple((f"jv_{o}", jt(base(o))) for o in objects) + tuple(extra)
    return tuple((f"bv_{o}", base(o)) for o in objects) + tuple(extra)


def rmm_schema_instances(rng: random.Random, sig: Signature, objects,
                         ctx_size=2, size=3):
    """One instance of each core-theory equation, over a random context.

    Returns a list of (schema name, lhs judgement, rhs judgement).
    """
    g = Gen(rng, sig, "rmm", objects)
    ctx = seeded_context("rmm", objects, g.gen_context(ctx_size))
    A, B, C = (base(g.obj()) for _ in range(3))
    used = {x for x, _ in ctx}
    out = []

    def jd(t, ty):
        return judgement("rmm", [ctx], t, ty)

    # unit and product laws
    onety = syntax.UNIT1
    u1 = g.gen_term(ctx + (("p", prod(onety, onety)),), onety, size)
    ctx1 = ctx + (("p", prod(onety, onety)),)
    out.append(("unit.eta", judgement("rmm", [ctx1], u1, onety),
                judgement("rmm", [ctx1], syntax.UNIT, onety)))
    ux = g.gen_term(ctx, jt(A), size)
    ty_ = g.gen_term(ctx, tt(B), size)
    out.append(("prod.beta1", jd(syntax.pi1(syntax.pair(ux, ty_)), jt(A)),
                jd(ux, jt(A))))
    out.append(("prod.beta2", jd(syntax.pi2(syntax.pair(ux, ty_)), tt(B)),
                jd(ty_, tt(B))))
    up = g.gen_term(ctx, prod(jt(A), tt(B)), size)
    out.append(("prod.eta",
                jd(syntax.pair(syntax.pi1(up), syntax.pi2(up)),
                   prod(jt(A), tt(B))),
                jd(up, prod(jt(A), tt(B)))))
    # morphism-application laws need an identity/composable generator pair
    idgens = [gn for gn, d in sig.category.generators.items()
              if sig.category.normalize_word((gn,)) == ()]
    if idgens:
        gn = rng.choice(idgens)
        d = sig.gen_decl(gn)
        uj = g.gen_term(ctx, jt(base(d.src)), size)
        out.append(("gen.id", jd(syntax.gen(gn, uj), jt(base(d.tgt))),
                    jd(uj, jt(base(d.src)))))
    comps = [(g1, g2) for g1, d1 in sig.category.generators.items()
             for g2, d2 in sig.category.generators.items()
             if d2.tgt == d1.src]
    if comps:
        g1, g2 = rng.choice(comps)
        d2 = sig.gen_decl(g2)
        d1 = sig.gen_decl(g1)
        uj = g.gen_term(ctx, jt(base(d2.src)), size)
        lhs = syntax.gen(g1, syntax.gen(g2, uj))
        word = sig.category.normalize_word((g1, g2))
        rhs = uj
        for name in reversed(word):
            rhs = syntax.gen(name, rhs)
        out.append(("gen.comp", jd(lhs, jt(base(d1.tgt))),
                    jd(rhs, jt(base(d1.tgt)))))
    # monad laws
    uA = g.gen_term(ctx, jt(A), size)
    x = _fresh_name(set(used), "x")
    tB = g.gen_term(ctx + ((x, jt(A)),), tt(B), size)
    tB_cl = close_binder(tB, x)
    out.append(("do.beta", jd(syntax.do(syntax.ret(uA), tB_cl, hint=x), tt(B)),
                jd(_subst_top(tB_cl, uA), tt(B))))
    uT = g.gen_term(ctx, tt(A), size)
    out.append(("do.eta", jd(syntax.do(uT, syntax.ret(bv(0)), hint=x), tt(A)),
                jd(uT, tt(A))))
    y = _fresh_name(set(used) | {x}, "y")
    tB2 = close_binder(g.gen_term(ctx + ((x, jt(A)),), tt(B), size), x)
    vC = close_binder(g.gen_term(ctx + ((y, jt(B)),), tt(C), size), y)
    lhs = syntax.do(syntax.do(uT, tB2, hint=x), vC, hint=y)
    rhs = syntax.do(uT, syntax.do(tB2, syntax.shift(vC, 1, 1), hint=y),
                    hint=x)
    out.append(("do.assoc", jd(lhs, tt(C)), jd(rhs, tt(C))))
    return out


def gmm_schema_instances(rng: random.Random, sig: Signature, objects,
                         ctx_size=2, size=3, max_grade=3):
    """One instance of each graded-theory equation over a random context."""
    g = Gen(rng, sig, "gmm", objects)
    grading = sig.grading
    unit = grading.norm(grading.unit())
    ctx = seeded_context("gmm", objects, g.gen_context(ctx_size))
    A, B, C = (base(g.obj()) for _ in range(3))
    out = []

    def jd(t, ty):
        return judgement("gmm", [ctx], t, ty)

    def grade(lo=None):
        lo = unit.nat if lo is None else lo
        return rng.randint(lo, max_grade)

    # products / unit as in the core theory
    up = g.gen_term(ctx, prod(base(A.name), base(B.name)), size)
    out.append(("prod.eta",
                jd(syntax.pair(syntax.pi1(up), syntax.pi2(up)),
                   prod(base(A.name), base(B.name))),
                jd(up, prod(base(A.name), base(B.name)))))
    uX = g.gen_term(ctx, A, size)
    tX = g.gen_term(ctx, B, size)
    out.append(("prod.beta1", jd(syntax.pi1(syntax.pair(uX, tX)), A),
                jd(uX, A)))
    # regrade identity / composition
    m = grade()
    um = g.gen_graded(ctx, tgr(gnat(m), A), size)
    out.append(("regrade.id",
                jd(syntax.regrade(GradeMor(gnat(m), gnat(m)), um),
                   tgr(gnat(m), A)),
                jd(um, tgr(gnat(m), A))))
    l = grade()
    n = rng.randint(l, max_grade)
    m2 = rng.randint(n, max_grade)
    ul = g.gen_graded(ctx, tgr(gnat(l), A), size)
    lhs = syntax.regrade(GradeMor(gnat(m2), gnat(l)), ul)
    rhs = syntax.regrade(GradeMor(gnat(m2), gnat(n)),
                         syntax.regrade(GradeMor(gnat(n), gnat(l)), ul))
    out.append(("regrade.comp", jd(lhs, tgr(gnat(m2), A)),
                jd(rhs, tgr(gnat(m2), A))))
    # graded monad laws (strict structural morphisms)
    x = _fresh_name({c for c, _ in ctx}, "x")
    mm = grade()
    uA = g.gen_term(ctx, A, size)
    tb = close_binder(g.gen_graded(ctx + ((x, A),), tgr(gnat(mm), B), size), x)
    out.append(("do.beta",
                jd(syntax.do(syntax.ret(uA), tb, hint=x), tgr(gnat(mm), B)),
                jd(_subst_top(tb, uA), tgr(gnat(mm), B))))
    um2 = g.gen_graded(ctx, tgr(gnat(mm), A), size)
    out.append(("do.eta",
                jd(syntax.do(um2, syntax.ret(bv(0)), hint=x), tgr(gnat(mm), A)),
                jd(um2, tgr(gnat(mm), A))))
    # associativity with grades (l, m, n) staying in range
    trip = [(a, b, c) for a in range(unit.nat, max_grade + 1)
            for b in range(unit.nat, max_grade + 1)
            for c in range(unit.nat, max_grade + 1)
            if grading.norm(syntax.gtensor(syntax.gtensor(gnat(a), gnat(b)),
                                           gnat(c))).nat <= max_grade + 6]
    la, mb, nc = rng.choice(trip)
    y = _fresh_name({c for c, _ in ctx} | {x}, "y")
    u = g.gen_graded(ctx, tgr(gnat(la), A), size)
    t2 = close_binder(g.gen_graded(ctx + ((x, A),), tgr(gnat(mb), B), size), x)
    v2 = close_binder(g.gen_graded(ctx + ((y, B),), tgr(gnat(nc), C), size), y)
    total = grading.norm(syntax.gtensor(syntax.gtensor(gnat(la), gnat(mb)),
                                        gnat(nc)))
    lhs = syntax.do(syntax.do(u, t2, hint=x), v2, hint=y)
    rhs = syntax.do(u, syntax.do(t2, syntax.shift(v2, 1, 1), hint=y), hint=x)
    out.append(("do.assoc", jd(lhs, tgr(total, C)), jd(rhs, tgr(total, C))))
    # regrade/do commutation
    n3 = grade()
    m3 = rng.randint(n3, max_grade)
    l3 = grade()
    u3 = g.gen_graded(ctx, tgr(gnat(l3), A), size)
    t3 = close_binder(g.gen_graded(ctx + ((x, A),), tgr(gnat(n3), B), size), x)
    t3r = syntax.regrade(GradeMor(gnat(m3), gnat(n3)), t3)
    lt = grading.norm(syntax.gtensor(gnat(l3), gnat(m3)))
    lhs = syntax.do(u3, t3r, hint=x)
    rhs = syntax.regrade(
        GradeMor(lt, grading.norm(syntax.gtensor(gnat(l3), gnat(n3)))),
        syntax.do(u3, t3, hint=x))
    out.append(("do.regrade.body", jd(lhs, tgr(lt, B)), jd(rhs, tgr(lt, B))))
    u4 = g.gen_graded(ctx, tgr(gnat(n3), A), size)
    u4r = syntax.regrade(GradeMor(gnat(m3), gnat(n3)), u4)
    t4 = close_binder(g.gen_graded(ctx + ((x, A),), tgr(gnat(l3), B), size), x)
    mt = grading.norm(syntax.gtensor(gnat(m3), gnat(l3)))
    lhs = syntax.do(u4r, t4, hint=x)
    rhs = syntax.regrade(
        GradeMor(mt, grading.norm(syntax.gtensor(gnat(n3), gnat(l3)))),
        syntax.do(u4, t4, hint=x))
    out.append(("do.regrade.scrutinee", jd(lhs, tgr(mt, B)),
                jd(rhs, tgr(mt, B))))
    return out


def arrow_schema_instances(rng: random.Random, sig: Signature, objects,
                           size=3):
    """One instance of each arrow-calculus law (commands over Gamma; Delta)."""
    g = Gen(rng, sig, "arrow", objects)
    A, B, C = (base(g.obj()) for _ in range(3))
    gamma = tuple((f"bv_{o}", base(o)) for o in objects) + \
        (("f", syntax.arr(A, B)), ("gxy", syntax.fun(B, C)), ("kc", C))
    delta = (("w", A),)
    out = []

    def cmd(t, ty, d=delta):
        return judgement("arrow", [gamma, d], t, ty, form="C")

    def term(t, ty):
        return judgement("arrow", [gamma], t, ty, form="A")

    x = "x"
    # beta: (lamarrow x. t) . u = t[u/x]
    body = g.gen_command(gamma, ((x, A),), B, size)
    body_cl = close_binder(body, x)
    u = g.gen_term(gamma + delta, A, size)
    out.append(("arr.beta",
                cmd(syntax.aapp(syntax.lamarrow(A, body_cl, hint=x), u), B),
                cmd(_subst_top(body_cl, u), B)))
    # eta: lamarrow x. (f . x) = f
    out.append(("arr.eta",
                term(syntax.lamarrow(A, syntax.aapp(syntax.var("f"), bv(0)),
                                     hint=x), syntax.arr(A, B)),
                term(syntax.var("f"), syntax.arr(A, B))))
    # left unit
    t1 = close_binder(g.gen_command(gamma, delta + ((x, B),), C, size), x)
    ub = g.gen_term(gamma + delta, B, size)
    out.append(("do.beta",
                cmd(syntax.do(syntax.ret(ub), t1, hint=x), C),
                cmd(_subst_top(t1, ub), C)))
    # right unit
    c1 = g.gen_command(gamma, delta, B, size)
    out.append(("do.eta",
                cmd(syntax.do(c1, syntax.ret(bv(0)), hint=x), B),
                cmd(c1, B)))
    # associativity
    r = g.gen_command(gamma, delta, A, size)
    s = close_binder(g.gen_command(gamma, delta + ((x, A),), B, size), x)
    t3 = close_binder(g.gen_command(gamma, delta + (("y", B),), C, size), "y")
    lhs = syntax.do(syntax.do(r, s, hint=x), t3, hint="y")
    rhs = syntax.do(r, syntax.do(s, syntax.shift(t3, 1, 1), hint="y"),
                    hint=x)
    out.append(("do.assoc", cmd(lhs, C), cmd(rhs, C)))
    return out


# ---------------------------------------------------------------------------
# raw well-formed terms (syntactic round-trip corpora; no typing)

# the type formers raw types draw on, by calculus: those of any of its
# zones in `typecheck.TYPE_FORMERS`, and base types.  Raw types need not be
# well formed: a former may sit in a zone that does not admit it
_RAW_TYPE_KINDS = {}
for (_calculus, _zone), (_formers, _) in TYPE_FORMERS.items():
    _RAW_TYPE_KINDS.setdefault(_calculus, {"base"}).update(_formers)


def gen_raw_type(rng: random.Random, calculus: str, depth=2):
    kinds = sorted(_RAW_TYPE_KINDS[calculus])
    leafy = [k for k in kinds if k in ("unit1", "lunit", "base", "grty")]
    k = rng.choice(leafy if depth <= 0 else kinds)
    match k:
        case "unit1":
            return syntax.UNIT1
        case "lunit":
            return syntax.LUNIT
        case "base":
            return base(rng.choice(["A", "B", "obj2"]))
        case "grty":
            return syntax.grty(_raw_grade(rng))
        case "prod" | "fun" | "lolli" | "arr" | "aabs":
            mk = {"prod": prod, "fun": syntax.fun, "lolli": syntax.lolli,
                  "arr": syntax.arr, "aabs": syntax.aabs}[k]
            return mk(gen_raw_type(rng, calculus, depth - 1),
                      gen_raw_type(rng, calculus, depth - 1))
        case "jt" | "kt" | "tt" | "rt":
            mk = {"jt": jt, "kt": syntax.kt, "tt": tt, "rt": syntax.rt}[k]
            return mk(gen_raw_type(rng, calculus, depth - 1))
        case "tgr":
            return tgr(_raw_grade(rng), gen_raw_type(rng, calculus, depth - 1))
    raise AssertionError(k)


def _raw_grade(rng):
    if rng.random() < 0.25:
        return syntax.gtensor(gnat(rng.randint(1, 3)), gnat(rng.randint(1, 3)))
    return gnat(rng.randint(0, 4))


def gen_raw_term(rng: random.Random, calculus: str, sig: Signature,
                 depth=3):
    """A random admissible (well-scoped, not necessarily well-typed) term,
    for print/parse round-trip corpora."""
    kinds = sorted(syntax.admissible_term_kinds(calculus) - {"bvar", "opapp"})
    gens = sorted(sig.category.generators) if sig else []
    ops = sorted(sig.theory.ops) if sig and sig.theory else []
    if not gens:
        kinds = [k for k in kinds if k != "gen"]
    if sig is None or sig.grading is None:
        kinds = [k for k in kinds if k not in ("regrade", "merge", "unmerge")]
    if ops:
        kinds.append("opapp")
    pool = ["v0", "v1", "v2", "v3"]

    def go(d):
        k = "var" if d <= 0 else rng.choice(kinds)
        match k:
            case "var":
                return syntax.var(rng.choice(pool))
            case "unit":
                return syntax.UNIT
            case "pair":
                return syntax.pair(go(d - 1), go(d - 1))
            case "pi1" | "pi2" | "ret" | "jterm" | "kterm" | "rterm" | \
                    "derelict" | "merge" | "unmerge":
                return Term(k, (go(d - 1),))
            case "gen":
                return syntax.gen(rng.choice(gens), go(d - 1))
            case "opapp":
                name = rng.choice(ops)
                return syntax.opapp(
                    name, *(go(d - 1)
                            for _ in range(sig.op_arity(name))))
            case "regrade":
                m = rng.randint(1, 4)
                n = rng.randint(1, m)
                return syntax.regrade(GradeMor(gnat(m), gnat(n)), go(d - 1))
            case "do":
                x = rng.choice(pool)
                return syntax.do(go(d - 1), close_binder(go(d - 1), x),
                                 hint=x)
            case "lam":
                x = rng.choice(pool)
                return syntax.lam(gen_raw_type(rng, calculus, 1),
                                  close_binder(go(d - 1), x), hint=x)
            case "lamarrow":
                x = rng.choice(pool)
                ann = gen_raw_type(rng, calculus, 1) if rng.random() < 0.7 \
                    else None
                return syntax.lamarrow(ann, close_binder(go(d - 1), x),
                                       hint=x)
            case "app":
                return syntax.app(go(d - 1), go(d - 1))
            case "aapp":
                return syntax.aapp(go(d - 1), go(d - 1))
            case "letunit":
                return syntax.letunit(go(d - 1), go(d - 1))
            case "letpair":
                x, y = rng.sample(pool, 2)
                body = close_binder(close_binder(go(d - 1), x), y)
                return syntax.letpair(go(d - 1), body, x, y)
            case "letj" | "letk":
                a = rng.choice(pool)
                mk = syntax.letj if k == "letj" else syntax.letk
                return mk(go(d - 1), close_binder(go(d - 1), a), a)
        raise AssertionError(k)

    return go(depth)
