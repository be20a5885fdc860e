"""The two embedding translations and their conservativity harnesses.

The graded calculus embeds into the linear-non-linear language by encoding
each graded computation type as R(gr(m) -o T(A)); unit, bind and regrade
map to the three closed programs that shuffle grade tokens.  The arrow
calculus embeds into the three-zone language by A ~> B := A => T(B) and
A -> B := A => J(B), with commands landing in an empty third zone.

Both translations are compositional and derivation-driven (the programs
need the types of subterms, which the checker already computed).  They
read each node's term as the checker does, bvars and all: every source
binder becomes one target binder (the arrow `do` two, hence its shift), so
a variable translates to itself.  One driver (`_translate`) and one fold
over the derivation (`_fold`) serve both; a direction gives only the
clauses of its own formers, of types and of terms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax
from .signatures import Signature
from .syntax import (GradeMor, Judgement, Term, TypeExpr, aabs, bv, grty,
                     gtensor, jt, lolli, prod, rt, shift, tt)
from .typecheck import Derivation, check, is_checked


class TranslateError(Exception):
    pass


class IllTypedTarget(TranslateError):
    """A well-typed source translated to a judgement that fails its check:
    a fault of the translation, not of its input."""


@dataclass
class TranslationTrace:
    source: Judgement
    target: Judgement
    node_map: dict = field(default_factory=dict)  # source path -> clause name
    typing_preserved: bool | None = None

    def render(self) -> str:
        lines = [f"source: {self.source}", f"target: {self.target}",
                 f"typing preserved: {self.typing_preserved}"]
        for path in sorted(self.node_map):
            loc = ".".join(map(str, path)) or "root"
            lines.append(f"  {loc}: {self.node_map[path]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the shared driver

def _ty_shared(ty: TypeExpr, tr, source: str) -> TypeExpr:
    """A type of a former both source calculi have (1, base types and
    products), its parts translated by `tr`."""
    match ty.kind:
        case "unit1" | "base":
            return ty
        case "prod":
            return prod(tr(ty.subs[0]), tr(ty.subs[1]))
    raise TranslateError(f"{ty} is not a type of the {source} calculus")


def _fold(node: Derivation, trace: TranslationTrace, own, source: str,
          path=()) -> Term:
    """The term of a derivation node translated: the clauses both
    directions share, else `own(node, translated children)`."""
    t, rule = node.term, node.rule
    trace.node_map[path] = rule
    kids = [_fold(c, trace, own, source, path + (i,))
            for i, c in enumerate(node.children)]
    match rule:
        case "var":
            return t
        case "unit":
            return syntax.UNIT
        case "pair" | "pi1" | "pi2":
            return Term(rule, tuple(kids))
        case "op":
            return syntax.opapp(t.name, *kids)
    out = own(node, kids)
    if out is None:
        raise TranslateError(f"no {source} translation clause for rule {rule}")
    return out


def _translate(j: Judgement, sig: Signature, source: str, target: str, own,
               ty):
    """Check j, a `source` judgement, unless it is a `typecheck.Checked`
    under sig; fold its derivation with the direction's clauses `own`;
    translate its zones and type by `ty`; check the `target` judgement
    under sig.  Returns (target's Checked, trace)."""
    if j.calculus != source:
        raise TranslateError(
            f"the source judgement is {j.calculus}, not {source}")
    res = j if is_checked(j, sig) else check(j, sig)
    if not res.ok:
        raise TranslateError(f"source judgement fails checking: {res.message}")
    trace = TranslationTrace(j.with_term(j.term), None)  # a plain source
    term = _fold(res.derivation, trace, own, source)
    zones = tuple(tuple((x, ty(a)) for x, a in z) for z in j.zones)
    result = ty(j.ty)
    if j.form == "C":  # a command lands in an empty third zone, at T(-)
        zones, result = zones + ((),), tt(result)
    trace.target = Judgement(target, j.form, zones, term, result)
    tgt = check(trace.target, sig)
    trace.typing_preserved = bool(tgt.ok)
    if not tgt.ok:
        raise IllTypedTarget(
            f"translation produced an ill-typed judgement: {tgt.message}\n"
            f"  {trace.target}")
    return tgt, trace


# ---------------------------------------------------------------------------
# graded -> linear-non-linear

def ty_gmm_to_lnl(ty: TypeExpr) -> TypeExpr:
    if ty.kind == "tgr":
        return rt(lolli(grty(ty.grade), tt(ty_gmm_to_lnl(ty.subs[0]))))
    return _ty_shared(ty, ty_gmm_to_lnl, "gmm")


def unit_program(x_ty: TypeExpr, e) -> Term:
    """lam (a:A). R(lam (x:gr(e)). let () = unmerge x in ret J(a))"""
    inner = syntax.lam(
        grty(e),
        syntax.letunit(syntax.unmerge(bv(0)), syntax.ret(syntax.jterm(bv(1)))),
        hint="x")
    return syntax.lam(x_ty, syntax.rterm(inner), hint="a")


def bind_program(m, n, x_ty: TypeExpr, y_ty: TypeExpr) -> Term:
    """lam (f:T_mA). lam (g:A -> T_nB). R(lam (s:gr(m*n)).
    let (t,r) = unmerge s in
      (do x <- app (derelict f) t in (let J(a) = x in app (derelict (app g a)) r)))
    """
    tm_x = rt(lolli(grty(m), tt(x_ty)))
    tn_y = rt(lolli(grty(n), tt(y_ty)))
    let_body = syntax.app(
        syntax.derelict(syntax.app(bv(5), bv(0))), bv(2))
    do_body = syntax.letj(bv(0), let_body, hint="a")
    body2 = syntax.do(syntax.app(syntax.derelict(bv(4)), bv(1)), do_body,
                      hint="x")
    inner = syntax.lam(grty(gtensor(m, n)),
                       syntax.letpair(syntax.unmerge(bv(0)), body2, "t", "r"),
                       hint="s")
    return syntax.lam(
        tm_x,
        syntax.lam(syntax.fun(x_ty, tn_y), syntax.rterm(inner), hint="g"),
        hint="f")


def regrade_program(xi: GradeMor, x_ty: TypeExpr) -> Term:
    """lam (f:T_nX). R(lam (s:gr(m)). app (derelict f) (regrade<xi> s))"""
    tn_x = rt(lolli(grty(xi.tgt), tt(x_ty)))
    inner = syntax.lam(
        grty(xi.src),
        syntax.app(syntax.derelict(bv(1)), syntax.regrade(xi, bv(0))),
        hint="s")
    return syntax.lam(tn_x, syntax.rterm(inner), hint="f")


def _tr_gmm(node: Derivation, kids) -> Term | None:
    """The graded formers' clauses: each applies its program."""
    ty = node.ty
    match node.rule:
        case "ret":
            prog = unit_program(ty_gmm_to_lnl(ty.subs[0]), ty.grade)
            return syntax.app(prog, kids[0])
        case "do":
            uty, bty = (c.ty for c in node.children)
            prog = bind_program(uty.grade, bty.grade,
                                ty_gmm_to_lnl(uty.subs[0]),
                                ty_gmm_to_lnl(bty.subs[0]))
            karg = syntax.lam(ty_gmm_to_lnl(uty.subs[0]), kids[1],
                              hint=node.binders[0])
            return syntax.app(syntax.app(prog, kids[0]), karg)
        case "regrade":
            # a presented grading's morphism is its word, not its endpoints
            uty = node.children[0].ty
            word = node.term.xi.word
            prog = regrade_program(GradeMor(ty.grade, uty.grade, word),
                                   ty_gmm_to_lnl(uty.subs[0]))
            return syntax.app(prog, kids[0])
    return None


def gmm_to_lnl(j: Judgement, sig: Signature):
    """Translate a graded judgement; returns (target judgement, trace)."""
    return _translate(j, sig, "gmm", "lnl", _tr_gmm, ty_gmm_to_lnl)


# ---------------------------------------------------------------------------
# arrow calculus -> three-zone calculus

def ty_arrow_to_armm(ty: TypeExpr) -> TypeExpr:
    if ty.kind in ("fun", "arr"):
        res = (jt if ty.kind == "fun" else tt)(ty_arrow_to_armm(ty.subs[1]))
        return aabs(ty_arrow_to_armm(ty.subs[0]), res)
    return _ty_shared(ty, ty_arrow_to_armm, "arrow")


def _tr_arrow(node: Derivation, kids) -> Term | None:
    """The arrow formers' and commands' clauses."""
    match node.rule:
        case "lam" | "lamarrow":
            # lam (x:A). u  becomes  lamarrow (x:A'). J(u'); A is read off
            # the node's type, as the term may leave it to the checker
            dom = ty_arrow_to_armm(node.ty.subs[0])
            body = syntax.jterm(kids[0]) if node.rule == "lam" else kids[0]
            return syntax.lamarrow(dom, body, hint=node.binders[0])
        case "app":
            return syntax.app(*kids)
        case "cmd-ret":
            return syntax.ret(syntax.jterm(kids[0]))
        case "cmd-app":
            return syntax.aapp(*kids)
        case "cmd-do":
            # do y <- u in let J(x) = y in t: indices past x shift over y
            inner = syntax.letj(bv(0), shift(kids[1], 1, 1),
                                hint=node.binders[0])
            return syntax.do(kids[0], inner, hint="y")
    return None


def arrow_to_armm(j: Judgement, sig: Signature):
    """Translate an arrow-calculus judgement or command; returns
    (target judgement, trace)."""
    return _translate(j, sig, "arrow", "armm", _tr_arrow, ty_arrow_to_armm)


def translate(j: Judgement, sig: Signature, src: str, tgt: str):
    if (src, tgt) == ("gmm", "lnl-rmm") or (src, tgt) == ("gmm", "lnl"):
        return gmm_to_lnl(j, sig)
    if (src, tgt) == ("arrow", "armm"):
        return arrow_to_armm(j, sig)
    raise TranslateError(f"no translation {src} -> {tgt}")


# ---------------------------------------------------------------------------
# conservativity harness

@dataclass
class HarnessRow:
    name: str
    src_status: str
    tgt_status: str
    ok: bool
    detail: str = ""


@dataclass
class HarnessReport:
    direction: str
    rows: list[HarnessRow] = field(default_factory=list)
    typing_checked: int = 0
    typing_failures: int = 0

    @property
    def ok(self):
        return self.typing_failures == 0 and all(r.ok for r in self.rows)

    def render(self) -> str:
        lines = [f"conservativity harness [{self.direction}]",
                 f"typing preserved: {self.typing_checked - self.typing_failures}"
                 f"/{self.typing_checked}"]
        for r in self.rows:
            flag = "ok " if r.ok else "BUG"
            lines.append(f"  {flag} {r.name}: source={r.src_status}"
                         f" target={r.tgt_status} {r.detail}")
        return "\n".join(lines)


def conservativity_harness(pairs, direction: str, sig: Signature,
                           src_models=(), tgt_models=(),
                           search_depth: int = 4) -> HarnessReport:
    """For each source equation pair: translate, then compare verdicts.

    (a) a Proven source pair must not be Refuted in the target;
    (b) a Refuted target pair must be Refuted in the source too.
    Disagreements are reported, not raised: the theorems say there are none.
    So is a side whose translation fails the target's check: it counts as
    a typing failure, and its row is a BUG with the checker's message.
    Each source is checked once, for its translation and its verdict (an
    ill-typed one stays plain: its translation raises, as ever).
    """
    from .equations import check_eq

    report = HarnessReport(direction)
    tr = gmm_to_lnl if direction == "gmm" else arrow_to_armm
    for name, jl, jr in pairs:
        jl, jr = (check(j, sig) or j for j in (jl, jr))
        targets, failures = [], []
        for j in (jl, jr):
            try:
                targets.append(tr(j, sig)[0])
            except IllTypedTarget as e:
                failures.append(str(e))
        report.typing_checked += 2
        report.typing_failures += len(failures)
        src_v = check_eq(jl, jr, sig, src_models, depth=search_depth)
        if failures:
            report.rows.append(HarnessRow(name, src_v.status, "ILL-TYPED",
                                          False, failures[0]))
            continue
        tgt_v = check_eq(*targets, sig, tgt_models, depth=search_depth)
        detail = ""
        if tgt_v.status == "REFUTED" and src_v.status == "PROVEN":
            detail = f"translated pair refuted: {tgt_v.witness}"
        elif tgt_v.status == "REFUTED" and src_v.status != "REFUTED":
            detail = "target refuted but source is not"
        report.rows.append(HarnessRow(name, src_v.status, tgt_v.status,
                                      not detail, detail))
    return report
