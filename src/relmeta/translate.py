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
a variable translates to itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import syntax
from .signatures import Signature
from .syntax import (GradeMor, Judgement, Term, TypeExpr, aabs, bv, grty,
                     gtensor, jt, lolli, prod, rt, shift, tt)
from .typecheck import Derivation, check


class TranslateError(Exception):
    pass


@dataclass
class TranslationTrace:
    source: Judgement
    target: Judgement
    node_map: dict = field(default_factory=dict)  # source path -> clause name
    typing_preserved: bool | None = None
    equation_pairs_tested: int = 0

    def render(self) -> str:
        lines = [f"source: {self.source}", f"target: {self.target}",
                 f"typing preserved: {self.typing_preserved}"]
        for path in sorted(self.node_map):
            loc = ".".join(map(str, path)) or "root"
            lines.append(f"  {loc}: {self.node_map[path]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# graded -> linear-non-linear

def ty_gmm_to_lnl(ty: TypeExpr) -> TypeExpr:
    match ty.kind:
        case "unit1":
            return ty
        case "base":
            return ty
        case "prod":
            return prod(ty_gmm_to_lnl(ty.subs[0]), ty_gmm_to_lnl(ty.subs[1]))
        case "tgr":
            return rt(lolli(grty(ty.grade), tt(ty_gmm_to_lnl(ty.subs[0]))))
    raise TranslateError(f"not a graded-calculus type: {ty}")


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


def _tr_gmm(node: Derivation, trace: TranslationTrace, path=()) -> Term:
    t = node.judgement.term
    rule = node.rule

    def kid(i):
        return _tr_gmm(node.children[i], trace, path + (i,))

    trace.node_map[path] = rule
    match rule:
        case "var":
            return t
        case "unit":
            return syntax.UNIT
        case "pair":
            return syntax.pair(kid(0), kid(1))
        case "pi1":
            return syntax.pi1(kid(0))
        case "pi2":
            return syntax.pi2(kid(0))
        case "op":
            return syntax.opapp(t.name, *(kid(i)
                                          for i in range(len(node.children))))
        case "ret":
            ty = node.judgement.ty
            prog = unit_program(ty_gmm_to_lnl(ty.subs[0]), ty.grade)
            return syntax.app(prog, kid(0))
        case "do":
            uty = node.children[0].judgement.ty
            bty = node.children[1].judgement.ty
            x = node.binders[0]
            prog = bind_program(uty.grade, bty.grade,
                                ty_gmm_to_lnl(uty.subs[0]),
                                ty_gmm_to_lnl(bty.subs[0]))
            karg = syntax.lam(ty_gmm_to_lnl(uty.subs[0]), kid(1), hint=x)
            return syntax.app(syntax.app(prog, kid(0)), karg)
        case "regrade":
            uty = node.children[0].judgement.ty
            prog = regrade_program(syntax.GradeMor(node.judgement.ty.grade,
                                                   uty.grade),
                                   ty_gmm_to_lnl(uty.subs[0]))
            return syntax.app(prog, kid(0))
    raise TranslateError(f"no graded translation clause for rule {rule}")


def gmm_to_lnl(j: Judgement, sig: Signature,
               tgt_sig: Signature | None = None):
    """Translate a graded judgement; returns (target judgement, trace)."""
    if j.calculus != "gmm":
        raise TranslateError("source judgement is not graded")
    res = check(j, sig)
    if not res.ok:
        raise TranslateError(f"source judgement fails checking: {res.message}")
    trace = TranslationTrace(j, None)
    term = _tr_gmm(res.derivation, trace)
    zones = (tuple((x, ty_gmm_to_lnl(ty)) for x, ty in j.zones[0]),)
    tgt = Judgement("lnl", "A", zones, term, ty_gmm_to_lnl(j.ty))
    trace.target = tgt
    tres = check(tgt, tgt_sig if tgt_sig is not None else sig)
    trace.typing_preserved = bool(tres.ok)
    if not tres.ok:
        raise TranslateError(
            f"translation produced an ill-typed judgement: {tres.message}\n"
            f"  {tgt}")
    return tgt, trace


# ---------------------------------------------------------------------------
# arrow calculus -> three-zone calculus

def ty_arrow_to_armm(ty: TypeExpr) -> TypeExpr:
    match ty.kind:
        case "unit1":
            return ty
        case "base":
            return ty
        case "prod":
            return prod(ty_arrow_to_armm(ty.subs[0]),
                        ty_arrow_to_armm(ty.subs[1]))
        case "fun":
            return aabs(ty_arrow_to_armm(ty.subs[0]),
                        jt(ty_arrow_to_armm(ty.subs[1])))
        case "arr":
            return aabs(ty_arrow_to_armm(ty.subs[0]),
                        tt(ty_arrow_to_armm(ty.subs[1])))
    raise TranslateError(f"not an arrow-calculus type: {ty}")


def _tr_arrow(node: Derivation, trace: TranslationTrace, path=()) -> Term:
    t = node.judgement.term
    rule = node.rule

    def kid(i):
        return _tr_arrow(node.children[i], trace, path + (i,))

    trace.node_map[path] = rule
    match rule:
        case "var":
            return t
        case "unit":
            return syntax.UNIT
        case "pair":
            return syntax.pair(kid(0), kid(1))
        case "pi1":
            return syntax.pi1(kid(0))
        case "pi2":
            return syntax.pi2(kid(0))
        case "op":
            return syntax.opapp(t.name, *(kid(i)
                                          for i in range(len(node.children))))
        case "lam":
            # lam (x:A). u  becomes  lamarrow (x:A'). J(u')
            return syntax.lamarrow(ty_arrow_to_armm(t.tyann),
                                   syntax.jterm(kid(0)), hint=node.binders[0])
        case "app":
            return syntax.app(kid(0), kid(1))
        case "lamarrow":
            return syntax.lamarrow(ty_arrow_to_armm(t.tyann), kid(0),
                                   hint=node.binders[0])
        case "cmd-ret":
            return syntax.ret(syntax.jterm(kid(0)))
        case "cmd-app":
            return syntax.aapp(kid(0), kid(1))
        case "cmd-do":
            # do y <- u in let J(x) = y in t: indices past x shift over y
            inner = syntax.letj(bv(0), shift(kid(1), 1, 1),
                                hint=node.binders[0])
            return syntax.do(kid(0), inner, hint="y")
    raise TranslateError(f"no arrow translation clause for rule {rule}")


def arrow_to_armm(j: Judgement, sig: Signature,
                  tgt_sig: Signature | None = None):
    """Translate an arrow-calculus judgement or command; returns
    (target judgement, trace)."""
    if j.calculus != "arrow":
        raise TranslateError("source judgement is not arrow-calculus")
    res = check(j, sig)
    if not res.ok:
        raise TranslateError(f"source judgement fails checking: {res.message}")
    trace = TranslationTrace(j, None)
    term = _tr_arrow(res.derivation, trace)
    gamma = tuple((x, ty_arrow_to_armm(ty)) for x, ty in j.zones[0])
    if j.form == "A":
        tgt = Judgement("armm", "A", (gamma,), term, ty_arrow_to_armm(j.ty))
    else:
        delta = tuple((x, ty_arrow_to_armm(ty)) for x, ty in j.zones[1])
        tgt = Judgement("armm", "C", (gamma, delta, ()), term,
                        tt(ty_arrow_to_armm(j.ty)))
    trace.target = tgt
    tres = check(tgt, tgt_sig if tgt_sig is not None else sig)
    trace.typing_preserved = bool(tres.ok)
    if not tres.ok:
        raise TranslateError(
            f"translation produced an ill-typed judgement: {tres.message}\n"
            f"  {tgt}")
    return tgt, trace


def translate(j: Judgement, sig: Signature, src: str, tgt: str,
              tgt_sig: Signature | None = None):
    if (src, tgt) == ("gmm", "lnl-rmm") or (src, tgt) == ("gmm", "lnl"):
        return gmm_to_lnl(j, sig, tgt_sig)
    if (src, tgt) == ("arrow", "armm"):
        return arrow_to_armm(j, sig, tgt_sig)
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
                           tgt_sig: Signature | None = None,
                           search_depth: int = 4) -> HarnessReport:
    """For each source equation pair: translate, then compare verdicts.

    (a) a Proven source pair must not be Refuted in the target;
    (b) a Refuted target pair must be Refuted in the source too.
    Disagreements are reported, not raised: the theorems say there are none.
    """
    from .equations import check_eq

    report = HarnessReport(direction)
    tr = gmm_to_lnl if direction == "gmm" else arrow_to_armm
    for name, jl, jr in pairs:
        tl, trace_l = tr(jl, sig, tgt_sig)
        trc, trace_r = tr(jr, sig, tgt_sig)
        report.typing_checked += 2
        report.typing_failures += (not trace_l.typing_preserved) + \
            (not trace_r.typing_preserved)
        src_v = check_eq(jl, jr, sig, src_models, depth=search_depth)
        use_sig = tgt_sig if tgt_sig is not None else sig
        tgt_v = check_eq(tl, trc, use_sig, tgt_models, depth=search_depth)
        ok = True
        detail = ""
        if src_v.status == "PROVEN" and tgt_v.status == "REFUTED":
            ok = False
            detail = f"translated pair refuted: {tgt_v.witness}"
        if tgt_v.status == "REFUTED" and src_v.status != "REFUTED":
            ok = False
            detail = detail or "target refuted but source is not"
        report.rows.append(HarnessRow(name, src_v.status, tgt_v.status, ok,
                                      detail))
    return report
